//! `tengig-check` — the determinism golden gate for every pinned
//! experiment family, used by `make check` and CI.
//!
//! ```text
//! tengig-check [FAMILY...] [--shards N] [--write-golden]
//!                             gate the named families (default: all)
//! tengig-check obs summarize FILE    pretty-print one run's timelines
//! tengig-check obs diff A B          compare two runs' timelines
//! tengig-check obs run [--out PATH]  record the WAN cwnd timeline
//! tengig-check prof summarize FILE   pretty-print a profile document
//! tengig-check prof diff A B         compare two profile documents
//! tengig-check faults run [--scenarios N] [--seed S] [--threads T]
//!                         [--out PATH] [--inject INDEX]
//!                             chaos campaign; exit 1 if any scenario fails
//! tengig-check faults repro --seed SEED [--inject]
//!                             re-run one chaos scenario from its seed
//! ```
//!
//! Each family in [`FAMILIES`] computes its pinned documents (master seed
//! 2003) on 1 and then 4 sweep threads and hands them to
//! [`golden::judge`]: every document must be byte-identical across thread
//! counts, and each gated one must byte-match its golden under `goldens/`.
//!
//! * `obs` — the throughput sweep with metrics on and off: the sidecar is
//!   thread-gated, and both reports must match `obs_throughput.jsonl`
//!   (the metrics side-channel never touches the primary bytes).
//! * `faults` — burst-loss sweep, flap-recovery sweep, and a 64-scenario
//!   chaos campaign, against `faults_{burst,flap,chaos}.jsonl`.
//! * `grid` — the sharded fat-tree/torus sweep, against `grid.jsonl`.
//! * `prof` — the grid sweep with the profiling plane collected: the
//!   "sim" sidecar against `prof_throughput.jsonl`, and the report
//!   against `grid.jsonl` (profiling never perturbs a sweep byte).
//! * `serve` — the open-loop load and disk-striping ladders (report plus
//!   CPU-saturation sidecar), against `serve.jsonl`.
//!
//! `grid`, `prof` and `serve` run on the sharded engine and take
//! `--shards N` (default 1); their goldens are shard-count-invariant, so
//! every shard count compares against the same file. `obs` and `faults`
//! have no shard axis and reject `--shards`. Exit status is 0 on pass, 1
//! on mismatch (divergent documents land in `target/<family>_current.jsonl`),
//! 2 on operational error or bad usage.

use std::path::Path;

use tengig::experiments::faults::{
    burst_sweep_report, chaos_campaign, chaos_run, chaos_spec, flap_recovery_sweep_report,
    BURST_LENGTHS, FLAP_RTTS,
};
use tengig::experiments::grid::{grid_prof_sweep, grid_sweep_report, standard_presets};
use tengig::experiments::serve::{serve_sweep_report, standard_rungs};
use tengig::experiments::throughput::{throughput_sweep_report, throughput_sweep_with_metrics};
use tengig::experiments::wan::record_timeline;
use tengig::{LadderRung, SweepRunner};
use tengig_bench::golden::{self, Doc, Gate};
use tengig_ethernet::Mtu;
use tengig_net::WanSpec;
use tengig_sim::{Hist, Nanos, ObsConfig, Timelines};

const USAGE: &str = "usage: tengig-check [obs|faults|grid|prof|serve]... [--shards N] [--write-golden]
       tengig-check obs summarize FILE | obs diff A B | obs run [--out PATH]
       tengig-check prof summarize FILE | prof diff A B
       tengig-check faults run [--scenarios N] [--seed S] [--threads T] [--out PATH] [--inject INDEX]
       tengig-check faults repro --seed SEED [--inject]";

/// Master seed for every pinned sweep (the publication year, matching the
/// paper sweeps and `tengig-bench`).
const SEED: u64 = 2003;

/// Master seed and scenario count of the chaos campaign (default `faults
/// run` and the pinned gate alike).
const CAMPAIGN_SEED: u64 = 77;
const CAMPAIGN_N: usize = 64;

/// One gated family: its documents, and how to compute them.
struct Family {
    name: &'static str,
    /// Whether the family runs on the sharded engine (takes `--shards`).
    sharded: bool,
    docs: &'static [Doc],
    /// The documents, in `docs` order, at a shard count and sweep
    /// thread count.
    run: fn(shards: usize, threads: usize) -> Vec<String>,
}

const FAMILIES: &[Family] = &[
    Family {
        name: "obs",
        sharded: false,
        docs: &[
            Doc {
                name: "report, obs disabled",
                gate: Gate::Owned("obs_throughput.jsonl"),
            },
            Doc {
                name: "report, obs enabled",
                gate: Gate::Checked("obs_throughput.jsonl"),
            },
            Doc {
                name: "metrics sidecar",
                gate: Gate::Threads,
            },
        ],
        run: obs_docs,
    },
    Family {
        name: "faults",
        sharded: false,
        docs: &[
            Doc {
                name: "burst sweep",
                gate: Gate::Owned("faults_burst.jsonl"),
            },
            Doc {
                name: "flap recovery sweep",
                gate: Gate::Owned("faults_flap.jsonl"),
            },
            Doc {
                name: "chaos campaign",
                gate: Gate::Owned("faults_chaos.jsonl"),
            },
        ],
        run: faults_docs,
    },
    Family {
        name: "grid",
        sharded: true,
        docs: &[Doc {
            name: "sweep",
            gate: Gate::Owned("grid.jsonl"),
        }],
        run: grid_docs,
    },
    Family {
        name: "prof",
        sharded: true,
        docs: &[
            Doc {
                name: "profiling sidecar",
                gate: Gate::Owned("prof_throughput.jsonl"),
            },
            Doc {
                name: "profiled sweep report",
                gate: Gate::Checked("grid.jsonl"),
            },
        ],
        run: prof_docs,
    },
    Family {
        name: "serve",
        sharded: true,
        docs: &[Doc {
            name: "report + CPU sidecar",
            gate: Gate::Owned("serve.jsonl"),
        }],
        run: serve_docs,
    },
];

/// Obs cadence for the pinned workloads: a 100 µs sampling interval with
/// 1-in-4 detail sampling keeps the timelines compact but non-trivial.
fn obs_config() -> ObsConfig {
    ObsConfig {
        sample_interval: Nanos::from_micros(100),
        ring_capacity: 256,
        sample_every: 4,
        ..ObsConfig::default()
    }
}

/// The pinned obs sweep (20,000 packets per point: small enough for CI,
/// large enough that every probe stage fires): the report with obs off,
/// the report with obs on, and the metrics sidecar.
fn obs_docs(_shards: usize, threads: usize) -> Vec<String> {
    let cfg = LadderRung::OversizedWindows.pe2650_config(Mtu::JUMBO_9000);
    let (payloads, count) = (&[512, 1448, 8948], 20_000);
    let runner = SweepRunner::new(threads);
    let (_, plain) = throughput_sweep_report(cfg, "obs-check", payloads, count, SEED, runner);
    let (_, report, sidecar) = throughput_sweep_with_metrics(
        cfg,
        "obs-check",
        payloads,
        count,
        SEED,
        runner,
        &obs_config(),
    );
    vec![plain.to_jsonl(), report.to_jsonl(), sidecar.concatenated()]
}

/// The pinned faults family: burst sweep at 0.3% mean loss over a 90 s
/// window after a 2 s warmup (see `BURST_LENGTHS`), flap recovery, and
/// the chaos campaign.
fn faults_docs(_shards: usize, threads: usize) -> Vec<String> {
    let runner = SweepRunner::new(threads);
    let warmup = Nanos::from_secs(2);
    let window = Nanos::from_secs(90);
    let burst = burst_sweep_report(3e-3, &BURST_LENGTHS, warmup, window, SEED, runner).1;
    let flap = flap_recovery_sweep_report(&FLAP_RTTS, SEED, runner).1;
    let chaos = chaos_campaign(CAMPAIGN_N, CAMPAIGN_SEED, None, runner).1;
    vec![burst.to_jsonl(), flap.to_jsonl(), chaos.to_jsonl()]
}

fn grid_docs(shards: usize, threads: usize) -> Vec<String> {
    let report = grid_sweep_report(&standard_presets(), shards, SEED, SweepRunner::new(threads)).1;
    vec![report.to_jsonl()]
}

/// Only the deterministic "sim" profiling section is gated; the
/// per-shard "local" and host-domain "wall" sections never are.
fn prof_docs(shards: usize, threads: usize) -> Vec<String> {
    let (report, gated, _) =
        grid_prof_sweep(&standard_presets(), shards, SEED, SweepRunner::new(threads));
    vec![gated.concatenated(), report.to_jsonl()]
}

fn serve_docs(shards: usize, threads: usize) -> Vec<String> {
    let (_, report, sidecar) =
        serve_sweep_report(&standard_rungs(), shards, SEED, SweepRunner::new(threads));
    vec![format!("{}{}", report.to_jsonl(), sidecar.concatenated())]
}

/// A parsed gate invocation.
struct Opts {
    families: Vec<&'static Family>,
    shards: usize,
    write_golden: bool,
}

fn parse_gate(args: &[&str]) -> Result<Opts, String> {
    let mut families: Vec<&'static Family> = Vec::new();
    let mut shards = None;
    let mut write_golden = false;
    let mut it = args.iter();
    while let Some(&arg) = it.next() {
        match arg {
            "--shards" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) if n > 0 => shards = Some(n),
                _ => return Err("--shards needs a positive integer".into()),
            },
            "--write-golden" => write_golden = true,
            name => match FAMILIES.iter().find(|f| f.name == name) {
                Some(f) => families.push(f),
                None => return Err(format!("unknown family or flag `{name}`")),
            },
        }
    }
    if families.is_empty() {
        families = FAMILIES.iter().collect();
    }
    if shards.is_some() {
        if let Some(f) = families.iter().find(|f| !f.sharded) {
            return Err(format!(
                "family `{}` has no shard axis; drop --shards",
                f.name
            ));
        }
    }
    Ok(Opts {
        families,
        shards: shards.unwrap_or(1),
        write_golden,
    })
}

/// Run every selected family through the contract, in the order given.
fn check(opts: &Opts) -> Result<bool, String> {
    let mut ok = true;
    for fam in &opts.families {
        let axis = if fam.sharded {
            format!("shards={}, ", opts.shards)
        } else {
            String::new()
        };
        let run = |threads| {
            eprintln!(
                "{}: pinned documents, {axis}{threads} sweep thread(s) ...",
                fam.name
            );
            (fam.run)(opts.shards, threads)
        };
        let (one, four) = (run(1), run(4));
        let passed = golden::judge(
            fam.name,
            fam.docs,
            &one,
            &four,
            Path::new(""),
            opts.write_golden,
        )?;
        if passed {
            println!(
                "{}: PASS ({axis}byte-identical across 1/4 sweep threads, goldens match)",
                fam.name
            );
        }
        ok &= passed;
    }
    Ok(ok)
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))
}

fn read_timelines(path: &str) -> Result<Timelines, String> {
    Timelines::from_jsonl(&read(path)?).map_err(|e| format!("{path}: {e}"))
}

fn obs_diff(a: &str, b: &str) -> Result<bool, String> {
    let lines = read_timelines(a)?.diff(&read_timelines(b)?);
    if lines.is_empty() {
        println!("timelines identical: {a} == {b}");
        return Ok(true);
    }
    println!("timelines differ ({a} vs {b}):");
    for line in &lines {
        println!("  - {line}");
    }
    Ok(false)
}

/// Record the Internet2 land-speed-record run with metrics enabled and
/// write its timelines — including the cwnd-vs-time series of the paper's
/// AIMD plot — as JSONL.
fn obs_run(out: &str) -> Result<bool, String> {
    let (result, tl) = record_timeline(
        &WanSpec::record_run(),
        None,
        Nanos::from_secs(1),
        Nanos::from_secs(2),
        SEED,
        &obs_config(),
    );
    std::fs::write(out, tl.to_jsonl()).map_err(|e| format!("writing {out}: {e}"))?;
    println!(
        "wan record: {:.3} Gb/s, {} retransmits, {} drops",
        result.gbps, result.retransmits, result.drops
    );
    println!("wrote {} series to {out}", tl.len());
    Ok(true)
}

/// Extract an unsigned integer field from a single-line JSON object.
fn field_u64(line: &str, name: &str) -> u64 {
    let pat = format!("\"{name}\":");
    let Some(at) = line.find(&pat) else { return 0 };
    let digits: String = line[at + pat.len()..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().unwrap_or(0)
}

/// Parse an embedded histogram field out of a profile line.
fn field_hist(line: &str, name: &str) -> Option<Hist> {
    let pat = format!("\"{name}\":");
    let at = line.find(&pat)?;
    Hist::parse(&line[at + pat.len()..]).ok()
}

/// Pretty-print one profile document: per-preset sim sections with the
/// p50/p90/p99/max histogram readout, then local and wall sections.
fn prof_summarize(path: &str) -> Result<bool, String> {
    for line in read(path)?.lines() {
        if line.contains("\"prof\":\"sim\"") {
            let preset = line
                .split("\"preset\":\"")
                .nth(1)
                .and_then(|rest| rest.split('"').next())
                .unwrap_or("?");
            println!("{preset} executed={}", field_u64(line, "executed"));
            for h in ["rx_batch", "drain_batch"] {
                if let Some(hist) = field_hist(line, h) {
                    println!("  {h}: {}", hist.summary());
                }
            }
        } else if line.contains("\"prof\":\"local\"") {
            println!(
                "  shard {} windows={} msgs_sent={} pool={}h/{}m",
                field_u64(line, "shard"),
                field_u64(line, "windows"),
                field_u64(line, "msgs_sent"),
                field_u64(line, "pool_hits"),
                field_u64(line, "pool_misses"),
            );
        } else if line.contains("\"wall\":\"shard\"") {
            let ms = |name| field_u64(line, name) as f64 / 1e6;
            println!(
                "  wall shard {}: windows={} barrier_wait={:.3}ms execute={:.3}ms",
                field_u64(line, "shard"),
                field_u64(line, "windows"),
                ms("barrier_wait_ns"),
                ms("execute_ns"),
            );
        }
    }
    Ok(true)
}

/// Compare two profile documents; on the first divergence, show both
/// lines and — when histograms are present — their percentile readouts,
/// which usually localize a drift faster than raw bucket lists.
fn prof_diff(a: &str, b: &str) -> Result<bool, String> {
    let (left, right) = (read(a)?, read(b)?);
    if left == right {
        println!("profiles identical: {a} == {b}");
        return Ok(true);
    }
    let (l, r): (Vec<&str>, Vec<&str>) = (left.lines().collect(), right.lines().collect());
    println!("profiles differ ({a} vs {b}):");
    if let Some(i) = (0..l.len().max(r.len())).find(|&i| l.get(i) != r.get(i)) {
        let (le, rg) = (l.get(i).copied(), r.get(i).copied());
        println!("  first divergence at line {}:", i + 1);
        println!("    left:  {}", le.unwrap_or("<line missing>"));
        println!("    right: {}", rg.unwrap_or("<line missing>"));
        for name in ["rx_batch", "drain_batch"] {
            let lh = le.and_then(|s| field_hist(s, name));
            let rh = rg.and_then(|s| field_hist(s, name));
            if let (Some(lh), Some(rh)) = (lh, rh) {
                if lh != rh {
                    println!("    {name} left:  {}", lh.summary());
                    println!("    {name} right: {}", rh.summary());
                }
            }
        }
    }
    Ok(false)
}

fn parse_num<T: std::str::FromStr>(value: Option<&&str>, flag: &str) -> Result<T, String> {
    value
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("{flag} needs a numeric value"))
}

/// Run a seeded chaos campaign and print a repro line per failure.
/// `--inject INDEX` deliberately fails one scenario through the same
/// panic-capture path a real invariant violation takes — the self-test
/// that the printed repro line actually works.
fn faults_run(args: &[&str]) -> Result<bool, String> {
    let (mut n, mut seed, mut threads) = (CAMPAIGN_N, CAMPAIGN_SEED, 4);
    let (mut out, mut inject) = (None, None);
    let mut it = args.iter();
    while let Some(&flag) = it.next() {
        match flag {
            "--scenarios" => n = parse_num(it.next(), flag)?,
            "--seed" => seed = parse_num(it.next(), flag)?,
            "--threads" => threads = parse_num(it.next(), flag)?,
            "--inject" => inject = Some(parse_num(it.next(), flag)?),
            "--out" => out = Some(*it.next().ok_or("--out needs a path")?),
            _ => return Err(format!("unknown flag `{flag}`\n{USAGE}")),
        }
    }
    // Scenario panics are captured into rows; keep the default hook from
    // spraying backtraces over the campaign summary. `repro` leaves the
    // hook alone so a reproduced failure prints its full report.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let (rows, report) = chaos_campaign(n, seed, inject, SweepRunner::new(threads));
    std::panic::set_hook(hook);
    if let Some(path) = out {
        std::fs::write(path, report.to_jsonl()).map_err(|e| format!("writing {path}: {e}"))?;
        println!("wrote campaign report to {path}");
    }
    let mut failures = 0;
    for row in &rows {
        if let Err(text) = &row.outcome {
            failures += 1;
            let first = text.lines().next().unwrap_or("");
            println!("FAIL scenario {:03} seed {}: {first}", row.index, row.seed);
            println!("  repro: tengig-check faults repro --seed {}", row.seed);
        }
    }
    println!(
        "chaos campaign: {n} scenarios, master seed {seed}, {} survived, {failures} failed",
        n - failures
    );
    Ok(failures == 0)
}

/// Re-run a single chaos scenario from its seed, exactly as the campaign
/// did.
fn faults_repro(seed: u64, inject: bool) -> Result<bool, String> {
    let spec = chaos_spec(seed);
    println!(
        "scenario seed {seed}: mean_loss={:.5} burst={:.2} reorder_p={:.4} \
         dup={:.4} corrupt={:.4} outage={:?}",
        spec.mean_loss,
        spec.burst_len,
        spec.reorder_p,
        spec.duplicate,
        spec.corrupt,
        spec.outage_at.map(|at| (at, spec.outage_len)),
    );
    match chaos_run(seed, inject) {
        Ok(o) => {
            println!(
                "survived: {:.4} Gb/s over {}, {} rtx, {} rto, {} impair drops, \
                 {} dups, {} reordered, {} crc drops, {} events",
                o.gbps,
                o.duration,
                o.retransmits,
                o.timeouts,
                o.impair_drops,
                o.dup_frames,
                o.reordered,
                o.crc_drops,
                o.events
            );
            Ok(true)
        }
        Err(text) => {
            println!("FAILED:\n{text}");
            Ok(false)
        }
    }
}

/// Dispatch one invocation; the returned outcome maps onto the exit code.
fn dispatch(args: &[&str]) -> Result<bool, String> {
    match args {
        ["obs", "summarize", path] => {
            print!("{}", read_timelines(path)?.summary());
            Ok(true)
        }
        ["obs", "diff", a, b] => obs_diff(a, b),
        ["obs", "run"] => obs_run("wan_record.obs.jsonl"),
        ["obs", "run", "--out", path] => obs_run(path),
        ["prof", "summarize", path] => prof_summarize(path),
        ["prof", "diff", a, b] => prof_diff(a, b),
        ["faults", "run", rest @ ..] => faults_run(rest),
        ["faults", "repro", "--seed", seed, rest @ ..] => {
            let seed = parse_num(Some(seed), "--seed")?;
            match rest {
                [] => faults_repro(seed, false),
                ["--inject"] => faults_repro(seed, true),
                _ => Err(USAGE.into()),
            }
        }
        _ => check(&parse_gate(args).map_err(|e| format!("{e}\n{USAGE}"))?),
    }
}

/// Map an outcome onto the exit-code convention: 0 pass, 1 mismatch, 2
/// operational error or bad usage.
fn exit_code(outcome: Result<bool, String>) -> i32 {
    match outcome {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("tengig-check: {e}");
            2
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let strs: Vec<&str> = args.iter().map(String::as_str).collect();
    std::process::exit(exit_code(dispatch(&strs)));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn goldens_dir() -> std::path::PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../goldens")
    }

    #[test]
    fn every_golden_is_owned_by_exactly_one_family() {
        let mut files: Vec<String> = std::fs::read_dir(goldens_dir())
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|name| name != "lint_baseline.json")
            .collect();
        files.sort();
        assert!(!files.is_empty());
        for file in &files {
            let owners: Vec<&str> = FAMILIES
                .iter()
                .filter(|f| {
                    f.docs
                        .iter()
                        .any(|d| matches!(d.gate, Gate::Owned(g) if g == file))
                })
                .map(|f| f.name)
                .collect();
            assert_eq!(owners.len(), 1, "goldens/{file} owned by {owners:?}");
        }
        for fam in FAMILIES {
            for doc in fam.docs {
                if let Gate::Owned(file) | Gate::Checked(file) = doc.gate {
                    assert!(files.iter().any(|f| f == file), "{}: {file}", fam.name);
                }
            }
        }
    }

    #[test]
    fn bad_usage_exits_2_before_running_anything() {
        for args in [
            &["nope"][..],
            &["grid", "--shards", "0"],
            &["grid", "--shards"],
            &["obs", "--shards", "4"],
            &["faults", "--shards", "4"],
            &["--shards", "4"],
            &["faults", "repro", "--seed", "x"],
        ] {
            assert_eq!(exit_code(dispatch(args)), 2, "{args:?}");
        }
    }

    #[test]
    fn gate_arguments_parse() {
        let all = parse_gate(&[]).unwrap();
        assert_eq!(all.families.len(), FAMILIES.len());
        assert_eq!(all.shards, 1);
        let o = parse_gate(&["prof", "serve", "--shards", "4"]).unwrap();
        let names: Vec<&str> = o.families.iter().map(|f| f.name).collect();
        assert_eq!(names, ["prof", "serve"]);
        assert_eq!((o.shards, o.write_golden), (4, false));
    }

    #[test]
    fn prof_write_golden_never_writes_grid_golden() {
        let opts = parse_gate(&["prof", "--write-golden"]).unwrap();
        assert!(opts.write_golden);
        let prof = opts.families[0];
        assert_eq!(prof.name, "prof");
        let root = std::env::temp_dir().join("tengig-check-prof-test");
        let grid = root.join("goldens/grid.jsonl");
        golden::write_file(&grid, "grid\n").unwrap();
        let docs = vec!["sidecar\n".to_string(), "grid\n".to_string()];
        assert!(golden::judge("prof", prof.docs, &docs, &docs, &root, true).unwrap());
        let read = |p: &str| std::fs::read_to_string(root.join(p)).unwrap();
        assert_eq!(read("goldens/prof_throughput.jsonl"), "sidecar\n");
        // A divergent report fails against grid.jsonl instead of
        // overwriting it, and is dumped for upload.
        let drift = vec!["sidecar\n".to_string(), "drift\n".to_string()];
        assert!(!golden::judge("prof", prof.docs, &drift, &drift, &root, true).unwrap());
        assert_eq!(read("goldens/grid.jsonl"), "grid\n");
        assert_eq!(read("target/prof_current.jsonl"), "drift\n");
        // An unreadable cross-checked golden is an operational error.
        std::fs::remove_file(&grid).unwrap();
        assert!(golden::judge("prof", prof.docs, &docs, &docs, &root, true).is_err());
    }
}
