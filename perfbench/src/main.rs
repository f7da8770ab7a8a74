//! Host-time benchmark of the tengig simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload lan_bulk|wan_record|fabric_2shard|serve_openloop \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! One process runs one workload:
//!
//! 1. a check pass with the sanitizer on, compared against the pinned
//!    reference on seed 2003 and against invariants on any seed;
//! 2. for `--seconds`, back-to-back repeats of the fixed simulated work,
//!    each compared with the check pass and preceded by timed set-ups
//!    (`setup_s`). With `--trace 1` every repeat is followed by a traced
//!    repeat, which splits host time by layer. A calibration kernel runs
//!    before every repeat; end-to-end times are scaled by it to
//!    reference-host seconds (see [`calib`]).
//!
//! It prints every metric with its unit, the check's verdict, and as its
//! last line one JSON object: `correct`, `attempted`, `failed`, `metrics`
//! (the end-to-end metrics, or with `--trace 1` the per-layer ones).

mod calib;
mod gridprof;
mod layers;
mod reference;
mod trace;
mod workloads;

use std::time::Instant;
use tengig::Ev;
use trace::Trace;
use workloads::{
    Fabric2Shard, LanBulk, Outcome, ServeOpenloop, SubRun, Tracing, WanRecord, Workload,
};

/// Set-ups timed before each repeat; `setup_s` is their median, so it
/// samples the same stretch of host time as `run_s`.
const SETUPS_PER_REP: usize = 20;

/// Repeats of the fixed work a run makes even past `--seconds`.
const MIN_REPS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: reference::REFERENCE_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// Sub-runs attempted and failed, with the first few failure reasons.
#[derive(Default)]
struct Verdict {
    attempted: u64,
    failed: u64,
    reasons: Vec<String>,
}

impl Verdict {
    fn record(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.failed += 1;
            if self.reasons.len() < 8 {
                self.reasons.push(why);
            }
        }
    }
}

/// Check one sub-run of the check pass against its pinned line, if any.
fn check_pinned(o: &Outcome, pinned: Option<&String>) -> Result<(), String> {
    let run = o.as_ref().map_err(Clone::clone)?;
    match pinned {
        Some(want) if *want != run.line() => Err(format!(
            "{}: differs from the pinned reference\n  got:  {}\n  want: {}",
            run.label,
            clip(&run.line()),
            clip(want)
        )),
        _ => Ok(()),
    }
}

/// Check one repeat's sub-run against the check pass: the same work must
/// give the same outputs (`same_detail`) or at least the same event and
/// byte counts.
fn check_repeat(o: &Outcome, checked: &SubRun, same_detail: bool) -> Result<(), String> {
    let run = o.as_ref().map_err(Clone::clone)?;
    let same = if same_detail {
        run == checked
    } else {
        (run.events, run.payload_bytes) == (checked.events, checked.payload_bytes)
    };
    if same {
        Ok(())
    } else {
        Err(format!(
            "{}: repeat differs from the check pass\n  got:  {}\n  want: {}",
            run.label,
            clip(&run.line()),
            clip(&checked.line())
        ))
    }
}

fn clip(s: &str) -> String {
    s.chars().take(240).collect()
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

fn seconds_of(f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64()
}

/// Peak resident set of this process in MiB (`VmHWM`). One process runs
/// one workload, so this is the workload's own high-water mark.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One named metric with its unit.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// What one workload's run measured.
struct Measured {
    verdict: Verdict,
    checked: Vec<Outcome>,
    setup_s: f64,
    run_s: Vec<f64>,
    traced_s: Vec<f64>,
    /// Host seconds of each calibration kernel run.
    cal_s: Vec<f64>,
    trace: Option<Trace>,
    shards: usize,
}

fn measure<W: Workload>(w: &W, name: &str, args: &Args) -> Measured {
    let seed = args.seed;
    let mut verdict = Verdict::default();

    // Check pass, sanitized; it also warms caches and the allocator.
    tengig_sim::sanitizer::set_default_enabled(true);
    let checked = w.run(w.setup(seed), Tracing::Off);
    tengig_sim::sanitizer::set_default_enabled(false);
    let pinned = reference::pinned(name, seed);
    if let Some(p) = &pinned {
        if p.len() != checked.len() {
            verdict.record(Err(format!(
                "{} sub-runs, the reference pins {}",
                checked.len(),
                p.len()
            )));
        }
    }
    for (i, o) in checked.iter().enumerate() {
        verdict.record(check_pinned(o, pinned.as_ref().and_then(|p| p.get(i))));
    }

    let mut run_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut trace: Option<Trace> = None;
    let mut setups = Vec::new();
    let mut cal_s = Vec::new();
    let start = Instant::now();
    while run_s.len() < MIN_REPS || start.elapsed().as_secs_f64() < args.seconds {
        cal_s.push(seconds_of(calib::kernel));
        for _ in 0..SETUPS_PER_REP {
            setups.push(seconds_of(|| w.setup_cost(seed)));
        }
        let world = w.setup(seed);
        let mut outs = Vec::new();
        run_s.push(seconds_of(|| outs = w.run(world, Tracing::Off)));
        record_repeat(&mut verdict, &outs, &checked, true);
        if args.trace {
            let mut tr = Trace::default();
            let world = w.setup(seed);
            traced_s.push(seconds_of(|| outs = w.run(world, Tracing::On(&mut tr))));
            record_repeat(&mut verdict, &outs, &checked, false);
            match &mut trace {
                None => trace = Some(tr),
                Some(t) => t.pool_timing(&tr),
            }
        }
    }
    Measured {
        verdict,
        checked,
        setup_s: median(setups),
        run_s,
        traced_s,
        cal_s,
        trace,
        shards: w.shards(),
    }
}

impl Measured {
    /// Reference-host seconds per host second over this run (see [`calib`]).
    fn scale(&self) -> f64 {
        calib::REFERENCE_S / median(self.cal_s.clone())
    }
}

fn record_repeat(verdict: &mut Verdict, outs: &[Outcome], checked: &[Outcome], same_detail: bool) {
    for (o, c) in outs.iter().zip(checked) {
        verdict.record(match c {
            Ok(c) => check_repeat(o, c, same_detail),
            Err(_) => Err("the check pass of this sub-run failed".to_string()),
        });
    }
}

/// The end-to-end metrics. Times are in reference-host seconds.
fn end_to_end(m: &Measured) -> Vec<Metric> {
    let run_s = median(m.run_s.clone()) * m.scale();
    let bytes: u64 = m.checked.iter().flatten().map(|r| r.payload_bytes).sum();
    let v = &m.verdict;
    vec![
        metric("run_s", run_s, "s"),
        metric("setup_s", m.setup_s * m.scale(), "s"),
        metric("sim_bytes_per_s", bytes as f64 / run_s, "B/s"),
        metric("peak_rss_mb", peak_rss_mb(), "MiB"),
        metric(
            "ok_frac",
            1.0 - v.failed as f64 / v.attempted.max(1) as f64,
            "frac",
        ),
    ]
}

/// The per-layer metrics. Times are raw host time.
fn per_layer(m: &Measured, nproc: usize) -> Vec<Metric> {
    let empty = Trace::default();
    let tr = m.trace.as_ref().unwrap_or(&empty);
    let c = |name: &str| tr.counters.get(name).copied().unwrap_or(0.0);
    let total_ns = (tr.step_ns.iter().sum::<u64>() + tr.barrier_ns + tr.blind_ns).max(1) as f64;
    let mut out = Vec::new();
    let mut layer_share = std::collections::BTreeMap::new();
    for (k, kind) in Ev::NAMES.iter().enumerate() {
        let layer = layers::layer_of(kind).expect("checked at start-up");
        let share = tr.step_ns[k] as f64 / total_ns;
        let ns = tr.step_ns[k] as f64 / tr.timed[k].max(1) as f64;
        *layer_share.entry(layer).or_insert(0.0) += share;
        out.push(metric(
            format!("{layer}.{kind}.count"),
            tr.fired[k] as f64,
            "count",
        ));
        out.push(metric(format!("{layer}.{kind}.ns_per_event"), ns, "ns"));
        out.push(metric(format!("{layer}.{kind}.share"), share, "frac"));
    }
    *layer_share.entry("shard").or_insert(0.0) += tr.barrier_ns as f64 / total_ns;
    for layer in layers::LAYERS {
        out.push(metric(
            format!("{layer}.share"),
            layer_share.get(layer).copied().unwrap_or(0.0),
            "frac",
        ));
    }
    out.push(metric(
        format!("{}.share", layers::BLIND),
        tr.blind_ns as f64 / total_ns,
        "frac",
    ));

    let run_s = median(m.run_s.clone());
    let traced_s = if m.traced_s.is_empty() {
        0.0
    } else {
        median(m.traced_s.clone())
    };
    let events = c("sim.events");
    let windows = c("shard.windows");
    let reps = m.traced_s.len().max(1) as f64;
    let rx_dma = tr.fired[Ev::NAMES
        .iter()
        .position(|n| *n == "RxDmaDone")
        .expect("kind")];
    let per = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    out.extend([
        metric("sim.events", events, "count"),
        metric("sim.events_per_s", events / run_s, "1/s"),
        metric("sim.step_ns.p50", tr.step_quantile(0.50), "ns"),
        metric("sim.step_ns.p99", tr.step_quantile(0.99), "ns"),
        metric("sim.sched_events", c("sim.sched_events"), "count"),
        metric("sim.sched_timers", c("sim.sched_timers"), "count"),
        metric("sim.sched_front", c("sim.sched_front"), "count"),
        metric("sim.cancels", c("sim.cancels"), "count"),
        metric("sim.wheel_cascades", c("sim.wheel_cascades"), "count"),
        metric("sim.lane_hiwater", c("sim.lane_hiwater"), "count"),
        metric(
            "hw.disk.stripe_run_s",
            c("hw.disk.stripe_run_s") / reps,
            "s",
        ),
        metric(
            "nic.rx_batch.mean",
            per(rx_dma as f64, c("nic.rx_batches")),
            "frames",
        ),
        metric("net.drops", c("net.drops"), "count"),
        metric("net.impair_drops", c("net.impair_drops"), "count"),
        metric("tcp.retransmits", c("tcp.retransmits"), "count"),
        metric("lab.pool_misses", c("lab.pool_misses"), "count"),
        metric("shard.count", m.shards as f64, "count"),
        metric("shard.nproc", nproc as f64, "count"),
        metric("shard.over_cores", (m.shards > nproc) as u8 as f64, "count"),
        metric("shard.windows", windows, "count"),
        metric("shard.msgs_sent", c("shard.msgs_sent"), "count"),
        metric("shard.events_per_window", per(events, windows), "count"),
        metric(
            "shard.barrier_wait_frac",
            per(tr.barrier_ns as f64, (tr.barrier_ns + tr.blind_ns) as f64),
            "frac",
        ),
        metric("obs.series", c("obs.series"), "count"),
        metric("obs.points", c("obs.points"), "count"),
        metric("serve.load_run_s", c("serve.load_run_s") / reps, "s"),
        metric("host.cal_s", median(m.cal_s.clone()), "s"),
        metric("host.scale", m.scale(), "ratio"),
        metric("trace.run_s", traced_s, "s"),
        metric("trace.untraced_run_s", run_s, "s"),
        metric("trace.overhead_frac", per(traced_s, run_s) - 1.0, "frac"),
    ]);
    out
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        eprintln!(
            "usage: perfbench --workload lan_bulk|wan_record|fabric_2shard|serve_openloop \
             [--seed N] [--seconds S] [--trace 0|1]"
        );
        std::process::exit(2);
    });
    let unmapped = layers::unmapped_kinds();
    if !unmapped.is_empty() {
        eprintln!("perfbench: event kinds without a layer: {unmapped:?}");
        std::process::exit(2);
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let name = args.workload.as_str();
    let m = match name {
        "lan_bulk" => measure(&LanBulk, name, &args),
        "wan_record" => measure(&WanRecord, name, &args),
        "fabric_2shard" => measure(&Fabric2Shard, name, &args),
        "serve_openloop" => measure(&ServeOpenloop, name, &args),
        other => {
            eprintln!("perfbench: unknown workload `{other}`");
            std::process::exit(2);
        }
    };
    let metrics = if args.trace {
        per_layer(&m, nproc)
    } else {
        end_to_end(&m)
    };

    for mt in &metrics {
        println!("{:<34} {:>20.6} {}", mt.name, mt.value, mt.unit);
    }
    let over = if m.shards > nproc {
        "  SHARDS EXCEED CORES"
    } else {
        ""
    };
    println!(
        "workload {name}  seed {}  repeats {}  shards {}  nproc {nproc}{over}",
        args.seed,
        m.run_s.len(),
        m.shards
    );
    let v = &m.verdict;
    let correct = v.failed == 0;
    for why in &v.reasons {
        println!("FAIL {why}");
    }
    println!(
        "check: {} ({} of {} sub-runs failed)",
        if correct { "PASS" } else { "FAIL" },
        v.failed,
        v.attempted
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|mt| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                mt.name, mt.value, mt.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        v.attempted,
        v.failed,
        body.join(",")
    );
    std::process::exit(if correct { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    fn measured() -> Measured {
        Measured {
            verdict: Verdict::default(),
            checked: Vec::new(),
            setup_s: 1.0,
            run_s: vec![1.0],
            traced_s: vec![1.5],
            cal_s: vec![calib::REFERENCE_S],
            trace: None,
            shards: 1,
        }
    }

    /// Every emitted metric is declared with its unit, and the number of
    /// declared metrics of each kind matches.
    fn assert_declared(metrics: &[Metric], section: &str) {
        let declared = BENCHMARK_JSON
            .split(&format!("\"{section}\": ["))
            .nth(1)
            .and_then(|s| s.split(']').next())
            .expect("section present");
        for m in metrics {
            let entry = format!("{{\"name\": \"{}\", \"unit\": \"{}\"", m.name, m.unit);
            assert!(declared.contains(&entry), "{section} lacks {entry}");
        }
        assert_eq!(
            declared.matches("\"name\"").count(),
            metrics.len(),
            "{section}"
        );
    }

    #[test]
    fn benchmark_json_declares_every_end_to_end_metric() {
        assert_declared(&end_to_end(&measured()), "end_to_end");
    }

    #[test]
    fn benchmark_json_declares_every_per_layer_metric() {
        assert_declared(&per_layer(&measured(), 2), "per_layer");
    }

    #[test]
    fn layer_shares_add_up_to_the_traced_total() {
        let mut tr = Trace::default();
        tr.record_step(1, 300);
        tr.record_step(6, 500);
        tr.fired[1] = 1;
        tr.fired[6] = 1;
        tr.barrier_ns = 100;
        tr.blind_ns = 100;
        let m = Measured {
            trace: Some(tr),
            ..measured()
        };
        let metrics = per_layer(&m, 2);
        let total: f64 = metrics
            .iter()
            .filter(|mt| mt.name.ends_with(".share") && mt.name.matches('.').count() == 1)
            .map(|mt| mt.value)
            .sum();
        assert!((total - 1.0).abs() < 1e-12, "{total}");
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
