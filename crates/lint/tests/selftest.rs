//! Self-test: the linter fires on a fixture tree of known-bad snippets
//! and stays silent on the live workspace — where the taint pass must
//! also prove every declared hot-path root source-free.

use std::path::{Path, PathBuf};

use tengig_lint::{lint_workspace, rust_files, taint, Diagnostic};

fn fixtures_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures")
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn diags_for<'a>(diags: &'a [Diagnostic], file: &str) -> Vec<&'a Diagnostic> {
    diags.iter().filter(|d| d.path.ends_with(file)).collect()
}

#[test]
fn fixture_tree_trips_every_rule() {
    let report = lint_workspace(&fixtures_root()).expect("fixture tree readable");
    let d = &report.diagnostics;
    assert!(!d.is_empty(), "the known-bad tree must fail the lint");

    // wall-clock: both the import line and the two use sites.
    let clock = diags_for(d, "bad_clock.rs");
    assert!(clock.iter().all(|x| x.rule == "wall-clock"), "{clock:?}");
    assert!(
        clock.iter().any(|x| x.line == 2),
        "import line flagged: {clock:?}"
    );
    assert!(
        clock.len() >= 3,
        "Instant::now and SystemTime::now flagged: {clock:?}"
    );

    // unwrap: the bare unwrap and the panic!, but NOT the allowed one.
    let unwrap = diags_for(d, "bad_unwrap.rs");
    assert_eq!(
        unwrap.len(),
        2,
        "allowed unwrap must be suppressed: {unwrap:?}"
    );
    assert!(unwrap.iter().all(|x| x.rule == "unwrap"));
    assert!(unwrap.iter().any(|x| x.line == 4), "{unwrap:?}");
    assert!(unwrap.iter().any(|x| x.line == 8), "{unwrap:?}");

    // float-event-loop: file-scoped in the fixture engine.rs and
    // calendar.rs (struct fields, params, casts — one per line).
    let float = diags_for(d, "engine.rs");
    assert_eq!(float.len(), 3, "{float:?}");
    assert!(
        float.iter().all(|x| x.rule == "float-event-loop"),
        "{float:?}"
    );
    let wheel: Vec<_> = diags_for(d, "calendar.rs")
        .into_iter()
        .filter(|x| x.rule == "float-event-loop")
        .collect();
    assert_eq!(wheel.len(), 3, "{wheel:?}");

    // lossy-cast: the truncating slot index in calendar.rs fires; the
    // justified + allowed one in time.rs does not.
    let cast: Vec<_> = diags_for(d, "calendar.rs")
        .into_iter()
        .filter(|x| x.rule == "lossy-cast")
        .collect();
    assert_eq!(cast.len(), 1, "{cast:?}");
    assert_eq!(cast[0].line, 14);
    assert!(cast[0].message.contains("as usize"), "{cast:?}");
    assert!(diags_for(d, "time.rs").is_empty(), "{d:?}");

    // ...and in the TCP timer machinery — by function extent, not name:
    // `rtt_sample` is a declared entry point; `backoff_scale` has no
    // timer-ish substring but its only caller is `arm_rto`, so the
    // dominator closure pulls it in. `window_fraction` stays legal.
    let timer = diags_for(d, "bad_timer.rs");
    assert_eq!(timer.len(), 2, "{timer:?}");
    assert!(
        timer.iter().all(|x| x.rule == "float-event-loop"),
        "{timer:?}"
    );
    assert!(
        timer
            .iter()
            .any(|x| x.line == 19 && x.message.contains("rtt_sample")),
        "{timer:?}"
    );
    assert!(
        timer
            .iter()
            .any(|x| x.line == 32 && x.message.contains("backoff_scale")),
        "closure must reach the helper: {timer:?}"
    );

    // unseeded-rng: rand::thread_rng() — one diagnostic for the line.
    let rng = diags_for(d, "bad_rng.rs");
    assert_eq!(rng.len(), 1, "{rng:?}");
    assert_eq!(rng[0].rule, "unseeded-rng");
    assert_eq!(rng[0].line, 4);

    // map-iteration: import plus declarations.
    let map = diags_for(d, "bad_map.rs");
    assert!(map.len() >= 3, "{map:?}");
    assert!(map.iter().all(|x| x.rule == "map-iteration"));

    // sweep-routing: the runnerless sweep, at its `pub fn` line.
    let sweep = diags_for(d, "bad_sweep.rs");
    assert_eq!(sweep.len(), 1, "{sweep:?}");
    assert_eq!(sweep[0].rule, "sweep-routing");
    assert_eq!(sweep[0].line, 3);
    assert!(sweep[0].message.contains("buffer_sweep"));

    // printf-debug: both print macros, at their own lines.
    let print = diags_for(d, "bad_print.rs");
    assert_eq!(print.len(), 2, "{print:?}");
    assert!(print.iter().all(|x| x.rule == "printf-debug"));
    assert!(print.iter().any(|x| x.line == 4), "{print:?}");
    assert!(print.iter().any(|x| x.line == 5), "{print:?}");

    // ...but the obs/flight-recorder module is exempt: human-facing
    // rendering lives there by design — whether it is a file named
    // obs.rs or an inline `mod obs`. The stray print outside the inline
    // module still fires.
    assert!(diags_for(d, "obs.rs").is_empty(), "{d:?}");
    let inline = diags_for(d, "obs_inline.rs");
    assert_eq!(inline.len(), 1, "{inline:?}");
    assert_eq!(inline[0].rule, "printf-debug");
    assert_eq!(inline[0].line, 12);

    // The net crate's impairment path is print-scoped too: the bad
    // fixture trips exactly unseeded-rng (the entropy-seeded loss
    // process) and printf-debug (the per-frame print), nothing else.
    let impair = diags_for(d, "bad_impair.rs");
    assert_eq!(impair.len(), 2, "{impair:?}");
    assert!(
        impair.iter().any(|x| x.rule == "unseeded-rng"),
        "{impair:?}"
    );
    assert!(
        impair.iter().any(|x| x.rule == "printf-debug"),
        "{impair:?}"
    );
    // ...while the seeded, print-free model sails through, banned tokens
    // in its comments and strings notwithstanding.
    assert!(diags_for(d, "impair.rs").is_empty(), "{d:?}");

    // The shard worker that reads the wall clock mid-window: the direct
    // wall-clock hit on the `Instant::now` line, plus the taint proof
    // anchored at the merge-loop root's declaration — a nondeterminism
    // source inside a shard worker breaks byte-identity across shard
    // counts, so the root list must cover it.
    let shard = diags_for(d, "bad_shard.rs");
    assert_eq!(shard.len(), 2, "{shard:?}");
    assert!(
        shard.iter().any(|x| x.rule == "wall-clock" && x.line == 14),
        "{shard:?}"
    );
    let shard_taint = shard
        .iter()
        .find(|x| x.rule == "taint")
        .expect("merge-loop root must be proven tainted");
    assert_eq!(
        shard_taint.line, 4,
        "finding anchors at run_sharded's declaration"
    );
    assert!(
        shard_taint.chain.iter().any(|c| c == "worker_window"),
        "the proof chain passes through the window worker: {shard_taint:?}"
    );

    // Same contract for the wall-time profiling lane: an unmarked clock
    // read inside the accounting helper trips the direct rule, and the
    // profiled merge-loop root is proven tainted through it. The single
    // sanctioned read in the live tree is the `lint:trusted(profiling
    // boundary)` on `wall_now_ns`; anything else must land here.
    let prof = diags_for(d, "bad_prof.rs");
    assert_eq!(prof.len(), 2, "{prof:?}");
    assert!(
        prof.iter().any(|x| x.rule == "wall-clock" && x.line == 18),
        "{prof:?}"
    );
    let prof_taint = prof
        .iter()
        .find(|x| x.rule == "taint")
        .expect("profiled merge-loop root must be proven tainted");
    assert_eq!(
        prof_taint.line, 6,
        "finding anchors at run_sharded_wall's declaration"
    );
    assert!(
        prof_taint.chain.iter().any(|c| c == "profile_window"),
        "the proof chain passes through the accounting helper: {prof_taint:?}"
    );

    // And for the open-loop workload plane: a wall-clock read folded
    // into the arrival-gap draws trips the direct rule, and the
    // schedule-builder root is proven tainted through the draw helper —
    // a single stray clock read would shift every arrival after it.
    let workload = diags_for(d, "bad_workload.rs");
    assert_eq!(workload.len(), 2, "{workload:?}");
    assert!(
        workload
            .iter()
            .any(|x| x.rule == "wall-clock" && x.line == 18),
        "{workload:?}"
    );
    let workload_taint = workload
        .iter()
        .find(|x| x.rule == "taint")
        .expect("schedule-builder root must be proven tainted");
    assert_eq!(
        workload_taint.line, 6,
        "finding anchors at build_schedule's declaration"
    );
    assert!(
        workload_taint.chain.iter().any(|c| c == "jittered_gap"),
        "the proof chain passes through the gap draw: {workload_taint:?}"
    );

    // And for the replicated runner: a clock read in its per-shard
    // set-up helper trips the direct rule, and the runner root is proven
    // tainted through the helper — every grid family's replicas are
    // built through it.
    let runner = diags_for(d, "bad_runner.rs");
    assert_eq!(runner.len(), 2, "{runner:?}");
    assert!(
        runner
            .iter()
            .any(|x| x.rule == "wall-clock" && x.line == 17),
        "{runner:?}"
    );
    let runner_taint = runner
        .iter()
        .find(|x| x.rule == "taint")
        .expect("replicated-runner root must be proven tainted");
    assert_eq!(
        runner_taint.line, 5,
        "finding anchors at run_replicated's declaration"
    );
    assert_eq!(
        runner_taint.chain,
        vec!["run_replicated", "replica_seed", "Instant"],
        "the proof chain passes through the set-up helper"
    );

    // The tricky-but-clean file (tokens only in comments/strings/chars)
    // and the properly routed sweeps must not fire at all.
    assert!(diags_for(d, "clean_tricky.rs").is_empty(), "{d:?}");
    assert!(diags_for(d, "good_sweep.rs").is_empty(), "{d:?}");
}

#[test]
fn taint_catches_a_source_two_calls_deep_behind_a_helper_crate() {
    let report = lint_workspace(&fixtures_root()).expect("fixture tree readable");
    let t = diags_for(&report.diagnostics, "bad_taint_conn.rs");
    assert_eq!(t.len(), 1, "{t:?}");
    assert_eq!(t[0].rule, "taint");
    assert_eq!(t[0].line, 11, "finding anchors at the root's declaration");
    assert_eq!(
        t[0].chain,
        vec![
            "TcpConn::on_segment",
            "shard_hint",
            "thread_tag",
            "thread_seed",
            "thread::current"
        ],
        "the proof chain crosses the tcp -> hw crate boundary"
    );
    // The helper crate itself carries no per-line finding: only the
    // transitive pass can see the problem.
    assert!(diags_for(&report.diagnostics, "clocked.rs").is_empty());
}

#[test]
fn taint_trusts_reviewed_boundaries() {
    let report = lint_workspace(&fixtures_root()).expect("fixture tree readable");
    // trusted.rs reads the environment but is a declared boundary; its
    // caller must stay clean, and the fixture Engine::run — whose only
    // nondeterminism is behind a trusted fn — must be proven.
    assert!(diags_for(&report.diagnostics, "trusted.rs").is_empty());
    assert!(
        report.roots_proven.contains(&"Engine::run".to_string()),
        "{:?}",
        report.roots_proven
    );
    assert!(
        !report
            .roots_proven
            .contains(&"TcpConn::on_segment".to_string()),
        "a tainted root must not be listed as proven"
    );
}

#[test]
fn diagnostics_render_file_line_column_rule() {
    let report = lint_workspace(&fixtures_root()).expect("fixture tree readable");
    let rng = report
        .diagnostics
        .iter()
        .find(|x| x.path.ends_with("bad_rng.rs"))
        .expect("bad_rng diagnostic");
    let s = rng.to_string();
    assert!(s.contains("bad_rng.rs:4:"), "{s}");
    assert!(s.contains("[unseeded-rng]"), "{s}");
}

#[test]
fn json_report_carries_findings_and_proofs() {
    let report = lint_workspace(&fixtures_root()).expect("fixture tree readable");
    let json = report.to_json();
    assert!(json.contains("\"files_scanned\""), "{json}");
    assert!(json.contains("\"rule\": \"taint\""), "{json}");
    assert!(json.contains("\"Engine::run\""), "{json}");
    let findings = report.findings_json();
    assert!(findings.starts_with("{\n  \"findings\": [\n"), "{findings}");
    assert!(
        findings.contains("\"chain\": [\"TcpConn::on_segment\""),
        "{findings}"
    );
}

#[test]
fn live_tree_is_clean_and_all_roots_are_proven() {
    let report = lint_workspace(&workspace_root()).expect("workspace readable");
    assert!(
        report.files_scanned > 30,
        "scanned only {} files",
        report.files_scanned
    );
    assert!(
        report.diagnostics.is_empty(),
        "live tree must pass its own lint:\n{}",
        report
            .diagnostics
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    // The acceptance bar for the taint pass: every declared hot-path
    // root exists in the tree and is proven unreachable from every
    // nondeterminism source.
    assert!(
        report.roots_missing.is_empty(),
        "stale root list: {:?}",
        report.roots_missing
    );
    for root in taint::HOT_PATH_ROOTS {
        assert!(
            report.roots_proven.iter().any(|r| r == root),
            "root {root} not proven; proven = {:?}",
            report.roots_proven
        );
    }
}

#[test]
fn no_allow_escapes_in_the_hot_paths() {
    // Acceptance bar: no `lint:allow` markers in crates/sim, crates/tcp
    // and crates/net — the hot paths meet the rules outright. Two
    // sanctioned exceptions: `lint:allow(lossy-cast)` in sim/src/time.rs,
    // where the float<->Nanos conversion constructors truncate by design,
    // and `lint:allow(wall-clock)` in sim/src/prof.rs, where the single
    // `lint:trusted(profiling boundary)` read (`wall_now_ns`) lives. Both
    // carry justifying comments; any other escape hatch fails the bar.
    for krate in ["sim", "tcp", "net"] {
        let src = workspace_root().join("crates").join(krate).join("src");
        for file in rust_files(&src).expect("src readable") {
            let content = std::fs::read_to_string(&file).expect("file readable");
            let is_time_rs = krate == "sim" && file.ends_with("time.rs");
            let is_prof_rs = krate == "sim" && file.ends_with("prof.rs");
            for (idx, line) in content.lines().enumerate() {
                if !line.contains("lint:allow") {
                    continue;
                }
                let sanctioned = (is_time_rs && line.contains("lint:allow(lossy-cast)"))
                    || (is_prof_rs && line.contains("lint:allow(wall-clock)"));
                assert!(
                    sanctioned,
                    "{}:{} carries a lint:allow escape hatch",
                    file.display(),
                    idx + 1
                );
            }
        }
    }
}
