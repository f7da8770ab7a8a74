//! Totality of the bench report reader: `BenchReport::from_json` reads the
//! baseline a user hands to `tengig-bench --check`, so any input —
//! arbitrary bytes, a valid report with a few bytes mutated, or nesting
//! deep enough to exhaust a recursive parser's stack — must come back as
//! an `Err` or as a well-formed report, never as a panic or an abort. A
//! report the reader accepts must re-serialize to a document that reads
//! back as the same report.

use proptest::prelude::*;
use proptest::TestRng;
use tengig_bench::gate::{BenchReport, FamilyResult};

/// Bytes a mutation splices in: the report's structural characters,
/// number characters (so values grow past their types), and one
/// non-ASCII byte.
const ALPHABET: &[u8] = b"{}[],:\"0123456789\n -.e\xff";

/// Apply `n` random edits to `doc`: overwrite a byte, delete a range,
/// duplicate a range, or truncate.
fn mutate(doc: &str, n: u64, rng: &mut TestRng) -> String {
    let mut b = doc.as_bytes().to_vec();
    for _ in 0..n {
        if b.is_empty() {
            break;
        }
        let len = b.len() as u64;
        let at = rng.below(len) as usize;
        let span = 1 + rng.below(8) as usize;
        let end = (at + span).min(b.len());
        match rng.below(4) {
            0 => b[at] = ALPHABET[rng.below(ALPHABET.len() as u64) as usize],
            1 => {
                b.drain(at..end);
            }
            2 => {
                let copy = b[at..end].to_vec();
                b.splice(at..at, copy);
            }
            _ => b.truncate(at),
        }
    }
    String::from_utf8_lossy(&b).into_owned()
}

/// A valid report: one family per `(events, sim_bytes, wall_ms)` triple.
fn report(families: &[(u64, u64, u64)], peak_rss_kb: u64) -> BenchReport {
    BenchReport {
        families: families
            .iter()
            .enumerate()
            .map(|(i, &(events, sim_bytes, wall_ms))| FamilyResult {
                name: format!("family_{i}"),
                events,
                sim_bytes,
                wall_secs: (wall_ms % 1_000_000 + 1) as f64 / 1000.0,
            })
            .collect(),
        peak_rss_kb,
    }
}

/// An accepted document must re-serialize to one that reads back as the
/// same report.
fn check(text: &str) {
    if let Ok(r) = BenchReport::from_json(text) {
        assert_eq!(BenchReport::from_json(&r.to_json()), Ok(r));
    }
}

#[test]
fn million_deep_nesting_is_an_error_not_a_stack_overflow() {
    let deep = 1_000_000;
    for text in [
        "[".repeat(deep),
        "{\"families\":".repeat(deep),
        format!("{}{}", "[".repeat(deep), "]".repeat(deep)),
    ] {
        assert!(BenchReport::from_json(&text).is_err());
    }
}

#[test]
fn a_written_report_reads_back() {
    let r = report(&[(1_000_000, 50_000_000, 2_000), (u64::MAX, 0, 0)], 10_240);
    assert_eq!(BenchReport::from_json(&r.to_json()), Ok(r));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        check(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn mutated_reports_never_panic(
        families in proptest::collection::vec((any::<u64>(), any::<u64>(), any::<u64>()), 0..5),
        rss: u64,
        edits in 1u64..6,
        salt: u64,
    ) {
        let doc = report(&families, rss).to_json();
        check(&doc);
        let mut rng = TestRng::for_test(&format!("bench-report-{salt}"));
        check(&mutate(&doc, edits, &mut rng));
    }
}
