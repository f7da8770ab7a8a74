//! Totality of the obs and prof parsers: `Timelines::from_jsonl` and
//! `Hist::parse` read files a user hands to `tengig-check`, so any input —
//! arbitrary bytes, or a valid document with a few bytes mutated — must
//! come back as an `Err` or as a well-formed value, never as a panic.
//! A value the parsers accept must round-trip through its renderer and
//! survive every read-out (summary, diff, percentiles).

use proptest::prelude::*;
use proptest::TestRng;
use tengig_sim::{Hist, MetricKind, Nanos, Scope, Timelines};

/// Bytes a mutation splices in: the documents' structural characters,
/// digits (so numbers grow past their types), and one non-ASCII byte.
const ALPHABET: &[u8] = b"{}[],:\"0123456789\n -\xff";

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

/// A valid timelines document: a few series on every scope kind.
fn timelines(interval: u64, points: &[(u64, u64)]) -> Timelines {
    let mut tl = Timelines::new(Nanos(interval));
    for (i, &(t, v)) in points.iter().enumerate() {
        let i = i as u32;
        let scope = match i % 3 {
            0 => Scope::Flow { flow: i, ep: i % 2 },
            1 => Scope::Host { host: i },
            _ => Scope::Link { link: i },
        };
        let metric = MetricKind::ALL[i as usize % MetricKind::ALL.len()];
        tl.record(scope, metric, Nanos(t), v);
        tl.record(scope, metric, Nanos(t.saturating_add(interval)), v / 2);
    }
    tl
}

/// An accepted timelines value must re-render to a document that parses
/// back to itself, and its read-outs must not panic.
fn check_timelines(text: &str) {
    if let Ok(tl) = Timelines::from_jsonl(text) {
        let again = Timelines::from_jsonl(&tl.to_jsonl()).expect("a rendering parses");
        assert_eq!(again, tl);
        let _ = tl.summary();
        assert!(tl.diff(&again).is_empty());
    }
}

/// An accepted histogram must re-render to itself and answer every
/// quantile inside its `[min, max]`.
fn check_hist(text: &str) {
    if let Ok(h) = Hist::parse(text) {
        assert_eq!(Hist::parse(&h.render()), Ok(h.clone()));
        let _ = h.summary();
        if h.count() > 0 {
            for p in [0, 500, 999, 1000] {
                let q = h.permille(p);
                assert!(h.min() <= q && q <= h.max());
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn parsers_reject_arbitrary_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let text = String::from_utf8_lossy(&bytes);
        prop_assert!(Timelines::from_jsonl(&text).is_err());
        prop_assert!(Hist::parse(&text).is_err());
    }

    #[test]
    fn parsers_reject_arbitrary_lines_behind_a_valid_header(
        bytes in proptest::collection::vec(0u8..(ALPHABET.len() as u8), 0..200),
        pick in 0usize..4,
    ) {
        // Header edge cases too: a zero interval is a configuration bug
        // the parser must reject, not hand to `Timelines::new`.
        let interval = [0, 1, 1_000_000, u64::MAX][pick];
        let body: Vec<u8> = bytes.iter().map(|&i| ALPHABET[i as usize]).collect();
        let text = format!(
            "{{\"obs\":\"timelines\",\"interval_ns\":{interval},\"series\":1}}\n{}",
            String::from_utf8_lossy(&body)
        );
        check_timelines(&text);
        let hist = format!("{{\"count\":1,\"min\":1,\"max\":1,\"buckets\":[{}", String::from_utf8_lossy(&body));
        check_hist(&hist);
    }

    #[test]
    fn mutated_timelines_never_panic(
        interval in 1u64..10_000_000,
        points in proptest::collection::vec((any::<u64>(), any::<u64>()), 1..12),
        edits in 1u64..6,
        salt: u64,
    ) {
        let doc = timelines(interval, &points).to_jsonl();
        check_timelines(&doc);
        let mut rng = TestRng::for_test(&format!("timelines-{salt}"));
        check_timelines(&mutate(&doc, edits, &mut rng));
    }

    #[test]
    fn mutated_hists_never_panic(
        samples in proptest::collection::vec(any::<u64>(), 0..24),
        edits in 1u64..6,
        salt: u64,
    ) {
        let mut h = Hist::new();
        for s in &samples {
            h.record(*s >> (s % 64));
        }
        let doc = h.render();
        check_hist(&doc);
        let mut rng = TestRng::for_test(&format!("hist-{salt}"));
        check_hist(&mutate(&doc, edits, &mut rng));
    }
}
