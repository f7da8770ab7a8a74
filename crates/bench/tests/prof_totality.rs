//! Totality of the profile readers behind `tengig-check prof summarize`
//! and `prof diff`: they read files a user hands them, so any input —
//! arbitrary bytes, or a real profile with a few bytes mutated — must come
//! back as an `Err` or a readout, never as a panic. A count that is
//! missing or overflows u64 is an `Err`, never a silent zero.

use std::sync::OnceLock;

use proptest::prelude::*;
use proptest::TestRng;
use tengig::experiments::grid::{grid_prof_sweep, standard_presets};
use tengig::SweepRunner;
use tengig_bench::prof_doc::{diff, summarize};

/// Bytes a mutation splices in: the documents' structural characters,
/// digits (so counts grow past u64), and one non-ASCII byte.
const ALPHABET: &[u8] = b"{}[],:\"0123456789\n -\xff";

/// The pinned profile golden: one "sim" section per grid preset.
const GOLDEN: &str = include_str!("../../../goldens/prof_throughput.jsonl");

/// A full profile at 2 shards: the "sim" sections plus the per-shard
/// "local" and "wall" sections the golden does not carry.
fn full_profile() -> &'static str {
    static DOC: OnceLock<String> = OnceLock::new();
    DOC.get_or_init(|| {
        let (_, gated, host) = grid_prof_sweep(&standard_presets(), 2, 2003, SweepRunner::new(1));
        format!("{}{}", gated.concatenated(), host.concatenated())
    })
}

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

/// Both readers on `text`: no panic, an accepted document reads out one
/// `executed=` line per "sim" section, and `diff` reports a divergence
/// exactly when the bytes differ.
fn check(text: &str, against: &str) {
    if let Ok(out) = summarize(text) {
        let sims = text
            .lines()
            .filter(|l| l.contains("\"prof\":\"sim\""))
            .count();
        assert_eq!(out.matches(" executed=").count(), sims);
    }
    assert_eq!(diff(text, against).is_some(), text != against);
    assert!(diff(text, text).is_none());
}

#[test]
fn real_profiles_summarize() {
    let golden = summarize(GOLDEN).unwrap();
    assert_eq!(golden.matches(" executed=").count(), 3);
    assert!(golden.starts_with("fat_tree/2x2into1 executed=1686\n"));
    let full = summarize(full_profile()).unwrap();
    assert!(full.contains("  shard 1 windows="));
    assert!(full.contains("  wall shard 1: windows="));
}

#[test]
fn overflowing_or_missing_counts_are_errors() {
    let first = GOLDEN.lines().next().unwrap();
    let executed = |v: &str| first.replace("\"executed\":1686", &format!("\"executed\":{v}"));
    assert!(summarize(&executed("18446744073709551615")).is_ok());
    for bad in [
        "99999999999999999999",
        "18446744073709551616",
        "-1",
        "\"x\"",
    ] {
        assert!(summarize(&executed(bad)).is_err(), "{bad}");
    }
    assert!(summarize(&first.replace("\"executed\":", "\"ran\":")).is_err());
    assert!(summarize(&first.replace("\"preset\":", "\"p\":")).is_err());
    let bad_hist = first.replace(
        "\"drain_batch\":{\"count\":240",
        "\"drain_batch\":{\"count\":241",
    );
    assert_ne!(bad_hist, first);
    assert!(summarize(&bad_hist).is_err());
    for kind in ["\"prof\":\"local\"", "\"wall\":\"shard\""] {
        let line = full_profile().lines().find(|l| l.contains(kind)).unwrap();
        assert!(summarize(line).is_ok(), "{line}");
        let windows = line.find("\"windows\":").unwrap() + "\"windows\":".len();
        let overflow = format!(
            "{}99999999999999999999{}",
            &line[..windows],
            &line[windows..]
        );
        assert!(summarize(&overflow).is_err(), "{overflow}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let text = String::from_utf8_lossy(&bytes);
        check(&text, GOLDEN);
        // Behind a section marker, noise is a malformed section.
        for marker in ["{\"prof\":\"sim\",", "{\"prof\":\"local\",", "{\"wall\":\"shard\","] {
            let section = format!("{marker}{text}");
            check(&section, GOLDEN);
            prop_assert!(summarize(&section).is_err());
        }
    }

    #[test]
    fn mutated_profiles_never_panic(edits in 1u64..6, salt: u64, full: bool) {
        let doc = if full { full_profile() } else { GOLDEN };
        let mut rng = TestRng::for_test(&format!("prof-{salt}"));
        check(&mutate(doc, edits, &mut rng), doc);
    }
}
