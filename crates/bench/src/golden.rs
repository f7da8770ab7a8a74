//! The determinism contract behind `tengig-check` (`make check`).
//!
//! Every gated family follows one contract: recompute its pinned
//! documents on 1 and then 4 sweep threads, require the bytes identical,
//! byte-compare each against the golden under `goldens/` it names, dump
//! every divergent document to `target/<family>_current.jsonl` (CI uploads
//! it), and exit 0 on pass, 1 on mismatch, 2 on operational error
//! (unreadable golden, unwritable artifact, bad usage). This module holds
//! the contract — document kinds, the judge, first-divergence printing —
//! and `tengig-check` holds the family table: what each family pins, and
//! against which golden.

use std::path::Path;

/// How a document is held to the contract. Every kind must also be
/// byte-identical across sweep thread counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gate {
    /// Compared against the named file in `goldens/`, which this family
    /// owns: `--write-golden` rewrites it from this document.
    Owned(&'static str),
    /// Compared against the named golden, which some other document owns
    /// and writes; never written from this one.
    Checked(&'static str),
    /// Only required byte-identical across thread counts (sidecars).
    Threads,
}

/// One named document a family computes, and how it is gated.
#[derive(Debug, Clone, Copy)]
pub struct Doc {
    /// Human-readable name used in FAIL banners.
    pub name: &'static str,
    /// How the document is held to the contract.
    pub gate: Gate,
}

/// Print the first few differing lines of two JSONL documents, plus a
/// note when the line counts differ — enough to localize a drift without
/// rerunning anything.
fn print_diff(expected: &str, got: &str) {
    let e: Vec<&str> = expected.lines().collect();
    let g: Vec<&str> = got.lines().collect();
    let mut shown = 0;
    for i in 0..e.len().max(g.len()) {
        let le = e.get(i).copied();
        let lg = g.get(i).copied();
        if le != lg {
            if shown == 0 && i > 0 {
                println!("  first divergence at line {}:", i + 1);
                println!("    context:  {}", e.get(i - 1).or(g.get(i - 1)).unwrap());
            }
            println!("  line {}:", i + 1);
            println!("    expected: {}", le.unwrap_or("<line missing>"));
            println!("    got:      {}", lg.unwrap_or("<line missing>"));
            shown += 1;
            if shown >= 5 {
                break;
            }
        }
    }
    if e.len() != g.len() {
        println!(
            "  line counts differ: expected {}, got {}",
            e.len(),
            g.len()
        );
    }
}

/// Write `bytes` to `path`, creating parent directories as needed.
pub fn write_file(path: &Path, bytes: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    std::fs::write(path, bytes).map_err(|e| format!("writing {}: {e}", path.display()))
}

/// Byte-compare two freshly computed documents that the determinism
/// contract requires identical (1 vs 4 sweep threads). On mismatch,
/// print the FAIL banner and the first divergence; returns whether they
/// matched.
fn require_identical(tool: &str, what: &str, expected: &str, got: &str) -> bool {
    if expected == got {
        return true;
    }
    println!("{tool}: FAIL: {what} differs between 1 and 4 sweep threads");
    print_diff(expected, got);
    false
}

/// Byte-compare a computed document against the golden at `path`. On
/// mismatch, print the FAIL banner, `hint` (how the golden is
/// regenerated), and the first divergence; returns whether it matched.
/// Failing to *read* the golden is an operational error, not a mismatch.
fn require_golden(
    tool: &str,
    what: &str,
    path: &Path,
    hint: &str,
    got: &str,
) -> Result<bool, String> {
    let checked_in = std::fs::read_to_string(path)
        .map_err(|e| format!("reading golden {}: {e}", path.display()))?;
    if got == checked_in {
        return Ok(true);
    }
    println!(
        "{tool}: FAIL: {what} diverged from golden {}",
        path.display()
    );
    println!("  ({hint})");
    print_diff(&checked_in, got);
    Ok(false)
}

/// Judge one family's documents under `root`: `one` and `four` are the
/// documents computed on 1 and 4 sweep threads, in `docs` order. With
/// `write_golden`, every [`Gate::Owned`] golden is first rewritten from
/// its 1-thread document. Every divergent document (1-thread bytes) is
/// concatenated into `target/<family>_current.jsonl`.
pub fn judge(
    family: &str,
    docs: &[Doc],
    one: &[String],
    four: &[String],
    root: &Path,
    write_golden: bool,
) -> Result<bool, String> {
    let goldens = root.join("goldens");
    if write_golden {
        for (doc, bytes) in docs.iter().zip(one) {
            if let Gate::Owned(file) = doc.gate {
                write_file(&goldens.join(file), bytes)?;
                println!("{family}: wrote golden goldens/{file}");
            }
        }
    }
    let mut divergent = String::new();
    for ((doc, a), b) in docs.iter().zip(one).zip(four) {
        let mut ok = require_identical(family, doc.name, a, b);
        let golden = match doc.gate {
            Gate::Owned(file) => Some((
                file,
                format!("regenerate deliberately with `tengig-check {family} --write-golden`"),
            )),
            Gate::Checked(file) => {
                Some((file, "owned by another document; never written here".into()))
            }
            Gate::Threads => None,
        };
        if let Some((file, hint)) = golden {
            ok &= require_golden(family, doc.name, &goldens.join(file), &hint, a)?;
        }
        if !ok {
            divergent.push_str(a);
        }
    }
    if divergent.is_empty() {
        return Ok(true);
    }
    let dump = root.join("target").join(format!("{family}_current.jsonl"));
    write_file(&dump, &divergent)?;
    println!("  divergent document(s) written to {}", dump.display());
    Ok(false)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_documents_pass() {
        assert!(require_identical("t", "x", "a\nb\n", "a\nb\n"));
        assert!(!require_identical("t", "x", "a\nb\n", "a\nc\n"));
    }

    #[test]
    fn golden_roundtrip_and_mismatch() {
        let root = std::env::temp_dir().join("tengig-golden-test");
        let docs = [Doc {
            name: "doc",
            gate: Gate::Owned("g.jsonl"),
        }];
        let row = vec!["row\n".to_string()];
        let other = vec!["other\n".to_string()];
        assert!(judge("t", &docs, &row, &row, &root, true).unwrap());
        assert!(judge("t", &docs, &row, &row, &root, false).unwrap());
        assert!(!judge("t", &docs, &other, &other, &root, false).unwrap());
        let read = |p: &str| std::fs::read_to_string(root.join(p)).unwrap();
        assert_eq!(read("target/t_current.jsonl"), "other\n");
        let sidecar = [Doc {
            name: "sidecar",
            gate: Gate::Threads,
        }];
        assert!(!judge("s", &sidecar, &row, &other, &root, false).unwrap());
        assert_eq!(read("target/s_current.jsonl"), "row\n");
        let missing = [Doc {
            name: "doc",
            gate: Gate::Checked("absent.jsonl"),
        }];
        assert!(judge("t", &missing, &row, &row, &root, false).is_err());
    }
}
