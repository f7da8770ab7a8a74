//! `tengig-bench` — the tooling that pins the simulator's determinism:
//! `tengig-check` recomputes every golden under `goldens/` at 1 and 4
//! sweep threads and byte-compares it ([`golden`]), and reads the profile
//! documents its `prof` family writes ([`prof_doc`]).
//!
//! The simulator's wall-clock cost is measured by `perfbench/`, which
//! `BENCHMARK.json` declares; the paper's tables and figures are
//! regenerated by the workspace examples
//! (`cargo run --release --example figures -- all`).

pub mod golden;
pub mod prof_doc;
