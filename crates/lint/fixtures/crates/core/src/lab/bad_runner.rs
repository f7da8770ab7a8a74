//! Known-bad fixture: a replicated runner whose per-shard set-up helper
//! seeds the replicas from the host clock.

/// The replicated runner root (mirrors `tengig::lab::grid::run_replicated`).
pub fn run_replicated(shards: usize) -> u64 {
    let mut total = 0;
    for shard in 0..shards {
        total += replica_seed(shard);
    }
    total
}

/// Per-shard set-up — except the "seed" comes from the wall clock: no
/// `lint:trusted` boundary, no `lint:allow`, so both the direct rule and
/// the taint proof anchored at the root must fire.
fn replica_seed(shard: usize) -> u64 {
    let t0 = std::time::Instant::now();
    t0.elapsed().as_secs() + shard as u64
}
