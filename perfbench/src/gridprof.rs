//! Reads the three sections of a `GridProfile` (deterministic `sim`,
//! per-shard `local`, host-domain `wall`) into a [`Trace`].

use crate::trace::Trace;
use tengig::Ev;

/// The unsigned integer after `"key":` in `text` (0 when absent).
pub fn num(text: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\":");
    text.find(&pat)
        .map(|at| {
            let rest = &text[at + pat.len()..];
            let end = rest
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(rest.len());
            rest[..end].parse().unwrap_or(0)
        })
        .unwrap_or(0)
}

/// The part of `text` after `"key":`, or "" when absent.
fn after<'a>(text: &'a str, key: &str) -> &'a str {
    let pat = format!("\"{key}\":");
    text.find(&pat).map_or("", |at| &text[at + pat.len()..])
}

/// Fold one profiled grid run into the trace. The window-execute time
/// is blind from outside (the grid engine's steps are not public), the
/// barrier wait is the shard layer's.
pub fn absorb(tr: &mut Trace, sim: &str, local: &str, wall: &str) {
    let fired = after(sim, "fired");
    for (k, name) in Ev::NAMES.iter().enumerate() {
        tr.fired[k] += num(fired, name);
    }
    let engine = after(sim, "engine");
    tr.add("sim.events", num(sim, "executed") as f64);
    tr.add("sim.sched_events", num(engine, "sched_events") as f64);
    tr.add("sim.sched_timers", num(engine, "sched_timers") as f64);
    tr.add("sim.sched_front", num(engine, "sched_front") as f64);
    tr.add("sim.cancels", num(engine, "cancels") as f64);
    tr.add(
        "nic.rx_batches",
        num(after(sim, "rx_batch"), "count") as f64,
    );
    for shard in local.lines() {
        let cal = after(shard, "calendar");
        tr.add("sim.wheel_cascades", num(cal, "wheel_cascades") as f64);
        tr.max("sim.lane_hiwater", num(cal, "lane_hiwater") as f64);
        tr.add("lab.pool_misses", num(shard, "pool_misses") as f64);
        tr.add("shard.msgs_sent", num(shard, "msgs_sent") as f64);
        tr.max("shard.windows", num(shard, "windows") as f64);
    }
    for shard in wall.lines() {
        tr.barrier_ns += num(shard, "barrier_wait_ns");
        tr.blind_ns += num(shard, "execute_ns");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_every_section() {
        let sim = "{\"executed\":9,\"fired\":{\"StartFlow\":4,\"TxDma\":5},\
                   \"engine\":{\"sched_events\":7,\"cancels\":2},\
                   \"rx_batch\":{\"count\":3,\"min\":1}}";
        let local = "{\"shard\":0,\"windows\":10,\"msgs_sent\":4,\"pool_misses\":1,\
                     \"calendar\":{\"lane_hiwater\":2,\"wheel_cascades\":1}}\n\
                     {\"shard\":1,\"windows\":10,\"msgs_sent\":6,\"pool_misses\":2,\
                     \"calendar\":{\"lane_hiwater\":5,\"wheel_cascades\":0}}\n";
        let wall = "{\"barrier_wait_ns\":30,\"execute_ns\":70}\n\
                    {\"barrier_wait_ns\":20,\"execute_ns\":80}\n";
        let mut tr = Trace::default();
        absorb(&mut tr, sim, local, wall);
        assert_eq!(tr.fired[0], 4);
        assert_eq!(tr.fired[1], 5);
        assert_eq!(tr.counters["sim.events"], 9.0);
        assert_eq!(tr.counters["sim.cancels"], 2.0);
        assert_eq!(tr.counters["nic.rx_batches"], 3.0);
        assert_eq!(tr.counters["shard.windows"], 10.0);
        assert_eq!(tr.counters["shard.msgs_sent"], 10.0);
        assert_eq!(tr.counters["sim.lane_hiwater"], 5.0);
        assert_eq!(tr.counters["lab.pool_misses"], 3.0);
        assert_eq!((tr.barrier_ns, tr.blind_ns), (50, 150));
    }
}
