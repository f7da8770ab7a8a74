//! Pinned outputs for the reference seed. On any other seed the check
//! falls back to the invariants each workload asserts as it runs.

use crate::gridprof::num;

/// The seed the references were pinned on (the paper's year).
pub const REFERENCE_SEED: u64 = 2003;

/// The serve sweep's gated document: the FCT/goodput report, then the
/// per-host CPU-saturation sidecar, one timelines document per rung.
const SERVE_GOLDEN: &str = include_str!("../../goldens/serve.jsonl");

const LAN_BULK: &[&str] = &[
    "payload512 events=1864297 bytes=102400000 gbps=0.898633256",
    "payload1448 events=1709030 bytes=289600000 gbps=2.119088388",
    "payload8948 events=2529649 bytes=1789600000 gbps=4.086074885",
];

const WAN_RECORD: &[&str] = &[
    "record events=2701672 bytes=1754085388 window_bytes=1485842244",
    "burst_loss events=1040620 bytes=671100000 done_ns=45833452949 retransmits=499",
];

const FABRIC_2SHARD: &[&str] = &[
    "fat_tree/4x16into2 events=1161784 bytes=859008000 flows=64 first_start_ns=1000 \
     last_done_ns=840939951 gbps=8.171894038",
];

/// The expected `SubRun::line` of every sub-run of `workload` on `seed`,
/// or `None` when the seed has no pinned reference.
pub fn pinned(workload: &str, seed: u64) -> Option<Vec<String>> {
    if seed != REFERENCE_SEED {
        return None;
    }
    let fixed = |lines: &[&str]| lines.iter().map(|l| l.to_string()).collect();
    Some(match workload {
        "lan_bulk" => fixed(LAN_BULK),
        "wan_record" => fixed(WAN_RECORD),
        "fabric_2shard" => fixed(FABRIC_2SHARD),
        "serve_openloop" => serve_lines(SERVE_GOLDEN),
        _ => return None,
    })
}

/// Split the serve golden into one expected line per rung: the rung's
/// report row followed by its sidecar timelines document.
fn serve_lines(golden: &str) -> Vec<String> {
    let mut lines = golden.lines();
    let rows_n = lines.next().map_or(0, |header| num(header, "rows")) as usize;
    let rows: Vec<&str> = lines.by_ref().take(rows_n).collect();
    let mut docs: Vec<String> = Vec::new();
    for line in lines {
        if line.starts_with("{\"obs\":\"timelines\"") || docs.is_empty() {
            docs.push(String::new());
        }
        let doc = docs.last_mut().expect("pushed above");
        doc.push_str(line);
        doc.push('\n');
    }
    rows.iter()
        .zip(docs)
        .map(|(row, doc)| {
            let label = row
                .split("\"label\":\"")
                .nth(1)
                .and_then(|s| s.split('"').next())
                .unwrap_or("");
            format!(
                "{label} events={} bytes={} {row}\n{doc}",
                num(row, "events"),
                num(row, "payload_bytes")
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_golden_splits_into_one_line_per_rung() {
        let lines = serve_lines(SERVE_GOLDEN);
        assert_eq!(lines.len(), 8);
        assert!(lines[0].starts_with("load/rho0250 events=20656 bytes=11122364 {"));
        assert!(lines.iter().all(|l| l.contains("{\"obs\":\"timelines\"")));
    }

    #[test]
    fn only_the_reference_seed_is_pinned() {
        assert!(pinned("lan_bulk", REFERENCE_SEED).is_some());
        assert!(pinned("lan_bulk", REFERENCE_SEED + 1).is_none());
    }
}
