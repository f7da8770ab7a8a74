//! Readers for the profile documents `tengig-check prof` gates and dumps
//! (`goldens/prof_throughput.jsonl`, `target/prof_current.jsonl`): the
//! `prof summarize` and `prof diff` subcommands. Both read files a user
//! hands them, so both are total: a malformed `sim`, `local` or `wall`
//! line is an `Err` naming the line and field, never a panic and never a
//! count silently read as zero. Lines of any other kind are skipped.

use std::fmt::Write;

use tengig_sim::Hist;

/// An unsigned integer field of a single-line JSON object; `None` when the
/// field is missing, is not a number, or overflows u64.
fn field_u64(line: &str, name: &str) -> Option<u64> {
    let pat = format!("\"{name}\":");
    let rest = &line[line.find(&pat)? + pat.len()..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// An embedded histogram field of a profile line.
fn field_hist(line: &str, name: &str) -> Option<Hist> {
    let pat = format!("\"{name}\":");
    let at = line.find(&pat)?;
    Hist::parse(&line[at + pat.len()..]).ok()
}

/// Pretty-print one profile document: per-preset sim sections with the
/// p50/p90/p99/max histogram readout, then local and wall sections.
pub fn summarize(doc: &str) -> Result<String, String> {
    let mut out = String::new();
    for (i, line) in doc.lines().enumerate() {
        let bad = |name: &str| format!("line {}: missing or malformed `{name}`", i + 1);
        let num = |name: &str| field_u64(line, name).ok_or_else(|| bad(name));
        if line.contains("\"prof\":\"sim\"") {
            let preset = line
                .split("\"preset\":\"")
                .nth(1)
                .and_then(|rest| rest.split('"').next())
                .ok_or_else(|| bad("preset"))?;
            let _ = writeln!(out, "{preset} executed={}", num("executed")?);
            for h in ["rx_batch", "drain_batch"] {
                let hist = field_hist(line, h).ok_or_else(|| bad(h))?;
                let _ = writeln!(out, "  {h}: {}", hist.summary());
            }
        } else if line.contains("\"prof\":\"local\"") {
            let _ = writeln!(
                out,
                "  shard {} windows={} msgs_sent={} pool={}h/{}m",
                num("shard")?,
                num("windows")?,
                num("msgs_sent")?,
                num("pool_hits")?,
                num("pool_misses")?,
            );
        } else if line.contains("\"wall\":\"shard\"") {
            let ms = |name: &str| num(name).map(|ns| ns as f64 / 1e6);
            let _ = writeln!(
                out,
                "  wall shard {}: windows={} barrier_wait={:.3}ms execute={:.3}ms",
                num("shard")?,
                num("windows")?,
                ms("barrier_wait_ns")?,
                ms("execute_ns")?,
            );
        }
    }
    Ok(out)
}

/// Compare two profile documents: `None` when byte-identical, otherwise
/// the first divergent line of each and — when histograms are present —
/// their percentile readouts, which usually localize a drift faster than
/// raw bucket lists.
pub fn diff(left: &str, right: &str) -> Option<String> {
    if left == right {
        return None;
    }
    let mut out = String::new();
    let (l, r): (Vec<&str>, Vec<&str>) = (left.lines().collect(), right.lines().collect());
    if let Some(i) = (0..l.len().max(r.len())).find(|&i| l.get(i) != r.get(i)) {
        let (le, rg) = (l.get(i).copied(), r.get(i).copied());
        let _ = writeln!(out, "  first divergence at line {}:", i + 1);
        let _ = writeln!(out, "    left:  {}", le.unwrap_or("<line missing>"));
        let _ = writeln!(out, "    right: {}", rg.unwrap_or("<line missing>"));
        for name in ["rx_batch", "drain_batch"] {
            let lh = le.and_then(|s| field_hist(s, name));
            let rh = rg.and_then(|s| field_hist(s, name));
            if let (Some(lh), Some(rh)) = (lh, rh) {
                if lh != rh {
                    let _ = writeln!(out, "    {name} left:  {}", lh.summary());
                    let _ = writeln!(out, "    {name} right: {}", rh.summary());
                }
            }
        }
    }
    Some(out)
}
