//! The wall-clock benchmark report and its regression gate.
//!
//! `tengig-bench` (the binary in this crate) runs one fixed, pinned-seed
//! workload per experiment family and emits a [`BenchReport`] as
//! `BENCH_sim.json`. CI re-runs the workload and compares it against the
//! checked-in baseline with [`compare`]: event and byte counts must match
//! the baseline *exactly* (they are pure functions of the seeds — any
//! drift is a determinism bug, not noise), while events/sec may move
//! within a symmetric tolerance band. Both a slowdown beyond the band and
//! a speedup beyond it fail the gate, so wins must be claimed by
//! refreshing the baseline (`make bench`, then commit `BENCH_sim.json`).

use std::fmt::Write as _;
use tengig::Json;

/// Default gate tolerance: ±15% on events/sec.
pub const DEFAULT_TOLERANCE: f64 = 0.15;

/// One experiment family's measured workload.
#[derive(Debug, Clone, PartialEq)]
pub struct FamilyResult {
    /// Family name (`throughput_sweep`, `multiflow`, `wan_record`,
    /// `pktgen`).
    pub name: String,
    /// Engine events executed — a deterministic function of the workload.
    pub events: u64,
    /// Simulated payload bytes moved — deterministic as well.
    pub sim_bytes: u64,
    /// Wall-clock seconds the workload took.
    pub wall_secs: f64,
}

impl FamilyResult {
    /// Events executed per wall-clock second.
    pub fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.wall_secs.max(1e-9)
    }

    /// Simulated bytes moved per wall-clock second.
    pub fn sim_bytes_per_sec(&self) -> f64 {
        self.sim_bytes as f64 / self.wall_secs.max(1e-9)
    }
}

/// A full benchmark run: every family plus process-wide peak RSS.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Per-family results, in run order.
    pub families: Vec<FamilyResult>,
    /// Peak resident set size in KiB (`VmHWM`), 0 where unavailable.
    /// Reported for trending; not gated (it varies across machines and
    /// allocators in ways wall-clock on one runner does not).
    pub peak_rss_kb: u64,
}

impl BenchReport {
    /// Serialize as a single JSON object (stable field order).
    pub fn to_json(&self) -> String {
        let families: Vec<Json> = self
            .families
            .iter()
            .map(|f| {
                Json::Object(vec![
                    ("name".to_string(), Json::from(f.name.as_str())),
                    ("events".to_string(), Json::U64(f.events)),
                    ("sim_bytes".to_string(), Json::U64(f.sim_bytes)),
                    ("wall_secs".to_string(), Json::F64(f.wall_secs)),
                    ("events_per_sec".to_string(), Json::F64(f.events_per_sec())),
                    (
                        "sim_bytes_per_sec".to_string(),
                        Json::F64(f.sim_bytes_per_sec()),
                    ),
                ])
            })
            .collect();
        let root = Json::Object(vec![
            ("bench".to_string(), Json::from("tengig-sim")),
            ("peak_rss_kb".to_string(), Json::U64(self.peak_rss_kb)),
            ("families".to_string(), Json::Array(families)),
        ]);
        format!("{root}\n")
    }

    /// Parse a report previously written by [`BenchReport::to_json`].
    pub fn from_json(text: &str) -> Result<BenchReport, String> {
        let value = parse::json(text)?;
        let root = value.as_object("report root")?;
        let mut families = Vec::new();
        for (i, fam) in parse::get(root, "families")?
            .as_array("families")?
            .iter()
            .enumerate()
        {
            let f = fam.as_object(&format!("family #{i}"))?;
            families.push(FamilyResult {
                name: parse::get(f, "name")?.as_str("name")?.to_string(),
                events: parse::get(f, "events")?.as_u64("events")?,
                sim_bytes: parse::get(f, "sim_bytes")?.as_u64("sim_bytes")?,
                wall_secs: parse::get(f, "wall_secs")?.as_f64("wall_secs")?,
            });
        }
        Ok(BenchReport {
            families,
            peak_rss_kb: parse::get(root, "peak_rss_kb")?.as_u64("peak_rss_kb")?,
        })
    }
}

/// Peak resident set size of this process in KiB, from `/proc/self/status`
/// (`VmHWM`). Returns 0 on platforms without procfs.
pub fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("VmHWM:")
                    .and_then(|rest| rest.trim().trim_end_matches(" kB").trim().parse().ok())
            })
        })
        .unwrap_or(0)
}

/// Gate a current run against the checked-in baseline.
///
/// Returns the list of violations (empty = pass). Rules:
///
/// * every baseline family must be present, and no new ones may appear
///   unannounced — the baseline must be refreshed when workloads change;
/// * `events` and `sim_bytes` must match exactly (determinism, not perf);
/// * `events_per_sec` must stay within `±tolerance` of the baseline —
///   a regression *or* an unclaimed improvement beyond the band fails.
pub fn compare(baseline: &BenchReport, current: &BenchReport, tolerance: f64) -> Vec<String> {
    let mut violations = Vec::new();
    for base in &baseline.families {
        let Some(cur) = current.families.iter().find(|f| f.name == base.name) else {
            violations.push(format!("family `{}` missing from current run", base.name));
            continue;
        };
        if cur.events != base.events {
            violations.push(format!(
                "{}: events {} != baseline {} (workload drifted — determinism bug \
                 or unrefreshed baseline)",
                base.name, cur.events, base.events
            ));
        }
        if cur.sim_bytes != base.sim_bytes {
            violations.push(format!(
                "{}: sim_bytes {} != baseline {} (workload drifted — determinism \
                 bug or unrefreshed baseline)",
                base.name, cur.sim_bytes, base.sim_bytes
            ));
        }
        let ratio = cur.events_per_sec() / base.events_per_sec().max(1e-9);
        if ratio < 1.0 - tolerance {
            violations.push(format!(
                "{}: events/sec regressed {:.1}% ({:.0} vs baseline {:.0}, \
                 tolerance ±{:.0}%)",
                base.name,
                (1.0 - ratio) * 100.0,
                cur.events_per_sec(),
                base.events_per_sec(),
                tolerance * 100.0
            ));
        } else if ratio > 1.0 + tolerance {
            violations.push(format!(
                "{}: events/sec improved {:.1}% ({:.0} vs baseline {:.0}) beyond \
                 the ±{:.0}% band — claim the win by refreshing BENCH_sim.json \
                 (`make bench`, commit the result)",
                base.name,
                (ratio - 1.0) * 100.0,
                cur.events_per_sec(),
                base.events_per_sec(),
                tolerance * 100.0
            ));
        }
    }
    for cur in &current.families {
        if !baseline.families.iter().any(|f| f.name == cur.name) {
            violations.push(format!(
                "family `{}` not in baseline — refresh BENCH_sim.json",
                cur.name
            ));
        }
    }
    violations
}

/// Render a human-readable summary table of a report.
pub fn summary(report: &BenchReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<18} {:>12} {:>14} {:>9} {:>14}",
        "family", "events", "sim MB", "wall s", "events/sec"
    );
    for f in &report.families {
        let _ = writeln!(
            out,
            "{:<18} {:>12} {:>14.1} {:>9.2} {:>14.0}",
            f.name,
            f.events,
            f.sim_bytes as f64 / 1e6,
            f.wall_secs,
            f.events_per_sec()
        );
    }
    let _ = writeln!(out, "peak RSS: {} KiB", report.peak_rss_kb);
    out
}

/// A minimal recursive-descent JSON reader, just enough to round-trip the
/// reports this crate emits (objects, arrays, strings, numbers, booleans).
mod parse {
    /// A parsed JSON value.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        /// `null`.
        Null,
        /// `true` / `false`.
        Bool(bool),
        /// Any number (kept as f64; exact for the integers we emit).
        Num(f64),
        /// A string.
        Str(String),
        /// An array.
        Arr(Vec<Value>),
        /// An object, field order preserved.
        Obj(Vec<(String, Value)>),
    }

    impl Value {
        pub fn as_object(&self, what: &str) -> Result<&[(String, Value)], String> {
            match self {
                Value::Obj(fields) => Ok(fields),
                other => Err(format!("{what}: expected object, got {other:?}")),
            }
        }

        pub fn as_array(&self, what: &str) -> Result<&[Value], String> {
            match self {
                Value::Arr(items) => Ok(items),
                other => Err(format!("{what}: expected array, got {other:?}")),
            }
        }

        pub fn as_str(&self, what: &str) -> Result<&str, String> {
            match self {
                Value::Str(s) => Ok(s),
                other => Err(format!("{what}: expected string, got {other:?}")),
            }
        }

        pub fn as_f64(&self, what: &str) -> Result<f64, String> {
            match self {
                Value::Num(x) => Ok(*x),
                other => Err(format!("{what}: expected number, got {other:?}")),
            }
        }

        pub fn as_u64(&self, what: &str) -> Result<u64, String> {
            let x = self.as_f64(what)?;
            if x < 0.0 || x.fract() != 0.0 || x > u64::MAX as f64 {
                return Err(format!("{what}: expected unsigned integer, got {x}"));
            }
            Ok(x as u64)
        }
    }

    /// Look up a field in an object.
    pub fn get<'v>(fields: &'v [(String, Value)], key: &str) -> Result<&'v Value, String> {
        fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("missing field `{key}`"))
    }

    /// Deepest array/object nesting a document may use. A report nests
    /// three levels; the bound keeps the recursive descent's stack use
    /// fixed, so a hostile document is an `Err`, not a stack overflow.
    pub const MAX_DEPTH: usize = 64;

    /// Parse a complete JSON document.
    pub fn json(text: &str) -> Result<Value, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let v = value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(v)
    }

    fn skip_ws(b: &[u8], pos: &mut usize) {
        while *pos < b.len() && b[*pos].is_ascii_whitespace() {
            *pos += 1;
        }
    }

    fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
        if b.get(*pos) == Some(&c) {
            *pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {pos}", c as char))
        }
    }

    fn value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
        skip_ws(b, pos);
        if depth >= MAX_DEPTH && matches!(b.get(*pos), Some(b'{' | b'[')) {
            return Err(format!("nesting deeper than {MAX_DEPTH} at byte {pos}"));
        }
        match b.get(*pos) {
            Some(b'{') => object(b, pos, depth + 1),
            Some(b'[') => array(b, pos, depth + 1),
            Some(b'"') => Ok(Value::Str(string(b, pos)?)),
            Some(b't') => literal(b, pos, "true", Value::Bool(true)),
            Some(b'f') => literal(b, pos, "false", Value::Bool(false)),
            Some(b'n') => literal(b, pos, "null", Value::Null),
            Some(_) => number(b, pos),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn literal(b: &[u8], pos: &mut usize, word: &str, v: Value) -> Result<Value, String> {
        if b[*pos..].starts_with(word.as_bytes()) {
            *pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {pos}"))
        }
    }

    fn object(b: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
        expect(b, pos, b'{')?;
        let mut fields = Vec::new();
        skip_ws(b, pos);
        if b.get(*pos) == Some(&b'}') {
            *pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            skip_ws(b, pos);
            let key = string(b, pos)?;
            skip_ws(b, pos);
            expect(b, pos, b':')?;
            fields.push((key, value(b, pos, depth)?));
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b'}') => {
                    *pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {pos}")),
            }
        }
    }

    fn array(b: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
        expect(b, pos, b'[')?;
        let mut items = Vec::new();
        skip_ws(b, pos);
        if b.get(*pos) == Some(&b']') {
            *pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(value(b, pos, depth)?);
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b']') => {
                    *pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {pos}")),
            }
        }
    }

    fn string(b: &[u8], pos: &mut usize) -> Result<String, String> {
        expect(b, pos, b'"')?;
        let mut out = String::new();
        while let Some(&c) = b.get(*pos) {
            *pos += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = *b.get(*pos).ok_or("unterminated escape")?;
                    *pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = b
                                .get(*pos..*pos + 4)
                                .ok_or("truncated \\u escape")
                                .and_then(|h| std::str::from_utf8(h).map_err(|_| "bad utf8"))?;
                            let code =
                                u32::from_str_radix(hex, 16).map_err(|e| format!("\\u: {e}"))?;
                            *pos += 4;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => return Err(format!("bad escape `\\{}`", other as char)),
                    }
                }
                c => {
                    // Re-join multi-byte UTF-8 sequences.
                    let start = *pos - 1;
                    let len = utf8_len(c);
                    let chunk = b.get(start..start + len).ok_or("truncated utf8")?;
                    out.push_str(std::str::from_utf8(chunk).map_err(|e| e.to_string())?);
                    *pos = start + len;
                }
            }
        }
        Err("unterminated string".to_string())
    }

    fn utf8_len(first: u8) -> usize {
        match first {
            0x00..=0x7f => 1,
            0xc0..=0xdf => 2,
            0xe0..=0xef => 3,
            _ => 4,
        }
    }

    fn number(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        let start = *pos;
        while let Some(&c) = b.get(*pos) {
            if c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E') {
                *pos += 1;
            } else {
                break;
            }
        }
        // Finite only: an overflowing literal (`1e999`) would parse to an
        // infinity that no report can render back.
        std::str::from_utf8(&b[start..*pos])
            .ok()
            .and_then(|s| s.parse().ok())
            .filter(|x: &f64| x.is_finite())
            .map(Value::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> BenchReport {
        BenchReport {
            families: vec![
                FamilyResult {
                    name: "throughput_sweep".to_string(),
                    events: 1_000_000,
                    sim_bytes: 50_000_000,
                    wall_secs: 2.0,
                },
                FamilyResult {
                    name: "pktgen".to_string(),
                    events: 400_000,
                    sim_bytes: 80_000_000,
                    wall_secs: 0.5,
                },
            ],
            peak_rss_kb: 10_240,
        }
    }

    #[test]
    fn json_round_trips() {
        let r = report();
        let parsed = BenchReport::from_json(&r.to_json()).expect("parse back");
        assert_eq!(parsed, r);
    }

    #[test]
    fn identical_runs_pass_the_gate() {
        let r = report();
        assert!(compare(&r, &r, DEFAULT_TOLERANCE).is_empty());
    }

    #[test]
    fn small_drift_within_tolerance_passes() {
        let base = report();
        let mut cur = report();
        for f in &mut cur.families {
            f.wall_secs *= 1.10; // 10% slower — inside the ±15% band
        }
        assert!(compare(&base, &cur, DEFAULT_TOLERANCE).is_empty());
    }

    #[test]
    fn regression_beyond_tolerance_fails() {
        let base = report();
        let mut cur = report();
        cur.families[0].wall_secs *= 1.25; // ~20% fewer events/sec
        let v = compare(&base, &cur, DEFAULT_TOLERANCE);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("regressed"), "{v:?}");
    }

    #[test]
    fn unclaimed_improvement_beyond_tolerance_fails() {
        let base = report();
        let mut cur = report();
        cur.families[1].wall_secs /= 1.30; // 30% more events/sec
        let v = compare(&base, &cur, DEFAULT_TOLERANCE);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("improved"), "{v:?}");
        assert!(v[0].contains("refreshing"), "{v:?}");
    }

    #[test]
    fn perturbed_baseline_beyond_tolerance_fails_both_ways() {
        // The acceptance criterion demands the gate demonstrably fail when
        // the baseline is perturbed beyond ±15% in either direction.
        let cur = report();
        for scale in [0.8, 1.2] {
            let mut base = report();
            for f in &mut base.families {
                f.wall_secs *= scale;
            }
            let v = compare(&base, &cur, DEFAULT_TOLERANCE);
            assert_eq!(v.len(), 2, "scale {scale}: {v:?}");
        }
    }

    #[test]
    fn event_count_drift_is_flagged_as_determinism_failure() {
        let base = report();
        let mut cur = report();
        cur.families[0].events += 1;
        let v = compare(&base, &cur, DEFAULT_TOLERANCE);
        assert!(v.iter().any(|m| m.contains("drifted")), "{v:?}");
    }

    #[test]
    fn family_set_mismatch_fails() {
        let base = report();
        let mut cur = report();
        cur.families[1].name = "wan_record".to_string();
        let v = compare(&base, &cur, DEFAULT_TOLERANCE);
        assert!(v.iter().any(|m| m.contains("missing")), "{v:?}");
        assert!(v.iter().any(|m| m.contains("not in baseline")), "{v:?}");
    }
}
