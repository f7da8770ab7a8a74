//! Physical units used throughout the laboratory: bandwidth and byte counts.
//!
//! All link, bus, and memory rates in the model are expressed as
//! [`Bandwidth`] values; the single conversion that matters — "how long does
//! it take to move `n` bytes at this rate" — lives here so that every crate
//! computes serialization delays identically.

use crate::time::Nanos;
use std::fmt;

/// A data rate in bits per second.
///
/// Stored as a `u64` bit rate, which represents every rate in the paper
/// exactly (10 GbE line rate, OC-48 payload rate, front-side-bus rates, …).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Bandwidth {
    bits_per_sec: u64,
}

impl Bandwidth {
    /// Zero bandwidth (an unusable link; `time_to_send` is saturating).
    pub const ZERO: Bandwidth = Bandwidth { bits_per_sec: 0 };

    /// Construct from bits per second.
    #[inline]
    pub const fn from_bps(bits_per_sec: u64) -> Self {
        Bandwidth { bits_per_sec }
    }

    /// Construct from megabits per second (decimal, as used in networking).
    #[inline]
    pub const fn from_mbps(mbps: u64) -> Self {
        Bandwidth {
            bits_per_sec: mbps * 1_000_000,
        }
    }

    /// Construct from gigabits per second (decimal).
    #[inline]
    pub const fn from_gbps(gbps: u64) -> Self {
        Bandwidth {
            bits_per_sec: gbps * 1_000_000_000,
        }
    }

    /// Construct from fractional gigabits per second.
    #[inline]
    pub fn from_gbps_f64(gbps: f64) -> Self {
        debug_assert!(gbps >= 0.0);
        Bandwidth {
            bits_per_sec: (gbps * 1e9).round() as u64,
        }
    }

    /// Construct from megabytes per second (decimal; e.g. STREAM results).
    #[inline]
    pub const fn from_mbytes_per_sec(mbs: u64) -> Self {
        Bandwidth {
            bits_per_sec: mbs * 8_000_000,
        }
    }

    /// Rate in bits per second.
    #[inline]
    pub const fn bps(self) -> u64 {
        self.bits_per_sec
    }

    /// Rate in gigabits per second (lossy, for reporting).
    #[inline]
    pub fn gbps(self) -> f64 {
        self.bits_per_sec as f64 / 1e9
    }

    /// Time to serialize `bytes` bytes at this rate, rounded up to the next
    /// nanosecond (rounding up keeps a busy resource conservative: it can
    /// never transmit faster than its rated bandwidth).
    ///
    /// A zero rate yields [`Nanos::MAX`]. Runs per frame (PCI-X, memory
    /// bus, every link hop), so it divides in `u64` whenever `bytes × 8 ×
    /// 10⁹` fits — anything under ≈2.3 GB — and widens only past that.
    #[inline]
    pub fn time_to_send(self, bytes: u64) -> Nanos {
        if self.bits_per_sec == 0 {
            return Nanos::MAX;
        }
        match bytes.checked_mul(8_000_000_000) {
            Some(bit_ns) => Nanos(bit_ns.div_ceil(self.bits_per_sec)),
            None => self.time_to_send_wide(bytes),
        }
    }

    /// [`Bandwidth::time_to_send`] in `u128` arithmetic, for byte counts
    /// whose `bits × 10⁹` overflows `u64`. Nonzero rates only.
    fn time_to_send_wide(self, bytes: u64) -> Nanos {
        let bits = bytes as u128 * 8;
        let ns = (bits * 1_000_000_000).div_ceil(self.bits_per_sec as u128);
        Nanos(ns.min(u64::MAX as u128) as u64)
    }

    /// Bytes that can be moved in `dur` at this rate (rounded down). Like
    /// [`Bandwidth::time_to_send`], divides in `u64` unless `rate × dur`
    /// overflows it.
    #[inline]
    pub fn bytes_in(self, dur: Nanos) -> u64 {
        match self.bits_per_sec.checked_mul(dur.as_nanos()) {
            Some(bit_ns) => bit_ns / 8_000_000_000,
            None => self.bytes_in_wide(dur),
        }
    }

    /// [`Bandwidth::bytes_in`] in `u128` arithmetic.
    fn bytes_in_wide(self, dur: Nanos) -> u64 {
        let bits = self.bits_per_sec as u128 * dur.as_nanos() as u128 / 1_000_000_000;
        (bits / 8).min(u64::MAX as u128) as u64
    }

    /// The bandwidth-delay product for a round-trip time, in bytes.
    ///
    /// This is the paper's "ideal window size": the amount of data that must
    /// be in flight to keep a path of this rate busy across `rtt`.
    #[inline]
    pub fn delay_product(self, rtt: Nanos) -> u64 {
        self.bytes_in(rtt)
    }

    /// Scale the rate by a dimensionless efficiency factor in `[0, 1]` (or an
    /// overhead factor > 1).
    #[inline]
    pub fn scale(self, factor: f64) -> Bandwidth {
        debug_assert!(factor >= 0.0);
        Bandwidth {
            bits_per_sec: (self.bits_per_sec as f64 * factor).round() as u64,
        }
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let bps = self.bits_per_sec;
        if bps >= 1_000_000_000 {
            write!(f, "{:.3}Gb/s", bps as f64 / 1e9)
        } else if bps >= 1_000_000 {
            write!(f, "{:.3}Mb/s", bps as f64 / 1e6)
        } else if bps >= 1_000 {
            write!(f, "{:.3}Kb/s", bps as f64 / 1e3)
        } else {
            write!(f, "{bps}b/s")
        }
    }
}

/// Compute an achieved data rate from a byte count and an elapsed duration.
///
/// Returns [`Bandwidth::ZERO`] for a zero duration (nothing meaningful can be
/// said about an instantaneous transfer).
pub fn rate_of(bytes: u64, elapsed: Nanos) -> Bandwidth {
    if elapsed == Nanos::ZERO {
        return Bandwidth::ZERO;
    }
    let bps = bytes as u128 * 8 * 1_000_000_000 / elapsed.as_nanos() as u128;
    Bandwidth::from_bps(bps.min(u64::MAX as u128) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(Bandwidth::from_gbps(10).bps(), 10_000_000_000);
        assert_eq!(Bandwidth::from_mbps(2500).bps(), 2_500_000_000);
        assert_eq!(Bandwidth::from_gbps_f64(2.5).bps(), 2_500_000_000);
        assert_eq!(Bandwidth::from_mbytes_per_sec(1600).bps(), 12_800_000_000);
    }

    #[test]
    fn serialization_time_rounds_up() {
        // 1500 bytes at 10 Gb/s = 1200 ns exactly.
        let gbe10 = Bandwidth::from_gbps(10);
        assert_eq!(gbe10.time_to_send(1500), Nanos(1200));
        // 1 byte at 10 Gb/s = 0.8 ns, rounds up to 1 ns.
        assert_eq!(gbe10.time_to_send(1), Nanos(1));
        assert_eq!(gbe10.time_to_send(0), Nanos::ZERO);
        assert_eq!(Bandwidth::ZERO.time_to_send(1), Nanos::MAX);
    }

    #[test]
    fn bdp_matches_paper_lan_example() {
        // Paper §3.3: 19 us back-to-back latency → RTT ≈ 38 us; at 10 Gb/s
        // the bandwidth-delay product is "about 48 KB".
        let bdp = Bandwidth::from_gbps(10).delay_product(Nanos::from_micros(38));
        assert_eq!(bdp, 47_500);
        assert!((40_000..56_000).contains(&bdp), "≈48 KB, got {bdp}");
    }

    #[test]
    fn bdp_matches_paper_wan_example() {
        // §4: OC-48 payload 2.5 Gb/s at 180 ms RTT → BDP ≈ 56 MB.
        let bdp = Bandwidth::from_gbps_f64(2.5).delay_product(Nanos::from_millis(180));
        assert_eq!(bdp, 56_250_000);
    }

    #[test]
    fn rate_of_inverts_time_to_send() {
        let bw = Bandwidth::from_gbps(4);
        let t = bw.time_to_send(1_000_000);
        let measured = rate_of(1_000_000, t);
        let err = (measured.gbps() - 4.0).abs() / 4.0;
        assert!(err < 1e-6, "measured {measured}");
    }

    #[test]
    fn bytes_in_is_conservative() {
        let bw = Bandwidth::from_gbps(10);
        // 1 us at 10 Gb/s = 1250 bytes.
        assert_eq!(bw.bytes_in(Nanos::from_micros(1)), 1250);
        assert_eq!(bw.bytes_in(Nanos::ZERO), 0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Bandwidth::from_gbps(10).to_string(), "10.000Gb/s");
        assert_eq!(Bandwidth::from_mbps(923).to_string(), "923.000Mb/s");
        assert_eq!(Bandwidth::from_bps(500).to_string(), "500b/s");
    }

    #[test]
    fn scale_efficiency() {
        let raw = Bandwidth::from_gbps(10);
        assert_eq!(raw.scale(0.5).bps(), 5_000_000_000);
    }

    /// Largest byte count whose `bytes × 8 × 10⁹` fits `u64`.
    const SEND_EDGE: u64 = u64::MAX / 8_000_000_000;

    #[test]
    fn wide_paths_take_over_past_the_u64_edge() {
        let bw = Bandwidth::from_gbps(10);
        assert!(SEND_EDGE.checked_mul(8_000_000_000).is_some());
        assert_eq!((SEND_EDGE + 1).checked_mul(8_000_000_000), None);
        for b in [SEND_EDGE, SEND_EDGE + 1, u64::MAX] {
            assert_eq!(bw.time_to_send(b), bw.time_to_send_wide(b), "{b} B");
        }
        assert_eq!(Bandwidth::from_bps(1).time_to_send(u64::MAX), Nanos::MAX);
        assert_eq!(bw.bytes_in(Nanos::MAX), bw.bytes_in_wide(Nanos::MAX));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The `u64` fast paths return exactly what the `u128` arithmetic
        /// does: on random inputs, on frame-sized inputs at link-like
        /// rates, and on both sides of each path's overflow edge.
        #[test]
        fn u64_fast_paths_match_the_wide_arithmetic(
            bps in any::<u64>(),
            link_bps in 1u64..(1u64 << 40),
            bytes in any::<u64>(),
            frame in 0u64..(1u64 << 20),
            dur in any::<u64>(),
            skew in 0u64..64,
        ) {
            for rate in [bps.max(1), link_bps] {
                let bw = Bandwidth::from_bps(rate);
                let edge_bytes = (SEND_EDGE + skew).saturating_sub(32);
                for b in [bytes, frame, edge_bytes] {
                    let (fast, wide) = (bw.time_to_send(b), bw.time_to_send_wide(b));
                    prop_assert_eq!(fast, wide, "{} B at {} b/s", b, rate);
                }
                let edge_dur = (u64::MAX / rate).saturating_add(skew).saturating_sub(32);
                for d in [dur, frame, edge_dur] {
                    let (fast, wide) = (bw.bytes_in(Nanos(d)), bw.bytes_in_wide(Nanos(d)));
                    prop_assert_eq!(fast, wide, "{} ns at {} b/s", d, rate);
                }
            }
        }
    }
}
