//! Simulation time: nanosecond-resolution virtual clock values and durations.
//!
//! The whole laboratory runs on a single monotonically non-decreasing virtual
//! clock. We use one newtype, [`Nanos`], for both instants and durations —
//! the arithmetic the simulator needs (saturating add, ordered comparisons,
//! unit conversions) is identical for both, and the duplication of a full
//! `Instant`/`Duration` pair buys nothing at this scale.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Rem, Sub, SubAssign};

/// A point in virtual time or a span of virtual time, in nanoseconds.
///
/// Nanosecond resolution is fine enough for everything the SC'03 paper
/// measures: the shortest physical time in the model is a single byte on the
/// 10GbE wire (~0.8 ns), and every reported quantity is ≥ 1 µs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Nanos(pub u64);

impl Nanos {
    /// The zero instant / empty duration.
    pub const ZERO: Nanos = Nanos(0);
    /// The largest representable instant (used as an "infinitely far" timer).
    pub const MAX: Nanos = Nanos(u64::MAX);

    /// Construct from nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        Nanos(ns)
    }

    /// Construct from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        Nanos(us * 1_000)
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        Nanos(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        Nanos(s * 1_000_000_000)
    }

    /// Construct from fractional seconds (rounded to the nearest nanosecond).
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        debug_assert!(s >= 0.0, "negative duration");
        // Float→integer truncation is this constructor's contract: the
        // value is rounded to the nearest nanosecond, non-negative by the
        // assert above, and config-time only (never on the event path).
        // lint:allow(lossy-cast)
        Nanos((s * 1e9).round() as u64)
    }

    /// Raw nanosecond count.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Value in microseconds (lossy).
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Value in milliseconds (lossy).
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Value in seconds (lossy).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction: `max(self - rhs, 0)`.
    #[inline]
    pub fn saturating_sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.saturating_sub(rhs.0))
    }

    /// Saturating addition, pinned at [`Nanos::MAX`].
    #[inline]
    pub fn saturating_add(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.saturating_add(rhs.0))
    }

    /// Saturating multiplication by a dimensionless integer factor,
    /// pinned at [`Nanos::MAX`]. Exact where [`Nanos::scale`] only
    /// happens to be; timer paths must use this, never the float.
    #[inline]
    pub fn saturating_mul(self, factor: u64) -> Nanos {
        Nanos(self.0.saturating_mul(factor))
    }

    /// Checked subtraction.
    #[inline]
    pub fn checked_sub(self, rhs: Nanos) -> Option<Nanos> {
        self.0.checked_sub(rhs.0).map(Nanos)
    }

    /// The larger of two times.
    #[inline]
    pub fn max(self, rhs: Nanos) -> Nanos {
        if self >= rhs {
            self
        } else {
            rhs
        }
    }

    /// The smaller of two times.
    #[inline]
    pub fn min(self, rhs: Nanos) -> Nanos {
        if self <= rhs {
            self
        } else {
            rhs
        }
    }

    /// Multiply a duration by a dimensionless float factor (e.g. an overhead
    /// multiplier), rounding to the nearest nanosecond.
    #[inline]
    pub fn scale(self, factor: f64) -> Nanos {
        debug_assert!(factor >= 0.0, "negative scale factor");
        // Rounding back to integer nanoseconds is the point of `scale`,
        // and the product is non-negative (assert above). This is not
        // set-up-only code: the host cost model (`tx_cpu_cost` and
        // `rx_cpu_cost` through `CpuSpec::stack_time`, the allocator
        // cost) scales reference costs on every frame, as `bus_time` does
        // a bandwidth through `Bandwidth::scale`. The float stays inside
        // this one correctly rounded IEEE-754 product, so the `Nanos` it
        // returns is the same on every platform.
        // lint:allow(lossy-cast)
        Nanos((self.0 as f64 * factor).round() as u64)
    }
}

impl Add for Nanos {
    type Output = Nanos;
    #[inline]
    fn add(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 + rhs.0)
    }
}

impl AddAssign for Nanos {
    #[inline]
    fn add_assign(&mut self, rhs: Nanos) {
        self.0 += rhs.0;
    }
}

impl Sub for Nanos {
    type Output = Nanos;
    #[inline]
    fn sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 - rhs.0)
    }
}

impl SubAssign for Nanos {
    #[inline]
    fn sub_assign(&mut self, rhs: Nanos) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Nanos {
    type Output = Nanos;
    #[inline]
    fn mul(self, rhs: u64) -> Nanos {
        Nanos(self.0 * rhs)
    }
}

impl Div<u64> for Nanos {
    type Output = Nanos;
    #[inline]
    fn div(self, rhs: u64) -> Nanos {
        Nanos(self.0 / rhs)
    }
}

impl Rem<u64> for Nanos {
    type Output = Nanos;
    #[inline]
    fn rem(self, rhs: u64) -> Nanos {
        Nanos(self.0 % rhs)
    }
}

impl Sum for Nanos {
    fn sum<I: Iterator<Item = Nanos>>(iter: I) -> Nanos {
        iter.fold(Nanos::ZERO, Add::add)
    }
}

impl fmt::Display for Nanos {
    /// Human-readable rendering with an automatically chosen unit.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns == u64::MAX {
            write!(f, "∞")
        } else if ns < 1_000 {
            write!(f, "{ns}ns")
        } else if ns < 1_000_000 {
            write!(f, "{:.3}us", ns as f64 / 1e3)
        } else if ns < 1_000_000_000 {
            write!(f, "{:.3}ms", ns as f64 / 1e6)
        } else {
            write!(f, "{:.3}s", ns as f64 / 1e9)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_conversion_roundtrip() {
        assert_eq!(Nanos::from_micros(5).as_nanos(), 5_000);
        assert_eq!(Nanos::from_millis(3).as_nanos(), 3_000_000);
        assert_eq!(Nanos::from_secs(2).as_nanos(), 2_000_000_000);
        assert_eq!(Nanos::from_secs_f64(1.5).as_nanos(), 1_500_000_000);
        assert!((Nanos::from_micros(19).as_micros_f64() - 19.0).abs() < 1e-9);
        assert!((Nanos::from_millis(180).as_millis_f64() - 180.0).abs() < 1e-9);
        assert!((Nanos::from_secs(3600).as_secs_f64() - 3600.0).abs() < 1e-9);
    }

    #[test]
    fn arithmetic() {
        let a = Nanos::from_micros(10);
        let b = Nanos::from_micros(4);
        assert_eq!(a + b, Nanos::from_micros(14));
        assert_eq!(a - b, Nanos::from_micros(6));
        assert_eq!(a * 3, Nanos::from_micros(30));
        assert_eq!(a / 2, Nanos::from_micros(5));
        assert_eq!(b.saturating_sub(a), Nanos::ZERO);
        assert_eq!(Nanos::MAX.saturating_add(a), Nanos::MAX);
        assert_eq!(a.checked_sub(b), Some(Nanos::from_micros(6)));
        assert_eq!(b.checked_sub(a), None);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
    }

    #[test]
    fn scale_rounds_to_nearest() {
        assert_eq!(Nanos(100).scale(1.5), Nanos(150));
        assert_eq!(Nanos(3).scale(0.5), Nanos(2)); // 1.5 rounds to 2
        assert_eq!(Nanos(1_000).scale(0.0), Nanos::ZERO);
    }

    #[test]
    fn ordering_is_numeric() {
        assert!(Nanos(1) < Nanos(2));
        assert!(Nanos::MAX > Nanos::from_secs(1_000_000));
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(Nanos(850).to_string(), "850ns");
        assert_eq!(Nanos::from_micros(19).to_string(), "19.000us");
        assert_eq!(Nanos::from_millis(180).to_string(), "180.000ms");
        assert_eq!(Nanos::from_secs(2).to_string(), "2.000s");
        assert_eq!(Nanos::MAX.to_string(), "∞");
    }

    #[test]
    fn sum_of_durations() {
        let total: Nanos = (1..=4).map(Nanos::from_micros).sum();
        assert_eq!(total, Nanos::from_micros(10));
    }
}
