//! Fixed-point simulated time.
//!
//! The DLOOP paper quotes all device latencies in microseconds (Table I) but
//! the per-byte bus transfer latency is 0.025 µs, so a microsecond clock
//! would truncate. We therefore keep time in **nanoseconds** as a `u64`,
//! which covers ~584 years of simulated time — far beyond any trace.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute instant on the simulated clock, in nanoseconds since the
/// start of the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of simulated time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The maximum representable instant; used as "never" / idle sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Build an instant from whole microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Build an instant from whole milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Build an instant from (possibly fractional) seconds.
    ///
    /// Saturates at zero for negative inputs.
    #[inline]
    pub fn from_secs_f64(secs: f64) -> Self {
        SimTime((secs.max(0.0) * 1e9).round() as u64)
    }

    /// Nanoseconds since the epoch.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Microseconds since the epoch (fractional).
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Milliseconds since the epoch (fractional).
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Seconds since the epoch (fractional).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The duration elapsed since `earlier`, saturating at zero if `earlier`
    /// is actually later (which indicates a scheduling bug; callers that
    /// care assert separately).
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// The later of two instants.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// The earlier of two instants.
    #[inline]
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }
}

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Build a duration from whole nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Build a duration from whole microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Build a duration from whole milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Nanoseconds in this duration.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Microseconds in this duration (fractional).
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Milliseconds in this duration (fractional).
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Seconds in this duration (fractional).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Checked saturating addition.
    #[inline]
    pub fn saturating_add(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(other.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        debug_assert!(self.0 >= rhs.0, "SimTime subtraction went negative");
        SimDuration(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        debug_assert!(self.0 >= rhs.0, "SimDuration subtraction went negative");
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        debug_assert!(self.0 >= rhs.0);
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> Self {
        SimDuration(iter.map(|d| d.0).sum())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else {
            write!(f, "{:.3}us", self.as_micros_f64())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn micros_round_trip() {
        let t = SimTime::from_micros(225);
        assert_eq!(t.as_nanos(), 225_000);
        assert!((t.as_micros_f64() - 225.0).abs() < 1e-12);
    }

    #[test]
    fn add_sub_are_inverses() {
        let t = SimTime::from_millis(3);
        let d = SimDuration::from_micros(200);
        assert_eq!((t + d) - t, d);
        assert_eq!((t + d) - (t + d), SimDuration::ZERO);
    }

    #[test]
    fn saturating_since_clamps() {
        let a = SimTime::from_micros(5);
        let b = SimTime::from_micros(9);
        assert_eq!(b.saturating_since(a), SimDuration::from_micros(4));
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
    }

    #[test]
    fn ordering_and_max() {
        let a = SimTime::from_micros(1);
        let b = SimTime::from_micros(2);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert_eq!(SimTime::ZERO.max(SimTime::MAX), SimTime::MAX);
    }

    #[test]
    fn from_secs_f64_rounds() {
        assert_eq!(SimTime::from_secs_f64(1.5).as_nanos(), 1_500_000_000);
        assert_eq!(SimTime::from_secs_f64(-1.0), SimTime::ZERO);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", SimDuration::from_micros(225)), "225.000us");
        assert_eq!(format!("{}", SimDuration::from_millis(2)), "2.000ms");
        assert_eq!(format!("{}", SimTime::from_millis(1)), "1.000ms");
    }

    #[test]
    fn duration_sum() {
        let total: SimDuration = (1..=4).map(SimDuration::from_micros).sum();
        assert_eq!(total, SimDuration::from_micros(10));
    }
}
