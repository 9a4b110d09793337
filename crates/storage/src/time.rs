//! Simulated time.
//!
//! The whole workspace accounts time in **microseconds**, the unit the paper
//! reports its latency plots in (Figures 4–7 are "Max. Latency (us)").
//! [`SimTime`] is an absolute instant on the simulated clock and
//! [`SimDuration`] is a span between two instants.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

use serde::{Deserialize, Serialize};

/// An absolute instant of simulated time, in microseconds since simulation
/// start.
///
/// ```
/// use lbica_storage::time::{SimTime, SimDuration};
/// let t = SimTime::from_micros(10) + SimDuration::from_millis(1);
/// assert_eq!(t.as_micros(), 1_010);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(u64);

/// A span of simulated time, in microseconds.
///
/// ```
/// use lbica_storage::time::SimDuration;
/// assert_eq!(SimDuration::from_millis(2).as_micros(), 2_000);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch (time zero).
    pub const ZERO: SimTime = SimTime(0);

    /// Creates an instant `micros` microseconds after the epoch.
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(micros)
    }

    /// Creates an instant `millis` milliseconds after the epoch.
    pub const fn from_millis(millis: u64) -> Self {
        SimTime(millis * 1_000)
    }

    /// Creates an instant `secs` seconds after the epoch.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * 1_000_000)
    }

    /// Microseconds since the epoch.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Milliseconds since the epoch (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// Seconds since the epoch as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// The duration elapsed since `earlier`, saturating to zero if `earlier`
    /// is in the future.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// The later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration of `micros` microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros)
    }

    /// Creates a duration of `millis` milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * 1_000)
    }

    /// Creates a duration of `secs` seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1_000_000)
    }

    /// Creates a duration from a floating-point number of microseconds,
    /// rounding to the nearest whole microsecond and clamping negatives to
    /// zero.
    pub fn from_micros_f64(micros: f64) -> Self {
        if micros.is_nan() || micros <= 0.0 {
            SimDuration(0)
        } else {
            SimDuration(micros.round() as u64)
        }
    }

    /// The duration in whole microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// The duration in whole milliseconds (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// The duration as floating-point seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Saturating subtraction of two durations.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Multiplies the duration by an integer factor (e.g. queue depth × mean
    /// service time, the paper's Eq. 1).
    pub fn saturating_mul(self, factor: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(factor))
    }

    /// The larger of two durations.
    pub fn max(self, other: SimDuration) -> SimDuration {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// The smaller of two durations.
    pub fn min(self, other: SimDuration) -> SimDuration {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;

    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;

    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add<SimDuration> for SimDuration {
    type Output = SimDuration;

    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}us", self.0)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}us", self.0)
    }
}

impl From<u64> for SimDuration {
    fn from(micros: u64) -> Self {
        SimDuration(micros)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_round_trips() {
        let t = SimTime::from_millis(5);
        assert_eq!(t.as_micros(), 5_000);
        assert_eq!(t.as_millis(), 5);
        let later = t + SimDuration::from_micros(250);
        assert_eq!(later - t, SimDuration::from_micros(250));
    }

    #[test]
    fn saturating_since_never_underflows() {
        let early = SimTime::from_micros(10);
        let late = SimTime::from_micros(100);
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
        assert_eq!(late.saturating_since(early).as_micros(), 90);
    }

    #[test]
    fn duration_from_float_clamps_and_rounds() {
        assert_eq!(SimDuration::from_micros_f64(-3.0).as_micros(), 0);
        assert_eq!(SimDuration::from_micros_f64(f64::NAN).as_micros(), 0);
        assert_eq!(SimDuration::from_micros_f64(2.6).as_micros(), 3);
    }

    #[test]
    fn duration_mul_matches_eq1_shape() {
        // Eq. 1: queue time = queue size x mean latency.
        let svc = SimDuration::from_micros(80);
        assert_eq!(svc.saturating_mul(12).as_micros(), 960);
    }

    #[test]
    fn min_max_are_consistent() {
        let a = SimDuration::from_micros(3);
        let b = SimDuration::from_micros(9);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert_eq!(SimTime::from_micros(3).max(SimTime::from_micros(9)).as_micros(), 9);
    }

    #[test]
    fn display_is_nonempty() {
        assert_eq!(SimTime::from_micros(7).to_string(), "7us");
        assert_eq!(SimDuration::from_micros(7).to_string(), "7us");
    }

    #[test]
    fn seconds_conversions() {
        assert_eq!(SimTime::from_secs(2).as_micros(), 2_000_000);
        assert!((SimDuration::from_secs(1).as_secs_f64() - 1.0).abs() < 1e-12);
    }
}
