//! Simulation time base.
//!
//! All simulated time is kept in integer **picoseconds**. Picosecond
//! resolution lets every clock in the system (4 GHz cores, 333 MHz DRAM
//! clocks, 3.75 ns DDR2-533 periods) be represented exactly, so the
//! latency decompositions of the paper (e.g. the 63 ns idle read latency)
//! come out exact rather than accumulating rounding error.
//!
//! Two newtypes are provided: [`Time`] is an *instant* (picoseconds since
//! simulation start) and [`Dur`] is a *duration*. Mixing them up is a
//! compile error; only the meaningful arithmetic combinations are
//! implemented.
//!
//! # Examples
//!
//! ```
//! use fbd_types::time::{Dur, Time};
//!
//! let start = Time::ZERO;
//! let t_cl = Dur::from_ns(15);
//! let first_beat = start + Dur::from_ns(12) + t_cl;
//! assert_eq!(first_beat - start, Dur::from_ns(27));
//! assert_eq!(first_beat.as_ps(), 27_000);
//! ```

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Rem, Sub, SubAssign};

/// An instant in simulated time, in picoseconds since simulation start.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Time(u64);

/// A span of simulated time, in picoseconds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Dur(u64);

impl Time {
    /// The simulation start instant.
    pub const ZERO: Time = Time(0);
    /// The largest representable instant; used as "never" in schedulers.
    pub const NEVER: Time = Time(u64::MAX);

    /// Creates an instant from raw picoseconds.
    #[inline]
    pub const fn from_ps(ps: u64) -> Time {
        Time(ps)
    }

    /// Creates an instant from nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Time {
        Time(ns * 1_000)
    }

    /// Raw picosecond value.
    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Value in nanoseconds as floating point (for reporting only).
    #[inline]
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Duration since `earlier`, saturating to zero if `earlier` is later.
    #[inline]
    pub fn saturating_since(self, earlier: Time) -> Dur {
        Dur(self.0.saturating_sub(earlier.0))
    }

    /// The later of two instants.
    #[inline]
    pub fn max(self, other: Time) -> Time {
        Time(self.0.max(other.0))
    }

    /// Rounds this instant *up* to the next multiple of `quantum` (e.g. a
    /// clock edge). An instant already on an edge is unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `quantum` is zero.
    #[inline]
    pub fn align_up(self, quantum: Dur) -> Time {
        assert!(quantum.0 > 0, "alignment quantum must be non-zero");
        let rem = self.0 % quantum.0;
        if rem == 0 {
            self
        } else {
            Time(self.0 + (quantum.0 - rem))
        }
    }
}

impl Dur {
    /// The zero-length duration.
    pub const ZERO: Dur = Dur(0);

    /// Creates a duration from raw picoseconds.
    #[inline]
    pub const fn from_ps(ps: u64) -> Dur {
        Dur(ps)
    }

    /// Creates a duration from nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Dur {
        Dur(ns * 1_000)
    }

    /// Creates a duration from nanoseconds, or `None` if the picosecond
    /// value does not fit in a `u64`.
    #[inline]
    pub const fn checked_from_ns(ns: u64) -> Option<Dur> {
        match ns.checked_mul(1_000) {
            Some(ps) => Some(Dur(ps)),
            None => None,
        }
    }

    /// `self * n`, or `None` on overflow.
    #[inline]
    pub const fn checked_mul(self, n: u64) -> Option<Dur> {
        match self.0.checked_mul(n) {
            Some(ps) => Some(Dur(ps)),
            None => None,
        }
    }

    /// Raw picosecond value.
    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Value in nanoseconds as floating point (for reporting only).
    #[inline]
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Value in seconds as floating point (for bandwidth computations).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 * 1e-12
    }

    /// True if this duration is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add<Dur> for Time {
    type Output = Time;
    #[inline]
    fn add(self, rhs: Dur) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl AddAssign<Dur> for Time {
    #[inline]
    fn add_assign(&mut self, rhs: Dur) {
        self.0 += rhs.0;
    }
}

impl Sub<Dur> for Time {
    type Output = Time;
    #[inline]
    fn sub(self, rhs: Dur) -> Time {
        Time(self.0 - rhs.0)
    }
}

impl Sub<Time> for Time {
    type Output = Dur;
    #[inline]
    fn sub(self, rhs: Time) -> Dur {
        Dur(self.0 - rhs.0)
    }
}

impl Add for Dur {
    type Output = Dur;
    #[inline]
    fn add(self, rhs: Dur) -> Dur {
        Dur(self.0 + rhs.0)
    }
}

impl AddAssign for Dur {
    #[inline]
    fn add_assign(&mut self, rhs: Dur) {
        self.0 += rhs.0;
    }
}

impl Sub for Dur {
    type Output = Dur;
    #[inline]
    fn sub(self, rhs: Dur) -> Dur {
        Dur(self.0 - rhs.0)
    }
}

impl SubAssign for Dur {
    #[inline]
    fn sub_assign(&mut self, rhs: Dur) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Dur {
    type Output = Dur;
    #[inline]
    fn mul(self, rhs: u64) -> Dur {
        Dur(self.0 * rhs)
    }
}

impl Mul<Dur> for u64 {
    type Output = Dur;
    #[inline]
    fn mul(self, rhs: Dur) -> Dur {
        Dur(self * rhs.0)
    }
}

impl Div<u64> for Dur {
    type Output = Dur;
    #[inline]
    fn div(self, rhs: u64) -> Dur {
        Dur(self.0 / rhs)
    }
}

impl Div<Dur> for Dur {
    type Output = u64;
    /// Number of whole `rhs` periods in `self`.
    #[inline]
    fn div(self, rhs: Dur) -> u64 {
        self.0 / rhs.0
    }
}

impl Rem<Dur> for Dur {
    type Output = Dur;
    #[inline]
    fn rem(self, rhs: Dur) -> Dur {
        Dur(self.0 % rhs.0)
    }
}

impl Sum for Dur {
    fn sum<I: Iterator<Item = Dur>>(iter: I) -> Dur {
        iter.fold(Dur::ZERO, Add::add)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ns", self.as_ns_f64())
    }
}

impl fmt::Display for Dur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ns", self.as_ns_f64())
    }
}

/// DRAM channel data rate in mega-transfers per second.
///
/// DDR transfers twice per clock, so the DRAM *clock* period is
/// `2 / rate`. The three rates evaluated in the paper are provided as
/// exact constants (DDR2 nominal rates are 533.33 / 666.67 / 800 MT/s,
/// giving clock periods of exactly 3.75 / 3.0 / 2.5 ns).
///
/// # Examples
///
/// ```
/// use fbd_types::time::{DataRate, Dur};
///
/// assert_eq!(DataRate::MTS667.clock_period(), Dur::from_ps(3_000));
/// assert_eq!(DataRate::MTS533.clock_period(), Dur::from_ps(3_750));
/// // 8-byte channel, two transfers per clock: 16 B / 3 ns = 5.33 GB/s.
/// assert!((DataRate::MTS667.channel_bandwidth_gbps() - 5.333).abs() < 0.001);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct DataRate {
    clock_period_ps: u64,
}

impl DataRate {
    /// DDR2-533: 3.75 ns clock.
    pub const MTS533: DataRate = DataRate {
        clock_period_ps: 3_750,
    };
    /// DDR2-667: 3.0 ns clock (the paper's default).
    pub const MTS667: DataRate = DataRate {
        clock_period_ps: 3_000,
    };
    /// DDR2-800: 2.5 ns clock.
    pub const MTS800: DataRate = DataRate {
        clock_period_ps: 2_500,
    };
    /// DDR3-1066: 1.875 ns clock (the paper's footnote anticipates
    /// FB-DIMM carrying DDR3).
    pub const MTS1066: DataRate = DataRate {
        clock_period_ps: 1_875,
    };
    /// DDR3-1333: 1.5 ns clock.
    pub const MTS1333: DataRate = DataRate {
        clock_period_ps: 1_500,
    };

    /// The DRAM clock period (one cycle of the command clock).
    #[inline]
    pub const fn clock_period(self) -> Dur {
        Dur::from_ps(self.clock_period_ps)
    }

    /// Mega-transfers per second (two transfers per clock).
    #[inline]
    pub fn mega_transfers(self) -> f64 {
        2.0e6 / self.clock_period_ps as f64
    }

    /// Peak data bandwidth of one 8-byte-wide physical channel, in GB/s.
    #[inline]
    pub fn channel_bandwidth_gbps(self) -> f64 {
        // 16 bytes move per clock (8-byte bus, double data rate).
        16.0 / self.clock_period_ps as f64 * 1_000.0
    }
}

impl Default for DataRate {
    fn default() -> Self {
        DataRate::MTS667
    }
}

impl fmt::Display for DataRate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.0}MT/s", self.mega_transfers())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_round_trips() {
        let t = Time::from_ns(63);
        assert_eq!(t.as_ps(), 63_000);
        assert_eq!(t + Dur::from_ns(2) - Dur::from_ns(2), t);
        assert_eq!((t + Dur::from_ns(5)) - t, Dur::from_ns(5));
    }

    #[test]
    fn saturating_since_clamps() {
        let early = Time::from_ns(10);
        let late = Time::from_ns(20);
        assert_eq!(late.saturating_since(early), Dur::from_ns(10));
        assert_eq!(early.saturating_since(late), Dur::ZERO);
    }

    #[test]
    fn align_up_to_clock_edges() {
        let q = Dur::from_ps(3_000);
        assert_eq!(Time::from_ps(0).align_up(q), Time::from_ps(0));
        assert_eq!(Time::from_ps(1).align_up(q), Time::from_ps(3_000));
        assert_eq!(Time::from_ps(3_000).align_up(q), Time::from_ps(3_000));
        assert_eq!(Time::from_ps(3_001).align_up(q), Time::from_ps(6_000));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn align_up_rejects_zero_quantum() {
        let _ = Time::from_ps(5).align_up(Dur::ZERO);
    }

    #[test]
    fn dur_division_counts_periods() {
        assert_eq!(Dur::from_ns(10) / Dur::from_ns(3), 3);
        assert_eq!(Dur::from_ns(10) % Dur::from_ns(3), Dur::from_ns(1));
        assert_eq!(Dur::from_ns(9) / 3, Dur::from_ns(3));
    }

    #[test]
    fn data_rates_match_ddr2_clock_periods() {
        assert_eq!(DataRate::MTS533.clock_period(), Dur::from_ps(3_750));
        assert_eq!(DataRate::MTS667.clock_period(), Dur::from_ps(3_000));
        assert_eq!(DataRate::MTS800.clock_period(), Dur::from_ps(2_500));
        assert!((DataRate::MTS800.channel_bandwidth_gbps() - 6.4).abs() < 1e-9);
        assert!((DataRate::MTS800.mega_transfers() - 800.0).abs() < 1e-9);
    }

    #[test]
    fn dur_sum_and_max() {
        let total: Dur = [Dur::from_ns(1), Dur::from_ns(2)].into_iter().sum();
        assert_eq!(total, Dur::from_ns(3));
        assert_eq!(Dur::from_ns(1).max(Dur::from_ns(2)), Dur::from_ns(2));
    }

    #[test]
    fn display_formats_are_nonempty() {
        assert_eq!(format!("{}", Dur::from_ns(15)), "15.000ns");
        assert_eq!(format!("{}", Time::from_ns(63)), "63.000ns");
        assert_eq!(format!("{}", DataRate::MTS667), "667MT/s");
    }
}
