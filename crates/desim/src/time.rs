//! Simulation time types.
//!
//! The engine's clock measures **physical** time on the (modeled) emulation
//! host in integer nanoseconds. Virtual Grid time is derived from physical
//! time through a [`crate::vclock::VirtualClock`] at the configured
//! simulation rate, mirroring the MicroGrid's `gettimeofday` virtualization.
//!
//! `SimTime` is an absolute instant (nanoseconds since simulation start);
//! `SimDuration` is a span. Both are thin wrappers over `u64` so they are
//! `Copy`, totally ordered, and hashable — suitable as event-queue keys.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Number of nanoseconds in one second.
pub const NANOS_PER_SEC: u64 = 1_000_000_000;

/// `x` rounded to the nearest integer, halves away from zero, saturating
/// at `u64::MAX`: equal to `x.round() as u64` for every `x >= 0` (and for
/// `+inf`), without the libm call `f64::round` is on baseline x86-64.
///
/// Below 2^52 the truncation and the subtraction are both exact, so the
/// comparison sees the true fractional part; from 2^52 up `x` is already
/// an integer and the fraction is zero; past `u64::MAX` the cast saturates.
#[inline]
fn round_u64(x: f64) -> u64 {
    let t = x as u64;
    t.saturating_add(u64::from(x - t as f64 >= 0.5))
}

/// An absolute instant on the simulation's physical clock.
///
/// Instants start at [`SimTime::ZERO`] when the simulation begins.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated physical time.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as "never".
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from raw nanoseconds since the simulation epoch.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Nanoseconds since the simulation epoch.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole microseconds since the simulation epoch (truncating).
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Whole milliseconds since the simulation epoch (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Seconds since the simulation epoch as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// Construct from seconds since the simulation epoch.
    ///
    /// # Panics
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(secs.is_finite() && secs >= 0.0, "invalid time: {secs}");
        SimTime(round_u64(secs * NANOS_PER_SEC as f64))
    }

    /// Span since an earlier instant, saturating to zero if `earlier` is
    /// actually later.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Checked addition of a duration (`None` on overflow).
    pub fn checked_add(self, d: SimDuration) -> Option<SimTime> {
        self.0.checked_add(d.0).map(SimTime)
    }
}

impl SimDuration {
    /// The zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable span.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Construct from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Construct from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Construct from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * NANOS_PER_SEC)
    }

    /// Construct from fractional seconds.
    ///
    /// # Panics
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(secs.is_finite() && secs >= 0.0, "invalid duration: {secs}");
        SimDuration(round_u64(secs * NANOS_PER_SEC as f64))
    }

    /// Raw nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole microseconds (truncating).
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Whole milliseconds (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// True if the span is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Scale by a non-negative float, rounding to the nearest nanosecond.
    ///
    /// Used for simulation-rate conversions (virtual <-> physical).
    ///
    /// # Panics
    /// Panics if `factor` is negative or not finite.
    #[inline]
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "invalid scale factor: {factor}"
        );
        SimDuration(round_u64(self.0 as f64 * factor))
    }

    /// Divide by a positive float, rounding to the nearest nanosecond.
    ///
    /// # Panics
    /// Panics if `divisor` is not finite and strictly positive.
    #[inline]
    pub fn div_f64(self, divisor: f64) -> SimDuration {
        assert!(
            divisor.is_finite() && divisor > 0.0,
            "invalid divisor: {divisor}"
        );
        SimDuration(round_u64(self.0 as f64 / divisor))
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Checked addition (`None` on overflow).
    pub fn checked_add(self, other: SimDuration) -> Option<SimDuration> {
        self.0.checked_add(other.0).map(SimDuration)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.checked_add(d.0).expect("SimTime overflow"))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, d: SimDuration) {
        *self = *self + d;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, d: SimDuration) -> SimTime {
        SimTime(self.0.checked_sub(d.0).expect("SimTime underflow"))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, other: SimTime) -> SimDuration {
        SimDuration(self.0.checked_sub(other.0).expect("negative SimDuration"))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_add(other.0).expect("SimDuration overflow"))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, other: SimDuration) {
        *self = *self + other;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_sub(other.0).expect("negative SimDuration"))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, other: SimDuration) {
        *self = *self - other;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, k: u64) -> SimDuration {
        SimDuration(self.0.checked_mul(k).expect("SimDuration overflow"))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, k: u64) -> SimDuration {
        SimDuration(self.0 / k)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}", format_ns(self.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", format_ns(self.0))
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", format_ns(self.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", format_ns(self.0))
    }
}

impl serde::Serialize for SimTime {
    fn serialize<S: serde::Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_u64(self.0)
    }
}

impl<'de> serde::Deserialize<'de> for SimTime {
    fn deserialize<D: serde::Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        u64::deserialize(d).map(SimTime)
    }
}

impl serde::Serialize for SimDuration {
    fn serialize<S: serde::Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_u64(self.0)
    }
}

impl<'de> serde::Deserialize<'de> for SimDuration {
    fn deserialize<D: serde::Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        u64::deserialize(d).map(SimDuration)
    }
}

fn format_ns(ns: u64) -> String {
    if ns >= NANOS_PER_SEC {
        format!("{:.6}s", ns as f64 / NANOS_PER_SEC as f64)
    } else if ns >= 1_000_000 {
        format!("{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn construction_roundtrips() {
        assert_eq!(SimDuration::from_secs(3).as_nanos(), 3 * NANOS_PER_SEC);
        assert_eq!(SimDuration::from_millis(5).as_micros(), 5_000);
        assert_eq!(SimDuration::from_micros(7).as_nanos(), 7_000);
        let t = SimTime::from_secs_f64(1.5);
        assert_eq!(t.as_nanos(), 1_500_000_000);
        assert!((t.as_secs_f64() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_nanos(100) + SimDuration::from_nanos(50);
        assert_eq!(t.as_nanos(), 150);
        assert_eq!((t - SimTime::from_nanos(100)).as_nanos(), 50);
        assert_eq!((t - SimDuration::from_nanos(150)), SimTime::ZERO);
        let d = SimDuration::from_millis(10) * 3;
        assert_eq!(d.as_millis(), 30);
        assert_eq!((d / 3).as_millis(), 10);
    }

    #[test]
    fn saturating_since_clamps() {
        let a = SimTime::from_nanos(10);
        let b = SimTime::from_nanos(20);
        assert_eq!(b.saturating_since(a).as_nanos(), 10);
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
    }

    #[test]
    fn scaling() {
        let d = SimDuration::from_secs(10);
        assert_eq!(d.mul_f64(0.5), SimDuration::from_secs(5));
        assert_eq!(d.div_f64(4.0), SimDuration::from_secs_f64(2.5));
    }

    /// The oracle: `f64::round`, which `round_u64` must equal.
    fn libm_round(x: f64) -> u64 {
        x.round() as u64
    }

    #[test]
    fn round_u64_matches_libm_round_at_the_edges() {
        let two52 = (1u64 << 52) as f64;
        let two53 = (1u64 << 53) as f64;
        let mut cases = vec![
            0.0,
            0.5,
            0.49999999999999994, // largest f64 below 0.5: `floor(x + 0.5)` gets it wrong
            0.5000000000000001,
            1.0,
            1.5,
            2.5,
            two52 - 1.0,
            two52 - 0.5,
            two52,
            two52 + 1.0,
            two53,
            two53 + 2.0,
            1.8e19,
            u64::MAX as f64,
            1.9e19, // > u64::MAX: saturates
            f64::MAX,
            f64::INFINITY,
            f64::MIN_POSITIVE,       // smallest normal
            f64::MIN_POSITIVE / 4.0, // subnormal
            f64::from_bits(1),       // smallest subnormal
        ];
        for k in [1u64, 2, 3, 1_000, 1_000_001, 999_999_999, (1 << 51) + 1] {
            cases.extend([
                k as f64 - 0.5,
                k as f64 + 0.5,
                f64::from_bits((k as f64 + 0.5).to_bits() - 1),
            ]);
        }
        for x in cases {
            assert_eq!(round_u64(x), libm_round(x), "x = {x:e}");
        }
        assert_eq!(round_u64(0.49999999999999994), 0);
        assert_eq!(round_u64(2.5), 3);
        assert_eq!(round_u64(1.9e19), u64::MAX);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10_000))]

        /// Any bit pattern (every magnitude, both signs, NaN included),
        /// fractions at nanosecond-count magnitudes, and the two sides of
        /// a half-way point.
        #[test]
        fn round_u64_matches_libm_round(
            bits in any::<u64>(),
            whole in 0u64..(1 << 53),
            frac in 0.0f64..1.0,
            shift in 0u32..52,
        ) {
            let half = (whole >> shift) as f64 + 0.5;
            let below_half = f64::from_bits(half.to_bits() - 1);
            for x in [f64::from_bits(bits), whole as f64 + frac, half, below_half] {
                prop_assert_eq!(round_u64(x), libm_round(x), "x = {:e}", x);
            }
        }

        #[test]
        fn scaling_matches_libm_round(
            ns in any::<u64>(),
            shift in 0u32..64,
            factor in 1e-6f64..1e6,
        ) {
            let d = SimDuration::from_nanos(ns >> shift);
            let ns = d.as_nanos() as f64;
            prop_assert_eq!(d.mul_f64(factor).as_nanos(), libm_round(ns * factor));
            prop_assert_eq!(d.div_f64(factor).as_nanos(), libm_round(ns / factor));
            prop_assert_eq!(
                SimDuration::from_secs_f64(factor).as_nanos(),
                libm_round(factor * NANOS_PER_SEC as f64)
            );
        }
    }

    #[test]
    #[should_panic]
    fn negative_duration_panics() {
        let _ = SimTime::from_nanos(1) - SimTime::from_nanos(2);
    }

    #[test]
    fn display_units() {
        assert_eq!(format!("{}", SimDuration::from_nanos(12)), "12ns");
        assert_eq!(format!("{}", SimDuration::from_micros(12)), "12.000us");
        assert_eq!(format!("{}", SimDuration::from_millis(12)), "12.000ms");
        assert_eq!(format!("{}", SimDuration::from_secs(12)), "12.000000s");
    }
}
