//! Virtual time: the MicroGrid's `gettimeofday` virtualization (paper §2.3).
//!
//! A [`VirtualClock`] maps the engine's physical clock onto virtual Grid
//! time at a configurable *simulation rate* `r = d(virtual)/d(physical)`.
//! With `r = 0.04` (the paper's Fig 17 setting), one virtual second takes 25
//! physical seconds of emulation. The rate may change during a run
//! (dynamic virtual time, listed by the paper as near-term future work); the
//! clock accumulates piecewise-linear segments so virtual time never jumps
//! or reverses.

use std::cell::RefCell;
use std::rc::Rc;

use crate::time::{SimDuration, SimTime};

#[derive(Debug)]
struct Segment {
    /// Physical instant where this segment begins.
    phys_start: SimTime,
    /// Virtual time already accumulated at `phys_start`.
    virt_start: SimTime,
    /// d(virtual)/d(physical) within this segment.
    rate: f64,
}

#[derive(Debug)]
struct ClockState {
    current: Segment,
    /// Closed history, kept so conversions of past instants stay exact.
    history: Vec<Segment>,
}

/// A shared virtual clock.
///
/// Cloning shares the underlying clock state, so every virtual host on a
/// coordinated virtual Grid observes the same virtual time — the paper's
/// global coordination requirement.
#[derive(Clone, Debug)]
pub struct VirtualClock {
    state: Rc<RefCell<ClockState>>,
}

impl VirtualClock {
    /// Create a clock starting at virtual zero with the given rate.
    ///
    /// # Panics
    /// Panics if `rate` is not finite and strictly positive.
    pub fn new(rate: f64) -> Self {
        assert!(
            rate.is_finite() && rate > 0.0,
            "simulation rate must be positive, got {rate}"
        );
        VirtualClock {
            state: Rc::new(RefCell::new(ClockState {
                current: Segment {
                    phys_start: SimTime::ZERO,
                    virt_start: SimTime::ZERO,
                    rate,
                },
                history: Vec::new(),
            })),
        }
    }

    /// An identity clock (`rate = 1`): virtual time equals physical time.
    /// Used for "physical grid" baseline runs.
    pub fn identity() -> Self {
        VirtualClock::new(1.0)
    }

    /// The current simulation rate.
    #[inline]
    pub fn rate(&self) -> f64 {
        self.state.borrow().current.rate
    }

    /// Change the rate at physical instant `phys_now` (dynamic virtual
    /// time). Virtual time is continuous across the change.
    ///
    /// # Panics
    /// Panics if `phys_now` precedes the start of the current segment, or if
    /// the new rate is invalid.
    pub fn set_rate(&self, phys_now: SimTime, rate: f64) {
        assert!(
            rate.is_finite() && rate > 0.0,
            "simulation rate must be positive, got {rate}"
        );
        let mut s = self.state.borrow_mut();
        assert!(
            phys_now >= s.current.phys_start,
            "rate change in the past: {phys_now:?} < {:?}",
            s.current.phys_start
        );
        let virt_now = virt_at(&s.current, phys_now);
        let old = std::mem::replace(
            &mut s.current,
            Segment {
                phys_start: phys_now,
                virt_start: virt_now,
                rate,
            },
        );
        s.history.push(old);
    }

    /// Virtual time corresponding to physical instant `phys`.
    ///
    /// Past instants are resolved against the segment history, so the
    /// mapping is consistent even across rate changes.
    pub fn virtual_at(&self, phys: SimTime) -> SimTime {
        let s = self.state.borrow();
        if phys >= s.current.phys_start {
            return virt_at(&s.current, phys);
        }
        // Find the most recent historical segment starting at or before phys.
        match s.history.binary_search_by(|seg| seg.phys_start.cmp(&phys)) {
            Ok(i) => virt_at(&s.history[i], phys),
            Err(0) => SimTime::ZERO, // before the first segment: clamp
            Err(i) => virt_at(&s.history[i - 1], phys),
        }
    }

    /// Physical duration needed for `virt` of virtual time to elapse at the
    /// *current* rate.
    #[inline]
    #[expect(
        clippy::disallowed_methods,
        reason = "the rate map IS the paper's scaled-clock model; both runs replay the same f64 ops"
    )]
    pub fn to_physical(&self, virt: SimDuration) -> SimDuration {
        virt.div_f64(self.rate())
    }

    /// Virtual duration that elapses over `phys` of physical time at the
    /// *current* rate.
    #[inline]
    #[expect(
        clippy::disallowed_methods,
        reason = "same scaled-clock model as `to_physical`; deterministic per seed"
    )]
    pub fn to_virtual(&self, phys: SimDuration) -> SimDuration {
        phys.mul_f64(self.rate())
    }
}

#[expect(
    clippy::disallowed_methods,
    reason = "segment interpolation is the scaled-clock model; identical f64 ops replay identically"
)]
fn virt_at(seg: &Segment, phys: SimTime) -> SimTime {
    let elapsed = phys.saturating_since(seg.phys_start);
    seg.virt_start + elapsed.mul_f64(seg.rate)
}

/// Sleep for a span of **virtual** time on the given clock.
///
/// Converts through the clock's current rate; if the rate changes while
/// sleeping, the wake-up instant is not retroactively adjusted (matching the
/// MicroGrid, where an in-flight timer is not rescheduled).
pub async fn sleep_virtual(clock: &VirtualClock, virt: SimDuration) {
    crate::executor::sleep(clock.to_physical(virt)).await;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_clock_is_identity() {
        let c = VirtualClock::identity();
        let t = SimTime::from_secs_f64(12.5);
        assert_eq!(c.virtual_at(t), t);
    }

    #[test]
    fn half_rate_halves_virtual_time() {
        let c = VirtualClock::new(0.5);
        assert_eq!(
            c.virtual_at(SimTime::from_secs_f64(10.0)),
            SimTime::from_secs_f64(5.0)
        );
    }

    #[test]
    fn duration_conversions_roundtrip() {
        let c = VirtualClock::new(0.04);
        let v = SimDuration::from_secs(1);
        let p = c.to_physical(v);
        assert_eq!(p, SimDuration::from_secs(25));
        assert_eq!(c.to_virtual(p), v);
    }

    #[test]
    fn rate_change_is_continuous() {
        let c = VirtualClock::new(1.0);
        c.set_rate(SimTime::from_secs_f64(10.0), 0.25);
        // At the changeover instant virtual == 10s.
        assert_eq!(
            c.virtual_at(SimTime::from_secs_f64(10.0)),
            SimTime::from_secs_f64(10.0)
        );
        // 4s later physically -> 1s later virtually.
        assert_eq!(
            c.virtual_at(SimTime::from_secs_f64(14.0)),
            SimTime::from_secs_f64(11.0)
        );
    }

    #[test]
    fn history_resolves_past_instants() {
        let c = VirtualClock::new(2.0);
        c.set_rate(SimTime::from_secs_f64(5.0), 0.5);
        c.set_rate(SimTime::from_secs_f64(9.0), 1.0);
        // Segment 1 (rate 2.0): virtual_at(3) = 6.
        assert_eq!(
            c.virtual_at(SimTime::from_secs_f64(3.0)),
            SimTime::from_secs_f64(6.0)
        );
        // Segment 2 (rate 0.5, starts phys 5 virt 10): virtual_at(7) = 11.
        assert_eq!(
            c.virtual_at(SimTime::from_secs_f64(7.0)),
            SimTime::from_secs_f64(11.0)
        );
        // Segment 3 (rate 1.0, starts phys 9 virt 12): virtual_at(10) = 13.
        assert_eq!(
            c.virtual_at(SimTime::from_secs_f64(10.0)),
            SimTime::from_secs_f64(13.0)
        );
    }

    #[test]
    fn monotone_across_rate_changes() {
        let c = VirtualClock::new(1.5);
        c.set_rate(SimTime::from_secs_f64(2.0), 0.1);
        c.set_rate(SimTime::from_secs_f64(4.0), 3.0);
        let mut prev = SimTime::ZERO;
        for i in 0..100 {
            let t = SimTime::from_secs_f64(i as f64 * 0.1);
            let v = c.virtual_at(t);
            assert!(v >= prev, "virtual time went backwards at {t:?}");
            prev = v;
        }
    }

    #[test]
    fn clones_share_state() {
        let a = VirtualClock::new(1.0);
        let b = a.clone();
        a.set_rate(SimTime::from_secs_f64(1.0), 0.5);
        assert_eq!(b.rate(), 0.5);
    }

    #[test]
    #[should_panic]
    fn zero_rate_rejected() {
        let _ = VirtualClock::new(0.0);
    }

    #[test]
    fn sleep_virtual_scales() {
        use crate::executor::Simulation;
        let mut sim = Simulation::new(0);
        let t = sim.block_on(async {
            let clock = VirtualClock::new(0.1);
            sleep_virtual(&clock, SimDuration::from_millis(100)).await;
            crate::executor::now()
        });
        assert_eq!(t.as_secs_f64(), 1.0); // 100ms virtual at rate 0.1 = 1s physical
    }
}
