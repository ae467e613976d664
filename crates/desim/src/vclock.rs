//! Virtual time: the MicroGrid's `gettimeofday` virtualization (paper §2.3).
//!
//! A [`VirtualClock`] maps the engine's physical clock onto virtual Grid
//! time at the *simulation rate* `r = d(virtual)/d(physical)`. With
//! `r = 0.04` (the paper's Fig 17 setting), one virtual second takes 25
//! physical seconds of emulation. The paper's global coordination picks one
//! rate before the run and holds every resource to it, so the clock is that
//! one number, a `Copy` value each layer keeps for itself.

use crate::time::{SimDuration, SimTime};

/// The virtual clock of a run: virtual time is physical time scaled by one
/// fixed rate.
///
/// Every virtual host and the network of a coordinated virtual Grid hold a
/// copy of the same clock and so observe the same virtual time — the
/// paper's global coordination requirement.
#[derive(Clone, Copy, Debug)]
pub struct VirtualClock {
    /// d(virtual)/d(physical).
    rate: f64,
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
        VirtualClock { rate }
    }

    /// An identity clock (`rate = 1`): virtual time equals physical time.
    /// Used for "physical grid" baseline runs.
    pub fn identity() -> Self {
        VirtualClock::new(1.0)
    }

    /// The simulation rate.
    #[inline]
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Virtual time corresponding to physical instant `phys`.
    #[inline]
    #[expect(
        clippy::disallowed_methods,
        reason = "the rate map IS the paper's scaled-clock model; identical f64 ops replay identically"
    )]
    pub fn virtual_at(&self, phys: SimTime) -> SimTime {
        SimTime::ZERO + phys.saturating_since(SimTime::ZERO).mul_f64(self.rate)
    }

    /// Physical duration needed for `virt` of virtual time to elapse.
    #[inline]
    #[expect(
        clippy::disallowed_methods,
        reason = "same scaled-clock model as `virtual_at`; both runs replay the same f64 ops"
    )]
    pub fn to_physical(&self, virt: SimDuration) -> SimDuration {
        virt.div_f64(self.rate)
    }
}

/// Sleep for a span of **virtual** time on the given clock.
pub async fn sleep_virtual(clock: &VirtualClock, virt: SimDuration) {
    crate::executor::sleep(clock.to_physical(virt)).await;
}

#[cfg(test)]
mod tests {
    use super::*;

    // The clock is a plain value: every layer keeps its own copy, and
    // nothing ties it to the thread that built it.
    const _: () = {
        const fn copy_and_send<T: Copy + Send>() {}
        copy_and_send::<VirtualClock>();
    };

    /// `(rate, t, virtual_at(t), to_physical(t as a span))`, times in
    /// nanoseconds, as the piecewise-linear clock this one replaced printed
    /// them: recorded, not recomputed. The rates are the ones the presets
    /// and figures use: baseline, alpha_cluster, the shared deployment,
    /// Fig 17, and Fig 15's `0.45 * k` (0.45, 0.9, 1.8 and 3.6 to the bit).
    const RECORDED: [(f64, u64, u64, u64); 36] = [
        (1.0, 1, 1, 1),
        (1.0, 7, 7, 7),
        (1.0, 15_000, 15_000, 15_000),
        (1.0, 1_000_000_007, 1_000_000_007, 1_000_000_007),
        (1.0, 25_000_000_000, 25_000_000_000, 25_000_000_000),
        (1.0, 1_234_567_890_123, 1_234_567_890_123, 1_234_567_890_123),
        (0.9, 1, 1, 1),
        (0.9, 7, 6, 8),
        (0.9, 15_000, 13_500, 16_667),
        (0.9, 1_000_000_007, 900_000_006, 1_111_111_119),
        (0.9, 25_000_000_000, 22_500_000_000, 27_777_777_778),
        (0.9, 1_234_567_890_123, 1_111_111_101_111, 1_371_742_100_137),
        (0.45, 1, 0, 2),
        (0.45, 7, 3, 16),
        (0.45, 15_000, 6750, 33_333),
        (0.45, 1_000_000_007, 450_000_003, 2_222_222_238),
        (0.45, 25_000_000_000, 11_250_000_000, 55_555_555_556),
        (0.45, 1_234_567_890_123, 555_555_550_555, 2_743_484_200_273),
        (0.04, 1, 0, 25),
        (0.04, 7, 0, 175),
        (0.04, 15_000, 600, 375_000),
        (0.04, 1_000_000_007, 40_000_000, 25_000_000_175),
        (0.04, 25_000_000_000, 1_000_000_000, 625_000_000_000),
        (0.04, 1_234_567_890_123, 49_382_715_605, 30_864_197_253_075),
        (1.8, 1, 2, 1),
        (1.8, 7, 13, 4),
        (1.8, 15_000, 27_000, 8333),
        (1.8, 1_000_000_007, 1_800_000_013, 555_555_559),
        (1.8, 25_000_000_000, 45_000_000_000, 13_888_888_889),
        (1.8, 1_234_567_890_123, 2_222_222_202_221, 685_871_050_068),
        (3.6, 1, 4, 0),
        (3.6, 7, 25, 2),
        (3.6, 15_000, 54_000, 4167),
        (3.6, 1_000_000_007, 3_600_000_025, 277_777_780),
        (3.6, 25_000_000_000, 90_000_000_000, 6_944_444_444),
        (3.6, 1_234_567_890_123, 4_444_444_404_443, 342_935_525_034),
    ];

    #[test]
    fn conversions_match_the_values_recorded_from_the_previous_clock() {
        assert_eq!([0.45 * 2.0, 0.45 * 4.0, 0.45 * 8.0], [0.9, 1.8, 3.6]);
        for (rate, t, virt, phys) in RECORDED {
            let c = VirtualClock::new(rate);
            let at = c.virtual_at(SimTime::from_nanos(t));
            assert_eq!(at.as_nanos(), virt, "virtual_at({t}) at rate {rate}");
            let span = c.to_physical(SimDuration::from_nanos(t));
            assert_eq!(span.as_nanos(), phys, "to_physical({t}) at rate {rate}");
        }
    }

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
        let p = c.to_physical(SimDuration::from_secs(1));
        assert_eq!(p, SimDuration::from_secs(25));
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
