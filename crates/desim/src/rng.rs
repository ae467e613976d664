//! Deterministic pseudo-random number generation for simulations.
//!
//! The engine must be bit-reproducible: the same seed yields the same event
//! trace. We therefore ship a small, self-contained generator
//! (xoshiro256++ seeded via SplitMix64) instead of depending on platform
//! entropy. All stochastic model components (OS jitter, interception
//! overhead noise, packet timing perturbations) draw from one of these.

/// xoshiro256++ PRNG with SplitMix64 seeding.
///
/// Fast, high-quality, and deterministic across platforms. Not
/// cryptographically secure (irrelevant here).
#[derive(Clone, Debug)]
pub struct SimRng {
    s: [u64; 4],
    /// Cached second output of the Box-Muller transform.
    spare_normal: Option<f64>,
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Create a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng {
            s,
            spare_normal: None,
        }
    }

    /// Derive an independent child generator (stream splitting).
    ///
    /// Useful for giving each model component its own stream so that adding
    /// draws in one component does not perturb another.
    pub fn fork(&mut self) -> SimRng {
        SimRng::new(self.next_u64() ^ 0xA5A5_5A5A_DEAD_BEEF)
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0)");
        // Lemire's multiply-shift rejection method (unbiased).
        let mut x = self.next_u64();
        let mut m = (x as u128) * (n as u128);
        let mut l = m as u64;
        if l < n {
            let t = n.wrapping_neg() % n;
            while l < t {
                x = self.next_u64();
                m = (x as u128) * (n as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Standard normal deviate (Box-Muller with caching).
    pub fn normal(&mut self) -> f64 {
        if let Some(z) = self.spare_normal.take() {
            return z;
        }
        // Reject u1 == 0 to keep ln() finite.
        let mut u1 = self.f64();
        while u1 <= f64::MIN_POSITIVE {
            u1 = self.f64();
        }
        let u2 = self.f64();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = std::f64::consts::TAU * u2;
        self.spare_normal = Some(r * theta.sin());
        r * theta.cos()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SimRng::new(7);
        for _ in 0..10_000 {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_is_in_range_and_covers() {
        let mut r = SimRng::new(3);
        let mut seen = [false; 10];
        for _ in 0..1_000 {
            let x = r.below(10) as usize;
            assert!(x < 10);
            seen[x] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn normal_moments() {
        let mut r = SimRng::new(11);
        let n = 100_000;
        let mut sum = 0.0;
        let mut sumsq = 0.0;
        for _ in 0..n {
            let z = r.normal();
            sum += z;
            sumsq += z * z;
        }
        let mean = sum / n as f64;
        let var = sumsq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }

    #[test]
    fn fork_streams_independent() {
        let mut parent = SimRng::new(5);
        let mut c1 = parent.fork();
        let mut c2 = parent.fork();
        let same = (0..16).filter(|_| c1.next_u64() == c2.next_u64()).count();
        assert!(same < 2);
    }
}
