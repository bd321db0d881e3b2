//! A tiny deterministic PRNG for the simulator itself.
//!
//! The simulator core must be bit-reproducible across runs and across
//! versions of third-party crates, so it carries its own PCG-XSH-RR 64/32
//! generator (O'Neill 2014) instead of depending on `rand`'s evolving
//! algorithm choices. Workload *generators* (which legitimately want rich
//! distributions) use `rand` in the `dloop-workloads` crate; this type is
//! for tie-breaking and sampling inside the device model only.

/// PCG-XSH-RR 64/32: 64-bit state, 32-bit output, period 2^64.
///
/// ```
/// use dloop_simkit::SimRng;
///
/// let mut a = SimRng::new(1);
/// let mut b = SimRng::new(1);
/// assert_eq!(a.below(1000), b.below(1000)); // same seed, same stream
/// assert!(a.below(10) < 10);
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    state: u64,
    inc: u64,
}

const PCG_MULT: u64 = 6364136223846793005;

impl SimRng {
    /// Seed the generator. Equal seeds produce equal streams.
    pub fn new(seed: u64) -> Self {
        // Standard PCG seeding dance: fixed stream, seed mixed into state.
        let mut rng = SimRng {
            state: 0,
            inc: (seed << 1) | 1,
        };
        rng.next_u32();
        rng.state = rng.state.wrapping_add(seed ^ 0x9E37_79B9_7F4A_7C15);
        rng.next_u32();
        rng
    }

    /// Next 32 uniformly distributed bits.
    fn next_u32(&mut self) -> u32 {
        let old = self.state;
        self.state = old.wrapping_mul(PCG_MULT).wrapping_add(self.inc);
        let xorshifted = (((old >> 18) ^ old) >> 27) as u32;
        let rot = (old >> 59) as u32;
        xorshifted.rotate_right(rot)
    }

    /// Next 64 uniformly distributed bits.
    fn next_u64(&mut self) -> u64 {
        ((self.next_u32() as u64) << 32) | self.next_u32() as u64
    }

    /// Uniform integer in `[0, bound)` using Lemire's multiply-shift with
    /// rejection (unbiased). `bound` must be non-zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0) is meaningless");
        // 128-bit multiply keeps this exact for any u64 bound.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut lo = m as u64;
        if lo < bound {
            let threshold = bound.wrapping_neg() % bound;
            while lo < threshold {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p.clamp(0.0, 1.0)
    }

    /// Exponentially distributed sample with the given mean.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        debug_assert!(mean > 0.0);
        // Invert the CDF; guard against ln(0).
        let u = loop {
            let u = self.f64();
            if u > 0.0 {
                break u;
            }
        };
        -mean * u.ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_equal_seeds() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..64).filter(|_| a.next_u32() == b.next_u32()).count();
        assert!(same < 4, "streams should be effectively independent");
    }

    #[test]
    fn below_is_in_range_and_covers() {
        let mut rng = SimRng::new(7);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = rng.below(10);
            assert!(v < 10);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn below_one_is_always_zero() {
        let mut rng = SimRng::new(3);
        for _ in 0..100 {
            assert_eq!(rng.below(1), 0);
        }
    }

    #[test]
    fn f64_is_unit_interval_and_roughly_uniform() {
        let mut rng = SimRng::new(11);
        let mut sum = 0.0;
        let n = 10_000;
        for _ in 0..n {
            let x = rng.f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean} too far from 0.5");
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut rng = SimRng::new(9);
        let n = 20_000;
        let mean = 250.0;
        let sum: f64 = (0..n).map(|_| rng.exponential(mean)).sum();
        let observed = sum / n as f64;
        assert!(
            (observed - mean).abs() / mean < 0.05,
            "observed mean {observed}"
        );
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::new(13);
        assert!((0..100).all(|_| !rng.chance(0.0)));
        assert!((0..100).all(|_| rng.chance(1.0)));
    }
}
