//! A Zipf(θ) rank sampler for skewed ("hot/cold") address popularity.
//!
//! Enterprise traces exhibit strong temporal locality (the reason DFTL's
//! and DLOOP's mapping caches work, §II.A); the synthetic generators model
//! it with a Zipf-distributed choice over hot extents. Implementation:
//! the classic quantile approximation of Gray et al. (SIGMOD'94), exact
//! for θ→0 (uniform) and accurate for the θ ∈ [0.5, 1.2] range we use.

use dloop_simkit::SimRng;

/// Zipf sampler over ranks `0..n`.
///
/// ```
/// use dloop_simkit::SimRng;
/// use dloop_workloads::Zipf;
///
/// let z = Zipf::new(1_000, 0.99);
/// let mut rng = SimRng::new(7);
/// let hits = (0..10_000).filter(|_| z.sample(&mut rng) < 10).count();
/// assert!(hits > 2_000); // the top 1% of ranks draws >20% of samples
/// ```
#[derive(Debug, Clone)]
pub struct Zipf {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipf {
    /// A sampler over `n` items with skew `theta` (0 = uniform; 0.99 ≈
    /// classic YCSB hot-spot skew). `n` must be ≥ 1.
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n >= 1);
        assert!((0.0..2.0).contains(&theta) && (theta - 1.0).abs() > 1e-9);
        let zetan = Self::zeta(n, theta);
        let zeta2 = Self::zeta(2.min(n), theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        Zipf {
            n,
            theta,
            alpha,
            zetan,
            eta,
        }
    }

    fn zeta(n: u64, theta: f64) -> f64 {
        // Direct sum for small n; Euler-Maclaurin tail for large n.
        if n <= 10_000 {
            (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
        } else {
            let head: f64 = (1..=10_000u64).map(|i| 1.0 / (i as f64).powf(theta)).sum();
            // ∫_{10000}^{n} x^-θ dx + correction terms.
            let a = 10_000f64;
            let b = n as f64;
            head + (b.powf(1.0 - theta) - a.powf(1.0 - theta)) / (1.0 - theta)
                + 0.5 * (b.powf(-theta) - a.powf(-theta))
        }
    }

    /// Number of ranks.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Draw a rank in `0..n`, rank 0 being the most popular.
    pub fn sample(&self, rng: &mut SimRng) -> u64 {
        if self.theta == 0.0 {
            return rng.below(self.n);
        }
        let u = rng.f64();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) && self.n >= 2 {
            return 1;
        }
        let rank = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(self.n - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_when_theta_zero() {
        let z = Zipf::new(100, 0.0);
        let mut rng = SimRng::new(1);
        let mut counts = [0u32; 100];
        for _ in 0..100_000 {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        let (min, max) = (
            *counts.iter().min().unwrap() as f64,
            *counts.iter().max().unwrap() as f64,
        );
        assert!(max / min < 1.5, "uniform sampler too skewed: {min}..{max}");
    }

    #[test]
    fn skew_concentrates_on_low_ranks() {
        let z = Zipf::new(10_000, 0.99);
        let mut rng = SimRng::new(2);
        let mut head = 0u64;
        let n = 100_000;
        for _ in 0..n {
            if z.sample(&mut rng) < 100 {
                head += 1;
            }
        }
        // With theta=0.99, the top 1% of ranks should receive a large
        // share (>40%) of accesses.
        assert!(
            head as f64 / n as f64 > 0.4,
            "head share {}",
            head as f64 / n as f64
        );
    }

    #[test]
    fn samples_stay_in_range() {
        for theta in [0.0, 0.5, 0.9, 1.2] {
            let z = Zipf::new(37, theta);
            let mut rng = SimRng::new(3);
            for _ in 0..10_000 {
                assert!(z.sample(&mut rng) < 37);
            }
        }
    }

    #[test]
    fn single_item_always_zero() {
        let z = Zipf::new(1, 0.9);
        let mut rng = SimRng::new(4);
        for _ in 0..100 {
            assert_eq!(z.sample(&mut rng), 0);
        }
    }

    #[test]
    fn zeta_large_n_is_finite_and_monotone() {
        let a = Zipf::zeta(10_000, 0.9);
        let b = Zipf::zeta(1_000_000, 0.9);
        assert!(b > a);
        assert!(b.is_finite());
    }
}
