//! A minimal warmup/iterate/report micro-benchmark runner.
//!
//! This is the workspace's in-tree replacement for `criterion` (the build
//! is hermetic — no registry dependencies), reporting the robust summary
//! statistics from [`crate::stats`]: per-iteration **median**, **p95**,
//! and MAD-based outlier counts, rather than a mean that one scheduler
//! hiccup can drag around.
//!
//! ## Model
//!
//! Each case runs in three stages:
//!
//! 1. **Warmup** — the closure runs untimed for a fixed wall-time budget,
//!    so caches, allocators and branch predictors settle.
//! 2. **Calibration** — one timed run sizes how many iterations fit in
//!    the minimum sample time, so short closures are batched enough for
//!    the clock to resolve them.
//! 3. **Measurement** — a fixed number of samples are collected, each
//!    timing a batch and recording the per-iteration nanoseconds.
//!
//! The report line prints the median, p95, sample/batch shape, and how
//! many samples sat more than 3 robust standard deviations (median ±
//! 3 × 1.4826 × MAD) from the median — a nonzero count means a noisy
//! host, not necessarily a noisy benchmark.
//!
//! ## Example
//!
//! ```
//! use dloop_simkit::bench::{black_box, Bench};
//!
//! let mut bench = Bench::new("doc_example").samples(5);
//! let report = bench.case("sum_1k", || (0..1000u64).sum::<u64>());
//! assert!(report.median_ns > 0.0);
//! assert_eq!(report.samples.len(), 5);
//! # let _ = black_box(report.median_ns);
//! ```
//!
//! ## Environment knobs
//!
//! * `SIMKIT_BENCH_SAMPLES` — overrides every case's sample count (handy
//!   for a quick smoke pass in CI: `SIMKIT_BENCH_SAMPLES=3 cargo bench`).

pub use std::hint::black_box;

use crate::stats::{median_abs_deviation, percentile_sorted};
use std::time::{Duration, Instant};

/// Scale factor turning a median absolute deviation into a consistent
/// estimate of σ for normally distributed data.
const MAD_TO_SIGMA: f64 = 1.4826;

/// Samples further than this many robust σ from the median are flagged.
const OUTLIER_SIGMAS: f64 = 3.0;

/// Measured results for one benchmark case.
#[derive(Debug, Clone)]
pub struct CaseReport {
    /// Case name as passed to [`Bench::case`].
    pub name: String,
    /// Per-iteration wall time of each sample, in nanoseconds.
    pub samples: Vec<f64>,
    /// Iterations batched per sample (from calibration).
    pub iters_per_sample: u64,
    /// Median per-iteration time in nanoseconds.
    pub median_ns: f64,
    /// 95th-percentile per-iteration time in nanoseconds.
    pub p95_ns: f64,
    /// Median absolute deviation of the samples, in nanoseconds.
    pub mad_ns: f64,
    /// Samples flagged as outliers (beyond 3 robust σ of the median).
    pub outliers: usize,
    /// Work items per iteration, if declared via [`Bench::throughput_elements`].
    pub elements: Option<u64>,
}

impl CaseReport {
    /// Throughput in elements per second at the median, if the case
    /// declared an element count.
    fn elements_per_sec(&self) -> Option<f64> {
        self.elements.map(|n| n as f64 / (self.median_ns * 1e-9))
    }
}

/// Render nanoseconds with an auto-selected unit.
fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}

/// A group of benchmark cases sharing sampling settings.
///
/// See the [module docs](self) for the measurement model and an example.
#[derive(Debug)]
pub struct Bench {
    group: String,
    samples: usize,
    warmup: Duration,
    min_sample_time: Duration,
    elements: Option<u64>,
    env_samples: Option<usize>,
    reports: Vec<CaseReport>,
}

impl Bench {
    /// A benchmark group with default settings: 30 samples per case,
    /// 50 ms warmup, and at least 2 ms of work per sample.
    pub fn new(group: &str) -> Self {
        let env_samples = std::env::var("SIMKIT_BENCH_SAMPLES")
            .ok()
            .and_then(|v| v.trim().parse().ok());
        Bench {
            group: group.to_string(),
            samples: 30,
            warmup: Duration::from_millis(50),
            min_sample_time: Duration::from_millis(2),
            elements: None,
            env_samples,
            reports: Vec::new(),
        }
    }

    /// Set the sample count for subsequent cases (the
    /// `SIMKIT_BENCH_SAMPLES` environment variable overrides this).
    pub fn samples(mut self, n: usize) -> Self {
        self.samples = n.max(1);
        self
    }

    /// Set the warmup budget for subsequent cases.
    pub fn warmup(mut self, d: Duration) -> Self {
        self.warmup = d;
        self
    }

    /// Declare that each iteration of subsequent cases processes `n` work
    /// items; reports then include elements/second at the median.
    pub fn throughput_elements(mut self, n: u64) -> Self {
        self.elements = Some(n);
        self
    }

    /// Run one case: warm up, calibrate the batch size, measure, and
    /// print a one-line report. Returns the measurements.
    pub fn case<R, F: FnMut() -> R>(&mut self, name: &str, mut f: F) -> &CaseReport {
        let samples = self.env_samples.unwrap_or(self.samples).max(1);

        // Warmup: run untimed until the budget elapses (at least once),
        // keeping the duration of the last run for calibration.
        let warmup_start = Instant::now();
        let last_run = loop {
            let t = Instant::now();
            black_box(f());
            let elapsed = t.elapsed();
            if warmup_start.elapsed() >= self.warmup {
                break elapsed;
            }
        };

        // Calibration: batch enough iterations that one sample spans the
        // minimum sample time even for nanosecond-scale closures.
        let iters = if last_run >= self.min_sample_time {
            1
        } else {
            let per_iter = last_run.as_nanos().max(1);
            (self.min_sample_time.as_nanos() / per_iter).clamp(1, 1 << 24) as u64
        };

        // Measurement.
        let mut per_iter_ns = Vec::with_capacity(samples);
        for _ in 0..samples {
            let t = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            per_iter_ns.push(t.elapsed().as_nanos() as f64 / iters as f64);
        }

        let mut sorted = per_iter_ns.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("non-finite sample"));
        let median_ns = percentile_sorted(&sorted, 0.5);
        let p95_ns = percentile_sorted(&sorted, 0.95);
        let mad_ns = median_abs_deviation(&per_iter_ns);
        let cutoff = OUTLIER_SIGMAS * MAD_TO_SIGMA * mad_ns;
        let outliers = if mad_ns > 0.0 {
            per_iter_ns
                .iter()
                .filter(|&&x| (x - median_ns).abs() > cutoff)
                .count()
        } else {
            0
        };

        let report = CaseReport {
            name: name.to_string(),
            samples: per_iter_ns,
            iters_per_sample: iters,
            median_ns,
            p95_ns,
            mad_ns,
            outliers,
            elements: self.elements,
        };

        let mut line = format!(
            "{}/{:<28} median {:>10}   p95 {:>10}   ({} samples x {} iters",
            self.group,
            report.name,
            fmt_ns(report.median_ns),
            fmt_ns(report.p95_ns),
            samples,
            iters,
        );
        if report.outliers > 0 {
            let plural = if report.outliers == 1 { "" } else { "s" };
            line.push_str(&format!(", {} outlier{plural}", report.outliers));
        }
        line.push(')');
        if let Some(eps) = report.elements_per_sec() {
            line.push_str(&format!("   {:.2} Melem/s", eps / 1e6));
        }
        println!("{line}");

        self.reports.push(report);
        self.reports.last().expect("just pushed")
    }

    /// All reports collected so far, in run order.
    pub fn reports(&self) -> &[CaseReport] {
        &self.reports
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_closure_gets_batched_and_reported() {
        let mut b = Bench {
            min_sample_time: Duration::from_micros(200),
            ..Bench::new("test")
                .samples(7)
                .warmup(Duration::from_millis(1))
        };
        let r = b.case("add", || black_box(3u64) + black_box(4u64));
        assert_eq!(r.samples.len(), 7);
        assert!(r.iters_per_sample > 1, "nanosecond closure should batch");
        assert!(r.median_ns > 0.0 && r.median_ns.is_finite());
        assert!(r.p95_ns >= r.median_ns * 0.5);
        assert_eq!(b.reports().len(), 1);
    }

    #[test]
    fn slow_closure_runs_one_iter_per_sample() {
        let mut b = Bench {
            min_sample_time: Duration::from_micros(1),
            ..Bench::new("test")
                .samples(3)
                .warmup(Duration::from_micros(10))
        };
        let r = b.case("sleepish", || {
            std::thread::sleep(Duration::from_micros(300));
        });
        assert_eq!(r.iters_per_sample, 1);
        assert!(r.median_ns >= 200_000.0, "median {} ns", r.median_ns);
    }

    #[test]
    fn throughput_is_derived_from_median() {
        let mut b = Bench {
            min_sample_time: Duration::from_micros(50),
            ..Bench::new("test")
                .samples(3)
                .warmup(Duration::from_micros(10))
                .throughput_elements(1_000)
        };
        let r = b.case("count", || (0..1000u64).sum::<u64>());
        let eps = r.elements_per_sec().expect("elements declared");
        let expected = 1_000.0 / (r.median_ns * 1e-9);
        assert!((eps - expected).abs() / expected < 1e-9);
    }

    #[test]
    fn mutable_state_persists_across_iterations() {
        let mut counter = 0u64;
        let mut b = Bench {
            min_sample_time: Duration::from_micros(1),
            ..Bench::new("test")
                .samples(2)
                .warmup(Duration::from_micros(1))
        };
        b.case("count_calls", || {
            counter += 1;
            counter
        });
        assert!(counter > 2, "closure should have run warmup + samples");
    }

    #[test]
    fn fmt_ns_picks_sane_units() {
        assert_eq!(fmt_ns(12.0), "12.0 ns");
        assert_eq!(fmt_ns(12_340.0), "12.34 µs");
        assert_eq!(fmt_ns(12_340_000.0), "12.34 ms");
        assert_eq!(fmt_ns(2_500_000_000.0), "2.500 s");
    }
}
