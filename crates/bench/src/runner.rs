//! One simulation run: configuration → FTL → device → trace → report.
//! Plus a work-stealing parallel grid executor (host threads only — each
//! simulation itself stays single-threaded and deterministic).

use dloop::{DloopFtl, HotConfig, HotPlaneDloopFtl};
use dloop_baselines::{DftlFtl, FastFtl, IdealPageMapFtl};
use dloop_ftl_kit::config::{FtlKind, SsdConfig};
use dloop_ftl_kit::device::{RunConfig, SsdDevice};
use dloop_ftl_kit::ftl::Ftl;
use dloop_ftl_kit::metrics::RunReport;
use dloop_workloads::synth::{sequential_fill, WorkloadProfile};
use std::collections::VecDeque;
use std::sync::Mutex;

/// Construct an FTL instance of the requested kind.
pub fn build_ftl(kind: FtlKind, config: &SsdConfig) -> Box<dyn Ftl> {
    match kind {
        FtlKind::Dloop => Box::new(DloopFtl::new(config)),
        FtlKind::DloopHot => Box::new(HotPlaneDloopFtl::new(config, HotConfig::default())),
        FtlKind::Dftl => Box::new(DftlFtl::new(config)),
        FtlKind::Fast => Box::new(FastFtl::new(config)),
        FtlKind::IdealPageMap => Box::new(IdealPageMapFtl::new(config)),
    }
}

/// A fully specified experiment run.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Device + FTL configuration.
    pub config: SsdConfig,
    /// FTL scheme.
    pub kind: FtlKind,
    /// Workload profile.
    pub profile: WorkloadProfile,
    /// Cap on generated requests (scaling knob).
    pub max_requests: u64,
    /// Workload seed.
    pub seed: u64,
    /// Fraction of the user space sequentially written (and discarded
    /// from measurement) before the trace runs — device aging.
    pub fill_fraction: f64,
}

impl RunSpec {
    /// Execute the run.
    pub fn run(&self) -> RunReport {
        run_spec(self)
    }
}

/// Execute one run spec.
pub fn run_spec(spec: &RunSpec) -> RunReport {
    let geometry = spec.config.geometry();
    let trace = spec
        .profile
        .generate_scaled(spec.seed, geometry.page_size, spec.max_requests);
    let mut device = SsdDevice::new(spec.config.clone(), build_ftl(spec.kind, &spec.config));
    if spec.fill_fraction > 0.0 {
        let fill = sequential_fill(geometry.user_pages(), spec.fill_fraction, 64);
        device.warm_up(&fill.requests);
    }
    device.run_with(&trace.requests, RunConfig::open())
}

/// Run a batch of specs on up to `workers` host threads, preserving the
/// input order in the output.
///
/// Work-stealing over a shared queue: each scoped `std::thread` pops the
/// next spec until the queue drains. `std::thread::scope` joins every
/// worker before returning and re-raises any worker panic, so no
/// third-party scoped-thread crate is needed.
pub fn run_grid(specs: Vec<RunSpec>, workers: usize) -> Vec<RunReport> {
    let n = specs.len();
    let queue: Mutex<VecDeque<(usize, RunSpec)>> =
        Mutex::new(specs.into_iter().enumerate().collect());
    let results: Mutex<Vec<Option<RunReport>>> = Mutex::new(vec![None; n]);
    let workers = workers.max(1).min(n.max(1));
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let job = queue.lock().expect("queue poisoned").pop_front();
                let Some((idx, spec)) = job else { break };
                let report = run_spec(&spec);
                results.lock().expect("results poisoned")[idx] = Some(report);
            });
        }
    });
    results
        .into_inner()
        .expect("results poisoned")
        .into_iter()
        .map(|r| r.expect("missing result"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dloop_ftl_kit::config::FtlKind;

    fn spec(kind: FtlKind) -> RunSpec {
        RunSpec {
            config: SsdConfig::micro_gc_test(),
            kind,
            profile: WorkloadProfile::financial1(),
            max_requests: 2_000,
            seed: 7,
            fill_fraction: 0.0,
        }
    }

    #[test]
    fn every_kind_runs() {
        for kind in [
            FtlKind::Dloop,
            FtlKind::DloopHot,
            FtlKind::Dftl,
            FtlKind::Fast,
            FtlKind::IdealPageMap,
        ] {
            let report = spec(kind).run();
            assert_eq!(report.requests_completed, 2_000, "{kind:?}");
            assert_eq!(report.ftl_name, kind.name());
        }
    }

    #[test]
    fn fill_ages_the_device() {
        let mut s = spec(FtlKind::Dloop);
        s.fill_fraction = 0.5;
        let aged = s.run();
        s.fill_fraction = 0.0;
        let fresh = s.run();
        // Aging consumes free blocks, so GC starts earlier.
        assert!(aged.ftl.gc_invocations >= fresh.ftl.gc_invocations);
    }

    #[test]
    fn grid_preserves_order_and_matches_serial() {
        let specs = vec![spec(FtlKind::Dloop), spec(FtlKind::Dftl)];
        let parallel = run_grid(specs.clone(), 2);
        let serial: Vec<_> = specs.iter().map(run_spec).collect();
        for (p, s) in parallel.iter().zip(&serial) {
            assert_eq!(p.ftl_name, s.ftl_name);
            assert_eq!(
                p.mean_response_time_ms(),
                s.mean_response_time_ms(),
                "parallel execution must not change results"
            );
        }
    }
}
