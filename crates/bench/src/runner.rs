//! One simulation run: configuration → FTL → device → trace → report.
//! Plus a work-stealing parallel grid executor (host threads only — each
//! simulation itself stays single-threaded and deterministic), and the
//! [`CellStore`] through which the paper's figures, headline and claims
//! share their runs.

use dloop::DloopFtl;
use dloop_baselines::{DftlFtl, FastFtl};
use dloop_ftl_kit::config::{FtlKind, SsdConfig};
use dloop_ftl_kit::device::{RunConfig, SsdDevice};
use dloop_ftl_kit::ftl::Ftl;
use dloop_ftl_kit::metrics::RunReport;
use dloop_workloads::synth::{sequential_fill, WorkloadProfile};
use std::collections::{HashMap, VecDeque};
use std::sync::Mutex;

/// Construct an FTL instance of the requested kind.
pub fn build_ftl(kind: FtlKind, config: &SsdConfig) -> Box<dyn Ftl> {
    match kind {
        FtlKind::Dloop => Box::new(DloopFtl::new(config)),
        FtlKind::Dftl => Box::new(DftlFtl::new(config)),
        FtlKind::Fast => Box::new(FastFtl::new(config)),
    }
}

/// The ablation's IDEAL bound: `config` with a CMT that holds every
/// entry, so DLOOP over it never demand-caches a mapping.
pub fn ideal_config(config: &SsdConfig) -> SsdConfig {
    SsdConfig {
        cmt_capacity: config.geometry().user_pages() as usize,
        ..config.clone()
    }
}

/// The FTL cases the integration tests sweep, as `(label, kind, config)`
/// like the ablation's rows: the paper's three schemes over `config`, and
/// IDEAL ([`ideal_config`]).
pub fn ftl_cases(config: &SsdConfig) -> [(&'static str, FtlKind, SsdConfig); 4] {
    [
        ("DLOOP", FtlKind::Dloop, config.clone()),
        ("DFTL", FtlKind::Dftl, config.clone()),
        ("FAST", FtlKind::Fast, config.clone()),
        ("IDEAL", FtlKind::Dloop, ideal_config(config)),
    ]
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

/// Run a batch of specs on up to `workers` host threads, reducing each
/// report with `reduce` on the worker that ran it (so a report lives only
/// until its worker takes the next spec), preserving the input order in
/// the output.
///
/// Work-stealing over a shared queue: each scoped `std::thread` pops the
/// next spec until the queue drains. `std::thread::scope` joins every
/// worker before returning and re-raises any worker panic, so no
/// third-party scoped-thread crate is needed.
pub fn run_grid<T: Send>(
    specs: Vec<RunSpec>,
    workers: usize,
    reduce: impl Fn(RunReport) -> T + Sync,
) -> Vec<T> {
    let n = specs.len();
    let queue: Mutex<VecDeque<(usize, RunSpec)>> =
        Mutex::new(specs.into_iter().enumerate().collect());
    let results: Mutex<Vec<Option<T>>> = Mutex::new((0..n).map(|_| None).collect());
    let workers = workers.max(1).min(n.max(1));
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let job = queue.lock().expect("queue poisoned").pop_front();
                let Some((idx, spec)) = job else { break };
                let reduced = reduce(run_spec(&spec));
                results.lock().expect("results poisoned")[idx] = Some(reduced);
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

/// The two numbers the paper's figures, headline and claims read from one
/// run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cell {
    /// [`RunReport::mean_response_time_ms`].
    pub mrt_ms: f64,
    /// [`RunReport::ln_sdrpp`].
    pub ln_sdrpp: f64,
}

/// A per-process memo from [`RunSpec`] to [`Cell`], so every view that
/// reads the same run shares one simulation. The key is the spec's
/// `Debug` rendering: it names every field, and `f64`'s `Debug`
/// round-trips, so two keys are equal exactly when the specs are.
#[derive(Debug, Default)]
pub struct CellStore(Mutex<HashMap<String, Cell>>);

impl CellStore {
    /// The cells of `specs`, in order. Only the specs not yet stored run,
    /// on up to `workers` host threads.
    pub fn get(&self, specs: &[RunSpec], workers: usize) -> Vec<Cell> {
        let keys: Vec<String> = specs.iter().map(|s| format!("{s:?}")).collect();
        let (mut miss_keys, mut misses) = (Vec::new(), Vec::new());
        {
            let cells = self.0.lock().expect("cell store poisoned");
            for (key, spec) in keys.iter().zip(specs) {
                if !cells.contains_key(key) && !miss_keys.contains(key) {
                    miss_keys.push(key.clone());
                    misses.push(spec.clone());
                }
            }
        }
        let fresh = run_grid(misses, workers, |r| Cell {
            mrt_ms: r.mean_response_time_ms(),
            ln_sdrpp: r.ln_sdrpp(),
        });
        let mut cells = self.0.lock().expect("cell store poisoned");
        cells.extend(miss_keys.into_iter().zip(fresh));
        keys.iter().map(|k| cells[k]).collect()
    }
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
        for (label, kind, config) in ftl_cases(&SsdConfig::micro_gc_test()) {
            let report = RunSpec {
                config,
                ..spec(kind)
            }
            .run();
            assert_eq!(report.requests_completed, 2_000, "{label}");
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
    fn cell_store_runs_each_spec_once() {
        let store = CellStore::default();
        let (dloop, dftl) = (spec(FtlKind::Dloop), spec(FtlKind::Dftl));
        let cells = store.get(&[dloop.clone(), dftl.clone(), dloop.clone()], 2);
        assert_eq!(
            store.0.lock().unwrap().len(),
            2,
            "a repeated spec runs once"
        );
        assert_eq!(cells[0], cells[2]);
        let report = dloop.run();
        assert_eq!(cells[0].mrt_ms, report.mean_response_time_ms());
        assert_eq!(cells[0].ln_sdrpp, report.ln_sdrpp());
        let mut other_seed = dftl.clone();
        other_seed.seed += 1;
        let again = store.get(&[dftl, other_seed], 1);
        assert_eq!(again[0], cells[1], "a stored spec reads back its cell");
        assert_eq!(
            store.0.lock().unwrap().len(),
            3,
            "any field change is a miss"
        );
    }

    #[test]
    fn grid_preserves_order_and_matches_serial() {
        let specs = vec![spec(FtlKind::Dloop), spec(FtlKind::Dftl)];
        let parallel = run_grid(specs.clone(), 2, |r| r);
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
