//! The paper's experiments, one module per table/figure.
//!
//! | module | regenerates |
//! |---|---|
//! | [`params`] | Table I (simulation parameters) |
//! | [`traces`] | Table II (trace statistics, from the synthetic generators) |
//! | [`copyback`] | §III.A copy-back vs inter-plane copy timing |
//! | [`fig8`] | Fig. 8 — MRT and ln(SDRPP) vs SSD capacity |
//! | [`fig9`] | Fig. 9 — MRT and ln(SDRPP) vs page size |
//! | [`fig10`] | Fig. 10 — MRT and ln(SDRPP) vs extra blocks |
//! | [`headline`] | §I/§V.B headline (57.8 % / 85.5 % at 64 GB): a view over [`fig8`]'s 64 GB and 4 GB cells |
//! | [`ablation`] | design-choice ablations |
//! | [`striping`] | §II.C motivation: throughput vs plane-level concurrency |
//! | [`channels`] | §II.B trade-off: channel count vs plane depth |
//! | [`tracecmd`] | op-level flight-recorder artifacts (Chrome trace, utilization, attribution) |
//! | [`host`] | host-stack coalescing and dirty-ratio sweeps through `dloop-host` (beyond the paper) |
//!
//! Absolute milliseconds differ from the paper (synthetic workloads, scaled
//! devices); the *shape* — orderings, trends, crossovers — is the target.

pub mod ablation;
pub mod channels;
pub mod copyback;
pub mod fig10;
pub mod fig8;
pub mod fig9;
pub mod headline;
pub mod host;
pub mod params;
pub mod striping;
pub mod sweep;
pub mod tracecmd;
pub mod traces;

use crate::runner::CellStore;
use crate::table::Table;
use dloop_ftl_kit::device::{ReplayMode, DEFAULT_NCQ_DEPTH};
use dloop_ftl_kit::sched::QosSpec;
use std::path::PathBuf;
use std::sync::Arc;

/// Replay admission policy selected on the command line (`--mode`). Kept
/// separate from [`ReplayMode`] so the flag and the queue depth
/// (`--depth`) can be given in either order; [`ExpOptions::replay_mode`]
/// combines them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceMode {
    /// Open arrivals (the default, and the mode the paper's figures use).
    Open,
    /// FlashSim's FIFO-with-skipping priority list.
    Gated,
    /// fio-style bounded host queue.
    Closed,
    /// NCQ-style bounded reordering.
    Ncq,
}

impl TraceMode {
    /// Parse a `--mode` value.
    pub fn parse(s: &str) -> Option<TraceMode> {
        match s {
            "open" => Some(TraceMode::Open),
            "gated" => Some(TraceMode::Gated),
            "closed" => Some(TraceMode::Closed),
            "ncq" => Some(TraceMode::Ncq),
            _ => None,
        }
    }

    /// The flag spelling (for output labels).
    pub fn name(self) -> &'static str {
        match self {
            TraceMode::Open => "open",
            TraceMode::Gated => "gated",
            TraceMode::Closed => "closed",
            TraceMode::Ncq => "ncq",
        }
    }
}

/// Options shared by every experiment.
#[derive(Debug, Clone)]
pub struct ExpOptions {
    /// Divide the paper's device capacities (and workload footprints) by
    /// this factor so runs fit laptop memory/time budgets. 1 = paper size.
    pub scale: u32,
    /// Max requests per run. 0 = automatic: the profile's full request
    /// count divided by `scale`, preserving the paper's writes-to-capacity
    /// ratio (FAST's log region and the GC pressure both depend on it).
    pub max_requests: u64,
    /// Workload seed.
    pub seed: u64,
    /// Host worker threads for the grid.
    pub workers: usize,
    /// Where to drop CSVs (None = stdout only).
    pub out_dir: Option<PathBuf>,
    /// Pre-fill fraction (device aging) before measurement.
    pub fill_fraction: f64,
    /// Replay admission policy (`--mode`; currently honoured by the
    /// `trace` subcommand — the figure experiments replay open-arrival
    /// like the paper).
    pub mode: TraceMode,
    /// Host queue depth for the bounded modes (`--depth`).
    pub queue_depth: usize,
    /// The cells already run in this process, shared by every command
    /// (and every clone of these options).
    pub cells: Arc<CellStore>,
}

impl Default for ExpOptions {
    fn default() -> Self {
        ExpOptions {
            scale: 4,
            max_requests: 0,
            seed: 42,
            workers: dloop_ftl_kit::host_parallelism(),
            out_dir: Some(PathBuf::from("results")),
            fill_fraction: 0.0,
            mode: TraceMode::Open,
            queue_depth: DEFAULT_NCQ_DEPTH,
            cells: Arc::default(),
        }
    }
}

impl ExpOptions {
    /// The [`ReplayMode`] the `--mode`/`--depth` flags select.
    pub fn replay_mode(&self) -> ReplayMode {
        match self.mode {
            TraceMode::Open => ReplayMode::Open,
            TraceMode::Gated => ReplayMode::Gated,
            TraceMode::Closed => ReplayMode::Closed {
                queue_depth: self.queue_depth,
            },
            TraceMode::Ncq => ReplayMode::Qos {
                queue_depth: self.queue_depth,
                policy: QosSpec::Ncq,
            },
        }
    }

    /// Nominal paper capacity → simulated capacity under `scale`.
    pub fn scaled_capacity(&self, nominal_gb: u32) -> u32 {
        (nominal_gb / self.scale).max(1)
    }

    /// Scale a workload profile's footprint to match the device scaling.
    pub fn scaled_profile(
        &self,
        mut p: dloop_workloads::WorkloadProfile,
    ) -> dloop_workloads::WorkloadProfile {
        p.footprint_bytes = (p.footprint_bytes / self.scale as u64).max(1 << 28);
        p
    }

    /// Request cap for one profile under these options.
    pub fn requests_for(&self, p: &dloop_workloads::WorkloadProfile) -> u64 {
        if self.max_requests == 0 {
            (p.total_requests / self.scale as u64).max(10_000)
        } else {
            self.max_requests
        }
    }

    /// Print tables and persist CSVs.
    pub fn emit(&self, tables: &[Table], slug_prefix: &str) {
        for (i, t) in tables.iter().enumerate() {
            println!("{}", t.render());
            if let Some(dir) = &self.out_dir {
                let slug = format!("{slug_prefix}_{i}");
                if let Err(e) = t.write_csv(dir, &slug) {
                    eprintln!("warning: could not write {slug}.csv: {e}");
                }
            }
        }
    }
}
