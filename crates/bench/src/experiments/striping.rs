//! The paper's motivation (§II.C, citing Dirik & Jacob): "increasing the
//! level of concurrency by striping across the planes within the flash
//! device could increase throughput substantially". This experiment
//! measures exactly that on our hardware model: sequential-write
//! throughput as plane-level concurrency grows, plus the cost of the
//! die-serialised ablation.

use crate::runner::{run_grid, RunSpec};
use crate::table::{f, f2, Table};
use dloop_ftl_kit::config::{FtlKind, SsdConfig};
use dloop_workloads::synth::WorkloadProfile;

use super::ExpOptions;

/// Planes-per-die values swept (total planes = 16 × this).
const PLANES_PER_DIE: [u32; 4] = [1, 2, 4, 8];

/// Run the striping sweep: a sequential-write-heavy workload against
/// devices with growing plane counts, DLOOP vs DFTL.
pub fn run(opts: &ExpOptions) -> Vec<Table> {
    // A sequential, large-request workload shows striping best.
    let mut profile = WorkloadProfile::build();
    profile.write_ratio = 0.9;
    profile.seq_prob = 0.9;
    profile.rate_per_sec = 2000.0;
    let profile = opts.scaled_profile(profile);

    let mut specs = Vec::new();
    let mut labels = Vec::new();
    for &ppd in &PLANES_PER_DIE {
        for kind in [FtlKind::Dloop, FtlKind::Dftl] {
            let mut config = SsdConfig::paper_default().with_capacity_gb(opts.scaled_capacity(8));
            config.planes_per_die = ppd;
            labels.push((ppd, kind));
            specs.push(RunSpec {
                config,
                kind,
                profile: profile.clone(),
                max_requests: opts.max_requests.clamp(30_000, 100_000),
                seed: opts.seed,
                fill_fraction: 0.0,
            });
        }
    }
    let reports = run_grid(specs, opts.workers, |r| r);

    let mut table = Table::new(
        "Motivation (SII.C) — plane-level concurrency vs sequential-write performance",
        &[
            "planes/die",
            "total planes",
            "FTL",
            "MRT ms",
            "p99 ms",
            "device-seconds",
        ],
    );
    for ((ppd, kind), r) in labels.iter().zip(&reports) {
        table.row(vec![
            ppd.to_string(),
            (16 * ppd).to_string(),
            kind.name().to_string(),
            f(r.mean_response_time_ms()),
            f(r.response_percentile_ms(0.99)),
            f2(r.sim_end.as_secs_f64()),
        ]);
    }
    vec![table]
}
