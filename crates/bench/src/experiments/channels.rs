//! §II.B: "The channel-level parallelism can offer the most optimized
//! performance … Unfortunately, increasing the number of channels
//! substantially increases the hardware cost." This experiment quantifies
//! that trade-off: DLOOP's mean response time as channel count grows
//! (total planes growing with it), next to the zero-cost alternative the
//! paper advocates — more planes per die on a fixed channel budget.

use super::ExpOptions;
use crate::runner::{run_grid, RunSpec};
use crate::table::{f, Table};
use dloop_ftl_kit::config::{FtlKind, SsdConfig};
use dloop_workloads::WorkloadProfile;

/// Channel counts swept.
const CHANNELS: [u32; 4] = [2, 4, 8, 16];

/// Run the channel-count sweep on the intensive TPC-C profile.
pub fn run(opts: &ExpOptions) -> Vec<Table> {
    let profile = opts.scaled_profile(WorkloadProfile::tpcc());
    let mut specs = Vec::new();
    let mut labels = Vec::new();

    // Axis A: more channels (paper: costly) at 4 planes/die.
    for &ch in &CHANNELS {
        let mut config = SsdConfig::paper_default().with_capacity_gb(opts.scaled_capacity(8));
        config.channels = ch;
        labels.push(format!("{ch} channels x 8 planes"));
        specs.push(RunSpec {
            config,
            kind: FtlKind::Dloop,
            profile: profile.clone(),
            max_requests: opts.requests_for(&profile).min(120_000),
            seed: opts.seed,
            fill_fraction: opts.fill_fraction,
        });
    }
    // Axis B: same plane counts reached with a fixed 2-channel budget by
    // deepening planes per die (paper: free).
    for &ch in &CHANNELS {
        let mut config = SsdConfig::paper_default().with_capacity_gb(opts.scaled_capacity(8));
        config.channels = 2;
        config.planes_per_die = ch * 2; // 2ch x 2die x (2 ch)*2 = same total planes
        labels.push(format!("2 channels x {} planes", ch * 16 / 2));
        specs.push(RunSpec {
            config,
            kind: FtlKind::Dloop,
            profile: profile.clone(),
            max_requests: opts.requests_for(&profile).min(120_000),
            seed: opts.seed,
            fill_fraction: opts.fill_fraction,
        });
    }
    let reports = run_grid(specs, opts.workers, |r| r);

    let mut table = Table::new(
        "SII.B - channel count vs plane depth (TPC-C, DLOOP)",
        &[
            "configuration",
            "total planes",
            "MRT ms",
            "p99 ms",
            "max chan util %",
        ],
    );
    for (label, r) in labels.iter().zip(&reports) {
        table.row(vec![
            label.clone(),
            r.plane_request_counts.len().to_string(),
            f(r.mean_response_time_ms()),
            f(r.response_percentile_ms(0.99)),
            f(r.max_channel_utilisation() * 100.0),
        ]);
    }
    vec![table]
}
