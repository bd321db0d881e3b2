//! Shared machinery for the Fig. 8/9/10 parameter sweeps: each figure is
//! {5 traces} × {sweep values} × {DLOOP, DFTL, FAST}, reported as one
//! mean-response-time table and one ln(SDRPP) table. Every figure cell's
//! spec comes from [`spec_for`], and [`paper_grid`] reads the cells
//! through the options' cell store, so `headline` and the claims read the
//! figures' own cells.

use super::ExpOptions;
use crate::runner::{Cell, RunSpec};
use crate::table::{f, f2, Table};
use dloop_ftl_kit::config::{FtlKind, SsdConfig};
use dloop_workloads::WorkloadProfile;

/// The options' run of the already scaled `profile` under `kind` on
/// `config`: their request count, seed and fill.
pub fn spec_for(
    opts: &ExpOptions,
    config: &SsdConfig,
    kind: FtlKind,
    profile: &WorkloadProfile,
) -> RunSpec {
    RunSpec {
        config: config.clone(),
        kind,
        profile: profile.clone(),
        max_requests: opts.requests_for(profile),
        seed: opts.seed,
        fill_fraction: opts.fill_fraction,
    }
}

/// The paper's five traces × `configs` × {DLOOP, DFTL, FAST}: each scaled
/// trace with its `[config][FTL]` cells, read through the cell store.
pub fn paper_grid(
    opts: &ExpOptions,
    configs: &[SsdConfig],
) -> Vec<(WorkloadProfile, Vec<[Cell; 3]>)> {
    let profiles: Vec<WorkloadProfile> = WorkloadProfile::all_paper()
        .into_iter()
        .map(|p| opts.scaled_profile(p))
        .collect();
    let specs: Vec<RunSpec> = profiles
        .iter()
        .flat_map(|p| configs.iter().map(move |c| (p, c)))
        .flat_map(|(p, c)| FtlKind::paper_set().map(|kind| spec_for(opts, c, kind, p)))
        .collect();
    let cells = opts.cells.get(&specs, opts.workers);
    let per_trace = cells.chunks(3 * configs.len());
    profiles
        .into_iter()
        .zip(per_trace)
        .map(|(p, row)| (p, row.chunks(3).map(|c| [c[0], c[1], c[2]]).collect()))
        .collect()
}

/// Run one sweep. `points` pairs a display label with the configuration
/// for that sweep value.
pub fn sweep(
    opts: &ExpOptions,
    title: &str,
    axis: &str,
    points: &[(String, SsdConfig)],
) -> Vec<Table> {
    let configs: Vec<SsdConfig> = points.iter().map(|(_, c)| c.clone()).collect();
    let header: Vec<&str> = {
        let mut h = vec!["trace", axis];
        h.extend(FtlKind::paper_set().iter().map(|k| k.name()));
        h
    };
    let mut mrt = Table::new(format!("{title} — mean response time (ms)"), &header);
    let mut sdrpp = Table::new(format!("{title} — ln(SDRPP)"), &header);
    for (profile, row) in paper_grid(opts, &configs) {
        for ((label, _), cells) in points.iter().zip(row) {
            let mut mrt_row = vec![profile.name.to_string(), label.clone()];
            let mut sd_row = mrt_row.clone();
            mrt_row.extend(cells.iter().map(|c| f(c.mrt_ms)));
            sd_row.extend(cells.iter().map(|c| f2(c.ln_sdrpp)));
            mrt.row(mrt_row);
            sdrpp.row(sd_row);
        }
    }
    vec![mrt, sdrpp]
}
