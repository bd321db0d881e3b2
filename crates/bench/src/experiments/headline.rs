//! The paper's headline claim (§I, §V.B): *"we observe an average 57.8%
//! and 85.5% improvement in mean response time on a 64 GB flash SSD
//! compared with DFTL and FAST, respectively"* — and at 4 GB, 70 % / 90 %.

use super::ExpOptions;
use crate::runner::{run_grid, RunSpec};
use crate::table::{f, f2, Table};
use dloop_ftl_kit::config::{FtlKind, SsdConfig};
use dloop_workloads::WorkloadProfile;

/// Improvement of `ours` over `baseline` in percent.
fn improvement_pct(ours: f64, baseline: f64) -> f64 {
    if baseline <= 0.0 {
        0.0
    } else {
        (baseline - ours) / baseline * 100.0
    }
}

/// Run the headline comparison at one nominal capacity.
fn run_at(opts: &ExpOptions, nominal_gb: u32) -> (Table, f64, f64) {
    let config = SsdConfig::paper_default().with_capacity_gb(opts.scaled_capacity(nominal_gb));
    let kinds = FtlKind::paper_set();
    let profiles: Vec<WorkloadProfile> = WorkloadProfile::all_paper()
        .into_iter()
        .map(|p| opts.scaled_profile(p))
        .collect();
    let mut specs = Vec::new();
    for profile in &profiles {
        for kind in kinds {
            specs.push(RunSpec {
                config: config.clone(),
                kind,
                profile: profile.clone(),
                max_requests: opts.requests_for(profile),
                seed: opts.seed,
                fill_fraction: opts.fill_fraction,
            });
        }
    }
    let reports = run_grid(specs, opts.workers);

    let mut table = Table::new(
        format!(
            "Headline — MRT at {nominal_gb} GB (scale 1/{}) and DLOOP's improvement",
            opts.scale
        ),
        &[
            "trace",
            "DLOOP ms",
            "DFTL ms",
            "FAST ms",
            "vs DFTL %",
            "vs FAST %",
        ],
    );
    let mut sum_dftl = 0.0;
    let mut sum_fast = 0.0;
    for (i, profile) in profiles.iter().enumerate() {
        let d = reports[i * 3].mean_response_time_ms();
        let t = reports[i * 3 + 1].mean_response_time_ms();
        let fa = reports[i * 3 + 2].mean_response_time_ms();
        let imp_d = improvement_pct(d, t);
        let imp_f = improvement_pct(d, fa);
        sum_dftl += imp_d;
        sum_fast += imp_f;
        table.row(vec![
            profile.name.to_string(),
            f(d),
            f(t),
            f(fa),
            f2(imp_d),
            f2(imp_f),
        ]);
    }
    let avg_dftl = sum_dftl / profiles.len() as f64;
    let avg_fast = sum_fast / profiles.len() as f64;
    table.row(vec![
        "AVERAGE".to_string(),
        String::new(),
        String::new(),
        String::new(),
        f2(avg_dftl),
        f2(avg_fast),
    ]);
    (table, avg_dftl, avg_fast)
}

/// Run the 64 GB headline plus the 4 GB variant the paper quotes.
pub fn run(opts: &ExpOptions) -> Vec<Table> {
    let (t64, d64, f64_) = run_at(opts, 64);
    let (t4, d4, f4) = run_at(opts, 4);
    println!(
        "paper: 64GB avg improvement 57.8% (DFTL) / 85.5% (FAST); measured {d64:.1}% / {f64_:.1}%"
    );
    println!("paper:  4GB improvement ~70% (DFTL) / ~90% (FAST); measured {d4:.1}% / {f4:.1}%");
    vec![t64, t4]
}
