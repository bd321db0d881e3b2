//! Ablations of DLOOP's design choices.
//!
//! | variant | isolates |
//! |---|---|
//! | DLOOP | the full scheme |
//! | DLOOP -copyback | GC moves over the bus — the §III.A claim |
//! | DLOOP -spread | translation pages clustered on plane 0 — §II.B |
//! | DLOOP die-serial | no plane-level parallelism inside a die — §II.C |
//! | DLOOP bg-gc | GC deferred into idle gaps |
//! | IDEAL | DLOOP with a CMT that holds every entry: bounds demand-caching overhead |

use super::ExpOptions;
use crate::runner::{ideal_config, run_grid, RunSpec};
use crate::table::{f, f2, Table};
use dloop_ftl_kit::config::{FtlKind, SsdConfig};
use dloop_workloads::WorkloadProfile;

/// The ablation variants: (label, kind, config transformer).
fn variants(base: &SsdConfig) -> Vec<(&'static str, FtlKind, SsdConfig)> {
    let mut no_cb = base.clone();
    no_cb.copyback_enabled = false;
    let mut no_spread = base.clone();
    no_spread.spread_translation = false;
    let mut die_serial = base.clone();
    die_serial.die_serialized = true;
    let mut bg = base.clone();
    bg.background_gc = true;
    vec![
        ("DLOOP", FtlKind::Dloop, base.clone()),
        ("DLOOP -copyback", FtlKind::Dloop, no_cb),
        ("DLOOP -spread", FtlKind::Dloop, no_spread),
        ("DLOOP die-serial", FtlKind::Dloop, die_serial),
        ("DLOOP bg-gc", FtlKind::Dloop, bg),
        ("DFTL", FtlKind::Dftl, base.clone()),
        ("IDEAL", FtlKind::Dloop, ideal_config(base)),
    ]
}

/// Run the ablation grid on the two most telling workloads, against an
/// aged (80% pre-filled) device of 4 GB / scale so GC economics are
/// visible.
pub fn run(opts: &ExpOptions) -> Vec<Table> {
    let base = SsdConfig::paper_default().with_capacity_gb(opts.scaled_capacity(4));
    let vars = variants(&base);
    let profiles = [
        opts.scaled_profile(WorkloadProfile::financial1()),
        opts.scaled_profile(WorkloadProfile::tpcc()),
    ];

    let mut specs = Vec::new();
    for profile in &profiles {
        for (_, kind, config) in &vars {
            specs.push(RunSpec {
                config: config.clone(),
                kind: *kind,
                profile: profile.clone(),
                max_requests: opts.requests_for(profile).min(250_000),
                seed: opts.seed,
                fill_fraction: opts.fill_fraction.max(0.8),
            });
        }
    }
    let reports = run_grid(specs, opts.workers, |r| r);

    let mut table = Table::new(
        format!(
            "Ablations at {} GB, 80% pre-filled (scale 1/{})",
            base.capacity_gb, opts.scale
        ),
        &[
            "trace",
            "variant",
            "MRT ms",
            "ln(SDRPP)",
            "WAF",
            "GCs",
            "copyback %",
            "parity skips",
        ],
    );
    let mut it = reports.iter();
    for profile in &profiles {
        for (label, _, _) in &vars {
            let r = it.next().expect("grid underrun");
            table.row(vec![
                profile.name.to_string(),
                label.to_string(),
                f(r.mean_response_time_ms()),
                f2(r.ln_sdrpp()),
                f2(r.waf()),
                r.ftl.gc_invocations.to_string(),
                f2(r.copyback_fraction() * 100.0),
                r.ftl.parity_skips.to_string(),
            ]);
        }
    }
    vec![table]
}
