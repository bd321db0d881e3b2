//! Graceful degradation under media faults: how each FTL's response time,
//! write amplification and reliability counters move as the raw bit-error
//! rate rises (the wear/retention slopes, program- and erase-fail rates of
//! [`FaultConfig::light`] ride along unchanged — the x-axis is BER).
//!
//! Expected shape: MRT degrades gracefully while the ECC ladder absorbs
//! errors (read-retry steps cost microseconds, not milliseconds), then
//! uncorrectable reads appear at the top of the sweep; DLOOP keeps its
//! lead over DFTL and FAST because recovery traffic (re-programs, GC of
//! doomed blocks) stays plane-local. The fault plan is a pure function of
//! `(seed, op, address)`, so every cell is exactly reproducible.

use super::sweep::spec_for;
use super::ExpOptions;
use crate::runner::run_grid;
use crate::table::{f, Table};
use dloop_ftl_kit::config::{FtlKind, SsdConfig};
use dloop_nand::FaultConfig;
use dloop_workloads::WorkloadProfile;

/// Raw bit-error rates swept. 0 is the fault-free reference point (a null
/// plan: the device behaves bit-identically to the pre-fault simulator).
const BERS: [f64; 5] = [0.0, 1e-5, 1e-4, 5e-4, 1e-3];

/// The schemes compared: the paper set plus the SRAM page-map bound.
pub const KINDS: [FtlKind; 4] = [
    FtlKind::Dloop,
    FtlKind::Dftl,
    FtlKind::Fast,
    FtlKind::IdealPageMap,
];

fn fault_for(ber: f64, seed: u64) -> FaultConfig {
    if ber == 0.0 {
        return FaultConfig::none();
    }
    let mut fault = FaultConfig::light(seed ^ 0xFA01_75EE);
    fault.base_ber = ber;
    fault
}

/// Run the BER sweep.
pub fn run(opts: &ExpOptions) -> Vec<Table> {
    let profile = opts.scaled_profile(WorkloadProfile::financial1());
    let points: Vec<(String, SsdConfig)> = BERS
        .iter()
        .map(|&ber| {
            (
                format!("{ber:.0e}"),
                SsdConfig::paper_default()
                    .with_capacity_gb(opts.scaled_capacity(4))
                    .with_fault(fault_for(ber, opts.seed)),
            )
        })
        .collect();

    let specs = points
        .iter()
        .flat_map(|(_, config)| KINDS.map(|kind| spec_for(opts, config, kind, &profile)))
        .collect();
    let reports = run_grid(specs, opts.workers, |r| r);

    let header: Vec<&str> = {
        let mut h = vec!["ber"];
        h.extend(KINDS.iter().map(|k| k.name()));
        h
    };
    let title = format!("Faults — {} (scale 1/{})", profile.name, opts.scale);
    let mut mrt = Table::new(format!("{title} — mean response time (ms)"), &header);
    let mut waf = Table::new(format!("{title} — write amplification"), &header);
    let mut rel = Table::new(
        format!("{title} — reliability"),
        &[
            "ber",
            "ftl",
            "retry_frac",
            "uncorrectable",
            "recovered_programs",
            "grown_bad",
            "factory_bad",
            "retry_ms",
        ],
    );

    let mut it = reports.iter();
    for (label, _) in &points {
        let mut mrt_row = vec![label.clone()];
        let mut waf_row = mrt_row.clone();
        for kind in KINDS {
            let r = it.next().expect("report grid underrun");
            mrt_row.push(f(r.mean_response_time_ms()));
            waf_row.push(f(r.waf()));
            rel.row(vec![
                label.clone(),
                kind.name().to_string(),
                format!("{:.5}", r.retry_read_fraction()),
                r.media.uncorrectable_reads.to_string(),
                r.media.program_fails.to_string(),
                r.media.grown_bad_blocks.to_string(),
                r.media.factory_bad_blocks.to_string(),
                format!("{:.3}", r.retry_ns as f64 / 1e6),
            ]);
        }
        mrt.row(mrt_row);
        waf.row(waf_row);
    }
    vec![mrt, waf, rel]
}
