//! Fig. 8 — the impacts of flash SSD capacity.
//!
//! Paper shape to reproduce: DLOOP < DFTL < FAST in MRT at every capacity;
//! MRT falls as capacity grows (GC is delayed); Financial2 (read-dominant)
//! shows the smallest DLOOP-vs-DFTL gap; DFTL collapses on TPC-C; DLOOP
//! has the lowest ln(SDRPP) and the request distribution evens out with
//! capacity.

use super::sweep::sweep;
use super::ExpOptions;
use crate::table::Table;
use dloop_ftl_kit::config::SsdConfig;

/// Nominal capacities of the paper's x-axis.
const CAPACITIES_GB: [u32; 5] = [4, 8, 16, 32, 64];

/// The device of Fig. 8's point at `nominal_gb`.
pub fn point(opts: &ExpOptions, nominal_gb: u32) -> SsdConfig {
    SsdConfig::paper_default().with_capacity_gb(opts.scaled_capacity(nominal_gb))
}

/// Run the Fig. 8 sweep.
pub fn run(opts: &ExpOptions) -> Vec<Table> {
    let points: Vec<(String, SsdConfig)> = CAPACITIES_GB
        .iter()
        .map(|&gb| (format!("{gb}GB"), point(opts, gb)))
        .collect();
    sweep(
        opts,
        &format!("Fig. 8 — SSD capacity (scale 1/{})", opts.scale),
        "capacity",
        &points,
    )
}
