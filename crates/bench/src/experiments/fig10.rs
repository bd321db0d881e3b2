//! Fig. 10 — the impacts of the number of extra blocks (3-10 % of data
//! blocks, fixed capacity).
//!
//! Paper shape: DLOOP best everywhere and nearly flat; FAST improves with
//! more extra blocks (a bigger log region defers merges); DFTL's
//! Financial1 MRT *worsens* from 7 %→10 % (its plane-0 mapping blocks get
//! hotter); DLOOP's SDRPP stays lowest.

use super::sweep::sweep;
use super::ExpOptions;
use crate::table::Table;
use dloop_ftl_kit::config::SsdConfig;

/// Extra-block percentages of the paper's x-axis.
const EXTRA_PCT: [f64; 4] = [3.0, 5.0, 7.0, 10.0];

/// The device of Fig. 10's point at `pct` % extra blocks.
pub fn point(opts: &ExpOptions, pct: f64) -> SsdConfig {
    SsdConfig::paper_default()
        .with_capacity_gb(opts.scaled_capacity(8))
        .with_extra_pct(pct)
}

/// Run the Fig. 10 sweep.
pub fn run(opts: &ExpOptions) -> Vec<Table> {
    let points: Vec<(String, SsdConfig)> = EXTRA_PCT
        .iter()
        .map(|&pct| (format!("{pct:.0}%"), point(opts, pct)))
        .collect();
    sweep(
        opts,
        &format!("Fig. 10 — extra blocks at 8 GB (scale 1/{})", opts.scale),
        "extra",
        &points,
    )
}
