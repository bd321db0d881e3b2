//! Fig. 9 — the impacts of page size (2-16 KB at a fixed 8 GB).
//!
//! Paper shape: MRT falls as pages grow for all three schemes; DLOOP wins
//! at every size but DFTL/FAST close the gap at 16 KB (fewer pages per
//! request → less to parallelise, bigger transfers favour fewer ops);
//! SDRPP drops with page size for everyone.

use super::sweep::sweep;
use super::ExpOptions;
use crate::table::Table;
use dloop_ftl_kit::config::SsdConfig;

/// Page sizes of the paper's x-axis.
const PAGE_KB: [u32; 4] = [2, 4, 8, 16];

/// Run the Fig. 9 sweep — twice: once with the byte-accurate Table-I bus
/// model, once with the flat ~50 us/page transfer the paper's prose
/// quotes. The second reproduces the paper's falling-MRT trend on the
/// traces with larger requests and shows why the first does not
/// (EXPERIMENTS.md).
pub fn run(opts: &ExpOptions) -> Vec<Table> {
    let points: Vec<(String, SsdConfig)> = PAGE_KB
        .iter()
        .map(|&kb| {
            (
                format!("{kb}KB"),
                SsdConfig::paper_default()
                    .with_capacity_gb(opts.scaled_capacity(8))
                    .with_page_kb(kb),
            )
        })
        .collect();
    let mut tables = sweep(
        opts,
        &format!("Fig. 9 — page size at 8 GB (scale 1/{})", opts.scale),
        "page",
        &points,
    );
    let fixed_points: Vec<(String, SsdConfig)> = points
        .into_iter()
        .map(|(label, mut config)| {
            config.timing = dloop_nand::TimingConfig::paper_fixed_transfer();
            (label, config)
        })
        .collect();
    tables.extend(sweep(
        opts,
        &format!(
            "Fig. 9 (flat 50us/page transfer) at 8 GB (scale 1/{})",
            opts.scale
        ),
        "page",
        &fixed_points,
    ));
    tables
}
