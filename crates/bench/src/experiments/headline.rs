//! The paper's headline claim (§I, §V.B): *"we observe an average 57.8%
//! and 85.5% improvement in mean response time on a 64 GB flash SSD
//! compared with DFTL and FAST, respectively"* — and at 4 GB, 70 % / 90 %.
//! Both are points of Fig. 8, so this is a view over [`fig8`]'s cells.

use super::sweep::paper_grid;
use super::{fig8, ExpOptions};
use crate::table::{f, f2, Table};

/// Improvement of `ours` over `baseline` in percent.
fn improvement_pct(ours: f64, baseline: f64) -> f64 {
    if baseline <= 0.0 {
        0.0
    } else {
        (baseline - ours) / baseline * 100.0
    }
}

/// DLOOP's average MRT improvement in percent over the FTL in column
/// `base`, across traces given as `[DLOOP, DFTL, FAST]` MRTs.
pub fn average_improvement(mrts: &[[f64; 3]], base: usize) -> f64 {
    let sum: f64 = mrts.iter().map(|m| improvement_pct(m[0], m[base])).sum();
    sum / mrts.len() as f64
}

/// The headline table at one nominal capacity, from each trace's name
/// and `[DLOOP, DFTL, FAST]` MRTs.
fn table_at(opts: &ExpOptions, nominal_gb: u32, rows: &[(&str, [f64; 3])]) -> (Table, f64, f64) {
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
    for &(name, [d, t, fa]) in rows {
        table.row(vec![
            name.to_string(),
            f(d),
            f(t),
            f(fa),
            f2(improvement_pct(d, t)),
            f2(improvement_pct(d, fa)),
        ]);
    }
    let mrts: Vec<[f64; 3]> = rows.iter().map(|(_, m)| *m).collect();
    let (avg_dftl, avg_fast) = (average_improvement(&mrts, 1), average_improvement(&mrts, 2));
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

/// The 64 GB headline plus the 4 GB variant the paper quotes.
pub fn run(opts: &ExpOptions) -> Vec<Table> {
    let grid = paper_grid(opts, &[fig8::point(opts, 64), fig8::point(opts, 4)]);
    let at = |col: usize| -> Vec<(&str, [f64; 3])> {
        grid.iter()
            .map(|(p, row)| (p.name, row[col].map(|c| c.mrt_ms)))
            .collect()
    };
    let (t64, d64, f64_) = table_at(opts, 64, &at(0));
    let (t4, d4, f4) = table_at(opts, 4, &at(1));
    println!(
        "paper: 64GB avg improvement 57.8% (DFTL) / 85.5% (FAST); measured {d64:.1}% / {f64_:.1}%"
    );
    println!("paper:  4GB improvement ~70% (DFTL) / ~90% (FAST); measured {d4:.1}% / {f4:.1}%");
    vec![t64, t4]
}
