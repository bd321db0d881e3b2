//! Power-cap sweep (beyond the paper): replay one write-heavy burst with
//! integer energy accounting enabled under a descending ladder of power
//! budgets ([`QosSpec::PowerCap`] over the NCQ window) and report what
//! the cap costs and what it cannot change.
//!
//! Three artifacts come out:
//!
//! * `power_0.csv` — the usual locked-schema table, one row per budget
//!   (row 0 is the effectively-unbounded baseline);
//! * `BENCH_power.json` — the acceptance document `scripts/verify.sh`
//!   gates on: every capped row must respect its budget in *every*
//!   power-timeline bucket, and every row must consume the *identical*
//!   femtojoule total (translation happens at arrival, so a cap stretches
//!   time, never work);
//! * `trace_power.csv` — the per-plane/per-channel power timeline of the
//!   tightest-budget run, the same schema the `trace` subcommand emits.
//!
//! The per-bucket ceiling is checked in exact integer arithmetic:
//! `bucket_fj <= budget_uw * bucket_ns`, the µW × ns = fJ identity the
//! whole accounting subsystem is built on.

use super::ExpOptions;
use crate::runner::build_ftl;
use crate::table::{f2, Table};
use dloop_ftl_kit::config::{FtlKind, SsdConfig};
use dloop_ftl_kit::device::{RunConfig, SsdDevice};
use dloop_ftl_kit::sched::QosSpec;
use dloop_nand::EnergyConfig;
use dloop_simkit::trace::{power_csv, RingSink};
use dloop_workloads::WorkloadProfile;
use std::fmt::Write as _;

/// Locked column schema of the sweep table (`power_0.csv`).
pub const POWER_HEADER: [&str; 9] = [
    "budget_uw",
    "mrt_ms",
    "makespan_ms",
    "energy_array_fj",
    "energy_bus_fj",
    "energy_total_fj",
    "mean_power_mw",
    "peak_bucket_mw",
    "budget_respected",
];

/// Budgets the sweep replays, in row order: the effectively-unbounded
/// baseline first (100 kW admits everything the device could ever draw),
/// then a descending ladder through the conventional 250 mW cap. All in
/// µW; the baseline is reported as `budget_uw = 0` in the table since it
/// enforces nothing.
pub const BUDGETS_UW: [u64; 4] = [
    100_000_000_000,
    1_000_000,
    500_000,
    QosSpec::POWER_CAP_BUDGET_UW,
];

/// Power-timeline resolution for the per-bucket ceiling check.
const POWER_BUCKETS: usize = 64;

/// One sweep row.
#[derive(Debug, Clone)]
pub struct PowerRow {
    /// Enforced budget in µW (0 = the unbounded baseline row).
    pub budget_uw: u64,
    /// Mean response time under this budget.
    pub mrt_ms: f64,
    /// Simulated completion time of the last operation.
    pub makespan_ms: f64,
    /// Exact integer array (cell) energy.
    pub energy_array_fj: u64,
    /// Exact integer bus (channel) energy.
    pub energy_bus_fj: u64,
    /// Mean electrical power over the makespan.
    pub mean_power_mw: f64,
    /// The hottest power-timeline bucket's mean draw.
    pub peak_bucket_mw: f64,
    /// Whether every timeline bucket stayed at or below the budget
    /// (vacuously true for the baseline row).
    pub budget_respected: bool,
}

impl PowerRow {
    /// Total femtojoules of the row.
    pub fn total_fj(&self) -> u64 {
        self.energy_array_fj
            .checked_add(self.energy_bus_fj)
            .expect("energy overflow")
    }
}

/// The measured sweep plus its acceptance verdicts.
#[derive(Debug, Clone)]
pub struct PowerSweep {
    /// Requests in the replayed burst.
    pub requests: u64,
    /// Rows in [`BUDGETS_UW`] order (baseline first).
    pub rows: Vec<PowerRow>,
    /// The tightest-budget run's power timeline (`trace_power.csv` body).
    pub tightest_timeline: String,
}

impl PowerSweep {
    /// Every capped row respected its budget in every bucket.
    fn all_respected(&self) -> bool {
        self.rows.iter().all(|r| r.budget_respected)
    }

    /// Every row consumed the identical femtojoule total.
    fn energy_invariant(&self) -> bool {
        self.rows
            .windows(2)
            .all(|w| w[0].total_fj() == w[1].total_fj())
    }

    /// The `BENCH_power.json` document (hand-rolled: the workspace has no
    /// serde). Schema is locked by a unit test below.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n  \"experiment\": \"power\",\n");
        let _ = writeln!(s, "  \"requests\": {},", self.requests);
        let _ = writeln!(s, "  \"all_budgets_respected\": {},", self.all_respected());
        let _ = writeln!(s, "  \"energy_invariant\": {},", self.energy_invariant());
        let _ = writeln!(
            s,
            "  \"pass\": {},",
            self.all_respected() && self.energy_invariant()
        );
        s.push_str("  \"rows\": [\n");
        for (i, r) in self.rows.iter().enumerate() {
            let _ = write!(
                s,
                "    {{\"budget_uw\": {}, \"mrt_ms\": {:.4}, \"makespan_ms\": {:.3}, \
                 \"energy_array_fj\": {}, \"energy_bus_fj\": {}, \"energy_total_fj\": {}, \
                 \"mean_power_mw\": {:.3}, \"peak_bucket_mw\": {:.3}, \"budget_respected\": {}}}",
                r.budget_uw,
                r.mrt_ms,
                r.makespan_ms,
                r.energy_array_fj,
                r.energy_bus_fj,
                r.total_fj(),
                r.mean_power_mw,
                r.peak_bucket_mw,
                r.budget_respected
            );
            s.push_str(if i + 1 < self.rows.len() { ",\n" } else { "\n" });
        }
        s.push_str("  ]\n}\n");
        s
    }
}

/// The sweep on an arbitrary device and request budget (the unit test
/// uses the micro device; the CLI uses the scaled paper device). The
/// device config must carry an [`EnergyConfig`].
pub fn sweep_on(opts: &ExpOptions, config: SsdConfig, requests: u64) -> PowerSweep {
    let energy = config
        .energy
        .expect("the power sweep needs energy accounting enabled");
    let geometry = config.geometry();
    // The C11/C16 write-heavy burst: a cap on concurrent admissions is a
    // no-op on an idle device, so arrivals must outpace service.
    let mut profile = opts.scaled_profile(WorkloadProfile::financial1());
    profile.write_ratio = 0.9;
    profile.rate_per_sec *= 16.0;
    let trace = profile.generate_scaled(opts.seed, geometry.page_size, requests);

    let mut rows = Vec::new();
    let mut tightest_timeline = String::new();
    for (i, &budget_uw) in BUDGETS_UW.iter().enumerate() {
        let mut device = SsdDevice::new(config.clone(), build_ftl(FtlKind::Dloop, &config));
        device.attach_sink(Box::new(RingSink::new(1 << 20)));
        let report = device.run_with(
            &trace.requests,
            RunConfig::qos(QosSpec::PowerCap { budget_uw })
                .queue_depth(dloop_ftl_kit::DEFAULT_NCQ_DEPTH),
        );
        let rec = device.take_trace().expect("ring sink was attached");
        assert_eq!(rec.dropped(), 0, "power sweep ring must keep every span");
        let totals = report.energy.expect("energy-enabled run reports totals");

        let timeline = power_csv(
            &rec,
            geometry.total_planes() as usize,
            geometry.channels as usize,
            POWER_BUCKETS,
            energy.array_active_uw,
            energy.bus_active_uw,
        );
        // Reconstruct the fixed-width grid (last bucket stretched) and
        // hold every bucket against the integer ceiling.
        let end_ns = report.sim_end.as_nanos();
        let width = (end_ns / POWER_BUCKETS as u64).max(1);
        let baseline = i == 0;
        let mut respected = true;
        let mut peak_uw = 0u64;
        let mut csv_fj = 0u64;
        for (b, line) in timeline.lines().skip(1).enumerate() {
            let bucket_fj: u64 = line
                .rsplit(',')
                .next()
                .and_then(|v| v.parse().ok())
                .expect("power_csv rows end in an integer total");
            csv_fj = csv_fj.checked_add(bucket_fj).expect("bucket sum overflow");
            let span_ns = if b + 1 == POWER_BUCKETS {
                end_ns.saturating_sub(b as u64 * width).max(width)
            } else {
                width
            };
            // fJ / ns = µW: the bucket's mean draw.
            peak_uw = peak_uw.max(bucket_fj / span_ns.max(1));
            if !baseline && bucket_fj > budget_uw.checked_mul(span_ns).expect("ceiling overflow") {
                respected = false;
            }
        }
        assert_eq!(
            csv_fj,
            totals.total_fj(),
            "power timeline must sum exactly to the report's femtojoule totals"
        );
        if i + 1 == BUDGETS_UW.len() {
            tightest_timeline = timeline;
        }
        rows.push(PowerRow {
            budget_uw: if baseline { 0 } else { budget_uw },
            mrt_ms: report.mean_response_time_ms(),
            makespan_ms: end_ns as f64 / 1e6,
            energy_array_fj: totals.array_fj,
            energy_bus_fj: totals.bus_fj,
            mean_power_mw: totals.total_fj() as f64 / end_ns.max(1) as f64 / 1e3,
            peak_bucket_mw: peak_uw as f64 / 1e3,
            budget_respected: respected,
        });
    }
    PowerSweep {
        requests: trace.len() as u64,
        rows,
        tightest_timeline,
    }
}

/// Render the sweep as the locked-schema table.
pub fn to_table(sweep: &PowerSweep) -> Table {
    let mut table = Table::new(
        format!(
            "Power-cap sweep — {} write-heavy requests, integer femtojoule accounting",
            sweep.requests
        ),
        &POWER_HEADER,
    );
    for r in &sweep.rows {
        table.row(vec![
            r.budget_uw.to_string(),
            f2(r.mrt_ms),
            f2(r.makespan_ms),
            r.energy_array_fj.to_string(),
            r.energy_bus_fj.to_string(),
            r.total_fj().to_string(),
            f2(r.mean_power_mw),
            f2(r.peak_bucket_mw),
            r.budget_respected.to_string(),
        ]);
    }
    table
}

/// CLI entry point: run the sweep on the paper device, emit the table,
/// and drop `BENCH_power.json` plus `trace_power.csv` next to the CSVs.
pub fn run(opts: &ExpOptions) -> Vec<Table> {
    let config = SsdConfig::paper_default()
        .with_capacity_gb(opts.scaled_capacity(4))
        .with_energy(EnergyConfig::paper_default());
    let requests = if opts.max_requests == 0 {
        20_000
    } else {
        opts.max_requests
    };
    let sweep = sweep_on(opts, config, requests);
    if let Some(dir) = &opts.out_dir {
        let _ = std::fs::create_dir_all(dir);
        for (name, body) in [
            ("BENCH_power.json", &sweep.to_json()),
            ("trace_power.csv", &sweep.tightest_timeline),
        ] {
            let path = dir.join(name);
            match std::fs::write(&path, body) {
                Ok(()) => eprintln!("wrote {}", path.display()),
                Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
            }
        }
    } else if let Err(e) = std::fs::write("BENCH_power.json", sweep.to_json()) {
        eprintln!("warning: could not write BENCH_power.json: {e}");
    }
    vec![to_table(&sweep)]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The micro device keeps the four replays cheap; the in-process
    /// assertions (zero ring drops, timeline == report identity per run)
    /// plus the sweep verdicts are the real test.
    #[test]
    fn micro_sweep_respects_budgets_at_identical_energy() {
        let opts = ExpOptions::default();
        let config = SsdConfig::micro_gc_test().with_energy(EnergyConfig::paper_default());
        let sweep = sweep_on(&opts, config, 1_200);
        assert_eq!(sweep.rows.len(), BUDGETS_UW.len());
        assert!(sweep.all_respected(), "budget violated: {sweep:?}");
        assert!(sweep.energy_invariant(), "cap changed energy: {sweep:?}");
        assert!(sweep.rows[0].total_fj() > 0);
        assert!(sweep
            .tightest_timeline
            .starts_with("bucket_start_ms,bucket_end_ms,"));

        let json = sweep.to_json();
        for key in [
            "\"experiment\": \"power\"",
            "\"requests\":",
            "\"all_budgets_respected\": true",
            "\"energy_invariant\": true",
            "\"pass\": true",
            "\"rows\":",
            "\"budget_uw\":",
            "\"energy_total_fj\":",
            "\"peak_bucket_mw\":",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert_eq!(json.matches("\"budget_uw\":").count(), BUDGETS_UW.len());
    }

    /// Energy accounting is observation, never perturbation: the same
    /// trace replayed with and without an [`EnergyConfig`] produces the
    /// same timings, the same completion log, and a metrics CSV row that
    /// differs *only* in the two appended energy columns — stripping the
    /// totals makes the full report fingerprints bit-identical.
    #[test]
    fn disabling_energy_leaves_the_run_bit_identical() {
        let opts = ExpOptions::default();
        let plain = SsdConfig::micro_gc_test();
        let powered = plain.clone().with_energy(EnergyConfig::paper_default());
        let geometry = plain.geometry();
        let profile = opts.scaled_profile(WorkloadProfile::financial1());
        let trace = profile.generate_scaled(opts.seed, geometry.page_size, 600);

        let run = |config: &SsdConfig| {
            let mut device = SsdDevice::new(config.clone(), build_ftl(FtlKind::Dloop, config));
            device.run_with(&trace.requests, RunConfig::open())
        };
        let dark = run(&plain);
        let mut lit = run(&powered);
        assert!(dark.energy.is_none());
        assert!(
            lit.energy
                .expect("energy-enabled run reports totals")
                .total_fj()
                > 0
        );

        let (dark_row, lit_row) = (dark.csv_row(), lit.csv_row());
        let dark_cols: Vec<&str> = dark_row.split(',').collect();
        let lit_cols: Vec<&str> = lit_row.split(',').collect();
        assert_eq!(dark_cols.len(), lit_cols.len());
        let energy_cols = dark_cols.len() - 2;
        assert_eq!(dark_cols[..energy_cols], lit_cols[..energy_cols]);
        assert_eq!(&dark_cols[energy_cols..], &["0", "0"]);
        assert_ne!(&lit_cols[energy_cols..], &["0", "0"]);

        assert_eq!(dark.completions, lit.completions);
        assert_eq!(dark.queue_depth_csv(64), lit.queue_depth_csv(64));
        lit.energy = None;
        assert_eq!(
            dloop_host::report_fingerprint(&dark),
            dloop_host::report_fingerprint(&lit),
            "with totals stripped, the reports must be bit-identical"
        );
    }

    #[test]
    fn table_schema_is_locked() {
        let sweep = PowerSweep {
            requests: 10,
            rows: vec![PowerRow {
                budget_uw: 0,
                mrt_ms: 1.0,
                makespan_ms: 2.0,
                energy_array_fj: 3,
                energy_bus_fj: 4,
                mean_power_mw: 5.0,
                peak_bucket_mw: 6.0,
                budget_respected: true,
            }],
            tightest_timeline: String::new(),
        };
        let t = to_table(&sweep);
        assert_eq!(t.to_csv().lines().next().unwrap(), POWER_HEADER.join(","));
    }
}
