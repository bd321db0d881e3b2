//! Sharded-engine speedup sweep (beyond the paper).
//!
//! The `shard` experiment measures what the plane-local parallel engine
//! (`RunConfig::shards`, DESIGN.md §3f) buys on the workload it was
//! built for: a multi-million-op uniform random-overwrite stream against
//! an aged device with a resident map, where steady-state GC keeps every
//! plane busy and the DLOOP copy-back chains stay on their own plane —
//! so every op's translation and playback stay inside one shard and the
//! channel groups genuinely advance in parallel.
//!
//! The sweep replays the *same* trace on the *same* aged device image at
//! 1, 2, 4 and 8 shards, wall-clocks each run, and checks every sharded
//! report against the sequential fingerprint (the C15 identity, here
//! re-verified on the perf workload itself). Two artifacts come out:
//!
//! * `shard_0.csv` — the usual locked-schema table;
//! * `BENCH_shard.json` — the perf trajectory consumed by
//!   `scripts/verify.sh`, which gates on `speedup_at_4 >= 1.5` and on
//!   every `fingerprint_match` being `true`.
//!
//! Two time columns per row, and the distinction matters:
//!
//! * `wall_ms` — raw elapsed time of the run *on this machine*. The
//!   engine caps its worker pool at `available_parallelism`, so on a
//!   box with fewer cores than shards the shard tasks time-slice and
//!   wall time cannot drop below the sequential run's.
//! * `critical_path_ms` — the engine's own phase breakdown
//!   (`RunReport::shard_timing`): serial partition + the slowest shard
//!   task + serial merge. Because plane-pure shards share no state, a
//!   task's time on the bounded pool is its isolated cost, and the
//!   critical path is the run's wall time on a machine with a core per
//!   shard. `speedup` is computed against it, and `host_cpus` is
//!   recorded in the JSON so the reader knows which regime `wall_ms`
//!   was measured in.
//!
//! Wall-clock numbers are the one place this workspace is *not*
//! deterministic — they measure the machine. The fingerprints are.

use super::ExpOptions;
use crate::runner::build_ftl;
use crate::table::{f2, Table};
use dloop_ftl_kit::config::{FtlKind, SsdConfig};
use dloop_ftl_kit::device::{RunConfig, SsdDevice};
use dloop_ftl_kit::metrics::{RunReport, ShardOutcome};
use dloop_host::report_fingerprint;
use dloop_workloads::synth::{sequential_fill, uniform_random, UniformParams};
use dloop_workloads::Trace;
use std::fmt::Write as _;
use std::time::Instant;

/// Locked column schema of the sweep table (`shard_0.csv`). New columns
/// append strictly after the existing ones (EXPERIMENTS.md schema rule):
/// the four phase columns split `critical_path_ms` into its serial
/// prefix, the slowest shard's state fork, the slowest shard's replay,
/// and the serial merge; `cap_saturated` flags rows replayed with more
/// shards than host cores, whose `wall_ms` time-slices and must not be
/// read as parallel time; `outcome` says whether the parallel engine
/// served the row or which guard sent it to the sequential one
/// (`RunReport::shard_outcome`).
pub const SHARD_HEADER: [&str; 12] = [
    "shards",
    "wall_ms",
    "critical_path_ms",
    "speedup",
    "fingerprint_match",
    "pages_played",
    "partition_ms",
    "fork_ms",
    "replay_ms",
    "merge_ms",
    "cap_saturated",
    "outcome",
];

/// Shard counts the sweep replays, in row order. The acceptance gate
/// reads the 4-shard row.
pub const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// One sweep row.
#[derive(Debug, Clone)]
pub struct ShardRow {
    /// `RunConfig::shards` for this run.
    pub shards: usize,
    /// Wall-clock milliseconds of `run_with` (machine-dependent; equals
    /// the *sum* of shard work when the host has a single core).
    pub wall_ms: f64,
    /// Modeled parallel wall: serial partition + slowest shard task +
    /// serial merge, from `RunReport::shard_timing`. Falls back to
    /// `wall_ms` when the run was not served by the parallel engine.
    pub critical_path_ms: f64,
    /// `wall_ms(1 shard) / critical_path_ms(this row)`.
    pub speedup: f64,
    /// Whether this row's report fingerprint equals the sequential one.
    pub fingerprint_match: bool,
    /// Host + GC + translation pages the run played (same for all rows
    /// when the fingerprints match).
    pub pages_played: u64,
    /// Serial partition phase of the parallel engine (zero when the run
    /// was served sequentially).
    pub partition_ms: f64,
    /// Slowest shard's state-fork time (zero when sequential).
    pub fork_ms: f64,
    /// Slowest shard's replay time (zero when sequential).
    pub replay_ms: f64,
    /// Serial merge + fold phase (zero when sequential).
    pub merge_ms: f64,
    /// `shards > host_cpus`: the worker pool is capped at the host's
    /// parallelism, so this row's shard tasks time-sliced and `wall_ms`
    /// is not a parallel measurement (`critical_path_ms` still is).
    pub cap_saturated: bool,
    /// Which engine served the run, and why if not the parallel one.
    pub outcome: ShardOutcome,
}

/// The measured sweep plus the workload description that headlines it.
#[derive(Debug, Clone)]
pub struct ShardSweep {
    /// Requests in the measured trace (after the aging fill).
    pub requests: u64,
    /// `available_parallelism` of the measuring host — the context in
    /// which `wall_ms` must be read.
    pub host_cpus: usize,
    /// Rows in [`SHARD_COUNTS`] order.
    pub rows: Vec<ShardRow>,
}

impl ShardSweep {
    /// Speedup of the 4-shard row (the acceptance gate).
    fn speedup_at_4(&self) -> f64 {
        self.rows
            .iter()
            .find(|r| r.shards == 4)
            .map(|r| r.speedup)
            .unwrap_or(0.0)
    }

    /// Whether every sharded row matched the sequential fingerprint.
    fn all_match(&self) -> bool {
        self.rows.iter().all(|r| r.fingerprint_match)
    }

    /// The `BENCH_shard.json` document (hand-rolled: the workspace has
    /// no serde). Schema is locked by a unit test below.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n  \"experiment\": \"shard\",\n");
        let _ = writeln!(s, "  \"requests\": {},", self.requests);
        let _ = writeln!(s, "  \"host_cpus\": {},", self.host_cpus);
        let _ = writeln!(s, "  \"speedup_at_4\": {:.3},", self.speedup_at_4());
        let _ = writeln!(s, "  \"all_fingerprints_match\": {},", self.all_match());
        let _ = writeln!(
            s,
            "  \"pass\": {},",
            self.all_match() && self.speedup_at_4() >= 1.5
        );
        s.push_str("  \"rows\": [\n");
        for (i, r) in self.rows.iter().enumerate() {
            let _ = write!(
                s,
                "    {{\"shards\": {}, \"wall_ms\": {:.3}, \"critical_path_ms\": {:.3}, \
                 \"speedup\": {:.3}, \"fingerprint_match\": {}, \"pages_played\": {}, \
                 \"partition_ms\": {:.3}, \"fork_ms\": {:.3}, \"replay_ms\": {:.3}, \
                 \"merge_ms\": {:.3}, \"cap_saturated\": {}, \"outcome\": \"{:?}\"}}",
                r.shards,
                r.wall_ms,
                r.critical_path_ms,
                r.speedup,
                r.fingerprint_match,
                r.pages_played,
                r.partition_ms,
                r.fork_ms,
                r.replay_ms,
                r.merge_ms,
                r.cap_saturated,
                r.outcome
            );
            s.push_str(if i + 1 < self.rows.len() { ",\n" } else { "\n" });
        }
        s.push_str("  ]\n}\n");
        s
    }
}

/// Pages the run actually played on the flash array (the work the
/// worker threads split).
fn pages_played(r: &RunReport) -> u64 {
    r.hw.reads + r.hw.writes + r.hw.copybacks + r.hw.interplane_copies
}

/// The GC-heavy overwrite trace the sweep replays: uniform single-page
/// random writes over the *hot region* (90 % of the logical space) at an
/// effectively open arrival rate, preceded (per device, not timed) by a
/// sequential aging fill of the same region so collections run from the
/// first measured request. Capping the hot region keeps steady-state
/// utilisation near 87 % on the paper's 3 %-over-provisioned geometry:
/// every plane collects constantly, but collections always restore the
/// free pool to the GC threshold. Overwriting the full space instead
/// drives utilisation to ~97 % — GC hell, where bounded collections
/// leave planes below threshold; the run stays bit-identical there but
/// a worker's purity check sends it to the sequential engine (the
/// `outcome` column says so), which is the fallback this sweep is *not*
/// measuring.
fn overwrite_trace(seed: u64, user_pages: u64, requests: u64) -> Trace {
    uniform_random(
        &UniformParams {
            requests,
            write_ratio: 1.0,
            pages_per_req: 1,
            space_pages: user_pages * 9 / 10,
            rate_per_sec: 1e9,
        },
        seed,
    )
}

/// The sweep on an arbitrary device and request budget (the unit test
/// uses a micro device; the CLI defaults to a multi-million-op run on
/// the paper device).
pub fn sweep_on(opts: &ExpOptions, config: SsdConfig, requests: u64) -> ShardSweep {
    let geometry = config.geometry();
    let fill = sequential_fill(geometry.user_pages(), 0.9, 64);
    let trace = overwrite_trace(opts.seed, geometry.user_pages(), requests);

    // The same helper the engine sizes its worker pool from — the bench
    // must not invent its own answer (it used to silently fall back to 1
    // on platforms where `available_parallelism` errors, misreporting
    // every row as cap-saturated).
    let host_cpus = dloop_ftl_kit::host_parallelism();
    let mut rows = Vec::new();
    let mut seq_fp = 0u64;
    let mut baseline_ms = 0.0f64;
    for &shards in &SHARD_COUNTS {
        let mut device = SsdDevice::new(config.clone(), build_ftl(FtlKind::Dloop, &config));
        device.run_with(&fill.requests, RunConfig::open());
        let start = Instant::now();
        let report = device.run_with(&trace.requests, RunConfig::open().shards(shards));
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        let fp = report_fingerprint(&report);
        if shards == 1 {
            seq_fp = fp;
            baseline_ms = wall_ms;
        }
        let timing = report.shard_timing.as_ref();
        let critical_path_ms = timing.map(|t| t.critical_path_ms()).unwrap_or(wall_ms);
        rows.push(ShardRow {
            shards,
            wall_ms,
            critical_path_ms,
            speedup: baseline_ms / critical_path_ms.max(1e-9),
            fingerprint_match: fp == seq_fp,
            pages_played: pages_played(&report),
            partition_ms: timing.map(|t| t.partition_ms).unwrap_or(0.0),
            fork_ms: timing.map(|t| t.max_fork_ms()).unwrap_or(0.0),
            replay_ms: timing.map(|t| t.max_worker_ms()).unwrap_or(0.0),
            merge_ms: timing.map(|t| t.merge_ms).unwrap_or(0.0),
            cap_saturated: shards > host_cpus,
            outcome: report.shard_outcome,
        });
    }
    ShardSweep {
        requests: trace.len() as u64,
        host_cpus,
        rows,
    }
}

/// Render the sweep as the locked-schema table.
pub fn to_table(sweep: &ShardSweep) -> Table {
    let mut table = Table::new(
        format!(
            "Sharded playback sweep — {} overwrite requests (wall-clock, machine-dependent)",
            sweep.requests
        ),
        &SHARD_HEADER,
    );
    for r in &sweep.rows {
        table.row(vec![
            r.shards.to_string(),
            f2(r.wall_ms),
            f2(r.critical_path_ms),
            f2(r.speedup),
            r.fingerprint_match.to_string(),
            r.pages_played.to_string(),
            f2(r.partition_ms),
            f2(r.fork_ms),
            f2(r.replay_ms),
            f2(r.merge_ms),
            r.cap_saturated.to_string(),
            format!("{:?}", r.outcome),
        ]);
    }
    table
}

/// CLI entry point: run the sweep on the paper device, emit the table,
/// and drop `BENCH_shard.json` next to the CSVs (plus a copy in the
/// current directory when no `--out` is given).
pub fn run(opts: &ExpOptions) -> Vec<Table> {
    let base = SsdConfig::paper_default().with_capacity_gb(opts.scaled_capacity(4));
    let config = SsdConfig {
        // A fully resident mapping table: CMT-miss translation chains
        // land on the translation page's plane, not the host plane, so
        // with a cache smaller than the map the FTL cannot attest
        // plane-local translation and every row would fall back.
        // Perf runs cache the map, as a real drive's DRAM would.
        cmt_capacity: base.geometry().user_pages() as usize,
        ..base
    };
    let requests = if opts.max_requests == 0 {
        2_000_000
    } else {
        opts.max_requests
    };
    let sweep = sweep_on(opts, config, requests);
    let json = sweep.to_json();
    let target = match &opts.out_dir {
        Some(dir) => dir.join("BENCH_shard.json"),
        None => std::path::PathBuf::from("BENCH_shard.json"),
    };
    if let Some(dir) = &opts.out_dir {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::write(&target, &json) {
        Ok(()) => eprintln!("wrote {}", target.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", target.display()),
    }
    vec![to_table(&sweep)]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 4-channel micro device keeps the five replays cheap while the
    /// overwrite stream still triggers GC; identity must hold at every
    /// shard count even when the run is too small to speed up.
    #[test]
    fn micro_sweep_is_fingerprint_identical_and_json_well_formed() {
        let opts = ExpOptions::default();
        let wide = SsdConfig {
            channels: 4,
            ..SsdConfig::micro_gc_test()
        };
        // Resident map, as in `run`: the sharded rows must engage.
        let config = SsdConfig {
            cmt_capacity: wide.geometry().user_pages() as usize,
            ..wide
        };
        let sweep = sweep_on(&opts, config, 3_000);
        assert_eq!(sweep.rows.len(), SHARD_COUNTS.len());
        assert!(sweep.all_match(), "sharded replay diverged: {sweep:?}");
        for r in &sweep.rows {
            let want = match r.shards {
                1 => ShardOutcome::NotRequested,
                _ => ShardOutcome::Engaged,
            };
            assert_eq!(r.outcome, want, "{} shards", r.shards);
        }
        assert!(sweep.rows.iter().all(|r| r.pages_played > 3_000));

        let json = sweep.to_json();
        for key in [
            "\"experiment\": \"shard\"",
            "\"requests\":",
            "\"host_cpus\":",
            "\"speedup_at_4\":",
            "\"all_fingerprints_match\": true",
            "\"pass\":",
            "\"rows\":",
            "\"critical_path_ms\":",
            "\"fingerprint_match\": true",
            "\"partition_ms\":",
            "\"fork_ms\":",
            "\"replay_ms\":",
            "\"merge_ms\":",
            "\"cap_saturated\":",
            "\"outcome\": \"Engaged\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert_eq!(json.matches("\"shards\":").count(), SHARD_COUNTS.len());
    }

    #[test]
    fn table_schema_is_locked() {
        let sweep = ShardSweep {
            requests: 10,
            host_cpus: 1,
            rows: vec![ShardRow {
                shards: 1,
                wall_ms: 1.0,
                critical_path_ms: 1.0,
                speedup: 1.0,
                fingerprint_match: true,
                pages_played: 10,
                partition_ms: 0.1,
                fork_ms: 0.1,
                replay_ms: 0.7,
                merge_ms: 0.1,
                cap_saturated: false,
                outcome: ShardOutcome::NotRequested,
            }],
        };
        let t = to_table(&sweep);
        assert_eq!(t.to_csv().lines().next().unwrap(), SHARD_HEADER.join(","));
    }
}
