//! Per-run metrics: the paper's two reported statistics plus
//! observability extras.
//!
//! * **Mean response time** — "average response time of all requests
//!   submitted to a flash SSD" (§V.A), where a request's response time is
//!   the completion of its last page operation minus its arrival.
//! * **SDRPP** — "the standard deviation of number of requests that each
//!   plane receives during a simulation experiment. A lower SDRPP
//!   indicates that requests are distributed more evenly across planes,
//!   which leads to a better wear-leveling." Plotted on a natural-log
//!   scale in the paper, so [`RunReport::ln_sdrpp`] matches the figures.

use crate::ftl::FtlCounters;
use dloop_nand::{EnergyTotals, MediaCounters, OpCounters};
use dloop_simkit::stats::std_dev_of_counts;
use dloop_simkit::{Histogram, OnlineStats, QueueDepthProbe, SimTime};

/// Everything measured over one simulation run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Scheme name ("DLOOP", "DFTL", …).
    pub ftl_name: &'static str,
    /// Host requests completed.
    pub requests_completed: u64,
    /// Host page reads served.
    pub pages_read: u64,
    /// Host page writes served.
    pub pages_written: u64,
    /// Response-time distribution, in milliseconds.
    pub response_ms: OnlineStats,
    /// Log-spaced response-time histogram, in microseconds.
    pub response_hist_us: Histogram,
    /// Page-level operations dispatched to each plane.
    pub plane_request_counts: Vec<u64>,
    /// Hardware operation counters.
    pub hw: OpCounters,
    /// FTL scheme counters.
    pub ftl: FtlCounters,
    /// Total block erases.
    pub total_erases: u64,
    /// Total page programs (host + translation + GC).
    pub total_programs: u64,
    /// Total parity-skipped pages.
    pub total_skips: u64,
    /// Wear summary: (min, mean, max) erase count across blocks.
    pub wear: (u32, f64, u32),
    /// Simulated completion time of the last operation.
    pub sim_end: SimTime,
    /// Per-plane busy nanoseconds (array occupancy).
    pub plane_busy_ns: Vec<u64>,
    /// Per-channel busy nanoseconds (bus occupancy).
    pub channel_busy_ns: Vec<u64>,
    /// Per page-op queueing delay before the first flash step began.
    pub wait_ms: OnlineStats,
    /// Per page-op service span (first step start to host completion).
    pub service_ms: OnlineStats,
    /// Synchronous-GC blocking charged to triggering operations.
    pub gc_block_ms: OnlineStats,
    /// Media reliability counters over the measured window (all zero when
    /// no fault plan is attached): recovered program failures, grown bad
    /// blocks, uncorrectable reads, and the read-retry histogram, plus the
    /// device's factory-bad block count.
    pub media: MediaCounters,
    /// Plane-busy nanoseconds added by read-retry ladders (the latency
    /// price of the raw bit-error rate).
    pub retry_ns: u64,
    /// Per-request completion log: `(request index, arrival, done)` for
    /// every request of the replayed slice, in the order the driver
    /// recorded them. Zero-page requests complete at their arrival. The
    /// `dloop-host` stack reads this to map device completions back onto
    /// host requests (and from there into interrupt-coalescing delivery
    /// times).
    pub completions: Vec<(u64, SimTime, SimTime)>,
    /// Host-queue occupancy log: one `(arrival, issue, done)` triple per
    /// admitted unit of work (requests in open replay and under the host
    /// stack, page operations in the gated/NCQ modes). Every replay mode records
    /// it; render with [`RunReport::queue_depth_csv`].
    pub queue_log: QueueDepthProbe,
    /// Wall-clock breakdown of the plane-local parallel engine, when it
    /// served the run (`None` otherwise). Deliberately excluded from
    /// every fingerprint and CSV: wall time measures the machine, not
    /// the simulation.
    pub shard_timing: Option<ShardTiming>,
    /// What became of [`crate::device::RunConfig::shards`]: whether a
    /// parallel run was asked for, and if so whether it engaged or which
    /// guard sent the replay to the sequential engine instead. Excluded
    /// from every fingerprint and CSV, like `shard_timing`: it names the
    /// engine that served the run, not a simulated result.
    pub shard_outcome: ShardOutcome,
    /// Integer energy totals, when [`crate::SsdConfig::energy`] enabled
    /// accounting (`None` otherwise). Folded into the CSV row — and so
    /// into every report fingerprint — as exact femtojoule integers; the
    /// shard merge recomputes them from the absorbed busy counters, so
    /// sharded and sequential totals are bit-identical (claim C15).
    pub energy: Option<EnergyTotals>,
}

/// Wall-clock phases of a plane-sharded run, recorded by the parallel
/// engine's fast path. Shard tasks run on a pool of at most
/// `available_parallelism` threads, so each task's time is (close to)
/// its isolated single-core cost; because plane-pure shards share no
/// state, `partition + max(workers) + merge` is the run's critical path
/// — the wall time on a machine with at least one core per shard.
#[derive(Debug, Clone, Default)]
pub struct ShardTiming {
    /// Serial prefix: canonical sort and routing of page operations.
    pub partition_ms: f64,
    /// Per-shard state-fork time (flash fork + directory range fork +
    /// FTL fork), indexed by shard; zero for shards that received no
    /// operations. Reported separately from `worker_ms` so regressions
    /// in fork cost — pure overhead that grows with device size, not
    /// with work — are visible as `benchmark/`'s `shard.fork_ms_max`
    /// instead of hiding inside the replay time.
    pub fork_ms: Vec<f64>,
    /// Per-shard replay time (translate + play), indexed by shard; zero
    /// for shards that received no operations.
    pub worker_ms: Vec<f64>,
    /// Serial suffix: state merge, span forwarding, and the canonical
    /// statistics fold.
    pub merge_ms: f64,
}

/// What became of a run's shard request (see [`RunReport::shard_outcome`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShardOutcome {
    /// One shard was configured: the sequential engine ran by request.
    #[default]
    NotRequested,
    /// The plane-local parallel engine served the run.
    Engaged,
    /// More than one shard was configured, but the named guard sent the
    /// replay to the sequential engine (same report, one core).
    FellBack(ShardGuard),
}

/// Why a sharded request ran sequentially. The first four are decided
/// from the configuration before any work; the last two by the FTL.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardGuard {
    /// The geometry has one channel, so there is nothing to split.
    SingleChannel,
    /// A die would straddle a shard boundary, aliasing one die timeline
    /// across two workers.
    DieStraddlesShard,
    /// The gated/NCQ/QoS schedulers decide globally at every instant.
    QueueingMode,
    /// A media-fault model makes read outcomes depend on the global op
    /// order.
    MediaModel,
    /// [`crate::Ftl::shard_translation_ready`] was false: the FTL could
    /// not attest plane-local translation from its pre-run state.
    TranslationNotReady,
    /// A worker's per-op purity check failed; every fork was discarded,
    /// the device untouched.
    WorkerImpurity {
        /// The lowest-indexed request (position in the replayed slice) at
        /// which a worker stopped.
        request: u64,
    },
}

impl ShardTiming {
    /// The modeled parallel wall time: serial sections plus the slowest
    /// shard task (its fork plus its replay — both run on the worker
    /// thread).
    pub fn critical_path_ms(&self) -> f64 {
        let slowest = self
            .fork_ms
            .iter()
            .zip(&self.worker_ms)
            .map(|(f, w)| f + w)
            .fold(0.0, f64::max);
        self.partition_ms + slowest + self.merge_ms
    }

    /// The slowest shard's fork time, for table rendering.
    pub fn max_fork_ms(&self) -> f64 {
        self.fork_ms.iter().cloned().fold(0.0, f64::max)
    }

    /// The slowest shard's replay time, for table rendering.
    pub fn max_worker_ms(&self) -> f64 {
        self.worker_ms.iter().cloned().fold(0.0, f64::max)
    }
}

impl RunReport {
    /// Mean response time in milliseconds — the paper's headline metric.
    pub fn mean_response_time_ms(&self) -> f64 {
        self.response_ms.mean()
    }

    /// Standard deviation of per-plane request counts.
    pub fn sdrpp(&self) -> f64 {
        std_dev_of_counts(&self.plane_request_counts)
    }

    /// ln(SDRPP), as plotted in Figs. 8-10 ("plotted on log scale (base e)
    /// because their values are huge"). Zero deviation maps to 0.
    pub fn ln_sdrpp(&self) -> f64 {
        let sd = self.sdrpp();
        if sd <= 1.0 {
            0.0
        } else {
            sd.ln()
        }
    }

    /// Write amplification factor: physical programs per host page write.
    pub fn waf(&self) -> f64 {
        if self.pages_written == 0 {
            0.0
        } else {
            self.total_programs as f64 / self.pages_written as f64
        }
    }

    /// Response-time percentile in milliseconds (approximate).
    pub fn response_percentile_ms(&self, q: f64) -> f64 {
        self.response_hist_us.quantile(q) / 1000.0
    }

    /// Fraction of the total host-visible response time spent blocked on
    /// synchronous GC — the share that background GC is supposed to hide
    /// (`dloop-experiments verify` claim C10). Zero when nothing was
    /// measured or GC never blocked a request.
    pub fn gc_blocked_share(&self) -> f64 {
        let total = self.response_ms.sum();
        if total <= 0.0 {
            0.0
        } else {
            self.gc_block_ms.sum() / total
        }
    }

    /// Mean plane utilisation over the run.
    pub fn mean_plane_utilisation(&self) -> f64 {
        let t = self.sim_end.as_nanos().max(1) as f64;
        if self.plane_busy_ns.is_empty() {
            return 0.0;
        }
        self.plane_busy_ns
            .iter()
            .map(|&b| b as f64 / t)
            .sum::<f64>()
            / self.plane_busy_ns.len() as f64
    }

    /// Highest single-plane utilisation over the run.
    pub fn max_plane_utilisation(&self) -> f64 {
        let t = self.sim_end.as_nanos().max(1) as f64;
        self.plane_busy_ns
            .iter()
            .map(|&b| b as f64 / t)
            .fold(0.0, f64::max)
    }

    /// Highest single-channel utilisation over the run.
    pub fn max_channel_utilisation(&self) -> f64 {
        let t = self.sim_end.as_nanos().max(1) as f64;
        self.channel_busy_ns
            .iter()
            .map(|&b| b as f64 / t)
            .fold(0.0, f64::max)
    }

    /// Fraction of GC page moves served by copy-back.
    pub fn copyback_fraction(&self) -> f64 {
        let total = self.ftl.copyback_moves + self.ftl.external_moves;
        if total == 0 {
            0.0
        } else {
            self.ftl.copyback_moves as f64 / total as f64
        }
    }

    /// The locked CSV schema. Reliability columns append strictly after
    /// the pre-fault columns so downstream tooling keyed on column index
    /// keeps working; `retry_hist` is one pipe-joined column because its
    /// length follows the fault plan's ladder depth. The latency
    /// attribution columns (mean queueing wait, mean service span, mean
    /// synchronous-GC blocking) append after the reliability block under
    /// the same rule, and the integer energy columns (femtojoules; both
    /// zero when accounting is disabled) append after those.
    pub fn csv_header() -> &'static str {
        "ftl,requests,pages_read,pages_written,mrt_ms,p99_ms,ln_sdrpp,waf,\
         gc_invocations,copyback_moves,external_moves,parity_skips,\
         translation_reads,translation_writes,full_merges,partial_merges,\
         switch_merges,total_erases,total_programs,total_skips,\
         wear_min,wear_mean,wear_max,sim_end_ms,\
         recovered_programs,grown_bad_blocks,factory_bad_blocks,\
         uncorrectable_reads,read_retry_steps,retry_ms,retry_hist,\
         wait_mean_ms,service_mean_ms,gc_block_mean_ms,\
         energy_array_fj,energy_bus_fj"
    }

    /// One CSV row matching [`RunReport::csv_header`] column for column.
    pub fn csv_row(&self) -> String {
        let hist = self
            .media
            .retry_hist
            .iter()
            .map(|c| c.to_string())
            .collect::<Vec<_>>()
            .join("|");
        let energy = self.energy.unwrap_or_default();
        format!(
            "{},{},{},{},{:.6},{:.6},{:.4},{:.4},{},{},{},{},{},{},{},{},{},{},{},{},{},{:.3},{},{:.3},{},{},{},{},{},{:.6},{},{:.6},{:.6},{:.6},{},{}",
            self.ftl_name,
            self.requests_completed,
            self.pages_read,
            self.pages_written,
            self.mean_response_time_ms(),
            self.response_percentile_ms(0.99),
            self.ln_sdrpp(),
            self.waf(),
            self.ftl.gc_invocations,
            self.ftl.copyback_moves,
            self.ftl.external_moves,
            self.ftl.parity_skips,
            self.ftl.translation_reads,
            self.ftl.translation_writes,
            self.ftl.full_merges,
            self.ftl.partial_merges,
            self.ftl.switch_merges,
            self.total_erases,
            self.total_programs,
            self.total_skips,
            self.wear.0,
            self.wear.1,
            self.wear.2,
            self.sim_end.as_millis_f64(),
            self.media.program_fails,
            self.media.grown_bad_blocks,
            self.media.factory_bad_blocks,
            self.media.uncorrectable_reads,
            self.media.read_retry_steps,
            self.retry_ns as f64 / 1e6,
            hist,
            self.wait_ms.mean(),
            self.service_ms.mean(),
            self.gc_block_ms.mean(),
            energy.array_fj,
            energy.bus_fj,
        )
    }

    /// The queue-depth-over-time CSV ([`QueueDepthProbe::csv`]) for this
    /// run, rendered over `buckets` equal sim-time windows. The header is
    /// locked by [`QueueDepthProbe::csv_header`].
    pub fn queue_depth_csv(&self, buckets: usize) -> String {
        self.queue_log.csv(buckets)
    }

    /// One human-readable summary line.
    pub fn summary(&self) -> String {
        format!(
            "{:<9} reqs={:<8} MRT={:>9.4}ms p99={:>9.3}ms lnSDRPP={:>6.2} WAF={:>5.2} GCs={:<6} cb%={:>5.1} erases={}",
            self.ftl_name,
            self.requests_completed,
            self.mean_response_time_ms(),
            self.response_percentile_ms(0.99),
            self.ln_sdrpp(),
            self.waf(),
            self.ftl.gc_invocations,
            self.copyback_fraction() * 100.0,
            self.total_erases,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> RunReport {
        let mut response_ms = OnlineStats::new();
        let mut hist = Histogram::new(1.0, 32);
        for ms in [0.1, 0.2, 0.3] {
            response_ms.push(ms);
            hist.record(ms * 1000.0);
        }
        RunReport {
            ftl_name: "TEST",
            requests_completed: 3,
            pages_read: 1,
            pages_written: 2,
            response_ms,
            response_hist_us: hist,
            plane_request_counts: vec![10, 20, 30, 40],
            hw: OpCounters::default(),
            ftl: FtlCounters {
                copyback_moves: 3,
                external_moves: 1,
                ..FtlCounters::default()
            },
            total_erases: 5,
            total_programs: 6,
            total_skips: 0,
            wear: (0, 0.5, 2),
            sim_end: SimTime::from_millis(9),
            plane_busy_ns: vec![1_000_000; 4],
            channel_busy_ns: vec![500_000; 2],
            wait_ms: {
                let mut s = OnlineStats::new();
                s.push(0.125);
                s
            },
            service_ms: {
                let mut s = OnlineStats::new();
                s.push(0.25);
                s
            },
            gc_block_ms: OnlineStats::new(),
            media: MediaCounters {
                program_fails: 2,
                uncorrectable_reads: 1,
                read_retry_steps: 4,
                retry_hist: vec![90, 3, 1],
                ..MediaCounters::default()
            },
            retry_ns: 120_000,
            completions: vec![(0, SimTime::ZERO, SimTime::from_micros(100))],
            queue_log: QueueDepthProbe::new(),
            shard_timing: None,
            shard_outcome: ShardOutcome::NotRequested,
            energy: None,
        }
    }

    #[test]
    fn mrt_is_mean_of_samples() {
        let r = report();
        assert!((r.mean_response_time_ms() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn sdrpp_matches_hand_calculation() {
        let r = report();
        // counts 10,20,30,40: mean 25, pop var 125.
        assert!((r.sdrpp() - 125f64.sqrt()).abs() < 1e-9);
        assert!((r.ln_sdrpp() - 125f64.sqrt().ln()).abs() < 1e-9);
    }

    #[test]
    fn waf_and_copyback_fraction() {
        let r = report();
        assert!((r.waf() - 3.0).abs() < 1e-12);
        assert!((r.copyback_fraction() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn summary_mentions_scheme() {
        assert!(report().summary().contains("TEST"));
    }

    #[test]
    fn queue_depth_csv_has_locked_header_even_when_empty() {
        let csv = report().queue_depth_csv(8);
        assert!(csv.starts_with(QueueDepthProbe::csv_header()));
        assert_eq!(csv.lines().count(), 9);
    }

    /// The CSV schema is a compatibility contract: pre-fault columns stay
    /// in place, reliability columns append after them. Changing this
    /// header is a breaking change for downstream tooling — update the
    /// schema note in EXPERIMENTS.md if you must.
    #[test]
    fn csv_schema_is_locked() {
        assert_eq!(
            RunReport::csv_header(),
            "ftl,requests,pages_read,pages_written,mrt_ms,p99_ms,ln_sdrpp,waf,\
             gc_invocations,copyback_moves,external_moves,parity_skips,\
             translation_reads,translation_writes,full_merges,partial_merges,\
             switch_merges,total_erases,total_programs,total_skips,\
             wear_min,wear_mean,wear_max,sim_end_ms,\
             recovered_programs,grown_bad_blocks,factory_bad_blocks,\
             uncorrectable_reads,read_retry_steps,retry_ms,retry_hist,\
             wait_mean_ms,service_mean_ms,gc_block_mean_ms,\
             energy_array_fj,energy_bus_fj"
        );
        let header_cols = RunReport::csv_header().split(',').count();
        let row = report().csv_row();
        assert_eq!(row.split(',').count(), header_cols);
        let cols: Vec<&str> = row.split(',').collect();
        // Reliability columns land where the header says they do.
        assert_eq!(cols[24], "2"); // recovered_programs
        assert_eq!(cols[27], "1"); // uncorrectable_reads
                                   // The histogram stays one pipe-joined column in its locked slot.
        assert_eq!(cols[30], "90|3|1", "row was: {row}");
        // Attribution columns append after the reliability block.
        assert_eq!(cols[31], "0.125000"); // wait_mean_ms
        assert_eq!(cols[32], "0.250000"); // service_mean_ms
        assert_eq!(cols[33], "0.000000"); // gc_block_mean_ms (no samples)
                                          // Energy columns append last and are zero when disabled.
        assert_eq!(cols[34], "0"); // energy_array_fj
        assert_eq!(cols[35], "0"); // energy_bus_fj
    }

    /// Enabled energy accounting lands in the appended integer columns
    /// exactly; disabled accounting leaves the row byte-identical to the
    /// pre-energy schema plus two zero columns.
    #[test]
    fn energy_columns_are_exact_integers() {
        let mut r = report();
        r.energy = Some(EnergyTotals {
            array_fj: 123_456_789_000,
            bus_fj: 42,
        });
        let cols: Vec<String> = r.csv_row().split(',').map(str::to_string).collect();
        assert_eq!(cols[34], "123456789000");
        assert_eq!(cols[35], "42");
    }
}
