//! Host-stack sweeps (beyond the paper): replay the host-cache
//! contention mix through the `dloop-host` NVMe-style front end and
//! sweep the two knobs the stack trades latency against efficiency on.
//!
//! Three tables come out, all on [`dloop_workloads::tenants::host_mix`]
//! (a cache-friendly hot-set reader, a write-heavy OLTP stream, and a
//! cache-hostile scanner):
//!
//! * **Interrupt-coalescing sweep** — doorbell batch size and interrupt
//!   coalescing threshold rise together; submissions amortize MMIO rings
//!   and completions aggregate per interrupt, at the price of host-queue
//!   and completion latency. The columns decompose each setting's mean
//!   end-to-end latency into the four host phases, which tile it exactly
//!   (claim C13).
//! * **Dirty-ratio sweep** — a fixed write-back cache flushes its dirty
//!   set at increasing dirty fractions; later flushes mean fewer,
//!   larger write-back bursts and more absorbed overwrites.
//! * **Queue-depth sweep** — the interleaved driver's per-queue SQ
//!   windows shrink from unbounded (depth 0 in the table) down to one
//!   slot; backpressure moves residence out of the device and into the
//!   host queue, and the occupancy column shows the windows holding
//!   (claim C14).
//!
//! All three CSV schemas are locked by unit tests here and smoke-checked
//! by `scripts/verify.sh`.

use super::ExpOptions;
use crate::runner::build_ftl;
use crate::table::{f, f2, Table};
use dloop_ftl_kit::config::{FtlKind, SsdConfig};
use dloop_ftl_kit::device::{ReplayMode, SsdDevice};
use dloop_host::{HostConfig, HostRunReport, HostStack};
use dloop_simkit::SimDuration;
use dloop_workloads::{host_mix, Trace};

/// Locked column schema of the coalescing sweep (`host_0.csv`).
const COALESCE_HEADER: [&str; 9] = [
    "batch",
    "coalesce",
    "e2e_ms",
    "host_queue_ms",
    "cache_ms",
    "device_ms",
    "completion_ms",
    "mean_batch",
    "mean_coalesced",
];

/// Locked column schema of the dirty-ratio sweep (`host_1.csv`).
const DIRTY_HEADER: [&str; 7] = [
    "dirty_ratio",
    "e2e_ms",
    "cache_served_pct",
    "writes_absorbed",
    "writeback_cmds",
    "flushes",
    "forwarded",
];

/// Locked column schema of the queue-depth sweep (`host_2.csv`); depth
/// `0` is the unbounded row.
const DEPTH_HEADER: [&str; 7] = [
    "depth",
    "e2e_ms",
    "host_queue_ms",
    "device_ms",
    "completion_ms",
    "depth_stalls",
    "max_sq_inflight",
];

/// One sweep cell: run the mix through a host stack with `config`.
fn measure(ssd: &SsdConfig, trace: &Trace, host: HostConfig) -> HostRunReport {
    let mut device = SsdDevice::new(ssd.clone(), build_ftl(FtlKind::Dloop, ssd));
    HostStack::new(host).run(&mut device, &trace.requests, ReplayMode::Open)
}

/// Mean milliseconds over the run for one summed phase total.
fn per_request_ms(total_ns: u64, requests: usize) -> f64 {
    if requests == 0 {
        return 0.0;
    }
    total_ns as f64 / 1e6 / requests as f64
}

/// The sweeps on an arbitrary device (the unit test uses the micro
/// config; the CLI uses the scaled paper device).
fn run_on(opts: &ExpOptions, config: SsdConfig, per_tenant: u64) -> Vec<Table> {
    let geometry = config.geometry();
    let footprint = geometry.user_pages() * geometry.page_size as u64 / 2;
    let trace = host_mix(opts.seed, geometry.page_size, per_tenant, footprint);
    let cache_pages = (geometry.user_pages() / 8).max(64);

    // Sweep 1: doorbell batching and interrupt coalescing rise together
    // (1/1 is the no-amortization corner; the cache stays on throughout
    // so the cache_ms column is comparable across rows).
    let mut coalesce = Table::new(
        format!(
            "Host coalescing sweep — {} requests, cache {} pages",
            trace.len(),
            cache_pages
        ),
        &COALESCE_HEADER,
    );
    for (batch, threshold) in [(1u32, 1u32), (2, 2), (4, 4), (8, 8), (16, 16)] {
        let host = HostConfig {
            doorbell_batch: batch,
            doorbell_timeout: Some(SimDuration::from_micros(20)),
            coalesce_threshold: threshold,
            coalesce_timeout: Some(SimDuration::from_micros(50)),
            ..HostConfig::buffered(cache_pages)
        };
        let report = measure(&config, &trace, host);
        let n = report.requests.len();
        let (hq, cache, dev, compl, _e2e) = report.phase_totals_ns();
        coalesce.row(vec![
            batch.to_string(),
            threshold.to_string(),
            f(report.mean_end_to_end_ms()),
            f(per_request_ms(hq, n)),
            f(per_request_ms(cache, n)),
            f(per_request_ms(dev, n)),
            f(per_request_ms(compl, n)),
            f2(report.queues.mean_batch()),
            f2(report.queues.mean_coalesced()),
        ]);
    }

    // Sweep 2: the write-back threshold, everything else at the
    // representative buffered setting.
    let mut dirty = Table::new(
        format!(
            "Host dirty-ratio sweep — {} requests, cache {} pages",
            trace.len(),
            cache_pages
        ),
        &DIRTY_HEADER,
    );
    for ratio in [0.1, 0.25, 0.5, 0.75, 0.9] {
        let host = HostConfig {
            dirty_ratio: ratio,
            ..HostConfig::buffered(cache_pages)
        };
        let report = measure(&config, &trace, host);
        dirty.row(vec![
            f2(ratio),
            f(report.mean_end_to_end_ms()),
            f2(report.cache_served_fraction() * 100.0),
            report.cache.writes_absorbed.to_string(),
            report.writeback_commands.to_string(),
            report.cache.flushed.to_string(),
            report.forwarded.to_string(),
        ]);
    }

    // Sweep 3: the per-queue SQ window, cache off so every request rides
    // the interleaved submission path (depth 0 = unbounded reference).
    let mut depth_sweep = Table::new(
        format!(
            "Host queue-depth sweep — {} requests, 2 SQs, interleaved driver",
            trace.len()
        ),
        &DEPTH_HEADER,
    );
    for depth in [0u32, 1, 2, 4, 16] {
        let host = HostConfig {
            queues: 2,
            queue_depth: (depth > 0).then_some(depth),
            ..HostConfig::passthrough()
        };
        let report = measure(&config, &trace, host);
        let n = report.requests.len();
        let (hq, _cache, dev, compl, _e2e) = report.phase_totals_ns();
        depth_sweep.row(vec![
            depth.to_string(),
            f(report.mean_end_to_end_ms()),
            f(per_request_ms(hq, n)),
            f(per_request_ms(dev, n)),
            f(per_request_ms(compl, n)),
            report.queues.depth_stalls.to_string(),
            report.sq_log.max_in_flight().to_string(),
        ]);
    }

    vec![coalesce, dirty, depth_sweep]
}

/// CLI entry point (`dloop-experiments host`).
pub fn run(opts: &ExpOptions) -> Vec<Table> {
    let config = SsdConfig::paper_default().with_capacity_gb(opts.scaled_capacity(4));
    let per_tenant = if opts.max_requests == 0 {
        10_000
    } else {
        (opts.max_requests / 3).max(1)
    };
    run_on(opts, config, per_tenant)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweeps_emit_locked_schemas_and_engage_the_stack() {
        let opts = ExpOptions::default();
        let tables = run_on(&opts, SsdConfig::micro_gc_test(), 300);
        assert_eq!(tables.len(), 3);
        assert_eq!(tables[0].len(), 5, "five coalescing settings");
        assert_eq!(tables[1].len(), 5, "five dirty ratios");
        assert_eq!(tables[2].len(), 5, "five queue depths");
        let c = tables[0].to_csv();
        assert!(c.starts_with(&COALESCE_HEADER.join(",")), "{c}");
        let d = tables[1].to_csv();
        assert!(d.starts_with(&DIRTY_HEADER.join(",")), "{d}");
        let q = tables[2].to_csv();
        assert!(q.starts_with(&DEPTH_HEADER.join(",")), "{q}");
        // The stack actually engaged: deeper coalescing aggregates more
        // completions per interrupt than the 1/1 corner.
        let last = c.lines().last().unwrap();
        let coalesced: f64 = last.split(',').last().unwrap().parse().unwrap();
        assert!(coalesced > 1.0, "16/16 row never coalesced: {last}");
        // The interleaved windows engaged: the depth-1 row stalled
        // submissions and never exceeded one in-flight command per SQ.
        let depth1 = q.lines().nth(2).unwrap();
        let cols: Vec<&str> = depth1.split(',').collect();
        assert_eq!(cols[0], "1");
        assert!(cols[5].parse::<u64>().unwrap() > 0, "no stalls: {depth1}");
        assert!(
            cols[6].parse::<u64>().unwrap() <= 2,
            "windows leaked: {depth1}"
        );
    }

    #[test]
    fn sweeps_are_deterministic() {
        let opts = ExpOptions::default();
        let a = run_on(&opts, SsdConfig::micro_gc_test(), 200);
        let b = run_on(&opts, SsdConfig::micro_gc_test(), 200);
        assert_eq!(a[0].to_csv(), b[0].to_csv());
        assert_eq!(a[1].to_csv(), b[1].to_csv());
        assert_eq!(a[2].to_csv(), b[2].to_csv());
    }
}
