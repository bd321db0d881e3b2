//! The `trace` subcommand: run a workload with op-level tracing enabled
//! and dump its artifacts — a Chrome `trace_event` JSON (load it in
//! `chrome://tracing` or Perfetto: one track per plane, one per channel,
//! with flow arrows stitching each host request across resources), plane-
//! and channel-utilization timeline CSVs, the per-plane/per-channel power
//! timeline (`trace_power.csv`, integer femtojoules that sum exactly to
//! the run report's energy totals), the complete span journal as JSONL,
//! and the aggregated latency-attribution table (plane-wait vs
//! channel-wait vs bus vs cell vs retry, split by host/GC/scan phase).
//!
//! Tracing runs through one [`RingSink`] that never evicts: it feeds the
//! interactive exports, and the JSONL journal is rendered from it span by
//! span. The command doubles as a self-check of the tracing layer: it
//! asserts that exactly one span was recorded per hardware operation, that
//! the ring dropped nothing, and that the Chrome export and every JSONL
//! line are valid JSON — so the `verify.sh` smoke step fails loudly if the
//! recorder ever drifts from the hardware counters.
//!
//! The replay admission policy follows `--mode` (open by default; gated,
//! or NCQ with `--depth`), and alongside the span artifacts the
//! command emits `trace_queue_depth.csv` — the host-queue occupancy
//! timeline every replay driver records through its `QueueDepthProbe`
//! (in-flight / pending counts plus admitted / completed deltas per
//! sim-time bucket). Its shape and conservation laws are self-checked
//! here too.

use super::ExpOptions;
use crate::runner::build_ftl;
use crate::table::{f, Table};
use dloop_ftl_kit::config::{FtlKind, SsdConfig};
use dloop_ftl_kit::device::SsdDevice;
use dloop_simkit::trace::{
    attribution, channel_utilization_csv, chrome_trace_json, json_lint, plane_utilization_csv,
    power_csv, span_jsonl, QueueDepthProbe, RingSink,
};
use dloop_simkit::SpanPhase;
use dloop_workloads::WorkloadProfile;

/// Utilization-timeline resolution.
const UTIL_BUCKETS: usize = 64;

/// Default request budget when `--requests` is not given: the trace
/// artifacts are meant for interactive inspection, not full-length runs.
const DEFAULT_REQUESTS: u64 = 20_000;

/// Run the traced workload and emit the artifacts.
pub fn run(opts: &ExpOptions) -> Vec<Table> {
    // Energy accounting on: the power timeline is a tracing artifact, and
    // outside the PowerCap scheduling mode accounting is observation-only
    // (the replay schedule is untouched).
    let energy = dloop_nand::EnergyConfig::paper_default();
    let config = SsdConfig::paper_default()
        .with_capacity_gb(opts.scaled_capacity(4))
        .with_energy(energy);
    let geometry = config.geometry();
    let profile = opts.scaled_profile(WorkloadProfile::financial1());
    let requests = if opts.max_requests == 0 {
        DEFAULT_REQUESTS
    } else {
        opts.max_requests
    };
    let trace = profile.generate_scaled(opts.seed, geometry.page_size, requests);

    let ftl = build_ftl(FtlKind::Dloop, &config);
    let mut device = SsdDevice::new(config, ftl);
    device.attach_sink(Box::new(RingSink::new(usize::MAX)));
    let report = device.run_with(&trace.requests, opts.replay_mode().into());
    let rec = device.take_trace().expect("the attached sink is the ring");

    // Self-check: one span per hardware operation, nothing more or less,
    // and the ring that never evicts kept them all.
    let hw_ops = report.hw.reads
        + report.hw.writes
        + report.hw.erases
        + report.hw.copybacks
        + report.hw.interplane_copies;
    assert_eq!(
        rec.recorded(),
        hw_ops,
        "flight recorder drifted from the hardware counters"
    );
    assert_eq!(rec.dropped(), 0, "an unbounded ring must record zero drops");
    let mut jsonl = String::new();
    let mut journal_lines = 0u64;
    for span in rec.spans() {
        let line = span_jsonl(span);
        json_lint(&line).expect("every span JSONL line must be valid JSON");
        jsonl.push_str(&line);
        jsonl.push('\n');
        journal_lines += 1;
    }
    assert_eq!(
        journal_lines, hw_ops,
        "span journal must hold one line per hardware operation"
    );

    let chrome = chrome_trace_json(&rec);
    json_lint(&chrome).expect("Chrome trace export must be valid JSON");
    let util = plane_utilization_csv(&rec, geometry.total_planes() as usize, UTIL_BUCKETS);
    let chan_util = channel_utilization_csv(&rec, geometry.channels as usize, UTIL_BUCKETS);
    let power = power_csv(
        &rec,
        geometry.total_planes() as usize,
        geometry.channels as usize,
        UTIL_BUCKETS,
        energy.array_active_uw,
        energy.bus_active_uw,
    );
    // The power timeline and the report's energy totals are the same
    // integer measurement, since the ring kept every span.
    let totals = report
        .energy
        .expect("energy accounting was enabled for the traced run");
    let csv_fj: u64 = power
        .lines()
        .skip(1)
        .map(|l| {
            l.rsplit(',')
                .next()
                .and_then(|v| v.parse::<u64>().ok())
                .expect("power_csv rows end in an integer total")
        })
        .sum();
    assert_eq!(
        csv_fj,
        totals.total_fj(),
        "power timeline must sum exactly to the report's femtojoule totals"
    );

    // Queue-depth timeline: every replay driver records its probe, so the
    // export is meaningful for all --mode values. Self-check the shape and
    // the conservation laws before writing it anywhere.
    let queue_csv = report.queue_depth_csv(UTIL_BUCKETS);
    let mut queue_lines = queue_csv.lines();
    assert_eq!(
        queue_lines.next(),
        Some(QueueDepthProbe::csv_header()),
        "queue-depth CSV header drifted from the locked schema"
    );
    let (mut admitted, mut completed, mut rows) = (0u64, 0u64, 0usize);
    let mut final_counts = (0u64, 0u64);
    for line in queue_lines {
        let cols: Vec<&str> = line.split(',').collect();
        assert_eq!(cols.len(), 5, "queue-depth CSV row must have 5 columns");
        let n = |i: usize| cols[i].parse::<u64>().expect("integer column");
        final_counts = (n(1), n(2));
        admitted += n(3);
        completed += n(4);
        rows += 1;
    }
    assert_eq!(rows, UTIL_BUCKETS, "one queue-depth row per bucket");
    assert_eq!(
        admitted as usize,
        report.queue_log.len(),
        "every tracked unit admitted exactly once"
    );
    assert_eq!(completed, admitted, "every admitted unit completed");
    assert_eq!(
        final_counts,
        (0, 0),
        "queues must drain by the end of the replay"
    );

    if let Some(dir) = &opts.out_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("warning: could not create {}: {e}", dir.display());
        } else {
            for (name, body) in [
                ("trace_chrome.json", &chrome),
                ("trace_plane_util.csv", &util),
                ("trace_channel_util.csv", &chan_util),
                ("trace_power.csv", &power),
                ("trace_queue_depth.csv", &queue_csv),
                ("trace_spans.jsonl", &jsonl),
            ] {
                let path = dir.join(name);
                match std::fs::write(&path, body) {
                    Ok(()) => eprintln!("wrote {}", path.display()),
                    Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
                }
            }
        }
    }

    let attr = attribution(&rec);
    let mut table = Table::new(
        format!(
            "Latency attribution — {} spans over {} requests ({} dropped from the ring)",
            rec.recorded(),
            report.requests_completed,
            rec.dropped()
        ),
        &[
            "phase",
            "spans",
            "plane_wait_ms",
            "channel_wait_ms",
            "bus_ms",
            "cell_ms",
            "retry_ms",
            "total_ms",
        ],
    );
    for phase in SpanPhase::all() {
        let r = attr.row(phase);
        table.row(vec![
            phase.name().to_string(),
            r.spans.to_string(),
            f(r.plane_wait_ns as f64 / 1e6),
            f(r.channel_wait_ns as f64 / 1e6),
            f(r.bus_ns as f64 / 1e6),
            f(r.cell_ns as f64 / 1e6),
            f(r.retry_ns as f64 / 1e6),
            f(r.residence_ns as f64 / 1e6),
        ]);
    }

    let mut summary = Table::new("Trace summary", &["metric", "value"]);
    summary.row(vec!["replay_mode".into(), opts.mode.name().into()]);
    summary.row(vec![
        "queue_units_tracked".into(),
        report.queue_log.len().to_string(),
    ]);
    summary.row(vec!["spans_recorded".into(), rec.recorded().to_string()]);
    summary.row(vec!["spans_retained".into(), rec.len().to_string()]);
    summary.row(vec!["ring_dropped".into(), rec.dropped().to_string()]);
    // The `stream` rows describe the JSONL journal (`trace_spans.jsonl`).
    summary.row(vec!["spans_streamed".into(), journal_lines.to_string()]);
    summary.row(vec!["stream_dropped".into(), "0".into()]);
    summary.row(vec![
        "request_visible_ms".into(),
        f(attr.request_visible_ns() as f64 / 1e6),
    ]);
    summary.row(vec!["response_sum_ms".into(), f(report.response_ms.sum())]);
    summary.row(vec!["mrt_ms".into(), f(report.mean_response_time_ms())]);
    if let Some(e) = report.energy {
        summary.row(vec!["energy_total_mj".into(), f(e.total_mj())]);
    }

    vec![table, summary]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The subcommand's in-process assertions (span count vs hardware
    /// counters, zero ring drops, JSON validity of the Chrome export and
    /// every journal line, queue-CSV shape and conservation) are the real
    /// test; this just runs them on a small budget without touching the
    /// filesystem.
    #[test]
    fn trace_command_self_checks_pass() {
        let opts = ExpOptions {
            max_requests: 300,
            out_dir: None,
            ..ExpOptions::default()
        };
        let tables = run(&opts);
        assert_eq!(tables.len(), 2);
        // Host spans exist on any non-empty workload.
        assert!(
            tables[0].len() == SpanPhase::all().len(),
            "one attribution row per phase"
        );
    }

    /// Same self-checks under the NCQ scheduler — the mode the verify.sh
    /// smoke step replays (`--mode ncq`).
    #[test]
    fn trace_command_self_checks_pass_in_ncq_mode() {
        let opts = ExpOptions {
            max_requests: 300,
            out_dir: None,
            mode: super::super::TraceMode::Ncq,
            queue_depth: 8,
            ..ExpOptions::default()
        };
        let tables = run(&opts);
        assert_eq!(tables.len(), 2);
        let rendered = tables[1].render();
        assert!(rendered.contains("ncq"), "summary names the replay mode");
    }
}
