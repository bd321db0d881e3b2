//! One workload run: warm-up, timed reps, the traced rep, the isolated
//! drivers, correctness checks, and the metrics that come out.

use crate::isolated::{self, SampleCounts};
use crate::json::{number, quote};
use crate::measure::{peak_rss_mb, process_cpu_seconds, ratio, Summary};
use crate::probes::{FtlProbe, SpanRec, TimedFtl, TimedPolicy, TimedSink};
use crate::workloads::{Outcome, Workload};
use dloop_repro::dloop_ftl::DloopFtl;
use dloop_repro::ftl_kit::metrics::ShardTiming;
use dloop_repro::ftl_kit::request::HostRequest;
use dloop_repro::ftl_kit::sched::NcqPolicy;
use dloop_repro::simkit::stats::median;
use dloop_repro::simkit::{RingSink, TraceSink};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Spans the traced rep's ring keeps (the flight-recorder default).
const RING_CAPACITY: usize = 65_536;
/// Fewest timed reps a time budget may produce.
const MIN_REPS: usize = 5;
/// Most timed reps a time budget may produce.
const MAX_REPS: usize = 64;
/// A single-threaded rep whose CPU/wall ratio falls below this lost its
/// core for part of the call.
const DISTURBED_BELOW: f64 = 0.9;

/// A metric's fixed identity: name, unit, and which way is better.
pub type MetricDef = (&'static str, &'static str, &'static str);

/// The end-to-end metrics, in `BENCHMARK.json` order.
pub const END_TO_END: [MetricDef; 8] = [
    ("req_per_s", "1/s", "higher"),
    ("cpu_s_per_mreq", "s/Mreq", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("sim_mrt_us", "us", "lower"),
    ("sim_p99_us", "us", "lower"),
    ("sim_makespan_ms", "ms", "lower"),
    ("sim_waf", "ratio", "lower"),
];

/// The per-layer metrics, in `BENCHMARK.json` order.
pub const PER_LAYER: [MetricDef; 53] = [
    ("workloads.gen.ns_per_req", "ns", "lower"),
    ("ftl.read.calls", "count", "lower"),
    ("ftl.read.busy_ns", "ns", "lower"),
    ("ftl.write.calls", "count", "lower"),
    ("ftl.write.busy_ns", "ns", "lower"),
    ("ftl.write_gc.calls", "count", "lower"),
    ("ftl.write_gc.busy_ns", "ns", "lower"),
    ("ftl.steps.host", "count", "lower"),
    ("ftl.steps.gc", "count", "lower"),
    ("ftl.steps.scan", "count", "lower"),
    ("ftl.translation_reads_per_op", "ratio", "lower"),
    ("ftl.translation_writes_per_op", "ratio", "lower"),
    ("ftl.gc_per_kreq", "1/kreq", "lower"),
    ("ftl.copyback_moves", "count", "lower"),
    ("ftl.parity_skips", "count", "lower"),
    ("cmt.ns_per_op", "ns", "lower"),
    ("cmt.hit_ratio", "ratio", "higher"),
    ("cmt.evictions_per_kop", "1/kop", "lower"),
    ("nand.hw.steps", "count", "lower"),
    ("nand.hw.ns_per_step", "ns", "lower"),
    ("device.residual_ns_per_op", "ns", "lower"),
    ("device.page_ops_per_s", "1/s", "higher"),
    ("device.sim_ns_per_wall_ns", "ratio", "higher"),
    ("stats.ns_per_sample", "ns", "lower"),
    ("stats.samples", "count", "lower"),
    ("events.ns_per_event", "ns", "lower"),
    ("queue.ns_per_op", "ns", "lower"),
    ("sched.rank.calls", "count", "lower"),
    ("sched.rank.busy_ns", "ns", "lower"),
    ("sched.admit.calls", "count", "lower"),
    ("sched.lane_key.calls", "count", "lower"),
    ("sched.ranks_per_issue", "ratio", "lower"),
    ("shard.engaged", "count", "higher"),
    ("shard.partition_ms", "ms", "lower"),
    ("shard.fork_ms_max", "ms", "lower"),
    ("shard.replay_ms_max", "ms", "lower"),
    ("shard.merge_ms", "ms", "lower"),
    ("shard.critical_path_ms", "ms", "lower"),
    ("shard.wall_over_critical", "ratio", "lower"),
    ("sink.record.calls", "count", "lower"),
    ("sink.record.busy_ns", "ns", "lower"),
    ("sink.dropped", "count", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("host.cache.hit_ratio", "ratio", "higher"),
    ("host.cache.ns_per_page", "ns", "lower"),
    ("host.block.split_commands", "count", "lower"),
    ("host.block.merged_commands", "count", "higher"),
    ("host.block.ns_per_cmd", "ns", "lower"),
    ("host.queue.mean_batch", "count", "higher"),
    ("host.queue.mean_coalesced", "count", "higher"),
    ("host.queue.ns_per_cmd", "ns", "lower"),
    ("host.forwarded_per_req", "ratio", "lower"),
    ("metrics.report_ms", "ms", "lower"),
];

/// How one run is to be made.
#[derive(Debug, Clone)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// Seed of the generated traces.
    pub seed: u64,
    /// Length of the measuring phase: timed reps (each with its own
    /// set-up and checks) start until this much wall time has passed.
    pub seconds: f64,
    /// Exact number of timed reps, overriding the budget.
    pub reps: Option<usize>,
    /// Run the traced rep and the isolated drivers.
    pub trace: bool,
    /// Self-test sizes; results are stamped and never comparable.
    pub quick: bool,
    /// Where `<workload>.json` and the span log go (`None` writes nothing).
    pub out_dir: Option<PathBuf>,
}

impl Options {
    /// The defaults of a full run of `workload`.
    pub fn new(workload: Workload) -> Self {
        Options {
            workload,
            seed: 7,
            seconds: 15.0,
            reps: None,
            trace: true,
            quick: false,
            out_dir: Some(default_out_dir()),
        }
    }
}

/// `benchmark/out`, beside this package's manifest.
pub fn default_out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// One emitted metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Everything one run produced.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The options the run was made with.
    pub options: Options,
    /// Whether every correctness check held.
    pub correct: bool,
    /// Why not, when `correct` is false.
    pub failure: Option<String>,
    /// Requests replayed, over every rep.
    pub attempted: u64,
    /// Requests without a completion (all of them on a failed check).
    pub failed: u64,
    /// The digest every rep agreed on.
    pub fingerprint: u64,
    /// Timed reps made.
    pub reps: usize,
    /// Timed reps flagged as disturbed.
    pub disturbed: usize,
    /// Wall seconds of the timed call, per rep.
    pub wall_s: Vec<f64>,
    /// Process CPU seconds of the timed call, per rep.
    pub cpu_s: Vec<f64>,
    /// Set-up seconds (trace generation + device build + aging), per rep.
    pub setup_s: Vec<f64>,
    /// The end-to-end metrics.
    pub end_to_end: Vec<Metric>,
    /// The per-layer metrics (empty without `trace`).
    pub per_layer: Vec<Metric>,
}

/// One bare (untraced) rep, summarised; the report itself is handed back
/// beside it so that only the latest one stays resident.
struct Rep {
    requests: usize,
    gen_s: f64,
    setup_s: f64,
    wall_s: f64,
    cpu_s: f64,
    fingerprint: u64,
    shard: Option<ShardTiming>,
    failed_ops: usize,
    audit: Result<(), String>,
}

fn bare_rep(opts: &Options) -> (Rep, Outcome) {
    let w = opts.workload;
    let setup = Instant::now();
    let requests = w.generate(opts.seed, opts.quick);
    let gen_s = setup.elapsed().as_secs_f64();
    let aging = w.aging(opts.seed, opts.quick);
    let mut device = w.build_device(&aging, opts.quick, None);
    let setup_s = setup.elapsed().as_secs_f64();
    drop(aging);

    let cpu = process_cpu_seconds();
    let wall = Instant::now();
    let outcome = w.run(&mut device, &requests, opts.quick, None);
    let wall_s = wall.elapsed().as_secs_f64();
    let cpu_s = process_cpu_seconds() - cpu;

    let rep = Rep {
        requests: requests.len(),
        gen_s,
        setup_s,
        wall_s,
        cpu_s,
        fingerprint: outcome.fingerprint(),
        shard: outcome.device().shard_timing.clone(),
        failed_ops: outcome.failed_ops(requests.len()),
        audit: device.audit(),
    };
    (rep, outcome)
}

/// What the traced rep observed.
struct Traced {
    requests: Vec<HostRequest>,
    wall_ns: u64,
    outcome: Outcome,
    failed_ops: usize,
    audit: Result<(), String>,
    ftl: FtlProbe,
    sink: TimedSink,
    policy: TimedPolicy<NcqPolicy>,
    /// The top-level phases around (and including) the run itself.
    phases: [SpanRec; 2],
}

fn traced_rep(opts: &Options, epoch: Instant) -> Traced {
    let w = opts.workload;
    let phase = |name, start: Instant, end: Instant| SpanRec {
        name,
        start_ns: (start - epoch).as_nanos() as u64,
        end_ns: (end - epoch).as_nanos() as u64,
        req: None,
    };
    let setup = Instant::now();
    let requests = w.generate(opts.seed, opts.quick);
    let aging = w.aging(opts.seed, opts.quick);
    let mut device = w.build_device(&aging, opts.quick, Some(epoch));
    drop(aging);

    // The device serves requests in (arrival, index) order; the host stack
    // forwards its own merged commands, whose ids it does not expose.
    let service_order = if w == Workload::HostMix {
        Vec::new()
    } else {
        let mut order: Vec<usize> = (0..requests.len()).collect();
        order.sort_by_key(|&i| requests[i].arrival);
        order
            .into_iter()
            .map(|i| (i as u64, requests[i].pages))
            .collect()
    };
    let timed_ftl =
        TimedFtl::<DloopFtl>::of(device.ftl()).expect("traced device is built on a TimedFtl");
    timed_ftl.arm(service_order);
    // Attached after aging: warm-up spans would only be reset away.
    device.attach_sink(Box::new(TimedSink::new(
        Box::new(RingSink::new(RING_CAPACITY)),
        epoch,
    )));
    let mut policy = TimedPolicy::new(NcqPolicy, epoch);
    let run_start = Instant::now();

    let outcome = w.run(&mut device, &requests, opts.quick, Some(&mut policy));
    let run_end = Instant::now();

    let ftl = TimedFtl::<DloopFtl>::of(device.ftl())
        .expect("traced device is built on a TimedFtl")
        .take();
    let sink = device
        .detach_sink()
        .expect("sink stays attached through the run")
        .into_any()
        .downcast::<TimedSink>()
        .expect("attached sink is the TimedSink");
    Traced {
        wall_ns: (run_end - run_start).as_nanos() as u64,
        failed_ops: outcome.failed_ops(requests.len()),
        audit: device.audit(),
        outcome,
        ftl,
        sink: *sink,
        policy,
        phases: [
            phase("setup", setup, run_start),
            phase("run", run_start, run_end),
        ],
        requests,
    }
}

/// Attach each value to its definition. The values are written out by
/// name where they are computed; a table that drifted from that code is a
/// bug in this harness, caught here rather than mislabelled.
fn label(defs: &[MetricDef], values: Vec<(&'static str, f64)>) -> Vec<Metric> {
    assert_eq!(defs.len(), values.len(), "metric table and values differ");
    defs.iter()
        .zip(values)
        .map(|(&(name, unit, _), (computed, value))| {
            assert_eq!(name, computed, "metric table and values are out of step");
            Metric { name, value, unit }
        })
        .collect()
}

/// Run one workload as `opts` says.
pub fn run_workload(opts: &Options) -> RunResult {
    let w = opts.workload;
    let mut failure: Option<String> = None;
    let mut fail = |why: String| {
        if failure.is_none() {
            failure = Some(why);
        }
    };

    // One discarded warm-up rep pages the binary and the allocator's arenas
    // in. Its answers are still checked.
    let (warm_up, _) = bare_rep(opts);
    let requests = warm_up.requests;
    let fingerprint = warm_up.fingerprint;
    let mut attempted = requests as u64;
    let mut failed_ops = warm_up.failed_ops as u64;
    if let Err(e) = &warm_up.audit {
        fail(format!("warm-up rep: audit failed: {e}"));
    }

    let mut reps: Vec<Rep> = Vec::new();
    let mut last: Option<Outcome> = None;
    let measuring = Instant::now();
    loop {
        let done = match opts.reps {
            Some(n) => reps.len() >= n,
            None => {
                reps.len() >= MAX_REPS
                    || (reps.len() >= MIN_REPS && measuring.elapsed().as_secs_f64() >= opts.seconds)
            }
        };
        if done {
            break;
        }
        // Drop the previous report first: two are never resident at once.
        drop(last.take());
        let (rep, outcome) = bare_rep(opts);
        last = Some(outcome);
        attempted += requests as u64;
        failed_ops += rep.failed_ops as u64;
        if let Err(e) = &rep.audit {
            fail(format!("rep {}: audit failed: {e}", reps.len()));
        }
        if rep.fingerprint != fingerprint {
            fail(format!(
                "rep {}: fingerprint differs between reps",
                reps.len()
            ));
        }
        reps.push(rep);
    }
    let peak_rss = peak_rss_mb();
    let last = last.expect("at least one timed rep is always made");

    let wall_s: Vec<f64> = reps.iter().map(|r| r.wall_s).collect();
    let cpu_s: Vec<f64> = reps.iter().map(|r| r.cpu_s).collect();
    let setup_s: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    let wall = Summary::of(&wall_s);
    let cpu = Summary::of(&cpu_s);
    let setup = Summary::of(&setup_s);
    let disturbed = if w.threads() == 1 {
        reps.iter()
            .filter(|r| r.cpu_s / r.wall_s < DISTURBED_BELOW)
            .count()
    } else {
        0
    };

    let device = last.device();
    let mut latencies = last.latencies_ns();
    latencies.sort_unstable();
    // Nearest-rank p99 over the exact per-request latencies.
    let p99 = latencies
        .get((latencies.len() * 99).div_ceil(100).saturating_sub(1))
        .copied()
        .unwrap_or(0);
    let mrt_ms = match last.host() {
        Some(host) => host.mean_end_to_end_ms(),
        None => device.mean_response_time_ms(),
    };
    let end_to_end = label(
        &END_TO_END,
        vec![
            ("req_per_s", ratio(requests as f64, wall.q1)),
            ("cpu_s_per_mreq", ratio(cpu.q1 * 1e6, requests as f64)),
            ("setup_s", setup.median),
            ("peak_rss_mb", peak_rss),
            ("sim_mrt_us", mrt_ms * 1e3),
            ("sim_p99_us", p99 as f64 / 1e3),
            ("sim_makespan_ms", device.sim_end.as_millis_f64()),
            ("sim_waf", device.waf()),
        ],
    );

    let mut per_layer = Vec::new();
    let mut spans: Vec<(SpanRec, bool)> = Vec::new();
    if opts.trace {
        let epoch = Instant::now();
        let traced = traced_rep(opts, epoch);
        attempted += requests as u64;
        failed_ops += traced.failed_ops as u64;
        if let Err(e) = &traced.audit {
            fail(format!("traced rep: audit failed: {e}"));
        }
        if traced.outcome.fingerprint() != fingerprint {
            fail("traced rep: decorators changed the fingerprint".into());
        }
        let bare = Bare {
            outcome: &last,
            wall_q1_s: wall.q1,
            gen_s: reps.iter().map(|r| r.gen_s).fold(f64::INFINITY, f64::min),
            shard: reps
                .iter()
                .filter_map(|r| Some((r.shard.clone()?, r.wall_s)))
                .collect(),
            reps: reps.len(),
        };
        match per_layer_values(opts, &traced, &bare, epoch, &mut spans) {
            Ok(values) => per_layer = label(&PER_LAYER, values),
            Err(e) => fail(e),
        }
        for s in traced
            .ftl
            .spans
            .iter()
            .chain(&traced.sink.spans)
            .chain(&traced.policy.spans)
        {
            spans.push((*s, true));
        }
    }

    let correct = failure.is_none() && failed_ops == 0;
    let result = RunResult {
        options: opts.clone(),
        correct,
        failed: if failure.is_some() {
            attempted
        } else {
            failed_ops
        },
        failure,
        attempted,
        fingerprint,
        reps: reps.len(),
        disturbed,
        wall_s,
        cpu_s,
        setup_s,
        end_to_end,
        per_layer,
    };
    if let Some(dir) = &opts.out_dir {
        if let Err(e) = write_outputs(dir, &result, &mut spans) {
            eprintln!(
                "warning: could not write results under {}: {e}",
                dir.display()
            );
        }
    }
    result
}

/// What the per-layer metrics need from the bare reps.
struct Bare<'a> {
    /// The latest bare report.
    outcome: &'a Outcome,
    /// Lower-quartile wall of the timed call.
    wall_q1_s: f64,
    /// Fastest trace generation.
    gen_s: f64,
    /// Phase breakdown and wall of every rep the sharded engine served.
    shard: Vec<(ShardTiming, f64)>,
    /// Timed reps made.
    reps: usize,
}

/// The per-layer values by name, in [`PER_LAYER`] order, or why an
/// isolated driver's operation count disagrees with the run's own report.
fn per_layer_values(
    opts: &Options,
    traced: &Traced,
    bare: &Bare<'_>,
    epoch: Instant,
    spans: &mut Vec<(SpanRec, bool)>,
) -> Result<Vec<(&'static str, f64)>, String> {
    let w = opts.workload;
    let config = w.config(opts.quick);
    let device = traced.outcome.device();
    let requests = traced.requests.len() as f64;
    let page_ops = device.pages_read + device.pages_written;
    let hw_ops =
        device.hw.reads + device.hw.writes + device.hw.copybacks + device.hw.interplane_copies;
    let ftl = &traced.ftl;

    spans.extend(traced.phases.map(|rec| (rec, false)));
    let mut phase = |name: &'static str, start: Instant| {
        let rec = SpanRec {
            name,
            start_ns: (start - epoch).as_nanos() as u64,
            end_ns: epoch.elapsed().as_nanos() as u64,
            req: None,
        };
        spans.push((rec, false));
    };

    let t = Instant::now();
    let cmt = isolated::cmt(&config, w.warm_lpns(opts.quick), &ftl.ops);
    phase("isolated.cmt", t);
    if cmt.ops != page_ops {
        return Err(format!(
            "cmt driver replayed {} ops, run reported {page_ops}",
            cmt.ops
        ));
    }
    if ftl.calls() != page_ops {
        return Err(format!(
            "TimedFtl saw {} calls, run reported {page_ops}",
            ftl.calls()
        ));
    }

    let t = Instant::now();
    let (hw_steps, hw_ns_per_step) = isolated::hardware(&config, &ftl.steps);
    phase("isolated.nand.hardware", t);
    if hw_steps != ftl.total_steps() {
        return Err(format!(
            "hardware driver executed {hw_steps} steps, TimedFtl captured {}",
            ftl.total_steps()
        ));
    }

    let counts = SampleCounts {
        per_op: [
            device.wait_ms.count(),
            device.service_ms.count(),
            device.gc_block_ms.count(),
        ],
        responses: device.response_ms.count(),
    };
    if device.response_hist_us.count() != counts.responses {
        return Err("response histogram and accumulator disagree on the sample count".into());
    }
    let t = Instant::now();
    let (samples, stats_ns) = isolated::stats(counts);
    phase("isolated.simkit.stats", t);

    let t = Instant::now();
    let events_ns = isolated::events(traced.requests.len() as u64 + page_ops);
    let queue_ns = isolated::pending(page_ops);
    phase("isolated.simkit.queues", t);

    let host_cost = match traced.outcome.host() {
        Some(_) => {
            let t = Instant::now();
            let cost = isolated::host(&Workload::host_config(opts.quick), &traced.requests);
            phase("isolated.host", t);
            cost
        }
        None => isolated::HostCost::default(),
    };

    let t = Instant::now();
    std::hint::black_box(device.csv_row());
    std::hint::black_box(device.queue_depth_csv(64));
    std::hint::black_box(traced.outcome.fingerprint());
    let report_ms = t.elapsed().as_secs_f64() * 1e3;

    let busy_ns = ftl.busy_ns() + traced.sink.record.busy_ns + traced.policy.rank.busy_ns;
    if busy_ns > traced.wall_ns {
        return Err(format!(
            "in-situ busy time {busy_ns} ns exceeds the traced wall {} ns",
            traced.wall_ns
        ));
    }
    let wall_q1_s = bare.wall_q1_s;
    let engaged = w.threads() > 1 && bare.shard.len() == bare.reps;
    let shard_median = |f: &dyn Fn(&ShardTiming, f64) -> f64| {
        let values: Vec<f64> = bare.shard.iter().map(|(t, wall)| f(t, *wall)).collect();
        median(&values)
    };
    let host = traced.outcome.host();
    let cache_reads = host.map_or(0, |h| h.cache.read_hits + h.cache.read_misses);

    Ok(vec![
        (
            "workloads.gen.ns_per_req",
            ratio(bare.gen_s * 1e9, requests),
        ),
        ("ftl.read.calls", ftl.read.calls as f64),
        ("ftl.read.busy_ns", ftl.read.busy_ns as f64),
        ("ftl.write.calls", ftl.write.calls as f64),
        ("ftl.write.busy_ns", ftl.write.busy_ns as f64),
        ("ftl.write_gc.calls", ftl.write_gc.calls as f64),
        ("ftl.write_gc.busy_ns", ftl.write_gc.busy_ns as f64),
        ("ftl.steps.host", ftl.steps_by_phase[0] as f64),
        ("ftl.steps.gc", ftl.steps_by_phase[1] as f64),
        ("ftl.steps.scan", ftl.steps_by_phase[2] as f64),
        (
            "ftl.translation_reads_per_op",
            ratio(device.ftl.translation_reads as f64, page_ops as f64),
        ),
        (
            "ftl.translation_writes_per_op",
            ratio(device.ftl.translation_writes as f64, page_ops as f64),
        ),
        (
            "ftl.gc_per_kreq",
            ratio(device.ftl.gc_invocations as f64 * 1e3, requests),
        ),
        ("ftl.copyback_moves", device.ftl.copyback_moves as f64),
        ("ftl.parity_skips", device.ftl.parity_skips as f64),
        ("cmt.ns_per_op", cmt.ns_per_op),
        ("cmt.hit_ratio", cmt.hit_ratio),
        ("cmt.evictions_per_kop", cmt.evictions_per_kop),
        ("nand.hw.steps", hw_steps as f64),
        ("nand.hw.ns_per_step", hw_ns_per_step),
        (
            "device.residual_ns_per_op",
            ratio((traced.wall_ns - busy_ns) as f64, page_ops as f64),
        ),
        ("device.page_ops_per_s", ratio(hw_ops as f64, wall_q1_s)),
        (
            "device.sim_ns_per_wall_ns",
            ratio(
                bare.outcome.device().sim_end.as_nanos() as f64,
                wall_q1_s * 1e9,
            ),
        ),
        ("stats.ns_per_sample", stats_ns),
        ("stats.samples", samples as f64),
        ("events.ns_per_event", events_ns),
        ("queue.ns_per_op", queue_ns),
        ("sched.rank.calls", traced.policy.rank.calls as f64),
        ("sched.rank.busy_ns", traced.policy.rank.busy_ns as f64),
        ("sched.admit.calls", traced.policy.admit_calls as f64),
        ("sched.lane_key.calls", traced.policy.lane_key_calls as f64),
        (
            "sched.ranks_per_issue",
            ratio(traced.policy.rank.calls as f64, traced.policy.issues as f64),
        ),
        ("shard.engaged", engaged as u8 as f64),
        ("shard.partition_ms", shard_median(&|t, _| t.partition_ms)),
        ("shard.fork_ms_max", shard_median(&|t, _| t.max_fork_ms())),
        (
            "shard.replay_ms_max",
            shard_median(&|t, _| t.max_worker_ms()),
        ),
        ("shard.merge_ms", shard_median(&|t, _| t.merge_ms)),
        (
            "shard.critical_path_ms",
            shard_median(&|t, _| t.critical_path_ms()),
        ),
        (
            "shard.wall_over_critical",
            shard_median(&|t, wall| ratio(wall * 1e3, t.critical_path_ms())),
        ),
        ("sink.record.calls", traced.sink.record.calls as f64),
        ("sink.record.busy_ns", traced.sink.record.busy_ns as f64),
        ("sink.dropped", traced.sink.dropped() as f64),
        (
            "trace.overhead_pct",
            (ratio(traced.wall_ns as f64, wall_q1_s * 1e9) - 1.0) * 100.0,
        ),
        (
            "host.cache.hit_ratio",
            ratio(
                host.map_or(0, |h| h.cache.read_hits) as f64,
                cache_reads as f64,
            ),
        ),
        ("host.cache.ns_per_page", host_cost.cache_ns_per_page),
        (
            "host.block.split_commands",
            host.map_or(0, |h| h.split_commands) as f64,
        ),
        (
            "host.block.merged_commands",
            host.map_or(0, |h| h.merged_commands) as f64,
        ),
        ("host.block.ns_per_cmd", host_cost.block_ns_per_cmd),
        (
            "host.queue.mean_batch",
            host.map_or(0.0, |h| h.queues.mean_batch()),
        ),
        (
            "host.queue.mean_coalesced",
            host.map_or(0.0, |h| h.queues.mean_coalesced()),
        ),
        ("host.queue.ns_per_cmd", host_cost.queue_ns_per_cmd),
        (
            "host.forwarded_per_req",
            ratio(host.map_or(0, |h| h.forwarded) as f64, requests),
        ),
        ("metrics.report_ms", report_ms),
    ])
}

fn metrics_json(metrics: &[Metric]) -> String {
    let members: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(m.name),
                number(m.value),
                quote(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", members.join(", "))
}

impl RunResult {
    /// The one-line result object the benchmark contract asks for, over
    /// `metrics`.
    pub fn contract_line(&self, metrics: &[Metric]) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics_json(metrics)
        )
    }

    /// The full `out/<workload>.json` document.
    pub fn to_json(&self) -> String {
        let list = |v: &[f64]| {
            let items: Vec<String> = v.iter().map(|&x| number(x)).collect();
            format!("[{}]", items.join(", "))
        };
        let o = &self.options;
        let mut s = String::from("{\n");
        let mut field = |key: &str, value: String| {
            s.push_str(&format!("  {}: {},\n", quote(key), value));
        };
        field("workload", quote(o.workload.name()));
        field("quick", o.quick.to_string());
        field("seed", o.seed.to_string());
        field("seconds", number(o.seconds));
        field("reps", self.reps.to_string());
        field("warmup_reps", "1".into());
        field("traced", o.trace.to_string());
        field("threads", o.workload.threads().to_string());
        field(
            "host_cpus",
            dloop_repro::ftl_kit::host_parallelism().to_string(),
        );
        field("rustc", quote(&tool_line("rustc", &["-V"])));
        field("commit", quote(&tool_line("git", &["rev-parse", "HEAD"])));
        field("correct", self.correct.to_string());
        field(
            "failure",
            self.failure.as_deref().map_or("null".into(), quote),
        );
        field("ops_attempted", self.attempted.to_string());
        field("ops_failed", self.failed.to_string());
        field(
            "ops_failed_share",
            number(ratio(self.failed as f64, self.attempted as f64)),
        );
        field("fingerprint", quote(&format!("{:#018x}", self.fingerprint)));
        field("disturbed_reps", self.disturbed.to_string());
        field("wall_s", Summary::of(&self.wall_s).to_json());
        field("cpu_s", Summary::of(&self.cpu_s).to_json());
        field("setup_s", Summary::of(&self.setup_s).to_json());
        field("rep_wall_s", list(&self.wall_s));
        field("rep_cpu_s", list(&self.cpu_s));
        field("rep_setup_s", list(&self.setup_s));
        field("end_to_end", metrics_json(&self.end_to_end));
        s.push_str(&format!(
            "  \"per_layer\": {}\n}}\n",
            metrics_json(&self.per_layer)
        ));
        s
    }
}

/// First output line of `tool args…`, run beside this package's manifest;
/// `unknown` when the tool is missing or fails (a source checkout without
/// git history, say).
fn tool_line(tool: &str, args: &[&str]) -> String {
    std::process::Command::new(tool)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| {
            let text = String::from_utf8_lossy(&out.stdout);
            text.lines().next().map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Write `<workload>.json` and, for a traced run, the span log. Span ids
/// are positions in start order; every in-run span's parent is the `run`
/// span, the phases around it have none.
fn write_outputs(
    dir: &Path,
    result: &RunResult,
    spans: &mut [(SpanRec, bool)],
) -> std::io::Result<()> {
    use std::io::Write;
    std::fs::create_dir_all(dir)?;
    let name = result.options.workload.name();
    std::fs::write(dir.join(format!("{name}.json")), result.to_json())?;
    if spans.is_empty() {
        return Ok(());
    }
    spans.sort_by_key(|(s, in_run)| (s.start_ns, *in_run));
    let run_id = spans
        .iter()
        .position(|(s, in_run)| !in_run && s.name == "run");
    let file = std::fs::File::create(dir.join(format!("trace_{name}.jsonl")))?;
    let mut out = std::io::BufWriter::new(file);
    for (id, (s, in_run)) in spans.iter().enumerate() {
        let parent = match (in_run, run_id) {
            (true, Some(run)) => run.to_string(),
            _ => "null".into(),
        };
        writeln!(
            out,
            "{{\"id\": {id}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"req\": {}}}",
            quote(s.name),
            s.start_ns,
            s.end_ns,
            s.req.map_or("null".into(), |r| r.to_string())
        )?;
    }
    out.flush()
}
