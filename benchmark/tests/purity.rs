//! The decorators are pure observers: a run through any of them is
//! fingerprint-identical to the bare run, on a device small enough that
//! garbage collection is part of the story.

use dloop_benchmark::probes::{TimedFtl, TimedPolicy, TimedSink};
use dloop_repro::dloop_ftl::DloopFtl;
use dloop_repro::ftl_kit::config::SsdConfig;
use dloop_repro::ftl_kit::device::{RunConfig, SsdDevice};
use dloop_repro::ftl_kit::request::HostRequest;
use dloop_repro::ftl_kit::sched::NcqPolicy;
use dloop_repro::host::report_fingerprint;
use dloop_repro::simkit::{RingSink, TraceSink};
use dloop_repro::workloads::synth::{uniform_random, UniformParams};
use std::time::Instant;

fn config() -> SsdConfig {
    SsdConfig::micro_gc_test()
}

/// Mixed multi-page traffic over most of the micro device: enough
/// overwrites that every plane collects.
fn trace() -> Vec<HostRequest> {
    let space = config().geometry().user_pages() * 9 / 10;
    uniform_random(
        &UniformParams {
            requests: 4_000,
            write_ratio: 0.8,
            pages_per_req: 3,
            space_pages: space,
            rate_per_sec: 20_000.0,
        },
        11,
    )
    .requests
}

fn bare_device() -> SsdDevice {
    SsdDevice::new(config(), Box::new(DloopFtl::new(&config())))
}

fn timed_device(epoch: Instant) -> SsdDevice {
    let ftl = TimedFtl::new(DloopFtl::new(&config()), epoch);
    SsdDevice::new(config(), Box::new(ftl))
}

fn probe(device: &SsdDevice) -> &TimedFtl<DloopFtl> {
    TimedFtl::of(device.ftl()).expect("device is built on a TimedFtl")
}

#[test]
fn timed_ftl_is_a_pure_observer_and_forwards_the_read_side() {
    let requests = trace();
    let mut bare = bare_device();
    let bare_report = bare.run_with(&requests, RunConfig::open());
    assert!(
        bare_report.ftl.gc_invocations > 0,
        "the purity trace must reach GC"
    );

    let mut timed = timed_device(Instant::now());
    probe(&timed).arm(Vec::new());
    let timed_report = timed.run_with(&requests, RunConfig::open());
    assert_eq!(
        report_fingerprint(&timed_report),
        report_fingerprint(&bare_report)
    );
    timed.audit().expect("audit forwards and passes");

    // mapped_ppn / counters / name answer exactly as the bare FTL does.
    for lpn in (0..config().geometry().user_pages()).step_by(7) {
        assert_eq!(timed.ftl().mapped_ppn(lpn), bare.ftl().mapped_ppn(lpn));
    }
    assert_eq!(timed.ftl().counters(), bare.ftl().counters());
    assert_eq!(timed.ftl().name(), bare.ftl().name());

    // …and the shard hooks stay at the opt-out defaults.
    assert!(!timed.ftl().shard_translation_ready(timed.flash()));
    assert!(timed.ftl().shard_fork(0..1).is_none());

    let seen = probe(&timed).take();
    let page_ops = timed_report.pages_read + timed_report.pages_written;
    assert_eq!(seen.calls(), page_ops);
    assert_eq!(seen.ops.len() as u64, page_ops);
    assert_eq!(seen.read.calls, timed_report.pages_read);
    assert!(seen.write_gc.calls > 0 && seen.write_gc.calls < seen.write.calls);
    assert!(seen.write_gc.busy_ns <= seen.write.busy_ns);
    assert!(seen.steps_by_phase[1] > 0, "GC chains were captured");
    let marks = seen.steps.len() as u64 - seen.total_steps();
    assert!(marks > 0 && marks <= 3 * page_ops, "one mark per chain");
    assert!(!seen.spans.is_empty());
}

#[test]
fn a_disarmed_timed_ftl_records_nothing() {
    let mut device = timed_device(Instant::now());
    device.warm_up(&trace());
    let seen = probe(&device).take();
    assert_eq!(seen.calls(), 0);
    assert!(seen.ops.is_empty() && seen.steps.is_empty() && seen.spans.is_empty());
}

#[test]
fn sampled_ftl_spans_name_the_request_they_served() {
    let requests = trace();
    let mut device = timed_device(Instant::now());
    let order: Vec<(u64, u32)> = requests
        .iter()
        .enumerate()
        .map(|(i, r)| (i as u64, r.pages))
        .collect();
    probe(&device).arm(order);
    device.run_with(&requests, RunConfig::open());
    let seen = probe(&device).take();
    // Every request has three pages and calls are sampled one in 64, so
    // the n-th sampled call (1-based call number 64·n) serves request
    // (64·n − 1) / 3.
    for (n, span) in seen.spans.iter().enumerate() {
        let call = 64 * (n as u64 + 1);
        assert_eq!(span.req, Some((call - 1) / 3));
        assert!(span.end_ns >= span.start_ns);
    }
}

#[test]
fn timed_sink_is_a_pure_observer() {
    let requests = trace();
    let bare_report = bare_device().run_with(&requests, RunConfig::open());

    let epoch = Instant::now();
    let mut device = bare_device();
    let sink = TimedSink::new(Box::new(RingSink::new(1024)), epoch);
    let report = device.run_with(&requests, RunConfig::open().attach_sink(Box::new(sink)));
    assert_eq!(
        report_fingerprint(&report),
        report_fingerprint(&bare_report)
    );

    let sink = device
        .detach_sink()
        .expect("sink stays attached")
        .into_any()
        .downcast::<TimedSink>()
        .expect("the attached sink is the decorator");
    assert_eq!(sink.record.calls, sink.recorded());
    assert_eq!(sink.dropped(), sink.recorded() - 1024);
    assert_eq!(sink.spans.len() as u64, sink.record.calls / 64);
    assert!(sink.spans.iter().all(|s| s.req.is_some()));
}

#[test]
fn timed_policy_is_a_pure_observer() {
    let requests = trace();
    let bare_report = bare_device().run_with(&requests, RunConfig::ncq(8));

    let mut policy = TimedPolicy::new(NcqPolicy, Instant::now());
    let report = bare_device().run_with_policy(&requests, RunConfig::ncq(8), &mut policy);
    assert_eq!(
        report_fingerprint(&report),
        report_fingerprint(&bare_report)
    );

    let page_ops = report.pages_read + report.pages_written;
    assert!(policy.lane_key_calls <= page_ops && policy.lane_key_calls > 0);
    assert_eq!(policy.issues, policy.lane_key_calls);
    assert!(policy.rank.calls >= policy.issues);
    assert_eq!(policy.admit_calls, policy.rank.calls);
}
