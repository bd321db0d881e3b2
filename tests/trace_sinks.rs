//! Properties of the trace exports.
//!
//! * Flow stitching: the Chrome export passes `json_lint` and its flow
//!   events are well-formed — every flow id opens exactly once (`"s"`),
//!   terminates exactly once (`"f"`), and any step (`"t"`) belongs to an
//!   opened flow.
//! * The channel-utilization CSV exists beside the plane one with the
//!   locked `channel_N` header shape.
//!
//! Failures print a `SIMKIT_CHECK_REPLAY` seed for deterministic replay.

use dloop_repro::dloop_ftl::DloopFtl;
use dloop_repro::ftl_kit::config::SsdConfig;
use dloop_repro::ftl_kit::device::{ReplayMode, SsdDevice};
use dloop_repro::ftl_kit::request::{HostOp, HostRequest};
use dloop_repro::simkit::check::{self, Checker, Generator};
use dloop_repro::simkit::trace::{channel_utilization_csv, chrome_trace_json, json_lint, RingSink};
use dloop_repro::simkit::SimTime;
use dloop_repro::{check_assert, check_assert_eq};

fn device(config: &SsdConfig) -> SsdDevice {
    SsdDevice::new(config.clone(), Box::new(DloopFtl::new(config)))
}

/// Mixed multi-page reads/writes: multi-page requests guarantee requests
/// with two or more spans, which is what the flow stitching draws.
fn req_gen(space: u64) -> check::BoxedGenerator<(u64, u8, bool)> {
    (check::u64s(0..space), check::u8s(1..5), check::bools())
        .map(|(lpn, pages, write)| (lpn, pages, write))
        .boxed()
}

fn requests(ops: &[(u64, u8, bool)]) -> Vec<HostRequest> {
    ops.iter()
        .enumerate()
        .map(|(i, &(lpn, pages, write))| HostRequest {
            arrival: SimTime::from_micros(120 * (i as u64 + 1)),
            lpn,
            pages: pages as u32,
            op: if write { HostOp::Write } else { HostOp::Read },
            ..HostRequest::default()
        })
        .collect()
}

/// Every `"ph":"<ph>"` flow event's id, in document order.
fn flow_ids(chrome: &str, ph: char) -> Vec<u64> {
    let needle = format!("{{\"ph\":\"{ph}\",\"id\":");
    let mut ids = Vec::new();
    let mut rest = chrome;
    while let Some(pos) = rest.find(&needle) {
        let tail = &rest[pos + needle.len()..];
        let end = tail
            .find(|c: char| !c.is_ascii_digit())
            .expect("id digits are followed by a comma");
        ids.push(tail[..end].parse::<u64>().expect("flow id parses"));
        rest = &tail[end..];
    }
    ids
}

/// The flow-stitched Chrome export is valid JSON with balanced flows:
/// each request id opens once, terminates once, steps stay inside.
#[test]
fn chrome_flow_events_lint_and_balance() {
    let gen = check::vec_of(req_gen(400), 4..100);
    Checker::new().cases(10).run(&gen, |ops| {
        let reqs = requests(ops);
        let config = SsdConfig::micro_gc_test();
        let mut d = device(&config);
        d.attach_sink(Box::new(RingSink::new(1 << 22)));
        d.run_with(&reqs, ReplayMode::Open.into());
        let rec = d.take_trace().expect("ring sink attached");
        let chrome = chrome_trace_json(&rec);
        json_lint(&chrome).map_err(|e| format!("chrome export must lint: {e}"))?;

        let starts = flow_ids(&chrome, 's');
        let ends = flow_ids(&chrome, 'f');
        let steps = flow_ids(&chrome, 't');
        let mut sorted_starts = starts.clone();
        sorted_starts.sort_unstable();
        sorted_starts.dedup();
        check_assert_eq!(
            sorted_starts.len(),
            starts.len(),
            "each flow id must open exactly once"
        );
        let mut sorted_ends = ends.clone();
        sorted_ends.sort_unstable();
        check_assert_eq!(
            sorted_starts,
            sorted_ends,
            "every opened flow must terminate exactly once"
        );
        check_assert!(
            steps
                .iter()
                .all(|id| sorted_starts.binary_search(id).is_ok()),
            "flow steps must belong to opened flows"
        );
        // Multi-page writes guarantee at least one multi-span request.
        if reqs.iter().any(|r| r.op == HostOp::Write && r.pages >= 2) {
            check_assert!(!starts.is_empty(), "multi-span requests must be stitched");
        }
        Ok(())
    });
}

/// The channel-utilization CSV mirrors the plane one: locked header
/// shape, one fraction column per channel, values within [0, 1].
#[test]
fn channel_utilization_csv_is_well_formed() {
    let config = SsdConfig::micro_gc_test();
    let channels = config.geometry().channels as usize;
    let mut d = device(&config);
    d.attach_sink(Box::new(RingSink::new(1 << 20)));
    let reqs = requests(&[(0, 4, true), (7, 4, true), (3, 3, false), (0, 4, true)]);
    d.run_with(&reqs, ReplayMode::Open.into());
    let rec = d.take_trace().expect("ring sink attached");
    let csv = channel_utilization_csv(&rec, channels, 16);
    let mut lines = csv.lines();
    let header = lines.next().expect("header line");
    assert!(header.starts_with("bucket_start_ms,bucket_end_ms,channel_0"));
    assert_eq!(header.matches("channel_").count(), channels);
    let mut rows = 0;
    for line in lines {
        rows += 1;
        for (i, field) in line.split(',').enumerate() {
            let v: f64 = field.parse().expect("numeric CSV field");
            if i >= 2 {
                assert!((0.0..=1.0).contains(&v), "utilization in [0,1]: {v}");
            }
        }
    }
    assert_eq!(rows, 16, "one row per bucket");
}
