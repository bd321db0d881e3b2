//! Replay-mode agreement, tracing-purity, and QoS-policy properties.
//!
//! The device offers three replay modes — open arrivals, the FlashSim
//! priority list (gated) and the QoS-policy window (NCQ-style bounded
//! reordering under a selection policy) — all selected through the
//! builder-style `RunConfig` consumed by `SsdDevice::run_with` (with a
//! bare `ReplayMode` converted by `.into()` as its enum spelling, pinned
//! against it below). A closed loop, a bound on outstanding requests, is
//! the host stack's SQ window: open replay behind a pass-through
//! `HostStack` with a finite `queue_depth` (`closed_loop` below). Every
//! one of them models different host-side scheduling, but all translate
//! the same requests in the same order, so they must agree on everything
//! *stateful*: pages served, flash page states, per-block erase counts,
//! and the cross-layer audit.
//!
//! Every mode additionally carries the sharded-engine identity (claim
//! C15): `RunConfig::shards(n)` must leave the full report fingerprint
//! and flash digest bit-identical to the sequential engine, for every
//! replay mode, any shard count, tracing on or off — and the report must
//! say whether the plane-local engine served the run or which guard sent
//! it to the sequential one (`RunReport::shard_outcome`).
//!
//! The gated scheduler additionally carries the wake-event contract:
//! every resource-busy interval ends with a scheduled wake, so a replay
//! whose tail is GC-heavy (background GC keeps planes busy *past* the
//! host `done` time) must drain without stalling on the next arrival —
//! and without tripping the end-of-trace assert when no arrival comes.
//! The soak test below replays exactly that shape; `scripts/verify.sh`
//! runs it by name as the background-GC soak.
//!
//! The flight recorder must be pure observation: every [`RunReport`]
//! field is bit-identical with tracing on or off, fault plans included.
//! And the spans it captures must reconcile with the report — one span
//! per hardware operation, and for single-page open-mode replays the
//! request-visible span residence equals the summed response time.
//!
//! The QoS policy layer is pinned at the end of this suite: every shipped
//! policy is deterministic across reruns, and the golden corpus replays
//! each one, plus a deadline-keyed test policy that drives the
//! scheduler's sorted lanes.
//!
//! Failures print a `SIMKIT_CHECK_REPLAY` seed for deterministic replay.

use dloop_bench::{build_ftl, ftl_cases};
use dloop_repro::faults::FaultConfig;
use dloop_repro::ftl_kit::config::{FtlKind, SsdConfig};
use dloop_repro::ftl_kit::device::{ReplayMode, RunConfig, SsdDevice};
use dloop_repro::ftl_kit::metrics::{RunReport, ShardGuard, ShardOutcome};
use dloop_repro::ftl_kit::request::{HostOp, HostRequest};
use dloop_repro::ftl_kit::sched::{QosCandidate, QosPolicy, QosSpec};
use dloop_repro::host::{HostConfig, HostRunReport, HostStack};
use dloop_repro::simkit::check::{self, Checker, Generator};
use dloop_repro::simkit::trace::{attribution, RingSink};
use dloop_repro::simkit::{Histogram, OnlineStats, SimDuration, SimTime};
use dloop_repro::workloads::host_mix;
use dloop_repro::{check_assert, check_assert_eq};
use std::fmt::Write as _;

#[derive(Debug, Clone)]
enum Op {
    Write { lpn: u64, pages: u8 },
    Read { lpn: u64, pages: u8 },
}

/// Mixed reads/writes, mostly 1-4 pages with occasional zero-page
/// requests (the normalization regression of this suite's vintage).
fn op_gen(space: u64) -> check::BoxedGenerator<Op> {
    check::weighted(vec![
        (
            6,
            (check::u64s(0..space), check::u8s(1..5))
                .map(|(lpn, pages)| Op::Write { lpn, pages })
                .boxed(),
        ),
        (
            2,
            (check::u64s(0..space), check::u8s(1..5))
                .map(|(lpn, pages)| Op::Read { lpn, pages })
                .boxed(),
        ),
        (
            1,
            check::u64s(0..space)
                .map(|lpn| Op::Write { lpn, pages: 0 })
                .boxed(),
        ),
    ])
    .boxed()
}

fn requests(ops: &[Op]) -> Vec<HostRequest> {
    let mut reqs = Vec::with_capacity(ops.len());
    let mut t = 0u64;
    for op in ops {
        t += 150;
        let (lpn, pages, kind) = match *op {
            Op::Write { lpn, pages } => (lpn, pages, HostOp::Write),
            Op::Read { lpn, pages } => (lpn, pages, HostOp::Read),
        };
        reqs.push(HostRequest {
            arrival: SimTime::from_micros(t),
            lpn,
            pages: pages as u32,
            op: kind,
            ..HostRequest::default()
        });
    }
    reqs
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Open,
    Gated,
    /// NCQ-style bounded reordering at the given queue depth.
    Ncq(usize),
}

fn run_config(mode: Mode) -> RunConfig {
    match mode {
        Mode::Open => RunConfig::open(),
        Mode::Gated => RunConfig::gated(),
        Mode::Ncq(depth) => RunConfig::ncq(depth),
    }
}

fn run_mode(
    kind: FtlKind,
    config: &SsdConfig,
    reqs: &[HostRequest],
    mode: Mode,
    tracing: bool,
) -> (SsdDevice, RunReport) {
    let mut device = SsdDevice::new(config.clone(), build_ftl(kind, config));
    if tracing {
        device.attach_sink(Box::new(RingSink::new(1 << 16)));
    }
    let report = device.run_with(reqs, run_config(mode));
    (device, report)
}

/// Closed-loop replay: open replay behind a pass-through host stack whose
/// one submission queue holds at most `depth` requests.
fn closed_loop(device: &mut SsdDevice, reqs: &[HostRequest], depth: u32) -> HostRunReport {
    let window = HostStack::new(HostConfig {
        queue_depth: Some(depth),
        ..HostConfig::passthrough()
    });
    window.run(device, reqs, ReplayMode::Open)
}

/// Everything stateful about the flash array, as one comparable string:
/// per-page states and per-block erase counts.
fn flash_digest(device: &SsdDevice) -> String {
    let g = device.flash().geometry().clone();
    let mut s = String::new();
    for ppn in 0..g.total_physical_pages() {
        let _ = write!(s, "{:?},", device.flash().page_state(ppn));
    }
    for p in 0..g.total_planes() {
        let plane = device.flash().plane(p);
        for b in 0..plane.block_count() {
            let _ = write!(s, "e{};", plane.block(b).erase_count());
        }
    }
    s
}

fn push_stats(fp: &mut Vec<u64>, s: &OnlineStats) {
    fp.push(s.count());
    fp.push(s.sum().to_bits());
    fp.push(s.mean().to_bits());
    fp.push(s.min().unwrap_or(f64::NAN).to_bits());
    fp.push(s.max().unwrap_or(f64::NAN).to_bits());
}

fn push_hist(fp: &mut Vec<u64>, h: &Histogram) {
    fp.push(h.count());
    for q in [0.5, 0.9, 0.99, 1.0] {
        fp.push(h.quantile(q).to_bits());
    }
}

/// Every field of a [`RunReport`], bit-exact (floats via `to_bits`).
fn fingerprint(r: &RunReport) -> Vec<u64> {
    let mut fp = Vec::new();
    fp.push(r.ftl_name.len() as u64);
    fp.push(r.requests_completed);
    fp.push(r.pages_read);
    fp.push(r.pages_written);
    push_stats(&mut fp, &r.response_ms);
    push_hist(&mut fp, &r.response_hist_us);
    fp.extend(&r.plane_request_counts);
    fp.extend([
        r.hw.reads,
        r.hw.writes,
        r.hw.erases,
        r.hw.copybacks,
        r.hw.interplane_copies,
        r.hw.read_retry_steps,
    ]);
    fp.extend([
        r.ftl.gc_invocations,
        r.ftl.copyback_moves,
        r.ftl.external_moves,
        r.ftl.parity_skips,
        r.ftl.translation_reads,
        r.ftl.translation_writes,
        r.ftl.full_merges,
        r.ftl.partial_merges,
        r.ftl.switch_merges,
    ]);
    fp.extend([r.total_erases, r.total_programs, r.total_skips]);
    fp.extend([r.wear.0 as u64, r.wear.1.to_bits(), r.wear.2 as u64]);
    fp.push(r.sim_end.as_nanos());
    fp.extend(&r.plane_busy_ns);
    fp.extend(&r.channel_busy_ns);
    push_stats(&mut fp, &r.wait_ms);
    push_stats(&mut fp, &r.service_ms);
    push_stats(&mut fp, &r.gc_block_ms);
    fp.extend([
        r.media.program_fails,
        r.media.grown_bad_blocks,
        r.media.factory_bad_blocks,
        r.media.uncorrectable_reads,
        r.media.read_retry_steps,
    ]);
    fp.extend(&r.media.retry_hist);
    fp.push(r.retry_ns);
    fp.push(r.queue_log.len() as u64);
    for &(tenant, arrival, issue, done) in r.queue_log.tracked() {
        fp.extend([
            tenant as u64,
            arrival.as_nanos(),
            issue.as_nanos(),
            done.as_nanos(),
        ]);
    }
    fp.push(r.completions.len() as u64);
    for &(req, arrival, done) in &r.completions {
        fp.extend([req, arrival.as_nanos(), done.as_nanos()]);
    }
    fp
}

fn hw_op_total(r: &RunReport) -> u64 {
    r.hw.reads + r.hw.writes + r.hw.erases + r.hw.copybacks + r.hw.interplane_copies
}

/// Open, gated and NCQ replay and a closed loop agree on what was *done*:
/// request/page accounting, flash page states, erase counts, and a
/// passing audit. The closed loop is a depth-1 host window, which
/// serialises issue but must not change any flash state; the generator
/// mixes in zero-page requests, which wait their FIFO turn there.
#[test]
fn replay_modes_agree_on_served_work_and_flash_state() {
    let gen = check::vec_of(op_gen(800), 1..200);
    Checker::new().cases(12).run(&gen, |ops| {
        let reqs = requests(ops);
        let config = SsdConfig::micro_gc_test();
        for kind in [FtlKind::Dloop, FtlKind::Dftl] {
            let (d_open, r_open) = run_mode(kind, &config, &reqs, Mode::Open, false);
            let (d_gated, r_gated) = run_mode(kind, &config, &reqs, Mode::Gated, false);
            let mut d_serial = SsdDevice::new(config.clone(), build_ftl(kind, &config));
            let r_serial = closed_loop(&mut d_serial, &reqs, 1).device;
            let (d_ncq, r_ncq) = run_mode(kind, &config, &reqs, Mode::Ncq(4), false);
            for (mode, r) in [
                ("gated", &r_gated),
                ("closed(1)", &r_serial),
                ("ncq", &r_ncq),
            ] {
                check_assert_eq!(r_open.pages_read, r.pages_read, "{:?} {}", kind, mode);
                check_assert_eq!(r_open.pages_written, r.pages_written, "{:?} {}", kind, mode);
                check_assert_eq!(
                    r.requests_completed,
                    reqs.len() as u64,
                    "{:?} {}",
                    kind,
                    mode
                );
                // Every request produces exactly one response sample —
                // zero-page requests included (the gated mode used to lose
                // them entirely).
                check_assert_eq!(
                    r.response_ms.count(),
                    reqs.len() as u64,
                    "{:?} {}",
                    kind,
                    mode
                );
            }
            let digest = flash_digest(&d_open);
            check_assert_eq!(digest, flash_digest(&d_gated), "{:?} gated digest", kind);
            check_assert_eq!(
                digest,
                flash_digest(&d_serial),
                "{:?} closed(1) digest",
                kind
            );
            check_assert_eq!(digest, flash_digest(&d_ncq), "{:?} ncq digest", kind);
            for d in [&d_open, &d_gated, &d_serial, &d_ncq] {
                d.audit().map_err(|e| format!("{kind:?}: {e}"))?;
            }
        }
        Ok(())
    });
}

/// API contract: a bare `ReplayMode` converted into a `RunConfig` is
/// bit-identical to its builder spelling in every mode, the
/// caller-owned-policy entry point to the owning `RunConfig::qos` one, and
/// `RunConfig::default()` reproduces `ReplayMode::Open` exactly.
#[test]
fn legacy_entry_points_match_their_run_config_equivalents() {
    let gen = check::vec_of(op_gen(600), 1..120);
    Checker::new().cases(8).run(&gen, |ops| {
        let reqs = requests(ops);
        let config = SsdConfig::micro_gc_test();
        let fresh = || SsdDevice::new(config.clone(), build_ftl(FtlKind::Dloop, &config));
        let depth = 8usize;

        let modes: [(&str, ReplayMode, RunConfig); 3] = [
            ("open", ReplayMode::Open, RunConfig::open()),
            ("gated", ReplayMode::Gated, RunConfig::gated()),
            (
                "ncq",
                ReplayMode::Qos {
                    queue_depth: depth,
                    policy: QosSpec::Ncq,
                },
                RunConfig::ncq(depth),
            ),
        ];
        for (name, replay_mode, cfg) in modes {
            let mut d_m = fresh();
            let r_m = d_m.run_with(&reqs, replay_mode.into());
            let mut d_c = fresh();
            let r_c = d_c.run_with(&reqs, cfg);
            check_assert_eq!(
                fingerprint(&r_m),
                fingerprint(&r_c),
                "ReplayMode dispatch and RunConfig disagree ({})",
                name
            );
            check_assert_eq!(
                flash_digest(&d_m),
                flash_digest(&d_c),
                "flash state diverged ({})",
                name
            );
        }

        // A caller-owned policy instance must equal the owning
        // RunConfig::qos spelling; it takes the window from the mode.
        let mut d_p = fresh();
        let r_p = d_p.run_with_policy(
            &reqs,
            RunConfig::ncq(depth),
            &mut dloop_repro::ftl_kit::sched::NcqPolicy,
        );
        let mut d_c = fresh();
        let r_c = d_c.run_with(&reqs, RunConfig::qos(QosSpec::Ncq).queue_depth(depth));
        check_assert_eq!(fingerprint(&r_p), fingerprint(&r_c), "qos spellings");

        // Defaults are Open: `run_with(reqs, RunConfig::default())` is
        // bit-identical to `run_with(reqs, ReplayMode::Open.into())`.
        let mut d_o = fresh();
        let r_o = d_o.run_with(&reqs, ReplayMode::Open.into());
        let mut d_d = fresh();
        let r_d = d_d.run_with(&reqs, RunConfig::default());
        check_assert_eq!(
            fingerprint(&r_o),
            fingerprint(&r_d),
            "RunConfig::default() must reproduce ReplayMode::Open"
        );
        check_assert_eq!(flash_digest(&d_o), flash_digest(&d_d));
        Ok(())
    });
}

/// The sharded engine identity (claim C15): for every replay mode and
/// any shard count — including counts above the channel count, which
/// clamp — `RunConfig::shards(n)` leaves the full report fingerprint and
/// the flash digest bit-identical to the sequential engine. The config
/// here has four channels so a 4-shard run could fan out; with its
/// 64-entry CMT the open runs fall back as soon as the map outgrows the
/// cache, and the queueing modes fall back by design — every
/// run that does must be identical trivially, and must say it fell back.
#[test]
fn sharded_replay_is_bit_identical_to_sequential() {
    let gen = check::vec_of(op_gen(1200), 1..200);
    let config = SsdConfig {
        channels: 4,
        ..SsdConfig::micro_gc_test()
    };
    Checker::new().cases(8).run(&gen, |ops| {
        let reqs = requests(ops);
        for kind in [FtlKind::Dloop, FtlKind::Dftl] {
            let fresh = || SsdDevice::new(config.clone(), build_ftl(kind, &config));
            let configs: [(&str, fn() -> RunConfig); 4] = [
                ("open", RunConfig::open),
                ("gated", RunConfig::gated),
                ("ncq(4)", || RunConfig::ncq(4)),
                ("qos(fifo)", || RunConfig::qos(QosSpec::WindowFifo)),
            ];
            for (name, cfg) in configs {
                let mut seq_dev = fresh();
                let seq = seq_dev.run_with(&reqs, cfg());
                for shards in [2usize, 4, 64] {
                    let mut par_dev = fresh();
                    let par = par_dev.run_with(&reqs, cfg().shards(shards));
                    check_assert!(
                        par.shard_outcome != ShardOutcome::NotRequested,
                        "{:?} {} sharded({}) forgot it was asked to shard",
                        kind,
                        name,
                        shards
                    );
                    check_assert_eq!(
                        fingerprint(&seq),
                        fingerprint(&par),
                        "{:?} {} sharded({}) report diverged",
                        kind,
                        name,
                        shards
                    );
                    check_assert_eq!(
                        flash_digest(&seq_dev),
                        flash_digest(&par_dev),
                        "{:?} {} sharded({}) flash state diverged",
                        kind,
                        name,
                        shards
                    );
                    par_dev
                        .audit()
                        .map_err(|e| format!("{kind:?} {name}: {e}"))?;
                }
            }
        }
        Ok(())
    });
}

/// The regime the plane-local engine serves: a 4-channel `micro_gc_test`
/// with a fully-resident map, a 90 % sequential fill to age it, and 3 000
/// single-page overwrites of that hot region at open arrivals.
fn engaged_setup() -> (SsdConfig, Vec<HostRequest>, Vec<HostRequest>) {
    use dloop_repro::workloads::synth::{sequential_fill, uniform_random, UniformParams};
    let base = SsdConfig {
        channels: 4,
        ..SsdConfig::micro_gc_test()
    };
    let config = SsdConfig {
        cmt_capacity: base.geometry().user_pages() as usize,
        ..base
    };
    let user_pages = config.geometry().user_pages();
    let fill = sequential_fill(user_pages, 0.9, 16).requests;
    let trace = uniform_random(
        &UniformParams {
            requests: 3_000,
            write_ratio: 1.0,
            pages_per_req: 1,
            space_pages: user_pages * 9 / 10,
            rate_per_sec: 1e9,
        },
        7,
    )
    .requests;
    (config, fill, trace)
}

/// A DLOOP device aged by replaying `fill`.
fn aged_device(config: &SsdConfig, fill: &[HostRequest]) -> SsdDevice {
    let mut d = SsdDevice::new(config.clone(), build_ftl(FtlKind::Dloop, config));
    d.run_with(fill, RunConfig::open());
    d
}

/// The plane-local engine (DESIGN.md §3f) must actually *engage* — not
/// just fall back to the sequential loop — when its preconditions hold:
/// open arrivals, a fully-resident CMT, no media model, and every plane
/// at or above the GC threshold. `RunReport::shard_outcome` is the
/// witness, with `shard_timing` beside it. The run ages the device
/// into steady GC first, overwrites a 90 % hot region so collections
/// keep every plane above threshold, and then checks the served run is
/// bit-identical to sequential and leaves an auditable device.
#[test]
fn plane_local_fast_path_engages_and_is_bit_identical() {
    let (config, fill, trace) = engaged_setup();
    let fresh = || aged_device(&config, &fill);
    let mut seq_dev = fresh();
    let seq = seq_dev.run_with(&trace, RunConfig::open());
    assert!(
        seq.shard_timing.is_none() && seq.shard_outcome == ShardOutcome::NotRequested,
        "sequential runs must not report shard timing"
    );
    // 8 asks for more shards than the device has channels: the engine
    // clamps to one shard per channel and still engages.
    let channels = config.channels as usize;
    for shards in [2usize, 4, 8] {
        let mut par_dev = fresh();
        let par = par_dev.run_with(&trace, RunConfig::open().shards(shards));
        assert_eq!(par.shard_outcome, ShardOutcome::Engaged);
        let timing = par
            .shard_timing
            .as_ref()
            .expect("the plane-local fast path must serve this run");
        assert_eq!(timing.worker_ms.len(), shards.min(channels));
        assert!(timing.critical_path_ms() > 0.0);
        assert_eq!(
            fingerprint(&seq),
            fingerprint(&par),
            "fast-path report diverged at {shards} shards"
        );
        assert_eq!(
            flash_digest(&seq_dev),
            flash_digest(&par_dev),
            "fast-path flash state diverged at {shards} shards"
        );
        par_dev.audit().unwrap_or_else(|e| panic!("audit: {e}"));
    }
}

/// A sharded request that does not engage is not silent: the report names
/// the guard that sent it to the sequential engine, and equals the
/// sequential report. One leg per guard a configuration can reach here:
/// a queueing scheduler, a 4 096-entry CMT over a larger
/// map (the FTL cannot attest plane-local translation), a media-fault
/// plan, a single-channel device, and a worker finding its home plane
/// below the GC threshold mid-run (GC hell: a resident-map device that
/// collects only at its last free block, under overwrites of 90 % of its
/// space).
#[test]
fn sharded_requests_that_fall_back_name_their_guard() {
    use dloop_repro::workloads::synth::{sequential_fill, uniform_random, UniformParams};
    let wide = SsdConfig {
        channels: 4,
        ..SsdConfig::micro_gc_test()
    };
    let user_pages = wide.geometry().user_pages();
    let resident = SsdConfig {
        cmt_capacity: user_pages as usize,
        ..wide.clone()
    };
    let overwrites = |space_pages: u64| {
        uniform_random(
            &UniformParams {
                requests: 3_000,
                write_ratio: 1.0,
                pages_per_req: 1,
                space_pages,
                rate_per_sec: 1e9,
            },
            7,
        )
        .requests
    };
    let one_channel = SsdConfig {
        channels: 1,
        ..resident.clone()
    };
    let small_cmt = SsdConfig {
        cmt_capacity: 4096,
        ..wide.clone()
    };
    let faulty = resident.clone().with_fault(FaultConfig::light(11));
    let gc_hell = {
        let mut config = SsdConfig {
            blocks_per_plane_override: Some((16, 5)),
            gc_threshold: 1,
            ..wide.clone()
        };
        config.cmt_capacity = config.geometry().user_pages() as usize;
        config
    };
    let legs: [(&str, SsdConfig, f64, fn() -> RunConfig); 5] = [
        ("ncq(8)", resident.clone(), 0.9, || RunConfig::ncq(8)),
        ("4096-entry CMT", small_cmt, 0.9, RunConfig::open),
        ("fault plan", faulty, 0.3, RunConfig::open),
        ("one channel", one_channel, 0.3, RunConfig::open),
        ("gc hell", gc_hell, 0.9, RunConfig::open),
    ];
    for (name, config, share, run) in legs {
        let pages = config.geometry().user_pages();
        let fill = sequential_fill(pages, share, 16);
        let reqs = overwrites((pages as f64 * share) as u64);
        let fresh = || {
            let mut d = SsdDevice::new(config.clone(), build_ftl(FtlKind::Dloop, &config));
            d.warm_up(&fill.requests);
            d
        };
        let mut seq_dev = fresh();
        let seq = seq_dev.run_with(&reqs, run());
        let mut par_dev = fresh();
        let par = par_dev.run_with(&reqs, run().shards(2));
        let ShardOutcome::FellBack(guard) = par.shard_outcome else {
            panic!("{name}: expected a fallback, got {:?}", par.shard_outcome);
        };
        match (name, guard) {
            ("ncq(8)", ShardGuard::QueueingMode)
            | ("4096-entry CMT", ShardGuard::TranslationNotReady)
            | ("fault plan", ShardGuard::MediaModel)
            | ("one channel", ShardGuard::SingleChannel) => {}
            ("gc hell", ShardGuard::WorkerImpurity { request }) => {
                assert!((request as usize) < reqs.len(), "{name}: request {request}");
            }
            _ => panic!("{name}: wrong guard {guard:?}"),
        }
        assert!(
            par.shard_timing.is_none(),
            "{name}: timing without engaging"
        );
        assert_eq!(fingerprint(&seq), fingerprint(&par), "{name}: report");
        assert_eq!(flash_digest(&seq_dev), flash_digest(&par_dev), "{name}");
        par_dev.audit().unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}

/// Sharded tracing forwards each shard's spans back into the exact
/// sequential span stream — same spans, same order — on a run the
/// plane-local engine actually serves, and tracing stays pure
/// observation (identical report fingerprint) under sharding.
#[test]
fn sharded_tracing_reproduces_the_sequential_span_stream() {
    use dloop_repro::simkit::trace::span_jsonl;
    let (config, fill, trace) = engaged_setup();
    let spans_of = |shards: usize| {
        let mut device = aged_device(&config, &fill);
        let cfg = RunConfig::open()
            .shards(shards)
            .attach_sink(Box::new(RingSink::new(usize::MAX)));
        let report = device.run_with(&trace, cfg);
        let ring = device.take_trace().expect("ring sink attached");
        let stream: Vec<String> = ring.spans().map(span_jsonl).collect();
        (stream, report)
    };
    let (seq_stream, seq_report) = spans_of(1);
    assert!(!seq_stream.is_empty());
    for shards in [2usize, 4] {
        let (par_stream, par_report) = spans_of(shards);
        assert_eq!(par_report.shard_outcome, ShardOutcome::Engaged);
        assert_eq!(
            fingerprint(&seq_report),
            fingerprint(&par_report),
            "tracing must stay pure under {shards} shards"
        );
        assert_eq!(seq_stream.len(), par_stream.len(), "span counts");
        for (i, (s, p)) in seq_stream.iter().zip(&par_stream).enumerate() {
            assert_eq!(s, p, "span {i} diverged at {shards} shards");
        }
    }
}

/// The pass-through host stack is pure forwarding: wrapping the device
/// in `HostStack::new(HostConfig::passthrough())` must leave the device
/// report bit-identical (full field-by-field fingerprint, the new
/// per-request completion log included) and the flash state digest
/// unchanged, in every replay mode. This is the property behind claim
/// C13's first leg — the claim checks a compact digest on one workload;
/// this test checks every field across generated workloads, zero-page
/// requests included. The host report must also mirror the device
/// timeline exactly: one log per request, `submit == arrival` (the
/// doorbell rings immediately), `deliver == done` (no coalescing), and
/// no host spans at all.
#[test]
fn passthrough_host_stack_is_bit_identical_to_the_raw_device() {
    use dloop_repro::host::{HostConfig, HostStack};

    let gen = check::vec_of(op_gen(600), 1..120);
    Checker::new().cases(8).run(&gen, |ops| {
        let reqs = requests(ops);
        let config = SsdConfig::micro_gc_test();
        let modes = [
            ReplayMode::Open,
            ReplayMode::Gated,
            ReplayMode::Qos {
                queue_depth: 4,
                policy: QosSpec::Ncq,
            },
            ReplayMode::Qos {
                queue_depth: 4,
                policy: QosSpec::WindowFifo,
            },
        ];
        for mode in modes {
            let mut d_raw = SsdDevice::new(config.clone(), build_ftl(FtlKind::Dloop, &config));
            let r_raw = d_raw.run_with(&reqs, mode.into());
            let mut d_host = SsdDevice::new(config.clone(), build_ftl(FtlKind::Dloop, &config));
            let stack = HostStack::new(HostConfig::passthrough());
            let host = stack.run(&mut d_host, &reqs, mode);
            check_assert_eq!(
                fingerprint(&r_raw),
                fingerprint(&host.device),
                "pass-through report diverged ({:?})",
                mode
            );
            check_assert_eq!(
                flash_digest(&d_raw),
                flash_digest(&d_host),
                "pass-through flash state diverged ({:?})",
                mode
            );
            check_assert_eq!(host.requests.len(), reqs.len(), "one log per request");
            for (i, log) in host.requests.iter().enumerate() {
                check_assert_eq!(log.arrival, reqs[i].arrival, "request {} arrival", i);
                check_assert_eq!(log.submit, log.arrival, "request {} submitted late", i);
                check_assert_eq!(log.deliver, log.done, "request {} delivery delayed", i);
                check_assert!(!log.cache_served, "request {} claims a cache hit", i);
            }
            check_assert_eq!(host.host_spans.len(), 0, "pass-through emitted host spans");
            check_assert_eq!(host.cache.read_hits + host.cache.writes_absorbed, 0);
            check_assert_eq!(host.forwarded, reqs.len() as u64, "commands forwarded");
        }
        Ok(())
    });
}

/// The host stack's per-queue windows hold at every instant, in every
/// replay mode: no submission queue ever has more than `queue_depth`
/// commands in flight (admission → interrupt delivery), across coalescing
/// corners including the one the window can never fill on its own
/// (threshold > total window with no timeout — the deadlock-rescue path),
/// and the five-instant timeline keeps tiling exactly under backpressure.
/// The device-queued modes hold the window too: the host admits a command
/// to the device's scheduler only when its queue has a free slot.
#[test]
fn interleaved_sq_windows_bound_occupancy_per_queue() {
    use dloop_repro::host::{HostConfig, HostStack};

    let gen = (
        check::vec_of(op_gen(600), 1..100),
        check::u8s(1..5),
        check::u8s(1..4),
    );
    let modes = [
        ReplayMode::Open,
        ReplayMode::Gated,
        ReplayMode::Qos {
            queue_depth: 4,
            policy: QosSpec::Ncq,
        },
        ReplayMode::Qos {
            queue_depth: 4,
            policy: QosSpec::WindowFifo,
        },
    ];
    Checker::new().cases(8).run(&gen, |(ops, depth, queues)| {
        let reqs = tag_tenants(requests(ops), *queues as u16);
        let config = SsdConfig::micro_gc_test();
        let corners = [
            (1u32, None),
            (3, Some(SimDuration::from_micros(40))),
            (16, None),
        ];
        for mode in modes {
            for (threshold, timeout) in corners {
                let mut device = SsdDevice::new(config.clone(), build_ftl(FtlKind::Dloop, &config));
                let host = HostStack::new(HostConfig {
                    queues: *queues as u32,
                    queue_depth: Some(*depth as u32),
                    coalesce_threshold: threshold,
                    coalesce_timeout: timeout,
                    ..HostConfig::passthrough()
                })
                .run(&mut device, &reqs, mode);
                check_assert_eq!(host.queue_depth, Some(*depth as u32), "depth surfaced");
                for q in 0..*queues as u16 {
                    let occ = host.sq_log.tenant_max_in_flight(q);
                    check_assert!(
                        occ <= *depth as u64,
                        "{:?}: SQ {} held {} in-flight commands at depth {} (threshold {})",
                        mode,
                        q,
                        occ,
                        depth,
                        threshold
                    );
                }
                for (i, log) in host.requests.iter().enumerate() {
                    check_assert_eq!(
                        log.host_queue_ns()
                            + log.cache_ns()
                            + log.device_ns()
                            + log.completion_ns(),
                        log.end_to_end_ns(),
                        "{:?}: request {} phases do not tile under backpressure",
                        mode,
                        i
                    );
                }
            }
        }
        Ok(())
    });
}

/// The zero-page rule of a bounded queue: a request with no pages does no
/// flash work and takes no slot, but it keeps its FIFO place behind the
/// backlog. Through a depth-1 window, write A (0 µs) holds the slot, B
/// (5 µs) waits for it, the zero-page request Z (10 µs) waits behind B
/// and completes the instant B is admitted — not at its own arrival — and
/// C (20 µs) is admitted when B is delivered, exactly as if Z were absent.
#[test]
fn a_bounded_queue_holds_zero_page_requests_in_fifo_order_without_a_slot() {
    let us = SimTime::from_micros;
    let zero = HostRequest {
        pages: 0,
        ..page_req(us(10), 9, HostOp::Write)
    };
    let with_zero = [
        page_req(us(0), 0, HostOp::Write),
        page_req(us(5), 4, HostOp::Write),
        zero,
        page_req(us(20), 8, HostOp::Write),
    ];
    let without_zero = [with_zero[0], with_zero[1], with_zero[3]];
    let config = SsdConfig::micro_gc_test();
    let run = |reqs: &[HostRequest]| {
        let mut device = SsdDevice::new(config.clone(), build_ftl(FtlKind::Dloop, &config));
        let host = HostStack::new(HostConfig {
            queue_depth: Some(1),
            ..HostConfig::passthrough()
        })
        .run(&mut device, reqs, ReplayMode::Open);
        device.audit().expect("audit");
        host
    };
    let host = run(&with_zero);
    let [a, b, z, c] = [0, 1, 2, 3].map(|i| host.requests[i]);
    assert!(
        b.submit > us(10),
        "B must wait for A's slot past Z's arrival"
    );
    assert_eq!(b.submit, a.deliver, "B takes the slot A frees");
    assert_eq!(
        (z.submit, z.done),
        (b.submit, b.submit),
        "Z completes as B is admitted"
    );
    assert_eq!(c.submit, b.deliver, "C takes the slot B frees: Z held none");
    assert_eq!(host.device.requests_completed, 4);
    assert_eq!(host.device.response_ms.count(), 4, "Z is counted");
    let alone = run(&without_zero);
    assert_eq!(alone.requests[2].submit, c.submit, "Z moved C's admission");
    assert_eq!(alone.requests[2].done, c.done);
}

/// The buffered host stack of the golden host rows: every host stage —
/// cache, split/merge, doorbell batching, interrupt coalescing — turned
/// on, behind an unbounded window.
fn buffered_host(queues: u32) -> HostConfig {
    HostConfig {
        queues,
        queue_depth: None,
        doorbell_batch: 3,
        doorbell_timeout: Some(SimDuration::from_micros(25)),
        coalesce_threshold: 3,
        coalesce_timeout: Some(SimDuration::from_micros(60)),
        cache_pages: 96,
        dirty_ratio: 0.5,
        cache_hit_ns: 900,
        split_pages: 2,
        merge: true,
        drain_cache: true,
    }
}

/// The host stack's full fingerprint (request timelines, SQ occupancy log,
/// spans, counters, the wrapped device report) on the three-tenant host
/// mix, buffered and unbounded, in every replay mode at one and three
/// queue pairs. The device-queued rows were recorded from the staged
/// pipeline that ran those modes before the interleaved loop drove them
/// all; the open rows from the interleaved loop itself.
#[test]
fn golden_host_rows_hold_in_every_replay_mode() {
    let config = SsdConfig::micro_gc_test();
    let geometry = config.geometry();
    let footprint = geometry.user_pages() * geometry.page_size as u64 / 2;
    let reqs = host_mix(42, geometry.page_size, 250, footprint).requests;
    let modes = [
        ("open", ReplayMode::Open),
        ("gated", ReplayMode::Gated),
        (
            "ncq4",
            ReplayMode::Qos {
                queue_depth: 4,
                policy: QosSpec::Ncq,
            },
        ),
        (
            "fifo4",
            ReplayMode::Qos {
                queue_depth: 4,
                policy: QosSpec::WindowFifo,
            },
        ),
    ];
    let mut rows = Vec::new();
    for queues in [1u32, 3] {
        for (name, mode) in modes {
            let mut device = SsdDevice::new(config.clone(), build_ftl(FtlKind::Dloop, &config));
            let host = HostStack::new(buffered_host(queues)).run(&mut device, &reqs, mode);
            device.audit().expect("audit");
            rows.push((queues, name, host.fingerprint()));
        }
    }
    let golden: Vec<_> = GOLDEN_HOST.iter().map(|&(q, n, fp)| (q, n, fp)).collect();
    if rows != golden {
        for &(queues, name, fp) in &rows {
            eprintln!("    ({queues}, \"{name}\", {fp:#018x}),");
        }
        panic!("host fingerprints moved (fresh rows above)");
    }
}

const GOLDEN_HOST: [(u32, &str, u64); 8] = [
    (1, "open", 0x170c_8921_5262_7d4a),
    (1, "gated", 0x5341_34fb_3e98_267b),
    (1, "ncq4", 0xd02c_7484_53a6_d400),
    (1, "fifo4", 0x1423_5ae2_6fa9_ba88),
    (3, "open", 0x465e_a6aa_95a1_2182),
    (3, "gated", 0x54fb_d8d2_75e8_e4c7),
    (3, "ncq4", 0x8143_964a_b7f3_10f0),
    (3, "fifo4", 0x87b4_68ed_5aca_0d8e),
];

/// The flight recorder is pure observation: with tracing enabled every
/// report field stays bit-identical, in every replay mode, with and
/// without a media-fault plan — and the recorder holds exactly one span
/// per hardware operation.
#[test]
fn tracing_never_perturbs_reports() {
    let gen = check::vec_of(op_gen(600), 1..150);
    Checker::new().cases(10).run(&gen, |ops| {
        let reqs = requests(ops);
        let plain = SsdConfig::micro_gc_test();
        let faulty = SsdConfig::micro_gc_test().with_fault(FaultConfig::light(0x7A11));
        for (label, config) in [("fault-free", &plain), ("faulty", &faulty)] {
            for mode in [Mode::Open, Mode::Gated, Mode::Ncq(8)] {
                let (_, off) = run_mode(FtlKind::Dloop, config, &reqs, mode, false);
                let (mut traced, on) = run_mode(FtlKind::Dloop, config, &reqs, mode, true);
                check_assert_eq!(
                    fingerprint(&off),
                    fingerprint(&on),
                    "tracing changed the report ({:?}, {})",
                    mode,
                    label
                );
                let rec = traced.take_trace().expect("tracing was on");
                check_assert_eq!(
                    rec.recorded(),
                    hw_op_total(&on),
                    "span count must equal the hardware op total ({:?})",
                    mode
                );
            }
        }
        Ok(())
    });
}

/// For single-page open-mode replays the span buckets tile the report
/// exactly: request-visible residence (host + synchronous GC) equals the
/// summed response time, and the wait/service/GC-block decomposition
/// sums to the same number.
#[test]
fn attribution_reconciles_with_response_times() {
    let gen = check::vec_of(op_gen(500), 1..150);
    Checker::new().cases(10).run(&gen, |ops| {
        // Single-page requests: a multi-page response is the max over its
        // page ops, which deliberately does not telescope into span sums.
        let mut reqs = requests(ops);
        for r in &mut reqs {
            r.pages = 1;
        }
        let config = SsdConfig::micro_gc_test();
        let (mut device, report) = run_mode(FtlKind::Dloop, &config, &reqs, Mode::Open, true);
        let rec = device.take_trace().expect("tracing was on");
        check_assert_eq!(rec.dropped(), 0, "ring must hold the whole run");
        check_assert_eq!(rec.recorded(), hw_op_total(&report));
        let attr = attribution(&rec);
        let visible_ms = attr.request_visible_ns() as f64 / 1e6;
        let resp_sum_ms = report.response_ms.sum();
        let tol = 1e-6 * resp_sum_ms.max(1.0);
        check_assert!(
            (visible_ms - resp_sum_ms).abs() <= tol,
            "span residence {} ms vs summed response {} ms",
            visible_ms,
            resp_sum_ms
        );
        let decomp_ms = report.wait_ms.sum() + report.service_ms.sum() + report.gc_block_ms.sum();
        check_assert!(
            (decomp_ms - resp_sum_ms).abs() <= tol,
            "wait+service+gc_block {} ms vs summed response {} ms",
            decomp_ms,
            resp_sum_ms
        );
        Ok(())
    });
}

/// NCQ replay is fully deterministic: the same requests replayed twice
/// produce bit-identical reports (queue probe included) and identical
/// flash state. The scheduler's tie-breaks are all total orders — plane
/// ready-at, then sequence number, lanes visited in plane order — so
/// nothing depends on allocation or iteration accidents.
#[test]
fn ncq_replay_is_deterministic() {
    let gen = check::vec_of(op_gen(700), 1..180);
    Checker::new().cases(8).run(&gen, |ops| {
        let reqs = requests(ops);
        let config = SsdConfig::micro_gc_test();
        let (d_a, r_a) = run_mode(FtlKind::Dloop, &config, &reqs, Mode::Ncq(32), false);
        let (d_b, r_b) = run_mode(FtlKind::Dloop, &config, &reqs, Mode::Ncq(32), false);
        check_assert_eq!(
            fingerprint(&r_a),
            fingerprint(&r_b),
            "two NCQ replays of the same trace diverged"
        );
        check_assert_eq!(
            flash_digest(&d_a),
            flash_digest(&d_b),
            "two NCQ replays left different flash state"
        );
        Ok(())
    });
}

/// With `queue_depth: 1` the reorder window holds only the queue head,
/// so NCQ degenerates to the strict in-order queue. On a single-plane
/// device the gated scheduler cannot skip either (every write needs the
/// same plane and channel, so if the head is blocked everything is), so
/// the two must be bit-identical there — reports, probe and flash state.
#[test]
fn ncq_depth_one_is_gated_without_skipping() {
    let config = SsdConfig {
        channels: 1,
        packages_per_channel: 1,
        chips_per_package: 1,
        dies_per_chip: 1,
        planes_per_die: 1,
        ..SsdConfig::micro_gc_test()
    };
    let gen = check::vec_of(check::u64s(0..200), 1..150);
    Checker::new().cases(10).run(&gen, |lpns| {
        // Single-page writes arriving densely enough to queue: writes
        // always carry a host chain, which keeps the gated ready-check on
        // the one shared plane — the regime where skipping never fires.
        let reqs: Vec<HostRequest> = lpns
            .iter()
            .enumerate()
            .map(|(i, &lpn)| HostRequest {
                arrival: SimTime::from_micros(20 * (i as u64 + 1)),
                lpn,
                pages: 1,
                op: HostOp::Write,
                ..HostRequest::default()
            })
            .collect();
        let (d_gated, r_gated) = run_mode(FtlKind::Dloop, &config, &reqs, Mode::Gated, false);
        let (d_ncq, r_ncq) = run_mode(FtlKind::Dloop, &config, &reqs, Mode::Ncq(1), false);
        check_assert_eq!(
            fingerprint(&r_gated),
            fingerprint(&r_ncq),
            "NCQ{{1}} must replay exactly like the unskippable gated FIFO"
        );
        check_assert_eq!(flash_digest(&d_gated), flash_digest(&d_ncq));
        Ok(())
    });
}

/// Regression soak for the wake-event contract (the headline bugfix):
/// a write burst dense enough to leave a GC-heavy tail, replayed gated
/// with `background_gc: true`. Background-GC chains keep planes busy
/// *past* the host `done` time; before the fix the scheduler only woke
/// at `done`, so the queued tail either stalled until the next arrival
/// or tripped the end-of-trace `pending.is_empty()` assert.
///
/// Two properties: the replay drains (no panic, every request completes),
/// and issue times are arrival-independent — appending one far-future
/// zero-page request must not change a single response sample, which it
/// would if any queued op were waiting for an arrival to wake it.
/// `scripts/verify.sh` runs this by name as the background-GC soak.
#[test]
fn gated_background_gc_soak() {
    let config = SsdConfig {
        background_gc: true,
        ..SsdConfig::micro_gc_test()
    };
    // 10k single-page writes over a tiny LPN range: heavy overwrite
    // pressure keeps the collector running right through the tail.
    let mut reqs: Vec<HostRequest> = (0..10_000u64)
        .map(|i| HostRequest {
            arrival: SimTime::from_micros(2 * (i + 1)),
            lpn: (i * 13) % 400,
            pages: 1,
            op: HostOp::Write,
            ..HostRequest::default()
        })
        .collect();
    let (device, report) = run_mode(FtlKind::Dloop, &config, &reqs, Mode::Gated, false);
    assert_eq!(report.requests_completed, reqs.len() as u64);
    assert_eq!(report.response_ms.count(), reqs.len() as u64);
    device.audit().expect("audit after the soak");

    // Arrival independence: one zero-page straggler ten seconds later
    // adds exactly its own zero sample and changes nothing else.
    let last = reqs.last().unwrap().arrival;
    reqs.push(HostRequest {
        arrival: last + SimDuration::from_micros(10_000_000),
        lpn: 0,
        pages: 0,
        op: HostOp::Read,
        ..HostRequest::default()
    });
    let (_, with_straggler) = run_mode(FtlKind::Dloop, &config, &reqs, Mode::Gated, false);
    assert_eq!(
        with_straggler.response_ms.count(),
        report.response_ms.count() + 1
    );
    assert_eq!(
        with_straggler.response_ms.sum().to_bits(),
        report.response_ms.sum().to_bits(),
        "a far-future arrival changed burst response times: some op was \
         stalled waiting for an arrival instead of a scheduled wake"
    );
    assert_eq!(
        with_straggler.response_ms.max().unwrap().to_bits(),
        report.response_ms.max().unwrap().to_bits()
    );
}

/// The wake-event contract also covers busy intervals this run did not
/// book: an open-mode fill leaves seconds of work on the plane and channel
/// timelines, and a queueing replay on the un-reset device arrives inside
/// that backlog with no completion of its own to wake it. At the parent
/// commit both disciplines tripped the end-of-trace assert here ("ops left
/// unissued … waiting on plane …").
#[test]
fn queued_replay_drains_behind_timelines_carried_over_from_an_earlier_run() {
    let config = SsdConfig::micro_gc_test();
    let span = config.geometry().user_pages() / 2;
    let fill: Vec<HostRequest> = (0..4000u64)
        .map(|i| page_req(SimTime::from_micros(i), (i * 7) % span, HostOp::Write))
        .collect();
    let trace: Vec<HostRequest> = (0..600u64)
        .map(|i| {
            let op = [HostOp::Read, HostOp::Write, HostOp::Write][i as usize % 3];
            page_req(SimTime::from_micros(5 * i), (i * 11) % span, op)
        })
        .collect();
    for (name, kind, config) in ftl_cases(&config) {
        for depth in [None, Some(8)] {
            let mut device = SsdDevice::new(config.clone(), build_ftl(kind, &config));
            let filled = device.run_with(&fill, RunConfig::open());
            assert!(filled.sim_end > trace.last().unwrap().arrival, "no backlog");
            let report = device.run_with(&trace, depth.map_or(RunConfig::gated(), RunConfig::ncq));
            assert_eq!(report.requests_completed, trace.len() as u64, "{name}");
            assert_eq!(report.response_ms.count(), trace.len() as u64, "{name}");
            device.audit().expect("audit after the carried-over replay");
        }
    }
}

/// Tag the requests round-robin across `tenants` host streams (tenant ids
/// `1..=tenants`, so the per-tenant CSV blocks are exercised).
fn tag_tenants(mut reqs: Vec<HostRequest>, tenants: u16) -> Vec<HostRequest> {
    for (i, r) in reqs.iter_mut().enumerate() {
        *r = r.with_tenant(1 + (i as u16 % tenants));
    }
    reqs
}

/// Every QoS policy is deterministic: the same tenant-tagged trace
/// replayed twice produces bit-identical reports (per-tenant probe
/// included) and identical flash state, for every spec in the sweep set.
#[test]
fn qos_policies_are_deterministic_across_reruns() {
    let gen = check::vec_of(op_gen(700), 1..120);
    Checker::new().cases(4).run(&gen, |ops| {
        let reqs = tag_tenants(requests(ops), 3);
        let config = SsdConfig::micro_gc_test();
        for spec in QosSpec::all() {
            let mode = ReplayMode::Qos {
                queue_depth: 8,
                policy: spec,
            };
            let mut d_a = SsdDevice::new(config.clone(), build_ftl(FtlKind::Dloop, &config));
            let r_a = d_a.run_with(&reqs, mode.into());
            let mut d_b = SsdDevice::new(config.clone(), build_ftl(FtlKind::Dloop, &config));
            let r_b = d_b.run_with(&reqs, mode.into());
            check_assert_eq!(
                fingerprint(&r_a),
                fingerprint(&r_b),
                "{} diverged across reruns",
                spec.name()
            );
            check_assert_eq!(
                flash_digest(&d_a),
                flash_digest(&d_b),
                "{} left different flash state across reruns",
                spec.name()
            );
        }
        Ok(())
    });
}

/// Earliest deadline first, in the lanes as well as across them. No
/// shipped policy overrides `lane_key`, so this fixture is what drives the
/// scheduler's sorted lanes: the `qos8/deadline` golden rows and the
/// arrival-before-wake tie rule.
struct DeadlineLanes;

impl QosPolicy for DeadlineLanes {
    fn name(&self) -> &'static str {
        "deadline"
    }

    fn rank(&mut self, _now: SimTime, c: &QosCandidate) -> (u64, u64) {
        (self.lane_key(c), 0)
    }

    fn lane_key(&mut self, c: &QosCandidate) -> u64 {
        c.deadline.map_or(u64::MAX, SimTime::as_nanos)
    }
}

/// FNV-1a over a string — a stable 64-bit name for a flash digest.
fn fnv(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
    })
}

/// Bursts of eight same-instant single-page ops, all on LPNs ≡ 0 mod 4 —
/// one DLOOP plane of the micro device — with 40 hot pages, so every
/// scheduler decision is a tie-break or a wait on that plane, and the
/// collector runs. Every third burst reads.
fn single_plane_burst() -> Vec<HostRequest> {
    (0..2000u64)
        .map(|i| HostRequest {
            arrival: SimTime::from_micros(400 * (i / 8)),
            lpn: 4 * ((i * 7) % 40),
            pages: 1,
            op: if (i / 8) % 3 == 2 {
                HostOp::Read
            } else {
                HostOp::Write
            },
            tenant: 1 + (i % 3) as u16,
            deadline: (i % 3 == 0).then(|| SimTime::from_micros(400 * (i / 8) + 2_000)),
        })
        .collect()
}

/// One golden replay: a fresh device over its trace.
type Replay = fn(&mut SsdDevice, &[HostRequest]) -> RunReport;

/// The golden corpus: `(label, report_fingerprint, fnv(flash_digest))` of
/// two traces × every admission discipline on micro devices. The rows
/// were recorded at the commit *before* the replay drivers moved from a
/// pre-loaded event heap to an arrival cursor merged with a wake-only
/// heap; a scheduler rewrite must leave every one of them unchanged. The
/// `closed4` rows were recorded from a device-level closed-loop driver
/// and now replay through a depth-4 host window, which must reproduce
/// them.
fn golden_rows() -> Vec<(String, u64, u64)> {
    use dloop_repro::host::report_fingerprint;
    use dloop_repro::nand::energy::EnergyConfig;
    let base = SsdConfig::micro_gc_test();
    let traces = [
        (
            "mix",
            dloop_repro::workloads::qos_mix(7, 2048, 600, 1 << 21).requests,
        ),
        ("burst", single_plane_burst()),
    ];
    let mut rows = Vec::new();
    for (tname, reqs) in &traces {
        let mut row =
            |label: String,
             config: &SsdConfig,
             replay: &dyn Fn(&mut SsdDevice, &[HostRequest]) -> RunReport| {
                let mut d = SsdDevice::new(config.clone(), build_ftl(FtlKind::Dloop, config));
                // The micro device has too few spares to survive a fault plan
                // for the whole trace; a third of it retires blocks already.
                let reqs = match config.fault.is_null() {
                    true => &reqs[..],
                    false => &reqs[..reqs.len() / 3],
                };
                let r = replay(&mut d, reqs);
                d.audit().expect("audit");
                rows.push((
                    format!("{tname}/{label}"),
                    report_fingerprint(&r),
                    fnv(&flash_digest(&d)),
                ));
            };
        let modes: [(&str, Replay); 6] = [
            ("open", |d, r| d.run_with(r, RunConfig::open())),
            ("gated", |d, r| d.run_with(r, RunConfig::gated())),
            ("closed4", |d, r| closed_loop(d, r, 4).device),
            ("ncq1", |d, r| d.run_with(r, RunConfig::ncq(1))),
            ("ncq4", |d, r| d.run_with(r, RunConfig::ncq(4))),
            ("ncq32", |d, r| d.run_with(r, RunConfig::ncq(32))),
        ];
        // The deadline-keyed lanes replace the run's policy with a
        // caller-owned one.
        let deadline: Replay = |d, r| d.run_with_policy(r, RunConfig::ncq(8), &mut DeadlineLanes);
        let power_cap: Replay = |d, r| {
            let cap = QosSpec::PowerCap { budget_uw: 200_000 };
            d.run_with(r, RunConfig::qos(cap).queue_depth(8))
        };
        for (mode, replay) in modes {
            row(format!("fg/{mode}"), &base, &replay);
        }
        let lit = base.clone().with_energy(EnergyConfig::paper_default());
        for spec in QosSpec::all() {
            row(format!("fg/qos8/{}", spec.name()), &base, &|d, r| {
                d.run_with(r, RunConfig::qos(spec).queue_depth(8))
            });
        }
        row("fg/qos8/deadline".into(), &base, &deadline);
        row("fg/qos8/power-cap".into(), &lit, &power_cap);
        let bg = SsdConfig {
            background_gc: true,
            ..base.clone()
        };
        for (mode, replay) in modes {
            row(format!("bg/{mode}"), &bg, &replay);
        }
        let bg_lit = bg.clone().with_energy(EnergyConfig::paper_default());
        row("bg/qos8/power-cap".into(), &bg_lit, &power_cap);
        row("bg/qos8/deadline".into(), &bg, &deadline);
        let faulty = base.clone().with_fault(FaultConfig::light(11));
        row("fault/gated".into(), &faulty, &|d, r| {
            d.run_with(r, RunConfig::gated())
        });
        row("fault/ncq32".into(), &faulty, &|d, r| {
            d.run_with(r, RunConfig::ncq(32))
        });
    }
    rows
}

#[rustfmt::skip]
const GOLDEN: &[(&str, u64, u64)] = &[
    ("mix/fg/open", 0xa3100ed2592b7beb, 0x4e23dbbe0a2fbb95),
    ("mix/fg/gated", 0x441ba82f492a2dd6, 0x4e23dbbe0a2fbb95),
    ("mix/fg/closed4", 0x70d3be31637ccc15, 0x4e23dbbe0a2fbb95),
    ("mix/fg/ncq1", 0x56468af6390346d1, 0x4e23dbbe0a2fbb95),
    ("mix/fg/ncq4", 0x560030d656cb24f4, 0x4e23dbbe0a2fbb95),
    ("mix/fg/ncq32", 0x82c85427886116a2, 0x4e23dbbe0a2fbb95),
    ("mix/fg/qos8/window-fifo", 0xa306e9ae0656a837, 0x4e23dbbe0a2fbb95),
    ("mix/fg/qos8/ncq", 0x4d6ebf1a33aa558c, 0x4e23dbbe0a2fbb95),
    ("mix/fg/qos8/deadline", 0x816546c4e479e9d4, 0x4e23dbbe0a2fbb95),
    ("mix/fg/qos8/power-cap", 0xdb1eae1cfa7f77d0, 0x4e23dbbe0a2fbb95),
    ("mix/bg/open", 0x3105ee54aadf3d36, 0x4e23dbbe0a2fbb95),
    ("mix/bg/gated", 0xd36250f8de051367, 0x4e23dbbe0a2fbb95),
    ("mix/bg/closed4", 0x489b2bc4e83f0c02, 0x4e23dbbe0a2fbb95),
    ("mix/bg/ncq1", 0xceb5d5327e8d0e40, 0x4e23dbbe0a2fbb95),
    ("mix/bg/ncq4", 0x9886a29c703bfda2, 0x4e23dbbe0a2fbb95),
    ("mix/bg/ncq32", 0xa38a7c5dfe299ea8, 0x4e23dbbe0a2fbb95),
    ("mix/bg/qos8/power-cap", 0x055b09c6fa066e77, 0x4e23dbbe0a2fbb95),
    ("mix/bg/qos8/deadline", 0x0f4927c58bad03dc, 0x4e23dbbe0a2fbb95),
    ("mix/fault/gated", 0x51bc31013141cf55, 0x0b6f941fa483c64d),
    ("mix/fault/ncq32", 0xd4d2ab1bea49dde2, 0x0b6f941fa483c64d),
    ("burst/fg/open", 0xab7206fe80bda89e, 0xf893fcef2faeb949),
    ("burst/fg/gated", 0x450c9c3dc5b1e2bd, 0xf893fcef2faeb949),
    ("burst/fg/closed4", 0x83cecbca4808c67b, 0xf893fcef2faeb949),
    ("burst/fg/ncq1", 0x73d7ce433d236a0d, 0xf893fcef2faeb949),
    ("burst/fg/ncq4", 0x681c35c828f070b6, 0xf893fcef2faeb949),
    ("burst/fg/ncq32", 0x450c9c3dc5b1e2bd, 0xf893fcef2faeb949),
    ("burst/fg/qos8/window-fifo", 0x407c78e1c56253de, 0xf893fcef2faeb949),
    ("burst/fg/qos8/ncq", 0x407c78e1c56253de, 0xf893fcef2faeb949),
    ("burst/fg/qos8/deadline", 0xafdff9803a42b01c, 0xf893fcef2faeb949),
    ("burst/fg/qos8/power-cap", 0x25a2fb6c4df3c1bd, 0xf893fcef2faeb949),
    ("burst/bg/open", 0xde70dacd834da6cf, 0xf893fcef2faeb949),
    ("burst/bg/gated", 0x6ffacfe14454c5f4, 0xf893fcef2faeb949),
    ("burst/bg/closed4", 0x1e14db1dc1041a0b, 0xf893fcef2faeb949),
    ("burst/bg/ncq1", 0xd23d1e962b8b134e, 0xf893fcef2faeb949),
    ("burst/bg/ncq4", 0x6d3575b656d72e6d, 0xf893fcef2faeb949),
    ("burst/bg/ncq32", 0x6ffacfe14454c5f4, 0xf893fcef2faeb949),
    ("burst/bg/qos8/power-cap", 0x698dacea167cf4f1, 0xf893fcef2faeb949),
    ("burst/bg/qos8/deadline", 0xa579a57836f0c78d, 0xf893fcef2faeb949),
    ("burst/fault/gated", 0xa06ada5922879eb1, 0x340ccf2887ead48a),
    ("burst/fault/ncq32", 0xa06ada5922879eb1, 0x340ccf2887ead48a),
];

#[test]
fn golden_fingerprints_hold_across_the_scheduler_rewrite() {
    let rows = golden_rows();
    let mut table = String::new();
    for (label, fp, digest) in &rows {
        let _ = writeln!(table, "    (\"{label}\", {fp:#018x}, {digest:#018x}),");
    }
    let same = rows.len() == GOLDEN.len()
        && rows
            .iter()
            .zip(GOLDEN)
            .all(|((l, f, d), (gl, gf, gd))| l == gl && f == gf && d == gd);
    assert!(same, "golden corpus moved; this run computed:\n{table}");
}

fn page_req(at: SimTime, lpn: u64, op: HostOp) -> HostRequest {
    HostRequest {
        arrival: at,
        lpn,
        pages: 1,
        op,
        ..HostRequest::default()
    }
}

fn run_micro(kind: FtlKind, config: &SsdConfig, reqs: &[HostRequest], run: RunConfig) -> RunReport {
    let mut device = SsdDevice::new(config.clone(), build_ftl(kind, &config));
    let report = device.run_with(reqs, run);
    device.audit().expect("audit");
    report
}

fn run_dloop_micro(reqs: &[HostRequest], run: RunConfig) -> RunReport {
    run_micro(FtlKind::Dloop, &SsdConfig::micro_gc_test(), reqs, run)
}

fn done_of(report: &RunReport, req: u64) -> SimTime {
    let &(_, _, done) = report
        .completions
        .iter()
        .find(|&&(r, _, _)| r == req)
        .expect("request completed");
    done
}

/// The tie rule of the merged clock: at one instant, arrivals fire before
/// wakes. Write A holds plane 0 until `t`; B queues behind it with no
/// deadline; C arrives at exactly `t` — the instant A's completion wake is
/// due — with a deadline. Arrivals-first means C is already in the lane
/// when the scheduler next looks, so EDF issues it ahead of the older B;
/// wake-first would have issued B into the freed plane before C existed.
#[test]
fn an_arrival_coinciding_with_a_wake_fires_first() {
    use dloop_repro::host::report_fingerprint;
    let edf = |reqs: &[HostRequest]| {
        let config = SsdConfig::micro_gc_test();
        let mut device = SsdDevice::new(config.clone(), build_ftl(FtlKind::Dloop, &config));
        let report = device.run_with_policy(reqs, RunConfig::ncq(8), &mut DeadlineLanes);
        device.audit().expect("audit");
        report
    };
    let a = page_req(SimTime::ZERO, 0, HostOp::Write);
    let t = done_of(&edf(&[a]), 0);
    let b = page_req(SimTime::from_micros(10), 4, HostOp::Write);
    let c = HostRequest {
        deadline: Some(t + SimDuration::from_millis(1)),
        ..page_req(t, 8, HostOp::Write)
    };
    let report = edf(&[a, b, c]);
    assert_eq!(done_of(&report, 0), t, "A is undisturbed");
    assert!(
        done_of(&report, 2) < done_of(&report, 1),
        "the coinciding arrival must be ranked before the wake's pass"
    );
    assert_eq!(report_fingerprint(&report), GOLDEN_COINCIDE);
}

/// Equal arrivals fire in slice order, and an unsorted slice replays in
/// `(arrival, index)` order: the same requests shuffled — ties keeping
/// their relative order — produce the sorted slice's report, with only the
/// request indices of the completion log permuted. The closed loop (a
/// depth-2 host window) keeps slice order among ties too, and stages a
/// shuffled slice in the same order: its device sees the sorted slice
/// (the completion ids index the forwarded commands), and its host logs,
/// kept in slice order, are the sorted run's through the permutation.
#[test]
fn equal_arrivals_fire_in_slice_order_and_unsorted_slices_are_stably_sorted() {
    use dloop_repro::host::report_fingerprint;
    // Four same-instant writes to one plane (LPNs ≡ 0 mod 4), twice, then
    // same-instant reads of them; a straggler on another plane.
    let us = SimTime::from_micros;
    let sorted: Vec<HostRequest> = vec![
        page_req(us(0), 0, HostOp::Write),
        page_req(us(0), 4, HostOp::Write),
        page_req(us(0), 8, HostOp::Write),
        page_req(us(0), 12, HostOp::Write),
        page_req(us(300), 1, HostOp::Write),
        page_req(us(2_000), 12, HostOp::Read),
        page_req(us(2_000), 8, HostOp::Read),
        page_req(us(2_000), 4, HostOp::Read),
        page_req(us(2_000), 0, HostOp::Read),
    ];
    // `perm[k]` = position in `sorted` of the k-th request of the shuffled
    // slice; equal-arrival requests keep their relative order.
    let perm = [5usize, 0, 6, 4, 1, 7, 2, 8, 3];
    let shuffled: Vec<HostRequest> = perm.iter().map(|&k| sorted[k]).collect();
    let closed2 = |reqs: &[HostRequest]| {
        let config = SsdConfig::micro_gc_test();
        let mut device = SsdDevice::new(config.clone(), build_ftl(FtlKind::Dloop, &config));
        let host = closed_loop(&mut device, reqs, 2);
        device.audit().expect("audit");
        host
    };
    let legs: [(&str, fn(&[HostRequest]) -> RunReport, u64); 3] = [
        (
            "gated",
            |r| run_dloop_micro(r, RunConfig::gated()),
            GOLDEN_TIES[0],
        ),
        (
            "ncq4",
            |r| run_dloop_micro(r, RunConfig::ncq(4)),
            GOLDEN_TIES[1],
        ),
        (
            "open",
            |r| run_dloop_micro(r, RunConfig::open()),
            GOLDEN_TIES[2],
        ),
    ];
    let want_closed = closed2(&sorted);
    let got_closed = closed2(&shuffled);
    let closed_leg = ("closed2", want_closed.device.clone(), GOLDEN_TIES[3]);
    let device_legs = legs.map(|(name, run, golden)| (name, run(&sorted), golden));
    for (name, want, golden) in device_legs.iter().chain([&closed_leg]) {
        // Slice order among ties: one plane serves the four writes (and
        // the four reads) strictly in index order.
        for w in [[0, 1], [1, 2], [2, 3], [5, 6], [6, 7], [7, 8]] {
            assert!(
                done_of(want, w[0]) < done_of(want, w[1]),
                "{name}: request {} must finish before {}",
                w[0],
                w[1]
            );
        }
        assert_eq!(report_fingerprint(want), *golden, "{name}: sorted slice");
    }
    for ((name, run, _), (_, want, _)) in legs.iter().zip(&device_legs) {
        let got = run(&shuffled);
        assert_eq!(got.csv_row(), want.csv_row(), "{name}");
        assert_eq!(got.queue_log, want.queue_log, "{name}");
        let mapped: Vec<_> = got
            .completions
            .iter()
            .map(|&(r, a, d)| (perm[r as usize] as u64, a, d))
            .collect();
        assert_eq!(mapped, want.completions, "{name}");
    }
    assert_eq!(
        report_fingerprint(&got_closed.device),
        GOLDEN_TIES[3],
        "closed2: shuffled slice"
    );
    for (k, log) in got_closed.requests.iter().enumerate() {
        assert_eq!(*log, want_closed.requests[perm[k]], "closed2: request {k}");
    }
}

const GOLDEN_COINCIDE: u64 = 0x9012_c19c_933d_9e9b;
const GOLDEN_TIES: [u64; 4] = [
    0xe5e0_e7a7_be89_5b1b,
    0x6d5d_cbe7_24dd_6034,
    0x8e05_be37_c4e6_d210,
    0x2ef9_3822_b9df_b420,
];

/// Directed case 1 of the scheduler collapse — *where a chain-less op
/// issues*. Bursts of four same-instant hot writes (one DLOOP plane, so
/// ops queue and the collector runs), plus reads of never-written LPNs —
/// chain-less — each arriving at the exact instant an earlier write
/// completes, i.e. when its plane frees and an older queued op becomes
/// ready in the same scheduler pass. The priority list issues
/// that older op first and the read at its queue position; the windowed
/// policies issue the chain-less op first. The logs record issue order,
/// so the fingerprints below — recorded from the stand-alone gated loop
/// at the commit before it was folded into the queueing scheduler — hold
/// only if the one scheduler keeps the gated rule.
#[test]
fn gated_issues_chainless_ops_at_their_queue_position() {
    use dloop_repro::host::report_fingerprint;
    let space = SsdConfig::micro_gc_test().geometry().user_pages();
    let cases = ftl_cases(&SsdConfig::micro_gc_test());
    for ((name, kind, config), golden) in cases.into_iter().zip(GOLDEN_GATED_CHAINLESS) {
        let writes: Vec<HostRequest> = (0..3000u64)
            .map(|i| {
                let at = SimTime::from_micros(100 * (i / 4));
                page_req(at, 4 * ((i * 7) % 40), HostOp::Write)
            })
            .collect();
        // Chain-less reads perturb nothing, so completion instants of the
        // write-only run stay exact once the reads are mixed in.
        let calibration = run_micro(kind, &config, &writes, RunConfig::gated());
        let mut reqs = writes.clone();
        for &(req, _, done) in &calibration.completions {
            if req % 25 == 3 {
                reqs.push(page_req(done, space - 1 - req, HostOp::Read));
            }
        }
        let report = run_micro(kind, &config, &reqs, RunConfig::gated());
        let coinciding = reqs[writes.len()..]
            .iter()
            .filter(|read| {
                report
                    .queue_log
                    .tracked()
                    .iter()
                    .any(|&(_, arrival, issue, _)| issue == read.arrival && arrival < issue)
            })
            .count();
        assert!(
            coinciding > 0,
            "{name}: no read arrived as an older op's plane freed"
        );
        assert_eq!(report_fingerprint(&report), golden, "{name}");
        // The windowed FIFO policy differs from it in exactly this rule.
        let windowed = RunConfig::qos(QosSpec::WindowFifo).queue_depth(usize::MAX);
        let windowed = run_micro(kind, &config, &reqs, windowed);
        assert_eq!(windowed.csv_row(), report.csv_row(), "{name}");
        assert_ne!(report_fingerprint(&windowed), golden, "{name}");
    }
}

/// Directed case 2 — *looking past a lane head blocked on its secondary
/// plane*. Dense writes over most of the LPN space with a read of a
/// just-written page every fifth op: victims hold live pages, so FAST's
/// merges keep thousands of two-plane copies in flight while ops queue on
/// both ends of them. No shipped FTL *starts* a host chain with a
/// two-plane step, so the lane rule (a lane offers only its head) and the
/// priority list (skip anything blocked) select the same op; the
/// fingerprints were recorded from the stand-alone gated loop.
#[test]
fn gated_skips_blocked_ops_like_the_priority_list() {
    use dloop_repro::host::report_fingerprint;
    let cases = ftl_cases(&SsdConfig::micro_gc_test());
    for ((name, kind, config), golden) in cases.into_iter().zip(GOLDEN_GATED_SKIPPING) {
        let reqs: Vec<HostRequest> = (0..9000u64)
            .map(|i| {
                let at = SimTime::from_micros(20 * i);
                match i % 5 {
                    4 => page_req(at, ((i - 3) * 13) % 2400, HostOp::Read),
                    _ => page_req(at, (i * 13) % 2400, HostOp::Write),
                }
            })
            .collect();
        let report = run_micro(kind, &config, &reqs, RunConfig::gated());
        assert!(report.ftl.gc_invocations > 0, "{name}: no collection ran");
        assert_eq!(report_fingerprint(&report), golden, "{name}");
    }
}

// Each fourth entry is IDEAL's. Its report names itself DLOOP, the one
// field that moved when IDEAL became DLOOP over a resident CMT.
const GOLDEN_GATED_CHAINLESS: [u64; 4] = [
    0xce3b_0296_9fe0_15b4,
    0xbcf4_b788_9303_3dbb,
    0x8b6d_8e69_e3be_d217,
    0x054e_8b77_b876_86df,
];
const GOLDEN_GATED_SKIPPING: [u64; 4] = [
    0xb7b9_b2b6_35b0_169b,
    0x2062_7dc9_90ca_0f0e,
    0xf912_780d_d19d_bec9,
    0x69dd_f985_91e7_9323,
];
