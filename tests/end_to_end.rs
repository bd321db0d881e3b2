//! Cross-crate end-to-end tests: every FTL driven through the full stack
//! (workload generator → controller → hardware model → flash state), with
//! deep audits after every scenario.

use dloop_bench::{build_ftl, ftl_cases, ideal_config};
use dloop_repro::ftl_kit::config::{FtlKind, SsdConfig};
use dloop_repro::ftl_kit::device::{ReplayMode, RunConfig, SsdDevice};
use dloop_repro::ftl_kit::metrics::RunReport;
use dloop_repro::ftl_kit::request::{HostOp, HostRequest};
use dloop_repro::host::{HostConfig, HostStack};
use dloop_repro::simkit::{SimRng, SimTime};
use dloop_repro::workloads::synth::{sequential_fill, uniform_random, UniformParams};
use dloop_repro::workloads::WorkloadProfile;

fn w(at_us: u64, lpn: u64, pages: u32) -> HostRequest {
    HostRequest {
        arrival: SimTime::from_micros(at_us),
        lpn,
        pages,
        op: HostOp::Write,
        ..HostRequest::default()
    }
}

/// Closed-loop replay: open replay behind a pass-through host stack whose
/// one submission queue holds at most `depth` requests.
fn closed_loop(device: &mut SsdDevice, reqs: &[HostRequest], depth: u32) -> RunReport {
    let window = HostStack::new(HostConfig {
        queue_depth: Some(depth),
        ..HostConfig::passthrough()
    });
    window.run(device, reqs, ReplayMode::Open).device
}

fn r(at_us: u64, lpn: u64, pages: u32) -> HostRequest {
    HostRequest {
        arrival: SimTime::from_micros(at_us),
        lpn,
        pages,
        op: HostOp::Read,
        ..HostRequest::default()
    }
}

/// Every write must later be readable (one flash read per written page),
/// across GC of any intensity — for every FTL.
#[test]
fn written_data_stays_readable_under_gc_pressure() {
    for (name, kind, config) in ftl_cases(&SsdConfig::micro_gc_test()) {
        let mut device = SsdDevice::new(config.clone(), build_ftl(kind, &config));
        let user = device.flash().geometry().user_pages();
        let mut rng = SimRng::new(7);
        let mut written = std::collections::BTreeSet::new();
        let mut reqs = Vec::new();
        let mut t = 0u64;
        for _ in 0..8000 {
            let lpn = rng.below(user * 2 / 3);
            written.insert(lpn);
            reqs.push(w(t, lpn, 1));
            t += 120;
        }
        device.run_with(&reqs, RunConfig::open());
        device
            .audit()
            .unwrap_or_else(|e| panic!("{name}: audit failed: {e}"));

        // Every written page must still be mapped to live flash (FAST
        // resolves data-block mappings through the flash state, so it is
        // covered by the read check below instead).
        if kind != FtlKind::Fast {
            for &lpn in &written {
                assert!(
                    device.ftl().mapped_ppn(lpn).is_some(),
                    "{name}: lpn {lpn} lost its mapping"
                );
            }
        }
        let before = device.run_with(&[], RunConfig::open()).hw.reads;
        let read_reqs: Vec<_> = written
            .iter()
            .map(|&lpn| {
                t += 120;
                r(t, lpn, 1)
            })
            .collect();
        let report = device.run_with(&read_reqs, RunConfig::open());
        // At least one flash read per written page (translation-page reads
        // for CMT misses come on top for the demand-mapped schemes).
        assert!(
            report.hw.reads - before >= written.len() as u64,
            "{name}: {} reads for {} written pages",
            report.hw.reads - before,
            written.len()
        );
        assert_eq!(report.pages_read, written.len() as u64, "{name}");
        device.audit().unwrap();
    }
}

/// Reads of never-written LPNs touch no flash for any FTL.
#[test]
fn unwritten_reads_touch_nothing() {
    for (name, kind, config) in ftl_cases(&SsdConfig::tiny_test()) {
        let mut device = SsdDevice::new(config.clone(), build_ftl(kind, &config));
        let report = device.run_with(&[r(0, 5000, 4), r(100, 9999, 1)], RunConfig::open());
        assert_eq!(report.hw.reads, 0, "{name}");
    }
}

/// Device aging: a full sequential fill then random updates keeps audits
/// clean and forces GC on every FTL.
#[test]
fn aged_device_survives_random_updates() {
    for (name, kind, config) in ftl_cases(&SsdConfig::micro_gc_test()) {
        let mut device = SsdDevice::new(config.clone(), build_ftl(kind, &config));
        let user = device.flash().geometry().user_pages();
        let fill = sequential_fill(user, 0.7, 16);
        device.warm_up(&fill.requests);
        device.audit().unwrap_or_else(|e| panic!("{name}: {e}"));

        let mut rng = SimRng::new(13);
        let reqs: Vec<_> = (0..6000)
            .map(|i| w(i * 150, rng.below(user * 7 / 10), 1))
            .collect();
        let report = device.run_with(&reqs, RunConfig::open());
        device.audit().unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(
            report.total_erases > 0,
            "{name}: aged random updates must trigger reclamation"
        );
    }
}

/// The synthetic paper workloads drive every FTL cleanly end to end.
#[test]
fn paper_workloads_run_clean_on_all_ftls() {
    for profile in WorkloadProfile::all_paper() {
        let mut p = profile.clone();
        p.footprint_bytes = 1 << 28; // keep the micro test quick
        let trace = p.generate_scaled(3, 2048, 2500);
        for (name, kind, config) in ftl_cases(&SsdConfig::micro_gc_test()) {
            let mut device = SsdDevice::new(config.clone(), build_ftl(kind, &config));
            let report = device.run_with(&trace.requests, RunConfig::open());
            assert_eq!(report.requests_completed, trace.len() as u64);
            device
                .audit()
                .unwrap_or_else(|e| panic!("{name} on {}: {e}", profile.name));
        }
    }
}

/// Multi-page requests complete no later than the sum of their parts and
/// count each page.
#[test]
fn multi_page_requests_account_pages() {
    for (name, kind, config) in ftl_cases(&SsdConfig::tiny_test()) {
        let mut device = SsdDevice::new(config.clone(), build_ftl(kind, &config));
        let report = device.run_with(&[w(0, 0, 16), r(20_000, 0, 16)], RunConfig::open());
        assert_eq!(report.pages_written, 16, "{name}");
        assert_eq!(report.pages_read, 16, "{name}");
        device.audit().unwrap();
    }
}

/// Background-GC mode must preserve state semantics (same data layout
/// decisions) while changing only timing.
#[test]
fn background_gc_changes_timing_not_state() {
    let mk_reqs = || {
        let mut rng = SimRng::new(11);
        (0..6000u64)
            .map(|i| w(i * 150, rng.below(2000), 1))
            .collect::<Vec<_>>()
    };
    let sync_cfg = SsdConfig::micro_gc_test();
    let mut bg_cfg = SsdConfig::micro_gc_test();
    bg_cfg.background_gc = true;

    let mut sync_dev = SsdDevice::new(sync_cfg.clone(), build_ftl(FtlKind::Dloop, &sync_cfg));
    let sync_rep = sync_dev.run_with(&mk_reqs(), RunConfig::open());
    let mut bg_dev = SsdDevice::new(bg_cfg.clone(), build_ftl(FtlKind::Dloop, &bg_cfg));
    let bg_rep = bg_dev.run_with(&mk_reqs(), RunConfig::open());

    // Identical state trajectory…
    assert_eq!(sync_rep.total_erases, bg_rep.total_erases);
    assert_eq!(sync_rep.total_programs, bg_rep.total_programs);
    assert_eq!(sync_rep.ftl, bg_rep.ftl);
    // …but background GC responds faster (or equal) on average.
    assert!(
        bg_rep.mean_response_time_ms() <= sync_rep.mean_response_time_ms(),
        "background {} ms vs sync {} ms",
        bg_rep.mean_response_time_ms(),
        sync_rep.mean_response_time_ms()
    );
    sync_dev.audit().unwrap();
    bg_dev.audit().unwrap();
}

/// Uniform generator + device: sanity across page sizes.
#[test]
fn page_size_variants_run_clean() {
    for page_kb in [2u32, 4, 8, 16] {
        let mut config = SsdConfig::micro_gc_test();
        config.page_kb = page_kb;
        let trace = uniform_random(
            &UniformParams {
                requests: 2000,
                space_pages: 1500,
                rate_per_sec: 2000.0,
                ..UniformParams::default()
            },
            5,
        );
        let mut device = SsdDevice::new(config.clone(), build_ftl(FtlKind::Dloop, &config));
        let report = device.run_with(&trace.requests, RunConfig::open());
        assert_eq!(report.requests_completed, 2000);
        device
            .audit()
            .unwrap_or_else(|e| panic!("page {page_kb}KB: {e}"));
    }
}

/// Wear stays tightly distributed for DLOOP (the paper's implicit
/// wear-leveling claim): max erase count within a small factor of mean.
#[test]
fn dloop_wear_is_balanced() {
    let config = SsdConfig::micro_gc_test();
    let mut device = SsdDevice::new(config.clone(), build_ftl(FtlKind::Dloop, &config));
    let user = device.flash().geometry().user_pages();
    let mut rng = SimRng::new(3);
    let reqs: Vec<_> = (0..25_000u64)
        .map(|i| w(i * 80, rng.below(user / 2), 1))
        .collect();
    let report = device.run_with(&reqs, RunConfig::open());
    let (_, mean, max) = report.wear;
    assert!(mean > 1.0, "need real wear to judge balance (mean {mean})");
    assert!(
        (max as f64) < mean * 3.0 + 2.0,
        "wear imbalance: max {max} vs mean {mean:.2}"
    );
}

/// Closed-loop replay (the host stack's SQ window) bounds the number of
/// outstanding requests: under a bursty trace the open-loop backlog grows without limit while QD=1
/// serialises, and state effects are identical either way.
#[test]
fn closed_loop_bounds_queueing() {
    let config = SsdConfig::micro_gc_test();
    // A burst: everything arrives at t=0.
    let burst: Vec<_> = (0..500u64).map(|i| w(0, i % 300, 1)).collect();

    let mut open_dev = SsdDevice::new(config.clone(), build_ftl(FtlKind::Dloop, &config));
    let open = open_dev.run_with(&burst, RunConfig::open());

    let mut closed_dev = SsdDevice::new(config.clone(), build_ftl(FtlKind::Dloop, &config));
    let closed = closed_loop(&mut closed_dev, &burst, 4);

    // Same state trajectory (issue order identical).
    assert_eq!(open.total_programs, closed.total_programs);
    assert_eq!(open.total_erases, closed.total_erases);
    // Open-loop lets all 500 queue at once: its later requests see huge
    // response times; QD=4's mean response is also large (responses are
    // measured from t=0 arrivals) but its *throughput* (sim_end) cannot
    // beat the device's service capability.
    assert!(closed.sim_end >= open.sim_end || closed.sim_end == open.sim_end);
    open_dev.audit().unwrap();
    closed_dev.audit().unwrap();
}

/// QD=1 fully serialises: completion time equals the sum of service times.
#[test]
fn closed_loop_qd1_serialises() {
    let config = ideal_config(&SsdConfig::tiny_test());
    let mut device = SsdDevice::new(config.clone(), build_ftl(FtlKind::Dloop, &config));
    // Ten writes to the same plane, all arriving at once.
    let planes = config.geometry().total_planes() as u64;
    let burst: Vec<_> = (0..10u64).map(|i| w(0, i * planes, 1)).collect();
    let report = closed_loop(&mut device, &burst, 1);
    // Each write: 0.2 cmd + 51.2 xfer + 200 program = 251.4 us, QD1 means
    // the next one starts only after the previous completed.
    let expect_ms = 10.0 * 0.2514;
    assert!(
        (report.sim_end.as_millis_f64() - expect_ms).abs() < 0.01,
        "sim_end {} vs expected {}",
        report.sim_end.as_millis_f64(),
        expect_ms
    );
}

/// Issue-gated (FlashSim priority-list) replay: identical state effects to
/// reservation mode, sane timing, and strictly no future booking.
#[test]
fn gated_mode_matches_state_and_orders_sanely() {
    let config = SsdConfig::micro_gc_test();
    let mut rng = SimRng::new(17);
    let reqs: Vec<_> = (0..4000u64)
        .map(|i| {
            if rng.chance(0.3) {
                r(i * 200, rng.below(2000), 1)
            } else {
                w(i * 200, rng.below(2000), 1)
            }
        })
        .collect();

    let mut reserve_dev = SsdDevice::new(config.clone(), build_ftl(FtlKind::Dloop, &config));
    let reserve = reserve_dev.run_with(&reqs, RunConfig::open());

    let mut gated_dev = SsdDevice::new(config.clone(), build_ftl(FtlKind::Dloop, &config));
    let gated = gated_dev.run_with(&reqs, RunConfig::gated());

    // Translation happens at arrival in both modes: identical state.
    assert_eq!(reserve.total_programs, gated.total_programs);
    assert_eq!(reserve.total_erases, gated.total_erases);
    assert_eq!(reserve.ftl, gated.ftl);
    assert_eq!(reserve.pages_written, gated.pages_written);
    // Timing differs but stays the same order of magnitude.
    let (a, b) = (
        reserve.mean_response_time_ms(),
        gated.mean_response_time_ms(),
    );
    assert!(a.is_finite() && b.is_finite());
    assert!(b < a * 20.0 + 1.0, "gated {b} ms vs reserve {a} ms");
    reserve_dev.audit().unwrap();
    gated_dev.audit().unwrap();
}

/// In gated mode an operation whose plane is busy is skipped, not a
/// head-of-line blocker: a burst to one plane must not delay another
/// plane's single op behind it in FIFO order.
#[test]
fn gated_mode_skips_blocked_ops() {
    let config = ideal_config(&SsdConfig::tiny_test());
    let planes = config.geometry().total_planes() as u64;
    let mut device = SsdDevice::new(config.clone(), build_ftl(FtlKind::Dloop, &config));
    // Ten writes to plane 0 (lpns ≡ 0 mod planes), then one to plane 1,
    // all arriving together.
    let mut reqs: Vec<_> = (0..10u64).map(|i| w(0, i * planes, 1)).collect();
    reqs.push(w(0, 1, 1)); // plane 1
    let report = device.run_with(&reqs, RunConfig::gated());
    // The plane-1 write is not serialised behind plane 0's backlog: its
    // response is about one write service, not ten.
    assert!(
        report.response_ms.min().unwrap() < 0.3,
        "someone should have finished fast: min {} ms",
        report.response_ms.min().unwrap()
    );
    device.audit().unwrap();
}

/// Latency decomposition: wait + service + gc-block stats are populated
/// and consistent with the overall response times.
#[test]
fn latency_breakdown_is_populated() {
    let config = SsdConfig::micro_gc_test();
    let mut device = SsdDevice::new(config.clone(), build_ftl(FtlKind::Dloop, &config));
    let user = device.flash().geometry().user_pages();
    let mut rng = SimRng::new(23);
    let reqs: Vec<_> = (0..8000u64)
        .map(|i| w(i * 60, rng.below(user / 2), 1))
        .collect();
    let report = device.run_with(&reqs, RunConfig::open());
    assert!(report.wait_ms.count() > 0);
    assert!(report.service_ms.count() > 0);
    assert!(
        report.gc_block_ms.count() > 0,
        "GC must have blocked some ops at this intensity"
    );
    // A page op's service is at least one write service (~0.25 ms).
    assert!(report.service_ms.mean() >= 0.25);
    // Decomposition is bounded by the mean response.
    assert!(report.wait_ms.mean() <= report.response_ms.mean() + 1e-9);
}

/// Open, closed-loop (a depth-16 host window) and gated replay run every
/// FTL cleanly and agree on state trajectories (issue order is arrival
/// order in all of them).
#[test]
fn replay_modes_agree_on_state_for_all_ftls() {
    for (name, kind, config) in ftl_cases(&SsdConfig::micro_gc_test()) {
        let mut rng = SimRng::new(31);
        let reqs: Vec<_> = (0..2500u64)
            .map(|i| w(i * 150, rng.below(1500), 1))
            .collect();

        let mut open = SsdDevice::new(config.clone(), build_ftl(kind, &config));
        let a = open.run_with(&reqs, RunConfig::open());
        let mut closed = SsdDevice::new(config.clone(), build_ftl(kind, &config));
        let b = closed_loop(&mut closed, &reqs, 16);
        let mut gated = SsdDevice::new(config.clone(), build_ftl(kind, &config));
        let c = gated.run_with(&reqs, RunConfig::gated());

        assert_eq!(a.total_programs, b.total_programs, "{name} closed");
        assert_eq!(a.total_programs, c.total_programs, "{name} gated");
        assert_eq!(a.total_erases, c.total_erases, "{name}");
        open.audit().unwrap();
        closed.audit().unwrap();
        gated.audit().unwrap();
    }
}
