//! Behavioural integration tests for the DLOOP FTL, driven through the
//! full device stack (controller + hardware model + flash state).

use dloop::DloopFtl;
use dloop_ftl_kit::config::SsdConfig;
use dloop_ftl_kit::device::{RunConfig, SsdDevice};
use dloop_ftl_kit::request::{HostOp, HostRequest};
use dloop_simkit::{SimRng, SimTime};

fn dloop_device(config: &SsdConfig) -> SsdDevice {
    SsdDevice::new(config.clone(), Box::new(DloopFtl::new(config)))
}

fn w(at_us: u64, lpn: u64, pages: u32) -> HostRequest {
    HostRequest {
        arrival: SimTime::from_micros(at_us),
        lpn,
        pages,
        op: HostOp::Write,
        ..HostRequest::default()
    }
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

#[test]
fn sequential_write_stripes_across_planes() {
    let config = SsdConfig::tiny_test();
    let mut d = dloop_device(&config);
    let planes = d.flash().geometry().total_planes() as u64;
    d.run_with(&[w(0, 0, 2 * planes as u32)], RunConfig::open());
    // Equation (1): every page sits on plane lpn % planes.
    for lpn in 0..2 * planes {
        let ppn = d.ftl().mapped_ppn(lpn).expect("page must be mapped");
        assert_eq!(
            d.flash().geometry().plane_of_ppn(ppn) as u64,
            lpn % planes,
            "lpn {lpn} misplaced"
        );
    }
    d.audit().unwrap();
}

#[test]
fn striped_write_is_faster_than_serial_writes_would_be() {
    // One 8-page write across 4 planes (2 channels) should take far less
    // than 8 sequential write services.
    let config = SsdConfig::tiny_test();
    let mut d = dloop_device(&config);
    let report = d.run_with(&[w(0, 0, 8)], RunConfig::open());
    let one_write_us = 251.4;
    let serial = 8.0 * one_write_us / 1000.0;
    assert!(
        report.mean_response_time_ms() < serial * 0.75,
        "MRT {} ms vs serial {} ms — plane parallelism missing?",
        report.mean_response_time_ms(),
        serial
    );
}

#[test]
fn update_goes_to_same_plane_and_invalidates_old() {
    let config = SsdConfig::tiny_test();
    let mut d = dloop_device(&config);
    d.run_with(&[w(0, 5, 1)], RunConfig::open());
    let old = d.ftl().mapped_ppn(5).unwrap();
    d.run_with(&[w(0, 5, 1)], RunConfig::open());
    let new = d.ftl().mapped_ppn(5).unwrap();
    assert_ne!(old, new, "out-of-place update must relocate");
    assert_eq!(
        d.flash().geometry().plane_of_ppn(old),
        d.flash().geometry().plane_of_ppn(new),
        "update left its home plane"
    );
    d.audit().unwrap();
}

#[test]
fn read_after_many_updates_returns_latest_mapping() {
    let config = SsdConfig::tiny_test();
    let mut d = dloop_device(&config);
    let mut reqs = Vec::new();
    for i in 0..50 {
        reqs.push(w(i * 300, 7, 1));
    }
    reqs.push(r(50 * 300, 7, 1));
    let report = d.run_with(&reqs, RunConfig::open());
    assert_eq!(report.pages_read, 1);
    // Exactly one live copy of lpn 7 remains (plus translation pages).
    d.audit().unwrap();
}

#[test]
fn gc_triggers_under_pressure_and_uses_copyback() {
    let config = SsdConfig::micro_gc_test();
    let mut d = dloop_device(&config);
    let geometry = d.flash().geometry().clone();
    // Hammer updates on a working set that overflows the per-plane pools.
    let user_pages = geometry.user_pages();
    let mut rng = SimRng::new(1);
    let mut reqs = Vec::new();
    for i in 0..6000u64 {
        reqs.push(w(i * 50, rng.below(user_pages / 2), 1));
    }
    let report = d.run_with(&reqs, RunConfig::open());
    assert!(report.ftl.gc_invocations > 0, "GC never ran");
    assert!(report.ftl.copyback_moves > 0, "no copy-back moves");
    assert!(
        report.ftl.copyback_moves > report.ftl.external_moves,
        "copy-back must dominate GC moves (cb {} vs ext {})",
        report.ftl.copyback_moves,
        report.ftl.external_moves
    );
    assert!(report.total_erases > 0);
    d.audit().unwrap();
}

#[test]
fn parity_policy_wastes_pages_but_preserves_parity() {
    let config = SsdConfig::micro_gc_test();
    let mut d = dloop_device(&config);
    let user_pages = d.flash().geometry().user_pages();
    let mut rng = SimRng::new(7);
    let mut reqs = Vec::new();
    for i in 0..8000u64 {
        reqs.push(w(i * 50, rng.below(user_pages / 2), 1));
    }
    let report = d.run_with(&reqs, RunConfig::open());
    // With random invalidation patterns some GC moves must hit parity
    // mismatches.
    assert!(
        report.ftl.parity_skips > 0,
        "expected at least one parity skip under random GC"
    );
    assert_eq!(report.total_skips, report.ftl.parity_skips);
    d.audit().unwrap();
}

#[test]
fn gc_disabled_copyback_ablation_moves_over_bus() {
    let mut config = SsdConfig::micro_gc_test();
    config.copyback_enabled = false;
    let mut d = dloop_device(&config);
    let user_pages = d.flash().geometry().user_pages();
    let mut rng = SimRng::new(3);
    let reqs: Vec<_> = (0..6000u64)
        .map(|i| w(i * 50, rng.below(user_pages / 2), 1))
        .collect();
    let report = d.run_with(&reqs, RunConfig::open());
    assert!(report.ftl.gc_invocations > 0);
    assert_eq!(report.ftl.copyback_moves, 0);
    assert!(report.ftl.external_moves > 0);
    assert_eq!(
        report.ftl.parity_skips, 0,
        "no parity rule without copy-back"
    );
    d.audit().unwrap();
}

#[test]
fn copyback_gc_beats_external_gc_on_response_time() {
    let make_reqs = || {
        let mut rng = SimRng::new(11);
        (0..10_000u64)
            .map(|i| w(i * 220, rng.below(2000), 1))
            .collect::<Vec<_>>()
    };
    let mut with_cb = dloop_device(&SsdConfig::micro_gc_test());
    let rep_cb = with_cb.run_with(&make_reqs(), RunConfig::open());

    let mut config = SsdConfig::micro_gc_test();
    config.copyback_enabled = false;
    let mut without_cb = dloop_device(&config);
    let rep_ext = without_cb.run_with(&make_reqs(), RunConfig::open());

    assert!(rep_cb.ftl.gc_invocations > 0 && rep_ext.ftl.gc_invocations > 0);
    assert!(
        rep_cb.mean_response_time_ms() < rep_ext.mean_response_time_ms(),
        "copy-back {} ms should beat external {} ms",
        rep_cb.mean_response_time_ms(),
        rep_ext.mean_response_time_ms()
    );
}

#[test]
fn translation_pages_spread_across_planes() {
    let config = SsdConfig::tiny_test();
    let mut d = dloop_device(&config);
    // Touch widely separated LPNs so several translation pages materialise,
    // then overflow the CMT to force write-backs.
    let mut reqs = Vec::new();
    let mut t = 0;
    for round in 0..3u64 {
        for tvpn in 0..8u64 {
            for k in 0..40u64 {
                reqs.push(w(t, tvpn * 256 + k + round, 1));
                t += 200;
            }
        }
    }
    let report = d.run_with(&reqs, RunConfig::open());
    assert!(
        report.ftl.translation_writes > 0,
        "CMT overflow should force translation write-backs"
    );
    d.audit().unwrap();
}

#[test]
fn cmt_miss_traffic_appears_once_materialised() {
    let config = SsdConfig::micro_gc_test(); // cmt_capacity 64
    let mut d = dloop_device(&config);
    let user = d.flash().geometry().user_pages();
    let mut reqs = Vec::new();
    let mut t = 0u64;
    // Write 300 distinct LPNs spread over several translation pages: the
    // CMT (64 entries) thrashes, forcing evictions and (re)loads.
    for i in 0..300u64 {
        reqs.push(w(t, (i * 17) % user, 1));
        t += 300;
    }
    // Second pass re-reads them: every access is a miss again.
    for i in 0..300u64 {
        reqs.push(r(t, (i * 17) % user, 1));
        t += 300;
    }
    let report = d.run_with(&reqs, RunConfig::open());
    assert!(report.ftl.translation_reads > 0, "no translation reads");
    assert!(report.ftl.translation_writes > 0, "no translation writes");
    d.audit().unwrap();
}

#[test]
fn deterministic_runs_for_equal_inputs() {
    let make = || {
        let mut rng = SimRng::new(99);
        (0..3000u64)
            .map(|i| {
                if rng.chance(0.3) {
                    r(i * 100, rng.below(4000), 1)
                } else {
                    w(i * 100, rng.below(4000), 1)
                }
            })
            .collect::<Vec<_>>()
    };
    let mut a = dloop_device(&SsdConfig::micro_gc_test());
    let mut b = dloop_device(&SsdConfig::micro_gc_test());
    let ra = a.run_with(&make(), RunConfig::open());
    let rb = b.run_with(&make(), RunConfig::open());
    assert_eq!(ra.mean_response_time_ms(), rb.mean_response_time_ms());
    assert_eq!(ra.total_erases, rb.total_erases);
    assert_eq!(ra.plane_request_counts, rb.plane_request_counts);
    assert_eq!(ra.ftl, rb.ftl);
}

#[test]
fn mixed_workload_audits_clean_after_heavy_gc() {
    let config = SsdConfig::micro_gc_test();
    let mut d = dloop_device(&config);
    let user = d.flash().geometry().user_pages();
    let mut rng = SimRng::new(42);
    let mut reqs = Vec::new();
    for i in 0..20_000u64 {
        let lpn = rng.below(user * 3 / 4);
        if rng.chance(0.25) {
            reqs.push(r(i * 40, lpn, 1 + (rng.below(4)) as u32));
        } else {
            reqs.push(w(i * 40, lpn, 1 + (rng.below(4)) as u32));
        }
    }
    let report = d.run_with(&reqs, RunConfig::open());
    assert!(report.ftl.gc_invocations > 10);
    d.audit().unwrap();
    // WAF must exceed 1 under GC but stay sane.
    assert!(
        report.waf() > 1.0 && report.waf() < 10.0,
        "WAF {}",
        report.waf()
    );
}

/// The ablation's IDEAL bound: DLOOP over a CMT that holds every entry,
/// so the mapping is never demand-cached.
mod ideal {
    use super::*;

    fn device(config: &SsdConfig) -> SsdDevice {
        let config = SsdConfig {
            cmt_capacity: config.geometry().user_pages() as usize,
            ..config.clone()
        };
        dloop_device(&config)
    }

    fn random_write_trace(seed: u64, n: u64, space: u64, gap_us: u64) -> Vec<HostRequest> {
        let mut rng = SimRng::new(seed);
        (0..n).map(|i| w(i * gap_us, rng.below(space), 1)).collect()
    }

    #[test]
    fn basic_round_trip_and_striping() {
        let config = SsdConfig::tiny_test();
        let mut d = device(&config);
        let planes = d.flash().geometry().total_planes() as u64;
        d.run_with(&[w(0, 0, 2 * planes as u32)], RunConfig::open());
        for lpn in 0..2 * planes {
            let ppn = d.ftl().mapped_ppn(lpn).unwrap();
            assert_eq!(d.flash().geometry().plane_of_ppn(ppn) as u64, lpn % planes);
        }
        d.audit().unwrap();
    }

    #[test]
    fn no_translation_traffic_ever() {
        let config = SsdConfig::micro_gc_test();
        let mut d = device(&config);
        let user = d.flash().geometry().user_pages();
        let rep = d.run_with(
            &random_write_trace(11, 10_000, user / 2, 50),
            RunConfig::open(),
        );
        assert_eq!(rep.ftl.translation_reads, 0);
        assert_eq!(rep.ftl.translation_writes, 0);
        assert!(rep.ftl.gc_invocations > 0);
        d.audit().unwrap();
    }

    #[test]
    fn ideal_is_at_least_as_fast_as_dloop() {
        let mk = || random_write_trace(17, 8000, 1500, 120);
        let config = SsdConfig::micro_gc_test();
        let mut ideal = device(&config);
        let ri = ideal.run_with(&mk(), RunConfig::open());
        let mut dl = dloop_device(&config);
        let rd = dl.run_with(&mk(), RunConfig::open());
        assert!(
            ri.mean_response_time_ms() <= rd.mean_response_time_ms() * 1.05,
            "IDEAL {} ms should not lose to DLOOP {} ms",
            ri.mean_response_time_ms(),
            rd.mean_response_time_ms()
        );
    }
}
