//! Property-based tests (via `dloop_simkit::check`) over the core
//! invariants.
//!
//! The central property: for *any* request stream, every FTL maintains a
//! consistent device — page states, directory ownership, mapping tables
//! and free pools all agree — and the mapping behaves like a simple model
//! dictionary.
//!
//! Failures print a `SIMKIT_CHECK_REPLAY` seed for deterministic replay.

use dloop_bench::{build_ftl, ftl_cases};
use dloop_repro::faults::FaultConfig;
use dloop_repro::ftl_kit::config::{FtlKind, SsdConfig};
use dloop_repro::ftl_kit::device::{audit, RunConfig, SsdDevice};
use dloop_repro::ftl_kit::dir::{PageDirectory, PageOwner};
use dloop_repro::ftl_kit::ftl::{FtlContext, OpChain, Phase};
use dloop_repro::ftl_kit::metrics::RunReport;
use dloop_repro::ftl_kit::request::{HostOp, HostRequest};
use dloop_repro::nand::energy::EnergyConfig;
use dloop_repro::nand::{FlashState, Lpn, PageState, Ppn};
use dloop_repro::simkit::check::{self, Checker, Generator};
use dloop_repro::simkit::SimTime;
use dloop_repro::{check_assert, check_assert_eq};
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
enum Op {
    Write { lpn: u64, pages: u8 },
    Read { lpn: u64, pages: u8 },
}

fn op_gen(space: u64) -> check::BoxedGenerator<Op> {
    check::weighted(vec![
        (
            3,
            (check::u64s(0..space), check::u8s(1..5))
                .map(|(lpn, pages)| Op::Write { lpn, pages })
                .boxed(),
        ),
        (
            1,
            (check::u64s(0..space), check::u8s(1..5))
                .map(|(lpn, pages)| Op::Read { lpn, pages })
                .boxed(),
        ),
    ])
    .boxed()
}

/// Drive a device with an op list; return it with the model dictionary.
fn drive(kind: FtlKind, config: &SsdConfig, ops: &[Op]) -> (SsdDevice, BTreeMap<u64, bool>) {
    let mut device = SsdDevice::new(config.clone(), build_ftl(kind, &config));
    let user = device.flash().geometry().user_pages();
    let mut model: BTreeMap<u64, bool> = BTreeMap::new();
    let mut reqs = Vec::with_capacity(ops.len());
    let mut t = 0u64;
    for op in ops {
        t += 150;
        match *op {
            Op::Write { lpn, pages } => {
                for k in 0..pages as u64 {
                    model.insert((lpn + k) % user, true);
                }
                reqs.push(HostRequest {
                    arrival: SimTime::from_micros(t),
                    lpn,
                    pages: pages as u32,
                    op: HostOp::Write,
                    ..HostRequest::default()
                });
            }
            Op::Read { lpn, pages } => {
                reqs.push(HostRequest {
                    arrival: SimTime::from_micros(t),
                    lpn,
                    pages: pages as u32,
                    op: HostOp::Read,
                    ..HostRequest::default()
                });
            }
        }
    }
    device.run_with(&reqs, RunConfig::open());
    (device, model)
}

fn check_against_model(
    kind: FtlKind,
    device: &SsdDevice,
    model: &BTreeMap<u64, bool>,
) -> Result<(), String> {
    device
        .audit()
        .map_err(|e| format!("{kind:?}: audit failed: {e}"))?;
    // Non-FAST schemes expose the mapping directly: it must exactly match
    // the model's written set and point at valid pages.
    if kind != FtlKind::Fast {
        let user = device.flash().geometry().user_pages();
        for lpn in 0..user {
            let mapped = device.ftl().mapped_ppn(lpn);
            let written = model.get(&lpn).copied().unwrap_or(false);
            check_assert_eq!(
                mapped.is_some(),
                written,
                "{:?}: mapping presence mismatch at lpn {}",
                kind,
                lpn
            );
            if let Some(ppn) = mapped {
                check_assert_eq!(
                    device.flash().page_state(ppn),
                    PageState::Valid,
                    "{:?}: lpn {} maps to dead page",
                    kind,
                    lpn
                );
            }
        }
    }
    Ok(())
}

/// Any request stream leaves any FTL in a fully consistent state that
/// agrees with a model dictionary.
#[test]
fn any_stream_keeps_every_ftl_consistent() {
    let gen = check::vec_of(op_gen(3000), 1..400);
    Checker::new().cases(24).run(&gen, |ops| {
        for (name, kind, config) in ftl_cases(&SsdConfig::micro_gc_test()) {
            let (device, model) = drive(kind, &config, ops);
            check_against_model(kind, &device, &model).map_err(|e| format!("{name}: {e}"))?;
        }
        Ok(())
    });
}

/// Write-heavy streams with a small working set (GC torture).
#[test]
fn gc_torture_stays_consistent() {
    let gen = check::vec_of(op_gen(600), 200..700);
    Checker::new().cases(24).run(&gen, |ops| {
        for kind in [FtlKind::Dloop, FtlKind::Dftl, FtlKind::Fast] {
            let (device, model) = drive(kind, &SsdConfig::micro_gc_test(), ops);
            check_against_model(kind, &device, &model)?;
        }
        Ok(())
    });
}

/// DLOOP's Equation-1 invariant holds for arbitrary streams: every
/// mapped data page lives on plane `lpn % planes`.
#[test]
fn dloop_plane_invariant() {
    let gen = check::vec_of(op_gen(2000), 1..400);
    Checker::new().cases(24).run(&gen, |ops| {
        let (device, model) = drive(FtlKind::Dloop, &SsdConfig::micro_gc_test(), ops);
        let g = device.flash().geometry().clone();
        let planes = g.total_planes() as u64;
        for (&lpn, _) in model.iter() {
            if let Some(ppn) = device.ftl().mapped_ppn(lpn) {
                check_assert_eq!(g.plane_of_ppn(ppn) as u64, lpn % planes);
            }
        }
        Ok(())
    });
}

/// Response times are finite, non-negative, and the report's request
/// accounting matches the input.
#[test]
fn report_accounting_is_exact() {
    let gen = check::vec_of(op_gen(2000), 1..200);
    Checker::new().cases(24).run(&gen, |ops| {
        let config = SsdConfig::micro_gc_test();
        let mut device = SsdDevice::new(config.clone(), build_ftl(FtlKind::Dloop, &config));
        let mut reqs = Vec::new();
        let mut pages_w = 0u64;
        let mut pages_r = 0u64;
        for (i, op) in ops.iter().enumerate() {
            let (lpn, pages, kind) = match *op {
                Op::Write { lpn, pages } => (lpn, pages, HostOp::Write),
                Op::Read { lpn, pages } => (lpn, pages, HostOp::Read),
            };
            match kind {
                HostOp::Write => pages_w += pages as u64,
                HostOp::Read => pages_r += pages as u64,
            }
            reqs.push(HostRequest {
                arrival: SimTime::from_micros(i as u64 * 100),
                lpn,
                pages: pages as u32,
                op: kind,
                ..HostRequest::default()
            });
        }
        let report = device.run_with(&reqs, RunConfig::open());
        check_assert_eq!(report.requests_completed, ops.len() as u64);
        check_assert_eq!(report.pages_written, pages_w);
        check_assert_eq!(report.pages_read, pages_r);
        check_assert!(report.mean_response_time_ms().is_finite());
        check_assert!(report.mean_response_time_ms() >= 0.0);
        check_assert!(report.sim_end.as_nanos() < u64::MAX / 2);
        Ok(())
    });
}

/// Every additive counter of a report, labelled: the hardware, FTL and
/// flash totals, per-plane requests and busy time, per-channel busy time,
/// retry time, energy and the media counters. (Factory-bad blocks are a
/// level, not a count, and are checked apart.)
fn additive_counters(r: &RunReport) -> Vec<(String, u64)> {
    let hw = r.hw;
    let f = r.ftl;
    let m = &r.media;
    let energy = r.energy.expect("energy accounting is on");
    let mut out: Vec<(String, u64)> = [
        ("hw.reads", hw.reads),
        ("hw.writes", hw.writes),
        ("hw.erases", hw.erases),
        ("hw.copybacks", hw.copybacks),
        ("hw.interplane_copies", hw.interplane_copies),
        ("hw.read_retry_steps", hw.read_retry_steps),
        ("ftl.gc_invocations", f.gc_invocations),
        ("ftl.copyback_moves", f.copyback_moves),
        ("ftl.external_moves", f.external_moves),
        ("ftl.parity_skips", f.parity_skips),
        ("ftl.translation_reads", f.translation_reads),
        ("ftl.translation_writes", f.translation_writes),
        ("ftl.full_merges", f.full_merges),
        ("ftl.partial_merges", f.partial_merges),
        ("ftl.switch_merges", f.switch_merges),
        ("total_erases", r.total_erases),
        ("total_programs", r.total_programs),
        ("total_skips", r.total_skips),
        ("retry_ns", r.retry_ns),
        ("energy.array_fj", energy.array_fj),
        ("energy.bus_fj", energy.bus_fj),
        ("media.program_fails", m.program_fails),
        ("media.grown_bad_blocks", m.grown_bad_blocks),
        ("media.uncorrectable_reads", m.uncorrectable_reads),
        ("media.read_retry_steps", m.read_retry_steps),
    ]
    .map(|(name, v)| (name.to_string(), v))
    .into();
    let series: [(&str, &[u64]); 4] = [
        ("plane_request_counts", &r.plane_request_counts),
        ("plane_busy_ns", &r.plane_busy_ns),
        ("channel_busy_ns", &r.channel_busy_ns),
        ("media.retry_hist", &m.retry_hist),
    ];
    for (name, values) in series {
        out.extend(
            values
                .iter()
                .enumerate()
                .map(|(i, &v)| (format!("{name}[{i}]"), v)),
        );
    }
    out
}

/// A report covers its own run and nothing else: on a fresh device, run A
/// and then B (every arrival of B after every arrival of A); a fresh twin
/// that runs A++B at once reports exactly A's counters plus B's, field by
/// field, for every FTL, in open replay and through an NCQ(8) window,
/// with energy accounting on and with and without a media-fault plan.
/// Translation runs in arrival order in both modes, so no counter depends
/// on admission.
#[test]
fn counters_are_additive_over_consecutive_runs() {
    let gen = (check::vec_of(op_gen(1500), 1..150), check::u64s(0..1 << 20));
    Checker::new().cases(24).run(&gen, |(ops, cut)| {
        let reqs: Vec<HostRequest> = ops
            .iter()
            .enumerate()
            .map(|(i, op)| {
                let (lpn, pages, op) = match *op {
                    Op::Write { lpn, pages } => (lpn, pages, HostOp::Write),
                    Op::Read { lpn, pages } => (lpn, pages, HostOp::Read),
                };
                HostRequest {
                    arrival: SimTime::from_micros(i as u64 * 100),
                    lpn,
                    pages: pages as u32,
                    op,
                    ..HostRequest::default()
                }
            })
            .collect();
        let (a, b) = reqs.split_at(*cut as usize % (reqs.len() + 1));
        let lit = SsdConfig::micro_gc_test().with_energy(EnergyConfig::paper_default());
        let faulty = lit.clone().with_fault(FaultConfig::light(*cut));
        for (label, base) in [("energy", &lit), ("energy+faults", &faulty)] {
            for (name, kind, config) in ftl_cases(base) {
                let runs: [fn() -> RunConfig; 2] = [RunConfig::open, || RunConfig::ncq(8)];
                for run in runs {
                    let fresh = || SsdDevice::new(config.clone(), build_ftl(kind, &config));
                    let mut split = fresh();
                    let ra = split.run_with(a, run());
                    let rb = split.run_with(b, run());
                    let rab = fresh().run_with(&reqs, run());
                    let whole = additive_counters(&rab);
                    let parts = additive_counters(&ra)
                        .into_iter()
                        .zip(additive_counters(&rb));
                    for ((field, ab), ((_, x), (_, y))) in whole.into_iter().zip(parts) {
                        check_assert_eq!(
                            x + y,
                            ab,
                            "{} {} {:?}: {} of A plus B is not A++B's",
                            label,
                            name,
                            run(),
                            field
                        );
                    }
                    for r in [&ra, &rb] {
                        check_assert_eq!(
                            r.media.factory_bad_blocks,
                            rab.media.factory_bad_blocks,
                            "{} {}: every window reports the device's factory-bad blocks",
                            label,
                            name
                        );
                    }
                }
            }
        }
        Ok(())
    });
}

/// Valid-page conservation: total live pages equal distinct written
/// LPNs plus live translation pages, for the demand-mapped schemes.
#[test]
fn live_page_conservation() {
    let gen = check::vec_of(op_gen(1500), 1..300);
    Checker::new().cases(24).run(&gen, |ops| {
        for kind in [FtlKind::Dloop, FtlKind::Dftl] {
            let (device, model) = drive(kind, &SsdConfig::micro_gc_test(), ops);
            let live = device.flash().total_valid_pages();
            let data_live = model.len() as u64;
            // Translation pages are the only other live content.
            check_assert!(
                live >= data_live,
                "{:?}: live {} < data {}",
                kind,
                live,
                data_live
            );
            // Bounded by data + all possible translation pages.
            let max_tpages = device.flash().geometry().translation_page_count();
            check_assert!(
                live <= data_live + max_tpages,
                "{:?}: live {} > data {} + tpages {}",
                kind,
                live,
                data_live,
                max_tpages
            );
        }
        Ok(())
    });
}

/// The audits can fail: on an aged `micro_gc_test` device, each of three
/// corruptions that keep the flash and the page directory in step with
/// each other is caught by the device audit, for both demand-mapped FTLs.
#[test]
fn device_audit_rejects_a_corrupted_demand_map() {
    type Corruption = fn(&mut FlashState, &mut PageDirectory, Lpn, Ppn);
    let corruptions: [(&str, Corruption); 3] = [
        ("a data page's directory owner", |_, dir, lpn, ppn| {
            dir.set_data(ppn, lpn + 1)
        }),
        ("a mapped page's flash state", |flash, dir, _, ppn| {
            flash.invalidate(ppn).unwrap();
            dir.clear(ppn);
        }),
        ("a translation page's owner", |flash, dir, _, _| {
            let (tp, tvpn) = (0..flash.geometry().total_physical_pages())
                .find_map(|ppn| match dir.owner(ppn) {
                    PageOwner::Translation(tvpn) => Some((ppn, tvpn)),
                    _ => None,
                })
                .expect("aging wrote translation pages back");
            dir.set_translation(tp, tvpn + 1);
        }),
    ];
    for kind in [FtlKind::Dloop, FtlKind::Dftl] {
        for (what, corrupt) in corruptions {
            let config = SsdConfig::micro_gc_test();
            let geometry = config.geometry();
            let mut flash = FlashState::new(geometry.clone());
            let mut dir = PageDirectory::new(&geometry);
            let mut ftl = build_ftl(kind, &config);
            let span = geometry.user_pages() / 2;
            for i in 0..4 * span {
                let [mut host, mut gc, mut scan] = [OpChain::new(), OpChain::new(), OpChain::new()];
                let mut ctx = FtlContext {
                    flash: &mut flash,
                    dir: &mut dir,
                    host_chain: &mut host,
                    gc_chain: &mut gc,
                    scan_chain: &mut scan,
                    phase: Phase::Host,
                };
                ftl.write(i * 7 % span, &mut ctx);
            }
            assert!(
                ftl.counters().gc_invocations > 0,
                "{kind:?} never collected"
            );
            audit(&flash, &dir, ftl.as_ref()).unwrap();
            let lpn = 1;
            let ppn = ftl.mapped_ppn(lpn).unwrap();
            corrupt(&mut flash, &mut dir, lpn, ppn);
            assert!(
                audit(&flash, &dir, ftl.as_ref()).is_err(),
                "{kind:?}: corrupting {what} passed the audit"
            );
        }
    }
}
