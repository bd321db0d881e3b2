//! Fault-injection properties: under randomized media-fault plans, every
//! FTL keeps its invariants, no `NandError` escapes as a panic, the fault
//! sequence is a pure function of the plan seed (bit-identical across
//! runs and across replay modes), and a zero-BER plan is indistinguishable
//! from the fault-free simulator.

use dloop_bench::{build_ftl, ftl_cases};
use dloop_repro::faults::{FaultConfig, FaultPlan, MediaCounters};
use dloop_repro::ftl_kit::config::{FtlKind, SsdConfig};
use dloop_repro::ftl_kit::device::{RunConfig, SsdDevice};
use dloop_repro::ftl_kit::metrics::RunReport;
use dloop_repro::ftl_kit::request::{HostOp, HostRequest};
use dloop_repro::simkit::check::{self, Checker, Generator};
use dloop_repro::simkit::SimTime;
use dloop_repro::{check_assert, check_assert_eq};

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
            2,
            (check::u64s(0..space), check::u8s(1..5))
                .map(|(lpn, pages)| Op::Read { lpn, pages })
                .boxed(),
        ),
    ])
    .boxed()
}

/// A randomized (but bounded) fault configuration: program-fail stays
/// moderate so tiny test geometries never strand a plane.
fn fault_gen() -> check::BoxedGenerator<FaultConfig> {
    (
        check::u64s(0..u64::MAX / 2),
        check::u64s(0..4),
        check::u64s(0..3),
    )
        .map(|(seed, ber_sel, fail_sel)| {
            let mut f = FaultConfig::light(seed);
            f.base_ber = [0.0, 1e-5, 2e-4, 1e-3][ber_sel as usize];
            f.program_fail_prob = [0.0, 0.005, 0.02][fail_sel as usize];
            f.erase_fail_prob = [0.0, 0.001, 0.004][fail_sel as usize];
            f
        })
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

fn drive(
    kind: FtlKind,
    config: &SsdConfig,
    fault: &FaultConfig,
    ops: &[Op],
) -> (SsdDevice, RunReport) {
    let config = config.clone().with_fault(fault.clone());
    let mut device = SsdDevice::new(config.clone(), build_ftl(kind, &config));
    let report = device.run_with(&requests(ops), RunConfig::open());
    (device, report)
}

fn reliability_fingerprint(r: &RunReport) -> (MediaCounters, u64, u64, u64) {
    (
        r.media.clone(),
        r.total_programs,
        r.total_erases,
        r.sim_end.as_nanos(),
    )
}

/// Randomized streams × randomized fault plans × every FTL: audits hold
/// and no logic-bug `NandError` surfaces (`drive` would panic).
#[test]
fn any_fault_plan_keeps_every_ftl_consistent() {
    let gen = (check::vec_of(op_gen(1500), 50..400), fault_gen());
    Checker::new().cases(16).run(&gen, |(ops, fault)| {
        for (name, kind, config) in ftl_cases(&SsdConfig::micro_gc_test()) {
            let (device, report) = drive(kind, &config, fault, ops);
            device
                .audit()
                .map_err(|e| format!("{name}: audit failed under faults: {e}"))?;
            check_assert_eq!(report.requests_completed, ops.len() as u64, "{}", name);
            // Reads either succeed, retry, or fail uncorrectably — the
            // retry histogram accounts for every single media read.
            check_assert!(
                report.media.retry_hist.iter().sum::<u64>() + report.media.uncorrectable_reads
                    == report.media.media_reads(),
                "{}: retry histogram leak",
                name
            );
        }
        Ok(())
    });
}

/// Same plan seed ⇒ byte-identical reliability counters across runs.
#[test]
fn fault_sequences_are_reproducible() {
    let gen = (check::vec_of(op_gen(1200), 50..250), fault_gen());
    Checker::new().cases(10).run(&gen, |(ops, fault)| {
        for (name, kind, config) in ftl_cases(&SsdConfig::micro_gc_test()) {
            let (_, a) = drive(kind, &config, fault, ops);
            let (_, b) = drive(kind, &config, fault, ops);
            check_assert_eq!(
                reliability_fingerprint(&a),
                reliability_fingerprint(&b),
                "{}: fault sequence wobbled between runs",
                name
            );
        }
        Ok(())
    });
}

/// Open, gated and NCQ(8) replay interleave requests differently but
/// apply state effects in the same per-op order, so the per-op-count fault keying
/// must produce identical reliability counters (timing may differ).
#[test]
fn replay_modes_agree_on_fault_outcomes() {
    let gen = (check::vec_of(op_gen(1200), 50..250), fault_gen());
    Checker::new().cases(10).run(&gen, |(ops, fault)| {
        let reqs = requests(ops);
        let config = SsdConfig::micro_gc_test().with_fault(fault.clone());
        let mut counters = Vec::new();
        for mode in 0..3u32 {
            let mut device = SsdDevice::new(config.clone(), build_ftl(FtlKind::Dloop, &config));
            let report = match mode {
                0 => device.run_with(&reqs, RunConfig::open()),
                1 => device.run_with(&reqs, RunConfig::gated()),
                _ => device.run_with(&reqs, RunConfig::ncq(8)),
            };
            device
                .audit()
                .map_err(|e| format!("mode {mode}: audit failed: {e}"))?;
            counters.push(report.media.clone());
        }
        check_assert_eq!(counters[0], counters[1], "open vs gated");
        check_assert_eq!(counters[0], counters[2], "open vs ncq(8)");
        Ok(())
    });
}

/// A zero-BER, zero-fail plan must be bit-identical to no plan at all:
/// attaching the subsystem with null knobs cannot perturb the simulation.
#[test]
fn null_plan_is_identical_to_fault_free() {
    let gen = check::vec_of(op_gen(1500), 50..400);
    Checker::new().cases(12).run(&gen, |ops| {
        for (name, kind, config) in ftl_cases(&SsdConfig::micro_gc_test()) {
            let (_, with_null) = drive(kind, &config, &FaultConfig::none(), ops);
            let mut device = SsdDevice::new(config.clone(), build_ftl(kind, &config));
            let plain = device.run_with(&requests(ops), RunConfig::open());
            check_assert_eq!(
                with_null.sim_end.as_nanos(),
                plain.sim_end.as_nanos(),
                "{}: null plan changed timing",
                name
            );
            check_assert_eq!(with_null.total_programs, plain.total_programs, "{}", name);
            check_assert_eq!(with_null.total_erases, plain.total_erases, "{}", name);
            check_assert_eq!(
                with_null.mean_response_time_ms().to_bits(),
                plain.mean_response_time_ms().to_bits(),
                "{}: null plan changed MRT",
                name
            );
            check_assert_eq!(with_null.media.program_fails, 0, "{}", name);
            check_assert_eq!(with_null.media.uncorrectable_reads, 0, "{}", name);
        }
        Ok(())
    });
}

/// Storm soak: a deliberately hostile plan (high BER, frequent program and
/// erase fails, factory bads) over a long mixed stream. Every FTL must
/// finish with audits green and sane accounting. The retirement channels
/// are scaled to the micro geometry (16 spare blocks device-wide): at the
/// full `storm` rates the device genuinely runs out of spare capacity —
/// that is an honest end-of-life, not a recoverable state.
#[test]
fn fault_storm_soak() {
    let mut storm = FaultConfig::storm(0xD100_u64 ^ 77);
    storm.program_fail_prob = 0.01;
    storm.erase_fail_prob = 0.002;
    storm.factory_bad_frac = 0.01;
    let gen = check::vec_of(op_gen(900), 600..1000);
    Checker::new().cases(6).run(&gen, |ops| {
        for (name, kind, config) in ftl_cases(&SsdConfig::micro_gc_test()) {
            let (device, report) = drive(kind, &config, &storm, ops);
            device
                .audit()
                .map_err(|e| format!("{name}: storm audit failed: {e}"))?;
            check_assert!(
                report.media.program_fails > 0,
                "{}: storm produced no program fails",
                name
            );
            check_assert!(
                report.media.read_retry_steps > 0,
                "{}: storm produced no read retries",
                name
            );
            // Recovery re-programs are charged: physical programs strictly
            // exceed the fault-free floor of one per logical page write.
            check_assert!(
                report.total_programs >= report.pages_written,
                "{}: programs under-accounted",
                name
            );
            check_assert!(report.retry_ns > 0, "{}: retry time not charged", name);
        }
        Ok(())
    });
}

/// The fault plan itself is interleaving-independent: outcomes depend only
/// on (seed, op kind, address, per-address op index), so two plans built
/// from the same config agree everywhere.
#[test]
fn plan_is_a_pure_function_of_the_seed() {
    let gen = fault_gen();
    Checker::new().cases(40).run(&gen, |fault| {
        let a = FaultPlan::new(fault.clone());
        let b = FaultPlan::new(fault.clone());
        for ppn in (0..5000u64).step_by(97) {
            for gen_idx in [0u32, 3, 11] {
                check_assert_eq!(
                    a.read_outcome(ppn, gen_idx, 2),
                    b.read_outcome(ppn, gen_idx, 2)
                );
                check_assert_eq!(
                    a.program_outcome(ppn, gen_idx),
                    b.program_outcome(ppn, gen_idx)
                );
            }
            check_assert_eq!(a.erase_outcome(ppn, 1), b.erase_outcome(ppn, 1));
            check_assert_eq!(a.factory_bad(ppn), b.factory_bad(ppn));
        }
        Ok(())
    });
}
