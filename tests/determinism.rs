//! Reproducibility: equal seeds and configurations produce bit-identical
//! results — across every FTL, the workload generators, and the parallel
//! experiment machinery. The paper's comparisons are only meaningful if a
//! scheme's numbers do not wobble between runs.

use dloop_bench::{build_ftl, ftl_cases};
use dloop_repro::ftl_kit::config::{FtlKind, SsdConfig};
use dloop_repro::ftl_kit::device::{RunConfig, SsdDevice};
use dloop_repro::ftl_kit::metrics::RunReport;
use dloop_repro::workloads::WorkloadProfile;

fn run_once(kind: FtlKind, config: &SsdConfig, seed: u64) -> RunReport {
    let mut profile = WorkloadProfile::financial1();
    profile.footprint_bytes = 1 << 28;
    let trace = profile.generate_scaled(seed, config.geometry().page_size, 4000);
    let mut device = SsdDevice::new(config.clone(), build_ftl(kind, &config));
    device.run_with(&trace.requests, RunConfig::open())
}

fn fingerprint(r: &RunReport) -> (u64, u64, u64, u64, String, Vec<u64>) {
    (
        r.total_programs,
        r.total_erases,
        r.total_skips,
        r.sim_end.as_nanos(),
        format!("{:?}", r.ftl),
        r.plane_request_counts.clone(),
    )
}

#[test]
fn identical_seeds_are_bit_identical_for_every_ftl() {
    for (name, kind, config) in ftl_cases(&SsdConfig::micro_gc_test()) {
        let a = run_once(kind, &config, 42);
        let b = run_once(kind, &config, 42);
        assert_eq!(fingerprint(&a), fingerprint(&b), "{name}");
        assert_eq!(
            a.mean_response_time_ms().to_bits(),
            b.mean_response_time_ms().to_bits(),
            "{name}: MRT must be bit-identical"
        );
    }
}

#[test]
fn different_seeds_differ() {
    let a = run_once(FtlKind::Dloop, &SsdConfig::micro_gc_test(), 1);
    let b = run_once(FtlKind::Dloop, &SsdConfig::micro_gc_test(), 2);
    assert_ne!(
        a.mean_response_time_ms().to_bits(),
        b.mean_response_time_ms().to_bits()
    );
}

#[test]
fn workload_generation_is_pure() {
    for profile in WorkloadProfile::all_paper() {
        let t1 = profile.generate_scaled(9, 2048, 3000);
        let t2 = profile.generate_scaled(9, 2048, 3000);
        assert_eq!(t1.requests, t2.requests, "{}", profile.name);
    }
}

#[test]
fn truncation_is_a_prefix() {
    let p = WorkloadProfile::tpcc();
    let long = p.generate_scaled(5, 2048, 4000);
    let short = p.generate_scaled(5, 2048, 1000);
    assert_eq!(&long.requests[..1000], &short.requests[..]);
}
