//! Garbage-collection benchmark: wall cost of simulating GC-heavy update
//! bursts for each reclamation style (copy-back vs external vs DFTL's
//! global greedy).

use dloop_bench::{build_ftl, ideal_config, RunSpec};
use dloop_ftl_kit::config::{FtlKind, SsdConfig};
use dloop_ftl_kit::device::{RunConfig, SsdDevice};
use dloop_ftl_kit::request::{HostOp, HostRequest};
use dloop_simkit::bench::Bench;
use dloop_simkit::{SimRng, SimTime};
use dloop_workloads::synth::sequential_fill;

fn gc_burst(kind: FtlKind, config: &SsdConfig) -> u64 {
    let mut device = SsdDevice::new(config.clone(), build_ftl(kind, &config));
    let user = device.flash().geometry().user_pages();
    device.warm_up(&sequential_fill(user, 0.8, 16).requests);
    let mut rng = SimRng::new(5);
    let reqs: Vec<HostRequest> = (0..4000)
        .map(|i| HostRequest {
            arrival: SimTime::from_micros(i * 100),
            lpn: rng.below(user * 3 / 4),
            pages: 1,
            op: HostOp::Write,
            ..HostRequest::default()
        })
        .collect();
    let report = device.run_with(&reqs, RunConfig::open());
    report.total_erases
}

fn main() {
    let copyback = SsdConfig::micro_gc_test();
    let external = SsdConfig {
        copyback_enabled: false,
        ..copyback.clone()
    };
    let ideal = ideal_config(&copyback);
    let mut bench = Bench::new("gc_burst_4k_updates").samples(10);
    bench.case("dloop_copyback", || gc_burst(FtlKind::Dloop, &copyback));
    bench.case("dloop_external", || gc_burst(FtlKind::Dloop, &external));
    bench.case("dftl_global", || gc_burst(FtlKind::Dftl, &copyback));
    bench.case("ideal", || gc_burst(FtlKind::Dloop, &ideal));

    // End-to-end RunSpec execution (what the figure harness does per cell).
    let mut bench = Bench::new("runspec").samples(10);
    bench.case("financial1_10k", || {
        RunSpec {
            config: SsdConfig::micro_gc_test(),
            kind: FtlKind::Dloop,
            profile: {
                let mut p = dloop_workloads::WorkloadProfile::financial1();
                p.footprint_bytes = 1 << 28;
                p
            },
            max_requests: 10_000,
            seed: 1,
            fill_fraction: 0.0,
        }
        .run()
        .requests_completed
    });
}
