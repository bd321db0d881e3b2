//! Simulator throughput: wall-clock requests/second each FTL sustains —
//! the practical limit on how big an experiment grid can get.

use dloop_bench::{build_ftl, ftl_cases};
use dloop_ftl_kit::config::SsdConfig;
use dloop_ftl_kit::device::{RunConfig, SsdDevice};
use dloop_simkit::bench::Bench;
use dloop_workloads::WorkloadProfile;

fn main() {
    const N: u64 = 20_000;
    let config = SsdConfig::paper_default().with_capacity_gb(1);
    let mut profile = WorkloadProfile::financial1();
    profile.footprint_bytes = 1 << 30;
    let trace = profile.generate_scaled(7, config.geometry().page_size, N);

    let mut bench = Bench::new("ftl_throughput")
        .samples(10)
        .throughput_elements(N);
    for (name, kind, config) in ftl_cases(&config) {
        bench.case(name, || {
            let mut device = SsdDevice::new(config.clone(), build_ftl(kind, &config));
            device
                .run_with(&trace.requests, RunConfig::open())
                .requests_completed
        });
    }
}
