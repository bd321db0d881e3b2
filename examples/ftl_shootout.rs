//! FTL shootout: run the same enterprise-like workload through DLOOP,
//! DFTL, FAST and the IDEAL bound (DLOOP with a CMT that holds every
//! entry) and compare the paper's metrics side by side.
//!
//! ```text
//! cargo run --release --example ftl_shootout [requests]
//! ```

use dloop_bench::{build_ftl, ftl_cases};
use dloop_repro::prelude::*;
use dloop_repro::workloads::synth::sequential_fill;
use dloop_repro::workloads::WorkloadProfile;

fn main() {
    let requests: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(100_000);

    // A 1 GB device under the Financial1 profile (random-write-dominant
    // OLTP with strong locality), footprint scaled to keep GC active.
    let mut config = SsdConfig::paper_default().with_capacity_gb(1);
    config.extra_pct = 5.0;
    let mut profile = WorkloadProfile::financial1();
    profile.footprint_bytes = 2 << 30;
    let trace = profile.generate_scaled(42, config.geometry().page_size, requests);
    println!(
        "workload: {} requests of {} ({}), device {}",
        trace.len(),
        profile.name,
        {
            let s = trace.stats(config.geometry().page_size);
            format!("{:.1}% writes, {:.1} KB avg", s.write_pct, s.avg_size_kb)
        },
        config.geometry()
    );
    println!();

    println!(
        "{:<10} {:>10} {:>10} {:>8} {:>6} {:>8} {:>8} {:>7}",
        "FTL", "MRT ms", "p99 ms", "lnSDRPP", "WAF", "GCs", "erases", "cb %"
    );
    for (name, kind, config) in ftl_cases(&config) {
        let mut device = SsdDevice::new(config.clone(), build_ftl(kind, &config));
        // Age the device to 75% full so GC economics show.
        let fill = sequential_fill(config.geometry().user_pages(), 0.75, 64);
        device.warm_up(&fill.requests);
        let report = device.run_with(&trace.requests, RunConfig::open());
        device.audit().expect("consistent");
        println!(
            "{:<10} {:>10.4} {:>10.3} {:>8.2} {:>6.2} {:>8} {:>8} {:>7.1}",
            name,
            report.mean_response_time_ms(),
            report.response_percentile_ms(0.99),
            report.ln_sdrpp(),
            report.waf(),
            report.ftl.gc_invocations,
            report.total_erases,
            report.copyback_fraction() * 100.0,
        );
    }
}
