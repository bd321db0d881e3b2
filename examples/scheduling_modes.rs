//! The three device replay modes, and a closed loop through the host
//! stack, side by side on one bursty workload:
//!
//! * **open loop** — trace arrivals, unbounded outstanding requests
//!   (DiskSim-style replay; backlog can grow without limit);
//! * **closed loop** — at most QD requests outstanding (fio-style): open
//!   replay behind a pass-through host stack whose one submission queue
//!   holds QD commands;
//! * **issue-gated** — FlashSim's priority list: operations wait until
//!   their plane and channel are idle, FIFO with skipping;
//! * **NCQ** — bounded reordering: any of the oldest QD pending ops may
//!   issue once its plane and channel are idle, coldest plane first.
//!   QD=1 is the strict in-order queue; the gap from there down to the
//!   gated row is what the reorder window buys.
//!
//! ```text
//! cargo run --release --example scheduling_modes
//! ```

use dloop_repro::dloop_ftl::DloopFtl;
use dloop_repro::prelude::*;
use dloop_repro::workloads::WorkloadProfile;

fn main() {
    let config = SsdConfig::paper_default().with_capacity_gb(1);
    let mut profile = WorkloadProfile::tpcc();
    profile.footprint_bytes = 2 << 30;
    profile.burstiness = 1.0; // stress the schedulers
    let trace = profile.generate_scaled(11, config.geometry().page_size, 60_000);
    println!(
        "workload: {} bursty TPC-C-like requests on {}\n",
        trace.len(),
        config.geometry()
    );

    let fresh =
        |config: &SsdConfig| SsdDevice::new(config.clone(), Box::new(DloopFtl::new(config)));

    println!(
        "{:<22} {:>10} {:>10} {:>10} {:>8}",
        "mode", "MRT ms", "p99 ms", "makespan s", "erases"
    );
    let print_row = |name: &str, r: &RunReport| {
        println!(
            "{:<22} {:>10.4} {:>10.3} {:>10.2} {:>8}",
            name,
            r.mean_response_time_ms(),
            r.response_percentile_ms(0.99),
            r.sim_end.as_secs_f64(),
            r.total_erases
        );
    };

    let mut d = fresh(&config);
    let r = d.run_with(&trace.requests, RunConfig::open());
    print_row("open loop", &r);
    d.audit().unwrap();

    for qd in [1u32, 8, 32] {
        let mut d = fresh(&config);
        let window = HostStack::new(HostConfig {
            queue_depth: Some(qd),
            ..HostConfig::passthrough()
        });
        let r = window.run(&mut d, &trace.requests, ReplayMode::Open).device;
        print_row(&format!("closed loop QD={qd}"), &r);
        d.audit().unwrap();
    }

    let mut d = fresh(&config);
    let r = d.run_with(&trace.requests, RunConfig::gated());
    print_row("issue-gated (FlashSim)", &r);
    d.audit().unwrap();

    for qd in [1usize, 8, 32] {
        let mut d = fresh(&config);
        let r = d.run_with(&trace.requests, RunConfig::ncq(qd));
        print_row(&format!("NCQ QD={qd}"), &r);
        d.audit().unwrap();
    }
}
