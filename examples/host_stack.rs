//! The NVMe-style host stack in front of the device: one `qos_mix`
//! contention run, decomposed from syscall to cell.
//!
//! [`HostStack::run`] wraps [`SsdDevice::run_with`] with the three host-side
//! layers a real I/O path adds:
//!
//! * a **write-back page cache** (absorbs overwrites, serves hot reads at
//!   DRAM latency, flushes its dirty set past a threshold);
//! * a **block layer** (splits oversized host I/Os, merges adjacent
//!   commands of a doorbell batch);
//! * **SQ/CQ queue pairs** (doorbell batching on submission, interrupt
//!   coalescing on completion — MMIO efficiency bought with latency).
//!
//! Every request's end-to-end residence then tiles *exactly* (integer
//! nanoseconds, claim C13) into four phases over five instants:
//!
//! ```text
//! arrival ─cache─▶ cache_done ─host_queue─▶ submit ─device─▶ done ─completion─▶ deliver
//!     └── or: ──cache──▶ done              (cache-served, no device command)
//! ```
//!
//! Under the open replay mode the host and device event loops
//! interleave, so a finite `queue_depth` backpressures the `submit`
//! instant through true per-queue SQ windows (claim C14). The same
//! decomposition lands in the latency-attribution table: the host spans
//! replay into the device's flight recorder, adding `host_queue`,
//! `cache`, and `completion` rows under the `host`/`gc`/`scan` rows the
//! device already attributes — syscall to cell in one table.
//!
//! ```text
//! cargo run --release --example host_stack
//! ```

use dloop_repro::dloop_ftl::DloopFtl;
use dloop_repro::prelude::*;
use dloop_repro::simkit::trace::attribution;
use dloop_repro::simkit::trace::SpanPhase;
use dloop_repro::workloads::qos_mix;

fn main() {
    let config = SsdConfig::paper_default().with_capacity_gb(1);
    let geometry = config.geometry();
    let footprint = geometry.user_pages() * geometry.page_size as u64 / 2;
    let trace = qos_mix(11, geometry.page_size, 8_000, footprint);
    let cache_pages = geometry.user_pages() / 8;
    println!(
        "workload: {} requests, 3 tenants, on {}\n",
        trace.len(),
        geometry
    );

    // The raw device path, then the same trace through the host stack.
    let fresh = || SsdDevice::new(config.clone(), Box::new(DloopFtl::new(&config)));
    let mut raw_device = fresh();
    let raw = raw_device.run_with(&trace.requests, ReplayMode::Open.into());
    println!(
        "raw device path:      MRT {:.4} ms (device only — what the FTL papers report)",
        raw.mean_response_time_ms()
    );

    let mut device = fresh();
    device.attach_sink(Box::new(RingSink::new(1 << 20)));
    let host = HostStack::new(HostConfig::buffered(cache_pages)).run(
        &mut device,
        &trace.requests,
        ReplayMode::Open,
    );
    println!(
        "through the host stack: end-to-end {:.4} ms ({:.1}% of requests cache-served)\n",
        host.mean_end_to_end_ms(),
        host.cache_served_fraction() * 100.0
    );

    // Syscall-to-cell: the four host phases tile each request exactly.
    let n = host.requests.len() as f64;
    let (hq, cache, dev, compl, e2e) = host.phase_totals_ns();
    assert_eq!(hq + cache + dev + compl, e2e, "C13: phases tile end-to-end");
    let ms = |total_ns: u64| total_ns as f64 / 1e6 / n;
    println!("mean per-request decomposition (phases tile exactly):");
    println!(
        "  host_queue  {:>9.4} ms  (doorbell batching and SQ-window waits before submit)",
        ms(hq)
    );
    println!(
        "  cache       {:>9.4} ms  (DRAM service, no device command)",
        ms(cache)
    );
    println!(
        "  device      {:>9.4} ms  (submit to last flash completion)",
        ms(dev)
    );
    println!(
        "  completion  {:>9.4} ms  (interrupt coalescing after done)",
        ms(compl)
    );
    println!("  ─────────────────────");
    println!("  end-to-end  {:>9.4} ms\n", ms(e2e));

    println!(
        "queue pairs: {} submissions over {} doorbells ({:.2}/ring), {} interrupts ({:.2} completions/irq)",
        host.queues.submissions,
        host.queues.doorbells,
        host.queues.mean_batch(),
        host.queues.interrupts,
        host.queues.mean_coalesced()
    );
    println!(
        "cache: {} read hits / {} misses, {} overwrites absorbed, {} write-back commands",
        host.cache.read_hits,
        host.cache.read_misses,
        host.cache.writes_absorbed,
        host.writeback_commands
    );
    println!(
        "block layer: {} splits, {} merges, {} commands forwarded\n",
        host.split_commands, host.merged_commands, host.forwarded
    );

    // The telescoped attribution table: host spans replayed into the
    // same recorder that captured the device spans.
    let mut rec = device.take_trace().expect("ring sink was attached");
    host.emit_spans(&mut rec);
    let attr = attribution(&rec);
    println!("latency attribution, syscall to cell:");
    println!(
        "  {:<12} {:>8} {:>12} {:>12} {:>10} {:>10} {:>12}",
        "phase", "spans", "plane_wait", "chan_wait", "bus ms", "cell ms", "total ms"
    );
    for phase in SpanPhase::all() {
        let r = attr.row(phase);
        println!(
            "  {:<12} {:>8} {:>12.3} {:>12.3} {:>10.3} {:>10.3} {:>12.3}",
            phase.name(),
            r.spans,
            r.plane_wait_ns as f64 / 1e6,
            r.channel_wait_ns as f64 / 1e6,
            r.bus_ns as f64 / 1e6,
            r.cell_ns as f64 / 1e6,
            r.residence_ns as f64 / 1e6,
        );
    }
    device.audit().unwrap();
}
