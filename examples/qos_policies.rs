//! The QoS scheduling policies side by side on one three-tenant
//! contention mix — a guided tour of the policy layer that rides on the
//! NCQ reorder window:
//!
//! * **in-order (NCQ QD=1)** — the naive bound: the queue never reorders,
//!   so every policy must beat or match it per tenant;
//! * **gated** — the oracle bound: an *unbounded* skip-ahead window no
//!   finite policy can beat;
//! * **ncq** — the neutral policy: rank is constant, so the driver's
//!   `(plane_ready_at, seq)` tie-break (coldest plane first) is the whole
//!   schedule — what `RunConfig::ncq` replays;
//! * **window-fifo** — strict arrival order *within* the window (ranks by
//!   sequence number), the in-window spelling of "no policy";
//! * **priority** — reads overtake writes: the host blocks on reads, and
//!   a queued write's latency is already hidden by the queue;
//! * **deadline** — earliest deadline first over tenant 1's 5 ms budgets;
//!   deadline-less ops rank last;
//! * **fair-share** — per-tenant token buckets (4 tokens/ms, burst 32):
//!   tenants with credit outrank overdrawn ones, but the scheduler stays
//!   work-conserving — an overdrawn tenant still issues when nobody else
//!   can.
//!
//! The mix is [`qos_mix`]: tenant 1 is a latency-sensitive read-dominant
//! stream with 5 ms deadlines, tenant 2 a write-heavy OLTP stream, and
//! tenant 3 background bulk. Per-tenant turnaround comes from the queue
//! probe every replay records ([`RunReport::queue_log`]); the same data
//! drives the per-tenant columns of `trace_queue_depth.csv`.
//!
//! ```text
//! cargo run --release --example qos_policies
//! ```

use dloop_repro::dloop_ftl::DloopFtl;
use dloop_repro::prelude::*;
use dloop_repro::workloads::qos_mix;

fn main() {
    let config = SsdConfig::paper_default().with_capacity_gb(1);
    let geometry = config.geometry();
    // Half the logical space: enough locality to queue the window.
    let footprint = geometry.user_pages() * geometry.page_size as u64 / 2;
    let trace = qos_mix(11, geometry.page_size, 8_000, footprint);
    println!(
        "workload: {} requests, 3 tenants, on {}\n",
        trace.len(),
        geometry
    );

    let fresh = || SsdDevice::new(config.clone(), Box::new(DloopFtl::new(&config)));
    println!(
        "{:<20} {:>10} {:>9} {:>9} {:>9} {:>8}",
        "policy", "MRT ms", "t1 ms", "t2 ms", "t3 ms", "spread"
    );
    let print_row = |name: &str, r: &RunReport| {
        let per: Vec<f64> = (1..=3)
            .map(|t| r.queue_log.tenant_mean_turnaround_ms(t))
            .collect();
        let max = per.iter().cloned().fold(0.0f64, f64::max);
        let min = per.iter().cloned().fold(f64::INFINITY, f64::min);
        println!(
            "{:<20} {:>10.4} {:>9.4} {:>9.4} {:>9.4} {:>7.2}x",
            name,
            r.mean_response_time_ms(),
            per[0],
            per[1],
            per[2],
            max / min,
        );
    };

    // The two bounds every policy is pinned between (claim C12).
    let mut d = fresh();
    let r = d.run_with(&trace.requests, RunConfig::ncq(1));
    print_row("in-order (bound)", &r);
    let mut d = fresh();
    let r = d.run_with(&trace.requests, ReplayMode::Gated.into());
    print_row("gated (oracle)", &r);

    // Every built-in policy through the embeddable spec enum…
    for spec in QosSpec::all() {
        let mut d = fresh();
        let r = d.run_with(
            &trace.requests,
            ReplayMode::Qos {
                queue_depth: 32,
                policy: spec,
            }
            .into(),
        );
        print_row(spec.name(), &r);
        d.audit().unwrap();
    }

    // …and one owned instance via `run_with_policy`, so the policy's internal
    // state can be audited after the replay: the fair-share buckets obey
    // an exact integer conservation law.
    let mut policy = FairSharePolicy::new(4, 32);
    let mut d = fresh();
    d.run_with_policy(&trace.requests, RunConfig::ncq(32), &mut policy);
    println!("\nfair-share bucket audit (TOKEN_UNITS per token):");
    for t in policy.tenants() {
        println!(
            "  tenant {t}: issued {} ops, balance {} units, refilled {} units",
            policy.issued(t).unwrap(),
            policy.balance(t).unwrap(),
            policy.refilled(t).unwrap(),
        );
    }
}
