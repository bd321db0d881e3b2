//! QoS policy sweep over the NCQ window: replay one multi-tenant
//! contention mix under every scheduling policy (plus the two bounds the
//! C12 claim pins them between) and report host MRT, per-tenant mean
//! turnaround from the queue probe, and the fairness spread.
//!
//! The mix follows [`dloop_workloads::tenants::qos_mix`]: tenant 1 is the
//! latency-sensitive read-dominant stream and carries 5 ms deadlines (the
//! EDF policy's input); later tenants cycle through the write-heavy and
//! bulk profiles. `--tenants N` widens the mix, `--policy P` narrows the
//! sweep to one policy, `--depth N` sets the reorder window.

use super::ExpOptions;
use crate::runner::build_ftl;
use crate::table::{f, Table};
use dloop_ftl_kit::config::{FtlKind, SsdConfig};
use dloop_ftl_kit::device::{ReplayMode, SsdDevice};
use dloop_ftl_kit::metrics::RunReport;
use dloop_ftl_kit::sched::QosSpec;
use dloop_simkit::SimDuration;
use dloop_workloads::tenants::{multi_tenant, TenantSpec};
use dloop_workloads::{Trace, WorkloadProfile};

/// Build the sweep's contention mix: `tenants` streams cycling the paper
/// profiles (tenant 1 latency-sensitive with deadlines), clamped to
/// `footprint_bytes` so the mix fits the sweep device.
fn mix(tenants: u16, per_tenant: u64, seed: u64, page_size: u32, footprint_bytes: u64) -> Trace {
    let profiles = [
        WorkloadProfile::financial2(), // latency-sensitive reader
        WorkloadProfile::financial1(), // write-heavy OLTP
        WorkloadProfile::build(),      // background bulk
        WorkloadProfile::tpcc(),
        WorkloadProfile::exchange(),
    ];
    let specs: Vec<TenantSpec> = (0..tenants)
        .map(|i| {
            let mut p = profiles[i as usize % profiles.len()].clone();
            p.footprint_bytes = p.footprint_bytes.min(footprint_bytes);
            let spec = TenantSpec::new(i + 1, p, per_tenant);
            if i == 0 {
                spec.with_deadline(SimDuration::from_millis(5))
            } else {
                spec
            }
        })
        .collect();
    multi_tenant("qos-sweep", &specs, seed, page_size)
}

/// One sweep row: replay the mix under `mode` and report turnarounds.
fn measure(config: &SsdConfig, trace: &Trace, mode: ReplayMode) -> RunReport {
    let mut device = SsdDevice::new(config.clone(), build_ftl(FtlKind::Dloop, config));
    device.run_with(&trace.requests, mode.into())
}

/// The sweep on an arbitrary device (the unit test uses the micro
/// config; the CLI uses the scaled paper device).
pub fn run_on(opts: &ExpOptions, config: SsdConfig, per_tenant: u64) -> Vec<Table> {
    let geometry = config.geometry();
    let footprint = geometry.user_pages() * geometry.page_size as u64 / 2;
    let tenants = opts.qos_tenants.max(1);
    let trace = mix(
        tenants,
        per_tenant,
        opts.seed,
        geometry.page_size,
        footprint,
    );

    let depth = opts.queue_depth;
    let mut rows: Vec<(String, ReplayMode)> = vec![
        (
            "in-order (bound)".into(),
            ReplayMode::Qos {
                queue_depth: 1,
                policy: QosSpec::Ncq,
            },
        ),
        ("gated (oracle)".into(), ReplayMode::Gated),
    ];
    let specs = match opts.qos_policy {
        Some(spec) => vec![spec],
        None => QosSpec::all().to_vec(),
    };
    for spec in specs {
        rows.push((
            format!("{} (qos)", spec.name()),
            ReplayMode::Qos {
                queue_depth: depth,
                policy: spec,
            },
        ));
    }

    let mut header: Vec<String> = vec![
        "policy".into(),
        "host MRT ms".into(),
        "turnaround ms".into(),
    ];
    for t in 1..=tenants {
        header.push(format!("t{t} ms"));
    }
    header.push("spread".into());
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut table = Table::new(
        format!("QoS policy sweep — {tenants}-tenant mix, depth {depth}"),
        &header_refs,
    );

    for (label, mode) in rows {
        let report = measure(&config, &trace, mode);
        let per: Vec<f64> = (1..=tenants)
            .map(|t| report.queue_log.tenant_mean_turnaround_ms(t))
            .collect();
        let max = per.iter().cloned().fold(0.0f64, f64::max);
        let min = per
            .iter()
            .cloned()
            .filter(|&m| m > 0.0)
            .fold(f64::INFINITY, f64::min);
        let spread = if min.is_finite() && min > 0.0 {
            max / min
        } else {
            0.0
        };
        let mut row = vec![
            label,
            f(report.mean_response_time_ms()),
            f(report.queue_log.mean_turnaround_ms()),
        ];
        row.extend(per.into_iter().map(f));
        row.push(format!("{spread:.2}x"));
        table.row(row);
    }
    vec![table]
}

/// CLI entry point (`dloop-experiments qos`).
pub fn run(opts: &ExpOptions) -> Vec<Table> {
    let config = SsdConfig::paper_default().with_capacity_gb(opts.scaled_capacity(4));
    let per_tenant = if opts.max_requests == 0 {
        10_000
    } else {
        (opts.max_requests / opts.qos_tenants.max(1) as u64).max(1)
    };
    run_on(opts, config, per_tenant)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_reports_every_policy_and_tenant() {
        let opts = ExpOptions::default();
        let tables = run_on(&opts, SsdConfig::micro_gc_test(), 300);
        assert_eq!(tables.len(), 1);
        let rendered = tables[0].render();
        // Both bounds plus all five policies, one row each.
        assert_eq!(tables[0].len(), 2 + QosSpec::all().len());
        for name in ["in-order", "gated", "fair-share", "deadline", "priority"] {
            assert!(rendered.contains(name), "missing row {name}: {rendered}");
        }
        // Per-tenant columns for the default three-tenant mix.
        for col in ["t1 ms", "t2 ms", "t3 ms", "spread"] {
            assert!(rendered.contains(col), "missing column {col}");
        }
    }

    #[test]
    fn policy_filter_narrows_the_sweep() {
        let opts = ExpOptions {
            qos_policy: Some(QosSpec::Priority),
            ..ExpOptions::default()
        };
        let tables = run_on(&opts, SsdConfig::micro_gc_test(), 200);
        assert_eq!(tables[0].len(), 3); // two bounds + one policy
    }
}
