//! End-to-end replay of real trace-file formats: parse SPC / DiskSim text,
//! run it through a device, verify request accounting — plus the shape
//! and conservation laws of the queue-depth CSV every replay driver can
//! emit from its [`QueueDepthProbe`], and the host-stack extension of the
//! latency-attribution table (host-queue and cache rows reconciling with
//! the per-request phase sums).

use dloop_repro::dloop_ftl::DloopFtl;
use dloop_repro::ftl_kit::config::SsdConfig;
use dloop_repro::ftl_kit::device::{ReplayMode, RunConfig, SsdDevice};
use dloop_repro::ftl_kit::sched::QosSpec;
use dloop_repro::host::{HostConfig, HostStack};
use dloop_repro::simkit::trace::{attribution, QueueDepthProbe, RingSink, SpanPhase};
use dloop_repro::workloads::{host_mix, parse_disksim, parse_spc};

#[test]
fn spc_trace_replays_end_to_end() {
    // A miniature SPC-format trace (ASU,LBA,size,opcode,timestamp).
    let mut text = String::new();
    for i in 0..200u64 {
        let lba = (i * 37) % 100_000;
        let op = if i % 3 == 0 { "r" } else { "W" };
        text.push_str(&format!("0,{lba},{},{op},{}\n", 4096, i as f64 * 0.001));
    }
    let config = SsdConfig::micro_gc_test();
    let trace = parse_spc(&text, "mini-spc", config.geometry().page_size, Some(0)).unwrap();
    assert_eq!(trace.len(), 200);
    let stats = trace.stats(config.geometry().page_size);
    assert_eq!(stats.reads, 67);
    assert_eq!(stats.writes, 133);

    let mut device = SsdDevice::new(config.clone(), Box::new(DloopFtl::new(&config)));
    let report = device.run_with(&trace.requests, RunConfig::open());
    assert_eq!(report.requests_completed, 200);
    device.audit().unwrap();
}

#[test]
fn disksim_trace_replays_end_to_end() {
    let mut text = String::new();
    for i in 0..150u64 {
        let blk = (i * 53) % 80_000;
        let flags = i % 2; // alternate read/write
        text.push_str(&format!("{} 0 {blk} 8 {flags}\n", i as f64 * 0.5));
    }
    let config = SsdConfig::micro_gc_test();
    let trace = parse_disksim(&text, "mini-ds", config.geometry().page_size, Some(0)).unwrap();
    assert_eq!(trace.len(), 150);

    let mut device = SsdDevice::new(config.clone(), Box::new(DloopFtl::new(&config)));
    let report = device.run_with(&trace.requests, RunConfig::open());
    assert_eq!(report.requests_completed, 150);
    device.audit().unwrap();
}

/// The queue-depth CSV (`trace_queue_depth.csv`) has a locked schema:
/// the exact header, one row per requested bucket, five integer-or-time
/// columns. Its counters obey conservation — every tracked unit is
/// admitted exactly once and completed exactly once, and both gauges
/// drain to zero by the final bucket. Checked for a closed-loop replay (a
/// depth-4 host window) and an NCQ replay of the same parsed SPC trace:
/// the two drivers track different units (requests vs page ops), but the
/// laws are the same.
#[test]
fn queue_depth_csv_shape_and_conservation() {
    let mut text = String::new();
    for i in 0..300u64 {
        let lba = (i * 41) % 60_000;
        let op = if i % 4 == 0 { "r" } else { "W" };
        text.push_str(&format!("0,{lba},{},{op},{}\n", 4096, i as f64 * 0.0002));
    }
    let config = SsdConfig::micro_gc_test();
    let trace = parse_spc(&text, "mini-spc", config.geometry().page_size, Some(0)).unwrap();

    let fresh = || SsdDevice::new(config.clone(), Box::new(DloopFtl::new(&config)));
    let window = HostStack::new(HostConfig {
        queue_depth: Some(4),
        ..HostConfig::passthrough()
    });
    let closed = window
        .run(&mut fresh(), &trace.requests, ReplayMode::Open)
        .device;
    let ncq = fresh().run_with(&trace.requests, RunConfig::ncq(4));
    for (label, report) in [("closed", closed), ("ncq", ncq)] {
        let buckets = 32;
        let csv = report.queue_depth_csv(buckets);
        let mut lines = csv.lines();
        assert_eq!(
            lines.next(),
            Some(QueueDepthProbe::csv_header()),
            "{label}: header drifted from the locked schema"
        );
        let (mut rows, mut admitted, mut completed) = (0usize, 0u64, 0u64);
        let mut last_time = -1.0f64;
        let mut final_gauges = (u64::MAX, u64::MAX);
        for line in lines {
            let cols: Vec<&str> = line.split(',').collect();
            assert_eq!(cols.len(), 5, "{label}: five columns per row");
            let t: f64 = cols[0].parse().expect("bucket_start_ms is a float");
            assert!(t > last_time, "{label}: bucket starts strictly increase");
            last_time = t;
            let n = |i: usize| cols[i].parse::<u64>().expect("integer column");
            final_gauges = (n(1), n(2));
            admitted += n(3);
            completed += n(4);
            rows += 1;
        }
        assert_eq!(rows, buckets, "{label}: one row per bucket");
        assert!(report.queue_log.len() > 0, "{label}: probe tracked units");
        assert_eq!(
            admitted as usize,
            report.queue_log.len(),
            "{label}: every unit admitted exactly once"
        );
        assert_eq!(completed, admitted, "{label}: every unit completed");
        assert_eq!(final_gauges, (0, 0), "{label}: queues drain by the end");
    }
}

/// Per-tenant extension of the queue-depth CSV: a tenant-tagged replay
/// (here real SPC text with three ASUs, which the parser maps straight to
/// tenant ids) appends one four-column gauge block per distinct tenant
/// after the locked five-column prefix. The blocks obey the same laws as
/// the aggregate — admitted exactly once, completed exactly once, gauges
/// drain — and the aggregate columns equal the sum of the blocks in
/// every row.
#[test]
fn queue_depth_csv_per_tenant_blocks_shape_and_conservation() {
    let mut text = String::new();
    for i in 0..300u64 {
        let asu = 1 + i % 3;
        let lba = (i * 41) % 60_000;
        let op = if i % 4 == 0 { "r" } else { "W" };
        text.push_str(&format!(
            "{asu},{lba},{},{op},{}\n",
            4096,
            i as f64 * 0.0002
        ));
    }
    let config = SsdConfig::micro_gc_test();
    let trace = parse_spc(&text, "mini-spc", config.geometry().page_size, None).unwrap();
    assert!(trace.requests.iter().all(|r| (1..=3).contains(&r.tenant)));

    let mut device = SsdDevice::new(config.clone(), Box::new(DloopFtl::new(&config)));
    let report = device.run_with(
        &trace.requests,
        ReplayMode::Qos {
            queue_depth: 4,
            policy: QosSpec::WindowFifo,
        }
        .into(),
    );
    let buckets = 32;
    let csv = report.queue_depth_csv(buckets);
    let mut lines = csv.lines();
    let header = lines.next().expect("header row");
    assert!(
        header.starts_with(QueueDepthProbe::csv_header()),
        "locked prefix drifted: {header}"
    );
    assert_eq!(
        header,
        format!(
            "{}{}",
            QueueDepthProbe::csv_header(),
            ",t1_in_flight,t1_pending,t1_admitted,t1_completed\
             ,t2_in_flight,t2_pending,t2_admitted,t2_completed\
             ,t3_in_flight,t3_pending,t3_admitted,t3_completed"
        )
    );
    let mut rows = 0usize;
    let mut admitted = [0u64; 3];
    let mut completed = [0u64; 3];
    let mut final_gauges = [u64::MAX; 6];
    for line in lines {
        let cols: Vec<u64> = line
            .split(',')
            .skip(1) // bucket_start_ms is a float
            .map(|c| c.parse().expect("integer column"))
            .collect();
        assert_eq!(cols.len(), 16, "4 aggregate + 3 tenant blocks");
        // Aggregate columns are the sum of the tenant blocks.
        for g in 0..4 {
            let sum: u64 = (0..3).map(|t| cols[4 + t * 4 + g]).sum();
            assert_eq!(cols[g], sum, "aggregate col {g} != tenant sum");
        }
        for t in 0..3 {
            admitted[t] += cols[4 + t * 4 + 2];
            completed[t] += cols[4 + t * 4 + 3];
            final_gauges[t * 2] = cols[4 + t * 4];
            final_gauges[t * 2 + 1] = cols[4 + t * 4 + 1];
        }
        rows += 1;
    }
    assert_eq!(rows, buckets);
    for t in 0..3u16 {
        let tracked = report.queue_log.tenant_len(t + 1);
        assert!(tracked > 0, "tenant {} tracked nothing", t + 1);
        assert_eq!(
            admitted[t as usize] as usize,
            tracked,
            "tenant {} admitted exactly once per unit",
            t + 1
        );
        assert_eq!(completed[t as usize], admitted[t as usize]);
    }
    assert_eq!(final_gauges, [0; 6], "per-tenant queues drain by the end");
}

/// The host stack telescopes the attribution table from syscall to cell:
/// replaying a buffered host run's spans into the same recorder that
/// captured the device spans adds `host_queue`, `cache`, and
/// `completion` rows whose residence totals reconcile *exactly* (integer
/// nanoseconds) with the per-request phase sums of the
/// [`HostRunReport`] — submission waits land on the `host_queue` row,
/// cache service on the `cache` row, and the done→deliver coalescing
/// wait on the `completion` row — and the four phases tile each
/// request's end-to-end residence. The device-only rows keep their
/// meaning: the host phases are excluded from `request_visible_ns`, so
/// enabling the host stack never inflates the device-side accounting.
#[test]
fn host_attribution_rows_reconcile_with_phase_sums() {
    let config = SsdConfig::micro_gc_test();
    let geometry = config.geometry();
    let footprint = geometry.user_pages() * geometry.page_size as u64 / 2;
    let trace = host_mix(42, geometry.page_size, 250, footprint);
    let cache_pages = (geometry.user_pages() / 8).max(64);

    let mut device = SsdDevice::new(config.clone(), Box::new(DloopFtl::new(&config)));
    device.attach_sink(Box::new(RingSink::new(1 << 20)));
    let host = HostStack::new(HostConfig::buffered(cache_pages)).run(
        &mut device,
        &trace.requests,
        ReplayMode::Open,
    );
    let mut rec = device.take_trace().expect("ring sink was attached");
    let device_only = attribution(&rec);
    host.emit_spans(&mut rec);
    let attr = attribution(&rec);

    // Locked CSV schema: header plus one row per phase, host rows last.
    let csv = attr.csv();
    let rows: Vec<&str> = csv.lines().collect();
    assert_eq!(rows.len(), 1 + SpanPhase::all().len());
    assert!(rows[4].starts_with("host_queue,"), "{csv}");
    assert!(rows[5].starts_with("cache,"), "{csv}");
    assert!(rows[6].starts_with("completion,"), "{csv}");

    // Per-request tiling, then the table-level reconciliation.
    let (hq, cache, dev, compl, e2e) = host.phase_totals_ns();
    for r in &host.requests {
        assert_eq!(
            r.host_queue_ns() + r.cache_ns() + r.device_ns() + r.completion_ns(),
            r.end_to_end_ns()
        );
    }
    assert_eq!(hq + cache + dev + compl, e2e);
    let manual_e2e: u64 = host.requests.iter().map(|r| r.end_to_end_ns()).sum();
    assert_eq!(e2e, manual_e2e);

    // Submission waits surface on the host_queue row, cache service on
    // the cache row, and the done→deliver coalescing wait on its own
    // completion row. Exact equality — the spans are the phases.
    let hq_row = attr.row(SpanPhase::HostQueue);
    let cache_row = attr.row(SpanPhase::Cache);
    let compl_row = attr.row(SpanPhase::Completion);
    assert_eq!(hq_row.residence_ns, hq);
    assert_eq!(cache_row.residence_ns, cache);
    assert_eq!(compl_row.residence_ns, compl);
    assert!(hq_row.spans > 0, "batching never delayed a submission");
    assert!(cache_row.spans > 0, "cache never served a request");
    assert!(compl_row.spans > 0, "coalescing never delayed an interrupt");

    // The host rows ride alongside the device rows without disturbing
    // them: every device-phase row is unchanged by the span replay, and
    // the request-visible total stays device-only.
    for phase in [SpanPhase::Host, SpanPhase::Gc, SpanPhase::Scan] {
        assert_eq!(attr.row(phase).spans, device_only.row(phase).spans);
        assert_eq!(
            attr.row(phase).residence_ns,
            device_only.row(phase).residence_ns
        );
    }
    assert_eq!(attr.request_visible_ns(), device_only.request_visible_ns());
}

#[test]
fn formats_agree_on_equivalent_content() {
    // The same logical workload expressed in both formats produces the
    // same page-level requests.
    let spc = "0,1000,8192,W,1.5\n0,2000,4096,r,2.5\n";
    let ds = "1500.0 0 1000 16 0\n2500.0 0 2000 8 1\n";
    let a = parse_spc(spc, "a", 2048, None).unwrap();
    let b = parse_disksim(ds, "b", 2048, None).unwrap();
    assert_eq!(a.requests, b.requests);
}
