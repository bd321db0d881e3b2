//! Automated verification of the paper's qualitative claims.
//!
//! The reproduction's acceptance criterion is *shape*, not absolute
//! milliseconds: who wins, in which direction trends move, where the
//! paper's stated special cases appear. This module encodes each claim as
//! a predicate over a compact experiment grid, so
//! `dloop-experiments verify` gives a PASS/FAIL audit of the whole
//! reproduction in a few minutes.

use crate::runner::{build_ftl, run_grid, RunSpec};
use crate::table::Table;
use dloop_ftl_kit::config::{FtlKind, SsdConfig};
use dloop_ftl_kit::device::{ReplayMode, RunConfig, SsdDevice};
use dloop_ftl_kit::metrics::{RunReport, ShardOutcome};
use dloop_ftl_kit::sched::QosSpec;
use dloop_host::{report_fingerprint, HostConfig, HostStack};
use dloop_nand::TimingConfig;
use dloop_simkit::trace::{attribution, RingSink, SpanPhase};
use dloop_workloads::synth::sequential_fill;
use dloop_workloads::{host_mix, qos_mix, Trace, WorkloadProfile};

use crate::experiments::ExpOptions;

/// Outcome of one claim check.
#[derive(Debug, Clone)]
pub struct ClaimResult {
    /// Short identifier ("C1", …).
    pub id: &'static str,
    /// The paper's claim being checked.
    pub claim: &'static str,
    /// Whether the reproduction exhibits it.
    pub pass: bool,
    /// Measured evidence.
    pub detail: String,
}

/// The compact grid the claims are evaluated on.
struct Grid {
    /// `[trace][capacity in {small,large}][ftl]` reports.
    mrt: Vec<[[f64; 3]; 2]>,
    sdrpp: Vec<[[f64; 3]; 2]>,
    names: Vec<&'static str>,
    write_pcts: Vec<f64>,
}

fn run_compact_grid(opts: &ExpOptions) -> Grid {
    let kinds = FtlKind::paper_set();
    let capacities = [4u32, 64];
    let profiles: Vec<WorkloadProfile> = WorkloadProfile::all_paper()
        .into_iter()
        .map(|p| opts.scaled_profile(p))
        .collect();
    let mut specs = Vec::new();
    for p in &profiles {
        for &cap in &capacities {
            for kind in kinds {
                specs.push(RunSpec {
                    config: SsdConfig::paper_default().with_capacity_gb(opts.scaled_capacity(cap)),
                    kind,
                    profile: p.clone(),
                    max_requests: opts.requests_for(p).min(120_000),
                    seed: opts.seed,
                    fill_fraction: opts.fill_fraction,
                });
            }
        }
    }
    let reports = run_grid(specs, opts.workers);
    let mut it = reports.iter();
    let mut mrt = Vec::new();
    let mut sdrpp = Vec::new();
    let mut names = Vec::new();
    let mut write_pcts = Vec::new();
    for p in &profiles {
        names.push(p.name);
        write_pcts.push(p.write_ratio * 100.0);
        let mut m = [[0.0; 3]; 2];
        let mut s = [[0.0; 3]; 2];
        for (ci, _) in capacities.iter().enumerate() {
            for ki in 0..3 {
                let r: &RunReport = it.next().expect("grid underrun");
                m[ci][ki] = r.mean_response_time_ms();
                s[ci][ki] = r.ln_sdrpp();
            }
        }
        mrt.push(m);
        sdrpp.push(s);
    }
    Grid {
        mrt,
        sdrpp,
        names,
        write_pcts,
    }
}

/// Run every claim check. Returns the individual results.
pub fn verify(opts: &ExpOptions) -> Vec<ClaimResult> {
    let mut results = Vec::new();

    // C1 — §III.A: copy-back saves ~30% over an inter-plane copy at 2 KB.
    let t = TimingConfig::paper_default();
    let saving = t.copyback_saving(2048);
    results.push(ClaimResult {
        id: "C1",
        claim: "copy-back saves ~30% over inter-plane copy at 2KB (SIII.A)",
        pass: (0.28..=0.34).contains(&saving),
        detail: format!("measured {:.1}%", saving * 100.0),
    });

    let grid = run_compact_grid(opts);
    let idx = |k: FtlKind| match k {
        FtlKind::Dloop => 0usize,
        FtlKind::Dftl => 1,
        _ => 2,
    };
    let (d, t_, f) = (idx(FtlKind::Dloop), idx(FtlKind::Dftl), 2usize);

    // C2 — Fig. 8: DLOOP <= DFTL on every trace at every capacity.
    let mut worst = (1.0f64, String::new());
    for (i, m) in grid.mrt.iter().enumerate() {
        for (row, cap) in m.iter().zip([4, 64]) {
            let ratio = row[d] / row[t_];
            if ratio > worst.0 {
                worst = (
                    ratio,
                    format!("{} @{}GB: {:.2}x", grid.names[i], cap, ratio),
                );
            }
        }
    }
    results.push(ClaimResult {
        id: "C2",
        claim: "DLOOP beats DFTL on every trace and capacity (Fig. 8)",
        pass: worst.0 <= 1.0,
        detail: if worst.1.is_empty() {
            "DLOOP <= DFTL everywhere".into()
        } else {
            format!("worst case {}", worst.1)
        },
    });

    // C3 — Fig. 8: DLOOP beats FAST on the write-dominant traces.
    let mut pass = true;
    let mut detail = String::new();
    for (i, m) in grid.mrt.iter().enumerate() {
        if grid.write_pcts[i] < 50.0 {
            continue; // the paper's own FAST edge cases are read-dominant
        }
        for row in m {
            if row[d] > row[f] {
                pass = false;
                detail = format!(
                    "{}: DLOOP {:.3} > FAST {:.3}",
                    grid.names[i], row[d], row[f]
                );
            }
        }
    }
    results.push(ClaimResult {
        id: "C3",
        claim: "DLOOP beats FAST on write-dominant traces (Fig. 8)",
        pass,
        detail: if detail.is_empty() {
            "holds on F1/TPC-C/Exchange/Build".into()
        } else {
            detail
        },
    });

    // C4 — Fig. 8: DLOOP's MRT does not grow with capacity.
    let mut pass = true;
    let mut detail = String::new();
    for (i, m) in grid.mrt.iter().enumerate() {
        if m[1][d] > m[0][d] * 1.05 {
            pass = false;
            detail = format!(
                "{}: 64GB {:.3} ms > 4GB {:.3} ms",
                grid.names[i], m[1][d], m[0][d]
            );
        }
    }
    results.push(ClaimResult {
        id: "C4",
        claim: "larger SSDs delay GC: MRT non-increasing with capacity (Fig. 8)",
        pass,
        detail: if detail.is_empty() {
            "holds for all five traces".into()
        } else {
            detail
        },
    });

    // C5 — §V.B: the smallest DLOOP-vs-DFTL gap is on read-dominant
    // Financial2.
    let gap = |i: usize| {
        let m = &grid.mrt[i];
        // average relative improvement across the two capacities
        ((m[0][t_] - m[0][d]) / m[0][t_] + (m[1][t_] - m[1][d]) / m[1][t_]) / 2.0
    };
    let f2_idx = grid.names.iter().position(|n| *n == "Financial2").unwrap();
    let f2_gap = gap(f2_idx);
    let min_other = (0..grid.names.len())
        .filter(|&i| i != f2_idx)
        .map(gap)
        .fold(f64::INFINITY, f64::min);
    results.push(ClaimResult {
        id: "C5",
        claim: "read-dominant Financial2 shows the smallest DLOOP-vs-DFTL gap (SV.B)",
        pass: f2_gap <= min_other,
        detail: format!(
            "F2 gap {:.1}% vs next smallest {:.1}%",
            f2_gap * 100.0,
            min_other * 100.0
        ),
    });

    // C6 — Figs. 8-10: DLOOP has the lowest ln(SDRPP) everywhere.
    let mut pass = true;
    let mut detail = String::new();
    for (i, s) in grid.sdrpp.iter().enumerate() {
        for row in s {
            if row[d] > row[t_] + 1e-9 || row[d] > row[f] + 1e-9 {
                pass = false;
                detail = format!(
                    "{}: DLOOP {:.2} vs DFTL {:.2} / FAST {:.2}",
                    grid.names[i], row[d], row[t_], row[f]
                );
            }
        }
    }
    results.push(ClaimResult {
        id: "C6",
        claim: "DLOOP spreads requests most evenly: lowest ln(SDRPP) (Figs. 8-10)",
        pass,
        detail: if detail.is_empty() {
            "lowest on every trace and capacity".into()
        } else {
            detail
        },
    });

    // C7 — Fig. 10: FAST improves as extra blocks grow (bigger log region).
    let profile = opts.scaled_profile(WorkloadProfile::tpcc());
    let fast_specs: Vec<RunSpec> = [3.0, 10.0]
        .iter()
        .map(|&pct| RunSpec {
            config: SsdConfig::paper_default()
                .with_capacity_gb(opts.scaled_capacity(8))
                .with_extra_pct(pct),
            kind: FtlKind::Fast,
            profile: profile.clone(),
            max_requests: opts.requests_for(&profile).min(120_000),
            seed: opts.seed,
            fill_fraction: opts.fill_fraction,
        })
        .collect();
    let fast_reports = run_grid(fast_specs, opts.workers);
    let (fast3, fast10) = (
        fast_reports[0].mean_response_time_ms(),
        fast_reports[1].mean_response_time_ms(),
    );
    results.push(ClaimResult {
        id: "C7",
        claim: "FAST improves with more extra blocks / bigger log region (Fig. 10)",
        pass: fast10 <= fast3,
        detail: format!("TPC-C: 3% -> {fast3:.3} ms, 10% -> {fast10:.3} ms"),
    });

    // C8 — §I/§V.B headline: large average improvements. The 4 GB device
    // is the GC-stressed point (the paper quotes ~70%/~90% there); the
    // 64 GB numbers need the full-length traces to pressure FAST's log
    // region, which the compact grid deliberately truncates.
    let avg_impr = |cap: usize, base: usize| -> f64 {
        let mut sum = 0.0;
        for m in &grid.mrt {
            sum += (m[cap][base] - m[cap][d]) / m[cap][base];
        }
        sum / grid.mrt.len() as f64 * 100.0
    };
    let (vs_dftl, vs_fast) = (avg_impr(0, t_), avg_impr(0, f));
    results.push(ClaimResult {
        id: "C8",
        claim:
            "large average MRT improvement at the GC-stressed capacity (paper: ~70%/~90% at 4GB)",
        pass: vs_dftl > 20.0 && vs_fast > 50.0,
        detail: format!("measured {vs_dftl:.1}% vs DFTL, {vs_fast:.1}% vs FAST at 4GB"),
    });

    // C9 — §II.C motivation: striping across planes raises throughput.
    let mut seq = opts.scaled_profile(WorkloadProfile::build());
    seq.write_ratio = 0.9;
    seq.seq_prob = 0.9;
    seq.rate_per_sec = 2000.0;
    let striping_specs: Vec<RunSpec> = [1u32, 8]
        .iter()
        .map(|&ppd| {
            let mut config = SsdConfig::paper_default().with_capacity_gb(opts.scaled_capacity(8));
            config.planes_per_die = ppd;
            RunSpec {
                config,
                kind: FtlKind::Dloop,
                profile: seq.clone(),
                max_requests: 40_000,
                seed: opts.seed,
                fill_fraction: 0.0,
            }
        })
        .collect();
    let striping_reports = run_grid(striping_specs, opts.workers);
    let (one, eight) = (
        striping_reports[0].mean_response_time_ms(),
        striping_reports[1].mean_response_time_ms(),
    );
    results.push(ClaimResult {
        id: "C9",
        claim: "plane striping raises sequential throughput substantially (SII.C)",
        pass: one / eight > 4.0,
        detail: format!(
            "1 plane/die {one:.2} ms vs 8 planes/die {eight:.2} ms ({:.0}x)",
            one / eight
        ),
    });

    results.push(check_gc_blocked_share(opts));
    results.push(check_ncq_vs_gated(opts));
    results.push(check_qos_bounds(opts));
    results.push(check_host_stack(opts));
    results.push(check_sq_windows(opts));
    results.push(check_shard_identity(opts));
    results.push(check_power_cap(opts));

    results
}

/// C10 — tracing-derived: the share of host-visible response time that
/// requests spend blocked on synchronous GC must shrink when background
/// GC is enabled (collections move off the host path; §V.B discusses the
/// GC tail these blocks create). This claim is fed by the op-level trace:
/// the flight recorder's latency-attribution table must actually observe
/// GC spans in the synchronous run, so the check fails if the tracing
/// layer stops seeing the GC traffic the report charges for.
fn check_gc_blocked_share(opts: &ExpOptions) -> ClaimResult {
    // A property check, not a paper figure: a deliberately small device
    // under near-total fill guarantees GC pressure within a short trace
    // regardless of the scale factor (the per-plane free list must drop
    // below `gc_threshold`, and the over-provisioned extra blocks never
    // fill, so only overwrite traffic can get it there).
    let gc_config = SsdConfig::paper_default().with_capacity_gb(1);
    let max_requests = opts.requests_for(&opts.scaled_profile(WorkloadProfile::financial1()));
    check_gc_blocked_share_on(opts, gc_config, max_requests.min(12_000))
}

/// The C10 measurement itself, on an arbitrary device configuration (the
/// unit test runs it on [`SsdConfig::micro_gc_test`] to stay cheap).
fn check_gc_blocked_share_on(
    opts: &ExpOptions,
    gc_config: SsdConfig,
    max_requests: u64,
) -> ClaimResult {
    let profile = opts.scaled_profile(WorkloadProfile::financial1());
    let geometry = gc_config.geometry();
    let gc_trace = profile.generate_scaled(opts.seed, geometry.page_size, max_requests);
    let fill = sequential_fill(geometry.user_pages(), 0.999, 64);
    let run_gc_mode = |background: bool| {
        let mut config = gc_config.clone();
        config.background_gc = background;
        let mut device = SsdDevice::new(config.clone(), build_ftl(FtlKind::Dloop, &config));
        device.warm_up(&fill.requests);
        device.attach_sink(Box::new(RingSink::new(1 << 20)));
        let report = device.run_with(&gc_trace.requests, ReplayMode::Open.into());
        let rec = device.take_trace().expect("ring sink was attached");
        (report, attribution(&rec))
    };
    let (rep_sync, attr_sync) = run_gc_mode(false);
    let (rep_bg, _) = run_gc_mode(true);
    let (share_sync, share_bg) = (rep_sync.gc_blocked_share(), rep_bg.gc_blocked_share());
    let gc_row = attr_sync.row(SpanPhase::Gc);
    ClaimResult {
        id: "C10",
        claim: "GC-blocked share of response time shrinks under background GC (SV.B)",
        pass: rep_sync.ftl.gc_invocations > 0
            && rep_bg.ftl.gc_invocations > 0
            && gc_row.spans > 0
            && share_sync > share_bg,
        detail: format!(
            "sync GC-blocked {:.1} ms ({:.4}% of response) vs background {:.1} ms ({:.4}%); {} GC spans attributed",
            rep_sync.gc_block_ms.sum(),
            share_sync * 100.0,
            rep_bg.gc_block_ms.sum(),
            share_bg * 100.0,
            gc_row.spans,
        ),
    }
}

/// C11 — scheduler sanity for the NCQ replay mode: at equal queue depth,
/// NCQ-style reordering must not raise the mean response time over the
/// in-order queue on a write-heavy synthetic trace. Reordering only
/// issues an op the queue head is *not* ready to issue — filling a plane
/// the strict order would have left idle — so it can start work earlier
/// but never later. (This is the queue/reorder layer SimpleSSD and Amber
/// model ahead of the FTL; DLOOP's plane-spreading allocation is what
/// creates the idle planes reordering exploits.)
///
/// Two baselines pin the claim down:
///
/// * **In-order at equal depth.** An in-order bounded queue can only ever
///   examine its head, so its issue schedule is the same at every depth —
///   `Ncq { queue_depth: 1 }` is the canonical spelling of "same queue,
///   no reordering". NCQ must strictly not lose to it (the measured win
///   is 7–99 % across configs and rates).
/// * **Gated, the unbounded window.** The gated FIFO skips over blocked
///   ops with *no* window bound, i.e. it is NCQ with infinite depth and
///   first-fit order — a lower bound no finite window can beat. NCQ{32}
///   must track it within a generous factor (measured +0.1 % to +15 %,
///   growing with saturation as the truncated window bites).
fn check_ncq_vs_gated(opts: &ExpOptions) -> ClaimResult {
    // Like C10, a property check rather than a paper figure: a small
    // device under a write-heavy burst guarantees queueing pressure (the
    // reorder window only matters when ops actually wait).
    let config = SsdConfig::paper_default().with_capacity_gb(1);
    let max_requests = opts.requests_for(&opts.scaled_profile(WorkloadProfile::financial1()));
    check_ncq_vs_gated_on(opts, config, max_requests.min(12_000))
}

/// The C11/C16 burst: Financial1 at 90 % writes, arriving 16× faster,
/// so ops queue. Reordering and power caps are no-ops on an idle device.
fn write_burst(opts: &ExpOptions, config: &SsdConfig, max_requests: u64) -> Trace {
    let mut profile = opts.scaled_profile(WorkloadProfile::financial1());
    profile.write_ratio = 0.9;
    profile.rate_per_sec *= 16.0;
    profile.generate_scaled(opts.seed, config.geometry().page_size, max_requests)
}

/// The C11 measurement itself, on an arbitrary device configuration (the
/// unit test runs it on [`SsdConfig::micro_gc_test`] to stay cheap).
fn check_ncq_vs_gated_on(opts: &ExpOptions, config: SsdConfig, max_requests: u64) -> ClaimResult {
    let trace = write_burst(opts, &config, max_requests);
    let run_mode = |mode: ReplayMode| {
        let mut device = SsdDevice::new(config.clone(), build_ftl(FtlKind::Dloop, &config));
        device.run_with(&trace.requests, mode.into())
    };
    let gated = run_mode(ReplayMode::Gated);
    let ncq = run_mode(ReplayMode::Ncq {
        queue_depth: dloop_ftl_kit::DEFAULT_NCQ_DEPTH,
    });
    let in_order = run_mode(ReplayMode::Ncq { queue_depth: 1 });
    let g_mrt = gated.mean_response_time_ms();
    let n_mrt = ncq.mean_response_time_ms();
    let i_mrt = in_order.mean_response_time_ms();
    // Worst bounded-window penalty observed across configs/rates/seeds is
    // +15 % at deep saturation; 1.25 leaves headroom without letting a
    // broken scheduler slip through.
    const GATED_TRACKING_FACTOR: f64 = 1.25;
    ClaimResult {
        id: "C11",
        claim: "NCQ reordering fills idle planes: MRT <= in-order queue at equal depth",
        // Identical flash work is the precondition that makes the MRT
        // comparison meaningful; a sliver of tolerance absorbs f64
        // accumulation order, nothing more.
        pass: gated.pages_written == ncq.pages_written
            && gated.pages_read == ncq.pages_read
            && in_order.pages_written == ncq.pages_written
            && in_order.pages_read == ncq.pages_read
            && i_mrt > 0.0
            && n_mrt <= i_mrt * (1.0 + 1e-9)
            && n_mrt <= g_mrt * GATED_TRACKING_FACTOR,
        detail: format!(
            "write-heavy F1 burst: NCQ{{{}}} {n_mrt:.4} ms vs in-order {i_mrt:.4} ms \
             ({:+.1}%) vs gated (unbounded window) {g_mrt:.4} ms ({:+.1}%)",
            dloop_ftl_kit::DEFAULT_NCQ_DEPTH,
            (n_mrt - i_mrt) / i_mrt * 100.0,
            (n_mrt - g_mrt) / g_mrt * 100.0,
        ),
    }
}

/// C12 — QoS-policy sanity over the NCQ window, the C11 pattern applied
/// to the pluggable scheduler: every policy ranks *within* the same
/// bounded reorder window, so on the canonical three-tenant contention
/// mix each policy's per-tenant mean turnaround must stay pinned between
/// the same two baselines that bracket plain NCQ:
///
/// * **Naive in-order bound** (`Ncq { queue_depth: 1 }`): no policy may
///   leave any tenant worse than the queue that never reorders at all —
///   even a deprioritized tenant still rides the idle planes the window
///   fills. A small factor absorbs per-tenant measurement noise.
/// * **Oracle bound** (`Gated`): the unbounded skip-ahead window no
///   finite policy can beat; aggregate turnaround must track it within a
///   stated factor (2x — fair-share pays the most, trading locality for
///   per-tenant isolation, and measures ~1.8x at the worst).
///
/// Fairness itself is *measured, not asserted* — the fair-share spread
/// (max/min per-tenant turnaround) is reported as evidence, because
/// which spread is "right" depends on the weights, not on the paper.
fn check_qos_bounds(opts: &ExpOptions) -> ClaimResult {
    let config = SsdConfig::paper_default().with_capacity_gb(1);
    check_qos_bounds_on(opts, config, 4_000)
}

/// The C12 measurement itself, on an arbitrary device configuration (the
/// unit test runs it on [`SsdConfig::micro_gc_test`] to stay cheap).
fn check_qos_bounds_on(
    opts: &ExpOptions,
    config: SsdConfig,
    requests_per_tenant: u64,
) -> ClaimResult {
    let geometry = config.geometry();
    // Half the device's logical space: enough locality to queue without
    // immediately thrashing GC on the micro config.
    let footprint = geometry.user_pages() * geometry.page_size as u64 / 2;
    let mix = qos_mix(
        opts.seed,
        geometry.page_size,
        requests_per_tenant,
        footprint,
    );
    let run = |mode: ReplayMode| {
        let mut device = SsdDevice::new(config.clone(), build_ftl(FtlKind::Dloop, &config));
        device.run_with(&mix.requests, mode.into())
    };
    let naive = run(ReplayMode::Ncq { queue_depth: 1 });
    let oracle = run(ReplayMode::Gated);
    let tenants = naive.queue_log.tenants();
    // Per-tenant slowdown tolerance vs the in-order queue, and aggregate
    // tracking factor vs the unbounded oracle window. Measured worst
    // cases on the micro and 1 GB configs sit well inside these.
    const NAIVE_FACTOR: f64 = 1.10;
    const ORACLE_FACTOR: f64 = 2.00;
    let mut pass = true;
    let mut worst = String::new();
    let mut fair_spread = 0.0f64;
    for spec in QosSpec::all() {
        let report = run(ReplayMode::Qos {
            queue_depth: dloop_ftl_kit::DEFAULT_NCQ_DEPTH,
            policy: spec,
        });
        // Identical flash work makes the turnaround comparison meaningful.
        if report.pages_written != naive.pages_written || report.pages_read != naive.pages_read {
            pass = false;
            worst = format!("{}: flash work diverged from the baselines", spec.name());
            continue;
        }
        for &t in &tenants {
            let mrt = report.queue_log.tenant_mean_turnaround_ms(t);
            let bound = naive.queue_log.tenant_mean_turnaround_ms(t);
            if bound > 0.0 && mrt > bound * NAIVE_FACTOR {
                pass = false;
                worst = format!(
                    "{} tenant {}: {:.4} ms > in-order {:.4} ms x{NAIVE_FACTOR}",
                    spec.name(),
                    t,
                    mrt,
                    bound
                );
            }
        }
        let agg = report.queue_log.mean_turnaround_ms();
        let oracle_agg = oracle.queue_log.mean_turnaround_ms();
        if oracle_agg > 0.0 && agg > oracle_agg * ORACLE_FACTOR {
            pass = false;
            worst = format!(
                "{}: aggregate {:.4} ms > oracle {:.4} ms x{ORACLE_FACTOR}",
                spec.name(),
                agg,
                oracle_agg
            );
        }
        if matches!(spec, QosSpec::FairShare { .. }) {
            let mrts: Vec<f64> = tenants
                .iter()
                .map(|&t| report.queue_log.tenant_mean_turnaround_ms(t))
                .filter(|&m| m > 0.0)
                .collect();
            let max = mrts.iter().cloned().fold(0.0f64, f64::max);
            let min = mrts.iter().cloned().fold(f64::INFINITY, f64::min);
            if min.is_finite() && min > 0.0 {
                fair_spread = max / min;
            }
        }
    }
    ClaimResult {
        id: "C12",
        claim: "every QoS policy stays between the in-order and oracle bounds per tenant",
        pass: pass && !tenants.is_empty(),
        detail: if pass {
            format!(
                "{} tenants x {} policies within bounds (naive x{NAIVE_FACTOR}, oracle \
                 x{ORACLE_FACTOR}); fair-share turnaround spread {fair_spread:.2}x",
                tenants.len(),
                QosSpec::all().len(),
            )
        } else {
            worst
        },
    }
}

/// C13 — host-stack contract for the `dloop-host` crate, in three legs:
///
/// * **Pass-through identity.** With [`HostConfig::passthrough`] every
///   pipeline stage is an exact identity transform, so the device report
///   under the host stack must be fingerprint-identical (locked CSV row,
///   queue-depth timeline, per-request completion log) to calling
///   `SsdDevice::run_with` directly — in *every* replay mode. This is the
///   regression gate that keeps the host layer observational: adding a
///   stage that perturbs the forwarded trace breaks the digest.
/// * **Exact phase tiling.** On a fully-enabled (buffered) stack, each
///   request's host-queue + cache + device + completion durations must
///   sum to its end-to-end residence *in integer nanoseconds* — the
///   attribution table telescopes from syscall to cell with no slack.
///   The leg also demands the stack actually engaged: cache hits,
///   amortized doorbells, and coalesced interrupts all observed.
/// * **Determinism.** Re-running the buffered stack on the same trace
///   reproduces the same [`HostRunReport`](dloop_host::HostRunReport)
///   digest, timelines and counters included.
fn check_host_stack(opts: &ExpOptions) -> ClaimResult {
    let config = SsdConfig::paper_default().with_capacity_gb(1);
    check_host_stack_on(opts, config, 1_500)
}

/// The C13 measurement itself, on an arbitrary device configuration (the
/// unit test runs it on [`SsdConfig::micro_gc_test`] to stay cheap).
fn check_host_stack_on(
    opts: &ExpOptions,
    config: SsdConfig,
    requests_per_tenant: u64,
) -> ClaimResult {
    let geometry = config.geometry();
    let footprint = geometry.user_pages() * geometry.page_size as u64 / 2;
    let mix = host_mix(
        opts.seed,
        geometry.page_size,
        requests_per_tenant,
        footprint,
    );
    let mut pass = true;
    let mut worst = String::new();

    // Leg 1: pass-through identity, every replay mode.
    let modes = [
        ReplayMode::Open,
        ReplayMode::Gated,
        ReplayMode::Closed { queue_depth: 16 },
        ReplayMode::Ncq {
            queue_depth: dloop_ftl_kit::DEFAULT_NCQ_DEPTH,
        },
        ReplayMode::Qos {
            queue_depth: dloop_ftl_kit::DEFAULT_NCQ_DEPTH,
            policy: QosSpec::Priority,
        },
    ];
    for mode in modes {
        let mut raw = SsdDevice::new(config.clone(), build_ftl(FtlKind::Dloop, &config));
        let raw_report = raw.run_with(&mix.requests, mode.into());
        let mut wrapped = SsdDevice::new(config.clone(), build_ftl(FtlKind::Dloop, &config));
        let host = HostStack::new(HostConfig::passthrough()).run(&mut wrapped, &mix.requests, mode);
        if report_fingerprint(&raw_report) != report_fingerprint(&host.device) {
            pass = false;
            worst = format!("pass-through device report diverged under {mode:?}");
        }
    }

    // Leg 2: exact phase tiling with every stage engaged.
    let cache_pages = (geometry.user_pages() / 8).max(64);
    let run_buffered = || {
        let mut device = SsdDevice::new(config.clone(), build_ftl(FtlKind::Dloop, &config));
        HostStack::new(HostConfig::buffered(cache_pages)).run(
            &mut device,
            &mix.requests,
            ReplayMode::Open,
        )
    };
    let buffered = run_buffered();
    for (i, r) in buffered.requests.iter().enumerate() {
        let tiled = r.host_queue_ns() + r.cache_ns() + r.device_ns() + r.completion_ns();
        if tiled != r.end_to_end_ns() {
            pass = false;
            worst = format!(
                "request {i}: phases sum to {tiled} ns but end-to-end is {} ns",
                r.end_to_end_ns()
            );
            break;
        }
    }
    let (hq, cache, dev, compl, e2e) = buffered.phase_totals_ns();
    if hq + cache + dev + compl != e2e {
        pass = false;
        worst =
            format!("phase totals {hq}+{cache}+{dev}+{compl} ns do not tile end-to-end {e2e} ns");
    }
    let engaged = buffered.cache.read_hits > 0
        && buffered.cache.writes_absorbed > 0
        && buffered.queues.mean_batch() > 1.0
        && buffered.queues.mean_coalesced() > 1.0;
    if !engaged {
        pass = false;
        worst = format!(
            "buffered stack did not engage: {} hits, {} absorbed, batch {:.2}, coalesced {:.2}",
            buffered.cache.read_hits,
            buffered.cache.writes_absorbed,
            buffered.queues.mean_batch(),
            buffered.queues.mean_coalesced()
        );
    }

    // Leg 3: rerun determinism of the full host report.
    let rerun = run_buffered();
    if buffered.fingerprint() != rerun.fingerprint() {
        pass = false;
        worst = "buffered host report not deterministic across reruns".into();
    }

    ClaimResult {
        id: "C13",
        claim: "pass-through host stack is fingerprint-identical; host phases tile end-to-end",
        pass,
        detail: if pass {
            format!(
                "{} modes identical; {} requests tiled exactly ({:.1}% cache-served, \
                 batch {:.2}, coalesced {:.2}); rerun digest stable",
                modes.len(),
                buffered.requests.len(),
                buffered.cache_served_fraction() * 100.0,
                buffered.queues.mean_batch(),
                buffered.queues.mean_coalesced(),
            )
        } else {
            worst
        },
    }
}

/// C14 — the interleaved driver's per-queue SQ windows hold.
///
/// * **Occupancy bound.** At every instant of the SQ occupancy log
///   (every probe bucket is a fortiori covered by the instant-level
///   sweep), each submission queue's in-flight count stays at or below
///   the configured depth, and the report attests the driver enforced
///   it (`depth_enforced`).
/// * **Backpressure engages.** At the tightest depth the stack records
///   depth stalls — commands whose syscall-visible submission the full
///   window actually delayed.
/// * **Monotone degradation.** On a single queue pair — where the window
///   only delays admissions and never reorders them — mean turnaround
///   degrades monotonically as the window shrinks, the tightest window
///   is strictly worse than unbounded, and wide windows converge to the
///   unbounded stack. (With several queues a moderate window can *beat*
///   unbounded: backpressure on one queue reorders admissions across
///   queues and eases device-side contention — so the multi-queue sweep
///   checks the occupancy bound, the single-queue sweep the trend.)
fn check_sq_windows(opts: &ExpOptions) -> ClaimResult {
    let config = SsdConfig::paper_default().with_capacity_gb(1);
    check_sq_windows_on(opts, config, 1_200)
}

/// The C14 measurement itself, on an arbitrary device configuration (the
/// unit test runs it on [`SsdConfig::micro_gc_test`] to stay cheap).
fn check_sq_windows_on(
    opts: &ExpOptions,
    config: SsdConfig,
    requests_per_tenant: u64,
) -> ClaimResult {
    let geometry = config.geometry();
    let footprint = geometry.user_pages() * geometry.page_size as u64 / 2;
    let mix = host_mix(
        opts.seed,
        geometry.page_size,
        requests_per_tenant,
        footprint,
    );
    let depths: [Option<u32>; 4] = [Some(1), Some(2), Some(4), None];
    let mut pass = true;
    let mut worst = String::new();
    let run = |queues: u32, depth: Option<u32>| {
        let mut device = SsdDevice::new(config.clone(), build_ftl(FtlKind::Dloop, &config));
        let stack = HostStack::new(HostConfig {
            queues,
            queue_depth: depth,
            ..HostConfig::passthrough()
        });
        stack.run(&mut device, &mix.requests, ReplayMode::Open)
    };
    let mean_ms = |report: &dloop_host::HostRunReport| {
        let n = report.requests.len().max(1) as u64;
        let total: u64 = report.requests.iter().map(|r| r.end_to_end_ns()).sum();
        total as f64 / n as f64 / 1e6
    };

    // Leg 1: occupancy bound and backpressure, two independent SQs.
    let queues = 2u32;
    let mut stalls_at_tightest = 0u64;
    for depth in depths {
        let report = run(queues, depth);
        if report.depth_enforced != depth.is_some() {
            pass = false;
            worst = format!(
                "depth {depth:?}: depth_enforced = {}",
                report.depth_enforced
            );
        }
        if let Some(d) = depth {
            for q in 0..queues as u16 {
                let occ = report.sq_log.tenant_max_in_flight(q);
                if occ > d as u64 {
                    pass = false;
                    worst = format!("depth {d}: SQ {q} reached {occ} in-flight commands");
                }
            }
            if Some(d) == depths[0] {
                stalls_at_tightest = report.queues.depth_stalls;
            }
        }
    }
    if stalls_at_tightest == 0 {
        pass = false;
        worst = "tightest depth recorded no depth stalls (backpressure never engaged)".into();
    }

    // Leg 2: monotone turnaround degradation on one queue pair.
    let means_ms: Vec<f64> = depths.iter().map(|&d| mean_ms(&run(1, d))).collect();
    for w in means_ms.windows(2) {
        if w[0] < w[1] {
            pass = false;
            worst = format!(
                "turnaround not monotone in depth: {:?} ms across depths {:?}",
                means_ms, depths
            );
            break;
        }
    }
    if means_ms[0] <= means_ms[means_ms.len() - 1] {
        pass = false;
        worst = format!(
            "tightest window no worse than unbounded: {:?} ms across depths {:?}",
            means_ms, depths
        );
    }
    ClaimResult {
        id: "C14",
        claim: "per-queue SQ occupancy never exceeds depth; turnaround degrades as depth shrinks",
        pass,
        detail: if pass {
            format!(
                "{} SQs bounded at depths {:?}; mean turnaround {:.3} -> {:.3} ms \
                 (depth 1 vs unbounded, {} stalls at depth 1)",
                queues,
                [1u32, 2, 4],
                means_ms[0],
                means_ms[means_ms.len() - 1],
                stalls_at_tightest,
            )
        } else {
            worst
        },
    }
}

/// C15 — the sharded playback engine is an implementation detail: for
/// every replay mode, `RunConfig::shards(n)` must leave the full report
/// fingerprint bit-identical to the sequential engine. Closed mode, the
/// globally coupled schedulers (gated/NCQ/QoS) and an open run whose map
/// outgrows the CMT all fall back to the sequential engine, so for them
/// the check pins the fallback; the open run over a resident map is the
/// anchor that must engage the worker threads
/// (`RunReport::shard_outcome`).
fn check_shard_identity(opts: &ExpOptions) -> ClaimResult {
    let config = SsdConfig::paper_default().with_capacity_gb(1);
    check_shard_identity_on(opts, config, 1_200)
}

/// The C15 measurement itself, on an arbitrary device configuration (the
/// unit test runs it on a 4-channel [`SsdConfig::micro_gc_test`] to stay
/// cheap).
fn check_shard_identity_on(
    opts: &ExpOptions,
    config: SsdConfig,
    requests_per_tenant: u64,
) -> ClaimResult {
    let geometry = config.geometry();
    let footprint = geometry.user_pages() * geometry.page_size as u64 / 2;
    let mix = host_mix(
        opts.seed,
        geometry.page_size,
        requests_per_tenant,
        footprint,
    );
    let resident = SsdConfig {
        cmt_capacity: geometry.user_pages() as usize,
        ..config.clone()
    };
    // (label, run, on the resident-map device — which must engage).
    let modes: [(&str, fn() -> RunConfig, bool); 6] = [
        ("open", RunConfig::open, false),
        ("gated", RunConfig::gated, false),
        ("closed(8)", || RunConfig::closed(8), false),
        ("ncq(8)", || RunConfig::ncq(8), false),
        (
            "qos(fair-share,8)",
            || RunConfig::qos(QosSpec::fair_share()).queue_depth(8),
            false,
        ),
        ("open, resident map", RunConfig::open, true),
    ];
    let mut pass = true;
    let mut worst = String::new();
    let mut checked = 0u32;
    let mut engaged = 0u32;
    for (name, make, must_engage) in modes {
        let config = if must_engage { &resident } else { &config };
        let mut seq_dev = SsdDevice::new(config.clone(), build_ftl(FtlKind::Dloop, config));
        let seq = report_fingerprint(&seq_dev.run_with(&mix.requests, make()));
        for shards in [2usize, 4] {
            let mut dev = SsdDevice::new(config.clone(), build_ftl(FtlKind::Dloop, config));
            let report = dev.run_with(&mix.requests, make().shards(shards));
            let fp = report_fingerprint(&report);
            checked += 1;
            if fp != seq {
                pass = false;
                worst = format!(
                    "{name} diverged at {shards} shards ({fp:#018x} vs sequential {seq:#018x})"
                );
            }
            if report.shard_outcome == ShardOutcome::Engaged {
                engaged += 1;
            } else if must_engage {
                pass = false;
                worst = format!("{name} at {shards} shards: {:?}", report.shard_outcome);
            }
        }
    }
    ClaimResult {
        id: "C15",
        claim: "sharded playback is bit-identical to the sequential engine in every replay mode",
        pass,
        detail: if pass {
            format!(
                "{checked} sharded runs matched their sequential fingerprint across 5 modes, \
                 {engaged} of them served by the plane-local engine"
            )
        } else {
            worst
        },
    }
}

/// C16 — the power-cap scheduling mode and the energy accounting that
/// feeds it hold together, in three legs:
///
/// * **Budget bound + integer identity.** A capped run's power timeline
///   (`power_csv` over the flight recorder, with every span captured)
///   never exceeds `budget_uw × bucket_ns` femtojoules in any bucket —
///   the admission invariant made visible — and the buckets sum *exactly*
///   (integer equality, no epsilon) to the run report's energy totals:
///   the trace, the busy counters and the CSV are one measurement.
/// * **Throttling is observation-free on energy.** The capped and
///   uncapped runs translate the same chains at arrival, so they do the
///   same flash work and consume *identical* total energy (again integer
///   equality); the cap only stretches time. Mean response time degrades
///   — strictly, as evidence the cap engaged — but gracefully, within a
///   stated factor of the uncapped run.
/// * **Copy-back wins on energy.** For every [`TimingConfig`] the bench
///   experiments replay and every Table-I page size, the intra-plane
///   copy-back costs strictly less energy than the traditional
///   out-of-plane read+program, and eliminates *all* of the bus energy
///   the external copy pays (the time saving is only ~30%; the bus
///   energy saving is total — C1's machinery, sharpened).
fn check_power_cap(opts: &ExpOptions) -> ClaimResult {
    let config = SsdConfig::paper_default()
        .with_capacity_gb(1)
        .with_energy(dloop_nand::EnergyConfig::paper_default());
    check_power_cap_on(opts, config, 2_500, QosSpec::POWER_CAP_BUDGET_UW)
}

/// The C16 measurement itself, on an arbitrary device configuration and
/// budget (the unit test runs it on [`SsdConfig::micro_gc_test`] with a
/// tighter budget to stay cheap while still throttling).
fn check_power_cap_on(
    opts: &ExpOptions,
    config: SsdConfig,
    max_requests: u64,
    budget_uw: u64,
) -> ClaimResult {
    let energy = config.energy.expect("C16 needs energy accounting enabled");
    let trace = write_burst(opts, &config, max_requests);
    let run_budget = |budget: u64, with_sink: bool| {
        let mut device = SsdDevice::new(config.clone(), build_ftl(FtlKind::Dloop, &config));
        if with_sink {
            device.attach_sink(Box::new(RingSink::new(1 << 20)));
        }
        let report = device.run_with(
            &trace.requests,
            RunConfig::qos(QosSpec::PowerCap { budget_uw: budget })
                .queue_depth(dloop_ftl_kit::DEFAULT_NCQ_DEPTH),
        );
        let rec = with_sink.then(|| device.take_trace().expect("ring sink was attached"));
        (report, rec)
    };

    let mut pass = true;
    let mut worst = String::new();

    // Leg 1: per-bucket budget bound and the integer identity between
    // the power timeline and the report's energy totals.
    let (capped, rec) = run_budget(budget_uw, true);
    let rec = rec.unwrap();
    if rec.dropped() > 0 {
        pass = false;
        worst = format!(
            "recorder dropped {} spans; identity unverifiable",
            rec.dropped()
        );
    }
    let totals = capped
        .energy
        .expect("energy-enabled run must report totals");
    let buckets = 24usize;
    let (csv_sum, over) = power_buckets_over_budget(&rec, &config, buckets, budget_uw);
    if let Some(bucket) = over {
        pass = false;
        worst = bucket;
    }
    if csv_sum != totals.total_fj() {
        pass = false;
        worst = format!(
            "power timeline sums to {csv_sum} fJ but the report says {} fJ",
            totals.total_fj()
        );
    }

    // Leg 2: energy invariance under the cap, graceful degradation.
    const AMPLE_BUDGET_UW: u64 = 100_000_000_000; // 100 kW: admits everything
    let (uncapped, _) = run_budget(AMPLE_BUDGET_UW, false);
    let free = uncapped
        .energy
        .expect("energy-enabled run must report totals");
    if capped.pages_written != uncapped.pages_written || capped.pages_read != uncapped.pages_read {
        pass = false;
        worst = "capped run did different flash work than uncapped".into();
    }
    if totals != free {
        pass = false;
        worst = format!(
            "cap changed total energy: {} fJ capped vs {} fJ uncapped",
            totals.total_fj(),
            free.total_fj()
        );
    }
    let (c_mrt, u_mrt) = (
        capped.mean_response_time_ms(),
        uncapped.mean_response_time_ms(),
    );
    if c_mrt <= u_mrt {
        pass = false;
        worst = format!("cap never throttled: capped MRT {c_mrt:.4} ms <= uncapped {u_mrt:.4} ms");
    }
    // Graceful means *bounded by the concurrency the cap removed*, not a
    // bound on mean response time: under a saturating burst the capped
    // queue backlogs linearly and MRT grows with trace length, but the
    // makespan — the work-conserving cap always runs at least one op —
    // can stretch at most by the parallelism the budget withdrew. A
    // generous fixed factor over that witness catches a cap that
    // deadlocks or forgets releases (makespan would blow up unboundedly).
    const MAKESPAN_FACTOR: f64 = 12.0;
    let ratio = capped.sim_end.as_nanos() as f64 / uncapped.sim_end.as_nanos().max(1) as f64;
    if ratio > MAKESPAN_FACTOR {
        pass = false;
        worst = format!(
            "degradation not graceful: capped makespan {:.3}x uncapped (limit {MAKESPAN_FACTOR}x)",
            ratio
        );
    }

    // Leg 3: copy-back's energy advantage, for every timing model the
    // bench experiments replay and every Table-I page size.
    let timings = [
        ("paper_default", TimingConfig::paper_default()),
        ("paper_fixed_transfer", TimingConfig::paper_fixed_transfer()),
    ];
    for (name, t) in &timings {
        for page in [2048u32, 4096, 8192, 16384] {
            let cb = energy.copyback_fj(t);
            let inter = energy.interplane_copy_fj(t, page);
            if cb >= inter {
                pass = false;
                worst = format!("{name}@{page}B: copy-back {cb} fJ >= inter-plane {inter} fJ");
            }
            if energy.interplane_bus_fj(t, page) == 0 {
                pass = false;
                worst = format!("{name}@{page}B: external copy reports no bus energy to save");
            }
        }
    }

    ClaimResult {
        id: "C16",
        claim: "power cap bounds every timeline bucket; energy is cap-invariant; copy-back wins on energy",
        pass,
        detail: if pass {
            format!(
                "{} buckets <= {budget_uw} uW, timeline == report at {} fJ; \
                 capped MRT {c_mrt:.4} ms vs uncapped {u_mrt:.4} ms, makespan {ratio:.2}x \
                 at equal energy; copy-back < inter-plane for {} timing models x 4 page sizes",
                buckets,
                totals.total_fj(),
                timings.len(),
            )
        } else {
            worst
        },
    }
}

/// C16's per-bucket budget check on one recorded run: render the run's
/// power timeline (`power_csv`) in `buckets` windows and hold every
/// bucket against the ceiling `budget_uw × bucket_ns`. Returns the
/// timeline's femtojoule sum and the last bucket over its ceiling, if
/// any.
fn power_buckets_over_budget(
    rec: &RingSink,
    config: &SsdConfig,
    buckets: usize,
    budget_uw: u64,
) -> (u64, Option<String>) {
    let energy = config.energy.expect("C16 needs energy accounting enabled");
    let geometry = config.geometry();
    let csv = dloop_simkit::trace::power_csv(
        rec,
        geometry.total_planes() as usize,
        geometry.channels as usize,
        buckets,
        energy.array_active_uw,
        energy.bus_active_uw,
    );
    // Reconstruct the grid the CSV used: fixed-width windows, the last
    // stretched to the final busy nanosecond.
    let end_ns = rec
        .spans()
        .flat_map(|s| s.segments())
        .map(|seg| seg.end.as_nanos())
        .max()
        .unwrap_or(0);
    let width = (end_ns / buckets as u64).max(1);
    let mut csv_sum = 0u64;
    let mut over = None;
    for (i, line) in csv.lines().skip(1).enumerate() {
        let total_fj: u64 = line
            .rsplit(',')
            .next()
            .and_then(|v| v.parse().ok())
            .expect("power_csv rows end in an integer total");
        csv_sum = csv_sum.checked_add(total_fj).expect("bucket sum overflow");
        let span_ns = if i + 1 == buckets {
            end_ns.saturating_sub(i as u64 * width).max(width)
        } else {
            width
        };
        // µW × ns is exactly fJ — the same fixed-point identity the
        // accounting uses.
        let ceiling = budget_uw
            .checked_mul(span_ns)
            .expect("budget ceiling overflow");
        if total_fj > ceiling {
            over = Some(format!(
                "bucket {i}: {total_fj} fJ exceeds budget ceiling {ceiling} fJ \
                 ({budget_uw} uW x {span_ns} ns)"
            ));
        }
    }
    (csv_sum, over)
}

/// Render the claim results as a table.
pub fn to_table(results: &[ClaimResult]) -> Table {
    let mut table = Table::new(
        "Reproduction claims audit",
        &["id", "status", "claim", "evidence"],
    );
    for r in results {
        table.row(vec![
            r.id.to_string(),
            if r.pass { "PASS".into() } else { "FAIL".into() },
            r.claim.to_string(),
            r.detail.clone(),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn claim_table_renders_status() {
        let results = vec![
            ClaimResult {
                id: "CX",
                claim: "test claim",
                pass: true,
                detail: "fine".into(),
            },
            ClaimResult {
                id: "CY",
                claim: "other claim",
                pass: false,
                detail: "broken".into(),
            },
        ];
        let t = to_table(&results);
        let s = t.render();
        assert!(s.contains("PASS"));
        assert!(s.contains("FAIL"));
        assert!(s.contains("broken"));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn c1_is_cheap_and_passes() {
        // The timing-arithmetic claim needs no simulation.
        let t = dloop_nand::TimingConfig::paper_default();
        let saving = t.copyback_saving(2048);
        assert!((0.28..=0.34).contains(&saving));
    }

    #[test]
    fn c10_gc_blocked_share_shrinks_under_background_gc() {
        // The micro-GC device keeps the two aged runs test-budget cheap
        // while still exercising the full sync-vs-background comparison.
        let opts = ExpOptions::default();
        let config = dloop_ftl_kit::config::SsdConfig::micro_gc_test();
        let r = check_gc_blocked_share_on(&opts, config, 2_000);
        assert!(r.pass, "C10 failed: {}", r.detail);
    }

    #[test]
    fn c11_ncq_no_worse_than_gated() {
        // The same micro device keeps the gated-vs-NCQ comparison cheap;
        // the write-heavy burst makes ops queue, so the reorder window
        // actually engages.
        let opts = ExpOptions::default();
        let config = dloop_ftl_kit::config::SsdConfig::micro_gc_test();
        let r = check_ncq_vs_gated_on(&opts, config, 2_000);
        assert!(r.pass, "C11 failed: {}", r.detail);
    }

    #[test]
    fn c12_qos_policies_stay_between_the_bounds() {
        // The micro device keeps seven replays of the three-tenant mix
        // cheap while the contention still queues the reorder window.
        let opts = ExpOptions::default();
        let config = dloop_ftl_kit::config::SsdConfig::micro_gc_test();
        let r = check_qos_bounds_on(&opts, config, 700);
        assert!(r.pass, "C12 failed: {}", r.detail);
    }

    #[test]
    fn c13_host_stack_passthrough_and_tiling() {
        // The micro device keeps the six pass-through replays plus the
        // two buffered runs cheap; the host mix still engages the cache
        // (tenant 1's hot set) and the batching queues.
        let opts = ExpOptions::default();
        let config = dloop_ftl_kit::config::SsdConfig::micro_gc_test();
        let r = check_host_stack_on(&opts, config, 400);
        assert!(r.pass, "C13 failed: {}", r.detail);
    }

    #[test]
    fn c15_sharded_playback_matches_sequential() {
        // Four channels give the resident-map anchor real worker threads;
        // the micro device keeps the eighteen replays cheap.
        let opts = ExpOptions::default();
        let config = dloop_ftl_kit::config::SsdConfig {
            channels: 4,
            ..dloop_ftl_kit::config::SsdConfig::micro_gc_test()
        };
        let r = check_shard_identity_on(&opts, config, 400);
        assert!(r.pass, "C15 failed: {}", r.detail);
    }

    #[test]
    fn c16_power_cap_bounds_buckets_and_energy_is_invariant() {
        // The micro device keeps the two queued replays cheap; a tight
        // 100 mW budget (one 82.5 mW op fits, two do not) guarantees the
        // cap actually serialises admissions, so the MRT evidence and
        // the bucket ceiling are both exercised.
        let opts = ExpOptions::default();
        let config = dloop_ftl_kit::config::SsdConfig::micro_gc_test()
            .with_energy(dloop_nand::EnergyConfig::paper_default());
        let r = check_power_cap_on(&opts, config, 800, 100_000);
        assert!(r.pass, "C16 failed: {}", r.detail);
    }

    #[test]
    fn c16_bucket_check_fails_on_an_uncapped_replay() {
        // The same burst as the C16 test, replayed through a plain NCQ
        // window: nothing throttles admissions.
        let opts = ExpOptions::default();
        let config = dloop_ftl_kit::config::SsdConfig::micro_gc_test()
            .with_energy(dloop_nand::EnergyConfig::paper_default());
        let trace = write_burst(&opts, &config, 800);
        let mut device = SsdDevice::new(config.clone(), build_ftl(FtlKind::Dloop, &config));
        device.attach_sink(Box::new(RingSink::new(1 << 20)));
        let report = device.run_with(
            &trace.requests,
            RunConfig::ncq(dloop_ftl_kit::DEFAULT_NCQ_DEPTH),
        );
        let rec = device.take_trace().expect("ring sink was attached");
        assert_eq!(rec.dropped(), 0);
        let total_fj = report.energy.expect("energy totals").total_fj();
        // Some bucket draws at least the run's mean power, so a budget
        // below the mean is below the hottest bucket.
        let mean_uw = total_fj / report.sim_end.as_nanos();
        let (sum_fj, over) = power_buckets_over_budget(&rec, &config, 24, mean_uw - 1);
        assert_eq!(sum_fj, total_fj);
        let over = over.expect("an uncapped replay must break a budget below its mean draw");
        assert!(over.contains("exceeds budget ceiling"), "{over}");
        // Every plane and every channel busy at once is the most the
        // device can draw: no bucket can break that ceiling.
        let geometry = config.geometry();
        let energy = config.energy.unwrap();
        let all_busy_uw = geometry.total_planes() as u64 * energy.array_active_uw
            + geometry.channels as u64 * energy.bus_active_uw;
        assert_eq!(
            power_buckets_over_budget(&rec, &config, 24, all_busy_uw).1,
            None
        );
    }

    /// Energy accounting is observation, never perturbation: the same
    /// trace replayed with and without an [`EnergyConfig`] produces the
    /// same timings, the same completion log, and a metrics CSV row that
    /// differs *only* in the two appended energy columns — stripping the
    /// totals makes the full report fingerprints bit-identical.
    #[test]
    fn disabling_energy_leaves_the_run_bit_identical() {
        use dloop_nand::EnergyConfig;
        let opts = ExpOptions::default();
        let plain = SsdConfig::micro_gc_test();
        let powered = plain.clone().with_energy(EnergyConfig::paper_default());
        let geometry = plain.geometry();
        let profile = opts.scaled_profile(WorkloadProfile::financial1());
        let trace = profile.generate_scaled(opts.seed, geometry.page_size, 600);

        let run = |config: &SsdConfig| {
            let mut device = SsdDevice::new(config.clone(), build_ftl(FtlKind::Dloop, config));
            device.run_with(&trace.requests, RunConfig::open())
        };
        let dark = run(&plain);
        let mut lit = run(&powered);
        assert!(dark.energy.is_none());
        assert!(
            lit.energy
                .expect("energy-enabled run reports totals")
                .total_fj()
                > 0
        );

        let (dark_row, lit_row) = (dark.csv_row(), lit.csv_row());
        let dark_cols: Vec<&str> = dark_row.split(',').collect();
        let lit_cols: Vec<&str> = lit_row.split(',').collect();
        assert_eq!(dark_cols.len(), lit_cols.len());
        let energy_cols = dark_cols.len() - 2;
        assert_eq!(dark_cols[..energy_cols], lit_cols[..energy_cols]);
        assert_eq!(&dark_cols[energy_cols..], &["0", "0"]);
        assert_ne!(&lit_cols[energy_cols..], &["0", "0"]);

        assert_eq!(dark.completions, lit.completions);
        assert_eq!(dark.queue_depth_csv(64), lit.queue_depth_csv(64));
        lit.energy = None;
        assert_eq!(
            dloop_host::report_fingerprint(&dark),
            dloop_host::report_fingerprint(&lit),
            "with totals stripped, the reports must be bit-identical"
        );
    }

    #[test]
    fn c14_sq_windows_hold_and_turnaround_degrades() {
        // The micro device keeps the four depth sweeps cheap; the
        // write-heavy mix queues hard enough at depth 1 that the SQ
        // windows actually backpressure.
        let opts = ExpOptions::default();
        let config = dloop_ftl_kit::config::SsdConfig::micro_gc_test();
        let r = check_sq_windows_on(&opts, config, 400);
        assert!(r.pass, "C14 failed: {}", r.detail);
    }
}
