//! Automated verification of the paper's qualitative claims.
//!
//! The reproduction's acceptance criterion is *shape*, not absolute
//! milliseconds: who wins, in which direction trends move, where the
//! paper's stated special cases appear. C2–C9 are pure predicates over
//! cells: C2–C6 and C8 read Fig. 8's 4 GB and 64 GB cells, C7 two of
//! Fig. 10's, C9 two of its own, all through the options' cell store, so
//! `dloop-experiments fig8 fig10 verify` runs each cell once and the
//! audit checks the numbers the figures print.

use crate::experiments::sweep::{paper_grid, spec_for};
use crate::experiments::{fig10, fig8, headline};
use crate::runner::{build_ftl, RunSpec};
use crate::table::Table;
use dloop_ftl_kit::config::{FtlKind, SsdConfig};
use dloop_ftl_kit::device::{ReplayMode, RunConfig, SsdDevice};
use dloop_ftl_kit::metrics::{RunReport, ShardOutcome};
use dloop_ftl_kit::request::TenantId;
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

/// Column of each FTL in a `[DLOOP, DFTL, FAST]` row.
const D: usize = 0;
const T: usize = 1;
const F: usize = 2;

/// One trace's Fig. 8 cells as C2–C6 and C8 read them: `[4 GB, 64 GB]` ×
/// `[DLOOP, DFTL, FAST]`.
struct TraceCells {
    name: &'static str,
    write_pct: f64,
    mrt: [[f64; 3]; 2],
    sdrpp: [[f64; 3]; 2],
}

/// Fig. 8's 4 GB and 64 GB cells, per trace.
fn capacity_cells(opts: &ExpOptions) -> Vec<TraceCells> {
    let grid = paper_grid(opts, &[fig8::point(opts, 4), fig8::point(opts, 64)]);
    grid.into_iter()
        .map(|(p, row)| TraceCells {
            name: p.name,
            write_pct: p.write_ratio * 100.0,
            mrt: [0, 1].map(|ci| row[ci].map(|c| c.mrt_ms)),
            sdrpp: [0, 1].map(|ci| row[ci].map(|c| c.ln_sdrpp)),
        })
        .collect()
}

/// Run every claim check. Returns the individual results.
pub fn verify(opts: &ExpOptions) -> Vec<ClaimResult> {
    // C1 — §III.A: copy-back saves ~30% over an inter-plane copy at 2 KB.
    let saving = TimingConfig::paper_default().copyback_saving(2048);
    let c1 = ClaimResult {
        id: "C1",
        claim: "copy-back saves ~30% over inter-plane copy at 2KB (SIII.A)",
        pass: (0.28..=0.34).contains(&saving),
        detail: format!("measured {:.1}%", saving * 100.0),
    };

    let grid = capacity_cells(opts);
    let tpcc = opts.scaled_profile(WorkloadProfile::tpcc());
    let fast = |pct| spec_for(opts, &fig10::point(opts, pct), FtlKind::Fast, &tpcc);
    let fast = opts.cells.get(&[fast(3.0), fast(10.0)], opts.workers);
    // C9: DLOOP on a sequential write burst, 8 GB with 1 and 8 planes per die.
    let mut seq = opts.scaled_profile(WorkloadProfile::build());
    seq.write_ratio = 0.9;
    seq.seq_prob = 0.9;
    seq.rate_per_sec = 2000.0;
    let striping = [1u32, 8].map(|ppd| RunSpec {
        config: SsdConfig {
            planes_per_die: ppd,
            ..fig8::point(opts, 8)
        },
        kind: FtlKind::Dloop,
        profile: seq.clone(),
        max_requests: 40_000,
        seed: opts.seed,
        fill_fraction: 0.0,
    });
    let striping = opts.cells.get(&striping, opts.workers);

    vec![
        c1,
        c2(&grid),
        c3(&grid),
        c4(&grid),
        c5(&grid),
        c6(&grid),
        c7(fast[0].mrt_ms, fast[1].mrt_ms),
        c8(&grid),
        c9(striping[0].mrt_ms, striping[1].mrt_ms),
        check_gc_blocked_share(opts),
        check_ncq_vs_gated(opts),
        check_qos_bounds(opts),
        check_host_stack(opts),
        check_sq_windows(opts),
        check_shard_identity(opts),
        check_power_cap(opts),
    ]
}

/// C2 — Fig. 8: DLOOP <= DFTL on every trace at every capacity.
fn c2(grid: &[TraceCells]) -> ClaimResult {
    let mut worst = (1.0f64, String::new());
    for tc in grid {
        for (row, cap) in tc.mrt.iter().zip([4, 64]) {
            let ratio = row[D] / row[T];
            if ratio > worst.0 {
                worst = (ratio, format!("{} @{}GB: {:.2}x", tc.name, cap, ratio));
            }
        }
    }
    ClaimResult {
        id: "C2",
        claim: "DLOOP beats DFTL on every trace and capacity (Fig. 8)",
        pass: worst.0 <= 1.0,
        detail: if worst.1.is_empty() {
            "DLOOP <= DFTL everywhere".into()
        } else {
            format!("worst case {}", worst.1)
        },
    }
}

/// C3 — Fig. 8: DLOOP beats FAST on the write-dominant traces. The
/// evidence names exactly the traces checked.
fn c3(grid: &[TraceCells]) -> ClaimResult {
    let mut checked = Vec::new();
    let mut failure = None;
    // The paper's own FAST edge cases are read-dominant.
    for tc in grid.iter().filter(|tc| tc.write_pct >= 50.0) {
        checked.push(tc.name);
        for row in &tc.mrt {
            if row[D] > row[F] {
                failure = Some(format!(
                    "{}: DLOOP {:.3} > FAST {:.3}",
                    tc.name, row[D], row[F]
                ));
            }
        }
    }
    ClaimResult {
        id: "C3",
        claim: "DLOOP beats FAST on write-dominant traces (Fig. 8)",
        pass: failure.is_none(),
        detail: failure.unwrap_or_else(|| format!("holds on {}", checked.join("/"))),
    }
}

/// C4 — Fig. 8: DLOOP's MRT does not grow with capacity.
fn c4(grid: &[TraceCells]) -> ClaimResult {
    let mut failure = None;
    for tc in grid {
        let [small, large] = tc.mrt.map(|row| row[D]);
        if large > small * 1.05 {
            failure = Some(format!(
                "{}: 64GB {large:.3} ms > 4GB {small:.3} ms",
                tc.name
            ));
        }
    }
    ClaimResult {
        id: "C4",
        claim: "larger SSDs delay GC: MRT non-increasing with capacity (Fig. 8)",
        pass: failure.is_none(),
        detail: failure.unwrap_or_else(|| "holds for all five traces".into()),
    }
}

/// C5 — §V.B: the smallest DLOOP-vs-DFTL gap is on read-dominant
/// Financial2.
fn c5(grid: &[TraceCells]) -> ClaimResult {
    // Average relative improvement across the two capacities.
    let gap = |tc: &TraceCells| tc.mrt.iter().map(|m| (m[T] - m[D]) / m[T]).sum::<f64>() / 2.0;
    let (f2, others): (Vec<_>, Vec<_>) = grid.iter().partition(|tc| tc.name == "Financial2");
    let f2_gap = gap(f2.first().expect("Financial2 is a paper trace"));
    let min_other = others.into_iter().map(gap).fold(f64::INFINITY, f64::min);
    ClaimResult {
        id: "C5",
        claim: "read-dominant Financial2 shows the smallest DLOOP-vs-DFTL gap (SV.B)",
        pass: f2_gap <= min_other,
        detail: format!(
            "F2 gap {:.1}% vs next smallest {:.1}%",
            f2_gap * 100.0,
            min_other * 100.0
        ),
    }
}

/// C6 — Figs. 8-10: DLOOP has the lowest ln(SDRPP) everywhere.
fn c6(grid: &[TraceCells]) -> ClaimResult {
    let mut failure = None;
    for tc in grid {
        for row in &tc.sdrpp {
            if row[D] > row[T] + 1e-9 || row[D] > row[F] + 1e-9 {
                failure = Some(format!(
                    "{}: DLOOP {:.2} vs DFTL {:.2} / FAST {:.2}",
                    tc.name, row[D], row[T], row[F]
                ));
            }
        }
    }
    ClaimResult {
        id: "C6",
        claim: "DLOOP spreads requests most evenly: lowest ln(SDRPP) (Figs. 8-10)",
        pass: failure.is_none(),
        detail: failure.unwrap_or_else(|| "lowest on every trace and capacity".into()),
    }
}

/// C7 — Fig. 10: FAST improves as extra blocks grow (bigger log region),
/// from its TPC-C MRTs at 3 % and 10 %.
fn c7(fast3: f64, fast10: f64) -> ClaimResult {
    ClaimResult {
        id: "C7",
        claim: "FAST improves with more extra blocks / bigger log region (Fig. 10)",
        pass: fast10 <= fast3,
        detail: format!("TPC-C: 3% -> {fast3:.3} ms, 10% -> {fast10:.3} ms"),
    }
}

/// C8 — §I/§V.B headline: large average improvements. The 4 GB device is
/// the GC-stressed point (the paper quotes ~70%/~90% there); the figures
/// are `headline_1.csv`'s AVERAGE row.
fn c8(grid: &[TraceCells]) -> ClaimResult {
    let at_4gb: Vec<[f64; 3]> = grid.iter().map(|tc| tc.mrt[0]).collect();
    let vs_dftl = headline::average_improvement(&at_4gb, T);
    let vs_fast = headline::average_improvement(&at_4gb, F);
    ClaimResult {
        id: "C8",
        claim:
            "large average MRT improvement at the GC-stressed capacity (paper: ~70%/~90% at 4GB)",
        pass: vs_dftl > 20.0 && vs_fast > 50.0,
        detail: format!("measured {vs_dftl:.1}% vs DFTL, {vs_fast:.1}% vs FAST at 4GB"),
    }
}

/// C9 — §II.C motivation: striping across planes raises throughput, from
/// the MRTs with 1 and 8 planes per die.
fn c9(one: f64, eight: f64) -> ClaimResult {
    ClaimResult {
        id: "C9",
        claim: "plane striping raises sequential throughput substantially (SII.C)",
        pass: one / eight > 4.0,
        detail: format!(
            "1 plane/die {one:.2} ms vs 8 planes/die {eight:.2} ms ({:.0}x)",
            one / eight
        ),
    }
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
///   plain NCQ at depth 1 is the canonical spelling of "same queue,
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
    let run_mode = |run: RunConfig| {
        let mut device = SsdDevice::new(config.clone(), build_ftl(FtlKind::Dloop, &config));
        device.run_with(&trace.requests, run)
    };
    let gated = run_mode(RunConfig::gated());
    let ncq = run_mode(RunConfig::ncq(dloop_ftl_kit::DEFAULT_NCQ_DEPTH));
    let in_order = run_mode(RunConfig::ncq(1));
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

/// One replay of C12's mix, as C12 reads it.
struct QosCell {
    /// The policy, or the bound, that ran.
    name: &'static str,
    /// Pages written and read: identical flash work is what makes the
    /// turnaround comparison meaningful.
    pages: (u64, u64),
    /// Mean turnaround per tenant in ms, in the naive run's tenant order.
    tenant_ms: Vec<(TenantId, f64)>,
    /// Mean turnaround over every tenant's operations, in ms.
    mean_ms: f64,
}

/// C12 — QoS-policy sanity over the NCQ window, the C11 pattern applied
/// per tenant: every shipped ranking policy ([`QosSpec::all`], NCQ and
/// window-FIFO) works *within* the same bounded reorder window, so on the
/// canonical three-tenant contention mix each one's per-tenant mean
/// turnaround must stay pinned between two baselines:
///
/// * **Naive in-order bound** (plain NCQ at depth 1): no policy may
///   leave any tenant worse than the queue that never reorders at all.
///   A small factor absorbs per-tenant measurement noise.
/// * **Oracle bound** (`Gated`): the unbounded skip-ahead window no
///   finite policy can beat; aggregate turnaround must track it within a
///   stated factor (2x).
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
    let run = |run: RunConfig| {
        let mut device = SsdDevice::new(config.clone(), build_ftl(FtlKind::Dloop, &config));
        device.run_with(&mix.requests, run)
    };
    let naive = run(RunConfig::ncq(1));
    let tenants = naive.queue_log.tenants();
    let cell = |name, report: &RunReport| QosCell {
        name,
        pages: (report.pages_written, report.pages_read),
        tenant_ms: tenants
            .iter()
            .map(|&t| (t, report.queue_log.tenant_mean_turnaround_ms(t)))
            .collect(),
        mean_ms: report.queue_log.mean_turnaround_ms(),
    };
    let policies: Vec<QosCell> = QosSpec::all()
        .iter()
        .map(|spec| cell(spec.name(), &run(RunConfig::qos(*spec))))
        .collect();
    c12(
        &cell("in-order", &naive),
        &cell("gated", &run(RunConfig::gated())),
        &policies,
    )
}

/// C12's verdict over the naive bound, the oracle bound and the policies.
fn c12(naive: &QosCell, oracle: &QosCell, policies: &[QosCell]) -> ClaimResult {
    // Per-tenant slowdown tolerance vs the in-order queue, and aggregate
    // tracking factor vs the unbounded oracle window. Measured worst
    // cases on the micro and 1 GB configs sit well inside these.
    const NAIVE_FACTOR: f64 = 1.10;
    const ORACLE_FACTOR: f64 = 2.00;
    let mut pass = true;
    let mut worst = String::new();
    let (mut worst_tenant, mut worst_mean) = (0.0f64, 0.0f64);
    for p in policies {
        if p.pages != naive.pages {
            pass = false;
            worst = format!("{}: flash work diverged from the baselines", p.name);
            continue;
        }
        for (&(_, mrt), &(t, bound)) in p.tenant_ms.iter().zip(&naive.tenant_ms) {
            if bound > 0.0 {
                worst_tenant = worst_tenant.max(mrt / bound);
            }
            if bound > 0.0 && mrt > bound * NAIVE_FACTOR {
                pass = false;
                worst = format!(
                    "{} tenant {t}: {mrt:.4} ms > in-order {bound:.4} ms x{NAIVE_FACTOR}",
                    p.name
                );
            }
        }
        if oracle.mean_ms > 0.0 {
            worst_mean = worst_mean.max(p.mean_ms / oracle.mean_ms);
        }
        if oracle.mean_ms > 0.0 && p.mean_ms > oracle.mean_ms * ORACLE_FACTOR {
            pass = false;
            worst = format!(
                "{}: aggregate {:.4} ms > oracle {:.4} ms x{ORACLE_FACTOR}",
                p.name, p.mean_ms, oracle.mean_ms
            );
        }
    }
    ClaimResult {
        id: "C12",
        claim: "NCQ and window-FIFO stay between the in-order and oracle bounds per tenant",
        pass: pass && !naive.tenant_ms.is_empty(),
        detail: if pass {
            format!(
                "{} tenants x {} policies within bounds (naive x{NAIVE_FACTOR}, oracle \
                 x{ORACLE_FACTOR}); worst tenant {worst_tenant:.2}x in-order, worst \
                 aggregate {worst_mean:.2}x oracle",
                naive.tenant_ms.len(),
                policies.len(),
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
        ReplayMode::Qos {
            queue_depth: dloop_ftl_kit::DEFAULT_NCQ_DEPTH,
            policy: QosSpec::Ncq,
        },
        ReplayMode::Qos {
            queue_depth: dloop_ftl_kit::DEFAULT_NCQ_DEPTH,
            policy: QosSpec::WindowFifo,
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
            "qos(window-fifo,8)",
            || RunConfig::qos(QosSpec::WindowFifo).queue_depth(8),
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

    /// Fig. 8's committed 4 GB and 64 GB cells (`fig8_capacity_{0,1}.csv`
    /// at default flags), as C2–C6 and C8 read them.
    fn fig8_cells() -> Vec<TraceCells> {
        let tc = |name, write_pct, mrt, sdrpp| TraceCells {
            name,
            write_pct,
            mrt,
            sdrpp,
        };
        vec![
            tc(
                "Financial1",
                76.8,
                [[0.8683, 1.2884, 90.7433], [0.3949, 0.5064, 2.0487]],
                [[8.81, 12.28, 11.62], [8.84, 12.07, 11.73]],
            ),
            tc(
                "Financial2",
                17.7,
                [[0.1830, 0.1960, 2.8070], [0.1827, 0.1963, 0.1691]],
                [[7.90, 10.58, 9.65], [7.91, 11.87, 9.70]],
            ),
            tc(
                "TPC-C",
                65.0,
                [[0.5360, 0.9959, 105759.2936], [0.5329, 1.0194, 61.3967]],
                [[5.72, 9.93, 7.85], [5.79, 11.31, 8.67]],
            ),
            tc(
                "Exchange",
                62.6,
                [[1.4850, 7.6838, 275866.9544], [0.6698, 1.9413, 4416.4906]],
                [[7.94, 10.98, 9.65], [7.95, 11.84, 9.81]],
            ),
            tc(
                "Build",
                31.4,
                [[5.5708, 8.0667, 95129.6749], [0.9991, 2.5246, 89.4950]],
                [[7.89, 11.74, 9.11], [7.87, 12.19, 9.51]],
            ),
        ]
    }

    /// Each predicate passes on the committed cells and fails on one
    /// perturbation of them, so no claim is a gate that cannot fail.
    fn assert_control(claim: fn(&[TraceCells]) -> ClaimResult, perturb: fn(&mut [TraceCells])) {
        let mut cells = fig8_cells();
        let held = claim(&cells);
        assert!(
            held.pass,
            "{} fails on the committed cells: {}",
            held.id, held.detail
        );
        perturb(&mut cells);
        let broken = claim(&cells);
        assert!(
            !broken.pass,
            "{} passes a perturbed table: {}",
            broken.id, broken.detail
        );
    }

    #[test]
    fn c2_fails_with_the_dloop_and_dftl_columns_swapped() {
        assert_control(c2, |cells| {
            for row in cells.iter_mut().flat_map(|tc| &mut tc.mrt) {
                row.swap(D, T);
            }
        });
        assert_eq!(c2(&fig8_cells()).detail, "DLOOP <= DFTL everywhere");
    }

    #[test]
    fn c3_names_the_traces_it_checks_and_fails_with_fast_ahead() {
        assert_control(c3, |cells| cells[0].mrt[0][F] = cells[0].mrt[0][D] / 2.0);
        // Build (31.4 % writes) and Financial2 are read-dominant: skipped.
        assert_eq!(
            c3(&fig8_cells()).detail,
            "holds on Financial1/TPC-C/Exchange"
        );
    }

    #[test]
    fn c4_fails_when_64gb_is_ten_percent_slower() {
        assert_control(c4, |cells| cells[2].mrt[1][D] = cells[2].mrt[0][D] * 1.10);
    }

    #[test]
    fn c5_fails_when_financial2_has_the_largest_gap() {
        assert_control(c5, |cells| {
            for row in &mut cells[1].mrt {
                row[T] = row[D] * 10.0;
            }
        });
        let detail = c5(&fig8_cells()).detail;
        assert_eq!(detail, "F2 gap 6.8% vs next smallest 27.3%");
    }

    #[test]
    fn c6_fails_with_the_unspread_ablation_sdrpp_in_dloops_column() {
        // 10.50 is the ablation's `DLOOP -spread` ln(SDRPP) on Financial1.
        assert_control(c6, |cells| {
            for row in cells.iter_mut().flat_map(|tc| &mut tc.sdrpp) {
                row[D] = 10.50;
            }
        });
    }

    #[test]
    fn c7_fails_with_the_extra_block_cells_swapped() {
        // Fig. 10's committed TPC-C x FAST cells at 3 % and 10 %.
        let (fast3, fast10) = (23282.1363, 34.4580);
        assert!(c7(fast3, fast10).pass);
        assert!(!c7(fast10, fast3).pass);
        assert_eq!(
            c7(fast3, fast10).detail,
            "TPC-C: 3% -> 23282.136 ms, 10% -> 34.458 ms"
        );
    }

    #[test]
    fn c8_fails_with_every_improvement_zero_and_reads_the_headline_average() {
        assert_control(c8, |cells| {
            for row in cells.iter_mut().flat_map(|tc| &mut tc.mrt) {
                *row = [row[D]; 3];
            }
        });
        // headline_1.csv's AVERAGE row: 39.40 / 98.50.
        let detail = c8(&fig8_cells()).detail;
        assert_eq!(detail, "measured 39.4% vs DFTL, 98.5% vs FAST at 4GB");
    }

    #[test]
    fn c9_fails_when_one_plane_is_as_fast_as_eight() {
        // `claims_0.csv`'s C9 evidence: 1056.47 ms vs 21.82 ms.
        assert!(c9(1056.47, 21.82).pass);
        assert!(!c9(21.82, 21.82).pass);
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
        // The micro device keeps four replays of the three-tenant mix
        // cheap while the contention still queues the reorder window.
        let opts = ExpOptions::default();
        let config = dloop_ftl_kit::config::SsdConfig::micro_gc_test();
        let r = check_qos_bounds_on(&opts, config, 700);
        assert!(r.pass, "C12 failed: {}", r.detail);
    }

    /// C12's cells at default flags (1 GB device, 4 000 requests per
    /// tenant): the in-order bound, the gated oracle, then window-FIFO and
    /// NCQ.
    fn qos_cells() -> [QosCell; 4] {
        let cell = |name, tenant_ms: [f64; 3], mean_ms| QosCell {
            name,
            pages: (24204, 45155),
            tenant_ms: vec![(1, tenant_ms[0]), (2, tenant_ms[1]), (3, tenant_ms[2])],
            mean_ms,
        };
        [
            cell("in-order", [1.0349, 1.3799, 6.3313], 5.2853),
            cell("gated", [0.1990, 0.4936, 1.0421], 0.9028),
            cell("window-fifo", [0.2602, 0.5497, 1.4049], 1.2032),
            cell("ncq", [0.2616, 0.5568, 1.4679], 1.2542),
        ]
    }

    #[test]
    fn c12_fails_when_one_tenant_is_slower_than_in_order_x1_10() {
        let [naive, oracle, fifo, ncq] = qos_cells();
        let mut policies = [fifo, ncq];
        let held = c12(&naive, &oracle, &policies);
        assert!(
            held.pass,
            "C12 fails on its committed cells: {}",
            held.detail
        );
        // `claims_0.csv`'s C12 evidence.
        assert_eq!(
            held.detail,
            "3 tenants x 2 policies within bounds (naive x1.1, oracle x2); worst tenant 0.40x \
             in-order, worst aggregate 1.39x oracle"
        );
        policies[1].tenant_ms[2].1 = naive.tenant_ms[2].1 * 1.11;
        let broken = c12(&naive, &oracle, &policies);
        assert!(
            !broken.pass,
            "C12 passes a slowed tenant: {}",
            broken.detail
        );
        assert!(
            broken.detail.starts_with("ncq tenant 3:"),
            "{}",
            broken.detail
        );
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
