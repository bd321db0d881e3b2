//! Parallel channel-group replay engine behind [`RunConfig::shards`].
//!
//! The sequential arrival-reserving loop ([`SsdDevice::run_reserving`])
//! interleaves three kinds of work per page operation: FTL *translation*
//! (flash/directory state effects), timeline *playback* (booking the
//! chain's steps on plane/channel/die availabilities), and *stats folding*
//! (response/wait/service accumulators). DLOOP's geometry splits both the
//! hardware timelines *and* — in the right regime — the FTL state cleanly
//! along plane boundaries, which this module exploits at two levels:
//!
//! 1. **The plane-local fast path** ([`run_plane_local`]): when the FTL
//!    attests that every operation's state effects stay on its LPN's home
//!    plane ([`Ftl::shard_translation_ready`] — for DLOOP: fully resident
//!    CMT, no materialised translation pages, no pending GC updates, all
//!    pools at or above the GC threshold, no media-fault model), each
//!    worker thread receives a *full fork* of the flash state, page
//!    directory, FTL and hardware model, and runs translation + playback
//!    for the operations routed to its plane range. The coordinator
//!    merges each worker's owned planes back (`shard_absorb` across every
//!    layer) and folds statistics canonically. Workers re-verify
//!    plane-locality after every operation ([`Ftl::shard_op_pure`]); any
//!    violation discards all forks — the authoritative state was never
//!    touched — and the run falls back to the windowed engine below.
//!    This parallelises ~all of the per-op work and is where the
//!    `BENCH_shard.json` speedup comes from.
//!
//! 2. **The windowed engine** ([`Engine`]): the general fallback for
//!    closed mode and for configurations the fast path cannot attest
//!    (thrashing CMT, materialised translation pages, media faults). The
//!    coordinator translates requests in canonical `(arrival, index)`
//!    order, batches the resulting page jobs into windows, and plays each
//!    window's jobs on per-shard [`HardwareModel`] forks
//!    ([`HardwareModel::shard_clone`]) under [`std::thread::scope`], one
//!    worker per channel group.
//!
//! # Determinism rules (DESIGN.md §3f)
//!
//! The engine is *bit-identical* to the sequential loop (claim C15), not
//! merely statistically equivalent:
//!
//! * **Translation order** is canonical: requests in `(arrival, index)`
//!   order — the [`ArrivalOrder`] every sequential driver walks — and page
//!   ops in request order. The FTL, flash state and media
//!   fault counters therefore see the identical op sequence.
//! * **Playback partitions**: a job whose chains touch a single shard's
//!   planes is played by that shard's worker, in translation order within
//!   the shard. Two jobs on different shards share no timeline entries, so
//!   their relative execution order is immaterial — each shard's timelines
//!   evolve exactly as in the sequential run.
//! * **Cross-shard jobs** (a chain naming planes of two channel groups —
//!   e.g. an inter-plane copy across channels) are *barriers*: the window
//!   is split at the job, the halves run parallel, and the coordinator
//!   plays the crossing job itself after importing the foreign planes'
//!   timeline state ([`HardwareModel::sync_plane_state_from`]) and
//!   exporting it back afterwards.
//! * **Folding order** is canonical: wait/service/GC-block samples,
//!   queue-probe entries and completions are pushed per job / per request
//!   in translation order once a window's playback finishes, so every
//!   order-sensitive float accumulation matches the sequential run
//!   bit-for-bit. Per-shard activity deltas (op counters, busy time) are
//!   summed into the parent model at end of run
//!   ([`HardwareModel::absorb_activity`]) — each op executed exactly once,
//!   so the totals are exact, and the final availability timelines are
//!   imported per plane from their owning shard.
//! * **Spans** are recorded into a per-shard [`BufferSink`] and forwarded
//!   to the device's real sink in job translation order after each window,
//!   reproducing the sequential span stream exactly.
//!
//! # Closed-mode admission
//!
//! Closed mode gates admission on completions the window hasn't computed
//! yet. The coordinator keeps the completion heap of all *flushed*
//! requests (`known`) plus a count of admitted-but-unplayed requests in
//! the current window (`unknown`). While `known.len() + unknown < depth`,
//! even the most pessimistic outcome leaves a free slot, so `issue =
//! arrival` exactly as in the sequential run. Otherwise the window is
//! flushed first, making the heap exact, and the sequential pop rule is
//! applied verbatim. Arrivals are processed in nondecreasing order, so
//! deferring the drain of completed entries is exact as well.
//!
//! Only the arrival-reserving modes (`Open`, `Closed`) parallelise: the
//! gated/NCQ/QoS schedulers make globally-coupled issue decisions every
//! simulated instant and fall back to the sequential engine regardless of
//! the configured shard count.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Range;

use crate::device::{ReplayStats, SsdDevice};
use crate::dir::PageDirectory;
use crate::ftl::{FlashStep, Ftl, FtlContext, OpChain, Phase};
use crate::metrics::{RunReport, ShardTiming};
use crate::request::{HostOp, HostRequest, TenantId};
use dloop_nand::{FlashState, HardwareModel, PlaneId};
use dloop_simkit::trace::{BufferSink, SpanPhase};
use dloop_simkit::{ArrivalOrder, SimTime};

/// Maximum page jobs buffered before a window is flushed. Large enough to
/// amortise the per-window thread spawn, small enough to keep the job
/// buffer cache-resident.
const WINDOW_JOB_CAP: usize = 8192;

/// Host threads worth running at once: `available_parallelism`, or 1 when
/// the platform cannot report it (single-threaded is always safe).
///
/// This is the *one* place the host core count is consulted. The engine
/// sizes its task pool from it, and the bench harness reports the same
/// number as `host_cpus` — so a speedup table row where `shards >
/// host_parallelism()` is visibly cap-saturated rather than silently
/// pretending one core (the old bench fallback) or N cores exist.
pub fn host_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Segments smaller than this play inline on the coordinator: the result
/// is identical (same models, same order), the thread spawn is not worth
/// it.
const PARALLEL_MIN_JOBS: usize = 192;

/// One translated page operation awaiting playback.
struct Job {
    /// Stable host-request id (index in the replayed slice), for spans.
    req: u64,
    lpn: u64,
    issue: SimTime,
    host: OpChain,
    gc: OpChain,
    scan: OpChain,
    /// Executing shard: the home shard for local jobs, the smallest
    /// touched shard for crossing jobs (played by the coordinator).
    shard: usize,
    crossing: bool,
}

/// Playback result of one job.
#[derive(Clone, Copy)]
struct JobOut {
    host_start: SimTime,
    host_done: SimTime,
    /// The page op's response instant: `host_done` under background GC,
    /// the GC chain's release under synchronous GC.
    done: SimTime,
    /// Span range `[from, to)` in the executing shard's buffer sink.
    span_from: u64,
    span_to: u64,
}

const IDLE_OUT: JobOut = JobOut {
    host_start: SimTime::ZERO,
    host_done: SimTime::ZERO,
    done: SimTime::ZERO,
    span_from: 0,
    span_to: 0,
};

/// One admitted request in the current window.
struct Entry {
    /// Index in the replayed slice.
    req: usize,
    arrival: SimTime,
    issue: SimTime,
    tenant: TenantId,
    pages: u32,
    /// This request's jobs in the window buffer.
    jobs: Range<usize>,
}

/// Static plane → shard geometry: shards are contiguous channel groups,
/// hence contiguous plane ranges.
struct ShardMap {
    nshards: usize,
    channels: usize,
    planes_per_channel: usize,
    /// Per shard: first owned plane (inclusive).
    plane_lo: Vec<usize>,
    /// Per shard: last owned plane (exclusive).
    plane_hi: Vec<usize>,
}

impl ShardMap {
    fn new(nshards: usize, channels: usize, planes_per_channel: usize) -> Self {
        debug_assert!(nshards >= 1 && nshards <= channels);
        let mut plane_lo = Vec::with_capacity(nshards);
        let mut plane_hi = Vec::with_capacity(nshards);
        for s in 0..nshards {
            let c_lo = (s * channels).div_ceil(nshards);
            let c_hi = ((s + 1) * channels).div_ceil(nshards);
            plane_lo.push(c_lo * planes_per_channel);
            plane_hi.push(c_hi * planes_per_channel);
        }
        ShardMap {
            nshards,
            channels,
            planes_per_channel,
            plane_lo,
            plane_hi,
        }
    }

    fn of_plane(&self, plane: PlaneId) -> usize {
        (plane as usize / self.planes_per_channel) * self.nshards / self.channels
    }

    /// Classify a job's chains: `(executing shard, crosses shards)`. Jobs
    /// with empty chains (pure cache hits) are assigned to shard 0 — they
    /// play nothing and touch no timelines.
    fn assign(&self, host: &OpChain, gc: &OpChain, scan: &OpChain) -> (usize, bool) {
        let mut shard: Option<usize> = None;
        let mut crossing = false;
        for chain in [host, gc, scan] {
            for step in chain.steps() {
                let (p, q) = step.planes();
                for plane in [Some(p), q].into_iter().flatten() {
                    let s = self.of_plane(plane);
                    match shard {
                        None => shard = Some(s),
                        Some(prev) if prev != s => {
                            crossing = true;
                            if s < prev {
                                shard = Some(s);
                            }
                        }
                        Some(_) => {}
                    }
                }
            }
        }
        (shard.unwrap_or(0), crossing)
    }
}

/// Pop every completion at or before `now` — the sequential drain,
/// deferred to admission points (exact because arrivals are
/// nondecreasing).
fn drain_completed(known: &mut BinaryHeap<Reverse<SimTime>>, now: SimTime) {
    while known.peek().is_some_and(|&Reverse(t)| t <= now) {
        known.pop();
    }
}

/// Spans recorded so far by `model`'s sink (0 when untraced).
fn recorded_spans(model: &HardwareModel) -> u64 {
    model.sink().map_or(0, |s| s.recorded())
}

/// Play one job on `model`, mirroring `SsdDevice::serve_page_op` exactly:
/// scan chain unchained at issue, host chain chained at issue, GC chain at
/// the host completion (unchained under background GC, chained and
/// response-extending otherwise). `counts` is the plane-op histogram
/// slice starting at plane `base`.
fn play_job(
    model: &mut HardwareModel,
    counts: &mut [u64],
    base: usize,
    job: &Job,
    background_gc: bool,
) -> JobOut {
    play_op(
        model,
        counts,
        base,
        job.req,
        job.lpn,
        job.issue,
        &job.scan,
        &job.host,
        &job.gc,
        background_gc,
    )
}

/// [`play_job`] over explicit fields — shared with the plane-local fast
/// path, whose workers hold their chains outside a [`Job`].
#[allow(clippy::too_many_arguments)]
fn play_op(
    model: &mut HardwareModel,
    counts: &mut [u64],
    base: usize,
    req: u64,
    lpn: u64,
    issue: SimTime,
    scan: &OpChain,
    host: &OpChain,
    gc: &OpChain,
    background_gc: bool,
) -> JobOut {
    let span_from = recorded_spans(model);
    model.set_span_context(SpanPhase::Scan, Some(lpn), Some(req));
    play_chain(model, counts, base, scan, issue, false);
    model.set_span_context(SpanPhase::Host, Some(lpn), Some(req));
    let (host_start, host_done) = play_chain(model, counts, base, host, issue, true);
    model.set_span_context(SpanPhase::Gc, Some(lpn), Some(req));
    let done = if background_gc {
        play_chain(model, counts, base, gc, host_done, false);
        host_done
    } else {
        play_chain(model, counts, base, gc, host_done, true).1
    };
    JobOut {
        host_start,
        host_done,
        done,
        span_from,
        span_to: recorded_spans(model),
    }
}

/// The worker-side twin of `SsdDevice::play_chain_spans`, executing
/// against an explicit shard model. Returns `(first_start, release)`
/// under the same contract.
fn play_chain(
    model: &mut HardwareModel,
    counts: &mut [u64],
    base: usize,
    chain: &OpChain,
    at: SimTime,
    chained: bool,
) -> (SimTime, SimTime) {
    let mut t = at;
    let mut last = at;
    let mut first_start: Option<SimTime> = None;
    for step in chain.steps() {
        let issue = if chained { t } else { at };
        let completion = match *step {
            FlashStep::Read { plane } => model.exec_read(plane, issue),
            FlashStep::ReadRetry { plane, steps } => model.exec_read_retry(plane, issue, steps),
            FlashStep::Write { plane } => model.exec_write(plane, issue),
            FlashStep::Erase { plane } => model.exec_erase(plane, issue),
            FlashStep::CopyBack { plane } => model.exec_copyback(plane, issue),
            FlashStep::InterPlaneCopy { src, dst } => model.exec_interplane_copy(src, dst, issue),
        };
        first_start = Some(match first_start {
            Some(f) => f.min(completion.start),
            None => completion.start,
        });
        let (p, q) = step.planes();
        counts[p as usize - base] += 1;
        if let Some(q) = q {
            counts[q as usize - base] += 1;
        }
        t = completion.end;
        last = last.max(completion.end);
    }
    let first_start = first_start.unwrap_or(at);
    if chained {
        (first_start, t)
    } else {
        (first_start, last)
    }
}

/// Disjoint `(mutable, shared)` access to two distinct models.
fn pair_mut(
    models: &mut [HardwareModel],
    a: usize,
    b: usize,
) -> (&mut HardwareModel, &HardwareModel) {
    debug_assert_ne!(a, b);
    if a < b {
        let (lo, hi) = models.split_at_mut(b);
        (&mut lo[a], &hi[0])
    } else {
        let (lo, hi) = models.split_at_mut(a);
        (&mut hi[0], &lo[b])
    }
}

/// Window/shard state of one sharded replay.
struct Engine {
    map: ShardMap,
    models: Vec<HardwareModel>,
    entries: Vec<Entry>,
    jobs: Vec<Job>,
    outs: Vec<JobOut>,
    tracing: bool,
    background_gc: bool,
    closed: bool,
}

impl Engine {
    /// Play and fold the buffered window; push its completions into
    /// `known`.
    fn flush(
        &mut self,
        dev: &mut SsdDevice,
        stats: &mut ReplayStats,
        known: &mut BinaryHeap<Reverse<SimTime>>,
    ) {
        if self.entries.is_empty() {
            return;
        }
        self.outs.clear();
        self.outs.resize(self.jobs.len(), IDLE_OUT);

        // Playback: parallel segments between cross-shard barriers.
        let mut seg_start = 0;
        for j in 0..self.jobs.len() {
            if self.jobs[j].crossing {
                self.run_segment(dev, seg_start..j);
                self.play_crossing(dev, j);
                seg_start = j + 1;
            }
        }
        self.run_segment(dev, seg_start..self.jobs.len());

        if self.tracing {
            self.merge_spans(dev);
        }

        // Fold in canonical order — every order-sensitive accumulation
        // happens here, exactly as the sequential loop would have.
        for entry in &self.entries {
            let mut req_done = entry.issue;
            for j in entry.jobs.clone() {
                let out = self.outs[j];
                let job = &self.jobs[j];
                if !job.host.is_empty() {
                    dev.wait_ms
                        .push(out.host_start.saturating_since(job.issue).as_millis_f64());
                    dev.service_ms.push(
                        out.host_done
                            .saturating_since(out.host_start)
                            .as_millis_f64(),
                    );
                }
                if !self.background_gc && !job.gc.is_empty() {
                    dev.gc_block_ms
                        .push(out.done.saturating_since(out.host_done).as_millis_f64());
                }
                req_done = req_done.max(out.done);
            }
            if self.closed && entry.pages > 0 {
                known.push(Reverse(req_done));
            }
            stats
                .queue
                .track(entry.tenant, entry.arrival, entry.issue, req_done);
            stats.complete(entry.req as u64, entry.arrival, req_done);
        }

        self.entries.clear();
        for job in self.jobs.drain(..) {
            dev.recycle_chains(job.host, job.gc, job.scan);
        }
    }

    /// Play `range` (no crossing jobs inside): one worker per shard with
    /// jobs, or inline on the coordinator when the segment is too small
    /// to pay for a spawn — bit-identical either way, since each job runs
    /// on its shard's model in translation order.
    fn run_segment(&mut self, dev: &mut SsdDevice, range: Range<usize>) {
        if range.is_empty() {
            return;
        }
        let mut per_shard: Vec<Vec<usize>> = vec![Vec::new(); self.map.nshards];
        for j in range.clone() {
            per_shard[self.jobs[j].shard].push(j);
        }
        let busy = per_shard.iter().filter(|v| !v.is_empty()).count();
        if busy <= 1 || range.len() < PARALLEL_MIN_JOBS {
            for j in range {
                let job = &self.jobs[j];
                self.outs[j] = play_job(
                    &mut self.models[job.shard],
                    &mut dev.plane_counts,
                    0,
                    job,
                    self.background_gc,
                );
            }
            return;
        }

        let jobs: &[Job] = &self.jobs;
        let bg = self.background_gc;
        let map = &self.map;
        let outs = &mut self.outs;
        let mut models_rest: &mut [HardwareModel] = &mut self.models;
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(busy);
            for (s, idxs) in per_shard.into_iter().enumerate() {
                let (model, mrest) = models_rest.split_first_mut().expect("one model per shard");
                models_rest = mrest;
                let width = map.plane_hi[s] - map.plane_lo[s];
                if idxs.is_empty() {
                    continue;
                }
                let base = map.plane_lo[s];
                // Workers accumulate plane counts locally: the shard
                // slices of `dev.plane_counts` are contiguous u64s, so
                // in-place increments from several threads would
                // false-share cache lines and serialize the fleet on
                // coherence traffic. The local deltas merge below —
                // addition commutes, so the fold stays bit-identical.
                handles.push(scope.spawn(move || {
                    let mut counts = vec![0u64; width as usize];
                    let outs: Vec<(usize, JobOut)> = idxs
                        .into_iter()
                        .map(|j| (j, play_job(model, &mut counts, base, &jobs[j], bg)))
                        .collect();
                    (base, counts, outs)
                }));
            }
            for handle in handles {
                let (base, counts, shard_outs) = handle.join().expect("shard worker panicked");
                for (off, c) in counts.into_iter().enumerate() {
                    dev.plane_counts[base as usize + off] += c;
                }
                for (j, out) in shard_outs {
                    outs[j] = out;
                }
            }
        });
    }

    /// Play a cross-shard job on the coordinator: import the foreign
    /// planes' timeline state into the executing shard's model, play, and
    /// export the updated state back to the owners.
    fn play_crossing(&mut self, dev: &mut SsdDevice, j: usize) {
        let job = &self.jobs[j];
        let exec = job.shard;
        let mut planes: Vec<PlaneId> = Vec::new();
        for chain in [&job.host, &job.gc, &job.scan] {
            for step in chain.steps() {
                let (p, q) = step.planes();
                for plane in [Some(p), q].into_iter().flatten() {
                    if !planes.contains(&plane) {
                        planes.push(plane);
                    }
                }
            }
        }
        for &p in &planes {
            let owner = self.map.of_plane(p);
            if owner != exec {
                let (dst, src) = pair_mut(&mut self.models, exec, owner);
                dst.sync_plane_state_from(src, p);
            }
        }
        self.outs[j] = play_job(
            &mut self.models[exec],
            &mut dev.plane_counts,
            0,
            job,
            self.background_gc,
        );
        for &p in &planes {
            let owner = self.map.of_plane(p);
            if owner != exec {
                let (dst, src) = pair_mut(&mut self.models, owner, exec);
                dst.sync_plane_state_from(src, p);
            }
        }
    }

    /// Forward the window's spans from the per-shard buffers to the
    /// device's real sink, in job translation order — the exact sequential
    /// span stream.
    fn merge_spans(&mut self, dev: &mut SsdDevice) {
        let models = &self.models;
        if let Some(sink) = dev.hw.sink_mut() {
            for (j, job) in self.jobs.iter().enumerate() {
                let out = self.outs[j];
                if out.span_from == out.span_to {
                    continue;
                }
                let buf = models[job.shard]
                    .sink()
                    .and_then(|s| s.as_any().downcast_ref::<BufferSink>())
                    .expect("shard models trace into BufferSinks");
                for span in &buf.spans()[out.span_from as usize..out.span_to as usize] {
                    sink.record(span);
                }
            }
        }
        for model in &mut self.models {
            if let Some(buf) = model
                .sink_mut()
                .and_then(|s| s.as_any_mut().downcast_mut::<BufferSink>())
            {
                buf.clear();
            }
        }
    }
}

/// One page operation routed to its home-plane shard (fast path).
struct PlaneJob {
    /// Stable host-request id (index in the replayed slice).
    req: u64,
    lpn: u64,
    issue: SimTime,
    op: HostOp,
}

/// Worker-side playback result of one fast-path job.
struct PlaneOut {
    out: JobOut,
    host_empty: bool,
    gc_empty: bool,
}

/// Everything a fast-path worker hands back for the merge commit.
struct ShardRun {
    flash: FlashState,
    dir: PageDirectory,
    ftl: Box<dyn Ftl + Send>,
    model: HardwareModel,
    counts: Vec<u64>,
    outs: Vec<PlaneOut>,
    /// False when a job violated plane-locality: the fork is garbage past
    /// that job and the whole run must fall back.
    pure: bool,
}

/// Do all of `chains`' steps stay inside the worker's plane range?
fn chains_within(chains: [&OpChain; 2], planes: &Range<usize>) -> bool {
    chains.iter().all(|chain| {
        chain.steps().iter().all(|step| {
            let (p, q) = step.planes();
            planes.contains(&(p as usize)) && q.is_none_or(|q| planes.contains(&(q as usize)))
        })
    })
}

/// One fast-path worker: translate *and* play this shard's jobs, in the
/// canonical order of the jobs routed to it, against full private forks.
/// After every job the worker re-verifies plane-locality — non-empty scan
/// chain (a foreign plane dipped below the GC threshold), a chain step
/// naming a plane outside the shard, or the FTL's own post-op check —
/// and aborts on the first violation.
fn run_plane_worker(
    mut flash: FlashState,
    mut dir: PageDirectory,
    mut ftl: Box<dyn Ftl + Send>,
    mut model: HardwareModel,
    jobs: &[PlaneJob],
    planes: Range<usize>,
    background_gc: bool,
) -> ShardRun {
    let mut host = OpChain::new();
    let mut gc = OpChain::new();
    let mut scan = OpChain::new();
    let mut counts = vec![0u64; planes.len()];
    let mut outs = Vec::with_capacity(jobs.len());
    let base = planes.start;
    let mut pure = true;
    for job in jobs {
        host.clear();
        gc.clear();
        scan.clear();
        let mut ctx = FtlContext {
            flash: &mut flash,
            dir: &mut dir,
            host_chain: &mut host,
            gc_chain: &mut gc,
            scan_chain: &mut scan,
            phase: Phase::Host,
        };
        match job.op {
            HostOp::Read => ftl.read(job.lpn, &mut ctx),
            HostOp::Write => ftl.write(job.lpn, &mut ctx),
        }
        if !scan.is_empty()
            || !chains_within([&host, &gc], &planes)
            || !ftl.shard_op_pure(&flash, job.lpn)
        {
            pure = false;
            break;
        }
        let out = play_op(
            &mut model,
            &mut counts,
            base,
            job.req,
            job.lpn,
            job.issue,
            &scan,
            &host,
            &gc,
            background_gc,
        );
        outs.push(PlaneOut {
            out,
            host_empty: host.is_empty(),
            gc_empty: gc.is_empty(),
        });
    }
    ShardRun {
        flash,
        dir,
        ftl,
        model,
        counts,
        outs,
        pure,
    }
}

/// The plane-local fast path: open-mode replay with translation *and*
/// playback sharded. Page operations are routed to the shard owning
/// their home plane; each worker runs the full per-op pipeline on
/// private forks of every state layer, and the coordinator commits the
/// owned planes back and folds statistics in canonical `(arrival,
/// index)` order — bit-identical to the sequential run by the same
/// argument as the windowed engine, plus plane-locality of translation
/// (attested up front by [`Ftl::shard_translation_ready`], re-verified
/// per op by the workers).
///
/// Returns `None` when any worker hit an impurity: the authoritative
/// device state was never touched, so the caller simply replays
/// sequentially (or through the windowed engine).
fn run_plane_local(
    dev: &mut SsdDevice,
    requests: &[HostRequest],
    map: &ShardMap,
) -> Option<RunReport> {
    let lpn_space = dev.flash.geometry().user_pages();
    let nshards = map.nshards;
    let t_start = std::time::Instant::now();

    // Route every page op to its home shard, preserving canonical order
    // within each shard; `job_refs` remembers each op's (shard, slot) so
    // the fold can walk results in global canonical order.
    let mut stats = ReplayStats::with_capacity(requests.len(), requests.len());
    let mut shard_jobs: Vec<Vec<PlaneJob>> = (0..nshards).map(|_| Vec::new()).collect();
    let mut job_refs: Vec<(u32, u32)> = Vec::new();
    let mut entries: Vec<Entry> = Vec::with_capacity(requests.len());
    for idx in ArrivalOrder::new(requests, |r| r.arrival).iter() {
        let req = &requests[idx];
        // Open mode: admission is the arrival itself.
        let issue = req.arrival;
        let from = job_refs.len();
        for lpn in req.wrapped_page_ops(lpn_space) {
            stats.count_page(req.op);
            let s = map.of_plane(dev.ftl.shard_home_plane(lpn));
            job_refs.push((s as u32, shard_jobs[s].len() as u32));
            shard_jobs[s].push(PlaneJob {
                req: idx as u64,
                lpn,
                issue,
                op: req.op,
            });
        }
        entries.push(Entry {
            req: idx,
            arrival: req.arrival,
            issue,
            tenant: req.tenant,
            pages: req.pages,
            jobs: from..job_refs.len(),
        });
    }

    let partition_ms = t_start.elapsed().as_secs_f64() * 1e3;
    let tracing = dev.hw.sink().is_some();
    let background_gc = dev.config.background_gc;

    // Shard tasks: one per non-empty shard, each carrying its pre-cloned
    // hardware model (the model's trace sink is a plain trait object, so
    // the clone stays on the coordinator). Forking the *simulation* state
    // happens inside the task, from shared references to the
    // authoritative device (`Ftl: Send + Sync` exists for this): the fork
    // cost — dominated by rebuilding the owned slice of the cached
    // mapping table — parallelises instead of serialising here.
    //
    // Tasks run on a pool of at most `available_parallelism` threads
    // rather than one thread per shard: oversubscribing cores buys
    // nothing (shards share no state, so there is nothing to overlap
    // with) and makes each task's wall time meaningless. On the pool,
    // each task's time approximates its isolated cost, which is what
    // `ShardTiming` reports.
    struct ShardTask<'a> {
        s: usize,
        jobs: &'a [PlaneJob],
        model: HardwareModel,
        planes: Range<usize>,
    }
    let tasks: Vec<std::sync::Mutex<Option<ShardTask<'_>>>> = shard_jobs
        .iter()
        .enumerate()
        .filter(|(_, jobs)| !jobs.is_empty())
        .map(|(s, jobs)| {
            let mut model = dev.hw.shard_clone();
            if tracing {
                model.attach_sink(Box::new(BufferSink::new()));
            }
            std::sync::Mutex::new(Some(ShardTask {
                s,
                jobs,
                model,
                planes: map.plane_lo[s]..map.plane_hi[s],
            }))
        })
        .collect();
    let pool = host_parallelism().min(tasks.len()).max(1);

    let ppp = dev.flash.geometry().pages_per_plane();
    let flash_src = &dev.flash;
    let dir_src = &dev.dir;
    let ftl_src: &dyn Ftl = dev.ftl.as_ref();
    let mut runs: Vec<Option<ShardRun>> = (0..nshards).map(|_| None).collect();
    let mut fork_ms = vec![0.0f64; nshards];
    let mut worker_ms = vec![0.0f64; nshards];
    {
        let next = std::sync::atomic::AtomicUsize::new(0);
        let done = std::sync::Mutex::new(Vec::with_capacity(tasks.len()));
        std::thread::scope(|scope| {
            for _ in 0..pool {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    let Some(slot) = tasks.get(i) else { break };
                    let task = slot.lock().unwrap().take().expect("task claimed twice");
                    // Fork and replay are timed separately: fork cost is
                    // pure overhead that scales with device size, replay
                    // with work. The directory fork copies only the
                    // shard's owned plane-major PPN range — the purity
                    // attestation guarantees nothing else is read, and
                    // the merge absorbs only that range back.
                    let tf = std::time::Instant::now();
                    let flash = flash_src.shard_fork();
                    let dir = dir_src
                        .shard_fork(task.planes.start as u64 * ppp..task.planes.end as u64 * ppp);
                    let ftl = ftl_src
                        .shard_fork(task.planes.start as PlaneId..task.planes.end as PlaneId)
                        .expect("a ready FTL must fork");
                    let forked = tf.elapsed().as_secs_f64() * 1e3;
                    let tw = std::time::Instant::now();
                    let run = run_plane_worker(
                        flash,
                        dir,
                        ftl,
                        task.model,
                        task.jobs,
                        task.planes,
                        background_gc,
                    );
                    let ms = tw.elapsed().as_secs_f64() * 1e3;
                    done.lock().unwrap().push((task.s, run, forked, ms));
                });
            }
        });
        for (s, run, forked, ms) in done.into_inner().unwrap() {
            runs[s] = Some(run);
            fork_ms[s] = forked;
            worker_ms[s] = ms;
        }
    }

    if runs.iter().flatten().any(|r| !r.pure) {
        return None;
    }
    let t_merge = std::time::Instant::now();

    // Commit: adopt each worker's owned planes across every state layer
    // (plane-major PPN layout makes the directory range contiguous), and
    // add activity deltas — forks were counter-zeroed, so each op is
    // counted exactly once.
    for (s, run) in runs.iter().enumerate() {
        let Some(run) = run else { continue };
        let (lo, hi) = (map.plane_lo[s], map.plane_hi[s]);
        dev.flash
            .shard_absorb(&run.flash, lo as PlaneId..hi as PlaneId);
        dev.dir
            .absorb_range(&run.dir, lo as u64 * ppp..hi as u64 * ppp);
        dev.ftl
            .shard_absorb(run.ftl.as_ref(), lo as PlaneId..hi as PlaneId);
        for p in lo as PlaneId..hi as PlaneId {
            dev.hw.sync_plane_state_from(&run.model, p);
        }
        dev.hw.absorb_activity(&run.model);
        for (off, c) in run.counts.iter().enumerate() {
            dev.plane_counts[lo + off] += c;
        }
    }

    // Forward spans in canonical job order — the sequential span stream.
    if tracing {
        if let Some(sink) = dev.hw.sink_mut() {
            for entry in &entries {
                for &(s, k) in &job_refs[entry.jobs.clone()] {
                    let run = runs[s as usize]
                        .as_ref()
                        .expect("job routed to empty shard");
                    let po = &run.outs[k as usize];
                    if po.out.span_from == po.out.span_to {
                        continue;
                    }
                    let buf = run
                        .model
                        .sink()
                        .and_then(|s| s.as_any().downcast_ref::<BufferSink>())
                        .expect("fast-path workers trace into BufferSinks");
                    for span in &buf.spans()[po.out.span_from as usize..po.out.span_to as usize] {
                        sink.record(span);
                    }
                }
            }
        }
    }

    // Fold in canonical order — bit-identical float accumulation.
    for entry in &entries {
        let mut req_done = entry.issue;
        for &(s, k) in &job_refs[entry.jobs.clone()] {
            let run = runs[s as usize]
                .as_ref()
                .expect("job routed to empty shard");
            let po = &run.outs[k as usize];
            if !po.host_empty {
                dev.wait_ms.push(
                    po.out
                        .host_start
                        .saturating_since(entry.issue)
                        .as_millis_f64(),
                );
                dev.service_ms.push(
                    po.out
                        .host_done
                        .saturating_since(po.out.host_start)
                        .as_millis_f64(),
                );
            }
            if !background_gc && !po.gc_empty {
                dev.gc_block_ms.push(
                    po.out
                        .done
                        .saturating_since(po.out.host_done)
                        .as_millis_f64(),
                );
            }
            req_done = req_done.max(po.out.done);
        }
        stats
            .queue
            .track(entry.tenant, entry.arrival, entry.issue, req_done);
        stats.complete(entry.req as u64, entry.arrival, req_done);
    }

    let mut report = dev.finish_report(requests.len() as u64, stats);
    report.shard_timing = Some(ShardTiming {
        partition_ms,
        fork_ms,
        worker_ms,
        merge_ms: t_merge.elapsed().as_secs_f64() * 1e3,
    });
    Some(report)
}

/// The sharded arrival-reserving replay. Entered from
/// `SsdDevice::run_with` when more than one shard is requested and the
/// geometry has more than one channel; `queue_depth` selects open
/// (`None`) or closed (`Some(d)`) admission, exactly as in
/// `SsdDevice::run_reserving`.
pub(crate) fn run_sharded(
    dev: &mut SsdDevice,
    requests: &[HostRequest],
    queue_depth: Option<usize>,
    shards: usize,
) -> RunReport {
    let geometry = dev.flash.geometry();
    let channels = geometry.channels as usize;
    let total_planes = geometry.total_planes() as usize;
    let planes_per_die = geometry.planes_per_die as usize;
    let lpn_space = geometry.user_pages();
    let planes_per_channel = total_planes / channels;
    let nshards = shards.min(channels);
    debug_assert!(nshards > 1, "dispatcher guarantees a parallel request");
    // A die straddling a channel boundary would alias one die timeline
    // across two shards; no geometry constructor produces that, but fall
    // back to the sequential engine rather than assume.
    if dev.config.die_serialized && planes_per_channel % planes_per_die != 0 {
        return dev.run_reserving(requests, queue_depth);
    }

    let map = ShardMap::new(nshards, channels, planes_per_channel);

    // Take the plane-local fast path when the FTL attests plane-locality:
    // translation itself shards, which the windowed engine below cannot
    // offer. A media model makes read outcomes depend on the global op
    // order, so it disqualifies the fast path outright. `None` means a
    // worker detected an impurity mid-run and every fork was discarded —
    // the device is untouched and the windowed engine replays from
    // scratch.
    if queue_depth.is_none()
        && !dev.flash.has_media()
        && dev.ftl.shard_translation_ready(&dev.flash)
    {
        if let Some(report) = run_plane_local(dev, requests, &map) {
            return report;
        }
    }

    let tracing = dev.hw.sink().is_some();
    let mut engine = Engine {
        map,
        models: (0..nshards)
            .map(|_| {
                let mut m = dev.hw.shard_clone();
                if tracing {
                    m.attach_sink(Box::new(BufferSink::new()));
                }
                m
            })
            .collect(),
        entries: Vec::new(),
        jobs: Vec::with_capacity(WINDOW_JOB_CAP),
        outs: Vec::with_capacity(WINDOW_JOB_CAP),
        tracing,
        background_gc: dev.config.background_gc,
        closed: queue_depth.is_some(),
    };

    let mut stats = ReplayStats::with_capacity(requests.len(), requests.len());
    let mut known: BinaryHeap<Reverse<SimTime>> = BinaryHeap::new();
    let mut unknown: usize = 0;

    for idx in ArrivalOrder::new(requests, |r| r.arrival).iter() {
        let req = &requests[idx];
        let mut issue = req.arrival;
        if req.pages > 0 {
            if let Some(depth) = queue_depth {
                drain_completed(&mut known, req.arrival);
                if known.len() + unknown >= depth {
                    // The pessimistic bound hit the gate: resolve the
                    // window so the heap is exact, then apply the
                    // sequential admission rule verbatim.
                    if unknown > 0 {
                        engine.flush(dev, &mut stats, &mut known);
                        unknown = 0;
                        drain_completed(&mut known, req.arrival);
                    }
                    if known.len() >= depth {
                        let Reverse(freed) = known.pop().expect("queue depth at least 1");
                        issue = issue.max(freed);
                    }
                }
            }
        }
        let jobs_from = engine.jobs.len();
        for lpn in req.wrapped_page_ops(lpn_space) {
            let (host, gc, scan) = dev.translate_page_op(lpn, req.op);
            stats.count_page(req.op);
            let (shard, crossing) = engine.map.assign(&host, &gc, &scan);
            engine.jobs.push(Job {
                req: idx as u64,
                lpn,
                issue,
                host,
                gc,
                scan,
                shard,
                crossing,
            });
        }
        engine.entries.push(Entry {
            req: idx,
            arrival: req.arrival,
            issue,
            tenant: req.tenant,
            pages: req.pages,
            jobs: jobs_from..engine.jobs.len(),
        });
        if req.pages > 0 && queue_depth.is_some() {
            unknown += 1;
        }
        if engine.jobs.len() >= WINDOW_JOB_CAP {
            engine.flush(dev, &mut stats, &mut known);
            unknown = 0;
        }
    }
    engine.flush(dev, &mut stats, &mut known);

    // Fold the shard models back into the parent: availability timelines
    // from each plane's owner, activity deltas summed (each op executed
    // exactly once across the fleet).
    for p in 0..total_planes as u32 {
        let owner = engine.map.of_plane(p);
        dev.hw.sync_plane_state_from(&engine.models[owner], p);
    }
    for model in &engine.models {
        dev.hw.absorb_activity(model);
    }

    dev.finish_report(requests.len() as u64, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_map_ranges_agree_with_plane_lookup() {
        for (channels, nshards, ppc) in [(8, 4, 4), (8, 3, 2), (5, 2, 8), (16, 16, 1), (7, 5, 3)] {
            let map = ShardMap::new(nshards, channels, ppc);
            assert_eq!(map.plane_lo[0], 0);
            assert_eq!(map.plane_hi[nshards - 1], channels * ppc);
            for s in 1..nshards {
                assert_eq!(map.plane_hi[s - 1], map.plane_lo[s], "ranges tile");
            }
            for p in 0..(channels * ppc) as u32 {
                let s = map.of_plane(p);
                assert!(
                    (map.plane_lo[s]..map.plane_hi[s]).contains(&(p as usize)),
                    "plane {p} maps into its shard's range"
                );
            }
        }
    }

    #[test]
    fn shard_map_balances_channels() {
        // No shard may own more than ceil(channels/nshards) channels.
        for (channels, nshards) in [(8, 4), (9, 4), (16, 5), (3, 2)] {
            let map = ShardMap::new(nshards, channels, 2);
            let cap = channels.div_ceil(nshards);
            for s in 0..nshards {
                let owned = (map.plane_hi[s] - map.plane_lo[s]) / 2;
                assert!(owned <= cap, "shard {s} owns {owned} > {cap} channels");
                assert!(owned >= 1, "every shard owns at least one channel");
            }
        }
    }
}
