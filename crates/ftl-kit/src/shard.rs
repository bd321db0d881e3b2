//! Parallel channel-group replay engine behind [`RunConfig::shards`].
//!
//! The sequential open-replay loop ([`SsdDevice::run_open`])
//! interleaves three kinds of work per page operation: FTL *translation*
//! (flash/directory state effects), timeline *playback* (booking the
//! chain's steps on plane/channel/die availabilities), and *stats folding*
//! (response/wait/service accumulators). DLOOP's geometry splits both the
//! hardware timelines *and* — in the right regime — the FTL state cleanly
//! along plane boundaries, which is the one thing this module exploits:
//!
//! **The plane-local engine** ([`run_plane_local`]): when the FTL attests
//! that every operation's state effects stay on its LPN's home plane
//! ([`Ftl::shard_translation_ready`] — for DLOOP: fully resident CMT, no
//! materialised translation pages, no pending GC updates, all pools at or
//! above the GC threshold, no media-fault model), each worker thread
//! receives a fork of the flash state, page directory, FTL and hardware
//! model, and runs translation + playback for the operations routed to
//! its plane range. The coordinator merges each worker's owned planes
//! back (`shard_absorb` across every layer) and folds statistics
//! canonically. Workers re-verify plane-locality after every operation
//! ([`Ftl::shard_op_pure`]); any violation discards all forks — the
//! authoritative state was never touched.
//!
//! **The fallback rule.** There is no second parallel level. A sharded
//! request that cannot engage — a guard below fires, or the mode is not
//! open arrivals — is replayed by the sequential engine, and
//! [`RunReport::shard_outcome`] names the [`ShardGuard`]. (Parallelising
//! playback alone, behind a serial translation, loses to the sequential
//! loop on two cores in every configuration it could serve — DESIGN.md
//! §3f has the runs.)
//!
//! # Determinism rules (DESIGN.md §3f)
//!
//! The engine is *bit-identical* to the sequential loop (claim C15), not
//! merely statistically equivalent:
//!
//! * **Routing order** is canonical: requests in `(arrival, index)`
//!   order — the [`ArrivalOrder`] every sequential driver walks — and page
//!   ops in request order, each to the shard owning its home plane. Two
//!   ops on different shards share no state and no timeline entries, so
//!   their relative execution order is immaterial — each shard's planes
//!   evolve exactly as in the sequential run.
//! * **Folding order** is canonical: wait/service/GC-block samples,
//!   queue-probe entries and completions are pushed per op / per request
//!   in routing order once the workers finish, so every order-sensitive
//!   float accumulation matches the sequential run bit-for-bit. Each
//!   shard's activity since the fork (op counters, busy time) is added to
//!   the parent model ([`HardwareModel::absorb_activity`]) — each op
//!   executed exactly once, so the totals are exact, and the final
//!   availability timelines are imported per plane from their owning
//!   shard.
//! * **Spans** are recorded into a per-shard never-evicting [`RingSink`];
//!   each job keeps only its span count, and one cursor per shard forwards
//!   them to the device's real sink in routing order, reproducing the
//!   sequential span stream exactly.

use std::ops::Range;

use crate::device::{ReplayStats, SsdDevice};
use crate::dir::PageDirectory;
use crate::ftl::{Ftl, FtlContext, OpChain, Phase};
use crate::metrics::{RunReport, ShardGuard, ShardOutcome, ShardTiming};
use crate::play::{play_op, PageOp, Played, ScanOrder};
use crate::request::{HostOp, HostRequest, TenantId};
use dloop_nand::{FlashState, HardwareModel, PlaneId};
use dloop_simkit::trace::RingSink;
use dloop_simkit::{ArrivalOrder, SimTime};

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

/// One routed request.
struct Entry {
    /// Index in the replayed slice.
    req: usize,
    arrival: SimTime,
    tenant: TenantId,
    /// This request's page ops in `job_refs`.
    jobs: Range<usize>,
}

/// Static plane → shard geometry: shards are contiguous channel groups,
/// hence contiguous plane ranges. `nshards` is between 1 and `channels`.
struct ShardMap {
    nshards: usize,
    channels: usize,
    planes_per_channel: usize,
}

impl ShardMap {
    /// The planes shard `s` owns.
    fn planes(&self, s: usize) -> Range<usize> {
        let first = |s: usize| (s * self.channels).div_ceil(self.nshards) * self.planes_per_channel;
        first(s)..first(s + 1)
    }

    fn of_plane(&self, plane: PlaneId) -> usize {
        (plane as usize / self.planes_per_channel) * self.nshards / self.channels
    }
}

/// Spans recorded so far by `model`'s sink (0 when untraced).
fn recorded_spans(model: &HardwareModel) -> usize {
    model.sink().map_or(0, |s| s.recorded() as usize)
}

/// One page operation routed to its home-plane shard.
struct PlaneJob {
    /// Stable host-request id (index in the replayed slice).
    req: u64,
    lpn: u64,
    issue: SimTime,
    op: HostOp,
}

/// Worker-side playback result of one job.
struct PlaneOut {
    played: Played,
    /// Spans the job recorded, in order, in the worker's ring.
    spans: usize,
}

/// Everything a worker hands back for the merge commit.
struct ShardRun {
    flash: FlashState,
    dir: PageDirectory,
    ftl: Box<dyn Ftl + Send>,
    model: HardwareModel,
    outs: Vec<PlaneOut>,
    /// The request whose job violated plane-locality, if one did: the
    /// fork is garbage past that job and the whole run must fall back.
    impure_at: Option<u64>,
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

/// One worker: translate *and* play this shard's jobs, in the
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
    let mut outs = Vec::with_capacity(jobs.len());
    let mut impure_at = None;
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
            impure_at = Some(job.req);
            break;
        }
        let span_from = recorded_spans(&model);
        let played = play_op(
            &mut model,
            &PageOp {
                req: job.req,
                lpn: job.lpn,
                host: &host,
                gc: &gc,
                scan: &scan,
            },
            job.issue,
            ScanOrder::BeforeHost,
            background_gc,
        );
        outs.push(PlaneOut {
            played,
            spans: recorded_spans(&model) - span_from,
        });
    }
    ShardRun {
        flash,
        dir,
        ftl,
        model,
        outs,
        impure_at,
    }
}

/// The plane-local engine: open-mode replay with translation *and*
/// playback sharded. Page operations are routed to the shard owning
/// their home plane; each worker runs the full per-op pipeline on
/// private forks of every state layer, and the coordinator commits the
/// owned planes back and folds statistics in canonical `(arrival,
/// index)` order — bit-identical to the sequential run because two
/// shards share no plane, channel or die timeline and, by plane-locality
/// of translation (attested up front by [`Ftl::shard_translation_ready`],
/// re-verified per op by the workers), no FTL state either.
///
/// Entered from `SsdDevice::run_with` for an open-arrival replay with
/// more than one shard requested. `Err` names the guard that kept the
/// engine from serving the run; the authoritative device state was never
/// touched — on a worker impurity every fork is discarded — so the
/// caller simply replays sequentially.
pub(crate) fn run_plane_local(
    dev: &mut SsdDevice,
    requests: &[HostRequest],
    shards: usize,
) -> Result<RunReport, ShardGuard> {
    let geometry = dev.flash.geometry();
    let channels = geometry.channels as usize;
    let planes_per_channel = geometry.total_planes() as usize / channels;
    if channels == 1 {
        return Err(ShardGuard::SingleChannel);
    }
    // A die straddling a channel boundary would alias one die timeline
    // across two shards; no geometry constructor produces that, but fall
    // back rather than assume.
    if dev.config.die_serialized && planes_per_channel % geometry.planes_per_die as usize != 0 {
        return Err(ShardGuard::DieStraddlesShard);
    }
    // A media model makes read outcomes depend on the global op order.
    if dev.flash.has_media() {
        return Err(ShardGuard::MediaModel);
    }
    if !dev.ftl.shard_translation_ready(&dev.flash) {
        return Err(ShardGuard::TranslationNotReady);
    }
    let map = &ShardMap {
        nshards: shards.min(channels),
        channels,
        planes_per_channel,
    };

    let lpn_space = dev.flash.geometry().user_pages();
    let nshards = map.nshards;
    let t_start = std::time::Instant::now();

    // Route every page op to its home shard, preserving canonical order
    // within each shard; `job_refs` remembers each op's (shard, slot) so
    // the fold can walk results in global canonical order.
    let mut stats = ReplayStats::with_capacity(dev.counters(), requests.len(), requests.len());
    let mut shard_jobs: Vec<Vec<PlaneJob>> = (0..nshards).map(|_| Vec::new()).collect();
    let mut job_refs: Vec<(u32, u32)> = Vec::new();
    let mut entries: Vec<Entry> = Vec::with_capacity(requests.len());
    for idx in ArrivalOrder::new(requests, |r| r.arrival).iter() {
        let req = &requests[idx];
        let from = job_refs.len();
        for lpn in req.wrapped_page_ops(lpn_space) {
            stats.count_page(req.op);
            let s = map.of_plane(dev.ftl.shard_home_plane(lpn));
            job_refs.push((s as u32, shard_jobs[s].len() as u32));
            shard_jobs[s].push(PlaneJob {
                req: idx as u64,
                lpn,
                // Open mode: admission is the arrival itself.
                issue: req.arrival,
                op: req.op,
            });
        }
        entries.push(Entry {
            req: idx,
            arrival: req.arrival,
            tenant: req.tenant,
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
    // cost — flat copies of the flash state and the mapping table —
    // parallelises instead of serialising here.
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
                model.attach_sink(Box::new(RingSink::new(usize::MAX)));
            }
            std::sync::Mutex::new(Some(ShardTask {
                s,
                jobs,
                model,
                planes: map.planes(s),
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

    if let Some(request) = runs.iter().flatten().filter_map(|r| r.impure_at).min() {
        return Err(ShardGuard::WorkerImpurity { request });
    }
    let t_merge = std::time::Instant::now();

    // Commit: adopt each worker's owned planes across every state layer
    // (plane-major PPN layout makes the directory range contiguous), and
    // add each worker's activity since the fork, so each op is counted
    // exactly once.
    for (s, run) in runs.iter().enumerate() {
        let Some(run) = run else { continue };
        let Range { start: lo, end: hi } = map.planes(s);
        dev.flash
            .shard_absorb(&run.flash, lo as PlaneId..hi as PlaneId);
        dev.dir
            .absorb_range(&run.dir, lo as u64 * ppp..hi as u64 * ppp);
        dev.ftl
            .shard_absorb(run.ftl.as_ref(), lo as PlaneId..hi as PlaneId);
        for p in lo as PlaneId..hi as PlaneId {
            dev.hw.sync_plane_state_from(&run.model, p);
        }
        dev.hw
            .absorb_activity(&run.model.activity().since(&stats.start.hw));
    }

    // Forward spans in canonical job order — the sequential span stream.
    // Each shard recorded its jobs' spans in job order, so one cursor per
    // shard hands out each job's span count in turn.
    if let Some(sink) = dev.hw.sink_mut() {
        let mut cursors: Vec<_> = runs
            .iter()
            .map(|run| {
                let ring = run.as_ref()?.model.sink()?.as_any();
                Some(ring.downcast_ref::<RingSink>()?.spans())
            })
            .collect();
        for entry in &entries {
            for &(s, k) in &job_refs[entry.jobs.clone()] {
                let run = runs[s as usize]
                    .as_ref()
                    .expect("job routed to empty shard");
                let cursor = cursors[s as usize]
                    .as_mut()
                    .expect("shard workers trace into rings");
                for span in cursor.take(run.outs[k as usize].spans) {
                    sink.record(span);
                }
            }
        }
    }

    // Fold in canonical order — bit-identical float accumulation.
    for entry in &entries {
        let mut req_done = entry.arrival;
        for &(s, k) in &job_refs[entry.jobs.clone()] {
            let run = runs[s as usize]
                .as_ref()
                .expect("job routed to empty shard");
            let played = &run.outs[k as usize].played;
            stats.fold_played(entry.arrival, played, dev.config.background_gc);
            req_done = req_done.max(played.done);
        }
        stats
            .queue
            .track(entry.tenant, entry.arrival, entry.arrival, req_done);
        stats.complete(entry.req as u64, entry.arrival, req_done);
    }

    let mut report = dev.finish_report(requests.len() as u64, stats);
    report.shard_outcome = ShardOutcome::Engaged;
    report.shard_timing = Some(ShardTiming {
        partition_ms,
        fork_ms,
        worker_ms,
        merge_ms: t_merge.elapsed().as_secs_f64() * 1e3,
    });
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map(nshards: usize, channels: usize, planes_per_channel: usize) -> ShardMap {
        ShardMap {
            nshards,
            channels,
            planes_per_channel,
        }
    }

    #[test]
    fn shard_map_ranges_agree_with_plane_lookup() {
        for (channels, nshards, ppc) in [(8, 4, 4), (8, 3, 2), (5, 2, 8), (16, 16, 1), (7, 5, 3)] {
            let map = map(nshards, channels, ppc);
            assert_eq!(map.planes(0).start, 0);
            assert_eq!(map.planes(nshards - 1).end, channels * ppc);
            for s in 1..nshards {
                assert_eq!(map.planes(s - 1).end, map.planes(s).start, "ranges tile");
            }
            for p in 0..(channels * ppc) as u32 {
                let s = map.of_plane(p);
                assert!(
                    map.planes(s).contains(&(p as usize)),
                    "plane {p} maps into its shard's range"
                );
            }
        }
    }

    #[test]
    fn shard_map_balances_channels() {
        // No shard may own more than ceil(channels/nshards) channels.
        for (channels, nshards) in [(8, 4), (9, 4), (16, 5), (3, 2)] {
            let map = map(nshards, channels, 2);
            let cap = channels.div_ceil(nshards);
            for s in 0..nshards {
                let owned = map.planes(s).len() / 2;
                assert!(owned <= cap, "shard {s} owns {owned} > {cap} channels");
                assert!(owned >= 1, "every shard owns at least one channel");
            }
        }
    }
}
