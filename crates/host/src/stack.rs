//! The host stack: the pipeline that turns a host trace into a device
//! command stream and maps device completions back into per-request
//! syscall-to-cell timelines.
//!
//! Stages, in order:
//!
//! 1. **Page cache** — write-back absorbs writes (acknowledged after the
//!    per-page DRAM-copy cost), read hits are served in place, misses
//!    and write-backs become device-bound commands. The hit pages of a
//!    partial miss pay their DRAM cost too: the miss commands stage only
//!    after the copies finish.
//! 2. **Block layer** — oversized commands split into bounded chunks;
//!    adjacent commands of one doorbell batch merge.
//! 3. **Submission queues** — commands land on `tenant % queues`;
//!    doorbell batching sets each command's doorbell-ring time.
//! 4. **Device** — an *interleaved* host/device event loop
//!    ([`HostStack::run`]), in every replay mode: each SQ holds at most
//!    [`HostConfig::queue_depth`] in-flight commands, a doorbell ring
//!    admits a command only when its queue has a free slot, and a
//!    delivered completion frees a slot and immediately admits the next
//!    backlogged command — true per-queue windows, with SQ backpressure
//!    delaying the syscall-visible `submit` instant. This window is the
//!    workspace's one model of a closed loop: a pass-through stack of
//!    depth `d` is an fio-style bound of `d` outstanding requests. A
//!    zero-page command takes no slot but keeps its FIFO place behind
//!    backlogged work. Open replay books an admitted command at once
//!    ([`CommandSession`]); the device-queued modes (`Gated`/`Qos`) queue
//!    it in the device's scheduler ([`QueuedSession`]), whose wakes are
//!    the loop's third event source.
//! 5. **Completion queues** — completions aggregate under interrupt
//!    coalescing into per-command delivery times. The coalescer's timeout
//!    is a scheduled timer event, so a delivery can wake a stalled
//!    submission queue at the exact expiry instant.
//!
//! Every stage is an exact identity under its neutral configuration, so
//! [`HostConfig::passthrough`] forwards the input trace bit-for-bit —
//! there is deliberately **no** pass-through shortcut branch; the
//! identity falls out of the generic pipeline (the interleaved loop
//! included), which is what claim C13 verifies in every replay mode.

use crate::block::{merge_adjacent, split, writeback_runs, Command};
use crate::cache::{CacheStats, PageCache, Writeback};
use crate::config::HostConfig;
use crate::queue::{CqState, DoorbellQueue, Ring};
use crate::report::{HostRequestLog, HostRunReport, QueueStats};
use dloop_ftl_kit::device::{CommandSession, QueuedSession, ReplayMode, SsdDevice};
use dloop_ftl_kit::metrics::RunReport;
use dloop_ftl_kit::request::{HostOp, HostRequest};
use dloop_simkit::trace::{QueueDepthProbe, Span, SpanKind, SpanPhase};
use dloop_simkit::{ArrivalOrder, SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// The host I/O path in front of an [`SsdDevice`]. Stateless between
/// runs: all state (cache contents, queue occupancy) is per-run, so two
/// runs at equal configuration are identical — the determinism leg of
/// claim C13.
#[derive(Debug, Clone)]
pub struct HostStack {
    config: HostConfig,
}

/// What stages 1–3 (cache, block layer, doorbell batching) produce: the
/// forwarded command stream plus the per-host-request cache bookkeeping.
struct Staging {
    /// Device-bound commands, arrivals rewritten to their doorbell-ring
    /// times, in nondecreasing arrival order (stable on ties).
    forwarded: Vec<Command>,
    cache_stats: CacheStats,
    /// Per host request: when the cache finished its DRAM copies
    /// (`arrival` if it touched no page).
    cache_done: Vec<SimTime>,
    /// Per host request: served entirely from the cache?
    cache_served: Vec<bool>,
    split_commands: u64,
    merged_commands: u64,
    writeback_commands: u64,
    doorbells: u64,
}

/// What the host loop reports per forwarded command, plus the wrapped
/// device report.
struct DeviceOutcome {
    report: RunReport,
    /// Device admission instant (doorbell ring, or later under SQ
    /// backpressure).
    submit_of: Vec<SimTime>,
    /// Device completion instant.
    done_of: Vec<SimTime>,
    /// Interrupt delivery instant (frees the SQ slot).
    deliver_of: Vec<SimTime>,
    interrupts: u64,
    depth_stalls: u64,
}

impl HostStack {
    /// A stack with `config` (degenerate values clamped to neutral).
    pub fn new(config: HostConfig) -> Self {
        HostStack {
            config: config.normalized(),
        }
    }

    /// The (normalized) configuration this stack runs.
    pub fn config(&self) -> &HostConfig {
        &self.config
    }

    /// Drive `requests` through the host path and the device, in any
    /// replay mode, with the host and device event loops interleaved: a
    /// finite [`HostConfig::queue_depth`] holds as `queues` independent
    /// per-queue windows, completions (via the CQ coalescer) freeing slots
    /// and admitting the next command. A pass-through stack with
    /// `queue_depth: Some(d)` is thus a closed loop of `d` outstanding
    /// requests.
    ///
    /// Requests may be in any order: they are staged in `(arrival, index)`
    /// order, and the logs keep slice order. The device report's
    /// completion ids index the forwarded commands (see
    /// [`HostRunReport::device`]).
    pub fn run(
        &self,
        device: &mut SsdDevice,
        requests: &[HostRequest],
        mode: ReplayMode,
    ) -> HostRunReport {
        let staging = self.stage(requests);
        let outcome = self.drive(device, &staging.forwarded, mode);
        self.assemble(requests, staging, outcome)
    }

    /// Stages 1–3: cache, block-layer split, doorbell batching.
    fn stage(&self, requests: &[HostRequest]) -> Staging {
        let cfg = &self.config;

        // Stage 1+2: cache, then block-layer split, producing the command
        // arena in deterministic `(arrival, index)` order. DRAM cost is
        // per page: an N-page hit (or absorbed write) acknowledges after N
        // copies, and the hit pages of a partial miss delay its miss
        // commands.
        let page_cost =
            |pages: u64| SimDuration::from_nanos(cfg.cache_hit_ns.saturating_mul(pages));
        let mut cache = PageCache::new(cfg.cache_pages, cfg.dirty_ratio);
        let mut staged: Vec<Command> = Vec::with_capacity(requests.len());
        let mut cache_done: Vec<SimTime> = requests.iter().map(|r| r.arrival).collect();
        let mut cache_served = vec![false; requests.len()];
        let mut split_commands = 0u64;
        let mut writeback_commands = 0u64;
        let mut scratch: Vec<Command> = Vec::new();
        let mut push_split = |cmd: Command, staged: &mut Vec<Command>, split_commands: &mut u64| {
            scratch.clear();
            *split_commands += split(cmd, cfg.split_pages, &mut scratch);
            staged.append(&mut scratch);
        };
        // Write-backs are bare commands stamped at `arrival`.
        let writebacks = |wb: &mut Vec<Writeback>, arrival| {
            let at = HostRequest {
                arrival,
                ..HostRequest::default()
            };
            writeback_runs(std::mem::take(wb), at)
        };
        let mut wb: Vec<Writeback> = Vec::new();
        let mut misses: Vec<u64> = Vec::new();
        for i in ArrivalOrder::new(requests, |r| r.arrival).iter() {
            let r = &requests[i];
            wb.clear();
            if r.pages == 0 || !cache.enabled() {
                // Bare commands and the cache-less path forward verbatim.
                let cmd = Command::for_host(*r, i as u32);
                push_split(cmd, &mut staged, &mut split_commands);
                continue;
            }
            match r.op {
                HostOp::Write => {
                    for lpn in r.page_ops() {
                        cache.write(lpn, r.tenant, &mut wb);
                    }
                    cache.maybe_flush(&mut wb);
                    cache_done[i] = r.arrival + page_cost(r.pages as u64);
                    cache_served[i] = true;
                }
                HostOp::Read => {
                    misses.clear();
                    for lpn in r.page_ops() {
                        if !cache.read(lpn, r.tenant, &mut wb) {
                            misses.push(lpn);
                        }
                    }
                    let hits = r.pages as u64 - misses.len() as u64;
                    cache_done[i] = r.arrival + page_cost(hits);
                    if misses.is_empty() {
                        cache_served[i] = true;
                    }
                    // Contiguous miss runs become read commands, staged
                    // after the hit pages' DRAM copies.
                    for run in misses.chunk_by(|a, b| *b == *a + 1) {
                        let miss = HostRequest {
                            arrival: cache_done[i],
                            lpn: run[0],
                            pages: run.len() as u32,
                            ..*r
                        };
                        let cmd = Command::for_host(miss, i as u32);
                        push_split(cmd, &mut staged, &mut split_commands);
                    }
                }
            }
            for cmd in writebacks(&mut wb, r.arrival) {
                writeback_commands += 1;
                push_split(cmd, &mut staged, &mut split_commands);
            }
        }
        if cfg.drain_cache && cache.enabled() {
            wb.clear();
            cache.drain(&mut wb);
            let end = requests.iter().map(|r| r.arrival).max();
            for cmd in writebacks(&mut wb, end.unwrap_or(SimTime::ZERO)) {
                writeback_commands += 1;
                push_split(cmd, &mut staged, &mut split_commands);
            }
        }
        // Partial-hit DRAM copies can push a miss command past the next
        // request's arrival; restore nondecreasing staging order for the
        // doorbells (stable: the cache-less stream is already sorted, so
        // this is the identity there).
        staged.sort_by_key(|c| c.req.arrival);

        // Stage 3: doorbell batching per submission queue (commands keep
        // their staging order inside a batch; the ring rewrites arrivals).
        let nq = cfg.queues as usize;
        let mut bells: Vec<DoorbellQueue> = (0..nq)
            .map(|_| DoorbellQueue::new(cfg.doorbell_batch, cfg.doorbell_timeout))
            .collect();
        let mut arena: Vec<Option<Command>> = staged.into_iter().map(Some).collect();
        let mut forwarded: Vec<Command> = Vec::with_capacity(arena.len());
        let mut merged_commands = 0u64;
        let mut rings: Vec<Ring> = Vec::new();
        let ring_out = |ring: Ring,
                        arena: &mut Vec<Option<Command>>,
                        forwarded: &mut Vec<Command>,
                        merged_commands: &mut u64| {
            let mut batch: Vec<Command> = ring
                .commands
                .iter()
                .map(|&id| arena[id as usize].take().expect("command rung once"))
                .collect();
            if cfg.merge {
                *merged_commands += merge_adjacent(&mut batch);
            }
            for mut cmd in batch {
                cmd.req.arrival = ring.at;
                forwarded.push(cmd);
            }
        };
        for id in 0..arena.len() {
            let (arrival, tenant) = {
                let cmd = arena[id].as_ref().expect("not yet rung");
                (cmd.req.arrival, cmd.req.tenant)
            };
            rings.clear();
            bells[tenant as usize % nq].push(arrival, id as u64, &mut rings);
            for ring in rings.drain(..) {
                ring_out(ring, &mut arena, &mut forwarded, &mut merged_commands);
            }
        }
        for bell in &mut bells {
            rings.clear();
            bell.flush(&mut rings);
            for ring in rings.drain(..) {
                ring_out(ring, &mut arena, &mut forwarded, &mut merged_commands);
            }
        }
        debug_assert!(arena.iter().all(|c| c.is_none()), "every command rung");
        // Device arrivals may interleave across queues; restore global
        // arrival order (stable: equal arrivals keep ring order).
        forwarded.sort_by_key(|c| c.req.arrival);
        let doorbells: u64 = bells.iter().map(|b| b.rings).sum();

        Staging {
            forwarded,
            cache_stats: cache.stats,
            cache_done,
            cache_served,
            split_commands,
            merged_commands,
            writeback_commands,
            doorbells,
        }
    }

    /// Stages 4–6: the host event loop feeds the device one command at a
    /// time, enforcing at most `queue_depth` in-flight commands per SQ,
    /// through a [`CommandSession`] under open replay and a
    /// [`QueuedSession`] under the device-queued modes.
    fn drive(
        &self,
        device: &mut SsdDevice,
        forwarded: &[Command],
        mode: ReplayMode,
    ) -> DeviceOutcome {
        let cfg = &self.config;
        let n = forwarded.len();
        let nq = cfg.queues as usize;
        let mut discipline = mode.discipline();
        let session = match &mut discipline {
            None => {
                let mut session = device.begin_commands();
                session.reserve(n);
                Session::Open(session)
            }
            Some((depth, policy, fifo)) => {
                Session::Queued(device.begin_queued(*depth, policy.as_mut(), *fifo))
            }
        };
        let mut lp = InterleavedLoop {
            forwarded,
            nq,
            depth: cfg.queue_depth.map(|d| d as usize),
            rings: ArrivalOrder::new(forwarded, |c| c.req.arrival),
            next_ring: 0,
            heap: BinaryHeap::new(),
            backlog: vec![VecDeque::new(); nq],
            in_flight: vec![0; nq],
            cqs: (0..nq)
                .map(|_| CqState::new(cfg.coalesce_threshold, cfg.coalesce_timeout))
                .collect(),
            submit_of: vec![SimTime::ZERO; n],
            done_of: vec![SimTime::ZERO; n],
            deliver_of: vec![SimTime::ZERO; n],
            depth_stalls: 0,
            session,
            delivered: Vec::new(),
            now_max: SimTime::ZERO,
        };
        lp.run();
        DeviceOutcome {
            interrupts: lp.cqs.iter().map(|c| c.interrupts).sum(),
            report: match lp.session {
                Session::Open(session) => session.finish(),
                Session::Queued(session) => session.finish(),
            },
            submit_of: lp.submit_of,
            done_of: lp.done_of,
            deliver_of: lp.deliver_of,
            depth_stalls: lp.depth_stalls,
        }
    }

    /// Stage 7: fold per-command times back into per-host-request
    /// timelines, emit the host-phase spans, build the SQ occupancy log.
    fn assemble(
        &self,
        requests: &[HostRequest],
        staging: Staging,
        outcome: DeviceOutcome,
    ) -> HostRunReport {
        let cfg = &self.config;
        let nq = cfg.queues as usize;
        let Staging {
            forwarded,
            cache_stats,
            cache_done,
            cache_served,
            split_commands,
            merged_commands,
            writeback_commands,
            doorbells,
        } = staging;
        let DeviceOutcome {
            report: device_report,
            submit_of,
            done_of,
            deliver_of,
            interrupts,
            depth_stalls,
        } = outcome;

        // Per host request: the earliest submit and the latest done and
        // deliver over the commands serving it (min and max commute, so
        // command order does not matter).
        let mut device_span: Vec<(SimTime, SimTime, SimTime)> =
            vec![(SimTime::MAX, SimTime::ZERO, SimTime::ZERO); requests.len()];
        for (idx, cmd) in forwarded.iter().enumerate() {
            for &h in &cmd.hosts {
                let (submit, done, deliver) = &mut device_span[h as usize];
                *submit = (*submit).min(submit_of[idx]);
                *done = (*done).max(done_of[idx]);
                *deliver = (*deliver).max(deliver_of[idx]);
            }
        }
        let mut logs: Vec<HostRequestLog> = Vec::with_capacity(requests.len());
        let mut host_spans: Vec<Span> = Vec::new();
        for (i, r) in requests.iter().enumerate() {
            let log = if cache_served[i] {
                let done = cache_done[i];
                HostRequestLog {
                    arrival: r.arrival,
                    cache_done: done,
                    submit: done,
                    done,
                    deliver: done,
                    cache_served: true,
                }
            } else {
                let (submit, done, deliver) = device_span[i];
                debug_assert!(submit != SimTime::MAX, "device-served request has commands");
                let submit = submit.max(cache_done[i]);
                HostRequestLog {
                    arrival: r.arrival,
                    cache_done: cache_done[i],
                    submit,
                    done: done.max(submit),
                    deliver: deliver.max(done).max(submit),
                    cache_served: false,
                }
            };
            let kind = match r.op {
                HostOp::Read => SpanKind::Read,
                HostOp::Write => SpanKind::Write,
            };
            // A cache-served request has only a cache phase: its other
            // instants all equal `cache_done`.
            for (phase, start, end) in [
                (SpanPhase::Cache, log.arrival, log.cache_done),
                (SpanPhase::HostQueue, log.cache_done, log.submit),
                (SpanPhase::Completion, log.done, log.deliver),
            ] {
                if end > start {
                    host_spans.push(host_span(kind, phase, r, i, start, end));
                }
            }
            logs.push(log);
        }

        // The SQ occupancy log, in canonical `(deliver, command)` order, so
        // equal runs log identically whatever order the loop processed
        // their deliveries in. Zero-page commands occupy no slot — they
        // pass the window through — so they are omitted and the per-queue
        // gauge is the slot count.
        let mut sq_log = QueueDepthProbe::new();
        let mut order: Vec<usize> = (0..forwarded.len()).collect();
        order.sort_by_key(|&i| (deliver_of[i], i));
        for i in order {
            if forwarded[i].req.pages == 0 {
                continue;
            }
            let q = forwarded[i].req.tenant as usize % nq;
            sq_log.track(
                q as u16,
                forwarded[i].req.arrival,
                submit_of[i],
                deliver_of[i],
            );
        }

        HostRunReport {
            device: device_report,
            requests: logs,
            cache: cache_stats,
            queues: QueueStats {
                submissions: forwarded.len() as u64,
                doorbells,
                interrupts,
                depth_stalls,
            },
            forwarded: forwarded.len() as u64,
            split_commands,
            merged_commands,
            writeback_commands,
            queue_depth: cfg.queue_depth,
            sq_log,
            host_spans,
        }
    }
}

/// Events of the interleaved host/device loop. The derived order is the
/// firing order at equal times: CQ timers deliver before same-instant
/// completions (a timer with `expiry <= done` fires before the push),
/// completions free slots before same-instant doorbell rings claim them,
/// device wakes come last, and each variant breaks remaining ties by its
/// payload, so the order is total and the loop deterministic. Only timers
/// and completions live in the heap; doorbell rings are known up front and
/// come from a cursor over the commands in `(arrival, cmd)` order, and
/// wakes from the device's own clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Ev {
    /// A CQ coalescing timeout armed in `epoch` expires.
    CqTimer { queue: u32, epoch: u64 },
    /// Forwarded command `cmd` completes on the device.
    Done { cmd: u32 },
    /// Forwarded command `cmd`'s doorbell rings (it becomes admissible).
    Ready { cmd: u32 },
    /// The device's queueing scheduler looks again.
    Wake,
}

/// The device side of the host loop, one per run (so its variants'
/// sizes do not matter): open replay books each admitted command at once,
/// the device-queued modes queue it in the scheduler, which has wakes.
#[allow(clippy::large_enum_variant)]
enum Session<'d> {
    Open(CommandSession<'d>),
    Queued(QueuedSession<'d>),
}

/// The interleaved host/device event loop (see `HostStack::drive`).
///
/// Invariants: events pop in nondecreasing time; a command is admitted
/// (submitted to the device session) the instant its queue first has a
/// free slot at-or-after its doorbell ring, FIFO per queue; every slot
/// freed by a delivery immediately re-admits from the backlog at the
/// delivery instant (the slot-free wake rule — no busy interval ends
/// without a wake).
struct InterleavedLoop<'a, 'd> {
    forwarded: &'a [Command],
    nq: usize,
    depth: Option<usize>,
    /// The commands in doorbell-ring order, and the cursor's position.
    rings: ArrivalOrder,
    next_ring: usize,
    /// Pending `Done` and `CqTimer` events (never `Ready` or `Wake`).
    heap: BinaryHeap<Reverse<(SimTime, Ev)>>,
    /// Per queue: commands rung but not yet admitted, ring order.
    backlog: Vec<VecDeque<u32>>,
    /// Per queue: commands admitted but not yet delivered.
    in_flight: Vec<usize>,
    cqs: Vec<CqState>,
    submit_of: Vec<SimTime>,
    done_of: Vec<SimTime>,
    deliver_of: Vec<SimTime>,
    depth_stalls: u64,
    session: Session<'d>,
    /// Scratch for coalescer output, drained by `settle_and_admit`.
    delivered: Vec<(u64, SimTime)>,
    /// Latest event time popped so far (the simulation clock).
    now_max: SimTime,
}

impl InterleavedLoop<'_, '_> {
    fn queue_of(&self, cmd: usize) -> usize {
        self.forwarded[cmd].req.tenant as usize % self.nq
    }

    /// The next event in `(time, Ev)` order: the earliest of the next
    /// doorbell ring, the heap's top and the device's next wake. The heap
    /// wins ties with the ring (timers and completions sort before rings),
    /// and a wake loses ties to both, so a submission at an instant reaches
    /// the device before that instant's wakes, as arrivals do in
    /// `SsdDevice::run_with`.
    fn pop(&mut self) -> Option<(SimTime, Ev)> {
        let top = self.heap.peek().map(|&Reverse((at, _))| at);
        let ring = self
            .rings
            .get(self.next_ring)
            .map(|cmd| (self.forwarded[cmd].req.arrival, cmd))
            .filter(|&(at, _)| top.is_none_or(|top| at < top));
        let host = ring.map(|(at, _)| at).or(top);
        if let Session::Queued(session) = &self.session {
            if let Some(wake) = session.next_wake().filter(|&w| host.is_none_or(|h| w < h)) {
                return Some((wake, Ev::Wake));
            }
        }
        if let Some((at, cmd)) = ring {
            self.next_ring += 1;
            return Some((at, Ev::Ready { cmd: cmd as u32 }));
        }
        self.heap.pop().map(|Reverse(ev)| ev)
    }

    /// Queue a `Done` event for every command the queued session finished.
    fn collect_finished(&mut self) {
        if let Session::Queued(session) = &mut self.session {
            self.heap.extend(
                session
                    .drain_finished()
                    .map(|(cmd, done)| Reverse((done, Ev::Done { cmd: cmd as u32 }))),
            );
        }
    }

    fn run(&mut self) {
        loop {
            while let Some((now, ev)) = self.pop() {
                debug_assert!(now >= self.now_max, "host clock ran backwards");
                self.now_max = now;
                match ev {
                    Ev::Ready { cmd } => {
                        let q = self.queue_of(cmd as usize);
                        self.backlog[q].push_back(cmd);
                        self.admit(q, now);
                    }
                    Ev::Done { cmd } => {
                        self.done_of[cmd as usize] = now;
                        let q = self.queue_of(cmd as usize);
                        if let Some((expiry, epoch)) =
                            self.cqs[q].push(now, cmd as u64, &mut self.delivered)
                        {
                            self.heap.push(Reverse((
                                expiry,
                                Ev::CqTimer {
                                    queue: q as u32,
                                    epoch,
                                },
                            )));
                        }
                        self.settle_and_admit(q, now);
                    }
                    Ev::CqTimer { queue, epoch } => {
                        let q = queue as usize;
                        self.cqs[q].timer(now, epoch, &mut self.delivered);
                        self.settle_and_admit(q, now);
                    }
                    Ev::Wake => {
                        if let Session::Queued(session) = &mut self.session {
                            session.wake();
                        }
                        self.collect_finished();
                    }
                }
            }
            if self.backlog.iter().all(|b| b.is_empty()) {
                break;
            }
            // SQ-window deadlock rescue: every event has fired but
            // commands are still backlogged — the partial CQ aggregates
            // can never fill because the window they would free is
            // exhausted (coalesce threshold > depth with no timeout).
            // Deliver them at their natural flush instants so the windows
            // reopen; admission resumes no earlier than the simulation
            // clock has already advanced.
            let mut progressed = false;
            for q in 0..self.nq {
                if !self.cqs[q].has_pending() {
                    continue;
                }
                self.cqs[q].flush(&mut self.delivered);
                progressed = true;
                let floor = self.now_max;
                self.settle_and_admit(q, floor);
            }
            assert!(
                progressed,
                "interleaved host loop stalled: backlogged commands with no \
                 pending completion to free a slot"
            );
        }
        // End of run: aggregates still pending (only possible without a
        // coalesce timeout — a timer would have fired otherwise) deliver
        // at their natural flush instant. Nothing is left to admit.
        for q in 0..self.nq {
            self.cqs[q].flush(&mut self.delivered);
            self.settle_and_admit(q, self.now_max);
        }
    }

    /// Admit backlogged commands of queue `q` while it has free slots,
    /// FIFO, submitting each to the device session at `now`.
    fn admit(&mut self, q: usize, now: SimTime) {
        while let Some(&cmd) = self.backlog[q].front() {
            let c = &self.forwarded[cmd as usize];
            // Zero-page commands do no flash work: they pass through
            // without occupying a slot, but still FIFO behind backlogged
            // work.
            let takes_slot = c.req.pages > 0;
            if takes_slot {
                if let Some(d) = self.depth {
                    if self.in_flight[q] >= d {
                        return;
                    }
                }
            }
            self.backlog[q].pop_front();
            if now > c.req.arrival {
                self.depth_stalls += 1;
            }
            self.submit_of[cmd as usize] = now;
            if takes_slot {
                self.in_flight[q] += 1;
            }
            match &mut self.session {
                Session::Open(session) => {
                    let done = session.submit(&c.req, cmd as u64, now);
                    self.heap.push(Reverse((done, Ev::Done { cmd })));
                }
                Session::Queued(session) => {
                    session.submit(&c.req, cmd as u64, now);
                    self.collect_finished();
                }
            }
        }
    }

    /// Drain the coalescer output scratch: record deliveries, free the
    /// slots they occupied, and re-admit from the backlog at the delivery
    /// instant (clamped to `floor`, which only differs from it in the
    /// deadlock rescue).
    fn settle_and_admit(&mut self, q: usize, floor: SimTime) {
        let delivered = std::mem::take(&mut self.delivered);
        let mut last_at = None;
        for &(id, at) in &delivered {
            self.deliver_of[id as usize] = at;
            if self.forwarded[id as usize].req.pages > 0 {
                self.in_flight[q] -= 1;
            }
            last_at = Some(at);
        }
        self.delivered = delivered;
        self.delivered.clear();
        if let Some(at) = last_at {
            self.admit(q, at.max(floor));
        }
    }
}

/// A host-phase span: pure queueing/cache/coalescing residence, no
/// device resource held (empty segments, zero hardware buckets — only
/// `total_ms` of the attribution table accrues).
fn host_span(
    kind: SpanKind,
    phase: SpanPhase,
    r: &HostRequest,
    host: usize,
    start: SimTime,
    end: SimTime,
) -> Span {
    Span {
        kind,
        phase,
        lpn: Some(r.lpn),
        req: Some(host as u64),
        plane: 0,
        dst_plane: None,
        issue: start,
        end,
        retry_ns: 0,
        retry_steps: 0,
        segs: [None, None, None, None],
    }
}
