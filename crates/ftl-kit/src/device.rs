//! The SSD device controller: trace replay, request splitting, dispatch,
//! and metrics collection.
//!
//! This is the reproduction's version of FlashSim's top-level
//! "buffering/scheduling" function (paper Fig. 7): it receives host
//! requests from the trace reader, splits them into single-page operations,
//! asks the FTL to translate each into an [`OpChain`], and plays the chain
//! against the [`HardwareModel`]. Requests are processed in arrival order
//! through the event queue; chains of different operations interleave
//! across planes and channels through the resource timelines, which is the
//! same behaviour the paper's priority list produces (ready operations on
//! free resources proceed immediately, blocked ones wait FIFO on their
//! resource).
//!
//! There is one implementation of each job here. Arrival-reserving replay
//! (open, closed) is an admission rule in front of
//! [`CommandSession::submit`]; queueing replay (gated, NCQ, QoS) is one
//! scheduler loop, `run_queued`, under two disciplines; and every chain
//! any of them plays goes through the one player in `play.rs`.

use crate::config::SsdConfig;
use crate::dir::{PageDirectory, PageOwner};
use crate::ftl::{Ftl, FtlContext, FtlCounters, OpChain, Phase};
use crate::metrics::{RunReport, ShardGuard, ShardOutcome};
use crate::play::{play_op, PageOp, Played, ScanOrder};
use crate::request::{HostOp, HostRequest};
use crate::sched::{QosCandidate, QosPolicy, QosSpec, WindowFifoPolicy};
use dloop_nand::{FlashState, HardwareModel, MediaCounters, PageState};
use dloop_simkit::trace::{QueueDepthProbe, RingSink, TraceSink};
use dloop_simkit::{ArrivalOrder, EventQueue, Histogram, OnlineStats, SimTime};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Default reorder-window size for [`ReplayMode::Qos`] — SATA NCQ's
/// 32-entry command queue.
pub const DEFAULT_NCQ_DEPTH: usize = 32;

/// How a trace's host requests are admitted to the device during replay.
///
/// All four modes feed the same request-splitting, translation and
/// chain-playing machinery ([`SsdDevice::run_with`]); they differ only in *when*
/// a request's flash work may begin:
///
/// * [`ReplayMode::Open`] — open arrivals: every request books its flash
///   work at its trace arrival time. Resource timelines push the work into
///   the future under contention, so the backlog is unbounded (the classic
///   trace-replay model, and the mode the paper's figures use).
/// * [`ReplayMode::Gated`] — FlashSim's priority list (§IV.B): page
///   operations queue on arrival and are issued FIFO-with-skipping only
///   when the plane and channel their first step needs are both idle.
/// * [`ReplayMode::Closed { queue_depth }`](ReplayMode::Closed) — an
///   fio-style bounded host queue: at most `queue_depth` requests are
///   outstanding; request *i* issues at the later of its arrival and the
///   completion of request *i − queue_depth*.
/// * [`ReplayMode::Qos { queue_depth, policy }`](ReplayMode::Qos) —
///   bounded reordering: among the oldest `queue_depth` queued page
///   operations, issue any whose first host step's plane and channel are
///   idle *now*, choosing among them by a pluggable [`QosPolicy`]
///   described by a [`QosSpec`]. Plain NCQ ([`QosSpec::Ncq`],
///   [`RunConfig::ncq`]) prefers the op whose target plane has been idle
///   longest (ties by arrival order; fully deterministic). Reordering can
///   only fill planes the FIFO would have left idle, which is exactly the
///   plane-level parallelism DLOOP's allocation spreads writes across.
///   The other specs keep strict window order or add a power cap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayMode {
    /// Open arrivals (unbounded backlog): resources are booked at arrival.
    Open,
    /// Issue-gated replay through the FlashSim priority list.
    Gated,
    /// Closed-loop replay with a bounded host queue of `queue_depth`.
    Closed {
        /// Maximum simultaneously outstanding requests (must be ≥ 1).
        queue_depth: usize,
    },
    /// NCQ window with a QoS selection policy arbitrating inside it. For
    /// a custom or stateful policy instance, use
    /// [`SsdDevice::run_with_policy`] directly instead.
    Qos {
        /// Reorder-window size (must be ≥ 1); [`DEFAULT_NCQ_DEPTH`] is
        /// the conventional choice.
        queue_depth: usize,
        /// Which selection policy arbitrates inside the window.
        policy: QosSpec,
    },
}

impl ReplayMode {
    /// The queue depth of the modes that have one (closed, QoS).
    fn queue_depth(self) -> Option<usize> {
        match self {
            ReplayMode::Open | ReplayMode::Gated => None,
            ReplayMode::Closed { queue_depth } | ReplayMode::Qos { queue_depth, .. } => {
                Some(queue_depth)
            }
        }
    }
}

/// Builder-style description of one replay: the admission mode plus every
/// orthogonal knob that used to ride as a positional argument on a
/// per-mode entry point. Consumed by [`SsdDevice::run_with`].
///
/// ```
/// use dloop_ftl_kit::device::RunConfig;
/// use dloop_ftl_kit::sched::QosSpec;
///
/// let open = RunConfig::open();                     // ReplayMode::Open
/// let closed = RunConfig::closed(16);               // bounded host queue
/// let qos = RunConfig::qos(QosSpec::WindowFifo)    // QoS window…
///     .queue_depth(64)                              // …of 64 entries
///     .shards(4);                                   // parallel engine
/// # let _ = (open, closed, qos);
/// ```
///
/// The defaults reproduce [`ReplayMode::Open`] exactly (property-tested in
/// `tests/replay_modes.rs`): open arrivals, [`DEFAULT_NCQ_DEPTH`] queue
/// depth for the modes that use one, the neutral [`QosSpec::Ncq`] policy,
/// one shard (sequential engine), no sink change.
///
/// `shards` asks for the parallel engine (see `DESIGN.md` §3f): the
/// device is partitioned into contiguous channel groups, each translating
/// and playing its own page operations on a worker thread, with a
/// deterministic merge that keeps every report field **bit-identical** to
/// the sequential engine. Only an open-arrival replay of a plane-pure
/// device can engage it; closed mode and the globally-coupled schedulers
/// (gated/NCQ/QoS) accept the knob but run sequentially, so identity
/// holds trivially there. [`RunReport::shard_outcome`] says which
/// happened and, for a fallback, which guard fired.
#[derive(Debug)]
pub struct RunConfig {
    mode: ReplayMode,
    shards: usize,
    sink: Option<Box<dyn TraceSink>>,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig::from(ReplayMode::Open)
    }
}

impl From<ReplayMode> for RunConfig {
    fn from(mode: ReplayMode) -> Self {
        RunConfig {
            mode,
            shards: 1,
            sink: None,
        }
    }
}

impl RunConfig {
    /// Open arrivals — identical to the all-default config.
    pub fn open() -> Self {
        RunConfig::default()
    }

    /// Issue-gated replay (the FlashSim priority list).
    pub fn gated() -> Self {
        RunConfig::from(ReplayMode::Gated)
    }

    /// Closed-loop replay with a bounded host queue of `queue_depth`.
    pub fn closed(queue_depth: usize) -> Self {
        RunConfig::from(ReplayMode::Closed { queue_depth })
    }

    /// Plain NCQ reordering over a `queue_depth` window: the QoS window
    /// under the neutral [`QosSpec::Ncq`] policy.
    pub fn ncq(queue_depth: usize) -> Self {
        RunConfig::from(ReplayMode::Qos {
            queue_depth,
            policy: QosSpec::Ncq,
        })
    }

    /// QoS-arbitrated NCQ window under `policy`, at [`DEFAULT_NCQ_DEPTH`]
    /// unless overridden with [`RunConfig::queue_depth`].
    pub fn qos(policy: QosSpec) -> Self {
        RunConfig::from(ReplayMode::Qos {
            queue_depth: DEFAULT_NCQ_DEPTH,
            policy,
        })
    }

    /// Override the queue depth of the modes that have one (closed, QoS;
    /// it must be ≥ 1). Open and gated replay have none and ignore it.
    pub fn queue_depth(mut self, depth: usize) -> Self {
        if let ReplayMode::Closed { queue_depth } | ReplayMode::Qos { queue_depth, .. } =
            &mut self.mode
        {
            *queue_depth = depth;
        }
        self
    }

    /// Run on `shards` parallel channel-group workers (clamped to the
    /// channel count; `1` = the sequential engine). Reports are
    /// bit-identical either way.
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Attach `sink` to the device before the run (replacing any attached
    /// sink, exactly like [`SsdDevice::attach_sink`]; it stays attached
    /// afterwards so it can be inspected or detached).
    pub fn attach_sink(mut self, sink: Box<dyn TraceSink>) -> Self {
        self.sink = Some(sink);
        self
    }
}

/// Per-replay measurement accumulator shared by every [`ReplayMode`]: the
/// response-time distribution, page counts and simulated end time that
/// [`SsdDevice::finish_report`] folds into the [`RunReport`]. Keeping a
/// single accumulator (and a single completion path) is what guarantees
/// the modes count requests identically.
pub(crate) struct ReplayStats {
    response_ms: OnlineStats,
    /// µs buckets up to ~2^39 µs.
    hist: Histogram,
    pages_read: u64,
    pages_written: u64,
    sim_end: SimTime,
    /// Per-request completion log: `(request index, arrival, done)`, in
    /// completion-record order. This is what lets a wrapping layer (the
    /// `dloop-host` stack) map each request of the slice it replayed to
    /// its exact completion instant.
    completions: Vec<(u64, SimTime, SimTime)>,
    /// Host-queue occupancy log: `(arrival, issue, done)` per admitted
    /// unit of work. Every driver records it (so Open ≡ Closed{∞} holds
    /// field-for-field); the arrival-reserving drivers track whole
    /// requests, the queueing drivers track page operations.
    pub(crate) queue: QueueDepthProbe,
}

impl ReplayStats {
    /// An empty accumulator with its two per-run logs sized up front: one
    /// completion record per request, `units` queue-probe records.
    pub(crate) fn with_capacity(requests: usize, units: usize) -> Self {
        ReplayStats {
            response_ms: OnlineStats::new(),
            hist: Histogram::new(1.0, 40),
            pages_read: 0,
            pages_written: 0,
            sim_end: SimTime::ZERO,
            completions: Vec::with_capacity(requests),
            queue: QueueDepthProbe::with_capacity(units),
        }
    }

    /// Make room for `units` more completion and queue-probe records.
    fn reserve(&mut self, units: usize) {
        self.completions.reserve(units);
        self.queue.reserve(units);
    }

    /// Sized for a queueing driver, whose probe tracks page operations
    /// (and one instant record per zero-page request).
    fn for_queued(requests: &[HostRequest]) -> Self {
        let units = requests.iter().map(|r| r.pages.max(1) as usize).sum();
        Self::with_capacity(requests.len(), units)
    }

    /// Count one page operation of kind `op`.
    pub(crate) fn count_page(&mut self, op: HostOp) {
        match op {
            HostOp::Read => self.pages_read += 1,
            HostOp::Write => self.pages_written += 1,
        }
    }

    /// Record request `req` (its index in the replayed slice) arriving at
    /// `arrival` and finishing at `done`.
    pub(crate) fn complete(&mut self, req: u64, arrival: SimTime, done: SimTime) {
        self.sim_end = self.sim_end.max(done);
        self.completions.push((req, arrival, done));
        let resp = done.saturating_since(arrival);
        self.response_ms.push(resp.as_millis_f64());
        self.hist.record(resp.as_micros_f64());
    }
}

/// One translated page operation waiting in the queueing scheduler: the
/// chains the FTL produced at arrival time, the policy's view of the op,
/// and the bookkeeping needed to finish its host request. Its arrival
/// sequence number is `cand.seq`, which is also its slot in the
/// scheduler's slab (offset by the slab's base).
struct QueuedOp {
    req: usize,
    lpn: u64,
    host: OpChain,
    gc: OpChain,
    scan: OpChain,
    /// Built at arrival. Its tenant and arrival also feed the queue probe
    /// and the completion log; its plane is the op's lane (`0`, and unused,
    /// for a chain-less op).
    cand: QosCandidate,
    /// `policy.lane_key(&cand)`, taken at arrival (`0`, and never asked
    /// for, for a chain-less op).
    key: u64,
}

/// The event source of the queueing schedulers: a cursor over the trace in
/// canonical `(arrival, index)` order, merged with a heap that holds
/// *only* wakes — a handful of entries however long the trace is.
struct WakeClock<'a> {
    requests: &'a [HostRequest],
    order: ArrivalOrder,
    /// Position in `order` of the next arrival.
    next: usize,
    /// Resource-release instants still ahead (no payload: a wake only
    /// says "look again").
    wakes: EventQueue<()>,
    now: SimTime,
}

impl<'a> WakeClock<'a> {
    fn new(requests: &'a [HostRequest]) -> Self {
        WakeClock {
            requests,
            order: ArrivalOrder::new(requests, |r| r.arrival),
            next: 0,
            wakes: EventQueue::new(),
            now: SimTime::ZERO,
        }
    }

    /// The next event: `(instant, Some(request index))` for an arrival,
    /// `(instant, None)` for *all* wakes due at that instant, retired
    /// together — after the first scheduler pass at an instant nothing has
    /// changed for a second one to act on. At equal instants arrivals fire
    /// first (in canonical order, one event each), then the wakes.
    fn pop(&mut self) -> Option<(SimTime, Option<usize>)> {
        let arrival = self.order.get(self.next);
        let arrival_at = arrival.map(|i| self.requests[i].arrival);
        let wake_at = self.wakes.peek_time();
        let at = match (arrival_at, wake_at) {
            (Some(a), Some(w)) => a.min(w),
            (a, w) => a.or(w)?,
        };
        // The wake heap's own past-check never sees arrivals.
        debug_assert!(at >= self.now, "clock ran backwards: {at} < {}", self.now);
        self.now = at;
        if arrival_at == Some(at) {
            self.next += 1;
            return Some((at, arrival));
        }
        while self.wakes.peek_time() == Some(at) {
            self.wakes.pop();
        }
        Some((at, None))
    }
}

/// A set of plane indices, one bit each, walked in ascending order: the
/// queueing scheduler's non-empty lanes.
struct PlaneSet(Vec<u64>);

impl PlaneSet {
    fn new(planes: usize) -> Self {
        PlaneSet(vec![0; planes.div_ceil(64)])
    }

    fn insert(&mut self, plane: usize) {
        self.0[plane / 64] |= 1 << (plane % 64);
    }

    fn remove(&mut self, plane: usize) {
        self.0[plane / 64] &= !(1 << (plane % 64));
    }

    /// The members, lowest first.
    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        let mut words = self.0.iter().copied().enumerate();
        let (mut word, mut bits) = (0, 0u64);
        std::iter::from_fn(move || {
            while bits == 0 {
                (word, bits) = words.next()?;
            }
            let bit = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            Some(word * 64 + bit)
        })
    }
}

/// A simulated SSD: flash state + hardware timing + one FTL.
pub struct SsdDevice {
    pub(crate) config: SsdConfig,
    pub(crate) flash: FlashState,
    pub(crate) dir: PageDirectory,
    pub(crate) hw: HardwareModel,
    pub(crate) ftl: Box<dyn Ftl>,
    pub(crate) plane_counts: Vec<u64>,
    /// Played-out chains whose allocations the next
    /// [`SsdDevice::translate_page_op`] reuses.
    free_chains: Vec<OpChain>,
    /// Flash totals at the last measurement reset, so reports cover only
    /// the measured window (warm-up traffic is excluded).
    baseline: (u64, u64, u64),
    /// Media reliability counters at the last measurement reset.
    media_baseline: MediaCounters,
    /// FTL scheme counters at the last measurement reset, so reports cover
    /// only the measured window (like flash totals and media counters).
    ftl_baseline: FtlCounters,
    wait_ms: OnlineStats,
    service_ms: OnlineStats,
    gc_block_ms: OnlineStats,
}

impl SsdDevice {
    /// Build a device from a configuration and an FTL instance.
    pub fn new(config: SsdConfig, ftl: Box<dyn Ftl>) -> Self {
        let geometry = config.geometry();
        let mut flash = FlashState::new(geometry.clone());
        flash.attach_media(&config.fault);
        let dir = PageDirectory::new(&geometry);
        let hw = HardwareModel::new(&geometry, config.timing.clone(), config.die_serialized);
        let planes = geometry.total_planes() as usize;
        SsdDevice {
            config,
            flash,
            dir,
            hw,
            ftl,
            plane_counts: vec![0; planes],
            free_chains: Vec::new(),
            baseline: (0, 0, 0),
            media_baseline: MediaCounters::default(),
            ftl_baseline: FtlCounters::default(),
            wait_ms: OnlineStats::new(),
            service_ms: OnlineStats::new(),
            gc_block_ms: OnlineStats::new(),
        }
    }

    /// Attach `sink` as the destination for op-level spans, replacing any
    /// previously attached sink. Recording is pure observation — every
    /// [`RunReport`] field is bit-identical with a sink attached or not
    /// (property-tested in `tests/trace_purity.rs`).
    pub fn attach_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.hw.attach_sink(sink);
    }

    /// Detach and return the span sink; the device stops tracing. A
    /// detached device is bit-identical to one that never traced.
    pub fn detach_sink(&mut self) -> Option<Box<dyn TraceSink>> {
        self.hw.detach_sink()
    }

    /// The attached span sink, if any.
    pub fn sink(&self) -> Option<&dyn TraceSink> {
        self.hw.sink()
    }

    /// Detach and return the attached [`RingSink`]; the device stops
    /// tracing. Returns `None` — without disturbing the sink — when the
    /// attached sink is not a ring; use [`SsdDevice::detach_sink`] for
    /// any other sink.
    pub fn take_trace(&mut self) -> Option<RingSink> {
        if !self.sink()?.as_any().is::<RingSink>() {
            return None;
        }
        let sink = self.detach_sink()?;
        sink.into_any()
            .downcast::<RingSink>()
            .ok()
            .map(|ring| *ring)
    }

    /// The active configuration.
    pub fn config(&self) -> &SsdConfig {
        &self.config
    }

    /// The flash state (tests, audits).
    pub fn flash(&self) -> &FlashState {
        &self.flash
    }

    /// The page directory (tests, audits).
    pub fn dir(&self) -> &PageDirectory {
        &self.dir
    }

    /// The FTL (tests, audits).
    pub fn ftl(&self) -> &dyn Ftl {
        self.ftl.as_ref()
    }

    /// Media reliability counters accumulated since the last measurement
    /// reset (all zero for a device without an attached fault plan).
    fn media_delta(&self) -> MediaCounters {
        self.flash
            .media_counters()
            .map(|c| c.since(&self.media_baseline))
            .unwrap_or_default()
    }

    /// Replay `requests` as described by `config` — the single
    /// fully-general replay entry point. The admission mode, queue depth,
    /// QoS policy, shard count and optional sink attachment all ride in
    /// the [`RunConfig`]; a bare [`ReplayMode`] converts with `.into()`.
    /// Requests may be in any order; they are processed by arrival time
    /// (FIFO among equal arrivals). All four modes share the
    /// request-splitting, translation, chain-playing and report-assembly
    /// code, so they provably agree on the flash work performed (see
    /// `tests/replay_modes.rs`).
    pub fn run_with(&mut self, requests: &[HostRequest], config: RunConfig) -> RunReport {
        let RunConfig { mode, shards, sink } = config;
        if let Some(sink) = sink {
            self.attach_sink(sink);
        }
        // A sharded request either engages the plane-local engine or
        // names the guard that sent it to the sequential one below.
        let mut outcome = ShardOutcome::NotRequested;
        if shards > 1 {
            let attempt = match mode {
                ReplayMode::Open => crate::shard::run_plane_local(self, requests, shards),
                ReplayMode::Closed { .. } => Err(ShardGuard::ClosedMode),
                ReplayMode::Gated | ReplayMode::Qos { .. } => Err(ShardGuard::QueueingMode),
            };
            match attempt {
                Ok(report) => return report,
                Err(guard) => outcome = ShardOutcome::FellBack(guard),
            }
        }
        assert!(
            mode.queue_depth() != Some(0),
            "queue depth must be at least 1"
        );
        let mut report = match mode {
            ReplayMode::Open => self.run_reserving(requests, None),
            ReplayMode::Closed { queue_depth } => self.run_reserving(requests, Some(queue_depth)),
            // FlashSim's priority list (§IV.B) is the queueing scheduler
            // with no window and arrival order as its only preference.
            ReplayMode::Gated => self.run_queued(requests, usize::MAX, &mut WindowFifoPolicy, true),
            ReplayMode::Qos {
                queue_depth,
                policy,
            } => self.run_queued(requests, queue_depth, policy.build().as_mut(), false),
        };
        report.shard_outcome = outcome;
        report
    }

    /// Replay `requests` through the QoS window with a caller-owned
    /// policy instance: like [`RunConfig::qos`], but the policy object
    /// outlives the run, so a stateful policy (e.g.
    /// [`crate::sched::PowerCapPolicy`]) can be inspected afterwards, and
    /// custom [`QosPolicy`] implementations outside this crate can plug
    /// in. Only `config`'s queue depth ([`DEFAULT_NCQ_DEPTH`] for a mode
    /// without one) and sink attachment are consulted; its [`QosSpec`] is
    /// superseded by `policy` (and a shard request falls back, like every
    /// queueing mode's).
    pub fn run_with_policy(
        &mut self,
        requests: &[HostRequest],
        config: RunConfig,
        policy: &mut dyn QosPolicy,
    ) -> RunReport {
        let RunConfig { mode, shards, sink } = config;
        if let Some(sink) = sink {
            self.attach_sink(sink);
        }
        let queue_depth = mode.queue_depth().unwrap_or(DEFAULT_NCQ_DEPTH);
        assert!(queue_depth >= 1, "queue depth must be at least 1");
        let mut report = self.run_queued(requests, queue_depth, policy, false);
        if shards > 1 {
            report.shard_outcome = ShardOutcome::FellBack(ShardGuard::QueueingMode);
        }
        report
    }

    /// Arrival-reserving replay: every page operation books its resources
    /// the moment its request is admitted. With `queue_depth: None`
    /// admission is the trace arrival itself (open mode); with `Some(d)` a
    /// request waits until fewer than `d` earlier requests are in flight
    /// (closed mode). Open is exactly closed with an infinite queue, and
    /// both are this admission rule in front of [`CommandSession::submit`]
    /// — which is what keeps the two modes, and the host stack's
    /// interleaved driver, bit-identical where they overlap.
    fn run_reserving(&mut self, requests: &[HostRequest], queue_depth: Option<usize>) -> RunReport {
        // Completion times of in-flight requests, earliest first (closed
        // mode only).
        // Capacity capped at the request count: a `usize::MAX` depth is a
        // legal "unbounded" spelling, not an allocation request.
        let mut in_flight: BinaryHeap<Reverse<SimTime>> =
            BinaryHeap::with_capacity(queue_depth.unwrap_or(0).min(requests.len()));
        let mut session = self.begin_commands();
        session.reserve(requests.len());

        for i in ArrivalOrder::new(requests, |r| r.arrival).iter() {
            let req = &requests[i];
            let mut issue = req.arrival;
            // Zero-page requests do no flash work: they complete at
            // arrival without occupying a queue slot.
            let slot = queue_depth.filter(|_| req.pages > 0);
            if let Some(depth) = slot {
                // Requests already completed by this arrival no longer
                // occupy queue slots: drain them first so the depth gate
                // (and the occupancy the probe reports) sees the true
                // in-flight count — a burst of zero-page requests
                // interleaved with full-queue admissions must not observe
                // a stale length. Draining never changes issue times: a
                // freed slot `<= arrival` contributes
                // `max(arrival, freed) = arrival` either way.
                while in_flight.peek().is_some_and(|&Reverse(t)| t <= req.arrival) {
                    in_flight.pop();
                }
                if in_flight.len() >= depth {
                    let Reverse(freed) = in_flight.pop().expect("queue depth at least 1");
                    issue = issue.max(freed);
                }
            }
            let done = session.submit(req, i as u64, issue);
            if slot.is_some() {
                in_flight.push(Reverse(done));
            }
        }
        session.finish()
    }

    /// Serve one page operation of host request `req`, booking its flash
    /// work at `issue`; returns the host completion time. The FTL's host
    /// chain gates the response; housekeeping for unrelated planes books
    /// first (it contends for resources but never gates this response),
    /// and the GC chain is then played on the same resource timelines
    /// (delaying *later* operations on those planes/buses) — the paper's
    /// Fig. 6 invokes GC after serving the write.
    fn serve_page_op(&mut self, lpn: u64, op: HostOp, issue: SimTime, req: u64) -> SimTime {
        let (host, gc, scan) = self.translate_page_op(lpn, op);
        let played = play_op(
            &mut self.hw,
            &mut self.plane_counts,
            0,
            &PageOp {
                req,
                lpn,
                host: &host,
                gc: &gc,
                scan: &scan,
            },
            issue,
            ScanOrder::BeforeHost,
            self.config.background_gc,
        );
        self.fold_played(issue, &played);
        self.recycle_chains(host, gc, scan);
        played.done
    }

    /// Push one played page operation's latency attribution: the wait
    /// from `since` (admission for the reserving drivers, arrival for the
    /// queueing ones) to its first flash step, its service span, and the
    /// synchronous-GC time charged to it. Every driver folds through
    /// here, one op at a time in its own canonical order, so each `f64`
    /// accumulator sees the same sample sequence on every engine.
    pub(crate) fn fold_played(&mut self, since: SimTime, played: &Played) {
        if played.served {
            let wait = played.host_start.saturating_since(since);
            let service = played.host_done.saturating_since(played.host_start);
            self.wait_ms.push(wait.as_millis_f64());
            self.service_ms.push(service.as_millis_f64());
        }
        if played.collected && !self.config.background_gc {
            let blocked = played.done.saturating_since(played.host_done);
            self.gc_block_ms.push(blocked.as_millis_f64());
        }
    }

    /// Hand played-out chains back so the next
    /// [`SsdDevice::translate_page_op`] reuses their allocations. Every
    /// driver does this once an op's chains have been played: the
    /// reserving loop right after serving the op, the queueing scheduler
    /// when it issues it.
    fn recycle_chains(&mut self, host: OpChain, gc: OpChain, scan: OpChain) {
        // Popped in reverse: the next op's host chain is this op's.
        self.free_chains.push(scan);
        self.free_chains.push(gc);
        self.free_chains.push(host);
    }

    /// Translate one page operation through the FTL — state effects are
    /// immediate, as in FlashSim — and hand back the resulting
    /// `(host, gc, scan)` chains. Shared by every replay driver; the
    /// queueing scheduler defers *playing* the chains until it issues the
    /// op.
    fn translate_page_op(&mut self, lpn: u64, op: HostOp) -> (OpChain, OpChain, OpChain) {
        let mut blank = || {
            let mut chain = self.free_chains.pop().unwrap_or_default();
            chain.clear();
            chain
        };
        let (mut host, mut gc, mut scan) = (blank(), blank(), blank());
        let mut ctx = FtlContext {
            flash: &mut self.flash,
            dir: &mut self.dir,
            host_chain: &mut host,
            gc_chain: &mut gc,
            scan_chain: &mut scan,
            phase: Phase::Host,
        };
        match op {
            HostOp::Read => self.ftl.read(lpn, &mut ctx),
            HostOp::Write => self.ftl.write(lpn, &mut ctx),
        }
        (host, gc, scan)
    }

    /// The end-of-trace check of the queueing scheduler: with no event
    /// left, nothing may still be pending. An op stuck here means some
    /// resource-busy interval ended without a wake (the wake-event
    /// contract below), so the message names what the first stuck op was
    /// waiting for.
    fn assert_drained(&self, slab: &VecDeque<Option<QueuedOp>>, now: SimTime) {
        let Some(op) = slab.iter().flatten().next() else {
            return;
        };
        let stuck = slab.iter().flatten().count();
        let waiting_on = match op.host.steps().first().map(|s| s.planes().0) {
            Some(p) => format!(
                "plane {p} (plane ready at {}, channel ready at {})",
                self.hw.plane_ready_at(p),
                self.hw.channel_ready_at(p)
            ),
            None => "no resource (chain-less op)".to_string(),
        };
        panic!(
            "{stuck} ops left unissued at end of trace: first is request {} lpn {} waiting on \
             {waiting_on}; final now = {now}",
            op.req, op.lpn
        );
    }

    /// Issue one queued page operation at `now`: play its chains (host
    /// gates the response; scan and GC only contend), record latency
    /// attribution and the queue probe, finish the request when this was
    /// its last op, and schedule wakes.
    ///
    /// Wake-event contract (DESIGN.md): **every resource-busy interval
    /// ends with a scheduled wake.** The host chain's resources are free
    /// by `done`, which gets a wake below; scan and background-GC chains
    /// keep planes and channels busy *past* `done`, so each gets its own
    /// wake at its resource-release time. (Historically only `done` was
    /// woken, so ops gated on a scanned/collected plane stalled until the
    /// next trace arrival — or tripped the end-of-trace assert when no
    /// arrival came.)
    ///
    /// Returns the instant the op's *last* resource hold ends (the
    /// latest of host completion, scan release, and GC release) — the
    /// horizon a throttling policy must track the op's power draw until.
    fn issue_queued_op(
        &mut self,
        op: QueuedOp,
        now: SimTime,
        stats: &mut ReplayStats,
        req_done: &mut [SimTime],
        req_ops_left: &mut [u32],
        wakes: &mut EventQueue<()>,
    ) -> SimTime {
        let background_gc = self.config.background_gc;
        let played = play_op(
            &mut self.hw,
            &mut self.plane_counts,
            0,
            &PageOp {
                req: op.req as u64,
                lpn: op.lpn,
                host: &op.host,
                gc: &op.gc,
                scan: &op.scan,
            },
            now,
            ScanOrder::AfterHost,
            background_gc,
        );
        // Queueing delay spans arrival → first flash step (the
        // pending-queue wait plus any residual resource wait), mirroring
        // the reserving drivers' decomposition.
        let QosCandidate {
            tenant, arrival, ..
        } = op.cand;
        self.fold_played(arrival, &played);
        let Played {
            done,
            scan_release,
            gc_release,
            ..
        } = played;
        if scan_release > now {
            wakes.push(scan_release, ());
        }
        // Synchronous GC ends at `done`, which is woken below.
        if background_gc && gc_release > now {
            wakes.push(gc_release, ());
        }
        stats.queue.track(tenant, arrival, now, done);
        req_done[op.req] = req_done[op.req].max(done);
        req_ops_left[op.req] -= 1;
        if req_ops_left[op.req] == 0 {
            stats.complete(op.req as u64, arrival, req_done[op.req]);
        }
        // Wake the scheduler when this op's work completes.
        if done > now {
            wakes.push(done, ());
        }
        self.recycle_chains(op.host, op.gc, op.scan);
        scan_release.max(gc_release).max(done)
    }

    /// Upper bound on one queued op's instantaneous power draw, in µW,
    /// from its prepared chains — zero when energy accounting is off.
    ///
    /// A *chained* sequence (the host chain; synchronous GC) runs its
    /// steps back-to-back, and every step's internal phases hold at most
    /// one resource at a time (command/transfer on the channel, then the
    /// array — see the `exec_*` emitters), so its peak draw is one
    /// resource's worth: `max(array, bus)`. An *unchained* burst (scan;
    /// background GC) books all steps concurrently, so it is bounded by
    /// the per-step sum. The bound is what [`PowerCapPolicy`] admits
    /// against; actual instantaneous draw never exceeds it, which is what
    /// makes claim C16's per-bucket budget check sound.
    fn op_draw_uw(&self, host: &OpChain, gc: &OpChain, scan: &OpChain) -> u64 {
        let Some(e) = &self.config.energy else {
            return 0;
        };
        let step_uw = e.array_active_uw.max(e.bus_active_uw);
        let chained = |c: &OpChain| if c.is_empty() { 0 } else { step_uw };
        let unchained = |c: &OpChain| step_uw * c.len() as u64;
        let gc_uw = if self.config.background_gc {
            unchained(gc)
        } else {
            chained(gc)
        };
        chained(host) + unchained(scan) + gc_uw
    }

    /// The queueing scheduler — one loop, two disciplines. Page operations
    /// are translated on arrival (state effects are immediate, as in
    /// FlashSim) and wait, in arrival (`seq`) order, in a slab indexed by
    /// `seq − base`; the scheduler may issue *any* of the oldest
    /// `queue_depth` pending ops — the reorder window — whose first host
    /// step's plane and channel are idle now; nothing holds a resource
    /// before its work begins. Selection runs over a readiness index that
    /// holds the window and nothing else: one lane per plane, keyed by the
    /// first host step's primary plane, plus one lane for chain-less ops
    /// such as unmapped reads. An op enters its lane when it enters the
    /// window, oldest first, as older ops issue. The window only grows at
    /// its young end, so each lane's head is its best in-window candidate
    /// and a scheduling decision visits one head per non-empty lane:
    /// O(planes), never O(pending).
    ///
    /// * **Policy / windowed** (`fifo: false`; NCQ and QoS). The policy
    ///   shapes exactly two things (see [`crate::sched`]): within-lane
    ///   order — lanes are kept sorted by `(policy.lane_key, seq)`, the key
    ///   taken once at arrival — and the cross-lane choice, ranked by
    ///   `(policy.rank, plane_ready_at, seq)` among the heads whose
    ///   resources are idle and which `policy.admit` lets through. With
    ///   [`crate::sched::NcqPolicy`] (constant rank, FIFO lanes): among issuable
    ///   in-window ops, prefer the op whose target plane has been idle
    ///   longest, ties by arrival order. Chain-less ops occupy no
    ///   resources: the oldest one inside the window always issues first,
    ///   bypassing the policy entirely (they are not ranked and not charged
    ///   by `on_issue`).
    /// * **FIFO / unbounded** (`fifo: true`, `queue_depth: usize::MAX`,
    ///   [`WindowFifoPolicy`]; gated) — the literal FlashSim priority list
    ///   (§IV.B): "If the targeting channel and plane of the request are
    ///   available, it will be immediately handed to the hardware module
    ///   … Otherwise, [the scheduler] processes other requests until the
    ///   channel and the plane turn to be free". The one rule it keeps of
    ///   its own: a chain-less op issues at its queue position — after
    ///   every older op that is ready at this instant, not before — since
    ///   the completion and probe logs record issue order.
    ///
    /// Policy note: lanes are head-of-line in *key* order — each lane
    /// offers only its head as a candidate, so an op blocked on its
    /// *secondary* resource (e.g. the far plane of an inter-plane copy)
    /// also blocks lower-ranked ops on the same lane, under both
    /// disciplines. (No shipped FTL starts a host chain with a two-plane
    /// step, so for them the gated FIFO skips exactly as the priority list
    /// does; `tests/replay_modes.rs` pins that against fingerprints
    /// recorded from the former stand-alone gated loop.) Reordering
    /// happens *across* planes, which is where the idle parallelism
    /// DLOOP's allocation creates actually lives; within a plane, the
    /// single sorted candidate is what keeps selection cheap,
    /// deterministic, and (for a deadline-keyed lane) inversion-free. The
    /// `#[cfg(test)]` oracle at the bottom of this file implements the
    /// same rule by scanning the window naively.
    fn run_queued(
        &mut self,
        requests: &[HostRequest],
        queue_depth: usize,
        policy: &mut dyn QosPolicy,
        fifo: bool,
    ) -> RunReport {
        let lpn_space = self.flash.geometry().user_pages();
        let planes = self.flash.geometry().total_planes() as usize;
        let mut clock = WakeClock::new(requests);
        // The wake-event contract also binds busy intervals booked before
        // this run: a device that was not reset still carries them, and no
        // completion of this run ends them with a wake. (None lie ahead on
        // a fresh or reset device.)
        for plane in 0..planes as dloop_nand::PlaneId {
            for busy_until in [
                self.hw.plane_ready_at(plane),
                self.hw.channel_ready_at(plane),
            ] {
                if busy_until > clock.now {
                    clock.wakes.push(busy_until, ());
                }
            }
        }

        // Every pending op, oldest first: op `seq` sits at `slab[seq -
        // base]` until it issues, leaving a hole; holes at the front are
        // popped, so `base` is the oldest pending op's `seq` and
        // `base + slab.len()` the next op's.
        let mut slab: VecDeque<Option<QueuedOp>> = VecDeque::new();
        let mut base = 0u64;
        // The window is the pending ops with `seq < admitted`:
        // `in_window` of them, at most `queue_depth`.
        let mut admitted = 0u64;
        let mut in_window = 0usize;
        // Readiness index over the window: lane `p` holds `(lane_key,
        // seq)` of the in-window ops whose first host step starts on plane
        // `p`, sorted; `live` marks the non-empty lanes; `chainless` holds
        // the in-window ops with no host steps, which need no resources.
        let mut lanes: Vec<VecDeque<(u64, u64)>> = vec![VecDeque::new(); planes];
        let mut live = PlaneSet::new(planes);
        let mut chainless: VecDeque<u64> = VecDeque::new();

        let mut req_done: Vec<SimTime> = requests.iter().map(|r| r.arrival).collect();
        let mut req_ops_left: Vec<u32> = requests.iter().map(|r| r.pages).collect();

        let mut stats = ReplayStats::for_queued(requests);
        let mut ticked: Option<SimTime> = None;

        while let Some((now, arrived)) = clock.pop() {
            if let Some(i) = arrived {
                let req = &requests[i];
                if req.pages == 0 {
                    // No page operations to queue: the request completes
                    // instantly at arrival with a zero response sample,
                    // exactly as the reserving drivers count it (the
                    // per-op completion in `issue_queued_op` would
                    // otherwise never fire and the request would vanish
                    // from the stats).
                    stats
                        .queue
                        .track(req.tenant, req.arrival, req.arrival, req.arrival);
                    stats.complete(i as u64, req.arrival, req.arrival);
                    continue;
                }
                for lpn in req.wrapped_page_ops(lpn_space) {
                    let (host, gc, scan) = self.translate_page_op(lpn, req.op);
                    stats.count_page(req.op);
                    let first = host.steps().first();
                    let cand = QosCandidate {
                        seq: base + slab.len() as u64,
                        tenant: req.tenant,
                        deadline: req.deadline,
                        arrival: req.arrival,
                        plane: first.map_or(0, |step| step.planes().0),
                        draw_uw: self.op_draw_uw(&host, &gc, &scan),
                    };
                    let key = match first {
                        Some(_) => policy.lane_key(&cand),
                        None => 0,
                    };
                    slab.push_back(Some(QueuedOp {
                        req: i,
                        lpn,
                        host,
                        gc,
                        scan,
                        cand,
                        key,
                    }));
                }
            }

            if ticked != Some(now) {
                ticked = Some(now);
                policy.tick(now);
            }
            // Issue every selectable op.
            loop {
                // Top the window up, oldest first: an issue has shrunk it,
                // or arrivals have queued behind it.
                while in_window < queue_depth && admitted < base + slab.len() as u64 {
                    let op = slab[(admitted - base) as usize]
                        .as_ref()
                        .expect("an op outside the window is pending");
                    if op.host.is_empty() {
                        chainless.push_back(admitted);
                    } else {
                        let plane = op.cand.plane as usize;
                        let lane = &mut lanes[plane];
                        if lane.is_empty() {
                            live.insert(plane);
                        }
                        let entry = (op.key, admitted);
                        lane.insert(lane.partition_point(|&e| e < entry), entry);
                    }
                    admitted += 1;
                    in_window += 1;
                }
                if in_window == 0 {
                    break;
                }
                // Each live lane offers its head if the first step's
                // resources are all idle now and the policy admits it;
                // among the offers, pick the lowest `(rank,
                // plane_ready_at, seq)`. Lanes are visited in plane order
                // and keys are totally ordered, so selection is
                // deterministic. `best` remembers the winner's plane.
                let mut best: Option<((u64, u64, SimTime, u64), usize)> = None;
                // A windowed policy never gets to outrank a chain-less op,
                // so the lanes sit that decision out.
                if fifo || chainless.is_empty() {
                    let free = |plane| {
                        self.hw.plane_ready_at(plane) <= now
                            && self.hw.channel_ready_at(plane) <= now
                    };
                    for plane in live.iter() {
                        // The lane is the head's primary plane, so a busy
                        // one is skipped before the op is looked up.
                        let p = plane as dloop_nand::PlaneId;
                        if !free(p) {
                            continue;
                        }
                        let (_, seq) = lanes[plane][0];
                        let op = slab[(seq - base) as usize]
                            .as_ref()
                            .expect("a lane entry is pending");
                        if !op.host.steps()[0].planes().1.is_none_or(free) {
                            continue;
                        }
                        if !policy.admit(now, &op.cand) {
                            continue;
                        }
                        let (r0, r1) = policy.rank(now, &op.cand);
                        let key = (r0, r1, self.hw.plane_ready_at(p), seq);
                        if best.is_none_or(|(k, _)| key < k) {
                            best = Some((key, plane));
                        }
                    }
                }
                // Under the FIFO discipline the chain-less op waits its
                // turn behind an older op that is ready now. A chain-less
                // op issues unseen by the policy; a lane's op is charged
                // to it.
                let chainless_wins = chainless
                    .front()
                    .copied()
                    .filter(|&seq| best.is_none_or(|(key, _)| seq < key.3));
                let (seq, charged) = match (chainless_wins, best) {
                    (Some(seq), _) => {
                        chainless.pop_front();
                        (seq, false)
                    }
                    (None, Some((_, plane))) => {
                        let lane = &mut lanes[plane];
                        let (_, seq) = lane.pop_front().expect("the winner heads its lane");
                        if lane.is_empty() {
                            live.remove(plane);
                        }
                        (seq, true)
                    }
                    (None, None) => break,
                };
                let op = slab[(seq - base) as usize]
                    .take()
                    .expect("selected op is pending");
                while let Some(None) = slab.front() {
                    slab.pop_front();
                    base += 1;
                }
                in_window -= 1;
                let cand = op.cand;
                if charged {
                    policy.on_issue(now, &cand);
                }
                let release = self.issue_queued_op(
                    op,
                    now,
                    &mut stats,
                    &mut req_done,
                    &mut req_ops_left,
                    &mut clock.wakes,
                );
                // Throttling policies track the committed draw until its
                // last resource hold ends (the release wake scheduled by
                // `issue_queued_op` guarantees a `tick` retires it).
                if charged {
                    policy.note_release(now, &cand, release);
                }
            }
        }
        self.assert_drained(&slab, clock.now);

        self.finish_report(requests.len() as u64, stats)
    }

    /// Begin an incremental-submission session: the host/device
    /// interleaving surface. Instead of handing the device a complete
    /// request slice, a driver (the `dloop-host` event loop) feeds
    /// commands one at a time via [`CommandSession::submit`] and learns
    /// each command's completion instant immediately, so its own
    /// admission decisions (per-queue windows, completion-driven
    /// writeback) can react to completions before deciding what to
    /// submit next.
    ///
    /// Each submitted command books its flash work at its `issue` time,
    /// exactly as [`ReplayMode::Open`] books work at arrival — feeding an
    /// arrival-sorted slice with `issue == arrival` reproduces
    /// `run_with(requests, RunConfig::open())` bit-for-bit, report fingerprint
    /// included (the degeneracy leg of claim C13 rides on this).
    pub fn begin_commands(&mut self) -> CommandSession<'_> {
        let lpn_space = self.flash.geometry().user_pages();
        CommandSession {
            device: self,
            lpn_space,
            stats: ReplayStats::with_capacity(0, 0),
            submitted: 0,
            last_issue: SimTime::ZERO,
        }
    }

    /// Assemble the [`RunReport`] for a finished replay from the per-run
    /// accumulator plus the device-resident state (hardware counters,
    /// flash totals, latency decompositions) relative to the measurement
    /// baseline. Shared by every replay mode, so all reports are built
    /// identically.
    pub(crate) fn finish_report(&self, requests_completed: u64, stats: ReplayStats) -> RunReport {
        RunReport {
            ftl_name: self.ftl.name(),
            requests_completed,
            pages_read: stats.pages_read,
            pages_written: stats.pages_written,
            response_ms: stats.response_ms,
            response_hist_us: stats.hist,
            plane_request_counts: self.plane_counts.clone(),
            hw: self.hw.counters,
            ftl: self.ftl.counters().since(&self.ftl_baseline),
            total_erases: self.flash.total_erases() - self.baseline.0,
            total_programs: self.flash.total_programs() - self.baseline.1,
            total_skips: self.flash.total_skips() - self.baseline.2,
            wear: self.flash.wear_summary(),
            sim_end: stats.sim_end,
            plane_busy_ns: self.hw.plane_busy_ns().to_vec(),
            channel_busy_ns: self.hw.channel_busy_ns().to_vec(),
            wait_ms: self.wait_ms.clone(),
            service_ms: self.service_ms.clone(),
            gc_block_ms: self.gc_block_ms.clone(),
            media: self.media_delta(),
            retry_ns: self.hw.retry_ns(),
            completions: stats.completions,
            queue_log: stats.queue,
            shard_timing: None,
            shard_outcome: ShardOutcome::NotRequested,
            energy: self
                .config
                .energy
                .as_ref()
                .map(|e| self.hw.energy_totals(e)),
        }
    }

    /// Age the device: replay `requests` with full state effects but throw
    /// away all timing and statistics afterwards. Used to reach GC steady
    /// state before measuring, like running a trace against a filled SSD.
    pub fn warm_up(&mut self, requests: &[HostRequest]) {
        let _ = self.run_with(requests, ReplayMode::Open.into());
        self.reset_measurements();
    }

    /// Forget timing and counters but keep flash/FTL state.
    fn reset_measurements(&mut self) {
        // Carry the sink across the hardware rebuild: warm-up spans are
        // measurements too, so the sink is reset (a ring clears).
        let sink = self.hw.detach_sink();
        let geometry = self.flash.geometry().clone();
        self.hw = HardwareModel::new(
            &geometry,
            self.config.timing.clone(),
            self.config.die_serialized,
        );
        if let Some(mut sink) = sink {
            sink.reset();
            self.hw.attach_sink(sink);
        }
        for c in &mut self.plane_counts {
            *c = 0;
        }
        self.baseline = (
            self.flash.total_erases(),
            self.flash.total_programs(),
            self.flash.total_skips(),
        );
        self.media_baseline = self.flash.media_counters().cloned().unwrap_or_default();
        self.ftl_baseline = self.ftl.counters();
        self.wait_ms = OnlineStats::new();
        self.service_ms = OnlineStats::new();
        self.gc_block_ms = OnlineStats::new();
    }

    /// Deep cross-layer audit of the device's state ([`audit`]).
    pub fn audit(&self) -> Result<(), String> {
        audit(&self.flash, &self.dir, self.ftl.as_ref())
    }
}

/// Deep cross-layer audit of a device's state: flash invariants,
/// directory ↔ flash agreement, and the FTL's own consistency rules.
pub fn audit(flash: &FlashState, dir: &PageDirectory, ftl: &dyn Ftl) -> Result<(), String> {
    flash.check()?;
    // Every valid flash page must have an owner; every owned page must be
    // valid; live counts must agree.
    let g = flash.geometry();
    let mut live = 0u64;
    for ppn in 0..g.total_physical_pages() {
        let valid = flash.page_state(ppn) == PageState::Valid;
        let owner = dir.owner(ppn);
        match (valid, owner) {
            (true, PageOwner::None) => {
                return Err(format!("valid ppn {ppn} has no owner"));
            }
            (false, PageOwner::Data(l)) => {
                return Err(format!("non-valid ppn {ppn} owned by data lpn {l}"));
            }
            (false, PageOwner::Translation(t)) => {
                return Err(format!("non-valid ppn {ppn} owned by tpage {t}"));
            }
            (true, _) => live += 1,
            (false, PageOwner::None) => {}
        }
    }
    if live != flash.total_valid_pages() {
        return Err(format!(
            "directory live count {live} != flash valid count {}",
            flash.total_valid_pages()
        ));
    }
    ftl.audit(flash, dir)
}

/// An in-progress incremental-submission run over an [`SsdDevice`]
/// (see [`SsdDevice::begin_commands`]). The session owns the per-run
/// measurement accumulator; [`CommandSession::finish`] assembles the
/// same [`RunReport`] every batch replay mode produces.
///
/// The driver is responsible for feeding commands that carry pages in
/// nondecreasing `issue` order — the arrival-reserving booking model
/// processes work in time order, and the report's completion/occupancy
/// logs are recorded in submission order so that an arrival-order feed
/// matches [`ReplayMode::Open`] record-for-record. [`SsdDevice::run_with`]
/// itself is such a driver for the open and closed modes.
pub struct CommandSession<'d> {
    device: &'d mut SsdDevice,
    lpn_space: u64,
    stats: ReplayStats,
    submitted: u64,
    last_issue: SimTime,
}

impl CommandSession<'_> {
    /// Pre-size the completion and occupancy logs for `commands` more
    /// submissions, so a driver that knows its command count up front
    /// (the batch replay loop, the host stack) grows neither log mid-run.
    pub fn reserve(&mut self, commands: usize) {
        self.stats.reserve(commands);
    }

    /// Submit one command (`id` is the caller's index for the completion
    /// log) whose flash work books at `issue`; returns the command's
    /// completion instant. `req.arrival` is when the command reached the
    /// device's doorbell — `issue >= arrival`, with the gap being
    /// admission delay (a full window), which the occupancy probe records
    /// as pending time. Zero-page commands complete at `issue` without
    /// flash work, like every other driver.
    pub fn submit(&mut self, req: &HostRequest, id: u64, issue: SimTime) -> SimTime {
        debug_assert!(
            issue >= req.arrival,
            "command issued before it reached the device: {issue} < {}",
            req.arrival
        );
        // Only commands that book flash work are bound to time order: a
        // zero-page command under closed admission completes at its
        // arrival, which may precede the issue instant of an older
        // command that had to wait for a queue slot.
        if req.pages > 0 {
            debug_assert!(
                issue >= self.last_issue,
                "commands must be submitted in nondecreasing issue order: {issue} < {}",
                self.last_issue
            );
            self.last_issue = issue;
        }
        let mut req_done = issue;
        for lpn in req.wrapped_page_ops(self.lpn_space) {
            let done = self.device.serve_page_op(lpn, req.op, issue, id);
            req_done = req_done.max(done);
            self.stats.count_page(req.op);
        }
        self.stats
            .queue
            .track(req.tenant, req.arrival, issue, req_done);
        self.stats.complete(id, req.arrival, req_done);
        self.submitted += 1;
        req_done
    }

    /// Number of commands submitted so far.
    pub fn submitted(&self) -> u64 {
        self.submitted
    }

    /// End the session and assemble the [`RunReport`] (identical
    /// construction to the batch replay drivers).
    pub fn finish(self) -> RunReport {
        self.device.finish_report(self.submitted, self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ftl::{FlashStep, FtlCounters};
    use crate::request::TenantId;
    use dloop_nand::{BlockAddr, Lpn, Ppn};
    use std::collections::HashMap;

    /// Minimal in-SRAM page-map FTL used to exercise the device plumbing.
    struct ToyFtl {
        map: HashMap<Lpn, Ppn>,
        active: Option<BlockAddr>,
        /// Host writes served — reported as `translation_writes` so device
        /// tests can observe FTL-counter baselining across warm-up.
        writes: u64,
    }

    impl ToyFtl {
        fn new() -> Self {
            ToyFtl {
                map: HashMap::new(),
                active: None,
                writes: 0,
            }
        }
    }

    impl Ftl for ToyFtl {
        fn name(&self) -> &'static str {
            "TOY"
        }

        fn read(&mut self, lpn: Lpn, ctx: &mut FtlContext<'_>) {
            if let Some(&ppn) = self.map.get(&lpn) {
                ctx.flash.read_check(ppn).unwrap();
                ctx.push(FlashStep::Read {
                    plane: ctx.flash.geometry().plane_of_ppn(ppn),
                });
            }
        }

        fn write(&mut self, lpn: Lpn, ctx: &mut FtlContext<'_>) {
            // Always plane 0, fresh blocks, no GC (tiny tests only).
            let need_new = match self.active {
                None => true,
                Some(b) => ctx.flash.plane(b.plane).block(b.index).is_full(),
            };
            if need_new {
                let idx = ctx.flash.allocate_free_block(0).unwrap();
                self.active = Some(BlockAddr {
                    plane: 0,
                    index: idx,
                });
            }
            let blk = self.active.unwrap();
            let addr = ctx.flash.program_next(blk).unwrap();
            let ppn = ctx.flash.geometry().ppn_of(addr);
            if let Some(old) = self.map.insert(lpn, ppn) {
                ctx.flash.invalidate(old).unwrap();
                ctx.dir.clear(old);
            }
            ctx.dir.set_data(ppn, lpn);
            ctx.push(FlashStep::Write { plane: 0 });
            self.writes += 1;
        }

        fn mapped_ppn(&self, lpn: Lpn) -> Option<Ppn> {
            self.map.get(&lpn).copied()
        }

        fn counters(&self) -> FtlCounters {
            FtlCounters {
                translation_writes: self.writes,
                ..FtlCounters::default()
            }
        }

        fn audit(&self, flash: &FlashState, dir: &PageDirectory) -> Result<(), String> {
            for (&lpn, &ppn) in &self.map {
                if flash.page_state(ppn) != PageState::Valid {
                    return Err(format!("lpn {lpn} maps to non-valid ppn {ppn}"));
                }
                if dir.owner(ppn) != PageOwner::Data(lpn) {
                    return Err(format!("directory disagrees for lpn {lpn}"));
                }
            }
            Ok(())
        }
    }

    fn device() -> SsdDevice {
        SsdDevice::new(SsdConfig::tiny_test(), Box::new(ToyFtl::new()))
    }

    fn write_req(at_us: u64, lpn: u64, pages: u32) -> HostRequest {
        HostRequest {
            arrival: SimTime::from_micros(at_us),
            lpn,
            pages,
            op: HostOp::Write,
            ..HostRequest::default()
        }
    }

    fn read_req(at_us: u64, lpn: u64, pages: u32) -> HostRequest {
        HostRequest {
            arrival: SimTime::from_micros(at_us),
            lpn,
            pages,
            op: HostOp::Read,
            ..HostRequest::default()
        }
    }

    #[test]
    fn single_write_latency() {
        let mut d = device();
        let report = d.run_with(&[write_req(0, 5, 1)], RunConfig::open());
        assert_eq!(report.requests_completed, 1);
        assert_eq!(report.pages_written, 1);
        // One write: cmd 0.2 + xfer 51.2 + program 200 = 251.4 us.
        assert!((report.mean_response_time_ms() - 0.2514).abs() < 1e-9);
        d.audit().unwrap();
    }

    #[test]
    fn command_session_matches_open_replay_record_for_record() {
        let requests = vec![
            write_req(0, 5, 2),
            write_req(10, 9, 1),
            read_req(300, 5, 2),
            read_req(300, 9, 1),
            write_req(900, 5, 1),
        ];
        let batch = device().run_with(&requests, ReplayMode::Open.into());
        let mut d = device();
        let mut session = d.begin_commands();
        for (i, r) in requests.iter().enumerate() {
            session.submit(r, i as u64, r.arrival);
        }
        let fed = session.finish();
        assert_eq!(fed.completions, batch.completions);
        assert_eq!(fed.queue_log, batch.queue_log);
        assert_eq!(fed.csv_row(), batch.csv_row());
        d.audit().unwrap();
    }

    #[test]
    fn command_session_matches_closed_replay_record_for_record() {
        // Duplicate arrivals, and zero-page requests landing between
        // admissions that found the queue full — their issue instants
        // (their arrivals) precede those of older, waiting commands.
        let requests = vec![
            write_req(0, 5, 2),
            write_req(0, 9, 1),
            write_req(5, 1, 0),
            write_req(5, 2, 1),
            write_req(5, 3, 0),
            read_req(300, 5, 2),
            write_req(300, 7, 0),
            read_req(300, 9, 1),
            write_req(900, 5, 1),
        ];
        for depth in [1, 2, usize::MAX] {
            let batch = device().run_with(&requests, RunConfig::closed(depth));
            let issues: Vec<SimTime> = batch.queue_log.tracked().iter().map(|t| t.2).collect();
            if depth == 1 {
                assert!(issues.windows(2).any(|w| w[1] < w[0]), "{issues:?}");
            }
            let mut d = device();
            let mut session = d.begin_commands();
            session.reserve(requests.len());
            for (i, r) in requests.iter().enumerate() {
                session.submit(r, i as u64, issues[i]);
            }
            let fed = session.finish();
            assert_eq!(fed.completions, batch.completions, "depth {depth}");
            assert_eq!(fed.queue_log, batch.queue_log, "depth {depth}");
            assert_eq!(fed.csv_row(), batch.csv_row(), "depth {depth}");
        }
    }

    #[test]
    fn command_session_delays_booking_to_the_issue_instant() {
        // The same command issued later finishes later: the session books
        // at `issue`, not at the request's doorbell arrival.
        let mut d = device();
        let mut session = d.begin_commands();
        let r = write_req(0, 5, 1);
        let done = session.submit(&r, 0, SimTime::from_micros(40));
        assert!(done >= SimTime::from_micros(40));
        let report = session.finish();
        // The probe saw the 40 µs admission delay as pending time.
        let &(_, arrival, issue, _) = &report.queue_log.tracked()[0];
        assert_eq!(arrival, SimTime::ZERO);
        assert_eq!(issue, SimTime::from_micros(40));
    }

    #[test]
    fn read_after_write_hits_mapped_page() {
        let mut d = device();
        let report = d.run_with(
            &[write_req(0, 9, 1), read_req(1000, 9, 1)],
            RunConfig::open(),
        );
        assert_eq!(report.pages_read, 1);
        assert_eq!(report.hw.reads, 1);
        d.audit().unwrap();
    }

    #[test]
    fn unmapped_read_touches_nothing() {
        let mut d = device();
        let report = d.run_with(&[read_req(0, 1234, 1)], RunConfig::open());
        assert_eq!(report.hw.reads, 0);
        assert_eq!(report.mean_response_time_ms(), 0.0);
    }

    #[test]
    fn out_of_order_arrivals_are_sorted() {
        let mut d = device();
        let report = d.run_with(
            &[write_req(5000, 1, 1), write_req(0, 0, 1)],
            RunConfig::open(),
        );
        assert_eq!(report.requests_completed, 2);
        d.audit().unwrap();
    }

    #[test]
    fn multi_page_request_counts_pages() {
        let mut d = device();
        let report = d.run_with(&[write_req(0, 0, 4)], RunConfig::open());
        assert_eq!(report.pages_written, 4);
        assert_eq!(report.requests_completed, 1);
        // All on plane 0 with the toy FTL.
        assert_eq!(report.plane_request_counts[0], 4);
    }

    #[test]
    fn updates_invalidate_old_pages() {
        let mut d = device();
        d.run_with(
            &[write_req(0, 7, 1), write_req(1000, 7, 1)],
            RunConfig::open(),
        );
        assert_eq!(d.flash().total_valid_pages(), 1);
        d.audit().unwrap();
    }

    #[test]
    fn warm_up_resets_measurements_but_keeps_state() {
        let mut d = device();
        d.warm_up(&[write_req(0, 3, 1)]);
        assert_eq!(d.flash().total_valid_pages(), 1);
        let report = d.run_with(&[read_req(0, 3, 1)], RunConfig::open());
        // The warm-up write is not in the counters.
        assert_eq!(report.hw.writes, 0);
        assert_eq!(report.hw.reads, 1);
        assert_eq!(report.plane_request_counts.iter().sum::<u64>(), 1);
    }

    #[test]
    fn lpn_wrapping_folds_large_addresses() {
        let mut d = device();
        let space = d.flash().geometry().user_pages();
        let report = d.run_with(
            &[write_req(0, space + 3, 1), read_req(1000, 3, 1)],
            RunConfig::open(),
        );
        // The read hits the wrapped write.
        assert_eq!(report.hw.reads, 1);
    }

    #[test]
    fn gated_queueing_reports_wait_samples() {
        // Regression: gated replay used to clone the wait/service/GC-block
        // stats into its report without ever pushing samples, so every
        // gated report claimed a zero-sample latency decomposition.
        let mut d = device();
        // Two writes arriving together target the same plane (the toy FTL
        // always writes plane 0), so the second op queues behind the first.
        let report = d.run_with(
            &[write_req(0, 1, 1), write_req(0, 2, 1)],
            RunConfig::gated(),
        );
        assert_eq!(report.wait_ms.count(), 2);
        assert_eq!(report.service_ms.count(), 2);
        assert!(
            report.wait_ms.max().unwrap() > 0.0,
            "the queued op must report a non-zero wait"
        );
        d.audit().unwrap();
    }

    #[test]
    fn a_stuck_gated_op_names_what_it_waits_for() {
        // No replay strands an op any more (busy intervals booked outside
        // the run are woken too), so the end-of-trace check is driven
        // directly.
        let mut d = device();
        let held = d.hw.exec_write(0, SimTime::from_millis(5));
        let (host, gc, scan) = d.translate_page_op(42, HostOp::Write);
        let op = QueuedOp {
            req: 0,
            lpn: 42,
            host,
            gc,
            scan,
            cand: QosCandidate {
                seq: 0,
                tenant: TenantId::default(),
                deadline: None,
                arrival: SimTime::from_micros(7),
                plane: 0,
                draw_uw: 0,
            },
            key: 0,
        };
        let slab = VecDeque::from([Some(op)]);
        let stuck = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            d.assert_drained(&slab, SimTime::from_micros(7))
        }))
        .expect_err("a pending op must trip the end-of-trace check");
        let message = stuck.downcast_ref::<String>().expect("formatted panic");
        let channel_free = d.hw.channel_ready_at(0);
        assert_ne!(channel_free, held.end);
        for part in [
            "1 ops left unissued".to_string(),
            "request 0 lpn 42".to_string(),
            format!("plane 0 (plane ready at {}", held.end),
            format!("channel ready at {channel_free})"),
            format!("final now = {}", SimTime::from_micros(7)),
        ] {
            assert!(message.contains(&part), "{message:?} lacks {part:?}");
        }
    }

    #[test]
    fn zero_page_requests_complete_in_every_replay_mode() {
        // Regression: gated replay never counted zero-page requests at all
        // (no per-op completion ever fired), and closed replay could charge
        // them a queue-slot wait. All three modes now record an instant
        // zero-latency completion.
        let reqs = [write_req(0, 1, 0)];
        let open = device().run_with(&reqs, RunConfig::open());
        let gated = device().run_with(&reqs, RunConfig::gated());
        let closed = device().run_with(&reqs, RunConfig::closed(1));
        for r in [&open, &gated, &closed] {
            assert_eq!(r.requests_completed, 1);
            assert_eq!(r.response_ms.count(), 1, "mode must count the request");
            assert_eq!(r.response_ms.mean(), 0.0);
            assert_eq!(r.pages_written, 0);
        }
        // Even with the bounded queue saturated by a slow write, a
        // zero-page request completes at arrival without taking a slot.
        let mut d = device();
        let r = d.run_with(
            &[write_req(0, 1, 1), write_req(10, 2, 0), write_req(20, 3, 1)],
            RunConfig::closed(1),
        );
        assert_eq!(r.response_ms.count(), 3);
        assert_eq!(r.response_ms.min().unwrap(), 0.0);
    }

    #[test]
    fn ncq_depth_one_matches_gated_on_single_plane_writes() {
        // With one lane of work (the toy FTL always writes plane 0) and a
        // reorder window of 1, NCQ degenerates to the gated FIFO: same
        // issue times, same response distribution.
        let reqs: Vec<HostRequest> = (0..8).map(|i| write_req(i * 50, i, 1)).collect();
        let gated = device().run_with(&reqs, RunConfig::gated());
        let ncq = device().run_with(&reqs, RunConfig::ncq(1));
        assert_eq!(ncq.requests_completed, gated.requests_completed);
        assert_eq!(ncq.pages_written, gated.pages_written);
        assert_eq!(ncq.response_ms.mean(), gated.response_ms.mean());
        assert_eq!(ncq.response_ms.max(), gated.response_ms.max());
        assert_eq!(ncq.queue_log.tracked(), gated.queue_log.tracked());
    }

    #[test]
    fn ncq_replay_is_deterministic() {
        let reqs: Vec<HostRequest> = (0..20).map(|i| write_req(i * 10, i % 7, 1)).collect();
        let a = device().run_with(&reqs, RunConfig::ncq(4));
        let b = device().run_with(&reqs, RunConfig::ncq(4));
        assert_eq!(a.response_ms.mean(), b.response_ms.mean());
        assert_eq!(a.queue_log.tracked(), b.queue_log.tracked());
        assert_eq!(a.sim_end, b.sim_end);
    }

    #[test]
    fn every_mode_records_the_queue_probe() {
        // 3 single-page requests + 1 zero-page request: each mode must log
        // one probe entry per admitted unit (requests for the reserving
        // modes, page ops for the queueing modes — equal counts here).
        let reqs = [
            write_req(0, 1, 1),
            write_req(100, 2, 1),
            write_req(200, 3, 0),
            read_req(5000, 1, 1),
        ];
        for mode in [
            ReplayMode::Open,
            ReplayMode::Gated,
            ReplayMode::Closed { queue_depth: 2 },
            ReplayMode::Qos {
                queue_depth: 2,
                policy: QosSpec::Ncq,
            },
            ReplayMode::Qos {
                queue_depth: 2,
                policy: QosSpec::WindowFifo,
            },
        ] {
            let r = device().run_with(&reqs, mode.into());
            assert_eq!(r.queue_log.len(), 4, "mode {mode:?}");
            // The zero-page request is an instant in-and-out.
            assert!(r
                .queue_log
                .tracked()
                .iter()
                .any(|&(_, a, i, d)| a == i && i == d && a == SimTime::from_micros(200)));
            let csv = r.queue_depth_csv(4);
            assert!(csv.starts_with("bucket_start_ms,"));
            assert_eq!(csv.lines().count(), 5);
        }
    }

    #[test]
    fn open_probe_issue_equals_arrival() {
        let reqs = [write_req(0, 1, 1), write_req(10, 2, 1)];
        let r = device().run_with(&reqs, RunConfig::open());
        for &(_, arrival, issue, _) in r.queue_log.tracked() {
            assert_eq!(arrival, issue, "open mode admits at arrival");
        }
    }

    #[test]
    fn reset_measurements_baselines_every_report_field() {
        // Contract: after a warm-up, every RunReport field covers only the
        // measured window — hardware counters, FTL scheme counters, flash
        // totals, and the latency decompositions alike.
        let mut d = device();
        d.warm_up(&[write_req(0, 1, 1), write_req(100, 2, 1)]);
        let report = d.run_with(
            &[write_req(0, 3, 1), read_req(1000, 3, 1)],
            RunConfig::open(),
        );
        assert_eq!(report.hw.writes, 1);
        assert_eq!(report.hw.reads, 1);
        // Not 3: the two warm-up writes are excluded by the baseline.
        assert_eq!(report.ftl.translation_writes, 1);
        assert_eq!(report.total_programs, 1);
        assert_eq!(report.wait_ms.count(), 2);
        assert_eq!(report.service_ms.count(), 2);
        assert_eq!(report.gc_block_ms.count(), 0);
        assert_eq!(report.response_ms.count(), 2);
        assert_eq!(report.plane_request_counts.iter().sum::<u64>(), 2);
        // A second reset starts the window fresh again.
        d.reset_measurements();
        let report = d.run_with(&[read_req(0, 3, 1)], RunConfig::open());
        assert_eq!(report.ftl.translation_writes, 0);
        assert_eq!(report.hw.reads, 1);
        assert_eq!(report.total_programs, 0);
    }

    #[test]
    fn tracing_records_one_span_per_flash_op() {
        let mut d = device();
        d.attach_sink(Box::new(RingSink::new(1024)));
        let report = d.run_with(
            &[write_req(0, 1, 1), read_req(1000, 1, 1)],
            RunConfig::open(),
        );
        assert_eq!(
            d.sink().unwrap().recorded(),
            report.hw.reads + report.hw.writes
        );
        // A measurement reset discards warm-up spans too.
        d.reset_measurements();
        assert_eq!(d.sink().unwrap().recorded(), 0);
        d.run_with(&[read_req(0, 1, 1)], RunConfig::open());
        // Taking the ring hands back the spans and stops tracing.
        assert_eq!(d.take_trace().unwrap().len(), 1);
        assert!(d.sink().is_none());
        // Any other sink is not a ring: it stays attached rather than
        // being silently discarded.
        d.attach_sink(Box::new(OtherSink));
        assert!(d.take_trace().is_none());
        assert!(d.sink().is_some());
    }

    /// A sink that is not the ring, for `take_trace`'s leave-it-attached
    /// branch.
    #[derive(Debug)]
    struct OtherSink;

    impl TraceSink for OtherSink {
        fn record(&mut self, _: &dloop_simkit::Span) {}
        fn recorded(&self) -> u64 {
            0
        }
        fn dropped(&self) -> u64 {
            0
        }
        fn reset(&mut self) {}
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
        fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
            self
        }
    }

    #[test]
    fn audit_passes_after_mixed_burst() {
        let mut d = device();
        let mut reqs = Vec::new();
        for i in 0..200u64 {
            reqs.push(write_req(i * 10, i % 50, 1));
        }
        for i in 0..50u64 {
            reqs.push(read_req(3000 + i * 10, i, 1));
        }
        d.run_with(&reqs, RunConfig::open());
        d.audit().unwrap();
    }

    #[test]
    fn plane_set_walks_its_members_in_ascending_order() {
        let mut set = PlaneSet::new(130);
        for plane in [129, 0, 64, 63, 5, 128] {
            set.insert(plane);
        }
        set.remove(5);
        assert_eq!(set.iter().collect::<Vec<_>>(), [0, 63, 64, 128, 129]);
        for plane in [0, 63, 64, 128, 129] {
            set.remove(plane);
        }
        assert_eq!(set.iter().next(), None);
    }

    /// A timing-only FTL for scheduler tests. It keeps no mapping, only
    /// which LPNs were ever written, so a read of any other LPN has no
    /// host step. Every other op gets chains spread over the device the
    /// way a real FTL's are: a host step on a plane drawn from the LPN and
    /// a running op count, now and then behind a two-plane copy, and on
    /// some writes a collection on the written plane and a scan of another
    /// plane.
    struct SprayFtl {
        planes: u32,
        written: Vec<bool>,
        ops: u64,
    }

    impl SprayFtl {
        fn new(config: &SsdConfig) -> Self {
            let geometry = config.geometry();
            SprayFtl {
                planes: geometry.total_planes(),
                written: vec![false; geometry.user_pages() as usize],
                ops: 0,
            }
        }

        /// A fresh hash of `lpn` and the op count, and the plane it picks.
        fn draw(&mut self, lpn: Lpn) -> (u64, u32) {
            self.ops += 1;
            let mut z = lpn.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ self.ops;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            (z >> 8, (z % self.planes as u64) as u32)
        }
    }

    impl Ftl for SprayFtl {
        fn name(&self) -> &'static str {
            "SPRAY"
        }

        fn read(&mut self, lpn: Lpn, ctx: &mut FtlContext<'_>) {
            if !self.written[lpn as usize] {
                return;
            }
            let (h, plane) = self.draw(lpn);
            if h % 8 == 0 {
                let dst = (plane + 1) % self.planes;
                ctx.push(FlashStep::InterPlaneCopy { src: plane, dst });
            }
            ctx.push(FlashStep::Read { plane });
        }

        fn write(&mut self, lpn: Lpn, ctx: &mut FtlContext<'_>) {
            self.written[lpn as usize] = true;
            let (h, plane) = self.draw(lpn);
            ctx.push(FlashStep::Write { plane });
            if (h >> 4) % 4 == 0 {
                ctx.phase = Phase::Gc;
                ctx.push(FlashStep::CopyBack { plane });
                ctx.push(FlashStep::CopyBack { plane });
                ctx.push(FlashStep::Erase { plane });
            }
            if (h >> 8) % 6 == 0 {
                ctx.phase = Phase::Scan;
                let other = (plane + 1 + (h >> 12) as u32 % (self.planes - 1)) % self.planes;
                ctx.push(FlashStep::Erase { plane: other });
            }
            ctx.phase = Phase::Host;
        }

        fn mapped_ppn(&self, _lpn: Lpn) -> Option<Ppn> {
            None
        }

        fn counters(&self) -> FtlCounters {
            FtlCounters::default()
        }

        fn audit(&self, _flash: &FlashState, _dir: &PageDirectory) -> Result<(), String> {
            Ok(())
        }
    }

    /// The queued rule with no index at all: every pass scans the first
    /// `min(pending, queue_depth)` pending ops, takes per plane the one
    /// with the least `(lane_key, seq)`, and applies the resource, `admit`,
    /// `rank`, chain-less and `fifo` rules of [`SsdDevice::run_queued`]'s
    /// rustdoc to those, through the same `translate_page_op` and
    /// `issue_queued_op`.
    fn run_queued_naive(
        d: &mut SsdDevice,
        requests: &[HostRequest],
        queue_depth: usize,
        policy: &mut dyn QosPolicy,
        fifo: bool,
    ) -> RunReport {
        let lpn_space = d.flash.geometry().user_pages();
        let planes = d.flash.geometry().total_planes() as usize;
        let mut clock = WakeClock::new(requests);
        let mut pending: Vec<QueuedOp> = Vec::new();
        let mut next_seq = 0u64;
        let mut req_done: Vec<SimTime> = requests.iter().map(|r| r.arrival).collect();
        let mut req_ops_left: Vec<u32> = requests.iter().map(|r| r.pages).collect();
        let mut stats = ReplayStats::for_queued(requests);
        let mut ticked = None;
        while let Some((now, arrived)) = clock.pop() {
            if let Some(i) = arrived {
                let req = &requests[i];
                if req.pages == 0 {
                    let at = req.arrival;
                    stats.queue.track(req.tenant, at, at, at);
                    stats.complete(i as u64, at, at);
                    continue;
                }
                for lpn in req.wrapped_page_ops(lpn_space) {
                    let (host, gc, scan) = d.translate_page_op(lpn, req.op);
                    stats.count_page(req.op);
                    let cand = QosCandidate {
                        seq: next_seq,
                        tenant: req.tenant,
                        deadline: req.deadline,
                        arrival: req.arrival,
                        plane: host.steps().first().map_or(0, |s| s.planes().0),
                        draw_uw: d.op_draw_uw(&host, &gc, &scan),
                    };
                    let key = if host.is_empty() {
                        0
                    } else {
                        policy.lane_key(&cand)
                    };
                    next_seq += 1;
                    pending.push(QueuedOp {
                        req: i,
                        lpn,
                        host,
                        gc,
                        scan,
                        cand,
                        key,
                    });
                }
            }
            if ticked != Some(now) {
                ticked = Some(now);
                policy.tick(now);
            }
            loop {
                let window = &pending[..pending.len().min(queue_depth)];
                let mut heads: Vec<Option<&QueuedOp>> = vec![None; planes];
                let mut chainless = None;
                for op in window {
                    if op.host.is_empty() {
                        chainless = chainless.or(Some(op.cand.seq));
                        continue;
                    }
                    let head = &mut heads[op.cand.plane as usize];
                    if head.is_none_or(|h| (op.key, op.cand.seq) < (h.key, h.cand.seq)) {
                        *head = Some(op);
                    }
                }
                let mut best: Option<((u64, u64, SimTime, u64), QosCandidate)> = None;
                if fifo || chainless.is_none() {
                    for op in heads.into_iter().flatten() {
                        let (p, p2) = op.host.steps()[0].planes();
                        let free = |plane| {
                            d.hw.plane_ready_at(plane) <= now && d.hw.channel_ready_at(plane) <= now
                        };
                        if !free(p) || !p2.is_none_or(free) || !policy.admit(now, &op.cand) {
                            continue;
                        }
                        let (r0, r1) = policy.rank(now, &op.cand);
                        let key = (r0, r1, d.hw.plane_ready_at(p), op.cand.seq);
                        if best.is_none_or(|(k, _)| key < k) {
                            best = Some((key, op.cand));
                        }
                    }
                }
                // A chain-less op goes first unless the FIFO discipline
                // finds an older op ready.
                let charged = match (chainless, best) {
                    (Some(seq), Some((_, cand))) if cand.seq < seq => Some(cand),
                    (Some(_), _) => None,
                    (None, Some((_, cand))) => Some(cand),
                    (None, None) => break,
                };
                let seq = charged.map_or_else(|| chainless.unwrap(), |c| c.seq);
                let at = pending.iter().position(|op| op.cand.seq == seq).unwrap();
                let op = pending.remove(at);
                if let Some(cand) = &charged {
                    policy.on_issue(now, cand);
                }
                let release = d.issue_queued_op(
                    op,
                    now,
                    &mut stats,
                    &mut req_done,
                    &mut req_ops_left,
                    &mut clock.wakes,
                );
                if let Some(cand) = &charged {
                    policy.note_release(now, cand, release);
                }
            }
        }
        assert!(pending.is_empty(), "the naive scheduler stranded an op");
        d.finish_report(requests.len() as u64, stats)
    }

    /// Earliest deadline first, in the lanes as well as across them: no
    /// shipped policy overrides [`QosPolicy::lane_key`], so this fixture
    /// is what keeps the driver's keyed lanes under the naive oracle.
    struct DeadlineLanes;

    impl QosPolicy for DeadlineLanes {
        fn name(&self) -> &'static str {
            "deadline"
        }

        fn rank(&mut self, _now: SimTime, c: &QosCandidate) -> (u64, u64) {
            (self.lane_key(c), 0)
        }

        fn lane_key(&mut self, c: &QosCandidate) -> u64 {
            c.deadline.map_or(u64::MAX, SimTime::as_nanos)
        }
    }

    /// `run_queued` and the naive scan agree, report field for report
    /// field and completion record for completion record, on random
    /// traces (unmapped reads, multi-page and zero-page requests, three
    /// tenants, deadlines) under every discipline: gated (`WindowFifo`,
    /// unbounded), NCQ, window-FIFO, deadline-keyed lanes and power cap,
    /// at window depths 1, 2, 3, 8 and unbounded, with background GC off
    /// and on. `scripts/verify.sh` runs it by name with more cases.
    #[test]
    fn queued_scheduler_matches_naive_oracle() {
        use dloop_simkit::check::{self, Checker, Generator};

        let base =
            SsdConfig::micro_gc_test().with_energy(dloop_nand::EnergyConfig::paper_default());
        let lpns = 48;
        // (gap before arrival in µs, LPN, pages, tag); the tag picks the
        // op, the tenant and the deadline.
        let request = (
            check::u64s(0..90),
            check::u64s(0..lpns),
            check::u32s(0..4),
            check::u64s(0..1 << 12),
        );
        let trace = check::vec_of(request, 1..120).map(|rows| {
            let mut at = 0;
            rows.into_iter()
                .map(|(gap, lpn, pages, tag)| {
                    at += gap;
                    HostRequest {
                        arrival: SimTime::from_micros(at),
                        lpn,
                        pages,
                        op: if tag % 2 == 0 {
                            HostOp::Read
                        } else {
                            HostOp::Write
                        },
                        tenant: (tag / 2 % 3) as TenantId,
                        deadline: (tag / 6 % 2 == 0)
                            .then(|| SimTime::from_micros(at + 100 + tag / 12 * 5)),
                    }
                })
                .collect::<Vec<_>>()
        });
        let disciplines: [(&str, fn() -> Box<dyn QosPolicy>, bool); 5] = [
            ("gated", || QosSpec::WindowFifo.build(), true),
            ("ncq", || QosSpec::Ncq.build(), false),
            ("window-fifo", || QosSpec::WindowFifo.build(), false),
            ("deadline lanes", || Box::new(DeadlineLanes), false),
            (
                "power cap",
                || QosSpec::PowerCap { budget_uw: 200_000 }.build(),
                false,
            ),
        ];
        Checker::new().cases(24).run(&trace, |reqs| {
            for background_gc in [false, true] {
                let config = SsdConfig {
                    background_gc,
                    ..base.clone()
                };
                for (name, policy, fifo) in disciplines {
                    let depths: &[usize] = if fifo {
                        &[usize::MAX]
                    } else {
                        &[1, 2, 3, 8, usize::MAX]
                    };
                    for &depth in depths {
                        let device =
                            || SsdDevice::new(config.clone(), Box::new(SprayFtl::new(&config)));
                        let mut indexed = device();
                        let got = indexed.run_queued(reqs, depth, policy().as_mut(), fifo);
                        let mut naive = device();
                        let want =
                            run_queued_naive(&mut naive, reqs, depth, policy().as_mut(), fifo);
                        let case = format!("{name} depth {depth} background GC {background_gc}");
                        dloop_simkit::check_assert_eq!(got.completions, want.completions, "{case}");
                        dloop_simkit::check_assert_eq!(
                            format!("{got:?}"),
                            format!("{want:?}"),
                            "{case}"
                        );
                    }
                }
            }
            Ok(())
        });
    }
}
