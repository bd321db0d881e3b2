//! Hardware resource/timing model: when does each flash operation start and
//! finish, given contention on channels, planes and (optionally) dies.
//!
//! Each channel's external bus and each plane's cell array is a *timeline*
//! (`busy until t`). What an operation holds, in which order and for how
//! long is its phase list ([`FlashStep::phases`]); [`HardwareModel::exec`]
//! books any operation by walking that list, each phase waiting for its
//! resource and starting once the previous phase released its own.
//! Operations on distinct planes/channels proceed in parallel. This
//! reproduces FlashSim's priority-list behaviour (ready ops on free
//! resources run immediately; blocked ops queue FIFO per resource) while
//! staying deterministic.
//!
//! The holds a booking made are also its trace [`Span`]: the span stores
//! them and derives its wait and occupancy buckets from them, so nothing
//! here re-derives an operation's timing by hand.
//!
//! A config switch (`die_serialized`) additionally serialises the planes of
//! one die, for the ablation that measures how much DLOOP relies on planes
//! being independently operable via multi-plane/copy-back commands.

use crate::geometry::{Geometry, PlaneId};
use crate::step::{FlashStep, Hold};
use crate::timing::TimingConfig;
use dloop_simkit::trace::{Resource, Seg, Span, SpanKind, SpanPhase, TraceSink};
use dloop_simkit::{SimDuration, SimTime};

/// When an operation occupied the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// First instant any resource was held.
    pub start: SimTime,
    /// Instant the last phase released its resource.
    pub end: SimTime,
}

impl Completion {
    /// Total residence time.
    pub fn latency(&self) -> SimDuration {
        self.end - self.start
    }
}

/// Operation counters, for reporting and ablation sanity checks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounters {
    /// Page reads (host + translation + GC reads over the bus).
    pub reads: u64,
    /// Page programs over the bus.
    pub writes: u64,
    /// Block erases.
    pub erases: u64,
    /// Intra-plane copy-backs.
    pub copybacks: u64,
    /// Traditional inter-plane copies.
    pub interplane_copies: u64,
    /// Total read-retry ladder steps executed across all reads.
    pub read_retry_steps: u64,
}

impl OpCounters {
    /// Combine two counter sets field by field.
    fn zip(self, other: OpCounters, f: impl Fn(u64, u64) -> u64) -> OpCounters {
        OpCounters {
            reads: f(self.reads, other.reads),
            writes: f(self.writes, other.writes),
            erases: f(self.erases, other.erases),
            copybacks: f(self.copybacks, other.copybacks),
            interplane_copies: f(self.interplane_copies, other.interplane_copies),
            read_retry_steps: f(self.read_retry_steps, other.read_retry_steps),
        }
    }
}

/// Everything a [`HardwareModel`] accumulates while it books work: the
/// operation counters and the busy time of every resource. Activity only
/// grows, so a measurement window is the difference of two snapshots
/// ([`HwActivity::since`]) and a shard's work is one delta
/// ([`HwActivity::add`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HwActivity {
    /// Operation counters.
    pub ops: OpCounters,
    /// Operations booked on each plane: a two-plane step counts once on
    /// each of its planes.
    pub plane_requests: Vec<u64>,
    /// Busy nanoseconds per plane (array occupancy).
    pub plane_busy_ns: Vec<u64>,
    /// Busy nanoseconds per channel (bus occupancy).
    pub channel_busy_ns: Vec<u64>,
    /// Plane-array nanoseconds spent purely on read-retry ladders (the
    /// added latency of correctable media errors).
    pub retry_ns: u64,
}

impl HwActivity {
    fn idle(planes: usize, channels: usize) -> Self {
        HwActivity {
            ops: OpCounters::default(),
            plane_requests: vec![0; planes],
            plane_busy_ns: vec![0; planes],
            channel_busy_ns: vec![0; channels],
            retry_ns: 0,
        }
    }

    /// The activity accumulated since the snapshot `start` of the same
    /// model.
    pub fn since(&self, start: &HwActivity) -> HwActivity {
        let minus = |a: &[u64], b: &[u64]| a.iter().zip(b).map(|(a, b)| a - b).collect();
        HwActivity {
            ops: self.ops.zip(start.ops, |a, b| a - b),
            plane_requests: minus(&self.plane_requests, &start.plane_requests),
            plane_busy_ns: minus(&self.plane_busy_ns, &start.plane_busy_ns),
            channel_busy_ns: minus(&self.channel_busy_ns, &start.channel_busy_ns),
            retry_ns: self.retry_ns - start.retry_ns,
        }
    }

    /// Add the activity `delta` (a [`HwActivity::since`] of a model with
    /// the same geometry).
    pub fn add(&mut self, delta: &HwActivity) {
        self.ops = self.ops.zip(delta.ops, |a, b| a + b);
        for (mine, theirs) in [
            (&mut self.plane_requests, &delta.plane_requests),
            (&mut self.plane_busy_ns, &delta.plane_busy_ns),
            (&mut self.channel_busy_ns, &delta.channel_busy_ns),
        ] {
            for (a, b) in mine.iter_mut().zip(theirs) {
                *a += b;
            }
        }
        self.retry_ns += delta.retry_ns;
    }

    /// Integer energy totals implied by the busy time under `energy`.
    ///
    /// Every array phase [`HardwareModel::exec`] books is array-active
    /// (reads, programs, erases, copy-backs and the retry ladder alike)
    /// and every bus phase is bus-active, so the busy counters *are* the
    /// energy accumulators: no separate accrual exists to drift. Busy time
    /// is an integer, so the energy of a window, of a shard's delta and of
    /// a whole run all come from exact differences and sums (claim C15).
    pub fn energy(&self, energy: &crate::energy::EnergyConfig) -> crate::energy::EnergyTotals {
        energy.busy_totals(&self.plane_busy_ns, &self.channel_busy_ns)
    }
}

/// The contention/timing model.
#[derive(Debug)]
pub struct HardwareModel {
    timing: TimingConfig,
    page_size: u32,
    planes_per_die: u32,
    planes_per_channel: u32,
    die_serialized: bool,
    channel_avail: Vec<SimTime>,
    plane_avail: Vec<SimTime>,
    die_avail: Vec<SimTime>,
    activity: HwActivity,
    /// Opt-in span sink; `None` (the default) records nothing and leaves
    /// every execution path identical to the pre-trace model.
    sink: Option<Box<dyn TraceSink>>,
    /// Logical phase attached to the next emitted spans.
    span_phase: SpanPhase,
    /// Triggering LPN attached to the next emitted spans.
    span_lpn: Option<u64>,
    /// Triggering host-request id attached to the next emitted spans.
    span_req: Option<u64>,
}

impl HardwareModel {
    /// Build the model for a geometry and timing configuration.
    pub fn new(geometry: &Geometry, timing: TimingConfig, die_serialized: bool) -> Self {
        let planes = geometry.total_planes() as usize;
        let dies = geometry.total_dies() as usize;
        let channels = geometry.channels as usize;
        HardwareModel {
            timing,
            page_size: geometry.page_size,
            planes_per_die: geometry.planes_per_die,
            planes_per_channel: geometry.total_planes() / geometry.channels,
            die_serialized,
            channel_avail: vec![SimTime::ZERO; channels],
            plane_avail: vec![SimTime::ZERO; planes],
            die_avail: vec![SimTime::ZERO; dies],
            activity: HwActivity::idle(planes, channels),
            sink: None,
            span_phase: SpanPhase::Host,
            span_lpn: None,
            span_req: None,
        }
    }

    /// The timing parameters in force.
    pub fn timing(&self) -> &TimingConfig {
        &self.timing
    }

    /// Fork a worker-model for one shard of a parallel replay: identical
    /// timing, geometry derivations, **resource timelines** (so work
    /// already booked keeps delaying the shard's future work) and
    /// activity, but no sink. The shard's own work is its activity since
    /// the fork, which the coordinator adds back to the parent through
    /// [`HardwareModel::absorb_activity`].
    pub fn shard_clone(&self) -> HardwareModel {
        HardwareModel {
            timing: self.timing.clone(),
            page_size: self.page_size,
            planes_per_die: self.planes_per_die,
            planes_per_channel: self.planes_per_channel,
            die_serialized: self.die_serialized,
            channel_avail: self.channel_avail.clone(),
            plane_avail: self.plane_avail.clone(),
            die_avail: self.die_avail.clone(),
            activity: self.activity.clone(),
            sink: None,
            span_phase: SpanPhase::Host,
            span_lpn: None,
            span_req: None,
        }
    }

    /// Copy the availability entries governing `plane` — the plane itself,
    /// its channel, and (relevant when die-serialised) its die — from
    /// `other` into `self`. This is the shard-merge primitive: a worker
    /// only ever books planes it owns, so when it finishes, the parent
    /// model imports each owned plane's final timeline state from it.
    pub fn sync_plane_state_from(&mut self, other: &HardwareModel, plane: PlaneId) {
        let p = plane as usize;
        let c = self.channel_of(plane);
        let d = self.die_of(plane);
        self.plane_avail[p] = other.plane_avail[p];
        self.channel_avail[c] = other.channel_avail[c];
        self.die_avail[d] = other.die_avail[d];
    }

    /// Add a shard's activity delta (its [`HwActivity::since`] the fork)
    /// to `self`. Availability timelines are *not* touched: each shard
    /// owns its resources' final state, which the coordinator imports
    /// separately through [`HardwareModel::sync_plane_state_from`].
    pub fn absorb_activity(&mut self, delta: &HwActivity) {
        self.activity.add(delta);
    }

    /// Everything booked so far: operation counts, per plane and in
    /// total, and busy time.
    pub fn activity(&self) -> &HwActivity {
        &self.activity
    }

    /// Rewind every resource timeline to time 0, keeping the activity: the
    /// model's clock restarts, its counters do not.
    pub fn rewind(&mut self) {
        for avail in [
            &mut self.channel_avail,
            &mut self.plane_avail,
            &mut self.die_avail,
        ] {
            avail.fill(SimTime::ZERO);
        }
    }

    /// Attach `sink` as the destination for emitted spans, replacing any
    /// previous sink. Recording is pure observation: resource timelines,
    /// counters and completions are bit-identical with or without a sink.
    pub fn attach_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.sink = Some(sink);
    }

    /// Detach and return the span sink, disabling tracing. A detached
    /// model is bit-identical to one that never traced.
    pub fn detach_sink(&mut self) -> Option<Box<dyn TraceSink>> {
        self.sink.take()
    }

    /// The attached span sink, if tracing is enabled.
    pub fn sink(&self) -> Option<&dyn TraceSink> {
        self.sink.as_deref()
    }

    /// Mutable access to the attached span sink, if tracing is enabled.
    /// Used by drivers that feed the sink out-of-band — e.g. the sharded
    /// replay engine forwarding per-shard span rings back in canonical
    /// order.
    pub fn sink_mut(&mut self) -> Option<&mut (dyn TraceSink + 'static)> {
        self.sink.as_deref_mut()
    }

    /// Tag spans emitted by subsequent [`Self::exec`] calls with a phase, the
    /// triggering LPN, and the stable host-request id. Cheap enough to
    /// call unconditionally; ignored while no sink is attached.
    pub fn set_span_context(&mut self, phase: SpanPhase, lpn: Option<u64>, req: Option<u64>) {
        self.span_phase = phase;
        self.span_lpn = lpn;
        self.span_req = req;
    }

    fn channel_of(&self, plane: PlaneId) -> usize {
        (plane / self.planes_per_channel) as usize
    }

    fn die_of(&self, plane: PlaneId) -> usize {
        (plane / self.planes_per_die) as usize
    }

    /// Hold `plane` (and its die, when serialised) for `dur` starting no
    /// earlier than `t`; returns the phase (start, end).
    fn hold_plane(&mut self, plane: PlaneId, t: SimTime, dur: SimDuration) -> (SimTime, SimTime) {
        let p = plane as usize;
        let mut start = t.max(self.plane_avail[p]);
        if self.die_serialized {
            let d = self.die_of(plane);
            start = start.max(self.die_avail[d]);
            let end = start + dur;
            self.die_avail[d] = end;
            self.plane_avail[p] = end;
            self.activity.plane_busy_ns[p] += dur.as_nanos();
            return (start, end);
        }
        let end = start + dur;
        self.plane_avail[p] = end;
        self.activity.plane_busy_ns[p] += dur.as_nanos();
        (start, end)
    }

    /// Hold the channel owning `plane` for `dur` starting no earlier than
    /// `t`; returns the phase (start, end).
    fn hold_channel(&mut self, plane: PlaneId, t: SimTime, dur: SimDuration) -> (SimTime, SimTime) {
        let c = self.channel_of(plane);
        let start = t.max(self.channel_avail[c]);
        let end = start + dur;
        self.channel_avail[c] = end;
        self.activity.channel_busy_ns[c] += dur.as_nanos();
        (start, end)
    }

    /// Earliest time `plane`'s array is free.
    pub fn plane_ready_at(&self, plane: PlaneId) -> SimTime {
        self.plane_avail[plane as usize]
    }

    /// Earliest time the channel serving `plane` is free.
    pub fn channel_ready_at(&self, plane: PlaneId) -> SimTime {
        self.channel_avail[self.channel_of(plane)]
    }

    /// Book `step` no earlier than `at`: hold each of its phases in turn,
    /// each starting once its resource is free and the previous phase has
    /// released its own. Bumps the step's counters and, while a sink is
    /// attached, records the holds as one span.
    pub fn exec(&mut self, step: FlashStep, at: SimTime) -> Completion {
        let phases = step.phases(&self.timing, self.page_size);
        let c = &mut self.activity.ops;
        let (count, kind, retry_steps) = match step {
            FlashStep::Read { .. } | FlashStep::ReadRetry { steps: 0, .. } => {
                (&mut c.reads, SpanKind::Read, 0)
            }
            FlashStep::ReadRetry { steps, .. } => (&mut c.reads, SpanKind::ReadRetry, steps),
            FlashStep::Write { .. } => (&mut c.writes, SpanKind::Write, 0),
            FlashStep::Erase { .. } => (&mut c.erases, SpanKind::Erase, 0),
            FlashStep::CopyBack { .. } => (&mut c.copybacks, SpanKind::CopyBack, 0),
            FlashStep::InterPlaneCopy { .. } => {
                (&mut c.interplane_copies, SpanKind::InterPlaneCopy, 0)
            }
        };
        *count += 1;
        c.read_retry_steps += retry_steps as u64;
        let (plane, dst_plane) = step.planes();
        self.activity.plane_requests[plane as usize] += 1;
        if let Some(dst) = dst_plane {
            self.activity.plane_requests[dst as usize] += 1;
        }
        self.activity.retry_ns += phases.retry.as_nanos();
        let mut holds = [(at, at); 4];
        let mut end = at;
        for (hold, phase) in holds.iter_mut().zip(phases.iter()) {
            *hold = match phase.hold {
                Hold::Array(plane) => self.hold_plane(plane, end, phase.dur),
                Hold::Bus(plane) => self.hold_channel(plane, end, phase.dur),
            };
            end = hold.1;
        }
        let start = holds[0].0;
        let per_channel = self.planes_per_channel;
        if let Some(sink) = self.sink.as_mut() {
            let mut segs = [None; 4];
            for ((seg, &(start, end)), phase) in segs.iter_mut().zip(&holds).zip(phases.iter()) {
                let resource = match phase.hold {
                    Hold::Array(plane) => Resource::Plane(plane),
                    Hold::Bus(plane) => Resource::Channel(plane / per_channel),
                };
                *seg = Some(Seg {
                    resource,
                    start,
                    end,
                });
            }
            sink.record(&Span {
                kind,
                phase: self.span_phase,
                lpn: self.span_lpn,
                req: self.span_req,
                plane,
                dst_plane,
                issue: at,
                end,
                retry_ns: phases.retry.as_nanos(),
                retry_steps,
                segs,
            });
        }
        Completion { start, end }
    }

    /// Host/GC page read on `plane` at `at` (array read, then bus out).
    pub fn exec_read(&mut self, plane: PlaneId, at: SimTime) -> Completion {
        self.exec(FlashStep::Read { plane }, at)
    }

    /// Page read on `plane` at `at` that needed `steps` read-retry ladder
    /// steps: the plane is additionally held for each step's re-sense and
    /// soft decode before the bus transfer.
    pub fn exec_read_retry(&mut self, plane: PlaneId, at: SimTime, steps: u32) -> Completion {
        self.exec(FlashStep::ReadRetry { plane, steps }, at)
    }

    /// Host/GC page program on `plane` at `at` (bus in, then array program).
    pub fn exec_write(&mut self, plane: PlaneId, at: SimTime) -> Completion {
        self.exec(FlashStep::Write { plane }, at)
    }

    /// Block erase on `plane` at `at`.
    pub fn exec_erase(&mut self, plane: PlaneId, at: SimTime) -> Completion {
        self.exec(FlashStep::Erase { plane }, at)
    }

    /// Intra-plane copy-back on `plane` at `at`: read into the plane data
    /// register and program back — the external channel is never touched.
    pub fn exec_copyback(&mut self, plane: PlaneId, at: SimTime) -> Completion {
        self.exec(FlashStep::CopyBack { plane }, at)
    }

    /// Traditional inter-plane copy from `src` to `dst` at `at`: the page
    /// travels source plane → bus → controller → bus → destination plane.
    pub fn exec_interplane_copy(&mut self, src: PlaneId, dst: PlaneId, at: SimTime) -> Completion {
        self.exec(FlashStep::InterPlaneCopy { src, dst }, at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Geometry;
    use dloop_simkit::trace::RingSink;

    fn hw() -> HardwareModel {
        let g = Geometry::paper_default();
        HardwareModel::new(&g, TimingConfig::paper_default(), false)
    }

    fn take_ring(h: &mut HardwareModel) -> RingSink {
        let sink = h.detach_sink().expect("a sink is attached");
        *sink.into_any().downcast::<RingSink>().expect("ring sink")
    }

    #[test]
    fn isolated_read_latency() {
        let mut h = hw();
        let c = h.exec_read(0, SimTime::ZERO);
        // cmd 0.2 + read 25 + xfer 51.2 us.
        assert_eq!(c.latency().as_nanos(), 200 + 25_000 + 51_200);
        assert_eq!(h.activity().ops.reads, 1);
    }

    #[test]
    fn isolated_copyback_latency_matches_paper() {
        let mut h = hw();
        let c = h.exec_copyback(5, SimTime::ZERO);
        assert_eq!(c.latency().as_micros_f64(), 225.2);
        // Channel untouched.
        assert_eq!(h.channel_ready_at(5), SimTime::ZERO);
    }

    #[test]
    fn interplane_copy_holds_the_bus() {
        let mut h = hw();
        let c = h.exec_interplane_copy(0, 1, SimTime::ZERO);
        assert!((c.latency().as_micros_f64() - 327.6).abs() < 1e-9);
        // Planes 0 and 1 share channel 0; its bus was held twice.
        assert!(h.channel_ready_at(0) > SimTime::ZERO);
    }

    /// Every step kind, booked alone on an idle model, takes exactly the
    /// sum of its phases and adds exactly its priced energy to the busy
    /// counters — for both timing models and every Fig. 9 page size.
    #[test]
    fn each_step_books_its_phase_list_and_its_energy() {
        let energy = crate::energy::EnergyConfig::paper_default();
        let steps = [
            FlashStep::Read { plane: 1 },
            FlashStep::ReadRetry { plane: 1, steps: 2 },
            FlashStep::Write { plane: 1 },
            FlashStep::Erase { plane: 1 },
            FlashStep::CopyBack { plane: 1 },
            FlashStep::InterPlaneCopy { src: 1, dst: 9 },
        ];
        for timing in [
            TimingConfig::paper_default(),
            TimingConfig::paper_fixed_transfer(),
        ] {
            for page_kb in [2u32, 4, 8, 16] {
                let g = Geometry {
                    page_size: page_kb * 1024,
                    ..Geometry::paper_default()
                };
                for step in steps {
                    let mut h = HardwareModel::new(&g, timing.clone(), false);
                    let c = h.exec(step, SimTime::ZERO);
                    let phases = step.phases(&timing, g.page_size);
                    assert_eq!(c.latency(), phases.service(), "{step:?} @ {page_kb} KB");
                    assert_eq!(
                        h.activity().energy(&energy),
                        energy.step_totals(&step, &timing, g.page_size),
                        "{step:?} @ {page_kb} KB"
                    );
                }
            }
        }
    }

    #[test]
    fn copybacks_on_different_planes_run_in_parallel() {
        let mut h = hw();
        let a = h.exec_copyback(0, SimTime::ZERO);
        let b = h.exec_copyback(1, SimTime::ZERO);
        // Fully overlapping: same start, same end.
        assert_eq!(a.start, b.start);
        assert_eq!(a.end, b.end);
    }

    #[test]
    fn same_plane_operations_serialise() {
        let mut h = hw();
        let a = h.exec_copyback(0, SimTime::ZERO);
        let b = h.exec_copyback(0, SimTime::ZERO);
        assert_eq!(b.start, a.end);
    }

    #[test]
    fn copyback_leaves_bus_free_for_reads() {
        // A read on plane 1 (same channel as plane 0) is NOT delayed by a
        // concurrent copy-back on plane 0.
        let mut h = hw();
        h.exec_copyback(0, SimTime::ZERO);
        let r = h.exec_read(1, SimTime::ZERO);
        assert_eq!(r.start, SimTime::ZERO);
        assert_eq!(r.latency().as_nanos(), 200 + 25_000 + 51_200);
    }

    #[test]
    fn interplane_copy_delays_bus_users() {
        // The same scenario with an inter-plane copy instead: the read's
        // transfer phase must queue behind the copy's bus phases.
        let mut h = hw();
        h.exec_interplane_copy(0, 2, SimTime::ZERO);
        let r = h.exec_read(1, SimTime::ZERO);
        assert!(
            r.latency().as_nanos() > 200 + 25_000 + 51_200,
            "read should have been delayed by bus contention"
        );
    }

    #[test]
    fn writes_on_same_channel_serialise_on_the_bus() {
        let mut h = hw();
        let a = h.exec_write(0, SimTime::ZERO);
        let b = h.exec_write(1, SimTime::ZERO); // same channel, other plane
                                                // b's transfer waits for a's transfer, but programs overlap.
        let xfer = 200 + 51_200;
        assert_eq!(b.start.as_nanos(), xfer);
        assert!(b.end.as_nanos() < a.end.as_nanos() + xfer + 200_000);
    }

    #[test]
    fn writes_on_different_channels_are_independent() {
        let mut h = hw();
        let a = h.exec_write(0, SimTime::ZERO);
        let b = h.exec_write(8, SimTime::ZERO); // planes/channel = 8 -> channel 1
        assert_eq!(a.start, b.start);
        assert_eq!(a.end, b.end);
    }

    #[test]
    fn die_serialization_ablation() {
        let g = Geometry::paper_default();
        let mut h = HardwareModel::new(&g, TimingConfig::paper_default(), true);
        let a = h.exec_copyback(0, SimTime::ZERO);
        let b = h.exec_copyback(1, SimTime::ZERO); // same die (planes 0-3)
        assert_eq!(b.start, a.end, "die-serialised planes must not overlap");
        let c = h.exec_copyback(4, SimTime::ZERO); // next die
        assert_eq!(c.start, SimTime::ZERO);
    }

    #[test]
    fn read_retry_zero_steps_equals_plain_read() {
        let mut a = hw();
        let mut b = hw();
        let ca = a.exec_read(0, SimTime::ZERO);
        let cb = b.exec_read_retry(0, SimTime::ZERO, 0);
        assert_eq!(ca, cb);
        assert_eq!(a.activity(), b.activity());
        assert_eq!(b.activity().retry_ns, 0);
        assert_eq!(b.activity().ops.read_retry_steps, 0);
    }

    #[test]
    fn read_retry_steps_hold_the_plane_not_the_bus() {
        let mut h = hw();
        let base = h.exec_read_retry(0, SimTime::ZERO, 0).latency();
        let mut h2 = hw();
        let retried = h2.exec_read_retry(0, SimTime::ZERO, 3).latency();
        let extra = h2.timing().read_retry_overhead(3);
        assert_eq!(retried.as_nanos(), base.as_nanos() + extra.as_nanos());
        assert_eq!(h2.activity().ops.read_retry_steps, 3);
        assert_eq!(h2.activity().retry_ns, extra.as_nanos());
        // The bus phase is identical — retries live inside the plane.
        assert_eq!(h.activity().channel_busy_ns, h2.activity().channel_busy_ns);
    }

    #[test]
    fn ring_captures_one_span_per_op_with_exact_attribution() {
        let mut h = hw();
        h.attach_sink(Box::new(RingSink::new(64)));
        h.set_span_context(SpanPhase::Host, Some(42), Some(7));
        h.exec_write(0, SimTime::ZERO);
        h.exec_read(0, SimTime::ZERO); // queues behind the write
        h.set_span_context(SpanPhase::Gc, Some(42), Some(7));
        h.exec_copyback(1, SimTime::ZERO);
        h.exec_erase(1, SimTime::ZERO);
        h.exec_interplane_copy(2, 3, SimTime::ZERO);
        let rec = take_ring(&mut h);
        assert_eq!(rec.recorded(), 5);
        let spans: Vec<_> = rec.spans().collect();
        // Every span's attribution buckets tile its residence exactly.
        for s in &spans {
            assert_eq!(s.buckets_ns(), s.residence_ns(), "{:?}", s.kind);
            assert_eq!(s.lpn, Some(42));
            assert_eq!(s.req, Some(7));
        }
        assert_eq!(spans[0].kind, SpanKind::Write);
        assert_eq!(spans[0].phase, SpanPhase::Host);
        // The read queued behind the write on plane 0: its wait is visible.
        assert_eq!(spans[1].kind, SpanKind::Read);
        let wait = spans[1].attribution();
        assert!(wait.plane_wait_ns + wait.channel_wait_ns > 0);
        // Copy-back never touches a channel.
        assert_eq!(spans[2].phase, SpanPhase::Gc);
        assert_eq!(spans[2].attribution().bus_ns, 0);
        assert!(spans[2]
            .segments()
            .all(|seg| matches!(seg.resource, Resource::Plane(1))));
        // The inter-plane copy holds four resources.
        assert_eq!(spans[4].segments().count(), 4);
        assert_eq!(spans[4].dst_plane, Some(3));
    }

    #[test]
    fn recording_does_not_perturb_timing_or_counters() {
        let ops = |h: &mut HardwareModel| {
            let mut ends = Vec::new();
            ends.push(h.exec_write(0, SimTime::ZERO));
            ends.push(h.exec_read_retry(0, SimTime::ZERO, 2));
            ends.push(h.exec_copyback(1, SimTime::ZERO));
            ends.push(h.exec_interplane_copy(0, 2, SimTime::ZERO));
            ends.push(h.exec_erase(2, SimTime::ZERO));
            ends
        };
        let mut plain = hw();
        let mut traced = hw();
        traced.attach_sink(Box::new(RingSink::new(1024)));
        let a = ops(&mut plain);
        let b = ops(&mut traced);
        assert_eq!(a, b, "tracing must not change completions");
        assert_eq!(plain.activity(), traced.activity());
        assert_eq!(traced.sink().unwrap().recorded(), 5);
    }

    #[test]
    fn retry_span_charges_the_ladder_separately() {
        let mut h = hw();
        h.attach_sink(Box::new(RingSink::new(8)));
        h.exec_read_retry(0, SimTime::ZERO, 3);
        let rec = take_ring(&mut h);
        let s = rec.spans().next().unwrap();
        assert_eq!(s.kind, SpanKind::ReadRetry);
        assert_eq!(s.retry_steps, 3);
        assert_eq!(s.retry_ns, h.timing().read_retry_overhead(3).as_nanos());
        assert_eq!(s.buckets_ns(), s.residence_ns());
    }

    /// A sink that only counts what it sees: a stand-in for any sink that
    /// is not the ring.
    #[derive(Debug, Default)]
    struct CountingSink(u64);

    impl TraceSink for CountingSink {
        fn record(&mut self, _: &Span) {
            self.0 += 1;
        }
        fn recorded(&self) -> u64 {
            self.0
        }
        fn dropped(&self) -> u64 {
            0
        }
        fn reset(&mut self) {
            self.0 = 0;
        }
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
    fn attach_detach_round_trips_non_ring_sinks() {
        let mut h = hw();
        h.attach_sink(Box::<CountingSink>::default());
        h.exec_write(0, SimTime::ZERO);
        h.exec_read(0, SimTime::ZERO);
        assert_eq!(h.sink().expect("still attached").recorded(), 2);
        let sink = h.detach_sink().expect("sink attached");
        let counted = sink
            .into_any()
            .downcast::<CountingSink>()
            .expect("counting sink");
        assert_eq!(counted.0, 2);
        assert!(h.sink().is_none(), "detached model no longer traces");
    }

    #[test]
    fn shard_clone_copies_timelines_and_activity_but_not_the_sink() {
        let mut h = hw();
        h.attach_sink(Box::new(RingSink::new(8)));
        h.exec_write(0, SimTime::ZERO);
        h.exec_read(9, SimTime::ZERO);
        let s = h.shard_clone();
        // Timelines carry over: booked work still delays the shard.
        assert_eq!(s.plane_ready_at(0), h.plane_ready_at(0));
        assert_eq!(s.channel_ready_at(9), h.channel_ready_at(9));
        // So does activity: the shard's own work is its delta since now.
        assert_eq!(s.activity(), h.activity());
        assert!(s.sink().is_none());
    }

    #[test]
    fn rewind_restarts_the_clock_and_keeps_the_activity() {
        let mut h = hw();
        h.exec_write(0, SimTime::ZERO);
        let booked = h.activity().clone();
        h.rewind();
        assert_eq!(h.plane_ready_at(0), SimTime::ZERO);
        assert_eq!(h.channel_ready_at(0), SimTime::ZERO);
        assert_eq!(h.activity(), &booked);
        // Work books from time 0 again, and adds to the activity.
        let again = h.exec_write(0, SimTime::ZERO);
        assert_eq!(again.start, SimTime::ZERO);
        assert_eq!(h.activity().since(&booked).ops.writes, 1);
    }

    #[test]
    fn split_playback_with_absorb_matches_sequential() {
        // Play two independent-plane op sequences sequentially on one
        // model, and split across two shard clones whose deltas are added
        // back — the paradigm the sharded replay engine relies on. Planes
        // 0 and 8 are on different channels, so the sequences never
        // interact. The base has booked work already, so the deltas are
        // not the clones' whole activity.
        let mut seq = hw();
        seq.exec_erase(16, SimTime::ZERO);
        let mut base = hw();
        base.exec_erase(16, SimTime::ZERO);
        let start = base.activity().clone();
        seq.exec_write(0, SimTime::ZERO);
        seq.exec_read(0, SimTime::ZERO);
        seq.exec_write(8, SimTime::ZERO);
        seq.exec_copyback(8, SimTime::ZERO);

        let mut a = base.shard_clone();
        let mut b = base.shard_clone();
        a.exec_write(0, SimTime::ZERO);
        a.exec_read(0, SimTime::ZERO);
        b.exec_write(8, SimTime::ZERO);
        b.exec_copyback(8, SimTime::ZERO);
        let mut merged = base;
        for m in [&a, &b] {
            merged.absorb_activity(&m.activity().since(&start));
        }
        merged.sync_plane_state_from(&a, 0);
        merged.sync_plane_state_from(&b, 8);

        assert_eq!(merged.activity(), seq.activity());
        assert_eq!(merged.plane_ready_at(0), seq.plane_ready_at(0));
        assert_eq!(merged.plane_ready_at(8), seq.plane_ready_at(8));
        assert_eq!(merged.channel_ready_at(0), seq.channel_ready_at(0));
        assert_eq!(merged.channel_ready_at(8), seq.channel_ready_at(8));

        // Energy is a pure function of the busy counters, so the shard
        // fold reproduces the sequential totals bit-for-bit — and summing
        // the per-shard deltas' totals in either order matches too.
        let e = crate::energy::EnergyConfig::paper_default();
        assert_eq!(merged.activity().energy(&e), seq.activity().energy(&e));
        let mut folded = start.energy(&e);
        folded.absorb(&a.activity().since(&start).energy(&e));
        folded.absorb(&b.activity().since(&start).energy(&e));
        assert_eq!(folded, seq.activity().energy(&e));
    }

    #[test]
    fn sync_plane_state_imports_channel_and_die_entries() {
        let g = Geometry::paper_default();
        let mut owner = HardwareModel::new(&g, TimingConfig::paper_default(), true);
        owner.exec_copyback(2, SimTime::ZERO); // holds plane 2 and die 0
        owner.exec_write(3, SimTime::ZERO); // holds channel 0 too
        let mut exec = owner.shard_clone();
        let mut fresh = HardwareModel::new(&g, TimingConfig::paper_default(), true);
        fresh.sync_plane_state_from(&owner, 2);
        fresh.sync_plane_state_from(&owner, 3);
        // The imported entries now agree with the owner's for both planes,
        // including the shared die/channel state.
        let c = exec.exec_copyback(2, SimTime::ZERO);
        let c2 = fresh.exec_copyback(2, SimTime::ZERO);
        assert_eq!(c, c2, "imported timelines must reproduce the owner's");
    }
}
