//! Timing decorators for the simulator's three public trait seams.
//!
//! This benchmark may not edit simulator code, so every in-situ number
//! comes from wrapping a trait object the simulator already accepts:
//!
//! * [`TimedFtl`] around `ftl_kit::ftl::Ftl` — wall time and call counts
//!   of `read`/`write`, the chain lengths each call produced, and a
//!   capture of the page-op and flash-step streams that the isolated
//!   drivers (`crate::isolated`) replay afterwards;
//! * [`TimedSink`] around `simkit::trace::TraceSink`;
//! * [`TimedPolicy`] around `ftl_kit::sched::QosPolicy`.
//!
//! All three are pure observers: they forward every call unchanged and
//! never touch simulation state, which `tests/purity.rs` pins by
//! fingerprint. Each also keeps an in-memory 1-in-[`SPAN_SAMPLE`] span
//! log that the harness writes out when the run ends.

use dloop_repro::ftl_kit::dir::PageDirectory;
use dloop_repro::ftl_kit::ftl::{FlashStep, Ftl, FtlContext, FtlCounters};
use dloop_repro::ftl_kit::sched::{QosCandidate, QosPolicy};
use dloop_repro::nand::{FlashState, Lpn, Ppn};
use dloop_repro::simkit::trace::{Span, TraceSink};
use dloop_repro::simkit::SimTime;
use std::any::Any;
use std::sync::Mutex;
use std::time::Instant;

/// One span in every `SPAN_SAMPLE` calls is kept per decorator.
pub const SPAN_SAMPLE: u64 = 64;

/// A sampled wall-clock span, in nanoseconds since the traced rep's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRec {
    /// Layer-qualified name (`ftl.write`, `sink.record`, …).
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
    /// Host request the call served, when the decorator can know it.
    pub req: Option<u64>,
}

/// Call count and summed wall time of one entry point.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Lane {
    /// Calls observed.
    pub calls: u64,
    /// Summed wall nanoseconds inside the wrapped call.
    pub busy_ns: u64,
}

impl Lane {
    fn add(&mut self, ns: u64) {
        self.calls += 1;
        self.busy_ns += ns;
    }
}

/// Marks the start of a chain in [`FtlProbe::steps`]; the low bits carry
/// the phase (0 host, 1 GC, 2 scan).
const CHAIN_MARK: u32 = 7 << 29;
const FIELD_BITS: u32 = 13;
const FIELD_MASK: u32 = (1 << FIELD_BITS) - 1;

/// Pack a flash step into one word: kind in the top three bits, the
/// primary plane below it, and the second operand (destination plane or
/// retry steps) in the low field.
fn encode_step(step: &FlashStep) -> u32 {
    let (kind, a, b) = match *step {
        FlashStep::Read { plane } => (0, plane, 0),
        FlashStep::Write { plane } => (1, plane, 0),
        FlashStep::Erase { plane } => (2, plane, 0),
        FlashStep::CopyBack { plane } => (3, plane, 0),
        FlashStep::ReadRetry { plane, steps } => (4, plane, steps),
        FlashStep::InterPlaneCopy { src, dst } => (5, src, dst),
    };
    assert!(
        a <= FIELD_MASK && b <= FIELD_MASK,
        "step operand exceeds the capture encoding"
    );
    (kind << 29) | (a << FIELD_BITS) | b
}

/// One decoded entry of the captured step stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Captured {
    /// A new chain begins (its steps run back to back).
    ChainStart,
    /// One flash step of the current chain.
    Step(FlashStep),
}

/// Decode one word written by the capture.
pub fn decode_step(word: u32) -> Captured {
    let a = (word >> FIELD_BITS) & FIELD_MASK;
    let b = word & FIELD_MASK;
    Captured::Step(match word >> 29 {
        0 => FlashStep::Read { plane: a },
        1 => FlashStep::Write { plane: a },
        2 => FlashStep::Erase { plane: a },
        3 => FlashStep::CopyBack { plane: a },
        4 => FlashStep::ReadRetry { plane: a, steps: b },
        5 => FlashStep::InterPlaneCopy { src: a, dst: b },
        _ => return Captured::ChainStart,
    })
}

/// Everything [`TimedFtl`] observed while armed.
#[derive(Debug, Default)]
pub struct FtlProbe {
    armed: bool,
    /// `read` calls.
    pub read: Lane,
    /// `write` calls (all of them, collecting or not).
    pub write: Lane,
    /// The subset of `write` calls during which the GC chain grew.
    pub write_gc: Lane,
    /// Steps appended to the host / GC / scan chains.
    pub steps_by_phase: [u64; 3],
    /// The page-op stream: `lpn << 1 | is_write`, in call order.
    pub ops: Vec<u64>,
    /// The flash-step stream, chain by chain (see [`decode_step`]).
    pub steps: Vec<u32>,
    /// Sampled call spans.
    pub spans: Vec<SpanRec>,
    /// `(request id, page ops)` in service order, when the harness can
    /// supply it; lets sampled spans name the request they served.
    requests: Vec<(u64, u32)>,
    cursor: usize,
    left_in_request: u32,
}

impl FtlProbe {
    /// Total calls observed.
    pub fn calls(&self) -> u64 {
        self.read.calls + self.write.calls
    }

    /// Total wall nanoseconds inside the wrapped FTL.
    pub fn busy_ns(&self) -> u64 {
        self.read.busy_ns + self.write.busy_ns
    }

    /// Total flash steps captured.
    pub fn total_steps(&self) -> u64 {
        self.steps_by_phase.iter().sum()
    }

    /// The request the next call serves, advancing the service cursor.
    fn next_request(&mut self) -> Option<u64> {
        while self.left_in_request == 0 {
            let &(_, pages) = self.requests.get(self.cursor)?;
            self.left_in_request = pages;
            self.cursor += 1;
        }
        self.left_in_request -= 1;
        Some(self.requests[self.cursor - 1].0)
    }
}

/// A timing decorator around any [`Ftl`].
///
/// It leaves the `shard_*` hooks at the trait defaults (opting out of
/// plane-sharded translation), so a device built on it always translates
/// sequentially: traced reps are sequential by construction.
pub struct TimedFtl<F: Ftl> {
    inner: F,
    epoch: Instant,
    /// Read through `get_mut` on the hot path (no locking: the device
    /// holds `&mut` there) and through `lock` from outside, where the
    /// device only hands out `&dyn Ftl`.
    probe: Mutex<FtlProbe>,
}

impl<F: Ftl + 'static> TimedFtl<F> {
    /// Wrap `inner`; span times count from `epoch`. The probe starts
    /// disarmed so device aging is not recorded — call [`TimedFtl::arm`]
    /// when the measured window opens.
    pub fn new(inner: F, epoch: Instant) -> Self {
        TimedFtl {
            inner,
            epoch,
            probe: Mutex::new(FtlProbe::default()),
        }
    }

    /// The decorator behind a device's `&dyn Ftl`, if that is what the
    /// device was built on.
    pub fn of(ftl: &dyn Ftl) -> Option<&Self> {
        ftl.as_any()?.downcast_ref::<Self>()
    }

    /// Start recording. `requests` lists `(request id, page ops)` in the
    /// order the device will serve them (empty when unknown).
    pub fn arm(&self, requests: Vec<(u64, u32)>) {
        let mut probe = self.probe.lock().expect("probe mutex poisoned");
        *probe = FtlProbe {
            armed: true,
            requests,
            ..FtlProbe::default()
        };
    }

    /// Stop recording and hand over what was observed.
    pub fn take(&self) -> FtlProbe {
        std::mem::take(&mut *self.probe.lock().expect("probe mutex poisoned"))
    }

    fn observe(&mut self, lpn: Lpn, is_write: bool, ctx: &mut FtlContext<'_>) {
        let probe = self.probe.get_mut().expect("probe mutex poisoned");
        if !probe.armed {
            return if is_write {
                self.inner.write(lpn, ctx)
            } else {
                self.inner.read(lpn, ctx)
            };
        }
        let before = [
            ctx.host_chain.len(),
            ctx.gc_chain.len(),
            ctx.scan_chain.len(),
        ];
        let start = Instant::now();
        if is_write {
            self.inner.write(lpn, ctx);
        } else {
            self.inner.read(lpn, ctx);
        }
        let end = Instant::now();
        let ns = (end - start).as_nanos() as u64;

        let chains = [&*ctx.host_chain, &*ctx.gc_chain, &*ctx.scan_chain];
        for (phase, (chain, &from)) in chains.iter().zip(&before).enumerate() {
            let added = &chain.steps()[from..];
            if added.is_empty() {
                continue;
            }
            probe.steps_by_phase[phase] += added.len() as u64;
            probe.steps.push(CHAIN_MARK | phase as u32);
            probe.steps.extend(added.iter().map(encode_step));
        }
        let name = if is_write {
            probe.write.add(ns);
            if chains[1].len() > before[1] {
                probe.write_gc.add(ns);
            }
            "ftl.write"
        } else {
            probe.read.add(ns);
            "ftl.read"
        };
        probe.ops.push(lpn << 1 | is_write as u64);
        let req = probe.next_request();
        if probe.calls().is_multiple_of(SPAN_SAMPLE) {
            probe.spans.push(SpanRec {
                name,
                start_ns: (start - self.epoch).as_nanos() as u64,
                end_ns: (end - self.epoch).as_nanos() as u64,
                req,
            });
        }
    }
}

impl<F: Ftl + 'static> Ftl for TimedFtl<F> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn read(&mut self, lpn: Lpn, ctx: &mut FtlContext<'_>) {
        self.observe(lpn, false, ctx);
    }

    fn write(&mut self, lpn: Lpn, ctx: &mut FtlContext<'_>) {
        self.observe(lpn, true, ctx);
    }

    fn mapped_ppn(&self, lpn: Lpn) -> Option<Ppn> {
        self.inner.mapped_ppn(lpn)
    }

    fn counters(&self) -> FtlCounters {
        self.inner.counters()
    }

    fn audit(&self, flash: &FlashState, dir: &PageDirectory) -> Result<(), String> {
        self.inner.audit(flash, dir)
    }

    fn as_any(&self) -> Option<&dyn Any> {
        Some(self)
    }
}

/// A timing decorator around any [`TraceSink`].
#[derive(Debug)]
pub struct TimedSink {
    inner: Box<dyn TraceSink>,
    epoch: Instant,
    /// `record` calls and their wall time.
    pub record: Lane,
    /// Sampled `record` spans (the request id is the span's own).
    pub spans: Vec<SpanRec>,
}

impl TimedSink {
    /// Wrap `inner`; span times count from `epoch`.
    pub fn new(inner: Box<dyn TraceSink>, epoch: Instant) -> Self {
        TimedSink {
            inner,
            epoch,
            record: Lane::default(),
            spans: Vec::new(),
        }
    }
}

impl TraceSink for TimedSink {
    fn record(&mut self, span: &Span) {
        let start = Instant::now();
        self.inner.record(span);
        let end = Instant::now();
        self.record.add((end - start).as_nanos() as u64);
        if self.record.calls.is_multiple_of(SPAN_SAMPLE) {
            self.spans.push(SpanRec {
                name: "sink.record",
                start_ns: (start - self.epoch).as_nanos() as u64,
                end_ns: (end - self.epoch).as_nanos() as u64,
                req: span.req,
            });
        }
    }

    fn recorded(&self) -> u64 {
        self.inner.recorded()
    }

    fn dropped(&self) -> u64 {
        self.inner.dropped()
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// A timing decorator around any [`QosPolicy`], for
/// `SsdDevice::run_with_policy`. Only `rank` is timed — it is the one
/// hook the built-in window policy spends time in, and a clock read
/// around the trivial default hooks would cost more than the hooks do.
pub struct TimedPolicy<P: QosPolicy> {
    inner: P,
    epoch: Instant,
    /// `rank` calls and their wall time.
    pub rank: Lane,
    /// `admit` calls.
    pub admit_calls: u64,
    /// `lane_key` calls (one per enqueued page op).
    pub lane_key_calls: u64,
    /// `on_issue` calls (one per issued page op).
    pub issues: u64,
    /// Sampled `rank` spans (a candidate carries no request id).
    pub spans: Vec<SpanRec>,
}

impl<P: QosPolicy> TimedPolicy<P> {
    /// Wrap `inner`; span times count from `epoch`.
    pub fn new(inner: P, epoch: Instant) -> Self {
        TimedPolicy {
            inner,
            epoch,
            rank: Lane::default(),
            admit_calls: 0,
            lane_key_calls: 0,
            issues: 0,
            spans: Vec::new(),
        }
    }
}

impl<P: QosPolicy> QosPolicy for TimedPolicy<P> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn rank(&mut self, now: SimTime, c: &QosCandidate) -> (u64, u64) {
        let start = Instant::now();
        let rank = self.inner.rank(now, c);
        let end = Instant::now();
        self.rank.add((end - start).as_nanos() as u64);
        if self.rank.calls.is_multiple_of(SPAN_SAMPLE) {
            self.spans.push(SpanRec {
                name: "sched.rank",
                start_ns: (start - self.epoch).as_nanos() as u64,
                end_ns: (end - self.epoch).as_nanos() as u64,
                req: None,
            });
        }
        rank
    }

    fn lane_key(&mut self, c: &QosCandidate) -> u64 {
        self.lane_key_calls += 1;
        self.inner.lane_key(c)
    }

    fn tick(&mut self, now: SimTime) {
        self.inner.tick(now);
    }

    fn on_issue(&mut self, now: SimTime, c: &QosCandidate) {
        self.issues += 1;
        self.inner.on_issue(now, c);
    }

    fn admit(&mut self, now: SimTime, c: &QosCandidate) -> bool {
        self.admit_calls += 1;
        self.inner.admit(now, c)
    }

    fn note_release(&mut self, now: SimTime, c: &QosCandidate, release: SimTime) {
        self.inner.note_release(now, c, release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_capture_round_trips_every_kind() {
        let steps = [
            FlashStep::Read { plane: 0 },
            FlashStep::Write { plane: 63 },
            FlashStep::Erase { plane: 8191 },
            FlashStep::CopyBack { plane: 7 },
            FlashStep::ReadRetry { plane: 5, steps: 3 },
            FlashStep::InterPlaneCopy { src: 1, dst: 62 },
        ];
        for step in steps {
            assert_eq!(decode_step(encode_step(&step)), Captured::Step(step));
        }
        for phase in 0..3 {
            assert_eq!(decode_step(CHAIN_MARK | phase), Captured::ChainStart);
        }
    }

    #[test]
    fn request_cursor_skips_empty_requests_and_runs_dry_quietly() {
        let mut probe = FtlProbe {
            requests: vec![(4, 2), (9, 0), (5, 1)],
            ..FtlProbe::default()
        };
        let served: Vec<_> = (0..5).map(|_| probe.next_request()).collect();
        assert_eq!(served, [Some(4), Some(4), Some(5), None, None]);
    }
}
