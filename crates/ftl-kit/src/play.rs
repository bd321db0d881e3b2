//! Chain playback: booking a translated page operation's three
//! [`OpChain`]s on a [`HardwareModel`]'s plane/channel/die timelines.
//!
//! Every driver plays through here — the command session behind open
//! replay and the host stack (`SsdDevice::serve_page_op`), the queueing
//! scheduler (`QueuedSession::issue`) and the plane-local shard
//! workers — so every [`FlashStep`](crate::ftl::FlashStep) is booked in
//! exactly one place, [`play_chain`], through [`HardwareModel::exec`].

use crate::ftl::OpChain;
use dloop_nand::HardwareModel;
use dloop_simkit::trace::SpanPhase;
use dloop_simkit::SimTime;

/// One translated page operation ready to play: its span identity and
/// the chains the FTL produced for it.
pub(crate) struct PageOp<'a> {
    /// Stable host-request id (index in the replayed slice), for spans.
    pub(crate) req: u64,
    pub(crate) lpn: u64,
    pub(crate) host: &'a OpChain,
    pub(crate) gc: &'a OpChain,
    pub(crate) scan: &'a OpChain,
}

/// Which of the two same-instant chains books first. Scan and host steps
/// may share a channel, so the order is part of every fingerprint.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum ScanOrder {
    /// Housekeeping for unrelated planes books before the host chain
    /// (the command session and the shard workers).
    BeforeHost,
    /// The host chain books first (the queueing scheduler, whose op was
    /// selected *because* its first host step's resources are idle).
    AfterHost,
}

/// Where one played page operation landed on the timelines.
#[derive(Clone, Copy)]
pub(crate) struct Played {
    /// When the earliest host step began (`at` for an empty host chain).
    pub(crate) host_start: SimTime,
    /// When the host chain ended (`at` for an empty host chain).
    pub(crate) host_done: SimTime,
    /// The page op's response instant: `host_done` under background GC,
    /// the GC chain's end under synchronous GC.
    pub(crate) done: SimTime,
    /// When the scan chain's last resource hold ends.
    pub(crate) scan_release: SimTime,
    /// When the GC chain's last resource hold ends (equals `done` under
    /// synchronous GC).
    pub(crate) gc_release: SimTime,
    /// The host chain had steps: the op waited and was served. False for
    /// e.g. an unmapped read, which contributes no latency samples.
    pub(crate) served: bool,
    /// The GC chain had steps.
    pub(crate) collected: bool,
}

/// Play `op` on `model` starting at `at`. The host chain gates the
/// response; the scan chain only contends for resources; the GC chain
/// follows the host chain — unchained and off the response path under
/// `background_gc` (GC steps are ordered per resource only, and the
/// timelines already serialise same-resource steps in chain order),
/// chained and charged to the triggering op otherwise (FlashSim
/// semantics, which is what makes FAST's full merges so visible in
/// Figs. 8-10).
pub(crate) fn play_op(
    model: &mut HardwareModel,
    op: &PageOp<'_>,
    at: SimTime,
    order: ScanOrder,
    background_gc: bool,
) -> Played {
    let (lpn, req) = (Some(op.lpn), Some(op.req));
    let play_scan = |model: &mut HardwareModel| {
        model.set_span_context(SpanPhase::Scan, lpn, req);
        play_chain(model, op.scan, at, false).1
    };
    let scan_before = (order == ScanOrder::BeforeHost).then(|| play_scan(model));
    model.set_span_context(SpanPhase::Host, lpn, req);
    let (host_start, host_done) = play_chain(model, op.host, at, true);
    let scan_release = scan_before.unwrap_or_else(|| play_scan(model));
    model.set_span_context(SpanPhase::Gc, lpn, req);
    let gc_release = play_chain(model, op.gc, host_done, !background_gc).1;
    Played {
        host_start,
        host_done,
        done: if background_gc { host_done } else { gc_release },
        scan_release,
        gc_release,
        served: !op.host.is_empty(),
        collected: !op.gc.is_empty(),
    }
}

/// Reserve resources for each step of `chain`, starting no earlier than
/// `at`. With `chained`, each step additionally waits for the previous
/// one (host dependency order); without it, steps are issued together
/// and only resource timelines order them.
///
/// Return contract: `(first_start, release)`, where `first_start` is the
/// minimum `start` across the chain's steps — with `chained: false` steps
/// are issued concurrently and step 0 need not begin earliest — and
/// `release` is the chain's maximum resource-timeline end: every plane
/// and channel the chain touched is free again at (or before) that time,
/// so `release` is also the correct wake time for schedulers gating on
/// those resources (the wake-event contract in DESIGN.md). An empty
/// chain returns `(at, at)`.
fn play_chain(
    model: &mut HardwareModel,
    chain: &OpChain,
    at: SimTime,
    chained: bool,
) -> (SimTime, SimTime) {
    let mut t = at;
    let mut last = at;
    let mut first_start: Option<SimTime> = None;
    for step in chain.steps() {
        let issue = if chained { t } else { at };
        let completion = model.exec(*step, issue);
        first_start = Some(match first_start {
            Some(f) => f.min(completion.start),
            None => completion.start,
        });
        t = completion.end;
        last = last.max(completion.end);
    }
    // With `chained`, each step starts at the previous step's end, so
    // the final `t` is already the maximum resource release.
    let first_start = first_start.unwrap_or(at);
    if chained {
        (first_start, t)
    } else {
        (first_start, last)
    }
}
