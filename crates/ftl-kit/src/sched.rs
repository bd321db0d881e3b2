//! Pluggable QoS scheduling policies for the NCQ reorder window.
//!
//! [`ReplayMode::Qos`](crate::device::ReplayMode::Qos) reorders the oldest
//! `queue_depth` pending page operations through per-plane readiness lanes;
//! under plain NCQ ([`NcqPolicy`]) it treats every operation equally. This
//! module makes the *selection rule* inside that window pluggable while
//! keeping the window mechanics (lanes, window admission, wake events)
//! fixed in the driver. Three rules ship: plain NCQ, strict window order
//! (the in-order bound, and the gated discipline), and a power cap.
//!
//! # How a policy plugs in
//!
//! The unified driver ([`SsdDevice::run_with`](crate::device::SsdDevice::run_with))
//! keeps one readiness lane per plane. A [`QosPolicy`] influences exactly
//! two decisions, through exactly two pure functions:
//!
//! 1. **Within-lane order** — [`QosPolicy::lane_key`] assigns each enqueued
//!    operation a `u64` key; the lane is kept sorted by `(lane_key, seq)`.
//!    The default key is the arrival sequence number `seq`, i.e. FIFO. No
//!    shipped policy overrides it; it stays on the trait for policies
//!    defined outside this crate (the `benchmark/` package's timing
//!    wrapper forwards it, and the scheduler tests key lanes by deadline
//!    through it).
//! 2. **Across-lane choice** — among the lane heads (a lane holds only
//!    in-window operations) whose resources are idle, [`QosPolicy::rank`] returns a `(u64, u64)`
//!    prefix key; lower wins. The driver always appends the NCQ key
//!    `(plane_ready_at, seq)` as the universal tie-break, so any policy
//!    that ranks all candidates equally — like [`NcqPolicy`] — degenerates
//!    to plain NCQ *bit-identically* (property-tested in
//!    `tests/replay_modes.rs`).
//!
//! Two optional hooks carry state: [`QosPolicy::tick`] runs once per
//! distinct scheduler instant (before any selection), and [`QosPolicy::on_issue`] runs
//! after each selected operation (the power cap counts admissions there).
//!
//! # Determinism rules
//!
//! Every policy decision must be a pure function of `(now, candidate,
//! policy state)`, and policy state may change only inside `tick` /
//! `on_issue`, both of which the driver calls at deterministic points.
//! Policies must not read wall-clock time, random sources, or iteration
//! order of unordered containers. Under these rules a replay is a pure
//! function of `(trace, config, mode)` — rerunning it reproduces every
//! report field bit-for-bit, which is what the determinism property tests
//! pin.
//!
//! # Choosing a policy
//!
//! | Policy | Rank key (before tie-break) | Use it for |
//! |---|---|---|
//! | [`NcqPolicy`] | constant | plain NCQ; the QoS no-op |
//! | [`WindowFifoPolicy`] | `seq` | the naive in-order bound (claims C11/C12); at unbounded depth, the gated discipline itself |
//! | [`PowerCapPolicy`] | constant (gates *admission* instead) | power budgets (claim C16) |

use crate::request::TenantId;
use dloop_simkit::SimTime;

/// A page operation offered to a [`QosPolicy`] for ranking or lane
/// placement: the scheduling-relevant fields of the queued op, copied out
/// so policies never touch driver internals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QosCandidate {
    /// Global arrival sequence number (ties and FIFO order).
    pub seq: u64,
    /// The host stream the operation belongs to (`0` = untagged).
    pub tenant: TenantId,
    /// Absolute completion deadline, if the request carries one.
    pub deadline: Option<SimTime>,
    /// When the parent request reached the scheduler: its trace arrival,
    /// or its later admission behind a host window.
    pub arrival: SimTime,
    /// Primary plane of the operation's first flash step.
    pub plane: u32,
    /// Upper bound on the operation's instantaneous power draw in µW,
    /// computed by the driver from the operation's prepared flash chains
    /// (see `dloop_nand::energy`): a chained sequence holds at most one
    /// resource at a time, so its bound is `array + bus`; an unchained
    /// burst is bounded by the sum of its steps' draws. Zero when energy
    /// accounting is disabled — the [`PowerCapPolicy`] then admits freely.
    pub draw_uw: u64,
}

/// A scheduling policy for the NCQ reorder window. See the
/// [module docs](self) for the contract; implement [`QosPolicy::rank`]
/// (and optionally the other hooks) to define a policy.
///
/// All hooks take `&mut self` so stateful policies (the power cap) work,
/// but `rank` and `lane_key` must behave as pure functions of their
/// arguments and current state.
pub trait QosPolicy {
    /// Short stable name for reports and CSV labels.
    fn name(&self) -> &'static str;

    /// Rank an issuable candidate; lower sorts first. The driver appends
    /// `(plane_ready_at, seq)` after this prefix, so returning a constant
    /// reproduces plain NCQ exactly.
    fn rank(&mut self, now: SimTime, c: &QosCandidate) -> (u64, u64);

    /// Within-lane sort key, assigned once when the operation is enqueued;
    /// lanes are kept sorted by `(lane_key, seq)`. The default (FIFO)
    /// returns `seq`.
    fn lane_key(&mut self, c: &QosCandidate) -> u64 {
        c.seq
    }

    /// Called once per distinct scheduler instant `now`, before any
    /// candidate is ranked there: however many arrivals and wakes share
    /// the instant, the policy is ticked once (same-instant wakes are
    /// coalesced into a single scheduler pass anyway).
    fn tick(&mut self, now: SimTime) {
        let _ = now;
    }

    /// Called after the driver issues `c` at `now` (charge accounting
    /// here).
    fn on_issue(&mut self, now: SimTime, c: &QosCandidate) {
        let _ = (now, c);
    }

    /// May `c` be issued at all right now? Checked by the driver alongside
    /// plane readiness when collecting each lane's first in-window
    /// candidate; a `false` leaves the operation queued in its lane for a
    /// later wake. The default admits everything — only throttling
    /// policies ([`PowerCapPolicy`]) override this. Like `rank`, this must
    /// be a pure function of `(now, candidate, policy state)`.
    fn admit(&mut self, now: SimTime, c: &QosCandidate) -> bool {
        let _ = (now, c);
        true
    }

    /// Called right after an issued operation's flash work is booked,
    /// with the simulated instant its last resource hold ends. Throttling
    /// policies track `(candidate, release)` pairs here to know the load
    /// they have committed; paired with [`QosPolicy::tick`] retiring
    /// entries whose release has passed.
    fn note_release(&mut self, now: SimTime, c: &QosCandidate, release: SimTime) {
        let _ = (now, c, release);
    }
}

/// The QoS no-op: ranks every candidate equally, so the driver's appended
/// `(plane_ready_at, seq)` tie-break *is* the whole key: plain NCQ, as
/// [`RunConfig::ncq`](crate::device::RunConfig::ncq) replays it.
#[derive(Debug, Clone, Copy, Default)]
pub struct NcqPolicy;

impl QosPolicy for NcqPolicy {
    fn name(&self) -> &'static str {
        "ncq"
    }

    fn rank(&mut self, _now: SimTime, _c: &QosCandidate) -> (u64, u64) {
        (0, 0)
    }
}

/// Strict arrival order inside the window: always issue the oldest
/// issuable operation, never exploiting an idle plane further down the
/// queue. This is the *naive bound* the QoS claims (C12) compare against —
/// the window still skips blocked heads, but it never reorders for
/// plane idleness. With no window at all it *is* FlashSim's priority list:
/// [`ReplayMode::Gated`](crate::device::ReplayMode::Gated) runs the
/// scheduler under this policy at unbounded depth.
#[derive(Debug, Clone, Copy, Default)]
pub struct WindowFifoPolicy;

impl QosPolicy for WindowFifoPolicy {
    fn name(&self) -> &'static str {
        "window-fifo"
    }

    fn rank(&mut self, _now: SimTime, c: &QosCandidate) -> (u64, u64) {
        (c.seq, 0)
    }
}

/// Power-cap admission control over the readiness lanes.
///
/// The policy tracks every in-flight operation's declared draw bound
/// ([`QosCandidate::draw_uw`]) until its release instant and refuses to
/// admit a candidate that would push the committed total above
/// `budget_uw` — with one work-conserving exception: when *nothing* is in
/// flight the head candidate is always admitted, so a budget below a
/// single operation's draw throttles to serial execution instead of
/// deadlocking. The bound this enforces is therefore exact: at every
/// simulated instant the summed draw of in-flight operations is at most
/// `max(budget_uw, largest single admitted draw)`, and because per-op
/// instantaneous power never exceeds its declared bound, no power-timeline
/// bucket can average above that either (claim C16's integer check).
///
/// Ranking is the NCQ no-op — the cap changes *when* work may start, never
/// *which* ready work is preferred — so an unlimited budget reproduces
/// plain NCQ bit-identically.
///
/// Determinism: in-flight entries live in an insertion-ordered `Vec`,
/// retired by [`QosPolicy::tick`] with a stable `retain`; no unordered
/// containers, no clocks.
#[derive(Debug, Clone)]
pub struct PowerCapPolicy {
    budget_uw: u64,
    /// Committed operations: `(release instant, draw bound µW)`.
    inflight: Vec<(SimTime, u64)>,
    /// Sum of the in-flight draw bounds (kept incrementally).
    inflight_uw: u64,
    admitted: u64,
}

impl PowerCapPolicy {
    /// A cap enforcing `budget_uw` (µW) over concurrent admissions.
    pub fn new(budget_uw: u64) -> Self {
        assert!(budget_uw >= 1, "power budget must be at least 1 µW");
        PowerCapPolicy {
            budget_uw,
            inflight: Vec::new(),
            inflight_uw: 0,
            admitted: 0,
        }
    }

    /// The configured budget in µW.
    pub fn budget_uw(&self) -> u64 {
        self.budget_uw
    }

    /// Operations issued under this policy.
    pub fn admitted(&self) -> u64 {
        self.admitted
    }
}

impl QosPolicy for PowerCapPolicy {
    fn name(&self) -> &'static str {
        "power-cap"
    }

    fn rank(&mut self, _now: SimTime, _c: &QosCandidate) -> (u64, u64) {
        (0, 0)
    }

    fn tick(&mut self, now: SimTime) {
        // Retire releases that have passed; an op releasing exactly at
        // `now` no longer draws (holds are end-exclusive).
        self.inflight.retain(|&(release, draw)| {
            if release > now {
                true
            } else {
                self.inflight_uw -= draw;
                false
            }
        });
    }

    fn admit(&mut self, _now: SimTime, c: &QosCandidate) -> bool {
        self.inflight_uw == 0
            || self
                .inflight_uw
                .checked_add(c.draw_uw)
                .is_some_and(|sum| sum <= self.budget_uw)
    }

    fn on_issue(&mut self, _now: SimTime, _c: &QosCandidate) {
        self.admitted += 1;
    }

    fn note_release(&mut self, now: SimTime, c: &QosCandidate, release: SimTime) {
        if release > now {
            self.inflight.push((release, c.draw_uw));
            self.inflight_uw = self
                .inflight_uw
                .checked_add(c.draw_uw)
                .expect("power-cap overflow: in-flight µW sum exceeds u64");
        }
    }
}

/// A `Copy` description of a QoS policy, embeddable in
/// [`ReplayMode::Qos`](crate::device::ReplayMode::Qos) (which must stay
/// `Copy + Eq` like every other replay mode). [`QosSpec::build`] turns it
/// into a boxed policy instance; for custom or inspectable policies, call
/// [`SsdDevice::run_with_policy`](crate::device::SsdDevice::run_with_policy)
/// with your own instance instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QosSpec {
    /// Plain NCQ ([`NcqPolicy`]).
    Ncq,
    /// Strict in-window arrival order ([`WindowFifoPolicy`]).
    WindowFifo,
    /// Concurrent-admission throttling under a power budget
    /// ([`PowerCapPolicy`]). Requires [`crate::SsdConfig::energy`] to be
    /// set for candidates to carry nonzero draw bounds; without it every
    /// bound is zero and the cap admits freely.
    PowerCap {
        /// Admission budget in µW.
        budget_uw: u64,
    },
}

impl QosSpec {
    /// The conventional power-cap budget: 250 mW — comfortably above any
    /// single operation's ~99 mW draw bound (so the work-conserving floor
    /// never lifts the enforced ceiling) yet far below the paper device's
    /// ~5.4 W all-planes-busy worst case, so the cap genuinely throttles.
    pub const POWER_CAP_BUDGET_UW: u64 = 250_000;

    /// The [`QosSpec::PowerCap`] spec at the conventional budget
    /// ([`QosSpec::POWER_CAP_BUDGET_UW`]).
    pub fn power_cap() -> QosSpec {
        QosSpec::PowerCap {
            budget_uw: Self::POWER_CAP_BUDGET_UW,
        }
    }

    /// The specs that rank for response time, in presentation order (claim
    /// C12 quantifies over this set). [`QosSpec::PowerCap`] is deliberately
    /// absent: a power cap trades response time away *on purpose*, and
    /// claim C16 checks it instead.
    pub fn all() -> [QosSpec; 2] {
        [QosSpec::WindowFifo, QosSpec::Ncq]
    }

    /// Stable name, matching [`QosPolicy::name`] of the built policy.
    pub fn name(&self) -> &'static str {
        match self {
            QosSpec::Ncq => "ncq",
            QosSpec::WindowFifo => "window-fifo",
            QosSpec::PowerCap { .. } => "power-cap",
        }
    }

    /// Instantiate the described policy.
    pub fn build(&self) -> Box<dyn QosPolicy> {
        match *self {
            QosSpec::Ncq => Box::new(NcqPolicy),
            QosSpec::WindowFifo => Box::new(WindowFifoPolicy),
            QosSpec::PowerCap { budget_uw } => Box::new(PowerCapPolicy::new(budget_uw)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dloop_simkit::SimDuration;

    fn cand(seq: u64, tenant: TenantId) -> QosCandidate {
        QosCandidate {
            seq,
            tenant,
            deadline: None,
            arrival: SimTime::ZERO,
            plane: 0,
            draw_uw: 0,
        }
    }

    fn drawing(seq: u64, draw_uw: u64) -> QosCandidate {
        QosCandidate {
            draw_uw,
            ..cand(seq, 0)
        }
    }

    #[test]
    fn ncq_ranks_everything_equal_and_fifo_by_seq() {
        let now = SimTime::ZERO;
        let mut ncq = NcqPolicy;
        assert_eq!(ncq.rank(now, &cand(3, 0)), ncq.rank(now, &cand(9, 5)));
        let mut fifo = WindowFifoPolicy;
        assert!(fifo.rank(now, &cand(3, 0)) < fifo.rank(now, &cand(9, 0)));
    }

    #[test]
    fn spec_names_match_the_built_policies() {
        for spec in QosSpec::all() {
            assert_eq!(spec.build().name(), spec.name());
        }
    }

    /// PowerCap is not in `QosSpec::all` (it degrades MRT on purpose), so
    /// its name is pinned separately.
    #[test]
    fn power_cap_spec_builds_outside_the_sweep_set() {
        let spec = QosSpec::power_cap();
        assert_eq!(spec.name(), "power-cap");
        assert_eq!(spec.build().name(), "power-cap");
        assert!(!QosSpec::all().contains(&spec));
    }

    #[test]
    fn power_cap_admits_within_budget_and_defers_above() {
        let mut cap = PowerCapPolicy::new(100);
        let t = |us| SimTime::ZERO + SimDuration::from_micros(us);
        // First op (60 µW) fits outright; book it until t=10 µs.
        let a = drawing(0, 60);
        assert!(cap.admit(t(0), &a));
        cap.on_issue(t(0), &a);
        cap.note_release(t(0), &a, t(10));
        assert_eq!(cap.inflight_uw, 60);
        // 50 µW would overshoot (110 > 100): deferred. 40 µW fits exactly.
        assert!(!cap.admit(t(0), &drawing(1, 50)));
        let b = drawing(2, 40);
        assert!(cap.admit(t(0), &b));
        cap.note_release(t(0), &b, t(8));
        assert_eq!(cap.inflight_uw, 100);
        assert!(!cap.admit(t(0), &drawing(3, 1)));
        // Ticking past b's release frees its 40 µW; past both frees all.
        cap.tick(t(8));
        assert_eq!(cap.inflight_uw, 60);
        assert!(cap.admit(t(8), &drawing(4, 40)));
        cap.tick(t(10));
        assert_eq!(cap.inflight_uw, 0);
    }

    #[test]
    fn power_cap_is_work_conserving_when_idle() {
        // A candidate drawing more than the whole budget still runs when
        // nothing is in flight — throttled to serial, never deadlocked.
        let mut cap = PowerCapPolicy::new(100);
        let t = |us| SimTime::ZERO + SimDuration::from_micros(us);
        let huge = drawing(0, 5_000);
        assert!(cap.admit(t(0), &huge));
        cap.note_release(t(0), &huge, t(50));
        // ...but it blocks everything else until it releases.
        assert!(!cap.admit(t(0), &drawing(1, 1)));
        cap.tick(t(50));
        assert!(cap.admit(t(50), &drawing(1, 1)));
    }

    #[test]
    fn power_cap_ignores_zero_duration_and_zero_draw() {
        let mut cap = PowerCapPolicy::new(100);
        let t = |us| SimTime::ZERO + SimDuration::from_micros(us);
        // A release at-or-before `now` never occupies the budget.
        let a = drawing(0, 60);
        cap.note_release(t(5), &a, t(5));
        assert_eq!(cap.inflight_uw, 0);
        // Zero-draw candidates (energy accounting disabled) always fit.
        let b = drawing(1, 0);
        assert!(cap.admit(t(5), &b));
        cap.note_release(t(5), &b, t(20));
        assert!(cap.admit(t(5), &drawing(2, 100)));
    }
}
