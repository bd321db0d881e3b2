//! Pluggable QoS scheduling policies for the NCQ reorder window.
//!
//! [`ReplayMode::Ncq`](crate::device::ReplayMode::Ncq) (PR 5) reorders the
//! oldest `queue_depth` pending page operations through per-plane readiness
//! lanes, treating every operation equally. Real devices multiplex many
//! host streams with different needs — latency-sensitive reads, deadline
//! IO, throughput tenants — so this module makes the *selection rule*
//! inside that window pluggable while keeping the window mechanics (lanes,
//! window admission, wake events) fixed in the driver.
//!
//! # How a policy plugs in
//!
//! The unified driver ([`SsdDevice::run_with`](crate::device::SsdDevice::run_with))
//! keeps one readiness lane per plane. A [`QosPolicy`] influences exactly
//! two decisions, through exactly two pure functions:
//!
//! 1. **Within-lane order** — [`QosPolicy::lane_key`] assigns each enqueued
//!    operation a `u64` key; the lane is kept sorted by `(lane_key, seq)`.
//!    The default key is the arrival sequence number `seq`, i.e. FIFO; the
//!    earliest-deadline-first policy sorts by deadline instead, which is
//!    what guarantees two same-plane deadlines are never inverted.
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
//! after each selected operation (the fair-share policy charges its token
//! bucket there).
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
//! | [`PriorityPolicy`] | reads before writes | read-latency-sensitive mixes |
//! | [`DeadlinePolicy`] | earliest absolute deadline | per-request deadlines (EDF) |
//! | [`FairSharePolicy`] | token-bucket deficit | per-tenant fair sharing |
//! | [`PowerCapPolicy`] | constant (gates *admission* instead) | power budgets (claim C16) |

use crate::request::{HostOp, TenantId};
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
    /// Read or write.
    pub op: HostOp,
    /// Absolute completion deadline, if the request carries one.
    pub deadline: Option<SimTime>,
    /// Trace arrival time of the parent request.
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
/// All hooks take `&mut self` so stateful policies (token buckets) work,
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
/// `(plane_ready_at, seq)` tie-break *is* the whole key — bit-identical to
/// [`ReplayMode::Ncq`](crate::device::ReplayMode::Ncq).
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

/// Priority classes: reads overtake writes inside the window (a read's
/// latency is host-visible; a write's is absorbed by buffering), ties by
/// the plain NCQ key.
#[derive(Debug, Clone, Copy, Default)]
pub struct PriorityPolicy;

impl QosPolicy for PriorityPolicy {
    fn name(&self) -> &'static str {
        "priority"
    }

    fn rank(&mut self, _now: SimTime, c: &QosCandidate) -> (u64, u64) {
        let class = match c.op {
            HostOp::Read => 0,
            HostOp::Write => 1,
        };
        (class, 0)
    }
}

/// Earliest-deadline-first: candidates with earlier absolute deadlines
/// rank first; best-effort operations (no deadline) sort after every
/// finite deadline. Lanes are kept sorted by deadline too
/// ([`QosPolicy::lane_key`]), so two operations on the *same* plane are
/// also issued in deadline order — the EDF invariant pinned in
/// `tests/replay_modes.rs`.
#[derive(Debug, Clone, Copy, Default)]
pub struct DeadlinePolicy;

/// Encode a deadline as a totally ordered `u64` (`None` = best-effort =
/// after everything).
fn deadline_key(d: Option<SimTime>) -> u64 {
    d.map_or(u64::MAX, |t| t.as_nanos())
}

impl QosPolicy for DeadlinePolicy {
    fn name(&self) -> &'static str {
        "deadline"
    }

    fn rank(&mut self, _now: SimTime, c: &QosCandidate) -> (u64, u64) {
        (deadline_key(c.deadline), 0)
    }

    fn lane_key(&mut self, c: &QosCandidate) -> u64 {
        deadline_key(c.deadline)
    }
}

/// One token = this many bucket units. With this scale, a refill rate of
/// `r` tokens per millisecond is exactly `r` units per nanosecond, so the
/// lazy refill (`Δns × r`) is integer-exact — no rounding, no drift, and
/// the conservation invariant below holds with `==`, not `≈`.
pub const TOKEN_UNITS: u64 = 1_000_000;

/// Per-tenant token-bucket state: balance plus the counters that make the
/// conservation law checkable from outside.
#[derive(Debug, Clone, Copy)]
struct Bucket {
    /// Current balance in units; negative when the work-conserving
    /// fallback issued on an empty bucket.
    balance: i64,
    /// Last lazy-refill time.
    refilled_at: SimTime,
    /// Total units ever added by refill (after the burst cap).
    refilled: u64,
    /// Operations issued for this tenant.
    issued: u64,
}

/// Per-tenant fair sharing by deterministic token buckets.
///
/// Every tenant owns a bucket that refills at `refill_per_ms`
/// tokens per simulated millisecond (lazily, on inspection) up to a cap of
/// `burst` tokens, and is charged one token per issued operation. Ranking
/// is two-tier:
///
/// * tier 0 — tenants holding at least one token; among them, the tenant
///   with the *largest* balance (the most under-served) goes first;
/// * tier 1 — tenants that have overdrawn their bucket. The scheduler is
///   work-conserving: when no tier-0 candidate is issuable, a tier-1
///   operation runs anyway (idle planes are never parked to punish a
///   tenant), driving its balance negative until refill pays the debt off.
///
/// All arithmetic is integer (see [`TOKEN_UNITS`]), so the **conservation
/// law** holds exactly for every tenant:
/// `initial + refilled − issued × TOKEN_UNITS == balance`
/// (checkable via the public accessors; pinned in
/// `tests/replay_modes.rs`).
///
/// Buckets are created on first sight of a tenant, full (`burst` tokens).
#[derive(Debug, Clone)]
pub struct FairSharePolicy {
    /// Tokens per millisecond.
    refill_per_ms: u32,
    /// Bucket capacity in tokens.
    burst: u32,
    /// Buckets, sorted by tenant id (binary-searched; deterministic).
    buckets: Vec<(TenantId, Bucket)>,
}

impl FairSharePolicy {
    /// A fair-share policy refilling `refill_per_ms` tokens per simulated
    /// millisecond into buckets capped at `burst` tokens. Both must be
    /// ≥ 1.
    pub fn new(refill_per_ms: u32, burst: u32) -> Self {
        assert!(refill_per_ms >= 1, "refill rate must be at least 1");
        assert!(burst >= 1, "burst must be at least 1");
        FairSharePolicy {
            refill_per_ms,
            burst,
            buckets: Vec::new(),
        }
    }

    /// The bucket index for `tenant`, creating a full bucket on
    /// first sight at time `now`.
    fn bucket_index(&mut self, tenant: TenantId, now: SimTime) -> usize {
        match self.buckets.binary_search_by_key(&tenant, |b| b.0) {
            Ok(i) => i,
            Err(i) => {
                self.buckets.insert(
                    i,
                    (
                        tenant,
                        Bucket {
                            balance: (self.burst as i64) * TOKEN_UNITS as i64,
                            refilled_at: now,
                            refilled: 0,
                            issued: 0,
                        },
                    ),
                );
                i
            }
        }
    }

    /// Lazily refill one bucket up to `now`; integer-exact.
    fn refill(refill_per_ms: u32, burst: u32, bucket: &mut Bucket, now: SimTime) {
        let delta_ns = now.as_nanos().saturating_sub(bucket.refilled_at.as_nanos());
        bucket.refilled_at = now;
        if delta_ns == 0 {
            return;
        }
        // `refill_per_ms` tokens/ms × TOKEN_UNITS units/token ÷ 1e6 ns/ms
        // = `refill_per_ms` units per nanosecond.
        let earned = (delta_ns as i128) * (refill_per_ms as i128);
        let cap = (burst as i128) * TOKEN_UNITS as i128;
        let added = earned.min(cap - bucket.balance as i128).max(0);
        bucket.balance += added as i64;
        bucket.refilled += added as u64;
    }

    /// Current balance of `tenant`'s bucket in units (negative = overdrawn
    /// by the work-conserving fallback); `None` if the tenant was never
    /// seen. Not refreshed to any later time — this is the balance as of
    /// the bucket's last interaction.
    pub fn balance(&self, tenant: TenantId) -> Option<i64> {
        self.buckets
            .binary_search_by_key(&tenant, |b| b.0)
            .ok()
            .map(|i| self.buckets[i].1.balance)
    }

    /// Total units ever refilled into `tenant`'s bucket.
    pub fn refilled(&self, tenant: TenantId) -> Option<u64> {
        self.buckets
            .binary_search_by_key(&tenant, |b| b.0)
            .ok()
            .map(|i| self.buckets[i].1.refilled)
    }

    /// Operations issued for `tenant` (each charged one token).
    pub fn issued(&self, tenant: TenantId) -> Option<u64> {
        self.buckets
            .binary_search_by_key(&tenant, |b| b.0)
            .ok()
            .map(|i| self.buckets[i].1.issued)
    }

    /// Tenant ids with a bucket, ascending.
    pub fn tenants(&self) -> Vec<TenantId> {
        self.buckets.iter().map(|b| b.0).collect()
    }

    /// Bucket capacity in units (`burst × TOKEN_UNITS`) — the initial
    /// balance of every bucket, and the term `initial` in the conservation
    /// law.
    pub fn initial_units(&self) -> i64 {
        (self.burst as i64) * TOKEN_UNITS as i64
    }
}

impl QosPolicy for FairSharePolicy {
    fn name(&self) -> &'static str {
        "fair-share"
    }

    fn rank(&mut self, now: SimTime, c: &QosCandidate) -> (u64, u64) {
        let (rate, burst) = (self.refill_per_ms, self.burst);
        let i = self.bucket_index(c.tenant, now);
        Self::refill(rate, burst, &mut self.buckets[i].1, now);
        let balance = self.buckets[i].1.balance;
        let tier = if balance >= TOKEN_UNITS as i64 { 0 } else { 1 };
        // Within a tier, larger balance (more under-served) sorts first:
        // map balance ∈ [−∞, cap] monotonically *decreasing* onto u64.
        let deficit = ((burst as i128) * TOKEN_UNITS as i128 - balance as i128).max(0) as u64;
        (tier, deficit)
    }

    fn on_issue(&mut self, now: SimTime, c: &QosCandidate) {
        let (rate, burst) = (self.refill_per_ms, self.burst);
        let i = self.bucket_index(c.tenant, now);
        Self::refill(rate, burst, &mut self.buckets[i].1, now);
        self.buckets[i].1.balance -= TOKEN_UNITS as i64;
        self.buckets[i].1.issued += 1;
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
    deferrals: u64,
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
            deferrals: 0,
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

    /// Admission refusals, counted per scheduler pass (one per *offer*,
    /// not per operation — a queued op deferred across `n` passes counts
    /// `n` times). All wakes due at one instant share a single pass, so
    /// the count says how often the scheduler looked, not how many events
    /// fired; it is a diagnostic, in no fingerprint or CSV. A nonzero
    /// value is the witness that the cap actually throttled.
    pub fn deferrals(&self) -> u64 {
        self.deferrals
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
        let fits = self.inflight_uw == 0
            || self
                .inflight_uw
                .checked_add(c.draw_uw)
                .is_some_and(|sum| sum <= self.budget_uw);
        if !fits {
            self.deferrals += 1;
        }
        fits
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
    /// Reads before writes ([`PriorityPolicy`]).
    Priority,
    /// Earliest deadline first ([`DeadlinePolicy`]).
    Deadline,
    /// Equal-weight token buckets ([`FairSharePolicy`]).
    FairShare {
        /// Tokens per simulated millisecond per tenant.
        refill_per_ms: u32,
        /// Bucket capacity in tokens.
        burst: u32,
    },
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
    /// The conventional fair-share parameters: 4 tokens/ms, burst 32 —
    /// roughly one page op per 250 µs of steady-state budget per tenant,
    /// with a burst absorbing a queue-depth's worth of backlog.
    pub fn fair_share() -> QosSpec {
        QosSpec::FairShare {
            refill_per_ms: 4,
            burst: 32,
        }
    }

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

    /// All specs worth sweeping, in presentation order (the `qos`
    /// experiment iterates this). [`QosSpec::PowerCap`] is deliberately
    /// absent: the C12 bounds quantify over this set, and a power cap
    /// trades response time away *on purpose* — sweep it via the `power`
    /// experiment instead.
    pub fn all() -> [QosSpec; 5] {
        [
            QosSpec::WindowFifo,
            QosSpec::Ncq,
            QosSpec::Priority,
            QosSpec::Deadline,
            QosSpec::fair_share(),
        ]
    }

    /// Stable name, matching [`QosPolicy::name`] of the built policy.
    pub fn name(&self) -> &'static str {
        match self {
            QosSpec::Ncq => "ncq",
            QosSpec::WindowFifo => "window-fifo",
            QosSpec::Priority => "priority",
            QosSpec::Deadline => "deadline",
            QosSpec::FairShare { .. } => "fair-share",
            QosSpec::PowerCap { .. } => "power-cap",
        }
    }

    /// Parse a policy name as spelled by [`QosSpec::name`] (CLI flag
    /// syntax; `fair-share` uses the conventional parameters).
    pub fn parse(s: &str) -> Option<QosSpec> {
        match s {
            "ncq" => Some(QosSpec::Ncq),
            "window-fifo" | "fifo" => Some(QosSpec::WindowFifo),
            "priority" => Some(QosSpec::Priority),
            "deadline" | "edf" => Some(QosSpec::Deadline),
            "fair-share" | "fair" => Some(QosSpec::fair_share()),
            "power-cap" | "cap" => Some(QosSpec::power_cap()),
            _ => None,
        }
    }

    /// Instantiate the described policy.
    pub fn build(&self) -> Box<dyn QosPolicy> {
        match *self {
            QosSpec::Ncq => Box::new(NcqPolicy),
            QosSpec::WindowFifo => Box::new(WindowFifoPolicy),
            QosSpec::Priority => Box::new(PriorityPolicy),
            QosSpec::Deadline => Box::new(DeadlinePolicy),
            QosSpec::FairShare {
                refill_per_ms,
                burst,
            } => Box::new(FairSharePolicy::new(refill_per_ms, burst)),
            QosSpec::PowerCap { budget_uw } => Box::new(PowerCapPolicy::new(budget_uw)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dloop_simkit::SimDuration;

    fn cand(seq: u64, tenant: TenantId, op: HostOp, deadline: Option<SimTime>) -> QosCandidate {
        QosCandidate {
            seq,
            tenant,
            op,
            deadline,
            arrival: SimTime::ZERO,
            plane: 0,
            draw_uw: 0,
        }
    }

    fn drawing(seq: u64, draw_uw: u64) -> QosCandidate {
        QosCandidate {
            draw_uw,
            ..cand(seq, 0, HostOp::Write, None)
        }
    }

    #[test]
    fn ncq_ranks_everything_equal_and_fifo_by_seq() {
        let now = SimTime::ZERO;
        let mut ncq = NcqPolicy;
        assert_eq!(
            ncq.rank(now, &cand(3, 0, HostOp::Read, None)),
            ncq.rank(now, &cand(9, 5, HostOp::Write, None))
        );
        let mut fifo = WindowFifoPolicy;
        assert!(
            fifo.rank(now, &cand(3, 0, HostOp::Write, None))
                < fifo.rank(now, &cand(9, 0, HostOp::Read, None))
        );
    }

    #[test]
    fn priority_puts_reads_first() {
        let now = SimTime::ZERO;
        let mut p = PriorityPolicy;
        assert!(
            p.rank(now, &cand(9, 0, HostOp::Read, None))
                < p.rank(now, &cand(1, 0, HostOp::Write, None))
        );
    }

    #[test]
    fn deadline_orders_lanes_and_ranks_best_effort_last() {
        let mut edf = DeadlinePolicy;
        let soon = Some(SimTime::from_micros(10));
        let late = Some(SimTime::from_micros(500));
        let now = SimTime::ZERO;
        assert!(
            edf.rank(now, &cand(9, 0, HostOp::Read, soon))
                < edf.rank(now, &cand(1, 0, HostOp::Read, late))
        );
        assert!(
            edf.rank(now, &cand(9, 0, HostOp::Read, late))
                < edf.rank(now, &cand(1, 0, HostOp::Read, None))
        );
        assert!(
            edf.lane_key(&cand(9, 0, HostOp::Read, soon))
                < edf.lane_key(&cand(1, 0, HostOp::Read, late))
        );
    }

    #[test]
    fn fair_share_conserves_tokens_exactly() {
        let mut fs = FairSharePolicy::new(2, 8);
        let t = |us| SimTime::ZERO + SimDuration::from_micros(us);
        // Burn tenant 1's whole burst at t=0, then let it refill 1 ms.
        for i in 0..10 {
            let c = cand(i, 1, HostOp::Write, None);
            fs.on_issue(t(0), &c);
        }
        assert_eq!(fs.balance(1), Some(-2 * TOKEN_UNITS as i64));
        // rank() refills lazily: 1 ms at 2 tokens/ms = 2 tokens back.
        let (tier, _) = fs.rank(t(1000), &cand(10, 1, HostOp::Write, None));
        assert_eq!(tier, 1, "balance 0 < 1 token: overdrawn tier");
        assert_eq!(fs.balance(1), Some(0));
        // Conservation: initial + refilled − issued×TOKEN == balance.
        let b = fs.balance(1).unwrap();
        let law = fs.initial_units() + fs.refilled(1).unwrap() as i64
            - fs.issued(1).unwrap() as i64 * TOKEN_UNITS as i64;
        assert_eq!(law, b);
        // A fresh tenant starts full, tier 0, and ranks ahead of the
        // overdrawn one.
        let fresh = fs.rank(t(1000), &cand(11, 2, HostOp::Write, None));
        let broke = fs.rank(t(1000), &cand(10, 1, HostOp::Write, None));
        assert!(fresh < broke);
        // Refill never exceeds the burst cap.
        let _ = fs.rank(t(1_000_000), &cand(12, 2, HostOp::Write, None));
        assert_eq!(fs.balance(2), Some(fs.initial_units()));
    }

    #[test]
    fn spec_round_trips_names_and_builds() {
        for spec in QosSpec::all() {
            assert_eq!(QosSpec::parse(spec.name()), Some(spec));
            assert_eq!(spec.build().name(), spec.name());
        }
        assert_eq!(QosSpec::parse("edf"), Some(QosSpec::Deadline));
        assert_eq!(QosSpec::parse("nope"), None);
    }

    /// PowerCap is not swept by `QosSpec::all` (it degrades MRT on
    /// purpose), so its round trip is pinned separately.
    #[test]
    fn power_cap_spec_round_trips() {
        let spec = QosSpec::power_cap();
        assert_eq!(spec.name(), "power-cap");
        assert_eq!(QosSpec::parse("power-cap"), Some(spec));
        assert_eq!(QosSpec::parse("cap"), Some(spec));
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
        assert_eq!(cap.deferrals(), 1);
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
