//! Multi-tenant workload composition for the QoS experiments.
//!
//! A multi-tenant trace is a deterministic merge of per-tenant sub-traces:
//! each `TenantSpec` names a host stream (tenant id), the synthetic
//! profile that drives it, how many requests it contributes, and an
//! optional per-request deadline budget. The merge is a
//! *stable* sort by arrival time, so same-instant arrivals keep spec
//! order and the whole composition is seed-replayable — the same
//! `(specs, seed)` pair always produces the same byte-identical trace,
//! which is what the QoS determinism tests in `tests/replay_modes.rs`
//! lean on.
//!
//! [`qos_mix`] is the canonical three-tenant contention mix used by the
//! C12 claim and the `qos_ncq` benchmark workload: a latency-sensitive
//! read-dominant stream with deadlines, a throughput-oriented write-heavy
//! stream, and a background bulk stream.

use crate::synth::WorkloadProfile;
use crate::trace::Trace;
use dloop_ftl_kit::request::TenantId;
use dloop_simkit::SimDuration;

/// How a tenant's access pattern interacts with a host page cache (the
/// `dloop-host` write-back cache). The bias is applied to the tenant's
/// profile at generation time, so the same knob works for any base
/// profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CacheBias {
    /// The profile as-is (the pre-host-stack behaviour).
    #[default]
    Neutral,
    /// Cache-friendly: the footprint shrinks to an eighth, popularity
    /// skew rises and sequential runs lengthen — a hot working set that
    /// mostly fits in a host cache.
    Friendly,
    /// Cache-hostile: popularity flattens to uniform and sequential
    /// locality disappears — a scan-like stream that churns any cache it
    /// touches.
    Hostile,
}

impl CacheBias {
    /// Short display name for tables and docs.
    pub fn name(self) -> &'static str {
        match self {
            CacheBias::Neutral => "neutral",
            CacheBias::Friendly => "cache-friendly",
            CacheBias::Hostile => "cache-hostile",
        }
    }

    /// Apply the bias to `profile`.
    pub fn apply(self, mut profile: WorkloadProfile) -> WorkloadProfile {
        match self {
            CacheBias::Neutral => {}
            CacheBias::Friendly => {
                profile.footprint_bytes = (profile.footprint_bytes / 8).max(1);
                profile.zipf_theta = profile.zipf_theta.max(1.1);
                profile.seq_prob = profile.seq_prob.max(0.5);
            }
            CacheBias::Hostile => {
                profile.zipf_theta = 0.0;
                profile.seq_prob = 0.0;
            }
        }
        profile
    }
}

/// One tenant's contribution to a multi-tenant trace.
#[derive(Debug, Clone)]
struct TenantSpec {
    /// Host stream id carried on every generated request (use non-zero
    /// ids: 0 is the untagged/neutral stream).
    tenant: TenantId,
    /// Synthetic profile driving this tenant's sub-trace.
    profile: WorkloadProfile,
    /// Requests this tenant contributes.
    requests: u64,
    /// Per-request deadline budget (arrival + budget), carried on each
    /// request's `deadline`. `None` leaves requests best-effort.
    deadline: Option<SimDuration>,
    /// Host-cache interaction bias, applied to `profile` at generation
    /// time. [`CacheBias::Neutral`] (the default) leaves the profile
    /// untouched, so pre-existing compositions are byte-identical.
    cache_bias: CacheBias,
}

impl TenantSpec {
    /// A best-effort tenant: `requests` drawn from `profile`, no deadline.
    fn new(tenant: TenantId, profile: WorkloadProfile, requests: u64) -> Self {
        TenantSpec {
            tenant,
            profile,
            requests,
            deadline: None,
            cache_bias: CacheBias::Neutral,
        }
    }

    /// Attach a per-request deadline budget.
    fn with_deadline(mut self, budget: SimDuration) -> Self {
        self.deadline = Some(budget);
        self
    }

    /// Bias this tenant's access pattern for or against a host cache.
    fn with_cache_bias(mut self, bias: CacheBias) -> Self {
        self.cache_bias = bias;
        self
    }
}

/// Per-tenant seed derivation: decorrelate the sub-traces without losing
/// determinism (SplitMix64's odd multiplier over the tenant id).
fn tenant_seed(seed: u64, tenant: TenantId) -> u64 {
    seed ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(tenant as u64 + 1)
}

/// Merge per-tenant sub-traces into one tenant-tagged [`Trace`].
///
/// Each spec generates its sub-trace with a tenant-decorrelated seed,
/// tags every request with the spec's tenant id (and deadline budget, if
/// any), and the union is stable-sorted by arrival. Deterministic: same
/// specs + seed, same trace.
fn multi_tenant(name: &str, specs: &[TenantSpec], seed: u64, page_size: u32) -> Trace {
    let mut requests = Vec::new();
    for spec in specs {
        let profile = spec.cache_bias.apply(spec.profile.clone());
        let sub = profile.generate_scaled(tenant_seed(seed, spec.tenant), page_size, spec.requests);
        for r in sub.requests {
            let mut r = r.with_tenant(spec.tenant);
            if let Some(budget) = spec.deadline {
                r = r.with_deadline_after(budget);
            }
            requests.push(r);
        }
    }
    // Stable by arrival: simultaneous arrivals keep spec order.
    requests.sort_by_key(|r| r.arrival);
    Trace::new(name, requests)
}

/// The canonical three-tenant QoS contention mix.
///
/// | tenant | stream | profile | deadline |
/// |---|---|---|---|
/// | 1 | latency-sensitive, read-dominant | Financial2 | 5 ms |
/// | 2 | throughput-oriented, write-heavy | Financial1 | — |
/// | 3 | background bulk, large transfers | Build | — |
///
/// Every profile's footprint is clamped to `footprint_bytes` so the mix
/// fits whatever device the caller replays it on (the Table II footprints
/// are tens of gigabytes; scaled experiment devices are much smaller).
pub fn qos_mix(seed: u64, page_size: u32, requests_per_tenant: u64, footprint_bytes: u64) -> Trace {
    let clamp = |mut p: WorkloadProfile| {
        p.footprint_bytes = p.footprint_bytes.min(footprint_bytes);
        p
    };
    let specs = [
        TenantSpec::new(1, clamp(WorkloadProfile::financial2()), requests_per_tenant)
            .with_deadline(SimDuration::from_millis(5)),
        TenantSpec::new(2, clamp(WorkloadProfile::financial1()), requests_per_tenant),
        TenantSpec::new(3, clamp(WorkloadProfile::build()), requests_per_tenant),
    ];
    multi_tenant("qos-mix", &specs, seed, page_size)
}

/// The canonical host-cache contention mix for the `dloop-host` stack.
///
/// | tenant | stream | profile | cache bias |
/// |---|---|---|---|
/// | 1 | hot-set reader, mostly cache-resident | Financial2 | friendly |
/// | 2 | write-heavy OLTP, fills the write-back cache | Financial1 | neutral |
/// | 3 | scan-like churn, evicts everyone else | Build | hostile |
///
/// Tenant 1's hits collapse once tenant 3's uniform scan starts evicting
/// the hot set — the cache-contention scenario the `host` experiment
/// sweeps. Footprints are clamped to `footprint_bytes` like
/// [`qos_mix`].
pub fn host_mix(
    seed: u64,
    page_size: u32,
    requests_per_tenant: u64,
    footprint_bytes: u64,
) -> Trace {
    let clamp = |mut p: WorkloadProfile| {
        p.footprint_bytes = p.footprint_bytes.min(footprint_bytes);
        p
    };
    let specs = [
        TenantSpec::new(1, clamp(WorkloadProfile::financial2()), requests_per_tenant)
            .with_cache_bias(CacheBias::Friendly),
        TenantSpec::new(2, clamp(WorkloadProfile::financial1()), requests_per_tenant),
        TenantSpec::new(3, clamp(WorkloadProfile::build()), requests_per_tenant)
            .with_cache_bias(CacheBias::Hostile),
    ];
    multi_tenant("host-mix", &specs, seed, page_size)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_is_sorted_tagged_and_deadlined() {
        let t = qos_mix(7, 2048, 50, 1 << 26);
        assert_eq!(t.len(), 150);
        assert!(t.requests.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        for r in &t.requests {
            assert!((1..=3).contains(&r.tenant));
            match r.tenant {
                1 => {
                    let d = r.deadline.expect("tenant 1 carries deadlines");
                    assert_eq!(d, r.arrival + SimDuration::from_millis(5));
                }
                _ => assert!(r.deadline.is_none()),
            }
        }
        // All three streams actually show up.
        for tenant in 1..=3u16 {
            assert!(t.requests.iter().any(|r| r.tenant == tenant));
        }
    }

    #[test]
    fn composition_is_deterministic_and_seed_sensitive() {
        let a = qos_mix(11, 2048, 40, 1 << 26);
        let b = qos_mix(11, 2048, 40, 1 << 26);
        assert_eq!(a.requests, b.requests);
        let c = qos_mix(12, 2048, 40, 1 << 26);
        assert_ne!(a.requests, c.requests);
    }

    #[test]
    fn footprint_clamp_bounds_the_address_space() {
        let t = qos_mix(3, 2048, 60, 1 << 22); // 4 MB = 2048 pages
        let pages = (1u64 << 22) / 2048;
        assert!(t.requests.iter().all(|r| r.lpn < pages));
    }

    #[test]
    fn neutral_bias_is_the_identity() {
        let p = WorkloadProfile::financial1();
        let biased = CacheBias::Neutral.apply(p.clone());
        assert_eq!(biased.footprint_bytes, p.footprint_bytes);
        assert_eq!(biased.zipf_theta, p.zipf_theta);
        assert_eq!(biased.seq_prob, p.seq_prob);
        // And a spec built without the knob behaves exactly as before.
        let spec = TenantSpec::new(1, p, 10);
        assert_eq!(spec.cache_bias, CacheBias::Neutral);
    }

    #[test]
    fn biases_reshape_the_access_pattern() {
        let p = WorkloadProfile::financial2();
        let friendly = CacheBias::Friendly.apply(p.clone());
        assert!(friendly.footprint_bytes < p.footprint_bytes);
        assert!(friendly.zipf_theta >= 1.1);
        assert!(friendly.seq_prob >= 0.5);
        let hostile = CacheBias::Hostile.apply(p.clone());
        assert_eq!(hostile.zipf_theta, 0.0);
        assert_eq!(hostile.seq_prob, 0.0);
        assert_eq!(hostile.footprint_bytes, p.footprint_bytes);
    }

    #[test]
    fn host_mix_is_deterministic_and_biased() {
        let a = host_mix(9, 2048, 50, 1 << 26);
        let b = host_mix(9, 2048, 50, 1 << 26);
        assert_eq!(a.requests, b.requests);
        assert_eq!(a.len(), 150);
        for tenant in 1..=3u16 {
            assert!(a.requests.iter().any(|r| r.tenant == tenant));
        }
        // The friendly tenant's addresses concentrate in a footprint an
        // eighth the size of the hostile tenant's.
        let max_lpn = |t: u16| {
            a.requests
                .iter()
                .filter(|r| r.tenant == t)
                .map(|r| r.lpn)
                .max()
                .unwrap()
        };
        assert!(max_lpn(1) < max_lpn(3) / 2);
        // Distinct from the QoS mix: no deadlines anywhere.
        assert!(a.requests.iter().all(|r| r.deadline.is_none()));
    }
}
