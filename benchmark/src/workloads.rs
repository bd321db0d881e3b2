//! The five benchmark workloads: what device each runs on, how its trace
//! is made from the seed, how the device is aged, and which simulator
//! entry point the timed call is.
//!
//! The names are the keys in `BENCHMARK.json`. Sizes were chosen on a
//! 2-core box so that one timed call takes roughly 1.0–1.5 s; `quick`
//! sizes exist only for the self-test and are never comparable.

use crate::probes::{TimedFtl, TimedPolicy};
use dloop_repro::dloop_ftl::DloopFtl;
use dloop_repro::ftl_kit::config::SsdConfig;
use dloop_repro::ftl_kit::device::{ReplayMode, RunConfig, SsdDevice};
use dloop_repro::ftl_kit::metrics::RunReport;
use dloop_repro::ftl_kit::request::HostRequest;
use dloop_repro::ftl_kit::sched::NcqPolicy;
use dloop_repro::host::{report_fingerprint, HostConfig, HostRunReport, HostStack};
use dloop_repro::workloads::synth::{
    sequential_fill, uniform_random, UniformParams, WorkloadProfile,
};
use dloop_repro::workloads::tenants::{host_mix, qos_mix};
use std::time::Instant;

/// NCQ window of `qos_ncq` — the conventional depth.
pub const NCQ_DEPTH: usize = 32;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Financial1 on a fresh 4 GB device with the paper's 4096-entry CMT.
    OltpCmt,
    /// Uniform overwrites on an aged 1 GB device with a resident map.
    OverwriteGc,
    /// `OverwriteGc` replayed on the two-shard parallel engine.
    OverwriteGcShard2,
    /// The three-tenant QoS mix through the NCQ reorder window.
    QosNcq,
    /// The three-tenant host mix through the buffered host stack.
    HostMix,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 5] = [
        Workload::OltpCmt,
        Workload::OverwriteGc,
        Workload::OverwriteGcShard2,
        Workload::QosNcq,
        Workload::HostMix,
    ];

    /// The workload's key in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::OltpCmt => "oltp_cmt",
            Workload::OverwriteGc => "overwrite_gc",
            Workload::OverwriteGcShard2 => "overwrite_gc_shard2",
            Workload::QosNcq => "qos_ncq",
            Workload::HostMix => "host_mix",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Threads the timed call may use.
    pub fn threads(self) -> usize {
        match self {
            Workload::OverwriteGcShard2 => 2,
            _ => 1,
        }
    }

    fn is_overwrite(self) -> bool {
        matches!(self, Workload::OverwriteGc | Workload::OverwriteGcShard2)
    }

    /// The device this workload runs on.
    pub fn config(self, quick: bool) -> SsdConfig {
        let base = SsdConfig::paper_default();
        if self.is_overwrite() {
            let sized = SsdConfig {
                // The self-test shrinks the planes, not the hierarchy, so
                // the two-shard split still has eight channels to divide.
                blocks_per_plane_override: quick.then_some((32, 4)),
                ..base.with_capacity_gb(1)
            };
            // A resident map keeps every translation on the data's own
            // plane: the CMT only ever hits, and the plane-sharded engine
            // can engage.
            SsdConfig {
                cmt_capacity: sized.geometry().user_pages() as usize,
                ..sized
            }
        } else {
            base.with_capacity_gb(if quick { 1 } else { 4 })
        }
    }

    /// Bytes the synthetic profiles may address (three quarters of the
    /// device, like the scaled paper experiments).
    fn footprint_bytes(quick: bool) -> u64 {
        if quick {
            3 << 28
        } else {
            3 << 30
        }
    }

    /// The measured trace, a pure function of `seed`.
    pub fn generate(self, seed: u64, quick: bool) -> Vec<HostRequest> {
        let config = self.config(quick);
        let page_size = config.geometry().page_size;
        match self {
            Workload::OltpCmt => {
                let profile = WorkloadProfile {
                    footprint_bytes: Self::footprint_bytes(quick),
                    ..WorkloadProfile::financial1()
                };
                let requests = if quick { 4_000 } else { 250_000 };
                profile.generate_scaled(seed, page_size, requests).requests
            }
            Workload::OverwriteGc | Workload::OverwriteGcShard2 => {
                let requests = if quick { 6_000 } else { 200_000 };
                overwrites(seed, config.geometry().user_pages(), requests)
            }
            Workload::QosNcq => {
                let per_tenant = if quick { 1_500 } else { 25_000 };
                qos_mix(seed, page_size, per_tenant, Self::footprint_bytes(quick)).requests
            }
            Workload::HostMix => {
                let per_tenant = if quick { 1_500 } else { 25_000 };
                host_mix(seed, page_size, per_tenant, Self::footprint_bytes(quick)).requests
            }
        }
    }

    /// The aging traces replayed (and discarded) before the measured one:
    /// a sequential fill of the hot region, then enough uniform
    /// overwrites that collection runs from the first measured request.
    /// Without the second phase the cost per request climbs through the
    /// measured window as GC ramps up.
    pub fn aging(self, seed: u64, quick: bool) -> Vec<Vec<HostRequest>> {
        if !self.is_overwrite() {
            return Vec::new();
        }
        let user_pages = self.config(quick).geometry().user_pages();
        let requests = if quick { 15_000 } else { 150_000 };
        vec![
            sequential_fill(user_pages, HOT_FRACTION, 64).requests,
            overwrites(seed + 1, user_pages, requests),
        ]
    }

    /// LPNs resident in the CMT when the measured window opens.
    pub fn warm_lpns(self, quick: bool) -> std::ops::Range<u64> {
        if self.is_overwrite() {
            let user_pages = self.config(quick).geometry().user_pages();
            0..(user_pages as f64 * HOT_FRACTION) as u64
        } else {
            0..0
        }
    }

    /// The host-stack configuration of `host_mix`.
    pub fn host_config(quick: bool) -> HostConfig {
        HostConfig::buffered(if quick { 4_096 } else { 16_384 })
    }

    /// Build a fresh device and age it. With `epoch` the FTL sits behind
    /// a (still disarmed) [`TimedFtl`].
    pub fn build_device(
        self,
        aging: &[Vec<HostRequest>],
        quick: bool,
        epoch: Option<Instant>,
    ) -> SsdDevice {
        let config = self.config(quick);
        let ftl = DloopFtl::new(&config);
        let mut device = match epoch {
            Some(epoch) => SsdDevice::new(config, Box::new(TimedFtl::new(ftl, epoch))),
            None => SsdDevice::new(config, Box::new(ftl)),
        };
        for trace in aging {
            device.warm_up(trace);
        }
        device
    }

    /// The timed call: exactly one replay of `requests`. A traced rep
    /// passes its policy decorator: `qos_ncq` then routes the same NCQ
    /// window through `run_with_policy` so the policy seam can be timed,
    /// and the sharded workload replays sequentially, because a decorated
    /// FTL cannot fork.
    pub fn run(
        self,
        device: &mut SsdDevice,
        requests: &[HostRequest],
        quick: bool,
        traced: Option<&mut TimedPolicy<NcqPolicy>>,
    ) -> Outcome {
        let report = match self {
            Workload::OltpCmt | Workload::OverwriteGc => {
                device.run_with(requests, RunConfig::open())
            }
            Workload::OverwriteGcShard2 => {
                let shards = if traced.is_some() { 1 } else { 2 };
                device.run_with(requests, RunConfig::open().shards(shards))
            }
            Workload::QosNcq => match traced {
                Some(policy) => device.run_with_policy(requests, RunConfig::ncq(NCQ_DEPTH), policy),
                None => device.run_with(requests, RunConfig::ncq(NCQ_DEPTH)),
            },
            Workload::HostMix => {
                let stack = HostStack::new(Self::host_config(quick));
                return Outcome::Host(Box::new(stack.run(device, requests, ReplayMode::Open)));
            }
        };
        Outcome::Device(Box::new(report))
    }
}

/// Share of the logical space the overwrite workloads keep hot. Capping
/// it at 90 % holds steady-state utilisation near 87 % on the paper's
/// 3 %-over-provisioned geometry: every plane collects constantly, but a
/// collection always restores the free pool to the GC threshold.
const HOT_FRACTION: f64 = 0.9;

fn overwrites(seed: u64, user_pages: u64, requests: u64) -> Vec<HostRequest> {
    uniform_random(
        &UniformParams {
            requests,
            write_ratio: 1.0,
            pages_per_req: 1,
            space_pages: (user_pages as f64 * HOT_FRACTION) as u64,
            rate_per_sec: 1e9,
        },
        seed,
    )
    .requests
}

/// What a timed call returned.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// A raw device replay.
    Device(Box<RunReport>),
    /// A replay through the host stack.
    Host(Box<HostRunReport>),
}

impl Outcome {
    /// The device-level report.
    pub fn device(&self) -> &RunReport {
        match self {
            Outcome::Device(report) => report,
            Outcome::Host(report) => &report.device,
        }
    }

    /// The host-level report, for `host_mix`.
    pub fn host(&self) -> Option<&HostRunReport> {
        match self {
            Outcome::Device(_) => None,
            Outcome::Host(report) => Some(report),
        }
    }

    /// The digest two equal runs agree on.
    pub fn fingerprint(&self) -> u64 {
        match self {
            Outcome::Device(report) => report_fingerprint(report),
            Outcome::Host(report) => report.fingerprint(),
        }
    }

    /// Per-request simulated latency in nanoseconds, as the user of the
    /// run sees it: completion minus arrival on the device, interrupt
    /// delivery minus syscall through the host stack.
    pub fn latencies_ns(&self) -> Vec<u64> {
        match self {
            Outcome::Device(report) => report
                .completions
                .iter()
                .map(|&(_, arrival, done)| done.saturating_since(arrival).as_nanos())
                .collect(),
            Outcome::Host(report) => report.requests.iter().map(|r| r.end_to_end_ns()).collect(),
        }
    }

    /// How many of `attempted` requests the run has no completion for.
    /// Any structural disagreement (wrong completed count, a delivery
    /// before its arrival) fails the whole run.
    pub fn failed_ops(&self, attempted: usize) -> usize {
        match self {
            Outcome::Device(report) => {
                let mut seen = vec![false; attempted];
                for &(req, _, _) in &report.completions {
                    match seen.get_mut(req as usize) {
                        Some(slot) => *slot = true,
                        None => return attempted,
                    }
                }
                if report.requests_completed != attempted as u64 {
                    return attempted;
                }
                seen.iter().filter(|&&s| !s).count()
            }
            Outcome::Host(report) => {
                let device_ok = report.device.requests_completed == report.forwarded;
                let ordered = report.requests.iter().all(|r| r.deliver >= r.arrival);
                if !device_ok || !ordered {
                    return attempted;
                }
                attempted.saturating_sub(report.requests.len())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_traces_follow_the_seed() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            let a = w.generate(7, true);
            assert_eq!(
                a,
                w.generate(7, true),
                "{}: same seed, same trace",
                w.name()
            );
            assert_ne!(a, w.generate(8, true), "{}: seed ignored", w.name());
            assert!(a.windows(2).all(|p| p[0].arrival <= p[1].arrival));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn the_sharded_workload_differs_only_in_the_engine() {
        let (a, b) = (Workload::OverwriteGc, Workload::OverwriteGcShard2);
        assert_eq!(a.generate(3, true), b.generate(3, true));
        assert_eq!(a.aging(3, true), b.aging(3, true));
        assert_eq!(a.config(true).cmt_capacity, b.config(true).cmt_capacity);
        assert_eq!(b.threads(), 2);
    }
}
