//! # dloop-ftl-kit
//!
//! The FTL framework shared by the DLOOP reproduction's translation layers:
//!
//! * [`request`] — page-aligned host request model and splitting.
//! * [`ftl`] — the [`ftl::Ftl`] trait and the timed [`ftl::OpChain`]
//!   abstraction connecting FTL decisions to hardware timing.
//! * [`cmt`] — the segmented-LRU Cached Mapping Table (§III.D).
//! * [`demand`] — the demand-paged mapping engine (CMT+GTD protocol).
//! * [`gtd`] — the Global Translation Directory.
//! * [`dir`] — the reverse page directory (ppn → owner) used by GC.
//! * [`device`] — the SSD controller: trace replay, dispatch, audits.
//! * `play` (internal) — chain playback on the hardware timelines, the
//!   one place a flash step becomes an `exec_*` call.
//! * `shard` (internal) — the plane-local parallel replay engine behind
//!   [`device::RunConfig::shards`].
//! * [`sched`] — pluggable QoS policies for the NCQ reorder window.
//! * [`metrics`] — [`metrics::RunReport`]: mean response time, SDRPP, WAF…
//! * [`config`] — Table-I parameters as a value ([`config::SsdConfig`]).

pub mod cmt;
pub mod config;
pub mod demand;
pub mod device;
pub mod dir;
pub mod ftl;
pub mod gtd;
pub mod metrics;
mod play;
pub mod request;
pub mod sched;
mod shard;

pub use shard::host_parallelism;

pub use cmt::{CachedMappingTable, Evicted};
pub use config::{FtlKind, SsdConfig};
pub use demand::{DemandCounters, DemandMap, UNMAPPED};
pub use device::{ReplayMode, RunConfig, SsdDevice, DEFAULT_NCQ_DEPTH};
pub use dir::{PageDirectory, PageOwner};
pub use ftl::{FlashStep, Ftl, FtlContext, FtlCounters, OpChain};
pub use gtd::Gtd;
pub use metrics::{RunReport, ShardGuard, ShardOutcome};
pub use request::{HostOp, HostRequest, TenantId};
pub use sched::{NcqPolicy, QosCandidate, QosPolicy, QosSpec, WindowFifoPolicy};
