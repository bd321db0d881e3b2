//! # dloop-repro
//!
//! Umbrella crate for the reproduction of *DLOOP: A Flash Translation Layer
//! Exploiting Plane-Level Parallelism* (Abdurrab, Xie, Wang — IPDPS 2013).
//!
//! This crate re-exports the whole workspace under one root so examples,
//! integration tests, and downstream users can depend on a single crate:
//!
//! * [`simkit`] — deterministic event-driven simulation kernel.
//! * [`faults`] — deterministic media-fault plans: raw bit errors (wear and
//!   retention scaled), program/erase failures, factory bad blocks.
//! * [`nand`] — NAND flash SSD hardware model (geometry, timing, state,
//!   resource contention, advanced commands incl. intra-plane copy-back).
//! * [`ftl_kit`] — FTL framework: `Ftl` trait, cached mapping table, global
//!   translation directory, the SSD device controller, the QoS scheduling
//!   policies over the NCQ window, and metrics.
//! * [`dloop`] — the paper's contribution: the DLOOP FTL.
//! * [`baselines`] — DFTL, FAST and an ideal page-mapping FTL.
//! * [`workloads`] — synthetic enterprise workload generators (Table II),
//!   multi-tenant composition for the QoS claims, and trace-file
//!   parsers.
//! * [`host`] — NVMe-style host stack in front of the device: SQ/CQ
//!   pairs with doorbell batching and interrupt coalescing, a write-back
//!   host page cache, and block-layer request splitting/merging.
//!
//! ## Quickstart
//!
//! ```
//! use dloop_repro::prelude::*;
//!
//! // A small SSD running the paper's FTL.
//! let config = SsdConfig::tiny_test();
//! let ftl = DloopFtl::new(&config);
//! let mut device = SsdDevice::new(config.clone(), Box::new(ftl));
//!
//! // A 16-page sequential write stripes across every plane.
//! let requests = [HostRequest {
//!     arrival: SimTime::ZERO,
//!     lpn: 0,
//!     pages: 16,
//!     op: HostOp::Write,
//!     ..HostRequest::default()
//! }];
//! let report = device.run_with(&requests, ReplayMode::Open.into());
//! assert_eq!(report.pages_written, 16);
//! println!("mean response time: {:.3} ms", report.mean_response_time_ms());
//! ```

pub use dloop as dloop_ftl;
pub use dloop_baselines as baselines;
pub use dloop_faults as faults;
pub use dloop_ftl_kit as ftl_kit;
pub use dloop_host as host;
pub use dloop_nand as nand;
pub use dloop_simkit as simkit;
pub use dloop_simkit::{check_assert, check_assert_eq};
pub use dloop_workloads as workloads;

/// Convenience re-exports covering the common experiment surface.
pub mod prelude {
    pub use dloop::DloopFtl;
    pub use dloop_faults::{FaultConfig, MediaOutcome};
    pub use dloop_ftl_kit::config::{FtlKind, SsdConfig};
    pub use dloop_ftl_kit::device::{ReplayMode, RunConfig, SsdDevice};
    pub use dloop_ftl_kit::ftl::Ftl;
    pub use dloop_ftl_kit::metrics::RunReport;
    pub use dloop_ftl_kit::request::{HostOp, HostRequest, TenantId};
    pub use dloop_ftl_kit::sched::{NcqPolicy, QosCandidate, QosPolicy, QosSpec, WindowFifoPolicy};
    pub use dloop_host::{HostConfig, HostRunReport, HostStack};
    pub use dloop_nand::energy::{EnergyConfig, EnergyTotals};
    pub use dloop_nand::geometry::Geometry;
    pub use dloop_nand::timing::TimingConfig;
    pub use dloop_simkit::{RingSink, SimDuration, SimTime, TraceSink};
}
