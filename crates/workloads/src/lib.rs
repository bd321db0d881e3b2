//! # dloop-workloads
//!
//! Workloads for the DLOOP evaluation.
//!
//! * [`synth`] — synthetic generators reproducing the statistics of the
//!   paper's five enterprise traces (Table II): Financial1, Financial2,
//!   TPC-C, Exchange, Build — plus a uniform generator and a sequential
//!   device-fill helper for aging.
//! * [`spc`] / [`disksim`] — parsers for the real SPC and DiskSim trace
//!   file formats, for users who have the original (non-redistributable)
//!   traces.
//! * [`tenants`] — multi-tenant composition: merge per-tenant sub-traces
//!   into one tenant-tagged trace for the QoS policies, plus the
//!   canonical three-tenant [`tenants::qos_mix`].
//! * [`trace`] — the [`trace::Trace`] container with Table-II-style
//!   statistics.
//! * [`zipf`] — the skewed-popularity sampler behind the generators.

pub mod disksim;
pub mod spc;
pub mod synth;
pub mod tenants;
pub mod trace;
pub mod zipf;

pub use disksim::parse_disksim;
pub use spc::parse_spc;
pub use synth::{sequential_fill, uniform_random, UniformParams, WorkloadProfile};
pub use tenants::{host_mix, qos_mix, CacheBias};
pub use trace::{Trace, TraceStats};
pub use zipf::Zipf;
