//! # dloop
//!
//! The paper's primary contribution: **DLOOP** (*Data Log On One Plane*),
//! a flash translation layer exploiting plane-level parallelism
//! (Abdurrab, Xie, Wang — IPDPS 2013).
//!
//! DLOOP is an optimised page-mapping FTL that statically assigns every
//! logical page to the plane `LPN % planes` (Equation 1). Data, updates and
//! GC traffic never leave that plane, so:
//!
//! * garbage collection relocates valid pages with the **intra-plane
//!   copy-back** command — ~30 % faster than the traditional path and,
//!   crucially, bus-free, so host requests keep flowing during GC;
//! * sequential multi-page requests stripe across planes and execute in
//!   parallel;
//! * translation pages spread across planes the same way, parallelising
//!   mapping lookups;
//! * per-plane request counts stay balanced (low SDRPP), which implicitly
//!   wear-levels the device.
//!
//! Modules: `alloc` (per-plane current-free-block pointers and the
//! same-parity policy), `gc` (copy-back garbage collection) and [`ftl`]
//! (the [`DloopFtl`] scheme and where its translation pages live). Only
//! [`DloopFtl`] is public.
//!
//! ## Example
//!
//! ```
//! use dloop::DloopFtl;
//! use dloop_ftl_kit::config::SsdConfig;
//! use dloop_ftl_kit::device::{RunConfig, SsdDevice};
//! use dloop_ftl_kit::request::{HostOp, HostRequest};
//! use dloop_simkit::SimTime;
//!
//! let config = SsdConfig::tiny_test();
//! let ftl = DloopFtl::new(&config);
//! let mut device = SsdDevice::new(config, Box::new(ftl));
//! let report = device.run_with(&[HostRequest {
//!     arrival: SimTime::ZERO,
//!     lpn: 0,
//!     pages: 8,
//!     op: HostOp::Write,
//!     ..HostRequest::default()
//! }], RunConfig::open());
//! assert_eq!(report.pages_written, 8);
//! device.audit().unwrap();
//! ```

mod alloc;
pub mod ftl;
mod gc;

pub use ftl::DloopFtl;
