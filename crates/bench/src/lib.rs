//! # dloop-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! DLOOP paper (see `DESIGN.md` for the experiment index), plus shared
//! plumbing for the Criterion micro-benchmarks.
//!
//! The binary `dloop-experiments` drives everything:
//!
//! ```text
//! dloop-experiments all --scale 4 --requests 200000 --out results/
//! ```

pub mod claims;
pub mod experiments;
pub mod runner;
pub mod table;

pub use runner::{build_ftl, ftl_cases, ideal_config, run_spec, RunSpec};
