//! # dloop-benchmark
//!
//! The one benchmark the reproduction's performance work is judged by.
//! `BENCHMARK.json` at the repository root names its command, workloads,
//! metrics and regression bounds; `README.md` beside this package explains
//! how a run is measured and which layer should move which number.
//!
//! The simulator is measured strictly from outside, through its public
//! API: in situ by timing decorators on the trait seams ([`probes`]), in
//! isolation by replaying a workload's own operation streams against one
//! layer at a time ([`isolated`]).

pub mod compare;
pub mod isolated;
pub mod json;
pub mod measure;
pub mod probes;
pub mod run;
pub mod workloads;
