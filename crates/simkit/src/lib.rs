//! # dloop-simkit
//!
//! A small, deterministic, event-driven simulation kernel.
//!
//! This crate is the reproduction's substitute for DiskSim 3.0: it provides
//! the pieces of DiskSim the DLOOP paper actually relies on — a simulated
//! clock, an ordered event queue, per-run statistics, and a reproducible
//! random number generator — without the hard-disk machinery that the flash
//! extension bypasses.
//!
//! Everything in this crate is single-threaded and fully deterministic:
//! running the same simulation with the same seed twice produces bit-identical
//! results. Parallelism in the *simulated* SSD (planes, channels, dies) is
//! modelled by resource timelines in `dloop-nand`, not by host threads;
//! host-level parallelism is only used by the experiment harness, which runs
//! independent simulations on independent worker threads.
//!
//! ## Modules
//!
//! * [`time`] — fixed-point simulated time ([`SimTime`], [`SimDuration`]).
//! * [`events`] — a monotonic event queue with stable FIFO tie-breaking.
//! * [`stats`] — online mean/variance, histograms and percentile estimation.
//! * [`rng`] — a tiny, seedable PCG-style PRNG (keeps the simulator free of
//!   external API churn and registry dependencies).
//! * [`queue`] — FlashSim's pending-operation priority list in its plainest
//!   form, kept for the benchmark harness's isolated queue timing (the
//!   device scheduler indexes its own window).
//! * [`slots`] — the record-table kit shared by the FTL's cached mapping
//!   table and the host page cache: a keyless open-addressed `u64 → u32`
//!   index and intrusive doubly linked lists over a record `Vec`.
//! * [`trace`] — an opt-in op-level tracing layer: a [`TraceSink`] trait
//!   with a flight-recorder ring sink and JSONL rendering, plus Chrome `trace_event`
//!   (request-flow-stitched) / utilization-CSV / latency-attribution
//!   exporters (and a hermetic JSON linter for validating them).
//! * [`check`] — a deterministic property-testing harness (the workspace's
//!   in-tree `proptest` substitute), seeded from [`rng`].
//! * [`mod@bench`] — a warmup/iterate/report micro-benchmark runner (the
//!   in-tree `criterion` substitute), reporting via [`stats`].
//!
//! The [`check`] and [`mod@bench`] modules exist because the workspace builds
//! hermetically: no registry dependencies, so the test and benchmark
//! tooling ships in-tree. See the workspace README's
//! "Zero-external-dependency policy".

pub mod bench;
pub mod check;
pub mod events;
pub mod queue;
pub mod rng;
pub mod slots;
pub mod stats;
pub mod time;
pub mod trace;

pub use events::{ArrivalOrder, EventQueue, ScheduledEvent};
pub use queue::PendingQueue;
pub use rng::SimRng;
pub use stats::{Histogram, OnlineStats};
pub use time::{SimDuration, SimTime};
pub use trace::{QueueDepthProbe, RingSink, Span, SpanKind, SpanPhase, TraceSink};
