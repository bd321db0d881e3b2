//! `dloop-host` — the host I/O path in front of the simulated SSD.
//!
//! Every replay driver in `dloop-ftl-kit` feeds the device raw page
//! operations; this crate models the layer a real application actually
//! talks through — NVMe-style submission/completion queue pairs with
//! doorbell batching and interrupt coalescing, a write-back host page
//! cache with dirty-ratio write-back, and block-layer request
//! splitting/merging — and drives the existing device **unchanged**
//! underneath.
//!
//! ```text
//! syscall → page cache → block layer → SQ doorbell ⇄ device session
//!                                          ▲              │
//! interrupt ← CQ coalescing ← per-command completions ────┘
//!            (a delivery frees an SQ slot: the loops interleave)
//! ```
//!
//! The entry point is [`HostStack::run`]. In every replay mode the host
//! and device event loops are *interleaved*: each submission queue holds
//! at most [`HostConfig::queue_depth`] in-flight commands, a doorbell
//! ring admits a command only when its queue has a free slot, and an
//! interrupt delivery (via the CQ coalescer) frees a slot and triggers
//! the next submission — backpressure from a full SQ delays the
//! syscall-visible `submit` instant. Open replay books an admitted
//! command at once; the device-queued modes queue it in the device's
//! scheduler. The result is a [`HostRunReport`]: the wrapped device
//! report plus a five-instant timeline per host request
//! (`arrival ≤ cache_done ≤ submit ≤ done ≤ deliver`) whose phase
//! differences tile end-to-end residence exactly, cache / host-queue /
//! completion [`Span`](dloop_simkit::trace::Span)s ready to join a
//! device flight recording, an SQ occupancy log, and cache / queue-pair
//! counters.
//!
//! Three contracts pin the model down (claims C13/C14 in `dloop-bench`):
//!
//! - **Pass-through identity** — [`HostConfig::passthrough`] makes every
//!   pipeline stage the identity, so the device sees the input trace
//!   bit-for-bit and its report is fingerprint-identical to calling the
//!   device directly. There is no shortcut branch; the identity is a
//!   property of the generic pipeline, interleaved loop included.
//! - **Exact phase tiling** — per request, `cache + host_queue + device
//!   + completion == end_to_end` in integer nanoseconds.
//! - **Windows hold** — per-queue in-flight occupancy never exceeds the
//!   configured depth at any instant of the SQ occupancy log, in every
//!   replay mode.
//!
//! Determinism: the stack holds no global state, iterates no hash map,
//! and derives every decision from the (config, trace) pair — equal
//! inputs give byte-identical [`HostRunReport`]s across reruns.

pub mod block;
pub mod cache;
pub mod config;
pub mod queue;
pub mod report;
pub mod stack;

pub use cache::{CacheStats, PageCache, Writeback};
pub use config::HostConfig;
pub use queue::CqState;
pub use report::{report_fingerprint, HostRequestLog, HostRunReport, QueueStats};
pub use stack::HostStack;
