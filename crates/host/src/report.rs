//! What a host-stack run reports: the wrapped device report, per-request
//! syscall-to-cell timestamps, cache and queue-pair counters, and the
//! host-phase spans ready to join a device flight recording.
//!
//! The per-request timeline is five monotone instants —
//! `arrival ≤ cache_done ≤ submit ≤ done ≤ deliver` — and the phase
//! durations are their exact integer-nanosecond differences, so cache +
//! host-queue + device + completion *tiles* each request's end-to-end
//! residence with no rounding slack. Claim C13 re-checks that identity
//! request by request.

use crate::cache::CacheStats;
use dloop_ftl_kit::metrics::RunReport;
use dloop_simkit::trace::{QueueDepthProbe, Span, TraceSink};
use dloop_simkit::SimTime;

/// The syscall-to-cell timeline of one host request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostRequestLog {
    /// When the host issued the request (trace arrival).
    pub arrival: SimTime,
    /// When the cache finished its per-page DRAM copies for this request
    /// (`arrival` when the cache touched no page). For a cache-served
    /// request this is the acknowledgement instant (`== done`); for a
    /// partial read hit the miss commands stage only after it.
    pub cache_done: SimTime,
    /// When its first device command entered the device (doorbell ring,
    /// or later under a finite per-queue depth: the instant a free SQ
    /// slot admitted it). Cache-served requests never submit; their
    /// `submit == done`.
    pub submit: SimTime,
    /// When its last device command completed (cache-served: when the
    /// cache acknowledged).
    pub done: SimTime,
    /// When the completion interrupt reached the host (cache-served:
    /// same as `done` — no interrupt is involved).
    pub deliver: SimTime,
    /// Whether the cache served the request without any device command.
    pub cache_served: bool,
}

impl HostRequestLog {
    /// Nanoseconds spent between cache service and device admission
    /// (doorbell batching plus SQ backpressure).
    pub fn host_queue_ns(&self) -> u64 {
        (self.submit - self.cache_done).as_nanos()
    }

    /// Nanoseconds of cache service: the per-page DRAM copy cost, for
    /// fully served requests and for the hit pages of a partial miss
    /// alike.
    pub fn cache_ns(&self) -> u64 {
        (self.cache_done - self.arrival).as_nanos()
    }

    /// Nanoseconds between device admission and last device completion.
    pub fn device_ns(&self) -> u64 {
        (self.done - self.submit).as_nanos()
    }

    /// Nanoseconds the completion sat coalescing before its interrupt.
    pub fn completion_ns(&self) -> u64 {
        (self.deliver - self.done).as_nanos()
    }

    /// End-to-end residence: arrival to interrupt delivery. Equals the
    /// sum of the four phase durations exactly (integer nanoseconds).
    pub fn end_to_end_ns(&self) -> u64 {
        (self.deliver - self.arrival).as_nanos()
    }
}

/// Queue-pair counters over a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Device commands submitted across all queues (after the block
    /// layer, including cache write-backs).
    pub submissions: u64,
    /// Doorbell rings across all submission queues.
    pub doorbells: u64,
    /// Completion interrupts delivered across all completion queues.
    pub interrupts: u64,
    /// Commands whose device admission was delayed past their doorbell
    /// ring because their submission queue was at `queue_depth` — the
    /// backpressure count of the interleaved driver (always zero when the
    /// depth is unbounded or unenforced).
    pub depth_stalls: u64,
}

impl QueueStats {
    /// Mean submissions released per doorbell ring.
    pub fn mean_batch(&self) -> f64 {
        if self.doorbells == 0 {
            0.0
        } else {
            self.submissions as f64 / self.doorbells as f64
        }
    }

    /// Mean completions aggregated per interrupt.
    pub fn mean_coalesced(&self) -> f64 {
        if self.interrupts == 0 {
            0.0
        } else {
            self.submissions as f64 / self.interrupts as f64
        }
    }
}

/// Everything a [`HostStack::run`](crate::HostStack::run) measures.
#[derive(Debug, Clone)]
pub struct HostRunReport {
    /// The wrapped device report: the session's report over the
    /// forwarded command stream. Its completion ids index the forwarded
    /// commands, in `(arrival, index)` staging order — on a pass-through
    /// stack, exactly what `SsdDevice::run_with` returns for the trace
    /// sorted that way.
    pub device: RunReport,
    /// One timeline per host request, trace order.
    pub requests: Vec<HostRequestLog>,
    /// Page-cache counters.
    pub cache: CacheStats,
    /// Queue-pair counters.
    pub queues: QueueStats,
    /// Device commands forwarded (host-mapped + write-backs).
    pub forwarded: u64,
    /// Commands the block layer split out of oversized host I/Os.
    pub split_commands: u64,
    /// Commands the block layer absorbed into a neighbour.
    pub merged_commands: u64,
    /// Background write-back commands the cache emitted.
    pub writeback_commands: u64,
    /// The per-queue depth bound this run enforced (`None` = unbounded),
    /// in every replay mode.
    pub queue_depth: Option<u32>,
    /// Host-side SQ occupancy probe, one record per forwarded command:
    /// tenant tag = submission-queue index, `arrival` = doorbell ring,
    /// `issue` = device admission, `done` = interrupt delivery (the
    /// instant the SQ slot frees). Records are in canonical
    /// `(deliver, command)` order, so equal runs log identically;
    /// zero-page commands occupy no slot and are omitted, making the
    /// per-queue gauge exactly the window occupancy.
    pub sq_log: QueueDepthProbe,
    /// Host-phase spans (host-queue waits, cache service, completion
    /// coalescing), ready to be replayed into the same sink as the device
    /// spans via [`HostRunReport::emit_spans`].
    pub host_spans: Vec<Span>,
}

impl HostRunReport {
    /// Mean end-to-end (syscall-to-interrupt) latency in milliseconds.
    pub fn mean_end_to_end_ms(&self) -> f64 {
        if self.requests.is_empty() {
            return 0.0;
        }
        let total: u64 = self.requests.iter().map(|r| r.end_to_end_ns()).sum();
        total as f64 / 1e6 / self.requests.len() as f64
    }

    /// Summed phase durations over all requests, in nanoseconds:
    /// `(host_queue, cache, device, completion, end_to_end)`. The first
    /// four tile the fifth exactly.
    pub fn phase_totals_ns(&self) -> (u64, u64, u64, u64, u64) {
        let mut t = (0u64, 0u64, 0u64, 0u64, 0u64);
        for r in &self.requests {
            t.0 += r.host_queue_ns();
            t.1 += r.cache_ns();
            t.2 += r.device_ns();
            t.3 += r.completion_ns();
            t.4 += r.end_to_end_ns();
        }
        t
    }

    /// Fraction of host requests the cache served without any device
    /// command.
    pub fn cache_served_fraction(&self) -> f64 {
        if self.requests.is_empty() {
            return 0.0;
        }
        let served = self.requests.iter().filter(|r| r.cache_served).count();
        served as f64 / self.requests.len() as f64
    }

    /// Replay the host-phase spans into `sink` (typically the same
    /// recorder that captured the device spans, so the attribution table
    /// telescopes from syscall to cell).
    pub fn emit_spans(&self, sink: &mut dyn TraceSink) {
        for span in &self.host_spans {
            sink.record(span);
        }
    }

    /// Order-sensitive digest of the whole host report (device
    /// fingerprint, per-request timelines, counters, the SQ occupancy
    /// log, and the full contents of every host-phase span — not just
    /// their count, so a span relabelled to the wrong phase changes the
    /// digest). Equal digests ⇒ same observable run; used by the
    /// determinism leg of claim C13.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        h.write(report_fingerprint(&self.device));
        h.write(self.requests.len() as u64);
        for r in &self.requests {
            h.write(r.arrival.as_nanos());
            h.write(r.cache_done.as_nanos());
            h.write(r.submit.as_nanos());
            h.write(r.done.as_nanos());
            h.write(r.deliver.as_nanos());
            h.write(r.cache_served as u64);
        }
        for v in [
            self.cache.read_hits,
            self.cache.read_misses,
            self.cache.writes_absorbed,
            self.cache.flushed,
            self.cache.evicted_dirty,
            self.cache.evicted_clean,
            self.cache.drained,
            self.queues.submissions,
            self.queues.doorbells,
            self.queues.interrupts,
            self.queues.depth_stalls,
            self.forwarded,
            self.split_commands,
            self.merged_commands,
            self.writeback_commands,
            self.queue_depth.map(|d| d as u64 + 1).unwrap_or(0),
            // Redundant with the slot above, but kept: it holds every
            // recorded digest of an open-mode or unbounded run.
            self.queue_depth.is_some() as u64,
            self.sq_log.len() as u64,
            self.host_spans.len() as u64,
        ] {
            h.write(v);
        }
        for &(queue, arrival, issue, done) in self.sq_log.tracked() {
            h.write(queue as u64);
            h.write(arrival.as_nanos());
            h.write(issue.as_nanos());
            h.write(done.as_nanos());
        }
        for s in &self.host_spans {
            h.write_bytes(s.phase.name().as_bytes());
            h.write_bytes(s.kind.name().as_bytes());
            h.write(s.lpn.map(|l| l + 1).unwrap_or(0));
            h.write(s.req.map(|r| r + 1).unwrap_or(0));
            h.write(s.issue.as_nanos());
            h.write(s.start().as_nanos());
            h.write(s.end.as_nanos());
        }
        h.finish()
    }
}

/// Order-sensitive digest of a device [`RunReport`]: the locked metrics
/// CSV row, the queue-depth timeline, and the per-request completion log.
/// Two reports with equal digests agree on every surfaced measurement —
/// this is the fingerprint claim C13's pass-through identity compares
/// (the exhaustive field-by-field fingerprint lives in
/// `tests/replay_modes.rs`).
pub fn report_fingerprint(report: &RunReport) -> u64 {
    let mut h = Fnv::new();
    h.write_bytes(report.csv_row().as_bytes());
    h.write_bytes(report.queue_depth_csv(64).as_bytes());
    h.write(report.completions.len() as u64);
    for &(req, arrival, done) in &report.completions {
        h.write(req);
        h.write(arrival.as_nanos());
        h.write(done.as_nanos());
    }
    h.finish()
}

/// Minimal FNV-1a accumulator (the workspace is dependency-free).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    fn write(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log(arrival_us: u64, submit_us: u64, done_us: u64, deliver_us: u64) -> HostRequestLog {
        HostRequestLog {
            arrival: SimTime::from_micros(arrival_us),
            cache_done: SimTime::from_micros(arrival_us),
            submit: SimTime::from_micros(submit_us),
            done: SimTime::from_micros(done_us),
            deliver: SimTime::from_micros(deliver_us),
            cache_served: false,
        }
    }

    #[test]
    fn phases_tile_end_to_end_exactly() {
        let r = log(10, 25, 90, 140);
        assert_eq!(r.host_queue_ns(), 15_000);
        assert_eq!(r.device_ns(), 65_000);
        assert_eq!(r.completion_ns(), 50_000);
        assert_eq!(r.cache_ns(), 0);
        assert_eq!(
            r.host_queue_ns() + r.cache_ns() + r.device_ns() + r.completion_ns(),
            r.end_to_end_ns()
        );
    }

    #[test]
    fn partial_hit_charges_the_cache_phase_before_submission() {
        // arrival 10, DRAM copies for the hit pages until 13, doorbell at
        // 25, device work until 90, interrupt at 140.
        let mut r = log(10, 25, 90, 140);
        r.cache_done = SimTime::from_micros(13);
        assert_eq!(r.cache_ns(), 3_000);
        assert_eq!(r.host_queue_ns(), 12_000);
        assert_eq!(r.device_ns(), 65_000);
        assert_eq!(r.completion_ns(), 50_000);
        assert_eq!(
            r.host_queue_ns() + r.cache_ns() + r.device_ns() + r.completion_ns(),
            r.end_to_end_ns()
        );
    }

    #[test]
    fn cache_served_charges_only_the_cache_phase() {
        let mut r = log(10, 12, 12, 12);
        r.cache_done = r.done;
        r.cache_served = true;
        assert_eq!(r.host_queue_ns(), 0);
        assert_eq!(r.device_ns(), 0);
        assert_eq!(r.completion_ns(), 0);
        assert_eq!(r.cache_ns(), 2_000);
        assert_eq!(r.end_to_end_ns(), 2_000);
    }

    #[test]
    fn queue_stats_means() {
        let q = QueueStats {
            submissions: 12,
            doorbells: 3,
            interrupts: 4,
            depth_stalls: 0,
        };
        assert_eq!(q.mean_batch(), 4.0);
        assert_eq!(q.mean_coalesced(), 3.0);
        assert_eq!(QueueStats::default().mean_batch(), 0.0);
    }

    #[test]
    fn fnv_distinguishes_order() {
        let mut a = Fnv::new();
        a.write(1);
        a.write(2);
        let mut b = Fnv::new();
        b.write(2);
        b.write(1);
        assert_ne!(a.finish(), b.finish());
    }
}
