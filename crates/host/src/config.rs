//! Host-stack configuration.
//!
//! Every knob has a *neutral* setting under which the corresponding
//! pipeline stage is an exact identity transform, and
//! [`HostConfig::passthrough`] sets all of them at once. That is the
//! determinism anchor the C13 claim leans on: a pass-through host stack
//! forwards the input trace to the device bit-for-bit (same requests, same
//! order, same arrivals), so its device report is fingerprint-identical to
//! calling [`SsdDevice::run_with`] directly.
//!
//! [`SsdDevice::run_with`]: dloop_ftl_kit::device::SsdDevice::run_with

use dloop_simkit::SimDuration;

/// Configuration of the host I/O path (queue pairs, page cache, block
/// layer). See the module docs for the neutral value of each knob.
#[derive(Debug, Clone, PartialEq)]
pub struct HostConfig {
    /// Submission/completion queue pairs. Commands land on queue
    /// `tenant % queues`; neutral = `1` (everything on one pair).
    pub queues: u32,
    /// Per-queue depth bound, held in every replay mode: the host and
    /// device event loops interleave, each submission queue holds at
    /// most this many in-flight commands, a doorbell ring is admitted
    /// only when its queue has a free slot, and an interrupt delivery
    /// frees a slot and admits the next backlogged command — `queues`
    /// truly independent windows, with a full SQ delaying the
    /// syscall-visible `submit` instant. This is the one model of a
    /// closed loop: on a pass-through stack, depth `d` keeps at most `d`
    /// requests outstanding. Under the device-queued replay modes
    /// (`Gated`/`Qos`) the device's own window orders what the host
    /// admitted. Neutral = `None` (unbounded).
    pub queue_depth: Option<u32>,
    /// Ring the doorbell after this many submissions on a queue
    /// (batching amortizes MMIO writes at the price of submission
    /// latency). Neutral = `1` (ring on every command).
    pub doorbell_batch: u32,
    /// Ring a partially filled doorbell batch this long after its oldest
    /// pending submission. Neutral = `None` (wait for a full batch).
    pub doorbell_timeout: Option<SimDuration>,
    /// Deliver the completion interrupt after this many completions
    /// aggregate on a queue. Neutral = `1` (interrupt per completion).
    pub coalesce_threshold: u32,
    /// Deliver a partial completion aggregate this long after its oldest
    /// pending completion. Neutral = `None`.
    pub coalesce_timeout: Option<SimDuration>,
    /// Host page-cache capacity in pages. Neutral = `0` (no cache:
    /// every request goes to the device).
    pub cache_pages: u64,
    /// Write back all dirty pages once the dirty fraction of the cache
    /// capacity exceeds this ratio. Only meaningful with a cache.
    pub dirty_ratio: f64,
    /// Service time of a cache hit (and of the write-back ack): the DRAM
    /// copy the host pays instead of device latency.
    pub cache_hit_ns: u64,
    /// Block-layer split: forward no command larger than this many pages
    /// (large host I/Os become several device commands). Neutral = `0`
    /// (no splitting).
    pub split_pages: u32,
    /// Block-layer merge: coalesce adjacent same-direction, same-tenant
    /// commands of a doorbell batch into one device command. Neutral =
    /// `false`.
    pub merge: bool,
    /// Flush the pages still dirty when the trace ends (adds device
    /// writes after the last arrival). Neutral = `false` — dirty pages
    /// simply stay cached, which keeps short traces comparable.
    pub drain_cache: bool,
}

impl HostConfig {
    /// The identity host stack: no cache, a single queue pair with
    /// unbounded depth, per-command doorbells and interrupts, no block
    /// splitting or merging. Claim C13 pins this configuration
    /// report-fingerprint-identical to the raw device path.
    pub fn passthrough() -> Self {
        HostConfig {
            queues: 1,
            queue_depth: None,
            doorbell_batch: 1,
            doorbell_timeout: None,
            coalesce_threshold: 1,
            coalesce_timeout: None,
            cache_pages: 0,
            dirty_ratio: 1.0,
            cache_hit_ns: 0,
            split_pages: 0,
            merge: false,
            drain_cache: false,
        }
    }

    /// A representative full-path configuration: four queue pairs,
    /// moderate doorbell batching and interrupt coalescing, a write-back
    /// cache with a 50 % dirty threshold, and block-layer split/merge.
    /// Used by the example and as the tests' "everything on" setting.
    pub fn buffered(cache_pages: u64) -> Self {
        HostConfig {
            queues: 4,
            queue_depth: None,
            doorbell_batch: 4,
            doorbell_timeout: Some(SimDuration::from_micros(20)),
            coalesce_threshold: 4,
            coalesce_timeout: Some(SimDuration::from_micros(50)),
            cache_pages,
            dirty_ratio: 0.5,
            cache_hit_ns: 1_000,
            split_pages: 64,
            merge: true,
            drain_cache: false,
        }
    }

    /// Clamp nonsensical values to their neutral settings (zero queues,
    /// zero batch sizes, a dirty ratio outside `[0, 1]`).
    pub fn normalized(mut self) -> Self {
        self.queues = self.queues.max(1);
        self.doorbell_batch = self.doorbell_batch.max(1);
        self.coalesce_threshold = self.coalesce_threshold.max(1);
        self.dirty_ratio = self.dirty_ratio.clamp(0.0, 1.0);
        if let Some(d) = self.queue_depth {
            self.queue_depth = Some(d.max(1));
        }
        self
    }
}

impl Default for HostConfig {
    /// Defaults to the pass-through (identity) stack.
    fn default() -> Self {
        HostConfig::passthrough()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalized_clamps_degenerate_values() {
        let cfg = HostConfig {
            queues: 0,
            doorbell_batch: 0,
            coalesce_threshold: 0,
            dirty_ratio: 7.0,
            queue_depth: Some(0),
            ..HostConfig::passthrough()
        }
        .normalized();
        assert_eq!(cfg.queues, 1);
        assert_eq!(cfg.doorbell_batch, 1);
        assert_eq!(cfg.coalesce_threshold, 1);
        assert_eq!(cfg.dirty_ratio, 1.0);
        assert_eq!(cfg.queue_depth, Some(1));
    }
}
