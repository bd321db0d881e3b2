//! Isolated drivers: a workload's own operation streams replayed against
//! one layer's public functions, with nothing else on the path.
//!
//! Where the decorators in `crate::probes` time a layer *in situ* (its
//! share of a real run), these time it *alone*: the cost of the layer's
//! code on the workload's data, free of the device loop around it. Every
//! driver works from counts or streams the real run produced, so its
//! operation count is checkable against the run's own report.
//!
//! Each driver runs [`PASSES`] times on fresh state and reports the
//! fastest pass — interference on a shared box only ever adds time.

use crate::measure::ratio;
use crate::probes::{decode_step, Captured};
use dloop_repro::ftl_kit::cmt::CachedMappingTable;
use dloop_repro::ftl_kit::config::SsdConfig;
use dloop_repro::ftl_kit::ftl::FlashStep;
use dloop_repro::ftl_kit::request::{HostOp, HostRequest};
use dloop_repro::host::block::{merge_adjacent, split, Command};
use dloop_repro::host::queue::DoorbellQueue;
use dloop_repro::host::{CqState, HostConfig, PageCache};
use dloop_repro::nand::HardwareModel;
use dloop_repro::simkit::{EventQueue, Histogram, OnlineStats, PendingQueue, SimDuration, SimTime};
use std::hint::black_box;
use std::time::Instant;

/// Passes per driver; the fastest is reported.
pub const PASSES: usize = 3;

/// Steady-state depth of the event- and pending-queue drivers (the NCQ
/// window of `qos_ncq`).
pub const QUEUE_DEPTH: usize = 32;

/// Nanoseconds of the fastest of [`PASSES`] calls of `pass`, with
/// whatever the last call returned.
fn fastest<R>(mut pass: impl FnMut() -> (u64, R)) -> (u64, R) {
    let mut best = pass();
    for _ in 1..PASSES {
        let next = pass();
        if next.0 < best.0 {
            best = next;
        }
    }
    best
}

fn per(total: u64, count: u64) -> f64 {
    ratio(total as f64, count as f64)
}

/// What the CMT driver measured.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CmtCost {
    /// Page operations replayed.
    pub ops: u64,
    /// Wall nanoseconds per page operation.
    pub ns_per_op: f64,
    /// Share of lookups that hit.
    pub hit_ratio: f64,
    /// Entries evicted per thousand operations.
    pub evictions_per_kop: f64,
}

/// Replay a page-op stream (`lpn << 1 | is_write`, as `TimedFtl` captures
/// it) through the CMT protocol the demand-paged FTLs follow: a
/// referencing lookup, an insert on a miss, an update on a write. `warm`
/// is made resident first, as device aging leaves it.
pub fn cmt(config: &SsdConfig, warm: std::ops::Range<u64>, ops: &[u64]) -> CmtCost {
    let per_tpage = config.geometry().mappings_per_translation_page();
    let (ns, (hits, evictions)) = fastest(|| {
        let mut table = CachedMappingTable::new(config.cmt_capacity, per_tpage);
        for lpn in warm.clone().take(config.cmt_capacity) {
            table.insert(lpn, lpn, false);
        }
        table.reset_hit_stats();
        let mut evictions = 0u64;
        let start = Instant::now();
        for (i, &word) in ops.iter().enumerate() {
            let lpn = word >> 1;
            if table.lookup(lpn).is_none() {
                evictions += table.insert(lpn, i as u64, false).is_some() as u64;
            }
            if word & 1 == 1 {
                table.update(lpn, i as u64);
            }
        }
        let ns = start.elapsed().as_nanos() as u64;
        (ns, (table.hit_stats().0, evictions))
    });
    let n = ops.len() as u64;
    CmtCost {
        ops: n,
        ns_per_op: per(ns, n),
        hit_ratio: per(hits, n),
        evictions_per_kop: per(evictions * 1000, n),
    }
}

/// Replay a captured flash-step stream through `HardwareModel::exec_*`:
/// the steps of a chain issue back to back, chains start at time zero and
/// queue on the resource timelines. Returns `(steps, ns per step)`.
pub fn hardware(config: &SsdConfig, steps: &[u32]) -> (u64, f64) {
    let geometry = config.geometry();
    let (ns, executed) = fastest(|| {
        let mut hw = HardwareModel::new(&geometry, config.timing.clone(), config.die_serialized);
        let mut at = SimTime::ZERO;
        let mut executed = 0u64;
        let start = Instant::now();
        for &word in steps {
            let step = match decode_step(word) {
                Captured::ChainStart => {
                    at = SimTime::ZERO;
                    continue;
                }
                Captured::Step(step) => step,
            };
            let done = match step {
                FlashStep::Read { plane } => hw.exec_read(plane, at),
                FlashStep::ReadRetry { plane, steps } => hw.exec_read_retry(plane, at, steps),
                FlashStep::Write { plane } => hw.exec_write(plane, at),
                FlashStep::Erase { plane } => hw.exec_erase(plane, at),
                FlashStep::CopyBack { plane } => hw.exec_copyback(plane, at),
                FlashStep::InterPlaneCopy { src, dst } => hw.exec_interplane_copy(src, dst, at),
            };
            at = done.end;
            executed += 1;
        }
        black_box(&hw);
        (start.elapsed().as_nanos() as u64, executed)
    });
    (executed, per(ns, executed))
}

/// Sample counts of a run's latency accumulators.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SampleCounts {
    /// `wait_ms` + `service_ms` + `gc_block_ms` pushes (per page op).
    pub per_op: [u64; 3],
    /// `response_ms` pushes, each paired with a histogram record (per
    /// request).
    pub responses: u64,
}

impl SampleCounts {
    /// Every sample folded: three accumulators per op, and the response
    /// accumulator plus its histogram per request.
    pub fn total(&self) -> u64 {
        self.per_op.iter().sum::<u64>() + 2 * self.responses
    }
}

/// Fold as many samples as the run folded through `OnlineStats::push`
/// and `Histogram::record`. Returns `(samples, ns per sample)`.
pub fn stats(counts: SampleCounts) -> (u64, f64) {
    // Latency-like values spread over the histogram's range; the spread
    // matters because `Histogram::record` takes a logarithm per sample.
    let sample = |i: u64| 0.05 + (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 44) as f64 * 1e-3;
    let (ns, ()) = fastest(|| {
        let mut per_op = [OnlineStats::new(), OnlineStats::new(), OnlineStats::new()];
        let mut response = OnlineStats::new();
        let mut hist = Histogram::new(1.0, 32);
        let start = Instant::now();
        for (acc, &n) in per_op.iter_mut().zip(&counts.per_op) {
            for i in 0..n {
                acc.push(sample(i));
            }
        }
        for i in 0..counts.responses {
            let ms = sample(i);
            response.push(ms);
            hist.record(ms * 1000.0);
        }
        black_box((&per_op, &response, &hist));
        (start.elapsed().as_nanos() as u64, ())
    });
    (counts.total(), per(ns, counts.total()))
}

/// Push and pop `events` wake events through an `EventQueue` held at
/// [`QUEUE_DEPTH`]. Returns ns per event.
pub fn events(events: u64) -> f64 {
    let (ns, ()) = fastest(|| {
        let mut queue: EventQueue<Option<usize>> = EventQueue::with_capacity(QUEUE_DEPTH + 1);
        for i in 0..QUEUE_DEPTH {
            queue.push(SimTime(i as u64 * 97), Some(i));
        }
        let start = Instant::now();
        for i in 0..events {
            let ev = queue.pop().expect("queue held at depth");
            // Wakes land a pseudo-random distance ahead, as release times do.
            let ahead = 1 + (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 52);
            queue.push(SimTime(ev.at.as_nanos() + ahead), ev.event);
        }
        black_box(&queue);
        (start.elapsed().as_nanos() as u64, ())
    });
    per(ns, events)
}

/// Enqueue, locate and remove `ops` entries in a `PendingQueue` held at
/// [`QUEUE_DEPTH`], the way the queued scheduler does: push at the back,
/// read the window horizon, binary-search a sequence number inside the
/// window, remove it. Returns ns per op.
pub fn pending(ops: u64) -> f64 {
    let (ns, ()) = fastest(|| {
        let mut queue: PendingQueue<u64> = PendingQueue::with_capacity(QUEUE_DEPTH + 1);
        for seq in 0..QUEUE_DEPTH as u64 {
            queue.push_back(seq);
        }
        let start = Instant::now();
        for i in 0..ops {
            queue.push_back(QUEUE_DEPTH as u64 + i);
            let horizon = *queue.get(QUEUE_DEPTH - 1).expect("window within queue");
            // The issued op is somewhere inside the window, not always
            // at its head.
            let pick = (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 59) as usize % QUEUE_DEPTH;
            let seq = *queue.get(pick).expect("pick within window");
            debug_assert!(seq <= horizon);
            let idx = queue
                .binary_search_by_key(&seq, |&s| s)
                .expect("picked op is pending");
            black_box(queue.remove_at(idx));
        }
        (start.elapsed().as_nanos() as u64, ())
    });
    per(ns, ops)
}

/// What the host-stage drivers measured.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HostCost {
    /// Page-cache ns per page touched.
    pub cache_ns_per_page: f64,
    /// Block-layer split + merge ns per staged command.
    pub block_ns_per_cmd: f64,
    /// Doorbell + completion-queue ns per command.
    pub queue_ns_per_cmd: f64,
}

/// Replay the host trace through each host stage on its own: every page
/// through the write-back cache, every request through block split and
/// per-batch merge, every command through a doorbell queue and a
/// completion coalescer.
pub fn host(config: &HostConfig, requests: &[HostRequest]) -> HostCost {
    let pages: u64 = requests.iter().map(|r| r.pages as u64).sum();
    let (cache_ns, ()) = fastest(|| {
        let mut cache = PageCache::new(config.cache_pages, config.dirty_ratio);
        let mut writebacks = Vec::new();
        let start = Instant::now();
        for r in requests {
            writebacks.clear();
            match r.op {
                HostOp::Write => {
                    for lpn in r.page_ops() {
                        cache.write(lpn, r.tenant, &mut writebacks);
                    }
                    cache.maybe_flush(&mut writebacks);
                }
                HostOp::Read => {
                    for lpn in r.page_ops() {
                        black_box(cache.read(lpn, r.tenant, &mut writebacks));
                    }
                }
            }
        }
        black_box(&cache);
        (start.elapsed().as_nanos() as u64, ())
    });

    let batch = config.doorbell_batch.max(1) as usize;
    let (block_ns, staged) = fastest(|| {
        let mut staged = 0u64;
        let mut chunks: Vec<Command> = Vec::new();
        let start = Instant::now();
        for group in requests.chunks(batch) {
            chunks.clear();
            for (i, r) in group.iter().enumerate() {
                split(
                    Command::for_host(*r, i as u32),
                    config.split_pages,
                    &mut chunks,
                );
            }
            staged += chunks.len() as u64;
            if config.merge {
                black_box(merge_adjacent(&mut chunks));
            }
        }
        (start.elapsed().as_nanos() as u64, staged)
    });

    let (queue_ns, ()) = fastest(|| {
        let mut bell = DoorbellQueue::new(config.doorbell_batch, config.doorbell_timeout);
        let mut cq = CqState::new(config.coalesce_threshold, config.coalesce_timeout);
        let mut rings = Vec::new();
        let mut delivered = Vec::new();
        let start = Instant::now();
        for (id, r) in requests.iter().enumerate() {
            rings.clear();
            bell.push(r.arrival, id as u64, &mut rings);
            for ring in &rings {
                for &cmd in &ring.commands {
                    delivered.clear();
                    // A nominal device time; the coalescer only needs
                    // completions in nondecreasing order.
                    let done = ring.at + SimDuration::from_micros(200);
                    if let Some((at, epoch)) = cq.push(done, cmd, &mut delivered) {
                        black_box((at, epoch));
                    }
                }
            }
        }
        rings.clear();
        bell.flush(&mut rings);
        delivered.clear();
        cq.flush(&mut delivered);
        black_box((&rings, &delivered));
        (start.elapsed().as_nanos() as u64, ())
    });

    HostCost {
        cache_ns_per_page: per(cache_ns, pages),
        block_ns_per_cmd: per(block_ns, staged),
        queue_ns_per_cmd: per(queue_ns, requests.len() as u64),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cmt_driver_counts_hits_and_evictions() {
        let config = SsdConfig {
            cmt_capacity: 2,
            ..SsdConfig::micro_gc_test()
        };
        // write 1, write 2, read 1 (hit), read 3 (miss, evicts), read 1 (hit)
        let ops = [1 << 1 | 1, 2 << 1 | 1, 1 << 1, 3 << 1, 1 << 1];
        let cost = cmt(&config, 0..0, &ops);
        assert_eq!(cost.ops, 5);
        assert!((cost.hit_ratio - 2.0 / 5.0).abs() < 1e-12);
        assert!((cost.evictions_per_kop - 200.0).abs() < 1e-9);
        // A warmed table turns the first touches into hits.
        let warmed = cmt(&config, 1..3, &ops[..2]);
        assert!((warmed.hit_ratio - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sample_counts_total_what_the_driver_folds() {
        let counts = SampleCounts {
            per_op: [10, 10, 4],
            responses: 7,
        };
        let (samples, ns) = stats(counts);
        assert_eq!(samples, 38);
        assert!(ns > 0.0);
        assert_eq!(stats(SampleCounts::default()), (0, 0.0));
    }

    #[test]
    fn queue_drivers_hold_their_depth() {
        assert!(events(1_000) > 0.0);
        assert!(pending(1_000) > 0.0);
        assert_eq!(events(0), 0.0);
    }
}
