//! Write-back host page cache with deterministic LRU eviction.
//!
//! The cache is a pure function of the request stream, so eviction order,
//! write-back order and every statistic are identical across reruns — the
//! determinism rule the host-stack chapter of DESIGN.md pins down. Nothing
//! keyed by a hash is ever iterated: the index only answers "which record
//! holds this page", and every ordered walk follows the recency list.
//!
//! # Representation
//!
//! * **Nodes** — one record per resident page (LPN, recency [`Link`],
//!   dirty flag, tenant) in a `Vec` indexed by `u32`. Records are only
//!   ever freed to make room for the page being inserted, so the victim's
//!   record is reused in place and no free list is needed; the `Vec`
//!   grows by push until the cache is full.
//! * **Recency** — one [`List`], MRU at the front, LRU at the back. A hit
//!   or a rewrite moves its node to the front, eviction takes the back,
//!   and a flush walks back to front.
//! * **Index** — a [`SlotIndex`] from LPN to node. It starts at a few
//!   slots and doubles when it would pass half full, so building a cache
//!   touches nothing proportional to its capacity.
//!
//! The list and the index are the [`slots`](dloop_simkit::slots) kit the
//! FTL's cached mapping table is built on too.
//!
//! State machine per page: *absent* → (`read` miss) → *clean* → (`write`)
//! → *dirty* → (dirty-ratio flush / drain) → *clean* → (LRU eviction) →
//! *absent*. Evicting a dirty page emits a write-back; evicting a clean
//! page is free.

use dloop_ftl_kit::request::TenantId;
use dloop_simkit::slots::{Link, List, SlotIndex, MAX_ENTRIES};

/// A page the cache decided to write back, tagged with the tenant that
/// last dirtied it (so device-side QoS accounting still sees the right
/// stream).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Writeback {
    /// Logical page to write.
    pub lpn: u64,
    /// Stream that last wrote the page.
    pub tenant: TenantId,
}

/// Counters the cache accumulates over a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Read page lookups served from the cache.
    pub read_hits: u64,
    /// Read page lookups that went to the device.
    pub read_misses: u64,
    /// Write pages absorbed by the write-back cache.
    pub writes_absorbed: u64,
    /// Pages written back because the dirty ratio tripped.
    pub flushed: u64,
    /// Dirty pages written back because LRU eviction pushed them out.
    pub evicted_dirty: u64,
    /// Clean pages silently evicted.
    pub evicted_clean: u64,
    /// Pages written back by the end-of-trace drain.
    pub drained: u64,
}

#[derive(Debug, Clone, Copy)]
struct Node {
    lpn: u64,
    lru: Link,
    tenant: TenantId,
    dirty: bool,
}

/// The write-back page cache. `capacity == 0` disables it entirely (every
/// operation misses and nothing is retained).
#[derive(Debug)]
pub struct PageCache {
    capacity: u64,
    dirty_ratio: f64,
    nodes: Vec<Node>,
    index: SlotIndex,
    recency: List,
    dirty: u64,
    /// Run counters, readable at any time.
    pub stats: CacheStats,
}

impl PageCache {
    /// A cache of `capacity` pages flushing once the dirty fraction
    /// exceeds `dirty_ratio`. Node indices are 32-bit: a larger capacity
    /// is clamped to the most pages the cache can index.
    pub fn new(capacity: u64, dirty_ratio: f64) -> Self {
        PageCache {
            capacity: capacity.min(MAX_ENTRIES as u64),
            dirty_ratio: dirty_ratio.clamp(0.0, 1.0),
            nodes: Vec::new(),
            index: SlotIndex::with_capacity(8),
            recency: List::default(),
            dirty: 0,
            stats: CacheStats::default(),
        }
    }

    /// Whether the cache retains anything at all.
    pub fn enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Resident pages.
    pub fn len(&self) -> u64 {
        self.nodes.len() as u64
    }

    /// Whether nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Resident dirty pages.
    pub fn dirty_pages(&self) -> u64 {
        self.dirty
    }

    fn find(&self, lpn: u64) -> Option<u32> {
        let nodes = &self.nodes;
        self.index.find(lpn, |idx| nodes[idx as usize].lpn)
    }

    /// Move node `idx` to the MRU end.
    fn touch(&mut self, idx: u32) {
        self.recency.unlink(&mut self.nodes, idx, |n| &mut n.lru);
        self.recency
            .push_front(&mut self.nodes, idx, |n| &mut n.lru);
    }

    /// Install the absent page `lpn` as the MRU page. When the cache is
    /// full it takes the LRU page's record; a dirty victim is written back
    /// to `out`.
    fn insert(&mut self, lpn: u64, dirty: bool, tenant: TenantId, out: &mut Vec<Writeback>) {
        let node = Node {
            lpn,
            lru: Link::default(),
            tenant,
            dirty,
        };
        let idx = if self.len() < self.capacity {
            self.nodes.push(node);
            (self.nodes.len() - 1) as u32
        } else {
            // The page about to become MRU never is the victim, so
            // evicting first picks the page an insert-then-evict would.
            let victim = self.recency.back().expect("a full cache has an LRU page");
            self.recency.unlink(&mut self.nodes, victim, |n| &mut n.lru);
            let nodes = &self.nodes;
            self.index
                .remove(nodes[victim as usize].lpn, |i| nodes[i as usize].lpn);
            let old = std::mem::replace(&mut self.nodes[victim as usize], node);
            if old.dirty {
                self.dirty -= 1;
                self.stats.evicted_dirty += 1;
                out.push(Writeback {
                    lpn: old.lpn,
                    tenant: old.tenant,
                });
            } else {
                self.stats.evicted_clean += 1;
            }
            victim
        };
        let nodes = &self.nodes;
        self.index.insert(lpn, idx, |i| nodes[i as usize].lpn);
        self.recency
            .push_front(&mut self.nodes, idx, |n| &mut n.lru);
        self.dirty += dirty as u64;
    }

    /// Absorb one written page (write-back: the device sees nothing until
    /// a flush, eviction or drain pushes the page out). Any write-backs
    /// the insertion forces are appended to `out`.
    pub fn write(&mut self, lpn: u64, tenant: TenantId, out: &mut Vec<Writeback>) {
        if !self.enabled() {
            return;
        }
        self.stats.writes_absorbed += 1;
        if let Some(idx) = self.find(lpn) {
            // A rewrite: the page stays, now dirty and owned by `tenant`.
            let node = &mut self.nodes[idx as usize];
            self.dirty += !std::mem::replace(&mut node.dirty, true) as u64;
            node.tenant = tenant;
            self.touch(idx);
        } else {
            self.insert(lpn, true, tenant, out);
        }
    }

    /// Look up one read page: `true` is a hit (recency refreshed),
    /// `false` a miss — the page is installed clean (read-allocate) and
    /// the caller forwards the read to the device. Evictions forced by
    /// the fill are appended to `out`.
    pub fn read(&mut self, lpn: u64, tenant: TenantId, out: &mut Vec<Writeback>) -> bool {
        if !self.enabled() {
            return false;
        }
        if let Some(idx) = self.find(lpn) {
            self.stats.read_hits += 1;
            self.touch(idx);
            true
        } else {
            self.stats.read_misses += 1;
            self.insert(lpn, false, tenant, out);
            false
        }
    }

    /// Write back *all* dirty pages (oldest first) if the dirty fraction
    /// exceeded the configured ratio. The pages stay resident, now clean.
    pub fn maybe_flush(&mut self, out: &mut Vec<Writeback>) {
        if !self.enabled() || (self.dirty as f64) <= self.dirty_ratio * self.capacity as f64 {
            return;
        }
        self.flush_dirty(out, false);
    }

    /// Write back every dirty page unconditionally (end-of-trace drain).
    pub fn drain(&mut self, out: &mut Vec<Writeback>) {
        self.flush_dirty(out, true);
    }

    fn flush_dirty(&mut self, out: &mut Vec<Writeback>, draining: bool) {
        // LRU → MRU: the write-back stream is oldest-dirty-first. Cleaning
        // is order-free, so it sweeps the records in place.
        for idx in self.recency.iter_back(&self.nodes, |n| &n.lru) {
            let Node {
                lpn, tenant, dirty, ..
            } = self.nodes[idx as usize];
            if dirty {
                out.push(Writeback { lpn, tenant });
            }
        }
        self.nodes.iter_mut().for_each(|n| n.dirty = false);
        let flushed = std::mem::replace(&mut self.dirty, 0);
        if draining {
            self.stats.drained += flushed;
        } else {
            self.stats.flushed += flushed;
        }
    }

    /// Audit: the recency list and the index each hold every record once,
    /// and the dirty count matches the records.
    pub fn check(&self) -> Result<(), String> {
        self.recency.check(&self.nodes, |n| &n.lru)?;
        self.index.check(|idx| self.nodes[idx as usize].lpn)?;
        let records = self.nodes.len();
        let dirty = self.nodes.iter().filter(|n| n.dirty).count();
        let counts = (self.recency.len(), self.index.len(), self.dirty as usize);
        if counts != (records, records, dirty) {
            return Err(format!(
                "{records} records ({dirty} dirty): (listed, indexed, dirty) {counts:?}"
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_cache_misses_everything() {
        let mut c = PageCache::new(0, 0.5);
        let mut out = Vec::new();
        assert!(!c.read(7, 1, &mut out));
        c.write(7, 1, &mut out);
        assert!(!c.read(7, 1, &mut out));
        assert!(out.is_empty());
        assert_eq!(c.len(), 0);
        assert_eq!(c.stats.writes_absorbed, 0);
    }

    #[test]
    fn read_allocates_then_hits() {
        let mut c = PageCache::new(4, 1.0);
        let mut out = Vec::new();
        assert!(!c.read(3, 1, &mut out));
        assert!(c.read(3, 1, &mut out));
        assert_eq!((c.stats.read_hits, c.stats.read_misses), (1, 1));
        assert!(out.is_empty());
    }

    #[test]
    fn lru_evicts_oldest_and_writes_back_dirty_victims() {
        let mut c = PageCache::new(2, 1.0);
        let mut out = Vec::new();
        c.write(1, 9, &mut out); // dirty
        assert!(!c.read(2, 1, &mut out)); // clean fill
        assert!(!c.read(3, 1, &mut out)); // evicts page 1 (oldest, dirty)
        assert_eq!(out, vec![Writeback { lpn: 1, tenant: 9 }]);
        assert!(!c.read(4, 1, &mut out)); // evicts page 2 (clean): no writeback
        assert_eq!(out.len(), 1);
        assert_eq!(c.stats.evicted_dirty, 1);
        assert_eq!(c.stats.evicted_clean, 1);
    }

    #[test]
    fn touch_order_protects_recently_used_pages() {
        let mut c = PageCache::new(2, 1.0);
        let mut out = Vec::new();
        c.write(1, 1, &mut out);
        c.write(2, 1, &mut out);
        assert!(c.read(1, 1, &mut out)); // refresh page 1
        c.write(3, 1, &mut out); // must evict page 2, not 1
        assert_eq!(out, vec![Writeback { lpn: 2, tenant: 1 }]);
        assert!(c.read(1, 1, &mut out));
    }

    #[test]
    fn dirty_ratio_flushes_all_dirty_oldest_first() {
        let mut c = PageCache::new(10, 0.25);
        let mut out = Vec::new();
        c.write(5, 2, &mut out);
        c.write(4, 2, &mut out);
        c.maybe_flush(&mut out);
        assert!(out.is_empty(), "2/10 dirty is below 0.25");
        c.write(3, 2, &mut out);
        c.maybe_flush(&mut out); // 3/10 > 0.25: flush everything
        assert_eq!(
            out.iter().map(|w| w.lpn).collect::<Vec<_>>(),
            vec![5, 4, 3],
            "oldest dirty first"
        );
        assert_eq!(c.dirty_pages(), 0);
        assert_eq!(c.len(), 3, "flushed pages stay resident");
        assert_eq!(c.stats.flushed, 3);
        // Re-flushing is a no-op: the pages are clean now.
        out.clear();
        c.maybe_flush(&mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn rewrite_of_resident_page_keeps_one_dirty_copy() {
        let mut c = PageCache::new(4, 1.0);
        let mut out = Vec::new();
        c.write(1, 1, &mut out);
        c.write(1, 2, &mut out); // rewrite, new tenant owns the page
        assert_eq!(c.dirty_pages(), 1);
        c.drain(&mut out);
        assert_eq!(out, vec![Writeback { lpn: 1, tenant: 2 }]);
        assert_eq!(c.stats.drained, 1);
    }

    #[test]
    fn determinism_across_reruns() {
        let run = || {
            let mut c = PageCache::new(8, 0.4);
            let mut out = Vec::new();
            for i in 0..200u64 {
                let lpn = (i * 37) % 23;
                if i % 3 == 0 {
                    c.read(lpn, (i % 4) as TenantId, &mut out);
                } else {
                    c.write(lpn, (i % 4) as TenantId, &mut out);
                }
                c.maybe_flush(&mut out);
            }
            c.drain(&mut out);
            (out, c.stats)
        };
        assert_eq!(run(), run());
    }
}
