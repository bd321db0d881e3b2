//! The Cached Mapping Table: a segmented-LRU cache of LPN → PPN entries.
//!
//! Both DLOOP and DFTL keep the working set of the page-mapping table in a
//! small SRAM cache and leave the full table on flash (§III.D: "When the
//! CMT is full, a victim entry will be selected using the segmented least
//! recently used (LRU) algorithm"). Segmented LRU splits the cache into a
//! *probationary* and a *protected* segment: new entries enter probation;
//! a hit promotes an entry to protected; protected overflow demotes its LRU
//! back to probation; eviction takes the probation LRU first. This guards
//! the hot mappings against scan pollution — exactly why the paper picks
//! it for enterprise workloads.
//!
//! Dirty entries (mappings changed since they were loaded) must be written
//! back to their translation page on eviction; the CMT keeps a per-
//! translation-page dirty list so the FTL can batch-flush all dirty
//! siblings of the victim with one translation-page rewrite (the classic
//! DFTL "batch update" optimisation).
//!
//! # Representation
//!
//! Everything lives in flat vectors built from the
//! [`slots`](dloop_simkit::slots) kit; no operation hashes with SipHash,
//! chases a second table or allocates.
//!
//! * **Nodes** — one 40-byte record per cached entry (LPN, PPN, a recency
//!   [`Link`], a dirty-list [`Link`], dirty flag, segment), in a `Vec`
//!   indexed by `u32`. A record is only ever freed to make room for the
//!   entry being inserted, so the victim's record is reused in place; the
//!   `Vec` grows by push until the table is full.
//! * **Index** — a [`SlotIndex`] from LPN to node, sized up front to a
//!   power of two ≥ 2 × capacity slots, so it is never more than half
//!   full and never grows.
//! * **Recency** — one [`List`] per segment, MRU at the front.
//! * **Dirty lists** — the dirty entries of one translation page form a
//!   [`List`] through the nodes' second link, with one list per
//!   translation page in a `Vec` that grows to the highest translation
//!   page ever dirtied (8 Ki lists on a 4 GB device). The list is
//!   intrusive because a clean→dirty transition is the most frequent
//!   mutation (every first overwrite and most GC moves): linking a node
//!   the caller already holds costs two stores, where a keyed set per
//!   translation page costs a second lookup and an allocation.
//!
//! Per entry this is 40 B of node plus 8 B of index (≈ 48 B, so the
//! paper's 4096-entry table is ≈ 192 KiB), down from ≈ 80 B with the
//! former `HashMap` index (32 B node, two 17-byte buckets of a half-full
//! hash table, and a `BTreeSet` slot per dirty entry). A table with room
//! for every LPN is never built: [`DemandMap`](crate::demand::DemandMap)
//! serves that resident regime from its own map and a one-bit-per-LPN
//! loaded set (0.125 B per entry), since a cache that never evicts never
//! reads its recency or dirty state.

use dloop_nand::{Lpn, Ppn};
use dloop_simkit::slots::{Link, List, SlotIndex, MAX_ENTRIES};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Segment {
    Probation,
    Protected,
}

#[derive(Debug, Clone)]
struct Node {
    lpn: Lpn,
    ppn: Ppn,
    /// On its segment's recency list.
    lru: Link,
    /// On its translation page's dirty list, while dirty.
    dirty_link: Link,
    dirty: bool,
    seg: Segment,
}

/// An entry evicted from the CMT.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted {
    /// The logical page whose mapping fell out.
    pub lpn: Lpn,
    /// Its physical page at eviction time.
    pub ppn: Ppn,
    /// Whether the mapping changed while cached (needs write-back).
    pub dirty: bool,
}

/// Segmented-LRU cached mapping table.
///
/// ```
/// use dloop_ftl_kit::cmt::CachedMappingTable;
///
/// let mut cmt = CachedMappingTable::new(2, 256);
/// cmt.insert(1, 100, false);
/// cmt.insert(2, 200, false);
/// assert_eq!(cmt.lookup(1), Some(100)); // promoted to protected
/// // Inserting a third entry evicts the probation LRU (lpn 2).
/// let evicted = cmt.insert(3, 300, false).unwrap();
/// assert_eq!(evicted.lpn, 2);
/// ```
#[derive(Debug, Clone)]
pub struct CachedMappingTable {
    nodes: Vec<Node>,
    /// LPN → node index.
    index: SlotIndex,
    /// The recency lists, indexed by [`Segment`].
    segments: [List; 2],
    capacity: usize,
    protected_cap: usize,
    mappings_per_tpage: u64,
    /// Each translation page's dirty list, indexed by tvpn.
    dirty_lists: Vec<List>,
    hits: u64,
    misses: u64,
}

impl CachedMappingTable {
    /// A CMT holding at most `capacity` entries, of which at most
    /// `capacity/2` sit in the protected segment; `mappings_per_tpage`
    /// groups entries by translation page for batched write-back.
    pub fn new(capacity: usize, mappings_per_tpage: u64) -> Self {
        assert!(capacity >= 2, "CMT needs at least two entries");
        assert!(capacity <= MAX_ENTRIES, "CMT node indices are 32-bit");
        assert!(mappings_per_tpage > 0);
        CachedMappingTable {
            nodes: Vec::with_capacity(capacity),
            index: SlotIndex::with_capacity(capacity),
            segments: [List::default(); 2],
            capacity,
            protected_cap: capacity / 2,
            mappings_per_tpage,
            dirty_lists: Vec::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// The translation page number covering `lpn`.
    pub fn tvpn_of(&self, lpn: Lpn) -> u64 {
        lpn / self.mappings_per_tpage
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// (hits, misses) counters — `lookup` classifies, `peek` does not.
    pub fn hit_stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Zero the hit/miss counters (a measurement window starts).
    pub fn reset_hit_stats(&mut self) {
        self.hits = 0;
        self.misses = 0;
    }

    /// Every cached entry as `(lpn, ppn, dirty)` in **eviction order**: the
    /// probation segment from its LRU to its MRU, then the protected
    /// segment likewise. The order is a function of the operations applied
    /// and nothing else, so two tables fed the same operations yield the
    /// same sequence.
    pub fn iter_entries(&self) -> impl Iterator<Item = (Lpn, Ppn, bool)> + '_ {
        let nodes = &self.nodes;
        self.segments
            .iter()
            .flat_map(move |list| list.iter_back(nodes, |n| &n.lru))
            .map(move |idx| {
                let n = &nodes[idx as usize];
                (n.lpn, n.ppn, n.dirty)
            })
    }

    fn find(&self, lpn: Lpn) -> Option<u32> {
        let nodes = &self.nodes;
        self.index.find(lpn, |idx| nodes[idx as usize].lpn)
    }

    /// Move node `idx` to the MRU end of segment `to`.
    fn move_to_front(&mut self, idx: u32, to: Segment) {
        let from = std::mem::replace(&mut self.nodes[idx as usize].seg, to);
        self.segments[from as usize].unlink(&mut self.nodes, idx, |n| &mut n.lru);
        self.segments[to as usize].push_front(&mut self.nodes, idx, |n| &mut n.lru);
    }

    /// Set the dirty flag and link the node at the front of its translation
    /// page's dirty list; no-op on an already dirty node.
    fn mark_dirty(&mut self, idx: u32) {
        let node = &mut self.nodes[idx as usize];
        if std::mem::replace(&mut node.dirty, true) {
            return;
        }
        let tvpn = usize::try_from(node.lpn / self.mappings_per_tpage)
            .expect("tvpn exceeds the address space");
        if tvpn >= self.dirty_lists.len() {
            self.dirty_lists.resize(tvpn + 1, List::default());
        }
        self.dirty_lists[tvpn].push_front(&mut self.nodes, idx, |n| &mut n.dirty_link);
    }

    /// Clear the dirty flag and unlink the node from its dirty list; no-op
    /// on a clean node.
    fn mark_clean(&mut self, idx: u32) {
        let node = &mut self.nodes[idx as usize];
        if !std::mem::replace(&mut node.dirty, false) {
            return;
        }
        let tvpn = (node.lpn / self.mappings_per_tpage) as usize;
        self.dirty_lists[tvpn].unlink(&mut self.nodes, idx, |n| &mut n.dirty_link);
    }

    /// Empty translation page `tvpn`'s dirty list, clearing each node's
    /// flag after showing it to `visit`.
    fn drain_dirty(&mut self, tvpn: u64, mut visit: impl FnMut(Lpn, Ppn)) {
        let Some(list) = usize::try_from(tvpn)
            .ok()
            .and_then(|t| self.dirty_lists.get_mut(t))
        else {
            return;
        };
        while let Some(idx) = list.back() {
            list.unlink(&mut self.nodes, idx, |n| &mut n.dirty_link);
            let node = &mut self.nodes[idx as usize];
            debug_assert!(node.dirty);
            node.dirty = false;
            visit(node.lpn, node.ppn);
        }
    }

    /// A referencing lookup: on hit, promote to the protected segment and
    /// return the mapping. Counts toward hit/miss statistics.
    pub fn lookup(&mut self, lpn: Lpn) -> Option<Ppn> {
        let Some(idx) = self.find(lpn) else {
            self.misses += 1;
            return None;
        };
        self.hits += 1;
        self.promote(idx);
        Some(self.nodes[idx as usize].ppn)
    }

    fn promote(&mut self, idx: u32) {
        self.move_to_front(idx, Segment::Protected);
        // Protected overflow demotes its LRU into probation.
        let protected = &self.segments[Segment::Protected as usize];
        if protected.len() > self.protected_cap {
            let demote = protected.back().expect("protected overflow");
            self.move_to_front(demote, Segment::Probation);
        }
    }

    /// Non-referencing read of a cached mapping (no promotion, no stats).
    pub fn peek(&self, lpn: Lpn) -> Option<(Ppn, bool)> {
        self.find(lpn).map(|idx| {
            let n = &self.nodes[idx as usize];
            (n.ppn, n.dirty)
        })
    }

    /// Update the mapping of an LPN that is already cached (a write hit):
    /// the entry gets the new PPN, becomes dirty, and is promoted.
    ///
    /// Panics if the LPN is not cached — callers must `lookup` first.
    pub fn update(&mut self, lpn: Lpn, new_ppn: Ppn) {
        let idx = self.find(lpn).expect("update of uncached mapping");
        self.nodes[idx as usize].ppn = new_ppn;
        self.mark_dirty(idx);
        self.promote(idx);
    }

    /// Update the mapping of a cached LPN *without* promoting it — used by
    /// GC when it relocates a page: the mapping changes but the host did
    /// not reference it, so its recency must not improve.
    ///
    /// No-op if the LPN is not cached (GC moves uncached pages too).
    pub fn update_in_place(&mut self, lpn: Lpn, new_ppn: Ppn) -> bool {
        let Some(idx) = self.find(lpn) else {
            return false;
        };
        self.nodes[idx as usize].ppn = new_ppn;
        self.mark_dirty(idx);
        true
    }

    /// Insert a mapping that is not currently cached. Returns the entry
    /// evicted to make room, if any.
    ///
    /// Panics if the LPN is already cached.
    pub fn insert(&mut self, lpn: Lpn, ppn: Ppn, dirty: bool) -> Option<Evicted> {
        assert!(
            self.find(lpn).is_none(),
            "insert of already-cached lpn {lpn}"
        );
        let node = Node {
            lpn,
            ppn,
            lru: Link::default(),
            dirty_link: Link::default(),
            dirty: false,
            seg: Segment::Probation,
        };
        let (idx, evicted) = if self.nodes.len() < self.capacity {
            self.nodes.push(node);
            ((self.nodes.len() - 1) as u32, None)
        } else {
            let (victim, evicted) = self.evict_one();
            self.nodes[victim as usize] = node;
            (victim, Some(evicted))
        };
        // Indexed after the eviction: closing the victim's gap may have
        // moved the end of this LPN's run.
        let nodes = &self.nodes;
        self.index.insert(lpn, idx, |i| nodes[i as usize].lpn);
        self.segments[Segment::Probation as usize].push_front(&mut self.nodes, idx, |n| &mut n.lru);
        if dirty {
            self.mark_dirty(idx);
        }
        evicted
    }

    /// Take the victim — the probation LRU, or the protected LRU if
    /// probation is empty (possible after heavy promotion) — off its lists
    /// and out of the index. Its record is returned for reuse.
    fn evict_one(&mut self) -> (u32, Evicted) {
        let seg = if self.segments[Segment::Probation as usize].is_empty() {
            Segment::Protected
        } else {
            Segment::Probation
        };
        let list = &mut self.segments[seg as usize];
        let victim = list.back().expect("evict from empty cache");
        list.unlink(&mut self.nodes, victim, |n| &mut n.lru);
        let node = &self.nodes[victim as usize];
        let evicted = Evicted {
            lpn: node.lpn,
            ppn: node.ppn,
            dirty: node.dirty,
        };
        self.mark_clean(victim);
        let nodes = &self.nodes;
        let found = self.index.remove(evicted.lpn, |i| nodes[i as usize].lpn);
        debug_assert_eq!(found, Some(victim), "index desync");
        (victim, evicted)
    }

    /// Drain and clean every *dirty* cached mapping belonging to
    /// translation page `tvpn`, returning (lpn, ppn) pairs in ascending
    /// LPN order. The entries stay cached but are no longer dirty — the
    /// caller is about to write them all into the translation page in one
    /// batch.
    pub fn flush_translation_page(&mut self, tvpn: u64) -> Vec<(Lpn, Ppn)> {
        let mut out = Vec::new();
        self.drain_dirty(tvpn, |lpn, ppn| out.push((lpn, ppn)));
        out.sort_unstable();
        out
    }

    /// [`CachedMappingTable::flush_translation_page`] for a caller that
    /// does not need the pairs: cleans the same entries, allocates nothing.
    pub fn clean_translation_page(&mut self, tvpn: u64) {
        self.drain_dirty(tvpn, |_, _| {});
    }

    /// The translation pages that have dirty entries, ascending — used
    /// when shutting down a run to account for outstanding state (and in
    /// audits).
    pub fn dirty_tvpns(&self) -> Vec<u64> {
        self.dirty_lists
            .iter()
            .enumerate()
            .filter(|(_, list)| !list.is_empty())
            .map(|(tvpn, _)| tvpn as u64)
            .collect()
    }

    /// Audit internal consistency: recency lists ↔ index ↔ dirty lists.
    pub fn check(&self) -> Result<(), String> {
        for seg in [Segment::Probation, Segment::Protected] {
            let list = &self.segments[seg as usize];
            list.check(&self.nodes, |n| &n.lru)?;
            let mut nodes = list
                .iter_back(&self.nodes, |n| &n.lru)
                .map(|i| &self.nodes[i as usize]);
            if nodes.any(|n| n.seg != seg) {
                return Err(format!("{seg:?} list holds a node of the other segment"));
            }
        }
        // Every index entry is reachable by its key, so with one entry
        // and one list place per node each node is found at its LPN.
        self.index.check(|idx| self.nodes[idx as usize].lpn)?;
        let listed: usize = self.segments.iter().map(List::len).sum();
        let counts = (listed, self.index.len(), self.len() <= self.capacity);
        if counts != (self.len(), self.len(), true) {
            return Err(format!(
                "{} nodes: (listed, indexed, fit) {counts:?}",
                self.len()
            ));
        }
        // Every listed node is dirty and on its own translation page's
        // list; together with the count, every dirty node is listed.
        for (tvpn, list) in (0..).zip(&self.dirty_lists) {
            list.check(&self.nodes, |n| &n.dirty_link)?;
            let mut nodes = list
                .iter_back(&self.nodes, |n| &n.dirty_link)
                .map(|i| &self.nodes[i as usize]);
            if let Some(n) = nodes.find(|n| !n.dirty || self.tvpn_of(n.lpn) != tvpn) {
                return Err(format!(
                    "lpn {} (dirty {}) on dirty list {tvpn}",
                    n.lpn, n.dirty
                ));
            }
        }
        let listed: usize = self.dirty_lists.iter().map(List::len).sum();
        let dirty = self.nodes.iter().filter(|n| n.dirty).count();
        if listed != dirty {
            return Err(format!("{dirty} dirty nodes, {listed} on dirty lists"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cmt(cap: usize) -> CachedMappingTable {
        CachedMappingTable::new(cap, 256)
    }

    #[test]
    fn insert_lookup_round_trip() {
        let mut c = cmt(4);
        assert_eq!(c.insert(10, 100, false), None);
        assert_eq!(c.lookup(10), Some(100));
        assert_eq!(c.lookup(11), None);
        assert_eq!(c.hit_stats(), (1, 1));
        c.check().unwrap();
    }

    #[test]
    fn eviction_takes_probation_lru() {
        let mut c = cmt(3);
        c.insert(1, 11, false);
        c.insert(2, 22, false);
        c.insert(3, 33, false);
        // Hit 1 so it is protected; inserting 4 must evict 2 (probation LRU).
        c.lookup(1);
        let ev = c.insert(4, 44, false).unwrap();
        assert_eq!(ev.lpn, 2);
        assert_eq!(c.len(), 3);
        c.check().unwrap();
    }

    #[test]
    fn protected_overflow_demotes() {
        let mut c = cmt(4); // protected cap = 2
        for lpn in 0..4 {
            c.insert(lpn, lpn * 10, false);
        }
        // Promote three entries; the first promoted gets demoted back.
        c.lookup(0);
        c.lookup(1);
        c.lookup(2);
        c.check().unwrap();
        // Eviction order should now prefer probation (3, then demoted 0).
        let ev = c.insert(9, 90, false).unwrap();
        assert_eq!(ev.lpn, 3);
        let ev = c.insert(10, 100, false).unwrap();
        assert_eq!(ev.lpn, 0);
        c.check().unwrap();
    }

    #[test]
    fn update_sets_dirty_and_new_ppn() {
        let mut c = cmt(4);
        c.insert(5, 50, false);
        c.update(5, 51);
        assert_eq!(c.peek(5), Some((51, true)));
        assert_eq!(c.dirty_tvpns(), vec![0]);
        c.check().unwrap();
    }

    #[test]
    fn dirty_eviction_reports_dirty() {
        let mut c = cmt(2);
        c.insert(1, 10, true);
        c.insert(2, 20, false);
        let ev = c.insert(3, 30, false).unwrap();
        assert!(ev.dirty);
        assert_eq!(ev.lpn, 1);
        // Its dirty-index entry is gone.
        assert!(c.dirty_tvpns().is_empty());
        c.check().unwrap();
    }

    #[test]
    fn flush_translation_page_batches_siblings() {
        let mut c = cmt(8);
        // LPNs 0,1,2 share tvpn 0 (256 mappings per page); 300 is tvpn 1.
        c.insert(0, 100, true);
        c.insert(1, 101, true);
        c.insert(2, 102, false);
        c.insert(300, 103, true);
        let flushed = c.flush_translation_page(0);
        assert_eq!(flushed, vec![(0, 100), (1, 101)]);
        // Entries stay cached, now clean.
        assert_eq!(c.peek(0), Some((100, false)));
        assert_eq!(c.dirty_tvpns(), vec![1]);
        c.check().unwrap();
    }

    #[test]
    fn eviction_falls_back_to_protected() {
        let mut c = cmt(2); // protected cap = 1
        c.insert(1, 10, false);
        c.insert(2, 20, false);
        c.lookup(1);
        c.lookup(2); // 2 promoted, 1 demoted -> probation: [1], protected: [2]
        let ev = c.insert(3, 30, false).unwrap();
        assert_eq!(ev.lpn, 1);
        // Now probation holds 3, protected holds 2. Promote 3 as well:
        c.lookup(3); // protected cap 1 -> demotes 2.
        let ev = c.insert(4, 40, false).unwrap();
        assert_eq!(ev.lpn, 2);
        c.check().unwrap();
    }

    #[test]
    fn update_in_place_does_not_promote() {
        let mut c = cmt(3);
        c.insert(1, 10, false);
        c.insert(2, 20, false);
        c.insert(3, 30, false);
        // GC relocates lpn 1's page; recency must not change, so the next
        // eviction still takes lpn 1 (probation LRU).
        assert!(c.update_in_place(1, 11));
        assert_eq!(c.peek(1), Some((11, true)));
        let ev = c.insert(4, 40, false).unwrap();
        assert_eq!(ev.lpn, 1);
        assert!(ev.dirty);
        // Uncached lpn is a no-op.
        assert!(!c.update_in_place(99, 1));
        c.check().unwrap();
    }

    #[test]
    fn clean_translation_page_matches_flush() {
        let mut c = cmt(8);
        for l in [5, 3, 300, 4] {
            c.insert(l, l + 100, true);
        }
        let mut flushed = c.clone();
        assert_eq!(
            flushed.flush_translation_page(0),
            vec![(3, 103), (4, 104), (5, 105)]
        );
        c.clean_translation_page(0);
        c.clean_translation_page(77); // never dirtied: no-op
        assert_eq!(
            c.iter_entries().collect::<Vec<_>>(),
            flushed.iter_entries().collect::<Vec<_>>()
        );
        assert_eq!(c.dirty_tvpns(), vec![1]);
        c.check().unwrap();
    }

    #[test]
    fn heavy_churn_stays_consistent() {
        let mut c = cmt(16);
        for i in 0..1000u64 {
            let lpn = (i * 7) % 64;
            if c.peek(lpn).is_some() {
                if i % 3 == 0 {
                    c.update(lpn, i);
                } else {
                    c.lookup(lpn);
                }
            } else {
                c.insert(lpn, i, i % 2 == 0);
            }
            if i % 37 == 0 {
                c.flush_translation_page(0);
            }
            c.check().unwrap();
        }
        assert!(c.len() <= 16);
    }
}
