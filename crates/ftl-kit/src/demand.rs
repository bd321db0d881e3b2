//! The demand-paged mapping engine shared by DLOOP and DFTL.
//!
//! Both schemes keep the authoritative page-mapping table in flash as
//! translation pages, cache hot entries in the [`CachedMappingTable`], and
//! find translation pages through the [`Gtd`]. The protocol (paper Fig. 6,
//! inherited from DFTL):
//!
//! 1. On a CMT miss, evict a segmented-LRU victim; if it is dirty, its
//!    translation page is read, updated, and re-written to a new flash
//!    location (batching every dirty sibling of the same translation page).
//! 2. The missing entry's translation page is then read and the entry
//!    loaded into the CMT.
//! 3. Host writes update the cached entry (dirty); GC moves update it in
//!    place without promotion and batch-rewrite affected translation pages.
//!
//! The *placement* of a freshly written translation page is the one thing
//! the schemes disagree on (DLOOP homes it on `tvpn % planes`, DFTL keeps
//! a sticky translation block from plane 0), so each scheme supplies it
//! once, as a [`TranslationPlacement`].
//!
//! A CMT with room for every LPN never evicts, so nothing ever reads its
//! recency order or dirty state (§III.D consults them only to pick and
//! write back a victim). In that *resident* regime the engine keeps no
//! segmented LRU at all: the authoritative map serves every lookup and one
//! bit per LPN records whether its entry has been loaded, which is all the
//! hit/miss accounting and the deferred-update rule depend on. The choice
//! is made once, from the capacity, and is invisible in every result.
//!
//! The authoritative map is one `u32` per LPN, with `u32::MAX` standing
//! for [`UNMAPPED`]; every PPN it hands out or takes in is a `u64` like
//! everywhere else. GC moves store into it at random, so at 4 bytes per
//! LPN (8 before) those stores spread over half the memory. A device with
//! more physical pages than fit below `u32::MAX` is refused at
//! construction.

use crate::cmt::CachedMappingTable;
use crate::dir::{check_u32_geometry, PageDirectory, PageOwner};
use crate::ftl::FtlContext;
use crate::gtd::Gtd;
use dloop_nand::{FlashState, Geometry, Lpn, PageState, Ppn};

/// Sentinel for "no physical page mapped".
pub const UNMAPPED: Ppn = Ppn::MAX;

/// [`UNMAPPED`] as the page map stores it.
const STORED_UNMAPPED: u32 = u32::MAX;

/// A PPN as the page map stores it.
fn narrow(ppn: Ppn) -> u32 {
    debug_assert!(
        ppn < STORED_UNMAPPED as Ppn,
        "ppn {ppn} does not fit the map"
    );
    ppn as u32
}

/// A stored map entry as a PPN ([`UNMAPPED`] included).
fn widen(stored: u32) -> Ppn {
    if stored == STORED_UNMAPPED {
        UNMAPPED
    } else {
        stored as Ppn
    }
}

/// Where a scheme writes its translation pages.
pub trait TranslationPlacement {
    /// Program a fresh copy of translation page `tvpn`: record it in the
    /// page directory, push the corresponding
    /// [`FlashStep::Write`](crate::ftl::FlashStep::Write), and return the
    /// new PPN.
    fn place(&mut self, ctx: &mut FtlContext<'_>, tvpn: u64) -> Ppn;

    /// Whether `tvpn`'s destination can absorb a write right now. The
    /// pending-buffer flush skips pages for which it cannot, so a flush
    /// never lands on a plane that is itself waiting for GC.
    fn has_room(&self, ctx: &FtlContext<'_>, tvpn: u64) -> bool;
}

/// Counters the engine maintains.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DemandCounters {
    /// Translation pages read from flash.
    pub translation_reads: u64,
    /// Translation pages written to flash.
    pub translation_writes: u64,
}

/// Authoritative mapping table + demand-caching traffic generator.
///
/// GC-driven mapping changes are not persisted one translation page per
/// victim: updates for uncached mappings accumulate in a small SRAM
/// *pending buffer* (per translation page) and are flushed in batch when
/// the buffer exceeds its budget or when the page is rewritten anyway
/// (dirty CMT eviction). This is the standard lazy-update optimisation of
/// demand-mapping FTLs — without it, schemes whose GC victims span many
/// translation pages pay one read-modify-write per page per victim and
/// the translation stream dwarfs the host stream.
#[derive(Debug, Clone)]
pub struct DemandMap {
    /// LPN → PPN, 4 bytes per LPN: [`DemandMap::new`] refuses a device
    /// whose PPNs do not fit below [`STORED_UNMAPPED`].
    map: Vec<u32>,
    cache: Cache,
    gtd: Gtd,
    pending: std::collections::BTreeMap<u64, u32>,
    pending_total: u64,
    pub(crate) pending_budget: u64,
    /// Engine counters.
    pub counters: DemandCounters,
}

/// Which mapping entries are cached.
#[derive(Debug, Clone)]
enum Cache {
    /// A CMT smaller than the LPN space: the segmented LRU of §III.D.
    Lru(CachedMappingTable),
    /// A CMT that holds every LPN: the map itself, plus which entries
    /// have been loaded.
    Resident(Loaded),
}

/// The resident regime's cache state: one bit per LPN, set by the first
/// lookup (mapped or not) — exactly the entries a never-evicting LRU
/// would hold — and the LRU's hit/miss counters.
#[derive(Debug, Clone)]
struct Loaded {
    bits: Vec<u64>,
    hits: u64,
    misses: u64,
}

impl Loaded {
    fn new(lpns: usize) -> Self {
        Loaded {
            bits: vec![0; lpns.div_ceil(64)],
            hits: 0,
            misses: 0,
        }
    }

    fn contains(&self, lpn: Lpn) -> bool {
        self.bits[(lpn / 64) as usize] & (1 << (lpn % 64)) != 0
    }

    /// A referencing lookup: classify it as a hit or a miss, and load the
    /// entry. Returns whether it hit.
    fn lookup(&mut self, lpn: Lpn) -> bool {
        let word = &mut self.bits[(lpn / 64) as usize];
        let bit = 1 << (lpn % 64);
        let hit = *word & bit != 0;
        *word |= bit;
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        hit
    }

    /// Copy `lpn`'s bit from `other`.
    fn copy_from(&mut self, other: &Loaded, lpn: Lpn) {
        let (word, bit) = ((lpn / 64) as usize, 1u64 << (lpn % 64));
        self.bits[word] = (self.bits[word] & !bit) | (other.bits[word] & bit);
    }
}

impl DemandMap {
    /// Build for a geometry with a CMT of `cmt_capacity` entries. A
    /// capacity that covers every LPN selects the resident regime (module
    /// docs). Panics on a geometry too large for the 32-bit map.
    pub fn new(geometry: &Geometry, cmt_capacity: usize) -> Self {
        check_u32_geometry(geometry);
        let lpns = geometry.user_pages() as usize;
        let cache = if cmt_capacity >= lpns {
            Cache::Resident(Loaded::new(lpns))
        } else {
            Cache::Lru(CachedMappingTable::new(
                cmt_capacity,
                geometry.mappings_per_translation_page(),
            ))
        };
        DemandMap {
            map: vec![STORED_UNMAPPED; lpns],
            cache,
            gtd: Gtd::new(geometry),
            pending: std::collections::BTreeMap::new(),
            pending_total: 0,
            pending_budget: cmt_capacity as u64,
            counters: DemandCounters::default(),
        }
    }

    /// The authoritative mapping for `lpn` (no traffic, no cache effects).
    pub fn mapped(&self, lpn: Lpn) -> Option<Ppn> {
        let p = self.map[lpn as usize];
        (p != STORED_UNMAPPED).then_some(p as Ppn)
    }

    /// The translation page covering `lpn`.
    pub fn tvpn_of(&self, lpn: Lpn) -> u64 {
        self.gtd.tvpn_of(lpn)
    }

    /// CMT hit/miss statistics.
    pub fn cmt_stats(&self) -> (u64, u64) {
        match &self.cache {
            Cache::Lru(cmt) => cmt.hit_stats(),
            Cache::Resident(loaded) => (loaded.hits, loaded.misses),
        }
    }

    /// Whether the engine is in the *plane-pure* regime the sharded
    /// translation fast path requires: a resident CMT (it never evicts, so
    /// no dirty write-backs), no materialised translation pages (misses
    /// generate no flash reads — pinned by the
    /// `miss_on_cold_unmapped_lpn_generates_no_reads` test), and no
    /// deferred GC updates awaiting a flush. In this regime every
    /// operation's flash effects stay on the data page's own plane.
    pub fn plane_pure(&self) -> bool {
        matches!(self.cache, Cache::Resident(_))
            && self.gtd.materialised() == 0
            && self.pending_total == 0
    }

    /// A worker's fork for plane-sharded translation, or `None` outside
    /// the resident regime. The map and the loaded bits are copied whole
    /// (two flat memcpys); the worker only ever touches the LPNs of its
    /// home planes. All counters start at zero, so the worker accumulates
    /// pure deltas for [`DemandMap::shard_absorb`].
    pub fn shard_fork(&self) -> Option<DemandMap> {
        let Cache::Resident(loaded) = &self.cache else {
            return None;
        };
        Some(DemandMap {
            map: self.map.clone(),
            cache: Cache::Resident(Loaded {
                hits: 0,
                misses: 0,
                ..loaded.clone()
            }),
            gtd: self.gtd.clone(),
            pending: self.pending.clone(),
            pending_total: self.pending_total,
            pending_budget: self.pending_budget,
            counters: DemandCounters::default(),
        })
    }

    /// Merge a [`DemandMap::shard_fork`] worker back: copy the map entries
    /// and loaded bits of the LPNs `owns` selects (the worker's home
    /// planes), and add its hit/miss deltas. Only valid in the plane-pure
    /// regime, where the worker generated no translation traffic.
    pub fn shard_absorb(&mut self, worker: &DemandMap, owns: &dyn Fn(Lpn) -> bool) {
        debug_assert_eq!(
            worker.counters,
            DemandCounters::default(),
            "plane-pure worker generated translation traffic"
        );
        debug_assert_eq!(worker.pending_total, 0);
        let (Cache::Resident(mine), Cache::Resident(theirs)) = (&mut self.cache, &worker.cache)
        else {
            unreachable!("shard_absorb outside the resident regime");
        };
        mine.hits += theirs.hits;
        mine.misses += theirs.misses;
        for lpn in (0..self.map.len() as Lpn).filter(|&lpn| owns(lpn)) {
            self.map[lpn as usize] = worker.map[lpn as usize];
            mine.copy_from(theirs, lpn);
        }
    }

    /// Make sure `lpn`'s mapping entry is cached, generating the miss
    /// traffic of paper Fig. 6 lines 4-14. Returns the mapping.
    pub fn ensure_cached(
        &mut self,
        lpn: Lpn,
        ctx: &mut FtlContext<'_>,
        place: &mut impl TranslationPlacement,
    ) -> Option<Ppn> {
        let evicted = match &mut self.cache {
            Cache::Resident(loaded) => {
                if loaded.lookup(lpn) {
                    return self.mapped(lpn);
                }
                None
            }
            Cache::Lru(cmt) => {
                if cmt.lookup(lpn).is_some() {
                    return self.mapped(lpn);
                }
                // Miss: insert (evicting if full).
                cmt.insert(lpn, widen(self.map[lpn as usize]), false)
            }
        };
        // Write back a dirty victim.
        if let Some(ev) = evicted.filter(|ev| ev.dirty) {
            let victim_tvpn = self.gtd.tvpn_of(ev.lpn);
            self.rewrite_translation_page(victim_tvpn, ctx, place);
        }
        // Load the requested entry's translation page (if materialised).
        let tvpn = self.gtd.tvpn_of(lpn);
        if let Some(tp) = self.gtd.lookup(tvpn) {
            ctx.read_page(tp);
            self.counters.translation_reads += 1;
        }
        self.mapped(lpn)
    }

    /// Commit a host write: `lpn` now lives at `new_ppn`. The entry must be
    /// cached (callers run [`Self::ensure_cached`] first).
    pub fn commit_write(&mut self, lpn: Lpn, new_ppn: Ppn) {
        self.map[lpn as usize] = narrow(new_ppn);
        match &mut self.cache {
            Cache::Resident(loaded) => {
                debug_assert!(loaded.contains(lpn), "update of uncached mapping")
            }
            Cache::Lru(cmt) => cmt.update(lpn, new_ppn),
        }
    }

    /// Record a GC data-page move: authoritative map changes; the cached
    /// entry (if any) is updated without promotion (persisted later by its
    /// dirty eviction), otherwise the update lands in the pending buffer
    /// for a batched flush.
    pub fn gc_move(&mut self, lpn: Lpn, new_ppn: Ppn) {
        self.map[lpn as usize] = narrow(new_ppn);
        let cached = match &mut self.cache {
            Cache::Resident(loaded) => loaded.contains(lpn),
            Cache::Lru(cmt) => cmt.update_in_place(lpn, new_ppn),
        };
        if !cached {
            let tvpn = self.gtd.tvpn_of(lpn);
            *self.pending.entry(tvpn).or_insert(0) += 1;
            self.pending_total += 1;
        }
    }

    /// Deferred (not yet persisted) mapping updates for `tvpn`.
    pub fn pending_count(&self, tvpn: u64) -> u32 {
        self.pending.get(&tvpn).copied().unwrap_or(0)
    }

    /// Flush pending updates while the buffer exceeds its SRAM budget,
    /// largest translation page first (best amortisation per write). At
    /// most `max_flushes` pages are written per call: the budget is a soft
    /// SRAM bound, and an uncapped flush inside a GC pass could consume
    /// more free pages than the pass reclaims.
    pub fn flush_pending_over_budget(
        &mut self,
        ctx: &mut FtlContext<'_>,
        place: &mut impl TranslationPlacement,
    ) {
        let mut flushes = 0;
        while self.pending_total > self.pending_budget && flushes < 8 {
            flushes += 1;
            // Deterministic: highest count wins, lowest tvpn breaks ties —
            // among pages whose destination has room.
            let Some((&tvpn, _)) = self
                .pending
                .iter()
                .filter(|(&tvpn, _)| place.has_room(ctx, tvpn))
                .max_by_key(|(&tvpn, &c)| (c, std::cmp::Reverse(tvpn)))
            else {
                break;
            };
            self.rewrite_translation_page(tvpn, ctx, place);
        }
    }

    /// Record the GC move of a live page from `old_ppn` to `new_ppn` in
    /// the map its `owner` names and in the page directory.
    pub fn gc_remap(
        &mut self,
        owner: PageOwner,
        old_ppn: Ppn,
        new_ppn: Ppn,
        ctx: &mut FtlContext<'_>,
    ) {
        match owner {
            PageOwner::Data(lpn) => {
                self.gc_move(lpn, new_ppn);
                ctx.dir.set_data(new_ppn, lpn);
            }
            PageOwner::Translation(tvpn) => {
                let was = self.gtd.update(tvpn, new_ppn);
                debug_assert_eq!(was, Some(old_ppn), "GTD desync");
                ctx.dir.set_translation(new_ppn, tvpn);
            }
            PageOwner::None => unreachable!("valid page {old_ppn} without owner"),
        }
    }

    /// Read-modify-write translation page `tvpn`: read the current copy
    /// (when one exists), write an up-to-date copy where `place` puts it,
    /// invalidate the old copy, update the GTD, and clean every dirty CMT
    /// sibling (the batch update). Generates the corresponding chain steps.
    pub fn rewrite_translation_page(
        &mut self,
        tvpn: u64,
        ctx: &mut FtlContext<'_>,
        place: &mut impl TranslationPlacement,
    ) {
        let old = self.gtd.lookup(tvpn);
        if let Some(old_ppn) = old {
            ctx.read_page(old_ppn);
            self.counters.translation_reads += 1;
        }
        let new_ppn = place.place(ctx, tvpn);
        self.counters.translation_writes += 1;
        if let Some(old_ppn) = old {
            ctx.flash
                .invalidate(old_ppn)
                .expect("stale GTD entry: old translation page not valid");
            ctx.dir.clear(old_ppn);
        }
        self.gtd.update(tvpn, new_ppn);
        // All dirty siblings and pending GC updates are persisted by this
        // write.
        if let Cache::Lru(cmt) = &mut self.cache {
            cmt.clean_translation_page(tvpn);
        }
        if let Some(c) = self.pending.remove(&tvpn) {
            self.pending_total -= c as u64;
        }
    }

    /// Iterate every mapped (lpn, ppn) pair — O(LPN space), audits only.
    pub fn iter_mapped(&self) -> impl Iterator<Item = (Lpn, Ppn)> + '_ {
        self.map
            .iter()
            .enumerate()
            .filter(|(_, &p)| p != STORED_UNMAPPED)
            .map(|(l, &p)| (l as Lpn, p as Ppn))
    }

    /// Iterate every materialised translation page as a (tvpn, ppn) pair —
    /// O(GTD), audits only.
    pub fn iter_translation_pages(&self) -> impl Iterator<Item = (u64, Ppn)> + '_ {
        (0..self.gtd.len() as u64).filter_map(|tvpn| Some((tvpn, self.gtd.lookup(tvpn)?)))
    }

    /// Audit the map against the device: [`Self::check`]; every mapped
    /// page is `Valid` and owned by its LPN in the page directory; every
    /// GTD page is `Valid` and owned by its tvpn; and these are all the
    /// valid pages on the flash. A scheme adds only its placement rules.
    pub fn audit(&self, flash: &FlashState, dir: &PageDirectory) -> Result<(), String> {
        self.check()?;
        let data = self.iter_mapped().map(|(lpn, p)| (PageOwner::Data(lpn), p));
        let tpages = self
            .iter_translation_pages()
            .map(|(t, p)| (PageOwner::Translation(t), p));
        let mut live = 0u64;
        for (owner, ppn) in data.chain(tpages) {
            if flash.page_state(ppn) != PageState::Valid {
                return Err(format!("{owner:?} maps to non-valid ppn {ppn}"));
            }
            if dir.owner(ppn) != owner {
                return Err(format!("directory disagrees with {owner:?} at ppn {ppn}"));
            }
            live += 1;
        }
        if live != flash.total_valid_pages() {
            return Err(format!(
                "accounted {live} live pages, flash reports {}",
                flash.total_valid_pages()
            ));
        }
        Ok(())
    }

    /// Audit: cached entries agree with the authoritative map; GTD entries
    /// are internally consistent. In the resident regime, every mapped LPN
    /// must be loaded — otherwise its next GC move would be deferred into
    /// the pending buffer and the map would leave the plane-pure regime.
    pub fn check(&self) -> Result<(), String> {
        let cmt = match &self.cache {
            Cache::Resident(loaded) => {
                for (word, (chunk, &bits)) in self.map.chunks(64).zip(&loaded.bits).enumerate() {
                    for (bit, &ppn) in chunk.iter().enumerate() {
                        if ppn != STORED_UNMAPPED && bits & (1 << bit) == 0 {
                            let lpn = word * 64 + bit;
                            return Err(format!("lpn {lpn} mapped at ppn {ppn} but never loaded"));
                        }
                    }
                }
                return Ok(());
            }
            Cache::Lru(cmt) => cmt,
        };
        cmt.check()?;
        // Every cached entry must equal the authoritative mapping (we keep
        // them in lock-step; dirtiness only describes the on-flash copy).
        for (lpn, ppn, _) in cmt.iter_entries() {
            let authoritative = self.map.get(lpn as usize).copied().map(widen);
            if authoritative != Some(ppn) {
                return Err(format!(
                    "lpn {lpn} cached at ppn {ppn}, authoritative map says {authoritative:?}"
                ));
            }
        }
        for tvpn in cmt.dirty_tvpns() {
            if tvpn as usize >= self.gtd.len() {
                return Err(format!("dirty tvpn {tvpn} out of GTD range"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dir::PageDirectory;
    use crate::ftl::{FlashStep, OpChain};
    use dloop_nand::{BlockAddr, FlashState};

    /// Harness: a tiny flash plus a trivial plane-0 sequential placer.
    struct Rig {
        flash: FlashState,
        dir: PageDirectory,
        chain: OpChain,
        gc_chain: OpChain,
        scan_chain: OpChain,
        dm: DemandMap,
        place: Plane0,
    }

    /// Translation pages go to one active block on plane 0; `deny` names a
    /// tvpn whose destination never has room.
    struct Plane0 {
        active: Option<BlockAddr>,
        deny: Option<u64>,
    }

    impl TranslationPlacement for Plane0 {
        fn place(&mut self, ctx: &mut FtlContext<'_>, tvpn: u64) -> Ppn {
            let need_new = match self.active {
                None => true,
                Some(b) => ctx.flash.plane(b.plane).block(b.index).is_full(),
            };
            if need_new {
                let idx = ctx.flash.allocate_free_block(0).unwrap();
                self.active = Some(BlockAddr {
                    plane: 0,
                    index: idx,
                });
            }
            let addr = ctx.flash.program_next(self.active.unwrap()).unwrap();
            let ppn = ctx.flash.geometry().ppn_of(addr);
            ctx.dir.set_translation(ppn, tvpn);
            ctx.push(FlashStep::Write { plane: 0 });
            ppn
        }

        fn has_room(&self, _: &FtlContext<'_>, tvpn: u64) -> bool {
            self.deny != Some(tvpn)
        }
    }

    fn geometry() -> dloop_nand::Geometry {
        dloop_nand::Geometry::build_with_hierarchy(1, 2, 5.0, 2, 1, 1, 1, 2)
    }

    impl DemandMap {
        /// The segmented LRU of a map below the resident capacity.
        fn lru(&mut self) -> &mut CachedMappingTable {
            match &mut self.cache {
                Cache::Lru(cmt) => cmt,
                Cache::Resident(_) => panic!("resident map has no LRU"),
            }
        }

        /// Make the clean entries `gone` uncached the way traffic does:
        /// look up other LPNs, from the top of the space down, until
        /// eviction has taken every one of them.
        fn evict(&mut self, gone: &[Lpn]) {
            let mut other = self.map.len() as Lpn;
            while gone.iter().any(|&l| self.lru().peek(l).is_some()) {
                other -= 1;
                let ppn = widen(self.map[other as usize]);
                let cmt = self.lru();
                if cmt.lookup(other).is_none() {
                    let evicted = cmt.insert(other, ppn, false);
                    assert!(!evicted.is_some_and(|e| e.dirty), "dirty eviction");
                    cmt.lookup(other);
                }
            }
        }
    }

    impl Rig {
        fn new(cmt_cap: usize) -> Self {
            let g = geometry();
            Rig {
                flash: FlashState::new(g.clone()),
                dir: PageDirectory::new(&g),
                chain: OpChain::new(),
                gc_chain: OpChain::new(),
                scan_chain: OpChain::new(),
                dm: DemandMap::new(&g, cmt_cap),
                place: Plane0 {
                    active: None,
                    deny: None,
                },
            }
        }

        /// Run `f` with a context and the standard test placer.
        fn run<R>(
            &mut self,
            f: impl FnOnce(&mut DemandMap, &mut FtlContext<'_>, &mut Plane0) -> R,
        ) -> R {
            let mut ctx = FtlContext {
                flash: &mut self.flash,
                dir: &mut self.dir,
                host_chain: &mut self.chain,
                gc_chain: &mut self.gc_chain,
                scan_chain: &mut self.scan_chain,
                phase: crate::ftl::Phase::Host,
            };
            f(&mut self.dm, &mut ctx, &mut self.place)
        }
    }

    #[test]
    fn miss_on_cold_unmapped_lpn_generates_no_reads() {
        let mut rig = Rig::new(4);
        let got = rig.run(|dm, ctx, place| dm.ensure_cached(7, ctx, place));
        assert_eq!(got, None);
        assert!(rig.chain.is_empty());
        assert_eq!(rig.dm.counters.translation_reads, 0);
    }

    #[test]
    fn write_then_reload_generates_read() {
        let mut rig = Rig::new(4);
        rig.run(|dm, ctx, place| {
            dm.ensure_cached(7, ctx, place);
            dm.commit_write(7, 42);
            // Force the dirty entry out by rewriting its page directly.
            dm.rewrite_translation_page(dm.tvpn_of(7), ctx, place);
        });
        assert_eq!(rig.dm.counters.translation_writes, 1);
        assert_eq!(rig.dm.mapped(7), Some(42));
        // Drop it from the CMT and re-ensure: the materialised page is read.
        rig.dm.evict(&[7]);
        rig.chain.clear();
        rig.run(|dm, ctx, place| dm.ensure_cached(7, ctx, place));
        assert_eq!(rig.dm.counters.translation_reads, 1);
        assert_eq!(rig.chain.len(), 1);
    }

    #[test]
    fn dirty_eviction_writes_back_batched() {
        let mut rig = Rig::new(2);
        rig.run(|dm, ctx, place| {
            // Fill the CMT with two dirty entries on the same tvpn (0).
            dm.ensure_cached(1, ctx, place);
            dm.commit_write(1, 100);
            dm.ensure_cached(2, ctx, place);
            dm.commit_write(2, 200);
            // Third insert evicts lpn 1 (probation LRU), which is dirty ->
            // one translation-page write that also cleans lpn 2.
            dm.ensure_cached(3, ctx, place);
        });
        assert_eq!(rig.dm.counters.translation_writes, 1);
        assert!(
            rig.dm.lru().dirty_tvpns().is_empty(),
            "siblings must be clean"
        );
    }

    #[test]
    fn rewrite_invalidates_old_copy() {
        let mut rig = Rig::new(4);
        rig.run(|dm, ctx, place| {
            dm.ensure_cached(1, ctx, place);
            dm.commit_write(1, 5);
            dm.rewrite_translation_page(0, ctx, place);
            dm.rewrite_translation_page(0, ctx, place);
        });
        // Two writes, second one read the first.
        assert_eq!(rig.dm.counters.translation_writes, 2);
        assert_eq!(rig.dm.counters.translation_reads, 1);
        // Exactly one valid translation page remains.
        assert_eq!(rig.flash.total_valid_pages(), 1);
        rig.flash.check().unwrap();
    }

    #[test]
    fn gc_move_of_uncached_mapping_defers() {
        let mut rig = Rig::new(4);
        rig.run(|dm, ctx, place| {
            dm.ensure_cached(1, ctx, place);
            dm.commit_write(1, 5);
            // Persist and drop from the CMT so the mapping is uncached.
            dm.rewrite_translation_page(0, ctx, place);
        });
        rig.dm.evict(&[1]);
        rig.dm.gc_move(1, 6);
        assert_eq!(rig.dm.mapped(1), Some(6));
        assert_eq!(rig.dm.pending_count(0), 1);
        assert_eq!(rig.dm.pending_total, 1);
        // A rewrite clears the pending debt.
        rig.run(|dm, ctx, place| dm.rewrite_translation_page(0, ctx, place));
        assert_eq!(rig.dm.pending_total, 0);
    }

    #[test]
    fn flush_respects_budget_and_filter() {
        let mut rig = Rig::new(4);
        // Shrink the budget for the test.
        rig.dm.pending_budget = 2;
        rig.run(|dm, ctx, place| {
            // Materialise three translation pages.
            for lpn in [0u64, 256, 512] {
                dm.ensure_cached(lpn, ctx, place);
                dm.commit_write(lpn, lpn + 1);
                dm.rewrite_translation_page(dm.tvpn_of(lpn), ctx, place);
            }
        });
        rig.dm.evict(&[0, 256, 512]);
        // Defer updates: tvpn 1 gets two, tvpns 0 and 2 one each.
        rig.dm.gc_move(0, 100);
        rig.dm.gc_move(256, 101);
        rig.dm.gc_move(257, 102);
        rig.dm.gc_move(512, 103);
        assert_eq!(rig.dm.pending_total, 4);

        // Flush while tvpn 1's destination has no room: the flush must
        // drain other pages and stop (never violating the filter).
        rig.place.deny = Some(1);
        rig.run(|dm, ctx, place| dm.flush_pending_over_budget(ctx, place));
        assert_eq!(rig.dm.pending_count(1), 2, "filtered page left alone");
        assert!(rig.dm.pending_total <= 2 || rig.dm.pending_count(1) == 2);

        // Unfiltered flush drains to within budget (largest first).
        rig.place.deny = None;
        rig.run(|dm, ctx, place| dm.flush_pending_over_budget(ctx, place));
        assert!(rig.dm.pending_total <= 2);
    }

    /// One step of the FTL-facing protocol on a map.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        /// A read's translation.
        Lookup(Lpn),
        /// A host write: translation, then the commit.
        Write(Lpn, Ppn),
        /// A GC move of a mapped LPN.
        Move(Lpn, Ppn),
    }

    fn apply(dm: &mut DemandMap, op: Op, ctx: &mut FtlContext<'_>, place: &mut Plane0) {
        match op {
            Op::Lookup(lpn) => {
                dm.ensure_cached(lpn, ctx, place);
            }
            Op::Write(lpn, ppn) => {
                dm.ensure_cached(lpn, ctx, place);
                dm.commit_write(lpn, ppn);
            }
            Op::Move(lpn, ppn) => dm.gc_move(lpn, ppn),
        }
    }

    /// The resident map against a never-evicting segmented LRU of the same
    /// capacity and a plain `Vec` of mappings, op by op. The LPNs sit at
    /// both ends of the space, so the loaded set's first and last words
    /// are exercised; about half of them are never written.
    #[test]
    fn resident_map_matches_a_never_evicting_lru() {
        use dloop_simkit::check::{self, Checker, Generator};
        use dloop_simkit::{check_assert, check_assert_eq};

        /// How many distinct LPNs a stream touches.
        const SPOTS: u64 = 256;
        let lpns = geometry().user_pages();
        let lpn_at = move |spot: u64| {
            if spot < SPOTS / 2 {
                spot
            } else {
                lpns - SPOTS + spot
            }
        };
        // `Move` carries a spot, resolved against the mapped spots at run
        // time: GC only ever moves a mapped page.
        let op = check::weighted(vec![
            (3, check::u64s(0..SPOTS).map(Op::Lookup).boxed()),
            (
                3,
                (check::u64s(0..SPOTS / 2), check::u64s(0..10_000))
                    .map(|(s, p)| Op::Write(s * 2, p))
                    .boxed(),
            ),
            (
                2,
                (check::u64s(0..SPOTS), check::u64s(0..10_000))
                    .map(|(s, p)| Op::Move(s, p))
                    .boxed(),
            ),
        ]);
        let gen = check::vec_of(op, 1..40);
        Checker::new().cases(16).run(&gen, |ops| {
            let mut rig = Rig::new(lpns as usize);
            let mut lru =
                CachedMappingTable::new(lpns as usize, geometry().mappings_per_translation_page());
            let mut model = vec![None; SPOTS as usize];
            for &op in ops {
                let (spot, op) = match op {
                    Op::Lookup(s) => (s, Op::Lookup(lpn_at(s))),
                    Op::Write(s, p) => (s, Op::Write(lpn_at(s), p)),
                    Op::Move(k, p) => {
                        let mapped: Vec<u64> = (0..SPOTS)
                            .filter(|&s| model[s as usize].is_some())
                            .collect();
                        let Some(&s) = mapped.get(k as usize % mapped.len().max(1)) else {
                            continue;
                        };
                        (s, Op::Move(lpn_at(s), p))
                    }
                };
                let (spot, lpn) = (spot as usize, lpn_at(spot));
                rig.run(|dm, ctx, place| apply(dm, op, ctx, place));
                // The reference, and the model.
                if !matches!(op, Op::Move(..)) && lru.lookup(lpn).is_none() {
                    let authoritative = model[spot].unwrap_or(UNMAPPED);
                    check_assert!(lru.insert(lpn, authoritative, false).is_none());
                }
                match op {
                    Op::Lookup(_) => {}
                    Op::Write(_, ppn) => lru.update(lpn, ppn),
                    Op::Move(_, ppn) => check_assert!(lru.update_in_place(lpn, ppn)),
                }
                if let Op::Write(_, ppn) | Op::Move(_, ppn) = op {
                    model[spot] = Some(ppn);
                }

                let dm = &rig.dm;
                check_assert_eq!(dm.cmt_stats(), lru.hit_stats(), "after {:?}", op);
                for s in 0..SPOTS {
                    check_assert_eq!(dm.mapped(lpn_at(s)), model[s as usize], "spot {}", s);
                }
                check_assert_eq!(
                    (
                        dm.counters.translation_reads,
                        dm.counters.translation_writes
                    ),
                    (0, 0)
                );
                check_assert!(rig.chain.is_empty());
                check_assert_eq!(dm.pending_total, 0);
                check_assert!(dm.plane_pure());
                dm.check()?;
            }
            check_assert_eq!(rig.dm.iter_mapped().count(), model.iter().flatten().count());
            Ok(())
        });
    }

    /// Fork → per-worker ops → merge must leave the map, the hit/miss
    /// counts and the loaded set exactly as applying the same ops to one
    /// unforked map does (the C15 property at the translation layer).
    #[test]
    fn sharded_merge_matches_a_sequential_replay() {
        let lpns = geometry().user_pages();
        let mut sharded = Rig::new(lpns as usize);
        let mut sequential = Rig::new(lpns as usize);
        let history: Vec<Op> = (0..200u64)
            .map(|i| Op::Write((i * 37) % 512, 10_000 + i))
            .collect();
        // Worker `w` owns the LPNs of parity `w`. A third of its ops are
        // lookups (some of never-written LPNs), a third writes (half of
        // them to LPNs new to the cache) and a third GC moves of LPNs the
        // history wrote.
        let work = |w: u64| -> Vec<Op> {
            (0..300u64)
                .map(|i| {
                    let k = (i * 53) % 1024;
                    match i % 3 {
                        0 => Op::Lookup(lpns - 2 * (k + 1) + w),
                        1 => Op::Write(2 * k + w, 20_000 + i),
                        _ => Op::Move(((2 * (i % 100) + w) * 37) % 512, 30_000 + i),
                    }
                })
                .collect()
        };
        let owners: [&dyn Fn(Lpn) -> bool; 2] = [&|l| l % 2 == 0, &|l| l % 2 == 1];

        for rig in [&mut sharded, &mut sequential] {
            rig.run(|dm, ctx, place| {
                for &op in &history {
                    apply(dm, op, ctx, place);
                }
            });
        }
        assert!(sharded.dm.plane_pure());
        let mut workers: Vec<DemandMap> =
            (0..2).map(|_| sharded.dm.shard_fork().unwrap()).collect();
        for (w, worker) in workers.iter_mut().enumerate() {
            let ops = work(w as u64);
            assert!(ops
                .iter()
                .all(|&(Op::Lookup(l) | Op::Write(l, _) | Op::Move(l, _))| owners[w](l)));
            sharded.run(|_, ctx, place| {
                for &op in &ops {
                    apply(worker, op, ctx, place);
                }
            });
            sequential.run(|dm, ctx, place| {
                for &op in &ops {
                    apply(dm, op, ctx, place);
                }
            });
        }
        for (worker, owns) in workers.iter().zip(owners) {
            sharded.dm.shard_absorb(worker, owns);
        }

        sharded.dm.check().unwrap();
        assert!(sharded.dm.plane_pure());
        assert_eq!(
            sharded.dm.iter_mapped().collect::<Vec<_>>(),
            sequential.dm.iter_mapped().collect::<Vec<_>>()
        );
        assert_eq!(sharded.dm.cmt_stats(), sequential.dm.cmt_stats());
        // The loaded sets agree iff a lookup of every LPN classifies alike.
        for rig in [&mut sharded, &mut sequential] {
            rig.run(|dm, ctx, place| {
                for lpn in 0..lpns {
                    dm.ensure_cached(lpn, ctx, place);
                }
            });
        }
        assert_eq!(sharded.dm.cmt_stats(), sequential.dm.cmt_stats());
    }

    #[test]
    fn check_compares_cached_entries_with_the_map() {
        let mut rig = Rig::new(4);
        rig.run(|dm, ctx, place| {
            dm.ensure_cached(9, ctx, place);
            dm.commit_write(9, 50);
        });
        rig.dm.check().unwrap();
        rig.dm.map[9] = 51;
        let err = rig.dm.check().unwrap_err();
        assert!(err.contains("lpn 9"), "{err}");
    }

    #[test]
    fn check_requires_every_resident_mapping_to_be_loaded() {
        let mut rig = Rig::new(geometry().user_pages() as usize);
        rig.run(|dm, ctx, place| {
            dm.ensure_cached(9, ctx, place);
            dm.commit_write(9, 50);
        });
        rig.dm.check().unwrap();
        // A mapping that bypassed `ensure_cached`: its next GC move would
        // be deferred.
        rig.dm.map[12] = 51;
        let err = rig.dm.check().unwrap_err();
        assert!(err.contains("lpn 12"), "{err}");
        rig.dm.gc_move(12, 52);
        assert_eq!(rig.dm.pending_total, 1);
        assert!(!rig.dm.plane_pure());
    }

    #[test]
    fn gc_move_updates_map_without_promotion() {
        let mut rig = Rig::new(4);
        rig.run(|dm, ctx, place| {
            dm.ensure_cached(9, ctx, place);
            dm.commit_write(9, 50);
        });
        rig.dm.gc_move(9, 51);
        assert_eq!(rig.dm.mapped(9), Some(51));
        assert_eq!(rig.dm.lru().peek(9), Some((51, true)));
        rig.dm.check().unwrap();
    }

    #[test]
    fn the_map_holds_four_bytes_per_lpn() {
        let dm = DemandMap::new(&geometry(), 4);
        assert_eq!(dm.map.len() as u64, geometry().user_pages());
        assert_eq!(std::mem::size_of_val(&dm.map[..]), 4 * dm.map.len());
    }

    /// One plane of `blocks` blocks, the first of them the only user-visible
    /// one: a physical page space as large as a test likes, for a map of 64
    /// LPNs.
    fn wide(blocks: u32) -> Geometry {
        let mut g = dloop_nand::Geometry::build_with_hierarchy(1, 2, 5.0, 1, 1, 1, 1, 1);
        g.blocks_per_plane = blocks;
        g.data_blocks_per_plane = 1;
        g
    }

    #[test]
    fn the_highest_ppn_below_the_bound_maps_and_unmapped_stays_none() {
        let g = wide((1 << 26) - 1);
        let top = g.total_physical_pages() - 1;
        assert_eq!(top, u32::MAX as u64 - 64);
        let mut dm = DemandMap::new(&g, g.user_pages() as usize);
        dm.gc_move(0, top);
        assert_eq!(dm.mapped(0), Some(top));
        assert_eq!(dm.mapped(1), None);
        assert_eq!(dm.iter_mapped().collect::<Vec<_>>(), vec![(0, top)]);
    }

    #[test]
    #[should_panic(expected = "PPNs must stay below u32::MAX")]
    fn a_device_one_block_past_the_ppn_bound_is_refused() {
        DemandMap::new(&wide(1 << 26), 64);
    }
}
