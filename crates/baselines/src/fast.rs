//! FAST (Lee et al., TECS 2007): the fully-associative log-block hybrid
//! FTL the paper uses as its classical baseline.
//!
//! Data blocks are block-mapped (LBN → physical block, page offset fixed);
//! updates go to a small set of page-mapped *log blocks*: one **SW** log
//! block absorbing sequential writes starting at offset 0, and a pool of
//! fully-associative **RW** log blocks absorbing everything else. When the
//! RW pool is exhausted, the oldest log block is reclaimed by **full
//! merges** — for every LBN with live pages in it, the newest version of
//! each offset (from logs or the data block) is copied into a fresh block.
//! Full merges are the scheme's downfall on random-write workloads (§II.A:
//! "the most expensive one among the three"), and they cross planes over
//! the external bus, which is why FAST trails DLOOP everywhere in Figs.
//! 8-10.
//!
//! Switch merges (SW block complete and clean → becomes the data block)
//! and partial merges (SW retired early → top up from the data block, then
//! switch) are implemented exactly as §II.A describes. FAST keeps its
//! block- and page-level tables in SRAM, so unlike DLOOP/DFTL it has no
//! translation-page traffic.

use crate::seqalloc::SeqAllocator;
use dloop_ftl_kit::config::SsdConfig;
use dloop_ftl_kit::dir::{PageDirectory, PageOwner};
use dloop_ftl_kit::ftl::{FlashStep, Ftl, FtlContext, FtlCounters};
use dloop_nand::{BlockAddr, FlashState, Geometry, Lpn, PageState, Ppn};
use std::collections::{HashMap, VecDeque};

/// The sequential (SW) log block state.
#[derive(Debug, Clone, Copy)]
struct SwLog {
    lbn: u64,
    block: BlockAddr,
    /// Next offset expected for a sequential append.
    next_off: u32,
    /// False once any page in the SW block has been superseded.
    clean: bool,
}

/// The FAST baseline.
pub struct FastFtl {
    geometry: Geometry,
    alloc: SeqAllocator,
    data_map: Vec<Option<BlockAddr>>,
    log_map: HashMap<Lpn, Ppn>,
    sw: Option<SwLog>,
    rw_blocks: VecDeque<BlockAddr>,
    rw_limit: usize,
    counters: FtlCounters,
}

impl FastFtl {
    /// Build from a device configuration. The RW log pool is funded by the
    /// device's extra blocks, minus the free-pool slack GC needs.
    pub fn new(config: &SsdConfig) -> Self {
        let geometry = config.geometry();
        let planes = geometry.total_planes();
        let total_extra = geometry.extra_blocks_per_plane() as u64 * planes as u64;
        let slack = config.gc_threshold as u64 * planes as u64;
        let rw_limit = total_extra.saturating_sub(slack).max(2) as usize;
        let lbns = geometry.user_pages() / geometry.pages_per_block as u64;
        FastFtl {
            alloc: SeqAllocator::new(planes),
            data_map: vec![None; lbns as usize],
            log_map: HashMap::new(),
            sw: None,
            rw_blocks: VecDeque::new(),
            rw_limit,
            counters: FtlCounters::default(),
            geometry,
        }
    }

    fn ppb(&self) -> u32 {
        self.geometry.pages_per_block
    }

    /// Block-mapped zone layout: logical block `lbn` belongs to the plane
    /// holding its zone, as in classic block-mapping FTLs where physical
    /// placement is a linear function of the LBN. Hot logical regions
    /// therefore hammer specific planes — the source of FAST's plane
    /// imbalance (and poor SDRPP) in the paper's figures.
    fn home_plane(&self, lbn: u64) -> dloop_nand::PlaneId {
        let lbns_per_plane = self.geometry.data_blocks_per_plane.max(1) as u64;
        ((lbn / lbns_per_plane) % self.geometry.total_planes() as u64) as dloop_nand::PlaneId
    }

    fn split(&self, lpn: Lpn) -> (u64, u32) {
        (lpn / self.ppb() as u64, (lpn % self.ppb() as u64) as u32)
    }

    /// Every block the allocator's emergency path must not erase.
    fn exclusions(&self) -> Vec<BlockAddr> {
        let mut v: Vec<BlockAddr> = self.rw_blocks.iter().copied().collect();
        if let Some(sw) = self.sw {
            v.push(sw.block);
        }
        v
    }

    /// The newest version of `lpn`, if any.
    fn current_ppn(&self, lpn: Lpn, flash: &FlashState) -> Option<Ppn> {
        if let Some(&p) = self.log_map.get(&lpn) {
            return Some(p);
        }
        let (lbn, off) = self.split(lpn);
        let db = self.data_map[lbn as usize]?;
        let b = flash.plane(db.plane).block(db.index);
        (off < b.len() && b.state(off) == PageState::Valid).then(|| {
            self.geometry.ppn_of(dloop_nand::PageAddr {
                plane: db.plane,
                block: db.index,
                page: off,
            })
        })
    }

    /// Invalidate the version of `lpn` that lived at `ppn` *during a
    /// merge*: the log-map entry (if it pointed there) goes away too.
    fn invalidate_version(&mut self, lpn: Lpn, ppn: Ppn, ctx: &mut FtlContext<'_>) {
        ctx.flash.invalidate(ppn).expect("stale version not valid");
        ctx.dir.clear(ppn);
        if self.log_map.get(&lpn) == Some(&ppn) {
            self.log_map.remove(&lpn);
        }
        self.mark_sw_dirty_if_hit(ppn);
    }

    /// Invalidate a superseded version *after* the new one has already
    /// been installed in the log map — must not clobber the new entry.
    fn invalidate_stale(&mut self, lpn: Lpn, old_ppn: Ppn, ctx: &mut FtlContext<'_>) {
        debug_assert_ne!(self.log_map.get(&lpn), Some(&old_ppn));
        ctx.flash
            .invalidate(old_ppn)
            .expect("stale version not valid");
        ctx.dir.clear(old_ppn);
        self.mark_sw_dirty_if_hit(old_ppn);
    }

    /// If the superseded page sat in the SW block, the SW block is no
    /// longer clean and can only retire through a full merge.
    fn mark_sw_dirty_if_hit(&mut self, ppn: Ppn) {
        if let Some(sw) = &mut self.sw {
            if self.geometry.addr_of(ppn).block_addr() == sw.block {
                sw.clean = false;
            }
        }
    }

    /// Try to program the next page of `block` for `lpn`: on success
    /// install the log-map entry and push the write step. A program
    /// failure consumes the page (charged as an extra write) and returns
    /// `None` — the caller decides where the data goes instead.
    fn try_program_log_page(
        &mut self,
        block: BlockAddr,
        lpn: Lpn,
        ctx: &mut FtlContext<'_>,
    ) -> Option<Ppn> {
        let attempt = ctx.flash.program_page(block).expect("log block full");
        ctx.drain_failed_programs(FlashStep::Write { plane: block.plane });
        if attempt.failed {
            return None;
        }
        let ppn = self.geometry.ppn_of(attempt.addr);
        ctx.dir.set_data(ppn, lpn);
        ctx.push(FlashStep::Write { plane: block.plane });
        self.log_map.insert(lpn, ppn);
        Some(ppn)
    }

    /// The RW tail block with a free page, never reclaiming: safe to call
    /// mid-merge, where a nested merge would be unsound. May transiently
    /// push the pool past `rw_limit`; it shrinks back at the next
    /// rotation.
    fn rw_tail_no_reclaim(&mut self, ctx: &mut FtlContext<'_>) -> BlockAddr {
        let need_new = match self.rw_blocks.back() {
            None => true,
            Some(b) => ctx.flash.plane(b.plane).block(b.index).is_full(),
        };
        if need_new {
            let exclude = self.exclusions();
            let blk = self.alloc.allocate_rr(ctx.flash, &exclude);
            self.rw_blocks.push_back(blk);
        }
        *self.rw_blocks.back().expect("rw tail just ensured")
    }

    /// Make sure the RW tail block has a free page, rotating/merging as
    /// needed. May relocate arbitrary pages (merges), so callers must
    /// recompute any `current_ppn` taken before this call.
    fn ensure_rw_block(&mut self, ctx: &mut FtlContext<'_>) -> BlockAddr {
        let need_new = match self.rw_blocks.back() {
            None => true,
            Some(b) => ctx.flash.plane(b.plane).block(b.index).is_full(),
        };
        if need_new && self.rw_blocks.len() >= self.rw_limit {
            ctx.in_gc_phase(|ctx| self.reclaim_oldest_rw(ctx));
        }
        self.rw_tail_no_reclaim(ctx)
    }

    /// Append the newest version of `lpn` to the RW log, invalidating the
    /// superseded version. Retries past program failures (each consumes
    /// one log page, rolling to a fresh block when the tail fills).
    fn append_rw(&mut self, lpn: Lpn, ctx: &mut FtlContext<'_>) {
        loop {
            let blk = self.ensure_rw_block(ctx);
            // ensure_rw_block may have merged this LBN; recompute.
            let old = self.current_ppn(lpn, ctx.flash);
            if self.try_program_log_page(blk, lpn, ctx).is_some() {
                if let Some(old_ppn) = old {
                    self.invalidate_stale(lpn, old_ppn, ctx);
                }
                return;
            }
        }
    }

    /// A merge-destination program failed, consuming the aligned slot:
    /// the newest version of `lpn` (still at `src`) moves into the RW log
    /// instead. Never reclaims — we are mid-merge.
    fn relocate_failed_merge_page(&mut self, lpn: Lpn, src: Ppn, ctx: &mut FtlContext<'_>) {
        loop {
            let blk = self.rw_tail_no_reclaim(ctx);
            if self.try_program_log_page(blk, lpn, ctx).is_some() {
                self.invalidate_stale(lpn, src, ctx);
                return;
            }
        }
    }

    /// Merge away every LBN with live pages in the oldest RW block, then
    /// erase it.
    fn reclaim_oldest_rw(&mut self, ctx: &mut FtlContext<'_>) {
        let victim = self.rw_blocks.pop_front().expect("rw pool empty");
        loop {
            // Find one LBN still alive in the victim and full-merge it;
            // repeat until the victim holds no valid page.
            let first_live = ctx
                .flash
                .plane(victim.plane)
                .block(victim.index)
                .valid_offsets()
                .next();
            let Some(off) = first_live else { break };
            let ppn = self.geometry.ppn_of(dloop_nand::PageAddr {
                plane: victim.plane,
                block: victim.index,
                page: off,
            });
            let lbn = match ctx.dir.owner(ppn) {
                PageOwner::Data(lpn) => lpn / self.ppb() as u64,
                other => unreachable!("FAST log page owned by {other:?}"),
            };
            self.full_merge(lbn, ctx);
        }
        ctx.erase(victim);
    }

    /// The aligned copy both merges share: for every offset of `lbn` from
    /// `from` up, copy the newest version into `dest` at that same offset
    /// (the external-bus moves that make merges expensive). A copied
    /// page's log-map entry goes away with its old version, so the data
    /// block serves it from then on.
    fn copy_aligned(&mut self, lbn: u64, from: u32, dest: BlockAddr, ctx: &mut FtlContext<'_>) {
        let ppb = self.ppb();
        for off in from..ppb {
            let lpn = lbn * ppb as u64 + off as u64;
            let Some(src) = self.current_ppn(lpn, ctx.flash) else {
                // Keep offset alignment across the hole.
                ctx.flash.skip_next(dest).expect("merge dest full");
                continue;
            };
            let copy = FlashStep::InterPlaneCopy {
                src: self.geometry.plane_of_ppn(src),
                dst: dest.plane,
            };
            let attempt = ctx.flash.program_page(dest).expect("merge dest full");
            if attempt.failed {
                // The aligned slot was consumed by the failed program
                // (alignment holds for the remaining offsets, and the
                // block keeps a hole here); divert this page to the RW log.
                ctx.drain_failed_programs(copy);
                self.relocate_failed_merge_page(lpn, src, ctx);
                continue;
            }
            debug_assert_eq!(attempt.addr.page, off, "merge lost offset alignment");
            let new_ppn = self.geometry.ppn_of(attempt.addr);
            self.counters.external_moves += 1;
            ctx.push(copy);
            self.invalidate_version(lpn, src, ctx);
            ctx.dir.set_data(new_ppn, lpn);
        }
    }

    /// Full merge of one LBN (§II.A): newest version of every offset is
    /// copied into a fresh block; the old data block is erased.
    fn full_merge(&mut self, lbn: u64, ctx: &mut FtlContext<'_>) {
        self.counters.full_merges += 1;
        self.counters.gc_invocations += 1;
        let exclude = self.exclusions();
        let home = self.home_plane(lbn);
        let dest = self.alloc.allocate_sticky(home, ctx.flash, &exclude);
        self.copy_aligned(lbn, 0, dest, ctx);
        // The old data block now holds no live pages.
        if let Some(old) = self.data_map[lbn as usize] {
            debug_assert_eq!(ctx.flash.plane(old.plane).block(old.index).valid_pages(), 0);
            ctx.erase(old);
        }
        self.data_map[lbn as usize] = Some(dest);
        // If the SW block belonged to this LBN it is now fully invalid.
        if let Some(sw) = self.sw {
            if sw.lbn == lbn {
                let b = ctx.flash.plane(sw.block.plane).block(sw.block.index);
                if b.valid_pages() == 0 {
                    ctx.erase(sw.block);
                    self.sw = None;
                }
            }
        }
        // Drop RW blocks (other than the active tail) that died entirely.
        let mut kept = VecDeque::with_capacity(self.rw_blocks.len());
        let active = self.rw_blocks.back().copied();
        for blk in std::mem::take(&mut self.rw_blocks) {
            let b = ctx.flash.plane(blk.plane).block(blk.index);
            let is_active = Some(blk) == active;
            if !is_active && b.is_full() && b.valid_pages() == 0 {
                ctx.erase(blk);
            } else {
                kept.push_back(blk);
            }
        }
        self.rw_blocks = kept;
    }

    /// Retire the current SW block: switch merge if complete and clean,
    /// partial merge if clean but incomplete, full merge otherwise.
    fn retire_sw(&mut self, ctx: &mut FtlContext<'_>) {
        let Some(sw) = self.sw else {
            return;
        };
        if !sw.clean {
            // Some SW pages were superseded: only a full merge can sort it
            // out (which also erases the SW block).
            self.full_merge(sw.lbn, ctx);
            self.sw = None;
            return;
        }
        let ppb = self.ppb();
        if sw.next_off == ppb {
            self.switch_merge(sw, ctx);
        } else {
            self.partial_merge(sw, ctx);
        }
        self.sw = None;
    }

    /// Switch merge (§II.A): the complete, clean SW block simply becomes
    /// the data block; the old data block is erased.
    fn switch_merge(&mut self, sw: SwLog, ctx: &mut FtlContext<'_>) {
        self.counters.switch_merges += 1;
        self.counters.gc_invocations += 1;
        self.promote_sw(sw, ctx);
    }

    /// Partial merge (§II.A): copy the not-yet-written tail offsets from
    /// the old data block into the SW block, then switch.
    ///
    /// When no data block exists yet (a brand-new LBN written partially
    /// sequentially), the SW block is promoted as-is with its write
    /// pointer mid-block — later sequential appends can then continue
    /// in place.
    fn partial_merge(&mut self, sw: SwLog, ctx: &mut FtlContext<'_>) {
        self.counters.partial_merges += 1;
        self.counters.gc_invocations += 1;
        if self.data_map[sw.lbn as usize].is_none() {
            self.promote_sw(sw, ctx);
            return;
        }
        self.copy_aligned(sw.lbn, sw.next_off, sw.block, ctx);
        self.promote_sw(sw, ctx);
    }

    /// Make the SW block the data block for its LBN; clean up log entries
    /// and the superseded data block.
    fn promote_sw(&mut self, sw: SwLog, ctx: &mut FtlContext<'_>) {
        let ppb = self.ppb();
        // Log entries pointing into the SW block are now served by the
        // data-block path.
        for off in 0..ppb {
            let lpn = sw.lbn * ppb as u64 + off as u64;
            if let Some(&p) = self.log_map.get(&lpn) {
                if self.geometry.addr_of(p).block_addr() == sw.block {
                    self.log_map.remove(&lpn);
                }
            }
        }
        if let Some(old) = self.data_map[sw.lbn as usize] {
            debug_assert_eq!(
                ctx.flash.plane(old.plane).block(old.index).valid_pages(),
                0,
                "old data block still live after switch"
            );
            ctx.erase(old);
        }
        self.data_map[sw.lbn as usize] = Some(sw.block);
    }
}

impl Ftl for FastFtl {
    fn name(&self) -> &'static str {
        "FAST"
    }

    fn read(&mut self, lpn: Lpn, ctx: &mut FtlContext<'_>) {
        if let Some(ppn) = self.current_ppn(lpn, ctx.flash) {
            ctx.read_page(ppn);
        }
    }

    fn write(&mut self, lpn: Lpn, ctx: &mut FtlContext<'_>) {
        let (lbn, off) = self.split(lpn);

        // 1. In-place append into the data block when the offset lines up
        //    with its write pointer (covers continuations of partially
        //    filled data blocks promoted by partial merges).
        let in_place = self.data_map[lbn as usize].filter(|db| {
            let b = ctx.flash.plane(db.plane).block(db.index);
            !b.is_full() && b.next_free_page() == Some(off)
        });
        if let Some(db) = in_place {
            let old = self.current_ppn(lpn, ctx.flash);
            let attempt = ctx.flash.program_page(db).expect("data block full");
            ctx.drain_failed_programs(FlashStep::Write { plane: db.plane });
            if attempt.failed {
                // The aligned slot was consumed by a failed program: the
                // data block keeps a hole there and the write goes to the
                // RW log instead.
                self.append_rw(lpn, ctx);
                return;
            }
            let new_ppn = self.geometry.ppn_of(attempt.addr);
            ctx.push(FlashStep::Write { plane: db.plane });
            if let Some(old_ppn) = old {
                // The old version necessarily sits in a log block (the data
                // block's slot `off` was still free), so the log-map entry
                // must go away with it.
                self.invalidate_version(lpn, old_ppn, ctx);
            }
            ctx.dir.set_data(new_ppn, lpn);
            return;
        }

        // 2. Offset 0 starts a fresh SW log block (retiring the old one).
        if off == 0 {
            ctx.in_gc_phase(|ctx| self.retire_sw(ctx));
            // retire_sw may have merged this very LBN; recompute.
            let old = self.current_ppn(lpn, ctx.flash);
            let exclude = self.exclusions();
            let home = self.home_plane(lbn);
            let blk = self.alloc.allocate_sticky(home, ctx.flash, &exclude);
            self.sw = Some(SwLog {
                lbn,
                block: blk,
                next_off: 1,
                clean: true,
            });
            if self.try_program_log_page(blk, lpn, ctx).is_none() {
                // Page 0 was consumed by a failed program: the block cannot
                // host a clean sequential run. Keep it as a dirty SW block
                // (a full merge will retire it) and log the page instead.
                self.sw.as_mut().expect("sw just set").clean = false;
                self.append_rw(lpn, ctx);
                return;
            }
            if let Some(old_ppn) = old {
                self.invalidate_stale(lpn, old_ppn, ctx);
            }
            return;
        }

        // 3. Sequential continuation of the SW block.
        let sw_append = self
            .sw
            .is_some_and(|s| s.lbn == lbn && s.clean && s.next_off == off);
        if sw_append {
            let old = self.current_ppn(lpn, ctx.flash);
            let sw = self.sw.expect("just checked");
            if self.try_program_log_page(sw.block, lpn, ctx).is_none() {
                // The aligned slot was consumed by a failed program: the
                // SW block can no longer switch cleanly. Degrade it (a
                // full merge will retire it) and log the page instead.
                self.sw.as_mut().expect("sw").clean = false;
                self.append_rw(lpn, ctx);
                return;
            }
            if let Some(old_ppn) = old {
                self.invalidate_stale(lpn, old_ppn, ctx);
            }
            let sw = self.sw.as_mut().expect("sw");
            sw.next_off += 1;
            if sw.next_off == self.geometry.pages_per_block {
                ctx.in_gc_phase(|ctx| self.retire_sw(ctx));
            }
            return;
        }

        // 4. Everything else goes to the fully-associative RW log.
        self.append_rw(lpn, ctx);
    }

    fn mapped_ppn(&self, lpn: Lpn) -> Option<Ppn> {
        // Tests call this through the device, which holds the flash; FAST
        // needs flash access for the data-block path, so only the log map
        // is visible here. `current_ppn` is exercised via reads instead.
        self.log_map.get(&lpn).copied()
    }

    fn counters(&self) -> FtlCounters {
        self.counters
    }

    fn audit(&self, flash: &FlashState, dir: &PageDirectory) -> Result<(), String> {
        // Every log-map entry points at a valid page owned by that LPN.
        for (&lpn, &ppn) in &self.log_map {
            if flash.page_state(ppn) != PageState::Valid {
                return Err(format!("log entry lpn {lpn} at dead ppn {ppn}"));
            }
            if dir.owner(ppn) != PageOwner::Data(lpn) {
                return Err(format!("log entry lpn {lpn} owner mismatch"));
            }
        }
        // Every valid page of a data block either belongs to its offset's
        // LPN and is the newest version (no log entry), or is stale junk —
        // stale junk would be a bug, so check ownership strictly.
        let ppb = self.geometry.pages_per_block as u64;
        let mut live = self.log_map.len() as u64;
        for (lbn, db) in self.data_map.iter().enumerate() {
            let Some(db) = db else { continue };
            let b = flash.plane(db.plane).block(db.index);
            for off in b.valid_offsets() {
                let lpn = lbn as u64 * ppb + off as u64;
                let ppn = self.geometry.ppn_of(dloop_nand::PageAddr {
                    plane: db.plane,
                    block: db.index,
                    page: off,
                });
                if dir.owner(ppn) != PageOwner::Data(lpn) {
                    return Err(format!("data block {lbn} page {off} owner mismatch"));
                }
                if self.log_map.contains_key(&lpn) {
                    return Err(format!("lpn {lpn} valid in data block but shadowed by log"));
                }
                live += 1;
            }
        }
        // SW/RW log pages not in log_map would leak; count them.
        let mut log_pages = 0u64;
        let mut log_blocks: Vec<BlockAddr> = self.rw_blocks.iter().copied().collect();
        if let Some(sw) = self.sw {
            log_blocks.push(sw.block);
        }
        for blk in log_blocks {
            log_pages += flash.plane(blk.plane).block(blk.index).valid_pages() as u64;
        }
        if log_pages != self.log_map.len() as u64 {
            return Err(format!(
                "{log_pages} live log pages but {} log entries",
                self.log_map.len()
            ));
        }
        if live != flash.total_valid_pages() {
            return Err(format!(
                "accounted {live} live pages, flash reports {}",
                flash.total_valid_pages()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dloop_ftl_kit::dir::PageDirectory;
    use dloop_ftl_kit::ftl::{OpChain, Phase};

    struct Rig {
        flash: FlashState,
        dir: PageDirectory,
        host: OpChain,
        gc: OpChain,
        scan: OpChain,
        ftl: FastFtl,
        config: SsdConfig,
    }

    impl Rig {
        fn new() -> Self {
            let config = SsdConfig::micro_gc_test();
            Rig {
                flash: FlashState::new(config.geometry()),
                dir: PageDirectory::new(&config.geometry()),
                host: OpChain::new(),
                gc: OpChain::new(),
                scan: OpChain::new(),
                ftl: FastFtl::new(&config),
                config,
            }
        }

        fn write(&mut self, lpn: Lpn) {
            self.host.clear();
            self.gc.clear();
            self.scan.clear();
            let mut ctx = FtlContext {
                flash: &mut self.flash,
                dir: &mut self.dir,
                host_chain: &mut self.host,
                gc_chain: &mut self.gc,
                scan_chain: &mut self.scan,
                phase: Phase::Host,
            };
            self.ftl.write(lpn, &mut ctx);
        }
    }

    #[test]
    fn rw_limit_is_funded_by_extras() {
        let rig = Rig::new();
        let g = rig.config.geometry();
        let extras = g.extra_blocks_per_plane() as u64 * g.total_planes() as u64;
        assert!(rig.ftl.rw_limit as u64 <= extras);
        assert!(rig.ftl.rw_limit >= 2);
    }

    #[test]
    fn sequential_block_switch_merges_without_copies() {
        let mut rig = Rig::new();
        let ppb = rig.config.geometry().pages_per_block as u64;
        for lpn in 0..ppb {
            rig.write(lpn);
        }
        assert_eq!(rig.ftl.counters().switch_merges, 1);
        assert_eq!(rig.ftl.counters().external_moves, 0);
        rig.ftl.audit(&rig.flash, &rig.dir).unwrap();
    }

    #[test]
    fn off_zero_restart_retires_sw() {
        let mut rig = Rig::new();
        let ppb = rig.config.geometry().pages_per_block as u64;
        rig.write(0);
        rig.write(1);
        // Restarting at another block's offset 0 retires the SW block.
        rig.write(ppb);
        let c = rig.ftl.counters();
        assert_eq!(c.partial_merges, 1, "{c:?}");
        rig.ftl.audit(&rig.flash, &rig.dir).unwrap();
    }

    #[test]
    fn random_offsets_go_to_rw_log() {
        let mut rig = Rig::new();
        // Non-zero offsets with no data block: all to the RW log.
        for lpn in [5u64, 130, 7, 200, 9] {
            rig.write(lpn);
        }
        let c = rig.ftl.counters();
        assert_eq!(c.switch_merges + c.partial_merges + c.full_merges, 0);
        // They are page-mapped in the log.
        for lpn in [5u64, 130, 7, 200, 9] {
            assert!(
                rig.ftl.mapped_ppn(lpn).is_some(),
                "lpn {lpn} not in log map"
            );
        }
        rig.ftl.audit(&rig.flash, &rig.dir).unwrap();
    }

    #[test]
    fn dirty_sw_forces_full_merge_on_retire() {
        let mut rig = Rig::new();
        let ppb = rig.config.geometry().pages_per_block as u64;
        rig.write(0); // SW for lbn 0
        rig.write(1);
        rig.write(1); // random update of an SW page -> SW dirty (to RW)
        rig.write(ppb); // retire SW
        let c = rig.ftl.counters();
        assert_eq!(c.full_merges, 1, "{c:?}");
        assert_eq!(c.partial_merges, 0, "{c:?}");
        rig.ftl.audit(&rig.flash, &rig.dir).unwrap();
    }
}
