//! DFTL (Gupta, Kim, Urgaonkar — ASPLOS'09), as the paper evaluates it.
//!
//! DFTL is a pure page-mapping FTL with demand-cached mappings: the same
//! CMT/GTD machinery DLOOP inherits ([`DemandMap`]), but **plane-oblivious
//! placement**:
//!
//! * one global *data* active block and one global *translation* active
//!   block, both fed by the sequential allocator — so bursts of writes
//!   serialise on whichever plane currently hosts the data block, and the
//!   mapping blocks initially cluster on plane 0 (§V.B, §V.D);
//! * garbage collection picks the most-invalid block device-wide and moves
//!   valid pages **over the external bus** to the current active blocks
//!   (no copy-back — DFTL does not exploit plane-level parallelism).

use crate::seqalloc::SeqAllocator;
use dloop_ftl_kit::config::SsdConfig;
use dloop_ftl_kit::demand::DemandMap;
use dloop_ftl_kit::dir::{PageDirectory, PageOwner};
use dloop_ftl_kit::ftl::{FlashStep, Ftl, FtlContext, FtlCounters};
use dloop_nand::{BlockAddr, FlashState, Geometry, Lpn, PageState, PlaneId, Ppn};

/// The DFTL baseline.
pub struct DftlFtl {
    geometry: Geometry,
    dm: DemandMap,
    alloc: SeqAllocator,
    data_active: Option<BlockAddr>,
    trans_active: Option<BlockAddr>,
    counters: FtlCounters,
    /// GC triggers when total free blocks fall below this (aggregate slack
    /// equal to DLOOP's per-plane threshold for a fair comparison).
    gc_threshold_total: u64,
    /// `collect_one`'s per-plane scan scratch: the plane's excluded block
    /// indices and its fully-invalid blocks.
    excluded: Vec<u32>,
    sweep: Vec<u32>,
}

impl DftlFtl {
    /// Build from a device configuration.
    pub fn new(config: &SsdConfig) -> Self {
        let geometry = config.geometry();
        let planes = geometry.total_planes();
        DftlFtl {
            dm: DemandMap::new(&geometry, config.cmt_capacity),
            alloc: SeqAllocator::new(planes),
            data_active: None,
            trans_active: None,
            counters: FtlCounters::default(),
            gc_threshold_total: config.gc_threshold as u64 * planes as u64,
            excluded: Vec::new(),
            sweep: Vec::new(),
            geometry,
        }
    }

    /// CMT hit/miss statistics.
    pub fn cmt_stats(&self) -> (u64, u64) {
        self.dm.cmt_stats()
    }

    fn exclusions(&self) -> Vec<BlockAddr> {
        self.data_active
            .iter()
            .chain(self.trans_active.iter())
            .copied()
            .collect()
    }

    /// Program the next page of the chosen active block, rolling to a new
    /// block when full. Data blocks rotate round-robin across planes;
    /// translation blocks stick to plane 0 (paper §V.D).
    fn place(
        alloc: &mut SeqAllocator,
        active: &mut Option<BlockAddr>,
        sticky_home: Option<dloop_nand::PlaneId>,
        exclude: &[BlockAddr],
        flash: &mut FlashState,
    ) -> Ppn {
        loop {
            let need_new = match *active {
                None => true,
                Some(b) => flash.plane(b.plane).block(b.index).is_full(),
            };
            if need_new {
                *active = Some(match sticky_home {
                    Some(home) => alloc.allocate_sticky(home, flash, exclude),
                    None => alloc.allocate_rr(flash, exclude),
                });
            }
            let blk = active.expect("active block just ensured");
            let attempt = flash.program_page(blk).expect("active block full");
            if !attempt.failed {
                return flash.geometry().ppn_of(attempt.addr);
            }
            // Program-status failure: the page is consumed; retry on the
            // next sequential page (rolling to a new block when full).
        }
    }

    fn place_translation_page(
        alloc: &mut SeqAllocator,
        trans_active: &mut Option<BlockAddr>,
        data_active: Option<BlockAddr>,
        ctx: &mut FtlContext<'_>,
        tvpn: u64,
    ) -> Ppn {
        let exclude: Vec<BlockAddr> = data_active.into_iter().collect();
        let ppn = Self::place(alloc, trans_active, Some(0), &exclude, ctx.flash);
        ctx.dir.set_translation(ppn, tvpn);
        let plane = ctx.flash.geometry().plane_of_ppn(ppn);
        ctx.push_program(plane);
        ppn
    }

    fn ensure_cached(&mut self, lpn: Lpn, ctx: &mut FtlContext<'_>) -> Option<Ppn> {
        let alloc = &mut self.alloc;
        let trans_active = &mut self.trans_active;
        let data_active = self.data_active;
        let mut place = |ctx: &mut FtlContext<'_>, tvpn: u64| {
            Self::place_translation_page(alloc, trans_active, data_active, ctx, tvpn)
        };
        self.dm.ensure_cached(lpn, ctx, &mut place)
    }

    /// Device-wide GC: sweep fully-invalid blocks, then move-based collect
    /// of the most-invalid block. All moves cross the external bus.
    fn maybe_gc(&mut self, ctx: &mut FtlContext<'_>) {
        let mut guard = 0;
        while ctx.flash.total_free_blocks() < self.gc_threshold_total {
            if !self.collect_one(ctx) {
                break;
            }
            guard += 1;
            assert!(guard < 100_000, "DFTL GC failed to converge");
        }
    }

    fn collect_one(&mut self, ctx: &mut FtlContext<'_>) -> bool {
        let exclude = self.exclusions();
        // One scan per plane: erase its fully-invalid blocks at once and
        // fold its most-invalid block into the device-wide choice (the
        // lowest plane wins ties).
        let mut swept = false;
        let mut best: Option<(u32, BlockAddr)> = None;
        for plane in self.geometry.planes() {
            self.excluded.clear();
            self.excluded
                .extend(exclude.iter().filter(|b| b.plane == plane).map(|b| b.index));
            self.sweep.clear();
            let candidate = ctx
                .flash
                .plane(plane)
                .gc_candidates(&self.excluded, &mut self.sweep);
            for &index in &self.sweep {
                ctx.erase(BlockAddr { plane, index });
                swept = true;
            }
            if let Some((inv, index)) = candidate {
                if best.is_none_or(|(bi, _)| inv > bi) {
                    best = Some((inv, BlockAddr { plane, index }));
                }
            }
        }
        if swept {
            self.counters.gc_invocations += 1;
            return true;
        }
        let Some((1.., victim)) = best else {
            return false;
        };
        self.counters.gc_invocations += 1;

        let geometry = self.geometry.clone();
        let offsets: Vec<u32> = ctx
            .flash
            .plane(victim.plane)
            .block(victim.index)
            .valid_offsets()
            .collect();
        let mut jobs = Vec::with_capacity(offsets.len());
        let mut rewrite_now: Vec<u64> = Vec::new();
        for off in offsets {
            let ppn = geometry.ppn_of(dloop_nand::PageAddr {
                plane: victim.plane,
                block: victim.index,
                page: off,
            });
            let owner = ctx.dir.owner(ppn);
            if let PageOwner::Translation(tvpn) = owner {
                // Pages with deferred updates are persisted (and thereby
                // relocated) by a read-modify-write instead of a copy.
                if self.dm.pending_count(tvpn) > 0 {
                    rewrite_now.push(tvpn);
                    continue;
                }
            }
            jobs.push((ppn, owner));
        }
        for (old_ppn, owner) in jobs {
            self.gc_move(victim.plane, old_ppn, owner, ctx);
        }

        // Rewrites reading the in-victim copy happen before the erase.
        for tvpn in rewrite_now {
            self.rewrite(tvpn, ctx);
        }
        // A failed victim erase retires the block (capacity shrinks), but
        // the collection itself completed: the valid pages moved out.
        ctx.erase(victim);

        // Keep the deferred-update buffer within budget (only while some
        // plane can still absorb a write without emergency reclaim).
        let alloc = &mut self.alloc;
        let trans_active = std::cell::RefCell::new(&mut self.trans_active);
        let data_active = self.data_active;
        let mut can_place = |ctx: &FtlContext<'_>, _tvpn: u64| {
            ctx.flash.total_free_blocks() > 0
                || trans_active
                    .borrow()
                    .is_some_and(|b| !ctx.flash.plane(b.plane).block(b.index).is_full())
        };
        let mut place = |ctx: &mut FtlContext<'_>, tvpn: u64| {
            Self::place_translation_page(alloc, *trans_active.borrow_mut(), data_active, ctx, tvpn)
        };
        self.dm
            .flush_pending_over_budget(ctx, &mut can_place, &mut place);
        true
    }

    /// Move one live page of a GC victim on plane `src` over the external
    /// bus: data into the data active block, a translation page into the
    /// translation active block (sticky on plane 0, and free to reclaim a
    /// dead translation block in an emergency).
    fn gc_move(&mut self, src: PlaneId, old_ppn: Ppn, owner: PageOwner, ctx: &mut FtlContext<'_>) {
        let new_ppn = if let PageOwner::Translation(_) = owner {
            let exclude: Vec<BlockAddr> = self.data_active.into_iter().collect();
            let active = &mut self.trans_active;
            Self::place(&mut self.alloc, active, Some(0), &exclude, ctx.flash)
        } else {
            let exclude = self.exclusions();
            let active = &mut self.data_active;
            Self::place(&mut self.alloc, active, None, &exclude, ctx.flash)
        };
        self.counters.external_moves += 1;
        let copy = FlashStep::InterPlaneCopy {
            src,
            dst: self.geometry.plane_of_ppn(new_ppn),
        };
        // Failed program attempts repeat the whole move.
        ctx.drain_failed_programs(copy);
        ctx.push(copy);
        self.dm.gc_remap(owner, old_ppn, new_ppn, ctx);
        ctx.flash.invalidate(old_ppn).expect("GC source not valid");
        ctx.dir.clear(old_ppn);
    }

    fn rewrite(&mut self, tvpn: u64, ctx: &mut FtlContext<'_>) {
        let alloc = &mut self.alloc;
        let trans_active = &mut self.trans_active;
        let data_active = self.data_active;
        let mut place = |ctx: &mut FtlContext<'_>, tvpn: u64| {
            Self::place_translation_page(alloc, trans_active, data_active, ctx, tvpn)
        };
        self.dm.rewrite_translation_page(tvpn, ctx, &mut place);
    }
}

impl Ftl for DftlFtl {
    fn name(&self) -> &'static str {
        "DFTL"
    }

    fn read(&mut self, lpn: Lpn, ctx: &mut FtlContext<'_>) {
        let mapped = self.ensure_cached(lpn, ctx);
        if let Some(ppn) = mapped {
            ctx.read_page(ppn);
        }
        ctx.in_gc_phase(|ctx| self.maybe_gc(ctx));
    }

    fn write(&mut self, lpn: Lpn, ctx: &mut FtlContext<'_>) {
        let old = self.ensure_cached(lpn, ctx);
        let exclude: Vec<BlockAddr> = self.trans_active.into_iter().collect();
        let new_ppn = Self::place(
            &mut self.alloc,
            &mut self.data_active,
            None,
            &exclude,
            ctx.flash,
        );
        ctx.push_program(self.geometry.plane_of_ppn(new_ppn));
        if let Some(old_ppn) = old {
            ctx.flash
                .invalidate(old_ppn)
                .expect("stale mapping on update");
            ctx.dir.clear(old_ppn);
        }
        ctx.dir.set_data(new_ppn, lpn);
        self.dm.commit_write(lpn, new_ppn);
        ctx.in_gc_phase(|ctx| self.maybe_gc(ctx));
    }

    fn mapped_ppn(&self, lpn: Lpn) -> Option<Ppn> {
        self.dm.mapped(lpn)
    }

    fn counters(&self) -> FtlCounters {
        let mut c = self.counters;
        c.translation_reads = self.dm.counters.translation_reads;
        c.translation_writes = self.dm.counters.translation_writes;
        c
    }

    fn audit(&self, flash: &FlashState, dir: &PageDirectory) -> Result<(), String> {
        self.dm.check()?;
        let mut live = 0u64;
        for (lpn, ppn) in self.dm.iter_mapped() {
            if flash.page_state(ppn) != PageState::Valid {
                return Err(format!("lpn {lpn} maps to non-valid ppn {ppn}"));
            }
            if dir.owner(ppn) != PageOwner::Data(lpn) {
                return Err(format!("directory disagrees for lpn {lpn}"));
            }
            live += 1;
        }
        for tvpn in 0..self.geometry.translation_page_count() {
            if let Some(tp) = self.dm.gtd().lookup(tvpn) {
                if flash.page_state(tp) != PageState::Valid {
                    return Err(format!("tvpn {tvpn} at dead ppn {tp}"));
                }
                if dir.owner(tp) != PageOwner::Translation(tvpn) {
                    return Err(format!("directory disagrees for tvpn {tvpn}"));
                }
                live += 1;
            }
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
        ftl: DftlFtl,
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
                ftl: DftlFtl::new(&config),
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

        fn read(&mut self, lpn: Lpn) {
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
            self.ftl.read(lpn, &mut ctx);
        }
    }

    #[test]
    fn first_write_maps_and_pushes_one_write_step() {
        let mut rig = Rig::new();
        rig.write(7);
        assert!(rig.ftl.mapped_ppn(7).is_some());
        assert_eq!(
            rig.host
                .steps()
                .iter()
                .filter(|s| matches!(s, FlashStep::Write { .. }))
                .count(),
            1
        );
        rig.ftl.audit(&rig.flash, &rig.dir).unwrap();
    }

    #[test]
    fn update_relocates_and_invalidates() {
        let mut rig = Rig::new();
        rig.write(9);
        let old = rig.ftl.mapped_ppn(9).unwrap();
        rig.write(9);
        let new = rig.ftl.mapped_ppn(9).unwrap();
        assert_ne!(old, new);
        assert_ne!(rig.flash.page_state(old), PageState::Valid);
        rig.ftl.audit(&rig.flash, &rig.dir).unwrap();
    }

    #[test]
    fn writes_fill_one_block_before_moving_on() {
        let mut rig = Rig::new();
        let ppb = rig.flash.geometry().pages_per_block as u64;
        let mut planes = std::collections::BTreeSet::new();
        for lpn in 0..ppb {
            rig.write(lpn);
            let ppn = rig.ftl.mapped_ppn(lpn).unwrap();
            planes.insert(rig.flash.geometry().plane_of_ppn(ppn));
        }
        assert_eq!(
            planes.len(),
            1,
            "one active block serialises a block's worth"
        );
    }

    #[test]
    fn read_of_mapped_page_pushes_read_step() {
        let mut rig = Rig::new();
        rig.write(3);
        rig.read(3);
        assert!(rig
            .host
            .steps()
            .iter()
            .any(|s| matches!(s, FlashStep::Read { .. })));
    }

    #[test]
    fn cmt_stats_accumulate() {
        let mut rig = Rig::new();
        rig.write(1);
        rig.read(1); // hit
        rig.read(2); // miss (unmapped)
        let (hits, misses) = rig.ftl.cmt_stats();
        assert!(hits >= 1);
        assert!(misses >= 2);
    }
}
