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
use dloop_ftl_kit::demand::{DemandMap, TranslationPlacement};
use dloop_ftl_kit::dir::{PageDirectory, PageOwner};
use dloop_ftl_kit::ftl::{FlashStep, Ftl, FtlContext, FtlCounters};
use dloop_nand::{BlockAddr, FlashState, Geometry, Lpn, PageAddr, PlaneId, Ppn};

/// The DFTL baseline.
pub struct DftlFtl {
    geometry: Geometry,
    dm: DemandMap,
    streams: Streams,
    counters: FtlCounters,
    /// GC triggers when total free blocks fall below this (aggregate slack
    /// equal to DLOOP's per-plane threshold for a fair comparison).
    gc_threshold_total: u64,
    /// `collect_one`'s per-plane scan scratch: the plane's excluded block
    /// indices and its fully-invalid blocks.
    excluded: Vec<u32>,
    sweep: Vec<u32>,
    /// `collect_one`'s victim split: live pages to copy as `(ppn, owner)`,
    /// and translation pages to rewrite instead. Kept between collections
    /// so that, once grown to a block's worth, a collection allocates
    /// nothing.
    moves: Vec<(Ppn, PageOwner)>,
    rewrites: Vec<u64>,
}

/// DFTL's two write streams: one global data active block, rotating
/// round-robin across planes, and one translation active block, sticky to
/// plane 0 (paper §V.D).
struct Streams {
    alloc: SeqAllocator,
    data: Option<BlockAddr>,
    translation: Option<BlockAddr>,
}

impl Streams {
    /// Both active blocks, which GC must leave alone. A stream without an
    /// active block repeats the other's, so the pair is a fixed array
    /// (`None` while neither stream has one).
    fn exclusions(&self) -> Option<[BlockAddr; 2]> {
        Some([
            self.data.or(self.translation)?,
            self.translation.or(self.data)?,
        ])
    }

    /// Program the next page of one stream, rolling to a new block when
    /// full: translation blocks from plane 0 forward, data blocks
    /// round-robin. `exclude` names the blocks an emergency reclaim must
    /// spare.
    fn program(&mut self, translation: bool, exclude: &[BlockAddr], flash: &mut FlashState) -> Ppn {
        let Streams {
            alloc,
            data,
            translation: trans,
        } = self;
        let active = if translation { trans } else { data };
        loop {
            let need_new = match *active {
                None => true,
                Some(b) => flash.plane(b.plane).block(b.index).is_full(),
            };
            if need_new {
                *active = Some(match translation {
                    true => alloc.allocate_sticky(0, flash, exclude),
                    false => alloc.allocate_rr(flash, exclude),
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

    /// Program the next translation page (an emergency reclaim may take a
    /// dead translation block, never the data block).
    fn program_translation(&mut self, flash: &mut FlashState) -> Ppn {
        let data = self.data;
        self.program(true, data.as_slice(), flash)
    }
}

impl TranslationPlacement for Streams {
    fn place(&mut self, ctx: &mut FtlContext<'_>, tvpn: u64) -> Ppn {
        let ppn = self.program_translation(ctx.flash);
        ctx.dir.set_translation(ppn, tvpn);
        ctx.push_program(ctx.flash.geometry().plane_of_ppn(ppn));
        ppn
    }

    /// Some plane can still absorb a write without emergency reclaim.
    fn has_room(&self, ctx: &FtlContext<'_>, _tvpn: u64) -> bool {
        ctx.flash.total_free_blocks() > 0
            || self
                .translation
                .is_some_and(|b| !ctx.flash.plane(b.plane).block(b.index).is_full())
    }
}

impl DftlFtl {
    /// Build from a device configuration.
    pub fn new(config: &SsdConfig) -> Self {
        let geometry = config.geometry();
        let planes = geometry.total_planes();
        DftlFtl {
            dm: DemandMap::new(&geometry, config.cmt_capacity),
            streams: Streams {
                alloc: SeqAllocator::new(planes),
                data: None,
                translation: None,
            },
            counters: FtlCounters::default(),
            gc_threshold_total: config.gc_threshold as u64 * planes as u64,
            excluded: Vec::new(),
            sweep: Vec::new(),
            moves: Vec::new(),
            rewrites: Vec::new(),
            geometry,
        }
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
        let exclude = self.streams.exclusions();
        let exclude = exclude.as_slice().as_flattened();
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

        // Pages with deferred updates are persisted (and thereby relocated)
        // by a read-modify-write instead of a copy.
        debug_assert!(self.moves.is_empty() && self.rewrites.is_empty());
        let (plane, block) = (victim.plane, victim.index);
        for page in ctx.flash.plane(plane).block(block).valid_offsets() {
            let ppn = self.geometry.ppn_of(PageAddr { plane, block, page });
            match ctx.dir.owner(ppn) {
                PageOwner::Translation(t) if self.dm.pending_count(t) > 0 => self.rewrites.push(t),
                owner => self.moves.push((ppn, owner)),
            }
        }
        let mut moves = std::mem::take(&mut self.moves);
        for (old_ppn, owner) in moves.drain(..) {
            self.gc_move(plane, old_ppn, owner, ctx);
        }
        self.moves = moves;
        // Rewrites reading the in-victim copy happen before the erase.
        for tvpn in self.rewrites.drain(..) {
            self.dm
                .rewrite_translation_page(tvpn, ctx, &mut self.streams);
        }
        // A failed victim erase retires the block (capacity shrinks), but
        // the collection itself completed: the valid pages moved out.
        ctx.erase(victim);

        // Keep the deferred-update buffer within budget (only while some
        // plane can still absorb a write without emergency reclaim).
        self.dm.flush_pending_over_budget(ctx, &mut self.streams);
        true
    }

    /// Move one live page of a GC victim on plane `src` over the external
    /// bus: data into the data active block, a translation page into the
    /// translation active block (sticky on plane 0, and free to reclaim a
    /// dead translation block in an emergency).
    fn gc_move(&mut self, src: PlaneId, old_ppn: Ppn, owner: PageOwner, ctx: &mut FtlContext<'_>) {
        let new_ppn = if let PageOwner::Translation(_) = owner {
            self.streams.program_translation(ctx.flash)
        } else {
            let exclude = self.streams.exclusions();
            let exclude = exclude.as_slice().as_flattened();
            self.streams.program(false, exclude, ctx.flash)
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
}

impl Ftl for DftlFtl {
    fn name(&self) -> &'static str {
        "DFTL"
    }

    fn read(&mut self, lpn: Lpn, ctx: &mut FtlContext<'_>) {
        let mapped = self.dm.ensure_cached(lpn, ctx, &mut self.streams);
        if let Some(ppn) = mapped {
            ctx.read_page(ppn);
        }
        ctx.in_gc_phase(|ctx| self.maybe_gc(ctx));
    }

    fn write(&mut self, lpn: Lpn, ctx: &mut FtlContext<'_>) {
        let old = self.dm.ensure_cached(lpn, ctx, &mut self.streams);
        let translation = self.streams.translation;
        let new_ppn = self
            .streams
            .program(false, translation.as_slice(), ctx.flash);
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
        self.dm.audit(flash, dir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dloop_ftl_kit::dir::PageDirectory;
    use dloop_ftl_kit::ftl::{OpChain, Phase};
    use dloop_nand::PageState;

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

        /// Run one FTL operation with the chains cleared first.
        fn op(&mut self, f: impl FnOnce(&mut DftlFtl, &mut FtlContext<'_>)) {
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
            f(&mut self.ftl, &mut ctx);
        }

        fn write(&mut self, lpn: Lpn) {
            self.op(|ftl, ctx| ftl.write(lpn, ctx));
        }

        fn read(&mut self, lpn: Lpn) {
            self.op(|ftl, ctx| ftl.read(lpn, ctx));
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
        let (hits, misses) = rig.ftl.dm.cmt_stats();
        assert!(hits >= 1);
        assert!(misses >= 2);
    }
}
