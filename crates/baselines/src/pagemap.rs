//! An idealised page-mapping FTL: the whole mapping table lives in SRAM.
//!
//! Not part of the paper's comparison — it exists as an *ablation bound*:
//! it calls DLOOP's placement ([`PlaneAllocator`]) and copy-back GC
//! ([`GcEngine`]'s scan, sweep and relocation) but pays zero translation
//! traffic, so the gap between `IDEAL` and `DLOOP` isolates the cost of
//! demand-caching the mapping table, and the gap between `IDEAL` and
//! `DFTL` bounds what any page-mapping FTL could gain from plane-aware
//! placement. Two loop policies stay its own — no feasibility check, and
//! collecting until the threshold is met rather than until a pass stops
//! gaining blocks: both guards are DLOOP's answer to an over-full
//! device, and adopting them here would move the bound's rows.

use dloop::alloc::{BlockClass, PlaneAllocator};
use dloop::gc::GcEngine;
use dloop_ftl_kit::config::SsdConfig;
use dloop_ftl_kit::dir::{PageDirectory, PageOwner};
use dloop_ftl_kit::ftl::{Ftl, FtlContext, FtlCounters};
use dloop_nand::{BlockAddr, FlashState, Geometry, Lpn, PageState, PlaneId, Ppn};

const UNMAPPED: Ppn = Ppn::MAX;

/// Page mapping with unlimited SRAM.
pub struct IdealPageMapFtl {
    geometry: Geometry,
    map: Vec<Ppn>,
    alloc: PlaneAllocator,
    gc: GcEngine,
    counters: FtlCounters,
}

impl IdealPageMapFtl {
    /// Build from a device configuration.
    pub fn new(config: &SsdConfig) -> Self {
        let geometry = config.geometry();
        let planes = geometry.total_planes();
        IdealPageMapFtl {
            map: vec![UNMAPPED; geometry.user_pages() as usize],
            alloc: PlaneAllocator::new(planes),
            gc: GcEngine::new(config.gc_threshold, config.copyback_enabled),
            counters: FtlCounters::default(),
            geometry,
        }
    }

    fn plane_of_lpn(&self, lpn: Lpn) -> PlaneId {
        self.geometry.dloop_plane_of_lpn(lpn)
    }

    fn maybe_gc(&mut self, ctx: &mut FtlContext<'_>) {
        let mut touched = Vec::new();
        loop {
            self.alloc.take_touched(&mut touched);
            if touched.is_empty() {
                break;
            }
            for &plane in &touched {
                while ctx.flash.free_blocks(plane) < self.gc.threshold() {
                    if !self.collect_one(plane, ctx) {
                        break;
                    }
                }
            }
        }
    }

    /// DLOOP's pass (see `dloop::gc`) minus the feasibility check, the
    /// translation rewrites and the pending-update flush.
    fn collect_one(&mut self, plane: PlaneId, ctx: &mut FtlContext<'_>) -> bool {
        let exclude = self.alloc.exclusions(plane);
        let counters = &mut self.counters;
        let victim = match self.gc.sweep_or_pick(plane, &exclude, counters, ctx) {
            Ok(victim) => victim,
            Err(reclaimed) => return reclaimed,
        };
        counters.gc_invocations += 1;
        self.gc.queue_live_pages(plane, victim, ctx, |_| false);
        let remap = |owner, _, new_ppn, ctx: &mut FtlContext<'_>| {
            let PageOwner::Data(lpn) = owner else {
                unreachable!("ideal page map owns only data pages");
            };
            self.map[lpn as usize] = new_ppn;
            ctx.dir.set_data(new_ppn, lpn);
        };
        self.gc
            .relocate(plane, &mut self.alloc, counters, ctx, remap);
        ctx.erase(BlockAddr {
            plane,
            index: victim,
        });
        true
    }
}

impl Ftl for IdealPageMapFtl {
    fn name(&self) -> &'static str {
        "IDEAL"
    }

    fn read(&mut self, lpn: Lpn, ctx: &mut FtlContext<'_>) {
        let ppn = self.map[lpn as usize];
        if ppn != UNMAPPED {
            ctx.read_page(ppn);
        }
    }

    fn write(&mut self, lpn: Lpn, ctx: &mut FtlContext<'_>) {
        let plane = self.plane_of_lpn(lpn);
        let addr = self.alloc.place(plane, BlockClass::Data, ctx.flash);
        let new_ppn = self.geometry.ppn_of(addr);
        ctx.push_program(plane);
        let old = self.map[lpn as usize];
        if old != UNMAPPED {
            ctx.flash.invalidate(old).expect("stale mapping on update");
            ctx.dir.clear(old);
        }
        self.map[lpn as usize] = new_ppn;
        ctx.dir.set_data(new_ppn, lpn);
        ctx.in_gc_phase(|ctx| self.maybe_gc(ctx));
    }

    fn mapped_ppn(&self, lpn: Lpn) -> Option<Ppn> {
        let p = self.map[lpn as usize];
        (p != UNMAPPED).then_some(p)
    }

    fn counters(&self) -> FtlCounters {
        let mut c = self.counters;
        c.parity_skips = self.alloc.parity_skips;
        c
    }

    fn audit(&self, flash: &FlashState, dir: &PageDirectory) -> Result<(), String> {
        let mut live = 0u64;
        for (lpn, &ppn) in self.map.iter().enumerate() {
            if ppn == UNMAPPED {
                continue;
            }
            if flash.page_state(ppn) != PageState::Valid {
                return Err(format!("lpn {lpn} maps to non-valid ppn {ppn}"));
            }
            if dir.owner(ppn) != PageOwner::Data(lpn as Lpn) {
                return Err(format!("directory disagrees for lpn {lpn}"));
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
}
