//! An idealised page-mapping FTL: the whole mapping table lives in SRAM.
//!
//! Not part of the paper's comparison — it exists as an *ablation bound*:
//! it uses DLOOP's placement and copy-back GC but pays zero translation
//! traffic, so the gap between `IDEAL` and `DLOOP` isolates the cost of
//! demand-caching the mapping table, and the gap between `IDEAL` and
//! `DFTL` bounds what any page-mapping FTL could gain from plane-aware
//! placement.

use dloop::alloc::{BlockClass, PlaneAllocator};
use dloop_ftl_kit::config::SsdConfig;
use dloop_ftl_kit::dir::{PageDirectory, PageOwner};
use dloop_ftl_kit::ftl::{FlashStep, Ftl, FtlContext, FtlCounters};
use dloop_nand::{BlockAddr, FlashState, Geometry, Lpn, PageAddr, PageState, PlaneId, Ppn};

const UNMAPPED: Ppn = Ppn::MAX;

/// Page mapping with unlimited SRAM.
pub struct IdealPageMapFtl {
    geometry: Geometry,
    map: Vec<Ppn>,
    alloc: PlaneAllocator,
    counters: FtlCounters,
    gc_threshold: u32,
    copyback: bool,
}

impl IdealPageMapFtl {
    /// Build from a device configuration.
    pub fn new(config: &SsdConfig) -> Self {
        let geometry = config.geometry();
        let planes = geometry.total_planes();
        IdealPageMapFtl {
            map: vec![UNMAPPED; geometry.user_pages() as usize],
            alloc: PlaneAllocator::new(planes),
            counters: FtlCounters::default(),
            gc_threshold: config.gc_threshold,
            copyback: config.copyback_enabled,
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
                while ctx.flash.free_blocks(plane) < self.gc_threshold {
                    if !self.collect_one(plane, ctx) {
                        break;
                    }
                }
            }
        }
    }

    fn collect_one(&mut self, plane: PlaneId, ctx: &mut FtlContext<'_>) -> bool {
        let exclude = self.alloc.exclusions(plane);
        // Free sweep first (see dloop::gc for the rationale).
        let full_invalid: Vec<u32> = ctx
            .flash
            .plane(plane)
            .blocks()
            .filter(|(i, b)| {
                !exclude.contains(i)
                    && !ctx.flash.plane(plane).in_free_pool(*i)
                    && !b.is_pristine()
                    && b.valid_pages() == 0
            })
            .map(|(i, _)| i)
            .collect();
        if !full_invalid.is_empty() {
            self.counters.gc_invocations += 1;
            for index in full_invalid {
                ctx.push(FlashStep::Erase { plane });
                ctx.flash
                    .erase_and_pool(BlockAddr { plane, index })
                    .expect("sweep erase failed");
            }
            return true;
        }
        let Some(victim) = ctx.flash.plane(plane).victim_with_max_invalid(&exclude) else {
            return false;
        };
        if ctx.flash.plane(plane).block(victim).invalid_pages() == 0 {
            return false;
        }
        self.counters.gc_invocations += 1;
        let offsets: Vec<u32> = ctx
            .flash
            .plane(plane)
            .block(victim)
            .valid_offsets()
            .collect();
        // Parity-aware move ordering (see dloop::gc).
        let mut queues: [std::collections::VecDeque<u32>; 2] =
            [Default::default(), Default::default()];
        for off in offsets {
            queues[(off & 1) as usize].push_back(off);
        }
        let mut waste_budget = self.geometry.pages_per_block / 8;
        while queues.iter().any(|q| !q.is_empty()) {
            let (off, forced_external) = if self.copyback {
                let want = self.alloc.next_parity(plane, BlockClass::Data, ctx.flash) as usize;
                match queues[want].pop_front() {
                    Some(off) => (off, false),
                    None => {
                        let off = queues[want ^ 1].pop_front().expect("non-empty");
                        if waste_budget > 0 {
                            waste_budget -= 1;
                            (off, false)
                        } else {
                            (off, true)
                        }
                    }
                }
            } else {
                let q = if queues[0].is_empty() { 1 } else { 0 };
                (queues[q].pop_front().expect("non-empty"), true)
            };
            let old_ppn = self.geometry.ppn_of(PageAddr {
                plane,
                block: victim,
                page: off,
            });
            let PageOwner::Data(lpn) = ctx.dir.owner(old_ppn) else {
                unreachable!("ideal page map owns only data pages");
            };
            let new_addr = if forced_external {
                self.counters.external_moves += 1;
                ctx.push(FlashStep::InterPlaneCopy {
                    src: plane,
                    dst: plane,
                });
                let addr = self.alloc.place(plane, BlockClass::Data, ctx.flash);
                ctx.drain_failed_programs(FlashStep::InterPlaneCopy {
                    src: plane,
                    dst: plane,
                });
                addr
            } else {
                self.counters.copyback_moves += 1;
                ctx.push(FlashStep::CopyBack { plane });
                let addr =
                    self.alloc
                        .place_with_parity(plane, BlockClass::Data, off & 1, ctx.flash);
                ctx.drain_failed_programs(FlashStep::CopyBack { plane });
                addr
            };
            let new_ppn = self.geometry.ppn_of(new_addr);
            self.map[lpn as usize] = new_ppn;
            ctx.dir.set_data(new_ppn, lpn);
            ctx.flash.invalidate(old_ppn).expect("GC source not valid");
            ctx.dir.clear(old_ppn);
        }
        ctx.push(FlashStep::Erase { plane });
        ctx.flash
            .erase_and_pool(BlockAddr {
                plane,
                index: victim,
            })
            .expect("victim erase failed");
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
