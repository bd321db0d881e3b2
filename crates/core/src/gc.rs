//! DLOOP garbage collection (paper §III.C and Fig. 5).
//!
//! Per plane: when the free pool drops below the threshold, the block with
//! the most invalid pages becomes the victim; its valid pages are moved to
//! the plane's current free block (or a fresh pool block) using intra-plane
//! **copy-back** under the same-parity policy; the victim is erased and
//! pooled. The three §III.C situations fall out naturally:
//!
//! 1. victim fully invalid → erase only;
//! 2. current free block has room → copy-backs land there (Fig. 5a);
//! 3. a parity mismatch wastes one free page before programming (Fig. 5b).
//!
//! Data-page moves change mappings, so affected translation pages are
//! batch-rewritten (one read-modify-write per translation page, not per
//! mapping); translation pages resident in the victim move by copy-back
//! like data, unless the same GC pass is about to rewrite them anyway.
//! Each move takes its parity, and charges its waste, against the active
//! block it lands in: data moves the data active block's write pointer,
//! translation moves the translation active block's.
//!
//! The victim scan is `PlaneState::gc_candidates`. The ablation's IDEAL
//! bound is this collector under a CMT that holds every entry: the
//! feasibility check and the progress bound run there too, and never
//! fire on any shipped IDEAL cell.

use crate::alloc::{BlockClass, PlaneAllocator};
use crate::ftl::Placement;
use dloop_ftl_kit::demand::DemandMap;
use dloop_ftl_kit::dir::PageOwner;
use dloop_ftl_kit::ftl::{FlashStep, FtlContext, FtlCounters};
use dloop_nand::{BlockAddr, PageAddr, PlaneId, Ppn};
use std::collections::VecDeque;

/// The per-plane collector.
///
/// The four work lists of a pass are kept between passes, so once they
/// have grown to a block's worth a collection allocates nothing.
#[derive(Debug, Clone)]
pub struct GcEngine {
    threshold: u32,
    copyback: bool,
    /// Fully-invalid blocks found by the victim scan.
    sweep: Vec<u32>,
    /// The victim's live pages awaiting relocation as `(offset, ppn,
    /// owner)`, one queue per destination [`BlockClass`] and offset
    /// parity.
    moves: [[VecDeque<(u32, Ppn, PageOwner)>; 2]; 2],
    /// Translation pages in the victim that are rewritten instead of moved.
    rewrite_now: Vec<u64>,
    /// Moves done on flash whose remaps are still to apply, as `(owner,
    /// old ppn, new ppn)` in move order.
    remaps: Vec<(PageOwner, Ppn, Ppn)>,
}

impl GcEngine {
    /// A collector triggering below `threshold` free blocks, moving pages
    /// by copy-back when `copyback` is set (else over the external bus).
    pub fn new(threshold: u32, copyback: bool) -> Self {
        GcEngine {
            threshold,
            copyback,
            sweep: Vec::new(),
            moves: Default::default(),
            rewrite_now: Vec::new(),
            remaps: Vec::new(),
        }
    }

    /// The configured trigger threshold.
    pub fn threshold(&self) -> u32 {
        self.threshold
    }

    /// Collect on `plane` until its pool is back at the threshold (or no
    /// block can be profitably collected).
    pub(crate) fn collect_until_healthy(
        &mut self,
        plane: PlaneId,
        dm: &mut DemandMap,
        place: &mut Placement,
        counters: &mut FtlCounters,
        ctx: &mut FtlContext<'_>,
    ) {
        // Bounded: with the device nearly full, move-based collections can
        // approach net-zero block gain per pass (the erased victim is
        // immediately consumed by the moves of the next one). Insisting on
        // reaching the threshold would turn every host operation into an
        // unbounded GC storm, so the loop stops as soon as an iteration
        // makes no block-level progress — the next operation retries. This
        // is GC hell (degraded service at over-full utilisation), not a
        // failure.
        let mut best = ctx.flash.free_blocks(plane);
        while ctx.flash.free_blocks(plane) < self.threshold {
            if !self.collect_one(plane, dm, place, counters, ctx) {
                break;
            }
            let now = ctx.flash.free_blocks(plane);
            if now <= best {
                break;
            }
            best = now;
        }
    }

    /// Move every queued page into `plane`'s active blocks in parity
    /// order, wasting at most `waste_budget` pages on parity, then tell
    /// the map about every move, in the same order.
    fn relocate(
        &mut self,
        plane: PlaneId,
        mut waste_budget: u32,
        dm: &mut DemandMap,
        alloc: &mut PlaneAllocator,
        counters: &mut FtlCounters,
        ctx: &mut FtlContext<'_>,
    ) {
        // Moves land in the destination stream matching what they carry:
        // relocated data goes to the data active block, relocated
        // translation pages to the translation active block (lifetime
        // separation). Within each stream, moves are reordered so that
        // source parity matches that stream's write pointer whenever both
        // parities are still queued — GC has no ordering constraint
        // between moves, and this keeps the same-parity waste at the
        // paper's "one page per run" instead of one per page (without it,
        // long-lived pages parity-cluster and GC degenerates).
        //
        // Deliberate parity waste (Fig. 5b) is allowed for a few
        // mismatched pages per victim; past that budget the controller
        // falls back to the traditional external copy for mis-parity
        // pages.
        for class in [BlockClass::Data, BlockClass::Translation] {
            let moves = &mut self.moves[class as usize];
            while moves.iter().any(|q| !q.is_empty()) {
                let (job, forced_external) = if self.copyback {
                    let want = alloc.next_parity(plane, class, ctx.flash) as usize;
                    match moves[want].pop_front() {
                        Some(job) => (job, false),
                        None => {
                            let job = moves[want ^ 1].pop_front().expect("non-empty");
                            if waste_budget > 0 {
                                waste_budget -= 1;
                                (job, false) // copy-back; place_with_parity wastes one page
                            } else {
                                (job, true) // external copy; no parity rule
                            }
                        }
                    }
                } else {
                    let q = if moves[0].is_empty() { 1 } else { 0 };
                    (moves[q].pop_front().expect("non-empty"), true)
                };
                let (off, old_ppn, owner) = job;
                let step = if forced_external {
                    counters.external_moves += 1;
                    FlashStep::InterPlaneCopy {
                        src: plane,
                        dst: plane,
                    }
                } else {
                    counters.copyback_moves += 1;
                    FlashStep::CopyBack { plane }
                };
                ctx.push(step);
                let new_addr = if forced_external {
                    alloc.place(plane, class, ctx.flash)
                } else {
                    alloc.place_with_parity(plane, class, off & 1, ctx.flash)
                };
                // Failed program attempts repeat the whole move.
                ctx.drain_failed_programs(step);
                let new_ppn = ctx.flash.geometry().ppn_of(new_addr);
                ctx.flash.invalidate(old_ppn).expect("GC source not valid");
                ctx.dir.clear(old_ppn);
                self.remaps.push((owner, old_ppn, new_ppn));
            }
        }
        // The remaps follow the moves rather than interleave with them.
        // Each remap stores into the page map (or the GTD) at a random
        // index, and the next move's step would otherwise be reloaded
        // while that store still sits in the store buffer; batched, the
        // moves run back to back. Deferring is safe because nothing a move
        // does reads the map, the GTD or a directory entry a remap writes:
        // placement reads only the block states and the pool, the source
        // owners were read before the first move, and a directory set
        // lands on a fresh destination page while a clear empties a victim
        // page, so the two never meet.
        for (owner, old_ppn, new_ppn) in self.remaps.drain(..) {
            dm.gc_remap(owner, old_ppn, new_ppn, ctx);
        }
    }

    /// Collect one victim block on `plane`. Returns false when no block
    /// with reclaimable (invalid) pages exists.
    fn collect_one(
        &mut self,
        plane: PlaneId,
        dm: &mut DemandMap,
        place: &mut Placement,
        counters: &mut FtlCounters,
        ctx: &mut FtlContext<'_>,
    ) -> bool {
        // Neither a swept block nor the victim may be an active block.
        let exclude = place.alloc.exclusions(plane);
        self.sweep.clear();
        let victim = ctx
            .flash
            .plane(plane)
            .gc_candidates(&exclude, &mut self.sweep);
        // §III.C's "most desirable case": victims with no valid pages are
        // reclaimed by a bare erase. Sweep all of them first — they are
        // pure gain and keep the pool from starving while move-based
        // collections are in flight (rewrites keep minting fully-invalid
        // translation blocks).
        if !self.sweep.is_empty() {
            counters.gc_invocations += 1;
            for &index in &self.sweep {
                ctx.erase(BlockAddr { plane, index });
            }
            return true;
        }
        let (victim_invalid, victim) = match victim {
            // Everything is live; collecting would reclaim nothing.
            None | Some((0, _)) => return false,
            Some(found) => found,
        };
        // Parity waste is bounded by an eighth of a block, and by half of
        // what the victim frees: near full the max-invalid victim holds
        // only a few invalid pages, and a fixed budget would let the skips
        // eat the whole reclaim (the paper's "extreme case [that] rarely
        // happens" would become the steady state).
        let ppb = ctx.flash.geometry().pages_per_block;
        let waste_budget = (ppb / 8).min(victim_invalid / 2);
        // Feasibility: relocating the victim's live pages (plus the parity
        // waste budget and a few translation rewrites) must fit in the
        // pages this plane can still absorb, or the collection would
        // strand mid-move with an empty pool. The max-invalid victim is
        // also the cheapest, so if it does not fit nothing does.
        let victim_valid = ctx.flash.plane(plane).block(victim).valid_pages();
        let active_free: u32 = exclude
            .iter()
            .map(|&i| ctx.flash.plane(plane).block(i).free_pages())
            .sum();
        let avail = ctx.flash.free_blocks(plane) * ppb + active_free;
        let need = victim_valid + waste_budget + 16;
        if avail < need {
            return false;
        }
        counters.gc_invocations += 1;

        // Classify the victim's live pages. Data pages move by copy-back;
        // translation pages move too, unless they carry pending (deferred)
        // updates (a read-modify-write both relocates and persists them in
        // one go), or in clustered mode, where an intra-plane move would
        // pin translation pages to plane 0 forever while the rewrite path
        // can spill to planes with room.
        debug_assert!(self.moves.iter().flatten().all(|q| q.is_empty()));
        debug_assert!(self.rewrite_now.is_empty() && self.remaps.is_empty());
        for off in ctx.flash.plane(plane).block(victim).valid_offsets() {
            let ppn = ctx.flash.geometry().ppn_of(PageAddr {
                plane,
                block: victim,
                page: off,
            });
            let owner = ctx.dir.owner(ppn);
            let class = match owner {
                PageOwner::Translation(tvpn) if dm.pending_count(tvpn) > 0 || !place.spread => {
                    self.rewrite_now.push(tvpn);
                    continue;
                }
                PageOwner::Translation(_) => BlockClass::Translation,
                _ => BlockClass::Data,
            };
            self.moves[class as usize][(off & 1) as usize].push_back((off, ppn, owner));
        }
        self.relocate(plane, waste_budget, dm, &mut place.alloc, counters, ctx);

        // Rewrites whose current copy sits in the victim must read it
        // before the erase.
        for tvpn in self.rewrite_now.drain(..) {
            dm.rewrite_translation_page(tvpn, ctx, place);
        }
        // A failed erase retires the victim, but its valid pages moved out
        // regardless, so the collection still completed.
        ctx.erase(BlockAddr {
            plane,
            index: victim,
        });

        // Keep the deferred-update buffer within its SRAM budget, steering
        // flushes away from planes that cannot absorb a write.
        dm.flush_pending_over_budget(ctx, place);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ftl::tests::Rig;
    use crate::ftl::DloopFtl;
    use dloop_ftl_kit::config::SsdConfig;
    use dloop_ftl_kit::device::audit;
    use dloop_ftl_kit::ftl::Ftl;
    use dloop_simkit::check::{self, Checker};
    use dloop_simkit::{check_assert, SimRng};

    /// Every move-based collection frees more than its relocation spends:
    /// the pages it moves (by copy-back or external copy) plus the pages it
    /// skips for parity stay below the victim's page count.
    /// Probed on a nearly full device, where the max-invalid victim has
    /// only a few invalid pages: a parity-waste budget larger than that
    /// nets a loss.
    #[test]
    fn move_based_collections_free_more_than_they_spend() {
        let gen = (check::f64s(0.9..1.0), check::u64s(0..u64::MAX));
        Checker::new().cases(16).run(&gen, |&(fill, seed)| {
            let mut rig = Rig::new(&SsdConfig::micro_gc_test());
            let g = rig.flash.geometry().clone();
            let live = ((g.user_pages() as f64 * fill) as u64).max(1);
            for lpn in 0..live {
                rig.write(lpn);
            }
            let mut rng = SimRng::new(seed);
            for probe in 0..32 {
                for _ in 0..live / 16 {
                    rig.write(rng.below(live));
                }
                let plane = probe % g.total_planes();
                let exclude = rig.ftl.place.alloc.exclusions(plane);
                let mut sweep = Vec::new();
                let victim = rig.flash.plane(plane).gc_candidates(&exclude, &mut sweep);
                let Some((invalid, victim)) = victim.filter(|&(inv, _)| inv > 0) else {
                    continue;
                };
                if !sweep.is_empty() {
                    continue; // an erase-only sweep, not a move
                }
                let spent = |rig: &Rig| {
                    let c = rig.ftl.counters();
                    c.copyback_moves + c.external_moves + c.parity_skips
                };
                let before = spent(&rig);
                let (collected, _) = rig.op(|ftl, ctx| {
                    let DloopFtl {
                        gc,
                        dm,
                        place,
                        counters,
                        ..
                    } = ftl;
                    gc.collect_one(plane, dm, place, counters, ctx)
                });
                if !collected {
                    continue; // infeasible: nothing moved
                }
                let spent = spent(&rig) - before;
                check_assert!(
                    spent < g.pages_per_block as u64,
                    "fill {fill:.3}: collecting block {victim} of plane {plane} ({invalid} \
                     invalid of {}) spent {spent} pages",
                    g.pages_per_block
                );
            }
            audit(&rig.flash, &rig.dir, &rig.ftl).map_err(|e| e.to_string())
        });
    }

    #[test]
    fn threshold_accessor() {
        assert_eq!(GcEngine::new(3, true).threshold(), 3);
    }

    #[test]
    fn collection_preserves_all_mappings() {
        let mut rig = Rig::new(&SsdConfig::micro_gc_test());
        let user = rig.flash.geometry().user_pages();
        // Overwrite a working set until GC must have run several times.
        for round in 0..12u64 {
            for lpn in 0..user / 2 {
                let _ = round;
                rig.write(lpn);
            }
        }
        assert!(rig.ftl.counters().gc_invocations > 0);
        for lpn in 0..user / 2 {
            let ppn = rig.ftl.mapped_ppn(lpn).expect("mapping survived GC");
            assert_eq!(
                rig.flash.geometry().plane_of_ppn(ppn) as u64,
                lpn % rig.flash.geometry().total_planes() as u64
            );
        }
        rig.ftl.audit(&rig.flash, &rig.dir).unwrap();
    }

    /// A bounded collection can end an op with a plane still below the
    /// threshold. The O(1) gate in front of the pre-op sweep must hand that
    /// debt to the *next* op even when the next op lives on another plane.
    #[test]
    fn gc_hell_debt_is_swept_by_the_next_op_on_another_plane() {
        let mut rig = Rig::new(&SsdConfig::micro_gc_test());
        let threshold = rig.ftl.gc.threshold();
        let planes = rig.flash.geometry().total_planes();
        let user = rig.flash.geometry().user_pages();
        // Uniform random overwrites over the whole user space (LCG).
        let mut x = 1u64;
        while rig.flash.min_free_blocks() >= threshold {
            assert!(rig.ftl.counters().gc_invocations < 100_000, "no GC debt");
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            rig.write((x >> 33) % user);
        }
        let lagging: Vec<PlaneId> = (0..planes)
            .filter(|&p| rig.flash.free_blocks(p) < threshold)
            .collect();
        // The debt sits right at the boundary, one block short.
        assert_eq!(rig.flash.min_free_blocks(), threshold - 1);
        let next = (0..user)
            .find(|&lpn| !lagging.contains(&rig.ftl.plane_of_lpn(lpn)))
            .expect("some plane is healthy");
        assert!(
            rig.write(next) > 0,
            "plane(s) {lagging:?} below the threshold were not swept"
        );
    }

    #[test]
    fn copyback_moves_dominate_and_erases_match_gcs() {
        let mut rig = Rig::new(&SsdConfig::micro_gc_test());
        let user = rig.flash.geometry().user_pages();
        for round in 0..10u64 {
            for lpn in (0..user).step_by(3) {
                let _ = round;
                rig.write(lpn);
            }
        }
        let c = rig.ftl.counters();
        assert!(c.gc_invocations > 0);
        assert!(c.copyback_moves >= c.external_moves * 5);
    }

    /// A collection spends at most its victim's live pages plus the
    /// parity-waste budget, even when the victim is a translation block.
    /// Translation moves land in the translation active block, so taking
    /// their parity from the data active block — whose write pointer they
    /// never move — skipped a page before nearly every move, unbudgeted.
    #[test]
    fn translation_victim_stays_within_the_waste_budget() {
        // Enough LPNs that plane 0 is home to a block's worth of
        // translation pages.
        let config = SsdConfig {
            blocks_per_plane_override: Some((400, 8)),
            ..SsdConfig::micro_gc_test()
        };
        let mut rig = Rig::new(&config);
        let g = rig.flash.geometry().clone();
        let planes = g.total_planes() as u64;
        let ppb = g.pages_per_block as u64;
        let homed: Vec<u64> = (0..ppb).map(|i| i * planes).collect();
        // One data page fixes the data active block's parity on plane 0.
        rig.write(0);
        // Fill a translation block on plane 0, then supersede its first
        // ten pages: the block is the only collectable one, with 54 live
        // translation pages of both parities.
        for &tvpn in homed.iter().chain(&homed[..10]) {
            rig.op(|ftl, ctx| ftl.dm.rewrite_translation_page(tvpn, ctx, &mut ftl.place));
        }
        let budget = ppb / 8;
        let moves = |rig: &Rig| {
            let c = rig.ftl.counters();
            c.copyback_moves + c.external_moves
        };
        let before = (moves(&rig), rig.ftl.place.alloc.parity_skips);
        let (collected, _) = rig.op(|ftl, ctx| {
            let DloopFtl {
                gc,
                dm,
                place,
                counters,
                ..
            } = ftl;
            gc.collect_one(0, dm, place, counters, ctx)
        });
        assert!(collected);
        let moved = moves(&rig) - before.0;
        let skips = rig.ftl.place.alloc.parity_skips - before.1;
        assert_eq!(moved, ppb - 10, "every live translation page moves");
        assert!(skips <= budget, "{skips} parity skips, budget {budget}");
        assert!(moved + skips <= ppb - 10 + budget);
        audit(&rig.flash, &rig.dir, &rig.ftl).unwrap();
    }
}
