//! The DLOOP flash translation layer (paper §III).
//!
//! DLOOP is an optimised page-mapping FTL whose single organising idea is:
//! **data, its updates ("logs"), and garbage-collection traffic all stay on
//! one plane**, chosen statically as `plane = LPN % planes` (Equation 1).
//! Consequences:
//!
//! * multi-page sequential requests stripe across planes and are served in
//!   parallel;
//! * an update lands on the same plane as the data it supersedes, so the
//!   valid-page copying that GC later performs is always *intra-plane* and
//!   can use the fast copy-back command, leaving the external bus free;
//! * translation pages are spread over planes by their logical number, so
//!   mapping lookups also parallelise instead of hammering one plane;
//! * request spreading itself keeps per-plane wear even (the paper's SDRPP
//!   metric) without an explicit wear-leveling mechanism.

use crate::alloc::{BlockClass, PlaneAllocator};
use crate::gc::GcEngine;
use dloop_ftl_kit::config::SsdConfig;
use dloop_ftl_kit::demand::{DemandMap, TranslationPlacement};
use dloop_ftl_kit::dir::PageDirectory;
use dloop_ftl_kit::ftl::{Ftl, FtlContext, FtlCounters};
use dloop_nand::{FlashState, Geometry, Lpn, PlaneId, Ppn};

/// The DLOOP FTL.
pub struct DloopFtl {
    pub(crate) geometry: Geometry,
    pub(crate) dm: DemandMap,
    pub(crate) place: Placement,
    pub(crate) gc: GcEngine,
    pub(crate) counters: FtlCounters,
    /// `maybe_gc`'s working lists, kept so a page operation does not
    /// allocate: the planes to check this round, and those already
    /// collected for the current operation.
    gc_round: Vec<PlaneId>,
    gc_done: Vec<PlaneId>,
}

/// Where DLOOP writes: the per-plane allocator, plus the one rule that
/// homes each translation page ([`Placement::home`]).
#[derive(Debug, Clone)]
pub(crate) struct Placement {
    pub(crate) alloc: PlaneAllocator,
    /// Spread translation pages across planes (ablation switch; paper: on).
    pub(crate) spread: bool,
    planes: PlaneId,
}

impl Placement {
    /// Home plane of translation page `tvpn`: spread across every plane
    /// like data, or clustered on the first eighth of the planes for the
    /// ablation (one plane cannot physically hold the whole mapping table
    /// plus its data share).
    pub(crate) fn home(&self, tvpn: u64) -> PlaneId {
        let planes = if self.spread {
            self.planes
        } else {
            (self.planes / 8).max(1)
        };
        (tvpn % planes as u64) as PlaneId
    }
}

impl TranslationPlacement for Placement {
    /// Program a fresh copy of translation page `tvpn` on its home plane.
    /// In clustered mode a saturated home falls through to the next plane
    /// with room — the same sticky behaviour DFTL's mapping blocks exhibit
    /// (§V.D).
    fn place(&mut self, ctx: &mut FtlContext<'_>, tvpn: u64) -> Ppn {
        let home = self.home(tvpn);
        let plane = if self.spread {
            home
        } else {
            (0..self.planes)
                .map(|k| (home + k) % self.planes)
                .find(|&p| self.alloc.plane_has_room(p, ctx.flash))
                .unwrap_or(home)
        };
        let addr = self.alloc.place(plane, BlockClass::Translation, ctx.flash);
        let ppn = ctx.flash.geometry().ppn_of(addr);
        ctx.dir.set_translation(ppn, tvpn);
        ctx.push_program(plane);
        ppn
    }

    fn has_room(&self, ctx: &FtlContext<'_>, tvpn: u64) -> bool {
        self.alloc.plane_has_room(self.home(tvpn), ctx.flash)
    }
}

impl DloopFtl {
    /// Build from a device configuration.
    pub fn new(config: &SsdConfig) -> Self {
        let geometry = config.geometry();
        DloopFtl {
            dm: DemandMap::new(&geometry, config.cmt_capacity),
            place: Placement {
                alloc: PlaneAllocator::new(geometry.total_planes()),
                spread: config.spread_translation,
                planes: geometry.total_planes(),
            },
            gc: GcEngine::new(config.gc_threshold, config.copyback_enabled),
            counters: FtlCounters::default(),
            geometry,
            gc_round: Vec::new(),
            gc_done: Vec::new(),
        }
    }

    /// Equation (1): the home plane of a logical page.
    pub fn plane_of_lpn(&self, lpn: Lpn) -> PlaneId {
        self.geometry.dloop_plane_of_lpn(lpn)
    }

    /// Pre-operation sweep: collect any plane sitting below the GC
    /// threshold. Collections are bounded (progress-based) and feasibility
    /// checked, so a plane in GC hell costs one cheap scan, not a storm —
    /// but pools can never be ground to zero by a stream of host writes.
    ///
    /// The sweep collects a plane only when its pool, read as the walk
    /// reaches it, is below the threshold, and nothing changes a pool
    /// until a collection runs. So when the smallest pool on the device is
    /// at or above the threshold the walk would do nothing, and the O(1)
    /// [`FlashState::min_free_blocks`] gate returns at once; otherwise the
    /// walk runs in full, in plane order, with fresh per-plane reads.
    fn gc_scan(&mut self, ctx: &mut FtlContext<'_>) {
        let threshold = self.gc.threshold();
        if ctx.flash.min_free_blocks() >= threshold {
            return;
        }
        for plane in 0..self.geometry.total_planes() {
            if ctx.flash.free_blocks(plane) < threshold {
                self.gc.collect_until_healthy(
                    plane,
                    &mut self.dm,
                    &mut self.place,
                    &mut self.counters,
                    ctx,
                );
            }
        }
    }

    /// Run GC wherever allocation dipped a pool below the threshold. Each
    /// plane is collected at most once per operation: a plane that stays
    /// below threshold after a bounded collection attempt (GC hell) is
    /// retried on the *next* operation instead of looping here — GC on one
    /// plane rewrites translation pages on others, so unbounded ping-pong
    /// is otherwise possible when the device runs nearly full.
    ///
    /// `collect_until_healthy` does nothing on a plane at or above the
    /// threshold, so while [`FlashState::min_free_blocks`] says every plane
    /// is, the rounds below would only drain the touched set: the gate does
    /// just that.
    fn maybe_gc(&mut self, ctx: &mut FtlContext<'_>) {
        if ctx.flash.min_free_blocks() >= self.gc.threshold() {
            self.place.alloc.clear_touched();
            return;
        }
        self.gc_done.clear();
        loop {
            self.place.alloc.take_touched(&mut self.gc_round);
            self.gc_round.retain(|p| !self.gc_done.contains(p));
            if self.gc_round.is_empty() {
                break;
            }
            for &plane in &self.gc_round {
                self.gc_done.push(plane);
                self.gc.collect_until_healthy(
                    plane,
                    &mut self.dm,
                    &mut self.place,
                    &mut self.counters,
                    ctx,
                );
            }
        }
    }
}

impl Ftl for DloopFtl {
    fn name(&self) -> &'static str {
        "DLOOP"
    }

    fn read(&mut self, lpn: Lpn, ctx: &mut FtlContext<'_>) {
        ctx.in_scan_phase(|ctx| self.gc_scan(ctx));
        let mapped = self.dm.ensure_cached(lpn, ctx, &mut self.place);
        if let Some(ppn) = mapped {
            // Media outcome (retry ladder, uncorrectable) is accounted by
            // the flash state; a NandError here is a DLOOP logic bug.
            ctx.read_page(ppn);
        }
        // Translation write-backs during the miss may have consumed blocks.
        ctx.in_gc_phase(|ctx| self.maybe_gc(ctx));
    }

    fn write(&mut self, lpn: Lpn, ctx: &mut FtlContext<'_>) {
        ctx.in_scan_phase(|ctx| self.gc_scan(ctx));
        let old = self.dm.ensure_cached(lpn, ctx, &mut self.place);
        // New writes and updates both land on the LPN's home plane — for
        // updates this *is* the plane of the original data (Fig. 6 lines
        // 16-23 collapse to one case because placement is static).
        let plane = self.plane_of_lpn(lpn);
        let addr = self.place.alloc.place(plane, BlockClass::Data, ctx.flash);
        let new_ppn = self.geometry.ppn_of(addr);
        ctx.push_program(plane);
        if let Some(old_ppn) = old {
            debug_assert_eq!(
                self.geometry.plane_of_ppn(old_ppn),
                plane,
                "DLOOP invariant: updates stay on the original's plane"
            );
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
        c.parity_skips = self.place.alloc.parity_skips;
        c.translation_reads = self.dm.counters.translation_reads;
        c.translation_writes = self.dm.counters.translation_writes;
        c
    }

    // --- Plane-sharded translation ---
    //
    // DLOOP is the textbook candidate for the parallel engine's fast path:
    // Equation (1) pins data, updates *and* GC traffic to `lpn % planes`,
    // so in the plane-pure regime (fully resident CMT, no materialised
    // translation pages, no pending GC updates, every plane's pool at or
    // above the GC threshold) each plane's state evolution depends only on
    // that plane's operation subsequence. See DESIGN.md §3f for the
    // argument and the per-op escape hatch.

    fn shard_home_plane(&self, lpn: Lpn) -> PlaneId {
        self.plane_of_lpn(lpn)
    }

    fn shard_translation_ready(&self, flash: &FlashState) -> bool {
        self.dm.plane_pure() && flash.min_free_blocks() >= self.gc.threshold()
    }

    fn shard_fork(&self, _planes: std::ops::Range<PlaneId>) -> Option<Box<dyn Ftl + Send>> {
        Some(Box::new(DloopFtl {
            dm: self.dm.shard_fork()?,
            geometry: self.geometry.clone(),
            place: Placement {
                alloc: self.place.alloc.shard_fork(),
                ..self.place.clone()
            },
            gc: self.gc.clone(),
            counters: FtlCounters::default(),
            gc_round: Vec::new(),
            gc_done: Vec::new(),
        }))
    }

    fn shard_op_pure(&self, flash: &FlashState, lpn: Lpn) -> bool {
        // A bounded collection that could not lift the home plane back to
        // the threshold (GC hell) hands the remaining debt to the *next*
        // operation's scan phase — which in the sequential order may
        // belong to a different plane's request. The worker cannot
        // reproduce that attribution, so it aborts the fast path instead.
        flash.free_blocks(self.plane_of_lpn(lpn)) >= self.gc.threshold()
    }

    fn shard_absorb(&mut self, worker: &dyn Ftl, planes: std::ops::Range<PlaneId>) {
        let w = worker
            .as_any()
            .and_then(|a| a.downcast_ref::<DloopFtl>())
            .expect("shard_absorb: worker fork is not a DloopFtl");
        let geometry = self.geometry.clone();
        self.dm.shard_absorb(&w.dm, &|lpn| {
            planes.contains(&geometry.dloop_plane_of_lpn(lpn))
        });
        self.place.alloc.shard_absorb(&w.place.alloc, planes);
        self.counters.gc_invocations += w.counters.gc_invocations;
        self.counters.copyback_moves += w.counters.copyback_moves;
        self.counters.external_moves += w.counters.external_moves;
        self.counters.full_merges += w.counters.full_merges;
        self.counters.partial_merges += w.counters.partial_merges;
        self.counters.switch_merges += w.counters.switch_merges;
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn audit(&self, flash: &FlashState, dir: &PageDirectory) -> Result<(), String> {
        self.dm.audit(flash, dir)?;
        // The paper's core invariant: data lives on LPN % planes.
        for (lpn, ppn) in self.dm.iter_mapped() {
            let want = self.plane_of_lpn(lpn);
            let got = self.geometry.plane_of_ppn(ppn);
            if want != got {
                return Err(format!(
                    "lpn {lpn} on plane {got}, Equation (1) demands {want}"
                ));
            }
        }
        // Spread translation pages sit on their home plane (clustered ones
        // may have fallen through to another).
        if self.place.spread {
            for (tvpn, tp) in self.dm.iter_translation_pages() {
                if self.geometry.plane_of_ppn(tp) != self.place.home(tvpn) {
                    return Err(format!("tvpn {tvpn} off its home plane"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use dloop_ftl_kit::device::audit;
    use dloop_ftl_kit::dir::PageOwner;
    use dloop_ftl_kit::ftl::{OpChain, Phase};
    use dloop_nand::BlockAddr;

    /// A DLOOP FTL driven against raw state (no device, no timing).
    pub(crate) struct Rig {
        pub(crate) flash: FlashState,
        pub(crate) dir: PageDirectory,
        pub(crate) ftl: DloopFtl,
    }

    impl Rig {
        pub(crate) fn new(config: &SsdConfig) -> Self {
            Rig {
                flash: FlashState::new(config.geometry()),
                dir: PageDirectory::new(&config.geometry()),
                ftl: DloopFtl::new(config),
            }
        }

        /// A `micro_gc_test` device after enough overwrites to collect and
        /// to write translation pages back.
        fn aged() -> Self {
            let mut rig = Rig::new(&SsdConfig::micro_gc_test());
            let span = rig.flash.geometry().user_pages() / 2;
            for i in 0..4 * span {
                rig.write(i * 7 % span);
            }
            assert!(rig.ftl.counters().gc_invocations > 0);
            audit(&rig.flash, &rig.dir, &rig.ftl).unwrap();
            rig
        }

        /// Run `f` in a fresh context; return its result and how many
        /// steps the scan phase pushed.
        pub(crate) fn op<R>(
            &mut self,
            f: impl FnOnce(&mut DloopFtl, &mut FtlContext<'_>) -> R,
        ) -> (R, usize) {
            let [mut host, mut gc, mut scan] = [OpChain::new(), OpChain::new(), OpChain::new()];
            let mut ctx = FtlContext {
                flash: &mut self.flash,
                dir: &mut self.dir,
                host_chain: &mut host,
                gc_chain: &mut gc,
                scan_chain: &mut scan,
                phase: Phase::Host,
            };
            (f(&mut self.ftl, &mut ctx), scan.len())
        }

        /// Write `lpn`, returning how many steps the op's scan phase pushed.
        pub(crate) fn write(&mut self, lpn: Lpn) -> usize {
            self.op(|ftl, ctx| ftl.write(lpn, ctx)).1
        }

        /// Program one page on a fresh block of `plane`, outside every
        /// active block.
        fn stray_page(&mut self, plane: PlaneId) -> Ppn {
            let index = self
                .flash
                .allocate_free_block(plane)
                .expect("a pooled block");
            let addr = self.flash.program_next(BlockAddr { plane, index }).unwrap();
            self.flash.geometry().ppn_of(addr)
        }
    }

    /// Moves that keep the flash, the directory and the map in step with
    /// each other but break DLOOP's placement fail only DLOOP's own rules.
    #[test]
    fn audit_rejects_pages_off_their_home_plane() {
        let mut rig = Rig::aged();
        let lpn = 1;
        let old = rig.ftl.mapped_ppn(lpn).unwrap();
        let new = rig.stray_page((rig.ftl.plane_of_lpn(lpn) + 1) % 4);
        rig.flash.invalidate(old).unwrap();
        rig.dir.clear(old);
        rig.dir.set_data(new, lpn);
        rig.ftl.dm.gc_move(lpn, new);
        let err = audit(&rig.flash, &rig.dir, &rig.ftl).unwrap_err();
        assert!(err.contains("Equation (1)"), "{err}");

        let mut rig = Rig::aged();
        let (tvpn, old) = rig.ftl.dm.iter_translation_pages().next().unwrap();
        let new = rig.stray_page((rig.ftl.place.home(tvpn) + 1) % 4);
        let owner = PageOwner::Translation(tvpn);
        rig.op(|ftl, ctx| ftl.dm.gc_remap(owner, old, new, ctx));
        rig.flash.invalidate(old).unwrap();
        rig.dir.clear(old);
        let err = audit(&rig.flash, &rig.dir, &rig.ftl).unwrap_err();
        assert!(err.contains("off its home plane"), "{err}");
    }

    /// Clustered translation pages home on the first eighth of the planes,
    /// and the room check before a flush asks that home — not plane 0.
    #[test]
    fn clustered_translation_pages_have_one_home() {
        let mut rig = Rig::new(&SsdConfig {
            channels: 8,
            spread_translation: false,
            ..SsdConfig::micro_gc_test()
        });
        assert_eq!(rig.flash.geometry().total_planes(), 16);
        let homes: Vec<PlaneId> = (0..4).map(|t| rig.ftl.place.home(t)).collect();
        assert_eq!(homes, [0, 1, 0, 1]);
        while rig.flash.allocate_free_block(1).is_ok() {}
        let (placed, _) = rig.op(|ftl, ctx| {
            assert!(
                !ftl.place.has_room(ctx, 1),
                "tvpn 1's home, plane 1, is full"
            );
            assert!(ftl.place.has_room(ctx, 2));
            ftl.place.place(ctx, 1)
        });
        // Placement falls through from the full home to the next plane.
        assert_eq!(rig.flash.geometry().plane_of_ppn(placed), 2);
    }
}
