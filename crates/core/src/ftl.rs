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
use dloop_ftl_kit::demand::DemandMap;
use dloop_ftl_kit::dir::{PageDirectory, PageOwner};
use dloop_ftl_kit::ftl::{Ftl, FtlContext, FtlCounters};
use dloop_nand::{FlashState, Geometry, Lpn, PageState, PlaneId, Ppn};

/// Tunables for a [`DloopFtl`] instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DloopConfig {
    /// GC triggers when a plane's free pool drops below this (paper: 3).
    pub gc_threshold: u32,
    /// Use copy-back for GC moves (ablation switch; paper: on).
    pub copyback_enabled: bool,
    /// Spread translation pages across planes (ablation switch; paper: on).
    pub spread_translation: bool,
    /// Cached Mapping Table capacity in entries.
    pub cmt_capacity: usize,
}

impl From<&SsdConfig> for DloopConfig {
    fn from(c: &SsdConfig) -> Self {
        DloopConfig {
            gc_threshold: c.gc_threshold,
            copyback_enabled: c.copyback_enabled,
            spread_translation: c.spread_translation,
            cmt_capacity: c.cmt_capacity,
        }
    }
}

/// The DLOOP FTL.
pub struct DloopFtl {
    pub(crate) geometry: Geometry,
    pub(crate) dm: DemandMap,
    pub(crate) alloc: PlaneAllocator,
    pub(crate) gc: GcEngine,
    pub(crate) counters: FtlCounters,
    pub(crate) cfg: DloopConfig,
    /// `maybe_gc`'s working lists, kept so a page operation does not
    /// allocate: the planes to check this round, and those already
    /// collected for the current operation.
    gc_round: Vec<PlaneId>,
    gc_done: Vec<PlaneId>,
}

impl DloopFtl {
    /// Build from a full device configuration.
    pub fn new(config: &SsdConfig) -> Self {
        Self::with_geometry(config.geometry(), DloopConfig::from(config))
    }

    /// Build from an explicit geometry and tunables.
    pub fn with_geometry(geometry: Geometry, cfg: DloopConfig) -> Self {
        let planes = geometry.total_planes();
        DloopFtl {
            dm: DemandMap::new(&geometry, cfg.cmt_capacity),
            alloc: PlaneAllocator::new(planes),
            gc: GcEngine::new(cfg.gc_threshold, cfg.copyback_enabled),
            counters: FtlCounters::default(),
            cfg,
            geometry,
            gc_round: Vec::new(),
            gc_done: Vec::new(),
        }
    }

    /// Equation (1): the home plane of a logical page.
    pub fn plane_of_lpn(&self, lpn: Lpn) -> PlaneId {
        self.geometry.dloop_plane_of_lpn(lpn)
    }

    /// Home plane of translation page `tvpn`: spread across planes like
    /// data, or clustered on plane 0 for the ablation.
    fn plane_of_tvpn(&self, tvpn: u64) -> PlaneId {
        let planes = self.geometry.total_planes() as u64;
        if self.cfg.spread_translation {
            (tvpn % planes) as PlaneId
        } else {
            (tvpn % (planes / 8).max(1)) as PlaneId
        }
    }

    /// CMT hit/miss statistics.
    pub fn cmt_stats(&self) -> (u64, u64) {
        self.dm.cmt_stats()
    }

    /// Resolve `lpn`'s mapping entry into the CMT, generating miss traffic.
    fn ensure_cached(&mut self, lpn: Lpn, ctx: &mut FtlContext<'_>) -> Option<Ppn> {
        let alloc = &mut self.alloc;
        let spread = self.cfg.spread_translation;
        let planes = self.geometry.total_planes() as u64;
        let mut place = |ctx: &mut FtlContext<'_>, tvpn: u64| -> Ppn {
            Self::place_translation(alloc, spread, planes, ctx, tvpn)
        };
        self.dm.ensure_cached(lpn, ctx, &mut place)
    }

    /// Program a fresh copy of translation page `tvpn` on its home plane.
    /// In clustered (no-spread) mode the home is plane 0, falling through
    /// to the next plane with room when it is saturated — the same sticky
    /// behaviour DFTL's mapping blocks exhibit (§V.D).
    pub(crate) fn place_translation(
        alloc: &mut PlaneAllocator,
        spread: bool,
        planes: u64,
        ctx: &mut FtlContext<'_>,
        tvpn: u64,
    ) -> Ppn {
        let plane = if spread {
            (tvpn % planes) as PlaneId
        } else {
            // Clustered mode: all translation pages on the first 1/8th of
            // the planes (one plane cannot physically hold the whole
            // mapping table plus its data share), falling through to the
            // next plane with room when the cluster saturates.
            let cluster = (planes / 8).max(1);
            let home = (tvpn % cluster) as PlaneId;
            (0..planes as PlaneId)
                .map(|k| (home + k) % planes as PlaneId)
                .find(|&p| alloc.plane_has_room(p, ctx.flash))
                .unwrap_or(home)
        };
        let addr = alloc.place(plane, BlockClass::Translation, ctx.flash);
        let ppn = ctx.flash.geometry().ppn_of(addr);
        ctx.dir.set_translation(ppn, tvpn);
        ctx.push_program(plane);
        ppn
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
        if ctx.flash.min_free_blocks() >= self.cfg.gc_threshold {
            return;
        }
        for plane in 0..self.geometry.total_planes() {
            if ctx.flash.free_blocks(plane) < self.cfg.gc_threshold {
                self.gc.collect_until_healthy(
                    plane,
                    &mut self.dm,
                    &mut self.alloc,
                    &mut self.counters,
                    self.cfg.spread_translation,
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
        if ctx.flash.min_free_blocks() >= self.cfg.gc_threshold {
            self.alloc.clear_touched();
            return;
        }
        self.gc_done.clear();
        loop {
            self.alloc.take_touched(&mut self.gc_round);
            self.gc_round.retain(|p| !self.gc_done.contains(p));
            if self.gc_round.is_empty() {
                break;
            }
            for &plane in &self.gc_round {
                self.gc_done.push(plane);
                self.gc.collect_until_healthy(
                    plane,
                    &mut self.dm,
                    &mut self.alloc,
                    &mut self.counters,
                    self.cfg.spread_translation,
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
        let mapped = self.ensure_cached(lpn, ctx);
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
        let old = self.ensure_cached(lpn, ctx);
        // New writes and updates both land on the LPN's home plane — for
        // updates this *is* the plane of the original data (Fig. 6 lines
        // 16-23 collapse to one case because placement is static).
        let plane = self.plane_of_lpn(lpn);
        let addr = self.alloc.place(plane, BlockClass::Data, ctx.flash);
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
        c.parity_skips = self.alloc.parity_skips;
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
        self.dm.plane_pure() && flash.min_free_blocks() >= self.cfg.gc_threshold
    }

    fn shard_fork(&self, _planes: std::ops::Range<PlaneId>) -> Option<Box<dyn Ftl + Send>> {
        Some(Box::new(DloopFtl {
            dm: self.dm.shard_fork()?,
            geometry: self.geometry.clone(),
            alloc: self.alloc.shard_fork(),
            gc: GcEngine::new(self.cfg.gc_threshold, self.cfg.copyback_enabled),
            counters: FtlCounters::default(),
            cfg: self.cfg,
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
        flash.free_blocks(self.plane_of_lpn(lpn)) >= self.cfg.gc_threshold
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
        self.alloc.shard_absorb(&w.alloc, planes);
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
        self.dm.check()?;
        let mut live = 0u64;
        for (lpn, ppn) in self.dm.iter_mapped() {
            if flash.page_state(ppn) != PageState::Valid {
                return Err(format!("lpn {lpn} maps to non-valid ppn {ppn}"));
            }
            if dir.owner(ppn) != PageOwner::Data(lpn) {
                return Err(format!("directory disagrees for lpn {lpn} at ppn {ppn}"));
            }
            // The paper's core invariant: data lives on LPN % planes.
            let want = self.geometry.dloop_plane_of_lpn(lpn);
            let got = self.geometry.plane_of_ppn(ppn);
            if want != got {
                return Err(format!(
                    "lpn {lpn} on plane {got}, Equation (1) demands {want}"
                ));
            }
            live += 1;
        }
        // Translation pages: valid, owned, and on their home plane.
        for tvpn in 0..self.geometry.translation_page_count() {
            if let Some(tp) = self.dm.gtd().lookup(tvpn) {
                if flash.page_state(tp) != PageState::Valid {
                    return Err(format!("tvpn {tvpn} at dead ppn {tp}"));
                }
                if dir.owner(tp) != PageOwner::Translation(tvpn) {
                    return Err(format!("directory disagrees for tvpn {tvpn}"));
                }
                if self.cfg.spread_translation {
                    let want = self.plane_of_tvpn(tvpn);
                    if self.geometry.plane_of_ppn(tp) != want {
                        return Err(format!("tvpn {tvpn} off its home plane"));
                    }
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
