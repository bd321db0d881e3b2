//! Whole-device flash state: every plane's blocks and pools behind one
//! checked, PPN-level API.
//!
//! All FTLs mutate flash exclusively through [`FlashState`], so the NAND
//! invariants (sequential programming, erase-before-write, pool
//! consistency) are enforced — and property-tested — in exactly one place.
//! Callers only ever see a [`PlaneState`] by shared reference: every pool
//! change (allocation, pooling erase, factory-bad removal) is a
//! `FlashState` method.
//!
//! That lets `FlashState` keep a **free-pool index** exact: how many planes
//! hold each pool size, the smallest pool and the device-wide total. Every
//! pool mutation updates it in O(1), so the per-operation GC triggers —
//! DLOOP's "is any plane below the threshold" and DFTL's device-wide total
//! — read [`FlashState::min_free_blocks`] and
//! [`FlashState::total_free_blocks`] instead of walking every plane.
//! [`FlashState::check`] recomputes the index from the planes.
//!
//! When a [`MediaModel`] is attached ([`FlashState::attach_media`]), the
//! checked entry points [`FlashState::program_page`] and
//! [`FlashState::read_page`] additionally derive deterministic media
//! outcomes (program-status failures, read-retry ladders, uncorrectable
//! reads) and [`FlashState::erase_and_pool`] retires erase-failed and
//! doomed blocks as grown-bad instead of pooling them.

use crate::block::PageState;
use crate::error::NandError;
use crate::geometry::{BlockAddr, Geometry, PageAddr, PlaneId, Ppn};
use crate::plane::PlaneState;
use dloop_faults::{FaultConfig, FaultPlan, MediaCounters, MediaModel, MediaOutcome};
use std::collections::BTreeSet;

/// Result of one checked program attempt (see [`FlashState::program_page`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProgramAttempt {
    /// The page the attempt landed on (consumed either way).
    pub addr: PageAddr,
    /// True when the media reported program-status failure: the page is
    /// consumed as invalid and the caller must re-program elsewhere.
    pub failed: bool,
}

/// Mutable state of the whole flash array.
#[derive(Debug, Clone)]
pub struct FlashState {
    geometry: Geometry,
    planes: Vec<PlaneState>,
    programs: u64,
    skips: u64,
    erases: u64,
    retired: u64,
    /// Deterministic media-fault model (None = perfect media).
    media: Option<MediaModel>,
    /// Blocks (global index) marked for early retirement after a program
    /// failure; retired at their next erase instead of re-pooling.
    doomed: BTreeSet<u64>,
    /// Program attempts that failed since the last
    /// [`FlashState::take_failed_attempts`] drain (timing accounting).
    failed_attempts: u32,
    /// The free-pool index over `planes`, updated on every pool change.
    pool: PoolIndex,
}

/// The free-pool index: a summary of every plane's pool size, kept exact
/// by [`PoolIndex::changed`] on each pool mutation.
#[derive(Debug, Clone, PartialEq, Eq)]
struct PoolIndex {
    /// `hist[k]`: the number of planes whose pool holds exactly `k` blocks.
    hist: Vec<u32>,
    /// The smallest pool on the device (the lowest non-empty bucket).
    min: u32,
    /// Pooled blocks summed over every plane.
    total: u64,
}

impl PoolIndex {
    /// The index of `planes` recomputed from scratch.
    fn of(planes: &[PlaneState], blocks_per_plane: u32) -> Self {
        let mut hist = vec![0; blocks_per_plane as usize + 1];
        let mut total = 0;
        for p in planes {
            hist[p.free_pool_len() as usize] += 1;
            total += p.free_pool_len() as u64;
        }
        let min = hist.iter().position(|&n| n > 0).unwrap_or(0) as u32;
        PoolIndex { hist, min, total }
    }

    /// One plane's pool went from `old` to `new` blocks. A pool shrinking
    /// below the minimum becomes the minimum; the last pool at the minimum
    /// growing moves it up past the buckets that emptied.
    fn changed(&mut self, old: u32, new: u32) {
        self.hist[old as usize] -= 1;
        self.hist[new as usize] += 1;
        self.total = self.total + new as u64 - old as u64;
        if new < self.min {
            self.min = new;
        }
        while self.hist[self.min as usize] == 0 {
            self.min += 1;
        }
    }
}

impl FlashState {
    /// A fully erased device of the given geometry.
    pub fn new(geometry: Geometry) -> Self {
        let planes: Vec<PlaneState> = (0..geometry.total_planes())
            .map(|_| PlaneState::new(geometry.blocks_per_plane, geometry.pages_per_block))
            .collect();
        FlashState {
            pool: PoolIndex::of(&planes, geometry.blocks_per_plane),
            geometry,
            planes,
            programs: 0,
            skips: 0,
            erases: 0,
            retired: 0,
            media: None,
            doomed: BTreeSet::new(),
            failed_attempts: 0,
        }
    }

    /// A worker's private copy for plane-sharded execution: identical
    /// plane state, but with the device-wide activity counters (programs,
    /// skips, erases, retirements) zeroed so the worker accumulates pure
    /// *deltas* that [`FlashState::shard_absorb`] can add back without
    /// double-counting.
    pub fn shard_fork(&self) -> FlashState {
        let mut fork = self.clone();
        fork.programs = 0;
        fork.skips = 0;
        fork.erases = 0;
        fork.retired = 0;
        fork
    }

    /// Merge a [`FlashState::shard_fork`] worker back: adopt the owned
    /// `planes`' state wholesale (the worker is the only writer of those
    /// planes) and add the worker's activity deltas. The caller guarantees
    /// the worker touched no plane outside `planes`.
    pub fn shard_absorb(&mut self, worker: &FlashState, planes: std::ops::Range<PlaneId>) {
        debug_assert_eq!(
            worker.failed_attempts, 0,
            "worker finished an op with undrained program failures"
        );
        for p in planes {
            self.planes[p as usize] = worker.planes[p as usize].clone();
        }
        self.pool = PoolIndex::of(&self.planes, self.geometry.blocks_per_plane);
        self.programs += worker.programs;
        self.skips += worker.skips;
        self.erases += worker.erases;
        self.retired += worker.retired;
    }

    /// Attach a deterministic media-fault model built from `cfg`. Must be
    /// called on a fresh device (all blocks pristine and pooled): factory
    /// bad blocks are drawn from the plan and retired immediately, before
    /// any traffic. A null configuration attaches nothing.
    pub fn attach_media(&mut self, cfg: &FaultConfig) {
        if cfg.is_null() {
            return;
        }
        assert!(self.media.is_none(), "media model already attached");
        assert_eq!(
            self.programs + self.skips + self.erases,
            0,
            "attach_media on a used device"
        );
        let mut model = MediaModel::new(
            FaultPlan::new(cfg.clone()),
            self.geometry.total_physical_pages(),
        );
        let bpp = self.geometry.blocks_per_plane;
        for (p, plane) in self.planes.iter_mut().enumerate() {
            for index in 0..bpp {
                let gid = p as u64 * bpp as u64 + index as u64;
                if model.plan().factory_bad(gid) {
                    // Keep each plane serviceable: never retire so many
                    // blocks that the plane drops below a minimal pool.
                    if plane.free_pool_len() <= 4 {
                        continue;
                    }
                    let removed = plane.remove_from_pool(index);
                    debug_assert!(removed, "factory-bad block {index} not pooled");
                    plane.retire(index);
                    self.pool
                        .changed(plane.free_pool_len() + 1, plane.free_pool_len());
                    self.retired += 1;
                    model.note_factory_bad();
                }
            }
        }
        self.media = Some(model);
    }

    /// The attached media model's reliability counters, if any.
    pub fn media_counters(&self) -> Option<&MediaCounters> {
        self.media.as_ref().map(|m| m.counters())
    }

    /// Whether a (non-null) media-fault model is attached.
    pub fn has_media(&self) -> bool {
        self.media.is_some()
    }

    /// Retry-ladder depth of the attached fault plan (0 without media).
    pub fn max_retry_steps(&self) -> u32 {
        self.media
            .as_ref()
            .map(|m| m.plan().config().max_retry_steps)
            .unwrap_or(0)
    }

    /// Global block index (stable across the device) of `block`.
    fn global_block(&self, block: BlockAddr) -> u64 {
        block.plane as u64 * self.geometry.blocks_per_plane as u64 + block.index as u64
    }

    /// Program attempts that failed since the last drain (the controller
    /// charges one program's worth of timing per failed attempt).
    pub fn take_failed_attempts(&mut self) -> u32 {
        std::mem::take(&mut self.failed_attempts)
    }

    /// Blocks permanently retired: factory-bad blocks, failed erases, and
    /// blocks doomed by a failed program.
    pub fn retired_blocks(&self) -> u64 {
        self.retired
    }

    /// The device geometry.
    pub fn geometry(&self) -> &Geometry {
        &self.geometry
    }

    /// Shared access to a plane.
    pub fn plane(&self, plane: PlaneId) -> &PlaneState {
        &self.planes[plane as usize]
    }

    /// State of the page at `ppn`.
    pub fn page_state(&self, ppn: Ppn) -> PageState {
        let a = self.geometry.addr_of(ppn);
        self.planes[a.plane as usize].block(a.block).state(a.page)
    }

    /// Program the next sequential page of `block`, returning the page
    /// address written.
    pub fn program_next(&mut self, block: BlockAddr) -> Result<PageAddr, NandError> {
        let b = self.planes[block.plane as usize].block_mut(block.index);
        let off = b.program_next().ok_or(NandError::BlockFull(block))?;
        self.programs += 1;
        Ok(PageAddr {
            plane: block.plane,
            block: block.index,
            page: off,
        })
    }

    /// Checked program of the next sequential page of `block`, consulting
    /// the media model when one is attached.
    ///
    /// On [`MediaOutcome::ProgramFail`] the page is consumed as invalid
    /// (the cells were driven, their contents are garbage), the block is
    /// marked doomed (retired at its next erase), and the caller must
    /// retry on a fresh page — the recovery loop lives in the FTL
    /// allocators. Without media, identical to [`FlashState::program_next`].
    pub fn program_page(&mut self, block: BlockAddr) -> Result<ProgramAttempt, NandError> {
        let Some(model) = self.media.as_mut() else {
            let addr = self.program_next(block)?;
            return Ok(ProgramAttempt {
                addr,
                failed: false,
            });
        };
        let b = self.planes[block.plane as usize].block_mut(block.index);
        let off = b.next_free_page().ok_or(NandError::BlockFull(block))?;
        let addr = PageAddr {
            plane: block.plane,
            block: block.index,
            page: off,
        };
        let ppn = self.geometry.ppn_of(addr);
        let generation = b.erase_count();
        match model.program(ppn, generation) {
            MediaOutcome::ProgramFail => {
                // Consume the page as invalid; the attempt wore the cells
                // and counts as a program, not a parity skip.
                b.skip_next();
                self.programs += 1;
                self.failed_attempts += 1;
                self.doomed.insert(self.global_block(block));
                Ok(ProgramAttempt { addr, failed: true })
            }
            _ => {
                b.program_next();
                self.programs += 1;
                Ok(ProgramAttempt {
                    addr,
                    failed: false,
                })
            }
        }
    }

    /// Skip (invalidate-without-programming) the next sequential page of
    /// `block` — DLOOP's parity-waste move. Returns the wasted address.
    pub fn skip_next(&mut self, block: BlockAddr) -> Result<PageAddr, NandError> {
        let b = self.planes[block.plane as usize].block_mut(block.index);
        let off = b.skip_next().ok_or(NandError::BlockFull(block))?;
        self.skips += 1;
        Ok(PageAddr {
            plane: block.plane,
            block: block.index,
            page: off,
        })
    }

    /// Invalidate the valid page at `ppn` (out-of-place update).
    pub fn invalidate(&mut self, ppn: Ppn) -> Result<(), NandError> {
        let a = self.geometry.addr_of(ppn);
        let ok = self.planes[a.plane as usize]
            .block_mut(a.block)
            .invalidate(a.page);
        if ok {
            Ok(())
        } else {
            Err(NandError::NotValid(a))
        }
    }

    /// Verify a read hits live data (simulation carries no payloads, but
    /// reading a stale page is an FTL mapping bug we want to catch).
    pub fn read_check(&self, ppn: Ppn) -> Result<(), NandError> {
        if ppn >= self.geometry.total_physical_pages() {
            return Err(NandError::OutOfRange(ppn));
        }
        if self.page_state(ppn) == PageState::Valid {
            Ok(())
        } else {
            Err(NandError::ReadInvalid(ppn))
        }
    }

    /// Checked read of `ppn`: the logic-bug validity check of
    /// [`FlashState::read_check`] plus the deterministic media outcome
    /// (clean / correctable-with-retries / uncorrectable) when a media
    /// model is attached. Perfect media always reads clean.
    pub fn read_page(&mut self, ppn: Ppn) -> Result<MediaOutcome, NandError> {
        self.read_check(ppn)?;
        let a = self.geometry.addr_of(ppn);
        let generation = self.planes[a.plane as usize].block(a.block).erase_count();
        match self.media.as_mut() {
            Some(m) => Ok(m.read(ppn, generation)),
            None => Ok(MediaOutcome::Clean),
        }
    }

    /// Erase `block` and return it to its plane's free pool. The block must
    /// contain no valid pages (GC must have relocated them).
    ///
    /// Returns `true` when the block went back to the pool, `false` when
    /// it was retired instead: doomed by an earlier program failure, or
    /// hit by a media erase failure. Retired
    /// blocks are erased first so bad-block bookkeeping only ever holds
    /// pristine blocks (the state stays auditable); counting-wise an
    /// in-service retirement is a grown bad block.
    pub fn erase_and_pool(&mut self, block: BlockAddr) -> Result<bool, NandError> {
        let plane = &mut self.planes[block.plane as usize];
        if plane.in_free_pool(block.index) {
            return Err(NandError::EraseFreeBlock(block));
        }
        let b = plane.block_mut(block.index);
        assert_eq!(
            b.valid_pages(),
            0,
            "erasing block {}:{} with live data",
            block.plane,
            block.index
        );
        let generation = b.erase_count();
        b.erase();
        self.erases += 1;
        let gid = block.plane as u64 * self.geometry.blocks_per_plane as u64 + block.index as u64;
        let doomed = self.doomed.remove(&gid);
        let erase_failed = match self.media.as_mut() {
            Some(m) => m.erase(gid, generation) == MediaOutcome::EraseFail,
            None => false,
        };
        let plane = &mut self.planes[block.plane as usize];
        if doomed || erase_failed {
            plane.retire(block.index);
            self.retired += 1;
            if let Some(m) = self.media.as_mut() {
                m.note_grown_bad();
            }
            Ok(false)
        } else {
            plane.return_free_block(block.index);
            self.pool
                .changed(plane.free_pool_len() - 1, plane.free_pool_len());
            Ok(true)
        }
    }

    /// Pop a free block from `plane`'s pool.
    pub fn allocate_free_block(&mut self, plane: PlaneId) -> Result<u32, NandError> {
        let ps = &mut self.planes[plane as usize];
        let index = ps
            .allocate_free_block()
            .ok_or(NandError::NoFreeBlock { plane })?;
        self.pool
            .changed(ps.free_pool_len() + 1, ps.free_pool_len());
        Ok(index)
    }

    /// Free-pool size of `plane`.
    pub fn free_blocks(&self, plane: PlaneId) -> u32 {
        self.planes[plane as usize].free_pool_len()
    }

    /// The smallest free pool on the device, in O(1): no plane is below a
    /// GC threshold `t` exactly when this is at least `t`.
    pub fn min_free_blocks(&self) -> u32 {
        self.pool.min
    }

    /// Free blocks summed over every plane, in O(1).
    pub fn total_free_blocks(&self) -> u64 {
        self.pool.total
    }

    /// Total page programs performed (data + translation + GC).
    pub fn total_programs(&self) -> u64 {
        self.programs
    }

    /// Total parity-skip pages wasted.
    pub fn total_skips(&self) -> u64 {
        self.skips
    }

    /// Total block erases performed.
    pub fn total_erases(&self) -> u64 {
        self.erases
    }

    /// Wear summary across all blocks: (min, mean, max) erase counts.
    pub fn wear_summary(&self) -> (u32, f64, u32) {
        let mut min = u32::MAX;
        let mut max = 0u32;
        let mut sum = 0u64;
        let mut n = 0u64;
        for p in &self.planes {
            for (_, b) in p.blocks() {
                min = min.min(b.erase_count());
                max = max.max(b.erase_count());
                sum += b.erase_count() as u64;
                n += 1;
            }
        }
        if n == 0 {
            (0, 0.0, 0)
        } else {
            (min, sum as f64 / n as f64, max)
        }
    }

    /// Total valid pages on the device.
    pub fn total_valid_pages(&self) -> u64 {
        self.planes.iter().map(|p| p.valid_pages()).sum()
    }

    /// Audit every plane, and the free-pool index against a recount.
    pub fn check(&self) -> Result<(), String> {
        for (i, p) in self.planes.iter().enumerate() {
            p.check().map_err(|e| format!("plane {i}: {e}"))?;
        }
        let recount = PoolIndex::of(&self.planes, self.geometry.blocks_per_plane);
        if recount != self.pool {
            return Err(format!(
                "free-pool index drifted: kept {:?}, planes hold {:?}",
                self.pool, recount
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> FlashState {
        // 2 channels x 1 x 1 x 1 die x 2 planes = 4 planes.
        FlashState::new(Geometry::build_with_hierarchy(1, 2, 5.0, 2, 1, 1, 1, 2))
    }

    #[test]
    fn program_invalidate_erase_cycle() {
        let mut fs = small();
        let blk_idx = fs.allocate_free_block(0).unwrap();
        let blk = BlockAddr {
            plane: 0,
            index: blk_idx,
        };
        let addr = fs.program_next(blk).unwrap();
        let ppn = fs.geometry().ppn_of(addr);
        fs.read_check(ppn).unwrap();
        fs.invalidate(ppn).unwrap();
        assert!(matches!(fs.read_check(ppn), Err(NandError::ReadInvalid(_))));
        fs.erase_and_pool(blk).unwrap();
        assert_eq!(fs.total_erases(), 1);
        fs.check().unwrap();
    }

    #[test]
    fn double_invalidate_is_error() {
        let mut fs = small();
        let blk = BlockAddr {
            plane: 1,
            index: fs.allocate_free_block(1).unwrap(),
        };
        let addr = fs.program_next(blk).unwrap();
        let ppn = fs.geometry().ppn_of(addr);
        fs.invalidate(ppn).unwrap();
        assert!(fs.invalidate(ppn).is_err());
    }

    #[test]
    fn program_full_block_is_error() {
        let mut fs = small();
        let blk = BlockAddr {
            plane: 0,
            index: fs.allocate_free_block(0).unwrap(),
        };
        for _ in 0..fs.geometry().pages_per_block {
            fs.program_next(blk).unwrap();
        }
        assert!(matches!(fs.program_next(blk), Err(NandError::BlockFull(_))));
    }

    #[test]
    #[should_panic(expected = "live data")]
    fn erase_with_valid_pages_panics() {
        let mut fs = small();
        let blk = BlockAddr {
            plane: 0,
            index: fs.allocate_free_block(0).unwrap(),
        };
        fs.program_next(blk).unwrap();
        let _ = fs.erase_and_pool(blk);
    }

    #[test]
    fn erase_pooled_block_is_error() {
        let mut fs = small();
        assert!(matches!(
            fs.erase_and_pool(BlockAddr { plane: 0, index: 2 }),
            Err(NandError::EraseFreeBlock(_))
        ));
    }

    #[test]
    fn pool_underflow_is_error() {
        let mut fs = small();
        let n = fs.geometry().blocks_per_plane;
        for _ in 0..n {
            fs.allocate_free_block(0).unwrap();
        }
        assert!(matches!(
            fs.allocate_free_block(0),
            Err(NandError::NoFreeBlock { plane: 0 })
        ));
    }

    #[test]
    fn skip_counts_separately() {
        let mut fs = small();
        let blk = BlockAddr {
            plane: 0,
            index: fs.allocate_free_block(0).unwrap(),
        };
        fs.skip_next(blk).unwrap();
        fs.program_next(blk).unwrap();
        assert_eq!(fs.total_skips(), 1);
        assert_eq!(fs.total_programs(), 1);
        // The skipped page is at offset 0, the programmed one at 1.
        assert_eq!(fs.plane(0).block(blk.index).state(0), PageState::Invalid);
        assert_eq!(fs.plane(0).block(blk.index).state(1), PageState::Valid);
    }

    #[test]
    fn media_program_fail_consumes_page_and_dooms_block() {
        let mut fs = small();
        fs.attach_media(&FaultConfig {
            program_fail_prob: 1.0,
            ..FaultConfig::none()
        });
        let blk = BlockAddr {
            plane: 0,
            index: fs.allocate_free_block(0).unwrap(),
        };
        let a = fs.program_page(blk).unwrap();
        assert!(a.failed);
        assert_eq!(fs.plane(0).block(blk.index).state(0), PageState::Invalid);
        assert_eq!(fs.take_failed_attempts(), 1);
        assert_eq!(fs.take_failed_attempts(), 0, "drain resets the counter");
        // Consume the remaining pages (they all fail too), then erase:
        // the doomed block must be retired as grown bad, not pooled.
        while fs.plane(0).block(blk.index).next_free_page().is_some() {
            assert!(fs.program_page(blk).unwrap().failed);
        }
        let pooled = fs.erase_and_pool(blk).unwrap();
        assert!(!pooled);
        assert!(fs.plane(0).is_retired(blk.index));
        let c = fs.media_counters().unwrap();
        assert_eq!(c.grown_bad_blocks, 1);
        assert_eq!(c.program_fails as u32, fs.geometry().pages_per_block);
        fs.check().unwrap();
    }

    #[test]
    fn media_erase_fail_grows_bad_block() {
        let mut fs = small();
        fs.attach_media(&FaultConfig {
            erase_fail_prob: 1.0,
            ..FaultConfig::none()
        });
        let blk = BlockAddr {
            plane: 1,
            index: fs.allocate_free_block(1).unwrap(),
        };
        let a = fs.program_page(blk).unwrap();
        assert!(!a.failed);
        fs.invalidate(fs.geometry().ppn_of(a.addr)).unwrap();
        assert!(!fs.erase_and_pool(blk).unwrap());
        assert!(fs.plane(1).is_retired(blk.index));
        assert_eq!(fs.media_counters().unwrap().grown_bad_blocks, 1);
        fs.check().unwrap();
    }

    #[test]
    fn factory_bads_shrink_the_pool() {
        let mut fs = small();
        let planes = fs.geometry().total_planes();
        let before: u32 = (0..planes).map(|p| fs.free_blocks(p)).sum();
        fs.attach_media(&FaultConfig {
            factory_bad_frac: 0.1,
            seed: 3,
            ..FaultConfig::none()
        });
        let after: u32 = (0..planes).map(|p| fs.free_blocks(p)).sum();
        assert!(after < before, "factory bads must leave the pool");
        assert_eq!(
            fs.media_counters().unwrap().factory_bad_blocks,
            (before - after) as u64
        );
        assert_eq!(fs.retired_blocks(), (before - after) as u64);
        fs.check().unwrap();
    }

    #[test]
    fn media_outcomes_are_reproducible_across_devices() {
        let cfg = FaultConfig::storm(21);
        let run = || {
            let mut fs = small();
            fs.attach_media(&cfg);
            let blk = BlockAddr {
                plane: 0,
                index: fs.allocate_free_block(0).unwrap(),
            };
            let mut log = Vec::new();
            for _ in 0..fs.geometry().pages_per_block {
                let a = fs.program_page(blk).unwrap();
                log.push((a.addr.page, a.failed as u32));
                if !a.failed {
                    let ppn = fs.geometry().ppn_of(a.addr);
                    for _ in 0..3 {
                        log.push((ppn as u32, fs.read_page(ppn).unwrap().retry_steps()));
                    }
                }
            }
            log
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn no_media_reads_clean() {
        let mut fs = small();
        assert!(!fs.has_media());
        let blk = BlockAddr {
            plane: 0,
            index: fs.allocate_free_block(0).unwrap(),
        };
        let a = fs.program_page(blk).unwrap();
        assert!(!a.failed);
        let ppn = fs.geometry().ppn_of(a.addr);
        assert_eq!(fs.read_page(ppn).unwrap(), MediaOutcome::Clean);
        assert!(fs.media_counters().is_none());
        assert_eq!(fs.take_failed_attempts(), 0);
    }

    #[test]
    fn pool_index_follows_every_pool_change() {
        let mut fs = small();
        let bpp = fs.geometry().blocks_per_plane;
        assert_eq!(
            (fs.min_free_blocks(), fs.total_free_blocks()),
            (bpp, 4 * bpp as u64)
        );
        let blk = BlockAddr {
            plane: 2,
            index: fs.allocate_free_block(2).unwrap(),
        };
        assert_eq!(
            (fs.min_free_blocks(), fs.total_free_blocks()),
            (bpp - 1, 4 * bpp as u64 - 1)
        );
        let taken: Vec<_> = (0..3)
            .map(|_| BlockAddr {
                plane: 1,
                index: fs.allocate_free_block(1).unwrap(),
            })
            .collect();
        assert_eq!(
            (fs.min_free_blocks(), fs.total_free_blocks()),
            (bpp - 3, 4 * bpp as u64 - 4)
        );
        for b in taken {
            fs.skip_next(b).unwrap();
            fs.erase_and_pool(b).unwrap();
        }
        assert_eq!(fs.min_free_blocks(), bpp - 1, "min climbs back to plane 2");
        fs.skip_next(blk).unwrap();
        fs.erase_and_pool(blk).unwrap();
        assert_eq!(
            (fs.min_free_blocks(), fs.total_free_blocks()),
            (bpp, 4 * bpp as u64)
        );
        fs.check().unwrap();
        fs.pool.total += 1;
        assert!(fs.check().unwrap_err().contains("free-pool index"));
    }

    #[test]
    fn wear_summary_tracks_erases() {
        let mut fs = small();
        let blk = BlockAddr {
            plane: 0,
            index: fs.allocate_free_block(0).unwrap(),
        };
        for _ in 0..3 {
            let a = fs.program_next(blk).unwrap();
            fs.invalidate(fs.geometry().ppn_of(a)).unwrap();
            fs.erase_and_pool(blk).unwrap();
            // Re-allocate the same block: pool is FIFO so drain to it.
            while fs.allocate_free_block(0).unwrap() != blk.index {}
        }
        let (min, mean, max) = fs.wear_summary();
        assert_eq!(min, 0);
        assert_eq!(max, 3);
        assert!(mean > 0.0);
    }
}
