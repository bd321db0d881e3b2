//! Per-plane log allocation: the "current free block / current free page"
//! pointers of §III.B.
//!
//! *"For each plane, DLOOP dynamically maintains two pointers: one pointer
//! to the current free block and one pointer to the current free page …
//! The pages can only be written sequentially in the current free block.
//! Once the current free block is full, a new free block from the same
//! plane is assigned as the current free block."*
//!
//! The allocator also implements the **same-parity policy** for copy-back
//! destinations (§III.A): when the next free page's offset parity differs
//! from the source page's, DLOOP deliberately invalidates ("wastes") the
//! free page and programs the one after it.

use dloop_nand::{BlockAddr, FlashState, PageAddr, PlaneId};

/// Which stream a block serves. Translation pages turn over much faster
/// than data pages; giving each its own per-plane active block keeps
/// lifetimes separated, so translation blocks die wholesale (cheap sweep
/// erases) instead of poisoning data blocks with short-lived pages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockClass {
    /// Host data pages (and GC-relocated data).
    Data = 0,
    /// Translation pages.
    Translation = 1,
}

/// The blocks GC must leave alone on one plane: at most one active block
/// per [`BlockClass`]. Dereferences to the slice of block indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exclusions {
    blocks: [u32; 2],
    len: usize,
}

impl std::ops::Deref for Exclusions {
    type Target = [u32];

    fn deref(&self) -> &[u32] {
        &self.blocks[..self.len]
    }
}

/// Per-plane active-block allocator with parity-aware placement.
#[derive(Debug, Clone)]
pub struct PlaneAllocator {
    active: [Vec<Option<BlockAddr>>; 2],
    touched: Vec<PlaneId>,
    /// Free pages wasted to satisfy the same-parity policy.
    pub parity_skips: u64,
}

impl PlaneAllocator {
    /// An allocator for `planes` planes, no active blocks yet.
    pub fn new(planes: u32) -> Self {
        PlaneAllocator {
            active: [vec![None; planes as usize], vec![None; planes as usize]],
            touched: Vec::new(),
            parity_skips: 0,
        }
    }

    /// Blocks GC must never pick as victims on `plane` (the active
    /// blocks of both classes).
    pub fn exclusions(&self, plane: PlaneId) -> Exclusions {
        let mut out = Exclusions {
            blocks: [0; 2],
            len: 0,
        };
        for block in self.active.iter().filter_map(|v| v[plane as usize]) {
            out.blocks[out.len] = block.index;
            out.len += 1;
        }
        out
    }

    /// Planes on which this allocator pulled new blocks from the pool since
    /// the last call — the set the FTL must re-check against the GC
    /// threshold. Replaces the contents of `out` with the deduplicated,
    /// ascending set and drains it here; both buffers keep their capacity.
    pub fn take_touched(&mut self, out: &mut Vec<PlaneId>) {
        out.clear();
        self.touched.sort_unstable();
        self.touched.dedup();
        out.append(&mut self.touched);
    }

    /// Forget the touched planes without reporting them (the FTL knows no
    /// plane needs a GC check).
    pub fn clear_touched(&mut self) {
        self.touched.clear();
    }

    /// A worker's fork for plane-sharded translation: identical per-plane
    /// pointers, with the parity-skip counter zeroed so the fork
    /// accumulates a delta for [`PlaneAllocator::shard_absorb`].
    pub fn shard_fork(&self) -> PlaneAllocator {
        let mut fork = self.clone();
        fork.parity_skips = 0;
        fork
    }

    /// Merge a worker fork back: adopt the owned `planes`' active-block
    /// pointers and add the worker's parity-skip delta.
    pub fn shard_absorb(&mut self, worker: &PlaneAllocator, planes: std::ops::Range<PlaneId>) {
        debug_assert!(
            worker.touched.is_empty(),
            "worker finished an op with undrained touched planes"
        );
        for p in planes {
            self.active[0][p as usize] = worker.active[0][p as usize];
            self.active[1][p as usize] = worker.active[1][p as usize];
        }
        self.parity_skips += worker.parity_skips;
    }

    fn ensure_active(
        &mut self,
        plane: PlaneId,
        class: BlockClass,
        flash: &mut FlashState,
    ) -> BlockAddr {
        let current = self.active[class as usize][plane as usize];
        let need_new = match current {
            None => true,
            Some(b) => flash.plane(plane).block(b.index).is_full(),
        };
        if need_new {
            let excluded = self.exclusions(plane);
            // Under extreme pressure (pool empty mid-GC), overflow into the
            // other class's active block rather than failing: lifetime
            // mixing is a last resort, not a policy.
            if flash.free_blocks(plane) == 0 {
                let other = self.active[1 - class as usize][plane as usize];
                if let Some(b) = other {
                    if !flash.plane(plane).block(b.index).is_full() {
                        return b;
                    }
                }
            }
            let index = match flash.allocate_free_block(plane) {
                Ok(i) => i,
                // Safety valve: mid-GC the pool can transiently empty while
                // fully-invalid blocks exist (move-based collections consume
                // gradually but reclaim in whole-block quanta). Erase one in
                // place and use it. The erase is accounted in the flash
                // state; its latency folds into the surrounding GC chain.
                Err(_) => {
                    // A candidate's erase can fail (grown bad block): the
                    // block is retired rather than pooled, so keep trying
                    // further candidates. Retired blocks are pristine and
                    // drop out of the search, so this terminates.
                    let mut pooled_one = false;
                    while !pooled_one {
                        let fallback = flash
                            .plane(plane)
                            .first_fully_invalid(|i| excluded.contains(&i));
                        let Some(i) = fallback else { break };
                        pooled_one = flash
                            .erase_and_pool(BlockAddr { plane, index: i })
                            .expect("emergency erase failed");
                    }
                    match pooled_one {
                        true => flash
                            .allocate_free_block(plane)
                            .expect("pool empty after emergency erase"),
                        false => {
                            let ps = flash.plane(plane);
                            let summary: Vec<String> = ps
                                .blocks()
                                .map(|(i, b)| {
                                    format!(
                                        "b{i}:v{}/i{}/f{}",
                                        b.valid_pages(),
                                        b.invalid_pages(),
                                        b.free_pages()
                                    )
                                })
                                .collect();
                            panic!(
                                "plane {plane} free pool exhausted — device \
                                 overfull; blocks: {}",
                                summary.join(" ")
                            )
                        }
                    }
                }
            };
            self.active[class as usize][plane as usize] = Some(BlockAddr { plane, index });
            self.touched.push(plane);
        }
        self.active[class as usize][plane as usize].unwrap()
    }

    /// Whether `plane` can absorb at least one more program without the
    /// emergency reclaim path: a pooled block or room in either active.
    pub fn plane_has_room(&self, plane: PlaneId, flash: &FlashState) -> bool {
        if flash.free_blocks(plane) > 0 {
            return true;
        }
        self.active.iter().any(|v| {
            v[plane as usize].is_some_and(|b| !flash.plane(plane).block(b.index).is_full())
        })
    }

    /// Program the next sequential page on `plane`'s current free block
    /// of `class`.
    pub fn place(&mut self, plane: PlaneId, class: BlockClass, flash: &mut FlashState) -> PageAddr {
        loop {
            let blk = self.ensure_active(plane, class, flash);
            let attempt = flash
                .program_page(blk)
                .expect("active block full after ensure");
            if !attempt.failed {
                return attempt.addr;
            }
            // Program-status failure: the media consumed the page; retry
            // on the next sequential page (rolling to a fresh block when
            // this one fills). The flash state accumulates the failed
            // attempt for the FTL to charge as an extra write.
        }
    }

    /// Parity of the next page a program would land on (ensuring an active
    /// block exists). GC uses this to order copy-back moves so that source
    /// and destination parities line up, keeping the §III.A waste to the
    /// paper's "at most one free page per sequence" instead of one per
    /// page.
    pub fn next_parity(
        &mut self,
        plane: PlaneId,
        class: BlockClass,
        flash: &mut FlashState,
    ) -> u32 {
        let blk = self.ensure_active(plane, class, flash);
        flash
            .plane(plane)
            .block(blk.index)
            .next_free_page()
            .expect("active block full after ensure")
            & 1
    }

    /// Program a page whose offset parity equals `parity` (0 or 1),
    /// wasting free pages as required by the same-parity policy.
    pub fn place_with_parity(
        &mut self,
        plane: PlaneId,
        class: BlockClass,
        parity: u32,
        flash: &mut FlashState,
    ) -> PageAddr {
        debug_assert!(parity < 2);
        loop {
            let blk = self.ensure_active(plane, class, flash);
            let next = flash
                .plane(plane)
                .block(blk.index)
                .next_free_page()
                .expect("active block full after ensure");
            if next & 1 == parity {
                let attempt = flash.program_page(blk).expect("free page vanished");
                if !attempt.failed {
                    return attempt.addr;
                }
                // A failed program consumed the parity-matching page; the
                // loop re-aligns (skipping the now mis-parity next page)
                // and tries again.
                continue;
            }
            // Fig. 5b: deliberately invalidate the mis-parity free page.
            flash.skip_next(blk).expect("free page vanished");
            self.parity_skips += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dloop_nand::{FlashState, Geometry};

    fn flash() -> FlashState {
        FlashState::new(Geometry::build_with_hierarchy(1, 2, 5.0, 2, 1, 1, 1, 2))
    }

    fn touched(a: &mut PlaneAllocator) -> Vec<PlaneId> {
        let mut out = vec![99];
        a.take_touched(&mut out);
        out
    }

    #[test]
    fn sequential_placement_within_plane() {
        let mut f = flash();
        let mut a = PlaneAllocator::new(f.geometry().total_planes());
        let p0 = a.place(0, BlockClass::Data, &mut f);
        let p1 = a.place(0, BlockClass::Data, &mut f);
        assert_eq!((p0.block, p0.page), (p1.block, p1.page - 1));
        assert_eq!(touched(&mut a), vec![0]);
        assert!(touched(&mut a).is_empty());
    }

    #[test]
    fn rolls_to_next_block_when_full() {
        let mut f = flash();
        let ppb = f.geometry().pages_per_block;
        let mut a = PlaneAllocator::new(f.geometry().total_planes());
        for _ in 0..ppb {
            a.place(1, BlockClass::Data, &mut f);
        }
        let next = a.place(1, BlockClass::Data, &mut f);
        assert_eq!(next.page, 0);
        assert_eq!(touched(&mut a), vec![1]);
    }

    #[test]
    fn parity_match_has_no_waste() {
        let mut f = flash();
        let mut a = PlaneAllocator::new(f.geometry().total_planes());
        // Next free page is 0 (even): even-parity placement is direct.
        let p = a.place_with_parity(0, BlockClass::Data, 0, &mut f);
        assert_eq!(p.page, 0);
        assert_eq!(a.parity_skips, 0);
    }

    #[test]
    fn parity_mismatch_wastes_one_page() {
        let mut f = flash();
        let mut a = PlaneAllocator::new(f.geometry().total_planes());
        // Next free page is 0 (even); ask for odd parity -> skip page 0.
        let p = a.place_with_parity(0, BlockClass::Data, 1, &mut f);
        assert_eq!(p.page, 1);
        assert_eq!(a.parity_skips, 1);
        assert_eq!(f.total_skips(), 1);
    }

    #[test]
    fn parity_skip_at_block_end_rolls_over() {
        let mut f = flash();
        let ppb = f.geometry().pages_per_block;
        let mut a = PlaneAllocator::new(f.geometry().total_planes());
        for _ in 0..ppb - 1 {
            a.place(0, BlockClass::Data, &mut f);
        }
        // Next free page is ppb-1 (odd, since ppb = 64); even parity
        // requested -> skip the last page, roll to a fresh block's page 0.
        let p = a.place_with_parity(0, BlockClass::Data, 0, &mut f);
        assert_eq!(p.page, 0);
        assert_eq!(a.parity_skips, 1);
    }

    #[test]
    fn planes_have_independent_active_blocks() {
        let mut f = flash();
        let mut a = PlaneAllocator::new(f.geometry().total_planes());
        let p0 = a.place(0, BlockClass::Data, &mut f);
        let p1 = a.place(1, BlockClass::Data, &mut f);
        assert_eq!(p0.page, 0);
        assert_eq!(p1.page, 0);
        assert_ne!(p0.plane, p1.plane);
        assert_eq!(touched(&mut a), vec![0, 1]);
    }

    #[test]
    fn exclusions_cover_active_block() {
        let mut f = flash();
        let mut a = PlaneAllocator::new(f.geometry().total_planes());
        assert!(a.exclusions(0).is_empty());
        let p = a.place(0, BlockClass::Data, &mut f);
        assert_eq!(*a.exclusions(0), [p.block]);
    }
}
