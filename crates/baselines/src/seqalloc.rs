//! Plane-oblivious block allocation, as DFTL and FAST use it.
//!
//! Neither baseline knows about planes; they just take "the next free
//! block". Two policies model the behaviours the paper describes:
//!
//! * **Round-robin** — data and log blocks come from successive planes.
//!   Pages are still written *sequentially within one active block*, so a
//!   burst of writes serialises on whichever plane hosts the current block
//!   (§V.B: "DFTL always picks up free blocks from the same plane to write
//!   sequentially, which could be a problem if several of such requests
//!   come in a row because the queuing delay quickly increases on that
//!   particular plane") — but over time blocks rotate.
//! * **Sticky** — prefer one plane while it has free blocks. DFTL's
//!   *translation* blocks use this with plane 0 (§V.D: "DFTL initially
//!   stores its page mapping information in the first few blocks of
//!   plane 0 … these mapping information blocks are accessed more
//!   frequently from plane 0, which increases the contention").

use dloop_nand::{BlockAddr, FlashState, PlaneId};

/// Plane-oblivious block source.
#[derive(Debug, Clone)]
pub struct SeqAllocator {
    cursor: PlaneId,
    planes: u32,
    /// Blocks allocated (observability).
    pub allocated: u64,
    /// Emergency in-place erases performed when every pool was dry.
    pub emergency_erases: u64,
}

impl SeqAllocator {
    /// An allocator over `planes` planes, starting at plane 0.
    pub fn new(planes: u32) -> Self {
        SeqAllocator {
            cursor: 0,
            planes,
            allocated: 0,
            emergency_erases: 0,
        }
    }

    /// The plane the round-robin cursor will try next.
    pub fn cursor(&self) -> PlaneId {
        self.cursor
    }

    /// Round-robin allocation: take a block from the cursor plane (first
    /// plane with a free block, scanning forward) and advance the cursor.
    pub fn allocate_rr(&mut self, flash: &mut FlashState, exclude: &[BlockAddr]) -> BlockAddr {
        for step in 0..self.planes {
            let plane = (self.cursor + step) % self.planes;
            if flash.free_blocks(plane) > 0 {
                self.cursor = (plane + 1) % self.planes;
                let index = flash
                    .allocate_free_block(plane)
                    .expect("pool emptied between check and pop");
                self.allocated += 1;
                return BlockAddr { plane, index };
            }
        }
        self.emergency(flash, exclude)
    }

    /// Sticky allocation: prefer `home` while it has free blocks, then
    /// scan forward from it.
    pub fn allocate_sticky(
        &mut self,
        home: PlaneId,
        flash: &mut FlashState,
        exclude: &[BlockAddr],
    ) -> BlockAddr {
        for step in 0..self.planes {
            let plane = (home + step) % self.planes;
            if flash.free_blocks(plane) > 0 {
                let index = flash
                    .allocate_free_block(plane)
                    .expect("pool emptied between check and pop");
                self.allocated += 1;
                return BlockAddr { plane, index };
            }
        }
        self.emergency(flash, exclude)
    }

    /// Every pool is dry: reclaim a fully invalid block in place (never
    /// one in `exclude`).
    fn emergency(&mut self, flash: &mut FlashState, exclude: &[BlockAddr]) -> BlockAddr {
        for plane in 0..self.planes {
            // An erase failure retires the candidate (grown bad) instead of
            // pooling it; retired blocks are pristine and drop out of the
            // search, so keep scanning until one survives.
            loop {
                let found = flash
                    .plane(plane)
                    .first_fully_invalid(|index| exclude.contains(&BlockAddr { plane, index }));
                let Some(index) = found else { break };
                let pooled = flash
                    .erase_and_pool(BlockAddr { plane, index })
                    .expect("emergency erase failed");
                self.emergency_erases += 1;
                if !pooled {
                    continue;
                }
                let index = flash
                    .allocate_free_block(plane)
                    .expect("pool empty after emergency erase");
                self.allocated += 1;
                return BlockAddr { plane, index };
            }
        }
        panic!("device overfull: no free and no fully-invalid block anywhere");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dloop_nand::Geometry;

    fn flash() -> FlashState {
        // 4 planes, small blocks.
        let mut g = Geometry::build_with_hierarchy(1, 2, 5.0, 2, 1, 1, 1, 2);
        g.data_blocks_per_plane = 4;
        g.blocks_per_plane = 6;
        FlashState::new(g)
    }

    #[test]
    fn round_robin_rotates_planes() {
        let mut f = flash();
        let mut a = SeqAllocator::new(4);
        let planes: Vec<u32> = (0..8).map(|_| a.allocate_rr(&mut f, &[]).plane).collect();
        assert_eq!(planes, vec![0, 1, 2, 3, 0, 1, 2, 3]);
        assert_eq!(a.allocated, 8);
    }

    #[test]
    fn round_robin_skips_dry_planes() {
        let mut f = flash();
        let mut a = SeqAllocator::new(4);
        // Drain plane 1 completely.
        for _ in 0..6 {
            f.allocate_free_block(1).unwrap();
        }
        let planes: Vec<u32> = (0..4).map(|_| a.allocate_rr(&mut f, &[]).plane).collect();
        assert_eq!(planes, vec![0, 2, 3, 0]);
    }

    #[test]
    fn sticky_prefers_home_until_dry() {
        let mut f = flash();
        let mut a = SeqAllocator::new(4);
        for i in 0..6 {
            let b = a.allocate_sticky(0, &mut f, &[]);
            assert_eq!(b.plane, 0, "allocation {i}");
        }
        let b = a.allocate_sticky(0, &mut f, &[]);
        assert_eq!(b.plane, 1, "plane 0 exhausted, falls through");
    }

    #[test]
    fn emergency_erase_when_all_dry() {
        let mut f = flash();
        let mut a = SeqAllocator::new(4);
        let blocks: Vec<_> = (0..24).map(|_| a.allocate_rr(&mut f, &[])).collect();
        // Make one block fully invalid.
        let target = blocks[5];
        let addr = f.program_next(target).unwrap();
        f.invalidate(f.geometry().ppn_of(addr)).unwrap();
        let b = a.allocate_rr(&mut f, &[]);
        assert_eq!(b, target);
        assert_eq!(a.emergency_erases, 1);
    }

    #[test]
    #[should_panic(expected = "device overfull")]
    fn panics_when_truly_full() {
        let mut f = flash();
        let mut a = SeqAllocator::new(4);
        for _ in 0..24 {
            let b = a.allocate_rr(&mut f, &[]);
            f.program_next(b).unwrap();
        }
        a.allocate_rr(&mut f, &[]);
    }
}
