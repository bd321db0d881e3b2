//! Per-plane state: the block array and the free-block pool.
//!
//! The paper (§III.C): *"For each plane in a flash SSD, DLOOP maintains a
//! free block pool for it. When the number of free blocks in a plane is
//! lower than a threshold … a garbage collection is invoked. The block with
//! the maximal number of invalid pages in the plane is selected as the
//! victim block."* The pool and victim selection live here so every FTL
//! shares one audited implementation, resting on one invariant: a block
//! that is pooled or retired is pristine ([`PlaneState::check`]).

use crate::block::Block;
use std::collections::VecDeque;

/// State of one plane.
#[derive(Debug, Clone)]
pub struct PlaneState {
    blocks: Vec<Block>,
    /// Indices of erased blocks available for allocation, FIFO.
    free_pool: VecDeque<u32>,
    /// Worn-out blocks permanently removed from service (bad blocks).
    retired: Vec<u32>,
}

impl PlaneState {
    /// A plane of `blocks` freshly erased blocks of `pages_per_block`
    /// pages, all in the free pool.
    pub fn new(blocks: u32, pages_per_block: u32) -> Self {
        PlaneState {
            blocks: (0..blocks).map(|_| Block::new(pages_per_block)).collect(),
            free_pool: (0..blocks).collect(),
            retired: Vec::new(),
        }
    }

    /// Permanently remove an erased block from service (a bad block).
    pub fn retire(&mut self, index: u32) {
        debug_assert!(self.blocks[index as usize].is_pristine());
        debug_assert!(!self.free_pool.contains(&index));
        debug_assert!(!self.retired.contains(&index));
        self.retired.push(index);
    }

    /// Blocks permanently out of service.
    pub fn retired_blocks(&self) -> u32 {
        self.retired.len() as u32
    }

    /// Whether `index` has been retired.
    pub fn is_retired(&self, index: u32) -> bool {
        self.retired.contains(&index)
    }

    /// Number of blocks in this plane.
    pub fn block_count(&self) -> u32 {
        self.blocks.len() as u32
    }

    /// Shared access to a block.
    pub fn block(&self, index: u32) -> &Block {
        &self.blocks[index as usize]
    }

    /// Mutable access to a block.
    pub fn block_mut(&mut self, index: u32) -> &mut Block {
        &mut self.blocks[index as usize]
    }

    /// Blocks currently in the free pool.
    pub fn free_pool_len(&self) -> u32 {
        self.free_pool.len() as u32
    }

    /// Whether `index` currently sits in the free pool.
    pub fn in_free_pool(&self, index: u32) -> bool {
        self.free_pool.contains(&index)
    }

    /// Pop the next free block (FIFO — oldest erase first, a mild implicit
    /// wear-leveling like real firmware).
    pub fn allocate_free_block(&mut self) -> Option<u32> {
        let idx = self.free_pool.pop_front()?;
        debug_assert!(
            self.blocks[idx as usize].is_pristine(),
            "free pool contained a dirty block"
        );
        Some(idx)
    }

    /// Remove a specific block from the free pool (factory bad-block
    /// retirement at media attach time). Returns whether it was pooled.
    pub fn remove_from_pool(&mut self, index: u32) -> bool {
        match self.free_pool.iter().position(|&i| i == index) {
            Some(pos) => {
                self.free_pool.remove(pos);
                true
            }
            None => false,
        }
    }

    /// Return an erased block to the pool.
    pub fn return_free_block(&mut self, index: u32) {
        debug_assert!(self.blocks[index as usize].is_pristine());
        debug_assert!(!self.free_pool.contains(&index));
        self.free_pool.push_back(index);
    }

    /// The GC victim scan, one pass: every fully-invalid block is pushed
    /// to `sweep`, and `(invalid pages, index)` of the block with the most
    /// invalid pages comes back, ties broken toward the lowest index for
    /// determinism. Pristine blocks and those in `exclude` (the FTL passes
    /// its active blocks so it never erases the block it is writing into)
    /// are skipped; pooled and retired blocks need no clause of their own
    /// because they are pristine.
    pub fn gc_candidates(&self, exclude: &[u32], sweep: &mut Vec<u32>) -> Option<(u32, u32)> {
        let mut best: Option<(u32, u32)> = None;
        for (i, b) in self.blocks() {
            if b.is_pristine() || exclude.contains(&i) {
                continue;
            }
            if b.valid_pages() == 0 {
                sweep.push(i);
            }
            let invalid = b.invalid_pages();
            if best.is_none_or(|(most, _)| invalid > most) {
                best = Some((invalid, i));
            }
        }
        best
    }

    /// The lowest-index fully-invalid block `exclude` does not claim: what
    /// an allocator erases in place when the pool is empty.
    pub fn first_fully_invalid(&self, exclude: impl Fn(u32) -> bool) -> Option<u32> {
        self.blocks()
            .find(|(i, b)| !b.is_pristine() && b.valid_pages() == 0 && !exclude(*i))
            .map(|(i, _)| i)
    }

    /// Total valid pages on this plane.
    pub fn valid_pages(&self) -> u64 {
        self.blocks.iter().map(|b| b.valid_pages() as u64).sum()
    }

    /// Total invalid pages on this plane.
    pub fn invalid_pages(&self) -> u64 {
        self.blocks.iter().map(|b| b.invalid_pages() as u64).sum()
    }

    /// Total erases performed on this plane.
    pub fn total_erases(&self) -> u64 {
        self.blocks.iter().map(|b| b.erase_count() as u64).sum()
    }

    /// Iterate blocks with indices.
    pub fn blocks(&self) -> impl Iterator<Item = (u32, &Block)> {
        self.blocks.iter().enumerate().map(|(i, b)| (i as u32, b))
    }

    /// Audit: every pooled block is pristine, no duplicates, all blocks
    /// individually consistent.
    pub fn check(&self) -> Result<(), String> {
        let mut seen = vec![false; self.blocks.len()];
        for &idx in self.free_pool.iter().chain(self.retired.iter()) {
            let i = idx as usize;
            if i >= self.blocks.len() {
                return Err(format!("pool index {idx} out of range"));
            }
            if seen[i] {
                return Err(format!("block {idx} pooled/retired twice"));
            }
            seen[i] = true;
            if !self.blocks[i].is_pristine() {
                return Err(format!("pooled/retired block {idx} is not pristine"));
            }
        }
        for (i, b) in self.blocks.iter().enumerate() {
            b.check().map_err(|e| format!("block {i}: {e}"))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plane() -> PlaneState {
        PlaneState::new(8, 4)
    }

    #[test]
    fn fresh_plane_pools_everything() {
        let p = plane();
        assert_eq!(p.free_pool_len(), 8);
        assert_eq!(p.valid_pages(), 0);
        p.check().unwrap();
    }

    #[test]
    fn allocation_is_fifo() {
        let mut p = plane();
        assert_eq!(p.allocate_free_block(), Some(0));
        assert_eq!(p.allocate_free_block(), Some(1));
        assert_eq!(p.free_pool_len(), 6);
        // Erase + return puts it at the back.
        p.block_mut(0).program_next();
        p.block_mut(0).invalidate(0);
        p.block_mut(0).erase();
        p.return_free_block(0);
        // Pool: 2,3,4,5,6,7,0
        for expect in [2, 3, 4, 5, 6, 7, 0] {
            assert_eq!(p.allocate_free_block(), Some(expect));
        }
        assert_eq!(p.allocate_free_block(), None);
    }

    #[test]
    fn victim_selection_prefers_most_invalid() {
        let mut p = plane();
        // Block 0: 1 invalid. Block 1: 3 invalid. Block 2: still pooled.
        let b0 = p.allocate_free_block().unwrap();
        let b1 = p.allocate_free_block().unwrap();
        for _ in 0..4 {
            p.block_mut(b0).program_next();
            p.block_mut(b1).program_next();
        }
        p.block_mut(b0).invalidate(0);
        for off in 0..3 {
            p.block_mut(b1).invalidate(off);
        }
        let mut sweep = Vec::new();
        assert_eq!(p.gc_candidates(&[], &mut sweep), Some((3, b1)));
        // Excluding b1 falls back to b0.
        assert_eq!(p.gc_candidates(&[b1], &mut sweep), Some((1, b0)));
        // Excluding both leaves nothing (pooled/pristine blocks don't count).
        assert_eq!(p.gc_candidates(&[b0, b1], &mut sweep), None);
        assert!(sweep.is_empty(), "both blocks still hold live pages");
        p.check().unwrap();
    }

    #[test]
    fn victim_ties_break_low_index() {
        let mut p = plane();
        let a = p.allocate_free_block().unwrap();
        let b = p.allocate_free_block().unwrap();
        for blk in [a, b] {
            p.block_mut(blk).program_next();
            p.block_mut(blk).invalidate(0);
        }
        assert_eq!(p.gc_candidates(&[], &mut Vec::new()), Some((1, a.min(b))));
    }

    #[test]
    fn check_catches_dirty_pooled_block() {
        let mut p = plane();
        // Corrupt: dirty a block while it is still pooled.
        p.block_mut(3).program_next();
        assert!(p.check().is_err());
    }

    #[test]
    fn wear_accounting() {
        let mut p = plane();
        let b = p.allocate_free_block().unwrap();
        p.block_mut(b).program_next();
        p.block_mut(b).invalidate(0);
        p.block_mut(b).erase();
        p.return_free_block(b);
        assert_eq!(p.total_erases(), 1);
    }
}
