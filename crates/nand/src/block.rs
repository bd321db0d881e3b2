//! A single NAND block: page states, the sequential write pointer, and the
//! erase counter.
//!
//! NAND constraints modelled here:
//! * pages within a block are programmed strictly sequentially (the paper:
//!   "The pages can only be written sequentially in the current free
//!   block");
//! * a programmed page cannot be reprogrammed until the whole block is
//!   erased (erase-before-write);
//! * a free page may be deliberately *skipped* (marked invalid without a
//!   program) — DLOOP does this to satisfy the copy-back same-parity rule.
//!
//! A page at or past the write pointer is free; one before it is valid iff
//! its bit in a 64-bit live mask is set. So a block is one inline 24-byte
//! record with no per-page storage, and holds at most 64 pages.

/// Lifecycle state of one physical page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum PageState {
    /// Erased, never programmed since the last erase.
    Free = 0,
    /// Holds live data.
    Valid = 1,
    /// Held data that has been superseded (or was skipped for parity).
    Invalid = 2,
}

/// One physical block.
#[derive(Debug, Clone)]
pub struct Block {
    /// Bit `i` set: page `i` holds live data.
    live: u64,
    pages: u32,
    /// Next programmable page offset; `== pages` when the block is full.
    write_ptr: u32,
    /// Set bits in `live`.
    valid: u32,
    erase_count: u32,
}

impl Block {
    /// A freshly erased block with `pages` pages (at most 64).
    pub fn new(pages: u32) -> Self {
        assert!(pages <= 64, "a block holds at most 64 pages, not {pages}");
        Block {
            live: 0,
            pages,
            write_ptr: 0,
            valid: 0,
            erase_count: 0,
        }
    }

    /// Pages per block.
    pub fn len(&self) -> u32 {
        self.pages
    }

    /// A block always has pages; provided for API completeness.
    pub fn is_empty(&self) -> bool {
        self.pages == 0
    }

    /// True when no page has been programmed or skipped since erase.
    pub fn is_pristine(&self) -> bool {
        self.write_ptr == 0
    }

    /// True when the write pointer has reached the end.
    pub fn is_full(&self) -> bool {
        self.write_ptr == self.pages
    }

    /// Offset the next program will land on (`None` if full).
    pub fn next_free_page(&self) -> Option<u32> {
        (!self.is_full()).then_some(self.write_ptr)
    }

    /// Remaining programmable pages.
    pub fn free_pages(&self) -> u32 {
        self.pages - self.write_ptr
    }

    /// Live pages.
    pub fn valid_pages(&self) -> u32 {
        self.valid
    }

    /// Dead pages (programmed-then-superseded plus parity-skipped).
    pub fn invalid_pages(&self) -> u32 {
        self.write_ptr - self.valid
    }

    /// Times this block has been erased (wear).
    pub fn erase_count(&self) -> u32 {
        self.erase_count
    }

    /// State of page `offset`.
    pub fn state(&self, offset: u32) -> PageState {
        debug_assert!(offset < self.pages, "page {offset} out of range");
        if offset >= self.write_ptr {
            PageState::Free
        } else if self.live & (1 << offset) != 0 {
            PageState::Valid
        } else {
            PageState::Invalid
        }
    }

    /// Offsets of all valid pages, in ascending order.
    pub fn valid_offsets(&self) -> impl Iterator<Item = u32> {
        let mut live = self.live;
        std::iter::from_fn(move || {
            let off = live.trailing_zeros();
            live &= live.wrapping_sub(1);
            (off < 64).then_some(off)
        })
    }

    /// Program the next sequential page, returning its offset.
    pub fn program_next(&mut self) -> Option<u32> {
        let off = self.next_free_page()?;
        self.live |= 1 << off;
        self.write_ptr += 1;
        self.valid += 1;
        Some(off)
    }

    /// Mark the next sequential free page invalid *without* programming it
    /// (the parity-waste move of §III.C / Fig. 5b). Returns the skipped
    /// offset.
    pub fn skip_next(&mut self) -> Option<u32> {
        let off = self.next_free_page()?;
        self.write_ptr += 1;
        Some(off)
    }

    /// Invalidate a previously valid page. Returns false if the page was
    /// not valid (caller turns that into an error).
    pub fn invalidate(&mut self, offset: u32) -> bool {
        if self.state(offset) != PageState::Valid {
            return false;
        }
        self.live &= !(1 << offset);
        self.valid -= 1;
        true
    }

    /// Erase the block: all pages become free, the write pointer rewinds,
    /// wear increments. Any remaining valid pages are destroyed — callers
    /// must have relocated them (GC asserts this).
    pub fn erase(&mut self) {
        self.live = 0;
        self.write_ptr = 0;
        self.valid = 0;
        self.erase_count += 1;
    }

    /// Internal consistency check: the write pointer lies within the
    /// block, no page at or past it is live, and the valid count matches
    /// the mask.
    pub fn check(&self) -> Result<(), String> {
        let (ptr, live) = (self.write_ptr, self.live);
        if ptr > self.pages || live.checked_shr(ptr).unwrap_or(0) != 0 {
            return Err(format!(
                "write_ptr {ptr} of {} pages, live mask {live:#x}",
                self.pages
            ));
        }
        if live.count_ones() != self.valid {
            let n = live.count_ones();
            return Err(format!("valid count {} != {n} live pages", self.valid));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_block_is_pristine() {
        let b = Block::new(64);
        assert!(b.is_pristine());
        assert!(!b.is_full());
        assert_eq!(b.free_pages(), 64);
        assert_eq!(b.valid_pages(), 0);
        assert_eq!(b.invalid_pages(), 0);
        assert_eq!(b.next_free_page(), Some(0));
        b.check().unwrap();
    }

    #[test]
    fn sequential_programming() {
        let mut b = Block::new(4);
        assert_eq!(b.program_next(), Some(0));
        assert_eq!(b.program_next(), Some(1));
        assert_eq!(b.program_next(), Some(2));
        assert_eq!(b.program_next(), Some(3));
        assert!(b.is_full());
        assert_eq!(b.program_next(), None);
        assert_eq!(b.valid_pages(), 4);
        b.check().unwrap();
    }

    #[test]
    fn skip_marks_invalid_without_valid_count() {
        let mut b = Block::new(4);
        assert_eq!(b.skip_next(), Some(0));
        assert_eq!(b.state(0), PageState::Invalid);
        assert_eq!(b.valid_pages(), 0);
        assert_eq!(b.invalid_pages(), 1);
        assert_eq!(b.program_next(), Some(1));
        b.check().unwrap();
    }

    #[test]
    fn invalidate_transitions() {
        let mut b = Block::new(4);
        b.program_next();
        assert!(b.invalidate(0));
        assert_eq!(b.state(0), PageState::Invalid);
        // Double invalidate is rejected.
        assert!(!b.invalidate(0));
        // Invalidate of a free page is rejected.
        assert!(!b.invalidate(2));
        b.check().unwrap();
    }

    #[test]
    fn erase_resets_and_counts_wear() {
        let mut b = Block::new(4);
        b.program_next();
        b.program_next();
        b.invalidate(0);
        b.erase();
        assert!(b.is_pristine());
        assert_eq!(b.erase_count(), 1);
        assert_eq!(b.valid_pages(), 0);
        b.erase();
        assert_eq!(b.erase_count(), 2);
        b.check().unwrap();
    }

    #[test]
    fn valid_offsets_iterates_live_pages() {
        let mut b = Block::new(6);
        for _ in 0..5 {
            b.program_next();
        }
        b.invalidate(1);
        b.invalidate(3);
        let got: Vec<_> = b.valid_offsets().collect();
        assert_eq!(got, vec![0, 2, 4]);
    }

    #[test]
    fn check_rejects_a_count_that_disagrees_with_the_mask() {
        let mut b = Block::new(4);
        b.program_next();
        // Simulate corruption through direct state poking.
        b.valid = 2;
        let err = b.check().unwrap_err();
        assert!(err.contains("valid count 2"), "{err}");
    }

    #[test]
    fn check_rejects_a_live_bit_at_or_after_the_write_pointer() {
        for stray in [2, 3] {
            let mut b = Block::new(4);
            b.program_next();
            b.program_next();
            b.live |= 1 << stray;
            b.valid += 1;
            let err = b.check().unwrap_err();
            assert!(err.contains("write_ptr 2 of 4"), "bit {stray}: {err}");
        }
    }

    #[test]
    fn a_block_is_one_inline_24_byte_record() {
        assert!(std::mem::size_of::<Block>() <= 24);
    }

    #[test]
    fn full_64_page_block_round_trips_every_offset() {
        let mut b = Block::new(64);
        while b.program_next().is_some() {}
        assert!(b.is_full());
        assert!(b.invalidate(63));
        assert!(b.invalidate(0));
        assert_eq!(b.state(63), PageState::Invalid);
        assert_eq!(b.valid_offsets().count(), 62);
        assert_eq!(b.valid_offsets().next(), Some(1));
        assert_eq!(b.valid_offsets().last(), Some(62));
        b.check().unwrap();
    }
}
