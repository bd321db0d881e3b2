//! Reverse page directory: what does each valid physical page hold?
//!
//! Garbage collection picks victim *blocks* and must relocate their valid
//! *pages*; to update the right mapping structure it has to know whether a
//! page holds host data (keyed by LPN) or a translation page (keyed by its
//! virtual translation-page number). [`PageDirectory`] maintains that
//! reverse map densely, packed into one `u32` per physical page: a 2-bit
//! tag and a 30-bit LPN or tvpn. That caps the LPN space at 2^30 pages
//! (2 TiB at 2 KB pages); [`PageDirectory::new`] refuses a larger device.

use dloop_nand::{Geometry, Lpn, Ppn};

/// What a physical page currently holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageOwner {
    /// Nothing live.
    None,
    /// Host data for this logical page.
    Data(Lpn),
    /// The translation page with this virtual translation-page number.
    Translation(u64),
}

const TAG_NONE: u32 = 0;
const TAG_DATA: u32 = 1 << 30;
const TAG_TRANS: u32 = 2 << 30;
const TAG_MASK: u32 = 3 << 30;
const VAL_MASK: u32 = !TAG_MASK;

/// Refuse a geometry whose page numbers do not fit the 32-bit tables: a
/// PPN must stay below `u32::MAX` (the page map's unmapped sentinel), and
/// an LPN or tvpn must fit the directory's 30-bit value field.
pub(crate) fn check_u32_geometry(geometry: &Geometry) {
    let (physical, user) = (geometry.total_physical_pages(), geometry.user_pages());
    assert!(
        physical <= u32::MAX as u64,
        "{physical} physical pages: PPNs must stay below u32::MAX ({})",
        u32::MAX
    );
    assert!(
        user <= VAL_MASK as u64 + 1,
        "{user} user pages: LPNs must fit 30 bits (at most 2^30 = {} pages)",
        VAL_MASK as u64 + 1
    );
}

/// Dense reverse map PPN → owner.
#[derive(Debug, Clone)]
pub struct PageDirectory {
    slots: Vec<u32>,
}

impl PageDirectory {
    /// An empty directory covering the whole physical page space. Panics
    /// on a geometry too large for 32-bit slots (module docs).
    pub fn new(geometry: &Geometry) -> Self {
        check_u32_geometry(geometry);
        PageDirectory {
            slots: vec![TAG_NONE; geometry.total_physical_pages() as usize],
        }
    }

    /// Record that `ppn` now holds data for `lpn`.
    pub fn set_data(&mut self, ppn: Ppn, lpn: Lpn) {
        debug_assert!(lpn <= VAL_MASK as u64);
        self.slots[ppn as usize] = TAG_DATA | lpn as u32;
    }

    /// Record that `ppn` now holds translation page `tvpn`.
    pub fn set_translation(&mut self, ppn: Ppn, tvpn: u64) {
        debug_assert!(tvpn <= VAL_MASK as u64);
        self.slots[ppn as usize] = TAG_TRANS | tvpn as u32;
    }

    /// Record that `ppn` no longer holds anything live.
    pub fn clear(&mut self, ppn: Ppn) {
        self.slots[ppn as usize] = TAG_NONE;
    }

    /// Current owner of `ppn`.
    pub fn owner(&self, ppn: Ppn) -> PageOwner {
        let s = self.slots[ppn as usize];
        let value = (s & VAL_MASK) as u64;
        match s & TAG_MASK {
            TAG_DATA => PageOwner::Data(value),
            TAG_TRANS => PageOwner::Translation(value),
            _ => PageOwner::None,
        }
    }

    /// Adopt `other`'s owners for the physical pages in `ppns` — the
    /// sharded engine's merge, where `other` is a worker's fork that was
    /// the sole writer of a contiguous plane-major PPN range.
    pub fn absorb_range(&mut self, other: &PageDirectory, ppns: std::ops::Range<Ppn>) {
        let r = ppns.start as usize..ppns.end as usize;
        self.slots[r.clone()].copy_from_slice(&other.slots[r]);
    }

    /// A worker's fork covering only the contiguous plane-major PPN range
    /// `ppns`: owned slots are copied, everything else starts `None`.
    ///
    /// The sharded engine's purity attestation guarantees a worker only
    /// consults the directory for planes it owns (GC victim scans are
    /// plane-local), and [`PageDirectory::absorb_range`] copies only the
    /// owned range back — so skipping the copy of foreign slots changes
    /// no observable behaviour while avoiding most of the fork cost on
    /// wide devices. Impure operations may transiently *write* foreign
    /// slots before the worker's result is discarded wholesale; the
    /// full-length vector keeps those writes in-bounds and harmless.
    pub fn shard_fork(&self, ppns: std::ops::Range<Ppn>) -> PageDirectory {
        let mut slots = vec![TAG_NONE; self.slots.len()];
        let r = ppns.start as usize..ppns.end as usize;
        slots[r.clone()].copy_from_slice(&self.slots[r]);
        PageDirectory { slots }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dir() -> PageDirectory {
        PageDirectory::new(&Geometry::build_with_hierarchy(1, 2, 5.0, 2, 1, 1, 1, 2))
    }

    #[test]
    fn starts_empty() {
        let d = dir();
        assert_eq!(d.owner(0), PageOwner::None);
    }

    #[test]
    fn data_round_trip() {
        let mut d = dir();
        d.set_data(7, 123_456);
        assert_eq!(d.owner(7), PageOwner::Data(123_456));
        d.clear(7);
        assert_eq!(d.owner(7), PageOwner::None);
    }

    #[test]
    fn translation_round_trip() {
        let mut d = dir();
        d.set_translation(9, 42);
        assert_eq!(d.owner(9), PageOwner::Translation(42));
    }

    #[test]
    fn overwrite_replaces_owner() {
        let mut d = dir();
        d.set_data(3, 10);
        d.set_translation(3, 20);
        assert_eq!(d.owner(3), PageOwner::Translation(20));
    }

    #[test]
    fn lpn_zero_is_distinguishable_from_empty() {
        let mut d = dir();
        d.set_data(0, 0);
        assert_eq!(d.owner(0), PageOwner::Data(0));
    }

    #[test]
    fn shard_fork_copies_only_owned_range_and_absorbs_back() {
        let mut d = dir();
        let total = d.slots.len() as Ppn;
        d.set_data(1, 10);
        d.set_data(total - 1, 20);
        let lo = 0;
        let hi = total / 2;
        let mut f = d.shard_fork(lo..hi);
        assert_eq!(f.owner(1), PageOwner::Data(10));
        // Foreign slots start empty in the fork...
        assert_eq!(f.owner(total - 1), PageOwner::None);
        // ...and the fork is full-length, so stray writes stay in-bounds.
        assert_eq!(f.slots.len(), d.slots.len());
        f.set_data(2, 30);
        d.absorb_range(&f, lo..hi);
        assert_eq!(d.owner(2), PageOwner::Data(30));
        // Absorb never touches slots outside the owned range.
        assert_eq!(d.owner(total - 1), PageOwner::Data(20));
    }

    #[test]
    fn a_slot_is_four_bytes_per_physical_page() {
        let d = dir();
        assert_eq!(std::mem::size_of_val(&d.slots[..]), 4 * d.slots.len());
    }

    #[test]
    fn the_largest_lpn_and_tvpn_round_trip() {
        let mut d = dir();
        let top = VAL_MASK as u64;
        assert_eq!(top, (1 << 30) - 1);
        d.set_data(0, top);
        d.set_translation(1, top);
        assert_eq!(d.owner(0), PageOwner::Data(top));
        assert_eq!(d.owner(1), PageOwner::Translation(top));
    }

    /// One plane of `blocks` blocks, `data_blocks` of them user-visible.
    fn one_plane(blocks: u32, data_blocks: u32) -> Geometry {
        let mut g = Geometry::build_with_hierarchy(1, 2, 5.0, 1, 1, 1, 1, 1);
        g.blocks_per_plane = blocks;
        g.data_blocks_per_plane = data_blocks;
        g
    }

    #[test]
    fn a_geometry_at_both_bounds_is_accepted() {
        // 2^30 user pages and 2^32 - 64 physical pages.
        check_u32_geometry(&one_plane((1 << 26) - 1, 1 << 24));
    }

    #[test]
    #[should_panic(expected = "LPNs must fit 30 bits")]
    fn one_block_past_the_lpn_bound_is_refused() {
        PageDirectory::new(&one_plane((1 << 24) + 1, (1 << 24) + 1));
    }

    #[test]
    #[should_panic(expected = "PPNs must stay below u32::MAX")]
    fn one_block_past_the_ppn_bound_is_refused() {
        PageDirectory::new(&one_plane(1 << 26, 1));
    }
}
