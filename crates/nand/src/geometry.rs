//! SSD geometry: the channel / package / chip / die / plane / block / page
//! hierarchy of Fig. 1 in the paper, with address arithmetic.
//!
//! Physical pages are numbered with a flat **PPN** (physical page number):
//!
//! ```text
//! ppn = plane * pages_per_plane + block_in_plane * pages_per_block + page_in_block
//! ```
//!
//! and planes are numbered so that consecutive plane indices walk the
//! hierarchy die-first:
//!
//! ```text
//! plane = (((channel * packages + package) * chips + chip) * dies + die) * planes + plane_in_die
//! ```
//!
//! A plane's *physical* blocks split into `data_blocks_per_plane`
//! user-visible blocks plus extra (over-provisioned) blocks, per §III.C:
//! "An off-shelf flash SSD usually has a few extra blocks, which are
//! invisible to users."

use std::fmt;

/// A logical page number, as seen by the host after LBA→page alignment.
pub type Lpn = u64;

/// A flat physical page number.
pub type Ppn = u64;

/// Index of a plane across the whole SSD.
pub type PlaneId = u32;

/// Index of a die across the whole SSD.
pub type DieId = u32;

/// Index of a channel.
pub type ChannelId = u32;

/// A physical block, addressed as (plane, index-within-plane).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockAddr {
    /// Owning plane.
    pub plane: PlaneId,
    /// Block index within the plane (`0..blocks_per_plane`).
    pub index: u32,
}

/// A physical page, addressed as (plane, block-in-plane, page-in-block).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PageAddr {
    /// Owning plane.
    pub plane: PlaneId,
    /// Block index within the plane.
    pub block: u32,
    /// Page offset within the block (`0..pages_per_block`).
    pub page: u32,
}

impl PageAddr {
    /// The block containing this page.
    pub fn block_addr(self) -> BlockAddr {
        BlockAddr {
            plane: self.plane,
            index: self.block,
        }
    }

    /// Page-offset parity — the quantity constrained by the copy-back
    /// same-parity rule (§III.A): source and destination offsets must both
    /// be odd or both be even.
    pub fn parity(self) -> u32 {
        self.page & 1
    }
}

/// Full physical geometry of the simulated SSD.
///
/// ```
/// use dloop_nand::Geometry;
///
/// let g = Geometry::paper_default(); // Table I: 8 GB, 2 KB pages, 64 planes
/// assert_eq!(g.total_planes(), 64);
///
/// // PPN arithmetic round-trips.
/// let addr = g.addr_of(123_456);
/// assert_eq!(g.ppn_of(addr), 123_456);
///
/// // Equation (1): the DLOOP home plane of a logical page.
/// assert_eq!(g.dloop_plane_of_lpn(65), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Geometry {
    /// Independent external channels (paper Fig. 1a shows 8).
    pub channels: u32,
    /// Packages sharing each channel.
    pub packages_per_channel: u32,
    /// Chips per package (share the package I/O bus).
    pub chips_per_package: u32,
    /// Dies per chip (each die has its own ready/busy signal).
    pub dies_per_chip: u32,
    /// Planes per die.
    pub planes_per_die: u32,
    /// Physical blocks per plane — data blocks plus extra blocks.
    pub blocks_per_plane: u32,
    /// User-visible (data) blocks per plane.
    pub data_blocks_per_plane: u32,
    /// Pages per block (Table I: 64).
    pub pages_per_block: u32,
    /// Page size in bytes (Table I default: 2 KB).
    pub page_size: u32,
}

impl Geometry {
    /// The paper's fixed parameters (Table I): 8 GB SSD, 2 KB pages,
    /// 64 pages/block, 3 % extra blocks, on an 8-channel / 2-die /
    /// 4-plane-per-die device (64 planes).
    pub fn paper_default() -> Self {
        Geometry::build(8, 2, 3.0)
    }

    /// Build a geometry for `capacity_gb` user gigabytes with `page_kb`
    /// pages and `extra_pct` percent extra blocks, on the default
    /// 8-channel × 1-package × 1-chip × 2-die × 4-plane hierarchy.
    ///
    /// The user capacity is rounded to a whole number of blocks per plane.
    pub fn build(capacity_gb: u32, page_kb: u32, extra_pct: f64) -> Self {
        Self::build_with_hierarchy(capacity_gb, page_kb, extra_pct, 8, 1, 1, 2, 4)
    }

    /// Fully parameterised construction.
    #[allow(clippy::too_many_arguments)]
    pub fn build_with_hierarchy(
        capacity_gb: u32,
        page_kb: u32,
        extra_pct: f64,
        channels: u32,
        packages_per_channel: u32,
        chips_per_package: u32,
        dies_per_chip: u32,
        planes_per_die: u32,
    ) -> Self {
        assert!(capacity_gb > 0 && page_kb > 0);
        assert!(extra_pct >= 0.0);
        let pages_per_block = 64;
        let planes =
            channels * packages_per_channel * chips_per_package * dies_per_chip * planes_per_die;
        let page_size = page_kb * 1024;
        let capacity_bytes = capacity_gb as u64 * 1024 * 1024 * 1024;
        let block_bytes = (page_size * pages_per_block) as u64;
        let total_data_blocks = capacity_bytes / block_bytes;
        let data_blocks_per_plane = (total_data_blocks / planes as u64).max(8) as u32;
        let extra = ((data_blocks_per_plane as f64 * extra_pct / 100.0).ceil() as u32).max(4);
        Geometry {
            channels,
            packages_per_channel,
            chips_per_package,
            dies_per_chip,
            planes_per_die,
            blocks_per_plane: data_blocks_per_plane + extra,
            data_blocks_per_plane,
            pages_per_block,
            page_size,
        }
    }

    /// Total number of planes in the SSD.
    pub fn total_planes(&self) -> u32 {
        self.channels
            * self.packages_per_channel
            * self.chips_per_package
            * self.dies_per_chip
            * self.planes_per_die
    }

    /// Total number of dies in the SSD.
    pub fn total_dies(&self) -> u32 {
        self.channels * self.packages_per_channel * self.chips_per_package * self.dies_per_chip
    }

    /// Extra (over-provisioned) blocks per plane.
    pub fn extra_blocks_per_plane(&self) -> u32 {
        self.blocks_per_plane - self.data_blocks_per_plane
    }

    /// Physical pages in one plane.
    pub fn pages_per_plane(&self) -> u64 {
        self.blocks_per_plane as u64 * self.pages_per_block as u64
    }

    /// Physical pages in the whole device.
    pub fn total_physical_pages(&self) -> u64 {
        self.pages_per_plane() * self.total_planes() as u64
    }

    /// User-visible logical pages (the LPN space).
    pub fn user_pages(&self) -> u64 {
        self.data_blocks_per_plane as u64 * self.pages_per_block as u64 * self.total_planes() as u64
    }

    /// User-visible capacity in bytes.
    pub fn user_capacity_bytes(&self) -> u64 {
        self.user_pages() * self.page_size as u64
    }

    /// Flatten a page address to a PPN.
    pub fn ppn_of(&self, addr: PageAddr) -> Ppn {
        debug_assert!(addr.plane < self.total_planes());
        debug_assert!(addr.block < self.blocks_per_plane);
        debug_assert!(addr.page < self.pages_per_block);
        addr.plane as u64 * self.pages_per_plane()
            + addr.block as u64 * self.pages_per_block as u64
            + addr.page as u64
    }

    /// Decompose a PPN into its page address.
    pub fn addr_of(&self, ppn: Ppn) -> PageAddr {
        debug_assert!(ppn < self.total_physical_pages(), "ppn {ppn} out of range");
        let ppp = self.pages_per_plane();
        let plane = (ppn / ppp) as PlaneId;
        let in_plane = ppn % ppp;
        PageAddr {
            plane,
            block: (in_plane / self.pages_per_block as u64) as u32,
            page: (in_plane % self.pages_per_block as u64) as u32,
        }
    }

    /// The plane a PPN lives on.
    pub fn plane_of_ppn(&self, ppn: Ppn) -> PlaneId {
        (ppn / self.pages_per_plane()) as PlaneId
    }

    /// DLOOP's Equation (1): `plane_no = LPN % No_of_planes` — the static
    /// LPN→plane assignment that spreads successive logical pages across
    /// all planes.
    pub fn dloop_plane_of_lpn(&self, lpn: Lpn) -> PlaneId {
        (lpn % self.total_planes() as u64) as PlaneId
    }

    /// Iterate all plane ids.
    pub fn planes(&self) -> impl Iterator<Item = PlaneId> {
        0..self.total_planes()
    }

    /// Number of mapping entries a translation page holds (DFTL-style:
    /// page_size / 8-byte entries, i.e. 256 for a 2 KB page).
    pub fn mappings_per_translation_page(&self) -> u64 {
        (self.page_size / 8) as u64
    }

    /// Number of translation pages needed to cover the LPN space.
    pub fn translation_page_count(&self) -> u64 {
        self.user_pages()
            .div_ceil(self.mappings_per_translation_page())
    }
}

impl fmt::Display for Geometry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.1} GiB user ({} planes x {} blocks [{} data + {} extra] x {} pages x {} B)",
            self.user_capacity_bytes() as f64 / (1u64 << 30) as f64,
            self.total_planes(),
            self.blocks_per_plane,
            self.data_blocks_per_plane,
            self.extra_blocks_per_plane(),
            self.pages_per_block,
            self.page_size,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_shape() {
        let g = Geometry::paper_default();
        assert_eq!(g.total_planes(), 64);
        assert_eq!(g.total_dies(), 16);
        assert_eq!(g.page_size, 2048);
        assert_eq!(g.pages_per_block, 64);
        // 8 GB / (64 planes * 128 KB blocks) = 1024 data blocks per plane.
        assert_eq!(g.data_blocks_per_plane, 1024);
        // 3% extra = 31 blocks, ceil -> 31.
        assert_eq!(g.extra_blocks_per_plane(), 31);
        assert_eq!(g.user_capacity_bytes(), 8 << 30);
    }

    #[test]
    fn ppn_round_trip_exhaustive_small() {
        let g = Geometry::build_with_hierarchy(1, 2, 5.0, 2, 1, 1, 2, 2);
        for ppn in 0..g.total_physical_pages() {
            let addr = g.addr_of(ppn);
            assert_eq!(g.ppn_of(addr), ppn);
            assert_eq!(g.plane_of_ppn(ppn), addr.plane);
        }
    }

    #[test]
    fn dloop_plane_assignment_is_round_robin() {
        let g = Geometry::paper_default();
        let p = g.total_planes() as u64;
        assert_eq!(g.dloop_plane_of_lpn(0), 0);
        assert_eq!(g.dloop_plane_of_lpn(1), 1);
        assert_eq!(g.dloop_plane_of_lpn(p), 0);
        assert_eq!(g.dloop_plane_of_lpn(p + 5), 5);
    }

    #[test]
    fn parity_of_page_addr() {
        let even = PageAddr {
            plane: 0,
            block: 3,
            page: 2,
        };
        let odd = PageAddr {
            plane: 0,
            block: 3,
            page: 5,
        };
        assert_eq!(even.parity(), 0);
        assert_eq!(odd.parity(), 1);
    }

    #[test]
    fn capacity_scales_linearly() {
        let g8 = Geometry::build(8, 2, 3.0);
        let g16 = Geometry::build(16, 2, 3.0);
        assert_eq!(g16.data_blocks_per_plane, 2 * g8.data_blocks_per_plane);
        assert_eq!(g16.user_capacity_bytes(), 2 * g8.user_capacity_bytes());
    }

    #[test]
    fn page_size_trades_blocks() {
        // Same capacity, bigger pages -> fewer blocks needed.
        let g2 = Geometry::build(8, 2, 3.0);
        let g4 = Geometry::build(8, 4, 3.0);
        assert_eq!(g4.data_blocks_per_plane, g2.data_blocks_per_plane / 2);
        assert_eq!(g4.user_capacity_bytes(), g2.user_capacity_bytes());
    }

    #[test]
    fn translation_page_math() {
        let g = Geometry::paper_default();
        assert_eq!(g.mappings_per_translation_page(), 256);
        assert_eq!(g.translation_page_count(), g.user_pages().div_ceil(256));
    }

    #[test]
    fn extra_blocks_respect_percentage() {
        for pct in [3.0, 5.0, 7.0, 10.0] {
            let g = Geometry::build(8, 2, pct);
            let expect = ((g.data_blocks_per_plane as f64 * pct / 100.0).ceil() as u32).max(4);
            assert_eq!(g.extra_blocks_per_plane(), expect);
        }
    }
}
