//! Micro-benchmarks of the mapping structures: the segmented-LRU Cached
//! Mapping Table and the page directory.
//!
//! The CMT cases come in the two sizes the `benchmark/` workloads use: the
//! paper's 4096-entry table, which stays in the host's cache, and a
//! 512 Ki-entry table holding a whole 1 GB device's map, where every probe,
//! node and list neighbour is a memory access.

use dloop_ftl_kit::cmt::CachedMappingTable;
use dloop_ftl_kit::dir::PageDirectory;
use dloop_nand::Geometry;
use dloop_simkit::bench::{black_box, Bench};

fn bench_cmt(bench: &mut Bench) {
    {
        let mut cmt = CachedMappingTable::new(4096, 256);
        for i in 0..4096 {
            cmt.insert(i, i * 10, false);
        }
        let mut lpn = 0u64;
        bench.case("hit_lookup", || {
            let got = cmt.lookup(black_box(lpn % 4096));
            lpn += 1;
            got
        });
    }

    {
        let mut cmt = CachedMappingTable::new(4096, 256);
        let mut lpn = 0u64;
        bench.case("miss_insert_evict", || {
            // Always-miss workload: every insert evicts once warm.
            if cmt.peek(lpn).is_none() {
                cmt.insert(lpn, lpn, lpn.is_multiple_of(2));
            }
            lpn += 1;
        });
    }

    {
        let mut cmt = CachedMappingTable::new(4096, 256);
        for i in 0..4096 {
            cmt.insert(i, i, false);
        }
        let mut lpn = 0u64;
        bench.case("update_dirty", || {
            cmt.update(black_box(lpn % 4096), lpn);
            lpn += 1;
        });
    }

    {
        let mut cmt = CachedMappingTable::new(4096, 256);
        for i in 0..4096 {
            cmt.insert(i, i, false);
        }
        let mut round = 0u64;
        bench.case("flush_translation_page", || {
            // Dirty one tvpn's worth, then batch-flush it.
            let base = (round % 16) * 256;
            for k in 0..8 {
                cmt.update(base + k, round);
            }
            round += 1;
            cmt.flush_translation_page(base / 256)
        });
    }
}

/// LPNs of the resident-map cases (the 1 GB device of `overwrite_gc`).
const RESIDENT: u64 = 512 * 1024;

/// Uniform LPNs in `0..RESIDENT` (xorshift64).
fn uniform_lpn(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state % RESIDENT
}

fn bench_resident_cmt(bench: &mut Bench) {
    {
        // A host overwrite that hits: referencing lookup, then update.
        let mut cmt = CachedMappingTable::new(RESIDENT as usize, 256);
        for lpn in 0..RESIDENT {
            cmt.insert(lpn, lpn, false);
        }
        let mut rng = 7u64;
        bench.case("resident_hit_lookup_update", || {
            let lpn = uniform_lpn(&mut rng);
            let got = cmt.lookup(black_box(lpn));
            cmt.update(lpn, rng);
            got
        });
    }

    {
        // A GC move: the entry is usually dirty already and must not be
        // promoted.
        let mut cmt = CachedMappingTable::new(RESIDENT as usize, 256);
        for lpn in 0..RESIDENT {
            cmt.insert(lpn, lpn, lpn % 8 != 0);
        }
        let mut rng = 7u64;
        bench.case("resident_gc_move_update_in_place", || {
            let lpn = uniform_lpn(&mut rng);
            cmt.update_in_place(black_box(lpn), rng)
        });
    }
}

fn bench_dir(bench: &mut Bench) {
    let geometry = Geometry::build(1, 2, 5.0);
    let mut dir = PageDirectory::new(&geometry);
    let n = geometry.total_physical_pages();
    let mut ppn = 0u64;
    bench.case("dir_set_clear_owner", || {
        dir.set_data(ppn % n, ppn);
        let o = dir.owner(black_box(ppn % n));
        dir.clear(ppn % n);
        ppn += 1;
        o
    });
}

fn main() {
    let mut bench = Bench::new("mapping");
    bench_cmt(&mut bench);
    bench_resident_cmt(&mut bench);
    bench_dir(&mut bench);
}
