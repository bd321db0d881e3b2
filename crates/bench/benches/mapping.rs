//! Micro-benchmarks of the mapping structures: the segmented-LRU Cached
//! Mapping Table (at the paper's 4096 entries) and the page directory.

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
    bench_dir(&mut bench);
}
