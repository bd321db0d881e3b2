//! Property-based tests of the NAND state machine: arbitrary sequences of
//! program/skip/invalidate/erase operations can never violate
//! the flash invariants, the checked API rejects every illegal transition,
//! and the free-pool index stays equal to a recount over the planes.
//!
//! Runs on `dloop_simkit::check` (the in-tree property harness); failures
//! print a `SIMKIT_CHECK_REPLAY` seed for deterministic replay.

use dloop_faults::FaultConfig;
use dloop_nand::{BlockAddr, FlashState, Geometry, NandError, PageState};
use dloop_simkit::check::{self, Checker, Generator};
use dloop_simkit::{check_assert, check_assert_eq};
use std::cell::Cell;

#[derive(Debug, Clone)]
enum Action {
    Allocate { plane: u8 },
    Program { slot: u8 },
    Skip { slot: u8 },
    Invalidate { slot: u8, page: u8 },
    EraseIfDead { slot: u8 },
}

/// 4 planes of 10 blocks: tiny, so the per-step full audit stays cheap.
fn tiny() -> Geometry {
    let mut g = Geometry::build_with_hierarchy(1, 2, 5.0, 2, 1, 1, 1, 2);
    g.data_blocks_per_plane = 8;
    g.blocks_per_plane = 10;
    g
}

/// The free-pool index against a naive recount over `free_blocks`, plus
/// the full audit (which recomputes the index itself).
fn pool_index_matches_recount(fs: &FlashState) -> Result<(), String> {
    let pools: Vec<u32> = (0..fs.geometry().total_planes())
        .map(|p| fs.free_blocks(p))
        .collect();
    check_assert_eq!(fs.min_free_blocks(), *pools.iter().min().unwrap());
    check_assert_eq!(
        fs.total_free_blocks(),
        pools.iter().map(|&n| n as u64).sum::<u64>()
    );
    fs.check()
}

fn action() -> check::BoxedGenerator<Action> {
    check::weighted(vec![
        (
            1,
            check::u8s(0..4)
                .map(|plane| Action::Allocate { plane })
                .boxed(),
        ),
        (
            4,
            check::u8s(0..8)
                .map(|slot| Action::Program { slot })
                .boxed(),
        ),
        (
            1,
            check::u8s(0..8).map(|slot| Action::Skip { slot }).boxed(),
        ),
        (
            3,
            (check::u8s(0..8), check::u8s(0..64))
                .map(|(slot, page)| Action::Invalidate { slot, page })
                .boxed(),
        ),
        (
            1,
            check::u8s(0..8)
                .map(|slot| Action::EraseIfDead { slot })
                .boxed(),
        ),
    ])
    .boxed()
}

#[test]
fn arbitrary_action_sequences_preserve_invariants() {
    let gen = check::vec_of(action(), 1..300);
    // Erases that retired a failed block instead of pooling it, over all
    // cases: the index must follow that path too, so it has to be taken.
    let retirements = Cell::new(0u32);
    Checker::new().cases(64).run(&gen, |actions| {
        // Five blocks of four pages a plane, so random invalidations empty
        // whole blocks and pooled blocks come round again; one erase in
        // four fails and retires its block.
        let mut g = tiny();
        g.data_blocks_per_plane = 4;
        g.blocks_per_plane = 5;
        g.pages_per_block = 4;
        let mut fs = FlashState::new(g.clone());
        fs.attach_media(&FaultConfig {
            erase_fail_prob: 0.25,
            seed: 3,
            ..FaultConfig::none()
        });
        // Slots: blocks we've allocated, across planes.
        let mut slots: Vec<BlockAddr> = Vec::new();
        let mut expected_valid = 0u64;

        for (step, a) in actions.iter().enumerate() {
            match *a {
                Action::Allocate { plane } => {
                    let plane = plane as u32 % g.total_planes();
                    if let Ok(idx) = fs.allocate_free_block(plane) {
                        slots.push(BlockAddr { plane, index: idx });
                    }
                }
                Action::Program { slot } => {
                    if slots.is_empty() {
                        continue;
                    }
                    let blk = slots[slot as usize % slots.len()];
                    match fs.program_next(blk) {
                        Ok(addr) => {
                            expected_valid += 1;
                            check_assert_eq!(fs.page_state(g.ppn_of(addr)), PageState::Valid);
                        }
                        Err(NandError::BlockFull(_)) => {
                            check_assert!(fs.plane(blk.plane).block(blk.index).is_full());
                        }
                        Err(e) => return Err(format!("{e}")),
                    }
                }
                Action::Skip { slot } => {
                    if slots.is_empty() {
                        continue;
                    }
                    let blk = slots[slot as usize % slots.len()];
                    match fs.skip_next(blk) {
                        Ok(_) | Err(NandError::BlockFull(_)) => {}
                        Err(e) => return Err(format!("{e}")),
                    }
                }
                Action::Invalidate { slot, page } => {
                    if slots.is_empty() {
                        continue;
                    }
                    let blk = slots[slot as usize % slots.len()];
                    let addr = dloop_nand::PageAddr {
                        plane: blk.plane,
                        block: blk.index,
                        page: page as u32 % g.pages_per_block,
                    };
                    let ppn = g.ppn_of(addr);
                    let was_valid = fs.page_state(ppn) == PageState::Valid;
                    match fs.invalidate(ppn) {
                        Ok(()) => {
                            check_assert!(was_valid, "invalidate succeeded on non-valid page");
                            expected_valid -= 1;
                        }
                        Err(NandError::NotValid(_)) => check_assert!(!was_valid),
                        Err(e) => return Err(format!("{e}")),
                    }
                }
                Action::EraseIfDead { slot } => {
                    if slots.is_empty() {
                        continue;
                    }
                    let i = slot as usize % slots.len();
                    let blk = slots[i];
                    if fs.plane(blk.plane).block(blk.index).valid_pages() == 0
                        && !fs.plane(blk.plane).in_free_pool(blk.index)
                    {
                        if !fs.erase_and_pool(blk).map_err(|e| format!("{e}"))? {
                            check_assert!(fs.plane(blk.plane).is_retired(blk.index));
                            retirements.set(retirements.get() + 1);
                        }
                        slots.remove(i);
                    }
                }
            }
            pool_index_matches_recount(&fs).map_err(|e| format!("after step {step} {a:?}: {e}"))?;
        }
        check_assert_eq!(fs.total_valid_pages(), expected_valid);
        Ok(())
    });
    assert!(
        retirements.get() > 0,
        "no case erased a block into retirement"
    );
}

#[test]
fn factory_bad_blocks_leave_the_pool_index_exact() {
    let mut fs = FlashState::new(tiny());
    fs.attach_media(&FaultConfig {
        factory_bad_frac: 0.2,
        seed: 5,
        ..FaultConfig::none()
    });
    assert!(
        fs.retired_blocks() > 0,
        "the plan drew no factory-bad block"
    );
    if let Err(e) = pool_index_matches_recount(&fs) {
        panic!("{e}");
    }
}

#[test]
fn shard_absorb_rebuilds_the_pool_index() {
    let mut fs = FlashState::new(tiny());
    for _ in 0..2 {
        fs.allocate_free_block(3).unwrap();
    }
    let mut worker = fs.shard_fork();
    // The worker owns planes 0..2: drain plane 1 below every other pool,
    // take one of plane 0's blocks, and grow plane 0 back by an erase.
    for _ in 0..6 {
        worker.allocate_free_block(1).unwrap();
    }
    worker.allocate_free_block(0).unwrap();
    let blk = BlockAddr {
        plane: 0,
        index: worker.allocate_free_block(0).unwrap(),
    };
    worker.skip_next(blk).unwrap();
    worker.erase_and_pool(blk).unwrap();
    fs.shard_absorb(&worker, 0..2);
    assert_eq!(fs.min_free_blocks(), 4);
    assert_eq!(fs.total_free_blocks(), 9 + 4 + 10 + 8);
    if let Err(e) = pool_index_matches_recount(&fs) {
        panic!("{e}");
    }
}

#[test]
fn geometry_round_trip() {
    let gen = (
        check::u32s(1..8),
        check::elements(vec![2u32, 4, 8, 16]),
        check::f64s(0.0..12.0),
        check::f64s(0.0..1.0),
    );
    Checker::new()
        .cases(256)
        .run(&gen, |&(capacity, page_kb, extra, ppn_frac)| {
            let g = Geometry::build(capacity, page_kb, extra);
            let ppn =
                (g.total_physical_pages() as f64 * ppn_frac) as u64 % g.total_physical_pages();
            let addr = g.addr_of(ppn);
            check_assert_eq!(g.ppn_of(addr), ppn);
            check_assert!(addr.plane < g.total_planes());
            check_assert!(addr.block < g.blocks_per_plane);
            check_assert!(addr.page < g.pages_per_block);
            check_assert_eq!(g.plane_of_ppn(ppn), addr.plane);
            Ok(())
        });
}
