//! The GC victim scan against a naive oracle: random plane states —
//! programmed, partly and fully invalidated, erased and pooled, retired,
//! under arbitrary exclusions — must yield the
//! oracle's sweep set, victim (lowest index on ties) and emergency block.
//! The reference any faster `gc_candidates` (an invalid-count index) has
//! to pass.

use dloop_nand::plane::PlaneState;
use dloop_simkit::check::{self, Checker};
use dloop_simkit::{check_assert, check_assert_eq};

const BLOCKS: u32 = 12;
const PAGES: u32 = 4;

/// `recipes`: per allocated block, pages programmed, pages then invalidated,
/// and its fate (2 = erased and pooled, 3 = erased and retired, else kept).
fn scan_agrees(recipes: &[(u32, u32, u8)], exclude: &[u32]) -> Result<(), String> {
    let mut p = PlaneState::new(BLOCKS, PAGES);
    for &(programmed, invalidated, fate) in recipes {
        let Some(b) = p.allocate_free_block() else {
            break;
        };
        let invalidated = invalidated.min(programmed);
        for _ in 0..programmed {
            p.block_mut(b).program_next();
        }
        for off in 0..invalidated {
            p.block_mut(b).invalidate(off);
        }
        if invalidated == programmed && matches!(fate, 2 | 3) {
            p.block_mut(b).erase();
            match fate {
                2 => p.return_free_block(b),
                _ => p.retire(b),
            }
        }
    }
    p.check()?;

    // The oracle spells out every clause the scan leaves to the
    // pooled-or-retired-is-pristine invariant.
    let reclaimable = |&i: &u32| {
        !p.block(i).is_pristine() && !p.in_free_pool(i) && !p.is_retired(i) && !exclude.contains(&i)
    };
    let candidates: Vec<u32> = (0..BLOCKS).filter(reclaimable).collect();
    let invalid = |i: u32| p.block(i).invalid_pages();
    let want_sweep: Vec<u32> = candidates
        .iter()
        .copied()
        .filter(|&i| p.block(i).valid_pages() == 0)
        .collect();
    let most = candidates.iter().map(|&i| invalid(i)).max();
    let want_victim = most.map(|m| {
        let first = candidates.iter().find(|&&i| invalid(i) == m);
        (m, *first.expect("the maximum is attained"))
    });

    let mut sweep = vec![99]; // appended to, never cleared
    check_assert_eq!(p.gc_candidates(exclude, &mut sweep), want_victim);
    check_assert_eq!(sweep[0], 99);
    check_assert_eq!(&sweep[1..], &want_sweep[..]);
    check_assert_eq!(
        p.first_fully_invalid(|i| exclude.contains(&i)),
        want_sweep.first().copied()
    );
    check_assert!(p.first_fully_invalid(|_| true).is_none());
    Ok(())
}

#[test]
fn victim_scan_matches_a_naive_oracle() {
    let pages = || check::u32s(0..PAGES + 1);
    let gen = (
        check::vec_of((pages(), pages(), check::u8s(0..6)), 0..BLOCKS as usize),
        check::vec_of(check::u32s(0..BLOCKS), 0..4),
    );
    Checker::new()
        .cases(512)
        .run(&gen, |(recipes, exclude)| scan_agrees(recipes, exclude));
}
