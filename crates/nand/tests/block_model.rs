//! `Block` against a naive model: random program/skip/invalidate/erase
//! sequences on blocks of 1–64 pages, replayed on a `Vec<PageState>` with
//! an explicit write pointer and erase counter. After every step each
//! return value, every page's state, the valid offsets (ascending) and
//! every counter must agree with the model, and `check()` must pass.

use dloop_nand::block::Block;
use dloop_nand::PageState;
use dloop_simkit::check::{self, Checker, Generator};
use dloop_simkit::check_assert_eq;

#[derive(Debug, Clone, PartialEq)]
enum Op {
    Program,
    Skip,
    /// Invalidate offset `page % pages`.
    Invalidate(u32),
    Erase,
}

/// The obvious reference: one state per page.
struct Model {
    pages: Vec<PageState>,
    write_ptr: u32,
    erases: u32,
}

impl Model {
    fn new(pages: u32) -> Self {
        Model {
            pages: vec![PageState::Free; pages as usize],
            write_ptr: 0,
            erases: 0,
        }
    }

    /// Mark the next free page `to`; `None` when the block is full.
    fn advance(&mut self, to: PageState) -> Option<u32> {
        let off = self.write_ptr;
        let page = self.pages.get_mut(off as usize)?;
        *page = to;
        self.write_ptr += 1;
        Some(off)
    }

    fn invalidate(&mut self, off: u32) -> bool {
        let page = &mut self.pages[off as usize];
        let was_valid = *page == PageState::Valid;
        if was_valid {
            *page = PageState::Invalid;
        }
        was_valid
    }

    fn erase(&mut self) {
        self.pages.fill(PageState::Free);
        self.write_ptr = 0;
        self.erases += 1;
    }

    fn count(&self, state: PageState) -> u32 {
        self.pages.iter().filter(|&&s| s == state).count() as u32
    }
}

fn agrees(b: &Block, m: &Model) -> Result<(), String> {
    b.check()?;
    for (off, &want) in m.pages.iter().enumerate() {
        check_assert_eq!(b.state(off as u32), want, "state of page {off}");
    }
    let want: Vec<u32> = (0..m.pages.len() as u32)
        .filter(|&off| m.pages[off as usize] == PageState::Valid)
        .collect();
    check_assert_eq!(b.valid_offsets().collect::<Vec<_>>(), want);
    check_assert_eq!(b.valid_pages(), m.count(PageState::Valid));
    check_assert_eq!(b.invalid_pages(), m.count(PageState::Invalid));
    check_assert_eq!(b.free_pages(), m.count(PageState::Free));
    let next = (m.write_ptr < m.pages.len() as u32).then_some(m.write_ptr);
    check_assert_eq!(b.next_free_page(), next);
    check_assert_eq!(b.is_full(), next.is_none());
    check_assert_eq!(b.is_pristine(), m.write_ptr == 0);
    check_assert_eq!(b.erase_count(), m.erases);
    check_assert_eq!(b.len(), m.pages.len() as u32);
    Ok(())
}

/// Erases are rare enough that a 64-page block usually fills between two.
fn op() -> check::BoxedGenerator<Op> {
    check::weighted(vec![
        (30, check::elements(vec![Op::Program]).boxed()),
        (5, check::elements(vec![Op::Skip]).boxed()),
        (24, check::u32s(0..64).map(Op::Invalidate).boxed()),
        (1, check::elements(vec![Op::Erase]).boxed()),
    ])
    .boxed()
}

#[test]
fn block_agrees_with_a_per_page_model() {
    // Half the blocks have the full 64 pages, so the mask's top bit is
    // programmed, invalidated and erased too.
    let pages = check::weighted(vec![
        (1, check::elements(vec![64]).boxed()),
        (1, check::u32s(1..65).boxed()),
    ]);
    let gen = (pages, check::vec_of(op(), 1..400));
    Checker::new().cases(64).run(&gen, |(pages, ops)| {
        let mut b = Block::new(*pages);
        let mut m = Model::new(*pages);
        agrees(&b, &m)?;
        for (step, op) in ops.iter().enumerate() {
            match *op {
                Op::Program => {
                    check_assert_eq!(b.program_next(), m.advance(PageState::Valid), "step {step}")
                }
                Op::Skip => {
                    check_assert_eq!(b.skip_next(), m.advance(PageState::Invalid), "step {step}")
                }
                Op::Invalidate(page) => {
                    let off = page % pages;
                    check_assert_eq!(b.invalidate(off), m.invalidate(off), "step {step}")
                }
                Op::Erase => {
                    b.erase();
                    m.erase();
                }
            }
            agrees(&b, &m).map_err(|e| format!("after step {step} ({op:?}): {e}"))?;
        }
        Ok(())
    });
}
