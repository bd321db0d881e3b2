//! Error types for flash-state mutations — two strictly separate
//! namespaces:
//!
//! * [`NandError`] — an FTL driving the state through an invalid
//!   transition (programming a full block, double-invalidating a page,
//!   erasing an already-free block…). These are **logic bugs in the FTL**,
//!   never media events; they exist so tests and audits can observe the
//!   violation instead of corrupting state, and a correct FTL never sees
//!   one regardless of the fault plan.
//! * [`MediaError`] — the **media misbehaving** under a `dloop-faults`
//!   plan: an uncorrectable read, a program-status failure, an erase
//!   failure. These are expected in-service events a real controller
//!   recovers from (re-program elsewhere, retire the block, account the
//!   data loss); they are reported as [`MediaOutcome`](dloop_faults::MediaOutcome)s on the checked
//!   fast path and as `MediaError` where an `Error` impl is needed.

use crate::geometry::{BlockAddr, PageAddr, Ppn};
use std::fmt;

/// Things an FTL can do wrong against the flash state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NandError {
    /// Programming past the end of a block.
    BlockFull(BlockAddr),
    /// Invalidate on a page that is not valid.
    NotValid(PageAddr),
    /// Read of a page that holds no valid data.
    ReadInvalid(Ppn),
    /// Erase of a block that is already in the free pool.
    EraseFreeBlock(BlockAddr),
    /// Free-pool underflow: an allocation was requested from an empty pool.
    NoFreeBlock {
        /// Plane whose pool ran dry.
        plane: u32,
    },
    /// Skip (parity-waste) on a page that is not free.
    SkipNonFree(PageAddr),
    /// An address outside the configured geometry.
    OutOfRange(Ppn),
}

impl fmt::Display for NandError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NandError::BlockFull(b) => {
                write!(f, "program on full block {}:{}", b.plane, b.index)
            }
            NandError::NotValid(p) => write!(
                f,
                "invalidate on non-valid page {}:{}:{}",
                p.plane, p.block, p.page
            ),
            NandError::ReadInvalid(ppn) => write!(f, "read of invalid ppn {ppn}"),
            NandError::EraseFreeBlock(b) => {
                write!(f, "erase of free-pool block {}:{}", b.plane, b.index)
            }
            NandError::NoFreeBlock { plane } => {
                write!(f, "free-block pool underflow on plane {plane}")
            }
            NandError::SkipNonFree(p) => write!(
                f,
                "parity skip on non-free page {}:{}:{}",
                p.plane, p.block, p.page
            ),
            NandError::OutOfRange(ppn) => write!(f, "ppn {ppn} outside geometry"),
        }
    }
}

impl std::error::Error for NandError {}

/// A media fault surfaced as an error value (see the module doc for the
/// namespace split). Unlike [`NandError`], a `MediaError` does not mean
/// the FTL did anything wrong.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MediaError {
    /// A read exhausted the retry ladder; the page's data is lost.
    UncorrectableRead(Ppn),
    /// A page program reported status failure; the page is consumed and
    /// must be re-programmed elsewhere.
    ProgramFail(PageAddr),
    /// A block erase failed; the block must be retired (grown bad).
    EraseFail(BlockAddr),
}

impl fmt::Display for MediaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MediaError::UncorrectableRead(ppn) => {
                write!(
                    f,
                    "uncorrectable read at ppn {ppn} (retry ladder exhausted)"
                )
            }
            MediaError::ProgramFail(p) => write!(
                f,
                "program-status failure at page {}:{}:{}",
                p.plane, p.block, p.page
            ),
            MediaError::EraseFail(b) => {
                write!(f, "erase failure on block {}:{}", b.plane, b.index)
            }
        }
    }
}

impl std::error::Error for MediaError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn media_errors_display_and_convert() {
        let e = MediaError::UncorrectableRead(42);
        assert!(e.to_string().contains("uncorrectable"));
        let p = MediaError::ProgramFail(PageAddr {
            plane: 1,
            block: 2,
            page: 3,
        });
        assert!(p.to_string().contains("1:2:3"));
        let b = MediaError::EraseFail(BlockAddr { plane: 0, index: 9 });
        assert!(b.to_string().contains("0:9"));
        // Both namespaces implement std::error::Error.
        fn is_error<E: std::error::Error>(_e: &E) {}
        is_error(&e);
        is_error(&NandError::OutOfRange(1));
    }
}
