//! The FTL abstraction: how a translation layer turns one page-level host
//! operation into a chain of timed flash operations.
//!
//! An FTL mutates the flash *state* eagerly (mappings, block contents, GC)
//! while appending the corresponding *timed steps* to an [`OpChain`]. The
//! device controller then plays the chain against the hardware model:
//! steps of one chain run back-to-back (translation lookup before data
//! access, GC before the write it makes room for), while chains of
//! different host operations interleave freely across planes and channels.
//! This mirrors the paper's simulator, where address translation decides
//! up-front whether a copy can use the copy-back path and the timing
//! advances accordingly (§IV.B).

use crate::dir::PageDirectory;
use dloop_nand::{BlockAddr, FlashState, Lpn, MediaOutcome, PlaneId, Ppn};

pub use dloop_nand::FlashStep;

/// The ordered steps serving one page-level host operation.
#[derive(Debug, Clone, Default)]
pub struct OpChain {
    steps: Vec<FlashStep>,
}

impl OpChain {
    /// An empty chain.
    pub fn new() -> Self {
        OpChain { steps: Vec::new() }
    }

    /// Append a step.
    pub fn push(&mut self, step: FlashStep) {
        self.steps.push(step);
    }

    /// The steps in execution order.
    pub fn steps(&self) -> &[FlashStep] {
        &self.steps
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the chain is empty (e.g. a read of a never-written LPN —
    /// served from the controller without touching flash).
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Drop all steps, keeping the allocation (chains are reused per op).
    pub fn clear(&mut self) {
        self.steps.clear();
    }
}

/// Cross-FTL event counters (each FTL fills in what applies to it).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FtlCounters {
    /// Garbage collections invoked.
    pub gc_invocations: u64,
    /// Valid pages moved by intra-plane copy-back.
    pub copyback_moves: u64,
    /// Valid pages moved over the external bus.
    pub external_moves: u64,
    /// Free pages deliberately wasted to honour the same-parity policy.
    pub parity_skips: u64,
    /// Translation pages read from flash (CMT misses).
    pub translation_reads: u64,
    /// Translation pages written to flash (dirty evictions, GC updates).
    pub translation_writes: u64,
    /// Hybrid-FTL merge counts.
    pub full_merges: u64,
    /// Partial merges.
    pub partial_merges: u64,
    /// Switch merges.
    pub switch_merges: u64,
}

impl FtlCounters {
    /// Counter deltas accumulated since `baseline` was captured — used by
    /// the device to report only the measured window after a warm-up, the
    /// same way flash totals and media counters are baselined.
    pub fn since(&self, baseline: &FtlCounters) -> FtlCounters {
        FtlCounters {
            gc_invocations: self.gc_invocations - baseline.gc_invocations,
            copyback_moves: self.copyback_moves - baseline.copyback_moves,
            external_moves: self.external_moves - baseline.external_moves,
            parity_skips: self.parity_skips - baseline.parity_skips,
            translation_reads: self.translation_reads - baseline.translation_reads,
            translation_writes: self.translation_writes - baseline.translation_writes,
            full_merges: self.full_merges - baseline.full_merges,
            partial_merges: self.partial_merges - baseline.partial_merges,
            switch_merges: self.switch_merges - baseline.switch_merges,
        }
    }
}

/// Which chain a pushed step belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Work the host request waits for (translation lookups, the data
    /// read/program itself).
    Host,
    /// Reclamation caused by this operation (GC on the written plane,
    /// merges, erases, GC-driven translation rewrites). In the default
    /// synchronous mode the triggering request pays for it, as in the
    /// paper's simulator.
    Gc,
    /// Housekeeping for *other* planes (the pre-operation threshold scan).
    /// It occupies planes and buses — delaying subsequent operations — but
    /// never gates the current request: the paper charges a request only
    /// for the collection its own write provoked.
    Scan,
}

/// Mutable context handed to the FTL for one page operation.
pub struct FtlContext<'a> {
    /// The flash array state (mappings of blocks/pages, pools).
    pub flash: &'a mut FlashState,
    /// The reverse page directory (ppn → owner).
    pub dir: &'a mut PageDirectory,
    /// Steps the host response waits for.
    pub host_chain: &'a mut OpChain,
    /// Reclamation caused by this operation.
    pub gc_chain: &'a mut OpChain,
    /// Housekeeping for unrelated planes.
    pub scan_chain: &'a mut OpChain,
    /// Where [`FtlContext::push`] routes.
    pub phase: Phase,
}

impl FtlContext<'_> {
    /// Append a step to the chain selected by the current phase.
    pub fn push(&mut self, step: FlashStep) {
        match self.phase {
            Phase::Host => self.host_chain.push(step),
            Phase::Gc => self.gc_chain.push(step),
            Phase::Scan => self.scan_chain.push(step),
        }
    }

    /// Read the flash page behind `ppn` and push the matching timed step:
    /// a plain [`FlashStep::Read`] for a clean first-try read, a
    /// [`FlashStep::ReadRetry`] when the media needed the retry ladder
    /// (uncorrectable reads charge the full ladder — the controller tried
    /// every step before giving up). Returns the media outcome so callers
    /// can account data-loss events; without attached media this is
    /// exactly the old `read_check` + `push(Read)` sequence.
    ///
    /// Panics on a `NandError`: reading an invalid page is an FTL logic
    /// bug regardless of the fault plan.
    pub fn read_page(&mut self, ppn: Ppn) -> MediaOutcome {
        let outcome = self
            .flash
            .read_page(ppn)
            .expect("FTL read of an unreadable page");
        let plane = self.flash.geometry().plane_of_ppn(ppn);
        let steps = match outcome {
            MediaOutcome::Uncorrectable => self.flash.max_retry_steps(),
            o => o.retry_steps(),
        };
        if steps == 0 {
            self.push(FlashStep::Read { plane });
        } else {
            self.push(FlashStep::ReadRetry { plane, steps });
        }
        outcome
    }

    /// Push the program step for a just-completed
    /// [`FlashState::program_page`], first charging one extra write per
    /// failed attempt the allocator retried through (a failed program
    /// occupies the plane and bus just like a successful one).
    pub fn push_program(&mut self, plane: PlaneId) {
        self.drain_failed_programs(FlashStep::Write { plane });
        self.push(FlashStep::Write { plane });
    }

    /// Charge program-status failures accumulated in the flash state as
    /// extra copies of `step`. GC paths pass their own step kind
    /// (copy-back / inter-plane copy) so a failed GC move is billed at
    /// that operation's cost.
    pub fn drain_failed_programs(&mut self, step: FlashStep) {
        for _ in 0..self.flash.take_failed_attempts() {
            self.push(step);
        }
    }

    /// Erase `block` and pool it, pushing the timed step. An erase failure
    /// retires the block (grown bad) instead of pooling it: the plane's
    /// usable capacity shrinks, but the block is reclaimed from GC's
    /// perspective either way, so the outcome is not reported.
    ///
    /// Panics on a `NandError`: erasing a pooled block is an FTL logic bug.
    pub fn erase(&mut self, block: BlockAddr) {
        self.push(FlashStep::Erase { plane: block.plane });
        self.flash
            .erase_and_pool(block)
            .expect("FTL erase of a pooled block");
    }

    /// Run `f` with the phase forced to [`Phase::Gc`], restoring the
    /// previous phase afterwards.
    pub fn in_gc_phase<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> R {
        let prev = self.phase;
        self.phase = Phase::Gc;
        let r = f(self);
        self.phase = prev;
        r
    }

    /// Run `f` with the phase forced to [`Phase::Scan`].
    pub fn in_scan_phase<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> R {
        let prev = self.phase;
        self.phase = Phase::Scan;
        let r = f(self);
        self.phase = prev;
        r
    }
}

/// A flash translation layer.
///
/// The `Send + Sync` supertraits exist for the parallel engine: the
/// plane-local fast path forks the FTL *inside* each worker thread from
/// a shared `&dyn Ftl`, so the trait object must be shareable. Every FTL
/// here is plain owned data, so the bounds cost nothing.
pub trait Ftl: Send + Sync {
    /// Short scheme name ("DLOOP", "DFTL", "FAST", …).
    fn name(&self) -> &'static str;

    /// Serve a one-page host read of `lpn`.
    fn read(&mut self, lpn: Lpn, ctx: &mut FtlContext<'_>);

    /// Serve a one-page host write (or update) of `lpn`.
    fn write(&mut self, lpn: Lpn, ctx: &mut FtlContext<'_>);

    /// The physical page currently mapped to `lpn`, if any — for tests and
    /// audits; must not generate flash traffic.
    fn mapped_ppn(&self, lpn: Lpn) -> Option<Ppn>;

    /// Scheme-level counters.
    fn counters(&self) -> FtlCounters;

    /// Deep consistency audit against the flash state and directory.
    fn audit(&self, flash: &FlashState, dir: &PageDirectory) -> Result<(), String>;

    // --- Plane-sharded translation (the parallel engine's fast path) ---
    //
    // An FTL whose placement keeps every flash effect of a page operation
    // on one statically-known plane can opt into sharded *translation*:
    // worker threads run full state forks over disjoint plane ranges and
    // the coordinator merges the owned planes back. The defaults opt out;
    // a sharded request then runs on the sequential engine.

    /// The plane every flash effect of an operation on `lpn` stays on,
    /// when [`Ftl::shard_translation_ready`] holds. Meaningless otherwise.
    fn shard_home_plane(&self, lpn: Lpn) -> PlaneId {
        let _ = lpn;
        0
    }

    /// Whether the FTL's *current* state guarantees plane-locality: every
    /// subsequent operation's state effects and chain steps confined to
    /// [`Ftl::shard_home_plane`] of its LPN, barring conditions a worker
    /// detects per-op via [`Ftl::shard_op_pure`]. Checked once per run
    /// against the pre-run flash state.
    fn shard_translation_ready(&self, flash: &FlashState) -> bool {
        let _ = flash;
        false
    }

    /// A fork of the FTL for the worker owning `planes`, with scheme
    /// counters zeroed so the fork accumulates deltas. The fork needs to
    /// be authoritative only for LPNs whose [`Ftl::shard_home_plane`]
    /// lies in `planes` — translation state for foreign LPNs may be
    /// dropped, which keeps the fork (and the worker's working set)
    /// proportional to its owned share. `None` opts out of sharded
    /// translation. Called concurrently from worker threads.
    fn shard_fork(&self, planes: std::ops::Range<PlaneId>) -> Option<Box<dyn Ftl + Send>> {
        let _ = planes;
        None
    }

    /// Post-operation check on a worker's fork: did the operation on
    /// `lpn` leave the fork in a state where plane-locality still holds
    /// for future operations? A `false` aborts the worker and the run
    /// falls back to sequential translation.
    fn shard_op_pure(&self, flash: &FlashState, lpn: Lpn) -> bool {
        let _ = (flash, lpn);
        true
    }

    /// Merge a worker fork back into the authoritative FTL: adopt the
    /// state of the owned `planes` and add the fork's counter deltas.
    /// Only called when [`Ftl::shard_fork`] returned `Some`.
    fn shard_absorb(&mut self, worker: &dyn Ftl, planes: std::ops::Range<PlaneId>) {
        let _ = (worker, planes);
        unreachable!("shard_absorb on an FTL that does not fork");
    }

    /// Concrete-type escape hatch for [`Ftl::shard_absorb`] downcasts.
    /// FTLs that support sharded translation return `Some(self)`.
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_accumulates_in_order() {
        let mut c = OpChain::new();
        assert!(c.is_empty());
        c.push(FlashStep::Read { plane: 1 });
        c.push(FlashStep::Write { plane: 2 });
        assert_eq!(c.len(), 2);
        assert_eq!(
            c.steps(),
            &[FlashStep::Read { plane: 1 }, FlashStep::Write { plane: 2 }]
        );
        c.clear();
        assert!(c.is_empty());
    }
}
