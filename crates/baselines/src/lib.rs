//! # dloop-baselines
//!
//! The FTL schemes the DLOOP paper compares against:
//!
//! * [`dftl::DftlFtl`] — DFTL (Gupta et al., ASPLOS'09): demand-cached
//!   page mapping with plane-oblivious sequential allocation.
//! * [`fast::FastFtl`] — FAST (Lee et al., TECS'07): log-block hybrid with
//!   fully-associative sector translation and switch/partial/full merges.
//! * [`seqalloc::SeqAllocator`] — the sequential, plane-oblivious block
//!   source shared by DFTL and FAST (the root of their plane imbalance).
//!
//! The ablation's IDEAL bound is not a scheme of its own: it is DLOOP over
//! a CMT that holds every entry, so it pays no translation traffic.

pub mod dftl;
pub mod fast;
pub mod seqalloc;

pub use dftl::DftlFtl;
pub use fast::FastFtl;
pub use seqalloc::SeqAllocator;
