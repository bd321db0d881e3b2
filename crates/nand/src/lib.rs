//! # dloop-nand
//!
//! A NAND flash SSD hardware model — the reproduction's substitute for the
//! FlashSim hardware module that the DLOOP paper extends (§IV).
//!
//! The model has two halves:
//!
//! * **State** ([`state::FlashState`], [`plane::PlaneState`],
//!   [`block::Block`]) — which page holds what, write pointers, free-block
//!   pools, erase counters. All NAND rules (sequential in-block programming,
//!   erase-before-write, pool hygiene) are enforced here with checked
//!   transitions and audit routines.
//! * **Timing** ([`hardware::HardwareModel`], [`timing::TimingConfig`]) —
//!   when operations start and finish under contention for channels,
//!   planes, and optionally dies. Every operation is a [`step::FlashStep`]
//!   whose phase list ([`step::FlashStep::phases`]) says what it holds and
//!   for how long; booking, energy and the §III.A copy costs all read that
//!   one list. Includes the advanced commands the paper relies on:
//!   **intra-plane copy-back** (no bus traffic), with multi-plane
//!   parallelism arising naturally from independent plane timelines, and an
//!   optional die-serialisation mode for ablations.
//!
//! [`geometry::Geometry`] ties the two together with the full
//! channel/package/chip/die/plane/block/page hierarchy of the paper's
//! Fig. 1 and the address arithmetic (PPN ↔ page address, LPN → plane).
//!
//! A third, optional half is **media faults**: attaching a `dloop-faults`
//! [`MediaModel`] to the state (via [`state::FlashState::attach_media`])
//! makes programs/reads/erases return deterministic [`MediaOutcome`]s
//! (program-status failures, read-retry ladders, uncorrectable reads,
//! grown bad blocks) and the timing model charges the read-retry ladder
//! through [`step::FlashStep::ReadRetry`].

pub mod block;
pub mod energy;
pub mod error;
pub mod geometry;
pub mod hardware;
pub mod plane;
pub mod state;
pub mod step;
pub mod timing;

pub use block::PageState;
pub use dloop_faults::{FaultConfig, FaultPlan, MediaCounters, MediaModel, MediaOutcome};
pub use energy::{EnergyConfig, EnergyTotals};
pub use error::{MediaError, NandError};
pub use geometry::{BlockAddr, ChannelId, DieId, Geometry, Lpn, PageAddr, PlaneId, Ppn};
pub use hardware::{Completion, HardwareModel, HwActivity, OpCounters};
pub use state::{FlashState, ProgramAttempt};
pub use step::{FlashStep, Hold, Phase, Phases};
pub use timing::TimingConfig;
