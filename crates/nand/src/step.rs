//! The flash operations an FTL issues, and the one description of what
//! each one holds and for how long.
//!
//! An operation is a short list of phases, each holding one resource — a
//! plane's cell array, or the external bus of the channel serving a plane
//! — for a fixed time (Table I, §III.A):
//!
//! * page read     — `[array: cmd+t_read] [bus: t_xfer]`
//! * page program  — `[bus: cmd+t_xfer] [array: t_prog]`
//! * block erase   — `[array: cmd+t_erase]`
//! * **copy-back** — `[array: cmd+t_read+t_prog]` — *no bus phase*, which
//!   is the entire point of DLOOP: GC traffic stays inside the plane and the
//!   external bus remains free for host requests;
//! * inter-plane copy — `[array src: cmd+t_read] [bus src: t_xfer]
//!   [bus dst: t_xfer] [array dst: t_prog]`.
//!
//! A read that needed the read-retry ladder holds its array phase longer
//! by [`TimingConfig::read_retry_overhead`]; [`Phases::retry`] names that
//! share.
//!
//! [`FlashStep::phases`] is the only place this arithmetic is written.
//! The hardware model books the list
//! ([`HardwareModel::exec`](crate::hardware::HardwareModel::exec)), the
//! energy model prices it
//! ([`EnergyConfig::step_totals`](crate::energy::EnergyConfig::step_totals)),
//! and the §III.A copy costs ([`TimingConfig::copyback_saving`]) sum it,
//! so timing, energy and the paper's copy arithmetic cannot drift apart.

use crate::geometry::PlaneId;
use crate::timing::TimingConfig;
use dloop_simkit::SimDuration;

/// One timed flash operation within a chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlashStep {
    /// Page read on `plane` (array + bus out).
    Read {
        /// Target plane.
        plane: PlaneId,
    },
    /// Page program on `plane` (bus in + array).
    Write {
        /// Target plane.
        plane: PlaneId,
    },
    /// Block erase on `plane`.
    Erase {
        /// Target plane.
        plane: PlaneId,
    },
    /// Page read on `plane` that needed `steps` read-retry ladder steps
    /// (each re-senses the array and re-runs soft ECC decode; the plane
    /// stays busy for the extra time but the bus transfers once).
    ReadRetry {
        /// Target plane.
        plane: PlaneId,
        /// Retry ladder steps charged on top of the base read (≥ 1).
        steps: u32,
    },
    /// Intra-plane copy-back on `plane` — no bus traffic.
    CopyBack {
        /// Target plane.
        plane: PlaneId,
    },
    /// Traditional inter-plane copy.
    InterPlaneCopy {
        /// Source plane.
        src: PlaneId,
        /// Destination plane.
        dst: PlaneId,
    },
}

/// The resource one phase holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Hold {
    /// The cell array of a plane (and its die, when dies are serialised).
    Array(PlaneId),
    /// The external bus of the channel serving a plane.
    Bus(PlaneId),
}

/// One phase of a flash operation: a resource held for a duration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Phase {
    /// The resource held.
    pub hold: Hold,
    /// How long it is held.
    pub dur: SimDuration,
}

/// A flash operation's phases, in execution order. Dereferences to the
/// slice of phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Phases {
    list: [Phase; 4],
    len: usize,
    /// The part of the first array phase spent on the read-retry ladder
    /// (zero for every operation but a retried read).
    pub retry: SimDuration,
}

impl std::ops::Deref for Phases {
    type Target = [Phase];

    fn deref(&self) -> &[Phase] {
        &self.list[..self.len]
    }
}

impl Phases {
    fn of(phases: &[Phase], retry: SimDuration) -> Phases {
        let mut list = [phases[0]; 4];
        list[..phases.len()].copy_from_slice(phases);
        Phases {
            list,
            len: phases.len(),
            retry,
        }
    }

    /// Total `(array, bus)` time the phases hold.
    pub fn busy(&self) -> (SimDuration, SimDuration) {
        let (mut array, mut bus) = (SimDuration::ZERO, SimDuration::ZERO);
        for phase in self.iter() {
            match phase.hold {
                Hold::Array(_) => array += phase.dur,
                Hold::Bus(_) => bus += phase.dur,
            }
        }
        (array, bus)
    }

    /// Service time on idle resources: every phase back to back.
    pub fn service(&self) -> SimDuration {
        self.iter().map(|phase| phase.dur).sum()
    }
}

impl FlashStep {
    /// Planes this step loads (both ends of an inter-plane copy).
    pub fn planes(&self) -> (PlaneId, Option<PlaneId>) {
        match *self {
            FlashStep::Read { plane }
            | FlashStep::ReadRetry { plane, .. }
            | FlashStep::Write { plane }
            | FlashStep::Erase { plane }
            | FlashStep::CopyBack { plane } => (plane, None),
            FlashStep::InterPlaneCopy { src, dst } => (src, Some(dst)),
        }
    }

    /// What this step holds, in order and for how long, under `t` with
    /// pages of `page_size` bytes.
    pub fn phases(&self, t: &TimingConfig, page_size: u32) -> Phases {
        let phase = |hold, dur| Phase { hold, dur };
        let cmd = t.command_overhead;
        let xfer = t.page_transfer(page_size);
        let read = |plane, retry| {
            let sense = phase(Hold::Array(plane), cmd + t.page_read + retry);
            Phases::of(&[sense, phase(Hold::Bus(plane), xfer)], retry)
        };
        let none = SimDuration::ZERO;
        match *self {
            FlashStep::Read { plane } => read(plane, none),
            FlashStep::ReadRetry { plane, steps } => read(plane, t.read_retry_overhead(steps)),
            FlashStep::Write { plane } => Phases::of(
                &[
                    phase(Hold::Bus(plane), cmd + xfer),
                    phase(Hold::Array(plane), t.page_program),
                ],
                none,
            ),
            FlashStep::Erase { plane } => {
                Phases::of(&[phase(Hold::Array(plane), cmd + t.block_erase)], none)
            }
            FlashStep::CopyBack { plane } => Phases::of(
                &[phase(
                    Hold::Array(plane),
                    cmd + t.page_read + t.page_program,
                )],
                none,
            ),
            FlashStep::InterPlaneCopy { src, dst } => Phases::of(
                &[
                    phase(Hold::Array(src), cmd + t.page_read),
                    phase(Hold::Bus(src), xfer),
                    phase(Hold::Bus(dst), xfer),
                    phase(Hold::Array(dst), t.page_program),
                ],
                none,
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn planes_names_both_ends_of_a_copy() {
        assert_eq!(FlashStep::CopyBack { plane: 3 }.planes(), (3, None));
        assert_eq!(
            FlashStep::InterPlaneCopy { src: 1, dst: 4 }.planes(),
            (1, Some(4))
        );
    }

    #[test]
    fn copy_costs_follow_section_3a() {
        let t = TimingConfig::paper_default();
        let cb = FlashStep::CopyBack { plane: 0 }.phases(&t, 2048);
        // Copy-back = 25 + 200 (+0.2 cmd) us, all of it inside the plane.
        assert_eq!(cb.service().as_micros_f64(), 225.2);
        assert_eq!(cb.busy().1, SimDuration::ZERO);
        // Inter-plane = 25 + 51.2 + 51.2 + 200 (+0.2) us, the two
        // transfers on the bus.
        let inter = FlashStep::InterPlaneCopy { src: 0, dst: 1 }.phases(&t, 2048);
        assert!((inter.service().as_micros_f64() - 327.6).abs() < 1e-9);
        assert_eq!(inter.busy().1.as_nanos(), 2 * 51_200);
        assert_eq!(inter.len(), 4);
    }

    #[test]
    fn retry_ladder_lengthens_only_the_array_phase() {
        let t = TimingConfig::paper_default();
        let plain = FlashStep::Read { plane: 2 }.phases(&t, 4096);
        let retried = FlashStep::ReadRetry { plane: 2, steps: 3 }.phases(&t, 4096);
        assert_eq!(plain.retry, SimDuration::ZERO);
        assert_eq!(retried.retry, t.read_retry_overhead(3));
        assert_eq!(retried[0].dur, plain[0].dur + retried.retry);
        assert_eq!(retried[1], plain[1]);
    }
}
