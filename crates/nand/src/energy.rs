//! Integer-exact per-operation energy model.
//!
//! The paper motivates flash SSDs partly by "low energy-consumption"
//! (§I) but does not evaluate energy. This module adds the standard
//! component model used by FlashSim-family simulators: every phase of an
//! operation draws the active power of the resource it holds (array or
//! bus) for as long as it holds it, letting the harness compare FTLs by
//! Joules as well as milliseconds — copy-back wins twice, once on time and
//! once by never driving the bus.
//!
//! ## Fixed-point rules
//!
//! All accounting is integer arithmetic, end to end:
//!
//! * power is configured in **microwatts** (`u64`),
//! * durations come from the simulator in **nanoseconds** (`u64`),
//! * energy is their product in **femtojoules** (`u64`), since
//!   1 µW × 1 ns = 10⁻¹⁵ J exactly — a thousandth of a picojoule, so
//!   every picojoule figure in the docs is an exact multiple of the
//!   stored value.
//!
//! Integer femtojoules make energy safe to fold into report fingerprints:
//! addition is associative and commutative, so the sharded replay engine's
//! out-of-order merge produces bit-identical totals to the sequential
//! fold (claim C15), which no `f64` accumulation could guarantee. A `u64`
//! of femtojoules saturates at ~18.4 kJ — about 51 hours of simulated
//! time at the full-device paper-default draw — and every multiply/add is
//! overflow-checked (`checked_mul`/`checked_add`) so silent wraparound is
//! impossible.
//!
//! A plane's array draws power exactly while the plane timeline is
//! reserved, and a channel's bus exactly while the channel timeline is
//! reserved, so total energy is a *pure function* of the hardware model's
//! per-plane/per-channel busy-nanosecond counters
//! ([`EnergyConfig::busy_totals`]). No separate energy accumulator exists
//! to drift out of sync. The energy of one operation
//! ([`EnergyConfig::step_totals`]) prices the same phase list
//! ([`FlashStep::phases`]) the hardware model books, so it is what
//! booking that operation alone adds to the busy counters — bus command
//! cycles included, and only those the operation actually holds.

use crate::step::FlashStep;
use crate::timing::TimingConfig;

/// Energy parameters, as integer active-power draws in microwatts.
///
/// Defaults follow the commonly cited Micron SLC datasheet ballpark the
/// FlashSim papers use: ~25 mA array current at 3.3 V during read/program/
/// erase, ~5 mA during bus transfers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EnergyConfig {
    /// Power drawn while a plane's array performs a read/program/erase
    /// (including retry-ladder work), in µW.
    pub array_active_uw: u64,
    /// Power drawn while a channel's bus transfers data or commands, in µW.
    pub bus_active_uw: u64,
}

/// Multiply an integer power draw (µW) by an integer duration (ns) into
/// femtojoules, panicking on overflow rather than wrapping silently.
pub fn fj(uw: u64, ns: u64) -> u64 {
    uw.checked_mul(ns)
        .expect("energy overflow: uW * ns exceeds u64 femtojoules")
}

/// Checked femtojoule addition — the only way energy totals combine.
pub fn fj_add(a: u64, b: u64) -> u64 {
    a.checked_add(b)
        .expect("energy overflow: femtojoule sum exceeds u64")
}

impl EnergyConfig {
    /// Datasheet-ballpark defaults (82.5 mW array, 16.5 mW bus).
    pub fn paper_default() -> Self {
        EnergyConfig {
            array_active_uw: 82_500,
            bus_active_uw: 16_500,
        }
    }

    /// Energy of one `step` on its own, in integer femtojoules: its phase
    /// list priced by the same array/bus split [`Self::busy_totals`]
    /// applies to the hardware model's busy counters. A copy-back has no
    /// bus component at all — the page moves register-to-register inside
    /// the plane.
    pub fn step_totals(&self, step: &FlashStep, t: &TimingConfig, page_size: u32) -> EnergyTotals {
        let (array, bus) = step.phases(t, page_size).busy();
        EnergyTotals {
            array_fj: fj(self.array_active_uw, array.as_nanos()),
            bus_fj: fj(self.bus_active_uw, bus.as_nanos()),
        }
    }

    /// Total energy implied by per-plane and per-channel busy time, in
    /// integer femtojoules. This is *the* device-level accounting: every
    /// plane-timeline reservation is array-active and every
    /// channel-timeline reservation is bus-active, so the busy counters
    /// the hardware model already keeps are the energy accumulators.
    pub fn busy_totals(&self, plane_busy_ns: &[u64], channel_busy_ns: &[u64]) -> EnergyTotals {
        let mut t = EnergyTotals::zero();
        for &ns in plane_busy_ns {
            t.array_fj = fj_add(t.array_fj, fj(self.array_active_uw, ns));
        }
        for &ns in channel_busy_ns {
            t.bus_fj = fj_add(t.bus_fj, fj(self.bus_active_uw, ns));
        }
        t
    }
}

impl Default for EnergyConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// A run's energy totals, split by component, in integer femtojoules.
///
/// The split mirrors the hardware model's two timeline families: `array_fj`
/// accrues while planes are reserved, `bus_fj` while channels are. Totals
/// combine only through checked integer addition ([`EnergyTotals::absorb`]),
/// so any fold order — sequential replay, shard merge, timeline-bucket
/// summation — produces the identical bit pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EnergyTotals {
    /// Plane-array energy (read/program/erase/copy-back/retry), in fJ.
    pub array_fj: u64,
    /// Channel-bus energy (commands + data transfers), in fJ.
    pub bus_fj: u64,
}

impl EnergyTotals {
    /// The additive identity.
    pub fn zero() -> Self {
        EnergyTotals::default()
    }

    /// Combined array + bus energy, in fJ (checked).
    pub fn total_fj(&self) -> u64 {
        fj_add(self.array_fj, self.bus_fj)
    }

    /// Combined energy in display millijoules.
    pub fn total_mj(&self) -> f64 {
        self.total_fj() as f64 / 1e12
    }

    /// Fold another total into this one — the shard-merge primitive.
    /// Checked integer addition, so the merge is exact and order-free.
    pub fn absorb(&mut self, other: &EnergyTotals) {
        self.array_fj = fj_add(self.array_fj, other.array_fj);
        self.bus_fj = fj_add(self.bus_fj, other.bus_fj);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dloop_simkit::check::{self, Checker};
    use dloop_simkit::check_assert_eq;

    fn cfg() -> (EnergyConfig, TimingConfig) {
        (EnergyConfig::paper_default(), TimingConfig::paper_default())
    }

    fn totals(step: FlashStep, page_size: u32) -> EnergyTotals {
        let (e, t) = cfg();
        e.step_totals(&step, &t, page_size)
    }

    #[test]
    fn copyback_saves_energy_over_interplane() {
        let cb = totals(FlashStep::CopyBack { plane: 0 }, 2048).total_fj() as f64;
        let inter = totals(FlashStep::InterPlaneCopy { src: 0, dst: 1 }, 2048).total_fj() as f64;
        assert!(cb < inter, "copy-back {cb} fJ vs inter-plane {inter} fJ");
        // The array current dominates, so the energy saving is real but
        // smaller than the latency saving (no bus energy at all).
        assert!((inter - cb) / inter > 0.05);
    }

    #[test]
    fn copyback_avoids_all_bus_energy() {
        let (e, t) = cfg();
        // The intra-plane path never drives the bus, so its bus-energy
        // saving is total — strictly larger than the §III.A time saving.
        assert_eq!(totals(FlashStep::CopyBack { plane: 0 }, 2048).bus_fj, 0);
        let inter = totals(FlashStep::InterPlaneCopy { src: 0, dst: 1 }, 2048);
        // Two page transfers and no command cycle: the command is issued
        // with the source read, inside the array phase.
        assert_eq!(
            inter.bus_fj,
            fj(e.bus_active_uw, 2 * t.page_transfer(2048).as_nanos())
        );
        let bus_saving = 1.0; // 100% by construction
        assert!(bus_saving > t.copyback_saving(2048));
    }

    #[test]
    fn energy_scales_with_duration() {
        let fj_of = |step| totals(step, 2048).total_fj();
        let erase = fj_of(FlashStep::Erase { plane: 0 });
        let write = fj_of(FlashStep::Write { plane: 0 });
        assert!(erase > write);
        assert!(write > fj_of(FlashStep::Read { plane: 0 }));
    }

    #[test]
    fn bigger_pages_cost_more_bus_energy() {
        let read = FlashStep::Read { plane: 0 };
        assert!(totals(read, 16 * 1024).bus_fj > totals(read, 2 * 1024).bus_fj);
        // Copy-back is page-size independent (register to register).
        let cb = FlashStep::CopyBack { plane: 0 };
        assert_eq!(totals(cb, 16 * 1024), totals(cb, 2 * 1024));
    }

    #[test]
    fn retry_steps_cost_array_energy() {
        let (e, t) = cfg();
        let quiet = totals(FlashStep::Read { plane: 0 }, 2048);
        let retried = totals(FlashStep::ReadRetry { plane: 0, steps: 3 }, 2048);
        assert_eq!(retried.bus_fj, quiet.bus_fj);
        assert_eq!(
            retried.array_fj - quiet.array_fj,
            3 * fj(e.array_active_uw, t.read_retry_overhead(1).as_nanos())
        );
    }

    /// Satellite: summation order never changes totals. Partition a busy
    /// vector arbitrarily (the shard fold), absorb the per-partition
    /// totals in any order, and the result is bit-identical to the
    /// sequential fold over the whole vector.
    #[test]
    fn shard_fold_equals_sequential_fold() {
        let e = EnergyConfig::paper_default();
        let gen = check::vec_of(check::u64s(0..50_000_000), 1..40);
        Checker::new().cases(128).run(&gen, |busy| {
            let sequential = e.busy_totals(busy, busy);
            // Split at every possible point: left and right shards fold
            // independently, then merge in both orders.
            for cut in 0..=busy.len() {
                let (l, r) = busy.split_at(cut);
                let mut a = e.busy_totals(l, l);
                a.absorb(&e.busy_totals(r, r));
                let mut b = e.busy_totals(r, r);
                b.absorb(&e.busy_totals(l, l));
                check_assert_eq!(a, sequential);
                check_assert_eq!(b, a);
            }
            Ok(())
        });
    }

    #[test]
    #[should_panic(expected = "energy overflow")]
    fn overflow_panics_instead_of_wrapping() {
        fj(u64::MAX / 2, 3);
    }
}
