//! Integer-exact per-operation energy model.
//!
//! The paper motivates flash SSDs partly by "low energy-consumption"
//! (§I) but does not evaluate energy. This module adds the standard
//! component model used by FlashSim-family simulators: each operation
//! charges a fixed energy derived from its active power and duration,
//! letting the harness compare FTLs by Joules as well as milliseconds —
//! copy-back wins twice, once on time and once by never driving the bus.
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
//! Because a plane's array draws power exactly while the plane timeline
//! is reserved, and a channel's bus exactly while the channel timeline is
//! reserved, total energy is a *pure function* of the hardware model's
//! per-plane/per-channel busy-nanosecond counters (and, per span, of the
//! recorder's `cell/retry/bus` buckets). No separate energy accumulator
//! exists to drift out of sync.
//!
//! The millijoule helper [`EnergyConfig::total_mj`] survives as a thin
//! `f64` converter over the integer core, for display only.

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

    /// Energy of one page read (array + command/data bus), in fJ.
    fn read_fj(&self, t: &TimingConfig, page_size: u32) -> u64 {
        fj_add(
            fj(
                self.array_active_uw,
                (t.command_overhead + t.page_read).as_nanos(),
            ),
            fj(self.bus_active_uw, t.page_transfer(page_size).as_nanos()),
        )
    }

    /// Energy of one page program (command/data bus + array), in fJ.
    fn write_fj(&self, t: &TimingConfig, page_size: u32) -> u64 {
        fj_add(
            fj(
                self.bus_active_uw,
                (t.command_overhead + t.page_transfer(page_size)).as_nanos(),
            ),
            fj(self.array_active_uw, t.page_program.as_nanos()),
        )
    }

    /// Energy of one block erase, in fJ.
    fn erase_fj(&self, t: &TimingConfig) -> u64 {
        fj(
            self.array_active_uw,
            (t.command_overhead + t.block_erase).as_nanos(),
        )
    }

    /// Energy of one intra-plane copy-back, in fJ — no bus component at
    /// all: the page moves register-to-register inside the plane.
    pub fn copyback_fj(&self, t: &TimingConfig) -> u64 {
        fj(self.array_active_uw, t.copyback_service().as_nanos())
    }

    /// Energy of one traditional inter-plane copy (read out + program
    /// back in, both crossing the bus), in fJ.
    pub fn interplane_copy_fj(&self, t: &TimingConfig, page_size: u32) -> u64 {
        fj_add(self.read_fj(t, page_size), self.write_fj(t, page_size))
    }

    /// Bus energy of one inter-plane copy, in fJ — the component a
    /// copy-back avoids *entirely*, which is why copy-back's bus-energy
    /// saving (100%) beats even its §III.A time saving.
    pub fn interplane_bus_fj(&self, t: &TimingConfig, page_size: u32) -> u64 {
        fj(
            self.bus_active_uw,
            fj_add(
                t.page_transfer(page_size).as_nanos() * 2,
                t.command_overhead.as_nanos() * 2,
            ),
        )
    }

    /// Total energy of an operation mix (including retry-ladder steps),
    /// in fJ.
    fn counters_fj(
        &self,
        t: &TimingConfig,
        page_size: u32,
        counters: &crate::hardware::OpCounters,
    ) -> u64 {
        let mut total = fj_mul_count(self.read_fj(t, page_size), counters.reads);
        total = fj_add(
            total,
            fj_mul_count(self.write_fj(t, page_size), counters.writes),
        );
        total = fj_add(total, fj_mul_count(self.erase_fj(t), counters.erases));
        total = fj_add(total, fj_mul_count(self.copyback_fj(t), counters.copybacks));
        total = fj_add(
            total,
            fj_mul_count(
                self.interplane_copy_fj(t, page_size),
                counters.interplane_copies,
            ),
        );
        fj_add(
            total,
            fj_mul_count(
                fj(self.array_active_uw, t.read_retry_overhead(1).as_nanos()),
                counters.read_retry_steps,
            ),
        )
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

    // ---- thin f64 display converters over the integer core ----

    /// Total energy of an operation mix, in display mJ.
    pub fn total_mj(
        &self,
        t: &TimingConfig,
        page_size: u32,
        counters: &crate::hardware::OpCounters,
    ) -> f64 {
        self.counters_fj(t, page_size, counters) as f64 / 1e12
    }
}

/// Multiply a per-operation energy by an operation count, checked.
fn fj_mul_count(per_op_fj: u64, count: u64) -> u64 {
    per_op_fj
        .checked_mul(count)
        .expect("energy overflow: per-op fJ * count exceeds u64")
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
    use crate::hardware::OpCounters;
    use dloop_simkit::check::{self, Checker};
    use dloop_simkit::check_assert_eq;

    fn cfg() -> (EnergyConfig, TimingConfig) {
        (EnergyConfig::paper_default(), TimingConfig::paper_default())
    }

    #[test]
    fn copyback_saves_energy_over_interplane() {
        let (e, t) = cfg();
        let cb = e.copyback_fj(&t) as f64;
        let inter = e.interplane_copy_fj(&t, 2048) as f64;
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
        assert!(e.interplane_bus_fj(&t, 2048) > 0);
        let bus_saving = 1.0; // 100% by construction
        assert!(bus_saving > t.copyback_saving(2048));
    }

    #[test]
    fn energy_scales_with_duration() {
        let (e, t) = cfg();
        assert!(e.erase_fj(&t) > e.write_fj(&t, 2048));
        assert!(e.write_fj(&t, 2048) > e.read_fj(&t, 2048));
    }

    #[test]
    fn total_mix() {
        let (e, t) = cfg();
        let counters = OpCounters {
            reads: 10,
            writes: 5,
            erases: 1,
            copybacks: 2,
            interplane_copies: 1,
            read_retry_steps: 0,
        };
        let total = e.total_mj(&t, 2048, &counters);
        let by_hand = (10 * e.read_fj(&t, 2048)
            + 5 * e.write_fj(&t, 2048)
            + e.erase_fj(&t)
            + 2 * e.copyback_fj(&t)
            + e.interplane_copy_fj(&t, 2048)) as f64
            / 1e12;
        assert!((total - by_hand).abs() < 1e-12);
    }

    #[test]
    fn bigger_pages_cost_more_bus_energy() {
        let (e, t) = cfg();
        assert!(e.read_fj(&t, 16 * 1024) > e.read_fj(&t, 2 * 1024));
        // Copy-back is page-size independent (register to register).
        assert_eq!(e.copyback_fj(&t), e.copyback_fj(&t));
    }

    #[test]
    fn retry_steps_cost_array_energy() {
        let (e, t) = cfg();
        let quiet = OpCounters {
            reads: 1,
            ..OpCounters::default()
        };
        let retried = OpCounters {
            reads: 1,
            read_retry_steps: 3,
            ..OpCounters::default()
        };
        let delta = e.counters_fj(&t, 2048, &retried) - e.counters_fj(&t, 2048, &quiet);
        assert_eq!(
            delta,
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
