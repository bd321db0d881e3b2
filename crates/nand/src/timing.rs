//! NAND operation latencies (Table I of the paper).
//!
//! | parameter | value |
//! |---|---|
//! | page read (cell → register) | 25 µs |
//! | page program (register → cell) | 200 µs |
//! | block erase | 2000 µs |
//! | bus transfer | 0.025 µs / byte (≈ 50 µs for a 2 KB page) |
//! | command/address cycle | 0.2 µs (the paper calls it negligible but we model it) |
//!
//! These are parameters only. How an operation spends them — which
//! resource each phase holds, in what order — is written once, in
//! [`FlashStep::phases`]; §III.A's two copy costs are sums over those
//! lists. An **inter-plane copy** is read + transfer-out + transfer-in +
//! program (≈ 325 µs at 2 KB) while an **intra-plane copy-back** is
//! read + program only (225 µs), a 30.7 % saving
//! ([`TimingConfig::copyback_saving`]) that also leaves the external bus
//! free.

use crate::step::FlashStep;
use dloop_simkit::SimDuration;

/// Device latency parameters.
///
/// ```
/// use dloop_nand::{FlashStep, TimingConfig};
///
/// let t = TimingConfig::paper_default();
/// // SIII.A: copy-back 225 us vs inter-plane ~327 us at 2 KB pages.
/// let cb = FlashStep::CopyBack { plane: 0 }.phases(&t, 2048);
/// assert_eq!(cb.service().as_micros_f64(), 225.2);
/// assert!(t.copyback_saving(2048) > 0.28);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimingConfig {
    /// Cell array → data register read time.
    pub page_read: SimDuration,
    /// Data register → cell array program time.
    pub page_program: SimDuration,
    /// Whole-block erase time.
    pub block_erase: SimDuration,
    /// External/serial bus transfer time per byte.
    pub per_byte_transfer: SimDuration,
    /// Command + address cycle overhead per operation.
    pub command_overhead: SimDuration,
    /// When set, every page transfer costs this flat duration regardless
    /// of page size, instead of `per_byte_transfer x bytes`. The paper's
    /// Fig. 9 trend (MRT falling with page size) is only consistent with
    /// such a constant per-page cost; this switch lets the harness
    /// demonstrate that (see EXPERIMENTS.md).
    pub fixed_page_transfer: Option<SimDuration>,
    /// Extra sensing overhead per read-retry ladder step (threshold shift
    /// + command), on top of the re-read itself.
    pub read_retry_step: SimDuration,
    /// ECC soft-decode time charged once per retry step (the step-0 hard
    /// decode is folded into `page_read`, so zero-BER reads cost exactly
    /// what they did before the fault subsystem existed).
    pub ecc_decode: SimDuration,
}

impl TimingConfig {
    /// Table I values.
    pub fn paper_default() -> Self {
        TimingConfig {
            page_read: SimDuration::from_micros(25),
            page_program: SimDuration::from_micros(200),
            block_erase: SimDuration::from_micros(2000),
            per_byte_transfer: SimDuration::from_nanos(25), // 0.025 us
            command_overhead: SimDuration::from_nanos(200), // 0.2 us
            fixed_page_transfer: None,
            read_retry_step: SimDuration::from_micros(5),
            ecc_decode: SimDuration::from_micros(10),
        }
    }

    /// Table-I latencies but with the flat ~50 us page transfer the paper
    /// quotes in prose ("Transferring one page data … usually takes
    /// 50 us"), independent of page size.
    pub fn paper_fixed_transfer() -> Self {
        TimingConfig {
            fixed_page_transfer: Some(SimDuration::from_micros(50)),
            ..Self::paper_default()
        }
    }

    /// Bus time to move one page of `page_size` bytes.
    pub fn page_transfer(&self, page_size: u32) -> SimDuration {
        match self.fixed_page_transfer {
            Some(d) => d,
            None => SimDuration::from_nanos(self.per_byte_transfer.as_nanos() * page_size as u64),
        }
    }

    /// Plane-array time added by `steps` read-retry ladder steps: each
    /// step re-senses the page (threshold shift + array read) and runs a
    /// soft ECC decode. Zero steps cost exactly zero.
    pub fn read_retry_overhead(&self, steps: u32) -> SimDuration {
        SimDuration::from_nanos(
            steps as u64 * (self.read_retry_step + self.page_read + self.ecc_decode).as_nanos(),
        )
    }

    /// Fractional saving of copy-back over inter-plane copy (≈ 0.307 at
    /// 2 KB pages with Table-I latencies).
    pub fn copyback_saving(&self, page_size: u32) -> f64 {
        let service = |step: FlashStep| step.phases(self, page_size).service().as_nanos() as f64;
        let inter = service(FlashStep::InterPlaneCopy { src: 0, dst: 1 });
        let intra = service(FlashStep::CopyBack { plane: 0 });
        (inter - intra) / inter
    }
}

impl Default for TimingConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_transfer_time() {
        let t = TimingConfig::paper_default();
        // 2 KB transfer = 2048 * 25 ns = 51.2 us (the paper rounds to 50).
        assert_eq!(t.page_transfer(2048).as_nanos(), 51_200);
    }

    #[test]
    fn copyback_saving_close_to_paper() {
        let t = TimingConfig::paper_default();
        let saving = t.copyback_saving(2048);
        // Paper quotes 30.7% with its rounded 50 us transfers; exact Table-I
        // arithmetic gives ~31.3%.
        assert!(
            (0.28..=0.34).contains(&saving),
            "saving {saving} out of expected band"
        );
    }

    #[test]
    fn bigger_pages_make_copyback_relatively_better() {
        let t = TimingConfig::paper_default();
        assert!(t.copyback_saving(16 * 1024) > t.copyback_saving(2 * 1024));
    }

    #[test]
    fn fixed_transfer_is_size_independent() {
        let t = TimingConfig::paper_fixed_transfer();
        assert_eq!(t.page_transfer(2048), t.page_transfer(16 * 1024));
        assert_eq!(t.page_transfer(2048).as_micros_f64(), 50.0);
        // Copy-back is unaffected (no bus phase).
        let cb = |t: &TimingConfig| FlashStep::CopyBack { plane: 0 }.phases(t, 2048);
        assert_eq!(cb(&t), cb(&TimingConfig::paper_default()));
    }

    #[test]
    fn read_retry_ladder_costs() {
        let t = TimingConfig::paper_default();
        assert_eq!(t.read_retry_overhead(0).as_nanos(), 0);
        let one = t.read_retry_overhead(1);
        assert_eq!(
            one.as_nanos(),
            (t.read_retry_step + t.page_read + t.ecc_decode).as_nanos()
        );
        assert_eq!(t.read_retry_overhead(3).as_nanos(), 3 * one.as_nanos());
    }
}
