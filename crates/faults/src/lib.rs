//! # dloop-faults
//!
//! Deterministic NAND media-fault injection for the DLOOP reproduction.
//!
//! Real NAND fails in ways an ideal simulator never shows: raw bit errors
//! that grow with wear and retention, program-status failures, erase
//! failures, and factory bad blocks. This crate turns a handful of knobs
//! ([`FaultConfig`]) into a [`FaultPlan`] whose per-operation outcomes are
//! a **pure function** of `(plan seed, physical address, op kind, op
//! index)` — never of wall-clock simulation time or request interleaving.
//! The same seed therefore produces the *identical* fault sequence under
//! every replay mode (open-loop, issue-gated, NCQ/QoS) and behind the host
//! stack's bounded queues, which is what makes fault runs
//! regression-testable.
//!
//! ## Determinism contract
//!
//! Every outcome is derived by seeding a fresh [`SimRng`] from a
//! splitmix64 hash of the decision's identity:
//!
//! * **program** — keyed by `(ppn, generation)`, where `generation` is the
//!   block's erase count. A page can be programmed at most once per erase
//!   generation, so the key is unique per attempt.
//! * **read** — keyed by `(ppn, generation, read_index)`, where
//!   `read_index` counts reads of this page since it was programmed. The
//!   read index stands in for retention age: simulated time differs across
//!   replay modes, the state trajectory does not.
//! * **erase** — keyed by `(block, erase_count)`.
//! * **factory bad** — keyed by the block index alone.
//!
//! ## Error model
//!
//! The effective raw bit-error rate of a read is
//!
//! ```text
//! ber_eff = base_ber * (1 + wear_slope * erase_count)
//!                    * (1 + retention_slope * read_index)
//! ```
//!
//! giving `lambda = ber_eff * codeword_bits` expected raw errors per
//! codeword. The ECC corrects up to `correctable_bits`; each read-retry
//! step re-senses with a shifted threshold, multiplying the residual
//! failure probability by `retry_gain` (< 1). Step `s` of the ladder fails
//! with `p(s) = min(1, lambda / correctable_bits * retry_gain^s)`; the
//! first succeeding step yields [`MediaOutcome::Clean`] (step 0) or
//! [`MediaOutcome::Correctable`], and exhausting `max_retry_steps` yields
//! [`MediaOutcome::Uncorrectable`].
//!
//! A zero-BER plan ([`FaultConfig::none`]) short-circuits without hashing,
//! so the fault machinery costs nothing measurable on the hot path (see
//! the `faults` micro-bench).

use dloop_simkit::SimRng;

/// Outcome of a NAND media operation, distinct from the logic-bug
/// `NandError` namespace in `dloop-nand`: a `MediaOutcome` is the device
/// behaving like real hardware, not the FTL misusing it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MediaOutcome {
    /// The operation succeeded first try.
    Clean,
    /// A read succeeded after `retry_steps` read-retry ladder steps
    /// (each charged read-retry + ECC-decode latency by the timing model).
    Correctable {
        /// Number of retry steps (≥ 1) before the ECC converged.
        retry_steps: u32,
    },
    /// The read exhausted the retry ladder; data is lost.
    Uncorrectable,
    /// The program operation reported status failure; the page is consumed
    /// and the controller must re-program elsewhere.
    ProgramFail,
    /// The erase operation failed; the block must be retired (grown bad).
    EraseFail,
}

impl MediaOutcome {
    /// Retry steps this outcome cost (0 for everything but `Correctable`).
    pub fn retry_steps(self) -> u32 {
        match self {
            MediaOutcome::Correctable { retry_steps } => retry_steps,
            _ => 0,
        }
    }

    /// Whether the operation ultimately delivered/stored correct data.
    pub fn is_ok(self) -> bool {
        matches!(self, MediaOutcome::Clean | MediaOutcome::Correctable { .. })
    }
}

/// Knobs describing how unreliable the simulated media is.
///
/// All probabilities are per-operation; everything is deterministic given
/// `seed`. [`FaultConfig::none`] is the exact fault-free device the
/// simulator modelled before this subsystem existed.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Seed for the fault plan (independent of the workload seed).
    pub seed: u64,
    /// Raw bit-error rate of a fresh page on a fresh block.
    pub base_ber: f64,
    /// Fractional BER growth per erase cycle of the block.
    pub wear_slope: f64,
    /// Fractional BER growth per read since the page was programmed
    /// (retention/read-disturb proxy; see the module doc for why reads,
    /// not simulated time, measure age).
    pub retention_slope: f64,
    /// Probability a page program reports status failure.
    pub program_fail_prob: f64,
    /// Probability a block erase fails (block becomes grown bad).
    pub erase_fail_prob: f64,
    /// Fraction of blocks marked bad at the factory.
    pub factory_bad_frac: f64,
    /// Bits per ECC codeword (we treat one page as one codeword).
    pub codeword_bits: f64,
    /// Raw bit errors the ECC corrects per codeword.
    pub correctable_bits: f64,
    /// Read-retry ladder depth before a read is uncorrectable.
    pub max_retry_steps: u32,
    /// Residual failure-probability multiplier per retry step (< 1).
    pub retry_gain: f64,
}

impl FaultConfig {
    /// Perfect media: no faults of any kind. The plan short-circuits, so
    /// this configuration is also the zero-cost default.
    pub fn none() -> Self {
        FaultConfig {
            seed: 0,
            base_ber: 0.0,
            wear_slope: 0.0,
            retention_slope: 0.0,
            program_fail_prob: 0.0,
            erase_fail_prob: 0.0,
            factory_bad_frac: 0.0,
            codeword_bits: 2048.0 * 8.0,
            correctable_bits: 40.0,
            max_retry_steps: 4,
            retry_gain: 0.05,
        }
    }

    /// Mildly worn consumer media: frequent correctable reads, occasional
    /// program failures, rare erase failures.
    pub fn light(seed: u64) -> Self {
        FaultConfig {
            seed,
            base_ber: 1e-4,
            wear_slope: 0.02,
            retention_slope: 0.001,
            program_fail_prob: 0.002,
            erase_fail_prob: 0.0005,
            factory_bad_frac: 0.005,
            ..Self::none()
        }
    }

    /// A fault storm for soak tests: elevated BER near the correctability
    /// cliff plus aggressive program/erase failures. Program-fail stays
    /// modest (5 %) so small test geometries keep their GC feasibility
    /// margins.
    pub fn storm(seed: u64) -> Self {
        FaultConfig {
            seed,
            base_ber: 2.2e-3,
            wear_slope: 0.05,
            retention_slope: 0.01,
            program_fail_prob: 0.05,
            erase_fail_prob: 0.01,
            factory_bad_frac: 0.02,
            ..Self::none()
        }
    }

    /// True when every fault channel is disabled (the plan never fires).
    pub fn is_null(&self) -> bool {
        self.base_ber == 0.0
            && self.program_fail_prob == 0.0
            && self.erase_fail_prob == 0.0
            && self.factory_bad_frac == 0.0
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self::none()
    }
}

/// splitmix64 finalizer — the standard 64-bit avalanche mix.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Operation-kind tags keeping the four decision streams independent.
#[derive(Debug, Clone, Copy)]
#[repr(u64)]
enum OpKind {
    Read = 1,
    Program = 2,
    Erase = 3,
    FactoryBad = 4,
}

/// Pure hash of a decision identity → PRNG seed.
fn mix(seed: u64, kind: OpKind, a: u64, b: u64, c: u64) -> u64 {
    splitmix64(seed ^ splitmix64((kind as u64) ^ splitmix64(a ^ splitmix64(b ^ splitmix64(c)))))
}

/// A compiled fault plan: stateless, pure-function outcome derivation.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    cfg: FaultConfig,
}

impl FaultPlan {
    /// Compile a configuration into a plan.
    pub fn new(cfg: FaultConfig) -> Self {
        assert!(cfg.codeword_bits > 0.0 && cfg.correctable_bits > 0.0);
        assert!((0.0..1.0).contains(&cfg.retry_gain));
        FaultPlan { cfg }
    }

    /// The configuration this plan was compiled from.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// True when the plan can never produce a fault.
    pub fn is_null(&self) -> bool {
        self.cfg.is_null()
    }

    /// Effective raw BER of a page on its `generation`-th erase cycle at
    /// `read_index` reads since program.
    fn effective_ber(&self, generation: u32, read_index: u32) -> f64 {
        self.cfg.base_ber
            * (1.0 + self.cfg.wear_slope * generation as f64)
            * (1.0 + self.cfg.retention_slope * read_index as f64)
    }

    /// Outcome of reading `ppn` (block erase count `generation`, the
    /// `read_index`-th read since the page was programmed).
    pub fn read_outcome(&self, ppn: u64, generation: u32, read_index: u32) -> MediaOutcome {
        if self.cfg.base_ber == 0.0 {
            return MediaOutcome::Clean;
        }
        let lambda = self.effective_ber(generation, read_index) * self.cfg.codeword_bits;
        let base_fail = (lambda / self.cfg.correctable_bits).min(1.0);
        if base_fail == 0.0 {
            return MediaOutcome::Clean;
        }
        let mut rng = SimRng::new(mix(
            self.cfg.seed,
            OpKind::Read,
            ppn,
            generation as u64,
            read_index as u64,
        ));
        let mut p_fail = base_fail;
        for step in 0..=self.cfg.max_retry_steps {
            if !rng.chance(p_fail) {
                return if step == 0 {
                    MediaOutcome::Clean
                } else {
                    MediaOutcome::Correctable { retry_steps: step }
                };
            }
            p_fail = (p_fail * self.cfg.retry_gain).min(1.0);
        }
        MediaOutcome::Uncorrectable
    }

    /// Whether programming `ppn` in erase generation `generation` fails.
    pub fn program_outcome(&self, ppn: u64, generation: u32) -> MediaOutcome {
        if self.cfg.program_fail_prob == 0.0 {
            return MediaOutcome::Clean;
        }
        let mut rng = SimRng::new(mix(
            self.cfg.seed,
            OpKind::Program,
            ppn,
            generation as u64,
            0,
        ));
        if rng.chance(self.cfg.program_fail_prob) {
            MediaOutcome::ProgramFail
        } else {
            MediaOutcome::Clean
        }
    }

    /// Whether the `erase_count`-th erase of global block `block` fails.
    pub fn erase_outcome(&self, block: u64, erase_count: u32) -> MediaOutcome {
        if self.cfg.erase_fail_prob == 0.0 {
            return MediaOutcome::Clean;
        }
        let mut rng = SimRng::new(mix(
            self.cfg.seed,
            OpKind::Erase,
            block,
            erase_count as u64,
            0,
        ));
        if rng.chance(self.cfg.erase_fail_prob) {
            MediaOutcome::EraseFail
        } else {
            MediaOutcome::Clean
        }
    }

    /// Whether global block `block` shipped factory-bad.
    pub fn factory_bad(&self, block: u64) -> bool {
        if self.cfg.factory_bad_frac == 0.0 {
            return false;
        }
        let mut rng = SimRng::new(mix(self.cfg.seed, OpKind::FactoryBad, block, 0, 0));
        rng.chance(self.cfg.factory_bad_frac)
    }
}

/// Reliability counters accumulated by a [`MediaModel`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MediaCounters {
    /// Program-status failures the controller recovered from.
    pub program_fails: u64,
    /// Blocks retired in service (erase failure or early retirement after
    /// a program failure).
    pub grown_bad_blocks: u64,
    /// Blocks retired at media attach time (factory bad).
    pub factory_bad_blocks: u64,
    /// Reads that exhausted the retry ladder (data loss events).
    pub uncorrectable_reads: u64,
    /// Total read-retry ladder steps across all reads.
    pub read_retry_steps: u64,
    /// Histogram of reads by retry steps needed: index `s` counts reads
    /// that succeeded after `s` steps (0 = clean first try). Uncorrectable
    /// reads are counted separately, not here.
    pub retry_hist: Vec<u64>,
}

impl MediaCounters {
    /// All-zero counters with a retry histogram of `max_retry_steps + 1`
    /// buckets.
    pub fn new(max_retry_steps: u32) -> Self {
        MediaCounters {
            program_fails: 0,
            grown_bad_blocks: 0,
            factory_bad_blocks: 0,
            uncorrectable_reads: 0,
            read_retry_steps: 0,
            retry_hist: vec![0; max_retry_steps as usize + 1],
        }
    }

    /// Total reads that touched the media (retry histogram plus the reads
    /// the ladder could not save).
    pub fn media_reads(&self) -> u64 {
        self.retry_hist.iter().sum::<u64>() + self.uncorrectable_reads
    }

    /// Counter deltas since `baseline`: a measurement window is the
    /// difference of two snapshots. Factory-bad blocks are the exception:
    /// they are retired when the media is attached, before any window
    /// opens, so every window reports the device's count as it stands
    /// (like a report's wear summary) rather than a difference that is
    /// always zero.
    pub fn since(&self, baseline: &MediaCounters) -> MediaCounters {
        MediaCounters {
            program_fails: self.program_fails - baseline.program_fails,
            grown_bad_blocks: self.grown_bad_blocks - baseline.grown_bad_blocks,
            factory_bad_blocks: self.factory_bad_blocks,
            uncorrectable_reads: self.uncorrectable_reads - baseline.uncorrectable_reads,
            read_retry_steps: self.read_retry_steps - baseline.read_retry_steps,
            retry_hist: self
                .retry_hist
                .iter()
                .zip(baseline.retry_hist.iter().chain(std::iter::repeat(&0)))
                .map(|(a, b)| a - b)
                .collect(),
        }
    }
}

impl Default for MediaCounters {
    /// All-zero counters with a single (clean) histogram bucket — what a
    /// device without attached media reports.
    fn default() -> Self {
        Self::new(0)
    }
}

/// Stateful media-fault model: a [`FaultPlan`] plus the per-page read
/// indices that proxy retention age, plus reliability counters.
///
/// Lives inside `dloop-nand`'s `FlashState`; FTLs never talk to it
/// directly. Cloning clones the whole fault state, so snapshotted devices
/// replay identically.
#[derive(Debug, Clone)]
pub struct MediaModel {
    plan: FaultPlan,
    read_counts: Vec<u32>,
    counters: MediaCounters,
}

impl MediaModel {
    /// A model over `total_pages` physical pages.
    pub fn new(plan: FaultPlan, total_pages: u64) -> Self {
        let max_steps = plan.config().max_retry_steps;
        MediaModel {
            plan,
            read_counts: vec![0; total_pages as usize],
            counters: MediaCounters::new(max_steps),
        }
    }

    /// The compiled plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// True when the plan can never fire (fast-path check for callers).
    pub fn is_null(&self) -> bool {
        self.plan.is_null()
    }

    /// Reliability counters so far.
    pub fn counters(&self) -> &MediaCounters {
        &self.counters
    }

    /// Read of `ppn` (block generation `generation`): advances the page's
    /// read index, derives the outcome, and accounts it.
    pub fn read(&mut self, ppn: u64, generation: u32) -> MediaOutcome {
        if self.plan.cfg.base_ber == 0.0 {
            self.counters.retry_hist[0] += 1;
            return MediaOutcome::Clean;
        }
        let idx = &mut self.read_counts[ppn as usize];
        let read_index = *idx;
        *idx = idx.saturating_add(1);
        let outcome = self.plan.read_outcome(ppn, generation, read_index);
        match outcome {
            MediaOutcome::Uncorrectable => self.counters.uncorrectable_reads += 1,
            o => {
                let steps = o.retry_steps();
                self.counters.read_retry_steps += steps as u64;
                self.counters.retry_hist[steps as usize] += 1;
            }
        }
        outcome
    }

    /// Program of `ppn` (block generation `generation`): resets the page's
    /// retention clock and derives pass/fail.
    pub fn program(&mut self, ppn: u64, generation: u32) -> MediaOutcome {
        self.read_counts[ppn as usize] = 0;
        let outcome = self.plan.program_outcome(ppn, generation);
        if outcome == MediaOutcome::ProgramFail {
            self.counters.program_fails += 1;
        }
        outcome
    }

    /// Erase of global block `block` at erase generation `erase_count`
    /// (the count *before* this erase).
    pub fn erase(&mut self, block: u64, erase_count: u32) -> MediaOutcome {
        self.plan.erase_outcome(block, erase_count)
    }

    /// Record an in-service block retirement (erase failure or doomed
    /// block retired early after a program failure).
    pub fn note_grown_bad(&mut self) {
        self.counters.grown_bad_blocks += 1;
    }

    /// Record a factory-bad block removed from service at attach time.
    pub fn note_factory_bad(&mut self) {
        self.counters.factory_bad_blocks += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_plan_never_faults() {
        let plan = FaultPlan::new(FaultConfig::none());
        assert!(plan.is_null());
        for ppn in 0..2000 {
            assert_eq!(plan.read_outcome(ppn, 5, 9), MediaOutcome::Clean);
            assert_eq!(plan.program_outcome(ppn, 3), MediaOutcome::Clean);
            assert_eq!(plan.erase_outcome(ppn, 7), MediaOutcome::Clean);
            assert!(!plan.factory_bad(ppn));
        }
    }

    #[test]
    fn outcomes_are_pure_functions_of_the_key() {
        let a = FaultPlan::new(FaultConfig::storm(99));
        let b = FaultPlan::new(FaultConfig::storm(99));
        for ppn in 0..500 {
            assert_eq!(a.read_outcome(ppn, 2, 3), b.read_outcome(ppn, 2, 3));
            assert_eq!(a.program_outcome(ppn, 1), b.program_outcome(ppn, 1));
            assert_eq!(a.erase_outcome(ppn, 4), b.erase_outcome(ppn, 4));
            assert_eq!(a.factory_bad(ppn), b.factory_bad(ppn));
        }
    }

    #[test]
    fn different_seeds_give_different_fault_sets() {
        let a = FaultPlan::new(FaultConfig::storm(1));
        let b = FaultPlan::new(FaultConfig::storm(2));
        let differ = (0..4000)
            .filter(|&p| a.program_outcome(p, 0) != b.program_outcome(p, 0))
            .count();
        assert!(differ > 0, "seeds must decorrelate the fault plan");
    }

    #[test]
    fn fault_rates_are_near_the_configured_probabilities() {
        let cfg = FaultConfig::storm(7);
        let plan = FaultPlan::new(cfg.clone());
        let n = 40_000u64;
        let program_fails = (0..n)
            .filter(|&p| plan.program_outcome(p, 0) == MediaOutcome::ProgramFail)
            .count() as f64;
        let rate = program_fails / n as f64;
        assert!(
            (rate - cfg.program_fail_prob).abs() < 0.01,
            "program-fail rate {rate} far from {}",
            cfg.program_fail_prob
        );
        let factory = (0..n).filter(|&b| plan.factory_bad(b)).count() as f64;
        let rate = factory / n as f64;
        assert!(
            (rate - cfg.factory_bad_frac).abs() < 0.01,
            "factory-bad rate {rate} far from {}",
            cfg.factory_bad_frac
        );
    }

    #[test]
    fn ber_rises_with_wear_and_retention() {
        let plan = FaultPlan::new(FaultConfig::light(3));
        assert!(plan.effective_ber(10, 0) > plan.effective_ber(0, 0));
        assert!(plan.effective_ber(0, 100) > plan.effective_ber(0, 0));
    }

    #[test]
    fn retry_ladder_monotone_with_ber() {
        // With a huge BER almost every read should need retries or die;
        // with a tiny one almost none should.
        let hot = FaultPlan::new(FaultConfig {
            base_ber: 5e-3,
            ..FaultConfig::storm(5)
        });
        let cold = FaultPlan::new(FaultConfig {
            base_ber: 1e-6,
            ..FaultConfig::storm(5)
        });
        let n = 5000u64;
        let hot_bad = (0..n)
            .filter(|&p| hot.read_outcome(p, 0, 0) != MediaOutcome::Clean)
            .count();
        let cold_bad = (0..n)
            .filter(|&p| cold.read_outcome(p, 0, 0) != MediaOutcome::Clean)
            .count();
        assert!(hot_bad > cold_bad, "hot {hot_bad} vs cold {cold_bad}");
        assert!(cold_bad < (n / 100) as usize);
    }

    #[test]
    fn media_model_counts_outcomes() {
        let mut m = MediaModel::new(FaultPlan::new(FaultConfig::storm(11)), 4096);
        let mut uncorrectable = 0u64;
        let mut retried = 0u64;
        for ppn in 0..4096u64 {
            match m.read(ppn, 3) {
                MediaOutcome::Uncorrectable => uncorrectable += 1,
                MediaOutcome::Correctable { .. } => retried += 1,
                _ => {}
            }
        }
        let c = m.counters();
        assert_eq!(c.uncorrectable_reads, uncorrectable);
        assert_eq!(c.retry_hist.iter().sum::<u64>() + uncorrectable, 4096);
        assert!(retried > 0, "storm config should force some retries");
        assert!(c.read_retry_steps >= retried);
    }

    #[test]
    fn read_index_advances_and_resets_on_program() {
        let cfg = FaultConfig {
            retention_slope: 10.0,
            ..FaultConfig::light(13)
        };
        let mut m = MediaModel::new(FaultPlan::new(cfg), 16);
        // Drive the read index up, then re-program: the sequence of
        // outcomes after the program must equal the first sequence
        // (same generation, read indices restart at 0).
        let first: Vec<MediaOutcome> = (0..8).map(|_| m.read(3, 0)).collect();
        m.program(3, 0);
        let second: Vec<MediaOutcome> = (0..8).map(|_| m.read(3, 0)).collect();
        assert_eq!(first, second);
    }

    #[test]
    fn counters_since_baseline() {
        let mut m = MediaModel::new(FaultPlan::new(FaultConfig::storm(17)), 1024);
        m.note_factory_bad();
        for ppn in 0..512u64 {
            m.read(ppn, 1);
        }
        let base = m.counters().clone();
        for ppn in 512..1024u64 {
            m.read(ppn, 1);
        }
        let delta = m.counters().since(&base);
        assert_eq!(
            delta.retry_hist.iter().sum::<u64>() + delta.uncorrectable_reads,
            512
        );
        // Factory-bad blocks are a level: retired before the window opened,
        // still reported in it.
        assert_eq!(delta.factory_bad_blocks, 1);
    }

    #[test]
    fn null_model_hot_path_stays_clean() {
        let mut m = MediaModel::new(FaultPlan::new(FaultConfig::none()), 64);
        assert!(m.is_null());
        for _ in 0..10 {
            assert_eq!(m.read(5, 0), MediaOutcome::Clean);
            assert_eq!(m.program(5, 0), MediaOutcome::Clean);
            assert_eq!(m.erase(0, 0), MediaOutcome::Clean);
        }
        assert_eq!(m.counters().uncorrectable_reads, 0);
        assert_eq!(m.counters().read_retry_steps, 0);
    }
}
