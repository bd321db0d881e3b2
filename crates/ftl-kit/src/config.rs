//! Experiment configuration: Table I of the paper as a value.

use dloop_nand::{EnergyConfig, FaultConfig, Geometry, TimingConfig};

/// Which FTL scheme to instantiate (construction lives with the scheme
/// crates; this enum just names them for configs and harnesses).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FtlKind {
    /// The paper's contribution (§III).
    Dloop,
    /// Gupta et al.'s demand-cached page-mapping FTL.
    Dftl,
    /// Lee et al.'s fully-associative log-block hybrid FTL.
    Fast,
    /// Page mapping with unlimited SRAM (ablation bound).
    IdealPageMap,
}

impl FtlKind {
    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            FtlKind::Dloop => "DLOOP",
            FtlKind::Dftl => "DFTL",
            FtlKind::Fast => "FAST",
            FtlKind::IdealPageMap => "IDEAL",
        }
    }

    /// The three schemes the paper evaluates (Figs. 8-10).
    pub fn paper_set() -> [FtlKind; 3] {
        [FtlKind::Dloop, FtlKind::Dftl, FtlKind::Fast]
    }
}

/// Full device + FTL configuration.
#[derive(Debug, Clone)]
pub struct SsdConfig {
    /// User capacity in GB (Table I: fixed 8, varied 4-64).
    pub capacity_gb: u32,
    /// Page size in KB (Table I: fixed 2, varied 2-16).
    pub page_kb: u32,
    /// Extra blocks as a percentage of data blocks (Table I: fixed 3,
    /// varied 3-10).
    pub extra_pct: f64,
    /// Channels (paper Fig. 1a: 8).
    pub channels: u32,
    /// Packages per channel.
    pub packages_per_channel: u32,
    /// Chips per package.
    pub chips_per_package: u32,
    /// Dies per chip.
    pub dies_per_chip: u32,
    /// Planes per die.
    pub planes_per_die: u32,
    /// NAND latencies.
    pub timing: TimingConfig,
    /// Ablation: serialise the planes of a die (no plane-level parallelism).
    pub die_serialized: bool,
    /// Cached Mapping Table capacity, in entries.
    pub cmt_capacity: usize,
    /// GC trigger: collect when a plane's free pool drops below this
    /// (§III.C: "set to 3 in our experiments").
    pub gc_threshold: u32,
    /// Ablation: let DLOOP use copy-back for GC moves (true in the paper).
    pub copyback_enabled: bool,
    /// Ablation: spread translation pages across planes (true for DLOOP;
    /// DFTL clusters them from plane 0 regardless of this flag).
    pub spread_translation: bool,
    /// Test hook: force (data, extra) blocks per plane instead of deriving
    /// them from `capacity_gb`, so GC pressure is reachable in unit tests.
    pub blocks_per_plane_override: Option<(u32, u32)>,
    /// Media-fault plan attached to the flash at device build time.
    /// [`FaultConfig::none`] (the default) is the exact fault-free device
    /// the simulator modelled before the reliability subsystem existed —
    /// no media model is attached at all, so the hot path is unchanged.
    pub fault: FaultConfig,
    /// Serve GC/merge work in the background: it still occupies planes and
    /// buses (delaying later operations) but no longer gates the
    /// triggering request's response. The paper's simulator — like
    /// FlashSim — performs reclamation synchronously, so this is false by
    /// default and exists as an ablation of a more modern controller.
    pub background_gc: bool,
    /// Integer-exact energy accounting (see `dloop_nand::energy`). `None`
    /// (the default) disables accounting entirely: the run report carries
    /// no energy totals and every fingerprint is bit-identical to a run
    /// without this field — energy is observation, never perturbation.
    pub energy: Option<EnergyConfig>,
}

impl SsdConfig {
    /// Table I fixed parameters.
    pub fn paper_default() -> Self {
        SsdConfig {
            capacity_gb: 8,
            page_kb: 2,
            extra_pct: 3.0,
            channels: 8,
            packages_per_channel: 1,
            chips_per_package: 1,
            dies_per_chip: 2,
            planes_per_die: 4,
            timing: TimingConfig::paper_default(),
            die_serialized: false,
            cmt_capacity: 4096,
            gc_threshold: 3,
            copyback_enabled: true,
            spread_translation: true,
            blocks_per_plane_override: None,
            fault: FaultConfig::none(),
            background_gc: false,
            energy: None,
        }
    }

    /// A scaled-down configuration for fast tests: same hierarchy shape,
    /// tiny capacity.
    pub fn tiny_test() -> Self {
        SsdConfig {
            capacity_gb: 1,
            channels: 2,
            packages_per_channel: 1,
            chips_per_package: 1,
            dies_per_chip: 1,
            planes_per_die: 2,
            cmt_capacity: 256,
            ..Self::paper_default()
        }
    }

    /// Same config with a different capacity (Fig. 8 sweep).
    pub fn with_capacity_gb(mut self, gb: u32) -> Self {
        self.capacity_gb = gb;
        self
    }

    /// Same config with a different page size (Fig. 9 sweep).
    pub fn with_page_kb(mut self, kb: u32) -> Self {
        self.page_kb = kb;
        self
    }

    /// Same config with a different extra-block percentage (Fig. 10 sweep).
    pub fn with_extra_pct(mut self, pct: f64) -> Self {
        self.extra_pct = pct;
        self
    }

    /// Same config with a media-fault plan (reliability experiments).
    pub fn with_fault(mut self, fault: FaultConfig) -> Self {
        self.fault = fault;
        self
    }

    /// Same config with integer energy accounting enabled (power
    /// experiments and the `PowerCap` scheduling mode).
    pub fn with_energy(mut self, energy: EnergyConfig) -> Self {
        self.energy = Some(energy);
        self
    }

    /// Materialise the geometry this configuration describes.
    pub fn geometry(&self) -> Geometry {
        let mut g = Geometry::build_with_hierarchy(
            self.capacity_gb,
            self.page_kb,
            self.extra_pct,
            self.channels,
            self.packages_per_channel,
            self.chips_per_package,
            self.dies_per_chip,
            self.planes_per_die,
        );
        if let Some((data, extra)) = self.blocks_per_plane_override {
            g.data_blocks_per_plane = data;
            g.blocks_per_plane = data + extra;
        }
        g
    }

    /// A micro configuration whose planes hold only a handful of blocks,
    /// so garbage collection is reachable within a few hundred writes.
    /// Used throughout the test suites.
    pub fn micro_gc_test() -> Self {
        SsdConfig {
            blocks_per_plane_override: Some((12, 4)),
            cmt_capacity: 64,
            ..Self::tiny_test()
        }
    }
}

impl Default for SsdConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_geometry_matches_table1() {
        let c = SsdConfig::paper_default();
        let g = c.geometry();
        assert_eq!(g.page_size, 2048);
        assert_eq!(g.pages_per_block, 64);
        assert_eq!(g.total_planes(), 64);
        assert_eq!(g.user_capacity_bytes(), 8 << 30);
    }

    #[test]
    fn sweep_builders() {
        let c = SsdConfig::paper_default()
            .with_capacity_gb(64)
            .with_page_kb(4)
            .with_extra_pct(10.0);
        assert_eq!(c.capacity_gb, 64);
        assert_eq!(c.page_kb, 4);
        assert_eq!(c.extra_pct, 10.0);
        let g = c.geometry();
        assert_eq!(g.user_capacity_bytes(), 64 << 30);
        assert_eq!(g.page_size, 4096);
    }

    #[test]
    fn ftl_kind_names() {
        assert_eq!(FtlKind::Dloop.name(), "DLOOP");
        assert_eq!(
            FtlKind::paper_set().map(|k| k.name()),
            ["DLOOP", "DFTL", "FAST"]
        );
    }
}
