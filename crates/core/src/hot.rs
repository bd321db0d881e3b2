//! Hot-plane-aware extra blocks — the paper's stated future work (§VI):
//!
//! *"In its current format, DLOOP evenly distributes extra blocks across
//! all planes, which does not consider the need that planes with hot data
//! require more extra blocks to delay costly garbage collection. In future
//! work, we will assign more extra blocks to hot planes to reduce the
//! occurrence of garbage collection."*
//!
//! [`HotPlaneDloopFtl`] implements that idea under a fixed spare-capacity
//! budget: every plane starts with part of its extra blocks parked offline;
//! periodically, the planes receiving the most writes get their parked
//! blocks released (full over-provisioning) while cold planes keep theirs
//! parked. Spare capacity follows the heat without pretending blocks can
//! physically migrate between planes.

use crate::ftl::DloopFtl;
use dloop_ftl_kit::config::SsdConfig;
use dloop_ftl_kit::dir::PageDirectory;
use dloop_ftl_kit::ftl::{Ftl, FtlContext, FtlCounters};
use dloop_nand::{FlashState, Lpn, PlaneId, Ppn};

/// Tunables for the hot-plane variant.
#[derive(Debug, Clone, Copy)]
pub struct HotConfig {
    /// Host page writes between rebalances.
    pub rebalance_period: u64,
    /// Fraction of planes treated as hot each period.
    pub hot_fraction: f64,
    /// Extra blocks parked on cold planes (capped so GC stays viable).
    pub park_quota: u32,
}

impl Default for HotConfig {
    fn default() -> Self {
        HotConfig {
            rebalance_period: 8192,
            hot_fraction: 0.25,
            park_quota: u32::MAX, // "as many as safely possible"
        }
    }
}

/// DLOOP with heat-adaptive spare capacity.
pub struct HotPlaneDloopFtl {
    inner: DloopFtl,
    hot: HotConfig,
    period_writes: Vec<u64>,
    writes_since_rebalance: u64,
    effective_park: u32,
    parked_initially: bool,
    /// Rebalances performed (observability).
    pub rebalances: u64,
}

impl HotPlaneDloopFtl {
    /// Build from a device configuration and heat tunables.
    pub fn new(config: &SsdConfig, hot: HotConfig) -> Self {
        let geometry = config.geometry();
        let planes = geometry.total_planes() as usize;
        // Keep at least threshold + 2 allocatable extras on every plane.
        let safe_margin = config.gc_threshold + 2;
        let extra = geometry.extra_blocks_per_plane();
        let effective_park = extra.saturating_sub(safe_margin).min(hot.park_quota);
        HotPlaneDloopFtl {
            inner: DloopFtl::new(config),
            hot,
            period_writes: vec![0; planes],
            writes_since_rebalance: 0,
            effective_park,
            parked_initially: false,
            rebalances: 0,
        }
    }

    /// Blocks parked per cold plane after capping.
    pub fn effective_park(&self) -> u32 {
        self.effective_park
    }

    fn park_everywhere(&mut self, flash: &mut FlashState) {
        for plane in 0..self.period_writes.len() as PlaneId {
            flash.hold_back(plane, self.effective_park);
        }
        self.parked_initially = true;
    }

    fn rebalance(&mut self, flash: &mut FlashState) {
        self.rebalances += 1;
        let planes = self.period_writes.len();
        let hot_count = ((planes as f64 * self.hot.hot_fraction).ceil() as usize).clamp(1, planes);
        let mut order: Vec<usize> = (0..planes).collect();
        order.sort_by_key(|&p| std::cmp::Reverse(self.period_writes[p]));
        for (rank, &p) in order.iter().enumerate() {
            let p = p as PlaneId;
            if rank < hot_count {
                // Hot plane: release everything parked.
                flash.release_reserve(p, u32::MAX);
            } else {
                // Cold plane: park up to the quota, never starving GC.
                let threshold = self.inner.gc.threshold();
                let headroom = flash.free_blocks(p).saturating_sub(threshold + 1);
                let want = self
                    .effective_park
                    .saturating_sub(flash.plane(p).reserved());
                flash.hold_back(p, want.min(headroom));
            }
        }
        for w in &mut self.period_writes {
            *w = 0;
        }
        self.writes_since_rebalance = 0;
    }
}

impl Ftl for HotPlaneDloopFtl {
    fn name(&self) -> &'static str {
        "DLOOP-HOT"
    }

    fn read(&mut self, lpn: Lpn, ctx: &mut FtlContext<'_>) {
        if !self.parked_initially {
            self.park_everywhere(ctx.flash);
        }
        self.inner.read(lpn, ctx);
    }

    fn write(&mut self, lpn: Lpn, ctx: &mut FtlContext<'_>) {
        if !self.parked_initially {
            self.park_everywhere(ctx.flash);
        }
        let plane = self.inner.plane_of_lpn(lpn) as usize;
        self.period_writes[plane] += 1;
        self.writes_since_rebalance += 1;
        self.inner.write(lpn, ctx);
        if self.writes_since_rebalance >= self.hot.rebalance_period {
            self.rebalance(ctx.flash);
        }
    }

    fn mapped_ppn(&self, lpn: Lpn) -> Option<Ppn> {
        self.inner.mapped_ppn(lpn)
    }

    fn counters(&self) -> FtlCounters {
        self.inner.counters()
    }

    fn audit(&self, flash: &FlashState, dir: &PageDirectory) -> Result<(), String> {
        self.inner.audit(flash, dir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dloop_ftl_kit::config::SsdConfig;

    #[test]
    fn park_quota_respects_gc_margin() {
        // extra = 4, threshold 3 -> margin 5 -> nothing parked.
        let tight = SsdConfig::micro_gc_test();
        let ftl = HotPlaneDloopFtl::new(&tight, HotConfig::default());
        assert_eq!(ftl.effective_park(), 0);

        // Plenty of extras -> parking enabled, capped by the quota.
        let mut roomy = SsdConfig::micro_gc_test();
        roomy.blocks_per_plane_override = Some((12, 12));
        let ftl = HotPlaneDloopFtl::new(
            &roomy,
            HotConfig {
                park_quota: 3,
                ..HotConfig::default()
            },
        );
        assert_eq!(ftl.effective_park(), 3);
    }

    #[test]
    fn default_hot_config_is_sane() {
        let h = HotConfig::default();
        assert!(h.rebalance_period > 0);
        assert!(h.hot_fraction > 0.0 && h.hot_fraction <= 1.0);
    }

    #[test]
    fn name_distinguishes_variant() {
        let config = SsdConfig::micro_gc_test();
        let ftl = HotPlaneDloopFtl::new(&config, HotConfig::default());
        use dloop_ftl_kit::ftl::Ftl as _;
        assert_eq!(ftl.name(), "DLOOP-HOT");
        assert_eq!(ftl.counters(), dloop_ftl_kit::ftl::FtlCounters::default());
    }
}
