//! Simulation configuration.

use serde::{Deserialize, Serialize};

use lbica_cache::{CacheConfig, ReplacementKind, WritePolicy};
use lbica_storage::device::{HddConfig, SsdConfig};
use lbica_tier::{InclusionPolicy, TierLevelSpec, TierTopology};

/// Which device model backs the disk-subsystem tier.
///
/// The paper's latency plots (hundreds of microseconds on the disk tier)
/// match an enterprise disk subsystem built on mid-range SSDs — an option
/// the paper's introduction explicitly lists — so that is the default. The
/// raw 7.2K RPM HDD model remains available for ablation studies.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum DiskDeviceConfig {
    /// A mid-range SATA SSD array.
    MidrangeSsd(SsdConfig),
    /// A 7.2K RPM SAS HDD.
    Hdd(HddConfig),
}

impl DiskDeviceConfig {
    /// The default mid-range SSD disk subsystem.
    pub const fn midrange_ssd() -> Self {
        DiskDeviceConfig::MidrangeSsd(SsdConfig::midrange_sata())
    }

    /// The 7.2K SAS HDD disk subsystem from the paper's parts list.
    pub const fn seagate_hdd() -> Self {
        DiskDeviceConfig::Hdd(HddConfig::seagate_7200_sas())
    }
}

impl Default for DiskDeviceConfig {
    fn default() -> Self {
        DiskDeviceConfig::midrange_ssd()
    }
}

/// Full configuration of a [`crate::Simulation`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimulationConfig {
    /// Geometry and initial policy of the SSD cache.
    pub cache: CacheConfig,
    /// Service-time model of the SSD cache device.
    pub cache_device: SsdConfig,
    /// Service-time model of the disk subsystem.
    pub disk_device: DiskDeviceConfig,
    /// Number of requests the cache device services concurrently.
    pub ssd_parallelism: usize,
    /// Number of requests the disk subsystem services concurrently (an
    /// enterprise disk subsystem is an array, not a single spindle).
    pub disk_parallelism: usize,
    /// Pre-populate the cache with clean blocks before the run, modelling a
    /// workload that has passed its warm-up interval (the paper's
    /// assumption in Section III-B).
    pub prewarm_cache: bool,
    /// Optional multi-level cache hierarchy. `None` (the default) runs the
    /// paper's flat single-SSD cache; a topology with two or more levels
    /// switches the simulation onto the tiered datapath. A one-level
    /// topology still runs the flat path (it is semantically identical),
    /// so every historical configuration is untouched.
    pub tiers: Option<TierTopology>,
}

impl SimulationConfig {
    /// The configuration used by the figure-reproduction harness: a
    /// 16 Ki-block (64 MiB) LRU cache on a Samsung-863a-class device, a
    /// mid-range-SSD disk subsystem with four service slots.
    pub const fn harness() -> Self {
        SimulationConfig {
            cache: CacheConfig {
                num_sets: 4_096,
                associativity: 4,
                replacement: ReplacementKind::Lru,
                initial_policy: WritePolicy::WriteBack,
            },
            cache_device: SsdConfig::samsung_863a(),
            disk_device: DiskDeviceConfig::midrange_ssd(),
            ssd_parallelism: 1,
            disk_parallelism: 4,
            prewarm_cache: true,
            tiers: None,
        }
    }

    /// A much smaller configuration for fast tests (512-block cache).
    pub const fn tiny() -> Self {
        SimulationConfig {
            cache: CacheConfig {
                num_sets: 128,
                associativity: 4,
                replacement: ReplacementKind::Lru,
                initial_policy: WritePolicy::WriteBack,
            },
            cache_device: SsdConfig::samsung_863a(),
            disk_device: DiskDeviceConfig::midrange_ssd(),
            ssd_parallelism: 1,
            disk_parallelism: 4,
            prewarm_cache: true,
            tiers: None,
        }
    }

    /// Returns a copy with the cache's set count replaced (builder style).
    /// Together with [`SimulationConfig::with_cache_associativity`] this is
    /// how scenario sweeps enumerate cache geometries.
    pub const fn with_cache_sets(mut self, num_sets: usize) -> Self {
        self.cache.num_sets = num_sets;
        self
    }

    /// Returns a copy with the cache's ways-per-set replaced (builder
    /// style).
    pub const fn with_cache_associativity(mut self, associativity: usize) -> Self {
        self.cache.associativity = associativity;
        self
    }

    /// Returns a copy with the cache's replacement policy replaced (builder
    /// style) — the `ReplacementKind` scenario axis. When a tier topology
    /// is attached, this governs the flat fallback only; per-level
    /// replacement lives in the topology.
    pub const fn with_replacement(mut self, replacement: ReplacementKind) -> Self {
        self.cache.replacement = replacement;
        self
    }

    /// Returns a copy with the disk-subsystem device model replaced
    /// (builder style).
    pub const fn with_disk_device(mut self, disk_device: DiskDeviceConfig) -> Self {
        self.disk_device = disk_device;
        self
    }

    /// Returns a copy with a cache-tier topology attached (builder style).
    /// The flat cache fields are re-synced from the topology's hot tier so
    /// that capacity accessors and one-level topologies stay coherent with
    /// the flat path.
    pub fn with_tiers(mut self, tiers: TierTopology) -> Self {
        let hot = *tiers.level(0);
        self.cache = hot.cache;
        self.cache_device = hot.device;
        self.ssd_parallelism = hot.parallelism;
        self.tiers = Some(tiers);
        self
    }

    /// Returns a copy with the tier hierarchy's inclusion policy replaced
    /// (builder style) — the inclusive-vs-exclusive scenario axis. A no-op
    /// for flat configurations, which have no hierarchy to make inclusive.
    pub fn with_tier_inclusion(mut self, inclusion: InclusionPolicy) -> Self {
        if let Some(tiers) = self.tiers {
            self = self.with_tiers(tiers.with_inclusion(inclusion));
        }
        self
    }

    /// Returns a copy with cache level `level`'s initial write policy
    /// replaced (builder style) — the per-tier write-policy scenario axis.
    ///
    /// Note that in a full [`crate::Simulation`] run the *hot tier's*
    /// run-start policy is owned by the controller
    /// ([`crate::CacheController::initial_policy`]); configured lower-level
    /// policies are preserved. Level-0 assignments therefore matter for
    /// direct [`crate::TieredStorageSystem`] use, not controller-driven
    /// runs.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has no tier topology or `level` is out
    /// of bounds.
    pub fn with_tier_level_policy(self, level: usize, policy: WritePolicy) -> Self {
        let tiers = self.tiers.expect("per-tier policies need a tier topology");
        self.with_tiers(tiers.with_level_policy(level, policy))
    }

    /// Number of cache levels the configuration describes (1 for the flat
    /// cache).
    pub fn tier_count(&self) -> usize {
        self.tiers.map_or(1, |t| t.len())
    }

    /// Whether the configuration runs the tiered datapath (two or more
    /// cache levels).
    pub fn is_tiered(&self) -> bool {
        self.tier_count() >= 2
    }

    /// A two-level hierarchy at test scale: the tiny hot tier over a
    /// 4x-larger QLC warm tier, with the tiny disk subsystem.
    pub fn tiny_two_tier() -> Self {
        let base = SimulationConfig::tiny();
        let hot = TierLevelSpec::new(base.cache, base.cache_device, base.ssd_parallelism);
        let warm = TierLevelSpec::new(
            CacheConfig { num_sets: 512, ..base.cache },
            SsdConfig::qlc_capacity(),
            2,
        );
        base.with_tiers(TierTopology::two_level(hot, warm))
    }

    /// Derives a two-level variant of this configuration: the current
    /// cache becomes the hot tier, backed by a QLC warm tier with twice
    /// the sets and two service slots. The generic way any scenario axis
    /// turns a flat cell into a tiered one.
    pub fn two_tier_qlc(self) -> Self {
        let hot = TierLevelSpec::new(self.cache, self.cache_device, self.ssd_parallelism);
        let warm = TierLevelSpec::new(
            CacheConfig { num_sets: self.cache.num_sets * 2, ..self.cache },
            SsdConfig::qlc_capacity(),
            2,
        );
        self.with_tiers(TierTopology::two_level(hot, warm))
    }

    /// A two-level hierarchy at the published figure scale: the harness
    /// cache as hot tier over a 2x-larger QLC warm tier.
    pub fn harness_two_tier() -> Self {
        SimulationConfig::harness().two_tier_qlc()
    }

    /// A three-level hierarchy at test scale (tiny hot tier, QLC warm tier,
    /// an even larger mid-range cold tier).
    pub fn tiny_three_tier() -> Self {
        let base = SimulationConfig::tiny();
        let hot = TierLevelSpec::new(base.cache, base.cache_device, base.ssd_parallelism);
        let warm = TierLevelSpec::new(
            CacheConfig { num_sets: 256, ..base.cache },
            SsdConfig::qlc_capacity(),
            2,
        );
        let cold = TierLevelSpec::new(
            CacheConfig { num_sets: 1_024, ..base.cache },
            SsdConfig::midrange_sata(),
            4,
        );
        base.with_tiers(TierTopology::three_level(hot, warm, cold))
    }

    /// Total cache capacity in blocks: `num_sets × associativity` for the
    /// flat cache, the sum over every level for a tiered hierarchy.
    pub fn cache_capacity_blocks(&self) -> usize {
        match &self.tiers {
            Some(t) => t.capacity_blocks(),
            None => self.cache.capacity_blocks(),
        }
    }
}

impl Default for SimulationConfig {
    fn default() -> Self {
        SimulationConfig::harness()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_config_matches_workload_scale() {
        let cfg = SimulationConfig::harness();
        assert_eq!(cfg.cache.capacity_blocks(), 16_384);
        assert!(cfg.prewarm_cache);
        assert!(matches!(cfg.disk_device, DiskDeviceConfig::MidrangeSsd(_)));
    }

    #[test]
    fn tiny_config_matches_tiny_scale() {
        let cfg = SimulationConfig::tiny();
        assert_eq!(cfg.cache.capacity_blocks(), 512);
    }

    #[test]
    fn builder_accessors_enumerate_axis_variants() {
        let base = SimulationConfig::tiny();
        assert_eq!(base.cache_capacity_blocks(), 512);
        let wider = base.with_cache_sets(256).with_cache_associativity(8);
        assert_eq!(wider.cache_capacity_blocks(), 2048);
        let hdd = base.with_disk_device(DiskDeviceConfig::seagate_hdd());
        assert!(matches!(hdd.disk_device, DiskDeviceConfig::Hdd(_)));
        // Builders copy: the base config is untouched.
        assert_eq!(base, SimulationConfig::tiny());
    }

    #[test]
    fn with_replacement_swaps_the_policy_axis() {
        let base = SimulationConfig::tiny();
        let fifo = base.with_replacement(ReplacementKind::Fifo);
        assert_eq!(fifo.cache.replacement, ReplacementKind::Fifo);
        assert_eq!(base.cache.replacement, ReplacementKind::Lru);
        assert_eq!(fifo.cache_capacity_blocks(), base.cache_capacity_blocks());
    }

    #[test]
    fn tier_presets_describe_multi_level_hierarchies() {
        let flat = SimulationConfig::tiny();
        assert_eq!(flat.tier_count(), 1);
        assert!(!flat.is_tiered());

        let two = SimulationConfig::tiny_two_tier();
        assert_eq!(two.tier_count(), 2);
        assert!(two.is_tiered());
        // Hot tier re-syncs the flat fields; capacity spans both levels.
        assert_eq!(two.cache, flat.cache);
        assert_eq!(two.cache_capacity_blocks(), 512 + 2_048);

        let three = SimulationConfig::tiny_three_tier();
        assert_eq!(three.tier_count(), 3);
        assert_eq!(three.cache_capacity_blocks(), 512 + 1_024 + 4_096);

        let harness = SimulationConfig::harness_two_tier();
        assert_eq!(harness.tier_count(), 2);
        assert_eq!(harness.cache_capacity_blocks(), 16_384 + 32_768);
    }

    #[test]
    fn tier_axis_builders_rewrite_the_topology() {
        let base = SimulationConfig::tiny_two_tier();
        assert_eq!(base.tiers.unwrap().inclusion, InclusionPolicy::Exclusive);
        let inclusive = base.with_tier_inclusion(InclusionPolicy::Inclusive);
        assert_eq!(inclusive.tiers.unwrap().inclusion, InclusionPolicy::Inclusive);
        // Flat configs have no hierarchy to make inclusive.
        let flat = SimulationConfig::tiny().with_tier_inclusion(InclusionPolicy::Inclusive);
        assert!(flat.tiers.is_none());

        let wt_warm = base.with_tier_level_policy(1, WritePolicy::WriteThrough);
        assert_eq!(wt_warm.tiers.unwrap().level(1).write_policy(), WritePolicy::WriteThrough);
        assert_eq!(wt_warm.tiers.unwrap().level(0).write_policy(), WritePolicy::WriteBack);
        // Hot-tier policies re-sync the flat cache fields via with_tiers.
        let wo_hot = base.with_tier_level_policy(0, WritePolicy::WriteOnly);
        assert_eq!(wo_hot.cache.initial_policy, WritePolicy::WriteOnly);
    }

    #[test]
    #[should_panic(expected = "per-tier policies need a tier topology")]
    fn per_tier_policy_on_a_flat_config_panics() {
        let _ = SimulationConfig::tiny().with_tier_level_policy(0, WritePolicy::ReadOnly);
    }

    #[test]
    fn one_level_topology_still_reports_flat() {
        use lbica_tier::{TierLevelSpec, TierTopology};
        let base = SimulationConfig::tiny();
        let single = base.with_tiers(TierTopology::single(TierLevelSpec::new(
            base.cache,
            base.cache_device,
            base.ssd_parallelism,
        )));
        assert_eq!(single.tier_count(), 1);
        assert!(!single.is_tiered());
        assert_eq!(single.cache_capacity_blocks(), base.cache_capacity_blocks());
    }

    #[test]
    fn hdd_variant_switches_disk_model() {
        let cfg = SimulationConfig::harness().with_disk_device(DiskDeviceConfig::seagate_hdd());
        assert!(matches!(cfg.disk_device, DiskDeviceConfig::Hdd(_)));
        assert_eq!(DiskDeviceConfig::default(), DiskDeviceConfig::midrange_ssd());
    }
}
