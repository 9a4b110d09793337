//! The *tiered* flavor of the simulated storage system: an N-level cache
//! hierarchy in front of the disk subsystem.
//!
//! [`TieredStorageSystem`] is the [`System`] built around a
//! [`TieredCacheModule`]: one [`crate::DeviceStation`] per cache level, hot
//! tier first, plus the disk station, with the module deciding which
//! station every derived operation lands on. This module holds the
//! module's [`CacheFront`] — what the hierarchy does differently from the
//! flat cache — and the hierarchy-only API. `Simulation` runs a
//! configuration here when it describes two or more levels.

use lbica_cache::{CacheStats, WritePolicy};
use lbica_storage::block::BlockRange;
use lbica_storage::device::{AnyDeviceModel, SsdModel};
use lbica_storage::request::{IoRequest, RequestClass, RequestKind, RequestOrigin};
use lbica_storage::snap::{SnapError, SnapReader, SnapWriter};
use lbica_tier::{TierMovement, TierTarget, TieredCacheModule, TieredOp, TieredOutcome};

use crate::arena::SimArena;
use crate::config::SimulationConfig;
use crate::controller::ControllerDecision;
use crate::event::EventKind;
use crate::system::{sealed, CacheFront, DeviceStation, System};

/// The N-level hierarchy: one SSD station per cache level and the disk
/// subsystem.
pub type TieredStorageSystem = System<TieredCacheModule>;

impl TieredStorageSystem {
    /// Assigns per-level write policies, hot tier first (see
    /// [`TieredCacheModule::set_level_policies`]).
    ///
    /// # Panics
    ///
    /// Panics if `policies` does not hold exactly one entry per level.
    pub fn set_level_policies(&mut self, policies: &[WritePolicy]) {
        self.cache_mut().set_level_policies(policies);
    }
}

impl sealed::Sealed for TieredCacheModule {
    fn arena_slot(arena: &mut SimArena) -> &mut Option<(SimulationConfig, TieredStorageSystem)> {
        &mut arena.tiered
    }
}

impl CacheFront for TieredCacheModule {
    type Op = TieredOp;
    type Outcome = TieredOutcome;
    type Stations = Vec<DeviceStation>;
    const TIERED: bool = true;

    /// # Panics
    ///
    /// Panics if the configuration has no tier topology.
    fn build(config: &SimulationConfig, disk: DeviceStation) -> (Self, Vec<DeviceStation>) {
        let topology = config.tiers.expect("a tiered system needs a tier topology");
        let mut cache = TieredCacheModule::new(topology);
        if config.prewarm_cache {
            cache.prewarm_to_capacity();
        }
        let levels = topology.levels().enumerate().map(|(i, spec)| {
            let model = AnyDeviceModel::Ssd(SsdModel::new(spec.device));
            DeviceStation::new(format!("tier{i}-ssd"), model, spec.parallelism)
        });
        (cache, levels.chain([disk]).collect())
    }
    fn rebuild(&mut self, config: &SimulationConfig) {
        self.reset();
        if config.prewarm_cache {
            self.prewarm_to_capacity();
        }
    }
    fn access_into(&mut self, request: &IoRequest, outcome: &mut TieredOutcome) {
        TieredCacheModule::access_into(self, request, outcome);
    }
    fn ops(outcome: &TieredOutcome) -> &[TieredOp] {
        outcome.ops()
    }
    fn route(op: &TieredOp, disk: usize) -> (usize, RequestKind, RequestOrigin, BlockRange) {
        let station = match op.target {
            TierTarget::Level(level) => level,
            TierTarget::Disk => disk,
        };
        (station, op.kind, op.origin, op.range)
    }
    fn invalidate_block(&mut self, block: u64) {
        TieredCacheModule::invalidate_block(self, block);
    }
    /// Writes re-home dirty per the target's policy (`absorb_spill`);
    /// reads keep their current state (`absorb_read_spill`).
    fn absorb_spill(&mut self, request: &IoRequest, level: usize, outcome: &mut TieredOutcome) {
        outcome.clear();
        for block in request.range().block_indices() {
            match request.class() {
                RequestClass::Write => TieredCacheModule::absorb_spill(self, block, level, outcome),
                _ => self.absorb_read_spill(block, level, outcome),
            }
        }
    }
    fn policy(&self) -> WritePolicy {
        TieredCacheModule::policy(self)
    }
    /// On an explicitly per-tier topology this drives the hot tier only
    /// (lower levels are config-pinned), so a configured warm-tier policy
    /// survives run start, every burst switch and every revert.
    fn set_policy(&mut self, policy: WritePolicy) {
        TieredCacheModule::set_policy(self, policy);
    }
    fn level_policies(&self) -> &[WritePolicy] {
        TieredCacheModule::level_policies(self)
    }
    fn apply_policy(&mut self, decision: &ControllerDecision) -> bool {
        if decision.tier_policies.is_empty() {
            // The paper's single policy knob.
            if decision.policy == self.policy() {
                return false;
            }
            TieredCacheModule::set_policy(self, decision.policy);
        } else if self.level_policies() != decision.tier_policies.as_slice() {
            // Tier-aware assignment: one policy per level.
            self.set_level_policies(&decision.tier_policies);
        } else {
            return false;
        }
        true
    }
    /// The plain policy label when every level agrees, a hot-to-cold
    /// `"WO/WB"` composite when they differ.
    fn policy_label(&self) -> String {
        let policies = self.level_policies();
        if policies.windows(2).all(|w| w[0] == w[1]) {
            policies[0].label().to_string()
        } else {
            policies.iter().map(|p| p.label()).collect::<Vec<_>>().join("/")
        }
    }
    fn level_stats(&self, level: usize) -> &CacheStats {
        self.stats(level)
    }
    fn level_movement(&self, level: usize) -> TierMovement {
        self.movement(level)
    }
    fn level_blocks(&self, level: usize) -> (usize, usize) {
        (self.cached_blocks(level), self.dirty_blocks(level))
    }
    /// Folds the interval's deferred tier-movement deltas into the base
    /// counters in one pass: it keeps the folding cost off the per-event
    /// path and bounds it to one add per level per interval.
    fn commit_moves(&mut self) {
        TieredCacheModule::commit_moves(self);
    }
    fn completion_tag(level: usize, request: IoRequest) -> EventKind {
        EventKind::LevelCompletion { level, request }
    }
    fn held_level(kind: EventKind, levels: usize) -> Result<(usize, IoRequest), SnapError> {
        match kind {
            EventKind::LevelCompletion { level, request } if level < levels => Ok((level, request)),
            EventKind::LevelCompletion { .. } => {
                Err(SnapError::Corrupt("completion at a missing cache level"))
            }
            _ => Err(SnapError::Corrupt("flat ssd completion in a tiered system")),
        }
    }
    fn snap_to(&self, w: &mut SnapWriter) {
        TieredCacheModule::snap_to(self, w);
    }
    fn snap_state_from(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        TieredCacheModule::snap_state_from(self, r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::BypassDirective;
    use crate::system::tests::{record, twins};
    use lbica_storage::request::RequestKind;
    use lbica_storage::time::{SimDuration, SimTime};

    fn two_tier_system() -> TieredStorageSystem {
        TieredStorageSystem::new(&SimulationConfig::tiny_two_tier())
    }

    #[test]
    fn prewarmed_hot_tier_read_completes_on_the_hot_ssd_only() {
        let mut sys = two_tier_system();
        sys.schedule_record(&record(0, 0, RequestKind::Read));
        sys.run_until(SimTime::from_millis(10));
        assert_eq!(sys.app_completed(), 1);
        let report = sys.end_interval(0);
        assert_eq!(report.cache.completed, 1);
        assert_eq!(report.disk.completed, 0);
        assert_eq!(report.cache.max_latency_us, 90, "hot tier services the hit");
    }

    #[test]
    fn warm_tier_hit_is_served_and_promoted() {
        let mut sys = two_tier_system();
        // Block 600 is prewarmed into the warm tier (hot holds 0..512).
        sys.schedule_record(&record(0, 600 * 8, RequestKind::Read));
        sys.run_until(SimTime::from_millis(10));
        assert_eq!(sys.app_completed(), 1);
        let report = sys.end_interval(0);
        assert_eq!(report.disk.completed, 0, "a warm-tier hit never touches the disk");
        assert!(report.cache.completed >= 2, "warm read + hot promote");
        let stats = sys.tier_level_stats();
        assert_eq!(stats[1].hits, 1);
        assert_eq!(stats[0].promotions_in, 1);
        assert_eq!(sys.cache().resident_level(600), Some(0), "the block moved up");
    }

    #[test]
    fn full_miss_touches_disk_and_fills_hot_tier() {
        let mut sys = two_tier_system();
        sys.schedule_record(&record(0, 10_000_000, RequestKind::Read));
        sys.run_until(SimTime::from_millis(50));
        let report = sys.end_interval(0);
        assert_eq!(report.disk.completed, 1);
        assert_eq!(sys.app_completed(), 1);
        assert_eq!(sys.cache().stats(0).read_misses, 1);
    }

    #[test]
    fn spill_moves_queued_writes_to_the_warm_tier() {
        let mut sys = two_tier_system();
        for i in 0..100u64 {
            sys.schedule_record(&record(1, (i % 500) * 8, RequestKind::Write));
        }
        sys.run_until(SimTime::from_micros(1_000));
        let before_hot = sys.level(0).outstanding();
        let moved = sys
            .apply_bypass(&BypassDirective::SpillTailWrites { max_requests: 40, target_level: 1 });
        assert!(moved > 0);
        assert!(sys.level(0).outstanding() < before_hot);
        assert!(sys.level(1).outstanding() > 0, "spilled writes queue at the warm tier");
        assert_eq!(sys.disk().outstanding(), 0, "the spill chain spares the disk");
        assert_eq!(sys.spilled_requests(), moved as u64);
        let stats = sys.tier_level_stats();
        assert_eq!(stats[1].spills_in, moved as u64);
    }

    #[test]
    fn read_spill_moves_queued_reads_to_the_warm_tier() {
        let mut sys = two_tier_system();
        // Prewarmed hot tier: every read hits and queues at level 0.
        for i in 0..100u64 {
            sys.schedule_record(&record(1, (i % 500) * 8, RequestKind::Read));
        }
        sys.run_until(SimTime::from_micros(1_000));
        let before_hot = sys.level(0).outstanding();
        let moved = sys
            .apply_bypass(&BypassDirective::SpillTailReads { max_requests: 40, target_level: 1 });
        assert!(moved > 0);
        assert!(sys.level(0).outstanding() < before_hot);
        assert!(sys.level(1).outstanding() > 0, "spilled reads queue at the warm tier");
        assert_eq!(sys.disk().outstanding(), 0, "reads never fall through to the disk");
        assert_eq!(sys.spilled_reads(), moved as u64);
        assert_eq!(sys.spilled_requests(), 0, "write-spill accounting is untouched");
        let stats = sys.tier_level_stats();
        assert_eq!(stats[1].read_spills_in, moved as u64);
        assert_eq!(stats[1].spills_in, 0);
        // The drained requests still complete.
        assert!(sys.drain(600));
        assert_eq!(sys.app_completed(), 100);
    }

    #[test]
    fn a_one_level_hierarchy_handles_spills_like_the_flat_system() {
        use crate::StorageSystem;
        use lbica_tier::{TierLevelSpec, TierTopology};
        let flat = SimulationConfig::tiny();
        let single = flat.with_tiers(TierTopology::single(TierLevelSpec::new(
            flat.cache,
            flat.cache_device,
            flat.ssd_parallelism,
        )));
        let directives = [
            BypassDirective::SpillTailWrites { max_requests: 40, target_level: 1 },
            BypassDirective::SpillTailReads { max_requests: 40, target_level: 1 },
        ];
        for (directive, kind) in directives.iter().zip([RequestKind::Write, RequestKind::Read]) {
            let mut flat_sys = StorageSystem::new(&flat);
            let mut sys = TieredStorageSystem::new(&single);
            for i in 0..100u64 {
                flat_sys.schedule_record(&record(1, (i % 500) * 8, kind));
                sys.schedule_record(&record(1, (i % 500) * 8, kind));
            }
            flat_sys.run_until(SimTime::from_micros(1_000));
            sys.run_until(SimTime::from_micros(1_000));
            // With no lower level a write spill drains to the disk like a
            // plain tail bypass, and a read spill is a no-op.
            let moved = sys.apply_bypass(directive);
            assert_eq!(moved, flat_sys.apply_bypass(directive), "{directive:?}");
            assert_eq!(moved > 0, kind == RequestKind::Write, "{directive:?}");
            assert_eq!(sys.disk().outstanding(), flat_sys.disk().outstanding());
            assert_eq!((sys.spilled_requests(), sys.spilled_reads()), (0, 0));
            assert!(sys.drain(600) && flat_sys.drain(600));
            assert_eq!(sys.end_interval(0), flat_sys.end_interval(0), "{directive:?}");
            assert_eq!(sys.app_completed(), 100);
        }
    }

    #[test]
    fn per_level_policies_split_the_hierarchy() {
        let mut sys = two_tier_system();
        sys.set_level_policies(&[WritePolicy::ReadOnly, WritePolicy::WriteBack]);
        assert_eq!(sys.level_policies(), &[WritePolicy::ReadOnly, WritePolicy::WriteBack]);
        assert_eq!(sys.policy(), WritePolicy::ReadOnly, "the hot tier's policy is the headline");
        // A write owned by the hot tier (block 0 is prewarmed there)
        // bypasses; a write owned by the warm tier (block 600) is absorbed.
        sys.schedule_record(&record(0, 0, RequestKind::Write));
        sys.schedule_record(&record(1, 600 * 8, RequestKind::Write));
        sys.run_until(SimTime::from_millis(10));
        let report = sys.end_interval(0);
        assert_eq!(report.disk.completed, 1, "only the RO-owned write reaches the disk");
        assert_eq!(sys.cache().stats(0).write_bypasses, 1);
        assert_eq!(sys.cache().stats(1).write_hits, 1);
    }

    #[test]
    fn plain_tail_bypass_still_reaches_the_disk() {
        let mut sys = two_tier_system();
        for i in 0..100u64 {
            sys.schedule_record(&record(1, (i % 500) * 8, RequestKind::Write));
        }
        sys.run_until(SimTime::from_micros(1_000));
        let moved = sys.apply_bypass(&BypassDirective::TailWrites { max_requests: 40 });
        assert!(moved > 0);
        assert!(sys.disk().outstanding() > 0);
    }

    #[test]
    fn tier_loads_report_every_level() {
        let mut sys = two_tier_system();
        for i in 0..50u64 {
            sys.schedule_record(&record(1, (i % 500) * 8, RequestKind::Write));
        }
        sys.run_until(SimTime::from_micros(500));
        let mut loads = Vec::new();
        sys.tier_loads_into(&mut loads);
        assert_eq!(loads.len(), 2);
        assert!(loads[0].queue_depth > 0);
        assert!(loads[0].avg_latency > SimDuration::ZERO);
    }

    #[test]
    fn policy_switch_affects_the_whole_hierarchy() {
        let mut sys = two_tier_system();
        sys.set_policy(WritePolicy::ReadOnly);
        sys.schedule_record(&record(0, 600 * 8, RequestKind::Write));
        sys.run_until(SimTime::from_millis(10));
        let report = sys.end_interval(0);
        assert_eq!(report.disk.completed, 1, "RO bypasses the write to the disk");
        assert_eq!(sys.cache().resident_level(600), None, "the stale warm copy is gone");
    }

    /// A hierarchy with completions in service at every station.
    fn busy_system() -> TieredStorageSystem {
        let mut sys = two_tier_system();
        for i in 0..60u64 {
            // Hot-tier hits, warm-tier hits and full misses, interleaved.
            let block = match i % 3 {
                0 => i % 500,
                1 => 600 + i,
                _ => 1_000_000 + i,
            };
            sys.schedule_record(&record(i * 10, block * 8, RequestKind::Read));
        }
        sys.run_until(SimTime::from_micros(300));
        assert!((0..2).all(|l| sys.level(l).in_service() > 0) && sys.disk().in_service() > 0);
        sys
    }

    // The behaviours both flavors share (see `crate::system`'s tests).

    fn two_tier() -> SimulationConfig {
        SimulationConfig::tiny_two_tier()
    }

    #[test]
    fn run_until_resolves_only_the_arrivals_due_by_its_limit() {
        twins::run_until_resolves_only_the_arrivals_due_by_its_limit::<TieredCacheModule>(
            &two_tier(),
        );
    }

    #[test]
    fn a_bypass_between_two_calls_is_seen_by_the_next_calls_lookups() {
        twins::a_bypass_between_two_calls_is_seen_by_the_next_calls_lookups::<TieredCacheModule>(
            &two_tier(),
        );
    }

    #[test]
    fn the_staging_buffer_is_empty_between_calls_and_after_reset() {
        twins::the_staging_buffer_is_empty_between_calls_and_after_reset::<TieredCacheModule>(
            &two_tier(),
        );
    }

    #[test]
    fn mid_flight_snapshot_resumes_identically_to_the_unsplit_run() {
        twins::mid_flight_snapshot_resumes_identically::<TieredCacheModule>(&two_tier(), 1_500);
    }

    #[test]
    fn an_arrival_and_a_completion_at_the_same_us_fire_in_seq_order() {
        twins::an_arrival_and_a_completion_at_the_same_us_fire_in_seq_order::<TieredCacheModule>(
            &two_tier(),
        );
    }

    #[test]
    fn a_snapshot_with_completions_at_every_station_round_trips_byte_identically() {
        twins::a_busy_snapshot_round_trips_byte_identically(&two_tier(), busy_system());
    }

    #[test]
    fn a_snapshot_whose_in_service_count_disagrees_with_its_completions_is_corrupt() {
        twins::a_wrong_in_service_count_is_corrupt(&two_tier(), busy_system());
    }

    #[test]
    fn a_snapshot_with_misstamped_requests_is_corrupt() {
        twins::misstamped_requests_are_corrupt(&two_tier(), busy_system, 1);
    }

    #[test]
    fn a_checkpointed_live_id_past_the_next_id_is_corrupt() {
        twins::a_checkpointed_live_id_past_the_next_id_is_corrupt::<TieredCacheModule>(&two_tier());
    }

    #[test]
    fn a_restored_arrival_id_at_or_past_the_next_id_is_corrupt() {
        twins::a_restored_arrival_id_at_or_past_the_next_id_is_corrupt::<TieredCacheModule>(
            &two_tier(),
        );
    }

    #[test]
    fn conservation_all_scheduled_requests_eventually_complete() {
        twins::every_scheduled_request_completes::<TieredCacheModule>(&two_tier(), 3_000);
    }

    #[test]
    fn drain_completes_a_finite_backlog() {
        twins::drain_completes_a_finite_backlog::<TieredCacheModule>(&two_tier());
    }
}
