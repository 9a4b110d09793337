//! The LBICA controller: detection → characterization → balancing, once per
//! monitoring interval (paper Fig. 2).

use serde::{Deserialize, Serialize};

use lbica_cache::WritePolicy;
use lbica_sim::{BypassDirective, CacheController, ControllerContext, ControllerDecision};

use crate::balancer::{LoadBalancer, PolicyMap};
use crate::characterizer::{RequestMix, WorkloadCharacterizer, WorkloadGroup};
use crate::detector::BottleneckDetector;
use crate::history::{DecisionLog, DecisionRecord};
use crate::tier::SpillPlanner;

/// Tunables of the [`LbicaController`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LbicaConfig {
    /// Bottleneck threshold ratio (1.0 = the paper's `cache_Qtime >
    /// disk_Qtime`).
    pub threshold_ratio: f64,
    /// Minimum cache queue depth before a burst can be declared.
    pub min_cache_queue: usize,
    /// Group → policy assignment.
    pub policy_map: PolicyMap,
    /// Number of consecutive calm intervals required before the policy
    /// reverts to the fallback (hysteresis so a single quiet interval in the
    /// middle of a burst does not flap the policy).
    pub calm_intervals_to_revert: u32,
    /// Tiered hierarchies only: scope the burst group's policy to the hot
    /// tier (lower levels keep their current, possibly explicitly
    /// configured, policies) instead of switching the whole stack. Off in
    /// [`LbicaConfig::paper`] — the paper has a single cache to retune —
    /// so every pre-existing run is bit-identical; on in
    /// [`LbicaConfig::tiered`].
    pub tier_scoped_policies: bool,
    /// Tiered hierarchies only: reclassify the read tail of Group-2
    /// (mixed read/write) bursts to the first non-saturated lower level —
    /// the tiered analogue of the paper's Group-2 action, which only
    /// retunes the policy because a flat cache has nowhere to put reads.
    /// Off in [`LbicaConfig::paper`]; on in [`LbicaConfig::tiered`].
    pub spill_tail_reads: bool,
}

impl LbicaConfig {
    /// The configuration used throughout the paper reproduction.
    pub fn paper() -> Self {
        LbicaConfig {
            threshold_ratio: 1.0,
            min_cache_queue: 4,
            policy_map: PolicyMap::paper(),
            calm_intervals_to_revert: 2,
            tier_scoped_policies: false,
            spill_tail_reads: false,
        }
    }

    /// The paper configuration with the tier-aware actions enabled:
    /// per-tier policy overrides and Group-2 read-tail spilling. On a flat
    /// system this behaves exactly like [`LbicaConfig::paper`] (both knobs
    /// only act when the controller sees two or more tier loads).
    pub fn tiered() -> Self {
        LbicaConfig { tier_scoped_policies: true, spill_tail_reads: true, ..LbicaConfig::paper() }
    }
}

impl Default for LbicaConfig {
    fn default() -> Self {
        LbicaConfig::paper()
    }
}

/// The paper's contribution: an adaptive write-policy load balancer for the
/// I/O cache.
///
/// Per interval it (1) checks Eq. 1 to decide whether the cache is the
/// bottleneck, (2) characterizes the workload from the R/W/P/E mix observed
/// in the cache queue, and (3) assigns the group's write policy, bypassing
/// the queue tail for write-intensive bursts. Outside bursts the policy
/// reverts (with hysteresis) to write-back, matching Fig. 6 where the WB
/// label returns between bursts.
///
/// ```
/// use lbica_core::LbicaController;
/// use lbica_sim::CacheController;
///
/// let controller = LbicaController::new();
/// assert_eq!(controller.name(), "LBICA");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LbicaController {
    name: &'static str,
    config: LbicaConfig,
    detector: BottleneckDetector,
    characterizer: WorkloadCharacterizer,
    balancer: LoadBalancer,
    spill_planner: SpillPlanner,
    calm_streak: u32,
    last_group: Option<WorkloadGroup>,
    bursts_detected: u64,
    spill_decisions: u64,
    read_spill_decisions: u64,
    log: DecisionLog,
}

impl LbicaController {
    /// Creates a controller with the paper's configuration.
    pub fn new() -> Self {
        LbicaController::with_config(LbicaConfig::paper())
    }

    /// Creates a controller with the tier-aware configuration
    /// ([`LbicaConfig::tiered`]), reported under the `LBICA-T` name so
    /// sweeps aggregate it separately from the paper's scheme.
    pub fn tier_aware() -> Self {
        LbicaController { name: "LBICA-T", ..LbicaController::with_config(LbicaConfig::tiered()) }
    }

    /// Creates a controller with an explicit configuration.
    pub fn with_config(config: LbicaConfig) -> Self {
        LbicaController {
            name: "LBICA",
            detector: BottleneckDetector::with_threshold_ratio(config.threshold_ratio)
                .with_min_cache_queue(config.min_cache_queue),
            characterizer: WorkloadCharacterizer::new(),
            balancer: LoadBalancer::with_policy_map(config.policy_map),
            spill_planner: SpillPlanner::with_threshold_ratio(config.threshold_ratio),
            config,
            calm_streak: 0,
            last_group: None,
            bursts_detected: 0,
            spill_decisions: 0,
            read_spill_decisions: 0,
            log: DecisionLog::new(),
        }
    }

    /// The configuration in use.
    pub const fn config(&self) -> &LbicaConfig {
        &self.config
    }

    /// The workload group detected at the most recent burst interval.
    pub const fn last_group(&self) -> Option<WorkloadGroup> {
        self.last_group
    }

    /// How many intervals have been flagged as bursts so far.
    pub const fn bursts_detected(&self) -> u64 {
        self.bursts_detected
    }

    /// How many burst decisions routed the write tail to a lower cache
    /// level instead of the disk (tiered hierarchies only).
    pub const fn spill_decisions(&self) -> u64 {
        self.spill_decisions
    }

    /// How many burst decisions reclassified the *read* tail to a lower
    /// cache level (tiered hierarchies with
    /// [`LbicaConfig::spill_tail_reads`] only).
    pub const fn read_spill_decisions(&self) -> u64 {
        self.read_spill_decisions
    }

    /// The per-interval decision log (the controller's own Fig. 6 view).
    pub const fn decision_log(&self) -> &DecisionLog {
        &self.log
    }
}

impl Default for LbicaController {
    fn default() -> Self {
        LbicaController::new()
    }
}

impl CacheController for LbicaController {
    fn name(&self) -> &str {
        self.name
    }

    fn initial_policy(&self) -> WritePolicy {
        // The paper starts every experiment with a write-back cache.
        self.config.policy_map.fallback
    }

    fn on_interval(&mut self, ctx: &ControllerContext<'_>) -> ControllerDecision {
        // Step 1 — bottleneck detection (Eq. 1).
        let verdict = self.detector.evaluate(
            ctx.cache_queue_depth,
            ctx.cache_avg_latency,
            ctx.disk_queue_depth,
            ctx.disk_avg_latency,
        );

        if !verdict.cache_is_bottleneck {
            // Calm interval: after enough consecutive calm intervals revert
            // to the fallback policy; otherwise hold the current one.
            self.calm_streak += 1;
            let policy = if self.calm_streak >= self.config.calm_intervals_to_revert {
                self.config.policy_map.fallback
            } else {
                ctx.current_policy
            };
            self.log.push(DecisionRecord {
                interval: ctx.interval_index,
                burst: false,
                cache_qtime: verdict.cache_qtime,
                disk_qtime: verdict.disk_qtime,
                group: None,
                policy,
                tail_bypass: 0,
            });
            return ControllerDecision {
                policy,
                tier_policies: Vec::new(),
                bypass: BypassDirective::None,
                burst_detected: false,
            };
        }

        // Step 2 — workload characterization from the in-queue class mix.
        self.calm_streak = 0;
        self.bursts_detected += 1;
        let mix = RequestMix::from_snapshot(&ctx.cache_queue_mix);
        let group = self.characterizer.classify(&mix);
        self.last_group = Some(group);

        // Step 3 — load balancing: assign the group's policy and, for
        // write-intensive bursts, bypass the queue tail.
        let action = self.balancer.action_for_burst(
            group,
            ctx.cache_queue_depth,
            ctx.cache_avg_latency,
            verdict.disk_qtime,
        );
        let tiered = ctx.tier_loads.len() >= 2;
        let bypass = if action.tail_bypass > 0 {
            // Tier-aware spill chain: with two or more cache levels the
            // reclassified write tail spills to the first non-saturated
            // level before bypassing all the way to the disk subsystem.
            if tiered {
                let directive = self.spill_planner.write_directive(
                    action.tail_bypass,
                    ctx.tier_loads,
                    ctx.disk_queue_depth,
                    ctx.disk_avg_latency,
                );
                if matches!(directive, BypassDirective::SpillTailWrites { .. }) {
                    self.spill_decisions += 1;
                }
                directive
            } else {
                BypassDirective::TailWrites { max_requests: action.tail_bypass }
            }
        } else if self.config.spill_tail_reads && tiered && group == WorkloadGroup::MixedReadWrite {
            // The Group-2 read-burst analogue: the paper's only lever for
            // a read-heavy burst is the RO policy switch, because a flat
            // cache has nowhere else to put reads. A hierarchy does — the
            // read tail reclassifies down the spill chain (and is left
            // alone when the chain is saturated).
            let read_tail = self.balancer.read_spill_count(
                ctx.cache_queue_depth,
                ctx.cache_avg_latency,
                verdict.disk_qtime,
            );
            let directive = self.spill_planner.read_directive(
                read_tail,
                ctx.tier_loads,
                ctx.disk_queue_depth,
                ctx.disk_avg_latency,
            );
            if matches!(directive, BypassDirective::SpillTailReads { .. }) {
                self.read_spill_decisions += 1;
            }
            directive
        } else {
            BypassDirective::None
        };
        // Per-tier policy overrides: scope the group's policy to the hot
        // tier so the lower levels keep absorbing demotions and spills
        // under their current (possibly explicitly configured) policies.
        let tier_policies = if self.config.tier_scoped_policies && tiered {
            self.balancer.tier_policies_for_burst(group, ctx.tier_policies)
        } else {
            Vec::new()
        };
        self.log.push(DecisionRecord {
            interval: ctx.interval_index,
            burst: true,
            cache_qtime: verdict.cache_qtime,
            disk_qtime: verdict.disk_qtime,
            group: Some(group),
            policy: action.policy,
            tail_bypass: action.tail_bypass,
        });
        ControllerDecision { policy: action.policy, tier_policies, bypass, burst_detected: true }
    }

    fn save_state(&self, w: &mut lbica_storage::snap::SnapWriter) {
        w.put_u32(self.calm_streak);
        match self.last_group {
            None => w.put_u8(0),
            Some(group) => {
                w.put_u8(1);
                w.put_u8(group_tag(group));
            }
        }
        w.put_u64(self.bursts_detected);
        w.put_u64(self.spill_decisions);
        w.put_u64(self.read_spill_decisions);
        // The DecisionLog is deliberately skipped: it is purely diagnostic
        // (exported to observers, never read by on_interval), and resumed
        // runs do not support observers. The detector, characterizer,
        // balancer and spill planner are stateless between intervals.
    }

    fn restore_state(
        &mut self,
        r: &mut lbica_storage::snap::SnapReader<'_>,
    ) -> Result<(), lbica_storage::snap::SnapError> {
        self.calm_streak = r.get_u32()?;
        self.last_group = match r.get_u8()? {
            0 => None,
            1 => Some(group_from_tag(r.get_u8()?)?),
            _ => return Err(lbica_storage::snap::SnapError::Corrupt("workload group option tag")),
        };
        self.bursts_detected = r.get_u64()?;
        self.spill_decisions = r.get_u64()?;
        self.read_spill_decisions = r.get_u64()?;
        Ok(())
    }

    fn export_obs(&self, obs: &mut lbica_obs::SimObserver, interval_us: u64) {
        let reg = obs.metrics_mut();
        let bursts = reg
            .counter("lbica_ctrl_bursts_total", "intervals the Eq. 1 detector flagged as bursts");
        reg.add(bursts, self.bursts_detected);
        let spills = reg.counter(
            "lbica_ctrl_spill_decisions_total",
            "burst decisions that spilled the write tail to a lower tier",
        );
        reg.add(spills, self.spill_decisions);
        let read_spills = reg.counter(
            "lbica_ctrl_read_spill_decisions_total",
            "burst decisions that spilled the read tail to a lower tier",
        );
        reg.add(read_spills, self.read_spill_decisions);
        let tail = reg.counter(
            "lbica_ctrl_tail_bypass_total",
            "requests the load balancer asked to reclassify away from the cache queue",
        );
        let requested: u64 = self.log.records().iter().map(|r| r.tail_bypass as u64).sum();
        reg.add(tail, requested);

        // Replay the decision log into the trace ring: one event per
        // interval with the Eq. 1 queueing times and detected group.
        for r in self.log.records() {
            let ts_us = (r.interval as u64 + 1) * interval_us;
            let group = r.group.map(|g| g.to_string()).unwrap_or_default();
            obs.controller_decision(
                ts_us,
                r.interval,
                r.cache_qtime.as_micros(),
                r.disk_qtime.as_micros(),
                r.burst,
                &group,
            );
        }
    }
}

/// Stable checkpoint tag of a [`WorkloadGroup`].
fn group_tag(group: WorkloadGroup) -> u8 {
    match group {
        WorkloadGroup::RandomRead => 0,
        WorkloadGroup::MixedReadWrite => 1,
        WorkloadGroup::RandomWrite => 2,
        WorkloadGroup::SequentialWrite => 3,
        WorkloadGroup::SequentialRead => 4,
        WorkloadGroup::Unknown => 5,
    }
}

/// Inverse of [`group_tag`].
fn group_from_tag(tag: u8) -> Result<WorkloadGroup, lbica_storage::snap::SnapError> {
    Ok(match tag {
        0 => WorkloadGroup::RandomRead,
        1 => WorkloadGroup::MixedReadWrite,
        2 => WorkloadGroup::RandomWrite,
        3 => WorkloadGroup::SequentialWrite,
        4 => WorkloadGroup::SequentialRead,
        5 => WorkloadGroup::Unknown,
        _ => return Err(lbica_storage::snap::SnapError::Corrupt("workload group tag")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbica_storage::queue::{DeviceQueue, QueueSnapshot};
    use lbica_storage::time::{SimDuration, SimTime};

    #[test]
    fn export_obs_publishes_decision_log_and_counters() {
        let mut ctrl = LbicaController::new();
        let queue = DeviceQueue::new("ssd");
        // A saturated cache queue with a write-heavy mix triggers a burst.
        let mix = QueueSnapshot { writes: 90, reads: 10, ..QueueSnapshot::default() };
        let context = ctx(&queue, 200, 1, mix, WritePolicy::WriteBack);
        let decision = ctrl.on_interval(&context);
        assert!(decision.burst_detected, "test premise: interval must be a burst");

        let mut obs = lbica_obs::SimObserver::new();
        ctrl.export_obs(&mut obs, 1_000_000);
        let snap = obs.snapshot();
        let bursts =
            snap.counters.iter().find(|c| c.name == "lbica_ctrl_bursts_total").expect("counter");
        assert_eq!(bursts.value, 1);
        // The decision landed in the ring with its Eq. 1 inputs.
        assert_eq!(obs.ring().len(), 1);
        let trace = obs.render_chrome_trace("test");
        assert!(trace.contains("\"name\": \"decision\""));
        assert!(trace.contains("cache_qtime_us"));
    }

    fn ctx<'a>(
        queue: &'a DeviceQueue,
        cache_depth: usize,
        disk_depth: usize,
        mix: QueueSnapshot,
        current: WritePolicy,
    ) -> ControllerContext<'a> {
        ControllerContext {
            interval_index: 0,
            now: SimTime::ZERO,
            cache_queue_depth: cache_depth,
            disk_queue_depth: disk_depth,
            cache_avg_latency: SimDuration::from_micros(75),
            disk_avg_latency: SimDuration::from_micros(385),
            cache_queue_mix: mix,
            current_policy: current,
            cache_queue: queue,
            tier_loads: &[],
            tier_policies: &[],
        }
    }

    #[test]
    fn random_read_burst_gets_write_only_policy() {
        let queue = DeviceQueue::new("ssd");
        let mut lbica = LbicaController::new();
        // Fig. 6a's mix: R 44, W 2, P 51, E 3 with a deep cache queue.
        let mix = QueueSnapshot { reads: 440, writes: 22, promotes: 510, evicts: 28 };
        let d = lbica.on_interval(&ctx(&queue, 60, 1, mix, WritePolicy::WriteBack));
        assert!(d.burst_detected);
        assert_eq!(d.policy, WritePolicy::WriteOnly);
        assert_eq!(d.bypass, BypassDirective::None);
        assert_eq!(lbica.last_group(), Some(WorkloadGroup::RandomRead));
        assert_eq!(lbica.bursts_detected(), 1);
    }

    #[test]
    fn mixed_read_write_burst_gets_read_only_policy() {
        let queue = DeviceQueue::new("ssd");
        let mut lbica = LbicaController::new();
        let mix = QueueSnapshot { reads: 139, writes: 704, promotes: 39, evicts: 118 };
        let d = lbica.on_interval(&ctx(&queue, 80, 2, mix, WritePolicy::WriteBack));
        assert_eq!(d.policy, WritePolicy::ReadOnly);
        assert!(d.burst_detected);
    }

    #[test]
    fn write_intensive_burst_keeps_wb_and_bypasses_the_tail() {
        let queue = DeviceQueue::new("ssd");
        let mut lbica = LbicaController::new();
        let mix = QueueSnapshot { reads: 20, writes: 650, promotes: 30, evicts: 300 };
        let d = lbica.on_interval(&ctx(&queue, 100, 1, mix, WritePolicy::WriteBack));
        assert_eq!(d.policy, WritePolicy::WriteBack);
        assert!(
            matches!(d.bypass, BypassDirective::TailWrites { max_requests } if max_requests > 0)
        );
    }

    #[test]
    fn write_burst_with_an_idle_warm_tier_spills_instead_of_bypassing() {
        use lbica_sim::TierLoad;
        let queue = DeviceQueue::new("ssd");
        let mut lbica = LbicaController::new();
        let mix = QueueSnapshot { reads: 20, writes: 650, promotes: 30, evicts: 300 };
        let tier_loads = [
            TierLoad { queue_depth: 100, avg_latency: SimDuration::from_micros(75) },
            TierLoad { queue_depth: 1, avg_latency: SimDuration::from_micros(150) },
        ];
        let mut ctx = ctx(&queue, 100, 1, mix, WritePolicy::WriteBack);
        ctx.tier_loads = &tier_loads;
        ctx.tier_policies = &[WritePolicy::WriteBack, WritePolicy::WriteBack];
        let d = lbica.on_interval(&ctx);
        assert!(d.burst_detected);
        assert!(
            matches!(
                d.bypass,
                BypassDirective::SpillTailWrites { max_requests, target_level: 1 }
                    if max_requests > 0
            ),
            "an idle warm tier must absorb the tail: {:?}",
            d.bypass
        );
        assert_eq!(lbica.spill_decisions(), 1);
    }

    #[test]
    fn write_burst_with_a_saturated_chain_bypasses_to_disk() {
        use lbica_sim::TierLoad;
        let queue = DeviceQueue::new("ssd");
        let mut lbica = LbicaController::new();
        let mix = QueueSnapshot { reads: 20, writes: 650, promotes: 30, evicts: 300 };
        let tier_loads = [
            TierLoad { queue_depth: 100, avg_latency: SimDuration::from_micros(75) },
            TierLoad { queue_depth: 90, avg_latency: SimDuration::from_micros(150) },
        ];
        let mut ctx = ctx(&queue, 100, 1, mix, WritePolicy::WriteBack);
        ctx.tier_loads = &tier_loads;
        ctx.tier_policies = &[WritePolicy::WriteBack, WritePolicy::WriteBack];
        let d = lbica.on_interval(&ctx);
        assert!(
            matches!(d.bypass, BypassDirective::TailWrites { max_requests } if max_requests > 0),
            "a saturated chain falls back to the paper's disk bypass: {:?}",
            d.bypass
        );
        assert_eq!(lbica.spill_decisions(), 0);
    }

    #[test]
    fn tier_aware_mixed_burst_spills_the_read_tail() {
        use lbica_sim::TierLoad;
        let queue = DeviceQueue::new("ssd");
        let mut lbica = LbicaController::tier_aware();
        // A Group-2 mix over a deep hot queue with an idle warm tier.
        let mix = QueueSnapshot { reads: 139, writes: 704, promotes: 39, evicts: 118 };
        let tier_loads = [
            TierLoad { queue_depth: 100, avg_latency: SimDuration::from_micros(75) },
            TierLoad { queue_depth: 1, avg_latency: SimDuration::from_micros(150) },
        ];
        let mut ctx = ctx(&queue, 100, 1, mix, WritePolicy::WriteBack);
        ctx.tier_loads = &tier_loads;
        ctx.tier_policies = &[WritePolicy::WriteBack, WritePolicy::WriteBack];
        ctx.disk_avg_latency = SimDuration::from_micros(750);
        let d = lbica.on_interval(&ctx);
        assert!(d.burst_detected);
        assert_eq!(d.policy, WritePolicy::ReadOnly);
        assert!(
            matches!(
                d.bypass,
                BypassDirective::SpillTailReads { max_requests, target_level: 1 }
                    if max_requests > 0
            ),
            "a Group-2 burst over an idle warm tier must spill reads: {:?}",
            d.bypass
        );
        assert_eq!(lbica.read_spill_decisions(), 1);
        // The policy override is scoped to the hot tier.
        assert_eq!(d.tier_policies, vec![WritePolicy::ReadOnly, WritePolicy::WriteBack]);
    }

    #[test]
    fn tier_aware_read_spill_respects_a_saturated_chain() {
        use lbica_sim::TierLoad;
        let queue = DeviceQueue::new("ssd");
        let mut lbica = LbicaController::tier_aware();
        let mix = QueueSnapshot { reads: 139, writes: 704, promotes: 39, evicts: 118 };
        let tier_loads = [
            TierLoad { queue_depth: 100, avg_latency: SimDuration::from_micros(75) },
            TierLoad { queue_depth: 90, avg_latency: SimDuration::from_micros(150) },
        ];
        let mut ctx = ctx(&queue, 100, 1, mix, WritePolicy::WriteBack);
        ctx.tier_loads = &tier_loads;
        ctx.tier_policies = &[WritePolicy::WriteBack, WritePolicy::WriteBack];
        let d = lbica.on_interval(&ctx);
        assert!(d.burst_detected);
        assert_eq!(
            d.bypass,
            BypassDirective::None,
            "reads are left alone when the whole chain is saturated"
        );
        assert_eq!(lbica.read_spill_decisions(), 0);
    }

    #[test]
    fn paper_config_never_emits_read_spills_or_tier_policies() {
        use lbica_sim::TierLoad;
        let queue = DeviceQueue::new("ssd");
        let mut lbica = LbicaController::new();
        let mix = QueueSnapshot { reads: 139, writes: 704, promotes: 39, evicts: 118 };
        let tier_loads = [
            TierLoad { queue_depth: 100, avg_latency: SimDuration::from_micros(75) },
            TierLoad { queue_depth: 1, avg_latency: SimDuration::from_micros(150) },
        ];
        let mut ctx = ctx(&queue, 100, 1, mix, WritePolicy::WriteBack);
        ctx.tier_loads = &tier_loads;
        ctx.tier_policies = &[WritePolicy::WriteBack, WritePolicy::WriteBack];
        let d = lbica.on_interval(&ctx);
        assert!(d.burst_detected);
        assert_eq!(d.bypass, BypassDirective::None, "pre-PR behaviour is preserved");
        assert!(d.tier_policies.is_empty());
        assert_eq!(lbica.name(), "LBICA");
        assert_eq!(LbicaController::tier_aware().name(), "LBICA-T");
    }

    #[test]
    fn saved_state_reproduces_the_calm_streak_hysteresis() {
        let queue = DeviceQueue::new("ssd");
        let burst_mix = QueueSnapshot { reads: 440, writes: 22, promotes: 510, evicts: 28 };
        let calm_mix = QueueSnapshot { reads: 5, writes: 5, promotes: 0, evicts: 0 };
        let mut original = LbicaController::new();
        original.on_interval(&ctx(&queue, 60, 1, burst_mix, WritePolicy::WriteBack));
        // One calm interval: streak = 1, policy held at WO.
        let held = original.on_interval(&ctx(&queue, 2, 10, calm_mix, WritePolicy::WriteOnly));
        assert_eq!(held.policy, WritePolicy::WriteOnly);

        let mut w = lbica_storage::snap::SnapWriter::new();
        original.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut resumed = LbicaController::new();
        let mut r = lbica_storage::snap::SnapReader::new(&bytes);
        resumed.restore_state(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(resumed.last_group(), original.last_group());
        assert_eq!(resumed.bursts_detected(), original.bursts_detected());

        // The *second* calm interval reverts to WB — a fresh controller
        // (streak 0) would have held WO, so this pins the restored streak.
        let a = original.on_interval(&ctx(&queue, 2, 10, calm_mix, WritePolicy::WriteOnly));
        let b = resumed.on_interval(&ctx(&queue, 2, 10, calm_mix, WritePolicy::WriteOnly));
        assert_eq!(a, b);
        assert_eq!(b.policy, WritePolicy::WriteBack);
    }

    #[test]
    fn no_bottleneck_means_no_burst_and_eventual_revert() {
        let queue = DeviceQueue::new("ssd");
        let mut lbica = LbicaController::new();
        let mix = QueueSnapshot { reads: 10, writes: 10, promotes: 0, evicts: 0 };
        // Cache queue shallower than the disk queue: not a bottleneck.
        let d1 = lbica.on_interval(&ctx(&queue, 2, 10, mix, WritePolicy::WriteOnly));
        assert!(!d1.burst_detected);
        // First calm interval holds the current (WO) policy...
        assert_eq!(d1.policy, WritePolicy::WriteOnly);
        // ...the second reverts to WB.
        let d2 = lbica.on_interval(&ctx(&queue, 2, 10, mix, WritePolicy::WriteOnly));
        assert_eq!(d2.policy, WritePolicy::WriteBack);
    }

    #[test]
    fn unknown_mix_in_a_burst_falls_back_to_wb() {
        let queue = DeviceQueue::new("ssd");
        let mut lbica = LbicaController::new();
        let mix = QueueSnapshot { reads: 25, writes: 25, promotes: 25, evicts: 25 };
        let d = lbica.on_interval(&ctx(&queue, 60, 1, mix, WritePolicy::WriteBack));
        assert!(d.burst_detected);
        assert_eq!(d.policy, WritePolicy::WriteBack);
        assert_eq!(lbica.last_group(), Some(WorkloadGroup::Unknown));
    }

    #[test]
    fn shallow_cache_queue_never_triggers_a_burst() {
        let queue = DeviceQueue::new("ssd");
        let mut lbica = LbicaController::new();
        let mix = QueueSnapshot { reads: 2, writes: 0, promotes: 1, evicts: 0 };
        let d = lbica.on_interval(&ctx(&queue, 2, 0, mix, WritePolicy::WriteBack));
        assert!(!d.burst_detected, "min_cache_queue suppresses idle-system detections");
    }

    #[test]
    fn initial_policy_is_write_back() {
        let lbica = LbicaController::new();
        assert_eq!(lbica.initial_policy(), WritePolicy::WriteBack);
        assert_eq!(lbica.config().threshold_ratio, 1.0);
    }

    #[test]
    fn decision_log_records_every_interval() {
        let queue = DeviceQueue::new("ssd");
        let mut lbica = LbicaController::new();
        let burst_mix = QueueSnapshot { reads: 440, writes: 22, promotes: 510, evicts: 28 };
        let calm_mix = QueueSnapshot { reads: 5, writes: 5, promotes: 0, evicts: 0 };
        lbica.on_interval(&ctx(&queue, 60, 1, burst_mix, WritePolicy::WriteBack));
        lbica.on_interval(&ctx(&queue, 1, 10, calm_mix, WritePolicy::WriteOnly));
        let log = lbica.decision_log();
        assert_eq!(log.len(), 2);
        assert!(log.records()[0].burst);
        assert!(!log.records()[1].burst);
        assert_eq!(log.records()[0].group, Some(WorkloadGroup::RandomRead));
    }
}
