//! Load balancing: group → write-policy assignment and tail bypass
//! (paper Section III-C).

use serde::{Deserialize, Serialize};

use lbica_cache::WritePolicy;
use lbica_storage::time::SimDuration;

use crate::characterizer::WorkloadGroup;

/// The policy LBICA assigns to each workload group.
///
/// The defaults reproduce Section III-C:
///
/// * Group 1 (random read) → **WO**: hits are still served by the cache but
///   read misses are no longer promoted, removing the promotion writes that
///   make up half the cache load;
/// * Group 2 (mixed read/write) → **RO**: reads keep their priority on the
///   cache, writes are bypassed to the disk subsystem;
/// * Group 3 (write intensive) → **WB** plus tail bypass;
/// * Group 4 (sequential read) → **WB** (the cache is not the bottleneck
///   for a miss-everything sequential stream).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PolicyMap {
    /// Policy for Group 1 (random read).
    pub random_read: WritePolicy,
    /// Policy for Group 2 (mixed read/write).
    pub mixed_read_write: WritePolicy,
    /// Policy for Group 3 (write intensive, both variants).
    pub write_intensive: WritePolicy,
    /// Policy for Group 4 (sequential read).
    pub sequential_read: WritePolicy,
    /// Policy used outside burst intervals and for unclassifiable mixes.
    pub fallback: WritePolicy,
}

impl PolicyMap {
    /// The paper's assignment.
    pub const fn paper() -> Self {
        PolicyMap {
            random_read: WritePolicy::WriteOnly,
            mixed_read_write: WritePolicy::ReadOnly,
            write_intensive: WritePolicy::WriteBack,
            sequential_read: WritePolicy::WriteBack,
            fallback: WritePolicy::WriteBack,
        }
    }

    /// The policy for a detected group.
    pub fn policy_for(&self, group: WorkloadGroup) -> WritePolicy {
        match group {
            WorkloadGroup::RandomRead => self.random_read,
            WorkloadGroup::MixedReadWrite => self.mixed_read_write,
            WorkloadGroup::RandomWrite | WorkloadGroup::SequentialWrite => self.write_intensive,
            WorkloadGroup::SequentialRead => self.sequential_read,
            WorkloadGroup::Unknown => self.fallback,
        }
    }
}

impl Default for PolicyMap {
    fn default() -> Self {
        PolicyMap::paper()
    }
}

/// The action LBICA takes for the next interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BalancingAction {
    /// The write policy to assign to the cache.
    pub policy: WritePolicy,
    /// How many requests to bypass from the tail of the cache queue to the
    /// disk subsystem (only non-zero for Group 3 bursts).
    pub tail_bypass: usize,
}

/// Computes the per-interval [`BalancingAction`] from the detected workload
/// group and the observed queue state.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LoadBalancer {
    map: PolicyMap,
    /// Upper bound on the fraction of the cache queue that a single tail
    /// bypass may move (guards against emptying the queue on a transient
    /// spike).
    max_bypass_fraction: f64,
}

impl LoadBalancer {
    /// Creates a balancer with the paper's policy map.
    pub fn new() -> Self {
        LoadBalancer { map: PolicyMap::paper(), max_bypass_fraction: 0.5 }
    }

    /// Creates a balancer with a custom policy map (used by the ablation
    /// benches).
    pub fn with_policy_map(map: PolicyMap) -> Self {
        LoadBalancer { map, max_bypass_fraction: 0.5 }
    }

    /// The policy map in use.
    pub const fn policy_map(&self) -> &PolicyMap {
        &self.map
    }

    /// Decides the action for a burst interval.
    ///
    /// For write-intensive bursts the requests beyond the bottleneck
    /// threshold are bypassed: the cache queue is trimmed towards the depth
    /// at which its queue time matches the disk subsystem's, so the
    /// remaining requests still enjoy the cache's lower latency while the
    /// tail is served by the (less loaded) disk.
    pub fn action_for_burst(
        &self,
        group: WorkloadGroup,
        cache_queue_depth: usize,
        cache_avg_latency: SimDuration,
        disk_qtime: SimDuration,
    ) -> BalancingAction {
        let policy = self.map.policy_for(group);
        let tail_bypass = match group {
            WorkloadGroup::RandomWrite | WorkloadGroup::SequentialWrite => {
                self.tail_bypass_count(cache_queue_depth, cache_avg_latency, disk_qtime)
            }
            _ => 0,
        };
        BalancingAction { policy, tail_bypass }
    }

    /// The per-tier generalization of the group → policy map: the *hot*
    /// tier — the level whose queue the paper's detector watches and whose
    /// load the policy switch is meant to shed — gets the group's policy,
    /// while the lower levels keep whatever policy is currently in force
    /// (`current`, hot tier first, as reported by the controller context)
    /// so explicitly configured per-tier policies survive the override.
    /// Returns one policy per level, hot tier first.
    pub fn tier_policies_for_burst(
        &self,
        group: WorkloadGroup,
        current: &[WritePolicy],
    ) -> Vec<WritePolicy> {
        let mut policies = current.to_vec();
        if let Some(hot) = policies.first_mut() {
            *hot = self.map.policy_for(group);
        }
        policies
    }

    /// Number of tail *reads* whose reclassification would bring the cache
    /// queue time down to roughly the disk queue time — the same Eq. 1
    /// arithmetic as [`LoadBalancer::tail_bypass_count`], applied to the
    /// Group-2 read-burst action (tiered hierarchies only; reads never
    /// bypass to the disk).
    pub fn read_spill_count(
        &self,
        cache_queue_depth: usize,
        cache_avg_latency: SimDuration,
        disk_qtime: SimDuration,
    ) -> usize {
        self.tail_bypass_count(cache_queue_depth, cache_avg_latency, disk_qtime)
    }

    /// Number of tail requests whose bypass would bring the cache queue
    /// time down to (roughly) the disk queue time.
    pub fn tail_bypass_count(
        &self,
        cache_queue_depth: usize,
        cache_avg_latency: SimDuration,
        disk_qtime: SimDuration,
    ) -> usize {
        if cache_queue_depth == 0 || cache_avg_latency == SimDuration::ZERO {
            return 0;
        }
        let target_depth = (disk_qtime.as_micros() / cache_avg_latency.as_micros().max(1)) as usize;
        let excess = cache_queue_depth.saturating_sub(target_depth.max(1));
        let cap = (cache_queue_depth as f64 * self.max_bypass_fraction).floor() as usize;
        excess.min(cap)
    }
}

impl Default for LoadBalancer {
    fn default() -> Self {
        LoadBalancer::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_policy_map_matches_section_3c() {
        let map = PolicyMap::paper();
        assert_eq!(map.policy_for(WorkloadGroup::RandomRead), WritePolicy::WriteOnly);
        assert_eq!(map.policy_for(WorkloadGroup::MixedReadWrite), WritePolicy::ReadOnly);
        assert_eq!(map.policy_for(WorkloadGroup::RandomWrite), WritePolicy::WriteBack);
        assert_eq!(map.policy_for(WorkloadGroup::SequentialWrite), WritePolicy::WriteBack);
        assert_eq!(map.policy_for(WorkloadGroup::SequentialRead), WritePolicy::WriteBack);
        assert_eq!(map.policy_for(WorkloadGroup::Unknown), WritePolicy::WriteBack);
    }

    #[test]
    fn group1_and_group2_bursts_never_tail_bypass() {
        let lb = LoadBalancer::new();
        let ssd = SimDuration::from_micros(75);
        let disk_qtime = SimDuration::from_micros(385);
        let a1 = lb.action_for_burst(WorkloadGroup::RandomRead, 100, ssd, disk_qtime);
        assert_eq!(a1.policy, WritePolicy::WriteOnly);
        assert_eq!(a1.tail_bypass, 0);
        let a2 = lb.action_for_burst(WorkloadGroup::MixedReadWrite, 100, ssd, disk_qtime);
        assert_eq!(a2.policy, WritePolicy::ReadOnly);
        assert_eq!(a2.tail_bypass, 0);
    }

    #[test]
    fn group3_burst_trims_towards_disk_queue_time_with_a_cap() {
        let lb = LoadBalancer::new();
        let ssd = SimDuration::from_micros(75);
        // Disk qtime 750 µs -> target cache depth 10; with 100 queued, the
        // uncapped excess is 90 but the 50% cap limits the move to 50.
        let a = lb.action_for_burst(
            WorkloadGroup::RandomWrite,
            100,
            ssd,
            SimDuration::from_micros(750),
        );
        assert_eq!(a.policy, WritePolicy::WriteBack);
        assert_eq!(a.tail_bypass, 50);
        // With a shallower queue the excess itself is the bound.
        let b =
            lb.action_for_burst(WorkloadGroup::RandomWrite, 24, ssd, SimDuration::from_micros(750));
        assert_eq!(b.tail_bypass, 12);
    }

    #[test]
    fn tail_bypass_handles_degenerate_inputs() {
        let lb = LoadBalancer::new();
        assert_eq!(lb.tail_bypass_count(0, SimDuration::from_micros(75), SimDuration::ZERO), 0);
        assert_eq!(lb.tail_bypass_count(10, SimDuration::ZERO, SimDuration::ZERO), 0);
        // Disk already more loaded than the cache: nothing to move.
        assert_eq!(
            lb.tail_bypass_count(5, SimDuration::from_micros(75), SimDuration::from_micros(10_000)),
            0
        );
    }

    #[test]
    fn tier_policies_scope_the_group_policy_to_the_hot_tier() {
        let lb = LoadBalancer::new();
        let uniform = [WritePolicy::WriteBack; 3];
        assert_eq!(
            lb.tier_policies_for_burst(WorkloadGroup::RandomRead, &uniform),
            vec![WritePolicy::WriteOnly, WritePolicy::WriteBack, WritePolicy::WriteBack]
        );
        // Configured lower-level policies ride through the override.
        let split = [WritePolicy::WriteBack, WritePolicy::WriteThrough];
        assert_eq!(
            lb.tier_policies_for_burst(WorkloadGroup::MixedReadWrite, &split),
            vec![WritePolicy::ReadOnly, WritePolicy::WriteThrough]
        );
        assert!(lb.tier_policies_for_burst(WorkloadGroup::Unknown, &[]).is_empty());
    }

    #[test]
    fn read_spill_count_matches_the_write_tail_arithmetic() {
        let lb = LoadBalancer::new();
        let ssd = SimDuration::from_micros(75);
        let disk = SimDuration::from_micros(750);
        assert_eq!(lb.read_spill_count(100, ssd, disk), lb.tail_bypass_count(100, ssd, disk));
        assert_eq!(lb.read_spill_count(100, ssd, disk), 50);
    }

    #[test]
    fn custom_policy_map_is_honoured() {
        let mut map = PolicyMap::paper();
        map.random_read = WritePolicy::WriteBack; // ablation: disable WO
        let lb = LoadBalancer::with_policy_map(map);
        let a = lb.action_for_burst(
            WorkloadGroup::RandomRead,
            10,
            SimDuration::from_micros(75),
            SimDuration::ZERO,
        );
        assert_eq!(a.policy, WritePolicy::WriteBack);
        assert_eq!(lb.policy_map().random_read, WritePolicy::WriteBack);
    }
}
