//! Simulation output.

use serde::{Deserialize, Serialize};

use lbica_cache::CacheStats;
use lbica_trace::monitor::IntervalReport;

/// A recorded write-policy change (interval index at which the new policy
/// took effect, and its label) — the annotations of Fig. 6.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PolicyChange {
    /// First interval governed by the new policy.
    pub interval: u32,
    /// The policy's label (WB / WT / RO / WO).
    pub policy: String,
}

impl PolicyChange {
    /// Serializes the change for a replay checkpoint.
    pub fn snap_to(&self, w: &mut lbica_storage::snap::SnapWriter) {
        w.put_u32(self.interval);
        w.put_str(&self.policy);
    }

    /// Restores a change serialized by [`PolicyChange::snap_to`].
    pub fn snap_from(
        r: &mut lbica_storage::snap::SnapReader<'_>,
    ) -> Result<Self, lbica_storage::snap::SnapError> {
        Ok(PolicyChange { interval: r.get_u32()?, policy: r.get_str()? })
    }
}

/// Deterministic simulator-performance counters gathered during a run —
/// the denominator data for events-per-second throughput benchmarks.
/// Everything here depends only on the workload/config/seed (never on
/// wall-clock), so reports stay comparable across serial and parallel
/// execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct SimPerf {
    /// Discrete events processed by the event loop (arrivals + completions).
    pub events_processed: u64,
    /// Largest number of simultaneously pending events.
    pub peak_event_queue_depth: usize,
}

/// Cumulative statistics of one cache level of a tiered run — hit, data
/// movement (promotion / demotion / spill) and queue figures per tier.
/// Flat (single-SSD) runs carry no rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct TierLevelStats {
    /// Level index, 0 = hot tier.
    pub level: usize,
    /// Application reads + writes that hit at this level.
    pub hits: u64,
    /// Blocks promoted into this level on lower-level hits.
    pub promotions_in: u64,
    /// Blocks demoted into this level by evictions above it.
    pub demotions_in: u64,
    /// Application writes the load balancer spilled into this level.
    pub spills_in: u64,
    /// Application reads the load balancer spilled into this level (the
    /// Group-2 read-burst action).
    pub read_spills_in: u64,
    /// Copies this level dropped to keep an inclusive hierarchy coherent
    /// when the backing copy below was evicted.
    pub back_invalidations: u64,
    /// Requests enqueued at this level's station.
    pub enqueued: u64,
    /// Requests completed at this level's station.
    pub completed: u64,
    /// Largest queue depth the level's station ever reached.
    pub peak_queue_depth: usize,
    /// Mean end-to-end latency of requests completed at this level, µs.
    pub avg_latency_us: u64,
    /// Maximum end-to-end latency of requests completed at this level, µs.
    pub max_latency_us: u64,
    /// Blocks resident at this level at the end of the run.
    pub cached_blocks: usize,
    /// Dirty blocks resident at this level at the end of the run.
    pub dirty_blocks: usize,
}

/// Everything measured during one simulation run: the per-interval series
/// of Figures 4–6 plus the aggregate latency of Fig. 7.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimulationReport {
    /// Workload name (tpcc / mail-server / web-server / custom).
    pub workload: String,
    /// Controller name (WB / SIB / LBICA / ...).
    pub controller: String,
    /// Number of monitoring intervals the workload defines.
    pub total_intervals: u32,
    /// Per-interval measurements, in interval order.
    pub intervals: Vec<IntervalReport>,
    /// Write-policy changes applied by the controller.
    pub policy_changes: Vec<PolicyChange>,
    /// Number of application requests that completed.
    pub app_completed: u64,
    /// Application requests still outstanding when the run ended: 0 when
    /// the end-of-run drain emptied the system, positive when the drain hit
    /// its cap or was disabled. Every generated request is counted in
    /// exactly one of `app_completed` and `unfinished_requests`.
    pub unfinished_requests: u64,
    /// Mean end-to-end application latency, µs (Fig. 7's y-axis).
    pub app_avg_latency_us: u64,
    /// Maximum end-to-end application latency, µs.
    pub app_max_latency_us: u64,
    /// Median end-to-end application latency, µs (log-bucketed).
    pub app_p50_latency_us: u64,
    /// 95th-percentile end-to-end application latency, µs (log-bucketed).
    pub app_p95_latency_us: u64,
    /// 99th-percentile end-to-end application latency, µs (log-bucketed).
    pub app_p99_latency_us: u64,
    /// Requests the controller bypassed from the cache queue to the disk.
    pub bypassed_requests: u64,
    /// Final cache statistics.
    pub cache_stats: CacheStats,
    /// Simulator-performance counters (event counts, peak queue depth).
    pub perf: SimPerf,
    /// Per-cache-level statistics of a tiered run (hot tier first); empty
    /// for flat single-SSD runs.
    pub tier_stats: Vec<TierLevelStats>,
}

impl SimulationReport {
    /// Mean of the per-interval *maximum* cache latency — the average height
    /// of the Fig. 4 curve, used as the paper's "I/O load on the cache"
    /// metric.
    pub fn avg_cache_load_us(&self) -> f64 {
        mean(self.intervals.iter().map(|i| i.cache.max_latency_us))
    }

    /// Mean of the per-interval maximum disk-subsystem latency (Fig. 5).
    pub fn avg_disk_load_us(&self) -> f64 {
        mean(self.intervals.iter().map(|i| i.disk.max_latency_us))
    }

    /// Mean of the per-interval cache queue depth.
    pub fn avg_cache_queue_depth(&self) -> f64 {
        mean(self.intervals.iter().map(|i| i.cache.queue_depth as u64))
    }

    /// Mean cache load restricted to the intervals the controller flagged as
    /// bursts (or all intervals when none were flagged).
    pub fn avg_cache_load_in_bursts_us(&self) -> f64 {
        let burst: Vec<u64> = self
            .intervals
            .iter()
            .filter(|i| i.burst_detected)
            .map(|i| i.cache.max_latency_us)
            .collect();
        if burst.is_empty() {
            self.avg_cache_load_us()
        } else {
            mean(burst.into_iter())
        }
    }

    /// Number of intervals the controller flagged as bursts.
    pub fn burst_intervals(&self) -> usize {
        self.intervals.iter().filter(|i| i.burst_detected).count()
    }

    /// The per-interval cache max-latency series (the Fig. 4 curve).
    pub fn cache_load_series(&self) -> Vec<u64> {
        self.intervals.iter().map(|i| i.cache.max_latency_us).collect()
    }

    /// The per-interval disk max-latency series (the Fig. 5 curve).
    pub fn disk_load_series(&self) -> Vec<u64> {
        self.intervals.iter().map(|i| i.disk.max_latency_us).collect()
    }

    /// The policy label in force at every interval (the Fig. 6 annotation).
    pub fn policy_series(&self) -> Vec<&str> {
        self.intervals.iter().map(|i| i.policy_label.as_str()).collect()
    }

    /// Number of cache levels the run simulated (1 for the flat cache).
    pub fn tier_count(&self) -> usize {
        self.tier_stats.len().max(1)
    }

    /// The per-level statistics row for cache level `level`, if the run
    /// was tiered.
    pub fn tier(&self, level: usize) -> Option<&TierLevelStats> {
        self.tier_stats.iter().find(|t| t.level == level)
    }

    /// Total write requests the balancer spilled into lower cache levels
    /// (zero for flat runs, where every bypass goes to the disk).
    pub fn spilled_requests(&self) -> u64 {
        self.tier_stats.iter().map(|t| t.spills_in).sum()
    }

    /// Total read requests the balancer spilled into lower cache levels
    /// (the Group-2 read-burst action; zero for flat runs).
    pub fn spilled_reads(&self) -> u64 {
        self.tier_stats.iter().map(|t| t.read_spills_in).sum()
    }

    /// Total upper-level copies dropped by inclusive back-invalidation
    /// (zero for exclusive hierarchies and flat runs).
    pub fn back_invalidations(&self) -> u64 {
        self.tier_stats.iter().map(|t| t.back_invalidations).sum()
    }
}

fn mean(values: impl Iterator<Item = u64>) -> f64 {
    let mut sum = 0u128;
    let mut count = 0u64;
    for v in values {
        sum += v as u128;
        count += 1;
    }
    if count == 0 {
        0.0
    } else {
        sum as f64 / count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbica_trace::monitor::TierReport;

    fn report_with_loads(cache: &[u64], disk: &[u64], bursts: &[bool]) -> SimulationReport {
        let intervals = cache
            .iter()
            .zip(disk)
            .zip(bursts)
            .enumerate()
            .map(|(i, ((c, d), b))| IntervalReport {
                index: i as u32,
                cache: TierReport { max_latency_us: *c, queue_depth: 2, ..TierReport::default() },
                disk: TierReport { max_latency_us: *d, ..TierReport::default() },
                burst_detected: *b,
                policy_label: "WB".to_string(),
                ..IntervalReport::default()
            })
            .collect();
        SimulationReport {
            workload: "test".into(),
            controller: "WB".into(),
            total_intervals: cache.len() as u32,
            intervals,
            policy_changes: Vec::new(),
            app_completed: 0,
            unfinished_requests: 0,
            app_avg_latency_us: 0,
            app_max_latency_us: 0,
            app_p50_latency_us: 0,
            app_p95_latency_us: 0,
            app_p99_latency_us: 0,
            bypassed_requests: 0,
            cache_stats: CacheStats::default(),
            perf: SimPerf::default(),
            tier_stats: Vec::new(),
        }
    }

    #[test]
    fn averages_and_series_are_consistent() {
        let r = report_with_loads(&[100, 300, 200], &[10, 20, 30], &[false, true, true]);
        assert!((r.avg_cache_load_us() - 200.0).abs() < 1e-9);
        assert!((r.avg_disk_load_us() - 20.0).abs() < 1e-9);
        assert!((r.avg_cache_queue_depth() - 2.0).abs() < 1e-9);
        assert_eq!(r.cache_load_series(), vec![100, 300, 200]);
        assert_eq!(r.disk_load_series(), vec![10, 20, 30]);
        assert_eq!(r.policy_series(), vec!["WB", "WB", "WB"]);
        assert_eq!(r.burst_intervals(), 2);
        assert!((r.avg_cache_load_in_bursts_us() - 250.0).abs() < 1e-9);
    }

    #[test]
    fn burst_average_falls_back_to_overall_when_no_bursts() {
        let r = report_with_loads(&[100, 200], &[0, 0], &[false, false]);
        assert!((r.avg_cache_load_in_bursts_us() - 150.0).abs() < 1e-9);
    }

    #[test]
    fn empty_report_yields_zero_averages() {
        let r = report_with_loads(&[], &[], &[]);
        assert_eq!(r.avg_cache_load_us(), 0.0);
        assert_eq!(r.burst_intervals(), 0);
    }
}
