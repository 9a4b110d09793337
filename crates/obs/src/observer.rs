//! The simulator-facing observability facade.
//!
//! [`SimObserver`] bundles one [`MetricsRegistry`] and one [`TraceRing`]
//! with pre-registered instruments for the simulator's event vocabulary.
//! The runners call its emit methods at interval granularity; with no
//! observer attached the runners skip every call, so the per-event hot loop
//! carries zero observability cost and the `perfbench` benchmark's plain
//! runs are unaffected.
//!
//! Determinism contract: the observer only *reads* simulation state. Its
//! ring and metrics are stamped in sim-time, so two runs of the same
//! scenario produce byte-identical traces and snapshots — and a run with an
//! observer attached produces a byte-identical report to one without.

use lbica_storage::histogram::LatencyHistogram;

use crate::chrome;
use crate::metrics::{CounterId, GaugeId, HistogramId, MetricsRegistry, MetricsSnapshot};
use crate::ring::{SmallLabel, TraceEvent, TraceEventKind, TraceRing};

/// Which device tier a queue observation refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueTier {
    /// The SSD cache tier (top of a tiered hierarchy).
    Cache,
    /// The backing disk tier.
    Disk,
}

impl QueueTier {
    const fn label(self) -> &'static str {
        match self {
            QueueTier::Cache => "cache",
            QueueTier::Disk => "disk",
        }
    }
}

/// Pre-registered instrument handles for the sim event vocabulary.
#[derive(Debug, Clone)]
struct Instruments {
    intervals: CounterId,
    bursts: CounterId,
    policy_changes: CounterId,
    bypassed: CounterId,
    spilled_writes: CounterId,
    spilled_reads: CounterId,
    promotions: CounterId,
    demotions: CounterId,
    events_processed: CounterId,
    app_completed: CounterId,
    cache_queue_peak: GaugeId,
    disk_queue_peak: GaugeId,
    event_queue_peak: GaugeId,
    app_latency: HistogramId,
}

fn register(reg: &mut MetricsRegistry) -> Instruments {
    Instruments {
        intervals: reg.counter("lbica_sim_intervals_total", "monitoring intervals completed"),
        bursts: reg.counter("lbica_sim_bursts_total", "intervals flagged as bursts"),
        policy_changes: reg.counter("lbica_sim_policy_changes_total", "write-policy switches"),
        bypassed: reg.counter("lbica_sim_bypassed_total", "requests bypassed around the cache"),
        spilled_writes: reg
            .counter("lbica_sim_spilled_writes_total", "tail writes spilled to lower tiers"),
        spilled_reads: reg
            .counter("lbica_sim_spilled_reads_total", "tail reads spilled to lower tiers"),
        promotions: reg.counter("lbica_sim_promotions_total", "blocks promoted between tiers"),
        demotions: reg.counter("lbica_sim_demotions_total", "blocks demoted between tiers"),
        events_processed: reg
            .counter("lbica_sim_events_processed_total", "simulator events processed"),
        app_completed: reg
            .counter("lbica_sim_app_completed_total", "application requests completed"),
        cache_queue_peak: reg.gauge("lbica_sim_cache_queue_peak", "high-water cache queue depth"),
        disk_queue_peak: reg.gauge("lbica_sim_disk_queue_peak", "high-water disk queue depth"),
        event_queue_peak: reg
            .gauge("lbica_sim_event_queue_peak", "high-water simulator event-queue depth"),
        app_latency: reg
            .histogram("lbica_sim_app_latency_us", "end-to-end application request latency"),
    }
}

/// Observer attached to one simulation run.
#[derive(Debug, Clone)]
pub struct SimObserver {
    registry: MetricsRegistry,
    ring: TraceRing,
    ids: Instruments,
}

/// Default trace-ring capacity: comfortably holds every interval-granularity
/// event of the longest sweep scenarios (a few events per interval).
const DEFAULT_RING_CAPACITY: usize = 4096;

impl SimObserver {
    /// Creates an observer with the default ring capacity and no sampling.
    pub fn new() -> Self {
        Self::with_ring(TraceRing::new(DEFAULT_RING_CAPACITY))
    }

    /// Creates an observer around a caller-configured ring (capacity,
    /// sampling rate).
    pub fn with_ring(ring: TraceRing) -> Self {
        let mut registry = MetricsRegistry::new();
        let ids = register(&mut registry);
        SimObserver { registry, ring, ids }
    }

    /// An interval boundary was crossed. `start_us`/`dur_us` locate the
    /// interval on the sim clock.
    pub fn interval_rollover(
        &mut self,
        interval: u32,
        start_us: u64,
        dur_us: u64,
        cache_completed: u64,
        disk_completed: u64,
    ) {
        self.registry.inc(self.ids.intervals);
        self.ring.record(TraceEvent {
            ts_us: start_us,
            dur_us,
            kind: TraceEventKind::IntervalRollover { interval, cache_completed, disk_completed },
        });
    }

    /// Per-interval queue-depth high-water mark for one tier.
    pub fn queue_high_water(&mut self, ts_us: u64, interval: u32, tier: QueueTier, depth: u64) {
        let gauge = match tier {
            QueueTier::Cache => self.ids.cache_queue_peak,
            QueueTier::Disk => self.ids.disk_queue_peak,
        };
        self.registry.set_max(gauge, depth);
        self.ring.record(TraceEvent {
            ts_us,
            dur_us: 0,
            kind: TraceEventKind::QueueHighWater {
                interval,
                tier: SmallLabel::new(tier.label()),
                depth,
            },
        });
    }

    /// The controller flagged the interval as a burst.
    pub fn burst(&mut self, ts_us: u64, interval: u32) {
        self.registry.inc(self.ids.bursts);
        self.ring.record(TraceEvent {
            ts_us,
            dur_us: 0,
            kind: TraceEventKind::BurstDetected { interval },
        });
    }

    /// The write policy changed, effective from `interval`.
    pub fn policy_change(&mut self, ts_us: u64, interval: u32, policy: &str) {
        self.registry.inc(self.ids.policy_changes);
        self.ring.record(TraceEvent {
            ts_us,
            dur_us: 0,
            kind: TraceEventKind::PolicyChange { interval, policy: SmallLabel::new(policy) },
        });
    }

    /// Requests were bypassed around the cache queue (no-op when zero).
    pub fn bypass(&mut self, ts_us: u64, interval: u32, requests: u64) {
        if requests == 0 {
            return;
        }
        self.registry.add(self.ids.bypassed, requests);
        self.ring.record(TraceEvent {
            ts_us,
            dur_us: 0,
            kind: TraceEventKind::Bypass { interval, requests },
        });
    }

    /// Tail writes spilled to a lower tier (no-op when zero).
    pub fn spill_writes(&mut self, ts_us: u64, interval: u32, requests: u64) {
        if requests == 0 {
            return;
        }
        self.registry.add(self.ids.spilled_writes, requests);
        self.ring.record(TraceEvent {
            ts_us,
            dur_us: 0,
            kind: TraceEventKind::SpillWrites { interval, requests },
        });
    }

    /// Tail reads spilled to a lower tier (no-op when zero).
    pub fn spill_reads(&mut self, ts_us: u64, interval: u32, requests: u64) {
        if requests == 0 {
            return;
        }
        self.registry.add(self.ids.spilled_reads, requests);
        self.ring.record(TraceEvent {
            ts_us,
            dur_us: 0,
            kind: TraceEventKind::SpillReads { interval, requests },
        });
    }

    /// Blocks promoted during the interval (no-op when zero).
    pub fn promotions(&mut self, ts_us: u64, interval: u32, blocks: u64) {
        if blocks == 0 {
            return;
        }
        self.registry.add(self.ids.promotions, blocks);
        self.ring.record(TraceEvent {
            ts_us,
            dur_us: 0,
            kind: TraceEventKind::Promotions { interval, blocks },
        });
    }

    /// Blocks demoted during the interval (no-op when zero).
    pub fn demotions(&mut self, ts_us: u64, interval: u32, blocks: u64) {
        if blocks == 0 {
            return;
        }
        self.registry.add(self.ids.demotions, blocks);
        self.ring.record(TraceEvent {
            ts_us,
            dur_us: 0,
            kind: TraceEventKind::Demotions { interval, blocks },
        });
    }

    /// A controller decision with the queueing times that drove it
    /// (typically replayed from a decision log at end of run).
    pub fn controller_decision(
        &mut self,
        ts_us: u64,
        interval: u32,
        cache_qtime_us: u64,
        disk_qtime_us: u64,
        burst: bool,
        group: &str,
    ) {
        self.ring.record(TraceEvent {
            ts_us,
            dur_us: 0,
            kind: TraceEventKind::ControllerDecision {
                interval,
                cache_qtime_us,
                disk_qtime_us,
                burst,
                group: SmallLabel::new(group),
            },
        });
    }

    /// Folds end-of-run totals into the metrics registry.
    pub fn run_totals(&mut self, events_processed: u64, app_completed: u64, event_queue_peak: u64) {
        self.registry.add(self.ids.events_processed, events_processed);
        self.registry.add(self.ids.app_completed, app_completed);
        self.registry.set_max(self.ids.event_queue_peak, event_queue_peak);
    }

    /// Merges the application latency histogram observed by the tracker.
    pub fn observe_app_latency(&mut self, histogram: &LatencyHistogram) {
        self.registry.merge_histogram(self.ids.app_latency, histogram);
    }

    /// Read access to the metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Mutable access for callers registering their own instruments.
    pub fn metrics_mut(&mut self) -> &mut MetricsRegistry {
        &mut self.registry
    }

    /// Read access to the trace ring.
    pub fn ring(&self) -> &TraceRing {
        &self.ring
    }

    /// Snapshot of the metrics registry.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }

    /// Renders the trace ring as Chrome trace-event JSON (see
    /// [`chrome::render`]).
    pub fn render_chrome_trace(&self, label: &str) -> String {
        chrome::render(&self.ring, label)
    }
}

impl Default for SimObserver {
    fn default() -> Self {
        SimObserver::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emits_metrics_and_ring_events_together() {
        let mut obs = SimObserver::new();
        obs.interval_rollover(0, 0, 1_000_000, 10, 5);
        obs.queue_high_water(1_000_000, 0, QueueTier::Cache, 42);
        obs.queue_high_water(1_000_000, 0, QueueTier::Disk, 7);
        obs.burst(1_000_000, 0);
        obs.policy_change(1_000_000, 1, "WT");
        obs.bypass(1_000_000, 0, 12);
        obs.run_totals(5_000, 100, 64);
        assert_eq!(obs.ring().len(), 6);
        let snap = obs.snapshot();
        let counter = |name: &str| {
            snap.counters.iter().find(|c| c.name == name).map(|c| c.value).unwrap_or(u64::MAX)
        };
        assert_eq!(counter("lbica_sim_intervals_total"), 1);
        assert_eq!(counter("lbica_sim_bursts_total"), 1);
        assert_eq!(counter("lbica_sim_policy_changes_total"), 1);
        assert_eq!(counter("lbica_sim_bypassed_total"), 12);
        assert_eq!(counter("lbica_sim_events_processed_total"), 5_000);
        let cache_peak = snap.gauges.iter().find(|g| g.name == "lbica_sim_cache_queue_peak");
        assert_eq!(cache_peak.map(|g| g.value), Some(42));
    }

    #[test]
    fn zero_valued_movement_events_are_suppressed() {
        let mut obs = SimObserver::new();
        obs.bypass(0, 0, 0);
        obs.spill_writes(0, 0, 0);
        obs.spill_reads(0, 0, 0);
        obs.promotions(0, 0, 0);
        obs.demotions(0, 0, 0);
        assert!(obs.ring().is_empty());
    }

    #[test]
    fn chrome_export_round_trip_contains_events() {
        let mut obs = SimObserver::new();
        obs.interval_rollover(3, 3_000_000, 1_000_000, 1, 2);
        let json = obs.render_chrome_trace("cell");
        assert!(json.contains("interval 3"));
        assert!(json.contains("\"ts\": 3000000"));
    }
}
