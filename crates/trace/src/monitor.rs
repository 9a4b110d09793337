//! `iostat`- and `blktrace`-like monitors.
//!
//! LBICA's two information channels on the physical testbed are
//!
//! * `iostat` — per-device queue sizes and service times, sampled once per
//!   monitoring interval, feeding the bottleneck detector (Eq. 1), and
//! * `blktrace` — the list (and hence class mix) of requests waiting in the
//!   I/O cache queue, feeding the workload characterizer.
//!
//! [`IostatCollector`] and [`BlktraceProbe`] reproduce those channels by
//! sampling the simulator's device queues. The per-interval
//! [`IntervalReport`]s they produce are also exactly the series plotted in
//! Figures 4–6.

use serde::{Deserialize, Serialize};

use lbica_storage::histogram::LatencyHistogram;
use lbica_storage::queue::{DeviceQueue, QueueSnapshot};
use lbica_storage::request::RequestClass;
use lbica_storage::snap::{SnapError, SnapReader, SnapWriter};
use lbica_storage::time::SimDuration;

/// The two tiers of the storage hierarchy, as the monitors see them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Tier {
    /// The SSD I/O cache.
    Cache,
    /// The disk subsystem.
    Disk,
}

/// Per-tier, per-interval statistics — one point of the paper's load plots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct TierReport {
    /// Queue depth at the end of the interval (`ssdQSize` / `hddQSize`).
    pub queue_depth: usize,
    /// Largest queue depth observed during the interval.
    pub peak_queue_depth: usize,
    /// Requests enqueued at this tier during the interval.
    pub enqueued: u64,
    /// Requests completed at this tier during the interval.
    pub completed: u64,
    /// Maximum end-to-end latency (queue + service) among requests completed
    /// in the interval, in microseconds — the y-axis of Figures 4 and 5.
    pub max_latency_us: u64,
    /// Mean end-to-end latency among requests completed in the interval.
    pub avg_latency_us: u64,
    /// Sum of latencies (used to aggregate across intervals).
    pub total_latency_us: u64,
    /// Median end-to-end latency (µs, log-bucketed upper bound).
    pub p50_latency_us: u64,
    /// 95th-percentile end-to-end latency (µs, log-bucketed upper bound).
    pub p95_latency_us: u64,
    /// 99th-percentile end-to-end latency (µs, log-bucketed upper bound).
    pub p99_latency_us: u64,
}

impl TierReport {
    /// Estimated maximum queue time per Eq. 1: queue depth × average device
    /// latency.
    pub fn queue_time(&self, avg_device_latency: SimDuration) -> SimDuration {
        avg_device_latency.saturating_mul(self.queue_depth as u64)
    }

    /// Serializes the report for a replay checkpoint.
    pub fn snap_to(&self, w: &mut SnapWriter) {
        w.put_usize(self.queue_depth);
        w.put_usize(self.peak_queue_depth);
        w.put_u64(self.enqueued);
        w.put_u64(self.completed);
        w.put_u64(self.max_latency_us);
        w.put_u64(self.avg_latency_us);
        w.put_u64(self.total_latency_us);
        w.put_u64(self.p50_latency_us);
        w.put_u64(self.p95_latency_us);
        w.put_u64(self.p99_latency_us);
    }

    /// Restores a report serialized by [`TierReport::snap_to`].
    pub fn snap_from(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(TierReport {
            queue_depth: r.get_usize()?,
            peak_queue_depth: r.get_usize()?,
            enqueued: r.get_u64()?,
            completed: r.get_u64()?,
            max_latency_us: r.get_u64()?,
            avg_latency_us: r.get_u64()?,
            total_latency_us: r.get_u64()?,
            p50_latency_us: r.get_u64()?,
            p95_latency_us: r.get_u64()?,
            p99_latency_us: r.get_u64()?,
        })
    }
}

/// Everything measured during one monitoring interval.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct IntervalReport {
    /// Interval index (the x-axis of Figures 4–6).
    pub index: u32,
    /// I/O cache tier statistics.
    pub cache: TierReport,
    /// Disk subsystem tier statistics.
    pub disk: TierReport,
    /// Aggregated class mix observed in the I/O cache queue during the
    /// interval (the `blktrace` channel).
    pub cache_queue_mix: QueueSnapshot,
    /// Label of the write policy in force during the interval (filled in by
    /// the controller harness; `WB` for the baseline).
    pub policy_label: String,
    /// Whether the controller flagged this interval as a burst/bottleneck.
    pub burst_detected: bool,
}

impl IntervalReport {
    /// Serializes the full interval measurement for a replay checkpoint.
    pub fn snap_to(&self, w: &mut SnapWriter) {
        w.put_u32(self.index);
        self.cache.snap_to(w);
        self.disk.snap_to(w);
        self.cache_queue_mix.snap_to(w);
        w.put_str(&self.policy_label);
        w.put_bool(self.burst_detected);
    }

    /// Restores a report serialized by [`IntervalReport::snap_to`].
    pub fn snap_from(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(IntervalReport {
            index: r.get_u32()?,
            cache: TierReport::snap_from(r)?,
            disk: TierReport::snap_from(r)?,
            cache_queue_mix: QueueSnapshot::snap_from(r)?,
            policy_label: r.get_str()?,
            burst_detected: r.get_bool()?,
        })
    }
}

/// Accumulates per-interval `iostat`-style statistics for both tiers.
///
/// ```
/// use lbica_trace::monitor::{IostatCollector, Tier};
///
/// let mut iostat = IostatCollector::new();
/// iostat.record_enqueue(Tier::Cache);
/// iostat.record_completion(Tier::Cache, 120);
/// let report = iostat.finish_interval(0, 3, 1);
/// assert_eq!(report.cache.completed, 1);
/// assert_eq!(report.cache.max_latency_us, 120);
/// assert_eq!(report.cache.queue_depth, 3);
/// ```
#[derive(Debug, Clone, Default)]
pub struct IostatCollector {
    cache: TierAccumulator,
    disk: TierAccumulator,
}

/// Per-interval accumulator backed by a [`LatencyHistogram`], so interval
/// reports carry tail percentiles without storing per-request samples.
#[derive(Debug, Clone, Default)]
struct TierAccumulator {
    enqueued: u64,
    latency: LatencyHistogram,
    peak_queue_depth: usize,
}

impl TierAccumulator {
    fn snap_to(&self, w: &mut SnapWriter) {
        w.put_u64(self.enqueued);
        w.put_usize(self.peak_queue_depth);
        self.latency.snap_to(w);
    }

    fn snap_state_from(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.enqueued = r.get_u64()?;
        self.peak_queue_depth = r.get_usize()?;
        self.latency = lbica_storage::histogram::LatencyHistogram::snap_from(r)?;
        Ok(())
    }

    fn finish(&mut self, queue_depth: usize) -> TierReport {
        let report = TierReport {
            queue_depth,
            peak_queue_depth: self.peak_queue_depth.max(queue_depth),
            enqueued: self.enqueued,
            completed: self.latency.count(),
            max_latency_us: self.latency.max().as_micros(),
            avg_latency_us: self.latency.mean().as_micros(),
            total_latency_us: self.latency.total_us(),
            p50_latency_us: self.latency.percentile(50.0).as_micros(),
            p95_latency_us: self.latency.percentile(95.0).as_micros(),
            p99_latency_us: self.latency.percentile(99.0).as_micros(),
        };
        self.enqueued = 0;
        self.peak_queue_depth = 0;
        self.latency.reset();
        report
    }
}

impl IostatCollector {
    /// Creates an empty collector.
    pub fn new() -> Self {
        IostatCollector::default()
    }

    fn tier_mut(&mut self, tier: Tier) -> &mut TierAccumulator {
        match tier {
            Tier::Cache => &mut self.cache,
            Tier::Disk => &mut self.disk,
        }
    }

    /// Records that a request was enqueued at `tier`.
    pub fn record_enqueue(&mut self, tier: Tier) {
        self.tier_mut(tier).enqueued += 1;
    }

    /// Records a completion at `tier` with the given end-to-end latency.
    pub fn record_completion(&mut self, tier: Tier, latency_us: u64) {
        self.tier_mut(tier).latency.record_us(latency_us);
    }

    /// Records an instantaneous queue-depth observation at `tier`.
    pub fn observe_queue_depth(&mut self, tier: Tier, depth: usize) {
        let acc = self.tier_mut(tier);
        acc.peak_queue_depth = acc.peak_queue_depth.max(depth);
    }

    /// Closes the current interval: produces its report (with the supplied
    /// end-of-interval queue depths) and resets the accumulators.
    pub fn finish_interval(
        &mut self,
        index: u32,
        cache_queue_depth: usize,
        disk_queue_depth: usize,
    ) -> IntervalReport {
        IntervalReport {
            index,
            cache: self.cache.finish(cache_queue_depth),
            disk: self.disk.finish(disk_queue_depth),
            cache_queue_mix: QueueSnapshot::default(),
            policy_label: String::new(),
            burst_detected: false,
        }
    }

    /// Clears both per-interval accumulators while keeping the histograms'
    /// bucket arrays allocated. Observationally identical to a fresh
    /// collector afterwards.
    pub fn reset(&mut self) {
        self.cache.enqueued = 0;
        self.cache.peak_queue_depth = 0;
        self.cache.latency.reset();
        self.disk.enqueued = 0;
        self.disk.peak_queue_depth = 0;
        self.disk.latency.reset();
    }

    /// Serializes the *in-progress* interval accumulators for a replay
    /// checkpoint; finished intervals travel as the checkpoint's own
    /// interval reports. The accumulators are usually empty
    /// at an interval boundary, but a boundary-time controller action (e.g.
    /// a bypass moving queued requests to the disk subsystem) may already
    /// have fed the *next* interval's counters, so a checkpoint cannot
    /// assume them fresh.
    pub fn snap_to(&self, w: &mut SnapWriter) {
        self.cache.snap_to(w);
        self.disk.snap_to(w);
    }

    /// Restores accumulators written by [`IostatCollector::snap_to`].
    ///
    /// # Errors
    ///
    /// Propagates truncation/corruption as [`SnapError`].
    pub fn snap_state_from(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.cache.snap_state_from(r)?;
        self.disk.snap_state_from(r)?;
        Ok(())
    }
}

/// Samples the class mix of the I/O cache queue over a monitoring interval,
/// the way periodic `blktrace` captures would.
#[derive(Debug, Clone, Default)]
pub struct BlktraceProbe {
    accumulated: QueueSnapshot,
    samples: u32,
}

impl BlktraceProbe {
    /// Creates an empty probe.
    pub fn new() -> Self {
        BlktraceProbe::default()
    }

    /// Adds one observation of the queue's current contents.
    pub fn observe(&mut self, queue: &DeviceQueue) {
        self.accumulated.merge(&queue.snapshot());
        self.samples += 1;
    }

    /// Adds a single-request observation by class — the enqueue-time hot
    /// path, equivalent to observing a one-entry snapshot without building
    /// one.
    pub fn observe_class(&mut self, class: RequestClass) {
        self.accumulated.record(class);
        self.samples += 1;
    }

    /// Number of observations accumulated.
    pub const fn samples(&self) -> u32 {
        self.samples
    }

    /// Clears the probe back to its freshly constructed state (same effect
    /// as discarding [`BlktraceProbe::take`]'s result).
    pub fn reset(&mut self) {
        self.accumulated = QueueSnapshot::default();
        self.samples = 0;
    }

    /// Serializes the in-progress observation state for a replay
    /// checkpoint (same caveat as [`IostatCollector::snap_to`]: boundary
    /// actions may have fed the next interval already).
    pub fn snap_to(&self, w: &mut SnapWriter) {
        w.put_usize(self.accumulated.reads);
        w.put_usize(self.accumulated.writes);
        w.put_usize(self.accumulated.promotes);
        w.put_usize(self.accumulated.evicts);
        w.put_u32(self.samples);
    }

    /// Restores state written by [`BlktraceProbe::snap_to`].
    ///
    /// # Errors
    ///
    /// Propagates truncation/corruption as [`SnapError`].
    pub fn snap_state_from(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.accumulated.reads = r.get_usize()?;
        self.accumulated.writes = r.get_usize()?;
        self.accumulated.promotes = r.get_usize()?;
        self.accumulated.evicts = r.get_usize()?;
        self.samples = r.get_u32()?;
        Ok(())
    }

    /// Returns the accumulated mix and resets the probe for the next
    /// interval.
    pub fn take(&mut self) -> QueueSnapshot {
        let out = self.accumulated;
        self.accumulated = QueueSnapshot::default();
        self.samples = 0;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbica_storage::request::{IoRequest, RequestKind, RequestOrigin};
    use lbica_storage::time::SimTime;

    #[test]
    fn iostat_aggregates_and_resets_per_interval() {
        let mut io = IostatCollector::new();
        io.record_enqueue(Tier::Cache);
        io.record_enqueue(Tier::Cache);
        io.record_completion(Tier::Cache, 100);
        io.record_completion(Tier::Cache, 300);
        io.record_completion(Tier::Disk, 50);
        io.observe_queue_depth(Tier::Cache, 9);

        let r0 = io.finish_interval(0, 4, 1);
        assert_eq!(r0.cache.enqueued, 2);
        assert_eq!(r0.cache.completed, 2);
        assert_eq!(r0.cache.max_latency_us, 300);
        assert_eq!(r0.cache.avg_latency_us, 200);
        assert_eq!(r0.cache.peak_queue_depth, 9);
        assert_eq!(r0.cache.queue_depth, 4);
        assert_eq!(r0.disk.completed, 1);

        // Next interval starts from scratch.
        let r1 = io.finish_interval(1, 0, 0);
        assert_eq!(r1.cache.completed, 0);
        assert_eq!(r1.cache.max_latency_us, 0);
    }

    #[test]
    fn interval_reports_carry_tail_percentiles() {
        let mut io = IostatCollector::new();
        for us in 1..=100u64 {
            io.record_completion(Tier::Cache, us * 100);
        }
        let r = io.finish_interval(0, 0, 0);
        assert!(r.cache.p50_latency_us >= 4_000 && r.cache.p50_latency_us <= 6_500);
        assert!(r.cache.p95_latency_us >= r.cache.p50_latency_us);
        assert!(r.cache.p99_latency_us >= r.cache.p95_latency_us);
        assert!(r.cache.p99_latency_us <= r.cache.max_latency_us);
        assert_eq!(r.cache.max_latency_us, 10_000);
        // Reset applies to the percentile columns too.
        let empty = io.finish_interval(1, 0, 0);
        assert_eq!(empty.cache.p99_latency_us, 0);
    }

    #[test]
    fn tier_report_queue_time_follows_eq1() {
        let report = TierReport { queue_depth: 12, ..TierReport::default() };
        let qt = report.queue_time(SimDuration::from_micros(80));
        assert_eq!(qt.as_micros(), 960);
    }

    #[test]
    fn blktrace_probe_accumulates_queue_mix() {
        let mut q = DeviceQueue::new("ssd");
        q.enqueue(
            IoRequest::new(1, RequestKind::Read, RequestOrigin::Application, 0, 8)
                .with_arrival(SimTime::ZERO),
        );
        q.enqueue(
            IoRequest::new(2, RequestKind::Write, RequestOrigin::Promote, 100, 8)
                .with_arrival(SimTime::ZERO),
        );

        let mut probe = BlktraceProbe::new();
        probe.observe(&q);
        probe.observe(&q);
        assert_eq!(probe.samples(), 2);
        let mix = probe.take();
        assert_eq!(mix.reads, 2);
        assert_eq!(mix.promotes, 2);
        assert_eq!(probe.samples(), 0);
        assert_eq!(probe.take().total(), 0);
    }

    #[test]
    fn empty_interval_report_is_all_zero() {
        let mut io = IostatCollector::new();
        let r = io.finish_interval(7, 0, 0);
        assert_eq!(r.index, 7);
        assert_eq!(r.cache, TierReport::default());
        assert_eq!(r.disk, TierReport::default());
    }
}
