//! The simulated *tiered* storage system: an N-level cache hierarchy in
//! front of the disk subsystem.
//!
//! This is the multi-SSD generalization of [`crate::StorageSystem`]: one
//! [`DeviceStation`] per cache level (hot tier first) plus the disk
//! station, with the [`TieredCacheModule`] deciding which station every
//! derived operation lands on. The flat system remains the single-tier
//! special case and is untouched by this module — `Simulation` dispatches
//! here only when the configuration describes two or more levels.

use lbica_cache::WritePolicy;
use lbica_storage::device::{AnyDeviceModel, HddModel, SsdModel};
use lbica_storage::queue::DeviceQueue;
use lbica_storage::request::{IoRequest, RequestClass, RequestId, RequestOrigin};
use lbica_storage::snap::{SnapError, SnapReader, SnapWriter};
use lbica_storage::time::{SimDuration, SimTime};
use lbica_tier::{TierTarget, TieredCacheModule, TieredOp, TieredOutcome, MAX_TIERS};
use lbica_trace::monitor::{BlktraceProbe, IostatCollector, Tier};
use lbica_trace::record::TraceRecord;

use crate::config::{DiskDeviceConfig, SimulationConfig};
use crate::controller::{BypassDirective, TierLoad};
use crate::event::{EventKind, EventQueue, NextEvent, StagedOps};
use crate::report::TierLevelStats;
use crate::system::{DeviceStation, InService, TierId};
use crate::tracker::AppTracker;

/// Per-level completion counters the stations cannot track themselves.
#[derive(Debug, Clone, Copy, Default)]
struct LevelCounters {
    completed: u64,
    total_latency_us: u64,
    max_latency_us: u64,
}

/// The full simulated tiered system: application entry point, the tiered
/// cache module, one station per cache level, the disk station, monitors
/// and the event queue.
#[derive(Debug)]
pub struct TieredStorageSystem {
    cache: TieredCacheModule,
    levels: Vec<DeviceStation>,
    disk: DeviceStation,
    counters: Vec<LevelCounters>,
    events: EventQueue,
    clock: SimTime,
    iostat: IostatCollector,
    probe: BlktraceProbe,
    app: AppTracker,
    next_id: RequestId,
    events_processed: u64,
    spilled_requests: u64,
    spilled_reads: u64,
    /// Reused per-arrival outcome buffer (no allocation in the hot loop).
    outcome_scratch: TieredOutcome,
    /// The current `run_until` call's cache lookups.
    staged: StagedOps<TieredOp>,
}

impl TieredStorageSystem {
    /// Builds a tiered system from a [`SimulationConfig`] carrying a tier
    /// topology.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has no tier topology.
    pub fn new(config: &SimulationConfig) -> Self {
        let topology = config.tiers.expect("a tiered system needs a tier topology");
        let mut cache = TieredCacheModule::new(topology);
        if config.prewarm_cache {
            cache.prewarm_to_capacity();
        }
        let levels: Vec<DeviceStation> = topology
            .levels()
            .enumerate()
            .map(|(i, spec)| {
                let model = AnyDeviceModel::Ssd(SsdModel::new(spec.device));
                DeviceStation::new(format!("tier{i}-ssd"), model, spec.parallelism)
            })
            .collect();
        let disk_model = match config.disk_device {
            DiskDeviceConfig::MidrangeSsd(cfg) => AnyDeviceModel::Ssd(SsdModel::new(cfg)),
            DiskDeviceConfig::Hdd(cfg) => AnyDeviceModel::Hdd(HddModel::new(cfg)),
        };
        let n = levels.len();
        TieredStorageSystem {
            cache,
            levels,
            disk: DeviceStation::new("disk-subsystem", disk_model, config.disk_parallelism),
            counters: vec![LevelCounters::default(); n],
            events: EventQueue::new(),
            clock: SimTime::ZERO,
            iostat: IostatCollector::new(),
            probe: BlktraceProbe::new(),
            app: AppTracker::new(),
            next_id: 1,
            events_processed: 0,
            spilled_requests: 0,
            spilled_reads: 0,
            outcome_scratch: TieredOutcome::new(),
            staged: StagedOps::default(),
        }
    }

    /// Returns the system to the state [`TieredStorageSystem::new`] would
    /// produce for the same config, reusing every backing allocation (see
    /// [`crate::StorageSystem`]'s reset for the flat analogue). The caller
    /// (the [`crate::SimArena`]) guarantees the config — including the tier
    /// topology — is identical to the one the system was built with.
    pub(crate) fn reset(&mut self, config: &SimulationConfig) {
        self.cache.reset();
        if config.prewarm_cache {
            self.cache.prewarm_to_capacity();
        }
        for station in &mut self.levels {
            station.reset();
        }
        self.disk.reset();
        self.counters.fill(LevelCounters::default());
        self.events.reset();
        self.clock = SimTime::ZERO;
        self.iostat.reset();
        self.probe.reset();
        self.app.reset();
        self.next_id = 1;
        self.events_processed = 0;
        self.spilled_requests = 0;
        self.spilled_reads = 0;
        self.outcome_scratch.clear();
    }

    /// The current simulated time.
    pub const fn now(&self) -> SimTime {
        self.clock
    }

    /// The tiered cache module (policy, per-level stats, contents).
    pub fn cache(&self) -> &TieredCacheModule {
        &self.cache
    }

    /// Number of cache levels.
    pub fn tier_count(&self) -> usize {
        self.levels.len()
    }

    /// The station of cache level `level` (0 = hot tier).
    pub fn level(&self, level: usize) -> &DeviceStation {
        &self.levels[level]
    }

    /// The disk-subsystem station.
    pub fn disk(&self) -> &DeviceStation {
        &self.disk
    }

    /// Number of application requests fully completed so far.
    pub fn app_completed(&self) -> u64 {
        self.app.completed()
    }

    /// Number of application requests that have arrived but not completed.
    pub fn app_outstanding(&self) -> u64 {
        self.app.outstanding() as u64
    }

    /// Mean end-to-end latency of completed application requests, µs.
    pub fn app_avg_latency_us(&self) -> u64 {
        self.app.avg_latency_us()
    }

    /// Maximum end-to-end latency of completed application requests, µs.
    pub const fn app_max_latency_us(&self) -> u64 {
        self.app.max_latency_us()
    }

    /// End-to-end application latency at `pct` (0–100), µs, log-bucketed.
    pub fn app_percentile_us(&self, pct: f64) -> u64 {
        self.app.percentile_us(pct)
    }

    /// The end-to-end application latency distribution.
    pub fn app_latency_histogram(&self) -> &lbica_storage::histogram::LatencyHistogram {
        self.app.latency_histogram()
    }

    /// The application-request tracker behind the `app_*` accessors.
    pub(crate) fn app_tracker(&self) -> &AppTracker {
        &self.app
    }

    /// Total number of discrete events processed by the event loop.
    pub const fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// The largest event-queue depth ever reached.
    pub const fn peak_event_queue_depth(&self) -> usize {
        self.events.peak_len()
    }

    /// Write requests the balancer spilled from the hot tier into a lower
    /// level (as opposed to bypassing all the way to the disk).
    pub const fn spilled_requests(&self) -> u64 {
        self.spilled_requests
    }

    /// Read requests the balancer spilled from the hot tier into a lower
    /// level (the Group-2 read-burst action; reads never fall through to
    /// the disk).
    pub const fn spilled_reads(&self) -> u64 {
        self.spilled_reads
    }

    fn fresh_id(&mut self) -> RequestId {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Schedules the arrival of an application request described by a trace
    /// record.
    pub fn schedule_record(&mut self, record: &TraceRecord) {
        let id = self.fresh_id();
        self.events.schedule_record(id, record);
    }

    /// Runs the event loop until every event at or before `limit` has been
    /// processed, then advances the clock to `limit`. The cache lookups of
    /// the arrivals due by `limit` run first, in firing order, before any
    /// queue or device work: policy switches and bypasses happen only
    /// between calls, so each lookup's answer depends only on the order of
    /// arrivals.
    pub fn run_until(&mut self, limit: SimTime) {
        let mut staged = std::mem::take(&mut self.staged);
        for request in self.events.arrivals_until(limit) {
            self.cache.access_into(&request, &mut self.outcome_scratch);
            staged.push(self.outcome_scratch.ops());
        }
        loop {
            let stations = [&self.levels[..], std::slice::from_ref(&self.disk)];
            let Some(next) = self.events.next_event(stations, limit) else { break };
            self.events_processed += 1;
            match next {
                NextEvent::Arrival => self.handle_arrival(staged.next_ops()),
                NextEvent::Completion { station, slot } if station < self.levels.len() => {
                    self.handle_level_completion(station, slot)
                }
                NextEvent::Completion { slot, .. } => self.handle_disk_completion(slot),
            }
        }
        staged.clear();
        self.staged = staged;
        self.clock = limit;
    }

    /// Fires the arrival at the lane's front, whose staged lookup gave `ops`.
    fn handle_arrival(&mut self, ops: &[TieredOp]) {
        let request = self.events.pop_arrival();
        let now = request.arrival();
        self.clock = now;
        let datapath_ops =
            ops.iter().filter(|op| op.origin == RequestOrigin::Application).count() as u32;
        self.app.register(request.id(), now, datapath_ops);
        self.enqueue_outcome(request.id(), ops, now);
    }

    fn enqueue_outcome(&mut self, parent: RequestId, ops: &[TieredOp], now: SimTime) {
        // One slot per possible cache level plus the disk at the end.
        let mut touched = [false; MAX_TIERS + 1];
        for op in ops {
            let id = self.fresh_id();
            let derived = IoRequest::from_range(id, op.kind, op.origin, op.range)
                .with_arrival(now)
                .with_parent(parent);
            match op.target {
                TierTarget::Level(level) => {
                    touched[level] = true;
                    self.enqueue_at_level(level, derived);
                }
                TierTarget::Disk => {
                    touched[MAX_TIERS] = true;
                    self.enqueue_at_disk(derived);
                }
            }
        }
        for level in (0..self.levels.len()).filter(|&l| touched[l]) {
            self.try_dispatch_level(level);
        }
        if touched[MAX_TIERS] {
            self.try_dispatch_disk();
        }
    }

    fn enqueue_at_level(&mut self, level: usize, request: IoRequest) {
        self.iostat.record_enqueue(Tier::Cache);
        if level == 0 {
            // The blktrace-style probe watches the *hot tier's* queue — the
            // paper's I/O-cache queue, which the characterizer classifies.
            self.probe.observe_class(request.class());
        }
        let station = &mut self.levels[level];
        station.queue.enqueue(request);
        let depth = station.queue.depth();
        self.iostat.observe_queue_depth(Tier::Cache, depth);
    }

    fn enqueue_at_disk(&mut self, request: IoRequest) {
        self.iostat.record_enqueue(Tier::Disk);
        self.disk.queue.enqueue(request);
        let depth = self.disk.queue.depth();
        self.iostat.observe_queue_depth(Tier::Disk, depth);
    }

    fn try_dispatch_level(&mut self, level: usize) {
        self.levels[level].dispatch_ready(self.clock, &mut self.events);
    }

    fn try_dispatch_disk(&mut self) {
        self.disk.dispatch_ready(self.clock, &mut self.events);
    }

    fn handle_level_completion(&mut self, level: usize, slot: usize) {
        let InService { time: now, request, .. } = self.levels[level].finish(slot);
        self.events.finish_service();
        self.clock = now;
        let latency = request.latency().map(|d| d.as_micros()).unwrap_or_default();
        self.iostat.record_completion(Tier::Cache, latency);
        let counters = &mut self.counters[level];
        counters.completed += 1;
        counters.total_latency_us += latency;
        counters.max_latency_us = counters.max_latency_us.max(latency);
        if request.origin() == RequestOrigin::Application {
            if let Some(parent) = request.parent() {
                self.app.complete_op(parent, now);
            }
        }
        self.try_dispatch_level(level);
    }

    fn handle_disk_completion(&mut self, slot: usize) {
        let InService { time: now, request, .. } = self.disk.finish(slot);
        self.events.finish_service();
        self.clock = now;
        let latency = request.latency().map(|d| d.as_micros()).unwrap_or_default();
        self.iostat.record_completion(Tier::Disk, latency);
        if request.origin() == RequestOrigin::Application {
            if let Some(parent) = request.parent() {
                self.app.complete_op(parent, now);
            }
        }
        self.try_dispatch_disk();
    }

    /// Closes monitoring interval `index`, returning its report. The cache
    /// tier aggregates every level's completions; the queue depth reported
    /// is the *hot tier's* (the signal the paper's detector watches).
    pub fn end_interval(&mut self, index: u32) -> lbica_trace::monitor::IntervalReport {
        // Fold the interval's deferred tier-movement deltas into the base
        // counters in one pass. Observationally invisible —
        // `TieredCacheModule::movement` always reports base + pending — but
        // it keeps the deferred buffer's folding cost off the per-event path
        // and bounds it to one add per level per interval.
        self.cache.commit_moves();
        let cache_depth = self.levels[0].outstanding();
        let disk_depth = self.disk.outstanding();
        let mut report = self.iostat.finish_interval(index, cache_depth, disk_depth);
        report.cache_queue_mix = self.probe.take();
        report.policy_label = self.cache.policy().label().to_string();
        report
    }

    /// Fills `out` with one [`TierLoad`] per cache level, hot tier first —
    /// the tier vector handed to tier-aware controllers.
    pub fn tier_loads_into(&self, out: &mut Vec<TierLoad>) {
        out.clear();
        for station in &self.levels {
            out.push(TierLoad {
                queue_depth: station.outstanding(),
                avg_latency: station.avg_latency(),
            });
        }
    }

    /// The hot tier's blended average device latency (`ssdLatency`).
    pub fn cache_avg_latency(&self) -> SimDuration {
        self.levels[0].avg_latency()
    }

    /// The disk subsystem's blended average latency (`hddLatency`).
    pub fn disk_avg_latency(&self) -> SimDuration {
        self.disk.avg_latency()
    }

    /// The current write policy of the hierarchy.
    pub fn policy(&self) -> WritePolicy {
        self.cache.policy()
    }

    /// Applies the single policy knob: every level of a uniform-configured
    /// hierarchy, or the hot tier only when per-level policies were
    /// explicitly configured (see [`TieredCacheModule::set_policy`]).
    pub fn set_policy(&mut self, policy: WritePolicy) {
        self.cache.set_policy(policy);
    }

    /// Assigns per-level write policies, hot tier first (see
    /// [`TieredCacheModule::set_level_policies`]).
    ///
    /// # Panics
    ///
    /// Panics if `policies` does not hold exactly one entry per level.
    pub fn set_level_policies(&mut self, policies: &[WritePolicy]) {
        self.cache.set_level_policies(policies);
    }

    /// The per-level write policies currently in force, hot tier first.
    pub fn level_policies(&self) -> &[WritePolicy] {
        self.cache.level_policies()
    }

    /// Read-only access to the hot tier's queue (for controller contexts).
    pub fn cache_queue(&self) -> &DeviceQueue {
        self.levels[0].queue()
    }

    /// Applies a controller's bypass directive. Tail spills re-home the
    /// drained requests at a lower cache level; plain bypasses and SIB-style
    /// victim lists redirect to the disk subsystem exactly like the flat
    /// system. Returns how many requests were moved or cancelled.
    pub fn apply_bypass(&mut self, directive: &BypassDirective) -> usize {
        match directive {
            BypassDirective::None => 0,
            BypassDirective::SpillTailWrites { max_requests, target_level } => {
                self.spill_tail(*max_requests, *target_level, RequestClass::Write)
            }
            BypassDirective::SpillTailReads { max_requests, target_level } => {
                self.spill_tail(*max_requests, *target_level, RequestClass::Read)
            }
            BypassDirective::TailWrites { max_requests } => {
                let moved = self.levels[0]
                    .queue
                    .drain_tail(*max_requests, |r| r.class() == RequestClass::Write);
                self.redirect_all_to_disk(moved)
            }
            BypassDirective::Requests(ids) => {
                let moved = self.levels[0].queue.remove_by_ids(ids);
                self.redirect_all_to_disk(moved)
            }
        }
    }

    /// The spill-chain action: drain application requests of `class` off
    /// the hot tier's tail and serve them from cache level `target_level`
    /// instead, moving their block metadata (and any demotions the
    /// re-homing causes) with them. Writes re-home dirty per the target's
    /// policy (`absorb_spill`); reads keep their current state
    /// (`absorb_read_spill`).
    fn spill_tail(
        &mut self,
        max_requests: usize,
        target_level: usize,
        class: RequestClass,
    ) -> usize {
        let target = target_level.min(self.levels.len() - 1).max(1);
        let moved = self.levels[0].queue.drain_tail(max_requests, |r| r.class() == class);
        let count = moved.len();
        if count == 0 {
            return 0;
        }
        let now = self.clock;
        let mut outcome = std::mem::take(&mut self.outcome_scratch);
        for request in moved {
            outcome.clear();
            for block in request.range().block_indices() {
                match class {
                    RequestClass::Write => self.cache.absorb_spill(block, target, &mut outcome),
                    _ => self.cache.absorb_read_spill(block, target, &mut outcome),
                }
            }
            // Demotions caused by re-homing the block fan out first, then
            // the spilled request itself joins the target level's queue.
            let parent = request.parent().unwrap_or(request.id());
            self.enqueue_outcome(parent, outcome.ops(), now);
            self.enqueue_at_level(target, request);
        }
        self.outcome_scratch = outcome;
        match class {
            RequestClass::Write => self.spilled_requests += count as u64,
            _ => self.spilled_reads += count as u64,
        }
        self.try_dispatch_level(target);
        count
    }

    fn redirect_all_to_disk(&mut self, moved: Vec<IoRequest>) -> usize {
        let count = moved.len();
        for request in moved {
            self.redirect_to_disk(request);
        }
        if count > 0 {
            self.try_dispatch_disk();
        }
        count
    }

    fn redirect_to_disk(&mut self, request: IoRequest) {
        match request.class() {
            RequestClass::Write | RequestClass::Read => {
                for block in request.range().block_indices() {
                    if request.class() == RequestClass::Write {
                        self.cache.invalidate_block(block);
                    }
                }
                self.enqueue_at_disk(request);
            }
            RequestClass::Promote => {
                for block in request.range().block_indices() {
                    self.cache.invalidate_block(block);
                }
            }
            RequestClass::Evict => {
                // Evictions carry victim data between cache levels; they
                // must stay where they were queued.
                self.levels[0].queue.enqueue(request);
            }
        }
    }

    /// Serializes the full mid-flight system state for a replay checkpoint
    /// (the tiered twin of [`crate::StorageSystem::snap_to`]; same
    /// interval-boundary contract — including the monitors' in-progress
    /// accumulators, which boundary-time bypasses may already have fed).
    pub fn snap_to(&self, w: &mut SnapWriter) {
        self.cache.snap_to(w);
        w.put_usize(self.levels.len());
        for station in &self.levels {
            station.snap_to(w);
        }
        self.disk.snap_to(w);
        for c in &self.counters {
            w.put_u64(c.completed);
            w.put_u64(c.total_latency_us);
            w.put_u64(c.max_latency_us);
        }
        let disk_completion = |request| EventKind::Completion { tier: TierId::Disk, request };
        let held = self
            .levels
            .iter()
            .enumerate()
            .flat_map(|(level, station)| {
                station.held_events(move |request| EventKind::LevelCompletion { level, request })
            })
            .chain(self.disk.held_events(disk_completion))
            .collect();
        self.events.snap_to(w, held);
        w.put_u64(self.clock.as_micros());
        self.app.snap_to(w, self.next_id);
        w.put_u64(self.events_processed);
        w.put_u64(self.spilled_requests);
        w.put_u64(self.spilled_reads);
        self.iostat.snap_to(w);
        self.probe.snap_to(w);
    }

    /// Restores state written by [`TieredStorageSystem::snap_to`] into this
    /// config-built system.
    pub fn snap_state_from(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.cache.snap_state_from(r)?;
        if r.get_usize()? != self.levels.len() {
            return Err(SnapError::Corrupt("station level count mismatch"));
        }
        let mut level_in_service = Vec::with_capacity(self.levels.len());
        for station in &mut self.levels {
            level_in_service.push(station.snap_state_from(r)?);
        }
        let disk_in_service = self.disk.snap_state_from(r)?;
        for c in &mut self.counters {
            c.completed = r.get_u64()?;
            c.total_latency_us = r.get_u64()?;
            c.max_latency_us = r.get_u64()?;
        }
        let (levels, disk) = (&mut self.levels, &mut self.disk);
        self.events.snap_state_from(r, |time, seq, kind| match kind {
            EventKind::LevelCompletion { level, request } => levels
                .get_mut(level)
                .ok_or(SnapError::Corrupt("completion at a missing cache level"))?
                .hold(time, seq, request),
            EventKind::Completion { tier: TierId::Disk, request } => disk.hold(time, seq, request),
            _ => Err(SnapError::Corrupt("flat ssd completion in a tiered system")),
        })?;
        for (station, &stored) in self.levels.iter().zip(&level_in_service) {
            station.check_in_service(stored)?;
        }
        self.disk.check_in_service(disk_in_service)?;
        self.clock = SimTime::from_micros(r.get_u64()?);
        self.next_id = self.app.snap_state_from(r)?;
        self.events.check_arrival_ids(self.next_id, |id| self.app.is_live(id))?;
        self.events_processed = r.get_u64()?;
        self.spilled_requests = r.get_u64()?;
        self.spilled_reads = r.get_u64()?;
        self.iostat.snap_state_from(r)?;
        self.probe.snap_state_from(r)?;
        Ok(())
    }

    /// Number of events still pending (for drain loops at the end of a run).
    pub fn pending_events(&self) -> usize {
        self.events.len()
    }

    /// Drains outstanding work in fixed 100 ms steps, bounded by
    /// `max_steps`; returns `true` if the system fully drained.
    pub fn drain(&mut self, max_steps: u32) -> bool {
        let step = SimDuration::from_millis(100);
        let mut steps = 0;
        while self.pending_events() > 0 {
            if steps >= max_steps {
                return false;
            }
            let boundary = self.now() + step;
            self.run_until(boundary);
            steps += 1;
        }
        true
    }

    /// Cumulative (promotions, demotions) summed over all levels — cheap
    /// enough to sample once per interval so an observer can trace
    /// per-interval movement deltas.
    pub fn movement_totals(&self) -> (u64, u64) {
        (0..self.levels.len()).fold((0, 0), |(p, d), level| {
            let movement = self.cache.movement(level);
            (p + movement.promotions_in, d + movement.demotions_in)
        })
    }

    /// Snapshot of the cumulative per-level statistics — the
    /// [`TierLevelStats`] rows surfaced on the simulation report.
    pub fn tier_level_stats(&self) -> Vec<TierLevelStats> {
        (0..self.levels.len())
            .map(|level| {
                let stats = self.cache.stats(level);
                let movement = self.cache.movement(level);
                let counters = &self.counters[level];
                let queue_stats = self.levels[level].queue().stats();
                TierLevelStats {
                    level,
                    hits: stats.read_hits + stats.write_hits,
                    promotions_in: movement.promotions_in,
                    demotions_in: movement.demotions_in,
                    spills_in: movement.spills_in,
                    read_spills_in: movement.read_spills_in,
                    back_invalidations: movement.back_invalidations,
                    enqueued: queue_stats.enqueued,
                    completed: counters.completed,
                    peak_queue_depth: queue_stats.peak_depth,
                    avg_latency_us: counters
                        .total_latency_us
                        .checked_div(counters.completed)
                        .unwrap_or(0),
                    max_latency_us: counters.max_latency_us,
                    cached_blocks: self.cache.cached_blocks(level),
                    dirty_blocks: self.cache.dirty_blocks(level),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbica_storage::request::RequestKind;

    fn record(ts: u64, sector: u64, kind: RequestKind) -> TraceRecord {
        TraceRecord::new(ts, sector, 8, kind)
    }

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
    fn run_until_resolves_only_the_arrivals_due_by_its_limit() {
        let mut sys = two_tier_system();
        sys.schedule_record(&record(10, 0, RequestKind::Write));
        sys.schedule_record(&record(60, 8, RequestKind::Write));
        sys.run_until(SimTime::from_micros(50));
        sys.set_policy(WritePolicy::ReadOnly);
        sys.run_until(SimTime::from_millis(1));
        // Looked up before the switch, the second write would have hit the
        // write-back hot tier.
        assert_eq!(sys.cache().stats(0).write_hits, 1);
        assert_eq!(sys.cache().stats(0).write_bypasses, 1);
        let report = sys.end_interval(0);
        assert_eq!((report.cache.completed, report.disk.completed), (1, 1));
    }

    #[test]
    fn a_bypass_between_two_calls_is_seen_by_the_next_calls_lookups() {
        let mut sys = two_tier_system();
        for i in 0..100u64 {
            sys.schedule_record(&record(1, i * 8, RequestKind::Write));
        }
        sys.run_until(SimTime::from_micros(1_000));
        let moved = sys.apply_bypass(&BypassDirective::TailWrites { max_requests: 40 });
        assert!(moved > 0);
        // Every redirected write invalidated its block at every level, so
        // reading the 100 blocks back misses exactly on those.
        for i in 0..100u64 {
            sys.schedule_record(&record(1_001, i * 8, RequestKind::Read));
        }
        sys.run_until(SimTime::from_micros(1_002));
        assert_eq!(sys.cache().stats(0).read_misses, moved as u64);
    }

    #[test]
    fn the_staging_buffer_is_empty_between_calls_and_after_reset() {
        let config = SimulationConfig::tiny_two_tier();
        let mut sys = TieredStorageSystem::new(&config);
        for i in 0..20u64 {
            sys.schedule_record(&record(i * 10, i * 8, RequestKind::Read));
        }
        sys.run_until(SimTime::from_micros(95));
        assert!(sys.staged.is_empty());
        sys.reset(&config);
        assert!(sys.staged.is_empty());
        assert_eq!(sys.pending_events(), 0);
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
    fn mid_flight_snapshot_resumes_identically_to_the_unsplit_run() {
        let config = SimulationConfig::tiny_two_tier();
        let mut sys = TieredStorageSystem::new(&config);
        for i in 0..200u64 {
            let kind = if i % 3 == 0 { RequestKind::Write } else { RequestKind::Read };
            sys.schedule_record(&record(i * 5, (i % 1_500) * 8, kind));
        }
        sys.run_until(SimTime::from_micros(500));
        let _ = sys.end_interval(0);
        assert!(sys.pending_events() > 0, "the snapshot must cover in-flight work");

        let mut w = SnapWriter::new();
        sys.snap_to(&mut w);
        let bytes = w.into_bytes();
        let mut restored = TieredStorageSystem::new(&config);
        let mut r = SnapReader::new(&bytes);
        restored.snap_state_from(&mut r).unwrap();
        r.finish().unwrap();

        for s in [&mut sys, &mut restored] {
            for i in 0..50u64 {
                s.schedule_record(&record(520 + i * 3, (i % 900) * 8, RequestKind::Read));
            }
            s.run_until(SimTime::from_micros(1_000));
        }
        assert_eq!(restored.now(), sys.now());
        assert_eq!(restored.end_interval(1), sys.end_interval(1));
        assert_eq!(restored.events_processed(), sys.events_processed());
        assert_eq!(restored.app_completed(), sys.app_completed());
        assert_eq!(restored.tier_level_stats(), sys.tier_level_stats());
        assert!(restored.drain(600) && sys.drain(600));
        assert_eq!(restored.app_completed(), sys.app_completed());
        assert_eq!(restored.tier_level_stats(), sys.tier_level_stats());
    }

    /// Peak hot-tier queue depth when a read arrives at exactly the µs the
    /// in-service read completes (see the flat system's twin test).
    fn peak_hot_depth_at_a_tie(arrive_first: bool) -> usize {
        let mut sys = two_tier_system();
        sys.schedule_record(&record(0, 0, RequestKind::Read));
        sys.schedule_record(&record(10, 8, RequestKind::Read));
        if arrive_first {
            sys.schedule_record(&record(90, 16, RequestKind::Read));
        } else {
            sys.run_until(SimTime::from_micros(50));
            assert_eq!(sys.level(0).in_service(), 1);
            sys.schedule_record(&record(90, 16, RequestKind::Read));
        }
        sys.run_until(SimTime::from_millis(10));
        assert_eq!(sys.app_completed(), 3);
        sys.level(0).queue().stats().peak_depth
    }

    #[test]
    fn an_arrival_and_a_completion_at_the_same_us_fire_in_seq_order() {
        assert_eq!(peak_hot_depth_at_a_tie(true), 2);
        assert_eq!(peak_hot_depth_at_a_tie(false), 1);
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

    fn snap_bytes(sys: &TieredStorageSystem) -> Vec<u8> {
        let mut w = SnapWriter::new();
        sys.snap_to(&mut w);
        w.into_bytes()
    }

    #[test]
    fn a_snapshot_with_completions_at_every_station_round_trips_byte_identically() {
        let sys = busy_system();
        let bytes = snap_bytes(&sys);
        let mut restored = two_tier_system();
        let mut r = SnapReader::new(&bytes);
        restored.snap_state_from(&mut r).unwrap();
        r.finish().unwrap();
        for l in 0..2 {
            assert_eq!(restored.level(l).in_service(), sys.level(l).in_service());
        }
        assert_eq!(restored.disk().in_service(), sys.disk().in_service());
        assert_eq!(restored.pending_events(), sys.pending_events());
        assert_eq!(snap_bytes(&restored), bytes);
    }

    #[test]
    fn a_snapshot_whose_in_service_count_disagrees_with_its_completions_is_corrupt() {
        let sys = busy_system();
        let mut bytes = snap_bytes(&sys);
        // The hot tier's in-service count ends its station section, which
        // follows the cache and the level count.
        let section = |f: &dyn Fn(&mut SnapWriter)| {
            let mut w = SnapWriter::new();
            f(&mut w);
            w.len()
        };
        let at =
            section(&|w| sys.cache.snap_to(w)) + 8 + section(&|w| sys.levels[0].snap_to(w)) - 8;
        assert_eq!(bytes[at..at + 8], 1u64.to_le_bytes());
        bytes[at..at + 8].copy_from_slice(&0u64.to_le_bytes());
        let err = two_tier_system().snap_state_from(&mut SnapReader::new(&bytes)).unwrap_err();
        assert_eq!(err, SnapError::Corrupt("in-service count disagrees with pending completions"));
    }

    #[test]
    fn a_snapshot_with_misstamped_requests_is_corrupt() {
        for case in 0..3 {
            let mut sys = busy_system();
            let expected = sys.levels[1].misstamp(case);
            let err = two_tier_system()
                .snap_state_from(&mut SnapReader::new(&snap_bytes(&sys)))
                .unwrap_err();
            assert_eq!(err, expected, "case {case}");
        }
    }

    #[test]
    fn a_checkpointed_live_id_past_the_next_id_is_corrupt() {
        use crate::controller::StaticPolicyController;
        use lbica_trace::workload::{WorkloadScale, WorkloadSpec};
        let config = SimulationConfig::tiny_two_tier();
        let spec = WorkloadSpec::tpcc_scaled(WorkloadScale::tiny());
        let sim = || crate::Simulation::new(config, spec.clone(), 11);
        let mut cp = sim()
            .run_to_checkpoint(
                &mut StaticPolicyController::write_back(),
                spec.total_intervals() / 2,
            )
            .unwrap();
        let mut sys = TieredStorageSystem::new(&config);
        sys.snap_state_from(&mut SnapReader::new(&cp.state)).unwrap();
        // Unbounded, the dense id index would grow to 2^56 entries and abort.
        sys.app.overwrite_first_live_id(&mut cp.state, sys.next_id, 1 << 56);
        let err = sim()
            .resume_from_checkpoint(&mut StaticPolicyController::write_back(), &cp)
            .unwrap_err();
        assert_eq!(err, SnapError::Corrupt("live request id at or past the next id"));
    }

    #[test]
    fn a_restored_arrival_id_at_or_past_the_next_id_is_corrupt() {
        // Accepted, the arrival would share its id with the next record
        // scheduled and register that id twice once both fire.
        let mut sys = two_tier_system();
        sys.schedule_record(&record(0, 0, RequestKind::Read));
        sys.next_id = 1;
        let mut restored = two_tier_system();
        let result = restored.snap_state_from(&mut SnapReader::new(&snap_bytes(&sys)));
        if result.is_ok() {
            restored.schedule_record(&record(10, 8, RequestKind::Read));
            restored.run_until(SimTime::from_millis(10));
        }
        assert_eq!(result, Err(SnapError::Corrupt("pending arrival id at or past the next id")));
    }

    #[test]
    fn conservation_all_scheduled_requests_eventually_complete() {
        let mut sys = two_tier_system();
        for i in 0..300u64 {
            sys.schedule_record(&record(
                i * 20,
                (i % 3_000) * 8,
                if i % 3 == 0 { RequestKind::Write } else { RequestKind::Read },
            ));
        }
        sys.run_until(SimTime::from_secs(10));
        assert_eq!(sys.app_completed(), 300);
        assert_eq!(sys.pending_events(), 0);
        assert_eq!(sys.level(0).outstanding(), 0);
        assert_eq!(sys.level(1).outstanding(), 0);
        assert_eq!(sys.disk().outstanding(), 0);
    }

    #[test]
    fn drain_completes_a_finite_backlog() {
        let mut sys = two_tier_system();
        for i in 0..50u64 {
            sys.schedule_record(&record(0, (i % 500) * 8, RequestKind::Write));
        }
        assert!(sys.drain(600));
        assert_eq!(sys.app_completed(), 50);
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
}
