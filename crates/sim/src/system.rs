//! The simulated storage system: a cache module in front of one device
//! station per cache level and the disk subsystem's station.
//!
//! [`System`] is generic over its [`CacheFront`]. [`StorageSystem`] is the
//! paper's flat single-SSD system around a [`CacheModule`];
//! [`crate::TieredStorageSystem`] is the N-level hierarchy around a
//! [`lbica_tier::TieredCacheModule`], whose front lives in [`crate::tiered`].
//! One event loop, one set of stations and monitors, one bypass path and
//! one checkpoint writer serve both. Each flavor is compiled on its own, so
//! the flat system's loop carries no per-level work.

use lbica_cache::{CacheModule, CacheOutcome, CacheStats, DerivedOp, TargetDevice, WritePolicy};
use lbica_storage::block::BlockRange;
use lbica_storage::device::{AnyDeviceModel, DeviceModel, HddModel, SsdModel};
use lbica_storage::queue::DeviceQueue;
use lbica_storage::request::{IoRequest, RequestClass, RequestId, RequestKind, RequestOrigin};
use lbica_storage::snap::{SnapError, SnapReader, SnapWriter};
use lbica_storage::time::{SimDuration, SimTime};
use lbica_tier::{TierMovement, MAX_TIERS};
use lbica_trace::monitor::{BlktraceProbe, IostatCollector, Tier};
use lbica_trace::record::TraceRecord;

use crate::arena::SimArena;
use crate::config::{DiskDeviceConfig, SimulationConfig};
use crate::controller::{BypassDirective, ControllerDecision, TierLoad};
use crate::event::{event_key, EventKind, EventQueue, NextEvent, StagedOps, NO_EVENT};
use crate::report::TierLevelStats;
use crate::tracker::AppTracker;

/// The station a checkpointed [`EventKind::Completion`] was held at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TierId {
    /// The flat system's SSD cache device.
    Ssd,
    /// The disk subsystem.
    Disk,
}

/// A request in service at a station, held in a service slot until its
/// completion event fires.
#[derive(Debug, Clone)]
pub(crate) struct InService {
    /// When the device finishes the request.
    pub(crate) time: SimTime,
    /// The completion event's sequence number (see [`EventQueue`]).
    pub(crate) seq: u64,
    pub(crate) request: IoRequest,
}

/// A device and the queue in front of it, with a fixed number of concurrent
/// service slots. The requests in service — and with them their pending
/// completion events — are held in the slots themselves.
pub struct DeviceStation {
    pub(crate) queue: DeviceQueue,
    pub(crate) model: AnyDeviceModel,
    pub(crate) parallelism: usize,
    /// Busy service slots, in no particular order.
    slots: Vec<InService>,
    /// The [`event_key`] of the station's next completion event — the
    /// smallest `(time, seq)` among the busy slots — or [`NO_EVENT`] when
    /// every slot is free.
    next_key: u128,
    /// The slot holding that completion.
    next_slot: usize,
}

impl std::fmt::Debug for DeviceStation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeviceStation")
            .field("queue_depth", &self.queue.depth())
            .field("parallelism", &self.parallelism)
            .field("in_service", &self.slots.len())
            .finish()
    }
}

impl DeviceStation {
    /// Creates a station with the given service model and parallelism.
    ///
    /// # Panics
    ///
    /// Panics if `parallelism` is zero.
    pub fn new(
        name: impl Into<String>,
        model: impl Into<AnyDeviceModel>,
        parallelism: usize,
    ) -> Self {
        assert!(parallelism > 0, "a device needs at least one service slot");
        // Merging is disabled at the station level: each derived request is
        // tied to the application request it serves, and coalescing two
        // requests would conflate their completions.
        DeviceStation {
            queue: DeviceQueue::without_merging(name),
            model: model.into(),
            parallelism,
            slots: Vec::with_capacity(parallelism),
            next_key: NO_EVENT,
            next_slot: 0,
        }
    }

    /// The pending-request queue.
    pub fn queue(&self) -> &DeviceQueue {
        &self.queue
    }

    /// Number of requests currently being serviced.
    pub const fn in_service(&self) -> usize {
        self.slots.len()
    }

    /// Total outstanding work: queued plus in service.
    pub fn outstanding(&self) -> usize {
        self.queue.depth() + self.slots.len()
    }

    /// The station's next completion event: the [`event_key`] of the
    /// smallest `(time, seq)` among its busy slots (or [`NO_EVENT`]), and
    /// that slot's index.
    pub(crate) const fn next_completion(&self) -> (u128, usize) {
        (self.next_key, self.next_slot)
    }

    /// Holds `held` in a new slot, keeping the cached next completion.
    fn push_slot(&mut self, held: InService) {
        let key = event_key((held.time, held.seq));
        if key < self.next_key {
            self.next_key = key;
            self.next_slot = self.slots.len();
        }
        self.slots.push(held);
    }

    /// Recomputes the cached next completion from the slots, selecting
    /// without branches as [`EventQueue::next_event`] does.
    fn rescan(&mut self) {
        let (mut best, mut best_slot) = (NO_EVENT, 0);
        for (slot, h) in self.slots.iter().enumerate() {
            let key = event_key((h.time, h.seq));
            let earlier = key < best;
            best = if earlier { key } else { best };
            best_slot = if earlier { slot } else { best_slot };
        }
        self.next_key = best;
        self.next_slot = best_slot;
    }

    /// Starts servicing queued requests while a slot is free: each one is
    /// stamped with its completion time and held in a slot under a sequence
    /// number drawn from `events`.
    pub(crate) fn dispatch_ready(&mut self, now: SimTime, events: &mut EventQueue) {
        while self.slots.len() < self.parallelism {
            let Some(mut request) = self.queue.dispatch(now) else { break };
            let time = now + self.model.service_time(&request);
            request.mark_completed(time);
            let seq = events.start_service();
            self.push_slot(InService { time, seq, request });
        }
    }

    /// Frees service slot `slot`, returning the request it held.
    pub(crate) fn finish(&mut self, slot: usize) -> InService {
        let held = self.slots.swap_remove(slot);
        self.rescan();
        held
    }

    /// Returns a restored completion to a service slot. The request must
    /// carry the stamps [`DeviceStation::dispatch_ready`] gave it: a
    /// dispatch stamp and a completion stamp equal to the event's time.
    pub(crate) fn hold(
        &mut self,
        time: SimTime,
        seq: u64,
        request: IoRequest,
    ) -> Result<(), SnapError> {
        if request.dispatch().is_none() || request.completion().is_none() {
            return Err(SnapError::Corrupt("held completion lacks a service stamp"));
        }
        if request.completion() != Some(time) {
            return Err(SnapError::Corrupt("held completion stamp differs from its event time"));
        }
        self.push_slot(InService { time, seq, request });
        Ok(())
    }

    /// Checks a restored station against the in-service count its snapshot
    /// stored, once the event list has returned the completions.
    pub(crate) fn check_in_service(&self, stored: usize) -> Result<(), SnapError> {
        if self.slots.len() != stored {
            return Err(SnapError::Corrupt("in-service count disagrees with pending completions"));
        }
        Ok(())
    }

    /// The device's blended average latency (Eq. 1's `ssdLatency` /
    /// `hddLatency`).
    pub fn avg_latency(&self) -> SimDuration {
        self.model.avg_latency()
    }

    /// Returns the station to its freshly constructed state — empty queue,
    /// zeroed statistics, no in-service requests, device history forgotten —
    /// while keeping the queue's ring buffer and the slots allocated.
    pub(crate) fn reset(&mut self) {
        self.queue.reset();
        self.model.reset_history();
        self.slots.clear();
        self.rescan();
    }

    /// Serializes the station for a replay checkpoint: the queue (pending
    /// requests and statistics), the device model's service-relevant state
    /// and the in-service slot count. The in-service requests themselves are
    /// written with the event list, as completion events. Parallelism and
    /// the device config are not stored — they are rebuilt from the
    /// simulation config.
    pub(crate) fn snap_to(&self, w: &mut SnapWriter) {
        self.queue.snap_to(w);
        self.model.snap_state_to(w);
        w.put_usize(self.slots.len());
    }

    /// Restores state written by [`DeviceStation::snap_to`] into this
    /// config-built station, with every slot free. Returns the stored
    /// in-service count, for [`DeviceStation::check_in_service`] once the
    /// event list has returned the completions.
    pub(crate) fn snap_state_from(&mut self, r: &mut SnapReader<'_>) -> Result<usize, SnapError> {
        self.queue = DeviceQueue::snap_from(r)?;
        self.model.snap_state_from(r)?;
        self.slots.clear();
        self.rescan();
        let in_service = r.get_usize()?;
        if in_service > self.parallelism {
            return Err(SnapError::Corrupt("in-service count exceeds parallelism"));
        }
        Ok(in_service)
    }

    /// The completion events held in the slots, tagged by `tag` for a
    /// checkpoint's event list.
    pub(crate) fn held_events<'a>(
        &'a self,
        tag: impl Fn(IoRequest) -> EventKind + 'a,
    ) -> impl Iterator<Item = (SimTime, u64, EventKind)> + 'a {
        self.slots.iter().map(move |h| (h.time, h.seq, tag(h.request.clone())))
    }
}

#[cfg(test)]
impl DeviceStation {
    /// Gives the station a service stamp no run produces and returns the
    /// error restoring its checkpoint must give. `case` 0 queues a request
    /// already stamped as dispatched, 1 strips an in-service request of its
    /// stamps, 2 moves an in-service completion off its stamp.
    pub(crate) fn misstamp(&mut self, case: u8) -> SnapError {
        let slot = self.slots.first_mut().expect("a request in service");
        let held = &slot.request;
        match case {
            0 => {
                let far = held.range().start().sector() + (1 << 40);
                let mut queued = IoRequest::new(held.id(), held.kind(), held.origin(), far, 8)
                    .with_arrival(held.arrival());
                queued.mark_dispatched(held.arrival());
                self.queue.enqueue(queued);
                SnapError::Corrupt("queued request carries a service stamp")
            }
            1 => {
                slot.request =
                    IoRequest::from_range(held.id(), held.kind(), held.origin(), held.range())
                        .with_arrival(held.arrival());
                SnapError::Corrupt("held completion lacks a service stamp")
            }
            _ => {
                slot.time += SimDuration::from_micros(1);
                self.rescan();
                SnapError::Corrupt("held completion stamp differs from its event time")
            }
        }
    }
}

/// Per-level completion counters the stations cannot track themselves.
#[derive(Debug, Clone, Copy, Default)]
struct LevelCounters {
    completed: u64,
    total_latency_us: u64,
    max_latency_us: u64,
}

pub(crate) mod sealed {
    use crate::config::SimulationConfig;
    use crate::system::System;
    use crate::SimArena;

    /// Seals [`super::CacheFront`] and holds what only this crate calls.
    pub trait Sealed: Sized {
        /// The arena slot that keeps a system of this flavor between runs.
        fn arena_slot(arena: &mut SimArena) -> &mut Option<(SimulationConfig, System<Self>)>
        where
            Self: super::CacheFront;
    }
}

/// The cache module a [`System`] is built around: the paper's flat
/// [`CacheModule`] or the N-level [`lbica_tier::TieredCacheModule`]. It
/// carries only what differs between the two; the event loop, the
/// stations, the monitors, bypasses and checkpoints are [`System`]'s.
/// Sealed: the two modules are its only implementations.
///
/// Stations are numbered by cache level, hot tier first; the disk
/// subsystem's station comes last.
pub trait CacheFront: sealed::Sealed + std::fmt::Debug {
    /// One derived device operation.
    type Op: Copy + std::fmt::Debug;
    /// The reusable result of one lookup.
    type Outcome: std::fmt::Debug + Default;
    /// The system's stations: one per cache level, then the disk's.
    type Stations: AsRef<[DeviceStation]> + AsMut<[DeviceStation]> + std::fmt::Debug;
    /// Whether the system shows a per-level view — tier loads, level
    /// policies, per-level statistics and spill counts — and stores its
    /// per-level counters in checkpoints. Only the flat cache has none.
    const TIERED: bool;

    /// Builds the module for `config`, prewarmed when the config asks, and
    /// one station per cache level followed by `disk`.
    fn build(config: &SimulationConfig, disk: DeviceStation) -> (Self, Self::Stations);
    /// Returns the module to the state [`CacheFront::build`] gives for the
    /// same `config`, keeping its allocations.
    fn rebuild(&mut self, config: &SimulationConfig);
    /// Looks `request` up under the current policy, writing the operations
    /// it derives into `outcome`.
    fn access_into(&mut self, request: &IoRequest, outcome: &mut Self::Outcome);
    /// The operations of a lookup.
    fn ops(outcome: &Self::Outcome) -> &[Self::Op];
    /// Where `op` is queued — a cache level, or `disk` for the disk
    /// subsystem — and the request it becomes.
    fn route(op: &Self::Op, disk: usize) -> (usize, RequestKind, RequestOrigin, BlockRange);
    /// Drops every cached copy of `block`.
    fn invalidate_block(&mut self, block: u64);
    /// Re-homes the blocks of `request`, pulled off the hot tier's queue,
    /// at cache level `level`, writing the demotions that causes into
    /// `outcome`. Called only with two or more levels.
    fn absorb_spill(&mut self, request: &IoRequest, level: usize, outcome: &mut Self::Outcome);
    /// The write policy in force (the hot tier's).
    fn policy(&self) -> WritePolicy;
    /// Assigns the single policy knob.
    fn set_policy(&mut self, policy: WritePolicy);
    /// The per-level write policies, hot tier first; empty when flat.
    fn level_policies(&self) -> &[WritePolicy];
    /// Applies a controller decision's policy; returns whether the
    /// assignment changed.
    fn apply_policy(&mut self, decision: &ControllerDecision) -> bool;
    /// The Fig. 6 label of the assignment in force.
    fn policy_label(&self) -> String;
    /// Cumulative statistics of cache level `level`.
    fn level_stats(&self, level: usize) -> &CacheStats;
    /// Inter-level movement into cache level `level` (none when flat).
    fn level_movement(&self, level: usize) -> TierMovement;
    /// Cached and dirty blocks at cache level `level`.
    fn level_blocks(&self, level: usize) -> (usize, usize);
    /// Folds deferred bookkeeping at an interval's end.
    fn commit_moves(&mut self) {}
    /// The checkpoint tag of a completion held at cache level `level`.
    fn completion_tag(level: usize, request: IoRequest) -> EventKind;
    /// The cache level a restored completion returns to: the inverse of
    /// [`CacheFront::completion_tag`] over `levels` levels.
    fn held_level(kind: EventKind, levels: usize) -> Result<(usize, IoRequest), SnapError>;
    /// Serializes the module for a replay checkpoint.
    fn snap_to(&self, w: &mut SnapWriter);
    /// Restores state written by [`CacheFront::snap_to`] into this
    /// config-built module.
    fn snap_state_from(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError>;
}

/// The full simulated system: application entry point, a cache module, one
/// station per cache level, the disk station, monitors and the event queue.
#[derive(Debug)]
pub struct System<C: CacheFront> {
    cache: C,
    /// One station per cache level, hot tier first, then the disk's.
    stations: C::Stations,
    /// One per cache level; counted only when [`CacheFront::TIERED`].
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
    outcome_scratch: C::Outcome,
    /// The current `run_until` call's cache lookups.
    staged: StagedOps<C::Op>,
}

/// The paper's flat system: one SSD cache station and the disk subsystem.
pub type StorageSystem = System<CacheModule>;

impl<C: CacheFront> System<C> {
    /// Builds a system from a [`SimulationConfig`].
    ///
    /// # Panics
    ///
    /// A [`crate::TieredStorageSystem`] panics if the configuration has no
    /// tier topology.
    pub fn new(config: &SimulationConfig) -> Self {
        let disk_model = match config.disk_device {
            DiskDeviceConfig::MidrangeSsd(cfg) => AnyDeviceModel::Ssd(SsdModel::new(cfg)),
            DiskDeviceConfig::Hdd(cfg) => AnyDeviceModel::Hdd(HddModel::new(cfg)),
        };
        let disk = DeviceStation::new("disk-subsystem", disk_model, config.disk_parallelism);
        let (cache, stations) = C::build(config, disk);
        let levels = stations.as_ref().len() - 1;
        System {
            cache,
            stations,
            counters: vec![LevelCounters::default(); levels],
            events: EventQueue::new(),
            clock: SimTime::ZERO,
            iostat: IostatCollector::new(),
            probe: BlktraceProbe::new(),
            app: AppTracker::new(),
            next_id: 1,
            events_processed: 0,
            spilled_requests: 0,
            spilled_reads: 0,
            outcome_scratch: C::Outcome::default(),
            staged: StagedOps::default(),
        }
    }

    /// Returns the system to the state [`System::new`] would produce for
    /// the same config, reusing every backing allocation: cache slot
    /// arenas, device-queue ring buffers, service slots, the arrival lane,
    /// tracker slabs and monitor histories all keep their capacity.
    /// The caller (the [`crate::SimArena`]) guarantees the config is
    /// identical to the one the system was built with.
    pub(crate) fn reset(&mut self, config: &SimulationConfig) {
        self.cache.rebuild(config);
        for station in self.stations.as_mut() {
            station.reset();
        }
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
    }

    /// The current simulated time.
    pub const fn now(&self) -> SimTime {
        self.clock
    }

    /// The cache module (policy, stats, contents).
    pub fn cache(&self) -> &C {
        &self.cache
    }

    fn stations(&self) -> &[DeviceStation] {
        self.stations.as_ref()
    }

    pub(crate) fn cache_mut(&mut self) -> &mut C {
        &mut self.cache
    }

    /// Number of cache levels.
    pub fn tier_count(&self) -> usize {
        self.stations().len() - 1
    }

    /// The station of cache level `level` (0 = hot tier).
    pub fn level(&self, level: usize) -> &DeviceStation {
        &self.stations()[..self.tier_count()][level]
    }

    /// The disk-subsystem station.
    pub fn disk(&self) -> &DeviceStation {
        &self.stations()[self.tier_count()]
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
            staged.push(C::ops(&self.outcome_scratch));
        }
        let disk = self.tier_count();
        while let Some(next) = self.events.next_event(self.stations(), limit) {
            self.events_processed += 1;
            match next {
                NextEvent::Arrival => self.handle_arrival(staged.next_ops()),
                // Naming the hot tier and the disk, the flat system's only
                // stations, lets each of these arms fold its station index
                // (about 3% of the flat `replay-writes` perfbench wall time on a
                // 2-core x86-64 VM).
                NextEvent::Completion { station: 0, slot } => self.handle_completion(0, slot),
                NextEvent::Completion { station, slot } if station == disk => {
                    self.handle_completion(disk, slot)
                }
                NextEvent::Completion { station, slot } => self.handle_completion(station, slot),
            }
        }
        staged.clear();
        self.staged = staged;
        self.clock = limit;
    }

    /// Fires the arrival at the lane's front, whose staged lookup gave `ops`.
    fn handle_arrival(&mut self, ops: &[C::Op]) {
        let request = self.events.pop_arrival();
        let now = request.arrival();
        self.clock = now;
        let disk = self.tier_count();
        let datapath_ops =
            ops.iter().filter(|op| C::route(op, disk).2 == RequestOrigin::Application).count();
        self.app.register(request.id(), now, datapath_ops as u32);
        self.enqueue_outcome(request.id(), ops, now);
    }

    fn enqueue_outcome(&mut self, parent: RequestId, ops: &[C::Op], now: SimTime) {
        // One slot per possible cache level plus the disk's.
        let mut touched = [false; MAX_TIERS + 1];
        let disk = self.tier_count();
        for op in ops {
            let (station, kind, origin, range) = C::route(op, disk);
            let id = self.fresh_id();
            let derived = IoRequest::from_range(id, kind, origin, range)
                .with_arrival(now)
                .with_parent(parent);
            touched[station] = true;
            self.enqueue_at(station, derived);
        }
        // A station that received nothing cannot have become dispatchable:
        // capacity only frees on completion, which dispatches that station
        // itself — so skipping it is a semantic no-op.
        for station in (0..=disk).filter(|&s| touched[s]) {
            self.dispatch(station);
        }
    }

    fn monitor_tier(&self, station: usize) -> Tier {
        if station == self.tier_count() {
            Tier::Disk
        } else {
            Tier::Cache
        }
    }

    fn enqueue_at(&mut self, station: usize, request: IoRequest) {
        let tier = self.monitor_tier(station);
        self.iostat.record_enqueue(tier);
        if station == 0 {
            // The blktrace-style probe watches the *hot tier's* queue — the
            // paper's I/O-cache queue, which the characterizer classifies.
            self.probe.observe_class(request.class());
        }
        let queue = &mut self.stations.as_mut()[station].queue;
        queue.enqueue(request);
        let depth = queue.depth();
        self.iostat.observe_queue_depth(tier, depth);
    }

    fn dispatch(&mut self, station: usize) {
        self.stations.as_mut()[station].dispatch_ready(self.clock, &mut self.events);
    }

    fn handle_completion(&mut self, station: usize, slot: usize) {
        let InService { time: now, request, .. } = self.stations.as_mut()[station].finish(slot);
        self.events.finish_service();
        self.clock = now;
        let latency = request.latency().map(|d| d.as_micros()).unwrap_or_default();
        let tier = self.monitor_tier(station);
        self.iostat.record_completion(tier, latency);
        if C::TIERED && tier == Tier::Cache {
            let counters = &mut self.counters[station];
            counters.completed += 1;
            counters.total_latency_us += latency;
            counters.max_latency_us = counters.max_latency_us.max(latency);
        }
        if request.origin() == RequestOrigin::Application {
            if let Some(parent) = request.parent() {
                self.app.complete_op(parent, now);
            }
        }
        self.dispatch(station);
    }

    /// Closes monitoring interval `index`, returning its report. The cache
    /// tier aggregates every level's completions; the queue depth reported
    /// is the *hot tier's* (the signal the paper's detector watches).
    pub fn end_interval(&mut self, index: u32) -> lbica_trace::monitor::IntervalReport {
        // Observationally invisible: it only moves the tiered module's
        // deferred movement deltas into its base counters, once an interval.
        self.cache.commit_moves();
        let cache_depth = self.stations()[0].outstanding();
        let disk_depth = self.disk().outstanding();
        let mut report = self.iostat.finish_interval(index, cache_depth, disk_depth);
        report.cache_queue_mix = self.probe.take();
        report.policy_label = self.cache.policy().label().to_string();
        report
    }

    /// Fills `out` with one [`TierLoad`] per cache level, hot tier first —
    /// the tier vector handed to tier-aware controllers; empty when flat.
    pub fn tier_loads_into(&self, out: &mut Vec<TierLoad>) {
        out.clear();
        if C::TIERED {
            out.extend(self.stations()[..self.tier_count()].iter().map(|station| TierLoad {
                queue_depth: station.outstanding(),
                avg_latency: station.avg_latency(),
            }));
        }
    }

    /// The hot tier's blended average device latency (`ssdLatency`).
    pub fn cache_avg_latency(&self) -> SimDuration {
        self.stations()[0].avg_latency()
    }

    /// The disk subsystem's blended average latency (`hddLatency`).
    pub fn disk_avg_latency(&self) -> SimDuration {
        self.disk().avg_latency()
    }

    /// The current write policy (the hot tier's).
    pub fn policy(&self) -> WritePolicy {
        self.cache.policy()
    }

    /// Assigns a new write policy: to the flat cache, to every level of a
    /// uniform-configured hierarchy, or to the hot tier only when per-level
    /// policies were explicitly configured (see
    /// [`lbica_tier::TieredCacheModule::set_policy`]).
    pub fn set_policy(&mut self, policy: WritePolicy) {
        self.cache.set_policy(policy);
    }

    /// The per-level write policies currently in force, hot tier first;
    /// empty when flat.
    pub fn level_policies(&self) -> &[WritePolicy] {
        self.cache.level_policies()
    }

    /// Applies a controller decision's policy; returns the new Fig. 6
    /// label when the assignment changed.
    pub(crate) fn apply_policy(&mut self, decision: &ControllerDecision) -> Option<String> {
        self.cache.apply_policy(decision).then(|| self.cache.policy_label())
    }

    /// The Fig. 6 label of the assignment in force.
    pub(crate) fn policy_label(&self) -> String {
        self.cache.policy_label()
    }

    /// Read-only access to the hot tier's queue (for controller contexts).
    pub fn cache_queue(&self) -> &DeviceQueue {
        self.stations()[0].queue()
    }

    /// Applies a controller's bypass directive: tail spills re-home the
    /// drained requests at a lower cache level; plain bypasses and SIB-style
    /// victim lists serve them from the disk subsystem. With one cache level
    /// there is nowhere to spill: a write spill goes to the disk like a
    /// plain tail bypass, and a read spill — reads never fall through to the
    /// disk — is a no-op. Returns how many requests were moved or cancelled.
    pub fn apply_bypass(&mut self, directive: &BypassDirective) -> usize {
        let spills = self.tier_count() > 1;
        let hot = &mut self.stations.as_mut()[0].queue;
        let moved = match *directive {
            BypassDirective::None => return 0,
            BypassDirective::SpillTailWrites { max_requests, target_level } if spills => {
                return self.spill_tail(max_requests, target_level, RequestClass::Write)
            }
            BypassDirective::SpillTailReads { max_requests, target_level } if spills => {
                return self.spill_tail(max_requests, target_level, RequestClass::Read)
            }
            BypassDirective::SpillTailReads { .. } => return 0,
            BypassDirective::TailWrites { max_requests }
            | BypassDirective::SpillTailWrites { max_requests, .. } => {
                hot.drain_tail(max_requests, |r| r.class() == RequestClass::Write)
            }
            BypassDirective::Requests(ref ids) => hot.remove_by_ids(ids),
        };
        let count = moved.len();
        for request in moved {
            self.redirect_to_disk(request);
        }
        if count > 0 {
            self.dispatch(self.tier_count());
        }
        count
    }

    /// The spill-chain action: drain application requests of `class` off
    /// the hot tier's tail and serve them from cache level `target_level`
    /// instead, moving their block metadata (and any demotions the
    /// re-homing causes) with them.
    fn spill_tail(
        &mut self,
        max_requests: usize,
        target_level: usize,
        class: RequestClass,
    ) -> usize {
        let target = target_level.clamp(1, self.tier_count() - 1);
        let moved =
            self.stations.as_mut()[0].queue.drain_tail(max_requests, |r| r.class() == class);
        let count = moved.len();
        if count == 0 {
            return 0;
        }
        let now = self.clock;
        let mut outcome = std::mem::take(&mut self.outcome_scratch);
        for request in moved {
            self.cache.absorb_spill(&request, target, &mut outcome);
            // Demotions caused by re-homing the block fan out first, then
            // the spilled request itself joins the target level's queue.
            let parent = request.parent().unwrap_or(request.id());
            self.enqueue_outcome(parent, C::ops(&outcome), now);
            self.enqueue_at(target, request);
        }
        self.outcome_scratch = outcome;
        match class {
            RequestClass::Write => self.spilled_requests += count as u64,
            _ => self.spilled_reads += count as u64,
        }
        self.dispatch(target);
        count
    }

    fn redirect_to_disk(&mut self, request: IoRequest) {
        match request.class() {
            RequestClass::Write | RequestClass::Read => {
                // The block's cached copy (if any) is stale once the write
                // is served by the disk subsystem.
                if request.class() == RequestClass::Write {
                    for block in request.range().block_indices() {
                        self.cache.invalidate_block(block);
                    }
                }
                self.enqueue_at(self.tier_count(), request);
            }
            RequestClass::Promote => {
                // Cancelling a promotion: the block never makes it into the
                // cache, so drop the metadata entry that was pre-created.
                for block in request.range().block_indices() {
                    self.cache.invalidate_block(block);
                }
            }
            RequestClass::Evict => {
                // Evictions carry dirty victim data; they must stay where
                // they were queued. Put the request back.
                self.stations.as_mut()[0].queue.enqueue(request);
            }
        }
    }

    /// Serializes the full mid-flight system state for a replay checkpoint.
    ///
    /// Meant to be called at a monitoring-interval boundary (after
    /// [`System::end_interval`]). The monitors' *in-progress*
    /// accumulators are stored too: they are usually fresh at a boundary,
    /// but a boundary-time controller action — a bypass moving queued
    /// requests to the disk subsystem — has already fed the next interval's
    /// counters by the time the snapshot is taken. The finished-interval
    /// history is not stored; the runner's accumulated reports carry it.
    pub fn snap_to(&self, w: &mut SnapWriter) {
        self.cache.snap_to(w);
        if C::TIERED {
            w.put_usize(self.tier_count());
        }
        for station in self.stations() {
            station.snap_to(w);
        }
        if C::TIERED {
            for c in &self.counters {
                w.put_u64(c.completed);
                w.put_u64(c.total_latency_us);
                w.put_u64(c.max_latency_us);
            }
        }
        let disk = self.tier_count();
        let held = self
            .stations()
            .iter()
            .enumerate()
            .flat_map(|(level, station)| {
                station.held_events(move |request| {
                    if level == disk {
                        EventKind::Completion { tier: TierId::Disk, request }
                    } else {
                        C::completion_tag(level, request)
                    }
                })
            })
            .collect();
        self.events.snap_to(w, held);
        w.put_u64(self.clock.as_micros());
        self.app.snap_to(w, self.next_id);
        w.put_u64(self.events_processed);
        if C::TIERED {
            w.put_u64(self.spilled_requests);
            w.put_u64(self.spilled_reads);
        }
        self.iostat.snap_to(w);
        self.probe.snap_to(w);
    }

    /// Restores state written by [`System::snap_to`] into this config-built
    /// system. The config must match the one the snapshot was taken under;
    /// geometry mismatches surface as typed [`SnapError::Corrupt`] errors,
    /// and so do completions that disagree with the stations' stored
    /// in-service counts.
    pub fn snap_state_from(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.cache.snap_state_from(r)?;
        let disk = self.tier_count();
        if C::TIERED && r.get_usize()? != disk {
            return Err(SnapError::Corrupt("station level count mismatch"));
        }
        let mut in_service = Vec::with_capacity(self.stations().len());
        for station in self.stations.as_mut() {
            in_service.push(station.snap_state_from(r)?);
        }
        if C::TIERED {
            for c in &mut self.counters {
                c.completed = r.get_u64()?;
                c.total_latency_us = r.get_u64()?;
                c.max_latency_us = r.get_u64()?;
            }
        }
        let stations = self.stations.as_mut();
        self.events.snap_state_from(r, |time, seq, kind| {
            let (station, request) = match kind {
                EventKind::Completion { tier: TierId::Disk, request } => (disk, request),
                kind => C::held_level(kind, disk)?,
            };
            stations[station].hold(time, seq, request)
        })?;
        for (station, &stored) in self.stations().iter().zip(&in_service) {
            station.check_in_service(stored)?;
        }
        self.clock = SimTime::from_micros(r.get_u64()?);
        self.next_id = self.app.snap_state_from(r)?;
        self.events.check_arrival_ids(self.next_id, |id| self.app.is_live(id))?;
        self.events_processed = r.get_u64()?;
        if C::TIERED {
            self.spilled_requests = r.get_u64()?;
            self.spilled_reads = r.get_u64()?;
        }
        self.iostat.snap_state_from(r)?;
        self.probe.snap_state_from(r)?;
        Ok(())
    }

    /// Number of events still pending (for drain loops at the end of a run).
    pub fn pending_events(&self) -> usize {
        self.events.len()
    }

    /// Drains outstanding work by running the event loop in fixed 100 ms
    /// steps until no events remain, but for at most `max_steps` steps —
    /// a hard cap that bounds the wall-clock cost of a pathological
    /// backlog. Returns `true` if the system fully drained.
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
        (0..self.tier_count()).fold((0, 0), |(p, d), level| {
            let movement = self.cache.level_movement(level);
            (p + movement.promotions_in, d + movement.demotions_in)
        })
    }

    /// Snapshot of the cumulative per-level statistics — the
    /// [`TierLevelStats`] rows surfaced on the simulation report; empty
    /// when flat.
    pub fn tier_level_stats(&self) -> Vec<TierLevelStats> {
        if !C::TIERED {
            return Vec::new();
        }
        (0..self.tier_count())
            .map(|level| {
                let stats = self.cache.level_stats(level);
                let movement = self.cache.level_movement(level);
                let (cached_blocks, dirty_blocks) = self.cache.level_blocks(level);
                let counters = &self.counters[level];
                let queue_stats = self.stations()[level].queue().stats();
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
                    cached_blocks,
                    dirty_blocks,
                }
            })
            .collect()
    }
}

impl StorageSystem {
    /// The SSD cache station.
    pub fn ssd(&self) -> &DeviceStation {
        &self.stations()[0]
    }
}

impl sealed::Sealed for CacheModule {
    fn arena_slot(arena: &mut SimArena) -> &mut Option<(SimulationConfig, StorageSystem)> {
        &mut arena.flat
    }
}

impl CacheFront for CacheModule {
    type Op = DerivedOp;
    type Outcome = CacheOutcome;
    type Stations = [DeviceStation; 2];
    const TIERED: bool = false;

    fn build(config: &SimulationConfig, disk: DeviceStation) -> (Self, [DeviceStation; 2]) {
        let mut cache = CacheModule::new(config.cache);
        if config.prewarm_cache {
            cache.prewarm_full();
        }
        let ssd = AnyDeviceModel::Ssd(SsdModel::new(config.cache_device));
        (cache, [DeviceStation::new("ssd-cache", ssd, config.ssd_parallelism), disk])
    }
    fn rebuild(&mut self, config: &SimulationConfig) {
        self.reset();
        if config.prewarm_cache {
            self.prewarm_full();
        }
    }
    fn access_into(&mut self, request: &IoRequest, outcome: &mut CacheOutcome) {
        CacheModule::access_into(self, request, outcome);
    }
    fn ops(outcome: &CacheOutcome) -> &[DerivedOp] {
        outcome.ops()
    }
    fn route(op: &DerivedOp, disk: usize) -> (usize, RequestKind, RequestOrigin, BlockRange) {
        let station = match op.target {
            TargetDevice::Ssd => 0,
            TargetDevice::Hdd => disk,
        };
        (station, op.kind, op.origin, op.range)
    }
    fn invalidate_block(&mut self, block: u64) {
        CacheModule::invalidate_block(self, block);
    }
    fn absorb_spill(&mut self, _: &IoRequest, _: usize, _: &mut CacheOutcome) {
        unreachable!("a flat cache has no lower level to spill to")
    }
    fn policy(&self) -> WritePolicy {
        CacheModule::policy(self)
    }
    fn set_policy(&mut self, policy: WritePolicy) {
        CacheModule::set_policy(self, policy);
    }
    fn level_policies(&self) -> &[WritePolicy] {
        &[]
    }
    /// The flat cache has one policy knob; per-level assignments do not
    /// apply to it.
    fn apply_policy(&mut self, decision: &ControllerDecision) -> bool {
        if decision.policy == self.policy() {
            return false;
        }
        CacheModule::set_policy(self, decision.policy);
        true
    }
    fn policy_label(&self) -> String {
        self.policy().label().to_string()
    }
    fn level_stats(&self, _: usize) -> &CacheStats {
        self.stats()
    }
    fn level_movement(&self, _: usize) -> TierMovement {
        TierMovement::default()
    }
    fn level_blocks(&self, _: usize) -> (usize, usize) {
        (self.cached_blocks(), self.dirty_blocks())
    }
    fn completion_tag(_: usize, request: IoRequest) -> EventKind {
        EventKind::Completion { tier: TierId::Ssd, request }
    }
    fn held_level(kind: EventKind, _: usize) -> Result<(usize, IoRequest), SnapError> {
        match kind {
            EventKind::Completion { tier: TierId::Ssd, request } => Ok((0, request)),
            _ => Err(SnapError::Corrupt("level completion in a flat system")),
        }
    }
    fn snap_to(&self, w: &mut SnapWriter) {
        CacheModule::snap_to(self, w);
    }
    fn snap_state_from(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        CacheModule::snap_state_from(self, r)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use lbica_storage::request::RequestKind;

    pub(crate) fn record(ts: u64, sector: u64, kind: RequestKind) -> TraceRecord {
        TraceRecord::new(ts, sector, 8, kind)
    }

    fn tiny_system() -> StorageSystem {
        StorageSystem::new(&SimulationConfig::tiny())
    }

    #[test]
    fn prewarmed_read_hits_complete_on_the_ssd_only() {
        let mut sys = tiny_system();
        sys.schedule_record(&record(0, 0, RequestKind::Read));
        sys.run_until(SimTime::from_millis(10));
        assert_eq!(sys.app_completed(), 1);
        let report = sys.end_interval(0);
        assert_eq!(report.cache.completed, 1);
        assert_eq!(report.disk.completed, 0);
        // A single uncontended SSD read: latency equals the device's read
        // latency.
        assert_eq!(report.cache.max_latency_us, 90);
    }

    #[test]
    fn read_miss_touches_both_tiers() {
        let mut sys = tiny_system();
        // Address far outside the prewarmed region.
        sys.schedule_record(&record(0, 10_000_000, RequestKind::Read));
        sys.run_until(SimTime::from_millis(50));
        let report = sys.end_interval(0);
        assert_eq!(report.disk.completed, 1, "miss data comes from the disk subsystem");
        assert!(report.cache.completed >= 1, "the promote lands on the SSD");
        assert_eq!(sys.app_completed(), 1);
        assert_eq!(sys.cache().stats().read_misses, 1);
    }

    #[test]
    fn app_latency_tracks_slowest_datapath_leg() {
        let mut sys = tiny_system();
        sys.schedule_record(&record(0, 10_000_000, RequestKind::Read));
        sys.run_until(SimTime::from_millis(50));
        // Miss served by the mid-range-SSD disk tier: ~350 µs.
        assert!(sys.app_avg_latency_us() >= 300, "got {}", sys.app_avg_latency_us());
        assert!(sys.app_max_latency_us() >= sys.app_avg_latency_us());
    }

    #[test]
    fn queue_builds_up_when_arrivals_exceed_service_rate() {
        let mut sys = tiny_system();
        // 200 writes arriving in the same microsecond: the single-slot SSD
        // cannot keep up.
        for i in 0..200u64 {
            sys.schedule_record(&record(1, (i % 500) * 8, RequestKind::Write));
        }
        sys.run_until(SimTime::from_micros(2_000));
        assert!(sys.ssd().outstanding() > 50, "outstanding {}", sys.ssd().outstanding());
        let report = sys.end_interval(0);
        assert!(report.cache.queue_depth > 50);
        assert!(report.cache_queue_mix.writes >= 150);
    }

    #[test]
    fn bypass_tail_writes_moves_load_to_the_disk() {
        let mut sys = tiny_system();
        for i in 0..100u64 {
            sys.schedule_record(&record(1, (i % 500) * 8, RequestKind::Write));
        }
        sys.run_until(SimTime::from_micros(1_000));
        let before = sys.ssd().outstanding();
        let moved = sys.apply_bypass(&BypassDirective::TailWrites { max_requests: 40 });
        assert!(moved > 0);
        assert!(sys.ssd().outstanding() < before);
        assert!(sys.disk().outstanding() > 0);
        // Invalidations were recorded for the redirected writes.
        assert!(sys.cache().stats().invalidations > 0);
    }

    #[test]
    fn bypass_none_is_a_no_op() {
        let mut sys = tiny_system();
        sys.schedule_record(&record(0, 0, RequestKind::Write));
        sys.run_until(SimTime::from_micros(10));
        assert_eq!(sys.apply_bypass(&BypassDirective::None), 0);
    }

    #[test]
    fn policy_switch_takes_effect_for_future_accesses() {
        let mut sys = tiny_system();
        sys.set_policy(WritePolicy::ReadOnly);
        assert_eq!(sys.policy(), WritePolicy::ReadOnly);
        sys.schedule_record(&record(0, 0, RequestKind::Write));
        sys.run_until(SimTime::from_millis(10));
        let report = sys.end_interval(0);
        // The write bypassed the cache entirely.
        assert_eq!(report.disk.completed, 1);
        assert_eq!(report.cache.completed, 0);
    }

    #[test]
    fn interval_reports_reset_between_intervals() {
        let mut sys = tiny_system();
        sys.schedule_record(&record(0, 0, RequestKind::Read));
        sys.run_until(SimTime::from_millis(1));
        let r0 = sys.end_interval(0);
        assert_eq!(r0.cache.completed, 1);
        sys.run_until(SimTime::from_millis(2));
        let r1 = sys.end_interval(1);
        assert_eq!(r1.cache.completed, 0);
        assert_eq!(r1.index, 1);
    }

    #[test]
    fn drain_terminates_on_a_pathological_backlog() {
        let mut sys = tiny_system();
        // 20 000 simultaneous writes through a single-slot SSD (~90 µs
        // each) need ~1.8 simulated seconds — far beyond a 3-step
        // (300 ms) cap. The old open-ended loop would keep extending its
        // deadline; `drain` must give up instead.
        for i in 0..20_000u64 {
            sys.schedule_record(&record(0, (i % 500) * 8, RequestKind::Write));
        }
        assert!(!sys.drain(3), "the cap must trip before the backlog clears");
        assert!(sys.pending_events() > 0);
        // The clock advanced exactly max_steps × 100 ms.
        assert_eq!(sys.now(), SimTime::from_millis(300));
    }

    #[test]
    fn the_cached_next_completion_is_the_smallest_held_key() {
        use lbica_storage::hash::splitmix64;
        let mut state = 0u64;
        let mut draw = |bound: u64| {
            state += 1;
            splitmix64(state) % bound
        };
        for parallelism in 1..=8 {
            let mut events = EventQueue::new();
            let mut station = DeviceStation::new("model", SsdModel::samsung_863a(), parallelism);
            let mut id = 0;
            for _ in 0..2_000 {
                match draw(16) {
                    0..=5 => {
                        for _ in 0..draw(4) {
                            id += 1;
                            let kind =
                                if draw(2) == 0 { RequestKind::Read } else { RequestKind::Write };
                            let sectors = 8 * (1 + draw(64));
                            station.queue.enqueue(IoRequest::new(
                                id,
                                kind,
                                RequestOrigin::Application,
                                draw(1 << 20) * 8,
                                sectors,
                            ));
                        }
                        // Dispatch times jump around so that completions
                        // land out of slot order.
                        station.dispatch_ready(SimTime::from_micros(draw(10_000)), &mut events);
                    }
                    6..=11 if station.in_service() > 0 => {
                        station.finish(draw(station.in_service() as u64) as usize);
                        events.finish_service();
                    }
                    12..=14 if station.in_service() < parallelism => {
                        id += 1;
                        let time = SimTime::from_micros(draw(20_000));
                        let mut request = record(0, 0, RequestKind::Read).to_request(id);
                        request.mark_dispatched(SimTime::ZERO);
                        request.mark_completed(time);
                        station.hold(time, events.start_service(), request).unwrap();
                    }
                    15 if draw(20) == 0 => {
                        station.reset();
                        events.reset();
                    }
                    _ => {}
                }
                let smallest = station
                    .slots
                    .iter()
                    .enumerate()
                    .map(|(slot, h)| (event_key((h.time, h.seq)), slot))
                    .min_by_key(|&(key, _)| key)
                    .unwrap_or((NO_EVENT, 0));
                assert_eq!(station.next_completion(), smallest);
            }
        }
    }

    /// A system with completions in service at both stations.
    fn busy_system() -> StorageSystem {
        let mut sys = tiny_system();
        for i in 0..40u64 {
            // Alternate prewarmed hits with misses far outside the cache.
            let sector = if i % 2 == 0 { (i % 500) * 8 } else { 10_000_000 + i * 8 };
            sys.schedule_record(&record(i * 10, sector, RequestKind::Read));
        }
        sys.run_until(SimTime::from_micros(200));
        assert!(sys.ssd().in_service() > 0 && sys.disk().in_service() > 0);
        sys
    }

    // The behaviours both flavors share, each run on the flat system here
    // and on the two-level hierarchy in `crate::tiered`'s tests.

    fn tiny() -> SimulationConfig {
        SimulationConfig::tiny()
    }

    #[test]
    fn run_until_resolves_only_the_arrivals_due_by_its_limit() {
        twins::run_until_resolves_only_the_arrivals_due_by_its_limit::<CacheModule>(&tiny());
    }

    #[test]
    fn a_bypass_between_two_calls_is_seen_by_the_next_calls_lookups() {
        twins::a_bypass_between_two_calls_is_seen_by_the_next_calls_lookups::<CacheModule>(&tiny());
    }

    #[test]
    fn the_staging_buffer_is_empty_between_calls_and_after_reset() {
        twins::the_staging_buffer_is_empty_between_calls_and_after_reset::<CacheModule>(&tiny());
    }

    #[test]
    fn mid_flight_snapshot_resumes_identically_to_the_unsplit_run() {
        twins::mid_flight_snapshot_resumes_identically::<CacheModule>(&tiny(), 700);
    }

    #[test]
    fn an_arrival_and_a_completion_at_the_same_us_fire_in_seq_order() {
        twins::an_arrival_and_a_completion_at_the_same_us_fire_in_seq_order::<CacheModule>(&tiny());
    }

    #[test]
    fn a_snapshot_with_completions_at_every_station_round_trips_byte_identically() {
        twins::a_busy_snapshot_round_trips_byte_identically(&tiny(), busy_system());
    }

    #[test]
    fn a_snapshot_whose_in_service_count_disagrees_with_its_completions_is_corrupt() {
        twins::a_wrong_in_service_count_is_corrupt(&tiny(), busy_system());
    }

    #[test]
    fn a_snapshot_with_misstamped_requests_is_corrupt() {
        twins::misstamped_requests_are_corrupt(&tiny(), busy_system, 0);
    }

    #[test]
    fn a_checkpointed_live_id_past_the_next_id_is_corrupt() {
        twins::a_checkpointed_live_id_past_the_next_id_is_corrupt::<CacheModule>(&tiny());
    }

    #[test]
    fn a_restored_arrival_id_at_or_past_the_next_id_is_corrupt() {
        twins::a_restored_arrival_id_at_or_past_the_next_id_is_corrupt::<CacheModule>(&tiny());
    }

    #[test]
    fn conservation_all_scheduled_requests_eventually_complete() {
        twins::every_scheduled_request_completes::<CacheModule>(&tiny(), 2_000);
    }

    #[test]
    fn drain_completes_a_finite_backlog_and_reports_success() {
        twins::drain_completes_a_finite_backlog::<CacheModule>(&tiny());
    }

    /// One body per behaviour both flavors share, generic over the cache
    /// module. `config` builds the system; the hot tier holds blocks
    /// `0..512` prewarmed in both flavors' tiny configurations.
    pub(crate) mod twins {
        use super::*;
        use crate::controller::StaticPolicyController;
        use lbica_trace::workload::{WorkloadScale, WorkloadSpec};

        fn snap_bytes<C: CacheFront>(sys: &System<C>) -> Vec<u8> {
            let mut w = SnapWriter::new();
            sys.snap_to(&mut w);
            w.into_bytes()
        }

        fn hot_stats<C: CacheFront>(sys: &System<C>) -> CacheStats {
            *sys.cache().level_stats(0)
        }

        pub(crate) fn run_until_resolves_only_the_arrivals_due_by_its_limit<C: CacheFront>(
            config: &SimulationConfig,
        ) {
            let mut sys = System::<C>::new(config);
            sys.schedule_record(&record(10, 0, RequestKind::Write));
            sys.schedule_record(&record(60, 8, RequestKind::Write));
            sys.run_until(SimTime::from_micros(50));
            sys.set_policy(WritePolicy::ReadOnly);
            sys.run_until(SimTime::from_millis(1));
            // Looked up before the switch, the second write would have hit
            // the write-back hot tier.
            assert_eq!(hot_stats(&sys).write_hits, 1);
            assert_eq!(hot_stats(&sys).write_bypasses, 1);
            let report = sys.end_interval(0);
            assert_eq!((report.cache.completed, report.disk.completed), (1, 1));
        }

        pub(crate) fn a_bypass_between_two_calls_is_seen_by_the_next_calls_lookups<
            C: CacheFront,
        >(
            config: &SimulationConfig,
        ) {
            let mut sys = System::<C>::new(config);
            for i in 0..100u64 {
                sys.schedule_record(&record(1, i * 8, RequestKind::Write));
            }
            sys.run_until(SimTime::from_micros(1_000));
            let moved = sys.apply_bypass(&BypassDirective::TailWrites { max_requests: 40 });
            assert!(moved > 0);
            // Every redirected write invalidated its block at every level,
            // so reading the 100 blocks back misses exactly on those.
            for i in 0..100u64 {
                sys.schedule_record(&record(1_001, i * 8, RequestKind::Read));
            }
            sys.run_until(SimTime::from_micros(1_002));
            assert_eq!(hot_stats(&sys).read_misses, moved as u64);
        }

        pub(crate) fn the_staging_buffer_is_empty_between_calls_and_after_reset<C: CacheFront>(
            config: &SimulationConfig,
        ) {
            let mut sys = System::<C>::new(config);
            for i in 0..20u64 {
                sys.schedule_record(&record(i * 10, i * 8, RequestKind::Read));
            }
            sys.run_until(SimTime::from_micros(95));
            assert!(sys.staged.is_empty());
            sys.reset(config);
            assert!(sys.staged.is_empty());
            assert_eq!(sys.pending_events(), 0);
        }

        /// Reads and writes over the first `span` blocks, snapshotted
        /// mid-flight, then driven identically with the restored copy.
        pub(crate) fn mid_flight_snapshot_resumes_identically<C: CacheFront>(
            config: &SimulationConfig,
            span: u64,
        ) {
            let mut sys = System::<C>::new(config);
            for i in 0..200u64 {
                let kind = if i % 3 == 0 { RequestKind::Write } else { RequestKind::Read };
                sys.schedule_record(&record(i * 5, (i % span) * 8, kind));
            }
            sys.run_until(SimTime::from_micros(500));
            let _ = sys.end_interval(0);
            assert!(sys.pending_events() > 0, "the snapshot must cover in-flight work");

            let bytes = snap_bytes(&sys);
            let mut restored = System::<C>::new(config);
            let mut r = SnapReader::new(&bytes);
            restored.snap_state_from(&mut r).unwrap();
            r.finish().unwrap();

            // Drive both through an identical second interval.
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
            assert_eq!(restored.app_avg_latency_us(), sys.app_avg_latency_us());
            assert_eq!(hot_stats(&restored), hot_stats(&sys));
            assert_eq!(restored.tier_level_stats(), sys.tier_level_stats());
            assert_eq!(restored.pending_events(), sys.pending_events());
            assert!(restored.drain(600) && sys.drain(600));
            assert_eq!(restored.app_completed(), sys.app_completed());
            assert_eq!(restored.app_max_latency_us(), sys.app_max_latency_us());
            assert_eq!(restored.tier_level_stats(), sys.tier_level_stats());
        }

        /// Peak hot-tier queue depth when a read arrives at exactly the µs
        /// the in-service read completes. `arrive_first` schedules that
        /// arrival before the completion exists, so it takes the smaller
        /// seq.
        fn peak_hot_depth_at_a_tie<C: CacheFront>(
            config: &SimulationConfig,
            arrive_first: bool,
        ) -> usize {
            let mut sys = System::<C>::new(config);
            // A prewarmed hit at t=0 occupies the single hot slot until
            // t=90; the hit at t=10 waits behind it.
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

        pub(crate) fn an_arrival_and_a_completion_at_the_same_us_fire_in_seq_order<
            C: CacheFront,
        >(
            config: &SimulationConfig,
        ) {
            // The earlier-scheduled arrival fires first and queues behind
            // both pending reads; the later one finds the completion
            // already fired and the waiting read in service.
            assert_eq!(peak_hot_depth_at_a_tie::<C>(config, true), 2);
            assert_eq!(peak_hot_depth_at_a_tie::<C>(config, false), 1);
        }

        /// `sys` has completions in service at every station.
        pub(crate) fn a_busy_snapshot_round_trips_byte_identically<C: CacheFront>(
            config: &SimulationConfig,
            sys: System<C>,
        ) {
            let bytes = snap_bytes(&sys);
            let mut restored = System::<C>::new(config);
            let mut r = SnapReader::new(&bytes);
            restored.snap_state_from(&mut r).unwrap();
            r.finish().unwrap();
            for level in 0..sys.tier_count() {
                assert_eq!(restored.level(level).in_service(), sys.level(level).in_service());
            }
            assert_eq!(restored.disk().in_service(), sys.disk().in_service());
            assert_eq!(restored.pending_events(), sys.pending_events());
            assert_eq!(snap_bytes(&restored), bytes);
        }

        /// `sys` holds exactly one request in service at the hot tier.
        pub(crate) fn a_wrong_in_service_count_is_corrupt<C: CacheFront>(
            config: &SimulationConfig,
            sys: System<C>,
        ) {
            let mut bytes = snap_bytes(&sys);
            // The hot tier's in-service count ends its station section,
            // which follows the cache's and, when tiered, the level count.
            let section = |f: &dyn Fn(&mut SnapWriter)| {
                let mut w = SnapWriter::new();
                f(&mut w);
                w.len()
            };
            let level_count = if C::TIERED { 8 } else { 0 };
            let at = section(&|w| sys.cache.snap_to(w))
                + level_count
                + section(&|w| sys.stations()[0].snap_to(w))
                - 8;
            assert_eq!(bytes[at..at + 8], 1u64.to_le_bytes());
            bytes[at..at + 8].copy_from_slice(&0u64.to_le_bytes());
            let err = System::<C>::new(config).snap_state_from(&mut SnapReader::new(&bytes));
            assert_eq!(
                err,
                Err(SnapError::Corrupt("in-service count disagrees with pending completions"))
            );
        }

        /// Misstamps a request at `station` of a fresh `busy()` system, once
        /// per case.
        pub(crate) fn misstamped_requests_are_corrupt<C: CacheFront>(
            config: &SimulationConfig,
            busy: fn() -> System<C>,
            station: usize,
        ) {
            for case in 0..3 {
                let mut sys = busy();
                let expected = sys.stations.as_mut()[station].misstamp(case);
                let err = System::<C>::new(config)
                    .snap_state_from(&mut SnapReader::new(&snap_bytes(&sys)));
                assert_eq!(err, Err(expected), "case {case}");
            }
        }

        pub(crate) fn a_checkpointed_live_id_past_the_next_id_is_corrupt<C: CacheFront>(
            config: &SimulationConfig,
        ) {
            let spec = WorkloadSpec::tpcc_scaled(WorkloadScale::tiny());
            let sim = || crate::Simulation::new(*config, spec.clone(), 11);
            let mut cp = sim()
                .run_to_checkpoint(
                    &mut StaticPolicyController::write_back(),
                    spec.total_intervals() / 2,
                )
                .unwrap();
            let mut sys = System::<C>::new(config);
            sys.snap_state_from(&mut SnapReader::new(&cp.state)).unwrap();
            // Unbounded, the dense id index would grow to 2^56 entries and
            // abort.
            sys.app.overwrite_first_live_id(&mut cp.state, sys.next_id, 1 << 56);
            let err = sim()
                .resume_from_checkpoint(&mut StaticPolicyController::write_back(), &cp)
                .unwrap_err();
            assert_eq!(err, SnapError::Corrupt("live request id at or past the next id"));
        }

        pub(crate) fn a_restored_arrival_id_at_or_past_the_next_id_is_corrupt<C: CacheFront>(
            config: &SimulationConfig,
        ) {
            // Accepted, the arrival would share its id with the next record
            // scheduled and register that id twice once both fire.
            let mut sys = System::<C>::new(config);
            sys.schedule_record(&record(0, 0, RequestKind::Read));
            sys.next_id = 1;
            let mut restored = System::<C>::new(config);
            let result = restored.snap_state_from(&mut SnapReader::new(&snap_bytes(&sys)));
            if result.is_ok() {
                restored.schedule_record(&record(10, 8, RequestKind::Read));
                restored.run_until(SimTime::from_millis(10));
            }
            assert_eq!(
                result,
                Err(SnapError::Corrupt("pending arrival id at or past the next id"))
            );
        }

        /// Reads and writes over the first `span` blocks, run far past the
        /// last arrival so every queue drains.
        pub(crate) fn every_scheduled_request_completes<C: CacheFront>(
            config: &SimulationConfig,
            span: u64,
        ) {
            let mut sys = System::<C>::new(config);
            for i in 0..300u64 {
                let kind = if i % 3 == 0 { RequestKind::Write } else { RequestKind::Read };
                sys.schedule_record(&record(i * 20, (i % span) * 8, kind));
            }
            sys.run_until(SimTime::from_secs(10));
            assert_eq!(sys.app_completed(), 300);
            assert_eq!(sys.pending_events(), 0);
            for level in 0..sys.tier_count() {
                assert_eq!(sys.level(level).outstanding(), 0);
            }
            assert_eq!(sys.disk().outstanding(), 0);
        }

        pub(crate) fn drain_completes_a_finite_backlog<C: CacheFront>(config: &SimulationConfig) {
            let mut sys = System::<C>::new(config);
            for i in 0..50u64 {
                sys.schedule_record(&record(0, (i % 500) * 8, RequestKind::Write));
            }
            assert!(sys.drain(600), "50 requests drain well within the cap");
            assert_eq!(sys.app_completed(), 50);
            assert_eq!(sys.pending_events(), 0);
        }
    }
}
