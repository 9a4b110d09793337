//! The simulated storage system: cache module + two device stations.

use lbica_cache::{CacheModule, CacheOutcome, DerivedOp, TargetDevice, WritePolicy};
use lbica_storage::device::{AnyDeviceModel, DeviceModel, HddModel, SsdModel};
use lbica_storage::queue::DeviceQueue;
use lbica_storage::request::{IoRequest, RequestClass, RequestId, RequestOrigin};
use lbica_storage::snap::{SnapError, SnapReader, SnapWriter};
use lbica_storage::time::{SimDuration, SimTime};
use lbica_trace::monitor::{BlktraceProbe, IostatCollector, Tier};
use lbica_trace::record::TraceRecord;

use crate::config::{DiskDeviceConfig, SimulationConfig};
use crate::controller::BypassDirective;
use crate::event::{event_key, EventKind, EventQueue, NextEvent, StagedOps, NO_EVENT};
use crate::tracker::AppTracker;

/// Identifies one of the two device stations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TierId {
    /// The SSD cache device.
    Ssd,
    /// The disk subsystem.
    Disk,
}

impl TierId {
    fn monitor_tier(self) -> Tier {
        match self {
            TierId::Ssd => Tier::Cache,
            TierId::Disk => Tier::Disk,
        }
    }
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

/// The full simulated system: application entry point, cache module, SSD and
/// disk stations, monitors and the event queue.
#[derive(Debug)]
pub struct StorageSystem {
    cache: CacheModule,
    ssd: DeviceStation,
    disk: DeviceStation,
    events: EventQueue,
    clock: SimTime,
    iostat: IostatCollector,
    probe: BlktraceProbe,
    app: AppTracker,
    next_id: RequestId,
    events_processed: u64,
    /// Reused per-arrival outcome buffer (no allocation in the hot loop).
    outcome_scratch: CacheOutcome,
    /// The current `run_until` call's cache lookups.
    staged: StagedOps<DerivedOp>,
}

impl StorageSystem {
    /// Builds a system from a [`SimulationConfig`].
    pub fn new(config: &SimulationConfig) -> Self {
        let mut cache = CacheModule::new(config.cache);
        if config.prewarm_cache {
            cache.prewarm_full();
        }
        let ssd_model = AnyDeviceModel::Ssd(SsdModel::new(config.cache_device));
        let disk_model = match config.disk_device {
            DiskDeviceConfig::MidrangeSsd(cfg) => AnyDeviceModel::Ssd(SsdModel::new(cfg)),
            DiskDeviceConfig::Hdd(cfg) => AnyDeviceModel::Hdd(HddModel::new(cfg)),
        };
        StorageSystem {
            cache,
            ssd: DeviceStation::new("ssd-cache", ssd_model, config.ssd_parallelism),
            disk: DeviceStation::new("disk-subsystem", disk_model, config.disk_parallelism),
            events: EventQueue::new(),
            clock: SimTime::ZERO,
            iostat: IostatCollector::new(),
            probe: BlktraceProbe::new(),
            app: AppTracker::new(),
            next_id: 1,
            events_processed: 0,
            outcome_scratch: CacheOutcome::new(),
            staged: StagedOps::default(),
        }
    }

    /// Returns the system to the state [`StorageSystem::new`] would produce
    /// for the same config, reusing every backing allocation: cache slot
    /// arenas, device-queue ring buffers, service slots, the arrival lane,
    /// tracker slabs and monitor histories all keep their capacity.
    /// The caller (the [`crate::SimArena`]) guarantees the config is
    /// identical to the one the system was built with.
    pub(crate) fn reset(&mut self, config: &SimulationConfig) {
        self.cache.reset();
        if config.prewarm_cache {
            self.cache.prewarm_full();
        }
        self.ssd.reset();
        self.disk.reset();
        self.events.reset();
        self.clock = SimTime::ZERO;
        self.iostat.reset();
        self.probe.reset();
        self.app.reset();
        self.next_id = 1;
        self.events_processed = 0;
        self.outcome_scratch.clear();
    }

    /// The current simulated time.
    pub const fn now(&self) -> SimTime {
        self.clock
    }

    /// The cache module (policy, stats, contents).
    pub fn cache(&self) -> &CacheModule {
        &self.cache
    }

    /// The SSD cache station.
    pub fn ssd(&self) -> &DeviceStation {
        &self.ssd
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
        use std::slice::from_ref;
        let mut staged = std::mem::take(&mut self.staged);
        for request in self.events.arrivals_until(limit) {
            self.cache.access_into(&request, &mut self.outcome_scratch);
            staged.push(self.outcome_scratch.ops());
        }
        while let Some(next) =
            self.events.next_event([from_ref(&self.ssd), from_ref(&self.disk)], limit)
        {
            self.events_processed += 1;
            match next {
                NextEvent::Arrival => self.handle_arrival(staged.next_ops()),
                NextEvent::Completion { station: 0, slot } => {
                    self.handle_completion(TierId::Ssd, slot)
                }
                NextEvent::Completion { slot, .. } => self.handle_completion(TierId::Disk, slot),
            }
        }
        staged.clear();
        self.staged = staged;
        self.clock = limit;
    }

    /// Fires the arrival at the lane's front, whose staged lookup gave `ops`.
    fn handle_arrival(&mut self, ops: &[DerivedOp]) {
        let request = self.events.pop_arrival();
        let now = request.arrival();
        self.clock = now;
        let datapath_ops =
            ops.iter().filter(|op| op.origin == RequestOrigin::Application).count() as u32;
        self.app.register(request.id(), now, datapath_ops);
        self.enqueue_outcome(request.id(), ops, now);
    }

    fn enqueue_outcome(&mut self, parent: RequestId, ops: &[DerivedOp], now: SimTime) {
        let mut touched = [false; 2];
        for op in ops {
            let id = self.fresh_id();
            let derived = IoRequest::from_range(id, op.kind, op.origin, op.range)
                .with_arrival(now)
                .with_parent(parent);
            let tier = match op.target {
                TargetDevice::Ssd => TierId::Ssd,
                TargetDevice::Hdd => TierId::Disk,
            };
            touched[(tier == TierId::Disk) as usize] = true;
            self.enqueue_at(tier, derived);
        }
        // A tier that received nothing cannot have become dispatchable:
        // capacity only frees on completion, which dispatches that tier
        // itself — so skipping it is a semantic no-op.
        if touched[0] {
            self.try_dispatch(TierId::Ssd);
        }
        if touched[1] {
            self.try_dispatch(TierId::Disk);
        }
    }

    fn enqueue_at(&mut self, tier: TierId, request: IoRequest) {
        self.iostat.record_enqueue(tier.monitor_tier());
        if tier == TierId::Ssd {
            // The blktrace-style probe counts every request that enters the
            // cache queue during the interval.
            self.probe.observe_class(request.class());
        }
        let station = self.station_mut(tier);
        station.queue.enqueue(request);
        let depth = station.queue.depth();
        self.iostat.observe_queue_depth(tier.monitor_tier(), depth);
    }

    fn station_mut(&mut self, tier: TierId) -> &mut DeviceStation {
        match tier {
            TierId::Ssd => &mut self.ssd,
            TierId::Disk => &mut self.disk,
        }
    }

    fn try_dispatch(&mut self, tier: TierId) {
        let station = match tier {
            TierId::Ssd => &mut self.ssd,
            TierId::Disk => &mut self.disk,
        };
        station.dispatch_ready(self.clock, &mut self.events);
    }

    fn handle_completion(&mut self, tier: TierId, slot: usize) {
        let InService { time: now, request, .. } = self.station_mut(tier).finish(slot);
        self.events.finish_service();
        self.clock = now;
        let latency = request.latency().map(|d| d.as_micros()).unwrap_or_default();
        self.iostat.record_completion(tier.monitor_tier(), latency);
        if request.origin() == RequestOrigin::Application {
            if let Some(parent) = request.parent() {
                self.app.complete_op(parent, now);
            }
        }
        self.try_dispatch(tier);
    }

    /// Closes monitoring interval `index`, returning its report (queue
    /// depths, latencies and the interval's cache-queue class mix).
    pub fn end_interval(&mut self, index: u32) -> lbica_trace::monitor::IntervalReport {
        let cache_depth = self.ssd.outstanding();
        let disk_depth = self.disk.outstanding();
        let mut report = self.iostat.finish_interval(index, cache_depth, disk_depth);
        report.cache_queue_mix = self.probe.take();
        report.policy_label = self.cache.policy().label().to_string();
        report
    }

    /// The cache device's blended average latency (`ssdLatency`).
    pub fn cache_avg_latency(&self) -> SimDuration {
        self.ssd.avg_latency()
    }

    /// The disk subsystem's blended average latency (`hddLatency`).
    pub fn disk_avg_latency(&self) -> SimDuration {
        self.disk.avg_latency()
    }

    /// The current write policy of the cache.
    pub fn policy(&self) -> WritePolicy {
        self.cache.policy()
    }

    /// Assigns a new write policy to the cache module.
    pub fn set_policy(&mut self, policy: WritePolicy) {
        self.cache.set_policy(policy);
    }

    /// Applies a controller's bypass directive: moves the selected requests
    /// out of the cache queue and serves them from the disk subsystem.
    /// Returns how many requests were moved or cancelled.
    pub fn apply_bypass(&mut self, directive: &BypassDirective) -> usize {
        let moved = match directive {
            BypassDirective::None => Vec::new(),
            // A spill on a flat system has nowhere to go but the disk, so
            // the two tail directives coincide here.
            BypassDirective::TailWrites { max_requests }
            | BypassDirective::SpillTailWrites { max_requests, .. } => {
                self.ssd.queue.drain_tail(*max_requests, |r| r.class() == RequestClass::Write)
            }
            // A read spill has no flat analogue: there is no lower level to
            // serve from, and the paper never bypasses reads to the disk
            // subsystem, so the directive is a no-op here.
            BypassDirective::SpillTailReads { .. } => Vec::new(),
            BypassDirective::Requests(ids) => self.ssd.queue.remove_by_ids(ids),
        };
        let count = moved.len();
        for request in moved {
            self.redirect_to_disk(request);
        }
        if count > 0 {
            self.try_dispatch(TierId::Disk);
        }
        count
    }

    fn redirect_to_disk(&mut self, request: IoRequest) {
        match request.class() {
            RequestClass::Write | RequestClass::Read => {
                // The block's cached copy (if any) is stale or redundant once
                // the request is served by the disk subsystem.
                for block in request.range().block_indices() {
                    if request.class() == RequestClass::Write {
                        self.cache.invalidate_block(block);
                    }
                }
                self.enqueue_at(TierId::Disk, request);
            }
            RequestClass::Promote => {
                // Cancelling a promotion: the block never makes it into the
                // cache, so drop the metadata entry that was pre-created.
                for block in request.range().block_indices() {
                    self.cache.invalidate_block(block);
                }
            }
            RequestClass::Evict => {
                // Evictions carry dirty victim data; they must stay on the
                // cache device. Put the request back.
                self.ssd.queue.enqueue(request);
            }
        }
    }

    /// Read-only access to the cache queue (for controller contexts).
    pub fn cache_queue(&self) -> &DeviceQueue {
        self.ssd.queue()
    }

    /// Serializes the full mid-flight system state for a replay checkpoint.
    ///
    /// Meant to be called at a monitoring-interval boundary (after
    /// [`StorageSystem::end_interval`]). The monitors' *in-progress*
    /// accumulators are stored too: they are usually fresh at a boundary,
    /// but a boundary-time controller action — a bypass moving queued
    /// requests to the disk subsystem — has already fed the next interval's
    /// counters by the time the snapshot is taken. The finished-interval
    /// history is not stored; the runner's accumulated reports carry it.
    pub fn snap_to(&self, w: &mut SnapWriter) {
        self.cache.snap_to(w);
        self.ssd.snap_to(w);
        self.disk.snap_to(w);
        let completion = |tier| move |request| EventKind::Completion { tier, request };
        let held = self
            .ssd
            .held_events(completion(TierId::Ssd))
            .chain(self.disk.held_events(completion(TierId::Disk)))
            .collect();
        self.events.snap_to(w, held);
        w.put_u64(self.clock.as_micros());
        self.app.snap_to(w, self.next_id);
        w.put_u64(self.events_processed);
        self.iostat.snap_to(w);
        self.probe.snap_to(w);
    }

    /// Restores state written by [`StorageSystem::snap_to`] into this
    /// config-built system. The config must match the one the snapshot was
    /// taken under; geometry mismatches surface as typed
    /// [`SnapError::Corrupt`] errors, and so do completions that disagree
    /// with the stations' stored in-service counts.
    pub fn snap_state_from(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.cache.snap_state_from(r)?;
        let ssd_in_service = self.ssd.snap_state_from(r)?;
        let disk_in_service = self.disk.snap_state_from(r)?;
        let (ssd, disk) = (&mut self.ssd, &mut self.disk);
        self.events.snap_state_from(r, |time, seq, kind| match kind {
            EventKind::Completion { tier: TierId::Ssd, request } => ssd.hold(time, seq, request),
            EventKind::Completion { tier: TierId::Disk, request } => disk.hold(time, seq, request),
            _ => Err(SnapError::Corrupt("level completion in a flat system")),
        })?;
        self.ssd.check_in_service(ssd_in_service)?;
        self.disk.check_in_service(disk_in_service)?;
        self.clock = SimTime::from_micros(r.get_u64()?);
        self.next_id = self.app.snap_state_from(r)?;
        self.events.check_arrival_ids(self.next_id, |id| self.app.is_live(id))?;
        self.events_processed = r.get_u64()?;
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbica_storage::request::RequestKind;

    fn record(ts: u64, sector: u64, kind: RequestKind) -> TraceRecord {
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
    fn run_until_resolves_only_the_arrivals_due_by_its_limit() {
        let mut sys = tiny_system();
        sys.schedule_record(&record(10, 0, RequestKind::Write));
        sys.schedule_record(&record(60, 8, RequestKind::Write));
        sys.run_until(SimTime::from_micros(50));
        sys.set_policy(WritePolicy::ReadOnly);
        sys.run_until(SimTime::from_millis(1));
        // Looked up before the switch, the second write would have hit the
        // write-back cache.
        assert_eq!(sys.cache().stats().write_hits, 1);
        assert_eq!(sys.cache().stats().write_bypasses, 1);
        let report = sys.end_interval(0);
        assert_eq!((report.cache.completed, report.disk.completed), (1, 1));
    }

    #[test]
    fn a_bypass_between_two_calls_is_seen_by_the_next_calls_lookups() {
        let mut sys = tiny_system();
        for i in 0..100u64 {
            sys.schedule_record(&record(1, i * 8, RequestKind::Write));
        }
        sys.run_until(SimTime::from_micros(1_000));
        let moved = sys.apply_bypass(&BypassDirective::TailWrites { max_requests: 40 });
        assert!(moved > 0);
        // Every redirected write invalidated its block, so reading the 100
        // blocks back misses exactly on those.
        for i in 0..100u64 {
            sys.schedule_record(&record(1_001, i * 8, RequestKind::Read));
        }
        sys.run_until(SimTime::from_micros(1_002));
        assert_eq!(sys.cache().stats().read_misses, moved as u64);
    }

    #[test]
    fn the_staging_buffer_is_empty_between_calls_and_after_reset() {
        let config = SimulationConfig::tiny();
        let mut sys = StorageSystem::new(&config);
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
    fn drain_completes_a_finite_backlog_and_reports_success() {
        let mut sys = tiny_system();
        for i in 0..50u64 {
            sys.schedule_record(&record(0, (i % 500) * 8, RequestKind::Write));
        }
        assert!(sys.drain(600), "50 requests drain well within the cap");
        assert_eq!(sys.app_completed(), 50);
        assert_eq!(sys.pending_events(), 0);
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
    fn mid_flight_snapshot_resumes_identically_to_the_unsplit_run() {
        let config = SimulationConfig::tiny();
        let schedule_first = |sys: &mut StorageSystem| {
            for i in 0..200u64 {
                let kind = if i % 3 == 0 { RequestKind::Write } else { RequestKind::Read };
                sys.schedule_record(&record(i * 5, (i % 700) * 8, kind));
            }
        };
        let mut sys = StorageSystem::new(&config);
        schedule_first(&mut sys);
        sys.run_until(SimTime::from_micros(500));
        let _ = sys.end_interval(0);
        assert!(sys.pending_events() > 0, "the snapshot must cover in-flight work");

        let mut w = SnapWriter::new();
        sys.snap_to(&mut w);
        let bytes = w.into_bytes();
        let mut restored = StorageSystem::new(&config);
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
        assert_eq!(restored.cache().stats(), sys.cache().stats());
        assert_eq!(restored.pending_events(), sys.pending_events());
        assert!(restored.drain(600) && sys.drain(600));
        assert_eq!(restored.app_completed(), sys.app_completed());
        assert_eq!(restored.app_max_latency_us(), sys.app_max_latency_us());
    }

    /// Peak SSD queue depth when a read arrives at exactly the µs the
    /// in-service read completes. `arrive_first` schedules that arrival
    /// before the completion exists, so it takes the smaller seq.
    fn peak_ssd_depth_at_a_tie(arrive_first: bool) -> usize {
        let mut sys = tiny_system();
        // A prewarmed hit at t=0 occupies the single SSD slot until t=90;
        // the hit at t=10 waits behind it.
        sys.schedule_record(&record(0, 0, RequestKind::Read));
        sys.schedule_record(&record(10, 8, RequestKind::Read));
        if arrive_first {
            sys.schedule_record(&record(90, 16, RequestKind::Read));
        } else {
            sys.run_until(SimTime::from_micros(50));
            assert_eq!(sys.ssd().in_service(), 1);
            sys.schedule_record(&record(90, 16, RequestKind::Read));
        }
        sys.run_until(SimTime::from_millis(10));
        assert_eq!(sys.app_completed(), 3);
        sys.ssd().queue().stats().peak_depth
    }

    #[test]
    fn an_arrival_and_a_completion_at_the_same_us_fire_in_seq_order() {
        // The earlier-scheduled arrival fires first and queues behind both
        // pending reads; the later one finds the completion already fired
        // and the waiting read in service.
        assert_eq!(peak_ssd_depth_at_a_tie(true), 2);
        assert_eq!(peak_ssd_depth_at_a_tie(false), 1);
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

    fn snap_bytes(sys: &StorageSystem) -> Vec<u8> {
        let mut w = SnapWriter::new();
        sys.snap_to(&mut w);
        w.into_bytes()
    }

    #[test]
    fn a_snapshot_with_completions_at_every_station_round_trips_byte_identically() {
        let sys = busy_system();
        let bytes = snap_bytes(&sys);
        let mut restored = tiny_system();
        let mut r = SnapReader::new(&bytes);
        restored.snap_state_from(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(restored.ssd().in_service(), sys.ssd().in_service());
        assert_eq!(restored.disk().in_service(), sys.disk().in_service());
        assert_eq!(restored.pending_events(), sys.pending_events());
        assert_eq!(snap_bytes(&restored), bytes);
    }

    #[test]
    fn a_snapshot_whose_in_service_count_disagrees_with_its_completions_is_corrupt() {
        let sys = busy_system();
        let mut bytes = snap_bytes(&sys);
        // The SSD station's in-service count is the last field of its
        // section, which follows the cache's.
        let section = |f: &dyn Fn(&mut SnapWriter)| {
            let mut w = SnapWriter::new();
            f(&mut w);
            w.len()
        };
        let at = section(&|w| sys.cache.snap_to(w)) + section(&|w| sys.ssd.snap_to(w)) - 8;
        assert_eq!(bytes[at..at + 8], 1u64.to_le_bytes());
        bytes[at..at + 8].copy_from_slice(&0u64.to_le_bytes());
        let err = tiny_system().snap_state_from(&mut SnapReader::new(&bytes)).unwrap_err();
        assert_eq!(err, SnapError::Corrupt("in-service count disagrees with pending completions"));
    }

    #[test]
    fn a_snapshot_with_misstamped_requests_is_corrupt() {
        for case in 0..3 {
            let mut sys = busy_system();
            let expected = sys.ssd.misstamp(case);
            let err =
                tiny_system().snap_state_from(&mut SnapReader::new(&snap_bytes(&sys))).unwrap_err();
            assert_eq!(err, expected, "case {case}");
        }
    }

    #[test]
    fn a_checkpointed_live_id_past_the_next_id_is_corrupt() {
        use crate::controller::StaticPolicyController;
        use lbica_trace::workload::{WorkloadScale, WorkloadSpec};
        let config = SimulationConfig::tiny();
        let spec = WorkloadSpec::tpcc_scaled(WorkloadScale::tiny());
        let sim = || crate::Simulation::new(config, spec.clone(), 11);
        let mut cp = sim()
            .run_to_checkpoint(
                &mut StaticPolicyController::write_back(),
                spec.total_intervals() / 2,
            )
            .unwrap();
        let mut sys = StorageSystem::new(&config);
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
        let mut sys = tiny_system();
        sys.schedule_record(&record(0, 0, RequestKind::Read));
        sys.next_id = 1;
        let mut restored = tiny_system();
        let result = restored.snap_state_from(&mut SnapReader::new(&snap_bytes(&sys)));
        if result.is_ok() {
            restored.schedule_record(&record(10, 8, RequestKind::Read));
            restored.run_until(SimTime::from_millis(10));
        }
        assert_eq!(result, Err(SnapError::Corrupt("pending arrival id at or past the next id")));
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

    #[test]
    fn conservation_all_scheduled_requests_eventually_complete() {
        let mut sys = tiny_system();
        for i in 0..300u64 {
            sys.schedule_record(&record(
                i * 20,
                (i % 2_000) * 8,
                if i % 3 == 0 { RequestKind::Write } else { RequestKind::Read },
            ));
        }
        // Run far past the last arrival so every queue drains.
        sys.run_until(SimTime::from_secs(10));
        assert_eq!(sys.app_completed(), 300);
        assert_eq!(sys.pending_events(), 0);
        assert_eq!(sys.ssd().outstanding(), 0);
        assert_eq!(sys.disk().outstanding(), 0);
    }
}
