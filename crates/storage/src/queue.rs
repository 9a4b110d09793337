//! Device queues.
//!
//! [`DeviceQueue`] models the pending-request queue in front of a device —
//! the structure whose depth `iostat` reports as `avgqu-sz` and which the
//! paper calls `ssdQSize` / `hddQSize`. It is a plain FIFO: requests are
//! never merged, because each one the simulator queues is tied to the
//! application request it serves, and coalescing two would conflate their
//! completions. It tracks everything the monitors need: current depth,
//! per-request wait, the class mix of in-queue requests and cumulative
//! statistics.
//!
//! Bursts pile tens of thousands of requests up in a queue, so an entry is
//! a private 40-byte record rather than a 64-byte [`IoRequest`]: a queued
//! request has no dispatch or completion stamp to store, and its length
//! fits a `u32` (trace records are `u32` long and cache blocks are 8
//! sectors). [`DeviceQueue::dispatch`], [`DeviceQueue::iter`],
//! [`DeviceQueue::drain_tail`] and [`DeviceQueue::remove_by_ids`] rebuild
//! exactly the request that was enqueued.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

use crate::request::{IoRequest, RequestClass, RequestId, RequestKind, RequestOrigin};
use crate::snap::{SnapError, SnapReader, SnapWriter};
use crate::time::{SimDuration, SimTime};

/// A point-in-time view of a [`DeviceQueue`], as a `blktrace`-style probe
/// would capture it: how many requests of each class are waiting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct QueueSnapshot {
    /// Number of in-queue application reads (**R**).
    pub reads: usize,
    /// Number of in-queue application writes (**W**).
    pub writes: usize,
    /// Number of in-queue promotes (**P**).
    pub promotes: usize,
    /// Number of in-queue evictions / flushes (**E**).
    pub evicts: usize,
}

impl QueueSnapshot {
    /// Total number of in-queue requests.
    pub fn total(&self) -> usize {
        self.reads + self.writes + self.promotes + self.evicts
    }

    /// Count for a specific class.
    pub fn count(&self, class: RequestClass) -> usize {
        match class {
            RequestClass::Read => self.reads,
            RequestClass::Write => self.writes,
            RequestClass::Promote => self.promotes,
            RequestClass::Evict => self.evicts,
        }
    }

    /// Adds one request of `class` to the snapshot.
    pub fn record(&mut self, class: RequestClass) {
        match class {
            RequestClass::Read => self.reads += 1,
            RequestClass::Write => self.writes += 1,
            RequestClass::Promote => self.promotes += 1,
            RequestClass::Evict => self.evicts += 1,
        }
    }

    /// Removes one request of `class` from the snapshot (the inverse of
    /// [`QueueSnapshot::record`], used by incrementally maintained counts).
    pub fn unrecord(&mut self, class: RequestClass) {
        match class {
            RequestClass::Read => self.reads -= 1,
            RequestClass::Write => self.writes -= 1,
            RequestClass::Promote => self.promotes -= 1,
            RequestClass::Evict => self.evicts -= 1,
        }
    }

    /// Merges another snapshot into this one.
    pub fn merge(&mut self, other: &QueueSnapshot) {
        self.reads += other.reads;
        self.writes += other.writes;
        self.promotes += other.promotes;
        self.evicts += other.evicts;
    }

    /// Serializes the class counts for a replay checkpoint.
    pub fn snap_to(&self, w: &mut SnapWriter) {
        w.put_usize(self.reads);
        w.put_usize(self.writes);
        w.put_usize(self.promotes);
        w.put_usize(self.evicts);
    }

    /// Restores counts serialized by [`QueueSnapshot::snap_to`].
    pub fn snap_from(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(QueueSnapshot {
            reads: r.get_usize()?,
            writes: r.get_usize()?,
            promotes: r.get_usize()?,
            evicts: r.get_usize()?,
        })
    }
}

/// Cumulative statistics of a [`DeviceQueue`] over its lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct QueueStats {
    /// Requests ever enqueued.
    pub enqueued: u64,
    /// Requests dispatched to the device.
    pub dispatched: u64,
    /// Requests removed by a controller bypass decision before dispatch.
    pub bypassed: u64,
    /// Sum of queue-wait times of dispatched requests, in microseconds.
    pub total_wait_us: u64,
    /// Largest queue depth ever observed.
    pub peak_depth: usize,
}

impl QueueStats {
    /// Average queueing delay of dispatched requests.
    pub fn avg_wait(&self) -> SimDuration {
        SimDuration::from_micros(self.total_wait_us.checked_div(self.dispatched).unwrap_or(0))
    }
}

/// One pending request as the queue stores it: an [`IoRequest`] without
/// its dispatch and completion stamps (a queued request has neither) and
/// with a `u32` sector count.
#[derive(Debug, Clone, Copy)]
struct Queued {
    id: RequestId,
    start: u64,
    /// Meaningful only when `has_parent` is set; 0 otherwise.
    parent: RequestId,
    arrival_us: u64,
    sectors: u32,
    kind: RequestKind,
    origin: RequestOrigin,
    has_parent: bool,
}

const _: () = assert!(std::mem::size_of::<Queued>() == 40, "a queue entry is 40 bytes");

impl Queued {
    /// Packs an unstamped request.
    ///
    /// # Panics
    ///
    /// Panics if the request carries a dispatch or completion stamp, or
    /// spans more than `u32::MAX` sectors.
    fn pack(request: &IoRequest) -> Self {
        assert!(
            request.dispatch().is_none() && request.completion().is_none(),
            "a queued request carries no service stamp"
        );
        let range = request.range();
        let sectors = u32::try_from(range.sectors())
            .expect("a queued request spans at most u32::MAX sectors");
        Queued {
            id: request.id(),
            start: range.start().sector(),
            parent: request.parent().unwrap_or(0),
            arrival_us: request.arrival().as_micros(),
            sectors,
            kind: request.kind(),
            origin: request.origin(),
            has_parent: request.parent().is_some(),
        }
    }

    /// Rebuilds exactly the request [`Queued::pack`] was given.
    fn unpack(&self) -> IoRequest {
        let request =
            IoRequest::new(self.id, self.kind, self.origin, self.start, u64::from(self.sectors))
                .with_arrival(SimTime::from_micros(self.arrival_us));
        if self.has_parent {
            request.with_parent(self.parent)
        } else {
            request
        }
    }

    fn class(&self) -> RequestClass {
        RequestClass::classify(self.kind, self.origin)
    }
}

/// A FIFO device queue.
///
/// ```
/// use lbica_storage::queue::DeviceQueue;
/// use lbica_storage::request::{IoRequest, RequestKind, RequestOrigin};
/// use lbica_storage::time::SimTime;
///
/// let mut q = DeviceQueue::new("ssd");
/// let r = IoRequest::new(1, RequestKind::Read, RequestOrigin::Application, 0, 8)
///     .with_arrival(SimTime::ZERO);
/// q.enqueue(r);
/// assert_eq!(q.depth(), 1);
/// let dispatched = q.dispatch(SimTime::from_micros(50)).expect("one pending request");
/// assert_eq!(dispatched.queue_time().map(|d| d.as_micros()), Some(50));
/// assert!(q.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct DeviceQueue {
    name: String,
    pending: VecDeque<Queued>,
    stats: QueueStats,
    /// Class counts of the pending requests, maintained incrementally on
    /// enqueue/dispatch/drain so [`DeviceQueue::snapshot`] is O(1) instead
    /// of a per-probe scan of the whole queue.
    mix: QueueSnapshot,
}

impl DeviceQueue {
    /// Creates an empty queue.
    pub fn new(name: impl Into<String>) -> Self {
        DeviceQueue {
            name: name.into(),
            pending: VecDeque::new(),
            stats: QueueStats::default(),
            mix: QueueSnapshot::default(),
        }
    }

    /// The queue's diagnostic name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of requests currently waiting (the paper's `QSize`).
    pub fn depth(&self) -> usize {
        self.pending.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Cumulative statistics.
    pub const fn stats(&self) -> &QueueStats {
        &self.stats
    }

    /// Adds a request to the back of the queue.
    ///
    /// # Panics
    ///
    /// Panics if the request carries a dispatch or completion stamp, or
    /// spans more than `u32::MAX` sectors.
    pub fn enqueue(&mut self, request: IoRequest) {
        let entry = Queued::pack(&request);
        self.stats.enqueued += 1;
        self.mix.record(entry.class());
        self.pending.push_back(entry);
        self.stats.peak_depth = self.stats.peak_depth.max(self.pending.len());
    }

    /// Removes and returns the request at the head of the queue, stamping
    /// its dispatch time.
    pub fn dispatch(&mut self, now: SimTime) -> Option<IoRequest> {
        let entry = self.pending.pop_front()?;
        self.mix.unrecord(entry.class());
        let mut request = entry.unpack();
        request.mark_dispatched(now);
        self.stats.dispatched += 1;
        if let Some(wait) = request.queue_time() {
            self.stats.total_wait_us += wait.as_micros();
        }
        Some(request)
    }

    /// Removes from the *tail* of the queue up to `count` requests that
    /// satisfy `predicate`, returning them (newest first). This implements
    /// the controller-driven tail bypass of Section III-C: the requests past
    /// the bottleneck threshold are pulled out of the cache queue and
    /// redirected to the disk subsystem.
    pub fn drain_tail<F>(&mut self, count: usize, mut predicate: F) -> Vec<IoRequest>
    where
        F: FnMut(&IoRequest) -> bool,
    {
        let mut taken = Vec::new();
        let mut idx = self.pending.len();
        while idx > 0 && taken.len() < count {
            idx -= 1;
            let request = self.pending[idx].unpack();
            if predicate(&request) {
                self.pending.remove(idx);
                self.mix.unrecord(request.class());
                taken.push(request);
            }
        }
        self.stats.bypassed += taken.len() as u64;
        taken
    }

    /// Removes specific requests by id, returning them in queue order. Used
    /// by SIB, which selects individual victims after estimating their wait
    /// times.
    ///
    /// Runs in a single in-place pass over the queue: the ids are sorted once
    /// and membership is a binary search. The survivors stay in the queue's
    /// own ring buffer, so its capacity survives the removal.
    pub fn remove_by_ids(&mut self, ids: &[RequestId]) -> Vec<IoRequest> {
        if ids.is_empty() || self.pending.is_empty() {
            return Vec::new();
        }
        let mut sorted = ids.to_vec();
        sorted.sort_unstable();
        let mut taken = Vec::new();
        let mix = &mut self.mix;
        self.pending.retain(|entry| {
            if sorted.binary_search(&entry.id).is_err() {
                return true;
            }
            mix.unrecord(entry.class());
            taken.push(entry.unpack());
            false
        });
        self.stats.bypassed += taken.len() as u64;
        taken
    }

    /// Iterates the pending requests from head (oldest) to tail (newest).
    pub fn iter(&self) -> impl Iterator<Item = IoRequest> + '_ {
        self.pending.iter().map(Queued::unpack)
    }

    /// A `blktrace`-style class histogram of the in-queue requests. O(1):
    /// the counts are maintained incrementally as requests enter and leave.
    pub fn snapshot(&self) -> QueueSnapshot {
        self.mix
    }

    /// The age of the oldest in-queue request at `now`, or zero when empty.
    pub fn oldest_age(&self, now: SimTime) -> SimDuration {
        self.pending
            .front()
            .map(|entry| now.saturating_since(SimTime::from_micros(entry.arrival_us)))
            .unwrap_or(SimDuration::ZERO)
    }

    /// Discards every pending request (used when tearing a simulation down).
    pub fn clear(&mut self) {
        self.pending.clear();
        self.mix = QueueSnapshot::default();
    }

    /// Like [`DeviceQueue::clear`] but also zeroes the cumulative
    /// statistics, leaving the queue observationally identical to a freshly
    /// constructed one while keeping the pending ring buffer allocated.
    pub fn reset(&mut self) {
        self.clear();
        self.stats = QueueStats::default();
    }

    /// Serializes the queue — pending requests in order, cumulative stats —
    /// for a replay checkpoint. The class mix is rebuilt from the pending
    /// requests on restore rather than stored.
    ///
    /// The format predates the removal of request merging: a `false` merge
    /// flag and a zero merged count still hold their places, so checkpoints
    /// stay byte-identical.
    pub fn snap_to(&self, w: &mut SnapWriter) {
        w.put_str(&self.name);
        w.put_bool(false);
        w.put_u64(self.stats.enqueued);
        w.put_u64(self.stats.dispatched);
        w.put_u64(0);
        w.put_u64(self.stats.bypassed);
        w.put_u64(self.stats.total_wait_us);
        w.put_usize(self.stats.peak_depth);
        w.put_usize(self.pending.len());
        for request in self.iter() {
            request.snap_to(w);
        }
    }

    /// Restores a queue serialized by [`DeviceQueue::snap_to`].
    pub fn snap_from(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let name = r.get_str()?;
        if r.get_bool()? {
            return Err(SnapError::Corrupt("queue merge flag set"));
        }
        let enqueued = r.get_u64()?;
        let dispatched = r.get_u64()?;
        if r.get_u64()? != 0 {
            return Err(SnapError::Corrupt("queue merged count is not zero"));
        }
        let stats = QueueStats {
            enqueued,
            dispatched,
            bypassed: r.get_u64()?,
            total_wait_us: r.get_u64()?,
            peak_depth: r.get_usize()?,
        };
        let len = r.get_usize()?;
        let mut pending = VecDeque::with_capacity(len.min(1 << 20));
        let mut mix = QueueSnapshot::default();
        for _ in 0..len {
            let req = IoRequest::snap_from(r)?;
            // A queued request has not been served yet: the device stamps it
            // on dispatch, and a second stamp is a logic error.
            if req.dispatch().is_some() || req.completion().is_some() {
                return Err(SnapError::Corrupt("queued request carries a service stamp"));
            }
            if req.range().sectors() > u64::from(u32::MAX) {
                return Err(SnapError::Corrupt("queued request spans more than u32::MAX sectors"));
            }
            let entry = Queued::pack(&req);
            mix.record(entry.class());
            pending.push_back(entry);
        }
        Ok(DeviceQueue { name, pending, stats, mix })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{RequestKind, RequestOrigin};

    fn req(id: u64, kind: RequestKind, origin: RequestOrigin, sector: u64) -> IoRequest {
        IoRequest::new(id, kind, origin, sector, 8).with_arrival(SimTime::from_micros(id * 10))
    }

    #[test]
    fn fifo_order_is_preserved() {
        let mut q = DeviceQueue::new("hdd");
        for i in 0..5 {
            q.enqueue(req(i, RequestKind::Read, RequestOrigin::Application, i * 1000));
        }
        for i in 0..5 {
            let r = q.dispatch(SimTime::from_secs(1)).expect("request available");
            assert_eq!(r.id(), i);
        }
        assert!(q.dispatch(SimTime::from_secs(1)).is_none());
    }

    /// The queue does not merge: two adjacent same-class requests stay two
    /// entries, each dispatched with its own id and range.
    #[test]
    fn adjacent_same_class_requests_merge() {
        let mut q = DeviceQueue::new("ssd");
        q.enqueue(req(1, RequestKind::Read, RequestOrigin::Application, 0));
        q.enqueue(req(2, RequestKind::Read, RequestOrigin::Application, 8));
        assert_eq!(q.depth(), 2);
        for id in [1, 2] {
            let r = q.dispatch(SimTime::from_secs(1)).expect("request available");
            assert_eq!(
                (r.id(), r.range().start().sector(), r.range().sectors()),
                (id, (id - 1) * 8, 8)
            );
        }
        assert!(q.dispatch(SimTime::from_secs(1)).is_none());
    }

    /// Two adjacent reads are two queued requests, each counted once.
    #[test]
    fn merged_requests_are_not_double_counted_in_the_snapshot() {
        let mut q = DeviceQueue::new("ssd");
        q.enqueue(req(1, RequestKind::Read, RequestOrigin::Application, 0));
        q.enqueue(req(2, RequestKind::Read, RequestOrigin::Application, 8));
        assert_eq!(q.snapshot().reads, 2);
        assert_eq!(q.snapshot().total(), 2);
        q.dispatch(SimTime::from_secs(1));
        assert_eq!(q.snapshot().reads, 1);
        assert_eq!(q.snapshot().total(), 1);
    }

    #[test]
    fn snapshot_counts_classes() {
        let mut q = DeviceQueue::new("ssd");
        q.enqueue(req(1, RequestKind::Read, RequestOrigin::Application, 0));
        q.enqueue(req(2, RequestKind::Write, RequestOrigin::Application, 100));
        q.enqueue(req(3, RequestKind::Write, RequestOrigin::Promote, 200));
        q.enqueue(req(4, RequestKind::Write, RequestOrigin::Evict, 300));
        q.enqueue(req(5, RequestKind::Write, RequestOrigin::Evict, 400));
        let snap = q.snapshot();
        assert_eq!(snap.reads, 1);
        assert_eq!(snap.writes, 1);
        assert_eq!(snap.promotes, 1);
        assert_eq!(snap.evicts, 2);
        assert_eq!(snap.total(), 5);
        assert_eq!(snap.count(RequestClass::Evict), 2);
    }

    #[test]
    fn drain_tail_takes_newest_matching_requests() {
        let mut q = DeviceQueue::new("ssd");
        for i in 0..6 {
            q.enqueue(req(i, RequestKind::Write, RequestOrigin::Application, i * 1000));
        }
        let taken = q.drain_tail(2, |r| r.kind().is_write());
        assert_eq!(taken.len(), 2);
        assert_eq!(taken[0].id(), 5);
        assert_eq!(taken[1].id(), 4);
        assert_eq!(q.depth(), 4);
        assert_eq!(q.stats().bypassed, 2);
    }

    #[test]
    fn drain_tail_respects_predicate() {
        let mut q = DeviceQueue::new("ssd");
        q.enqueue(req(1, RequestKind::Read, RequestOrigin::Application, 0));
        q.enqueue(req(2, RequestKind::Write, RequestOrigin::Application, 100));
        let taken = q.drain_tail(5, |r| r.kind().is_read());
        assert_eq!(taken.len(), 1);
        assert_eq!(taken[0].id(), 1);
        assert_eq!(q.depth(), 1);
    }

    #[test]
    fn remove_by_ids_extracts_requested() {
        let mut q = DeviceQueue::new("ssd");
        for i in 0..5 {
            q.enqueue(req(i, RequestKind::Read, RequestOrigin::Application, i * 1000));
        }
        let taken = q.remove_by_ids(&[1, 3]);
        assert_eq!(taken.iter().map(|r| r.id()).collect::<Vec<_>>(), vec![1, 3]);
        assert_eq!(q.depth(), 3);
    }

    #[test]
    fn remove_by_ids_handles_a_deep_queue_with_many_ids() {
        let mut q = DeviceQueue::new("ssd");
        for i in 0..1_000u64 {
            q.enqueue(req(i, RequestKind::Write, RequestOrigin::Application, i * 1000));
        }
        // Every 10th request, in scrambled order with a duplicate and a
        // few misses thrown in.
        let mut ids: Vec<u64> = (0..100u64).map(|i| i * 10).rev().collect();
        ids.push(500); // duplicate
        ids.push(1_000_000); // not in the queue
        let taken = q.remove_by_ids(&ids);
        assert_eq!(taken.len(), 100);
        // Queue order is preserved among the taken requests...
        assert!(taken.windows(2).all(|w| w[0].id() < w[1].id()));
        // ...and among the survivors.
        assert_eq!(q.depth(), 900);
        let survivors: Vec<u64> = q.iter().map(|r| r.id()).collect();
        assert!(survivors.windows(2).all(|w| w[0] < w[1]));
        assert!(survivors.iter().all(|id| id % 10 != 0));
        assert_eq!(q.stats().bypassed, 100);
        assert_eq!(q.snapshot().total(), 900);
    }

    #[test]
    fn remove_by_ids_works_in_place_and_keeps_the_ring() {
        let mut q = DeviceQueue::new("ssd");
        for i in 0..64u64 {
            let origin =
                if i % 2 == 0 { RequestOrigin::Application } else { RequestOrigin::Promote };
            q.enqueue(req(i, RequestKind::Write, origin, i * 1000));
        }
        let capacity = q.pending.capacity();
        // Victims in scrambled order: three application writes, two promotes.
        let taken = q.remove_by_ids(&[41, 6, 60, 13, 2]);
        assert_eq!(taken.iter().map(|r| r.id()).collect::<Vec<_>>(), vec![2, 6, 13, 41, 60]);
        assert_eq!(q.pending.capacity(), capacity, "the ring buffer must not be reallocated");
        let survivors: Vec<u64> = q.iter().map(|r| r.id()).collect();
        let expected: Vec<u64> = (0..64).filter(|i| ![2, 6, 13, 41, 60].contains(i)).collect();
        assert_eq!(survivors, expected);
        assert_eq!(q.snapshot().writes, 32 - 3);
        assert_eq!(q.snapshot().promotes, 32 - 2);
        assert_eq!(q.stats().bypassed, 5);
    }

    #[test]
    fn snapshot_stays_consistent_with_a_full_recount() {
        let recount = |q: &DeviceQueue| {
            let mut snap = QueueSnapshot::default();
            for r in q.iter() {
                snap.record(r.class());
            }
            snap
        };
        let mut q = DeviceQueue::new("ssd");
        for i in 0..40u64 {
            let origin = match i % 4 {
                0 => RequestOrigin::Application,
                1 => RequestOrigin::Promote,
                2 => RequestOrigin::Evict,
                _ => RequestOrigin::Flush,
            };
            q.enqueue(req(i, RequestKind::Write, origin, i * 1000));
            assert_eq!(q.snapshot(), recount(&q));
        }
        q.dispatch(SimTime::from_secs(1));
        assert_eq!(q.snapshot(), recount(&q));
        q.drain_tail(5, |r| r.kind().is_write());
        assert_eq!(q.snapshot(), recount(&q));
        q.remove_by_ids(&[9, 13, 21]);
        assert_eq!(q.snapshot(), recount(&q));
        q.clear();
        assert_eq!(q.snapshot(), QueueSnapshot::default());
    }

    #[test]
    fn stats_track_wait_and_peak_depth() {
        let mut q = DeviceQueue::new("ssd");
        q.enqueue(
            IoRequest::new(1, RequestKind::Read, RequestOrigin::Application, 0, 8)
                .with_arrival(SimTime::from_micros(0)),
        );
        q.enqueue(
            IoRequest::new(2, RequestKind::Read, RequestOrigin::Application, 100, 8)
                .with_arrival(SimTime::from_micros(0)),
        );
        assert_eq!(q.stats().peak_depth, 2);
        q.dispatch(SimTime::from_micros(100));
        q.dispatch(SimTime::from_micros(300));
        assert_eq!(q.stats().dispatched, 2);
        assert_eq!(q.stats().avg_wait().as_micros(), 200);
    }

    #[test]
    fn oldest_age_reflects_head_request() {
        let mut q = DeviceQueue::new("ssd");
        assert_eq!(q.oldest_age(SimTime::from_secs(1)), SimDuration::ZERO);
        q.enqueue(
            IoRequest::new(1, RequestKind::Read, RequestOrigin::Application, 0, 8)
                .with_arrival(SimTime::from_micros(500)),
        );
        assert_eq!(q.oldest_age(SimTime::from_micros(700)).as_micros(), 200);
    }

    #[test]
    fn clear_empties_queue() {
        let mut q = DeviceQueue::new("ssd");
        q.enqueue(req(1, RequestKind::Read, RequestOrigin::Application, 0));
        q.clear();
        assert!(q.is_empty());
    }

    #[test]
    fn snap_round_trip_preserves_pending_order_mix_and_stats() {
        let mut q = DeviceQueue::new("ssd");
        for i in 0..7u64 {
            let origin = match i % 3 {
                0 => RequestOrigin::Application,
                1 => RequestOrigin::Promote,
                _ => RequestOrigin::Evict,
            };
            q.enqueue(req(i, RequestKind::Write, origin, i * 1000));
        }
        q.dispatch(SimTime::from_micros(500));
        q.drain_tail(1, |r| r.kind().is_write());

        let mut w = SnapWriter::new();
        q.snap_to(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let restored = DeviceQueue::snap_from(&mut r).unwrap();
        r.finish().unwrap();

        assert_eq!(restored.name(), q.name());
        assert_eq!(restored.depth(), q.depth());
        assert_eq!(restored.stats(), q.stats());
        assert_eq!(restored.snapshot(), q.snapshot());
        let pending: Vec<u64> = restored.iter().map(|r| r.id()).collect();
        let original: Vec<u64> = q.iter().map(|r| r.id()).collect();
        assert_eq!(pending, original);
    }

    #[test]
    fn snap_from_rejects_truncated_buffers() {
        let mut q = DeviceQueue::new("hdd");
        q.enqueue(req(1, RequestKind::Read, RequestOrigin::Application, 0));
        let mut w = SnapWriter::new();
        q.snap_to(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes[..bytes.len() - 3]);
        assert!(matches!(DeviceQueue::snap_from(&mut r), Err(SnapError::UnexpectedEof { .. })));
    }

    /// The checkpoint bytes of a queue holding one 8-sector read.
    fn one_request_bytes() -> Vec<u8> {
        let mut q = DeviceQueue::new("hdd");
        q.enqueue(req(1, RequestKind::Read, RequestOrigin::Application, 0));
        let mut w = SnapWriter::new();
        q.snap_to(&mut w);
        w.into_bytes()
    }

    /// Byte offsets in [`one_request_bytes`]: the name is 8 + 3 bytes.
    const MERGE_FLAG: usize = 11;
    const MERGED_COUNT: usize = MERGE_FLAG + 1 + 16;
    /// The request follows the six statistics words and the length; its
    /// sector count follows its id, two tag bytes and its start.
    const SECTORS: usize = MERGED_COUNT + 8 * 5 + 8 + 1 + 1 + 8;

    #[test]
    fn snap_from_rejects_a_set_merge_flag() {
        let mut bytes = one_request_bytes();
        assert_eq!(bytes[MERGE_FLAG], 0);
        bytes[MERGE_FLAG] = 1;
        assert_eq!(
            DeviceQueue::snap_from(&mut SnapReader::new(&bytes)).unwrap_err(),
            SnapError::Corrupt("queue merge flag set")
        );
    }

    #[test]
    fn snap_from_rejects_a_merged_count() {
        let mut bytes = one_request_bytes();
        assert_eq!(bytes[MERGED_COUNT..MERGED_COUNT + 8], 0u64.to_le_bytes());
        bytes[MERGED_COUNT..MERGED_COUNT + 8].copy_from_slice(&1u64.to_le_bytes());
        assert_eq!(
            DeviceQueue::snap_from(&mut SnapReader::new(&bytes)).unwrap_err(),
            SnapError::Corrupt("queue merged count is not zero")
        );
    }

    #[test]
    fn snap_from_rejects_a_request_longer_than_u32_sectors() {
        let mut bytes = one_request_bytes();
        assert_eq!(bytes[SECTORS..SECTORS + 8], 8u64.to_le_bytes());
        for (sectors, accepted) in [(u64::from(u32::MAX), true), (u64::from(u32::MAX) + 1, false)] {
            bytes[SECTORS..SECTORS + 8].copy_from_slice(&sectors.to_le_bytes());
            let restored = DeviceQueue::snap_from(&mut SnapReader::new(&bytes));
            if accepted {
                let q = restored.expect("a u32-long request restores");
                assert_eq!(q.iter().next().map(|r| r.range().sectors()), Some(sectors));
            } else {
                assert_eq!(
                    restored.unwrap_err(),
                    SnapError::Corrupt("queued request spans more than u32::MAX sectors")
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "no service stamp")]
    fn enqueue_rejects_a_stamped_request() {
        let mut stamped = req(1, RequestKind::Read, RequestOrigin::Application, 0);
        stamped.mark_dispatched(SimTime::from_micros(20));
        DeviceQueue::new("ssd").enqueue(stamped);
    }

    #[test]
    #[should_panic(expected = "at most u32::MAX sectors")]
    fn enqueue_rejects_a_request_longer_than_u32_sectors() {
        let long = IoRequest::new(
            1,
            RequestKind::Write,
            RequestOrigin::Application,
            0,
            u64::from(u32::MAX) + 1,
        );
        DeviceQueue::new("ssd").enqueue(long);
    }

    #[test]
    fn snapshot_merge_accumulates() {
        let mut a = QueueSnapshot { reads: 1, writes: 2, promotes: 3, evicts: 4 };
        let b = QueueSnapshot { reads: 10, writes: 20, promotes: 30, evicts: 40 };
        a.merge(&b);
        assert_eq!(a.total(), 110);
    }
}
