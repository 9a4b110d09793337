//! Device queues.
//!
//! [`DeviceQueue`] models the pending-request queue in front of a device —
//! the structure whose depth `iostat` reports as `avgqu-sz` and which the
//! paper calls `ssdQSize` / `hddQSize`. It is a FIFO with optional
//! block-layer-style merging of adjacent requests, and it tracks everything
//! the monitors need: current depth, per-request wait, the class mix of
//! in-queue requests and cumulative statistics.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

use crate::request::{IoRequest, RequestClass, RequestId};
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
    /// Requests absorbed by merging into an already-queued request.
    pub merged: u64,
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

/// A FIFO device queue with block-layer-style request merging.
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
    pending: VecDeque<IoRequest>,
    merge_enabled: bool,
    stats: QueueStats,
    /// Class counts of the pending requests, maintained incrementally on
    /// enqueue/dispatch/drain so [`DeviceQueue::snapshot`] is O(1) instead
    /// of a per-probe scan of the whole queue.
    mix: QueueSnapshot,
}

impl DeviceQueue {
    /// Creates an empty queue with merging enabled.
    pub fn new(name: impl Into<String>) -> Self {
        DeviceQueue {
            name: name.into(),
            pending: VecDeque::new(),
            merge_enabled: true,
            stats: QueueStats::default(),
            mix: QueueSnapshot::default(),
        }
    }

    /// Creates an empty queue with merging disabled (every request is
    /// dispatched individually).
    pub fn without_merging(name: impl Into<String>) -> Self {
        let mut q = DeviceQueue::new(name);
        q.merge_enabled = false;
        q
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

    /// Adds a request to the back of the queue. If merging is enabled and an
    /// already-queued request of the same kind and class addresses an
    /// adjacent range, the new request is merged into it instead and `true`
    /// is returned.
    pub fn enqueue(&mut self, request: IoRequest) -> bool {
        self.stats.enqueued += 1;
        if self.merge_enabled {
            if let Some(existing) = self.pending.iter_mut().find(|q| {
                q.kind() == request.kind()
                    && q.class() == request.class()
                    && q.range().is_adjacent_to(&request.range())
            }) {
                if let Some(merged_range) = existing.range().merged(&request.range()) {
                    let merged = IoRequest::from_range(
                        existing.id(),
                        existing.kind(),
                        existing.origin(),
                        merged_range,
                    )
                    .with_arrival(existing.arrival().min(request.arrival()));
                    *existing = merged;
                    self.stats.merged += 1;
                    return true;
                }
            }
        }
        self.mix.record(request.class());
        self.pending.push_back(request);
        self.stats.peak_depth = self.stats.peak_depth.max(self.pending.len());
        false
    }

    /// Removes and returns the request at the head of the queue, stamping
    /// its dispatch time.
    pub fn dispatch(&mut self, now: SimTime) -> Option<IoRequest> {
        let mut request = self.pending.pop_front()?;
        self.mix.unrecord(request.class());
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
            if predicate(&self.pending[idx]) {
                if let Some(req) = self.pending.remove(idx) {
                    self.mix.unrecord(req.class());
                    taken.push(req);
                }
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
        self.pending.retain_mut(|req| {
            if sorted.binary_search(&req.id()).is_err() {
                return true;
            }
            mix.unrecord(req.class());
            taken.push(req.clone());
            false
        });
        self.stats.bypassed += taken.len() as u64;
        taken
    }

    /// Iterates the pending requests from head (oldest) to tail (newest).
    pub fn iter(&self) -> impl Iterator<Item = &IoRequest> {
        self.pending.iter()
    }

    /// A `blktrace`-style class histogram of the in-queue requests. O(1):
    /// the counts are maintained incrementally as requests enter and leave.
    pub fn snapshot(&self) -> QueueSnapshot {
        self.mix
    }

    /// The age of the oldest in-queue request at `now`, or zero when empty.
    pub fn oldest_age(&self, now: SimTime) -> SimDuration {
        self.pending.front().map(|r| r.age(now)).unwrap_or(SimDuration::ZERO)
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
    pub fn snap_to(&self, w: &mut SnapWriter) {
        w.put_str(&self.name);
        w.put_bool(self.merge_enabled);
        w.put_u64(self.stats.enqueued);
        w.put_u64(self.stats.dispatched);
        w.put_u64(self.stats.merged);
        w.put_u64(self.stats.bypassed);
        w.put_u64(self.stats.total_wait_us);
        w.put_usize(self.stats.peak_depth);
        w.put_usize(self.pending.len());
        for req in &self.pending {
            req.snap_to(w);
        }
    }

    /// Restores a queue serialized by [`DeviceQueue::snap_to`].
    pub fn snap_from(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let name = r.get_str()?;
        let merge_enabled = r.get_bool()?;
        let stats = QueueStats {
            enqueued: r.get_u64()?,
            dispatched: r.get_u64()?,
            merged: r.get_u64()?,
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
            mix.record(req.class());
            pending.push_back(req);
        }
        Ok(DeviceQueue { name, pending, merge_enabled, stats, mix })
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
        let mut q = DeviceQueue::without_merging("hdd");
        for i in 0..5 {
            q.enqueue(req(i, RequestKind::Read, RequestOrigin::Application, i * 1000));
        }
        for i in 0..5 {
            let r = q.dispatch(SimTime::from_secs(1)).expect("request available");
            assert_eq!(r.id(), i);
        }
        assert!(q.dispatch(SimTime::from_secs(1)).is_none());
    }

    #[test]
    fn adjacent_same_class_requests_merge() {
        let mut q = DeviceQueue::new("ssd");
        q.enqueue(req(1, RequestKind::Read, RequestOrigin::Application, 0));
        let merged = q.enqueue(req(2, RequestKind::Read, RequestOrigin::Application, 8));
        assert!(merged);
        assert_eq!(q.depth(), 1);
        assert_eq!(q.stats().merged, 1);
        let r = q.dispatch(SimTime::from_secs(1)).expect("request available");
        assert_eq!(r.range().sectors(), 16);
    }

    #[test]
    fn different_classes_never_merge() {
        let mut q = DeviceQueue::new("ssd");
        q.enqueue(req(1, RequestKind::Write, RequestOrigin::Application, 0));
        let merged = q.enqueue(req(2, RequestKind::Write, RequestOrigin::Promote, 8));
        assert!(!merged);
        assert_eq!(q.depth(), 2);
    }

    #[test]
    fn non_adjacent_requests_never_merge() {
        let mut q = DeviceQueue::new("ssd");
        q.enqueue(req(1, RequestKind::Read, RequestOrigin::Application, 0));
        assert!(!q.enqueue(req(2, RequestKind::Read, RequestOrigin::Application, 64)));
        assert_eq!(q.depth(), 2);
    }

    #[test]
    fn snapshot_counts_classes() {
        let mut q = DeviceQueue::without_merging("ssd");
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
        let mut q = DeviceQueue::without_merging("ssd");
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
        let mut q = DeviceQueue::without_merging("ssd");
        q.enqueue(req(1, RequestKind::Read, RequestOrigin::Application, 0));
        q.enqueue(req(2, RequestKind::Write, RequestOrigin::Application, 100));
        let taken = q.drain_tail(5, |r| r.kind().is_read());
        assert_eq!(taken.len(), 1);
        assert_eq!(taken[0].id(), 1);
        assert_eq!(q.depth(), 1);
    }

    #[test]
    fn remove_by_ids_extracts_requested() {
        let mut q = DeviceQueue::without_merging("ssd");
        for i in 0..5 {
            q.enqueue(req(i, RequestKind::Read, RequestOrigin::Application, i * 1000));
        }
        let taken = q.remove_by_ids(&[1, 3]);
        assert_eq!(taken.iter().map(|r| r.id()).collect::<Vec<_>>(), vec![1, 3]);
        assert_eq!(q.depth(), 3);
    }

    #[test]
    fn remove_by_ids_handles_a_deep_queue_with_many_ids() {
        let mut q = DeviceQueue::without_merging("ssd");
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
        let mut q = DeviceQueue::without_merging("ssd");
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
        let mut q = DeviceQueue::without_merging("ssd");
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
    fn merged_requests_are_not_double_counted_in_the_snapshot() {
        let mut q = DeviceQueue::new("ssd");
        q.enqueue(req(1, RequestKind::Read, RequestOrigin::Application, 0));
        assert!(q.enqueue(req(2, RequestKind::Read, RequestOrigin::Application, 8)));
        assert_eq!(q.snapshot().reads, 1);
        assert_eq!(q.snapshot().total(), 1);
    }

    #[test]
    fn stats_track_wait_and_peak_depth() {
        let mut q = DeviceQueue::without_merging("ssd");
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
        let mut q = DeviceQueue::without_merging("ssd");
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
        let mut q = DeviceQueue::without_merging("ssd");
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

    #[test]
    fn snapshot_merge_accumulates() {
        let mut a = QueueSnapshot { reads: 1, writes: 2, promotes: 3, evicts: 4 };
        let b = QueueSnapshot { reads: 10, writes: 20, promotes: 30, evicts: 40 };
        a.merge(&b);
        assert_eq!(a.total(), 110);
    }
}
