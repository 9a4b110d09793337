//! The discrete-event core: the arrival lane and the choice of the next
//! event.
//!
//! A simulation has two kinds of pending events, and each lives where it is
//! cheapest to keep:
//!
//! * **Arrivals** of application requests wait in the [`EventQueue`]'s one
//!   lane, sorted by `(time, seq)`. Each is 40 bytes: its sequence number,
//!   its request id and the [`TraceRecord`] it came from; the request is
//!   built only when the arrival fires. The generators emit arrivals in
//!   nondecreasing time order, so scheduling one is an O(1) append; an
//!   out-of-order arrival is a sorted insert.
//! * **Completions** never enter the queue. A request a device starts
//!   servicing is held in one of its [`DeviceStation`]'s service slots —
//!   at most `parallelism` of them — together with its completion time and
//!   sequence number. Each station caches the smallest `(time, seq)` among
//!   its slots, updated when a slot fills or frees.
//!
//! `EventQueue::next_event` picks the smallest `(time, seq)` over the lane's
//! front and one cached key per station — two keys on the paper's flat
//! configuration, three on its two-level twin — however deep the device
//! queues grow. Both kinds draw their sequence numbers from the
//! queue's one counter, so simultaneous events fire in scheduling order and
//! the global order is exactly that of a single priority queue over all
//! pending events. Checkpoints store that single queue: the writer merges
//! the held completions into the lane's `(time, seq)` order, and writes
//! each arrival as the request it will become.

use std::collections::VecDeque;

use lbica_storage::request::{IoRequest, RequestId, RequestOrigin};
use lbica_storage::snap::{SnapError, SnapReader, SnapWriter};
use lbica_storage::time::SimTime;
use lbica_trace::record::TraceRecord;

use crate::system::{DeviceStation, TierId};

/// What happens when an event fires — the tag a checkpoint stores with
/// every pending event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// An application request arrives at the cache module.
    Arrival(IoRequest),
    /// A device finishes servicing a request.
    Completion {
        /// Which tier finished the request.
        tier: TierId,
        /// The serviced request (dispatch timestamp already set).
        request: IoRequest,
    },
    /// A cache-level station of a *tiered* hierarchy finishes servicing a
    /// request. Never held by the flat [`crate::StorageSystem`].
    LevelCompletion {
        /// Which cache level (0 = hot tier) finished the request.
        level: usize,
        /// The serviced request (dispatch timestamp already set).
        request: IoRequest,
    },
}

/// Writes an arrival's payload (tag and request).
fn put_arrival(w: &mut SnapWriter, request: &IoRequest) {
    w.put_u8(0);
    request.snap_to(w);
}

impl EventKind {
    /// Serializes the event payload for a replay checkpoint.
    fn snap_to(&self, w: &mut SnapWriter) {
        match self {
            EventKind::Arrival(request) => put_arrival(w, request),
            EventKind::Completion { tier, request } => {
                w.put_u8(1);
                w.put_u8(match tier {
                    TierId::Ssd => 0,
                    TierId::Disk => 1,
                });
                request.snap_to(w);
            }
            EventKind::LevelCompletion { level, request } => {
                w.put_u8(2);
                w.put_usize(*level);
                request.snap_to(w);
            }
        }
    }

    /// Restores a payload written by [`EventKind::snap_to`].
    fn snap_from(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.get_u8()? {
            0 => Ok(EventKind::Arrival(IoRequest::snap_from(r)?)),
            1 => {
                let tier = match r.get_u8()? {
                    0 => TierId::Ssd,
                    1 => TierId::Disk,
                    _ => return Err(SnapError::Corrupt("tier id tag")),
                };
                Ok(EventKind::Completion { tier, request: IoRequest::snap_from(r)? })
            }
            2 => Ok(EventKind::LevelCompletion {
                level: r.get_usize()?,
                request: IoRequest::snap_from(r)?,
            }),
            _ => Err(SnapError::Corrupt("event kind tag")),
        }
    }
}

/// An event's `(time, seq)` packed into one integer that orders the same
/// way, so that choosing the earliest event compares integers and selects
/// without branching: which event is earliest changes from event to event
/// and would mispredict a branch.
pub(crate) fn event_key((time, seq): (SimTime, u64)) -> u128 {
    u128::from(time.as_micros()) << 64 | u128::from(seq)
}

/// The key of no event. Every real key is smaller, because a sequence
/// number is always below the counter and so below `u64::MAX`.
pub(crate) const NO_EVENT: u128 = u128::MAX;

/// The event [`EventQueue::next_event`] chose.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum NextEvent {
    /// The arrival at the lane's front.
    Arrival,
    /// The completion held in service slot `slot` of the `station`-th
    /// station passed to [`EventQueue::next_event`].
    Completion { station: usize, slot: usize },
}

/// A pending arrival: the record it fires as, under request id `id`. Its
/// firing time is the record's timestamp.
#[derive(Debug)]
struct Arrival {
    seq: u64,
    id: RequestId,
    record: TraceRecord,
}

const _: () = assert!(std::mem::size_of::<Arrival>() == 40);

impl Arrival {
    fn key(&self) -> (SimTime, u64) {
        (SimTime::from_micros(self.record.timestamp_us), self.seq)
    }
}

/// The record a restored pending arrival was scheduled from, or the reason
/// no record can describe it: an arrival is an application request that
/// has neither been serviced nor derived from another request.
fn arrival_record(request: &IoRequest) -> Result<TraceRecord, SnapError> {
    if request.dispatch().is_some() || request.completion().is_some() {
        return Err(SnapError::Corrupt("pending arrival carries a service stamp"));
    }
    if request.parent().is_some() || request.origin() != RequestOrigin::Application {
        return Err(SnapError::Corrupt("pending arrival is not an application request"));
    }
    let range = request.range();
    let sectors = u32::try_from(range.sectors())
        .map_err(|_| SnapError::Corrupt("pending arrival longer than a record"))?;
    Ok(TraceRecord::new(
        request.arrival().as_micros(),
        range.start().sector(),
        sectors,
        request.kind(),
    ))
}

/// The cache module's operations for the arrivals one `run_until` call
/// fires, resolved in lane order before its event loop starts.
///
/// LBICA changes the write policy and bypasses queued requests only at
/// monitoring-interval boundaries, so inside one `run_until` only arrivals
/// touch the cache module: completions, dispatch and the monitors never do,
/// and policy switches, bypasses, spills and restores all run between
/// calls. The module's answer to an arrival therefore depends only on the
/// order of arrivals, and resolving them ahead of the queue work yields the
/// same operations. The buffer is empty between calls.
#[derive(Debug)]
pub(crate) struct StagedOps<Op> {
    ops: Vec<Op>,
    /// One end offset into `ops` per staged arrival, in firing order.
    ends: Vec<usize>,
    /// Staged arrivals already handed out, and where the next one's
    /// operations start.
    fired: usize,
    start: usize,
}

impl<Op> Default for StagedOps<Op> {
    fn default() -> Self {
        StagedOps { ops: Vec::new(), ends: Vec::new(), fired: 0, start: 0 }
    }
}

impl<Op: Copy> StagedOps<Op> {
    /// Appends the next arrival's operations.
    pub(crate) fn push(&mut self, ops: &[Op]) {
        self.ops.extend_from_slice(ops);
        self.ends.push(self.ops.len());
    }

    /// The operations of the next arrival to fire.
    ///
    /// # Panics
    ///
    /// Panics if every staged arrival has fired.
    pub(crate) fn next_ops(&mut self) -> &[Op] {
        let end = self.ends[self.fired];
        let ops = &self.ops[self.start..end];
        self.fired += 1;
        self.start = end;
        ops
    }

    /// Empties the buffer, keeping its allocation. Every staged arrival
    /// must have fired.
    pub(crate) fn clear(&mut self) {
        debug_assert_eq!(self.fired, self.ends.len(), "a staged arrival did not fire");
        self.ops.clear();
        self.ends.clear();
        self.fired = 0;
        self.start = 0;
    }

    /// Whether no arrival is staged.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }
}

/// The pending arrivals plus the bookkeeping shared with the stations'
/// held completions: the sequence counter, the number of completions in
/// service and the depth watermark.
#[derive(Debug, Default)]
pub struct EventQueue {
    /// Sorted by `(time, seq)`.
    arrivals: VecDeque<Arrival>,
    /// Completions held at stations (one per busy service slot).
    in_service: usize,
    next_seq: u64,
    peak_len: usize,
}

impl EventQueue {
    /// Creates an empty event queue.
    pub fn new() -> Self {
        EventQueue::default()
    }

    /// Number of pending events: arrivals plus completions in service.
    pub fn len(&self) -> usize {
        self.arrivals.len() + self.in_service
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The largest number of simultaneously pending events ever observed.
    pub const fn peak_len(&self) -> usize {
        self.peak_len
    }

    /// Clears all pending arrivals and counters while keeping the lane's
    /// allocation, so the next simulation run schedules into already-sized
    /// storage. Afterwards the queue is observationally identical to a
    /// freshly constructed one.
    pub fn reset(&mut self) {
        self.arrivals.clear();
        self.in_service = 0;
        self.next_seq = 0;
        self.peak_len = 0;
    }

    fn claim_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    fn note_depth(&mut self) {
        self.peak_len = self.peak_len.max(self.len());
    }

    /// Schedules `record` to arrive at its timestamp as application request
    /// `id`.
    pub fn schedule_record(&mut self, id: RequestId, record: &TraceRecord) {
        let arrival = Arrival { seq: self.claim_seq(), id, record: *record };
        let time = record.timestamp_us;
        // The new seq is the largest, so it goes after every arrival at the
        // same time or earlier.
        if self.arrivals.back().is_none_or(|tail| tail.record.timestamp_us <= time) {
            self.arrivals.push_back(arrival);
        } else {
            let at = self.arrivals.partition_point(|a| a.record.timestamp_us <= time);
            self.arrivals.insert(at, arrival);
        }
        self.note_depth();
    }

    /// Counts one more completion as pending and returns its sequence
    /// number. The station starting the service holds the completion.
    pub fn start_service(&mut self) -> u64 {
        let seq = self.claim_seq();
        self.in_service += 1;
        self.note_depth();
        seq
    }

    /// Records that a held completion fired.
    pub fn finish_service(&mut self) {
        self.in_service -= 1;
    }

    /// The next event at or before `limit`: the smallest `(time, seq)` over
    /// the arrival lane's front and the cached next completion of every
    /// station in `stations`.
    pub(crate) fn next_event(
        &self,
        stations: &[DeviceStation],
        limit: SimTime,
    ) -> Option<NextEvent> {
        let mut best = self.arrivals.front().map_or(NO_EVENT, |a| event_key(a.key()));
        // `usize::MAX` stands for the arrival.
        let (mut best_station, mut best_slot) = (usize::MAX, 0);
        for (station, held) in stations.iter().enumerate() {
            let (key, slot) = held.next_completion();
            let earlier = key < best;
            best = if earlier { key } else { best };
            best_station = if earlier { station } else { best_station };
            best_slot = if earlier { slot } else { best_slot };
        }
        if best == NO_EVENT || (best >> 64) as u64 > limit.as_micros() {
            return None;
        }
        Some(if best_station == usize::MAX {
            NextEvent::Arrival
        } else {
            NextEvent::Completion { station: best_station, slot: best_slot }
        })
    }

    /// The requests the arrivals that fire by `limit` become, in firing
    /// order: the lane's prefix up to `limit`.
    pub(crate) fn arrivals_until(&self, limit: SimTime) -> impl Iterator<Item = IoRequest> + '_ {
        let limit = limit.as_micros();
        self.arrivals
            .iter()
            .take_while(move |a| a.record.timestamp_us <= limit)
            .map(|a| a.record.to_request(a.id))
    }

    /// Removes the arrival at the lane's front and returns it as an
    /// application request.
    ///
    /// # Panics
    ///
    /// Panics if no arrival is pending.
    pub fn pop_arrival(&mut self) -> IoRequest {
        let arrival = self.arrivals.pop_front().expect("a pending arrival");
        arrival.record.to_request(arrival.id)
    }

    /// Serializes every pending event — the lane's arrivals merged with
    /// `held`, the stations' completions in service — plus the sequence
    /// counter and peak depth, in canonical `(time, seq)` order, for a
    /// replay checkpoint.
    pub fn snap_to(&self, w: &mut SnapWriter, mut held: Vec<(SimTime, u64, EventKind)>) {
        held.sort_by_key(|&(time, seq, _)| (time, seq));
        w.put_u64(self.next_seq);
        w.put_usize(self.peak_len);
        w.put_usize(self.arrivals.len() + held.len());
        let put = |w: &mut SnapWriter, (time, seq): (SimTime, u64)| {
            w.put_u64(time.as_micros());
            w.put_u64(seq);
        };
        let mut held = held.into_iter().peekable();
        for arrival in &self.arrivals {
            while let Some((time, seq, kind)) = held.next_if(|h| (h.0, h.1) < arrival.key()) {
                put(w, (time, seq));
                kind.snap_to(w);
            }
            put(w, arrival.key());
            put_arrival(w, &arrival.record.to_request(arrival.id));
        }
        for (time, seq, kind) in held {
            put(w, (time, seq));
            kind.snap_to(w);
        }
    }

    /// Restores the pending events written by [`EventQueue::snap_to`] into
    /// this queue (whose own pending events are discarded). Arrivals land in
    /// the lane, and one a trace record cannot describe is rejected; every
    /// completion is handed to `hold`, which returns it to its station (or
    /// rejects it). The arrivals' ids are checked once the owner knows its
    /// id counter, by [`EventQueue::check_arrival_ids`].
    pub fn snap_state_from(
        &mut self,
        r: &mut SnapReader<'_>,
        mut hold: impl FnMut(SimTime, u64, EventKind) -> Result<(), SnapError>,
    ) -> Result<(), SnapError> {
        self.reset();
        let next_seq = r.get_u64()?;
        let peak_len = r.get_usize()?;
        let len = r.get_usize()?;
        let mut last: Option<(SimTime, u64)> = None;
        for _ in 0..len {
            let time = SimTime::from_micros(r.get_u64()?);
            let seq = r.get_u64()?;
            if seq >= next_seq {
                return Err(SnapError::Corrupt("event seq beyond counter"));
            }
            if last.is_some_and(|prev| (time, seq) <= prev) {
                return Err(SnapError::Corrupt("pending events out of order"));
            }
            last = Some((time, seq));
            match EventKind::snap_from(r)? {
                EventKind::Arrival(request) => {
                    if request.arrival() != time {
                        return Err(SnapError::Corrupt("arrival event off its request's stamp"));
                    }
                    let record = arrival_record(&request)?;
                    self.arrivals.push_back(Arrival { seq, id: request.id(), record });
                }
                completion => {
                    hold(time, seq, completion)?;
                    self.in_service += 1;
                }
            }
        }
        self.next_seq = next_seq;
        self.peak_len = peak_len.max(self.len());
        Ok(())
    }

    /// Checks the restored arrivals' request ids against the owner's id
    /// counter: each must lie below `next_id` — the ids handed out next —
    /// and belong to no other pending arrival and to no request `is_live`
    /// reports as already in the datapath. A clash would register one id
    /// twice once the arrival fires.
    pub fn check_arrival_ids(
        &self,
        next_id: RequestId,
        is_live: impl Fn(RequestId) -> bool,
    ) -> Result<(), SnapError> {
        let mut ids: Vec<RequestId> = self.arrivals.iter().map(|a| a.id).collect();
        if ids.iter().any(|&id| id >= next_id) {
            return Err(SnapError::Corrupt("pending arrival id at or past the next id"));
        }
        ids.sort_unstable();
        if ids.windows(2).any(|pair| pair[0] == pair[1]) || ids.iter().any(|&id| is_live(id)) {
            return Err(SnapError::Corrupt("pending arrival id already in use"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbica_storage::request::{RequestKind, RequestOrigin};

    fn record(t: u64) -> TraceRecord {
        TraceRecord::new(t, 0, 8, RequestKind::Read)
    }

    const NO_STATIONS: &[DeviceStation] = &[];

    /// Pops every arrival in firing order, returning the request ids.
    fn drain(q: &mut EventQueue) -> Vec<u64> {
        std::iter::from_fn(|| {
            q.next_event(NO_STATIONS, SimTime::from_secs(1_000_000))?;
            Some(q.pop_arrival().id())
        })
        .collect()
    }

    fn round_trip(q: &EventQueue, held: Vec<(SimTime, u64, EventKind)>) -> Vec<u8> {
        let mut w = SnapWriter::new();
        q.snap_to(&mut w, held);
        w.into_bytes()
    }

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        for (id, t) in [(1u64, 300u64), (2, 100), (3, 200)] {
            q.schedule_record(id, &record(t));
        }
        assert_eq!(drain(&mut q), vec![2, 3, 1]);
    }

    #[test]
    fn simultaneous_events_fire_in_insertion_order() {
        let mut q = EventQueue::new();
        for id in 0..5u64 {
            q.schedule_record(id, &record(50));
        }
        assert_eq!(drain(&mut q), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn next_event_respects_the_limit() {
        let mut q = EventQueue::new();
        q.schedule_record(1, &record(100));
        q.schedule_record(2, &record(500));
        let limit = SimTime::from_micros(200);
        assert_eq!(q.next_event(NO_STATIONS, limit), Some(NextEvent::Arrival));
        q.pop_arrival();
        assert_eq!(q.next_event(NO_STATIONS, limit), None);
        assert_eq!(q.len(), 1);
        assert_eq!(q.next_event(NO_STATIONS, SimTime::from_micros(500)), Some(NextEvent::Arrival));
        q.pop_arrival();
        assert!(q.is_empty());
    }

    #[test]
    fn out_of_order_arrivals_insert_in_exact_time_seq_order() {
        let mut q = EventQueue::new();
        // In order: 100, 200, 300; then arrivals landing between, before,
        // and at an equal time after those.
        for (id, t) in [(0u64, 100u64), (1, 200), (2, 300), (3, 150), (4, 50), (5, 200), (6, 300)] {
            q.schedule_record(id, &record(t));
        }
        // Time order, seq-stable within equal times: 50, 100, 150,
        // 200(seq1), 200(seq5), 300(seq2), 300(seq6).
        assert_eq!(drain(&mut q), vec![4, 0, 3, 1, 5, 2, 6]);
    }

    #[test]
    fn lanes_merge_in_exact_time_seq_order() {
        use lbica_storage::device::SsdModel;
        // Arrivals at 100 (seq 0) and 300 (seq 1); completions held at two
        // stations at 300 (seq 2), 50 (seq 3) and 100 (seq 4).
        let mut q = EventQueue::new();
        q.schedule_record(0, &record(100));
        q.schedule_record(1, &record(300));
        let mut stations = [
            DeviceStation::new("ssd", SsdModel::samsung_863a(), 1),
            DeviceStation::new("disk", SsdModel::samsung_863a(), 4),
        ];
        let served = |id, t| {
            let mut request = record(0).to_request(id);
            request.mark_dispatched(SimTime::ZERO);
            request.mark_completed(SimTime::from_micros(t));
            request
        };
        let [ssd, disk] = &mut stations;
        ssd.hold(SimTime::from_micros(300), q.start_service(), served(10, 300)).unwrap();
        disk.hold(SimTime::from_micros(50), q.start_service(), served(11, 50)).unwrap();
        disk.hold(SimTime::from_micros(100), q.start_service(), served(12, 100)).unwrap();
        let mut fired = Vec::new();
        while let Some(next) = q.next_event(&stations, SimTime::from_secs(1)) {
            let id = match next {
                NextEvent::Arrival => q.pop_arrival().id(),
                NextEvent::Completion { station, slot } => {
                    q.finish_service();
                    stations[station].finish(slot).request.id()
                }
            };
            fired.push(id);
        }
        // 50(seq3), 100(seq0) before 100(seq4), 300(seq1) before 300(seq2).
        assert_eq!(fired, vec![11, 0, 12, 1, 10]);
        assert!(q.is_empty());
    }

    #[test]
    fn snapshot_round_trip_preserves_pop_order_across_both_lanes() {
        let mut q = EventQueue::new();
        let completion = |id| {
            let mut request = IoRequest::new(id, RequestKind::Write, RequestOrigin::Promote, 64, 8)
                .with_arrival(SimTime::from_micros(10));
            request.mark_dispatched(SimTime::from_micros(10));
            request
        };
        // seq 0..3 arrive at 100, 200, 300; completions take seq 3 and 4.
        for (id, t) in [(0u64, 100u64), (1, 200), (2, 300)] {
            q.schedule_record(id, &record(t));
        }
        let (s3, s4) = (q.start_service(), q.start_service());
        let held = vec![
            (
                SimTime::from_micros(200),
                s3,
                EventKind::Completion { tier: TierId::Disk, request: completion(3) },
            ),
            (
                SimTime::from_micros(50),
                s4,
                EventKind::LevelCompletion { level: 1, request: completion(4) },
            ),
        ];
        let bytes = round_trip(&q, held.clone());

        let mut restored = EventQueue::new();
        let mut returned = Vec::new();
        let mut r = SnapReader::new(&bytes);
        restored
            .snap_state_from(&mut r, |time, seq, kind| {
                returned.push((time, seq, kind));
                Ok(())
            })
            .unwrap();
        r.finish().unwrap();
        // The completions come back in (time, seq) order: 50(seq4) before
        // 200(seq3); the arrival at 200 (seq1) precedes the completion at
        // 200 (seq3) in the stream.
        assert_eq!(returned, vec![held[1].clone(), held[0].clone()]);
        assert_eq!(restored.len(), q.len());
        assert_eq!(restored.peak_len(), q.peak_len());
        assert_eq!(round_trip(&restored, held), bytes, "snap → restore → snap is stable");
        assert_eq!(drain(&mut restored), vec![0, 1, 2]);
    }

    #[test]
    fn restored_queue_continues_the_seq_counter() {
        let mut q = EventQueue::new();
        q.schedule_record(1, &record(100));
        let bytes = round_trip(&q, Vec::new());
        let mut restored = EventQueue::new();
        restored.snap_state_from(&mut SnapReader::new(&bytes), |_, _, _| Ok(())).unwrap();
        // A post-restore arrival at the same time must fire *after* the
        // restored one (larger seq), exactly as in the unsplit run.
        restored.schedule_record(2, &record(100));
        assert_eq!(restored.start_service(), 2, "the next seq continues past the restored ones");
        assert_eq!(drain(&mut restored), vec![1, 2]);
    }

    #[test]
    fn corrupt_event_kind_tag_is_rejected() {
        let mut q = EventQueue::new();
        q.schedule_record(1, &record(100));
        let mut bytes = round_trip(&q, Vec::new());
        // next_seq (8) + peak_len (8) + count (8) + time (8) + seq (8),
        // then the kind tag.
        bytes[40] = 9;
        let err = EventQueue::new()
            .snap_state_from(&mut SnapReader::new(&bytes), |_, _, _| Ok(()))
            .unwrap_err();
        assert!(matches!(err, SnapError::Corrupt("event kind tag")));
    }

    #[test]
    fn an_arrival_off_its_request_stamp_is_rejected() {
        let mut q = EventQueue::new();
        q.schedule_record(1, &record(100));
        let mut bytes = round_trip(&q, Vec::new());
        // The event time (bytes 24..32) no longer matches the request.
        bytes[24..32].copy_from_slice(&99u64.to_le_bytes());
        let err = EventQueue::new()
            .snap_state_from(&mut SnapReader::new(&bytes), |_, _, _| Ok(()))
            .unwrap_err();
        assert_eq!(err, SnapError::Corrupt("arrival event off its request's stamp"));
    }

    /// A checkpoint holding one pending arrival, `request`, at its stamp.
    fn one_arrival(request: IoRequest) -> Vec<u8> {
        let mut w = SnapWriter::new();
        // next_seq, peak_len and the event count; then the event's time and
        // seq.
        w.put_u64(1);
        w.put_usize(1);
        w.put_usize(1);
        w.put_u64(request.arrival().as_micros());
        w.put_u64(0);
        EventKind::Arrival(request).snap_to(&mut w);
        w.into_bytes()
    }

    #[test]
    fn a_restored_arrival_no_record_describes_is_rejected() {
        let fresh = || record(100).to_request(1);
        let mut stamped = fresh();
        stamped.mark_dispatched(SimTime::from_micros(100));
        let long = IoRequest::new(1, RequestKind::Read, RequestOrigin::Application, 0, 1 << 32)
            .with_arrival(SimTime::from_micros(100));
        let derived = IoRequest::new(1, RequestKind::Write, RequestOrigin::Flush, 0, 8)
            .with_arrival(SimTime::from_micros(100));
        for (request, reason) in [
            (stamped, "pending arrival carries a service stamp"),
            (fresh().with_parent(7), "pending arrival is not an application request"),
            (derived, "pending arrival is not an application request"),
            (long, "pending arrival longer than a record"),
        ] {
            let err = EventQueue::new()
                .snap_state_from(&mut SnapReader::new(&one_arrival(request)), |_, _, _| Ok(()))
                .unwrap_err();
            assert_eq!(err, SnapError::Corrupt(reason));
        }
        let mut restored = EventQueue::new();
        let bytes = one_arrival(fresh());
        restored.snap_state_from(&mut SnapReader::new(&bytes), |_, _, _| Ok(())).unwrap();
        assert_eq!(restored.pop_arrival(), fresh(), "a record-shaped arrival restores exactly");
    }

    #[test]
    fn restored_arrival_ids_must_be_fresh_and_distinct() {
        let mut q = EventQueue::new();
        q.schedule_record(3, &record(100));
        q.schedule_record(5, &record(50));
        let none_live = |_| false;
        assert_eq!(q.check_arrival_ids(6, none_live), Ok(()));
        assert_eq!(
            q.check_arrival_ids(5, none_live),
            Err(SnapError::Corrupt("pending arrival id at or past the next id"))
        );
        let in_use = Err(SnapError::Corrupt("pending arrival id already in use"));
        assert_eq!(q.check_arrival_ids(6, |id| id == 3), in_use);
        q.schedule_record(3, &record(200));
        assert_eq!(q.check_arrival_ids(6, none_live), in_use);
    }

    #[test]
    fn peak_len_tracks_the_high_watermark() {
        let mut q = EventQueue::new();
        assert_eq!(q.peak_len(), 0);
        for id in 0..7u64 {
            q.schedule_record(id, &record(10 + id));
        }
        q.pop_arrival();
        q.start_service();
        q.start_service();
        assert_eq!(q.len(), 8);
        q.finish_service();
        assert_eq!(drain(&mut q).len(), 6);
        q.finish_service();
        assert_eq!(q.peak_len(), 8);
        assert!(q.is_empty());
        q.reset();
        assert_eq!(q.peak_len(), 0);
    }
}
