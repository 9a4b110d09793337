//! Outstanding-application-request accounting.
//!
//! Request ids are dense and sequential (the system hands them out from a
//! counter), so keying a `HashMap` by them pays SipHash for nothing. The
//! tracker instead keeps a power-of-two id→slot index, read at `id & mask`,
//! into a free-list slab of live entries that stores each entry's id: a
//! lookup is a pair of array indexing operations and one id comparison.
//! Only ids in flight at the same time can collide, so the index is sized
//! by the span of live ids, not by every id ever issued: it doubles only
//! when a new id lands on a live one.

use lbica_storage::histogram::LatencyHistogram;
use lbica_storage::request::RequestId;
use lbica_storage::snap::{SnapError, SnapReader, SnapWriter};
use lbica_storage::time::SimTime;

/// Sentinel for "no slot" in the id→slot index.
const NIL: u32 = u32::MAX;

/// The id→slot index's length on first use.
const MIN_INDEX: usize = 1 << 10;

/// One outstanding application request.
#[derive(Debug, Clone, Copy)]
struct AppEntry {
    id: RequestId,
    arrival: SimTime,
    pending_ops: u32,
}

/// Tracks in-flight application requests and aggregates end-to-end latency
/// over completed ones.
///
/// ```
/// use lbica_sim::tracker::AppTracker;
/// use lbica_storage::time::SimTime;
///
/// let mut t = AppTracker::new();
/// t.register(1, SimTime::ZERO, 2);
/// t.complete_op(1, SimTime::from_micros(100));
/// t.complete_op(1, SimTime::from_micros(250));
/// assert_eq!(t.completed(), 1);
/// assert_eq!(t.total_latency_us(), 250);
/// ```
#[derive(Debug, Default)]
pub struct AppTracker {
    /// `id & (len - 1)` → slab slot (`NIL` when no live entry sits there).
    /// Empty or a power of two long; every live id has its own position.
    index: Vec<u32>,
    /// Live entries, slots reused via `free`.
    slots: Vec<AppEntry>,
    free: Vec<u32>,
    completed: u64,
    total_latency_us: u64,
    max_latency_us: u64,
    /// End-to-end latency distribution over completed requests, feeding the
    /// report's p50/p95/p99 columns.
    latency: LatencyHistogram,
}

impl AppTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        AppTracker::default()
    }

    /// Number of application requests fully completed.
    pub const fn completed(&self) -> u64 {
        self.completed
    }

    /// Sum of end-to-end latencies of completed requests, µs.
    pub const fn total_latency_us(&self) -> u64 {
        self.total_latency_us
    }

    /// Mean end-to-end latency of completed requests, µs (0 before the
    /// first completion).
    pub(crate) fn avg_latency_us(&self) -> u64 {
        self.total_latency_us.checked_div(self.completed).unwrap_or(0)
    }

    /// Largest end-to-end latency of a completed request, µs.
    pub const fn max_latency_us(&self) -> u64 {
        self.max_latency_us
    }

    /// End-to-end latency at the given percentile (0–100), µs, log-bucketed.
    pub fn percentile_us(&self, pct: f64) -> u64 {
        self.latency.percentile(pct).as_micros()
    }

    /// The full end-to-end latency distribution over completed requests.
    pub fn latency_histogram(&self) -> &LatencyHistogram {
        &self.latency
    }

    /// Number of requests currently in flight.
    pub fn outstanding(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Clears all accounting while keeping the id→slot index, the entry
    /// slab, and the free list allocated, so a reused tracker registers
    /// requests without growing any Vec. Observationally identical to a
    /// freshly constructed tracker afterwards.
    pub fn reset(&mut self) {
        self.index.fill(NIL);
        self.slots.clear();
        self.free.clear();
        self.completed = 0;
        self.total_latency_us = 0;
        self.max_latency_us = 0;
        self.latency.reset();
    }

    /// Serializes the tracker for a replay checkpoint: the completed-side
    /// aggregates, every in-flight request as an `(id, arrival,
    /// pending_ops)` triple in id order, then `next_id` — the owning
    /// system's request-id high-water mark, which bounds every live id on
    /// restore. Slab slot assignments are *not* recorded — they are
    /// unobservable bookkeeping, rebuilt on restore.
    pub fn snap_to(&self, w: &mut SnapWriter, next_id: RequestId) {
        w.put_u64(self.completed);
        w.put_u64(self.total_latency_us);
        w.put_u64(self.max_latency_us);
        self.latency.snap_to(w);
        w.put_usize(self.outstanding());
        let mut live: Vec<&AppEntry> = self
            .index
            .iter()
            .filter(|&&slot| slot != NIL)
            .map(|&slot| &self.slots[slot as usize])
            .collect();
        live.sort_unstable_by_key(|entry| entry.id);
        for entry in live {
            w.put_u64(entry.id);
            w.put_u64(entry.arrival.as_micros());
            w.put_u32(entry.pending_ops);
        }
        w.put_u64(next_id);
    }

    /// Restores state written by [`AppTracker::snap_to`] into this tracker
    /// (whose own accounting is discarded) and returns the stored
    /// `next_id`. Every live id must lie below it: the index doubles until
    /// no two live ids share a position, which for ids below `next_id`
    /// takes at most `2 × next_id` entries, so a corrupted id is rejected
    /// before it can ask for an unbounded allocation.
    pub fn snap_state_from(&mut self, r: &mut SnapReader<'_>) -> Result<RequestId, SnapError> {
        self.reset();
        self.completed = r.get_u64()?;
        self.total_latency_us = r.get_u64()?;
        self.max_latency_us = r.get_u64()?;
        self.latency = LatencyHistogram::snap_from(r)?;
        let live = r.get_usize()?;
        // Staged until `next_id` is known. No `with_capacity` on the
        // untrusted count: a hostile length fails on the first short read.
        let mut staged = Vec::new();
        for _ in 0..live {
            let id = r.get_u64()?;
            let arrival = SimTime::from_micros(r.get_u64()?);
            let pending_ops = r.get_u32()?;
            if pending_ops == 0 {
                return Err(SnapError::Corrupt("live request with zero pending ops"));
            }
            staged.push((id, arrival, pending_ops));
        }
        let next_id = r.get_u64()?;
        if staged.iter().any(|&(id, ..)| id >= next_id) {
            return Err(SnapError::Corrupt("live request id at or past the next id"));
        }
        for (id, arrival, pending_ops) in staged {
            if self.is_live(id) {
                return Err(SnapError::Corrupt("duplicate live request id"));
            }
            self.register(id, arrival, pending_ops);
        }
        Ok(next_id)
    }

    /// Whether application request `id` is registered and still has
    /// datapath operations pending.
    pub fn is_live(&self, id: RequestId) -> bool {
        self.live_slot(id).is_some()
    }

    /// The position `id` takes in the index (meaningless while it is
    /// empty).
    fn position(&self, id: RequestId) -> usize {
        id as usize & self.index.len().wrapping_sub(1)
    }

    /// The index position and slab slot of live request `id`.
    fn live_slot(&self, id: RequestId) -> Option<(usize, u32)> {
        let pos = self.position(id);
        let &slot = self.index.get(pos)?;
        (slot != NIL && self.slots[slot as usize].id == id).then_some((pos, slot))
    }

    /// Doubles the index (or allocates it on first use) and moves every
    /// live entry to its new position. Two ids that differ below the old
    /// mask still differ below the new one, so the moves cannot collide.
    #[cold]
    fn grow(&mut self) {
        let len = (self.index.len() * 2).max(MIN_INDEX);
        let mut index = vec![NIL; len];
        for &slot in self.index.iter().filter(|&&slot| slot != NIL) {
            index[self.slots[slot as usize].id as usize & (len - 1)] = slot;
        }
        self.index = index;
    }

    /// Registers an application request that fans out into `pending_ops`
    /// datapath operations.
    pub fn register(&mut self, id: RequestId, arrival: SimTime, pending_ops: u32) {
        if pending_ops == 0 {
            // Nothing in the datapath (cannot normally happen) — count as an
            // instantaneous completion.
            self.completed += 1;
            self.latency.record_us(0);
            return;
        }
        let mut pos = self.position(id);
        while self.index.get(pos).is_none_or(|&slot| slot != NIL) {
            assert!(!self.is_live(id), "request id registered twice");
            self.grow();
            pos = self.position(id);
        }
        let entry = AppEntry { id, arrival, pending_ops };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = entry;
                slot
            }
            None => {
                let slot = u32::try_from(self.slots.len()).expect("slab fits u32 indices");
                self.slots.push(entry);
                slot
            }
        };
        self.index[pos] = slot;
    }

    /// Records the completion of one datapath operation belonging to
    /// application request `parent`. When the last one lands the request's
    /// end-to-end latency is folded into the aggregates. Unknown parents
    /// are ignored (their request completed through another path), also
    /// when a live request now holds their index position.
    pub fn complete_op(&mut self, parent: RequestId, now: SimTime) {
        let Some((pos, slot)) = self.live_slot(parent) else {
            return;
        };
        let entry = &mut self.slots[slot as usize];
        entry.pending_ops -= 1;
        if entry.pending_ops == 0 {
            let latency = now.saturating_since(entry.arrival).as_micros();
            self.completed += 1;
            self.total_latency_us += latency;
            self.max_latency_us = self.max_latency_us.max(latency);
            self.latency.record_us(latency);
            self.index[pos] = NIL;
            self.free.push(slot);
        }
    }
}

#[cfg(test)]
impl AppTracker {
    /// Finds this tracker's section inside a checkpoint's `state` bytes by
    /// its encoding and overwrites its first live id with `id`.
    pub(crate) fn overwrite_first_live_id(&self, state: &mut [u8], next_id: RequestId, id: u64) {
        assert!(self.outstanding() > 0, "the checkpoint has live requests");
        let mut w = SnapWriter::new();
        self.snap_to(&mut w, next_id);
        let section = w.into_bytes();
        let start = state
            .windows(section.len())
            .position(|window| window == section)
            .expect("the tracker section is in the checkpoint");
        // Live `(id, arrival, pending_ops)` triples of 20 bytes each sit
        // right before the trailing next_id.
        let at = start + section.len() - 8 - 20 * self.outstanding();
        state[at..at + 8].copy_from_slice(&id.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_op_registration_counts_as_instant_completion() {
        let mut t = AppTracker::new();
        t.register(1, SimTime::ZERO, 0);
        assert_eq!(t.completed(), 1);
        assert_eq!(t.outstanding(), 0);
        assert_eq!(t.total_latency_us(), 0);
    }

    #[test]
    fn latency_is_taken_from_the_last_op() {
        let mut t = AppTracker::new();
        t.register(5, SimTime::from_micros(100), 3);
        t.complete_op(5, SimTime::from_micros(150));
        t.complete_op(5, SimTime::from_micros(200));
        assert_eq!(t.completed(), 0);
        assert_eq!(t.outstanding(), 1);
        t.complete_op(5, SimTime::from_micros(400));
        assert_eq!(t.completed(), 1);
        assert_eq!(t.total_latency_us(), 300);
        assert_eq!(t.max_latency_us(), 300);
        assert_eq!(t.outstanding(), 0);
    }

    #[test]
    fn unknown_parents_are_ignored() {
        let mut t = AppTracker::new();
        t.complete_op(42, SimTime::from_micros(10));
        t.register(1, SimTime::ZERO, 1);
        t.complete_op(99, SimTime::from_micros(10));
        assert_eq!(t.completed(), 0);
        assert_eq!(t.outstanding(), 1);
    }

    #[test]
    fn slots_are_reused_across_request_generations() {
        let mut t = AppTracker::new();
        for id in 1..=100u64 {
            t.register(id, SimTime::from_micros(id), 1);
            t.complete_op(id, SimTime::from_micros(id + 7));
        }
        assert_eq!(t.completed(), 100);
        assert_eq!(t.outstanding(), 0);
        // One request in flight at a time → one slab slot, ever.
        assert_eq!(t.slots.len(), 1);
        assert_eq!(t.total_latency_us(), 700);
        assert_eq!(t.max_latency_us(), 7);
    }

    #[test]
    fn interleaved_requests_complete_independently() {
        let mut t = AppTracker::new();
        t.register(1, SimTime::ZERO, 2);
        t.register(2, SimTime::from_micros(50), 1);
        t.complete_op(1, SimTime::from_micros(60));
        t.complete_op(2, SimTime::from_micros(80));
        assert_eq!(t.completed(), 1);
        t.complete_op(1, SimTime::from_micros(120));
        assert_eq!(t.completed(), 2);
        assert_eq!(t.max_latency_us(), 120);
        assert_eq!(t.total_latency_us(), 150);
    }

    #[test]
    fn snapshot_round_trip_restores_aggregates_and_in_flight_requests() {
        let mut t = AppTracker::new();
        for id in 1..=20u64 {
            t.register(id, SimTime::from_micros(id), 1);
            t.complete_op(id, SimTime::from_micros(id + 5));
        }
        t.register(21, SimTime::from_micros(100), 2);
        t.register(22, SimTime::from_micros(110), 1);
        t.complete_op(21, SimTime::from_micros(120));

        let mut w = SnapWriter::new();
        t.snap_to(&mut w, 23);
        let bytes = w.into_bytes();
        let mut restored = AppTracker::new();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(restored.snap_state_from(&mut r).unwrap(), 23);
        r.finish().unwrap();

        assert_eq!(restored.completed(), t.completed());
        assert_eq!(restored.total_latency_us(), t.total_latency_us());
        assert_eq!(restored.max_latency_us(), t.max_latency_us());
        assert_eq!(restored.outstanding(), 2);
        assert_eq!(restored.percentile_us(50.0), t.percentile_us(50.0));
        // The restored tracker finishes the in-flight requests identically.
        restored.complete_op(21, SimTime::from_micros(300));
        t.complete_op(21, SimTime::from_micros(300));
        restored.complete_op(22, SimTime::from_micros(310));
        t.complete_op(22, SimTime::from_micros(310));
        assert_eq!(restored.completed(), t.completed());
        assert_eq!(restored.total_latency_us(), t.total_latency_us());
        assert_eq!(restored.max_latency_us(), t.max_latency_us());
    }

    #[test]
    fn zero_pending_ops_in_a_snapshot_is_rejected() {
        let mut t = AppTracker::new();
        t.register(7, SimTime::from_micros(5), 3);
        let mut w = SnapWriter::new();
        t.snap_to(&mut w, 8);
        let mut bytes = w.into_bytes();
        // The live entry's pending_ops is the u32 before the trailing
        // next_id.
        let n = bytes.len();
        bytes[n - 12..n - 8].fill(0);
        let err = AppTracker::new().snap_state_from(&mut SnapReader::new(&bytes)).unwrap_err();
        assert!(matches!(err, SnapError::Corrupt("live request with zero pending ops")));
    }

    #[test]
    fn the_index_grows_only_when_a_new_id_lands_on_a_live_one() {
        let mut t = AppTracker::new();
        let span = MIN_INDEX as u64;
        t.register(1, SimTime::ZERO, 1);
        t.complete_op(1, SimTime::from_micros(3));
        // Same position as the completed id 1: no growth.
        t.register(1 + span, SimTime::ZERO, 1);
        assert_eq!(t.index.len(), MIN_INDEX);
        // Same position as the live id 1 + span: the index doubles.
        t.register(1 + 2 * span, SimTime::from_micros(10), 1);
        assert_eq!(t.index.len(), 2 * MIN_INDEX);
        // 1 + 10 x span agrees with 1 + 2 x span below bit 13, so it takes
        // 2^14 positions: three doublings more.
        t.register(1 + 2 * span + 8 * span, SimTime::from_micros(20), 1);
        assert_eq!(t.index.len(), 16 * MIN_INDEX);
        for id in [1 + span, 1 + 2 * span, 1 + 10 * span] {
            assert!(t.is_live(id), "{id} lost in the move");
        }
        t.complete_op(1 + 2 * span, SimTime::from_micros(15));
        t.complete_op(1 + 10 * span, SimTime::from_micros(60));
        t.complete_op(1 + span, SimTime::from_micros(70));
        assert_eq!((t.completed(), t.outstanding()), (4, 0));
        assert_eq!(t.total_latency_us(), 3 + 5 + 40 + 70);
        // Reset keeps the grown index.
        t.reset();
        assert_eq!(t.index.len(), 16 * MIN_INDEX);
        assert!(!t.is_live(1 + span));
    }

    #[test]
    fn a_completed_parent_is_ignored_when_a_live_id_holds_its_position() {
        let mut t = AppTracker::new();
        let late = 7 + MIN_INDEX as u64;
        t.register(7, SimTime::ZERO, 1);
        t.complete_op(7, SimTime::from_micros(5));
        t.register(late, SimTime::from_micros(10), 2);
        // A second completion of 7 finds `late` at its position.
        t.complete_op(7, SimTime::from_micros(20));
        assert!(!t.is_live(7));
        assert!(t.is_live(late));
        assert_eq!((t.completed(), t.outstanding()), (1, 1));
        t.complete_op(late, SimTime::from_micros(30));
        t.complete_op(late, SimTime::from_micros(40));
        assert_eq!((t.completed(), t.outstanding()), (2, 0));
        assert_eq!(t.max_latency_us(), 30);
    }

    #[test]
    fn snapshots_list_live_requests_in_id_order() {
        let mut t = AppTracker::new();
        // Index positions 0, 2, 1023 and 1: id order differs from both
        // position and registration order.
        let ids = [MIN_INDEX as u64, 2, MIN_INDEX as u64 - 1, 1 + 2 * MIN_INDEX as u64];
        for (i, &id) in ids.iter().enumerate() {
            t.register(id, SimTime::from_micros(100 + i as u64), 1 + i as u32);
        }
        let mut w = SnapWriter::new();
        t.snap_to(&mut w, 3_000);
        let bytes = w.into_bytes();
        let mut by_id: Vec<(usize, u64)> = ids.iter().copied().enumerate().collect();
        by_id.sort_by_key(|&(_, id)| id);
        let mut expected = SnapWriter::new();
        for (i, id) in by_id {
            expected.put_u64(id);
            expected.put_u64(100 + i as u64);
            expected.put_u32(1 + i as u32);
        }
        expected.put_u64(3_000);
        assert!(bytes.ends_with(&expected.into_bytes()), "live triples not in id order");
    }

    #[test]
    fn percentiles_track_completed_latencies() {
        let mut t = AppTracker::new();
        for id in 1..=100u64 {
            t.register(id, SimTime::ZERO, 1);
            t.complete_op(id, SimTime::from_micros(id * 100));
        }
        assert_eq!(t.latency_histogram().count(), 100);
        let p50 = t.percentile_us(50.0);
        let p99 = t.percentile_us(99.0);
        assert!((4_000..=6_500).contains(&p50), "p50 {p50}");
        assert!(p99 >= p50 && p99 <= t.max_latency_us());
    }
}
