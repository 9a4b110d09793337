//! Replay segment checkpoints.
//!
//! A [`ReplayCheckpoint`] captures the full mid-flight state of a simulation
//! at a monitoring-interval boundary: the storage system (queues, in-flight
//! requests, cache map, event queue, latency tracker), the controller's
//! decision-relevant state, and the report rows already accumulated. A run
//! split at any boundary and resumed from its checkpoint produces a
//! [`SimulationReport`](crate::report::SimulationReport) byte-identical to
//! the unsplit run — which lets long replays pause and resume.
//!
//! Checkpoints serialize through the hand-rolled
//! [`snap`](lbica_storage::snap) encoding and are hardened against hostile
//! input the same way: truncated, corrupted, or mismatched buffers decode to
//! typed [`SnapError`]s, never panics.

use lbica_storage::snap::{SnapError, SnapReader, SnapWriter};
use lbica_trace::monitor::IntervalReport;

use crate::report::PolicyChange;

/// File magic of the serialized checkpoint format.
const MAGIC: [u8; 4] = *b"LBCP";
/// Version of the serialized checkpoint format.
const VERSION: u32 = 1;

/// The state of a simulation paused at a monitoring-interval boundary.
///
/// Produced by [`Simulation::run_to_checkpoint`](crate::Simulation::run_to_checkpoint)
/// and consumed by
/// [`Simulation::resume_from_checkpoint`](crate::Simulation::resume_from_checkpoint).
/// The identity fields (`workload`, `controller`, `seed`, `tiered`,
/// `total_intervals`) are validated on resume so a checkpoint can never be
/// silently replayed against the wrong cell.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayCheckpoint {
    /// Workload name of the checkpointed run.
    pub workload: String,
    /// Controller name of the checkpointed run.
    pub controller: String,
    /// Workload seed of the checkpointed run.
    pub seed: u64,
    /// Whether the run used the tiered datapath.
    pub tiered: bool,
    /// First interval the resumed run will execute.
    pub next_interval: u32,
    /// Total intervals the workload defines.
    pub total_intervals: u32,
    /// Requests bypassed to the disk so far.
    pub bypassed_total: u64,
    /// Interval reports accumulated so far (one per completed interval).
    pub intervals: Vec<IntervalReport>,
    /// Policy changes recorded so far.
    pub policy_changes: Vec<PolicyChange>,
    /// Opaque snapshot of the storage system followed by the controller
    /// state, as written by `StorageSystem::snap_to` /
    /// `CacheController::save_state`.
    pub state: Vec<u8>,
}

impl ReplayCheckpoint {
    /// Serializes the checkpoint to a self-describing byte buffer.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        for b in MAGIC {
            w.put_u8(b);
        }
        w.put_u32(VERSION);
        w.put_str(&self.workload);
        w.put_str(&self.controller);
        w.put_u64(self.seed);
        w.put_bool(self.tiered);
        w.put_u32(self.next_interval);
        w.put_u32(self.total_intervals);
        w.put_u64(self.bypassed_total);
        w.put_usize(self.intervals.len());
        for interval in &self.intervals {
            interval.snap_to(&mut w);
        }
        w.put_usize(self.policy_changes.len());
        for change in &self.policy_changes {
            change.snap_to(&mut w);
        }
        w.put_bytes(&self.state);
        w.into_bytes()
    }

    /// Decodes a checkpoint serialized by [`ReplayCheckpoint::to_bytes`],
    /// treating the buffer as untrusted.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapError> {
        let mut r = SnapReader::new(bytes);
        for expected in MAGIC {
            if r.get_u8()? != expected {
                return Err(SnapError::Corrupt("checkpoint magic"));
            }
        }
        if r.get_u32()? != VERSION {
            return Err(SnapError::Corrupt("checkpoint version"));
        }
        let workload = r.get_str()?;
        let controller = r.get_str()?;
        let seed = r.get_u64()?;
        let tiered = r.get_bool()?;
        let next_interval = r.get_u32()?;
        let total_intervals = r.get_u32()?;
        let bypassed_total = r.get_u64()?;
        let interval_count = r.get_usize()?;
        // No `with_capacity` on the untrusted count: a hostile length errors
        // out on the first short read instead of pre-allocating.
        let mut intervals = Vec::new();
        for _ in 0..interval_count {
            intervals.push(IntervalReport::snap_from(&mut r)?);
        }
        let change_count = r.get_usize()?;
        let mut policy_changes = Vec::new();
        for _ in 0..change_count {
            policy_changes.push(PolicyChange::snap_from(&mut r)?);
        }
        let state = r.get_bytes()?;
        r.finish()?;
        let cp = ReplayCheckpoint {
            workload,
            controller,
            seed,
            tiered,
            next_interval,
            total_intervals,
            bypassed_total,
            intervals,
            policy_changes,
            state,
        };
        cp.check()?;
        Ok(cp)
    }

    /// Checks the structure every resumable checkpoint has, whether decoded
    /// or built in memory (the fields are public): `next_interval` within
    /// the workload, one interval row per completed interval, and a policy
    /// timeline that starts at interval 0, strictly increases and has no
    /// entry past `next_interval`.
    pub(crate) fn check(&self) -> Result<(), SnapError> {
        if self.next_interval > self.total_intervals {
            return Err(SnapError::Corrupt("checkpoint interval beyond workload end"));
        }
        if self.intervals.len() != self.next_interval as usize {
            return Err(SnapError::Corrupt("checkpoint interval row count"));
        }
        let starts = self.policy_changes.first().is_some_and(|c| c.interval == 0);
        let increases = self.policy_changes.windows(2).all(|w| w[0].interval < w[1].interval);
        let bounded = self.policy_changes.last().is_some_and(|c| c.interval <= self.next_interval);
        if !(starts && increases && bounded) {
            return Err(SnapError::Corrupt("checkpoint policy timeline"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ReplayCheckpoint {
        ReplayCheckpoint {
            workload: "tpcc".into(),
            controller: "LBICA".into(),
            seed: 42,
            tiered: true,
            next_interval: 2,
            total_intervals: 9,
            bypassed_total: 17,
            intervals: vec![
                IntervalReport { index: 0, ..IntervalReport::default() },
                IntervalReport {
                    index: 1,
                    burst_detected: true,
                    policy_label: "WO".into(),
                    ..IntervalReport::default()
                },
            ],
            policy_changes: vec![
                PolicyChange { interval: 0, policy: "WB".into() },
                PolicyChange { interval: 2, policy: "WO".into() },
            ],
            state: vec![1, 2, 3, 4, 5],
        }
    }

    #[test]
    fn checkpoints_round_trip_through_bytes() {
        let cp = sample();
        let decoded = ReplayCheckpoint::from_bytes(&cp.to_bytes()).unwrap();
        assert_eq!(cp, decoded);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = sample().to_bytes();
        bytes[0] ^= 0xff;
        assert_eq!(
            ReplayCheckpoint::from_bytes(&bytes),
            Err(SnapError::Corrupt("checkpoint magic"))
        );
    }

    #[test]
    fn future_versions_are_rejected() {
        let mut bytes = sample().to_bytes();
        bytes[4] = 0xfe;
        assert_eq!(
            ReplayCheckpoint::from_bytes(&bytes),
            Err(SnapError::Corrupt("checkpoint version"))
        );
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        let bytes = sample().to_bytes();
        for len in 0..bytes.len() {
            match ReplayCheckpoint::from_bytes(&bytes[..len]) {
                Err(_) => {}
                Ok(_) => panic!("truncation to {len} bytes decoded successfully"),
            }
        }
    }

    #[test]
    fn interval_row_count_must_match_next_interval() {
        let mut cp = sample();
        cp.intervals.pop();
        assert_eq!(
            ReplayCheckpoint::from_bytes(&cp.to_bytes()),
            Err(SnapError::Corrupt("checkpoint interval row count"))
        );
    }

    #[test]
    fn policy_timelines_must_start_at_zero_increase_and_stop_at_next_interval() {
        let corrupt = Err(SnapError::Corrupt("checkpoint policy timeline"));
        let change = |interval| PolicyChange { interval, policy: "WB".into() };
        for changes in [
            vec![],
            vec![change(1)],
            vec![change(0), change(2), change(2)],
            vec![change(0), change(2), change(1)],
            vec![change(0), change(3)],
        ] {
            let cp = ReplayCheckpoint { policy_changes: changes.clone(), ..sample() };
            assert_eq!(ReplayCheckpoint::from_bytes(&cp.to_bytes()), corrupt, "{changes:?}");
        }
    }
}
