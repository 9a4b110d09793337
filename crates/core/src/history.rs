//! Decision history: what LBICA decided, interval by interval.
//!
//! The paper presents Fig. 6 as the controller's own view of the run —
//! which intervals were bursts, how each was characterized and which
//! policy was assigned. [`DecisionLog`] records exactly that from inside
//! the controller, whose `export_obs` replays it into the observability
//! layer.

use serde::{Deserialize, Serialize};

use lbica_cache::WritePolicy;
use lbica_storage::time::SimDuration;

use crate::characterizer::WorkloadGroup;

/// One recorded controller decision.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DecisionRecord {
    /// Index of the interval the decision was made for.
    pub interval: u32,
    /// Whether the interval was flagged as a burst.
    pub burst: bool,
    /// The cache queue time computed by Eq. 1 at the boundary.
    pub cache_qtime: SimDuration,
    /// The disk queue time computed by Eq. 1 at the boundary.
    pub disk_qtime: SimDuration,
    /// The workload group detected (only meaningful for burst intervals).
    pub group: Option<WorkloadGroup>,
    /// The policy assigned for the next interval.
    pub policy: WritePolicy,
    /// How many requests were requested to be bypassed from the queue tail.
    pub tail_bypass: usize,
}

/// An append-only log of controller decisions.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DecisionLog {
    records: Vec<DecisionRecord>,
}

impl DecisionLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        DecisionLog::default()
    }

    /// Appends a decision.
    pub fn push(&mut self, record: DecisionRecord) {
        self.records.push(record);
    }

    /// All recorded decisions, in interval order.
    pub fn records(&self) -> &[DecisionRecord] {
        &self.records
    }

    /// Number of recorded decisions.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(
        interval: u32,
        burst: bool,
        group: Option<WorkloadGroup>,
        policy: WritePolicy,
        bypass: usize,
    ) -> DecisionRecord {
        DecisionRecord {
            interval,
            burst,
            cache_qtime: SimDuration::from_micros(1_000),
            disk_qtime: SimDuration::from_micros(400),
            group,
            policy,
            tail_bypass: bypass,
        }
    }

    #[test]
    fn log_appends_and_looks_up_by_interval() {
        let mut log = DecisionLog::new();
        assert!(log.is_empty());
        log.push(record(0, false, None, WritePolicy::WriteBack, 0));
        log.push(record(1, true, Some(WorkloadGroup::RandomRead), WritePolicy::WriteOnly, 0));
        assert_eq!(log.len(), 2);
        let by_interval = |i: u32| log.records().iter().find(|r| r.interval == i);
        assert_eq!(by_interval(1).unwrap().policy, WritePolicy::WriteOnly);
        assert!(by_interval(7).is_none());
        assert_eq!(log.records()[0].interval, 0);
    }
}
