//! Workload characterization from in-queue request types
//! (paper Section III-B, Fig. 3).

use std::fmt;

use serde::{Deserialize, Serialize};

use lbica_storage::queue::QueueSnapshot;
use lbica_storage::request::RequestClass;

/// The fractions of R / W / P / E requests observed in the I/O cache queue.
///
/// ```
/// use lbica_core::RequestMix;
/// use lbica_storage::queue::QueueSnapshot;
///
/// let snap = QueueSnapshot { reads: 44, writes: 2, promotes: 51, evicts: 3 };
/// let mix = RequestMix::from_snapshot(&snap);
/// assert!((mix.read - 0.44).abs() < 1e-9);
/// assert!((mix.total() - 1.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct RequestMix {
    /// Fraction of application reads (R).
    pub read: f64,
    /// Fraction of application writes (W).
    pub write: f64,
    /// Fraction of promotes (P).
    pub promote: f64,
    /// Fraction of evictions (E).
    pub evict: f64,
}

impl RequestMix {
    /// Builds a mix from explicit fractions.
    pub fn new(read: f64, write: f64, promote: f64, evict: f64) -> Self {
        RequestMix { read, write, promote, evict }
    }

    /// Builds a mix from a queue snapshot. An empty snapshot yields the
    /// all-zero mix.
    pub fn from_snapshot(snapshot: &QueueSnapshot) -> Self {
        let total = snapshot.total();
        if total == 0 {
            return RequestMix::default();
        }
        let t = total as f64;
        RequestMix {
            read: snapshot.reads as f64 / t,
            write: snapshot.writes as f64 / t,
            promote: snapshot.promotes as f64 / t,
            evict: snapshot.evicts as f64 / t,
        }
    }

    /// The fraction for a given class.
    pub fn fraction(&self, class: RequestClass) -> f64 {
        match class {
            RequestClass::Read => self.read,
            RequestClass::Write => self.write,
            RequestClass::Promote => self.promote,
            RequestClass::Evict => self.evict,
        }
    }

    /// Sum of all four fractions (≈ 1 for a non-empty queue, 0 when empty).
    pub fn total(&self) -> f64 {
        self.read + self.write + self.promote + self.evict
    }

    /// The two classes with the largest fractions, in descending order.
    pub fn dominant_pair(&self) -> (RequestClass, RequestClass) {
        let mut classes = RequestClass::ALL;
        classes.sort_by(|a, b| {
            self.fraction(*b).partial_cmp(&self.fraction(*a)).unwrap_or(std::cmp::Ordering::Equal)
        });
        (classes[0], classes[1])
    }
}

impl fmt::Display for RequestMix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "R: {:.1}%, W: {:.1}%, P: {:.1}%, E: {:.1}%",
            self.read * 100.0,
            self.write * 100.0,
            self.promote * 100.0,
            self.evict * 100.0
        )
    }
}

/// The paper's workload groups (Section III-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum WorkloadGroup {
    /// Group 1: mostly R and P — a random-read workload whose misses flood
    /// the cache with promotions.
    RandomRead,
    /// Group 2: mostly R and W — a mixed read/write workload.
    MixedReadWrite,
    /// Group 3 with W ≫ E: a random-write-intensive workload.
    RandomWrite,
    /// Group 3 with E comparable to W: a sequential-write-intensive
    /// workload.
    SequentialWrite,
    /// Group 4: mostly P — a sequential read stream that misses everywhere.
    SequentialRead,
    /// A mix the paper does not classify (e.g. R+E or W+P majorities).
    Unknown,
}

impl WorkloadGroup {
    /// The paper's group number (1–4), or `None` for [`WorkloadGroup::Unknown`].
    pub const fn group_number(self) -> Option<u8> {
        match self {
            WorkloadGroup::RandomRead => Some(1),
            WorkloadGroup::MixedReadWrite => Some(2),
            WorkloadGroup::RandomWrite | WorkloadGroup::SequentialWrite => Some(3),
            WorkloadGroup::SequentialRead => Some(4),
            WorkloadGroup::Unknown => None,
        }
    }
}

impl fmt::Display for WorkloadGroup {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            WorkloadGroup::RandomRead => "random-read",
            WorkloadGroup::MixedReadWrite => "mixed-read-write",
            WorkloadGroup::RandomWrite => "random-write",
            WorkloadGroup::SequentialWrite => "sequential-write",
            WorkloadGroup::SequentialRead => "sequential-read",
            WorkloadGroup::Unknown => "unknown",
        };
        f.write_str(name)
    }
}

/// Classifies a [`RequestMix`] into a [`WorkloadGroup`] following the rules
/// of Section III-B.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WorkloadCharacterizer {
    /// A single class above this fraction is considered to dominate the
    /// queue on its own (used for Group 4's "mainly P").
    pub solo_dominance: f64,
    /// The top two classes together must cover at least this fraction for a
    /// pair-based classification.
    pub pair_coverage: f64,
    /// Within Group 3, `W ≥ random_write_ratio × E` classifies the workload
    /// as random write rather than sequential write.
    pub random_write_ratio: f64,
}

impl WorkloadCharacterizer {
    /// The thresholds used throughout the reproduction.
    pub fn new() -> Self {
        WorkloadCharacterizer { solo_dominance: 0.60, pair_coverage: 0.60, random_write_ratio: 2.0 }
    }

    /// Classifies a request mix.
    pub fn classify(&self, mix: &RequestMix) -> WorkloadGroup {
        if mix.total() <= f64::EPSILON {
            return WorkloadGroup::Unknown;
        }

        // Group 4: the queue is essentially all promotions — a sequential
        // read stream missing everywhere.
        if mix.promote >= self.solo_dominance {
            return WorkloadGroup::SequentialRead;
        }

        let (first, second) = mix.dominant_pair();
        let coverage = mix.fraction(first) + mix.fraction(second);
        if coverage < self.pair_coverage {
            return WorkloadGroup::Unknown;
        }

        use RequestClass::*;
        match (first, second) {
            (Read, Promote) | (Promote, Read) => WorkloadGroup::RandomRead,
            (Read, Write) | (Write, Read) => WorkloadGroup::MixedReadWrite,
            (Write, Evict) | (Evict, Write) => {
                if mix.write >= self.random_write_ratio * mix.evict {
                    WorkloadGroup::RandomWrite
                } else {
                    WorkloadGroup::SequentialWrite
                }
            }
            // A queue of promotes plus the evictions they trigger is still a
            // sequential read stream missing everywhere.
            (Promote, Evict) | (Evict, Promote) => WorkloadGroup::SequentialRead,
            // R+E and W+P majorities "may not occur" (Section III-B); refuse
            // to classify them rather than guessing.
            _ => WorkloadGroup::Unknown,
        }
    }
}

impl Default for WorkloadCharacterizer {
    fn default() -> Self {
        WorkloadCharacterizer::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn classify(r: f64, w: f64, p: f64, e: f64) -> WorkloadGroup {
        WorkloadCharacterizer::new().classify(&RequestMix::new(r, w, p, e))
    }

    #[test]
    fn paper_tpcc_interval3_is_random_read() {
        // Fig. 6a: R: 44%, W: 2.2%, P: 51%, E: 2.8% -> Group 1 -> WO.
        assert_eq!(classify(0.44, 0.022, 0.51, 0.028), WorkloadGroup::RandomRead);
    }

    #[test]
    fn paper_mail_interval23_is_mixed_read_write() {
        // Fig. 6b: R: 13.9%, W: 70.4%, P: 3.9%, E: 11.8% -> Group 2 -> RO.
        assert_eq!(classify(0.139, 0.704, 0.039, 0.118), WorkloadGroup::MixedReadWrite);
    }

    #[test]
    fn paper_mail_interval134_is_write_intensive() {
        // Fig. 6b: ~90% W and E -> Group 3 -> WB.
        assert_eq!(classify(0.05, 0.65, 0.05, 0.25), WorkloadGroup::RandomWrite);
        // When evictions rival writes the workload is sequential write.
        assert_eq!(classify(0.05, 0.50, 0.05, 0.40), WorkloadGroup::SequentialWrite);
    }

    #[test]
    fn paper_web_interval1_is_mixed_read_write() {
        // Fig. 6c: R: 17.9%, W: 63.8%, P: 7.9%, E: 10.4% -> Group 2 -> RO.
        assert_eq!(classify(0.179, 0.638, 0.079, 0.104), WorkloadGroup::MixedReadWrite);
    }

    #[test]
    fn all_promotes_is_sequential_read() {
        assert_eq!(classify(0.1, 0.05, 0.8, 0.05), WorkloadGroup::SequentialRead);
    }

    #[test]
    fn unlisted_pairs_are_unknown() {
        // Majority R and E: the paper says this cannot occur; we refuse to
        // classify it.
        assert_eq!(classify(0.5, 0.03, 0.02, 0.45), WorkloadGroup::Unknown);
        // Majority W and P likewise.
        assert_eq!(classify(0.03, 0.5, 0.45, 0.02), WorkloadGroup::Unknown);
    }

    #[test]
    fn empty_queue_is_unknown() {
        assert_eq!(
            WorkloadCharacterizer::new()
                .classify(&RequestMix::from_snapshot(&QueueSnapshot::default())),
            WorkloadGroup::Unknown
        );
    }

    #[test]
    fn scattered_mix_is_unknown() {
        // No pair covers 60% of the queue... (25% each) except pairs reach
        // exactly 50% < 60%.
        assert_eq!(classify(0.25, 0.25, 0.25, 0.25), WorkloadGroup::Unknown);
    }

    #[test]
    fn mix_from_snapshot_normalises() {
        let snap = QueueSnapshot { reads: 1, writes: 1, promotes: 1, evicts: 1 };
        let mix = RequestMix::from_snapshot(&snap);
        assert!((mix.total() - 1.0).abs() < 1e-12);
        assert_eq!(mix.fraction(RequestClass::Read), 0.25);
    }

    #[test]
    fn dominant_pair_orders_by_fraction() {
        let mix = RequestMix::new(0.1, 0.5, 0.3, 0.1);
        let (a, b) = mix.dominant_pair();
        assert_eq!(a, RequestClass::Write);
        assert_eq!(b, RequestClass::Promote);
    }

    #[test]
    fn group_numbers_match_paper() {
        assert_eq!(WorkloadGroup::RandomRead.group_number(), Some(1));
        assert_eq!(WorkloadGroup::MixedReadWrite.group_number(), Some(2));
        assert_eq!(WorkloadGroup::RandomWrite.group_number(), Some(3));
        assert_eq!(WorkloadGroup::SequentialWrite.group_number(), Some(3));
        assert_eq!(WorkloadGroup::SequentialRead.group_number(), Some(4));
        assert_eq!(WorkloadGroup::Unknown.group_number(), None);
    }

    #[test]
    fn display_formats_are_readable() {
        let mix = RequestMix::new(0.44, 0.022, 0.51, 0.028);
        let s = mix.to_string();
        assert!(s.contains("R: 44.0%"));
        assert_eq!(WorkloadGroup::RandomRead.to_string(), "random-read");
    }
}
