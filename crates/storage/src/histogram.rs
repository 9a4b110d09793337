//! Latency histograms with percentile queries.
//!
//! The paper plots per-interval *maximum* latencies; a production monitor
//! additionally wants tail percentiles (p95/p99) without storing every
//! sample. [`LatencyHistogram`] is a log-bucketed histogram over
//! microsecond latencies: constant memory, O(1) insertion, and percentile
//! queries with bounded relative error (one bucket ≈ ×1.25).

use serde::{Deserialize, Serialize};

use crate::snap::{SnapError, SnapReader, SnapWriter};
use crate::time::SimDuration;

/// Number of buckets; covers 1 µs … > 1 hour at ×1.25 growth.
const BUCKETS: usize = 128;

/// Inclusive upper bounds (µs) of each bucket: `BOUNDS[i] = ceil(1.25^(i+1))`
/// (pinned by `bounds_are_the_ceilings_of_the_powers_of_1_25`).
#[rustfmt::skip]
static BOUNDS: [u64; BUCKETS] = [
    2, 2, 2, 3, 4, 4, 5, 6, 8, 10, 12, 15, 19, 23, 29, 36, 45, 56, 70, 87, 109, 136, 170, 212, 265,
    331, 414, 517, 647, 808, 1010, 1263, 1578, 1973, 2466, 3082, 3852, 4815, 6019, 7524, 9404,
    11755, 14694, 18368, 22959, 28699, 35874, 44842, 56052, 70065, 87582, 109477, 136846, 171057,
    213822, 267277, 334096, 417620, 522025, 652531, 815664, 1019579, 1274474, 1593092, 1991365,
    2489207, 3111508, 3889385, 4861731, 6077164, 7596455, 9495568, 11869460, 14836825, 18546031,
    23182539, 28978174, 36222717, 45278396, 56597995, 70747493, 88434367, 110542958, 138178697,
    172723372, 215904214, 269880268, 337350335, 421687918, 527109898, 658887372, 823609215,
    1029511518, 1286889398, 1608611747, 2010764684, 2513455855, 3141819818, 3927274773, 4909093466,
    6136366832, 7670458540, 9588073175, 11985091469, 14981364336, 18726705419, 23408381774,
    29260477217, 36575596522, 45719495652, 57149369565, 71436711956, 89295889944, 111619862430,
    139524828038, 174406035047, 218007543809, 272509429761, 340636787201, 425795984001,
    532244980002, 665306225002, 831632781252, 1039540976565, 1299426220706, 1624282775883,
    2030353469853, 2537941837316,
];

/// Number of cells in [`FIRST`]: one per value below 16, then eight per bit
/// length from 5 to 64.
const CELLS: usize = 8 * 60 + 16;

/// A cell table that finds a sample's bucket in O(1).
///
/// A sample's cell is its value if it is below 16, and otherwise its bit
/// length and the three bits after its leading one: the cell of `us` with
/// `s = bit_length(us) - 4` holds `[us >> s << s, (us >> s) + 1 << s)`.
/// `FIRST[cell]` is the bucket of the cell's smallest value. A cell spans at
/// most ×9/8, narrower than one ×1.25 bucket, so at most one bound falls
/// inside it (pinned by `every_cell_holds_at_most_one_bound`) and one
/// comparison against that bucket's bound finishes the lookup.
static FIRST: [u8; CELLS] = first_buckets();

/// The [`FIRST`] index of `us`'s cell.
const fn cell_of(us: u64) -> usize {
    let shift = (u64::BITS - us.leading_zeros()).saturating_sub(4);
    8 * shift as usize + (us >> shift) as usize
}

/// Builds [`FIRST`] at compile time: each cell's smallest value, placed by
/// a linear scan over [`BOUNDS`] and clamped to the last bucket.
const fn first_buckets() -> [u8; CELLS] {
    let mut first = [0u8; CELLS];
    let mut shift = 0;
    while shift <= 60 {
        let mut top = if shift == 0 { 0 } else { 8 };
        while top < 16 {
            let smallest = top << shift;
            let mut idx = 0;
            while idx < BUCKETS - 1 && BOUNDS[idx] < smallest {
                idx += 1;
            }
            first[cell_of(smallest)] = idx as u8;
            top += 1;
        }
        shift += 1;
    }
    first
}

/// A log-bucketed latency histogram.
///
/// ```
/// use lbica_storage::histogram::LatencyHistogram;
/// use lbica_storage::time::SimDuration;
///
/// let mut hist = LatencyHistogram::new();
/// for us in [100, 200, 300, 400, 1_000] {
///     hist.record(SimDuration::from_micros(us));
/// }
/// assert_eq!(hist.count(), 5);
/// assert_eq!(hist.max().as_micros(), 1_000);
/// assert!(hist.percentile(50.0).as_micros() >= 200);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LatencyHistogram {
    buckets: [u64; BUCKETS],
    count: u64,
    total_us: u64,
    max_us: u64,
    min_us: u64,
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: [0; BUCKETS],
            count: 0,
            total_us: 0,
            max_us: 0,
            min_us: u64::MAX,
        }
    }

    fn bucket_index(latency_us: u64) -> usize {
        // The cell's first bucket, moved past the one bound the cell can
        // hold if the sample lies above it. Exactly equivalent to
        // `bounds.partition_point(|&bound| bound < latency_us)` clamped to
        // the last bucket (pinned by `bucket_index_matches_partition_point`).
        let first = FIRST[cell_of(latency_us)] as usize;
        (first + usize::from(BOUNDS[first] < latency_us)).min(BUCKETS - 1)
    }

    /// Records one latency sample.
    pub fn record(&mut self, latency: SimDuration) {
        self.record_us(latency.as_micros());
    }

    /// Records one latency sample given directly in microseconds.
    pub fn record_us(&mut self, us: u64) {
        self.buckets[Self::bucket_index(us)] += 1;
        self.count += 1;
        self.total_us += us;
        self.max_us = self.max_us.max(us);
        self.min_us = self.min_us.min(us);
    }

    /// Number of recorded samples.
    pub const fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all recorded samples, in microseconds.
    pub const fn total_us(&self) -> u64 {
        self.total_us
    }

    /// Whether no samples have been recorded.
    pub const fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The largest recorded latency (exact, not bucketed).
    pub fn max(&self) -> SimDuration {
        SimDuration::from_micros(self.max_us)
    }

    /// The smallest recorded latency (exact), or zero when empty.
    pub fn min(&self) -> SimDuration {
        if self.is_empty() {
            SimDuration::ZERO
        } else {
            SimDuration::from_micros(self.min_us)
        }
    }

    /// The mean latency (exact sum / count), or zero when empty.
    pub fn mean(&self) -> SimDuration {
        SimDuration::from_micros(self.total_us.checked_div(self.count).unwrap_or(0))
    }

    /// The latency at the given percentile (0–100), approximated by the
    /// upper bound of the bucket containing that rank. Returns zero when
    /// empty.
    ///
    /// # Panics
    ///
    /// Panics if `pct` is not in `[0, 100]`.
    pub fn percentile(&self, pct: f64) -> SimDuration {
        assert!((0.0..=100.0).contains(&pct), "percentile must be in [0, 100]");
        if self.count == 0 {
            return SimDuration::ZERO;
        }
        let rank = ((pct / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                // The bucket holding the observed maximum reports the exact
                // maximum; every other bucket reports its upper bound,
                // clamped so estimates never exceed the true maximum.
                if idx == Self::bucket_index(self.max_us) {
                    return self.max();
                }
                return SimDuration::from_micros(BOUNDS[idx].min(self.max_us));
            }
        }
        self.max()
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.total_us += other.total_us;
        self.max_us = self.max_us.max(other.max_us);
        self.min_us = self.min_us.min(other.min_us);
    }

    /// Clears all samples in place, so a per-interval accumulator can
    /// reset without rebuilding.
    pub fn reset(&mut self) {
        self.buckets.fill(0);
        self.count = 0;
        self.total_us = 0;
        self.max_us = 0;
        self.min_us = u64::MAX;
    }

    /// Serializes the histogram for a replay checkpoint.
    pub fn snap_to(&self, w: &mut SnapWriter) {
        w.put_usize(self.buckets.len());
        for &b in &self.buckets {
            w.put_u64(b);
        }
        w.put_u64(self.count);
        w.put_u64(self.total_us);
        w.put_u64(self.max_us);
        w.put_u64(self.min_us);
    }

    /// Restores a histogram serialized by [`LatencyHistogram::snap_to`].
    pub fn snap_from(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let len = r.get_usize()?;
        if len != BUCKETS {
            return Err(SnapError::Corrupt("histogram bucket count"));
        }
        let mut buckets = [0u64; BUCKETS];
        for slot in &mut buckets {
            *slot = r.get_u64()?;
        }
        Ok(LatencyHistogram {
            buckets,
            count: r.get_u64()?,
            total_us: r.get_u64()?,
            max_us: r.get_u64()?,
            min_us: r.get_u64()?,
        })
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use proptest::prelude::*;

    fn reference(us: u64) -> usize {
        BOUNDS.partition_point(|&bound| bound < us).min(BUCKETS - 1)
    }

    #[test]
    fn bounds_are_the_ceilings_of_the_powers_of_1_25() {
        for (i, &bound) in BOUNDS.iter().enumerate() {
            assert_eq!(bound, 1.25f64.powi(i as i32 + 1).ceil() as u64, "bound {i}");
        }
    }

    #[test]
    fn every_cell_holds_at_most_one_bound() {
        // The lookup's one comparison is exact only if no cell's interior
        // holds two bounds: a cell `[lo, hi)` must contain at most one bound
        // below `hi - 1`.
        for shift in 0..=60u32 {
            for top in if shift == 0 { 0..16u128 } else { 8..16 } {
                let (lo, hi) = (top << shift, (top + 1) << shift);
                let inside = BOUNDS.iter().filter(|&&b| lo <= b.into() && u128::from(b) < hi - 1);
                assert!(inside.count() <= 1, "cell {lo}..{hi} holds two bounds");
            }
        }
    }

    #[test]
    fn bucket_index_matches_partition_point_below_2_pow_22() {
        for us in 0..1u64 << 22 {
            assert_eq!(LatencyHistogram::bucket_index(us), reference(us), "divergence at {us}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        #[test]
        fn bucket_index_matches_partition_point_on_random_samples(
            us in any::<u64>(),
            shift in 0u32..64,
        ) {
            // Shifting spreads the samples over every bit length.
            let us = us >> shift;
            prop_assert_eq!(LatencyHistogram::bucket_index(us), reference(us));
        }
    }

    #[test]
    fn bucket_index_matches_partition_point() {
        // The cell-table lookup must agree with the binary search it
        // replaced on every boundary-adjacent value and across all octaves.
        let bounds = &BOUNDS;
        let mut probes = vec![0u64, 1, u64::MAX];
        for &bound in bounds.iter() {
            probes.extend([bound.saturating_sub(1), bound, bound + 1]);
        }
        for bits in 0..64u32 {
            probes.extend([1u64 << bits, (1u64 << bits) + 1, (1u64 << bits) - 1]);
        }
        for us in probes {
            assert_eq!(LatencyHistogram::bucket_index(us), reference(us), "divergence at {us}");
        }
    }

    fn filled(values: &[u64]) -> LatencyHistogram {
        let mut h = LatencyHistogram::new();
        for &v in values {
            h.record(SimDuration::from_micros(v));
        }
        h
    }

    #[test]
    fn empty_histogram_reports_zeroes() {
        let h = LatencyHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.mean(), SimDuration::ZERO);
        assert_eq!(h.min(), SimDuration::ZERO);
        assert_eq!(h.percentile(99.0), SimDuration::ZERO);
    }

    #[test]
    fn count_mean_min_max_are_exact() {
        let h = filled(&[100, 200, 300]);
        assert_eq!(h.count(), 3);
        assert_eq!(h.mean().as_micros(), 200);
        assert_eq!(h.min().as_micros(), 100);
        assert_eq!(h.max().as_micros(), 300);
    }

    #[test]
    fn percentiles_are_ordered_and_bounded() {
        let values: Vec<u64> = (1..=1_000).map(|i| i * 10).collect();
        let h = filled(&values);
        let p50 = h.percentile(50.0).as_micros();
        let p95 = h.percentile(95.0).as_micros();
        let p99 = h.percentile(99.0).as_micros();
        let p100 = h.percentile(100.0).as_micros();
        assert!(p50 <= p95 && p95 <= p99 && p99 <= p100);
        assert_eq!(p100, 10_000);
        // Bucketed approximation stays within the ×1.25 bucket width.
        assert!((p50 as f64) >= 5_000.0 * 0.8 && (p50 as f64) <= 5_000.0 * 1.3, "p50 {p50}");
    }

    #[test]
    #[should_panic(expected = "percentile")]
    fn out_of_range_percentile_panics() {
        let _ = filled(&[1]).percentile(150.0);
    }

    #[test]
    fn merge_combines_samples() {
        let mut a = filled(&[100, 200]);
        let b = filled(&[400, 800]);
        a.merge(&b);
        assert_eq!(a.count(), 4);
        assert_eq!(a.max().as_micros(), 800);
        assert_eq!(a.min().as_micros(), 100);
        assert_eq!(a.mean().as_micros(), 375);
    }

    #[test]
    fn reset_clears_everything() {
        let mut h = filled(&[10, 20, 30]);
        h.reset();
        assert!(h.is_empty());
        assert_eq!(h.max(), SimDuration::ZERO);
    }

    #[test]
    fn bucket_bounds_are_monotonic_and_cover_every_sample() {
        let bounds = &BOUNDS;
        for pair in bounds.windows(2) {
            assert!(pair[0] <= pair[1], "bounds must be non-decreasing: {pair:?}");
        }
        // Every sample lands in a bucket whose upper bound is >= the sample
        // (except the saturating last bucket).
        for us in [0, 1, 2, 3, 10, 100, 12_345, 1_000_000] {
            let idx = LatencyHistogram::bucket_index(us);
            if idx < BUCKETS - 1 {
                assert!(bounds[idx] >= us, "sample {us} above bucket {idx} bound {}", bounds[idx]);
            }
            if idx > 0 {
                assert!(bounds[idx - 1] < us, "sample {us} should not fit bucket {}", idx - 1);
            }
        }
    }

    #[test]
    fn record_us_matches_record() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        for us in [7, 80, 900, 12_000] {
            a.record(SimDuration::from_micros(us));
            b.record_us(us);
        }
        assert_eq!(a, b);
        assert_eq!(a.total_us(), 7 + 80 + 900 + 12_000);
    }

    #[test]
    fn snap_round_trip_is_exact() {
        let h = filled(&[7, 80, 900, 12_000, u64::MAX / 3]);
        let mut w = SnapWriter::new();
        h.snap_to(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let restored = LatencyHistogram::snap_from(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(restored, h);

        // Empty histograms round-trip too (min_us sentinel preserved).
        let empty = LatencyHistogram::new();
        let mut w = SnapWriter::new();
        empty.snap_to(&mut w);
        let bytes = w.into_bytes();
        let restored = LatencyHistogram::snap_from(&mut SnapReader::new(&bytes)).unwrap();
        assert_eq!(restored, empty);
    }

    #[test]
    fn snap_from_rejects_wrong_bucket_count() {
        let mut w = SnapWriter::new();
        w.put_usize(7);
        let bytes = w.into_bytes();
        assert_eq!(
            LatencyHistogram::snap_from(&mut SnapReader::new(&bytes)),
            Err(SnapError::Corrupt("histogram bucket count"))
        );
    }

    #[test]
    fn extreme_values_saturate_into_the_last_bucket() {
        let h = filled(&[u64::MAX / 2]);
        assert_eq!(h.count(), 1);
        assert_eq!(h.percentile(100.0).as_micros(), u64::MAX / 2);
    }
}
