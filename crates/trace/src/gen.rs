//! Synthetic access-pattern and arrival-process generators.
//!
//! A [`PatternSpec`] describes *where* a workload reads and writes (random,
//! sequential, hotspot-skewed, mixed); an [`ArrivalProcess`] describes
//! *when* requests arrive (an open-loop Poisson-like stream at a target
//! IOPS). [`AccessPattern`] is the stateful generator built from a spec.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use serde::{Deserialize, Serialize};

use lbica_storage::block::BLOCK_SECTORS;
use lbica_storage::request::RequestKind;

use crate::record::TraceRecord;

/// Declarative description of an address/direction pattern.
///
/// All footprints are expressed in cache blocks (4 KiB units); requests are
/// generated block-aligned, `request_blocks` blocks long.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PatternSpec {
    /// Uniform random reads over a working set.
    RandomRead {
        /// Working-set size in blocks.
        working_set_blocks: u64,
    },
    /// Uniform random writes over a working set.
    RandomWrite {
        /// Working-set size in blocks.
        working_set_blocks: u64,
    },
    /// A sequential read stream that wraps around `length_blocks`.
    SequentialRead {
        /// Length of the sequential region in blocks.
        length_blocks: u64,
    },
    /// A sequential write stream that wraps around `length_blocks`.
    SequentialWrite {
        /// Length of the sequential region in blocks.
        length_blocks: u64,
    },
    /// A mix of uniform random reads and writes.
    Mixed {
        /// Fraction of requests that are reads, in `[0, 1]`.
        read_fraction: f64,
        /// Working-set size in blocks.
        working_set_blocks: u64,
    },
    /// A hotspot-skewed mix: a fraction of the working set ("the hot set")
    /// receives most of the accesses, approximating the skewed popularity
    /// of OLTP / mail-store workloads.
    Hotspot {
        /// Fraction of requests that are reads, in `[0, 1]`.
        read_fraction: f64,
        /// Working-set size in blocks.
        working_set_blocks: u64,
        /// Fraction of the working set that is hot, in `(0, 1]`.
        hot_fraction: f64,
        /// Probability that an access goes to the hot set, in `[0, 1]`.
        hot_probability: f64,
    },
    /// Zipf-distributed block popularity: block `k` (rank 0 is the hottest)
    /// is accessed with probability proportional to `1 / (k + 1)^s`, the
    /// heavy-tailed popularity observed in content stores and block caches.
    ///
    /// The skew exponent `s` is carried as an integer in permille
    /// (`skew_permille = 1000` means the classic `s = 1.0`) so specs stay
    /// exactly comparable across platforms. The cumulative popularity table
    /// is built in a fixed fold order and the per-access draw is
    /// integer-only. A [`crate::workload::WorkloadSpec`] owns one table per
    /// distinct `(working_set_blocks, skew_permille)`, built on the first
    /// interval that samples it and shared by every later interval's
    /// generator; an [`AccessPattern::new`] called directly builds its own.
    Zipfian {
        /// Fraction of requests that are reads, in `[0, 1]`.
        read_fraction: f64,
        /// Working-set size in blocks; rank-to-block mapping is the identity.
        working_set_blocks: u64,
        /// Skew exponent `s` in permille (e.g. 800 → s = 0.8, 1200 → s = 1.2).
        skew_permille: u32,
    },
}

impl PatternSpec {
    /// The working-set (or stream) footprint in blocks.
    pub fn footprint_blocks(&self) -> u64 {
        match *self {
            PatternSpec::RandomRead { working_set_blocks }
            | PatternSpec::RandomWrite { working_set_blocks }
            | PatternSpec::Mixed { working_set_blocks, .. }
            | PatternSpec::Hotspot { working_set_blocks, .. }
            | PatternSpec::Zipfian { working_set_blocks, .. } => working_set_blocks,
            PatternSpec::SequentialRead { length_blocks }
            | PatternSpec::SequentialWrite { length_blocks } => length_blocks,
        }
    }

    /// What a Zipfian pattern's popularity table depends on: `(working set,
    /// skew)`; `None` for every other pattern.
    pub(crate) fn zipf_key(&self) -> Option<(u64, u32)> {
        match *self {
            PatternSpec::Zipfian { working_set_blocks, skew_permille, .. } => {
                Some((working_set_blocks, skew_permille))
            }
            _ => None,
        }
    }

    /// Fraction of generated requests expected to be reads.
    pub fn expected_read_fraction(&self) -> f64 {
        match *self {
            PatternSpec::RandomRead { .. } | PatternSpec::SequentialRead { .. } => 1.0,
            PatternSpec::RandomWrite { .. } | PatternSpec::SequentialWrite { .. } => 0.0,
            PatternSpec::Mixed { read_fraction, .. }
            | PatternSpec::Hotspot { read_fraction, .. }
            | PatternSpec::Zipfian { read_fraction, .. } => read_fraction.clamp(0.0, 1.0),
        }
    }
}

/// A stateful generator of `(sector, sectors, kind)` triples.
///
/// ```
/// use lbica_trace::gen::{AccessPattern, PatternSpec};
///
/// let mut pattern = AccessPattern::new(
///     PatternSpec::RandomRead { working_set_blocks: 1024 },
///     /* base_block */ 0,
///     /* request_blocks */ 1,
///     /* seed */ 7,
/// );
/// let (sector, sectors, kind) = pattern.next_access();
/// assert!(sectors == 8 && kind.is_read());
/// assert!(sector < 1024 * 8);
/// ```
#[derive(Debug, Clone)]
pub struct AccessPattern {
    spec: PatternSpec,
    base_block: u64,
    request_blocks: u64,
    /// `request_blocks` in sectors, the length of every access.
    request_sectors: u32,
    cursor: u64,
    rng: StdRng,
    /// The popularity table for [`PatternSpec::Zipfian`]; `None` for
    /// every other spec.
    zipf_cdf: Option<Arc<ZipfCdf>>,
}

/// How many top bits of a draw select its guide bucket.
const GUIDE_BITS: u32 = 12;

/// A Zipf popularity table and a guide into it, so the per-access draw is
/// a pure integer search with no float comparisons that touches a few
/// adjacent cache lines instead of a whole-table binary search.
#[derive(Debug)]
pub(crate) struct ZipfCdf {
    /// One threshold per rank: `cdf[k]` is the largest draw that selects
    /// rank `k`, and the final entry is forced to `u64::MAX`.
    cdf: Box<[u64]>,
    /// `2^GUIDE_BITS + 1` ranks: `guide[j]` is the first rank whose
    /// threshold reaches `j << (64 - GUIDE_BITS)`, and the last entry is
    /// the last rank. A draw in bucket `j` selects a rank in
    /// `guide[j]..=guide[j + 1]`.
    guide: Box<[u32]>,
}

impl ZipfCdf {
    /// The rank a draw selects: exactly `cdf.partition_point(|&c| c < draw)`,
    /// searched only within the draw's guide bucket.
    fn rank(&self, draw: u64) -> usize {
        let bucket = (draw >> (64 - GUIDE_BITS)) as usize;
        let (lo, hi) = (self.guide[bucket] as usize, self.guide[bucket + 1] as usize);
        lo + self.cdf[lo..hi].partition_point(|&cum| cum < draw)
    }
}

/// Builds the cumulative Zipf table: entry `k` holds the (scaled) cumulative
/// probability of ranks `0..=k`. Floats appear only here, in a fixed
/// sequential fold order, so the table is a deterministic function of
/// `(working_set_blocks, skew_permille)`. The running sums are kept as
/// `f64` bits in the table itself and rescaled in place. One pass over the
/// finished table then builds the guide.
pub(crate) fn build_zipf_cdf(working_set_blocks: u64, skew_permille: u32) -> Arc<ZipfCdf> {
    assert!(working_set_blocks > 0, "pattern footprint must be non-empty");
    let last = u32::try_from(working_set_blocks - 1).expect("zipfian ranks fit u32");
    let s = f64::from(skew_permille) / 1000.0;
    let mut cdf = vec![0_u64; last as usize + 1].into_boxed_slice();
    let mut total = 0.0_f64;
    for (rank, slot) in cdf.iter_mut().enumerate() {
        total += (rank as f64 + 1.0).powf(-s);
        *slot = total.to_bits();
    }
    for slot in cdf.iter_mut() {
        let cum = f64::from_bits(*slot);
        *slot = ((cum / total) * (u64::MAX as f64)) as u64;
    }
    // Guarantee full coverage of the draw space regardless of rounding.
    cdf[last as usize] = u64::MAX;
    let mut rank = 0;
    let guide = (0..1_u64 << GUIDE_BITS)
        .map(|bucket| {
            // Stops at the last rank at the latest: its threshold is `u64::MAX`.
            while cdf[rank as usize] < bucket << (64 - GUIDE_BITS) {
                rank += 1;
            }
            rank
        })
        .chain([last])
        .collect();
    Arc::new(ZipfCdf { cdf, guide })
}

impl AccessPattern {
    /// Creates a generator.
    ///
    /// `base_block` offsets the whole footprint on the device so that
    /// different phases / workloads can address disjoint regions.
    ///
    /// # Panics
    ///
    /// Panics if `request_blocks` is zero, longer than `u32::MAX` sectors,
    /// or the spec's footprint is zero.
    pub fn new(spec: PatternSpec, base_block: u64, request_blocks: u64, seed: u64) -> Self {
        AccessPattern::with_zipf_table(spec, base_block, request_blocks, seed, None)
    }

    /// [`AccessPattern::new`] with a prebuilt Zipf table: `zipf_cdf` must be
    /// the table of the spec's [`PatternSpec::zipf_key`] (it is built here
    /// when `None`), so the generator is identical to one from
    /// [`AccessPattern::new`].
    pub(crate) fn with_zipf_table(
        spec: PatternSpec,
        base_block: u64,
        request_blocks: u64,
        seed: u64,
        zipf_cdf: Option<Arc<ZipfCdf>>,
    ) -> Self {
        assert!(request_blocks > 0, "requests must span at least one block");
        let request_sectors = request_sectors(request_blocks);
        assert!(spec.footprint_blocks() > 0, "pattern footprint must be non-empty");
        let zipf_cdf =
            zipf_cdf.or_else(|| spec.zipf_key().map(|(blocks, skew)| build_zipf_cdf(blocks, skew)));
        debug_assert!(
            zipf_cdf.as_ref().is_none_or(|t| t.cdf.len() as u64 == spec.footprint_blocks()),
            "the Zipf table covers the working set"
        );
        AccessPattern {
            spec,
            base_block,
            request_blocks,
            request_sectors,
            cursor: 0,
            rng: StdRng::seed_from_u64(seed),
            zipf_cdf,
        }
    }

    /// The spec this generator was built from.
    pub const fn spec(&self) -> &PatternSpec {
        &self.spec
    }

    fn pick_block(&mut self) -> (u64, RequestKind) {
        match self.spec {
            PatternSpec::RandomRead { working_set_blocks } => {
                (self.rng.gen_range(0..working_set_blocks), RequestKind::Read)
            }
            PatternSpec::RandomWrite { working_set_blocks } => {
                (self.rng.gen_range(0..working_set_blocks), RequestKind::Write)
            }
            PatternSpec::SequentialRead { length_blocks } => {
                let block = self.cursor % length_blocks;
                self.cursor += self.request_blocks;
                (block, RequestKind::Read)
            }
            PatternSpec::SequentialWrite { length_blocks } => {
                let block = self.cursor % length_blocks;
                self.cursor += self.request_blocks;
                (block, RequestKind::Write)
            }
            PatternSpec::Mixed { read_fraction, working_set_blocks } => {
                let kind = if self.rng.gen_bool(read_fraction.clamp(0.0, 1.0)) {
                    RequestKind::Read
                } else {
                    RequestKind::Write
                };
                (self.rng.gen_range(0..working_set_blocks), kind)
            }
            PatternSpec::Hotspot {
                read_fraction,
                working_set_blocks,
                hot_fraction,
                hot_probability,
            } => {
                let kind = if self.rng.gen_bool(read_fraction.clamp(0.0, 1.0)) {
                    RequestKind::Read
                } else {
                    RequestKind::Write
                };
                let hot_blocks =
                    ((working_set_blocks as f64) * hot_fraction.clamp(0.0, 1.0)).max(1.0) as u64;
                let block = if self.rng.gen_bool(hot_probability.clamp(0.0, 1.0)) {
                    self.rng.gen_range(0..hot_blocks)
                } else if hot_blocks < working_set_blocks {
                    self.rng.gen_range(hot_blocks..working_set_blocks)
                } else {
                    self.rng.gen_range(0..working_set_blocks)
                };
                (block, kind)
            }
            PatternSpec::Zipfian { read_fraction, .. } => {
                let kind = if self.rng.gen_bool(read_fraction.clamp(0.0, 1.0)) {
                    RequestKind::Read
                } else {
                    RequestKind::Write
                };
                let draw: u64 = self.rng.next_u64();
                let table = self.zipf_cdf.as_deref().expect("zipfian generators carry a table");
                (table.rank(draw) as u64, kind)
            }
        }
    }

    /// Generates the next access as `(start_sector, sectors, kind)`.
    pub fn next_access(&mut self) -> (u64, u32, RequestKind) {
        let (block, kind) = self.pick_block();
        let sector = (self.base_block + block) * BLOCK_SECTORS;
        (sector, self.request_sectors, kind)
    }
}

/// The length in sectors of a `request_blocks`-block request.
///
/// # Panics
///
/// Panics if it exceeds `u32::MAX` sectors, the range of
/// [`TraceRecord::sectors`].
pub(crate) fn request_sectors(request_blocks: u64) -> u32 {
    request_blocks
        .checked_mul(BLOCK_SECTORS)
        .and_then(|sectors| u32::try_from(sectors).ok())
        .expect("a request spans at most u32::MAX sectors")
}

/// An open-loop arrival process with exponential inter-arrival times at a
/// target rate (requests per second).
///
/// ```
/// use lbica_trace::gen::ArrivalProcess;
/// let mut arrivals = ArrivalProcess::new(10_000.0, 3);
/// let gap = arrivals.next_gap_us();
/// assert!(gap >= 1);
/// ```
#[derive(Debug, Clone)]
pub struct ArrivalProcess {
    rate_per_us: f64,
    rng: StdRng,
}

impl ArrivalProcess {
    /// Creates an arrival process at `iops` requests per second.
    ///
    /// # Panics
    ///
    /// Panics if `iops` is not finite and positive.
    pub fn new(iops: f64, seed: u64) -> Self {
        assert!(iops.is_finite() && iops > 0.0, "arrival rate must be positive");
        ArrivalProcess { rate_per_us: iops / 1e6, rng: StdRng::seed_from_u64(seed) }
    }

    /// Samples the next inter-arrival gap in microseconds (at least 1).
    pub fn next_gap_us(&mut self) -> u64 {
        let u: f64 = self.rng.gen_range(f64::EPSILON..1.0);
        round_gap(-u.ln() / self.rate_per_us)
    }
}

/// `gap.max(1.0).round() as u64` without a call to `round`, which baseline
/// x86-64 lacks an instruction for. For `gap >= 1` the fraction
/// `gap - whole` is exact (Sterbenz), so comparing it with one half rounds
/// half away from zero exactly as `round` does; at or past 2^64 the cast
/// and the add both saturate, as `round() as u64` does.
fn round_gap(gap: f64) -> u64 {
    let gap = gap.max(1.0);
    let whole = gap as u64;
    whole.saturating_add(u64::from(gap - whole as f64 >= 0.5))
}

/// Generates an open-loop request stream of `pattern` accesses arriving at
/// `iops` for `duration_us` microseconds starting at `start_us`.
pub fn generate_stream(
    pattern: &mut AccessPattern,
    arrivals: &mut ArrivalProcess,
    start_us: u64,
    duration_us: u64,
) -> Vec<TraceRecord> {
    let mut records = Vec::new();
    generate_stream_into(pattern, arrivals, start_us, duration_us, &mut records);
    records
}

/// [`generate_stream`], appending to `out` instead of allocating.
pub(crate) fn generate_stream_into(
    pattern: &mut AccessPattern,
    arrivals: &mut ArrivalProcess,
    start_us: u64,
    duration_us: u64,
    out: &mut Vec<TraceRecord>,
) {
    let end = start_us + duration_us;
    let mut t = start_us + arrivals.next_gap_us();
    while t < end {
        let (sector, sectors, kind) = pattern.next_access();
        out.push(TraceRecord::new(t, sector, sectors, kind));
        t += arrivals.next_gap_us();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_read_stays_in_working_set_and_is_read_only() {
        let mut p =
            AccessPattern::new(PatternSpec::RandomRead { working_set_blocks: 100 }, 1000, 1, 1);
        for _ in 0..500 {
            let (sector, sectors, kind) = p.next_access();
            assert!(kind.is_read());
            assert_eq!(u64::from(sectors), BLOCK_SECTORS);
            let block = sector / BLOCK_SECTORS;
            assert!((1000..1100).contains(&block));
        }
    }

    #[test]
    fn sequential_read_advances_and_wraps() {
        let mut p = AccessPattern::new(PatternSpec::SequentialRead { length_blocks: 4 }, 0, 1, 1);
        let blocks: Vec<u64> = (0..6).map(|_| p.next_access().0 / BLOCK_SECTORS).collect();
        assert_eq!(blocks, vec![0, 1, 2, 3, 0, 1]);
    }

    #[test]
    fn mixed_respects_read_fraction_approximately() {
        let mut p = AccessPattern::new(
            PatternSpec::Mixed { read_fraction: 0.7, working_set_blocks: 1000 },
            0,
            1,
            42,
        );
        let reads = (0..10_000).filter(|_| p.next_access().2.is_read()).count() as f64 / 10_000.0;
        assert!((reads - 0.7).abs() < 0.03, "observed read fraction {reads}");
    }

    #[test]
    fn hotspot_concentrates_accesses() {
        let mut p = AccessPattern::new(
            PatternSpec::Hotspot {
                read_fraction: 1.0,
                working_set_blocks: 10_000,
                hot_fraction: 0.1,
                hot_probability: 0.9,
            },
            0,
            1,
            7,
        );
        let hot_hits = (0..10_000).filter(|_| p.next_access().0 / BLOCK_SECTORS < 1_000).count()
            as f64
            / 10_000.0;
        assert!(hot_hits > 0.85, "hot-set share {hot_hits}");
    }

    #[test]
    fn zipfian_stays_in_working_set_and_rank_zero_dominates() {
        let mut p = AccessPattern::new(
            PatternSpec::Zipfian {
                read_fraction: 1.0,
                working_set_blocks: 1_000,
                skew_permille: 1_000,
            },
            0,
            1,
            13,
        );
        let mut counts = vec![0u64; 1_000];
        for _ in 0..50_000 {
            let (sector, _, kind) = p.next_access();
            assert!(kind.is_read());
            let block = (sector / BLOCK_SECTORS) as usize;
            assert!(block < 1_000);
            counts[block] += 1;
        }
        // At s = 1 over 1000 ranks, rank 0 holds ~13% of the mass and each
        // rank strictly dominates the next in expectation.
        assert!(counts[0] > counts[1] && counts[1] > counts[4] && counts[4] > counts[99]);
        assert!(counts[0] as f64 / 50_000.0 > 0.08, "rank-0 share {}", counts[0]);
    }

    #[test]
    fn zipfian_skew_zero_is_roughly_uniform() {
        let mut p = AccessPattern::new(
            PatternSpec::Zipfian { read_fraction: 1.0, working_set_blocks: 10, skew_permille: 0 },
            0,
            1,
            29,
        );
        let mut counts = vec![0u64; 10];
        for _ in 0..20_000 {
            counts[(p.next_access().0 / BLOCK_SECTORS) as usize] += 1;
        }
        for &c in &counts {
            let share = c as f64 / 20_000.0;
            assert!((share - 0.1).abs() < 0.02, "share {share}");
        }
    }

    #[test]
    fn zipfian_is_deterministic_per_seed() {
        let make = || {
            let mut p = AccessPattern::new(
                PatternSpec::Zipfian {
                    read_fraction: 0.6,
                    working_set_blocks: 512,
                    skew_permille: 1_200,
                },
                0,
                1,
                77,
            );
            (0..256).map(|_| p.next_access()).collect::<Vec<_>>()
        };
        assert_eq!(make(), make());
    }

    #[test]
    fn guided_zipf_rank_equals_the_full_table_search() {
        let mut rng = StdRng::seed_from_u64(0x2171);
        for n in [1u64, 2, 3, 4095, 4096, 4097, 16384, 32768] {
            for skew in [0u32, 1, 600, 900, 1200, 1500, 3000] {
                let table = build_zipf_cdf(n, skew);
                assert_eq!(table.guide.len(), (1 << GUIDE_BITS) + 1);
                let floors = (0..1u64 << GUIDE_BITS).map(|j| j << (64 - GUIDE_BITS));
                let probes = floors
                    .chain(table.cdf.iter().copied())
                    .flat_map(|d| [d.wrapping_sub(1), d, d.wrapping_add(1)])
                    .chain([0, u64::MAX])
                    .chain((0..20_000).map(|_| rng.next_u64()));
                for draw in probes {
                    assert_eq!(
                        table.rank(draw),
                        table.cdf.partition_point(|&c| c < draw),
                        "n {n}, skew {skew}, draw {draw:#x}"
                    );
                }
            }
        }
    }

    #[test]
    fn expected_read_fraction_matches_specs() {
        assert_eq!(PatternSpec::RandomRead { working_set_blocks: 1 }.expected_read_fraction(), 1.0);
        assert_eq!(PatternSpec::SequentialWrite { length_blocks: 1 }.expected_read_fraction(), 0.0);
        assert_eq!(
            PatternSpec::Mixed { read_fraction: 0.3, working_set_blocks: 1 }
                .expected_read_fraction(),
            0.3
        );
    }

    #[test]
    #[should_panic(expected = "at least one block")]
    fn zero_request_blocks_panics() {
        let _ = AccessPattern::new(PatternSpec::RandomRead { working_set_blocks: 10 }, 0, 0, 1);
    }

    #[test]
    #[should_panic(expected = "at most u32::MAX sectors")]
    fn requests_longer_than_the_record_length_field_panic() {
        let blocks = (u64::from(u32::MAX) + 1) / BLOCK_SECTORS;
        let _ =
            AccessPattern::new(PatternSpec::RandomRead { working_set_blocks: 10 }, 0, blocks, 1);
    }

    #[test]
    fn arrival_rate_roughly_matches_iops() {
        let mut a = ArrivalProcess::new(10_000.0, 11);
        let total: u64 = (0..10_000).map(|_| a.next_gap_us()).sum();
        let avg = total as f64 / 10_000.0;
        // Mean gap should be ~100 µs for 10k IOPS.
        assert!((avg - 100.0).abs() < 10.0, "avg gap {avg}");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_panics() {
        let _ = ArrivalProcess::new(0.0, 1);
    }

    #[test]
    fn stream_timestamps_are_within_window_and_sorted() {
        let mut p = AccessPattern::new(PatternSpec::RandomRead { working_set_blocks: 64 }, 0, 1, 5);
        let mut a = ArrivalProcess::new(5_000.0, 5);
        let recs = generate_stream(&mut p, &mut a, 1_000_000, 100_000);
        assert!(!recs.is_empty());
        let mut prev = 0;
        for r in &recs {
            assert!(r.timestamp_us >= 1_000_000 && r.timestamp_us < 1_100_000);
            assert!(r.timestamp_us >= prev);
            prev = r.timestamp_us;
        }
    }

    #[test]
    fn generators_are_deterministic_per_seed() {
        let make = || {
            let mut p = AccessPattern::new(
                PatternSpec::Mixed { read_fraction: 0.5, working_set_blocks: 1000 },
                0,
                1,
                99,
            );
            let mut a = ArrivalProcess::new(8_000.0, 99);
            generate_stream(&mut p, &mut a, 0, 50_000)
        };
        assert_eq!(make(), make());
    }

    /// What `next_gap_us` computed before it stopped calling `round`.
    fn rounded_reference(gap: f64) -> u64 {
        gap.max(1.0).round() as u64
    }

    #[test]
    fn round_gap_handles_halves_huge_gaps_and_saturation() {
        for gap in [
            0.0,
            0.5,
            1.0,
            1.4999999999999998,
            1.5,
            2.5,
            4_503_599_627_370_495.5,
            9_007_199_254_740_993.0,
            // The largest f64 below 2^64, and 2^64 itself.
            2f64.powi(64) - 2048.0,
            2f64.powi(64),
            1e300,
            f64::INFINITY,
        ] {
            assert_eq!(round_gap(gap), rounded_reference(gap), "gap {gap}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(2048))]

        #[test]
        fn next_gap_us_matches_round(
            seed in proptest::prelude::any::<u64>(),
            iops in 1e-3f64..1e7,
            k in 0u64..1 << 52,
            big in 53u32..70,
            tiny in 1e-300f64..1e-280,
        ) {
            let mut arrivals = ArrivalProcess::new(iops, seed);
            let mut draws = arrivals.clone();
            for _ in 0..8 {
                let u: f64 = draws.rng.gen_range(f64::EPSILON..1.0);
                let gap = -u.ln() / draws.rate_per_us;
                proptest::prop_assert_eq!(arrivals.next_gap_us(), rounded_reference(gap));
            }
            // Exact halves, gaps past 2^53 where every f64 is an integer,
            // and rates so low that the gap saturates the cast.
            let half = k as f64 + 0.5;
            let past = (k as f64 + 1.0) * 2f64.powi(big as i32);
            let saturating = -(0.5f64.ln()) / (tiny / 1e6);
            for gap in [half, past, saturating] {
                proptest::prop_assert_eq!(round_gap(gap), rounded_reference(gap));
            }
        }
    }
}
