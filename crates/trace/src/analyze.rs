//! Offline trace analysis.
//!
//! The paper characterizes the *running* workload from the in-queue request
//! mix; a storage engineer preparing a deployment instead analyzes captured
//! traces offline. [`TraceAnalysis`] computes the standard block-trace
//! statistics — read/write ratio, request-size distribution, sequentiality,
//! footprint (unique blocks touched), arrival rate — both for a whole trace
//! and per monitoring interval, which is also how the canned workload
//! generators in [`crate::workload`] were validated against the mixes the
//! paper reports.

use std::collections::BTreeSet;

use serde::{Deserialize, Serialize};

use lbica_storage::block::BLOCK_SECTORS;

use crate::record::TraceRecord;

/// Aggregate statistics of a block trace (or a slice of one).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct TraceAnalysis {
    /// Number of requests analyzed.
    pub requests: u64,
    /// Number of read requests.
    pub reads: u64,
    /// Number of write requests.
    pub writes: u64,
    /// Total sectors transferred.
    pub total_sectors: u64,
    /// Number of requests whose start sector equals the previous request's
    /// end sector (detected sequential successors).
    pub sequential_successors: u64,
    /// Number of distinct cache blocks touched (the footprint).
    pub footprint_blocks: u64,
    /// Timestamp of the first request, µs.
    pub first_timestamp_us: u64,
    /// Timestamp of the last request, µs.
    pub last_timestamp_us: u64,
    /// Smallest request size seen, in sectors.
    pub min_request_sectors: u64,
    /// Largest request size seen, in sectors.
    pub max_request_sectors: u64,
}

impl TraceAnalysis {
    /// Analyzes a trace. Records need not be sorted; sequentiality is
    /// evaluated in the order given (the capture order).
    pub fn of(records: &[TraceRecord]) -> Self {
        let mut analysis =
            TraceAnalysis { min_request_sectors: u64::MAX, ..TraceAnalysis::default() };
        let mut footprint = BTreeSet::new();
        let mut prev_end: Option<u64> = None;
        let mut first = u64::MAX;
        let mut last = 0u64;

        for record in records {
            analysis.requests += 1;
            if record.kind.is_read() {
                analysis.reads += 1;
            } else {
                analysis.writes += 1;
            }
            let sectors = u64::from(record.sectors);
            analysis.total_sectors += sectors;
            analysis.min_request_sectors = analysis.min_request_sectors.min(sectors);
            analysis.max_request_sectors = analysis.max_request_sectors.max(sectors);
            first = first.min(record.timestamp_us);
            last = last.max(record.timestamp_us);

            if prev_end == Some(record.sector) {
                analysis.sequential_successors += 1;
            }
            prev_end = Some(record.sector + sectors);

            let first_block = record.sector / BLOCK_SECTORS;
            let last_block = (record.sector + sectors - 1) / BLOCK_SECTORS;
            for block in first_block..=last_block {
                footprint.insert(block);
            }
        }

        if analysis.requests == 0 {
            analysis.min_request_sectors = 0;
        } else {
            analysis.first_timestamp_us = first;
            analysis.last_timestamp_us = last;
        }
        analysis.footprint_blocks = footprint.len() as u64;
        analysis
    }

    /// Fraction of requests that are reads, in `[0, 1]`.
    pub fn read_fraction(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.reads as f64 / self.requests as f64
        }
    }

    /// Fraction of requests that continue the previous request's address
    /// range, in `[0, 1]` — a standard sequentiality measure.
    pub fn sequentiality(&self) -> f64 {
        if self.requests <= 1 {
            0.0
        } else {
            self.sequential_successors as f64 / (self.requests - 1) as f64
        }
    }

    /// Mean request size in sectors.
    pub fn avg_request_sectors(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.total_sectors as f64 / self.requests as f64
        }
    }

    /// Footprint in bytes (distinct blocks × block size).
    pub fn footprint_bytes(&self) -> u64 {
        self.footprint_blocks * BLOCK_SECTORS * lbica_storage::block::SECTOR_SIZE
    }

    /// Average arrival rate over the captured span, requests per second.
    pub fn avg_iops(&self) -> f64 {
        let span_us = self.last_timestamp_us.saturating_sub(self.first_timestamp_us);
        if span_us == 0 {
            0.0
        } else {
            self.requests as f64 / (span_us as f64 / 1e6)
        }
    }

    /// Whether the trace looks like a read-mostly workload (≥ 80 % reads).
    pub fn is_read_mostly(&self) -> bool {
        self.read_fraction() >= 0.8
    }

    /// Whether the trace looks sequential (≥ 50 % sequential successors).
    pub fn is_sequential(&self) -> bool {
        self.sequentiality() >= 0.5
    }
}

/// Splits a trace into fixed-length intervals and analyzes each separately,
/// mirroring the paper's per-interval monitoring.
pub fn analyze_intervals(records: &[TraceRecord], interval_us: u64) -> Vec<TraceAnalysis> {
    assert!(interval_us > 0, "interval length must be positive");
    if records.is_empty() {
        return Vec::new();
    }
    let last = records.iter().map(|r| r.timestamp_us).max().unwrap_or(0);
    let intervals = (last / interval_us + 1) as usize;
    let mut buckets: Vec<Vec<TraceRecord>> = vec![Vec::new(); intervals];
    for record in records {
        buckets[(record.timestamp_us / interval_us) as usize].push(*record);
    }
    buckets.iter().map(|bucket| TraceAnalysis::of(bucket)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{AccessPattern, ArrivalProcess, PatternSpec};
    use lbica_storage::request::RequestKind;

    #[test]
    fn empty_trace_is_all_zero() {
        let a = TraceAnalysis::of(&[]);
        assert_eq!(a.requests, 0);
        assert_eq!(a.read_fraction(), 0.0);
        assert_eq!(a.sequentiality(), 0.0);
        assert_eq!(a.avg_iops(), 0.0);
        assert_eq!(a.min_request_sectors, 0);
    }

    #[test]
    fn counts_and_ratios_are_exact() {
        let records = vec![
            TraceRecord::new(0, 0, 8, RequestKind::Read),
            TraceRecord::new(100, 8, 8, RequestKind::Read),
            TraceRecord::new(200, 1_000, 16, RequestKind::Write),
            TraceRecord::new(1_000_000, 2_000, 8, RequestKind::Read),
        ];
        let a = TraceAnalysis::of(&records);
        assert_eq!(a.requests, 4);
        assert_eq!(a.reads, 3);
        assert_eq!(a.writes, 1);
        assert!((a.read_fraction() - 0.75).abs() < 1e-12);
        assert_eq!(a.total_sectors, 40);
        assert_eq!(a.min_request_sectors, 8);
        assert_eq!(a.max_request_sectors, 16);
        assert!((a.avg_request_sectors() - 10.0).abs() < 1e-12);
        // Exactly one sequential successor (the second request).
        assert_eq!(a.sequential_successors, 1);
        assert!((a.sequentiality() - 1.0 / 3.0).abs() < 1e-12);
        // Footprint: blocks 0,1 (first two), 125,126 (third), 250 (fourth).
        assert_eq!(a.footprint_blocks, 5);
        assert_eq!(a.footprint_bytes(), 5 * 4096);
        // 4 requests over 1 second.
        assert!((a.avg_iops() - 4.0).abs() < 0.1);
    }

    #[test]
    fn sequential_stream_is_detected_as_sequential() {
        let records: Vec<TraceRecord> =
            (0..100).map(|i| TraceRecord::new(i * 10, i * 8, 8, RequestKind::Read)).collect();
        let a = TraceAnalysis::of(&records);
        assert!(a.is_sequential());
        assert!(a.is_read_mostly());
        assert!((a.sequentiality() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn random_generator_output_is_not_sequential() {
        let mut pattern =
            AccessPattern::new(PatternSpec::RandomRead { working_set_blocks: 100_000 }, 0, 1, 3);
        let mut arrivals = ArrivalProcess::new(10_000.0, 3);
        let records = crate::gen::generate_stream(&mut pattern, &mut arrivals, 0, 200_000);
        let a = TraceAnalysis::of(&records);
        assert!(!a.is_sequential(), "sequentiality {}", a.sequentiality());
        assert!(a.is_read_mostly());
    }

    #[test]
    fn generator_read_fraction_survives_analysis() {
        let mut pattern = AccessPattern::new(
            PatternSpec::Mixed { read_fraction: 0.3, working_set_blocks: 10_000 },
            0,
            1,
            11,
        );
        let mut arrivals = ArrivalProcess::new(20_000.0, 11);
        let records = crate::gen::generate_stream(&mut pattern, &mut arrivals, 0, 500_000);
        let a = TraceAnalysis::of(&records);
        assert!((a.read_fraction() - 0.3).abs() < 0.05, "read fraction {}", a.read_fraction());
        // Arrival rate is recovered within 10%.
        assert!((a.avg_iops() - 20_000.0).abs() < 2_000.0, "iops {}", a.avg_iops());
    }

    #[test]
    fn interval_analysis_splits_by_timestamp() {
        let records = vec![
            TraceRecord::new(0, 0, 8, RequestKind::Read),
            TraceRecord::new(50, 8, 8, RequestKind::Write),
            TraceRecord::new(150, 16, 8, RequestKind::Read),
        ];
        let per_interval = analyze_intervals(&records, 100);
        assert_eq!(per_interval.len(), 2);
        assert_eq!(per_interval[0].requests, 2);
        assert_eq!(per_interval[1].requests, 1);
        assert!(analyze_intervals(&[], 100).is_empty());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_interval_length_panics() {
        let _ = analyze_intervals(&[TraceRecord::new(0, 0, 8, RequestKind::Read)], 0);
    }
}
