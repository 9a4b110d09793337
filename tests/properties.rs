//! Property-based tests over the cross-crate invariants of the
//! reproduction: trace round-trips, cache occupancy bounds, simulator
//! conservation and characterizer totality.

use proptest::prelude::*;

use lbica::cache::{CacheConfig, CacheModule, ReplacementKind, WritePolicy};
use lbica::core::{BottleneckDetector, RequestMix, WorkloadCharacterizer};
use lbica::sim::{SimulationConfig, StorageSystem};
use lbica::storage::queue::QueueSnapshot;
use lbica::storage::request::{IoRequest, RequestKind, RequestOrigin};
use lbica::storage::time::{SimDuration, SimTime};
use lbica::trace::io::{import_text_trace, write_text_trace, BinaryTraceCodec};
use lbica::trace::record::TraceRecord;

fn arb_record() -> impl Strategy<Value = TraceRecord> {
    (0u64..10_000_000, 0u64..1_000_000, 1u32..1024, any::<bool>()).prop_map(
        |(ts, sector, sectors, is_read)| {
            TraceRecord::new(
                ts,
                sector,
                sectors,
                if is_read { RequestKind::Read } else { RequestKind::Write },
            )
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn text_trace_round_trips(records in proptest::collection::vec(arb_record(), 0..200)) {
        let mut buf = Vec::new();
        write_text_trace(&mut buf, &records).expect("write to memory");
        let parsed = import_text_trace(buf.as_slice()).expect("parse what we wrote");
        prop_assert_eq!(parsed, records);
    }

    #[test]
    fn binary_trace_round_trips(records in proptest::collection::vec(arb_record(), 0..200)) {
        let codec = BinaryTraceCodec;
        let decoded = codec.decode(codec.encode(&records)).expect("decode what we encoded");
        prop_assert_eq!(decoded, records);
    }

    #[test]
    fn cache_occupancy_never_exceeds_capacity(
        accesses in proptest::collection::vec((0u64..4_096, any::<bool>()), 1..500),
        policy_idx in 0usize..4,
    ) {
        let policy = WritePolicy::ALL[policy_idx];
        let mut cache = CacheModule::new(CacheConfig {
            num_sets: 16,
            associativity: 4,
            replacement: ReplacementKind::Lru,
            initial_policy: policy,
        });
        for (i, (block, is_read)) in accesses.iter().enumerate() {
            let kind = if *is_read { RequestKind::Read } else { RequestKind::Write };
            let req = IoRequest::new(i as u64, kind, RequestOrigin::Application, block * 8, 8);
            cache.access(&req);
            prop_assert!(cache.cached_blocks() <= cache.capacity_blocks());
            prop_assert!(cache.dirty_blocks() <= cache.cached_blocks());
            if !policy.leaves_dirty_blocks() {
                prop_assert_eq!(cache.dirty_blocks(), 0);
            }
        }
        // Accounting identity: every application access is counted exactly once.
        let stats = cache.stats();
        prop_assert_eq!(stats.reads() + stats.writes(), accesses.len() as u64);
    }

    #[test]
    fn characterizer_is_total_and_stable(
        reads in 0usize..1000,
        writes in 0usize..1000,
        promotes in 0usize..1000,
        evicts in 0usize..1000,
    ) {
        let snapshot = QueueSnapshot { reads, writes, promotes, evicts };
        let mix = RequestMix::from_snapshot(&snapshot);
        // Fractions are a probability vector (or all-zero for an empty queue).
        let total = mix.total();
        prop_assert!(total == 0.0 || (total - 1.0).abs() < 1e-9);
        // Classification never panics and is deterministic.
        let characterizer = WorkloadCharacterizer::new();
        let a = characterizer.classify(&mix);
        let b = characterizer.classify(&mix);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn detector_is_monotone_in_cache_queue_depth(
        base_depth in 0usize..500,
        extra in 1usize..500,
        disk_depth in 0usize..500,
    ) {
        let detector = BottleneckDetector::new();
        let ssd = SimDuration::from_micros(75);
        let hdd = SimDuration::from_micros(385);
        let shallow = detector.evaluate(base_depth, ssd, disk_depth, hdd);
        let deep = detector.evaluate(base_depth + extra, ssd, disk_depth, hdd);
        // Growing the cache queue can only move the verdict towards
        // "bottleneck", never away from it.
        prop_assert!(deep.cache_qtime >= shallow.cache_qtime);
        if shallow.cache_is_bottleneck {
            prop_assert!(deep.cache_is_bottleneck);
        }
    }

    #[test]
    fn simulator_conserves_requests(
        offsets in proptest::collection::vec((0u64..50_000, 0u64..5_000, any::<bool>()), 1..120),
    ) {
        let mut system = StorageSystem::new(&SimulationConfig::tiny());
        for (i, (gap, block, is_read)) in offsets.iter().enumerate() {
            let kind = if *is_read { RequestKind::Read } else { RequestKind::Write };
            system.schedule_record(&TraceRecord::new(i as u64 * 10 + gap, block * 8, 8, kind));
        }
        // Run far past the last arrival: every queue must drain and every
        // application request must complete exactly once.
        system.run_until(SimTime::from_secs(600));
        prop_assert_eq!(system.app_completed(), offsets.len() as u64);
        prop_assert_eq!(system.pending_events(), 0);
        prop_assert_eq!(system.ssd().outstanding(), 0);
        prop_assert_eq!(system.disk().outstanding(), 0);
        // Latency aggregates are consistent.
        prop_assert!(system.app_max_latency_us() >= system.app_avg_latency_us());
    }
}
