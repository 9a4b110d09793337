//! Property-based tests of the cache module's invariants under every write
//! policy.

use proptest::prelude::*;

use lbica_cache::{
    CacheConfig, CacheModule, ReplacementKind, SetAssociativeMap, SlotState, TargetDevice,
    WritePolicy,
};
use lbica_storage::request::{IoRequest, RequestClass, RequestKind, RequestOrigin};

fn arb_policy() -> impl Strategy<Value = WritePolicy> {
    prop_oneof![
        Just(WritePolicy::WriteBack),
        Just(WritePolicy::WriteThrough),
        Just(WritePolicy::ReadOnly),
        Just(WritePolicy::WriteOnly),
    ]
}

fn small_config(policy: WritePolicy) -> CacheConfig {
    CacheConfig {
        num_sets: 8,
        associativity: 2,
        replacement: ReplacementKind::Lru,
        initial_policy: policy,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn set_assoc_map_occupancy_and_dirty_counts_are_consistent(
        ops in proptest::collection::vec((0u64..128, any::<bool>(), any::<bool>()), 1..400),
    ) {
        let mut map = SetAssociativeMap::new(8, 2, ReplacementKind::Lru);
        for (block, dirty, invalidate) in ops {
            if invalidate {
                map.invalidate(block);
            } else {
                map.insert(block, if dirty { SlotState::Dirty } else { SlotState::Clean });
            }
            prop_assert!(map.len() <= map.capacity_blocks());
            prop_assert!(map.dirty_blocks() <= map.len());
            // Recount dirty blocks from scratch: must match the counter.
            let recount = map
                .blocks()
                .filter(|b| map.state(*b) == Some(SlotState::Dirty))
                .count();
            prop_assert_eq!(recount, map.dirty_blocks());
        }
    }

    #[test]
    fn every_application_access_produces_a_consistent_outcome(
        policy in arb_policy(),
        accesses in proptest::collection::vec((0u64..64, any::<bool>()), 1..300),
    ) {
        let mut cache = CacheModule::new(small_config(policy));
        for (i, (block, is_read)) in accesses.iter().enumerate() {
            let kind = if *is_read { RequestKind::Read } else { RequestKind::Write };
            let req = IoRequest::new(i as u64, kind, RequestOrigin::Application, block * 8, 8);
            let outcome = cache.access(&req);

            // Invariant 1: something always serves the application's data.
            let app_ops: Vec<_> = outcome
                .ops()
                .iter()
                .filter(|op| op.origin == RequestOrigin::Application)
                .collect();
            prop_assert!(!app_ops.is_empty(), "no datapath op for {kind:?} under {policy}");

            // Invariant 2: the application-facing op directions match the request.
            for op in &app_ops {
                prop_assert_eq!(op.kind, kind);
            }

            // Invariant 3: promotes only appear for policies that promote,
            // and only target the SSD.
            for op in outcome.ops() {
                if op.class() == RequestClass::Promote {
                    prop_assert!(policy.promotes_read_misses());
                    prop_assert_eq!(op.target, TargetDevice::Ssd);
                    prop_assert_eq!(op.kind, RequestKind::Write);
                }
            }

            // Invariant 4: writes reach the disk if and only if the policy
            // writes through or bypasses them.
            if kind == RequestKind::Write {
                let disk_write = outcome.ops().iter().any(|op| {
                    op.target == TargetDevice::Hdd && op.origin == RequestOrigin::Application
                });
                prop_assert_eq!(disk_write, policy.writes_through() || !policy.buffers_writes());
            }

            // Invariant 5: occupancy and dirty bounds hold at every step.
            prop_assert!(cache.cached_blocks() <= cache.capacity_blocks());
            if !policy.leaves_dirty_blocks() {
                prop_assert_eq!(cache.dirty_blocks(), 0);
            }
        }
    }

    #[test]
    fn hit_ratio_is_always_a_probability(
        policy in arb_policy(),
        accesses in proptest::collection::vec((0u64..32, any::<bool>()), 0..200),
    ) {
        let mut cache = CacheModule::new(small_config(policy));
        for (i, (block, is_read)) in accesses.iter().enumerate() {
            let kind = if *is_read { RequestKind::Read } else { RequestKind::Write };
            cache.access(&IoRequest::new(i as u64, kind, RequestOrigin::Application, block * 8, 8));
        }
        let stats = cache.stats();
        prop_assert!((0.0..=1.0).contains(&stats.hit_ratio()));
        prop_assert!((0.0..=1.0).contains(&stats.read_hit_ratio()));
        prop_assert_eq!(stats.reads() + stats.writes(), accesses.len() as u64);
    }
}
