//! Model-based equivalence tests for the flat [`SetAssociativeMap`].
//!
//! The production map is a packed slot arena with intrusive recency links;
//! the reference model below is a deliberately naive `BTreeMap`-backed
//! reimplementation of the same set-associative + LRU/FIFO semantics.
//! Driving both with identical random operation sequences and asserting
//! identical observable outcomes pins the arena rewrite to the original
//! behaviour far more tightly than example-based tests can. The slot-handle
//! operations (`locate` + `*_at`) are driven against the model's
//! block-addressed ones, and every final state must survive a snapshot
//! round trip.

use std::collections::BTreeMap;

use proptest::prelude::*;

use lbica_cache::{InsertOutcome, ReplacementKind, SetAssociativeMap, SlotState};
use lbica_storage::snap::{SnapReader, SnapWriter};

/// One set of the reference model: a block→state map plus an explicit
/// recency order (coldest first), bounded by the associativity.
#[derive(Debug, Default)]
struct ModelSet {
    slots: BTreeMap<u64, SlotState>,
    /// Blocks from coldest (front) to hottest (back).
    order: Vec<u64>,
}

/// A naive reference implementation of the set-associative map.
#[derive(Debug)]
struct ModelCache {
    sets: Vec<ModelSet>,
    associativity: usize,
    replacement: ReplacementKind,
}

impl ModelCache {
    fn new(num_sets: usize, associativity: usize, replacement: ReplacementKind) -> Self {
        ModelCache {
            sets: (0..num_sets).map(|_| ModelSet::default()).collect(),
            associativity,
            replacement,
        }
    }

    fn set_for(&mut self, block: u64) -> &mut ModelSet {
        let idx = (block % self.sets.len() as u64) as usize;
        &mut self.sets[idx]
    }

    fn len(&self) -> usize {
        self.sets.iter().map(|s| s.slots.len()).sum()
    }

    fn dirty(&self) -> usize {
        self.sets
            .iter()
            .flat_map(|s| s.slots.values())
            .filter(|state| **state == SlotState::Dirty)
            .count()
    }

    fn state(&mut self, block: u64) -> Option<SlotState> {
        self.set_for(block).slots.get(&block).copied()
    }

    fn touch(&mut self, block: u64) -> bool {
        let lru = self.replacement == ReplacementKind::Lru;
        let set = self.set_for(block);
        if !set.slots.contains_key(&block) {
            return false;
        }
        if lru {
            set.order.retain(|b| *b != block);
            set.order.push(block);
        }
        true
    }

    fn insert(&mut self, block: u64, state: SlotState) -> InsertOutcome {
        let associativity = self.associativity;
        let lru = self.replacement == ReplacementKind::Lru;
        let set = self.set_for(block);

        if let Some(existing) = set.slots.get_mut(&block) {
            if *existing == SlotState::Clean && state == SlotState::Dirty {
                *existing = SlotState::Dirty;
            }
            if lru {
                set.order.retain(|b| *b != block);
                set.order.push(block);
            }
            return InsertOutcome::AlreadyPresent;
        }

        if set.slots.len() < associativity {
            set.slots.insert(block, state);
            set.order.push(block);
            return InsertOutcome::Inserted;
        }

        let victim = set.order.remove(0);
        let victim_state = set.slots.remove(&victim).expect("victim is resident");
        set.slots.insert(block, state);
        set.order.push(block);
        match victim_state {
            SlotState::Dirty => InsertOutcome::EvictedDirty { victim },
            SlotState::Clean => InsertOutcome::EvictedClean { victim },
        }
    }

    fn mark_dirty(&mut self, block: u64) -> bool {
        match self.set_for(block).slots.get_mut(&block) {
            Some(state) => {
                *state = SlotState::Dirty;
                true
            }
            None => false,
        }
    }

    fn invalidate(&mut self, block: u64) -> Option<SlotState> {
        let set = self.set_for(block);
        let state = set.slots.remove(&block)?;
        set.order.retain(|b| *b != block);
        Some(state)
    }
}

/// The operations the fuzzer drives both implementations with.
#[derive(Debug, Clone, Copy)]
enum Op {
    Insert(u64, SlotState),
    Touch(u64),
    MarkDirty(u64),
    Invalidate(u64),
    /// `locate`, then `touch_at` on the handle.
    TouchAt(u64),
    /// `locate`, then `mark_dirty_at`.
    MarkDirtyAt(u64),
    /// `locate`, then `invalidate_at`.
    InvalidateAt(u64),
    /// `locate`, then `state_at`.
    StateAt(u64),
}

fn arb_op() -> impl Strategy<Value = Op> {
    (0u8..8, 0u64..96, any::<bool>()).prop_map(|(which, block, dirty)| match which {
        0 => Op::Insert(block, if dirty { SlotState::Dirty } else { SlotState::Clean }),
        1 => Op::Touch(block),
        2 => Op::MarkDirty(block),
        3 => Op::Invalidate(block),
        4 => Op::TouchAt(block),
        5 => Op::MarkDirtyAt(block),
        6 => Op::InvalidateAt(block),
        _ => Op::StateAt(block),
    })
}

fn arb_replacement() -> impl Strategy<Value = ReplacementKind> {
    prop_oneof![Just(ReplacementKind::Lru), Just(ReplacementKind::Fifo)]
}

/// Geometries covering the pow2 bitmask fast path and the modulo fallback,
/// direct-mapped sets, odd ways and sets wider than one cache line.
fn arb_geometry() -> impl Strategy<Value = (usize, usize)> {
    prop_oneof![
        Just((8usize, 2usize)), // power-of-two sets
        Just((7, 2)),           // prime set count (modulo path)
        Just((4, 4)),
        Just((6, 3)),
        Just((1, 8)),
        Just((16, 1)), // direct-mapped
        Just((5, 3)),
        Just((3, 16)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn flat_map_matches_the_btreemap_reference_model(
        (num_sets, associativity) in arb_geometry(),
        replacement in arb_replacement(),
        ops in proptest::collection::vec(arb_op(), 1..400),
    ) {
        let mut real = SetAssociativeMap::new(num_sets, associativity, replacement);
        let mut model = ModelCache::new(num_sets, associativity, replacement);

        for (step, op) in ops.iter().enumerate() {
            match *op {
                Op::Insert(block, state) => {
                    let a = real.insert(block, state);
                    let b = model.insert(block, state);
                    prop_assert_eq!(a, b, "insert({}, {:?}) diverged at step {}", block, state, step);
                }
                Op::Touch(block) => {
                    prop_assert_eq!(real.touch(block), model.touch(block), "touch({}) at {}", block, step);
                }
                Op::MarkDirty(block) => {
                    prop_assert_eq!(real.mark_dirty(block), model.mark_dirty(block), "mark_dirty({}) at {}", block, step);
                }
                Op::Invalidate(block) => {
                    prop_assert_eq!(real.invalidate(block), model.invalidate(block), "invalidate({}) at {}", block, step);
                }
                Op::TouchAt(block) | Op::MarkDirtyAt(block) | Op::InvalidateAt(block) | Op::StateAt(block) => {
                    let slot = real.locate(block);
                    prop_assert_eq!(slot.is_some(), model.state(block).is_some(), "locate({}) at {}", block, step);
                    if let Some(slot) = slot {
                        match *op {
                            Op::TouchAt(_) => {
                                real.touch_at(slot);
                                model.touch(block);
                            }
                            Op::MarkDirtyAt(_) => {
                                real.mark_dirty_at(slot);
                                model.mark_dirty(block);
                            }
                            Op::InvalidateAt(_) => {
                                prop_assert_eq!(Some(real.invalidate_at(slot)), model.invalidate(block), "invalidate_at({}) at {}", block, step);
                            }
                            _ => prop_assert_eq!(Some(real.state_at(slot)), model.state(block), "state_at({}) at {}", block, step),
                        }
                    }
                }
            }

            // After every op: occupancy, dirty accounting and per-block
            // state agree exactly.
            prop_assert_eq!(real.len(), model.len(), "len diverged at step {}", step);
            prop_assert_eq!(real.dirty_blocks(), model.dirty(), "dirty diverged at step {}", step);
            for block in 0u64..96 {
                prop_assert_eq!(
                    real.state(block),
                    model.state(block),
                    "state({}) diverged at step {}", block, step
                );
            }
        }

        // `blocks` must enumerate exactly the model's resident blocks (the
        // arena yields set-then-way order; the model has no way order, so
        // compare as sets).
        let mut real_blocks: Vec<u64> = real.blocks().collect();
        real_blocks.sort_unstable();
        let model_blocks: Vec<u64> = (0..96u64).filter(|b| model.state(*b).is_some()).collect();
        prop_assert_eq!(real_blocks, model_blocks);

        // A snapshot round trip restores an equal map that then makes the
        // same insert and eviction decision in every set.
        let mut w = SnapWriter::new();
        real.snap_to(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let mut restored = SetAssociativeMap::snap_from(&mut r).expect("own snapshot restores");
        prop_assert!(r.finish().is_ok());
        prop_assert_eq!(&restored, &real);
        for block in 96..96 + num_sets as u64 {
            prop_assert_eq!(restored.insert(block, SlotState::Clean), real.insert(block, SlotState::Clean));
        }
        prop_assert_eq!(restored, real);
    }
}
