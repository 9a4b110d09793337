//! Set-associative block-to-slot mapping.
//!
//! The map is one contiguous arena of 16-byte `Slot` records indexed by
//! `set * associativity + way`: each record holds the block tag, the
//! occupancy/dirty state and the slot's intrusive recency links, stored as
//! way indices within its set. A per-set `SetHead` holds the coldest and
//! hottest way and the set's dirty count. A lookup and its LRU splice
//! therefore stay inside the set's own few cache lines (a 4-way set is 64
//! bytes), and `dirty_candidates` skips whole sets via the dirty counter.
//! The observable semantics are bit-identical to the seed's boxed-slot
//! representation (a `Vec<Option<Slot>>` per set plus a recency `Vec` of
//! way indices): same hit/eviction decisions, same victim order, same
//! candidate enumeration order — pinned by the model-based proptest in
//! `tests/model_equivalence.rs`.

use std::fmt;

use lbica_storage::snap::{SnapError, SnapReader, SnapWriter};
use serde::{Deserialize, Serialize};

use crate::replacement::ReplacementKind;

/// Sentinel for "no way" in a set's intrusive recency links.
const NIL: u16 = u16::MAX;

/// Sentinel for "no slot" in the global slot indices of a snapshot.
const SNAP_NIL: u32 = u32::MAX;

/// The state of one cache slot (one way of one set).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SlotState {
    /// The slot holds a clean copy of a block.
    Clean,
    /// The slot holds a modified copy that must be written back before it
    /// can be discarded.
    Dirty,
}

/// One way of one set: 16 bytes, so four ways share a 64-byte line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct Slot {
    /// The cached block; meaningless where `state` is `None`.
    tag: u64,
    /// The way one step hotter in the set's recency list, or `NIL`.
    next: u16,
    /// The way one step colder, or `NIL`.
    prev: u16,
    /// `None` when the slot is unoccupied.
    state: Option<SlotState>,
}

impl Slot {
    const EMPTY: Slot = Slot { tag: 0, next: NIL, prev: NIL, state: None };
}

const _: () = assert!(std::mem::size_of::<Slot>() == 16, "a slot record is 16 bytes");

/// The ends of one set's recency list, plus its dirty-slot count so clean
/// sets are skipped wholesale when enumerating flush candidates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct SetHead {
    /// Coldest way (the eviction victim), `NIL` when the set is empty.
    head: u16,
    /// Hottest way, `NIL` when the set is empty.
    tail: u16,
    dirty: u32,
}

impl SetHead {
    const EMPTY: SetHead = SetHead { head: NIL, tail: NIL, dirty: 0 };
}

/// What happened when a block was inserted into the map.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum InsertOutcome {
    /// The block was already cached; its state was updated in place.
    AlreadyPresent,
    /// The block went into a free slot.
    Inserted,
    /// A clean victim was discarded to make room.
    EvictedClean {
        /// Block index of the discarded victim.
        victim: u64,
    },
    /// A dirty victim must be written back to the disk subsystem.
    EvictedDirty {
        /// Block index of the victim that needs writing back.
        victim: u64,
    },
}

/// A set-associative map from cache-block indices to slots, with dirty-bit
/// tracking — the metadata structure of the EnhanceIO-like cache.
///
/// ```
/// use lbica_cache::{SetAssociativeMap, SlotState, ReplacementKind};
///
/// let mut map = SetAssociativeMap::new(4, 2, ReplacementKind::Lru);
/// map.insert(1, SlotState::Dirty);
/// assert!(map.contains(1));
/// assert_eq!(map.state(1), Some(SlotState::Dirty));
/// assert_eq!(map.dirty_blocks(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SetAssociativeMap {
    num_sets: usize,
    associativity: usize,
    /// `num_sets - 1` when `num_sets` is a power of two: `block & mask`
    /// then replaces the integer division in [`SetAssociativeMap::set_of`].
    set_mask: Option<u64>,
    replacement: ReplacementKind,
    /// One record per slot, set-major.
    slots: Vec<Slot>,
    /// One record per set.
    sets: Vec<SetHead>,
    len: usize,
    dirty: usize,
}

impl SetAssociativeMap {
    /// Creates a map with `num_sets` sets of `associativity` ways each.
    ///
    /// # Panics
    ///
    /// Panics if `num_sets` or `associativity` is zero, if `associativity`
    /// does not fit the `u16` way links, or if the total slot count
    /// overflows the `u32` slot-index space.
    pub fn new(num_sets: usize, associativity: usize, replacement: ReplacementKind) -> Self {
        assert!(num_sets > 0, "a cache needs at least one set");
        assert!(associativity > 0, "a cache needs at least one way per set");
        assert!(associativity < NIL as usize, "associativity must fit the u16 way links");
        let slots = num_sets
            .checked_mul(associativity)
            .filter(|&n| n < SNAP_NIL as usize)
            .expect("slot count must fit the u32 index space");
        let set_mask = if num_sets.is_power_of_two() { Some(num_sets as u64 - 1) } else { None };
        SetAssociativeMap {
            num_sets,
            associativity,
            set_mask,
            replacement,
            slots: vec![Slot::EMPTY; slots],
            sets: vec![SetHead::EMPTY; num_sets],
            len: 0,
            dirty: 0,
        }
    }

    /// Total number of slots (blocks the cache can hold).
    pub fn capacity_blocks(&self) -> usize {
        self.num_sets * self.associativity
    }

    /// Whether `other` has the same sets, ways and replacement policy, so a
    /// snapshot of one can stand in for the other.
    pub fn same_geometry(&self, other: &SetAssociativeMap) -> bool {
        (self.num_sets, self.associativity, self.replacement)
            == (other.num_sets, other.associativity, other.replacement)
    }

    /// Number of blocks currently cached.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the cache holds no blocks.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of dirty blocks awaiting write-back.
    pub fn dirty_blocks(&self) -> usize {
        self.dirty
    }

    /// The set a block maps to. Power-of-two set counts take a bitmask
    /// fast path; the mapping is identical to `block % num_sets` either
    /// way.
    pub fn set_of(&self, block: u64) -> usize {
        match self.set_mask {
            Some(mask) => (block & mask) as usize,
            None => (block % self.num_sets as u64) as usize,
        }
    }

    /// The slot range `[base, base + associativity)` backing a set.
    fn set_base(&self, set: usize) -> usize {
        set * self.associativity
    }

    /// The ways of a set.
    fn ways(&self, set: usize) -> &[Slot] {
        let base = self.set_base(set);
        &self.slots[base..base + self.associativity]
    }

    /// The `(set, way)` a slot handle addresses.
    fn split(&self, slot: u32) -> (usize, usize) {
        let slot = slot as usize;
        let set = slot / self.associativity;
        (set, slot - self.set_base(set))
    }

    /// Finds the way of `set` holding `block`.
    fn find(&self, set: usize, block: u64) -> Option<usize> {
        self.ways(set).iter().position(|s| s.tag == block && s.state.is_some())
    }

    /// Appends `way` at the hot end of its set's recency list.
    fn push_hot(&mut self, set: usize, way: usize) {
        let base = self.set_base(set);
        let links = &mut self.sets[set];
        let slot = &mut self.slots[base + way];
        slot.prev = links.tail;
        slot.next = NIL;
        match links.tail {
            NIL => links.head = way as u16,
            tail => self.slots[base + tail as usize].next = way as u16,
        }
        links.tail = way as u16;
    }

    /// Splices `way` out of its set's recency list.
    fn unlink(&mut self, set: usize, way: usize) {
        let base = self.set_base(set);
        let Slot { prev, next, .. } = self.slots[base + way];
        let links = &mut self.sets[set];
        match prev {
            NIL => links.head = next,
            p => self.slots[base + p as usize].next = next,
        }
        match next {
            NIL => links.tail = prev,
            n => self.slots[base + n as usize].prev = prev,
        }
        let slot = &mut self.slots[base + way];
        slot.prev = NIL;
        slot.next = NIL;
    }

    /// Records an access to an occupied way: under LRU it moves to the hot
    /// end, under FIFO the insertion order is left untouched.
    fn touch_way(&mut self, set: usize, way: usize) {
        if self.replacement == ReplacementKind::Lru && self.sets[set].tail != way as u16 {
            self.unlink(set, way);
            self.push_hot(set, way);
        }
    }

    /// Rewrites a way's state, keeping `len`, `dirty` and the set's dirty
    /// count in step.
    fn set_state(&mut self, set: usize, way: usize, state: Option<SlotState>) {
        let base = self.set_base(set);
        let old = std::mem::replace(&mut self.slots[base + way].state, state);
        let dirty = |s: Option<SlotState>| u32::from(s == Some(SlotState::Dirty));
        self.len = self.len + usize::from(state.is_some()) - usize::from(old.is_some());
        self.sets[set].dirty = self.sets[set].dirty + dirty(state) - dirty(old);
        self.dirty = self.dirty + dirty(state) as usize - dirty(old) as usize;
    }

    /// Empties an occupied way, returning the state it held.
    fn remove(&mut self, set: usize, way: usize) -> SlotState {
        let state = self.ways(set)[way].state.expect("removing an empty slot");
        self.set_state(set, way, None);
        self.unlink(set, way);
        state
    }

    /// Clears every slot without deallocating, restoring the exact state of
    /// a freshly constructed map (including derive-`PartialEq` equality):
    /// the backing arenas keep their capacity so a reused map performs no
    /// allocations.
    pub fn reset(&mut self) {
        self.slots.fill(Slot::EMPTY);
        self.sets.fill(SetHead::EMPTY);
        self.len = 0;
        self.dirty = 0;
    }

    /// Fills the map to capacity with the clean blocks
    /// `first_block .. first_block + capacity`, exactly equivalent to (but
    /// much faster than) [`SetAssociativeMap::reset`] followed by inserting
    /// them in ascending order: each set receives its `associativity`
    /// resident blocks directly, with recency running coldest→hottest in
    /// insertion order, skipping the per-insert tag scans entirely. This is
    /// the prewarm fast path — equivalence to the naive insert loop is
    /// pinned by a proptest below.
    pub fn fill_sequential(&mut self, first_block: u64) {
        let assoc = self.associativity;
        let sets = self.num_sets as u64;
        let start_rem = first_block % sets;
        for (set, ways) in self.slots.chunks_exact_mut(assoc).enumerate() {
            // First block ≥ first_block that maps to this set.
            let first_in_set = first_block + (set as u64 + sets - start_rem) % sets;
            for (way, slot) in ways.iter_mut().enumerate() {
                *slot = Slot {
                    tag: first_in_set + way as u64 * sets,
                    next: if way + 1 == assoc { NIL } else { way as u16 + 1 },
                    prev: if way == 0 { NIL } else { way as u16 - 1 },
                    state: Some(SlotState::Clean),
                };
            }
        }
        self.sets.fill(SetHead { head: 0, tail: (assoc - 1) as u16, dirty: 0 });
        self.len = self.capacity_blocks();
        self.dirty = 0;
    }

    /// Locates the slot holding `block` without a recency update. The
    /// returned handle (`set * associativity + way`) feeds the `*_at`
    /// operations below and stays valid until the block is invalidated or
    /// evicted: recency updates splice links but never move a block
    /// between slots.
    pub fn locate(&self, block: u64) -> Option<u32> {
        let set = self.set_of(block);
        self.find(set, block).map(|way| (self.set_base(set) + way) as u32)
    }

    /// Records a hit on an occupied slot handle — identical to
    /// [`SetAssociativeMap::touch`] on the block it holds, minus the tag
    /// scan.
    pub fn touch_at(&mut self, slot: u32) {
        debug_assert!(self.slots[slot as usize].state.is_some(), "touch_at on an empty slot");
        let (set, way) = self.split(slot);
        self.touch_way(set, way);
    }

    /// The state of the block in an occupied slot handle.
    pub fn state_at(&self, slot: u32) -> SlotState {
        self.slots[slot as usize].state.expect("state_at on an empty slot")
    }

    /// Marks the block in an occupied slot handle dirty — identical to
    /// [`SetAssociativeMap::mark_dirty`] minus the tag scan.
    pub fn mark_dirty_at(&mut self, slot: u32) {
        debug_assert!(self.slots[slot as usize].state.is_some(), "mark_dirty_at on an empty slot");
        let (set, way) = self.split(slot);
        self.set_state(set, way, Some(SlotState::Dirty));
    }

    /// Removes the block in an occupied slot handle, returning its state —
    /// identical to [`SetAssociativeMap::invalidate`] minus the tag scan.
    pub fn invalidate_at(&mut self, slot: u32) -> SlotState {
        let (set, way) = self.split(slot);
        self.remove(set, way)
    }

    /// Whether `block` is cached.
    pub fn contains(&self, block: u64) -> bool {
        self.locate(block).is_some()
    }

    /// The state of `block` if cached.
    pub fn state(&self, block: u64) -> Option<SlotState> {
        self.locate(block).map(|slot| self.state_at(slot))
    }

    /// Records a hit on `block` (recency update). Returns `false` when the
    /// block is not cached.
    pub fn touch(&mut self, block: u64) -> bool {
        let set = self.set_of(block);
        self.find(set, block).map(|way| self.touch_way(set, way)).is_some()
    }

    /// Inserts `block` with the given state, evicting a victim when the set
    /// is full. Inserting an already-present block updates its state
    /// (clean→dirty transitions are recorded; dirty blocks stay dirty).
    pub fn insert(&mut self, block: u64, state: SlotState) -> InsertOutcome {
        let set = self.set_of(block);
        if let Some(way) = self.find(set, block) {
            self.touch_way(set, way);
            if state == SlotState::Dirty {
                self.set_state(set, way, Some(state));
            }
            return InsertOutcome::AlreadyPresent;
        }

        let free = self.ways(set).iter().position(|s| s.state.is_none());
        // A full set evicts its recency victim (the coldest way).
        let way = free.unwrap_or(self.sets[set].head as usize);
        let slot = self.set_base(set) + way;
        let victim = self.slots[slot];
        if free.is_none() {
            self.unlink(set, way);
        }
        self.slots[slot].tag = block;
        self.set_state(set, way, Some(state));
        self.push_hot(set, way);
        match victim.state {
            None => InsertOutcome::Inserted,
            Some(SlotState::Clean) => InsertOutcome::EvictedClean { victim: victim.tag },
            Some(SlotState::Dirty) => InsertOutcome::EvictedDirty { victim: victim.tag },
        }
    }

    /// Marks a cached block dirty. Returns `false` when the block is not
    /// cached.
    pub fn mark_dirty(&mut self, block: u64) -> bool {
        let set = self.set_of(block);
        self.find(set, block).map(|way| self.set_state(set, way, Some(SlotState::Dirty))).is_some()
    }

    /// Marks a cached block clean (after a flush). Returns `false` when the
    /// block is not cached.
    pub fn mark_clean(&mut self, block: u64) -> bool {
        let set = self.set_of(block);
        self.find(set, block).map(|way| self.set_state(set, way, Some(SlotState::Clean))).is_some()
    }

    /// Removes `block` from the cache, returning its state if it was cached.
    pub fn invalidate(&mut self, block: u64) -> Option<SlotState> {
        let set = self.set_of(block);
        self.find(set, block).map(|way| self.remove(set, way))
    }

    /// Returns up to `max` dirty block indices, coldest sets first, for the
    /// background flusher.
    pub fn dirty_candidates(&self, max: usize) -> Vec<u64> {
        let mut out = Vec::new();
        self.dirty_candidates_into(max, &mut out);
        out
    }

    /// [`SetAssociativeMap::dirty_candidates`] into a caller-owned buffer,
    /// so a periodic flusher reuses one allocation. The buffer is cleared
    /// first. Sets with no dirty blocks are skipped without scanning their
    /// ways.
    pub fn dirty_candidates_into(&self, max: usize, out: &mut Vec<u64>) {
        out.clear();
        if max == 0 || self.dirty == 0 {
            return;
        }
        for (ways, links) in self.slots.chunks_exact(self.associativity).zip(&self.sets) {
            if links.dirty == 0 {
                continue;
            }
            for slot in ways.iter().filter(|s| s.state == Some(SlotState::Dirty)) {
                out.push(slot.tag);
                if out.len() >= max {
                    return;
                }
            }
        }
    }

    /// Iterates all cached block indices.
    pub fn blocks(&self) -> impl Iterator<Item = u64> + '_ {
        self.slots.iter().filter(|s| s.state.is_some()).map(|s| s.tag)
    }

    /// Serializes the map — geometry, slot records and recency links, the
    /// links as global slot indices — for a replay checkpoint. Derived
    /// fields (`set_mask`, per-set dirty counters, `len`, `dirty`) are
    /// recomputed on restore rather than stored, shrinking the corruption
    /// surface.
    pub fn snap_to(&self, w: &mut SnapWriter) {
        w.put_usize(self.num_sets);
        w.put_usize(self.associativity);
        w.put_u8(match self.replacement {
            ReplacementKind::Lru => 0,
            ReplacementKind::Fifo => 1,
        });
        let global = |set: usize, way: u16| match way {
            NIL => SNAP_NIL,
            way => (self.set_base(set) + way as usize) as u32,
        };
        for (i, slot) in self.slots.iter().enumerate() {
            let set = i / self.associativity;
            w.put_u64(slot.tag);
            w.put_u8(match slot.state {
                None => 0,
                Some(SlotState::Clean) => 1,
                Some(SlotState::Dirty) => 2,
            });
            w.put_u32(global(set, slot.next));
            w.put_u32(global(set, slot.prev));
        }
        for (set, links) in self.sets.iter().enumerate() {
            w.put_u32(global(set, links.head));
            w.put_u32(global(set, links.tail));
        }
    }

    /// Restores a map serialized by [`SetAssociativeMap::snap_to`]. Every
    /// link must stay inside its own set, and each set's recency list must
    /// run from its head through exactly its occupied ways to its tail;
    /// anything else is [`SnapError::Corrupt`].
    pub fn snap_from(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let num_sets = r.get_usize()?;
        let associativity = r.get_usize()?;
        if num_sets == 0 || associativity == 0 || associativity >= NIL as usize {
            return Err(SnapError::Corrupt("cache map geometry"));
        }
        let slots = num_sets
            .checked_mul(associativity)
            .filter(|&n| n < SNAP_NIL as usize)
            .ok_or(SnapError::Corrupt("cache map geometry"))?;
        let replacement = match r.get_u8()? {
            0 => ReplacementKind::Lru,
            1 => ReplacementKind::Fifo,
            _ => return Err(SnapError::Corrupt("replacement kind tag")),
        };
        // Each slot record is 17 bytes and each set's ends 8: refuse a
        // geometry the buffer cannot hold before allocating for it.
        let needed = slots * 17 + num_sets * 8;
        if r.remaining() < needed {
            return Err(SnapError::UnexpectedEof { needed, remaining: r.remaining() });
        }
        // A global link as a way of the set starting at `base`.
        let way_of = |link: u32, base: usize| match link {
            SNAP_NIL => Ok(NIL),
            link => (link as usize)
                .checked_sub(base)
                .filter(|&way| way < associativity)
                .map(|way| way as u16)
                .ok_or(SnapError::Corrupt("recency link out of range")),
        };
        let mut map = SetAssociativeMap::new(num_sets, associativity, replacement);
        for (i, slot) in map.slots.iter_mut().enumerate() {
            let base = i - i % associativity;
            slot.tag = r.get_u64()?;
            slot.state = match r.get_u8()? {
                0 => None,
                1 => Some(SlotState::Clean),
                2 => Some(SlotState::Dirty),
                _ => return Err(SnapError::Corrupt("slot meta tag")),
            };
            slot.next = way_of(r.get_u32()?, base)?;
            slot.prev = way_of(r.get_u32()?, base)?;
        }
        for set in 0..num_sets {
            let base = map.set_base(set);
            let links = &mut map.sets[set];
            links.head = way_of(r.get_u32()?, base)?;
            links.tail = way_of(r.get_u32()?, base)?;
            let ways = &map.slots[base..base + associativity];
            if !chain_ok(ways, *links) {
                return Err(SnapError::Corrupt("recency list"));
            }
            for slot in ways.iter().filter(|s| s.state.is_some()) {
                map.len += 1;
                if slot.state == Some(SlotState::Dirty) {
                    map.dirty += 1;
                    links.dirty += 1;
                }
            }
        }
        Ok(map)
    }
}

/// Whether a set's recency list starts at `links.head`, visits each
/// occupied way exactly once through `next` with `prev` mirroring it, and
/// ends at `links.tail`, while every empty way stays unlinked. A revisit
/// cannot pass: its `prev` would have to match two different predecessors.
fn chain_ok(ways: &[Slot], links: SetHead) -> bool {
    if ways.iter().any(|s| s.state.is_none() && (s.next != NIL || s.prev != NIL)) {
        return false;
    }
    let occupied = ways.iter().filter(|s| s.state.is_some()).count();
    let (mut prev, mut way, mut seen) = (NIL, links.head, 0);
    while way != NIL {
        let slot = ways[way as usize];
        if seen == occupied || slot.state.is_none() || slot.prev != prev {
            return false;
        }
        (prev, way, seen) = (way, slot.next, seen + 1);
    }
    seen == occupied && prev == links.tail
}

impl fmt::Display for SetAssociativeMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "set-assoc cache: {}/{} blocks cached, {} dirty",
            self.len,
            self.capacity_blocks(),
            self.dirty
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map() -> SetAssociativeMap {
        SetAssociativeMap::new(4, 2, ReplacementKind::Lru)
    }

    #[test]
    #[should_panic(expected = "at least one set")]
    fn zero_sets_panics() {
        let _ = SetAssociativeMap::new(0, 2, ReplacementKind::Lru);
    }

    #[test]
    #[should_panic(expected = "at least one way")]
    fn zero_ways_panics() {
        let _ = SetAssociativeMap::new(2, 0, ReplacementKind::Lru);
    }

    #[test]
    fn insert_and_lookup() {
        let mut m = map();
        assert_eq!(m.insert(1, SlotState::Clean), InsertOutcome::Inserted);
        assert!(m.contains(1));
        assert_eq!(m.state(1), Some(SlotState::Clean));
        assert_eq!(m.len(), 1);
        assert!(!m.contains(2));
        assert_eq!(m.state(2), None);
    }

    #[test]
    fn reinsert_upgrades_clean_to_dirty() {
        let mut m = map();
        m.insert(1, SlotState::Clean);
        assert_eq!(m.insert(1, SlotState::Dirty), InsertOutcome::AlreadyPresent);
        assert_eq!(m.state(1), Some(SlotState::Dirty));
        assert_eq!(m.dirty_blocks(), 1);
        // A later clean insert does not silently lose the dirty bit.
        m.insert(1, SlotState::Clean);
        assert_eq!(m.state(1), Some(SlotState::Dirty));
        assert_eq!(m.dirty_blocks(), 1);
    }

    #[test]
    fn full_set_evicts_lru_victim() {
        let mut m = map(); // 4 sets, 2 ways; blocks 0,4,8 all map to set 0
        m.insert(0, SlotState::Clean);
        m.insert(4, SlotState::Clean);
        m.touch(0); // 4 becomes LRU
        let outcome = m.insert(8, SlotState::Clean);
        assert_eq!(outcome, InsertOutcome::EvictedClean { victim: 4 });
        assert!(m.contains(0));
        assert!(m.contains(8));
        assert!(!m.contains(4));
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn dirty_victim_is_reported_for_writeback() {
        let mut m = map();
        m.insert(0, SlotState::Dirty);
        m.insert(4, SlotState::Dirty);
        let outcome = m.insert(8, SlotState::Clean);
        assert_eq!(outcome, InsertOutcome::EvictedDirty { victim: 0 });
        assert_eq!(m.dirty_blocks(), 1);
    }

    #[test]
    fn fifo_victims_follow_insertion_order_despite_touches() {
        let mut m = SetAssociativeMap::new(4, 2, ReplacementKind::Fifo);
        m.insert(0, SlotState::Clean);
        m.insert(4, SlotState::Clean);
        m.touch(0); // FIFO ignores the re-access
        let outcome = m.insert(8, SlotState::Clean);
        assert_eq!(outcome, InsertOutcome::EvictedClean { victim: 0 });
    }

    #[test]
    fn mark_dirty_and_clean_round_trip() {
        let mut m = map();
        m.insert(3, SlotState::Clean);
        assert!(m.mark_dirty(3));
        assert_eq!(m.dirty_blocks(), 1);
        assert!(m.mark_clean(3));
        assert_eq!(m.dirty_blocks(), 0);
        assert!(!m.mark_dirty(99));
        assert!(!m.mark_clean(99));
    }

    #[test]
    fn invalidate_removes_and_reports_state() {
        let mut m = map();
        m.insert(5, SlotState::Dirty);
        assert_eq!(m.invalidate(5), Some(SlotState::Dirty));
        assert_eq!(m.invalidate(5), None);
        assert_eq!(m.len(), 0);
        assert_eq!(m.dirty_blocks(), 0);
    }

    #[test]
    fn dirty_candidates_lists_dirty_blocks_up_to_max() {
        let mut m = SetAssociativeMap::new(8, 2, ReplacementKind::Lru);
        for b in 0..6 {
            m.insert(b, SlotState::Dirty);
        }
        let some = m.dirty_candidates(4);
        assert_eq!(some.len(), 4);
        let all = m.dirty_candidates(100);
        assert_eq!(all.len(), 6);
    }

    #[test]
    fn dirty_candidates_into_reuses_the_buffer() {
        let mut m = SetAssociativeMap::new(8, 2, ReplacementKind::Lru);
        for b in 0..6 {
            m.insert(b, SlotState::Dirty);
        }
        let mut buf = vec![99, 98, 97];
        m.dirty_candidates_into(4, &mut buf);
        assert_eq!(buf.len(), 4);
        assert_eq!(buf, m.dirty_candidates(4));
        m.dirty_candidates_into(0, &mut buf);
        assert!(buf.is_empty());
    }

    #[test]
    fn set_mapping_matches_modulo_for_pow2_and_non_pow2() {
        for num_sets in [1usize, 3, 4, 7, 8, 12, 64, 100, 128] {
            let m = SetAssociativeMap::new(num_sets, 2, ReplacementKind::Lru);
            for block in (0u64..256).chain([1 << 33, (1 << 47) + 5, u64::MAX]) {
                assert_eq!(
                    m.set_of(block),
                    (block % num_sets as u64) as usize,
                    "block {block} with {num_sets} sets"
                );
            }
        }
    }

    #[test]
    fn len_never_exceeds_capacity() {
        let mut m = SetAssociativeMap::new(2, 2, ReplacementKind::Fifo);
        for b in 0..100 {
            m.insert(b, SlotState::Clean);
            assert!(m.len() <= m.capacity_blocks());
        }
        assert_eq!(m.len(), m.capacity_blocks());
        assert_eq!(m.blocks().count(), 4);
    }

    #[test]
    fn per_set_dirty_counters_track_global_count() {
        let mut m = SetAssociativeMap::new(4, 4, ReplacementKind::Lru);
        for b in 0..12 {
            m.insert(b, if b % 2 == 0 { SlotState::Dirty } else { SlotState::Clean });
        }
        assert_eq!(m.sets.iter().map(|s| s.dirty as usize).sum::<usize>(), m.dirty_blocks());
        for b in 0..12 {
            m.invalidate(b);
        }
        assert_eq!(m.dirty_blocks(), 0);
        assert!(m.sets.iter().all(|s| s.dirty == 0));
    }

    #[test]
    fn reset_restores_the_freshly_constructed_state() {
        let mut m = SetAssociativeMap::new(4, 2, ReplacementKind::Lru);
        for b in 0..16 {
            m.insert(b, if b % 3 == 0 { SlotState::Dirty } else { SlotState::Clean });
        }
        m.invalidate(9);
        m.reset();
        assert_eq!(m, SetAssociativeMap::new(4, 2, ReplacementKind::Lru));
        assert_eq!(m.len(), 0);
        assert_eq!(m.dirty_blocks(), 0);
        // The reset map behaves like a fresh one.
        assert_eq!(m.insert(0, SlotState::Clean), InsertOutcome::Inserted);
    }

    #[test]
    fn fill_sequential_matches_naive_inserts() {
        for (num_sets, assoc) in [(4usize, 2usize), (7, 3), (1, 8), (128, 4)] {
            for first in [0u64, 1, 5, 512, 513] {
                for replacement in [ReplacementKind::Lru, ReplacementKind::Fifo] {
                    let mut naive = SetAssociativeMap::new(num_sets, assoc, replacement);
                    let cap = naive.capacity_blocks() as u64;
                    for b in first..first + cap {
                        naive.insert(b, SlotState::Clean);
                    }
                    let mut fast = SetAssociativeMap::new(num_sets, assoc, replacement);
                    // Start from a dirtied state to prove the fill is a
                    // complete overwrite.
                    fast.insert(first + 1, SlotState::Dirty);
                    fast.fill_sequential(first);
                    assert_eq!(
                        fast, naive,
                        "fill_sequential({first}) diverged for {num_sets}x{assoc} {replacement:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn slot_addressed_ops_match_block_addressed_ones() {
        let mut by_block = SetAssociativeMap::new(4, 2, ReplacementKind::Lru);
        let mut by_slot = by_block.clone();
        for b in [0u64, 4, 1, 5, 2] {
            by_block.insert(b, SlotState::Clean);
            by_slot.insert(b, SlotState::Clean);
        }
        assert_eq!(by_slot.locate(9), None);

        let slot = by_slot.locate(4).expect("block 4 cached");
        assert_eq!(by_slot.state_at(slot), SlotState::Clean);
        by_block.touch(4);
        by_slot.touch_at(slot);
        assert_eq!(by_slot, by_block);

        by_block.mark_dirty(4);
        by_slot.mark_dirty_at(slot);
        assert_eq!(by_slot, by_block);
        // Marking an already-dirty slot is a no-op, as with mark_dirty.
        by_slot.mark_dirty_at(slot);
        assert_eq!(by_slot, by_block);
        assert_eq!(by_slot.state_at(slot), SlotState::Dirty);

        assert_eq!(by_block.invalidate(4), Some(SlotState::Dirty));
        assert_eq!(by_slot.invalidate_at(slot), SlotState::Dirty);
        assert_eq!(by_slot, by_block);
    }

    #[test]
    fn snap_round_trip_preserves_contents_recency_and_counters() {
        for replacement in [ReplacementKind::Lru, ReplacementKind::Fifo] {
            let mut m = SetAssociativeMap::new(4, 2, replacement);
            for b in 0..16u64 {
                m.insert(b, if b % 3 == 0 { SlotState::Dirty } else { SlotState::Clean });
            }
            m.touch(9);
            m.invalidate(10);

            let mut w = SnapWriter::new();
            m.snap_to(&mut w);
            let bytes = w.into_bytes();
            let mut r = SnapReader::new(&bytes);
            let restored = SetAssociativeMap::snap_from(&mut r).unwrap();
            r.finish().unwrap();
            assert_eq!(restored, m);

            // The restored map makes the same eviction decision next.
            let mut a = m.clone();
            let mut b = restored;
            assert_eq!(a.insert(100, SlotState::Clean), b.insert(100, SlotState::Clean));
            assert_eq!(a, b);
        }
    }

    #[test]
    fn snap_from_rejects_out_of_range_links() {
        let m = map();
        let mut w = SnapWriter::new();
        m.snap_to(&mut w);
        let mut bytes = w.into_bytes();
        // Corrupt slot 0's `next` link (after 2×usize geometry + tag byte +
        // slot 0's 8-byte tag + 1-byte meta) to a non-NIL out-of-range index.
        let next_off = 8 + 8 + 1 + 8 + 1;
        bytes[next_off..next_off + 4].copy_from_slice(&1_000u32.to_le_bytes());
        let mut r = SnapReader::new(&bytes);
        assert_eq!(
            SetAssociativeMap::snap_from(&mut r),
            Err(SnapError::Corrupt("recency link out of range"))
        );
    }

    #[test]
    fn display_is_informative() {
        let mut m = map();
        m.insert(1, SlotState::Dirty);
        let s = m.to_string();
        assert!(s.contains("1/8"));
        assert!(s.contains("1 dirty"));
    }
}
