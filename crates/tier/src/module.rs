//! The datapath tiered cache module.

use serde::{Deserialize, Serialize};

use lbica_cache::{CacheStats, InsertOutcome, SetAssociativeMap, SlotState, WritePolicy};
use lbica_storage::block::{BlockRange, Lba, BLOCK_SECTORS};
use lbica_storage::request::{IoRequest, RequestKind, RequestOrigin};

use crate::config::{DemotionPolicy, InclusionPolicy, PromotionPolicy, TierTopology};
use crate::outcome::{TierTarget, TieredOp, TieredOutcome};

/// Inter-tier data-movement counters for one level.
///
/// `promotions_in` counts *block moves* and is distinct from
/// [`CacheStats::promotes`], which counts Promote-class *operations
/// emitted* (read-miss fills and read-hit promotions; a write-hit
/// promotion moves the block but its data travels on the application
/// write itself, so no Promote op — and no `promotes` increment — exists
/// for it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct TierMovement {
    /// Blocks moved up into this level by promotion-on-hit.
    pub promotions_in: u64,
    /// Blocks demoted into this level from the level above.
    pub demotions_in: u64,
    /// Blocks demoted out of this level into the level below.
    pub demotions_out: u64,
    /// Reclassified application writes the load balancer spilled into this
    /// level.
    pub spills_in: u64,
    /// Reclassified application reads the load balancer spilled into this
    /// level.
    pub read_spills_in: u64,
    /// Copies this level dropped because the backing copy below it was
    /// evicted (inclusive hierarchies only).
    pub back_invalidations: u64,
}

/// An N-level generalization of [`lbica_cache::CacheModule`]: a stack of
/// set-associative maps (hot tier first), each governed by its own
/// [`WritePolicy`], with configurable fill placement, promotion-on-hit,
/// demotion-on-eviction and inclusion.
///
/// Under [`InclusionPolicy::Exclusive`] (the default) a block resides in
/// exactly one level at a time; [`InclusionPolicy::Inclusive`] lets
/// promotions copy instead of move, with back-invalidation keeping upper
/// copies coherent with their backing level. A single-level instance is
/// bit-identical to the flat cache module — same derived operations in the
/// same order, same statistics — which the `flat_equivalence` property
/// suite pins.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TieredCacheModule {
    topology: TierTopology,
    maps: Vec<SetAssociativeMap>,
    stats: Vec<CacheStats>,
    movement: Vec<TierMovement>,
    /// Deferred movement deltas accumulated since the last
    /// [`TieredCacheModule::commit_moves`]: the hot paths batch their
    /// metadata-move bookkeeping here and the simulator folds the buffer
    /// into `movement` in one pass per interval.
    /// [`TieredCacheModule::movement`] always reports committed + pending,
    /// so the deferral is observationally invisible.
    pending: Vec<TierMovement>,
    policies: Vec<WritePolicy>,
    /// Whether the *configured* per-level policies were uniform: decides
    /// whether the single policy knob drives the whole stack (the paper's
    /// semantics) or the hot tier only (config-pinned lower levels).
    configured_uniform: bool,
}

impl TieredCacheModule {
    /// Builds a hierarchy from a topology. Every level's write policy
    /// starts as its spec's `initial_policy`.
    ///
    /// # Panics
    ///
    /// Panics if the topology has no levels.
    pub fn new(topology: TierTopology) -> Self {
        assert!(!topology.is_empty(), "a tiered cache needs at least one level");
        let maps = topology
            .levels()
            .map(|l| {
                SetAssociativeMap::new(l.cache.num_sets, l.cache.associativity, l.cache.replacement)
            })
            .collect::<Vec<_>>();
        let n = maps.len();
        let policies: Vec<WritePolicy> =
            topology.levels().map(|l| l.cache.initial_policy).collect();
        TieredCacheModule {
            configured_uniform: policies.iter().all(|&p| p == policies[0]),
            policies,
            maps,
            stats: vec![CacheStats::default(); n],
            movement: vec![TierMovement::default(); n],
            pending: vec![TierMovement::default(); n],
            topology,
        }
    }

    /// The topology this hierarchy was built from.
    pub const fn topology(&self) -> &TierTopology {
        &self.topology
    }

    /// Number of cache levels.
    pub fn levels(&self) -> usize {
        self.maps.len()
    }

    /// The hot tier's current write policy — the policy every headline
    /// report label and flat-path comparison is judged against.
    pub fn policy(&self) -> WritePolicy {
        self.policies[0]
    }

    /// Applies the paper's single policy knob, effective for subsequent
    /// accesses. A hierarchy whose *configured* per-level policies are
    /// uniform defers wholly to the controller — every level switches,
    /// exactly the pre-per-tier semantics all existing controllers rely
    /// on. A hierarchy configured with explicit per-level differences (the
    /// per-tier write-policy axis) treats its lower levels as
    /// config-pinned: the single knob drives the hot tier only, and only
    /// [`TieredCacheModule::set_level_policies`] /
    /// [`TieredCacheModule::set_level_policy`] can change the rest.
    ///
    /// The uniformity of the *configured* topology is the discriminator,
    /// so a stack explicitly configured uniform (even to a non-default
    /// policy) still defers to the controller — the price of keeping every
    /// pre-per-tier configuration bit-identical. To pin lower levels,
    /// configure them differently from the hot tier.
    pub fn set_policy(&mut self, policy: WritePolicy) {
        if self.configured_uniform {
            self.policies.fill(policy);
        } else {
            self.policies[0] = policy;
        }
    }

    /// The write policy currently governing level `level`.
    ///
    /// A write is judged by the policy of the level that owns the block
    /// (its residency level, or the hot tier for a miss); a read-miss fill
    /// is promoted or skipped per the placement level's policy.
    pub fn level_policy(&self, level: usize) -> WritePolicy {
        self.policies[level]
    }

    /// Assigns a new write policy to a single level.
    pub fn set_level_policy(&mut self, level: usize, policy: WritePolicy) {
        self.policies[level] = policy;
    }

    /// Assigns per-level write policies, hot tier first.
    ///
    /// # Panics
    ///
    /// Panics if `policies` does not hold exactly one entry per level.
    pub fn set_level_policies(&mut self, policies: &[WritePolicy]) {
        assert_eq!(policies.len(), self.policies.len(), "one write policy per cache level");
        self.policies.copy_from_slice(policies);
    }

    /// The per-level write policies, hot tier first.
    pub fn level_policies(&self) -> &[WritePolicy] {
        &self.policies
    }

    /// Cumulative statistics of level `level`.
    pub fn stats(&self, level: usize) -> &CacheStats {
        &self.stats[level]
    }

    /// Inter-tier movement counters of level `level`: the committed
    /// counters plus any deltas still sitting in the deferred-move buffer,
    /// so the view is exact at any point between
    /// [`TieredCacheModule::commit_moves`] calls.
    pub fn movement(&self, level: usize) -> TierMovement {
        let base = &self.movement[level];
        let delta = &self.pending[level];
        TierMovement {
            promotions_in: base.promotions_in + delta.promotions_in,
            demotions_in: base.demotions_in + delta.demotions_in,
            demotions_out: base.demotions_out + delta.demotions_out,
            spills_in: base.spills_in + delta.spills_in,
            read_spills_in: base.read_spills_in + delta.read_spills_in,
            back_invalidations: base.back_invalidations + delta.back_invalidations,
        }
    }

    /// Folds the deferred-move buffer into the committed movement counters
    /// in one pass and clears it. The simulator calls this once per
    /// monitoring interval; because [`TieredCacheModule::movement`] always
    /// reports committed + pending, calling it earlier or later never
    /// changes an observable number.
    pub fn commit_moves(&mut self) {
        for (base, delta) in self.movement.iter_mut().zip(self.pending.iter_mut()) {
            base.promotions_in += delta.promotions_in;
            base.demotions_in += delta.demotions_in;
            base.demotions_out += delta.demotions_out;
            base.spills_in += delta.spills_in;
            base.read_spills_in += delta.read_spills_in;
            base.back_invalidations += delta.back_invalidations;
            *delta = TierMovement::default();
        }
    }

    /// Number of blocks currently cached at `level`.
    pub fn cached_blocks(&self, level: usize) -> usize {
        self.maps[level].len()
    }

    /// Number of dirty blocks currently held at `level`.
    pub fn dirty_blocks(&self, level: usize) -> usize {
        self.maps[level].dirty_blocks()
    }

    /// Total block capacity across every level.
    pub fn capacity_blocks(&self) -> usize {
        self.maps.iter().map(|m| m.capacity_blocks()).sum()
    }

    /// The level currently holding `block`, if any.
    pub fn resident_level(&self, block: u64) -> Option<usize> {
        (0..self.maps.len()).find(|&i| self.maps[i].contains(block))
    }

    fn block_range(block: u64) -> BlockRange {
        BlockRange::new(Lba::new(block * BLOCK_SECTORS), BLOCK_SECTORS)
    }

    /// Pushes one application request through the hierarchy and returns the
    /// derived station operations under the current policy.
    pub fn access(&mut self, request: &IoRequest) -> TieredOutcome {
        let mut outcome = TieredOutcome::new();
        self.access_into(request, &mut outcome);
        outcome
    }

    /// [`TieredCacheModule::access`] into a caller-owned outcome, clearing
    /// it first — the allocation-free hot path for simulator event loops.
    pub fn access_into(&mut self, request: &IoRequest, outcome: &mut TieredOutcome) {
        debug_assert_eq!(
            request.origin(),
            RequestOrigin::Application,
            "only application requests enter the tiered cache module"
        );
        outcome.clear();
        let mut any_miss = false;
        let mut any_hit = false;

        for block in request.range().block_indices() {
            let hit = match request.kind() {
                RequestKind::Read => self.handle_read_block(block, outcome),
                RequestKind::Write => self.handle_write_block(block, outcome),
            };
            if hit {
                any_hit = true;
            } else {
                any_miss = true;
            }
        }

        match request.kind() {
            RequestKind::Read => outcome.set_read_hit(any_hit && !any_miss),
            RequestKind::Write => outcome.set_write_hit(any_hit && !any_miss),
        }
        let disk_in_datapath = outcome
            .ops()
            .iter()
            .any(|op| op.target == TierTarget::Disk && op.origin == RequestOrigin::Application);
        outcome.set_served_by_cache(!disk_in_datapath);
    }

    /// Locates the topmost level holding `block` together with its slot
    /// handle, without a recency update — one tag scan per level, reused by
    /// every subsequent operation on the hit instead of re-finding the
    /// block.
    fn locate_resident(&self, block: u64) -> Option<(usize, u32)> {
        for level in 0..self.maps.len() {
            if let Some(slot) = self.maps[level].locate(block) {
                return Some((level, slot));
            }
        }
        None
    }

    /// Handles one block of an application read. Returns `true` on hit.
    ///
    /// Hits are resolved through one slot-handle lookup per level: the
    /// recency touch, the exclusive-promotion invalidate and the dirty-state
    /// read all reuse the located slot instead of re-scanning the set.
    fn handle_read_block(&mut self, block: u64, outcome: &mut TieredOutcome) -> bool {
        let range = Self::block_range(block);
        if let Some((level, slot)) = self.locate_resident(block) {
            self.stats[level].read_hits += 1;
            outcome.note_hit_level(level);
            outcome.push(TieredOp::new(
                TierTarget::Level(level),
                RequestKind::Read,
                RequestOrigin::Application,
                range,
            ));
            if level > 0 && self.topology.promotion == PromotionPolicy::OnHit {
                let state = match self.topology.inclusion {
                    // Exclusive: the block *moves* up, carrying its state.
                    // No touch precedes the invalidate: splicing a slot to
                    // the hot end and then unlinking it leaves the same
                    // recency list as unlinking it directly.
                    InclusionPolicy::Exclusive => self.maps[level].invalidate_at(slot),
                    // Inclusive: the lower line stays resident (and keeps
                    // ownership of any dirty data); the hot tier gets a
                    // clean copy.
                    InclusionPolicy::Inclusive => {
                        self.maps[level].touch_at(slot);
                        SlotState::Clean
                    }
                };
                self.insert_cascading(0, block, state, outcome);
                self.pending[0].promotions_in += 1;
                self.stats[0].promotes += 1;
                outcome.push(TieredOp::new(
                    TierTarget::Level(0),
                    RequestKind::Write,
                    RequestOrigin::Promote,
                    range,
                ));
            } else {
                self.maps[level].touch_at(slot);
            }
            return true;
        }

        // Miss at every level: the disk subsystem supplies the data...
        self.stats[0].read_misses += 1;
        outcome.push(TieredOp::new(
            TierTarget::Disk,
            RequestKind::Read,
            RequestOrigin::Application,
            range,
        ));

        // ...and, the placement level's policy permitting, the block is
        // installed there.
        let place = self.topology.placement_level();
        if self.policies[place].promotes_read_misses() {
            self.insert_cascading(place, block, SlotState::Clean, outcome);
            self.stats[place].promotes += 1;
            outcome.push(TieredOp::new(
                TierTarget::Level(place),
                RequestKind::Write,
                RequestOrigin::Promote,
                range,
            ));
        } else {
            self.stats[0].unpromoted_read_misses += 1;
        }
        false
    }

    /// Handles one block of an application write. Returns `true` when the
    /// write is absorbed by the hierarchy.
    ///
    /// The write is judged by the policy of the level that owns the block:
    /// its residency level for a hit, the hot tier for a miss. With uniform
    /// per-level policies (every pre-PR configuration) this is exactly the
    /// old shared-policy behaviour.
    fn handle_write_block(&mut self, block: u64, outcome: &mut TieredOutcome) -> bool {
        let range = Self::block_range(block);
        let resident = self.locate_resident(block);
        let policy = self.policies[resident.map_or(0, |(level, _)| level)];

        if !policy.buffers_writes() {
            // Read-only cache: the write bypasses to the disk subsystem and
            // any cached copy becomes stale.
            self.stats[0].write_bypasses += 1;
            self.stats[0].write_misses += 1;
            if let Some((level, slot)) = resident {
                self.drop_copies_from_at(level, slot, block);
            }
            outcome.push(TieredOp::new(
                TierTarget::Disk,
                RequestKind::Write,
                RequestOrigin::Application,
                range,
            ));
            return false;
        }

        // Write is absorbed by the hierarchy (WB, WT or WO): write-allocate.
        match resident {
            Some((level, _)) => self.stats[level].write_hits += 1,
            None => self.stats[0].write_misses += 1,
        }
        let state = if policy.leaves_dirty_blocks() { SlotState::Dirty } else { SlotState::Clean };
        let target = match resident {
            Some((level, slot))
                if level > 0 && self.topology.promotion == PromotionPolicy::OnHit =>
            {
                let merged = match self.topology.inclusion {
                    // Exclusive: the write overwrites the block, so it
                    // moves to the hot tier carrying the dirtier of its
                    // old and new states.
                    InclusionPolicy::Exclusive => {
                        let old = self.maps[level].invalidate_at(slot);
                        if old == SlotState::Dirty {
                            SlotState::Dirty
                        } else {
                            state
                        }
                    }
                    // Inclusive: the lower line stays resident with its
                    // old state; the hot tier absorbs the new data.
                    InclusionPolicy::Inclusive => state,
                };
                self.insert_cascading(0, block, merged, outcome);
                self.pending[0].promotions_in += 1;
                outcome.note_hit_level(level);
                0
            }
            Some((level, slot)) => {
                // In-place write: refresh recency and upgrade the state via
                // the located slot — what an `insert` of a present block
                // would do, without its tag scan (`state` is `Dirty` iff the
                // policy leaves dirty blocks).
                self.maps[level].touch_at(slot);
                if policy.leaves_dirty_blocks() {
                    self.maps[level].mark_dirty_at(slot);
                }
                outcome.note_hit_level(level);
                level
            }
            None => {
                self.insert_cascading(0, block, state, outcome);
                0
            }
        };

        outcome.push(TieredOp::new(
            TierTarget::Level(target),
            RequestKind::Write,
            RequestOrigin::Application,
            range,
        ));

        if policy.writes_through() {
            outcome.push(TieredOp::new(
                TierTarget::Disk,
                RequestKind::Write,
                RequestOrigin::Application,
                range,
            ));
        }
        true
    }

    /// Invalidates every copy of `block` at `level` and (inclusive
    /// hierarchies) below it, counting one invalidation per dropped copy.
    /// The topmost copy is removed through its already-located slot handle.
    fn drop_copies_from_at(&mut self, level: usize, slot: u32, block: u64) {
        self.maps[level].invalidate_at(slot);
        self.stats[level].invalidations += 1;
        if self.topology.inclusion == InclusionPolicy::Inclusive {
            for lower in level + 1..self.maps.len() {
                if self.maps[lower].invalidate(block).is_some() {
                    self.stats[lower].invalidations += 1;
                }
            }
        }
    }

    /// Installs `block` at `level`, cascading any evicted victims down the
    /// hierarchy per the demotion policy and emitting the data-movement
    /// operations (always *before* the caller pushes the op that triggered
    /// the install, matching the flat module's eviction-before-write order).
    fn insert_cascading(
        &mut self,
        level: usize,
        block: u64,
        state: SlotState,
        outcome: &mut TieredOutcome,
    ) {
        let mut lvl = level;
        let mut pending = Some((block, state));
        while let Some((blk, st)) = pending.take() {
            match self.maps[lvl].insert(blk, st) {
                InsertOutcome::Inserted => {}
                InsertOutcome::AlreadyPresent => {
                    if st == SlotState::Dirty {
                        self.maps[lvl].mark_dirty(blk);
                    }
                }
                InsertOutcome::EvictedDirty { victim } => {
                    pending = self.handle_eviction(lvl, victim, SlotState::Dirty, outcome);
                }
                InsertOutcome::EvictedClean { victim } => {
                    pending = self.handle_eviction(lvl, victim, SlotState::Clean, outcome);
                }
            }
            lvl += 1;
        }
    }

    /// Emits the operations for a victim evicted from `from`. Returns the
    /// `(block, state)` to install one level down when the victim cascades.
    fn handle_eviction(
        &mut self,
        from: usize,
        victim: u64,
        state: SlotState,
        outcome: &mut TieredOutcome,
    ) -> Option<(u64, SlotState)> {
        let range = Self::block_range(victim);
        // Inclusive hierarchies back-invalidate: a level may not cache a
        // block its backing tier has dropped, so copies above the evicting
        // level go with the victim. A dirty upper copy holds the freshest
        // data — its dirtiness transfers to the victim so the data still
        // cascades or writes back rather than being silently lost.
        let mut state = state;
        if self.topology.inclusion == InclusionPolicy::Inclusive {
            for upper in 0..from {
                if let Some(upper_state) = self.maps[upper].invalidate(victim) {
                    self.pending[upper].back_invalidations += 1;
                    self.stats[upper].invalidations += 1;
                    outcome.note_back_invalidation();
                    if upper_state == SlotState::Dirty {
                        state = SlotState::Dirty;
                    }
                }
            }
        }
        let last = from + 1 == self.maps.len();
        let cascades = !last
            && match (self.topology.demotion, state) {
                (DemotionPolicy::None, _) => false,
                (DemotionPolicy::DirtyCascade, SlotState::Clean) => false,
                (DemotionPolicy::DirtyCascade, SlotState::Dirty) => true,
                (DemotionPolicy::Cascade, _) => true,
            };
        if cascades {
            match state {
                SlotState::Dirty => self.stats[from].dirty_evictions += 1,
                SlotState::Clean => self.stats[from].clean_evictions += 1,
            }
            self.pending[from].demotions_out += 1;
            self.pending[from + 1].demotions_in += 1;
            // Reading the victim off its level and writing it one level
            // down: both legs carry the Evict class.
            outcome.push(TieredOp::new(
                TierTarget::Level(from),
                RequestKind::Read,
                RequestOrigin::Evict,
                range,
            ));
            outcome.push(TieredOp::new(
                TierTarget::Level(from + 1),
                RequestKind::Write,
                RequestOrigin::Evict,
                range,
            ));
            return Some((victim, state));
        }
        match state {
            SlotState::Dirty => {
                // Flat-cache behaviour: dirty victims write back to the
                // disk subsystem (SSD read + disk write, Evict class).
                self.stats[from].dirty_evictions += 1;
                outcome.push(TieredOp::new(
                    TierTarget::Level(from),
                    RequestKind::Read,
                    RequestOrigin::Evict,
                    range,
                ));
                outcome.push(TieredOp::new(
                    TierTarget::Disk,
                    RequestKind::Write,
                    RequestOrigin::Evict,
                    range,
                ));
            }
            SlotState::Clean => {
                self.stats[from].clean_evictions += 1;
            }
        }
        None
    }

    /// Absorbs a load-balancer spill: a queued application write pulled off
    /// the hot tier's queue is re-homed at `level`. The block's metadata
    /// moves with it (dirty under dirty-leaving policies); any demotions
    /// the installation causes are emitted into `outcome`.
    ///
    /// # Panics
    ///
    /// Panics if `level` is 0 (spills always move *down* the hierarchy) or
    /// out of bounds.
    pub fn absorb_spill(&mut self, block: u64, level: usize, outcome: &mut TieredOutcome) {
        assert!(level > 0 && level < self.maps.len(), "spill target must be a lower level");
        let removed_dirty = self.remove_all_copies(block);
        // The queued write is absorbed at `level`, so the target level's
        // policy decides whether the re-homed block is dirty.
        let state = if removed_dirty == Some(SlotState::Dirty)
            || self.policies[level].leaves_dirty_blocks()
        {
            SlotState::Dirty
        } else {
            SlotState::Clean
        };
        self.insert_cascading(level, block, state, outcome);
        self.pending[level].spills_in += 1;
    }

    /// Absorbs a load-balancer *read* spill: a queued application read
    /// pulled off the hot tier's queue is served from — and its block
    /// re-homed at — `level`, the tiered analogue of the paper's Group-2
    /// action. Unlike a write spill the block carries no new data, so it
    /// keeps its current dirty state (or installs clean if the metadata
    /// already aged out of the hierarchy).
    ///
    /// # Panics
    ///
    /// Panics if `level` is 0 (spills always move *down* the hierarchy) or
    /// out of bounds.
    pub fn absorb_read_spill(&mut self, block: u64, level: usize, outcome: &mut TieredOutcome) {
        assert!(level > 0 && level < self.maps.len(), "spill target must be a lower level");
        let state = self.remove_all_copies(block).unwrap_or(SlotState::Clean);
        self.insert_cascading(level, block, state, outcome);
        self.pending[level].read_spills_in += 1;
    }

    /// Pulls `block` out of *every* level holding it — not just the levels
    /// above a spill target: by the time a queued request is spilled, later
    /// accesses may already have demoted its metadata below the target, and
    /// a leftover copy would break the one-owner invariant (and, inclusive
    /// hierarchies aside, shadow the re-homed line). Returns the dirtiest
    /// removed state, `None` if no copy existed.
    fn remove_all_copies(&mut self, block: u64) -> Option<SlotState> {
        let mut dirtiest = None;
        while let Some(level) = self.resident_level(block) {
            let state = self.maps[level].invalidate(block).expect("resident level holds the block");
            if dirtiest != Some(SlotState::Dirty) {
                dirtiest = Some(state);
            }
        }
        dirtiest
    }

    /// Invalidates a cached block wherever it resides (e.g. because a
    /// controller bypassed the write that would have updated it to the disk
    /// subsystem), returning its topmost copy's previous state if it was
    /// cached. Inclusive hierarchies drop every copy.
    pub fn invalidate_block(&mut self, block: u64) -> Option<SlotState> {
        let level = self.resident_level(block)?;
        let state = self.maps[level].invalidate(block);
        if state.is_some() {
            self.stats[level].invalidations += 1;
        }
        if self.topology.inclusion == InclusionPolicy::Inclusive {
            while let Some(lower) = self.resident_level(block) {
                self.maps[lower].invalidate(block);
                self.stats[lower].invalidations += 1;
            }
        }
        state
    }

    /// Pre-populates every level to capacity with clean blocks (level 0
    /// holds blocks `0..cap0`, level 1 the next `cap1`, and so on) without
    /// touching the statistics — the tiered analogue of the flat module's
    /// warm-up skip. Each level is filled through the map's sequential fast
    /// fill (a complete overwrite equivalent to inserting its block range in
    /// ascending order), so warming a large hierarchy costs one linear pass
    /// instead of a tag scan per block.
    pub fn prewarm_to_capacity(&mut self) {
        let mut next = 0u64;
        for map in &mut self.maps {
            map.fill_sequential(next);
            next += map.capacity_blocks() as u64;
        }
    }

    /// Restores the hierarchy to its freshly constructed state in place: the
    /// slot arenas keep their allocations, every counter (committed and
    /// deferred) is zeroed and the per-level policies return to their
    /// configured initial values. Observationally equivalent to
    /// `TieredCacheModule::new(*self.topology())` — the arena-reuse fast
    /// path.
    pub fn reset(&mut self) {
        for map in &mut self.maps {
            map.reset();
        }
        for stats in &mut self.stats {
            *stats = CacheStats::default();
        }
        for movement in &mut self.movement {
            *movement = TierMovement::default();
        }
        for delta in &mut self.pending {
            *delta = TierMovement::default();
        }
        for (policy, spec) in self.policies.iter_mut().zip(self.topology.levels()) {
            *policy = spec.cache.initial_policy;
        }
    }

    /// Pre-populates the *hot tier* with clean copies of the given blocks
    /// without touching the statistics (the flat module's `prewarm`).
    pub fn prewarm<I: IntoIterator<Item = u64>>(&mut self, blocks: I) {
        for block in blocks {
            let _ = self.maps[0].insert(block, SlotState::Clean);
        }
    }

    /// Serializes the hierarchy — per-level maps, statistics, movement
    /// counters (committed and deferred) and active policies — for a replay
    /// checkpoint. The topology is rebuilt from the simulation config on
    /// resume, not stored.
    pub fn snap_to(&self, w: &mut lbica_storage::snap::SnapWriter) {
        w.put_usize(self.maps.len());
        for level in 0..self.maps.len() {
            self.maps[level].snap_to(w);
            self.stats[level].snap_to(w);
            for m in [&self.movement[level], &self.pending[level]] {
                w.put_u64(m.promotions_in);
                w.put_u64(m.demotions_in);
                w.put_u64(m.demotions_out);
                w.put_u64(m.spills_in);
                w.put_u64(m.read_spills_in);
                w.put_u64(m.back_invalidations);
            }
            w.put_u8(match self.policies[level] {
                WritePolicy::WriteBack => 0,
                WritePolicy::WriteThrough => 1,
                WritePolicy::ReadOnly => 2,
                WritePolicy::WriteOnly => 3,
            });
        }
    }

    /// Restores state serialized by [`TieredCacheModule::snap_to`] into a
    /// hierarchy already built from the original topology.
    pub fn snap_state_from(
        &mut self,
        r: &mut lbica_storage::snap::SnapReader<'_>,
    ) -> Result<(), lbica_storage::snap::SnapError> {
        use lbica_storage::snap::SnapError;
        let levels = r.get_usize()?;
        if levels != self.maps.len() {
            return Err(SnapError::Corrupt("tier level count mismatch"));
        }
        for level in 0..levels {
            let map = SetAssociativeMap::snap_from(r)?;
            if !map.same_geometry(&self.maps[level]) {
                return Err(SnapError::Corrupt("tier geometry mismatch"));
            }
            self.maps[level] = map;
            self.stats[level] = CacheStats::snap_from(r)?;
            for dest in [0usize, 1] {
                let m = TierMovement {
                    promotions_in: r.get_u64()?,
                    demotions_in: r.get_u64()?,
                    demotions_out: r.get_u64()?,
                    spills_in: r.get_u64()?,
                    read_spills_in: r.get_u64()?,
                    back_invalidations: r.get_u64()?,
                };
                if dest == 0 {
                    self.movement[level] = m;
                } else {
                    self.pending[level] = m;
                }
            }
            self.policies[level] = match r.get_u8()? {
                0 => WritePolicy::WriteBack,
                1 => WritePolicy::WriteThrough,
                2 => WritePolicy::ReadOnly,
                3 => WritePolicy::WriteOnly,
                _ => return Err(SnapError::Corrupt("write policy tag")),
            };
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{PlacementPolicy, TierLevelSpec};
    use lbica_cache::{CacheConfig, ReplacementKind};
    use lbica_storage::device::SsdConfig;
    use lbica_storage::request::RequestClass;

    fn spec(num_sets: usize, associativity: usize) -> TierLevelSpec {
        TierLevelSpec::new(
            CacheConfig {
                num_sets,
                associativity,
                replacement: ReplacementKind::Lru,
                initial_policy: WritePolicy::WriteBack,
            },
            SsdConfig::samsung_863a(),
            1,
        )
    }

    fn two_level() -> TieredCacheModule {
        TieredCacheModule::new(TierTopology::two_level(spec(2, 2), spec(4, 2)))
    }

    fn read(id: u64, sector: u64) -> IoRequest {
        IoRequest::new(id, RequestKind::Read, RequestOrigin::Application, sector, 8)
    }

    fn write(id: u64, sector: u64) -> IoRequest {
        IoRequest::new(id, RequestKind::Write, RequestOrigin::Application, sector, 8)
    }

    #[test]
    fn miss_fills_the_hot_tier_and_hits_there() {
        let mut cache = two_level();
        let miss = cache.access(&read(1, 0));
        assert!(!miss.read_hit());
        assert_eq!(miss.disk_ops().len(), 1);
        assert_eq!(miss.level_ops(0).len(), 1);
        assert_eq!(miss.level_ops(0)[0].class(), RequestClass::Promote);
        let hit = cache.access(&read(2, 0));
        assert!(hit.read_hit());
        assert_eq!(hit.hit_level(), Some(0));
        assert!(hit.served_by_cache());
        assert_eq!(cache.stats(0).read_hits, 1);
        assert_eq!(cache.stats(0).read_misses, 1);
    }

    #[test]
    fn hot_tier_eviction_demotes_into_the_warm_tier() {
        let mut cache = two_level();
        // Hot tier: 2 sets x 2 ways. Blocks 0 and 2 fill set 0; block 4
        // maps to the same set and forces a dirty eviction of block 0.
        cache.access(&write(1, 0));
        cache.access(&write(2, 2 * 8));
        let out = cache.access(&write(3, 4 * 8));
        let evict_ops: Vec<_> =
            out.ops().iter().filter(|op| op.class() == RequestClass::Evict).collect();
        assert_eq!(evict_ops.len(), 2, "demotion is a level-0 read + level-1 write");
        assert_eq!(evict_ops[0].target, TierTarget::Level(0));
        assert_eq!(evict_ops[1].target, TierTarget::Level(1));
        assert_eq!(cache.movement(0).demotions_out, 1);
        assert_eq!(cache.movement(1).demotions_in, 1);
        assert_eq!(cache.cached_blocks(1), 1);
        assert_eq!(cache.dirty_blocks(1), 1, "the demoted block stays dirty");
    }

    #[test]
    fn warm_tier_hit_promotes_back_to_the_hot_tier() {
        let mut cache = two_level();
        for i in 0..4u64 {
            cache.access(&write(i, i * 2 * 8)); // fill set 0, demoting block 0
        }
        assert_eq!(cache.resident_level(0), Some(1));
        let hit = cache.access(&read(10, 0));
        assert!(hit.read_hit());
        assert_eq!(hit.hit_level(), Some(1));
        // The hit is served at level 1, then the block moves up (with a
        // promote write at level 0 and a demotion of level 0's victim).
        assert_eq!(hit.level_ops(1)[0].kind, RequestKind::Read);
        assert!(hit.level_ops(0).iter().any(|op| op.class() == RequestClass::Promote));
        assert_eq!(cache.resident_level(0), Some(0));
        assert_eq!(cache.movement(0).promotions_in, 1);
        assert_eq!(cache.dirty_blocks(0) + cache.dirty_blocks(1), 4, "dirty state survives moves");
    }

    #[test]
    fn promotion_never_serves_hits_in_place() {
        let topo =
            TierTopology::two_level(spec(2, 2), spec(4, 2)).with_promotion(PromotionPolicy::Never);
        let mut cache = TieredCacheModule::new(topo);
        for i in 0..4u64 {
            cache.access(&write(i, i * 2 * 8));
        }
        assert_eq!(cache.resident_level(0), Some(1));
        let hit = cache.access(&read(10, 0));
        assert!(hit.read_hit());
        assert_eq!(cache.resident_level(0), Some(1), "block stays in the warm tier");
        assert_eq!(cache.movement(0).promotions_in, 0);
    }

    #[test]
    fn cold_placement_installs_fills_in_the_last_level() {
        let topo = TierTopology::two_level(spec(2, 2), spec(4, 2))
            .with_placement(PlacementPolicy::ColdTier);
        let mut cache = TieredCacheModule::new(topo);
        let miss = cache.access(&read(1, 0));
        assert_eq!(miss.level_ops(1).len(), 1, "the fill lands in the cold tier");
        assert_eq!(cache.resident_level(0), Some(1));
        assert_eq!(cache.stats(1).promotes, 1);
    }

    #[test]
    fn last_level_dirty_eviction_writes_back_to_disk() {
        let mut cache = TieredCacheModule::new(TierTopology::single(spec(1, 2)));
        cache.access(&write(1, 0));
        cache.access(&write(2, 8));
        let out = cache.access(&write(3, 16));
        let evict_targets: Vec<TierTarget> = out
            .ops()
            .iter()
            .filter(|op| op.class() == RequestClass::Evict)
            .map(|op| op.target)
            .collect();
        assert_eq!(evict_targets, vec![TierTarget::Level(0), TierTarget::Disk]);
        assert_eq!(cache.stats(0).dirty_evictions, 1);
    }

    #[test]
    fn dirty_cascade_drops_clean_victims() {
        let topo = TierTopology::two_level(spec(1, 1), spec(2, 2))
            .with_promotion(PromotionPolicy::Never)
            .with_demotion(DemotionPolicy::DirtyCascade);
        let mut cache = TieredCacheModule::new(topo);
        cache.access(&read(1, 0)); // clean fill of block 0
        let out = cache.access(&read(2, 8)); // evicts clean block 0
        assert!(out.ops().iter().all(|op| op.class() != RequestClass::Evict));
        assert_eq!(cache.stats(0).clean_evictions, 1);
        assert_eq!(cache.movement(1).demotions_in, 0);
        // A dirty victim does cascade.
        cache.access(&write(3, 16));
        let out = cache.access(&write(4, 24));
        assert!(out.ops().iter().any(|op| op.class() == RequestClass::Evict));
        assert_eq!(cache.movement(1).demotions_in, 1);
    }

    #[test]
    fn absorb_spill_rehomes_the_block_dirty() {
        let mut cache = two_level();
        cache.access(&write(1, 0));
        assert_eq!(cache.resident_level(0), Some(0));
        let mut outcome = TieredOutcome::new();
        cache.absorb_spill(0, 1, &mut outcome);
        assert_eq!(cache.resident_level(0), Some(1));
        assert_eq!(cache.dirty_blocks(1), 1);
        assert_eq!(cache.movement(1).spills_in, 1);
    }

    #[test]
    fn absorb_spill_never_duplicates_a_block_resident_below_the_target() {
        // Three levels; block 0 is demoted all the way to level 2, then a
        // stale queued write for it is spilled with target level 1. The
        // level-2 copy must move, not be shadowed: exactly one resident
        // level afterwards.
        let topo = TierTopology::three_level(spec(1, 1), spec(1, 1), spec(4, 2))
            .with_promotion(PromotionPolicy::Never);
        let mut cache = TieredCacheModule::new(topo);
        cache.access(&write(1, 0)); // block 0 dirty at level 0
        cache.access(&write(2, 8)); // demotes 0 -> level 1
        cache.access(&write(3, 16)); // demotes 0 -> level 2, 1 -> level 1
        assert_eq!(cache.resident_level(0), Some(2));

        let mut outcome = TieredOutcome::new();
        cache.absorb_spill(0, 1, &mut outcome);
        assert_eq!(cache.resident_level(0), Some(1), "the block re-homes at the target");
        let copies = (0..3).filter(|&l| cache.cached_blocks(l) > 0).count();
        assert_eq!(
            cache.cached_blocks(0) + cache.cached_blocks(1) + cache.cached_blocks(2),
            3,
            "three distinct blocks, one copy each (levels occupied: {copies})"
        );
        // Invalidating once fully removes it — no stale shadow copy left.
        assert!(cache.invalidate_block(0).is_some());
        assert_eq!(cache.resident_level(0), None);
    }

    #[test]
    fn ro_policy_bypasses_and_invalidates_across_levels() {
        let mut cache = two_level();
        for i in 0..4u64 {
            cache.access(&write(i, i * 2 * 8)); // block 0 ends up at level 1
        }
        assert_eq!(cache.resident_level(0), Some(1));
        cache.set_policy(WritePolicy::ReadOnly);
        let out = cache.access(&write(10, 0));
        assert_eq!(out.disk_ops().len(), 1);
        assert!(out.level_ops(0).is_empty() && out.level_ops(1).is_empty());
        assert_eq!(cache.resident_level(0), None);
        assert_eq!(cache.stats(1).invalidations, 1);
        assert_eq!(cache.stats(0).write_bypasses, 1);
    }

    #[test]
    fn prewarm_to_capacity_fills_every_level() {
        let mut cache = two_level();
        cache.prewarm_to_capacity();
        assert_eq!(cache.cached_blocks(0), 4);
        assert_eq!(cache.cached_blocks(1), 8);
        assert_eq!(cache.dirty_blocks(0) + cache.dirty_blocks(1), 0);
        assert_eq!(cache.stats(0).reads() + cache.stats(0).writes(), 0);
        // Prewarmed blocks hit: block 5 lives in the warm tier.
        assert!(cache.access(&read(1, 5 * 8)).read_hit());
    }

    #[test]
    fn invalidate_block_finds_any_level() {
        let mut cache = two_level();
        cache.prewarm_to_capacity();
        assert_eq!(cache.invalidate_block(6), Some(SlotState::Clean));
        assert_eq!(cache.invalidate_block(6), None);
        assert_eq!(cache.stats(1).invalidations, 1);
    }

    #[test]
    fn capacity_sums_levels() {
        assert_eq!(two_level().capacity_blocks(), 4 + 8);
        assert_eq!(two_level().levels(), 2);
    }

    #[test]
    fn set_policy_governs_every_level_and_level_policy_just_one() {
        let mut cache = two_level();
        assert_eq!(cache.level_policies(), &[WritePolicy::WriteBack; 2]);
        cache.set_policy(WritePolicy::ReadOnly);
        assert_eq!(cache.level_policies(), &[WritePolicy::ReadOnly; 2]);
        cache.set_level_policy(1, WritePolicy::WriteBack);
        assert_eq!(cache.policy(), WritePolicy::ReadOnly);
        assert_eq!(cache.level_policy(1), WritePolicy::WriteBack);
        cache.set_level_policies(&[WritePolicy::WriteOnly, WritePolicy::WriteThrough]);
        assert_eq!(cache.level_policy(0), WritePolicy::WriteOnly);
        assert_eq!(cache.level_policy(1), WritePolicy::WriteThrough);
    }

    #[test]
    fn per_level_initial_policies_come_from_the_topology() {
        let topo = TierTopology::two_level(spec(2, 2), spec(4, 2))
            .with_level_policy(1, WritePolicy::WriteThrough);
        let cache = TieredCacheModule::new(topo);
        assert_eq!(cache.level_policy(0), WritePolicy::WriteBack);
        assert_eq!(cache.level_policy(1), WritePolicy::WriteThrough);
    }

    #[test]
    fn set_policy_pins_configured_lower_levels() {
        // Uniform configuration: the single knob drives every level
        // (pre-per-tier behaviour).
        let mut uniform = two_level();
        uniform.set_policy(WritePolicy::WriteThrough);
        assert_eq!(uniform.level_policies(), &[WritePolicy::WriteThrough; 2]);
        // Explicitly non-uniform configuration: the knob drives the hot
        // tier only; the configured warm policy survives any number of
        // switches (bursts, reverts).
        let mut split = TieredCacheModule::new(
            TierTopology::two_level(spec(2, 2), spec(4, 2))
                .with_level_policy(1, WritePolicy::ReadOnly),
        );
        split.set_policy(WritePolicy::WriteThrough);
        split.set_policy(WritePolicy::WriteBack);
        assert_eq!(split.level_policy(0), WritePolicy::WriteBack);
        assert_eq!(split.level_policy(1), WritePolicy::ReadOnly);
        // The explicit per-level setters remain the escape hatch.
        split.set_level_policy(1, WritePolicy::WriteBack);
        assert_eq!(split.level_policy(1), WritePolicy::WriteBack);
    }

    #[test]
    fn write_is_judged_by_the_owning_levels_policy() {
        // Warm tier write-through, hot tier write-back, promotion off so
        // blocks stay where they land.
        let topo = TierTopology::two_level(spec(2, 2), spec(4, 2))
            .with_promotion(PromotionPolicy::Never)
            .with_level_policy(1, WritePolicy::WriteThrough);
        let mut cache = TieredCacheModule::new(topo);
        for i in 0..4u64 {
            cache.access(&write(i, i * 2 * 8)); // block 0 demotes to level 1
        }
        assert_eq!(cache.resident_level(0), Some(1));
        // A write owned by the WT warm tier goes to the level *and* disk...
        let warm = cache.access(&write(10, 0));
        assert_eq!(warm.level_ops(1).len(), 1);
        assert_eq!(warm.disk_ops().len(), 1, "warm tier writes through");
        // ...while a write owned by the WB hot tier stays in the hierarchy.
        let hot = cache.access(&write(11, 6 * 8));
        assert!(hot.disk_ops().is_empty(), "hot tier buffers writes");
    }

    #[test]
    fn read_miss_promotion_follows_the_placement_levels_policy() {
        let topo = TierTopology::two_level(spec(2, 2), spec(4, 2))
            .with_placement(PlacementPolicy::ColdTier)
            .with_level_policy(1, WritePolicy::WriteOnly);
        let mut cache = TieredCacheModule::new(topo);
        let miss = cache.access(&read(1, 0));
        assert!(!miss.read_hit());
        assert!(miss.level_ops(1).is_empty(), "a WO placement level skips the fill");
        assert_eq!(cache.stats(0).unpromoted_read_misses, 1);
        assert_eq!(cache.resident_level(0), None);
    }

    fn inclusive_two_level() -> TieredCacheModule {
        TieredCacheModule::new(
            TierTopology::two_level(spec(2, 2), spec(4, 2))
                .with_inclusion(InclusionPolicy::Inclusive),
        )
    }

    #[test]
    fn inclusive_promotion_keeps_the_lower_copy_resident() {
        let mut cache = inclusive_two_level();
        for i in 0..4u64 {
            cache.access(&write(i, i * 2 * 8)); // block 0 demotes to level 1
        }
        assert_eq!(cache.resident_level(0), Some(1));
        let hit = cache.access(&read(10, 0));
        assert!(hit.read_hit());
        assert_eq!(cache.resident_level(0), Some(0), "the copy moved up");
        assert!(cache.maps[1].contains(0), "the warm copy stays resident");
        assert_eq!(cache.movement(0).promotions_in, 1);
        // The warm copy keeps ownership of the dirty data; the promoted hot
        // copy is a clean read cache (only block 6's write stays dirty
        // above, while 0, 2 and 4 are dirty below).
        assert_eq!(cache.dirty_blocks(0), 1);
        assert_eq!(cache.dirty_blocks(1), 3);
    }

    #[test]
    fn inclusive_lower_eviction_back_invalidates_the_upper_copy() {
        // Hot: 2 sets x 2 ways (even blocks share set 0); warm: 1 set x 2
        // ways, inclusive.
        let mut cache = TieredCacheModule::new(
            TierTopology::two_level(spec(2, 2), spec(1, 2))
                .with_inclusion(InclusionPolicy::Inclusive),
        );
        cache.access(&read(1, 0)); // hot: [0]
        cache.access(&read(2, 2 * 8)); // hot: [0, 2]
        cache.access(&read(3, 4 * 8)); // evicts 0 -> warm: [0]
        assert_eq!(cache.resident_level(0), Some(1));
        cache.access(&read(4, 0)); // promote: 0 copied up, 2 demoted
        assert!(cache.maps[0].contains(0) && cache.maps[1].contains(0), "two copies of block 0");
        // The next demotion fills the warm tier past capacity and evicts
        // its LRU line — block 0 — whose hot copy must be back-invalidated.
        let out = cache.access(&read(5, 6 * 8));
        assert!(!cache.maps[1].contains(0), "warm copy evicted");
        assert!(!cache.maps[0].contains(0), "back-invalidation dropped the hot copy");
        assert_eq!(cache.movement(0).back_invalidations, 1);
        assert_eq!(out.back_invalidations(), 1);
        assert_eq!(cache.stats(0).invalidations, 1);
    }

    #[test]
    fn inclusive_back_invalidation_preserves_dirty_data() {
        // Same geometry; this time the hot copy is dirtied after promotion,
        // so the back-invalidated line must hand its dirtiness to the
        // cascading victim instead of silently dropping the write.
        let mut cache = TieredCacheModule::new(
            TierTopology::two_level(spec(2, 2), spec(1, 2))
                .with_inclusion(InclusionPolicy::Inclusive),
        );
        cache.access(&read(1, 0));
        cache.access(&read(2, 2 * 8));
        cache.access(&read(3, 4 * 8)); // 0 -> warm
        cache.access(&write(4, 0)); // write promotion: hot copy dirty, warm copy stays
        assert!(cache.maps[0].contains(0) && cache.maps[1].contains(0));
        assert_eq!(cache.dirty_blocks(0), 1);
        let out = cache.access(&read(5, 6 * 8)); // warm evicts 0, back-invalidates
        assert!(!cache.maps[0].contains(0) && !cache.maps[1].contains(0));
        // The dirty hot data rode the eviction to the disk subsystem.
        assert!(
            out.ops()
                .iter()
                .any(|op| op.target == TierTarget::Disk && op.class() == RequestClass::Evict),
            "dirty back-invalidated data must write back: {:?}",
            out.ops()
        );
    }

    #[test]
    fn reset_is_equivalent_to_fresh_construction() {
        let topo = TierTopology::two_level(spec(2, 2), spec(4, 2))
            .with_level_policy(1, WritePolicy::WriteThrough);
        let mut cache = TieredCacheModule::new(topo);
        for i in 0..6u64 {
            cache.access(&write(i, i * 2 * 8));
            cache.access(&read(10 + i, i * 8));
        }
        cache.set_policy(WritePolicy::ReadOnly);
        cache.reset();
        assert_eq!(cache, TieredCacheModule::new(topo));
        assert_eq!(cache.level_policy(1), WritePolicy::WriteThrough);
        assert_eq!(cache.movement(0), TierMovement::default());
        assert_eq!(cache.cached_blocks(0) + cache.cached_blocks(1), 0);
    }

    #[test]
    fn commit_moves_is_observationally_invisible() {
        let mut cache = two_level();
        for i in 0..6u64 {
            cache.access(&write(i, i * 2 * 8)); // forces demotions
        }
        cache.access(&read(20, 0)); // warm hit promotes back up
        let live: Vec<TierMovement> = (0..2).map(|l| cache.movement(l)).collect();
        assert!(live[0].promotions_in > 0 && live[1].demotions_in > 0);
        cache.commit_moves();
        let committed: Vec<TierMovement> = (0..2).map(|l| cache.movement(l)).collect();
        assert_eq!(live, committed);
        // A second commit with an empty buffer is a no-op too.
        cache.commit_moves();
        assert_eq!(committed, (0..2).map(|l| cache.movement(l)).collect::<Vec<_>>());
    }

    #[test]
    fn fast_prewarm_matches_naive_per_block_inserts() {
        let mut fast = two_level();
        fast.prewarm_to_capacity();
        let mut naive = two_level();
        let mut next = 0u64;
        for level in 0..2 {
            let cap = naive.maps[level].capacity_blocks() as u64;
            for block in next..next + cap {
                let _ = naive.maps[level].insert(block, SlotState::Clean);
            }
            next += cap;
        }
        assert_eq!(fast, naive);
    }

    #[test]
    fn absorb_read_spill_rehomes_without_dirtying() {
        let mut cache = two_level();
        cache.access(&read(1, 0)); // clean fill at level 0
        let mut outcome = TieredOutcome::new();
        cache.absorb_read_spill(0, 1, &mut outcome);
        assert_eq!(cache.resident_level(0), Some(1));
        assert_eq!(cache.dirty_blocks(1), 0, "read spills never dirty the block");
        assert_eq!(cache.movement(1).read_spills_in, 1);
        assert_eq!(cache.movement(1).spills_in, 0);
        // A dirty block keeps its dirtiness across a read spill.
        cache.access(&write(2, 2 * 8));
        cache.absorb_read_spill(2, 1, &mut outcome);
        assert_eq!(cache.dirty_blocks(1), 1);
    }

    #[test]
    fn snap_round_trip_restores_the_whole_hierarchy() {
        let mut cache = two_level();
        for i in 0..20u64 {
            if i % 3 == 0 {
                cache.access(&write(i, i * 8));
            } else {
                cache.access(&read(i, i * 8));
            }
        }
        cache.set_level_policy(1, WritePolicy::WriteThrough);
        // Leave deferred movement uncommitted to prove `pending` survives.

        let mut w = lbica_storage::snap::SnapWriter::new();
        cache.snap_to(&mut w);
        let bytes = w.into_bytes();

        let mut restored = two_level();
        let mut r = lbica_storage::snap::SnapReader::new(&bytes);
        restored.snap_state_from(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(restored, cache);

        // Identical behaviour afterwards, including movement accounting.
        let probe = read(99, 5 * 8);
        assert_eq!(restored.access(&probe), cache.access(&probe));
        restored.commit_moves();
        cache.commit_moves();
        assert_eq!(restored, cache);
    }

    #[test]
    fn snap_state_from_rejects_level_count_mismatch() {
        let cache = two_level();
        let mut w = lbica_storage::snap::SnapWriter::new();
        cache.snap_to(&mut w);
        let bytes = w.into_bytes();

        let mut flat = TieredCacheModule::new(TierTopology::single(spec(2, 2)));
        let mut r = lbica_storage::snap::SnapReader::new(&bytes);
        assert_eq!(
            flat.snap_state_from(&mut r),
            Err(lbica_storage::snap::SnapError::Corrupt("tier level count mismatch"))
        );
    }

    #[test]
    fn snap_state_from_rejects_same_capacity_other_geometry() {
        let cache = two_level();
        let mut w = lbica_storage::snap::SnapWriter::new();
        cache.snap_to(&mut w);
        let bytes = w.into_bytes();

        // Level 1 keeps its 8-block capacity: 2x4 instead of 4x2, then
        // 4x2 under FIFO.
        let mut fifo = spec(4, 2);
        fifo.cache.replacement = ReplacementKind::Fifo;
        for lower in [spec(2, 4), fifo] {
            let mut other = TieredCacheModule::new(TierTopology::two_level(spec(2, 2), lower));
            let mut r = lbica_storage::snap::SnapReader::new(&bytes);
            assert_eq!(
                other.snap_state_from(&mut r),
                Err(lbica_storage::snap::SnapError::Corrupt("tier geometry mismatch"))
            );
        }
    }
}
