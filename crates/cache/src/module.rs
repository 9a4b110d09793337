//! The datapath cache module.

use serde::{Deserialize, Serialize};

use lbica_storage::block::{BlockRange, Lba, BLOCK_SECTORS};
use lbica_storage::request::{IoRequest, RequestKind, RequestOrigin};
use lbica_storage::snap::{SnapError, SnapReader, SnapWriter};

use crate::outcome::{CacheOutcome, DerivedOp, TargetDevice};
use crate::policy::WritePolicy;
use crate::replacement::ReplacementKind;
use crate::set_assoc::{InsertOutcome, SetAssociativeMap, SlotState};
use crate::stats::CacheStats;

/// Configuration of a [`CacheModule`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Number of sets in the set-associative map.
    pub num_sets: usize,
    /// Ways per set.
    pub associativity: usize,
    /// Victim-selection policy within a set.
    pub replacement: ReplacementKind,
    /// The write policy the cache starts with (the paper starts every
    /// experiment in write-back).
    pub initial_policy: WritePolicy,
}

impl CacheConfig {
    /// A cache sized like the paper's testbed relative to the workload
    /// footprint: large enough that random-read working sets mostly fit.
    pub const fn enterprise() -> Self {
        CacheConfig {
            num_sets: 8_192,
            associativity: 16,
            replacement: ReplacementKind::Lru,
            initial_policy: WritePolicy::WriteBack,
        }
    }

    /// A tiny cache for unit tests (8 sets × 2 ways = 16 blocks).
    pub const fn small_test() -> Self {
        CacheConfig {
            num_sets: 8,
            associativity: 2,
            replacement: ReplacementKind::Lru,
            initial_policy: WritePolicy::WriteBack,
        }
    }

    /// Total capacity in cache blocks.
    pub const fn capacity_blocks(&self) -> usize {
        self.num_sets * self.associativity
    }
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig::enterprise()
    }
}

/// An EnhanceIO-like datapath SSD cache.
///
/// Every application request is pushed through [`CacheModule::access`],
/// which consults the block map and the current [`WritePolicy`] and returns
/// the derived SSD/HDD operations. The controller (LBICA, SIB or the WB
/// baseline) may change the policy at any interval boundary via
/// [`CacheModule::set_policy`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CacheModule {
    config: CacheConfig,
    map: SetAssociativeMap,
    policy: WritePolicy,
    stats: CacheStats,
}

impl CacheModule {
    /// Creates a cache module from a configuration.
    pub fn new(config: CacheConfig) -> Self {
        CacheModule {
            map: SetAssociativeMap::new(config.num_sets, config.associativity, config.replacement),
            policy: config.initial_policy,
            config,
            stats: CacheStats::default(),
        }
    }

    /// The configuration this module was built from.
    pub const fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// The currently assigned write policy.
    pub const fn policy(&self) -> WritePolicy {
        self.policy
    }

    /// Assigns a new write policy. Takes effect for subsequent accesses;
    /// already-dirty blocks remain dirty and are still written back when
    /// evicted under the new policy.
    pub fn set_policy(&mut self, policy: WritePolicy) {
        self.policy = policy;
    }

    /// Cumulative statistics.
    pub const fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Number of dirty blocks currently held.
    pub fn dirty_blocks(&self) -> usize {
        self.map.dirty_blocks()
    }

    /// Number of blocks currently cached.
    pub fn cached_blocks(&self) -> usize {
        self.map.len()
    }

    /// Total block capacity.
    pub fn capacity_blocks(&self) -> usize {
        self.map.capacity_blocks()
    }

    fn block_range(block: u64) -> BlockRange {
        BlockRange::new(Lba::new(block * BLOCK_SECTORS), BLOCK_SECTORS)
    }

    /// Pushes one application request through the cache and returns the
    /// derived device operations under the current policy.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `request` does not originate from the
    /// application; promotes/evictions are generated internally and must not
    /// be re-submitted.
    pub fn access(&mut self, request: &IoRequest) -> CacheOutcome {
        let mut outcome = CacheOutcome::new();
        self.access_into(request, &mut outcome);
        outcome
    }

    /// [`CacheModule::access`] into a caller-owned outcome, clearing it
    /// first. The simulator's event loop reuses one outcome buffer across
    /// accesses, so the hot path performs no per-request allocation.
    pub fn access_into(&mut self, request: &IoRequest, outcome: &mut CacheOutcome) {
        debug_assert_eq!(
            request.origin(),
            RequestOrigin::Application,
            "only application requests enter the cache module"
        );
        outcome.clear();
        let mut any_miss = false;
        let mut any_hit = false;

        for block in request.range().block_indices() {
            match request.kind() {
                RequestKind::Read => {
                    if self.handle_read_block(block, outcome) {
                        any_hit = true;
                    } else {
                        any_miss = true;
                    }
                }
                RequestKind::Write => {
                    if self.handle_write_block(block, outcome) {
                        any_hit = true;
                    } else {
                        any_miss = true;
                    }
                }
            }
        }

        match request.kind() {
            RequestKind::Read => outcome.set_read_hit(any_hit && !any_miss),
            RequestKind::Write => outcome.set_write_hit(any_hit && !any_miss),
        }
        // The application-visible latency is governed by the cache device
        // whenever no disk-subsystem operation carries application data.
        let disk_in_datapath = outcome
            .ops()
            .iter()
            .any(|op| op.target == TargetDevice::Hdd && op.origin == RequestOrigin::Application);
        outcome.set_served_by_cache(!disk_in_datapath);
    }

    /// Handles one block of an application read. Returns `true` on hit.
    fn handle_read_block(&mut self, block: u64, outcome: &mut CacheOutcome) -> bool {
        let range = Self::block_range(block);
        if self.map.touch(block) {
            self.stats.read_hits += 1;
            outcome.push(DerivedOp::new(
                TargetDevice::Ssd,
                RequestKind::Read,
                RequestOrigin::Application,
                range,
            ));
            return true;
        }

        // Miss: the disk subsystem supplies the data...
        self.stats.read_misses += 1;
        outcome.push(DerivedOp::new(
            TargetDevice::Hdd,
            RequestKind::Read,
            RequestOrigin::Application,
            range,
        ));

        // ...and, policy permitting, the block is promoted into the cache.
        if self.policy.promotes_read_misses() {
            self.promote_block(block, outcome);
        } else {
            self.stats.unpromoted_read_misses += 1;
        }
        false
    }

    /// Handles one block of an application write. Returns `true` when the
    /// write is absorbed by the cache.
    fn handle_write_block(&mut self, block: u64, outcome: &mut CacheOutcome) -> bool {
        let range = Self::block_range(block);

        if !self.policy.buffers_writes() {
            // Read-only cache: the write bypasses to the disk subsystem and
            // any cached copy becomes stale.
            self.stats.write_bypasses += 1;
            self.stats.write_misses += 1;
            if self.map.invalidate(block).is_some() {
                self.stats.invalidations += 1;
            }
            outcome.push(DerivedOp::new(
                TargetDevice::Hdd,
                RequestKind::Write,
                RequestOrigin::Application,
                range,
            ));
            return false;
        }

        // Write is absorbed by the cache (WB, WT or WO): write-allocate.
        let was_cached = self.map.contains(block);
        if was_cached {
            self.stats.write_hits += 1;
        } else {
            self.stats.write_misses += 1;
        }

        let state =
            if self.policy.leaves_dirty_blocks() { SlotState::Dirty } else { SlotState::Clean };
        let insert = self.map.insert(block, state);
        if self.policy.leaves_dirty_blocks() && was_cached {
            self.map.mark_dirty(block);
        }
        self.emit_eviction(insert, outcome);

        outcome.push(DerivedOp::new(
            TargetDevice::Ssd,
            RequestKind::Write,
            RequestOrigin::Application,
            range,
        ));

        if self.policy.writes_through() {
            outcome.push(DerivedOp::new(
                TargetDevice::Hdd,
                RequestKind::Write,
                RequestOrigin::Application,
                range,
            ));
        }
        true
    }

    /// Installs a missed block in the cache, emitting the promote write and
    /// any eviction it causes.
    fn promote_block(&mut self, block: u64, outcome: &mut CacheOutcome) {
        let insert = self.map.insert(block, SlotState::Clean);
        self.emit_eviction(insert, outcome);
        self.stats.promotes += 1;
        outcome.push(DerivedOp::new(
            TargetDevice::Ssd,
            RequestKind::Write,
            RequestOrigin::Promote,
            Self::block_range(block),
        ));
    }

    /// Emits the derived operations for an eviction, if the insert caused
    /// one.
    fn emit_eviction(&mut self, insert: InsertOutcome, outcome: &mut CacheOutcome) {
        match insert {
            InsertOutcome::EvictedDirty { victim } => {
                self.stats.dirty_evictions += 1;
                let range = Self::block_range(victim);
                // Reading the victim off the SSD and writing it to the disk
                // subsystem: both legs carry the Evict class, matching the
                // E operations the paper shows in both queues (Fig. 1).
                outcome.push(DerivedOp::new(
                    TargetDevice::Ssd,
                    RequestKind::Read,
                    RequestOrigin::Evict,
                    range,
                ));
                outcome.push(DerivedOp::new(
                    TargetDevice::Hdd,
                    RequestKind::Write,
                    RequestOrigin::Evict,
                    range,
                ));
            }
            InsertOutcome::EvictedClean { .. } => {
                self.stats.clean_evictions += 1;
            }
            InsertOutcome::Inserted | InsertOutcome::AlreadyPresent => {}
        }
    }

    /// Invalidates a single cached block (e.g. because a controller bypassed
    /// the write that would have updated it to the disk subsystem), returning
    /// its previous state if it was cached.
    pub fn invalidate_block(&mut self, block: u64) -> Option<SlotState> {
        let state = self.map.invalidate(block);
        if state.is_some() {
            self.stats.invalidations += 1;
        }
        state
    }

    /// Pre-populates the cache with clean copies of the given blocks without
    /// touching the statistics — used to skip the warm-up interval, which the
    /// paper explicitly assumes has already passed.
    pub fn prewarm<I: IntoIterator<Item = u64>>(&mut self, blocks: I) {
        for block in blocks {
            let _ = self.map.insert(block, SlotState::Clean);
        }
    }

    /// Pre-populates the cache to full capacity with the clean blocks
    /// `0..capacity_blocks()` — equivalent to `prewarm(0..capacity)` but via
    /// the map's sequential fast fill, skipping the per-insert tag scans.
    pub fn prewarm_full(&mut self) {
        self.map.fill_sequential(0);
    }

    /// Drops every cached block without writing anything back. Only for
    /// tests and warm-up resets.
    pub fn clear(&mut self) {
        self.map.reset();
    }

    /// Restores the module to its freshly constructed state: map emptied in
    /// place (the slot arenas keep their allocations), statistics zeroed and
    /// the policy back to the configured initial policy. Observationally
    /// equivalent to `CacheModule::new(*self.config())` — the arena-reuse
    /// fast path.
    pub fn reset(&mut self) {
        self.map.reset();
        self.policy = self.config.initial_policy;
        self.stats = CacheStats::default();
    }

    /// Serializes the module — map contents, active policy, statistics —
    /// for a replay checkpoint. The configuration is rebuilt from the
    /// simulation config on resume, not stored.
    pub fn snap_to(&self, w: &mut SnapWriter) {
        self.map.snap_to(w);
        w.put_u8(match self.policy {
            WritePolicy::WriteBack => 0,
            WritePolicy::WriteThrough => 1,
            WritePolicy::ReadOnly => 2,
            WritePolicy::WriteOnly => 3,
        });
        self.stats.snap_to(w);
    }

    /// Restores state serialized by [`CacheModule::snap_to`] into a module
    /// already built with the original configuration.
    pub fn snap_state_from(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let map = SetAssociativeMap::snap_from(r)?;
        if !map.same_geometry(&self.map) {
            return Err(SnapError::Corrupt("cache geometry mismatch"));
        }
        self.map = map;
        self.policy = match r.get_u8()? {
            0 => WritePolicy::WriteBack,
            1 => WritePolicy::WriteThrough,
            2 => WritePolicy::ReadOnly,
            3 => WritePolicy::WriteOnly,
            _ => return Err(SnapError::Corrupt("write policy tag")),
        };
        self.stats = CacheStats::snap_from(r)?;
        Ok(())
    }
}

impl Default for CacheModule {
    fn default() -> Self {
        CacheModule::new(CacheConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbica_storage::request::RequestClass;

    fn read(id: u64, sector: u64) -> IoRequest {
        IoRequest::new(id, RequestKind::Read, RequestOrigin::Application, sector, 8)
    }

    fn write(id: u64, sector: u64) -> IoRequest {
        IoRequest::new(id, RequestKind::Write, RequestOrigin::Application, sector, 8)
    }

    fn module() -> CacheModule {
        CacheModule::new(CacheConfig::small_test())
    }

    #[test]
    fn wb_read_miss_promotes_then_hits() {
        let mut cache = module();
        let miss = cache.access(&read(1, 0));
        assert!(!miss.read_hit());
        assert_eq!(miss.hdd_ops().len(), 1);
        assert_eq!(miss.ssd_ops().len(), 1);
        assert_eq!(miss.ssd_ops()[0].class(), RequestClass::Promote);

        let hit = cache.access(&read(2, 0));
        assert!(hit.read_hit());
        assert!(hit.served_by_cache());
        assert_eq!(hit.hdd_ops().len(), 0);
        assert_eq!(cache.stats().read_hits, 1);
        assert_eq!(cache.stats().read_misses, 1);
        assert_eq!(cache.stats().promotes, 1);
    }

    #[test]
    fn wb_write_is_absorbed_and_dirty() {
        let mut cache = module();
        let out = cache.access(&write(1, 0));
        assert!(out.write_hit() || cache.stats().write_misses == 1);
        assert!(out.served_by_cache());
        assert_eq!(out.hdd_ops().len(), 0);
        assert_eq!(cache.dirty_blocks(), 1);
    }

    #[test]
    fn wt_write_goes_to_both_devices_and_stays_clean() {
        let mut cache = module();
        cache.set_policy(WritePolicy::WriteThrough);
        let out = cache.access(&write(1, 0));
        assert_eq!(out.ssd_ops().len(), 1);
        assert_eq!(out.hdd_ops().len(), 1);
        assert!(!out.served_by_cache(), "WT completion waits for the disk subsystem");
        assert_eq!(cache.dirty_blocks(), 0);
    }

    #[test]
    fn ro_write_bypasses_and_invalidates() {
        let mut cache = module();
        // Warm a block under WB, then switch to RO and overwrite it.
        cache.access(&read(1, 0));
        cache.set_policy(WritePolicy::ReadOnly);
        let out = cache.access(&write(2, 0));
        assert!(out.ssd_ops().is_empty());
        assert_eq!(out.hdd_ops().len(), 1);
        assert_eq!(cache.stats().write_bypasses, 1);
        assert_eq!(cache.stats().invalidations, 1);
        // The stale copy is gone: the next read misses.
        cache.set_policy(WritePolicy::WriteBack);
        let reread = cache.access(&read(3, 0));
        assert!(!reread.read_hit());
    }

    #[test]
    fn wo_read_miss_is_not_promoted_but_hits_still_serve() {
        let mut cache = module();
        // Buffer a write so block 0 is cached, then switch to WO.
        cache.access(&write(1, 0));
        cache.set_policy(WritePolicy::WriteOnly);
        let hit = cache.access(&read(2, 0));
        assert!(hit.read_hit());
        let miss = cache.access(&read(3, 512));
        assert!(!miss.read_hit());
        assert!(miss.ssd_ops().is_empty(), "no promote under WO");
        assert_eq!(cache.stats().unpromoted_read_misses, 1);
    }

    #[test]
    fn dirty_eviction_emits_ssd_read_and_hdd_write() {
        let mut cache = CacheModule::new(CacheConfig {
            num_sets: 1,
            associativity: 2,
            replacement: ReplacementKind::Lru,
            initial_policy: WritePolicy::WriteBack,
        });
        cache.access(&write(1, 0)); // block 0, dirty
        cache.access(&write(2, 8)); // block 1, dirty
        let out = cache.access(&write(3, 16)); // evicts block 0
        let evict_ops: Vec<_> =
            out.ops().iter().filter(|op| op.class() == RequestClass::Evict).collect();
        assert_eq!(evict_ops.len(), 2);
        assert!(evict_ops.iter().any(|op| op.target == TargetDevice::Ssd));
        assert!(evict_ops.iter().any(|op| op.target == TargetDevice::Hdd));
        assert_eq!(cache.stats().dirty_evictions, 1);
    }

    #[test]
    fn clean_eviction_is_silent() {
        let mut cache = CacheModule::new(CacheConfig {
            num_sets: 1,
            associativity: 1,
            replacement: ReplacementKind::Lru,
            initial_policy: WritePolicy::WriteBack,
        });
        cache.access(&read(1, 0));
        let out = cache.access(&read(2, 8)); // evicts clean block 0
        assert!(out.ops().iter().all(|op| op.class() != RequestClass::Evict));
        assert_eq!(cache.stats().clean_evictions, 1);
    }

    #[test]
    fn multi_block_request_touches_every_block() {
        let mut cache = module();
        let big = IoRequest::new(1, RequestKind::Read, RequestOrigin::Application, 0, 32);
        let out = cache.access(&big);
        // 4 blocks missed: 4 HDD reads + 4 promotes.
        assert_eq!(out.hdd_ops().len(), 4);
        assert_eq!(out.ssd_ops().len(), 4);
        assert_eq!(cache.stats().read_misses, 4);
    }

    #[test]
    fn invalidate_block_removes_cached_copy() {
        let mut cache = module();
        cache.access(&write(1, 0));
        assert_eq!(cache.invalidate_block(0), Some(SlotState::Dirty));
        assert_eq!(cache.invalidate_block(0), None);
        assert_eq!(cache.stats().invalidations, 1);
        assert_eq!(cache.dirty_blocks(), 0);
    }

    #[test]
    fn prewarm_installs_clean_blocks_without_stats() {
        let mut cache = module();
        cache.prewarm(0..8);
        assert_eq!(cache.cached_blocks(), 8);
        assert_eq!(cache.dirty_blocks(), 0);
        assert_eq!(cache.stats().reads() + cache.stats().writes(), 0);
        // A prewarmed block hits immediately.
        assert!(cache.access(&read(1, 0)).read_hit());
    }

    #[test]
    fn policy_switch_keeps_existing_dirty_blocks() {
        let mut cache = module();
        cache.access(&write(1, 0));
        assert_eq!(cache.dirty_blocks(), 1);
        cache.set_policy(WritePolicy::ReadOnly);
        assert_eq!(cache.dirty_blocks(), 1, "dirty data survives a policy switch");
        assert_eq!(cache.policy(), WritePolicy::ReadOnly);
    }

    #[test]
    fn clear_resets_contents_but_not_stats() {
        let mut cache = module();
        cache.access(&write(1, 0));
        cache.clear();
        assert_eq!(cache.cached_blocks(), 0);
        assert_eq!(cache.stats().writes(), 1);
        assert_eq!(cache.capacity_blocks(), CacheConfig::small_test().capacity_blocks());
    }

    #[test]
    fn reset_is_equivalent_to_fresh_construction() {
        let mut cache = module();
        cache.access(&write(1, 0));
        cache.access(&read(2, 64));
        cache.set_policy(WritePolicy::ReadOnly);
        cache.reset();
        assert_eq!(cache, CacheModule::new(CacheConfig::small_test()));
        assert_eq!(cache.policy(), WritePolicy::WriteBack);
        assert_eq!(cache.stats().reads() + cache.stats().writes(), 0);
    }

    #[test]
    fn snap_round_trip_restores_map_policy_and_stats() {
        let mut cache = module();
        cache.access(&write(1, 0));
        cache.access(&read(2, 64));
        cache.access(&read(3, 64));
        cache.set_policy(WritePolicy::WriteOnly);

        let mut w = lbica_storage::snap::SnapWriter::new();
        cache.snap_to(&mut w);
        let bytes = w.into_bytes();

        let mut restored = CacheModule::new(CacheConfig::small_test());
        let mut r = lbica_storage::snap::SnapReader::new(&bytes);
        restored.snap_state_from(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(restored, cache);

        // The restored module keeps behaving identically.
        let probe = read(4, 64);
        assert_eq!(restored.access(&probe), cache.access(&probe));
        assert_eq!(restored, cache);
    }

    #[test]
    fn snap_state_from_rejects_geometry_mismatch() {
        let cache = module();
        let mut w = lbica_storage::snap::SnapWriter::new();
        cache.snap_to(&mut w);
        let bytes = w.into_bytes();

        let mut bigger = CacheModule::new(CacheConfig {
            num_sets: 16,
            associativity: 2,
            replacement: ReplacementKind::Lru,
            initial_policy: WritePolicy::WriteBack,
        });
        let mut r = lbica_storage::snap::SnapReader::new(&bytes);
        assert_eq!(
            bigger.snap_state_from(&mut r),
            Err(lbica_storage::snap::SnapError::Corrupt("cache geometry mismatch"))
        );
    }

    #[test]
    fn snap_state_from_rejects_same_capacity_other_geometry() {
        let cache = module();
        let mut w = lbica_storage::snap::SnapWriter::new();
        cache.snap_to(&mut w);
        let bytes = w.into_bytes();
        // The same 16-block capacity: half the sets at twice the ways, then
        // the original 8x2 geometry under FIFO.
        for (num_sets, associativity, replacement) in
            [(4, 4, ReplacementKind::Lru), (8, 2, ReplacementKind::Fifo)]
        {
            let mut other = CacheModule::new(CacheConfig {
                num_sets,
                associativity,
                replacement,
                initial_policy: WritePolicy::WriteBack,
            });
            let mut r = lbica_storage::snap::SnapReader::new(&bytes);
            assert_eq!(
                other.snap_state_from(&mut r),
                Err(lbica_storage::snap::SnapError::Corrupt("cache geometry mismatch")),
                "{num_sets}x{associativity} {replacement:?}"
            );
        }
    }

    #[test]
    fn prewarm_full_matches_naive_prewarm() {
        let mut fast = module();
        fast.prewarm_full();
        let mut naive = module();
        naive.prewarm(0..naive.capacity_blocks() as u64);
        assert_eq!(fast, naive);
    }
}
