//! Cross-cell state reuse for sweep workers.
//!
//! A parameter sweep runs many short simulation cells, and for the small
//! matrices the per-cell setup — allocating slot arenas, tracker slabs,
//! event-queue lanes and monitor histories, then prewarming the cache —
//! rivals the event loop itself. A [`SimArena`] keeps the previously built
//! system of each flavor — one flat [`StorageSystem`], one
//! [`TieredStorageSystem`] — alive between cells and hands it back
//! **reset** instead of reallocated whenever the next cell of that flavor
//! asks for the same [`SimulationConfig`].
//!
//! The contract is strict: *reset is observationally equivalent to fresh
//! construction*. Every component exposes a `reset()` that clears all
//! state a simulation can observe (counters, clocks, contents, histories)
//! while keeping the backing allocations; the arena only reuses a system
//! when the requested config is `==` the one the system was built with, so
//! geometry, device models and policies are guaranteed identical. Anything
//! else falls back to building fresh. The equivalence is pinned by
//! proptests in `lbica-lab` that compare reports, figure CSV rows and trace
//! snapshots of arena-reused runs against fresh-state runs byte for byte.
//!
//! One arena per sweep worker thread: cells on the same worker share it
//! sequentially, so after the first cell of each shape every subsequent
//! cell runs allocation-free. The arena also owns the buffer each
//! interval's generated arrivals are written into.

use lbica_trace::record::TraceRecord;

use crate::config::SimulationConfig;
use crate::system::{CacheFront, StorageSystem, System};
use crate::tiered::TieredStorageSystem;

/// Reusable backing store for the simulated systems of consecutive runs.
///
/// ```
/// use lbica_sim::{SimArena, SimulationConfig};
///
/// let mut arena = SimArena::new();
/// let config = SimulationConfig::tiny();
/// let sys = arena.take_flat(&config); // first use: built fresh
/// arena.store_flat(config, sys);
/// let _sys = arena.take_flat(&config); // reused, reset, allocation-free
/// ```
#[derive(Debug, Default)]
pub struct SimArena {
    pub(crate) flat: Option<(SimulationConfig, StorageSystem)>,
    pub(crate) tiered: Option<(SimulationConfig, TieredStorageSystem)>,
    records: Vec<TraceRecord>,
}

impl SimArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        SimArena::default()
    }

    /// Hands out a system for `config`: the stored one of its flavor,
    /// reset, when its construction config matches; a freshly built one
    /// otherwise.
    pub(crate) fn take<C: CacheFront>(&mut self, config: &SimulationConfig) -> System<C> {
        match C::arena_slot(self).take() {
            Some((stored, mut system)) if stored == *config => {
                system.reset(config);
                system
            }
            _ => System::new(config),
        }
    }

    /// Returns a system to the arena for the next [`SimArena::take`] of its
    /// flavor.
    pub(crate) fn store<C: CacheFront>(&mut self, config: SimulationConfig, system: System<C>) {
        *C::arena_slot(self) = Some((config, system));
    }

    /// Hands out a flat system for `config`: the stored one, reset, when
    /// its construction config matches; a freshly built one otherwise.
    pub fn take_flat(&mut self, config: &SimulationConfig) -> StorageSystem {
        self.take(config)
    }

    /// Returns a flat system to the arena for the next [`SimArena::take_flat`].
    pub fn store_flat(&mut self, config: SimulationConfig, system: StorageSystem) {
        self.store(config, system);
    }

    /// Hands out a tiered system for `config`: the stored one, reset, when
    /// its construction config matches; a freshly built one otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `config` carries no tier topology and no stored system
    /// matches.
    pub fn take_tiered(&mut self, config: &SimulationConfig) -> TieredStorageSystem {
        self.take(config)
    }

    /// Returns a tiered system to the arena for the next
    /// [`SimArena::take_tiered`].
    pub fn store_tiered(&mut self, config: SimulationConfig, system: TieredStorageSystem) {
        self.store(config, system);
    }

    /// Hands out the interval-arrivals buffer (empty, with the capacity of
    /// every earlier run's largest interval).
    pub(crate) fn take_records(&mut self) -> Vec<TraceRecord> {
        std::mem::take(&mut self.records)
    }

    /// Returns the interval-arrivals buffer for the next run.
    pub(crate) fn store_records(&mut self, mut records: Vec<TraceRecord>) {
        records.clear();
        self.records = records;
    }
}
