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
//!
//! # The stream memo
//!
//! The cells of one group — the controllers of a (workload, config, seed)
//! triple, and under a literal seed every configuration of a workload too —
//! see the same arrival stream by design. The arena therefore keeps the
//! last full run's synthetic stream, keyed by its [`WorkloadSpec`] and
//! stream seed, and the next full run of the same key decodes it instead
//! of generating it again. Generation is a pure function of that key, so a
//! decoded stream is the generated one record for record.
//!
//! Each interval is stored in one exact-size allocation of one `u64` per
//! record (`offset_us << 32 | block << 1 | is_write`) plus the request
//! length all its records share: a third of a [`TraceRecord`]. A stream
//! that does not pack that way — an unaligned sector, a block at or past
//! 2^31, an arrival 2^32 µs or more into its interval, or an interval
//! mixing request lengths (as tenant mixes do) — is generated on every
//! run. So are replay specs, which borrow their records anyway, and
//! checkpointed or resumed runs, which cover part of a stream.
//!
//! The memo holds a single stream: matrices enumerate the cells of a group
//! back to back, so one entry takes every hit a sweep worker can have, and
//! its memory stays bounded by one stream whatever the matrix size. A
//! miss drops the old stream before the new one is generated.

use lbica_storage::block::BLOCK_SECTORS;
use lbica_storage::request::RequestKind;
use lbica_trace::record::TraceRecord;
use lbica_trace::workload::WorkloadSpec;

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
    stream: Option<StreamMemo>,
    streams_generated: u64,
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

    /// How many full synthetic runs through this arena generated their
    /// arrival stream rather than decoding it from the memo (see the module
    /// docs). Replay specs generate nothing and are not counted.
    pub const fn streams_generated(&self) -> u64 {
        self.streams_generated
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

    /// Where a full run of `spec` under `seed` takes its arrivals from: the
    /// memo when it holds that stream, otherwise generation that records
    /// into a new memo (the old one is dropped first). Replay specs always
    /// borrow their captured records.
    pub(crate) fn take_arrivals(&mut self, spec: &WorkloadSpec, seed: u64) -> Arrivals {
        if spec.is_replay() {
            return Arrivals::Generate;
        }
        match self.stream.take() {
            Some(memo) if memo.seed == seed && memo.spec == *spec => Arrivals::Memo(memo),
            _ => {
                self.streams_generated += 1;
                Arrivals::Record(Vec::with_capacity(spec.total_intervals() as usize))
            }
        }
    }

    /// Keeps a full run's stream for the next [`SimArena::take_arrivals`]:
    /// the memo it decoded, or the one it recorded if every interval
    /// packed.
    pub(crate) fn store_arrivals(&mut self, arrivals: Arrivals, spec: &WorkloadSpec, seed: u64) {
        match arrivals {
            Arrivals::Memo(memo) => self.stream = Some(memo),
            Arrivals::Record(intervals) => {
                debug_assert_eq!(intervals.len(), spec.total_intervals() as usize);
                self.stream = Some(StreamMemo { spec: spec.clone(), seed, intervals });
            }
            Arrivals::Generate => {}
        }
    }
}

/// A full run's synthetic stream, packed, with the key it was generated
/// from.
#[derive(Debug)]
pub(crate) struct StreamMemo {
    spec: WorkloadSpec,
    seed: u64,
    intervals: Vec<PackedInterval>,
}

/// One interval of a memoized stream: one `u64` per record
/// (`offset_us << 32 | block << 1 | is_write`, the offset counted from the
/// interval's start) and the request length every record shares.
#[derive(Debug)]
pub(crate) struct PackedInterval {
    sectors: u32,
    records: Box<[u64]>,
}

impl PackedInterval {
    /// Packs `records`, the arrivals of an interval starting at
    /// `start_us`, or `None` if one of them does not fit the encoding.
    fn pack(start_us: u64, records: &[TraceRecord]) -> Option<Self> {
        let sectors = records.first().map_or(0, |r| r.sectors);
        let mut packed = Vec::with_capacity(records.len());
        for r in records {
            let offset = r.timestamp_us.checked_sub(start_us)?;
            let block = r.sector / BLOCK_SECTORS;
            let fits = r.sectors == sectors && r.sector % BLOCK_SECTORS == 0;
            if !fits || offset >> 32 != 0 || block >> 31 != 0 {
                return None;
            }
            packed.push(offset << 32 | block << 1 | u64::from(!r.kind.is_read()));
        }
        Some(PackedInterval { sectors, records: packed.into_boxed_slice() })
    }

    /// Decodes the records, in order, into `schedule`.
    fn for_each(&self, start_us: u64, mut schedule: impl FnMut(&TraceRecord)) {
        for &word in self.records.iter() {
            let kind = if word & 1 == 0 { RequestKind::Read } else { RequestKind::Write };
            let block = (word & 0xFFFF_FFFF) >> 1;
            let record = TraceRecord::new(
                start_us + (word >> 32),
                block * BLOCK_SECTORS,
                self.sectors,
                kind,
            );
            schedule(&record);
        }
    }
}

/// Where one run's arrivals come from, interval by interval.
#[derive(Debug)]
pub(crate) enum Arrivals {
    /// Generated (or borrowed from a replay) and not kept: checkpointed and
    /// resumed runs, replay specs, and streams that do not pack.
    Generate,
    /// Generated and packed into the memo as the run goes.
    Record(Vec<PackedInterval>),
    /// Decoded from the memo.
    Memo(StreamMemo),
}

impl Arrivals {
    /// Feeds interval `index` of `spec` under `seed` into `schedule`, in
    /// the order [`WorkloadSpec::interval_records`] gives. `buf` is the
    /// generation buffer.
    pub(crate) fn feed(
        &mut self,
        spec: &WorkloadSpec,
        seed: u64,
        index: u32,
        buf: &mut Vec<TraceRecord>,
        mut schedule: impl FnMut(&TraceRecord),
    ) {
        let start_us = u64::from(index) * spec.interval_us();
        if let Arrivals::Memo(memo) = self {
            memo.intervals[index as usize].for_each(start_us, schedule);
            return;
        }
        let records = spec.interval_records(index, seed, buf);
        records.iter().for_each(&mut schedule);
        if let Arrivals::Record(intervals) = self {
            match PackedInterval::pack(start_us, records) {
                Some(packed) => intervals.push(packed),
                None => *self = Arrivals::Generate,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unpack(packed: &PackedInterval, start_us: u64) -> Vec<TraceRecord> {
        let mut out = Vec::new();
        packed.for_each(start_us, |r| out.push(*r));
        out
    }

    #[test]
    fn packing_round_trips_at_the_field_limits() {
        let start = 7 * 1_000_000;
        let max_block = (1u64 << 31) - 1;
        let records = [
            TraceRecord::new(start, 0, 8, RequestKind::Read),
            TraceRecord::new(
                start + u64::from(u32::MAX),
                max_block * BLOCK_SECTORS,
                8,
                RequestKind::Write,
            ),
            TraceRecord::new(start + 5, 16, 8, RequestKind::Write),
        ];
        let packed = PackedInterval::pack(start, &records).expect("every record fits");
        assert_eq!(packed.records.len(), 3);
        assert_eq!(unpack(&packed, start), records);
        let empty = PackedInterval::pack(start, &[]).expect("an empty interval packs");
        assert!(unpack(&empty, start).is_empty());
    }

    #[test]
    fn records_outside_the_encoding_do_not_pack() {
        let start = 1_000;
        let ok = TraceRecord::new(start, 64, 8, RequestKind::Read);
        let misfits = [
            TraceRecord::new(start, 65, 8, RequestKind::Read),
            TraceRecord::new(start, (1u64 << 31) * BLOCK_SECTORS, 8, RequestKind::Read),
            TraceRecord::new(start + (1u64 << 32), 64, 8, RequestKind::Read),
            TraceRecord::new(start - 1, 64, 8, RequestKind::Read),
            TraceRecord::new(start, 64, 16, RequestKind::Read),
        ];
        for misfit in misfits {
            assert!(PackedInterval::pack(start, &[ok, misfit]).is_none(), "{misfit:?} packed");
        }
    }
}
