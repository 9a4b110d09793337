//! Cache statistics.

use lbica_storage::snap::{SnapError, SnapReader, SnapWriter};
use serde::{Deserialize, Serialize};

/// Cumulative counters maintained by a [`crate::CacheModule`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CacheStats {
    /// Application reads that hit the cache.
    pub read_hits: u64,
    /// Application reads that missed.
    pub read_misses: u64,
    /// Application writes absorbed by the cache (hit or allocate).
    pub write_hits: u64,
    /// Application writes that missed and were allocated or bypassed.
    pub write_misses: u64,
    /// Promote operations generated (missed read data installed in the cache).
    pub promotes: u64,
    /// Dirty evictions written back to the disk subsystem.
    pub dirty_evictions: u64,
    /// Clean evictions (victim dropped without I/O).
    pub clean_evictions: u64,
    /// Application writes bypassed directly to the disk subsystem
    /// (read-only policy).
    pub write_bypasses: u64,
    /// Read misses that were *not* promoted (write-only policy).
    pub unpromoted_read_misses: u64,
    /// Cached blocks invalidated because a bypassed write made them stale.
    pub invalidations: u64,
    /// Dirty blocks flushed in the background. Nothing in the simulator
    /// flushes, so this is always 0; it stays in checkpoints and in
    /// perfbench's report digest.
    pub flushes: u64,
}

impl CacheStats {
    /// Total application read accesses observed.
    pub fn reads(&self) -> u64 {
        self.read_hits + self.read_misses
    }

    /// Total application write accesses observed.
    pub fn writes(&self) -> u64 {
        self.write_hits + self.write_misses
    }

    /// Read hit ratio in `[0, 1]`; zero when no reads were observed.
    pub fn read_hit_ratio(&self) -> f64 {
        if self.reads() == 0 {
            0.0
        } else {
            self.read_hits as f64 / self.reads() as f64
        }
    }

    /// Overall hit ratio (reads and cache-absorbed writes) in `[0, 1]`.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.reads() + self.writes();
        if total == 0 {
            0.0
        } else {
            (self.read_hits + self.write_hits) as f64 / total as f64
        }
    }

    /// Total evictions of either kind.
    pub fn evictions(&self) -> u64 {
        self.dirty_evictions + self.clean_evictions
    }

    /// Serializes the counters for a replay checkpoint.
    pub fn snap_to(&self, w: &mut SnapWriter) {
        for v in [
            self.read_hits,
            self.read_misses,
            self.write_hits,
            self.write_misses,
            self.promotes,
            self.dirty_evictions,
            self.clean_evictions,
            self.write_bypasses,
            self.unpromoted_read_misses,
            self.invalidations,
            self.flushes,
        ] {
            w.put_u64(v);
        }
    }

    /// Restores counters serialized by [`CacheStats::snap_to`].
    pub fn snap_from(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(CacheStats {
            read_hits: r.get_u64()?,
            read_misses: r.get_u64()?,
            write_hits: r.get_u64()?,
            write_misses: r.get_u64()?,
            promotes: r.get_u64()?,
            dirty_evictions: r.get_u64()?,
            clean_evictions: r.get_u64()?,
            write_bypasses: r.get_u64()?,
            unpromoted_read_misses: r.get_u64()?,
            invalidations: r.get_u64()?,
            flushes: r.get_u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_handle_empty_and_nonempty() {
        let empty = CacheStats::default();
        assert_eq!(empty.read_hit_ratio(), 0.0);
        assert_eq!(empty.hit_ratio(), 0.0);

        let s = CacheStats {
            read_hits: 3,
            read_misses: 1,
            write_hits: 4,
            write_misses: 2,
            ..CacheStats::default()
        };
        assert!((s.read_hit_ratio() - 0.75).abs() < 1e-12);
        assert!((s.hit_ratio() - 0.7).abs() < 1e-12);
        assert_eq!(s.reads(), 4);
        assert_eq!(s.writes(), 6);
    }

    #[test]
    fn evictions_sum_both_kinds() {
        let s = CacheStats { dirty_evictions: 2, clean_evictions: 5, ..CacheStats::default() };
        assert_eq!(s.evictions(), 7);
    }
}
