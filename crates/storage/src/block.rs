//! Logical block addressing.
//!
//! The simulator addresses devices in 512-byte sectors (the unit `blktrace`
//! reports) and caches data in fixed-size blocks of [`BLOCK_SECTORS`]
//! sectors (4 KiB, EnhanceIO's default block size).

use std::fmt;

use serde::{Deserialize, Serialize};

/// Size of a device sector in bytes.
pub const SECTOR_SIZE: u64 = 512;

/// Number of sectors per cache block (4 KiB blocks, EnhanceIO's default).
pub const BLOCK_SECTORS: u64 = 8;

/// A logical block address, expressed in sectors from the start of the
/// device, exactly as `blktrace` records it.
///
/// ```
/// use lbica_storage::block::{Lba, BLOCK_SECTORS};
/// let lba = Lba::new(17);
/// assert_eq!(lba.block_index(), 17 / BLOCK_SECTORS);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Lba(u64);

impl Lba {
    /// Creates an LBA from a sector number.
    pub const fn new(sector: u64) -> Self {
        Lba(sector)
    }

    /// The raw sector number.
    pub const fn sector(self) -> u64 {
        self.0
    }

    /// The cache-block index this sector falls into.
    pub const fn block_index(self) -> u64 {
        self.0 / BLOCK_SECTORS
    }

    /// The first sector of the cache block containing this LBA.
    pub const fn block_aligned(self) -> Lba {
        Lba(self.0 - self.0 % BLOCK_SECTORS)
    }

    /// Byte offset of this LBA from the start of the device.
    pub const fn byte_offset(self) -> u64 {
        self.0 * SECTOR_SIZE
    }

    /// Returns the LBA `sectors` sectors after this one.
    pub const fn offset(self, sectors: u64) -> Lba {
        Lba(self.0 + sectors)
    }
}

impl fmt::Display for Lba {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lba:{}", self.0)
    }
}

impl From<u64> for Lba {
    fn from(sector: u64) -> Self {
        Lba(sector)
    }
}

/// A contiguous range of sectors `[start, start + sectors)`.
///
/// Ranges are what requests carry; the cache module splits them into
/// block-aligned pieces.
///
/// ```
/// use lbica_storage::block::{BlockRange, Lba};
/// let a = BlockRange::new(Lba::new(0), 8);
/// let b = BlockRange::new(Lba::new(4), 8);
/// assert!(a.overlaps(&b));
/// assert_eq!(b.end(), Lba::new(12));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BlockRange {
    start: Lba,
    sectors: u64,
}

impl BlockRange {
    /// Creates a range starting at `start` spanning `sectors` sectors.
    ///
    /// # Panics
    ///
    /// Panics if `sectors` is zero; a zero-length I/O is meaningless and
    /// always indicates a bug in the caller.
    pub fn new(start: Lba, sectors: u64) -> Self {
        assert!(sectors > 0, "a block range must span at least one sector");
        BlockRange { start, sectors }
    }

    /// First sector of the range.
    pub const fn start(&self) -> Lba {
        self.start
    }

    /// One past the last sector of the range.
    pub const fn end(&self) -> Lba {
        Lba::new(self.start.sector() + self.sectors)
    }

    /// Number of sectors in the range.
    pub const fn sectors(&self) -> u64 {
        self.sectors
    }

    /// Size of the range in bytes.
    pub const fn bytes(&self) -> u64 {
        self.sectors * SECTOR_SIZE
    }

    /// Whether the two ranges share at least one sector.
    pub fn overlaps(&self, other: &BlockRange) -> bool {
        self.start.sector() < other.end().sector() && other.start.sector() < self.end().sector()
    }

    /// Whether `lba` falls inside the range.
    pub fn contains(&self, lba: Lba) -> bool {
        lba.sector() >= self.start.sector() && lba.sector() < self.end().sector()
    }

    /// Iterates the cache-block indices touched by the range.
    pub fn block_indices(&self) -> impl Iterator<Item = u64> {
        let first = self.start.block_index();
        let last = Lba::new(self.end().sector().saturating_sub(1)).block_index();
        first..=last
    }
}

impl fmt::Display for BlockRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}+{})", self.start, self.sectors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lba_block_alignment() {
        assert_eq!(Lba::new(0).block_index(), 0);
        assert_eq!(Lba::new(7).block_index(), 0);
        assert_eq!(Lba::new(8).block_index(), 1);
        assert_eq!(Lba::new(13).block_aligned(), Lba::new(8));
        assert_eq!(Lba::new(13).byte_offset(), 13 * SECTOR_SIZE);
    }

    #[test]
    #[should_panic(expected = "at least one sector")]
    fn zero_length_range_panics() {
        let _ = BlockRange::new(Lba::new(0), 0);
    }

    #[test]
    fn adjacency_and_overlap() {
        let a = BlockRange::new(Lba::new(0), 8);
        let b = BlockRange::new(Lba::new(8), 8);
        let c = BlockRange::new(Lba::new(4), 8);
        let d = BlockRange::new(Lba::new(100), 8);
        assert!(a.overlaps(&c));
        assert!(!a.overlaps(&b));
        assert!(!a.overlaps(&d));
    }

    #[test]
    fn block_indices_cover_partial_blocks() {
        let r = BlockRange::new(Lba::new(6), 4); // spans blocks 0 and 1
        let idx: Vec<u64> = r.block_indices().collect();
        assert_eq!(idx, vec![0, 1]);
        let single = BlockRange::new(Lba::new(8), 8);
        assert_eq!(single.block_indices().collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn contains_is_half_open() {
        let r = BlockRange::new(Lba::new(10), 5);
        assert!(r.contains(Lba::new(10)));
        assert!(r.contains(Lba::new(14)));
        assert!(!r.contains(Lba::new(15)));
        assert!(!r.contains(Lba::new(9)));
    }
}
