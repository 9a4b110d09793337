//! A crafted [`SetAssociativeMap`] snapshot is refused with a typed error
//! instead of restoring a map that panics on its next insert.
//!
//! The wire format stores recency links as global slot indices (`u32`,
//! `u32::MAX` for none): a 17-byte header (`num_sets`, `associativity`,
//! replacement tag), then 17 bytes per slot (tag, state byte, `next` at
//! +9, `prev` at +13), then `head` and `tail` per set.

use lbica_cache::{ReplacementKind, SetAssociativeMap, SlotState};
use lbica_storage::snap::{SnapError, SnapReader, SnapWriter};

const NIL: u32 = u32::MAX;
const HEADER: usize = 17;

fn next_off(slot: usize) -> usize {
    HEADER + slot * 17 + 9
}

fn snap(m: &SetAssociativeMap) -> Vec<u8> {
    let mut w = SnapWriter::new();
    m.snap_to(&mut w);
    w.into_bytes()
}

/// Snapshot bytes of `m` with the `u32` at byte `off` replaced.
fn snap_with_u32(m: &SetAssociativeMap, off: usize, v: u32) -> Vec<u8> {
    let mut bytes = snap(m);
    bytes[off..off + 4].copy_from_slice(&v.to_le_bytes());
    bytes
}

fn restore(bytes: &[u8]) -> Result<SetAssociativeMap, SnapError> {
    SetAssociativeMap::snap_from(&mut SnapReader::new(bytes))
}

#[test]
fn a_full_set_with_a_nil_head_is_corrupt() {
    let mut m = SetAssociativeMap::new(1, 2, ReplacementKind::Lru);
    m.insert(0, SlotState::Clean);
    m.insert(1, SlotState::Clean);
    let bytes = snap_with_u32(&m, HEADER + 2 * 17, NIL);
    assert_eq!(restore(&bytes), Err(SnapError::Corrupt("recency list")));
}

#[test]
fn a_link_into_another_set_is_corrupt() {
    let mut m = SetAssociativeMap::new(2, 2, ReplacementKind::Lru);
    for b in [0, 1, 2] {
        m.insert(b, SlotState::Clean);
    }
    // Slot 0 (set 0) links hotter to slot 1; point it at slot 2 (set 1).
    let bytes = snap_with_u32(&m, next_off(0), 2);
    assert_eq!(restore(&bytes), Err(SnapError::Corrupt("recency link out of range")));
}

#[test]
fn associativity_beyond_the_way_links_is_corrupt() {
    for associativity in [u16::MAX as usize, u16::MAX as usize + 1] {
        let mut w = SnapWriter::new();
        w.put_usize(1);
        w.put_usize(associativity);
        w.put_u8(0);
        let bytes = w.into_bytes();
        assert_eq!(
            restore(&bytes),
            Err(SnapError::Corrupt("cache map geometry")),
            "associativity {associativity}"
        );
    }
}

#[test]
fn a_geometry_larger_than_the_buffer_is_refused_before_allocating() {
    let mut w = SnapWriter::new();
    w.put_usize(1 << 30);
    w.put_usize(2);
    w.put_u8(0);
    let bytes = w.into_bytes();
    assert!(matches!(restore(&bytes), Err(SnapError::UnexpectedEof { .. })));
}

#[test]
fn every_single_link_rewrite_is_corrupt() {
    // A full set and a set with one empty way: rewriting any one link
    // (slot `next`/`prev`, set `head`/`tail`) to any other way, a way past
    // the set, or NIL must be refused; keeping its value restores the map.
    for blocks in [&[0u64, 1, 2][..], &[0, 1]] {
        let mut m = SetAssociativeMap::new(1, 3, ReplacementKind::Lru);
        for &b in blocks {
            m.insert(b, SlotState::Dirty);
        }
        m.touch(0);
        let original = snap(&m);
        let slot_links = (0..3).flat_map(|slot| [next_off(slot), next_off(slot) + 4]);
        for off in slot_links.chain([HEADER + 3 * 17, HEADER + 3 * 17 + 4]) {
            for v in [0, 1, 2, 3, NIL] {
                let bytes = snap_with_u32(&m, off, v);
                let restored = restore(&bytes);
                if bytes == original {
                    assert_eq!(restored.as_ref(), Ok(&m));
                } else {
                    assert!(
                        matches!(restored, Err(SnapError::Corrupt(_))),
                        "{blocks:?}: link at byte {off} = {v} accepted"
                    );
                }
            }
        }
    }
}
