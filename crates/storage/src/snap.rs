//! Hand-rolled little-endian snapshot encoding.
//!
//! Replay segment checkpoints serialize the *full* mid-flight state of a
//! simulation — queues, in-flight requests, cache maps, tracker slabs — so a
//! run split at an interval boundary resumes byte-identically. The workspace
//! vendors a no-op `serde`, so the encoding is written by hand: fixed-width
//! little-endian integers, length-prefixed strings, and tag bytes for
//! options and enums. [`SnapReader`] treats its input as untrusted (a
//! checkpoint file may be truncated or corrupted on disk) and returns typed
//! [`SnapError`]s instead of panicking, mirroring the binary trace codec's
//! hostile-input hardening.

use std::fmt;

/// Why a snapshot buffer could not be decoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapError {
    /// The buffer ended before a field was complete.
    UnexpectedEof {
        /// Bytes the field needed.
        needed: usize,
        /// Bytes actually left.
        remaining: usize,
    },
    /// A field held a value the schema does not allow.
    Corrupt(&'static str),
    /// The snapshot decoded, but the caller used it against the wrong run:
    /// a different cell, a split past the end, or an observed run.
    Mismatch(&'static str),
    /// The buffer holds bytes past the end of the decoded structure.
    TrailingBytes {
        /// How many bytes were left over.
        remaining: usize,
    },
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::UnexpectedEof { needed, remaining } => {
                write!(f, "snapshot truncated: needed {needed} bytes, {remaining} left")
            }
            SnapError::Corrupt(what) => write!(f, "snapshot corrupt: {what}"),
            SnapError::Mismatch(what) => write!(f, "snapshot does not fit this run: {what}"),
            SnapError::TrailingBytes { remaining } => {
                write!(f, "snapshot has {remaining} trailing bytes")
            }
        }
    }
}

impl std::error::Error for SnapError {}

/// Appends snapshot fields to a growing byte buffer.
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        SnapWriter { buf: Vec::new() }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, returning the encoded buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Writes one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as a `u64`.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Writes a bool as a 0/1 tag byte.
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Writes an `f64` by bit pattern (exact round-trip).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Writes an optional `u64` as a tag byte plus, when present, the value.
    pub fn put_opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(v) => {
                self.put_u8(1);
                self.put_u64(v);
            }
            None => self.put_u8(0),
        }
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Writes a length-prefixed opaque byte blob (e.g. a nested snapshot).
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_usize(bytes.len());
        self.buf.extend_from_slice(bytes);
    }
}

/// Decodes snapshot fields from an untrusted byte buffer.
#[derive(Debug)]
pub struct SnapReader<'a> {
    data: &'a [u8],
}

impl<'a> SnapReader<'a> {
    /// Wraps a buffer for decoding.
    pub fn new(data: &'a [u8]) -> Self {
        SnapReader { data }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        if self.data.len() < n {
            return Err(SnapError::UnexpectedEof { needed: n, remaining: self.data.len() });
        }
        let (head, tail) = self.data.split_at(n);
        self.data = tail;
        Ok(head)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, SnapError> {
        let bytes = self.take(4)?;
        Ok(u32::from_le_bytes(bytes.try_into().expect("take returned 4 bytes")))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, SnapError> {
        let bytes = self.take(8)?;
        Ok(u64::from_le_bytes(bytes.try_into().expect("take returned 8 bytes")))
    }

    /// Reads a `usize` stored as a `u64`.
    pub fn get_usize(&mut self) -> Result<usize, SnapError> {
        usize::try_from(self.get_u64()?).map_err(|_| SnapError::Corrupt("usize overflow"))
    }

    /// Reads a 0/1 tag byte as a bool.
    pub fn get_bool(&mut self) -> Result<bool, SnapError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapError::Corrupt("bool tag")),
        }
    }

    /// Reads an `f64` stored by bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, SnapError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads an optional `u64`.
    pub fn get_opt_u64(&mut self) -> Result<Option<u64>, SnapError> {
        match self.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.get_u64()?)),
            _ => Err(SnapError::Corrupt("option tag")),
        }
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, SnapError> {
        let len = self.get_usize()?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| SnapError::Corrupt("string utf-8"))
    }

    /// Reads a length-prefixed opaque byte blob.
    pub fn get_bytes(&mut self) -> Result<Vec<u8>, SnapError> {
        let len = self.get_usize()?;
        Ok(self.take(len)?.to_vec())
    }

    /// Asserts the whole buffer was consumed.
    pub fn finish(self) -> Result<(), SnapError> {
        if self.data.is_empty() {
            Ok(())
        } else {
            Err(SnapError::TrailingBytes { remaining: self.data.len() })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_field_shapes_round_trip() {
        let mut w = SnapWriter::new();
        w.put_u8(0xab);
        w.put_u32(0xdead_beef);
        w.put_u64(u64::MAX);
        w.put_usize(12_345);
        w.put_bool(true);
        w.put_bool(false);
        w.put_f64(core::f64::consts::PI);
        w.put_opt_u64(None);
        w.put_opt_u64(Some(7));
        w.put_str("tier0-ssd");
        w.put_str("");
        w.put_bytes(&[1, 2, 3]);
        let bytes = w.into_bytes();

        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 0xab);
        assert_eq!(r.get_u32().unwrap(), 0xdead_beef);
        assert_eq!(r.get_u64().unwrap(), u64::MAX);
        assert_eq!(r.get_usize().unwrap(), 12_345);
        assert!(r.get_bool().unwrap());
        assert!(!r.get_bool().unwrap());
        assert_eq!(r.get_f64().unwrap(), core::f64::consts::PI);
        assert_eq!(r.get_opt_u64().unwrap(), None);
        assert_eq!(r.get_opt_u64().unwrap(), Some(7));
        assert_eq!(r.get_str().unwrap(), "tier0-ssd");
        assert_eq!(r.get_str().unwrap(), "");
        assert_eq!(r.get_bytes().unwrap(), vec![1, 2, 3]);
        r.finish().unwrap();
    }

    #[test]
    fn truncation_is_a_typed_error_not_a_panic() {
        let mut w = SnapWriter::new();
        w.put_u64(42);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes[..5]);
        assert_eq!(r.get_u64(), Err(SnapError::UnexpectedEof { needed: 8, remaining: 5 }));
    }

    #[test]
    fn corrupt_tags_are_rejected() {
        let bytes = [7u8];
        assert_eq!(SnapReader::new(&bytes).get_bool(), Err(SnapError::Corrupt("bool tag")));
        assert_eq!(SnapReader::new(&bytes).get_opt_u64(), Err(SnapError::Corrupt("option tag")));
    }

    #[test]
    fn hostile_string_length_is_bounded_by_the_buffer() {
        // A length prefix far beyond the buffer must error, not allocate.
        let mut w = SnapWriter::new();
        w.put_u64(u64::MAX / 2);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert!(matches!(r.get_str(), Err(SnapError::UnexpectedEof { .. })));
    }

    #[test]
    fn trailing_bytes_are_detected() {
        let mut w = SnapWriter::new();
        w.put_u32(1);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let _ = r.get_u8().unwrap();
        assert_eq!(r.finish(), Err(SnapError::TrailingBytes { remaining: 3 }));
    }

    #[test]
    fn invalid_utf8_is_corrupt() {
        let mut w = SnapWriter::new();
        w.put_usize(2);
        let mut bytes = w.into_bytes();
        bytes.extend_from_slice(&[0xff, 0xfe]);
        assert_eq!(SnapReader::new(&bytes).get_str(), Err(SnapError::Corrupt("string utf-8")));
    }
}
