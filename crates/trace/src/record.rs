//! `blktrace`-style trace records.

use std::fmt;

use serde::{Deserialize, Serialize};

use lbica_storage::request::{IoRequest, RequestId, RequestKind, RequestOrigin};
use lbica_storage::time::SimTime;

/// One logged block-layer request, in the spirit of a `blktrace` queue
/// event: a timestamp, an LBA, a length in sectors and a direction.
///
/// A record is 24 bytes: two `u64`s, a `u32` length and a one-byte
/// direction, padded to the `u64` alignment. The length is `u32` because
/// both codecs store it in 32 bits; a replayed capture holds one record per
/// request, so this size is what a trace costs in memory.
///
/// ```
/// use lbica_trace::io::import_text_trace;
/// use lbica_trace::record::TraceRecord;
/// use lbica_storage::request::RequestKind;
///
/// let rec = TraceRecord::new(1_000, 2048, 8, RequestKind::Read);
/// assert_eq!(rec.to_line(), "1000 2048 8 R");
/// assert_eq!(import_text_trace(rec.to_line().as_bytes()).unwrap(), vec![rec]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceRecord {
    /// Arrival timestamp in microseconds since trace start.
    pub timestamp_us: u64,
    /// Starting sector.
    pub sector: u64,
    /// Length in sectors.
    pub sectors: u32,
    /// Read or write.
    pub kind: RequestKind,
}

const _: () = assert!(std::mem::size_of::<TraceRecord>() == 24);

impl TraceRecord {
    /// Creates a record.
    pub fn new(timestamp_us: u64, sector: u64, sectors: u32, kind: RequestKind) -> Self {
        TraceRecord { timestamp_us, sector, sectors, kind }
    }

    /// Converts the record into an application [`IoRequest`] with the given
    /// id.
    pub fn to_request(&self, id: RequestId) -> IoRequest {
        let sectors = u64::from(self.sectors);
        IoRequest::new(id, self.kind, RequestOrigin::Application, self.sector, sectors)
            .with_arrival(SimTime::from_micros(self.timestamp_us))
    }

    /// The longest line [`Self::push_line`] appends: two 20-digit `u64`s, a
    /// 10-digit `u32`, the direction letter and three spaces.
    pub(crate) const MAX_LINE_BYTES: usize = 20 + 1 + 20 + 1 + 10 + 1 + 1;

    /// Serialises the record to the single-line text format
    /// `"<ts_us> <sector> <sectors> <R|W>"`, which
    /// [`import_text_trace`](crate::io::import_text_trace) reads back.
    pub fn to_line(&self) -> String {
        let mut line = Vec::with_capacity(Self::MAX_LINE_BYTES);
        self.push_line(&mut line);
        String::from_utf8(line).expect("a record line is ASCII")
    }

    /// Appends [`Self::to_line`]'s text to `out` without allocating: the
    /// one definition of the line format, shared with
    /// [`write_text_trace`](crate::io::write_text_trace).
    pub(crate) fn push_line(&self, out: &mut Vec<u8>) {
        push_decimal(out, self.timestamp_us);
        out.push(b' ');
        push_decimal(out, self.sector);
        out.push(b' ');
        push_decimal(out, u64::from(self.sectors));
        out.push(b' ');
        out.push(if self.kind.is_read() { b'R' } else { b'W' });
    }
}

/// Sorts records by timestamp, stably. A time-ordered trace is left as it
/// is, which also spares the stable sort's scratch copy of the trace.
pub(crate) fn sort_by_time(records: &mut [TraceRecord]) {
    if !records.is_sorted_by_key(|r| r.timestamp_us) {
        records.sort_by_key(|r| r.timestamp_us);
    }
}

/// Appends `value` in decimal, as `Display` formats it.
fn push_decimal(out: &mut Vec<u8>, mut value: u64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        // `value % 10` is a single digit, so the cast cannot truncate.
        digits[start] = b'0' + (value % 10) as u8;
        value /= 10;
        if value == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[start..]);
}

impl fmt::Display for TraceRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_line())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_round_trip() {
        use crate::io::import_text_trace;
        let rec = TraceRecord::new(123, 4096, 16, RequestKind::Write);
        assert_eq!(rec.to_line(), "123 4096 16 W");
        assert_eq!(import_text_trace("123 4096 16 W".as_bytes()).unwrap(), vec![rec]);
        assert_eq!(import_text_trace("123 4096 16 w".as_bytes()).unwrap(), vec![rec]);
    }

    #[test]
    fn to_line_matches_display_formatting_at_the_field_limits() {
        for (ts, sector, sectors) in [(0, 0, 0), (9, 10, 1), (u64::MAX, u64::MAX, u32::MAX)] {
            for kind in [RequestKind::Read, RequestKind::Write] {
                let rec = TraceRecord::new(ts, sector, sectors, kind);
                let dir = if kind.is_read() { 'R' } else { 'W' };
                assert_eq!(rec.to_line(), format!("{ts} {sector} {sectors} {dir}"));
            }
        }
        let longest = TraceRecord::new(u64::MAX, u64::MAX, u32::MAX, RequestKind::Write);
        assert_eq!(longest.to_line().len(), TraceRecord::MAX_LINE_BYTES);
    }

    #[test]
    fn to_request_preserves_fields() {
        let rec = TraceRecord::new(500, 64, 8, RequestKind::Read);
        let req = rec.to_request(77);
        assert_eq!(req.id(), 77);
        assert_eq!(req.kind(), RequestKind::Read);
        assert_eq!(req.origin(), RequestOrigin::Application);
        assert_eq!(req.range().start().sector(), 64);
        assert_eq!(req.range().sectors(), 8);
        assert_eq!(req.arrival().as_micros(), 500);
    }
}
