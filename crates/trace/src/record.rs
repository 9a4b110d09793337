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
/// use lbica_trace::record::TraceRecord;
/// use lbica_storage::request::RequestKind;
///
/// let rec = TraceRecord::new(1_000, 2048, 8, RequestKind::Read);
/// assert_eq!(rec.to_line(), "1000 2048 8 R");
/// assert_eq!(TraceRecord::parse_line(&rec.to_line()).unwrap(), rec);
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

    /// Serialises the record to the single-line text format
    /// `"<ts_us> <sector> <sectors> <R|W>"`.
    pub fn to_line(&self) -> String {
        format!(
            "{} {} {} {}",
            self.timestamp_us,
            self.sector,
            self.sectors,
            if self.kind.is_read() { 'R' } else { 'W' }
        )
    }

    /// Parses a record from the text format produced by [`Self::to_line`].
    ///
    /// # Errors
    ///
    /// Returns a [`ParseRecordError`] describing the offending field when
    /// the line is malformed.
    pub fn parse_line(line: &str) -> Result<Self, ParseRecordError> {
        let mut parts = line.split_whitespace();
        let ts = parts
            .next()
            .ok_or_else(|| ParseRecordError::missing("timestamp"))?
            .parse::<u64>()
            .map_err(|_| ParseRecordError::invalid("timestamp"))?;
        let sector = parts
            .next()
            .ok_or_else(|| ParseRecordError::missing("sector"))?
            .parse::<u64>()
            .map_err(|_| ParseRecordError::invalid("sector"))?;
        let sectors = parts
            .next()
            .ok_or_else(|| ParseRecordError::missing("length"))?
            .parse::<u32>()
            .map_err(|_| ParseRecordError::invalid("length"))?;
        if sectors == 0 {
            return Err(ParseRecordError::invalid("length"));
        }
        let kind = match parts.next() {
            Some("R") | Some("r") => RequestKind::Read,
            Some("W") | Some("w") => RequestKind::Write,
            Some(_) => return Err(ParseRecordError::invalid("direction")),
            None => return Err(ParseRecordError::missing("direction")),
        };
        if parts.next().is_some() {
            return Err(ParseRecordError::invalid("trailing fields"));
        }
        Ok(TraceRecord::new(ts, sector, sectors, kind))
    }
}

impl fmt::Display for TraceRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_line())
    }
}

/// Error returned when a trace line cannot be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseRecordError {
    field: &'static str,
    missing: bool,
}

impl ParseRecordError {
    fn missing(field: &'static str) -> Self {
        ParseRecordError { field, missing: true }
    }

    fn invalid(field: &'static str) -> Self {
        ParseRecordError { field, missing: false }
    }
}

impl fmt::Display for ParseRecordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.missing {
            write!(f, "missing {} field in trace line", self.field)
        } else {
            write!(f, "invalid {} field in trace line", self.field)
        }
    }
}

impl std::error::Error for ParseRecordError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_round_trip() {
        let rec = TraceRecord::new(123, 4096, 16, RequestKind::Write);
        assert_eq!(rec.to_line(), "123 4096 16 W");
        assert_eq!(TraceRecord::parse_line("123 4096 16 W").unwrap(), rec);
        assert_eq!(TraceRecord::parse_line("123 4096 16 w").unwrap(), rec);
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(TraceRecord::parse_line("").is_err());
        assert!(TraceRecord::parse_line("1 2 3").is_err());
        assert!(TraceRecord::parse_line("1 2 3 X").is_err());
        assert!(TraceRecord::parse_line("a 2 3 R").is_err());
        assert!(TraceRecord::parse_line("1 2 0 R").is_err());
        assert!(TraceRecord::parse_line("1 2 3 R extra").is_err());
        assert!(TraceRecord::parse_line("1 2 4294967295 R").is_ok());
        let err = TraceRecord::parse_line("1 2 3").unwrap_err();
        assert!(err.to_string().contains("direction"));
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
