//! Trace readers and writers.
//!
//! Two encodings are provided:
//!
//! * a human-readable text format (one [`TraceRecord`] per line), written
//!   by [`write_text_trace`] and read by [`import_text_trace`], the one
//!   text-trace reader, which also takes external CSV and blktrace-style
//!   captures, and
//! * a compact binary format ([`BinaryTraceCodec`]) using fixed-width
//!   little-endian fields, convenient for large synthetic traces.
//!
//! The text path allocates nothing per record. The writer formats lines
//! into one reused chunk of about 64 KiB and hands the underlying writer
//! whole chunks, so an unbuffered `File` sees one write per chunk, not one
//! per line. The reader reads each line into one reused byte buffer,
//! checks it is UTF-8 in place, and trims, splits and parses it as `str`
//! (Unicode whitespace) without collecting its fields. An all-ASCII line
//! is split byte-wise, which gives the same fields faster.

use std::io::{self, BufRead, Write};

use bytes::{Buf, Bytes};

use lbica_storage::request::RequestKind;

use crate::record::{sort_by_time, TraceRecord};

/// Bytes [`write_text_trace`] gathers before each `write_all`.
const TEXT_CHUNK_BYTES: usize = 64 * 1024;

/// The longest line [`write_text_trace`] emits, newline included.
const MAX_TEXT_LINE_BYTES: usize = TraceRecord::MAX_LINE_BYTES + 1;

/// Writes records to `writer`, one text line per record; read them back
/// with [`import_text_trace`]. Each line is byte-identical to
/// [`TraceRecord::to_line`] plus `\n`. Lines are gathered into chunks of
/// about 64 KiB, and `writer` receives one `write_all` per chunk.
///
/// # Errors
///
/// Propagates any I/O error from the underlying writer.
pub fn write_text_trace<W: Write>(mut writer: W, records: &[TraceRecord]) -> io::Result<()> {
    let capacity = TEXT_CHUNK_BYTES.min(records.len().saturating_mul(MAX_TEXT_LINE_BYTES));
    let mut chunk = Vec::with_capacity(capacity);
    for rec in records {
        rec.push_line(&mut chunk);
        chunk.push(b'\n');
        if chunk.len() + MAX_TEXT_LINE_BYTES > TEXT_CHUNK_BYTES {
            writer.write_all(&chunk)?;
            chunk.clear();
        }
    }
    if !chunk.is_empty() {
        writer.write_all(&chunk)?;
    }
    Ok(())
}

/// Why one line of an imported text trace was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ImportLineError {
    /// A required field is absent.
    MissingField(&'static str),
    /// A numeric field failed to parse as an unsigned integer.
    InvalidNumber(&'static str),
    /// The record covers zero sectors.
    ZeroLength,
    /// The record's length exceeds the binary format's 32-bit field, so it
    /// could never be encoded by [`BinaryTraceCodec`].
    LengthTooLarge,
    /// `sector + sectors` overflows the 64-bit address space (e.g. a hostile
    /// `u64::MAX` offset).
    RangeOverflow,
    /// The direction field is neither a read nor a write marker.
    UnknownDirection,
    /// The line carries extra fields after the direction.
    TrailingFields,
}

impl std::fmt::Display for ImportLineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ImportLineError::MissingField(field) => write!(f, "missing field `{field}`"),
            ImportLineError::InvalidNumber(field) => {
                write!(f, "field `{field}` is not an unsigned integer")
            }
            ImportLineError::ZeroLength => write!(f, "record covers zero sectors"),
            ImportLineError::LengthTooLarge => {
                write!(f, "record length exceeds the binary format's 32-bit field")
            }
            ImportLineError::RangeOverflow => {
                write!(f, "sector range overflows the 64-bit address space")
            }
            ImportLineError::UnknownDirection => {
                write!(f, "direction is neither a read nor a write marker")
            }
            ImportLineError::TrailingFields => write!(f, "unexpected fields after the direction"),
        }
    }
}

/// Typed error from [`import_text_trace`]: either an underlying reader
/// failure or a malformed line with its 1-based line number.
#[derive(Debug)]
pub enum ImportError {
    /// The underlying reader failed.
    Io(io::Error),
    /// A line was malformed.
    Line {
        /// 1-based line number in the input.
        line: usize,
        /// What was wrong with it.
        kind: ImportLineError,
    },
}

impl std::fmt::Display for ImportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ImportError::Io(e) => write!(f, "trace import failed: {e}"),
            ImportError::Line { line, kind } => write!(f, "line {line}: {kind}"),
        }
    }
}

impl std::error::Error for ImportError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ImportError::Io(e) => Some(e),
            ImportError::Line { .. } => None,
        }
    }
}

impl From<ImportError> for io::Error {
    fn from(err: ImportError) -> Self {
        match err {
            ImportError::Io(e) => e,
            line @ ImportError::Line { .. } => {
                io::Error::new(io::ErrorKind::InvalidData, line.to_string())
            }
        }
    }
}

/// Rejects a record whose `sector + sectors` overflows the 64-bit address
/// space: replaying it would overflow the block arithmetic. The importer
/// and [`WorkloadSpec::replay_from_binary`](crate::WorkloadSpec::replay_from_binary)
/// both check through here.
pub(crate) fn check_range(record: &TraceRecord) -> Result<(), ImportLineError> {
    match record.sector.checked_add(u64::from(record.sectors)) {
        Some(_) => Ok(()),
        None => Err(ImportLineError::RangeOverflow),
    }
}

/// The direction markers, matched ignoring ASCII case.
fn parse_direction(field: &str) -> Option<RequestKind> {
    let is = |markers: [&str; 3]| markers.iter().any(|m| field.eq_ignore_ascii_case(m));
    if is(["r", "read", "0"]) {
        Some(RequestKind::Read)
    } else if is(["w", "write", "1"]) {
        Some(RequestKind::Write)
    } else {
        None
    }
}

/// Validates one data line's fields. The checks run in a fixed order, so a
/// line with several faults always reports the same one.
fn parse_fields<'a>(
    mut fields: impl Iterator<Item = &'a str>,
) -> Result<TraceRecord, ImportLineError> {
    let mut number = |name| {
        let raw = fields.next().ok_or(ImportLineError::MissingField(name))?;
        raw.parse::<u64>().map_err(|_| ImportLineError::InvalidNumber(name))
    };
    let timestamp_us = number("timestamp_us")?;
    let sector = number("sector")?;
    let sectors = number("sectors")?;
    let direction = fields.next().ok_or(ImportLineError::MissingField("direction"))?;
    if fields.next().is_some() {
        return Err(ImportLineError::TrailingFields);
    }
    if sectors == 0 {
        return Err(ImportLineError::ZeroLength);
    }
    let sectors = u32::try_from(sectors).map_err(|_| ImportLineError::LengthTooLarge)?;
    let kind = parse_direction(direction).ok_or(ImportLineError::UnknownDirection)?;
    let record = TraceRecord::new(timestamp_us, sector, sectors, kind);
    check_range(&record)?;
    Ok(record)
}

/// One line (its line ending included, which `trim` drops): a record, or
/// `None` for a blank line, a `#` comment or a leading CSV header.
fn parse_line(
    line: &str,
    seen_data_line: &mut bool,
) -> Result<Option<TraceRecord>, ImportLineError> {
    let trimmed = line.trim();
    if trimmed.is_empty() || trimmed.starts_with('#') {
        return Ok(None);
    }
    let first_data_line = !std::mem::replace(seen_data_line, true);
    if trimmed.contains(',') {
        // A leading CSV header (alphabetic first column) is tolerated once.
        if first_data_line && trimmed.chars().next().is_some_and(char::is_alphabetic) {
            return Ok(None);
        }
        parse_fields(trimmed.split(',').map(str::trim)).map(Some)
    } else if trimmed.is_ascii() && !trimmed.contains('\x0B') {
        // On such text `char::is_whitespace` and `u8::is_ascii_whitespace`
        // agree (only the former takes `\x0B`), and the byte-wise split
        // imports a capture measurably faster.
        parse_fields(trimmed.split_ascii_whitespace()).map(Some)
    } else {
        parse_fields(trimmed.split_whitespace()).map(Some)
    }
}

/// Reads a text trace — one written by [`write_text_trace`] or an external
/// capture; the bridge from real-world captures into the scenario matrix.
///
/// Two line formats are accepted, with the same four columns
/// `timestamp_us  sector  sectors  direction`:
///
/// * whitespace-separated (blktrace-style): `1200 4096 8 W`
/// * comma-separated (CSV): `1200,4096,8,W`, with an optional header line
///   (`timestamp_us,sector,sectors,direction`) that is skipped when it is
///   the first data-bearing line.
///
/// Directions accept `R`/`W` (any case), `read`/`write`, and the binary
/// codec's `0`/`1`. Numbers are unsigned decimals with an optional leading
/// `+`. Blank lines and `#` comments are ignored; fields and lines are
/// trimmed of Unicode whitespace. Records that could never survive the
/// binary path — zero length, lengths above the codec's 32-bit field,
/// sector ranges overflowing `u64` — are rejected up front with the
/// offending line number, so `import → encode → replay` never panics on
/// hostile input.
///
/// # Errors
///
/// Returns [`ImportError::Line`] for the first malformed line (1-based), or
/// [`ImportError::Io`] if the reader itself fails or a line is not valid
/// UTF-8 (`ErrorKind::InvalidData`).
pub fn import_text_trace<R: BufRead>(mut reader: R) -> Result<Vec<TraceRecord>, ImportError> {
    let mut out = Vec::new();
    let mut line = Vec::new();
    let mut seen_data_line = false;
    let mut number = 0;
    loop {
        line.clear();
        if reader.read_until(b'\n', &mut line).map_err(ImportError::Io)? == 0 {
            return Ok(out);
        }
        number += 1;
        let text = std::str::from_utf8(&line).map_err(|_| {
            ImportError::Io(io::Error::new(
                io::ErrorKind::InvalidData,
                "stream did not contain valid UTF-8",
            ))
        })?;
        let parsed = parse_line(text, &mut seen_data_line);
        if let Some(record) = parsed.map_err(|kind| ImportError::Line { line: number, kind })? {
            out.push(record);
        }
    }
}

/// [`import_text_trace`] straight into the binary format: the imported
/// records, sorted by timestamp (stably; a time-ordered capture is left as
/// it is), encoded with [`BinaryTraceCodec`].
///
/// # Errors
///
/// Propagates [`import_text_trace`]'s errors.
pub fn import_text_to_binary<R: BufRead>(reader: R) -> Result<Bytes, ImportError> {
    let mut records = import_text_trace(reader)?;
    sort_by_time(&mut records);
    Ok(BinaryTraceCodec.encode(&records))
}

/// Fixed-width binary codec: 8-byte timestamp, 8-byte sector, 4-byte length
/// and 1-byte direction per record, little-endian.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BinaryTraceCodec;

impl BinaryTraceCodec {
    /// Bytes per encoded record.
    pub const RECORD_BYTES: usize = 8 + 8 + 4 + 1;

    /// Encodes records into one presized byte buffer.
    pub fn encode(&self, records: &[TraceRecord]) -> Bytes {
        let mut buf = vec![0u8; records.len() * Self::RECORD_BYTES];
        for (rec, out) in records.iter().zip(buf.chunks_exact_mut(Self::RECORD_BYTES)) {
            out[..8].copy_from_slice(&rec.timestamp_us.to_le_bytes());
            out[8..16].copy_from_slice(&rec.sector.to_le_bytes());
            out[16..20].copy_from_slice(&rec.sectors.to_le_bytes());
            out[20] = u8::from(!rec.kind.is_read());
        }
        Bytes::from(buf)
    }

    /// Decodes a buffer produced by [`Self::encode`].
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` when the buffer length is not a whole number of
    /// records or a record is malformed (zero length, unknown direction
    /// byte), and `UnexpectedEof` when a record is cut short — decoding
    /// never panics, whatever the input.
    pub fn decode(&self, mut data: Bytes) -> io::Result<Vec<TraceRecord>> {
        if !data.len().is_multiple_of(Self::RECORD_BYTES) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "binary trace length is not a multiple of the record size",
            ));
        }
        let mut out = Vec::with_capacity(data.len() / Self::RECORD_BYTES);
        while data.has_remaining() {
            // Defence in depth: the length check above makes a short record
            // impossible, but a truncated read must surface as an error —
            // never as a panic inside the buffer accessors.
            if data.remaining() < Self::RECORD_BYTES {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "binary trace record is truncated",
                ));
            }
            let ts = data.get_u64_le();
            let sector = data.get_u64_le();
            let sectors = data.get_u32_le();
            let dir = data.get_u8();
            if sectors == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "binary trace record has zero length",
                ));
            }
            let kind = match dir {
                0 => RequestKind::Read,
                1 => RequestKind::Write,
                other => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("binary trace record has unknown direction byte {other}"),
                    ));
                }
            };
            out.push(TraceRecord::new(ts, sector, sectors, kind));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use bytes::{BufMut, BytesMut};

    use super::*;

    fn sample() -> Vec<TraceRecord> {
        vec![
            TraceRecord::new(0, 0, 8, RequestKind::Read),
            TraceRecord::new(100, 4096, 16, RequestKind::Write),
            TraceRecord::new(250, 81920, 256, RequestKind::Read),
        ]
    }

    #[test]
    fn text_round_trip() {
        let mut buf = Vec::new();
        write_text_trace(&mut buf, &sample()).unwrap();
        let parsed = import_text_trace(buf.as_slice()).unwrap();
        assert_eq!(parsed, sample());
    }

    #[test]
    fn text_writer_hands_over_whole_chunks() {
        /// Records each `write` call's length.
        struct Calls(Vec<usize>);
        impl Write for Calls {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.push(buf.len());
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let records: Vec<TraceRecord> = (0..5_000)
            .map(|i| TraceRecord::new(u64::MAX - i, i * 8, u32::MAX, RequestKind::Write))
            .collect();
        let mut calls = Calls(Vec::new());
        write_text_trace(&mut calls, &records).unwrap();
        let total: usize = records.iter().map(|r| r.to_line().len() + 1).sum();
        assert_eq!(calls.0.iter().sum::<usize>(), total);
        // Every write but the last hands over a full chunk.
        let (last, full) = calls.0.split_last().unwrap();
        assert!(!full.is_empty(), "the trace spans several chunks");
        assert!(full.iter().all(|&len| len > TEXT_CHUNK_BYTES - MAX_TEXT_LINE_BYTES));
        assert!(calls.0.iter().all(|&len| len <= TEXT_CHUNK_BYTES) && *last > 0);
        // An empty trace writes nothing at all.
        let mut calls = Calls(Vec::new());
        write_text_trace(&mut calls, &[]).unwrap();
        assert!(calls.0.is_empty());
    }

    #[test]
    fn text_reader_trims_unicode_whitespace_and_rejects_invalid_utf8() {
        // \x0B is whitespace to `str::trim` and `split_whitespace` (though
        // not to `u8::is_ascii_whitespace`), and so are NBSP and EM SPACE.
        let text = "\x0B0\x0B0\x0C8\tR\r\n\u{a0}1\u{2003}8 8 w\u{a0}\n";
        let expected = vec![
            TraceRecord::new(0, 0, 8, RequestKind::Read),
            TraceRecord::new(1, 8, 8, RequestKind::Write),
        ];
        assert_eq!(import_text_trace(text.as_bytes()).unwrap(), expected);
        let mut bytes = b"0 0 8 R\n1 8 8 \xffW\n".to_vec();
        match import_text_trace(bytes.as_slice()) {
            Err(ImportError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::InvalidData),
            other => panic!("invalid UTF-8 gave {other:?}"),
        }
        // A malformed line before the invalid one is reported first.
        bytes.splice(0..0, b"bogus\n".iter().copied());
        assert!(matches!(
            import_text_trace(bytes.as_slice()),
            Err(ImportError::Line { line: 1, .. })
        ));
    }

    #[test]
    fn text_reader_skips_comments_and_blanks() {
        let text = "# header\n\n0 0 8 R\n  \n100 4096 16 W\n";
        let parsed = import_text_trace(text.as_bytes()).unwrap();
        assert_eq!(parsed.len(), 2);
    }

    #[test]
    fn text_reader_reports_line_numbers() {
        let text = "0 0 8 R\n\n# comment\nbogus line\n";
        let err: io::Error = import_text_trace(text.as_bytes()).unwrap_err().into();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("line 4"));
    }

    #[test]
    fn binary_round_trip() {
        let codec = BinaryTraceCodec;
        let encoded = codec.encode(&sample());
        assert_eq!(encoded.len(), 3 * BinaryTraceCodec::RECORD_BYTES);
        let decoded = codec.decode(encoded).unwrap();
        assert_eq!(decoded, sample());
    }

    #[test]
    fn binary_decoder_rejects_truncated_buffers() {
        let codec = BinaryTraceCodec;
        let mut encoded = codec.encode(&sample()).to_vec();
        encoded.pop();
        assert!(codec.decode(Bytes::from(encoded)).is_err());
    }

    #[test]
    fn binary_decoder_rejects_unknown_direction_bytes() {
        let mut buf = BytesMut::new();
        buf.put_u64_le(0);
        buf.put_u64_le(0);
        buf.put_u32_le(8);
        buf.put_u8(7); // neither read (0) nor write (1)
        let err = BinaryTraceCodec.decode(buf.freeze()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("direction"));
    }

    #[test]
    fn binary_codec_round_trips_extreme_field_values() {
        let extremes = vec![
            TraceRecord::new(u64::MAX, u64::MAX, u32::MAX, RequestKind::Write),
            TraceRecord::new(0, 0, 1, RequestKind::Read),
        ];
        let decoded = BinaryTraceCodec.decode(BinaryTraceCodec.encode(&extremes)).unwrap();
        assert_eq!(decoded, extremes);
        // The empty trace round-trips to an empty buffer.
        let empty = BinaryTraceCodec.encode(&[]);
        assert!(empty.is_empty());
        assert!(BinaryTraceCodec.decode(empty).unwrap().is_empty());
    }

    #[test]
    fn text_reader_rejects_lengths_past_the_32_bit_field() {
        // Both codecs carry the length in 32 bits, so a longer one is a
        // parse error rather than a record the binary encoder cannot store.
        let line = format!("0 0 {} R", u64::from(u32::MAX) + 1);
        let err: io::Error = import_text_trace(line.as_bytes()).unwrap_err().into();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("line 1"));
        assert!(err.to_string().contains("length"));
        // The largest length the field holds imports intact.
        let max = import_text_trace(format!("1 2 {} r", u32::MAX).as_bytes()).unwrap();
        assert_eq!(max, vec![TraceRecord::new(1, 2, u32::MAX, RequestKind::Read)]);
    }

    #[test]
    fn import_accepts_whitespace_and_csv_with_header() {
        let text = "# capture\n0 0 8 R\n100 4096 16 w\n";
        let ws = import_text_trace(text.as_bytes()).unwrap();
        assert_eq!(ws.len(), 2);
        assert!(ws[0].kind.is_read() && !ws[1].kind.is_read());
        let csv = "timestamp_us,sector,sectors,direction\n0,0,8,R\n100,4096,16,WRITE\n";
        assert_eq!(import_text_trace(csv.as_bytes()).unwrap(), ws);
        // The binary codec's 0/1 markers work too.
        let digits = import_text_trace("0 0 8 0\n100 4096 16 1\n".as_bytes()).unwrap();
        assert_eq!(digits, ws);
    }

    #[test]
    fn import_rejects_each_malformed_shape_with_line_numbers() {
        let cases: &[(&str, ImportLineError)] = &[
            ("0 0 8", ImportLineError::MissingField("direction")),
            ("0 0", ImportLineError::MissingField("sectors")),
            ("0", ImportLineError::MissingField("sector")),
            ("0,0,8", ImportLineError::MissingField("direction")),
            ("zero 0 8 R", ImportLineError::InvalidNumber("timestamp_us")),
            ("0 -4 8 R", ImportLineError::InvalidNumber("sector")),
            ("0 0 0 R", ImportLineError::ZeroLength),
            ("0 0 4294967296 R", ImportLineError::LengthTooLarge),
            ("0 18446744073709551615 8 R", ImportLineError::RangeOverflow),
            ("0 18446744073709551608 8 W", ImportLineError::RangeOverflow),
            ("0 0 8 X", ImportLineError::UnknownDirection),
            ("0 0 8 R extra", ImportLineError::TrailingFields),
        ];
        for (line, expected) in cases {
            let input = format!("0 0 8 R\n{line}\n");
            match import_text_trace(input.as_bytes()) {
                Err(ImportError::Line { line: 2, kind }) => {
                    assert_eq!(kind, *expected, "for input {line:?}");
                }
                other => panic!("input {line:?} gave {other:?}"),
            }
        }
    }

    #[test]
    fn import_header_is_only_tolerated_first() {
        let text = "0,0,8,R\ntimestamp_us,sector,sectors,direction\n";
        let err = import_text_trace(text.as_bytes()).unwrap_err();
        assert!(matches!(
            err,
            ImportError::Line { line: 2, kind: ImportLineError::InvalidNumber("timestamp_us") }
        ));
    }

    #[test]
    fn import_to_binary_sorts_and_round_trips() {
        let text = "200 16 8 W\n100 0 8 R\n";
        let encoded = import_text_to_binary(text.as_bytes()).unwrap();
        let decoded = BinaryTraceCodec.decode(encoded).unwrap();
        assert_eq!(decoded.len(), 2);
        assert_eq!(decoded[0].timestamp_us, 100);
        assert_eq!(decoded[1].timestamp_us, 200);
    }

    #[test]
    fn import_error_converts_to_io_error() {
        let err = import_text_trace("bogus\n".as_bytes()).unwrap_err();
        let io_err: io::Error = err.into();
        assert_eq!(io_err.kind(), io::ErrorKind::InvalidData);
        assert!(io_err.to_string().contains("line 1"));
    }

    #[test]
    fn binary_decoder_rejects_zero_length_records() {
        let mut buf = BytesMut::new();
        buf.put_u64_le(0);
        buf.put_u64_le(0);
        buf.put_u32_le(0);
        buf.put_u8(0);
        assert!(BinaryTraceCodec.decode(buf.freeze()).is_err());
    }
}
