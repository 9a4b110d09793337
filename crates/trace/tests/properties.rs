//! Property-based tests of the workload generators, monitors and trace
//! analysis.

use bytes::Bytes;
use proptest::prelude::*;

use lbica_storage::block::BLOCK_SECTORS;
use lbica_storage::request::RequestKind;
use lbica_trace::analyze::{analyze_intervals, TraceAnalysis};
use lbica_trace::gen::{generate_stream, AccessPattern, ArrivalProcess, PatternSpec};
use lbica_trace::io::BinaryTraceCodec;
use lbica_trace::monitor::{IostatCollector, Tier};
use lbica_trace::record::TraceRecord;
use lbica_trace::workload::{
    BurstPhase, PhaseIntensity, WorkloadKind, WorkloadScale, WorkloadSpec,
};

fn arb_pattern() -> impl Strategy<Value = PatternSpec> {
    prop_oneof![
        (1u64..10_000).prop_map(|ws| PatternSpec::RandomRead { working_set_blocks: ws }),
        (1u64..10_000).prop_map(|ws| PatternSpec::RandomWrite { working_set_blocks: ws }),
        (1u64..10_000).prop_map(|len| PatternSpec::SequentialRead { length_blocks: len }),
        (1u64..10_000).prop_map(|len| PatternSpec::SequentialWrite { length_blocks: len }),
        (0.0f64..=1.0, 1u64..10_000)
            .prop_map(|(rf, ws)| PatternSpec::Mixed { read_fraction: rf, working_set_blocks: ws }),
        (0.0f64..=1.0, 1u64..10_000, 0.01f64..=1.0, 0.0f64..=1.0).prop_map(|(rf, ws, hf, hp)| {
            PatternSpec::Hotspot {
                read_fraction: rf,
                working_set_blocks: ws,
                hot_fraction: hf,
                hot_probability: hp,
            }
        }),
    ]
}

/// Interval `index` of a single-stream synthetic spec (base block 0, no
/// diurnal curve), generated the straightforward way: a fresh
/// `AccessPattern` (which builds its own Zipf table) and a fresh
/// `ArrivalProcess` seeded exactly as `WorkloadSpec` seeds them.
fn reference_interval(spec: &WorkloadSpec, index: u32, seed: u64) -> Vec<TraceRecord> {
    let Some((phase_idx, phase)) = spec.phase_for_interval(index) else {
        return Vec::new();
    };
    let stream_seed = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(u64::from(index))
        .wrapping_add((phase_idx as u64) << 32);
    let mut pattern = AccessPattern::new(phase.pattern, 0, phase.request_blocks, stream_seed);
    let mut arrivals = ArrivalProcess::new(phase.iops, stream_seed ^ 0xA5A5_5A5A);
    let start_us = u64::from(index) * spec.interval_us();
    generate_stream(&mut pattern, &mut arrivals, start_us, spec.interval_us())
}

/// The documented per-tenant seed recipe: FNV-1a over the cell seed and
/// the tenant ordinal (with a separator byte), then a splitmix64 finisher.
fn reference_tenant_seed(seed: u64, tenant: u32) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let fnv = |h: u64, b: u8| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    for b in seed.to_le_bytes() {
        h = fnv(h, b);
    }
    h = fnv(h, 0xff);
    for b in u64::from(tenant).to_le_bytes() {
        h = fnv(h, b);
    }
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn shared_zipf_tables_generate_the_reference_records(
        skew in 0u32..=1_500,
        seed in any::<u64>(),
        first in 0u32..12,
    ) {
        let spec = WorkloadSpec::zipfian_scaled("zipf-prop", WorkloadScale::tiny(), skew);
        prop_assert_eq!(spec.total_intervals(), 12);
        // A tenant mix over a Zipfian template draws through the template's
        // shared tables.
        let tenants = 3u32;
        let stride = 4 * WorkloadScale::tiny().cache_blocks;
        let mix = WorkloadSpec::multi_tenant("zipf-mt", tenants, stride, vec![spec.clone()]);
        // Every interval of one spec value, starting at an arbitrary
        // phase, so whichever phase builds a table first, the others
        // must still sample their own.
        let mut buffer = Vec::new();
        for index in (first..12).chain(0..first) {
            let expected = reference_interval(&spec, index, seed);
            prop_assert!(!expected.is_empty());
            prop_assert_eq!(&spec.generate_interval(index, seed), &expected);
            // The buffer form clears whatever the buffer held before.
            spec.generate_interval_into(index, seed, &mut buffer);
            prop_assert_eq!(&buffer, &expected);

            let mut merged = Vec::new();
            for tenant in 0..tenants {
                let tenant_seed = reference_tenant_seed(seed, tenant);
                let mut stream = reference_interval(&spec, index, tenant_seed);
                for r in &mut stream {
                    r.sector += u64::from(tenant) * stride * BLOCK_SECTORS;
                }
                prop_assert_eq!(&mix.tenant_interval(tenant, index, seed), &stream);
                merged.extend(stream);
            }
            merged.sort_by_key(|r| r.timestamp_us);
            prop_assert_eq!(&mix.generate_interval(index, seed), &merged);
            mix.generate_interval_into(index, seed, &mut buffer);
            prop_assert_eq!(&buffer, &merged);
        }
    }

    #[test]
    fn every_pattern_stays_inside_its_footprint(
        pattern in arb_pattern(),
        base in 0u64..1_000_000,
        seed in any::<u64>(),
    ) {
        let mut gen = AccessPattern::new(pattern, base, 1, seed);
        let footprint = pattern.footprint_blocks();
        for _ in 0..200 {
            let (sector, sectors, _kind) = gen.next_access();
            prop_assert_eq!(u64::from(sectors), BLOCK_SECTORS);
            let block = sector / BLOCK_SECTORS;
            prop_assert!(block >= base, "block {} below base {}", block, base);
            prop_assert!(
                block < base + footprint,
                "block {} beyond footprint {}+{}",
                block,
                base,
                footprint
            );
        }
    }

    #[test]
    fn pure_patterns_have_pure_directions(seed in any::<u64>(), ws in 1u64..5_000) {
        let mut reads = AccessPattern::new(PatternSpec::RandomRead { working_set_blocks: ws }, 0, 1, seed);
        let mut writes = AccessPattern::new(PatternSpec::RandomWrite { working_set_blocks: ws }, 0, 1, seed);
        for _ in 0..100 {
            prop_assert_eq!(reads.next_access().2, RequestKind::Read);
            prop_assert_eq!(writes.next_access().2, RequestKind::Write);
        }
    }

    #[test]
    fn generated_streams_are_sorted_and_deterministic(
        iops in 100.0f64..50_000.0,
        duration in 1_000u64..200_000,
        seed in any::<u64>(),
    ) {
        let make = || {
            let mut p = AccessPattern::new(
                PatternSpec::Mixed { read_fraction: 0.5, working_set_blocks: 4_096 },
                0,
                1,
                seed,
            );
            let mut a = ArrivalProcess::new(iops, seed ^ 1);
            generate_stream(&mut p, &mut a, 0, duration)
        };
        let stream = make();
        prop_assert_eq!(&stream, &make());
        let mut prev = 0u64;
        for r in &stream {
            prop_assert!(r.timestamp_us < duration);
            prop_assert!(r.timestamp_us >= prev);
            prev = r.timestamp_us;
        }
    }

    #[test]
    fn workload_interval_lookup_is_a_partition(
        intervals in proptest::collection::vec(1u32..20, 1..6),
        seed in any::<u64>(),
    ) {
        let mut spec = WorkloadSpec::new("prop", WorkloadKind::Custom, 10_000);
        for (i, n) in intervals.iter().enumerate() {
            spec = spec.push_phase(BurstPhase::new(
                format!("phase-{i}"),
                *n,
                1_000.0,
                PatternSpec::RandomRead { working_set_blocks: 100 },
                if i % 2 == 0 { PhaseIntensity::Moderate } else { PhaseIntensity::Burst },
            ));
        }
        let total: u32 = intervals.iter().sum();
        prop_assert_eq!(spec.total_intervals(), total);
        // Every interval maps to exactly one phase, in order.
        let mut last_phase = 0usize;
        for idx in 0..total {
            let (phase_idx, _) = spec.phase_for_interval(idx).expect("covered");
            prop_assert!(phase_idx >= last_phase);
            last_phase = phase_idx;
        }
        prop_assert!(spec.phase_for_interval(total).is_none());
        // Generation past the end yields nothing; inside the range the
        // timestamps stay within the interval window.
        prop_assert!(spec.generate_interval(total + 1, seed).is_empty());
        let records = spec.generate_interval(0, seed);
        for r in &records {
            prop_assert!(r.timestamp_us < spec.interval_us());
        }
    }

    #[test]
    fn analysis_totals_match_the_trace(
        records in proptest::collection::vec(
            (0u64..1_000_000, 0u64..100_000, 1u32..64, any::<bool>()),
            0..200,
        ),
    ) {
        let trace: Vec<TraceRecord> = records
            .iter()
            .map(|(ts, sector, len, read)| {
                TraceRecord::new(
                    *ts,
                    *sector,
                    *len,
                    if *read { RequestKind::Read } else { RequestKind::Write },
                )
            })
            .collect();
        let analysis = TraceAnalysis::of(&trace);
        prop_assert_eq!(analysis.requests as usize, trace.len());
        prop_assert_eq!(analysis.reads + analysis.writes, analysis.requests);
        prop_assert_eq!(
            analysis.total_sectors,
            trace.iter().map(|r| u64::from(r.sectors)).sum::<u64>()
        );
        prop_assert!(analysis.read_fraction() >= 0.0 && analysis.read_fraction() <= 1.0);
        prop_assert!(analysis.sequentiality() >= 0.0 && analysis.sequentiality() <= 1.0);

        // Splitting into intervals conserves the request count.
        let per_interval = analyze_intervals(&trace, 50_000);
        let split_total: u64 = per_interval.iter().map(|a| a.requests).sum();
        prop_assert_eq!(split_total, analysis.requests);
    }

    #[test]
    fn binary_codec_round_trips_extreme_values(
        records in proptest::collection::vec(
            // Full-range timestamps and sector addresses, full 32-bit
            // lengths — the fields the wire format must carry losslessly.
            (
                prop_oneof![Just(0u64), Just(u64::MAX), any::<u64>()],
                prop_oneof![Just(0u64), Just(u64::MAX), any::<u64>()],
                prop_oneof![Just(1u32), Just(u32::MAX), 1u32..100_000],
                any::<bool>(),
            ),
            0..64,
        ),
    ) {
        // Covers the zero-length (empty) trace: the vec strategy starts
        // at zero elements.
        let trace: Vec<TraceRecord> = records
            .iter()
            .map(|(ts, sector, len, read)| {
                TraceRecord::new(
                    *ts,
                    *sector,
                    *len,
                    if *read { RequestKind::Read } else { RequestKind::Write },
                )
            })
            .collect();
        let codec = BinaryTraceCodec;
        let encoded = codec.encode(&trace);
        prop_assert_eq!(encoded.len(), trace.len() * BinaryTraceCodec::RECORD_BYTES);
        let decoded = codec.decode(encoded).expect("well-formed buffer decodes");
        prop_assert_eq!(decoded, trace);
    }

    #[test]
    fn binary_decoder_never_panics_on_arbitrary_bytes(
        raw in proptest::collection::vec(any::<u64>(), 0..200),
        cut in 0usize..64,
    ) {
        // Arbitrary buffers of arbitrary (including truncated) lengths:
        // decode must return Ok or Err, never panic.
        let mut bytes: Vec<u8> = raw.iter().flat_map(|w| w.to_le_bytes()).collect();
        bytes.truncate(bytes.len().saturating_sub(cut));
        let _ = BinaryTraceCodec.decode(Bytes::from(bytes));
    }

    #[test]
    fn replay_workloads_partition_their_trace_across_intervals(
        records in proptest::collection::vec(
            (0u64..500_000, 0u64..100_000, 1u32..64, any::<bool>()),
            0..150,
        ),
        interval_us in 1_000u64..100_000,
    ) {
        let trace: Vec<TraceRecord> = records
            .iter()
            .map(|(ts, sector, len, read)| {
                TraceRecord::new(
                    *ts,
                    *sector,
                    *len,
                    if *read { RequestKind::Read } else { RequestKind::Write },
                )
            })
            .collect();
        let spec = WorkloadSpec::replay("prop-replay", interval_us, trace.clone());
        // Concatenating every interval recovers the whole capture, sorted.
        let mut replayed = Vec::new();
        for idx in 0..spec.total_intervals() {
            let chunk = spec.generate_interval(idx, 7);
            for r in &chunk {
                let lo = idx as u64 * interval_us;
                prop_assert!(r.timestamp_us >= lo && r.timestamp_us < lo + interval_us);
            }
            replayed.extend(chunk);
        }
        prop_assert_eq!(replayed.len(), trace.len());
        let mut sorted = trace;
        sorted.sort_by_key(|r| r.timestamp_us);
        prop_assert_eq!(replayed, sorted);
    }

    #[test]
    fn borrowed_intervals_equal_generated_ones(
        records in proptest::collection::vec(
            (0u64..500_000, 0u64..100_000, 1u32..64, any::<bool>()),
            0..150,
        ),
        seed in any::<u64>(),
    ) {
        let trace: Vec<TraceRecord> = records
            .iter()
            .map(|(ts, sector, len, read)| {
                TraceRecord::new(
                    *ts,
                    *sector,
                    *len,
                    if *read { RequestKind::Read } else { RequestKind::Write },
                )
            })
            .collect();
        let scale = WorkloadScale::tiny();
        let specs = [
            WorkloadSpec::replay("prop-replay", scale.interval_us, trace),
            WorkloadSpec::synthetic_scaled("prop-synthetic", scale, 0.4),
            WorkloadSpec::paper_mt_scaled(scale, 3),
        ];
        // One buffer across every spec and interval, as the runner reuses
        // its arena's: stale contents must never leak into a result.
        let mut buf = Vec::new();
        for spec in &specs {
            for index in 0..=spec.total_intervals() {
                let expected = spec.generate_interval(index, seed);
                prop_assert_eq!(spec.interval_records(index, seed, &mut buf), expected.as_slice());
            }
        }
    }

    #[test]
    fn zipfian_rank_frequency_is_monotone_and_sharpens_with_skew(seed in any::<u64>()) {
        let blocks = 16u64;
        let draws = 20_000;
        let mut top_counts = Vec::new();
        for skew in [0u32, 600, 1200] {
            let mut gen = AccessPattern::new(
                PatternSpec::Zipfian {
                    read_fraction: 1.0,
                    working_set_blocks: blocks,
                    skew_permille: skew,
                },
                0,
                1,
                seed,
            );
            let mut counts = vec![0u64; blocks as usize];
            for _ in 0..draws {
                let (sector, _, _) = gen.next_access();
                counts[(sector / BLOCK_SECTORS) as usize] += 1;
            }
            // Rank-frequency monotonicity, smoothed over quartiles of the
            // rank order so sampling noise between adjacent cold ranks
            // cannot flake: each hotter quartile draws at least as much as
            // the next. (At skew 0 the distribution is uniform, so the
            // quartiles are statistically indistinguishable — skip it.)
            if skew > 0 {
                let quartiles: Vec<u64> =
                    counts.chunks(4).map(|c| c.iter().sum()).collect();
                for pair in quartiles.windows(2) {
                    prop_assert!(
                        pair[0] >= pair[1],
                        "skew {} quartiles not monotone: {:?}",
                        skew,
                        quartiles
                    );
                }
            }
            top_counts.push(counts[0]);
        }
        // Raising the skew concentrates more draws on the hottest block:
        // expected shares are ~6% / ~14% / ~38%, far beyond noise at 20k
        // draws.
        prop_assert!(
            top_counts[0] < top_counts[1] && top_counts[1] < top_counts[2],
            "top-rank counts not increasing in skew: {:?}",
            top_counts
        );
    }

    #[test]
    fn text_importer_never_panics_on_arbitrary_bytes(
        raw in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        use lbica_trace::io::{import_text_trace, import_text_to_binary};
        // Hostile input contract: any byte soup yields Ok or a typed
        // ImportError — never a panic, never an abort.
        let _ = import_text_trace(raw.as_slice());
        let _ = import_text_to_binary(raw.as_slice());
    }

    #[test]
    fn imported_text_round_trips_to_binary_and_replay(
        rows in proptest::collection::vec(
            (0u64..1_000_000, 0u64..1_000_000, 1u32..100_000, any::<bool>()),
            0..100,
        ),
    ) {
        use std::fmt::Write as _;
        use lbica_trace::io::{import_text_trace, import_text_to_binary};
        let expected: Vec<TraceRecord> = rows
            .iter()
            .map(|(ts, sector, len, read)| {
                TraceRecord::new(
                    *ts,
                    *sector,
                    *len,
                    if *read { RequestKind::Read } else { RequestKind::Write },
                )
            })
            .collect();
        let mut text = String::from("# timestamp_us sector sectors direction\n");
        for r in &expected {
            let dir = if r.kind.is_read() { "R" } else { "W" };
            let _ = writeln!(text, "{} {} {} {}", r.timestamp_us, r.sector, r.sectors, dir);
        }
        let imported = import_text_trace(text.as_bytes()).expect("well-formed lines import");
        prop_assert_eq!(&imported, &expected);

        // text → binary → decode arrives time-sorted (stable, so equal
        // timestamps keep their capture order) and lossless.
        let encoded = import_text_to_binary(text.as_bytes()).expect("import encodes");
        let decoded = BinaryTraceCodec.decode(encoded).expect("fresh encoding decodes");
        let mut sorted = expected.clone();
        sorted.sort_by_key(|r| r.timestamp_us);
        prop_assert_eq!(&decoded, &sorted);

        // … and a replay workload over the import partitions the whole
        // capture back out across its intervals.
        let spec = WorkloadSpec::replay("import-prop", 50_000, decoded);
        let replayed: Vec<TraceRecord> = (0..spec.total_intervals())
            .flat_map(|idx| spec.generate_interval(idx, 3))
            .collect();
        prop_assert_eq!(replayed, sorted);
    }

    #[test]
    fn iostat_collector_aggregates_are_consistent(
        latencies in proptest::collection::vec(1u64..100_000, 1..200),
    ) {
        let mut iostat = IostatCollector::new();
        for &l in &latencies {
            iostat.record_enqueue(Tier::Cache);
            iostat.record_completion(Tier::Cache, l);
        }
        let report = iostat.finish_interval(0, 0, 0);
        prop_assert_eq!(report.cache.completed as usize, latencies.len());
        prop_assert_eq!(report.cache.max_latency_us, *latencies.iter().max().unwrap());
        let mean = latencies.iter().sum::<u64>() / latencies.len() as u64;
        prop_assert_eq!(report.cache.avg_latency_us, mean);
        prop_assert!(report.cache.avg_latency_us <= report.cache.max_latency_us);
    }
}

/// The importer as it was before it stopped allocating per line (every
/// line through `BufRead::lines`, its fields collected into a `Vec`): the
/// oracle the allocation-free reader must match.
mod reference_import {
    use std::io::BufRead;

    use lbica_storage::request::RequestKind;
    use lbica_trace::io::{ImportError, ImportLineError};
    use lbica_trace::record::TraceRecord;

    fn parse_import_field(
        fields: &[&str],
        index: usize,
        name: &'static str,
    ) -> Result<u64, ImportLineError> {
        let raw = fields.get(index).ok_or(ImportLineError::MissingField(name))?;
        raw.parse::<u64>().map_err(|_| ImportLineError::InvalidNumber(name))
    }

    fn parse_import_line(fields: &[&str]) -> Result<TraceRecord, ImportLineError> {
        let timestamp_us = parse_import_field(fields, 0, "timestamp_us")?;
        let sector = parse_import_field(fields, 1, "sector")?;
        let sectors = parse_import_field(fields, 2, "sectors")?;
        let direction = fields.get(3).ok_or(ImportLineError::MissingField("direction"))?;
        if fields.len() > 4 {
            return Err(ImportLineError::TrailingFields);
        }
        if sectors == 0 {
            return Err(ImportLineError::ZeroLength);
        }
        let sectors = u32::try_from(sectors).map_err(|_| ImportLineError::LengthTooLarge)?;
        let kind = match direction.to_ascii_lowercase().as_str() {
            "r" | "read" | "0" => RequestKind::Read,
            "w" | "write" | "1" => RequestKind::Write,
            _ => return Err(ImportLineError::UnknownDirection),
        };
        let record = TraceRecord::new(timestamp_us, sector, sectors, kind);
        if record.sector.checked_add(u64::from(record.sectors)).is_none() {
            return Err(ImportLineError::RangeOverflow);
        }
        Ok(record)
    }

    pub fn import_text_trace<R: BufRead>(reader: R) -> Result<Vec<TraceRecord>, ImportError> {
        let mut out = Vec::new();
        let mut seen_data_line = false;
        for (idx, line) in reader.lines().enumerate() {
            let line = line.map_err(ImportError::Io)?;
            let trimmed = line.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            let csv = trimmed.contains(',');
            let fields: Vec<&str> = if csv {
                trimmed.split(',').map(str::trim).collect()
            } else {
                trimmed.split_whitespace().collect()
            };
            // A leading CSV header (alphabetic first column) is tolerated once.
            if !seen_data_line
                && csv
                && fields.first().is_some_and(|f| f.chars().next().is_some_and(char::is_alphabetic))
            {
                seen_data_line = true;
                continue;
            }
            seen_data_line = true;
            let record = parse_import_line(&fields)
                .map_err(|kind| ImportError::Line { line: idx + 1, kind })?;
            out.push(record);
        }
        Ok(out)
    }
}

/// What an import returned, comparable across readers: the records, or
/// the error's variant with its line number and kind or `io::ErrorKind`.
#[derive(Debug, PartialEq)]
enum ImportOutcome {
    Records(Vec<TraceRecord>),
    Line(usize, lbica_trace::io::ImportLineError),
    Io(std::io::ErrorKind),
}

fn import_outcome(result: Result<Vec<TraceRecord>, lbica_trace::io::ImportError>) -> ImportOutcome {
    use lbica_trace::io::ImportError;
    match result {
        Ok(records) => ImportOutcome::Records(records),
        Err(ImportError::Line { line, kind }) => ImportOutcome::Line(line, kind),
        Err(ImportError::Io(e)) => ImportOutcome::Io(e.kind()),
    }
}

/// Field values that sit on a parsing edge: signs, leading zeros, the
/// `u64` and `u32` limits and one past them, direction spellings, a CSV
/// header column and non-ASCII letters and digits.
const IMPORT_TOKENS: &[&str] = &[
    "0",
    "8",
    "1200",
    "+8",
    "+",
    "-1",
    "0008",
    "000000000000000000000000000042",
    "18446744073709551615",
    "18446744073709551616",
    "18446744073709551608",
    "4294967295",
    "4294967296",
    "R",
    "r",
    "W",
    "w",
    "Read",
    "WRITE",
    "wRiTe",
    "1",
    "X",
    "",
    "timestamp_us",
    "sector",
    "élan",
    "٣",
    "8\u{a0}",
    "R\u{2003}",
];

/// Per-column edge values for timestamps and sectors, lengths and
/// directions.
const EDGE_NUMBERS: &[&str] = &[
    "0",
    "+7",
    "0009",
    "18446744073709551615",
    "18446744073709551608",
    "18446744073709551616",
    "x",
    "",
];
const EDGE_LENGTHS: &[&str] = &["8", "0", "+1", "4294967295", "4294967296", "-8", ""];
const EDGE_DIRECTIONS: &[&str] = &["R", "w", "Read", "WRITE", "0", "1", "X", ""];

/// Column separators, ASCII and Unicode.
const IMPORT_SEPARATORS: &[&str] =
    &[" ", "  ", "\t", "\x0B", "\x0C", ",", " , ", ",\t", "\u{a0}", "\u{2003}", "\u{85}"];

/// Line endings, `\n` drawn twice as often as the others; the empty one
/// leaves the last line unterminated or glues two lines together.
const IMPORT_LINE_ENDS: &[&str] = &["\n", "\n", "\r\n", "\r", ""];

/// Whole lines that are not records: comments, blanks, headers.
const IMPORT_SPECIAL_LINES: &[&str] = &[
    "# timestamp_us sector sectors direction",
    "  # indented comment",
    "",
    " \t\x0B\x0C ",
    "\u{a0}\u{2003}",
    "timestamp_us,sector,sectors,direction",
    "Timestamp , Sector , Sectors , Direction",
    "timestamp_us sector sectors direction",
];

/// Bytes spliced into an input: invalid UTF-8 (a stray continuation
/// byte, a truncated two-byte sequence, 0xFF), NUL and ASCII edges.
const IMPORT_SPLICES: &[&[u8]] =
    &[b"\xff", b"\x80", b"\xc3", b"\xc2\xa0", b"\0", b"\n", b",", b"+", b"\x0B", b"#"];

/// One line of an import input.
fn arb_import_line() -> impl Strategy<Value = Vec<u8>> {
    let pick = |n: usize| 0..n;
    prop_oneof![
        // A well-formed record in one style, with edge-case values drawn
        // for up to two of its columns and maybe a fifth column.
        (
            (0u64..1_000_000, 0u64..1_000_000, 1u32..4_096, any::<bool>()),
            proptest::collection::vec((pick(IMPORT_TOKENS.len()), 0usize..8), 0..3),
            (pick(IMPORT_SEPARATORS.len()), pick(IMPORT_LINE_ENDS.len())),
        )
            .prop_map(|((ts, sector, len, read), edits, (sep, end))| {
                let dir = if read { "R" } else { "W" };
                let mut fields =
                    vec![ts.to_string(), sector.to_string(), len.to_string(), dir.to_string()];
                for (token, column) in edits {
                    match column {
                        0..=3 => fields[column] = IMPORT_TOKENS[token].to_string(),
                        4 => fields.push(IMPORT_TOKENS[token].to_string()),
                        _ => {}
                    }
                }
                let mut line = fields.join(IMPORT_SEPARATORS[sep]);
                line.push_str(IMPORT_LINE_ENDS[end]);
                line.into_bytes()
            }),
        // Every column at an edge of its own check, so lines that break
        // several checks at once pin the order the checks run in.
        (
            (pick(EDGE_NUMBERS.len()), pick(EDGE_NUMBERS.len()), pick(EDGE_LENGTHS.len())),
            (pick(EDGE_DIRECTIONS.len()), 0usize..3, any::<bool>()),
            pick(IMPORT_LINE_ENDS.len()),
        )
            .prop_map(|((ts, sector, len), (dir, extra, csv), end)| {
                let mut fields = vec![
                    EDGE_NUMBERS[ts],
                    EDGE_NUMBERS[sector],
                    EDGE_LENGTHS[len],
                    EDGE_DIRECTIONS[dir],
                ];
                if extra == 0 {
                    fields.push("extra");
                }
                let mut line = fields.join(if csv { "," } else { " " });
                line.push_str(IMPORT_LINE_ENDS[end]);
                line.into_bytes()
            }),
        // Arbitrary tokens and separators: too few, too many and empty
        // fields, mixed styles, padding on both ends.
        (
            proptest::collection::vec(
                (pick(IMPORT_TOKENS.len()), pick(IMPORT_SEPARATORS.len())),
                0..7,
            ),
            pick(IMPORT_SEPARATORS.len()),
            pick(IMPORT_LINE_ENDS.len()),
        )
            .prop_map(|(parts, lead, end)| {
                let mut line = String::from(IMPORT_SEPARATORS[lead]);
                for (token, sep) in parts {
                    line.push_str(IMPORT_TOKENS[token]);
                    line.push_str(IMPORT_SEPARATORS[sep]);
                }
                line.push_str(IMPORT_LINE_ENDS[end]);
                line.into_bytes()
            }),
        (pick(IMPORT_SPECIAL_LINES.len()), pick(IMPORT_LINE_ENDS.len())).prop_map(
            |(special, end)| {
                format!("{}{}", IMPORT_SPECIAL_LINES[special], IMPORT_LINE_ENDS[end]).into_bytes()
            }
        ),
    ]
}

/// A whole import input: lines, optionally with one splice at a random
/// offset.
fn arb_import_input() -> impl Strategy<Value = Vec<u8>> {
    (
        proptest::collection::vec(arb_import_line(), 0..10),
        any::<bool>(),
        0..IMPORT_SPLICES.len(),
        any::<usize>(),
    )
        .prop_map(|(lines, splice, which, at)| {
            let mut input = lines.concat();
            if splice {
                let at = at % (input.len() + 1);
                input.splice(at..at, IMPORT_SPLICES[which].iter().copied());
            }
            input
        })
}

/// A byte soup over a small alphabet, so that many soups hold records,
/// comments and separators rather than failing at their first byte.
fn arb_import_soup() -> impl Strategy<Value = Vec<u8>> {
    const ALPHABET: &[u8] = b"0123456789+-, \t\x0B\x0C\r\n#rRwWeadit_\xc2\xa0\xff";
    proptest::collection::vec(
        prop_oneof![(0..ALPHABET.len()).prop_map(|i| ALPHABET[i]), any::<u8>()],
        0..96,
    )
}

/// Every `TraceRecord` field at its extremes or anywhere between.
fn arb_extreme_record() -> impl Strategy<Value = TraceRecord> {
    let wide = || prop_oneof![Just(0u64), Just(u64::MAX), any::<u64>(), 0u64..1_000];
    let narrow = prop_oneof![Just(0u32), Just(u32::MAX), any::<u32>(), 1u32..64];
    (wide(), wide(), narrow, any::<bool>()).prop_map(|(ts, sector, len, read)| {
        TraceRecord::new(ts, sector, len, if read { RequestKind::Read } else { RequestKind::Write })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn text_importer_matches_the_reference_on_mutated_lines(input in arb_import_input()) {
        use lbica_trace::io::import_text_trace;
        prop_assert_eq!(
            import_outcome(import_text_trace(input.as_slice())),
            import_outcome(reference_import::import_text_trace(input.as_slice())),
            "input {:?}",
            String::from_utf8_lossy(&input)
        );
    }

    #[test]
    fn text_importer_matches_the_reference_on_byte_soup(
        soup in arb_import_soup(),
        raw in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        use lbica_trace::io::import_text_trace;
        for input in [&soup, &raw] {
            prop_assert_eq!(
                import_outcome(import_text_trace(input.as_slice())),
                import_outcome(reference_import::import_text_trace(input.as_slice())),
                "input {:?}",
                input
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn text_writer_emits_exactly_the_record_lines(
        records in proptest::collection::vec(arb_extreme_record(), 0..3_000),
    ) {
        use lbica_trace::io::write_text_trace;
        let mut written = Vec::new();
        write_text_trace(&mut written, &records).expect("writing to memory cannot fail");
        let expected: String = records
            .iter()
            .map(|r| {
                let dir = if r.kind.is_read() { 'R' } else { 'W' };
                format!("{} {} {} {dir}\n", r.timestamp_us, r.sector, r.sectors)
            })
            .collect();
        prop_assert!(written == expected.as_bytes(), "writer output differs from the format");
    }
}
