//! Phase-structured burst workloads.
//!
//! The paper evaluates three enterprise workloads with burst I/O — TPC-C, a
//! mail server and a web server — monitored over fixed-length intervals
//! (200, 200 and 175 intervals respectively). A [`WorkloadSpec`] models such
//! a workload as a sequence of [`BurstPhase`]s, each with its own arrival
//! rate and access pattern; burst phases drive the I/O cache beyond its
//! service rate, which is precisely the situation LBICA is designed for.
//!
//! The canned constructors ([`WorkloadSpec::tpcc`],
//! [`WorkloadSpec::mail_server`], [`WorkloadSpec::web_server`]) are tuned so
//! that the request-class mixes observed in the SSD queue during bursts
//! match the ones the paper reports in Fig. 6 (e.g. TPC-C burst ≈ 44 % R /
//! 51 % P, mail-server burst ≈ 70 % W, web-server burst ≈ 64 % W).

use std::sync::{Arc, OnceLock};

use serde::{Deserialize, Serialize};

use lbica_storage::block::BLOCK_SECTORS;
use lbica_storage::hash::{fnv1a, splitmix64, FNV_OFFSET};

use crate::gen::{
    build_zipf_cdf, generate_stream_into, request_sectors, AccessPattern, ArrivalProcess,
    PatternSpec, ZipfCdf,
};
use crate::io::{check_range, BinaryTraceCodec};
use crate::record::{sort_by_time, TraceRecord};

/// Derives a tenant's private stream seed from the cell seed and the tenant
/// ordinal alone (FNV-1a over the two coordinates with a separator, then a
/// splitmix64 finisher — the same recipe the lab uses for per-cell seeds).
/// Because neither the tenant count nor any other axis participates, tenant
/// `t`'s stream is stable when tenants are added, removed, or the matrix
/// axes are reordered.
fn tenant_seed(seed: u64, tenant: u32) -> u64 {
    let h = fnv1a(&seed.to_le_bytes(), FNV_OFFSET);
    let h = fnv1a(&[0xff], h);
    splitmix64(fnv1a(&u64::from(tenant).to_le_bytes(), h))
}

/// Whether a phase is expected to overload the I/O cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PhaseIntensity {
    /// Arrival rate comfortably below the cache device's service rate.
    Moderate,
    /// Arrival rate at or above the cache device's service rate — the
    /// "burst accesses" of the paper.
    Burst,
}

impl PhaseIntensity {
    /// Whether this is a burst phase.
    pub const fn is_burst(self) -> bool {
        matches!(self, PhaseIntensity::Burst)
    }
}

/// Which of the paper's workloads a spec models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum WorkloadKind {
    /// The TPC-C online-transaction-processing workload.
    Tpcc,
    /// The mail-server workload.
    MailServer,
    /// The web-server workload.
    WebServer,
    /// A user-defined workload.
    Custom,
}

/// One phase of a workload: a fixed number of monitoring intervals during
/// which requests arrive at `iops` following `pattern`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BurstPhase {
    /// Human-readable phase label (shows up in reports).
    pub label: String,
    /// How many monitoring intervals the phase lasts.
    pub intervals: u32,
    /// Arrival rate in requests per second.
    pub iops: f64,
    /// Address/direction pattern of the phase.
    pub pattern: PatternSpec,
    /// Request size in cache blocks.
    pub request_blocks: u64,
    /// Whether the phase is a burst.
    pub intensity: PhaseIntensity,
}

impl BurstPhase {
    /// Creates a phase.
    pub fn new(
        label: impl Into<String>,
        intervals: u32,
        iops: f64,
        pattern: PatternSpec,
        intensity: PhaseIntensity,
    ) -> Self {
        BurstPhase { label: label.into(), intervals, iops, pattern, request_blocks: 1, intensity }
    }

    /// Sets the request size in blocks (builder style).
    ///
    /// # Panics
    ///
    /// Panics if the request is longer than `u32::MAX` sectors, the range
    /// of [`TraceRecord::sectors`].
    pub fn with_request_blocks(mut self, blocks: u64) -> Self {
        request_sectors(blocks);
        self.request_blocks = blocks;
        self
    }
}

/// Scaling knobs shared by the canned workloads, so the same specs can be
/// used against a full-size cache (benchmarks) or a tiny one (unit tests).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WorkloadScale {
    /// Capacity of the I/O cache the workload will run against, in blocks.
    /// Working-set sizes are expressed relative to this.
    pub cache_blocks: u64,
    /// Arrival rate of burst phases, requests per second.
    pub burst_iops: f64,
    /// Arrival rate of moderate phases, requests per second.
    pub base_iops: f64,
    /// Length of one monitoring interval in microseconds.
    pub interval_us: u64,
    /// Multiplier applied to every phase's interval count (1 = the paper's
    /// full interval counts).
    pub interval_scale: f64,
}

impl WorkloadScale {
    /// The scale used by the reproduction harness: a 16 Ki-block (64 MiB)
    /// cache, 100 ms monitoring intervals, 12 kIOPS bursts.
    pub const fn harness() -> Self {
        WorkloadScale {
            cache_blocks: 16_384,
            burst_iops: 12_000.0,
            base_iops: 2_000.0,
            interval_us: 100_000,
            interval_scale: 1.0,
        }
    }

    /// A much smaller scale for fast unit/integration tests. The burst rate
    /// is set well above the cache device's service rate so that burst
    /// intervals reliably overload the cache even in very short runs.
    pub const fn tiny() -> Self {
        WorkloadScale {
            cache_blocks: 512,
            burst_iops: 30_000.0,
            base_iops: 1_000.0,
            interval_us: 20_000,
            interval_scale: 0.1,
        }
    }

    /// Applies `interval_scale` to one of the paper's phase lengths
    /// (never below one interval). Public so custom workload builders can
    /// shrink with the same rule as the canned specs.
    pub fn scaled_intervals(&self, paper_intervals: u32) -> u32 {
        ((paper_intervals as f64 * self.interval_scale).round() as u32).max(1)
    }
}

impl Default for WorkloadScale {
    fn default() -> Self {
        WorkloadScale::harness()
    }
}

/// A piecewise time-of-day load curve: the workload's run is divided into
/// `slots.len()` equal spans and every monitoring interval's arrival rate is
/// multiplied by its span's factor (in permille, so curves compare exactly —
/// 1000 leaves the rate untouched, 0 silences the span entirely).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DiurnalCurve {
    slots: Vec<u32>,
}

impl DiurnalCurve {
    /// Creates a curve from per-slot multipliers in permille.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is empty.
    pub fn new(slots: Vec<u32>) -> Self {
        assert!(!slots.is_empty(), "a diurnal curve needs at least one slot");
        DiurnalCurve { slots }
    }

    /// A canned day/night cycle: quiet night, morning ramp, midday peak at
    /// 1.5×, evening shoulder, back to quiet.
    pub fn day_night() -> Self {
        DiurnalCurve::new(vec![250, 500, 1_000, 1_500, 1_000, 500])
    }

    /// The per-slot multipliers in permille.
    pub fn slots(&self) -> &[u32] {
        &self.slots
    }

    /// The multiplier (permille) applied to interval `index` of a workload
    /// spanning `total_intervals` intervals.
    pub fn factor_permille(&self, index: u32, total_intervals: u32) -> u32 {
        if total_intervals == 0 {
            return 1_000;
        }
        let slot = (u64::from(index) * self.slots.len() as u64) / u64::from(total_intervals);
        self.slots[(slot as usize).min(self.slots.len() - 1)]
    }
}

/// N interleaved tenant streams sharing one storage stack: tenant `t` runs
/// `templates[t % templates.len()]` with a coordinate-derived private seed
/// and an address footprint offset by `t * tenant_blocks` blocks, and the
/// per-tenant streams are merged into one arrival stream by timestamp
/// (stably, so ties keep tenant order).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantMix {
    count: u32,
    tenant_blocks: u64,
    templates: Vec<WorkloadSpec>,
}

impl TenantMix {
    /// Number of tenants.
    pub const fn count(&self) -> u32 {
        self.count
    }

    /// Address-space stride between consecutive tenants, in blocks.
    pub const fn tenant_blocks(&self) -> u64 {
        self.tenant_blocks
    }

    /// The per-tenant workload templates, cycled over tenant ordinals.
    pub fn templates(&self) -> &[WorkloadSpec] {
        &self.templates
    }
}

/// Error from [`WorkloadSpec::try_replay`]: the captured trace spans more
/// monitoring intervals than the `u32` interval counter can hold.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSpanError {
    /// Number of intervals the trace would need.
    pub intervals: u64,
}

impl std::fmt::Display for TraceSpanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace spans {} intervals, more than the interval counter holds", self.intervals)
    }
}

impl std::error::Error for TraceSpanError {}

/// A captured trace carried by a replay workload: records sorted by
/// timestamp plus the number of monitoring intervals the trace spans. The
/// records are shared, so every clone of the spec reads the same copy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct ReplayTrace {
    records: Arc<Vec<TraceRecord>>,
    intervals: u32,
}

impl ReplayTrace {
    /// The records of monitoring interval `index`, in timestamp order.
    fn interval(&self, index: u32, interval_us: u64) -> &[TraceRecord] {
        let lo = u64::from(index) * interval_us;
        let hi = lo + interval_us;
        let start = self.records.partition_point(|r| r.timestamp_us < lo);
        let end = self.records.partition_point(|r| r.timestamp_us < hi);
        &self.records[start..end]
    }
}

/// The cumulative popularity tables of a spec's Zipfian phases, one per
/// distinct `(working_set_blocks, skew_permille)`, so `zipfian_scaled`'s
/// warm-up and cool-down share one. Each table is built on the first
/// interval that samples it, by the spec or by any of its clones: the
/// slots themselves are shared, so a clone taken before the build reuses
/// the table another clone builds. The tables are a pure function of the
/// phases, so they take no part in equality or debug output.
#[derive(Clone, Default)]
struct ZipfTables(Vec<((u64, u32), LazyTable)>);

/// A popularity table, built on first use and shared by every clone.
type LazyTable = Arc<OnceLock<Arc<ZipfCdf>>>;

impl ZipfTables {
    /// Reserves a slot for `pattern`'s table unless it is not Zipfian or
    /// an earlier phase already has one.
    fn register(&mut self, pattern: &PatternSpec) {
        if let Some(key) = pattern.zipf_key() {
            if !self.0.iter().any(|(k, _)| *k == key) {
                self.0.push((key, LazyTable::default()));
            }
        }
    }

    /// `pattern`'s table, built on first use. `None` for other patterns,
    /// and for a deserialized spec, which carries no slots.
    fn get(&self, pattern: &PatternSpec) -> Option<Arc<ZipfCdf>> {
        let key = pattern.zipf_key()?;
        let (_, table) = self.0.iter().find(|(k, _)| *k == key)?;
        Some(Arc::clone(table.get_or_init(|| build_zipf_cdf(key.0, key.1))))
    }
}

impl PartialEq for ZipfTables {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl std::fmt::Debug for ZipfTables {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ZipfTables")
    }
}

/// A complete phase-structured workload — or, when built from a captured
/// trace via [`WorkloadSpec::replay`], a deterministic replay that feeds
/// the recorded arrivals through the same interval loop.
///
/// Cloning is cheap: it copies the phases, while a replay's records and the
/// Zipf popularity tables are shared between the clones, so one copy of
/// each exists however many scenario cells run the workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSpec {
    name: String,
    kind: WorkloadKind,
    interval_us: u64,
    phases: Vec<BurstPhase>,
    base_block: u64,
    replay: Option<ReplayTrace>,
    diurnal: Option<DiurnalCurve>,
    tenants: Option<TenantMix>,
    #[serde(skip)]
    zipf_tables: ZipfTables,
}

impl WorkloadSpec {
    /// Creates an empty workload; add phases with [`WorkloadSpec::push_phase`].
    pub fn new(name: impl Into<String>, kind: WorkloadKind, interval_us: u64) -> Self {
        assert!(interval_us > 0, "interval length must be positive");
        WorkloadSpec {
            name: name.into(),
            kind,
            interval_us,
            phases: Vec::new(),
            base_block: 0,
            replay: None,
            diurnal: None,
            tenants: None,
            zipf_tables: ZipfTables::default(),
        }
    }

    /// Builds a workload that *replays* a captured trace instead of
    /// generating synthetic arrivals: every monitoring interval feeds the
    /// recorded requests whose timestamps fall inside it, in timestamp
    /// order, ignoring the stream seed (replays are inherently
    /// deterministic — the same trace gives bit-identical runs at any
    /// worker count).
    ///
    /// # Panics
    ///
    /// Panics if `interval_us` is zero or the trace span overflows the
    /// interval counter (use [`WorkloadSpec::try_replay`] to get a typed
    /// error instead).
    pub fn replay(name: impl Into<String>, interval_us: u64, records: Vec<TraceRecord>) -> Self {
        WorkloadSpec::try_replay(name, interval_us, records)
            .unwrap_or_else(|e| panic!("trace span fits the interval counter: {e}"))
    }

    /// [`WorkloadSpec::replay`], but a trace whose span overflows the `u32`
    /// interval counter (e.g. a hostile import with a `u64::MAX` timestamp)
    /// is rejected with a typed error instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`TraceSpanError`] when the last record's timestamp implies
    /// more than `u32::MAX` monitoring intervals.
    ///
    /// # Panics
    ///
    /// Panics if `interval_us` is zero.
    pub fn try_replay(
        name: impl Into<String>,
        interval_us: u64,
        mut records: Vec<TraceRecord>,
    ) -> Result<Self, TraceSpanError> {
        assert!(interval_us > 0, "interval length must be positive");
        sort_by_time(&mut records);
        let intervals = match records.last() {
            Some(last) => {
                let span = last.timestamp_us / interval_us + 1;
                u32::try_from(span).map_err(|_| TraceSpanError { intervals: span })?
            }
            None => 0,
        };
        Ok(WorkloadSpec {
            name: name.into(),
            kind: WorkloadKind::Custom,
            interval_us,
            phases: Vec::new(),
            base_block: 0,
            replay: Some(ReplayTrace { records: Arc::new(records), intervals }),
            diurnal: None,
            tenants: None,
            zipf_tables: ZipfTables::default(),
        })
    }

    /// Builds an N-tenant interleaved workload: tenant `t` runs
    /// `templates[t % templates.len()]` with a private coordinate-derived
    /// seed, offset by `t * tenant_blocks` blocks, and the streams merge by
    /// timestamp. The merged stream is byte-stable per tenant: adding or
    /// removing tenants never perturbs the surviving tenants' records.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero, `templates` is empty, or any template is
    /// a replay / multi-tenant spec or disagrees on the interval length.
    pub fn multi_tenant(
        name: impl Into<String>,
        count: u32,
        tenant_blocks: u64,
        templates: Vec<WorkloadSpec>,
    ) -> Self {
        assert!(count > 0, "a tenant mix needs at least one tenant");
        assert!(!templates.is_empty(), "a tenant mix needs at least one template");
        let interval_us = templates[0].interval_us;
        for t in &templates {
            assert!(!t.is_replay(), "tenant templates must be synthetic workloads");
            assert!(t.tenants.is_none(), "tenant mixes do not nest");
            assert_eq!(t.interval_us, interval_us, "tenant templates share one interval length");
        }
        WorkloadSpec {
            name: name.into(),
            kind: WorkloadKind::Custom,
            interval_us,
            phases: Vec::new(),
            base_block: 0,
            replay: None,
            diurnal: None,
            tenants: Some(TenantMix { count, tenant_blocks, templates }),
            zipf_tables: ZipfTables::default(),
        }
    }

    /// [`WorkloadSpec::try_replay`] from a [`BinaryTraceCodec`]-encoded
    /// buffer — the bridge from captured trace files to scenario-matrix
    /// cells.
    ///
    /// # Errors
    ///
    /// The codec's decoding errors, or `InvalidData` for a record whose
    /// sector range overflows `u64` or a span past the interval counter.
    ///
    /// # Panics
    ///
    /// Panics if `interval_us` is zero.
    pub fn replay_from_binary(
        name: impl Into<String>,
        interval_us: u64,
        data: bytes::Bytes,
    ) -> std::io::Result<Self> {
        let invalid = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidData, msg);
        let records = BinaryTraceCodec.decode(data)?;
        for (index, record) in records.iter().enumerate() {
            check_range(record).map_err(|e| invalid(format!("record {index}: {e}")))?;
        }
        WorkloadSpec::try_replay(name, interval_us, records).map_err(|e| invalid(e.to_string()))
    }

    /// Whether this workload replays a captured trace.
    pub fn is_replay(&self) -> bool {
        self.replay.is_some()
    }

    /// The captured records of a replay workload (empty for synthetic
    /// workloads).
    pub fn replay_records(&self) -> &[TraceRecord] {
        self.replay.as_ref().map_or(&[], |r| r.records.as_slice())
    }

    /// Appends a phase (builder style).
    pub fn push_phase(mut self, phase: BurstPhase) -> Self {
        self.zipf_tables.register(&phase.pattern);
        self.phases.push(phase);
        self
    }

    /// Offsets the whole workload's footprint on the device (builder style).
    pub fn with_base_block(mut self, base_block: u64) -> Self {
        self.base_block = base_block;
        self
    }

    /// Renames the workload (builder style). Matrix axes key cells, seeds
    /// and aggregation rows by name, so a derived variant (e.g. a canned
    /// workload reshaped by a diurnal curve) must take a distinct name
    /// before joining an axis that also carries the original.
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Reshapes the workload's arrival rates through a piecewise load curve
    /// (builder style). The curve scales every synthetic phase's IOPS by the
    /// interval's slot factor; on a multi-tenant spec it modulates all
    /// tenants together (composing with any per-template curve).
    ///
    /// # Panics
    ///
    /// Panics on replay workloads — a captured trace has fixed arrivals.
    pub fn with_diurnal(mut self, curve: DiurnalCurve) -> Self {
        assert!(!self.is_replay(), "diurnal curves apply to synthetic workloads only");
        self.diurnal = Some(curve);
        self
    }

    /// The diurnal curve, if one is attached.
    pub fn diurnal(&self) -> Option<&DiurnalCurve> {
        self.diurnal.as_ref()
    }

    /// The tenant mix of a multi-tenant workload.
    pub fn tenants(&self) -> Option<&TenantMix> {
        self.tenants.as_ref()
    }

    /// Number of interleaved tenants (1 for single-stream workloads).
    pub fn tenant_count(&self) -> u32 {
        self.tenants.as_ref().map_or(1, |m| m.count)
    }

    /// The workload's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Which canned workload this is.
    pub const fn kind(&self) -> WorkloadKind {
        self.kind
    }

    /// Length of one monitoring interval in microseconds.
    pub const fn interval_us(&self) -> u64 {
        self.interval_us
    }

    /// The workload's phases, in order.
    pub fn phases(&self) -> &[BurstPhase] {
        &self.phases
    }

    /// Total number of monitoring intervals: the sum over all phases, or
    /// the captured trace's span for a replay workload.
    pub fn total_intervals(&self) -> u32 {
        if let Some(replay) = &self.replay {
            return replay.intervals;
        }
        if let Some(mix) = &self.tenants {
            return mix.templates.iter().map(WorkloadSpec::total_intervals).max().unwrap_or(0);
        }
        self.phases.iter().map(|p| p.intervals).sum()
    }

    /// Total simulated duration in microseconds.
    pub fn total_duration_us(&self) -> u64 {
        self.total_intervals() as u64 * self.interval_us
    }

    /// The phase covering monitoring interval `index`, together with the
    /// phase's ordinal, or `None` past the end of the workload.
    pub fn phase_for_interval(&self, index: u32) -> Option<(usize, &BurstPhase)> {
        let mut start = 0;
        for (i, phase) in self.phases.iter().enumerate() {
            if index < start + phase.intervals {
                return Some((i, phase));
            }
            start += phase.intervals;
        }
        None
    }

    /// Whether interval `index` falls in a burst phase (for a multi-tenant
    /// workload: in a burst phase of *any* tenant's template).
    pub fn is_burst_interval(&self, index: u32) -> bool {
        if let Some(mix) = &self.tenants {
            return mix.templates.iter().any(|t| t.is_burst_interval(index));
        }
        self.phase_for_interval(index).map(|(_, p)| p.intensity.is_burst()).unwrap_or(false)
    }

    /// The diurnal multiplier (permille) this spec applies to interval
    /// `index`: 1000 when no curve is attached.
    fn interval_factor_permille(&self, index: u32) -> u32 {
        match &self.diurnal {
            Some(curve) => curve.factor_permille(index, self.total_intervals()),
            None => 1_000,
        }
    }

    /// Generates the open-loop request stream for monitoring interval
    /// `index`, deterministically for a given `seed`. Replay workloads
    /// return the captured records falling inside the interval window (the
    /// seed is ignored — a replay is the same stream for every seed);
    /// multi-tenant workloads merge every tenant's stream by timestamp.
    pub fn generate_interval(&self, index: u32, seed: u64) -> Vec<TraceRecord> {
        let mut out = Vec::new();
        self.generate_interval_into(index, seed, &mut out);
        out
    }

    /// [`WorkloadSpec::generate_interval`] into a caller-owned buffer: `out`
    /// is cleared, then filled with exactly the records `generate_interval`
    /// returns. A loop that reuses one buffer stops allocating once the
    /// buffer has grown to the largest interval (the multi-tenant merge
    /// still takes its sort's scratch space).
    pub fn generate_interval_into(&self, index: u32, seed: u64, out: &mut Vec<TraceRecord>) {
        out.clear();
        if let Some(replay) = &self.replay {
            out.extend_from_slice(replay.interval(index, self.interval_us));
            return;
        }
        let permille = u64::from(self.interval_factor_permille(index));
        if let Some(mix) = &self.tenants {
            for tenant in 0..mix.count {
                self.tenant_interval_scaled(tenant, index, seed, permille, out);
            }
            // Stable sort: equal timestamps keep tenant order, so the merge
            // is a pure function of the per-tenant streams.
            out.sort_by_key(|r| r.timestamp_us);
            return;
        }
        self.synthetic_interval(index, seed, permille, out);
    }

    /// The records of monitoring interval `index`, exactly those
    /// [`WorkloadSpec::generate_interval`] returns, without copying a
    /// replay: a replay spec returns a slice of its shared trace and leaves
    /// `buf` alone, while any other spec generates into `buf` (as
    /// [`WorkloadSpec::generate_interval_into`] does) and returns it.
    pub fn interval_records<'a>(
        &'a self,
        index: u32,
        seed: u64,
        buf: &'a mut Vec<TraceRecord>,
    ) -> &'a [TraceRecord] {
        match &self.replay {
            Some(replay) => replay.interval(index, self.interval_us),
            None => {
                self.generate_interval_into(index, seed, buf);
                buf
            }
        }
    }

    /// Generates tenant `tenant`'s contribution to monitoring interval
    /// `index` — exactly the records [`WorkloadSpec::generate_interval`]
    /// merges for that tenant, address offset included. This is the hook
    /// per-tenant accounting builds on.
    ///
    /// # Panics
    ///
    /// Panics unless this is a multi-tenant workload and `tenant` is in
    /// range.
    pub fn tenant_interval(&self, tenant: u32, index: u32, seed: u64) -> Vec<TraceRecord> {
        let permille = u64::from(self.interval_factor_permille(index));
        let mut records = Vec::new();
        self.tenant_interval_scaled(tenant, index, seed, permille, &mut records);
        records
    }

    /// Appends tenant `tenant`'s records for interval `index` to `out`.
    fn tenant_interval_scaled(
        &self,
        tenant: u32,
        index: u32,
        seed: u64,
        permille: u64,
        out: &mut Vec<TraceRecord>,
    ) {
        let mix = self.tenants.as_ref().expect("tenant streams require a multi-tenant workload");
        assert!(tenant < mix.count, "tenant ordinal out of range");
        let template = &mix.templates[tenant as usize % mix.templates.len()];
        let composed = permille * u64::from(template.interval_factor_permille(index)) / 1_000;
        let start = out.len();
        template.synthetic_interval(index, tenant_seed(seed, tenant), composed, out);
        let offset = u64::from(tenant) * mix.tenant_blocks * BLOCK_SECTORS;
        for r in &mut out[start..] {
            r.sector += offset;
        }
    }

    /// The synthetic phase-driven generation path, with the arrival rate
    /// scaled by `permille` (1000 = unscaled; 0 = a silenced interval),
    /// appending to `out`.
    fn synthetic_interval(&self, index: u32, seed: u64, permille: u64, out: &mut Vec<TraceRecord>) {
        let Some((phase_idx, phase)) = self.phase_for_interval(index) else {
            return;
        };
        if permille == 0 {
            return;
        }
        let start_us = index as u64 * self.interval_us;
        let stream_seed = seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(index as u64)
            .wrapping_add((phase_idx as u64) << 32);
        let iops = phase.iops * (permille as f64 / 1_000.0);
        let table = self.zipf_tables.get(&phase.pattern);
        let mut pattern = AccessPattern::with_zipf_table(
            phase.pattern,
            self.base_block,
            phase.request_blocks,
            stream_seed,
            table,
        );
        let mut arrivals = ArrivalProcess::new(iops, stream_seed ^ 0xA5A5_5A5A);
        generate_stream_into(&mut pattern, &mut arrivals, start_us, self.interval_us, out);
    }

    /// Generates the full trace for the workload: every interval's
    /// records, in interval order, through one reused interval buffer.
    pub fn generate_all(&self, seed: u64) -> Vec<TraceRecord> {
        let mut out = Vec::new();
        let mut interval = Vec::new();
        for idx in 0..self.total_intervals() {
            out.extend_from_slice(self.interval_records(idx, seed, &mut interval));
        }
        out
    }

    /// The TPC-C-like workload (paper Fig. 4a/5a/6a, 200 intervals):
    /// hotspot OLTP traffic with long random-read bursts whose misses flood
    /// the cache with promotes (R ≈ 44 %, P ≈ 51 % in the burst of
    /// interval 3).
    pub fn tpcc() -> Self {
        WorkloadSpec::tpcc_scaled(WorkloadScale::default())
    }

    /// [`WorkloadSpec::tpcc`] at an explicit scale.
    ///
    /// Burst arrival rates are tuned per workload so that, under the plain
    /// write-back cache, the *derived* SSD load (application hits plus the
    /// promotes and evictions the cache generates) sits just above the cache
    /// device's service rate: a random-read burst roughly doubles its
    /// arrival rate on the SSD (one promote per miss), while write-heavy
    /// bursts nearly triple it (dirty evictions), hence the different
    /// multipliers below.
    pub fn tpcc_scaled(scale: WorkloadScale) -> Self {
        let cb = scale.cache_blocks;
        let burst_iops = scale.burst_iops * 1.1;
        WorkloadSpec::new("tpcc", WorkloadKind::Tpcc, scale.interval_us)
            .push_phase(BurstPhase::new(
                "warmup",
                scale.scaled_intervals(3),
                scale.base_iops,
                PatternSpec::Hotspot {
                    read_fraction: 0.85,
                    working_set_blocks: cb,
                    hot_fraction: 0.2,
                    hot_probability: 0.8,
                },
                PhaseIntensity::Moderate,
            ))
            .push_phase(BurstPhase::new(
                "burst-random-read-1",
                scale.scaled_intervals(57),
                burst_iops,
                PatternSpec::RandomRead { working_set_blocks: cb * 2 },
                PhaseIntensity::Burst,
            ))
            .push_phase(BurstPhase::new(
                "steady-oltp",
                scale.scaled_intervals(40),
                scale.base_iops,
                PatternSpec::Hotspot {
                    read_fraction: 0.9,
                    working_set_blocks: cb,
                    hot_fraction: 0.2,
                    hot_probability: 0.85,
                },
                PhaseIntensity::Moderate,
            ))
            .push_phase(BurstPhase::new(
                "burst-random-read-2",
                scale.scaled_intervals(50),
                burst_iops,
                PatternSpec::RandomRead { working_set_blocks: cb * 2 },
                PhaseIntensity::Burst,
            ))
            .push_phase(BurstPhase::new(
                "cooldown",
                scale.scaled_intervals(50),
                scale.base_iops,
                PatternSpec::Hotspot {
                    read_fraction: 0.9,
                    working_set_blocks: cb,
                    hot_fraction: 0.2,
                    hot_probability: 0.85,
                },
                PhaseIntensity::Moderate,
            ))
    }

    /// The mail-server workload (paper Fig. 4b/5b/6b, 200 intervals): a
    /// long write-heavy mixed burst (RO assigned at interval 23), a short
    /// random-read burst (WO at interval 128) and a write-intensive burst
    /// (WB at interval 134).
    pub fn mail_server() -> Self {
        WorkloadSpec::mail_server_scaled(WorkloadScale::default())
    }

    /// [`WorkloadSpec::mail_server`] at an explicit scale.
    pub fn mail_server_scaled(scale: WorkloadScale) -> Self {
        let cb = scale.cache_blocks;
        // Write-heavy bursts generate roughly one dirty eviction per write
        // once the cache is saturated, so their arrival rates are scaled
        // down to keep the derived SSD load just above the service rate.
        let mixed_burst_iops = scale.burst_iops * 0.5;
        let scan_burst_iops = scale.burst_iops * 1.1;
        let write_burst_iops = scale.burst_iops * 0.45;
        WorkloadSpec::new("mail-server", WorkloadKind::MailServer, scale.interval_us)
            .push_phase(BurstPhase::new(
                "steady-delivery",
                scale.scaled_intervals(23),
                scale.base_iops,
                PatternSpec::Mixed { read_fraction: 0.5, working_set_blocks: cb },
                PhaseIntensity::Moderate,
            ))
            .push_phase(BurstPhase::new(
                "burst-mixed-write-heavy",
                scale.scaled_intervals(105),
                mixed_burst_iops,
                PatternSpec::Hotspot {
                    read_fraction: 0.22,
                    working_set_blocks: cb + cb / 2,
                    hot_fraction: 0.3,
                    hot_probability: 0.75,
                },
                PhaseIntensity::Burst,
            ))
            .push_phase(BurstPhase::new(
                "burst-mailbox-scan",
                scale.scaled_intervals(6),
                scan_burst_iops,
                PatternSpec::RandomRead { working_set_blocks: cb * 2 },
                PhaseIntensity::Burst,
            ))
            .push_phase(BurstPhase::new(
                "burst-write-intensive",
                scale.scaled_intervals(30),
                write_burst_iops,
                PatternSpec::RandomWrite { working_set_blocks: cb * 2 },
                PhaseIntensity::Burst,
            ))
            .push_phase(BurstPhase::new(
                "cooldown",
                scale.scaled_intervals(36),
                scale.base_iops,
                PatternSpec::Mixed { read_fraction: 0.5, working_set_blocks: cb },
                PhaseIntensity::Moderate,
            ))
    }

    /// The web-server workload (paper Fig. 4c/5c/6c, 175 intervals): a
    /// mixed read/write burst right at the start (RO assigned at interval 1)
    /// followed by a long moderate tail.
    pub fn web_server() -> Self {
        WorkloadSpec::web_server_scaled(WorkloadScale::default())
    }

    /// [`WorkloadSpec::web_server`] at an explicit scale.
    pub fn web_server_scaled(scale: WorkloadScale) -> Self {
        let cb = scale.cache_blocks;
        let burst_iops = scale.burst_iops * 0.55;
        WorkloadSpec::new("web-server", WorkloadKind::WebServer, scale.interval_us)
            .push_phase(BurstPhase::new(
                "burst-mixed",
                scale.scaled_intervals(40),
                burst_iops,
                PatternSpec::Hotspot {
                    read_fraction: 0.28,
                    working_set_blocks: cb + cb / 2,
                    hot_fraction: 0.25,
                    hot_probability: 0.7,
                },
                PhaseIntensity::Burst,
            ))
            .push_phase(BurstPhase::new(
                "steady-serving",
                scale.scaled_intervals(135),
                scale.base_iops,
                PatternSpec::Hotspot {
                    read_fraction: 0.75,
                    working_set_blocks: cb,
                    hot_fraction: 0.15,
                    hot_probability: 0.85,
                },
                PhaseIntensity::Moderate,
            ))
    }

    /// A parameterized synthetic workload for scenario sweeps: a moderate
    /// warm-up, one long mixed burst with the given read fraction, and a
    /// moderate cool-down (120 paper intervals total). Sweeping
    /// `read_fraction` from 0 to 1 moves the burst across the paper's
    /// workload groups (write-intensive → read-intensive), exercising
    /// controller behaviours the three canned workloads never hit.
    ///
    /// # Panics
    ///
    /// Panics if `read_fraction` is outside `[0, 1]`.
    pub fn synthetic_scaled(
        name: impl Into<String>,
        scale: WorkloadScale,
        read_fraction: f64,
    ) -> Self {
        assert!(
            (0.0..=1.0).contains(&read_fraction),
            "read fraction must be within [0, 1], got {read_fraction}"
        );
        let cb = scale.cache_blocks;
        // Read-heavy bursts roughly double their SSD load (one promote per
        // miss) while write-heavy bursts nearly triple it (dirty
        // evictions); interpolate the arrival rate between the two regimes
        // so the burst always sits just above the cache's service rate.
        let burst_iops = scale.burst_iops * (0.45 + 0.65 * read_fraction);
        WorkloadSpec::new(name, WorkloadKind::Custom, scale.interval_us)
            .push_phase(BurstPhase::new(
                "warmup",
                scale.scaled_intervals(20),
                scale.base_iops,
                PatternSpec::Mixed { read_fraction: 0.6, working_set_blocks: cb },
                PhaseIntensity::Moderate,
            ))
            .push_phase(BurstPhase::new(
                "burst-mixed",
                scale.scaled_intervals(60),
                burst_iops,
                PatternSpec::Mixed { read_fraction, working_set_blocks: cb * 2 },
                PhaseIntensity::Burst,
            ))
            .push_phase(BurstPhase::new(
                "cooldown",
                scale.scaled_intervals(40),
                scale.base_iops,
                PatternSpec::Mixed { read_fraction: 0.6, working_set_blocks: cb },
                PhaseIntensity::Moderate,
            ))
    }

    /// All three canned workloads at the given scale, in the order the
    /// paper plots them.
    pub fn paper_suite(scale: WorkloadScale) -> Vec<WorkloadSpec> {
        vec![
            WorkloadSpec::tpcc_scaled(scale),
            WorkloadSpec::mail_server_scaled(scale),
            WorkloadSpec::web_server_scaled(scale),
        ]
    }

    /// A Zipf-popularity workload for heavy-tail sweeps: a moderate warm-up,
    /// one long read-heavy burst whose block popularity follows
    /// `Zipf(skew_permille / 1000)` over twice the cache, and a cool-down.
    /// Sweeping the skew moves the burst from uniform-random (0) to strongly
    /// concentrated (≥ 1000), which monotonically improves cache hit rates.
    pub fn zipfian_scaled(
        name: impl Into<String>,
        scale: WorkloadScale,
        skew_permille: u32,
    ) -> Self {
        let cb = scale.cache_blocks;
        let zipf = |working_set_blocks: u64| PatternSpec::Zipfian {
            read_fraction: 0.8,
            working_set_blocks,
            skew_permille,
        };
        WorkloadSpec::new(name, WorkloadKind::Custom, scale.interval_us)
            .push_phase(BurstPhase::new(
                "warmup",
                scale.scaled_intervals(20),
                scale.base_iops,
                zipf(cb),
                PhaseIntensity::Moderate,
            ))
            .push_phase(BurstPhase::new(
                "burst-zipf",
                scale.scaled_intervals(60),
                scale.burst_iops,
                zipf(cb * 2),
                PhaseIntensity::Burst,
            ))
            .push_phase(BurstPhase::new(
                "cooldown",
                scale.scaled_intervals(40),
                scale.base_iops,
                zipf(cb),
                PhaseIntensity::Moderate,
            ))
    }

    /// The paper's three workloads interleaved as `tenants` independent
    /// client streams — the "millions of users" scenario in miniature. Each
    /// tenant cycles through TPC-C / mail-server / web-server templates
    /// whose arrival rates are divided by the tenant count, so the combined
    /// offered load matches a single-stream run of the same scale while the
    /// address space splits into disjoint per-tenant regions.
    ///
    /// # Panics
    ///
    /// Panics if `tenants` is zero.
    pub fn paper_mt_scaled(scale: WorkloadScale, tenants: u32) -> Self {
        assert!(tenants > 0, "a tenant mix needs at least one tenant");
        let per_tenant = WorkloadScale {
            burst_iops: scale.burst_iops / f64::from(tenants),
            base_iops: scale.base_iops / f64::from(tenants),
            ..scale
        };
        WorkloadSpec::multi_tenant(
            format!("paper-mt{tenants}"),
            tenants,
            scale.cache_blocks * 4,
            WorkloadSpec::paper_suite(per_tenant),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_interval_counts_match() {
        assert_eq!(WorkloadSpec::tpcc().total_intervals(), 200);
        assert_eq!(WorkloadSpec::mail_server().total_intervals(), 200);
        assert_eq!(WorkloadSpec::web_server().total_intervals(), 175);
    }

    #[test]
    fn phase_lookup_covers_all_intervals() {
        let spec = WorkloadSpec::mail_server();
        let total = spec.total_intervals();
        for idx in 0..total {
            assert!(spec.phase_for_interval(idx).is_some(), "interval {idx} uncovered");
        }
        assert!(spec.phase_for_interval(total).is_none());
    }

    #[test]
    fn mail_server_burst_structure_matches_fig6b() {
        let spec = WorkloadSpec::mail_server();
        assert!(!spec.is_burst_interval(10));
        assert!(spec.is_burst_interval(23));
        assert!(spec.is_burst_interval(100));
        assert!(spec.is_burst_interval(129));
        assert!(spec.is_burst_interval(140));
        assert!(!spec.is_burst_interval(180));
        // The phase starting at interval 128 is the mailbox-scan (random read).
        let (_, phase) = spec.phase_for_interval(130).unwrap();
        assert!(matches!(phase.pattern, PatternSpec::RandomRead { .. }));
        // And at 134+ the write-intensive burst begins.
        let (_, phase) = spec.phase_for_interval(140).unwrap();
        assert!(matches!(phase.pattern, PatternSpec::RandomWrite { .. }));
    }

    #[test]
    fn generated_interval_is_deterministic_and_in_window() {
        let spec = WorkloadSpec::tpcc();
        let a = spec.generate_interval(5, 42);
        let b = spec.generate_interval(5, 42);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        let lo = 5 * spec.interval_us();
        let hi = 6 * spec.interval_us();
        assert!(a.iter().all(|r| r.timestamp_us >= lo && r.timestamp_us < hi));
        let c = spec.generate_interval(5, 43);
        assert_ne!(a, c, "different seeds give different streams");
    }

    #[test]
    fn burst_intervals_carry_more_requests_than_moderate_ones() {
        let spec = WorkloadSpec::tpcc();
        let moderate = spec.generate_interval(0, 7).len();
        let burst = spec.generate_interval(10, 7).len();
        assert!(burst > 2 * moderate, "burst {burst} vs moderate {moderate}");
    }

    #[test]
    fn out_of_range_interval_generates_nothing() {
        let spec = WorkloadSpec::web_server();
        assert!(spec.generate_interval(10_000, 1).is_empty());
    }

    #[test]
    fn tiny_scale_shrinks_everything() {
        let spec = WorkloadSpec::tpcc_scaled(WorkloadScale::tiny());
        assert!(spec.total_intervals() < 30);
        assert!(spec.total_duration_us() < 1_000_000);
    }

    #[test]
    fn paper_suite_contains_three_workloads_in_order() {
        let suite = WorkloadSpec::paper_suite(WorkloadScale::tiny());
        let kinds: Vec<WorkloadKind> = suite.iter().map(|w| w.kind()).collect();
        assert_eq!(
            kinds,
            vec![WorkloadKind::Tpcc, WorkloadKind::MailServer, WorkloadKind::WebServer]
        );
    }

    #[test]
    fn custom_workload_builder_works() {
        let spec = WorkloadSpec::new("mine", WorkloadKind::Custom, 50_000)
            .with_base_block(1_000_000)
            .push_phase(BurstPhase::new(
                "only",
                4,
                1_000.0,
                PatternSpec::SequentialRead { length_blocks: 100 },
                PhaseIntensity::Moderate,
            ));
        assert_eq!(spec.total_intervals(), 4);
        assert_eq!(spec.name(), "mine");
        let recs = spec.generate_interval(0, 1);
        assert!(recs.iter().all(|r| r.sector >= 1_000_000 * 8));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_interval_length_panics() {
        let _ = WorkloadSpec::new("bad", WorkloadKind::Custom, 0);
    }

    #[test]
    fn synthetic_workload_scales_and_sweeps_its_read_fraction() {
        let scale = WorkloadScale::tiny();
        let writes = WorkloadSpec::synthetic_scaled("syn-w", scale, 0.0);
        let reads = WorkloadSpec::synthetic_scaled("syn-r", scale, 1.0);
        assert_eq!(writes.kind(), WorkloadKind::Custom);
        assert_eq!(writes.total_intervals(), reads.total_intervals());
        assert!(writes.phases().iter().any(|p| p.intensity.is_burst()));
        // A higher read fraction allows a higher burst arrival rate.
        let burst_iops = |spec: &WorkloadSpec| {
            spec.phases().iter().find(|p| p.intensity.is_burst()).unwrap().iops
        };
        assert!(burst_iops(&reads) > burst_iops(&writes));
        // The generated stream is non-empty and deterministic.
        let burst_interval = (0..writes.total_intervals())
            .find(|i| writes.is_burst_interval(*i))
            .expect("synthetic workloads have a burst");
        let a = writes.generate_interval(burst_interval, 5);
        assert!(!a.is_empty());
        assert_eq!(a, writes.generate_interval(burst_interval, 5));
    }

    #[test]
    fn replay_workload_feeds_back_the_captured_stream() {
        use lbica_storage::request::RequestKind;
        // Deliberately unsorted capture spanning three 1 ms intervals.
        let records = vec![
            TraceRecord::new(2_500, 160, 8, RequestKind::Write),
            TraceRecord::new(100, 0, 8, RequestKind::Read),
            TraceRecord::new(1_200, 80, 16, RequestKind::Write),
            TraceRecord::new(999, 40, 8, RequestKind::Read),
        ];
        let spec = WorkloadSpec::replay("capture", 1_000, records);
        assert!(spec.is_replay());
        assert_eq!(spec.total_intervals(), 3);
        assert_eq!(spec.replay_records().len(), 4);
        // Interval 0 holds the two sub-millisecond records, sorted.
        let i0 = spec.generate_interval(0, 42);
        assert_eq!(i0.len(), 2);
        assert!(i0[0].timestamp_us <= i0[1].timestamp_us);
        assert_eq!(spec.generate_interval(1, 42).len(), 1);
        assert_eq!(spec.generate_interval(2, 42).len(), 1);
        assert!(spec.generate_interval(3, 42).is_empty());
        // The seed does not matter: replays are the same stream always.
        assert_eq!(spec.generate_all(1), spec.generate_all(99));
        assert_eq!(spec.generate_all(1).len(), 4);
        // Burst/phase machinery reports the replay has no phases.
        assert!(!spec.is_burst_interval(0));
        assert!(spec.phase_for_interval(0).is_none());
    }

    #[test]
    fn empty_replay_has_no_intervals() {
        let spec = WorkloadSpec::replay("empty", 1_000, Vec::new());
        assert_eq!(spec.total_intervals(), 0);
        assert!(spec.generate_interval(0, 1).is_empty());
    }

    #[test]
    fn replay_from_binary_round_trips_through_the_codec() {
        use crate::io::BinaryTraceCodec;
        use lbica_storage::request::RequestKind;
        let records = vec![
            TraceRecord::new(10, 8, 8, RequestKind::Read),
            TraceRecord::new(20, 16, 8, RequestKind::Write),
        ];
        let encoded = BinaryTraceCodec.encode(&records);
        let spec = WorkloadSpec::replay_from_binary("bin", 1_000, encoded).unwrap();
        assert_eq!(spec.replay_records(), records.as_slice());
        // Malformed buffers propagate the codec error.
        let bad = bytes::Bytes::from(vec![1u8, 2, 3]);
        assert!(WorkloadSpec::replay_from_binary("bad", 1_000, bad).is_err());
    }

    #[test]
    fn replay_from_binary_rejects_a_span_past_the_interval_counter() {
        use crate::io::BinaryTraceCodec;
        use lbica_storage::request::RequestKind;
        let records = vec![TraceRecord::new(u64::MAX, 0, 8, RequestKind::Read)];
        let err =
            WorkloadSpec::replay_from_binary("huge", 1_000, BinaryTraceCodec.encode(&records))
                .unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("interval counter"));
    }

    #[test]
    fn replay_from_binary_rejects_sector_ranges_past_u64() {
        use crate::io::BinaryTraceCodec;
        use lbica_storage::request::RequestKind;
        let records = vec![
            TraceRecord::new(0, 0, 8, RequestKind::Read),
            TraceRecord::new(10, u64::MAX - 7, 8, RequestKind::Write),
        ];
        let err =
            WorkloadSpec::replay_from_binary("wrap", 1_000, BinaryTraceCodec.encode(&records))
                .unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("record 1"), "{err}");
        // The last sector of the address space is still replayable.
        let edge = vec![TraceRecord::new(0, u64::MAX - 8, 8, RequestKind::Write)];
        assert!(
            WorkloadSpec::replay_from_binary("edge", 1_000, BinaryTraceCodec.encode(&edge)).is_ok()
        );
    }

    #[test]
    #[should_panic(expected = "read fraction")]
    fn synthetic_workload_rejects_bad_read_fraction() {
        let _ = WorkloadSpec::synthetic_scaled("bad", WorkloadScale::tiny(), 1.5);
    }

    #[test]
    fn scaled_intervals_is_public_and_floors_at_one() {
        let scale = WorkloadScale::tiny();
        assert_eq!(scale.scaled_intervals(1), 1);
        assert_eq!(scale.scaled_intervals(200), 20);
    }

    #[test]
    fn diurnal_curve_maps_intervals_to_slots() {
        let curve = DiurnalCurve::new(vec![100, 1_000, 2_000]);
        assert_eq!(curve.factor_permille(0, 9), 100);
        assert_eq!(curve.factor_permille(2, 9), 100);
        assert_eq!(curve.factor_permille(3, 9), 1_000);
        assert_eq!(curve.factor_permille(8, 9), 2_000);
        // Degenerate totals fall back to the identity factor.
        assert_eq!(curve.factor_permille(0, 0), 1_000);
    }

    #[test]
    fn diurnal_curve_reshapes_arrival_volume() {
        let scale = WorkloadScale::tiny();
        let flat = WorkloadSpec::synthetic_scaled("flat", scale, 0.6);
        let shaped = WorkloadSpec::synthetic_scaled("shaped", scale, 0.6)
            .with_diurnal(DiurnalCurve::new(vec![0, 1_000, 2_000]));
        let total = shaped.total_intervals();
        let third = total / 3;
        // The silenced first third generates nothing; the middle third is
        // untouched (factor 1000 multiplies by exactly 1.0); the last third
        // roughly doubles.
        assert!(shaped.generate_interval(0, 7).is_empty());
        assert_eq!(shaped.generate_interval(third + 1, 7), flat.generate_interval(third + 1, 7));
        let flat_last = flat.generate_interval(total - 1, 7).len();
        let shaped_last = shaped.generate_interval(total - 1, 7).len();
        assert!(shaped_last > flat_last * 3 / 2, "doubled slot: {shaped_last} vs flat {flat_last}");
    }

    #[test]
    fn identity_diurnal_curve_changes_nothing() {
        let scale = WorkloadScale::tiny();
        let plain = WorkloadSpec::tpcc_scaled(scale);
        let shaped = WorkloadSpec::tpcc_scaled(scale).with_diurnal(DiurnalCurve::new(vec![1_000]));
        for idx in 0..plain.total_intervals() {
            assert_eq!(plain.generate_interval(idx, 11), shaped.generate_interval(idx, 11));
        }
    }

    #[test]
    #[should_panic(expected = "synthetic workloads only")]
    fn diurnal_on_replay_panics() {
        let _ =
            WorkloadSpec::replay("cap", 1_000, Vec::new()).with_diurnal(DiurnalCurve::day_night());
    }

    fn tiny_mt(tenants: u32) -> WorkloadSpec {
        WorkloadSpec::paper_mt_scaled(WorkloadScale::tiny(), tenants)
    }

    #[test]
    fn multi_tenant_merges_per_tenant_streams_stably() {
        let spec = tiny_mt(3);
        assert_eq!(spec.tenant_count(), 3);
        let merged = spec.generate_interval(2, 9);
        let mut manual: Vec<TraceRecord> =
            (0..3).flat_map(|t| spec.tenant_interval(t, 2, 9)).collect();
        manual.sort_by_key(|r| r.timestamp_us);
        assert_eq!(merged, manual);
        assert!(!merged.is_empty());
        assert!(merged.windows(2).all(|w| w[0].timestamp_us <= w[1].timestamp_us));
    }

    #[test]
    fn generate_all_concatenates_every_interval() {
        let scale = WorkloadScale::tiny();
        let specs = [
            WorkloadSpec::synthetic_scaled("synthetic", scale, 0.2),
            WorkloadSpec::zipfian_scaled("zipf", scale, 900),
            tiny_mt(3).with_diurnal(DiurnalCurve::day_night()),
        ];
        for spec in specs {
            let expected: Vec<TraceRecord> =
                (0..spec.total_intervals()).flat_map(|i| spec.generate_interval(i, 31)).collect();
            assert!(!expected.is_empty(), "{} generated nothing", spec.name());
            assert_eq!(spec.generate_all(31), expected, "{}", spec.name());
        }
    }

    #[test]
    fn tenant_streams_are_stable_under_tenant_count() {
        // For a fixed template set, tenant 1's stream must be byte-identical
        // whether the mix has 2 or 6 tenants: seeds derive from the cell
        // seed and the tenant ordinal only. (`paper_mt_scaled` is excluded —
        // it deliberately rescales per-tenant load with the count.)
        let templates = WorkloadSpec::paper_suite(WorkloadScale::tiny());
        let small = WorkloadSpec::multi_tenant("mt2", 2, 2_048, templates.clone());
        let large = WorkloadSpec::multi_tenant("mt6", 6, 2_048, templates);
        for idx in 0..4 {
            assert_eq!(small.tenant_interval(1, idx, 77), large.tenant_interval(1, idx, 77));
        }
    }

    #[test]
    fn tenants_occupy_disjoint_address_regions() {
        let spec = tiny_mt(4);
        let stride = spec.tenants().unwrap().tenant_blocks() * 8;
        for t in 0..4 {
            let lo = u64::from(t) * stride;
            let hi = lo + stride;
            for r in spec.tenant_interval(t, 1, 5) {
                assert!(
                    r.sector >= lo && r.sector < hi,
                    "tenant {t} sector {} outside [{lo}, {hi})",
                    r.sector
                );
            }
        }
    }

    #[test]
    fn multi_tenant_intervals_span_the_longest_template() {
        let spec = tiny_mt(6);
        let longest = WorkloadSpec::paper_suite(WorkloadScale::tiny())
            .iter()
            .map(WorkloadSpec::total_intervals)
            .max()
            .unwrap();
        assert_eq!(spec.total_intervals(), longest);
        assert!(spec.is_burst_interval(4), "some template bursts early");
    }

    #[test]
    #[should_panic(expected = "synthetic workloads")]
    fn multi_tenant_rejects_replay_templates() {
        let replay = WorkloadSpec::replay("cap", 20_000, Vec::new());
        let _ = WorkloadSpec::multi_tenant("bad", 2, 1_024, vec![replay]);
    }

    #[test]
    fn clones_taken_before_the_build_share_the_zipf_table() {
        let a = WorkloadSpec::zipfian_scaled("zipf", WorkloadScale::tiny(), 900);
        let b = a.clone();
        let pattern = &a.phases()[0].pattern;
        assert!(!a.generate_interval(0, 1).is_empty());
        let built = a.zipf_tables.get(pattern).unwrap();
        assert!(Arc::ptr_eq(&built, &b.zipf_tables.get(pattern).unwrap()));
    }

    #[test]
    #[should_panic(expected = "at most u32::MAX sectors")]
    fn requests_longer_than_the_record_length_field_are_rejected() {
        let pattern = PatternSpec::RandomRead { working_set_blocks: 8 };
        let _ = BurstPhase::new("huge", 1, 1.0, pattern, PhaseIntensity::Moderate)
            .with_request_blocks(u64::from(u32::MAX));
    }

    #[test]
    fn try_replay_rejects_overflowing_trace_spans() {
        use lbica_storage::request::RequestKind;
        let records = vec![TraceRecord::new(u64::MAX, 0, 8, RequestKind::Read)];
        let err = WorkloadSpec::try_replay("huge", 1_000, records).unwrap_err();
        assert!(err.intervals > u64::from(u32::MAX));
        assert!(err.to_string().contains("interval counter"));
    }
}
