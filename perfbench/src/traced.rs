//! The traced run: every cell is driven through the benchmark's own copy of
//! the simulator's interval loop, built from public APIs only, and each call
//! into a layer is recorded as a span under its interval and cell.
//!
//! The copy must stay step-for-step equal to `Simulation::run_in`; the
//! benchmark checks that it reproduces each plain run's report, so a loop
//! that drifts is caught instead of measuring a different program.

use std::collections::BTreeMap;
use std::time::Instant;

use lbica_cache::{CacheStats, WritePolicy};
use lbica_lab::{Scenario, ScenarioMatrix};
use lbica_sim::{
    BypassDirective, ControllerContext, ControllerDecision, PolicyChange, SimArena,
    SimulationConfig, SimulationReport, StorageSystem, TierLevelStats, TierLoad,
    TieredStorageSystem,
};
use lbica_storage::queue::DeviceQueue;
use lbica_storage::time::{SimDuration, SimTime};
use lbica_trace::{IntervalReport, TraceRecord};

use crate::calib::Calibrator;

/// What a span covers. `Cell` and `Interval` are the benchmark's own
/// structure; every other op is one call into a layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Cell,
    Interval,
    ArenaTake,
    Generate,
    Schedule,
    RunUntil,
    EndInterval,
    OnInterval,
    SetPolicy,
    ApplyBypass,
    Drain,
    ArenaStore,
}

impl Op {
    /// The span's name in the written trace.
    pub fn name(self) -> &'static str {
        match self {
            Op::Cell => "bench.cell",
            Op::Interval => "bench.interval",
            Op::ArenaTake => "sim.SimArena::take",
            Op::Generate => "trace.generate_interval",
            Op::Schedule => "sim.schedule_record",
            Op::RunUntil => "sim.run_until",
            Op::EndInterval => "sim.end_interval",
            Op::OnInterval => "core.on_interval",
            Op::SetPolicy => "sim.set_policy",
            Op::ApplyBypass => "storage.apply_bypass",
            Op::Drain => "sim.drain",
            Op::ArenaStore => "sim.SimArena::store",
        }
    }

    /// The per-layer metric the op's self time is booked under; `None` for
    /// the benchmark's own glue.
    pub fn metric(self) -> Option<&'static str> {
        match self {
            Op::Cell | Op::Interval => None,
            Op::ArenaTake | Op::ArenaStore => Some("sim.arena_s"),
            Op::Generate => Some("trace.generate_s"),
            Op::Schedule => Some("sim.schedule_s"),
            Op::RunUntil => Some("sim.run_until_s"),
            Op::EndInterval => Some("sim.end_interval_s"),
            Op::OnInterval => Some("core.on_interval_s"),
            Op::SetPolicy => Some("sim.set_policy_s"),
            Op::ApplyBypass => Some("storage.apply_bypass_s"),
            Op::Drain => Some("sim.drain_s"),
        }
    }
}

/// Parent index of a root span.
pub const ROOT: u32 = u32::MAX;

/// One recorded span; times are nanoseconds since the trace's origin.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub op: Op,
    pub parent: u32,
    /// Matrix index of the cell the span belongs to.
    pub cell: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// An in-memory span log.
pub struct Trace {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Trace {
    pub fn new() -> Self {
        Trace { origin: Instant::now(), spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn open(&mut self, op: Op, parent: u32, cell: u32) -> u32 {
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span { op, parent, cell, start_ns, end_ns: start_ns });
        id
    }

    fn close(&mut self, id: u32) {
        let end_ns = self.now_ns();
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Opens a span under `parent`, in the parent's cell.
    fn child(&mut self, op: Op, parent: u32) -> u32 {
        let cell = self.spans[parent as usize].cell;
        self.open(op, parent, cell)
    }

    fn call<R>(&mut self, op: Op, parent: u32, f: impl FnOnce() -> R) -> R {
        let id = self.child(op, parent);
        let result = f();
        self.close(id);
        result
    }

    /// Self time per span: its duration minus the part its children cover.
    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for span in &self.spans {
            if span.parent != ROOT {
                let parent = &mut own[span.parent as usize];
                *parent = parent.saturating_sub(span.end_ns - span.start_ns);
            }
        }
        own
    }

    /// Seconds of self time per layer metric, plus the benchmark's glue
    /// (self time of cell and interval spans) under `None`.
    pub fn self_seconds(&self) -> BTreeMap<Option<&'static str>, f64> {
        let mut out = BTreeMap::new();
        for (span, ns) in self.spans.iter().zip(self.self_ns()) {
            *out.entry(span.op.metric()).or_insert(0.0) += ns as f64 / 1e9;
        }
        out
    }

    /// The spans as JSON lines, one object per span.
    pub fn to_jsonl(&self, cell_ids: &[String]) -> String {
        let mut out = String::new();
        for (id, (span, own)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            let parent = if span.parent == ROOT { -1 } else { i64::from(span.parent) };
            let cell = cell_ids.get(span.cell as usize).map_or("", String::as_str);
            out.push_str(&format!(
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"cell\":\"{cell}\",\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{own}}}\n",
                span.op.name(),
                span.start_ns,
                span.end_ns
            ));
        }
        out
    }
}

/// Everything the traced loop observed for one cell: the report fields the
/// plain run must reproduce, plus conservation inputs.
#[derive(Debug)]
pub struct TracedCell {
    /// Application requests handed to `schedule_record`.
    pub scheduled: u64,
    /// Whether the final drain emptied the event queue within its cap.
    pub drained: bool,
    pub intervals: Vec<IntervalReport>,
    pub policy_changes: Vec<PolicyChange>,
    pub bypassed_requests: u64,
    pub app_completed: u64,
    pub app_latency_us: [u64; 5],
    pub cache_stats: CacheStats,
    pub events_processed: u64,
    pub peak_event_queue_depth: usize,
    pub tier_stats: Vec<TierLevelStats>,
}

impl TracedCell {
    /// The names of the report fields the traced loop failed to reproduce.
    pub fn differences(&self, report: &SimulationReport) -> Vec<&'static str> {
        let latency = [
            report.app_avg_latency_us,
            report.app_max_latency_us,
            report.app_p50_latency_us,
            report.app_p95_latency_us,
            report.app_p99_latency_us,
        ];
        let checks = [
            ("intervals", self.intervals == report.intervals),
            ("policy_changes", self.policy_changes == report.policy_changes),
            ("bypassed_requests", self.bypassed_requests == report.bypassed_requests),
            ("app_completed", self.app_completed == report.app_completed),
            ("app_latency", self.app_latency_us == latency),
            ("cache_stats", self.cache_stats == report.cache_stats),
            ("events_processed", self.events_processed == report.perf.events_processed),
            (
                "peak_event_queue_depth",
                self.peak_event_queue_depth == report.perf.peak_event_queue_depth,
            ),
            ("tier_stats", self.tier_stats == report.tier_stats),
        ];
        checks.iter().filter(|(_, ok)| !ok).map(|(name, _)| *name).collect()
    }
}

/// Runs every cell of `matrix` in order through the traced loop, each cell
/// a root span in `trace`, with the calibration kernel run between cells.
/// Returns the cells and the pass's wall seconds (the cell spans' total).
pub fn run_pass(
    matrix: &ScenarioMatrix,
    arena: &mut SimArena,
    trace: &mut Trace,
    cal: &mut Calibrator,
) -> (Vec<TracedCell>, f64) {
    let mut wall_ns = 0;
    let cells = matrix
        .cells()
        .enumerate()
        .map(|(index, cell)| {
            cal.run();
            let span = trace.open(Op::Cell, ROOT, index as u32);
            let traced = if cell.config().is_tiered() {
                run_cell::<TieredStorageSystem>(&cell, arena, trace, span)
            } else {
                run_cell::<StorageSystem>(&cell, arena, trace, span)
            };
            trace.close(span);
            let span = &trace.spans[span as usize];
            wall_ns += span.end_ns - span.start_ns;
            traced
        })
        .collect();
    (cells, wall_ns as f64 / 1e9)
}

/// The runner's interval loop (`Simulation::run_in`), one span per call.
fn run_cell<D: Datapath>(
    cell: &Scenario,
    arena: &mut SimArena,
    trace: &mut Trace,
    cell_span: u32,
) -> TracedCell {
    let config = *cell.config();
    let spec = cell.workload();
    let seed = cell.stream_seed();
    let mut controller = cell.controller().build();
    let mut system = trace.call(Op::ArenaTake, cell_span, || D::take(arena, &config));
    let initial = controller.initial_policy();
    let label = trace.call(Op::SetPolicy, cell_span, || system.start(initial));
    let mut policy_changes = vec![PolicyChange { interval: 0, policy: label }];

    let total_intervals = spec.total_intervals();
    let interval_us = spec.interval_us();
    let mut intervals = Vec::with_capacity(total_intervals as usize);
    let mut tier_loads: Vec<TierLoad> = Vec::new();
    let mut bypassed_requests = 0;
    let mut scheduled = 0;
    for index in 0..total_intervals {
        let span = trace.child(Op::Interval, cell_span);
        let records = trace.call(Op::Generate, span, || spec.generate_interval(index, seed));
        scheduled += records.len() as u64;
        trace.call(Op::Schedule, span, || {
            for record in &records {
                system.schedule_record(record);
            }
            drop(records);
        });
        let boundary = SimTime::from_micros((index as u64 + 1) * interval_us);
        trace.call(Op::RunUntil, span, || system.run_until(boundary));
        let mut report =
            trace.call(Op::EndInterval, span, || system.end_interval(index, &mut tier_loads));

        let decision = trace.call(Op::OnInterval, span, || {
            let ctx = ControllerContext {
                interval_index: index,
                now: system.now(),
                cache_queue_depth: report.cache.queue_depth,
                disk_queue_depth: report.disk.queue_depth,
                cache_avg_latency: system.cache_avg_latency(),
                disk_avg_latency: system.disk_avg_latency(),
                cache_queue_mix: report.cache_queue_mix,
                current_policy: system.policy(),
                cache_queue: system.cache_queue(),
                tier_loads: &tier_loads,
                tier_policies: system.level_policies(),
            };
            controller.on_interval(&ctx)
        });

        report.burst_detected = decision.burst_detected;
        if system.switches_policy(&decision) {
            let policy = trace.call(Op::SetPolicy, span, || system.apply_policy(&decision));
            policy_changes.push(PolicyChange { interval: index + 1, policy });
        }
        bypassed_requests +=
            trace.call(Op::ApplyBypass, span, || system.apply_bypass(&decision.bypass));
        intervals.push(report);
        trace.close(span);
    }

    // The runner's drain cap: 600 steps of 100 ms.
    let drained = trace.call(Op::Drain, cell_span, || system.drain(600));
    let traced = TracedCell {
        scheduled,
        drained,
        intervals,
        policy_changes,
        bypassed_requests,
        app_completed: system.app_completed(),
        app_latency_us: system.app_latency_us(),
        cache_stats: system.hot_stats(),
        events_processed: system.events_processed(),
        peak_event_queue_depth: system.peak_event_queue_depth(),
        tier_stats: system.tier_stats(),
    };
    trace.call(Op::ArenaStore, cell_span, || system.store(arena, config));
    traced
}

/// The calls the interval loop makes, over the flat and the tiered system.
trait Datapath: Sized {
    fn take(arena: &mut SimArena, config: &SimulationConfig) -> Self;
    fn store(self, arena: &mut SimArena, config: SimulationConfig);
    /// Applies the controller's initial policy; returns the run-start label.
    fn start(&mut self, policy: WritePolicy) -> String;
    fn schedule_record(&mut self, record: &TraceRecord);
    fn run_until(&mut self, limit: SimTime);
    /// Closes interval `index`, refreshing `tier_loads` (left empty when flat).
    fn end_interval(&mut self, index: u32, tier_loads: &mut Vec<TierLoad>) -> IntervalReport;
    fn now(&self) -> SimTime;
    fn cache_avg_latency(&self) -> SimDuration;
    fn disk_avg_latency(&self) -> SimDuration;
    fn policy(&self) -> WritePolicy;
    fn cache_queue(&self) -> &DeviceQueue;
    fn level_policies(&self) -> &[WritePolicy];
    fn switches_policy(&self, decision: &ControllerDecision) -> bool;
    /// Applies the decision's policy; returns the recorded label.
    fn apply_policy(&mut self, decision: &ControllerDecision) -> String;
    /// Applies the bypass; returns requests sent to the disk (spills excluded).
    fn apply_bypass(&mut self, directive: &BypassDirective) -> u64;
    fn drain(&mut self, max_steps: u32) -> bool;
    fn app_completed(&self) -> u64;
    /// Mean, max, p50, p95 and p99 application latency, µs.
    fn app_latency_us(&self) -> [u64; 5];
    fn hot_stats(&self) -> CacheStats;
    fn events_processed(&self) -> u64;
    fn peak_event_queue_depth(&self) -> usize;
    fn tier_stats(&self) -> Vec<TierLevelStats>;
}

impl Datapath for StorageSystem {
    fn take(arena: &mut SimArena, config: &SimulationConfig) -> Self {
        arena.take_flat(config)
    }
    fn store(self, arena: &mut SimArena, config: SimulationConfig) {
        arena.store_flat(config, self)
    }
    fn start(&mut self, policy: WritePolicy) -> String {
        StorageSystem::set_policy(self, policy);
        policy.label().to_string()
    }
    fn schedule_record(&mut self, record: &TraceRecord) {
        StorageSystem::schedule_record(self, record)
    }
    fn run_until(&mut self, limit: SimTime) {
        StorageSystem::run_until(self, limit)
    }
    fn end_interval(&mut self, index: u32, tier_loads: &mut Vec<TierLoad>) -> IntervalReport {
        tier_loads.clear();
        StorageSystem::end_interval(self, index)
    }
    fn now(&self) -> SimTime {
        StorageSystem::now(self)
    }
    fn cache_avg_latency(&self) -> SimDuration {
        StorageSystem::cache_avg_latency(self)
    }
    fn disk_avg_latency(&self) -> SimDuration {
        StorageSystem::disk_avg_latency(self)
    }
    fn policy(&self) -> WritePolicy {
        StorageSystem::policy(self)
    }
    fn cache_queue(&self) -> &DeviceQueue {
        StorageSystem::cache_queue(self)
    }
    fn level_policies(&self) -> &[WritePolicy] {
        &[]
    }
    fn switches_policy(&self, decision: &ControllerDecision) -> bool {
        decision.policy != StorageSystem::policy(self)
    }
    fn apply_policy(&mut self, decision: &ControllerDecision) -> String {
        StorageSystem::set_policy(self, decision.policy);
        decision.policy.label().to_string()
    }
    fn apply_bypass(&mut self, directive: &BypassDirective) -> u64 {
        StorageSystem::apply_bypass(self, directive) as u64
    }
    fn drain(&mut self, max_steps: u32) -> bool {
        StorageSystem::drain(self, max_steps)
    }
    fn app_completed(&self) -> u64 {
        StorageSystem::app_completed(self)
    }
    fn app_latency_us(&self) -> [u64; 5] {
        [
            self.app_avg_latency_us(),
            self.app_max_latency_us(),
            self.app_percentile_us(50.0),
            self.app_percentile_us(95.0),
            self.app_percentile_us(99.0),
        ]
    }
    fn hot_stats(&self) -> CacheStats {
        *self.cache().stats()
    }
    fn events_processed(&self) -> u64 {
        StorageSystem::events_processed(self)
    }
    fn peak_event_queue_depth(&self) -> usize {
        StorageSystem::peak_event_queue_depth(self)
    }
    fn tier_stats(&self) -> Vec<TierLevelStats> {
        Vec::new()
    }
}

impl Datapath for TieredStorageSystem {
    fn take(arena: &mut SimArena, config: &SimulationConfig) -> Self {
        arena.take_tiered(config)
    }
    fn store(self, arena: &mut SimArena, config: SimulationConfig) {
        arena.store_tiered(config, self)
    }
    fn start(&mut self, policy: WritePolicy) -> String {
        TieredStorageSystem::set_policy(self, policy);
        tier_policy_label(TieredStorageSystem::level_policies(self))
    }
    fn schedule_record(&mut self, record: &TraceRecord) {
        TieredStorageSystem::schedule_record(self, record)
    }
    fn run_until(&mut self, limit: SimTime) {
        TieredStorageSystem::run_until(self, limit)
    }
    fn end_interval(&mut self, index: u32, tier_loads: &mut Vec<TierLoad>) -> IntervalReport {
        let report = TieredStorageSystem::end_interval(self, index);
        self.tier_loads_into(tier_loads);
        report
    }
    fn now(&self) -> SimTime {
        TieredStorageSystem::now(self)
    }
    fn cache_avg_latency(&self) -> SimDuration {
        TieredStorageSystem::cache_avg_latency(self)
    }
    fn disk_avg_latency(&self) -> SimDuration {
        TieredStorageSystem::disk_avg_latency(self)
    }
    fn policy(&self) -> WritePolicy {
        TieredStorageSystem::policy(self)
    }
    fn cache_queue(&self) -> &DeviceQueue {
        TieredStorageSystem::cache_queue(self)
    }
    fn level_policies(&self) -> &[WritePolicy] {
        TieredStorageSystem::level_policies(self)
    }
    fn switches_policy(&self, decision: &ControllerDecision) -> bool {
        if decision.tier_policies.is_empty() {
            decision.policy != TieredStorageSystem::policy(self)
        } else {
            TieredStorageSystem::level_policies(self) != decision.tier_policies.as_slice()
        }
    }
    fn apply_policy(&mut self, decision: &ControllerDecision) -> String {
        if decision.tier_policies.is_empty() {
            TieredStorageSystem::set_policy(self, decision.policy);
            tier_policy_label(TieredStorageSystem::level_policies(self))
        } else {
            self.set_level_policies(&decision.tier_policies);
            tier_policy_label(&decision.tier_policies)
        }
    }
    fn apply_bypass(&mut self, directive: &BypassDirective) -> u64 {
        let spilled_before = self.spilled_requests() + self.spilled_reads();
        let moved = TieredStorageSystem::apply_bypass(self, directive) as u64;
        moved - (self.spilled_requests() + self.spilled_reads() - spilled_before)
    }
    fn drain(&mut self, max_steps: u32) -> bool {
        TieredStorageSystem::drain(self, max_steps)
    }
    fn app_completed(&self) -> u64 {
        TieredStorageSystem::app_completed(self)
    }
    fn app_latency_us(&self) -> [u64; 5] {
        [
            self.app_avg_latency_us(),
            self.app_max_latency_us(),
            self.app_percentile_us(50.0),
            self.app_percentile_us(95.0),
            self.app_percentile_us(99.0),
        ]
    }
    fn hot_stats(&self) -> CacheStats {
        *self.cache().stats(0)
    }
    fn events_processed(&self) -> u64 {
        TieredStorageSystem::events_processed(self)
    }
    fn peak_event_queue_depth(&self) -> usize {
        TieredStorageSystem::peak_event_queue_depth(self)
    }
    fn tier_stats(&self) -> Vec<TierLevelStats> {
        self.tier_level_stats()
    }
}

/// The runner's Fig. 6 label of a per-tier assignment: the plain label when
/// every level agrees, a hot-to-cold composite such as `WO/WB` otherwise.
fn tier_policy_label(policies: &[WritePolicy]) -> String {
    if policies.windows(2).all(|w| w[0] == w[1]) {
        policies[0].label().to_string()
    } else {
        policies.iter().map(|p| p.label()).collect::<Vec<_>>().join("/")
    }
}
