//! Output checks: pinned report digests, request conservation, and the
//! traced loop's agreement with the plain run.

use std::collections::{BTreeMap, BTreeSet};

use lbica_lab::ScenarioMatrix;
use lbica_sim::SimulationReport;

use crate::traced::TracedCell;

/// `<workload> <cell id> <digest>` lines for the default seed, written by
/// `--print-digests`.
const PINS: &str = include_str!("../pins.txt");

/// FNV-1a over the report's behavioural fields.
///
/// The digest covers what the simulated system did — per-interval monitor
/// readings, policy timeline, bypasses, latencies, cache and tier
/// statistics — and leaves out the simulator's own performance counters
/// (`perf.events_processed`, `perf.peak_event_queue_depth`), so that an
/// optimisation which batches or removes internal events still passes.
pub fn digest(r: &SimulationReport) -> u64 {
    let mut h = Fnv::new();
    h.str(&r.workload);
    h.str(&r.controller);
    h.u64(u64::from(r.total_intervals));
    for change in &r.policy_changes {
        h.u64(u64::from(change.interval));
        h.str(&change.policy);
    }
    for i in &r.intervals {
        h.u64(u64::from(i.index));
        for t in [&i.cache, &i.disk] {
            for v in [
                t.queue_depth as u64,
                t.peak_queue_depth as u64,
                t.enqueued,
                t.completed,
                t.max_latency_us,
                t.avg_latency_us,
                t.total_latency_us,
                t.p50_latency_us,
                t.p95_latency_us,
                t.p99_latency_us,
            ] {
                h.u64(v);
            }
        }
        let mix = &i.cache_queue_mix;
        for v in [mix.reads, mix.writes, mix.promotes, mix.evicts] {
            h.u64(v as u64);
        }
        h.str(&i.policy_label);
        h.u64(u64::from(i.burst_detected));
    }
    for v in [
        r.app_completed,
        r.app_avg_latency_us,
        r.app_max_latency_us,
        r.app_p50_latency_us,
        r.app_p95_latency_us,
        r.app_p99_latency_us,
        r.bypassed_requests,
    ] {
        h.u64(v);
    }
    let s = &r.cache_stats;
    for v in [
        s.read_hits,
        s.read_misses,
        s.write_hits,
        s.write_misses,
        s.promotes,
        s.dirty_evictions,
        s.clean_evictions,
        s.write_bypasses,
        s.unpromoted_read_misses,
        s.invalidations,
        s.flushes,
    ] {
        h.u64(v);
    }
    for t in &r.tier_stats {
        for v in [
            t.level as u64,
            t.hits,
            t.promotions_in,
            t.demotions_in,
            t.spills_in,
            t.read_spills_in,
            t.back_invalidations,
            t.enqueued,
            t.completed,
            t.peak_queue_depth as u64,
            t.avg_latency_us,
            t.max_latency_us,
            t.cached_blocks as u64,
            t.dirty_blocks as u64,
        ] {
            h.u64(v);
        }
    }
    h.0
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

/// The pinned digests of `workload`'s cells, keyed by cell id.
fn pins(workload: &str) -> BTreeMap<&'static str, u64> {
    PINS.lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (w, id, hex) = (fields.next()?, fields.next()?, fields.next()?);
            let digest = u64::from_str_radix(hex, 16).ok()?;
            (w == workload).then_some((id, digest))
        })
        .collect()
}

/// Collects failed cells, each with the reasons it failed.
pub struct Checker {
    ids: Vec<String>,
    failures: BTreeMap<usize, BTreeSet<String>>,
}

impl Checker {
    pub fn new(matrix: &ScenarioMatrix) -> Self {
        Checker { ids: matrix.cells().map(|c| c.id()).collect(), failures: BTreeMap::new() }
    }

    pub fn ids(&self) -> &[String] {
        &self.ids
    }

    fn fail(&mut self, cell: usize, reason: String) {
        self.failures.entry(cell).or_default().insert(reason);
    }

    /// A later pass must reproduce the first pass's reports exactly.
    pub fn repeat(&mut self, reference: &[SimulationReport], reports: &[SimulationReport]) {
        for (cell, (a, b)) in reference.iter().zip(reports).enumerate() {
            if digest(a) != digest(b) {
                self.fail(cell, "a repeated pass produced a different report".into());
            }
        }
    }

    /// At the default seed every cell's digest must equal its pin.
    pub fn pinned(&mut self, workload: &str, reports: &[SimulationReport]) {
        let pins = pins(workload);
        for (cell, report) in reports.iter().enumerate() {
            let got = digest(report);
            match pins.get(self.ids[cell].as_str()) {
                Some(&want) if want == got => {}
                Some(&want) => {
                    self.fail(cell, format!("digest {got:016x} differs from pinned {want:016x}"))
                }
                None => self.fail(cell, "no pinned digest for the default seed".into()),
            }
        }
    }

    /// Conservation (every scheduled request completed, the drain finished)
    /// and traced-versus-plain equality.
    pub fn traced(&mut self, reports: &[SimulationReport], traced: &[TracedCell]) {
        for (cell, (report, t)) in reports.iter().zip(traced).enumerate() {
            if !t.drained || t.scheduled != report.app_completed {
                self.fail(
                    cell,
                    format!(
                        "{} requests generated, {} completed, drain finished: {}",
                        t.scheduled, report.app_completed, t.drained
                    ),
                );
            }
            let differences = t.differences(report);
            if !differences.is_empty() {
                self.fail(cell, format!("traced run differs in {}", differences.join(", ")));
            }
        }
    }

    pub fn attempted(&self) -> usize {
        self.ids.len()
    }

    pub fn failed(&self) -> usize {
        self.failures.len()
    }

    /// One line per failed cell.
    pub fn report(&self) -> Vec<String> {
        self.failures
            .iter()
            .map(|(cell, reasons)| {
                let reasons: Vec<&str> = reasons.iter().map(String::as_str).collect();
                format!("{}: {}", self.ids[*cell], reasons.join("; "))
            })
            .collect()
    }
}
