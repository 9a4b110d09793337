//! Deterministic metrics registry.
//!
//! Instruments are registered once (cold path) against interned
//! `&'static str` names and returned as index handles; every subsequent
//! update is a `Vec` index plus an integer operation — no allocation,
//! hashing or locking on the hot path. Snapshots are rendered sorted by
//! instrument name so output is independent of registration order, and all
//! stored values are integers so folding metrics from parallel workers is
//! associative and commutative (the determinism contract for sweeps).

use lbica_storage::histogram::LatencyHistogram;
use lbica_storage::time::SimDuration;

use crate::escape;

/// Schema identifier embedded in JSON metrics snapshots.
pub const METRICS_SCHEMA: &str = "lbica-metrics/v1";

/// Handle to a registered counter (monotonically increasing `u64`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(usize);

/// Handle to a registered gauge (last-written / high-water `u64`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(usize);

/// Handle to a registered latency histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramId(usize);

#[derive(Debug, Clone)]
struct Scalar {
    name: &'static str,
    help: &'static str,
    value: u64,
}

#[derive(Debug, Clone)]
struct Hist {
    name: &'static str,
    help: &'static str,
    values: LatencyHistogram,
}

/// A registry of named counters, gauges and histograms.
///
/// ```
/// use lbica_obs::MetricsRegistry;
///
/// let mut reg = MetricsRegistry::new();
/// let requests = reg.counter("lbica_requests_total", "requests issued");
/// reg.add(requests, 3);
/// reg.add(requests, 2);
/// assert_eq!(reg.counter_value(requests), 5);
/// assert!(reg.snapshot().render_prometheus().contains("lbica_requests_total 5"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: Vec<Scalar>,
    gauges: Vec<Scalar>,
    histograms: Vec<Hist>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Registers (or looks up) a counter by name. Re-registering an existing
    /// name returns the original handle; the first help string wins.
    pub fn counter(&mut self, name: &'static str, help: &'static str) -> CounterId {
        if let Some(i) = self.counters.iter().position(|c| c.name == name) {
            return CounterId(i);
        }
        self.counters.push(Scalar { name, help, value: 0 });
        CounterId(self.counters.len() - 1)
    }

    /// Registers (or looks up) a gauge by name.
    pub fn gauge(&mut self, name: &'static str, help: &'static str) -> GaugeId {
        if let Some(i) = self.gauges.iter().position(|g| g.name == name) {
            return GaugeId(i);
        }
        self.gauges.push(Scalar { name, help, value: 0 });
        GaugeId(self.gauges.len() - 1)
    }

    /// Registers (or looks up) a latency histogram by name.
    pub fn histogram(&mut self, name: &'static str, help: &'static str) -> HistogramId {
        if let Some(i) = self.histograms.iter().position(|h| h.name == name) {
            return HistogramId(i);
        }
        self.histograms.push(Hist { name, help, values: LatencyHistogram::new() });
        HistogramId(self.histograms.len() - 1)
    }

    /// Adds `delta` to a counter. Hot-path safe: an index and an add.
    #[inline]
    pub fn add(&mut self, id: CounterId, delta: u64) {
        self.counters[id.0].value += delta;
    }

    /// Increments a counter by one.
    #[inline]
    pub fn inc(&mut self, id: CounterId) {
        self.add(id, 1);
    }

    /// Sets a gauge to `value` (last write wins).
    #[inline]
    pub fn set(&mut self, id: GaugeId, value: u64) {
        self.gauges[id.0].value = value;
    }

    /// Raises a gauge to `value` if it is higher (high-water mark). Unlike
    /// [`MetricsRegistry::set`], this is commutative, so it is safe to fold
    /// from parallel workers.
    #[inline]
    pub fn set_max(&mut self, id: GaugeId, value: u64) {
        let slot = &mut self.gauges[id.0].value;
        *slot = (*slot).max(value);
    }

    /// Records one latency sample into a histogram.
    #[inline]
    pub fn record(&mut self, id: HistogramId, latency: SimDuration) {
        self.histograms[id.0].values.record(latency);
    }

    /// Records one latency sample given in microseconds.
    #[inline]
    pub fn record_us(&mut self, id: HistogramId, us: u64) {
        self.histograms[id.0].values.record_us(us);
    }

    /// Merges a whole histogram into the registered one.
    pub fn merge_histogram(&mut self, id: HistogramId, other: &LatencyHistogram) {
        self.histograms[id.0].values.merge(other);
    }

    /// Current value of a counter.
    pub fn counter_value(&self, id: CounterId) -> u64 {
        self.counters[id.0].value
    }

    /// Current value of a gauge.
    pub fn gauge_value(&self, id: GaugeId) -> u64 {
        self.gauges[id.0].value
    }

    /// Read access to a registered histogram.
    pub fn histogram_values(&self, id: HistogramId) -> &LatencyHistogram {
        &self.histograms[id.0].values
    }

    /// Folds another registry into this one, matching instruments by name
    /// and registering any that are missing. Counters add, gauges take the
    /// maximum (high-water semantics), histograms merge — all commutative,
    /// so the merged result is independent of worker scheduling.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for c in &other.counters {
            let id = self.counter(c.name, c.help);
            self.add(id, c.value);
        }
        for g in &other.gauges {
            let id = self.gauge(g.name, g.help);
            self.set_max(id, g.value);
        }
        for h in &other.histograms {
            let id = self.histogram(h.name, h.help);
            self.merge_histogram(id, &h.values);
        }
    }

    /// Takes a point-in-time snapshot, sorted by instrument name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut counters: Vec<CounterSample> = self
            .counters
            .iter()
            .map(|c| CounterSample { name: c.name, help: c.help, value: c.value })
            .collect();
        counters.sort_by_key(|c| c.name);
        let mut gauges: Vec<GaugeSample> = self
            .gauges
            .iter()
            .map(|g| GaugeSample { name: g.name, help: g.help, value: g.value })
            .collect();
        gauges.sort_by_key(|g| g.name);
        let mut histograms: Vec<HistogramSample> = self
            .histograms
            .iter()
            .map(|h| HistogramSample {
                name: h.name,
                help: h.help,
                count: h.values.count(),
                sum_us: h.values.total_us(),
                min_us: h.values.min().as_micros(),
                max_us: h.values.max().as_micros(),
                p50_us: h.values.percentile(50.0).as_micros(),
                p95_us: h.values.percentile(95.0).as_micros(),
                p99_us: h.values.percentile(99.0).as_micros(),
            })
            .collect();
        histograms.sort_by_key(|h| h.name);
        MetricsSnapshot { counters, gauges, histograms }
    }
}

/// One counter in a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSample {
    /// Instrument name.
    pub name: &'static str,
    /// Help text.
    pub help: &'static str,
    /// Counter value.
    pub value: u64,
}

/// One gauge in a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GaugeSample {
    /// Instrument name.
    pub name: &'static str,
    /// Help text.
    pub help: &'static str,
    /// Gauge value.
    pub value: u64,
}

/// One histogram in a snapshot, summarized to integer microseconds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSample {
    /// Instrument name.
    pub name: &'static str,
    /// Help text.
    pub help: &'static str,
    /// Number of samples.
    pub count: u64,
    /// Exact sum of samples (µs).
    pub sum_us: u64,
    /// Smallest sample (µs), zero when empty.
    pub min_us: u64,
    /// Largest sample (µs).
    pub max_us: u64,
    /// 50th percentile (µs, bucketed upper bound).
    pub p50_us: u64,
    /// 95th percentile (µs, bucketed upper bound).
    pub p95_us: u64,
    /// 99th percentile (µs, bucketed upper bound).
    pub p99_us: u64,
}

/// A point-in-time view of a [`MetricsRegistry`], sorted by name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Counters, sorted by name.
    pub counters: Vec<CounterSample>,
    /// Gauges, sorted by name.
    pub gauges: Vec<GaugeSample>,
    /// Histograms, sorted by name.
    pub histograms: Vec<HistogramSample>,
}

impl MetricsSnapshot {
    /// Renders the snapshot in the Prometheus text exposition format.
    ///
    /// Histograms are rendered as summaries (`{quantile="..."}` series plus
    /// `_sum`/`_count`), which is what a scrape endpoint would serve.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for c in &self.counters {
            out.push_str(&format!("# HELP {} {}\n", c.name, escape::prometheus_help(c.help)));
            out.push_str(&format!("# TYPE {} counter\n", c.name));
            out.push_str(&format!("{} {}\n", c.name, c.value));
        }
        for g in &self.gauges {
            out.push_str(&format!("# HELP {} {}\n", g.name, escape::prometheus_help(g.help)));
            out.push_str(&format!("# TYPE {} gauge\n", g.name));
            out.push_str(&format!("{} {}\n", g.name, g.value));
        }
        for h in &self.histograms {
            out.push_str(&format!("# HELP {} {}\n", h.name, escape::prometheus_help(h.help)));
            out.push_str(&format!("# TYPE {} summary\n", h.name));
            out.push_str(&format!("{}{{quantile=\"0.5\"}} {}\n", h.name, h.p50_us));
            out.push_str(&format!("{}{{quantile=\"0.95\"}} {}\n", h.name, h.p95_us));
            out.push_str(&format!("{}{{quantile=\"0.99\"}} {}\n", h.name, h.p99_us));
            out.push_str(&format!("{}_sum {}\n", h.name, h.sum_us));
            out.push_str(&format!("{}_count {}\n", h.name, h.count));
        }
        out
    }

    /// Renders the snapshot as a JSON document (schema [`METRICS_SCHEMA`]).
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"schema\": \"{}\",\n", escape::json(METRICS_SCHEMA)));
        out.push_str("  \"counters\": [\n");
        for (i, c) in self.counters.iter().enumerate() {
            let comma = if i + 1 < self.counters.len() { "," } else { "" };
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"value\": {}}}{comma}\n",
                escape::json(c.name),
                c.value
            ));
        }
        out.push_str("  ],\n  \"gauges\": [\n");
        for (i, g) in self.gauges.iter().enumerate() {
            let comma = if i + 1 < self.gauges.len() { "," } else { "" };
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"value\": {}}}{comma}\n",
                escape::json(g.name),
                g.value
            ));
        }
        out.push_str("  ],\n  \"histograms\": [\n");
        for (i, h) in self.histograms.iter().enumerate() {
            let comma = if i + 1 < self.histograms.len() { "," } else { "" };
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"count\": {}, \"sum_us\": {}, \"min_us\": {}, \
                 \"max_us\": {}, \"p50_us\": {}, \"p95_us\": {}, \"p99_us\": {}}}{comma}\n",
                escape::json(h.name),
                h.count,
                h.sum_us,
                h.min_us,
                h.max_us,
                h.p50_us,
                h.p95_us,
                h.p99_us
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_interns_by_name() {
        let mut reg = MetricsRegistry::new();
        let a = reg.counter("lbica_x_total", "first help");
        let b = reg.counter("lbica_x_total", "second help ignored");
        assert_eq!(a, b);
        reg.inc(a);
        reg.add(b, 4);
        assert_eq!(reg.counter_value(a), 5);
        let snap = reg.snapshot();
        assert_eq!(snap.counters.len(), 1);
        assert_eq!(snap.counters[0].help, "first help");
    }

    #[test]
    fn gauges_set_and_high_water() {
        let mut reg = MetricsRegistry::new();
        let g = reg.gauge("lbica_depth", "queue depth");
        reg.set(g, 10);
        reg.set_max(g, 7);
        assert_eq!(reg.gauge_value(g), 10);
        reg.set_max(g, 30);
        assert_eq!(reg.gauge_value(g), 30);
    }

    #[test]
    fn snapshot_is_sorted_by_name_regardless_of_registration_order() {
        let mut reg = MetricsRegistry::new();
        reg.counter("lbica_zeta_total", "");
        reg.counter("lbica_alpha_total", "");
        let snap = reg.snapshot();
        assert_eq!(snap.counters[0].name, "lbica_alpha_total");
        assert_eq!(snap.counters[1].name, "lbica_zeta_total");
    }

    #[test]
    fn merge_is_commutative() {
        let build = |c: u64, g: u64, lat: &[u64]| {
            let mut reg = MetricsRegistry::new();
            let id = reg.counter("lbica_ops_total", "ops");
            reg.add(id, c);
            let gid = reg.gauge("lbica_peak", "peak");
            reg.set_max(gid, g);
            let h = reg.histogram("lbica_lat_us", "latency");
            for &us in lat {
                reg.record_us(h, us);
            }
            reg
        };
        let a = build(3, 9, &[100, 200]);
        let b = build(5, 4, &[400]);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab.snapshot(), ba.snapshot());
        assert_eq!(ab.snapshot().counters[0].value, 8);
        assert_eq!(ab.snapshot().gauges[0].value, 9);
        assert_eq!(ab.snapshot().histograms[0].count, 3);
    }

    #[test]
    fn prometheus_rendering_escapes_help_text() {
        let mut reg = MetricsRegistry::new();
        reg.counter("lbica_weird_total", "help with \\ backslash\nand newline");
        let text = reg.snapshot().render_prometheus();
        assert!(
            text.contains("# HELP lbica_weird_total help with \\\\ backslash\\nand newline\n"),
            "unescaped help in: {text}"
        );
        assert!(text.contains("# TYPE lbica_weird_total counter\n"));
        assert!(text.contains("lbica_weird_total 0\n"));
    }

    #[test]
    fn prometheus_histogram_renders_summary_series() {
        let mut reg = MetricsRegistry::new();
        let h = reg.histogram("lbica_lat_us", "latency");
        for us in [100, 200, 300] {
            reg.record_us(h, us);
        }
        let text = reg.snapshot().render_prometheus();
        assert!(text.contains("# TYPE lbica_lat_us summary\n"));
        assert!(text.contains("lbica_lat_us{quantile=\"0.5\"}"));
        assert!(text.contains("lbica_lat_us_sum 600\n"));
        assert!(text.contains("lbica_lat_us_count 3\n"));
    }

    #[test]
    fn json_rendering_is_schema_tagged_and_balanced() {
        let mut reg = MetricsRegistry::new();
        let c = reg.counter("lbica_ops_total", "ops");
        reg.add(c, 7);
        let h = reg.histogram("lbica_lat_us", "latency");
        reg.record_us(h, 1_000);
        let json = reg.snapshot().render_json();
        assert!(json.contains(&format!("\"schema\": \"{METRICS_SCHEMA}\"")));
        assert!(json.contains("\"name\": \"lbica_ops_total\", \"value\": 7"));
        assert!(json.contains("\"count\": 1"));
        let doc = crate::json::parse(&json).expect("snapshot parses");
        assert_eq!(doc.str_field("schema").unwrap(), METRICS_SCHEMA);
    }
}
