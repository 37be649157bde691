//! A sharded, lock-free metrics registry for live scraping.
//!
//! Traces and launch histograms answer questions *after* a run; the
//! registry answers them *during* one. It holds three metric kinds —
//! monotonic [`Counter`]s, instantaneous [`GaugeMetric`]s, and log₂-bucketed
//! [`HistogramMetric`]s — registered once by name (plus optional labels) and
//! updated from any thread through cheap cloneable handles.
//!
//! The discipline mirrors `PerfCounters`: the *hot path* is wait-free (a
//! relaxed atomic add or store, no locks, no allocation). Histograms go one
//! step further and shard their bucket arrays per worker thread, so
//! concurrent recorders do not bounce one cache line; shards are summed only
//! at scrape time. The registry's internal mutex guards registration and
//! scraping — both cold paths — never updates.
//!
//! Scrape formats:
//! * [`MetricsRegistry::render_prometheus`] — Prometheus text exposition
//!   format 0.0.4 (`# HELP` / `# TYPE`, cumulative `_bucket{le=...}`
//!   histogram series), served over HTTP by
//!   [`MetricsServer`](crate::exporter::MetricsServer).
//! * [`MetricsRegistry::render_jsonl`] — one JSON object per scrape, for
//!   periodic headless snapshots
//!   ([`JsonlSnapshots`](crate::exporter::JsonlSnapshots)).

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::histogram::HISTOGRAM_BUCKETS;

/// Hands each thread a stable small integer the first time it touches a
/// sharded histogram; shard choice is this id modulo the shard count.
static NEXT_THREAD_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static THREAD_SLOT: usize = NEXT_THREAD_SLOT.fetch_add(1, Ordering::Relaxed);
}

fn thread_slot() -> usize {
    THREAD_SLOT.with(|s| *s)
}

/// A monotonically increasing counter. Cloning shares the underlying cell.
#[derive(Debug, Clone)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    fn new() -> Self {
        Self {
            cell: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Current total.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// An instantaneous value that can move both ways. Cloning shares the cell.
#[derive(Debug, Clone)]
pub struct GaugeMetric {
    cell: Arc<AtomicU64>,
}

impl GaugeMetric {
    fn new() -> Self {
        Self {
            cell: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Sets the gauge to `v`.
    #[inline]
    pub fn set(&self, v: u64) {
        self.cell.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// One histogram shard: a private bucket array one worker thread (mostly)
/// owns, so concurrent `record` calls do not contend on shared cache lines.
#[derive(Debug)]
struct HistShard {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
}

impl HistShard {
    fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }
}

/// A log₂-bucketed histogram with per-worker shards, merged at scrape time.
///
/// Bucket semantics match [`LogHistogram`](crate::LogHistogram): bucket 0
/// counts exact zeros, bucket `i ≥ 1` counts values in `[2^(i−1), 2^i − 1]`,
/// and the last bucket is the catch-all. `unit_scale` converts recorded
/// integers into the exported unit at render time (e.g. record nanoseconds,
/// export seconds with `unit_scale = 1e-9`).
#[derive(Debug, Clone)]
pub struct HistogramMetric {
    shards: Arc<Vec<HistShard>>,
    unit_scale: f64,
}

impl HistogramMetric {
    fn new(shards: usize, unit_scale: f64) -> Self {
        Self {
            shards: Arc::new((0..shards.max(1)).map(|_| HistShard::new()).collect()),
            unit_scale,
        }
    }

    /// Records one sample into this thread's shard.
    #[inline]
    pub fn record(&self, value: u64) {
        let shard = &self.shards[thread_slot() % self.shards.len()];
        let idx = crate::LogHistogram::bucket_index(value);
        shard.buckets[idx].fetch_add(1, Ordering::Relaxed);
        shard.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Sums the shards into one snapshot: per-bucket counts, total count,
    /// and the raw (unscaled) sum.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        let mut sum = 0u64;
        for shard in self.shards.iter() {
            for (dst, src) in buckets.iter_mut().zip(shard.buckets.iter()) {
                *dst += src.load(Ordering::Relaxed);
            }
            sum += shard.sum.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            count: buckets.iter().sum(),
            buckets,
            sum,
            unit_scale: self.unit_scale,
        }
    }

    /// The recorded-unit → exported-unit factor.
    pub fn unit_scale(&self) -> f64 {
        self.unit_scale
    }
}

/// A merged point-in-time copy of a [`HistogramMetric`].
#[derive(Debug, Clone, Copy)]
pub struct HistogramSnapshot {
    /// Per-bucket counts (non-cumulative; see `LogHistogram` semantics).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Total samples.
    pub count: u64,
    /// Sum of raw recorded values (multiply by `unit_scale` for the
    /// exported unit).
    pub sum: u64,
    /// The recorded-unit → exported-unit factor.
    pub unit_scale: f64,
}

impl HistogramSnapshot {
    /// The inclusive upper bound of bucket `i` in the *exported* unit, or
    /// `None` for the final catch-all (`+Inf`) bucket.
    pub fn upper_bound(&self, i: usize) -> Option<f64> {
        if i + 1 >= HISTOGRAM_BUCKETS {
            None
        } else if i == 0 {
            Some(0.0)
        } else {
            Some(((1u128 << i) - 1) as f64 * self.unit_scale)
        }
    }
}

/// What kind of series a family holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MetricKind {
    Counter,
    Gauge,
    Histogram,
}

impl MetricKind {
    fn type_name(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

#[derive(Debug, Clone)]
enum Cell {
    Counter(Counter),
    Gauge(GaugeMetric),
    Histogram(HistogramMetric),
}

#[derive(Debug)]
struct Series {
    labels: Vec<(String, String)>,
    cell: Cell,
}

#[derive(Debug)]
struct Family {
    name: String,
    help: String,
    kind: MetricKind,
    series: Vec<Series>,
}

#[derive(Debug, Default)]
struct Inner {
    families: Vec<Family>,
}

/// The registry: named metric families, each holding one series per label
/// set. Registration is idempotent — asking for an existing (name, labels)
/// pair returns a handle to the same cell, so two subsystems can share a
/// metric without coordinating.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<Inner>,
    /// Shards used for newly registered histograms.
    hist_shards: usize,
}

/// Sanitizes a metric or label name to the Prometheus charset
/// (`[a-zA-Z0-9_:]`, not starting with a digit). Invalid characters become
/// `_` so a sloppy caller degrades to an ugly name, never to invalid output.
fn sanitize_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphanumeric() || c == '_' || c == ':';
        if i == 0 && c.is_ascii_digit() {
            out.push('_');
        }
        out.push(if ok { c } else { '_' });
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Escapes a HELP line: backslash and newline.
fn escape_help(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Escapes a label value: backslash, double quote, newline.
fn escape_label_value(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Escapes a string for embedding in JSON output.
fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Formats a bucket bound the way Prometheus expects: integers without a
/// trailing `.0`, everything else in plain decimal.
fn format_bound(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

fn label_block(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    if labels.is_empty() && extra.is_none() {
        return String::new();
    }
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{}=\"{}\"", sanitize_name(k), escape_label_value(v)))
        .collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{v}\""));
    }
    format!("{{{}}}", parts.join(","))
}

impl MetricsRegistry {
    /// An empty registry with histogram shard count sized to the host.
    pub fn new() -> Self {
        let shards = std::thread::available_parallelism()
            .map_or(4, |n| n.get())
            .min(16);
        Self::with_histogram_shards(shards)
    }

    /// An empty registry with an explicit histogram shard count (clamped to
    /// at least 1). Tests use 1 shard for deterministic layouts.
    pub fn with_histogram_shards(shards: usize) -> Self {
        Self {
            inner: Mutex::new(Inner::default()),
            hist_shards: shards.max(1),
        }
    }

    fn register(
        &self,
        name: &str,
        help: &str,
        kind: MetricKind,
        labels: &[(&str, &str)],
        hist_scale: f64,
    ) -> Cell {
        let mut inner = self.inner.lock();
        let family = match inner.families.iter().position(|f| f.name == name) {
            Some(i) => &mut inner.families[i],
            None => {
                inner.families.push(Family {
                    name: name.to_string(),
                    help: help.to_string(),
                    kind,
                    series: Vec::new(),
                });
                inner.families.last_mut().expect("just pushed")
            }
        };
        assert_eq!(
            family.kind, kind,
            "metric {name} re-registered with a different kind"
        );
        if let Some(s) = family.series.iter().find(|s| {
            s.labels.len() == labels.len()
                && s.labels
                    .iter()
                    .zip(labels.iter())
                    .all(|(a, b)| a.0 == b.0 && a.1 == b.1)
        }) {
            return s.cell.clone();
        }
        let cell = match kind {
            MetricKind::Counter => Cell::Counter(Counter::new()),
            MetricKind::Gauge => Cell::Gauge(GaugeMetric::new()),
            MetricKind::Histogram => {
                Cell::Histogram(HistogramMetric::new(self.hist_shards, hist_scale))
            }
        };
        family.series.push(Series {
            labels: labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            cell: cell.clone(),
        });
        cell
    }

    /// Registers (or finds) an unlabeled counter.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        self.counter_with(name, help, &[])
    }

    /// Registers (or finds) a counter with labels.
    pub fn counter_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        match self.register(name, help, MetricKind::Counter, labels, 1.0) {
            Cell::Counter(c) => c,
            _ => unreachable!("registry returned mismatched cell"),
        }
    }

    /// Registers (or finds) an unlabeled gauge.
    pub fn gauge(&self, name: &str, help: &str) -> GaugeMetric {
        self.gauge_with(name, help, &[])
    }

    /// Registers (or finds) a gauge with labels.
    pub fn gauge_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> GaugeMetric {
        match self.register(name, help, MetricKind::Gauge, labels, 1.0) {
            Cell::Gauge(g) => g,
            _ => unreachable!("registry returned mismatched cell"),
        }
    }

    /// Registers (or finds) an unlabeled histogram recording raw integers.
    pub fn histogram(&self, name: &str, help: &str) -> HistogramMetric {
        self.histogram_with(name, help, &[], 1.0)
    }

    /// Registers (or finds) a histogram with labels and a unit scale
    /// (recorded integer × scale = exported value; e.g. record nanoseconds
    /// and pass `1e-9` to export seconds).
    pub fn histogram_with(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        unit_scale: f64,
    ) -> HistogramMetric {
        match self.register(name, help, MetricKind::Histogram, labels, unit_scale) {
            Cell::Histogram(h) => {
                // The first registration fixes the scale; sharing a series
                // under two different units would render nonsense.
                assert!(
                    (h.unit_scale() - unit_scale).abs() < f64::EPSILON,
                    "histogram {name} re-registered with a different unit scale"
                );
                h
            }
            _ => unreachable!("registry returned mismatched cell"),
        }
    }

    /// Renders every family in Prometheus text exposition format 0.0.4.
    ///
    /// Histogram series expand into cumulative `_bucket{le="..."}` lines
    /// (log₂ upper bounds in the exported unit, final bucket `+Inf`), plus
    /// `_sum` and `_count`.
    pub fn render_prometheus(&self) -> String {
        let inner = self.inner.lock();
        let mut out = String::new();
        for family in &inner.families {
            let name = sanitize_name(&family.name);
            out.push_str(&format!("# HELP {name} {}\n", escape_help(&family.help)));
            out.push_str(&format!("# TYPE {name} {}\n", family.kind.type_name()));
            for series in &family.series {
                match &series.cell {
                    Cell::Counter(c) => {
                        out.push_str(&format!(
                            "{name}{} {}\n",
                            label_block(&series.labels, None),
                            c.get()
                        ));
                    }
                    Cell::Gauge(g) => {
                        out.push_str(&format!(
                            "{name}{} {}\n",
                            label_block(&series.labels, None),
                            g.get()
                        ));
                    }
                    Cell::Histogram(h) => {
                        let snap = h.snapshot();
                        let mut cumulative = 0u64;
                        for (i, &n) in snap.buckets.iter().enumerate() {
                            // Merge empty interior buckets into the next
                            // non-empty bound? No: emit every bound so the
                            // cumulativity is visible and testable.
                            cumulative += n;
                            let le = match snap.upper_bound(i) {
                                Some(b) => format_bound(b),
                                None => "+Inf".to_string(),
                            };
                            out.push_str(&format!(
                                "{name}_bucket{} {cumulative}\n",
                                label_block(&series.labels, Some(("le", &le))),
                            ));
                        }
                        out.push_str(&format!(
                            "{name}_sum{} {}\n",
                            label_block(&series.labels, None),
                            snap.sum as f64 * snap.unit_scale
                        ));
                        out.push_str(&format!(
                            "{name}_count{} {}\n",
                            label_block(&series.labels, None),
                            snap.count
                        ));
                    }
                }
            }
        }
        out
    }

    /// Renders one JSON object (a single line, newline-terminated) carrying
    /// every series: counters and gauges as values, histograms as
    /// `{count, sum}`. `ts_ms` is a caller-supplied timestamp so headless
    /// snapshot files are self-describing.
    pub fn render_jsonl(&self, ts_ms: u64) -> String {
        let inner = self.inner.lock();
        let mut entries: Vec<String> = Vec::new();
        for family in &inner.families {
            for series in &family.series {
                let labels = series
                    .labels
                    .iter()
                    .map(|(k, v)| format!("\"{}\":\"{}\"", escape_json(k), escape_json(v)))
                    .collect::<Vec<_>>()
                    .join(",");
                let head = format!(
                    "{{\"name\":\"{}\",\"kind\":\"{}\",\"labels\":{{{labels}}}",
                    escape_json(&family.name),
                    family.kind.type_name()
                );
                let entry = match &series.cell {
                    Cell::Counter(c) => format!("{head},\"value\":{}}}", c.get()),
                    Cell::Gauge(g) => format!("{head},\"value\":{}}}", g.get()),
                    Cell::Histogram(h) => {
                        let snap = h.snapshot();
                        format!(
                            "{head},\"count\":{},\"sum\":{}}}",
                            snap.count,
                            snap.sum as f64 * snap.unit_scale
                        )
                    }
                };
                entries.push(entry);
            }
        }
        format!(
            "{{\"ts_ms\":{ts_ms},\"metrics\":[{}]}}\n",
            entries.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_round_trip() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("ops_total", "ops");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = reg.gauge("depth", "queue depth");
        g.set(7);
        assert_eq!(g.get(), 7);
        let text = reg.render_prometheus();
        assert!(text.contains("# TYPE ops_total counter"));
        assert!(text.contains("ops_total 5"));
        assert!(text.contains("# TYPE depth gauge"));
        assert!(text.contains("depth 7"));
    }

    #[test]
    fn registration_is_idempotent_and_shared() {
        let reg = MetricsRegistry::new();
        let a = reg.counter_with("x_total", "x", &[("k", "v")]);
        let b = reg.counter_with("x_total", "x", &[("k", "v")]);
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2);
        // A different label set is a different series.
        let c = reg.counter_with("x_total", "x", &[("k", "w")]);
        assert_eq!(c.get(), 0);
        assert_eq!(
            reg.render_prometheus().matches("# TYPE x_total").count(),
            1,
            "one family header for all series"
        );
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_conflicts_are_refused() {
        let reg = MetricsRegistry::new();
        reg.counter("y", "y");
        reg.gauge("y", "y");
    }

    #[test]
    fn histogram_buckets_are_cumulative_in_rendered_text() {
        let reg = MetricsRegistry::with_histogram_shards(2);
        let h = reg.histogram("lat", "latency");
        for v in [0, 1, 2, 3, 100, 1000, u64::MAX] {
            h.record(v);
        }
        let text = reg.render_prometheus();
        let counts: Vec<u64> = text
            .lines()
            .filter(|l| l.starts_with("lat_bucket"))
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        assert_eq!(counts.len(), HISTOGRAM_BUCKETS);
        assert!(
            counts.windows(2).all(|w| w[0] <= w[1]),
            "not cumulative: {counts:?}"
        );
        assert_eq!(*counts.last().unwrap(), 7, "+Inf bucket counts everything");
        assert!(text.contains("le=\"+Inf\""));
        assert!(text.contains("lat_count 7"));
    }

    #[test]
    fn unit_scale_converts_bounds_and_sum() {
        let reg = MetricsRegistry::with_histogram_shards(1);
        let h = reg.histogram_with("dur_seconds", "d", &[], 1e-9);
        h.record(1_000_000_000); // 1s in ns
        let snap = h.snapshot();
        assert_eq!(snap.count, 1);
        assert!((snap.sum as f64 * snap.unit_scale - 1.0).abs() < 1e-12);
        // Bucket 1's bound is 1 ns = 1e-9 s.
        assert!((snap.upper_bound(1).unwrap() - 1e-9).abs() < 1e-18);
        assert!(snap.upper_bound(HISTOGRAM_BUCKETS - 1).is_none());
    }

    #[test]
    fn escaping_help_labels_and_names() {
        let reg = MetricsRegistry::new();
        let c = reg.counter_with(
            "weird name-total",
            "line1\nline2 \\ slash",
            &[("path", "a\"b\\c\nd")],
        );
        c.inc();
        let text = reg.render_prometheus();
        assert!(text.contains("# HELP weird_name_total line1\\nline2 \\\\ slash"));
        assert!(text.contains("weird_name_total{path=\"a\\\"b\\\\c\\nd\"} 1"));
        assert!(!text.contains("weird name"), "unsanitized name leaked");
    }

    #[test]
    fn jsonl_snapshot_carries_every_series() {
        let reg = MetricsRegistry::with_histogram_shards(1);
        reg.counter("a_total", "a").add(3);
        reg.gauge("b", "b").set(9);
        reg.histogram("c", "c").record(4);
        let line = reg.render_jsonl(1234);
        assert!(line.ends_with('\n'));
        assert!(line.contains("\"ts_ms\":1234"));
        assert!(line.contains("\"name\":\"a_total\",\"kind\":\"counter\""));
        assert!(line.contains("\"value\":3"));
        assert!(line.contains("\"name\":\"b\",\"kind\":\"gauge\""));
        assert!(line.contains("\"name\":\"c\",\"kind\":\"histogram\""));
        assert!(line.contains("\"count\":1,\"sum\":4"));
    }

    #[test]
    fn concurrent_writers_never_lose_samples() {
        let reg = Arc::new(MetricsRegistry::new());
        let c = reg.counter("hits_total", "hits");
        let h = reg.histogram("work", "work");
        let threads = 8;
        let per = 5_000u64;
        let joins: Vec<_> = (0..threads)
            .map(|_| {
                let c = c.clone();
                let h = h.clone();
                std::thread::spawn(move || {
                    for i in 0..per {
                        c.inc();
                        h.record(i % 128);
                    }
                })
            })
            .collect();
        // Scrape concurrently: every render must be internally consistent
        // (cumulative buckets) even while writers run.
        for _ in 0..50 {
            let text = reg.render_prometheus();
            let counts: Vec<u64> = text
                .lines()
                .filter(|l| l.starts_with("work_bucket"))
                .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
                .collect();
            assert!(counts.windows(2).all(|w| w[0] <= w[1]));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(c.get(), threads * per);
        assert_eq!(h.snapshot().count, threads * per);
    }
}
