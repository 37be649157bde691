//! The ledger's own recorders: nanosecond latency samples, resident memory,
//! and the spans of a traced run.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Latency samples in nanoseconds. Percentiles use the nearest-rank rule,
/// so a reported p99 is a sample that was actually observed.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    ns: Vec<u64>,
}

/// Percentiles of a [`Samples`], in microseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Summary {
    pub count: usize,
    pub mean_us: f64,
    pub p50_us: f64,
    pub p95_us: f64,
    pub p99_us: f64,
    pub p999_us: f64,
    pub max_us: f64,
}

impl Samples {
    pub fn record(&mut self, d: Duration) {
        self.record_ns(d.as_nanos().min(u128::from(u64::MAX)) as u64);
    }

    pub fn record_ns(&mut self, ns: u64) {
        self.ns.push(ns);
    }

    pub fn merge(&mut self, other: &Samples) {
        self.ns.extend_from_slice(&other.ns);
    }

    pub fn len(&self) -> usize {
        self.ns.len()
    }

    pub fn summary(&self) -> Summary {
        if self.ns.is_empty() {
            return Summary::default();
        }
        let mut sorted = self.ns.clone();
        sorted.sort_unstable();
        let at = |q: f64| {
            let rank = (sorted.len() as f64 * q).ceil() as usize;
            sorted[rank.clamp(1, sorted.len()) - 1] as f64 / 1e3
        };
        let sum: u128 = sorted.iter().map(|&s| u128::from(s)).sum();
        Summary {
            count: sorted.len(),
            mean_us: sum as f64 / sorted.len() as f64 / 1e3,
            p50_us: at(0.50),
            p95_us: at(0.95),
            p99_us: at(0.99),
            p999_us: at(0.999),
            max_us: sorted[sorted.len() - 1] as f64 / 1e3,
        }
    }
}

/// The median of `values` (the mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// This process's resident set size, from `/proc/self/status`. Memory is
/// read from the OS rather than from the table's own byte counts, which
/// leave out the tag sidecar and the allocator's pool reservations.
pub fn rss_bytes() -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .map(|kb| kb * 1024)
        .ok_or_else(|| "no VmRSS line in /proc/self/status".to_string())
}

/// VmRSS growth since `rss0`, per key stored.
pub fn rss_per_key(rss0: u64, keys: usize) -> Result<f64, String> {
    Ok(rss_bytes()?.saturating_sub(rss0) as f64 / keys as f64)
}

/// One recorded span: a named interval on one thread, its parent (0 for a
/// root), and the request it belongs to (0 for none).
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub req: u64,
    pub tid: u32,
}

/// Records spans on one thread, in memory, relative to a shared epoch.
/// Threads get one tracer each and the spans are merged at the end.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    tid: u32,
    next: u64,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant, tid: u32) -> Self {
        Self {
            epoch,
            tid,
            next: 0,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records `[start, end]` under `parent` and returns the new span's id.
    pub fn span(
        &mut self,
        parent: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
        req: u64,
    ) -> u64 {
        self.next += 1;
        let id = (u64::from(self.tid) << 48) | self.next;
        let start_ns = self.ns(start);
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns: self.ns(end).max(start_ns),
            req,
            tid: self.tid,
        });
        id
    }
}

/// Self time per span name, in nanoseconds: each span's duration minus the
/// part of it that its children cover.
pub fn self_ns(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut out = BTreeMap::new();
    for s in spans {
        let mut covered = 0;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
        }
        *out.entry(s.name).or_insert(0) += (s.end_ns - s.start_ns) - covered;
    }
    out
}

/// Writes `spans` as `<dir>/<workload>.jsonl` (one span per line) and
/// `<dir>/<workload>.trace.json` (chrome://tracing), returning both paths.
pub fn write_trace(dir: &Path, workload: &str, spans: &[Span]) -> io::Result<(PathBuf, PathBuf)> {
    std::fs::create_dir_all(dir)?;
    let mut jsonl = String::new();
    let mut chrome = String::from("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        let _ = writeln!(
            jsonl,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"req\":{},\"tid\":{}}}",
            s.id, s.parent, s.name, s.start_ns, s.end_ns, s.req, s.tid
        );
        let _ = write!(
            chrome,
            "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{},\"parent\":{},\"req\":{}}}}}",
            if i == 0 { "" } else { "," },
            s.name,
            s.tid,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            s.id,
            s.parent,
            s.req
        );
    }
    chrome.push_str("]}\n");
    let jsonl_path = dir.join(format!("{workload}.jsonl"));
    let chrome_path = dir.join(format!("{workload}.trace.json"));
    std::fs::write(&jsonl_path, jsonl)?;
    std::fs::write(&chrome_path, chrome)?;
    Ok((jsonl_path, chrome_path))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nanosecond_percentiles_keep_sub_microsecond_digits() {
        let mut s = Samples::default();
        for ns in [7_400u64, 7_450, 7_500, 7_550, 7_600] {
            s.record_ns(ns);
        }
        let sum = s.summary();
        assert_eq!(sum.count, 5);
        assert!((sum.p50_us - 7.5).abs() < 1e-9);
        assert!((sum.max_us - 7.6).abs() < 1e-9);
        assert!((sum.mean_us - 7.5).abs() < 1e-9);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let epoch = Instant::now();
        let at = |ns| epoch + Duration::from_nanos(ns);
        let mut t = Tracer::new(epoch, 1);
        let root = t.span(0, "root", at(0), at(100), 1);
        t.span(root, "a", at(10), at(40), 1);
        t.span(root, "b", at(30), at(60), 1); // overlaps a
        t.span(root, "c", at(90), at(120), 1); // runs past the root
        let self_time = self_ns(&t.spans);
        assert_eq!(self_time["root"], 100 - 50 - 10);
        assert_eq!(self_time["a"], 30);
        assert_eq!(self_time["c"], 30);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
