//! Broker-side accounting: latency percentiles and lifetime totals.

use std::time::Duration;

use simt::telemetry::Histograms;
use simt::PerfCounters;

/// A flat recorder of per-request latencies (microsecond resolution),
/// cheap to merge across client threads and summarize into the percentile
/// fields the benchmark reports (p50/p99/p999).
#[derive(Debug, Clone, Default)]
pub struct LatencyRecorder {
    samples_us: Vec<u64>,
}

impl LatencyRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one latency sample.
    pub fn record(&mut self, latency: Duration) {
        self.samples_us.push(latency.as_micros().min(u128::from(u64::MAX)) as u64);
    }

    /// Records one sample in the caller's own unit (e.g. nanoseconds from a
    /// [`SpanReport`](crate::SpanReport) stage). The summary's percentile
    /// fields then carry that unit — the `_us` names assume
    /// [`record`](Self::record).
    pub fn record_raw(&mut self, sample: u64) {
        self.samples_us.push(sample);
    }

    /// Mean of the recorded samples, in the recorded unit. Zero when empty.
    pub fn mean(&self) -> f64 {
        if self.samples_us.is_empty() {
            return 0.0;
        }
        let sum: u128 = self.samples_us.iter().map(|&s| u128::from(s)).sum();
        sum as f64 / self.samples_us.len() as f64
    }

    /// Merges another recorder's samples into this one.
    pub fn merge(&mut self, other: &LatencyRecorder) {
        self.samples_us.extend_from_slice(&other.samples_us);
    }

    /// Number of recorded samples.
    pub fn len(&self) -> usize {
        self.samples_us.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples_us.is_empty()
    }

    /// Sorts the samples and extracts the summary percentiles. An empty
    /// recorder summarizes to all zeros.
    pub fn summary(&self) -> LatencySummary {
        if self.samples_us.is_empty() {
            return LatencySummary::default();
        }
        let mut sorted = self.samples_us.clone();
        sorted.sort_unstable();
        let at = |q: f64| {
            let rank = ((sorted.len() as f64) * q).ceil() as usize;
            sorted[rank.clamp(1, sorted.len()) - 1]
        };
        LatencySummary {
            count: sorted.len() as u64,
            p50_us: at(0.50),
            p99_us: at(0.99),
            p999_us: at(0.999),
            max_us: *sorted.last().expect("non-empty"),
        }
    }
}

/// Percentile summary extracted from a [`LatencyRecorder`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencySummary {
    /// Samples summarized.
    pub count: u64,
    /// Median latency, microseconds.
    pub p50_us: u64,
    /// 99th-percentile latency, microseconds.
    pub p99_us: u64,
    /// 99.9th-percentile latency, microseconds.
    pub p999_us: u64,
    /// Worst observed latency, microseconds.
    pub max_us: u64,
}

/// Lifetime totals the broker hands back from
/// [`Broker::shutdown`](crate::Broker::shutdown).
#[derive(Debug, Clone, Default)]
pub struct IngressStats {
    /// Merged kernel counters from every dispatched batch, plus the
    /// broker-billed `shed` / `timed_out` / `breaker_open` fields.
    pub counters: PerfCounters,
    /// Merged launch histograms; `queue_depth` carries the submission-queue
    /// depth sampled at each batch dispatch.
    pub histograms: Histograms,
    /// Requests the broker received off the queue.
    pub submitted: u64,
    /// Requests answered with a table result (success or not-found — the
    /// request executed).
    pub completed: u64,
    /// Requests re-dispatched at least once after a retryable failure.
    pub retried: u64,
    /// Batches dispatched onto the grid.
    pub batches: u64,
    /// Cohorts a submitting thread ran itself on an idle broker
    /// (caller-runs); every other cohort was drained off the queue by the
    /// broker thread.
    pub inline_cohorts: u64,
}

impl IngressStats {
    /// Requests refused by admission control (mirror of `counters.shed`).
    pub fn shed(&self) -> u64 {
        self.counters.shed
    }

    /// Requests that missed their deadline (mirror of `counters.timed_out`).
    pub fn timed_out(&self) -> u64 {
        self.counters.timed_out
    }

    /// Circuit-breaker open transitions (mirror of `counters.breaker_open`).
    pub fn breaker_trips(&self) -> u64 {
        self.counters.breaker_open
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_summary_is_zeros() {
        assert_eq!(LatencyRecorder::new().summary(), LatencySummary::default());
    }

    #[test]
    fn percentiles_on_a_known_distribution() {
        let mut r = LatencyRecorder::new();
        for us in 1..=1000u64 {
            r.record(Duration::from_micros(us));
        }
        let s = r.summary();
        assert_eq!(s.count, 1000);
        assert_eq!(s.p50_us, 500);
        assert_eq!(s.p99_us, 990);
        assert_eq!(s.p999_us, 999);
        assert_eq!(s.max_us, 1000);
    }

    #[test]
    fn merge_concatenates_samples() {
        let mut a = LatencyRecorder::new();
        let mut b = LatencyRecorder::new();
        a.record(Duration::from_micros(10));
        b.record(Duration::from_micros(20));
        a.merge(&b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.summary().max_us, 20);
    }

    #[test]
    fn single_sample_percentiles() {
        let mut r = LatencyRecorder::new();
        r.record(Duration::from_micros(42));
        let s = r.summary();
        assert_eq!((s.p50_us, s.p99_us, s.p999_us, s.max_us), (42, 42, 42, 42));
    }
}
