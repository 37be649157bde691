//! Broker-side accounting: lifetime totals.

use simt::telemetry::Histograms;
use simt::PerfCounters;

/// Lifetime totals the broker hands back from
/// [`Broker::shutdown`](crate::Broker::shutdown).
#[derive(Debug, Clone, Default)]
pub struct IngressStats {
    /// Merged kernel counters from every dispatched batch, plus the
    /// broker-billed `shed` / `timed_out` fields.
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
}
