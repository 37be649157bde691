//! The broker's live metric surface: every ad-hoc counter the ingress path
//! keeps, registered against a scrapable
//! [`MetricsRegistry`](telemetry::MetricsRegistry).
//!
//! Handles are pre-registered once at broker spawn so the hot path never
//! takes the registry lock: billing a request is a handful of relaxed
//! atomic adds. Naming follows Prometheus conventions — `_total` suffixes
//! on counters, base units (seconds) in histogram names, labels for
//! low-cardinality dimensions (span stage, cohort path, maintenance
//! trigger).

use std::sync::Arc;

use simt::telemetry::{
    Counter, GaugeMetric, HistogramMetric, MetricsRegistry, SpanReport, STAGES, STAGE_COUNT,
};
use simt::PerfCounters;
use slab_hash::MaintenanceReport;

/// Why the broker asked for a maintenance pass (the label on
/// `slab_ingress_maintenance_total`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MaintainReason {
    /// Idle housekeeping while the queue was empty and headroom was low.
    Idle = 0,
    /// Healing triggered by the admission pass shedding a write.
    Admission = 1,
    /// Healing after a non-retryable failure in the dispatch loop.
    Dispatch = 2,
    /// The table's own policy-driven recovery between dispatch rounds.
    Recover = 3,
}

const MAINTAIN_REASONS: [(&str, MaintainReason); 4] = [
    ("idle", MaintainReason::Idle),
    ("admission", MaintainReason::Admission),
    ("dispatch", MaintainReason::Dispatch),
    ("recover", MaintainReason::Recover),
];

/// Pre-registered handles for every metric the broker bills.
#[derive(Debug)]
pub(crate) struct IngressMetrics {
    /// Requests drained off the submission queue.
    pub submitted: Counter,
    /// Requests answered with a table result.
    pub completed: Counter,
    /// Requests refused by admission control (memory-pressure write shed).
    pub shed: Counter,
    /// Requests answered with a deadline timeout.
    pub timed_out: Counter,
    /// Requests re-dispatched after a retryable failure.
    pub retried: Counter,
    /// Batches dispatched onto the grid.
    pub batches: Counter,
    /// Cohorts run, labeled by entry: `path="inline"|"queued"`.
    pub cohorts: [Counter; 2],
    /// Maintenance passes that launched compaction, labeled by trigger.
    maintenance: [Counter; 4],
    /// How long each compacting pass held its quiescent window; recorded
    /// in nanoseconds, exported in seconds.
    maint_pause_seconds: HistogramMetric,
    /// Live submission-queue depth.
    pub queue_depth: GaugeMetric,
    /// Allocator free-slab headroom.
    pub alloc_free: GaugeMetric,
    /// Allocator slabs currently allocated.
    pub alloc_allocated: GaugeMetric,
    /// Allocator capacity in slabs (moves when the allocator grows).
    pub alloc_capacity: GaugeMetric,
    /// Bytes the allocator has committed (materialized slabs and
    /// bitmaps; moves when the allocator grows).
    pub alloc_committed: GaugeMetric,
    /// Executor-pool workers still alive.
    pub pool_workers_alive: GaugeMetric,
    /// Pooled launches run by the grid's executor pool.
    pub pool_launches: GaugeMetric,
    /// Table operations retired through broker-dispatched batches.
    pub table_ops: Counter,
    /// CAS retries charged to broker-dispatched batches.
    pub table_cas_failures: Counter,
    /// Allocations served to broker-dispatched batches.
    pub table_allocations: Counter,
    /// Per-stage request latency, labeled `stage=...`; recorded in
    /// nanoseconds, exported in seconds.
    pub stage_seconds: [HistogramMetric; STAGE_COUNT],
}

impl IngressMetrics {
    /// Registers every broker metric against `registry` and returns the
    /// handle bundle. Idempotent per registry: a second broker sharing the
    /// registry shares the cells.
    pub(crate) fn register(registry: &Arc<MetricsRegistry>) -> Self {
        let stage_seconds = STAGES.map(|stage| {
            registry.histogram_with(
                "slab_ingress_stage_seconds",
                "Per-stage request latency decomposition (queue-wait, admission, \
                 dispatch, execute, reply)",
                &[("stage", stage.name())],
                1e-9,
            )
        });
        // Indexed by `CohortPath`.
        let cohorts = ["inline", "queued"].map(|path| {
            registry.counter_with(
                "slab_ingress_cohorts_total",
                "Cohorts run, by entry: on the submitting thread or off the queue",
                &[("path", path)],
            )
        });
        let maintenance = MAINTAIN_REASONS.map(|(reason, _)| {
            registry.counter_with(
                "slab_ingress_maintenance_total",
                "Compacting maintenance passes the broker triggered, by trigger",
                &[("reason", reason)],
            )
        });
        Self {
            submitted: registry.counter(
                "slab_ingress_submitted_total",
                "Requests drained off the submission queue",
            ),
            completed: registry.counter(
                "slab_ingress_completed_total",
                "Requests answered with a table result",
            ),
            shed: registry.counter(
                "slab_ingress_shed_total",
                "Requests refused by admission control",
            ),
            timed_out: registry.counter(
                "slab_ingress_timed_out_total",
                "Requests that exceeded their deadline budget",
            ),
            retried: registry.counter(
                "slab_ingress_retried_total",
                "Requests re-dispatched after a retryable failure",
            ),
            batches: registry.counter(
                "slab_ingress_batches_total",
                "Coalesced batches dispatched onto the grid",
            ),
            cohorts,
            maintenance,
            maint_pause_seconds: registry.histogram_with(
                "slab_maint_pause_seconds",
                "Time each compacting maintenance pass held its quiescent \
                 window, stalling new table operations",
                &[],
                1e-9,
            ),
            queue_depth: registry.gauge(
                "slab_ingress_queue_depth",
                "Requests sitting in the bounded submission queue right now",
            ),
            alloc_free: registry.gauge(
                "slab_alloc_free_slabs",
                "Allocator free-slab headroom (the write-shed signal)",
            ),
            alloc_allocated: registry
                .gauge("slab_alloc_allocated_slabs", "Slabs currently allocated"),
            alloc_capacity: registry.gauge(
                "slab_alloc_capacity_slabs",
                "Allocator capacity in slabs (grows under pressure)",
            ),
            alloc_committed: registry.gauge(
                "slab_alloc_committed_bytes",
                "Allocator bytes committed: materialized slabs and bitmaps",
            ),
            pool_workers_alive: registry.gauge(
                "slab_pool_workers_alive",
                "Executor-pool worker threads alive",
            ),
            pool_launches: registry.gauge(
                "slab_pool_launches",
                "Pooled launches run by the executor pool (lifetime)",
            ),
            table_ops: registry.counter(
                "slab_table_ops_total",
                "Table operations retired through broker batches",
            ),
            table_cas_failures: registry.counter(
                "slab_table_cas_failures_total",
                "CAS retries charged to broker batches",
            ),
            table_allocations: registry.counter(
                "slab_table_allocations_total",
                "Slab allocations served to broker batches",
            ),
            stage_seconds,
        }
    }

    /// Bills one finished request's span: every *reached* stage records its
    /// nanoseconds; unreached stages are skipped, not recorded as zeros.
    pub(crate) fn bill_span(&self, span: &SpanReport) {
        for (i, hist) in self.stage_seconds.iter().enumerate() {
            if span.marked[i] {
                hist.record(span.stage_ns[i]);
            }
        }
    }

    /// Bills the kernel-side counters of one dispatched batch.
    pub(crate) fn bill_batch(&self, counters: &PerfCounters) {
        self.table_ops.add(counters.ops);
        self.table_cas_failures.add(counters.cas_failures);
        self.table_allocations.add(counters.allocations);
    }

    /// Counts a pass that launched compaction against its trigger and
    /// records the window it held. A pass that claimed no window, or found
    /// nothing dirtied since the last completed one, launched nothing and
    /// bills nothing.
    pub(crate) fn bill_pass(&self, reason: MaintainReason, report: &MaintenanceReport) {
        if report.flushed.is_some_and(|f| f.buckets > 0) {
            self.maintenance[reason as usize].inc();
            self.maint_pause_seconds
                .record(report.pause.as_nanos() as u64);
        }
    }
}
