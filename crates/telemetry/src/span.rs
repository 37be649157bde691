//! Request-scoped spans: where did a request spend its time?
//!
//! A [`RequestSpan`] is minted (with a process-unique correlation id) when a
//! request enters the system and rides alongside it through every stage of
//! the ingress path. Each stage boundary drops a wall-clock mark; when the
//! request is answered, the marks collapse into a [`SpanReport`] — one
//! duration per [`Stage`], telescoping so that the per-stage durations sum
//! *exactly* to the end-to-end latency. That is what turns one opaque p99
//! into a decomposition an operator can act on: queue-wait says "add
//! brokers", execute says "the table is the bottleneck", admission says
//! "shedding is burning broker time".
//!
//! Stage durations are measured between consecutive marks (or from the
//! submission instant for the first marked stage). A stage that was never
//! marked — a request refused at admission never dispatches — reports zero
//! and is flagged unmarked, so aggregators can skip it instead of averaging
//! in fake zeros. On retries a stage mark is simply overwritten by the
//! later attempt; the telescoping property keeps the sum equal to the total
//! (earlier attempts' time is attributed to the stage that repeated).
//!
//! Spans use real wall-clock `Instant`s, not the logical timestamps traces
//! use: they exist to measure *time*, are never part of the replay-identical
//! trace stream, and monotonicity is inherited from `Instant`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Correlation ids are process-unique and never reused; 0 is reserved for
/// "no span" (e.g. a reply synthesized after broker death).
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

/// The stages of the ingress path, in pipeline order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Stage {
    /// Sitting in the bounded submission queue, waiting for the broker to
    /// drain it into a batch.
    QueueWait = 0,
    /// The admission pass: deadline check, then the memory-pressure write
    /// shed.
    Admission = 1,
    /// Admitted and batched, waiting for the executor-pool dispatch to
    /// begin (includes any earlier failed attempts when retried).
    Dispatch = 2,
    /// Executing as part of a warp-shaped batch on the pool.
    Execute = 3,
    /// Result routed back over the reply channel.
    Reply = 4,
}

/// Number of stages in [`Stage`].
pub const STAGE_COUNT: usize = 5;

/// Every stage, in pipeline order (useful for iteration and labeling).
pub const STAGES: [Stage; STAGE_COUNT] = [
    Stage::QueueWait,
    Stage::Admission,
    Stage::Dispatch,
    Stage::Execute,
    Stage::Reply,
];

impl Stage {
    /// Stable snake_case label, used for metric labels and JSON keys.
    pub fn name(self) -> &'static str {
        match self {
            Stage::QueueWait => "queue_wait",
            Stage::Admission => "admission",
            Stage::Dispatch => "dispatch",
            Stage::Execute => "execute",
            Stage::Reply => "reply",
        }
    }
}

/// A live span: correlation id, submission instant, and one optional mark
/// per stage.
#[derive(Debug, Clone)]
pub struct RequestSpan {
    id: u64,
    submitted: Instant,
    marks: [Option<Instant>; STAGE_COUNT],
}

impl RequestSpan {
    /// Mints a new span with a fresh correlation id, submitted now.
    pub fn begin() -> Self {
        Self::begin_at(Instant::now())
    }

    /// Mints a new span with an explicit submission instant (tests).
    pub fn begin_at(submitted: Instant) -> Self {
        Self {
            id: NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed),
            submitted,
            marks: [None; STAGE_COUNT],
        }
    }

    /// The correlation id (process-unique, nonzero).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The instant the request entered the system.
    pub fn submitted(&self) -> Instant {
        self.submitted
    }

    /// Marks `stage` as completed now.
    pub fn mark(&mut self, stage: Stage) {
        self.mark_at(stage, Instant::now());
    }

    /// Marks `stage` as completed at `now`. Batch-scope boundaries (one
    /// `Instant::now()` shared by every request in a dispatched batch) use
    /// this to avoid N clock reads.
    pub fn mark_at(&mut self, stage: Stage, now: Instant) {
        self.marks[stage as usize] = Some(now);
    }

    /// The recorded mark for `stage`, if any.
    pub fn mark_of(&self, stage: Stage) -> Option<Instant> {
        self.marks[stage as usize]
    }

    /// Collapses the marks into per-stage durations, ending the span at
    /// `end`. Durations telescope: each marked stage is billed the time
    /// since the previous marked stage (or submission), so the marked
    /// durations sum exactly to `end - submitted` when the final stage's
    /// mark equals `end`.
    pub fn report(&self, end: Instant) -> SpanReport {
        let mut stage_ns = [0u64; STAGE_COUNT];
        let mut marked = [false; STAGE_COUNT];
        let mut prev = self.submitted;
        for (i, mark) in self.marks.iter().enumerate() {
            if let Some(m) = *mark {
                stage_ns[i] = m
                    .saturating_duration_since(prev)
                    .as_nanos()
                    .min(u64::MAX as u128) as u64;
                marked[i] = true;
                prev = m;
            }
        }
        SpanReport {
            id: self.id,
            stage_ns,
            marked,
            total_ns: end
                .saturating_duration_since(self.submitted)
                .as_nanos()
                .min(u64::MAX as u128) as u64,
        }
    }
}

/// The finished decomposition of one request's latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanReport {
    /// Correlation id of the span (0 for a synthesized "no span" report).
    pub id: u64,
    /// Nanoseconds spent in each stage (zero when unmarked).
    pub stage_ns: [u64; STAGE_COUNT],
    /// Whether each stage was actually reached.
    pub marked: [bool; STAGE_COUNT],
    /// End-to-end nanoseconds from submission to the span's end.
    pub total_ns: u64,
}

impl SpanReport {
    /// A zeroed report for replies that never had a span (broker death).
    pub fn none() -> Self {
        Self {
            id: 0,
            stage_ns: [0; STAGE_COUNT],
            marked: [false; STAGE_COUNT],
            total_ns: 0,
        }
    }

    /// Nanoseconds spent in `stage`.
    pub fn stage(&self, stage: Stage) -> u64 {
        self.stage_ns[stage as usize]
    }

    /// Sum of the marked stages' nanoseconds.
    pub fn stage_sum_ns(&self) -> u64 {
        self.stage_ns.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn ids_are_unique_and_nonzero() {
        let a = RequestSpan::begin();
        let b = RequestSpan::begin();
        assert_ne!(a.id(), 0);
        assert_ne!(a.id(), b.id());
    }

    #[test]
    fn marked_stages_telescope_to_the_total() {
        let t0 = Instant::now();
        let mut span = RequestSpan::begin_at(t0);
        let mut t = t0;
        for stage in STAGES {
            t += Duration::from_micros(10);
            span.mark_at(stage, t);
        }
        let report = span.report(t);
        assert!(report.marked.iter().all(|&m| m));
        assert_eq!(report.stage_sum_ns(), report.total_ns);
        for stage in STAGES {
            assert_eq!(report.stage(stage), 10_000);
        }
    }

    #[test]
    fn unmarked_stages_are_zero_and_flagged() {
        let t0 = Instant::now();
        let mut span = RequestSpan::begin_at(t0);
        span.mark_at(Stage::QueueWait, t0 + Duration::from_micros(5));
        span.mark_at(Stage::Admission, t0 + Duration::from_micros(8));
        // Refused at admission: no dispatch/execute, answered at t0+9.
        let report = span.report(t0 + Duration::from_micros(9));
        assert!(report.marked[Stage::Admission as usize]);
        assert!(!report.marked[Stage::Dispatch as usize]);
        assert_eq!(report.stage(Stage::QueueWait), 5_000);
        assert_eq!(report.stage(Stage::Admission), 3_000);
        assert_eq!(report.stage(Stage::Execute), 0);
        assert_eq!(report.total_ns, 9_000);
    }

    #[test]
    fn retry_overwrites_keep_the_telescoping_property() {
        let t0 = Instant::now();
        let mut span = RequestSpan::begin_at(t0);
        span.mark_at(Stage::QueueWait, t0 + Duration::from_micros(1));
        span.mark_at(Stage::Admission, t0 + Duration::from_micros(2));
        // First attempt.
        span.mark_at(Stage::Dispatch, t0 + Duration::from_micros(3));
        span.mark_at(Stage::Execute, t0 + Duration::from_micros(10));
        // Retry: dispatch/execute marks move later; time of the failed
        // attempt is attributed to the (repeated) dispatch stage.
        span.mark_at(Stage::Dispatch, t0 + Duration::from_micros(12));
        span.mark_at(Stage::Execute, t0 + Duration::from_micros(20));
        let end = t0 + Duration::from_micros(21);
        span.mark_at(Stage::Reply, end);
        let report = span.report(end);
        assert_eq!(report.stage_sum_ns(), report.total_ns);
        assert_eq!(report.stage(Stage::Dispatch), 10_000);
        assert_eq!(report.stage(Stage::Execute), 8_000);
    }

    #[test]
    fn marks_are_monotone_per_stage_when_marked_in_order() {
        let mut span = RequestSpan::begin();
        for stage in STAGES {
            span.mark(stage);
        }
        let mut prev = span.submitted();
        for stage in STAGES {
            let m = span.mark_of(stage).expect("marked");
            assert!(m >= prev, "stage {} mark went backwards", stage.name());
            prev = m;
        }
    }

    #[test]
    fn stage_names_are_stable() {
        let names: Vec<&str> = STAGES.iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            ["queue_wait", "admission", "dispatch", "execute", "reply"]
        );
    }
}
