//! Self-healing under memory pressure: compaction, allocator growth, and
//! backpressure.
//!
//! The paper's CUDA implementation sizes its allocator for the peak working
//! set and aborts when it runs out. A long-lived table with churn (inserts
//! followed by deletes) can instead stay on bounded memory indefinitely if
//! three mechanisms cooperate:
//!
//! 1. **Compaction.** When no operation is in flight, [`SlabHash::maintain`]
//!    runs the paper's compacting FLUSH: every bucket is rebuilt without
//!    its tombstones and the surplus slabs are freed. When operations are
//!    running it falls back to incremental compaction
//!    ([`SlabHash::try_flush`]), which retires only fully dead chained slabs
//!    with a freeze → unlink → epoch-retire protocol (see `flush.rs` and
//!    DESIGN.md §10).
//! 2. **Allocator growth** (`SlabAllocator::try_grow`) activates reserve
//!    super blocks when the free-slab gauge sinks below its watermark.
//! 3. **Backpressure** ([`MaintenancePolicy`]) decides what a caller does
//!    when an operation fails with `OutOfSlabs` or `RetryBudgetExhausted`:
//!    block (compact + grow + retry with bounded backoff) or shed (run one
//!    maintenance pass, then surface the failure).
//!
//! [`SlabHash::maintain`] bundles 1 + 2 into one idempotent pass that a
//! background thread (or an inline retry loop) can call at any time.

use std::sync::atomic::AtomicBool;
use std::sync::Mutex;

use simt::{EpochClock, Grid, WarpCtx};
use slab_alloc::SlabAllocator;

use crate::backoff::Backoff;
use crate::entry::{EntryLayout, EMPTY_KEY};
use crate::error::TableError;
use crate::flush::{FlushLock, FlushReport};
use crate::hash_table::SlabHash;

/// A chained slab that has been unlinked from its bucket but may still be
/// traversed by operations that started before the unlink. It becomes
/// reclaimable once the epoch horizon passes `tag`.
pub(crate) struct RetiredSlab {
    /// Allocator pointer of the unlinked slab.
    pub(crate) ptr: u32,
    /// Epoch at which the slab was unlinked; safe to free when
    /// `horizon() >= tag`.
    pub(crate) tag: u64,
}

/// Shared maintenance state embedded in every [`SlabHash`]: the reclamation
/// epoch clock, the retired-slab list awaiting its grace period, and the
/// single-flusher lock.
pub(crate) struct MaintenanceState {
    /// Epoch clock; every table operation pins it, `try_flush` advances it.
    pub(crate) clock: EpochClock,
    /// Unlinked slabs waiting for their epoch grace period to elapse.
    pub(crate) retired: Mutex<Vec<RetiredSlab>>,
    /// Single-flusher lock: at most one compaction pass at a time.
    pub(crate) flush_lock: AtomicBool,
}

impl MaintenanceState {
    pub(crate) fn new() -> Self {
        Self {
            clock: EpochClock::new(),
            retired: Mutex::new(Vec::new()),
            flush_lock: AtomicBool::new(false),
        }
    }
}

/// What a policy-driven caller does when the table reports memory pressure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PressureMode {
    /// Compact, grow, and retry (with bounded backoff) until the operation
    /// succeeds or [`MaintenancePolicy::max_rounds`] is exhausted.
    Block,
    /// Run one maintenance pass, then surface the failure to the caller
    /// (load shedding: the caller decides what to drop).
    Shed,
}

/// How a caller reacts to `OutOfSlabs` / `RetryBudgetExhausted`: the
/// ingress broker applies it to each failed retry cohort, and a direct
/// caller passes it to [`SlabHash::recover`] in its own retry loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MaintenancePolicy {
    /// Block (retry until healed) or shed (fail fast after one heal pass).
    pub mode: PressureMode,
    /// Maximum recovery rounds before a blocked operation gives up anyway.
    pub max_rounds: u32,
    /// Jittered backoff waits between recovery rounds (see
    /// [`Backoff`]), so racing warps can make the progress
    /// the retry depends on without re-colliding in lockstep.
    pub backoff_yields: u32,
}

impl MaintenancePolicy {
    /// Block under pressure: compact + grow + retry, up to 8 rounds.
    pub fn block() -> Self {
        Self {
            mode: PressureMode::Block,
            max_rounds: 8,
            backoff_yields: 4,
        }
    }

    /// Shed under pressure: one maintenance pass, then fail fast.
    pub fn shed() -> Self {
        Self {
            mode: PressureMode::Shed,
            max_rounds: 1,
            backoff_yields: 0,
        }
    }
}

impl Default for MaintenancePolicy {
    fn default() -> Self {
        Self::block()
    }
}

/// What one [`SlabHash::maintain`] pass accomplished.
#[derive(Debug, Clone, Copy, Default)]
pub struct MaintenanceReport {
    /// The compaction pass: the exclusive rewrite when no op was in flight,
    /// else the incremental one. `None` when another flusher was already
    /// running or the incremental pass hit a fault.
    pub flushed: Option<FlushReport>,
    /// Retired slabs whose grace period elapsed and were returned to the
    /// allocator this pass.
    pub reclaimed: u64,
    /// Whether the allocator activated reserve capacity this pass.
    pub grew: bool,
}

impl<L: EntryLayout, A: SlabAllocator> SlabHash<L, A> {
    /// One idempotent self-healing pass. If another flusher holds the lock,
    /// it only reclaims retired slabs whose grace period has elapsed.
    /// Otherwise:
    ///
    /// * **No operation in flight** (no epoch pin live): the paper's
    ///   compacting FLUSH. Retired slabs are freed, every bucket is rebuilt
    ///   without its tombstones, and the surplus slabs are freed. New
    ///   operations wait at their epoch pin until the pass ends.
    /// * **Operations running:** reclaim → [`try_flush`](Self::try_flush)
    ///   (retire fully dead chained slabs) → reclaim, without blocking them.
    ///
    /// In every case it then grows the allocator if the free-slab gauge is
    /// nearly drained. Safe to call from any thread at any time, concurrently
    /// with table traffic; `&self` only. A caller that holds an epoch pin
    /// of its own always gets the incremental path.
    pub fn maintain(&self, grid: &Grid) -> MaintenanceReport {
        let mut report = MaintenanceReport::default();
        match FlushLock::acquire(&self.maint.flush_lock) {
            None => report.reclaimed = self.reclaim_retired(),
            Some(_lock) => match self.maint.clock.quiesce() {
                Some(quiet) => {
                    let (reclaimed, flushed) = self.compact_exclusive(grid, &quiet);
                    report.reclaimed = reclaimed;
                    report.flushed = Some(flushed);
                }
                None => {
                    report.reclaimed = self.reclaim_retired();
                    // A faulted pass is fine: the table stays consistent
                    // and a later pass picks up where this one left off.
                    report.flushed = self.retire_dead_slabs(grid).ok();
                    report.reclaimed += self.reclaim_retired();
                }
            },
        }
        if self.allocator().free_slabs() < 64 {
            report.grew = self.allocator().try_grow();
        }
        report
    }

    /// Policy-driven reaction to a failed operation. Returns `true` if the
    /// caller should retry the operation, `false` if it should surface the
    /// error. `round` counts prior recovery attempts for this operation
    /// (start at 0).
    pub fn recover(
        &self,
        err: TableError,
        policy: &MaintenancePolicy,
        grid: &Grid,
        round: u32,
    ) -> bool {
        match policy.mode {
            PressureMode::Shed => {
                // Heal for the *next* caller, but don't retry this one.
                if round == 0 {
                    self.maintain(grid);
                }
                false
            }
            PressureMode::Block => {
                if round >= policy.max_rounds {
                    return false;
                }
                let report = self.maintain(grid);
                // Out of slabs and maintenance freed nothing: growth is the
                // only way forward, so insist on it even above the gauge
                // threshold.
                if matches!(err, TableError::OutOfSlabs(_))
                    && report.reclaimed == 0
                    && report.flushed.map_or(0, |f| f.slabs_released) == 0
                    && !report.grew
                {
                    self.allocator().try_grow();
                }
                // Jittered exponential backoff, scaled by how many recovery
                // rounds this operation has already burned: competitors
                // retrying the same drained allocator decorrelate instead of
                // re-colliding the instant maintenance frees capacity.
                let mut backoff = Backoff::new(0xB0FF ^ u64::from(round));
                for step in 0..policy.backoff_yields {
                    backoff.wait_attempt(round.saturating_add(step));
                }
                true
            }
        }
    }

    /// Returns retired slabs whose epoch grace period has elapsed to the
    /// allocator (scrubbed back to all-`EMPTY_KEY` first). Called from
    /// [`maintain`](Self::maintain); also useful alone after a burst of
    /// operations drops the pin count to zero.
    pub fn reclaim_retired(&self) -> u64 {
        self.release_retired(self.maint.clock.horizon())
    }

    /// Scrubs and frees every retired slab tagged at or below `horizon`.
    pub(crate) fn release_retired(&self, horizon: u64) -> u64 {
        let ready: Vec<u32> = {
            let mut retired = self.maint.retired.lock().unwrap();
            let mut ready = Vec::new();
            retired.retain(|r| {
                let due = r.tag <= horizon;
                if due {
                    ready.push(r.ptr);
                }
                !due
            });
            ready
        };
        let mut ctx = WarpCtx::for_test(usize::MAX);
        for &ptr in &ready {
            let slab = self.allocator().resolve(ptr, &mut ctx);
            slab.storage
                .clear_slab(slab.slab, EMPTY_KEY, &mut ctx.counters);
            self.allocator().deallocate(ptr, &mut ctx);
        }
        ready.len() as u64
    }

    /// Slabs currently unlinked but not yet reclaimed (awaiting their epoch
    /// grace period).
    pub fn retired_slab_count(&self) -> u64 {
        self.maint.retired.lock().unwrap().len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::KeyValue;
    use crate::hash_table::SlabHashConfig;
    use crate::stats::AuditReport;
    use crate::WarpDriver;

    /// True when every bucket holds exactly the slabs its live count needs.
    fn chains_are_minimal(a: &AuditReport) -> bool {
        let m = KeyValue::ELEMS_PER_SLAB;
        a.bucket_stats
            .iter()
            .all(|b| b.chain_slabs == b.live.div_ceil(m).max(1))
    }

    #[test]
    fn policy_defaults() {
        let p = MaintenancePolicy::default();
        assert_eq!(p.mode, PressureMode::Block);
        assert_eq!(p.max_rounds, 8);
        let s = MaintenancePolicy::shed();
        assert_eq!(s.mode, PressureMode::Shed);
    }

    #[test]
    fn maintain_on_idle_table_is_a_no_op() {
        let t = SlabHash::<KeyValue>::new(SlabHashConfig::with_buckets(8));
        let grid = Grid::default();
        let r = t.maintain(&grid);
        assert_eq!(r.reclaimed, 0);
        assert_eq!(r.flushed.map(|f| f.slabs_released), Some(0));
        assert!(!r.grew);
        assert_eq!(t.retired_slab_count(), 0);
    }

    #[test]
    fn maintain_compacts_only_when_no_op_is_in_flight() {
        let t = SlabHash::<KeyValue>::new(SlabHashConfig::with_buckets(4));
        let grid = Grid::new(2);
        let mut w = WarpDriver::new(&t);
        for k in 0..600 {
            w.replace(k, k + 1);
        }
        // Every third key dies: each slab keeps live keys, so no slab is
        // fully dead and only the compacting rewrite can shrink a chain.
        for k in (0..600).step_by(3) {
            w.delete(k);
        }
        let churned = t.audit().unwrap();
        assert!(!chains_are_minimal(&churned), "the fixture must leave slack");

        // A live pin: only fully dead slabs may go, partly dead ones stay.
        let pin = t.epoch_pin();
        assert!(t.maintain(&grid).flushed.is_some());
        let a = t.audit().unwrap();
        assert!(a.tombstones > 0, "an op was in flight: tombstones must stay");
        assert!(!chains_are_minimal(&a), "an op was in flight: no rewrite");
        drop(pin);

        let r = t.maintain(&grid);
        let a = t.audit().unwrap();
        let flushed = r.flushed.expect("the flush lock was free");
        assert_eq!(flushed.elements_kept, 400);
        assert!(flushed.slabs_released > 0);
        assert_eq!(a.tombstones, 0);
        assert_eq!(a.retired_slabs, 0);
        assert!(chains_are_minimal(&a), "chains not minimal: {:?}", a.bucket_stats);
        assert!(a.no_leaks(), "{a:?}");
        for k in 0..600 {
            let want = (k % 3 != 0).then_some(k + 1);
            assert_eq!(w.search(k), want, "key {k}");
        }
    }

    #[test]
    fn quiescent_maintain_leaves_a_tombstone_free_minimal_census() {
        let t = SlabHash::<KeyValue>::new(SlabHashConfig::with_buckets(16));
        let grid = Grid::new(2);
        let mut w = WarpDriver::new(&t);
        // Churn: each round adds 500 fresh keys and deletes 400 of the
        // oldest live ones, so tombstones pile up along growing chains.
        let mut oldest = 0u32;
        for round in 0..8u32 {
            for k in round * 500..(round + 1) * 500 {
                w.replace(k, k);
            }
            for k in oldest..oldest + 400 {
                w.delete(k);
            }
            oldest += 400;
        }
        assert!(t.audit().unwrap().tombstones > 0);
        t.maintain(&grid);
        let a = t.audit().unwrap();
        let m = u64::from(KeyValue::ELEMS_PER_SLAB);
        assert_eq!(a.lanes_by_depth.len(), a.max_chain);
        for (d, census) in a.lanes_by_depth.iter().enumerate() {
            assert_eq!(census.tombstones, 0, "depth {d}: {census:?}");
            // A slab at depth d >= 1 exists only in a bucket whose live
            // elements overflow the d slabs before it.
            let needing = a
                .bucket_stats
                .iter()
                .filter(|b| d == 0 || u64::from(b.live) > d as u64 * m)
                .count() as u64;
            assert_eq!(census.slabs, needing, "depth {d}: {census:?}");
        }
        let live: u64 = a.lanes_by_depth.iter().map(|c| c.live).sum();
        assert_eq!(live, 800);
        assert!(a.no_leaks());
    }

    #[test]
    fn shed_heals_once_but_never_retries() {
        let t = SlabHash::<KeyValue>::new(SlabHashConfig::with_buckets(8));
        let grid = Grid::default();
        let policy = MaintenancePolicy::shed();
        let err = TableError::RetryBudgetExhausted { budget: 4 };
        assert!(!t.recover(err, &policy, &grid, 0));
        assert!(!t.recover(err, &policy, &grid, 1));
    }

    #[test]
    fn block_retries_until_max_rounds() {
        let t = SlabHash::<KeyValue>::new(SlabHashConfig::with_buckets(8));
        let grid = Grid::default();
        let policy = MaintenancePolicy {
            max_rounds: 2,
            ..MaintenancePolicy::block()
        };
        let err = TableError::RetryBudgetExhausted { budget: 4 };
        assert!(t.recover(err, &policy, &grid, 0));
        assert!(t.recover(err, &policy, &grid, 1));
        assert!(!t.recover(err, &policy, &grid, 2));
    }
}
