//! Self-healing under memory pressure: concurrent compaction, allocator
//! growth, and backpressure.
//!
//! The paper's CUDA implementation sizes its allocator for the peak working
//! set and aborts when it runs out. A long-lived table with churn (inserts
//! followed by deletes) can instead stay on bounded memory indefinitely if
//! three mechanisms cooperate:
//!
//! 1. **Incremental compaction** ([`SlabHash::try_flush`]) retires
//!    dead chained slabs *while traffic is running*, using a freeze → unlink
//!    → epoch-retire protocol (see `flush.rs` and DESIGN.md §10).
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
use crate::flush::FlushReport;
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
    /// Single-flusher lock: at most one `try_flush` pass at a time.
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
    /// The compaction pass, if the flush lock was free (`None` when another
    /// flusher was already running).
    pub flushed: Option<FlushReport>,
    /// Retired slabs whose grace period elapsed and were returned to the
    /// allocator this pass.
    pub reclaimed: u64,
    /// Whether the allocator activated reserve capacity this pass.
    pub grew: bool,
}

impl<L: EntryLayout, A: SlabAllocator> SlabHash<L, A> {
    /// One idempotent self-healing pass: reclaim every retired slab whose
    /// grace period has elapsed, run an incremental compaction pass (if no
    /// other flusher holds the lock), reclaim again, and grow the allocator
    /// if the free-slab gauge is nearly drained.
    ///
    /// Safe to call from any thread at any time, concurrently with table
    /// traffic; `&self` only.
    pub fn maintain(&self, grid: &Grid) -> MaintenanceReport {
        let mut report = MaintenanceReport {
            reclaimed: self.reclaim_retired(),
            ..MaintenanceReport::default()
        };
        match self.try_flush(grid) {
            Ok(fr) => report.flushed = Some(fr),
            // Busy / faulted passes are fine: the table stays consistent
            // and a later pass picks up where this one left off.
            Err(_) => report.flushed = None,
        }
        report.reclaimed += self.reclaim_retired();
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
        let horizon = self.maint.clock.horizon();
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
