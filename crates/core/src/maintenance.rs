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
//!    its tombstones and the surplus slabs are freed. When an operation is
//!    running, or another maintainer holds the window, it compacts nothing
//!    and a later pass catches up (see `flush.rs` and DESIGN.md §10).
//! 2. **Allocator growth** (`SlabAllocator::try_grow`) activates reserve
//!    super blocks when the free-slab gauge sinks below its watermark.
//! 3. **Backpressure** ([`MaintenancePolicy`]) decides what a caller does
//!    when an operation fails with `OutOfSlabs` or `RetryBudgetExhausted`:
//!    block (compact + grow + retry with bounded backoff) or shed (run one
//!    maintenance pass, then surface the failure).
//!
//! [`SlabHash::maintain`] bundles 1 + 2 into one idempotent pass that a
//! background thread (or an inline retry loop) can call at any time. It
//! skips the compaction launch when nothing has dirtied the table since its
//! last completed pass (DESIGN.md §12).

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use simt::Grid;
use slab_alloc::SlabAllocator;

use crate::backoff::Backoff;
use crate::entry::EntryLayout;
use crate::error::TableError;
use crate::flush::FlushReport;
use crate::hash_table::SlabHash;

/// Whether the last compaction pass left nothing for the next one to do.
///
/// A pass that completes every bucket leaves each chain tombstone-free and
/// minimal (DESIGN.md §12). Only two writes undo that: a tombstone, and a
/// slab linked onto a chain. An INSERT or REPLACE that lands in a slab the
/// chain already has keeps the chain minimal, and a search writes nothing.
/// So the flag is set by a completed pass and cleared after every
/// successful tombstone or link CAS; while it is set, a new pass would read
/// every slab and write none, and [`SlabHash::maintain`] skips its launch.
///
/// Ops clear it while holding an epoch pin, and the pass reads and sets it
/// inside a quiescent window, which no pin overlaps: the pin lock orders
/// every clear before the next window, so relaxed accesses suffice.
/// Aligned to its own 128 B so clearing it never contends with the epoch
/// clock's pin counter.
#[derive(Debug, Default)]
#[repr(align(128))]
pub(crate) struct Compacted(AtomicBool);

impl Compacted {
    /// Records a tombstone or a link. Loads first and stores only when set,
    /// so the steady-state cost is one relaxed load of an unshared line.
    #[inline]
    pub(crate) fn clear(&self) {
        if self.0.load(Ordering::Relaxed) {
            self.0.store(false, Ordering::Relaxed);
        }
    }

    /// Records a pass that completed every bucket.
    pub(crate) fn set(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    fn is_set(&self) -> bool {
        self.0.load(Ordering::Relaxed)
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
    /// The compaction pass. `None` when no quiescent window could be
    /// claimed: an operation was in flight, or another maintainer held the
    /// window. A report with `buckets == 0` (and zero counters) is a pass
    /// that found the table clean since its last completed pass and
    /// launched nothing.
    pub flushed: Option<FlushReport>,
    /// How long the pass held its quiescent window: new operations waited
    /// at their epoch pin for up to this long. Zero when no window was
    /// claimed.
    pub pause: Duration,
    /// Always 0: compaction frees its surplus slabs directly (counted in
    /// `flushed`), so nothing is left awaiting reclamation. Kept because
    /// the benchmark reports it.
    pub reclaimed: u64,
    /// Whether the allocator activated reserve capacity this pass.
    pub grew: bool,
}

/// What one [`SlabHash::recover`] call decided and did.
#[derive(Debug, Clone, Copy)]
pub struct Recovery {
    /// Whether the caller should retry the failed operation.
    pub retry: bool,
    /// The maintenance pass `recover` ran, so a caller can bill its pause;
    /// `None` when the policy ran none.
    pub pass: Option<MaintenanceReport>,
}

impl<L: EntryLayout, A: SlabAllocator> SlabHash<L, A> {
    /// One idempotent self-healing pass:
    ///
    /// * **No operation in flight** (no epoch pin live): the paper's
    ///   compacting FLUSH. Every bucket is rebuilt without its tombstones
    ///   and the surplus slabs are freed. New operations wait at their
    ///   epoch pin until the pass ends. When no tombstone was written and
    ///   no slab linked since the last completed pass, there is nothing to
    ///   rebuild, and the pass launches nothing (`buckets == 0`).
    /// * **Otherwise** (an operation holds a pin, or another maintainer
    ///   holds the window): no compaction. The pass never blocks on either.
    ///
    /// In both cases it then grows the allocator if the free-slab gauge is
    /// nearly drained. Safe to call from any thread at any time, concurrently
    /// with table traffic; `&self` only. A caller that holds an epoch pin
    /// of its own never compacts.
    pub fn maintain(&self, grid: &Grid) -> MaintenanceReport {
        let (flushed, pause) = match self.clock.quiesce() {
            Some(quiet) => {
                let opened = Instant::now();
                let flushed = if self.compacted.is_set() {
                    FlushReport::default()
                } else {
                    self.compact_exclusive(grid, &quiet)
                };
                drop(quiet);
                (Some(flushed), opened.elapsed())
            }
            None => (None, Duration::ZERO),
        };
        let grew = self.allocator().free_slabs() < 64 && self.allocator().try_grow();
        MaintenanceReport {
            flushed,
            pause,
            reclaimed: 0,
            grew,
        }
    }

    /// Policy-driven reaction to a failed operation: whether the caller
    /// should retry the operation or surface the error, and the
    /// maintenance pass it ran, if any. `round` counts prior recovery
    /// attempts for this operation (start at 0).
    pub fn recover(
        &self,
        err: TableError,
        policy: &MaintenancePolicy,
        grid: &Grid,
        round: u32,
    ) -> Recovery {
        match policy.mode {
            PressureMode::Shed => Recovery {
                // Heal for the *next* caller, but don't retry this one.
                retry: false,
                pass: (round == 0).then(|| self.maintain(grid)),
            },
            PressureMode::Block => {
                if round >= policy.max_rounds {
                    return Recovery {
                        retry: false,
                        pass: None,
                    };
                }
                let report = self.maintain(grid);
                // Out of slabs and maintenance freed nothing: growth is the
                // only way forward, so insist on it even above the gauge
                // threshold.
                if matches!(err, TableError::OutOfSlabs(_))
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
                Recovery {
                    retry: true,
                    pass: Some(report),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::mpsc;
    use std::time::Duration;

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
    }

    /// A table with four buckets whose every third key is deleted: each
    /// slab keeps live keys, so only the compacting rewrite shrinks a chain.
    fn churned_table() -> SlabHash<KeyValue> {
        let t = SlabHash::<KeyValue>::new(SlabHashConfig::with_buckets(4));
        let mut w = WarpDriver::new(&t);
        for k in 0..600 {
            w.replace(k, k + 1);
        }
        for k in (0..600).step_by(3) {
            w.delete(k);
        }
        assert!(
            !chains_are_minimal(&t.audit().unwrap()),
            "the fixture must leave slack"
        );
        t
    }

    #[test]
    fn maintain_compacts_only_when_no_op_is_in_flight() {
        let t = churned_table();
        let grid = Grid::new(2);
        let launches = |g: &Grid| g.pool_stats().map_or(0, |p| p.launches);

        // A live pin: the pass launches nothing, so it writes no sector,
        // and the table reads exactly as before.
        let (elements, audit) = (t.collect_elements(), t.audit().unwrap());
        let before = launches(&grid);
        let pin = t.epoch_pin();
        let skipped = t.maintain(&grid);
        assert!(skipped.flushed.is_none(), "an op was in flight");
        assert_eq!(skipped.pause, Duration::ZERO, "a skipped pass paused");
        drop(pin);
        assert_eq!(launches(&grid), before, "a skipped pass launched a kernel");
        assert_eq!(t.collect_elements(), elements);
        assert_eq!(t.audit().unwrap(), audit);

        let r = t.maintain(&grid);
        let a = t.audit().unwrap();
        let flushed = r.flushed.expect("no op in flight");
        assert!(r.pause > Duration::ZERO, "the rewrite held its window");
        assert!(
            launches(&grid) > before,
            "the rewrite runs as a pooled launch"
        );
        assert_eq!(flushed.elements_kept, 400);
        assert!(flushed.slabs_released > 0);
        assert_eq!(a.tombstones, 0);
        assert!(
            chains_are_minimal(&a),
            "chains not minimal: {:?}",
            a.bucket_stats
        );
        assert!(a.no_leaks(), "{a:?}");
        let mut w = WarpDriver::new(&t);
        for k in 0..600 {
            let want = (k % 3 != 0).then_some(k + 1);
            assert_eq!(w.search(k), want, "key {k}");
        }
    }

    /// One `maintain` pass that claims its window; whenever it leaves the
    /// table marked compacted, the table must be what a pass produces.
    fn pass(t: &SlabHash<KeyValue>, grid: &Grid) -> FlushReport {
        let flushed = t.maintain(grid).flushed.expect("no op in flight");
        if t.compacted.is_set() {
            let a = t.audit().unwrap();
            assert_eq!(a.tombstones, 0, "{a:?}");
            assert!(chains_are_minimal(&a), "{:?}", a.bucket_stats);
        }
        flushed
    }

    #[test]
    fn maintain_skips_a_pass_until_a_tombstone_or_link_dirties_the_table() {
        let t = churned_table();
        let grid = Grid::new(2);
        let launches = |g: &Grid| g.pool_stats().map_or(0, |p| p.launches);
        let skipped = FlushReport::default();
        assert_eq!(pass(&t, &grid).buckets, 4, "a new table's first pass runs");
        let before = launches(&grid);
        assert_eq!(pass(&t, &grid), skipped, "nothing dirtied the table");
        assert_eq!(launches(&grid), before, "a skipped pass launched a kernel");

        // Searches and in-place replaces write no tombstone and link no slab.
        let mut w = WarpDriver::new(&t);
        assert_eq!(w.search(1), Some(2));
        assert_eq!(w.replace(1, 7), Some(2));
        assert_eq!(pass(&t, &grid), skipped);

        // A DELETE leaves a tombstone: the next pass runs and scrubs it.
        assert_eq!(w.delete(1), Some(7));
        let scrub = pass(&t, &grid);
        assert_eq!(scrub.buckets, 4);
        assert!(scrub.counters.sector_writes > 0, "{scrub:?}");
        assert_eq!(pass(&t, &grid), skipped);

        // Fresh INSERTs fill free slots until one links a slab; only the
        // linking one dirties the table.
        for k in 1000.. {
            let slabs = t.total_slabs();
            w.insert(k, k);
            if t.total_slabs() == slabs {
                assert_eq!(pass(&t, &grid), skipped, "key {k} linked nothing");
                continue;
            }
            assert_eq!(pass(&t, &grid).buckets, 4, "key {k} linked a slab");
            break;
        }
        assert_eq!(pass(&t, &grid), skipped);
        assert_eq!(launches(&grid), before + 2, "exactly two passes launched");
    }

    #[test]
    fn a_second_maintainer_skips_a_held_window_without_blocking() {
        let t = churned_table();
        let audit = t.audit().unwrap();
        let pinned = AtomicBool::new(false);
        std::thread::scope(|scope| {
            // Opened inside the scope, so a failing assert drops it before
            // the scope joins the threads that wait on it.
            let quiet = t.clock.quiesce().expect("no op in flight");
            let (tx, rx) = mpsc::channel();
            let table = &t;
            scope.spawn(move || tx.send(table.maintain(&Grid::sequential())).unwrap());
            let r = rx
                .recv_timeout(Duration::from_secs(30))
                .expect("maintain blocked on a held window");
            assert!(r.flushed.is_none(), "two passes in one window");
            // The loser left the holder's window closed: a pin still waits.
            scope.spawn(|| {
                let _pin = t.epoch_pin();
                pinned.store(true, Ordering::SeqCst);
            });
            std::thread::sleep(Duration::from_millis(20));
            assert!(
                !pinned.load(Ordering::SeqCst),
                "a pin ran inside the window"
            );
            drop(quiet);
        });
        assert!(pinned.load(Ordering::SeqCst));
        assert_eq!(t.audit().unwrap(), audit, "a skipped pass compacted");
        assert!(t.maintain(&Grid::sequential()).flushed.is_some());
        assert_eq!(t.audit().unwrap().tombstones, 0);
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
        let first = t.recover(err, &policy, &grid, 0);
        assert!(!first.retry && first.pass.is_some());
        let second = t.recover(err, &policy, &grid, 1);
        assert!(!second.retry && second.pass.is_none());
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
        for round in 0..2 {
            let healed = t.recover(err, &policy, &grid, round);
            assert!(healed.retry && healed.pass.is_some());
        }
        let spent = t.recover(err, &policy, &grid, 2);
        assert!(!spent.retry && spent.pass.is_none());
    }
}
