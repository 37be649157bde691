//! End-to-end tests of the self-healing maintenance loop: a churning table
//! on an undersized allocator survives indefinitely because compaction
//! (the quiescent rewrite) + allocator growth keep returning dead slabs;
//! the rewrite races live searchers without hiding a single live key; and
//! fault-injected churn healed by the policy loop leaves the table
//! auditable.
//!
//! Tests that activate a fault plan serialize behind a mutex: the plan
//! epoch is process-global, so a concurrent guard would reseed this
//! thread's decision stream mid-run and break reproducibility.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::Duration;

use simt::{ChaosGuard, FaultPlan, Grid, WarpCtx};
use slab_alloc::{SerialHeapSim, SlabAlloc, SlabAllocConfig, SlabAllocator};
use slab_hash::{
    BatchBuffer, KeyValue, MaintenancePolicy, OpResult, Request, SlabHash, SlabHashConfig,
    TableError, WarpDriver, EMPTY_KEY,
};

static CHAOS_LOCK: parking_lot::Mutex<()> = parking_lot::Mutex::new(());

/// Insert with the block policy's heal-and-retry loop; panics only when the
/// policy itself gives up (which the soak treats as a lost table).
fn insert_healing<A: SlabAllocator>(
    t: &SlabHash<KeyValue, A>,
    w: &mut WarpDriver<'_, KeyValue, A>,
    grid: &Grid,
    key: u32,
    value: u32,
) {
    let policy = MaintenancePolicy::block();
    let mut round = 0;
    loop {
        match w.checked_replace(key, value) {
            Ok(_) => return,
            Err(e) => {
                assert!(
                    t.recover(e, &policy, grid, round).retry,
                    "unrecoverable pressure at key {key} after {round} rounds: {e}"
                );
                round += 1;
            }
        }
    }
}

/// ≥100 insert → delete → `maintain` cycles on an allocator an order of
/// magnitude too small for the cumulative churn.
/// Without compaction the heap would exhaust within three cycles; with it
/// the table runs unattended, a pinned resident set survives every cycle,
/// and the final audit balances to the slab. `maintain` runs the
/// compacting rewrite because no operation is in flight between cycles.
#[test]
fn churn_soak_on_undersized_allocator() {
    // 4 buckets over a 32-slab serialized heap (no growth possible).
    // Each cycle chains ~12 slabs; 120 cycles demand ~1400 slab
    // allocations — the heap holds 32, so survival proves reclamation.
    let t = SlabHash::<KeyValue, SerialHeapSim>::with_allocator(
        SlabHashConfig {
            seed: 0x50AC,
            ..SlabHashConfig::with_buckets(4)
        },
        SerialHeapSim::new(32, EMPTY_KEY),
    );
    let grid = Grid::sequential();
    let mut w = WarpDriver::new(&t);
    let compact = |cycle: u32| {
        let report = t.maintain(&grid);
        assert!(
            report.flushed.is_some(),
            "cycle {cycle}: single-threaded maintain found no quiescent window"
        );
    };

    // A pinned resident set that must survive the entire soak.
    let pinned: Vec<u32> = (0..30).map(|i| 1_000_000 + i * 7).collect();
    for &k in &pinned {
        insert_healing(&t, &mut w, &grid, k, k ^ 0xA5A5);
    }

    let mut peak_slabs = 0u64;
    for cycle in 0..120u32 {
        let base = cycle * 1_000;
        for k in 0..200 {
            insert_healing(&t, &mut w, &grid, base + k, base + k + 1);
        }
        peak_slabs = peak_slabs.max(t.allocator().allocated_slabs());
        for k in 0..200 {
            assert_eq!(
                w.search(base + k),
                Some(base + k + 1),
                "cycle {cycle}: churn key {k} lost before delete"
            );
        }
        for k in 0..200 {
            assert_eq!(
                w.checked_delete(base + k),
                Ok(Some(base + k + 1)),
                "cycle {cycle}: churn key {k} vanished"
            );
        }
        // Deleting 200 keys tombstones whole chained slabs; compaction
        // must actually turn them back into allocator capacity.
        compact(cycle);
        for &k in &pinned {
            assert_eq!(
                w.search(k),
                Some(k ^ 0xA5A5),
                "cycle {cycle}: pinned key {k} lost"
            );
        }
    }

    // Bounded peak: the table never outgrew the undersized heap (naive
    // demand is ~40x larger), and what remains accounts exactly.
    assert!(peak_slabs <= 32, "heap overrun: peak {peak_slabs}");
    compact(120);
    let audit = t.audit().expect("soaked table must audit");
    assert_eq!(audit.live_elements, pinned.len() as u64);
    assert_eq!(audit.double_frees, 0);
    assert!(audit.no_leaks(), "slab accounting imbalance: {audit:?}");
}

/// The quiescence gate: `maintain` rewrites chains in place only while no
/// operation holds an epoch pin, so searchers racing a maintain loop over
/// long, partly dead chains never miss a live key. A churning
/// `execute_buffer` shares the maintainer's `Grid`: while a pass holds the
/// window its pool warps block in `pin()`, so the pass's own launch must
/// fall back to scoped spawning rather than wait for the pool. A watchdog
/// turns that deadlock, or a window that never opens, into a failure.
#[test]
fn quiescent_compaction_races_searchers_on_a_shared_grid() {
    // A trial's first pass decides most of its chance to expose a broken
    // gate, so the race runs on several fresh tables.
    let (done, finished) = mpsc::channel();
    let race = std::thread::spawn(move || {
        for seed in 0x0C0A..0x0C12 {
            compaction_race_trial(seed);
        }
        done.send(()).unwrap();
    });
    if finished.recv_timeout(Duration::from_secs(120)).is_err() && !race.is_finished() {
        panic!("maintain deadlocked against pool warps blocked in pin(), or found no window");
    }
    if let Err(panic) = race.join() {
        std::panic::resume_unwind(panic);
    }
}

/// One table of [`quiescent_compaction_races_searchers_on_a_shared_grid`].
fn compaction_race_trial(seed: u64) {
    // Keys 0..4 * QUARTER by residue mod 4: 0 and 2 stay live and are
    // searched, 1 churns, 3 is dead from the start.
    const QUARTER: u32 = 2_000;
    const ROUNDS: u32 = 10;
    // A pass that finds an op in flight compacts nothing, so only passes
    // that claimed a window count: the searchers go on until this many
    // have rewritten the chains between their walks.
    const REWRITES: u64 = 16;
    let t = SlabHash::<KeyValue>::new(SlabHashConfig {
        seed,
        ..SlabHashConfig::with_buckets(4)
    });
    // Inserted in order, so the classes interleave along ~130-slab
    // chains, and every slab is left partly dead.
    {
        let mut w = WarpDriver::new(&t);
        for k in 0..4 * QUARTER {
            w.replace(k, k + 1);
        }
        for k in (3..4 * QUARTER).step_by(4) {
            w.delete(k);
        }
    }
    let grid = Grid::new(2);
    let stop = AtomicBool::new(false);
    let churning = AtomicBool::new(true);
    let rewrites = AtomicU64::new(0);
    let searching = AtomicU64::new(0);
    std::thread::scope(|scope| {
        // The maintainer starts once both searchers are walking, and
        // pauses between passes as a kernel loop does between launches,
        // so each pass starts with searchers mid-walk rather than queued
        // at their pins.
        scope.spawn(|| {
            while searching.load(Ordering::Acquire) < 2 && !stop.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            while !stop.load(Ordering::Acquire) {
                if t.maintain(&grid).flushed.is_some() {
                    rewrites.fetch_add(1, Ordering::Relaxed);
                }
                std::thread::sleep(Duration::from_micros(200));
            }
        });
        // Churn on the maintainer's grid: each round deletes a fresh
        // slice of the residue-1 keys, punching holes among the live
        // keys so the next pass moves them along their chains, then
        // re-inserts the slice at the chain tails.
        let churn = scope.spawn(|| {
            let mut batch = BatchBuffer::with_capacity(QUARTER as usize);
            for round in 0..ROUNDS {
                let slice = (1..4 * QUARTER)
                    .step_by(4)
                    .skip(round as usize)
                    .step_by(ROUNDS as usize);
                batch.clear();
                for k in slice.clone() {
                    batch.push(Request::delete(k));
                    batch.push(Request::search(k - 1));
                }
                t.execute_buffer(&mut batch, &grid);
                for r in batch.requests() {
                    let want = match r.key % 4 {
                        1 => OpResult::Deleted(r.key + 1),
                        _ => OpResult::Found(r.key + 1),
                    };
                    assert_eq!(r.result, want, "round {round}: {:?} {}", r.op, r.key);
                }
                batch.clear();
                for k in slice {
                    batch.push(Request::replace(k, k + 1));
                }
                t.execute_buffer(&mut batch, &grid);
                for r in batch.requests() {
                    assert_eq!(r.result, OpResult::Inserted, "round {round}: {}", r.key);
                }
            }
            churning.store(false, Ordering::Release);
        });
        // Searchers: SEARCH batches of the live keys, residue 0 for one
        // and 2 for the other, on private sequential grids. Each warp holds
        // its pin across 32 chain walks, so a pass that ignored the pin
        // would move keys under it.
        let searchers: Vec<_> = (0..2)
            .map(|residue| {
                let (t, rewrites, stop, churning) = (&t, &rewrites, &stop, &churning);
                let searching = &searching;
                scope.spawn(move || {
                    let keys: Vec<u32> = (2 * residue..4 * QUARTER).step_by(4).collect();
                    let seq = Grid::sequential();
                    searching.fetch_add(1, Ordering::Release);
                    // At least 2 sweeps, and on until the churn is done
                    // and REWRITES passes have claimed a window.
                    for sweep in 0.. {
                        let raced = sweep >= 2
                            && !churning.load(Ordering::Acquire)
                            && rewrites.load(Ordering::Relaxed) >= REWRITES;
                        if raced || stop.load(Ordering::Acquire) {
                            break;
                        }
                        let (found, _) = t.bulk_search(&keys, &seq);
                        for (&k, f) in keys.iter().zip(found) {
                            assert_eq!(
                                f,
                                Some(k + 1),
                                "sweep {sweep}: live key {k} hidden by a racing rewrite"
                            );
                        }
                        // Two searchers back to back leave almost no
                        // window open: wait after each sweep until a pass
                        // claims one, which it can only do once neither
                        // searcher is walking.
                        let seen = rewrites.load(Ordering::Acquire);
                        while rewrites.load(Ordering::Acquire) == seen
                            && !stop.load(Ordering::Acquire)
                        {
                            std::thread::sleep(Duration::from_micros(100));
                        }
                    }
                })
            })
            .collect();
        let churned = churn.join();
        if churned.is_err() {
            stop.store(true, Ordering::Release);
        }
        let searched: Vec<_> = searchers.into_iter().map(|h| h.join()).collect();
        stop.store(true, Ordering::Release);
        for outcome in std::iter::once(churned).chain(searched) {
            if let Err(panic) = outcome {
                std::panic::resume_unwind(panic);
            }
        }
    });

    // Quiet now: one pass leaves the chains tombstone-free.
    assert!(t.maintain(&grid).flushed.is_some(), "no op in flight");
    let audit = t.audit().unwrap();
    assert_eq!(audit.live_elements, u64::from(3 * QUARTER));
    assert_eq!(audit.tombstones, 0);
    assert!(audit.no_leaks(), "race leaked a slab: {audit:?}");
}

/// Satellite: chaos-grid churn — yields, spurious CAS losses, and injected
/// allocation failures over a concurrent grid, healed by the policy loop.
#[test]
fn chaos_churn_heals_under_fault_plan() {
    let _l = CHAOS_LOCK.lock();
    let _g = ChaosGuard::plan(
        FaultPlan::seeded(0xC_0FFE)
            .with_yields(0.1)
            .with_cas_failures(0.02)
            .with_alloc_failures(0.05),
    );
    let t = SlabHash::<KeyValue>::new(SlabHashConfig {
        seed: 0xC0DE,
        ..SlabHashConfig::with_buckets(4)
    });
    let grid = Grid::new(4);
    let seq = Grid::sequential();
    let mut w = WarpDriver::new(&t);

    for cycle in 0..20u32 {
        let base = cycle * 500;
        let mut reqs: Vec<Request> = (0..500).map(|k| Request::replace(base + k, k)).collect();
        t.execute_batch(&mut reqs, &grid);
        // Heal every shed request through the policy loop.
        for r in &reqs {
            match &r.result {
                OpResult::Inserted | OpResult::Replaced(_) => {}
                OpResult::Failed(_) => {
                    insert_healing(&t, &mut w, &seq, r.key, r.key.wrapping_sub(base));
                }
                other => panic!("unexpected churn outcome: {other:?}"),
            }
        }
        let keys: Vec<u32> = (0..500).map(|k| base + k).collect();
        let (found, _) = t.bulk_search(&keys, &grid);
        for (i, f) in found.iter().enumerate() {
            assert!(f.is_some(), "cycle {cycle}: key {i} lost after healing");
        }
        let mut dels: Vec<Request> = keys.iter().map(|&k| Request::delete(k)).collect();
        t.execute_batch(&mut dels, &grid);
        t.maintain(&seq);
    }
    let audit = t.audit().unwrap();
    assert!(audit.no_leaks(), "chaos churn leaked: {audit:?}");
}

/// Satellite: the release-build double-free detector is surfaced end to end
/// through the audit report.
#[test]
fn double_free_shows_up_in_the_audit() {
    let t = SlabHash::<KeyValue, SerialHeapSim>::with_allocator(
        SlabHashConfig::with_buckets(1),
        SerialHeapSim::new(8, EMPTY_KEY),
    );
    let mut w = WarpDriver::new(&t);
    for k in 0..40 {
        w.replace(k, k); // 15 base + 25 chained => 2 chained slabs
    }
    assert_eq!(t.audit().unwrap().double_frees, 0);

    // A hostile (or buggy) caller frees a pointer the allocator never
    // handed out; the allocator refuses it and the audit reports it.
    let mut ctx = WarpCtx::for_test(0);
    t.allocator().deallocate(7_777, &mut ctx);
    t.allocator().deallocate(7_777, &mut ctx);
    let audit = t.audit().unwrap();
    assert_eq!(audit.double_frees, 2);
    assert!(audit.no_leaks(), "refused frees must not skew accounting");
}

/// `SlabAlloc::free_slabs` reads the `outstanding` gauge instead of
/// popcounting the bitmaps; after churn and a compacting `maintain` (which
/// frees whole chains) it must still equal the bitmap scan exactly.
#[test]
fn free_slab_gauge_matches_the_bitmap_scan_after_churn_and_maintain() {
    let t = SlabHash::<KeyValue, _>::with_allocator(
        SlabHashConfig::with_buckets(8),
        SlabAlloc::new(SlabAllocConfig::small(2, 4)),
    );
    let grid = Grid::new(4);
    let check = |when: &str| {
        let alloc = t.allocator();
        assert_eq!(
            alloc.free_slabs(),
            alloc.capacity_slabs() - alloc.allocated_slabs(),
            "free-slab gauge drifted from the bitmap {when}"
        );
    };
    for round in 0..8u32 {
        let base = round * 4_000;
        let writes = (0..4_000).map(|k| Request::replace(base + k, k));
        let deletes = (0..3_000).map(|k| Request::delete(base + k));
        for mut batch in [writes.collect::<Vec<_>>(), deletes.collect()] {
            t.execute_batch(&mut batch, &grid);
            assert!(batch
                .iter()
                .all(|r| !matches!(r.result, OpResult::Failed(_))));
        }
        check("after churn");
        t.maintain(&grid);
        check("after maintain");
    }
    assert!(t.audit().unwrap().no_leaks());
}

/// A compacting pass reports its tallies through the launch's merged
/// counters: `slabs_released` is exactly the allocator's drop,
/// `elements_kept` exactly the live count, and the counters the report
/// carries do not depend on how many executors ran the pass.
#[test]
fn flush_report_is_exact_and_schedule_independent() {
    // Built on one executor, so both copies hold the same slabs.
    let churned = || {
        let t = SlabHash::<KeyValue, _>::with_allocator(
            SlabHashConfig::with_buckets(64),
            SlabAlloc::new(SlabAllocConfig::small(2, 4)),
        );
        let grid = Grid::sequential();
        for round in 0..4u32 {
            let base = round * 3_000;
            let mut writes: Vec<Request> =
                (0..3_000).map(|k| Request::replace(base + k, k)).collect();
            t.execute_batch(&mut writes, &grid);
            let mut deletes: Vec<Request> = (0..3_000)
                .filter(|k| k % 3 != 0)
                .map(|k| Request::delete(base + k))
                .collect();
            t.execute_batch(&mut deletes, &grid);
        }
        t
    };
    let (parallel, sequential) = (churned(), churned());

    let before = parallel.allocator().allocated_slabs();
    let report = parallel
        .maintain(&Grid::new(2))
        .flushed
        .expect("no op in flight");
    let released = before - parallel.allocator().allocated_slabs();
    assert!(released > 0, "the churn left no surplus slab");
    assert_eq!(report.slabs_released, released);
    assert_eq!(report.elements_kept, parallel.len() as u64);
    assert_eq!(report.elements_kept, 4_000);
    assert!(parallel.audit().unwrap().no_leaks());

    let reference = sequential
        .maintain(&Grid::sequential())
        .flushed
        .expect("no op in flight");
    assert_eq!(report.counters, reference.counters);
    assert_eq!(report, reference);
}

/// Satellite: the per-table retry budget is a builder option; a tiny budget
/// surfaces `RetryBudgetExhausted { budget }` with the configured value.
#[test]
fn retry_budget_is_a_per_table_builder_option() {
    let _l = CHAOS_LOCK.lock();
    let t = SlabHash::<KeyValue>::new(SlabHashConfig::with_buckets(4).with_retry_budget(2));
    assert_eq!(t.retry_budget(), 2);

    let _g = ChaosGuard::plan(FaultPlan::seeded(0xB0D9).with_cas_failures(1.0));
    let mut w = WarpDriver::new(&t);
    let err = w
        .checked_replace(1, 1)
        .expect_err("every CAS injected-lost: a budget of 2 cannot succeed");
    assert_eq!(err, TableError::RetryBudgetExhausted { budget: 2 });
}

/// Satellite: allocator growth + watermark gauges drive themselves — when
/// the free-unit gauge sinks below the watermark the allocator activates a
/// reserve super block before traffic ever sees `OutOfSlabs`.
#[test]
fn watermark_growth_keeps_traffic_ahead_of_exhaustion() {
    let alloc = SlabAlloc::new(SlabAllocConfig {
        super_blocks: 4,
        initial_active: 1,
        blocks_per_super: 1,
        fill: EMPTY_KEY,
        low_free_watermark: 256,
        ..SlabAllocConfig::default()
    });
    let t = SlabHash::<KeyValue, _>::with_allocator(
        SlabHashConfig {
            seed: 0x9807,
            ..SlabHashConfig::with_buckets(64)
        },
        alloc,
    );
    let grid = Grid::sequential();
    // ~2750 chained slabs demanded; one active super block holds 1024.
    let pairs: Vec<(u32, u32)> = (0..42_000).map(|k| (k, k)).collect();
    t.try_bulk_build(&pairs, &grid)
        .expect("watermark growth must stay ahead of demand");
    assert!(
        t.allocator().active_super_blocks() > 1,
        "the gauge never tripped growth"
    );
    assert!(t.allocator().low_free_breaches() > 0);
    let gauges = t.allocator().pressure_gauges();
    assert!(
        gauges.iter().any(|g| g.name.contains("free_headroom")),
        "free-headroom gauge missing: {gauges:?}"
    );
    let audit = t.audit().unwrap();
    assert_eq!(audit.live_elements, 42_000);
    assert!(audit.no_leaks());
}
