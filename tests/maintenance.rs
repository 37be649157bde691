//! End-to-end tests of the self-healing maintenance loop: a churning table
//! on an undersized allocator survives indefinitely because compaction
//! (the quiescent rewrite, or the incremental pass + epoch reclamation) +
//! allocator growth keep returning dead slabs; both compaction paths race
//! live traffic without hiding a single live key; and every failure
//! injected into the flusher leaves the table auditable.
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
/// policy itself gives up (which the soak treats as a lost table). Returns
/// how many recovery rounds the insert needed.
fn insert_healing<A: SlabAllocator>(
    t: &SlabHash<KeyValue, A>,
    w: &mut WarpDriver<'_, KeyValue, A>,
    grid: &Grid,
    key: u32,
    value: u32,
) -> u32 {
    let policy = MaintenancePolicy::block();
    let mut round = 0;
    loop {
        match w.checked_replace(key, value) {
            Ok(_) => return round,
            Err(e) => {
                assert!(
                    t.recover(e, &policy, grid, round),
                    "unrecoverable pressure at key {key} after {round} rounds: {e}"
                );
                round += 1;
            }
        }
    }
}

type SoakTable = SlabHash<KeyValue, SerialHeapSim>;

/// ≥100 insert → delete → `compact` cycles on an allocator an order of
/// magnitude too small for the cumulative churn. Without compaction the
/// heap would exhaust within three cycles; with it the table runs
/// unattended, a pinned resident set survives every cycle, and the final
/// audit balances to the slab. Returns the recovery rounds the inserts
/// needed.
fn churn_soak(compact: impl Fn(&SoakTable, &Grid, u32)) -> u32 {
    // 4 buckets over a 32-slab serialized heap (no growth possible).
    // Each cycle chains ~12 slabs; 120 cycles demand ~1400 slab
    // allocations — the heap holds 32, so survival proves reclamation.
    let t = SoakTable::with_allocator(
        SlabHashConfig {
            seed: 0x50AC,
            ..SlabHashConfig::with_buckets(4)
        },
        SerialHeapSim::new(32, EMPTY_KEY),
    );
    let grid = Grid::sequential();
    let mut w = WarpDriver::new(&t);
    let mut heals = 0;

    // A pinned resident set that must survive the entire soak.
    let pinned: Vec<u32> = (0..30).map(|i| 1_000_000 + i * 7).collect();
    for &k in &pinned {
        heals += insert_healing(&t, &mut w, &grid, k, k ^ 0xA5A5);
    }

    let mut peak_slabs = 0u64;
    for cycle in 0..120u32 {
        let base = cycle * 1_000;
        for k in 0..200 {
            heals += insert_healing(&t, &mut w, &grid, base + k, base + k + 1);
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
        compact(&t, &grid, cycle);
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
    compact(&t, &grid, 120);
    let audit = t.audit().expect("soaked table must audit");
    assert_eq!(audit.live_elements, pinned.len() as u64);
    assert_eq!(audit.frozen_lanes, 0, "a frozen lane leaked past unfreeze");
    assert_eq!(audit.retired_slabs, 0, "a retired slab was never reclaimed");
    assert_eq!(audit.double_frees, 0);
    assert!(audit.no_leaks(), "slab accounting imbalance: {audit:?}");
    heals
}

/// Tentpole acceptance: the soak healed by `maintain`, which runs the
/// compacting rewrite because no operation is in flight between cycles.
#[test]
fn churn_soak_on_undersized_allocator() {
    churn_soak(|t, grid, cycle| {
        let report = t.maintain(grid);
        assert!(
            report.flushed.is_some(),
            "cycle {cycle}: single-threaded maintain cannot find the flush lock held"
        );
    });
}

/// The same soak healed only by the incremental pass: `try_flush` retires
/// fully dead slabs and `reclaim_retired` returns them once the epoch
/// horizon passes, so the concurrent protocol alone keeps memory bounded.
/// No insert ever needs `recover`, whose `maintain` would compact instead.
#[test]
fn churn_soak_on_undersized_allocator_with_incremental_compaction() {
    let retired = AtomicU64::new(0);
    let reclaimed = AtomicU64::new(0);
    let heals = churn_soak(|t, grid, cycle| {
        let report = t.try_flush(grid).expect("one flusher and no fault plan");
        retired.fetch_add(report.slabs_released, Ordering::Relaxed);
        reclaimed.fetch_add(t.reclaim_retired(), Ordering::Relaxed);
        assert_eq!(t.retired_slab_count(), 0, "cycle {cycle}: no pin held");
    });
    assert_eq!(heals, 0, "an insert needed maintain's rewrite to survive");
    let retired = retired.into_inner();
    assert!(retired > 0);
    assert_eq!(reclaimed.into_inner(), retired);
}

/// Acceptance: the incremental pass races live inserts and searches and
/// never hides a live key — the freeze → unlink → epoch-retire protocol
/// keeps unlinked slabs readable until every in-flight operation drains.
/// The flusher calls `try_flush` directly, because `maintain` would take
/// the exclusive rewrite whenever it caught the searchers between ops.
#[test]
fn concurrent_compaction_races_live_traffic() {
    // Each writer round appends a block that dies, then a block that
    // lives, so every round buries whole dead slabs between live ones.
    const ROUNDS: u32 = 40;
    let dead_block = |r: u32| 100_000 + r * 1_000..100_000 + r * 1_000 + 600;
    let live_block = |r: u32| 500_000 + r * 1_000..500_000 + r * 1_000 + 120;
    let t = SlabHash::<KeyValue>::new(SlabHashConfig {
        seed: 0xF1A5,
        ..SlabHashConfig::with_buckets(8)
    });
    // Keys are inserted in order, so each bucket's chain holds them in
    // order: the middle half dies, leaving whole chained slabs dead
    // between live ones before the race starts.
    let seeded = |k: u32| !(500..1_500).contains(&k);
    {
        let mut w = WarpDriver::new(&t);
        for k in 0..2_000 {
            w.replace(k, k + 1);
        }
        for k in 500..1_500 {
            w.delete(k);
        }
    }

    let stop = AtomicBool::new(false);
    let rounds_done = AtomicU64::new(0);
    let start = std::sync::Barrier::new(4);
    let (retired, reclaimed) = std::thread::scope(|scope| {
        // Maintenance thread: continuous incremental compact + reclaim
        // passes, each unlinking the slabs the writer killed since the
        // last one while the readers walk past them.
        let flusher = scope.spawn(|| {
            let grid = Grid::sequential();
            let (mut retired, mut reclaimed) = (0u64, 0u64);
            start.wait();
            while !stop.load(Ordering::Acquire) {
                let report = t.try_flush(&grid).expect("one flusher and no fault plan");
                retired += report.slabs_released;
                reclaimed += t.reclaim_retired();
            }
            (retired, reclaimed)
        });
        // Reader threads: every live key, seeded or written by a finished
        // round, must stay visible through every phase of the unlink.
        let readers: Vec<_> = (0..2)
            .map(|tid| {
                let (t, start, rounds_done) = (&t, &start, &rounds_done);
                scope.spawn(move || {
                    let mut w = WarpDriver::with_warp_id(t, tid + 1);
                    start.wait();
                    // At least 60 passes, and on until the writer is done.
                    for pass in 0.. {
                        let rounds = rounds_done.load(Ordering::Acquire) as u32;
                        if pass >= 60 && rounds == ROUNDS {
                            break;
                        }
                        let keys = (0..2_000).filter(|&k| seeded(k));
                        for k in keys.chain((0..rounds).flat_map(live_block)) {
                            assert_eq!(
                                w.search(k),
                                Some(k + 1),
                                "pass {pass}: live key {k} hidden by racing compaction"
                            );
                        }
                    }
                })
            })
            .collect();
        // Writer thread: keeps allocating slabs (reusing the ones the
        // flusher frees) and killing whole slabs while the flusher runs.
        let writer = scope.spawn(|| {
            let mut w = WarpDriver::with_warp_id(&t, 9);
            start.wait();
            for r in 0..ROUNDS {
                for k in dead_block(r).chain(live_block(r)) {
                    w.replace(k, k + 1);
                }
                for k in dead_block(r) {
                    w.delete(k);
                }
                rounds_done.store(u64::from(r + 1), Ordering::Release);
            }
        });
        let traffic: Vec<_> = readers.into_iter().chain([writer]).map(|h| h.join()).collect();
        stop.store(true, Ordering::Release);
        let flushed = flusher.join();
        for outcome in traffic {
            if let Err(panic) = outcome {
                std::panic::resume_unwind(panic);
            }
        }
        flushed.unwrap()
    });
    assert!(retired > 0, "the fixture left no dead slab to retire");
    assert!(reclaimed <= retired);

    // Post-race: no pin is held, so the horizon frees every retirement.
    t.try_flush(&Grid::sequential()).unwrap();
    t.reclaim_retired();
    let mut w = WarpDriver::new(&t);
    for k in 0..2_000 {
        let expect = seeded(k).then_some(k + 1);
        assert_eq!(w.search(k), expect, "seeded key {k}");
    }
    for r in 0..ROUNDS {
        for k in live_block(r) {
            assert_eq!(w.search(k), Some(k + 1), "round {r}: live key {k} lost");
        }
        for k in dead_block(r) {
            assert_eq!(w.search(k), None, "round {r}: dead key {k} back");
        }
    }
    let audit = t.audit().unwrap();
    assert_eq!(audit.frozen_lanes, 0);
    assert_eq!(audit.retired_slabs, 0);
    assert!(audit.no_leaks(), "race leaked a slab: {audit:?}");
}

/// The quiescence gate: `maintain` rewrites chains in place only while no
/// operation holds an epoch pin, so searchers racing a maintain loop over
/// long, partly dead chains never miss a live key. A churning
/// `execute_buffer` shares the maintainer's `Grid`: while a pass holds the
/// window its pool warps block in `pin()`, so the pass's own launch must
/// fall back to scoped spawning rather than wait for the pool. A watchdog
/// turns that deadlock into a failure.
#[test]
fn quiescent_compaction_races_searchers_on_a_shared_grid() {
    // A trial's first pass decides most of its chance to expose a broken
    // gate, so the race runs on several fresh tables.
    let (done, finished) = mpsc::channel();
    let race = std::thread::spawn(move || {
        for seed in 0x0C0A..0x0C0E {
            compaction_race_trial(seed);
        }
        done.send(()).unwrap();
    });
    if finished.recv_timeout(Duration::from_secs(120)).is_err() && !race.is_finished() {
        panic!("maintain deadlocked against pool warps blocked in pin()");
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
    let passes = AtomicU64::new(0);
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
                t.maintain(&grid);
                passes.fetch_add(1, Ordering::Relaxed);
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
        // Searchers: SEARCH batches of the even keys on private
        // sequential grids. Each warp holds its pin across 32 chain
        // walks, so a pass that ignored the pin would move keys under it.
        let searchers: Vec<_> = (0..2)
            .map(|_| {
                let (t, passes, stop, churning) = (&t, &passes, &stop, &churning);
                let searching = &searching;
                scope.spawn(move || {
                    let keys: Vec<u32> = (0..4 * QUARTER).step_by(2).collect();
                    let seq = Grid::sequential();
                    searching.fetch_add(1, Ordering::Release);
                    // At least 2 sweeps, and on until the churn is done
                    // and 128 maintain passes have raced them.
                    for sweep in 0.. {
                        let raced = sweep >= 2
                            && !churning.load(Ordering::Acquire)
                            && passes.load(Ordering::Relaxed) >= 128;
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
    t.maintain(&grid);
    let audit = t.audit().unwrap();
    assert_eq!(audit.live_elements, u64::from(3 * QUARTER));
    assert_eq!(audit.tombstones, 0);
    assert_eq!(audit.frozen_lanes, 0);
    assert_eq!(audit.retired_slabs, 0);
    assert!(audit.no_leaks(), "race leaked a slab: {audit:?}");
}

/// Satellite: a fault plan makes `try_flush` fail mid-retire; the error is
/// structured, the undo path restores every frozen lane, and a clean retry
/// finishes the job.
#[test]
fn try_flush_under_faults_fails_clean_and_retries() {
    let _l = CHAOS_LOCK.lock();
    let t = SlabHash::<KeyValue>::new(
        SlabHashConfig {
            seed: 0xFA11,
            ..SlabHashConfig::with_buckets(2)
        }
        .with_retry_budget(8),
    );
    let grid = Grid::sequential();
    let mut w = WarpDriver::new(&t);
    for k in 0..300 {
        w.replace(k, k);
    }
    for k in 0..300 {
        w.delete(k);
    }

    let chaos = ChaosGuard::plan(FaultPlan::seeded(0xDEAD).with_cas_failures(1.0));
    let err = t
        .try_flush(&grid)
        .expect_err("every freeze CAS is injected-lost; the budget must burn");
    assert_eq!(err, TableError::RetryBudgetExhausted { budget: 8 });
    drop(chaos);

    // The failed pass left no frozen lanes and no half-unlinked slabs.
    let audit = t.audit().unwrap();
    assert_eq!(audit.frozen_lanes, 0, "failed flush leaked frozen lanes");
    assert!(audit.no_leaks(), "failed flush leaked slabs: {audit:?}");

    // A clean pass succeeds and the chains actually shrink.
    let report = t.try_flush(&grid).expect("clean retry");
    assert!(report.slabs_released > 0, "retry released nothing");
    t.maintain(&grid);
    let audit = t.audit().unwrap();
    assert_eq!(audit.live_elements, 0);
    assert!(audit.no_leaks());
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
        let mut reqs: Vec<Request> =
            (0..500).map(|k| Request::replace(base + k, k)).collect();
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
        let mut dels: Vec<Request> =
            keys.iter().map(|&k| Request::delete(k)).collect();
        t.execute_batch(&mut dels, &grid);
        t.maintain(&seq);
    }
    let audit = t.audit().unwrap();
    assert_eq!(audit.frozen_lanes, 0);
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
