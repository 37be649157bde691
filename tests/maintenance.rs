//! End-to-end tests of the self-healing maintenance loop: a churning table
//! on an undersized allocator survives indefinitely because concurrent
//! compaction + epoch reclamation + allocator growth keep returning dead
//! slabs; compaction races live traffic without hiding a single live key;
//! and every failure injected into the flusher leaves the table auditable.
//!
//! Tests that activate a fault plan serialize behind a mutex: the plan
//! epoch is process-global, so a concurrent guard would reseed this
//! thread's decision stream mid-run and break reproducibility.

use simt::{ChaosGuard, FaultPlan, Grid, WarpCtx};
use slab_alloc::{SerialHeapSim, SlabAlloc, SlabAllocConfig, SlabAllocator};
use slab_hash::{
    KeyValue, MaintenancePolicy, OpResult, Request, SlabHash, SlabHashConfig, TableError,
    WarpDriver, EMPTY_KEY,
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
                    t.recover(e, &policy, grid, round),
                    "unrecoverable pressure at key {key} after {round} rounds: {e}"
                );
                round += 1;
            }
        }
    }
}

/// Tentpole acceptance: ≥100 insert → delete → maintain cycles on an
/// allocator an order of magnitude too small for the cumulative churn.
/// Without compaction + reclamation the heap would exhaust within three
/// cycles; with them the table runs unattended, a pinned resident set
/// survives every cycle, and the final audit balances to the slab.
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
        let report = t.maintain(&grid);
        // Deleting 200 keys tombstones whole chained slabs; maintenance
        // must actually turn them back into allocator capacity.
        assert!(
            report.flushed.is_some(),
            "cycle {cycle}: single-threaded maintain cannot find the flush lock held"
        );
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
    t.maintain(&grid);
    let audit = t.audit().expect("soaked table must audit");
    assert_eq!(audit.live_elements, pinned.len() as u64);
    assert_eq!(audit.frozen_lanes, 0, "a frozen lane leaked past unfreeze");
    assert_eq!(audit.double_frees, 0);
    assert!(audit.no_leaks(), "slab accounting imbalance: {audit:?}");
}

/// Acceptance: concurrent compaction races live inserts and searches and
/// never hides a live key — the freeze → unlink → epoch-retire protocol
/// keeps unlinked slabs readable until every in-flight operation drains.
#[test]
fn concurrent_compaction_races_live_traffic() {
    let t = std::sync::Arc::new(SlabHash::<KeyValue>::new(SlabHashConfig {
        seed: 0xF1A5,
        ..SlabHashConfig::with_buckets(8)
    }));
    let grid = Grid::sequential();

    // Seed: evens die (tombstone fodder for the flusher), odds live.
    {
        let mut w = WarpDriver::new(&t);
        for k in 0..2_000 {
            w.replace(k, k + 1);
        }
        for k in (0..2_000).step_by(2) {
            w.delete(k);
        }
    }

    let stop = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|scope| {
        // Maintenance thread: continuous compact + reclaim passes.
        let flusher = {
            let t = &t;
            let stop = &stop;
            scope.spawn(move || {
                let grid = Grid::sequential();
                let mut released = 0u64;
                while !stop.load(std::sync::atomic::Ordering::Acquire) {
                    let report = t.maintain(&grid);
                    released += report.flushed.map_or(0, |f| f.slabs_released);
                }
                released
            })
        };
        // Reader threads: every odd key must stay visible through every
        // phase of the concurrent unlink.
        for tid in 0..2 {
            let t = &t;
            scope.spawn(move || {
                let mut w = WarpDriver::with_warp_id(t, tid + 1);
                for pass in 0..60 {
                    for k in (1..2_000).step_by(2) {
                        assert_eq!(
                            w.search(k),
                            Some(k + 1),
                            "pass {pass}: live key {k} hidden by racing compaction"
                        );
                    }
                }
            });
        }
        // Writer thread: fresh inserts (and deletes) keep allocating and
        // tombstoning while the flusher runs.
        {
            let t = &t;
            scope.spawn(move || {
                let mut w = WarpDriver::with_warp_id(t, 9);
                for k in 10_000..12_000 {
                    w.replace(k, k);
                    if k % 3 == 0 {
                        w.delete(k);
                    }
                }
            });
        }
        // Let the traffic threads finish, then stop the flusher.
        // (scope join order: spawned handles joined at scope end; signal
        // stop from the main thread once readers/writer are done.)
        // The readers/writer handles are joined implicitly; we only need
        // the flusher to observe `stop` after they complete — so park this
        // thread on the reader workloads by re-running one pass ourselves.
        let mut w = WarpDriver::with_warp_id(&t, 31);
        for k in (1..2_000).step_by(2) {
            assert_eq!(w.search(k), Some(k + 1));
        }
        stop.store(true, std::sync::atomic::Ordering::Release);
        let _released = flusher.join().unwrap();
    });

    // Post-race: drain retirements and verify the full live set.
    t.maintain(&grid);
    let mut w = WarpDriver::new(&t);
    for k in (1..2_000).step_by(2) {
        assert_eq!(w.search(k), Some(k + 1), "live key {k} lost after race");
    }
    for k in 10_000..12_000 {
        let expect = if k % 3 == 0 { None } else { Some(k) };
        assert_eq!(w.search(k), expect, "writer key {k}");
    }
    let audit = t.audit().unwrap();
    assert_eq!(audit.frozen_lanes, 0);
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
                    insert_healing(&t, &mut w, &seq, r.key, r.key.wrapping_sub(base))
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
