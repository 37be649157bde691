//! Launch-path semantics and schedule independence.
//!
//! A grid launch runs on the persistent executor pool, or — when the pool
//! is busy (a launch from inside a kernel, or concurrent launches on a
//! shared grid) — on scoped threads spawned for that launch. Both routes
//! must be observably identical: same panic containment, same per-launch
//! chaos enrollment (inherited for the launch, shed afterwards — workers
//! outlive launches), same per-launch telemetry binding, same merged
//! counter and histogram totals. And running a batch on many executors
//! must be a pure scheduling change against the one-thread grid: identical
//! table state, identical per-request results in the caller's order.

use std::sync::atomic::{AtomicUsize, Ordering};

use simt::telemetry::{EventKind, TraceConfig, TraceSession};
use simt::{ChaosGuard, FaultPlan, Grid, LaunchError, LaunchReport, WarpCtx};
use slab_hash::{BatchBuffer, KeyValue, OpResult, Request, SlabHash, SlabHashConfig};

/// SplitMix64, for distinct well-spread test keys without the bench crate.
fn mixed_key(i: u64) -> u32 {
    let mut z = i.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    ((z ^ (z >> 31)) % (u32::MAX as u64 - 2)) as u32 + 1
}

/// Runs `f` from inside a two-warp kernel on `grid`: the outer launch holds
/// the grid's pool, so every launch `f` makes on `grid` takes the scoped
/// fallback. Asserts that only the outer launch went through the pool.
fn on_busy_pool<R: Send>(grid: &Grid, f: impl Fn() -> R + Sync) -> R {
    grid.launch_warps(2, |_| {}); // start the pool
    let pooled_before = grid.pool_stats().expect("pool started").launches;
    let out = parking_lot::Mutex::new(None);
    grid.launch_warps(2, |ctx| {
        if ctx.warp_id == 0 {
            *out.lock() = Some(f());
        }
    });
    let pooled_after = grid.pool_stats().expect("pool started").launches;
    assert_eq!(
        pooled_after,
        pooled_before + 1,
        "nested launches must not use the pool"
    );
    out.into_inner().expect("warp 0 ran")
}

#[test]
fn pooled_and_scoped_contain_panics_identically() {
    let contained = |grid: &Grid| {
        let mut items = vec![0u32; 40 * 32];
        let err = grid
            .try_launch(&mut items, |ctx, chunk| {
                if ctx.warp_id == 7 {
                    panic!("lane fault in warp 7");
                }
                for item in chunk.iter_mut() {
                    *item = 1;
                }
            })
            .expect_err("warp 7 must fail the launch");
        assert_eq!(err.warp_id, 7);
        assert_eq!(err.message(), Some("lane fault in warp 7"));
        assert!(err.completed_warps < 40, "poison must stop queued warps");
        // The grid is alive and reusable after containment.
        let report = grid.try_launch(&mut items, |_, _| {}).unwrap();
        assert_eq!(report.warps, 40);
    };
    let grid = Grid::new(4);
    contained(&grid); // pooled
    on_busy_pool(&grid, || contained(&grid)); // scoped fallback
}

/// Starts one launch of `warps` warps running `kernel`, through
/// `try_launch_warps` or, when `chunked`, through `try_launch` over one
/// zero-sized item per lane.
fn try_launch_either(
    grid: &Grid,
    chunked: bool,
    warps: usize,
    kernel: &(dyn Fn(&mut WarpCtx) + Sync),
) -> Result<LaunchReport, LaunchError> {
    if chunked {
        grid.try_launch(&mut vec![(); warps * 32], |ctx, _| kernel(ctx))
    } else {
        grid.try_launch_warps(warps, kernel)
    }
}

/// A warp that panics in the middle of a claimed run poisons the launch:
/// its executor starts no other warp, neither the rest of its run nor a
/// warp of a later claim; `completed_warps` counts exactly the warps that
/// finished; and the pooled and scoped routes report the same failure.
#[test]
fn a_mid_run_panic_stops_its_run_and_later_claims() {
    const WARPS: usize = 100_003;
    for threads in [2, 3] {
        // Claims take runs of `run` warps; the fault sits in the middle of
        // the third run.
        let run = WARPS / (threads * simt::grid::CLAIMS_PER_EXECUTOR);
        let fault = 2 * run + run / 2;
        let contained = |grid: &Grid, chunked: bool| {
            let next_start = AtomicUsize::new(0);
            let finished = AtomicUsize::new(0);
            let starts = parking_lot::Mutex::new(Vec::with_capacity(WARPS));
            let err = try_launch_either(grid, chunked, WARPS, &|ctx| {
                let order = next_start.fetch_add(1, Ordering::SeqCst);
                starts
                    .lock()
                    .push((order, ctx.warp_id, std::thread::current().id()));
                if ctx.warp_id == fault {
                    panic!("warp {fault} down");
                }
                finished.fetch_add(1, Ordering::SeqCst);
            })
            .expect_err("the fault must fail the launch");
            assert_eq!(err.warp_id, fault);
            assert_eq!(
                err.completed_warps,
                finished.load(Ordering::SeqCst),
                "completed_warps must count exactly the warps that finished"
            );
            let starts = starts.into_inner();
            let mut ids: Vec<usize> = starts.iter().map(|&(_, id, _)| id).collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), starts.len(), "a warp started twice");
            let (fault_order, _, fault_thread) = *starts
                .iter()
                .find(|&&(_, id, _)| id == fault)
                .expect("the faulting warp started");
            let later: Vec<usize> = starts
                .iter()
                .filter(|&&(order, _, thread)| thread == fault_thread && order > fault_order)
                .map(|&(_, id, _)| id)
                .collect();
            assert!(
                later.is_empty(),
                "the faulting executor started warps {later:?} after the panic"
            );
            let run_tail = fault + 1..(fault / run + 1) * run;
            assert!(
                !ids.iter().any(|id| run_tail.contains(id)),
                "a warp of the faulting run started after the panic"
            );
            (err.warp_id, err.message().map(str::to_owned))
        };
        let grid = Grid::new(threads);
        for chunked in [false, true] {
            let pooled = contained(&grid, chunked);
            let scoped = on_busy_pool(&grid, || contained(&grid, chunked));
            assert_eq!(pooled, scoped, "{threads} threads, chunked: {chunked}");
        }
    }
}

#[test]
fn pool_survives_dead_workers_without_hanging_launches() {
    // A pool worker dying must not poison the pool or strand the completion
    // barrier: launches keep completing on the survivors (launcher-only in
    // the limit), and panic containment still works afterwards.
    let grid = Grid::new(4);
    let mut items = vec![0u32; 16 * 32];
    grid.launch(&mut items, |_, _| {}); // warm the pool
    assert_eq!(grid.debug_kill_pool_workers(2), 1);
    let report = grid
        .try_launch(&mut items, |_, chunk| {
            for v in chunk.iter_mut() {
                *v += 1;
            }
        })
        .expect("launch must complete on surviving workers");
    assert_eq!(report.warps, 16);
    assert!(items.iter().all(|&v| v == 1));
    // Kernel panics are still contained, and the grid stays reusable.
    let err = grid
        .try_launch(&mut items, |ctx, _| {
            if ctx.warp_id == 3 {
                panic!("lane fault after worker death");
            }
        })
        .expect_err("warp 3 must fail the launch");
    assert_eq!(err.warp_id, 3);
    // Every worker dead: the launching thread alone drains the grid.
    assert_eq!(grid.debug_kill_pool_workers(8), 0);
    let report = grid
        .try_launch(&mut items, |_, chunk| {
            for v in chunk.iter_mut() {
                *v += 1;
            }
        })
        .expect("launcher-only execution must still complete");
    assert_eq!(report.warps, 16);
    assert!(items.iter().all(|&v| v == 2));
}

#[test]
fn pool_inherits_chaos_enrollment_per_launch_and_sheds_it() {
    let grid = Grid::new(4);
    // Counts warps whose executor thread participates in fault injection.
    let enrolled_warps = |grid: &Grid| {
        grid.launch_warps(64, |ctx| {
            if simt::chaos::thread_participates() {
                ctx.counters.ops += 1;
            }
        })
        .counters
        .ops
    };
    // Warm the pool outside any chaos scope.
    assert_eq!(enrolled_warps(&grid), 0);
    {
        let _chaos = ChaosGuard::plan(FaultPlan::seeded(0xC0DE).with_cas_failures(0.5));
        // The same persistent workers must now see the launching thread's
        // enrollment, for every warp of the launch.
        assert_eq!(enrolled_warps(&grid), 64);
    }
    // Guard dropped: workers are persistent, the enrollment must not be.
    assert_eq!(enrolled_warps(&grid), 0);
}

#[test]
fn pool_binds_telemetry_sessions_per_launch() {
    let grid = Grid::new(4);
    let mut items = vec![0u32; 64 * 32];
    let warp_begins = |trace: &simt::telemetry::Trace| {
        trace
            .events()
            .iter()
            .filter(|e| matches!(e.kind, EventKind::WarpBegin))
            .count()
    };
    let trace_a = {
        let session = TraceSession::begin(TraceConfig::default());
        grid.launch(&mut items, |ctx, chunk| {
            ctx.counters.ops += chunk.len() as u64;
        });
        session.finish()
    };
    // A launch with no active session on the same (already warmed) pool
    // must record nowhere.
    grid.launch(&mut items, |_, _| {});
    // A second session sees only its own launch, not the pool's history.
    let trace_b = {
        let session = TraceSession::begin(TraceConfig::default());
        grid.launch(&mut items[..16 * 32], |_, _| {});
        session.finish()
    };
    assert_eq!(warp_begins(&trace_a), 64);
    assert_eq!(warp_begins(&trace_b), 16);
}

#[test]
fn pooled_and_scoped_merge_identical_totals() {
    // Read-only searches are deterministic regardless of schedule, so the
    // merged counters and histograms must agree exactly between the pooled
    // launch, the scoped fallback and the one-thread grid. The table is
    // built on the one-thread grid so all three search the same layout.
    let n = 20_000usize;
    let pairs: Vec<(u32, u32)> = (0..n as u64).map(|i| (mixed_key(i), i as u32)).collect();
    let keys: Vec<u32> = pairs.iter().map(|p| p.0).collect();
    let t = SlabHash::<KeyValue>::for_expected_elements(n, 0.75, 42);
    t.bulk_build(&pairs, &Grid::sequential());
    let search = |grid: &Grid| {
        let (hits, report) = t.bulk_search(&keys, grid);
        assert!(hits.iter().all(|h| h.is_some()));
        report
    };
    let grid = Grid::new(6);
    let reports: [LaunchReport; 3] = [
        search(&grid),
        on_busy_pool(&grid, || search(&grid)),
        search(&Grid::sequential()),
    ];
    for other in &reports[1..] {
        let (a, b) = (&reports[0], other);
        assert_eq!(a.counters, b.counters);
        assert_eq!(a.warps, b.warps);
        for (x, y) in [
            (&a.histograms.chain_slabs, &b.histograms.chain_slabs),
            (&a.histograms.rounds_per_op, &b.histograms.rounds_per_op),
            (&a.histograms.retries_per_op, &b.histograms.retries_per_op),
        ] {
            assert_eq!(x.count(), y.count());
            assert_eq!(x.sum(), y.sum());
        }
    }
}

/// Builds a mixed batch whose per-request outcomes are schedule-independent:
/// inserts of fresh distinct keys, deletes of distinct built keys, searches
/// of untouched built keys and of never-inserted keys.
fn deterministic_batch(built: &[u32], fresh_base: u64) -> Vec<Request> {
    let third = built.len() / 3;
    let mut batch = Vec::new();
    for i in 0..third as u64 {
        batch.push(Request::replace(mixed_key(fresh_base + i), i as u32));
    }
    for &k in &built[..third] {
        batch.push(Request::delete(k));
    }
    for &k in &built[third..2 * third] {
        batch.push(Request::search(k));
    }
    for i in 0..third as u64 {
        batch.push(Request::search(mixed_key(fresh_base + 1_000_000 + i)));
    }
    batch
}

/// A table with `buckets` buckets and hash seed `seed`.
fn seeded_table(buckets: u32, seed: u64) -> SlabHash<KeyValue> {
    SlabHash::new(SlabHashConfig {
        seed,
        ..SlabHashConfig::with_buckets(buckets)
    })
}

/// Builds `pairs` and runs `batch` on two identically seeded tables, one
/// on `Grid::sequential()` and one on four executors; asserts identical
/// per-request results in the caller's order and identical final state.
/// Returns the four-executor table.
fn assert_schedule_independent(
    (buckets, seed): (u32, u64),
    pairs: &[(u32, u32)],
    batch: &[Request],
    what: &str,
) -> SlabHash<KeyValue> {
    let run = |grid: Grid| {
        let t = seeded_table(buckets, seed);
        let mut b = batch.to_vec();
        t.bulk_build(pairs, &grid);
        t.execute_batch(&mut b, &grid);
        (t, b)
    };
    let (t1, b1) = run(Grid::sequential());
    let (t2, b2) = run(Grid::new(4));
    for (i, (r1, r2)) in b1.iter().zip(&b2).enumerate() {
        assert_eq!(r1.key, r2.key, "{what}, slot {i}: request order changed");
        assert_eq!(r1.result, r2.result, "{what}, slot {i} (key {})", r1.key);
        assert_ne!(r1.result, OpResult::Pending, "{what}, slot {i} never ran");
    }
    let mut e1 = t1.collect_elements();
    let mut e2 = t2.collect_elements();
    e1.sort_unstable();
    e2.sort_unstable();
    assert_eq!(e1, e2, "{what}: table state diverged");
    assert_eq!(t1.len(), t2.len());
    t2
}

#[test]
fn parallel_batches_match_sequential_results_and_state() {
    for seed in [1u64, 2, 3] {
        let n = 3000;
        let built: Vec<u32> = (0..n as u64)
            .map(|i| mixed_key(seed * 10_000_000 + i))
            .collect();
        let pairs: Vec<(u32, u32)> = built.iter().map(|&k| (k, k ^ 7)).collect();
        let batch = deterministic_batch(&built, seed * 77_000_000);
        assert_schedule_independent((256, 0x5EED), &pairs, &batch, &format!("seed {seed}"));
    }
}

#[test]
fn parallel_matches_sequential_under_chaos_yields() {
    // Scheduling chaos (forced yields) perturbs interleavings but not
    // outcomes: the parallel grid must still produce identical replies in
    // the caller's order and the same final table state.
    let _chaos = ChaosGuard::plan(FaultPlan::seeded(0x5A5A).with_yields(0.2));
    let n = 2400;
    let built: Vec<u32> = (0..n as u64).map(|i| mixed_key(44_000_000 + i)).collect();
    let pairs: Vec<(u32, u32)> = built.iter().map(|&k| (k, k ^ 3)).collect();
    let batch = deterministic_batch(&built, 91_000_000);
    let t = assert_schedule_independent((128, 0xFACE), &pairs, &batch, "yield chaos");
    t.audit().expect("table audits clean under chaos");
}

#[test]
fn replies_stay_typed_and_ordered_under_cas_fault_injection() {
    // Injected CAS failures can burn retry budgets, so exact results are
    // not schedule-independent here. The contract that must survive on
    // every grid: every request comes back completed or with a *typed*
    // failure (never Pending), in the caller's order, and the table still
    // audits clean.
    let _chaos = ChaosGuard::plan(FaultPlan::seeded(0xBEEF).with_cas_failures(0.25));
    let n = 1800;
    let built: Vec<u32> = (0..n as u64).map(|i| mixed_key(55_000_000 + i)).collect();
    let pairs: Vec<(u32, u32)> = built.iter().map(|&k| (k, k ^ 9)).collect();
    let submitted = deterministic_batch(&built, 66_000_000);
    for grid in [Grid::sequential(), Grid::new(4)] {
        let t = seeded_table(96, 0xD00D);
        t.bulk_build(&pairs, &grid);
        let mut batch = submitted.clone();
        t.execute_batch(&mut batch, &grid);
        assert_eq!(batch.len(), submitted.len());
        for (i, (sent, got)) in submitted.iter().zip(&batch).enumerate() {
            assert_eq!(sent.key, got.key, "slot {i}: caller order changed");
            assert_eq!(sent.op, got.op, "slot {i}: op changed in flight");
            assert_ne!(got.result, OpResult::Pending, "slot {i} never executed");
        }
        t.audit().expect("table audits clean after faulted batch");
    }
}

#[test]
fn batches_survive_worker_death_between_rounds() {
    // As pool workers die round by round (down to launcher-only), every
    // batch must still complete, correctly, on the survivors.
    let grid = Grid::new(4);
    let n = 1500u32;
    let t = SlabHash::<KeyValue>::for_expected_elements(n as usize, 0.6, 21);
    let mut batch: BatchBuffer = (0..n).map(|k| Request::replace(k, k)).collect();
    t.execute_buffer(&mut batch, &grid);
    for round in 1..5u32 {
        // Kill one more worker each round; by the last rounds the grid is
        // launcher-only.
        grid.debug_kill_pool_workers(1);
        for req in batch.requests_mut() {
            req.value = req.key + round;
        }
        batch.reset_results();
        t.execute_buffer(&mut batch, &grid);
        for req in batch.requests() {
            assert_eq!(
                req.result,
                OpResult::Replaced(req.key + round - 1),
                "round {round}, key {}",
                req.key
            );
        }
    }
    assert_eq!(t.len(), n as usize);
    t.audit()
        .expect("table audits clean after worker-death rounds");
}

#[test]
fn batch_buffer_reuse_loop_is_stable() {
    // The allocation-free loop: one buffer, reset + execution per round,
    // against a table that the rounds keep mutating back and forth
    // (replace flips values).
    let grid = Grid::new(4);
    let n = 2000u32;
    let t = SlabHash::<KeyValue>::for_expected_elements(n as usize, 0.6, 9);
    let mut batch: BatchBuffer = (0..n).map(|k| Request::replace(k, k)).collect();
    t.execute_buffer(&mut batch, &grid);
    for round in 1..4u32 {
        for req in batch.requests_mut() {
            req.value = req.key + round;
        }
        batch.reset_results();
        t.execute_buffer(&mut batch, &grid);
        for req in batch.requests() {
            assert_eq!(
                req.result,
                OpResult::Replaced(req.key + round - 1),
                "round {round}, key {}",
                req.key
            );
        }
    }
    assert_eq!(t.len(), n as usize);
}
