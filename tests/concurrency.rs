//! Concurrency tests: racing warps on shared buckets, with chaos scheduling
//! forcing interleavings inside the read-then-CAS windows (essential on
//! single-core hosts, where OS preemption alone would almost never land
//! there — see `simt::chaos`).
//!
//! Chaos mode is process-global, so these tests serialize behind a mutex.

use std::collections::HashSet;

use simt::{ChaosGuard, Grid};
use slab_hash::{KeyValue, OpResult, Request, SlabHash, SlabHashConfig, WarpDriver};

static CHAOS_LOCK: parking_lot::Mutex<()> = parking_lot::Mutex::new(());

fn chaotic_grid() -> (parking_lot::MutexGuard<'static, ()>, ChaosGuard, Grid) {
    let lock = CHAOS_LOCK.lock();
    let guard = ChaosGuard::new(0.2);
    (lock, guard, Grid::new(8))
}

#[test]
fn racing_replaces_of_one_key_keep_uniqueness() {
    let (_l, _g, grid) = chaotic_grid();
    let table = SlabHash::<KeyValue>::new(SlabHashConfig::with_buckets(1));
    // 512 threads all REPLACE the same key with distinct values.
    let mut reqs: Vec<Request> = (0..512).map(|i| Request::replace(42, i)).collect();
    table.execute_batch(&mut reqs, &grid);

    // Exactly one thread inserted; everyone else replaced.
    let inserted = reqs
        .iter()
        .filter(|r| r.result == OpResult::Inserted)
        .count();
    assert_eq!(inserted, 1, "exactly one INSERT may win");
    assert_eq!(table.len(), 1, "uniqueness violated");
    // The surviving value is one of the requested ones.
    let mut warp = WarpDriver::new(&table);
    let v = warp.search(42).expect("key present");
    assert!(v < 512);
    table.audit().unwrap();
}

#[test]
fn racing_inserts_into_one_bucket_lose_nothing() {
    let (_l, _g, grid) = chaotic_grid();
    let table = SlabHash::<KeyValue>::new(SlabHashConfig::with_buckets(1));
    let mut reqs: Vec<Request> = (0..2_000).map(|k| Request::replace(k, k + 1)).collect();
    table.execute_batch(&mut reqs, &grid);
    assert!(reqs.iter().all(|r| r.result == OpResult::Inserted));
    assert_eq!(table.len(), 2_000);
    // Allocate/link races must deallocate loser slabs: no leaks.
    let audit = table.audit().unwrap();
    assert!(audit.no_leaks(), "leaked slabs: {audit:?}");
    // Everything findable.
    let (found, _) = table.bulk_search(&(0..2_000).collect::<Vec<_>>(), &grid);
    for (k, v) in found.iter().enumerate() {
        assert_eq!(*v, Some(k as u32 + 1));
    }
}

#[test]
fn concurrent_delete_and_search_of_same_keys() {
    let (_l, _g, grid) = chaotic_grid();
    let table = SlabHash::<KeyValue>::new(SlabHashConfig::with_buckets(4));
    let initial: Vec<(u32, u32)> = (0..1_000).map(|k| (k, k)).collect();
    table.bulk_build(&initial, &grid);

    // Each key gets exactly one DELETE plus several racing SEARCHes.
    let mut reqs = Vec::new();
    for k in 0..1_000 {
        reqs.push(Request::delete(k));
        reqs.push(Request::search(k));
        reqs.push(Request::search(k));
    }
    table.execute_batch(&mut reqs, &grid);

    // All deletes succeed (each key deleted once); searches see the key
    // either before or after its deletion — never a torn value.
    for chunk in reqs.chunks(3) {
        assert!(matches!(chunk[0].result, OpResult::Deleted(_)));
        for search in &chunk[1..] {
            match &search.result {
                OpResult::Found(v) => assert!(*v < 1_000, "torn read: {v}"),
                OpResult::NotFound => {}
                other => panic!("unexpected search outcome {other:?}"),
            }
        }
    }
    assert_eq!(table.len(), 0);
    table.audit().unwrap();
}

#[test]
fn concurrent_duplicate_deletes_delete_exactly_once() {
    let (_l, _g, grid) = chaotic_grid();
    let table = SlabHash::<KeyValue>::new(SlabHashConfig::with_buckets(2));
    let initial: Vec<(u32, u32)> = (0..200).map(|k| (k, k)).collect();
    table.bulk_build(&initial, &grid);

    // Four racing deletes per key: exactly one may succeed.
    let mut reqs: Vec<Request> = (0..200)
        .flat_map(|k| std::iter::repeat_with(move || Request::delete(k)).take(4))
        .collect();
    table.execute_batch(&mut reqs, &grid);
    for chunk in reqs.chunks(4) {
        let wins = chunk
            .iter()
            .filter(|r| matches!(r.result, OpResult::Deleted(_)))
            .count();
        assert_eq!(wins, 1, "a key was deleted {wins} times");
    }
    assert_eq!(table.len(), 0);
}

#[test]
fn concurrent_inserts_reusing_tombstones_never_lose_elements() {
    let (_l, _g, grid) = chaotic_grid();
    let table = SlabHash::<KeyValue>::new(SlabHashConfig::with_buckets(1));
    // Phase 1: fill and tombstone to create reusable slots.
    let mut warp = WarpDriver::new(&table);
    for k in 0..100 {
        warp.insert(k, k);
    }
    for k in 0..50 {
        warp.delete(k);
    }
    // Phase 2: racing INSERTs compete for the 50 tombstones.
    let mut reqs: Vec<Request> = (1_000..1_200).map(|k| Request::insert(k, k)).collect();
    table.execute_batch(&mut reqs, &grid);
    assert!(reqs.iter().all(|r| r.result == OpResult::Inserted));
    assert_eq!(table.len(), 50 + 200);
    let audit = table.audit().unwrap();
    assert!(audit.no_leaks());
    // No tombstone may have been claimed twice: every inserted key is
    // findable exactly once.
    let mut warp = WarpDriver::new(&table);
    for k in 1_000..1_200 {
        assert_eq!(warp.search_all(k).len(), 1, "key {k} duplicated or lost");
    }
}

#[test]
fn allocator_chaos_storm_no_duplicate_slabs() {
    use slab_alloc::{SlabAlloc, SlabAllocConfig, SlabAllocator};
    let _l = CHAOS_LOCK.lock();
    let _g = ChaosGuard::new(0.3);
    let alloc = SlabAlloc::new(SlabAllocConfig::small(2, 2));
    let grid = Grid::new(8);
    let ptrs = parking_lot::Mutex::new(Vec::new());
    grid.launch_warps(64, |ctx| {
        let mut st = alloc.new_warp_state();
        let mine: Vec<u32> = (0..50).map(|_| alloc.allocate(&mut st, ctx)).collect();
        ptrs.lock().extend(mine);
    });
    let ptrs = ptrs.into_inner();
    let unique: HashSet<_> = ptrs.iter().collect();
    assert_eq!(unique.len(), ptrs.len(), "duplicate slab under chaos");
    assert_eq!(alloc.allocated_slabs(), ptrs.len() as u64);
}

#[test]
fn mixed_workload_conservation_under_chaos() {
    // Inserts and deletes on disjoint keys: final size is exactly
    // initial + inserts - deletes, regardless of scheduling.
    let (_l, _g, grid) = chaotic_grid();
    let table = SlabHash::<KeyValue>::new(SlabHashConfig::with_buckets(8));
    let initial: Vec<(u32, u32)> = (0..500).map(|k| (k, k)).collect();
    table.bulk_build(&initial, &grid);

    let mut reqs = Vec::new();
    for k in 500..900 {
        reqs.push(Request::replace(k, k));
    }
    for k in 0..300 {
        reqs.push(Request::delete(k));
    }
    table.execute_batch(&mut reqs, &grid);
    assert_eq!(table.len(), 500 + 400 - 300);
    table.audit().unwrap();
}
