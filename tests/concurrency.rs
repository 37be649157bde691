//! Concurrency tests: racing warps on shared buckets, with chaos scheduling
//! forcing interleavings inside the read-then-CAS windows (essential on
//! single-core hosts, where OS preemption alone would almost never land
//! there — see `simt::chaos`).
//!
//! Chaos mode is process-global, so these tests serialize behind a mutex.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};

use rand::{Rng, SeedableRng};
use simt::{ChaosGuard, Grid, WarpCtx};
use slab_alloc::{AllocError, SlabAlloc, SlabAllocConfig, SlabAllocator, SlabRef};
use slab_hash::{
    KeyOnly, KeyValue, OpKind, OpResult, Request, SlabHash, SlabHashConfig, WarpDriver, EMPTY_KEY,
};

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
fn key_only_overlapping_replaces_insert_each_key_once() {
    // Four batches REPLACE overlapping key windows concurrently on a
    // key-only table: every key must report `Inserted` exactly once across
    // all batches, and every other copy must find it present.
    let (_l, _g, grid) = chaotic_grid();
    let table = SlabHash::<KeyOnly>::for_expected_elements(10_000, 0.6, 0x0005_AB5E);
    let mut batches: Vec<Vec<Request>> = (0..4u32)
        .map(|t| {
            (t * 2_000..t * 2_000 + 4_000)
                .map(|k| Request::replace(k, 0))
                .collect()
        })
        .collect();
    std::thread::scope(|scope| {
        for batch in &mut batches {
            let (table, grid) = (&table, &grid);
            scope.spawn(move || table.execute_batch(batch, grid));
        }
    });

    // The windows cover 0..10_000 with overlaps.
    let mut inserted = vec![0u32; 10_000];
    for r in batches.iter().flatten() {
        match r.result {
            OpResult::Inserted => inserted[r.key as usize] += 1,
            OpResult::Replaced(k) => assert_eq!(k, r.key, "key-only REPLACE reports the key"),
            ref other => panic!("REPLACE({}) returned {other:?}", r.key),
        }
    }
    for (k, n) in inserted.iter().enumerate() {
        assert_eq!(*n, 1, "key {k} reported Inserted {n} times");
    }
    assert_eq!(table.len(), 10_000, "uniqueness violated");
    table.audit().unwrap();
}

#[test]
fn concurrent_duplicate_inserts_then_delete_all_drain() {
    // INSERT keeps duplicates: 200 values on each of 100 keys, racing into
    // shared chains. SEARCHALL sees all of them, DELETEALL drains half the
    // keys concurrently, and a flush leaves no tombstones or leaked slabs.
    let (_l, _g, grid) = chaotic_grid();
    let mut table = SlabHash::<KeyValue>::for_expected_elements(20_000, 0.6, 0x0005_AB33);
    let mut inserts: Vec<Request> = (0..20_000).map(|i| Request::insert(i % 100, i)).collect();
    table.execute_batch(&mut inserts, &grid);
    assert!(inserts.iter().all(|r| r.result == OpResult::Inserted));
    assert_eq!(table.len(), 20_000);

    let mut searches: Vec<Request> = (0..100).map(Request::search_all).collect();
    table.execute_batch(&mut searches, &grid);
    for r in &searches {
        match &r.result {
            OpResult::FoundAll(values) => {
                assert_eq!(values.len(), 200, "key {}", r.key);
                assert!(values.iter().all(|v| v % 100 == r.key), "key {}", r.key);
            }
            other => panic!("SEARCHALL({}) returned {other:?}", r.key),
        }
    }

    let mut drains: Vec<Request> = (0..50).map(Request::delete_all).collect();
    table.execute_batch(&mut drains, &grid);
    for r in &drains {
        assert_eq!(r.result, OpResult::DeletedCount(200), "key {}", r.key);
    }

    table.flush(&grid);
    assert_eq!(table.len(), 10_000);
    let audit = table.audit().unwrap();
    assert_eq!(audit.tombstones, 0);
    assert!(audit.no_leaks(), "leaked slabs: {audit:?}");
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

/// SlabAlloc with a count of its unbilled `locate` decodes. Kernels decode
/// through `resolve`, which this wrapper forwards to the inner allocator's
/// own `resolve`, so `walked` counts only the warp-start chain prefetch.
struct WalkCountingAlloc {
    inner: SlabAlloc,
    walked: AtomicU64,
}

impl SlabAllocator for WalkCountingAlloc {
    type WarpState = <SlabAlloc as SlabAllocator>::WarpState;

    fn new_warp_state(&self) -> Self::WarpState {
        self.inner.new_warp_state()
    }

    fn try_allocate(
        &self,
        state: &mut Self::WarpState,
        ctx: &mut WarpCtx,
    ) -> Result<u32, AllocError> {
        self.inner.try_allocate(state, ctx)
    }

    fn deallocate(&self, ptr: u32, ctx: &mut WarpCtx) {
        self.inner.deallocate(ptr, ctx)
    }

    fn locate(&self, ptr: u32) -> SlabRef<'_> {
        self.walked.fetch_add(1, Ordering::Relaxed);
        self.inner.locate(ptr)
    }

    fn resolve(&self, ptr: u32, ctx: &mut WarpCtx) -> SlabRef<'_> {
        self.inner.resolve(ptr, ctx)
    }

    fn allocated_slabs(&self) -> u64 {
        self.inner.allocated_slabs()
    }

    fn capacity_slabs(&self) -> u64 {
        self.inner.capacity_slabs()
    }

    fn metadata_bytes(&self) -> u64 {
        self.inner.metadata_bytes()
    }

    fn committed_bytes(&self) -> u64 {
        self.inner.committed_bytes()
    }
}

#[test]
fn chain_prefetch_races_writers_on_a_long_chain() {
    // One bucket, a chain of at least 64 slabs, and warps of 32 lanes
    // mixing SEARCH, REPLACE and DELETE on it from two threads: each
    // warp's warp-start prefetch walks the chain while other warps append
    // to its tail (`follow_or_allocate`'s link CAS) and tombstone inside
    // it. Each warp owns its keys and runs its lanes in order, so a
    // sequential oracle applying the batch in order predicts every result.
    let _l = CHAOS_LOCK.lock();
    let _g = ChaosGuard::new(0.2);
    let grid = Grid::new(2);
    let table = SlabHash::<KeyValue, _>::with_allocator(
        SlabHashConfig::with_buckets(1),
        WalkCountingAlloc {
            inner: SlabAlloc::new(SlabAllocConfig {
                fill: EMPTY_KEY,
                ..SlabAllocConfig::small(1, 4)
            }),
            walked: AtomicU64::new(0),
        },
    );
    const WARPS: u32 = 32;
    let initial: Vec<(u32, u32)> = (0..1_000).map(|k| (k, k)).collect();
    table.bulk_build(&initial, &grid);
    let chained_before = table.bucket_slab_count(0) as u64 - 1;
    assert!(
        chained_before >= 63,
        "chain of {} slabs",
        chained_before + 1
    );

    let mut rng = rand::rngs::StdRng::seed_from_u64(0xC4A1_0000);
    let mut reqs = Vec::new();
    for w in 0..WARPS {
        // Four stored keys spread along the chain, eight fresh ones.
        let pool: Vec<u32> = (0..4)
            .map(|j| w + WARPS * 7 * j)
            .chain((0..8).map(|j| 10_000 + w * 8 + j))
            .collect();
        for lane in 0..32u32 {
            let key = pool[rng.gen_range(0..pool.len())];
            reqs.push(match rng.gen_range(0..3) {
                0 => Request::search(key),
                1 => Request::replace(key, (w << 16) | lane),
                _ => Request::delete(key),
            });
        }
    }
    let mut oracle: HashMap<u32, u32> = initial.into_iter().collect();
    let expected: Vec<OpResult> = reqs
        .iter()
        .map(|r| match r.op {
            OpKind::Search => oracle
                .get(&r.key)
                .map_or(OpResult::NotFound, |&v| OpResult::Found(v)),
            OpKind::Replace => oracle
                .insert(r.key, r.value)
                .map_or(OpResult::Inserted, OpResult::Replaced),
            _ => oracle
                .remove(&r.key)
                .map_or(OpResult::NotFound, OpResult::Deleted),
        })
        .collect();

    table.allocator().walked.store(0, Ordering::Relaxed);
    table.execute_batch(&mut reqs, &grid);
    let walked = table.allocator().walked.load(Ordering::Relaxed);
    for (i, (r, want)) in reqs.iter().zip(&expected).enumerate() {
        assert_eq!(&r.result, want, "request {i}: {:?}({})", r.op, r.key);
    }
    assert_eq!(table.len(), oracle.len());
    assert!(table.audit().unwrap().no_leaks(), "leaked slabs");

    // Each warp walked the one bucket's chain once, not once per lane:
    // between the chain's length before the batch and after it.
    let chained_after = table.bucket_slab_count(0) as u64 - 1;
    assert!(
        (u64::from(WARPS) * chained_before..=u64::from(WARPS) * chained_after).contains(&walked),
        "{walked} decodes for {WARPS} warps over {chained_before}..={chained_after} chained slabs"
    );
}
