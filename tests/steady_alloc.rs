//! Steady-state batches, and the `maintain` passes between them, must not
//! touch the heap.
//!
//! The reusable [`BatchBuffer`] keeps its request storage across
//! `reset_results` / `clear`, the grid's launch path runs on persistent
//! pool workers, and a compaction pass reuses each executor's scratch
//! lists. After warm-up, a reset + execute iteration, and a churn +
//! `maintain` iteration, must perform **zero** heap allocations on any
//! thread — asserted here with a counting global allocator, so a
//! regression (a fresh `Vec` on the launch path or per compacted bucket, a
//! lazily initialized per-thread structure on a pool worker) fails the test
//! instead of silently costing an allocation per batch.
//!
//! This test is the one place in the workspace's tests that opts into
//! `unsafe`: implementing `GlobalAlloc` requires it, and the impl only
//! counts and forwards to [`System`]. Integration tests are separate crate
//! roots, so the library crates' `#![forbid(unsafe_code)]` is unaffected.
//!
//! The counter is process-wide, so this file holds a single test: the
//! libtest thread that waits for it allocates nothing while it waits. Pool
//! workers join launches on their own schedule, so CI runs the test in a
//! loop (`cargo test --release --test steady_alloc`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use simt::Grid;
use slab_hash::{BatchBuffer, KeyValue, Request, SlabHash};

/// Counts every allocation path that can hand out new memory (`alloc`,
/// `alloc_zeroed`, `realloc`); frees are forwarded uncounted.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the caller's `GlobalAlloc` guarantees (a valid non-zero layout; `ptr`
// allocated by this allocator with `layout`) are exactly `System`'s
// preconditions, and every block `System` returns is handed back as is.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded unchanged (see the impl).
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded unchanged (see the impl).
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded unchanged; `ptr` came from `System` via this impl.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; `ptr` came from `System` via this impl.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Independent trials: each builds a fresh buffer over the shared table.
const TRIALS: usize = 11;

#[test]
fn steady_state_batches_never_touch_the_heap() {
    let grid = Grid::new(4);
    let n = 4096u32;
    let t = SlabHash::<KeyValue>::for_expected_elements(n as usize, 0.6, 11);
    for trial in 0..TRIALS {
        let mut batch: BatchBuffer = (0..n).map(|k| Request::replace(k, k)).collect();
        // Two warm executions: the first inserts (and grows chains), the
        // second settles into the replace-only steady state every later
        // iteration repeats.
        t.execute_buffer(&mut batch, &grid);
        batch.reset_results();
        t.execute_buffer(&mut batch, &grid);
        let before = allocations();
        batch.reset_results();
        t.execute_buffer(&mut batch, &grid);
        let allocated = allocations() - before;
        assert_eq!(
            allocated, 0,
            "trial {trial}: steady-state iteration touched the heap {allocated} time(s)"
        );
    }
    println!("steady_alloc: {TRIALS} trials, 0 allocations per steady-state batch");
    churn_and_maintain_never_touch_the_heap(&grid);
}

/// Live keys of the churned table; each churn round replaces `CHURN` fresh
/// keys and deletes the `CHURN` oldest.
const LIVE: u32 = 1 << 16;
const CHURN: u32 = 4096;

/// Fills `batch` with one churn round starting at fresh key `next`.
fn churn_round(batch: &mut BatchBuffer, next: u32) {
    batch.clear();
    for k in next..next + CHURN {
        batch.push(Request::replace(k, k));
    }
    for k in next - LIVE..next - LIVE + CHURN {
        batch.push(Request::delete(k));
    }
}

/// A warm compaction pass reuses each executor's scratch lists: churn
/// rounds (fresh REPLACEs and DELETEs of live keys) followed by a
/// compacting `maintain` allocate nothing once every executor has
/// compacted buckets.
fn churn_and_maintain_never_touch_the_heap(grid: &Grid) {
    let t = SlabHash::<KeyValue>::for_expected_elements(LIVE as usize, 0.9, 13);
    let mut batch = BatchBuffer::with_capacity(2 * CHURN as usize);
    for k in 0..LIVE {
        batch.push(Request::replace(k, k));
    }
    t.execute_buffer(&mut batch, grid);
    let mut next = LIVE;
    let mut iteration = |batch: &mut BatchBuffer| {
        churn_round(batch, next);
        t.execute_buffer(batch, grid);
        next += CHURN;
        t.maintain(grid).flushed.expect("no op in flight")
    };
    // Warm-up: the first passes size each executor's scratch and settle
    // the allocator's freed slabs into reuse.
    for _ in 0..4 {
        iteration(&mut batch);
    }
    let mut released = 0;
    for trial in 0..TRIALS {
        let before = allocations();
        let report = iteration(&mut batch);
        let allocated = allocations() - before;
        assert!(
            report.counters.sector_writes > 0,
            "trial {trial}: the pass rewrote no bucket"
        );
        assert_eq!(
            allocated, 0,
            "trial {trial}: a churn + maintain iteration touched the heap {allocated} time(s)"
        );
        released += report.slabs_released;
    }
    assert!(released > 0, "no pass released a slab");
    println!(
        "steady_alloc: {TRIALS} trials, 0 allocations per churn + maintain iteration \
         ({released} slabs released)"
    );
}
