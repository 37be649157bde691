//! Criterion: steady-state batches must not touch the heap.
//!
//! The reusable [`BatchBuffer`] keeps its request storage across
//! `reset_results` / `clear`, and the grid's launch path runs on persistent
//! pool workers. After warm-up, a reset + execute iteration must perform
//! **zero** heap allocations on any thread — asserted here with a counting
//! global allocator, so a regression (a fresh `Vec` on the launch path, a
//! lazily initialized per-thread structure on a pool worker) fails the
//! bench instead of silently costing an allocation per batch.
//!
//! This bench is the one place in the workspace that opts into `unsafe`:
//! implementing `GlobalAlloc` requires it, and the impl only counts and
//! forwards to [`System`]. Benches are separate crate roots, so the library
//! crates' `#![forbid(unsafe_code)]` is unaffected.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use simt::Grid;
use slab_hash::{BatchBuffer, KeyValue, Request, SlabHash};

/// Counts every allocation path that can hand out new memory (`alloc`,
/// `alloc_zeroed`, `realloc`); frees are forwarded uncounted.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

fn bench_steady_alloc(c: &mut Criterion) {
    let grid = Grid::new(4);
    let n = 4096u32;
    let t = SlabHash::<KeyValue>::for_expected_elements(n as usize, 0.6, 11);
    let mut group = c.benchmark_group("steady_alloc");
    group.sample_size(10);
    group.throughput(Throughput::Elements(u64::from(n)));
    group.bench_function("buffer_reset_loop", |b| {
        let mut batch: BatchBuffer = (0..n).map(|k| Request::replace(k, k)).collect();
        // Two warm executions: the first inserts (and grows chains), the
        // second settles into the replace-only steady state every later
        // iteration repeats.
        t.execute_buffer(&mut batch, &grid);
        batch.reset_results();
        t.execute_buffer(&mut batch, &grid);
        let before = allocations();
        b.iter(|| {
            batch.reset_results();
            t.execute_buffer(&mut batch, &grid)
        });
        let allocated = allocations() - before;
        assert_eq!(
            allocated, 0,
            "steady-state iteration touched the heap {allocated} time(s)"
        );
    });
    group.finish();
}

criterion_group!(benches, bench_steady_alloc);
criterion_main!(benches);
