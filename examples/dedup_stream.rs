//! Concurrent stream deduplication with the key-only slab hash.
//!
//! A classic dynamic-hash-table workload: a high-volume stream of items
//! with repeats, deduplicated on the fly by concurrent REPLACE operations
//! (key-only mode turns the table into an unordered set, the same
//! configuration as the paper's Misra comparison in §VI-C). The result of
//! each REPLACE tells the caller whether its element was new — no separate
//! membership query needed.
//!
//! Run with: `cargo run --release --example dedup_stream`

use std::collections::HashSet;

use simt::Grid;
use slab_hash::{KeyOnly, OpResult, Request, SlabHash};

/// A stream with a configurable duplication rate.
fn stream(n: usize, unique: u32, seed: u32) -> Vec<u32> {
    let mut x = seed | 1;
    (0..n)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            x % unique
        })
        .collect()
}

fn main() {
    let grid = Grid::default();
    let items = stream(500_000, 60_000, 0x00DE_D00D);
    let table = SlabHash::<KeyOnly>::for_expected_elements(60_000, 0.6, 7);
    println!(
        "deduplicating {} items (≤ 60k distinct) over {} buckets, {} executor threads",
        items.len(),
        table.num_buckets(),
        grid.num_threads()
    );

    let mut new_items = 0usize;
    let mut duplicates = 0usize;
    let start = std::time::Instant::now();
    for chunk in items.chunks(32_768) {
        let mut batch: Vec<Request> = chunk.iter().map(|&k| Request::replace(k, 0)).collect();
        table.execute_batch(&mut batch, &grid);
        for req in &batch {
            match req.result {
                OpResult::Inserted => new_items += 1,
                OpResult::Replaced(_) => duplicates += 1,
                ref other => unreachable!("unexpected {other:?}"),
            }
        }
    }
    let elapsed = start.elapsed();
    println!(
        "dedup done in {elapsed:?}: {new_items} unique, {duplicates} duplicates \
         ({:.1} M items/s on the host simulation)",
        items.len() as f64 / elapsed.as_secs_f64() / 1e6
    );

    // Cross-check against the ground truth.
    let truth: HashSet<u32> = items.iter().copied().collect();
    assert_eq!(
        new_items,
        truth.len(),
        "unique count must match ground truth"
    );
    assert_eq!(table.len(), truth.len());
    println!(
        "verified against std::HashSet: {} unique items, table utilization {:.1} %",
        truth.len(),
        table.memory_utilization() * 100.0
    );
}
