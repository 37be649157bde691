//! Bulk and concurrent batch execution (paper §VI-A, §VI-C).
//!
//! "In the slab hash, there is no difference between a bulk build operation
//! and incremental insertions of a batch of key-value pairs" — every bulk
//! entry point here just materializes one [`Request`] per simulated GPU
//! thread and launches the warp-cooperative kernel over the grid. Mixed
//! batches (the concurrent benchmark's Γ distributions) use
//! [`SlabHash::execute_batch`] directly with heterogeneous requests.

use simt::{Grid, LaunchError, LaunchReport};
use slab_alloc::SlabAllocator;

use crate::entry::EntryLayout;
use crate::error::TableError;
use crate::hash_table::SlabHash;
use crate::ops::{OpResult, Request};

impl<L: EntryLayout, A: SlabAllocator> SlabHash<L, A> {
    /// Executes an arbitrary batch of requests, one per simulated GPU
    /// thread, 32 threads per warp, warps scheduled concurrently over
    /// `grid`. Results are written into each request.
    ///
    /// Resource failures (allocator exhaustion, burned retry budgets) land
    /// in the affected requests as [`OpResult::Failed`]; unaffected
    /// requests complete normally. A *panicking* warp unwinds through this
    /// call — use [`SlabHash::try_execute_batch`] to contain it.
    pub fn execute_batch(&self, reqs: &mut [Request], grid: &Grid) -> LaunchReport {
        self.try_execute_batch(reqs, grid)
            .unwrap_or_else(|e| e.resume_unwind())
    }

    /// Like [`SlabHash::execute_batch`], but contains warp panics: the
    /// first panicking warp is returned as a structured
    /// [`simt::LaunchError`] (queued warps stop, in-flight warps drain)
    /// instead of unwinding through the scheduler.
    ///
    /// # Errors
    /// The first warp panic observed during the launch.
    pub fn try_execute_batch(
        &self,
        reqs: &mut [Request],
        grid: &Grid,
    ) -> Result<LaunchReport, LaunchError> {
        grid.try_launch(reqs, |ctx, chunk| {
            let mut alloc_state = self.allocator().new_warp_state();
            self.process_warp(ctx, &mut alloc_state, chunk);
        })
    }

    /// Bulk-builds from key–value pairs using REPLACE (uniqueness
    /// maintained — the paper's evaluation setting: "all our insertion
    /// operations maintain uniqueness").
    pub fn bulk_build(&self, pairs: &[(u32, u32)], grid: &Grid) -> LaunchReport {
        let mut reqs: Vec<Request> = pairs.iter().map(|&(k, v)| Request::replace(k, v)).collect();
        self.execute_batch(&mut reqs, grid)
    }

    /// Bulk REPLACE build that surfaces the first structured failure.
    /// Requests that completed before (or despite) the failure remain
    /// applied — the table is consistent and auditable either way; only
    /// the failed requests had no effect.
    ///
    /// # Errors
    /// The first [`TableError`] any request hit (by batch order).
    pub fn try_bulk_build(
        &self,
        pairs: &[(u32, u32)],
        grid: &Grid,
    ) -> Result<LaunchReport, TableError> {
        let mut reqs: Vec<Request> = pairs.iter().map(|&(k, v)| Request::replace(k, v)).collect();
        let report = self.execute_batch(&mut reqs, grid);
        match reqs.iter().find_map(|r| r.result.as_error()) {
            None => Ok(report),
            Some(e) => Err(e),
        }
    }

    /// Bulk insertion of keys only (key-only layout convenience; values are
    /// ignored by that layout).
    pub fn bulk_build_keys(&self, keys: &[u32], grid: &Grid) -> LaunchReport {
        let mut reqs: Vec<Request> = keys.iter().map(|&k| Request::replace(k, 0)).collect();
        self.execute_batch(&mut reqs, grid)
    }

    /// Bulk SEARCH: one query per thread; returns each query's value (or
    /// `None`) plus the launch report.
    pub fn bulk_search(&self, keys: &[u32], grid: &Grid) -> (Vec<Option<u32>>, LaunchReport) {
        let mut reqs: Vec<Request> = keys.iter().map(|&k| Request::search(k)).collect();
        let report = self.execute_batch(&mut reqs, grid);
        let results = reqs
            .into_iter()
            .map(|r| match r.result {
                OpResult::Found(v) => Some(v),
                OpResult::NotFound => None,
                other => unreachable!("bulk search yielded {other:?}"),
            })
            .collect();
        (results, report)
    }

    /// Bulk DELETE: returns, per key, whether an element was removed.
    pub fn bulk_delete(&self, keys: &[u32], grid: &Grid) -> (Vec<bool>, LaunchReport) {
        let mut reqs: Vec<Request> = keys.iter().map(|&k| Request::delete(k)).collect();
        let report = self.execute_batch(&mut reqs, grid);
        let results = reqs
            .into_iter()
            .map(|r| matches!(r.result, OpResult::Deleted(_)))
            .collect();
        (results, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::{KeyOnly, KeyValue};
    use crate::hash_table::SlabHashConfig;

    fn grid() -> Grid {
        Grid::new(8)
    }

    #[test]
    fn bulk_build_then_search_all_hit() {
        let n = 20_000u32;
        let pairs: Vec<(u32, u32)> = (0..n).map(|k| (k * 3, k)).collect();
        let t = SlabHash::<KeyValue>::for_expected_elements(n as usize, 0.5, 1);
        let report = t.bulk_build(&pairs, &grid());
        assert_eq!(report.counters.ops, n as u64);
        assert_eq!(t.len(), n as usize);

        let keys: Vec<u32> = pairs.iter().map(|p| p.0).collect();
        let (results, _) = t.bulk_search(&keys, &grid());
        for (i, r) in results.iter().enumerate() {
            assert_eq!(*r, Some(i as u32), "key {}", keys[i]);
        }
    }

    #[test]
    fn bulk_search_none_hit() {
        let pairs: Vec<(u32, u32)> = (0..5000).map(|k| (k, k)).collect();
        let t = SlabHash::<KeyValue>::for_expected_elements(5000, 0.6, 2);
        t.bulk_build(&pairs, &grid());
        let misses: Vec<u32> = (10_000..15_000).collect();
        let (results, _) = t.bulk_search(&misses, &grid());
        assert!(results.iter().all(|r| r.is_none()));
    }

    #[test]
    fn bulk_build_is_concurrent_and_consistent() {
        // Many warps race into few buckets; every element must survive.
        let n = 10_000u32;
        let pairs: Vec<(u32, u32)> = (0..n).map(|k| (k, k + 7)).collect();
        let t = SlabHash::<KeyValue>::new(SlabHashConfig::with_buckets(32));
        t.bulk_build(&pairs, &grid());
        assert_eq!(t.len(), n as usize);
        let audit = t.audit().unwrap();
        assert_eq!(audit.live_elements, n as u64);
        assert!(
            audit.no_leaks(),
            "allocate/link race leaked slabs: {audit:?}"
        );
    }

    /// A bulk build activates about as many super blocks as its slabs fill
    /// at the allocator's 3/4 growth gate, not every super block some
    /// warp's probes happened to miss in.
    #[test]
    fn bulk_build_footprint_tracks_occupancy() {
        let n = 1u32 << 18;
        let pairs: Vec<(u32, u32)> = (0..n).map(|k| (k, k ^ 0x5555_5555)).collect();
        let t = SlabHash::<KeyValue>::for_expected_elements(n as usize, 0.85, 7);
        t.bulk_build(&pairs, &Grid::new(4));
        let alloc = t.allocator();
        let blocks = u64::from(alloc.config().blocks_per_super);
        let per_super = blocks * 1024;
        let needed = (alloc.allocated_slabs() as f64 / (0.75 * per_super as f64)).ceil() as u32;
        assert!(
            alloc.active_super_blocks() <= needed + 1,
            "{} super blocks active for {} slabs in {per_super}-slab super blocks",
            alloc.active_super_blocks(),
            alloc.allocated_slabs()
        );
        // Committed memory is what the active super blocks hold: bitmaps
        // and slabs.
        let audit = t.audit().unwrap();
        let per_super_bytes = blocks * (128 + 1024 * 128);
        assert!(audit.committed_bytes >= audit.allocator_slabs * 128);
        assert!(
            audit.committed_bytes <= u64::from(alloc.active_super_blocks()) * per_super_bytes,
            "{} bytes committed by {} active super blocks",
            audit.committed_bytes,
            alloc.active_super_blocks()
        );
    }

    #[test]
    fn bulk_build_duplicate_keys_keep_uniqueness() {
        // The same key inserted from many threads concurrently: REPLACE
        // must leave exactly one live instance per key.
        let mut pairs = Vec::new();
        for rep in 0..8u32 {
            for k in 0..500u32 {
                pairs.push((k, rep));
            }
        }
        let t = SlabHash::<KeyValue>::new(SlabHashConfig::with_buckets(16));
        t.bulk_build(&pairs, &grid());
        assert_eq!(t.len(), 500, "uniqueness violated under concurrency");
        let (results, _) = t.bulk_search(&(0..500).collect::<Vec<_>>(), &grid());
        assert!(results.iter().all(|r| r.is_some()));
    }

    #[test]
    fn bulk_delete_removes_exactly_requested() {
        let pairs: Vec<(u32, u32)> = (0..2000).map(|k| (k, k)).collect();
        let t = SlabHash::<KeyValue>::for_expected_elements(2000, 0.5, 3);
        t.bulk_build(&pairs, &grid());
        let evens: Vec<u32> = (0..2000).step_by(2).collect();
        let (deleted, _) = t.bulk_delete(&evens, &grid());
        assert!(deleted.iter().all(|&d| d));
        assert_eq!(t.len(), 1000);
        let (results, _) = t.bulk_search(&(0..2000).collect::<Vec<_>>(), &grid());
        for (k, r) in results.iter().enumerate() {
            assert_eq!(r.is_some(), k % 2 == 1, "key {k}");
        }
    }

    #[test]
    fn mixed_concurrent_batch_inserts_deletes_searches() {
        let t = SlabHash::<KeyValue>::new(SlabHashConfig::with_buckets(64));
        let initial: Vec<(u32, u32)> = (0..4000).map(|k| (k, k)).collect();
        t.bulk_build(&initial, &grid());

        let mut batch = Vec::new();
        for k in 4000..6000 {
            batch.push(Request::replace(k, k)); // new
        }
        for k in 0..1000 {
            batch.push(Request::delete(k)); // existing
        }
        for k in 1000..3000 {
            batch.push(Request::search(k)); // guaranteed hits (not deleted)
        }
        let report = t.execute_batch(&mut batch, &grid());
        assert_eq!(report.counters.ops, batch.len() as u64);
        for r in &batch[0..2000] {
            assert_eq!(r.result, OpResult::Inserted);
        }
        for r in &batch[2000..3000] {
            assert!(matches!(r.result, OpResult::Deleted(_)));
        }
        for r in &batch[3000..] {
            assert!(matches!(r.result, OpResult::Found(_)));
        }
        assert_eq!(t.len(), 4000 - 1000 + 2000);
        t.audit().unwrap();
    }

    #[test]
    fn key_only_bulk_build() {
        let keys: Vec<u32> = (0..3000).map(|k| k * 7).collect();
        let t = SlabHash::<KeyOnly>::for_expected_elements(3000, 0.6, 5);
        t.bulk_build_keys(&keys, &grid());
        assert_eq!(t.len(), 3000);
        let (found, _) = t.bulk_search(&keys, &grid());
        assert!(found.iter().all(|f| f.is_some()));
    }

    #[test]
    fn sequential_grid_gives_same_table_contents() {
        let pairs: Vec<(u32, u32)> = (0..1000).map(|k| (k, k * 2)).collect();
        let t1 = SlabHash::<KeyValue>::new(SlabHashConfig::with_buckets(8));
        let t2 = SlabHash::<KeyValue>::new(SlabHashConfig::with_buckets(8));
        t1.bulk_build(&pairs, &Grid::sequential());
        t2.bulk_build(&pairs, &grid());
        let mut e1 = t1.collect_elements();
        let mut e2 = t2.collect_elements();
        e1.sort_unstable();
        e2.sort_unstable();
        assert_eq!(e1, e2, "schedule must not affect final contents");
    }

    #[test]
    fn try_execute_batch_reports_in_caller_order() {
        let t = SlabHash::<KeyValue>::for_expected_elements(2000, 0.6, 5);
        let pairs: Vec<(u32, u32)> = (0..2000).map(|k| (k, k)).collect();
        t.bulk_build(&pairs, &grid());
        let mut reqs: Vec<Request> = (0..2000).rev().map(Request::search).collect();
        let report = t.try_execute_batch(&mut reqs, &grid()).unwrap();
        assert_eq!(report.counters.ops, 2000);
        for (i, r) in reqs.iter().enumerate() {
            assert_eq!(r.key, 1999 - i as u32);
            assert_eq!(r.result, OpResult::Found(1999 - i as u32), "slot {i}");
        }
    }

    #[test]
    fn execution_handles_narrow_tables_and_tiny_batches() {
        // Fewer buckets than grid threads: every warp contends on two chains.
        let t = SlabHash::<KeyValue>::new(SlabHashConfig::with_buckets(2));
        let mut reqs: Vec<Request> = (0..40).map(|k| Request::replace(k, k)).collect();
        t.execute_batch(&mut reqs, &grid());
        assert!(reqs.iter().all(|r| r.result == OpResult::Inserted));
        assert_eq!(t.len(), 40);
        // Empty batch.
        let mut empty: Vec<Request> = vec![];
        let report = t.execute_batch(&mut empty, &grid());
        assert_eq!(report.warps, 0);
        // Single request.
        let mut one = vec![Request::search(7)];
        t.execute_batch(&mut one, &grid());
        assert_eq!(one[0].result, OpResult::Found(7));
    }

    #[test]
    fn launch_report_counts_memory_traffic() {
        let pairs: Vec<(u32, u32)> = (0..1024).map(|k| (k, k)).collect();
        let t = SlabHash::<KeyValue>::for_expected_elements(1024, 0.3, 9);
        let report = t.bulk_build(&pairs, &grid());
        // At low utilization nearly every insert is 1 slab read + 1 CAS.
        assert!(report.counters.slab_reads >= 1024);
        assert!(report.counters.atomics >= 1024);
        assert!(report.counters.bytes_moved() > 0);
    }
}
