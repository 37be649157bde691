//! FLUSH: tombstone compaction (paper §IV-C4).
//!
//! Deleted elements are only marked, never physically removed, so after
//! enough churn a bucket's slab list can be rebuilt into fewer slabs. The
//! paper runs FLUSH "as a separate kernel call so that no other thread can
//! perform an operation in those buckets". Here that exclusive rewrite
//! (`compact_exclusive`) runs under one of two proofs that no operation is in
//! flight: [`SlabHash::flush`]'s `&mut self`, or a [`Quiesced`] window that
//! [`SlabHash::maintain`] claims whenever it finds no epoch pin live. There
//! is no compaction against live traffic: a `maintain` that cannot claim a
//! window compacts nothing (DESIGN.md §10).

use simt::{Grid, PerfCounters, Quiesced, WarpCtx, WarpScratch};
use slab_alloc::{SlabAllocator, BASE_SLAB, EMPTY_PTR};

use crate::entry::{EntryLayout, ADDRESS_LANE, DELETED_KEY, EMPTY_KEY};
use crate::hash_table::SlabHash;
use crate::stats::collect_live;

/// Outcome of a compaction pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FlushReport {
    /// Chained slabs the pass took out of the chains and freed
    /// (`counters.deallocations`).
    pub slabs_released: u64,
    /// Live elements kept (and compacted) (`counters.elements_kept`).
    pub elements_kept: u64,
    /// Buckets processed.
    pub buckets: u32,
    /// The compaction launch's merged counters: the pass's slab reads and
    /// writes, its deallocations, and the elements it kept.
    pub counters: PerfCounters,
}

impl<L: EntryLayout, A: SlabAllocator> SlabHash<L, A> {
    /// Compacts every bucket: drops tombstones, packs live elements into the
    /// minimum number of slabs, and releases the freed slabs for reuse. One
    /// warp processes each bucket, scheduled over `grid`.
    ///
    /// Requires `&mut self`: no concurrent operations may run during a
    /// flush, exactly as the paper's separate-kernel-call discipline.
    /// [`maintain`](Self::maintain) runs the same rewrite from `&self`
    /// whenever it finds no operation in flight.
    pub fn flush(&mut self, grid: &Grid) -> FlushReport {
        let quiet = self
            .clock
            .quiesce()
            .expect("`&mut self` leaves no operation holding an epoch pin");
        self.compact_exclusive(grid, &quiet)
    }

    /// The exclusive phase shared by [`flush`](Self::flush) and
    /// [`maintain`](Self::maintain): every bucket is rewritten by
    /// `flush_bucket`. `quiet` proves no operation is in flight.
    ///
    /// The pass's tallies come out of the launch's merged counters, which
    /// executors merge once each, so no bucket touches shared state.
    ///
    /// Must not pin the epoch: `quiet` already holds the pin lock.
    pub(crate) fn compact_exclusive(&self, grid: &Grid, _quiet: &Quiesced<'_>) -> FlushReport {
        let buckets = self.num_buckets();
        let counters = grid
            .launch_warps(buckets as usize, |ctx| {
                self.flush_bucket(ctx.warp_id as u32, ctx);
            })
            .counters;
        FlushReport {
            slabs_released: counters.deallocations,
            elements_kept: counters.elements_kept,
            buckets,
            counters,
        }
    }

    /// Compacts one bucket, billing the slabs it frees to
    /// `ctx.counters.deallocations` and the elements it keeps to
    /// `ctx.counters.elements_kept`. Private: callers reach it through
    /// `compact_exclusive`, whose [`Quiesced`] argument guarantees the
    /// exclusive phase.
    fn flush_bucket(&self, bucket: u32, ctx: &mut WarpCtx) {
        // The executor's reusable lists: a pass allocates nothing per
        // bucket.
        let WarpScratch {
            pairs: mut live,
            words: mut chain,
        } = std::mem::take(&mut ctx.scratch);
        live.clear();
        chain.clear();
        self.compact_bucket(bucket, ctx, &mut live, &mut chain);
        ctx.scratch = WarpScratch {
            pairs: live,
            words: chain,
        };
    }

    /// `flush_bucket`'s body over the executor's cleared scratch lists:
    /// `live` gathers the bucket's live pairs, `chain` its chained slab
    /// pointers (base excluded), both in chain order.
    fn compact_bucket(
        &self,
        bucket: u32,
        ctx: &mut WarpCtx,
        live: &mut Vec<(u32, u32)>,
        chain: &mut Vec<u32>,
    ) {
        // Pass 1: the warp walks the chain, gathering live elements and the
        // chained slab pointers, and noting any tombstone to scrub.
        let mut dirty = false;
        let mut ptr = BASE_SLAB;
        loop {
            let loc = self.slab_loc(bucket, ptr, ctx);
            let data = loc.storage.read_slab(loc.slab, &mut ctx.counters);
            collect_live::<L>(&data, live);
            dirty |= (0..L::ELEMS_PER_SLAB as usize).any(|e| data[L::key_lane(e)] == DELETED_KEY);
            let next = data[ADDRESS_LANE];
            if ptr != BASE_SLAB {
                chain.push(ptr);
            }
            if next == EMPTY_PTR {
                break;
            }
            ptr = next;
        }
        ctx.counters.elements_kept += live.len() as u64;

        // A bucket with nothing to scrub and no surplus slab is already
        // what the rewrite would produce: leave it untouched, so a pass
        // costs one read per slab where there is no work.
        let m = L::ELEMS_PER_SLAB as usize;
        let needed_chained = live.len().saturating_sub(m).div_ceil(m);
        debug_assert!(needed_chained <= chain.len());
        if !dirty && chain.len() == needed_chained {
            return;
        }

        // Pass 2: rewrite. Slab 0 is the base slab; slabs 1.. reuse the
        // existing chain in order.
        for slab_i in 0..=needed_chained {
            let this_ptr = if slab_i == 0 {
                BASE_SLAB
            } else {
                chain[slab_i - 1]
            };
            let loc = self.slab_loc(bucket, this_ptr, ctx);
            loc.storage.clear_slab(loc.slab, EMPTY_KEY, &mut ctx.counters);
            let elems = live
                .iter()
                .skip(slab_i * m)
                .take(m);
            for (e, &(k, v)) in elems.enumerate() {
                let lane = L::key_lane(e);
                if L::HAS_VALUES {
                    loc.storage.store_pair(
                        loc.slab,
                        lane / 2,
                        simt::pack_pair(k, v),
                        &mut ctx.counters,
                    );
                } else {
                    loc.storage.write_lane(loc.slab, lane, k, &mut ctx.counters);
                }
            }
            let next_ptr = if slab_i < needed_chained {
                chain[slab_i]
            } else {
                EMPTY_PTR
            };
            loc.storage
                .write_lane(loc.slab, ADDRESS_LANE, next_ptr, &mut ctx.counters);
        }

        // Pass 3: scrub and release the surplus slabs.
        for &freed in &chain[needed_chained..] {
            let loc = self.slab_loc(bucket, freed, ctx);
            loc.storage.clear_slab(loc.slab, EMPTY_KEY, &mut ctx.counters);
            self.allocator().deallocate(freed, ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::{KeyOnly, KeyValue};
    use crate::hash_table::SlabHashConfig;
    use crate::WarpDriver;

    #[test]
    fn flush_reclaims_tombstoned_slabs() {
        let mut t = SlabHash::<KeyValue>::new(SlabHashConfig::with_buckets(1));
        let mut w = WarpDriver::new(&t);
        for k in 0..90 {
            w.replace(k, k); // 6 slabs
        }
        for k in 0..80 {
            w.delete(k);
        }
        let slabs_before = t.bucket_slab_count(0);
        assert!(slabs_before >= 6);
        let report = t.flush(&Grid::new(4));
        assert_eq!(report.elements_kept, 10);
        assert!(report.slabs_released >= 4, "released {report:?}");
        assert_eq!(t.bucket_slab_count(0), 1, "10 live pairs fit the base slab");
        // The kept elements are intact.
        let mut w = WarpDriver::new(&t);
        for k in 80..90 {
            assert_eq!(w.search(k), Some(k));
        }
        for k in 0..80 {
            assert_eq!(w.search(k), None);
        }
        t.audit().unwrap();
    }

    #[test]
    fn flush_of_clean_table_is_a_noop() {
        let mut t = SlabHash::<KeyValue>::new(SlabHashConfig::with_buckets(4));
        let mut w = WarpDriver::new(&t);
        for k in 0..50 {
            w.replace(k, k);
        }
        let before = t.collect_elements();
        let slabs_before = t.total_slabs();
        let report = t.flush(&Grid::new(4));
        assert_eq!(report.slabs_released, 0);
        assert_eq!(report.elements_kept, 50);
        assert_eq!(t.total_slabs(), slabs_before);
        let mut after = t.collect_elements();
        let mut before = before;
        before.sort_unstable();
        after.sort_unstable();
        assert_eq!(before, after);
    }

    #[test]
    fn flush_writes_only_buckets_with_work() {
        let t = SlabHash::<KeyValue>::new(SlabHashConfig::with_buckets(4));
        let mut w = WarpDriver::new(&t);
        for k in 0..200 {
            w.replace(k, k);
        }
        let writes = |t: &SlabHash<KeyValue>| {
            Grid::sequential()
                .launch_warps(4, |ctx| {
                    t.flush_bucket(ctx.warp_id as u32, ctx);
                })
                .counters
                .sector_writes
        };
        assert_eq!(writes(&t), 0, "a clean, minimal table was rewritten");
        w.delete(7);
        assert!(writes(&t) > 0, "a tombstone was left in place");
        assert_eq!(writes(&t), 0, "the rewrite left work behind");
        assert_eq!(t.audit().unwrap().tombstones, 0);
    }

    #[test]
    fn flush_empty_table() {
        let mut t = SlabHash::<KeyValue>::new(SlabHashConfig::with_buckets(8));
        let report = t.flush(&Grid::sequential());
        assert_eq!(report.elements_kept, 0);
        assert_eq!(report.slabs_released, 0);
        assert_eq!(report.buckets, 8);
    }

    #[test]
    fn flush_fully_deleted_bucket_releases_whole_chain() {
        let mut t = SlabHash::<KeyOnly>::new(SlabHashConfig::with_buckets(1));
        let mut w = WarpDriver::new(&t);
        for k in 0..120 {
            w.replace(k, 0); // 4 slabs of 30
        }
        for k in 0..120 {
            w.delete(k);
        }
        let report = t.flush(&Grid::sequential());
        assert_eq!(report.elements_kept, 0);
        assert_eq!(report.slabs_released, 3);
        assert_eq!(t.allocator().allocated_slabs(), 0);
        assert!(t.is_empty());
        // The bucket is fully usable afterwards.
        let mut w = WarpDriver::new(&t);
        w.replace(1, 0);
        assert!(w.contains(1));
    }

    #[test]
    fn released_slabs_are_reusable_and_clean() {
        let mut t = SlabHash::<KeyValue>::new(SlabHashConfig::with_buckets(1));
        let mut w = WarpDriver::new(&t);
        for k in 0..60 {
            w.insert(k, k);
        }
        for k in 0..60 {
            w.delete(k);
        }
        t.flush(&Grid::sequential());
        // Refill: recycled slabs must behave like fresh ones.
        let mut w = WarpDriver::new(&t);
        for k in 0..60 {
            w.replace(k, k + 1);
        }
        assert_eq!(t.len(), 60);
        for k in 0..60 {
            assert_eq!(w.search(k), Some(k + 1));
        }
        t.audit().unwrap();
    }

    #[test]
    fn flush_compacts_across_many_buckets() {
        let mut t = SlabHash::<KeyValue>::new(SlabHashConfig::with_buckets(16));
        let grid = Grid::new(4);
        let pairs: Vec<(u32, u32)> = (0..3000).map(|k| (k, k)).collect();
        t.bulk_build(&pairs, &grid);
        let evens: Vec<u32> = (0..3000).step_by(2).collect();
        t.bulk_delete(&evens, &grid);
        let util_before = t.memory_utilization();
        let report = t.flush(&grid);
        assert_eq!(report.elements_kept, 1500);
        assert!(report.slabs_released > 0);
        assert!(t.memory_utilization() > util_before);
        assert_eq!(t.len(), 1500);
        t.audit().unwrap();
    }
}
