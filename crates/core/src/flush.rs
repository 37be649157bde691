//! FLUSH: tombstone compaction (paper §IV-C4), in two flavors.
//!
//! Deleted elements are only marked, never physically removed, so after
//! enough churn a bucket's slab list can be rebuilt into fewer slabs. The
//! paper runs FLUSH "as a separate kernel call so that no other thread can
//! perform an operation in those buckets". Here that exclusive rewrite
//! (`compact_exclusive`) runs under one of two proofs that no operation is in
//! flight: [`SlabHash::flush`]'s `&mut self`, or a [`Quiesced`] window that
//! [`SlabHash::maintain`] claims whenever it finds no epoch pin live.
//!
//! [`SlabHash::try_flush`] is the incremental sibling that runs *against
//! live traffic* (`&self`): it retires fully dead chained slabs (every data
//! lane empty or tombstoned) with a freeze → unlink → epoch-retire protocol
//! (DESIGN.md §10). Frozen lanes hold [`FROZEN_KEY`], which no reader
//! matches and no writer claims, so a slab mid-unlink is inert; the unlinked
//! slab is only returned to the allocator after the epoch horizon passes its
//! retirement tag, when no in-flight operation can still be traversing it.

use std::sync::atomic::{AtomicBool, Ordering};

use simt::warp::WARP_SIZE;
use simt::{Grid, Quiesced, WarpCtx};
use slab_alloc::{SlabAllocator, BASE_SLAB, EMPTY_PTR, FROZEN_PTR};

use crate::entry::{EntryLayout, ADDRESS_LANE, DELETED_KEY, EMPTY_KEY, FROZEN_KEY};
use crate::error::TableError;
use crate::hash_table::SlabHash;
use crate::maintenance::RetiredSlab;
use crate::stats::{collect_live, live_keys_in_slab};

/// Outcome of a compaction pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FlushReport {
    /// Chained slabs the pass took out of the chains. The exclusive
    /// rewrite ([`SlabHash::flush`], and [`SlabHash::maintain`] when no op
    /// is in flight) frees them on the spot; [`SlabHash::try_flush`] only
    /// retires them, and they reach the allocator once their epoch grace
    /// period passes.
    pub slabs_released: u64,
    /// Live elements kept (and compacted).
    pub elements_kept: u64,
    /// Buckets processed.
    pub buckets: u32,
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
            .maint
            .clock
            .quiesce()
            .expect("`&mut self` leaves no operation holding an epoch pin");
        self.compact_exclusive(grid, &quiet).1
    }

    /// The exclusive phase shared by [`flush`](Self::flush) and
    /// [`maintain`](Self::maintain). `quiet` proves no operation is in
    /// flight, so every retired slab's grace period has trivially elapsed:
    /// they are freed first, then every bucket is rewritten by
    /// `flush_bucket`. Returns the retired slabs freed and the rewrite's
    /// report.
    ///
    /// Must not pin the epoch nor call
    /// [`reclaim_retired`](Self::reclaim_retired), whose horizon locks the
    /// pin registry: `quiet` already holds that lock.
    pub(crate) fn compact_exclusive(
        &self,
        grid: &Grid,
        _quiet: &Quiesced<'_>,
    ) -> (u64, FlushReport) {
        let reclaimed = self.release_retired(u64::MAX);
        let buckets = self.num_buckets();
        let report = parking_lot::Mutex::new(FlushReport {
            buckets,
            ..FlushReport::default()
        });
        grid.launch_warps(buckets as usize, |ctx| {
            let bucket = ctx.warp_id as u32;
            let (released, kept) = self.flush_bucket(bucket, ctx);
            let mut r = report.lock();
            r.slabs_released += released;
            r.elements_kept += kept;
        });
        (reclaimed, report.into_inner())
    }

    /// Compacts one bucket. Private: callers reach it through
    /// `compact_exclusive`, whose [`Quiesced`] argument guarantees the
    /// exclusive phase.
    fn flush_bucket(&self, bucket: u32, ctx: &mut WarpCtx) -> (u64, u64) {
        // Pass 1: the warp walks the chain, gathering live elements and the
        // chained slab pointers, and noting any lane or link to scrub.
        let mut live: Vec<(u32, u32)> = Vec::new();
        let mut chain: Vec<u32> = Vec::new();
        let mut dirty = false;
        let mut ptr = BASE_SLAB;
        loop {
            let loc = self.slab_loc(bucket, ptr, ctx);
            let data = loc.storage.read_slab(loc.slab, &mut ctx.counters);
            collect_live::<L>(&data, &mut live);
            dirty |= (0..L::ELEMS_PER_SLAB as usize)
                .any(|e| matches!(data[L::key_lane(e)], DELETED_KEY | FROZEN_KEY));
            let next = data[ADDRESS_LANE];
            if ptr != BASE_SLAB {
                chain.push(ptr);
            }
            // FROZEN_PTR can linger only if an incremental pass died
            // mid-undo; the rewrite below normalizes it away.
            if next == EMPTY_PTR || next == FROZEN_PTR {
                dirty |= next == FROZEN_PTR;
                break;
            }
            ptr = next;
        }

        // A bucket with nothing to scrub and no surplus slab is already
        // what the rewrite would produce: leave it untouched, so a pass
        // costs one read per slab where there is no work.
        let m = L::ELEMS_PER_SLAB as usize;
        let needed_chained = live.len().saturating_sub(m).div_ceil(m);
        debug_assert!(needed_chained <= chain.len());
        if !dirty && chain.len() == needed_chained {
            return (0, live.len() as u64);
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
        let released = (chain.len() - needed_chained) as u64;
        for &freed in &chain[needed_chained..] {
            let loc = self.slab_loc(bucket, freed, ctx);
            loc.storage.clear_slab(loc.slab, EMPTY_KEY, &mut ctx.counters);
            self.allocator().deallocate(freed, ctx);
        }
        (released, live.len() as u64)
    }

    /// Incremental compaction, safe against concurrent traffic (`&self`).
    ///
    /// Walks every bucket and retires chained slabs whose data lanes are all
    /// empty or tombstoned, using the freeze → unlink → epoch-retire
    /// protocol described in the module docs and DESIGN.md §10. Racing
    /// operations keep finding every live key throughout; a slab that gains
    /// a live key mid-freeze is left in place (the pass simply skips it).
    ///
    /// Unlinked slabs are *retired*, not freed: they return to the allocator
    /// through [`reclaim_retired`](Self::reclaim_retired) (or
    /// [`maintain`](Self::maintain)) once the epoch horizon guarantees no
    /// in-flight operation can still reach them. `slabs_released` counts
    /// retirements.
    ///
    /// # Errors
    ///
    /// * [`TableError::MaintenanceBusy`] — another compaction pass
    ///   (`try_flush` or [`maintain`](Self::maintain)) holds the
    ///   single-flusher lock; nothing was modified.
    /// * [`TableError::RetryBudgetExhausted`] — an active fault plan
    ///   injected more CAS losses than the table's retry budget. Every
    ///   partially frozen slab was restored, so the table stays fully
    ///   operational and `audit()` still balances.
    pub fn try_flush(&self, grid: &Grid) -> Result<FlushReport, TableError> {
        let _lock =
            FlushLock::acquire(&self.maint.flush_lock).ok_or(TableError::MaintenanceBusy)?;
        self.retire_dead_slabs(grid)
    }

    /// The body of [`try_flush`](Self::try_flush), for a caller that holds
    /// the single-flusher lock.
    pub(crate) fn retire_dead_slabs(&self, grid: &Grid) -> Result<FlushReport, TableError> {
        let buckets = self.num_buckets();
        let report = parking_lot::Mutex::new(FlushReport {
            buckets,
            ..FlushReport::default()
        });
        let first_err = parking_lot::Mutex::new(None::<TableError>);
        grid.launch_warps(buckets as usize, |ctx| {
            let bucket = ctx.warp_id as u32;
            match self.try_flush_bucket(bucket, ctx) {
                Ok((released, kept)) => {
                    let mut r = report.lock();
                    r.slabs_released += released;
                    r.elements_kept += kept;
                }
                Err(e) => {
                    first_err.lock().get_or_insert(e);
                }
            }
        });
        match first_err.into_inner() {
            Some(e) => Err(e),
            None => Ok(report.into_inner()),
        }
    }

    /// One bucket of [`try_flush`](Self::try_flush): walk the chain with a
    /// tracked predecessor, retiring each fully dead slab in place.
    fn try_flush_bucket(&self, bucket: u32, ctx: &mut WarpCtx) -> Result<(u64, u64), TableError> {
        let budget = self.retry_budget();
        let base = self.read_slab(bucket, BASE_SLAB, ctx);
        let mut kept = live_keys_in_slab::<L>(&base) as u64;
        let mut released = 0u64;
        let mut prev = BASE_SLAB;
        let mut cur = base[ADDRESS_LANE];
        while cur != EMPTY_PTR && cur != FROZEN_PTR {
            let data = self.read_slab(bucket, cur, ctx);
            let lives = live_keys_in_slab::<L>(&data);
            let tombstones = (0..L::ELEMS_PER_SLAB as usize)
                .filter(|&e| data[L::key_lane(e)] == DELETED_KEY)
                .count();
            // Only slabs that saw real churn are retired: a dead slab with
            // zero tombstones is a freshly linked (all-empty) slab that the
            // appender which linked it is about to fill.
            if lives > 0 || tombstones == 0 {
                kept += lives as u64;
                prev = cur;
                cur = data[ADDRESS_LANE];
                continue;
            }
            match self.retire_dead_slab(bucket, prev, cur, &data, budget, ctx)? {
                Some(next) => {
                    // Slab retired; `prev` now links straight to `next`.
                    released += 1;
                    cur = next;
                }
                None => {
                    // A racing writer revived the slab mid-freeze: re-read
                    // and move past it.
                    let fresh = self.read_slab(bucket, cur, ctx);
                    kept += live_keys_in_slab::<L>(&fresh) as u64;
                    prev = cur;
                    cur = fresh[ADDRESS_LANE];
                }
            }
        }
        Ok((released, kept))
    }

    /// Freeze → unlink → retire one dead chained slab `s` whose predecessor
    /// is `prev`. `data` is the snapshot that showed `s` dead.
    ///
    /// Returns `Ok(Some(next))` on success (`next` is `prev`'s new
    /// successor), `Ok(None)` when a genuine race aborted the retirement
    /// (every frozen lane restored to its recorded original), and
    /// `Err(RetryBudgetExhausted)` when injected CAS losses exceed `budget`
    /// (likewise fully undone).
    fn retire_dead_slab(
        &self,
        bucket: u32,
        prev: u32,
        s: u32,
        data: &[u32; WARP_SIZE],
        budget: u32,
        ctx: &mut WarpCtx,
    ) -> Result<Option<u32>, TableError> {
        let mut injected = 0u32;
        let mut frozen: Vec<(usize, u32)> = Vec::with_capacity(L::ELEMS_PER_SLAB as usize);

        // Step 1: freeze every data lane, CASing its observed dead value
        // (empty or tombstone) to FROZEN_KEY so no racing insert can claim
        // it while the slab is half-unlinked.
        for e in 0..L::ELEMS_PER_SLAB as usize {
            let lane = L::key_lane(e);
            let orig = data[lane];
            while simt::chaos::should_fail_cas() {
                injected += 1;
                ctx.counters.cas_failures += 1;
                if injected > budget {
                    self.unfreeze(bucket, s, &frozen, ctx);
                    ctx.counters.retry_exhaustions += 1;
                    return Err(TableError::RetryBudgetExhausted { budget });
                }
            }
            let loc = self.slab_loc(bucket, s, ctx);
            let observed = loc
                .storage
                .cas_lane(loc.slab, lane, orig, FROZEN_KEY, &mut ctx.counters);
            if observed != orig {
                // Genuine race: a writer claimed this lane since our read,
                // so the slab is no longer dead. Thaw and skip it.
                ctx.counters.cas_failures += 1;
                self.unfreeze(bucket, s, &frozen, ctx);
                return Ok(None);
            }
            frozen.push((lane, orig));
        }

        // Step 2: pin the tail. A dead slab at the end of its chain must not
        // gain a successor mid-unlink, so CAS its next pointer to
        // FROZEN_PTR. Losing this CAS means an appender linked a successor
        // first — fine, we unlink around `s` using the real pointer.
        let mut next = data[ADDRESS_LANE];
        let mut tail_pinned = false;
        if next == EMPTY_PTR {
            while simt::chaos::should_fail_cas() {
                injected += 1;
                ctx.counters.cas_failures += 1;
                if injected > budget {
                    self.unfreeze(bucket, s, &frozen, ctx);
                    ctx.counters.retry_exhaustions += 1;
                    return Err(TableError::RetryBudgetExhausted { budget });
                }
            }
            let loc = self.slab_loc(bucket, s, ctx);
            let old = loc
                .storage
                .cas_lane(loc.slab, ADDRESS_LANE, EMPTY_PTR, FROZEN_PTR, &mut ctx.counters);
            if old == EMPTY_PTR {
                tail_pinned = true;
                next = FROZEN_PTR;
            } else {
                ctx.counters.cas_failures += 1;
                next = old;
            }
        }
        let normalized = if next == FROZEN_PTR { EMPTY_PTR } else { next };

        // Step 3: unlink — CAS the predecessor's next pointer from `s` to
        // the normalized successor.
        while simt::chaos::should_fail_cas() {
            injected += 1;
            ctx.counters.cas_failures += 1;
            if injected > budget {
                self.restore_tail(bucket, s, tail_pinned, ctx);
                self.unfreeze(bucket, s, &frozen, ctx);
                ctx.counters.retry_exhaustions += 1;
                return Err(TableError::RetryBudgetExhausted { budget });
            }
        }
        let ploc = self.slab_loc(bucket, prev, ctx);
        let old = ploc
            .storage
            .cas_lane(ploc.slab, ADDRESS_LANE, s, normalized, &mut ctx.counters);
        if old != s {
            // Cannot happen with a single flusher (appenders only ever CAS
            // an EMPTY next pointer), but undo rather than corrupt the
            // chain if the invariant is somehow violated.
            debug_assert_eq!(old, s, "unlink lost on a non-empty link");
            ctx.counters.cas_failures += 1;
            self.restore_tail(bucket, s, tail_pinned, ctx);
            self.unfreeze(bucket, s, &frozen, ctx);
            return Ok(None);
        }

        // Step 4: retire. Operations that started before this advance may
        // still traverse `s` (it reads as all-sentinel and its next pointer
        // still leads back into the chain), so it only returns to the
        // allocator once the epoch horizon passes `tag`.
        let tag = self.maint.clock.advance();
        self.maint
            .retired
            .lock()
            .unwrap()
            .push(RetiredSlab { ptr: s, tag });
        Ok(Some(normalized))
    }

    /// Undo helper: release a FROZEN_PTR tail pin set by
    /// [`retire_dead_slab`](Self::retire_dead_slab).
    fn restore_tail(&self, bucket: u32, s: u32, tail_pinned: bool, ctx: &mut WarpCtx) {
        if tail_pinned {
            let loc = self.slab_loc(bucket, s, ctx);
            let old = loc
                .storage
                .cas_lane(loc.slab, ADDRESS_LANE, FROZEN_PTR, EMPTY_PTR, &mut ctx.counters);
            debug_assert_eq!(old, FROZEN_PTR, "pinned tail changed under the flusher");
        }
    }

    /// Undo helper: restore frozen lanes to their recorded pre-freeze
    /// values. Never blanket-writes EMPTY_KEY — reviving a tombstone as
    /// empty would let REPLACE claim the slot and duplicate a key that
    /// still lives further down the chain.
    fn unfreeze(&self, bucket: u32, s: u32, frozen: &[(usize, u32)], ctx: &mut WarpCtx) {
        let loc = self.slab_loc(bucket, s, ctx);
        for &(lane, orig) in frozen {
            let observed = loc
                .storage
                .cas_lane(loc.slab, lane, FROZEN_KEY, orig, &mut ctx.counters);
            debug_assert_eq!(observed, FROZEN_KEY, "frozen lane changed under the flusher");
        }
    }
}

/// Drop guard for the single-flusher lock, so a panicking bucket pass (or
/// an early error return) never wedges future maintenance.
pub(crate) struct FlushLock<'a>(&'a AtomicBool);

impl<'a> FlushLock<'a> {
    /// Takes the lock, or `None` when another flusher holds it. The guard
    /// is built only after the CAS wins: a guard built for a losing caller
    /// would release the holder's lock when it dropped.
    pub(crate) fn acquire(flag: &'a AtomicBool) -> Option<Self> {
        let won = flag
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_ok();
        if won {
            Some(Self(flag))
        } else {
            None
        }
    }
}

impl Drop for FlushLock<'_> {
    fn drop(&mut self) {
        self.0.store(false, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::{KeyOnly, KeyValue};
    use crate::hash_table::SlabHashConfig;
    use crate::WarpDriver;

    #[test]
    fn a_losing_flusher_leaves_the_holders_lock_alone() {
        let flag = AtomicBool::new(false);
        let held = FlushLock::acquire(&flag).expect("the lock starts free");
        assert!(FlushLock::acquire(&flag).is_none());
        assert!(flag.load(Ordering::Acquire), "a losing acquire released the lock");
        assert!(FlushLock::acquire(&flag).is_none());
        drop(held);
        assert!(!flag.load(Ordering::Acquire));
        assert!(FlushLock::acquire(&flag).is_some());
    }

    #[test]
    fn busy_maintain_neither_compacts_nor_frees_the_flush_lock() {
        let t = SlabHash::<KeyValue>::new(SlabHashConfig::with_buckets(1));
        let mut w = WarpDriver::new(&t);
        for k in 0..90 {
            w.replace(k, k);
        }
        for k in 0..80 {
            w.delete(k);
        }
        let held = FlushLock::acquire(&t.maint.flush_lock).unwrap();
        let grid = Grid::sequential();
        assert_eq!(t.try_flush(&grid), Err(TableError::MaintenanceBusy));
        assert!(t.maintain(&grid).flushed.is_none());
        assert_eq!(t.try_flush(&grid), Err(TableError::MaintenanceBusy));
        assert_eq!(t.audit().unwrap().tombstones, 80, "a busy pass compacted");
        drop(held);
        assert_eq!(t.maintain(&grid).flushed.unwrap().elements_kept, 10);
        assert_eq!(t.bucket_slab_count(0), 1);
    }

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
