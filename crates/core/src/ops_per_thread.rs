//! The traditional per-thread work assignment the paper argues *against*
//! (§IV-A) — kept as an ablation baseline.
//!
//! Here each lane independently walks its own bucket's chain, reading one
//! 32-bit word at a time, exactly like a classic GPU linked-list port
//! (Misra & Chaudhuri's style, but over slab memory). Within a warp the 32
//! lanes' traversals are divergent: different chain lengths, different
//! addresses, no coalescing — every step is billed as a scattered sector
//! read plus a serialized divergent step. The `ablation` benchmark compares
//! this against the warp-cooperative path on identical workloads to
//! reproduce the paper's core design claim.

use simt::WarpCtx;
use slab_alloc::{SlabAllocator, BASE_SLAB, EMPTY_PTR};

use crate::entry::{validate_key, EntryLayout, ADDRESS_LANE, EMPTY_KEY};
use crate::error::TableError;
use crate::hash_table::SlabHash;
use crate::ops::{OpKind, OpResult, Request};

impl<L: EntryLayout, A: SlabAllocator> SlabHash<L, A> {
    /// Executes up to one warp's worth of requests with *per-thread*
    /// processing: each lane traverses alone; the warp serializes over
    /// divergent lanes. Supports SEARCH, REPLACE and DELETE (the operations
    /// the ablation benchmark exercises).
    pub fn process_warp_per_thread(
        &self,
        ctx: &mut WarpCtx,
        alloc_state: &mut A::WarpState,
        reqs: &mut [Request],
    ) {
        assert!(reqs.len() <= 32);
        // Same epoch discipline as the warp-cooperative path: no
        // compaction pass rewrites a chain this batch may still traverse.
        let _pin = self.epoch_pin();
        for req in reqs.iter_mut() {
            match req.op {
                OpKind::None => {}
                OpKind::Search => {
                    validate_key(req.key);
                    req.result = self.per_thread_search(ctx, req.key);
                    ctx.counters.ops += 1;
                }
                OpKind::Replace => {
                    validate_key(req.key);
                    req.result = self.per_thread_replace(ctx, alloc_state, req.key, req.value);
                    ctx.counters.ops += 1;
                }
                OpKind::Delete => {
                    validate_key(req.key);
                    req.result = self.per_thread_delete(ctx, req.key);
                    ctx.counters.ops += 1;
                }
                other => unimplemented!("per-thread ablation does not support {other:?}"),
            }
        }
    }

    /// One lane reads one 32-bit word: a scattered sector plus a serialized
    /// divergent step.
    fn lane_read(&self, ctx: &mut WarpCtx, bucket: u32, ptr: u32, lane: usize) -> u32 {
        ctx.counters.divergent_steps += 1;
        let loc = self.slab_loc(bucket, ptr, ctx);
        loc.storage.read_lane(loc.slab, lane, &mut ctx.counters)
    }

    fn per_thread_search(&self, ctx: &mut WarpCtx, key: u32) -> OpResult {
        let bucket = self.hash_fn().bucket(key);
        let mut ptr = BASE_SLAB;
        loop {
            for e in 0..L::ELEMS_PER_SLAB as usize {
                let lane = L::key_lane(e);
                let k = self.lane_read(ctx, bucket, ptr, lane);
                if k == key {
                    let v = self.lane_read(ctx, bucket, ptr, L::value_lane(lane));
                    return OpResult::Found(v);
                }
                if k == EMPTY_KEY {
                    // Slots fill front-to-back under REPLACE; an empty slot
                    // ends the probe within this slab.
                    break;
                }
            }
            let next = self.lane_read(ctx, bucket, ptr, ADDRESS_LANE);
            if next == EMPTY_PTR {
                return OpResult::NotFound;
            }
            ptr = next;
        }
    }

    fn per_thread_replace(
        &self,
        ctx: &mut WarpCtx,
        alloc_state: &mut A::WarpState,
        key: u32,
        value: u32,
    ) -> OpResult {
        let bucket = self.hash_fn().bucket(key);
        let mut ptr = BASE_SLAB;
        loop {
            for e in 0..L::ELEMS_PER_SLAB as usize {
                let lane = L::key_lane(e);
                let mut observed = self.lane_read(ctx, bucket, ptr, lane);
                // Claim loop on this slot while it stays empty or holds key.
                loop {
                    if observed == key && !L::HAS_VALUES {
                        return OpResult::Replaced(key);
                    }
                    if observed != EMPTY_KEY && observed != key {
                        break; // occupied by someone else; next slot
                    }
                    let loc = self.slab_loc(bucket, ptr, ctx);
                    ctx.counters.divergent_steps += 1;
                    if L::HAS_VALUES {
                        let observed_value =
                            loc.storage
                                .read_lane(loc.slab, L::value_lane(lane), &mut ctx.counters);
                        let expected = simt::pack_pair(observed, observed_value);
                        let desired = simt::pack_pair(key, value);
                        let old = loc.storage.cas_pair(
                            loc.slab,
                            lane / 2,
                            expected,
                            desired,
                            &mut ctx.counters,
                        );
                        if old == expected {
                            return if observed == key {
                                OpResult::Replaced(observed_value)
                            } else {
                                OpResult::Inserted
                            };
                        }
                        ctx.counters.cas_failures += 1;
                        observed = simt::unpack_pair(old).0;
                    } else {
                        let old = loc.storage.cas_lane(
                            loc.slab,
                            lane,
                            EMPTY_KEY,
                            key,
                            &mut ctx.counters,
                        );
                        if old == EMPTY_KEY {
                            return OpResult::Inserted;
                        }
                        ctx.counters.cas_failures += 1;
                        observed = old;
                    }
                }
            }
            // Slab exhausted: follow or grow the chain.
            let next = self.lane_read(ctx, bucket, ptr, ADDRESS_LANE);
            if next != EMPTY_PTR {
                ptr = next;
                continue;
            }
            let new_slab = match self.allocator().try_allocate(alloc_state, ctx) {
                Ok(ptr) => ptr,
                // Nothing published: the request simply had no effect.
                Err(e) => return OpResult::Failed(TableError::OutOfSlabs(e)),
            };
            let loc = self.slab_loc(bucket, ptr, ctx);
            ctx.counters.divergent_steps += 1;
            let old = loc.storage.cas_lane(
                loc.slab,
                ADDRESS_LANE,
                EMPTY_PTR,
                new_slab,
                &mut ctx.counters,
            );
            if old == EMPTY_PTR {
                ptr = new_slab;
            } else {
                ctx.counters.cas_failures += 1;
                self.allocator().deallocate(new_slab, ctx);
                ptr = old;
            }
        }
    }

    fn per_thread_delete(&self, ctx: &mut WarpCtx, key: u32) -> OpResult {
        let bucket = self.hash_fn().bucket(key);
        let mut ptr = BASE_SLAB;
        loop {
            for e in 0..L::ELEMS_PER_SLAB as usize {
                let lane = L::key_lane(e);
                let k = self.lane_read(ctx, bucket, ptr, lane);
                if k != key {
                    continue;
                }
                let loc = self.slab_loc(bucket, ptr, ctx);
                ctx.counters.divergent_steps += 1;
                if L::HAS_VALUES {
                    let v = loc
                        .storage
                        .read_lane(loc.slab, L::value_lane(lane), &mut ctx.counters);
                    let expected = simt::pack_pair(key, v);
                    let desired = simt::pack_pair(crate::entry::DELETED_KEY, v);
                    if loc.storage.cas_pair(loc.slab, lane / 2, expected, desired, &mut ctx.counters)
                        == expected
                    {
                        return OpResult::Deleted(v);
                    }
                    ctx.counters.cas_failures += 1;
                } else if loc.storage.cas_lane(
                    loc.slab,
                    lane,
                    key,
                    crate::entry::DELETED_KEY,
                    &mut ctx.counters,
                ) == key
                {
                    return OpResult::Deleted(key);
                } else {
                    ctx.counters.cas_failures += 1;
                }
            }
            let next = self.lane_read(ctx, bucket, ptr, ADDRESS_LANE);
            if next == EMPTY_PTR {
                return OpResult::NotFound;
            }
            ptr = next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::KeyValue;
    use crate::hash_table::SlabHashConfig;
    use simt::Grid;

    fn run_batch(t: &SlabHash<KeyValue>, reqs: &mut [Request]) {
        let mut ctx = WarpCtx::for_test(0);
        let mut st = t.allocator().new_warp_state();
        for chunk in reqs.chunks_mut(32) {
            t.process_warp_per_thread(&mut ctx, &mut st, chunk);
        }
    }

    #[test]
    fn per_thread_replace_and_search_agree_with_wcws() {
        let t = SlabHash::<KeyValue>::new(SlabHashConfig::with_buckets(4));
        let mut reqs: Vec<Request> = (0..200).map(|k| Request::replace(k, k + 1)).collect();
        run_batch(&t, &mut reqs);
        assert!(reqs.iter().all(|r| r.result == OpResult::Inserted));
        assert_eq!(t.len(), 200);

        // Search through the per-thread path...
        let mut searches: Vec<Request> = (0..200).map(Request::search).collect();
        run_batch(&t, &mut searches);
        for (k, r) in searches.iter().enumerate() {
            assert_eq!(r.result, OpResult::Found(k as u32 + 1));
        }
        // ...and cross-check through the warp-cooperative path.
        let (results, _) = t.bulk_search(&(0..200).collect::<Vec<_>>(), &Grid::sequential());
        for (k, r) in results.iter().enumerate() {
            assert_eq!(*r, Some(k as u32 + 1));
        }
    }

    #[test]
    fn per_thread_delete() {
        let t = SlabHash::<KeyValue>::new(SlabHashConfig::with_buckets(2));
        let mut reqs: Vec<Request> = (0..50).map(|k| Request::replace(k, k)).collect();
        run_batch(&t, &mut reqs);
        let mut dels: Vec<Request> = (0..25).map(Request::delete).collect();
        run_batch(&t, &mut dels);
        assert!(dels.iter().all(|r| matches!(r.result, OpResult::Deleted(_))));
        assert_eq!(t.len(), 25);
        let mut miss = [Request::delete(999)];
        run_batch(&t, &mut miss);
        assert_eq!(miss[0].result, OpResult::NotFound);
    }

    #[test]
    fn per_thread_bills_divergent_traffic() {
        // The whole point of the ablation: per-thread traversal costs
        // divergent steps and scattered sectors; WCWS costs coalesced slab
        // reads and warp rounds.
        let t = SlabHash::<KeyValue>::new(SlabHashConfig::with_buckets(1));
        let mut reqs: Vec<Request> = (0..100).map(|k| Request::replace(k, k)).collect();
        run_batch(&t, &mut reqs);

        let mut ctx = WarpCtx::for_test(0);
        let mut st = t.allocator().new_warp_state();
        let mut searches: Vec<Request> = (0..32).map(Request::search).collect();
        t.process_warp_per_thread(&mut ctx, &mut st, &mut searches);
        assert!(ctx.counters.divergent_steps > 0);
        assert!(ctx.counters.sector_reads > 0);
        assert_eq!(ctx.counters.slab_reads, 0, "no coalesced reads per-thread");

        let mut ctx2 = WarpCtx::for_test(0);
        let mut st2 = t.allocator().new_warp_state();
        let mut searches2: Vec<Request> = (0..32).map(Request::search).collect();
        t.process_warp(&mut ctx2, &mut st2, &mut searches2);
        assert_eq!(ctx2.counters.divergent_steps, 0);
        // Coalesced traffic: whole slabs.
        assert!(ctx2.counters.slab_reads > 0);
        // Same answers either way.
        for (a, b) in searches.iter().zip(&searches2) {
            assert_eq!(a.result, b.result);
        }
    }

    #[test]
    fn per_thread_concurrent_consistency() {
        let t = SlabHash::<KeyValue>::new(SlabHashConfig::with_buckets(8));
        let grid = Grid::new(8);
        let mut reqs: Vec<Request> = (0..5000).map(|k| Request::replace(k, k)).collect();
        grid.launch(&mut reqs, |ctx, chunk| {
            let mut st = t.allocator().new_warp_state();
            t.process_warp_per_thread(ctx, &mut st, chunk);
        });
        assert_eq!(t.len(), 5000);
        t.audit().unwrap();
    }
}
