//! Warp-cooperative slab list operations — the port of the paper's Fig. 2
//! pseudocode (§IV-C).
//!
//! Every operation follows the warp-cooperative work sharing (WCWS) strategy
//! of §IV-A: each lane may carry one independent request, the warp forms a
//! work queue with a ballot, and all 32 lanes cooperate on the queued
//! requests one at a time (priority = lowest lane, `__ffs`). For each round
//! the warp reads one whole slab coalesced, ballots for the source lane's
//! key (or an empty slot), and the source lane alone performs the CAS.
//!
//! The loop structure — `work_queue = ballot(is_active)`, reset `next` to
//! `BASE_SLAB` whenever the queue changes, re-read the slab at `next` every
//! round — is kept identical to the paper so failure/retry paths (CAS lost,
//! slab full, allocate-then-link races) fall out exactly as published.

use simt::memory::{pack_pair, unpack_pair};
use simt::telemetry::EventKind;
use simt::warp::{ballot, ballot_eq, ffs, WARP_SIZE};
use simt::WarpCtx;
use slab_alloc::{SlabAllocator, BASE_SLAB, EMPTY_PTR};

use crate::entry::{validate_key, EntryLayout, ADDRESS_LANE, DELETED_KEY, EMPTY_KEY};
use crate::error::TableError;
use crate::hash_table::SlabHash;

/// How many lost CAS attempts one request tolerates before it fails with
/// [`TableError::RetryBudgetExhausted`] instead of spinning forever. This is
/// the default for [`SlabHashConfig::retry_budget`](crate::SlabHashConfig);
/// override it per table with
/// [`SlabHashConfig::with_retry_budget`](crate::SlabHashConfig::with_retry_budget).
///
/// Legitimate contention loses a CAS at most once per concurrent
/// competitor, so even the most adversarial tests stay orders of magnitude
/// below this; only a genuine livelock (or a fault plan injecting failures
/// at probability 1) can burn through it.
pub const RETRY_BUDGET: u32 = 4096;

/// The operation a lane requests (paper §III-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OpKind {
    /// No operation: the lane is idle padding.
    #[default]
    None,
    /// INSERT(k, v): add, allowing duplicate keys. Reuses deleted slots.
    Insert,
    /// REPLACE(k, v): add maintaining key uniqueness — replaces the value if
    /// the key is already present. (The paper's evaluation uses REPLACE for
    /// all insertions.) This is the optimized Fig. 2 variant: the first
    /// empty-or-matching slot wins.
    Replace,
    /// DELETE(k): tombstone the least recently inserted instance of k.
    Delete,
    /// DELETEALL(k): tombstone every instance of k.
    DeleteAll,
    /// SEARCH(k): return the least recent value for k, or not-found.
    Search,
    /// SEARCHALL(k): return every value stored for k.
    SearchAll,
}

impl OpKind {
    /// Short lowercase identifier used by trace events (`"search"`,
    /// `"replace"`, …).
    pub fn name(self) -> &'static str {
        match self {
            OpKind::None => "none",
            OpKind::Insert => "insert",
            OpKind::Replace => "replace",
            OpKind::Delete => "delete",
            OpKind::DeleteAll => "delete_all",
            OpKind::Search => "search",
            OpKind::SearchAll => "search_all",
        }
    }
}

/// The outcome of a request.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum OpResult {
    /// Not yet executed.
    #[default]
    Pending,
    /// A new element was inserted.
    Inserted,
    /// REPLACE found the key already present and swapped the value; carries
    /// the previous value (key-only layout: the key itself).
    Replaced(u32),
    /// SEARCH hit; carries the value (key-only layout: the key itself).
    Found(u32),
    /// SEARCH / DELETE miss: the key is not in the table.
    NotFound,
    /// DELETE removed an element; carries the removed value.
    Deleted(u32),
    /// DELETEALL finished; carries how many instances were removed (possibly
    /// zero).
    DeletedCount(u32),
    /// SEARCHALL hit; carries every matching value in traversal order.
    FoundAll(Vec<u32>),
    /// The operation could not complete (allocator exhausted, retry budget
    /// burned); the table is consistent and the request had no effect.
    Failed(TableError),
}

impl OpResult {
    /// True for outcomes that found / created / removed something.
    pub fn is_success(&self) -> bool {
        !matches!(
            self,
            OpResult::Pending | OpResult::NotFound | OpResult::Failed(_)
        )
    }

    /// The structured error for `Failed`, else `None`.
    pub fn as_error(&self) -> Option<TableError> {
        match self {
            OpResult::Failed(e) => Some(*e),
            _ => None,
        }
    }

    /// The found value for `Found`, else `None`.
    pub fn value(&self) -> Option<u32> {
        match self {
            OpResult::Found(v) | OpResult::Replaced(v) | OpResult::Deleted(v) => Some(*v),
            _ => None,
        }
    }

    /// Short lowercase outcome tag used by trace events (`"inserted"`,
    /// `"not_found"`, …).
    pub fn tag(&self) -> &'static str {
        match self {
            OpResult::Pending => "pending",
            OpResult::Inserted => "inserted",
            OpResult::Replaced(_) => "replaced",
            OpResult::Found(_) => "found",
            OpResult::NotFound => "not_found",
            OpResult::Deleted(_) => "deleted",
            OpResult::DeletedCount(_) => "deleted_count",
            OpResult::FoundAll(_) => "found_all",
            OpResult::Failed(_) => "failed",
        }
    }
}

/// One lane's request: an operation, its key, and (for insertions in the
/// key–value layout) a value. Results are written back in place.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Request {
    /// Which operation to perform.
    pub op: OpKind,
    /// The key operated on.
    pub key: u32,
    /// The value carried by insertions (ignored otherwise and by the
    /// key-only layout).
    pub value: u32,
    /// Outcome, written by the warp that executes the request.
    pub result: OpResult,
}

impl Request {
    /// Clears the result back to [`OpResult::Pending`] so the request can
    /// be executed again; operation, key and value are kept. Steady-state
    /// batch loops (see [`crate::BatchBuffer`]) reset requests in place
    /// instead of rebuilding the batch.
    pub fn reset(&mut self) {
        self.result = OpResult::Pending;
    }

    /// INSERT(k, v).
    pub fn insert(key: u32, value: u32) -> Self {
        Self {
            op: OpKind::Insert,
            key,
            value,
            result: OpResult::Pending,
        }
    }

    /// REPLACE(k, v).
    pub fn replace(key: u32, value: u32) -> Self {
        Self {
            op: OpKind::Replace,
            key,
            value,
            result: OpResult::Pending,
        }
    }

    /// SEARCH(k).
    pub fn search(key: u32) -> Self {
        Self {
            op: OpKind::Search,
            key,
            value: 0,
            result: OpResult::Pending,
        }
    }

    /// SEARCHALL(k).
    pub fn search_all(key: u32) -> Self {
        Self {
            op: OpKind::SearchAll,
            key,
            value: 0,
            result: OpResult::Pending,
        }
    }

    /// DELETE(k).
    pub fn delete(key: u32) -> Self {
        Self {
            op: OpKind::Delete,
            key,
            value: 0,
            result: OpResult::Pending,
        }
    }

    /// DELETEALL(k).
    pub fn delete_all(key: u32) -> Self {
        Self {
            op: OpKind::DeleteAll,
            key,
            value: 0,
            result: OpResult::Pending,
        }
    }
}

impl<L: EntryLayout, A: SlabAllocator> SlabHash<L, A> {
    /// Executes up to one warp's worth of requests (≤ 32) cooperatively —
    /// the paper's `warp_operation()`. Idle lanes (`OpKind::None`) simply
    /// participate in the cooperation, as on real hardware.
    ///
    /// `alloc_state` is the executing warp's allocator state (its resident
    /// block); results land in each request's `result` field.
    pub fn process_warp(
        &self,
        ctx: &mut WarpCtx,
        alloc_state: &mut A::WarpState,
        reqs: &mut [Request],
    ) {
        assert!(
            reqs.len() <= WARP_SIZE,
            "a warp executes at most 32 requests (got {})",
            reqs.len()
        );
        let budget = self.retry_budget();
        // Pin the epoch for the whole warp operation: no compaction pass
        // can rewrite a chain this warp may still traverse.
        let _pin = self.epoch_pin();
        let mut kinds = [OpKind::None; WARP_SIZE];
        let mut keys = [EMPTY_KEY; WARP_SIZE];
        let mut values = [0u32; WARP_SIZE];
        let mut active = [false; WARP_SIZE];
        for (lane, req) in reqs.iter_mut().enumerate() {
            if req.op != OpKind::None {
                validate_key(req.key);
                kinds[lane] = req.op;
                keys[lane] = req.key;
                values[lane] = req.value;
                active[lane] = true;
                req.result = OpResult::Pending;
            }
        }
        // Scratch for the multi-result operations.
        let mut found_all: [Vec<u32>; WARP_SIZE] = std::array::from_fn(|_| Vec::new());
        let mut deleted_count = [0u32; WARP_SIZE];
        // Lost-CAS count per request, against RETRY_BUDGET.
        let mut retries = [0u32; WARP_SIZE];
        // Contention response: jittered exponential backoff, seeded per warp
        // so competing warps decorrelate. Only consulted on rounds that lost
        // a CAS — the uncontended path never touches it.
        let mut backoff = crate::backoff::Backoff::new(0xCA5 ^ ctx.warp_id as u64);
        // Telemetry: rounds spent as the source lane and chain hops taken,
        // per request (recorded into histograms / trace when it finishes).
        let mut rounds_per_req = [0u32; WARP_SIZE];
        let mut chain_steps = [0u32; WARP_SIZE];

        let mut next = BASE_SLAB;
        let mut last_work_queue = 0u32;
        loop {
            let work_queue = ballot(&active, |a| a);
            if work_queue == 0 {
                break;
            }
            ctx.counters.warp_rounds += 1;
            // "next ← (if work_queue is changed) ? (BASE_SLAB) : next"
            if work_queue != last_work_queue {
                next = BASE_SLAB;
            }
            last_work_queue = work_queue;

            // next_prior(): lowest active lane; shuffle its key; hash it.
            let src_lane = ffs(work_queue).expect("non-empty work queue");
            let src_key = keys[src_lane];
            let src_bucket = self.hash_fn().bucket(src_key);
            rounds_per_req[src_lane] += 1;

            // Telemetry snapshots for this round; `retries` stays live for
            // the budget check below, so the finisher takes it as an
            // argument instead of capturing it.
            let op_name = kinds[src_lane].name();
            let rounds_now = rounds_per_req[src_lane];
            let chain_now = chain_steps[src_lane] + 1;
            let finish = |reqs: &mut [Request],
                              active: &mut [bool; WARP_SIZE],
                              ctx: &mut WarpCtx,
                              retries_now: u32,
                              result: OpResult| {
                ctx.histograms.rounds_per_op.record(rounds_now as u64);
                ctx.histograms.retries_per_op.record(retries_now as u64);
                ctx.histograms.chain_slabs.record(chain_now as u64);
                ctx.trace(EventKind::Op {
                    op: op_name,
                    key: src_key,
                    bucket: src_bucket,
                    rounds: rounds_now,
                    retries: retries_now,
                    chain: chain_now,
                    status: result.tag(),
                });
                reqs[src_lane].result = result;
                active[src_lane] = false;
                ctx.counters.ops += 1;
            };

            let cas_failures_before = ctx.counters.cas_failures;
            let next_before = next;
            let read_data = self.read_slab(src_bucket, next, ctx);
            match kinds[src_lane] {
                OpKind::Search => {
                    let found = ballot_eq(&read_data, src_key) & L::KEY_LANES;
                    if let Some(lane) = ffs(found) {
                        let value = read_data[L::value_lane(lane)];
                        finish(reqs, &mut active, ctx, retries[src_lane],OpResult::Found(value));
                    } else if read_data[ADDRESS_LANE] == EMPTY_PTR {
                        finish(reqs, &mut active, ctx, retries[src_lane],OpResult::NotFound);
                    } else {
                        next = read_data[ADDRESS_LANE];
                    }
                }

                OpKind::SearchAll => {
                    let mut found = ballot_eq(&read_data, src_key) & L::KEY_LANES;
                    while let Some(lane) = ffs(found) {
                        found_all[src_lane].push(read_data[L::value_lane(lane)]);
                        found &= !(1 << lane);
                    }
                    if read_data[ADDRESS_LANE] == EMPTY_PTR {
                        let values = std::mem::take(&mut found_all[src_lane]);
                        let result = if values.is_empty() {
                            OpResult::NotFound
                        } else {
                            OpResult::FoundAll(values)
                        };
                        finish(reqs, &mut active, ctx, retries[src_lane],result);
                    } else {
                        next = read_data[ADDRESS_LANE];
                    }
                }

                OpKind::Replace => {
                    // "dest_lane ← ffs(ballot(read_data == EMPTY ||
                    //                         read_data == myKey))"
                    let candidates = (ballot_eq(&read_data, EMPTY_KEY)
                        | ballot_eq(&read_data, src_key))
                        & L::KEY_LANES;
                    if let Some(dest) = ffs(candidates) {
                        if let Some(result) = self.try_claim_slot(
                            ctx,
                            src_bucket,
                            next,
                            dest,
                            &read_data,
                            src_key,
                            values[src_lane],
                            /* reuse_deleted = */ false,
                        ) {
                            finish(reqs, &mut active, ctx, retries[src_lane],result);
                        }
                        // CAS lost: retry — re-read the same slab next round.
                    } else if let Err(e) =
                        self.follow_or_allocate(ctx, alloc_state, src_bucket, &mut next, &read_data)
                    {
                        finish(reqs, &mut active, ctx, retries[src_lane],OpResult::Failed(e));
                    }
                }

                OpKind::Insert => {
                    // Duplicates allowed: any empty *or tombstoned* slot will
                    // do ("later insertions can potentially find these empty
                    // spots down the list and insert new items in them").
                    let candidates = (ballot_eq(&read_data, EMPTY_KEY)
                        | ballot_eq(&read_data, DELETED_KEY))
                        & L::KEY_LANES;
                    if let Some(dest) = ffs(candidates) {
                        if let Some(result) = self.try_claim_slot(
                            ctx,
                            src_bucket,
                            next,
                            dest,
                            &read_data,
                            src_key,
                            values[src_lane],
                            /* reuse_deleted = */ true,
                        ) {
                            finish(reqs, &mut active, ctx, retries[src_lane],result);
                        }
                    } else if let Err(e) =
                        self.follow_or_allocate(ctx, alloc_state, src_bucket, &mut next, &read_data)
                    {
                        finish(reqs, &mut active, ctx, retries[src_lane],OpResult::Failed(e));
                    }
                }

                OpKind::Delete | OpKind::DeleteAll => {
                    let found = ballot_eq(&read_data, src_key) & L::KEY_LANES;
                    if let Some(dest) = ffs(found) {
                        if let Some(old_value) = self.try_tombstone(
                            ctx,
                            src_bucket,
                            next,
                            dest,
                            read_data[L::value_lane(dest)],
                            src_key,
                        ) {
                            if kinds[src_lane] == OpKind::Delete {
                                finish(reqs, &mut active, ctx, retries[src_lane],OpResult::Deleted(old_value));
                            } else {
                                deleted_count[src_lane] += 1;
                                // Re-read this slab: more matches may remain.
                            }
                        }
                        // CAS lost: re-read and retry.
                    } else if read_data[ADDRESS_LANE] == EMPTY_PTR {
                        // End of list: "the operation terminates successfully".
                        let result = if kinds[src_lane] == OpKind::Delete {
                            OpResult::NotFound
                        } else {
                            OpResult::DeletedCount(deleted_count[src_lane])
                        };
                        finish(reqs, &mut active, ctx, retries[src_lane],result);
                    } else {
                        next = read_data[ADDRESS_LANE];
                    }
                }

                OpKind::None => unreachable!("idle lanes never enter the work queue"),
            }

            // One slab-chain hop was taken this round on behalf of the
            // source lane's request (telemetry only).
            if next != next_before {
                chain_steps[src_lane] += 1;
            }

            // Bound the retry loop: every lost (or injected) CAS in this
            // round was on behalf of the source lane's request; a request
            // that burns the whole budget fails instead of livelocking.
            let penalty = (ctx.counters.cas_failures - cas_failures_before) as u32;
            if active[src_lane] && penalty > 0 {
                retries[src_lane] += penalty;
                if retries[src_lane] > budget {
                    ctx.counters.retry_exhaustions += 1;
                    finish(
                        reqs,
                        &mut active,
                        ctx,
                        retries[src_lane],
                        OpResult::Failed(TableError::RetryBudgetExhausted { budget }),
                    );
                } else {
                    // A CAS storm on this bucket: back off (jittered, scaled
                    // by this request's accumulated retries) before the
                    // re-read, instead of hot-spinning into the same
                    // collision every competitor retries at once.
                    backoff.wait_attempt(retries[src_lane].min(12));
                }
            }
        }
    }

    /// The source lane's insertion CAS into `dest` of the slab at
    /// (bucket, ptr). Returns the finished result, or `None` when the CAS
    /// lost and the operation must retry.
    ///
    /// The key–value layout uses the paper's single 64-bit `atomicCAS` of
    /// the whole pair; key-only uses a 32-bit CAS of the key lane.
    #[allow(clippy::too_many_arguments)]
    fn try_claim_slot(
        &self,
        ctx: &mut WarpCtx,
        bucket: u32,
        ptr: u32,
        dest: usize,
        read_data: &[u32; WARP_SIZE],
        key: u32,
        value: u32,
        reuse_deleted: bool,
    ) -> Option<OpResult> {
        // Fault injection happens here, not in the storage layer: reporting
        // "lost" without performing the CAS is exactly the retry path the
        // caller already handles (re-read the slab next round).
        if simt::chaos::should_fail_cas() {
            ctx.counters.cas_failures += 1;
            return None;
        }
        let observed_key = read_data[dest];
        debug_assert!(
            observed_key == EMPTY_KEY
                || observed_key == key
                || (reuse_deleted && observed_key == DELETED_KEY)
        );
        let loc = self.slab_loc(bucket, ptr, ctx);
        if L::HAS_VALUES {
            let observed_value = read_data[L::value_lane(dest)];
            let expected = pack_pair(observed_key, observed_value);
            let desired = pack_pair(key, value);
            let old = loc
                .storage
                .cas_pair(loc.slab, dest / 2, expected, desired, &mut ctx.counters);
            if old == expected {
                Some(if observed_key == key {
                    OpResult::Replaced(observed_value)
                } else {
                    OpResult::Inserted
                })
            } else {
                ctx.counters.cas_failures += 1;
                None
            }
        } else if observed_key == key {
            // Key-only set semantics: the key is already present.
            Some(OpResult::Replaced(key))
        } else {
            let old = loc
                .storage
                .cas_lane(loc.slab, dest, observed_key, key, &mut ctx.counters);
            if old == observed_key {
                Some(OpResult::Inserted)
            } else if old == key {
                // Another warp inserted the same key into this very slot.
                Some(OpResult::Replaced(key))
            } else {
                ctx.counters.cas_failures += 1;
                None
            }
        }
    }

    /// Tombstones `dest` (whose key lane was observed holding `key`),
    /// returning the removed value on success or `None` when a concurrent
    /// update won the slot.
    ///
    /// Deviation (documented in DESIGN.md §7): the paper's DELETE uses a
    /// plain store of `DELETED_KEY` (Fig. 2 line 59); we CAS against the
    /// observed contents so a tombstone can never clobber a slot that a
    /// concurrent INSERT has already reused for a different key. Transaction
    /// cost is identical (one 32 B RMW).
    fn try_tombstone(
        &self,
        ctx: &mut WarpCtx,
        bucket: u32,
        ptr: u32,
        dest: usize,
        observed_value: u32,
        key: u32,
    ) -> Option<u32> {
        // Same retry-safe injection point as `try_claim_slot`.
        if simt::chaos::should_fail_cas() {
            ctx.counters.cas_failures += 1;
            return None;
        }
        let loc = self.slab_loc(bucket, ptr, ctx);
        if L::HAS_VALUES {
            let expected = pack_pair(key, observed_value);
            let desired = pack_pair(DELETED_KEY, observed_value);
            let old = loc
                .storage
                .cas_pair(loc.slab, dest / 2, expected, desired, &mut ctx.counters);
            if old == expected {
                Some(unpack_pair(old).1)
            } else {
                ctx.counters.cas_failures += 1;
                None
            }
        } else {
            let old = loc
                .storage
                .cas_lane(loc.slab, dest, key, DELETED_KEY, &mut ctx.counters);
            if old == key {
                Some(key)
            } else {
                ctx.counters.cas_failures += 1;
                None
            }
        }
    }

    /// Advances `next` down the list, allocating and linking a fresh slab at
    /// the tail if needed (Fig. 2 lines 41–52). On a lost link CAS the
    /// freshly allocated slab is returned to the allocator and traversal
    /// continues into the winner's slab.
    ///
    /// # Errors
    /// [`TableError::OutOfSlabs`] when the allocator cannot serve the slab.
    /// Nothing is published on failure — the allocation either never
    /// happened or never reached the link CAS — so the chain is exactly as
    /// the caller read it and the table stays consistent.
    fn follow_or_allocate(
        &self,
        ctx: &mut WarpCtx,
        alloc_state: &mut A::WarpState,
        bucket: u32,
        next: &mut u32,
        read_data: &[u32; WARP_SIZE],
    ) -> Result<(), TableError> {
        let next_ptr = read_data[ADDRESS_LANE];
        if next_ptr != EMPTY_PTR {
            *next = next_ptr;
            return Ok(());
        }
        let new_slab = self
            .allocator()
            .try_allocate(alloc_state, ctx)
            .map_err(TableError::OutOfSlabs)?;
        let loc = self.slab_loc(bucket, *next, ctx);
        let old = loc.storage.cas_lane(
            loc.slab,
            ADDRESS_LANE,
            EMPTY_PTR,
            new_slab,
            &mut ctx.counters,
        );
        if old == EMPTY_PTR {
            *next = new_slab;
        } else {
            // "some other warp has successfully allocated and inserted the
            // new slab and hence, this warp's allocated slab should be
            // deallocated".
            ctx.counters.cas_failures += 1;
            self.allocator().deallocate(new_slab, ctx);
            *next = old;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::{KeyOnly, KeyValue};
    use crate::hash_table::SlabHashConfig;
    use crate::WarpDriver;

    fn kv_table(buckets: u32) -> SlabHash<KeyValue> {
        SlabHash::<KeyValue>::new(SlabHashConfig::with_buckets(buckets))
    }

    fn ko_table(buckets: u32) -> SlabHash<KeyOnly> {
        SlabHash::<KeyOnly>::new(SlabHashConfig::with_buckets(buckets))
    }

    #[test]
    fn replace_insert_search_roundtrip_kv() {
        let t = kv_table(8);
        let mut w = WarpDriver::new(&t);
        for k in 0..100u32 {
            assert_eq!(w.replace(k, k + 1000), None);
        }
        for k in 0..100u32 {
            assert_eq!(w.search(k), Some(k + 1000), "key {k}");
        }
        assert_eq!(w.search(100), None);
    }

    #[test]
    fn replace_updates_value_in_place() {
        let t = kv_table(4);
        let mut w = WarpDriver::new(&t);
        w.replace(7, 70);
        assert_eq!(w.replace(7, 71), Some(70));
        assert_eq!(w.replace(7, 72), Some(71));
        assert_eq!(w.search(7), Some(72));
        // Uniqueness: exactly one live instance of key 7.
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn delete_then_search_misses() {
        let t = kv_table(4);
        let mut w = WarpDriver::new(&t);
        w.replace(1, 10);
        w.replace(2, 20);
        assert_eq!(w.delete(1), Some(10));
        assert_eq!(w.search(1), None);
        assert_eq!(w.search(2), Some(20));
        assert_eq!(w.delete(1), None, "double delete misses");
    }

    #[test]
    fn replace_does_not_reuse_tombstones() {
        // Uniqueness-preserving insertion must not write into DELETED slots
        // (the key could exist further down the list).
        let t = kv_table(1);
        let mut w = WarpDriver::new(&t);
        w.replace(1, 10);
        w.replace(2, 20);
        w.delete(1);
        w.replace(3, 30);
        // Key 3 must land in a fresh slot, not over key 1's tombstone.
        let audit = t.audit().unwrap();
        assert_eq!(audit.tombstones, 1);
        assert_eq!(audit.live_elements, 2);
    }

    #[test]
    fn insert_allows_duplicates_and_reuses_tombstones() {
        let t = kv_table(1);
        let mut w = WarpDriver::new(&t);
        assert_eq!(w.insert(5, 50), OpResult::Inserted);
        assert_eq!(w.insert(5, 51), OpResult::Inserted);
        assert_eq!(w.insert(5, 52), OpResult::Inserted);
        let mut all = w.search_all(5);
        all.sort_unstable();
        assert_eq!(all, vec![50, 51, 52]);
        // DELETE removes the least recently inserted first.
        assert_eq!(w.delete(5), Some(50));
        // INSERT may reuse the tombstone: no new slab needed, and the table
        // holds the remaining two plus the new one.
        w.insert(6, 60);
        let audit = t.audit().unwrap();
        assert_eq!(audit.tombstones, 0, "tombstone reused by INSERT");
        assert_eq!(audit.live_elements, 3);
    }

    #[test]
    fn delete_all_removes_every_instance() {
        let t = kv_table(2);
        let mut w = WarpDriver::new(&t);
        for v in 0..40 {
            w.insert(9, v);
        }
        w.insert(8, 1);
        assert_eq!(w.delete_all(9), 40);
        assert_eq!(w.search(9), None);
        assert_eq!(w.search(8), Some(1));
        assert_eq!(w.delete_all(9), 0, "idempotent on absent key");
    }

    #[test]
    fn search_all_spans_multiple_slabs() {
        let t = kv_table(1);
        let mut w = WarpDriver::new(&t);
        // 40 duplicates > 15 per slab: at least 3 slabs.
        for v in 0..40 {
            w.insert(3, v);
        }
        let found = w.search_all(3);
        assert_eq!(found.len(), 40);
        assert!(t.bucket_slab_count(0) >= 3);
        assert_eq!(w.search_all(4), Vec::<u32>::new());
    }

    #[test]
    fn chain_growth_links_new_slabs() {
        let t = kv_table(1);
        let mut w = WarpDriver::new(&t);
        // One bucket, 100 unique keys: ceil(100/15) = 7 slabs.
        for k in 0..100 {
            w.replace(k, k);
        }
        assert_eq!(t.bucket_slab_count(0), 7);
        assert_eq!(t.allocator().allocated_slabs(), 6);
        for k in 0..100 {
            assert_eq!(w.search(k), Some(k));
        }
        t.audit().unwrap();
    }

    #[test]
    fn key_only_set_semantics() {
        let t = ko_table(4);
        let mut w = WarpDriver::new(&t);
        assert_eq!(w.run(Request::replace(11, 0)), OpResult::Inserted);
        assert_eq!(w.run(Request::replace(11, 0)), OpResult::Replaced(11));
        assert_eq!(w.search(11), Some(11));
        assert_eq!(t.len(), 1);
        assert_eq!(w.delete(11), Some(11));
        assert!(!w.contains(11));
    }

    #[test]
    fn key_only_packs_30_keys_per_slab() {
        let t = ko_table(1);
        let mut w = WarpDriver::new(&t);
        for k in 0..30 {
            w.replace(k, 0);
        }
        assert_eq!(t.bucket_slab_count(0), 1, "30 keys fit the base slab");
        w.replace(30, 0);
        assert_eq!(t.bucket_slab_count(0), 2, "31st key forces a chained slab");
    }

    #[test]
    fn key_value_packs_15_pairs_per_slab() {
        let t = kv_table(1);
        let mut w = WarpDriver::new(&t);
        for k in 0..15 {
            w.replace(k, k);
        }
        assert_eq!(t.bucket_slab_count(0), 1);
        w.replace(15, 15);
        assert_eq!(t.bucket_slab_count(0), 2);
    }

    #[test]
    fn full_warp_of_mixed_operations() {
        let t = kv_table(16);
        let mut w = WarpDriver::new(&t);
        for k in 0..10 {
            w.replace(k, k * 10);
        }
        let mut batch: Vec<Request> = Vec::new();
        for k in 0..8 {
            batch.push(Request::search(k)); // hits
        }
        for k in 100..108 {
            batch.push(Request::search(k)); // misses
        }
        for k in 20..28 {
            batch.push(Request::replace(k, 1)); // new inserts
        }
        for k in 8..10 {
            batch.push(Request::delete(k));
        }
        for k in 200..206 {
            batch.push(Request::delete(k)); // delete misses
        }
        assert_eq!(batch.len(), 32);
        w.execute(&mut batch);
        for (i, r) in batch.iter().enumerate() {
            match i {
                0..=7 => assert_eq!(r.result, OpResult::Found(i as u32 * 10)),
                8..=15 => assert_eq!(r.result, OpResult::NotFound),
                16..=23 => assert_eq!(r.result, OpResult::Inserted),
                24..=25 => assert!(matches!(r.result, OpResult::Deleted(_))),
                _ => assert_eq!(r.result, OpResult::NotFound),
            }
        }
        assert_eq!(t.len(), 8 + 8);
    }

    #[test]
    fn empty_and_padded_batches() {
        let t = kv_table(4);
        let mut w = WarpDriver::new(&t);
        let mut batch: Vec<Request> = vec![Request::default(); 5];
        batch[2] = Request::replace(1, 2);
        w.execute(&mut batch);
        assert_eq!(batch[2].result, OpResult::Inserted);
        assert_eq!(batch[0].result, OpResult::Pending);
        let mut empty: [Request; 0] = [];
        w.execute(&mut empty);
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn reserved_keys_rejected() {
        let t = kv_table(4);
        let mut w = WarpDriver::new(&t);
        w.replace(crate::entry::EMPTY_KEY, 0);
    }

    #[test]
    #[should_panic(expected = "at most 32")]
    fn oversized_batch_rejected() {
        let t = kv_table(4);
        let mut w = WarpDriver::new(&t);
        let mut batch = vec![Request::search(0); 33];
        w.execute(&mut batch);
    }

    #[test]
    fn search_transaction_count_single_slab() {
        // Paper accounting (§IV): on a default table a hit in the base slab
        // costs exactly one coalesced 128 B slab read and nothing else.
        let t = kv_table(8);
        let mut w = WarpDriver::new(&t);
        w.replace(1, 5);
        w.reset_counters();
        assert_eq!(w.search(1), Some(5));
        assert_eq!(w.counters().slab_reads, 1);
        assert_eq!(w.counters().tag_reads, 0, "no tag vector to read");
        assert_eq!(w.counters().sector_reads, 0);
        assert_eq!(w.counters().atomics, 0);
        assert_eq!(w.counters().warp_rounds, 1);
    }

    #[test]
    fn insert_transaction_count_fast_path() {
        // Paper §VI-A: "for insertion, ideally we will have one memory
        // access (reading the slab) and a single atomicCAS".
        let t = kv_table(8);
        let mut w = WarpDriver::new(&t);
        w.reset_counters();
        w.replace(1, 5);
        assert_eq!(w.counters().slab_reads, 1);
        assert_eq!(w.counters().atomics, 1);
    }

    #[test]
    fn unsuccessful_search_walks_whole_chain() {
        let t = kv_table(1);
        let mut w = WarpDriver::new(&t);
        for k in 0..45 {
            w.replace(k, k); // 3 slabs
        }
        w.reset_counters();
        assert_eq!(w.search(999), None);
        assert_eq!(
            w.counters().slab_reads,
            t.bucket_slab_count(0) as u64,
            "a miss reads every slab in the chain"
        );
    }

    #[test]
    fn values_may_use_full_u32_range() {
        let t = kv_table(4);
        let mut w = WarpDriver::new(&t);
        w.replace(1, u32::MAX);
        w.replace(2, 0);
        assert_eq!(w.search(1), Some(u32::MAX));
        assert_eq!(w.search(2), Some(0));
    }

    #[test]
    fn key_zero_is_valid() {
        let t = kv_table(4);
        let mut w = WarpDriver::new(&t);
        w.replace(0, 123);
        assert_eq!(w.search(0), Some(123));
        assert_eq!(w.delete(0), Some(123));
    }

    #[test]
    fn op_result_helpers() {
        assert!(OpResult::Found(3).is_success());
        assert!(!OpResult::NotFound.is_success());
        assert!(!OpResult::Pending.is_success());
        assert_eq!(OpResult::Found(3).value(), Some(3));
        assert_eq!(OpResult::Deleted(9).value(), Some(9));
        assert_eq!(OpResult::NotFound.value(), None);
    }

    #[test]
    fn request_constructors_set_kind() {
        assert_eq!(Request::insert(1, 2).op, OpKind::Insert);
        assert_eq!(Request::replace(1, 2).op, OpKind::Replace);
        assert_eq!(Request::search(1).op, OpKind::Search);
        assert_eq!(Request::search_all(1).op, OpKind::SearchAll);
        assert_eq!(Request::delete(1).op, OpKind::Delete);
        assert_eq!(Request::delete_all(1).op, OpKind::DeleteAll);
    }
}

#[cfg(test)]
mod failure_tests {
    use super::*;
    use crate::entry::KeyValue;
    use crate::error::TableError;
    use crate::hash_table::SlabHashConfig;
    use crate::WarpDriver;
    use slab_alloc::{AllocError, SerialHeapSim};

    /// A single-bucket table over a `capacity`-slab allocator: base slab
    /// (15 pairs) plus at most `capacity` chained slabs of 15 pairs each.
    fn tiny_table(capacity: usize) -> SlabHash<KeyValue, SerialHeapSim> {
        SlabHash::with_allocator(
            SlabHashConfig::with_buckets(1),
            SerialHeapSim::new(capacity, EMPTY_KEY),
        )
    }

    #[test]
    fn exhaustion_fails_the_op_and_preserves_prior_keys() {
        let t = tiny_table(2); // 15 + 2*15 = 45 pairs, the 46th must fail
        let mut w = WarpDriver::new(&t);
        let mut inserted = Vec::new();
        let mut failure = None;
        for k in 0..100u32 {
            match w.checked_replace(k, k + 1) {
                Ok(None) => inserted.push(k),
                Ok(Some(_)) => unreachable!("keys are unique"),
                Err(e) => {
                    failure = Some(e);
                    break;
                }
            }
        }
        assert_eq!(
            failure,
            Some(TableError::OutOfSlabs(AllocError::OutOfSlabs {
                allocated: 2,
                capacity: 2,
            }))
        );
        assert_eq!(inserted.len(), 45);
        // Every previously inserted key is still searchable...
        for &k in &inserted {
            assert_eq!(w.search(k), Some(k + 1), "key {k} lost after failure");
        }
        // ...and the failure published nothing: chained == allocated.
        let audit = t.audit().unwrap();
        assert_eq!(audit.live_elements, 45);
        assert!(audit.no_leaks(), "failed insert leaked a slab: {audit:?}");
    }

    #[test]
    fn exhausted_table_recovers_through_tombstone_reuse() {
        let t = tiny_table(1);
        let mut w = WarpDriver::new(&t);
        while w.checked_replace(w.counters().ops as u32, 0).is_ok() {}
        // The allocator is dry, but INSERT reuses tombstones: freeing one
        // slot is enough for the next insertion to succeed without a slab.
        assert!(w.checked_insert(10_000, 1).is_err());
        w.delete(0).expect("key 0 was inserted");
        w.checked_insert(10_000, 1)
            .expect("tombstone reuse needs no allocation");
        assert_eq!(w.search(10_000), Some(1));
        t.audit().unwrap();
    }

    #[test]
    fn partial_batch_failure_leaves_completed_requests_applied() {
        let t = tiny_table(1); // 30 pairs max
        let mut w = WarpDriver::new(&t);
        let mut batch: Vec<Request> = (0..32u32).map(|k| Request::replace(k, k)).collect();
        w.execute(&mut batch);
        let ok = batch
            .iter()
            .filter(|r| r.result == OpResult::Inserted)
            .count();
        let failed = batch
            .iter()
            .filter(|r| matches!(r.result, OpResult::Failed(TableError::OutOfSlabs(_))))
            .count();
        assert_eq!(ok, 30);
        assert_eq!(failed, 2, "the overflowing requests fail, others apply");
        assert_eq!(t.len(), 30);
        assert!(t.audit().unwrap().no_leaks());
    }

    #[test]
    fn injected_cas_storm_burns_the_retry_budget() {
        let t = SlabHash::<KeyValue>::new(SlabHashConfig::with_buckets(2));
        let mut w = WarpDriver::new(&t);
        let guard = simt::ChaosGuard::plan(
            simt::FaultPlan::seeded(0x0BAD_CA55).with_cas_failures(1.0),
        );
        let err = w
            .checked_replace(1, 2)
            .expect_err("every CAS fails: the op must give up, not livelock");
        assert_eq!(
            err,
            TableError::RetryBudgetExhausted {
                budget: RETRY_BUDGET
            }
        );
        assert_eq!(w.counters().retry_exhaustions, 1, "billed to counters");
        assert!(w.counters().cas_failures > RETRY_BUDGET as u64);
        drop(guard);
        // With the fault plan gone the same op succeeds immediately.
        assert_eq!(w.checked_replace(1, 2), Ok(None));
        assert_eq!(w.search(1), Some(2));
        t.audit().unwrap();
    }

    #[test]
    fn injected_delete_failures_also_bounded() {
        let t = SlabHash::<KeyValue>::new(SlabHashConfig::with_buckets(2));
        let mut w = WarpDriver::new(&t);
        w.replace(7, 70);
        let _guard = simt::ChaosGuard::plan(
            simt::FaultPlan::seeded(0xD_E1E7E).with_cas_failures(1.0),
        );
        assert_eq!(
            w.checked_delete(7),
            Err(TableError::RetryBudgetExhausted {
                budget: RETRY_BUDGET
            })
        );
        drop(_guard);
        assert_eq!(w.search(7), Some(70), "failed delete left the element");
        assert_eq!(w.checked_delete(7), Ok(Some(70)));
    }

    #[test]
    fn per_thread_path_surfaces_alloc_failure() {
        let t = tiny_table(1);
        let mut ctx = WarpCtx::for_test(0);
        let mut reqs: Vec<Request> = (0..32u32).map(|k| Request::replace(k, k)).collect();
        t.process_warp_per_thread(&mut ctx, &mut (), &mut reqs);
        let failed = reqs
            .iter()
            .filter(|r| matches!(r.result, OpResult::Failed(TableError::OutOfSlabs(_))))
            .count();
        assert_eq!(failed, 2, "31st and 32nd key cannot fit in 30 slots");
        assert_eq!(t.len(), 30);
        t.audit().unwrap();
    }
}
