//! A host-side convenience driver: one simulated warp you can hand
//! individual operations.
//!
//! Bulk and concurrent workloads go through [`crate::bulk`]; examples,
//! tests, and interactive use want a plain `insert`/`search` interface. A
//! [`WarpDriver`] owns one warp's context (counters + allocator resident
//! state) and executes requests through the same warp-cooperative code path
//! as everything else — there is no separate sequential implementation to
//! drift out of sync.

use simt::{PerfCounters, WarpCtx};
use slab_alloc::{SlabAlloc, SlabAllocator};

use crate::entry::EntryLayout;
use crate::error::TableError;
use crate::hash_table::SlabHash;
use crate::ops::{OpResult, Request};

/// One simulated warp bound to a table.
pub struct WarpDriver<'t, L: EntryLayout, A: SlabAllocator = SlabAlloc> {
    table: &'t SlabHash<L, A>,
    ctx: WarpCtx,
    alloc_state: A::WarpState,
}

impl<'t, L: EntryLayout, A: SlabAllocator> WarpDriver<'t, L, A> {
    /// A driver warp with warp id 0.
    pub fn new(table: &'t SlabHash<L, A>) -> Self {
        Self::with_warp_id(table, 0)
    }

    /// A driver warp with an explicit warp id (affects which resident
    /// memory block the allocator assigns it).
    pub fn with_warp_id(table: &'t SlabHash<L, A>, warp_id: usize) -> Self {
        Self {
            table,
            ctx: WarpCtx::for_test(warp_id),
            alloc_state: table.allocator().new_warp_state(),
        }
    }

    /// Executes a batch of up to 32 requests in one warp pass.
    pub fn execute(&mut self, reqs: &mut [Request]) {
        self.table
            .process_warp(&mut self.ctx, &mut self.alloc_state, reqs);
    }

    /// Executes a single request and returns its result.
    pub fn run(&mut self, req: Request) -> OpResult {
        let mut batch = [req];
        self.execute(&mut batch);
        std::mem::take(&mut batch[0].result)
    }

    /// INSERT(k, v) (duplicates allowed).
    pub fn insert(&mut self, key: u32, value: u32) -> OpResult {
        self.run(Request::insert(key, value))
    }

    /// Fallible INSERT(k, v): surfaces allocator exhaustion / a burned
    /// retry budget as a structured error instead of an [`OpResult`].
    ///
    /// # Errors
    /// The [`TableError`] when the insertion could not complete; the table
    /// is consistent and the element was not inserted.
    pub fn checked_insert(&mut self, key: u32, value: u32) -> Result<(), TableError> {
        match self.run(Request::insert(key, value)) {
            OpResult::Failed(e) => Err(e),
            OpResult::Inserted => Ok(()),
            other => unreachable!("insert returned {other:?}"),
        }
    }

    /// REPLACE(k, v); returns the previous value if the key existed.
    ///
    /// # Panics
    /// Panics on a [`TableError`] (allocator exhausted, retry budget
    /// burned); use [`WarpDriver::checked_replace`] to recover instead.
    pub fn replace(&mut self, key: u32, value: u32) -> Option<u32> {
        self.checked_replace(key, value)
            .unwrap_or_else(|e| panic!("REPLACE({key}) failed: {e}"))
    }

    /// Fallible REPLACE(k, v); returns the previous value if the key
    /// existed.
    ///
    /// # Errors
    /// The [`TableError`] when the operation could not complete; the table
    /// is consistent and holds whatever value the key had before.
    pub fn checked_replace(&mut self, key: u32, value: u32) -> Result<Option<u32>, TableError> {
        match self.run(Request::replace(key, value)) {
            OpResult::Replaced(old) => Ok(Some(old)),
            OpResult::Inserted => Ok(None),
            OpResult::Failed(e) => Err(e),
            other => unreachable!("replace returned {other:?}"),
        }
    }

    /// TRYINSERT(k, v): inserts only if absent. `Ok(())` on insertion,
    /// `Err(existing_value)` when the key is already present.
    ///
    /// # Panics
    /// Panics on a [`TableError`] (resource failure, as opposed to the
    /// key being present, which is the `Err(existing)` return).
    pub fn try_insert(&mut self, key: u32, value: u32) -> Result<(), u32> {
        match self.run(Request::try_insert(key, value)) {
            OpResult::Inserted => Ok(()),
            OpResult::Found(existing) => Err(existing),
            OpResult::Failed(e) => panic!("TRYINSERT({key}) failed: {e}"),
            other => unreachable!("try_insert returned {other:?}"),
        }
    }

    /// COMPAREEXCHANGE(k, expected, new): atomically swaps the key's value
    /// iff it equals `expected`. `Ok(expected)` on success;
    /// `Err(Some(actual))` on comparand mismatch; `Err(None)` when the key
    /// is absent. Key–value layout only.
    ///
    /// # Panics
    /// Panics on a [`TableError`].
    pub fn compare_exchange(
        &mut self,
        key: u32,
        expected: u32,
        new: u32,
    ) -> Result<u32, Option<u32>> {
        match self.run(Request::compare_exchange(key, expected, new)) {
            OpResult::Replaced(prev) => Ok(prev),
            OpResult::Found(actual) => Err(Some(actual)),
            OpResult::NotFound => Err(None),
            OpResult::Failed(e) => panic!("COMPAREEXCHANGE({key}) failed: {e}"),
            other => unreachable!("compare_exchange returned {other:?}"),
        }
    }

    /// SEARCH(k): the least recently inserted value for `key`.
    pub fn search(&mut self, key: u32) -> Option<u32> {
        match self.run(Request::search(key)) {
            OpResult::Found(v) => Some(v),
            OpResult::NotFound => None,
            other => unreachable!("search returned {other:?}"),
        }
    }

    /// SEARCHALL(k): every value stored for `key`, in traversal order.
    pub fn search_all(&mut self, key: u32) -> Vec<u32> {
        match self.run(Request::search_all(key)) {
            OpResult::FoundAll(v) => v,
            OpResult::NotFound => Vec::new(),
            other => unreachable!("search_all returned {other:?}"),
        }
    }

    /// DELETE(k): tombstones the first instance; returns its value.
    ///
    /// # Panics
    /// Panics on a [`TableError`]; use [`WarpDriver::checked_delete`] to
    /// recover instead.
    pub fn delete(&mut self, key: u32) -> Option<u32> {
        self.checked_delete(key)
            .unwrap_or_else(|e| panic!("DELETE({key}) failed: {e}"))
    }

    /// Fallible DELETE(k).
    ///
    /// # Errors
    /// The [`TableError`] when the operation could not complete; the
    /// element (if present) is untouched.
    pub fn checked_delete(&mut self, key: u32) -> Result<Option<u32>, TableError> {
        match self.run(Request::delete(key)) {
            OpResult::Deleted(v) => Ok(Some(v)),
            OpResult::NotFound => Ok(None),
            OpResult::Failed(e) => Err(e),
            other => unreachable!("delete returned {other:?}"),
        }
    }

    /// DELETEALL(k): tombstones every instance; returns how many.
    ///
    /// # Panics
    /// Panics on a [`TableError`].
    pub fn delete_all(&mut self, key: u32) -> u32 {
        match self.run(Request::delete_all(key)) {
            OpResult::DeletedCount(n) => n,
            OpResult::Failed(e) => panic!("DELETEALL({key}) failed: {e}"),
            other => unreachable!("delete_all returned {other:?}"),
        }
    }

    /// True iff `key` is currently present.
    pub fn contains(&mut self, key: u32) -> bool {
        self.search(key).is_some()
    }

    /// Transaction counters accumulated by this driver warp.
    pub fn counters(&self) -> &PerfCounters {
        &self.ctx.counters
    }

    /// Resets the driver's counters (e.g. to measure one phase).
    pub fn reset_counters(&mut self) {
        self.ctx.counters = PerfCounters::default();
    }

    /// The table this driver operates on.
    pub fn table(&self) -> &'t SlabHash<L, A> {
        self.table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::KeyValue;
    use crate::hash_table::SlabHashConfig;

    #[test]
    fn driver_counters_accumulate_and_reset() {
        let t = SlabHash::<KeyValue>::new(SlabHashConfig::with_buckets(4));
        let mut w = WarpDriver::new(&t);
        w.replace(1, 2);
        w.search(1);
        // The replace and the search each read the slab coalesced.
        assert!(w.counters().slab_reads >= 2);
        assert!(w.counters().ops >= 2);
        w.reset_counters();
        assert_eq!(*w.counters(), PerfCounters::default());
    }

    #[test]
    fn distinct_warp_ids_use_distinct_resident_blocks() {
        // Two driver warps with different ids should (overwhelmingly) draw
        // different resident blocks, so their first allocations differ.
        let t = SlabHash::<KeyValue>::new(SlabHashConfig::with_buckets(1));
        let mut w0 = WarpDriver::with_warp_id(&t, 0);
        let mut w1 = WarpDriver::with_warp_id(&t, 1);
        for k in 0..16 {
            w0.replace(k, 0); // forces slab allocation at k=15
        }
        for k in 100..116 {
            w1.replace(k, 0);
        }
        assert!(t.allocator().allocated_slabs() >= 1);
        assert_eq!(t.len(), 32);
    }

    #[test]
    fn table_accessor_returns_same_table() {
        let t = SlabHash::<KeyValue>::new(SlabHashConfig::with_buckets(4));
        let w = WarpDriver::new(&t);
        assert_eq!(w.table().num_buckets(), 4);
    }
}
