//! Ergonomic typed collections over the slab hash.
//!
//! The raw [`SlabHash`] API mirrors the paper: explicit operation kinds,
//! warp drivers, entry layouts. Downstream users mostly want three familiar
//! shapes, which these wrappers provide with conventional Rust naming:
//!
//! * [`SlabMap`] — a concurrent `u32 → u32` map (REPLACE semantics: unique
//!   keys, insert-or-update);
//! * [`SlabSet`] — a concurrent `u32` set (key-only layout, 30 keys per
//!   128 B slab);
//! * [`SlabMultiMap`] — a concurrent `u32 → u32` multimap (INSERT
//!   semantics: duplicates kept, SEARCHALL/DELETEALL available).
//!
//! All three are fully concurrent for mixed operations (the paper's
//! headline property) and expose the same bulk entry points the benchmarks
//! use. Single operations go through an internal driver warp per call-site
//! handle ([`SlabMap::handle`]), keeping the hot path allocation-free.
//!
//! ## Memory pressure
//!
//! Handles created through [`SlabMap::handle_with_policy`] (and the set /
//! multimap equivalents) self-heal: when an insertion fails with
//! `OutOfSlabs` or `RetryBudgetExhausted`, the handle runs the table's
//! [`maintenance`](crate::maintenance) loop — compact tombstoned slabs,
//! reclaim retired ones, grow the allocator — and then either retries
//! ([`Block`](crate::maintenance::PressureMode::Block)) or surfaces the
//! error after one heal pass
//! ([`Shed`](crate::maintenance::PressureMode::Shed)). Plain
//! [`SlabMap::handle`] keeps the historical fail-fast behavior.

use simt::{Grid, LaunchReport};

use crate::driver::WarpDriver;
use crate::entry::{EntryLayout, KeyOnly, KeyValue};
use crate::error::TableError;
use crate::hash_table::{SlabHash, SlabHashConfig};
use crate::maintenance::{MaintenancePolicy, MaintenanceReport};
use crate::ops::{OpResult, Request};

/// Runs `op`, healing and retrying under `policy` when it fails with a
/// pressure error. `None` policy = historical fail-fast behavior. The
/// maintenance passes run on `maint_grid` (handles use a sequential grid so
/// recovery never spawns threads from the caller's context).
fn with_recovery<L: EntryLayout, T>(
    table: &SlabHash<L>,
    policy: Option<&MaintenancePolicy>,
    maint_grid: &Grid,
    mut op: impl FnMut() -> Result<T, TableError>,
) -> Result<T, TableError> {
    let mut round = 0;
    loop {
        match op() {
            Ok(v) => return Ok(v),
            Err(e) => {
                let Some(policy) = policy else {
                    return Err(e);
                };
                if !table.recover(e, policy, maint_grid, round) {
                    return Err(e);
                }
                round += 1;
            }
        }
    }
}

/// A concurrent map with unique `u32` keys and `u32` values (REPLACE
/// semantics).
///
/// ```
/// use slab_hash::collections::SlabMap;
///
/// let map = SlabMap::with_capacity(10_000);
/// let mut h = map.handle();
/// assert_eq!(h.insert(7, 70), None);
/// assert_eq!(h.insert(7, 71), Some(70));
/// assert_eq!(h.get(7), Some(71));
/// assert_eq!(h.remove(7), Some(71));
/// assert!(map.is_empty());
/// ```
pub struct SlabMap {
    table: SlabHash<KeyValue>,
}

/// A per-call-site handle for single-element operations on a [`SlabMap`].
/// Each handle is one simulated warp; create one per thread of your own.
pub struct SlabMapHandle<'m> {
    warp: WarpDriver<'m, KeyValue>,
    policy: Option<MaintenancePolicy>,
    maint_grid: Grid,
}

impl SlabMap {
    /// A map sized for `n` elements at the paper's sweet-spot 60 %
    /// memory utilization.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            table: SlabHash::for_expected_elements(n.max(64), 0.6, 0x0005_ABA4),
        }
    }

    /// A map with an explicit bucket count (advanced sizing).
    pub fn with_buckets(buckets: u32) -> Self {
        Self {
            table: SlabHash::new(SlabHashConfig::with_buckets(buckets)),
        }
    }

    /// A handle for single-element operations (fail-fast under pressure).
    pub fn handle(&self) -> SlabMapHandle<'_> {
        SlabMapHandle {
            warp: WarpDriver::new(&self.table),
            policy: None,
            maint_grid: Grid::sequential(),
        }
    }

    /// A self-healing handle: insertions that hit memory pressure run the
    /// maintenance loop under `policy` (block = heal + retry, shed = heal
    /// once + fail fast) before surfacing an error.
    pub fn handle_with_policy(&self, policy: MaintenancePolicy) -> SlabMapHandle<'_> {
        SlabMapHandle {
            warp: WarpDriver::new(&self.table),
            policy: Some(policy),
            maint_grid: Grid::sequential(),
        }
    }

    /// One concurrent self-healing pass: compact, reclaim, grow. Safe to
    /// call from a background thread while handles keep operating.
    pub fn maintain(&self, grid: &Grid) -> MaintenanceReport {
        self.table.maintain(grid)
    }

    /// Concurrent-safe compaction through `&self` (unlike
    /// [`SlabMap::compact`], which needs `&mut self` but frees slabs
    /// immediately).
    ///
    /// # Errors
    /// [`TableError::MaintenanceBusy`] when another flusher holds the lock,
    /// or the first injected fault when a chaos plan is active.
    pub fn try_compact(&self, grid: &Grid) -> Result<crate::FlushReport, TableError> {
        self.table.try_flush(grid)
    }

    /// Inserts/updates many pairs concurrently.
    pub fn extend(&self, pairs: &[(u32, u32)], grid: &Grid) -> LaunchReport {
        self.table.bulk_build(pairs, grid)
    }

    /// Like [`SlabMap::extend`], but surfaces the first structured failure
    /// (allocator exhaustion, burned retry budget) instead of leaving it
    /// buried in per-request results. Pairs that completed remain applied.
    ///
    /// # Errors
    /// The first [`TableError`] any insertion hit.
    pub fn try_extend(&self, pairs: &[(u32, u32)], grid: &Grid) -> Result<LaunchReport, TableError> {
        self.table.try_bulk_build(pairs, grid)
    }

    /// Looks up many keys concurrently.
    pub fn get_many(&self, keys: &[u32], grid: &Grid) -> Vec<Option<u32>> {
        self.table.bulk_search(keys, grid).0
    }

    /// Removes many keys concurrently; `true` per removed key.
    pub fn remove_many(&self, keys: &[u32], grid: &Grid) -> Vec<bool> {
        self.table.bulk_delete(keys, grid).0
    }

    /// Live elements (full scan).
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// True when the map holds nothing.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// Every (key, value) pair (unordered).
    pub fn entries(&self) -> Vec<(u32, u32)> {
        self.table.collect_elements()
    }

    /// Compacts tombstones and releases surplus slabs (exclusive phase).
    pub fn compact(&mut self, grid: &Grid) -> crate::FlushReport {
        self.table.flush(grid)
    }

    /// The underlying paper-facing table.
    pub fn as_raw(&self) -> &SlabHash<KeyValue> {
        &self.table
    }
}

impl SlabMapHandle<'_> {
    /// Inserts or updates; returns the previous value.
    ///
    /// # Panics
    /// Panics on a [`TableError`]; use [`SlabMapHandle::checked_insert`]
    /// to recover instead.
    pub fn insert(&mut self, key: u32, value: u32) -> Option<u32> {
        self.checked_insert(key, value)
            .unwrap_or_else(|e| panic!("map insert({key}) failed: {e}"))
    }

    /// Fallible insert-or-update; returns the previous value. With a
    /// [`MaintenancePolicy`] (see [`SlabMap::handle_with_policy`]),
    /// pressure errors trigger heal-and-retry before surfacing.
    ///
    /// # Errors
    /// The [`TableError`] when the insertion could not complete (after the
    /// policy's recovery rounds, if any); the map is consistent and holds
    /// whatever the key mapped to before.
    pub fn checked_insert(&mut self, key: u32, value: u32) -> Result<Option<u32>, TableError> {
        let table = self.warp.table();
        let warp = &mut self.warp;
        with_recovery(table, self.policy.as_ref(), &self.maint_grid, || {
            warp.checked_replace(key, value)
        })
    }

    /// Looks up a key.
    pub fn get(&mut self, key: u32) -> Option<u32> {
        self.warp.search(key)
    }

    /// Removes a key; returns its value.
    pub fn remove(&mut self, key: u32) -> Option<u32> {
        self.warp.delete(key)
    }

    /// Membership test.
    pub fn contains_key(&mut self, key: u32) -> bool {
        self.warp.contains(key)
    }

    /// Read-modify-write: applies `f` to the current value (or `None`) and
    /// stores the result, retrying under concurrent modification until the
    /// update applies atomically. Returns the value that was stored.
    ///
    /// This is the lock-free upsert pattern the slab hash's 64-bit pair CAS
    /// enables (e.g. concurrent counters: `upsert(k, |v| v.unwrap_or(0) + 1)`).
    pub fn upsert(&mut self, key: u32, mut f: impl FnMut(Option<u32>) -> u32) -> u32 {
        loop {
            match self.warp.search(key) {
                None => {
                    let new = f(None);
                    // TryInsert never overwrites: a racing updater's value
                    // survives and we re-read it on the next iteration.
                    if self.warp.try_insert(key, new).is_ok() {
                        return new;
                    }
                }
                Some(current) => {
                    let new = f(Some(current));
                    // The pair CAS applies the transition exactly once.
                    if self.warp.compare_exchange(key, current, new).is_ok() {
                        return new;
                    }
                }
            }
        }
    }
}

/// A concurrent set of `u32` keys (key-only layout: 30 keys per slab).
///
/// ```
/// use slab_hash::collections::SlabSet;
///
/// let set = SlabSet::with_capacity(1_000);
/// let mut h = set.handle();
/// assert!(h.insert(42));
/// assert!(!h.insert(42));
/// assert!(h.contains(42));
/// assert!(h.remove(42));
/// assert!(set.is_empty());
/// ```
pub struct SlabSet {
    table: SlabHash<KeyOnly>,
}

/// Single-element operation handle for a [`SlabSet`].
pub struct SlabSetHandle<'s> {
    warp: WarpDriver<'s, KeyOnly>,
    policy: Option<MaintenancePolicy>,
    maint_grid: Grid,
}

impl SlabSet {
    /// A set sized for `n` keys at 60 % memory utilization.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            table: SlabHash::for_expected_elements(n.max(64), 0.6, 0x0005_AB5E),
        }
    }

    /// Single-element handle (fail-fast under pressure).
    pub fn handle(&self) -> SlabSetHandle<'_> {
        SlabSetHandle {
            warp: WarpDriver::new(&self.table),
            policy: None,
            maint_grid: Grid::sequential(),
        }
    }

    /// A self-healing handle; see [`SlabMap::handle_with_policy`].
    pub fn handle_with_policy(&self, policy: MaintenancePolicy) -> SlabSetHandle<'_> {
        SlabSetHandle {
            warp: WarpDriver::new(&self.table),
            policy: Some(policy),
            maint_grid: Grid::sequential(),
        }
    }

    /// One concurrent self-healing pass: compact, reclaim, grow.
    pub fn maintain(&self, grid: &Grid) -> MaintenanceReport {
        self.table.maintain(grid)
    }

    /// Inserts many keys concurrently.
    pub fn extend(&self, keys: &[u32], grid: &Grid) -> LaunchReport {
        self.table.bulk_build_keys(keys, grid)
    }

    /// Membership for many keys concurrently.
    pub fn contains_many(&self, keys: &[u32], grid: &Grid) -> Vec<bool> {
        self.table
            .bulk_search(keys, grid)
            .0
            .into_iter()
            .map(|r| r.is_some())
            .collect()
    }

    /// Live keys.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// The underlying table.
    pub fn as_raw(&self) -> &SlabHash<KeyOnly> {
        &self.table
    }
}

impl SlabSetHandle<'_> {
    /// Adds a key; `true` if it was new.
    ///
    /// # Panics
    /// Panics on a [`TableError`]; use [`SlabSetHandle::checked_insert`]
    /// to recover instead.
    pub fn insert(&mut self, key: u32) -> bool {
        self.checked_insert(key)
            .unwrap_or_else(|e| panic!("set insert({key}) failed: {e}"))
    }

    /// Fallible insert; `true` if the key was new. With a
    /// [`MaintenancePolicy`] (see [`SlabSet::handle_with_policy`]),
    /// pressure errors trigger heal-and-retry before surfacing.
    ///
    /// # Errors
    /// The [`TableError`] when the insertion could not complete (after the
    /// policy's recovery rounds, if any); the set membership is unchanged.
    pub fn checked_insert(&mut self, key: u32) -> Result<bool, TableError> {
        let table = self.warp.table();
        let warp = &mut self.warp;
        with_recovery(table, self.policy.as_ref(), &self.maint_grid, || {
            match warp.run(Request::replace(key, 0)) {
                OpResult::Inserted => Ok(true),
                OpResult::Replaced(_) => Ok(false),
                OpResult::Failed(e) => Err(e),
                other => unreachable!("set insert returned {other:?}"),
            }
        })
    }

    /// Membership test.
    pub fn contains(&mut self, key: u32) -> bool {
        self.warp.contains(key)
    }

    /// Removes a key; `true` if it was present.
    pub fn remove(&mut self, key: u32) -> bool {
        self.warp.delete(key).is_some()
    }
}

/// A concurrent multimap: duplicate keys kept, per-key value lists.
///
/// ```
/// use slab_hash::collections::SlabMultiMap;
///
/// let mm = SlabMultiMap::with_capacity(1_000);
/// let mut h = mm.handle();
/// h.insert(1, 10);
/// h.insert(1, 11);
/// assert_eq!(h.get_all(1).len(), 2);
/// assert_eq!(h.remove_all(1), 2);
/// ```
pub struct SlabMultiMap {
    table: SlabHash<KeyValue>,
}

/// Single-element operation handle for a [`SlabMultiMap`].
pub struct SlabMultiMapHandle<'m> {
    warp: WarpDriver<'m, KeyValue>,
    policy: Option<MaintenancePolicy>,
    maint_grid: Grid,
}

impl SlabMultiMap {
    /// A multimap sized for `n` total elements at 60 % utilization.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            table: SlabHash::for_expected_elements(n.max(64), 0.6, 0x0005_AB33),
        }
    }

    /// Single-element handle (fail-fast under pressure).
    pub fn handle(&self) -> SlabMultiMapHandle<'_> {
        SlabMultiMapHandle {
            warp: WarpDriver::new(&self.table),
            policy: None,
            maint_grid: Grid::sequential(),
        }
    }

    /// A self-healing handle; see [`SlabMap::handle_with_policy`].
    pub fn handle_with_policy(&self, policy: MaintenancePolicy) -> SlabMultiMapHandle<'_> {
        SlabMultiMapHandle {
            warp: WarpDriver::new(&self.table),
            policy: Some(policy),
            maint_grid: Grid::sequential(),
        }
    }

    /// One concurrent self-healing pass: compact, reclaim, grow.
    pub fn maintain(&self, grid: &Grid) -> MaintenanceReport {
        self.table.maintain(grid)
    }

    /// Concurrent-safe compaction through `&self`; see
    /// [`SlabMap::try_compact`].
    ///
    /// # Errors
    /// [`TableError::MaintenanceBusy`] when another flusher holds the lock,
    /// or the first injected fault when a chaos plan is active.
    pub fn try_compact(&self, grid: &Grid) -> Result<crate::FlushReport, TableError> {
        self.table.try_flush(grid)
    }

    /// Inserts many (key, value) elements concurrently (duplicates kept).
    pub fn extend(&self, pairs: &[(u32, u32)], grid: &Grid) -> LaunchReport {
        let mut reqs: Vec<Request> = pairs.iter().map(|&(k, v)| Request::insert(k, v)).collect();
        self.table.execute_batch(&mut reqs, grid)
    }

    /// Total stored elements.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// Compacts tombstones (exclusive phase).
    pub fn compact(&mut self, grid: &Grid) -> crate::FlushReport {
        self.table.flush(grid)
    }

    /// The underlying table.
    pub fn as_raw(&self) -> &SlabHash<KeyValue> {
        &self.table
    }
}

impl SlabMultiMapHandle<'_> {
    /// Adds one (key, value) element (duplicates allowed).
    ///
    /// # Panics
    /// Panics on a [`TableError`]; use
    /// [`SlabMultiMapHandle::checked_insert`] to recover instead.
    pub fn insert(&mut self, key: u32, value: u32) {
        self.checked_insert(key, value)
            .unwrap_or_else(|e| panic!("multimap insert({key}) failed: {e}"))
    }

    /// Fallible insert of one (key, value) element. With a
    /// [`MaintenancePolicy`] (see [`SlabMultiMap::handle_with_policy`]),
    /// pressure errors trigger heal-and-retry before surfacing.
    ///
    /// # Errors
    /// The [`TableError`] when the insertion could not complete (after the
    /// policy's recovery rounds, if any); the multimap is consistent and
    /// the element was not added.
    pub fn checked_insert(&mut self, key: u32, value: u32) -> Result<(), TableError> {
        let table = self.warp.table();
        let warp = &mut self.warp;
        with_recovery(table, self.policy.as_ref(), &self.maint_grid, || {
            warp.checked_insert(key, value)
        })
    }

    /// All values stored for `key`.
    pub fn get_all(&mut self, key: u32) -> Vec<u32> {
        self.warp.search_all(key)
    }

    /// Any one value for `key`.
    pub fn get_any(&mut self, key: u32) -> Option<u32> {
        self.warp.search(key)
    }

    /// Removes one instance of `key`; returns its value.
    pub fn remove_one(&mut self, key: u32) -> Option<u32> {
        self.warp.delete(key)
    }

    /// Removes every instance of `key`; returns how many.
    pub fn remove_all(&mut self, key: u32) -> u32 {
        self.warp.delete_all(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_basicapi() {
        let map = SlabMap::with_capacity(1_000);
        let mut h = map.handle();
        assert_eq!(h.insert(1, 10), None);
        assert_eq!(h.insert(2, 20), None);
        assert_eq!(h.insert(1, 11), Some(10));
        assert_eq!(h.get(1), Some(11));
        assert!(h.contains_key(2));
        assert_eq!(h.remove(2), Some(20));
        assert_eq!(map.len(), 1);
        let entries = map.entries();
        assert_eq!(entries, vec![(1, 11)]);
    }

    #[test]
    fn map_bulk_roundtrip() {
        let grid = Grid::new(4);
        let map = SlabMap::with_capacity(10_000);
        let pairs: Vec<(u32, u32)> = (0..10_000).map(|k| (k, k * 3)).collect();
        map.extend(&pairs, &grid);
        assert_eq!(map.len(), 10_000);
        let keys: Vec<u32> = (0..10_000).collect();
        let got = map.get_many(&keys, &grid);
        assert!(got.iter().enumerate().all(|(k, v)| *v == Some(k as u32 * 3)));
        let removed = map.remove_many(&keys[..5_000], &grid);
        assert!(removed.iter().all(|&r| r));
        assert_eq!(map.len(), 5_000);
    }

    #[test]
    fn map_upsert_counter_semantics() {
        let map = SlabMap::with_capacity(100);
        let mut h = map.handle();
        for _ in 0..10 {
            h.upsert(5, |v| v.unwrap_or(0) + 1);
        }
        assert_eq!(h.get(5), Some(10));
    }

    #[test]
    fn map_upsert_concurrent_counters_are_exact() {
        // The retry loop must make read-modify-write exact under racing
        // updaters hammering the same key.
        let map = std::sync::Arc::new(SlabMap::with_capacity(100));
        let _chaos = simt::ChaosGuard::new(0.1);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let map = &map;
                scope.spawn(move || {
                    let mut h = map.handle();
                    for _ in 0..500 {
                        h.upsert(7, |v| v.unwrap_or(0) + 1);
                    }
                });
            }
        });
        assert_eq!(map.handle().get(7), Some(2_000), "lost increments");
    }

    #[test]
    fn map_compact_after_churn() {
        let grid = Grid::sequential();
        let mut map = SlabMap::with_buckets(4);
        {
            let mut h = map.handle();
            for k in 0..200 {
                h.insert(k, k);
            }
            for k in 0..150 {
                h.remove(k);
            }
        }
        let report = map.compact(&grid);
        assert_eq!(report.elements_kept, 50);
        assert!(report.slabs_released > 0);
        assert_eq!(map.len(), 50);
    }

    #[test]
    fn block_policy_handle_survives_alloc_faults() {
        // Every chained-slab allocation fails 40% of the time; the block
        // policy heals (reclaim + grow) and retries until each insert lands.
        let map = SlabMap::with_buckets(2);
        let _chaos = simt::ChaosGuard::plan(
            simt::FaultPlan::seeded(0xB10C).with_alloc_failures(0.4),
        );
        let mut h = map.handle_with_policy(MaintenancePolicy::block());
        for k in 0..300 {
            assert_eq!(h.checked_insert(k, k).unwrap(), None, "key {k}");
        }
        assert_eq!(map.len(), 300);
    }

    #[test]
    fn shed_policy_handle_surfaces_pressure_after_one_heal() {
        let map = SlabMap::with_buckets(1);
        let mut h = map.handle_with_policy(MaintenancePolicy::shed());
        // Fill the base slab so the next insert must allocate a chained slab.
        for k in 0..15 {
            h.insert(k, k);
        }
        let chaos = simt::ChaosGuard::plan(
            simt::FaultPlan::seeded(0x5EED).with_alloc_failures(1.0),
        );
        let err = h.checked_insert(99, 99).unwrap_err();
        assert!(matches!(err, TableError::OutOfSlabs(_)), "got {err:?}");
        // The shed pass healed the table; with the faults gone the same
        // insert goes straight through.
        drop(chaos);
        assert_eq!(h.checked_insert(99, 99).unwrap(), None);
        assert_eq!(map.len(), 16);
    }

    #[test]
    fn try_compact_runs_concurrently_with_handles() {
        let map = SlabMap::with_buckets(4);
        let grid = Grid::sequential();
        let mut h = map.handle();
        for k in 0..300 {
            h.insert(k, k);
        }
        for k in 0..250 {
            h.remove(k);
        }
        let report = map.try_compact(&grid).expect("flush lock free");
        assert_eq!(report.elements_kept, 50);
        assert!(report.slabs_released > 0);
        // Released slabs sit in the retired list until their grace period
        // elapses; a maintenance pass returns them to the allocator.
        map.maintain(&grid);
        assert_eq!(map.len(), 50);
        map.as_raw().audit().unwrap();
    }

    #[test]
    fn set_basic_and_bulk() {
        let grid = Grid::new(2);
        let set = SlabSet::with_capacity(5_000);
        let mut h = set.handle();
        assert!(h.insert(9));
        assert!(!h.insert(9));
        assert!(h.remove(9));
        assert!(!h.remove(9));

        let keys: Vec<u32> = (0..5_000).map(|k| k * 2).collect();
        set.extend(&keys, &grid);
        assert_eq!(set.len(), 5_000);
        let probe: Vec<u32> = (0..10_000).collect();
        let member = set.contains_many(&probe, &grid);
        for (k, m) in member.iter().enumerate() {
            assert_eq!(*m, k % 2 == 0, "key {k}");
        }
    }

    #[test]
    fn multimap_duplicates_and_removal() {
        let mm = SlabMultiMap::with_capacity(1_000);
        let mut h = mm.handle();
        for v in 0..20 {
            h.insert(3, v);
        }
        h.insert(4, 100);
        let mut all = h.get_all(3);
        all.sort_unstable();
        assert_eq!(all, (0..20).collect::<Vec<_>>());
        assert!(h.get_any(3).is_some());
        assert_eq!(h.remove_one(3), Some(0));
        assert_eq!(h.remove_all(3), 19);
        assert_eq!(mm.len(), 1);
    }

    #[test]
    fn multimap_bulk_and_compact() {
        let grid = Grid::new(2);
        let mut mm = SlabMultiMap::with_capacity(4_000);
        let pairs: Vec<(u32, u32)> = (0..4_000).map(|i| (i % 40, i)).collect();
        mm.extend(&pairs, &grid);
        assert_eq!(mm.len(), 4_000);
        {
            let mut h = mm.handle();
            assert_eq!(h.get_all(0).len(), 100);
            assert_eq!(h.remove_all(0), 100);
        }
        mm.compact(&grid);
        assert_eq!(mm.len(), 3_900);
        mm.as_raw().audit().unwrap();
    }
}
