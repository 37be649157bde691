//! Misra & Chaudhuri's lock-free hash table (paper ref. 4) — the dynamic comparator of
//! §VI-C.
//!
//! A key-only (unordered set) hash table with chaining over *classic*
//! linked-list nodes: 32-bit key + 32-bit next index, per-thread operations,
//! Harris-style logical deletion (a mark bit in the next reference) with
//! helping. As in the original, it is "not fully dynamic": all nodes are
//! pre-allocated in one array sized at construction ("which must be known at
//! compile time"), node slots are never reclaimed, and the theoretical
//! memory utilization therefore tops out at 50 % (8 bytes per 4-byte key).
//!
//! Every traversal step is one scattered sector read executed by a single
//! thread while its warp diverges — the access pattern whose cost the slab
//! list exists to avoid.

use std::sync::atomic::{AtomicU32, Ordering};

use simt::{Grid, LaunchReport, PerfCounters};

/// Null reference (no mark bit set).
const NIL: u32 = 0x7FFF_FFFF;
/// Mark bit: the node *after* this reference is logically deleted.
const MARK: u32 = 0x8000_0000;

#[inline]
fn idx(r: u32) -> u32 {
    r & !MARK
}

#[inline]
fn is_marked(r: u32) -> bool {
    r & MARK != 0
}

/// The pre-allocated node pool + bucket heads.
pub struct MisraHash {
    heads: Vec<AtomicU32>,
    keys: Vec<AtomicU32>,
    nexts: Vec<AtomicU32>,
    next_free: AtomicU32,
}

/// Result of one Misra-table operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MisraResult {
    /// Insert succeeded (key was absent).
    Inserted,
    /// Insert found the key already present.
    AlreadyPresent,
    /// Delete / search found the key.
    Found,
    /// Delete / search did not find the key.
    NotFound,
}

/// A per-thread operation for [`MisraHash::execute_batch`].
#[derive(Debug, Clone, Copy)]
pub enum MisraOp {
    /// Add a key to the set.
    Insert(u32),
    /// Remove a key from the set.
    Delete(u32),
    /// Membership query.
    Search(u32),
}

impl MisraHash {
    /// A table with `num_buckets` chains and room for `capacity` insertions
    /// (the paper's static pre-allocation; inserting more panics, which is
    /// precisely the limitation the slab hash removes).
    pub fn new(num_buckets: u32, capacity: u32) -> Self {
        assert!(num_buckets >= 1);
        assert!(capacity < NIL);
        Self {
            heads: (0..num_buckets).map(|_| AtomicU32::new(NIL)).collect(),
            keys: (0..capacity).map(|_| AtomicU32::new(0)).collect(),
            nexts: (0..capacity).map(|_| AtomicU32::new(NIL)).collect(),
            next_free: AtomicU32::new(0),
        }
    }

    /// Bucket count.
    pub fn num_buckets(&self) -> u32 {
        self.heads.len() as u32
    }

    /// Device bytes (heads + the full pre-allocated node array — the paper
    /// pre-commits everything up front).
    pub fn device_bytes(&self) -> u64 {
        (self.heads.len() * 4 + self.keys.len() * 8) as u64
    }

    /// Nodes consumed so far (deleted nodes are never reclaimed).
    pub fn nodes_used(&self) -> u32 {
        self.next_free
            .load(Ordering::Acquire)
            .min(self.keys.len() as u32)
    }

    #[inline]
    fn bucket(&self, key: u32) -> usize {
        // Full-avalanche mixer before the modulus: a bare multiplicative
        // hash keyed by a constant sharing factors with the bucket count
        // would strand buckets (e.g. 0x9E3779B9 is divisible by 3).
        let mut x = key;
        x ^= x >> 16;
        x = x.wrapping_mul(0x7feb_352d);
        x ^= x >> 15;
        x = x.wrapping_mul(0x846c_a68b);
        x ^= x >> 16;
        (x as u64 % self.heads.len() as u64) as usize
    }

    #[inline]
    fn next_ref(&self, node: u32) -> &AtomicU32 {
        &self.nexts[node as usize]
    }

    /// The reference cell preceding position `prev`: the bucket head when
    /// `prev == NIL`.
    #[inline]
    fn prev_cell(&self, bucket: usize, prev: u32) -> &AtomicU32 {
        if prev == NIL {
            &self.heads[bucket]
        } else {
            self.next_ref(prev)
        }
    }

    /// Harris-style find: returns `(prev, curr)` such that `curr` is the
    /// first unmarked node with `key(curr) >= key` (or NIL), unlinking
    /// marked nodes along the way (helping). Each step is a divergent
    /// scattered read.
    fn find(&self, bucket: usize, key: u32, c: &mut PerfCounters) -> (u32, u32) {
        'retry: loop {
            let mut prev = NIL;
            c.sector_reads += 1;
            c.divergent_steps += 1;
            let mut curr = idx(self.heads[bucket].load(Ordering::Acquire));
            loop {
                if curr == NIL {
                    return (prev, NIL);
                }
                // One node = 8 contiguous bytes (key + next): one sector.
                c.sector_reads += 1;
                c.divergent_steps += 1;
                let succ = self.next_ref(curr).load(Ordering::Acquire);
                if is_marked(succ) {
                    // Help unlink the logically deleted node.
                    c.atomics += 1;
                    if self
                        .prev_cell(bucket, prev)
                        .compare_exchange(curr, idx(succ), Ordering::AcqRel, Ordering::Acquire)
                        .is_err()
                    {
                        c.cas_failures += 1;
                        continue 'retry;
                    }
                    curr = idx(succ);
                    continue;
                }
                let k = self.keys[curr as usize].load(Ordering::Acquire);
                if k >= key {
                    return (prev, curr);
                }
                prev = curr;
                curr = idx(succ);
            }
        }
    }

    /// Inserts `key`; lock-free, per-thread.
    ///
    /// # Panics
    /// Panics when the pre-allocated node array is exhausted — the
    /// structural limitation the paper calls out.
    pub fn insert(&self, key: u32, c: &mut PerfCounters) -> MisraResult {
        // Reserve a node lazily: only claim once we know the key is absent.
        let mut node = NIL;
        loop {
            let bucket = self.bucket(key);
            let (prev, curr) = self.find(bucket, key, c);
            if curr != NIL && self.keys[curr as usize].load(Ordering::Acquire) == key {
                return MisraResult::AlreadyPresent;
            }
            if node == NIL {
                node = self.next_free.fetch_add(1, Ordering::AcqRel);
                assert!(
                    (node as usize) < self.keys.len(),
                    "Misra table node pool exhausted ({} nodes) — capacity is fixed at \
                     construction, by design",
                    self.keys.len()
                );
                self.keys[node as usize].store(key, Ordering::Release);
            }
            self.next_ref(node).store(curr, Ordering::Release);
            c.atomics += 1;
            c.divergent_steps += 1;
            if self
                .prev_cell(bucket, prev)
                .compare_exchange(curr, node, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return MisraResult::Inserted;
            }
            c.cas_failures += 1;
        }
    }

    /// Deletes `key` (logical mark + best-effort unlink); lock-free.
    pub fn delete(&self, key: u32, c: &mut PerfCounters) -> MisraResult {
        loop {
            let bucket = self.bucket(key);
            let (prev, curr) = self.find(bucket, key, c);
            if curr == NIL || self.keys[curr as usize].load(Ordering::Acquire) != key {
                return MisraResult::NotFound;
            }
            c.sector_reads += 1;
            let succ = self.next_ref(curr).load(Ordering::Acquire);
            if is_marked(succ) {
                // Someone else is deleting this node; retry to settle.
                continue;
            }
            c.atomics += 1;
            c.divergent_steps += 1;
            if self
                .next_ref(curr)
                .compare_exchange(succ, succ | MARK, Ordering::AcqRel, Ordering::Acquire)
                .is_err()
            {
                c.cas_failures += 1;
                continue;
            }
            // Best-effort physical unlink; failures are cleaned by helpers.
            c.atomics += 1;
            let _ = self.prev_cell(bucket, prev).compare_exchange(
                curr,
                idx(succ),
                Ordering::AcqRel,
                Ordering::Acquire,
            );
            return MisraResult::Found;
        }
    }

    /// Membership search; wait-free over a quiescent list.
    pub fn search(&self, key: u32, c: &mut PerfCounters) -> MisraResult {
        let bucket = self.bucket(key);
        c.sector_reads += 1;
        c.divergent_steps += 1;
        let mut curr = idx(self.heads[bucket].load(Ordering::Acquire));
        while curr != NIL {
            c.sector_reads += 1; // key + next share the node's sector
            c.divergent_steps += 1;
            let k = self.keys[curr as usize].load(Ordering::Acquire);
            let succ = self.next_ref(curr).load(Ordering::Acquire);
            if k == key {
                return if is_marked(succ) {
                    MisraResult::NotFound
                } else {
                    MisraResult::Found
                };
            }
            if k > key {
                return MisraResult::NotFound;
            }
            curr = idx(succ);
        }
        MisraResult::NotFound
    }

    /// Executes a mixed batch, one operation per simulated thread.
    pub fn execute_batch(&self, ops: &[MisraOp], grid: &Grid) -> (Vec<MisraResult>, LaunchReport) {
        let mut items: Vec<(MisraOp, MisraResult)> =
            ops.iter().map(|&op| (op, MisraResult::NotFound)).collect();
        let report = grid.launch(&mut items, |ctx, chunk| {
            for (op, out) in chunk.iter_mut() {
                *out = match *op {
                    MisraOp::Insert(k) => self.insert(k, &mut ctx.counters),
                    MisraOp::Delete(k) => self.delete(k, &mut ctx.counters),
                    MisraOp::Search(k) => self.search(k, &mut ctx.counters),
                };
                ctx.counters.ops += 1;
            }
        });
        (items.into_iter().map(|(_, r)| r).collect(), report)
    }

    /// Live keys (host-side scan; skips marked nodes).
    pub fn len(&self) -> usize {
        let mut n = 0;
        for head in &self.heads {
            let mut curr = idx(head.load(Ordering::Acquire));
            while curr != NIL {
                let succ = self.nexts[curr as usize].load(Ordering::Acquire);
                if !is_marked(succ) {
                    n += 1;
                }
                curr = idx(succ);
            }
        }
        n
    }

    /// True when no live key is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c() -> PerfCounters {
        PerfCounters::default()
    }

    #[test]
    fn insert_search_delete_roundtrip() {
        let t = MisraHash::new(16, 1000);
        let mut pc = c();
        assert_eq!(t.insert(5, &mut pc), MisraResult::Inserted);
        assert_eq!(t.insert(5, &mut pc), MisraResult::AlreadyPresent);
        assert_eq!(t.search(5, &mut pc), MisraResult::Found);
        assert_eq!(t.search(6, &mut pc), MisraResult::NotFound);
        assert_eq!(t.delete(5, &mut pc), MisraResult::Found);
        assert_eq!(t.delete(5, &mut pc), MisraResult::NotFound);
        assert_eq!(t.search(5, &mut pc), MisraResult::NotFound);
        assert!(t.is_empty());
    }

    #[test]
    fn sorted_chain_invariant() {
        let t = MisraHash::new(1, 100);
        let mut pc = c();
        for k in [5u32, 1, 9, 3, 7] {
            t.insert(k, &mut pc);
        }
        assert_eq!(t.len(), 5);
        for k in [1u32, 3, 5, 7, 9] {
            assert_eq!(t.search(k, &mut pc), MisraResult::Found);
        }
        assert_eq!(t.search(4, &mut pc), MisraResult::NotFound);
    }

    #[test]
    fn deleted_nodes_are_not_reclaimed() {
        let t = MisraHash::new(4, 100);
        let mut pc = c();
        for k in 0..50 {
            t.insert(k, &mut pc);
        }
        for k in 0..50 {
            t.delete(k, &mut pc);
        }
        assert!(t.is_empty());
        // Node pool consumption is monotone — the paper's static limitation.
        assert_eq!(t.nodes_used(), 50);
        for k in 50..100 {
            t.insert(k, &mut pc);
        }
        assert_eq!(t.nodes_used(), 100);
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn capacity_exhaustion_panics() {
        let t = MisraHash::new(2, 10);
        let mut pc = c();
        for k in 0..11 {
            t.insert(k, &mut pc);
        }
    }

    #[test]
    fn concurrent_batch_consistency() {
        let t = MisraHash::new(64, 40_000);
        let grid = Grid::new(8);
        let inserts: Vec<MisraOp> = (0..20_000).map(MisraOp::Insert).collect();
        let (results, _) = t.execute_batch(&inserts, &grid);
        assert!(results.iter().all(|r| *r == MisraResult::Inserted));
        assert_eq!(t.len(), 20_000);

        // Mixed phase: delete the evens, search everything.
        let mut ops = Vec::new();
        for k in (0..20_000).step_by(2) {
            ops.push(MisraOp::Delete(k));
        }
        let (results, _) = t.execute_batch(&ops, &grid);
        assert!(results.iter().all(|r| *r == MisraResult::Found));
        assert_eq!(t.len(), 10_000);

        let searches: Vec<MisraOp> = (0..20_000).map(MisraOp::Search).collect();
        let (results, _) = t.execute_batch(&searches, &grid);
        for (k, r) in results.iter().enumerate() {
            let expect = if k % 2 == 0 {
                MisraResult::NotFound
            } else {
                MisraResult::Found
            };
            assert_eq!(*r, expect, "key {k}");
        }
    }

    #[test]
    fn concurrent_same_key_insert_once() {
        let t = MisraHash::new(1, 1000);
        let grid = Grid::new(8);
        let ops: Vec<MisraOp> = (0..256).map(|_| MisraOp::Insert(42)).collect();
        let (results, _) = t.execute_batch(&ops, &grid);
        let inserted = results
            .iter()
            .filter(|r| **r == MisraResult::Inserted)
            .count();
        assert_eq!(inserted, 1, "exactly one thread may win the insert");
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn traversal_is_billed_divergent_and_scattered() {
        let t = MisraHash::new(1, 200);
        let mut pc = c();
        for k in 0..100 {
            t.insert(k, &mut pc);
        }
        let mut pc = c();
        t.search(99, &mut pc);
        assert!(
            pc.sector_reads >= 100,
            "long chain: {} reads",
            pc.sector_reads
        );
        assert!(pc.divergent_steps >= 100);
        assert_eq!(pc.slab_reads, 0);
    }
}
