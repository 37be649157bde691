//! CUDPP-style cuckoo hashing (Alcantara et al., paper ref. 1) — the static hash
//! table the paper compares against in §VI-A/B.
//!
//! The table is open addressing with `H` (default 4) hash functions and a
//! small stash. Bulk build is per-thread: each thread `atomicExch`es its
//! pair into the key's first position; if a pair was evicted the thread
//! re-inserts the evictee into *its* next position, up to `max_iter`
//! evictions, then falls back to the stash; if even the stash fails, the
//! whole build restarts with fresh hash functions (the failure mode the
//! paper cites: "as the load factor increases, it is increasingly likely
//! that a bulk build using cuckoo hashing fails").
//!
//! Searches probe the positions in order and may stop early at an empty
//! slot: since slots never empty during a build-only lifetime, an empty
//! first position proves absence. In the best case an insertion is one
//! atomic and a search one scattered read — which is why the paper calls
//! CUDPP's peak "hard to beat".

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use rand::{Rng, SeedableRng};
use simt::{pack_pair, unpack_pair, Grid, LaunchReport, PerfCounters};

/// An empty slot: both key and value lanes all-ones.
const EMPTY_SLOT: u64 = u64::MAX;

/// The key reserved as "empty" (callers must not insert it).
pub const CUCKOO_EMPTY_KEY: u32 = u32::MAX;

/// Configuration for [`CuckooHash`].
#[derive(Debug, Clone, Copy)]
pub struct CuckooConfig {
    /// Load factor: stored elements / table slots. CUDPP exposes exactly
    /// this knob; it equals the structure's memory utilization.
    pub load_factor: f64,
    /// Number of hash functions (CUDPP uses 4).
    pub num_hashes: usize,
    /// Stash slots for insertions whose eviction chains run too long
    /// (CUDPP's stash holds 101 entries).
    pub stash_size: usize,
    /// Whole-build restarts tolerated before giving up.
    pub max_restarts: u32,
    /// Hash-function seed.
    pub seed: u64,
}

impl Default for CuckooConfig {
    fn default() -> Self {
        Self {
            load_factor: 0.6,
            num_hashes: 4,
            stash_size: 101,
            max_restarts: 16,
            seed: 0xC0C0_CAFE,
        }
    }
}

/// Statistics from a successful bulk build.
#[derive(Debug, Clone, Copy, Default)]
pub struct CuckooBuildStats {
    /// Whole-table restarts that were needed (0 in the common case).
    pub restarts: u32,
    /// Elements that ended up in the stash.
    pub stash_used: usize,
    /// Total eviction steps across all insertions (≥ n).
    pub total_moves: u64,
}

/// Errors from [`CuckooHash::bulk_build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CuckooError {
    /// Every restart exhausted its eviction budget — the load factor is too
    /// high for this hash family.
    BuildFailed {
        /// Restarts attempted before giving up.
        restarts: u32,
    },
}

impl std::fmt::Display for CuckooError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CuckooError::BuildFailed { restarts } => {
                write!(f, "cuckoo build failed after {restarts} restarts")
            }
        }
    }
}

impl std::error::Error for CuckooError {}

/// One linear-congruential hash into the table, `((a·k + b) mod p) mod size`.
#[derive(Debug, Clone, Copy)]
struct SlotHash {
    a: u64,
    b: u64,
}

const P: u64 = 4_294_967_291;

impl SlotHash {
    #[inline]
    fn slot(&self, key: u32, size: usize) -> usize {
        (((self.a * key as u64 + self.b) % P) % size as u64) as usize
    }
}

/// The static cuckoo hash table.
pub struct CuckooHash {
    slots: Vec<AtomicU64>,
    stash: Vec<AtomicU64>,
    hashes: Vec<SlotHash>,
    stash_count: AtomicUsize,
    max_iter: u32,
    config: CuckooConfig,
}

impl CuckooHash {
    /// An empty table sized for `n` elements at the configured load factor.
    pub fn new(n: usize, config: CuckooConfig) -> Self {
        assert!(n > 0);
        assert!(
            (0.0..1.0).contains(&config.load_factor) && config.load_factor > 0.0,
            "load factor must be in (0, 1)"
        );
        assert!(config.num_hashes >= 2);
        let size = ((n as f64 / config.load_factor).ceil() as usize).max(config.num_hashes);
        let mut table = Self {
            slots: Vec::new(),
            stash: Vec::new(),
            hashes: Vec::new(),
            stash_count: AtomicUsize::new(0),
            // Alcantara's bound: O(log n) eviction chain before bailing.
            max_iter: (7.0 * (n.max(2) as f64).ln()).ceil() as u32,
            config,
        };
        table.reset(size, config.seed);
        table
    }

    /// Re-randomizes hash functions and clears the table (a build restart).
    fn reset(&mut self, size: usize, seed: u64) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        self.hashes = (0..self.config.num_hashes)
            .map(|_| SlotHash {
                a: rng.gen_range(1..P),
                b: rng.gen_range(0..P),
            })
            .collect();
        self.slots = (0..size).map(|_| AtomicU64::new(EMPTY_SLOT)).collect();
        self.stash = (0..self.config.stash_size)
            .map(|_| AtomicU64::new(EMPTY_SLOT))
            .collect();
        self.stash_count.store(0, Ordering::Release);
    }

    /// Table slots (excluding the stash).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Device bytes of the table + stash (the model's working set).
    pub fn device_bytes(&self) -> u64 {
        ((self.slots.len() + self.stash.len()) * 8) as u64
    }

    /// Elements currently stored (host-side scan).
    pub fn len(&self) -> usize {
        self.slots
            .iter()
            .chain(self.stash.iter())
            .filter(|s| s.load(Ordering::Acquire) != EMPTY_SLOT)
            .count()
    }

    /// True when the table holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Memory utilization = load factor achieved (stored / capacity).
    pub fn memory_utilization(&self) -> f64 {
        self.len() as f64 / (self.slots.len() + self.stash.len()) as f64
    }

    /// Inserts one pair, driving its eviction chain. Returns the number of
    /// moves on success, `Err(())` if the chain exceeded the budget and the
    /// stash was full.
    fn insert_one(&self, mut key: u32, mut value: u32, c: &mut PerfCounters) -> Result<u64, ()> {
        let size = self.slots.len();
        let mut pos = self.hashes[0].slot(key, size);
        let mut moves = 0u64;
        for _ in 0..self.max_iter {
            let incoming = pack_pair(key, value);
            c.atomic_exchanges += 1;
            let evicted = self.slots[pos].swap(incoming, Ordering::AcqRel);
            moves += 1;
            if evicted == EMPTY_SLOT {
                return Ok(moves);
            }
            let (ek, ev) = unpack_pair(evicted);
            if ek == key {
                // Uniqueness: the same key was already present; its old pair
                // has been replaced by ours. Done.
                return Ok(moves);
            }
            // Move the evictee to *its* next position: find which hash put
            // it here, use the following one (CUDPP's scheme).
            let mut next_h = 0;
            for (i, h) in self.hashes.iter().enumerate() {
                if h.slot(ek, size) == pos {
                    next_h = (i + 1) % self.hashes.len();
                    break;
                }
            }
            key = ek;
            value = ev;
            pos = self.hashes[next_h].slot(key, size);
        }
        // Chain too long: try the stash. CUDPP's stash is *hashed* — the key
        // has exactly one stash slot; if it is taken the whole build fails
        // and restarts with new hash functions.
        let slot = &self.stash[self.stash_slot(key)];
        c.atomics += 1;
        match slot.compare_exchange(
            EMPTY_SLOT,
            pack_pair(key, value),
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => {
                self.stash_count.fetch_add(1, Ordering::Relaxed);
                Ok(moves)
            }
            Err(occupant) if unpack_pair(occupant).0 == key => {
                // Same key already stashed: replace its value.
                c.atomics += 1;
                let _ = slot.compare_exchange(
                    occupant,
                    pack_pair(key, value),
                    Ordering::AcqRel,
                    Ordering::Acquire,
                );
                Ok(moves)
            }
            Err(_) => Err(()),
        }
    }

    /// The single stash position for `key` (CUDPP's stash hash function).
    #[inline]
    fn stash_slot(&self, key: u32) -> usize {
        (key.wrapping_mul(0x9E37_79B1) ^ key >> 16) as usize % self.stash.len()
    }

    /// Bulk build from scratch (per-thread insertion across the grid),
    /// restarting with fresh hash functions on failure. This is the only
    /// way to add elements — the structure is static, which is the entire
    /// point of the paper's comparison.
    pub fn bulk_build(
        &mut self,
        pairs: &[(u32, u32)],
        grid: &Grid,
    ) -> Result<(CuckooBuildStats, LaunchReport), CuckooError> {
        let mut restarts = 0;
        loop {
            let failed = AtomicUsize::new(0);
            let moves = AtomicU64::new(0);
            let table = &*self;
            let mut items: Vec<(u32, u32)> = pairs.to_vec();
            let report = grid.launch(&mut items, |ctx, chunk| {
                let mut chunk_moves = 0u64;
                for &mut (k, v) in chunk {
                    debug_assert_ne!(k, CUCKOO_EMPTY_KEY);
                    match table.insert_one(k, v, &mut ctx.counters) {
                        Ok(m) => chunk_moves += m,
                        Err(()) => {
                            failed.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    ctx.counters.ops += 1;
                }
                moves.fetch_add(chunk_moves, Ordering::Relaxed);
            });
            if failed.load(Ordering::Acquire) == 0 {
                return Ok((
                    CuckooBuildStats {
                        restarts,
                        stash_used: self.stash_count.load(Ordering::Acquire),
                        total_moves: moves.load(Ordering::Acquire),
                    },
                    report,
                ));
            }
            restarts += 1;
            if restarts >= self.config.max_restarts {
                return Err(CuckooError::BuildFailed { restarts });
            }
            let size = self.slots.len();
            self.reset(
                size,
                self.config.seed.wrapping_add(restarts as u64 * 0x9e37),
            );
        }
    }

    /// Searches one key: probes the positions in order, stopping early at an
    /// empty slot (valid because slots never empty in a build-only table),
    /// then scans the stash if it is non-empty.
    pub fn search_one(&self, key: u32, c: &mut PerfCounters) -> Option<u32> {
        let size = self.slots.len();
        for h in &self.hashes {
            c.sector_reads += 1;
            let slot = self.slots[h.slot(key, size)].load(Ordering::Acquire);
            if slot == EMPTY_SLOT {
                break;
            }
            let (k, v) = unpack_pair(slot);
            if k == key {
                return Some(v);
            }
        }
        if self.stash_count.load(Ordering::Acquire) > 0 {
            // Hashed stash: one extra probe, not a scan.
            c.sector_reads += 1;
            let slot = self.stash[self.stash_slot(key)].load(Ordering::Acquire);
            if slot != EMPTY_SLOT {
                let (k, v) = unpack_pair(slot);
                if k == key {
                    return Some(v);
                }
            }
        }
        None
    }

    /// Bulk search, one query per thread.
    pub fn bulk_search(&self, keys: &[u32], grid: &Grid) -> (Vec<Option<u32>>, LaunchReport) {
        let mut items: Vec<(u32, Option<u32>)> = keys.iter().map(|&k| (k, None)).collect();
        let report = grid.launch(&mut items, |ctx, chunk| {
            for (k, out) in chunk.iter_mut() {
                *out = self.search_one(*k, &mut ctx.counters);
                ctx.counters.ops += 1;
            }
        });
        (items.into_iter().map(|(_, r)| r).collect(), report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> Grid {
        Grid::new(8)
    }

    fn build(n: u32, lf: f64) -> (CuckooHash, CuckooBuildStats) {
        let pairs: Vec<(u32, u32)> = (0..n).map(|k| (k * 2 + 1, k)).collect();
        let mut t = CuckooHash::new(
            n as usize,
            CuckooConfig {
                load_factor: lf,
                ..CuckooConfig::default()
            },
        );
        let (stats, _) = t.bulk_build(&pairs, &grid()).expect("build");
        (t, stats)
    }

    #[test]
    fn build_and_search_all_hit() {
        let (t, _) = build(10_000, 0.6);
        assert_eq!(t.len(), 10_000);
        let keys: Vec<u32> = (0..10_000).map(|k| k * 2 + 1).collect();
        let (res, _) = t.bulk_search(&keys, &grid());
        for (i, r) in res.iter().enumerate() {
            assert_eq!(*r, Some(i as u32));
        }
    }

    #[test]
    fn search_none_hit_misses() {
        let (t, _) = build(5_000, 0.5);
        let misses: Vec<u32> = (0..5_000).map(|k| k * 2).collect(); // evens absent
        let (res, _) = t.bulk_search(&misses, &grid());
        assert!(res.iter().all(|r| r.is_none()));
    }

    #[test]
    fn capacity_respects_load_factor() {
        let t = CuckooHash::new(
            1000,
            CuckooConfig {
                load_factor: 0.5,
                ..CuckooConfig::default()
            },
        );
        assert_eq!(t.capacity(), 2000);
        assert!((0.49..0.51).contains(&(1000.0 / t.capacity() as f64)));
    }

    #[test]
    fn high_load_factor_builds_with_evictions() {
        let (t, stats) = build(20_000, 0.85);
        assert_eq!(t.len(), 20_000);
        assert!(
            stats.total_moves > 20_000,
            "at 85 % load evictions must occur: {} moves",
            stats.total_moves
        );
    }

    #[test]
    fn impossible_load_factor_fails_cleanly() {
        // More elements than slots can ever hold at lf ~0.999 with 2 hashes:
        // the build must fail with an error, not hang.
        let pairs: Vec<(u32, u32)> = (0..30_000).map(|k| (k, k)).collect();
        let mut t = CuckooHash::new(
            30_000,
            CuckooConfig {
                load_factor: 0.999,
                num_hashes: 2,
                stash_size: 2,
                max_restarts: 2,
                ..CuckooConfig::default()
            },
        );
        match t.bulk_build(&pairs, &grid()) {
            Err(CuckooError::BuildFailed { restarts }) => assert_eq!(restarts, 2),
            Ok(_) => {
                // 2-function cuckoo at 99.9 % occasionally squeaks through
                // only for tiny inputs; at 30 k it should not.
                panic!("expected build failure at 99.9 % load with 2 hashes")
            }
        }
    }

    #[test]
    fn duplicate_key_keeps_single_instance() {
        let pairs = vec![(7u32, 1u32), (7, 2), (7, 3), (8, 4)];
        let mut t = CuckooHash::new(16, CuckooConfig::default());
        t.bulk_build(&pairs, &Grid::sequential()).unwrap();
        assert_eq!(t.len(), 2, "duplicates replaced, not accumulated");
        let mut c = PerfCounters::default();
        assert!(t.search_one(7, &mut c).is_some());
        assert_eq!(t.search_one(8, &mut c), Some(4));
    }

    #[test]
    fn search_cost_counts_scattered_sectors() {
        let (t, _) = build(4_096, 0.4);
        let keys: Vec<u32> = (0..4_096).map(|k| k * 2 + 1).collect();
        let (_, report) = t.bulk_search(&keys, &grid());
        // Probes are scattered reads; no coalesced slab traffic.
        assert!(report.counters.sector_reads >= 4_096);
        assert_eq!(report.counters.slab_reads, 0);
        // At 40 % load most hits take 1–2 probes.
        let per_op = report.counters.sector_reads as f64 / 4_096.0;
        assert!((1.0..2.5).contains(&per_op), "probes/search = {per_op}");
    }

    #[test]
    fn rebuild_replaces_contents() {
        let mut t = CuckooHash::new(100, CuckooConfig::default());
        let g = grid();
        t.bulk_build(&(0..100).map(|k| (k, k)).collect::<Vec<_>>(), &g)
            .unwrap();
        // CUDPP-style incremental update = rebuild from scratch with the
        // union of old and new pairs.
        let mut t2 = CuckooHash::new(150, CuckooConfig::default());
        let all: Vec<(u32, u32)> = (0..150).map(|k| (k, k)).collect();
        t2.bulk_build(&all, &g).unwrap();
        assert_eq!(t2.len(), 150);
        let mut c = PerfCounters::default();
        assert_eq!(t2.search_one(149, &mut c), Some(149));
    }
}

#[cfg(test)]
mod stash_tests {
    use super::*;

    #[test]
    fn stash_catches_long_chains_and_stays_searchable() {
        // A brutal configuration: 2 hash functions at high load forces some
        // eviction chains past max_iter and into the stash.
        // Well-mixed keys: affine hashes are collision-free on sequential
        // domains, which would make even 2-hash/90% builds trivially easy.
        let n = 20_000u32;
        let mix = |mut x: u32| -> u32 {
            x ^= x >> 16;
            x = x.wrapping_mul(0x7feb_352d);
            x ^= x >> 15;
            x = x.wrapping_mul(0x846c_a68b);
            x ^ (x >> 16)
        };
        let pairs: Vec<(u32, u32)> = (0..n).map(|k| (mix(k) & 0x7FFF_FFFF, k)).collect();
        let mut t = CuckooHash::new(
            n as usize,
            CuckooConfig {
                load_factor: 0.93,
                num_hashes: 4,
                stash_size: 101,
                max_restarts: 64,
                ..CuckooConfig::default()
            },
        );
        let (stats, _) = t.bulk_build(&pairs, &Grid::new(4)).expect("build");
        assert!(
            stats.stash_used > 0,
            "4-hash cuckoo at 93% load with mixed keys must need the stash"
        );
        // Every element, stashed or not, is findable.
        let keys: Vec<u32> = pairs.iter().map(|p| p.0).collect();
        let (res, _) = t.bulk_search(&keys, &Grid::new(4));
        assert!(res.iter().all(|r| r.is_some()));
        assert_eq!(t.len(), n as usize);
    }

    #[test]
    fn stash_lookup_is_one_probe() {
        let mut t = CuckooHash::new(64, CuckooConfig::default());
        t.bulk_build(&[(1, 10), (2, 20)], &Grid::sequential())
            .unwrap();
        // Force something into the stash manually by occupying the count.
        // (Normal builds at low load leave the stash empty: misses must not
        // pay a stash probe at all.)
        let mut c = PerfCounters::default();
        t.search_one(999, &mut c);
        let probes_without_stash = c.sector_reads;
        assert!(probes_without_stash <= t.config.num_hashes as u64);
    }
}
