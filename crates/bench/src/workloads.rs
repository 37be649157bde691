//! Workload generators for the paper's benchmarks (§VI).
//!
//! Key sets are produced through a bijective 32-bit mixer, which gives
//! pseudorandom *distinct* keys in O(n) with no rejection table: index
//! ranges that don't overlap produce key sets that don't overlap, which is
//! how the "none of the queries exist" sets are built.

use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use slab_hash::{Request, MAX_KEY};

/// Bijective 32-bit finalizer (invertible: xor-shifts and odd multiplies).
#[inline]
fn bijective_mix(mut x: u32) -> u32 {
    x ^= x >> 16;
    x = x.wrapping_mul(0x7feb_352d);
    x ^= x >> 15;
    x = x.wrapping_mul(0x846c_a68b);
    x ^= x >> 16;
    x
}

/// `n` distinct pseudorandom keys (all ≤ [`MAX_KEY`]), derived from
/// `domain`-disjoint index ranges: different `domain` values never collide.
pub fn distinct_keys(n: usize, domain: u32) -> Vec<u32> {
    assert!(domain < 4, "four disjoint domains available");
    assert!(n <= (1 << 30), "domain holds 2^30 keys");
    let base = domain << 30;
    let mut keys = Vec::with_capacity(n);
    let mut i = 0u32;
    while keys.len() < n {
        let k = bijective_mix(base | i);
        if k <= MAX_KEY {
            keys.push(k);
        }
        i += 1;
    }
    keys
}

/// `n` distinct random key–value pairs (values arbitrary).
pub fn random_pairs(n: usize, domain: u32) -> Vec<(u32, u32)> {
    distinct_keys(n, domain)
        .into_iter()
        .enumerate()
        .map(|(i, k)| (k, bijective_mix(i as u32 ^ 0xABCD_1234)))
        .collect()
}

/// Queries sampled (with replacement) from keys that exist in the table —
/// the paper's "all queries exist" best case.
pub fn queries_all_exist(table_keys: &[u32], n_queries: usize, seed: u64) -> Vec<u32> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..n_queries)
        .map(|_| table_keys[rng.gen_range(0..table_keys.len())])
        .collect()
}

/// Queries guaranteed absent from a table built from domain-0 keys — the
/// paper's "none of the queries exist" worst case.
pub fn queries_none_exist(n_queries: usize) -> Vec<u32> {
    distinct_keys(n_queries, 1)
}

/// An operation distribution Γ = (a, b, c, d): fractions of insertions,
/// deletions, existing-key searches, absent-key searches (paper §VI-C).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gamma {
    /// Fraction of new insertions (a).
    pub insert: f64,
    /// Fraction of deletions of previously inserted keys (b).
    pub delete: f64,
    /// Fraction of searches for existing keys (c).
    pub search_hit: f64,
    /// Fraction of searches for absent keys (d).
    pub search_miss: f64,
}

impl Gamma {
    /// Γ₀ = (0.5, 0.5, 0, 0): all updates.
    pub const UPDATES_ONLY: Gamma = Gamma {
        insert: 0.5,
        delete: 0.5,
        search_hit: 0.0,
        search_miss: 0.0,
    };
    /// Γ₁ = (0.2, 0.2, 0.3, 0.3): 40 % updates, 60 % searches.
    pub const MIXED_40_UPDATES: Gamma = Gamma {
        insert: 0.2,
        delete: 0.2,
        search_hit: 0.3,
        search_miss: 0.3,
    };
    /// Γ₂ = (0.1, 0.1, 0.4, 0.4): 20 % updates, 80 % searches.
    pub const MIXED_20_UPDATES: Gamma = Gamma {
        insert: 0.1,
        delete: 0.1,
        search_hit: 0.4,
        search_miss: 0.4,
    };

    /// Short label like "100% updates, 0% searches".
    pub fn label(&self) -> String {
        format!(
            "{:.0}% updates, {:.0}% searches",
            (self.insert + self.delete) * 100.0,
            (self.search_hit + self.search_miss) * 100.0
        )
    }

    fn validate(&self) {
        let total = self.insert + self.delete + self.search_hit + self.search_miss;
        assert!((total - 1.0).abs() < 1e-9, "Γ must sum to 1 (got {total})");
    }
}

/// A flattened, enum-free op description shared by the slab hash and the
/// Misra driver (which needs its own op type).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConcurrentOp {
    /// Insert a fresh key.
    Insert(u32),
    /// Delete a previously inserted key.
    Delete(u32),
    /// Search for a key that exists (at generation time).
    SearchHit(u32),
    /// Search for a key that never existed.
    SearchMiss(u32),
}

impl ConcurrentOp {
    /// Converts to a slab-hash request (REPLACE for inserts, as in §VI).
    pub fn to_request(self) -> Request {
        match self {
            ConcurrentOp::Insert(k) => Request::replace(k, k ^ 0x5555_5555),
            ConcurrentOp::Delete(k) => Request::delete(k),
            ConcurrentOp::SearchHit(k) | ConcurrentOp::SearchMiss(k) => Request::search(k),
        }
    }
}

/// The concurrent benchmark's op stream: batches of randomly shuffled
/// operations drawn from Γ, with deletes / search-hits referencing keys
/// inserted earlier (initially or by a previous batch) and inserts drawing
/// fresh keys.
pub struct ConcurrentWorkload {
    /// Keys to pre-build the table with.
    pub initial_keys: Vec<u32>,
    /// Operation batches, processed one at a time (each batch in parallel).
    pub batches: Vec<Vec<ConcurrentOp>>,
}

/// Generates a [`ConcurrentWorkload`].
///
/// * `initial` — table size before the measured phase;
/// * `batch_size` × `num_batches` — measured operations;
/// * deletes and hits draw from the live-key pool, which is updated between
///   batches (within a batch, racing ops may invalidate each other — that is
///   the point of a concurrent benchmark).
pub fn concurrent_workload(
    initial: usize,
    gamma: Gamma,
    batch_size: usize,
    num_batches: usize,
    seed: u64,
) -> ConcurrentWorkload {
    gamma.validate();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    // Domain 0: initial + inserted keys. Domain 1: never-inserted keys.
    // Per-batch counts are rounded, so size the fresh pool from the rounded
    // per-batch figure.
    let inserts_per_batch = (batch_size as f64 * gamma.insert).round() as usize;
    let total_inserts = inserts_per_batch * num_batches;
    let all_keys = distinct_keys(initial + total_inserts, 0);
    let (initial_keys, fresh_keys) = all_keys.split_at(initial);
    let miss_keys = distinct_keys(
        (batch_size as f64 * gamma.search_miss).ceil() as usize + 1,
        1,
    );

    let mut live: Vec<u32> = initial_keys.to_vec();
    let mut fresh = fresh_keys.iter().copied();
    let mut batches = Vec::with_capacity(num_batches);
    for _ in 0..num_batches {
        let n_ins = (batch_size as f64 * gamma.insert).round() as usize;
        let n_del = (batch_size as f64 * gamma.delete).round() as usize;
        let n_hit = (batch_size as f64 * gamma.search_hit).round() as usize;
        let n_miss = batch_size - n_ins - n_del - n_hit.min(batch_size);
        let mut batch = Vec::with_capacity(batch_size);
        let mut inserted_now = Vec::with_capacity(n_ins);
        for _ in 0..n_ins {
            let k = fresh.next().expect("fresh key pool sized for all inserts");
            inserted_now.push(k);
            batch.push(ConcurrentOp::Insert(k));
        }
        for _ in 0..n_del {
            if live.is_empty() {
                break;
            }
            let i = rng.gen_range(0..live.len());
            let k = live.swap_remove(i);
            batch.push(ConcurrentOp::Delete(k));
        }
        for _ in 0..n_hit {
            if live.is_empty() {
                break;
            }
            batch.push(ConcurrentOp::SearchHit(live[rng.gen_range(0..live.len())]));
        }
        for _ in 0..n_miss {
            batch.push(ConcurrentOp::SearchMiss(
                miss_keys[rng.gen_range(0..miss_keys.len())],
            ));
        }
        batch.shuffle(&mut rng);
        live.extend(inserted_now);
        batches.push(batch);
    }
    ConcurrentWorkload {
        initial_keys: initial_keys.to_vec(),
        batches,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn distinct_keys_are_distinct_and_valid() {
        let keys = distinct_keys(100_000, 0);
        let set: HashSet<_> = keys.iter().collect();
        assert_eq!(set.len(), keys.len());
        assert!(keys.iter().all(|&k| k <= MAX_KEY));
    }

    #[test]
    fn domains_are_disjoint() {
        let a: HashSet<u32> = distinct_keys(50_000, 0).into_iter().collect();
        let b: HashSet<u32> = distinct_keys(50_000, 1).into_iter().collect();
        assert!(a.is_disjoint(&b));
    }

    #[test]
    fn queries_all_exist_are_members() {
        let keys = distinct_keys(1_000, 0);
        let set: HashSet<_> = keys.iter().copied().collect();
        let qs = queries_all_exist(&keys, 5_000, 9);
        assert_eq!(qs.len(), 5_000);
        assert!(qs.iter().all(|q| set.contains(q)));
    }

    #[test]
    fn gamma_constants_sum_to_one() {
        for g in [
            Gamma::UPDATES_ONLY,
            Gamma::MIXED_40_UPDATES,
            Gamma::MIXED_20_UPDATES,
        ] {
            g.validate();
        }
    }

    #[test]
    fn concurrent_workload_respects_gamma() {
        let w = concurrent_workload(10_000, Gamma::MIXED_40_UPDATES, 10_000, 3, 1);
        assert_eq!(w.initial_keys.len(), 10_000);
        assert_eq!(w.batches.len(), 3);
        for batch in &w.batches {
            assert_eq!(batch.len(), 10_000);
            let ins = batch
                .iter()
                .filter(|o| matches!(o, ConcurrentOp::Insert(_)))
                .count();
            let del = batch
                .iter()
                .filter(|o| matches!(o, ConcurrentOp::Delete(_)))
                .count();
            assert_eq!(ins, 2_000);
            assert_eq!(del, 2_000);
        }
    }

    #[test]
    fn deletes_reference_live_keys_and_never_repeat() {
        let w = concurrent_workload(5_000, Gamma::UPDATES_ONLY, 2_000, 5, 2);
        let mut ever_live: HashSet<u32> = w.initial_keys.iter().copied().collect();
        let mut deleted = HashSet::new();
        for batch in &w.batches {
            for op in batch {
                match op {
                    ConcurrentOp::Insert(k) => {
                        ever_live.insert(*k);
                    }
                    ConcurrentOp::Delete(k) => {
                        assert!(ever_live.contains(k), "delete of never-inserted key");
                        assert!(deleted.insert(*k), "key deleted twice across batches");
                    }
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn miss_searches_use_disjoint_domain() {
        let w = concurrent_workload(1_000, Gamma::MIXED_20_UPDATES, 1_000, 2, 3);
        let table_domain: HashSet<u32> = distinct_keys(10_000, 0).into_iter().collect();
        for batchin in &w.batches {
            for op in batchin {
                if let ConcurrentOp::SearchMiss(k) = op {
                    assert!(!table_domain.contains(k));
                }
            }
        }
    }
}
