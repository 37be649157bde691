//! The slab hash: a dynamic hash table with chaining, one slab list per
//! bucket (paper §III-C).
//!
//! The table is a direct-address array of B *base slabs* (bucket heads);
//! each bucket is the head of an independent slab list whose chained slabs
//! come from the allocator. A universal hash distributes keys over buckets
//! with an average slab count of β = n/(M·B).

use std::marker::PhantomData;

use simt::memory::SlabStorage;
use simt::warp::WARP_SIZE;
use simt::WarpCtx;
use slab_alloc::{SlabAlloc, SlabAllocConfig, SlabAllocator, SlabRef, BASE_SLAB};

use crate::entry::{EntryLayout, EMPTY_KEY};
use crate::hasher::UniversalHash;

/// Configuration for a [`SlabHash`].
#[derive(Debug, Clone, Copy)]
pub struct SlabHashConfig {
    /// Number of buckets (base slabs), B.
    pub num_buckets: u32,
    /// Seed for the universal hash function draw.
    pub seed: u64,
    /// How many lost/injected CAS retries an operation tolerates before
    /// failing with [`TableError::RetryBudgetExhausted`](crate::TableError).
    /// Defaults to [`RETRY_BUDGET`](crate::ops::RETRY_BUDGET).
    pub retry_budget: u32,
}

impl SlabHashConfig {
    /// A table with `num_buckets` buckets and a default seed.
    pub fn with_buckets(num_buckets: u32) -> Self {
        Self {
            num_buckets,
            seed: 0x5eed_cafe,
            retry_budget: crate::ops::RETRY_BUDGET,
        }
    }

    /// Overrides the per-operation CAS retry budget (see
    /// [`TableError::RetryBudgetExhausted`](crate::TableError)). Small
    /// budgets make chaos tests fail fast; large ones ride out heavier
    /// contention before shedding.
    pub fn with_retry_budget(mut self, retry_budget: u32) -> Self {
        self.retry_budget = retry_budget;
        self
    }
}

/// Picks the bucket count that hits `target_utilization` for `n` expected
/// elements of layout `L` (the planning step the paper performs with
/// Fig. 4c: "to achieve a particular memory utilization we can refer to
/// Fig. 4c and choose the optimal β and then compute the required number of
/// initial buckets").
///
/// Models bucket loads as Poisson(n/B) and the per-bucket slab count as
/// `max(1, ceil(load / M))`, then binary-searches B so that the expected
/// utilization `n·x / (128 · B · E[slabs])` matches the target.
pub fn buckets_for_utilization<L: EntryLayout>(n: usize, target_utilization: f64) -> u32 {
    assert!(n > 0, "need at least one element to size for");
    assert!(
        (0.0..L::max_utilization()).contains(&target_utilization) && target_utilization > 0.0,
        "target utilization must be in (0, {:.3})",
        L::max_utilization()
    );
    let predicted = |b: f64| -> f64 {
        let payload = n as f64 * L::ELEM_BYTES as f64;
        payload / (128.0 * b * expected_slabs_per_bucket::<L>(n as f64 / b))
    };
    // Utilization decreases monotonically in B; bisect.
    let (mut lo, mut hi) = (1.0f64, (4 * n) as f64);
    for _ in 0..64 {
        let mid = (lo + hi) / 2.0;
        if predicted(mid) > target_utilization {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    (hi.round() as u32).max(1)
}

/// E[max(1, ceil(K/M))] for K ~ Poisson(lambda).
fn expected_slabs_per_bucket<L: EntryLayout>(lambda: f64) -> f64 {
    let m = L::ELEMS_PER_SLAB as f64;
    // Sum the Poisson pmf far enough into the tail.
    let kmax = (lambda + 12.0 * lambda.sqrt() + 30.0) as usize;
    let mut pmf = (-lambda).exp();
    let mut expectation = 0.0;
    let mut total_p = 0.0;
    for k in 0..=kmax {
        let slabs = ((k as f64) / m).ceil().max(1.0);
        expectation += pmf * slabs;
        total_p += pmf;
        pmf *= lambda / (k as f64 + 1.0);
    }
    // Attribute leftover tail mass to the boundary slab count.
    expectation += (1.0 - total_p).max(0.0) * ((kmax as f64) / m).ceil().max(1.0);
    expectation
}

/// The slab hash. Generic over the entry layout (`KeyValue` / `KeyOnly`)
/// and the slab allocator (SlabAlloc by default; baselines for comparison).
///
/// All mutating operations take `&self` — the table is a concurrent
/// lock-free structure shared across simulated warps. The exception is
/// [`flush`](SlabHash::flush), which requires `&mut self` because the paper
/// runs it as an exclusive kernel.
pub struct SlabHash<L: EntryLayout, A: SlabAllocator = SlabAlloc> {
    base: SlabStorage,
    alloc: A,
    hash: UniversalHash,
    retry_budget: u32,
    /// Live-pin count: every operation pins it, and `maintain` compacts
    /// only in a window with no pin live.
    pub(crate) clock: simt::EpochClock,
    _layout: PhantomData<fn() -> L>,
}

impl<L: EntryLayout> SlabHash<L, SlabAlloc> {
    /// A table with `num_buckets` buckets backed by a SlabAlloc sized
    /// generously relative to the bucket count.
    pub fn new(config: SlabHashConfig) -> Self {
        // Capacity for up to ~16 chained slabs per bucket across all super
        // blocks; start with one active super block and let the allocator
        // activate the rest as its occupancy climbs (`GROWTH_OCCUPANCY`, or
        // the low-free watermark), so a table commits (and fill-writes)
        // about as many super blocks as its chains need.
        // Clamp: even a fully chained table rarely needs more slabs than
        // buckets, and the contiguous (light) address space caps at 4 GB.
        let want_slabs = (config.num_buckets as u64)
            .saturating_mul(16)
            .clamp(1 << 13, 1 << 24);
        let blocks_per_super = want_slabs.div_ceil(32 * 1024).clamp(4, 512) as u32;
        let alloc = SlabAlloc::new(SlabAllocConfig {
            blocks_per_super,
            initial_active: 1,
            fill: EMPTY_KEY,
            low_free_watermark: 1024,
            ..SlabAllocConfig::default()
        });
        Self::with_allocator(config, alloc)
    }

    /// A table sized so that inserting `n` elements lands at
    /// `target_utilization` (paper §VI-A's sweep methodology).
    pub fn for_expected_elements(n: usize, target_utilization: f64, seed: u64) -> Self {
        let num_buckets = buckets_for_utilization::<L>(n, target_utilization);
        Self::new(SlabHashConfig {
            seed,
            ..SlabHashConfig::with_buckets(num_buckets)
        })
    }
}

impl<L: EntryLayout, A: SlabAllocator> SlabHash<L, A> {
    /// A table over a caller-provided allocator (used to compare SlabAlloc
    /// against the baseline allocators, §V).
    pub fn with_allocator(config: SlabHashConfig, alloc: A) -> Self {
        assert!(config.num_buckets >= 1, "need at least one bucket");
        Self {
            base: SlabStorage::new(config.num_buckets as usize, EMPTY_KEY),
            alloc,
            hash: UniversalHash::new(config.seed, config.num_buckets),
            retry_budget: config.retry_budget,
            clock: simt::EpochClock::new(),
            _layout: PhantomData,
        }
    }

    /// The per-operation CAS retry budget this table was built with.
    #[inline]
    pub fn retry_budget(&self) -> u32 {
        self.retry_budget
    }

    /// Pins the epoch for the duration of an operation, so no compaction
    /// pass rewrites a chain this warp may still traverse.
    #[inline]
    pub(crate) fn epoch_pin(&self) -> simt::EpochPin<'_> {
        self.clock.pin()
    }

    /// Number of buckets, B.
    #[inline]
    pub fn num_buckets(&self) -> u32 {
        self.hash.num_buckets()
    }

    /// The universal hash function in use.
    #[inline]
    pub fn hash_fn(&self) -> &UniversalHash {
        &self.hash
    }

    /// The allocator backing chained slabs.
    #[inline]
    pub fn allocator(&self) -> &A {
        &self.alloc
    }

    /// Device bytes the table occupies: base slabs + every slab the
    /// allocator has handed out (the denominator of memory utilization).
    ///
    /// This is the paper's §III-C accounting, not the footprint: it leaves
    /// out every slab the allocator has committed but not handed out. For
    /// what the allocator holds, see [`SlabAllocator::committed_bytes`].
    pub fn device_bytes(&self) -> u64 {
        (self.base.bytes() as u64) + self.alloc.allocated_slabs() * 128
    }

    /// Resolves a (bucket, slab-pointer) coordinate to concrete storage:
    /// `BASE_SLAB` means the bucket's head slab in the base array, anything
    /// else is an allocated slab (the paper's `SlabAddress()`).
    #[inline]
    pub(crate) fn slab_loc(&self, bucket: u32, ptr: u32, ctx: &mut WarpCtx) -> SlabRef<'_> {
        if ptr == BASE_SLAB {
            SlabRef {
                storage: &self.base,
                slab: bucket as usize,
            }
        } else {
            self.alloc.resolve(ptr, ctx)
        }
    }

    /// Warp-coalesced `ReadSlab()`: all 32 lanes of the slab at
    /// (bucket, ptr).
    #[inline]
    pub(crate) fn read_slab(&self, bucket: u32, ptr: u32, ctx: &mut WarpCtx) -> [u32; WARP_SIZE] {
        let loc = self.slab_loc(bucket, ptr, ctx);
        loc.storage.read_slab(loc.slab, &mut ctx.counters)
    }

}

impl<L: EntryLayout, A: SlabAllocator> std::fmt::Debug for SlabHash<L, A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SlabHash")
            .field("layout", &L::NAME)
            .field("num_buckets", &self.num_buckets())
            .field("allocated_slabs", &self.alloc.allocated_slabs())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::{KeyOnly, KeyValue};

    #[test]
    fn construction_and_accessors() {
        let t = SlabHash::<KeyValue>::new(SlabHashConfig::with_buckets(128));
        assert_eq!(t.num_buckets(), 128);
        assert_eq!(t.allocator().allocated_slabs(), 0);
        assert_eq!(t.device_bytes(), 128 * 128);
    }

    #[test]
    fn base_slabs_start_empty() {
        let t = SlabHash::<KeyOnly>::new(SlabHashConfig::with_buckets(4));
        let mut ctx = WarpCtx::for_test(0);
        for b in 0..4 {
            let lanes = t.read_slab(b, BASE_SLAB, &mut ctx);
            assert!(lanes.iter().all(|&l| l == EMPTY_KEY));
        }
    }

    #[test]
    fn poisson_slab_expectation_sane() {
        // Tiny load: every bucket still needs its base slab.
        assert!((expected_slabs_per_bucket::<KeyValue>(0.1) - 1.0).abs() < 0.01);
        // Heavy load: ~lambda/M slabs.
        let e = expected_slabs_per_bucket::<KeyValue>(150.0);
        assert!((9.5..11.0).contains(&e), "E[slabs] at lambda=150: {e}");
    }

    #[test]
    fn buckets_for_utilization_monotone_in_target() {
        let n = 1 << 18;
        let b_low = buckets_for_utilization::<KeyValue>(n, 0.2);
        let b_mid = buckets_for_utilization::<KeyValue>(n, 0.5);
        let b_high = buckets_for_utilization::<KeyValue>(n, 0.8);
        assert!(
            b_low > b_mid && b_mid > b_high,
            "higher target utilization needs fewer buckets: {b_low} {b_mid} {b_high}"
        );
    }

    #[test]
    fn buckets_for_utilization_rejects_unreachable_targets() {
        let r = std::panic::catch_unwind(|| buckets_for_utilization::<KeyValue>(1000, 0.97));
        assert!(r.is_err(), "targets above 94 % are unreachable");
    }

    #[test]
    fn low_utilization_means_sub_slab_buckets() {
        // At 20 % utilization the paper's average slab count is ~0.2: far
        // more buckets than slabs' worth of data.
        let n = 1 << 16;
        let b = buckets_for_utilization::<KeyValue>(n, 0.2);
        let beta = n as f64 / (15.0 * b as f64);
        assert!(
            (0.1..0.5).contains(&beta),
            "beta {beta} inconsistent with 20 % utilization"
        );
    }
}
