//! Device global memory, organized as 128-byte slabs of atomic words.
//!
//! The paper fixes the slab size at 128 B = 32 × 32-bit lanes (§IV-B), so a
//! warp reading one slab performs exactly one coalesced memory transaction
//! with each thread holding 1/32 of the slab. We store a slab as sixteen
//! `AtomicU64` words, 128 B-aligned: lane *l* occupies the low half of word
//! *l/2* when *l* is even, the high half when odd. That mapping makes a
//! key–value pair (even/odd lane couple) one naturally aligned `u64`, so the
//! paper's 64-bit `atomicCAS` of a pair is a single `compare_exchange`, and
//! gives us sound 32-bit lane CAS (next pointers, key-only entries) via a
//! CAS loop on the containing word.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::counters::PerfCounters;
use crate::warp::WARP_SIZE;

/// Number of 64-bit words per 128-byte slab.
pub const WORDS_PER_SLAB: usize = WARP_SIZE / 2;

/// Bytes per slab (the warp's physical memory access width on all targeted
/// architectures).
pub const SLAB_BYTES: usize = 128;

/// Splits a lane index into (word index, `true` if the lane is the high half).
#[inline]
fn lane_word(lane: usize) -> (usize, bool) {
    debug_assert!(lane < WARP_SIZE);
    (lane / 2, lane % 2 == 1)
}

#[inline]
fn half(word: u64, high: bool) -> u32 {
    if high {
        (word >> 32) as u32
    } else {
        word as u32
    }
}

#[inline]
fn with_half(word: u64, high: bool, value: u32) -> u64 {
    if high {
        (word & 0x0000_0000_FFFF_FFFF) | ((value as u64) << 32)
    } else {
        (word & 0xFFFF_FFFF_0000_0000) | value as u64
    }
}

/// Packs a (key, value) pair into the 64-bit word layout used on device:
/// key in the even (low) lane, value in the odd (high) lane.
#[inline]
pub fn pack_pair(key: u32, value: u32) -> u64 {
    key as u64 | ((value as u64) << 32)
}

/// Inverse of [`pack_pair`].
#[inline]
pub fn unpack_pair(word: u64) -> (u32, u32) {
    (word as u32, (word >> 32) as u32)
}

/// A contiguous array of slabs in device global memory.
///
/// All access is through atomic operations; `&SlabStorage` is freely shared
/// between concurrently executing warps. Loads use `Acquire` and successful
/// RMWs `Release` so that a warp observing a published pointer/pair also
/// observes the writes that preceded its publication — the same guarantee
/// CUDA's default-scope atomics give the original implementation.
pub struct SlabStorage {
    slabs: Box<[Slab]>,
}

/// One slab: sixteen words, aligned so it starts on a 128 B boundary. A
/// full-slab read then touches exactly two 64 B host cache lines, as the
/// device's one 128 B transaction does; unaligned, the allocator's usual
/// 16 B offset would spread it over three.
#[repr(C, align(128))]
struct Slab([AtomicU64; WORDS_PER_SLAB]);

const _: () = assert!(std::mem::size_of::<Slab>() == SLAB_BYTES);

impl SlabStorage {
    /// Allocates `num_slabs` slabs with every lane initialized to `fill`
    /// (typically the data structure's `EMPTY_KEY` sentinel).
    pub fn new(num_slabs: usize, fill: u32) -> Self {
        let word = pack_pair(fill, fill);
        let slabs = (0..num_slabs)
            .map(|_| Slab(std::array::from_fn(|_| AtomicU64::new(word))))
            .collect();
        Self { slabs }
    }

    /// Number of slabs in this storage.
    #[inline]
    pub fn num_slabs(&self) -> usize {
        self.slabs.len()
    }

    /// Total bytes of device memory held.
    #[inline]
    pub fn bytes(&self) -> usize {
        self.slabs.len() * SLAB_BYTES
    }

    #[inline]
    fn word(&self, slab: usize, word_idx: usize) -> &AtomicU64 {
        &self.slabs[slab].0[word_idx]
    }

    /// Asks the host to start loading both cache lines of `slab`, so a
    /// later read of it does not wait on memory. Host-side latency hiding
    /// only: it bills no counter, is no chaos yield site, and changes no
    /// memory, so the modeled device never sees it. A no-op off x86-64.
    #[inline]
    #[allow(unsafe_code)]
    pub fn prefetch(&self, slab: usize) {
        let slab = &self.slabs[slab].0;
        #[cfg(target_arch = "x86_64")]
        // SAFETY: a prefetch is a hint: it never faults and never writes.
        // Both addresses come from in-bounds references into this slab
        // (word 0 and word 8 start its two cache lines).
        unsafe {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            _mm_prefetch::<_MM_HINT_T0>(std::ptr::from_ref(&slab[0]).cast());
            _mm_prefetch::<_MM_HINT_T0>(std::ptr::from_ref(&slab[WORDS_PER_SLAB / 2]).cast());
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = slab;
    }

    /// Unbilled single-lane 32-bit read, for host-side work the modeled
    /// device never performs (the warp-start chain prefetch reads next
    /// pointers through it). Kernels read through [`Self::read_lane`].
    #[inline]
    pub fn peek_lane(&self, slab: usize, lane: usize) -> u32 {
        let (w, high) = lane_word(lane);
        half(self.word(slab, w).load(Ordering::Acquire), high)
    }

    /// Warp-coalesced read of a whole slab: each lane receives its 32-bit
    /// portion. Counts as **one** 128-byte transaction (`ReadSlab()` in the
    /// paper's pseudocode).
    ///
    /// The sixteen word loads are individually atomic but the slab is not
    /// snapshot-atomic — exactly like the hardware, where a warp's coalesced
    /// read can interleave with other warps' CASes. All algorithms built on
    /// top re-validate with CAS before mutating.
    #[inline]
    pub fn read_slab(&self, slab: usize, counters: &mut PerfCounters) -> [u32; WARP_SIZE] {
        counters.slab_reads += 1;
        let mut lanes = [0u32; WARP_SIZE];
        for (w, word) in self.slabs[slab].0.iter().enumerate() {
            let word = word.load(Ordering::Acquire);
            lanes[2 * w] = word as u32;
            lanes[2 * w + 1] = (word >> 32) as u32;
        }
        lanes
    }

    /// Single-lane 32-bit read (uncoalesced; counts one sector transaction).
    #[inline]
    pub fn read_lane(&self, slab: usize, lane: usize, counters: &mut PerfCounters) -> u32 {
        counters.sector_reads += 1;
        self.peek_lane(slab, lane)
    }

    /// Non-atomic-looking plain store of a single lane, implemented as an RMW
    /// on the containing word (used by the paper's DELETE, line 59, which
    /// overwrites a key with `DELETED_KEY` using a plain store; an RMW keeps
    /// the neighbouring lane intact in our packed representation).
    #[inline]
    pub fn write_lane(&self, slab: usize, lane: usize, value: u32, counters: &mut PerfCounters) {
        counters.sector_writes += 1;
        crate::chaos::maybe_yield();
        let (w, high) = lane_word(lane);
        let word = self.word(slab, w);
        let mut cur = word.load(Ordering::Acquire);
        loop {
            let new = with_half(cur, high, value);
            match word.compare_exchange_weak(cur, new, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }

    /// 32-bit `atomicCAS` on one lane. Returns the lane's previous value
    /// (CUDA semantics): the CAS succeeded iff the return equals `current`.
    #[inline]
    pub fn cas_lane(
        &self,
        slab: usize,
        lane: usize,
        current: u32,
        new: u32,
        counters: &mut PerfCounters,
    ) -> u32 {
        counters.atomics += 1;
        crate::chaos::maybe_yield();
        let (w, high) = lane_word(lane);
        let word = self.word(slab, w);
        let mut cur = word.load(Ordering::Acquire);
        loop {
            let observed = half(cur, high);
            if observed != current {
                return observed;
            }
            let newword = with_half(cur, high, new);
            match word.compare_exchange_weak(cur, newword, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => return current,
                Err(actual) => cur = actual,
            }
        }
    }

    /// 64-bit `atomicCAS` on an even/odd lane pair. `pair_idx` is the word
    /// index (lane / 2). Returns the previous packed value (CUDA semantics).
    #[inline]
    pub fn cas_pair(
        &self,
        slab: usize,
        pair_idx: usize,
        current: u64,
        new: u64,
        counters: &mut PerfCounters,
    ) -> u64 {
        counters.atomics += 1;
        crate::chaos::maybe_yield();
        match self.word(slab, pair_idx).compare_exchange(
            current,
            new,
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(prev) => prev,
            Err(prev) => prev,
        }
    }

    /// 64-bit atomic exchange on a lane pair (used by cuckoo hashing's
    /// eviction step: `atomicExch` swaps the incoming pair with the occupant).
    #[inline]
    pub fn exch_pair(
        &self,
        slab: usize,
        pair_idx: usize,
        new: u64,
        counters: &mut PerfCounters,
    ) -> u64 {
        counters.atomic_exchanges += 1;
        crate::chaos::maybe_yield();
        self.word(slab, pair_idx).swap(new, Ordering::AcqRel)
    }

    /// Reads one 64-bit pair without touching the rest of the slab
    /// (uncoalesced; one sector).
    #[inline]
    pub fn read_pair(&self, slab: usize, pair_idx: usize, counters: &mut PerfCounters) -> u64 {
        counters.sector_reads += 1;
        self.word(slab, pair_idx).load(Ordering::Acquire)
    }

    /// Plain (non-RMW) store of a whole pair word. Used by exclusive-phase
    /// kernels such as FLUSH where no concurrent access exists.
    #[inline]
    pub fn store_pair(
        &self,
        slab: usize,
        pair_idx: usize,
        value: u64,
        counters: &mut PerfCounters,
    ) {
        counters.sector_writes += 1;
        self.word(slab, pair_idx).store(value, Ordering::Release);
    }

    /// Resets every lane of `slab` to `fill`. Exclusive-phase helper; every
    /// scrub path (flush rebuild, surplus release) goes
    /// through here.
    pub fn clear_slab(&self, slab: usize, fill: u32, counters: &mut PerfCounters) {
        counters.sector_writes += WORDS_PER_SLAB as u64;
        let word = pack_pair(fill, fill);
        for w in &self.slabs[slab].0 {
            w.store(word, Ordering::Release);
        }
    }
}

impl std::fmt::Debug for SlabStorage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SlabStorage")
            .field("num_slabs", &self.num_slabs())
            .field("bytes", &self.bytes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counters() -> PerfCounters {
        PerfCounters::default()
    }

    #[test]
    fn new_storage_is_filled() {
        let mut c = counters();
        let s = SlabStorage::new(3, 0xFFFF_FFFF);
        assert_eq!(s.num_slabs(), 3);
        assert_eq!(s.bytes(), 3 * SLAB_BYTES);
        for slab in 0..3 {
            let lanes = s.read_slab(slab, &mut c);
            assert!(lanes.iter().all(|&l| l == 0xFFFF_FFFF));
        }
    }

    #[test]
    fn every_slab_of_a_large_storage_is_128_byte_aligned() {
        // 2^16 slabs (8 MiB): a plain word array this large comes back
        // from the system allocator at offset 16 mod 128.
        let n = 1 << 16;
        let s = SlabStorage::new(n, 0);
        assert_eq!(s.num_slabs(), n);
        assert_eq!(s.bytes(), n * SLAB_BYTES);
        for slab in s.slabs.iter() {
            let addr = std::ptr::from_ref(slab) as usize;
            assert_eq!(
                addr % 128,
                0,
                "slab at {addr:#x} straddles a third cache line"
            );
        }
        // Prefetching is unobservable: no counter, no change.
        let mut c = counters();
        s.prefetch(0);
        s.prefetch(n - 1);
        assert_eq!(s.peek_lane(n - 1, 31), 0);
        assert_eq!(s.read_slab(n - 1, &mut c), [0; WARP_SIZE]);
    }

    #[test]
    fn pair_pack_roundtrip() {
        let w = pack_pair(0x1234_5678, 0x9abc_def0);
        assert_eq!(unpack_pair(w), (0x1234_5678, 0x9abc_def0));
    }

    #[test]
    fn lane_mapping_matches_pair_layout() {
        let mut c = counters();
        let s = SlabStorage::new(1, 0);
        // Writing a pair at word 3 must surface as lanes 6 (key) and 7 (value).
        s.store_pair(0, 3, pack_pair(111, 222), &mut c);
        let lanes = s.read_slab(0, &mut c);
        assert_eq!(lanes[6], 111);
        assert_eq!(lanes[7], 222);
        assert_eq!(s.read_lane(0, 6, &mut c), 111);
        assert_eq!(s.read_lane(0, 7, &mut c), 222);
    }

    #[test]
    fn cas_lane_success_and_failure() {
        let mut c = counters();
        let s = SlabStorage::new(1, 0);
        // Success returns the expected old value.
        assert_eq!(s.cas_lane(0, 31, 0, 42, &mut c), 0);
        assert_eq!(s.read_lane(0, 31, &mut c), 42);
        // Failure returns the actual occupant and leaves memory unchanged.
        assert_eq!(s.cas_lane(0, 31, 0, 99, &mut c), 42);
        assert_eq!(s.read_lane(0, 31, &mut c), 42);
        // The neighbouring lane in the same u64 word is untouched.
        assert_eq!(s.read_lane(0, 30, &mut c), 0);
    }

    #[test]
    fn cas_pair_success_and_failure() {
        let mut c = counters();
        let s = SlabStorage::new(1, u32::MAX);
        let empty = pack_pair(u32::MAX, u32::MAX);
        let pair = pack_pair(5, 50);
        assert_eq!(s.cas_pair(0, 0, empty, pair, &mut c), empty);
        assert_eq!(s.cas_pair(0, 0, empty, pack_pair(6, 60), &mut c), pair);
        let lanes = s.read_slab(0, &mut c);
        assert_eq!((lanes[0], lanes[1]), (5, 50));
    }

    #[test]
    fn write_lane_preserves_sibling() {
        let mut c = counters();
        let s = SlabStorage::new(1, 7);
        s.write_lane(0, 10, 123, &mut c);
        assert_eq!(s.read_lane(0, 10, &mut c), 123);
        assert_eq!(s.read_lane(0, 11, &mut c), 7);
    }

    #[test]
    fn exch_pair_swaps() {
        let mut c = counters();
        let s = SlabStorage::new(1, 0);
        let a = pack_pair(1, 2);
        let b = pack_pair(3, 4);
        assert_eq!(s.exch_pair(0, 5, a, &mut c), pack_pair(0, 0));
        assert_eq!(s.exch_pair(0, 5, b, &mut c), a);
        assert_eq!(s.read_pair(0, 5, &mut c), b);
    }

    #[test]
    fn read_slab_counts_one_transaction() {
        let mut c = counters();
        let s = SlabStorage::new(4, 0);
        s.read_slab(2, &mut c);
        s.read_slab(3, &mut c);
        assert_eq!(c.slab_reads, 2);
        assert_eq!(c.sector_reads, 0);
    }

    #[test]
    fn concurrent_cas_lane_no_lost_updates() {
        use std::sync::atomic::{AtomicU32, Ordering as O};
        // Hammer both halves of the same u64 word from many threads; the
        // CAS-loop implementation must not lose updates to either half.
        let s = SlabStorage::new(1, 0);
        let successes = AtomicU32::new(0);
        std::thread::scope(|scope| {
            for t in 0..8 {
                let s = &s;
                let successes = &successes;
                scope.spawn(move || {
                    let mut c = PerfCounters::default();
                    let lane = if t % 2 == 0 { 30 } else { 31 };
                    for i in 0..1000u32 {
                        let cur = s.read_lane(0, lane, &mut c);
                        if s.cas_lane(0, lane, cur, cur.wrapping_add(1), &mut c) == cur {
                            successes.fetch_add(1, O::Relaxed);
                        }
                        std::hint::black_box(i);
                    }
                });
            }
        });
        let mut c = PerfCounters::default();
        let total = s.read_lane(0, 30, &mut c) as u64 + s.read_lane(0, 31, &mut c) as u64;
        assert_eq!(total, successes.load(O::Relaxed) as u64);
    }
}

#[cfg(test)]
mod race_tests {
    use super::*;
    use crate::chaos::ChaosGuard;

    /// 64-bit pair CAS must never produce a torn pair: concurrent writers
    /// each install (tag, tag) pairs; every observed pair must be coherent.
    #[test]
    fn no_torn_pairs_under_chaos() {
        let _g = ChaosGuard::new(0.3);
        let s = SlabStorage::new(1, 0);
        std::thread::scope(|scope| {
            for t in 1..=4u32 {
                let s = &s;
                scope.spawn(move || {
                    let mut c = PerfCounters::default();
                    for i in 0..500 {
                        let tag = t * 10_000 + i;
                        let cur = s.read_pair(0, 3, &mut c);
                        s.cas_pair(0, 3, cur, pack_pair(tag, tag), &mut c);
                        let (k, v) = unpack_pair(s.read_pair(0, 3, &mut c));
                        assert_eq!(k, v, "torn pair observed: ({k}, {v})");
                    }
                });
            }
        });
    }

    /// Lane-granular CAS on the two halves of one u64 word must preserve
    /// both halves under concurrent updates (the CAS-loop implementation).
    #[test]
    fn sibling_lanes_are_independent_under_chaos() {
        let _g = ChaosGuard::new(0.3);
        let s = SlabStorage::new(1, 0);
        std::thread::scope(|scope| {
            for lane in [8usize, 9] {
                let s = &s;
                scope.spawn(move || {
                    let mut c = PerfCounters::default();
                    for _ in 0..2_000 {
                        let cur = s.read_lane(0, lane, &mut c);
                        s.cas_lane(0, lane, cur, cur.wrapping_add(1), &mut c);
                    }
                });
            }
        });
        let mut c = PerfCounters::default();
        // Each lane was incremented only by its own thread: no lost updates
        // and no cross-lane interference.
        assert_eq!(s.read_lane(0, 8, &mut c), 2_000);
        assert_eq!(s.read_lane(0, 9, &mut c), 2_000);
    }
}
