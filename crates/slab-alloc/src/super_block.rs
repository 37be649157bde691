//! Super blocks: the top level of SlabAlloc's memory hierarchy (paper Fig. 3).
//!
//! A super block is one contiguous allocation holding `NM` memory blocks.
//! Each memory block consists of a 1024-bit availability bitmap (one 32-bit
//! word per warp lane) plus 1024 memory units (128 B slabs). A warp caches
//! its resident block's bitmap in registers — here, the warp-local
//! `[u32; 32]` returned by [`SuperBlock::read_bitmap`] — and claims units by
//! CASing individual bitmap words in global memory.

use std::sync::atomic::{AtomicU32, Ordering};

use simt::memory::SlabStorage;
use simt::warp::WARP_SIZE;
use simt::PerfCounters;

use crate::layout::UNITS_PER_BLOCK;

/// Bitmap words per memory block: 1024 units / 32 bits.
pub const BITMAP_WORDS: usize = (UNITS_PER_BLOCK as usize) / 32;

/// One super block: `blocks` memory blocks of bitmaps + slabs.
pub struct SuperBlock {
    bitmaps: Box<[AtomicU32]>,
    slabs: SlabStorage,
}

impl SuperBlock {
    /// Allocates a super block with `blocks` memory blocks, every unit free
    /// and every slab lane initialized to `fill`.
    pub fn new(blocks: u32, fill: u32) -> Self {
        let bitmaps = (0..blocks as usize * BITMAP_WORDS)
            .map(|_| AtomicU32::new(0))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        let slabs = SlabStorage::new(blocks as usize * UNITS_PER_BLOCK as usize, fill);
        Self { bitmaps, slabs }
    }

    /// The slab storage backing this super block.
    #[inline]
    pub fn slabs(&self) -> &SlabStorage {
        &self.slabs
    }

    /// Number of memory blocks.
    #[inline]
    pub fn num_blocks(&self) -> u32 {
        (self.bitmaps.len() / BITMAP_WORDS) as u32
    }

    /// Device bytes held: bitmaps and slabs.
    pub fn bytes(&self) -> usize {
        self.bitmaps.len() * 4 + self.slabs.bytes()
    }

    #[inline]
    fn word(&self, block: u32, lane: usize) -> &AtomicU32 {
        &self.bitmaps[block as usize * BITMAP_WORDS + lane]
    }

    /// Warp-coalesced read of a block's full bitmap: lane *i* receives word
    /// *i* (the paper: "each resident change requires a single coalesced
    /// memory access to read all the bitmaps"). Bills one 128 B transaction.
    pub fn read_bitmap(&self, block: u32, counters: &mut PerfCounters) -> [u32; WARP_SIZE] {
        counters.slab_reads += 1;
        let mut words = [0u32; WARP_SIZE];
        for (lane, w) in words.iter_mut().enumerate() {
            *w = self.word(block, lane).load(Ordering::Acquire);
        }
        words
    }

    /// Lane-scoped `atomicCAS` claiming `bit` of bitmap word `lane` in
    /// `block`. `expected` is the warp's cached register copy of that word.
    /// On success returns `Ok(())`; on failure returns the word's actual
    /// current value so the caller can refresh its register cache (the
    /// paper's retry path: "some other warp has previously allocated new
    /// memory units from this memory block").
    pub fn try_claim(
        &self,
        block: u32,
        lane: usize,
        expected: u32,
        bit: u32,
        counters: &mut PerfCounters,
    ) -> Result<(), u32> {
        debug_assert!(bit < 32);
        debug_assert_eq!(expected & (1 << bit), 0, "claiming an occupied bit");
        counters.atomics += 1;
        simt::chaos::maybe_yield();
        match self.word(block, lane).compare_exchange(
            expected,
            expected | (1 << bit),
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => Ok(()),
            Err(actual) => {
                counters.cas_failures += 1;
                Err(actual)
            }
        }
    }

    /// Atomically frees `unit` of `block` ("deallocation is done by first
    /// locating the slab's memory block's bitmap in global memory and then
    /// atomically unsetting the corresponding bit"). Returns whether the bit
    /// was actually set — `false` means a double free, which the caller
    /// must record rather than ignore (detected in every build profile).
    pub fn release(&self, block: u32, unit: u32, counters: &mut PerfCounters) -> bool {
        counters.atomics += 1;
        let lane = (unit / 32) as usize;
        let bit = 1u32 << (unit % 32);
        let prev = self.word(block, lane).fetch_and(!bit, Ordering::AcqRel);
        prev & bit != 0
    }

    /// Occupancy of one block (popcount over its bitmap words). Host-side
    /// statistic; does not bill transactions.
    pub fn block_occupancy(&self, block: u32) -> u32 {
        (0..BITMAP_WORDS)
            .map(|lane| self.word(block, lane).load(Ordering::Acquire).count_ones())
            .sum()
    }

    /// Total allocated units in this super block. Host-side statistic.
    pub fn allocated_units(&self) -> u64 {
        self.bitmaps
            .iter()
            .map(|w| w.load(Ordering::Acquire).count_ones() as u64)
            .sum()
    }

    /// True if the unit's bitmap bit is currently set. Host-side check used
    /// by tests and invariant audits.
    pub fn is_unit_allocated(&self, block: u32, unit: u32) -> bool {
        let lane = (unit / 32) as usize;
        self.word(block, lane).load(Ordering::Acquire) & (1 << (unit % 32)) != 0
    }
}

impl std::fmt::Debug for SuperBlock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SuperBlock")
            .field("blocks", &self.num_blocks())
            .field("allocated_units", &self.allocated_units())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_super_block_is_empty() {
        let sb = SuperBlock::new(4, u32::MAX);
        assert_eq!(sb.num_blocks(), 4);
        assert_eq!(sb.allocated_units(), 0);
        assert_eq!(sb.slabs().num_slabs(), 4 * 1024);
    }

    #[test]
    fn claim_then_release_roundtrip() {
        let mut c = PerfCounters::default();
        let sb = SuperBlock::new(2, 0);
        assert!(sb.try_claim(1, 3, 0, 7, &mut c).is_ok());
        assert!(sb.is_unit_allocated(1, 3 * 32 + 7));
        assert_eq!(sb.allocated_units(), 1);
        assert!(sb.release(1, 3 * 32 + 7, &mut c));
        assert_eq!(sb.allocated_units(), 0);
    }

    #[test]
    fn double_release_reports_false_in_every_profile() {
        let mut c = PerfCounters::default();
        let sb = SuperBlock::new(1, 0);
        sb.try_claim(0, 0, 0, 4, &mut c).unwrap();
        assert!(sb.release(0, 4, &mut c));
        assert!(!sb.release(0, 4, &mut c), "second free must report false");
        assert_eq!(sb.allocated_units(), 0, "double free must not corrupt");
    }

    #[test]
    fn stale_cached_word_fails_claim_and_returns_actual() {
        let mut c = PerfCounters::default();
        let sb = SuperBlock::new(1, 0);
        sb.try_claim(0, 0, 0, 0, &mut c).unwrap();
        // A warp with a stale (all-free) register cache must get the real word.
        match sb.try_claim(0, 0, 0, 1, &mut c) {
            Err(actual) => assert_eq!(actual, 0b1),
            Ok(()) => panic!("claim with stale expected value must fail"),
        }
        assert_eq!(c.cas_failures, 1);
    }

    #[test]
    fn bitmap_read_is_one_coalesced_transaction() {
        let mut c = PerfCounters::default();
        let sb = SuperBlock::new(1, 0);
        sb.try_claim(0, 5, 0, 2, &mut c).unwrap();
        let before = c.slab_reads;
        let words = sb.read_bitmap(0, &mut c);
        assert_eq!(c.slab_reads, before + 1);
        assert_eq!(words[5], 0b100);
        assert!(words.iter().enumerate().all(|(i, &w)| i == 5 || w == 0));
    }

    #[test]
    fn occupancy_counts_per_block() {
        let mut c = PerfCounters::default();
        let sb = SuperBlock::new(3, 0);
        for bit in 0..5 {
            sb.try_claim(2, 0, (1 << bit) - 1, bit, &mut c).unwrap();
        }
        assert_eq!(sb.block_occupancy(2), 5);
        assert_eq!(sb.block_occupancy(0), 0);
        assert_eq!(sb.allocated_units(), 5);
    }

    #[test]
    fn concurrent_claims_never_hand_out_the_same_unit() {
        use std::collections::HashSet;
        let sb = SuperBlock::new(1, 0);
        let claimed = parking_lot::Mutex::new(Vec::<u32>::new());
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let sb = &sb;
                let claimed = &claimed;
                scope.spawn(move || {
                    let mut c = PerfCounters::default();
                    let mut mine = vec![];
                    // Each thread claims 100 units with the retry protocol.
                    'outer: for _ in 0..100 {
                        for lane in 0..WARP_SIZE {
                            let mut cached = sb.read_bitmap(0, &mut c)[lane];
                            loop {
                                let free = !cached;
                                if free == 0 {
                                    break; // word full, try next lane
                                }
                                let bit = free.trailing_zeros();
                                match sb.try_claim(0, lane, cached, bit, &mut c) {
                                    Ok(()) => {
                                        mine.push(lane as u32 * 32 + bit);
                                        continue 'outer;
                                    }
                                    Err(actual) => cached = actual,
                                }
                            }
                        }
                        panic!("block exhausted unexpectedly");
                    }
                    claimed.lock().extend(mine);
                });
            }
        });
        let claimed = claimed.into_inner();
        assert_eq!(claimed.len(), 800);
        let unique: HashSet<_> = claimed.iter().collect();
        assert_eq!(unique.len(), 800, "duplicate unit handed out");
        assert_eq!(sb.allocated_units(), 800);
    }
}
