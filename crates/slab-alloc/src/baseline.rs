//! Baseline allocators the paper compares SlabAlloc against (§II, §V).
//!
//! The paper's measurement (Tesla K40c, 1 M × 128 B slab allocations, one
//! allocation per thread, the WCWS pattern of sequentially arriving
//! independent requests per warp):
//!
//! * CUDA `malloc`: 1.2 s (0.8 M slabs/s) — dominated by a device-wide
//!   serialized heap;
//! * Halloc: 66 ms (16.1 M slabs/s) — hashed memory pools claimed by
//!   per-thread atomics, fast for coalesced per-warp allocations but
//!   divergent for ours;
//! * SlabAlloc: 1.8 ms (600 M slabs/s).
//!
//! Both baselines here are *simulations of the mechanism*, not ports: what
//! matters for the comparison is the serialization (CUDA malloc) and the
//! per-thread divergence + probing (Halloc) under the slab hash's
//! allocation pattern, and both substitutes preserve exactly those.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

use parking_lot::Mutex;
use simt::memory::SlabStorage;
use simt::WarpCtx;

use crate::traits::{AllocError, SlabAllocator, SlabRef};

/// Pointers from baseline allocators are plain slab indices; keep them out
/// of the sentinel range (super block 0xFF).
const MAX_BASELINE_SLABS: usize = 0xFF00_0000;

/// A CUDA-`malloc`-style allocator: one device-wide heap behind a global
/// lock, with a free list. Every allocation serializes against every other
/// allocation in flight — the reason the paper measures it at under
/// 1 M slabs/s.
pub struct SerialHeapSim {
    storage: SlabStorage,
    heap: Mutex<SerialHeap>,
    double_free_count: AtomicU64,
}

struct SerialHeap {
    next_fresh: u32,
    free_list: Vec<u32>,
    capacity: u32,
}

impl SerialHeapSim {
    /// A heap of `capacity` slabs, lanes initialized to `fill`.
    pub fn new(capacity: usize, fill: u32) -> Self {
        assert!(capacity < MAX_BASELINE_SLABS);
        Self {
            storage: SlabStorage::new(capacity, fill),
            heap: Mutex::new(SerialHeap {
                next_fresh: 0,
                free_list: Vec::new(),
                capacity: capacity as u32,
            }),
            double_free_count: AtomicU64::new(0),
        }
    }
}

impl SlabAllocator for SerialHeapSim {
    type WarpState = ();

    fn new_warp_state(&self) {}

    fn try_allocate(&self, _state: &mut (), ctx: &mut WarpCtx) -> Result<u32, AllocError> {
        if simt::chaos::should_fail_alloc() {
            return Err(AllocError::Injected);
        }
        // One global lock round-trip per allocation, plus the heap's own
        // bookkeeping traffic (header read + write).
        ctx.counters.lock_acquisitions += 1;
        ctx.counters.sector_reads += 2;
        ctx.counters.sector_writes += 1;
        ctx.counters.atomics += 1;
        let mut heap = self.heap.lock();
        if let Some(ptr) = heap.free_list.pop() {
            return Ok(ptr);
        }
        if heap.next_fresh >= heap.capacity {
            return Err(AllocError::OutOfSlabs {
                allocated: heap.next_fresh as u64 - heap.free_list.len() as u64,
                capacity: heap.capacity as u64,
            });
        }
        let ptr = heap.next_fresh;
        heap.next_fresh += 1;
        Ok(ptr)
    }

    fn deallocate(&self, ptr: u32, ctx: &mut WarpCtx) {
        ctx.counters.lock_acquisitions += 1;
        ctx.counters.sector_writes += 1;
        let mut heap = self.heap.lock();
        if ptr >= heap.next_fresh || heap.free_list.contains(&ptr) {
            // Double free (or never-allocated pointer): refused and recorded.
            ctx.counters.double_frees += 1;
            self.double_free_count.fetch_add(1, Ordering::AcqRel);
            return;
        }
        ctx.counters.deallocations += 1;
        heap.free_list.push(ptr);
    }

    fn locate(&self, ptr: u32) -> SlabRef<'_> {
        SlabRef {
            storage: &self.storage,
            slab: ptr as usize,
        }
    }

    fn allocated_slabs(&self) -> u64 {
        let heap = self.heap.lock();
        heap.next_fresh as u64 - heap.free_list.len() as u64
    }

    fn capacity_slabs(&self) -> u64 {
        self.heap.lock().capacity as u64
    }

    fn double_frees(&self) -> u64 {
        self.double_free_count.load(Ordering::Acquire)
    }

    fn metadata_bytes(&self) -> u64 {
        64 // a heap header; irrelevant, the lock dominates
    }

    fn committed_bytes(&self) -> u64 {
        self.storage.bytes() as u64 + self.metadata_bytes()
    }
}

/// A Halloc-style allocator: slabs live in hashed memory pools; a thread
/// allocates by hashing to a pool and probing its bitmap words with
/// individual atomics. Unlike SlabAlloc there is no warp cooperation and no
/// register-cached bitmap: every probe is a scattered global read followed
/// by a CAS, executed by a single lane while the rest of its warp idles
/// (billed as divergent steps).
pub struct HallocSim {
    pools: Box<[HallocPool]>,
    storage: SlabStorage,
    slabs_per_pool: u32,
    double_free_count: AtomicU64,
}

struct HallocPool {
    words: Box<[AtomicU32]>,
}

impl HallocSim {
    /// `num_pools` hashed pools sharing `capacity` slabs.
    pub fn new(num_pools: usize, capacity: usize, fill: u32) -> Self {
        assert!(num_pools >= 1 && capacity < MAX_BASELINE_SLABS);
        let slabs_per_pool = capacity.div_ceil(num_pools).div_ceil(32) * 32;
        let pools = (0..num_pools)
            .map(|_| HallocPool {
                words: (0..slabs_per_pool / 32)
                    .map(|_| AtomicU32::new(0))
                    .collect::<Vec<_>>()
                    .into_boxed_slice(),
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Self {
            pools,
            storage: SlabStorage::new(num_pools * slabs_per_pool, fill),
            slabs_per_pool: slabs_per_pool as u32,
            double_free_count: AtomicU64::new(0),
        }
    }
}

/// Per-thread allocation counter: diversifies the pool hash over time, like
/// Halloc's allocation counters.
pub struct HallocState {
    counter: u32,
}

impl SlabAllocator for HallocSim {
    type WarpState = HallocState;

    fn new_warp_state(&self) -> HallocState {
        HallocState { counter: 0 }
    }

    fn try_allocate(&self, state: &mut HallocState, ctx: &mut WarpCtx) -> Result<u32, AllocError> {
        if simt::chaos::should_fail_alloc() {
            return Err(AllocError::Injected);
        }
        // Halloc's allocation critical path (superblock-set hashing, chunk
        // hierarchy descent, counter updates) executes dozens of dependent
        // instructions with a single lane active in the WCWS scenario. The
        // fixed cost below is calibrated once from the paper's measurement
        // (1 M × 128 B allocations in 66 ms ⇒ ~60 serialized steps per
        // allocation at the modeled issue rate); contention-dependent costs
        // (probing, CAS retries) accrue on top from the loop itself.
        ctx.counters.divergent_steps += 60;
        state.counter = state.counter.wrapping_add(1);
        let mut hash = (ctx.warp_id as u32)
            .wrapping_mul(0x9e37_79b9)
            .wrapping_add(state.counter.wrapping_mul(0x85eb_ca6b));
        let words_per_pool = (self.slabs_per_pool / 32) as usize;
        // Probe pools; within a pool, probe bitmap words from a hashed start.
        for _ in 0..self.pools.len() * 2 {
            hash = hash.wrapping_mul(0x7feb_352d) ^ (hash >> 15);
            let pool_idx = (hash as usize) % self.pools.len();
            let pool = &self.pools[pool_idx];
            let start = (hash >> 8) as usize % words_per_pool;
            for i in 0..words_per_pool {
                let w = (start + i) % words_per_pool;
                // Single-lane scattered read while 31 lanes idle.
                ctx.counters.sector_reads += 1;
                ctx.counters.divergent_steps += 2;
                let mut cur = pool.words[w].load(Ordering::Acquire);
                while cur != u32::MAX {
                    let bit = (!cur).trailing_zeros();
                    ctx.counters.atomics += 1;
                    ctx.counters.divergent_steps += 1;
                    match pool.words[w].compare_exchange(
                        cur,
                        cur | (1 << bit),
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    ) {
                        Ok(_) => {
                            ctx.counters.allocations += 1;
                            let slab =
                                pool_idx as u32 * self.slabs_per_pool + (w as u32) * 32 + bit;
                            return Ok(slab);
                        }
                        Err(actual) => {
                            ctx.counters.cas_failures += 1;
                            cur = actual;
                        }
                    }
                }
            }
        }
        Err(AllocError::OutOfSlabs {
            allocated: self.allocated_slabs(),
            capacity: self.capacity_slabs(),
        })
    }

    fn deallocate(&self, ptr: u32, ctx: &mut WarpCtx) {
        let pool = &self.pools[(ptr / self.slabs_per_pool) as usize];
        let unit = ptr % self.slabs_per_pool;
        ctx.counters.atomics += 1;
        ctx.counters.divergent_steps += 1;
        let prev =
            pool.words[(unit / 32) as usize].fetch_and(!(1 << (unit % 32)), Ordering::AcqRel);
        if prev & (1 << (unit % 32)) != 0 {
            ctx.counters.deallocations += 1;
        } else {
            // The bit was already clear: a double free, detected in every
            // build profile and kept out of the deallocation count.
            ctx.counters.double_frees += 1;
            self.double_free_count.fetch_add(1, Ordering::AcqRel);
        }
    }

    fn locate(&self, ptr: u32) -> SlabRef<'_> {
        SlabRef {
            storage: &self.storage,
            slab: ptr as usize,
        }
    }

    fn allocated_slabs(&self) -> u64 {
        self.pools
            .iter()
            .flat_map(|p| p.words.iter())
            .map(|w| w.load(Ordering::Acquire).count_ones() as u64)
            .sum()
    }

    fn capacity_slabs(&self) -> u64 {
        self.pools.len() as u64 * self.slabs_per_pool as u64
    }

    fn double_frees(&self) -> u64 {
        self.double_free_count.load(Ordering::Acquire)
    }

    fn metadata_bytes(&self) -> u64 {
        self.pools.len() as u64 * (self.slabs_per_pool as u64 / 8)
    }

    fn committed_bytes(&self) -> u64 {
        self.storage.bytes() as u64 + self.metadata_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn serial_heap_allocates_and_reuses() {
        let heap = SerialHeapSim::new(100, u32::MAX);
        let mut ctx = WarpCtx::for_test(0);
        let a = heap.allocate(&mut (), &mut ctx);
        let b = heap.allocate(&mut (), &mut ctx);
        assert_ne!(a, b);
        assert_eq!(heap.allocated_slabs(), 2);
        heap.deallocate(a, &mut ctx);
        assert_eq!(heap.allocated_slabs(), 1);
        let c = heap.allocate(&mut (), &mut ctx);
        assert_eq!(c, a, "free list must be reused");
        assert_eq!(ctx.counters.lock_acquisitions, 4);
    }

    #[test]
    fn serial_heap_exhaustion_panics() {
        let heap = SerialHeapSim::new(2, 0);
        let mut ctx = WarpCtx::for_test(0);
        heap.allocate(&mut (), &mut ctx);
        heap.allocate(&mut (), &mut ctx);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            heap.allocate(&mut (), &mut WarpCtx::for_test(0))
        }));
        assert!(r.is_err());
    }

    #[test]
    fn serial_heap_try_allocate_recovers_after_free() {
        let heap = SerialHeapSim::new(2, 0);
        let mut ctx = WarpCtx::for_test(0);
        let a = heap.try_allocate(&mut (), &mut ctx).unwrap();
        heap.try_allocate(&mut (), &mut ctx).unwrap();
        assert_eq!(
            heap.try_allocate(&mut (), &mut ctx),
            Err(AllocError::OutOfSlabs {
                allocated: 2,
                capacity: 2
            })
        );
        heap.deallocate(a, &mut ctx);
        assert_eq!(heap.try_allocate(&mut (), &mut ctx), Ok(a));
    }

    #[test]
    fn halloc_try_allocate_surfaces_exhaustion() {
        let halloc = HallocSim::new(1, 32, 0);
        let mut ctx = WarpCtx::for_test(0);
        let mut st = halloc.new_warp_state();
        for _ in 0..32 {
            halloc.try_allocate(&mut st, &mut ctx).unwrap();
        }
        match halloc.try_allocate(&mut st, &mut ctx) {
            Err(AllocError::OutOfSlabs { allocated, .. }) => assert_eq!(allocated, 32),
            other => panic!("expected OutOfSlabs, got {other:?}"),
        }
    }

    #[test]
    fn baselines_honour_injected_failures() {
        let heap = SerialHeapSim::new(8, 0);
        let halloc = HallocSim::new(1, 32, 0);
        let mut ctx = WarpCtx::for_test(0);
        let _g = simt::ChaosGuard::plan(simt::FaultPlan::seeded(0xFA11).with_alloc_failures(1.0));
        assert_eq!(
            heap.try_allocate(&mut (), &mut ctx),
            Err(AllocError::Injected)
        );
        assert_eq!(
            halloc.try_allocate(&mut halloc.new_warp_state(), &mut ctx),
            Err(AllocError::Injected)
        );
    }

    #[test]
    fn halloc_distinct_pointers_and_divergence_billing() {
        let halloc = HallocSim::new(4, 4096, u32::MAX);
        let mut ctx = WarpCtx::for_test(5);
        let mut st = halloc.new_warp_state();
        let mut seen = HashSet::new();
        for _ in 0..1000 {
            let ptr = halloc.allocate(&mut st, &mut ctx);
            assert!(seen.insert(ptr));
        }
        assert_eq!(halloc.allocated_slabs(), 1000);
        // Per-thread allocation must be billed as divergent work.
        assert!(ctx.counters.divergent_steps >= 2000);
        assert_eq!(ctx.counters.allocations, 1000);
    }

    #[test]
    fn halloc_dealloc_roundtrip() {
        let halloc = HallocSim::new(2, 256, 0);
        let mut ctx = WarpCtx::for_test(0);
        let mut st = halloc.new_warp_state();
        let ptrs: Vec<_> = (0..50)
            .map(|_| halloc.allocate(&mut st, &mut ctx))
            .collect();
        for p in &ptrs {
            halloc.deallocate(*p, &mut ctx);
        }
        assert_eq!(halloc.allocated_slabs(), 0);
    }

    #[test]
    fn halloc_concurrent_no_duplicates() {
        let halloc = HallocSim::new(8, 1 << 15, 0);
        let grid = simt::Grid::new(8);
        let all = parking_lot::Mutex::new(Vec::new());
        grid.launch_warps(32, |ctx| {
            let mut st = halloc.new_warp_state();
            let mine: Vec<u32> = (0..500).map(|_| halloc.allocate(&mut st, ctx)).collect();
            all.lock().extend(mine);
        });
        let all = all.into_inner();
        let unique: HashSet<_> = all.iter().collect();
        assert_eq!(unique.len(), all.len());
        assert_eq!(halloc.allocated_slabs(), all.len() as u64);
    }

    #[test]
    fn baselines_refuse_and_count_double_frees() {
        let heap = SerialHeapSim::new(16, 0);
        let mut ctx = WarpCtx::for_test(0);
        let a = heap.allocate(&mut (), &mut ctx);
        heap.deallocate(a, &mut ctx);
        heap.deallocate(a, &mut ctx); // double free
        heap.deallocate(7, &mut ctx); // never allocated
        assert_eq!(heap.double_frees(), 2);
        assert_eq!(heap.allocated_slabs(), 0);

        let halloc = HallocSim::new(1, 64, 0);
        let mut st = halloc.new_warp_state();
        let p = halloc.allocate(&mut st, &mut ctx);
        halloc.deallocate(p, &mut ctx);
        halloc.deallocate(p, &mut ctx); // double free
        assert_eq!(halloc.double_frees(), 1);
        assert_eq!(halloc.allocated_slabs(), 0);
        assert_eq!(ctx.counters.double_frees, 3);
        // Deallocation counters only reflect the real frees.
        assert_eq!(ctx.counters.deallocations, 2);
    }

    #[test]
    fn baseline_resolve_is_identity_indexing() {
        let heap = SerialHeapSim::new(10, 7);
        let mut ctx = WarpCtx::for_test(0);
        let ptr = heap.allocate(&mut (), &mut ctx);
        let slab = heap.resolve(ptr, &mut ctx);
        assert_eq!(slab.slab, ptr as usize);
        let lanes = slab.storage.read_slab(slab.slab, &mut ctx.counters);
        assert!(lanes.iter().all(|&l| l == 7));
    }
}
