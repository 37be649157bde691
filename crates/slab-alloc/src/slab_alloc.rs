//! SlabAlloc: the paper's warp-synchronous slab allocator (§V).
//!
//! The hierarchy is super blocks → memory blocks → 1024 memory units
//! (slabs). Memory blocks are distributed among warps by hashing: each warp
//! owns a *resident block* whose 1024-bit availability bitmap it caches in
//! registers (one 32-bit word per lane). An allocation is, in the common
//! case, a single `atomicCAS` on one bitmap word; when the resident block
//! fills up the warp re-hashes to a new one (a "resident change", one
//! coalesced bitmap read). After `resident_threshold` resident changes the
//! allocator activates an additional super block — the probing/growth
//! scheme that lets the design scale to ~1 TB without CPU intervention —
//! but only once the active super blocks are [`GROWTH_OCCUPANCY`] full.
//! Below that, a run of full blocks only means the warp hashed into a dense
//! region, so it keeps re-hashing over the active set. Growth therefore
//! tracks how many slabs are handed out, not how unlucky one warp's probes
//! were, and a bulk build commits about as many super blocks as its slabs
//! need. If probing still comes up empty, the allocator activates a reserve
//! super block before it reports [`AllocError::OutOfSlabs`].

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::OnceLock;

use simt::telemetry::{Gauge, GaugeSnapshot, Watermark};
use simt::warp::{ballot, ffs, WARP_SIZE};
use simt::WarpCtx;

use crate::layout::{is_allocated_ptr, SlabAddr, MAX_SUPER_BLOCKS, UNITS_PER_BLOCK};
use crate::super_block::SuperBlock;
use crate::traits::{AllocError, SlabAllocator, SlabRef};

/// Configuration for [`SlabAlloc`].
#[derive(Debug, Clone, Copy)]
pub struct SlabAllocConfig {
    /// Total super blocks the allocator may grow to (NS ≤ 254).
    pub super_blocks: u32,
    /// Super blocks active (hashable) at creation.
    pub initial_active: u32,
    /// Memory blocks per super block (NM ≤ 2¹⁴). The paper's evaluation
    /// uses 256.
    pub blocks_per_super: u32,
    /// Value every lane of a fresh slab is initialized to (the owning data
    /// structure's EMPTY sentinel).
    pub fill: u32,
    /// Resident changes a warp tolerates before it asks for an additional
    /// super block. The request is granted only when the active super
    /// blocks are at least [`GROWTH_OCCUPANCY`] full; below that the warp
    /// re-hashes to another block instead.
    pub resident_threshold: u32,
    /// SlabAlloc-light (§V): all super blocks behave as one contiguous
    /// array with a single globally known base pointer, so address decoding
    /// skips the per-super-block shared-memory lookup. Capacity is then
    /// limited to 4 GB of slabs.
    pub light: bool,
    /// Free-unit headroom floor (0 disables). When the free units across
    /// *active* super blocks drop to this level the allocator proactively
    /// activates another super block and the `free_headroom` pressure gauge
    /// records a watermark breach — pressure becomes visible (and acted on)
    /// before it turns into an [`AllocError`].
    pub low_free_watermark: u64,
}

impl Default for SlabAllocConfig {
    /// The paper's evaluation configuration: 32 super blocks, 256 memory
    /// blocks each, 1024 units of 128 B (§VI), contiguous ("light"
    /// addressing is what the evaluation used: "SlabAlloc with 32 super
    /// blocks (on a contiguous allocation)").
    fn default() -> Self {
        Self {
            super_blocks: 32,
            initial_active: 32,
            blocks_per_super: 256,
            fill: u32::MAX,
            resident_threshold: 2,
            light: true,
            low_free_watermark: 0,
        }
    }
}

impl SlabAllocConfig {
    /// A small configuration for tests: capacity `super_blocks × blocks ×
    /// 1024` slabs.
    pub fn small(super_blocks: u32, blocks_per_super: u32) -> Self {
        Self {
            super_blocks,
            initial_active: super_blocks,
            blocks_per_super,
            ..Self::default()
        }
    }

    fn validate(&self) {
        assert!(
            (1..=MAX_SUPER_BLOCKS).contains(&self.super_blocks),
            "super_blocks must be in 1..=254"
        );
        assert!(
            (1..=self.super_blocks).contains(&self.initial_active),
            "initial_active must be in 1..=super_blocks"
        );
        assert!(
            (1..=(1 << 14)).contains(&self.blocks_per_super),
            "blocks_per_super must be in 1..=16384"
        );
        if self.light {
            let bytes = self.super_blocks as u64 * self.blocks_per_super as u64 * 1024 * 128;
            assert!(
                bytes <= 4 << 30,
                "SlabAlloc-light is limited to 4 GB of slabs (got {bytes} bytes); \
                 use the regular SlabAlloc for larger capacities"
            );
        }
        assert!(self.resident_threshold >= 1);
    }
}

/// Occupancy of the active super blocks (slabs handed out over active
/// capacity, as numerator / denominator) at or above which a warp that has
/// churned through `resident_threshold` full resident blocks activates
/// another super block: 3/4.
///
/// Failed probes alone are no sign of pressure: a bulk build's warps meet
/// full blocks long before the active super blocks fill, and growing on
/// each such run would activate (and fill-write) every reserve super block
/// where a third of them hold the slabs (DESIGN.md, "Allocator growth and
/// watermarks").
pub const GROWTH_OCCUPANCY: (u64, u64) = (3, 4);

/// Warp-private allocator state: the resident memory block and the
/// register-cached copy of its bitmap.
pub struct ResidentState {
    valid: bool,
    super_block: u32,
    block: u32,
    /// One cached bitmap word per lane ("by using just one 32-bit bitmap
    /// variable per thread ... a warp can fully store a memory block's
    /// full/empty availability").
    cached: [u32; WARP_SIZE],
    /// Total resident-change attempts, fed to the probing hash.
    attempts: u32,
}

impl ResidentState {
    fn invalid() -> Self {
        Self {
            valid: false,
            super_block: 0,
            block: 0,
            cached: [u32::MAX; WARP_SIZE],
            attempts: 0,
        }
    }
}

/// The warp-synchronous slab allocator.
pub struct SlabAlloc {
    config: SlabAllocConfig,
    supers: Box<[OnceLock<SuperBlock>]>,
    /// Number of super blocks currently in the resident-selection hash
    /// domain; grows toward `config.super_blocks` under pressure.
    active_supers: AtomicU32,
    /// Pressure gauge: slabs currently handed out (peak = high watermark).
    /// Host-side statistic, never billed to `PerfCounters`.
    outstanding: Gauge,
    /// Pressure gauge: free units across *active* super blocks; armed with
    /// `config.low_free_watermark` when nonzero.
    free_headroom: Gauge,
    /// Double frees detected (and refused) since creation.
    double_free_count: AtomicU64,
}

/// 32-bit finalizer from splitmix64, used as the resident-selection hash.
#[inline]
fn mix32(mut x: u32) -> u32 {
    x ^= x >> 16;
    x = x.wrapping_mul(0x7feb_352d);
    x ^= x >> 15;
    x = x.wrapping_mul(0x846c_a68b);
    x ^= x >> 16;
    x
}

impl SlabAlloc {
    /// Creates an allocator. Super blocks are initialized lazily on first
    /// residency, so a large configured capacity costs nothing up front.
    pub fn new(config: SlabAllocConfig) -> Self {
        config.validate();
        let supers = (0..config.super_blocks)
            .map(|_| OnceLock::new())
            .collect::<Vec<_>>()
            .into_boxed_slice();
        let free_headroom = if config.low_free_watermark > 0 {
            Gauge::with_direction("slab_alloc.free_headroom", Watermark::Low)
                .with_threshold(config.low_free_watermark)
        } else {
            Gauge::with_direction("slab_alloc.free_headroom", Watermark::Low)
        };
        free_headroom.set(
            config.initial_active as u64 * config.blocks_per_super as u64
                * UNITS_PER_BLOCK as u64,
        );
        Self {
            config,
            supers,
            active_supers: AtomicU32::new(config.initial_active),
            outstanding: Gauge::new("slab_alloc.outstanding"),
            free_headroom,
            double_free_count: AtomicU64::new(0),
        }
    }

    /// The paper's evaluation configuration (32 × 256 × 1024 units).
    pub fn paper_default(fill: u32) -> Self {
        Self::new(SlabAllocConfig {
            fill,
            ..SlabAllocConfig::default()
        })
    }

    /// The allocator's configuration.
    pub fn config(&self) -> &SlabAllocConfig {
        &self.config
    }

    #[inline]
    fn super_block(&self, idx: u32) -> &SuperBlock {
        self.supers[idx as usize]
            .get_or_init(|| SuperBlock::new(self.config.blocks_per_super, self.config.fill))
    }

    /// Picks and caches a new resident block for the warp: "both the super
    /// block and its memory block are chosen randomly using two different
    /// hash functions (taking the global warp ID and the total number of
    /// resident change attempts as input arguments)".
    fn acquire_resident(&self, state: &mut ResidentState, ctx: &mut WarpCtx) {
        let active = self.active_supers.load(Ordering::Acquire);
        let h1 = mix32(ctx.warp_id as u32 ^ state.attempts.wrapping_mul(0x9e37_79b9));
        let h2 = mix32(h1 ^ 0x85eb_ca6b);
        state.super_block = h1 % active;
        state.block = h2 % self.config.blocks_per_super;
        let sb = self.super_block(state.super_block);
        state.cached = sb.read_bitmap(state.block, &mut ctx.counters);
        state.valid = true;
        ctx.counters.resident_changes += 1;
    }

    /// Activates one more super block if the configuration allows. Called
    /// when a warp has churned through `resident_threshold` full resident
    /// blocks at [`GROWTH_OCCUPANCY`] or above, as a last resort before
    /// `OutOfSlabs`, and proactively by the low-free watermark. Returns
    /// whether another super block actually came online.
    fn grow(&self) -> bool {
        self.active_supers
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |active| {
                (active < self.config.super_blocks).then_some(active + 1)
            })
            .is_ok()
    }

    /// Units across the active super blocks.
    fn active_capacity(&self) -> u64 {
        self.active_supers.load(Ordering::Acquire) as u64
            * self.config.blocks_per_super as u64
            * UNITS_PER_BLOCK as u64
    }

    /// Free units across the active super blocks (the growth headroom the
    /// resident-selection hash can actually reach).
    fn active_free_units(&self) -> u64 {
        self.active_capacity()
            .saturating_sub(self.outstanding.value())
    }

    /// Whether the active super blocks are full enough
    /// ([`GROWTH_OCCUPANCY`]) that failed probes mean they are running out
    /// of room rather than that the warp hashed into a full block.
    fn occupancy_warrants_growth(&self) -> bool {
        let (num, den) = GROWTH_OCCUPANCY;
        self.outstanding.value() * den >= self.active_capacity() * num
    }

    /// Re-derives the free-headroom gauge after an outstanding-count change
    /// and, when the low-free watermark is armed and hit, proactively grows
    /// so the next allocations find fresh capacity instead of an error.
    fn refresh_pressure(&self) {
        let free = self.active_free_units();
        self.free_headroom.set(free);
        if self.config.low_free_watermark > 0
            && free <= self.config.low_free_watermark
            && self.grow()
        {
            self.free_headroom.set(self.active_free_units());
        }
    }

    /// Host-side: the number of currently active (hashable) super blocks.
    pub fn active_super_blocks(&self) -> u32 {
        self.active_supers.load(Ordering::Acquire)
    }

    /// Peak slabs simultaneously outstanding since creation (the high
    /// watermark the soak tests bound).
    pub fn peak_outstanding_slabs(&self) -> u64 {
        self.outstanding.extreme()
    }

    /// Times the free-unit headroom crossed below the configured
    /// low-free watermark (0 when the watermark is disabled).
    pub fn low_free_breaches(&self) -> u64 {
        self.free_headroom.breaches()
    }

    /// Point-in-time snapshots of the allocator's pressure gauges
    /// (`outstanding` slabs and `free_headroom` units).
    pub fn pressure_gauges(&self) -> Vec<GaugeSnapshot> {
        vec![self.outstanding.snapshot(), self.free_headroom.snapshot()]
    }

    /// Host-side: audits that `ptr` is a live allocation (used by tests and
    /// the hash table's consistency checks).
    pub fn is_live(&self, ptr: u32) -> bool {
        match SlabAddr::decode(ptr) {
            Some(addr) => self
                .supers
                .get(addr.super_block as usize)
                .and_then(|s| s.get())
                .is_some_and(|sb| sb.is_unit_allocated(addr.block, addr.unit)),
            None => false,
        }
    }
}

impl SlabAllocator for SlabAlloc {
    type WarpState = ResidentState;

    fn new_warp_state(&self) -> ResidentState {
        ResidentState::invalid()
    }

    fn try_allocate(
        &self,
        state: &mut ResidentState,
        ctx: &mut WarpCtx,
    ) -> Result<u32, AllocError> {
        if simt::chaos::should_fail_alloc() {
            return Err(AllocError::Injected);
        }
        // Bound: twice as many failed probes as the whole hierarchy has
        // blocks means the active super blocks are exhausted.
        let max_attempts = 2 * self.config.super_blocks * self.config.blocks_per_super;
        let mut failures = 0u32;
        let resident_before = ctx.counters.resident_changes;
        loop {
            // An allocation round is heavier than a plain traversal round:
            // ballot over the cached bitmaps, bit scan, CAS, 32-bit address
            // encode, and a shuffle to broadcast the result (~2 round units;
            // calibrates SlabAlloc to the paper's 600 M allocations/s).
            ctx.counters.warp_rounds += 2;
            if !state.valid {
                self.acquire_resident(state, ctx);
            }
            // All lanes inspect their cached word; ballot who has free units.
            let free_lanes = ballot(&state.cached, |w| w != u32::MAX);
            let Some(lane) = ffs(free_lanes) else {
                // Resident block (as cached) is full: resident change.
                state.valid = false;
                state.attempts = state.attempts.wrapping_add(1);
                failures += 1;
                if failures.is_multiple_of(self.config.resident_threshold)
                    && self.occupancy_warrants_growth()
                {
                    self.grow();
                }
                if failures > max_attempts {
                    // Last resort: never refuse while a reserve super
                    // block could still serve the request.
                    if !self.grow() {
                        return Err(AllocError::OutOfSlabs {
                            allocated: self.allocated_slabs(),
                            capacity: self.capacity_slabs(),
                        });
                    }
                    failures = 0;
                }
                continue;
            };
            let word = state.cached[lane];
            let bit = (!word).trailing_zeros();
            let sb = self.super_block(state.super_block);
            match sb.try_claim(state.block, lane, word, bit, &mut ctx.counters) {
                Ok(()) => {
                    state.cached[lane] = word | (1 << bit);
                    ctx.counters.allocations += 1;
                    self.outstanding.add(1);
                    self.refresh_pressure();
                    // Resident-block hops this allocation burned before
                    // finding space — the allocator's contention signal.
                    let hops = (ctx.counters.resident_changes - resident_before) as u32;
                    ctx.histograms.resident_hops.record(u64::from(hops));
                    ctx.trace(simt::telemetry::EventKind::Alloc { hops });
                    return Ok(SlabAddr {
                        super_block: state.super_block,
                        block: state.block,
                        unit: lane as u32 * 32 + bit,
                    }
                    .encode());
                }
                Err(actual) => {
                    // Another warp beat us to this word; refresh the register
                    // cache and retry ("the local register-level resident
                    // bitmap should be updated").
                    state.cached[lane] = actual;
                }
            }
        }
    }

    fn deallocate(&self, ptr: u32, ctx: &mut WarpCtx) {
        let addr = SlabAddr::decode(ptr).expect("deallocating a sentinel pointer");
        let sb = self.super_block(addr.super_block);
        if sb.release(addr.block, addr.unit, &mut ctx.counters) {
            ctx.counters.deallocations += 1;
            self.outstanding.sub(1);
            self.refresh_pressure();
        } else {
            // Double free: refused, recorded, accounting untouched.
            ctx.counters.double_frees += 1;
            self.double_free_count.fetch_add(1, Ordering::AcqRel);
        }
    }

    fn resolve(&self, ptr: u32, ctx: &mut WarpCtx) -> SlabRef<'_> {
        debug_assert!(is_allocated_ptr(ptr));
        let addr = SlabAddr::decode(ptr).expect("resolving a sentinel pointer");
        if !self.config.light {
            // Regular SlabAlloc: the super block's 64-bit base pointer lives
            // in shared memory and must be fetched on every lookup (§V).
            ctx.counters.shared_lookups += 1;
        }
        let sb = self.super_block(addr.super_block);
        SlabRef {
            storage: sb.slabs(),
            slab: addr.slab_index_in_super(),
        }
    }

    fn allocated_slabs(&self) -> u64 {
        self.supers
            .iter()
            .filter_map(|s| s.get())
            .map(|sb| sb.allocated_units())
            .sum()
    }

    fn capacity_slabs(&self) -> u64 {
        self.config.super_blocks as u64 * self.config.blocks_per_super as u64
            * UNITS_PER_BLOCK as u64
    }

    /// O(1): capacity minus the `outstanding` gauge, which `try_allocate`
    /// and `deallocate` (the only bitmap mutation sites) keep exact. The
    /// trait default popcounts every bitmap word through
    /// `allocated_slabs()`, which stays the scan `audit()` trusts.
    fn free_slabs(&self) -> u64 {
        self.capacity_slabs().saturating_sub(self.outstanding.value())
    }

    fn try_grow(&self) -> bool {
        let grew = self.grow();
        if grew {
            self.free_headroom.set(self.active_free_units());
        }
        grew
    }

    fn double_frees(&self) -> u64 {
        self.double_free_count.load(Ordering::Acquire)
    }

    fn metadata_bytes(&self) -> u64 {
        // One 1024-bit bitmap per memory block across active supers.
        self.active_super_blocks() as u64 * self.config.blocks_per_super as u64 * 128
    }

    fn committed_bytes(&self) -> u64 {
        // Super blocks materialize on first residency, fully fill-written.
        self.supers
            .iter()
            .filter_map(|s| s.get())
            .map(|sb| sb.bytes() as u64)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn tiny() -> SlabAlloc {
        SlabAlloc::new(SlabAllocConfig {
            fill: u32::MAX,
            ..SlabAllocConfig::small(2, 2)
        })
    }

    #[test]
    fn allocate_returns_distinct_live_pointers() {
        let alloc = tiny();
        let mut ctx = WarpCtx::for_test(0);
        let mut st = alloc.new_warp_state();
        let mut seen = HashSet::new();
        for _ in 0..500 {
            let ptr = alloc.allocate(&mut st, &mut ctx);
            assert!(is_allocated_ptr(ptr));
            assert!(seen.insert(ptr), "duplicate pointer {ptr:#x}");
            assert!(alloc.is_live(ptr));
        }
        assert_eq!(alloc.allocated_slabs(), 500);
        assert_eq!(ctx.counters.allocations, 500);
    }

    #[test]
    fn deallocate_frees_for_reuse() {
        let alloc = tiny();
        let mut ctx = WarpCtx::for_test(3);
        let mut st = alloc.new_warp_state();
        let ptr = alloc.allocate(&mut st, &mut ctx);
        alloc.deallocate(ptr, &mut ctx);
        assert!(!alloc.is_live(ptr));
        assert_eq!(alloc.allocated_slabs(), 0);
        assert_eq!(ctx.counters.deallocations, 1);
    }

    #[test]
    fn fresh_slabs_are_filled_with_sentinel() {
        let alloc = SlabAlloc::new(SlabAllocConfig {
            fill: 0xDEAD_BEEF,
            ..SlabAllocConfig::small(1, 1)
        });
        let mut ctx = WarpCtx::for_test(0);
        let mut st = alloc.new_warp_state();
        let ptr = alloc.allocate(&mut st, &mut ctx);
        let slab = alloc.resolve(ptr, &mut ctx);
        let lanes = slab.storage.read_slab(slab.slab, &mut ctx.counters);
        assert!(lanes.iter().all(|&l| l == 0xDEAD_BEEF));
    }

    #[test]
    fn exhaustion_panics_not_hangs() {
        let alloc = SlabAlloc::new(SlabAllocConfig::small(1, 1)); // 1024 slabs
        let mut ctx = WarpCtx::for_test(0);
        let mut st = alloc.new_warp_state();
        for _ in 0..1024 {
            alloc.allocate(&mut st, &mut ctx);
        }
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut ctx = WarpCtx::for_test(0);
            let mut st = alloc.new_warp_state();
            alloc.allocate(&mut st, &mut ctx)
        }));
        assert!(result.is_err(), "allocation past capacity must panic");
    }

    #[test]
    fn try_allocate_surfaces_exhaustion_and_recovers() {
        let alloc = SlabAlloc::new(SlabAllocConfig::small(1, 1)); // 1024 slabs
        let mut ctx = WarpCtx::for_test(0);
        let mut st = alloc.new_warp_state();
        let ptrs: Vec<u32> = (0..1024)
            .map(|_| alloc.try_allocate(&mut st, &mut ctx).unwrap())
            .collect();
        match alloc.try_allocate(&mut st, &mut ctx) {
            Err(crate::traits::AllocError::OutOfSlabs {
                allocated,
                capacity,
            }) => {
                assert_eq!(allocated, 1024);
                assert_eq!(capacity, 1024);
            }
            other => panic!("expected OutOfSlabs, got {other:?}"),
        }
        // The allocator must stay usable: free one slab, allocate again.
        alloc.deallocate(ptrs[100], &mut ctx);
        let again = alloc.try_allocate(&mut st, &mut ctx).unwrap();
        assert_eq!(again, ptrs[100]);
    }

    #[test]
    fn injected_alloc_failures_honour_the_fault_plan() {
        let alloc = tiny();
        let mut ctx = WarpCtx::for_test(0);
        let mut st = alloc.new_warp_state();
        {
            let _g = simt::ChaosGuard::plan(
                simt::FaultPlan::seeded(0xFA11).with_alloc_failures(1.0),
            );
            for _ in 0..10 {
                assert_eq!(
                    alloc.try_allocate(&mut st, &mut ctx),
                    Err(crate::traits::AllocError::Injected)
                );
            }
            assert_eq!(alloc.allocated_slabs(), 0, "injected failure must not leak");
        }
        // Plan dropped: allocation works again.
        assert!(alloc.try_allocate(&mut st, &mut ctx).is_ok());
    }

    #[test]
    fn growth_activates_more_super_blocks_under_pressure() {
        // Four 1024-unit blocks per super block; every failed probe asks
        // for growth.
        let alloc = SlabAlloc::new(SlabAllocConfig {
            initial_active: 1,
            resident_threshold: 1,
            ..SlabAllocConfig::small(4, 4)
        });
        assert_eq!(alloc.active_super_blocks(), 1);
        let mut ctx = WarpCtx::for_test(0);
        let mut st = alloc.new_warp_state();
        // Below the 3/4 gate: the warp fills two blocks and meets full
        // resident blocks, but re-hashes instead of growing.
        for _ in 0..2048 {
            alloc.allocate(&mut st, &mut ctx);
        }
        assert!(ctx.counters.resident_changes > 2, "no failed probe seen");
        assert_eq!(alloc.active_super_blocks(), 1, "grew below the gate");
        // At the gate (3072 of 4096): the next full block grows, and the
        // drain runs past the first super block.
        for _ in 2048..5000 {
            alloc.allocate(&mut st, &mut ctx);
        }
        assert!(alloc.active_super_blocks() > 1);
        assert_eq!(alloc.allocated_slabs(), 5000);

        // Last resort: with the probe trigger out of reach and every active
        // block full, a reserve super block still serves the request.
        let alloc = SlabAlloc::new(SlabAllocConfig {
            initial_active: 1,
            resident_threshold: u32::MAX,
            ..SlabAllocConfig::small(2, 1)
        });
        for _ in 0..1024 {
            alloc.allocate(&mut st, &mut ctx);
        }
        assert_eq!(alloc.active_super_blocks(), 1);
        assert!(alloc.try_allocate(&mut st, &mut ctx).is_ok());
        assert_eq!(alloc.active_super_blocks(), 2);
        assert_eq!(alloc.allocated_slabs(), 1025);
    }

    #[test]
    fn common_case_is_one_atomic_per_allocation() {
        let alloc = SlabAlloc::new(SlabAllocConfig::small(2, 4));
        let mut ctx = WarpCtx::for_test(7);
        let mut st = alloc.new_warp_state();
        for _ in 0..100 {
            alloc.allocate(&mut st, &mut ctx);
        }
        // 100 allocations from one warp, no contention: exactly one atomic
        // each plus one coalesced bitmap read at residency acquisition.
        assert_eq!(ctx.counters.atomics, 100);
        assert_eq!(ctx.counters.resident_changes, 1);
        assert_eq!(ctx.counters.slab_reads, 1);
    }

    #[test]
    fn light_vs_regular_decode_cost() {
        for (light, expected_lookups) in [(true, 0u64), (false, 50)] {
            let alloc = SlabAlloc::new(SlabAllocConfig {
                light,
                ..SlabAllocConfig::small(1, 2)
            });
            let mut ctx = WarpCtx::for_test(0);
            let mut st = alloc.new_warp_state();
            let ptr = alloc.allocate(&mut st, &mut ctx);
            for _ in 0..50 {
                alloc.resolve(ptr, &mut ctx);
            }
            assert_eq!(ctx.counters.shared_lookups, expected_lookups);
        }
    }

    #[test]
    fn concurrent_warps_get_disjoint_slabs() {
        let alloc = std::sync::Arc::new(SlabAlloc::new(SlabAllocConfig::small(4, 8)));
        let grid = simt::Grid::new(8);
        let ptrs = parking_lot::Mutex::new(Vec::new());
        grid.launch_warps(64, |ctx| {
            let mut st = alloc.new_warp_state();
            let mut mine = Vec::with_capacity(100);
            for _ in 0..100 {
                mine.push(alloc.allocate(&mut st, ctx));
            }
            ptrs.lock().extend(mine);
        });
        let ptrs = ptrs.into_inner();
        assert_eq!(ptrs.len(), 6400);
        let unique: HashSet<_> = ptrs.iter().collect();
        assert_eq!(unique.len(), 6400, "two warps got the same slab");
        assert_eq!(alloc.allocated_slabs(), 6400);
    }

    #[test]
    fn double_free_is_refused_and_counted_in_release_builds() {
        let alloc = tiny();
        let mut ctx = WarpCtx::for_test(0);
        let mut st = alloc.new_warp_state();
        let a = alloc.allocate(&mut st, &mut ctx);
        let b = alloc.allocate(&mut st, &mut ctx);
        alloc.deallocate(a, &mut ctx);
        alloc.deallocate(a, &mut ctx); // double free
        alloc.deallocate(a, &mut ctx); // and again
        assert_eq!(alloc.double_frees(), 2);
        assert_eq!(ctx.counters.double_frees, 2);
        // Accounting is untouched by the refused frees: b is still live.
        assert_eq!(ctx.counters.deallocations, 1);
        assert_eq!(alloc.allocated_slabs(), 1);
        assert!(alloc.is_live(b));
        assert!(!alloc.is_live(a));
        // The freed unit is still allocatable exactly once.
        let again = alloc.try_allocate(&mut st, &mut ctx).unwrap();
        assert_eq!(again, a);
    }

    #[test]
    fn low_free_watermark_breaches_and_grows_proactively() {
        let alloc = SlabAlloc::new(SlabAllocConfig {
            initial_active: 1,
            low_free_watermark: 64,
            ..SlabAllocConfig::small(4, 1)
        });
        assert_eq!(alloc.active_super_blocks(), 1);
        assert_eq!(alloc.low_free_breaches(), 0);
        let mut ctx = WarpCtx::for_test(0);
        let mut st = alloc.new_warp_state();
        // Drain the first super block down to the watermark: the headroom
        // gauge must record the breach and growth must bring another super
        // block online before allocation ever fails.
        for _ in 0..1000 {
            alloc.allocate(&mut st, &mut ctx);
        }
        assert!(alloc.low_free_breaches() >= 1, "watermark breach not seen");
        assert!(
            alloc.active_super_blocks() >= 2,
            "proactive growth did not activate a super block"
        );
        // Headroom recovered past the watermark after growth.
        let snap = &alloc.pressure_gauges()[1];
        assert_eq!(snap.name, "slab_alloc.free_headroom");
        assert!(snap.value > 64, "headroom {} still at watermark", snap.value);
    }

    #[test]
    fn pressure_gauges_track_outstanding_peak() {
        let alloc = tiny();
        let mut ctx = WarpCtx::for_test(0);
        let mut st = alloc.new_warp_state();
        let ptrs: Vec<u32> = (0..300)
            .map(|_| alloc.allocate(&mut st, &mut ctx))
            .collect();
        for p in &ptrs[..200] {
            alloc.deallocate(*p, &mut ctx);
        }
        // Peak stays at the high watermark even after frees.
        assert_eq!(alloc.peak_outstanding_slabs(), 300);
        let outstanding = &alloc.pressure_gauges()[0];
        assert_eq!(outstanding.name, "slab_alloc.outstanding");
        assert_eq!(outstanding.value, 100);
        assert_eq!(outstanding.extreme, 300);
    }

    #[test]
    fn try_grow_activates_capacity_on_demand() {
        let alloc = SlabAlloc::new(SlabAllocConfig {
            initial_active: 1,
            ..SlabAllocConfig::small(2, 1)
        });
        let headroom_before = alloc.pressure_gauges()[1].value;
        assert!(alloc.try_grow());
        assert_eq!(alloc.active_super_blocks(), 2);
        assert!(alloc.pressure_gauges()[1].value > headroom_before);
        // Fully grown: further requests report no growth.
        assert!(!alloc.try_grow());
        assert_eq!(alloc.active_super_blocks(), 2);
    }

    #[test]
    fn concurrent_alloc_dealloc_churn_preserves_accounting() {
        let alloc = SlabAlloc::new(SlabAllocConfig::small(2, 2));
        let grid = simt::Grid::new(8);
        grid.launch_warps(32, |ctx| {
            let mut st = alloc.new_warp_state();
            let mut held = Vec::new();
            for round in 0..200 {
                held.push(alloc.allocate(&mut st, ctx));
                if round % 3 == 0 {
                    if let Some(p) = held.pop() {
                        alloc.deallocate(p, ctx);
                    }
                    if let Some(p) = held.first().copied() {
                        held.remove(0);
                        alloc.deallocate(p, ctx);
                    }
                }
            }
            for p in held {
                alloc.deallocate(p, ctx);
            }
        });
        assert_eq!(alloc.allocated_slabs(), 0, "leak or double-free detected");
    }

    #[test]
    fn free_slab_gauge_matches_the_bitmap_scan_after_a_storm() {
        let alloc = SlabAlloc::new(SlabAllocConfig::small(2, 2));
        let grid = simt::Grid::new(8);
        grid.launch_warps(32, |ctx| {
            let mut st = alloc.new_warp_state();
            let mut held = Vec::new();
            for round in 0..200 {
                held.push(alloc.allocate(&mut st, ctx));
                if round % 3 == 0 {
                    let p = held.swap_remove(round % held.len());
                    alloc.deallocate(p, ctx);
                }
            }
            // Keep every other survivor, so the check runs against a
            // partly full heap rather than an empty one.
            for p in held.into_iter().step_by(2) {
                alloc.deallocate(p, ctx);
            }
        });
        let allocated = alloc.allocated_slabs();
        assert!(allocated > 0);
        assert_eq!(alloc.free_slabs(), alloc.capacity_slabs() - allocated);
    }
}

#[cfg(test)]
mod probing_tests {
    use super::*;
    use crate::traits::SlabAllocator;

    /// The resident-selection hash must spread warps across memory blocks —
    /// the paper's whole point of per-warp resident blocks is decontention.
    #[test]
    fn resident_blocks_spread_across_warps() {
        let alloc = SlabAlloc::new(SlabAllocConfig::small(4, 64));
        let mut blocks_seen = std::collections::HashSet::new();
        for warp_id in 0..64 {
            let mut ctx = WarpCtx::for_test(warp_id);
            let mut st = alloc.new_warp_state();
            let ptr = alloc.allocate(&mut st, &mut ctx);
            let addr = SlabAddr::decode(ptr).unwrap();
            blocks_seen.insert((addr.super_block, addr.block));
        }
        // 64 warps over 256 blocks: collisions allowed, clustering not.
        assert!(
            blocks_seen.len() > 40,
            "only {} distinct resident blocks for 64 warps",
            blocks_seen.len()
        );
    }

    /// Probing re-hashes to fresh blocks as residents fill, and the
    /// sequence visits many distinct blocks (no short cycle).
    #[test]
    fn resident_probing_visits_distinct_blocks() {
        let alloc = SlabAlloc::new(SlabAllocConfig::small(2, 16));
        let mut ctx = WarpCtx::for_test(5);
        let mut st = alloc.new_warp_state();
        // Allocate 4 full blocks' worth from one warp.
        for _ in 0..4 * 1024 {
            alloc.allocate(&mut st, &mut ctx);
        }
        assert!(
            ctx.counters.resident_changes >= 4,
            "expected several resident changes, got {}",
            ctx.counters.resident_changes
        );
        assert_eq!(alloc.allocated_slabs(), 4 * 1024);
    }

    /// Lazily initialized super blocks: capacity configured but untouched
    /// memory is never materialized, and never counted as committed.
    #[test]
    fn untouched_super_blocks_stay_uninitialized() {
        let alloc = SlabAlloc::new(SlabAllocConfig {
            initial_active: 1,
            ..SlabAllocConfig::small(8, 4)
        });
        assert_eq!(alloc.committed_bytes(), 0);
        let mut ctx = WarpCtx::for_test(0);
        let mut st = alloc.new_warp_state();
        alloc.allocate(&mut st, &mut ctx);
        let initialized = alloc.supers.iter().filter(|s| s.get().is_some()).count();
        assert_eq!(initialized, 1, "only the resident super block materializes");
        // 4 blocks × (128 B bitmap + 1024 × 128 B slab).
        assert_eq!(alloc.committed_bytes(), 4 * (128 + 1024 * 128));
    }

    /// Deallocations from a *different* warp than the allocator ("any warp
    /// can release any slab") keep accounting exact.
    #[test]
    fn cross_warp_deallocation() {
        let alloc = SlabAlloc::new(SlabAllocConfig::small(2, 4));
        let mut ctx_a = WarpCtx::for_test(1);
        let mut st_a = alloc.new_warp_state();
        let ptrs: Vec<u32> = (0..100).map(|_| alloc.allocate(&mut st_a, &mut ctx_a)).collect();

        let mut ctx_b = WarpCtx::for_test(9);
        for p in &ptrs {
            alloc.deallocate(*p, &mut ctx_b);
        }
        assert_eq!(alloc.allocated_slabs(), 0);
        assert_eq!(ctx_b.counters.deallocations, 100);
    }

    /// Freed units are found again by later allocations (reuse), even after
    /// the freeing warp has moved to another resident block.
    #[test]
    fn freed_units_are_reused() {
        let alloc = SlabAlloc::new(SlabAllocConfig::small(1, 1)); // 1024 units
        let mut ctx = WarpCtx::for_test(0);
        let mut st = alloc.new_warp_state();
        let first: Vec<u32> = (0..1024).map(|_| alloc.allocate(&mut st, &mut ctx)).collect();
        for p in &first[..64] {
            alloc.deallocate(*p, &mut ctx);
        }
        // A fresh warp must be able to allocate the 64 freed units.
        let mut ctx2 = WarpCtx::for_test(3);
        let mut st2 = alloc.new_warp_state();
        for _ in 0..64 {
            let p = alloc.allocate(&mut st2, &mut ctx2);
            assert!(first[..64].contains(&p), "reused ptr must come from freed set");
        }
    }

    #[test]
    fn paper_default_configuration() {
        let alloc = SlabAlloc::paper_default(0xFFFF_FFFF);
        assert_eq!(alloc.config().super_blocks, 32);
        assert_eq!(alloc.config().blocks_per_super, 256);
        assert_eq!(alloc.capacity_slabs(), 32 * 256 * 1024);
        // 32 × 256 × 1024 × 128 B = 1 GB addressable.
        assert_eq!(alloc.capacity_slabs() * 128, 1 << 30);
    }

    #[test]
    fn config_validation_rejects_nonsense() {
        for bad in [
            SlabAllocConfig { super_blocks: 0, ..SlabAllocConfig::default() },
            SlabAllocConfig { super_blocks: 255, initial_active: 255, ..SlabAllocConfig::default() },
            SlabAllocConfig { initial_active: 0, ..SlabAllocConfig::default() },
            SlabAllocConfig { initial_active: 33, ..SlabAllocConfig::default() },
            SlabAllocConfig { blocks_per_super: 0, ..SlabAllocConfig::default() },
            SlabAllocConfig { resident_threshold: 0, ..SlabAllocConfig::default() },
        ] {
            assert!(
                std::panic::catch_unwind(|| SlabAlloc::new(bad)).is_err(),
                "config {bad:?} must be rejected"
            );
        }
    }
}
