//! The allocator interface the slab hash programs against.
//!
//! The paper's data structures call three allocator entry points:
//! `SlabAlloc::warp_allocate()`, `SlabAlloc::deallocate()` and the address
//! decode inside `SlabAddress()` / `ReadSlab()`. Abstracting them as a trait
//! lets the hash table run unchanged over SlabAlloc, SlabAlloc-light, or the
//! baseline allocators (CUDA-malloc-like, Halloc-like) that §V compares
//! against.

use simt::memory::SlabStorage;
use simt::WarpCtx;

/// Why an allocation request could not be served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocError {
    /// The allocator's configured capacity is genuinely exhausted (the
    /// paper's allocator likewise cannot make forward progress past its
    /// addressing limit).
    OutOfSlabs {
        /// Slabs handed out at the time of failure.
        allocated: u64,
        /// The allocator's maximum capacity in slabs.
        capacity: u64,
    },
    /// A fault-injection plan (`simt::chaos::should_fail_alloc`) forced
    /// this allocation to fail; capacity may well remain.
    Injected,
}

impl std::fmt::Display for AllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AllocError::OutOfSlabs {
                allocated,
                capacity,
            } => write!(
                f,
                "out of slabs: {allocated} allocated of {capacity} capacity"
            ),
            AllocError::Injected => write!(f, "allocation failure injected by fault plan"),
        }
    }
}

impl std::error::Error for AllocError {}

/// A resolved slab location: which storage array and which slab within it.
#[derive(Clone, Copy)]
pub struct SlabRef<'a> {
    /// The storage array holding the slab.
    pub storage: &'a SlabStorage,
    /// Slab index within `storage`.
    pub slab: usize,
}

/// A dynamic allocator of fixed-size 128 B slabs addressed by 32-bit
/// pointers (see [`crate::layout`]).
///
/// Allocators are shared (`&self`) between concurrently executing warps; any
/// warp-private allocation state (e.g. SlabAlloc's resident block and its
/// register-cached bitmap) lives in the per-warp `WarpState`.
pub trait SlabAllocator: Sync {
    /// Warp-private allocator state, created once per warp.
    type WarpState: Send;

    /// Fresh warp-private state for a newly scheduled warp.
    fn new_warp_state(&self) -> Self::WarpState;

    /// Allocates one slab and returns its 32-bit pointer, or a structured
    /// [`AllocError`] when it cannot. The whole warp participates
    /// (warp-synchronous); transaction costs are billed to `ctx.counters`.
    ///
    /// Implementations must leave the allocator and `state` in a usable
    /// condition on failure: a later `try_allocate` after slabs are freed
    /// must be able to succeed.
    ///
    /// # Errors
    /// [`AllocError::OutOfSlabs`] when the configured capacity is
    /// exhausted; [`AllocError::Injected`] under a fault-injection plan.
    fn try_allocate(
        &self,
        state: &mut Self::WarpState,
        ctx: &mut WarpCtx,
    ) -> Result<u32, AllocError>;

    /// Allocates one slab and returns its 32-bit pointer. Thin panicking
    /// wrapper over [`SlabAllocator::try_allocate`] for callers with no
    /// recovery story.
    ///
    /// # Panics
    /// Panics when `try_allocate` fails — the paper's allocator grows super
    /// blocks up to its 1 TB addressing limit and likewise cannot make
    /// forward progress past it.
    fn allocate(&self, state: &mut Self::WarpState, ctx: &mut WarpCtx) -> u32 {
        match self.try_allocate(state, ctx) {
            Ok(ptr) => ptr,
            Err(e) => panic!("slab allocation failed: {e}"),
        }
    }

    /// Returns a previously allocated slab to the allocator.
    ///
    /// Deallocating a slab that is not currently allocated (a double free)
    /// must not corrupt the allocator: implementations detect it in every
    /// build profile, bill it to `ctx.counters.double_frees`, record it in
    /// [`SlabAllocator::double_frees`], and leave their accounting
    /// untouched.
    fn deallocate(&self, ptr: u32, ctx: &mut WarpCtx);

    /// Decodes a 32-bit slab pointer into a concrete storage location and
    /// bills nothing. Host-side work the modeled device never performs
    /// (the warp-start chain prefetch) decodes through here; kernels call
    /// [`SlabAllocator::resolve`].
    fn locate(&self, ptr: u32) -> SlabRef<'_>;

    /// Shared-memory lookups one pointer decode costs on device: one for
    /// the regular SlabAlloc, whose super-block base pointers live in
    /// shared memory (§V); none for SlabAlloc-light or the baselines.
    fn lookups_per_decode(&self) -> u64 {
        0
    }

    /// Decodes a 32-bit slab pointer into a concrete storage location,
    /// billing what the decode costs on device
    /// ([`SlabAllocator::lookups_per_decode`]).
    fn resolve(&self, ptr: u32, ctx: &mut WarpCtx) -> SlabRef<'_> {
        ctx.counters.shared_lookups += self.lookups_per_decode();
        self.locate(ptr)
    }

    /// Slabs currently allocated (host-side statistic).
    fn allocated_slabs(&self) -> u64;

    /// Maximum slabs this allocator can serve.
    fn capacity_slabs(&self) -> u64;

    /// Slabs still available before the configured capacity is exhausted
    /// (host-side statistic; the maintenance policy's headroom signal).
    fn free_slabs(&self) -> u64 {
        self.capacity_slabs().saturating_sub(self.allocated_slabs())
    }

    /// Asks the allocator to bring more capacity online (e.g. activate an
    /// additional super block). Returns `true` when capacity actually grew;
    /// the default implementation is a fixed-capacity allocator that cannot.
    fn try_grow(&self) -> bool {
        false
    }

    /// Double frees detected (and refused) since creation. Mirrors the
    /// per-warp `double_frees` perf counter as a host-side total so
    /// `audit()` can report it without a launch report in hand.
    fn double_frees(&self) -> u64 {
        0
    }

    /// Bytes of allocator metadata the hot path touches (bitmaps); feeds the
    /// roofline model's working-set estimate for allocation-heavy kernels.
    fn metadata_bytes(&self) -> u64;

    /// Bytes the allocator has committed (host-side statistic): every slab
    /// it has materialized, handed out or not, and the allocator's metadata.
    /// This, not `allocated_slabs() * 128`, is what the allocator costs in
    /// memory.
    fn committed_bytes(&self) -> u64;
}
