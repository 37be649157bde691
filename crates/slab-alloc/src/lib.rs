//! # slab-alloc — SlabAlloc, the paper's warp-synchronous slab allocator
//!
//! Reproduces §V of *"A Dynamic Hash Table for the GPU"*: a dynamic memory
//! allocator purpose-built for the slab hash's allocation pattern (many
//! independent, sequentially arriving fixed-size allocations per warp that
//! cannot be coalesced).
//!
//! * [`layout`] — the 32-bit slab address layout (10 unit / 14 block /
//!   8 super-block bits) and its sentinel values;
//! * [`super_block`] — super blocks of memory blocks with 1024-bit
//!   availability bitmaps;
//! * [`slab_alloc`] — [`SlabAlloc`] itself: resident blocks, register-cached
//!   bitmaps, one-atomic-per-allocation fast path, hash-probed resident
//!   changes, super-block growth, plus the SlabAlloc-light addressing mode;
//! * [`baseline`] — the §V comparators: a CUDA-`malloc`-like serialized heap
//!   and a Halloc-like hashed-pool allocator;
//! * [`traits`] — the [`SlabAllocator`] interface the hash table programs
//!   against.
//!
//! ## Example
//!
//! ```
//! use simt::WarpCtx;
//! use slab_alloc::{SlabAlloc, SlabAllocConfig, SlabAllocator};
//!
//! let alloc = SlabAlloc::new(SlabAllocConfig::small(2, 4));
//! let mut ctx = WarpCtx::for_test(0);
//! let mut warp_state = alloc.new_warp_state();
//!
//! let ptr = alloc.allocate(&mut warp_state, &mut ctx);
//! let slab = alloc.resolve(ptr, &mut ctx);
//! assert_eq!(slab.storage.read_slab(slab.slab, &mut ctx.counters)[0], u32::MAX);
//! alloc.deallocate(ptr, &mut ctx);
//! assert_eq!(alloc.allocated_slabs(), 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod layout;
pub mod slab_alloc;
pub mod super_block;
pub mod traits;

pub use baseline::{HallocSim, SerialHeapSim};
pub use layout::{is_allocated_ptr, is_sentinel, SlabAddr, BASE_SLAB, EMPTY_PTR};
pub use slab_alloc::{ResidentState, SlabAlloc, SlabAllocConfig};
pub use traits::{AllocError, SlabAllocator, SlabRef};
