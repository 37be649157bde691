//! # simt — a GPU warp-execution substrate on the CPU
//!
//! The SlabHash paper's algorithms (Ashkiani, Farach-Colton & Owens, *"A
//! Dynamic Hash Table for the GPU"*, IPDPS 2018) are *warp-synchronous*: they
//! are written against the semantics of a 32-wide SIMD group executing in
//! lockstep with warp-wide communication intrinsics, not against any
//! particular silicon. This crate reproduces exactly those semantics so the
//! data structures above it can be ported line-by-line from the paper's
//! pseudocode:
//!
//! * [`warp`] — lockstep lane state with `ballot` / `shfl` / `ffs` /
//!   `match_any` as branchless u32 bitmask arithmetic, property-tested
//!   against a scalar per-lane oracle;
//! * [`memory`] — device global memory as 128-byte slabs of atomic words
//!   with 32-/64-bit `atomicCAS`;
//! * [`grid`] — a warp scheduler that runs simulated warps concurrently
//!   across CPU cores (real races, real lock-freedom);
//! * [`counters`] — exact transaction accounting per warp;
//! * [`epoch`] — per-launch pins and the quiescent window an exclusive
//!   rewrite (the paper's FLUSH) runs in;
//! * [`model`] — a calibrated roofline model of the paper's Tesla K40c that
//!   converts counted transactions into estimated device time;
//! * [`telemetry`] (re-exported crate) — launch traces, work-distribution
//!   histograms, and contention heatmaps, collected per warp and merged
//!   after the launch exactly like counter blocks.
//!
//! ## Example: a warp searching its lanes
//!
//! ```
//! use simt::warp::{ballot_eq, ffs, shfl, WARP_SIZE};
//!
//! // A slab's 32 lanes as read by a warp.
//! let mut lanes = [u32::MAX; WARP_SIZE];
//! lanes[7] = 42; // key 42 lives in lane 7
//!
//! let found = ballot_eq(&lanes, 42);
//! assert_eq!(ffs(found), Some(7));
//! assert_eq!(shfl(&lanes, 7), 42);
//! ```

// `deny`, not `forbid`: the `pool` module opts back in for exactly two
// audited primitives (lifetime-erased jobs on persistent executors, the
// lock-free chunk dispenser) — see its module docs for the soundness
// argument. Everything else in the crate stays in the safe subset.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod counters;
pub mod epoch;
pub mod grid;
pub mod memory;
pub mod model;
pub(crate) mod pool;
pub mod warp;

pub use telemetry;

pub use chaos::{disable_chaos, set_chaos, ChaosGuard, FaultPlan};
pub use counters::PerfCounters;
pub use epoch::{EpochClock, EpochPin, Quiesced};
pub use grid::{Grid, LaunchError, LaunchReport, WarpCtx, WarpScratch};
pub use pool::PoolStats;
pub use memory::{pack_pair, unpack_pair, SlabStorage, SLAB_BYTES, WORDS_PER_SLAB};
pub use model::{GpuEstimate, GpuModel, ResourceBreakdown};
pub use warp::{ballot, ballot_eq, ffs, lanes_below, match_any, popc, shfl, Lane, WARP_SIZE};
