//! # slab-hash — a fully concurrent dynamic hash table (GPU slab hash)
//!
//! Rust reproduction of Ashkiani, Farach-Colton & Owens, *"A Dynamic Hash
//! Table for the GPU"* (IPDPS 2018): the **slab list**, a node-per-warp
//! linked list matched to the GPU's 128-byte memory transactions, and the
//! **slab hash** built from one slab list per bucket. All operations —
//! INSERT, REPLACE, DELETE, DELETEALL, SEARCH, SEARCHALL — run under the
//! paper's warp-cooperative work sharing strategy on the [`simt`] substrate
//! and are fully concurrent (lock-free, CAS-based) between warps.
//!
//! ## Quick start
//!
//! ```
//! use slab_hash::{KeyValue, SlabHash, SlabHashConfig};
//!
//! let table = SlabHash::<KeyValue>::new(SlabHashConfig::with_buckets(64));
//! let mut warp = slab_hash::WarpDriver::new(&table);
//!
//! warp.replace(42, 1000);
//! assert_eq!(warp.search(42), Some(1000));
//! assert_eq!(warp.replace(42, 2000), Some(1000)); // uniqueness maintained
//! assert_eq!(warp.delete(42), Some(2000));
//! assert_eq!(warp.search(42), None);
//! ```
//!
//! ## Concurrent bulk use
//!
//! ```
//! use simt::Grid;
//! use slab_hash::{KeyValue, SlabHash};
//!
//! let grid = Grid::default();
//! let pairs: Vec<(u32, u32)> = (0..10_000).map(|k| (k, k * 2)).collect();
//! // Size the table for ~60 % memory utilization, the paper's sweet spot.
//! let table = SlabHash::<KeyValue>::for_expected_elements(pairs.len(), 0.6, 7);
//! table.bulk_build(&pairs, &grid);
//!
//! let (hits, _) = table.bulk_search(&[5, 9_999, 10_001], &grid);
//! assert_eq!(hits, vec![Some(10), Some(19_998), None]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backoff;
pub mod batch;
pub mod bulk;
pub mod driver;
pub mod entry;
pub mod error;
pub mod flush;
pub mod hash_table;
pub mod hasher;
pub mod maintenance;
pub mod ops;
pub mod ops_per_thread;
pub mod stats;

pub use backoff::Backoff;
pub use batch::BatchBuffer;
pub use driver::WarpDriver;
pub use entry::{EntryLayout, KeyOnly, KeyValue, DELETED_KEY, EMPTY_KEY, MAX_KEY};
pub use error::TableError;
pub use flush::FlushReport;
pub use hash_table::{buckets_for_utilization, SlabHash, SlabHashConfig};
pub use hasher::UniversalHash;
pub use maintenance::MaintenanceReport;
pub use ops::{OpKind, OpResult, Request, RETRY_BUDGET};
pub use stats::{AuditReport, LaneCensus};
