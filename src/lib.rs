//! Root crate re-exporting the workspace public API for examples/tests.
pub use gpu_baselines as baselines;
pub use simt;
pub use slab_alloc;
pub use slab_hash;

/// Compiles and runs every Rust block of the README as a doctest, so the
/// documented snippets cannot drift from the API.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;
