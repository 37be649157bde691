//! Structured failure modes surfaced by table operations.
//!
//! The paper's CUDA implementation aborts the kernel when the allocator
//! runs out of memory; a host-side reproduction can do better. Every
//! operation that can fail mid-flight reports a [`TableError`] through
//! [`OpResult::Failed`](crate::ops::OpResult::Failed) instead of
//! panicking, with the guarantee that the table is left consistent: a
//! failed insertion publishes nothing (no half-linked slab), previously
//! inserted elements stay searchable, and `audit()` still balances.

use slab_alloc::AllocError;

/// Why a table operation could not complete.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TableError {
    /// Chain growth needed a fresh slab and the allocator could not
    /// provide one. The operation published nothing: the allocation either
    /// never happened or was returned, so the chain is exactly as it was.
    OutOfSlabs(AllocError),
    /// The operation lost its CAS (or had it spuriously failed by a fault
    /// plan) more than the table's retry budget (default
    /// [`RETRY_BUDGET`](crate::ops::RETRY_BUDGET), configurable via
    /// [`SlabHashConfig::with_retry_budget`](crate::SlabHashConfig::with_retry_budget))
    /// and gave up rather than livelock. Billed to
    /// `PerfCounters::retry_exhaustions`.
    RetryBudgetExhausted {
        /// The budget that was exhausted.
        budget: u32,
    },
}

impl std::fmt::Display for TableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TableError::OutOfSlabs(e) => write!(f, "slab allocation failed: {e}"),
            TableError::RetryBudgetExhausted { budget } => {
                write!(f, "retry budget ({budget} attempts) exhausted")
            }
        }
    }
}

impl std::error::Error for TableError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TableError::OutOfSlabs(e) => Some(e),
            TableError::RetryBudgetExhausted { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = TableError::OutOfSlabs(AllocError::OutOfSlabs {
            allocated: 4,
            capacity: 4,
        });
        assert!(e.to_string().contains("4 allocated of 4"));
        assert!(std::error::Error::source(&e).is_some());
        let r = TableError::RetryBudgetExhausted { budget: 4096 };
        assert!(r.to_string().contains("4096"));
        assert!(std::error::Error::source(&r).is_none());
    }
}
