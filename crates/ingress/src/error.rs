//! Typed ingress failure modes.
//!
//! The broker's contract is that every submitted request gets **exactly one
//! reply**: either the table's [`OpResult`](slab_hash::OpResult) or one of
//! these errors. Nothing blocks unboundedly and nothing is silently
//! dropped — overload turns into `QueueFull` / `ShedWrite` answers, and
//! slowness turns into `DeadlineExceeded`.

use std::time::Duration;

use slab_hash::TableError;

/// Why the ingress layer could not complete a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngressError {
    /// The request carried [`OpKind::None`](slab_hash::OpKind::None); idle
    /// padding is a batch-layer concept, not a submittable operation.
    EmptyRequest,
    /// The bounded submission queue was full and the caller asked for a
    /// non-blocking submit. Nothing was enqueued; retry later or treat as
    /// shed.
    QueueFull {
        /// The queue's configured capacity.
        capacity: usize,
    },
    /// The request's deadline budget elapsed before the broker completed it
    /// (while queued, while waiting for admission, or while a blocking
    /// submit was waiting for queue space). Requests time out *before*
    /// dispatch: a timed-out write was never applied.
    DeadlineExceeded {
        /// The deadline budget that was exhausted.
        budget: Duration,
    },
    /// Admission control shed this INSERT or REPLACE under memory pressure
    /// (allocator free-slab headroom at or below the configured watermark,
    /// shed policy). Reads and deletes are still served; the write was
    /// never applied.
    ShedWrite,
    /// The table itself failed the operation (after the broker's bounded
    /// retries, if the policy blocks). The table is consistent and the
    /// request had no effect.
    Table(TableError),
    /// The broker has shut down (or died); no further replies will come.
    BrokerGone,
}

impl IngressError {
    /// True for answers produced by load shedding (queue bounds, memory
    /// pressure) rather than by executing the request.
    pub fn is_shed(&self) -> bool {
        matches!(
            self,
            IngressError::QueueFull { .. } | IngressError::ShedWrite
        )
    }

    /// True when the request ran out of deadline budget.
    pub fn is_timeout(&self) -> bool {
        matches!(self, IngressError::DeadlineExceeded { .. })
    }
}

impl std::fmt::Display for IngressError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngressError::EmptyRequest => write!(f, "request carries no operation"),
            IngressError::QueueFull { capacity } => {
                write!(f, "submission queue full ({capacity} slots)")
            }
            IngressError::DeadlineExceeded { budget } => {
                write!(f, "deadline budget ({budget:?}) exceeded")
            }
            IngressError::ShedWrite => {
                write!(
                    f,
                    "write shed under memory pressure (reads and deletes still served)"
                )
            }
            IngressError::Table(e) => write!(f, "table operation failed: {e}"),
            IngressError::BrokerGone => write!(f, "ingress broker has shut down"),
        }
    }
}

impl std::error::Error for IngressError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IngressError::Table(e) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_helpers() {
        assert!(IngressError::QueueFull { capacity: 4 }.is_shed());
        assert!(IngressError::ShedWrite.is_shed());
        assert!(!IngressError::BrokerGone.is_shed());
        assert!(IngressError::DeadlineExceeded {
            budget: Duration::from_millis(5)
        }
        .is_timeout());
        assert!(!IngressError::ShedWrite.is_timeout());
    }

    #[test]
    fn display_and_source() {
        let e = IngressError::Table(TableError::RetryBudgetExhausted { budget: 7 });
        assert!(e.to_string().contains('7'));
        assert!(std::error::Error::source(&e).is_some());
        assert!(std::error::Error::source(&IngressError::ShedWrite).is_none());
    }
}
