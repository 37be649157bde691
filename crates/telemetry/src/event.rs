//! Structured launch → warp → op trace events.
//!
//! Events carry a *logical* timestamp: a global sequence number drawn from
//! the owning trace session. Wall-clock timestamps would destroy replay
//! determinism (the same seeded chaos schedule must produce a byte-identical
//! event stream), and the viewers we target — JSON Lines consumers and
//! chrome://tracing — only require timestamps to be monotonic.

/// What happened, with its event-specific payload.
///
/// Field strings (`op`, `status`) are `&'static str` identifiers supplied by
/// the instrumented code, never user data, so the JSON exporters emit them
/// without escaping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A grid launch started; `warps` is the number of warps scheduled.
    LaunchBegin {
        /// Warps scheduled in this launch.
        warps: u32,
    },
    /// A grid launch finished draining.
    LaunchEnd {
        /// Warps that ran in this launch.
        warps: u32,
    },
    /// One warp began executing its chunk.
    WarpBegin,
    /// One warp finished its chunk, having completed `ops` operations.
    WarpEnd {
        /// Operations the warp finished between begin and end.
        ops: u32,
    },
    /// One hash-table operation finished (successfully or not).
    Op {
        /// Operation name (`"search"`, `"replace"`, `"delete"`, …).
        op: &'static str,
        /// The operation's key.
        key: u32,
        /// The bucket the key hashed to.
        bucket: u32,
        /// Warp rounds this operation was the source lane's work for.
        rounds: u32,
        /// CAS failures charged to this operation.
        retries: u32,
        /// Slabs visited (1 = resolved in the base slab).
        chain: u32,
        /// Outcome tag (`"inserted"`, `"found"`, `"failed"`, …).
        status: &'static str,
    },
    /// The slab allocator served one allocation after `hops`
    /// resident-block changes.
    Alloc {
        /// Resident-block hops needed before a free slot was claimed.
        hops: u32,
    },
    /// An ingress-broker cohort event.
    Ingress {
        /// Always `"dispatch"`: a cohort started.
        action: &'static str,
        /// The cohort's envelopes plus the queue behind them.
        depth: u32,
    },
}

/// The warp id attached to launch-scope events, which no single warp owns.
pub const LAUNCH_WARP: u32 = u32::MAX;

/// One recorded event: logical timestamp, originating warp, payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Logical timestamp: globally ordered sequence number within the
    /// trace session.
    pub seq: u64,
    /// Warp that recorded the event, or [`LAUNCH_WARP`] for launch-scope
    /// events.
    pub warp: u32,
    /// The event payload.
    pub kind: EventKind,
}

impl TraceEvent {
    /// Serializes the event as one JSON Lines record. Every record has
    /// `ts`, `warp`, and `kind`; op records add the per-op fields.
    pub fn to_jsonl_line(&self) -> String {
        let head = format!("{{\"ts\":{},\"warp\":{}", self.seq, self.warp);
        match self.kind {
            EventKind::LaunchBegin { warps } => {
                format!("{head},\"kind\":\"launch_begin\",\"warps\":{warps}}}")
            }
            EventKind::LaunchEnd { warps } => {
                format!("{head},\"kind\":\"launch_end\",\"warps\":{warps}}}")
            }
            EventKind::WarpBegin => format!("{head},\"kind\":\"warp_begin\"}}"),
            EventKind::WarpEnd { ops } => {
                format!("{head},\"kind\":\"warp_end\",\"ops\":{ops}}}")
            }
            EventKind::Op {
                op,
                key,
                bucket,
                rounds,
                retries,
                chain,
                status,
            } => format!(
                "{head},\"kind\":\"op\",\"op\":\"{op}\",\"key\":{key},\"bucket\":{bucket},\
                 \"rounds\":{rounds},\"retries\":{retries},\"chain\":{chain},\
                 \"status\":\"{status}\"}}"
            ),
            EventKind::Alloc { hops } => {
                format!("{head},\"kind\":\"alloc\",\"hops\":{hops}}}")
            }
            EventKind::Ingress { action, depth } => {
                format!("{head},\"kind\":\"ingress\",\"action\":\"{action}\",\"depth\":{depth}}}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jsonl_lines_have_required_fields() {
        let cases = [
            EventKind::LaunchBegin { warps: 4 },
            EventKind::LaunchEnd { warps: 4 },
            EventKind::WarpBegin,
            EventKind::WarpEnd { ops: 32 },
            EventKind::Op {
                op: "replace",
                key: 7,
                bucket: 3,
                rounds: 2,
                retries: 1,
                chain: 1,
                status: "inserted",
            },
            EventKind::Alloc { hops: 0 },
            EventKind::Ingress {
                action: "shed_write",
                depth: 512,
            },
        ];
        for (i, kind) in cases.into_iter().enumerate() {
            let line = TraceEvent {
                seq: i as u64,
                warp: 0,
                kind,
            }
            .to_jsonl_line();
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            assert!(line.contains("\"ts\":"), "{line}");
            assert!(line.contains("\"warp\":"), "{line}");
            assert!(line.contains("\"kind\":"), "{line}");
        }
    }

    #[test]
    fn op_line_carries_all_op_fields() {
        let line = TraceEvent {
            seq: 9,
            warp: 2,
            kind: EventKind::Op {
                op: "search",
                key: 42,
                bucket: 5,
                rounds: 1,
                retries: 0,
                chain: 2,
                status: "found",
            },
        }
        .to_jsonl_line();
        assert_eq!(
            line,
            "{\"ts\":9,\"warp\":2,\"kind\":\"op\",\"op\":\"search\",\"key\":42,\
             \"bucket\":5,\"rounds\":1,\"retries\":0,\"chain\":2,\"status\":\"found\"}"
        );
    }
}
