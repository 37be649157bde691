//! The fault-tolerant TCP transport in front of the ingress broker.
//!
//! Three pieces, layered on the [`wire`](crate::wire) protocol:
//!
//! * [`WireServer`] — a framed TCP server: supervisor accept loop,
//!   per-connection reader/writer workers backed by
//!   [`ClientHandle`](crate::ClientHandle)s, connection/inflight caps, idle
//!   timeouts, and graceful drain shutdown;
//! * [`WireClient`] — a reconnecting client: jittered capped redials,
//!   socket deadlines mapped onto per-request budgets, every failure a
//!   typed [`TransportError`];
//! * [`WireFaultPlan`] — seeded torn-frame / stalled-write / abrupt-
//!   disconnect injection on either side, mirroring the chaos scheduler, so
//!   the failure paths are deterministically testable.

mod client;
mod fault;
mod server;

pub use client::{ClientStats, OverloadScope, Phase, TransportError, WireClient, WireClientConfig};
pub use fault::{FaultAction, FaultInjector, WireFaultPlan, WriteOutcome};
pub use server::{WireServer, WireServerConfig};
