//! The reconnecting wire client: typed failures, deadline-bounded
//! reconnects, never a silent loss, never an unbounded block.
//!
//! [`WireClient`] is a synchronous one-request-at-a-time client (the shape
//! the closed-loop benches and the quickstart need; open-loop pipelining
//! belongs to a future session). Its contract mirrors the broker's:
//!
//! * every call resolves to exactly one `Ok(OpResult)` or one typed
//!   [`TransportError`] — a connection that dies mid-request surfaces as
//!   [`TransportError::ConnectionLost`], not a hang and not a retry of a
//!   possibly-applied write (the transport cannot know whether a write
//!   landed once the request was sent, so it refuses to guess);
//! * reconnection is automatic *between* requests: a failed call poisons
//!   the connection, and the next call redials with `core`'s jittered
//!   [`Backoff`] — capped attempts, capped delay, bounded additionally by
//!   the request's own deadline budget;
//! * socket timeouts are derived from the per-request deadline, so a
//!   stalled server costs exactly the request's budget, never forever.

use std::io::{self, Read};
use std::net::{Shutdown, SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use slab_hash::{Backoff, OpResult, Request};

use crate::error::IngressError;
use crate::transport::fault::{FaultInjector, WireFaultPlan, WriteOutcome};
use crate::wire::{
    write_frame, Frame, FrameBuffer, Refusal, RejectReason, ReplyBody, WireError, WireRequest,
};

/// Which phase of a request a connection died in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// While sending the request frame: the request may never have reached
    /// the server.
    Send,
    /// While waiting for the reply: the request may have executed — the
    /// caller decides whether the operation is safe to retry.
    Recv,
}

/// What a server-side limit refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverloadScope {
    /// The server's connection cap.
    Connections,
    /// The per-connection inflight window.
    Inflight,
}

/// Why a wire call failed. Every variant is typed and final for the call;
/// the client reconnects lazily on the next call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportError {
    /// Could not establish a connection within the attempt and deadline
    /// budget.
    Connect {
        /// Dial attempts made.
        attempts: u32,
        /// The kind of the last dial failure.
        last: io::ErrorKind,
    },
    /// The connection died mid-request.
    ConnectionLost {
        /// Which phase the loss was observed in.
        during: Phase,
    },
    /// The reply did not arrive within the request's deadline budget.
    DeadlineExceeded {
        /// The budget that was exhausted.
        budget: Duration,
    },
    /// The server's bytes did not decode as a frame (protocol corruption;
    /// the connection is poisoned).
    Frame(WireError),
    /// The reply's correlation id did not match the request (the
    /// connection is poisoned; a stale reply can never be mistaken for a
    /// fresh one).
    MisroutedReply {
        /// The id this client sent.
        expected: u64,
        /// The id the server echoed.
        got: u64,
    },
    /// A server-side limit refused the request or connection.
    Overloaded {
        /// Which limit.
        scope: OverloadScope,
        /// The configured limit value.
        limit: u64,
    },
    /// The server is drain-shutting-down.
    Draining,
    /// The server rejected this client's bytes as unparseable (local state
    /// and server state disagree about framing; the connection is
    /// poisoned).
    RemoteBadFrame,
    /// The ingress layer answered with a typed error (the transport worked;
    /// the broker refused or failed the operation).
    Ingress(IngressError),
}

impl TransportError {
    /// True for failures where the connection itself was lost or never
    /// established.
    pub fn is_disconnect(&self) -> bool {
        matches!(
            self,
            TransportError::Connect { .. } | TransportError::ConnectionLost { .. }
        )
    }

    /// True when the request ran out of deadline budget (at either layer).
    pub fn is_timeout(&self) -> bool {
        matches!(self, TransportError::DeadlineExceeded { .. })
            || matches!(self, TransportError::Ingress(e) if e.is_timeout())
    }

    /// True for typed refusals produced by server-side limits or drains.
    pub fn is_overload(&self) -> bool {
        matches!(
            self,
            TransportError::Overloaded { .. } | TransportError::Draining
        ) || matches!(self, TransportError::Ingress(e) if e.is_shed())
    }
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Connect { attempts, last } => {
                write!(f, "could not connect after {attempts} attempts ({last:?})")
            }
            TransportError::ConnectionLost {
                during: Phase::Send,
            } => {
                write!(f, "connection lost while sending the request")
            }
            TransportError::ConnectionLost {
                during: Phase::Recv,
            } => {
                write!(f, "connection lost while awaiting the reply")
            }
            TransportError::DeadlineExceeded { budget } => {
                write!(f, "no reply within the deadline budget ({budget:?})")
            }
            TransportError::Frame(e) => write!(f, "reply failed to decode: {e}"),
            TransportError::MisroutedReply { expected, got } => {
                write!(f, "reply correlation mismatch: sent {expected}, got {got}")
            }
            TransportError::Overloaded {
                scope: OverloadScope::Connections,
                limit,
            } => write!(f, "server at its connection cap ({limit})"),
            TransportError::Overloaded {
                scope: OverloadScope::Inflight,
                limit,
            } => write!(f, "connection at its inflight cap ({limit})"),
            TransportError::Draining => write!(f, "server is draining"),
            TransportError::RemoteBadFrame => {
                write!(f, "server rejected this client's bytes as unparseable")
            }
            TransportError::Ingress(e) => write!(f, "ingress refused: {e}"),
        }
    }
}

impl std::error::Error for TransportError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TransportError::Ingress(e) => Some(e),
            TransportError::Frame(e) => Some(e),
            _ => None,
        }
    }
}

/// Tuning for [`WireClient`].
#[derive(Debug, Clone)]
pub struct WireClientConfig {
    /// Ceiling on one dial attempt (further bounded by the request's
    /// remaining deadline).
    pub connect_timeout: Duration,
    /// Deadline budget for calls made without an explicit one.
    pub default_deadline: Duration,
    /// Base delay of the jittered reconnect backoff.
    pub reconnect_base: Duration,
    /// Cap on the jittered reconnect delay (repeated doubling saturates
    /// here).
    pub reconnect_cap: Duration,
    /// Most dial attempts per call before giving up with
    /// [`TransportError::Connect`].
    pub max_connect_attempts: u32,
    /// Seed for the reconnect jitter stream (distinct clients should use
    /// distinct seeds).
    pub seed: u64,
    /// Client-side transport fault plan (torn/stalled/dropped request
    /// writes), for chaos tests.
    pub fault: Option<WireFaultPlan>,
}

impl Default for WireClientConfig {
    fn default() -> Self {
        Self {
            connect_timeout: Duration::from_secs(1),
            default_deadline: Duration::from_millis(100),
            reconnect_base: Duration::from_millis(10),
            reconnect_cap: Duration::from_millis(500),
            max_connect_attempts: 8,
            seed: 1,
            fault: None,
        }
    }
}

/// Lifetime counters for one client (plain values; read with
/// [`WireClient::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Calls made.
    pub requests: u64,
    /// Calls that received a reply frame (table result, ingress error, or
    /// typed refusal).
    pub completed: u64,
    /// Calls that failed at the transport layer (connect, loss, frame,
    /// deadline).
    pub transport_errors: u64,
    /// Successful dials after the first (the reconnect count the smoke test
    /// asserts on).
    pub reconnects: u64,
    /// Dial attempts that failed.
    pub connect_failures: u64,
    /// Request writes consumed by this client's own fault plan.
    pub injected_faults: u64,
}

/// One live connection's state.
struct Conn {
    stream: TcpStream,
    carry: FrameBuffer,
}

/// A reconnecting, deadline-aware client for a
/// [`WireServer`](crate::transport::WireServer).
pub struct WireClient {
    addr: SocketAddr,
    cfg: WireClientConfig,
    conn: Option<Conn>,
    next_req_id: u64,
    backoff: Backoff,
    ever_connected: bool,
    stats: ClientStats,
    injector: Option<FaultInjector>,
    scratch: Vec<u8>,
}

impl std::fmt::Debug for WireClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WireClient")
            .field("addr", &self.addr)
            .field("connected", &self.conn.is_some())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl WireClient {
    /// A client for the server at `addr`. No connection is made yet: the
    /// first call dials (and every call redials as needed).
    pub fn new(addr: impl ToSocketAddrs, cfg: WireClientConfig) -> io::Result<Self> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "no address resolved"))?;
        let injector = cfg
            .fault
            .as_ref()
            .filter(|p| p.is_active())
            .map(|p| p.injector(cfg.seed));
        let backoff = Backoff::new(cfg.seed);
        Ok(Self {
            addr,
            cfg,
            conn: None,
            next_req_id: 1,
            backoff,
            ever_connected: false,
            stats: ClientStats::default(),
            injector,
            scratch: Vec::new(),
        })
    }

    /// Lifetime counters.
    pub fn stats(&self) -> ClientStats {
        self.stats
    }

    /// True while a connection is held (informational; calls dial as
    /// needed).
    pub fn is_connected(&self) -> bool {
        self.conn.is_some()
    }

    /// Drops the current connection, if any (the next call redials).
    pub fn disconnect(&mut self) {
        if let Some(conn) = self.conn.take() {
            let _ = conn.stream.shutdown(Shutdown::Both);
        }
    }

    /// Dials until connected, bounded by `deadline`, the attempt cap, and
    /// the jittered backoff schedule.
    fn ensure_connected(&mut self, deadline: Instant) -> Result<(), TransportError> {
        if self.conn.is_some() {
            return Ok(());
        }
        let mut last = io::ErrorKind::TimedOut;
        let mut attempts = 0u32;
        while attempts < self.cfg.max_connect_attempts {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                break;
            }
            attempts += 1;
            let dial_timeout = self.cfg.connect_timeout.min(remaining);
            match TcpStream::connect_timeout(&self.addr, dial_timeout) {
                Ok(stream) => {
                    let _ = stream.set_nodelay(true);
                    if self.ever_connected {
                        self.stats.reconnects += 1;
                    }
                    self.ever_connected = true;
                    self.backoff.reset();
                    self.conn = Some(Conn {
                        stream,
                        carry: FrameBuffer::new(),
                    });
                    return Ok(());
                }
                Err(e) => {
                    self.stats.connect_failures += 1;
                    last = e.kind();
                    let delay = self
                        .backoff
                        .delay(self.cfg.reconnect_base, self.cfg.reconnect_cap);
                    let remaining = deadline.saturating_duration_since(Instant::now());
                    if remaining.is_zero() {
                        break;
                    }
                    std::thread::sleep(delay.min(remaining));
                }
            }
        }
        Err(TransportError::Connect { attempts, last })
    }

    /// Poisons the connection so no stale bytes can alias a future reply.
    fn poison(&mut self) {
        self.disconnect();
    }

    /// Submits `req` and waits for its reply, all within `budget`.
    pub fn call_with_deadline(
        &mut self,
        req: Request,
        budget: Duration,
    ) -> Result<OpResult, TransportError> {
        self.stats.requests += 1;
        let deadline = Instant::now() + budget;
        let result = self.call_inner(req, budget, deadline);
        match &result {
            Ok(_) => self.stats.completed += 1,
            Err(e) => match e {
                // A typed answer from the server still counts as completed:
                // the transport did its job.
                TransportError::Ingress(_)
                | TransportError::Overloaded { .. }
                | TransportError::Draining => self.stats.completed += 1,
                _ => self.stats.transport_errors += 1,
            },
        }
        result
    }

    fn call_inner(
        &mut self,
        req: Request,
        budget: Duration,
        deadline: Instant,
    ) -> Result<OpResult, TransportError> {
        self.ensure_connected(deadline)?;
        let req_id = self.next_req_id;
        self.next_req_id += 1;
        let frame = Frame::Request(WireRequest {
            req_id,
            req,
            budget,
        });
        // Send, with this client's own fault plan applied if configured.
        {
            let conn = self.conn.as_mut().expect("connected above");
            let sent = match self.injector.as_mut() {
                Some(inj) => match inj.write_frame(&mut conn.stream, &frame, &mut self.scratch) {
                    Ok(WriteOutcome::Sent) => Ok(()),
                    Ok(WriteOutcome::Dropped) => {
                        self.stats.injected_faults += 1;
                        Err(())
                    }
                    Err(_) => Err(()),
                },
                None => write_frame(&mut conn.stream, &frame, &mut self.scratch).map_err(|_| ()),
            };
            if sent.is_err() {
                self.poison();
                return Err(TransportError::ConnectionLost {
                    during: Phase::Send,
                });
            }
        }
        // Receive, with the socket read timeout tracking the remaining
        // deadline budget.
        let reply = self.recv_reply(req_id, budget, deadline);
        if reply.is_err() {
            self.poison();
        }
        reply
    }

    fn recv_reply(
        &mut self,
        req_id: u64,
        budget: Duration,
        deadline: Instant,
    ) -> Result<OpResult, TransportError> {
        let mut chunk = [0u8; 4096];
        loop {
            let conn = self.conn.as_mut().expect("connection live in recv");
            // Pop any full frame already buffered.
            match conn.carry.next_frame() {
                Ok(Some(Frame::Reply(reply))) => {
                    if reply.req_id != req_id {
                        return Err(TransportError::MisroutedReply {
                            expected: req_id,
                            got: reply.req_id,
                        });
                    }
                    return match reply.body {
                        ReplyBody::Result(res) => Ok(res),
                        ReplyBody::Ingress(e) => Err(TransportError::Ingress(e)),
                        ReplyBody::Refused(Refusal::InflightCap { limit }) => {
                            Err(TransportError::Overloaded {
                                scope: OverloadScope::Inflight,
                                limit,
                            })
                        }
                        ReplyBody::Refused(Refusal::Draining) => Err(TransportError::Draining),
                    };
                }
                Ok(Some(Frame::Reject(reason))) => {
                    return Err(match reason {
                        RejectReason::MaxConnections { max } => TransportError::Overloaded {
                            scope: OverloadScope::Connections,
                            limit: max,
                        },
                        RejectReason::Draining => TransportError::Draining,
                        RejectReason::BadFrame => TransportError::RemoteBadFrame,
                    });
                }
                Ok(Some(Frame::Request(_))) => {
                    // Servers do not send requests; framing is lost.
                    return Err(TransportError::Frame(WireError::UnknownKind(1)));
                }
                Ok(None) => {}
                Err(e) => return Err(TransportError::Frame(e)),
            }
            // Need more bytes: read with the remaining budget as timeout.
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(TransportError::DeadlineExceeded { budget });
            }
            let _ = conn.stream.set_read_timeout(Some(remaining));
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    return Err(TransportError::ConnectionLost {
                        during: Phase::Recv,
                    })
                }
                Ok(n) => conn.carry.extend(&chunk[..n]),
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    return Err(TransportError::DeadlineExceeded { budget });
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    return Err(TransportError::ConnectionLost {
                        during: Phase::Recv,
                    })
                }
            }
        }
    }

    /// [`call_with_deadline`](Self::call_with_deadline) with the default
    /// budget.
    pub fn call(&mut self, req: Request) -> Result<OpResult, TransportError> {
        self.call_with_deadline(req, self.cfg.default_deadline)
    }

    /// Convenience SEARCH: `Ok(Some(value))` on a hit, `Ok(None)` on a
    /// miss.
    pub fn get(&mut self, key: u32) -> Result<Option<u32>, TransportError> {
        match self.call(Request::search(key))? {
            OpResult::Found(v) => Ok(Some(v)),
            _ => Ok(None),
        }
    }

    /// Convenience REPLACE: the previous value if the key was present.
    pub fn put(&mut self, key: u32, value: u32) -> Result<Option<u32>, TransportError> {
        match self.call(Request::replace(key, value))? {
            OpResult::Replaced(old) => Ok(Some(old)),
            _ => Ok(None),
        }
    }

    /// Convenience DELETE: the removed value if the key was present.
    pub fn remove(&mut self, key: u32) -> Result<Option<u32>, TransportError> {
        match self.call(Request::delete(key))? {
            OpResult::Deleted(old) => Ok(Some(old)),
            _ => Ok(None),
        }
    }
}
