//! Client-side submission: handles, tickets, and replies.
//!
//! A [`ClientHandle`] is a cheap, cloneable sender onto the broker's bounded
//! queue. Submission never blocks unboundedly: the non-blocking
//! [`submit`](ClientHandle::submit) surfaces a full queue as
//! [`IngressError::QueueFull`], and the blocking
//! [`submit_blocking`](ClientHandle::submit_blocking) retries with jittered
//! backoff only until the request's own deadline. Every accepted submission
//! yields a [`Ticket`] that resolves to exactly one [`Reply`].
//!
//! A handle with no unresolved ticket that finds the broker idle runs its
//! request on its own thread (caller-runs), so a closed-loop caller's
//! ticket is already answered when `submit` returns. A handle with a ticket
//! outstanding always queues, which keeps its requests in submission order.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use simt::telemetry::{RequestSpan, SpanReport};
use slab_hash::{Backoff, OpKind, OpResult, Request};

use crate::broker::{Combiner, Envelope};
use crate::error::IngressError;

/// Distinct jitter seed per handle, so blocked clients decorrelate.
static NEXT_CLIENT: AtomicU64 = AtomicU64::new(1);

/// The broker's answer to one request: the table's result (or a typed
/// ingress error) plus the broker-measured latency from submission to
/// disposition. Using the broker's timestamp keeps open-loop latency honest
/// even when the reply is reaped long after it was produced.
#[derive(Debug, Clone)]
pub struct Reply {
    /// The outcome: a table result, or why the ingress layer refused.
    pub result: Result<OpResult, IngressError>,
    /// Submission-to-disposition latency, measured broker-side.
    pub latency: Duration,
    /// Per-stage latency decomposition for this request: the span minted at
    /// submission, marked at every pipeline stage the request reached, and
    /// closed at reply. Consecutive stage durations telescope, so
    /// [`SpanReport::stage_sum_ns`] equals `total_ns` exactly.
    pub span: SpanReport,
}

impl Reply {
    pub(crate) fn gone() -> Self {
        Reply {
            result: Err(IngressError::BrokerGone),
            latency: Duration::ZERO,
            span: SpanReport::none(),
        }
    }
}

/// A claim on one future [`Reply`].
#[derive(Debug)]
pub struct Ticket {
    rx: mpsc::Receiver<Reply>,
    /// The minting handle's unresolved-ticket count, given back on drop.
    in_flight: Arc<AtomicUsize>,
}

impl Drop for Ticket {
    fn drop(&mut self) {
        // Release pairs with `try_inline`'s Acquire load: a ticket dropped
        // on another thread (a wire connection's writer) is seen as gone
        // only after everything its thread did before the drop.
        self.in_flight.fetch_sub(1, Ordering::Release);
    }
}

impl Ticket {
    /// Blocks until the reply arrives. A broker that died without answering
    /// resolves to [`IngressError::BrokerGone`] — the ticket always yields
    /// exactly one reply.
    pub fn wait(self) -> Reply {
        self.rx.recv().unwrap_or_else(|_| Reply::gone())
    }

    /// Blocks until the reply arrives or `deadline` passes; `None` means the
    /// reply is still pending (it will still be produced — the broker's
    /// deadline machinery turns it into a timeout error if the budget runs
    /// out).
    pub fn wait_deadline(&self, deadline: Instant) -> Option<Reply> {
        match self
            .rx
            .recv_timeout(deadline.saturating_duration_since(Instant::now()))
        {
            Ok(reply) => Some(reply),
            Err(mpsc::RecvTimeoutError::Timeout) => None,
            Err(mpsc::RecvTimeoutError::Disconnected) => Some(Reply::gone()),
        }
    }

    /// Non-blocking poll for the reply.
    pub fn try_reply(&self) -> Option<Reply> {
        match self.rx.try_recv() {
            Ok(reply) => Some(reply),
            Err(mpsc::TryRecvError::Empty) => None,
            Err(mpsc::TryRecvError::Disconnected) => Some(Reply::gone()),
        }
    }
}

/// A cloneable submission handle onto a running broker's bounded queue.
///
/// Dropping every handle (and the [`Broker`](crate::Broker)'s own sender)
/// is what lets the broker drain and exit.
#[derive(Debug)]
pub struct ClientHandle {
    tx: mpsc::SyncSender<Envelope>,
    depth: Arc<AtomicUsize>,
    combiner: Arc<dyn Combiner>,
    /// Tickets this handle minted that are still alive. Each clone counts
    /// its own; a handle with any outstanding never runs inline.
    in_flight: Arc<AtomicUsize>,
    default_deadline: Duration,
    capacity: usize,
    client_id: u64,
}

impl Clone for ClientHandle {
    fn clone(&self) -> Self {
        Self::new(
            self.tx.clone(),
            Arc::clone(&self.depth),
            Arc::clone(&self.combiner),
            self.default_deadline,
            self.capacity,
        )
    }
}

impl ClientHandle {
    pub(crate) fn new(
        tx: mpsc::SyncSender<Envelope>,
        depth: Arc<AtomicUsize>,
        combiner: Arc<dyn Combiner>,
        default_deadline: Duration,
        capacity: usize,
    ) -> Self {
        Self {
            tx,
            depth,
            combiner,
            in_flight: Arc::new(AtomicUsize::new(0)),
            default_deadline,
            capacity,
            client_id: NEXT_CLIENT.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// The deadline budget used when the caller does not pass one.
    pub fn default_deadline(&self) -> Duration {
        self.default_deadline
    }

    /// The bounded queue's capacity.
    pub fn queue_capacity(&self) -> usize {
        self.capacity
    }

    /// Requests currently sitting in the submission queue (approximate).
    pub fn queue_depth(&self) -> usize {
        self.depth.load(Ordering::Relaxed)
    }

    fn ticket(&self, rx: mpsc::Receiver<Reply>) -> Ticket {
        self.in_flight.fetch_add(1, Ordering::Relaxed);
        Ticket {
            rx,
            in_flight: Arc::clone(&self.in_flight),
        }
    }

    /// Caller-runs: when this handle has no ticket outstanding, offers
    /// `env` to an idle broker to run on this thread. Hands it back to be
    /// queued otherwise.
    fn try_inline(&self, env: Envelope) -> Option<Envelope> {
        if self.in_flight.load(Ordering::Acquire) != 0 {
            return Some(env);
        }
        self.combiner.try_run_inline(env)
    }

    fn envelope(
        &self,
        req: Request,
        budget: Duration,
    ) -> Result<(Envelope, mpsc::Receiver<Reply>), IngressError> {
        if req.op == OpKind::None {
            return Err(IngressError::EmptyRequest);
        }
        if self.combiner.is_dead() {
            return Err(IngressError::BrokerGone);
        }
        // The span is minted here, at submission: its correlation id and
        // submit timestamp ride the envelope through the whole pipeline.
        let span = RequestSpan::begin();
        let submitted = span.submitted();
        let (reply_tx, reply_rx) = mpsc::channel();
        Ok((
            Envelope {
                req,
                submitted,
                deadline: submitted + budget,
                reply: reply_tx,
                span,
            },
            reply_rx,
        ))
    }

    /// Non-blocking submit with the default deadline budget: enqueue or fail
    /// fast with [`IngressError::QueueFull`].
    ///
    /// When this handle has no ticket outstanding and the broker is idle
    /// (nothing queued, no cohort running), the request runs on the calling
    /// thread and the returned ticket is already answered. That run is the
    /// broker's own cohort body: one admission pass, which refuses an
    /// expired request, and one dispatch. A busy broker is never waited for, and a full
    /// queue is still [`IngressError::QueueFull`] at once.
    pub fn submit(&self, req: Request) -> Result<Ticket, IngressError> {
        self.submit_with_deadline(req, self.default_deadline)
    }

    /// Non-blocking submit with an explicit deadline budget; may run the
    /// request inline, as [`submit`](Self::submit) describes.
    pub fn submit_with_deadline(
        &self,
        req: Request,
        budget: Duration,
    ) -> Result<Ticket, IngressError> {
        let (env, rx) = self.envelope(req, budget)?;
        let Some(env) = self.try_inline(env) else {
            return Ok(self.ticket(rx));
        };
        // Increment *before* the send: the broker decrements after receiving,
        // and a receive can only follow the send, so the gauge never goes
        // negative. A failed send just undoes the increment.
        self.depth.fetch_add(1, Ordering::Relaxed);
        match self.tx.try_send(env) {
            Ok(()) => Ok(self.ticket(rx)),
            Err(mpsc::TrySendError::Full(_)) => {
                self.depth.fetch_sub(1, Ordering::Relaxed);
                Err(IngressError::QueueFull {
                    capacity: self.capacity,
                })
            }
            Err(mpsc::TrySendError::Disconnected(_)) => {
                self.depth.fetch_sub(1, Ordering::Relaxed);
                Err(IngressError::BrokerGone)
            }
        }
    }

    /// Blocking submit: retries a full queue with jittered exponential
    /// backoff until the request's own deadline budget runs out — the
    /// closed-loop client's natural backpressure. Never blocks past the
    /// deadline. May run the request inline, as [`submit`](Self::submit)
    /// describes.
    pub fn submit_blocking(&self, req: Request, budget: Duration) -> Result<Ticket, IngressError> {
        let (env, rx) = self.envelope(req, budget)?;
        let Some(mut env) = self.try_inline(env) else {
            return Ok(self.ticket(rx));
        };
        let mut backoff = Backoff::new(self.client_id);
        loop {
            // Same increment-first discipline as `submit_with_deadline`, so
            // the broker-side decrement can never underflow the gauge.
            self.depth.fetch_add(1, Ordering::Relaxed);
            match self.tx.try_send(env) {
                Ok(()) => return Ok(self.ticket(rx)),
                Err(mpsc::TrySendError::Full(returned)) => {
                    self.depth.fetch_sub(1, Ordering::Relaxed);
                    if Instant::now() >= returned.deadline {
                        return Err(IngressError::DeadlineExceeded { budget });
                    }
                    env = returned;
                    backoff.wait();
                }
                Err(mpsc::TrySendError::Disconnected(_)) => {
                    self.depth.fetch_sub(1, Ordering::Relaxed);
                    return Err(IngressError::BrokerGone);
                }
            }
        }
    }

    /// Submit (blocking, bounded by the budget) and wait for the reply
    /// within the same budget. The closed-loop call shape.
    pub fn call_with_deadline(
        &self,
        req: Request,
        budget: Duration,
    ) -> Result<OpResult, IngressError> {
        let deadline = Instant::now() + budget;
        let ticket = self.submit_blocking(req, budget)?;
        match ticket.wait_deadline(deadline) {
            Some(reply) => reply.result,
            None => Err(IngressError::DeadlineExceeded { budget }),
        }
    }

    /// [`call_with_deadline`](Self::call_with_deadline) with the default
    /// budget.
    pub fn call(&self, req: Request) -> Result<OpResult, IngressError> {
        self.call_with_deadline(req, self.default_deadline)
    }

    /// Convenience SEARCH: `Ok(Some(value))` on a hit, `Ok(None)` on a miss.
    pub fn get(&self, key: u32) -> Result<Option<u32>, IngressError> {
        match self.call(Request::search(key))? {
            OpResult::Found(v) => Ok(Some(v)),
            _ => Ok(None),
        }
    }

    /// Convenience REPLACE: the previous value if the key was present.
    pub fn put(&self, key: u32, value: u32) -> Result<Option<u32>, IngressError> {
        match self.call(Request::replace(key, value))? {
            OpResult::Replaced(old) => Ok(Some(old)),
            _ => Ok(None),
        }
    }

    /// Convenience DELETE: the removed value if the key was present.
    pub fn remove(&self, key: u32) -> Result<Option<u32>, IngressError> {
        match self.call(Request::delete(key))? {
            OpResult::Deleted(old) => Ok(Some(old)),
            _ => Ok(None),
        }
    }
}
