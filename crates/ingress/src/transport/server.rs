//! The framed TCP server: a supervisor accept loop plus per-connection
//! reader/writer workers bridging sockets onto [`ClientHandle`]s.
//!
//! Topology: one supervisor thread owns the listener. Each accepted
//! connection gets a reader thread (decode frames, enforce the inflight
//! cap, submit onto the broker) and a writer thread (wait tickets in order,
//! encode replies). The broker's exactly-one-reply contract extends over
//! the wire: every decoded request produces exactly one reply frame — a
//! table result, a typed ingress error, or a typed transport refusal — and
//! connection-level rejections (`max_connections`, drain, poisoned framing)
//! are sent as typed `Reject` frames before close, never silent drops.
//!
//! Degradation is deliberate, mirroring the broker:
//!
//! * at `max_connections`, new connections get `Reject(MaxConnections)`;
//! * past the per-connection inflight cap, requests get
//!   `Refused(InflightCap)` without touching the broker;
//! * idle connections (no inflight work, no bytes) are closed after
//!   `idle_timeout` and counted;
//! * [`shutdown`](WireServer::shutdown) is a graceful drain — stop
//!   accepting, stop reading, answer everything in flight, then close.
//!
//! Shutdown ordering matters: the server holds [`ClientHandle`]s, which
//! keep the broker's queue open — drain the server *before* calling
//! [`Broker::shutdown`](crate::Broker::shutdown).

use std::io::{self, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use simt::telemetry::{Counter, GaugeMetric, MetricsRegistry};

use crate::broker::Broker;
use crate::client::{ClientHandle, Ticket};
use crate::transport::fault::{WireFaultPlan, WriteOutcome};
use crate::wire::{write_frame, Frame, FrameBuffer, Refusal, RejectReason, ReplyBody, WireReply};

/// Tuning for [`WireServer::bind`].
#[derive(Debug, Clone)]
pub struct WireServerConfig {
    /// Most simultaneous connections; excess accepts are answered with a
    /// typed `Reject(MaxConnections)` and closed.
    pub max_connections: usize,
    /// Most broker-submitted requests in flight per connection; excess
    /// requests are answered with `Refused(InflightCap)` without touching
    /// the broker.
    pub max_inflight: usize,
    /// Connections with no inflight work and no received bytes for this
    /// long are closed (and counted as idle-closed).
    pub idle_timeout: Duration,
    /// Read-slice granularity: how often a blocked reader wakes to check
    /// idle/drain state. Bounds drain latency.
    pub tick: Duration,
    /// Server-side transport fault plan (torn/stalled/dropped reply
    /// writes), for chaos tests.
    pub fault: Option<WireFaultPlan>,
}

impl Default for WireServerConfig {
    fn default() -> Self {
        Self {
            max_connections: 64,
            max_inflight: 64,
            idle_timeout: Duration::from_secs(30),
            tick: Duration::from_millis(10),
            fault: None,
        }
    }
}

/// Pre-registered transport metrics (`slab_transport_*`), following the
/// same conventions as the broker's ingress metrics.
#[derive(Debug)]
struct TransportMetrics {
    connections_open: GaugeMetric,
    accepted: Counter,
    rejected: Counter,
    idle_closed: Counter,
    frames_rx: Counter,
    frames_tx: Counter,
    decode_errors: Counter,
    inflight: GaugeMetric,
    inflight_refused: Counter,
    faults_injected: Counter,
}

impl TransportMetrics {
    fn register(registry: &MetricsRegistry) -> Self {
        Self {
            connections_open: registry.gauge(
                "slab_transport_connections_open",
                "Transport connections currently open",
            ),
            accepted: registry.counter(
                "slab_transport_connections_accepted_total",
                "Transport connections accepted",
            ),
            rejected: registry.counter(
                "slab_transport_connections_rejected_total",
                "Transport connections rejected at the cap or while draining",
            ),
            idle_closed: registry.counter(
                "slab_transport_connections_idle_closed_total",
                "Transport connections closed by the idle timeout",
            ),
            frames_rx: registry.counter(
                "slab_transport_frames_rx_total",
                "Frames decoded off transport connections",
            ),
            frames_tx: registry.counter(
                "slab_transport_frames_tx_total",
                "Frames written to transport connections",
            ),
            decode_errors: registry.counter(
                "slab_transport_frame_decode_errors_total",
                "Frames that failed to decode (connection poisoned)",
            ),
            inflight: registry.gauge(
                "slab_transport_inflight",
                "Broker-submitted requests in flight across all connections",
            ),
            inflight_refused: registry.counter(
                "slab_transport_inflight_refused_total",
                "Requests refused at the per-connection inflight cap",
            ),
            faults_injected: registry.counter(
                "slab_transport_faults_injected_total",
                "Transport faults injected by the server's wire fault plan",
            ),
        }
    }
}

/// State shared by the supervisor and every connection worker.
struct Shared {
    /// Drain flag: stop accepting and stop reading new requests.
    drain: AtomicBool,
    /// Abort flag: tear connections down without answering in-flight work.
    abort: AtomicBool,
    metrics: TransportMetrics,
    /// Open-connection count backing the gauge.
    open: AtomicUsize,
    /// Total inflight count backing the gauge.
    inflight: AtomicUsize,
    /// Read-side clones of every live connection's stream, so drain can
    /// interrupt blocked readers and abort can hard-close.
    conns: Mutex<Vec<(u64, TcpStream)>>,
    cfg: WireServerConfig,
    next_conn_id: AtomicU64,
}

impl Shared {
    fn add_open(&self, delta: isize) {
        let now = if delta >= 0 {
            self.open.fetch_add(delta as usize, Ordering::Relaxed) + delta as usize
        } else {
            self.open.fetch_sub((-delta) as usize, Ordering::Relaxed) - (-delta) as usize
        };
        self.metrics.connections_open.set(now as u64);
    }

    fn add_inflight(&self, delta: isize) {
        let now = if delta >= 0 {
            self.inflight.fetch_add(delta as usize, Ordering::Relaxed) + delta as usize
        } else {
            self.inflight
                .fetch_sub((-delta) as usize, Ordering::Relaxed)
                - (-delta) as usize
        };
        self.metrics.inflight.set(now as u64);
    }

    fn forget_conn(&self, id: u64) {
        self.conns.lock().unwrap().retain(|(cid, _)| *cid != id);
    }
}

/// A running framed TCP server in front of one broker.
///
/// Bind with [`bind`](Self::bind), read the ephemeral port with
/// [`local_addr`](Self::local_addr), stop with a graceful
/// [`shutdown`](Self::shutdown) or a hard [`abort`](Self::abort). Dropping
/// the server aborts it.
#[derive(Debug)]
pub struct WireServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    supervisor: Option<thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared")
            .field("drain", &self.drain)
            .field("abort", &self.abort)
            .field("open", &self.open)
            .field("inflight", &self.inflight)
            .finish_non_exhaustive()
    }
}

impl WireServer {
    /// Binds `addr` (port 0 for ephemeral) and starts serving `broker`.
    ///
    /// Transport metrics register on the broker's own registry, so one
    /// scrape shows the whole pipeline: socket → queue → batch → table.
    pub fn bind(
        addr: impl ToSocketAddrs,
        broker: &Broker,
        cfg: WireServerConfig,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shared = Arc::new(Shared {
            drain: AtomicBool::new(false),
            abort: AtomicBool::new(false),
            metrics: TransportMetrics::register(&broker.metrics()),
            open: AtomicUsize::new(0),
            inflight: AtomicUsize::new(0),
            conns: Mutex::new(Vec::new()),
            cfg,
            next_conn_id: AtomicU64::new(1),
        });
        let handle = broker.handle();
        let sup_shared = Arc::clone(&shared);
        let supervisor = thread::Builder::new()
            .name("slab-wire-supervisor".into())
            .spawn(move || supervise(listener, handle, sup_shared))
            .expect("spawn wire supervisor thread");
        Ok(Self {
            addr: local,
            shared,
            supervisor: Some(supervisor),
        })
    }

    /// The bound address (the one to hand to clients).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections currently open.
    pub fn connections_open(&self) -> usize {
        self.shared.open.load(Ordering::Relaxed)
    }

    /// Graceful drain: stop accepting, stop reading new requests, answer
    /// everything already in flight, then close every connection and join
    /// all workers.
    pub fn shutdown(mut self) {
        self.stop(false);
    }

    /// Hard stop: close every connection immediately without answering
    /// in-flight work — the deterministic "server died" lever for chaos
    /// tests. In-flight broker replies are discarded; peers observe torn
    /// connections, exactly as they would on a crash.
    pub fn abort(mut self) {
        self.stop(true);
    }

    fn stop(&mut self, hard: bool) {
        let Some(supervisor) = self.supervisor.take() else {
            return;
        };
        if hard {
            self.shared.abort.store(true, Ordering::SeqCst);
        }
        self.shared.drain.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        // Interrupt every blocked reader: drain lets writes finish, abort
        // closes both directions.
        let how = if hard { Shutdown::Both } else { Shutdown::Read };
        for (_, stream) in self.shared.conns.lock().unwrap().iter() {
            let _ = stream.shutdown(how);
        }
        let _ = supervisor.join();
    }
}

impl Drop for WireServer {
    fn drop(&mut self) {
        self.stop(true);
    }
}

/// The accept loop: spawn a connection worker per accept, reject past the
/// cap, reap finished workers, join everything on drain.
fn supervise(listener: TcpListener, handle: ClientHandle, shared: Arc<Shared>) {
    let mut workers: Vec<thread::JoinHandle<()>> = Vec::new();
    for accepted in listener.incoming() {
        if shared.drain.load(Ordering::SeqCst) {
            break;
        }
        workers.retain(|w| !w.is_finished());
        let stream = match accepted {
            Ok(s) => s,
            Err(_) => continue,
        };
        if shared.open.load(Ordering::Relaxed) >= shared.cfg.max_connections {
            shared.metrics.rejected.inc();
            reject_and_close(
                stream,
                RejectReason::MaxConnections {
                    max: shared.cfg.max_connections as u64,
                },
            );
            continue;
        }
        shared.metrics.accepted.inc();
        shared.add_open(1);
        let conn_id = shared.next_conn_id.fetch_add(1, Ordering::Relaxed);
        if let Ok(read_side) = stream.try_clone() {
            shared.conns.lock().unwrap().push((conn_id, read_side));
        }
        let conn_shared = Arc::clone(&shared);
        let conn_handle = handle.clone();
        let worker = thread::Builder::new()
            .name(format!("slab-wire-conn-{conn_id}"))
            .spawn(move || {
                serve_connection(stream, conn_id, conn_handle, Arc::clone(&conn_shared));
                conn_shared.forget_conn(conn_id);
                conn_shared.add_open(-1);
            })
            .expect("spawn wire connection worker");
        workers.push(worker);
    }
    // Drain: answer in-flight work, then join every worker.
    for worker in workers {
        let _ = worker.join();
    }
}

/// Best-effort typed rejection before close (the alternative is a silent
/// RST, which leaves the peer guessing).
fn reject_and_close(mut stream: TcpStream, reason: RejectReason) {
    let _ = stream.set_write_timeout(Some(Duration::from_millis(100)));
    let mut scratch = Vec::new();
    let _ = write_frame(&mut stream, &Frame::Reject(reason), &mut scratch);
    let _ = stream.shutdown(Shutdown::Both);
}

/// What the reader hands the writer, in arrival order.
enum Outgoing {
    /// A broker-accepted request: wait the ticket, then reply.
    Pending { req_id: u64, ticket: Ticket },
    /// An immediately known answer (refusal or client-side ingress error).
    Immediate { req_id: u64, body: ReplyBody },
    /// The connection is poisoned; tell the peer why, then close.
    Poison(RejectReason),
}

/// Runs one connection: reader inline, writer on a sibling thread.
fn serve_connection(stream: TcpStream, conn_id: u64, handle: ClientHandle, shared: Arc<Shared>) {
    let write_side = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let (tx, rx) = mpsc::channel::<Outgoing>();
    // The writer marks the connection dead (fault injection, write errors)
    // via this flag so the reader stops consuming a broken peer's bytes.
    let dead = Arc::new(AtomicBool::new(false));
    // This connection's inflight window: reader increments at submit,
    // writer decrements at retirement.
    let conn_inflight = Arc::new(AtomicUsize::new(0));
    let writer_shared = Arc::clone(&shared);
    let writer_dead = Arc::clone(&dead);
    let writer_inflight = Arc::clone(&conn_inflight);
    let writer = thread::Builder::new()
        .name(format!("slab-wire-write-{conn_id}"))
        .spawn(move || {
            write_loop(
                write_side,
                conn_id,
                rx,
                writer_shared,
                writer_dead,
                writer_inflight,
            )
        })
        .expect("spawn wire writer thread");
    read_loop(stream, &handle, &shared, &dead, &conn_inflight, tx);
    // Dropping the sender lets the writer drain in-flight replies and exit.
    let _ = writer.join();
}

/// The reader half: decode frames, enforce caps, submit to the broker.
fn read_loop(
    mut stream: TcpStream,
    handle: &ClientHandle,
    shared: &Shared,
    dead: &AtomicBool,
    conn_inflight: &AtomicUsize,
    tx: mpsc::Sender<Outgoing>,
) {
    let _ = stream.set_read_timeout(Some(shared.cfg.tick.max(Duration::from_millis(1))));
    let mut carry = FrameBuffer::new();
    let mut chunk = [0u8; 4096];
    let mut last_activity = Instant::now();
    loop {
        if shared.abort.load(Ordering::SeqCst)
            || shared.drain.load(Ordering::SeqCst)
            || dead.load(Ordering::SeqCst)
        {
            return;
        }
        use std::io::Read;
        match stream.read(&mut chunk) {
            Ok(0) => return, // peer closed
            Ok(n) => {
                last_activity = Instant::now();
                carry.extend(&chunk[..n]);
                loop {
                    match carry.next_frame() {
                        Ok(Some(Frame::Request(wreq))) => {
                            shared.metrics.frames_rx.inc();
                            let outgoing = if conn_inflight.load(Ordering::Acquire)
                                >= shared.cfg.max_inflight
                            {
                                shared.metrics.inflight_refused.inc();
                                Outgoing::Immediate {
                                    req_id: wreq.req_id,
                                    body: ReplyBody::Refused(Refusal::InflightCap {
                                        limit: shared.cfg.max_inflight as u64,
                                    }),
                                }
                            } else if shared.drain.load(Ordering::SeqCst) {
                                Outgoing::Immediate {
                                    req_id: wreq.req_id,
                                    body: ReplyBody::Refused(Refusal::Draining),
                                }
                            } else {
                                match handle.submit_with_deadline(wreq.req, wreq.budget) {
                                    Ok(ticket) => {
                                        conn_inflight.fetch_add(1, Ordering::AcqRel);
                                        shared.add_inflight(1);
                                        Outgoing::Pending {
                                            req_id: wreq.req_id,
                                            ticket,
                                        }
                                    }
                                    Err(e) => Outgoing::Immediate {
                                        req_id: wreq.req_id,
                                        body: ReplyBody::Ingress(e),
                                    },
                                }
                            };
                            if tx.send(outgoing).is_err() {
                                return; // writer gone: connection is dead
                            }
                        }
                        Ok(Some(_)) => {
                            // A client sending server-only frames has lost
                            // the plot; poison the connection.
                            shared.metrics.decode_errors.inc();
                            let _ = tx.send(Outgoing::Poison(RejectReason::BadFrame));
                            return;
                        }
                        Ok(None) => break, // need more bytes
                        Err(_) => {
                            // Framing is lost; there is no resync. Typed
                            // reject, then close.
                            shared.metrics.decode_errors.inc();
                            let _ = tx.send(Outgoing::Poison(RejectReason::BadFrame));
                            return;
                        }
                    }
                }
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                // Idle bookkeeping on the tick.
                if conn_inflight.load(Ordering::Acquire) == 0
                    && last_activity.elapsed() >= shared.cfg.idle_timeout
                {
                    shared.metrics.idle_closed.inc();
                    return;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

/// The writer half: retire outgoing messages in order; every `Pending`
/// waits its ticket (the broker's deadline machinery guarantees the wait is
/// bounded), and once the connection is known-dead the remaining tickets
/// are still waited — so the global inflight gauge stays honest — but
/// nothing more is written.
fn write_loop(
    mut stream: TcpStream,
    conn_id: u64,
    rx: mpsc::Receiver<Outgoing>,
    shared: Arc<Shared>,
    dead: Arc<AtomicBool>,
    conn_inflight: Arc<AtomicUsize>,
) {
    let mut scratch = Vec::new();
    let mut injector = shared
        .cfg
        .fault
        .as_ref()
        .filter(|p| p.is_active())
        .map(|p| p.injector(conn_id));
    let mut writable = true;
    while let Ok(outgoing) = rx.recv() {
        let (frame, was_pending) = match outgoing {
            Outgoing::Pending { req_id, ticket } => {
                let reply = ticket.wait();
                let body = match reply.result {
                    Ok(res) => ReplyBody::Result(res),
                    Err(e) => ReplyBody::Ingress(e),
                };
                (Frame::Reply(WireReply { req_id, body }), true)
            }
            Outgoing::Immediate { req_id, body } => {
                (Frame::Reply(WireReply { req_id, body }), false)
            }
            Outgoing::Poison(reason) => (Frame::Reject(reason), false),
        };
        if was_pending {
            conn_inflight.fetch_sub(1, Ordering::AcqRel);
            shared.add_inflight(-1);
        }
        let abort = shared.abort.load(Ordering::SeqCst);
        if !writable || abort {
            continue; // keep draining tickets, write nothing
        }
        let wrote = match injector.as_mut() {
            Some(inj) => match inj.write_frame(&mut stream, &frame, &mut scratch) {
                Ok(WriteOutcome::Sent) => true,
                Ok(WriteOutcome::Dropped) => {
                    shared.metrics.faults_injected.inc();
                    false
                }
                Err(_) => false,
            },
            None => write_frame(&mut stream, &frame, &mut scratch).is_ok(),
        };
        if wrote {
            shared.metrics.frames_tx.inc();
            if matches!(frame, Frame::Reject(_)) {
                break;
            }
        } else {
            // The peer can no longer hear us: stop writing, stop reading,
            // but keep retiring tickets so accounting stays exact.
            writable = false;
            dead.store(true, Ordering::SeqCst);
            let _ = stream.shutdown(Shutdown::Both);
        }
    }
    let _ = stream.flush();
    let _ = stream.shutdown(Shutdown::Both);
}
