//! The broker task: coalescing, admission control, dispatch, and reply
//! routing.
//!
//! One broker thread owns the receive side of the bounded submission queue.
//! Each cycle it drains up to [`BrokerConfig::max_batch`] envelopes as one
//! cohort. A submitter that finds the broker idle (nothing queued, no cohort
//! running) and has no ticket of its own outstanding runs its request as a
//! one-envelope cohort on its own thread instead (caller-runs); both entries
//! run the same cohort body under one lock. A cohort runs the
//! admission pass (deadlines first, then the allocator-headroom write
//! shed), executes the surviving requests as one
//! warp-shaped batch on the persistent executor pool, and routes every
//! result back over its envelope's reply channel. Every request is
//! dispatched once: a retryable table failure (`OutOfSlabs`,
//! `RetryBudgetExhausted`) runs one maintenance pass for the cohort and is
//! answered as a typed error, so a client that resends finds the healed
//! table.
//!
//! Degradation order under pressure is deliberate: INSERT and REPLACE are
//! shed first (only they allocate slabs), reads and deletes keep flowing
//! until the queue itself fills (a DELETE's tombstone is what the next
//! compaction pass frees), and every refusal is a typed reply — clients
//! always learn the fate of their request.

use std::any::Any;
use std::io;
use std::net::SocketAddr;
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

use simt::chaos::{self, Enrollment};
use simt::telemetry::{
    self, EventKind, JsonlSnapshots, MetricsRegistry, MetricsServer, RequestSpan, SessionHandle,
    SpanReport, Stage, LAUNCH_WARP,
};
use simt::{ChaosGuard, FaultPlan, Grid};
use slab_alloc::SlabAllocator;
use slab_hash::{BatchBuffer, EntryLayout, OpKind, OpResult, Request, SlabHash, TableError};

use crate::client::{ClientHandle, Reply};
use crate::error::IngressError;
use crate::metrics::{IngressMetrics, MaintainReason};
use crate::stats::IngressStats;

/// One queued request: the operation, its deadline budget, the channel its
/// reply must be routed to, and the span tracking it through the pipeline.
pub(crate) struct Envelope {
    pub(crate) req: Request,
    pub(crate) submitted: Instant,
    pub(crate) deadline: Instant,
    pub(crate) reply: mpsc::Sender<Reply>,
    pub(crate) span: RequestSpan,
}

impl Envelope {
    fn budget(&self) -> Duration {
        self.deadline.duration_since(self.submitted)
    }

    /// Answers the envelope and returns the closed span report so the
    /// caller can bill it. The reply stage is marked and the end-to-end
    /// latency measured from the *same* instant, so the report's stage sum
    /// reconciles with `latency` exactly.
    fn answer(mut self, result: Result<OpResult, IngressError>) -> SpanReport {
        let now = Instant::now();
        self.span.mark_at(Stage::Reply, now);
        let span = self.span.report(now);
        let latency = now.duration_since(self.submitted);
        // A client that dropped its ticket is not an error; the reply is
        // simply discarded.
        let _ = self.reply.send(Reply {
            result,
            latency,
            span,
        });
        span
    }
}

/// Tuning for [`Broker::spawn`].
#[derive(Clone)]
pub struct BrokerConfig {
    /// Bounded submission-queue capacity shared by every client handle.
    pub queue_capacity: usize,
    /// Most envelopes coalesced into one dispatched batch.
    pub max_batch: usize,
    /// Deadline budget for requests submitted without an explicit one.
    pub default_deadline: Duration,
    /// INSERT and REPLACE are shed while the allocator's free-slab gauge is
    /// at or below this watermark. Reads and deletes are unaffected.
    pub write_shed_headroom: u64,
    /// How long an idle broker sleeps between housekeeping checks.
    pub idle_tick: Duration,
    /// Grid to dispatch on; `None` builds a pooled grid sized to the host.
    pub grid: Option<Grid>,
    /// Fault plan for chaos soaks. It is installed on the broker thread
    /// (inherited by its launches), and a client thread that runs a cohort
    /// inline is enrolled in it for that cohort, so every dispatched batch
    /// sees the same faults whichever thread runs it.
    pub chaos: Option<FaultPlan>,
}

impl Default for BrokerConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 4096,
            max_batch: 1024,
            default_deadline: Duration::from_millis(100),
            write_shed_headroom: 16,
            idle_tick: Duration::from_millis(1),
            grid: None,
            chaos: None,
        }
    }
}

impl std::fmt::Debug for BrokerConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BrokerConfig")
            .field("queue_capacity", &self.queue_capacity)
            .field("max_batch", &self.max_batch)
            .field("default_deadline", &self.default_deadline)
            .field("write_shed_headroom", &self.write_shed_headroom)
            .field("idle_tick", &self.idle_tick)
            .field("grid", &self.grid.as_ref().map(|_| "Grid"))
            .field("chaos", &self.chaos)
            .finish()
    }
}

/// A running ingress broker: the owning handle for the broker thread.
///
/// Create with [`Broker::spawn`], mint client handles with
/// [`Broker::handle`], and stop with [`Broker::shutdown`] to collect the
/// lifetime [`IngressStats`].
#[derive(Debug)]
pub struct Broker {
    tx: Option<mpsc::SyncSender<Envelope>>,
    depth: Arc<AtomicUsize>,
    combiner: Arc<dyn Combiner>,
    thread: Option<thread::JoinHandle<IngressStats>>,
    queue_capacity: usize,
    default_deadline: Duration,
    registry: Arc<MetricsRegistry>,
    exporter: Option<MetricsServer>,
    snapshots: Option<JsonlSnapshots>,
}

impl Broker {
    /// Spawns the broker thread over `table`.
    ///
    /// The active telemetry session (if any) is captured from the *calling*
    /// thread, so the broker's ingress events land in the caller's trace.
    /// Likewise `cfg.chaos` (if set) is installed on the broker thread, so
    /// chaos soaks inject faults into broker-dispatched batches without
    /// touching the rest of the process.
    pub fn spawn<L, A>(table: Arc<SlabHash<L, A>>, cfg: BrokerConfig) -> Self
    where
        L: EntryLayout,
        A: SlabAllocator + Send + Sync + 'static,
    {
        let capacity = cfg.queue_capacity.max(1);
        let default_deadline = cfg.default_deadline;
        let (tx, rx) = mpsc::sync_channel::<Envelope>(capacity);
        let depth = Arc::new(AtomicUsize::new(0));
        let depth_for_broker = Arc::clone(&depth);
        let registry = Arc::new(MetricsRegistry::new());
        let registry_for_broker = Arc::clone(&registry);
        // `current_session` is thread-local: capture here, on the spawning
        // thread, and move the handle into the broker.
        let session = simt::telemetry::current_session();
        // The broker thread builds the shared state, because the chaos
        // enrollment that inline cohorts borrow exists only once its guard
        // is live there; spawn waits for it so no handle can run a cohort
        // outside the plan.
        let (ready_tx, ready_rx) = mpsc::channel::<Arc<dyn Combiner>>();
        let thread = thread::Builder::new()
            .name("slab-ingress-broker".into())
            .spawn(move || {
                // Installed for the broker thread's lifetime: launches
                // dispatched from here inherit the plan.
                let _chaos = cfg.chaos.map(ChaosGuard::plan);
                let (idle_tick, max_batch) = (cfg.idle_tick, cfg.max_batch.max(1));
                let run = BrokerRun::new(table, cfg, session, &registry_for_broker);
                run.refresh_gauges(0);
                let shared = Arc::new(Shared {
                    run: Mutex::new(run),
                    depth: depth_for_broker,
                    enrollment: chaos::thread_enrollment(),
                    dead: AtomicBool::new(false),
                    panic: Mutex::new(None),
                });
                let _ = ready_tx.send(Arc::clone(&shared) as Arc<dyn Combiner>);
                run_broker(&shared, rx, idle_tick, max_batch)
            })
            .expect("spawn ingress broker thread");
        let combiner = ready_rx.recv().expect("ingress broker thread started");
        Self {
            tx: Some(tx),
            depth,
            combiner,
            thread: Some(thread),
            queue_capacity: capacity,
            default_deadline,
            registry,
            exporter: None,
            snapshots: None,
        }
    }

    /// The broker's metrics registry: every counter, gauge, and stage
    /// histogram the broker bills, live while it runs. Scrape directly with
    /// [`MetricsRegistry::render_prometheus`], or serve it over HTTP with
    /// [`with_metrics_addr`](Self::with_metrics_addr).
    pub fn metrics(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.registry)
    }

    /// Opts in to the live metrics plane: binds `addr` (e.g.
    /// `"127.0.0.1:9184"`, port 0 for ephemeral) and serves this broker's
    /// registry as Prometheus text on `GET /metrics` from a background
    /// thread. The exporter stops at [`shutdown`](Self::shutdown) (or drop).
    pub fn with_metrics_addr(mut self, addr: &str) -> io::Result<Self> {
        self.exporter = Some(MetricsServer::serve(addr, Arc::clone(&self.registry))?);
        Ok(self)
    }

    /// The exporter's bound address, if
    /// [`with_metrics_addr`](Self::with_metrics_addr) was used — the
    /// address to curl.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.exporter.as_ref().map(MetricsServer::local_addr)
    }

    /// Opts in to periodic JSONL snapshots of the registry at `path`, one
    /// line every `interval`, plus a final line at shutdown.
    pub fn with_jsonl_snapshots(
        mut self,
        path: impl Into<PathBuf>,
        interval: Duration,
    ) -> io::Result<Self> {
        self.snapshots = Some(JsonlSnapshots::start(
            path,
            Arc::clone(&self.registry),
            interval,
        )?);
        Ok(self)
    }

    /// Mints a new client handle onto this broker's queue.
    pub fn handle(&self) -> ClientHandle {
        ClientHandle::new(
            self.tx.clone().expect("broker sender alive until shutdown"),
            Arc::clone(&self.depth),
            Arc::clone(&self.combiner),
            self.default_deadline,
            self.queue_capacity,
        )
    }

    /// Requests currently sitting in the submission queue (approximate).
    pub fn queue_depth(&self) -> usize {
        self.depth.load(Ordering::Relaxed)
    }

    /// Stops the broker and returns its lifetime stats.
    ///
    /// The broker drains and answers everything already queued, then exits
    /// once every [`ClientHandle`] has been dropped — outstanding handles
    /// keep the queue open, so drop them (or their owning threads must
    /// finish) before calling this.
    pub fn shutdown(mut self) -> IngressStats {
        self.tx.take();
        let stats = self
            .thread
            .take()
            .expect("broker thread joined once")
            .join()
            .expect("ingress broker thread panicked");
        // Stop the snapshot writer after the broker has drained, so its
        // final JSONL line captures the end-of-life registry state.
        if let Some(snapshots) = self.snapshots.take() {
            snapshots.shutdown();
        }
        if let Some(exporter) = self.exporter.take() {
            exporter.shutdown();
        }
        stats
    }
}

impl Drop for Broker {
    fn drop(&mut self) {
        self.tx.take();
        if let Some(thread) = self.thread.take() {
            // Propagating a broker panic out of drop would abort; surfacing
            // it via `shutdown` is the supported path.
            let _ = thread.join();
        }
        // Same teardown order as `shutdown`: stop the snapshot writer after
        // the broker has drained (so its final line sees end-of-life state),
        // then the exporter. Explicit, not left to field-drop order: drop
        // must release the listener socket and join the writer thread just
        // as reliably as `shutdown` does.
        if let Some(snapshots) = self.snapshots.take() {
            snapshots.shutdown();
        }
        if let Some(exporter) = self.exporter.take() {
            exporter.shutdown();
        }
    }
}

/// The ops that may allocate a slab, and so the ones the write shed
/// refuses. A DELETE only tombstones: it frees slabs once compacted.
fn allocates(op: OpKind) -> bool {
    matches!(op, OpKind::Insert | OpKind::Replace)
}

/// Failures that a maintenance pass may cure: the table stayed consistent
/// and the request had no effect, so a resend can land.
fn is_retryable(err: TableError) -> bool {
    matches!(
        err,
        TableError::OutOfSlabs(_) | TableError::RetryBudgetExhausted { .. }
    )
}

/// Which entry a cohort came through (the label on
/// `slab_ingress_cohorts_total`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CohortPath {
    /// Run by the submitting thread on an idle broker.
    Inline = 0,
    /// Drained off the queue by the broker thread.
    Queued = 1,
}

/// The submitter's view of the broker state, with the table's type
/// parameters erased so a [`ClientHandle`] can hold it.
pub(crate) trait Combiner: Send + Sync + std::fmt::Debug {
    /// Runs `env` as a one-envelope cohort on the calling thread when the
    /// queue is empty and no cohort is running; hands it back otherwise.
    fn try_run_inline(&self, env: Envelope) -> Option<Envelope>;

    /// True once a cohort has panicked: the broker is gone.
    fn is_dead(&self) -> bool;
}

const PANIC_SLOT: &str =
    "the panic slot is only stored to and taken from, never held across a panic";

/// The broker state every cohort runs under, whichever thread runs it.
struct Shared<L: EntryLayout, A: SlabAllocator> {
    run: Mutex<BrokerRun<L, A>>,
    /// Envelopes sent but not yet taken by a cohort. The broker thread
    /// takes its share off only while it holds `run` (AcqRel, pairing with
    /// the Acquire load in `try_run_inline`), so a submitter that reads zero
    /// and then wins `try_lock` cannot overtake anything queued.
    depth: Arc<AtomicUsize>,
    /// The broker thread's failure plan, carried into inline cohorts.
    enrollment: Option<Enrollment>,
    /// Set once an inline cohort panicked; the broker thread re-raises
    /// `panic` the next time it wakes.
    dead: AtomicBool,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl<L: EntryLayout, A: SlabAllocator> std::fmt::Debug for Shared<L, A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BrokerShared")
            .field("dead", &self.dead.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl<L, A> Combiner for Shared<L, A>
where
    L: EntryLayout,
    A: SlabAllocator + Send + Sync + 'static,
{
    fn try_run_inline(&self, env: Envelope) -> Option<Envelope> {
        if self.depth.load(Ordering::Acquire) != 0 {
            return Some(env);
        }
        let Ok(mut run) = self.run.try_lock() else {
            return Some(env);
        };
        if self.is_dead() {
            return Some(env);
        }
        // Run exactly as the broker thread would: in its failure plan, and
        // outside any trace session this client thread has open.
        let _enrolled = chaos::participate_in(self.enrollment);
        let _hidden = telemetry::hide_sessions();
        // A panic must neither unwind into the submitter nor poison `run`.
        // The envelope drops while unwinding, so its ticket resolves to
        // `BrokerGone`, and the broker thread re-raises the payload.
        let cohort = panic::catch_unwind(AssertUnwindSafe(|| {
            run.cohort(vec![env], &self.depth, CohortPath::Inline);
        }));
        if let Err(payload) = cohort {
            *self.panic.lock().expect(PANIC_SLOT) = Some(payload);
            self.dead.store(true, Ordering::Release);
        }
        None
    }

    fn is_dead(&self) -> bool {
        self.dead.load(Ordering::Acquire)
    }
}

impl<L: EntryLayout, A: SlabAllocator> Shared<L, A> {
    /// Locks the broker state for the broker thread, first re-raising an
    /// inline cohort's panic so the thread dies as if the cohort had been
    /// its own.
    fn lock_alive(&self) -> MutexGuard<'_, BrokerRun<L, A>> {
        let run = self
            .run
            .lock()
            .expect("only the broker thread's own panic poisons its state, and ends it");
        if self.dead.load(Ordering::Acquire) {
            drop(run);
            let payload = self.panic.lock().expect(PANIC_SLOT).take();
            panic::resume_unwind(payload.expect("`dead` is set only after the payload is stored"));
        }
        run
    }
}

struct BrokerRun<L: EntryLayout, A: SlabAllocator> {
    table: Arc<SlabHash<L, A>>,
    cfg: BrokerConfig,
    grid: Grid,
    session: Option<SessionHandle>,
    stats: IngressStats,
    metrics: IngressMetrics,
    batch: BatchBuffer,
}

fn run_broker<L, A>(
    shared: &Shared<L, A>,
    rx: mpsc::Receiver<Envelope>,
    idle_tick: Duration,
    max_batch: usize,
) -> IngressStats
where
    L: EntryLayout,
    A: SlabAllocator + Send + Sync + 'static,
{
    let depth = &shared.depth;
    let mut envelopes: Vec<Envelope> = Vec::with_capacity(max_batch);

    loop {
        // Block (briefly) for the first envelope; Disconnected means every
        // sender is gone AND the buffer is drained — `sync_channel` delivers
        // buffered messages before reporting disconnect, so no queued
        // request is ever dropped on shutdown.
        let received = rx.recv_timeout(idle_tick);
        let mut run = shared.lock_alive();
        match received {
            Ok(env) => {
                depth.fetch_sub(1, Ordering::AcqRel);
                envelopes.push(env);
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                run.idle_housekeeping();
                run.refresh_gauges(depth.load(Ordering::Relaxed));
                continue;
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        }
        // Opportunistically coalesce whatever else is already queued.
        while envelopes.len() < max_batch {
            match rx.try_recv() {
                Ok(env) => {
                    depth.fetch_sub(1, Ordering::AcqRel);
                    envelopes.push(env);
                }
                Err(_) => break,
            }
        }
        run.cohort(std::mem::take(&mut envelopes), depth, CohortPath::Queued);
    }
    let mut run = shared.lock_alive();
    run.refresh_gauges(0);
    std::mem::take(&mut run.stats)
}

impl<L: EntryLayout, A: SlabAllocator> BrokerRun<L, A> {
    fn new(
        table: Arc<SlabHash<L, A>>,
        cfg: BrokerConfig,
        session: Option<SessionHandle>,
        registry: &Arc<MetricsRegistry>,
    ) -> Self {
        let grid = cfg.grid.clone().unwrap_or_else(|| {
            Grid::new(thread::available_parallelism().map_or(4, |n| n.get().min(8)))
        });
        Self {
            batch: BatchBuffer::with_capacity(cfg.max_batch.max(1)),
            metrics: IngressMetrics::register(registry),
            table,
            cfg,
            grid,
            session,
            stats: IngressStats::default(),
        }
    }

    /// The one cohort body both entries run: close every envelope's
    /// queue-wait stage at one shared timestamp, bill the submission,
    /// sample the queue depth, then admit, dispatch and answer, and
    /// refresh the gauges.
    fn cohort(&mut self, mut envelopes: Vec<Envelope>, depth: &AtomicUsize, path: CohortPath) {
        let drained_at = Instant::now();
        for env in &mut envelopes {
            env.span.mark_at(Stage::QueueWait, drained_at);
        }
        let backlog = depth.load(Ordering::Relaxed);
        self.stats.submitted += envelopes.len() as u64;
        self.metrics.submitted.add(envelopes.len() as u64);
        if path == CohortPath::Inline {
            self.stats.inline_cohorts += 1;
        }
        self.metrics.cohorts[path as usize].inc();
        self.stats
            .histograms
            .queue_depth
            .record((envelopes.len() + backlog) as u64);
        self.emit("dispatch", (envelopes.len() + backlog) as u32);
        self.process_batch(envelopes);
        self.refresh_gauges(depth.load(Ordering::Relaxed));
    }

    fn emit(&self, action: &'static str, depth: u32) {
        if let Some(session) = &self.session {
            session.emit(LAUNCH_WARP, EventKind::Ingress { action, depth });
        }
    }

    /// Refreshes the live gauges: queue depth, allocator pressure, executor
    /// pool. Called once per cohort and idle tick — gauges are
    /// sampled, not billed, so scrape-time values are at most one idle tick
    /// stale.
    fn refresh_gauges(&self, queued: usize) {
        let m = &self.metrics;
        m.queue_depth.set(queued as u64);
        let alloc = self.table.allocator();
        // `free_slabs` is O(1) on `SlabAlloc`; `allocated_slabs` is the
        // bitmap scan `audit()` trusts, too slow for every cohort.
        let (free, capacity) = (alloc.free_slabs(), alloc.capacity_slabs());
        m.alloc_free.set(free);
        m.alloc_allocated.set(capacity - free);
        m.alloc_capacity.set(capacity);
        m.alloc_committed.set(alloc.committed_bytes());
        if let Some(pool) = self.grid.pool_stats() {
            m.pool_workers_alive.set(pool.workers_alive as u64);
            m.pool_launches.set(pool.launches);
        }
    }

    /// Runs one maintenance pass and, if it launched, counts it against its
    /// trigger and bills the window it held.
    fn maintain(&self, reason: MaintainReason) {
        let report = self.table.maintain(&self.grid);
        self.metrics.bill_pass(reason, &report);
    }

    /// Idle cycles are spent healing: if the allocator is inside the write
    /// shed watermark, run a maintenance pass so capacity recovers while no
    /// traffic is waiting. On a table nothing has dirtied since its last
    /// pass, the pass launches nothing.
    fn idle_housekeeping(&mut self) {
        if self.table.allocator().free_slabs() <= self.cfg.write_shed_headroom {
            self.maintain(MaintainReason::Idle);
        }
    }

    /// Admission, one dispatch, and reply routing for one coalesced batch.
    fn process_batch(&mut self, envelopes: Vec<Envelope>) {
        // --- Admission pass: deadline, then memory-pressure shed. ---
        let now = Instant::now();
        let shed_writes = self.table.allocator().free_slabs() <= self.cfg.write_shed_headroom;
        let mut healed = false;
        let mut pending: Vec<Envelope> = Vec::with_capacity(envelopes.len());
        self.batch.clear();
        for mut env in envelopes {
            if now >= env.deadline {
                self.stats.counters.timed_out += 1;
                self.metrics.timed_out.inc();
                let budget = env.budget();
                let span = env.answer(Err(IngressError::DeadlineExceeded { budget }));
                self.metrics.bill_span(&span);
                continue;
            }
            if shed_writes && allocates(env.req.op) {
                self.stats.counters.shed += 1;
                self.metrics.shed.inc();
                if !healed {
                    self.maintain(MaintainReason::Admission);
                    healed = true;
                }
                let span = env.answer(Err(IngressError::ShedWrite));
                self.metrics.bill_span(&span);
                continue;
            }
            env.span.mark_at(Stage::Admission, now);
            self.batch.push(env.req.clone());
            pending.push(env);
        }

        // --- One dispatch. ---
        if pending.is_empty() {
            return;
        }
        // Two shared timestamps bracket the launch: dispatch (batch
        // assembly + scheduling since admission) ends where execute begins.
        let exec_start = Instant::now();
        for env in &mut pending {
            env.span.mark_at(Stage::Dispatch, exec_start);
        }
        let report = self.table.execute_buffer(&mut self.batch, &self.grid);
        let now = Instant::now();
        for env in &mut pending {
            env.span.mark_at(Stage::Execute, now);
        }
        self.stats.batches += 1;
        self.metrics.batches.inc();
        self.stats.counters.merge(&report.counters);
        self.stats.histograms.merge(&report.histograms);
        self.metrics.bill_batch(&report.counters);

        for (req, env) in self.batch.requests().iter().zip(pending) {
            let reply = match req.result {
                OpResult::Failed(err) if is_retryable(err) && now >= env.deadline => {
                    self.stats.counters.timed_out += 1;
                    self.metrics.timed_out.inc();
                    Err(IngressError::DeadlineExceeded {
                        budget: env.budget(),
                    })
                }
                OpResult::Failed(err) => {
                    // Heal once so the client's resend finds capacity.
                    if is_retryable(err) && !healed {
                        self.maintain(MaintainReason::Dispatch);
                        healed = true;
                    }
                    Err(IngressError::Table(err))
                }
                ref result => {
                    self.stats.completed += 1;
                    self.metrics.completed.inc();
                    Ok(result.clone())
                }
            };
            let span = env.answer(reply);
            self.metrics.bill_span(&span);
        }
    }
}
