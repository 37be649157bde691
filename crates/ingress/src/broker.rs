//! The broker task: coalescing, admission control, dispatch, bounded
//! retry, and reply routing.
//!
//! One broker thread owns the receive side of the bounded submission queue.
//! Each cycle it drains up to [`BrokerConfig::max_batch`] envelopes, runs the
//! admission pass (deadlines first, then the circuit breaker, then the
//! allocator-headroom write shed), executes the surviving requests as one
//! warp-shaped batch on the persistent executor pool, and routes every
//! result back over its envelope's reply channel. Under the block policy,
//! retryable failures are re-dispatched with the table's own recovery pass
//! between rounds — bounded by [`BrokerConfig::max_dispatch_attempts`] and by
//! each request's deadline, never by spinning.
//!
//! Degradation order under pressure is deliberate: writes are shed first
//! (they consume slabs; reads do not), reads keep flowing until the queue
//! itself fills, and every refusal is a typed reply — clients always learn
//! the fate of their request.

use std::io;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

use simt::telemetry::{
    EventKind, JsonlSnapshots, MetricsRegistry, MetricsServer, RequestSpan, SessionHandle,
    SpanReport, Stage, LAUNCH_WARP,
};
use simt::{ChaosGuard, FaultPlan, Grid, ShardMap};
use slab_alloc::SlabAllocator;
use slab_hash::{
    BatchBuffer, EntryLayout, MaintenancePolicy, OpKind, OpResult, PressureMode, Request, SlabHash,
    TableError,
};

use crate::breaker::{BreakerConfig, BreakerState, CircuitBreaker};
use crate::client::{ClientHandle, Reply};
use crate::error::IngressError;
use crate::metrics::{breaker_state_code, IngressMetrics, MaintainReason};
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
    /// Reaction to retryable table failures: block (bounded re-dispatch)
    /// or shed (one heal pass, fail fast).
    pub policy: MaintenancePolicy,
    /// Most dispatch rounds one request gets under the block policy
    /// (including the first).
    pub max_dispatch_attempts: u32,
    /// Writes are shed while the allocator's free-slab gauge is at or below
    /// this watermark (shed policy only). Reads are unaffected.
    pub write_shed_headroom: u64,
    /// Batches at least this large execute through sharded ownership
    /// dispatch: requests are routed to the executor that owns their
    /// bucket's shard, so a hot bucket is only ever touched by one worker.
    /// Below the threshold the flat warp-chunked path wins (no routing
    /// pass). The broker pre-hashes every admitted request, so the sharded
    /// path skips its bucket pass entirely.
    pub partition_threshold: usize,
    /// Circuit-breaker tuning.
    pub breaker: BreakerConfig,
    /// How long an idle broker sleeps between housekeeping checks.
    pub idle_tick: Duration,
    /// Grid to dispatch on; `None` builds a pooled grid sized to the host.
    pub grid: Option<Grid>,
    /// Fault plan installed on the broker thread (inherited by its
    /// launches), for chaos soaks.
    pub chaos: Option<FaultPlan>,
}

impl Default for BrokerConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 4096,
            max_batch: 1024,
            default_deadline: Duration::from_millis(100),
            policy: MaintenancePolicy::shed(),
            max_dispatch_attempts: 4,
            write_shed_headroom: 16,
            partition_threshold: 64,
            breaker: BreakerConfig::default(),
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
            .field("policy", &self.policy)
            .field("max_dispatch_attempts", &self.max_dispatch_attempts)
            .field("write_shed_headroom", &self.write_shed_headroom)
            .field("partition_threshold", &self.partition_threshold)
            .field("breaker", &self.breaker)
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
    /// thread, so launches dispatched by the broker land in the caller's
    /// trace. Likewise `cfg.chaos` (if set) is installed on the broker
    /// thread, so chaos soaks inject faults into broker-dispatched batches
    /// without touching the rest of the process.
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
        let thread = thread::Builder::new()
            .name("slab-ingress-broker".into())
            .spawn(move || {
                run_broker(table, cfg, rx, depth_for_broker, session, registry_for_broker)
            })
            .expect("spawn ingress broker thread");
        Self {
            tx: Some(tx),
            depth,
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

/// Writes consume slabs; searches only read. The shed and breaker paths key
/// off this split.
fn is_write(op: OpKind) -> bool {
    !matches!(op, OpKind::Search | OpKind::SearchAll)
}

/// Failures the block policy may re-dispatch after a recovery pass.
fn is_retryable(err: TableError) -> bool {
    matches!(
        err,
        TableError::OutOfSlabs(_) | TableError::RetryBudgetExhausted { .. }
    )
}

struct BrokerRun<L: EntryLayout, A: SlabAllocator> {
    table: Arc<SlabHash<L, A>>,
    cfg: BrokerConfig,
    grid: Grid,
    breaker: CircuitBreaker,
    /// Per-state transition counts already billed into metrics and the
    /// trace, diffed against [`CircuitBreaker::transitions`].
    breaker_billed: [u64; 3],
    session: Option<SessionHandle>,
    stats: IngressStats,
    metrics: IngressMetrics,
    batch: BatchBuffer,
    /// Bucket-range → ownership-shard map for the grid this broker
    /// dispatches on (one shard per persistent executor).
    shard_map: ShardMap,
    /// Scratch: per-shard request counts for the in-flight batch.
    shard_depth: Vec<u64>,
    /// Net live elements per shard from broker-completed writes (inserts
    /// minus deletes). Signed: deletes of pre-loaded keys go negative, and
    /// the gauge clamps at zero.
    shard_live: Vec<i64>,
}

fn run_broker<L, A>(
    table: Arc<SlabHash<L, A>>,
    cfg: BrokerConfig,
    rx: mpsc::Receiver<Envelope>,
    depth: Arc<AtomicUsize>,
    session: Option<SessionHandle>,
    registry: Arc<MetricsRegistry>,
) -> IngressStats
where
    L: EntryLayout,
    A: SlabAllocator + Send + Sync + 'static,
{
    // Installed for the broker thread's lifetime: launches dispatched from
    // here inherit the plan, so chaos soaks fault broker batches only.
    let _chaos = cfg.chaos.map(ChaosGuard::plan);
    let grid = cfg.grid.clone().unwrap_or_else(|| {
        Grid::new(thread::available_parallelism().map_or(4, |n| n.get().min(8)))
    });
    let shard_map = table.shard_map(grid.num_threads() as u32);
    let shards = shard_map.num_shards() as usize;
    let mut run = BrokerRun {
        breaker: CircuitBreaker::new(cfg.breaker),
        breaker_billed: [0; 3],
        batch: BatchBuffer::with_capacity(cfg.max_batch.max(1)),
        metrics: IngressMetrics::register(&registry, shards),
        shard_map,
        shard_depth: vec![0; shards],
        shard_live: vec![0; shards],
        table,
        cfg,
        grid,
        session,
        stats: IngressStats::default(),
    };
    let mut envelopes: Vec<Envelope> = Vec::with_capacity(run.cfg.max_batch.max(1));
    run.refresh_gauges(0);

    loop {
        // Block (briefly) for the first envelope; Disconnected means every
        // sender is gone AND the buffer is drained — `sync_channel` delivers
        // buffered messages before reporting disconnect, so no queued
        // request is ever dropped on shutdown.
        match rx.recv_timeout(run.cfg.idle_tick) {
            Ok(env) => {
                depth.fetch_sub(1, Ordering::Relaxed);
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
        while envelopes.len() < run.cfg.max_batch.max(1) {
            match rx.try_recv() {
                Ok(env) => {
                    depth.fetch_sub(1, Ordering::Relaxed);
                    envelopes.push(env);
                }
                Err(_) => break,
            }
        }
        // The coalesced cohort leaves the queue here: one shared timestamp
        // closes every envelope's queue-wait stage.
        let drained_at = Instant::now();
        for env in &mut envelopes {
            env.span.mark_at(Stage::QueueWait, drained_at);
        }
        let backlog = depth.load(Ordering::Relaxed);
        run.stats.submitted += envelopes.len() as u64;
        run.metrics.submitted.add(envelopes.len() as u64);
        run.stats
            .histograms
            .queue_depth
            .record((envelopes.len() + backlog) as u64);
        run.emit("dispatch", (envelopes.len() + backlog) as u32);
        run.process_batch(std::mem::take(&mut envelopes));
        run.refresh_gauges(depth.load(Ordering::Relaxed));
    }
    run.refresh_gauges(0);
    run.stats
}

impl<L: EntryLayout, A: SlabAllocator> BrokerRun<L, A> {
    fn emit(&self, action: &'static str, depth: u32) {
        if let Some(session) = &self.session {
            session.emit(LAUNCH_WARP, EventKind::Ingress { action, depth });
        }
    }

    /// Refreshes the live gauges: queue depth, allocator pressure, executor
    /// pool, breaker state. Called once per broker cycle — gauges are
    /// sampled, not billed, so scrape-time values are at most one idle tick
    /// stale.
    fn refresh_gauges(&self, queued: usize) {
        let m = &self.metrics;
        m.queue_depth.set(queued as u64);
        let alloc = self.table.allocator();
        m.alloc_free.set(alloc.free_slabs());
        m.alloc_allocated.set(alloc.allocated_slabs());
        m.alloc_capacity.set(alloc.capacity_slabs());
        m.alloc_committed.set(alloc.committed_bytes());
        if let Some(pool) = self.grid.pool_stats() {
            m.pool_workers_alive.set(pool.workers_alive as u64);
            m.pool_launches.set(pool.launches);
        }
        m.breaker_state.set(breaker_state_code(self.breaker.state()));
    }

    /// Samples the per-shard routing gauges from the batch about to
    /// dispatch (`active`), or zeroes them once the batch has been
    /// answered. Shards are re-derived from each request's key — the same
    /// arithmetic the sharded launch routes by — so the gauges show exactly
    /// which owners the in-flight batch lands on.
    fn set_shard_queue_gauges(&mut self, active: bool) {
        self.shard_depth.iter_mut().for_each(|d| *d = 0);
        if active {
            for req in self.batch.requests() {
                let shard = self.shard_map.shard_of(self.table.bucket_of(req.key)) as usize;
                self.shard_depth[shard] += 1;
            }
        }
        for (gauge, &depth) in self.metrics.shard_queue_depth.iter().zip(&self.shard_depth) {
            gauge.set(depth);
        }
    }

    /// Publishes per-shard occupancy from the broker's completed-write
    /// ledger (clamped at zero: deletes of keys loaded outside the broker
    /// would otherwise push the net below what this broker inserted).
    fn set_shard_occupancy_gauges(&self) {
        for (gauge, &live) in self.metrics.shard_occupancy.iter().zip(&self.shard_live) {
            gauge.set(live.max(0) as u64);
        }
    }

    /// Runs one maintenance pass and counts it against its trigger.
    fn maintain(&mut self, reason: MaintainReason) {
        self.table.maintain(&self.grid);
        self.metrics.bill_maintenance(reason);
    }

    /// Idle cycles are spent healing: if the allocator is inside the write
    /// shed watermark, run a maintenance pass so capacity recovers while no
    /// traffic is waiting.
    fn idle_housekeeping(&mut self) {
        if self.table.allocator().free_slabs() <= self.cfg.write_shed_headroom {
            self.maintain(MaintainReason::Idle);
        }
    }

    /// Tracks breaker trips and state transitions into counters, metrics,
    /// and trace events after every point where the breaker may have moved.
    fn note_breaker(&mut self) {
        let trips = self.breaker.trips();
        let billed = self.stats.counters.breaker_open;
        if trips > billed {
            self.stats.counters.breaker_open = trips;
            self.metrics.breaker_open.add(trips - billed);
            self.emit("breaker_open", (trips - billed) as u32);
        }
        // Transitions come from the breaker's own counters, not from
        // sampling its state: a half-open probe that fails inside one batch
        // bounces Open -> HalfOpen -> Open between two calls here, and a
        // state sample would never see the half-open leg.
        let seen = self.breaker.transitions();
        for (i, state) in [
            BreakerState::Closed,
            BreakerState::HalfOpen,
            BreakerState::Open,
        ]
        .into_iter()
        .enumerate()
        {
            let delta = seen[i] - self.breaker_billed[i];
            if delta == 0 {
                continue;
            }
            self.breaker_billed[i] = seen[i];
            for _ in 0..delta {
                self.metrics.bill_breaker_transition(state);
            }
            match state {
                BreakerState::HalfOpen => self.emit("breaker_half_open", delta as u32),
                BreakerState::Closed => self.emit("breaker_close", delta as u32),
                // The trip itself was already emitted above as
                // `breaker_open`, depth = new trips.
                BreakerState::Open => {}
            }
        }
    }

    /// Admission, dispatch, bounded retry, and reply routing for one
    /// coalesced batch.
    fn process_batch(&mut self, envelopes: Vec<Envelope>) {
        // --- Admission pass: deadline, breaker, memory-pressure shed. ---
        let now = Instant::now();
        let shed_writes = self.cfg.policy.mode == PressureMode::Shed
            && self.table.allocator().free_slabs() <= self.cfg.write_shed_headroom;
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
            if is_write(env.req.op) {
                if !self.breaker.admit_write(now) {
                    self.stats.counters.shed += 1;
                    self.metrics.shed.inc();
                    let span = env.answer(Err(IngressError::BreakerOpen));
                    self.metrics.bill_span(&span);
                    continue;
                }
                if shed_writes {
                    // Memory-pressure shed is a write failure the breaker
                    // should learn from: sustained pressure trips it open
                    // and stops even the admission work.
                    self.stats.counters.shed += 1;
                    self.metrics.shed.inc();
                    self.breaker.record(now, false);
                    if !healed {
                        self.maintain(MaintainReason::Admission);
                        healed = true;
                    }
                    let span = env.answer(Err(IngressError::ShedWrite));
                    self.metrics.bill_span(&span);
                    continue;
                }
            }
            env.span.mark_at(Stage::Admission, now);
            // Hash once at admission: the sharded launch reuses this bucket
            // for routing instead of re-partitioning the whole batch.
            let bucket = self.table.bucket_of(env.req.key);
            self.batch.push_with_bucket(env.req.clone(), bucket);
            pending.push(env);
        }
        self.note_breaker();

        // --- Dispatch + bounded retry. ---
        let mut attempt = 0u32;
        while !pending.is_empty() {
            self.set_shard_queue_gauges(true);
            // Two shared timestamps bracket the launch: dispatch (batch
            // assembly + scheduling since admission) ends where execute
            // begins. Retry rounds re-mark both, so marks stay monotone and
            // a retried request's stages absorb every round it lived
            // through.
            let exec_start = Instant::now();
            for env in &mut pending {
                env.span.mark_at(Stage::Dispatch, exec_start);
            }
            let report = if self.batch.len() >= self.cfg.partition_threshold {
                self.table.execute_buffer_partitioned(&mut self.batch, &self.grid)
            } else {
                self.table.execute_buffer(&mut self.batch, &self.grid)
            };
            let exec_end = Instant::now();
            for env in &mut pending {
                env.span.mark_at(Stage::Execute, exec_end);
            }
            self.stats.batches += 1;
            self.metrics.batches.inc();
            self.stats.counters.merge(&report.counters);
            self.stats.histograms.merge(&report.histograms);
            self.metrics.bill_batch(&report.counters);

            let now = exec_end;
            let mut retry: Vec<(Envelope, TableError)> = Vec::new();
            for (req, env) in self.batch.requests().iter().zip(pending.drain(..)) {
                let write = is_write(req.op);
                match req.result {
                    OpResult::Failed(err) if is_retryable(err) => {
                        let may_retry = self.cfg.policy.mode == PressureMode::Block
                            && attempt + 1 < self.cfg.max_dispatch_attempts
                            && now < env.deadline;
                        if may_retry {
                            // Breaker verdict waits for the final
                            // disposition; a retry is not yet a failure.
                            retry.push((env, err));
                        } else if now >= env.deadline {
                            if write {
                                self.breaker.record(now, false);
                            }
                            self.stats.counters.timed_out += 1;
                            self.metrics.timed_out.inc();
                            let budget = env.budget();
                            let span =
                                env.answer(Err(IngressError::DeadlineExceeded { budget }));
                            self.metrics.bill_span(&span);
                        } else {
                            if write {
                                self.breaker.record(now, false);
                            }
                            // Heal once so the *next* batch finds capacity,
                            // mirroring the shed policy's contract. (Inlined
                            // rather than via `Self::maintain`: the
                            // enclosing loop holds a borrow of
                            // `self.batch`.)
                            if !healed {
                                self.table.maintain(&self.grid);
                                self.metrics.bill_maintenance(MaintainReason::Dispatch);
                                healed = true;
                            }
                            let span = env.answer(Err(IngressError::Table(err)));
                            self.metrics.bill_span(&span);
                        }
                    }
                    OpResult::Failed(err) => {
                        if write {
                            self.breaker.record(now, false);
                        }
                        let span = env.answer(Err(IngressError::Table(err)));
                        self.metrics.bill_span(&span);
                    }
                    ref result => {
                        if write {
                            self.breaker.record(now, true);
                            // Completed writes feed the per-shard occupancy
                            // ledger: inserts add, deletes subtract,
                            // replaces are net zero.
                            let delta = match *result {
                                OpResult::Inserted => 1,
                                OpResult::Deleted(_) => -1,
                                OpResult::DeletedCount(n) => -i64::from(n),
                                _ => 0,
                            };
                            if delta != 0 {
                                let shard = self
                                    .shard_map
                                    .shard_of(self.table.bucket_of(req.key))
                                    as usize;
                                self.shard_live[shard] += delta;
                            }
                        }
                        self.stats.completed += 1;
                        self.metrics.completed.inc();
                        let span = env.answer(Ok(result.clone()));
                        self.metrics.bill_span(&span);
                    }
                }
            }
            self.note_breaker();
            if retry.is_empty() {
                break;
            }

            // One recovery pass (compact/reclaim/grow + jittered backoff,
            // per the policy) covers the whole retry cohort.
            let first_err = retry[0].1;
            let heal_again =
                self.table
                    .recover(first_err, &self.cfg.policy, &self.grid, attempt);
            if !heal_again {
                for (env, err) in retry {
                    if is_write(env.req.op) {
                        self.breaker.record(now, false);
                    }
                    let span = env.answer(Err(IngressError::Table(err)));
                    self.metrics.bill_span(&span);
                }
                self.note_breaker();
                break;
            }
            self.metrics.bill_maintenance(MaintainReason::Recover);
            self.stats.retried += retry.len() as u64;
            self.metrics.retried.add(retry.len() as u64);
            self.emit("retry", retry.len() as u32);
            self.batch.clear();
            for (env, _) in retry {
                let mut req = env.req.clone();
                req.reset();
                // Re-admit with the bucket recomputed so the retry round's
                // routing cache is coherent with the shrunken cohort.
                let bucket = self.table.bucket_of(req.key);
                self.batch.push_with_bucket(req, bucket);
                pending.push(env);
            }
            attempt += 1;
        }
        self.set_shard_queue_gauges(false);
        self.set_shard_occupancy_gauges();
    }
}
