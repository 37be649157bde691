//! Kernel launching: scheduling simulated warps over CPU threads.
//!
//! A GPU kernel launch creates `ceil(n / 32)` warps that the hardware
//! scheduler multiplexes over its streaming multiprocessors. We reproduce the
//! structure directly: work items (one per simulated GPU thread) are split
//! into warp-sized chunks and a pool of OS threads drains them by bumping a
//! shared atomic claim counter, one run of warps per bump (see
//! [`CLAIMS_PER_EXECUTOR`]). Warps that run on different OS threads
//! execute *genuinely concurrently*, so every inter-warp race in the paper's
//! lock-free algorithms (CAS retries, allocate-then-link races,
//! delete/search interleavings) is exercised for real, not emulated.
//!
//! Executor threads are persistent (see the crate's `pool` module): a
//! launch wakes the grid's parked workers instead of spawning fresh OS
//! threads, mirroring how a GPU's SMs are always powered and merely fed new
//! blocks. Concurrent launches on one shared grid, and nested launches from
//! inside a kernel, find the pool busy and fall back to scoped spawning for
//! that launch.

use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use telemetry::{EventKind, Histograms, SessionHandle, WarpTracer, LAUNCH_WARP};

use crate::counters::PerfCounters;
use crate::pool::{ChunkDispenser, Pool};
use crate::warp::WARP_SIZE;

/// Claims each executor makes, at most, to drain one launch.
///
/// An executor claims a run of `max(1, warps / (executors * 64))`
/// consecutive warp ids with one `fetch_add`, so a launch of up to
/// `executors * 64` warps is claimed one warp at a time, while a
/// whole-table launch (FLUSH's one warp per bucket, tens of thousands of
/// warps) pays about 64 claims per executor instead of one contended
/// atomic per warp. 64 keeps the load imbalance at the end of a launch
/// under 1/64 of an executor's share. On a 2-thread grid, an empty
/// 43,418-warp launch took 2.9–4.3 ms with per-warp claims and
/// 0.11–0.12 ms with runs (DESIGN.md §11).
pub const CLAIMS_PER_EXECUTOR: usize = 64;

/// Warps one claim takes when `executors` drain `num_warps` warps.
fn claim_run(num_warps: usize, executors: usize) -> usize {
    (num_warps / (executors * CLAIMS_PER_EXECUTOR)).max(1)
}

/// Lists a kernel reuses across the warps an executor runs, in place of a
/// fresh allocation per warp (FLUSH gathers a bucket's live pairs and
/// chain pointers here).
///
/// Each executor thread keeps one across launches: a launch lends it to
/// the executor's [`WarpCtx`] and takes it back when the executor
/// finishes. A thread's scratch starts with room for a 16-slab bucket,
/// and pool workers create theirs as they start, so a kernel whose lists
/// stay within that room allocates nothing on a pool worker; a launching
/// thread allocates its scratch in its first launch, and a scoped
/// fallback thread in the one launch it serves.
#[derive(Debug, Default)]
pub struct WarpScratch {
    /// Key-value pairs, at most one per lane of a slab.
    pub pairs: Vec<(u32, u32)>,
    /// Words, at least one per slab (FLUSH: slab pointers).
    pub words: Vec<u32>,
}

/// Slabs a thread's fresh [`WarpScratch`] holds without growing: a
/// FLUSH bucket of up to 16 slabs, several times a chain at a table's
/// target load.
const SCRATCH_SLABS: usize = 16;

thread_local! {
    /// This thread's executor scratch, while no launch has it on loan.
    static EXECUTOR_SCRATCH: Cell<WarpScratch> = Cell::new(WarpScratch {
        pairs: Vec::with_capacity(SCRATCH_SLABS * WARP_SIZE),
        words: Vec::with_capacity(SCRATCH_SLABS * WARP_SIZE),
    });
}

impl WarpScratch {
    /// Creates the calling thread's executor scratch now rather than in
    /// its first launch; pool workers call it as they start.
    pub(crate) fn prepare_thread() {
        EXECUTOR_SCRATCH.with(|_| {});
    }

    /// Takes the calling thread's scratch for one executor invocation.
    fn lend() -> Self {
        EXECUTOR_SCRATCH.take()
    }

    /// Returns a scratch lent by [`lend`](Self::lend) to its thread.
    fn give_back(self) {
        EXECUTOR_SCRATCH.set(self);
    }
}

/// Per-warp execution context handed to kernels.
///
/// The context is exclusive to one warp for the duration of its execution, so
/// counter updates are plain (non-atomic) increments and histogram/trace
/// recording touches only private storage; blocks are merged (and trace rings
/// flushed) when the launch completes.
pub struct WarpCtx {
    /// Global warp id within the launch (the paper's allocator hashes this to
    /// pick resident memory blocks).
    pub warp_id: usize,
    /// Performance counters for this warp.
    pub counters: PerfCounters,
    /// Work-distribution histograms for this warp.
    pub histograms: Histograms,
    /// Trace recorder, present when the launching thread had an active
    /// [`telemetry::TraceSession`].
    pub tracer: Option<WarpTracer>,
    /// The executor's reusable lists (see [`WarpScratch`]). Empty in a
    /// context made by [`WarpCtx::for_test`].
    pub scratch: WarpScratch,
    /// `counters.ops` when the current warp chunk began (for the
    /// `warp_end` event's ops delta).
    ops_at_warp_begin: u64,
}

impl WarpCtx {
    /// Creates a context for unit tests and single-warp drivers. Picks up
    /// the calling thread's active trace session, if any.
    pub fn for_test(warp_id: usize) -> Self {
        Self::fresh(warp_id)
    }

    /// A fresh context bound to the calling thread's trace session.
    fn fresh(warp_id: usize) -> Self {
        Self::bound(warp_id, telemetry::current_session().as_ref())
    }

    /// A fresh context recording into `session` (captured once per launch on
    /// the launching thread, then shared with every executor).
    fn bound(warp_id: usize, session: Option<&SessionHandle>) -> Self {
        Self {
            warp_id,
            counters: PerfCounters::default(),
            histograms: Histograms::default(),
            tracer: session.map(SessionHandle::tracer),
            scratch: WarpScratch::default(),
            ops_at_warp_begin: 0,
        }
    }

    /// Records a trace event attributed to this warp. A no-op without an
    /// active trace session, so instrumented hot paths stay cheap.
    #[inline]
    pub fn trace(&mut self, kind: EventKind) {
        if let Some(t) = self.tracer.as_mut() {
            t.record(self.warp_id as u32, kind);
        }
    }

    /// Marks the start of one warp chunk (`warp_begin` event).
    fn begin_warp(&mut self) {
        self.ops_at_warp_begin = self.counters.ops;
        self.trace(EventKind::WarpBegin);
    }

    /// Marks the end of one warp chunk (`warp_end` event with the chunk's
    /// completed-op count).
    fn end_warp(&mut self) {
        let ops = (self.counters.ops - self.ops_at_warp_begin) as u32;
        self.trace(EventKind::WarpEnd { ops });
    }
}

/// Result of a kernel launch: merged counters plus host-side wall time of the
/// simulation (reported alongside, never mixed with, model-estimated time).
#[derive(Debug, Clone, Copy)]
pub struct LaunchReport {
    /// Counters merged across all warps.
    pub counters: PerfCounters,
    /// Work-distribution histograms merged across all warps.
    pub histograms: Histograms,
    /// Wall-clock time the simulation took on the CPU.
    pub wall: Duration,
    /// Number of warps executed.
    pub warps: usize,
}

impl LaunchReport {
    /// Host-side throughput in operations per second (simulation speed, *not*
    /// the modeled GPU speed).
    pub fn cpu_ops_per_sec(&self) -> f64 {
        if self.wall.as_secs_f64() == 0.0 {
            0.0
        } else {
            self.counters.ops as f64 / self.wall.as_secs_f64()
        }
    }
}

/// A contained warp panic from [`Grid::try_launch`] /
/// [`Grid::try_launch_warps`].
///
/// Exactly one panicking warp is reported (the first observed); the
/// scheduler's poison flag keeps remaining warps from *starting* after the
/// panic, while warps already in flight drain normally and are counted in
/// [`completed_warps`](Self::completed_warps).
pub struct LaunchError {
    /// Warp id of the (first) panicking warp.
    pub warp_id: usize,
    /// The panic payload, as `std::thread::JoinHandle::join` would return
    /// it.
    pub payload: Box<dyn Any + Send + 'static>,
    /// Warps that ran to completion before the launch was abandoned.
    pub completed_warps: usize,
}

impl LaunchError {
    /// The panic message, when the payload was a string (the common case).
    pub fn message(&self) -> Option<&str> {
        if let Some(s) = self.payload.downcast_ref::<&'static str>() {
            Some(s)
        } else {
            self.payload.downcast_ref::<String>().map(String::as_str)
        }
    }

    /// Re-raises the contained panic on the calling thread.
    pub fn resume_unwind(self) -> ! {
        std::panic::resume_unwind(self.payload)
    }
}

impl std::fmt::Debug for LaunchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LaunchError")
            .field("warp_id", &self.warp_id)
            .field("completed_warps", &self.completed_warps)
            .field("message", &self.message().unwrap_or("<non-string panic payload>"))
            .finish()
    }
}

impl std::fmt::Display for LaunchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "warp {} panicked ({}); {} warps completed",
            self.warp_id,
            self.message().unwrap_or("non-string panic payload"),
            self.completed_warps
        )
    }
}

/// The warp scheduler: a fixed-width pool of OS threads standing in for the
/// GPU's SMs.
///
/// Clones share the same executor pool, so passing a grid by clone is cheap
/// and keeps one set of worker threads per logical scheduler.
#[derive(Clone)]
pub struct Grid {
    num_threads: usize,
    pool: Arc<OnceLock<Pool>>,
}

impl std::fmt::Debug for Grid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Grid")
            .field("num_threads", &self.num_threads)
            .field("pool_started", &self.pool.get().is_some())
            .finish()
    }
}

impl Default for Grid {
    fn default() -> Self {
        // `available_parallelism` is a syscall on most platforms; benches
        // and tests construct grids freely, so query it once per process.
        static PARALLELISM: OnceLock<usize> = OnceLock::new();
        Self::new(*PARALLELISM.get_or_init(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        }))
    }
}

impl Grid {
    /// A scheduler with `num_threads` concurrent warp executors (clamped to
    /// at least one): the launching thread plus `num_threads - 1` persistent
    /// pool workers, spawned lazily on the first parallel launch.
    pub fn new(num_threads: usize) -> Self {
        Self {
            num_threads: num_threads.max(1),
            pool: Arc::new(OnceLock::new()),
        }
    }

    /// A single-threaded scheduler: warps run one after another in warp-id
    /// order. Deterministic — used by tests that need reproducible
    /// interleavings-free behaviour. Never spawns worker threads.
    pub fn sequential() -> Self {
        Self::new(1)
    }

    /// Number of OS threads used for warp execution.
    pub fn num_threads(&self) -> usize {
        self.num_threads
    }

    /// Live executor-pool statistics, for the metrics plane. `None` until
    /// the grid's first parallel launch (the pool spawns lazily).
    pub fn pool_stats(&self) -> Option<crate::pool::PoolStats> {
        self.pool.get().map(Pool::stats)
    }

    /// Fault-injection hook for robustness tests: makes up to `n` of the
    /// grid's pool workers exit as if they had died (starting the pool if it
    /// has not launched yet), blocks until they are gone, and returns the
    /// number of workers still alive. Subsequent launches must keep
    /// completing on the survivors — launcher-only in the limit — instead of
    /// hanging the completion barrier.
    #[doc(hidden)]
    pub fn debug_kill_pool_workers(&self, n: usize) -> usize {
        self.pool
            .get_or_init(|| Pool::new(self.num_threads - 1))
            .kill_workers(n)
    }

    /// Launches a kernel over `items`, one item per simulated GPU thread.
    ///
    /// `kernel` is invoked once per warp with the warp's up-to-32 work items;
    /// the final (partial) warp simply has fewer. This mirrors CUDA's
    /// `if (tid < n)` guard: inactive lanes exist but carry no work.
    ///
    /// A panicking warp is re-raised on the calling thread (after in-flight
    /// warps drain); use [`Grid::try_launch`] to contain it instead.
    pub fn launch<T, F>(&self, items: &mut [T], kernel: F) -> LaunchReport
    where
        T: Send,
        F: Fn(&mut WarpCtx, &mut [T]) + Sync,
    {
        match self.try_launch(items, kernel) {
            Ok(report) => report,
            Err(e) => e.resume_unwind(),
        }
    }

    /// Like [`Grid::launch`], but contains warp panics: the first panicking
    /// warp poisons the launch (queued warps stop being picked up, in-flight
    /// warps drain) and is returned as a structured [`LaunchError`] instead
    /// of unwinding through the scheduler.
    ///
    /// # Errors
    /// Returns the first warp panic observed.
    pub fn try_launch<T, F>(&self, items: &mut [T], kernel: F) -> Result<LaunchReport, LaunchError>
    where
        T: Send,
        F: Fn(&mut WarpCtx, &mut [T]) + Sync,
    {
        let dispenser = ChunkDispenser::new(items, WARP_SIZE);
        let warps = dispenser.num_chunks();
        let run = claim_run(warps, self.executors(warps));
        let containment = Containment::default();
        let session = telemetry::current_session();
        if let Some(s) = &session {
            s.emit(LAUNCH_WARP, EventKind::LaunchBegin { warps: warps as u32 });
        }
        // The wall clock starts after launch setup (chunk arithmetic,
        // session lookup) so `LaunchReport::wall` measures kernel
        // execution, not host bookkeeping.
        let start = Instant::now();
        let (counters, histograms) = self.run_warps(warps, session.as_ref(), |warp_ctx| {
            let mut completed = 0;
            'claims: while let Some(chunks) = dispenser.claim(run) {
                for (warp_id, chunk) in chunks {
                    if !containment.run_warp(warp_ctx, warp_id, |ctx| kernel(ctx, chunk)) {
                        break 'claims;
                    }
                    completed += 1;
                }
            }
            containment.count_completed(completed);
        });
        let wall = start.elapsed();
        if let Some(s) = &session {
            s.emit(LAUNCH_WARP, EventKind::LaunchEnd { warps: warps as u32 });
        }
        containment.into_result(LaunchReport {
            counters,
            histograms,
            wall,
            warps,
        })
    }

    /// Launches a kernel of `num_warps` warps with no attached work items;
    /// each warp receives its warp id through the context. Used by
    /// whole-bucket kernels such as FLUSH and by allocator stress tests.
    ///
    /// A panicking warp is re-raised on the calling thread (after in-flight
    /// warps drain); use [`Grid::try_launch_warps`] to contain it instead.
    pub fn launch_warps<F>(&self, num_warps: usize, kernel: F) -> LaunchReport
    where
        F: Fn(&mut WarpCtx) + Sync,
    {
        match self.try_launch_warps(num_warps, kernel) {
            Ok(report) => report,
            Err(e) => e.resume_unwind(),
        }
    }

    /// Like [`Grid::launch_warps`], but contains warp panics (see
    /// [`Grid::try_launch`]).
    ///
    /// # Errors
    /// Returns the first warp panic observed.
    pub fn try_launch_warps<F>(&self, num_warps: usize, kernel: F) -> Result<LaunchReport, LaunchError>
    where
        F: Fn(&mut WarpCtx) + Sync,
    {
        let next_warp = AtomicUsize::new(0);
        let run = claim_run(num_warps, self.executors(num_warps));
        let containment = Containment::default();
        let session = telemetry::current_session();
        if let Some(s) = &session {
            s.emit(
                LAUNCH_WARP,
                EventKind::LaunchBegin {
                    warps: num_warps as u32,
                },
            );
        }
        // As in `try_launch`: time the kernel, not the setup.
        let start = Instant::now();
        let (counters, histograms) = self.run_warps(num_warps, session.as_ref(), |warp_ctx| {
            let mut completed = 0;
            'claims: loop {
                let first = next_warp.fetch_add(run, Ordering::Relaxed);
                if first >= num_warps {
                    break;
                }
                for warp_id in first..num_warps.min(first + run) {
                    if !containment.run_warp(warp_ctx, warp_id, &kernel) {
                        break 'claims;
                    }
                    completed += 1;
                }
            }
            containment.count_completed(completed);
        });
        let wall = start.elapsed();
        if let Some(s) = &session {
            s.emit(
                LAUNCH_WARP,
                EventKind::LaunchEnd {
                    warps: num_warps as u32,
                },
            );
        }
        containment.into_result(LaunchReport {
            counters,
            histograms,
            wall,
            warps: num_warps,
        })
    }

    /// Executors a launch of `warps` warps wakes: never more than there are
    /// warps to run.
    fn executors(&self, warps: usize) -> usize {
        self.num_threads.min(warps.max(1))
    }

    /// Runs `body` on each executor with a fresh warp context and merges
    /// the resulting counter and histogram blocks. Bodies must not unwind
    /// (the `try_` launch entry points catch per-warp panics before they
    /// reach here).
    ///
    /// `session` is the launching thread's trace session, captured once by
    /// the caller; executors record into private rings bound to it.
    fn run_warps<B>(
        &self,
        expected_warps: usize,
        session: Option<&SessionHandle>,
        body: B,
    ) -> (PerfCounters, Histograms)
    where
        B: Fn(&mut WarpCtx) + Sync,
    {
        let executors = self.executors(expected_warps);
        if executors == 1 {
            let mut ctx = WarpCtx::bound(0, session);
            ctx.scratch = WarpScratch::lend();
            body(&mut ctx);
            std::mem::take(&mut ctx.scratch).give_back();
            // `ctx` drops after the return value is built, flushing its
            // trace ring to the session sink before the launch returns.
            return (ctx.counters, ctx.histograms);
        }
        let merged = parking_lot::Mutex::new((PerfCounters::default(), Histograms::default()));
        // Failure injection is enrolled per thread; executors inherit the
        // launching thread's enrollment — its guard's failure levels and
        // seed — so faults reach exactly the kernels launched under a
        // ChaosGuard, at that guard's rates (never a sibling test's). The
        // enrollment guard drops at the end of each invocation, so pooled
        // workers shed it before the next launch. Trace sessions are
        // likewise captured per launch from the launching thread.
        let enrollment = crate::chaos::thread_enrollment();
        let executor = || {
            let _enroll = crate::chaos::participate_in(enrollment);
            let mut ctx = WarpCtx::bound(usize::MAX, session);
            ctx.scratch = WarpScratch::lend();
            body(&mut ctx);
            std::mem::take(&mut ctx.scratch).give_back();
            let mut blocks = merged.lock();
            blocks.0.merge(&ctx.counters);
            blocks.1.merge(&ctx.histograms);
            // `ctx` drops here, flushing its trace ring before the pool
            // counts this executor as done.
        };
        let pool = self.pool.get_or_init(|| Pool::new(self.num_threads - 1));
        // The launching thread is one executor; the pool wakes the rest.
        // `try_run` declines when another launch holds the pool (shared
        // grid, or a kernel launching on its own grid) — fall through to
        // scoped spawning for just that launch.
        if !pool.try_run(executors - 1, &executor) {
            std::thread::scope(|scope| {
                for _ in 0..executors {
                    scope.spawn(executor);
                }
            });
        }
        merged.into_inner()
    }
}

/// Shared panic-containment state for one `try_` launch: the poison flag,
/// the completed-warp count, and the first captured panic.
///
/// Executors read `poisoned` before every warp but write `completed` only
/// once, when they finish, so the flag's cache line stays shared while
/// warps run.
#[derive(Default)]
struct Containment {
    poisoned: AtomicBool,
    completed: AtomicUsize,
    failure: parking_lot::Mutex<Option<(usize, Box<dyn Any + Send + 'static>)>>,
}

impl Containment {
    /// Runs warp `warp_id` on `ctx`, catching a panic. Returns `false`
    /// when the executor should stop: the launch was already poisoned, so
    /// the warp did not start, or this warp panicked. The warp counts as
    /// completed exactly when this returns `true`.
    fn run_warp(
        &self,
        ctx: &mut WarpCtx,
        warp_id: usize,
        kernel: impl FnOnce(&mut WarpCtx),
    ) -> bool {
        if self.poisoned.load(Ordering::Acquire) {
            return false;
        }
        ctx.warp_id = warp_id;
        ctx.begin_warp();
        let outcome = catch_unwind(AssertUnwindSafe(|| kernel(ctx)));
        ctx.end_warp();
        match outcome {
            Ok(()) => true,
            Err(payload) => {
                self.poisoned.store(true, Ordering::Release);
                let mut slot = self.failure.lock();
                if slot.is_none() {
                    *slot = Some((warp_id, payload));
                }
                false
            }
        }
    }

    /// Adds one executor invocation's completed warps to the launch total.
    fn count_completed(&self, warps: usize) {
        self.completed.fetch_add(warps, Ordering::Relaxed);
    }

    /// Converts the containment outcome into the launch result.
    fn into_result(self, report: LaunchReport) -> Result<LaunchReport, LaunchError> {
        match self.failure.into_inner() {
            None => Ok(report),
            Some((warp_id, payload)) => Err(LaunchError {
                warp_id,
                payload,
                completed_warps: self.completed.into_inner(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn launch_visits_every_item_exactly_once() {
        let grid = Grid::new(4);
        let mut items = vec![0u32; 1000];
        let report = grid.launch(&mut items, |ctx, chunk| {
            for item in chunk.iter_mut() {
                *item += 1;
                ctx.counters.ops += 1;
            }
        });
        assert!(items.iter().all(|&v| v == 1));
        assert_eq!(report.counters.ops, 1000);
        assert_eq!(report.warps, 1000_usize.div_ceil(WARP_SIZE));
    }

    #[test]
    fn partial_final_warp_gets_remainder() {
        let grid = Grid::sequential();
        let mut items = vec![0u8; 70]; // 2 full warps + 6 lanes
        let sizes = parking_lot::Mutex::new(vec![]);
        grid.launch(&mut items, |_, chunk| sizes.lock().push(chunk.len()));
        let mut sizes = sizes.into_inner();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![6, 32, 32]);
    }

    #[test]
    fn warp_ids_are_unique_and_dense() {
        let grid = Grid::new(8);
        let seen = (0..64).map(|_| AtomicU64::new(0)).collect::<Vec<_>>();
        let mut items = vec![(); 64 * WARP_SIZE];
        grid.launch(&mut items, |ctx, _| {
            seen[ctx.warp_id].fetch_add(1, Ordering::Relaxed);
        });
        assert!(seen.iter().all(|s| s.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn launch_warps_runs_each_warp_once() {
        let grid = Grid::new(3);
        let hits = AtomicU64::new(0);
        let report = grid.launch_warps(100, |ctx| {
            assert!(ctx.warp_id < 100);
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 100);
        assert_eq!(report.warps, 100);
    }

    #[test]
    fn counters_are_merged_across_threads() {
        let grid = Grid::new(4);
        let report = grid.launch_warps(257, |ctx| {
            ctx.counters.slab_reads += 2;
            ctx.counters.ops += 1;
        });
        assert_eq!(report.counters.slab_reads, 514);
        assert_eq!(report.counters.ops, 257);
    }

    #[test]
    fn try_launch_contains_warp_panic() {
        let grid = Grid::new(4);
        let mut items = vec![0u32; 40 * WARP_SIZE];
        let err = grid
            .try_launch(&mut items, |ctx, chunk| {
                if ctx.warp_id == 7 {
                    panic!("lane fault in warp 7");
                }
                for item in chunk.iter_mut() {
                    *item = 1;
                }
            })
            .expect_err("warp 7 must fail the launch");
        assert_eq!(err.warp_id, 7);
        assert_eq!(err.message(), Some("lane fault in warp 7"));
        assert!(err.completed_warps < 40, "poison must stop queued warps");
        // The process is alive and the grid reusable after containment.
        let report = grid.try_launch(&mut items, |_, _| {}).unwrap();
        assert_eq!(report.warps, 40);
    }

    #[test]
    fn try_launch_warps_reports_first_failure_and_drains() {
        let grid = Grid::new(2);
        let err = Grid::try_launch_warps(&grid, 64, |ctx| {
            if ctx.warp_id >= 3 {
                panic!("warp {} down", ctx.warp_id);
            }
        })
        .expect_err("must fail");
        assert!(err.warp_id >= 3);
        assert!(err.message().unwrap().starts_with("warp "));
        assert!(err.completed_warps <= 64);
    }

    #[test]
    fn try_launch_ok_matches_launch() {
        let grid = Grid::new(4);
        let mut items = vec![0u32; 100];
        let report = grid
            .try_launch(&mut items, |ctx, chunk| {
                ctx.counters.ops += chunk.len() as u64;
            })
            .unwrap();
        assert_eq!(report.counters.ops, 100);
        assert_eq!(report.warps, 100_usize.div_ceil(WARP_SIZE));
    }

    #[test]
    fn launch_resumes_contained_panic() {
        let grid = Grid::sequential();
        let mut items = vec![0u32; 1];
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            grid.launch(&mut items, |_, _| panic!("boom"));
        }));
        let payload = caught.expect_err("panic must propagate through launch");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom"));
    }

    #[test]
    fn empty_launch_is_fine() {
        let grid = Grid::default();
        let mut items: Vec<u32> = vec![];
        let report = grid.launch(&mut items, |_, _| panic!("no warps expected"));
        assert_eq!(report.warps, 0);
        assert_eq!(report.counters, PerfCounters::default());
    }

    #[test]
    fn pooled_grid_reuses_workers_across_many_launches() {
        let grid = Grid::new(4);
        for round in 0..100u64 {
            let report = grid.launch_warps(16, |ctx| ctx.counters.ops += round + 1);
            assert_eq!(report.counters.ops, 16 * (round + 1));
            assert_eq!(report.warps, 16);
        }
    }

    #[test]
    fn cloned_grids_share_one_pool() {
        let grid = Grid::new(4);
        grid.launch_warps(8, |ctx| ctx.counters.ops += 1);
        let clone = grid.clone();
        assert!(Arc::ptr_eq(&grid.pool, &clone.pool));
        let report = clone.launch_warps(8, |ctx| ctx.counters.ops += 1);
        assert_eq!(report.counters.ops, 8);
    }

    #[test]
    fn nested_launch_on_same_grid_falls_back_without_deadlock() {
        let grid = Grid::new(4);
        let inner_ops = AtomicU64::new(0);
        let report = grid.launch_warps(4, |ctx| {
            ctx.counters.ops += 1;
            // Re-entering the grid from inside a kernel must not deadlock
            // on the pool; the inner launch takes the scoped fallback.
            let inner = grid.launch_warps(2, |ictx| ictx.counters.ops += 1);
            inner_ops.fetch_add(inner.counters.ops, Ordering::Relaxed);
        });
        assert_eq!(report.counters.ops, 4);
        assert_eq!(inner_ops.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn concurrent_launches_on_shared_grid_all_complete() {
        let grid = Grid::new(4);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..20 {
                        let report = grid.launch_warps(8, |ctx| ctx.counters.ops += 1);
                        assert_eq!(report.counters.ops, 8);
                    }
                });
            }
        });
    }

    #[test]
    fn small_launches_claim_one_warp_at_a_time() {
        for executors in 1..=3 {
            let small = executors * CLAIMS_PER_EXECUTOR;
            assert_eq!(claim_run(1, executors), 1);
            assert_eq!(claim_run(small - 1, executors), 1);
            assert_eq!(claim_run(small, executors), 1);
            assert_eq!(claim_run(2 * small, executors), 2);
        }
        // One warp per bucket of a 43,418-bucket table on a 2-thread grid.
        assert_eq!(claim_run(43_418, 2), 339);
    }

    /// Warp counts on both sides of one-warp claims and of run boundaries.
    const RUN_CLAIM_WARPS: [usize; 5] = [1, 127, 128, 8_193, 100_003];

    #[test]
    fn run_claims_run_every_warp_exactly_once() {
        for threads in 1..=3 {
            let grid = Grid::new(threads);
            for warps in RUN_CLAIM_WARPS {
                let hits: Vec<AtomicU64> = (0..warps).map(|_| AtomicU64::new(0)).collect();
                let report = grid.launch_warps(warps, |ctx| {
                    hits[ctx.warp_id].fetch_add(1, Ordering::Relaxed);
                    ctx.counters.ops += 1;
                });
                assert_eq!(report.warps, warps, "{threads} threads");
                assert_eq!(report.counters.ops, warps as u64, "{threads} threads");
                assert!(
                    hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                    "{threads} threads, {warps} warps: a warp ran twice or never"
                );
            }
        }
    }

    #[test]
    fn chunked_run_claims_hand_each_chunk_to_its_warp_once() {
        for threads in 1..=3 {
            let grid = Grid::new(threads);
            for warps in RUN_CLAIM_WARPS {
                // The last warp is partial: three lanes short.
                let mut items = vec![0u8; warps * WARP_SIZE - 3];
                let report = grid.launch(&mut items, |ctx, chunk| {
                    let expected = if ctx.warp_id + 1 == warps {
                        WARP_SIZE - 3
                    } else {
                        WARP_SIZE
                    };
                    assert_eq!(chunk.len(), expected, "warp {}", ctx.warp_id);
                    for item in chunk.iter_mut() {
                        *item += 1;
                    }
                    ctx.counters.ops += 1;
                });
                assert_eq!(report.warps, warps, "{threads} threads");
                assert_eq!(report.counters.ops, warps as u64, "{threads} threads");
                assert!(
                    items.iter().all(|&v| v == 1),
                    "{threads} threads, {warps} warps: an item was visited twice or never"
                );
            }
        }
    }

    #[test]
    fn sequential_run_claims_keep_warp_id_order() {
        let grid = Grid::sequential();
        for warps in RUN_CLAIM_WARPS {
            let order = parking_lot::Mutex::new(Vec::with_capacity(warps));
            grid.launch_warps(warps, |ctx| order.lock().push(ctx.warp_id));
            assert!(order.into_inner().into_iter().eq(0..warps));
            let mut items = vec![(); warps * WARP_SIZE];
            let order = parking_lot::Mutex::new(Vec::with_capacity(warps));
            grid.launch(&mut items, |ctx, _| order.lock().push(ctx.warp_id));
            assert!(order.into_inner().into_iter().eq(0..warps));
        }
    }

    #[test]
    fn a_poisoned_launch_starts_no_further_warp_on_any_executor() {
        // Every executor of a launch checks the one `Containment` before
        // each warp, so a warp claimed after the poison never starts,
        // whichever executor claimed it.
        let containment = Containment::default();
        let (mut a, mut b) = (WarpCtx::for_test(0), WarpCtx::for_test(0));
        assert!(containment.run_warp(&mut a, 0, |_| {}));
        assert!(!containment.run_warp(&mut a, 1, |_| panic!("warp 1 down")));
        let mut started = false;
        assert!(!containment.run_warp(&mut b, 2, |_| started = true));
        assert!(!started, "a warp started on a poisoned launch");
        containment.count_completed(1);
        let report = LaunchReport {
            counters: PerfCounters::default(),
            histograms: Histograms::default(),
            wall: Duration::ZERO,
            warps: 3,
        };
        let err = containment.into_result(report).expect_err("warp 1 panicked");
        assert_eq!((err.warp_id, err.completed_warps), (1, 1));
    }

    #[test]
    fn sequential_mid_run_panic_stops_at_the_faulting_warp() {
        // 8,193 warps on one executor claim runs of 128; warp 300 sits in
        // the middle of the third run.
        let grid = Grid::sequential();
        let started = AtomicU64::new(0);
        let err = grid
            .try_launch_warps(8_193, |ctx| {
                started.fetch_add(1, Ordering::Relaxed);
                if ctx.warp_id == 300 {
                    panic!("warp 300 down");
                }
            })
            .expect_err("warp 300 must fail the launch");
        assert_eq!(err.warp_id, 300);
        assert_eq!(err.completed_warps, 300);
        assert_eq!(
            started.load(Ordering::Relaxed),
            301,
            "a warp started after the poison"
        );
    }

    #[test]
    fn pooled_grid_contains_panics_and_stays_usable() {
        let grid = Grid::new(4);
        for _ in 0..5 {
            let err = grid
                .try_launch_warps(32, |ctx| {
                    if ctx.warp_id == 3 {
                        panic!("warp 3 down");
                    }
                })
                .expect_err("warp 3 must fail the launch");
            assert_eq!(err.warp_id, 3);
            let report = grid.launch_warps(32, |ctx| ctx.counters.ops += 1);
            assert_eq!(report.counters.ops, 32);
        }
    }
}
