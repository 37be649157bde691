//! Persistent executor pool.
//!
//! A GPU never pays thread-creation cost per kernel launch: the SMs are
//! always there, and the hardware scheduler just feeds them blocks. The
//! original [`Grid`](crate::grid::Grid) implementation spawned and joined a
//! fresh set of scoped OS threads for *every* launch, which dominated the
//! host-side cost of small and medium batches. [`Pool`] removes that
//! overhead: a set of parked worker threads owned by the grid. A launch
//! wakes them, they execute the launch's executor closure once each, and
//! they park again when the warp queue drains. The launching thread
//! participates as an executor itself, so a width-`n` grid keeps `n - 1`
//! workers.
//!
//! # Why this module is allowed `unsafe`
//!
//! The rest of the workspace denies `unsafe_code` outright. Persistent
//! workers executing *borrowed* launch closures are the one thing the safe
//! subset cannot express: a worker thread is `'static`, the closure borrows
//! the launch's stack frame. Soundness here rests on a single invariant,
//! enforced by [`Pool::try_run`]:
//!
//! > `try_run` does not return until every executor invocation it started
//! > has finished (observed as `remaining_starts == 0 && active == 0` under
//! > the pool mutex).
//!
//! Because the launching thread blocks inside `try_run` for the whole time
//! any worker can touch the closure, the borrow it erases provably outlives
//! every use.
#![allow(unsafe_code)]

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Barrier, Condvar, Mutex, MutexGuard, PoisonError, TryLockError};
use std::thread::JoinHandle;

/// The launch's executor closure with its borrow erased to `'static`.
///
/// Only ever dereferenced by workers between a start claimed from
/// `remaining_starts` and the matching `active` decrement — the window the
/// launcher provably outlives (see the module docs).
type ErasedJob = &'static (dyn Fn() + Sync);

/// Pool state shared between the launcher and the workers, all under one
/// mutex so the completion handshake doubles as the memory barrier that
/// publishes worker-side writes (chunk contents, merged counters) back to
/// the launcher.
struct State {
    /// The current launch's executor closure, present while a launch is in
    /// flight.
    job: Option<ErasedJob>,
    /// Executor invocations not yet claimed by a worker.
    remaining_starts: usize,
    /// Executor invocations claimed and still running.
    active: usize,
    /// First panic that escaped an executor (the launch entry points catch
    /// per-warp panics first, so this is a scheduler bug surfacing, not a
    /// kernel fault).
    panic: Option<Box<dyn std::any::Any + Send + 'static>>,
    /// Set once, on drop: workers exit instead of parking.
    shutdown: bool,
    /// Worker threads still alive. A launch never hands out more starts
    /// than there are live workers to claim them, and the last dying worker
    /// zeroes any starts it strands — so the completion barrier in
    /// [`Pool::try_run`] cannot hang on executors that will never run.
    alive: usize,
    /// Fault-injection hook: each pending request makes one parked worker
    /// exit its loop as if it had died (test builds drive this through
    /// [`Pool::kill_workers`] to prove the barrier survives worker death).
    die_requests: usize,
}

struct Shared {
    state: Mutex<State>,
    /// Workers park here; signalled on launch and on shutdown.
    work_ready: Condvar,
    /// The launcher parks here; signalled when the last executor finishes.
    work_done: Condvar,
}

impl Shared {
    /// Locks the state, ignoring poisoning: the state is a plain bookkeeping
    /// record that stays consistent even if a holder panicked (no invariant
    /// spans the lock).
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A persistent, parked worker pool: the grid's standing executor threads.
///
/// Spawned lazily by the grid's first parallel launch and shut down when the
/// last grid clone drops. One launch runs at a time; the grid falls back to
/// scoped threads when the pool is busy (concurrent launches on a shared
/// grid) or re-entered (a kernel launching on its own grid).
pub(crate) struct Pool {
    shared: std::sync::Arc<Shared>,
    /// Serializes launches; `try_lock` failure routes the launch to the
    /// scoped fallback instead of queueing behind the pool.
    launching: Mutex<()>,
    workers: Vec<JoinHandle<()>>,
    /// Launches the pool has run (lifetime total, for the metrics plane).
    launches: std::sync::atomic::AtomicU64,
}

/// A live snapshot of the executor pool for the metrics plane: how many
/// workers are parked and breathing, and how many launches they have run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Executor threads spawned for this pool (fixed at creation).
    pub workers_spawned: usize,
    /// Executor threads currently alive (drops when chaos kills workers).
    pub workers_alive: usize,
    /// Pooled launches run since the pool was created.
    pub launches: u64,
}

impl Pool {
    /// Spawns `workers` parked executor threads and returns once every one
    /// of them is running.
    pub(crate) fn new(workers: usize) -> Self {
        let shared = std::sync::Arc::new(Shared {
            state: Mutex::new(State {
                job: None,
                remaining_starts: 0,
                active: 0,
                panic: None,
                shutdown: false,
                alive: workers,
                die_requests: 0,
            }),
            work_ready: Condvar::new(),
            work_done: Condvar::new(),
        });
        // A thread's runtime startup (stack-overflow handler, a copy of the
        // thread name) allocates on the new thread itself, and so does its
        // executor scratch. Waiting for every worker to check in keeps that
        // inside pool creation instead of in whichever later launch a
        // late-scheduled worker first joins.
        let ready = std::sync::Arc::new(Barrier::new(workers + 1));
        let workers = (0..workers)
            .map(|i| {
                let shared = std::sync::Arc::clone(&shared);
                let ready = std::sync::Arc::clone(&ready);
                std::thread::Builder::new()
                    .name(format!("simt-warp-executor-{}", i + 1))
                    .spawn(move || {
                        crate::grid::WarpScratch::prepare_thread();
                        ready.wait();
                        drop(ready);
                        worker_loop(&shared);
                    })
                    .expect("spawn warp executor")
            })
            .collect();
        ready.wait();
        Self {
            shared,
            launching: Mutex::new(()),
            workers,
            launches: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Point-in-time pool statistics (see [`PoolStats`]).
    pub(crate) fn stats(&self) -> PoolStats {
        PoolStats {
            workers_spawned: self.workers.len(),
            workers_alive: self.shared.lock().alive,
            launches: self.launches.load(std::sync::atomic::Ordering::Relaxed),
        }
    }

    /// Runs one launch on the pool: wakes up to `extra_executors` workers to
    /// execute `job` once each, runs `job` on the calling thread as well,
    /// and blocks until every started invocation has finished.
    ///
    /// Returns `false` without running anything when another launch holds
    /// the pool (the caller then uses its scoped fallback). Re-raises on the
    /// caller any panic that escaped an executor — after all executors have
    /// finished, so the borrow stays valid even on the unwind path.
    pub(crate) fn try_run(&self, extra_executors: usize, job: &(dyn Fn() + Sync)) -> bool {
        let guard = match self.launching.try_lock() {
            Ok(g) => g,
            Err(TryLockError::WouldBlock) => return false,
            Err(TryLockError::Poisoned(p)) => p.into_inner(),
        };
        // SAFETY: the erased borrow is only dereferenced by workers between
        // claiming a start and decrementing `active`; this function does not
        // return (or unwind) before both counters are back to zero, so the
        // real lifetime of `job` covers every dereference.
        let erased: ErasedJob =
            unsafe { std::mem::transmute::<&(dyn Fn() + Sync), &'static (dyn Fn() + Sync)>(job) };
        let starts = {
            let mut st = self.shared.lock();
            debug_assert!(st.job.is_none() && st.remaining_starts == 0 && st.active == 0);
            // Clamp to *live* workers, not spawned workers: a start that no
            // living worker can claim would strand the completion wait.
            let starts = extra_executors.min(st.alive);
            st.job = Some(erased);
            st.remaining_starts = starts;
            starts
        };
        if starts > 0 {
            self.shared.work_ready.notify_all();
        }
        // The launching thread is executor zero. Catch its panic so a
        // buggy executor body cannot unwind past the completion wait.
        let local = catch_unwind(AssertUnwindSafe(job));
        let mut st = self.shared.lock();
        while st.remaining_starts > 0 || st.active > 0 {
            st = self
                .shared
                .work_done
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
        st.job = None;
        let worker_panic = st.panic.take();
        drop(st);
        drop(guard);
        if let Err(payload) = local {
            resume_unwind(payload);
        }
        if let Some(payload) = worker_panic {
            resume_unwind(payload);
        }
        self.launches
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        true
    }

    /// Fault-injection hook: makes up to `n` workers exit their loops as if
    /// they had died, then blocks until they are gone. Returns the number of
    /// workers still alive. Robustness tests drive this to prove that
    /// launches keep completing (degraded, launcher-only in the limit) after
    /// worker death instead of hanging the completion barrier.
    pub(crate) fn kill_workers(&self, n: usize) -> usize {
        let target = {
            let mut st = self.shared.lock();
            let n = n.min(st.alive);
            st.die_requests += n;
            st.alive - n
        };
        self.shared.work_ready.notify_all();
        loop {
            let st = self.shared.lock();
            if st.alive <= target {
                return st.alive;
            }
            drop(st);
            std::thread::yield_now();
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shared.lock().shutdown = true;
        self.shared.work_ready.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    /// Balances the pool's books however the worker thread exits — orderly
    /// shutdown, a kill request, or an unwind that escapes the per-job
    /// `catch_unwind` (e.g. a panicking payload drop). Without it, a dying
    /// worker would leave `alive` overstated and could strand the launcher
    /// at the completion barrier forever.
    struct Sentinel<'a> {
        shared: &'a Shared,
        /// True between claiming a start and completing its bookkeeping:
        /// the window where dying means an `active` slot leaks.
        claimed: std::cell::Cell<bool>,
    }
    impl Drop for Sentinel<'_> {
        fn drop(&mut self) {
            let mut st = self.shared.lock();
            st.alive -= 1;
            if self.claimed.get() {
                st.active -= 1;
                if st.panic.is_none() {
                    st.panic = Some(Box::new("pool worker died mid-job"));
                }
            }
            // Starts no living worker will ever claim must not strand the
            // launcher; the launching thread already ran the job itself.
            if st.alive == 0 {
                st.remaining_starts = 0;
            }
            self.shared.work_done.notify_one();
        }
    }

    let sentinel = Sentinel {
        shared,
        claimed: std::cell::Cell::new(false),
    };
    loop {
        let job = {
            let mut st = shared.lock();
            loop {
                if st.shutdown {
                    return; // sentinel balances `alive`
                }
                if st.die_requests > 0 {
                    st.die_requests -= 1;
                    return; // injected death; sentinel balances the books
                }
                if st.remaining_starts > 0 {
                    st.remaining_starts -= 1;
                    st.active += 1;
                    sentinel.claimed.set(true);
                    break st.job.expect("job present while starts remain");
                }
                st = shared
                    .work_ready
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        // The module invariant makes this call sound; see `ErasedJob`.
        let outcome = catch_unwind(AssertUnwindSafe(job));
        let mut st = shared.lock();
        sentinel.claimed.set(false);
        if let Err(payload) = outcome {
            if st.panic.is_none() {
                st.panic = Some(payload);
            }
        }
        st.active -= 1;
        if st.active == 0 && st.remaining_starts == 0 {
            shared.work_done.notify_one();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn pool_runs_job_on_all_executors_and_reuses_workers() {
        let pool = Pool::new(3);
        for _ in 0..50 {
            let hits = AtomicUsize::new(0);
            let job = || {
                hits.fetch_add(1, Ordering::Relaxed);
            };
            assert!(pool.try_run(3, &job));
            // launcher + 3 workers
            assert_eq!(hits.load(Ordering::Relaxed), 4);
        }
    }

    #[test]
    fn pool_clamps_starts_to_worker_count() {
        let pool = Pool::new(2);
        let hits = AtomicUsize::new(0);
        let job = || {
            hits.fetch_add(1, Ordering::Relaxed);
        };
        assert!(pool.try_run(100, &job));
        assert_eq!(hits.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn pool_survives_worker_death_and_keeps_launching() {
        let pool = Pool::new(3);
        let run = |extra: usize| {
            let hits = AtomicUsize::new(0);
            assert!(pool.try_run(extra, &|| {
                hits.fetch_add(1, Ordering::Relaxed);
            }));
            hits.load(Ordering::Relaxed)
        };
        assert_eq!(run(3), 4); // launcher + 3 workers
                               // Two workers die: the completion barrier must not wait for them.
        assert_eq!(pool.kill_workers(2), 1);
        assert_eq!(run(3), 2); // launcher + the survivor
                               // The last worker dies: launcher-only execution, never a hang.
        assert_eq!(pool.kill_workers(5), 0);
        assert_eq!(run(3), 1);
        assert_eq!(run(0), 1);
    }

    #[test]
    fn pool_contains_panics_even_after_worker_death() {
        let pool = Pool::new(2);
        assert_eq!(pool.kill_workers(1), 1);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.try_run(2, &|| panic!("executor bug"));
        }));
        assert!(caught.is_err());
        let hits = AtomicUsize::new(0);
        assert!(pool.try_run(2, &|| {
            hits.fetch_add(1, Ordering::Relaxed);
        }));
        assert_eq!(hits.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn pool_forwards_worker_panics_after_completion() {
        let pool = Pool::new(2);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.try_run(2, &|| panic!("executor bug"));
        }));
        assert!(caught.is_err());
        // The pool is intact and reusable after the unwind.
        let hits = AtomicUsize::new(0);
        let job = || {
            hits.fetch_add(1, Ordering::Relaxed);
        };
        assert!(pool.try_run(2, &job));
        assert_eq!(hits.load(Ordering::Relaxed), 3);
    }
}
