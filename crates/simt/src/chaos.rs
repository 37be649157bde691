//! Chaos scheduling and deterministic fault injection for lock-free race
//! and failure testing.
//!
//! The substrate runs warps on OS threads, so on a many-core host races
//! happen naturally. On a single-core host (CI boxes, laptops in power
//! save), threads only interleave at preemption boundaries — milliseconds
//! apart — and the narrow windows lock-free algorithms care about (between
//! a slab read and the CAS that validates it) would almost never be hit.
//!
//! Chaos mode closes that gap: when enabled, the memory layer yields the
//! OS thread with probability `p` immediately **before each atomic RMW**,
//! maximizing the chance that another warp's operation lands inside the
//! read-then-CAS window. Tests that assert linearizable outcomes under
//! concurrency enable it around their stress loops.
//!
//! Beyond yields, a [`FaultPlan`] can inject *failures*:
//!
//! * **spurious CAS failures** ([`should_fail_cas`]) — consumers treat an
//!   injected failure exactly like losing a real race and take their retry
//!   path, so retry loops and unlink/republish logic get exercised without
//!   real contention;
//! * **forced allocation failures** ([`should_fail_alloc`]) — allocators
//!   surface `AllocError` as if capacity were exhausted, so out-of-memory
//!   recovery paths get exercised on healthy allocators.
//!
//! Draws come from per-thread xorshift32 streams. Each thread's stream is
//! seeded from the plan's `seed` mixed with a per-thread index, so (a)
//! different threads make *different* yield/fault decisions, and (b) a
//! fixed seed on a fixed thread schedule (e.g. `Grid::sequential`)
//! reproduces the exact same decision sequence — failures found in CI
//! replay locally. Yields and failures draw from separate streams.
//!
//! Yields are process-global: guards push onto a global stack and the
//! innermost live plan sets the yield probability, so parallel tests (or a
//! test inside a chaotic harness) cannot silently disable each other's
//! chaos by dropping a guard. Failures are per thread: a guard enrolls its
//! creating thread in *its own* plan's failure levels and seed (see
//! [`Participation`]), so another test's guard never changes them.
//!
//! Disabled (the default), the cost is one relaxed atomic load (yields) or
//! one thread-local read (failures) per hook.

use std::cell::{Cell, RefCell};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

use parking_lot::Mutex;

/// A seeded fault-injection configuration.
///
/// Probabilities are clamped to `[0, 1]`. The default plan injects nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Probability of yielding the OS thread before each atomic RMW.
    pub yield_probability: f64,
    /// Probability that a consumer of [`should_fail_cas`] treats its next
    /// CAS as spuriously failed.
    pub cas_fail_probability: f64,
    /// Probability that a consumer of [`should_fail_alloc`] fails its next
    /// allocation.
    pub alloc_fail_probability: f64,
    /// Base seed for the per-thread decision streams.
    pub seed: u64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self {
            yield_probability: 0.0,
            cas_fail_probability: 0.0,
            alloc_fail_probability: 0.0,
            seed: 0x5EED_CAFE,
        }
    }
}

impl FaultPlan {
    /// A plan with the given base seed and no injection (combine with the
    /// `with_*` builders).
    pub fn seeded(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }

    /// A yield-only plan (classic chaos scheduling).
    pub fn yields(p: f64) -> Self {
        Self::default().with_yields(p)
    }

    /// Sets the yield probability.
    pub fn with_yields(mut self, p: f64) -> Self {
        self.yield_probability = p.clamp(0.0, 1.0);
        self
    }

    /// Sets the spurious-CAS-failure probability.
    pub fn with_cas_failures(mut self, p: f64) -> Self {
        self.cas_fail_probability = p.clamp(0.0, 1.0);
        self
    }

    /// Sets the forced-allocation-failure probability.
    pub fn with_alloc_failures(mut self, p: f64) -> Self {
        self.alloc_fail_probability = p.clamp(0.0, 1.0);
        self
    }
}

/// Probability as a u32 threshold (draw `<= level` fires; 0 = disabled).
fn level(p: f64) -> u32 {
    (p.clamp(0.0, 1.0) * u32::MAX as f64) as u32
}

// The active plan's yield half, denormalized into atomics for the hot path.
static YIELD_LEVEL: AtomicU32 = AtomicU32::new(0);
static PLAN_SEED: AtomicU64 = AtomicU64::new(0);
/// Bumped on every plan change; threads reseed their yield stream when
/// they observe a new epoch.
static PLAN_EPOCH: AtomicU64 = AtomicU64::new(0);

/// The guard stack: (guard id, plan). The innermost (last) entry is active.
static PLAN_STACK: Mutex<Vec<(u64, FaultPlan)>> = Mutex::new(Vec::new());
static NEXT_GUARD_ID: AtomicU64 = AtomicU64::new(1);

fn apply(plan: Option<FaultPlan>) {
    let plan = plan.unwrap_or(FaultPlan {
        seed: 0,
        ..FaultPlan::default()
    });
    YIELD_LEVEL.store(level(plan.yield_probability), Ordering::Relaxed);
    PLAN_SEED.store(plan.seed, Ordering::Relaxed);
    PLAN_EPOCH.fetch_add(1, Ordering::Relaxed);
}

/// Enables chaos mode: before each atomic RMW, yield the OS thread with
/// probability `p` (clamped to [0, 1]).
///
/// Prefer [`ChaosGuard`] in tests — plain `set_chaos` replaces the *base*
/// state under any active guards and is itself overridden while guards
/// live.
pub fn set_chaos(p: f64) {
    let stack = PLAN_STACK.lock();
    if stack.is_empty() {
        apply(Some(FaultPlan::yields(p)));
    } else {
        // Guards are active; they own the configuration.
        drop(stack);
        apply_top();
    }
}

/// Disables chaos mode (no-op while guards are active; the innermost guard
/// keeps its plan).
pub fn disable_chaos() {
    let stack = PLAN_STACK.lock();
    if stack.is_empty() {
        apply(None);
    }
}

fn apply_top() {
    let stack = PLAN_STACK.lock();
    apply(stack.last().map(|&(_, plan)| plan));
}

/// The innermost live guard's plan (the one setting the yield
/// probability), if any guard is live.
pub fn active_plan() -> Option<FaultPlan> {
    PLAN_STACK.lock().last().map(|&(_, plan)| plan)
}

/// RAII guard: its [`FaultPlan`] is active while the guard is alive (and
/// no inner guard shadows it); dropping re-activates the next-innermost
/// guard, or disables chaos when none remain.
///
/// Guards nest — including across threads — so parallel tests cannot
/// disable each other's chaos mid-stress-loop; the last surviving guard's
/// plan wins rather than chaos going dark.
///
/// The creating thread is enrolled in *this* guard's failure plan for the
/// guard's lifetime (see [`Participation`]); yields stay process-global.
/// Drop the guard on the thread that created it.
pub struct ChaosGuard {
    id: u64,
    _participation: Participation,
}

impl ChaosGuard {
    /// Enables yield-only chaos at probability `p` for the guard's
    /// lifetime.
    pub fn new(p: f64) -> Self {
        Self::plan(FaultPlan::yields(p))
    }

    /// Activates an arbitrary fault plan for the guard's lifetime.
    pub fn plan(plan: FaultPlan) -> Self {
        let id = NEXT_GUARD_ID.fetch_add(1, Ordering::Relaxed);
        PLAN_STACK.lock().push((id, plan));
        apply_top();
        ChaosGuard {
            id,
            _participation: enroll(Enrollment::of(id, plan)),
        }
    }
}

impl Drop for ChaosGuard {
    fn drop(&mut self) {
        let mut stack = PLAN_STACK.lock();
        stack.retain(|&(id, _)| id != self.id);
        drop(stack);
        apply_top();
    }
}

/// The failure half of a [`FaultPlan`], as carried by an enrolled thread:
/// thresholds and seed, tagged with the guard that owns them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Enrollment {
    guard: u64,
    cas_level: u32,
    alloc_level: u32,
    seed: u64,
}

impl Enrollment {
    fn of(guard: u64, plan: FaultPlan) -> Self {
        Self {
            guard,
            cas_level: level(plan.cas_fail_probability),
            alloc_level: level(plan.alloc_fail_probability),
            seed: plan.seed,
        }
    }
}

thread_local! {
    /// This thread's live enrollments as (token, enrollment), innermost
    /// last. Touched only when enrolling or leaving.
    static ENROLLMENTS: RefCell<Vec<(u64, Enrollment)>> = const { RefCell::new(Vec::new()) };
    /// The innermost enrollment, cached for the hot path.
    static ENROLLED: Cell<Option<Enrollment>> = const { Cell::new(None) };
}

/// RAII enrollment of the current thread in a failure plan
/// ([`should_fail_cas`] / [`should_fail_alloc`]).
///
/// Failure injection is opt-in per thread, and each enrolled thread carries
/// its own plan's levels and seed — unlike yields, an injected failure
/// changes results, so a plan activated by one test must neither fail
/// operations of unrelated tests running on sibling `cargo test` threads
/// nor be overridden by their guards. A [`ChaosGuard`] enrolls its creating
/// thread automatically, and the `Grid` scheduler propagates the launching
/// thread's [`Enrollment`] to its executor threads, so faults reach exactly
/// the kernels launched under the guard. Enrollments nest; the innermost
/// live one is active. Not `Send`: it must drop on the thread it enrolled.
pub struct Participation {
    token: u64,
    _thread_bound: PhantomData<*const ()>,
}

fn enroll(e: Enrollment) -> Participation {
    let token = NEXT_GUARD_ID.fetch_add(1, Ordering::Relaxed);
    ENROLLMENTS.with(|s| s.borrow_mut().push((token, e)));
    ENROLLED.with(|c| c.set(Some(e)));
    Participation {
        token,
        _thread_bound: PhantomData,
    }
}

/// Enrolls the current thread in the innermost live guard's failure plan
/// (or in a plan that injects nothing, when no guard is live) until the
/// returned guard drops.
pub fn participate() -> Participation {
    let top = PLAN_STACK.lock().last().copied();
    let (id, plan) = top.unwrap_or((0, FaultPlan::default()));
    enroll(Enrollment::of(id, plan))
}

/// The current thread's innermost enrollment, for schedulers that
/// propagate it into worker threads with [`participate_in`].
pub fn thread_enrollment() -> Option<Enrollment> {
    ENROLLED.with(Cell::get)
}

/// Enrolls the current thread in `enrollment`, if any — the worker-side
/// half of [`thread_enrollment`].
pub fn participate_in(enrollment: Option<Enrollment>) -> Option<Participation> {
    enrollment.map(enroll)
}

impl Drop for Participation {
    fn drop(&mut self) {
        let top = ENROLLMENTS.with(|s| {
            let mut s = s.borrow_mut();
            s.retain(|&(token, _)| token != self.token);
            s.last().map(|&(_, e)| e)
        });
        ENROLLED.with(|c| c.set(top));
    }
}

/// True when the current thread is enrolled in failure injection.
pub fn thread_participates() -> bool {
    thread_enrollment().is_some()
}

static THREAD_COUNTER: AtomicU32 = AtomicU32::new(0);

thread_local! {
    /// Stable per-thread index, mixed into the stream seed so threads
    /// diverge.
    static THREAD_INDEX: u32 = THREAD_COUNTER.fetch_add(1, Ordering::Relaxed);
    /// Yield stream: (plan epoch it was seeded for, xorshift32 state).
    static RNG: Cell<(u64, u32)> = const { Cell::new((0, 0)) };
    /// Failure stream: (guard it was seeded for, xorshift32 state).
    static FAULT_RNG: Cell<(u64, u32)> = const { Cell::new((0, 0)) };
}

/// 32-bit finalizer (splitmix-style) used for seeding.
fn mix32(mut x: u32) -> u32 {
    x ^= x >> 16;
    x = x.wrapping_mul(0x7feb_352d);
    x ^= x >> 15;
    x = x.wrapping_mul(0x846c_a68b);
    x ^= x >> 16;
    x
}

/// One draw from `stream`, reseeding it from `seed` when `key` (what the
/// stream was seeded for) changed since the last draw.
fn draw(stream: &'static std::thread::LocalKey<Cell<(u64, u32)>>, key: u64, seed: u64) -> u32 {
    stream.with(|c| {
        let (seen, state) = c.get();
        let mut x = if seen == key && state != 0 {
            state
        } else {
            let tid = THREAD_INDEX.with(|&t| t);
            // Mix thread index and both seed halves; never zero (xorshift32
            // has a fixed point at 0).
            mix32(seed as u32 ^ mix32((seed >> 32) as u32) ^ mix32(tid.wrapping_mul(0x9e37_79b9)))
                | 1
        };
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        c.set((key, x));
        x
    })
}

/// One draw from this thread's failure stream for enrollment `e`.
fn fault_draw(e: Enrollment) -> u32 {
    draw(&FAULT_RNG, e.guard, e.seed)
}

/// Called by the memory layer (and other lock-free substrates built on this
/// crate) before atomic RMWs. Yields the OS thread with the configured
/// probability; a no-op when chaos is disabled.
#[inline]
pub fn maybe_yield() {
    let level = YIELD_LEVEL.load(Ordering::Relaxed);
    if level == 0 {
        return;
    }
    let epoch = PLAN_EPOCH.load(Ordering::Relaxed);
    if draw(&RNG, epoch, PLAN_SEED.load(Ordering::Relaxed)) <= level {
        std::thread::yield_now();
    }
}

/// Consulted by retry-safe CAS call sites (slot claims, tombstoning):
/// `true` means "treat this attempt as spuriously failed and take the
/// retry path". Always `false` when the thread is not
/// [enrolled](Participation) in a plan that injects CAS failures.
#[inline]
pub fn should_fail_cas() -> bool {
    match thread_enrollment() {
        Some(e) if e.cas_level != 0 => fault_draw(e) <= e.cas_level,
        _ => false,
    }
}

/// Consulted by fallible allocators: `true` means "fail this allocation as
/// if capacity were exhausted". Always `false` when the thread is not
/// [enrolled](Participation) in a plan that injects allocation failures.
#[inline]
pub fn should_fail_alloc() -> bool {
    match thread_enrollment() {
        Some(e) if e.alloc_level != 0 => fault_draw(e) <= e.alloc_level,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Chaos state is process-global; every test that touches it goes
    // through this lock so `cargo test`'s parallel threads don't observe
    // each other's plans.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_by_default_and_guard_restores() {
        let _l = TEST_LOCK.lock();
        assert_eq!(YIELD_LEVEL.load(Ordering::Relaxed), 0);
        {
            let _g = ChaosGuard::new(0.5);
            assert!(YIELD_LEVEL.load(Ordering::Relaxed) > 0);
            maybe_yield(); // must not panic or hang
        }
        assert_eq!(YIELD_LEVEL.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn full_probability_always_yields_without_deadlock() {
        let _l = TEST_LOCK.lock();
        let _g = ChaosGuard::new(1.0);
        for _ in 0..100 {
            maybe_yield();
        }
    }

    #[test]
    fn clamps_out_of_range() {
        let _l = TEST_LOCK.lock();
        set_chaos(7.5);
        assert_eq!(YIELD_LEVEL.load(Ordering::Relaxed), u32::MAX);
        set_chaos(-1.0);
        assert_eq!(YIELD_LEVEL.load(Ordering::Relaxed), 0);
        disable_chaos();
    }

    #[test]
    fn guards_nest_inner_wins_then_outer_restored() {
        let _l = TEST_LOCK.lock();
        let outer = ChaosGuard::plan(FaultPlan::yields(0.25));
        {
            let _inner = ChaosGuard::plan(FaultPlan::seeded(9).with_cas_failures(1.0));
            assert_eq!(active_plan().unwrap().cas_fail_probability, 1.0);
            assert!(should_fail_cas());
        }
        // Outer guard's plan restored, not chaos-off.
        let plan = active_plan().expect("outer guard still live");
        assert_eq!(plan.yield_probability, 0.25);
        assert!(!should_fail_cas());
        drop(outer);
        assert!(active_plan().is_none());
    }

    #[test]
    fn out_of_order_guard_drops_keep_survivor_active() {
        let _l = TEST_LOCK.lock();
        let a = ChaosGuard::plan(FaultPlan::yields(0.1));
        let b = ChaosGuard::plan(FaultPlan::yields(0.2));
        drop(a); // dropped before the inner guard b
        let plan = active_plan().expect("b still live");
        assert_eq!(plan.yield_probability, 0.2);
        drop(b);
        assert!(active_plan().is_none());
    }

    #[test]
    fn injection_probability_extremes() {
        let _l = TEST_LOCK.lock();
        {
            let _g = ChaosGuard::plan(
                FaultPlan::seeded(1)
                    .with_cas_failures(1.0)
                    .with_alloc_failures(1.0),
            );
            assert!((0..100).all(|_| should_fail_cas()));
            assert!((0..100).all(|_| should_fail_alloc()));
        }
        assert!((0..100).all(|_| !should_fail_cas()));
        assert!((0..100).all(|_| !should_fail_alloc()));
    }

    #[test]
    fn same_seed_same_thread_reproduces_decisions() {
        let _l = TEST_LOCK.lock();
        let run = |seed: u64| -> Vec<bool> {
            let _g = ChaosGuard::plan(FaultPlan::seeded(seed).with_cas_failures(0.5));
            (0..64).map(|_| should_fail_cas()).collect()
        };
        assert_eq!(run(42), run(42), "fixed seed must replay identically");
        assert_ne!(run(42), run(43), "different seeds must diverge");
    }

    #[test]
    fn threads_draw_divergent_streams() {
        let _l = TEST_LOCK.lock();
        let _g = ChaosGuard::plan(FaultPlan::seeded(7).with_cas_failures(0.5));
        let decisions: Vec<Vec<bool>> = std::thread::scope(|s| {
            (0..4)
                .map(|_| {
                    s.spawn(|| {
                        let _p = participate();
                        (0..64).map(|_| should_fail_cas()).collect::<Vec<_>>()
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        // With per-thread seed mixing, 4 threads × 64 draws at p=0.5 all
        // agreeing is ~2⁻¹⁹² — identical streams mean the seed bug is back.
        assert!(
            decisions.windows(2).any(|w| w[0] != w[1]),
            "all threads drew identical decision streams"
        );
    }
}
