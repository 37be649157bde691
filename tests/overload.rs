//! Overload soak: the ingress broker past saturation, under chaos, on a
//! starved allocator.
//!
//! The contract being proved: overload degrades, it does not break.
//! Concretely — every accepted submission gets exactly one reply; admitted
//! requests keep bounded latency (refusals are *fast*, the deadline bounds
//! the slow path); nothing panics; and the broker is still serving once the
//! storm passes.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use simt::{FaultPlan, Grid, WarpCtx};
use slab_alloc::{AllocError, SerialHeapSim, SlabAlloc, SlabAllocConfig, SlabAllocator, SlabRef};
use slab_hash::{KeyValue, Request, SlabHash, SlabHashConfig, TableError, EMPTY_KEY};
use slab_ingress::{Broker, BrokerConfig, IngressError};

const DEADLINE: Duration = Duration::from_millis(50);
/// Admitted-op latency bound: the deadline, plus generous slack for the
/// batch that was already in flight when the deadline landed. "Bounded"
/// here means "no request ever waits unboundedly", not a tight SLO.
const LATENCY_BOUND: Duration = Duration::from_secs(5);

#[test]
fn overload_soak_sheds_instead_of_collapsing() {
    // A table that *will* run out: one block of 1024 slabs, shed policy,
    // and 24k distinct keys written (about 1600 slabs' worth).
    let table = Arc::new(SlabHash::<KeyValue, _>::with_allocator(
        SlabHashConfig::with_buckets(32),
        SlabAlloc::new(SlabAllocConfig::small(1, 1)),
    ));
    let cfg = BrokerConfig {
        queue_capacity: 256,
        max_batch: 128,
        default_deadline: DEADLINE,
        write_shed_headroom: 8,
        chaos: Some(
            FaultPlan::seeded(0x50AD)
                .with_cas_failures(0.10)
                .with_yields(0.05),
        ),
        ..BrokerConfig::default()
    };
    let broker = Broker::spawn(Arc::clone(&table), cfg);
    let passes = launched_passes(&broker);

    let threads = 4u64;
    let per_thread = 8000u64;
    let joins: Vec<_> = (0..threads)
        .map(|t| {
            let client = broker.handle();
            std::thread::spawn(move || {
                let mut accepted = Vec::new();
                let mut queue_full = 0u64;
                for i in 0..per_thread {
                    let key = 1 + (t * per_thread + i) as u32;
                    // 1-in-4 reads so the degradation order (writes shed
                    // first, reads keep flowing) is actually exercised.
                    let req = if i % 4 == 0 {
                        Request::search(key)
                    } else {
                        Request::replace(key, i as u32)
                    };
                    // Open loop: submit as fast as the queue accepts, never
                    // wait for replies in between. A full queue is retried
                    // after a yield, so every request reaches the broker and
                    // the 1024-slab heap must cross its write-shed watermark.
                    let ticket = loop {
                        match client.submit(req.clone()) {
                            Ok(ticket) => break ticket,
                            Err(IngressError::QueueFull { .. }) => {
                                queue_full += 1;
                                std::thread::yield_now();
                            }
                            Err(other) => panic!("unexpected submit error: {other:?}"),
                        }
                    };
                    accepted.push(ticket);
                }
                // Exactly-one-reply check: every ticket must resolve, and
                // (the broker being alive) never to BrokerGone.
                let mut ok = 0u64;
                let mut shed = 0u64;
                let mut timed_out = 0u64;
                let mut table_err = 0u64;
                let mut worst = Duration::ZERO;
                let accepted_count = accepted.len() as u64;
                for ticket in accepted {
                    let reply = ticket.wait();
                    match reply.result {
                        Ok(_) => {
                            ok += 1;
                            worst = worst.max(reply.latency);
                        }
                        Err(e) if e.is_shed() => shed += 1,
                        Err(e) if e.is_timeout() => timed_out += 1,
                        Err(IngressError::Table(_)) => table_err += 1,
                        Err(other) => panic!("reply lost to {other:?}"),
                    }
                }
                assert_eq!(
                    ok + shed + timed_out + table_err,
                    accepted_count,
                    "every accepted submission must get exactly one reply"
                );
                (accepted_count, queue_full, ok, shed, timed_out, worst)
            })
        })
        .collect();

    let mut attempted = 0u64;
    let mut queue_full = 0u64;
    let mut ok = 0u64;
    let mut shed = 0u64;
    let mut timed_out = 0u64;
    let mut worst = Duration::ZERO;
    for join in joins {
        let (a, q, o, s, t, w) = join.join().expect("soak client thread panicked");
        attempted += a;
        queue_full += q;
        ok += o;
        shed += s;
        timed_out += t;
        worst = worst.max(w);
    }
    assert_eq!(attempted, threads * per_thread, "no submission unaccounted");
    assert!(ok > 0, "an overloaded broker must still complete some work");
    assert!(
        shed + timed_out > 0,
        "an overloaded broker must shed or time out work, not absorb it all"
    );
    assert!(
        worst <= LATENCY_BOUND,
        "admitted-op latency unbounded: {worst:?}"
    );

    // The storm is over and the broker is still alive: a fresh request on a
    // fresh handle round-trips.
    let after = broker.handle();
    let probe = Instant::now();
    assert!(after.get(1).is_ok(), "broker dead after overload");
    assert!(probe.elapsed() < LATENCY_BOUND);
    drop(after);

    let [admission, idle] = passes.map(|c| c.get());
    let stats = broker.shutdown();
    // +1 for the liveness probe above.
    assert_eq!(
        stats.completed,
        ok + 1,
        "broker and clients disagree on completed count"
    );
    assert!(
        stats.shed() + stats.timed_out() > 0 || shed + timed_out == 0,
        "client-visible sheds/timeouts must be billed in broker stats"
    );
    println!(
        "soak: {attempted} attempted, {queue_full} queue-full retries, {ok} ok, {shed} shed, \
         {timed_out} timed out, worst {worst:?}, \
         broker stats: {} submitted / {} completed / {} shed / {} timed out, \
         launched passes: {admission} admission / {idle} idle",
        stats.submitted,
        stats.completed,
        stats.shed(),
        stats.timed_out(),
    );
}

/// The broker's counts of maintenance passes that launched compaction,
/// triggered by a shedding cohort and by idle housekeeping.
fn launched_passes(broker: &Broker) -> [telemetry::Counter; 2] {
    ["admission", "idle"].map(|reason| {
        broker
            .metrics()
            .counter_with("slab_ingress_maintenance_total", "", &[("reason", reason)])
    })
}

#[test]
fn an_idle_broker_over_a_full_table_launches_no_pass_storm() {
    // One 1024-slab block that cannot grow, 32 buckets, and only fresh
    // keys: once the heap crosses the shed watermark nothing can free a
    // slab, so every shed cohort and every 1 ms idle tick asks for a pass.
    let table = Arc::new(SlabHash::<KeyValue, _>::with_allocator(
        SlabHashConfig::with_buckets(32),
        SlabAlloc::new(SlabAllocConfig::small(1, 1)),
    ));
    let cfg = BrokerConfig {
        write_shed_headroom: 8,
        idle_tick: Duration::from_millis(1),
        ..BrokerConfig::default()
    };
    let broker = Broker::spawn(Arc::clone(&table), cfg);
    let passes = launched_passes(&broker);
    let client = broker.handle();
    let shed = (1..=32_000u32).find(|&k| client.put(k, k) == Err(IngressError::ShedWrite));
    assert!(shed.is_some(), "the heap must cross the shed watermark");

    // Nothing links a slab or writes a tombstone while the broker idles,
    // so after the pass that made the table clean, no pass has work.
    let total = || passes.iter().map(|c| c.get()).sum::<u64>();
    let before = total();
    std::thread::sleep(Duration::from_millis(200));
    let idled = total() - before;
    assert!(
        idled <= 2,
        "{idled} passes launched over an idle, clean table"
    );
    drop(client);
    broker.shutdown();
}

#[test]
fn brief_pressure_recovers_to_full_service() {
    // The default config over a fixed 64-slab heap with no growth: churn
    // cycles allocate far more slabs than exist, so the heal pass that a
    // shedding cohort runs (compaction of the deleted keys' tombstones) is
    // the only reason the writes land. The client resends each typed
    // refusal. The idle tick outlasts the run, so idle housekeeping never
    // heals the heap behind the shed path's back while the client thread
    // is descheduled.
    let table = Arc::new(SlabHash::<KeyValue, _>::with_allocator(
        SlabHashConfig::with_buckets(4),
        SerialHeapSim::new(64, EMPTY_KEY),
    ));
    let cfg = BrokerConfig {
        idle_tick: Duration::from_secs(60),
        ..BrokerConfig::default()
    };
    let broker = Broker::spawn(Arc::clone(&table), cfg);
    let client = broker.handle();
    // At most 8 sends per key: the first, then one per retryable refusal.
    let call = |req: Request| {
        let mut last = None;
        for _ in 0..8 {
            match client.call_with_deadline(req.clone(), Duration::from_secs(30)) {
                Err(
                    e @ (IngressError::ShedWrite
                    | IngressError::Table(
                        TableError::OutOfSlabs(_) | TableError::RetryBudgetExhausted { .. },
                    )),
                ) => last = Some(e),
                reply => return reply,
            }
        }
        panic!("{req:?} refused 8 times, last {last:?}");
    };
    let per_cycle = 100u32;
    for cycle in 0..20u32 {
        let base = 1 + cycle * per_cycle;
        for k in base..base + per_cycle {
            call(Request::replace(k, k ^ 0xA5A5)).expect("every write lands");
        }
        for k in (base..base + per_cycle).step_by(29) {
            assert_eq!(client.get(k).unwrap(), Some(k ^ 0xA5A5));
        }
        for k in base..base + per_cycle {
            call(Request::delete(k)).expect("delete under pressure");
        }
    }
    drop(client);
    let stats = broker.shutdown();
    assert!(
        stats.shed() > 0,
        "churn past heap capacity should shed and heal"
    );
    assert_eq!(table.len(), 0);
}

/// A delegating allocator with a kill switch: once armed, the next
/// allocation panics. The panic escapes the kernel as a launch error and is
/// resumed on the broker thread — the deterministic way to kill the broker
/// itself mid-request (as opposed to a worker dying inside a batch, which
/// the pool contains).
struct KillSwitchAlloc {
    inner: SerialHeapSim,
    armed: Arc<AtomicBool>,
}

impl SlabAllocator for KillSwitchAlloc {
    type WarpState = <SerialHeapSim as SlabAllocator>::WarpState;

    fn new_warp_state(&self) -> Self::WarpState {
        self.inner.new_warp_state()
    }

    fn try_allocate(
        &self,
        state: &mut Self::WarpState,
        ctx: &mut WarpCtx,
    ) -> Result<u32, AllocError> {
        assert!(
            !self.armed.load(Ordering::SeqCst),
            "kill switch: allocator pulled out from under the broker"
        );
        self.inner.try_allocate(state, ctx)
    }

    fn deallocate(&self, ptr: u32, ctx: &mut WarpCtx) {
        self.inner.deallocate(ptr, ctx)
    }

    fn locate(&self, ptr: u32) -> SlabRef<'_> {
        self.inner.locate(ptr)
    }

    fn allocated_slabs(&self) -> u64 {
        self.inner.allocated_slabs()
    }

    fn capacity_slabs(&self) -> u64 {
        self.inner.capacity_slabs()
    }

    fn try_grow(&self) -> bool {
        self.inner.try_grow()
    }

    fn double_frees(&self) -> u64 {
        self.inner.double_frees()
    }

    fn metadata_bytes(&self) -> u64 {
        self.inner.metadata_bytes()
    }

    fn committed_bytes(&self) -> u64 {
        self.inner.committed_bytes()
    }
}

#[test]
fn broker_death_resolves_every_outstanding_ticket() {
    let armed = Arc::new(AtomicBool::new(false));
    // Two buckets so chains grow (and allocate) almost immediately.
    let table = Arc::new(SlabHash::<KeyValue, _>::with_allocator(
        SlabHashConfig::with_buckets(2),
        KillSwitchAlloc {
            inner: SerialHeapSim::new(4096, EMPTY_KEY),
            armed: Arc::clone(&armed),
        },
    ));
    let cfg = BrokerConfig {
        default_deadline: Duration::from_secs(10),
        ..BrokerConfig::default()
    };
    let broker = Broker::spawn(table, cfg);
    let client = broker.handle();

    // Warm up with the switch disarmed: the broker is healthy.
    for k in 1..=16u32 {
        client.call(Request::replace(k, k)).expect("healthy broker");
    }

    // Arm the switch, then pile on writes that must allocate. The broker
    // thread dies mid-batch; every outstanding ticket must still resolve —
    // to a result (landed before the death) or a typed error — never hang.
    armed.store(true, Ordering::SeqCst);
    let tickets: Vec<_> = (100..356u32)
        .map(|k| client.submit(Request::replace(k, k)).expect("queue open"))
        .collect();
    let mut resolved_ok = 0u64;
    let mut resolved_err = 0u64;
    let mut broker_gone = 0u64;
    for ticket in tickets {
        let reply = ticket
            .wait_deadline(Instant::now() + LATENCY_BOUND)
            .expect("outstanding ticket hung past the bound after broker death");
        match reply.result {
            Ok(_) => resolved_ok += 1,
            Err(IngressError::BrokerGone) => {
                broker_gone += 1;
                resolved_err += 1;
            }
            Err(_) => resolved_err += 1,
        }
    }
    assert_eq!(
        resolved_ok + resolved_err,
        256,
        "every ticket resolves exactly once"
    );
    assert!(
        broker_gone > 0,
        "a dead broker must surface as BrokerGone, not silence"
    );

    // Later submissions fail fast with the typed error once the channel is
    // observed closed (the thread's death races the first few attempts).
    let mut saw_gone = false;
    for _ in 0..100 {
        match client.submit(Request::search(1)) {
            Err(IngressError::BrokerGone) => {
                saw_gone = true;
                break;
            }
            Ok(ticket) => {
                // Accepted into a dead queue: the ticket still resolves.
                let reply = ticket
                    .wait_deadline(Instant::now() + LATENCY_BOUND)
                    .expect("post-death ticket hung");
                assert!(reply.result.is_err());
            }
            Err(other) => panic!("unexpected submit error: {other:?}"),
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(
        saw_gone,
        "submissions to a dead broker never surfaced BrokerGone"
    );

    // `shutdown()` would (correctly) propagate the broker's panic; drop
    // must absorb it and still release everything without hanging.
    drop(client);
    drop(broker);
}

/// Kills the broker from inside an inline cohort: a serial `call` on an idle
/// broker runs on the calling thread, and its armed REPLACE must allocate.
/// Returns the broker and the dead handle for the caller to tear down.
fn die_inline() -> (Broker, slab_ingress::ClientHandle) {
    let armed = Arc::new(AtomicBool::new(false));
    // One bucket: its base slab holds 15 pairs, so the 16th key chains.
    let table = Arc::new(SlabHash::<KeyValue, _>::with_allocator(
        SlabHashConfig::with_buckets(1),
        KillSwitchAlloc {
            inner: SerialHeapSim::new(4096, EMPTY_KEY),
            armed: Arc::clone(&armed),
        },
    ));
    // No idle ticks: the broker thread never holds the lock, so every
    // serial call below runs inline.
    let cfg = BrokerConfig {
        default_deadline: Duration::from_secs(10),
        idle_tick: Duration::from_secs(60),
        ..BrokerConfig::default()
    };
    let broker = Broker::spawn(table, cfg);
    let inline =
        broker
            .metrics()
            .counter_with("slab_ingress_cohorts_total", "", &[("path", "inline")]);
    let client = broker.handle();
    for k in 1..=15u32 {
        client.call(Request::replace(k, k)).expect("healthy broker");
    }
    assert_eq!(inline.get(), 15);

    armed.store(true, Ordering::SeqCst);
    assert_eq!(
        client.call(Request::replace(100, 100)),
        Err(IngressError::BrokerGone),
        "the panicking inline cohort's own ticket resolves to BrokerGone"
    );
    assert_eq!(inline.get(), 16, "the armed request ran inline");
    // The panic stayed on the broker's side: this thread is still running,
    // and later submits fail fast with the typed error.
    for handle in [client.clone(), broker.handle()] {
        assert_eq!(
            handle.submit(Request::search(1)).unwrap_err(),
            IngressError::BrokerGone
        );
    }
    (broker, client)
}

#[test]
fn inline_cohort_death_keeps_the_broker_death_contract() {
    let (broker, client) = die_inline();
    drop(client);
    // The broker thread wakes on the closed queue and re-raises the inline
    // cohort's panic, which `shutdown` propagates.
    let shutdown = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| broker.shutdown()));
    assert!(
        shutdown.is_err(),
        "shutdown must re-raise the cohort's panic"
    );

    // `drop` absorbs the same panic and releases everything.
    let (broker, client) = die_inline();
    drop(client);
    drop(broker);
}

#[test]
fn pool_worker_death_mid_load_resolves_all_tickets() {
    let grid = Grid::new(4);
    let table = Arc::new(SlabHash::<KeyValue>::new(SlabHashConfig::with_buckets(64)));
    let cfg = BrokerConfig {
        grid: Some(grid.clone()),
        default_deadline: Duration::from_secs(10),
        ..BrokerConfig::default()
    };
    let broker = Broker::spawn(table, cfg);

    let total = 4000u32;
    let client = broker.handle();
    let load = std::thread::spawn(move || {
        let mut tickets = Vec::new();
        for k in 0..total {
            tickets.push(
                client
                    .submit_blocking(Request::replace(k, k), Duration::from_secs(10))
                    .expect("submission under pool death"),
            );
        }
        let mut ok = 0u64;
        for ticket in tickets {
            let reply = ticket
                .wait_deadline(Instant::now() + LATENCY_BOUND)
                .expect("ticket hung after pool-worker death");
            if reply.result.is_ok() {
                ok += 1;
            }
        }
        ok
    });
    // Kill workers in two waves mid-load: first some, then all. The pool
    // degrades to launcher-only execution; requests keep completing.
    std::thread::sleep(Duration::from_millis(5));
    grid.debug_kill_pool_workers(2);
    std::thread::sleep(Duration::from_millis(5));
    grid.debug_kill_pool_workers(usize::MAX);
    let ok = load.join().expect("load thread panicked");
    assert_eq!(
        ok,
        u64::from(total),
        "pool death must not fail or lose requests"
    );

    // The broker itself survived: a fresh probe round-trips and shutdown is
    // clean.
    let probe = broker.handle();
    assert!(probe.get(1).is_ok(), "broker dead after pool-worker deaths");
    drop(probe);
    let stats = broker.shutdown();
    assert_eq!(stats.completed, u64::from(total) + 1);
}
