//! Caller-runs: a submit runs its own request as a one-envelope cohort on
//! the calling thread when its handle has no ticket outstanding, nothing is
//! queued, and no cohort is running; otherwise it queues. These tests pin
//! the rule (who runs inline and who queues), the ordering it must keep,
//! and that an inline cohort runs in the broker thread's context: its fault
//! plan, and none of the calling thread's trace sessions.

use std::sync::Arc;
use std::thread;
use std::time::Duration;

use simt::{FaultPlan, Grid};
use slab_hash::{KeyValue, OpResult, Request, SlabHash, SlabHashConfig, TableError};
use slab_ingress::{Broker, BrokerConfig, IngressError};
use telemetry::{TraceConfig, TraceSession};

const BUDGET: Duration = Duration::from_secs(30);

fn table() -> Arc<SlabHash<KeyValue>> {
    Arc::new(SlabHash::new(SlabHashConfig::with_buckets(64)))
}

/// A broker whose thread never wakes for housekeeping, so only the
/// submit-side conditions decide who runs a cohort.
fn quiet(cfg: BrokerConfig) -> BrokerConfig {
    BrokerConfig {
        idle_tick: Duration::from_secs(60),
        default_deadline: BUDGET,
        ..cfg
    }
}

#[test]
fn serial_calls_on_an_idle_broker_all_run_inline() {
    let broker = Broker::spawn(table(), quiet(BrokerConfig::default()));
    let client = broker.handle();
    for k in 1..=100u32 {
        assert_eq!(client.put(k, k).unwrap(), None);
        assert_eq!(client.get(k).unwrap(), Some(k));
    }
    drop(client);
    let stats = broker.shutdown();
    assert_eq!(stats.submitted, 200);
    assert_eq!(stats.inline_cohorts, 200);
    assert_eq!(stats.batches, 200);
}

#[test]
fn a_pipelining_handle_queues_behind_its_own_tickets() {
    let broker = Broker::spawn(table(), BrokerConfig::default());
    let client = broker.handle();
    let tickets: Vec<_> = (0..1_000u32)
        .map(|k| {
            client
                .submit_blocking(Request::insert(k, k), BUDGET)
                .unwrap()
        })
        .collect();
    for ticket in tickets {
        assert_eq!(ticket.wait().result, Ok(OpResult::Inserted));
    }
    drop(client);
    let stats = broker.shutdown();
    assert_eq!(stats.completed, 1_000);
    // Only the first submit can find the handle with nothing in flight.
    assert!(stats.inline_cohorts <= 1, "{} inline", stats.inline_cohorts);
    // The rest queue, and the broker thread coalesces them.
    assert!(
        stats.batches < 500,
        "{} batches for 1000 queued",
        stats.batches
    );
}

/// One handle pipelines `REPLACE(k, 1..=N)` while closed-loop callers race
/// it for the broker on other keys, under chaos yields. Each REPLACE must
/// see its predecessor's value, so an inline run that overtook its own
/// handle's queued request would show up as a wrong `Replaced(_)`. The grid
/// is sequential so that one batch's same-key requests also apply in
/// submission order; this test is about the ingress rule, not the kernel's
/// within-batch order.
#[test]
fn inline_runs_never_overtake_their_own_handles_queue() {
    const N: u32 = 2_000;
    const KEY: u32 = 7;
    let broker = Broker::spawn(
        table(),
        BrokerConfig {
            default_deadline: BUDGET,
            grid: Some(Grid::sequential()),
            chaos: Some(FaultPlan::seeded(0xCA11).with_yields(0.02)),
            ..BrokerConfig::default()
        },
    );
    let callers: Vec<_> = (0..8u32)
        .map(|t| {
            let client = broker.handle();
            thread::spawn(move || {
                for i in 0..300u32 {
                    let key = 1_000 + t * 1_000 + i % 50;
                    client.put(key, i).unwrap();
                    assert_eq!(client.get(key).unwrap(), Some(i), "caller {t} lost a write");
                }
            })
        })
        .collect();
    let pipeliner = broker.handle();
    let tickets: Vec<_> = (1..=N)
        .map(|v| {
            pipeliner
                .submit_blocking(Request::replace(KEY, v), BUDGET)
                .unwrap()
        })
        .collect();
    for (v, ticket) in (1..=N).zip(tickets) {
        let expected = if v == 1 {
            OpResult::Inserted
        } else {
            OpResult::Replaced(v - 1)
        };
        assert_eq!(ticket.wait().result, Ok(expected), "REPLACE({KEY}, {v})");
    }
    for caller in callers {
        caller.join().unwrap();
    }
    assert_eq!(pipeliner.get(KEY).unwrap(), Some(N));
    drop(pipeliner);
    let stats = broker.shutdown();
    let total = u64::from(N) + 8 * 300 * 2 + 1;
    assert_eq!(stats.submitted, total);
    assert_eq!(stats.completed, total, "every ticket resolves exactly once");
    assert!(stats.inline_cohorts > 0, "no cohort ran inline");
    assert!(stats.inline_cohorts < stats.batches, "no cohort queued");
}

/// The broker's fault plan reaches an inline cohort exactly as it reaches
/// the broker thread: with every CAS injected-lost and a retry budget of 2,
/// a REPLACE fails the same way on either path.
#[test]
fn inline_cohorts_run_under_the_brokers_fault_plan() {
    let table = Arc::new(SlabHash::<KeyValue>::new(
        SlabHashConfig::with_buckets(16).with_retry_budget(2),
    ));
    let broker = Broker::spawn(
        table,
        quiet(BrokerConfig {
            chaos: Some(FaultPlan::seeded(0xFA17).with_cas_failures(1.0)),
            ..BrokerConfig::default()
        }),
    );
    let registry = broker.metrics();
    let cohorts = |path| registry.counter_with("slab_ingress_cohorts_total", "", &[("path", path)]);
    let (inline, queued) = (cohorts("inline"), cohorts("queued"));
    let client = broker.handle();
    let exhausted = Err(IngressError::Table(TableError::RetryBudgetExhausted {
        budget: 2,
    }));

    assert_eq!(client.call(Request::replace(1, 1)), exhausted);
    assert_eq!(
        (inline.get(), queued.get()),
        (1, 0),
        "idle broker: ran inline"
    );

    // A ticket held open makes the handle queue its next request.
    let held = client.submit(Request::search(1)).unwrap();
    assert_eq!(client.call(Request::replace(2, 2)), exhausted);
    assert_eq!((inline.get(), queued.get()), (2, 1), "busy handle: queued");
    drop(held);

    drop(client);
    broker.shutdown();
}

/// The spawning thread's session receives the broker's ingress events, but
/// an inline cohort's kernel launches stay out of the session the calling
/// thread has open, as they would on the broker thread. Otherwise a trace's
/// event numbering would depend on which thread ran each cohort.
#[test]
fn inline_cohorts_trace_as_the_broker_thread_would() {
    let session = TraceSession::begin(TraceConfig::default());
    let broker = Broker::spawn(table(), quiet(BrokerConfig::default()));
    let client = broker.handle();
    assert_eq!(client.put(1, 1).unwrap(), None);
    drop(client);
    assert_eq!(broker.shutdown().inline_cohorts, 1);
    let trace = session.finish().to_jsonl();
    assert!(trace.contains("\"action\":\"dispatch\""), "{trace}");
    assert!(!trace.contains("launch_begin"), "{trace}");
}
