//! Overload-hardened async ingress for the slab hash.
//!
//! This crate turns the batch-oriented [`SlabHash`](slab_hash::SlabHash)
//! into a service: many concurrent clients submit point operations over a
//! bounded queue, one broker thread coalesces them into warp-shaped batches,
//! dispatches on the persistent executor pool, and routes a typed reply back
//! to each client. A client with nothing in flight that finds the broker
//! idle runs its own request through the same admission and dispatch code
//! on its own thread (caller-runs), skipping the broker thread's wake-up. The interesting part is what happens past saturation —
//! every overload mechanism degrades gracefully instead of collapsing:
//!
//! * **Bounded queues** — submission is `try_send` onto a fixed-capacity
//!   channel; a full queue is a fast [`IngressError::QueueFull`], and the
//!   blocking variant backs off with jitter only until the request's own
//!   deadline.
//! * **Deadlines** — every request carries a budget. The broker refuses to
//!   dispatch expired requests ([`IngressError::DeadlineExceeded`]), so a
//!   timed-out write was *never applied*.
//! * **Admission control** — INSERT and REPLACE are refused while
//!   allocator free-slab headroom sits at or below a watermark
//!   ([`IngressError::ShedWrite`]), and the cohort runs one
//!   maintenance pass. Reads and deletes keep flowing. Only INSERT and
//!   REPLACE can take a slab; a DELETE's tombstone is what compaction
//!   frees, so shedding the allocating writes first is the graceful order.
//! * **One dispatch** — a request that fails with a retryable table error
//!   (`OutOfSlabs`, `RetryBudgetExhausted`) is answered
//!   [`IngressError::Table`] after the cohort runs one maintenance pass.
//!   The broker never re-dispatches; a client that wants the write resends
//!   it to the healed table.
//!
//! Maintenance passes stay bounded without a knob: a pass over a table that
//! nothing has dirtied since its last one launches nothing
//! ([`SlabHash::maintain`](slab_hash::SlabHash::maintain)).
//!
//! The contract throughout: **exactly one reply per accepted submission**,
//! and refusals are typed, never silent.
//!
//! ```
//! use std::sync::Arc;
//! use slab_hash::{KeyValue, SlabHash, SlabHashConfig};
//! use slab_ingress::{Broker, BrokerConfig};
//!
//! let table = Arc::new(SlabHash::<KeyValue>::new(SlabHashConfig::with_buckets(256)));
//! let broker = Broker::spawn(Arc::clone(&table), BrokerConfig::default());
//! let client = broker.handle();
//!
//! client.put(7, 42).unwrap();
//! assert_eq!(client.get(7).unwrap(), Some(42));
//! assert_eq!(client.remove(7).unwrap(), Some(42));
//!
//! drop(client);
//! let stats = broker.shutdown();
//! assert_eq!(stats.completed, 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod broker;
mod client;
mod error;
mod metrics;
mod stats;
pub mod transport;
pub mod wire;

pub use broker::{Broker, BrokerConfig};
pub use client::{ClientHandle, Reply, Ticket};
pub use error::IngressError;
pub use stats::IngressStats;
pub use transport::{
    ClientStats, TransportError, WireClient, WireClientConfig, WireFaultPlan, WireServer,
    WireServerConfig,
};

// The span/metrics vocabulary clients need to consume `Reply::span` and a
// broker's registry without naming the telemetry crate themselves.
pub use simt::telemetry::{MetricsRegistry, RequestSpan, SpanReport, Stage, STAGES, STAGE_COUNT};

#[cfg(test)]
mod tests {
    use std::sync::Arc;
    use std::time::Duration;

    use slab_alloc::{SlabAlloc, SlabAllocConfig};
    use slab_hash::{KeyValue, OpResult, Request, SlabHash, SlabHashConfig, WarpDriver};

    use super::*;

    fn small_table() -> Arc<SlabHash<KeyValue>> {
        Arc::new(SlabHash::new(SlabHashConfig::with_buckets(64)))
    }

    #[test]
    fn round_trip_over_the_broker() {
        let table = small_table();
        let broker = Broker::spawn(Arc::clone(&table), BrokerConfig::default());
        let client = broker.handle();

        assert_eq!(client.put(1, 10).unwrap(), None);
        assert_eq!(client.get(1).unwrap(), Some(10));
        assert_eq!(client.put(1, 11).unwrap(), Some(10));
        assert_eq!(client.get(2).unwrap(), None);
        assert_eq!(client.remove(1).unwrap(), Some(11));
        assert_eq!(client.get(1).unwrap(), None);

        drop(client);
        let stats = broker.shutdown();
        assert_eq!(stats.submitted, 6);
        assert_eq!(stats.completed, 6);
        assert_eq!(stats.shed(), 0);
        assert_eq!(stats.timed_out(), 0);
        assert_eq!(table.len(), 0);
    }

    #[test]
    fn empty_requests_are_rejected_client_side() {
        let broker = Broker::spawn(small_table(), BrokerConfig::default());
        let client = broker.handle();
        assert_eq!(
            client.submit(Request::default()).unwrap_err(),
            IngressError::EmptyRequest
        );
        drop(client);
        assert_eq!(broker.shutdown().submitted, 0);
    }

    #[test]
    fn zero_deadline_times_out_instead_of_executing() {
        let table = small_table();
        let broker = Broker::spawn(Arc::clone(&table), BrokerConfig::default());
        let client = broker.handle();
        let ticket = client
            .submit_with_deadline(Request::insert(5, 50), Duration::ZERO)
            .unwrap();
        let reply = ticket.wait();
        assert!(reply.result.unwrap_err().is_timeout());
        drop(client);
        let stats = broker.shutdown();
        assert_eq!(stats.timed_out(), 1);
        // Deadline refusal happens before dispatch: the write never landed.
        assert_eq!(table.len(), 0);
    }

    #[test]
    fn writes_shed_under_memory_pressure_while_reads_flow() {
        let table = small_table();
        // Headroom nobody can satisfy: every write sheds, deterministically.
        let cfg = BrokerConfig {
            write_shed_headroom: u64::MAX,
            ..BrokerConfig::default()
        };
        let broker = Broker::spawn(Arc::clone(&table), cfg);
        let client = broker.handle();

        assert_eq!(
            client.call(Request::insert(3, 30)).unwrap_err(),
            IngressError::ShedWrite
        );
        // Reads are still served while writes shed: graceful degradation
        // order, not a full stop.
        assert_eq!(client.get(3).unwrap(), None);

        drop(client);
        let stats = broker.shutdown();
        assert_eq!(stats.shed(), 1);
        assert_eq!(stats.completed, 1);
        assert_eq!(table.len(), 0);
    }

    #[test]
    fn deletes_execute_while_writes_shed() {
        let table = small_table();
        WarpDriver::new(&*table).replace(3, 30);
        let cfg = BrokerConfig {
            write_shed_headroom: u64::MAX,
            ..BrokerConfig::default()
        };
        let broker = Broker::spawn(Arc::clone(&table), cfg);
        let client = broker.handle();

        assert_eq!(client.put(4, 40).unwrap_err(), IngressError::ShedWrite);
        // A DELETE allocates nothing, and its tombstone is what compaction
        // frees: it runs however low the headroom is.
        assert_eq!(client.remove(3).unwrap(), Some(30));
        assert_eq!(client.remove(5).unwrap(), None);

        drop(client);
        let stats = broker.shutdown();
        assert_eq!(stats.shed(), 1);
        assert_eq!(stats.completed, 2);
        assert_eq!(table.len(), 0);
    }

    #[test]
    fn replies_route_back_to_the_right_client() {
        let broker = Broker::spawn(small_table(), BrokerConfig::default());
        let clients = 8usize;
        let per_client = 64u32;
        let mut joins = Vec::new();
        for c in 0..clients as u32 {
            let client = broker.handle();
            joins.push(std::thread::spawn(move || {
                for i in 0..per_client {
                    let key = c * per_client + i;
                    // The value encodes the owning client; a misrouted reply
                    // would surface as a foreign value here.
                    match client.call(Request::insert(key, c)).unwrap() {
                        OpResult::Inserted => {}
                        other => panic!("client {c}: insert -> {other:?}"),
                    }
                    match client.call(Request::search(key)).unwrap() {
                        OpResult::Found(v) => assert_eq!(v, c, "misrouted reply"),
                        other => panic!("client {c}: search -> {other:?}"),
                    }
                }
            }));
        }
        for join in joins {
            join.join().unwrap();
        }
        let stats = broker.shutdown();
        let total = (clients as u64) * u64::from(per_client) * 2;
        assert_eq!(stats.submitted, total);
        assert_eq!(stats.completed, total);
    }

    #[test]
    fn inserts_land_through_allocator_growth_on_the_default_config() {
        // One active super block of 1024 slabs holds about 15k keys: the
        // inserts below land only if the allocator grows under them.
        let alloc = SlabAlloc::new(SlabAllocConfig {
            initial_active: 1,
            ..SlabAllocConfig::small(4, 1)
        });
        let table = Arc::new(SlabHash::<KeyValue, _>::with_allocator(
            SlabHashConfig::with_buckets(8),
            alloc,
        ));
        let broker = Broker::spawn(Arc::clone(&table), BrokerConfig::default());
        let client = broker.handle();
        let n = 20_000u32;
        let tickets: Vec<_> = (0..n)
            .map(|k| {
                client
                    .submit_blocking(Request::insert(k, k), Duration::from_secs(10))
                    .unwrap()
            })
            .collect();
        let landed = tickets
            .into_iter()
            .map(Ticket::wait)
            .filter(|r| r.result.is_ok())
            .count();
        assert_eq!(landed, n as usize, "every insert lands");
        assert_eq!(table.len(), n as usize);
        assert!(table.allocator().active_super_blocks() > 1);
        drop(client);
        let stats = broker.shutdown();
        assert_eq!((stats.completed, stats.shed()), (u64::from(n), 0));
    }

    #[test]
    fn shutdown_answers_everything_already_queued() {
        let broker = Broker::spawn(small_table(), BrokerConfig::default());
        let client = broker.handle();
        let tickets: Vec<_> = (0..100u32)
            .map(|k| client.submit(Request::insert(k, k)).unwrap())
            .collect();
        drop(client);
        let stats = broker.shutdown();
        for t in tickets {
            assert!(t.wait().result.is_ok(), "queued request lost at shutdown");
        }
        assert_eq!(stats.completed, 100);
    }
}
