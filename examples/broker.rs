//! Quickstart for the ingress broker: the slab hash as a service.
//!
//! Spawns a broker over a table, drives it from several client threads,
//! then deliberately overloads it to show the graceful-degradation
//! machinery: bounded queues, per-request deadlines, and memory-pressure
//! write shedding — every refusal a typed reply, never a hang.
//!
//! Run with: `cargo run --release --example broker`
//!
//! Pass `--metrics <addr>` (e.g. `--metrics 127.0.0.1:9184`) to serve the
//! overloaded broker's live metrics plane as Prometheus text — then
//! `curl http://<addr>/metrics` while it runs. `--hold-ms <ms>` keeps the
//! overloaded broker (and its exporter) alive that long before shutdown so
//! an external scraper has a window.

use std::sync::Arc;
use std::time::Duration;

use slab_hash::{KeyValue, Request, SlabHash, SlabHashConfig};
use slab_ingress::{Broker, BrokerConfig, IngressError};

/// Minimal flag scan (the examples avoid depending on the bench crate's
/// parser): returns the value following `--<name>`, if any.
fn arg_value(name: &str) -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == format!("--{name}") {
            return args.next();
        }
    }
    None
}

fn main() {
    // --- Normal service ----------------------------------------------------
    let table = Arc::new(SlabHash::<KeyValue>::new(SlabHashConfig::with_buckets(
        1024,
    )));
    let broker = Broker::spawn(Arc::clone(&table), BrokerConfig::default());

    // Handles are cheap clones; each thread gets its own.
    let writers: Vec<_> = (0..4u32)
        .map(|t| {
            let client = broker.handle();
            std::thread::spawn(move || {
                for i in 0..1000u32 {
                    let key = t * 1000 + i;
                    client.put(key, key * 3).expect("write in normal service");
                }
            })
        })
        .collect();
    for w in writers {
        w.join().unwrap();
    }

    let client = broker.handle();
    assert_eq!(client.get(2500).unwrap(), Some(7500));
    println!(
        "4 threads x 1000 upserts landed; table holds {} keys",
        table.len()
    );

    // Per-request deadlines: an impossible budget fails fast with a typed
    // timeout, and the write is guaranteed never to have been applied.
    let err = client
        .call_with_deadline(Request::replace(9999, 1), Duration::ZERO)
        .unwrap_err();
    assert!(err.is_timeout());
    println!("zero-budget request answered with: {err}");

    drop(client);
    let stats = broker.shutdown();
    println!(
        "service stats: {} submitted, {} completed over {} batches;\n{}",
        stats.submitted,
        stats.completed,
        stats.batches,
        stats
            .histograms
            .queue_depth
            .render("queue depth at dispatch"),
    );

    // --- Forced overload ---------------------------------------------------
    // A shed watermark nothing satisfies simulates an allocator that cannot
    // keep up: the broker sheds writes (typed, immediately) and keeps
    // serving reads. Every shedding cohort and idle tick asks for a
    // maintenance pass, but only the first has work: nothing it sheds can
    // dirty the table.
    let mut overloaded = Broker::spawn(
        Arc::clone(&table),
        BrokerConfig {
            write_shed_headroom: u64::MAX,
            ..BrokerConfig::default()
        },
    );
    // Opt in to the live metrics plane: Prometheus text on GET /metrics.
    if let Some(addr) = arg_value("metrics") {
        overloaded = overloaded
            .with_metrics_addr(&addr)
            .expect("bind metrics exporter");
        let bound = overloaded.metrics_addr().expect("exporter bound");
        println!("metrics exporter live: curl http://{bound}/metrics");
    }
    let client = overloaded.handle();
    let (mut shed, mut reads_ok) = (0u32, 0u32);
    for k in 0..256u32 {
        match client.call(Request::replace(k, 0)) {
            Err(IngressError::ShedWrite) => shed += 1,
            other => panic!("write under forced pressure: {other:?}"),
        }
        if client.get(k).unwrap() == Some(k * 3) {
            reads_ok += 1;
        }
    }
    println!("forced overload: {shed} writes shed, {reads_ok}/256 reads still served");
    assert_eq!(reads_ok, 256, "reads must keep flowing while writes shed");

    drop(client);

    // With the exporter up, show a scrape of the overload in progress —
    // the same text `curl` would fetch.
    if let Some(addr) = overloaded.metrics_addr() {
        let body = simt::telemetry::scrape_text(addr).expect("self-scrape");
        let interesting = [
            "slab_ingress_queue_depth",
            "slab_ingress_shed_total",
            "slab_ingress_maintenance_total",
        ];
        println!("-- scrape of http://{addr}/metrics --");
        for line in body.lines() {
            if interesting.iter().any(|m| line.starts_with(m)) {
                println!("{line}");
            }
        }
        let hold: u64 = arg_value("hold-ms")
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        if hold > 0 {
            println!("holding exporter open for {hold} ms...");
            std::thread::sleep(Duration::from_millis(hold));
        }
    }

    let stats = overloaded.shutdown();
    println!(
        "overload stats: {} shed — and the table is untouched: {} keys",
        stats.shed(),
        table.len(),
    );
}
