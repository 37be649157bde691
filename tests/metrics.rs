//! End-to-end tests of the live metrics plane: the Prometheus exporter's
//! text format (escaping, histogram cumulativity, snapshot consistency
//! under concurrent writers), request spans riding the ingress path
//! (stage monotonicity and exact telescoping), JSONL snapshots, in-band
//! relief of write pressure, and the determinism of the ingress trace
//! under chaos replay.

use std::sync::Arc;
use std::time::Duration;

use simt::{FaultPlan, Grid};
use slab_alloc::{AllocError, SlabAlloc, SlabAllocConfig};
use slab_hash::{KeyValue, OpResult, Request, SlabHash, SlabHashConfig, TableError};
use slab_ingress::{Broker, BrokerConfig, IngressError, Ticket, STAGES};
use telemetry::{scrape_text, MetricsRegistry, MetricsServer, TraceConfig, TraceSession};

/// Extracts the value of the sample whose series (name plus label block)
/// starts with `series` from a Prometheus text body.
fn sample(body: &str, series: &str) -> Option<f64> {
    body.lines()
        .filter(|l| !l.starts_with('#'))
        .find(|l| l.starts_with(series))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
}

/// All `name_bucket` cumulative counts for one labeled histogram series, in
/// file order (the exporter renders them in ascending `le`).
fn bucket_counts(body: &str, name: &str, label: &str) -> Vec<(String, f64)> {
    body.lines()
        .filter(|l| l.starts_with(&format!("{name}_bucket")) && l.contains(label))
        .map(|l| {
            let le = l
                .split("le=\"")
                .nth(1)
                .and_then(|s| s.split('"').next())
                .expect("le label")
                .to_string();
            let v: f64 = l.rsplit(' ').next().unwrap().parse().expect("bucket value");
            (le, v)
        })
        .collect()
}

#[test]
fn exporter_escapes_label_values_and_sanitizes_names() {
    let registry = Arc::new(MetricsRegistry::new());
    registry
        .counter_with(
            "weird metric-name.total",
            "help with \\ backslash\nand newline",
            &[("path", "C:\\dir\n\"quoted\"")],
        )
        .add(3);
    let server = MetricsServer::serve("127.0.0.1:0", Arc::clone(&registry)).expect("bind");
    let body = scrape_text(server.local_addr()).expect("scrape");
    server.shutdown();

    // Invalid name characters collapse to underscores.
    assert!(body.contains("weird_metric_name_total"), "body:\n{body}");
    // Label value escaping: backslash, quote, newline.
    assert!(
        body.contains(r#"path="C:\\dir\n\"quoted\"""#),
        "label value must be escaped; body:\n{body}"
    );
    // HELP escaping: backslash and newline (quotes stay raw in HELP).
    assert!(
        body.contains("# HELP weird_metric_name_total help with \\\\ backslash\\nand newline"),
        "help must be escaped; body:\n{body}"
    );
    assert_eq!(sample(&body, "weird_metric_name_total{"), Some(3.0));
}

#[test]
fn histogram_buckets_render_cumulative_over_http() {
    let registry = Arc::new(MetricsRegistry::new());
    let hist = registry.histogram("latency_probe", "probe");
    // One zero, a run of small values, and one huge outlier.
    hist.record(0);
    for v in [1u64, 2, 3, 5, 9, 17, 1000] {
        hist.record(v);
    }
    hist.record(u64::MAX);
    let server = MetricsServer::serve("127.0.0.1:0", Arc::clone(&registry)).expect("bind");
    let body = scrape_text(server.local_addr()).expect("scrape");
    server.shutdown();

    let buckets = bucket_counts(&body, "latency_probe", "");
    assert!(buckets.len() >= 2, "need buckets, got:\n{body}");
    // Strictly non-decreasing, ending at +Inf == _count.
    for pair in buckets.windows(2) {
        assert!(
            pair[1].1 >= pair[0].1,
            "buckets must be cumulative: {pair:?}"
        );
    }
    let (last_le, last_count) = buckets.last().unwrap();
    assert_eq!(last_le, "+Inf");
    assert_eq!(Some(*last_count), sample(&body, "latency_probe_count"));
    assert_eq!(sample(&body, "latency_probe_count"), Some(9.0));
}

#[test]
fn scrapes_stay_coherent_under_concurrent_writers() {
    let registry = Arc::new(MetricsRegistry::new());
    let hist = registry.histogram("churn", "concurrent probe");
    let counter = registry.counter("churn_total", "concurrent probe");
    let server = MetricsServer::serve("127.0.0.1:0", Arc::clone(&registry)).expect("bind");
    let addr = server.local_addr();

    let writers: Vec<_> = (0..4)
        .map(|t| {
            let hist = hist.clone();
            let counter = counter.clone();
            std::thread::spawn(move || {
                for i in 0..10_000u64 {
                    hist.record(t * 10_000 + i);
                    counter.inc();
                }
            })
        })
        .collect();
    // Scrape while the writers hammer: every snapshot must be internally
    // cumulative even though it races the writes.
    for _ in 0..10 {
        let body = scrape_text(addr).expect("scrape");
        let buckets = bucket_counts(&body, "churn", "");
        for pair in buckets.windows(2) {
            assert!(pair[1].1 >= pair[0].1, "mid-churn cumulativity: {pair:?}");
        }
    }
    for w in writers {
        w.join().unwrap();
    }
    let body = scrape_text(addr).expect("final scrape");
    server.shutdown();
    assert_eq!(sample(&body, "churn_count"), Some(40_000.0));
    assert_eq!(sample(&body, "churn_total"), Some(40_000.0));
}

#[test]
fn spans_telescope_exactly_through_the_broker() {
    let table = Arc::new(SlabHash::<KeyValue>::new(SlabHashConfig::with_buckets(64)));
    let broker = Broker::spawn(Arc::clone(&table), BrokerConfig::default());
    let client = broker.handle();

    let tickets: Vec<Ticket> = (1..=200u32)
        .map(|k| {
            let req = if k % 3 == 0 {
                Request::search(k)
            } else {
                Request::replace(k, k)
            };
            client
                .submit_blocking(req, Duration::from_secs(5))
                .expect("submit")
        })
        .collect();

    let mut ids = std::collections::HashSet::new();
    for t in tickets {
        let reply = t.wait();
        reply.result.as_ref().expect("table result");
        let span = &reply.span;
        assert!(ids.insert(span.id), "correlation ids must be unique");
        // A completed request passed every stage, in order.
        for (i, stage) in STAGES.iter().enumerate() {
            assert!(span.marked[i], "stage {} must be marked", stage.name());
        }
        // Telescoping is exact: consecutive marks partition the span.
        assert_eq!(
            span.stage_sum_ns(),
            span.total_ns,
            "stage durations must sum to the end-to-end span"
        );
        // And the broker-stamped latency is the same measurement.
        assert_eq!(reply.latency.as_nanos() as u64, span.total_ns);
    }

    drop(client);
    broker.shutdown();
}

#[test]
fn jsonl_snapshots_capture_broker_lifecycle() {
    let dir = std::env::temp_dir().join(format!("slab_metrics_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join("snapshots.jsonl");

    let table = Arc::new(SlabHash::<KeyValue>::new(SlabHashConfig::with_buckets(32)));
    let broker = Broker::spawn(Arc::clone(&table), BrokerConfig::default())
        .with_jsonl_snapshots(&path, Duration::from_millis(5))
        .expect("start snapshots");
    let client = broker.handle();
    for k in 1..=64u32 {
        client.put(k, k).expect("put");
    }
    std::thread::sleep(Duration::from_millis(25));
    drop(client);
    broker.shutdown();

    let text = std::fs::read_to_string(&path).expect("snapshot file");
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines.len() >= 2, "initial + final snapshot at minimum");
    for line in &lines {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "JSONL: {line}"
        );
        assert!(line.contains("\"ts_ms\""), "timestamped: {line}");
    }
    // The final line reflects the drained broker.
    assert!(
        lines
            .last()
            .unwrap()
            .contains("slab_ingress_submitted_total"),
        "final snapshot must carry the broker's counters"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn broker_drop_releases_exporter_socket_and_snapshot_writer() {
    // `drop` must tear the metrics plane down as thoroughly as `shutdown`:
    // no leaked listener socket, no writer thread appending lines after the
    // broker is gone.
    let dir = std::env::temp_dir().join(format!("slab_drop_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join("snapshots.jsonl");

    let table = Arc::new(SlabHash::<KeyValue>::new(SlabHashConfig::with_buckets(32)));
    let broker = Broker::spawn(Arc::clone(&table), BrokerConfig::default())
        .with_metrics_addr("127.0.0.1:0")
        .expect("start exporter")
        .with_jsonl_snapshots(&path, Duration::from_millis(5))
        .expect("start snapshots");
    let addr = broker.metrics_addr().expect("exporter bound");
    let client = broker.handle();
    for k in 1..=16u32 {
        client.put(k, k).expect("put");
    }
    assert!(scrape_text(addr).is_ok(), "exporter live before drop");
    drop(client);
    drop(broker);

    // The listener socket is released: the exact address rebinds.
    std::net::TcpListener::bind(addr).expect("exporter port still held after Broker::drop");
    // The snapshot writer has stopped: the file gains no further lines.
    let lines_after_drop = std::fs::read_to_string(&path)
        .expect("snapshots")
        .lines()
        .count();
    assert!(lines_after_drop >= 1, "snapshots never wrote");
    std::thread::sleep(Duration::from_millis(40));
    let lines_later = std::fs::read_to_string(&path)
        .expect("snapshots")
        .lines()
        .count();
    assert_eq!(
        lines_after_drop, lines_later,
        "snapshot writer still appending after Broker::drop"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn forced_idle_passes_show_their_pause_in_the_scrape() {
    // A shed watermark above any headroom makes every idle tick ask for a
    // maintenance pass; with no traffic, each pass claims its window. The
    // first one, on a fresh table, launches and bills the time it held
    // the window; later ones find nothing dirtied and bill nothing.
    let table = Arc::new(SlabHash::<KeyValue>::new(SlabHashConfig::with_buckets(32)));
    let broker = Broker::spawn(
        Arc::clone(&table),
        BrokerConfig {
            write_shed_headroom: u64::MAX,
            idle_tick: Duration::from_millis(1),
            ..BrokerConfig::default()
        },
    )
    .with_metrics_addr("127.0.0.1:0")
    .expect("start exporter");
    let addr = broker.metrics_addr().expect("exporter bound");
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        let body = scrape_text(addr).expect("scrape");
        assert!(
            body.contains("slab_maint_pause_seconds_bucket{le="),
            "pause histogram missing:\n{body}"
        );
        if sample(&body, "slab_maint_pause_seconds_count").unwrap_or(0.0) >= 1.0 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "no idle pass billed a pause:\n{body}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    // A live scrape reads each series at its own instant, so compare the
    // series once the broker has stopped.
    let registry = broker.metrics();
    broker.shutdown();
    let body = registry.render_prometheus();
    let idle = sample(&body, "slab_ingress_maintenance_total{reason=\"idle\"}");
    assert!(idle.unwrap() >= 1.0, "{body}");
    // Every billed idle pass launched, so each one billed a pause.
    let pauses = sample(&body, "slab_maint_pause_seconds_count");
    assert_eq!(idle, pauses, "{body}");
    let paused = sample(&body, "slab_maint_pause_seconds_sum").unwrap();
    assert!(paused > 0.0, "{body}");
}

#[test]
fn dispatch_passes_show_their_pause_in_the_scrape() {
    // Every CAS fails, so each REPLACE burns its retry budget and its
    // cohort runs a `dispatch` pass before answering. No other operation
    // is in flight, so every pass claims its window; the first launches,
    // and the rest find nothing dirtied.
    let table = Arc::new(SlabHash::<KeyValue>::new(SlabHashConfig::with_buckets(32)));
    let broker = Broker::spawn(
        Arc::clone(&table),
        BrokerConfig {
            chaos: Some(FaultPlan::seeded(0x4EC0).with_cas_failures(1.0)),
            ..BrokerConfig::default()
        },
    );
    let registry = broker.metrics();
    let client = broker.handle();
    for k in 1..=4u32 {
        let reply = client.call_with_deadline(Request::replace(k, k), Duration::from_secs(5));
        assert!(reply.is_err(), "a REPLACE landed with every CAS failing");
    }
    drop(client);
    broker.shutdown();
    let body = registry.render_prometheus();
    let passes = |reason: &str| {
        sample(
            &body,
            &format!("slab_ingress_maintenance_total{{reason=\"{reason}\"}}"),
        )
        .unwrap_or_else(|| panic!("no {reason} count:\n{body}"))
    };
    assert!(passes("dispatch") >= 1.0, "{body}");
    // Every pass, `dispatch`'s included, billed the window it held.
    let all: f64 = ["idle", "admission", "dispatch"]
        .into_iter()
        .map(passes)
        .sum();
    assert_eq!(
        sample(&body, "slab_maint_pause_seconds_count"),
        Some(all),
        "{body}"
    );
}

#[test]
fn exporter_serves_the_overloaded_broker_live() {
    // A shed watermark nothing satisfies: writes shed, reads flow.
    let table = Arc::new(SlabHash::<KeyValue>::new(SlabHashConfig::with_buckets(32)));
    let broker = Broker::spawn(
        Arc::clone(&table),
        BrokerConfig {
            write_shed_headroom: u64::MAX,
            ..BrokerConfig::default()
        },
    )
    .with_metrics_addr("127.0.0.1:0")
    .expect("bind exporter");
    let addr = broker.metrics_addr().expect("bound");

    let client = broker.handle();
    for k in 1..=256u32 {
        let _ = client.call(Request::replace(k, k));
        let _ = client.call(Request::search(k));
    }
    let body = scrape_text(addr).expect("scrape");

    // The acceptance surface: queue depth, shed total, maintenance passes,
    // and the per-stage latency histogram.
    assert!(
        sample(&body, "slab_ingress_queue_depth").is_some(),
        "{body}"
    );
    assert!(sample(&body, "slab_ingress_shed_total").unwrap() > 0.0);
    assert!(
        sample(&body, "slab_ingress_maintenance_total").is_some(),
        "{body}"
    );
    for stage in ["queue_wait", "admission", "dispatch", "execute", "reply"] {
        let label = format!("stage=\"{stage}\"");
        let buckets = bucket_counts(&body, "slab_ingress_stage_seconds", &label);
        assert!(!buckets.is_empty(), "missing stage series {label}:\n{body}");
        for pair in buckets.windows(2) {
            assert!(pair[1].1 >= pair[0].1, "stage {stage} cumulativity");
        }
        assert_eq!(buckets.last().unwrap().0, "+Inf");
    }
    // Reads completed, so the execute-stage histogram saw traffic.
    assert!(sample(&body, "slab_ingress_stage_seconds_count{stage=\"execute\"}").unwrap() > 0.0);
    // Seconds, not nanoseconds: a completed read spends far less than a
    // second executing, so the sum must be well under count * 1s.
    let exec_sum = sample(&body, "slab_ingress_stage_seconds_sum{stage=\"execute\"}").unwrap();
    let exec_count = sample(&body, "slab_ingress_stage_seconds_count{stage=\"execute\"}").unwrap();
    assert!(exec_sum < exec_count, "unit scale must convert ns -> s");

    drop(client);
    broker.shutdown();
}

/// One serialized run of a default-config broker under a fixed allocation
/// fault plan on the sequential grid; returns every call's reply and the
/// ingress-event lines of the trace.
fn shed_trace_run(seed: u64) -> (Vec<Result<OpResult, IngressError>>, String) {
    // Two buckets, so chains must grow and every link is an allocation the
    // plan may fail.
    let table = Arc::new(SlabHash::<KeyValue>::new(SlabHashConfig::with_buckets(2)));
    let session = TraceSession::begin(TraceConfig::default());
    let broker = Broker::spawn(
        Arc::clone(&table),
        BrokerConfig {
            grid: Some(Grid::sequential()),
            // No idle ticks: the broker thread never takes the lock, so
            // every serial call runs inline on this thread and draws from
            // this thread's fault stream.
            idle_tick: Duration::from_secs(60),
            chaos: Some(FaultPlan::seeded(seed).with_alloc_failures(0.3)),
            ..BrokerConfig::default()
        },
    );
    let client = broker.handle();
    // Strictly serialized calls: one envelope per batch, so the replies
    // and the event stream depend only on the request sequence and the
    // chaos seed.
    let replies = (1..=256u32)
        .map(|k| client.call_with_deadline(Request::replace(k, k), Duration::from_secs(5)))
        .collect();
    drop(client);
    broker.shutdown();
    let trace = session.finish();
    let events = trace
        .to_jsonl()
        .lines()
        .filter(|l| l.contains("ingress"))
        .collect::<Vec<_>>()
        .join("\n");
    (replies, events)
}

#[test]
fn shed_replies_replay_byte_identically_under_chaos() {
    let (replies, events) = shed_trace_run(0xB0B);
    let injected = Err(IngressError::Table(TableError::OutOfSlabs(
        AllocError::Injected,
    )));
    assert!(
        replies.contains(&injected),
        "failed links must answer a typed error: {replies:?}"
    );
    assert_eq!(
        shed_trace_run(0xB0B),
        (replies, events),
        "replies and the ingress event stream must replay byte-identically"
    );
}

#[test]
fn deletes_through_the_broker_relieve_write_pressure() {
    // Fixed 1024-slab capacity with the shed watermark just below the
    // initial free headroom: inserts walk `free_slabs` under the watermark
    // and writes shed. Deleting the landed keys through the same broker
    // leaves tombstones; the next shed cohort's maintenance pass (or an
    // idle one) compacts them away, headroom clears the watermark, and a
    // later INSERT lands.
    let table = Arc::new(SlabHash::<KeyValue, _>::with_allocator(
        SlabHashConfig::with_buckets(16),
        SlabAlloc::new(SlabAllocConfig::small(1, 1)),
    ));
    let broker = Broker::spawn(
        Arc::clone(&table),
        BrokerConfig {
            write_shed_headroom: 990,
            ..BrokerConfig::default()
        },
    );
    let client = broker.handle();
    let mut landed = Vec::new();
    for k in 1..=2000u32 {
        match client.call_with_deadline(Request::insert(k, k), Duration::from_secs(5)) {
            Ok(_) => landed.push(k),
            Err(IngressError::ShedWrite) => break,
            Err(other) => panic!("insert {k}: {other:?}"),
        }
    }
    assert!(
        !landed.is_empty() && landed.len() < 2000,
        "the workload must land some inserts, then shed (landed {})",
        landed.len()
    );
    for &k in &landed {
        assert_eq!(client.remove(k), Ok(Some(k)), "delete {k} under pressure");
    }
    let relieved = (10_000..10_050u32).any(|k| {
        client
            .call_with_deadline(Request::insert(k, k), Duration::from_secs(5))
            .is_ok()
    });
    assert!(relieved, "deletes must let a later write land");
    drop(client);
    let stats = broker.shutdown();
    assert!(stats.shed() >= 1);
    assert_eq!(stats.completed as usize, 2 * landed.len() + 1);
}
