//! Profiling tour of the telemetry layer: a Zipf-skewed update/search
//! workload traced end to end — per-warp event traces (exported as JSON
//! Lines and chrome://tracing), work-distribution histograms, a per-bucket
//! contention heatmap, and the roofline model's per-resource attribution.
//!
//! Run with: `cargo run --release --example profile [output-dir]`
//! (default output dir: `target/profile`). Load the written `trace.json`
//! at chrome://tracing or <https://ui.perfetto.dev>.
//!
//! Pass `--metrics <addr>` to serve the ingress epilogue's live metrics
//! plane as Prometheus text while it runs — then
//! `curl http://<addr>/metrics` for queue depth, shed totals, maintenance
//! passes, and the per-stage latency histograms.

use std::path::PathBuf;

use simt::{ChaosGuard, FaultPlan, GpuModel, PerfCounters};
use slab_hash::{KeyValue, Request, SlabHash, SlabHashConfig};
use telemetry::{Histograms, TraceConfig, TraceSession};

/// Keys drawn from a Zipf(s) distribution over `universe` distinct keys:
/// rank r is picked with probability ∝ 1/r^s. Inverse-CDF sampling over the
/// precomputed harmonic prefix sums, keyed by a fixed-seed xorshift stream,
/// so every run profiles the identical workload.
struct Zipf {
    cdf: Vec<f64>,
    state: u64,
}

impl Zipf {
    fn new(universe: usize, s: f64, seed: u64) -> Self {
        let mut cdf = Vec::with_capacity(universe);
        let mut acc = 0.0;
        for rank in 1..=universe {
            acc += 1.0 / (rank as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Self { cdf, state: seed }
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x
    }

    /// The next key: the Zipf rank (hot keys are the low ranks).
    fn next_key(&mut self) -> u32 {
        let u = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        self.cdf.partition_point(|&c| c < u) as u32
    }
}

fn main() {
    // Positional output dir plus the opt-in `--metrics <addr>` flag.
    let mut out = PathBuf::from("target/profile");
    let mut metrics_addr: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--metrics" {
            metrics_addr = args.next();
        } else if !a.starts_with("--") {
            out = PathBuf::from(a);
        }
    }
    std::fs::create_dir_all(&out).expect("create output dir");

    // --- The workload: Zipf-skewed updates, then Zipf-skewed searches ------
    let universe = 10_000;
    let num_ops = 40_000;
    let mut zipf = Zipf::new(universe, 1.05, 0x5eed_cafe);
    let updates: Vec<Request> = (0..num_ops)
        .map(|i| Request::replace(zipf.next_key(), i as u32))
        .collect();
    let searches: Vec<Request> = (0..num_ops)
        .map(|_| Request::search(zipf.next_key()))
        .collect();

    // Deliberately under-bucketed (β ≈ 2.6): buckets chain 2–4 slabs deep,
    // so the trace exercises traversal, allocation, and link contention.
    let table = SlabHash::<KeyValue>::new(SlabHashConfig {
        seed: 0x9f0f,
        ..SlabHashConfig::with_buckets(256)
    });
    let grid = simt::Grid::default();
    let model = GpuModel::tesla_k40c();
    println!(
        "profiling slab hash: {} buckets, {num_ops} Zipf({}) updates + {num_ops} searches",
        table.num_buckets(),
        1.05,
    );

    // Light chaos keeps the contention paths honest: the profile must look
    // the same whether or not the scheduler is adversarial.
    let _chaos = ChaosGuard::plan(
        FaultPlan::seeded(0xC0FFEE)
            .with_yields(0.05)
            .with_cas_failures(0.02),
    );

    // --- Traced launches ---------------------------------------------------
    let session = TraceSession::begin(TraceConfig::default());
    let mut reqs = updates;
    let update_report = table.execute_batch(&mut reqs, &grid);
    let mut reqs = searches;
    let search_report = table.execute_batch(&mut reqs, &grid);
    let trace = session.finish();

    let mut counters = PerfCounters::default();
    counters.merge(&update_report.counters);
    counters.merge(&search_report.counters);
    let mut histograms = Histograms::default();
    histograms.merge(&update_report.histograms);
    histograms.merge(&search_report.histograms);

    println!(
        "\ncaptured {} trace events ({} dropped), {} retired ops, {} CAS failures",
        trace.events().len(),
        trace.dropped(),
        counters.ops,
        counters.cas_failures,
    );

    // --- Work-distribution histograms --------------------------------------
    println!(
        "\n{}",
        histograms.rounds_per_op.render("warp rounds per op")
    );
    println!("{}", histograms.retries_per_op.render("CAS retries per op"));
    println!(
        "{}",
        histograms
            .chain_slabs
            .render("chain slabs traversed per op")
    );
    println!(
        "{}",
        histograms
            .resident_hops
            .render("allocator resident-block hops")
    );

    // --- Contention heatmap -------------------------------------------------
    let audit = table.audit().expect("audit");
    let heatmap = table.contention_heatmap(&audit, Some(&trace));
    println!("\nhot buckets (score = cas_failures + tombstones + 16*(chain-1)):");
    println!("{}", heatmap.render_top_k(10));
    println!("bucket contention strip:\n{}", heatmap.render_strip(64));

    // --- Roofline attribution ----------------------------------------------
    let est = model.estimate(&counters, table.device_bytes());
    println!(
        "\nroofline ({}): modeled {:.3} ms, bound by {}",
        model.name,
        est.time_s * 1e3,
        est.bound
    );
    let mut pct_sum = 0.0;
    for (name, frac) in est.breakdown.fractions() {
        pct_sum += frac * 100.0;
        println!("  {name:<10} {:>5.1} %", frac * 100.0);
    }
    println!("  {:<10} {pct_sum:>5.1} %", "total");

    // --- Export + reconciliation -------------------------------------------
    let jsonl = out.join("trace.jsonl");
    let chrome = out.join("trace.json");
    trace.write_jsonl(&jsonl).expect("write jsonl");
    trace
        .write_chrome_trace(&chrome)
        .expect("write chrome trace");
    println!("\nwrote {} and {}", jsonl.display(), chrome.display());

    println!(
        "reconciliation: trace ops {} == counter ops {}: {}",
        trace.op_count(),
        counters.ops,
        trace.op_count() == counters.ops
    );
    println!(
        "reconciliation: trace retries {} == counter CAS failures {}: {}",
        trace.retry_sum(),
        counters.cas_failures,
        trace.retry_sum() == counters.cas_failures
    );
    assert_eq!(trace.op_count(), counters.ops);
    assert_eq!(trace.retry_sum(), counters.cas_failures);

    // --- Memory-pressure epilogue -------------------------------------------
    // Runs after `session.finish()` on purpose: maintenance traffic must not
    // perturb the 2x40k-op trace reconciliation above. Delete the whole
    // working set, then let one maintenance pass compact the tombstoned
    // chains and surface the allocator's pressure gauges.
    let mut dels: Vec<Request> = (0..universe as u32).map(Request::delete).collect();
    table.execute_batch(&mut dels, &grid);
    let maint = table.maintain(&grid);
    println!(
        "\nmaintenance after full churn: released {} slabs",
        maint.flushed.map_or(0, |f| f.slabs_released),
    );
    for gauge in table.allocator().pressure_gauges() {
        println!("  gauge {gauge}");
    }
    let audit = table.audit().expect("post-churn audit");
    println!(
        "post-churn audit: live {}, double frees {}, no_leaks {}",
        audit.live_elements,
        audit.double_frees,
        audit.no_leaks(),
    );
    assert_eq!(audit.double_frees, 0);
    assert!(audit.no_leaks(), "maintenance must account for every slab");

    // --- Ingress overload epilogue ------------------------------------------
    // Also after `session.finish()` on purpose (the broker would otherwise
    // emit ingress events into the reconciled trace). A deliberately
    // overloaded broker — a shed watermark nothing can satisfy — shows the
    // overload counters and the queue-depth histogram the ingress layer
    // bills: writes shed, reads still complete.
    let service = std::sync::Arc::new(SlabHash::<KeyValue>::new(SlabHashConfig::with_buckets(64)));
    let mut broker = slab_ingress::Broker::spawn(
        std::sync::Arc::clone(&service),
        slab_ingress::BrokerConfig {
            write_shed_headroom: u64::MAX,
            ..slab_ingress::BrokerConfig::default()
        },
    );
    if let Some(addr) = &metrics_addr {
        broker = broker
            .with_metrics_addr(addr)
            .expect("bind metrics exporter");
        let bound = broker.metrics_addr().expect("exporter bound");
        println!("\nmetrics exporter live: curl http://{bound}/metrics");
    }
    let client = broker.handle();
    for k in 0..512u32 {
        if k % 4 == 0 {
            let _ = client.call(Request::search(k));
        } else {
            let _ = client.call(Request::replace(k, k));
        }
    }
    drop(client);
    if let Some(addr) = broker.metrics_addr() {
        let body = simt::telemetry::scrape_text(addr).expect("self-scrape");
        println!("-- scrape excerpt of http://{addr}/metrics --");
        for line in body.lines().filter(|l| {
            l.starts_with("slab_ingress_shed_total")
                || l.starts_with("slab_ingress_maintenance_total")
                || l.starts_with("slab_ingress_stage_seconds_count")
        }) {
            println!("{line}");
        }
    }
    let ingress = broker.shutdown();
    println!(
        "\ningress under forced overload: {} submitted, {} completed (reads), \
         {} shed, {} timed out",
        ingress.submitted,
        ingress.completed,
        ingress.shed(),
        ingress.timed_out(),
    );
    println!(
        "{}",
        ingress
            .histograms
            .queue_depth
            .render("submission queue depth at dispatch")
    );
    assert!(ingress.shed() > 0, "forced overload must shed writes");
    assert!(ingress.completed > 0, "reads must survive write shedding");
}
