//! Host-side launch-path throughput, machine-readable.
//!
//! Measures the dispatch overhaul end to end — persistent executor pool vs
//! the legacy scoped-thread baseline on identical workloads and grid width,
//! plus the sharded-ownership vs flat batch ablation — and emits
//! `BENCH_8.json` so later PRs have a perf trajectory to beat.
//!
//! Sections:
//! * `build` — bulk REPLACE build of n pairs at 60 % utilization;
//! * `search` — n searches through a reused [`BatchBuffer`];
//! * `concurrent_batch` — the Fig. 7 setting: many moderate mixed batches
//!   (Γ = 40 % updates), where per-launch spawn cost dominates the legacy
//!   path;
//! * `partitioned` — the headline of this bench: a *hot-key* batch stream
//!   (half the requests hammer a small spread of keys) dispatched flat vs
//!   through sharded ownership (each executor owns a contiguous bucket
//!   range), plus the retired sort-then-scatter path (`sorted_mops`) kept
//!   as an ablation baseline — the PR 5 design whose 0.82x regression the
//!   shard map replaced. The hot runs execute under chaos *yield*
//!   scheduling (`simt::chaos`, yield-only — no fault injection), which
//!   forces the cross-thread interleavings a parallel machine produces
//!   naturally; without it a single-core CI host never hits the
//!   read-then-CAS window and the contention being measured would not
//!   exist. Every lost CAS counted is a real lost race. The `uniform`
//!   sub-object reports the same three modes on the uniform-key workload
//!   with no chaos — that is the routing overhead sharding pays when there
//!   is no contention to remove;
//! * `contention` — one hot-key batch traced twice under the same yield
//!   chaos: flat chunking splits a hot bucket's requests across workers
//!   and manufactures CAS retries, sharded routing serializes them on the
//!   bucket's owner, and the per-bucket heatmap (with its owning-shard
//!   column) shows the collapse.
//!
//! Flags: `--quick` (CI sizes), `--n <log2>` (default 17, quick 14),
//! `--threads N`, `--reps R` (best-of, default 5, quick 3),
//! `--out <path>` (default `BENCH_8.json`).
//!
//! On a single-core host a width-1 grid runs both dispatch strategies
//! through the same inline path; pass `--threads 2` or more to exercise
//! the pool. `host_threads` in the output records the machine's real
//! parallelism so cross-host comparisons stay honest.

use std::time::Instant;

use simt::chaos::ChaosGuard;
use simt::telemetry::{TraceConfig, TraceSession};
use simt::Grid;
use slab_bench::{concurrent_workload, mops, random_pairs, Args, Gamma};
use slab_hash::{BatchBuffer, KeyValue, Request, SlabHash};

/// Yield probability for the hot-key contention runs: before each atomic
/// RMW the executing thread yields with this probability, so hot-bucket
/// races happen at simulation density rather than host-preemption density.
/// Applied identically to every mode being compared.
const HOT_YIELD_P: f64 = 0.2;

fn main() {
    let args = Args::parse();
    let quick = args.flag("quick");
    let log_n: u32 = args.value("n").unwrap_or(if quick { 14 } else { 17 });
    let n = 1usize << log_n;
    let threads = args
        .value::<usize>("threads")
        .unwrap_or_else(|| Grid::default().num_threads());
    let reps: usize = args.value("reps").unwrap_or(if quick { 3 } else { 5 });
    let out: String = args.value("out").unwrap_or_else(|| "BENCH_8.json".into());
    let (num_batches, batch_size) = if quick { (16, 1 << 10) } else { (64, 1 << 12) };
    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());

    let pooled = Grid::new(threads);
    let scoped = Grid::scoped(threads);
    println!(
        "Launch-path throughput: n = 2^{log_n}, {threads} threads, \
         {num_batches} batches x {batch_size} ops, best of {reps}"
    );

    let build = [build_mops(n, &pooled, reps), build_mops(n, &scoped, reps)];
    println!(
        "build:            pooled {} M ops/s, scoped {} M ops/s ({:.2}x)",
        mops(build[0]),
        mops(build[1]),
        build[0] / build[1]
    );

    let search = [search_mops(n, &pooled, reps), search_mops(n, &scoped, reps)];
    println!(
        "search:           pooled {} M ops/s, scoped {} M ops/s ({:.2}x)",
        mops(search[0]),
        mops(search[1]),
        search[0] / search[1]
    );

    let concurrent = [
        concurrent_mops_mode(n, batch_size, num_batches, &pooled, reps, Mode::Flat),
        concurrent_mops_mode(n, batch_size, num_batches, &scoped, reps, Mode::Flat),
    ];
    println!(
        "concurrent batch: pooled {} M ops/s, scoped {} M ops/s ({:.2}x)",
        mops(concurrent[0]),
        mops(concurrent[1]),
        concurrent[0] / concurrent[1]
    );
    if concurrent[0] <= concurrent[1] {
        println!(
            "WARNING: pooled dispatch did not beat the scoped baseline on the \
             concurrent-batch workload (expected on multi-core hosts)"
        );
    }

    // Routing overhead on the uniform workload (no contention to remove, no
    // chaos): what sharding costs when it cannot win.
    let uniform = [
        concurrent_mops_mode(n, batch_size, num_batches, &pooled, reps, Mode::Sharded),
        concurrent[0],
        concurrent_mops_mode(n, batch_size, num_batches, &pooled, reps, Mode::Sorted),
    ];
    println!(
        "uniform overhead: sharded {} M ops/s, flat {} M ops/s ({:.2}x); \
         sorted ablation {} M ops/s ({:.2}x)",
        mops(uniform[0]),
        mops(uniform[1]),
        uniform[0] / uniform[1],
        mops(uniform[2]),
        uniform[2] / uniform[1],
    );

    // The headline: hot-key batches under yield chaos, where flat chunking
    // manufactures CAS retries that ownership dispatch removes.
    let hot_keys = hot_key_count(threads);
    let hot = [
        hot_dispatch_mops(threads, batch_size, num_batches, &pooled, reps, Mode::Sharded),
        hot_dispatch_mops(threads, batch_size, num_batches, &pooled, reps, Mode::Flat),
        hot_dispatch_mops(threads, batch_size, num_batches, &pooled, reps, Mode::Sorted),
    ];
    println!(
        "hot partitioning: sharded {} M ops/s, flat {} M ops/s ({:.2}x); \
         sorted ablation {} M ops/s ({:.2}x) \
         [{hot_keys} hot keys, 75% hot, chaos yields p={HOT_YIELD_P}]",
        mops(hot[0]),
        mops(hot[1]),
        hot[0] / hot[1],
        mops(hot[2]),
        hot[2] / hot[1],
    );
    if hot[0] <= hot[1] {
        println!(
            "WARNING: sharded ownership dispatch did not beat flat batches \
             on the hot-key workload — the contention fix has regressed"
        );
    }

    let contention = contention_section(threads);

    let json = format!(
        "{{\n  \
         \"bench\": \"launch_path_throughput\",\n  \
         \"issue\": 8,\n  \
         \"threads\": {threads},\n  \
         \"host_threads\": {host_threads},\n  \
         \"n\": {n},\n  \
         \"reps\": {reps},\n  \
         \"workload\": {{\"gamma\": \"mixed_40_updates\", \"batch_size\": {batch_size}, \"num_batches\": {num_batches}}},\n  \
         \"build\": {},\n  \
         \"search\": {},\n  \
         \"concurrent_batch\": {},\n  \
         \"partitioned\": {{\"method\": \"hot_key_chaos_yields\", \"chaos_yields\": {HOT_YIELD_P}, \
         \"hot_keys\": {hot_keys}, \"hot_fraction\": 0.75, \
         \"partitioned_mops\": {:.3}, \"unpartitioned_mops\": {:.3}, \"sorted_mops\": {:.3}, \"speedup\": {:.3}, \
         \"uniform\": {{\"sharded_mops\": {:.3}, \"flat_mops\": {:.3}, \"sorted_mops\": {:.3}, \"ratio\": {:.3}}}}},\n  \
         \"contention\": {}\n\
         }}\n",
        pair_json(build),
        pair_json(search),
        pair_json(concurrent),
        hot[0],
        hot[1],
        hot[2],
        hot[0] / hot[1],
        uniform[0],
        uniform[1],
        uniform[2],
        uniform[0] / uniform[1],
        contention,
    );
    std::fs::write(&out, json).expect("write bench json");
    println!("wrote {out}");
}

/// Number of hot keys for the contention workloads: a few per executor, so
/// every shard owns some hot buckets and owners stay busy on their own
/// shard (steal-on-idle staying quiet is part of what is being measured).
fn hot_key_count(threads: usize) -> usize {
    threads.max(4)
}

/// Fraction of the hot-key stream that hammers the hot set (as n of 4).
const HOT_IN_4: u32 = 3;

/// The `g`-th request of the hot-key stream: [`HOT_IN_4`] of every 4
/// requests replace one of the `hot` hot keys (cycling through the whole
/// set), the rest replace a key from a warm background pool of `pool` keys.
/// All keys pre-exist (see [`hot_table_pairs`]), so the steady state is
/// pure replace/CAS traffic.
fn hot_request(g: u32, hot: &[u32], pool: usize) -> Request {
    if g % 4 < HOT_IN_4 {
        Request::replace(hot[(g / 4 * HOT_IN_4 + g % 4) as usize % hot.len()], g)
    } else {
        Request::replace(1 + (g / 4) % pool as u32, g)
    }
}

/// Picks `count` hot keys whose buckets spread *evenly* across the
/// `threads` dispatch shards (probed against the same table geometry the
/// runs use, `seed`). Skew across shards would measure load imbalance;
/// the contention runs are after hot-*bucket* CAS traffic under balanced
/// load, which is the regime ownership dispatch targets.
fn balanced_hot_keys(count: usize, threads: usize, table_elements: usize, seed: u64) -> Vec<u32> {
    let probe = SlabHash::<KeyValue>::for_expected_elements(table_elements, 0.6, seed);
    let map = probe.shard_map(threads as u32);
    let shards = map.num_shards() as usize;
    let quota = count.div_ceil(shards);
    let mut per_shard = vec![0usize; shards];
    let mut keys = Vec::with_capacity(count);
    let mut candidate = 0x1000_0000u32;
    while keys.len() < count {
        let shard = map.shard_of(probe.bucket_of(candidate)) as usize;
        if per_shard[shard] < quota {
            per_shard[shard] += 1;
            keys.push(candidate);
        }
        candidate += 7919;
    }
    keys
}

/// Every key the hot-key stream can touch, for pre-building the table.
fn hot_table_pairs(hot: &[u32], pool: usize) -> Vec<(u32, u32)> {
    hot.iter()
        .map(|&k| (k, 0))
        .chain((0..pool as u32).map(|k| (1 + k, 0)))
        .collect()
}

/// The hot-key dispatch benchmark: `num_batches` × `batch_size` requests,
/// half hammering a small hot-key set, executed under yield chaos so the
/// read-then-CAS races a parallel machine produces naturally happen at
/// simulation density on any host. Same pre-built table, same chaos plan,
/// same batches for every mode — only the dispatch strategy differs.
fn hot_dispatch_mops(
    threads: usize,
    batch_size: usize,
    num_batches: usize,
    grid: &Grid,
    reps: usize,
    mode: Mode,
) -> f64 {
    let pool = batch_size;
    let hot = balanced_hot_keys(hot_key_count(threads), threads, hot_key_count(threads) + pool, 7);
    let pairs = hot_table_pairs(&hot, pool);
    let mut buffers: Vec<BatchBuffer> = (0..num_batches)
        .map(|b| {
            (0..batch_size)
                .map(|i| hot_request((b * batch_size + i) as u32, &hot, pool))
                .collect()
        })
        .collect();
    let _chaos = ChaosGuard::new(HOT_YIELD_P);
    let secs = best_secs(reps, || {
        let t = SlabHash::<KeyValue>::for_expected_elements(pairs.len(), 0.6, 7);
        t.bulk_build(&pairs, grid);
        for b in buffers.iter_mut() {
            b.reset_results();
        }
        let start = Instant::now();
        for b in buffers.iter_mut() {
            match mode {
                Mode::Flat => {
                    t.execute_buffer(b, grid);
                }
                Mode::Sharded => {
                    t.execute_buffer_partitioned(b, grid);
                }
                Mode::Sorted => {
                    t.try_execute_batch_bucket_sorted(b.requests_mut(), grid)
                        .expect("sorted ablation launch");
                }
            }
        }
        start.elapsed().as_secs_f64()
    });
    (batch_size * num_batches) as f64 / secs / 1e6
}

/// Traces one hot-key batch through flat and sharded dispatch (under the
/// same yield chaos as the throughput runs) and reports the CAS-retry
/// collapse: flat warp chunking splits a hot bucket's requests across
/// concurrent workers, while sharded routing gives every bucket exactly
/// one owner. Prints the sharded heatmap with its owning-shard column and
/// returns the JSON fragment.
fn contention_section(threads: usize) -> String {
    let grid = Grid::new(threads);
    let batch_ops = 16 * 1024usize;
    let pool = batch_ops / 4;
    let hot = balanced_hot_keys(hot_key_count(threads), threads, hot_key_count(threads) + pool, 13);
    let pairs = hot_table_pairs(&hot, pool);
    let run = |sharded: bool| {
        let t = SlabHash::<KeyValue>::for_expected_elements(pairs.len(), 0.6, 13);
        t.bulk_build(&pairs, &grid);
        let mut reqs: Vec<Request> = (0..batch_ops as u32)
            .map(|g| hot_request(g, &hot, pool))
            .collect();
        let _chaos = ChaosGuard::new(HOT_YIELD_P);
        let session = TraceSession::begin(TraceConfig::default());
        let report = if sharded {
            t.execute_batch_partitioned(&mut reqs, &grid)
        } else {
            t.execute_batch(&mut reqs, &grid)
        };
        let trace = session.finish();
        let audit = t.audit().expect("contention table audits clean");
        let heat = t.contention_heatmap_sharded(&audit, Some(&trace), threads as u32);
        (report.counters.cas_failures, heat)
    };
    let (flat_cas, _) = run(false);
    let (sharded_cas, sharded_heat) = run(true);
    println!(
        "contention:       hot-key batch CAS failures: flat {flat_cas}, sharded {sharded_cas} \
         [chaos yields p={HOT_YIELD_P}]"
    );
    println!("{}", sharded_heat.render_top_k(8));
    format!(
        "{{\"hot_keys\": {}, \"batch_ops\": {batch_ops}, \"chaos_yields\": {HOT_YIELD_P}, \
         \"flat_cas_failures\": {flat_cas}, \"sharded_cas_failures\": {sharded_cas}}}",
        hot.len()
    )
}

/// `{"pooled_mops": …, "scoped_mops": …, "speedup": …}` for one section.
fn pair_json([pooled, scoped]: [f64; 2]) -> String {
    format!(
        "{{\"pooled_mops\": {pooled:.3}, \"scoped_mops\": {scoped:.3}, \"speedup\": {:.3}}}",
        pooled / scoped
    )
}

/// Smallest wall time over `reps` runs, in seconds (never zero).
fn best_secs(reps: usize, mut run: impl FnMut() -> f64) -> f64 {
    (0..reps.max(1))
        .map(|_| run())
        .fold(f64::INFINITY, f64::min)
        .max(1e-9)
}

/// Bulk build of n pairs into a fresh table, M ops/s.
fn build_mops(n: usize, grid: &Grid, reps: usize) -> f64 {
    let pairs = random_pairs(n, 0);
    let secs = best_secs(reps, || {
        let t = SlabHash::<KeyValue>::for_expected_elements(n, 0.6, 1);
        let start = Instant::now();
        t.bulk_build(&pairs, grid);
        start.elapsed().as_secs_f64()
    });
    n as f64 / secs / 1e6
}

/// n searches (all hits) through a reused buffer, M ops/s.
fn search_mops(n: usize, grid: &Grid, reps: usize) -> f64 {
    let pairs = random_pairs(n, 0);
    let t = SlabHash::<KeyValue>::for_expected_elements(n, 0.6, 1);
    t.bulk_build(&pairs, grid);
    let mut batch: BatchBuffer = pairs.iter().map(|&(k, _)| Request::search(k)).collect();
    let secs = best_secs(reps, || {
        batch.reset_results();
        let start = Instant::now();
        t.execute_buffer(&mut batch, grid);
        start.elapsed().as_secs_f64()
    });
    n as f64 / secs / 1e6
}

/// How the concurrent-batch workload dispatches each batch.
#[derive(Clone, Copy, PartialEq)]
enum Mode {
    /// Caller order, warp-chunked (the default execute path).
    Flat,
    /// Sharded ownership dispatch (each executor owns a bucket range).
    Sharded,
    /// The retired PR 5 sort-then-scatter path, kept as an ablation
    /// baseline for the regression this PR fixes.
    Sorted,
}

/// The concurrent-batch workload: pre-built table, then `num_batches`
/// mixed batches executed back to back. Requests are materialized once;
/// each rep rebuilds a fresh table (batches mutate it) and resets results.
fn concurrent_mops_mode(
    initial: usize,
    batch_size: usize,
    num_batches: usize,
    grid: &Grid,
    reps: usize,
    mode: Mode,
) -> f64 {
    let w = concurrent_workload(initial, Gamma::MIXED_40_UPDATES, batch_size, num_batches, 3);
    let initial_pairs: Vec<(u32, u32)> = w
        .initial_keys
        .iter()
        .map(|&k| (k, k ^ 0x5555_5555))
        .collect();
    let mut buffers: Vec<BatchBuffer> = w
        .batches
        .iter()
        .map(|ops| ops.iter().map(|o| o.to_request()).collect())
        .collect();
    let capacity = initial + batch_size * num_batches;
    let secs = best_secs(reps, || {
        let t = SlabHash::<KeyValue>::for_expected_elements(capacity, 0.6, 7);
        t.bulk_build(&initial_pairs, grid);
        for b in buffers.iter_mut() {
            b.reset_results();
        }
        let start = Instant::now();
        for b in buffers.iter_mut() {
            match mode {
                Mode::Flat => {
                    t.execute_buffer(b, grid);
                }
                Mode::Sharded => {
                    t.execute_buffer_partitioned(b, grid);
                }
                Mode::Sorted => {
                    t.try_execute_batch_bucket_sorted(b.requests_mut(), grid)
                        .expect("sorted ablation launch");
                }
            }
        }
        start.elapsed().as_secs_f64()
    });
    (batch_size * num_batches) as f64 / secs / 1e6
}
