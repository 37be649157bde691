//! # ledger — the repository benchmark
//!
//! One command, four workloads, one output schema. Each workload drives one
//! path through the system's public API, checks every answer, and prints
//! its metrics as the last line of standard output:
//!
//! ```text
//! cargo run --release --manifest-path ledger/Cargo.toml -- \
//!     --workload <name> --seed <u64> [--seconds <n>] [--trace <0|1>] [--quick]
//! ```
//!
//! `--seconds` (default 20) is the measured phase; set-up comes on top.
//! `--trace 1` runs the same workload with spans and prints the per-layer
//! metrics instead of the end-to-end ones; end-to-end numbers only ever
//! come from an untraced run. `--quick` shrinks every size for smoke tests.
//!
//! The load comes from this one process: at most two generator threads or
//! connections (the width of the 2-core host the bounds were set on). The
//! grid is `available_parallelism()` wide, and the run record printed
//! before the result line carries it, with `nproc`, the git revision, the
//! features, and the seed.
//!
//! ## Workloads
//!
//! Every workload stores keys whose value is `key ^ 0x5555_5555`, so every
//! answer is checkable.
//!
//! | name | what runs | why |
//! |---|---|---|
//! | `kernel_search_hiutil` | `bulk_build` of 2^20 pairs at 85 % utilization (β > 1), then `execute_buffer` batches of 16 Ki SEARCH, half hits and half misses from a disjoint key domain, uniform. | The paper's query path where chains are long and a miss walks the whole chain. Slab visits and warp rounds are nearly all the time and nothing allocates, so read-path changes (tag filter, slab scan, warp primitives) show here first. |
//! | `kernel_churn` | 2^19 keys at 65 %, then a seeded stream of 4096-op batches through `execute_buffer`: half REPLACE of fresh keys, half DELETE of live keys, uniform. `maintain` runs after every 64th batch. | Writes beside reads: inserts allocate, deletes leave tombstones, `maintain` compacts. Allocator, CAS and compaction changes show here; the read path's share is small. |
//! | `ingress_open` | An in-process `Broker` over 2^20 keys at 65 %. One open-loop generator thread sends 90 % SEARCH and 10 % REPLACE on Zipf(0.99) keys, hot keys scattered across buckets: first at a fixed 25k ops/s, then up a ladder of rates that stops at the first rung that breaks the SLO. | Independent callers on a schedule, with hot keys. The queue and reply handoff dominate latency, and the high rungs coalesce batches large enough for sharded routing. Broker and routing changes show here; kernel changes barely do. |
//! | `wire_closed` | A `WireServer` on loopback and two `WireClient` threads, one call in flight each, same mix and keys as `ingress_open`. The broker and server start afresh for each measured segment of about a second (see "Host speed"). | Callers that wait for replies: a closed loop. Framing, syscalls and per-connection threads cost several times the in-process latency, so transport changes show here and nowhere else. |
//!
//! ## End-to-end metrics
//!
//! Every workload reports all five; the unit of work behind the latency
//! percentiles is the `execute_buffer` call for the kernel workloads and
//! the request for the two service workloads. `BENCHMARK.json` holds each
//! metric's bound: the share of the parent's median it may worsen by.
//!
//! | metric | unit | better | bound | meaning |
//! |---|---|---|---|---|
//! | `setup_s` | s | lower | 0.25 | median of nine set-ups: table build + preload (+ broker spawn, + server bind), as measured |
//! | `ops_per_s` | ops/s | higher | 0.25 | kernel: ops / time inside `execute_buffer` + `maintain`; `ingress_open`: completed / wall at the fixed rate; `wire_closed`: completed / time calling |
//! | `latency_p50_us` | us | lower | 0.25 | median batch call (kernel) or request (service) latency; for `ingress_open`, the median over the fixed phase's seconds of each second's median |
//! | `latency_p95_us` | us | lower | 0.25 | the same at p95 |
//! | `mem_bytes_per_key` | B/key | lower | 0.2 | VmRSS growth over table construction and preload / keys stored; for `kernel_churn`, the mean of samples every 64 batches up to batch 2048 |
//!
//! ### Host speed
//!
//! The 2-core virtual host the bounds were set on changes speed by up to
//! 2x over a few minutes with under 1 % CPU steal. In one series of ten
//! 20 s runs per workload it sped up by about a third between two runs,
//! and throughput as measured spread 20 to 33 % between its quartiles.
//! Longer runs do not help, since the drift is slower than a run. So
//! `kernel_search_hiutil`, `kernel_churn` and `wire_closed` state
//! `ops_per_s` and both latencies at the host's nominal speed.
//!
//! They measure in segments of at most a second. Before the first segment
//! and after each, once every thread the segment started has ended (the
//! grid's executors, and for `wire_closed` the broker and the server), a
//! window times a fixed reference 24 times: a miniature of the wire,
//! written with the standard library alone (`host`). The workload's times
//! are divided by how much slower than nominal the reference's median
//! sample ran. A window refuses to run while any other thread is alive, so
//! no thread of the repository's code, busy or parked, ever shares the
//! cores with the reference: a change that adds background work slows the
//! workload and never the reference, and the ledger cannot scale such a
//! change's numbers up. The run record keeps the factor as
//! `host.slowdown` and the times as measured as `measured.*`.
//!
//! `ingress_open`'s times are set by its schedule and its sleeps rather
//! than by work, and barely move with the host, so it reports them as
//! measured. What does move them is a host stall that holds the broker or
//! the generator for a good part of a second: in two runs of twenty, one
//! such stall raised the whole phase's p95 three to five times. So its
//! gated percentiles are the median over the phase's twelve seconds of
//! each second's percentile, and the whole phase's are in the run record
//! as `phase.*`. Every workload's `setup_s` is as measured, too, and has
//! the largest bound.
//!
//! Quartile spreads of ten runs, each with its own seed, as a share of
//! their median, in two sets with the runs interleaved (`|` separates the
//! sets; `measured` is the spread of the times before the division):
//!
//! | workload | `setup_s` | `ops_per_s` | `latency_p50_us` | `latency_p95_us` | `mem_bytes_per_key` |
//! |---|---|---|---|---|---|
//! | `kernel_search_hiutil` | 16.1 \| 9.8 % | 4.7 \| 7.9 % | 5.4 \| 8.2 % | 9.7 \| 8.9 % | 0.3 \| 0.4 % |
//! | (measured) | | 7.3 \| 2.4 % | 8.2 \| 2.6 % | 7.7 \| 5.1 % | |
//! | `kernel_churn` | 11.5 \| 7.3 % | 9.2 \| 7.3 % | 8.5 \| 8.4 % | 10.8 \| 8.4 % | 9.5 \| 3.3 % |
//! | (measured) | | 8.9 \| 5.7 % | 8.2 \| 2.9 % | 9.5 \| 12.5 % | |
//! | `ingress_open` | 10.3 \| 7.9 % | 0.0 \| 0.0 % | 4.3 \| 11.9 % | 26.7 \| 954 % | 0.3 \| 0.2 % |
//! | `wire_closed` | 8.4 \| 7.6 % | 4.3 \| 7.9 % | 4.3 \| 7.4 % | 4.2 \| 8.1 % | 0.3 \| 0.2 % |
//! | (measured) | | 11.2 \| 8.1 % | 11.5 \| 9.3 % | 13.1 \| 8.4 % | |
//!
//! The medians of the two sets differed by at most 6.0 % (`ingress_open`'s
//! `setup_s`). On a calm host the division adds the reference's own noise
//! (compare the measured rows); on a drifting one it removes most of the
//! drift. In a series where the host sped up by a third, windows taken
//! only before and after each run cut the quartile spread of throughput
//! from 27 to 22 % (search) and from 33 to 16 % (wire); in another series,
//! with the in-run windows above, throughput spread 5 to 7 % against 9 to
//! 10 % as measured.
//!
//! `ingress_open`'s p95 is the exception. Five of its twenty runs, three
//! of them in a row, fell in stretches when other processes kept the
//! host's cores busy: its p95 rose from about 87 µs to between 0.2 and
//! 3.4 ms, in most of each run's seconds, while its p50 rose by a tenth.
//! That is the scheduler's time slice: with two busy processes beside it,
//! `ingress_open` reads a p95 of 3.5 ms every run. No statistic within a
//! run removes a disturbance that lasts longer than the run, so the run
//! record states it: `host.foreign_cpu_share` is the share of the host's
//! CPU time that went to other processes (or to other machines, as steal)
//! while the workload ran. Undisturbed runs read 0.00 to 0.07; one busy
//! process beside the ledger reads about 0.4, two about 0.6. Compare runs
//! whose share is high with care, and rerun them.
//!
//! Why these and not others:
//!
//! - p95, not p99, is the gated tail. `ingress_open`'s p99 at 50k ops/s
//!   switched between about 90 µs and about 1 ms from run to run (1 % of
//!   requests is 500 a second, and some runs spend that many in scheduler
//!   stalls of a few hundred microseconds on two cores shared by four
//!   threads), while its p95 held within 3 %. p99, p99.9 and max are in
//!   the run record for every workload.
//! - `ingress_open`'s throughput is its goodput at the fixed rate. The rate
//!   ladder's highest SLO-meeting rung is `ladder.slo_rate_ops_s` in the
//!   run record, not a gated metric: the breaking rung moved between 90k
//!   and 180k ops/s from run to run, because one multi-millisecond host
//!   stall decides a rung's p99. The SLO: p99 ≤ 2 ms, no failures, and
//!   generator lag p99 ≤ 1 ms.
//! - Failures are not a metric, since a gated metric must never read 0.
//!   They are the result line's `failed` count (errors, refusals,
//!   timeouts, transport errors, wrong answers) against `attempted`, and
//!   every workload runs with `failed` = 0. Ladder rungs past the SLO may
//!   refuse requests by design; those are reported per rung in the run
//!   record, not in `failed`.
//! - The bounds are as tight as the spreads allow. Times, even stated at
//!   nominal speed, spread up to about 11 % between quartiles on an
//!   undisturbed host, so they keep 0.25, the largest bound allowed. A bound is per metric, not per workload, so
//!   memory's 0.2 is set by `kernel_churn`, whose resident set grows in
//!   steps of megabytes at points that depend on the seed's keys (it
//!   spreads about 6 %); on the other three workloads memory spreads under
//!   1 % and the bound is loose.
//!
//! `ingress_open` times each request from its *due* time, not its send
//! time, so a stalled generator cannot hide queueing; the generator sleeps
//! until the next due time, so its wake-up lateness (tens of microseconds)
//! is part of every request's latency and is reported as `loadgen.lag`. A
//! wrong answer, a model mismatch after churn, or a failed audit sets
//! `correct` to false and the exit code to 1.
//!
//! ## Per-layer metrics (`--trace 1`)
//!
//! Measured from outside each layer: `LaunchReport` counters and wall
//! times, `Reply.span`, `IngressStats`, the broker's metrics registry, and
//! the ledger's own spans around each call. A metric a workload does not
//! exercise reads 0. Each line names the end-to-end metric it should move.
//!
//! - `simt::warp` — `warp.rounds_per_op`: `ops_per_s` on `kernel_search_hiutil`.
//! - `slab_hash::ops`, the slab visit — `slab.reads_per_op`,
//!   `slab.tag_reads_per_op`, `slab.sector_ops_per_op`, `slab.bytes_per_op`
//!   (128 B per slab read, 32 B per sector, tag or atomic access) and
//!   `slab.model_k40c_mops` (the roofline model's K40c rate: modeled, never
//!   a stand-in for a measured number): `ops_per_s` and `latency_p50_us` on
//!   `kernel_search_hiutil`, and not `wire_closed`. `slab.cas_per_op` and
//!   `slab.cas_fail_ratio` (failures / CAS attempts): `latency_p95_us` on
//!   `ingress_open`, where hot keys contend; about 0 on `kernel_churn`,
//!   whose keys are uniform.
//! - `slab_alloc` — `alloc.allocs_per_op`, `alloc.frees_per_op`,
//!   `alloc.resident_changes_per_op`, `alloc.free_slabs_min`: `ops_per_s`
//!   and `mem_bytes_per_key` on `kernel_churn`; zero on
//!   `kernel_search_hiutil`.
//! - `slab_hash::maintenance` — `maint.busy_s`, `maint.share` (of the time
//!   `ops_per_s` divides by), `maint.slabs_released`, `maint.reclaimed`:
//!   `latency_p95_us` and `mem_bytes_per_key` on `kernel_churn`.
//! - `simt::grid` — `grid.launch_ms_p50` (`LaunchReport.wall`),
//!   `grid.call_overhead_us_p50` (call minus launch: routing and buffer
//!   work), `grid.warps_per_launch`: `latency_p50_us` on the kernel
//!   workloads. Broker launches are not visible from outside, so these
//!   read 0 on the service workloads.
//! - `slab_ingress::broker` — `broker.<stage>_us_{p50,p99,mean}` for the
//!   five stages `queue_wait`, `admission`, `dispatch`, `execute`, `reply`
//!   (from `Reply.span` on `ingress_open`; means only, from the registry's
//!   `slab_ingress_stage_seconds`, on `wire_closed`) and
//!   `broker.batch_size_mean`: `latency_p50_us` and `latency_p95_us` on
//!   `ingress_open` (and the ladder's SLO rate), and partly `wire_closed`.
//!   `broker.retried`, `broker.shed`, `broker.timed_out`: `failed`.
//! - `slab_ingress::transport` — `wire.client_call_us_mean`,
//!   `wire.server_broker_us_mean`, `wire.residual_us_mean` (client minus
//!   the broker's total: framing, syscalls and scheduling, unattributed
//!   until the wire has spans of its own), `wire.reconnects`,
//!   `wire.transport_errors`: `ops_per_s` and `latency_p50_us` on
//!   `wire_closed`, and never `ingress_open`.
//! - load generator — `loadgen.lag_us_p99`, `loadgen.backlog_max`: whether
//!   the generator, not the program, limited `ingress_open`.
//! - `reconcile.residual_pct` — the share of the end-to-end time no layer
//!   explains. Kernel: traced loop wall time minus the self times of
//!   `batch.execute`, `grid.launch` and `maint.call` (what is left is the
//!   ledger's own input generation and answer checks). `ingress_open`:
//!   request time from due to disposition minus `loadgen.lag` and the five
//!   stages. `wire_closed`: `wire.residual_us_mean` over the client mean.
//! - `trace.overhead_pct` — traced against untraced stretches of the same
//!   run (they alternate, so host drift cancels): `execute_buffer`
//!   throughput for the kernel workloads, median latency for
//!   `ingress_open`, call throughput for `wire_closed`.
//!
//! Spans are recorded only in the ledger's own code: `batch.execute` with
//! child `grid.launch` (placed at the call's start, `LaunchReport.wall`
//! long) and `maint.call` for the kernel workloads; a `request` root from
//! due time to disposition with children `loadgen.lag` and the five broker
//! stages for `ingress_open`; `client.call` for `wire_closed`. Request
//! spans are sampled 1 in 16. Spans stay in memory and are written at exit
//! to `ledger-trace/<workload>.jsonl` and `<workload>.trace.json`
//! (chrome://tracing) beside the ledger executable, under the build
//! directory.
//!
//! ## Comparing two commits
//!
//! Build each commit once, then alternate them: at least ten interleaved
//! pairs per workload, each pair with a fresh `--seed`, and a confirming
//! set on seeds not used before. Interleaving matters because of the drift
//! described above: back-to-back blocks of runs compare the host's drift,
//! not the code.
//!
//! ## Building and testing
//!
//! The ledger is a Cargo workspace of its own, so that defining the
//! benchmark adds files only under `ledger/`: it builds the repository's
//! crates by path, keeps its own `Cargo.lock`, and copies the repository's
//! release profile (a test fails when the copy drifts). Its tests run with
//! `cargo test --manifest-path ledger/Cargo.toml`, not with the
//! repository's `cargo test`; every run also checks that the workloads and
//! metrics it emits are the ones `BENCHMARK.json` declares.
//!
//! Wiring the ledger into CI, freezing the older `BENCH_*.json` files as
//! history and retiring `scripts/bench_gate.sh` touch files outside the
//! benchmark's own directory and are left to a follow-up change.

mod gen;
mod host;
mod kernel;
mod record;
mod service;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use simt::{GpuModel, Grid, PerfCounters};
use slab_hash::{KeyValue, OpResult, SlabHash};

use record::{Span, Summary};

/// Every end-to-end metric, in output order: (name, unit, better).
pub const END_TO_END: [(&str, &str, &str); 5] = [
    ("setup_s", "s", "lower"),
    ("ops_per_s", "ops/s", "higher"),
    ("latency_p50_us", "us", "lower"),
    ("latency_p95_us", "us", "lower"),
    ("mem_bytes_per_key", "B/key", "lower"),
];

/// Every per-layer metric, in output order: (name, unit, better).
pub const PER_LAYER: [(&str, &str, &str); 47] = [
    ("warp.rounds_per_op", "rounds/op", "lower"),
    ("slab.reads_per_op", "reads/op", "lower"),
    ("slab.tag_reads_per_op", "reads/op", "lower"),
    ("slab.sector_ops_per_op", "sectors/op", "lower"),
    ("slab.bytes_per_op", "B/op", "lower"),
    ("slab.model_k40c_mops", "Mops/s", "higher"),
    ("slab.cas_per_op", "cas/op", "lower"),
    ("slab.cas_fail_ratio", "ratio", "lower"),
    ("alloc.allocs_per_op", "allocs/op", "lower"),
    ("alloc.frees_per_op", "frees/op", "lower"),
    ("alloc.resident_changes_per_op", "changes/op", "lower"),
    ("alloc.free_slabs_min", "slabs", "higher"),
    ("maint.busy_s", "s", "lower"),
    ("maint.share", "ratio", "lower"),
    ("maint.slabs_released", "slabs", "higher"),
    ("maint.reclaimed", "slabs", "higher"),
    ("grid.launch_ms_p50", "ms", "lower"),
    ("grid.call_overhead_us_p50", "us", "lower"),
    ("grid.warps_per_launch", "warps", "higher"),
    ("broker.queue_wait_us_p50", "us", "lower"),
    ("broker.queue_wait_us_p99", "us", "lower"),
    ("broker.queue_wait_us_mean", "us", "lower"),
    ("broker.admission_us_p50", "us", "lower"),
    ("broker.admission_us_p99", "us", "lower"),
    ("broker.admission_us_mean", "us", "lower"),
    ("broker.dispatch_us_p50", "us", "lower"),
    ("broker.dispatch_us_p99", "us", "lower"),
    ("broker.dispatch_us_mean", "us", "lower"),
    ("broker.execute_us_p50", "us", "lower"),
    ("broker.execute_us_p99", "us", "lower"),
    ("broker.execute_us_mean", "us", "lower"),
    ("broker.reply_us_p50", "us", "lower"),
    ("broker.reply_us_p99", "us", "lower"),
    ("broker.reply_us_mean", "us", "lower"),
    ("broker.batch_size_mean", "requests", "higher"),
    ("broker.retried", "count", "lower"),
    ("broker.shed", "count", "lower"),
    ("broker.timed_out", "count", "lower"),
    ("wire.client_call_us_mean", "us", "lower"),
    ("wire.server_broker_us_mean", "us", "lower"),
    ("wire.residual_us_mean", "us", "lower"),
    ("wire.reconnects", "count", "lower"),
    ("wire.transport_errors", "count", "lower"),
    ("loadgen.lag_us_p99", "us", "lower"),
    ("loadgen.backlog_max", "requests", "lower"),
    ("reconcile.residual_pct", "%", "lower"),
    ("trace.overhead_pct", "%", "lower"),
];

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_RUNS: usize = 9;

/// Named metric values. Per-layer metrics a workload leaves unset read 0.
pub type Metrics = BTreeMap<&'static str, f64>;

/// Named values printed in the run record and never gated.
pub type Diagnostics = BTreeMap<String, f64>;

/// The workloads, in the order the module docs describe them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    KernelSearchHiutil,
    KernelChurn,
    IngressOpen,
    WireClosed,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::KernelSearchHiutil,
        Workload::KernelChurn,
        Workload::IngressOpen,
        Workload::WireClosed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::KernelSearchHiutil => "kernel_search_hiutil",
            Workload::KernelChurn => "kernel_churn",
            Workload::IngressOpen => "ingress_open",
            Workload::WireClosed => "wire_closed",
        }
    }

    fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Config {
    pub seed: u64,
    pub measure: Duration,
    pub trace: bool,
    pub quick: bool,
    /// Grid width: `available_parallelism()`.
    pub width: usize,
}

impl Config {
    /// A grid of its own for one workload. Its executor threads end when
    /// the workload drops its last clone, before the host reference's
    /// closing window.
    pub fn grid(&self) -> Grid {
        Grid::new(self.width)
    }

    /// `full` normally, `quick` under `--quick`.
    pub fn pick<T>(&self, full: T, quick: T) -> T {
        if self.quick {
            quick
        } else {
            full
        }
    }
}

/// `a / b`, or 0 when nothing was counted.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// The slab-visit, warp and allocator metrics of a merged counter block,
/// per request: the kernel workloads merge them from `LaunchReport`s, the
/// service workloads get them from the broker's `IngressStats`.
pub fn counter_metrics(m: &mut Metrics, c: &PerfCounters, requests: u64, working_set: u64) {
    let per_op = |x: u64| ratio(x as f64, requests as f64);
    m.insert("warp.rounds_per_op", per_op(c.warp_rounds));
    m.insert("slab.reads_per_op", per_op(c.slab_reads));
    m.insert("slab.tag_reads_per_op", per_op(c.tag_reads));
    m.insert(
        "slab.sector_ops_per_op",
        per_op(c.sector_reads + c.sector_writes),
    );
    m.insert("slab.bytes_per_op", per_op(c.bytes_moved()));
    m.insert(
        "slab.model_k40c_mops",
        GpuModel::tesla_k40c().estimate(c, working_set).mops(),
    );
    m.insert("slab.cas_per_op", per_op(c.atomics));
    m.insert(
        "slab.cas_fail_ratio",
        ratio(c.cas_failures as f64, c.atomics as f64),
    );
    m.insert("alloc.allocs_per_op", per_op(c.allocations));
    m.insert("alloc.frees_per_op", per_op(c.deallocations));
    m.insert("alloc.resident_changes_per_op", per_op(c.resident_changes));
}

/// Builds a table sized for `pairs` at `utilization` and bulk-loads them:
/// the table part of every workload's set-up.
pub fn build_table(
    pairs: &[(u32, u32)],
    utilization: f64,
    cfg: &Config,
    grid: &Grid,
) -> Result<SlabHash<KeyValue>, String> {
    let table = SlabHash::<KeyValue>::for_expected_elements(pairs.len(), utilization, cfg.seed);
    table
        .try_bulk_build(pairs, grid)
        .map_err(|e| format!("preload failed: {e}"))?;
    Ok(table)
}

/// `setup_s`: the median of the first set-up and `SETUP_RUNS - 1` repeats
/// made by `again`. Workloads repeat their set-up after the measured phase,
/// so memory freed by a repeat cannot blur the memory reading.
pub fn setup_median(
    first: Duration,
    mut again: impl FnMut() -> Result<Duration, String>,
) -> Result<f64, String> {
    let mut times = vec![first.as_secs_f64()];
    for _ in 1..SETUP_RUNS {
        times.push(again()?.as_secs_f64());
    }
    Ok(record::median(&times))
}

/// Answers checked against expectations. `failed` counts every request
/// that did not get its expected answer, typed failures included; `wrong`
/// only the answers that were not a typed failure, plus failed structural
/// checks — those make the run incorrect.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub wrong: u64,
}

impl Tally {
    pub fn check(&mut self, got: &OpResult, want: &OpResult) {
        self.attempted += 1;
        if got != want {
            self.failed += 1;
            if !matches!(got, OpResult::Failed(_)) {
                self.wrong += 1;
            }
        }
    }

    /// A request that ended in a typed refusal, timeout or transport error.
    pub fn refused(&mut self) {
        self.attempted += 1;
        self.failed += 1;
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub tally: Tally,
    pub e2e: Metrics,
    pub layers: Metrics,
    pub diagnostics: Diagnostics,
    pub spans: Vec<Span>,
}

impl Outcome {
    /// Records the five end-to-end metrics, with the latency percentiles
    /// that are not gated as diagnostics.
    pub fn set_end_to_end(&mut self, setup_s: f64, ops_per_s: f64, latency: &Summary, mem: f64) {
        self.e2e.insert("setup_s", setup_s);
        self.e2e.insert("ops_per_s", ops_per_s);
        self.e2e.insert("latency_p50_us", latency.p50_us);
        self.e2e.insert("latency_p95_us", latency.p95_us);
        self.e2e.insert("mem_bytes_per_key", mem);
        let d = &mut self.diagnostics;
        d.insert("latency_samples".into(), latency.count as f64);
        d.insert("latency_p99_us".into(), latency.p99_us);
        d.insert("latency_p999_us".into(), latency.p999_us);
        d.insert("latency_max_us".into(), latency.max_us);
    }

    /// Restates the throughput and latency metrics at the host's nominal
    /// speed (see `host`), keeping the measured values as diagnostics.
    pub fn at_nominal_speed(&mut self, slowdown: f64) {
        for (name, scale) in [
            ("ops_per_s", slowdown),
            ("latency_p50_us", 1.0 / slowdown),
            ("latency_p95_us", 1.0 / slowdown),
        ] {
            if let Some(v) = self.e2e.get_mut(name) {
                self.diagnostics.insert(format!("measured.{name}"), *v);
                *v *= scale;
            }
        }
        self.diagnostics.insert("host.slowdown".into(), slowdown);
    }
}

fn run(workload: Workload, cfg: &Config) -> Result<Outcome, String> {
    match workload {
        Workload::KernelSearchHiutil => kernel::search_hiutil(cfg),
        Workload::KernelChurn => kernel::churn(cfg),
        Workload::IngressOpen => service::ingress_open(cfg),
        Workload::WireClosed => service::wire_closed(cfg),
    }
}

/// A command line, checked.
#[derive(Debug)]
struct Cli {
    workload: Workload,
    cfg: Config,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 20.0f64;
    let mut trace = false;
    let mut quick = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::from_name(name).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {name:?}; one of {}", names.join(", "))
                })?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--quick" => quick = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let width = std::thread::available_parallelism().map_or(1, |n| n.get());
    Ok(Cli {
        workload: workload.ok_or("--workload is required")?,
        cfg: Config {
            seed: seed.ok_or("--seed is required")?,
            measure: Duration::from_secs_f64(seconds),
            trace,
            quick,
            width,
        },
    })
}

/// The commit the ledger was run from, read from `.git` in the working
/// directory without running git; "unknown" outside a git checkout.
fn git_rev() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split(' ').next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

fn json_metrics(values: &Metrics, table: &[(&str, &str, &str)]) -> String {
    let fields: Vec<String> = table
        .iter()
        .map(|(name, unit, _)| {
            let v = values.get(name).copied().unwrap_or(0.0);
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// The benchmark's declaration, which names every workload and metric read
/// from this program's output.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Every `"key"` string value inside the `section` array of
/// `BENCHMARK.json`, in order. The declaration's strings hold no quotes
/// and no `]`, so a scan is enough.
fn declared(section: &str, key: &str) -> Vec<String> {
    let Some(start) = BENCHMARK_JSON.find(&format!("\"{section}\"")) else {
        return Vec::new();
    };
    let body = &BENCHMARK_JSON[start..];
    let mut rest = &body[..body.find(']').unwrap_or(body.len())];
    let tag = format!("\"{key}\"");
    let mut out = Vec::new();
    while let Some(at) = rest.find(&tag) {
        rest = &rest[at + tag.len()..];
        let Some(open) = rest.find('"') else { break };
        let Some(len) = rest[open + 1..].find('"') else {
            break;
        };
        out.push(rest[open + 1..open + 1 + len].to_string());
        rest = &rest[open + 1 + len + 1..];
    }
    out
}

/// Checks, on every run, that the workloads and metrics this program knows
/// are the ones `BENCHMARK.json` declares, by name and unit.
fn check_declared() -> Result<(), String> {
    let names = |xs: &mut dyn Iterator<Item = &str>| xs.map(String::from).collect::<Vec<_>>();
    let workloads = names(&mut Workload::ALL.iter().map(|w| w.name()));
    if declared("workloads", "name") != workloads {
        return Err("BENCHMARK.json declares other workloads than this program runs".into());
    }
    for (section, table) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        if declared(section, "name") != names(&mut table.iter().map(|m| m.0))
            || declared(section, "unit") != names(&mut table.iter().map(|m| m.1))
        {
            return Err(format!(
                "BENCHMARK.json's {section} metrics differ from the ones this program emits"
            ));
        }
    }
    Ok(())
}

/// Where `--trace 1` writes its span files: `ledger-trace/` beside the
/// executable, inside the build directory.
fn trace_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(|d| d.join("ledger-trace")))
        .unwrap_or_else(|| PathBuf::from("ledger-trace"))
}

/// Runs one workload and renders its output: the human-readable metric
/// lines, the run record, and (last) the result line.
fn report(workload: Workload, cfg: &Config) -> Result<(String, bool), String> {
    let cpu0 = host::CpuTimes::now()?;
    let mut outcome = run(workload, cfg)?;
    let foreign = host::CpuTimes::now()?.foreign_share_since(&cpu0);
    outcome
        .diagnostics
        .insert("host.foreign_cpu_share".into(), foreign);
    for (name, _, _) in END_TO_END {
        if !cfg.trace && !outcome.e2e.contains_key(name) {
            return Err(format!("{} did not measure {name}", workload.name()));
        }
    }
    let mut out = String::new();
    let (table, values): (&[(&str, &str, &str)], _) = if cfg.trace {
        (&PER_LAYER, &outcome.layers)
    } else {
        (&END_TO_END, &outcome.e2e)
    };
    for (name, unit, better) in table {
        let v = values.get(name).copied().unwrap_or(0.0);
        let _ = writeln!(
            out,
            "  {name:<32} {v:>16.4} {unit:<10} ({better} is better)"
        );
    }
    if cfg.trace {
        let (jsonl, chrome) = record::write_trace(&trace_dir(), workload.name(), &outcome.spans)
            .map_err(|e| format!("writing the trace: {e}"))?;
        let _ = writeln!(
            out,
            "  trace: {} spans -> {} and {}",
            outcome.spans.len(),
            jsonl.display(),
            chrome.display()
        );
    }
    let diagnostics: Vec<String> = outcome
        .diagnostics
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v:?}"))
        .collect();
    let width = cfg.width;
    let _ = writeln!(
        out,
        "{{\"record\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {:?}, \"trace\": {}, \
         \"quick\": {}, \"nproc\": {width}, \"grid_width\": {width}, \"git_rev\": \"{}\", \
         \"features\": \"default\", \"debug_assertions\": {}, \"diagnostics\": {{{}}}}}}}",
        workload.name(),
        cfg.seed,
        cfg.measure.as_secs_f64(),
        cfg.trace,
        cfg.quick,
        git_rev(),
        cfg!(debug_assertions),
        diagnostics.join(", "),
    );
    let correct = outcome.tally.wrong == 0;
    let _ = writeln!(
        out,
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.tally.attempted.max(1),
        outcome.tally.failed,
        json_metrics(values, table),
    );
    Ok((out, correct))
}

fn main() -> ExitCode {
    if let Err(e) = check_declared() {
        eprintln!("ledger: {e}");
        return ExitCode::from(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("ledger: {e}");
            return ExitCode::from(2);
        }
    };
    match report(cli.workload, &cli.cfg) {
        Ok((out, correct)) => {
            print!("{out}");
            if correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("ledger: {} returned wrong answers", cli.workload.name());
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("ledger: {}: {e}", cli.workload.name());
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emitted_workloads_and_metrics_match_benchmark_json() {
        check_declared().unwrap();
        assert_eq!(declared("end_to_end", "name").len(), END_TO_END.len());
        assert_eq!(declared("per_layer", "unit").len(), PER_LAYER.len());
    }

    /// The `[profile.release]` lines of a manifest, comments left out.
    fn release_profile(manifest: &str) -> Vec<&str> {
        manifest
            .lines()
            .skip_while(|l| l.trim() != "[profile.release]")
            .skip(1)
            .take_while(|l| !l.trim_start().starts_with('['))
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .collect()
    }

    /// The ledger is a workspace of its own, so its release profile is a
    /// copy of the repository's; this keeps the copy from drifting.
    #[test]
    fn release_profile_matches_the_repository_workspace() {
        let ours = release_profile(include_str!("../Cargo.toml"));
        assert!(!ours.is_empty());
        assert_eq!(ours, release_profile(include_str!("../../Cargo.toml")));
    }

    #[test]
    fn cli_rejects_bad_arguments() {
        let parse =
            |s: &str| parse_cli(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
        assert!(parse("--workload wire_closed --seed 3 --seconds 2 --trace 1").is_ok());
        assert!(parse("--workload nope --seed 3").is_err());
        assert!(parse("--workload wire_closed").is_err());
        assert!(parse("--workload wire_closed --seed 3 --trace 2").is_err());
        assert!(parse("--workload wire_closed --seed 3 --seconds 0").is_err());
        assert!(parse("--workload wire_closed --seed 3 --bogus").is_err());
    }
}
