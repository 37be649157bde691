//! The kernel workloads: batches straight into `SlabHash::execute_buffer`,
//! no broker in between.

use std::time::{Duration, Instant};

use simt::{Grid, PerfCounters};
use slab_alloc::SlabAllocator;
use slab_hash::{BatchBuffer, KeyValue, OpResult, SlabHash};

use crate::gen::{value_of, ChurnStream, KeySpace, SearchStream};
use crate::host::HostSpeed;
use crate::record::{rss_bytes, rss_per_key, self_ns, Samples, Tracer};
use crate::{build_table, counter_metrics, ratio, setup_median, Config, Outcome, Tally};

/// Batches per traced or untraced stretch of a `--trace 1` run.
const TRACE_STRETCH: u64 = 16;

/// Everything a kernel workload measures around its table calls.
struct KernelRun {
    ops: u64,
    /// Time inside `execute_buffer` and `maintain`: the `ops_per_s` base.
    busy: Duration,
    batch: Samples,
    launch: Samples,
    overhead: Samples,
    warps: u64,
    counters: PerfCounters,
    maint_busy: Duration,
    maint_released: u64,
    maint_reclaimed: u64,
    free_slabs_min: u64,
    /// (ops, execute time) of untraced and traced stretches, for the
    /// overhead. `maintain` is left out: it runs every 64th batch, so it
    /// would land in one kind of stretch only.
    stretches: [(u64, Duration); 2],
    /// Wall time of traced loop iterations, for the reconciliation.
    traced_wall: Duration,
    tracer: Tracer,
}

impl KernelRun {
    fn new(epoch: Instant) -> Self {
        Self {
            ops: 0,
            busy: Duration::ZERO,
            batch: Samples::default(),
            launch: Samples::default(),
            overhead: Samples::default(),
            warps: 0,
            counters: PerfCounters::default(),
            maint_busy: Duration::ZERO,
            maint_released: 0,
            maint_reclaimed: 0,
            free_slabs_min: u64::MAX,
            stretches: [(0, Duration::ZERO); 2],
            traced_wall: Duration::ZERO,
            tracer: Tracer::new(epoch, 0),
        }
    }

    fn execute(
        &mut self,
        table: &SlabHash<KeyValue>,
        grid: &Grid,
        batch: &mut BatchBuffer,
        cfg: &Config,
        traced: bool,
    ) {
        let t0 = Instant::now();
        let report = table.execute_buffer(batch, grid);
        let t1 = Instant::now();
        let call = t1 - t0;
        self.ops += batch.len() as u64;
        self.busy += call;
        self.batch.record(call);
        self.launch.record(report.wall);
        self.overhead.record(call.saturating_sub(report.wall));
        self.warps += report.warps as u64;
        self.counters.merge(&report.counters);
        let seg = &mut self.stretches[usize::from(traced)];
        seg.0 += batch.len() as u64;
        seg.1 += call;
        if cfg.trace {
            self.free_slabs_min = self.free_slabs_min.min(table.allocator().free_slabs());
        }
        if traced {
            let id = self.tracer.span(0, "batch.execute", t0, t1, 0);
            self.tracer
                .span(id, "grid.launch", t0, (t0 + report.wall).min(t1), 0);
        }
    }

    fn maintain(&mut self, table: &SlabHash<KeyValue>, grid: &Grid, traced: bool) {
        let t0 = Instant::now();
        let report = table.maintain(grid);
        let t1 = Instant::now();
        self.busy += t1 - t0;
        self.maint_busy += t1 - t0;
        self.maint_released += report.flushed.map_or(0, |f| f.slabs_released);
        self.maint_reclaimed += report.reclaimed;
        if traced {
            self.tracer.span(0, "maint.call", t0, t1, 0);
        }
    }

    fn check(tally: &mut Tally, batch: &BatchBuffer, expect: &[OpResult]) {
        for (req, want) in batch.requests().iter().zip(expect) {
            tally.check(&req.result, want);
        }
    }

    /// Fills `out` with every metric of the run, once the table is gone.
    fn finish(self, out: &mut Outcome, setup_s: f64, mem: f64, working_set: u64) {
        let ops_per_s = ratio(self.ops as f64, self.busy.as_secs_f64());
        out.set_end_to_end(setup_s, ops_per_s, &self.batch.summary(), mem);
        out.diagnostics.insert("ops".into(), self.ops as f64);

        let m = &mut out.layers;
        counter_metrics(m, &self.counters, self.ops, working_set);
        m.insert("alloc.free_slabs_min", self.free_slabs_min as f64);
        m.insert("maint.busy_s", self.maint_busy.as_secs_f64());
        m.insert(
            "maint.share",
            ratio(self.maint_busy.as_secs_f64(), self.busy.as_secs_f64()),
        );
        m.insert("maint.slabs_released", self.maint_released as f64);
        m.insert("maint.reclaimed", self.maint_reclaimed as f64);
        m.insert("grid.launch_ms_p50", self.launch.summary().p50_us / 1e3);
        m.insert("grid.call_overhead_us_p50", self.overhead.summary().p50_us);
        m.insert(
            "grid.warps_per_launch",
            ratio(self.warps as f64, self.batch.len() as f64),
        );
        let attributed: u64 = self_ns(&self.tracer.spans).values().sum();
        let wall = self.traced_wall.as_nanos() as f64;
        m.insert(
            "reconcile.residual_pct",
            ratio(wall - attributed as f64, wall) * 100.0,
        );
        let rate = |(ops, busy): (u64, Duration)| ratio(ops as f64, busy.as_secs_f64());
        let (plain, traced) = (rate(self.stretches[0]), rate(self.stretches[1]));
        m.insert("trace.overhead_pct", ratio(plain - traced, plain) * 100.0);
        out.spans = self.tracer.spans;
    }
}

/// The kernel workloads' repeat set-up: one more table build, timed.
fn rebuild(
    pairs: &[(u32, u32)],
    utilization: f64,
    cfg: &Config,
    grid: &Grid,
) -> Result<Duration, String> {
    let t0 = Instant::now();
    let table = build_table(pairs, utilization, cfg, grid)?;
    let took = t0.elapsed();
    drop(table);
    Ok(took)
}

/// `kernel_search_hiutil`: uniform SEARCH, half misses, at 85 % utilization.
pub fn search_hiutil(cfg: &Config) -> Result<Outcome, String> {
    const UTILIZATION: f64 = 0.85;
    let n = cfg.pick(1 << 20, 1 << 14);
    let batch_size = cfg.pick(16 * 1024, 1024);
    let keys = KeySpace::new(cfg.seed);
    let pairs = keys.pairs(n);
    let mut stream = SearchStream::new(cfg.seed, keys, n);
    let mut batch = BatchBuffer::with_capacity(batch_size);
    let mut expect = Vec::with_capacity(batch_size);

    let rss0 = rss_bytes()?;
    let t0 = Instant::now();
    let table = build_table(&pairs, UTILIZATION, cfg, &cfg.grid())?;
    let first_setup = t0.elapsed();
    let mem = rss_per_key(rss0, n as usize)?;

    let mut out = Outcome::default();
    let mut run = KernelRun::new(Instant::now());
    let mut speed = HostSpeed::default();
    let mut b = 0u64;
    speed.interleave(cfg.measure, |length| {
        // A grid per segment, so its executors end before the next window.
        let grid = cfg.grid();
        let start = Instant::now();
        while start.elapsed() < length {
            let traced = cfg.trace && (b / TRACE_STRETCH) % 2 == 1;
            let iter_start = Instant::now();
            stream.fill(batch_size, &mut batch, &mut expect);
            run.execute(&table, &grid, &mut batch, cfg, traced);
            KernelRun::check(&mut out.tally, &batch, &expect);
            if traced {
                run.traced_wall += iter_start.elapsed();
            }
            b += 1;
        }
        Ok(())
    })?;
    let working_set = table.device_bytes();
    drop(table);
    let setup_s = setup_median(first_setup, || {
        rebuild(&pairs, UTILIZATION, cfg, &cfg.grid())
    })?;
    run.finish(&mut out, setup_s, mem, working_set);
    out.at_nominal_speed(speed.slowdown());
    Ok(out)
}

/// `kernel_churn`: REPLACE of fresh keys and DELETE of live ones, with
/// `maintain` every 64th batch, checked against a sequential model.
pub fn churn(cfg: &Config) -> Result<Outcome, String> {
    const UTILIZATION: f64 = 0.65;
    const MAINTAIN_EVERY: u64 = 64;
    // Memory grows as churn runs and the resident set grows in steps of
    // megabytes, so it is averaged over samples every 64 batches up to a
    // fixed batch count: a faster host that churns longer does not read as
    // using more, and one step more or less moves the mean only a little.
    const MEM_SAMPLE_EVERY: u64 = 64;
    const MEM_SAMPLE_UNTIL: u64 = 2048;
    let n = cfg.pick(1 << 19, 1 << 13);
    let batch_size = cfg.pick(4096, 512);
    let keys = KeySpace::new(cfg.seed);
    let pairs = keys.pairs(n);
    let mut stream = ChurnStream::new(cfg.seed, keys, n);
    let mut batch = BatchBuffer::with_capacity(batch_size);
    let mut expect = Vec::with_capacity(batch_size);

    let rss0 = rss_bytes()?;
    let t0 = Instant::now();
    let table = build_table(&pairs, UTILIZATION, cfg, &cfg.grid())?;
    let first_setup = t0.elapsed();

    let mut out = Outcome::default();
    let mut run = KernelRun::new(Instant::now());
    let mut speed = HostSpeed::default();
    let mut mem_samples = Vec::new();
    let mut b = 0u64;
    speed.interleave(cfg.measure, |length| {
        // A grid per segment, so its executors end before the next window.
        let grid = cfg.grid();
        let start = Instant::now();
        while start.elapsed() < length {
            let traced = cfg.trace && (b / TRACE_STRETCH) % 2 == 1;
            let iter_start = Instant::now();
            stream.fill(batch_size, &mut batch, &mut expect);
            run.execute(&table, &grid, &mut batch, cfg, traced);
            KernelRun::check(&mut out.tally, &batch, &expect);
            stream.commit();
            b += 1;
            if b.is_multiple_of(MAINTAIN_EVERY) {
                run.maintain(&table, &grid, traced);
            }
            if b.is_multiple_of(MEM_SAMPLE_EVERY) && b <= MEM_SAMPLE_UNTIL {
                mem_samples.push(rss_per_key(rss0, stream.live().len())?);
            }
            if traced {
                run.traced_wall += iter_start.elapsed();
            }
        }
        Ok(())
    })?;
    // Before the checks below allocate.
    if mem_samples.is_empty() {
        mem_samples.push(rss_per_key(rss0, stream.live().len())?);
    }
    let mem = mem_samples.iter().sum::<f64>() / mem_samples.len() as f64;
    let live = stream.live().len();

    let mut stored = table.collect_elements();
    stored.sort_unstable();
    let mut model: Vec<(u32, u32)> = stream.live().iter().map(|&k| (k, value_of(k))).collect();
    model.sort_unstable();
    let mismatches = symmetric_difference(&stored, &model);
    let audit = table.audit()?;
    let audit_ok = audit.no_leaks() && audit.tags_consistent();
    out.tally.wrong += mismatches + u64::from(!audit_ok);
    out.tally.failed += mismatches + u64::from(!audit_ok);
    out.diagnostics
        .insert("check.model_mismatches".into(), mismatches as f64);
    out.diagnostics
        .insert("check.audit_ok".into(), f64::from(u8::from(audit_ok)));
    out.diagnostics.insert("live_keys".into(), live as f64);
    let working_set = table.device_bytes();
    drop(table);
    let setup_s = setup_median(first_setup, || {
        rebuild(&pairs, UTILIZATION, cfg, &cfg.grid())
    })?;
    run.finish(&mut out, setup_s, mem, working_set);
    out.at_nominal_speed(speed.slowdown());
    Ok(out)
}

/// Elements in exactly one of two sorted lists.
fn symmetric_difference(a: &[(u32, u32)], b: &[(u32, u32)]) -> u64 {
    let (mut i, mut j, mut diff) = (0, 0, 0u64);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => (i, diff) = (i + 1, diff + 1),
            std::cmp::Ordering::Greater => (j, diff) = (j + 1, diff + 1),
            std::cmp::Ordering::Equal => (i, j) = (i + 1, j + 1),
        }
    }
    diff + (a.len() - i) as u64 + (b.len() - j) as u64
}
