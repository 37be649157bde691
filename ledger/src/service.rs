//! The service workloads: the in-process broker under an open loop, and the
//! TCP wire under a closed loop.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use simt::Grid;
use slab_alloc::SlabAllocator;
use slab_hash::{KeyValue, OpResult, SlabHash};
use slab_ingress::{
    Broker, BrokerConfig, ClientHandle, IngressStats, MetricsRegistry, Reply, Ticket, WireClient,
    WireClientConfig, WireServer, WireServerConfig, STAGES, STAGE_COUNT,
};

use crate::gen::{KeySpace, MixStream, Zipf};
use crate::host::HostSpeed;
use crate::record::{median, rss_bytes, rss_per_key, self_ns, Samples, Span, Summary, Tracer};
use crate::{build_table, counter_metrics, ratio, setup_median, Config, Metrics, Outcome, Tally};

const UTILIZATION: f64 = 0.65;
const ZIPF_THETA: f64 = 0.99;
/// One request in this many is traced in a traced stretch.
const TRACE_SAMPLE: u64 = 16;
/// Requests per traced or untraced stretch of a `--trace 1` run.
const TRACE_STRETCH: u64 = 4096;

/// Span names of the broker's five stages, in `STAGES` order.
const STAGE_SPANS: [&str; STAGE_COUNT] = [
    "broker.queue_wait",
    "broker.admission",
    "broker.dispatch",
    "broker.execute",
    "broker.reply",
];

/// Per-layer metric names of the five stages: (p50, p99, mean).
const STAGE_METRICS: [[&str; 3]; STAGE_COUNT] = [
    [
        "broker.queue_wait_us_p50",
        "broker.queue_wait_us_p99",
        "broker.queue_wait_us_mean",
    ],
    [
        "broker.admission_us_p50",
        "broker.admission_us_p99",
        "broker.admission_us_mean",
    ],
    [
        "broker.dispatch_us_p50",
        "broker.dispatch_us_p99",
        "broker.dispatch_us_mean",
    ],
    [
        "broker.execute_us_p50",
        "broker.execute_us_p99",
        "broker.execute_us_mean",
    ],
    [
        "broker.reply_us_p50",
        "broker.reply_us_p99",
        "broker.reply_us_mean",
    ],
];

/// The fixed rate `ingress_open` measures latency at, ops/s: an eighth or
/// less of what the broker sustains within the SLO on the 2-core host the
/// bounds were set on. At 50k ops/s, one run of about eighty failed
/// thousands of requests: a slow stretch of the host let the backlog
/// outgrow the 4096-deep queue and the 100 ms deadline.
const FIXED_RATE: f64 = 25_000.0;
/// Share of `--seconds` spent at the fixed rate; the ladder gets the rest.
const FIXED_SHARE: f64 = 0.6;
/// Ladder rates, ops/s, walked upward until one breaks the SLO. The
/// highest rate that meets it is a diagnostic (see the crate docs for why).
const LADDER: [f64; 6] = [
    50_000.0, 100_000.0, 150_000.0, 200_000.0, 250_000.0, 300_000.0,
];
/// The SLO a rung must meet: p99 from due time, and generator lag p99.
const SLO_P99_US: f64 = 2_000.0;
const SLO_LAG_P99_US: f64 = 1_000.0;

/// A broker over the table, and for `wire_closed` a server in front of it.
struct Service {
    broker: Broker,
    server: Option<WireServer>,
}

impl Service {
    /// Spawns the broker on `grid`, and binds the server when `wire` is set.
    fn start(table: &Arc<SlabHash<KeyValue>>, grid: &Grid, wire: bool) -> Result<Self, String> {
        let config = BrokerConfig {
            grid: Some(grid.clone()),
            ..BrokerConfig::default()
        };
        let broker = Broker::spawn(Arc::clone(table), config);
        let server = if wire {
            let server = WireServer::bind("127.0.0.1:0", &broker, WireServerConfig::default())
                .map_err(|e| format!("binding the loopback server: {e}"))?;
            Some(server)
        } else {
            None
        };
        Ok(Self { broker, server })
    }

    /// Stops the server and the broker, joining all their threads.
    fn stop(self) -> IngressStats {
        if let Some(server) = self.server {
            server.shutdown();
        }
        self.broker.shutdown()
    }
}

/// The service workloads' set-up: build and preload the table, spawn the
/// broker, and bind the server when `wire` is set.
fn set_up(
    pairs: &[(u32, u32)],
    cfg: &Config,
    grid: &Grid,
    wire: bool,
) -> Result<(Arc<SlabHash<KeyValue>>, Service), String> {
    let table = Arc::new(build_table(pairs, UTILIZATION, cfg, grid)?);
    let service = Service::start(&table, grid, wire)?;
    Ok((table, service))
}

/// Repeat set-up: set up and stop one more service, timing the set-up.
fn restart(pairs: &[(u32, u32)], cfg: &Config, wire: bool) -> Result<Duration, String> {
    let t0 = Instant::now();
    let (_table, service) = set_up(pairs, cfg, &cfg.grid(), wire)?;
    let took = t0.elapsed();
    service.stop();
    Ok(took)
}

/// The broker-side counters every service workload reports per layer.
fn broker_layers(m: &mut Metrics, stats: &IngressStats, working_set: u64) {
    counter_metrics(m, &stats.counters, stats.submitted, working_set);
    m.insert(
        "broker.batch_size_mean",
        ratio(stats.submitted as f64, stats.batches as f64),
    );
    m.insert("broker.retried", stats.retried as f64);
    m.insert("broker.shed", stats.shed() as f64);
    m.insert("broker.timed_out", stats.timed_out() as f64);
}

/// One open-loop phase at one rate.
struct OpenPhase {
    tally: Tally,
    /// Due time to disposition, completed requests.
    latency: Samples,
    /// The same, by the second of the phase the request came due in.
    seconds: Vec<Samples>,
    /// Requests that come due in one second.
    per_second: u64,
    /// Due time to send: how late the generator ran.
    lag: Samples,
    stages: [Samples; STAGE_COUNT],
    backlog_max: usize,
    free_slabs_min: u64,
    /// First due time to the last reply reaped.
    wall: Duration,
    /// Latency in untraced and traced stretches, for the overhead.
    stretches: [Samples; 2],
    tracer: Tracer,
}

impl OpenPhase {
    fn meets_slo(&self) -> bool {
        self.tally.failed == 0
            && self.latency.summary().p99_us <= SLO_P99_US
            && self.lag.summary().p99_us <= SLO_LAG_P99_US
    }

    /// The median over the phase's seconds of each second's p50 and p95, so
    /// that a host stall that spoils a second or two does not decide the
    /// phase, while a change that slows every request still shows in full.
    fn per_second_percentiles(&self) -> (f64, f64) {
        let (p50, p95): (Vec<f64>, Vec<f64>) = self
            .seconds
            .iter()
            .filter(|s| s.len() > 0)
            .map(|s| {
                let sum = s.summary();
                (sum.p50_us, sum.p95_us)
            })
            .unzip();
        if p50.is_empty() {
            return (0.0, 0.0);
        }
        (median(&p50), median(&p95))
    }
}

/// A request in flight: its ticket, expected answer, and due/send times.
struct InFlight {
    ticket: Ticket,
    want: OpResult,
    due: Instant,
    sent: Instant,
    index: u64,
}

/// Sends `stream` to `client` at `rate` for `length`, sleeping until each
/// due time and then sending every request that has come due, and reaping
/// replies as they arrive so nothing accumulates. Each request is timed
/// from its due time; the broker's reply carries its own latency from
/// submission, so the reply is timed exactly however late it is reaped.
fn open_loop(
    client: &ClientHandle,
    table: &SlabHash<KeyValue>,
    stream: &mut MixStream,
    rate: f64,
    length: Duration,
    trace: bool,
    epoch: Instant,
) -> OpenPhase {
    let start = Instant::now();
    let mut phase = OpenPhase {
        tally: Tally::default(),
        latency: Samples::default(),
        seconds: Vec::new(),
        per_second: (rate as u64).max(1),
        lag: Samples::default(),
        stages: Default::default(),
        backlog_max: 0,
        free_slabs_min: u64::MAX,
        wall: Duration::ZERO,
        stretches: Default::default(),
        tracer: Tracer::new(epoch, 0),
    };
    let interval_ns = 1e9 / rate;
    let total = (length.as_secs_f64() * rate) as u64;
    let due_of = |i: u64| start + Duration::from_nanos((i as f64 * interval_ns) as u64);
    let mut next = 0u64;
    let mut pending: Vec<InFlight> = Vec::new();
    while next < total || !pending.is_empty() {
        let now = Instant::now();
        while next < total && due_of(next) <= now {
            let due = due_of(next);
            let (req, want) = stream.next_request();
            let sent = Instant::now();
            phase.lag.record(sent - due);
            match client.submit(req) {
                Ok(ticket) => pending.push(InFlight {
                    ticket,
                    want,
                    due,
                    sent,
                    index: next,
                }),
                Err(_) => phase.tally.refused(),
            }
            next += 1;
        }
        phase.backlog_max = phase.backlog_max.max(pending.len());
        if trace {
            phase.free_slabs_min = phase.free_slabs_min.min(table.allocator().free_slabs());
        }
        pending.retain(|f| match f.ticket.try_reply() {
            None => true,
            Some(reply) => {
                phase.absorb(f, reply, trace);
                false
            }
        });
        let wake = if next < total {
            due_of(next)
        } else {
            Instant::now() + Duration::from_micros(50)
        };
        if let Some(wait) = wake.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
    }
    phase.wall = start.elapsed();
    phase
}

impl OpenPhase {
    fn absorb(&mut self, f: &InFlight, reply: Reply, trace: bool) {
        let result = match reply.result {
            Ok(result) => result,
            Err(_) => return self.tally.refused(),
        };
        self.tally.check(&result, &f.want);
        let latency = (f.sent - f.due) + reply.latency;
        self.latency.record(latency);
        let second = (f.index / self.per_second) as usize;
        if self.seconds.len() <= second {
            self.seconds.resize_with(second + 1, Samples::default);
        }
        self.seconds[second].record(latency);
        for (i, stage) in self.stages.iter_mut().enumerate() {
            if reply.span.marked[i] {
                stage.record_ns(reply.span.stage_ns[i]);
            }
        }
        let traced = trace && (f.index / TRACE_STRETCH) % 2 == 1;
        self.stretches[usize::from(traced)].record(latency);
        if traced && f.index.is_multiple_of(TRACE_SAMPLE) {
            let req = reply.span.id;
            let root = self
                .tracer
                .span(0, "request", f.due, f.sent + reply.latency, req);
            self.tracer.span(root, "loadgen.lag", f.due, f.sent, req);
            let mut at = f.sent;
            for (i, name) in STAGE_SPANS.iter().enumerate() {
                if reply.span.marked[i] {
                    let end = at + Duration::from_nanos(reply.span.stage_ns[i]);
                    self.tracer.span(root, name, at, end, req);
                    at = end;
                }
            }
        }
    }
}

/// `ingress_open`: the broker under an open loop, at a fixed rate and then
/// up the rate ladder.
pub fn ingress_open(cfg: &Config) -> Result<Outcome, String> {
    let n = cfg.pick(1 << 20, 1 << 14);
    let keys = KeySpace::new(cfg.seed);
    let pairs = keys.pairs(n);
    let mut stream = MixStream::new(cfg.seed, 0, keys, Zipf::new(u64::from(n), ZIPF_THETA));

    let grid = cfg.grid();
    let rss0 = rss_bytes()?;
    let t0 = Instant::now();
    let (table, service) = set_up(&pairs, cfg, &grid, false)?;
    let first_setup = t0.elapsed();
    let mem = rss_per_key(rss0, n as usize)?;

    let epoch = Instant::now();
    let fixed_len = cfg.measure.mul_f64(FIXED_SHARE);
    let client = service.broker.handle();
    let fixed = open_loop(
        &client,
        &table,
        &mut stream,
        FIXED_RATE,
        fixed_len,
        cfg.trace,
        epoch,
    );
    drop(client);
    let stats = service.stop();

    // The ladder: one fresh broker per rung, so each rung starts with an
    // empty queue. Breaking is a rung's job, so its refusals are not
    // failures of the run; a wrong answer on any rung still is.
    let rung_len = (cfg.measure - fixed_len) / LADDER.len() as u32;
    let mut out = Outcome::default();
    let mut slo_rate = 0.0;
    for rate in LADDER {
        let rung_service = Service::start(&table, &grid, false)?;
        let client = rung_service.broker.handle();
        let rung = open_loop(&client, &table, &mut stream, rate, rung_len, false, epoch);
        drop(client);
        rung_service.stop();
        let ok = rung.meets_slo();
        let k = rate / 1e3;
        let s = rung.latency.summary();
        out.diagnostics
            .insert(format!("ladder.{k}k.p99_us"), s.p99_us);
        out.diagnostics
            .insert(format!("ladder.{k}k.lag_p99_us"), rung.lag.summary().p99_us);
        out.diagnostics
            .insert(format!("ladder.{k}k.failed"), rung.tally.failed as f64);
        out.tally.wrong += rung.tally.wrong;
        out.tally.failed += rung.tally.wrong;
        if !ok {
            break;
        }
        slo_rate = rate;
    }
    out.diagnostics
        .insert("ladder.slo_rate_ops_s".into(), slo_rate);
    let working_set = table.device_bytes();
    drop(table);

    let s = fixed.latency.summary();
    out.tally.merge(fixed.tally);
    let setup_s = setup_median(first_setup, || restart(&pairs, cfg, false))?;
    let goodput = ratio(s.count as f64, fixed.wall.as_secs_f64());
    let (p50_us, p95_us) = fixed.per_second_percentiles();
    out.set_end_to_end(
        setup_s,
        goodput,
        &Summary {
            p50_us,
            p95_us,
            ..s
        },
        mem,
    );
    out.diagnostics
        .insert("phase.latency_p50_us".into(), s.p50_us);
    out.diagnostics
        .insert("phase.latency_p95_us".into(), s.p95_us);

    let m = &mut out.layers;
    broker_layers(m, &stats, working_set);
    m.insert("alloc.free_slabs_min", fixed.free_slabs_min as f64);
    for (i, names) in STAGE_METRICS.iter().enumerate() {
        let st = fixed.stages[i].summary();
        m.insert(names[0], st.p50_us);
        m.insert(names[1], st.p99_us);
        m.insert(names[2], st.mean_us);
    }
    m.insert("loadgen.lag_us_p99", fixed.lag.summary().p99_us);
    m.insert("loadgen.backlog_max", fixed.backlog_max as f64);
    m.insert(
        "reconcile.residual_pct",
        residual_pct(&fixed.tracer.spans, "request"),
    );
    let (plain, traced) = (
        fixed.stretches[0].summary().p50_us,
        fixed.stretches[1].summary().p50_us,
    );
    m.insert("trace.overhead_pct", ratio(traced - plain, plain) * 100.0);
    out.spans = fixed.tracer.spans;
    Ok(out)
}

/// The share of `root` spans' time that their children do not cover.
fn residual_pct(spans: &[Span], root: &str) -> f64 {
    let total: u64 = spans
        .iter()
        .filter(|s| s.name == root)
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    let unexplained = self_ns(spans).get(root).copied().unwrap_or(0);
    ratio(unexplained as f64, total as f64) * 100.0
}

/// One `wire_closed` caller: its requests, and what it measured over all
/// segments.
struct Caller {
    id: u64,
    stream: MixStream,
    calls: u64,
    tally: Tally,
    latency: Samples,
    /// Time spent calling.
    wall: Duration,
    transport_errors: u64,
    reconnects: u64,
    /// (calls, call time) of untraced and traced stretches.
    stretches: [(u64, Duration); 2],
    tracer: Tracer,
}

impl Caller {
    fn new(id: u64, stream: MixStream, epoch: Instant) -> Self {
        Self {
            id,
            stream,
            calls: 0,
            tally: Tally::default(),
            latency: Samples::default(),
            wall: Duration::ZERO,
            transport_errors: 0,
            reconnects: 0,
            stretches: [(0, Duration::ZERO); 2],
            tracer: Tracer::new(epoch, id as u32),
        }
    }

    /// Dials `addr` and makes one untimed call, so the clock starts on a
    /// warm connection.
    fn dial(&self, addr: SocketAddr, cfg: &Config) -> Result<WireClient, String> {
        let id = self.id;
        let wcfg = WireClientConfig {
            seed: cfg.seed ^ id,
            ..WireClientConfig::default()
        };
        let mut client = WireClient::new(addr, wcfg).map_err(|e| format!("client {id}: {e}"))?;
        client
            .get(0)
            .map_err(|e| format!("client {id}: first call: {e}"))?;
        Ok(client)
    }

    /// The closed loop over `client`: a call, its reply, the next call.
    fn closed_loop(&mut self, client: &mut WireClient, length: Duration, trace: bool) {
        let start = Instant::now();
        while start.elapsed() < length {
            let (req, want) = self.stream.next_request();
            let t0 = Instant::now();
            let result = client.call(req);
            let t1 = Instant::now();
            match result {
                Ok(got) => {
                    self.tally.check(&got, &want);
                    self.latency.record(t1 - t0);
                }
                Err(e) => {
                    self.tally.refused();
                    self.transport_errors += u64::from(e.is_disconnect());
                }
            }
            let i = self.calls;
            let traced = trace && (i / TRACE_STRETCH) % 2 == 1;
            let seg = &mut self.stretches[usize::from(traced)];
            seg.0 += 1;
            seg.1 += t1 - t0;
            if traced && i.is_multiple_of(TRACE_SAMPLE) {
                self.tracer
                    .span(0, "client.call", t0, t1, (self.id << 48) | i);
            }
            self.calls += 1;
        }
        self.wall += start.elapsed();
        self.reconnects += client.stats().reconnects;
    }
}

/// Adds a broker's per-stage totals, (ns, requests), from the registry's
/// `slab_ingress_stage_seconds` histograms (recorded in ns) to `totals`.
fn add_stage_totals(totals: &mut [(f64, f64); STAGE_COUNT], registry: &MetricsRegistry) {
    for (total, stage) in totals.iter_mut().zip(STAGES) {
        let snap = registry
            .histogram_with(
                "slab_ingress_stage_seconds",
                "",
                &[("stage", stage.name())],
                1e-9,
            )
            .snapshot();
        total.0 += snap.sum as f64;
        total.1 += snap.count as f64;
    }
}

/// Adds the totals of one broker's lifetime to `into`.
fn add_stats(into: &mut IngressStats, stats: &IngressStats) {
    into.counters.merge(&stats.counters);
    into.submitted += stats.submitted;
    into.completed += stats.completed;
    into.retried += stats.retried;
    into.batches += stats.batches;
}

/// `wire_closed`: two synchronous clients over loopback TCP. Each measured
/// segment runs on a broker and server of its own, stopped before the host
/// reference's next window.
pub fn wire_closed(cfg: &Config) -> Result<Outcome, String> {
    const CLIENTS: u64 = 2;
    let n = cfg.pick(1 << 20, 1 << 14);
    let keys = KeySpace::new(cfg.seed);
    let pairs = keys.pairs(n);
    let zipf = Zipf::new(u64::from(n), ZIPF_THETA);

    let rss0 = rss_bytes()?;
    let t0 = Instant::now();
    let (table, service) = set_up(&pairs, cfg, &cfg.grid(), true)?;
    let first_setup = t0.elapsed();
    let mem = rss_per_key(rss0, n as usize)?;
    service.stop();

    let epoch = Instant::now();
    let mut callers: Vec<Caller> = (1..=CLIENTS)
        .map(|c| Caller::new(c, MixStream::new(cfg.seed, c, keys, zipf.clone()), epoch))
        .collect();
    let mut stats = IngressStats::default();
    let mut stage_totals = [(0.0, 0.0); STAGE_COUNT];
    let mut speed = HostSpeed::default();
    speed.interleave(cfg.measure, |length| {
        let service = Service::start(&table, &cfg.grid(), true)?;
        let addr = service
            .server
            .as_ref()
            .expect("wire service has a server")
            .local_addr();
        let mut clients = callers
            .iter()
            .map(|c| c.dial(addr, cfg))
            .collect::<Result<Vec<_>, _>>()?;
        std::thread::scope(|s| {
            for (caller, client) in callers.iter_mut().zip(clients.iter_mut()) {
                s.spawn(|| caller.closed_loop(client, length, cfg.trace));
            }
        });
        drop(clients);
        let registry = service.broker.metrics();
        add_stats(&mut stats, &service.stop());
        add_stage_totals(&mut stage_totals, &registry);
        Ok(())
    })?;
    let working_set = table.device_bytes();
    drop(table);

    let mut out = Outcome::default();
    let mut latency = Samples::default();
    let (mut ops_per_s, mut transport_errors, mut reconnects) = (0.0, 0u64, 0u64);
    let mut stretches = [(0u64, Duration::ZERO); 2];
    for caller in callers {
        out.tally.merge(caller.tally);
        latency.merge(&caller.latency);
        ops_per_s += ratio(caller.latency.len() as f64, caller.wall.as_secs_f64());
        transport_errors += caller.transport_errors;
        reconnects += caller.reconnects;
        for (total, seg) in stretches.iter_mut().zip(caller.stretches) {
            total.0 += seg.0;
            total.1 += seg.1;
        }
        out.spans.extend(caller.tracer.spans);
    }

    let s = latency.summary();
    let setup_s = setup_median(first_setup, || restart(&pairs, cfg, true))?;
    out.set_end_to_end(setup_s, ops_per_s, &s, mem);
    out.at_nominal_speed(speed.slowdown());

    let m = &mut out.layers;
    broker_layers(m, &stats, working_set);
    let stage_means = stage_totals.map(|(ns, count)| ratio(ns, count) / 1e3);
    for (names, mean) in STAGE_METRICS.iter().zip(stage_means) {
        m.insert(names[2], mean);
    }
    let server: f64 = stage_means.iter().sum();
    m.insert("wire.client_call_us_mean", s.mean_us);
    m.insert("wire.server_broker_us_mean", server);
    m.insert("wire.residual_us_mean", s.mean_us - server);
    m.insert("wire.reconnects", reconnects as f64);
    m.insert("wire.transport_errors", transport_errors as f64);
    m.insert(
        "reconcile.residual_pct",
        ratio(s.mean_us - server, s.mean_us) * 100.0,
    );
    let rate = |(calls, busy): (u64, Duration)| ratio(calls as f64, busy.as_secs_f64());
    let (plain, traced) = (rate(stretches[0]), rate(stretches[1]));
    m.insert("trace.overhead_pct", ratio(plain - traced, plain) * 100.0);
    Ok(out)
}
