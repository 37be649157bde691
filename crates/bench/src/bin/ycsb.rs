//! Wire load client: the load half of the transport smoke test.
//!
//! `ycsb --connect ADDR` drives an already-running server (see the
//! `wire_server` binary) with C client threads, one reconnecting
//! [`WireClient`] each and one request in flight per client: 90 % SEARCH,
//! 10 % REPLACE over a fixed keyspace. It is deliberately failure-tolerant:
//! transport errors are counted, not fatal, and clients redial through
//! server restarts, so `scripts/transport_smoke.sh` can `kill -9` the
//! server mid-load and still read a clean report.
//!
//! Flags: `--connect HOST:PORT` (required), `--clients C` (default 4),
//! `--duration-ms D` (default 400), `--out <path>` (default
//! `transport_load.json`). The report carries `completed`,
//! `transport_errors` and `reconnects`, which the smoke script asserts on.
//!
//! Performance is measured by the ledger (`ledger/`, workload
//! `wire_closed`), not here.

use std::time::{Duration, Instant};

use slab_bench::Args;
use slab_hash::Request;
use slab_ingress::{WireClient, WireClientConfig};

/// Keys drawn by the request mix.
const KEYSPACE: u32 = 1 << 14;
/// Per-call deadline budget.
const BUDGET: Duration = Duration::from_millis(250);

/// What the clients saw, summed over threads.
#[derive(Default)]
struct LoadStats {
    attempted: u64,
    completed: u64,
    refused: u64,
    transport_errors: u64,
    errors: u64,
    reconnects: u64,
}

impl LoadStats {
    fn merge(&mut self, other: &LoadStats) {
        self.attempted += other.attempted;
        self.completed += other.completed;
        self.refused += other.refused;
        self.transport_errors += other.transport_errors;
        self.errors += other.errors;
        self.reconnects += other.reconnects;
    }
}

/// Deterministic request mix: 90 % searches, the rest REPLACE upserts.
fn request_for(i: u64) -> Request {
    // SplitMix64-style scramble: cheap, stateless, well distributed.
    let mut z = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    let key = 1 + (z as u32 % KEYSPACE);
    if (z >> 32) as u32 % 100 < 90 {
        Request::search(key)
    } else {
        Request::replace(key, i as u32)
    }
}

/// One client thread's closed loop until `duration` has passed.
fn client_loop(
    addr: std::net::SocketAddr,
    c: u64,
    start: Instant,
    duration: Duration,
) -> LoadStats {
    let mut stats = LoadStats::default();
    let cfg = WireClientConfig {
        default_deadline: BUDGET,
        seed: 0x59C5_B000 + c,
        ..WireClientConfig::default()
    };
    let Ok(mut client) = WireClient::new(addr, cfg) else {
        return stats;
    };
    let mut i = c << 40;
    while start.elapsed() < duration {
        stats.attempted += 1;
        match client.call(request_for(i)) {
            Ok(_) => stats.completed += 1,
            Err(e) if e.is_overload() || e.is_timeout() => stats.refused += 1,
            Err(e) if e.is_disconnect() => stats.transport_errors += 1,
            Err(_) => stats.errors += 1,
        }
        i += 1;
    }
    stats.reconnects = client.stats().reconnects;
    stats
}

fn main() {
    let args = Args::parse();
    let addr: std::net::SocketAddr = args
        .value::<String>("connect")
        .expect("--connect HOST:PORT is required")
        .parse()
        .expect("--connect takes HOST:PORT");
    let clients: u64 = args.value("clients").unwrap_or(4);
    let duration = Duration::from_millis(args.value("duration-ms").unwrap_or(400));
    let out: String = args
        .value("out")
        .unwrap_or_else(|| "transport_load.json".into());

    println!(
        "wire load -> {addr}: {clients} clients, {}ms",
        duration.as_millis()
    );
    let start = Instant::now();
    let joins: Vec<_> = (0..clients)
        .map(|c| std::thread::spawn(move || client_loop(addr, c, start, duration)))
        .collect();
    let mut total = LoadStats::default();
    for join in joins {
        total.merge(&join.join().expect("load client thread"));
    }
    let json = format!(
        "{{\"addr\": \"{addr}\", \"clients\": {clients}, \"duration_ms\": {}, \
         \"attempted\": {}, \"completed\": {}, \"refused\": {}, \
         \"transport_errors\": {}, \"errors\": {}, \"reconnects\": {}}}\n",
        duration.as_millis(),
        total.attempted,
        total.completed,
        total.refused,
        total.transport_errors,
        total.errors,
        total.reconnects,
    );
    print!("{json}");
    std::fs::write(&out, json).expect("write load report");
}
