//! Integration tests for the wire transport: framed TCP server, the
//! reconnecting client, connection supervision, and the seeded chaos plan.
//!
//! The contract under test extends the broker's over the network: every
//! client call resolves to exactly one `Ok(OpResult)` or one typed
//! `TransportError` within its deadline (plus scheduling slack), no matter
//! what the wire does — torn frames, stalled writes, abrupt disconnects,
//! or the server hard-dying mid-load.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use slab_hash::{KeyValue, Request, SlabHash, SlabHashConfig};
use slab_ingress::transport::OverloadScope;
use slab_ingress::{
    Broker, BrokerConfig, TransportError, WireClient, WireClientConfig, WireFaultPlan, WireServer,
    WireServerConfig,
};

fn broker() -> Broker {
    let table = Arc::new(SlabHash::<KeyValue>::new(SlabHashConfig::with_buckets(256)));
    Broker::spawn(table, BrokerConfig::default())
}

fn client_cfg(seed: u64) -> WireClientConfig {
    WireClientConfig {
        default_deadline: Duration::from_secs(2),
        seed,
        ..WireClientConfig::default()
    }
}

/// Scrapes one counter/gauge value out of a rendered registry.
fn metric(rendered: &str, name: &str) -> u64 {
    rendered
        .lines()
        .find(|l| l.starts_with(name) && !l.starts_with('#'))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("metric {name} not found in scrape"))
}

#[test]
fn round_trip_over_tcp() {
    let broker = broker();
    let server = WireServer::bind("127.0.0.1:0", &broker, WireServerConfig::default()).unwrap();
    let mut client = WireClient::new(server.local_addr(), client_cfg(1)).unwrap();

    assert_eq!(client.put(7, 70).unwrap(), None);
    assert_eq!(client.get(7).unwrap(), Some(70));
    assert_eq!(client.put(7, 71).unwrap(), Some(70));
    assert_eq!(client.remove(7).unwrap(), Some(71));
    assert_eq!(client.get(7).unwrap(), None);
    // Typed ingress errors cross the wire too: an empty request is refused
    // client-side by the broker's envelope check, as over a ClientHandle.
    match client.call(Request::default()) {
        Err(TransportError::Ingress(e)) => {
            assert_eq!(e, slab_ingress::IngressError::EmptyRequest)
        }
        other => panic!("empty request returned {other:?}"),
    }

    let registry = broker.metrics();
    let stats = client.stats();
    assert_eq!(stats.requests, 6);
    assert_eq!(stats.completed, 6);
    assert_eq!(stats.transport_errors, 0);
    server.shutdown();
    broker.shutdown();
    let rendered = registry.render_prometheus();
    assert_eq!(
        metric(&rendered, "slab_transport_connections_accepted_total"),
        1
    );
    assert_eq!(metric(&rendered, "slab_transport_connections_open"), 0);
    assert_eq!(metric(&rendered, "slab_transport_inflight"), 0);
    assert!(metric(&rendered, "slab_transport_frames_rx_total") >= 6);
}

#[test]
fn garbage_bytes_get_a_typed_reject_and_fresh_connections_still_work() {
    let broker = broker();
    let server = WireServer::bind("127.0.0.1:0", &broker, WireServerConfig::default()).unwrap();

    // Raw garbage on a raw socket: the server must answer with a typed
    // Reject frame (BadFrame) and close, not hang or silently drop.
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    raw.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut bytes = Vec::new();
    let mut chunk = [0u8; 256];
    loop {
        match raw.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => bytes.extend_from_slice(&chunk[..n]),
            Err(_) => break,
        }
    }
    let mut carry = slab_ingress::wire::FrameBuffer::new();
    carry.extend(&bytes);
    match carry.next_frame() {
        Ok(Some(slab_ingress::wire::Frame::Reject(slab_ingress::wire::RejectReason::BadFrame))) => {
        }
        other => panic!("garbage got {other:?} instead of a BadFrame reject"),
    }

    // The poisoned connection did not damage the server: a fresh client
    // works.
    let mut client = WireClient::new(server.local_addr(), client_cfg(2)).unwrap();
    assert_eq!(client.put(1, 10).unwrap(), None);
    assert_eq!(client.get(1).unwrap(), Some(10));

    let registry = broker.metrics();
    server.shutdown();
    broker.shutdown();
    let rendered = registry.render_prometheus();
    assert!(metric(&rendered, "slab_transport_frame_decode_errors_total") >= 1);
}

#[test]
fn connection_cap_refuses_with_typed_reject() {
    let broker = broker();
    let cfg = WireServerConfig {
        max_connections: 2,
        ..WireServerConfig::default()
    };
    let server = WireServer::bind("127.0.0.1:0", &broker, cfg).unwrap();
    let mut c1 = WireClient::new(server.local_addr(), client_cfg(3)).unwrap();
    let mut c2 = WireClient::new(server.local_addr(), client_cfg(4)).unwrap();
    assert_eq!(c1.put(1, 1).unwrap(), None);
    assert_eq!(c2.put(2, 2).unwrap(), None);

    // The third connection must be refused with the typed connection-cap
    // answer, not silently dropped.
    let mut c3 = WireClient::new(server.local_addr(), client_cfg(5)).unwrap();
    match c3.get(1) {
        Err(TransportError::Overloaded {
            scope: OverloadScope::Connections,
            limit: 2,
        }) => {}
        other => panic!("over-cap connection got {other:?}"),
    }
    assert!(c3.stats().completed >= 1, "typed refusal counts as a reply");

    let registry = broker.metrics();
    server.shutdown();
    broker.shutdown();
    let rendered = registry.render_prometheus();
    assert!(metric(&rendered, "slab_transport_connections_rejected_total") >= 1);
}

#[test]
fn inflight_cap_refuses_pipelined_requests() {
    use slab_ingress::wire::{encode_frame, Frame, FrameBuffer, ReplyBody, WireRequest};
    let broker = broker();
    let cfg = WireServerConfig {
        max_inflight: 4,
        ..WireServerConfig::default()
    };
    let server = WireServer::bind("127.0.0.1:0", &broker, cfg).unwrap();

    // Pipeline many requests in one burst on a raw socket; with a window of
    // 4 some must be refused with the typed inflight-cap reply (the broker
    // is fast, so the window only fills when requests land back-to-back —
    // use enough to make overlap overwhelmingly likely).
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    raw.set_nodelay(true).unwrap();
    let n = 512u64;
    let mut burst = Vec::new();
    for i in 0..n {
        encode_frame(
            &Frame::Request(WireRequest {
                req_id: i,
                req: Request::replace(i as u32, i as u32),
                budget: Duration::from_secs(2),
            }),
            &mut burst,
        );
    }
    raw.write_all(&burst).unwrap();
    // Read exactly one reply per request: exactly-one-reply holds even for
    // refused requests.
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut carry = FrameBuffer::new();
    let mut chunk = [0u8; 4096];
    let mut replies = 0u64;
    let mut refused = 0u64;
    let mut seen = vec![false; n as usize];
    while replies < n {
        match carry.next_frame().expect("server frames decode") {
            Some(Frame::Reply(reply)) => {
                let id = reply.req_id as usize;
                assert!(!seen[id], "duplicate reply for {id}");
                seen[id] = true;
                replies += 1;
                if matches!(reply.body, ReplyBody::Refused(_)) {
                    refused += 1;
                }
                continue;
            }
            Some(other) => panic!("unexpected frame {other:?}"),
            None => {}
        }
        let n_read = raw.read(&mut chunk).expect("reply bytes");
        assert!(n_read > 0, "server closed before all replies");
        carry.extend(&chunk[..n_read]);
    }
    assert_eq!(replies, n);
    assert!(refused > 0, "a 512-deep burst never hit the 4-wide window");

    let registry = broker.metrics();
    drop(raw);
    server.shutdown();
    broker.shutdown();
    let rendered = registry.render_prometheus();
    assert!(metric(&rendered, "slab_transport_inflight_refused_total") >= refused);
}

#[test]
fn idle_connections_are_closed_and_clients_reconnect_transparently() {
    let broker = broker();
    let cfg = WireServerConfig {
        idle_timeout: Duration::from_millis(50),
        tick: Duration::from_millis(5),
        ..WireServerConfig::default()
    };
    let server = WireServer::bind("127.0.0.1:0", &broker, cfg).unwrap();
    let mut client = WireClient::new(server.local_addr(), client_cfg(6)).unwrap();
    assert_eq!(client.put(1, 10).unwrap(), None);

    // Let the server idle-close the connection...
    std::thread::sleep(Duration::from_millis(300));
    // ...then keep calling: the first call may surface the loss as a typed
    // disconnect, after which the client redials and service resumes.
    let mut value = None;
    for _ in 0..3 {
        match client.get(1) {
            Ok(v) => {
                value = Some(v);
                break;
            }
            Err(e) if e.is_disconnect() => continue,
            Err(e) => panic!("unexpected error after idle close: {e:?}"),
        }
    }
    assert_eq!(
        value,
        Some(Some(10)),
        "service did not resume after idle close"
    );

    let registry = broker.metrics();
    server.shutdown();
    broker.shutdown();
    let rendered = registry.render_prometheus();
    assert!(metric(&rendered, "slab_transport_connections_idle_closed_total") >= 1);
    assert!(metric(&rendered, "slab_transport_connections_accepted_total") >= 2);
}

#[test]
fn graceful_drain_answers_in_flight_work() {
    let broker = broker();
    let server = WireServer::bind("127.0.0.1:0", &broker, WireServerConfig::default()).unwrap();
    let addr = server.local_addr();

    // A slow stream of calls from a sibling thread while the main thread
    // drains the server: every call must resolve (Ok, typed refusal, or
    // typed disconnect) — none may hang. Each call after the drain re-dials
    // a closed port, so the client gets a tight dial budget; with the
    // default one every such call spends its whole 2 s deadline redialing.
    let worker = std::thread::spawn(move || {
        let mut client = WireClient::new(
            addr,
            WireClientConfig {
                max_connect_attempts: 2,
                connect_timeout: Duration::from_millis(100),
                reconnect_cap: Duration::from_millis(20),
                ..client_cfg(7)
            },
        )
        .unwrap();
        let started = Instant::now();
        let mut outcomes = Vec::new();
        for k in 0..200u32 {
            outcomes.push(client.call(Request::replace(k, k)));
        }
        (outcomes, started.elapsed())
    });
    std::thread::sleep(Duration::from_millis(20));
    server.shutdown();
    let (outcomes, elapsed) = worker.join().unwrap();
    assert!(
        elapsed < Duration::from_secs(10),
        "200 calls across a drain took {elapsed:?}"
    );
    let ok = outcomes.iter().filter(|o| o.is_ok()).count();
    assert!(ok > 0, "no call completed before the drain");
    for o in outcomes {
        match o {
            Ok(_) => {}
            Err(e) => assert!(
                e.is_disconnect() || e.is_overload() || e.is_timeout(),
                "drain produced a non-shutdown error: {e:?}"
            ),
        }
    }
    broker.shutdown();
}

#[test]
fn kill_and_restart_resumes_goodput_with_typed_errors_in_between() {
    let broker = broker();
    let server = WireServer::bind("127.0.0.1:0", &broker, WireServerConfig::default()).unwrap();
    let addr = server.local_addr();
    let mut client = WireClient::new(
        addr,
        WireClientConfig {
            default_deadline: Duration::from_secs(2),
            // Tight dial budget so the dead-server window fails fast.
            max_connect_attempts: 2,
            connect_timeout: Duration::from_millis(100),
            reconnect_base: Duration::from_millis(5),
            reconnect_cap: Duration::from_millis(20),
            seed: 8,
            ..WireClientConfig::default()
        },
    )
    .unwrap();
    assert_eq!(client.put(1, 10).unwrap(), None);

    // Hard-kill the server: in-flight and subsequent calls must surface as
    // typed disconnect/connect errors, never hangs.
    server.abort();
    let mut typed_failures = 0;
    for _ in 0..5 {
        match client.get(1) {
            Err(e) if e.is_disconnect() || e.is_timeout() => typed_failures += 1,
            Ok(_) => panic!("dead server answered"),
            Err(e) => panic!("dead server produced unexpected error {e:?}"),
        }
    }
    assert_eq!(typed_failures, 5);

    // Restart on the same port (retry binds: the OS may lag releasing it).
    let server2 = loop {
        match WireServer::bind(addr, &broker, WireServerConfig::default()) {
            Ok(s) => break s,
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    };
    // The client's own reconnect loop resumes goodput; allow a few calls
    // for the dial to land.
    let mut resumed = false;
    for _ in 0..20 {
        if let Ok(v) = client.get(1) {
            assert_eq!(v, Some(10), "table state survived the transport restart");
            resumed = true;
            break;
        }
    }
    assert!(resumed, "client never resumed after server restart");
    let stats = client.stats();
    assert!(stats.reconnects >= 1, "reconnects not counted: {stats:?}");
    assert!(stats.transport_errors >= 5);

    let registry = broker.metrics();
    server2.shutdown();
    broker.shutdown();
    let rendered = registry.render_prometheus();
    // Connection metrics assert the resume: the restarted server accepted
    // this client again.
    assert!(metric(&rendered, "slab_transport_connections_accepted_total") >= 2);
    assert_eq!(metric(&rendered, "slab_transport_connections_open"), 0);
}

/// Set in the environment of the kill -9 drill's server child: the
/// address it binds.
const DRILL_ADDR: &str = "SLAB_KILL_DRILL_ADDR";
/// The line with which the drill's server child reports its address.
const DRILL_READY: &str = "kill drill server listening on ";

/// The server child of `kill_9_mid_load_then_restart_resumes_goodput`: a
/// broker behind a `WireServer` on the address in `DRILL_ADDR`, serving
/// until it is killed. Without `DRILL_ADDR` it returns at once.
#[test]
fn kill_drill_server() {
    let Ok(addr) = std::env::var(DRILL_ADDR) else {
        return;
    };
    let broker = broker();
    // A restarted child can find the port busy for a moment; retry.
    let server = loop {
        match WireServer::bind(addr.as_str(), &broker, WireServerConfig::default()) {
            Ok(server) => break server,
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    };
    println!("{DRILL_READY}{}", server.local_addr());
    loop {
        std::thread::park();
    }
}

/// A drill server child process. Dropping it kills the process with
/// SIGKILL and reaps it, on every exit path of the test.
struct ServerChild(Child);

impl ServerChild {
    /// Re-runs this test binary as `kill_drill_server` on `addr` and
    /// returns once the child reports the address it bound.
    fn start(addr: &str) -> (Self, SocketAddr) {
        let mut child = Command::new(std::env::current_exe().unwrap())
            .args(["--exact", "kill_drill_server", "--nocapture"])
            .env(DRILL_ADDR, addr)
            .stdout(Stdio::piped())
            .spawn()
            .expect("start the drill server child");
        let stdout = child.stdout.take().unwrap();
        let child = Self(child);
        let bound = BufReader::new(stdout)
            .lines()
            .map_while(Result::ok)
            .find_map(|line| line.strip_prefix(DRILL_READY).map(|a| a.parse().unwrap()))
            .expect("the drill server child exited before listening");
        (child, bound)
    }
}

impl Drop for ServerChild {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// The kill -9 drill's shared state: phase flags set by the test, counts
/// summed over its clients.
#[derive(Default)]
struct Drill {
    restarted: AtomicBool,
    stop: AtomicBool,
    completed: AtomicU64,
    completed_after_restart: AtomicU64,
    transport_errors: AtomicU64,
    reconnects: AtomicU64,
}

/// One closed-loop drill client: 90 % SEARCH, 10 % REPLACE over 2^14
/// keys, a 250 ms budget per call, until `stop` is set (or 10 s pass, so
/// a failed test cannot leave it running).
fn drill_client(addr: SocketAddr, c: u64, drill: &Drill) {
    let mut client = WireClient::new(
        addr,
        WireClientConfig {
            default_deadline: Duration::from_millis(250),
            seed: 0x59C5_B000 + c,
            ..WireClientConfig::default()
        },
    )
    .unwrap();
    let started = Instant::now();
    let mut i = c << 40;
    while !drill.stop.load(Ordering::Relaxed) && started.elapsed() < Duration::from_secs(10) {
        // Read before the call: a reply to a call that began after the
        // restart can only come from the new server.
        let after_restart = drill.restarted.load(Ordering::Relaxed);
        let z = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let key = 1 + (z >> 50) as u32;
        let req = if (z >> 32).is_multiple_of(10) {
            Request::replace(key, i as u32)
        } else {
            Request::search(key)
        };
        match client.call(req) {
            Ok(_) if after_restart => {
                drill
                    .completed_after_restart
                    .fetch_add(1, Ordering::Relaxed);
            }
            Ok(_) => {
                drill.completed.fetch_add(1, Ordering::Relaxed);
            }
            Err(e) if e.is_disconnect() => {
                drill.transport_errors.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {}
        }
        i += 1;
    }
    let reconnects = client.stats().reconnects;
    drill.reconnects.fetch_add(reconnects, Ordering::Relaxed);
}

/// Waits until `count` reaches `n`, for at most 5 s.
fn wait_for(count: &AtomicU64, n: u64) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while count.load(Ordering::Relaxed) < n && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// The kill -9 drill: a real server process is SIGKILLed under load from
/// four reconnecting clients and restarted on the same address. The
/// clients must see typed transport errors, reconnect, and complete calls
/// against the new process.
#[test]
fn kill_9_mid_load_then_restart_resumes_goodput() {
    let (server, addr) = ServerChild::start("127.0.0.1:0");
    let drill = Drill::default();
    std::thread::scope(|scope| {
        for c in 0..4 {
            let drill = &drill;
            scope.spawn(move || drill_client(addr, c, drill));
        }
        wait_for(&drill.completed, 1_000);
        drop(server);
        wait_for(&drill.transport_errors, 4);
        let (_server, _) = ServerChild::start(&addr.to_string());
        drill.restarted.store(true, Ordering::Relaxed);
        wait_for(&drill.completed_after_restart, 1_000);
        drill.stop.store(true, Ordering::Relaxed);
    });
    let count = |n: &AtomicU64| n.load(Ordering::Relaxed);
    let (before, after) = (
        count(&drill.completed),
        count(&drill.completed_after_restart),
    );
    let (errors, reconnects) = (count(&drill.transport_errors), count(&drill.reconnects));
    let seen = format!(
        "{before} calls completed before the restart, {after} after, \
         {errors} transport errors, {reconnects} reconnects"
    );
    println!("kill -9 drill: {seen}");
    assert!(before > 0 && after > 0, "{seen}");
    assert!(errors > 0, "the kill produced no typed error: {seen}");
    assert!(reconnects > 0, "no client reconnected: {seen}");
}

/// The acceptance chaos test: a seeded fault plan of torn frames, stalled
/// writes, and abrupt disconnects on **both** sides, plus one hard server
/// kill mid-load. Every request must resolve to exactly one reply or one
/// typed error within its deadline (plus scheduling slack), and the
/// reconnecting client must resume goodput after the restart — asserted
/// via the connection metrics.
#[test]
fn chaos_transport_is_deterministically_survivable() {
    const SEED: u64 = 0xC4A0_5EED;
    let broker = broker();
    let server_fault = WireFaultPlan::seeded(SEED)
        .with_torn_frames(0.02)
        .with_stalls(0.02, Duration::from_millis(5))
        .with_disconnects(0.02);
    let server_cfg = WireServerConfig {
        fault: Some(server_fault),
        tick: Duration::from_millis(5),
        ..WireServerConfig::default()
    };
    let server = WireServer::bind("127.0.0.1:0", &broker, server_cfg.clone()).unwrap();
    let addr = server.local_addr();

    let client_fault = WireFaultPlan::seeded(SEED ^ 1)
        .with_torn_frames(0.02)
        .with_disconnects(0.02);
    let budget = Duration::from_secs(2);
    let mut client = WireClient::new(
        addr,
        WireClientConfig {
            default_deadline: budget,
            max_connect_attempts: 4,
            connect_timeout: Duration::from_millis(200),
            reconnect_base: Duration::from_millis(2),
            reconnect_cap: Duration::from_millis(50),
            seed: SEED ^ 2,
            fault: Some(client_fault),
        },
    )
    .unwrap();

    // Generous slack over the per-call budget: a call may additionally pay
    // the reconnect schedule, injected stalls, and scheduling noise — but
    // it must never block unboundedly.
    let per_call_bound = budget + Duration::from_secs(3);
    let n = 600u32;
    let kill_at = n / 2;
    let mut ok = 0u64;
    let mut typed_errors = 0u64;
    let mut server_slot = Some(server);
    for k in 0..n {
        if k == kill_at {
            // One hard kill mid-load; restart immediately on the same port.
            server_slot.take().unwrap().abort();
            server_slot = Some(loop {
                match WireServer::bind(addr, &broker, server_cfg.clone()) {
                    Ok(s) => break s,
                    Err(_) => std::thread::sleep(Duration::from_millis(10)),
                }
            });
        }
        let started = Instant::now();
        match client.call(Request::replace(k % 97, k)) {
            Ok(_) => ok += 1,
            Err(
                TransportError::Connect { .. }
                | TransportError::ConnectionLost { .. }
                | TransportError::DeadlineExceeded { .. }
                | TransportError::Frame(_)
                | TransportError::RemoteBadFrame
                | TransportError::Draining
                | TransportError::Overloaded { .. }
                | TransportError::Ingress(_),
            ) => typed_errors += 1,
            Err(other) => panic!("untyped outcome {other:?}"),
        }
        let took = started.elapsed();
        assert!(
            took <= per_call_bound,
            "request {k} took {took:?}, past its bound {per_call_bound:?}"
        );
    }
    // Exactly one outcome per request, by construction of the loop — the
    // accounting must agree.
    assert_eq!(ok + typed_errors, u64::from(n));
    assert!(
        typed_errors > 0,
        "the fault plan injected nothing; the chaos run tested nothing"
    );
    // Goodput resumed after the kill: some tail requests succeeded.
    assert!(ok > 0, "no request ever succeeded under chaos");
    let stats = client.stats();
    assert!(
        stats.reconnects >= 1,
        "chaos run never exercised the reconnect path: {stats:?}"
    );

    let registry = broker.metrics();
    server_slot.take().unwrap().shutdown();
    broker.shutdown();
    let rendered = registry.render_prometheus();
    // The restarted server saw this client come back (≥ 2 accepts: initial
    // plus post-kill redial), and teardown is clean.
    assert!(metric(&rendered, "slab_transport_connections_accepted_total") >= 2);
    assert_eq!(metric(&rendered, "slab_transport_connections_open"), 0);
    assert_eq!(metric(&rendered, "slab_transport_inflight"), 0);
}

/// The same chaos schedule replays identically: the fault plans are seeded
/// and the decision sequences per stream are deterministic, so two runs of
/// the same plan against a quiet broker inject the same fault pattern.
#[test]
fn chaos_decisions_replay_across_runs() {
    use slab_ingress::transport::FaultAction;
    let plan = WireFaultPlan::seeded(77)
        .with_torn_frames(0.1)
        .with_stalls(0.1, Duration::from_millis(1))
        .with_disconnects(0.1);
    let run = || -> Vec<FaultAction> {
        let mut inj = plan.injector(5);
        (0..256).map(|_| inj.next_action()).collect()
    };
    assert_eq!(run(), run());
}

#[test]
fn wire_call_maps_socket_deadline_onto_request_budget() {
    // A server that accepts but never answers: bind a raw listener and
    // swallow bytes. The client must resolve with DeadlineExceeded in
    // roughly the budget, never hang.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let swallow = std::thread::spawn(move || {
        let (mut s, _) = listener.accept().unwrap();
        let mut sink = [0u8; 1024];
        while matches!(s.read(&mut sink), Ok(n) if n > 0) {}
    });
    let mut client = WireClient::new(addr, client_cfg(9)).unwrap();
    let budget = Duration::from_millis(100);
    let started = Instant::now();
    match client.call_with_deadline(Request::search(1), budget) {
        Err(TransportError::DeadlineExceeded { .. }) => {}
        other => panic!("stalled server produced {other:?}"),
    }
    let took = started.elapsed();
    assert!(took >= Duration::from_millis(80), "gave up early: {took:?}");
    assert!(
        took < Duration::from_secs(2),
        "overstayed the budget: {took:?}"
    );
    drop(client);
    swallow.join().unwrap();
}
