//! Serving the metrics plane: a Prometheus text endpoint and periodic JSONL
//! snapshots.
//!
//! [`MetricsServer`] is a deliberately tiny HTTP/1.1 responder on a std
//! `TcpListener`: one accept thread, one short-lived response per
//! connection, every path answered with the current
//! [`MetricsRegistry`] scrape in text exposition
//! format 0.0.4. No async runtime, no external dependency — a scrape is a
//! cold path and a sequential write of a few kilobytes.
//!
//! [`JsonlSnapshots`] covers headless runs (CI, soaks, batch jobs) where
//! nothing will come scrape: a background thread appends one JSON line per
//! interval to a file, so a run that dies still leaves its metric history
//! behind.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::metrics::MetricsRegistry;

/// A running Prometheus-text endpoint over a [`MetricsRegistry`].
///
/// Bind with [`MetricsServer::serve`]; scrape with
/// `curl http://<addr>/metrics`; stop with [`MetricsServer::shutdown`] (or
/// drop — the accept thread is detached-joined either way).
#[derive(Debug)]
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// Binds `addr` (e.g. `"127.0.0.1:9184"`, port 0 for ephemeral) and
    /// starts the accept thread serving `registry`.
    pub fn serve(addr: &str, registry: Arc<MetricsRegistry>) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("telemetry-metrics-exporter".into())
            .spawn(move || accept_loop(&listener, &registry, &stop_flag))?;
        Ok(Self {
            addr,
            stop,
            thread: Some(thread),
        })
    }

    /// The bound address (resolves port 0 to the real ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept thread and joins it.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Release);
        // Unblock the accept() by connecting once; failure is fine (the
        // listener may already be gone).
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn accept_loop(listener: &TcpListener, registry: &MetricsRegistry, stop: &AtomicBool) {
    loop {
        let stream = match listener.accept() {
            Ok((s, _)) => s,
            Err(_) => continue,
        };
        if stop.load(Ordering::Acquire) {
            return;
        }
        // One request per connection, best effort: a failed scrape hurts
        // nobody but the scraper.
        let _ = respond(stream, registry);
    }
}

fn respond(mut stream: TcpStream, registry: &MetricsRegistry) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    // Drain the request head (we answer every method/path identically, so
    // only "did the client finish sending headers" matters).
    let mut buf = [0u8; 4096];
    let mut seen = Vec::new();
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                seen.extend_from_slice(&buf[..n]);
                if seen.windows(4).any(|w| w == b"\r\n\r\n") || seen.len() >= 16 * 1024 {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let body = registry.render_prometheus();
    let head = format!(
        "HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// Scrapes `http://addr/metrics` once over a plain TCP connection and
/// returns the response body. A convenience for examples and tests that
/// want to self-scrape without shelling out to curl.
pub fn scrape_text(addr: SocketAddr) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.write_all(b"GET /metrics HTTP/1.1\r\nHost: metrics\r\nConnection: close\r\n\r\n")?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    match response.split_once("\r\n\r\n") {
        Some((_, body)) => Ok(body.to_string()),
        None => Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "no HTTP header/body separator in exporter response",
        )),
    }
}

/// A background thread appending one JSON snapshot line per interval.
///
/// Timestamps are milliseconds since the loop started — relative, so
/// snapshot files diff cleanly across runs.
#[derive(Debug)]
pub struct JsonlSnapshots {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
    path: PathBuf,
}

impl JsonlSnapshots {
    /// Starts snapshotting `registry` into `path` every `interval`. The
    /// file is created (truncated) immediately with one initial line, so
    /// even a short run leaves evidence; a final line is written on
    /// shutdown.
    pub fn start(
        path: impl Into<PathBuf>,
        registry: Arc<MetricsRegistry>,
        interval: Duration,
    ) -> std::io::Result<Self> {
        let path = path.into();
        let mut file = std::fs::File::create(&path)?;
        let started = Instant::now();
        file.write_all(registry.render_jsonl(0).as_bytes())?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let interval = interval.max(Duration::from_millis(1));
        let thread = std::thread::Builder::new()
            .name("telemetry-jsonl-snapshots".into())
            .spawn(move || {
                let mut next = started + interval;
                loop {
                    // Sleep in short slices so shutdown is prompt even with
                    // long intervals.
                    while Instant::now() < next {
                        if stop_flag.load(Ordering::Acquire) {
                            break;
                        }
                        std::thread::sleep(Duration::from_millis(5).min(interval));
                    }
                    let ts = started.elapsed().as_millis().min(u64::MAX as u128) as u64;
                    let _ = file.write_all(registry.render_jsonl(ts).as_bytes());
                    if stop_flag.load(Ordering::Acquire) {
                        let _ = file.flush();
                        return;
                    }
                    next += interval;
                }
            })?;
        Ok(Self {
            stop,
            thread: Some(thread),
            path,
        })
    }

    /// The snapshot file path.
    pub fn path(&self) -> &std::path::Path {
        &self.path
    }

    /// Writes one final snapshot line, stops the loop, and joins it.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for JsonlSnapshots {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serves_prometheus_text_over_http() {
        let registry = Arc::new(MetricsRegistry::new());
        registry.counter("hits_total", "hits").add(3);
        registry.gauge("depth", "queue depth").set(5);
        let server = MetricsServer::serve("127.0.0.1:0", Arc::clone(&registry)).unwrap();
        let body = scrape_text(server.local_addr()).unwrap();
        assert!(body.contains("# TYPE hits_total counter"));
        assert!(body.contains("hits_total 3"));
        assert!(body.contains("depth 5"));
        // A second scrape sees fresh values: the endpoint is live, not a
        // point-in-time dump.
        registry.counter("hits_total", "hits").add(1);
        let body = scrape_text(server.local_addr()).unwrap();
        assert!(body.contains("hits_total 4"));
        server.shutdown();
    }

    #[test]
    fn shutdown_is_prompt_and_idempotent_under_drop() {
        let registry = Arc::new(MetricsRegistry::new());
        let server = MetricsServer::serve("127.0.0.1:0", registry).unwrap();
        let addr = server.local_addr();
        drop(server);
        // The port is released: a fresh bind to the same address works.
        let _rebind = TcpListener::bind(addr).expect("exporter released its port");
    }

    #[test]
    fn jsonl_snapshots_append_over_time() {
        let registry = Arc::new(MetricsRegistry::new());
        registry.counter("ticks_total", "ticks").add(2);
        let dir = std::env::temp_dir().join(format!("metrics-snap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.jsonl");
        let snaps =
            JsonlSnapshots::start(&path, Arc::clone(&registry), Duration::from_millis(10)).unwrap();
        std::thread::sleep(Duration::from_millis(40));
        snaps.shutdown();
        let content = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = content.lines().collect();
        assert!(
            lines.len() >= 2,
            "initial + final line at minimum: {lines:?}"
        );
        for line in &lines {
            assert!(line.starts_with("{\"ts_ms\":"), "bad snapshot line: {line}");
            assert!(line.contains("\"ticks_total\""));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
