//! The host reference: a miniature of the wire path, written here with the
//! standard library alone, timed so that a workload's times can be stated
//! at the host's nominal speed (see "Host speed" in the crate docs).
//!
//! It is only ever timed while the process runs nothing else. A workload
//! measures in segments of about a second; before the first and after
//! each, with every thread the segment started ended, a window times the
//! reference a few dozen times. A window refuses to start while any other
//! thread is alive, so no thread of the repository's code, busy or idle,
//! can share the cores with it, and no change to the repository's crates
//! can move it.
//!
//! Of the references tried on the 2-core host the bounds were set on, this
//! one tracked the drift best: over 24 runs of 20 s, the median time of a
//! sample correlated with throughput at -0.93 (`kernel_search_hiutil`),
//! -0.86 (`kernel_churn`) and -0.92 (`wire_closed`). A pointer chase
//! through 64 MiB and an integer loop on both cores tracked worse on at
//! least one of them.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Round trips each of the two reference clients makes per sample.
const ROUND_TRIPS: u64 = 64;
/// Time of one sample at the host's nominal speed: the median over 72
/// runs on the 2-core host the bounds were set on.
const NOMINAL: Duration = Duration::from_micros(2400);
/// Samples in one window, about 60 ms at nominal speed.
const WINDOW_SAMPLES: usize = 24;
/// Longest measured segment between two windows.
const SEGMENT: Duration = Duration::from_secs(1);
/// How long a window waits for the threads a workload has joined to leave
/// the process before it gives up.
const QUIET_WAIT: Duration = Duration::from_secs(2);

/// Threads alive in this process, from `/proc/self/task`.
fn live_threads() -> Result<usize, String> {
    std::fs::read_dir("/proc/self/task")
        .map(Iterator::count)
        .map_err(|e| format!("reading /proc/self/task: {e}"))
}

/// Waits until the calling thread is the only one alive.
fn wait_until_alone() -> Result<(), String> {
    let deadline = Instant::now() + QUIET_WAIT;
    loop {
        let threads = live_threads()?;
        if threads == 1 {
            return Ok(());
        }
        if Instant::now() >= deadline {
            return Err(format!(
                "the host reference times only a process that runs nothing else, \
                 but {threads} threads are alive"
            ));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Reference samples from the windows of one run.
#[derive(Debug, Default)]
pub struct HostSpeed {
    samples: Vec<Duration>,
}

impl HostSpeed {
    /// Runs `segment` with lengths that add up to `total`, none longer than
    /// `SEGMENT`, and times a window of the reference before the first and
    /// after each. `segment` must end every thread it starts before it
    /// returns, or the next window refuses to run.
    pub fn interleave(
        &mut self,
        total: Duration,
        mut segment: impl FnMut(Duration) -> Result<(), String>,
    ) -> Result<(), String> {
        self.window(WINDOW_SAMPLES)?;
        let mut done = Duration::ZERO;
        while done < total {
            let length = SEGMENT.min(total - done);
            segment(length)?;
            done += length;
            self.window(WINDOW_SAMPLES)?;
        }
        Ok(())
    }

    /// Times `samples` samples of the reference, once every other thread of
    /// the process has ended; the reference's own threads are joined before
    /// this returns.
    fn window(&mut self, samples: usize) -> Result<(), String> {
        wait_until_alone()?;
        let mut reference = Reference::start()?;
        for _ in 0..samples {
            self.samples.push(reference.sample()?);
        }
        Ok(())
    }

    /// How much slower than nominal the median sample ran: above 1 on a
    /// slow host. The median, because a sample that one scheduler stall
    /// stretched says little about the rest of the run.
    pub fn slowdown(&self) -> f64 {
        if self.samples.is_empty() {
            return 1.0;
        }
        let secs: Vec<f64> = self.samples.iter().map(Duration::as_secs_f64).collect();
        crate::record::median(&secs) / NOMINAL.as_secs_f64()
    }
}

/// CPU time, in clock ticks, of the whole host (all CPUs) and of this
/// process, for telling how much of the host other processes took.
#[derive(Debug, Clone, Copy)]
pub struct CpuTimes {
    /// Host time not idle, steal included.
    host_busy: u64,
    host_total: u64,
    /// This process's user and system time.
    process: u64,
}

impl CpuTimes {
    pub fn now() -> Result<Self, String> {
        let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("reading {p}: {e}"));
        let stat = read("/proc/stat")?;
        // cpu user nice system idle iowait irq softirq steal (guest time is
        // already inside user).
        let host: Vec<u64> = stat
            .lines()
            .next()
            .and_then(|l| l.strip_prefix("cpu "))
            .map(|l| {
                l.split_whitespace()
                    .take(8)
                    .filter_map(|v| v.parse().ok())
                    .collect()
            })
            .unwrap_or_default();
        if host.len() != 8 {
            return Err("no cpu line in /proc/stat".into());
        }
        // utime and stime are the 14th and 15th fields, the 12th and 13th
        // after the parenthesised command name.
        let own = read("/proc/self/stat")?;
        let process: u64 = own
            .rsplit_once(')')
            .map(|(_, rest)| {
                rest.split_whitespace()
                    .skip(11)
                    .take(2)
                    .filter_map(|v| v.parse::<u64>().ok())
                    .sum()
            })
            .ok_or("malformed /proc/self/stat")?;
        Ok(Self {
            host_busy: host.iter().sum::<u64>() - host[3] - host[4],
            host_total: host.iter().sum(),
            process,
        })
    }

    /// The share of all the host's CPU time since `earlier` that went to
    /// other processes, or to other machines as steal.
    pub fn foreign_share_since(&self, earlier: &CpuTimes) -> f64 {
        let busy = self.host_busy.saturating_sub(earlier.host_busy);
        let own = self.process.saturating_sub(earlier.process);
        let total = self.host_total.saturating_sub(earlier.host_total);
        crate::ratio(busy.saturating_sub(own) as f64, total as f64)
    }
}

/// A request to the worker thread and where to send its answer.
type Request = (u64, mpsc::Sender<u64>);

/// Two connections to a loopback server whose connection threads hand
/// each 8-byte request to one shared worker thread and write back its
/// answer, as `WireServer` hands requests to the broker.
struct Reference {
    conns: Vec<TcpStream>,
    threads: Vec<JoinHandle<()>>,
}

impl Reference {
    /// Starts the miniature server and connects both clients.
    fn start() -> Result<Self, String> {
        let (to_worker, requests) = mpsc::channel::<Request>();
        let worker = std::thread::spawn(move || {
            for (x, reply) in requests {
                let _ = reply.send(x.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            }
        });
        let mut reference = Self {
            conns: Vec::new(),
            threads: vec![worker],
        };
        let connected = reference.connect(&to_worker);
        // The worker ends once every sender is gone, so this one goes before
        // an error drops (and joins) `reference`.
        drop(to_worker);
        connected.map_err(|e| format!("host reference: {e}"))?;
        Ok(reference)
    }

    fn connect(&mut self, to_worker: &mpsc::Sender<Request>) -> std::io::Result<()> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        for _ in 0..2 {
            let conn = TcpStream::connect(addr)?;
            conn.set_nodelay(true)?;
            self.conns.push(conn);
            let (mut server, _) = listener.accept()?;
            server.set_nodelay(true)?;
            let to_worker = to_worker.clone();
            self.threads.push(std::thread::spawn(move || {
                let (reply, answers) = mpsc::channel();
                let mut buf = [0u8; 8];
                while server.read_exact(&mut buf).is_ok() {
                    if to_worker
                        .send((u64::from_le_bytes(buf), reply.clone()))
                        .is_err()
                    {
                        return;
                    }
                    let Ok(answer) = answers.recv() else { return };
                    if server.write_all(&answer.to_le_bytes()).is_err() {
                        return;
                    }
                }
            }));
        }
        Ok(())
    }

    /// Runs one sample, both clients making their round trips at once, and
    /// returns how long it took.
    fn sample(&mut self) -> Result<Duration, String> {
        let t0 = Instant::now();
        std::thread::scope(|s| {
            let clients: Vec<_> = self
                .conns
                .iter_mut()
                .map(|conn| {
                    s.spawn(move || -> std::io::Result<()> {
                        let mut buf = [0u8; 8];
                        for i in 0..ROUND_TRIPS {
                            conn.write_all(&i.to_le_bytes())?;
                            conn.read_exact(&mut buf)?;
                        }
                        Ok(())
                    })
                })
                .collect();
            clients.into_iter().try_for_each(|c| {
                c.join()
                    .map_err(|_| "host reference client panicked".to_string())?
                    .map_err(|e| format!("host reference: {e}"))
            })
        })?;
        Ok(t0.elapsed())
    }
}

impl Drop for Reference {
    fn drop(&mut self) {
        // Closing the clients ends the connection threads, which drops the
        // worker's last senders and ends it too.
        self.conns.clear();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    /// A thread that keeps a core busy cannot slow a reference sample,
    /// because no sample is taken while it lives: the window refuses and
    /// leaves the slowdown untouched.
    #[test]
    fn a_busy_thread_keeps_the_window_from_sampling() {
        let stop = Arc::new(AtomicBool::new(false));
        let busy = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    std::hint::spin_loop();
                }
            })
        };
        assert!(live_threads().unwrap() >= 2);
        let mut speed = HostSpeed::default();
        let refused = speed.window(1);
        stop.store(true, Ordering::Relaxed);
        busy.join().unwrap();
        let err = refused.expect_err("sampled beside a busy thread");
        assert!(err.contains("threads are alive"), "{err}");
        assert_eq!(speed.slowdown(), 1.0);
    }

    #[test]
    fn a_sample_answers_every_round_trip() {
        let mut reference = Reference::start().unwrap();
        assert!(reference.sample().unwrap() > Duration::ZERO);
    }
}
