//! Trace sessions, sinks, and the per-warp ring-buffer recorder.
//!
//! The design mirrors how the simulator already handles `PerfCounters`:
//! each warp records into private storage with no cross-warp communication,
//! and the private blocks are merged once, after the launch. Here the
//! private storage is a bounded ring of [`TraceEvent`]s per warp executor
//! ([`WarpTracer`]); when an executor finishes, the ring is flushed to the
//! session's shared [`TraceSink`]. The only shared hot-path state is one
//! relaxed atomic sequence counter, which doubles as the logical clock.
//!
//! Sessions are *thread-scoped*: [`TraceSession::begin`] installs the
//! session for the calling thread, and a `Grid` captures the launching
//! thread's innermost session and hands per-executor tracers to its worker
//! threads. Concurrent tests therefore cannot pollute each other's traces,
//! the same isolation story the chaos layer uses for fault plans.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::event::{EventKind, TraceEvent};
use crate::trace::Trace;

/// Tunables for a trace session.
#[derive(Debug, Clone, Copy)]
pub struct TraceConfig {
    /// Per-warp-executor ring capacity, in events. When a ring overflows
    /// the *oldest* events are dropped (and counted), keeping the tail of
    /// the launch — usually where the interesting contention is.
    pub ring_capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self {
            ring_capacity: 65_536,
        }
    }
}

/// Destination for flushed trace events.
///
/// Implementations must tolerate concurrent calls: warp executors flush
/// their rings from worker threads as they finish.
pub trait TraceSink: Send + Sync {
    /// Accepts a batch of events. Batches arrive in flush order, not
    /// globally sorted — sort by [`TraceEvent::seq`] to reconstruct the
    /// logical timeline.
    fn consume(&self, batch: Vec<TraceEvent>);

    /// Informs the sink that `n` events were dropped by a full ring.
    fn note_dropped(&self, _n: u64) {}
}

/// The default in-memory sink backing [`TraceSession::begin`].
#[derive(Default)]
pub struct MemorySink {
    events: Mutex<Vec<TraceEvent>>,
    dropped: AtomicU64,
}

impl MemorySink {
    /// An empty in-memory sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drains the collected events and the dropped count.
    pub fn take(&self) -> (Vec<TraceEvent>, u64) {
        let events = std::mem::take(&mut *self.events.lock());
        let dropped = self.dropped.swap(0, Ordering::Relaxed);
        (events, dropped)
    }
}

impl TraceSink for MemorySink {
    fn consume(&self, mut batch: Vec<TraceEvent>) {
        self.events.lock().append(&mut batch);
    }

    fn note_dropped(&self, n: u64) {
        self.dropped.fetch_add(n, Ordering::Relaxed);
    }
}

/// Session state shared between the owning [`TraceSession`], the grid's
/// [`SessionHandle`]s, and every [`WarpTracer`].
struct Shared {
    config: TraceConfig,
    sink: Arc<dyn TraceSink>,
    seq: AtomicU64,
}

thread_local! {
    /// Innermost-last stack of active sessions for this thread.
    static SESSIONS: RefCell<Vec<Arc<Shared>>> = const { RefCell::new(Vec::new()) };
}

/// An active trace session, scoped to the thread that began it.
///
/// Dropping the session detaches it; [`TraceSession::finish`] additionally
/// harvests the collected [`Trace`] when the session owns the default
/// in-memory sink.
pub struct TraceSession {
    shared: Arc<Shared>,
    memory: Option<Arc<MemorySink>>,
}

impl TraceSession {
    /// Begins a session on the calling thread, recording into an internal
    /// in-memory sink harvested by [`TraceSession::finish`].
    pub fn begin(config: TraceConfig) -> Self {
        let memory = Arc::new(MemorySink::new());
        let mut session = Self::begin_with_sink(config, memory.clone());
        session.memory = Some(memory);
        session
    }

    /// Begins a session that flushes into a caller-supplied sink
    /// (streaming to disk, filtering, test doubles, …).
    /// [`TraceSession::finish`] then returns an empty [`Trace`]; the events
    /// live wherever the sink put them.
    pub fn begin_with_sink(config: TraceConfig, sink: Arc<dyn TraceSink>) -> Self {
        let shared = Arc::new(Shared {
            config,
            sink,
            seq: AtomicU64::new(0),
        });
        SESSIONS.with(|s| s.borrow_mut().push(shared.clone()));
        Self {
            shared,
            memory: None,
        }
    }

    /// Detaches the session and returns the collected trace, sorted by
    /// logical timestamp. Empty for custom-sink sessions.
    pub fn finish(mut self) -> Trace {
        self.detach();
        match self.memory.take() {
            Some(memory) => {
                let (mut events, dropped) = memory.take();
                events.sort_unstable_by_key(|e| e.seq);
                Trace::new(events, dropped)
            }
            None => Trace::new(Vec::new(), 0),
        }
    }

    fn detach(&mut self) {
        SESSIONS.with(|s| {
            s.borrow_mut()
                .retain(|shared| !Arc::ptr_eq(shared, &self.shared));
        });
    }
}

impl Drop for TraceSession {
    fn drop(&mut self) {
        self.detach();
    }
}

/// A cloneable, thread-safe handle to an active session. The grid captures
/// one on the launching thread and distributes tracers to its executors.
#[derive(Clone)]
pub struct SessionHandle {
    shared: Arc<Shared>,
}

impl SessionHandle {
    /// A fresh per-executor recorder bound to this session.
    pub fn tracer(&self) -> WarpTracer {
        WarpTracer {
            shared: self.shared.clone(),
            ring: VecDeque::with_capacity(self.shared.config.ring_capacity.min(1024)),
            dropped: 0,
        }
    }

    /// Emits a single launch-scope event straight to the sink, bypassing
    /// any ring (used for `launch_begin` / `launch_end`).
    pub fn emit(&self, warp: u32, kind: EventKind) {
        let seq = self.shared.seq.fetch_add(1, Ordering::Relaxed);
        self.shared.sink.consume(vec![TraceEvent { seq, warp, kind }]);
    }
}

/// The calling thread's innermost active session, if any.
pub fn current_session() -> Option<SessionHandle> {
    SESSIONS.with(|s| {
        s.borrow()
            .last()
            .map(|shared| SessionHandle {
                shared: shared.clone(),
            })
    })
}

/// RAII guard from [`hide_sessions`]: the calling thread's sessions are
/// hidden until it drops. Not `Send`: it must drop on the thread it hid.
pub struct HiddenSessions {
    stashed: Vec<Arc<Shared>>,
    _thread_bound: PhantomData<*const ()>,
}

/// Hides the calling thread's sessions until the returned guard drops, so
/// work this thread runs on behalf of another context (an ingress cohort
/// run by a client thread for the broker) traces exactly as it would on
/// that context's own thread.
pub fn hide_sessions() -> HiddenSessions {
    HiddenSessions {
        stashed: SESSIONS.with(|s| std::mem::take(&mut *s.borrow_mut())),
        _thread_bound: PhantomData,
    }
}

impl Drop for HiddenSessions {
    fn drop(&mut self) {
        SESSIONS.with(|s| {
            let mut s = s.borrow_mut();
            let begun_while_hidden = std::mem::replace(&mut *s, std::mem::take(&mut self.stashed));
            s.extend(begun_while_hidden);
        });
    }
}

/// A per-warp-executor event recorder: a bounded ring flushed to the
/// session sink when the executor finishes (or on explicit
/// [`WarpTracer::flush`]).
pub struct WarpTracer {
    shared: Arc<Shared>,
    ring: VecDeque<TraceEvent>,
    dropped: u64,
}

impl WarpTracer {
    /// Records one event, stamping it with the session's next logical
    /// timestamp. On overflow the oldest ringed event is dropped and
    /// counted.
    pub fn record(&mut self, warp: u32, kind: EventKind) {
        let seq = self.shared.seq.fetch_add(1, Ordering::Relaxed);
        if self.ring.len() >= self.shared.config.ring_capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(TraceEvent { seq, warp, kind });
    }

    /// Flushes ringed events (and the overflow count) to the sink.
    pub fn flush(&mut self) {
        if !self.ring.is_empty() {
            self.shared.sink.consume(self.ring.drain(..).collect());
        }
        if self.dropped > 0 {
            self.shared.sink.note_dropped(self.dropped);
            self.dropped = 0;
        }
    }
}

impl Drop for WarpTracer {
    fn drop(&mut self) {
        self.flush();
    }
}

impl std::fmt::Debug for WarpTracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WarpTracer")
            .field("ringed", &self.ring.len())
            .field("dropped", &self.dropped)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_session_means_no_handle() {
        assert!(current_session().is_none());
    }

    #[test]
    fn session_scopes_to_thread_and_nests() {
        let outer = TraceSession::begin(TraceConfig::default());
        assert!(current_session().is_some());

        // Another thread does not see this thread's session.
        std::thread::scope(|s| {
            s.spawn(|| assert!(current_session().is_none()));
        });

        {
            let inner = TraceSession::begin(TraceConfig::default());
            let handle = current_session().unwrap();
            handle.emit(0, EventKind::WarpBegin);
            let trace = inner.finish();
            assert_eq!(trace.events().len(), 1);
        }

        // Inner finished; outer is current again and saw nothing.
        assert!(current_session().is_some());
        let trace = outer.finish();
        assert!(trace.events().is_empty());
        assert!(current_session().is_none());
    }

    #[test]
    fn hidden_sessions_come_back_on_drop() {
        let session = TraceSession::begin(TraceConfig::default());
        {
            let _hidden = hide_sessions();
            assert!(current_session().is_none());
        }
        current_session().unwrap().emit(0, EventKind::WarpBegin);
        assert_eq!(session.finish().events().len(), 1);
    }

    #[test]
    fn tracer_flushes_on_drop_with_global_sequence() {
        let session = TraceSession::begin(TraceConfig::default());
        let handle = current_session().unwrap();
        let mut t0 = handle.tracer();
        let mut t1 = handle.tracer();
        t0.record(0, EventKind::WarpBegin);
        t1.record(1, EventKind::WarpBegin);
        t0.record(0, EventKind::WarpEnd { ops: 1 });
        drop(t0);
        drop(t1);
        let trace = session.finish();
        let seqs: Vec<u64> = trace.events().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2], "sorted, globally unique timestamps");
        assert_eq!(trace.dropped(), 0);
    }

    #[test]
    fn ring_overflow_drops_oldest_and_counts() {
        let session = TraceSession::begin(TraceConfig { ring_capacity: 4 });
        let handle = current_session().unwrap();
        let mut t = handle.tracer();
        for i in 0..10 {
            t.record(0, EventKind::WarpEnd { ops: i });
        }
        t.flush();
        let trace = session.finish();
        assert_eq!(trace.events().len(), 4);
        assert_eq!(trace.dropped(), 6);
        // The survivors are the newest events.
        assert!(matches!(
            trace.events()[0].kind,
            EventKind::WarpEnd { ops: 6 }
        ));
    }

    #[test]
    fn custom_sink_receives_batches() {
        struct Counting(AtomicU64);
        impl TraceSink for Counting {
            fn consume(&self, batch: Vec<TraceEvent>) {
                self.0.fetch_add(batch.len() as u64, Ordering::Relaxed);
            }
        }
        let sink = Arc::new(Counting(AtomicU64::new(0)));
        let session = TraceSession::begin_with_sink(TraceConfig::default(), sink.clone());
        let handle = current_session().unwrap();
        let mut t = handle.tracer();
        t.record(0, EventKind::WarpBegin);
        t.record(0, EventKind::WarpEnd { ops: 0 });
        t.flush();
        let trace = session.finish();
        assert!(trace.events().is_empty(), "custom sink keeps the events");
        assert_eq!(sink.0.load(Ordering::Relaxed), 2);
    }
}
