//! The [`Recorder`] trait and the thread-local installation machinery.
//!
//! A recorder is installed per thread (the compilation pipeline is
//! single-threaded; each worker thread installs its own recorder if it
//! wants one). When no recorder is installed every telemetry call is a
//! single thread-local flag check — the hot path costs nothing.

use std::cell::{Cell, RefCell};
use std::sync::Arc;
use std::time::Duration;

/// Sink for telemetry events.
///
/// Implementations must be cheap: the instrumented code calls these
/// methods from inner loops. The bundled [`crate::MemoryRecorder`]
/// aggregates in-process; a custom recorder could stream events
/// elsewhere.
pub trait Recorder: Send + Sync {
    /// Record one completed span occurrence. `path` is the
    /// slash-joined nesting path (e.g. `pipeline/schedule/route`) and
    /// `wall` the measured wall-clock duration.
    fn record_span(&self, path: &str, wall: Duration);

    /// Add `delta` to the monotonic counter `name`.
    fn add(&self, name: &str, delta: u64);

    /// Record one observation of `value` under the histogram `name`.
    fn observe(&self, name: &str, value: f64);

    /// Record that a span just *opened* at `path`. Only called when
    /// [`Recorder::wants_span_events`] returns true; aggregating
    /// recorders ignore it (they only need the completed duration).
    fn record_span_begin(&self, _path: &str) {}

    /// Whether this recorder wants [`Recorder::record_span_begin`]
    /// calls. Defaults to false so the span hot path skips building
    /// the begin-time path string for aggregating recorders.
    fn wants_span_events(&self) -> bool {
        false
    }

    /// Record a typed decision event. Only called when
    /// [`Recorder::wants_decisions`] returns true.
    fn record_decision(&self, _decision: &crate::trace::Decision) {}

    /// Whether this recorder wants [`Recorder::record_decision`]
    /// calls. Defaults to false so instrumented code can skip building
    /// decision payloads (see [`crate::decisions_enabled`]).
    fn wants_decisions(&self) -> bool {
        false
    }

    /// Whether this recorder also wants *fine-grained* decisions —
    /// the per-gate / per-iteration events for which
    /// [`crate::trace::Decision::is_fine`] returns true. Defaults to
    /// [`Recorder::wants_decisions`], so a full [`crate::TraceRecorder`]
    /// keeps everything; always-on recorders like a
    /// [`crate::TraceRecorder::flight`] ring answer false so hot loops
    /// skip building the expensive payloads (path strings, per-accept
    /// events) entirely (see [`crate::fine_decisions_enabled`]).
    fn wants_fine_decisions(&self) -> bool {
        self.wants_decisions()
    }

    /// Whether this recorder wants *fine-grained metrics* — the
    /// per-search / per-iteration counters and histogram observations
    /// emitted from compile inner loops (A* expansions, annealing
    /// objectives, LLG sizes, per-step batch shapes). Defaults to true
    /// so explicitly-installed recorders (a `--telemetry` request, a
    /// trace capture) keep the full profile; always-on ambient sinks
    /// ([`crate::MemoryRecorder::ambient`], [`crate::WindowedRecorder`],
    /// [`crate::TraceRecorder::flight`]) decline so hot loops skip the calls
    /// entirely (see [`crate::fine_metrics_enabled`]) — this is what
    /// keeps service observability inside its <2% overhead budget.
    fn wants_fine_metrics(&self) -> bool {
        true
    }
}

/// A [`Recorder`] that forwards every event to each of its sinks.
///
/// This is how a compile captures an aggregate snapshot *and* an
/// event trace in one run: fan out to a [`crate::MemoryRecorder`] and
/// a [`crate::TraceRecorder`].
pub struct FanoutRecorder {
    sinks: Vec<Arc<dyn Recorder>>,
}

impl FanoutRecorder {
    /// Builds a fanout over `sinks`.
    pub fn new(sinks: Vec<Arc<dyn Recorder>>) -> FanoutRecorder {
        FanoutRecorder { sinks }
    }
}

impl Recorder for FanoutRecorder {
    fn record_span(&self, path: &str, wall: std::time::Duration) {
        for sink in &self.sinks {
            sink.record_span(path, wall);
        }
    }

    fn add(&self, name: &str, delta: u64) {
        for sink in &self.sinks {
            sink.add(name, delta);
        }
    }

    fn observe(&self, name: &str, value: f64) {
        for sink in &self.sinks {
            sink.observe(name, value);
        }
    }

    fn record_span_begin(&self, path: &str) {
        for sink in &self.sinks {
            if sink.wants_span_events() {
                sink.record_span_begin(path);
            }
        }
    }

    fn wants_span_events(&self) -> bool {
        self.sinks.iter().any(|s| s.wants_span_events())
    }

    fn record_decision(&self, decision: &crate::trace::Decision) {
        let fine = decision.is_fine();
        for sink in &self.sinks {
            let wants = if fine {
                sink.wants_fine_decisions()
            } else {
                sink.wants_decisions()
            };
            if wants {
                sink.record_decision(decision);
            }
        }
    }

    fn wants_decisions(&self) -> bool {
        self.sinks.iter().any(|s| s.wants_decisions())
    }

    fn wants_fine_decisions(&self) -> bool {
        self.sinks.iter().any(|s| s.wants_fine_decisions())
    }

    fn wants_fine_metrics(&self) -> bool {
        self.sinks.iter().any(|s| s.wants_fine_metrics())
    }
}

/// The installed recorder's capabilities, snapshotted at [`install`]
/// time so the hot-path guards ([`crate::fine_metrics_enabled`],
/// [`crate::fine_decisions_enabled`], …) are one thread-local read
/// instead of a dynamic dispatch chain through a fanout. Sound because
/// a recorder's `wants_*` answers are fixed for its lifetime.
#[derive(Clone, Copy, Default)]
pub(crate) struct Caps {
    pub(crate) decisions: bool,
    pub(crate) fine_decisions: bool,
    pub(crate) fine_metrics: bool,
    pub(crate) span_events: bool,
}

impl Caps {
    fn of(recorder: &dyn Recorder) -> Caps {
        Caps {
            decisions: recorder.wants_decisions(),
            fine_decisions: recorder.wants_fine_decisions(),
            fine_metrics: recorder.wants_fine_metrics(),
            span_events: recorder.wants_span_events(),
        }
    }
}

thread_local! {
    static CURRENT: RefCell<Option<Arc<dyn Recorder>>> = const { RefCell::new(None) };
    static CAPS: Cell<Caps> = const {
        Cell::new(Caps {
            decisions: false,
            fine_decisions: false,
            fine_metrics: false,
            span_events: false,
        })
    };
}

/// Installs `recorder` as this thread's telemetry sink and returns a
/// guard. Dropping the guard restores whatever recorder (possibly
/// none) was installed before — installations nest.
pub fn install(recorder: Arc<dyn Recorder>) -> RecorderGuard {
    let caps = Caps::of(recorder.as_ref());
    let previous = CURRENT.with(|c| c.borrow_mut().replace(recorder));
    let previous_caps = CAPS.with(|c| c.replace(caps));
    RecorderGuard {
        previous,
        previous_caps,
    }
}

/// Installs `sink` next to this thread's current recorder, if any:
/// both see every event until the guard drops. This is how a trace
/// capture joins an already-installed recorder (an ambient stack, a
/// `--telemetry` sink) without taking its events away.
pub fn install_alongside(sink: Arc<dyn Recorder>) -> RecorderGuard {
    match current() {
        Some(existing) => install(Arc::new(FanoutRecorder::new(vec![existing, sink]))),
        None => install(sink),
    }
}

/// This thread's cached capability snapshot (all-false when no
/// recorder is installed).
pub(crate) fn caps() -> Caps {
    CAPS.with(Cell::get)
}

/// Returns true when a recorder is installed on this thread.
///
/// Instrumented code may use this to skip the *computation* of an
/// expensive metric (not just its recording).
pub fn is_enabled() -> bool {
    CURRENT.with(|c| c.borrow().is_some())
}

/// Returns this thread's installed recorder, if any.
///
/// This is the pool-aware half of the installation protocol: a parallel
/// region captures `current()` on the coordinating thread and
/// [`install`]s the clone on each worker it spawns, so events recorded
/// by workers land in the same (thread-safe) recorder as the parent's.
/// The bundled [`crate::MemoryRecorder`] aggregates counters and spans
/// associatively, so the merged totals are independent of how work was
/// split across threads.
pub fn current() -> Option<Arc<dyn Recorder>> {
    CURRENT.with(|c| c.borrow().clone())
}

/// Runs `f` against the installed recorder, if any.
pub(crate) fn with_recorder<R>(f: impl FnOnce(&dyn Recorder) -> R) -> Option<R> {
    CURRENT.with(|c| c.borrow().as_ref().map(|r| f(r.as_ref())))
}

/// RAII guard returned by [`install`]; restores the previous recorder
/// on drop.
#[must_use = "dropping the guard immediately uninstalls the recorder"]
pub struct RecorderGuard {
    previous: Option<Arc<dyn Recorder>>,
    previous_caps: Caps,
}

impl Drop for RecorderGuard {
    fn drop(&mut self) {
        let previous = self.previous.take();
        CURRENT.with(|c| *c.borrow_mut() = previous);
        CAPS.with(|c| c.set(self.previous_caps));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[derive(Default)]
    struct Tape(Mutex<Vec<String>>);

    impl Recorder for Tape {
        fn record_span(&self, path: &str, _wall: Duration) {
            self.0.lock().unwrap().push(format!("span:{path}"));
        }
        fn add(&self, name: &str, delta: u64) {
            self.0.lock().unwrap().push(format!("add:{name}={delta}"));
        }
        fn observe(&self, name: &str, value: f64) {
            self.0.lock().unwrap().push(format!("obs:{name}={value}"));
        }
    }

    #[test]
    fn current_propagates_to_spawned_threads() {
        let tape = Arc::new(Tape::default());
        {
            let _guard = install(tape.clone());
            let handoff = current().expect("a recorder is installed");
            std::thread::scope(|scope| {
                scope.spawn(move || {
                    assert!(!is_enabled(), "fresh threads start with no recorder");
                    let _g = install(handoff);
                    crate::counter("from.worker", 1);
                });
            });
            crate::counter("from.parent", 1);
        }
        assert!(current().is_none());
        let events = tape.0.lock().unwrap().clone();
        assert!(events.contains(&"add:from.worker=1".to_string()));
        assert!(events.contains(&"add:from.parent=1".to_string()));
    }

    #[test]
    fn fanout_forwards_to_all_sinks() {
        use crate::{MemoryRecorder, TraceRecorder};
        let memory = Arc::new(MemoryRecorder::new());
        let trace = Arc::new(TraceRecorder::new());
        let fanout = Arc::new(super::FanoutRecorder::new(vec![
            memory.clone() as Arc<dyn Recorder>,
            trace.clone() as Arc<dyn Recorder>,
        ]));
        assert!(fanout.wants_decisions());
        assert!(fanout.wants_span_events());
        {
            let _guard = install(fanout);
            let _span = crate::span("work");
            crate::counter("gates", 2);
            crate::decision(&crate::trace::Decision::SwapInserted { a: 1, b: 2 });
        }
        let snap = memory.snapshot();
        assert_eq!(snap.counter("gates"), 2);
        assert_eq!(snap.span("work").unwrap().count, 1);
        let events = trace.snapshot().events;
        // Begin, decision, end — the memory sink sees only the end.
        assert_eq!(events.len(), 3);
    }

    #[test]
    fn install_nests_and_restores() {
        assert!(!is_enabled());
        let outer = Arc::new(Tape::default());
        let inner = Arc::new(Tape::default());
        {
            let _g1 = install(outer.clone());
            assert!(is_enabled());
            crate::counter("outer.only", 1);
            {
                let _g2 = install(inner.clone());
                crate::counter("inner.only", 2);
            }
            crate::counter("outer.again", 3);
        }
        assert!(!is_enabled());
        crate::counter("dropped", 9);
        assert_eq!(
            *outer.0.lock().unwrap(),
            vec!["add:outer.only=1", "add:outer.again=3"]
        );
        assert_eq!(*inner.0.lock().unwrap(), vec!["add:inner.only=2"]);
    }
}
