//! Event-level tracing: [`TraceRecorder`] and the [`Trace`] it
//! produces.
//!
//! Where [`crate::MemoryRecorder`] aggregates (span totals, counter
//! sums), a [`TraceRecorder`] keeps the *individual* timestamped
//! events: span begin/end with thread tracks, plus typed [`Decision`]
//! events emitted from instrumented scheduler/router/placement code.
//! A trace answers causal questions — which LLGs formed in a step,
//! which gates the stack finder peeled and in what order, which routes
//! committed vs. deferred — that aggregates cannot.
//!
//! Traces export to Chrome trace-event JSON (`autobraid.trace/v1`,
//! loads in Perfetto / `chrome://tracing`) via [`crate::export`] and
//! replay into a per-step terminal narrative via [`crate::explain`].

use crate::json::JsonValue;
use crate::recorder::Recorder;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Identifier of the Chrome-trace export layout, emitted in the
/// leading metadata event. Bump only with a matching update to
/// `docs/METRICS.md`.
pub const TRACE_SCHEMA: &str = "autobraid.trace/v1";

/// A typed decision event emitted by instrumented compiler code.
///
/// Decisions are facts about *what the compiler chose*, not how long
/// it took; they export as Perfetto instant events. The enum is
/// non-exhaustive: new decision kinds may appear in later versions
/// (the compat rule in `docs/METRICS.md` — consumers must ignore
/// event names they do not know).
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq)]
pub enum Decision {
    /// The scheduling engine started on a circuit.
    EngineBegin {
        /// Name of the scheduler strategy driving the run.
        scheduler: String,
        /// Name of the circuit being compiled.
        circuit: String,
        /// Lattice side length, in surface-code cells.
        grid_side: u32,
    },
    /// A braiding step began with this much ready work.
    StepBegin {
        /// Zero-based braiding step index.
        step: u64,
        /// Ready CNOTs that need a braid this step.
        braids: usize,
        /// Ready gates executable locally (no braid needed).
        locals: usize,
    },
    /// The router grouped gates into a long-range-link group.
    LlgFormed {
        /// Number of gates in the group.
        gates: usize,
        /// Bounding-box width, in lattice vertices.
        bbox_w: u32,
        /// Bounding-box height, in lattice vertices.
        bbox_h: u32,
    },
    /// The stack finder peeled a gate out of the conflict graph.
    StackPeel {
        /// Gate id peeled.
        gate: usize,
        /// Conflict-graph max degree at the moment of peeling.
        degree: usize,
    },
    /// A braid path was committed for a gate this step.
    RouteCommit {
        /// Gate id routed.
        gate: usize,
        /// Path length in lattice vertices.
        len: usize,
        /// Space-separated `row,col` vertex list of the braid path.
        path: String,
    },
    /// A gate's routing was deferred to a later step.
    RouteDefer {
        /// Gate id deferred.
        gate: usize,
        /// Why the router gave up this step.
        reason: &'static str,
    },
    /// The scheduler inserted a SWAP between two qubits.
    SwapInserted {
        /// First qubit of the swapped pair.
        a: u32,
        /// Second qubit of the swapped pair.
        b: u32,
    },
    /// The annealer accepted a placement move.
    AnnealAccept {
        /// Objective delta of the accepted move (negative = better).
        delta: f64,
        /// Temperature at acceptance time.
        temp: f64,
    },
    /// One A* search finished (successfully or not).
    ///
    /// Expansion counts measure *work done*, which may vary across
    /// thread counts even though compile outputs are deterministic
    /// (see `docs/RUNTIME.md`).
    AstarSearch {
        /// Nodes expanded before the search ended.
        expansions: u64,
        /// Whether a path was found.
        found: bool,
    },
    /// One negotiation iteration of the PathFinder router finished.
    ///
    /// Emitted once per rip-up-and-reroute round so a trace shows how
    /// congestion drained (or failed to) across the loop.
    NegotiationRound {
        /// Zero-based iteration index within the routing pass.
        iteration: u64,
        /// Vertices still shared by more than one path after this round.
        overused: usize,
        /// Gates ripped up and rerouted this round.
        rerouted: usize,
        /// Present-cost factor in effect during this round.
        present_factor: u64,
    },
    /// A routing policy was chosen for one braiding layer.
    ///
    /// Fixed-strategy runs emit this with their own name; the portfolio
    /// policy records *which* finder it picked and why.
    StrategyChosen {
        /// Zero-based braiding step index.
        step: u64,
        /// Name of the routing policy that handled the layer.
        policy: String,
        /// Short feature-based justification (e.g. `dense-interference`).
        reason: String,
    },
    /// A batch-compile job started on a worker.
    JobStart {
        /// Job label (circuit name or index).
        label: String,
    },
    /// A batch-compile job finished on a worker.
    JobFinish {
        /// Job label (circuit name or index).
        label: String,
        /// Whether the compile succeeded.
        ok: bool,
    },
    /// A dynamic event was injected into a streaming compilation: a
    /// tile failure (a channel vertex died mid-run) or a magic-state
    /// supply stall. The fault taxonomy is documented in
    /// `docs/STREAMING.md`.
    FaultInjected {
        /// Fault taxonomy name (`tile-failure`, `magic-stall`).
        kind: String,
        /// Human-readable locus (vertex coordinates, stall length).
        detail: String,
        /// Zero-based streaming step index at injection time.
        step: u64,
    },
    /// The streaming engine committed a braiding step again after an
    /// injected fault — the schedule survived the event.
    FaultRecovered {
        /// Fault taxonomy name the engine recovered from.
        kind: String,
        /// Zero-based index of the first step committed after the fault.
        step: u64,
    },
    /// A service request entered the system (emitted at frame decode).
    RequestBegin {
        /// Request id, unique per daemon process.
        id: u64,
        /// Wire request kind (`compile`, `session.open`, ...).
        kind: String,
    },
    /// A service request left the system.
    RequestEnd {
        /// Request id, unique per daemon process.
        id: u64,
        /// Outcome: `ok`, or an error kind (`overloaded`, `timeout`,
        /// `internal`, ...).
        outcome: String,
    },
    /// The service report cache answered a compile lookup.
    CacheLookup {
        /// Request id of the compile being served.
        id: u64,
        /// Cache outcome: `hit`, `miss`, or `bypass`.
        status: &'static str,
    },
    /// A streaming session opened on the daemon.
    SessionOpened {
        /// Request id that opened the session.
        id: u64,
    },
    /// A streaming session closed (or was evicted) on the daemon.
    SessionClosed {
        /// Request id that opened the session.
        id: u64,
        /// Braiding steps the session committed before closing.
        steps: u64,
    },
}

impl Decision {
    /// The stable event name this decision exports under.
    pub fn name(&self) -> &'static str {
        match self {
            Decision::EngineBegin { .. } => "engine.begin",
            Decision::StepBegin { .. } => "step.begin",
            Decision::LlgFormed { .. } => "llg.formed",
            Decision::StackPeel { .. } => "stack.peel",
            Decision::RouteCommit { .. } => "route.commit",
            Decision::RouteDefer { .. } => "route.defer",
            Decision::SwapInserted { .. } => "swap.inserted",
            Decision::AnnealAccept { .. } => "anneal.accept",
            Decision::AstarSearch { .. } => "astar.search",
            Decision::NegotiationRound { .. } => "pathfinder.iteration",
            Decision::StrategyChosen { .. } => "strategy.chosen",
            Decision::JobStart { .. } => "job.start",
            Decision::JobFinish { .. } => "job.finish",
            Decision::FaultInjected { .. } => "fault.injected",
            Decision::FaultRecovered { .. } => "fault.recovered",
            Decision::RequestBegin { .. } => "request.begin",
            Decision::RequestEnd { .. } => "request.end",
            Decision::CacheLookup { .. } => "cache.lookup",
            Decision::SessionOpened { .. } => "session.opened",
            Decision::SessionClosed { .. } => "session.closed",
        }
    }

    /// Whether this decision is *fine-grained*: emitted per step, per
    /// gate, or per inner-loop iteration during a compile. Always-on
    /// recorders like a [`TraceRecorder::flight`] ring opt out of fine
    /// decisions via [`crate::Recorder::wants_fine_decisions`], and the
    /// emission sites guard payload construction behind
    /// [`crate::fine_decisions_enabled`], so a hot loop never builds a
    /// payload nobody wants. Only rare lifecycle landmarks are coarse —
    /// engine begin, fault injection/recovery, and the service's
    /// request/session/cache events — which is what keeps the ambient
    /// observability stack inside its <2% overhead budget
    /// (enforced by `bench regress`, docs/PERF.md).
    pub fn is_fine(&self) -> bool {
        !matches!(
            self,
            Decision::EngineBegin { .. }
                | Decision::FaultInjected { .. }
                | Decision::FaultRecovered { .. }
                | Decision::RequestBegin { .. }
                | Decision::RequestEnd { .. }
                | Decision::CacheLookup { .. }
                | Decision::SessionOpened { .. }
                | Decision::SessionClosed { .. }
        )
    }

    /// The decision's fields as a JSON object (the exported `args`).
    pub fn args(&self) -> JsonValue {
        match self {
            Decision::EngineBegin {
                scheduler,
                circuit,
                grid_side,
            } => JsonValue::object([
                ("scheduler", JsonValue::from(scheduler.as_str())),
                ("circuit", JsonValue::from(circuit.as_str())),
                ("grid_side", JsonValue::from(*grid_side)),
            ]),
            Decision::StepBegin {
                step,
                braids,
                locals,
            } => JsonValue::object([
                ("step", JsonValue::from(*step)),
                ("braids", JsonValue::from(*braids)),
                ("locals", JsonValue::from(*locals)),
            ]),
            Decision::LlgFormed {
                gates,
                bbox_w,
                bbox_h,
            } => JsonValue::object([
                ("gates", JsonValue::from(*gates)),
                ("bbox_w", JsonValue::from(*bbox_w)),
                ("bbox_h", JsonValue::from(*bbox_h)),
            ]),
            Decision::StackPeel { gate, degree } => JsonValue::object([
                ("gate", JsonValue::from(*gate)),
                ("degree", JsonValue::from(*degree)),
            ]),
            Decision::RouteCommit { gate, len, path } => JsonValue::object([
                ("gate", JsonValue::from(*gate)),
                ("len", JsonValue::from(*len)),
                ("path", JsonValue::from(path.as_str())),
            ]),
            Decision::RouteDefer { gate, reason } => JsonValue::object([
                ("gate", JsonValue::from(*gate)),
                ("reason", JsonValue::from(*reason)),
            ]),
            Decision::SwapInserted { a, b } => {
                JsonValue::object([("a", JsonValue::from(*a)), ("b", JsonValue::from(*b))])
            }
            Decision::AnnealAccept { delta, temp } => JsonValue::object([
                ("delta", JsonValue::from(*delta)),
                ("temp", JsonValue::from(*temp)),
            ]),
            Decision::AstarSearch { expansions, found } => JsonValue::object([
                ("expansions", JsonValue::from(*expansions)),
                ("found", JsonValue::from(*found)),
            ]),
            Decision::NegotiationRound {
                iteration,
                overused,
                rerouted,
                present_factor,
            } => JsonValue::object([
                ("iteration", JsonValue::from(*iteration)),
                ("overused", JsonValue::from(*overused)),
                ("rerouted", JsonValue::from(*rerouted)),
                ("present_factor", JsonValue::from(*present_factor)),
            ]),
            Decision::StrategyChosen {
                step,
                policy,
                reason,
            } => JsonValue::object([
                ("step", JsonValue::from(*step)),
                ("policy", JsonValue::from(policy.as_str())),
                ("reason", JsonValue::from(reason.as_str())),
            ]),
            Decision::JobStart { label } => {
                JsonValue::object([("label", JsonValue::from(label.as_str()))])
            }
            Decision::JobFinish { label, ok } => JsonValue::object([
                ("label", JsonValue::from(label.as_str())),
                ("ok", JsonValue::from(*ok)),
            ]),
            Decision::FaultInjected { kind, detail, step } => JsonValue::object([
                ("kind", JsonValue::from(kind.as_str())),
                ("detail", JsonValue::from(detail.as_str())),
                ("step", JsonValue::from(*step)),
            ]),
            Decision::FaultRecovered { kind, step } => JsonValue::object([
                ("kind", JsonValue::from(kind.as_str())),
                ("step", JsonValue::from(*step)),
            ]),
            Decision::RequestBegin { id, kind } => JsonValue::object([
                ("id", JsonValue::from(*id)),
                ("kind", JsonValue::from(kind.as_str())),
            ]),
            Decision::RequestEnd { id, outcome } => JsonValue::object([
                ("id", JsonValue::from(*id)),
                ("outcome", JsonValue::from(outcome.as_str())),
            ]),
            Decision::CacheLookup { id, status } => JsonValue::object([
                ("id", JsonValue::from(*id)),
                ("status", JsonValue::from(*status)),
            ]),
            Decision::SessionOpened { id } => JsonValue::object([("id", JsonValue::from(*id))]),
            Decision::SessionClosed { id, steps } => JsonValue::object([
                ("id", JsonValue::from(*id)),
                ("steps", JsonValue::from(*steps)),
            ]),
        }
    }
}

/// What one trace event records.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEventKind {
    /// A timing span opened (full slash-joined path).
    SpanBegin {
        /// Slash-joined nesting path, e.g. `pipeline/schedule`.
        path: String,
    },
    /// A timing span closed (full slash-joined path).
    SpanEnd {
        /// Slash-joined nesting path, e.g. `pipeline/schedule`.
        path: String,
    },
    /// A typed decision event.
    Decision(Decision),
}

/// One recorded event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Nanoseconds since the recorder was created.
    pub ts_ns: u64,
    /// Index into [`Trace::tracks`] for the recording thread.
    pub track: usize,
    /// Global record order under the recorder's lock. `(track, seq)`
    /// is the documented normalization sort key: within one track it
    /// recovers temporal order exactly, and it is deterministic for a
    /// given recording (unlike `ts_ns`, which can collide).
    pub seq: u64,
    /// Service request id active on the recording thread (see
    /// [`crate::begin_request`]), or 0 outside any request scope.
    pub request: u64,
    /// What happened.
    pub kind: TraceEventKind,
}

/// An extracted, immutable event trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    /// Track names (one per thread that recorded), in order of first
    /// appearance.
    pub tracks: Vec<String>,
    /// The recorded events, in global record order.
    pub events: Vec<TraceEvent>,
    /// Events the recorder received but did not keep: `add`/`observe`
    /// calls routed to a full trace, or evictions from a flight ring
    /// ([`TraceRecorder::flight`], which ignores metrics). Surfaced as
    /// the documented `trace.dropped` count (see `docs/METRICS.md`).
    pub dropped: u64,
}

impl Trace {
    /// Returns the trace with events sorted by the documented
    /// normalization key `(track, seq)`. Two recordings of the same
    /// single-threaded compile normalize to the same event sequence;
    /// multi-threaded recordings normalize deterministically per
    /// track.
    pub fn normalized(&self) -> Trace {
        let mut out = self.clone();
        out.events.sort_by_key(|e| (e.track, e.seq));
        out
    }

    /// Renders the trace as Chrome trace-event JSON (see
    /// [`crate::export::chrome_trace`]).
    pub fn to_chrome_json(&self) -> String {
        crate::export::chrome_trace(self)
    }
}

#[derive(Default)]
struct TraceInner {
    /// `(thread_key, name)` pairs; index = track id. Tracks are never
    /// evicted, only events rotate out of a flight ring.
    tracks: Vec<(u64, String)>,
    events: VecDeque<TraceEvent>,
    /// Record order under the lock; survives ring eviction so
    /// `(track, seq)` stays globally ordered.
    next_seq: u64,
}

/// Process-wide source of stable per-thread keys (thread ids are not
/// ordered or dense; these are).
static NEXT_THREAD_KEY: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD_KEY: u64 = NEXT_THREAD_KEY.fetch_add(1, Ordering::Relaxed);
}

/// The calling thread's index in a recorder's `(thread_key, name)`
/// track table, appending a track named after the thread (or
/// `thread-{key}` when it has no name) the first time it records. The
/// key is process-wide, so one thread maps to the same track name in
/// every recorder.
fn current_track(tracks: &mut Vec<(u64, String)>) -> usize {
    let key = THREAD_KEY.with(|k| *k);
    if let Some(i) = tracks.iter().position(|(k, _)| *k == key) {
        return i;
    }
    let name = std::thread::current()
        .name()
        .map(str::to_string)
        .unwrap_or_else(|| format!("thread-{key}"));
    tracks.push((key, name));
    tracks.len() - 1
}

/// Default event capacity of a flight ring ([`TraceRecorder::flight`]).
pub const DEFAULT_FLIGHT_CAPACITY: usize = 4096;

/// A [`Recorder`] that keeps events: every one, or the last N coarse
/// decisions as a flight ring.
///
/// Install it like any recorder ([`crate::install`] / RAII guard);
/// threads that share the same `Arc` get their own track, named after
/// the recording thread, and every event carries the request id active
/// on that thread ([`crate::begin_request`]).
///
/// [`TraceRecorder::new`] keeps every span edge and decision.
/// `add`/`observe` calls are *dropped* — aggregates belong to
/// [`crate::MemoryRecorder`]; combine both with
/// [`crate::FanoutRecorder`] to capture a trace and a snapshot in one
/// run. Each dropped call increments the [`Trace::dropped`] count so
/// the loss is visible in the snapshot instead of silent. For the same
/// reason it declines fine-grained metrics: a trace installed next to
/// an ambient stack ([`crate::install_alongside`]) must not switch the
/// inner-loop counters on for the stack's sinks.
///
/// [`TraceRecorder::flight`] is the always-on mode a daemon can afford
/// on every request: a ring of the last N *coarse* decisions (request
/// begin/end, engine begins, faults, cache lookups). It declines span
/// events and fine decisions, so per-gate inner loops never build
/// their payloads, and ignores metrics. When a request errors or runs
/// slow the service cuts that request's history out of the ring
/// ([`TraceRecorder::dump_for`]) and writes it to disk, so the
/// decisions leading up to the incident are there after the fact.
/// `bench regress` times the whole ambient stack's calls for one
/// compile (`observe/ambient_events`) and fails above 2% of
/// `compile/qft`.
pub struct TraceRecorder {
    epoch: Instant,
    /// `Some(capacity)` for a flight ring.
    ring: Option<usize>,
    inner: Mutex<TraceInner>,
    /// Ignored metric calls of a full trace; evictions of a flight ring.
    dropped: AtomicU64,
}

impl Default for TraceRecorder {
    fn default() -> TraceRecorder {
        TraceRecorder::new()
    }
}

impl TraceRecorder {
    /// Creates an empty recorder that keeps every event; timestamps
    /// count from now.
    pub fn new() -> TraceRecorder {
        TraceRecorder {
            epoch: Instant::now(),
            ring: None,
            inner: Mutex::new(TraceInner::default()),
            dropped: AtomicU64::new(0),
        }
    }

    /// Creates a flight ring: coarse decisions only, at most
    /// `capacity` events (minimum 1), the oldest evicted first.
    pub fn flight(capacity: usize) -> TraceRecorder {
        TraceRecorder {
            ring: Some(capacity.max(1)),
            ..TraceRecorder::new()
        }
    }

    /// Maximum number of events retained (`usize::MAX` unless built by
    /// [`TraceRecorder::flight`]).
    pub fn capacity(&self) -> usize {
        self.ring.unwrap_or(usize::MAX)
    }

    /// Events a flight ring has rotated out so far (0 for a full
    /// trace, which evicts nothing).
    pub fn overwritten(&self) -> u64 {
        self.ring
            .map_or(0, |_| self.dropped.load(Ordering::Relaxed))
    }

    /// Extracts everything recorded so far (oldest event first).
    pub fn snapshot(&self) -> Trace {
        self.cut(|_| true)
    }

    /// Extracts only the events recorded under request `request_id`
    /// (see [`crate::begin_request`]) — the per-request cut the
    /// service dumps when that request errors or runs slow. Track
    /// names are kept so the cut still exports standalone.
    pub fn dump_for(&self, request_id: u64) -> Trace {
        self.cut(|e| e.request == request_id)
    }

    /// Copies the events `keep` accepts, filtering under the lock.
    fn cut(&self, keep: impl Fn(&TraceEvent) -> bool) -> Trace {
        let inner = self.inner.lock().unwrap();
        Trace {
            tracks: inner.tracks.iter().map(|(_, name)| name.clone()).collect(),
            events: inner.events.iter().filter(|e| keep(e)).cloned().collect(),
            dropped: self.dropped.load(Ordering::Relaxed),
        }
    }

    fn push(&self, kind: TraceEventKind) {
        let ts_ns = u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let request = crate::current_request();
        let mut inner = self.inner.lock().unwrap();
        let track = current_track(&mut inner.tracks);
        if inner.events.len() >= self.capacity() {
            inner.events.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        let seq = inner.next_seq;
        inner.next_seq += 1;
        inner.events.push_back(TraceEvent {
            ts_ns,
            track,
            seq,
            request,
            kind,
        });
    }
}

impl Recorder for TraceRecorder {
    fn record_span(&self, path: &str, _wall: Duration) {
        if self.ring.is_none() {
            self.push(TraceEventKind::SpanEnd {
                path: path.to_string(),
            });
        }
    }

    fn add(&self, _name: &str, _delta: u64) {
        if self.ring.is_none() {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn observe(&self, _name: &str, _value: f64) {
        if self.ring.is_none() {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn record_span_begin(&self, path: &str) {
        self.push(TraceEventKind::SpanBegin {
            path: path.to_string(),
        });
    }

    fn wants_span_events(&self) -> bool {
        self.ring.is_none()
    }

    fn record_decision(&self, decision: &Decision) {
        self.push(TraceEventKind::Decision(decision.clone()));
    }

    fn wants_decisions(&self) -> bool {
        true
    }

    fn wants_fine_decisions(&self) -> bool {
        self.ring.is_none()
    }

    fn wants_fine_metrics(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn records_span_begin_end_pairs_in_order() {
        let rec = Arc::new(TraceRecorder::new());
        {
            let _guard = crate::install(rec.clone());
            let _outer = crate::span("outer");
            let _inner = crate::span("inner");
        }
        let trace = rec.snapshot();
        let kinds: Vec<String> = trace
            .events
            .iter()
            .map(|e| match &e.kind {
                TraceEventKind::SpanBegin { path } => format!("B:{path}"),
                TraceEventKind::SpanEnd { path } => format!("E:{path}"),
                TraceEventKind::Decision(d) => format!("D:{}", d.name()),
            })
            .collect();
        assert_eq!(
            kinds,
            vec!["B:outer", "B:outer/inner", "E:outer/inner", "E:outer"]
        );
        assert_eq!(trace.tracks.len(), 1);
    }

    #[test]
    fn decisions_are_kept_verbatim() {
        let rec = Arc::new(TraceRecorder::new());
        {
            let _guard = crate::install(rec.clone());
            crate::decision(&Decision::StackPeel { gate: 4, degree: 3 });
            crate::counter("ignored.counter", 1);
            crate::observe("ignored.histogram", 1.0);
        }
        let trace = rec.snapshot();
        assert_eq!(trace.events.len(), 1);
        assert_eq!(
            trace.events[0].kind,
            TraceEventKind::Decision(Decision::StackPeel { gate: 4, degree: 3 })
        );
        // The ignored counter and histogram are counted, not silent.
        assert_eq!(trace.dropped, 2);
    }

    #[test]
    fn events_carry_the_active_request_id() {
        let rec = Arc::new(TraceRecorder::new());
        {
            let _guard = crate::install(rec.clone());
            crate::decision(&Decision::StepBegin {
                step: 0,
                braids: 1,
                locals: 0,
            });
            {
                let _req = crate::begin_request(77);
                crate::decision(&Decision::StepBegin {
                    step: 1,
                    braids: 1,
                    locals: 0,
                });
            }
            crate::decision(&Decision::StepBegin {
                step: 2,
                braids: 1,
                locals: 0,
            });
        }
        let requests: Vec<u64> = rec.snapshot().events.iter().map(|e| e.request).collect();
        assert_eq!(requests, vec![0, 77, 0]);
    }

    #[test]
    fn threads_get_distinct_named_tracks() {
        let rec = Arc::new(TraceRecorder::new());
        let guard = crate::install(rec.clone());
        crate::decision(&Decision::JobStart {
            label: "main".into(),
        });
        let handoff = crate::current().unwrap();
        std::thread::Builder::new()
            .name("trace-worker".into())
            .spawn(move || {
                let _g = crate::install(handoff);
                crate::decision(&Decision::JobStart {
                    label: "worker".into(),
                });
            })
            .unwrap()
            .join()
            .unwrap();
        drop(guard);
        let trace = rec.snapshot();
        assert_eq!(trace.tracks.len(), 2);
        assert!(trace.tracks.contains(&"trace-worker".to_string()));
        let worker_track = trace
            .tracks
            .iter()
            .position(|t| t == "trace-worker")
            .unwrap();
        let worker_events: Vec<_> = trace
            .events
            .iter()
            .filter(|e| e.track == worker_track)
            .collect();
        assert_eq!(worker_events.len(), 1);
    }

    #[test]
    fn normalized_sorts_by_track_then_seq() {
        let trace = Trace {
            tracks: vec!["a".into(), "b".into()],
            events: vec![
                TraceEvent {
                    ts_ns: 9,
                    track: 1,
                    seq: 2,
                    request: 0,
                    kind: TraceEventKind::SpanEnd { path: "x".into() },
                },
                TraceEvent {
                    ts_ns: 5,
                    track: 0,
                    seq: 1,
                    request: 0,
                    kind: TraceEventKind::SpanEnd { path: "y".into() },
                },
                TraceEvent {
                    // Timestamp collision with the event below: the
                    // sort key must not consult ts_ns at all.
                    ts_ns: 1,
                    track: 1,
                    seq: 0,
                    request: 0,
                    kind: TraceEventKind::SpanBegin { path: "x".into() },
                },
                TraceEvent {
                    ts_ns: 1,
                    track: 0,
                    seq: 3,
                    request: 0,
                    kind: TraceEventKind::SpanBegin { path: "y".into() },
                },
            ],
            dropped: 0,
        };
        let sorted = trace.normalized();
        let keys: Vec<(usize, u64)> = sorted.events.iter().map(|e| (e.track, e.seq)).collect();
        assert_eq!(keys, vec![(0, 1), (0, 3), (1, 0), (1, 2)]);
    }

    #[test]
    fn keeps_coarse_drops_fine() {
        let rec = Arc::new(TraceRecorder::flight(DEFAULT_FLIGHT_CAPACITY));
        {
            let _guard = crate::install(rec.clone());
            assert!(crate::decisions_enabled());
            assert!(!crate::fine_decisions_enabled());
            crate::decision(&Decision::RequestBegin {
                id: 7,
                kind: "compile".to_string(),
            });
            // Fine decisions are filtered by the dispatch layer —
            // per-step and inner-loop events never reach the ring.
            crate::decision(&Decision::StepBegin {
                step: 0,
                braids: 2,
                locals: 1,
            });
            crate::decision(&Decision::StackPeel { gate: 1, degree: 1 });
            crate::decision(&Decision::AstarSearch {
                expansions: 10,
                found: true,
            });
        }
        let trace = rec.snapshot();
        assert_eq!(trace.events.len(), 1);
        assert_eq!(
            match &trace.events[0].kind {
                TraceEventKind::Decision(d) => d.name(),
                _ => unreachable!(),
            },
            "request.begin"
        );
    }

    #[test]
    fn ring_evicts_oldest_and_counts_overwrites() {
        let rec = TraceRecorder::flight(3);
        for step in 0..5u64 {
            rec.record_decision(&Decision::StepBegin {
                step,
                braids: 0,
                locals: 0,
            });
        }
        let trace = rec.snapshot();
        assert_eq!(trace.events.len(), 3);
        assert_eq!(trace.dropped, 2);
        assert_eq!(rec.overwritten(), 2);
        let steps: Vec<u64> = trace
            .events
            .iter()
            .map(|e| match &e.kind {
                TraceEventKind::Decision(Decision::StepBegin { step, .. }) => *step,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(steps, vec![2, 3, 4]);
        // Sequence numbers survive eviction, so normalization order is
        // still the record order.
        let seqs: Vec<u64> = trace.events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4]);
    }

    #[test]
    fn dump_for_cuts_one_request() {
        let rec = Arc::new(TraceRecorder::flight(DEFAULT_FLIGHT_CAPACITY));
        let _guard = crate::install(rec.clone());
        for id in [1u64, 2, 1] {
            let _req = crate::begin_request(id);
            crate::decision(&Decision::RequestBegin {
                id,
                kind: "compile".into(),
            });
        }
        let cut = rec.dump_for(1);
        assert_eq!(cut.events.len(), 2);
        assert!(cut.events.iter().all(|e| e.request == 1));
        // The cut still exports as valid trace JSON on its own.
        let json = crate::JsonValue::parse(&cut.to_chrome_json()).unwrap();
        assert!(json.as_array().is_some());
    }

    #[test]
    fn spans_and_metrics_cost_nothing() {
        let rec = Arc::new(TraceRecorder::flight(DEFAULT_FLIGHT_CAPACITY));
        {
            let _guard = crate::install(rec.clone());
            let _span = crate::span("work");
            crate::counter("c", 1);
            crate::observe("h", 1.0);
        }
        let trace = rec.snapshot();
        assert_eq!(trace.events.len(), 0);
        // A ring's `dropped` counts evictions only, not ignored metrics.
        assert_eq!(trace.dropped, 0);
    }
}
