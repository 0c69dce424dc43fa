//! Always-on flight recording: [`FlightRecorder`], a fixed-capacity
//! ring buffer of coarse decision events.
//!
//! A production daemon cannot afford a full [`crate::TraceRecorder`]
//! on every request — an unbounded event log on the compile hot path —
//! but it *can* afford a bounded ring of the coarse lifecycle
//! decisions (request begin/end, engine/step begins, strategy choices,
//! faults, cache lookups). When a request errors, is shed, or runs
//! slow, the service snapshots the ring and dumps the Perfetto-ready
//! trace to disk, so the decision history leading up to the incident
//! is available *after the fact* without re-running anything.
//!
//! Cost discipline: the recorder declines span events
//! ([`crate::Recorder::wants_span_events`] = false) and fine-grained
//! decisions ([`crate::Recorder::wants_fine_decisions`] = false), so
//! per-gate inner loops (route commits, stack peels, A* searches,
//! annealing accepts) never even build their payloads. What remains is
//! a handful of events per request — one mutex push each. `bench
//! regress` times the whole ambient stack's calls for one compile
//! (`observe/ambient_events`) and fails above 2% of `compile/qft`.

use crate::recorder::Recorder;
use crate::trace::{Decision, Trace, TraceEvent, TraceEventKind};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Default event capacity of the ring ([`FlightRecorder::new`]).
pub const DEFAULT_FLIGHT_CAPACITY: usize = 4096;

#[derive(Default)]
struct FlightInner {
    /// `(thread_key, name)` pairs; index = track id. Tracks are never
    /// evicted — only events rotate out.
    tracks: Vec<(u64, String)>,
    events: VecDeque<TraceEvent>,
    /// Monotonic sequence for the normalization key; survives ring
    /// eviction so `(track, seq)` stays globally ordered.
    next_seq: u64,
}

/// A [`Recorder`] holding the last N coarse decisions in a ring.
///
/// Shared across every connection and worker thread of a daemon (as
/// part of one [`crate::AmbientStack`]); each recording
/// thread gets its own track, and every event carries the request id
/// active on that thread ([`crate::begin_request`]), so
/// [`FlightRecorder::dump_for`] can cut one request's history out of
/// the shared ring.
pub struct FlightRecorder {
    epoch: Instant,
    capacity: usize,
    inner: Mutex<FlightInner>,
    /// Events rotated out of the ring (reported as [`Trace::dropped`]).
    overwritten: AtomicU64,
}

impl Default for FlightRecorder {
    fn default() -> FlightRecorder {
        FlightRecorder::new()
    }
}

impl FlightRecorder {
    /// Creates a recorder with the default capacity
    /// ([`DEFAULT_FLIGHT_CAPACITY`] events).
    pub fn new() -> FlightRecorder {
        FlightRecorder::with_capacity(DEFAULT_FLIGHT_CAPACITY)
    }

    /// Creates a recorder keeping at most `capacity` events (minimum 1).
    pub fn with_capacity(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            epoch: Instant::now(),
            capacity: capacity.max(1),
            inner: Mutex::new(FlightInner::default()),
            overwritten: AtomicU64::new(0),
        }
    }

    /// Maximum number of events the ring retains.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events rotated out of the ring so far.
    pub fn overwritten(&self) -> u64 {
        self.overwritten.load(Ordering::Relaxed)
    }

    /// Snapshots the whole ring as a [`Trace`] (oldest event first).
    /// [`Trace::dropped`] reports how many events were rotated out.
    pub fn snapshot(&self) -> Trace {
        let inner = self.inner.lock().unwrap();
        Trace {
            tracks: inner.tracks.iter().map(|(_, name)| name.clone()).collect(),
            events: inner.events.iter().cloned().collect(),
            dropped: self.overwritten.load(Ordering::Relaxed),
        }
    }

    /// Snapshots only the events recorded under request `request_id`
    /// (see [`crate::begin_request`]) — the per-request cut the
    /// service dumps when that request errors or runs slow. Track
    /// names are preserved so the cut still exports standalone.
    pub fn dump_for(&self, request_id: u64) -> Trace {
        let mut trace = self.snapshot();
        trace.events.retain(|e| e.request == request_id);
        trace
    }

    fn push(&self, decision: &Decision) {
        let ts_ns = u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let request = crate::current_request();
        let mut inner = self.inner.lock().unwrap();
        let track = crate::trace::current_track(&mut inner.tracks);
        if inner.events.len() >= self.capacity {
            inner.events.pop_front();
            self.overwritten.fetch_add(1, Ordering::Relaxed);
        }
        let seq = inner.next_seq;
        inner.next_seq += 1;
        inner.events.push_back(TraceEvent {
            ts_ns,
            track,
            seq,
            request,
            kind: TraceEventKind::Decision(decision.clone()),
        });
    }
}

impl Recorder for FlightRecorder {
    fn record_span(&self, _path: &str, _wall: Duration) {}

    // Decisions-only: metrics of any granularity are someone else's job.
    fn wants_fine_metrics(&self) -> bool {
        false
    }

    fn add(&self, _name: &str, _delta: u64) {}

    fn observe(&self, _name: &str, _value: f64) {}

    fn record_decision(&self, decision: &Decision) {
        self.push(decision);
    }

    fn wants_decisions(&self) -> bool {
        true
    }

    fn wants_fine_decisions(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn keeps_coarse_drops_fine() {
        let rec = Arc::new(FlightRecorder::new());
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
        let rec = FlightRecorder::with_capacity(3);
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
        let rec = Arc::new(FlightRecorder::new());
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
        let rec = Arc::new(FlightRecorder::new());
        {
            let _guard = crate::install(rec.clone());
            let _span = crate::span("work");
            crate::counter("c", 1);
            crate::observe("h", 1.0);
        }
        assert_eq!(rec.snapshot().events.len(), 0);
    }
}
