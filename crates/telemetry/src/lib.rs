//! Zero-dependency observability substrate for the AutoBraid suite.
//!
//! The compiler pipeline (stages: lower → place → schedule → verify;
//! see `DESIGN.md` at the repository root) reports *what* it produced
//! through `ScheduleResult` — this crate reports *why*: hierarchical
//! wall-clock [`Span`]s,
//! monotonic counters, and value histograms, recorded through a cheap
//! [`Recorder`] trait behind thread-local installation.
//!
//! # Design
//!
//! - **Disabled by default, free when disabled.** Instrumented code
//!   calls [`counter`], [`observe`], and [`span`] unconditionally;
//!   when no recorder is installed each call is a thread-local flag
//!   check and returns immediately.
//! - **Installation is scoped.** [`install`] returns an RAII
//!   [`RecorderGuard`]; recorders nest and uninstall on drop, so a
//!   pipeline run can be measured without global state leaking into
//!   the next run.
//! - **Aggregation by default, events on demand.** The bundled
//!   [`MemoryRecorder`] aggregates in place (span totals, counter
//!   sums, histogram reservoirs) and snapshots into a
//!   [`TelemetrySnapshot`] that serializes to the stable
//!   `autobraid.telemetry/v1` JSON layout documented in
//!   `docs/METRICS.md`. The [`TraceRecorder`] instead keeps every
//!   timestamped span edge and typed [`Decision`] event, exporting to
//!   Chrome trace-event JSON (`autobraid.trace/v1`, loads in Perfetto)
//!   via [`mod@export`] and to a per-step terminal narrative via
//!   [`mod@explain`]. A [`FanoutRecorder`] captures both in one run.
//!
//! The crate also hosts the deterministic PRNG the zero-dependency
//! build needs: [`Rng64`], a seeded xoshiro256** generator used by
//! circuit generators, annealing, and randomized tests. Timing lives in
//! one place, `bench regress` (`crates/bench/src/regression.rs`).
//!
//! # Example
//!
//! ```
//! use autobraid_telemetry as telemetry;
//! use std::sync::Arc;
//!
//! let recorder = Arc::new(telemetry::MemoryRecorder::new());
//! {
//!     let _guard = telemetry::install(recorder.clone());
//!     let _run = telemetry::span("run");
//!     for gate in 0..3u64 {
//!         let _step = telemetry::span("step");
//!         telemetry::counter("gates.routed", 1);
//!         telemetry::observe("llg.size", gate as f64);
//!     }
//! }
//! let snapshot = recorder.snapshot();
//! assert_eq!(snapshot.counter("gates.routed"), 3);
//! assert_eq!(snapshot.span("run/step").unwrap().count, 3);
//! println!("{}", snapshot.to_json());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ambient;
pub mod explain;
pub mod export;
mod json;
mod memory;
mod recorder;
mod reference;
mod request;
mod rng;
mod span;
pub mod trace;
mod window;

pub use ambient::AmbientStack;
pub use json::JsonValue;
pub use memory::{HistogramSummary, MemoryRecorder, SpanStat, TelemetrySnapshot, SCHEMA};
pub use recorder::{
    current, install, install_alongside, is_enabled, FanoutRecorder, Recorder, RecorderGuard,
};
pub use reference::{reference_mode, set_reference_mode};
pub use request::{begin_request, current_request, RequestGuard};
pub use rng::{Rng64, SampleRange};
pub use span::Span;
pub use trace::{
    Decision, Trace, TraceEvent, TraceEventKind, TraceRecorder, DEFAULT_FLIGHT_CAPACITY,
    TRACE_SCHEMA,
};
pub use window::{WindowedRecorder, DEFAULT_WINDOW_SECONDS, METRICS_SCHEMA};

/// Opens a timing span named `name`; the returned [`Span`] reports its
/// wall-clock duration (under the current nesting path) when dropped.
pub fn span(name: &'static str) -> Span {
    Span::enter(name)
}

/// [`span`], but only live when the installed recorder wants
/// fine-grained metrics (see [`fine_metrics_enabled`]). Per-step spans
/// use this so the ambient stack skips their record/path cost; the
/// coarse stage spans (`parse`, `schedule`, `engine`, `verify`) stay
/// on [`span`] and remain visible in lifetime aggregates.
pub fn fine_span(name: &'static str) -> Span {
    Span::enter_fine(name)
}

/// Adds `delta` to the monotonic counter `name` on the installed
/// recorder, if any.
pub fn counter(name: &str, delta: u64) {
    recorder::with_recorder(|r| r.add(name, delta));
}

/// Records one observation of `value` under the histogram `name` on
/// the installed recorder, if any.
pub fn observe(name: &str, value: f64) {
    recorder::with_recorder(|r| r.observe(name, value));
}

/// [`counter`], but only when the installed recorder wants
/// fine-grained metrics (see [`fine_metrics_enabled`]). Inner-loop
/// profiling counters use this so the always-on ambient stack costs
/// nothing on the hot paths.
pub fn fine_counter(name: &str, delta: u64) {
    if recorder::caps().fine_metrics {
        recorder::with_recorder(|r| r.add(name, delta));
    }
}

/// [`observe`], but only when the installed recorder wants
/// fine-grained metrics (see [`fine_metrics_enabled`]).
pub fn fine_observe(name: &str, value: f64) {
    if recorder::caps().fine_metrics {
        recorder::with_recorder(|r| r.observe(name, value));
    }
}

/// Records a typed [`Decision`] event on the installed recorder, if it
/// wants decisions of that class (see [`decisions_enabled`] and
/// [`fine_decisions_enabled`]).
pub fn decision(decision: &Decision) {
    let caps = recorder::caps();
    let wants = if decision.is_fine() {
        caps.fine_decisions
    } else {
        caps.decisions
    };
    if wants {
        recorder::with_recorder(|r| r.record_decision(decision));
    }
}

/// Whether the installed recorder wants decision events.
///
/// Instrumented code uses this to skip *building* decision payloads
/// (string formatting, path serialization) when nothing would record
/// them — the same discipline as [`is_enabled`] for metrics.
pub fn decisions_enabled() -> bool {
    recorder::caps().decisions
}

/// Whether the installed recorder wants *fine-grained* decision events
/// (per-gate route commits, stack peels, A* searches, annealing
/// accepts — see [`Decision::is_fine`]).
///
/// Inner loops guard on this instead of [`decisions_enabled`], so an
/// always-on flight ring ([`TraceRecorder::flight`]) — which records
/// only coarse lifecycle decisions — leaves the hot paths payload-free.
pub fn fine_decisions_enabled() -> bool {
    recorder::caps().fine_decisions
}

/// Whether the installed recorder wants *fine-grained metrics* — the
/// per-search / per-iteration counters and histogram observations from
/// compile inner loops (see [`Recorder::wants_fine_metrics`]).
///
/// Hot paths guard their profiling `counter`/`observe` calls on this
/// instead of [`is_enabled`]: a `--telemetry` request or a trace
/// capture still collects the full profile, while the service's
/// always-on ambient stack (lifetime + windowed + flight) skips the
/// roughly thousand per-compile sink calls those loops would otherwise
/// pay for; `bench regress` holds what is left under 2% of a compile.
pub fn fine_metrics_enabled() -> bool {
    recorder::caps().fine_metrics
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// Pins the `autobraid.telemetry/v1` JSON layout. If this test
    /// fails the schema changed: update `docs/METRICS.md`, bump
    /// [`SCHEMA`], and only then update the expectation.
    #[test]
    fn json_schema_is_pinned() {
        let rec = Arc::new(MemoryRecorder::new());
        {
            let _guard = install(rec.clone());
            let _outer = span("compile");
            counter("scheduler.steps", 2);
            counter("router.searches", 5);
            observe("router.llg_size", 2.0);
            observe("router.llg_size", 4.0);
        }
        let mut snap = rec.snapshot();
        // Zero the measured wall time so the output is reproducible.
        for s in &mut snap.spans {
            s.total_seconds = 0.0;
        }
        let expected = concat!(
            "{\n",
            "  \"schema\": \"autobraid.telemetry/v1\",\n",
            "  \"spans\": [\n",
            "    {\n",
            "      \"path\": \"compile\",\n",
            "      \"count\": 1,\n",
            "      \"total_seconds\": 0\n",
            "    }\n",
            "  ],\n",
            "  \"counters\": {\n",
            "    \"router.searches\": 5,\n",
            "    \"scheduler.steps\": 2\n",
            "  },\n",
            "  \"histograms\": {\n",
            "    \"router.llg_size\": {\n",
            "      \"count\": 2,\n",
            "      \"sum\": 6,\n",
            "      \"min\": 2,\n",
            "      \"max\": 4,\n",
            "      \"mean\": 3,\n",
            "      \"p50\": 4,\n",
            "      \"p90\": 4,\n",
            "      \"p99\": 4\n",
            "    }\n",
            "  }\n",
            "}",
        );
        assert_eq!(snap.to_json(), expected);
    }

    #[test]
    fn metric_names_cover_all_kinds() {
        let rec = Arc::new(MemoryRecorder::new());
        {
            let _guard = install(rec.clone());
            let _s = span("a");
            counter("b", 1);
            observe("c", 1.0);
        }
        assert_eq!(rec.snapshot().metric_names(), vec!["a", "b", "c"]);
    }
}
