//! The event-tracing suite: validates the `autobraid.trace/v1` export
//! end to end — a multi-threaded batch compile under an ambient
//! [`TraceRecorder`] produces well-formed Chrome trace-event JSON that
//! the explainer can replay, per-job traces are owned by their job
//! regardless of pool shape, and worker threads get their own tracks.
//!
//! The normalization contract these tests rely on: events sort by
//! `(track, seq)`, never by timestamp (timestamps can collide; see
//! `docs/METRICS.md`).

use autobraid::pipeline::{CompileOptions, Pipeline};
use autobraid::runtime::{CompileJob, WorkerPool};
use autobraid::ScheduleConfig;
use autobraid_circuit::generators::ising::ising;
use autobraid_circuit::generators::qft::qft;
use autobraid_telemetry::explain::explain_trace;
use autobraid_telemetry::{install, Decision, JsonValue, Trace, TraceEventKind, TraceRecorder};
use std::sync::{Arc, Barrier};

fn batch_pipeline(threads: usize, trace: bool) -> Pipeline {
    Pipeline::new()
        .with_config(ScheduleConfig::default().with_threads(threads))
        .with_options(CompileOptions {
            trace,
            ..CompileOptions::default()
        })
}

fn qft_jobs(n: usize) -> Vec<CompileJob> {
    (0..n)
        .map(|i| {
            CompileJob::circuit(qft(5 + (i % 3) as u32).expect("qft builds"))
                .with_label(format!("job-{i}"))
        })
        .collect()
}

/// The decision-event names of a trace, in normalized order.
fn decision_names(trace: &Trace) -> Vec<&'static str> {
    trace
        .normalized()
        .events
        .iter()
        .filter_map(|e| match &e.kind {
            TraceEventKind::Decision(d) => Some(d.name()),
            _ => None,
        })
        .collect()
}

/// An ambient recorder on the batch thread captures a 4-worker batch
/// compile; the export must be a well-formed Chrome trace-event JSON
/// array (the `autobraid.trace/v1` contract checked key by key) and the
/// explainer must replay it into a non-empty per-step narrative.
#[test]
fn chrome_export_is_wellformed_and_explainable() {
    let recorder = Arc::new(TraceRecorder::new());
    {
        let _guard = install(recorder.clone());
        let reports = batch_pipeline(4, false).compile_batch(&qft_jobs(8));
        assert!(reports.iter().all(|r| r.is_ok()));
    }
    let json = recorder.snapshot().to_chrome_json();

    let doc = JsonValue::parse(&json).expect("export parses as JSON");
    let events = doc.as_array().expect("trace-event JSON array form");
    assert!(!events.is_empty());
    // Per-tid span nesting depth; every E must close a B, and every
    // track must end balanced.
    let mut depth: std::collections::HashMap<u64, i64> = std::collections::HashMap::new();
    for event in events {
        let ph = event
            .get("ph")
            .and_then(JsonValue::as_str)
            .expect("every event has ph");
        assert!(event.get("name").and_then(JsonValue::as_str).is_some());
        assert!(event.get("pid").and_then(JsonValue::as_u64).is_some());
        assert!(
            matches!(ph, "M" | "B" | "E" | "i"),
            "unexpected phase {ph:?}"
        );
        if ph == "M" {
            continue;
        }
        assert!(event.get("ts").and_then(JsonValue::as_f64).is_some());
        let tid = event
            .get("tid")
            .and_then(JsonValue::as_u64)
            .expect("non-metadata events carry tid");
        match ph {
            "B" => *depth.entry(tid).or_insert(0) += 1,
            "E" => {
                let d = depth.entry(tid).or_insert(0);
                *d -= 1;
                assert!(*d >= 0, "E without matching B on tid {tid}");
            }
            _ => {}
        }
    }
    assert!(depth.values().all(|&d| d == 0), "unmatched B events");

    let narrative = explain_trace(&json).expect("explainer accepts the export");
    assert!(!narrative.is_empty());
    assert!(narrative.contains("step"), "{narrative}");
    assert!(narrative.contains("routed"), "{narrative}");
}

/// `CompileOptions { trace: true }` gives every job its own trace: the
/// job's events land in its report (one track — intra-batch compiles
/// are single-threaded), and the normalized decision sequence of each
/// job is identical at 1, 2, and 8 pool threads.
#[test]
fn per_job_traces_are_owned_and_thread_count_invariant() {
    let jobs = vec![
        CompileJob::circuit(qft(6).expect("qft builds")).with_label("qft-6"),
        CompileJob::circuit(ising(8, 2).expect("ising builds")).with_label("ising-8"),
        CompileJob::circuit(qft(8).expect("qft builds")).with_label("qft-8"),
    ];
    let mut sequences: Vec<Vec<Vec<&'static str>>> = Vec::new();
    for threads in [1, 2, 8] {
        let reports = batch_pipeline(threads, true).compile_batch(&jobs);
        let traces: Vec<Trace> = reports
            .into_iter()
            .map(|r| r.expect("jobs compile").trace.expect("trace requested"))
            .collect();
        for trace in &traces {
            assert_eq!(
                trace.tracks.len(),
                1,
                "a batch job compiles on one thread, so its trace has one track"
            );
            assert!(!trace.events.is_empty());
            assert!(
                decision_names(trace).contains(&"engine.begin"),
                "each job's trace carries its own engine events"
            );
        }
        sequences.push(traces.iter().map(decision_names).collect());
    }
    assert_eq!(
        sequences[0], sequences[1],
        "decision sequences are identical at 1 and 2 threads"
    );
    assert_eq!(
        sequences[0], sequences[2],
        "decision sequences are identical at 1 and 8 threads"
    );
}

/// A barrier forces two pool jobs to overlap on distinct workers: the
/// ambient trace must show exactly two tracks, named after the pool's
/// worker threads, each owning its job's events.
#[test]
fn worker_pool_events_land_on_per_thread_tracks() {
    let recorder = Arc::new(TraceRecorder::new());
    {
        let _guard = install(recorder.clone());
        let pool = WorkerPool::new(2);
        let barrier = Arc::new(Barrier::new(2));
        for label in ["left", "right"] {
            let barrier = Arc::clone(&barrier);
            pool.execute(move || {
                // Both jobs are in flight before either records: they
                // are pinned to different workers.
                barrier.wait();
                autobraid_telemetry::decision(&Decision::JobStart {
                    label: label.to_string(),
                });
            });
        }
        // Dropping the pool joins the workers.
    }
    let trace = recorder.snapshot();
    assert_eq!(trace.tracks.len(), 2, "one track per worker thread");
    assert!(
        trace
            .tracks
            .iter()
            .all(|name| name.starts_with("autobraid-worker-")),
        "tracks carry the pool's thread names: {:?}",
        trace.tracks
    );
    let mut by_track: Vec<Vec<&'static str>> = vec![Vec::new(); 2];
    for event in &trace.normalized().events {
        if let TraceEventKind::Decision(d) = &event.kind {
            by_track[event.track].push(d.name());
        }
    }
    assert_eq!(
        by_track,
        vec![vec!["job.start"], vec!["job.start"]],
        "each worker recorded exactly its own job's decision"
    );
}
