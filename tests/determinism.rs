//! The determinism suite: the parallel runtime's contract is that
//! compile *outputs* are byte-identical for every `compile_batch` pool
//! width — batching changes wall-clock time, never the schedule. A
//! single compile is serial and never reads the pool width.
//! `docs/RUNTIME.md` documents the contract; CI runs this suite under
//! `RUST_TEST_THREADS=1` so the only threads in play are the runtime's
//! own.

use autobraid::prelude::*;
use autobraid_circuit::generators::{cc::counterfeit_coin, ising::ising, qft::qft};

/// The canonical (measurement-free) form of a report, as a JSON string.
fn canonical(report: &CompileReport) -> String {
    report.canonical_json()
}

fn pipeline_with_threads(threads: usize) -> Pipeline {
    Pipeline::new().with_config(ScheduleConfig::default().with_threads(threads))
}

fn sample_circuits() -> Vec<Circuit> {
    vec![
        qft(12).unwrap(),
        ising(16, 2).unwrap(),
        counterfeit_coin(10).unwrap(),
    ]
}

/// The pool width sizes batches only: a single compile must not read
/// it (the daemon's cache key leaves it out).
#[test]
fn single_compile_is_thread_invariant() {
    for circuit in sample_circuits() {
        assert_eq!(
            canonical(&pipeline_with_threads(8).compile(&circuit).unwrap()),
            canonical(&pipeline_with_threads(1).compile(&circuit).unwrap()),
            "{}: the pool width reached a single compile",
            circuit.name(),
        );
    }
}

#[test]
fn batch_with_one_thread_matches_serial_loop() {
    let circuits = sample_circuits();
    let jobs: Vec<CompileJob> = circuits.iter().cloned().map(CompileJob::circuit).collect();
    let pipeline = pipeline_with_threads(1);
    let batch = pipeline.compile_batch(&jobs);
    assert_eq!(batch.len(), circuits.len());
    for (circuit, batched) in circuits.iter().zip(&batch) {
        let serial = pipeline.compile(circuit).unwrap();
        assert_eq!(
            canonical(batched.as_ref().unwrap()),
            canonical(&serial),
            "{}: batch(threads=1) diverged from compile()",
            circuit.name(),
        );
    }
}

#[test]
fn batch_results_are_thread_invariant_and_input_ordered() {
    let jobs: Vec<CompileJob> = sample_circuits()
        .into_iter()
        .map(CompileJob::circuit)
        .collect();
    let baseline: Vec<String> = pipeline_with_threads(1)
        .compile_batch(&jobs)
        .iter()
        .map(|r| canonical(r.as_ref().unwrap()))
        .collect();
    // Input order is recoverable from the canonical JSON (circuit names
    // differ), so equality here also proves result ordering.
    for threads in [2, 8] {
        let got: Vec<String> = pipeline_with_threads(threads)
            .compile_batch(&jobs)
            .iter()
            .map(|r| canonical(r.as_ref().unwrap()))
            .collect();
        assert_eq!(got, baseline, "threads={threads} batch diverged");
    }
}

#[test]
fn batch_covers_every_strategy_deterministically() {
    let circuit = qft(10).unwrap();
    // `Strategy::ALL` derives from the registry, so new strategies are
    // swept here automatically.
    for strategy in Strategy::ALL {
        let make = |threads| {
            pipeline_with_threads(threads).with_options(CompileOptions {
                strategy,
                ..CompileOptions::default()
            })
        };
        let jobs = vec![CompileJob::circuit(circuit.clone())];
        let serial = make(1).compile_batch(&jobs);
        let parallel = make(4).compile_batch(&jobs);
        assert_eq!(
            canonical(serial[0].as_ref().unwrap()),
            canonical(parallel[0].as_ref().unwrap()),
            "{strategy:?} diverged under batching",
        );
    }
}

#[test]
fn poisoned_job_fails_alone() {
    // The 0-qubit circuit panics inside scheduling (a grid must hold at
    // least one qubit); every other job in the batch must come back Ok,
    // in order.
    let jobs = vec![
        CompileJob::circuit(qft(8).unwrap()).with_label("left"),
        CompileJob::circuit(Circuit::new(0)).with_label("poison"),
        CompileJob::circuit(ising(9, 1).unwrap()).with_label("right"),
    ];
    for threads in [1, 2, 8] {
        let reports = pipeline_with_threads(threads).compile_batch(&jobs);
        assert!(reports[0].is_ok(), "threads={threads}");
        assert!(reports[2].is_ok(), "threads={threads}");
        match &reports[1] {
            Err(PipelineError::Panicked { circuit, detail }) => {
                assert_eq!(circuit, "poison");
                assert!(
                    detail.contains("at least one qubit"),
                    "unexpected panic payload: {detail}"
                );
            }
            other => panic!("threads={threads}: expected Panicked, got {other:?}"),
        }
    }
}

#[test]
fn merged_batch_telemetry_sums_job_counters() {
    let jobs = vec![
        CompileJob::circuit(qft(10).unwrap()),
        CompileJob::circuit(qft(10).unwrap()),
        CompileJob::circuit(qft(10).unwrap()),
    ];
    let pipeline = pipeline_with_threads(2).with_options(CompileOptions {
        telemetry: true,
        ..CompileOptions::default()
    });
    let reports = pipeline.compile_batch(&jobs);
    let merged = merged_batch_telemetry(&reports).expect("telemetry enabled");
    let per_job: u64 = reports[0]
        .as_ref()
        .unwrap()
        .telemetry
        .as_ref()
        .unwrap()
        .counter("scheduler.steps.braid");
    assert!(per_job > 0);
    assert_eq!(merged.counter("scheduler.steps.braid"), 3 * per_job);
}
