//! Streaming property tests: an online compile with no step budget and
//! no injected faults must be *semantically indistinguishable* from the
//! offline [`Pipeline::compile`] path — same computation (state-vector
//! oracle), same gate accounting, same critical-path lower bound — for
//! every registry strategy. Deterministic seeded
//! sweeps stand in for property-based generation so the suite stays
//! zero-dependency.

use autobraid::critical_path::critical_path_cycles;
use autobraid::pipeline::{CompileOptions, Pipeline};
use autobraid::report::schedule_result_json;
use autobraid::{
    verify_schedule_with_dag, ScheduleConfig, ScheduleResult, Step, StreamingOptions,
    StreamingPipeline, REGISTRY,
};
use autobraid_circuit::generators::ising::ising;
use autobraid_circuit::generators::qft::qft;
use autobraid_circuit::generators::random::random_circuit;
use autobraid_circuit::sim::circuits_equivalent;
use autobraid_circuit::{Circuit, DependenceDag, Gate};
use std::time::Duration;

const EPS: f64 = 1e-9;

/// Small enough for the state-vector oracle, varied enough to exercise
/// every scheduler branch (pure locals, braid contention, mixed layers).
fn sample_circuits() -> Vec<Circuit> {
    let mut circuits = vec![qft(6).unwrap(), ising(8, 2).unwrap()];
    for seed in [0xA11CE, 0xB0B, 0xC0FFEE] {
        circuits.push(random_circuit(7, 40, 0.5, seed as u64).unwrap());
    }
    circuits
}

/// Flattens a recorded schedule into the order gates actually executed.
fn execution_order(steps: &[Step]) -> Vec<usize> {
    let mut order = Vec::new();
    for step in steps {
        match step {
            Step::Local { gates } => order.extend(gates.iter().copied()),
            Step::Braid { braids, locals } => {
                order.extend(braids.iter().map(|(g, _)| *g));
                order.extend(locals.iter().copied());
            }
            Step::SwapLayer { .. } => {}
        }
    }
    order
}

/// Rebuilds a circuit with its gates permuted into `order`.
fn reordered(circuit: &Circuit, order: &[usize]) -> Circuit {
    let gates: Vec<Gate> = order.iter().map(|&g| *circuit.gate(g)).collect();
    Circuit::from_gates(circuit.num_qubits(), gates).expect("same register")
}

/// Every gate id scheduled exactly once — nothing dropped, nothing
/// duplicated.
fn assert_gate_accounting(circuit: &Circuit, order: &[usize], context: &str) {
    assert_eq!(
        order.len(),
        circuit.len(),
        "{context}: scheduled {} gates, pushed {}",
        order.len(),
        circuit.len()
    );
    let mut seen = vec![false; circuit.len()];
    for &g in order {
        assert!(!seen[g], "{context}: gate {g} scheduled twice");
        seen[g] = true;
    }
}

/// The canonical (wall-clock-free) form of a schedule, as a JSON string.
fn canonical(result: &ScheduleResult) -> String {
    let mut result = result.clone();
    result.compile_seconds = 0.0;
    schedule_result_json(&result).render_compact()
}

/// An unbudgeted, fault-free stream is semantically equivalent to the
/// offline pipeline: both execution orders compute the source unitary,
/// both schedule every gate exactly once, and both respect the
/// critical-path lower bound — for every strategy.
#[test]
fn unbudgeted_stream_matches_offline_pipeline_semantics() {
    for circuit in sample_circuits() {
        for info in REGISTRY {
            let context = format!("{} strategy={}", circuit.name(), info.name);

            let options = StreamingOptions::default()
                .with_strategy(info.strategy)
                .with_label(circuit.name());
            let mut stream = StreamingPipeline::open(circuit.num_qubits(), options);
            for (_, gate) in circuit.iter() {
                stream.push_gate(*gate).expect("in-range gate");
            }
            let streamed = stream.finish().unwrap_or_else(|e| {
                panic!("{context}: streaming compile failed: {e}");
            });

            let offline = Pipeline::new()
                .with_options(CompileOptions {
                    strategy: info.strategy,
                    ..CompileOptions::default()
                })
                .compile(&circuit)
                .unwrap_or_else(|e| panic!("{context}: offline compile failed: {e}"));

            // Gate accounting on both paths. The offline pipeline
            // optimizes first, so it accounts against its own
            // (possibly smaller) circuit.
            let stream_order = execution_order(&streamed.outcome.result.steps);
            assert_gate_accounting(&streamed.circuit, &stream_order, &context);
            let offline_order = execution_order(&offline.outcome.result.steps);
            assert_gate_accounting(&offline.circuit, &offline_order, &context);

            // Sim-oracle agreement: both execution orders compute
            // the same unitary as the source program — hence as
            // each other.
            let streamed_exec = reordered(&streamed.circuit, &stream_order);
            assert!(
                circuits_equivalent(&circuit, &streamed_exec, EPS),
                "{context}: streamed execution order changed the computation"
            );
            let offline_exec = reordered(&offline.circuit, &offline_order);
            assert!(
                circuits_equivalent(&streamed_exec, &offline_exec, EPS),
                "{context}: streamed and offline schedules disagree semantically"
            );

            // Critical-path lower bound: no online schedule may
            // beat the ideal.
            let cp = critical_path_cycles(&circuit, streamed.outcome.result.timing());
            assert!(
                streamed.outcome.result.total_cycles >= cp,
                "{context}: streamed {} cycles beats the critical path {cp}",
                streamed.outcome.result.total_cycles
            );
        }
    }
}

/// A stream is serial and must not read the batch pool width: the
/// canonical schedule is the same at any `ScheduleConfig::threads`.
#[test]
fn stream_schedule_is_thread_invariant() {
    for circuit in sample_circuits() {
        for info in REGISTRY {
            let stream_at = |threads| {
                let options = StreamingOptions::default()
                    .with_strategy(info.strategy)
                    .with_label(circuit.name());
                let config = ScheduleConfig::default().with_threads(threads);
                let mut stream =
                    StreamingPipeline::open_with_config(circuit.num_qubits(), options, config);
                for (_, gate) in circuit.iter() {
                    stream.push_gate(*gate).expect("in-range gate");
                }
                let report = stream.finish().expect("clean stream compiles");
                canonical(&report.outcome.result)
            };
            assert_eq!(
                stream_at(8),
                stream_at(1),
                "{} strategy={}: the pool width reached a stream",
                circuit.name(),
                info.name
            );
        }
    }
}

/// Push/step interleaving must not change what the schedule computes:
/// driving the engine eagerly after every push still accounts for every
/// gate, still verifies, and still preserves semantics.
#[test]
fn interleaved_pushes_and_steps_preserve_semantics() {
    for circuit in sample_circuits() {
        let options = StreamingOptions::default().with_label(circuit.name());
        let mut stream = StreamingPipeline::open(circuit.num_qubits(), options);
        for (_, gate) in circuit.iter() {
            stream.push_gate(*gate).expect("in-range gate");
            stream.step().expect("eager step");
        }
        let report = stream.finish().expect("clean stream compiles");

        let order = execution_order(&report.outcome.result.steps);
        assert_gate_accounting(&report.circuit, &order, circuit.name());
        assert!(
            circuits_equivalent(&circuit, &reordered(&report.circuit, &order), EPS),
            "{}: eager stepping changed the computation",
            circuit.name()
        );
        let dag = DependenceDag::new(&report.circuit);
        verify_schedule_with_dag(
            &report.circuit,
            &dag,
            &report.outcome.grid,
            &report.outcome.initial_placement,
            &report.outcome.result,
        )
        .unwrap_or_else(|e| panic!("{}: eager-step schedule invalid: {e}", circuit.name()));
    }
}

/// A zero step budget forces the pipeline to trim every overrunning
/// layer down to its critical core — the schedule must stay complete,
/// valid, and semantics-preserving anyway.
#[test]
fn budget_trimming_never_corrupts_the_schedule() {
    for circuit in sample_circuits() {
        let options = StreamingOptions::default()
            .with_label(circuit.name())
            .with_step_budget(Duration::ZERO);
        let mut stream = StreamingPipeline::open(circuit.num_qubits(), options);
        for (_, gate) in circuit.iter() {
            stream.push_gate(*gate).expect("in-range gate");
        }
        let report = stream.finish().expect("budgeted stream still completes");

        let order = execution_order(&report.outcome.result.steps);
        assert_gate_accounting(&report.circuit, &order, circuit.name());
        assert!(
            circuits_equivalent(&circuit, &reordered(&report.circuit, &order), EPS),
            "{}: budget trimming changed the computation",
            circuit.name()
        );
        let dag = DependenceDag::new(&report.circuit);
        verify_schedule_with_dag(
            &report.circuit,
            &dag,
            &report.outcome.grid,
            &report.outcome.initial_placement,
            &report.outcome.result,
        )
        .unwrap_or_else(|e| panic!("{}: budgeted schedule invalid: {e}", circuit.name()));

        // Trimming can only stretch the schedule, never beat the ideal.
        let cp = critical_path_cycles(&circuit, report.outcome.result.timing());
        assert!(report.outcome.result.total_cycles >= cp);
    }
}
