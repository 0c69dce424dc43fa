//! Semantic randomized tests: the state-vector simulator proves that
//! scheduling, transforms, and decompositions preserve what circuits
//! *compute*, not just their structure. Deterministic seeded sweeps
//! stand in for property-based generation so the suite stays
//! zero-dependency.

use autobraid::config::ScheduleConfig;
use autobraid::{AutoBraid, Strategy};
use autobraid_circuit::generators::random::random_circuit;
use autobraid_circuit::sim::{circuits_equivalent, StateVector};
use autobraid_circuit::transform::optimize;
use autobraid_circuit::{Circuit, Gate};
use autobraid_telemetry::Rng64;

const EPS: f64 = 1e-9;

/// Rebuilds a circuit with its gates permuted into `order`.
fn reordered(circuit: &Circuit, order: &[usize]) -> Circuit {
    let gates: Vec<Gate> = order.iter().map(|&g| *circuit.gate(g)).collect();
    Circuit::from_gates(circuit.num_qubits(), gates).expect("same register")
}

/// The scheduler may only reorder independent gates: executing gates
/// in scheduled order computes the same unitary as program order.
#[test]
fn scheduled_order_preserves_semantics() {
    let mut rng = Rng64::seed_from_u64(0x5E3_0001);
    let compiler = AutoBraid::new(ScheduleConfig::default());
    for _ in 0..24 {
        let gates = rng.gen_range(5usize..60);
        let frac = rng.gen_range(0.2..0.8);
        let seed = rng.next_u64();
        let circuit = random_circuit(6, gates, frac, seed).unwrap();
        let outcome = compiler.schedule(Strategy::Stack, &circuit);
        let order = outcome.result.execution_order();
        assert_eq!(order.len(), circuit.len());
        let scheduled = reordered(&circuit, &order);
        assert!(
            circuits_equivalent(&circuit, &scheduled, EPS),
            "scheduled execution order changed the computation"
        );
    }
}

/// Same property under the commutation-relaxed DAG: the wider
/// reordering freedom must still be semantics-preserving.
#[test]
fn commutation_aware_order_preserves_semantics() {
    let mut rng = Rng64::seed_from_u64(0x5E3_0002);
    let config = ScheduleConfig::default().with_commutation_aware(true);
    let compiler = AutoBraid::new(config);
    for _ in 0..24 {
        let gates = rng.gen_range(5usize..60);
        let frac = rng.gen_range(0.2..0.8);
        let seed = rng.next_u64();
        let circuit = random_circuit(6, gates, frac, seed).unwrap();
        let outcome = compiler.schedule(Strategy::Stack, &circuit);
        let order = outcome.result.execution_order();
        assert_eq!(order.len(), circuit.len());
        let scheduled = reordered(&circuit, &order);
        assert!(
            circuits_equivalent(&circuit, &scheduled, EPS),
            "commutation-aware reordering changed the computation"
        );
    }
}

/// The peephole optimizer is an equivalence (already unit-tested;
/// cross-checked here at the integration level with wider inputs).
#[test]
fn optimizer_preserves_semantics() {
    let mut rng = Rng64::seed_from_u64(0x5E3_0003);
    for _ in 0..24 {
        let gates = rng.gen_range(0usize..120);
        let frac = rng.gen_f64();
        let seed = rng.next_u64();
        let circuit = random_circuit(7, gates.max(1), frac, seed).unwrap();
        let (optimized, stats) = optimize(&circuit, 1e-12);
        assert!(optimized.len() + stats.gates_removed() == circuit.len());
        assert!(circuits_equivalent(&circuit, &optimized, EPS));
    }
}

/// Simulation invariants: unitarity (norm preservation) and
/// determinism for any circuit in the gate set.
#[test]
fn simulation_is_unitary_and_deterministic() {
    let mut rng = Rng64::seed_from_u64(0x5E3_0004);
    for _ in 0..24 {
        let gates = rng.gen_range(0usize..100);
        let frac = rng.gen_f64();
        let seed = rng.next_u64();
        let circuit = random_circuit(6, gates.max(1), frac, seed).unwrap();
        let s1 = StateVector::run(&circuit);
        let s2 = StateVector::run(&circuit);
        assert!((s1.norm() - 1.0).abs() < 1e-9);
        assert_eq!(s1.amplitudes(), s2.amplitudes());
    }
}

#[test]
fn optimize_then_schedule_never_costs_cycles() {
    // Removing gates can only help the schedule (same dependence skeleton
    // minus work).
    let compiler = AutoBraid::new(ScheduleConfig::default());
    for seed in 0..5 {
        let circuit = random_circuit(10, 200, 0.5, seed).unwrap();
        let (optimized, stats) = optimize(&circuit, 1e-12);
        let raw = compiler
            .schedule(Strategy::Stack, &circuit)
            .result
            .total_cycles;
        let opt = compiler
            .schedule(Strategy::Stack, &optimized)
            .result
            .total_cycles;
        assert!(
            opt <= raw,
            "seed {seed}: optimization (−{} gates) must not slow the schedule ({opt} vs {raw})",
            stats.gates_removed()
        );
    }
}
