//! Randomized tests for the engine's per-qubit (event-driven) clock: CP bounds,
//! verification, and agreement with the synchronous engine's
//! semantics. Deterministic seeded sweeps stand in for property-based
//! generation so the suite stays zero-dependency.

use autobraid::config::ScheduleConfig;
use autobraid::critical_path::critical_path_cycles;
use autobraid::metrics::verify_schedule;
use autobraid::scheduler::{run, Clock, EngineRun, StackPolicy};
use autobraid::{AutoBraid, ScheduleResult, Strategy};
use autobraid_circuit::generators::random::random_circuit;
use autobraid_circuit::sim::circuits_equivalent;
use autobraid_circuit::{Circuit, Gate};
use autobraid_lattice::Grid;
use autobraid_placement::Placement;
use autobraid_telemetry::Rng64;

/// The per-qubit clock with the stack finder from `placement`.
fn per_qubit_clock(
    circuit: &Circuit,
    grid: &Grid,
    placement: Placement,
    config: &ScheduleConfig,
) -> ScheduleResult {
    let drive = EngineRun::new(
        "autobraid-async",
        circuit,
        grid,
        placement,
        &StackPolicy,
        config,
    );
    let (result, _) = run(drive.clock(Clock::PerQubit)).unwrap().unwrap();
    result
}

/// Interval schedules verify, bound CP from above, and beat (or tie)
/// the synchronous engine.
#[test]
fn async_schedules_verify_and_bound() {
    let mut rng = Rng64::seed_from_u64(0xA51C_0001);
    let config = ScheduleConfig::default();
    let compiler = AutoBraid::new(config.clone());
    for _ in 0..24 {
        let gates = rng.gen_range(5usize..120);
        let frac = rng.gen_range(0.1..0.9);
        let seed = rng.next_u64();
        let circuit = random_circuit(8, gates, frac, seed).unwrap();
        let grid = Grid::with_capacity_for(8);
        let placement = compiler.initial_placement(&circuit, &grid);
        let result = per_qubit_clock(&circuit, &grid, placement.clone(), &config);
        verify_schedule(&circuit, &grid, &placement, &result).expect("async schedule verifies");

        let cp = critical_path_cycles(&circuit, result.timing());
        assert!(result.total_cycles >= cp);
        let sync = compiler
            .schedule(Strategy::Stack, &circuit)
            .result
            .total_cycles;
        assert!(result.total_cycles <= sync);
    }
}

/// Replaying gates by start slot yields a semantics-preserving
/// execution order (ties are simultaneous, hence independent — any
/// tie-break is valid).
#[test]
fn async_execution_order_preserves_semantics() {
    let mut rng = Rng64::seed_from_u64(0xA51C_0002);
    let config = ScheduleConfig::default();
    let compiler = AutoBraid::new(config.clone());
    for _ in 0..24 {
        let gates = rng.gen_range(5usize..60);
        let seed = rng.next_u64();
        let circuit = random_circuit(6, gates, 0.5, seed).unwrap();
        let grid = Grid::with_capacity_for(6);
        let placement = compiler.initial_placement(&circuit, &grid);
        let result = per_qubit_clock(&circuit, &grid, placement, &config);
        let order = result.execution_order();
        let gates: Vec<Gate> = order.iter().map(|&g| *circuit.gate(g)).collect();
        let replay = Circuit::from_gates(circuit.num_qubits(), gates).unwrap();
        assert!(circuits_equivalent(&circuit, &replay, 1e-9));
    }
}

#[test]
fn async_is_strictly_better_on_mixed_chains() {
    // A serial T chain running beside a braid chain is exactly where step
    // quantization hurts: the synchronous engine advances the T chain one
    // gate per 2d-cycle braid window, the async engine one per d-cycle
    // slot.
    let mut circuit = Circuit::new(6);
    for round in 0..10u32 {
        circuit.cx(round % 2, 2 + round % 2); // braid chain keeps windows busy
    }
    for _ in 0..20 {
        circuit.t(5); // independent serial T chain
    }
    let config = ScheduleConfig::default();
    let compiler = AutoBraid::new(config.clone());
    let grid = Grid::with_capacity_for(6);
    let placement = compiler.initial_placement(&circuit, &grid);
    let asynchronous = per_qubit_clock(&circuit, &grid, placement, &config);
    let sync = compiler
        .schedule(Strategy::Stack, &circuit)
        .result
        .total_cycles;
    assert!(
        asynchronous.total_cycles < sync,
        "async {} should beat sync {sync} on mixed chains",
        asynchronous.total_cycles
    );
    let cp = critical_path_cycles(&circuit, asynchronous.timing());
    assert_eq!(asynchronous.total_cycles, cp, "and meet CP outright");
}
