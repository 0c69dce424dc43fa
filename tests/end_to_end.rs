//! End-to-end integration tests: every benchmark family, every scheduler,
//! every schedule machine-verified.

use autobraid::config::ScheduleConfig;
use autobraid::critical_path::critical_path_cycles;
use autobraid::metrics::verify_schedule;
use autobraid::{AutoBraid, Strategy};
use autobraid_circuit::{generators, Circuit};

fn workloads() -> Vec<Circuit> {
    vec![
        generators::qft::qft(14).unwrap(),
        generators::bv::bv_all_ones(18).unwrap(),
        generators::cc::counterfeit_coin(15).unwrap(),
        generators::ising::ising(18, 2).unwrap(),
        generators::qaoa::qaoa(16, 2, 3, 11).unwrap(),
        generators::bwt::bwt(20, 1).unwrap(),
        generators::shor::shor_like(5, 3).unwrap(),
        generators::revlib::build("rd32-v0").unwrap(),
        generators::qpe::qpe(8, 0.375).unwrap(),
        generators::adder::cuccaro_adder(5).unwrap(),
        generators::revlib::build("4gt11_8").unwrap(),
        generators::random::random_circuit(12, 300, 0.6, 5).unwrap(),
    ]
}

#[test]
fn every_scheduler_produces_a_verified_schedule_on_every_family() {
    let config = ScheduleConfig::default();
    let compiler = AutoBraid::new(config.clone());
    for circuit in workloads() {
        let name = circuit.name().to_string();
        let cp = critical_path_cycles(&circuit, &config.timing);

        let baseline = compiler.schedule(Strategy::Baseline, &circuit);
        verify_schedule(
            &circuit,
            &baseline.grid,
            &baseline.initial_placement,
            &baseline.result,
        )
        .unwrap_or_else(|e| panic!("{name}/baseline: {e}"));
        assert!(
            baseline.result.total_cycles >= cp,
            "{name}: baseline below CP"
        );

        let sp = compiler.schedule(Strategy::Stack, &circuit);
        verify_schedule(&circuit, &sp.grid, &sp.initial_placement, &sp.result)
            .unwrap_or_else(|e| panic!("{name}/sp: {e}"));
        assert!(sp.result.total_cycles >= cp, "{name}: sp below CP");

        let full = compiler.schedule(Strategy::Full, &circuit);
        verify_schedule(&circuit, &full.grid, &full.initial_placement, &full.result)
            .unwrap_or_else(|e| panic!("{name}/full: {e}"));
        assert!(full.result.total_cycles >= cp, "{name}: full below CP");
        assert!(
            full.result.total_cycles <= sp.result.total_cycles,
            "{name}: full ({}) must not lose to sp ({})",
            full.result.total_cycles,
            sp.result.total_cycles
        );

        let maslov = compiler.schedule(Strategy::Maslov, &circuit);
        verify_schedule(
            &circuit,
            &maslov.grid,
            &maslov.initial_placement,
            &maslov.result,
        )
        .unwrap_or_else(|e| panic!("{name}/maslov: {e}"));
        assert!(maslov.result.total_cycles >= cp, "{name}: maslov below CP");
    }
}

#[test]
fn serial_communication_families_hit_critical_path() {
    // BV and CC have zero CX parallelism: every scheduler should reach CP,
    // and AutoBraid must (Table 2). Their star coupling graphs stop the
    // partitioner's coarsening early, so the Table 2 sizes are checked too.
    let config = ScheduleConfig::default();
    let compiler = AutoBraid::new(config.clone());
    let mut circuits = vec![
        generators::bv::bv_all_ones(40).unwrap(),
        generators::cc::counterfeit_coin(40).unwrap(),
    ];
    for n in [100, 150, 200] {
        circuits.push(generators::bv::bv_all_ones(n).unwrap());
    }
    for n in [100, 200, 300] {
        circuits.push(generators::cc::counterfeit_coin(n).unwrap());
    }
    for circuit in circuits {
        let cp = critical_path_cycles(&circuit, &config.timing);
        let full = compiler.schedule(Strategy::Full, &circuit);
        assert_eq!(full.result.total_cycles, cp, "{}", circuit.name());
    }
}

#[test]
fn linear_chain_families_hit_critical_path() {
    let config = ScheduleConfig::default();
    let compiler = AutoBraid::new(config.clone());
    for n in [9u32, 16, 30, 50] {
        let circuit = generators::ising::ising(n, 2).unwrap();
        let cp = critical_path_cycles(&circuit, &config.timing);
        let full = compiler.schedule(Strategy::Full, &circuit);
        assert_eq!(full.result.total_cycles, cp, "ising-{n}");
    }
}

#[test]
fn schedulers_are_deterministic_across_processes_worth_of_calls() {
    let config = ScheduleConfig::default();
    let compiler = AutoBraid::new(config.clone());
    let circuit = generators::qaoa::qaoa(16, 2, 3, 99).unwrap();
    let runs: Vec<u64> = (0..3)
        .map(|_| {
            compiler
                .schedule(Strategy::Full, &circuit)
                .result
                .total_cycles
        })
        .collect();
    assert!(runs.windows(2).all(|w| w[0] == w[1]), "{runs:?}");
    let base: Vec<u64> = (0..3)
        .map(|_| {
            compiler
                .schedule(Strategy::Baseline, &circuit)
                .result
                .total_cycles
        })
        .collect();
    assert!(base.windows(2).all(|w| w[0] == w[1]), "{base:?}");
}

#[test]
fn gate_conservation_in_recorded_schedules() {
    let config = ScheduleConfig::default();
    let compiler = AutoBraid::new(config.clone());
    let circuit = generators::qft::qft(12).unwrap();
    let outcome = compiler.schedule(Strategy::Stack, &circuit);
    let executed = outcome.result.execution_order();
    assert_eq!(executed.len(), circuit.len());
}

#[test]
fn bigger_code_distance_means_longer_wall_clock() {
    use autobraid_lattice::{CodeParams, TimingModel};
    let circuit = generators::qft::qft(10).unwrap();
    let mut times = Vec::new();
    for d in [13u32, 33, 55] {
        let config = ScheduleConfig::default()
            .with_timing(TimingModel::new(CodeParams::with_distance(d).unwrap()));
        let compiler = AutoBraid::new(config);
        times.push(
            compiler
                .schedule(Strategy::Stack, &circuit)
                .result
                .time_us(),
        );
    }
    assert!(times[0] < times[1] && times[1] < times[2], "{times:?}");
}

#[test]
fn report_stats_match_a_fresh_circuit_stats_on_every_family() {
    use autobraid::pipeline::Pipeline;
    use autobraid::{StreamingOptions, StreamingPipeline};
    use autobraid_circuit::CircuitStats;

    for circuit in workloads() {
        let name = circuit.name().to_string();
        // The plain pipeline reuses its scheduling DAG for the stats; a
        // commutation-aware one must not, its DAG being relaxed.
        for commutation_aware in [false, true] {
            let report = Pipeline::new()
                .with_config(ScheduleConfig::default().with_commutation_aware(commutation_aware))
                .compile(&circuit)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(
                report.stats,
                CircuitStats::of(&report.circuit),
                "{name}: commutation_aware={commutation_aware}"
            );
        }
        // A stream reuses its frontier's DAG.
        let mut stream = StreamingPipeline::open(circuit.num_qubits(), StreamingOptions::default());
        for (_, gate) in circuit.iter() {
            stream.push_gate(*gate).expect("in-range gate");
        }
        let streamed = stream.finish().unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(streamed.stats.gates, circuit.len(), "{name}");
        assert_eq!(
            streamed.stats,
            CircuitStats::of(&streamed.circuit),
            "{name}"
        );
    }
}
