//! Domain example: schedule a trotterized Ising-model evolution and size
//! the surface code for a target logical error rate.
//!
//! Shows the two placement fine-tuners in action: the Ising coupling graph
//! is a path (maximal degree 2), so AutoBraid lays the chain along a
//! serpentine and schedules at exactly the critical path — the Table 2 /
//! Fig. 16 result where the autobraid-full and CP curves overlap.
//!
//! Run with `cargo run --release --example ising_evolution`.

use autobraid::config::{Recording, ScheduleConfig};
use autobraid::critical_path::critical_path_cycles;
use autobraid::{AutoBraid, Strategy};
use autobraid_circuit::generators::ising::ising;
use autobraid_lattice::{CodeParams, TimingModel};
use autobraid_placement::CouplingGraph;

fn main() {
    let n = 144;
    let circuit = ising(n, 3).expect("valid size");
    let coupling = CouplingGraph::of(&circuit);
    println!(
        "Ising-{n}: {} gates, coupling max degree {} (linear chain: {})",
        circuit.len(),
        coupling.max_degree(),
        coupling.is_linear()
    );

    // Size the code: suppose the whole computation must fail with
    // probability < 1e-6 across every gate on every qubit.
    let opportunities = circuit.len() as f64 * f64::from(n);
    let target_pl = 1e-6 / opportunities;
    let params = CodeParams::for_target_error(target_pl).expect("achievable target");
    println!(
        "target P_L = {target_pl:.2e} → code distance d = {} (P_L = {:.2e})",
        params.distance(),
        params.logical_error_rate()
    );
    println!(
        "physical qubits: {} tiles × {} = {}",
        n,
        params.physical_qubits_per_tile(),
        params.physical_qubits(n as usize)
    );

    let config = ScheduleConfig::default()
        .with_timing(TimingModel::new(params))
        .with_recording(Recording::StatsOnly);
    let compiler = AutoBraid::new(config.clone());
    let full = compiler.schedule(Strategy::Full, &circuit).result;
    let baseline = compiler.schedule(Strategy::Baseline, &circuit).result;
    let cp = critical_path_cycles(&circuit, &config.timing);

    println!(
        "\nbaseline: {} cycles ({:.2} ms)",
        baseline.total_cycles,
        baseline.time_us() / 1e3
    );
    println!(
        "autobraid-full: {} cycles ({:.2} ms) — critical path is {} cycles",
        full.total_cycles,
        full.time_us() / 1e3,
        cp
    );
    assert_eq!(full.total_cycles, cp, "linear layouts schedule Ising at CP");
    println!("autobraid-full reached the critical path exactly ✓");
}
