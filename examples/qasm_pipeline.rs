//! Compile an externally supplied OpenQASM 2.0 program end to end:
//! parse → analyze communication parallelism → place → schedule → report.
//!
//! Run with `cargo run --release --example qasm_pipeline`.

use autobraid::config::ScheduleConfig;
use autobraid::metrics::verify_schedule;
use autobraid::{AutoBraid, Strategy};
use autobraid_circuit::{qasm, CircuitStats, ParallelismProfile};

const PROGRAM: &str = r#"
OPENQASM 2.0;
include "qelib1.inc";
qreg q[8];
creg c[8];
// Prepare two GHZ halves.
h q[0];
cx q[0], q[1];
cx q[1], q[2];
cx q[2], q[3];
h q[4];
cx q[4], q[5];
cx q[5], q[6];
cx q[6], q[7];
// Entangle the halves with a Toffoli and some phases.
ccx q[3], q[4], q[0];
cp(pi/4) q[0], q[7];
rz(pi/2) q[3];
swap q[2], q[5];
measure q[0] -> c[0];
measure q[7] -> c[7];
"#;

fn main() {
    let circuit = qasm::parse(PROGRAM).expect("program parses");
    println!("parsed: {}", CircuitStats::of(&circuit));

    let profile = ParallelismProfile::analyze(&circuit);
    println!(
        "communication parallelism: {} dependence layers, ≤{} concurrent CX, mean {:.2}",
        profile.layer_count(),
        profile.max_concurrent_cx(),
        profile.mean_concurrent_cx()
    );

    let compiler = AutoBraid::new(ScheduleConfig::default());
    let outcome = compiler.schedule(Strategy::Full, &circuit);
    verify_schedule(
        &circuit,
        &outcome.grid,
        &outcome.initial_placement,
        &outcome.result,
    )
    .expect("schedule verifies");
    println!(
        "\nscheduled on a {0}×{0} tile grid: {1} braid steps, {2} cycles = {3:.1} µs",
        outcome.grid.cells_per_side(),
        outcome.result.braid_steps,
        outcome.result.total_cycles,
        outcome.result.time_us()
    );

    // The circuit can be re-emitted for other tools.
    let emitted = qasm::emit(&circuit);
    println!(
        "\nround-tripped OpenQASM ({} lines):",
        emitted.lines().count()
    );
    for line in emitted.lines().take(6) {
        println!("  {line}");
    }
    println!("  ...");
    assert_eq!(
        qasm::parse(&emitted).expect("emitted program parses"),
        circuit
    );
}
