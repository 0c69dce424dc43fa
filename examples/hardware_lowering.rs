//! Lower a scheduled circuit all the way to the physical lattice: render
//! the tile grid, inspect one braiding step's paths, and emit the
//! per-cycle measurement-qubit control stream a hardware micro-controller
//! would execute.
//!
//! Run with `cargo run --release --example hardware_lowering`.

use autobraid::config::ScheduleConfig;
use autobraid::emit::emit_physical;
use autobraid::render::{render_placement, render_step};
use autobraid::{AutoBraid, Step, Strategy};
use autobraid_circuit::generators::qft::qft;
use autobraid_lattice::physical::PhysicalLayout;
use autobraid_lattice::{CodeParams, TimingModel};

fn main() {
    let distance = 5; // small d keeps the physical lattice printable
    let circuit = qft(9).expect("valid size");
    let config = ScheduleConfig::default().with_timing(TimingModel::new(
        CodeParams::with_distance(distance).unwrap(),
    ));
    let compiler = AutoBraid::new(config);
    let outcome = compiler.schedule(Strategy::Full, &circuit);

    println!(
        "placement on the {0}×{0} tile grid:",
        outcome.grid.cells_per_side()
    );
    println!(
        "{}",
        render_placement(&outcome.grid, &outcome.initial_placement)
    );

    // Show the busiest braiding step.
    let busiest = outcome
        .result
        .steps
        .iter()
        .max_by_key(|s| match s {
            Step::Braid { braids, .. } => braids.len(),
            _ => 0,
        })
        .expect("schedule has steps");
    if let Step::Braid { braids, .. } = busiest {
        println!(
            "busiest braiding step ({} concurrent braids):",
            braids.len()
        );
        println!(
            "{}",
            render_step(&outcome.grid, &outcome.initial_placement, busiest)
        );
    }

    // Lower the whole schedule to lattice control instructions.
    let layout = PhysicalLayout::new(outcome.grid.cells_per_side(), distance).unwrap();
    println!(
        "physical lattice: {0}×{0} = {1} physical qubits (d = {2})",
        layout.physical_side(),
        layout.physical_qubit_count(),
        distance
    );
    let program = emit_physical(&circuit, &outcome.result, &layout).expect("full recording");
    println!(
        "control stream: {} instructions over {} cycles",
        program.instruction_count(),
        program.duration_cycles()
    );
    println!(
        "controller bandwidth: peak {} instructions/cycle, mean {:.1} per active cycle",
        program.peak_instructions_per_cycle(),
        program.mean_instructions_per_active_cycle()
    );
    println!("first instructions:");
    for ins in program.instructions().iter().take(5) {
        println!("  cycle {:>3}: {:?}", ins.cycle, ins.op);
    }
}
