//! Lower a scheduled circuit all the way to the physical lattice: render
//! the tile grid, inspect the paths held in its busiest slot, and emit the
//! per-cycle measurement-qubit control stream a hardware micro-controller
//! would execute.
//!
//! Run with `cargo run --release --example hardware_lowering`.

use autobraid::config::ScheduleConfig;
use autobraid::emit::emit_physical;
use autobraid::render::{render_placement, render_slot};
use autobraid::{AutoBraid, Strategy};
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

    // Show the slot holding the most braiding paths.
    let steps = &outcome.result.steps;
    let held = |slot: u64| {
        let running = |i: &&autobraid::Interval| i.start_slot <= slot && slot < i.finish_slot();
        steps
            .iter()
            .filter(running)
            .filter_map(|i| i.path())
            .count()
    };
    let busiest = steps
        .iter()
        .map(|i| i.start_slot)
        .max_by_key(|&slot| held(slot))
        .expect("schedule has intervals");
    println!(
        "busiest slot {busiest} ({} concurrent paths):",
        held(busiest)
    );
    println!(
        "{}",
        render_slot(&outcome.grid, &outcome.initial_placement, steps, busiest)
    );

    // Lower the whole schedule to lattice control instructions.
    let layout = PhysicalLayout::new(outcome.grid.cells_per_side(), distance).unwrap();
    println!(
        "physical lattice: {0}×{0} = {1} physical qubits (d = {2})",
        layout.physical_side(),
        layout.physical_qubit_count(),
        distance
    );
    let program = emit_physical(&outcome.result, &layout).expect("full recording");
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
