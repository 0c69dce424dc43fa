//! Instruction-bandwidth analysis (substrate extension): lower complete
//! schedules to their physical control streams and measure the
//! micro-controller pressure — total instructions, peak and mean per
//! cycle, and instructions per logical gate. This quantifies, on our own
//! stack, the QEC instruction-bandwidth problem the paper cites (Tannu et
//! al., MICRO'17) as the motivation for hardware-managed error
//! correction.
//!
//! Run with `cargo run --release -p autobraid-bench --bin bandwidth`.

use autobraid::config::ScheduleConfig;
use autobraid::emit::emit_physical;
use autobraid::report::Table;
use autobraid::{AutoBraid, Strategy};
use autobraid_bench::full_run_requested;
use autobraid_circuit::generators;
use autobraid_lattice::physical::PhysicalLayout;
use autobraid_lattice::{CodeParams, TimingModel};

fn main() {
    autobraid_bench::enforce_flags(&["--full", "--trace"]);
    let _trace = autobraid_bench::trace_sink();
    let full = full_run_requested();
    // Physical lowering materializes per-ancilla instructions, so use a
    // moderate distance; --full uses the paper's d = 33.
    let distance = if full { 33 } else { 9 };
    let workloads: Vec<(&str, u32)> = if full {
        vec![
            ("qft", 50),
            ("qft", 100),
            ("im", 100),
            ("qaoa", 100),
            ("bv", 100),
        ]
    } else {
        vec![("qft", 25), ("im", 36), ("qaoa", 36), ("bv", 36)]
    };

    let config = ScheduleConfig::default().with_timing(TimingModel::new(
        CodeParams::with_distance(distance).unwrap(),
    ));
    let compiler = AutoBraid::new(config);

    let mut table = Table::new([
        "benchmark",
        "physical qubits",
        "instructions",
        "instr/gate",
        "peak instr/cycle",
        "mean instr/active cycle",
    ]);
    for (kind, n) in workloads {
        let circuit = generators::by_name(kind, n).expect("valid benchmark");
        let outcome = compiler.schedule(Strategy::Full, &circuit);
        let layout =
            PhysicalLayout::new(outcome.grid.cells_per_side(), distance).expect("valid layout");
        let program = emit_physical(&outcome.result, &layout).expect("full recording");
        table.add_row([
            format!("{kind}-{n}"),
            layout.physical_qubit_count().to_string(),
            program.instruction_count().to_string(),
            format!(
                "{:.1}",
                program.instruction_count() as f64 / circuit.len() as f64
            ),
            program.peak_instructions_per_cycle().to_string(),
            format!("{:.1}", program.mean_instructions_per_active_cycle()),
        ]);
        eprintln!("done: {kind}-{n}");
    }
    println!("\nLattice-controller instruction bandwidth (d = {distance})\n");
    println!("{}", table.render());
    println!(
        "Peak bursts scale with concurrent braids × path length × d — the \n\
         footprint that hardware-managed QEC controllers compress."
    );
}
