//! Regenerates **Figure 18**: p-sensitivity — execution time of the
//! engine with the layout optimizer triggered at threshold `p`, swept
//! from 0% to 90% in 10% steps and normalized to `p = 0` (optimizer off).
//!
//! The paper runs QFT-1000 and QAOA-1000; the default here uses smaller
//! instances so the sweep completes quickly — pass `--full` for the
//! paper sizes.
//!
//! Run with `cargo run --release -p autobraid-bench --bin fig18`.

use autobraid::report::Table;
use autobraid::scheduler::{run, EngineRun, LayoutMove, StackPolicy};
use autobraid::AutoBraid;
use autobraid_bench::{eval_config, full_run_requested};
use autobraid_circuit::generators;
use autobraid_lattice::Grid;

fn main() {
    autobraid_bench::enforce_flags(&["--full", "--trace"]);
    let _trace = autobraid_bench::trace_sink();
    let full = full_run_requested();
    let instances: Vec<(&str, u32)> = if full {
        vec![("qft", 1000), ("qaoa", 1000)]
    } else {
        vec![("qft", 100), ("qaoa", 100)]
    };

    for (kind, n) in instances {
        let circuit = generators::by_name(kind, n).expect("generator sizes valid");
        let config = eval_config();
        let compiler = AutoBraid::new(config.clone());
        let grid = Grid::with_capacity_for(circuit.num_qubits() as usize);
        let placement = compiler.initial_placement(&circuit, &grid);

        let mut table = Table::new(["p (%)", "cycles", "normalized", "swap layers"]);
        let mut p0_cycles = None;
        for step in 0..=9u32 {
            let p = f64::from(step) / 10.0;
            let cfg = config.clone().with_layout_threshold(p);
            let drive = EngineRun::new(
                "p-sweep",
                &circuit,
                &grid,
                placement.clone(),
                &StackPolicy,
                &cfg,
            );
            // At p = 0 swap insertion never fires.
            let (result, _) = run(drive.layout(LayoutMove::SwapInsertion))
                .ok()
                .flatten()
                .expect("an unbounded drive on a defect-free lattice completes");
            let base = *p0_cycles.get_or_insert(result.total_cycles);
            table.add_row([
                format!("{}", step * 10),
                result.total_cycles.to_string(),
                format!("{:.3}", result.total_cycles as f64 / base as f64),
                result.swap_layers.to_string(),
            ]);
            eprintln!("done: {kind}-{n} p={}", step * 10);
        }
        println!("\nFigure 18 ({kind}-{n}): p-sensitivity (normalized to p = 0)\n");
        println!("{}", table.render());
    }
}
