//! Regenerates **Table 1**: impact of the LLG-aware initial layout.
//!
//! For each benchmark, reports the number of oversized LLGs (size > 3)
//! and the execution time before and after the LLG placement
//! optimization (simulated annealing / linear layout on top of the
//! partition placement), plus the resulting speedup.
//!
//! Run with `cargo run --release -p autobraid-bench --bin table1`
//! (`--full` includes the slow Shor instance; `--telemetry <path>`
//! additionally writes the `autobraid.telemetry/v1` JSON snapshot of the
//! whole run, see `docs/METRICS.md`).

use autobraid::config::ScheduleConfig;
use autobraid::report::{format_us, Table};
use autobraid::scheduler::{run, EngineRun, StackPolicy};
use autobraid::AutoBraid;
use autobraid_bench::{eval_config, full_run_requested, TABLE1};
use autobraid_lattice::Grid;
use autobraid_placement::annealing::count_oversized_llgs;
use autobraid_placement::initial::partition_placement;

fn main() {
    autobraid_bench::enforce_flags(&["--full", "--telemetry", "--trace"]);
    let _telemetry = autobraid_bench::telemetry_sink();
    let _trace = autobraid_bench::trace_sink();
    let full = full_run_requested();
    let config = eval_config();
    let mut table = Table::new([
        "Benchmark",
        "#LLG>3 (after)",
        "time (after)",
        "#LLG>3 (before)",
        "time (before)",
        "Speedup",
    ]);

    for entry in TABLE1 {
        if !full && entry.label == "Shors" {
            println!("(skipping {} — pass --full to include it)", entry.label);
            continue;
        }
        let circuit = entry.build().expect("registry entries build");
        let grid = Grid::with_capacity_for(circuit.num_qubits() as usize);

        // Before: plain partition placement ("Before LLG").
        let before_placement = partition_placement(&circuit, &grid);
        let before_llgs = count_oversized_llgs(&circuit, &before_placement);
        let unannealed = ScheduleConfig {
            annealing: None,
            ..config.clone()
        };
        let drive = EngineRun::new(
            "autobraid-sp",
            &circuit,
            &grid,
            before_placement,
            &StackPolicy,
            &unannealed,
        );
        let (before, _) = run(drive)
            .ok()
            .flatten()
            .expect("an unbounded drive on a defect-free lattice completes");

        // After: the LLG-optimized placement (linear layout or annealing).
        let compiler = AutoBraid::new(config.clone());
        let after_placement = compiler.initial_placement(&circuit, &grid);
        let after_llgs = count_oversized_llgs(&circuit, &after_placement);
        let drive = EngineRun::new(
            "autobraid-sp",
            &circuit,
            &grid,
            after_placement,
            &StackPolicy,
            &config,
        );
        let (after, _) = run(drive)
            .ok()
            .flatten()
            .expect("an unbounded drive on a defect-free lattice completes");

        table.add_row([
            entry.label.to_string(),
            after_llgs.to_string(),
            format_us(after.time_us()),
            before_llgs.to_string(),
            format_us(before.time_us()),
            format!("{:.2}", after.speedup_over(&before)),
        ]);
    }

    println!("\nTable 1: Impact of LLGs' sizes (initial-layout optimization)\n");
    println!("{}", table.render());
}
