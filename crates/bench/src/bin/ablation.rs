//! Ablation study over AutoBraid's design choices (DESIGN.md §6):
//! routing-order policy, initial placement, the dynamic layout optimizer,
//! the Maslov specialization, and the commutation-aware DAG extension.
//!
//! Run with `cargo run --release -p autobraid-bench --bin ablation`
//! (`--telemetry <path>` writes the `autobraid.telemetry/v1` JSON
//! snapshot of the whole run).

use autobraid::report::Table;
use autobraid::scheduler::{
    run, Clock, EngineRun, GreedyPolicy, LayoutMove, RoutePolicy, StackPolicy,
};
use autobraid::{AutoBraid, Strategy};
use autobraid_bench::eval_config;
use autobraid_circuit::{generators, Circuit};
use autobraid_lattice::Grid;
use autobraid_lattice::Occupancy;
use autobraid_placement::{initial::partition_placement, Placement};
use autobraid_router::stack_finder::{route_stack_flat, RouteOutcome};
use autobraid_router::CxRequest;

/// Fig. 13 verbatim: peeling + LIFO, no LLG-local stage, no greedy
/// fallback.
struct FlatStackPolicy;

impl RoutePolicy for FlatStackPolicy {
    fn name(&self) -> &'static str {
        "flat-stack"
    }

    fn route(
        &self,
        grid: &Grid,
        occupancy: &mut Occupancy,
        requests: &[CxRequest],
    ) -> RouteOutcome {
        route_stack_flat(grid, occupancy, requests)
    }
}

/// Runs `drive` and adds its row, labelled with the drive's name.
fn engine_row(drive: EngineRun<'_>, table: &mut Table) {
    let (r, _) = run(drive)
        .ok()
        .flatten()
        .expect("an unbounded drive on a defect-free lattice completes");
    table.add_row([
        r.scheduler.clone(),
        r.braid_steps.to_string(),
        r.swap_layers.to_string(),
        r.total_cycles.to_string(),
        format!("{:.0}", 100.0 * r.peak_utilization),
    ]);
}

fn main() {
    autobraid_bench::enforce_flags(&["--telemetry", "--trace"]);
    let _telemetry = autobraid_bench::telemetry_sink();
    let _trace = autobraid_bench::trace_sink();
    let config = eval_config();
    let workloads: Vec<Circuit> = vec![
        generators::by_name("qft", 100).unwrap(),
        generators::by_name("qaoa", 100).unwrap(),
        generators::by_name("im", 100).unwrap(),
        generators::by_name("urf2_277", 0).unwrap(),
    ];

    for circuit in &workloads {
        let grid = Grid::with_capacity_for(circuit.num_qubits() as usize);
        let compiler = AutoBraid::new(config.clone());
        let row_major = Placement::row_major(&grid, circuit.num_qubits());
        let partitioned = partition_placement(circuit, &grid);
        let optimized = compiler.initial_placement(circuit, &grid);

        let mut table = Table::new([
            "configuration",
            "braid steps",
            "swap layers",
            "cycles",
            "peak util %",
        ]);

        let drive = |name, placement, policy: &'static dyn RoutePolicy| {
            EngineRun::new(name, circuit, &grid, placement, policy, &config)
        };
        let rows = [
            // Routing-order policy (same optimized placement, no dynamic layout).
            drive("stack finder", optimized.clone(), &StackPolicy),
            drive(
                "flat stack (no LLG-local)",
                optimized.clone(),
                &FlatStackPolicy,
            ),
            drive("greedy order", optimized.clone(), &GreedyPolicy),
            // Initial placement ladder (stack finder).
            drive("row-major placement", row_major, &StackPolicy),
            drive("partition placement", partitioned, &StackPolicy),
            drive("partition + LLG tuning", optimized.clone(), &StackPolicy),
            // Dynamic layout optimizer.
            drive(
                "with layout optimizer (p=0.5)",
                optimized.clone(),
                &StackPolicy,
            )
            .layout(LayoutMove::SwapInsertion),
        ];
        for row in rows {
            engine_row(row, &mut table);
        }

        // Maslov swap network.
        let maslov = compiler.schedule(Strategy::Maslov, circuit).result;
        table.add_row([
            "maslov swap network".to_string(),
            maslov.braid_steps.to_string(),
            maslov.swap_layers.to_string(),
            maslov.total_cycles.to_string(),
            format!("{:.0}", 100.0 * maslov.peak_utilization),
        ]);

        // Event-driven engine extension.
        let per_qubit = drive("autobraid-async", optimized.clone(), &StackPolicy);
        let (asynchronous, _) = run(per_qubit.clock(Clock::PerQubit))
            .ok()
            .flatten()
            .expect("an unbounded drive on a defect-free lattice completes");
        table.add_row([
            "event-driven engine".to_string(),
            "-".to_string(), // interval-scheduled: no global steps
            "-".to_string(),
            asynchronous.total_cycles.to_string(),
            format!("{:.0}", 100.0 * asynchronous.peak_utilization),
        ]);

        // Commutation-aware DAG extension.
        let relaxed_cfg = config.clone().with_commutation_aware(true);
        engine_row(
            EngineRun::new(
                "commutation-aware DAG",
                circuit,
                &grid,
                optimized,
                &StackPolicy,
                &relaxed_cfg,
            ),
            &mut table,
        );

        println!("\nAblation — {}\n", circuit.name());
        println!("{}", table.render());
        eprintln!("done: {}", circuit.name());
    }
}
