//! Ablation study over AutoBraid's design choices (DESIGN.md §6):
//! routing-order policy, initial placement, the dynamic layout optimizer,
//! the Maslov specialization, and the commutation-aware DAG extension.
//!
//! Run with `cargo run --release -p autobraid-bench --bin ablation`
//! (`--telemetry <path>` writes the `autobraid.telemetry/v1` JSON
//! snapshot of the whole run).

use autobraid::async_engine::schedule_async;
use autobraid::config::ScheduleConfig;
use autobraid::report::Table;
use autobraid::scheduler::{run, GreedyPolicy, RoutePolicy, StackPolicy};
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

#[allow(clippy::too_many_arguments)]
fn engine_row(
    name: &str,
    circuit: &Circuit,
    grid: &Grid,
    placement: Placement,
    policy: &dyn RoutePolicy,
    layout: bool,
    config: &ScheduleConfig,
    table: &mut Table,
) {
    let (r, _) = run(name, circuit, grid, placement, policy, layout, config);
    table.add_row([
        name.to_string(),
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

        // Routing-order policy (same optimized placement, no dynamic layout).
        engine_row(
            "stack finder",
            circuit,
            &grid,
            optimized.clone(),
            &StackPolicy,
            false,
            &config,
            &mut table,
        );
        engine_row(
            "flat stack (no LLG-local)",
            circuit,
            &grid,
            optimized.clone(),
            &FlatStackPolicy,
            false,
            &config,
            &mut table,
        );
        engine_row(
            "greedy order",
            circuit,
            &grid,
            optimized.clone(),
            &GreedyPolicy,
            false,
            &config,
            &mut table,
        );

        // Initial placement ladder (stack finder).
        engine_row(
            "row-major placement",
            circuit,
            &grid,
            row_major,
            &StackPolicy,
            false,
            &config,
            &mut table,
        );
        engine_row(
            "partition placement",
            circuit,
            &grid,
            partitioned,
            &StackPolicy,
            false,
            &config,
            &mut table,
        );
        engine_row(
            "partition + LLG tuning",
            circuit,
            &grid,
            optimized.clone(),
            &StackPolicy,
            false,
            &config,
            &mut table,
        );

        // Dynamic layout optimizer.
        engine_row(
            "with layout optimizer (p=0.5)",
            circuit,
            &grid,
            optimized.clone(),
            &StackPolicy,
            true,
            &config,
            &mut table,
        );

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
        let asynchronous = schedule_async(circuit, &grid, optimized.clone(), &config).result;
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
            "commutation-aware DAG",
            circuit,
            &grid,
            optimized,
            &StackPolicy,
            false,
            &relaxed_cfg,
            &mut table,
        );

        println!("\nAblation — {}\n", circuit.name());
        println!("{}", table.render());
        eprintln!("done: {}", circuit.name());
    }
}
