//! Extending the framework: plug a custom routing-order policy into the
//! scheduling engine and race it against the built-in stack-based finder.
//!
//! The engine's one entry point ([`autobraid::scheduler::run`]) drives
//! an [`autobraid::scheduler::EngineRun`] with any
//! [`autobraid::scheduler::RoutePolicy`]; this example implements a
//! largest-first policy (route the longest gates first — the opposite of
//! the greedy baseline) and compares all three orderings on a congested
//! random workload.
//!
//! Run with `cargo run --release --example custom_policy`.

use autobraid::config::{Recording, ScheduleConfig};
use autobraid::report::Table;
use autobraid::scheduler::{run, EngineRun, GreedyPolicy, RoutePolicy, StackPolicy};
use autobraid_circuit::generators::random::random_circuit;
use autobraid_lattice::{Grid, Occupancy};
use autobraid_placement::Placement;
use autobraid_router::astar::find_path;
use autobraid_router::stack_finder::{RouteOutcome, RoutedGate};
use autobraid_router::CxRequest;

/// Routes the farthest-apart gates first. Long braids fragment the grid,
/// so going largest-first sounds clever — the comparison shows why the
/// paper's interference-driven stack order wins instead.
struct LargestFirstPolicy;

impl RoutePolicy for LargestFirstPolicy {
    fn name(&self) -> &'static str {
        "largest-first"
    }

    fn route(
        &self,
        grid: &Grid,
        occupancy: &mut Occupancy,
        requests: &[CxRequest],
    ) -> RouteOutcome {
        let mut order: Vec<usize> = (0..requests.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(requests[i].a.corner_distance(requests[i].b)));
        let mut outcome = RouteOutcome::default();
        for i in order {
            let r = requests[i];
            match find_path(grid, occupancy, r.a, r.b, None) {
                Some(path) => {
                    occupancy.try_reserve(grid, path.vertices().iter().copied());
                    outcome.routed.push(RoutedGate { request: r, path });
                }
                None => outcome.failed.push(r.id),
            }
        }
        outcome
    }
}

fn main() {
    let circuit = random_circuit(64, 4000, 0.7, 7).expect("valid parameters");
    let grid = Grid::with_capacity_for(64);
    let config = ScheduleConfig::default().with_recording(Recording::StatsOnly);
    let placement = Placement::row_major(&grid, 64);

    let policies: [&dyn RoutePolicy; 3] = [&StackPolicy, &GreedyPolicy, &LargestFirstPolicy];
    let mut table = Table::new(["policy", "braid steps", "cycles", "peak util %"]);
    for policy in policies {
        let drive = EngineRun::new(
            policy.name(),
            &circuit,
            &grid,
            placement.clone(),
            policy,
            &config,
        );
        let (result, _) = run(drive)
            .ok()
            .flatten()
            .expect("an unbounded drive on a defect-free lattice completes");
        table.add_row([
            policy.name().to_string(),
            result.braid_steps.to_string(),
            result.total_cycles.to_string(),
            format!("{:.0}", 100.0 * result.peak_utilization),
        ]);
    }
    println!("\nrouting-order policies on a congested 64-qubit random circuit\n");
    println!("{}", table.render());
}
