//! Per-layer duel between the stack finder and the negotiated-congestion
//! PathFinder router, over the conformance generator families.
//!
//! Two views are reported per family:
//!
//! * **steps-to-drain** — braid steps of a full schedule under the
//!   `autobraid-sp` (stack), `pathfinder`, and `portfolio` strategies
//!   (fewer steps = denser packing of concurrent braids);
//! * **layer duel** — both finders route every committed braiding layer
//!   of a *single* schedule from identical occupancy state (the stack
//!   result is committed, so the trajectory is exactly the stack run's),
//!   and each layer is scored: PathFinder *wins* when it routes strictly
//!   more of the layer's gates, *ties* when it routes the same number.
//!
//! Run with `cargo run --release -p autobraid-bench --bin strategy_duel`
//! (`--markdown` emits the EXPERIMENTS.md table body).

use autobraid::config::ScheduleConfig;
use autobraid::report::Table;
use autobraid::scheduler::{run, EngineRun, PathFinderPolicy, RoutePolicy, StackPolicy};
use autobraid::{AutoBraid, Strategy};
use autobraid_bench::{duel_families, eval_config};
use autobraid_circuit::Circuit;
use autobraid_lattice::{Grid, Occupancy};
use autobraid_router::path::CxRequest;
use autobraid_router::stack_finder::RouteOutcome;
use std::cell::RefCell;

/// One layer's score: gates routed by each finder from the same state.
struct LayerScore {
    stack_routed: usize,
    pathfinder_routed: usize,
}

/// Routes every layer with both finders on identical occupancy clones,
/// commits the stack result (so the schedule trajectory is the plain
/// stack run's), and tallies the comparison.
struct DuelPolicy {
    stack: StackPolicy,
    pathfinder: PathFinderPolicy,
    scores: RefCell<Vec<LayerScore>>,
}

impl DuelPolicy {
    fn new() -> Self {
        DuelPolicy {
            stack: StackPolicy,
            pathfinder: PathFinderPolicy,
            scores: RefCell::new(Vec::new()),
        }
    }
}

impl RoutePolicy for DuelPolicy {
    fn name(&self) -> &'static str {
        "duel"
    }

    fn route(
        &self,
        grid: &Grid,
        occupancy: &mut Occupancy,
        requests: &[CxRequest],
    ) -> RouteOutcome {
        let mut pf_occupancy = occupancy.clone();
        let pf = self.pathfinder.route(grid, &mut pf_occupancy, requests);
        let stack = self.stack.route(grid, occupancy, requests);
        self.scores.borrow_mut().push(LayerScore {
            stack_routed: stack.routed.len(),
            pathfinder_routed: pf.routed.len(),
        });
        stack
    }
}

struct FamilyResult {
    family: &'static str,
    stack_steps: u64,
    pathfinder_steps: u64,
    portfolio_steps: u64,
    layers: usize,
    wins: usize,
    ties: usize,
}

fn duel_family(family: &'static str, circuit: &Circuit, config: &ScheduleConfig) -> FamilyResult {
    let compiler = AutoBraid::new(config.clone());
    let steps = |strategy| compiler.schedule(strategy, circuit).result.braid_steps;
    let stack_steps = steps(Strategy::Stack);
    let pathfinder_steps = steps(Strategy::PathFinder);
    let portfolio_steps = steps(Strategy::Portfolio);

    // The duel replays the stack trajectory with both finders attempting
    // every layer, over the same LLG-optimized placement the strategies
    // above used.
    let grid = Grid::with_capacity_for(circuit.num_qubits() as usize);
    let placement = compiler.initial_placement(circuit, &grid);
    let policy = DuelPolicy::new();
    let _ = run(EngineRun::new(
        "duel", circuit, &grid, placement, &policy, config,
    ));
    let scores = policy.scores.into_inner();
    let wins = scores
        .iter()
        .filter(|s| s.pathfinder_routed > s.stack_routed)
        .count();
    let ties = scores
        .iter()
        .filter(|s| s.pathfinder_routed == s.stack_routed)
        .count();
    FamilyResult {
        family,
        stack_steps,
        pathfinder_steps,
        portfolio_steps,
        layers: scores.len(),
        wins,
        ties,
    }
}

fn main() {
    autobraid_bench::enforce_flags(&["--markdown", "--telemetry", "--trace"]);
    let _telemetry = autobraid_bench::telemetry_sink();
    let _trace = autobraid_bench::trace_sink();
    let markdown = autobraid_bench::flag_requested("--markdown");
    let config = eval_config();

    let results: Vec<FamilyResult> = duel_families()
        .iter()
        .map(|(family, circuit)| duel_family(family, circuit, &config))
        .collect();

    if markdown {
        println!("| Family | Stack steps | PathFinder steps | Portfolio steps | Layers | PF wins | PF ties | win-or-tie % |");
        println!("|---|---|---|---|---|---|---|---|");
    } else {
        println!("Per-layer duel: both finders route every committed layer from");
        println!("identical state; the stack result is committed. steps = braid");
        println!("steps to drain the whole circuit under each strategy.\n");
    }
    let mut table = Table::new([
        "family",
        "stack",
        "pathfinder",
        "portfolio",
        "layers",
        "PF wins",
        "PF ties",
        "win-or-tie",
    ]);
    for r in &results {
        let pct = if r.layers == 0 {
            0.0
        } else {
            100.0 * (r.wins + r.ties) as f64 / r.layers as f64
        };
        if markdown {
            println!(
                "| {} | {} | {} | {} | {} | {} | {} | {pct:.0}% |",
                r.family,
                r.stack_steps,
                r.pathfinder_steps,
                r.portfolio_steps,
                r.layers,
                r.wins,
                r.ties
            );
        } else {
            table.add_row([
                r.family.to_string(),
                r.stack_steps.to_string(),
                r.pathfinder_steps.to_string(),
                r.portfolio_steps.to_string(),
                r.layers.to_string(),
                r.wins.to_string(),
                r.ties.to_string(),
                format!("{pct:.0}%"),
            ]);
        }
    }
    if !markdown {
        print!("{}", table.render());
    }
}
