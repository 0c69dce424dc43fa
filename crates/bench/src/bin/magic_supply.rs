//! Pricing the free-magic-state assumption (substrate extension).
//!
//! The paper assumes a steady magic-state supply at the data (§4.1), so T
//! gates are local. Here every T gate instead braids to a factory tile,
//! and the factory count sweeps from scarce to abundant — showing how
//! much schedule time the assumption hides and how quickly extra
//! factories buy it back.
//!
//! Run with `cargo run --release -p autobraid-bench --bin magic_supply`.

use autobraid::config::ScheduleConfig;
use autobraid::magic::{place_with_factories, rewrite_with_factories};
use autobraid::report::Table;
use autobraid::scheduler::{run, EngineRun, StackPolicy};
use autobraid::{AutoBraid, Strategy};
use autobraid_bench::eval_config;
use autobraid_circuit::Circuit;
use autobraid_lattice::Grid;

/// A T-rich workload: alternating T layers and entangling ladders (the
/// shape of Clifford+T compiled arithmetic).
fn t_workload(n: u32, layers: usize) -> Circuit {
    let mut c = Circuit::named(n, format!("tladder{n}"));
    for _ in 0..layers {
        for q in 0..n {
            c.t(q);
        }
        for q in 0..n - 1 {
            c.cx(q, q + 1);
        }
    }
    c
}

fn main() {
    autobraid_bench::enforce_flags(&["--trace"]);
    let _trace = autobraid_bench::trace_sink();
    let config: ScheduleConfig = eval_config();
    let compiler = AutoBraid::new(config.clone());
    let n = 36;
    let circuit = t_workload(n, 6);
    let t_gates = circuit.len() - (n as usize - 1) * 6;

    // The paper's assumption: magic states are free (T gates local).
    let free = compiler.schedule(Strategy::Stack, &circuit).result;
    println!(
        "\nworkload: {} qubits, {} gates ({} T gates)\n",
        n,
        circuit.len(),
        t_gates
    );
    println!(
        "free supply (paper assumption): {} cycles\n",
        free.total_cycles
    );

    let data_grid = Grid::with_capacity_for(n as usize);
    let data_placement = compiler.initial_placement(&circuit, &data_grid);

    let mut table = Table::new([
        "factories",
        "cycles",
        "vs free supply",
        "T gates per factory",
    ]);
    for factories in [1u32, 2, 4, 8, 16, 32] {
        let rewrite = rewrite_with_factories(&circuit, factories);
        let (grid, placement) = place_with_factories(&rewrite, &data_placement);
        let drive = EngineRun::new(
            "magic",
            &rewrite.circuit,
            &grid,
            placement,
            &StackPolicy,
            &config,
        );
        let (result, _) = run(drive)
            .ok()
            .flatten()
            .expect("an unbounded drive on a defect-free lattice completes");
        table.add_row([
            factories.to_string(),
            result.total_cycles.to_string(),
            format!(
                "{:.2}x",
                result.total_cycles as f64 / free.total_cycles as f64
            ),
            format!("{:.0}", t_gates as f64 / f64::from(factories)),
        ]);
        eprintln!("done: {factories} factories");
    }
    println!("Explicit magic-state delivery vs factory count\n");
    println!("{}", table.render());
    println!(
        "Scarce factories serialize the T layers; abundance converges toward \n\
         (but never reaches) the free-supply assumption, since delivery \n\
         braids still occupy channels."
    );
}
