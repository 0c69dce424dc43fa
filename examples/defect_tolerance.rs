//! Schedule around hardware defects: mark channel vertices as permanently
//! broken and compare the schedule against the pristine lattice.
//!
//! Run with `cargo run --release --example defect_tolerance`.

use autobraid::config::ScheduleConfig;
use autobraid::scheduler::{run, EngineRun, LayoutMove, ScheduleError, StackPolicy};
use autobraid::AutoBraid;
use autobraid_circuit::generators::qaoa::qaoa;
use autobraid_lattice::{Grid, Occupancy, Vertex};

fn main() {
    let circuit = qaoa(36, 4, 3, 7).expect("valid parameters");
    let grid = Grid::with_capacity_for(36);
    let config = ScheduleConfig::default();
    let compiler = AutoBraid::new(config.clone());
    let placement = compiler.initial_placement(&circuit, &grid);

    // One unbounded drive with swap insertion from the same placement,
    // on a lattice whose defective channel vertices are reserved in `base`.
    let drive = |name: &str, base: &Occupancy| {
        let drive = EngineRun::new(
            name,
            &circuit,
            &grid,
            placement.clone(),
            &StackPolicy,
            &config,
        );
        run(drive.base(base).layout(LayoutMove::SwapInsertion))
            .map(|done| done.expect("an unbounded drive finishes"))
    };

    // Pristine lattice.
    let (clean, _) =
        drive("clean", &Occupancy::new(&grid)).expect("clean lattices always schedule");

    // Progressive damage: break more and more channel intersections.
    println!("defects | cycles | slowdown");
    println!("{:-<34}", "");
    println!("{:>7} | {:>6} | 1.00x", 0, clean.total_cycles);
    let damage: Vec<Vertex> = (1..6)
        .flat_map(|k| [Vertex::new(k, k), Vertex::new(k, 6 - k)])
        .collect();
    for count in [2usize, 4, 6, 8, 10] {
        let mut base = Occupancy::new(&grid);
        for &v in &damage[..count] {
            base.reserve(&grid, v);
        }
        match drive("damaged", &base) {
            Ok((result, _)) => println!(
                "{:>7} | {:>6} | {:.2}x",
                count,
                result.total_cycles,
                result.total_cycles as f64 / clean.total_cycles as f64
            ),
            Err(ScheduleError::UnroutableGate { gate }) => {
                println!("{count:>7} | gate {gate} permanently unroutable — lattice severed");
                break;
            }
            Err(e) => {
                println!("{count:>7} | error: {e}");
                break;
            }
        }
    }
    println!(
        "\nBroken channels cost extra braiding steps but the scheduler keeps \n\
         routing around them until the damage actually disconnects a qubit."
    );
}
