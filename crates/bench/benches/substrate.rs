//! Micro-benchmarks for the substrate extensions: the syndrome
//! decoder, physical lowering, the state-vector simulator, and the
//! peephole optimizer.

use autobraid_circuit::generators::random::random_circuit;
use autobraid_circuit::sim::StateVector;
use autobraid_circuit::transform::optimize;
use autobraid_lattice::decoder::Patch;
use autobraid_lattice::physical::PhysicalLayout;
use autobraid_lattice::{Cell, Grid, Occupancy};
use autobraid_router::astar::find_path;
use autobraid_router::lowering::lower_braid;
use autobraid_telemetry::bench::BenchGroup;
use autobraid_telemetry::Rng64;

fn bench_decoder() {
    let mut group = BenchGroup::new("decoder");
    for d in [5u32, 9, 13] {
        let patch = Patch::new(d).unwrap();
        let n_links = patch.links().len();
        let mut rng = Rng64::seed_from_u64(9);
        let samples: Vec<f64> = (0..n_links).map(|_| rng.gen_f64()).collect();
        group.bench(&format!("round_p3pct/{d}"), || {
            patch.sample_round(0.03, &samples)
        });
    }
    group.finish();
}

fn bench_lowering() {
    let mut group = BenchGroup::new("lowering");
    let grid = Grid::new(10).unwrap();
    let occ = Occupancy::new(&grid);
    let path = find_path(&grid, &occ, Cell::new(0, 0), Cell::new(9, 9), None).unwrap();
    for d in [9u32, 21, 33] {
        let layout = PhysicalLayout::new(10, d).unwrap();
        group.bench(&format!("corner_braid/{d}"), || lower_braid(&layout, &path));
    }
    group.finish();
}

fn bench_sim_and_transform() {
    let mut group = BenchGroup::new("circuit_tools");
    let sim_target = random_circuit(14, 400, 0.5, 3).unwrap();
    group.bench("simulate_14q_400g", || StateVector::run(&sim_target));
    let opt_target = random_circuit(12, 5000, 0.5, 4).unwrap();
    group.bench("optimize_5000g", || optimize(&opt_target, 1e-12));
    group.finish();
}

fn main() {
    bench_decoder();
    bench_lowering();
    bench_sim_and_transform();
}
