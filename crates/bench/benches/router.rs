//! Micro-benchmarks for the routing layer: A* search and the
//! stack-based vs greedy batch routers.

use autobraid_lattice::{Cell, Grid, Occupancy};
use autobraid_router::astar::find_path;
use autobraid_router::path::CxRequest;
use autobraid_router::stack_finder::{route_concurrent, route_greedy};
use autobraid_telemetry::bench::BenchGroup;
use autobraid_telemetry::Rng64;

fn random_batch(grid_side: u32, pairs: usize, seed: u64) -> Vec<CxRequest> {
    let mut rng = Rng64::seed_from_u64(seed);
    let mut cells: Vec<Cell> = (0..grid_side)
        .flat_map(|r| (0..grid_side).map(move |c| Cell::new(r, c)))
        .collect();
    rng.shuffle(&mut cells);
    cells
        .chunks(2)
        .take(pairs)
        .enumerate()
        .map(|(i, pair)| CxRequest::new(i, pair[0], pair[1]))
        .collect()
}

fn bench_astar() {
    let mut group = BenchGroup::new("astar");
    for side in [10u32, 30, 70] {
        let grid = Grid::new(side).unwrap();
        let mut occ = Occupancy::new(&grid);
        // 20% random obstacles.
        let mut rng = Rng64::seed_from_u64(7);
        for v in grid.vertices().collect::<Vec<_>>() {
            if rng.gen_bool(0.2) {
                occ.reserve(&grid, v);
            }
        }
        group.bench(&format!("corner_to_corner/{side}"), || {
            find_path(
                &grid,
                &occ,
                Cell::new(0, 0),
                Cell::new(side - 1, side - 1),
                None,
            )
        });
    }
    group.finish();
}

fn bench_batch_routers() {
    let mut group = BenchGroup::new("batch_route");
    for (side, pairs) in [(10u32, 20usize), (22, 100), (32, 300)] {
        let grid = Grid::new(side).unwrap();
        let batch = random_batch(side, pairs, 42);
        group.bench(&format!("stack/{side}x{side}_{pairs}"), || {
            let mut occ = Occupancy::new(&grid);
            route_concurrent(&grid, &mut occ, &batch)
        });
        group.bench(&format!("greedy/{side}x{side}_{pairs}"), || {
            let mut occ = Occupancy::new(&grid);
            route_greedy(&grid, &mut occ, &batch)
        });
    }
    group.finish();
}

fn main() {
    bench_astar();
    bench_batch_routers();
}
