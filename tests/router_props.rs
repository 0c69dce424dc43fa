//! Randomized tests for the A* router against a BFS reference, and for
//! occupancy bookkeeping. Deterministic seeded sweeps stand in for
//! property-based generation so the suite stays zero-dependency.

use autobraid_lattice::{Cell, Grid, Occupancy, Vertex};
use autobraid_router::astar::{find_path, find_path_bfs};
use autobraid_telemetry::Rng64;

fn random_cell(rng: &mut Rng64, l: u32) -> Cell {
    Cell::new(rng.gen_range(0..l), rng.gen_range(0..l))
}

/// A* returns a shortest path: its length always matches BFS, and both
/// agree on reachability, under random obstacles.
#[test]
fn astar_is_optimal_under_obstacles() {
    let mut rng = Rng64::seed_from_u64(0xA5A5_0001);
    for trial in 0..128 {
        let (a, b) = loop {
            let a = random_cell(&mut rng, 8);
            let b = random_cell(&mut rng, 8);
            if a != b {
                break (a, b);
            }
        };
        let grid = Grid::new(8).unwrap();
        let mut occ = Occupancy::new(&grid);
        for i in 0..81 {
            if rng.gen_bool(0.5) {
                occ.reserve(&grid, grid.vertex_at(i));
            }
        }
        let astar = find_path(&grid, &occ, a, b, None);
        let bfs = find_path_bfs(&grid, &occ, a, b, None);
        match (astar, bfs) {
            (Some(p), Some(q)) => {
                assert_eq!(p.len(), q.len(), "trial {trial}: length mismatch");
                // Both paths avoid all obstacles.
                for v in p.vertices() {
                    assert!(occ.is_free(&grid, *v), "trial {trial}: path hits obstacle");
                }
            }
            (None, None) => {}
            (p, q) => panic!(
                "trial {trial}: reachability disagreement: astar={:?} bfs={:?}",
                p.map(|x| x.len()),
                q.map(|x| x.len())
            ),
        }
    }
}

/// On an empty grid a path always exists and has exactly
/// `corner_distance + 1` vertices (shortest possible).
#[test]
fn empty_grid_paths_are_tight() {
    let mut rng = Rng64::seed_from_u64(0xA5A5_0002);
    let grid = Grid::new(9).unwrap();
    let occ = Occupancy::new(&grid);
    for _ in 0..256 {
        let a = random_cell(&mut rng, 9);
        let b = random_cell(&mut rng, 9);
        if a == b {
            continue;
        }
        let p = find_path(&grid, &occ, a, b, None).expect("reachable");
        assert_eq!(p.len() as u32, a.corner_distance(b) + 1);
    }
}

/// Region-limited search never leaves the region and never beats the
/// unconstrained shortest path.
#[test]
fn region_constrained_search() {
    let mut rng = Rng64::seed_from_u64(0xA5A5_0003);
    let grid = Grid::new(6).unwrap();
    let occ = Occupancy::new(&grid);
    for _ in 0..256 {
        let a = random_cell(&mut rng, 6);
        let b = random_cell(&mut rng, 6);
        if a == b {
            continue;
        }
        let region = a
            .corners()
            .iter()
            .chain(b.corners().iter())
            .fold(autobraid_lattice::BBox::of_cell(a), |acc, &v| {
                acc.union(&autobraid_lattice::BBox::of_vertex(v))
            });
        if let Some(p) = find_path(&grid, &occ, a, b, Some(region)) {
            assert!(p.confined_to(&region));
            let free = find_path(&grid, &occ, a, b, None).expect("reachable");
            assert!(p.len() >= free.len());
        }
    }
}

/// Occupancy reserve/release bookkeeping is exact under random
/// operation sequences.
#[test]
fn occupancy_bookkeeping() {
    let mut rng = Rng64::seed_from_u64(0xA5A5_0004);
    for _ in 0..64 {
        let grid = Grid::new(6).unwrap();
        let mut occ = Occupancy::new(&grid);
        let mut model = std::collections::HashSet::new();
        let n_ops = rng.gen_range(1..200usize);
        for _ in 0..n_ops {
            let idx = rng.gen_range(0..49usize);
            let v: Vertex = grid.vertex_at(idx);
            if rng.gen_bool(0.5) {
                let did = occ.reserve(&grid, v);
                assert_eq!(did, model.insert(idx));
            } else if model.remove(&idx) {
                occ.release(&grid, v);
            }
            assert_eq!(occ.occupied_count(), model.len());
        }
        for idx in 0..grid.vertex_count() {
            assert_eq!(
                occ.is_occupied(&grid, grid.vertex_at(idx)),
                model.contains(&idx)
            );
        }
    }
}
