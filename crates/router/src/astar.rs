//! A* search for congestion-free braiding paths.
//!
//! A braiding path may start at **any** free corner of the source tile and
//! end at any free corner of the destination tile (16 endpoint
//! combinations, paper §3.1), so the search is multi-source /
//! multi-target. Braiding is latency-insensitive, but shorter paths
//! consume fewer routing vertices, so A* still minimizes length to
//! preserve resources for other gates.

use crate::arena::{with_search_arena, SearchArena, NO_PARENT};
use crate::path::BraidPath;
use autobraid_lattice::{BBox, Cell, Grid, Occupancy, Vertex};
use autobraid_telemetry as telemetry;

/// Finds a shortest free braiding path from tile `a` to tile `b` with A*.
///
/// Occupied vertices are impassable; the returned path's vertices are
/// **not** reserved — callers reserve via [`Occupancy::try_reserve`].
/// If `region` is set, the path must stay inside or on the boundary of
/// that box (used to confine LLG-local routing and in theorem tests).
/// Returns `None` when the two tiles are disconnected under the current
/// occupancy (or the region constraint).
///
/// The search runs on the thread's arena ([`search_in`]) and pops the
/// open set in (f asc, **g desc**, index asc) order — on f-ties the
/// deepest node wins, so an open grid is traversed goal-first instead of
/// expanding the whole equal-f plateau (see `arena.rs` module docs).
///
/// # Examples
///
/// ```
/// use autobraid_lattice::{Cell, Grid, Occupancy};
/// use autobraid_router::astar::find_path;
///
/// let grid = Grid::new(4)?;
/// let occ = Occupancy::new(&grid);
/// let path = find_path(&grid, &occ, Cell::new(0, 0), Cell::new(3, 3), None)
///     .expect("empty grid always routes");
/// assert!(path.len() >= 5); // closest corners are 4 apart
/// # Ok::<(), autobraid_lattice::LatticeError>(())
/// ```
pub fn find_path(
    grid: &Grid,
    occupancy: &Occupancy,
    a: Cell,
    b: Cell,
    region: Option<BBox>,
) -> Option<BraidPath> {
    #[cfg(any(test, feature = "reference"))]
    if telemetry::reference_mode() {
        return find_path_reference(grid, occupancy, a, b, region);
    }
    with_search_arena(|arena| {
        let goal = search_in(arena, grid, occupancy, a, b, region)?;
        Some(reconstruct_arena(grid, a, b, arena, goal))
    })
}

/// The arena search loop alone: runs the bucket-queue A* and returns
/// the goal *vertex index* (feed it to the arena's parent chain)
/// without reconstructing a path. With a warm arena and no telemetry
/// recorder installed this call performs **zero heap allocations** —
/// the conformance suite's counting-allocator guard
/// (`autobraid_conformance::alloc_guard`) measures exactly this entry
/// point.
pub fn search_in(
    arena: &mut SearchArena,
    grid: &Grid,
    occupancy: &Occupancy,
    a: Cell,
    b: Cell,
    region: Option<BBox>,
) -> Option<usize> {
    telemetry::fine_counter("router.astar.searches", 1);
    let allowed =
        |v: Vertex| -> bool { occupancy.is_free(grid, v) && region.is_none_or(|r| r.contains(v)) };
    let mut targets = [Vertex::new(0, 0); 4];
    let mut target_count = 0usize;
    for v in b.corners() {
        if allowed(v) {
            targets[target_count] = v;
            target_count += 1;
        }
    }
    if target_count == 0 {
        telemetry::fine_counter("router.astar.failures", 1);
        record_search(0, false);
        return None;
    }
    let targets = &targets[..target_count];
    let heuristic = |v: Vertex| -> u32 {
        targets
            .iter()
            .map(|t| v.manhattan_distance(*t))
            .min()
            .unwrap()
    };

    arena.begin(grid.vertex_count());
    for start in a.corners() {
        if allowed(start) {
            let i = grid.vertex_index(start);
            arena.improve(i, 0, NO_PARENT);
            arena.push(heuristic(start), 0, i as u32);
        }
    }

    let mut expansions = 0u32;
    while let Some((g, idx)) = arena.pop() {
        expansions += 1;
        let v = grid.vertex_at(idx as usize);
        if b.has_corner(v) {
            telemetry::fine_observe("router.astar.expansions", f64::from(expansions));
            record_search(expansions, true);
            return Some(idx as usize);
        }
        for next in grid.neighbors(v) {
            if !allowed(next) {
                continue;
            }
            let ni = grid.vertex_index(next);
            let ng = g + 1;
            if ng < arena.g(ni) {
                arena.improve(ni, ng, idx);
                arena.push(ng + heuristic(next), ng, ni as u32);
            }
        }
    }
    telemetry::fine_counter("router.astar.failures", 1);
    telemetry::fine_observe("router.astar.expansions", f64::from(expansions));
    record_search(expansions, false);
    None
}

/// Reference implementation of [`find_path`]: fresh allocations and a
/// `BinaryHeap` ordered (f asc, g desc, index asc) — the same abstract
/// pop contract as the arena's bucket queue, realized independently.
/// Differential tests flip [`telemetry::set_reference_mode`] and assert
/// the full pipeline output is byte-identical either way.
#[cfg(any(test, feature = "reference"))]
pub fn find_path_reference(
    grid: &Grid,
    occupancy: &Occupancy,
    a: Cell,
    b: Cell,
    region: Option<BBox>,
) -> Option<BraidPath> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    telemetry::fine_counter("router.astar.searches", 1);
    let allowed =
        |v: Vertex| -> bool { occupancy.is_free(grid, v) && region.is_none_or(|r| r.contains(v)) };
    let targets: Vec<Vertex> = b.corners().into_iter().filter(|&v| allowed(v)).collect();
    if targets.is_empty() {
        telemetry::fine_counter("router.astar.failures", 1);
        record_search(0, false);
        return None;
    }
    let heuristic = |v: Vertex| -> u32 {
        targets
            .iter()
            .map(|t| v.manhattan_distance(*t))
            .min()
            .unwrap()
    };

    let n = grid.vertex_count();
    let mut g_cost: Vec<u32> = vec![u32::MAX; n];
    let mut parent: Vec<usize> = vec![usize::MAX; n];
    // Min-heap on (f, Reverse(g), index): f asc, g desc, index asc.
    let mut open: BinaryHeap<Reverse<(u32, Reverse<u32>, usize)>> = BinaryHeap::new();

    for start in a.corners() {
        if allowed(start) {
            let i = grid.vertex_index(start);
            g_cost[i] = 0;
            open.push(Reverse((heuristic(start), Reverse(0), i)));
        }
    }

    let mut expansions = 0u32;
    while let Some(Reverse((_, Reverse(g), idx))) = open.pop() {
        if g > g_cost[idx] {
            continue; // stale entry
        }
        expansions += 1;
        let v = grid.vertex_at(idx);
        if b.has_corner(v) {
            telemetry::fine_observe("router.astar.expansions", f64::from(expansions));
            record_search(expansions, true);
            return Some(reconstruct(grid, a, b, &parent, idx));
        }
        for next in grid.neighbors(v) {
            if !allowed(next) {
                continue;
            }
            let ni = grid.vertex_index(next);
            let ng = g + 1;
            if ng < g_cost[ni] {
                g_cost[ni] = ng;
                parent[ni] = idx;
                open.push(Reverse((ng + heuristic(next), Reverse(ng), ni)));
            }
        }
    }
    telemetry::fine_counter("router.astar.failures", 1);
    telemetry::fine_observe("router.astar.expansions", f64::from(expansions));
    record_search(expansions, false);
    None
}

/// Emits the per-search decision event. Expansion counts measure *work
/// done*, not the routed result.
fn record_search(expansions: u32, found: bool) {
    if telemetry::fine_decisions_enabled() {
        telemetry::decision(&telemetry::Decision::AstarSearch {
            expansions: u64::from(expansions),
            found,
        });
    }
}

fn reconstruct(grid: &Grid, a: Cell, b: Cell, parent: &[usize], mut idx: usize) -> BraidPath {
    let mut vertices = vec![grid.vertex_at(idx)];
    while parent[idx] != usize::MAX {
        idx = parent[idx];
        vertices.push(grid.vertex_at(idx));
    }
    vertices.reverse();
    BraidPath::from_search(grid, a, b, vertices)
}

fn reconstruct_arena(grid: &Grid, a: Cell, b: Cell, arena: &SearchArena, goal: usize) -> BraidPath {
    // Walk the parent chain once to size the path, then fill it from
    // the goal backwards.
    let chain = |mut idx: usize| {
        std::iter::from_fn(move || {
            let here = idx;
            (here != NO_PARENT as usize).then(|| {
                idx = arena.parent(here) as usize;
                here
            })
        })
    };
    let mut vertices = vec![Vertex::new(0, 0); chain(goal).count()];
    for (slot, idx) in vertices.iter_mut().rev().zip(chain(goal)) {
        *slot = grid.vertex_at(idx);
    }
    BraidPath::from_search(grid, a, b, vertices)
}

/// Free-space connectivity labels for fast reachability prechecks.
///
/// A failed A* must explore the entire reachable region before giving up;
/// when many gates in a congested batch cannot route, those failures
/// dominate. Routers compute the free-vertex connected components once,
/// answer "could these tiles possibly connect?" in O(1) per query, and
/// recompute only after reservations change the free space.
///
/// # Examples
///
/// ```
/// use autobraid_lattice::{Cell, Grid, Occupancy, Vertex};
/// use autobraid_router::astar::Connectivity;
///
/// let grid = Grid::new(4)?;
/// let mut occ = Occupancy::new(&grid);
/// for r in 0..=4 {
///     occ.reserve(&grid, Vertex::new(r, 2)); // wall splits the grid
/// }
/// let conn = Connectivity::compute(&grid, &occ);
/// assert!(!conn.may_connect(&grid, Cell::new(0, 0), Cell::new(0, 3)));
/// assert!(conn.may_connect(&grid, Cell::new(0, 0), Cell::new(3, 1)));
/// # Ok::<(), autobraid_lattice::LatticeError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct Connectivity {
    labels: Vec<u32>,
    /// Traversal stack, kept for the next [`recompute`](Self::recompute).
    stack: Vec<usize>,
}

impl Connectivity {
    /// Label reserved/unreachable vertices carry.
    const BLOCKED: u32 = u32::MAX;

    /// Labels the free connected components of the grid in O(vertices).
    pub fn compute(grid: &Grid, occupancy: &Occupancy) -> Self {
        let mut labels = Connectivity::default();
        labels.recompute(grid, occupancy);
        labels
    }

    /// [`compute`](Self::compute) into this value's buffers, which
    /// allocates nothing once they have grown to the grid.
    pub fn recompute(&mut self, grid: &Grid, occupancy: &Occupancy) {
        let n = grid.vertex_count();
        let Connectivity { labels, stack } = self;
        labels.clear();
        labels.resize(n, Self::BLOCKED);
        let mut next = 0u32;
        for start in 0..n {
            if labels[start] != Self::BLOCKED || occupancy.is_occupied(grid, grid.vertex_at(start))
            {
                continue;
            }
            labels[start] = next;
            stack.push(start);
            while let Some(i) = stack.pop() {
                for v in grid.neighbors(grid.vertex_at(i)) {
                    let j = grid.vertex_index(v);
                    if labels[j] == Self::BLOCKED && occupancy.is_free(grid, v) {
                        labels[j] = next;
                        stack.push(j);
                    }
                }
            }
            next += 1;
        }
    }

    /// Whether some free corner of `a` shares a component with some free
    /// corner of `b`. `false` means [`find_path`] (without a region
    /// limit) is guaranteed to fail; `true` means it may succeed.
    pub fn may_connect(&self, grid: &Grid, a: Cell, b: Cell) -> bool {
        let labels_of = |cell: Cell| {
            cell.corners()
                .into_iter()
                .map(|v| self.labels[grid.vertex_index(v)])
                .filter(|&l| l != Self::BLOCKED)
        };
        labels_of(a).any(|la| labels_of(b).any(|lb| la == lb))
    }

    /// Whether [`find_path`] (without a region limit) may connect `a` to
    /// `b` once the reserved `path` is released. Releasing it merges the
    /// path with every component adjacent to it, so the answer is exact:
    /// either the tiles already share a component, or each has a corner
    /// on the path or in a component adjacent to it.
    pub fn may_connect_freeing(&self, grid: &Grid, path: &[Vertex], a: Cell, b: Cell) -> bool {
        let joins_path = |cell: Cell| {
            cell.corners().into_iter().any(|corner| {
                let label = self.labels[grid.vertex_index(corner)];
                path.contains(&corner)
                    || (label != Self::BLOCKED
                        && path.iter().any(|&v| {
                            grid.neighbors(v)
                                .any(|n| self.labels[grid.vertex_index(n)] == label)
                        }))
            })
        };
        self.may_connect(grid, a, b) || (joins_path(a) && joins_path(b))
    }
}

/// Reference shortest path by plain BFS — used to cross-check A*
/// optimality in tests. Same semantics as [`find_path`].
pub fn find_path_bfs(
    grid: &Grid,
    occupancy: &Occupancy,
    a: Cell,
    b: Cell,
    region: Option<BBox>,
) -> Option<BraidPath> {
    let allowed =
        |v: Vertex| -> bool { occupancy.is_free(grid, v) && region.is_none_or(|r| r.contains(v)) };
    let n = grid.vertex_count();
    let mut parent: Vec<usize> = vec![usize::MAX; n];
    let mut visited = vec![false; n];
    let mut queue = std::collections::VecDeque::new();
    for start in a.corners() {
        if allowed(start) {
            let i = grid.vertex_index(start);
            if !visited[i] {
                visited[i] = true;
                queue.push_back(i);
            }
        }
    }
    while let Some(idx) = queue.pop_front() {
        let v = grid.vertex_at(idx);
        if b.has_corner(v) {
            return Some(reconstruct(grid, a, b, &parent, idx));
        }
        for next in grid.neighbors(v) {
            let ni = grid.vertex_index(next);
            if allowed(next) && !visited[ni] {
                visited[ni] = true;
                parent[ni] = idx;
                queue.push_back(ni);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(l: u32) -> (Grid, Occupancy) {
        let g = Grid::new(l).unwrap();
        let occ = Occupancy::new(&g);
        (g, occ)
    }

    #[test]
    fn shortest_on_empty_grid() {
        let (g, occ) = setup(5);
        let p = find_path(&g, &occ, Cell::new(0, 0), Cell::new(0, 4), None).unwrap();
        // Closest corners (0,1)→(0,4): 3 edges = 4 vertices.
        assert_eq!(p.len(), 4);
    }

    #[test]
    fn adjacent_cells_share_corner() {
        let (g, occ) = setup(3);
        let p = find_path(&g, &occ, Cell::new(0, 0), Cell::new(0, 1), None).unwrap();
        assert_eq!(p.len(), 1, "shared corner is a 1-vertex path");
    }

    #[test]
    fn routes_around_blockage() {
        let (g, mut occ) = setup(4);
        // Wall down column 2 except the last row.
        for r in 0..4 {
            occ.reserve(&g, Vertex::new(r, 2));
        }
        let p = find_path(&g, &occ, Cell::new(1, 0), Cell::new(1, 3), None).unwrap();
        assert!(p.vertices().iter().all(|&v| occ.is_free(&g, v)));
        assert!(p.len() > 3, "detour is longer than the straight line");
    }

    #[test]
    fn fully_blocked_returns_none() {
        let (g, mut occ) = setup(4);
        for r in 0..=4 {
            occ.reserve(&g, Vertex::new(r, 2));
        }
        assert!(find_path(&g, &occ, Cell::new(1, 0), Cell::new(1, 3), None).is_none());
    }

    #[test]
    fn blocked_target_corners_return_none() {
        let (g, mut occ) = setup(4);
        for v in Cell::new(2, 2).corners() {
            occ.reserve(&g, v);
        }
        assert!(find_path(&g, &occ, Cell::new(0, 0), Cell::new(2, 2), None).is_none());
    }

    #[test]
    fn region_confinement() {
        let (g, occ) = setup(6);
        let region = BBox::new(0, 0, 2, 6);
        let p = find_path(&g, &occ, Cell::new(0, 0), Cell::new(1, 5), Some(region)).unwrap();
        assert!(p.confined_to(&region));
        // An unreachable region constraint fails cleanly.
        let tiny = BBox::new(0, 0, 1, 1);
        assert!(find_path(&g, &occ, Cell::new(0, 0), Cell::new(1, 5), Some(tiny)).is_none());
    }

    #[test]
    fn astar_matches_bfs_length_on_random_obstacles() {
        use autobraid_telemetry::Rng64;
        let mut rng = Rng64::seed_from_u64(11);
        for trial in 0..50 {
            let (g, mut occ) = setup(8);
            for v in g.vertices() {
                if rng.gen_bool(0.25) {
                    occ.reserve(&g, v);
                }
            }
            let a = Cell::new(rng.gen_range(0..8u32), rng.gen_range(0..8u32));
            let mut b = a;
            while b == a {
                b = Cell::new(rng.gen_range(0..8u32), rng.gen_range(0..8u32));
            }
            let astar = find_path(&g, &occ, a, b, None);
            let bfs = find_path_bfs(&g, &occ, a, b, None);
            match (astar, bfs) {
                (Some(p1), Some(p2)) => {
                    assert_eq!(p1.len(), p2.len(), "trial {trial}: suboptimal A*")
                }
                (None, None) => {}
                (x, y) => panic!(
                    "trial {trial}: A*={:?} BFS={:?} disagree",
                    x.map(|p| p.len()),
                    y.map(|p| p.len())
                ),
            }
        }
    }

    #[test]
    fn arena_search_is_byte_identical_to_reference() {
        use autobraid_telemetry::Rng64;
        let mut rng = Rng64::seed_from_u64(29);
        for trial in 0..80 {
            let (g, mut occ) = setup(8);
            for v in g.vertices() {
                if rng.gen_bool(0.3) {
                    occ.reserve(&g, v);
                }
            }
            let a = Cell::new(rng.gen_range(0..8u32), rng.gen_range(0..8u32));
            let mut b = a;
            while b == a {
                b = Cell::new(rng.gen_range(0..8u32), rng.gen_range(0..8u32));
            }
            let optimized = find_path(&g, &occ, a, b, None);
            let reference = find_path_reference(&g, &occ, a, b, None);
            assert_eq!(
                optimized, reference,
                "trial {trial}: arena and reference searches diverged"
            );
        }
    }

    #[test]
    fn freeing_a_path_connects_exactly_what_the_labels_predict() {
        // Reserve one routed path on a random defect map, label the free
        // space, and ask whether releasing the path lets random pairs of
        // tiles connect: the answer must match a search after the
        // release, both ways.
        use autobraid_telemetry::Rng64;
        let mut rng = Rng64::seed_from_u64(43);
        let cell = |rng: &mut Rng64| Cell::new(rng.gen_range(0..8u32), rng.gen_range(0..8u32));
        let (mut connecting, mut hopeless) = (0, 0);
        for _ in 0..200 {
            let (g, mut occ) = setup(8);
            for v in g.vertices() {
                if rng.gen_bool(0.3) {
                    occ.reserve(&g, v);
                }
            }
            let (c, d) = (cell(&mut rng), cell(&mut rng));
            let Some(path) = (c != d).then(|| find_path(&g, &occ, c, d, None)).flatten() else {
                continue;
            };
            occ.try_reserve(&g, path.vertices().iter().copied());
            let labels = Connectivity::compute(&g, &occ);
            let mut freed = occ.clone();
            freed.release_path(&g, path.vertices().iter().copied());
            for _ in 0..10 {
                let (a, b) = (cell(&mut rng), cell(&mut rng));
                if a == b {
                    continue;
                }
                let predicted = labels.may_connect_freeing(&g, path.vertices(), a, b);
                let routes = find_path(&g, &freed, a, b, None).is_some();
                assert_eq!(predicted, routes, "{a} -> {b} after freeing {path}");
                if routes {
                    connecting += 1;
                } else {
                    hopeless += 1;
                }
            }
        }
        assert!(
            connecting > 100 && hopeless > 100,
            "{connecting} / {hopeless}"
        );
    }

    #[test]
    fn reference_mode_dispatches_identically() {
        let (g, occ) = setup(6);
        let direct = find_path(&g, &occ, Cell::new(0, 0), Cell::new(5, 5), None);
        let prev = autobraid_telemetry::set_reference_mode(true);
        let via_flag = find_path(&g, &occ, Cell::new(0, 0), Cell::new(5, 5), None);
        autobraid_telemetry::set_reference_mode(prev);
        assert_eq!(direct, via_flag);
    }

    #[test]
    fn deterministic_output() {
        let (g, occ) = setup(6);
        let p1 = find_path(&g, &occ, Cell::new(0, 0), Cell::new(5, 5), None);
        let p2 = find_path(&g, &occ, Cell::new(0, 0), Cell::new(5, 5), None);
        assert_eq!(p1, p2);
    }
}
