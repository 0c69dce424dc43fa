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
use crate::walk;
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
    let side = grid.vertices_per_side() as usize;
    // The region clamped to the grid; a box that starts past the last
    // row or column still admits no vertex.
    let whole = walk::whole(side);
    let limits = region.map_or(whole, |r| BBox {
        max_row: r.max_row.min(whole.max_row),
        max_col: r.max_col.min(whole.max_col),
        ..r
    });
    let allowed = move |row: u32, col: u32| -> bool {
        (limits.min_row..=limits.max_row).contains(&row)
            && (limits.min_col..=limits.max_col).contains(&col)
            && !occupancy.is_occupied_at(row as usize * side + col as usize)
    };
    let Some(targets) = walk::free_corners(b, allowed) else {
        telemetry::fine_counter("router.astar.failures", 1);
        record_search(0, false);
        return None;
    };
    // A corner that is not allowed is never entered, so a popped corner
    // is a target.
    let goals = walk::corner_indices(b, side);

    arena.begin(side);
    for start in a.corners() {
        if allowed(start.row, start.col) {
            let i = start.row as usize * side + start.col as usize;
            arena.improve(i, 0, NO_PARENT);
            let h = walk::nearest(&targets, start.row, start.col);
            arena.push(h, 0, walk::pack(start.row, start.col));
        }
    }

    let mut expansions = 0u32;
    while let Some((g, at)) = arena.pop() {
        expansions += 1;
        let (row, col) = walk::unpack(at);
        let idx = row as usize * side + col as usize;
        if goals.contains(&idx) {
            telemetry::fine_observe("router.astar.expansions", f64::from(expansions));
            record_search(expansions, true);
            return Some(idx);
        }
        // Popped vertices lie in the limits, which keeps every step
        // inside both the region and the grid.
        let ng = g + 1;
        walk::neighbours(side, idx, (row, col), limits, |next, row, col| {
            if !occupancy.is_occupied_at(next) && ng < arena.g(next) {
                arena.improve(next, ng, idx as u32);
                let h = walk::nearest(&targets, row, col);
                arena.push(ng + h, ng, walk::pack(row, col));
            }
        });
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

/// The path [`search_in`] found to `goal`, rebuilt from the arena's
/// parent chain in one walk: each step costs 1, so the path has
/// `g(goal) + 1` vertices, and each parent is a grid neighbour, so its
/// vertex follows from the index step.
fn reconstruct_arena(grid: &Grid, a: Cell, b: Cell, arena: &SearchArena, goal: usize) -> BraidPath {
    let side = grid.vertices_per_side() as usize;
    let mut at = grid.vertex_at(goal);
    let mut vertices = vec![at; arena.g(goal) as usize + 1];
    let mut idx = goal;
    for slot in vertices.iter_mut().rev().skip(1) {
        let parent = arena.parent(idx) as usize;
        if parent + side == idx {
            at.row -= 1;
        } else if parent == idx + side {
            at.row += 1;
        } else if parent + 1 == idx {
            at.col -= 1;
        } else {
            at.col += 1;
        }
        *slot = at;
        idx = parent;
    }
    debug_assert_eq!(
        arena.parent(idx),
        NO_PARENT,
        "the walk ends at a start corner"
    );
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
    /// Traversal stack of [`walk::pack`]ed vertices, kept for the next
    /// [`recompute`](Self::recompute).
    stack: Vec<u32>,
}

impl Connectivity {
    /// Label reserved/unreachable vertices carry.
    const BLOCKED: u32 = u32::MAX;
    /// Label of a free vertex no component has reached yet; only seen
    /// during [`recompute`](Self::recompute).
    const UNSEEN: u32 = u32::MAX - 1;

    /// Labels the free connected components of the grid in O(vertices).
    pub fn compute(grid: &Grid, occupancy: &Occupancy) -> Self {
        let mut labels = Connectivity::default();
        labels.recompute(grid, occupancy);
        labels
    }

    /// [`compute`](Self::compute) into this value's buffers, which
    /// allocates nothing once they have grown to the grid. Components are
    /// numbered in the row-major order of their first vertex and
    /// flood-filled by index.
    pub fn recompute(&mut self, grid: &Grid, occupancy: &Occupancy) {
        let side = grid.vertices_per_side() as usize;
        assert!(side <= walk::MAX_SIDE, "{side} vertices per side");
        let whole = walk::whole(side);
        let Connectivity { labels, stack } = self;
        labels.clear();
        labels.extend((0..grid.vertex_count()).map(|i| {
            if occupancy.is_occupied_at(i) {
                Self::BLOCKED
            } else {
                Self::UNSEEN
            }
        }));
        let mut next = 0u32;
        for start in 0..labels.len() {
            if labels[start] != Self::UNSEEN {
                continue;
            }
            labels[start] = next;
            let v = grid.vertex_at(start);
            stack.push(walk::pack(v.row, v.col));
            while let Some(at) = stack.pop() {
                let (row, col) = walk::unpack(at);
                let i = row as usize * side + col as usize;
                walk::neighbours(side, i, (row, col), whole, |j, row, col| {
                    if labels[j] == Self::UNSEEN {
                        labels[j] = next;
                        stack.push(walk::pack(row, col));
                    }
                });
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
    /// on the path or in a component adjacent to it. One walk along the
    /// path marks the tiles it touches: a tile is touched where a path
    /// vertex is one of its corners or a neighbour of one carries the
    /// label of one of its free corners.
    pub fn may_connect_freeing(&self, grid: &Grid, path: &[Vertex], a: Cell, b: Cell) -> bool {
        let side = grid.vertices_per_side() as usize;
        let whole = walk::whole(side);
        // The distinct labels of the tiles' free corners, each with the
        // tiles it marks (bit 0: `a`, bit 1: `b`); a label that marks
        // both already connects them.
        let mut wanted = [(Self::BLOCKED, 0u8); 8];
        let mut count = 0;
        for (tile, cell) in [(1u8, a), (2, b)] {
            for i in walk::corner_indices(cell, side) {
                let label = self.labels[i];
                match wanted[..count].iter_mut().find(|(l, _)| *l == label) {
                    Some((_, tiles)) => *tiles |= tile,
                    None if label != Self::BLOCKED => {
                        wanted[count] = (label, tile);
                        count += 1;
                    }
                    None => {}
                }
            }
        }
        let wanted = &wanted[..count];
        if wanted.iter().any(|&(_, tiles)| tiles == 3) {
            return true;
        }
        let mut touched = 0u8;
        for &v in path {
            touched |= u8::from(a.has_corner(v)) | u8::from(b.has_corner(v)) << 1;
            let i = v.row as usize * side + v.col as usize;
            walk::neighbours(side, i, (v.row, v.col), whole, |j, _, _| {
                for &(label, tiles) in wanted {
                    if label == self.labels[j] {
                        touched |= tiles;
                    }
                }
            });
            if touched == 3 {
                return true;
            }
        }
        false
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

    /// Random defect maps for the index kernels' differential tests:
    /// every grid from the 1×1 one up to 9×9, each with its last row
    /// and last column reserved in some trials, and about a quarter of
    /// the other vertices reserved.
    fn defect_maps(rng: &mut autobraid_telemetry::Rng64) -> Vec<(Grid, Occupancy)> {
        let mut maps = Vec::new();
        for l in 1..=9u32 {
            for trial in 0..12 {
                let (g, mut occ) = setup(l);
                for v in g.vertices() {
                    let edge = (trial % 3 == 1 && v.row == l) || (trial % 3 == 2 && v.col == l);
                    if edge || rng.gen_bool(0.25) {
                        occ.reserve(&g, v);
                    }
                }
                maps.push((g, occ));
            }
        }
        maps
    }

    /// Free-space labels by a plain `Vertex` BFS, components numbered in
    /// row-major order of their first vertex: the labelling the index
    /// flood fill replaced.
    fn reference_labels(g: &Grid, occ: &Occupancy) -> Vec<u32> {
        let mut labels = vec![Connectivity::BLOCKED; g.vertex_count()];
        let mut next = 0;
        for start in g.vertices() {
            if labels[g.vertex_index(start)] != Connectivity::BLOCKED || occ.is_occupied(g, start) {
                continue;
            }
            labels[g.vertex_index(start)] = next;
            let mut queue = std::collections::VecDeque::from([start]);
            while let Some(v) = queue.pop_front() {
                for n in g.neighbors(v) {
                    let j = g.vertex_index(n);
                    if labels[j] == Connectivity::BLOCKED && occ.is_free(g, n) {
                        labels[j] = next;
                        queue.push_back(n);
                    }
                }
            }
            next += 1;
        }
        labels
    }

    #[test]
    fn labels_induce_the_reference_partition() {
        let mut rng = autobraid_telemetry::Rng64::seed_from_u64(53);
        let mut conn = Connectivity::default();
        for (g, occ) in defect_maps(&mut rng) {
            conn.recompute(&g, &occ);
            let reference = reference_labels(&g, &occ);
            // Same blocked set, and label equality agrees on every pair.
            for i in 0..g.vertex_count() {
                for j in 0..g.vertex_count() {
                    assert_eq!(
                        conn.labels[i] == conn.labels[j],
                        reference[i] == reference[j],
                        "{:?}: vertices {i} and {j}",
                        g
                    );
                }
                assert_eq!(
                    conn.labels[i] == Connectivity::BLOCKED,
                    reference[i] == Connectivity::BLOCKED
                );
            }
        }
    }

    #[test]
    fn may_connect_freeing_equals_release_and_relabel() {
        // Reserve a routed path (or, on grids too small or blocked to
        // route one, a single free vertex) and ask every pair of tiles
        // whether releasing it lets them connect: the answer must equal
        // labelling the released map from scratch.
        let mut rng = autobraid_telemetry::Rng64::seed_from_u64(59);
        let mut changed = 0;
        for (g, mut occ) in defect_maps(&mut rng) {
            let l = g.cells_per_side();
            let cells: Vec<Cell> = g.cells().collect();
            let (c, d) = (
                cells[rng.gen_range(0..cells.len())],
                cells[rng.gen_range(0..cells.len())],
            );
            let path: Vec<Vertex> = match (c != d).then(|| find_path(&g, &occ, c, d, None)) {
                Some(Some(p)) => p.vertices().to_vec(),
                _ => {
                    let v = Vertex::new(rng.gen_range(0..l + 1), rng.gen_range(0..l + 1));
                    if occ.is_occupied(&g, v) {
                        continue;
                    }
                    vec![v]
                }
            };
            occ.try_reserve(&g, path.iter().copied());
            let labels = Connectivity::compute(&g, &occ);
            occ.release_path(&g, path.iter().copied());
            let relabelled = Connectivity::compute(&g, &occ);
            for &a in &cells {
                for &b in &cells {
                    let predicted = labels.may_connect_freeing(&g, &path, a, b);
                    let actual = relabelled.may_connect(&g, a, b);
                    assert_eq!(predicted, actual, "{a} -> {b} freeing {path:?} on {g:?}");
                    changed += usize::from(actual && !labels.may_connect(&g, a, b));
                }
            }
        }
        assert!(changed > 100, "only {changed} pairs joined by a release");
    }

    #[test]
    fn region_limited_search_matches_reference_at_grid_edges() {
        // Boxes that touch or overhang the last row and column, or the
        // first, so the clamped region limits meet the grid bounds.
        let mut rng = autobraid_telemetry::Rng64::seed_from_u64(61);
        let mut found = 0;
        for (g, occ) in defect_maps(&mut rng) {
            let l = g.cells_per_side();
            if l < 2 {
                continue;
            }
            for _ in 0..6 {
                let (lo_r, lo_c) = (rng.gen_range(0..l), rng.gen_range(0..l));
                let over = rng.gen_range(0..3u32);
                let region = match rng.gen_range(0..3u32) {
                    0 => BBox::new(lo_r, lo_c, l + over, l + over),
                    1 => BBox::new(0, 0, rng.gen_range(lo_r..l + 1), rng.gen_range(lo_c..l + 1)),
                    _ => BBox::new(0, lo_c, l + over, rng.gen_range(lo_c..l + 1)),
                };
                let cell = |rng: &mut autobraid_telemetry::Rng64| {
                    Cell::new(rng.gen_range(0..l), rng.gen_range(0..l))
                };
                let (a, b) = (cell(&mut rng), cell(&mut rng));
                if a == b {
                    continue;
                }
                let optimized = find_path(&g, &occ, a, b, Some(region));
                let reference = find_path_reference(&g, &occ, a, b, Some(region));
                assert_eq!(optimized, reference, "{a} -> {b} in {region:?} on {g:?}");
                found += usize::from(optimized.is_some());
            }
        }
        assert!(found > 50, "only {found} region searches routed");
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
