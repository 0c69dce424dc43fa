//! Negotiated-congestion routing (classic PathFinder), the rival of
//! [`crate::stack_finder`].
//!
//! Where the stack finder serializes gates and lets routing *order*
//! resolve contention, PathFinder routes **every** gate of the layer
//! optimistically — paths may share vertices — and then negotiates:
//! shared vertices accrue a *present* cost (rising each iteration) and
//! a *history* cost (accumulated across iterations), and only the gates
//! whose paths touch an overused vertex are ripped up and rerouted.
//! Congestion pressure, not a priori ordering, decides who detours.
//! The loop ends when no vertex is shared (converged), when the
//! overused-vertex count has not reached a new minimum for
//! `STALL_ROUNDS` rounds (stalled), or at the [`MAX_ITERATIONS`]
//! backstop; after a stall or a cap hit a deterministic serial commit
//! resolves any residual conflicts.
//!
//! All costs are small integers, so the negotiation is bit-for-bit
//! deterministic across platforms; the router is single-threaded (the
//! engine's determinism contract in `docs/RUNTIME.md` holds
//! trivially).
//!
//! Knobs, cost model, and the comparison against the stack finder are
//! documented in `docs/ROUTING.md`; telemetry lands on the
//! `router.pathfinder.*` metrics of `docs/METRICS.md`.

use crate::arena::NO_PARENT;
use crate::astar::find_path;
use crate::path::{BraidPath, CxRequest};
use crate::stack_finder::{RouteOutcome, RoutedGate};
use autobraid_lattice::{Cell, Grid, Occupancy, Vertex};
use autobraid_telemetry as telemetry;
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Fixed-point base cost of occupying one free vertex. Every other
/// cost term scales against this, and the A* heuristic multiplies
/// Manhattan distance by it, so it must stay the *minimum* possible
/// per-vertex cost for the heuristic to remain admissible.
const BASE_COST: u64 = 16;

/// Rounds without a new minimum overused-vertex count after which
/// negotiation gives up and hands the layer to the serial commit.
/// Congested layers plateau within two or three rounds and then
/// oscillate; 8 keeps the late improvements that 4 would cut off
/// (see `docs/ROUTING.md`).
const STALL_ROUNDS: u32 = 8;

/// Upper bound on negotiation iterations before the deterministic
/// serial commit takes over.
///
/// Feasible layers converge within a handful of iterations, but an
/// oversubscribed one (more demand than the lattice carries, as on
/// congested streaming layers) never does: its overuse plateaus and
/// oscillates. Such layers end at the stall exit long before this cap,
/// which is only a backstop; either way the serial commit guarantees a
/// valid, if partial, outcome.
pub const MAX_ITERATIONS: u32 = 24;

/// Cost added per unit of accumulated history on a vertex.
const HISTORY_WEIGHT: u64 = 4;

/// Present-congestion factor of the first iteration; each extra user of
/// a vertex multiplies its cost by `1 + users * factor`.
const INITIAL_PRESENT_FACTOR: u64 = 1;

/// Ceiling on the present factor as it doubles per iteration.
const MAX_PRESENT_FACTOR: u64 = 64;

/// How one negotiation pass went — exposed for convergence tests and
/// the strategy-duel experiment, not consumed by the schedulers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NegotiationStats {
    /// Iterations actually run (1-based; 0 only for an empty batch).
    pub iterations: u32,
    /// Whether the loop ended with zero shared vertices (as opposed to
    /// stalling or hitting the iteration cap, and falling back to the
    /// serial commit).
    pub converged: bool,
}

/// Routes a batch of concurrent CX requests by negotiated congestion,
/// reserving every assigned path in `occupancy`.
///
/// `occupancy` plays the same role as in
/// [`crate::stack_finder::route_concurrent`]: vertices already reserved
/// on entry (defects, pre-seeded walls) are hard obstacles, and every
/// committed path is reserved into it before returning. The
/// [`NegotiationStats`] say how the pass went.
///
/// # Examples
///
/// ```
/// use autobraid_lattice::{Cell, Grid, Occupancy};
/// use autobraid_router::path::CxRequest;
/// use autobraid_router::pathfinder::route_negotiated;
///
/// let grid = Grid::new(6)?;
/// let mut occ = Occupancy::new(&grid);
/// let requests = vec![
///     CxRequest::new(0, Cell::new(0, 0), Cell::new(0, 5)),
///     CxRequest::new(1, Cell::new(3, 0), Cell::new(3, 5)),
/// ];
/// let (outcome, stats) = route_negotiated(&grid, &mut occ, &requests);
/// assert!(outcome.is_complete());
/// assert!(stats.converged);
/// # Ok::<(), autobraid_lattice::LatticeError>(())
/// ```
pub fn route_negotiated(
    grid: &Grid,
    occupancy: &mut Occupancy,
    requests: &[CxRequest],
) -> (RouteOutcome, NegotiationStats) {
    let _span = telemetry::fine_span("route_negotiated");
    telemetry::fine_counter("router.pathfinder.requests", requests.len() as u64);
    if requests.is_empty() {
        return (
            RouteOutcome::default(),
            NegotiationStats {
                iterations: 0,
                converged: true,
            },
        );
    }
    // The buffers are moved out for the call, so a nested call just
    // starts from empty ones.
    let mut negotiation = NEGOTIATION.with(|n| std::mem::take(&mut *n.borrow_mut()));
    let result = negotiation.run(grid, occupancy, requests);
    let _ = NEGOTIATION.try_with(|n| *n.borrow_mut() = negotiation);
    result
}

/// Cost-array entry of a vertex reserved on entry: impassable.
const BLOCKED: u64 = u64::MAX;

/// The cost of entering a free vertex,
///
/// ```text
/// cost(v) = (BASE_COST + history[v] * HISTORY_WEIGHT) * (1 + usage[v] * present_factor)
/// ```
///
/// the multiplicative form of VPR's PathFinder: present congestion
/// scales the *whole* vertex cost, so a chronically contested vertex
/// (high history) with a present user dwarfs the cost of crossing a
/// merely-occupied one, which is what lets a trapped gate displace a
/// settled neighbour instead of oscillating forever.
#[inline]
fn vertex_cost(history: u64, usage: u32, present_factor: u64) -> u64 {
    (BASE_COST + history * HISTORY_WEIGHT) * (1 + u64::from(usage) * present_factor)
}

/// One negotiation's state and the scratch of its searches. Each
/// thread keeps one, reused from layer to layer, so a warm negotiation
/// allocates only the outcome it returns.
#[derive(Debug, Default)]
struct Negotiation {
    /// Per vertex: the paths through it.
    usage: Vec<u32>,
    /// Per vertex: its accumulated overuse.
    history: Vec<u64>,
    /// Per vertex: [`vertex_cost`] under the current usage, history and
    /// present factor, or [`BLOCKED`]. Recomputed when a round starts
    /// (history and the present factor change only then) and entry by
    /// entry as paths are ripped up and committed.
    cost: Vec<u64>,
    /// Per request: its current path as vertex indices, from a corner of
    /// `a` to a corner of `b`; empty while it has none.
    paths: Vec<Vec<u32>>,
    /// Per request: proven disconnected by the hard obstacles alone,
    /// which never change inside the loop, so never retried.
    unroutable: Vec<bool>,
    /// Request indices in criticality order.
    order: Vec<usize>,
    // --- one weighted search ---
    /// Per vertex: what the current search knows of it, valid only when
    /// its stamp equals `generation`, so starting a search is one
    /// counter increment.
    visits: Vec<Visit>,
    generation: u32,
    /// Open entries, packed by [`Negotiation::push`].
    open: BinaryHeap<Reverse<u128>>,
}

/// One vertex's entry in a weighted search: best-known cost, predecessor
/// and the generation that wrote them.
#[derive(Debug, Clone, Copy, Default)]
struct Visit {
    g: u64,
    parent: u32,
    stamp: u32,
}

thread_local! {
    static NEGOTIATION: RefCell<Negotiation> = RefCell::default();
}

impl Negotiation {
    fn run(
        &mut self,
        grid: &Grid,
        occupancy: &mut Occupancy,
        requests: &[CxRequest],
    ) -> (RouteOutcome, NegotiationStats) {
        let n = grid.vertex_count();
        let side = grid.vertices_per_side() as usize;
        // Heap keys pack f into the high 64 bits, and the heuristic and
        // the vertex index into 32 bits each, which is exact while these
        // bounds hold: a vertex's usage is at most one per request, each
        // round adds less than that to its history, and a search's f is
        // at most a simple path's cost plus one step and the heuristic.
        let most = requests.len() as u128;
        let max_cost = (u128::from(BASE_COST)
            + u128::from(HISTORY_WEIGHT) * u128::from(MAX_ITERATIONS) * most)
            * (1 + u128::from(MAX_PRESENT_FACTOR) * most);
        let max_h = u128::from(BASE_COST) * 2 * side as u128;
        assert!(
            n <= u32::MAX as usize
                && max_h <= u128::from(u32::MAX)
                && (n as u128 + 1) * max_cost + max_h <= u128::from(u64::MAX),
            "{}x{} grid with {} requests is too large for negotiated routing",
            grid.cells_per_side(),
            grid.cells_per_side(),
            requests.len()
        );

        // Criticality order: DAG slack arrives as `CxRequest::priority`
        // (larger = closer to the critical path). Critical, large gates
        // route first each round so they claim direct corridors and the
        // serial commit after a stall or cap hit favors them
        // deterministically. The index as the last key makes the
        // unstable sort keep equal keys in request order.
        self.order.clear();
        self.order.extend(0..requests.len());
        self.order.sort_unstable_by_key(|&i| {
            let b = requests[i].outer_bbox();
            (
                Reverse(requests[i].priority),
                Reverse(b.area()),
                Reverse(b.width()),
                requests[i].id,
                i,
            )
        });
        self.usage.clear();
        self.usage.resize(n, 0);
        self.history.clear();
        self.history.resize(n, 0);
        self.cost.clear();
        self.cost.extend((0..n).map(|i| {
            if occupancy.is_occupied(grid, grid.vertex_at(i)) {
                BLOCKED
            } else {
                0
            }
        }));
        if self.paths.len() < requests.len() {
            self.paths.resize_with(requests.len(), Vec::new);
        }
        self.paths.iter_mut().for_each(Vec::clear);
        self.unroutable.clear();
        self.unroutable.resize(requests.len(), false);
        if self.visits.len() < n {
            self.visits.resize(n, Visit::default());
        }

        let mut present_factor = INITIAL_PRESENT_FACTOR;
        let mut converged = false;
        let mut iterations = 0u32;
        let mut fewest_overused = usize::MAX;
        let mut stale_rounds = 0u32;

        while iterations < MAX_ITERATIONS {
            let first_round = iterations == 0;
            iterations += 1;
            for ((cost, &history), &usage) in
                self.cost.iter_mut().zip(&self.history).zip(&self.usage)
            {
                if *cost != BLOCKED {
                    *cost = vertex_cost(history, usage, present_factor);
                }
            }
            let mut rerouted = 0usize;
            for k in 0..requests.len() {
                let i = self.order[k];
                if self.unroutable[i] {
                    continue;
                }
                let path = &self.paths[i];
                let needs_route = path.is_empty()
                    || (!first_round && path.iter().any(|&v| self.usage[v as usize] > 1));
                if !needs_route {
                    continue;
                }
                let mut path = std::mem::take(&mut self.paths[i]);
                self.charge(&path, present_factor, false);
                if self.route(grid, occupancy, present_factor, &requests[i], &mut path) {
                    self.charge(&path, present_factor, true);
                    rerouted += 1;
                } else {
                    // Soft costs never block a vertex, so a miss means
                    // the tiles are disconnected by hard obstacles.
                    self.unroutable[i] = true;
                }
                self.paths[i] = path;
            }
            let overused = self.usage.iter().filter(|&&u| u > 1).count();
            telemetry::fine_observe("router.pathfinder.overused", overused as f64);
            if telemetry::fine_decisions_enabled() {
                telemetry::decision(&telemetry::Decision::NegotiationRound {
                    iteration: u64::from(iterations - 1),
                    overused,
                    rerouted,
                    present_factor,
                });
            }
            if overused == 0 {
                converged = true;
                break;
            }
            if overused < fewest_overused {
                fewest_overused = overused;
                stale_rounds = 0;
            } else {
                stale_rounds += 1;
                if stale_rounds == STALL_ROUNDS {
                    break;
                }
            }
            for (history, &u) in self.history.iter_mut().zip(&self.usage) {
                if u > 1 {
                    *history += u64::from(u - 1);
                }
            }
            present_factor = (present_factor * 2).min(MAX_PRESENT_FACTOR);
        }

        telemetry::fine_observe("router.pathfinder.iterations", f64::from(iterations));
        if converged {
            telemetry::fine_counter("router.pathfinder.converged", 1);
        } else if stale_rounds == STALL_ROUNDS {
            telemetry::fine_counter("router.pathfinder.stalls", 1);
        } else {
            telemetry::fine_counter("router.pathfinder.cap_hits", 1);
        }

        // Commit. On convergence every path is disjoint by construction;
        // after a stall or a cap hit the serial walk (same criticality
        // order) keeps the first claimant of each contested vertex and
        // gives later gates one plain shortest-path retry against what
        // actually committed. Either way the outcome satisfies the router
        // probe.
        let mut outcome = RouteOutcome {
            routed: Vec::with_capacity(requests.len()),
            failed: Vec::new(),
        };
        for &i in &self.order {
            let r = requests[i];
            if self.paths[i].is_empty() {
                outcome.failed.push(r.id);
                continue;
            }
            let vertices = self.paths[i].iter().map(|&v| grid.vertex_at(v as usize));
            if occupancy.try_reserve(grid, vertices.clone()) {
                let path = BraidPath::from_search(grid, r.a, r.b, vertices.collect());
                outcome.routed.push(RoutedGate { request: r, path });
                continue;
            }
            debug_assert!(!converged, "converged passes commit without conflicts");
            match find_path(grid, occupancy, r.a, r.b, None) {
                Some(retry) => {
                    let reserved = occupancy.try_reserve(grid, retry.vertices().iter().copied());
                    debug_assert!(reserved, "A* avoids reserved vertices");
                    telemetry::fine_counter("router.pathfinder.retry_commits", 1);
                    outcome.routed.push(RoutedGate {
                        request: r,
                        path: retry,
                    });
                }
                None => outcome.failed.push(r.id),
            }
        }
        (
            outcome,
            NegotiationStats {
                iterations,
                converged,
            },
        )
    }

    /// Puts `path` on the lattice (`on`) or takes it off: its vertices'
    /// usage, and their costs with it.
    fn charge(&mut self, path: &[u32], present_factor: u64, on: bool) {
        for &v in path {
            let v = v as usize;
            if on {
                self.usage[v] += 1;
            } else {
                self.usage[v] -= 1;
            }
            self.cost[v] = vertex_cost(self.history[v], self.usage[v], present_factor);
        }
    }

    /// Routes request `r` into `path` against the current costs;
    /// `false` when its tiles are disconnected. Reference mode runs
    /// [`find_negotiated_reference`] instead, on the same usage and
    /// history, and `base` is what it treats as the hard obstacles.
    #[cfg_attr(not(any(test, feature = "reference")), allow(unused_variables))]
    fn route(
        &mut self,
        grid: &Grid,
        base: &Occupancy,
        present_factor: u64,
        r: &CxRequest,
        path: &mut Vec<u32>,
    ) -> bool {
        #[cfg(any(test, feature = "reference"))]
        if telemetry::reference_mode() {
            let found = find_negotiated_reference(
                grid,
                base,
                &self.usage,
                &self.history,
                present_factor,
                r.a,
                r.b,
            );
            path.clear();
            path.extend(
                found
                    .iter()
                    .flat_map(BraidPath::vertices)
                    .map(|&v| grid.vertex_index(v) as u32),
            );
            return !path.is_empty();
        }
        self.search(grid.vertices_per_side() as usize, r.a, r.b, path)
    }

    /// Congestion-cost shortest path from the free corners of `a` to
    /// those of `b`: A* with the admissible heuristic `BASE_COST` ×
    /// Manhattan distance, reading each vertex's cost from the cost
    /// array and walking vertex indices (`±1`, `±side`) directly.
    /// Vertices of other paths are merely expensive, blocked ones are
    /// impassable. Ties break on `(f, g, vertex index)`, all ascending,
    /// so the result is deterministic.
    fn search(&mut self, side: usize, a: Cell, b: Cell, path: &mut Vec<u32>) -> bool {
        telemetry::fine_counter("router.pathfinder.searches", 1);
        path.clear();
        let index = |v: Vertex| v.row as usize * side + v.col as usize;
        let mut targets = [(0u32, 0u32); 4];
        let mut target_count = 0usize;
        for corner in b.corners() {
            if self.cost[index(corner)] != BLOCKED {
                targets[target_count] = (corner.row, corner.col);
                target_count += 1;
            }
        }
        if target_count == 0 {
            return false;
        }
        let targets = &targets[..target_count];
        let heuristic = |row: u32, col: u32| -> u32 {
            let d = targets
                .iter()
                .map(|&(r, c)| row.abs_diff(r) + col.abs_diff(c))
                .min()
                .unwrap_or(0);
            d * BASE_COST as u32
        };

        if self.generation == u32::MAX {
            self.visits.fill(Visit::default());
            self.generation = 0;
        }
        self.generation += 1;
        self.open.clear();
        for start in a.corners() {
            let i = index(start);
            let g = self.cost[i];
            if g != BLOCKED && g < self.g(i) {
                self.improve(i, g, NO_PARENT);
                self.push(g, heuristic(start.row, start.col), i);
            }
        }

        let last = side as u32 - 1;
        while let Some(Reverse(key)) = self.open.pop() {
            let (g, idx) = Negotiation::unpack(key);
            if g > self.g(idx) {
                continue; // stale entry
            }
            let (row, col) = ((idx / side) as u32, (idx % side) as u32);
            if b.has_corner(Vertex::new(row, col)) {
                let mut at = idx as u32;
                while at != NO_PARENT {
                    path.push(at);
                    at = self.visits[at as usize].parent;
                }
                path.reverse();
                return true;
            }
            let neighbours = [
                (row > 0).then(|| (idx - side, row - 1, col)),
                (row < last).then(|| (idx + side, row + 1, col)),
                (col > 0).then(|| (idx - 1, row, col - 1)),
                (col < last).then(|| (idx + 1, row, col + 1)),
            ];
            for (next, r, c) in neighbours.into_iter().flatten() {
                let step = self.cost[next];
                if step == BLOCKED {
                    continue;
                }
                let ng = g + step;
                if ng < self.g(next) {
                    self.improve(next, ng, idx as u32);
                    self.push(ng, heuristic(r, c), next);
                }
            }
        }
        false
    }

    /// Best-known cost of vertex `i` this search (`u64::MAX` if unvisited).
    #[inline]
    fn g(&self, i: usize) -> u64 {
        let visit = self.visits[i];
        if visit.stamp == self.generation {
            visit.g
        } else {
            u64::MAX
        }
    }

    #[inline]
    fn improve(&mut self, i: usize, g: u64, parent: u32) {
        self.visits[i] = Visit {
            g,
            parent,
            stamp: self.generation,
        };
    }

    /// Pushes vertex `i` at cost `g` and heuristic `h` as one key whose
    /// order is `(f, g, i)`'s: `f = g + h` in the high 64 bits, then
    /// `u32::MAX - h` (at equal f, a larger g is a smaller h), then `i`.
    #[inline]
    fn push(&mut self, g: u64, h: u32, i: usize) {
        let f = g + u64::from(h);
        let key = (u128::from(f) << 64) | (u128::from(u32::MAX - h) << 32) | i as u128;
        self.open.push(Reverse(key));
    }

    /// The `(g, i)` a [`push`](Self::push) packed into `key`.
    #[inline]
    fn unpack(key: u128) -> (u64, usize) {
        let f = (key >> 64) as u64;
        let h = u32::MAX - (key >> 32) as u32;
        (f - u64::from(h), key as u32 as usize)
    }
}

/// Reference implementation of the negotiated search: the original
/// allocate-per-call structure (the cost formula evaluated at each
/// relaxation, fresh cost vectors, a fresh tuple heap), kept for
/// differential testing against [`Negotiation::search`].
#[cfg(any(test, feature = "reference"))]
fn find_negotiated_reference(
    grid: &Grid,
    base: &Occupancy,
    usage: &[u32],
    history: &[u64],
    present_factor: u64,
    a: Cell,
    b: Cell,
) -> Option<BraidPath> {
    telemetry::fine_counter("router.pathfinder.searches", 1);
    let allowed = |v: Vertex| -> bool { base.is_free(grid, v) };
    let targets: Vec<Vertex> = b.corners().into_iter().filter(|&v| allowed(v)).collect();
    if targets.is_empty() {
        return None;
    }
    let heuristic = |v: Vertex| -> u64 {
        let d = targets
            .iter()
            .map(|t| v.manhattan_distance(*t))
            .min()
            .unwrap();
        u64::from(d) * BASE_COST
    };
    let vertex_cost = |i: usize| -> u64 {
        (BASE_COST + history[i] * HISTORY_WEIGHT) * (1 + u64::from(usage[i]) * present_factor)
    };

    let n = grid.vertex_count();
    let mut g_cost: Vec<u64> = vec![u64::MAX; n];
    let mut parent: Vec<usize> = vec![usize::MAX; n];
    let mut open: BinaryHeap<Reverse<(u64, u64, usize)>> = BinaryHeap::new();

    for start in a.corners() {
        if allowed(start) {
            let i = grid.vertex_index(start);
            let g = vertex_cost(i);
            if g < g_cost[i] {
                g_cost[i] = g;
                open.push(Reverse((g + heuristic(start), g, i)));
            }
        }
    }

    while let Some(Reverse((_, g, idx))) = open.pop() {
        if g > g_cost[idx] {
            continue; // stale entry
        }
        let v = grid.vertex_at(idx);
        if b.has_corner(v) {
            let mut vertices = vec![grid.vertex_at(idx)];
            let mut at = idx;
            while parent[at] != usize::MAX {
                at = parent[at];
                vertices.push(grid.vertex_at(at));
            }
            vertices.reverse();
            return Some(
                BraidPath::new(grid, a, b, vertices)
                    .expect("negotiated search yields a valid path"),
            );
        }
        for next in grid.neighbors(v) {
            if !allowed(next) {
                continue;
            }
            let ni = grid.vertex_index(next);
            let ng = g + vertex_cost(ni);
            if ng < g_cost[ni] {
                g_cost[ni] = ng;
                parent[ni] = idx;
                open.push(Reverse((ng + heuristic(next), ng, ni)));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::check_route_outcome;

    fn setup(l: u32) -> (Grid, Occupancy) {
        let g = Grid::new(l).unwrap();
        let occ = Occupancy::new(&g);
        (g, occ)
    }

    fn probe(grid: &Grid, base: &Occupancy, requests: &[CxRequest], outcome: &RouteOutcome) {
        check_route_outcome(grid, requests, base, outcome).unwrap();
    }

    #[test]
    fn empty_batch_converges_immediately() {
        let (g, mut occ) = setup(3);
        let (out, stats) = route_negotiated(&g, &mut occ, &[]);
        assert!(out.is_complete());
        assert_eq!(stats.iterations, 0);
        assert!(stats.converged);
    }

    #[test]
    fn parallel_rows_converge_in_one_iteration() {
        let (g, mut occ) = setup(6);
        let base = occ.clone();
        let rs: Vec<CxRequest> = (0..6)
            .map(|r| CxRequest::new(r, Cell::new(r as u32, 0), Cell::new(r as u32, 5)))
            .collect();
        let (out, stats) = route_negotiated(&g, &mut occ, &rs);
        assert!(out.is_complete(), "failed: {:?}", out.failed);
        assert!(stats.converged);
        assert_eq!(stats.iterations, 1, "disjoint rows need no negotiation");
        probe(&g, &base, &rs, &out);
    }

    #[test]
    fn fig8_batch_converges_and_routes_all() {
        // The order-sensitivity scenario of paper Fig. 8: one long gate
        // plus four short ones under it. Negotiation must push the long
        // gate off the contested row instead of starving the short ones.
        let (g, mut occ) = setup(10);
        let base = occ.clone();
        let rs = vec![
            CxRequest::new(0, Cell::new(1, 0), Cell::new(1, 9)),
            CxRequest::new(1, Cell::new(1, 1), Cell::new(1, 2)),
            CxRequest::new(2, Cell::new(1, 3), Cell::new(1, 4)),
            CxRequest::new(3, Cell::new(1, 5), Cell::new(1, 6)),
            CxRequest::new(4, Cell::new(1, 7), Cell::new(1, 8)),
        ];
        let (out, stats) = route_negotiated(&g, &mut occ, &rs);
        assert!(out.is_complete(), "failed: {:?}", out.failed);
        assert!(stats.converged, "fig8 must converge within the cap");
        probe(&g, &base, &rs, &out);
    }

    #[test]
    fn oversubscribed_grid_terminates_within_cap_and_stays_disjoint() {
        // All-to-all burst on a tiny grid: more demand than vertices, so
        // convergence is impossible. The pass must still terminate at the
        // cap and emit a probe-clean partial outcome.
        let (g, mut occ) = setup(3);
        let base = occ.clone();
        let mut rs = Vec::new();
        let cells = [
            Cell::new(0, 0),
            Cell::new(0, 2),
            Cell::new(2, 0),
            Cell::new(2, 2),
            Cell::new(1, 1),
        ];
        let mut id = 0;
        for (i, &a) in cells.iter().enumerate() {
            for &b in &cells[i + 1..] {
                rs.push(CxRequest::new(id, a, b));
                id += 1;
            }
        }
        let (out, stats) = route_negotiated(&g, &mut occ, &rs);
        assert!(stats.iterations <= MAX_ITERATIONS);
        assert!(!out.routed.is_empty(), "some gates must still route");
        assert_eq!(out.routed.len() + out.failed.len(), rs.len());
        probe(&g, &base, &rs, &out);
    }

    #[test]
    fn avoids_defective_vertices() {
        let (g, mut occ) = setup(5);
        for r in 0..5 {
            occ.reserve(&g, Vertex::new(r, 2)); // wall with a gap at row 5
        }
        let base = occ.clone();
        let rs = vec![CxRequest::new(0, Cell::new(0, 0), Cell::new(0, 4))];
        let (out, _) = route_negotiated(&g, &mut occ, &rs);
        assert!(out.is_complete());
        probe(&g, &base, &rs, &out);
    }

    #[test]
    fn fully_walled_gate_fails_cleanly() {
        let (g, mut occ) = setup(4);
        for v in Cell::new(2, 2).corners() {
            occ.reserve(&g, v);
        }
        let rs = vec![CxRequest::new(7, Cell::new(0, 0), Cell::new(2, 2))];
        let (out, _) = route_negotiated(&g, &mut occ, &rs);
        assert_eq!(out.failed, vec![7]);
    }

    /// Two gates forced through the same 1-vertex-wide gap in a wall:
    /// only one can route, and the gap vertex stays overused every round.
    fn shared_gap_layer() -> (Grid, Occupancy, Vec<CxRequest>) {
        let (g, mut occ) = setup(5);
        for r in 0..=5 {
            if r != 2 {
                occ.reserve(&g, Vertex::new(r, 2));
            }
        }
        let rs = vec![
            CxRequest::new(0, Cell::new(1, 0), Cell::new(1, 4)).with_priority(1),
            CxRequest::new(1, Cell::new(2, 0), Cell::new(2, 4)).with_priority(9),
        ];
        (g, occ, rs)
    }

    #[test]
    fn criticality_orders_the_cap_hit_commit() {
        // The higher-priority gate must win the corridor.
        let (g, mut occ, rs) = shared_gap_layer();
        let (out, stats) = route_negotiated(&g, &mut occ, &rs);
        assert!(
            !stats.converged,
            "a shared mandatory vertex cannot converge"
        );
        assert_eq!(out.routed.len(), 1);
        assert_eq!(out.routed[0].request.id, 1, "critical gate wins the gap");
        assert_eq!(out.failed, vec![0]);
    }

    #[test]
    fn stalled_negotiation_exits_before_the_cap() {
        // Overuse is 1 from the first round on and can never fall, so
        // the loop must stop once STALL_ROUNDS rounds bring no new
        // minimum, not grind to the cap.
        let (g, mut occ, rs) = shared_gap_layer();
        let (out, stats) = route_negotiated(&g, &mut occ, &rs);
        assert!(!stats.converged);
        assert!(
            stats.iterations <= STALL_ROUNDS + 1,
            "ran {} rounds, stall window is {STALL_ROUNDS}",
            stats.iterations
        );
        assert!(stats.iterations < MAX_ITERATIONS);
        assert_eq!(out.routed.len(), 1);
        assert_eq!(out.routed[0].request.id, 1, "critical gate wins the gap");
    }

    #[test]
    fn deterministic_across_runs() {
        let (g, occ) = setup(8);
        let rs: Vec<CxRequest> = (0..8)
            .map(|r| CxRequest::new(r, Cell::new(r as u32, 0), Cell::new((7 - r) as u32, 7)))
            .collect();
        let mut occ1 = occ.clone();
        let mut occ2 = occ.clone();
        let (a, sa) = route_negotiated(&g, &mut occ1, &rs);
        let (b, sb) = route_negotiated(&g, &mut occ2, &rs);
        assert_eq!(sa, sb);
        assert_eq!(a.failed, b.failed);
        assert_eq!(a.routed, b.routed);
    }

    /// One captured request: `(a.row, a.col, b.row, b.col, priority)`.
    type Captured = (u32, u32, u32, u32, i64);

    /// Three 20-gate layers of 40-qubit `layered_cx` circuits, as a
    /// PathFinder stream offers them on a 7×7 grid.
    const LAYERED_CX_7X7: [&[Captured]; 3] = [
        &[
            (2, 4, 4, 5, 132),
            (0, 1, 4, 3, 132),
            (0, 6, 3, 3, 132),
            (4, 0, 5, 2, 66),
            (3, 0, 0, 0, 132),
            (2, 2, 5, 1, 132),
            (2, 5, 0, 3, 132),
            (1, 5, 1, 3, 132),
            (1, 4, 2, 3, 132),
            (0, 2, 3, 6, 66),
            (1, 2, 0, 4, 132),
            (1, 6, 1, 1, 132),
            (3, 4, 5, 3, 132),
            (5, 4, 0, 5, 66),
            (5, 0, 4, 2, 132),
            (3, 5, 4, 1, 132),
            (2, 6, 2, 1, 132),
            (1, 0, 2, 0, 132),
            (4, 6, 3, 1, 132),
            (3, 2, 4, 4, 132),
        ],
        &[
            (1, 5, 2, 0, 132),
            (3, 1, 4, 5, 132),
            (3, 6, 1, 4, 132),
            (1, 6, 3, 4, 132),
            (4, 2, 0, 6, 132),
            (5, 4, 2, 4, 132),
            (2, 5, 4, 1, 132),
            (3, 0, 2, 1, 132),
            (5, 1, 0, 5, 66),
            (4, 6, 5, 0, 66),
            (3, 3, 0, 4, 132),
            (3, 5, 0, 0, 132),
            (4, 3, 4, 0, 132),
            (0, 2, 3, 2, 132),
            (5, 2, 0, 1, 66),
            (1, 0, 2, 6, 132),
            (4, 4, 2, 3, 132),
            (1, 3, 5, 3, 132),
            (2, 2, 1, 2, 132),
            (0, 3, 1, 1, 132),
        ],
        &[
            (2, 3, 5, 2, 132),
            (5, 1, 1, 3, 132),
            (1, 1, 2, 6, 66),
            (0, 6, 4, 5, 132),
            (0, 1, 1, 5, 132),
            (4, 3, 4, 6, 132),
            (4, 2, 5, 0, 132),
            (1, 6, 2, 4, 132),
            (4, 0, 0, 0, 132),
            (3, 1, 3, 2, 132),
            (0, 5, 0, 3, 132),
            (0, 2, 3, 4, 132),
            (3, 5, 3, 3, 132),
            (1, 2, 5, 3, 132),
            (2, 0, 2, 5, 132),
            (5, 4, 2, 2, 132),
            (4, 1, 4, 4, 132),
            (1, 0, 3, 0, 66),
            (0, 4, 1, 4, 132),
            (2, 1, 3, 6, 132),
        ],
    ];

    /// Six gates squeezed through the one gap in a wall down vertex
    /// column 4 of an 8×8 grid, plus a gate whose target tile is walled
    /// in on all four corners.
    fn defect_wall_layer() -> (Grid, Occupancy, Vec<CxRequest>) {
        let (g, mut occ) = setup(8);
        for r in 0..=8 {
            if r != 3 {
                occ.reserve(&g, Vertex::new(r, 4));
            }
        }
        for v in Cell::new(6, 6).corners() {
            occ.reserve(&g, v);
        }
        let mut rs: Vec<CxRequest> = (0..6u32)
            .map(|r| {
                CxRequest::new(r as usize, Cell::new(r, 0), Cell::new(7 - r, 7))
                    .with_priority(i64::from(r % 3))
            })
            .collect();
        rs.push(CxRequest::new(6, Cell::new(0, 5), Cell::new(6, 6)));
        (g, occ, rs)
    }

    #[test]
    fn arena_negotiation_is_byte_identical_to_reference() {
        // The cost-array search must reproduce the original
        // allocate-per-call implementation exactly — same paths, same
        // stats, same final occupancy — across random congested batches,
        // captured stream layers that stall, the shared-gap layer, and
        // defect walls.
        use autobraid_telemetry::Rng64;
        let mut layers = Vec::new();
        let mut rng = Rng64::seed_from_u64(31);
        for _ in 0..25 {
            let (g, occ) = setup(8);
            let mut rs: Vec<CxRequest> = Vec::new();
            while rs.len() < 8 {
                let a = Cell::new(rng.gen_range(0u32..8), rng.gen_range(0u32..8));
                let b = Cell::new(rng.gen_range(0u32..8), rng.gen_range(0u32..8));
                if a == b {
                    continue;
                }
                rs.push(
                    CxRequest::new(rs.len(), a, b).with_priority(rng.gen_range(0u32..5) as i64),
                );
            }
            layers.push((g, occ, rs));
        }
        for layer in LAYERED_CX_7X7 {
            let (g, occ) = setup(7);
            let rs = layer
                .iter()
                .enumerate()
                .map(|(id, &(ar, ac, br, bc, priority))| {
                    CxRequest::new(id, Cell::new(ar, ac), Cell::new(br, bc)).with_priority(priority)
                })
                .collect();
            layers.push((g, occ, rs));
        }
        layers.push(shared_gap_layer());
        layers.push(defect_wall_layer());

        let mut unconverged = 0;
        for (g, occ, rs) in &layers {
            let mut fast_occ = occ.clone();
            let (fast, fast_stats) = route_negotiated(g, &mut fast_occ, rs);
            let was = autobraid_telemetry::set_reference_mode(true);
            let mut ref_occ = occ.clone();
            let (reference, ref_stats) = route_negotiated(g, &mut ref_occ, rs);
            autobraid_telemetry::set_reference_mode(was);
            assert_eq!(fast_stats, ref_stats);
            assert_eq!(fast.routed, reference.routed);
            assert_eq!(fast.failed, reference.failed);
            assert_eq!(fast_occ, ref_occ);
            probe(g, occ, rs, &fast);
            unconverged += usize::from(!fast_stats.converged);
        }
        assert!(
            unconverged >= 4,
            "the captured layers, the shared gap and the wall must stall: {unconverged} did"
        );
    }

    #[test]
    fn heap_keys_order_like_the_tuples() {
        // (f, g, index) pairs in tuple order must come out of the packed
        // keys in the same order, and unpack to their (g, index).
        let entries = [
            (5u64, 3u32, 9usize),
            (5, 3, 10),
            (6, 2, 1),
            (7, 1, 0),
            (5, 0, 2),
            (4, 40, 7),
            (0, 0, 0),
        ];
        let mut negotiation = Negotiation::default();
        for &(g, h, i) in &entries {
            negotiation.push(g, h, i);
        }
        let mut expected: Vec<(u64, u64, usize)> = entries
            .iter()
            .map(|&(g, h, i)| (g + u64::from(h), g, i))
            .collect();
        expected.sort_unstable();
        for (_, g, i) in expected {
            let Reverse(key) = negotiation.open.pop().unwrap();
            assert_eq!(Negotiation::unpack(key), (g, i));
        }
        assert!(negotiation.open.is_empty());
    }

    #[test]
    fn nested_band_negotiates_to_disjoint_paths() {
        // Five nested gates in one row: every shortest path wants the
        // same corridor, but the instance is feasible (nested, not
        // crossing), so negotiation must spread them across rows.
        let (g, mut occ) = setup(10);
        let base = occ.clone();
        let rs: Vec<CxRequest> = (0..5)
            .map(|r| CxRequest::new(r, Cell::new(4, r as u32), Cell::new(4, (9 - r) as u32)))
            .collect();
        let (out, stats) = route_negotiated(&g, &mut occ, &rs);
        assert!(out.is_complete(), "failed: {:?}", out.failed);
        assert!(stats.converged, "nested band must converge within the cap");
        probe(&g, &base, &rs, &out);
    }
}
