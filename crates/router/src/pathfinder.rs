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
//! deterministic across platforms and thread counts; the router itself
//! is single-threaded per layer (the engine's determinism contract in
//! `docs/RUNTIME.md` holds trivially).
//!
//! Knobs, cost model, and the comparison against the stack finder are
//! documented in `docs/ROUTING.md`; telemetry lands on the
//! `router.pathfinder.*` metrics of `docs/METRICS.md`.

use crate::arena::{with_search_arena, SearchArena, NO_PARENT};
use crate::astar::find_path;
use crate::path::{BraidPath, CxRequest};
use crate::stack_finder::{RouteOutcome, RoutedGate};
use autobraid_lattice::{Grid, Occupancy, Vertex};
use autobraid_telemetry as telemetry;
use std::cmp::Reverse;

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

    // Criticality order: DAG slack arrives as `CxRequest::priority`
    // (larger = closer to the critical path). Critical, large gates
    // route first each round so they claim direct corridors and the
    // serial commit after a stall or cap hit favors them
    // deterministically.
    let mut order: Vec<usize> = (0..requests.len()).collect();
    order.sort_by_key(|&i| {
        let b = requests[i].outer_bbox();
        (
            Reverse(requests[i].priority),
            Reverse(b.area()),
            Reverse(b.width()),
            requests[i].id,
        )
    });

    let base = occupancy.clone();
    let n = grid.vertex_count();
    let mut usage: Vec<u32> = vec![0; n];
    let mut history: Vec<u64> = vec![0; n];
    let mut paths: Vec<Option<BraidPath>> = vec![None; requests.len()];
    // Gates proven disconnected under the *base* occupancy alone; the
    // base never changes inside the loop, so never retry them.
    let mut unroutable: Vec<bool> = vec![false; requests.len()];
    let mut present_factor = INITIAL_PRESENT_FACTOR;
    let mut converged = false;
    let mut iterations = 0u32;
    let mut fewest_overused = usize::MAX;
    let mut stale_rounds = 0u32;

    while iterations < MAX_ITERATIONS {
        let first_round = iterations == 0;
        iterations += 1;
        let mut rerouted = 0usize;
        for &i in &order {
            if unroutable[i] {
                continue;
            }
            let needs_route = match &paths[i] {
                None => true,
                Some(p) => {
                    !first_round
                        && p.vertices()
                            .iter()
                            .any(|v| usage[grid.vertex_index(*v)] > 1)
                }
            };
            if !needs_route {
                continue;
            }
            if let Some(p) = paths[i].take() {
                for v in p.vertices() {
                    usage[grid.vertex_index(*v)] -= 1;
                }
            }
            let found = find_negotiated(
                grid,
                &base,
                &usage,
                &history,
                present_factor,
                requests[i].a,
                requests[i].b,
            );
            match found {
                Some(p) => {
                    for v in p.vertices() {
                        usage[grid.vertex_index(*v)] += 1;
                    }
                    paths[i] = Some(p);
                    rerouted += 1;
                }
                // Soft costs never block a vertex, so a miss means the
                // tiles are disconnected by hard obstacles.
                None => unroutable[i] = true,
            }
        }
        let overused = usage.iter().filter(|&&u| u > 1).count();
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
        for (v, &u) in usage.iter().enumerate() {
            if u > 1 {
                history[v] += u64::from(u - 1);
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
    let mut outcome = RouteOutcome::default();
    for &i in &order {
        let r = requests[i];
        let Some(path) = paths[i].take() else {
            outcome.failed.push(r.id);
            continue;
        };
        if occupancy.try_reserve(grid, path.vertices().iter().copied()) {
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

/// Congestion-cost shortest path: Dijkstra with an admissible distance
/// heuristic (weighted A*), multi-source / multi-target over the free
/// corners of `a` and `b`, exactly like [`crate::astar::find_path`]
/// but with per-vertex costs
///
/// ```text
/// cost(v) = (BASE_COST + history[v] * HISTORY_WEIGHT) * (1 + usage[v] * present_factor)
/// ```
///
/// instead of unit steps — the multiplicative form of VPR's PathFinder:
/// present congestion scales the *whole* vertex cost, so a chronically
/// contested vertex (high history) with a present user dwarfs the cost
/// of crossing a merely-occupied one, which is what lets a trapped gate
/// displace a settled neighbour instead of oscillating forever.
/// Reserved vertices of `base` are impassable;
/// vertices used by other paths are merely expensive. Ties break on
/// `(f, g, vertex index)` so the result is deterministic.
fn find_negotiated(
    grid: &Grid,
    base: &Occupancy,
    usage: &[u32],
    history: &[u64],
    present_factor: u64,
    a: autobraid_lattice::Cell,
    b: autobraid_lattice::Cell,
) -> Option<BraidPath> {
    #[cfg(any(test, feature = "reference"))]
    if telemetry::reference_mode() {
        return find_negotiated_reference(grid, base, usage, history, present_factor, a, b);
    }
    with_search_arena(|arena| {
        find_negotiated_in(arena, grid, base, usage, history, present_factor, a, b)
    })
}

/// [`find_negotiated`] against caller-provided scratch: the weighted
/// half of the [`SearchArena`] replaces the per-call `g_cost`/`parent`
/// vectors and the throwaway `BinaryHeap`. The tie-break —
/// `(f, g, vertex index)` ascending — is unchanged from the original.
#[allow(clippy::too_many_arguments)]
fn find_negotiated_in(
    arena: &mut SearchArena,
    grid: &Grid,
    base: &Occupancy,
    usage: &[u32],
    history: &[u64],
    present_factor: u64,
    a: autobraid_lattice::Cell,
    b: autobraid_lattice::Cell,
) -> Option<BraidPath> {
    telemetry::fine_counter("router.pathfinder.searches", 1);
    let allowed = |v: Vertex| -> bool { base.is_free(grid, v) };
    let mut targets = [Vertex::new(0, 0); 4];
    let mut target_count = 0usize;
    for corner in b.corners() {
        if allowed(corner) {
            targets[target_count] = corner;
            target_count += 1;
        }
    }
    if target_count == 0 {
        return None;
    }
    let targets = &targets[..target_count];
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

    arena.begin_weighted(grid.vertex_count());
    for start in a.corners() {
        if allowed(start) {
            let i = grid.vertex_index(start);
            let g = vertex_cost(i);
            if g < arena.weighted_g(i) {
                arena.weighted_improve(i, g, NO_PARENT);
                arena.weighted_push(g + heuristic(start), g, i);
            }
        }
    }

    while let Some((_, g, idx)) = arena.weighted_pop() {
        if g > arena.weighted_g(idx) {
            continue; // stale entry
        }
        let v = grid.vertex_at(idx);
        if b.has_corner(v) {
            return Some(reconstruct_arena(arena, grid, a, b, idx));
        }
        for next in grid.neighbors(v) {
            if !allowed(next) {
                continue;
            }
            let ni = grid.vertex_index(next);
            let ng = g + vertex_cost(ni);
            if ng < arena.weighted_g(ni) {
                arena.weighted_improve(ni, ng, idx as u32);
                arena.weighted_push(ng + heuristic(next), ng, ni);
            }
        }
    }
    None
}

fn reconstruct_arena(
    arena: &SearchArena,
    grid: &Grid,
    a: autobraid_lattice::Cell,
    b: autobraid_lattice::Cell,
    mut idx: usize,
) -> BraidPath {
    let mut vertices = vec![grid.vertex_at(idx)];
    while arena.weighted_parent(idx) != NO_PARENT {
        idx = arena.weighted_parent(idx) as usize;
        vertices.push(grid.vertex_at(idx));
    }
    vertices.reverse();
    BraidPath::from_search(grid, a, b, vertices)
}

/// Reference implementation of the negotiated search: the original
/// allocate-per-call structure (fresh cost vectors, fresh heap), kept
/// for differential testing against the arena-backed fast path.
#[cfg(any(test, feature = "reference"))]
fn find_negotiated_reference(
    grid: &Grid,
    base: &Occupancy,
    usage: &[u32],
    history: &[u64],
    present_factor: u64,
    a: autobraid_lattice::Cell,
    b: autobraid_lattice::Cell,
) -> Option<BraidPath> {
    use std::collections::BinaryHeap;

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
    use autobraid_lattice::Cell;

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

    #[test]
    fn arena_negotiation_is_byte_identical_to_reference() {
        // The arena-backed weighted search must reproduce the original
        // allocate-per-call implementation exactly — same paths, same
        // stats — across random congested batches.
        use autobraid_telemetry::Rng64;
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
            let mut fast_occ = occ.clone();
            let (fast, fast_stats) = route_negotiated(&g, &mut fast_occ, &rs);
            let was = autobraid_telemetry::set_reference_mode(true);
            let mut ref_occ = occ.clone();
            let (reference, ref_stats) = route_negotiated(&g, &mut ref_occ, &rs);
            autobraid_telemetry::set_reference_mode(was);
            assert_eq!(fast_stats, ref_stats);
            assert_eq!(fast.routed, reference.routed);
            assert_eq!(fast.failed, reference.failed);
            assert_eq!(fast_occ, ref_occ);
        }
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
