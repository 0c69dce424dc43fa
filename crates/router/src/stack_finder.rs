//! The stack-based path finder (paper Fig. 13).
//!
//! Order matters: routing greedy-shortest-first can disconnect the lattice
//! and starve later gates (paper Fig. 8). The stack-based finder instead:
//!
//! 1. builds the CX interference graph,
//! 2. repeatedly removes the maximum-degree node (ties broken toward the
//!    largest-area bounding box) onto a stack until max degree ≤ 2 — a
//!    relaxation of the Theorem 1 condition,
//! 3. routes the residual low-interference gates first (small, local
//!    bounding boxes get their short paths),
//! 4. pops the stack LIFO, so the most-interfering, largest gates route
//!    last, along whatever boundary capacity remains — which also handles
//!    the strictly-nested case of Theorem 2, since an enclosing gate is
//!    always handled after everything it encloses.

use crate::astar::{find_path, Connectivity};
use crate::interference::InterferenceGraph;
use crate::llg::LlgSet;
use crate::path::{BraidPath, CxRequest};
use autobraid_lattice::{BBox, Grid, Occupancy};
use autobraid_telemetry as telemetry;
use std::cell::RefCell;

/// One successfully routed gate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoutedGate {
    /// The originating request.
    pub request: CxRequest,
    /// The congestion-free path it was assigned.
    pub path: BraidPath,
}

/// Result of routing one concurrent batch.
#[derive(Debug, Clone, Default)]
pub struct RouteOutcome {
    /// Gates that received vertex-disjoint paths, in routing order.
    pub routed: Vec<RoutedGate>,
    /// Request ids that could not be routed this step.
    pub failed: Vec<usize>,
}

impl RouteOutcome {
    /// Scheduled gates over total gates (the `ratio` of Fig. 13, used to
    /// trigger the layout optimizer).
    pub fn ratio(&self) -> f64 {
        let total = self.routed.len() + self.failed.len();
        if total == 0 {
            1.0
        } else {
            self.routed.len() as f64 / total as f64
        }
    }

    /// Whether every requested gate was routed.
    pub fn is_complete(&self) -> bool {
        self.failed.is_empty()
    }
}

/// Deterministic priority for the peeling tie-break: larger outer area
/// first, then wider, then lower id.
fn tie_break_key(r: &CxRequest) -> (u64, u32, std::cmp::Reverse<usize>) {
    let b = r.outer_bbox();
    (b.area(), b.width(), std::cmp::Reverse(r.id))
}

/// Lazily recomputed free-space connectivity, shared across one routing
/// pass: `may_connect` answers reachability prechecks in O(1); every
/// committed reservation invalidates the labels. The precheck only arms
/// itself after the first A* failure of the pass — uncongested passes pay
/// nothing, congested tails (where failures cluster) skip their
/// whole-grid explorations. The label buffers are the thread's, borrowed
/// for the pass and handed back on drop.
struct ConnCache {
    labels: Connectivity,
    valid: bool,
    armed: bool,
}

thread_local! {
    static CONN_LABELS: RefCell<Connectivity> = RefCell::default();
}

impl ConnCache {
    fn new() -> Self {
        ConnCache {
            labels: CONN_LABELS.with(|c| std::mem::take(&mut *c.borrow_mut())),
            valid: false,
            armed: false,
        }
    }

    fn may_connect(
        &mut self,
        grid: &Grid,
        occupancy: &Occupancy,
        a: autobraid_lattice::Cell,
        b: autobraid_lattice::Cell,
    ) -> bool {
        !self.armed || self.current(grid, occupancy).may_connect(grid, a, b)
    }

    /// The labels of `occupancy`'s free space, recomputed only if a
    /// reservation invalidated them.
    fn current(&mut self, grid: &Grid, occupancy: &Occupancy) -> &Connectivity {
        if !self.valid {
            self.labels.recompute(grid, occupancy);
            self.valid = true;
        }
        &self.labels
    }

    fn invalidate(&mut self) {
        self.valid = false;
    }

    fn note_failure(&mut self) {
        self.armed = true;
    }
}

impl Drop for ConnCache {
    fn drop(&mut self) {
        let labels = std::mem::take(&mut self.labels);
        let _ = CONN_LABELS.try_with(|c| *c.borrow_mut() = labels);
    }
}

/// Per-thread buffers the stack finder reuses from layer to layer, so a
/// warm routing pass allocates little beyond the paths it returns.
#[derive(Default)]
struct StackScratch {
    llgs: LlgSet,
    /// Indices into `llgs` of the groups of ≤ 3 gates.
    small: Vec<usize>,
    deferred: Vec<bool>,
    graph: InterferenceGraph,
    order: Vec<usize>,
    /// The greedy fallback's occupancy.
    greedy: Option<Occupancy>,
}

thread_local! {
    static STACK_SCRATCH: RefCell<StackScratch> = RefCell::default();
}

/// Runs `f` on this thread's [`StackScratch`]. The buffers are moved out
/// for the call, so a nested call just starts from empty ones.
fn with_stack_scratch<R>(f: impl FnOnce(&mut StackScratch) -> R) -> R {
    let mut scratch = STACK_SCRATCH.with(|s| std::mem::take(&mut *s.borrow_mut()));
    let result = f(&mut scratch);
    let _ = STACK_SCRATCH.try_with(|s| *s.borrow_mut() = scratch);
    result
}

/// Routes a batch of concurrent CX requests with the stack-based path
/// finder, reserving every assigned path in `occupancy`.
///
/// The caller owns the occupancy lifecycle: pass a fresh (or pre-seeded)
/// map per braiding step and clear it between steps.
///
/// # Examples
///
/// ```
/// use autobraid_lattice::{Cell, Grid, Occupancy};
/// use autobraid_router::path::CxRequest;
/// use autobraid_router::stack_finder::route_concurrent;
///
/// let grid = Grid::new(4)?;
/// let mut occ = Occupancy::new(&grid);
/// let requests = vec![
///     CxRequest::new(0, Cell::new(0, 0), Cell::new(0, 3)),
///     CxRequest::new(1, Cell::new(3, 0), Cell::new(3, 3)),
/// ];
/// let outcome = route_concurrent(&grid, &mut occ, &requests);
/// assert!(outcome.is_complete());
/// # Ok::<(), autobraid_lattice::LatticeError>(())
/// ```
pub fn route_concurrent(
    grid: &Grid,
    occupancy: &mut Occupancy,
    requests: &[CxRequest],
) -> RouteOutcome {
    let _span = telemetry::fine_span("route_concurrent");
    telemetry::fine_counter("router.route.requests", requests.len() as u64);
    let chosen = with_stack_scratch(|scratch| {
        let outcome = route_stack_order(grid, occupancy, requests, scratch);
        if outcome.is_complete() {
            return outcome;
        }
        // The stack order is not always dominant on large, dense
        // interference graphs; when it leaves gates unrouted, also try the
        // plain shortest-distance order from the pre-step occupancy (the
        // current one minus the stack order's paths) and keep whichever
        // step schedules more. The greedy order can only win while it has
        // failed fewer gates than the stack order, so it stops there.
        let greedy_occupancy = scratch.greedy.get_or_insert_with(|| occupancy.clone());
        greedy_occupancy.clone_from(occupancy);
        for r in &outcome.routed {
            greedy_occupancy.release_path(grid, r.path.vertices().iter().copied());
        }
        let greedy = route_greedy_until(grid, greedy_occupancy, requests, outcome.failed.len());
        if greedy.routed.len() > outcome.routed.len() {
            telemetry::fine_counter("router.route.greedy_fallback_wins", 1);
            std::mem::swap(occupancy, greedy_occupancy);
            greedy
        } else {
            outcome
        }
    });
    // Decision events describe the *final* outcome of the step — emitted
    // once, after any greedy fallback, so a trace never shows a commit
    // that was later discarded.
    // Per-gate commits and defers are both fine-grained (the commit
    // path string is the most expensive payload in the crate, and burst
    // workloads defer in bulk); an always-on flight recorder follows a
    // request through its coarse lifecycle events instead.
    if telemetry::fine_decisions_enabled() {
        for r in &chosen.routed {
            telemetry::decision(&telemetry::Decision::RouteCommit {
                gate: r.request.id,
                len: r.path.len(),
                path: path_string(&r.path),
            });
        }
        for &id in &chosen.failed {
            telemetry::decision(&telemetry::Decision::RouteDefer {
                gate: id,
                reason: "congested",
            });
        }
    }
    chosen
}

/// The `"row,col row,col ..."` vertex list a `route.commit` decision
/// carries — enough for the trace explainer to redraw occupancy frames
/// without lattice types.
fn path_string(path: &BraidPath) -> String {
    let mut out = String::with_capacity(path.len() * 6);
    for (i, v) in path.vertices().iter().enumerate() {
        if i > 0 {
            out.push(' ');
        }
        out.push_str(&format!("{},{}", v.row, v.col));
    }
    out
}

/// The stack-based finder *without* the hierarchical LLG-local stage or
/// greedy fallback: interference peeling + LIFO only, exactly Fig. 13.
/// Exposed for the ablation study; [`route_concurrent`] composes this
/// with LLG-local routing and is what the schedulers use.
pub fn route_stack_flat(
    grid: &Grid,
    occupancy: &mut Occupancy,
    requests: &[CxRequest],
) -> RouteOutcome {
    let mut outcome = RouteOutcome::default();
    let mut order = Vec::new();
    let mut graph = InterferenceGraph::build(requests);
    stack_order(requests, &mut graph, &mut order);
    route_in_order(grid, occupancy, requests, order, usize::MAX, &mut outcome);
    outcome
}

/// The stack-based routing order over `graph`'s live nodes (paper
/// Fig. 13), written to `order`: peel max-degree nodes onto a stack
/// until max degree ≤ 2, then route the residual nodes by priority
/// (highest first) and smallest bounding box, then the stack LIFO — the
/// last (most interfering / largest) node removed routes last.
fn stack_order(requests: &[CxRequest], graph: &mut InterferenceGraph, order: &mut Vec<usize>) {
    // The peeled nodes collect at the back of `order`, then move behind
    // the residual nodes in reverse.
    order.clear();
    while graph.max_degree() > 2 {
        let max = graph.max_degree();
        let chosen = (0..graph.len())
            .filter(|&i| graph.degree(i) == max)
            .max_by_key(|&i| tie_break_key(&requests[i]))
            .expect("max_degree > 2 implies a live node");
        if telemetry::fine_decisions_enabled() {
            telemetry::decision(&telemetry::Decision::StackPeel {
                gate: requests[chosen].id,
                degree: max,
            });
        }
        order.push(chosen);
        graph.remove(chosen);
    }
    let peeled = order.len();
    telemetry::fine_observe("router.stack.peel_depth", peeled as f64);
    telemetry::fine_observe("router.stack.residual_degree", graph.max_degree() as f64);

    order.extend((0..graph.len()).filter(|&i| graph.is_live(i)));
    by_priority_then_box(requests, &mut order[peeled..]);
    order[..peeled].reverse();
    order.rotate_left(peeled);
}

/// Sorts request indices highest priority first, then by smallest
/// bounding box (area, then width), then by index.
fn by_priority_then_box(requests: &[CxRequest], order: &mut [usize]) {
    order.sort_unstable_by_key(|&i| {
        let b = requests[i].outer_bbox();
        (
            std::cmp::Reverse(requests[i].priority),
            b.area(),
            b.width(),
            i,
        )
    });
}

fn route_stack_order(
    grid: &Grid,
    occupancy: &mut Occupancy,
    requests: &[CxRequest],
    scratch: &mut StackScratch,
) -> RouteOutcome {
    let mut outcome = RouteOutcome::default();

    // Hierarchical, distributive handling: LLGs of ≤ 3 gates route
    // *locally*, confined to their own bounding boxes (Theorem 1 — no
    // cross-LLG contention is possible because LLG boxes have no open
    // overlap), smallest groups first. Larger LLGs fall through to the
    // global stack-based search.
    let StackScratch {
        llgs,
        small,
        deferred,
        graph,
        order,
        ..
    } = scratch;
    llgs.decompose(requests);
    if telemetry::fine_metrics_enabled() {
        telemetry::counter("router.llg.groups", llgs.len() as u64);
        for (members, _) in llgs.iter() {
            telemetry::observe("router.llg.size", members.len() as f64);
        }
    }
    if telemetry::fine_decisions_enabled() {
        for (members, bbox) in llgs.iter() {
            telemetry::decision(&telemetry::Decision::LlgFormed {
                gates: members.len(),
                bbox_w: bbox.width(),
                bbox_h: bbox.height(),
            });
        }
    }
    small.clear();
    small.extend((0..llgs.len()).filter(|&g| llgs.group(g).0.len() <= 3));
    // The group index makes every key distinct, so the unstable sort
    // keeps the stable order.
    small.sort_unstable_by_key(|&g| {
        let bbox = llgs.group(g).1;
        (bbox.area(), bbox.min_row, bbox.min_col, g)
    });
    for &g in small.iter() {
        let (members, bbox) = llgs.group(g);
        route_small_llg(grid, occupancy, requests, members, bbox, &mut outcome);
    }

    deferred.clear();
    deferred.resize(requests.len(), false);
    for (members, _) in llgs.iter().filter(|(members, _)| members.len() > 3) {
        for &i in members {
            deferred[i] = true;
        }
    }
    if !deferred.iter().any(|&d| d) {
        return outcome;
    }

    // Peel max-degree nodes of the residual interference graph onto the
    // stack until max degree ≤ 2 (paper Fig. 13). The graph spans all
    // requests; small-LLG members are already routed and isolated, so
    // only deferred nodes matter.
    graph.rebuild(requests);
    for (i, deferred) in deferred.iter().enumerate() {
        if !deferred {
            graph.remove(i);
        }
    }
    telemetry::fine_observe("router.stack.initial_degree", graph.max_degree() as f64);
    stack_order(requests, graph, order);
    route_in_order(
        grid,
        occupancy,
        requests,
        order.iter().copied(),
        usize::MAX,
        &mut outcome,
    );
    repair_failures(grid, occupancy, requests, &mut outcome);
    outcome
}

/// Rip-up-and-reroute repair: for every gate left unrouted, tentatively
/// release one nearby committed path, route the failed gate, and re-route
/// the released gate; keep the exchange only when both succeed. One
/// successful repair routes a strictly additional gate, so the outcome
/// only improves. Candidates are limited to paths touching the failed
/// gate's (expanded) bounding box, and a candidate is skipped when
/// releasing its path provably leaves the failed gate's tiles
/// disconnected ([`Connectivity::may_connect_freeing`]); the free space
/// is labelled once and relabelled only after a successful exchange.
fn repair_failures(
    grid: &Grid,
    occupancy: &mut Occupancy,
    requests: &[CxRequest],
    outcome: &mut RouteOutcome,
) {
    const MAX_CANDIDATES: usize = 8;
    if outcome.failed.is_empty() {
        return;
    }
    let request_by_id = |id: usize| -> &CxRequest {
        requests
            .iter()
            .find(|r| r.id == id)
            .expect("failed id came from requests")
    };
    let mut failed = std::mem::take(&mut outcome.failed);
    failed.sort_by_key(|&id| std::cmp::Reverse(request_by_id(id).priority));
    let mut conn = ConnCache::new();

    for id in failed {
        telemetry::fine_counter("router.repair.attempts", 1);
        let req = *request_by_id(id);
        let zone = req.outer_bbox().expanded(1, grid.cells_per_side());
        let mut candidates = [0; MAX_CANDIDATES];
        let mut count = 0;
        for j in (0..outcome.routed.len()).rev() {
            if count == MAX_CANDIDATES {
                break;
            }
            if outcome.routed[j]
                .path
                .vertices()
                .iter()
                .any(|&v| zone.contains(v))
            {
                candidates[count] = j;
                count += 1;
            }
        }
        let mut fixed = false;
        for &j in &candidates[..count] {
            let victim = &outcome.routed[j];
            let freed = victim.path.vertices();
            if !conn
                .current(grid, occupancy)
                .may_connect_freeing(grid, freed, req.a, req.b)
            {
                telemetry::fine_counter("router.repair.skips", 1);
                continue;
            }
            let victim_request = victim.request;
            occupancy.release_path(grid, victim.path.vertices().iter().copied());
            let Some(new_path) = find_path(grid, occupancy, req.a, req.b, None) else {
                let restored = occupancy.try_reserve(grid, victim.path.vertices().iter().copied());
                debug_assert!(restored, "rollback re-reserves the released path");
                continue;
            };
            let reserved = occupancy.try_reserve(grid, new_path.vertices().iter().copied());
            debug_assert!(reserved);
            if let Some(victim_path) =
                find_path(grid, occupancy, victim_request.a, victim_request.b, None)
            {
                let reserved = occupancy.try_reserve(grid, victim_path.vertices().iter().copied());
                debug_assert!(reserved);
                outcome.routed[j].path = victim_path;
                outcome.routed.push(RoutedGate {
                    request: req,
                    path: new_path,
                });
                telemetry::fine_counter("router.repair.successes", 1);
                conn.invalidate();
                fixed = true;
                break;
            }
            // The victim can no longer route: undo the exchange.
            occupancy.release_path(grid, new_path.vertices().iter().copied());
            let victim = outcome.routed[j].path.vertices();
            let restored = occupancy.try_reserve(grid, victim.iter().copied());
            debug_assert!(restored);
        }
        if !fixed {
            outcome.failed.push(id);
        }
    }
}

/// Member orderings of a small LLG, by size: every permutation of up to
/// 3 positions, lexicographic.
const PERMUTATIONS: [&[&[usize]]; 4] = [
    &[&[]],
    &[&[0]],
    &[&[0, 1], &[1, 0]],
    &[
        &[0, 1, 2],
        &[0, 2, 1],
        &[1, 0, 2],
        &[1, 2, 0],
        &[2, 0, 1],
        &[2, 1, 0],
    ],
];

/// The full-group attempt of [`route_small_llg`]: tries all orderings of
/// `members` (≤ 3! = 6) with the search clamped to `region`, and commits
/// the first ordering that routes the whole group, appending the routed
/// gates to `routed` in commit order. On `false` nothing is reserved or
/// appended.
fn route_permuted(
    grid: &Grid,
    occupancy: &mut Occupancy,
    requests: &[CxRequest],
    members: &[usize],
    region: Option<BBox>,
    routed: &mut Vec<RoutedGate>,
) -> bool {
    PERMUTATIONS[members.len()].iter().any(|order| {
        try_route_all(
            grid,
            occupancy,
            requests,
            order.iter().map(|&k| members[k]),
            region,
            routed,
        )
    })
}

/// Routes every member of a ≤3-gate LLG simultaneously, preferring paths
/// confined to the group's bounding box. Tries all member orderings
/// confined first, then unconfined; commits the first ordering that
/// routes the whole group, otherwise routes best-effort in
/// [`by_priority_then_box`] order and records failures.
fn route_small_llg(
    grid: &Grid,
    occupancy: &mut Occupancy,
    requests: &[CxRequest],
    members: &[usize],
    bbox: BBox,
    outcome: &mut RouteOutcome,
) {
    debug_assert!(members.len() <= 3);
    let routed = &mut outcome.routed;
    if route_permuted(grid, occupancy, requests, members, Some(bbox), routed)
        || route_permuted(grid, occupancy, requests, members, None, routed)
    {
        return;
    }
    let mut order = [0; 3];
    let order = &mut order[..members.len()];
    order.copy_from_slice(members);
    by_priority_then_box(requests, order);
    route_in_order(
        grid,
        occupancy,
        requests,
        order.iter().copied(),
        usize::MAX,
        outcome,
    );
}

/// Tentatively routes `order` in sequence, appending to `routed`; on
/// total success the paths stay reserved, otherwise every reservation
/// and append is rolled back.
fn try_route_all(
    grid: &Grid,
    occupancy: &mut Occupancy,
    requests: &[CxRequest],
    order: impl Iterator<Item = usize>,
    region: Option<BBox>,
    routed: &mut Vec<RoutedGate>,
) -> bool {
    let before = routed.len();
    for i in order {
        let r = requests[i];
        match find_path(grid, occupancy, r.a, r.b, region) {
            Some(path) => {
                let reserved = occupancy.try_reserve(grid, path.vertices().iter().copied());
                debug_assert!(reserved, "A* avoids reserved vertices");
                routed.push(RoutedGate { request: r, path });
            }
            None => {
                for gate in routed.drain(before..) {
                    occupancy.release_path(grid, gate.path.vertices().iter().copied());
                }
                return false;
            }
        }
    }
    true
}

/// The baseline greedy policy (GP) of Javadi-Abhari et al. \[10\]: route in
/// ascending shortest-distance order, each gate taking its shortest free
/// path at the time it is considered. Used as the paper's comparison
/// point; identical path search, different ordering, no stack.
pub fn route_greedy(
    grid: &Grid,
    occupancy: &mut Occupancy,
    requests: &[CxRequest],
) -> RouteOutcome {
    route_greedy_until(grid, occupancy, requests, usize::MAX)
}

/// [`route_greedy`] that gives up at its `max_failures`-th failure,
/// leaving the rest of the batch neither routed nor failed.
fn route_greedy_until(
    grid: &Grid,
    occupancy: &mut Occupancy,
    requests: &[CxRequest],
    max_failures: usize,
) -> RouteOutcome {
    let mut order: Vec<usize> = (0..requests.len()).collect();
    order.sort_unstable_by_key(|&i| (requests[i].a.corner_distance(requests[i].b), i));
    let mut outcome = RouteOutcome::default();
    route_in_order(grid, occupancy, requests, order, max_failures, &mut outcome);
    outcome
}

/// Routes `requests[i]` for each `i` of `order` in turn, each on its
/// shortest free path at the time, reserving it in `occupancy`. A gate
/// that finds no path is recorded as failed; once one has, the
/// connectivity labels skip the A* of gates whose tiles are provably
/// disconnected until the next reservation. Stops after `max_failures`
/// failures.
fn route_in_order(
    grid: &Grid,
    occupancy: &mut Occupancy,
    requests: &[CxRequest],
    order: impl IntoIterator<Item = usize>,
    max_failures: usize,
    outcome: &mut RouteOutcome,
) {
    let mut conn = ConnCache::new();
    let mut failures = 0;
    for i in order {
        if failures >= max_failures {
            return;
        }
        let r = requests[i];
        if !conn.may_connect(grid, occupancy, r.a, r.b) {
            outcome.failed.push(r.id);
            failures += 1;
            continue;
        }
        match find_path(grid, occupancy, r.a, r.b, None) {
            Some(path) => {
                let reserved = occupancy.try_reserve(grid, path.vertices().iter().copied());
                debug_assert!(reserved, "A* returned a path through reserved vertices");
                outcome.routed.push(RoutedGate { request: r, path });
                conn.invalidate();
            }
            None => {
                conn.note_failure();
                outcome.failed.push(r.id);
                failures += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autobraid_lattice::Cell;

    fn setup(l: u32) -> (Grid, Occupancy) {
        let g = Grid::new(l).unwrap();
        let occ = Occupancy::new(&g);
        (g, occ)
    }

    fn assert_disjoint(outcome: &RouteOutcome) {
        for (i, a) in outcome.routed.iter().enumerate() {
            for b in &outcome.routed[i + 1..] {
                assert!(
                    !a.path.intersects(&b.path),
                    "paths for gates {} and {} cross",
                    a.request.id,
                    b.request.id
                );
            }
        }
    }

    #[test]
    fn the_stopped_greedy_fallback_picks_what_the_whole_greedy_order_would() {
        let (grid, start) = setup(4);
        let cells: Vec<Cell> = (0..4)
            .flat_map(|r| (0..4).map(move |c| Cell::new(r, c)))
            .collect();
        let (mut incomplete, mut greedy_wins) = (0, 0);
        for seed in 0..400u64 {
            let mut rng = telemetry::Rng64::seed_from_u64(seed);
            let n = rng.gen_range(4..12usize);
            let requests: Vec<CxRequest> = (0..n)
                .map(|id| {
                    let a = rng.gen_range(0..cells.len());
                    let b = (a + rng.gen_range(1..cells.len())) % cells.len();
                    CxRequest::new(id, cells[a], cells[b])
                })
                .collect();
            // The fallback as it ran before the stop: the whole greedy
            // order from the pre-step occupancy, kept if it routes more.
            let mut stack_occ = start.clone();
            let stack = with_stack_scratch(|scratch| {
                route_stack_order(&grid, &mut stack_occ, &requests, scratch)
            });
            let mut greedy_occ = start.clone();
            let greedy = route_greedy(&grid, &mut greedy_occ, &requests);
            incomplete += usize::from(!stack.is_complete());
            let (expected, expected_occ) =
                if !stack.is_complete() && greedy.routed.len() > stack.routed.len() {
                    greedy_wins += 1;
                    (greedy, greedy_occ)
                } else {
                    (stack, stack_occ)
                };
            let mut occ = start.clone();
            let got = route_concurrent(&grid, &mut occ, &requests);
            assert_eq!(got.routed, expected.routed, "seed {seed}");
            assert_eq!(got.failed, expected.failed, "seed {seed}");
            assert_eq!(occ, expected_occ, "seed {seed}");
        }
        assert!(incomplete > 0, "no layer left gates unrouted");
        assert!(greedy_wins > 0, "the greedy order never won");
    }

    #[test]
    fn empty_batch() {
        let (g, mut occ) = setup(3);
        let out = route_concurrent(&g, &mut occ, &[]);
        assert!(out.is_complete());
        assert_eq!(out.ratio(), 1.0);
    }

    #[test]
    fn parallel_rows_all_route() {
        let (g, mut occ) = setup(6);
        let rs: Vec<CxRequest> = (0..6)
            .map(|r| CxRequest::new(r, Cell::new(r as u32, 0), Cell::new(r as u32, 5)))
            .collect();
        let out = route_concurrent(&g, &mut occ, &rs);
        assert!(out.is_complete(), "failed: {:?}", out.failed);
        assert_disjoint(&out);
    }

    #[test]
    fn fig8_order_sensitivity_is_solved_by_stack() {
        // Five nested/crossing gates in one row band (paper Fig. 8 spirit):
        // a long gate A spanning everything plus four short gates under it.
        let (g, mut occ) = setup(10);
        let rs = vec![
            CxRequest::new(0, Cell::new(1, 0), Cell::new(1, 9)), // A: long
            CxRequest::new(1, Cell::new(1, 1), Cell::new(1, 2)),
            CxRequest::new(2, Cell::new(1, 3), Cell::new(1, 4)),
            CxRequest::new(3, Cell::new(1, 5), Cell::new(1, 6)),
            CxRequest::new(4, Cell::new(1, 7), Cell::new(1, 8)),
        ];
        let out = route_concurrent(&g, &mut occ, &rs);
        assert!(
            out.is_complete(),
            "stack finder should route all 5: {:?}",
            out.failed
        );
        assert_disjoint(&out);
        // The long gate A is peeled (degree 4) and routed last.
        assert_eq!(out.routed.last().unwrap().request.id, 0);
    }

    #[test]
    fn nested_gates_route_inner_first() {
        // Theorem 2 shape: strictly nested boxes.
        let (g, mut occ) = setup(12);
        let rs = vec![
            CxRequest::new(0, Cell::new(5, 5), Cell::new(5, 6)),
            CxRequest::new(1, Cell::new(4, 4), Cell::new(7, 7)),
            CxRequest::new(2, Cell::new(2, 2), Cell::new(9, 9)),
            CxRequest::new(3, Cell::new(0, 0), Cell::new(11, 11)),
        ];
        let out = route_concurrent(&g, &mut occ, &rs);
        assert!(
            out.is_complete(),
            "nested LLG must fully route: {:?}",
            out.failed
        );
        assert_disjoint(&out);
    }

    #[test]
    fn paths_avoid_preexisting_reservations() {
        let (g, mut occ) = setup(5);
        for r in 0..=5 {
            if r != 5 {
                occ.reserve(&g, autobraid_lattice::Vertex::new(r, 2));
            }
        }
        let rs = vec![CxRequest::new(0, Cell::new(0, 0), Cell::new(0, 4))];
        let out = route_concurrent(&g, &mut occ, &rs);
        assert!(out.is_complete());
        assert!(out.routed[0]
            .path
            .vertices()
            .iter()
            .all(|v| !(v.col == 2 && v.row < 5)));
    }

    #[test]
    fn ratio_reflects_partial_failure() {
        // 1×1 grid … impossible; use a saturated small grid instead: on a
        // 2-cell-wide grid, three gates between the same two columns cannot
        // all route (only 3 rows of vertices exist on a 2x1... use 2x2).
        let (g, mut occ) = setup(2);
        // Gates between all 4 cells pairwise — more demand than vertices.
        let rs = vec![
            CxRequest::new(0, Cell::new(0, 0), Cell::new(1, 1)),
            CxRequest::new(1, Cell::new(0, 1), Cell::new(1, 0)),
            CxRequest::new(2, Cell::new(0, 0), Cell::new(0, 1)),
            CxRequest::new(3, Cell::new(1, 0), Cell::new(1, 1)),
        ];
        let out = route_concurrent(&g, &mut occ, &rs);
        assert!(
            !out.routed.is_empty(),
            "at least one gate routes on an empty grid"
        );
        let ratio = out.ratio();
        assert!((0.0..=1.0).contains(&ratio));
        assert_eq!(out.routed.len() + out.failed.len(), 4);
    }

    #[test]
    fn greedy_baseline_routes_disjoint_too() {
        let (g, mut occ) = setup(6);
        let rs: Vec<CxRequest> = (0..6)
            .map(|r| CxRequest::new(r, Cell::new(r as u32, 0), Cell::new(r as u32, 5)))
            .collect();
        let out = route_greedy(&g, &mut occ, &rs);
        assert!(out.is_complete());
        assert_disjoint(&out);
    }

    #[test]
    fn greedy_orders_by_distance() {
        let (g, mut occ) = setup(8);
        let rs = vec![
            CxRequest::new(0, Cell::new(0, 0), Cell::new(0, 7)), // far
            CxRequest::new(1, Cell::new(4, 0), Cell::new(4, 1)), // near
        ];
        let out = route_greedy(&g, &mut occ, &rs);
        assert_eq!(out.routed[0].request.id, 1, "nearest first");
    }

    #[test]
    fn stack_beats_greedy_on_fig8_style_batch() {
        // The Fig. 8 scenario: greedy (shortest first) can still succeed
        // here, so instead check the documented guarantee — the stack
        // finder never schedules FEWER gates than greedy on this family.
        for seed_rows in 0..4u32 {
            let (g, mut occ1) = setup(10);
            let mut occ2 = Occupancy::new(&g);
            let rs = vec![
                CxRequest::new(0, Cell::new(seed_rows, 0), Cell::new(seed_rows, 9)),
                CxRequest::new(1, Cell::new(seed_rows, 1), Cell::new(seed_rows, 2)),
                CxRequest::new(2, Cell::new(seed_rows, 4), Cell::new(seed_rows, 5)),
                CxRequest::new(3, Cell::new(seed_rows, 7), Cell::new(seed_rows, 8)),
            ];
            let stack = route_concurrent(&g, &mut occ1, &rs);
            let greedy = route_greedy(&g, &mut occ2, &rs);
            assert!(stack.routed.len() >= greedy.routed.len());
        }
    }
}
