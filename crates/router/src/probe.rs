//! Machine-checkable invariants of a [`RouteOutcome`] — the router-level
//! probe the conformance oracle (and any randomized test) runs after
//! every routing pass.
//!
//! [`crate::stack_finder`] maintains these invariants by construction;
//! the probe re-derives them from nothing but the request batch and the
//! outcome, so a routing bug cannot hide behind its own bookkeeping.

use crate::path::{BraidPath, CxRequest};
use crate::stack_finder::RouteOutcome;
use autobraid_lattice::{Grid, Occupancy};

/// Validates every structural invariant of one routing pass:
///
/// 1. **Accounting** — `routed` and `failed` together cover each request
///    id exactly once (nothing dropped, nothing duplicated, nothing
///    invented);
/// 2. **Path validity** — each routed path is a valid channel path
///    between its request's operand tiles on `grid`;
/// 3. **Disjointness** — routed paths are pairwise vertex-disjoint;
/// 4. **Defect avoidance** — no path touches a vertex reserved in
///    `base` (pass an empty occupancy for a defect-free lattice).
///
/// Returns the first violation as a human-readable message.
///
/// # Examples
///
/// ```
/// use autobraid_lattice::{Cell, Grid, Occupancy};
/// use autobraid_router::path::CxRequest;
/// use autobraid_router::probe::check_route_outcome;
/// use autobraid_router::stack_finder::route_concurrent;
///
/// let grid = Grid::new(4)?;
/// let base = Occupancy::new(&grid);
/// let mut occ = base.clone();
/// let requests = vec![CxRequest::new(0, Cell::new(0, 0), Cell::new(3, 3))];
/// let outcome = route_concurrent(&grid, &mut occ, &requests);
/// check_route_outcome(&grid, &requests, &base, &outcome).unwrap();
/// # Ok::<(), autobraid_lattice::LatticeError>(())
/// ```
pub fn check_route_outcome(
    grid: &Grid,
    requests: &[CxRequest],
    base: &Occupancy,
    outcome: &RouteOutcome,
) -> Result<(), String> {
    let mut seen: Vec<usize> = Vec::with_capacity(requests.len());
    for routed in &outcome.routed {
        seen.push(routed.request.id);
    }
    seen.extend(&outcome.failed);
    seen.sort_unstable();
    let mut expected: Vec<usize> = requests.iter().map(|r| r.id).collect();
    expected.sort_unstable();
    if seen != expected {
        return Err(format!(
            "outcome ids {seen:?} do not partition request ids {expected:?}"
        ));
    }

    // `occ` holds the paths checked so far; `own` holds the current
    // path's vertices while its simplicity is checked, and is emptied
    // again before the next one.
    let mut occ = Occupancy::new(grid);
    let mut own = Occupancy::new(grid);
    for routed in &outcome.routed {
        let r = &routed.request;
        let vertices = routed.path.vertices();
        let simple = BraidPath::is_walk_between(grid, r.a, r.b, vertices)
            && vertices.iter().all(|&v| own.reserve(grid, v));
        if !simple {
            return Err(format!(
                "gate {}: recorded path is not a valid {} -> {} channel path",
                r.id, r.a, r.b
            ));
        }
        own.release_path(grid, vertices.iter().copied());
        for v in vertices {
            if !base.is_free(grid, *v) {
                return Err(format!("gate {}: path crosses defective vertex {v}", r.id));
            }
        }
        if !occ.try_reserve(grid, vertices.iter().copied()) {
            return Err(format!(
                "gate {}: path shares a vertex with an earlier path",
                r.id
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stack_finder::{route_concurrent, RoutedGate};
    use autobraid_lattice::{Cell, Vertex};

    fn routed_batch() -> (Grid, Occupancy, Vec<CxRequest>, RouteOutcome) {
        let grid = Grid::new(5).unwrap();
        let base = Occupancy::new(&grid);
        let mut occ = base.clone();
        let requests = vec![
            CxRequest::new(0, Cell::new(0, 0), Cell::new(0, 4)),
            CxRequest::new(1, Cell::new(3, 0), Cell::new(3, 4)),
        ];
        let outcome = route_concurrent(&grid, &mut occ, &requests);
        (grid, base, requests, outcome)
    }

    #[test]
    fn accepts_honest_outcomes() {
        let (grid, base, requests, outcome) = routed_batch();
        assert!(outcome.is_complete());
        check_route_outcome(&grid, &requests, &base, &outcome).unwrap();
    }

    #[test]
    fn rejects_dropped_and_duplicated_ids() {
        let (grid, base, requests, mut outcome) = routed_batch();
        let stolen = outcome.routed.pop().unwrap();
        let err = check_route_outcome(&grid, &requests, &base, &outcome).unwrap_err();
        assert!(err.contains("partition"), "{err}");
        outcome.routed.push(stolen.clone());
        outcome.routed.push(stolen);
        let err = check_route_outcome(&grid, &requests, &base, &outcome).unwrap_err();
        assert!(err.contains("partition"), "{err}");
    }

    #[test]
    fn rejects_corrupted_paths() {
        let (grid, base, requests, outcome) = routed_batch();
        // Swap the two recorded paths: each is valid in isolation but no
        // longer connects its own request's operands.
        let mut swapped = outcome.clone();
        let (pa, pb) = (
            swapped.routed[0].path.clone(),
            swapped.routed[1].path.clone(),
        );
        swapped.routed[0].path = pb;
        swapped.routed[1].path = pa;
        let err = check_route_outcome(&grid, &requests, &base, &swapped).unwrap_err();
        assert!(err.contains("valid"), "{err}");
    }

    #[test]
    fn rejects_overlapping_paths() {
        let (grid, base, _, _) = routed_batch();
        let requests = vec![
            CxRequest::new(0, Cell::new(0, 0), Cell::new(0, 2)),
            CxRequest::new(1, Cell::new(0, 2), Cell::new(0, 4)),
        ];
        // Route the second gate straight through the first one's row.
        let a = BraidPath::new(
            &grid,
            requests[0].a,
            requests[0].b,
            (0..=2).map(|c| Vertex::new(0, c)).collect(),
        )
        .unwrap();
        let b = BraidPath::new(
            &grid,
            requests[1].a,
            requests[1].b,
            (2..=4).map(|c| Vertex::new(0, c)).collect(),
        )
        .unwrap();
        let outcome = RouteOutcome {
            routed: vec![
                RoutedGate {
                    request: requests[0],
                    path: a,
                },
                RoutedGate {
                    request: requests[1],
                    path: b,
                },
            ],
            failed: vec![],
        };
        let err = check_route_outcome(&grid, &requests, &base, &outcome).unwrap_err();
        assert!(err.contains("shares a vertex"), "{err}");
    }

    #[test]
    fn rejects_paths_through_defects() {
        let grid = Grid::new(4).unwrap();
        let mut base = Occupancy::new(&grid);
        let requests = vec![CxRequest::new(0, Cell::new(0, 0), Cell::new(0, 3))];
        let mut occ = base.clone();
        let outcome = route_concurrent(&grid, &mut occ, &requests);
        assert!(outcome.is_complete());
        // Declare one of the used vertices defective after the fact.
        let used = outcome.routed[0].path.vertices()[0];
        base.reserve(&grid, used);
        let err = check_route_outcome(&grid, &requests, &base, &outcome).unwrap_err();
        assert!(err.contains("defective"), "{err}");
    }
}
