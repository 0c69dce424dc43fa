//! Fiduccia–Mattheyses-style bisection refinement.

use crate::partition::bisect::Balance;
use crate::partition::graph::PartGraph;

/// Gain of moving `v` to the other side: external minus internal edge
/// weight (positive gains reduce the cut).
fn gain(graph: &PartGraph, side: &[bool], v: usize) -> i64 {
    let mut g = 0i64;
    for &(m, w) in graph.neighbors(v) {
        if side[m] == side[v] {
            g -= w as i64;
        } else {
            g += w as i64;
        }
    }
    g
}

/// One FM pass: tentatively move every vertex once in best-gain-first
/// order (respecting `balance`), then roll back to the best prefix.
/// Returns the cut improvement achieved (0 when the pass found nothing).
///
/// Gains live in an array that each move updates in O(degree): moving
/// `v` flips the sign of its own gain, and shifts each neighbour's by
/// twice the edge weight (the edge turns internal or external for it).
pub fn fm_pass(graph: &PartGraph, side: &mut [bool], balance: Balance) -> u64 {
    let n = graph.num_vertices();
    if n == 0 {
        return 0;
    }
    let initial_cut = graph.edge_cut(side);
    let mut gains: Vec<i64> = (0..n).map(|v| gain(graph, side, v)).collect();
    let mut locked = vec![false; n];
    let mut weight0: u64 = graph.side_weight(side);
    let mut current_cut = initial_cut as i64;
    let mut best_cut = current_cut;
    let mut moves: Vec<usize> = Vec::new();
    let mut best_prefix = 0;

    for _ in 0..n {
        // The highest-gain admissible unlocked vertex; ties go to the
        // lowest index.
        let mut candidate: Option<usize> = None;
        for v in 0..n {
            if locked[v] || candidate.is_some_and(|c| gains[c] >= gains[v]) {
                continue;
            }
            let w0_after = if side[v] {
                weight0 + graph.vertex_weight(v)
            } else {
                weight0 - graph.vertex_weight(v)
            };
            if balance.admits(w0_after) {
                candidate = Some(v);
            }
        }
        let Some(v) = candidate else { break };
        current_cut -= gains[v];
        weight0 = if side[v] {
            weight0 + graph.vertex_weight(v)
        } else {
            weight0 - graph.vertex_weight(v)
        };
        side[v] = !side[v];
        gains[v] = -gains[v];
        for &(m, w) in graph.neighbors(v) {
            let delta = 2 * w as i64;
            gains[m] += if side[m] == side[v] { -delta } else { delta };
        }
        locked[v] = true;
        moves.push(v);
        if current_cut < best_cut {
            best_cut = current_cut;
            best_prefix = moves.len();
        }
    }
    // Roll back every move past the best prefix.
    for &v in &moves[best_prefix..] {
        side[v] = !side[v];
    }
    debug_assert_eq!(
        graph.edge_cut(side) as i64,
        best_cut.min(initial_cut as i64)
    );
    initial_cut - graph.edge_cut(side)
}

/// [`fm_pass`] as first written: every step recomputes each candidate's
/// gain from its neighbour list. The differential tests hold the gain
/// array to it.
#[cfg(test)]
pub(crate) fn fm_pass_reference(graph: &PartGraph, side: &mut [bool], balance: Balance) -> u64 {
    let n = graph.num_vertices();
    if n == 0 {
        return 0;
    }
    let initial_cut = graph.edge_cut(side);
    let mut locked = vec![false; n];
    let mut weight0: u64 = graph.side_weight(side);
    let mut current_cut = initial_cut as i64;
    let mut best_cut = current_cut;
    let mut moves: Vec<usize> = Vec::new();
    let mut best_prefix = 0;

    for _ in 0..n {
        let candidate = (0..n)
            .filter(|&v| !locked[v])
            .filter(|&v| {
                let w0_after = if side[v] {
                    weight0 + graph.vertex_weight(v)
                } else {
                    weight0 - graph.vertex_weight(v)
                };
                balance.admits(w0_after)
            })
            .max_by_key(|&v| (gain(graph, side, v), std::cmp::Reverse(v)));
        let Some(v) = candidate else { break };
        current_cut -= gain(graph, side, v);
        weight0 = if side[v] {
            weight0 + graph.vertex_weight(v)
        } else {
            weight0 - graph.vertex_weight(v)
        };
        side[v] = !side[v];
        locked[v] = true;
        moves.push(v);
        if current_cut < best_cut {
            best_cut = current_cut;
            best_prefix = moves.len();
        }
    }
    for &v in &moves[best_prefix..] {
        side[v] = !side[v];
    }
    initial_cut - graph.edge_cut(side)
}

/// Runs FM passes until a pass yields no improvement (bounded by
/// `max_passes`).
pub fn refine(graph: &PartGraph, side: &mut [bool], balance: Balance, max_passes: usize) {
    for _ in 0..max_passes {
        if fm_pass(graph, side, balance) == 0 {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::bisect::grow_bisection;

    #[test]
    fn repairs_a_bad_split() {
        // Two cliques joined by one light edge; start with a split that
        // cuts a clique.
        let edges = vec![
            (0, 1, 10),
            (0, 2, 10),
            (1, 2, 10),
            (3, 4, 10),
            (3, 5, 10),
            (4, 5, 10),
            (2, 3, 1),
        ];
        let g = PartGraph::from_edges(6, &edges);
        let mut side = vec![false, false, true, true, true, true]; // cuts clique A
        assert_eq!(g.edge_cut(&side), 20);
        refine(&g, &mut side, Balance::even(6, 0), 8);
        assert_eq!(g.edge_cut(&side), 1, "FM finds the natural cut");
        assert_eq!(g.side_weight(&side), 3);
    }

    #[test]
    fn respects_balance() {
        // A star wants everything on one side; balance forbids it.
        let edges: Vec<(usize, usize, u64)> = (1..6).map(|v| (0, v, 1)).collect();
        let g = PartGraph::from_edges(6, &edges);
        let mut side = vec![false, false, false, true, true, true];
        refine(&g, &mut side, Balance::even(6, 0), 8);
        assert_eq!(g.side_weight(&side), 3, "balance held");
    }

    #[test]
    fn never_worsens_the_cut() {
        use autobraid_telemetry::Rng64;
        let mut rng = Rng64::seed_from_u64(3);
        for _ in 0..20 {
            let n = 20;
            let mut edges = Vec::new();
            for u in 0..n {
                for v in u + 1..n {
                    if rng.gen_bool(0.2) {
                        edges.push((u, v, rng.gen_range(1..5u64)));
                    }
                }
            }
            let g = PartGraph::from_edges(n, &edges);
            let mut side = grow_bisection(&g, Balance::even(n as u64, 1));
            let before = g.edge_cut(&side);
            refine(&g, &mut side, Balance::even(n as u64, 1), 4);
            assert!(g.edge_cut(&side) <= before);
        }
    }

    #[test]
    fn gain_array_matches_the_reference_pass() {
        use crate::partition::graph::random_edges;
        use autobraid_telemetry::Rng64;
        let mut rng = Rng64::seed_from_u64(11);
        for seed in 0..80 {
            let n = 2 + seed as usize * 3;
            let mut g = PartGraph::from_edges(n, &random_edges(n, seed as usize % 3, seed));
            // Every third graph carries coarse-level vertex weights.
            if seed % 3 == 0 {
                for v in 0..n {
                    g.set_vertex_weight(v, rng.gen_range(1..5u64));
                }
            }
            let total = g.total_vertex_weight();
            let balance = Balance::even(total, rng.gen_range(0..3u64));
            let mut side: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.5)).collect();
            let mut reference = side.clone();
            for pass in 0..4 {
                let gained = fm_pass(&g, &mut side, balance);
                let expected = fm_pass_reference(&g, &mut reference, balance);
                assert_eq!(
                    (gained, &side),
                    (expected, &reference),
                    "seed {seed} pass {pass}"
                );
            }
        }
    }

    #[test]
    fn empty_graph_noop() {
        let g = PartGraph::new(0);
        let mut side: Vec<bool> = Vec::new();
        assert_eq!(fm_pass(&g, &mut side, Balance::even(0, 0)), 0);
    }
}
