//! The multilevel V-cycle and recursive k-way partitioning — the in-house
//! METIS substitute (see DESIGN.md §3).

use crate::partition::bisect::{grow_bisection, Balance};
use crate::partition::coarsen::{coarsen, heavy_edge_matching};
use crate::partition::graph::PartGraph;
use crate::partition::refine::refine;

/// Coarsest graph size at which we stop descending and bisect directly.
const COARSE_LIMIT: usize = 24;

/// Coarsening has stalled once a level keeps more than `STALL_KEEP.0 /
/// STALL_KEEP.1` (90%) of its vertices: that level is bisected directly.
/// This is the METIS coarsening stop (METIS uses 85%). Without it,
/// heavy-edge matching on a star merges one leaf per level and the
/// V-cycle runs about `n` levels.
const STALL_KEEP: (usize, usize) = (9, 10);

/// FM passes per uncoarsening level.
const REFINE_PASSES: usize = 6;

/// Multilevel bisection: coarsen with heavy-edge matching until the graph
/// is small or coarsening stalls, grow an initial bisection, then project
/// back up refining with FM at every level.
///
/// The balance constraint is honoured at every level (vertex weights are
/// conserved by coarsening).
///
/// # Examples
///
/// ```
/// use autobraid_placement::partition::graph::PartGraph;
/// use autobraid_placement::partition::bisect::Balance;
/// use autobraid_placement::partition::recursive::bisect_multilevel;
///
/// // Two 8-cliques joined by a single edge.
/// let mut edges = Vec::new();
/// for base in [0, 8] {
///     for u in 0..8 {
///         for v in (u + 1)..8 {
///             edges.push((base + u, base + v, 10));
///         }
///     }
/// }
/// edges.push((7, 8, 1));
/// let g = PartGraph::from_edges(16, &edges);
/// let side = bisect_multilevel(&g, Balance::even(16, 0));
/// assert_eq!(g.edge_cut(&side), 1);
/// ```
pub fn bisect_multilevel(graph: &PartGraph, balance: Balance) -> Vec<bool> {
    let (mut side, _levels) = v_cycle(graph, balance, coarsening_stalled);
    // Growth and refinement are balance-aware but can land one vertex off
    // at coarse granularities; repair cheaply (exact for unit weights,
    // best-effort otherwise). The last FM pass only makes admissible
    // moves, so a repaired split stays balanced.
    force_balance(graph, &mut side, balance);
    refine(graph, &mut side, balance, 1);
    side
}

/// Whether coarsening `fine` vertices into `coarse` ones kept more than
/// [`STALL_KEEP`] of them.
fn coarsening_stalled(fine: usize, coarse: usize) -> bool {
    STALL_KEEP.1 * coarse > STALL_KEEP.0 * fine
}

/// The V-cycle below [`bisect_multilevel`]'s balance repair: a level for
/// which `stalled(fine, coarse)` holds is bisected directly. Returns the
/// split and the number of levels.
fn v_cycle(
    graph: &PartGraph,
    balance: Balance,
    stalled: fn(usize, usize) -> bool,
) -> (Vec<bool>, usize) {
    let direct = |graph: &PartGraph| {
        let mut side = grow_bisection(graph, balance);
        refine(graph, &mut side, balance, REFINE_PASSES);
        (side, 1)
    };
    let n = graph.num_vertices();
    if n <= COARSE_LIMIT {
        return direct(graph);
    }
    let matching = heavy_edge_matching(graph);
    let (coarse, fine_to_coarse) = coarsen(graph, &matching);
    if stalled(n, coarse.num_vertices()) {
        return direct(graph);
    }
    let (coarse_side, levels) = v_cycle(&coarse, balance, stalled);
    let mut side: Vec<bool> = (0..n).map(|v| coarse_side[fine_to_coarse[v]]).collect();
    refine(graph, &mut side, balance, REFINE_PASSES);
    (side, levels + 1)
}

/// Recursive k-way partition into parts of the given capacities:
/// `capacities[p]` is the maximum vertex weight part `p` may hold. Returns
/// the part index of every vertex.
///
/// This is the shape the grid embedding needs: capacities are grid-region
/// cell counts, which may be unequal when `k` does not divide the grid.
///
/// # Panics
///
/// Panics if capacities cannot hold the total vertex weight.
pub fn partition_with_capacities(graph: &PartGraph, capacities: &[u64]) -> Vec<usize> {
    assert!(!capacities.is_empty(), "need at least one part");
    let total = graph.total_vertex_weight();
    let cap_total: u64 = capacities.iter().sum();
    assert!(
        cap_total >= total,
        "capacities {cap_total} cannot hold weight {total}"
    );
    let mut assignment = vec![0usize; graph.num_vertices()];
    let vertices: Vec<usize> = (0..graph.num_vertices()).collect();
    split(graph, &vertices, capacities, 0, &mut assignment);
    assignment
}

/// Convenience: k equal parts (capacities = ceil(total/k) + slack 1).
pub fn partition(graph: &PartGraph, k: usize) -> Vec<usize> {
    assert!(k > 0, "need at least one part");
    let total = graph.total_vertex_weight();
    let cap = total.div_ceil(k as u64) + 1;
    partition_with_capacities(graph, &vec![cap; k])
}

fn split(
    graph: &PartGraph,
    vertices: &[usize],
    capacities: &[u64],
    first_part: usize,
    assignment: &mut [usize],
) {
    if capacities.len() == 1 {
        for &v in vertices {
            assignment[v] = first_part;
        }
        return;
    }
    // Split capacities in half (by part count); bisect the induced
    // subgraph with matching weight targets.
    let mid = capacities.len() / 2;
    let cap0: u64 = capacities[..mid].iter().sum();
    let cap1: u64 = capacities[mid..].iter().sum();

    let (sub, _to_sub) = induced_subgraph(graph, vertices);
    let weight: u64 = vertices.iter().map(|&v| graph.vertex_weight(v)).sum();
    let balance = Balance::capacities(weight, cap0, cap1);
    let side = bisect_multilevel(&sub, balance);

    let mut left = Vec::new();
    let mut right = Vec::new();
    for (i, &v) in vertices.iter().enumerate() {
        if side[i] {
            right.push(v);
        } else {
            left.push(v);
        }
    }
    split(graph, &left, &capacities[..mid], first_part, assignment);
    split(
        graph,
        &right,
        &capacities[mid..],
        first_part + mid,
        assignment,
    );
}

/// Guarantees the balance constraint by force: while a side is over
/// capacity, moves its cheapest (least-connected-to-its-side) vertex
/// across. Unit vertex weights make this always terminate inside bounds;
/// it only activates when FM could not quite balance coarse weights.
fn force_balance(graph: &PartGraph, side: &mut [bool], balance: Balance) {
    let cheapest_on = |side: &[bool], s: bool| -> Option<usize> {
        (0..graph.num_vertices())
            .filter(|&v| side[v] == s)
            .min_by_key(|&v| {
                let internal: u64 = graph
                    .neighbors(v)
                    .iter()
                    .filter(|&&(m, _)| side[m] == s)
                    .map(|&(_, w)| w)
                    .sum();
                (internal, v)
            })
    };
    let mut w0 = graph.side_weight(side);
    while w0 > balance.max_side0 {
        let Some(v) = cheapest_on(side, false) else {
            break;
        };
        side[v] = true;
        w0 -= graph.vertex_weight(v);
    }
    while w0 < balance.min_side0 {
        let Some(v) = cheapest_on(side, true) else {
            break;
        };
        side[v] = false;
        w0 += graph.vertex_weight(v);
    }
}

/// Builds the subgraph induced by `vertices` (in their given order) and
/// the original → induced index map.
pub fn induced_subgraph(graph: &PartGraph, vertices: &[usize]) -> (PartGraph, Vec<usize>) {
    let mut to_sub = vec![usize::MAX; graph.num_vertices()];
    for (i, &v) in vertices.iter().enumerate() {
        to_sub[v] = i;
    }
    let mut sub = PartGraph::new(vertices.len());
    for (i, &v) in vertices.iter().enumerate() {
        sub.set_vertex_weight(i, graph.vertex_weight(v));
        for &(m, w) in graph.neighbors(v) {
            let j = to_sub[m];
            if j != usize::MAX && i < j {
                sub.add_edge(i, j, w);
            }
        }
    }
    (sub, to_sub)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::coarsen::coarsen_reference;
    use crate::partition::graph::random_edges;
    use crate::partition::refine::fm_pass_reference;

    /// The V-cycle as first written, from the reference coarsening and
    /// FM pass, stopping only when matching finds nothing.
    fn v_cycle_reference(graph: &PartGraph, balance: Balance) -> Vec<bool> {
        let refine = |side: &mut [bool]| {
            for _ in 0..REFINE_PASSES {
                if fm_pass_reference(graph, side, balance) == 0 {
                    break;
                }
            }
        };
        let n = graph.num_vertices();
        let coarse =
            (n > COARSE_LIMIT).then(|| coarsen_reference(graph, &heavy_edge_matching(graph)));
        let mut side = match coarse {
            Some((coarse, map)) if coarse.num_vertices() < n => {
                let coarse_side = v_cycle_reference(&coarse, balance);
                (0..n).map(|v| coarse_side[map[v]]).collect()
            }
            _ => grow_bisection(graph, balance),
        };
        refine(&mut side);
        side
    }

    fn star(leaves: usize) -> PartGraph {
        let edges: Vec<(usize, usize, u64)> = (1..=leaves).map(|v| (0, v, 1)).collect();
        PartGraph::from_edges(leaves + 1, &edges)
    }

    #[test]
    fn v_cycle_matches_the_reference_with_the_stall_rule_off() {
        let stall_off = |fine: usize, coarse: usize| coarse == fine;
        for seed in 0..40 {
            let n = 20 + seed as usize * 7;
            let g = PartGraph::from_edges(n, &random_edges(n, seed as usize % 4, seed));
            let balance = Balance::even(n as u64, seed % 2);
            let (side, _) = v_cycle(&g, balance, stall_off);
            assert_eq!(side, v_cycle_reference(&g, balance), "seed {seed}");
        }
        let g = star(120);
        let balance = Balance::even(121, 0);
        assert_eq!(
            v_cycle(&g, balance, stall_off).0,
            v_cycle_reference(&g, balance)
        );
    }

    #[test]
    fn star_bisects_in_a_constant_number_of_levels() {
        let g = star(300);
        let balance = Balance::even(301, 0);
        let (_, levels) = v_cycle(&g, balance, coarsening_stalled);
        assert!(levels <= 2, "{levels} V-cycle levels on a 300-leaf star");
        // Without the stall rule, matching merges one leaf per level.
        let (_, levels) = v_cycle(&g, balance, |fine, coarse| coarse == fine);
        assert!(levels > 250, "{levels} levels with the stall rule off");
        let side = bisect_multilevel(&g, balance);
        assert!(balance.admits(g.side_weight(&side)));
    }

    fn two_cliques(k: usize, bridge: u64) -> PartGraph {
        let mut edges = Vec::new();
        for base in [0, k] {
            for u in 0..k {
                for v in u + 1..k {
                    edges.push((base + u, base + v, 10));
                }
            }
        }
        edges.push((k - 1, k, bridge));
        PartGraph::from_edges(2 * k, &edges)
    }

    #[test]
    fn multilevel_finds_natural_cut_large() {
        let g = two_cliques(40, 1); // 80 vertices: exercises coarsening
        let side = bisect_multilevel(&g, Balance::even(80, 0));
        assert_eq!(g.edge_cut(&side), 1);
        assert_eq!(g.side_weight(&side), 40);
    }

    #[test]
    fn partition_respects_capacities() {
        let g = two_cliques(10, 1);
        let caps = [6, 6, 6, 6];
        let parts = partition_with_capacities(&g, &caps);
        for (p, &cap) in caps.iter().enumerate() {
            let w: u64 = (0..20).filter(|&v| parts[v] == p).count() as u64;
            assert!(w <= cap, "part {p} over capacity: {w}");
        }
        assert_eq!(parts.len(), 20);
    }

    #[test]
    fn partition_k_covers_all_parts_reasonably() {
        // A 4x4 grid graph into 4 parts.
        let mut edges = Vec::new();
        for r in 0..4usize {
            for c in 0..4usize {
                let v = r * 4 + c;
                if c + 1 < 4 {
                    edges.push((v, v + 1, 1));
                }
                if r + 1 < 4 {
                    edges.push((v, v + 4, 1));
                }
            }
        }
        let g = PartGraph::from_edges(16, &edges);
        let parts = partition(&g, 4);
        let mut counts = [0usize; 4];
        for &p in &parts {
            counts[p] += 1;
        }
        for (p, &count) in counts.iter().enumerate() {
            assert!(count >= 2, "part {p} nearly empty: {counts:?}");
        }
    }

    #[test]
    fn induced_subgraph_keeps_internal_edges() {
        let g = PartGraph::from_edges(5, &[(0, 1, 2), (1, 2, 3), (3, 4, 1)]);
        let (sub, map) = induced_subgraph(&g, &[1, 2, 3]);
        assert_eq!(sub.num_vertices(), 3);
        assert_eq!(sub.edge_count(), 1, "only (1,2) is internal");
        assert_eq!(map[1], 0);
        assert_eq!(map[0], usize::MAX);
    }

    #[test]
    #[should_panic(expected = "cannot hold")]
    fn overfull_capacities_rejected() {
        let g = PartGraph::new(10);
        let _ = partition_with_capacities(&g, &[4, 4]);
    }

    #[test]
    fn singleton_part() {
        let g = PartGraph::new(3);
        let parts = partition_with_capacities(&g, &[3]);
        assert_eq!(parts, vec![0, 0, 0]);
    }
}
