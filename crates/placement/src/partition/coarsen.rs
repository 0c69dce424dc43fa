//! Heavy-edge matching and graph coarsening (the multilevel "V-cycle"
//! descent, after METIS).

use crate::partition::graph::PartGraph;

/// A maximal matching: `partner[v]` is `Some(u)` iff `v` is matched to
/// `u` (symmetric).
pub type Matching = Vec<Option<usize>>;

/// Heavy-edge matching: visit vertices in ascending-degree order and match
/// each unmatched vertex with its heaviest unmatched neighbour. Degree
/// ordering keeps low-connectivity vertices from being stranded, the
/// standard METIS heuristic.
pub fn heavy_edge_matching(graph: &PartGraph) -> Matching {
    let n = graph.num_vertices();
    let mut partner: Matching = vec![None; n];
    for v in degree_order(graph) {
        if partner[v].is_some() {
            continue;
        }
        let best = graph
            .neighbors(v)
            .iter()
            .filter(|&&(m, _)| partner[m].is_none() && m != v)
            .max_by_key(|&&(m, w)| (w, std::cmp::Reverse(m)))
            .map(|&(m, _)| m);
        if let Some(m) = best {
            partner[v] = Some(m);
            partner[m] = Some(v);
        }
    }
    partner
}

/// The vertices sorted by `(degree, v)`, by counting sort: one bucket per
/// degree, filled in ascending vertex order.
fn degree_order(graph: &PartGraph) -> Vec<usize> {
    let n = graph.num_vertices();
    // start[d + 1] counts degree-d vertices, then becomes bucket d's end.
    let mut start = vec![0usize; n + 1];
    for v in 0..n {
        start[graph.degree(v) + 1] += 1;
    }
    for d in 1..n {
        start[d + 1] += start[d];
    }
    let mut order = vec![0; n];
    for v in 0..n {
        let slot = &mut start[graph.degree(v)];
        order[*slot] = v;
        *slot += 1;
    }
    order
}

/// Contracts matched pairs into single coarse vertices.
///
/// Returns the coarse graph and the fine → coarse vertex map. Coarse
/// vertex weights are the sums of their fine constituents; edges between
/// coarse vertices accumulate all fine edge weights (internal matched
/// edges disappear).
pub fn coarsen(graph: &PartGraph, matching: &Matching) -> (PartGraph, Vec<usize>) {
    let n = graph.num_vertices();
    let mut fine_to_coarse = vec![usize::MAX; n];
    let mut weight = Vec::new();
    // The constituents' summed degrees bound each coarse list's length.
    let mut capacity = Vec::new();
    for v in 0..n {
        if fine_to_coarse[v] != usize::MAX {
            continue;
        }
        fine_to_coarse[v] = weight.len();
        let (mut w, mut deg) = (graph.vertex_weight(v), graph.degree(v));
        if let Some(m) = matching[v] {
            fine_to_coarse[m] = weight.len();
            w += graph.vertex_weight(m);
            deg += graph.degree(m);
        }
        weight.push(w);
        capacity.push(deg);
    }
    let mut coarse = PartGraph::with_capacity(weight, &capacity);
    for v in 0..n {
        let cv = fine_to_coarse[v];
        for &(m, w) in graph.neighbors(v) {
            let cm = fine_to_coarse[m];
            if v < m && cv != cm {
                coarse.add_edge(cv, cm, w);
            }
        }
    }
    (coarse, fine_to_coarse)
}

/// [`coarsen`] as first written: growing lists and the reference
/// [`PartGraph::add_edge_reference`] scan.
#[cfg(test)]
pub(crate) fn coarsen_reference(graph: &PartGraph, matching: &Matching) -> (PartGraph, Vec<usize>) {
    let n = graph.num_vertices();
    let mut fine_to_coarse = vec![usize::MAX; n];
    let mut next = 0;
    for v in 0..n {
        if fine_to_coarse[v] != usize::MAX {
            continue;
        }
        fine_to_coarse[v] = next;
        if let Some(m) = matching[v] {
            fine_to_coarse[m] = next;
        }
        next += 1;
    }
    let mut coarse = PartGraph::new(next);
    for v in 0..next {
        coarse.set_vertex_weight(v, 0);
    }
    for v in 0..n {
        let cv = fine_to_coarse[v];
        coarse.set_vertex_weight(cv, coarse.vertex_weight(cv) + graph.vertex_weight(v));
        for &(m, w) in graph.neighbors(v) {
            let cm = fine_to_coarse[m];
            if v < m && cv != cm {
                coarse.add_edge_reference(cv, cm, w);
            }
        }
    }
    (coarse, fine_to_coarse)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::graph::random_edges;

    #[test]
    fn matches_the_reference_at_every_level_of_a_full_descent() {
        // No stall rule here: descend until matching finds nothing, so
        // hub-heavy graphs run their full one-leaf-per-level cascade.
        for seed in 0..40 {
            let n = 3 + seed as usize * 4;
            let mut graph = PartGraph::from_edges(n, &random_edges(n, seed as usize % 3, seed));
            loop {
                let mut sorted: Vec<usize> = (0..graph.num_vertices()).collect();
                sorted.sort_by_key(|&v| (graph.degree(v), v));
                assert_eq!(degree_order(&graph), sorted, "seed {seed}");
                let matching = heavy_edge_matching(&graph);
                let (coarse, map) = coarsen(&graph, &matching);
                let reference = coarsen_reference(&graph, &matching);
                assert_eq!((&coarse, &map), (&reference.0, &reference.1), "seed {seed}");
                if coarse.num_vertices() == graph.num_vertices() {
                    break;
                }
                graph = coarse;
            }
        }
    }

    fn path4() -> PartGraph {
        PartGraph::from_edges(4, &[(0, 1, 5), (1, 2, 1), (2, 3, 5)])
    }

    #[test]
    fn matching_is_symmetric_and_valid() {
        let g = path4();
        let m = heavy_edge_matching(&g);
        for v in 0..4 {
            if let Some(u) = m[v] {
                assert_eq!(m[u], Some(v), "asymmetric at {v}");
                assert_ne!(u, v);
                assert!(
                    g.neighbors(v).iter().any(|&(x, _)| x == u),
                    "non-edge matched"
                );
            }
        }
    }

    #[test]
    fn heavy_edges_preferred() {
        let g = path4();
        let m = heavy_edge_matching(&g);
        // Heavy edges (0,1) and (2,3) should be matched, not the light (1,2).
        assert_eq!(m[0], Some(1));
        assert_eq!(m[2], Some(3));
    }

    #[test]
    fn coarsen_halves_path() {
        let g = path4();
        let m = heavy_edge_matching(&g);
        let (coarse, map) = coarsen(&g, &m);
        assert_eq!(coarse.num_vertices(), 2);
        assert_eq!(coarse.total_vertex_weight(), 4);
        assert_eq!(map[0], map[1]);
        assert_eq!(map[2], map[3]);
        assert_ne!(map[0], map[2]);
        // The surviving edge carries the light middle weight.
        assert_eq!(coarse.neighbors(map[0]), &[(map[2], 1)]);
    }

    #[test]
    fn isolated_vertices_survive() {
        let g = PartGraph::new(3);
        let m = heavy_edge_matching(&g);
        assert!(m.iter().all(Option::is_none));
        let (coarse, map) = coarsen(&g, &m);
        assert_eq!(coarse.num_vertices(), 3);
        assert_eq!(map, vec![0, 1, 2]);
    }

    #[test]
    fn coarse_weights_accumulate() {
        let mut g = PartGraph::from_edges(2, &[(0, 1, 1)]);
        g.set_vertex_weight(0, 3);
        g.set_vertex_weight(1, 4);
        let m = heavy_edge_matching(&g);
        let (coarse, _) = coarsen(&g, &m);
        assert_eq!(coarse.num_vertices(), 1);
        assert_eq!(coarse.vertex_weight(0), 7);
    }
}
