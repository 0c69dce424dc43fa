//! Weighted undirected graph used by the multilevel partitioner.

/// An undirected graph with vertex and edge weights, stored as adjacency
/// lists. Vertices are `0..n`.
///
/// # Examples
///
/// ```
/// use autobraid_placement::partition::graph::PartGraph;
///
/// let g = PartGraph::from_edges(4, &[(0, 1, 3), (1, 2, 1), (2, 3, 3)]);
/// assert_eq!(g.num_vertices(), 4);
/// // Cutting the middle edge costs 1; cutting elsewhere costs 3.
/// assert_eq!(g.edge_cut(&[false, false, true, true]), 1);
/// assert_eq!(g.edge_cut(&[false, true, true, true]), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartGraph {
    vertex_weight: Vec<u64>,
    adjacency: Vec<Vec<(usize, u64)>>,
}

impl PartGraph {
    /// Creates an edgeless graph with `n` unit-weight vertices.
    pub fn new(n: usize) -> Self {
        PartGraph {
            vertex_weight: vec![1; n],
            adjacency: vec![Vec::new(); n],
        }
    }

    /// An edgeless graph with the given vertex weights whose neighbour
    /// lists start with room for `capacity[v]` entries each.
    pub(crate) fn with_capacity(vertex_weight: Vec<u64>, capacity: &[usize]) -> Self {
        debug_assert_eq!(vertex_weight.len(), capacity.len());
        PartGraph {
            vertex_weight,
            adjacency: capacity.iter().map(|&c| Vec::with_capacity(c)).collect(),
        }
    }

    /// Builds a graph from weighted edges (`u < v` not required; parallel
    /// edges accumulate).
    ///
    /// # Panics
    ///
    /// Panics on self-loops or out-of-range endpoints.
    pub fn from_edges(n: usize, edges: &[(usize, usize, u64)]) -> Self {
        let mut g = PartGraph::new(n);
        for &(u, v, w) in edges {
            g.add_edge(u, v, w);
        }
        g
    }

    /// Adds (or accumulates onto) an edge.
    ///
    /// # Panics
    ///
    /// Panics on self-loops or out-of-range endpoints.
    pub fn add_edge(&mut self, u: usize, v: usize, w: u64) {
        assert_ne!(u, v, "self-loop at {u}");
        assert!(u < self.num_vertices() && v < self.num_vertices());
        // An edge is in both lists or in neither, so the shorter list
        // decides; a hub's long list is only walked to accumulate.
        let (short, long) = if self.adjacency[v].len() < self.adjacency[u].len() {
            (v, u)
        } else {
            (u, v)
        };
        let Some(i) = self.adjacency[short].iter().position(|&(m, _)| m == long) else {
            self.adjacency[u].push((v, w));
            self.adjacency[v].push((u, w));
            return;
        };
        self.adjacency[short][i].1 += w;
        for entry in &mut self.adjacency[long] {
            if entry.0 == short {
                entry.1 += w;
                return;
            }
        }
        unreachable!("edge ({short}, {long}) missing from {long}'s list");
    }

    /// [`Self::add_edge`] as first written: always scans `u`'s list. The
    /// differential tests hold the shorter-list search to it.
    #[cfg(test)]
    pub(crate) fn add_edge_reference(&mut self, u: usize, v: usize, w: u64) {
        assert_ne!(u, v, "self-loop at {u}");
        assert!(u < self.num_vertices() && v < self.num_vertices());
        for &mut (m, ref mut weight) in &mut self.adjacency[u] {
            if m == v {
                *weight += w;
                for &mut (m2, ref mut w2) in &mut self.adjacency[v] {
                    if m2 == u {
                        *w2 += w;
                    }
                }
                return;
            }
        }
        self.adjacency[u].push((v, w));
        self.adjacency[v].push((u, w));
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.vertex_weight.len()
    }

    /// Weight of vertex `v` (1 for original qubits; coarse vertices carry
    /// the summed weight of the fine vertices they represent).
    pub fn vertex_weight(&self, v: usize) -> u64 {
        self.vertex_weight[v]
    }

    /// Sets a vertex weight (used during coarsening).
    pub fn set_vertex_weight(&mut self, v: usize, w: u64) {
        self.vertex_weight[v] = w;
    }

    /// Sum of all vertex weights.
    pub fn total_vertex_weight(&self) -> u64 {
        self.vertex_weight.iter().sum()
    }

    /// Weighted neighbours of `v`.
    pub fn neighbors(&self, v: usize) -> &[(usize, u64)] {
        &self.adjacency[v]
    }

    /// Degree (distinct neighbours) of `v`.
    pub fn degree(&self, v: usize) -> usize {
        self.adjacency[v].len()
    }

    /// Number of distinct edges.
    pub fn edge_count(&self) -> usize {
        self.adjacency.iter().map(Vec::len).sum::<usize>() / 2
    }

    /// Total weight of edges crossing the bisection `side` (vertex `v` is
    /// on side `side[v]`).
    ///
    /// # Panics
    ///
    /// Panics if `side.len() != num_vertices()`.
    pub fn edge_cut(&self, side: &[bool]) -> u64 {
        assert_eq!(side.len(), self.num_vertices());
        let mut cut = 0;
        for v in 0..self.num_vertices() {
            for &(m, w) in &self.adjacency[v] {
                if v < m && side[v] != side[m] {
                    cut += w;
                }
            }
        }
        cut
    }

    /// Sum of vertex weights on side `false` of the bisection.
    pub fn side_weight(&self, side: &[bool]) -> u64 {
        (0..self.num_vertices())
            .filter(|&v| !side[v])
            .map(|v| self.vertex_weight[v])
            .sum()
    }
}

/// Seeded random edge lists for the partitioner's differential tests:
/// each of the first `hubs` vertices links to about half of the others,
/// every vertex gets two random edges, and about one pair in eight
/// repeats (reversed) so weights accumulate. The list is shuffled.
#[cfg(test)]
pub(crate) fn random_edges(n: usize, hubs: usize, seed: u64) -> Vec<(usize, usize, u64)> {
    let mut rng = autobraid_telemetry::Rng64::seed_from_u64(seed);
    let mut edges = Vec::new();
    for hub in 0..hubs.min(n) {
        for v in 0..n {
            if v != hub && rng.gen_bool(0.5) {
                edges.push((hub, v, rng.gen_range(1..4u64)));
            }
        }
    }
    for _ in 0..2 * n {
        let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
        if u != v {
            edges.push((u, v, rng.gen_range(1..10u64)));
        }
    }
    for i in 0..edges.len() / 8 {
        let (u, v, w) = edges[i * 7 % edges.len()];
        edges.push((v, u, w));
    }
    rng.shuffle(&mut edges);
    edges
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_edge_matches_the_reference_scan() {
        for seed in 0..60 {
            let n = 2 + seed as usize * 5;
            let hubs = seed as usize % 4;
            let edges = random_edges(n, hubs, seed);
            let fast = PartGraph::from_edges(n, &edges);
            let mut reference = PartGraph::new(n);
            for &(u, v, w) in &edges {
                reference.add_edge_reference(u, v, w);
            }
            // Equality covers every neighbour list's order and weights.
            assert_eq!(fast, reference, "seed {seed}");
        }
    }

    #[test]
    fn parallel_edges_accumulate() {
        let mut g = PartGraph::new(3);
        g.add_edge(0, 1, 2);
        g.add_edge(1, 0, 3);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.neighbors(0), &[(1, 5)]);
        assert_eq!(g.neighbors(1), &[(0, 5)]);
    }

    #[test]
    fn cut_and_weights() {
        let g = PartGraph::from_edges(4, &[(0, 1, 1), (1, 2, 5), (2, 3, 1), (0, 3, 2)]);
        assert_eq!(g.edge_cut(&[false, false, true, true]), 5 + 2);
        assert_eq!(g.edge_cut(&[false, false, false, false]), 0);
        assert_eq!(g.total_vertex_weight(), 4);
        assert_eq!(g.side_weight(&[false, false, true, true]), 2);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn rejects_self_loop() {
        let mut g = PartGraph::new(2);
        g.add_edge(1, 1, 1);
    }

    #[test]
    fn empty_graph() {
        let g = PartGraph::new(0);
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.edge_cut(&[]), 0);
        assert_eq!(g.total_vertex_weight(), 0);
    }
}
