//! Qubit coupling graph: two qubits are adjacent iff a two-qubit gate acts
//! on them; edge weights count interactions.

use autobraid_circuit::{Circuit, QubitId};

/// Weighted interaction graph of a circuit's two-qubit gates.
///
/// # Examples
///
/// ```
/// use autobraid_circuit::Circuit;
/// use autobraid_placement::coupling::CouplingGraph;
///
/// let mut c = Circuit::new(3);
/// c.cx(0, 1).cx(0, 1).cx(1, 2);
/// let g = CouplingGraph::of(&c);
/// assert_eq!(g.weight(0, 1), 2);
/// assert_eq!(g.degree(1), 2);
/// assert!(g.is_linear()); // path 0-1-2
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CouplingGraph {
    num_qubits: u32,
    /// The distinct interacting pairs `(a, b, weight)`, `a < b`, sorted.
    edges: Vec<(QubitId, QubitId, u64)>,
    /// `partners[offsets[q]..offsets[q + 1]]` are `q`'s partners, ascending.
    offsets: Vec<usize>,
    partners: Vec<QubitId>,
}

impl CouplingGraph {
    /// Builds the coupling graph of `circuit`: one sort of the packed
    /// qubit pairs of its two-qubit gates, whose runs are the edges and
    /// their weights.
    pub fn of(circuit: &Circuit) -> Self {
        let mut pairs: Vec<u64> = circuit
            .gates()
            .iter()
            .filter_map(|gate| gate.pair())
            .map(|(a, b)| u64::from(a.min(b)) << 32 | u64::from(a.max(b)))
            .collect();
        pairs.sort_unstable();
        let edges: Vec<(QubitId, QubitId, u64)> = pairs
            .chunk_by(|x, y| x == y)
            .map(|run| (run[0] >> 32, run[0], run.len()))
            .map(|(a, b, w)| (a as QubitId, b as QubitId, w as u64))
            .collect();
        let n = circuit.num_qubits() as usize;
        let mut offsets = vec![0; n + 1];
        for &(a, b, _) in &edges {
            offsets[a as usize + 1] += 1;
            offsets[b as usize + 1] += 1;
        }
        for q in 0..n {
            offsets[q + 1] += offsets[q];
        }
        // Walking the sorted edges fills each qubit's partners in
        // ascending order: every `(p, q)` with `p < q` comes before
        // every `(q, r)`.
        let mut partners = vec![0; offsets[n]];
        let mut fill = offsets.clone();
        for &(a, b, _) in &edges {
            partners[fill[a as usize]] = b;
            fill[a as usize] += 1;
            partners[fill[b as usize]] = a;
            fill[b as usize] += 1;
        }
        CouplingGraph {
            num_qubits: circuit.num_qubits(),
            edges,
            offsets,
            partners,
        }
    }

    /// Number of qubits (nodes), including isolated ones.
    pub fn num_qubits(&self) -> u32 {
        self.num_qubits
    }

    /// Number of distinct interacting pairs (edges).
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Interaction count between `a` and `b` (0 when they never interact).
    pub fn weight(&self, a: QubitId, b: QubitId) -> u64 {
        self.edges
            .binary_search_by_key(&(a.min(b), a.max(b)), |&(a, b, _)| (a, b))
            .map_or(0, |i| self.edges[i].2)
    }

    /// Distinct interaction partners of `q`, ascending.
    pub fn neighbors(&self, q: QubitId) -> &[QubitId] {
        &self.partners[self.offsets[q as usize]..self.offsets[q as usize + 1]]
    }

    /// Number of distinct partners of `q`.
    pub fn degree(&self, q: QubitId) -> usize {
        self.neighbors(q).len()
    }

    /// Maximum degree over all qubits.
    pub fn max_degree(&self) -> usize {
        self.offsets
            .windows(2)
            .map(|w| w[1] - w[0])
            .max()
            .unwrap_or(0)
    }

    /// Iterates over `(a, b, weight)` edges with `a < b`, sorted.
    pub fn edges(&self) -> impl Iterator<Item = (QubitId, QubitId, u64)> + '_ {
        self.edges.iter().copied()
    }

    /// Whether every qubit has degree ≤ 2 — the "special graphs" case the
    /// paper optimizes with a dedicated linear layout (paths and cycles,
    /// e.g. the 1-D Ising model).
    pub fn is_linear(&self) -> bool {
        self.max_degree() <= 2
    }

    /// Extracts the qubit ordering along a degree-≤2 coupling graph:
    /// concatenated path traversals (cycles are cut at their smallest
    /// node). Returns `None` if any qubit has degree > 2.
    pub fn linear_order(&self) -> Option<Vec<QubitId>> {
        if !self.is_linear() {
            return None;
        }
        let n = self.num_qubits as usize;
        let mut visited = vec![false; n];
        let mut order = Vec::with_capacity(n);
        // Path endpoints first (degree ≤ 1), then cycle cuts, then isolated.
        let mut starts: Vec<QubitId> = (0..self.num_qubits).collect();
        starts.sort_by_key(|&q| (self.degree(q), q));
        for start in starts {
            if visited[start as usize] {
                continue;
            }
            let mut current = start;
            visited[current as usize] = true;
            order.push(current);
            loop {
                let next = self
                    .neighbors(current)
                    .iter()
                    .copied()
                    .find(|&m| !visited[m as usize]);
                match next {
                    Some(m) => {
                        visited[m as usize] = true;
                        order.push(m);
                        current = m;
                    }
                    None => break,
                }
            }
        }
        Some(order)
    }

    /// Fraction of total interaction weight between qubit pairs — used by
    /// reports.
    pub fn total_weight(&self) -> u64 {
        self.edges.iter().map(|&(_, _, w)| w).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autobraid_circuit::generators::{ising::ising, qft::qft};

    #[test]
    fn weights_accumulate() {
        let mut c = Circuit::new(4);
        c.cx(0, 1).cx(1, 0).cz(2, 3).h(0);
        let g = CouplingGraph::of(&c);
        assert_eq!(g.weight(0, 1), 2, "direction-insensitive");
        assert_eq!(g.weight(2, 3), 1);
        assert_eq!(g.weight(0, 2), 0);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.total_weight(), 3);
    }

    #[test]
    fn sorted_runs_match_a_map_count_per_gate() {
        // Random circuits, repeated pairs and both gate directions
        // included: the same sorted edges and weights as one map insert
        // per two-qubit gate, and the same partners in the order that
        // map's keys listed them.
        use std::collections::BTreeMap;
        let mut rng = autobraid_telemetry::Rng64::seed_from_u64(7);
        for n in [1u32, 2, 3, 9, 40] {
            let mut c = Circuit::new(n);
            for _ in 0..rng.gen_range(0..200usize) {
                let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
                if a == b {
                    c.h(a);
                } else if rng.gen_bool(0.5) {
                    c.cx(a, b);
                } else {
                    c.cz(b, a);
                }
            }
            let mut map: BTreeMap<(QubitId, QubitId), u64> = BTreeMap::new();
            for (a, b) in c.gates().iter().filter_map(|g| g.pair()) {
                *map.entry((a.min(b), a.max(b))).or_insert(0) += 1;
            }
            let mut adjacency = vec![Vec::new(); n as usize];
            for &(a, b) in map.keys() {
                adjacency[a as usize].push(b);
                adjacency[b as usize].push(a);
            }
            let g = CouplingGraph::of(&c);
            let edges: Vec<_> = map.iter().map(|(&(a, b), &w)| (a, b, w)).collect();
            assert_eq!(g.edges().collect::<Vec<_>>(), edges, "n = {n}");
            for a in 0..n {
                assert_eq!(g.neighbors(a), adjacency[a as usize].as_slice());
                for b in 0..n {
                    assert_eq!(
                        g.weight(a, b),
                        map.get(&(a.min(b), a.max(b))).copied().unwrap_or(0)
                    );
                }
            }
            assert_eq!(
                g.max_degree(),
                adjacency.iter().map(Vec::len).max().unwrap_or(0)
            );
        }
    }

    #[test]
    fn ising_is_linear() {
        let g = CouplingGraph::of(&ising(12, 2).unwrap());
        assert!(g.is_linear());
        let order = g.linear_order().unwrap();
        assert_eq!(order.len(), 12);
        // Consecutive qubits in the order are coupled.
        for w in order.windows(2) {
            assert!(g.weight(w[0], w[1]) > 0, "{w:?} not coupled");
        }
    }

    #[test]
    fn qft_is_complete_graph() {
        let g = CouplingGraph::of(&qft(8).unwrap());
        assert_eq!(g.edge_count(), 28);
        assert_eq!(g.max_degree(), 7);
        assert!(!g.is_linear());
        assert!(g.linear_order().is_none());
    }

    #[test]
    fn cycle_coupling_linearizes() {
        let mut c = Circuit::new(5);
        for q in 0..5 {
            c.cx(q, (q + 1) % 5);
        }
        let g = CouplingGraph::of(&c);
        assert!(g.is_linear());
        let order = g.linear_order().unwrap();
        assert_eq!(order.len(), 5);
        // A cut cycle keeps all but one adjacency consecutive.
        let adjacent_pairs = order
            .windows(2)
            .filter(|w| g.weight(w[0], w[1]) > 0)
            .count();
        assert_eq!(adjacent_pairs, 4);
    }

    #[test]
    fn isolated_qubits_included() {
        let mut c = Circuit::new(5);
        c.cx(0, 1);
        let g = CouplingGraph::of(&c);
        assert!(g.is_linear());
        let order = g.linear_order().unwrap();
        assert_eq!(order.len(), 5, "isolated qubits still get positions");
    }

    #[test]
    fn empty_circuit_graph() {
        let g = CouplingGraph::of(&Circuit::new(3));
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.linear_order().unwrap(), vec![0, 1, 2]);
    }
}
