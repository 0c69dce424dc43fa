//! CX interference graph (paper §3.3.2).
//!
//! Nodes are concurrent CX gates; an edge means the two gates' outer
//! bounding boxes intersect. The stack-based path finder peels
//! maximum-degree nodes off this graph.
//!
//! The graph is built per layer, by whoever reads it: the stack finder
//! when a layer has an LLG of more than 3 gates to peel, and the
//! portfolio policy to score a layer's interference density. Policies
//! that never read it (PathFinder, greedy, Maslov adjacency) never pay
//! for it.

use crate::path::CxRequest;

/// Mutable CX interference graph over a slice of requests.
///
/// # Examples
///
/// ```
/// use autobraid_lattice::Cell;
/// use autobraid_router::interference::InterferenceGraph;
/// use autobraid_router::path::CxRequest;
///
/// let rs = vec![
///     CxRequest::new(0, Cell::new(0, 0), Cell::new(2, 2)),
///     CxRequest::new(1, Cell::new(1, 1), Cell::new(3, 3)), // overlaps 0
///     CxRequest::new(2, Cell::new(8, 8), Cell::new(9, 9)), // isolated
/// ];
/// let graph = InterferenceGraph::build(&rs);
/// assert_eq!(graph.degree(0), 1);
/// assert_eq!(graph.degree(2), 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InterferenceGraph {
    adjacency: Vec<Vec<usize>>,
    removed: Vec<bool>,
    degrees: Vec<usize>,
    live: usize,
}

impl InterferenceGraph {
    /// Builds the graph by pairwise bounding-box intersection tests.
    pub fn build(requests: &[CxRequest]) -> Self {
        let n = requests.len();
        let boxes: Vec<_> = requests.iter().map(|r| r.outer_bbox()).collect();
        let mut adjacency: Vec<Vec<usize>> = vec![Vec::new(); n];
        for i in 0..n {
            for j in i + 1..n {
                if boxes[i].overlaps_open(&boxes[j]) {
                    adjacency[i].push(j);
                    adjacency[j].push(i);
                }
            }
        }
        let degrees = adjacency.iter().map(Vec::len).collect();
        InterferenceGraph {
            adjacency,
            removed: vec![false; n],
            degrees,
            live: n,
        }
    }

    /// Total number of nodes, including removed ones.
    pub fn len(&self) -> usize {
        self.adjacency.len()
    }

    /// Whether the graph was built over zero requests.
    pub fn is_empty(&self) -> bool {
        self.adjacency.is_empty()
    }

    /// Current degree of `node` (removed neighbours do not count).
    pub fn degree(&self, node: usize) -> usize {
        if self.removed[node] {
            return 0;
        }
        self.degrees[node]
    }

    /// Live neighbours of `node`.
    pub fn neighbors(&self, node: usize) -> Vec<usize> {
        if self.removed[node] {
            return Vec::new();
        }
        self.adjacency[node]
            .iter()
            .copied()
            .filter(|&m| !self.removed[m])
            .collect()
    }

    /// Maximum degree among live nodes (0 when none remain).
    pub fn max_degree(&self) -> usize {
        (0..self.len())
            .filter(|&i| !self.removed[i])
            .map(|i| self.degrees[i])
            .max()
            .unwrap_or(0)
    }

    /// All live nodes with the current maximum degree.
    pub fn max_degree_nodes(&self) -> Vec<usize> {
        let max = self.max_degree();
        (0..self.len())
            .filter(|&i| !self.removed[i] && self.degree(i) == max)
            .collect()
    }

    /// Removes `node` from the live graph.
    ///
    /// # Panics
    ///
    /// Panics if the node was already removed.
    pub fn remove(&mut self, node: usize) {
        assert!(!self.removed[node], "node {node} removed twice");
        self.removed[node] = true;
        self.live -= 1;
        let neighbors: Vec<usize> = self.adjacency[node].clone();
        for m in neighbors {
            if !self.removed[m] {
                self.degrees[m] -= 1;
            }
        }
        self.degrees[node] = 0;
    }

    /// Restores a removed node (used when the layout optimizer backtracks).
    pub fn restore(&mut self, node: usize) {
        assert!(self.removed[node], "node {node} is not removed");
        self.removed[node] = false;
        self.live += 1;
        let neighbors: Vec<usize> = self.adjacency[node].clone();
        let mut own = 0;
        for m in neighbors {
            if !self.removed[m] {
                self.degrees[m] += 1;
                own += 1;
            }
        }
        self.degrees[node] = own;
    }

    /// Live node ids in ascending order.
    pub fn live_nodes(&self) -> Vec<usize> {
        (0..self.len()).filter(|&i| !self.removed[i]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autobraid_lattice::Cell;

    fn req(id: usize, a: (u32, u32), b: (u32, u32)) -> CxRequest {
        CxRequest::new(id, Cell::new(a.0, a.1), Cell::new(b.0, b.1))
    }

    fn chain_of(n: usize) -> Vec<CxRequest> {
        // Horizontally overlapping chain: gate i spans columns 2i .. 2i+3.
        (0..n)
            .map(|i| req(i, (0, 2 * i as u32), (0, 2 * i as u32 + 2)))
            .collect()
    }

    #[test]
    fn chain_degrees() {
        let g = InterferenceGraph::build(&chain_of(4));
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.degree(2), 2);
        assert_eq!(g.degree(3), 1);
        assert_eq!(g.max_degree(), 2);
        assert_eq!(g.max_degree_nodes(), vec![1, 2]);
    }

    #[test]
    fn removal_updates_degrees() {
        let mut g = InterferenceGraph::build(&chain_of(4));
        g.remove(1);
        assert_eq!(g.degree(0), 0);
        assert_eq!(g.degree(2), 1);
        assert_eq!(g.degree(1), 0, "removed node reports degree 0");
        g.restore(1);
        assert_eq!(g.degree(0), 1);
    }

    #[test]
    fn isolated_nodes() {
        let rs = vec![req(0, (0, 0), (0, 1)), req(1, (5, 5), (5, 6))];
        let g = InterferenceGraph::build(&rs);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.neighbors(0), Vec::<usize>::new());
    }

    #[test]
    fn empty_graph() {
        let g = InterferenceGraph::build(&[]);
        assert!(g.is_empty());
        assert_eq!(g.max_degree(), 0);
        assert!(g.max_degree_nodes().is_empty());
        assert_eq!(g.live_nodes(), Vec::<usize>::new());
    }

    #[test]
    fn star_pattern() {
        // One big gate crossing three small disjoint ones.
        let rs = vec![
            req(0, (0, 0), (0, 9)), // spans the whole row
            req(1, (0, 1), (0, 2)),
            req(2, (0, 4), (0, 5)),
            req(3, (0, 7), (0, 8)),
        ];
        let g = InterferenceGraph::build(&rs);
        assert_eq!(g.degree(0), 3);
        assert_eq!(g.max_degree_nodes(), vec![0]);
        assert_eq!(g.degree(1), 1);
    }

    #[test]
    #[should_panic(expected = "removed twice")]
    fn double_removal_panics() {
        let mut g = InterferenceGraph::build(&chain_of(2));
        g.remove(0);
        g.remove(0);
    }
}
