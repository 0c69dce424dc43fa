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
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InterferenceGraph {
    /// Neighbours of node `i`, ascending: `adjacency[start[i]..start[i + 1]]`.
    start: Vec<usize>,
    adjacency: Vec<usize>,
    removed: Vec<bool>,
    degrees: Vec<usize>,
    live: usize,
}

impl InterferenceGraph {
    /// Builds the graph by pairwise bounding-box intersection tests.
    pub fn build(requests: &[CxRequest]) -> Self {
        let mut graph = InterferenceGraph::default();
        graph.rebuild(requests);
        graph
    }

    /// [`build`](Self::build) into this graph's buffers, which allocates
    /// nothing once they have grown to the layer.
    pub(crate) fn rebuild(&mut self, requests: &[CxRequest]) {
        let n = requests.len();
        let overlaps = |i: usize, j: usize| {
            requests[i]
                .outer_bbox()
                .overlaps_open(&requests[j].outer_bbox())
        };
        let InterferenceGraph {
            start,
            adjacency,
            removed,
            degrees,
            live,
        } = self;
        degrees.clear();
        degrees.resize(n, 0);
        for i in 0..n {
            for j in i + 1..n {
                if overlaps(i, j) {
                    degrees[i] += 1;
                    degrees[j] += 1;
                }
            }
        }
        start.clear();
        start.push(0);
        for i in 0..n {
            start.push(start[i] + degrees[i]);
        }
        adjacency.clear();
        adjacency.resize(start[n], 0);
        // Fill with `degrees` as the write cursors: node `k` receives its
        // neighbours below `k`, then those above, each ascending.
        degrees.copy_from_slice(&start[..n]);
        for i in 0..n {
            for j in i + 1..n {
                if overlaps(i, j) {
                    adjacency[degrees[i]] = j;
                    degrees[i] += 1;
                    adjacency[degrees[j]] = i;
                    degrees[j] += 1;
                }
            }
        }
        for (i, degree) in degrees.iter_mut().enumerate() {
            *degree -= start[i];
        }
        removed.clear();
        removed.resize(n, false);
        *live = n;
    }

    /// Total number of nodes, including removed ones.
    pub fn len(&self) -> usize {
        self.removed.len()
    }

    /// Whether the graph was built over zero requests.
    pub fn is_empty(&self) -> bool {
        self.removed.is_empty()
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
        self.adjacency[self.start[node]..self.start[node + 1]]
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

    /// Removes `node` from the live graph.
    ///
    /// # Panics
    ///
    /// Panics if the node was already removed.
    pub fn remove(&mut self, node: usize) {
        assert!(!self.removed[node], "node {node} removed twice");
        self.removed[node] = true;
        self.live -= 1;
        for k in self.start[node]..self.start[node + 1] {
            let m = self.adjacency[k];
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
        let mut own = 0;
        for k in self.start[node]..self.start[node + 1] {
            let m = self.adjacency[k];
            if !self.removed[m] {
                self.degrees[m] += 1;
                own += 1;
            }
        }
        self.degrees[node] = own;
    }

    /// Whether `node` has not been removed.
    pub(crate) fn is_live(&self, node: usize) -> bool {
        !self.removed[node]
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
    }

    #[test]
    fn removal_updates_degrees() {
        let mut g = InterferenceGraph::build(&chain_of(4));
        g.remove(1);
        assert_eq!(g.degree(0), 0);
        assert_eq!(g.degree(2), 1);
        assert_eq!(g.degree(1), 0, "removed node reports degree 0");
        assert!(!g.is_live(1) && g.is_live(0));
        g.restore(1);
        assert_eq!(g.degree(0), 1);
        assert!(g.is_live(1));
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
        assert_eq!(g.max_degree(), 3);
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
