//! Validated braiding paths.

use autobraid_lattice::{Cell, Grid, Vertex};
use std::fmt;

/// A braiding-path routing request: CX gate `id` between the tiles
/// currently holding its two operand qubits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CxRequest {
    /// Caller-chosen identifier (typically the gate id in the circuit).
    pub id: usize,
    /// Tile of the first operand.
    pub a: Cell,
    /// Tile of the second operand.
    pub b: Cell,
    /// Scheduling priority: when congestion forces some gates of a batch
    /// to wait, higher-priority requests are routed earlier (schedulers
    /// set this to the gate's remaining critical-path weight so the
    /// dependence-critical gates are never the ones deferred). Ties fall
    /// back to the geometric orderings.
    pub priority: i64,
}

impl CxRequest {
    /// Creates a request with neutral priority.
    ///
    /// # Panics
    ///
    /// Panics if both operands sit on the same tile.
    pub fn new(id: usize, a: Cell, b: Cell) -> Self {
        assert_ne!(a, b, "CX operands must occupy distinct tiles");
        CxRequest {
            id,
            a,
            b,
            priority: 0,
        }
    }

    /// Sets the routing priority (higher routes earlier under congestion).
    pub fn with_priority(mut self, priority: i64) -> Self {
        self.priority = priority;
        self
    }

    /// Outer bounding box of the gate (encloses both tiles).
    pub fn outer_bbox(&self) -> autobraid_lattice::BBox {
        autobraid_lattice::BBox::of_gate(self.a, self.b)
    }
}

/// A validated braiding path: a simple sequence of pairwise-adjacent
/// vertices from a corner of one operand tile to a corner of the other.
///
/// # Examples
///
/// ```
/// use autobraid_lattice::{Cell, Grid, Vertex};
/// use autobraid_router::path::BraidPath;
///
/// let grid = Grid::new(4)?;
/// let path = BraidPath::new(
///     &grid,
///     Cell::new(0, 0),
///     Cell::new(0, 2),
///     vec![Vertex::new(0, 1), Vertex::new(0, 2)],
/// ).expect("valid path");
/// assert_eq!(path.len(), 2);
/// # Ok::<(), autobraid_lattice::LatticeError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BraidPath {
    vertices: Vec<Vertex>,
}

impl BraidPath {
    /// Validates and wraps a vertex sequence as a braiding path between
    /// tiles `a` and `b`. Returns `None` if the sequence is empty, leaves
    /// the grid, repeats a vertex, has non-adjacent consecutive vertices,
    /// or fails to start/end on corners of the two tiles (in either
    /// order).
    pub fn new(grid: &Grid, a: Cell, b: Cell, vertices: Vec<Vertex>) -> Option<Self> {
        if !BraidPath::is_walk_between(grid, a, b, &vertices) {
            return None;
        }
        let mut sorted = vertices.clone();
        sorted.sort();
        if sorted.windows(2).any(|w| w[0] == w[1]) {
            return None;
        }
        Some(BraidPath { vertices })
    }

    /// Every check of [`BraidPath::new`] but the one for a repeated
    /// vertex, in place: `vertices` is a nonempty walk of adjacent grid
    /// vertices from a corner of one tile to a corner of the other.
    pub fn is_walk_between(grid: &Grid, a: Cell, b: Cell, vertices: &[Vertex]) -> bool {
        let (Some(&first), Some(&last)) = (vertices.first(), vertices.last()) else {
            return false;
        };
        let endpoints_ok = (a.has_corner(first) && b.has_corner(last))
            || (b.has_corner(first) && a.has_corner(last));
        endpoints_ok
            && vertices.iter().all(|&v| grid.contains_vertex(v))
            && vertices.windows(2).all(|w| w[0].is_adjacent(w[1]))
    }

    /// Wraps a vertex sequence produced by a search reconstruction
    /// without the O(n log n) clone-and-sort validation of
    /// [`BraidPath::new`] — a correct search cannot emit an invalid
    /// path, and the hot routers construct thousands of these per
    /// compile. Debug builds still run the full validation.
    pub(crate) fn from_search(grid: &Grid, a: Cell, b: Cell, vertices: Vec<Vertex>) -> Self {
        debug_assert!(
            BraidPath::new(grid, a, b, vertices.clone()).is_some(),
            "search reconstruction produced an invalid path"
        );
        let _ = (grid, a, b);
        BraidPath { vertices }
    }

    /// Number of vertices on the path.
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    /// Braiding paths are never empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The vertices, in path order.
    pub fn vertices(&self) -> &[Vertex] {
        &self.vertices
    }

    /// First vertex.
    pub fn start(&self) -> Vertex {
        self.vertices[0]
    }

    /// Last vertex.
    pub fn end(&self) -> Vertex {
        *self.vertices.last().expect("paths are non-empty")
    }

    /// Whether this path shares a vertex with `other` (i.e. they would
    /// cross if braided simultaneously).
    pub fn intersects(&self, other: &BraidPath) -> bool {
        self.vertices.iter().any(|v| other.vertices.contains(v))
    }

    /// Whether every vertex lies inside or on the boundary of `bbox`.
    pub fn confined_to(&self, bbox: &autobraid_lattice::BBox) -> bool {
        self.vertices.iter().all(|&v| bbox.contains(v))
    }
}

impl fmt::Display for BraidPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "path[")?;
        for (i, v) in self.vertices.iter().enumerate() {
            if i > 0 {
                write!(f, " → ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> Grid {
        Grid::new(4).unwrap()
    }

    #[test]
    fn request_rejects_same_tile() {
        let r = CxRequest::new(0, Cell::new(0, 0), Cell::new(1, 1));
        assert_eq!(r.id, 0);
        let caught =
            std::panic::catch_unwind(|| CxRequest::new(1, Cell::new(2, 2), Cell::new(2, 2)));
        assert!(caught.is_err());
    }

    #[test]
    fn valid_straight_path() {
        let p = BraidPath::new(
            &grid(),
            Cell::new(0, 0),
            Cell::new(0, 3),
            vec![Vertex::new(0, 1), Vertex::new(0, 2), Vertex::new(0, 3)],
        );
        assert!(p.is_some());
        let p = p.unwrap();
        assert_eq!(p.start(), Vertex::new(0, 1));
        assert_eq!(p.end(), Vertex::new(0, 3));
    }

    #[test]
    fn single_vertex_path_between_touching_cells() {
        // Diagonal neighbours share the corner (1,1).
        let p = BraidPath::new(
            &grid(),
            Cell::new(0, 0),
            Cell::new(1, 1),
            vec![Vertex::new(1, 1)],
        );
        assert!(p.is_some());
        assert_eq!(p.unwrap().len(), 1);
    }

    #[test]
    fn reversed_endpoints_accepted() {
        let p = BraidPath::new(
            &grid(),
            Cell::new(0, 2),
            Cell::new(0, 0),
            vec![Vertex::new(0, 1), Vertex::new(0, 2)],
        );
        assert!(p.is_some());
    }

    #[test]
    fn rejects_bad_paths() {
        let g = grid();
        let (a, b) = (Cell::new(0, 0), Cell::new(0, 2));
        // Empty.
        assert!(BraidPath::new(&g, a, b, vec![]).is_none());
        // Wrong endpoint.
        assert!(BraidPath::new(&g, a, b, vec![Vertex::new(3, 3)]).is_none());
        // Gap between consecutive vertices.
        assert!(BraidPath::new(&g, a, b, vec![Vertex::new(0, 1), Vertex::new(0, 3)]).is_none());
        // Repeated vertex (not simple).
        assert!(BraidPath::new(
            &g,
            a,
            b,
            vec![
                Vertex::new(0, 1),
                Vertex::new(1, 1),
                Vertex::new(0, 1),
                Vertex::new(0, 2)
            ]
        )
        .is_none());
        // Off-grid vertex.
        assert!(BraidPath::new(
            &g,
            a,
            b,
            vec![Vertex::new(0, 1), Vertex::new(0, 2), Vertex::new(0, 5)]
        )
        .is_none());
    }

    #[test]
    fn intersection_detection() {
        let g = grid();
        let p1 = BraidPath::new(
            &g,
            Cell::new(0, 0),
            Cell::new(0, 2),
            vec![Vertex::new(0, 1), Vertex::new(0, 2)],
        )
        .unwrap();
        let p2 = BraidPath::new(
            &g,
            Cell::new(1, 1),
            Cell::new(1, 3),
            vec![Vertex::new(1, 2), Vertex::new(1, 3)],
        )
        .unwrap();
        assert!(!p1.intersects(&p2));
        let crossing = BraidPath::new(
            &g,
            Cell::new(0, 1),
            Cell::new(2, 1),
            vec![Vertex::new(0, 2), Vertex::new(1, 2), Vertex::new(2, 2)],
        )
        .unwrap();
        assert!(crossing.intersects(&p2));
    }

    #[test]
    fn confinement() {
        let g = grid();
        let p = BraidPath::new(
            &g,
            Cell::new(0, 0),
            Cell::new(0, 2),
            vec![Vertex::new(0, 1), Vertex::new(0, 2)],
        )
        .unwrap();
        assert!(p.confined_to(&autobraid_lattice::BBox::new(0, 0, 1, 3)));
        assert!(!p.confined_to(&autobraid_lattice::BBox::new(1, 0, 2, 3)));
    }
}
