//! Coordinate types for the surface-code routing grid.
//!
//! The lattice is partitioned into an `L × L` grid of unit *cells* (tiles),
//! each holding one logical qubit. Braiding paths are routed through the
//! *channels* between tiles; channels intersect at *vertices*. A grid with
//! `L` cells per side has `(L + 1) × (L + 1)` vertices.
//!
//! ```text
//!   v(0,0) --- v(0,1) --- v(0,2)
//!     |   cell   |   cell   |
//!     |  (0,0)   |  (0,1)   |
//!   v(1,0) --- v(1,1) --- v(1,2)
//! ```

use std::fmt;

/// A channel intersection in the routing grid.
///
/// Vertices are addressed `(row, col)` with `0 ≤ row, col ≤ L` for a grid of
/// `L` cells per side.
///
/// # Examples
///
/// ```
/// use autobraid_lattice::geometry::Vertex;
///
/// let v = Vertex::new(2, 3);
/// assert_eq!(v.manhattan_distance(Vertex::new(0, 0)), 5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Vertex {
    /// Row index (0 at the top of the grid).
    pub row: u32,
    /// Column index (0 at the left of the grid).
    pub col: u32,
}

impl Vertex {
    /// Creates a vertex at `(row, col)`.
    #[inline]
    pub const fn new(row: u32, col: u32) -> Self {
        Vertex { row, col }
    }

    /// Manhattan (L1) distance to `other`.
    ///
    /// ```
    /// # use autobraid_lattice::geometry::Vertex;
    /// assert_eq!(Vertex::new(1, 1).manhattan_distance(Vertex::new(4, 3)), 5);
    /// ```
    #[inline]
    pub fn manhattan_distance(self, other: Vertex) -> u32 {
        self.row.abs_diff(other.row) + self.col.abs_diff(other.col)
    }

    /// Whether `other` is a 4-neighbour of `self` (shares a channel segment).
    #[inline]
    pub fn is_adjacent(self, other: Vertex) -> bool {
        self.manhattan_distance(other) == 1
    }
}

impl fmt::Display for Vertex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v({},{})", self.row, self.col)
    }
}

/// A logical-qubit tile position in the cell grid.
///
/// Cells are addressed `(row, col)` with `0 ≤ row, col < L`.
///
/// # Examples
///
/// ```
/// use autobraid_lattice::geometry::{Cell, Vertex};
///
/// let c = Cell::new(1, 2);
/// assert!(c.corners().contains(&Vertex::new(1, 2)));
/// assert!(c.corners().contains(&Vertex::new(2, 3)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cell {
    /// Row index of the tile.
    pub row: u32,
    /// Column index of the tile.
    pub col: u32,
}

impl Cell {
    /// Creates a cell at `(row, col)`.
    #[inline]
    pub const fn new(row: u32, col: u32) -> Self {
        Cell { row, col }
    }

    /// The four corner vertices of this cell, in row-major order:
    /// top-left, top-right, bottom-left, bottom-right.
    #[inline]
    pub fn corners(self) -> [Vertex; 4] {
        [
            Vertex::new(self.row, self.col),
            Vertex::new(self.row, self.col + 1),
            Vertex::new(self.row + 1, self.col),
            Vertex::new(self.row + 1, self.col + 1),
        ]
    }

    /// Manhattan distance between tile centres, in cell units.
    #[inline]
    pub fn manhattan_distance(self, other: Cell) -> u32 {
        self.row.abs_diff(other.row) + self.col.abs_diff(other.col)
    }

    /// Minimum Manhattan distance between any corner of `self` and any
    /// corner of `other`. This is the routing distance lower bound used by
    /// the greedy baseline's priority ordering.
    pub fn corner_distance(self, other: Cell) -> u32 {
        let mut best = u32::MAX;
        for a in self.corners() {
            for b in other.corners() {
                best = best.min(a.manhattan_distance(b));
            }
        }
        best
    }

    /// Whether `v` is one of this cell's four corners.
    #[inline]
    pub fn has_corner(self, v: Vertex) -> bool {
        (v.row == self.row || v.row == self.row + 1) && (v.col == self.col || v.col == self.col + 1)
    }
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cell({},{})", self.row, self.col)
    }
}

/// An axis-aligned bounding box in **vertex** coordinates (inclusive).
///
/// Bounding boxes drive the LLG decomposition and the CX interference graph
/// (Section 3.3 of the paper). The *outer* bounding box of a CX gate is the
/// minimal box enclosing all eight corner vertices of its two operand cells;
/// the *inner* bounding box encloses at least one vertex of each (the
/// closest pair of corners).
///
/// # Examples
///
/// ```
/// use autobraid_lattice::geometry::{BBox, Cell};
///
/// let a = BBox::of_cell(Cell::new(0, 0));
/// let b = BBox::of_cell(Cell::new(0, 1));
/// assert!(a.intersects(&b)); // adjacent cells share a channel edge
/// let c = BBox::of_cell(Cell::new(5, 5));
/// assert!(!a.intersects(&c));
/// assert!(a.union(&c).contains_box(&b));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BBox {
    /// Minimal row (inclusive).
    pub min_row: u32,
    /// Minimal column (inclusive).
    pub min_col: u32,
    /// Maximal row (inclusive).
    pub max_row: u32,
    /// Maximal column (inclusive).
    pub max_col: u32,
}

impl BBox {
    /// Creates a bounding box from inclusive vertex extents.
    ///
    /// # Panics
    ///
    /// Panics if `min_row > max_row` or `min_col > max_col`.
    pub fn new(min_row: u32, min_col: u32, max_row: u32, max_col: u32) -> Self {
        assert!(
            min_row <= max_row && min_col <= max_col,
            "inverted bounding box: ({min_row},{min_col})-({max_row},{max_col})"
        );
        BBox {
            min_row,
            min_col,
            max_row,
            max_col,
        }
    }

    /// The bounding box of a single vertex.
    #[inline]
    pub fn of_vertex(v: Vertex) -> Self {
        BBox {
            min_row: v.row,
            min_col: v.col,
            max_row: v.row,
            max_col: v.col,
        }
    }

    /// The bounding box of one cell (its four corner vertices).
    #[inline]
    pub fn of_cell(c: Cell) -> Self {
        BBox {
            min_row: c.row,
            min_col: c.col,
            max_row: c.row + 1,
            max_col: c.col + 1,
        }
    }

    /// Outer bounding box of a CX gate with operand tiles `a` and `b`:
    /// the minimal box enclosing both cells' corners.
    pub fn of_gate(a: Cell, b: Cell) -> Self {
        BBox::of_cell(a).union(&BBox::of_cell(b))
    }

    /// Inner bounding box of a CX gate: the minimal box containing at least
    /// one corner vertex of each operand cell (the box spanned by the
    /// closest corner pair).
    pub fn inner_of_gate(a: Cell, b: Cell) -> Self {
        // The closest pair of corners spans the gap between the two tiles.
        let mut best = (u32::MAX, Vertex::default(), Vertex::default());
        for va in a.corners() {
            for vb in b.corners() {
                let d = va.manhattan_distance(vb);
                if d < best.0 {
                    best = (d, va, vb);
                }
            }
        }
        let (_, va, vb) = best;
        BBox {
            min_row: va.row.min(vb.row),
            min_col: va.col.min(vb.col),
            max_row: va.row.max(vb.row),
            max_col: va.col.max(vb.col),
        }
    }

    /// Width in vertex columns spanned (`max_col - min_col`).
    #[inline]
    pub fn width(&self) -> u32 {
        self.max_col - self.min_col
    }

    /// Height in vertex rows spanned (`max_row - min_row`).
    #[inline]
    pub fn height(&self) -> u32 {
        self.max_row - self.min_row
    }

    /// Area in cell units (`width × height`). A degenerate (one-dimensional)
    /// box has area zero.
    #[inline]
    pub fn area(&self) -> u64 {
        u64::from(self.width()) * u64::from(self.height())
    }

    /// Number of vertices enclosed (inclusive on both axes).
    #[inline]
    pub fn vertex_count(&self) -> u64 {
        u64::from(self.width() + 1) * u64::from(self.height() + 1)
    }

    /// Whether the two boxes share at least one vertex.
    #[inline]
    pub fn intersects(&self, other: &BBox) -> bool {
        self.min_row <= other.max_row
            && other.min_row <= self.max_row
            && self.min_col <= other.max_col
            && other.min_col <= self.max_col
    }

    /// Whether the two boxes overlap with positive area — sharing only a
    /// boundary line or corner does **not** count.
    ///
    /// This is the overlap notion used for LLG formation and CX
    /// interference: two gates whose boxes merely touch can each route
    /// inside their own box without contention, so they are independent
    /// (e.g. the chained neighbour pairs of the Ising model stay separate
    /// LLGs, as in the paper's Fig. 7 analysis).
    #[inline]
    pub fn overlaps_open(&self, other: &BBox) -> bool {
        self.min_row < other.max_row
            && other.min_row < self.max_row
            && self.min_col < other.max_col
            && other.min_col < self.max_col
    }

    /// Whether `v` lies inside or on the boundary of this box.
    #[inline]
    pub fn contains(&self, v: Vertex) -> bool {
        v.row >= self.min_row
            && v.row <= self.max_row
            && v.col >= self.min_col
            && v.col <= self.max_col
    }

    /// Whether `other` lies entirely inside or on the boundary of this box.
    #[inline]
    pub fn contains_box(&self, other: &BBox) -> bool {
        self.min_row <= other.min_row
            && self.min_col <= other.min_col
            && self.max_row >= other.max_row
            && self.max_col >= other.max_col
    }

    /// Whether `other` is *strictly nested* in `self`: contained entirely in
    /// the interior, with no shared boundary vertex (the Theorem 2
    /// condition: "B's bounding box encloses A's bounding box and they do
    /// not overlap").
    #[inline]
    pub fn strictly_nests(&self, other: &BBox) -> bool {
        self.min_row < other.min_row
            && self.min_col < other.min_col
            && self.max_row > other.max_row
            && self.max_col > other.max_col
    }

    /// The minimal box enclosing both `self` and `other` (the *joint*
    /// bounding box used to form LLGs).
    #[inline]
    pub fn union(&self, other: &BBox) -> BBox {
        BBox {
            min_row: self.min_row.min(other.min_row),
            min_col: self.min_col.min(other.min_col),
            max_row: self.max_row.max(other.max_row),
            max_col: self.max_col.max(other.max_col),
        }
    }

    /// Grows the box by one vertex ring on every side, clamped to the grid
    /// of `l` cells per side (vertex indices `0..=l`). Used to route along
    /// the boundary of an LLG's bounding box.
    pub fn expanded(&self, by: u32, l: u32) -> BBox {
        BBox {
            min_row: self.min_row.saturating_sub(by),
            min_col: self.min_col.saturating_sub(by),
            max_row: (self.max_row + by).min(l),
            max_col: (self.max_col + by).min(l),
        }
    }

    /// Iterates over every vertex inside or on the boundary of the box in
    /// row-major order.
    pub fn vertices(&self) -> impl Iterator<Item = Vertex> + '_ {
        let (r0, r1, c0, c1) = (self.min_row, self.max_row, self.min_col, self.max_col);
        (r0..=r1).flat_map(move |r| (c0..=c1).map(move |c| Vertex::new(r, c)))
    }
}

impl fmt::Display for BBox {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "bbox[({},{})..({},{})]",
            self.min_row, self.min_col, self.max_row, self.max_col
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vertex_distance_symmetric() {
        let a = Vertex::new(3, 7);
        let b = Vertex::new(5, 2);
        assert_eq!(a.manhattan_distance(b), 7);
        assert_eq!(b.manhattan_distance(a), 7);
        assert_eq!(a.manhattan_distance(a), 0);
    }

    #[test]
    fn vertex_adjacency() {
        let v = Vertex::new(1, 1);
        assert!(v.is_adjacent(Vertex::new(0, 1)));
        assert!(v.is_adjacent(Vertex::new(1, 2)));
        assert!(!v.is_adjacent(Vertex::new(2, 2)));
        assert!(!v.is_adjacent(v));
    }

    #[test]
    fn cell_corners_are_adjacent_square() {
        let c = Cell::new(4, 9);
        let [tl, tr, bl, br] = c.corners();
        assert!(tl.is_adjacent(tr));
        assert!(tl.is_adjacent(bl));
        assert!(br.is_adjacent(tr));
        assert!(br.is_adjacent(bl));
        assert_eq!(tl.manhattan_distance(br), 2);
    }

    #[test]
    fn cell_corner_distance() {
        // Horizontally adjacent cells share two corner vertices.
        assert_eq!(Cell::new(0, 0).corner_distance(Cell::new(0, 1)), 0);
        // One cell apart: closest corners are 1 channel segment away.
        assert_eq!(Cell::new(0, 0).corner_distance(Cell::new(0, 2)), 1);
        // Diagonal neighbours share exactly one corner.
        assert_eq!(Cell::new(0, 0).corner_distance(Cell::new(1, 1)), 0);
    }

    #[test]
    fn cell_has_corner() {
        let c = Cell::new(2, 3);
        for v in c.corners() {
            assert!(c.has_corner(v));
        }
        assert!(!c.has_corner(Vertex::new(2, 5)));
        assert!(!c.has_corner(Vertex::new(4, 3)));
    }

    #[test]
    fn bbox_of_gate_encloses_both_cells() {
        let a = Cell::new(0, 0);
        let b = Cell::new(3, 2);
        let bb = BBox::of_gate(a, b);
        for v in a.corners().into_iter().chain(b.corners()) {
            assert!(bb.contains(v), "{bb} should contain {v}");
        }
        assert_eq!(bb, BBox::new(0, 0, 4, 3));
    }

    #[test]
    fn inner_bbox_spans_closest_corners() {
        let a = Cell::new(0, 0);
        let b = Cell::new(0, 3);
        let inner = BBox::inner_of_gate(a, b);
        // Closest corners: (0,1)/(1,1) of a and (0,3)/(1,3) of b; the
        // search picks the first minimal pair which is (0,1)-(0,3).
        assert_eq!(inner.height(), 0);
        assert_eq!(inner.min_col, 1);
        assert_eq!(inner.max_col, 3);
    }

    #[test]
    fn inner_bbox_disjoint_from_outer_boundary_for_2d_gate() {
        // For a gate whose outer box is 2-dimensional, the inner box must
        // not touch the outer boundary (Appendix, Fig. 19).
        let a = Cell::new(0, 0);
        let b = Cell::new(2, 2);
        let outer = BBox::of_gate(a, b);
        let inner = BBox::inner_of_gate(a, b);
        assert!(inner.min_row > outer.min_row);
        assert!(inner.min_col > outer.min_col);
        assert!(inner.max_row < outer.max_row);
        assert!(inner.max_col < outer.max_col);
    }

    #[test]
    fn bbox_intersection_cases() {
        let a = BBox::new(0, 0, 2, 2);
        assert!(a.intersects(&BBox::new(2, 2, 4, 4)), "corner touch counts");
        assert!(a.intersects(&BBox::new(1, 1, 1, 1)));
        assert!(!a.intersects(&BBox::new(3, 0, 5, 2)));
        assert!(!a.intersects(&BBox::new(0, 3, 2, 5)));
    }

    #[test]
    fn bbox_open_overlap_cases() {
        let a = BBox::new(0, 0, 2, 2);
        assert!(
            !a.overlaps_open(&BBox::new(2, 2, 4, 4)),
            "corner touch is not open overlap"
        );
        assert!(
            !a.overlaps_open(&BBox::new(0, 2, 2, 4)),
            "edge touch is not open overlap"
        );
        assert!(
            a.overlaps_open(&BBox::new(1, 1, 3, 3)),
            "area overlap counts"
        );
        assert!(a.overlaps_open(&a), "a 2-D box overlaps itself");
        // Degenerate boxes have no interior, hence no open overlap.
        let line = BBox::new(1, 0, 1, 4);
        assert!(!line.overlaps_open(&line));
        assert!(!a.overlaps_open(&BBox::new(5, 5, 9, 9)));
    }

    #[test]
    fn bbox_union_and_containment() {
        let a = BBox::new(0, 0, 1, 1);
        let b = BBox::new(3, 4, 5, 6);
        let u = a.union(&b);
        assert!(u.contains_box(&a));
        assert!(u.contains_box(&b));
        assert_eq!(u, BBox::new(0, 0, 5, 6));
    }

    #[test]
    fn strict_nesting() {
        let outer = BBox::new(0, 0, 5, 5);
        assert!(outer.strictly_nests(&BBox::new(1, 1, 4, 4)));
        assert!(
            !outer.strictly_nests(&BBox::new(0, 1, 4, 4)),
            "shared border"
        );
        assert!(!outer.strictly_nests(&outer));
        assert!(!BBox::new(1, 1, 4, 4).strictly_nests(&outer));
    }

    #[test]
    fn bbox_area_and_vertices() {
        let b = BBox::new(1, 1, 3, 4);
        assert_eq!(b.area(), 6);
        assert_eq!(b.vertex_count(), 12);
        assert_eq!(b.vertices().count(), 12);
        let degenerate = BBox::new(2, 2, 2, 5);
        assert_eq!(degenerate.area(), 0);
        assert_eq!(degenerate.vertex_count(), 4);
    }

    #[test]
    fn bbox_expand_clamps_to_grid() {
        let b = BBox::new(0, 0, 2, 2);
        let e = b.expanded(1, 3);
        assert_eq!(e, BBox::new(0, 0, 3, 3));
        let f = BBox::new(1, 1, 2, 2).expanded(1, 10);
        assert_eq!(f, BBox::new(0, 0, 3, 3));
    }

    #[test]
    #[should_panic(expected = "inverted bounding box")]
    fn bbox_rejects_inverted_extents() {
        let _ = BBox::new(3, 0, 1, 5);
    }
}
