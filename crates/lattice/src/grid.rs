//! The routing grid: cells, vertices, and adjacency.

use crate::error::LatticeError;
use crate::geometry::{Cell, Vertex};

/// An `L × L` grid of logical-qubit tiles with its channel routing graph.
///
/// The grid owns no mutable routing state — occupancy lives in
/// [`crate::occupancy::Occupancy`] so that schedulers can snapshot, fork,
/// and roll back reservations cheaply.
///
/// # Examples
///
/// ```
/// use autobraid_lattice::grid::Grid;
/// use autobraid_lattice::geometry::Vertex;
///
/// let grid = Grid::with_capacity_for(10); // ceil(sqrt(10)) = 4 cells/side
/// assert_eq!(grid.cells_per_side(), 4);
/// assert_eq!(grid.vertex_count(), 25);
/// assert_eq!(grid.neighbors(Vertex::new(0, 0)).count(), 2);
/// assert_eq!(grid.neighbors(Vertex::new(2, 2)).count(), 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Grid {
    cells_per_side: u32,
}

impl Grid {
    /// Creates a grid with `l` cells per side.
    ///
    /// # Errors
    ///
    /// Returns [`LatticeError::EmptyGrid`] if `l == 0`.
    pub fn new(l: u32) -> Result<Self, LatticeError> {
        if l == 0 {
            return Err(LatticeError::EmptyGrid);
        }
        Ok(Grid { cells_per_side: l })
    }

    /// The smallest square grid that fits `n` logical qubits:
    /// `L = ceil(sqrt(n))`, as in the paper's evaluation platform.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn with_capacity_for(n: usize) -> Self {
        assert!(n > 0, "a grid must hold at least one qubit");
        let l = (n as f64).sqrt().ceil() as u32;
        Grid {
            cells_per_side: l.max(1),
        }
    }

    /// Number of unit cells per side (`L`).
    #[inline]
    pub fn cells_per_side(&self) -> u32 {
        self.cells_per_side
    }

    /// Number of vertices per side (`L + 1`).
    #[inline]
    pub fn vertices_per_side(&self) -> u32 {
        self.cells_per_side + 1
    }

    /// Total number of tiles (`L²`).
    #[inline]
    pub fn cell_count(&self) -> usize {
        (self.cells_per_side as usize).pow(2)
    }

    /// Total number of routing vertices (`(L + 1)²`).
    #[inline]
    pub fn vertex_count(&self) -> usize {
        (self.vertices_per_side() as usize).pow(2)
    }

    /// Whether `v` lies in the grid.
    #[inline]
    pub fn contains_vertex(&self, v: Vertex) -> bool {
        v.row <= self.cells_per_side && v.col <= self.cells_per_side
    }

    /// Whether `c` lies in the grid.
    #[inline]
    pub fn contains_cell(&self, c: Cell) -> bool {
        c.row < self.cells_per_side && c.col < self.cells_per_side
    }

    /// Dense index of a vertex, for occupancy bitmaps.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `v` is outside the grid.
    #[inline]
    pub fn vertex_index(&self, v: Vertex) -> usize {
        debug_assert!(self.contains_vertex(v), "{v} outside {self:?}");
        v.row as usize * self.vertices_per_side() as usize + v.col as usize
    }

    /// Inverse of [`Grid::vertex_index`].
    #[inline]
    pub fn vertex_at(&self, index: usize) -> Vertex {
        let side = self.vertices_per_side() as usize;
        Vertex::new((index / side) as u32, (index % side) as u32)
    }

    /// Dense index of a cell, for placement maps.
    #[inline]
    pub fn cell_index(&self, c: Cell) -> usize {
        debug_assert!(self.contains_cell(c), "{c} outside {self:?}");
        c.row as usize * self.cells_per_side as usize + c.col as usize
    }

    /// Inverse of [`Grid::cell_index`].
    #[inline]
    pub fn cell_at(&self, index: usize) -> Cell {
        let side = self.cells_per_side as usize;
        Cell::new((index / side) as u32, (index % side) as u32)
    }

    /// Iterates over all cells in row-major order.
    pub fn cells(&self) -> impl Iterator<Item = Cell> + '_ {
        let l = self.cells_per_side;
        (0..l).flat_map(move |r| (0..l).map(move |c| Cell::new(r, c)))
    }

    /// Iterates over all vertices in row-major order.
    pub fn vertices(&self) -> impl Iterator<Item = Vertex> + '_ {
        let s = self.vertices_per_side();
        (0..s).flat_map(move |r| (0..s).map(move |c| Vertex::new(r, c)))
    }

    /// The 4-neighbours of `v` that lie in the grid (2 at corners, 3 on
    /// borders, 4 in the interior).
    pub fn neighbors(&self, v: Vertex) -> impl Iterator<Item = Vertex> + '_ {
        let l = self.cells_per_side;
        let mut out = [None; 4];
        if v.row > 0 {
            out[0] = Some(Vertex::new(v.row - 1, v.col));
        }
        if v.row < l {
            out[1] = Some(Vertex::new(v.row + 1, v.col));
        }
        if v.col > 0 {
            out[2] = Some(Vertex::new(v.row, v.col - 1));
        }
        if v.col < l {
            out[3] = Some(Vertex::new(v.row, v.col + 1));
        }
        out.into_iter().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_zero_size() {
        assert!(matches!(Grid::new(0), Err(LatticeError::EmptyGrid)));
        assert!(Grid::new(1).is_ok());
    }

    #[test]
    fn capacity_sizing_matches_paper() {
        // L = ceil(sqrt(N)) per the evaluation setup.
        assert_eq!(Grid::with_capacity_for(1).cells_per_side(), 1);
        assert_eq!(Grid::with_capacity_for(16).cells_per_side(), 4);
        assert_eq!(Grid::with_capacity_for(17).cells_per_side(), 5);
        assert_eq!(Grid::with_capacity_for(100).cells_per_side(), 10);
        assert_eq!(Grid::with_capacity_for(5000).cells_per_side(), 71);
    }

    #[test]
    fn counts() {
        let g = Grid::new(4).unwrap();
        assert_eq!(g.cell_count(), 16);
        assert_eq!(g.vertex_count(), 25);
        assert_eq!(g.cells().count(), 16);
        assert_eq!(g.vertices().count(), 25);
    }

    #[test]
    fn vertex_index_roundtrip() {
        let g = Grid::new(7).unwrap();
        for (i, v) in g.vertices().enumerate() {
            assert_eq!(g.vertex_index(v), i);
            assert_eq!(g.vertex_at(i), v);
        }
    }

    #[test]
    fn cell_index_roundtrip() {
        let g = Grid::new(5).unwrap();
        for (i, c) in g.cells().enumerate() {
            assert_eq!(g.cell_index(c), i);
            assert_eq!(g.cell_at(i), c);
        }
    }

    #[test]
    fn neighbor_degrees() {
        let g = Grid::new(3).unwrap();
        // Corners have degree 2.
        for v in [
            Vertex::new(0, 0),
            Vertex::new(0, 3),
            Vertex::new(3, 0),
            Vertex::new(3, 3),
        ] {
            assert_eq!(g.neighbors(v).count(), 2, "{v}");
        }
        // Edges have degree 3.
        assert_eq!(g.neighbors(Vertex::new(0, 1)).count(), 3);
        // Interior has degree 4.
        assert_eq!(g.neighbors(Vertex::new(1, 2)).count(), 4);
    }

    #[test]
    fn neighbors_are_adjacent_and_inside() {
        let g = Grid::new(4).unwrap();
        for v in g.vertices() {
            for n in g.neighbors(v) {
                assert!(v.is_adjacent(n));
                assert!(g.contains_vertex(n));
            }
        }
    }
}
