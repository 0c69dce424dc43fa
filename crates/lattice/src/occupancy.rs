//! Per-step reservation of routing vertices.
//!
//! During one braiding step, every vertex used by a scheduled braiding path
//! is exclusively reserved ("the vertices used by this path cannot be used
//! by other braiding paths"). The scheduler clears the map between steps.

use crate::geometry::Vertex;
use crate::grid::Grid;

/// A bitmap of reserved routing vertices for one braiding step.
///
/// # Examples
///
/// ```
/// use autobraid_lattice::grid::Grid;
/// use autobraid_lattice::occupancy::Occupancy;
/// use autobraid_lattice::geometry::Vertex;
///
/// let grid = Grid::new(4)?;
/// let mut occ = Occupancy::new(&grid);
/// let path = [Vertex::new(0, 0), Vertex::new(0, 1), Vertex::new(1, 1)];
/// assert!(occ.try_reserve(&grid, path.iter().copied()));
/// assert!(occ.is_occupied(&grid, Vertex::new(0, 1)));
/// assert!(!occ.try_reserve(&grid, [Vertex::new(1, 1)].into_iter()));
/// # Ok::<(), autobraid_lattice::error::LatticeError>(())
/// ```
#[derive(Debug, PartialEq, Eq)]
pub struct Occupancy {
    bits: Vec<u64>,
    occupied: usize,
    capacity: usize,
}

impl Clone for Occupancy {
    fn clone(&self) -> Self {
        Occupancy {
            bits: self.bits.clone(),
            occupied: self.occupied,
            capacity: self.capacity,
        }
    }

    /// Reuses `self`'s bitmap: the engine resets its per-layer scratch
    /// map this way every step.
    fn clone_from(&mut self, source: &Self) {
        self.bits.clone_from(&source.bits);
        self.occupied = source.occupied;
        self.capacity = source.capacity;
    }
}

impl Occupancy {
    /// Creates an empty occupancy map for `grid`.
    pub fn new(grid: &Grid) -> Self {
        let capacity = grid.vertex_count();
        Occupancy {
            bits: vec![0; capacity.div_ceil(64)],
            occupied: 0,
            capacity,
        }
    }

    /// Whether `v` is currently reserved.
    #[inline]
    pub fn is_occupied(&self, grid: &Grid, v: Vertex) -> bool {
        self.is_occupied_at(grid.vertex_index(v))
    }

    /// Whether the vertex at dense index `i` ([`Grid::vertex_index`]) is
    /// reserved: [`Occupancy::is_occupied`] for callers that already
    /// walk indices.
    #[inline]
    pub fn is_occupied_at(&self, i: usize) -> bool {
        self.bits[i / 64] & (1 << (i % 64)) != 0
    }

    /// Whether `v` is free.
    #[inline]
    pub fn is_free(&self, grid: &Grid, v: Vertex) -> bool {
        !self.is_occupied(grid, v)
    }

    /// Reserves a single vertex. Returns `false` (and reserves nothing) if
    /// it was already taken.
    pub fn reserve(&mut self, grid: &Grid, v: Vertex) -> bool {
        let i = grid.vertex_index(v);
        let (word, mask) = (i / 64, 1u64 << (i % 64));
        if self.bits[word] & mask != 0 {
            return false;
        }
        self.bits[word] |= mask;
        self.occupied += 1;
        true
    }

    /// Atomically reserves every vertex of a path. If any vertex is already
    /// reserved, nothing is changed and `false` is returned.
    pub fn try_reserve<I>(&mut self, grid: &Grid, path: I) -> bool
    where
        I: IntoIterator<Item = Vertex> + Clone,
    {
        if path.clone().into_iter().any(|v| self.is_occupied(grid, v)) {
            return false;
        }
        for v in path {
            let reserved = self.reserve(grid, v);
            debug_assert!(reserved, "duplicate vertex within one path");
        }
        true
    }

    /// Releases a previously reserved vertex.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `v` was not reserved.
    pub fn release(&mut self, grid: &Grid, v: Vertex) {
        let i = grid.vertex_index(v);
        let (word, mask) = (i / 64, 1u64 << (i % 64));
        debug_assert!(self.bits[word] & mask != 0, "releasing free vertex {v}");
        if self.bits[word] & mask != 0 {
            self.bits[word] &= !mask;
            self.occupied -= 1;
        }
    }

    /// Releases every vertex of a path.
    pub fn release_path<I: IntoIterator<Item = Vertex>>(&mut self, grid: &Grid, path: I) {
        for v in path {
            self.release(grid, v);
        }
    }

    /// Clears all reservations (start of a new braiding step).
    pub fn clear(&mut self) {
        self.bits.fill(0);
        self.occupied = 0;
    }

    /// Number of reserved vertices.
    #[inline]
    pub fn occupied_count(&self) -> usize {
        self.occupied
    }

    /// Fraction of routing vertices reserved, in `[0, 1]` — the paper's
    /// *resource usage ratio* for one step.
    pub fn utilization(&self) -> f64 {
        if self.capacity == 0 {
            0.0
        } else {
            self.occupied as f64 / self.capacity as f64
        }
    }

    /// Marks every vertex reserved in `other` as reserved here too
    /// (set union). Used by time-sliced routers that must find paths free
    /// across several consecutive windows.
    ///
    /// # Panics
    ///
    /// Panics if the two maps belong to differently sized grids.
    pub fn union_with(&mut self, other: &Occupancy) {
        assert_eq!(
            self.capacity, other.capacity,
            "occupancy maps of different grids"
        );
        let mut occupied = 0usize;
        for (word, &other_word) in self.bits.iter_mut().zip(&other.bits) {
            *word |= other_word;
            occupied += word.count_ones() as usize;
        }
        self.occupied = occupied;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> Grid {
        Grid::new(4).unwrap()
    }

    #[test]
    fn starts_empty() {
        let g = grid();
        let occ = Occupancy::new(&g);
        assert_eq!(occ.occupied_count(), 0);
        assert_eq!(occ.utilization(), 0.0);
        for v in g.vertices() {
            assert!(occ.is_free(&g, v));
        }
    }

    #[test]
    fn reserve_and_release_roundtrip() {
        let g = grid();
        let mut occ = Occupancy::new(&g);
        let v = Vertex::new(2, 3);
        assert!(occ.reserve(&g, v));
        assert!(occ.is_occupied(&g, v));
        assert!(!occ.reserve(&g, v), "double reserve must fail");
        assert_eq!(occ.occupied_count(), 1);
        occ.release(&g, v);
        assert!(occ.is_free(&g, v));
        assert_eq!(occ.occupied_count(), 0);
    }

    #[test]
    fn try_reserve_is_atomic() {
        let g = grid();
        let mut occ = Occupancy::new(&g);
        assert!(occ.reserve(&g, Vertex::new(0, 2)));
        // Path crosses the reserved vertex: nothing else must be taken.
        let path = [Vertex::new(0, 0), Vertex::new(0, 1), Vertex::new(0, 2)];
        assert!(!occ.try_reserve(&g, path.iter().copied()));
        assert!(occ.is_free(&g, Vertex::new(0, 0)));
        assert!(occ.is_free(&g, Vertex::new(0, 1)));
        assert_eq!(occ.occupied_count(), 1);
    }

    #[test]
    fn utilization_counts_fraction() {
        let g = grid(); // 25 vertices
        let mut occ = Occupancy::new(&g);
        for v in [Vertex::new(0, 0), Vertex::new(1, 1), Vertex::new(2, 2)] {
            assert!(occ.reserve(&g, v));
        }
        assert!((occ.utilization() - 3.0 / 25.0).abs() < 1e-12);
    }

    #[test]
    fn clear_resets_everything() {
        let g = grid();
        let mut occ = Occupancy::new(&g);
        for v in g.vertices().take(10) {
            occ.reserve(&g, v);
        }
        occ.clear();
        assert_eq!(occ.occupied_count(), 0);
        assert!(g.vertices().all(|v| occ.is_free(&g, v)));
    }

    #[test]
    fn release_path_frees_all() {
        let g = grid();
        let mut occ = Occupancy::new(&g);
        let path = [Vertex::new(3, 0), Vertex::new(3, 1), Vertex::new(4, 1)];
        assert!(occ.try_reserve(&g, path.iter().copied()));
        occ.release_path(&g, path.iter().copied());
        assert_eq!(occ.occupied_count(), 0);
    }
}
