//! Per-step reservation of routing vertices.
//!
//! During one braiding step, every vertex used by a scheduled braiding path
//! is exclusively reserved ("the vertices used by this path cannot be used
//! by other braiding paths"). The scheduler clears the map between steps.

use crate::geometry::{BBox, Vertex};
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
        let i = grid.vertex_index(v);
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

    /// Whether any vertex inside or on the boundary of `bbox` is
    /// reserved, in O(words of the box) instead of O(vertices of the
    /// box): each bbox row is a contiguous bit range in the row-major
    /// bitmap, tested with three masked word operations. Routers use
    /// this to decide whether a region routed against a snapshot is
    /// still untouched when its turn to commit arrives.
    ///
    /// # Examples
    ///
    /// ```
    /// use autobraid_lattice::{BBox, Grid, Occupancy, Vertex};
    ///
    /// let grid = Grid::new(4)?;
    /// let mut occ = Occupancy::new(&grid);
    /// occ.reserve(&grid, Vertex::new(2, 2));
    /// assert!(occ.any_in_bbox(&grid, &BBox::new(1, 1, 3, 3)));
    /// assert!(!occ.any_in_bbox(&grid, &BBox::new(0, 0, 1, 4)));
    /// # Ok::<(), autobraid_lattice::LatticeError>(())
    /// ```
    pub fn any_in_bbox(&self, grid: &Grid, bbox: &BBox) -> bool {
        if self.occupied == 0 {
            return false;
        }
        let side = grid.vertices_per_side() as usize;
        debug_assert!(bbox.max_row < side as u32 && bbox.max_col < side as u32);
        for row in bbox.min_row..=bbox.max_row {
            let start = row as usize * side + bbox.min_col as usize;
            let end = row as usize * side + bbox.max_col as usize;
            let (w0, w1) = (start / 64, end / 64);
            let head = u64::MAX << (start % 64);
            let tail = u64::MAX >> (63 - end % 64);
            if w0 == w1 {
                if self.bits[w0] & head & tail != 0 {
                    return true;
                }
            } else if self.bits[w0] & head != 0
                || self.bits[w1] & tail != 0
                || self.bits[w0 + 1..w1].iter().any(|&w| w != 0)
            {
                return true;
            }
        }
        false
    }

    /// Reference implementation of [`Occupancy::any_in_bbox`]: a plain
    /// per-vertex scan. Kept for differential tests.
    #[cfg(any(test, feature = "reference"))]
    pub fn any_in_bbox_reference(&self, grid: &Grid, bbox: &BBox) -> bool {
        bbox.vertices().any(|v| self.is_occupied(grid, v))
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
    fn any_in_bbox_matches_reference_on_random_maps() {
        use autobraid_telemetry::Rng64;
        let mut rng = Rng64::seed_from_u64(17);
        // Side 9 (grid 8) makes rows span word boundaries at every
        // alignment; side 4 keeps whole boxes inside one word.
        for l in [3u32, 8, 12] {
            let g = Grid::new(l).unwrap();
            for _ in 0..40 {
                let mut occ = Occupancy::new(&g);
                for v in g.vertices() {
                    if rng.gen_bool(0.15) {
                        occ.reserve(&g, v);
                    }
                }
                for _ in 0..25 {
                    let r0 = rng.gen_range(0..l + 1);
                    let r1 = rng.gen_range(0..l + 1);
                    let c0 = rng.gen_range(0..l + 1);
                    let c1 = rng.gen_range(0..l + 1);
                    let bbox = BBox::new(r0.min(r1), c0.min(c1), r0.max(r1), c0.max(c1));
                    assert_eq!(
                        occ.any_in_bbox(&g, &bbox),
                        occ.any_in_bbox_reference(&g, &bbox),
                        "grid {l}, bbox {bbox:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn any_in_bbox_empty_map_is_false() {
        let g = Grid::new(8).unwrap();
        let occ = Occupancy::new(&g);
        assert!(!occ.any_in_bbox(&g, &BBox::new(0, 0, 8, 8)));
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
