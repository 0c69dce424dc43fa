//! Physical-level view of the surface code: the checkerboard of data and
//! measurement qubits, double-defect logical qubits, and the 8-phase
//! stabilizer measurement cycle (paper §2, Figs. 2–4).
//!
//! The routing layer never needs this detail — braiding is scheduled on
//! the tile/channel abstraction — but lowering a schedule to hardware
//! does: "moving" a defect means disabling and re-enabling measurement
//! qubits cycle by cycle. [`crate::grid::Grid`] coordinates map into this
//! physical lattice through [`PhysicalLayout`].

use crate::error::LatticeError;
use crate::geometry::{Cell, Vertex};

/// Role of one physical qubit in the lattice checkerboard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QubitRole {
    /// Holds code state; never measured directly during stabilization.
    Data,
    /// Ancilla measuring an X stabilizer (plaquette of XXXX).
    MeasureX,
    /// Ancilla measuring a Z stabilizer (plaquette of ZZZZ).
    MeasureZ,
}

/// A physical qubit coordinate: `(row, col)` on the physical lattice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PhysicalQubit {
    /// Physical row.
    pub row: u32,
    /// Physical column.
    pub col: u32,
}

/// Maps the logical tile grid onto a concrete physical lattice.
///
/// Each logical tile occupies a `(2d) × (2d)` patch of physical qubits
/// (enough for a double-defect qubit of distance `d` plus its share of
/// the surrounding channels), so a grid of `L` tiles per side uses a
/// `(2dL + 1)²` physical lattice. Data and measurement qubits alternate
/// in the usual checkerboard; measurement ancillas alternate X/Z by row
/// parity.
///
/// # Examples
///
/// ```
/// use autobraid_lattice::physical::{PhysicalLayout, QubitRole};
///
/// let layout = PhysicalLayout::new(4, 5)?; // 4×4 tiles at distance 5
/// assert_eq!(layout.physical_side(), 2 * 5 * 4 + 1);
/// let origin = layout.role_at(0, 0);
/// assert_eq!(origin, QubitRole::Data);
/// # Ok::<(), autobraid_lattice::LatticeError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhysicalLayout {
    tiles_per_side: u32,
    distance: u32,
}

impl PhysicalLayout {
    /// Creates a layout for `tiles_per_side` tiles at code distance
    /// `distance`.
    ///
    /// # Errors
    ///
    /// Returns [`LatticeError::EmptyGrid`] for a zero-sized grid and
    /// [`LatticeError::InvalidCodeParams`] for an even or zero distance.
    pub fn new(tiles_per_side: u32, distance: u32) -> Result<Self, LatticeError> {
        if tiles_per_side == 0 {
            return Err(LatticeError::EmptyGrid);
        }
        if distance == 0 || distance.is_multiple_of(2) {
            return Err(LatticeError::InvalidCodeParams(format!(
                "code distance must be odd and positive, got {distance}"
            )));
        }
        Ok(PhysicalLayout {
            tiles_per_side,
            distance,
        })
    }

    /// Tiles per side of the logical grid.
    pub fn tiles_per_side(&self) -> u32 {
        self.tiles_per_side
    }

    /// Code distance.
    pub fn distance(&self) -> u32 {
        self.distance
    }

    /// Physical qubits per side of the lattice.
    pub fn physical_side(&self) -> u32 {
        2 * self.distance * self.tiles_per_side + 1
    }

    /// Total physical qubit count.
    pub fn physical_qubit_count(&self) -> u64 {
        u64::from(self.physical_side()).pow(2)
    }

    /// The checkerboard role of the physical qubit at `(row, col)`:
    /// even-parity sites are data qubits; odd-parity sites are measurement
    /// ancillas, X or Z depending on row parity.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the coordinate is off-lattice.
    pub fn role_at(&self, row: u32, col: u32) -> QubitRole {
        debug_assert!(row < self.physical_side() && col < self.physical_side());
        if (row + col).is_multiple_of(2) {
            QubitRole::Data
        } else if row % 2 == 1 {
            QubitRole::MeasureZ
        } else {
            QubitRole::MeasureX
        }
    }

    /// The physical coordinate of the centre of a logical tile.
    pub fn tile_center(&self, cell: Cell) -> PhysicalQubit {
        let span = 2 * self.distance;
        PhysicalQubit {
            row: cell.row * span + self.distance,
            col: cell.col * span + self.distance,
        }
    }

    /// The physical coordinate of a routing-grid vertex (a channel
    /// intersection between tiles).
    pub fn channel_vertex(&self, v: Vertex) -> PhysicalQubit {
        let span = 2 * self.distance;
        PhysicalQubit {
            row: v.row * span,
            col: v.col * span,
        }
    }

    /// The physical measurement qubits along one channel segment of a
    /// braiding path (between two adjacent routing vertices) that must be
    /// disabled to extend a defect through it.
    pub fn segment_ancillas(&self, a: Vertex, b: Vertex) -> Vec<PhysicalQubit> {
        assert!(a.is_adjacent(b), "segments connect adjacent vertices");
        let pa = self.channel_vertex(a);
        let pb = self.channel_vertex(b);
        let mut out = Vec::new();
        let (r0, r1) = (pa.row.min(pb.row), pa.row.max(pb.row));
        let (c0, c1) = (pa.col.min(pb.col), pa.col.max(pb.col));
        for row in r0..=r1 {
            for col in c0..=c1 {
                if (row + col) % 2 == 1 {
                    out.push(PhysicalQubit { row, col });
                }
            }
        }
        out
    }
}

/// The eight phases of one surface-code stabilization cycle (paper
/// Fig. 3b). Every enabled measurement ancilla steps through these in
/// lockstep; eight phases make one *surface code cycle*.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CyclePhase {
    /// Initialize the ancilla in |0⟩ (Z) or |+⟩ (X).
    Init,
    /// Hadamard on X ancillas.
    HadamardIn,
    /// CNOT with the north data neighbour.
    CouplingNorth,
    /// CNOT with the west data neighbour.
    CouplingWest,
    /// CNOT with the east data neighbour.
    CouplingEast,
    /// CNOT with the south data neighbour.
    CouplingSouth,
    /// Hadamard on X ancillas.
    HadamardOut,
    /// Measure the ancilla.
    Measure,
}

/// All eight phases in execution order.
pub const CYCLE_PHASES: [CyclePhase; 8] = [
    CyclePhase::Init,
    CyclePhase::HadamardIn,
    CyclePhase::CouplingNorth,
    CyclePhase::CouplingWest,
    CyclePhase::CouplingEast,
    CyclePhase::CouplingSouth,
    CyclePhase::HadamardOut,
    CyclePhase::Measure,
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_dimensions() {
        let l = PhysicalLayout::new(10, 33).unwrap();
        assert_eq!(l.physical_side(), 661);
        assert_eq!(l.physical_qubit_count(), 661 * 661);
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(PhysicalLayout::new(0, 5).is_err());
        assert!(PhysicalLayout::new(4, 4).is_err());
        assert!(PhysicalLayout::new(4, 0).is_err());
    }

    #[test]
    fn checkerboard_roles() {
        let l = PhysicalLayout::new(2, 3).unwrap();
        assert_eq!(l.role_at(0, 0), QubitRole::Data);
        assert_eq!(l.role_at(0, 1), QubitRole::MeasureX);
        assert_eq!(l.role_at(1, 0), QubitRole::MeasureZ);
        assert_eq!(l.role_at(1, 1), QubitRole::Data);
        // Counts: data on even parity ≈ half the lattice.
        let side = l.physical_side();
        let data = (0..side)
            .flat_map(|r| (0..side).map(move |c| (r, c)))
            .filter(|&(r, c)| l.role_at(r, c) == QubitRole::Data)
            .count() as u64;
        assert_eq!(data, l.physical_qubit_count().div_ceil(2));
    }

    #[test]
    fn tile_centers_are_distinct_and_in_bounds() {
        let l = PhysicalLayout::new(3, 5).unwrap();
        let mut seen = std::collections::HashSet::new();
        for r in 0..3 {
            for c in 0..3 {
                let q = l.tile_center(Cell::new(r, c));
                assert!(q.row < l.physical_side() && q.col < l.physical_side());
                assert!(seen.insert(q));
            }
        }
    }

    #[test]
    fn segment_ancillas_line_the_channel() {
        let l = PhysicalLayout::new(2, 3).unwrap();
        let ancillas = l.segment_ancillas(Vertex::new(0, 0), Vertex::new(0, 1));
        // A horizontal segment spans 2d physical columns on one row: d
        // ancillas at odd parity.
        assert_eq!(ancillas.len(), l.distance() as usize);
        for q in &ancillas {
            assert_eq!(q.row, 0);
            assert_ne!(l.role_at(q.row, q.col), QubitRole::Data);
        }
    }

    #[test]
    #[should_panic(expected = "adjacent")]
    fn segment_requires_adjacency() {
        let l = PhysicalLayout::new(2, 3).unwrap();
        let _ = l.segment_ancillas(Vertex::new(0, 0), Vertex::new(0, 2));
    }

    #[test]
    fn cycle_has_eight_ordered_phases() {
        assert_eq!(CYCLE_PHASES.len(), 8);
        assert_eq!(CYCLE_PHASES[0], CyclePhase::Init);
        assert_eq!(CYCLE_PHASES[7], CyclePhase::Measure);
    }
}
