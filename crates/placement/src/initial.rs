//! Initial placement: embed the coupling-graph partition into the grid.
//!
//! AutoBraid stage 2 (paper Fig. 10): partition the qubit coupling graph
//! so frequently-interacting qubits land in compact grid regions, by
//! recursively bisecting the graph and the grid rectangle in lock-step.

use crate::coupling::CouplingGraph;
use crate::partition::bisect::Balance;
use crate::partition::graph::PartGraph;
use crate::partition::recursive::{bisect_multilevel, induced_subgraph};
use autobraid_circuit::Circuit;
use autobraid_lattice::{Cell, Grid};

use crate::place::Placement;

/// A rectangle of grid cells: rows `r0..r0+rows`, cols `c0..c0+cols`.
#[derive(Debug, Clone, Copy)]
struct Rect {
    r0: u32,
    c0: u32,
    rows: u32,
    cols: u32,
}

impl Rect {
    fn capacity(&self) -> u64 {
        u64::from(self.rows) * u64::from(self.cols)
    }

    /// Splits along the longer axis into two halves.
    fn split(&self) -> (Rect, Rect) {
        if self.cols >= self.rows {
            let left = self.cols / 2;
            (
                Rect {
                    cols: left,
                    ..*self
                },
                Rect {
                    c0: self.c0 + left,
                    cols: self.cols - left,
                    ..*self
                },
            )
        } else {
            let top = self.rows / 2;
            (
                Rect { rows: top, ..*self },
                Rect {
                    r0: self.r0 + top,
                    rows: self.rows - top,
                    ..*self
                },
            )
        }
    }

    fn cells(&self) -> impl Iterator<Item = Cell> + '_ {
        let (r0, c0, rows, cols) = (self.r0, self.c0, self.rows, self.cols);
        (r0..r0 + rows).flat_map(move |r| (c0..c0 + cols).map(move |c| Cell::new(r, c)))
    }
}

/// Computes the partition-guided initial placement of `circuit`'s qubits
/// on `grid` (the paper's "initM"): recursive graph bisection embedded
/// into recursive rectangle bisection.
///
/// # Panics
///
/// Panics if the grid cannot hold the circuit's qubits.
///
/// # Examples
///
/// ```
/// use autobraid_circuit::generators::qft::qft;
/// use autobraid_lattice::Grid;
/// use autobraid_placement::initial::partition_placement;
///
/// let circuit = qft(16)?;
/// let grid = Grid::with_capacity_for(16);
/// let placement = partition_placement(&circuit, &grid);
/// assert_eq!(placement.num_qubits(), 16);
/// # Ok::<(), autobraid_circuit::CircuitError>(())
/// ```
pub fn partition_placement(circuit: &Circuit, grid: &Grid) -> Placement {
    let n = circuit.num_qubits() as usize;
    assert!(
        n <= grid.cell_count(),
        "{n} qubits cannot fit {} tiles",
        grid.cell_count()
    );

    let coupling = CouplingGraph::of(circuit);
    let mut part = PartGraph::new(n);
    for (a, b, w) in coupling.edges() {
        part.add_edge(a as usize, b as usize, w);
    }

    let mut cells: Vec<Option<Cell>> = vec![None; n];
    let all: Vec<usize> = (0..n).collect();
    let root = Rect {
        r0: 0,
        c0: 0,
        rows: grid.cells_per_side(),
        cols: grid.cells_per_side(),
    };
    embed(&part, &all, root, &mut cells);

    let cells: Vec<Cell> = cells
        .into_iter()
        .map(|c| c.expect("every qubit embedded"))
        .collect();
    Placement::from_cells(grid, cells)
}

fn embed(graph: &PartGraph, vertices: &[usize], rect: Rect, out: &mut [Option<Cell>]) {
    debug_assert!(vertices.len() as u64 <= rect.capacity(), "region overfull");
    match vertices {
        [] => {}
        &[v] => {
            out[v] = Some(Cell::new(rect.r0, rect.c0));
        }
        _ if rect.capacity() == vertices.len() as u64 && vertices.len() <= 4 => {
            // Tiny full region: assign in order.
            for (&v, cell) in vertices.iter().zip(rect.cells()) {
                out[v] = Some(cell);
            }
        }
        _ => {
            let (ra, rb) = rect.split();
            let (sub, _) = induced_subgraph(graph, vertices);
            let weight = sub.total_vertex_weight();
            let balance = Balance::capacities(weight, ra.capacity(), rb.capacity());
            let side = bisect_multilevel(&sub, balance);
            // Unit vertex weights: the multilevel bisection's balance
            // repair is exact.
            debug_assert!(balance.admits(sub.side_weight(&side)), "region overfull");
            let mut left = Vec::new();
            let mut right = Vec::new();
            for (i, &v) in vertices.iter().enumerate() {
                if side[i] {
                    right.push(v);
                } else {
                    left.push(v);
                }
            }
            embed(graph, &left, ra, out);
            embed(graph, &right, rb, out);
        }
    }
}

/// Sum over coupled pairs of `weight × Manhattan distance` — the locality
/// score reports use to compare placements (lower is better).
pub fn weighted_distance(circuit: &Circuit, placement: &Placement) -> u64 {
    let coupling = CouplingGraph::of(circuit);
    coupling
        .edges()
        .map(|(a, b, w)| {
            let (ca, cb) = (placement.cell_of(a), placement.cell_of(b));
            w * u64::from(ca.manhattan_distance(cb))
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use autobraid_circuit::generators::{ising::ising, qaoa::qaoa, qft::qft};

    #[test]
    fn places_every_qubit_consistently() {
        for n in [4u32, 9, 16, 25, 30] {
            let c = qft(n).unwrap();
            let grid = Grid::with_capacity_for(n as usize);
            let p = partition_placement(&c, &grid);
            assert_eq!(p.num_qubits(), n);
            assert!(p.is_consistent(&grid), "n={n}");
        }
    }

    #[test]
    fn non_square_counts_fit() {
        // 7 qubits on a 3x3 grid: two empty tiles.
        let c = qft(7).unwrap();
        let grid = Grid::with_capacity_for(7);
        let p = partition_placement(&c, &grid);
        assert!(p.is_consistent(&grid));
    }

    #[test]
    fn beats_row_major_locality_on_clustered_circuit() {
        // Two interaction clusters; partition placement should keep each
        // cluster compact.
        let mut c = Circuit::new(16);
        for _ in 0..4 {
            for a in 0..8u32 {
                for b in a + 1..8 {
                    c.cx(a, b);
                    c.cx(a + 8, b + 8);
                }
            }
        }
        // Interleave the clusters so row-major is bad.
        let shuffled: Vec<autobraid_circuit::Gate> = c
            .gates()
            .iter()
            .map(|g| g.map_qubits(|q| if q % 2 == 0 { q / 2 } else { 8 + q / 2 }))
            .collect();
        let c = Circuit::from_gates(16, shuffled).unwrap();
        let grid = Grid::with_capacity_for(16);
        let partitioned = partition_placement(&c, &grid);
        let naive = Placement::row_major(&grid, 16);
        assert!(
            weighted_distance(&c, &partitioned) < weighted_distance(&c, &naive),
            "partitioning should improve locality: {} vs {}",
            weighted_distance(&c, &partitioned),
            weighted_distance(&c, &naive)
        );
    }

    #[test]
    fn ising_chain_stays_fairly_local() {
        let c = ising(25, 1).unwrap();
        let grid = Grid::with_capacity_for(25);
        let p = partition_placement(&c, &grid);
        let per_edge =
            weighted_distance(&c, &p) as f64 / CouplingGraph::of(&c).total_weight() as f64;
        assert!(per_edge < 4.0, "mean coupled distance too high: {per_edge}");
    }

    #[test]
    fn qaoa_placement_valid() {
        let c = qaoa(24, 2, 3, 1).unwrap();
        let grid = Grid::with_capacity_for(24);
        let p = partition_placement(&c, &grid);
        assert!(p.is_consistent(&grid));
    }

    #[test]
    #[should_panic(expected = "cannot fit")]
    fn overfull_grid_panics() {
        let c = qft(10).unwrap();
        let grid = Grid::new(3).unwrap();
        let _ = partition_placement(&c, &grid);
    }
}
