//! Magic-state supply modeling.
//!
//! The paper (§4.1, following \[10\]) assumes "a steady supply of magic
//! state qubits at the location of the data", making every T gate a local
//! operation. Distillation-aware work (Ding et al., MICRO'18, cited as
//! complementary) shows that supply is itself a placement-and-routing
//! problem. This module lets the assumption be *priced*: designated
//! factory tiles hold magic-state qubits, every T/T† gate is rewritten
//! into a CX-style interaction with a factory (the gate-teleportation
//! braid), and consecutive draws from one factory serialize — exactly the
//! contention a real distillation block imposes. Scheduling the rewritten
//! circuit with any engine in this crate then shows what "free" magic
//! states were worth.

use autobraid_circuit::{Circuit, Gate, SingleKind};
use autobraid_lattice::{Cell, Grid};
use autobraid_placement::Placement;

/// A circuit rewritten for explicit magic-state delivery, plus the layout
/// pinning its factory qubits.
#[derive(Debug, Clone)]
pub struct MagicRewrite {
    /// The rewritten circuit: original qubits `0..n`, factory qubits
    /// `n..n+f`.
    pub circuit: Circuit,
    /// Number of factory qubits appended.
    pub factories: u32,
    /// T/T† gates rewritten into factory interactions.
    pub rewritten_gates: usize,
}

/// Rewrites every T/T† gate into a braid with one of `factories` factory
/// qubits (round-robin). The factory interaction is modeled as a CX (the
/// consumption half of gate teleportation); the same factory's uses
/// serialize through the shared qubit, modeling finite distillation
/// throughput.
///
/// # Panics
///
/// Panics if `factories == 0`.
///
/// # Examples
///
/// ```
/// use autobraid::magic::rewrite_with_factories;
/// use autobraid_circuit::Circuit;
///
/// let mut c = Circuit::new(2);
/// c.h(0).t(0).cx(0, 1).t(1);
/// let rewrite = rewrite_with_factories(&c, 1);
/// assert_eq!(rewrite.circuit.num_qubits(), 3);
/// assert_eq!(rewrite.rewritten_gates, 2);
/// ```
pub fn rewrite_with_factories(circuit: &Circuit, factories: u32) -> MagicRewrite {
    assert!(factories > 0, "need at least one magic-state factory");
    let n = circuit.num_qubits();
    let mut out = Circuit::named(n + factories, circuit.name());
    let mut rewritten = 0usize;
    let mut next = 0u32;
    for gate in circuit.gates() {
        match *gate {
            Gate::Single {
                kind: SingleKind::T | SingleKind::Tdg,
                qubit,
            } => {
                let factory = n + next;
                next = (next + 1) % factories;
                // Consumption braid: the factory's magic state interacts
                // with the data qubit, then the factory re-distills
                // (serialized by the shared factory qubit).
                out.cx(factory, qubit);
                rewritten += 1;
            }
            g => {
                out.push(g);
            }
        }
    }
    MagicRewrite {
        circuit: out,
        factories,
        rewritten_gates: rewritten,
    }
}

/// Places the rewritten circuit: data qubits keep `data_placement`'s
/// layout on a grid widened to fit the factories, which are pinned along
/// the bottom boundary (where distillation blocks live in proposed
/// layouts).
///
/// Returns the widened grid and the combined placement.
///
/// # Panics
///
/// Panics if `rewrite` was not produced for `data_placement`'s qubit
/// count.
pub fn place_with_factories(
    rewrite: &MagicRewrite,
    data_placement: &Placement,
) -> (Grid, Placement) {
    let data_qubits = rewrite.circuit.num_qubits() - rewrite.factories;
    assert_eq!(
        data_placement.num_qubits(),
        data_qubits,
        "placement does not match the rewritten circuit's data register"
    );
    // Widen the grid by enough rows to host the factories.
    let data_side = Grid::with_capacity_for(data_qubits as usize).cells_per_side();
    let side = data_side.max(rewrite.factories.div_ceil(data_side.max(1))) + 1;
    let side = side
        .max(Grid::with_capacity_for((data_qubits + rewrite.factories) as usize).cells_per_side());
    let grid = Grid::new(side).expect("positive side");

    let mut cells: Vec<Cell> = (0..data_qubits)
        .map(|q| data_placement.cell_of(q))
        .collect();
    // Factories along the bottom row(s), outside the data block.
    let mut row = side - 1;
    let mut col = 0;
    for _ in 0..rewrite.factories {
        while cells.contains(&Cell::new(row, col)) {
            col += 1;
            if col == side {
                col = 0;
                row -= 1;
            }
        }
        cells.push(Cell::new(row, col));
        col += 1;
        if col == side {
            col = 0;
            row -= 1;
        }
    }
    let placement = Placement::from_cells(&grid, cells);
    (grid, placement)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ScheduleConfig;
    use crate::critical_path::critical_path_cycles;
    use crate::metrics::verify_schedule;
    use crate::scheduler::{run, EngineRun, StackPolicy};
    use crate::{AutoBraid, Strategy};
    use autobraid_circuit::generators::qft::qft;

    fn t_heavy_circuit(n: u32, layers: usize) -> Circuit {
        let mut c = Circuit::new(n);
        for _ in 0..layers {
            for q in 0..n {
                c.t(q);
            }
            for q in 0..n - 1 {
                c.cx(q, q + 1);
            }
        }
        c
    }

    #[test]
    fn rewrite_replaces_every_t_gate() {
        let c = t_heavy_circuit(6, 3);
        let t_count = c
            .gates()
            .iter()
            .filter(|g| {
                matches!(
                    g,
                    Gate::Single {
                        kind: SingleKind::T | SingleKind::Tdg,
                        ..
                    }
                )
            })
            .count();
        let rewrite = rewrite_with_factories(&c, 2);
        assert_eq!(rewrite.rewritten_gates, t_count);
        assert_eq!(rewrite.circuit.len(), c.len());
        assert!(rewrite.circuit.gates().iter().all(|g| !matches!(
            g,
            Gate::Single {
                kind: SingleKind::T | SingleKind::Tdg,
                ..
            }
        )));
    }

    #[test]
    fn factory_serialization_shows_in_critical_path() {
        let c = t_heavy_circuit(8, 2);
        let config = ScheduleConfig::default();
        let one = rewrite_with_factories(&c, 1);
        let many = rewrite_with_factories(&c, 8);
        let cp_one = critical_path_cycles(&one.circuit, &config.timing);
        let cp_many = critical_path_cycles(&many.circuit, &config.timing);
        assert!(
            cp_one > cp_many,
            "a single factory must bottleneck the T layer: {cp_one} vs {cp_many}"
        );
    }

    #[test]
    fn rewritten_circuit_schedules_and_verifies() {
        let c = t_heavy_circuit(9, 2);
        let config = ScheduleConfig::default();
        let compiler = AutoBraid::new(config.clone());
        let data_grid = Grid::with_capacity_for(9);
        let data_placement = compiler.initial_placement(&c, &data_grid);
        let rewrite = rewrite_with_factories(&c, 3);
        let (grid, placement) = place_with_factories(&rewrite, &data_placement);
        assert!(placement.is_consistent(&grid));
        let drive = EngineRun::new(
            "magic",
            &rewrite.circuit,
            &grid,
            placement.clone(),
            &StackPolicy,
            &config,
        );
        let (result, _) = run(drive).unwrap().unwrap();
        verify_schedule(&rewrite.circuit, &grid, &placement, &result).unwrap();
    }

    #[test]
    fn free_magic_assumption_has_a_price() {
        // Scheduling with explicit delivery must cost more than the
        // paper's free-supply assumption.
        let c = qft(9).unwrap(); // QFT has no T gates: rewrite is a no-op
        let rewrite = rewrite_with_factories(&c, 2);
        assert_eq!(rewrite.rewritten_gates, 0);

        let t_circuit = t_heavy_circuit(9, 3);
        let config = ScheduleConfig::default();
        let compiler = AutoBraid::new(config.clone());
        let free = compiler
            .schedule(Strategy::Stack, &t_circuit)
            .result
            .total_cycles;

        let data_grid = Grid::with_capacity_for(9);
        let data_placement = compiler.initial_placement(&t_circuit, &data_grid);
        let rewrite = rewrite_with_factories(&t_circuit, 2);
        let (grid, placement) = place_with_factories(&rewrite, &data_placement);
        let drive = EngineRun::new(
            "magic",
            &rewrite.circuit,
            &grid,
            placement,
            &StackPolicy,
            &config,
        );
        let (priced, _) = run(drive).unwrap().unwrap();
        assert!(
            priced.total_cycles > free,
            "explicit magic-state delivery must cost cycles: {} vs {free}",
            priced.total_cycles
        );
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_factories_rejected() {
        let _ = rewrite_with_factories(&Circuit::new(2), 0);
    }
}
