//! Summary statistics used by reports and the evaluation harness.

use crate::circuit::Circuit;
use crate::dag::plain_asap_levels;
use std::fmt;

/// A one-line summary of a circuit's size and communication structure.
///
/// # Examples
///
/// ```
/// use autobraid_circuit::{generators::qft::qft, stats::CircuitStats};
///
/// let stats = CircuitStats::of(&qft(16)?);
/// assert_eq!(stats.qubits, 16);
/// assert_eq!(stats.gates, 136);
/// assert_eq!(stats.two_qubit_gates, 120);
/// # Ok::<(), autobraid_circuit::error::CircuitError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CircuitStats {
    /// Benchmark name, if any.
    pub name: String,
    /// Logical qubit count.
    pub qubits: u32,
    /// Total gate count.
    pub gates: usize,
    /// Braided (two-qubit) gate count.
    pub two_qubit_gates: usize,
    /// Dependence-DAG depth in gates.
    pub depth: usize,
    /// Maximum theoretically concurrent CX gates in any ASAP layer.
    pub max_concurrent_cx: usize,
    /// Mean concurrent CX gates per ASAP layer.
    pub mean_concurrent_cx: f64,
}

impl CircuitStats {
    /// Computes all statistics from the plain dependence DAG's levels,
    /// swept from the gate list ([`plain_asap_levels`]) without building
    /// the DAG: depth and per-level CX counts with the
    /// [`ParallelismProfile`](crate::layers::ParallelismProfile)
    /// max/mean formulas.
    pub fn of(circuit: &Circuit) -> Self {
        let levels = plain_asap_levels(circuit);
        let depth = levels.iter().max().map_or(0, |d| d + 1);
        let mut cx_per_level = vec![0usize; depth];
        for (gate, &level) in circuit.gates().iter().zip(&levels) {
            if gate.is_two_qubit() {
                cx_per_level[level] += 1;
            }
        }
        let mean_concurrent_cx = if depth == 0 {
            0.0
        } else {
            cx_per_level.iter().sum::<usize>() as f64 / depth as f64
        };
        CircuitStats {
            name: circuit.name().to_string(),
            qubits: circuit.num_qubits(),
            gates: circuit.len(),
            two_qubit_gates: circuit.two_qubit_count(),
            depth,
            max_concurrent_cx: cx_per_level.iter().copied().max().unwrap_or(0),
            mean_concurrent_cx,
        }
    }
}

impl fmt::Display for CircuitStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} qubits, {} gates ({} CX, depth {}, ≤{} concurrent CX)",
            if self.name.is_empty() {
                "circuit"
            } else {
                &self.name
            },
            self.qubits,
            self.gates,
            self.two_qubit_gates,
            self.depth,
            self.max_concurrent_cx
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::DependenceDag;

    #[test]
    fn stats_of_simple_circuit() {
        let mut c = Circuit::named(4, "demo");
        c.h(0).cx(0, 1).cx(2, 3);
        let s = CircuitStats::of(&c);
        assert_eq!(s.qubits, 4);
        assert_eq!(s.gates, 3);
        assert_eq!(s.two_qubit_gates, 2);
        assert_eq!(s.depth, 2);
        assert_eq!(s.max_concurrent_cx, 1);
        assert!(s.to_string().contains("demo"));
    }

    #[test]
    fn one_dag_matches_the_parallelism_profile() {
        use crate::generators::{by_name, random::random_circuit};
        use crate::layers::ParallelismProfile;
        let mut circuits: Vec<Circuit> = ["qft", "im", "bv", "qaoa"]
            .iter()
            .map(|kind| by_name(kind, 12).unwrap())
            .collect();
        circuits.push(by_name("urf2_277", 0).unwrap());
        circuits.extend((0..8).map(|seed| random_circuit(6, 60, 0.5, seed).unwrap()));
        for c in &circuits {
            let s = CircuitStats::of(c);
            let profile = ParallelismProfile::analyze(c);
            assert_eq!(s.depth, DependenceDag::new(c).depth());
            assert_eq!(s.depth, profile.layer_count());
            assert_eq!(s.max_concurrent_cx, profile.max_concurrent_cx());
            assert_eq!(
                s.mean_concurrent_cx.to_bits(),
                profile.mean_concurrent_cx().to_bits()
            );
        }
    }

    #[test]
    fn empty_circuit_stats() {
        let s = CircuitStats::of(&Circuit::new(2));
        assert_eq!(s.depth, 0);
    }
}
