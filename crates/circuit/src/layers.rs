//! Communication-parallelism analysis (AutoBraid stage 1).
//!
//! Partitions a circuit into ASAP dependence layers and reports how many
//! CX (two-qubit) gates are *theoretically concurrent* at each step — the
//! quantity the paper uses to distinguish low-parallelism programs (BV)
//! from communication-heavy ones (Ising, QFT).

use crate::circuit::{Circuit, GateId};
use crate::dag::plain_asap_levels;

/// ASAP layering of a circuit with per-layer communication statistics.
///
/// # Examples
///
/// ```
/// use autobraid_circuit::circuit::Circuit;
/// use autobraid_circuit::layers::ParallelismProfile;
///
/// // Ising-style even/odd coupling: n/2 concurrent CX gates per layer.
/// let mut c = Circuit::new(6);
/// c.cx(0, 1).cx(2, 3).cx(4, 5);
/// let profile = ParallelismProfile::analyze(&c);
/// assert_eq!(profile.max_concurrent_cx(), 3);
/// assert_eq!(profile.layer_count(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct ParallelismProfile {
    layers: Vec<Vec<GateId>>,
    cx_per_layer: Vec<usize>,
}

impl ParallelismProfile {
    /// Computes the ASAP layering and per-layer CX counts.
    ///
    /// The levels are the plain dependence DAG's, swept from the gate
    /// list without building the DAG ([`plain_asap_levels`]).
    pub fn analyze(circuit: &Circuit) -> Self {
        let levels = plain_asap_levels(circuit);
        let depth = levels.iter().max().map_or(0, |d| d + 1);
        let mut layers: Vec<Vec<GateId>> = vec![Vec::new(); depth];
        for (g, &lvl) in levels.iter().enumerate() {
            layers[lvl].push(g);
        }
        let cx_per_layer = layers
            .iter()
            .map(|layer| {
                layer
                    .iter()
                    .filter(|&&g| circuit.gate(g).is_two_qubit())
                    .count()
            })
            .collect();
        ParallelismProfile {
            layers,
            cx_per_layer,
        }
    }

    /// Gate ids at each ASAP level.
    pub fn layers(&self) -> &[Vec<GateId>] {
        &self.layers
    }

    /// Number of dependence levels.
    pub fn layer_count(&self) -> usize {
        self.layers.len()
    }

    /// Number of two-qubit gates in each layer.
    pub fn cx_per_layer(&self) -> &[usize] {
        &self.cx_per_layer
    }

    /// Maximum number of theoretically concurrent CX gates in any layer.
    pub fn max_concurrent_cx(&self) -> usize {
        self.cx_per_layer.iter().copied().max().unwrap_or(0)
    }

    /// Mean number of concurrent CX gates per layer (0 for empty circuits).
    pub fn mean_concurrent_cx(&self) -> f64 {
        if self.cx_per_layer.is_empty() {
            return 0.0;
        }
        self.cx_per_layer.iter().sum::<usize>() as f64 / self.cx_per_layer.len() as f64
    }

    /// Whether the program has meaningful communication parallelism: some
    /// layer carries more than one CX. (BV-style programs return `false`;
    /// braiding for them never congests.)
    pub fn has_cx_parallelism(&self) -> bool {
        self.max_concurrent_cx() > 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_bv_like_has_no_parallelism() {
        // BV: every CX shares the target qubit — zero CX parallelism.
        let mut c = Circuit::new(5);
        for q in 0..4 {
            c.cx(q, 4);
        }
        let p = ParallelismProfile::analyze(&c);
        assert_eq!(p.max_concurrent_cx(), 1);
        assert!(!p.has_cx_parallelism());
        assert_eq!(p.layer_count(), 4);
    }

    #[test]
    fn ising_like_has_wide_layers() {
        let mut c = Circuit::new(10);
        for q in (0..10).step_by(2) {
            c.cx(q, q + 1);
        }
        for q in (1..9).step_by(2) {
            c.cx(q, q + 1);
        }
        let p = ParallelismProfile::analyze(&c);
        assert_eq!(p.layer_count(), 2);
        assert_eq!(p.cx_per_layer(), &[5, 4]);
        assert_eq!(p.max_concurrent_cx(), 5);
        assert!(p.has_cx_parallelism());
    }

    #[test]
    fn single_qubit_gates_do_not_count_as_cx() {
        let mut c = Circuit::new(3);
        c.h(0).h(1).h(2).cx(0, 1);
        let p = ParallelismProfile::analyze(&c);
        assert_eq!(p.cx_per_layer(), &[0, 1]);
        assert!((p.mean_concurrent_cx() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_circuit_profile() {
        let p = ParallelismProfile::analyze(&Circuit::new(4));
        assert_eq!(p.layer_count(), 0);
        assert_eq!(p.max_concurrent_cx(), 0);
        assert_eq!(p.mean_concurrent_cx(), 0.0);
        assert!(!p.has_cx_parallelism());
    }

    #[test]
    fn layers_partition_all_gates() {
        let mut c = Circuit::new(4);
        c.h(0).cx(0, 1).cx(2, 3).cx(1, 2).measure(3);
        let p = ParallelismProfile::analyze(&c);
        let total: usize = p.layers().iter().map(Vec::len).sum();
        assert_eq!(total, c.len());
    }
}
