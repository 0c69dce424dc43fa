//! The logical circuit container.

use crate::error::CircuitError;
use crate::gate::{Gate, QubitId, SingleKind, TwoKind};
use std::fmt;

/// Index of a gate within a [`Circuit`], in program order.
pub type GateId = usize;

/// An ordered list of logical gates over `n` qubits.
///
/// `Circuit` is the input to every scheduler in the workspace. It validates
/// operand ranges eagerly and offers fluent builder methods for the
/// Clifford+T-style gate set.
///
/// # Examples
///
/// ```
/// use autobraid_circuit::circuit::Circuit;
///
/// let mut c = Circuit::new(3);
/// c.h(0).cx(0, 1).cx(1, 2).t(2);
/// assert_eq!(c.len(), 4);
/// assert_eq!(c.two_qubit_count(), 2);
/// assert_eq!(c.num_qubits(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Circuit {
    num_qubits: u32,
    gates: Vec<Gate>,
    name: String,
}

impl Circuit {
    /// Creates an empty circuit over `num_qubits` qubits.
    pub fn new(num_qubits: u32) -> Self {
        Circuit {
            num_qubits,
            gates: Vec::new(),
            name: String::new(),
        }
    }

    /// Creates an empty circuit with a benchmark name attached.
    pub fn named(num_qubits: u32, name: impl Into<String>) -> Self {
        Circuit {
            num_qubits,
            gates: Vec::new(),
            name: name.into(),
        }
    }

    /// Builds a circuit from pre-validated parts.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::QubitOutOfRange`] if any gate touches a qubit
    /// `>= num_qubits`.
    pub fn from_gates(num_qubits: u32, gates: Vec<Gate>) -> Result<Self, CircuitError> {
        for (i, g) in gates.iter().enumerate() {
            if g.max_qubit() >= num_qubits {
                return Err(CircuitError::QubitOutOfRange {
                    gate: i,
                    qubit: g.max_qubit(),
                    num_qubits,
                });
            }
        }
        Ok(Circuit {
            num_qubits,
            gates,
            name: String::new(),
        })
    }

    /// The benchmark name, if one was attached.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Attaches or replaces the benchmark name.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Number of logical qubits.
    #[inline]
    pub fn num_qubits(&self) -> u32 {
        self.num_qubits
    }

    /// Number of gates.
    #[inline]
    pub fn len(&self) -> usize {
        self.gates.len()
    }

    /// Whether the circuit has no gates.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    /// The gates in program order.
    #[inline]
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// The gate at `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id >= self.len()`.
    #[inline]
    pub fn gate(&self, id: GateId) -> &Gate {
        &self.gates[id]
    }

    /// Number of two-qubit (braided) gates.
    pub fn two_qubit_count(&self) -> usize {
        self.gates.iter().filter(|g| g.is_two_qubit()).count()
    }

    /// Appends an already-constructed gate.
    ///
    /// # Panics
    ///
    /// Panics if the gate touches a qubit outside the circuit.
    pub fn push(&mut self, gate: Gate) -> &mut Self {
        assert!(
            gate.max_qubit() < self.num_qubits,
            "gate {gate} touches qubit {} but circuit has {} qubits",
            gate.max_qubit(),
            self.num_qubits
        );
        self.gates.push(gate);
        self
    }

    /// Appends every gate of `other` (qubit counts must match).
    ///
    /// # Panics
    ///
    /// Panics if `other` has more qubits than `self`.
    pub fn extend_from(&mut self, other: &Circuit) -> &mut Self {
        assert!(
            other.num_qubits <= self.num_qubits,
            "cannot append a {}-qubit circuit to a {}-qubit circuit",
            other.num_qubits,
            self.num_qubits
        );
        self.gates.extend_from_slice(&other.gates);
        self
    }

    // --- fluent single-qubit builders -------------------------------------

    /// Appends a Pauli X.
    pub fn x(&mut self, q: QubitId) -> &mut Self {
        self.push(Gate::single(SingleKind::X, q))
    }

    /// Appends a Pauli Y.
    pub fn y(&mut self, q: QubitId) -> &mut Self {
        self.push(Gate::single(SingleKind::Y, q))
    }

    /// Appends a Pauli Z.
    pub fn z(&mut self, q: QubitId) -> &mut Self {
        self.push(Gate::single(SingleKind::Z, q))
    }

    /// Appends a Hadamard.
    pub fn h(&mut self, q: QubitId) -> &mut Self {
        self.push(Gate::single(SingleKind::H, q))
    }

    /// Appends an S gate.
    pub fn s(&mut self, q: QubitId) -> &mut Self {
        self.push(Gate::single(SingleKind::S, q))
    }

    /// Appends an S† gate.
    pub fn sdg(&mut self, q: QubitId) -> &mut Self {
        self.push(Gate::single(SingleKind::Sdg, q))
    }

    /// Appends a T gate.
    pub fn t(&mut self, q: QubitId) -> &mut Self {
        self.push(Gate::single(SingleKind::T, q))
    }

    /// Appends a T† gate.
    pub fn tdg(&mut self, q: QubitId) -> &mut Self {
        self.push(Gate::single(SingleKind::Tdg, q))
    }

    /// Appends an Rx rotation.
    pub fn rx(&mut self, angle: f64, q: QubitId) -> &mut Self {
        self.push(Gate::single(SingleKind::Rx(angle), q))
    }

    /// Appends an Ry rotation.
    pub fn ry(&mut self, angle: f64, q: QubitId) -> &mut Self {
        self.push(Gate::single(SingleKind::Ry(angle), q))
    }

    /// Appends an Rz rotation.
    pub fn rz(&mut self, angle: f64, q: QubitId) -> &mut Self {
        self.push(Gate::single(SingleKind::Rz(angle), q))
    }

    /// Appends a computational-basis measurement.
    pub fn measure(&mut self, q: QubitId) -> &mut Self {
        self.push(Gate::single(SingleKind::Measure, q))
    }

    // --- fluent two-qubit builders -----------------------------------------

    /// Appends a CX (CNOT).
    pub fn cx(&mut self, control: QubitId, target: QubitId) -> &mut Self {
        self.push(Gate::two(TwoKind::Cx, control, target))
    }

    /// Appends a CZ.
    pub fn cz(&mut self, control: QubitId, target: QubitId) -> &mut Self {
        self.push(Gate::two(TwoKind::Cz, control, target))
    }

    /// Appends a controlled phase.
    pub fn cphase(&mut self, angle: f64, control: QubitId, target: QubitId) -> &mut Self {
        self.push(Gate::two(TwoKind::CPhase(angle), control, target))
    }

    /// Appends a SWAP.
    pub fn swap(&mut self, a: QubitId, b: QubitId) -> &mut Self {
        self.push(Gate::two(TwoKind::Swap, a, b))
    }

    /// Appends a Toffoli (CCX) decomposed into the standard 6-CX + 9
    /// single-qubit network (see [`crate::decompose::ccx_into`]).
    pub fn ccx(&mut self, c0: QubitId, c1: QubitId, target: QubitId) -> &mut Self {
        crate::decompose::ccx_into(self, c0, c1, target);
        self
    }

    /// Iterates over `(GateId, &Gate)` pairs in program order.
    pub fn iter(&self) -> impl Iterator<Item = (GateId, &Gate)> {
        self.gates.iter().enumerate()
    }
}

impl fmt::Display for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "circuit {}({} qubits, {} gates)",
            if self.name.is_empty() { "" } else { &self.name },
            self.num_qubits,
            self.gates.len()
        )?;
        for g in &self.gates {
            writeln!(f, "  {g}")?;
        }
        Ok(())
    }
}

impl Extend<Gate> for Circuit {
    fn extend<T: IntoIterator<Item = Gate>>(&mut self, iter: T) {
        for g in iter {
            self.push(g);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains() {
        let mut c = Circuit::new(4);
        c.h(0).cx(0, 1).cz(1, 2).cphase(0.25, 2, 3).t(3).swap(0, 3);
        assert_eq!(c.len(), 6);
        assert_eq!(c.two_qubit_count(), 4);
    }

    #[test]
    fn from_gates_validates_range() {
        let ok = Circuit::from_gates(2, vec![Gate::cx(0, 1)]);
        assert!(ok.is_ok());
        let err = Circuit::from_gates(2, vec![Gate::cx(0, 2)]);
        assert!(matches!(
            err,
            Err(CircuitError::QubitOutOfRange {
                gate: 0,
                qubit: 2,
                num_qubits: 2
            })
        ));
    }

    #[test]
    #[should_panic(expected = "touches qubit")]
    fn push_validates_range() {
        let mut c = Circuit::new(2);
        c.x(5);
    }

    #[test]
    fn ccx_expands_to_clifford_t() {
        let mut c = Circuit::new(3);
        c.ccx(0, 1, 2);
        assert_eq!(c.two_qubit_count(), 6, "standard decomposition uses 6 CX");
        assert!(c.len() > 6);
        assert!(c.gates().iter().all(|g| !matches!(
            g,
            Gate::Two {
                kind: TwoKind::Swap | TwoKind::Cz | TwoKind::CPhase(_),
                ..
            }
        )));
    }

    #[test]
    fn extend_from_appends() {
        let mut a = Circuit::new(3);
        a.h(0);
        let mut b = Circuit::new(2);
        b.cx(0, 1);
        a.extend_from(&b);
        assert_eq!(a.len(), 2);
    }

    #[test]
    #[should_panic(expected = "cannot append")]
    fn extend_from_rejects_larger() {
        let mut a = Circuit::new(2);
        let b = Circuit::new(3);
        a.extend_from(&b);
    }

    #[test]
    fn named_and_display() {
        let mut c = Circuit::named(2, "bell");
        c.h(0).cx(0, 1);
        assert_eq!(c.name(), "bell");
        let text = c.to_string();
        assert!(text.contains("bell"));
        assert!(text.contains("cx q[0], q[1]"));
    }

    #[test]
    fn extend_trait() {
        let mut c = Circuit::new(2);
        c.extend([Gate::cx(0, 1), Gate::single(SingleKind::H, 1)]);
        assert_eq!(c.len(), 2);
    }
}
