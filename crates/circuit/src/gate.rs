//! Logical gate set.
//!
//! The universal set assumed by the paper is Clifford+T: single-qubit gates
//! execute locally inside a logical-qubit tile, while every two-qubit gate
//! requires a braiding path between its operand tiles. Phase/T gates
//! consume magic states assumed to be steadily supplied at the data's
//! location (paper §4.1), so they are local too.

use std::fmt;

/// Index of a logical qubit within a circuit (dense, starting at 0).
pub type QubitId = u32;

/// Single-qubit gate kinds (all local to a tile — no routing required).
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum SingleKind {
    /// Pauli X (logical bit flip).
    X,
    /// Pauli Y.
    Y,
    /// Pauli Z (logical phase flip).
    Z,
    /// Hadamard — applied within the tile plus surrounding qubits.
    H,
    /// Phase gate S = Z^{1/2}.
    S,
    /// Inverse phase gate.
    Sdg,
    /// T = Z^{1/4}; consumes a magic state (assumed locally available).
    T,
    /// Inverse T.
    Tdg,
    /// X rotation by the given angle (radians).
    Rx(f64),
    /// Y rotation by the given angle (radians).
    Ry(f64),
    /// Z rotation by the given angle (radians).
    Rz(f64),
    /// Computational-basis measurement.
    Measure,
}

impl SingleKind {
    /// Short lowercase mnemonic (matches the OpenQASM spelling).
    pub fn mnemonic(&self) -> &'static str {
        match self {
            SingleKind::X => "x",
            SingleKind::Y => "y",
            SingleKind::Z => "z",
            SingleKind::H => "h",
            SingleKind::S => "s",
            SingleKind::Sdg => "sdg",
            SingleKind::T => "t",
            SingleKind::Tdg => "tdg",
            SingleKind::Rx(_) => "rx",
            SingleKind::Ry(_) => "ry",
            SingleKind::Rz(_) => "rz",
            SingleKind::Measure => "measure",
        }
    }
}

/// Two-qubit gate kinds (every one requires a braiding path).
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum TwoKind {
    /// Controlled NOT — the braided CX of the paper.
    Cx,
    /// Controlled Z.
    Cz,
    /// Controlled phase by the given angle; counted as a single two-qubit
    /// gate (this matches the paper's QFT gate counts).
    CPhase(f64),
    /// SWAP of two logical qubits. Implemented as three CX gates (paper
    /// Fig. 11); kept as a distinct kind so schedulers can charge 3 braiding
    /// steps and track the permutation.
    Swap,
}

impl TwoKind {
    /// Short lowercase mnemonic (matches the OpenQASM spelling).
    pub fn mnemonic(&self) -> &'static str {
        match self {
            TwoKind::Cx => "cx",
            TwoKind::Cz => "cz",
            TwoKind::CPhase(_) => "cp",
            TwoKind::Swap => "swap",
        }
    }

    /// Number of braiding steps one of these gates occupies. A SWAP is
    /// three chained CX gates; everything else is one braid.
    pub fn braid_steps(&self) -> u64 {
        match self {
            TwoKind::Swap => 3,
            _ => 1,
        }
    }
}

/// A gate applied to concrete qubits.
///
/// # Examples
///
/// ```
/// use autobraid_circuit::gate::{Gate, SingleKind, TwoKind};
///
/// let g = Gate::two(TwoKind::Cx, 0, 3);
/// assert!(g.is_two_qubit());
/// assert_eq!(*g.qubits(), [0, 3]);
///
/// let h = Gate::single(SingleKind::H, 2);
/// assert_eq!(*h.qubits(), [2]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Gate {
    /// A local single-qubit operation.
    Single {
        /// Which operation.
        kind: SingleKind,
        /// The operand qubit.
        qubit: QubitId,
    },
    /// A two-qubit operation requiring a braiding path.
    Two {
        /// Which operation.
        kind: TwoKind,
        /// Control qubit (first operand for symmetric gates).
        control: QubitId,
        /// Target qubit (second operand for symmetric gates).
        target: QubitId,
    },
}

impl Gate {
    /// Builds a single-qubit gate.
    pub fn single(kind: SingleKind, qubit: QubitId) -> Self {
        Gate::Single { kind, qubit }
    }

    /// Builds a two-qubit gate.
    ///
    /// # Panics
    ///
    /// Panics if `control == target`.
    pub fn two(kind: TwoKind, control: QubitId, target: QubitId) -> Self {
        assert_ne!(control, target, "two-qubit gate operands must differ");
        Gate::Two {
            kind,
            control,
            target,
        }
    }

    /// Shorthand for a CX gate.
    pub fn cx(control: QubitId, target: QubitId) -> Self {
        Gate::two(TwoKind::Cx, control, target)
    }

    /// Whether this gate needs a braiding path.
    #[inline]
    pub fn is_two_qubit(&self) -> bool {
        matches!(self, Gate::Two { .. })
    }

    /// The operand qubits (one or two entries), without allocating.
    pub fn qubits(&self) -> Operands {
        match *self {
            Gate::Single { qubit, .. } => Operands {
                qubits: [qubit, qubit],
                len: 1,
            },
            Gate::Two {
                control, target, ..
            } => Operands {
                qubits: [control, target],
                len: 2,
            },
        }
    }

    /// Whether `q` is an operand of this gate.
    pub fn acts_on(&self, q: QubitId) -> bool {
        match *self {
            Gate::Single { qubit, .. } => qubit == q,
            Gate::Two {
                control, target, ..
            } => control == q || target == q,
        }
    }

    /// The two operands of a two-qubit gate, or `None` for a local gate.
    pub fn pair(&self) -> Option<(QubitId, QubitId)> {
        match *self {
            Gate::Two {
                control, target, ..
            } => Some((control, target)),
            Gate::Single { .. } => None,
        }
    }

    /// The largest operand qubit index.
    pub fn max_qubit(&self) -> QubitId {
        match *self {
            Gate::Single { qubit, .. } => qubit,
            Gate::Two {
                control, target, ..
            } => control.max(target),
        }
    }

    /// Remaps operand qubits through `f` (used when relabelling circuits).
    ///
    /// # Panics
    ///
    /// Panics if the remap collapses a two-qubit gate's operands.
    pub fn map_qubits(&self, mut f: impl FnMut(QubitId) -> QubitId) -> Gate {
        match *self {
            Gate::Single { kind, qubit } => Gate::Single {
                kind,
                qubit: f(qubit),
            },
            Gate::Two {
                kind,
                control,
                target,
            } => Gate::two(kind, f(control), f(target)),
        }
    }
}

/// A gate's operand qubits, in operand order ([`Gate::qubits`]): one or
/// two entries held inline. Derefs to a slice.
#[derive(Debug, Clone, Copy)]
pub struct Operands {
    qubits: [QubitId; 2],
    len: u8,
}

impl std::ops::Deref for Operands {
    type Target = [QubitId];

    fn deref(&self) -> &[QubitId] {
        &self.qubits[..usize::from(self.len)]
    }
}

impl std::ops::DerefMut for Operands {
    fn deref_mut(&mut self) -> &mut [QubitId] {
        &mut self.qubits[..usize::from(self.len)]
    }
}

impl IntoIterator for Operands {
    type Item = QubitId;
    type IntoIter = std::iter::Take<std::array::IntoIter<QubitId, 2>>;

    fn into_iter(self) -> Self::IntoIter {
        self.qubits.into_iter().take(usize::from(self.len))
    }
}

impl fmt::Display for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Gate::Single { kind, qubit } => match kind {
                SingleKind::Rx(a) | SingleKind::Ry(a) | SingleKind::Rz(a) => {
                    write!(f, "{}({a}) q[{qubit}]", kind.mnemonic())
                }
                _ => write!(f, "{} q[{qubit}]", kind.mnemonic()),
            },
            Gate::Two {
                kind,
                control,
                target,
            } => match kind {
                TwoKind::CPhase(a) => write!(f, "cp({a}) q[{control}], q[{target}]"),
                _ => write!(f, "{} q[{control}], q[{target}]", kind.mnemonic()),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qubits_and_arity() {
        let g = Gate::cx(1, 4);
        assert!(g.is_two_qubit());
        assert_eq!(*g.qubits(), [1, 4]);
        assert_eq!(g.pair(), Some((1, 4)));
        assert_eq!(g.max_qubit(), 4);

        let s = Gate::single(SingleKind::T, 7);
        assert!(!s.is_two_qubit());
        assert_eq!(s.pair(), None);
        assert_eq!(s.max_qubit(), 7);
    }

    #[test]
    #[should_panic(expected = "operands must differ")]
    fn rejects_equal_operands() {
        let _ = Gate::cx(3, 3);
    }

    #[test]
    fn acts_on() {
        let g = Gate::two(TwoKind::Cz, 2, 5);
        assert!(g.acts_on(2));
        assert!(g.acts_on(5));
        assert!(!g.acts_on(3));
    }

    #[test]
    fn swap_costs_three_braids() {
        assert_eq!(TwoKind::Swap.braid_steps(), 3);
        assert_eq!(TwoKind::Cx.braid_steps(), 1);
        assert_eq!(TwoKind::CPhase(0.5).braid_steps(), 1);
    }

    #[test]
    fn map_qubits_relabels() {
        let g = Gate::cx(0, 1).map_qubits(|q| q + 10);
        assert_eq!(g.pair(), Some((10, 11)));
    }

    #[test]
    #[should_panic(expected = "operands must differ")]
    fn map_qubits_rejects_collapse() {
        let _ = Gate::cx(0, 1).map_qubits(|_| 5);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Gate::cx(0, 1).to_string(), "cx q[0], q[1]");
        assert_eq!(Gate::single(SingleKind::H, 2).to_string(), "h q[2]");
        assert_eq!(
            Gate::single(SingleKind::Rz(0.5), 2).to_string(),
            "rz(0.5) q[2]"
        );
    }
}
