//! Quantum Fourier transform.

use crate::circuit::Circuit;
use crate::error::CircuitError;
use std::f64::consts::PI;

/// The textbook `n`-qubit QFT: a Hadamard on each qubit followed by
/// controlled-phase rotations from every later qubit.
///
/// Gate count is `n + n(n-1)/2` with each controlled phase counted as one
/// two-qubit gate, matching the paper's Table 2 (QFT-200 → 20.1K gates).
/// The communication pattern is all-to-all — the paper's hardest case and
/// the one where dynamic placement earns its 30× speedup.
///
/// # Errors
///
/// Returns [`CircuitError::InvalidSize`] if `n < 2`.
///
/// # Examples
///
/// ```
/// use autobraid_circuit::generators::qft::qft;
///
/// let c = qft(200)?;
/// assert_eq!(c.len(), 20_100);
/// assert_eq!(c.two_qubit_count(), 19_900);
/// # Ok::<(), autobraid_circuit::error::CircuitError>(())
/// ```
pub fn qft(n: u32) -> Result<Circuit, CircuitError> {
    if n < 2 {
        return Err(CircuitError::InvalidSize(format!(
            "qft needs n >= 2, got {n}"
        )));
    }
    let mut c = Circuit::named(n, format!("qft{n}"));
    for i in 0..n {
        c.h(i);
        for j in i + 1..n {
            // Controlled phase by pi / 2^(j-i), controlled on the later qubit.
            let angle = PI / f64::from(1u32 << (j - i).min(30));
            c.cphase(angle, j, i);
        }
    }
    Ok(c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::DependenceDag;

    #[test]
    fn gate_counts_match_formula() {
        for n in [2u32, 5, 16, 50] {
            let c = qft(n).unwrap();
            let expected = n + n * (n - 1) / 2;
            assert_eq!(c.len() as u32, expected, "n={n}");
            assert_eq!(c.two_qubit_count() as u32, n * (n - 1) / 2);
            assert_eq!(c.num_qubits(), n);
        }
    }

    #[test]
    fn paper_sizes() {
        assert_eq!(qft(16).unwrap().len(), 136);
        assert_eq!(qft(400).unwrap().len(), 80_200); // Table 2: 80.2K
        assert_eq!(qft(500).unwrap().len(), 125_250); // Table 2: 0.12M
    }

    #[test]
    fn rejects_tiny() {
        assert!(qft(0).is_err());
        assert!(qft(1).is_err());
    }

    #[test]
    fn depth_is_linear_not_quadratic() {
        // The QFT dependence depth is 2n - 2 gates (each qubit's H must wait
        // for the cascade on earlier qubits, but cascades overlap).
        let c = qft(20).unwrap();
        let depth = DependenceDag::new(&c).depth();
        assert!((20..=60).contains(&depth), "depth = {depth}");
    }
}
