//! Random circuit generators for tests and stress benchmarks.

use crate::circuit::Circuit;
use crate::error::CircuitError;
use autobraid_telemetry::Rng64;

/// A seeded random circuit: `num_gates` gates, each two-qubit with
/// probability `two_qubit_fraction` (uniform random distinct operands)
/// and otherwise a uniform random single-qubit Clifford+T gate.
///
/// # Errors
///
/// Returns [`CircuitError::InvalidSize`] if `n < 2` or the fraction is
/// outside `[0, 1]`.
pub fn random_circuit(
    n: u32,
    num_gates: usize,
    two_qubit_fraction: f64,
    seed: u64,
) -> Result<Circuit, CircuitError> {
    if n < 2 {
        return Err(CircuitError::InvalidSize(format!("need n >= 2, got {n}")));
    }
    if !(0.0..=1.0).contains(&two_qubit_fraction) {
        return Err(CircuitError::InvalidSize(format!(
            "two_qubit_fraction must be in [0,1], got {two_qubit_fraction}"
        )));
    }
    let mut rng = Rng64::seed_from_u64(seed);
    let mut c = Circuit::named(n, format!("random{n}"));
    for _ in 0..num_gates {
        if rng.gen_bool(two_qubit_fraction) {
            let a = rng.gen_range(0..n);
            let mut b = rng.gen_range(0..n);
            while b == a {
                b = rng.gen_range(0..n);
            }
            c.cx(a, b);
        } else {
            let q = rng.gen_range(0..n);
            match rng.gen_range(0..5) {
                0 => c.h(q),
                1 => c.t(q),
                2 => c.s(q),
                3 => c.x(q),
                _ => c.z(q),
            };
        }
    }
    Ok(c)
}

/// A layered random circuit: `layers` rounds, each a maximal set of CX
/// gates over disjoint random pairs followed (with probability
/// `single_fraction` per qubit) by a random single-qubit gate. The
/// conformance fuzzer's bread-and-butter workload: every layer is
/// theoretically concurrent, so the router sees sustained congestion.
///
/// # Errors
///
/// Returns [`CircuitError::InvalidSize`] if `n < 2` or `single_fraction`
/// is outside `[0, 1]`.
pub fn layered_cx(
    n: u32,
    layers: usize,
    single_fraction: f64,
    seed: u64,
) -> Result<Circuit, CircuitError> {
    if n < 2 {
        return Err(CircuitError::InvalidSize(format!("need n >= 2, got {n}")));
    }
    if !(0.0..=1.0).contains(&single_fraction) {
        return Err(CircuitError::InvalidSize(format!(
            "single_fraction must be in [0,1], got {single_fraction}"
        )));
    }
    let mut rng = Rng64::seed_from_u64(seed);
    let mut c = Circuit::named(n, format!("layered{n}x{layers}"));
    let mut qubits: Vec<u32> = (0..n).collect();
    for _ in 0..layers {
        rng.shuffle(&mut qubits);
        for chunk in qubits.chunks_exact(2) {
            c.cx(chunk[0], chunk[1]);
        }
        for q in 0..n {
            if rng.gen_bool(single_fraction) {
                match rng.gen_range(0..4) {
                    0 => c.h(q),
                    1 => c.t(q),
                    2 => c.s(q),
                    _ => c.x(q),
                };
            }
        }
    }
    Ok(c)
}

/// An all-to-all burst circuit: `bursts` rounds, each a random hub qubit
/// issuing CX gates to `fanout` random distinct partners. Hub stars make
/// the interference graph dense (every gate of a burst shares the hub),
/// exercising the stack finder's peeling far from the disjoint-pair happy
/// path.
///
/// # Errors
///
/// Returns [`CircuitError::InvalidSize`] if `n < 2` or `fanout >= n`.
pub fn all_to_all_burst(
    n: u32,
    bursts: usize,
    fanout: u32,
    seed: u64,
) -> Result<Circuit, CircuitError> {
    if n < 2 {
        return Err(CircuitError::InvalidSize(format!("need n >= 2, got {n}")));
    }
    if fanout >= n {
        return Err(CircuitError::InvalidSize(format!(
            "fanout {fanout} needs at least {} qubits, have {n}",
            fanout + 1
        )));
    }
    let mut rng = Rng64::seed_from_u64(seed);
    let mut c = Circuit::named(n, format!("burst{n}x{bursts}"));
    let others: Vec<u32> = (0..n).collect();
    for _ in 0..bursts {
        let hub = rng.gen_range(0..n);
        let partners: Vec<u32> = others.iter().copied().filter(|&q| q != hub).collect();
        for &target in &rng.sample(&partners, fanout as usize) {
            c.cx(hub, target);
        }
    }
    Ok(c)
}

/// A nearest-neighbor brickwork chain: `rounds` alternating layers of
/// CX(i, i+1) over even then odd offsets, with each gate's direction
/// chosen at random. The serpentine-placement fast path's native
/// workload.
///
/// # Errors
///
/// Returns [`CircuitError::InvalidSize`] if `n < 2`.
pub fn neighbor_chain(n: u32, rounds: usize, seed: u64) -> Result<Circuit, CircuitError> {
    if n < 2 {
        return Err(CircuitError::InvalidSize(format!("need n >= 2, got {n}")));
    }
    let mut rng = Rng64::seed_from_u64(seed);
    let mut c = Circuit::named(n, format!("chain{n}x{rounds}"));
    for round in 0..rounds {
        let start = (round % 2) as u32;
        let mut q = start;
        while q + 1 < n {
            if rng.gen_bool(0.5) {
                c.cx(q, q + 1);
            } else {
                c.cx(q + 1, q);
            }
            q += 2;
        }
    }
    Ok(c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::ParallelismProfile;

    #[test]
    fn respects_gate_count_and_fraction() {
        let c = random_circuit(10, 1000, 0.5, 42).unwrap();
        assert_eq!(c.len(), 1000);
        let frac = c.two_qubit_count() as f64 / 1000.0;
        assert!((0.4..=0.6).contains(&frac), "fraction {frac}");
    }

    #[test]
    fn extremes_of_fraction() {
        assert_eq!(random_circuit(5, 100, 0.0, 1).unwrap().two_qubit_count(), 0);
        assert_eq!(
            random_circuit(5, 100, 1.0, 1).unwrap().two_qubit_count(),
            100
        );
    }

    #[test]
    fn deterministic_by_seed() {
        assert_eq!(
            random_circuit(8, 50, 0.4, 9).unwrap(),
            random_circuit(8, 50, 0.4, 9).unwrap()
        );
        assert_ne!(
            random_circuit(8, 50, 0.4, 9).unwrap(),
            random_circuit(8, 50, 0.4, 10).unwrap()
        );
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(random_circuit(1, 10, 0.5, 0).is_err());
        assert!(random_circuit(4, 10, 1.5, 0).is_err());
        assert!(layered_cx(1, 3, 0.0, 0).is_err());
        assert!(layered_cx(4, 3, -0.1, 0).is_err());
        assert!(all_to_all_burst(1, 2, 0, 0).is_err());
        assert!(all_to_all_burst(4, 2, 4, 0).is_err());
        assert!(neighbor_chain(1, 2, 0).is_err());
    }

    #[test]
    fn layered_cx_packs_maximal_layers() {
        let c = layered_cx(8, 5, 0.0, 11).unwrap();
        // 4 disjoint CX per layer, no single-qubit gates.
        assert_eq!(c.len(), 20);
        assert_eq!(c.two_qubit_count(), 20);
        let p = ParallelismProfile::analyze(&c);
        assert_eq!(p.max_concurrent_cx(), 4);
        // Odd qubit count leaves one qubit out per layer.
        let odd = layered_cx(7, 2, 0.0, 11).unwrap();
        assert_eq!(odd.two_qubit_count(), 6);
        assert_eq!(
            layered_cx(8, 5, 0.3, 11).unwrap(),
            layered_cx(8, 5, 0.3, 11).unwrap()
        );
    }

    #[test]
    fn burst_gates_share_their_hub() {
        let c = all_to_all_burst(9, 4, 5, 23).unwrap();
        assert_eq!(c.len(), 20);
        assert_eq!(c.two_qubit_count(), 20);
        for burst in c.gates().chunks(5) {
            let hub = burst[0].pair().unwrap().0;
            for g in burst {
                let (control, target) = g.pair().unwrap();
                assert_eq!(control, hub);
                assert_ne!(target, hub);
            }
            // Partners within one burst are distinct.
            let mut targets: Vec<u32> = burst.iter().map(|g| g.pair().unwrap().1).collect();
            targets.sort_unstable();
            targets.dedup();
            assert_eq!(targets.len(), 5);
        }
    }

    #[test]
    fn neighbor_chain_is_brickwork() {
        let c = neighbor_chain(6, 4, 31).unwrap();
        // Even rounds: pairs (0,1)(2,3)(4,5); odd rounds: (1,2)(3,4).
        assert_eq!(c.len(), 2 * 3 + 2 * 2);
        for g in c.gates() {
            let (a, b) = g.pair().unwrap();
            assert_eq!(a.abs_diff(b), 1, "{g:?} is not nearest-neighbor");
        }
        assert_eq!(
            neighbor_chain(6, 4, 31).unwrap(),
            neighbor_chain(6, 4, 31).unwrap()
        );
        assert_ne!(
            neighbor_chain(6, 4, 31).unwrap(),
            neighbor_chain(6, 4, 32).unwrap()
        );
    }
}
