//! # AutoBraid conformance harness
//!
//! Differential testing for the AutoBraid compiler: a seeded circuit
//! fuzzer, an oracle that compiles every case under every
//! strategy/optimize/thread combination and cross-checks the results,
//! and a delta-debugging shrinker that turns a failure into a
//! self-contained repro file.
//!
//! * [`dsl`] — one `u64` seed → a circuit family, its size parameters,
//!   and an optional defective-channel overlay;
//! * [`case`] — a [`case::ConformanceCase`] and its versioned repro file
//!   format (plain OpenQASM 2.0 plus `// conformance:` directives);
//! * [`oracle`] — the differential checks and the [`oracle::Divergence`]
//!   report type;
//! * [`mod@shrink`] — ddmin minimization of a failing case under an
//!   arbitrary predicate.
//!
//! The committed regression corpus lives in `tests/corpus/` at the
//! workspace root and is replayed by `tests/conformance.rs`; the fuzz
//! driver is `cargo run -p autobraid-bench --bin fuzz`. The test
//! taxonomy and the workflow for promoting a shrunk repro into the
//! corpus are documented in `docs/TESTING.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc_guard;
pub mod case;
pub mod dsl;
pub mod oracle;
pub mod shrink;

pub use case::{ConformanceCase, REPRO_VERSION};
pub use dsl::{generate_case, Family};
pub use oracle::{check_case, first_divergence, Divergence, OracleConfig};
pub use shrink::shrink;

/// The oracle must catch a deliberately broken router: this is the
/// harness testing itself. A policy that routes correctly and then
/// swaps the paths of the first two routed gates produces paths that
/// are each valid in isolation but wrong for their operands — exactly
/// the kind of subtle corruption the oracle exists to catch.
#[cfg(test)]
mod selftest {
    use crate::oracle::{check_policy_schedule, Divergence};
    use crate::{shrink, ConformanceCase};
    use autobraid::{RoutePolicy, StackPolicy};
    use autobraid_circuit::generators::qft::qft;
    use autobraid_lattice::{Grid, Occupancy};
    use autobraid_router::path::CxRequest;
    use autobraid_router::RouteOutcome;

    /// Routes honestly, then swaps the paths of the first two routed
    /// gates. Each path is still simple, on-grid, and disjoint from the
    /// others — only the gate↔path assignment is wrong.
    struct PathSwappingPolicy;

    impl RoutePolicy for PathSwappingPolicy {
        fn name(&self) -> &'static str {
            "path-swapping (deliberately broken)"
        }

        fn route(
            &self,
            grid: &Grid,
            occupancy: &mut Occupancy,
            requests: &[CxRequest],
        ) -> RouteOutcome {
            let mut outcome = StackPolicy.route(grid, occupancy, requests);
            if outcome.routed.len() >= 2 {
                let first = outcome.routed[0].path.clone();
                let second = outcome.routed[1].path.clone();
                outcome.routed[0].path = second;
                outcome.routed[1].path = first;
            }
            outcome
        }
    }

    fn failure(case: &ConformanceCase) -> Option<Divergence> {
        let mut divergences = Vec::new();
        check_policy_schedule(case, &PathSwappingPolicy, &mut divergences);
        divergences.into_iter().next()
    }

    #[test]
    fn oracle_catches_the_bugged_router_and_shrinks_the_repro() {
        // Sanity: the honest policy sails through the same checks.
        let case = ConformanceCase::new(qft(6).unwrap(), 0);
        let mut clean = Vec::new();
        check_policy_schedule(&case, &StackPolicy, &mut clean);
        assert!(clean.is_empty(), "{clean:?}");

        // The corrupted router must be caught...
        let caught = failure(&case).expect("oracle missed the swapped paths");
        assert!(
            caught.detail.contains("invalid schedule"),
            "unexpected divergence kind: {caught}"
        );

        // ...and the shrinker must reduce the witness to a handful of
        // gates (two CX gates are the theoretical minimum for a swap).
        let small = shrink(&case, |c| failure(c).is_some());
        assert!(
            small.circuit.len() <= 10,
            "shrunk repro still has {} gates",
            small.circuit.len()
        );
        assert!(failure(&small).is_some(), "shrunk repro stopped failing");

        // The repro file round-trips and still reproduces the failure.
        let text = small.to_repro();
        let reloaded = ConformanceCase::from_repro(&text).unwrap();
        assert!(
            failure(&reloaded).is_some(),
            "reloaded repro stopped failing:\n{text}"
        );
    }
}
