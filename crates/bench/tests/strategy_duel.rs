//! Quality pin for the `strategy_duel` experiment (EXPERIMENTS.md,
//! "PathFinder vs stack finder duel"): braid steps to drain each
//! 16-qubit generator family under the stack, PathFinder and Portfolio
//! strategies may fall but never rise, and negotiation keeps its QFT
//! win of 32 steps against the stack finder's 34.

use autobraid::{AutoBraid, Strategy};
use autobraid_bench::{duel_families, eval_config};

/// Steps-to-drain ceilings per family: (stack, PathFinder, Portfolio),
/// the committed EXPERIMENTS.md table.
const CEILINGS: [(&str, [u64; 3]); 5] = [
    ("layered", [11, 12, 11]),
    ("burst", [16, 16, 16]),
    ("chain", [6, 6, 6]),
    ("qft", [34, 32, 32]),
    ("ising", [8, 8, 8]),
];

#[test]
fn no_duel_family_drains_in_more_steps() {
    let compiler = AutoBraid::new(eval_config());
    let families = duel_families();
    assert_eq!(families.len(), CEILINGS.len());
    for ((family, circuit), (pinned, ceiling)) in families.iter().zip(CEILINGS) {
        assert_eq!(*family, pinned);
        let strategies = [Strategy::Stack, Strategy::PathFinder, Strategy::Portfolio];
        for (strategy, max) in strategies.into_iter().zip(ceiling) {
            let got = compiler.schedule(strategy, circuit).result.braid_steps;
            assert!(
                got <= max,
                "{family}/{}: {got} braid steps, ceiling {max}",
                strategy.name()
            );
        }
    }
}
