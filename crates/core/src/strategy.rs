//! The strategy registry: one table describing every scheduling
//! strategy the pipeline can drive.
//!
//! [`Strategy`] used to be a closed enum whose name mapping, sweep
//! order, CLI parsing, and wire format were four hand-maintained match
//! sites. They now all derive from [`REGISTRY`], a single const table
//! of [`StrategyInfo`] descriptors: [`Strategy::ALL`] is its projection,
//! [`Strategy::name`] reads it, [`Strategy::from_name`] inverts it, and
//! the capability flag [`StrategyInfo::supports_defects`] lets sweeps
//! like the conformance oracle select applicable strategies instead of
//! hand-listing them.
//!
//! Adding a strategy is: add the variant, add one `StrategyInfo` row,
//! and give [`AutoBraid::schedule_with_dag`](crate::AutoBraid::schedule_with_dag)
//! an arm, and [`route_policy`](crate::scheduler::route_policy) one if it
//! streams — both matches are exhaustive, so a new variant does not
//! compile until it has them. Everything else (oracle sweep,
//! `--strategy` parsing, service wire format, report naming) picks it
//! up from the table.

/// Which scheduler the pipeline drives.
///
/// Marked `#[non_exhaustive]`: downstream code must match with a
/// wildcard arm so new strategies can land without a breaking release.
/// Enumerate via [`Strategy::ALL`] (or [`REGISTRY`]) rather than
/// hand-listing variants.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Strategy {
    /// AutoBraid with dynamic placement (the paper's best configuration).
    #[default]
    Full,
    /// Stack-based path finder only (the paper's autobraid-sp).
    Stack,
    /// The greedy comparison baseline.
    Baseline,
    /// The Maslov swap network.
    Maslov,
    /// Negotiated-congestion (classic PathFinder) rip-up-and-reroute
    /// routing over the autobraid-sp placement.
    PathFinder,
    /// Per-layer chooser between the stack finder and PathFinder,
    /// driven by cheap layer features (racing both when uncertain).
    Portfolio,
}

impl Strategy {
    /// Every strategy, in report order — the differential oracle and
    /// other exhaustive sweeps iterate this instead of hand-listing
    /// variants. Derived from [`REGISTRY`].
    pub const ALL: [Strategy; REGISTRY.len()] = {
        let mut all = [Strategy::Full; REGISTRY.len()];
        let mut i = 0;
        while i < REGISTRY.len() {
            all[i] = REGISTRY[i].strategy;
            i += 1;
        }
        all
    };

    /// This strategy's registry row.
    pub fn info(self) -> &'static StrategyInfo {
        REGISTRY
            .iter()
            .find(|info| info.strategy == self)
            .expect("every Strategy variant has a REGISTRY row")
    }

    /// The scheduler name as it appears in reports, on the CLI, and in
    /// the `autobraid.service/v1` wire format.
    pub fn name(self) -> &'static str {
        self.info().name
    }

    /// Parses a strategy from its registry [`name`](Strategy::name) —
    /// the single inverse used by CLI `--strategy` flags and the
    /// service protocol.
    ///
    /// ```
    /// use autobraid::strategy::Strategy;
    ///
    /// assert_eq!(Strategy::from_name("pathfinder"), Some(Strategy::PathFinder));
    /// assert_eq!(Strategy::from_name("no-such"), None);
    /// ```
    pub fn from_name(name: &str) -> Option<Strategy> {
        REGISTRY
            .iter()
            .find(|info| info.name == name)
            .map(|info| info.strategy)
    }

    /// Every registry name, in [`Strategy::ALL`] order — for error
    /// messages listing the valid spellings.
    pub fn names() -> [&'static str; REGISTRY.len()] {
        let mut names = [""; REGISTRY.len()];
        let mut i = 0;
        while i < REGISTRY.len() {
            names[i] = REGISTRY[i].name;
            i += 1;
        }
        names
    }
}

/// One registry row: a strategy plus the capabilities sweeps select on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StrategyInfo {
    /// The strategy this row describes.
    pub strategy: Strategy,
    /// Stable external name (reports, CLI, service wire format).
    pub name: &'static str,
    /// One-line description for `--help`-style listings.
    pub summary: &'static str,
    /// Whether the strategy can schedule on a lattice with defective
    /// channel vertices (a pre-seeded base occupancy). The Maslov swap
    /// network (its transposition layers route on an empty lattice) and
    /// the distance-ordered baseline's fixed grid cannot.
    pub supports_defects: bool,
}

/// The single source of truth every strategy-keyed surface derives
/// from. Order is report order and [`Strategy::ALL`] order; the first
/// row must be [`Strategy::default`].
pub const REGISTRY: [StrategyInfo; 6] = [
    StrategyInfo {
        strategy: Strategy::Full,
        name: "autobraid-full",
        summary: "stack finder + dynamic placement (paper's best)",
        supports_defects: true,
    },
    StrategyInfo {
        strategy: Strategy::Stack,
        name: "autobraid-sp",
        summary: "stack-based path finder only",
        supports_defects: true,
    },
    StrategyInfo {
        strategy: Strategy::Baseline,
        name: "baseline",
        summary: "greedy shortest-first comparison baseline",
        supports_defects: false,
    },
    StrategyInfo {
        strategy: Strategy::Maslov,
        name: "maslov",
        summary: "linear-depth swap network for all-to-all patterns",
        supports_defects: false,
    },
    StrategyInfo {
        strategy: Strategy::PathFinder,
        name: "pathfinder",
        summary: "negotiated-congestion rip-up-and-reroute routing",
        supports_defects: true,
    },
    StrategyInfo {
        strategy: Strategy::Portfolio,
        name: "portfolio",
        summary: "per-layer chooser between stack finder and PathFinder",
        supports_defects: true,
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_mirrors_registry() {
        assert_eq!(Strategy::ALL.len(), REGISTRY.len());
        for (s, info) in Strategy::ALL.iter().zip(REGISTRY.iter()) {
            assert_eq!(*s, info.strategy);
        }
        assert_eq!(Strategy::ALL[0], Strategy::default());
    }

    #[test]
    fn names_are_unique_and_roundtrip() {
        let names = Strategy::names();
        for (i, name) in names.iter().enumerate() {
            assert_eq!(
                names.iter().position(|n| n == name),
                Some(i),
                "duplicate strategy name {name}"
            );
        }
        for s in Strategy::ALL {
            assert_eq!(Strategy::from_name(s.name()), Some(s));
        }
        assert_eq!(Strategy::from_name("bogus"), None);
    }

    #[test]
    fn info_capability_flags() {
        assert!(Strategy::Full.info().supports_defects);
        assert!(Strategy::PathFinder.info().supports_defects);
        assert!(Strategy::Portfolio.info().supports_defects);
        assert!(!Strategy::Baseline.info().supports_defects);
        assert!(!Strategy::Maslov.info().supports_defects);
    }
}
