//! The AutoBraid scheduler — the paper's contribution, in its two
//! evaluated configurations, next to the strategies it is compared with.
//! [`AutoBraid::schedule`] drives every registry [`Strategy`].
//!
//! * **autobraid-sp** — stack-based path finder over an LLG-optimized
//!   initial placement (partitioning + simulated annealing, or the
//!   serpentine layout when the coupling graph has maximal degree ≤ 2).
//! * **autobraid-full** — autobraid-sp plus dynamic qubit placement: the
//!   swap-insertion layout optimizer triggered by the `p` threshold, and
//!   Maslov's linear-depth specialization for all-to-all patterns (the
//!   better of the two is kept, as in §3.3.2).
//! * **baseline** — "GP w. initM" after Javadi-Abhari et al. \[10\]:
//!   greedy shortest-distance-first braiding over a static placement
//!   from the graph partitioner (METIS in the original; our multilevel
//!   partitioner here). The layout never changes during execution — the
//!   design decision AutoBraid's dynamic placement overturns.
//! * **maslov** — Maslov's swap network on its own, over the serpentine
//!   line ([`crate::maslov`]).
//! * **pathfinder**, **portfolio** — the negotiated-congestion and
//!   per-layer portfolio routers over the autobraid-sp placement, with
//!   no dynamic placement.

use crate::config::ScheduleConfig;
use crate::maslov::{AdjacentPolicy, SwapNetwork};
use crate::metrics::ScheduleResult;
use crate::scheduler::{route_policy, run, EngineRun, LayoutMove, RoutePolicy};
use crate::strategy::Strategy;
use autobraid_circuit::{Circuit, DependenceDag, QubitId};
use autobraid_lattice::Grid;
use autobraid_placement::linear::place_along_serpentine;
use autobraid_placement::{
    anneal, initial::partition_placement, linear_placement, CouplingGraph, Placement,
};
use autobraid_telemetry as telemetry;

/// The AutoBraid compiler front end.
///
/// # Examples
///
/// ```
/// use autobraid::AutoBraid;
/// use autobraid::config::ScheduleConfig;
/// use autobraid::Strategy;
/// use autobraid_circuit::generators::ising::ising;
///
/// let compiler = AutoBraid::new(ScheduleConfig::default());
/// let circuit = ising(16, 2)?;
/// let outcome = compiler.schedule(Strategy::Full, &circuit);
/// assert!(outcome.result.total_cycles > 0);
/// # Ok::<(), autobraid_circuit::CircuitError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct AutoBraid {
    config: ScheduleConfig,
}

/// A schedule together with the context needed to verify or inspect it.
#[derive(Debug, Clone)]
pub struct ScheduleOutcome {
    /// The schedule and its statistics.
    pub result: ScheduleResult,
    /// The grid the circuit was scheduled on.
    pub grid: Grid,
    /// The placement at the *start* of execution (dynamic remapping may
    /// move qubits afterwards; [`crate::metrics::verify_schedule`] tracks
    /// that from the recorded swap layers).
    pub initial_placement: Placement,
}

impl AutoBraid {
    /// Creates a compiler with the given configuration.
    pub fn new(config: ScheduleConfig) -> Self {
        AutoBraid { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &ScheduleConfig {
        &self.config
    }

    /// Stage 2 of the framework: the LLG-optimized initial placement.
    ///
    /// Coupling graphs of maximal degree ≤ 2 take the exact serpentine
    /// layout; everything else is partitioned into grid regions and then
    /// refined by simulated annealing on the LLG objective (unless
    /// annealing is disabled in the config).
    pub fn initial_placement(&self, circuit: &Circuit, grid: &Grid) -> Placement {
        let _span = telemetry::span("placement");
        if let Some(linear) = linear_placement(circuit, grid) {
            telemetry::counter("placement.linear_layouts", 1);
            return linear;
        }
        let seed = partition_placement(circuit, grid);
        match &self.config.annealing {
            Some(cfg) => anneal(circuit, grid, seed, cfg).placement,
            None => seed,
        }
    }

    /// Schedules `circuit` with `strategy` on the smallest square grid,
    /// building the dependence DAG from the configuration.
    ///
    /// # Examples
    ///
    /// ```
    /// use autobraid::{AutoBraid, Strategy};
    /// use autobraid_circuit::generators::bv::bv_all_ones;
    ///
    /// let circuit = bv_all_ones(20)?;
    /// let outcome = AutoBraid::default().schedule(Strategy::Baseline, &circuit);
    /// assert_eq!(outcome.result.scheduler, "baseline");
    /// assert!(outcome.result.total_cycles > 0);
    /// # Ok::<(), autobraid_circuit::CircuitError>(())
    /// ```
    pub fn schedule(&self, strategy: Strategy, circuit: &Circuit) -> ScheduleOutcome {
        self.schedule_with_dag(strategy, circuit, &self.config.dag(circuit))
    }

    /// [`Self::schedule`] against a caller-supplied dependence DAG, shared
    /// by every candidate a strategy races and reusable for verification.
    /// `dag` must have been built from `circuit` consistently with
    /// `config.commutation_aware`.
    ///
    /// Each strategy is one choice of initial placement, routing policy
    /// ([`route_policy`]) and layout move (see the module docs).
    /// autobraid-full keeps the best of its candidates, as in §3.3.2: the
    /// engine at the configured `p` threshold, the engine with the
    /// optimizer off (`p = 0`, i.e. autobraid-sp — the paper sweeps `p`
    /// and "chooses the best one among all"), and, for all-to-all
    /// communication patterns, Maslov's swap network. A later candidate
    /// wins only with strictly fewer cycles, so each one quits once it
    /// reaches the incumbent's. The result is labelled with
    /// [`Strategy::name`].
    pub fn schedule_with_dag(
        &self,
        strategy: Strategy,
        circuit: &Circuit,
        dag: &DependenceDag,
    ) -> ScheduleOutcome {
        let config = &self.config;
        let grid = Grid::with_capacity_for(circuit.num_qubits() as usize);
        let policy = route_policy(strategy);
        // One engine drive per candidate, racing an incumbent of `bound`
        // cycles; the start placement comes back with the result.
        let drive = |placement: Placement, layout: LayoutMove, bound: u64| {
            // Maslov's swap network routes with its adjacency rule. Its
            // reports have never carried per-layer attribution, and its
            // canonical bytes keep it so.
            let network = matches!(layout, LayoutMove::SwapNetwork(_));
            let (name, policy): (_, &dyn RoutePolicy) = match policy.as_deref() {
                Some(policy) if !network => (strategy.name(), policy),
                _ => ("maslov", &AdjacentPolicy),
            };
            let drive = EngineRun::new(name, circuit, &grid, placement.clone(), policy, config);
            let (mut result, _) = run(drive.dag(dag).layout(layout).bound(bound))
                .expect("a defect-free lattice routes every gate")?;
            if network {
                result.layer_policies.clear();
            }
            Some((result, placement))
        };
        let maslov = |bound| {
            let n = circuit.num_qubits();
            let line = place_along_serpentine(&grid, &(0..n).collect::<Vec<QubitId>>());
            let network = SwapNetwork::along_serpentine(&grid, n);
            drive(line, LayoutMove::SwapNetwork(network), bound)
        };
        let best = match strategy {
            Strategy::Stack | Strategy::PathFinder | Strategy::Portfolio => drive(
                self.initial_placement(circuit, &grid),
                LayoutMove::None,
                u64::MAX,
            ),
            Strategy::Baseline => drive(
                partition_placement(circuit, &grid),
                LayoutMove::None,
                u64::MAX,
            ),
            Strategy::Maslov => maslov(u64::MAX),
            Strategy::Full => {
                let placement = self.initial_placement(circuit, &grid);
                let optimizer = config.layout_threshold > 0.0;
                // At `p = 0` swap insertion never fires: autobraid-sp.
                let layout = LayoutMove::SwapInsertion;
                let mut best = drive(placement.clone(), layout, u64::MAX).expect(UNBOUNDED);
                if optimizer {
                    // The optimizer-off candidate can only differ when the
                    // first run actually committed a swap layer: with zero
                    // committed layers the optimizer branch fell through on
                    // every step, so the p = 0 run would replay the exact
                    // same schedule. Skip it.
                    if best.0.swap_layers > 0 {
                        best =
                            drive(placement, LayoutMove::None, best.0.total_cycles).unwrap_or(best);
                    }
                    if is_all_to_all(circuit) {
                        best = maslov(best.0.total_cycles).unwrap_or(best);
                    }
                }
                Some(best)
            }
        };
        let (mut result, initial_placement) = best.expect(UNBOUNDED);
        result.scheduler = strategy.name().into();
        ScheduleOutcome {
            result,
            grid,
            initial_placement,
        }
    }
}

const UNBOUNDED: &str = "an unbounded schedule completes";

/// Heuristic all-to-all detector: the mean coupling degree exceeds 6
/// (QFT/Shor-like cascades qualify; 3-regular QAOA and linear Ising do
/// not).
fn is_all_to_all(circuit: &Circuit) -> bool {
    let coupling = CouplingGraph::of(circuit);
    let n = coupling.num_qubits().max(1) as usize;
    2 * coupling.edge_count() > 6 * n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::critical_path::critical_path_cycles;
    use crate::metrics::verify_schedule;
    use autobraid_circuit::generators::{
        bv::bv_all_ones, cc::counterfeit_coin, ising::ising, qft::qft,
    };

    fn check(circuit: &Circuit) -> (ScheduleResult, ScheduleResult) {
        let compiler = AutoBraid::new(ScheduleConfig::default());
        let sp = compiler.schedule(Strategy::Stack, circuit);
        verify_schedule(circuit, &sp.grid, &sp.initial_placement, &sp.result).unwrap();
        let full = compiler.schedule(Strategy::Full, circuit);
        verify_schedule(circuit, &full.grid, &full.initial_placement, &full.result).unwrap();
        (sp.result, full.result)
    }

    #[test]
    fn bv_hits_critical_path() {
        let c = bv_all_ones(30).unwrap();
        let (sp, full) = check(&c);
        let cp = critical_path_cycles(&c, sp.timing());
        assert_eq!(sp.total_cycles, cp);
        assert_eq!(full.total_cycles, cp);
    }

    #[test]
    fn cc_hits_critical_path() {
        let c = counterfeit_coin(25).unwrap();
        let (sp, _) = check(&c);
        assert_eq!(sp.total_cycles, critical_path_cycles(&c, sp.timing()));
    }

    #[test]
    fn ising_hits_critical_path_with_linear_layout() {
        let c = ising(25, 2).unwrap();
        let (sp, full) = check(&c);
        let cp = critical_path_cycles(&c, sp.timing());
        assert_eq!(
            sp.total_cycles, cp,
            "serpentine Ising must match CP (Table 2)"
        );
        assert_eq!(full.total_cycles, cp);
    }

    #[test]
    fn qft_beats_baseline() {
        let c = qft(25).unwrap();
        let (_, full) = check(&c);
        let base = AutoBraid::default().schedule(Strategy::Baseline, &c).result;
        assert!(
            full.total_cycles <= base.total_cycles,
            "autobraid-full {} vs baseline {}",
            full.total_cycles,
            base.total_cycles
        );
    }

    #[test]
    fn full_never_loses_to_sp_badly() {
        // full may differ from sp but must stay within the swap overhead
        // it chose to pay; on QFT it should win or tie.
        let c = qft(20).unwrap();
        let (sp, full) = check(&c);
        assert!(full.total_cycles <= sp.total_cycles.max(1) * 2);
    }

    #[test]
    fn all_to_all_detection() {
        assert!(is_all_to_all(&qft(20).unwrap()));
        assert!(!is_all_to_all(&ising(20, 2).unwrap()));
        assert!(!is_all_to_all(&bv_all_ones(20).unwrap()));
    }

    #[test]
    fn results_are_deterministic() {
        let c = qft(15).unwrap();
        let compiler = AutoBraid::new(ScheduleConfig::default());
        let a = compiler.schedule(Strategy::Full, &c);
        let b = compiler.schedule(Strategy::Full, &c);
        assert_eq!(a.result.total_cycles, b.result.total_cycles);
        assert_eq!(a.result.braid_steps, b.result.braid_steps);
    }

    #[test]
    fn baseline_schedules_verify() {
        for circuit in [qft(10).unwrap(), counterfeit_coin(12).unwrap()] {
            let outcome = AutoBraid::default().schedule(Strategy::Baseline, &circuit);
            let result = &outcome.result;
            verify_schedule(&circuit, &outcome.grid, &outcome.initial_placement, result).unwrap();
            assert!(result.total_cycles >= critical_path_cycles(&circuit, result.timing()));
        }
    }

    #[test]
    fn never_inserts_swaps() {
        let circuit = qft(12).unwrap();
        let result = AutoBraid::default()
            .schedule(Strategy::Baseline, &circuit)
            .result;
        assert_eq!(result.swap_layers, 0);
        assert_eq!(result.swap_count, 0);
    }
}
