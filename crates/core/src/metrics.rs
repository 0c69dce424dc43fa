//! Schedule results, step records, and verification.

use autobraid_circuit::{Circuit, GateId, QubitId};
use autobraid_lattice::{Cell, Grid, Occupancy, TimingModel, Vertex};
use autobraid_router::BraidPath;

/// A SWAP inserted by the layout optimizer: exchanges the tiles of two
/// logical qubits via a braiding path (3 chained CX braids).
#[derive(Debug, Clone, PartialEq)]
pub struct SwapOp {
    /// First qubit.
    pub a: QubitId,
    /// Second qubit.
    pub b: QubitId,
    /// The path the three CX braids occupy.
    pub path: BraidPath,
}

/// One scheduled braiding step (or local layer, or swap layer).
#[derive(Debug, Clone, PartialEq)]
pub enum Step {
    /// A layer of local single-qubit gates only (`d` cycles).
    Local {
        /// Completed single-qubit gate ids.
        gates: Vec<GateId>,
    },
    /// A braiding step, as long as its longest gate (`2d`, or `6d` with a
    /// native SWAP): concurrent braids plus any local gates riding along.
    Braid {
        /// `(gate id, braiding path)` for each routed CX.
        braids: Vec<(GateId, BraidPath)>,
        /// Local gates executed in the same step.
        locals: Vec<GateId>,
    },
    /// A swap layer inserted by the layout optimizer (`3 × 2d` cycles).
    SwapLayer {
        /// The simultaneously executed swaps.
        swaps: Vec<SwapOp>,
    },
}

/// Which routing policy handled one committed braiding layer, and why
/// — the per-layer strategy attribution the portfolio mode exposes
/// (fixed policies report themselves with reason `"fixed"`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerPolicy {
    /// Zero-based engine step index of the committed layer.
    pub step: u64,
    /// Name of the finder that routed it (`"stack"`, `"pathfinder"`, …).
    pub policy: &'static str,
    /// Short justification (`"fixed"`, `"dense-interference"`,
    /// `"race-stack-won"`, …).
    pub reason: &'static str,
}

/// The outcome of scheduling one circuit.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleResult {
    /// Scheduler name (`"autobraid-full"`, `"autobraid-sp"`, `"baseline"`,
    /// `"maslov"`, …).
    pub scheduler: String,
    /// Benchmark name, copied from the circuit.
    pub benchmark: String,
    /// Braiding steps taken (each `2d` cycles, `6d` with a native SWAP).
    pub braid_steps: u64,
    /// Pure local layers taken (each `d` cycles).
    pub local_steps: u64,
    /// Swap layers inserted (each `6d` cycles).
    pub swap_layers: u64,
    /// Individual swap operations inserted.
    pub swap_count: u64,
    /// Total surface-code cycles.
    pub total_cycles: u64,
    /// Peak routing-vertex utilization over all braid steps, in `[0, 1]`.
    pub peak_utilization: f64,
    /// Mean routing-vertex utilization over braid steps.
    pub mean_utilization: f64,
    /// Wall-clock compilation time in seconds.
    pub compile_seconds: f64,
    /// The step-by-step schedule (empty under
    /// [`crate::config::Recording::StatsOnly`]).
    pub steps: Vec<Step>,
    /// Per-committed-braid-layer strategy attribution, in step order
    /// (recorded alongside [`ScheduleResult::steps`], so likewise empty
    /// under [`crate::config::Recording::StatsOnly`]).
    pub layer_policies: Vec<LayerPolicy>,
    timing: TimingModel,
}

impl ScheduleResult {
    /// Creates an empty result shell for `scheduler` under `timing`.
    pub fn new(
        scheduler: impl Into<String>,
        benchmark: impl Into<String>,
        timing: TimingModel,
    ) -> Self {
        ScheduleResult {
            scheduler: scheduler.into(),
            benchmark: benchmark.into(),
            braid_steps: 0,
            local_steps: 0,
            swap_layers: 0,
            swap_count: 0,
            total_cycles: 0,
            peak_utilization: 0.0,
            mean_utilization: 0.0,
            compile_seconds: 0.0,
            steps: Vec::new(),
            layer_policies: Vec::new(),
            timing,
        }
    }

    /// The timing model the schedule was produced under.
    pub fn timing(&self) -> &TimingModel {
        &self.timing
    }

    /// Physical execution time in microseconds.
    pub fn time_us(&self) -> f64 {
        self.timing.cycles_to_us(self.total_cycles)
    }

    /// Physical execution time in seconds.
    pub fn time_seconds(&self) -> f64 {
        self.timing.cycles_to_seconds(self.total_cycles)
    }

    /// Speedup of this schedule over `other` (other's time / this time).
    pub fn speedup_over(&self, other: &ScheduleResult) -> f64 {
        other.total_cycles as f64 / self.total_cycles.max(1) as f64
    }
}

/// Exhaustively verifies a fully recorded schedule against its circuit:
///
/// 1. every gate executes exactly once;
/// 2. dependence order is respected (a gate runs strictly after all
///    predecessors);
/// 3. within each braid step, paths are pairwise vertex-disjoint and each
///    is a valid path between the gate's operand tiles *under the
///    placement at that moment* — swap layers update the tracked
///    placement;
/// 4. swap-layer paths are pairwise vertex-disjoint too.
///
/// Returns an error message describing the first violation.
pub fn verify_schedule(
    circuit: &Circuit,
    grid: &Grid,
    initial_placement: &autobraid_placement::Placement,
    result: &ScheduleResult,
) -> Result<(), String> {
    let dag = autobraid_circuit::dag::DependenceDag::new(circuit);
    verify_schedule_with_dag(circuit, &dag, grid, initial_placement, result)
}

/// [`verify_schedule`] against an explicit dependence DAG — use this form
/// for schedules produced with commutation-aware analysis (pass
/// [`autobraid_circuit::DependenceDag::with_commutation`]).
pub fn verify_schedule_with_dag(
    circuit: &Circuit,
    dag: &autobraid_circuit::dag::DependenceDag,
    grid: &Grid,
    initial_placement: &autobraid_placement::Placement,
    result: &ScheduleResult,
) -> Result<(), String> {
    let mut placement = initial_placement.clone();
    let mut done_at: Vec<Option<usize>> = vec![None; circuit.len()];
    let mut occ = Occupancy::new(grid);

    for (step_no, step) in result.steps.iter().enumerate() {
        let complete = |g: GateId, done_at: &mut Vec<Option<usize>>| -> Result<(), String> {
            if g >= circuit.len() {
                return Err(format!("step {step_no}: unknown gate {g}"));
            }
            if done_at[g].is_some() {
                return Err(format!("step {step_no}: gate {g} executed twice"));
            }
            for &p in dag.predecessors(g) {
                match done_at[p] {
                    Some(s) if s < step_no => {}
                    _ => {
                        return Err(format!(
                            "step {step_no}: gate {g} ran before its dependency {p}"
                        ))
                    }
                }
            }
            done_at[g] = Some(step_no);
            Ok(())
        };

        match step {
            Step::Local { gates } => {
                for &g in gates {
                    if circuit.gate(g).is_two_qubit() {
                        return Err(format!("step {step_no}: CX {g} in a local layer"));
                    }
                    complete(g, &mut done_at)?;
                }
            }
            Step::Braid { braids, locals } => {
                occ.clear();
                for (g, path) in braids {
                    let gate = circuit.gate(*g);
                    let Some((qa, qb)) = gate.pair() else {
                        return Err(format!("step {step_no}: gate {g} is not two-qubit"));
                    };
                    let (ca, cb) = (placement.cell_of(qa), placement.cell_of(qb));
                    match reserve_route(grid, &mut occ, ca, cb, path.vertices()) {
                        Ok(()) => {}
                        Err(PathFault::Invalid) => {
                            return Err(format!(
                                "step {step_no}: invalid path for gate {g} between {ca} and {cb}"
                            ))
                        }
                        Err(PathFault::Crosses) => {
                            return Err(format!(
                                "step {step_no}: path for gate {g} crosses another"
                            ))
                        }
                    }
                    complete(*g, &mut done_at)?;
                }
                for &g in locals {
                    if circuit.gate(g).is_two_qubit() {
                        return Err(format!("step {step_no}: CX {g} recorded as local"));
                    }
                    complete(g, &mut done_at)?;
                }
            }
            Step::SwapLayer { swaps } => {
                occ.clear();
                let mut touched = std::collections::HashSet::new();
                for swap in swaps {
                    if !touched.insert(swap.a) || !touched.insert(swap.b) {
                        return Err(format!(
                            "step {step_no}: qubit in two swaps ({}, {})",
                            swap.a, swap.b
                        ));
                    }
                    let (ca, cb) = (placement.cell_of(swap.a), placement.cell_of(swap.b));
                    match reserve_route(grid, &mut occ, ca, cb, swap.path.vertices()) {
                        Ok(()) => {}
                        Err(PathFault::Invalid) => {
                            return Err(format!(
                                "step {step_no}: invalid swap path ({},{})",
                                swap.a, swap.b
                            ))
                        }
                        Err(PathFault::Crosses) => {
                            return Err(format!(
                                "step {step_no}: swap path ({},{}) crosses another",
                                swap.a, swap.b
                            ))
                        }
                    }
                }
                for swap in swaps {
                    placement.swap_qubits(swap.a, swap.b);
                }
            }
        }
    }

    if let Some(missing) = done_at.iter().position(Option::is_none) {
        return Err(format!("gate {missing} never executed"));
    }
    Ok(())
}

/// Why [`reserve_route`] rejected a recorded path.
enum PathFault {
    /// It would fail [`BraidPath::new`] between its operands' tiles.
    Invalid,
    /// It is valid but shares a vertex with a path reserved before it.
    Crosses,
}

/// Checks a recorded path between tiles `a` and `b` in place and
/// reserves it in `occ`. A vertex already reserved is either a repeat
/// within the path (invalid, as [`BraidPath::new`] would find) or a
/// crossing; the repeat scan only runs on that rare failure.
fn reserve_route(
    grid: &Grid,
    occ: &mut Occupancy,
    a: Cell,
    b: Cell,
    vertices: &[Vertex],
) -> Result<(), PathFault> {
    if !BraidPath::is_walk_between(grid, a, b, vertices) {
        return Err(PathFault::Invalid);
    }
    if vertices.iter().all(|&v| occ.reserve(grid, v)) {
        return Ok(());
    }
    let repeats = (1..vertices.len()).any(|i| vertices[..i].contains(&vertices[i]));
    Err(if repeats {
        PathFault::Invalid
    } else {
        PathFault::Crosses
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use autobraid_lattice::CodeParams;

    #[test]
    fn time_conversions() {
        let timing = TimingModel::new(CodeParams::default());
        let mut r = ScheduleResult::new("test", "bench", timing);
        r.total_cycles = 1000;
        assert!((r.time_us() - 2200.0).abs() < 1e-9);
        assert!((r.time_seconds() - 2.2e-3).abs() < 1e-12);
    }

    #[test]
    fn speedup_ratio() {
        let timing = TimingModel::default();
        let mut fast = ScheduleResult::new("a", "b", timing);
        fast.total_cycles = 100;
        let mut slow = ScheduleResult::new("c", "b", timing);
        slow.total_cycles = 300;
        assert!((fast.speedup_over(&slow) - 3.0).abs() < 1e-12);
        assert!((slow.speedup_over(&fast) - 1.0 / 3.0).abs() < 1e-12);
    }
}
