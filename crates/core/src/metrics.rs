//! Schedule results, the interval record both engine clocks write, and
//! the one verifier every schedule is checked by.
//!
//! A schedule is a list of [`Interval`]s: each holds one gate (with its
//! braiding path, if it is two-qubit) or one inserted swap for a run of
//! `d`-cycle slots. The lock-step clock records a step as intervals that
//! share a start slot; the per-qubit clock records each gate as it
//! starts. [`verify_schedule_with_dag`] reads either.

use crate::critical_path::gate_cycles;
use autobraid_circuit::{Circuit, GateId, QubitId};
use autobraid_lattice::{Grid, TimingModel};
use autobraid_router::BraidPath;
use std::collections::VecDeque;

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

/// Slots an inserted swap holds its path: three chained CX braids.
pub const SWAP_SLOTS: u64 = 6;

/// What an [`Interval`] runs.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// A circuit gate; a two-qubit gate holds its braiding path, a local
    /// gate has none.
    Gate {
        /// The gate.
        gate: GateId,
        /// The braiding path, held for the whole interval.
        path: Option<BraidPath>,
    },
    /// A swap inserted by a layout move. It takes effect at the
    /// interval's finish.
    Swap(SwapOp),
}

/// One scheduled operation, held from `start_slot` for `slots` slots of
/// `d` surface-code cycles each.
#[derive(Debug, Clone, PartialEq)]
pub struct Interval {
    /// First slot the operation occupies.
    pub start_slot: u64,
    /// Slots occupied: a gate's [`gate_cycles`] over `d` (1 local, 2 per
    /// CX braid, 6 for a native SWAP), [`SWAP_SLOTS`] for a swap.
    pub slots: u64,
    /// The gate or swap.
    pub op: Op,
}

impl Interval {
    /// The first slot after the interval.
    pub fn finish_slot(&self) -> u64 {
        self.start_slot + self.slots
    }

    /// The circuit gate it runs, if it is not a swap.
    pub fn gate(&self) -> Option<GateId> {
        match self.op {
            Op::Gate { gate, .. } => Some(gate),
            Op::Swap(_) => None,
        }
    }

    /// The braiding path it holds, if any.
    pub fn path(&self) -> Option<&BraidPath> {
        match &self.op {
            Op::Gate { path, .. } => path.as_ref(),
            Op::Swap(swap) => Some(&swap.path),
        }
    }
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
    /// The schedule's intervals, in record order (empty under
    /// [`crate::config::Recording::StatsOnly`]).
    pub steps: Vec<Interval>,
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

    /// The recorded gate ids in the order they execute: by start slot,
    /// then record order. Gates that start in the same slot are
    /// independent, so replaying them in this order computes what the
    /// circuit does.
    pub fn execution_order(&self) -> Vec<GateId> {
        let mut gates: Vec<(u64, GateId)> = self
            .steps
            .iter()
            .filter_map(|i| Some((i.start_slot, i.gate()?)))
            .collect();
        gates.sort_by_key(|&(start, _)| start);
        gates.into_iter().map(|(_, g)| g).collect()
    }
}

/// Exhaustively verifies a fully recorded schedule against its circuit's
/// plain dependence DAG; see [`verify_schedule_with_dag`].
pub fn verify_schedule(
    circuit: &Circuit,
    grid: &Grid,
    initial_placement: &autobraid_placement::Placement,
    result: &ScheduleResult,
) -> Result<(), String> {
    let dag = autobraid_circuit::dag::DependenceDag::new(circuit);
    verify_schedule_with_dag(circuit, &dag, grid, initial_placement, result)
}

/// Exhaustively verifies a fully recorded schedule, from either clock,
/// against the dependence DAG it was built with (pass
/// [`autobraid_circuit::DependenceDag::with_commutation`] for a
/// commutation-aware schedule). It walks the intervals in start order,
/// record order within a slot, and checks that:
///
/// 1. every gate executes exactly once, and no interval names an
///    unknown gate;
/// 2. each interval lasts its gate's [`gate_cycles`] over `d`, or
///    [`SWAP_SLOTS`] for a swap;
/// 3. each gate starts no earlier than every predecessor finishes;
/// 4. a gate holds a path exactly when it is two-qubit, and every path
///    is valid between its operands' tiles *under the placement at its
///    start* — a swap takes effect at its finish;
/// 5. no vertex is held by two intervals at once;
/// 6. no qubit is in two overlapping swaps, and no gate touches a qubit
///    while a swap on it runs.
///
/// Returns an error message describing the first violation.
pub fn verify_schedule_with_dag(
    circuit: &Circuit,
    dag: &autobraid_circuit::dag::DependenceDag,
    grid: &Grid,
    initial_placement: &autobraid_placement::Placement,
    result: &ScheduleResult,
) -> Result<(), String> {
    let timing = result.timing();
    let d = timing.local_step_cycles();
    let qubits = circuit.num_qubits();
    let mut order: Vec<usize> = (0..result.steps.len()).collect();
    order.sort_by_key(|&i| result.steps[i].start_slot);

    let mut placement = initial_placement.clone();
    let mut finish: Vec<Option<u64>> = vec![None; circuit.len()];
    // Per vertex, the slot its last path frees it; per qubit, the slot
    // its last swap and its last gate finish.
    let mut vertex_until = vec![0u64; grid.vertex_count()];
    let mut swap_until = vec![0u64; qubits as usize];
    let mut gate_until = vec![0u64; qubits as usize];
    // Swaps not yet in effect. They all last `SWAP_SLOTS`, so start
    // order is finish order.
    let mut pending: VecDeque<(u64, QubitId, QubitId)> = VecDeque::new();

    for i in order {
        let interval = &result.steps[i];
        let (start, end) = (interval.start_slot, interval.finish_slot());
        while let Some(&(_, a, b)) = pending.front().filter(|swap| swap.0 <= start) {
            placement.swap_qubits(a, b);
            pending.pop_front();
        }
        let fault = |what: String| Err(format!("interval {i} (slot {start}): {what}"));

        let (expected, tiles, path) = match &interval.op {
            Op::Gate { gate: g, path } => {
                let g = *g;
                if g >= circuit.len() {
                    return fault(format!("unknown gate {g}"));
                }
                if finish[g].replace(end).is_some() {
                    return fault(format!("gate {g} executed twice"));
                }
                for &p in dag.predecessors(g) {
                    if finish[p].is_none_or(|f| f > start) {
                        return fault(format!("gate {g} ran before its dependency {p}"));
                    }
                }
                let gate = circuit.gate(g);
                for q in gate.qubits() {
                    if swap_until[q as usize] > start {
                        return fault(format!("gate {g} touches qubit {q} during a swap"));
                    }
                    let until = &mut gate_until[q as usize];
                    *until = (*until).max(end);
                }
                let tiles = match (path, gate.pair()) {
                    (Some(_), Some((a, b))) => Some((a, b)),
                    (None, None) => None,
                    (Some(_), None) => return fault(format!("local gate {g} holds a path")),
                    (None, Some(_)) => return fault(format!("two-qubit gate {g} has no path")),
                };
                (gate_cycles(gate, timing) / d, tiles, path.as_ref())
            }
            Op::Swap(swap) => {
                for q in [swap.a, swap.b] {
                    if q >= qubits {
                        return fault(format!("swap of unknown qubit {q}"));
                    }
                    if swap_until[q as usize] > start {
                        return fault(format!("qubit {q} in two overlapping swaps"));
                    }
                    if gate_until[q as usize] > start {
                        return fault(format!("swap on qubit {q} while a gate on it runs"));
                    }
                }
                swap_until[swap.a as usize] = end;
                swap_until[swap.b as usize] = end;
                pending.push_back((end, swap.a, swap.b));
                (SWAP_SLOTS, Some((swap.a, swap.b)), Some(&swap.path))
            }
        };
        if interval.slots != expected {
            return fault(format!("lasts {} slots, not {expected}", interval.slots));
        }
        if let (Some((a, b)), Some(path)) = (tiles, path) {
            let (ca, cb) = (placement.cell_of(a), placement.cell_of(b));
            let vertices = path.vertices();
            if !BraidPath::is_walk_between(grid, ca, cb, vertices) {
                return fault(format!("invalid path between {ca} and {cb}"));
            }
            for (k, &v) in vertices.iter().enumerate() {
                let until = &mut vertex_until[grid.vertex_index(v)];
                if *until > start {
                    return fault(if vertices[..k].contains(&v) {
                        format!("invalid path between {ca} and {cb}: it repeats {v}")
                    } else {
                        format!("path crosses another at {v}")
                    });
                }
                *until = end;
            }
        }
    }

    if let Some(missing) = finish.iter().position(Option::is_none) {
        return Err(format!("gate {missing} never executed"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use autobraid_lattice::{CodeParams, Vertex};
    use autobraid_placement::Placement;

    #[test]
    fn time_conversions() {
        let timing = TimingModel::new(CodeParams::default());
        let mut r = ScheduleResult::new("test", "bench", timing);
        r.total_cycles = 1000;
        assert!((r.time_us() - 2200.0).abs() < 1e-9);
        assert!((r.time_seconds() - 2.2e-3).abs() < 1e-12);
    }

    /// A 2×2 grid, row-major: q0 (0,0), q1 (0,1), q2 (1,0), q3 (1,1).
    fn square() -> (Grid, Placement) {
        let grid = Grid::new(2).unwrap();
        let placement = Placement::row_major(&grid, 4);
        (grid, placement)
    }

    /// A one-vertex path between the tiles of `a` and `b` at `v`.
    fn corner(grid: &Grid, placement: &Placement, a: QubitId, b: QubitId, v: Vertex) -> BraidPath {
        BraidPath::new(grid, placement.cell_of(a), placement.cell_of(b), vec![v]).unwrap()
    }

    fn at(start_slot: u64, slots: u64, op: Op) -> Interval {
        Interval {
            start_slot,
            slots,
            op,
        }
    }

    fn gate(gate: GateId, path: Option<BraidPath>) -> Op {
        Op::Gate { gate, path }
    }

    fn check(circuit: &Circuit, intervals: Vec<Interval>) -> Result<(), String> {
        let (grid, placement) = square();
        let mut result = ScheduleResult::new("t", "t", TimingModel::default());
        result.steps = intervals;
        verify_schedule(circuit, &grid, &placement, &result)
    }

    #[test]
    fn the_verifier_tracks_swaps_and_rejects_each_corruption() {
        let (grid, placement) = square();
        let mut swapped = placement.clone();
        swapped.swap_qubits(0, 1);
        // Swap q0 and q1, then h q0 and cx q0,q3: vertex (1,2) joins the
        // tiles of q0 and q3 only once q0 has moved to (0,1).
        let mut circuit = Circuit::new(4);
        circuit.h(0).cx(0, 3);
        let swap = SwapOp {
            a: 0,
            b: 1,
            path: corner(&grid, &placement, 0, 1, Vertex::new(0, 1)),
        };
        let cx = corner(&grid, &swapped, 0, 3, Vertex::new(1, 2));
        let schedule = |h: u64, cx_start: u64, cx_slots: u64| {
            vec![
                at(0, SWAP_SLOTS, Op::Swap(swap.clone())),
                at(h, 1, gate(0, None)),
                at(cx_start, cx_slots, gate(1, Some(cx.clone()))),
            ]
        };
        assert_eq!(check(&circuit, schedule(6, 7, 2)), Ok(()));
        let fault = |intervals| check(&circuit, intervals).unwrap_err();
        assert!(fault(schedule(3, 7, 2)).contains("during a swap"));
        assert!(fault(schedule(6, 6, 2)).contains("before its dependency"));
        assert!(fault(schedule(6, 7, 1)).contains("lasts 1 slots, not 2"));
        let mut twice = schedule(6, 7, 2);
        twice.push(at(2, SWAP_SLOTS, Op::Swap(swap.clone())));
        assert!(fault(twice).contains("two overlapping swaps"));
        let mut lost = schedule(6, 7, 2);
        lost.pop();
        assert!(fault(lost).contains("gate 1 never executed"));

        // Two CX braids through the grid's centre vertex.
        let mut pairs = Circuit::new(4);
        pairs.cx(0, 1).cx(2, 3);
        let centre = Vertex::new(1, 1);
        let braids = |second: u64| {
            vec![
                at(0, 2, gate(0, Some(corner(&grid, &placement, 0, 1, centre)))),
                at(
                    second,
                    2,
                    gate(1, Some(corner(&grid, &placement, 2, 3, centre))),
                ),
            ]
        };
        assert_eq!(check(&pairs, braids(2)), Ok(()));
        assert!(check(&pairs, braids(1)).unwrap_err().contains("crosses"));
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
