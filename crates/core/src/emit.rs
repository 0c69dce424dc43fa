//! Emission of a complete schedule to the physical lattice instruction
//! timeline.
//!
//! Chains [`autobraid_router::lowering`] over every recorded step, placing
//! each braid program at its absolute start cycle. The result is what a
//! lattice micro-controller would execute, and its statistics (total
//! instruction count, peak per-cycle burst) quantify the instruction
//! bandwidth pressure that hardware-managed QEC controllers (Tannu et al.,
//! MICRO'17) are designed to absorb.

use crate::critical_path::gate_cycles;
use crate::metrics::{ScheduleResult, Step};
use autobraid_circuit::Circuit;
use autobraid_lattice::physical::PhysicalLayout;
use autobraid_lattice::TimingModel;
use autobraid_router::lowering::{lower_braid, LatticeInstruction};
use autobraid_router::BraidPath;

/// A schedule lowered to physical lattice instructions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhysicalProgram {
    instructions: Vec<LatticeInstruction>,
    duration_cycles: u64,
}

impl PhysicalProgram {
    /// The instruction stream, sorted by cycle.
    pub fn instructions(&self) -> &[LatticeInstruction] {
        &self.instructions
    }

    /// Total program duration in surface-code cycles.
    pub fn duration_cycles(&self) -> u64 {
        self.duration_cycles
    }

    /// Total number of control instructions.
    pub fn instruction_count(&self) -> usize {
        self.instructions.len()
    }

    /// Largest number of instructions issued in one cycle — the burst the
    /// controller must sustain.
    pub fn peak_instructions_per_cycle(&self) -> usize {
        self.bursts().map(<[_]>::len).max().unwrap_or(0)
    }

    /// Mean instructions per active cycle.
    pub fn mean_instructions_per_active_cycle(&self) -> f64 {
        match self.bursts().count() {
            0 => 0.0,
            active => self.instructions.len() as f64 / active as f64,
        }
    }

    /// The instructions of each active cycle, in cycle order.
    fn bursts(&self) -> impl Iterator<Item = &[LatticeInstruction]> {
        self.instructions.chunk_by(|a, b| a.cycle == b.cycle)
    }
}

/// Lowers a fully recorded schedule of `circuit` to its physical
/// instruction timeline.
///
/// Step costs mirror the scheduling engine exactly: a local layer advances
/// the clock `d` cycles (no lattice control traffic — tiles stabilize
/// autonomously), a braid step as long as its longest gate
/// ([`gate_cycles`]: `2d` per CX, `6d` per native SWAP), a swap layer
/// `3 × 2d`. A SWAP, native or inserted by the layout optimizer, is three
/// chained CX braids re-braided along the same path.
///
/// # Errors
///
/// Returns an error if the schedule was recorded stats-only (no steps) for
/// a circuit that has gates, or if the emitted duration disagrees with the
/// scheduler's accounting — either indicates a scheduling bug.
pub fn emit_physical(
    circuit: &Circuit,
    result: &ScheduleResult,
    layout: &PhysicalLayout,
) -> Result<PhysicalProgram, String> {
    let timing = TimingModel::new(
        autobraid_lattice::CodeParams::with_distance(layout.distance())
            .map_err(|e| e.to_string())?,
    );
    let braid = timing.braid_step_cycles();
    let mut cycle = 0u64;
    let mut instructions: Vec<LatticeInstruction> = Vec::new();
    // `cycles / braid` chained braids along `path`, from `start`.
    let mut chain = |path: &BraidPath, start: u64, cycles: u64| {
        let program = lower_braid(layout, path);
        for sub in 0..cycles / braid {
            for ins in program.instructions() {
                instructions.push(LatticeInstruction {
                    cycle: start + sub * braid + ins.cycle,
                    op: ins.op,
                });
            }
        }
    };

    for step in &result.steps {
        match step {
            Step::Local { .. } => {
                cycle += timing.local_step_cycles();
            }
            Step::Braid { braids, .. } => {
                let mut longest = 0;
                for (g, path) in braids {
                    let cycles = gate_cycles(circuit.gate(*g), &timing);
                    chain(path, cycle, cycles);
                    longest = longest.max(cycles);
                }
                cycle += longest;
            }
            Step::SwapLayer { swaps } => {
                for swap in swaps {
                    chain(&swap.path, cycle, 3 * braid);
                }
                cycle += 3 * braid;
            }
        }
    }

    if result.steps.is_empty() && result.total_cycles > 0 {
        return Err("schedule was recorded stats-only; re-run with Recording::Full".into());
    }
    if cycle != result.total_cycles {
        return Err(format!(
            "emission accounted {cycle} cycles but the scheduler charged {}",
            result.total_cycles
        ));
    }
    instructions.sort_by_key(|i| i.cycle);
    Ok(PhysicalProgram {
        instructions,
        duration_cycles: cycle,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Recording, ScheduleConfig};
    use crate::{AutoBraid, Strategy};
    use autobraid_circuit::generators::{ising::ising, qft::qft};
    use autobraid_lattice::{CodeParams, TimingModel};
    use autobraid_router::lowering::LatticeOp;

    fn config_d(d: u32) -> ScheduleConfig {
        ScheduleConfig::default()
            .with_timing(TimingModel::new(CodeParams::with_distance(d).unwrap()))
    }

    #[test]
    fn emits_qft_schedule() {
        let circuit = qft(9).unwrap();
        let compiler = AutoBraid::new(config_d(5));
        let outcome = compiler.schedule(Strategy::Full, &circuit);
        let layout = PhysicalLayout::new(outcome.grid.cells_per_side(), 5).unwrap();
        let program = emit_physical(&circuit, &outcome.result, &layout).unwrap();
        assert_eq!(program.duration_cycles(), outcome.result.total_cycles);
        assert!(program.instruction_count() > 0);
        // Disables and enables balance exactly.
        let (mut on, mut off) = (0usize, 0usize);
        for ins in program.instructions() {
            match ins.op {
                LatticeOp::DisableStabilizer(_) => off += 1,
                LatticeOp::EnableStabilizer(_) => on += 1,
            }
        }
        assert_eq!(on, off);
    }

    #[test]
    fn instructions_are_cycle_sorted_and_bounded() {
        let circuit = ising(12, 1).unwrap();
        let compiler = AutoBraid::new(config_d(3));
        let outcome = compiler.schedule(Strategy::Stack, &circuit);
        let layout = PhysicalLayout::new(outcome.grid.cells_per_side(), 3).unwrap();
        let program = emit_physical(&circuit, &outcome.result, &layout).unwrap();
        let cycles: Vec<u64> = program.instructions().iter().map(|i| i.cycle).collect();
        assert!(cycles.windows(2).all(|w| w[0] <= w[1]));
        assert!(cycles.iter().all(|&c| c < program.duration_cycles()));
        assert!(program.peak_instructions_per_cycle() >= 1);
        assert!(program.mean_instructions_per_active_cycle() >= 1.0);
    }

    #[test]
    fn stats_only_schedules_are_rejected() {
        let circuit = qft(8).unwrap();
        let cfg = config_d(3).with_recording(Recording::StatsOnly);
        let compiler = AutoBraid::new(cfg);
        let outcome = compiler.schedule(Strategy::Stack, &circuit);
        let layout = PhysicalLayout::new(outcome.grid.cells_per_side(), 3).unwrap();
        assert!(emit_physical(&circuit, &outcome.result, &layout).is_err());
    }

    #[test]
    fn native_swaps_cost_three_braids_under_every_strategy() {
        use crate::critical_path::critical_path_cycles;
        use crate::pipeline::{CompileOptions, Pipeline};
        use crate::strategy::Strategy;
        let mut circuit = Circuit::new(4);
        circuit.swap(0, 1).swap(2, 3).swap(1, 2).cx(0, 3);
        for strategy in Strategy::ALL {
            let report = Pipeline::new()
                .with_options(CompileOptions {
                    strategy,
                    optimize: false,
                    ..CompileOptions::default()
                })
                .compile(&circuit)
                .unwrap();
            let result = &report.outcome.result;
            let cp = critical_path_cycles(&circuit, result.timing());
            assert_eq!(cp, 396);
            assert!(result.total_cycles >= cp, "{}: below CP", strategy.name());
            let d = result.timing().params().distance();
            let layout = PhysicalLayout::new(report.outcome.grid.cells_per_side(), d).unwrap();
            let program = emit_physical(&circuit, result, &layout).unwrap();
            assert_eq!(program.duration_cycles(), result.total_cycles);
        }
    }

    #[test]
    fn swap_layers_emit_three_braids() {
        use crate::metrics::{ScheduleResult, Step, SwapOp};
        use autobraid_lattice::{Cell, Grid, Vertex};
        let grid = Grid::new(3).unwrap();
        let path = autobraid_router::BraidPath::new(
            &grid,
            Cell::new(0, 0),
            Cell::new(0, 2),
            vec![Vertex::new(0, 1), Vertex::new(0, 2)],
        )
        .unwrap();
        let timing = TimingModel::new(CodeParams::with_distance(3).unwrap());
        let mut result = ScheduleResult::new("t", "t", timing);
        result.steps.push(Step::SwapLayer {
            swaps: vec![SwapOp {
                a: 0,
                b: 1,
                path: path.clone(),
            }],
        });
        result.total_cycles = 3 * timing.braid_step_cycles();
        let layout = PhysicalLayout::new(3, 3).unwrap();
        let program = emit_physical(&Circuit::new(2), &result, &layout).unwrap();
        let single = autobraid_router::lowering::lower_braid(&layout, &path);
        assert_eq!(program.instruction_count(), 3 * single.instructions().len());
    }
}
