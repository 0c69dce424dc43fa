//! Emission of a complete schedule to the physical lattice instruction
//! timeline.
//!
//! Chains [`autobraid_router::lowering`] over every recorded interval,
//! from either engine clock, placing each braid program at its absolute
//! start cycle (`start_slot · d`). The result is what a
//! lattice micro-controller would execute, and its statistics (total
//! instruction count, peak per-cycle burst) quantify the instruction
//! bandwidth pressure that hardware-managed QEC controllers (Tannu et al.,
//! MICRO'17) are designed to absorb.

use crate::metrics::ScheduleResult;
use autobraid_lattice::physical::PhysicalLayout;
use autobraid_lattice::TimingModel;
use autobraid_router::lowering::{lower_braid, LatticeInstruction};

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

/// Lowers a fully recorded schedule to its physical instruction
/// timeline.
///
/// Each interval starts at `start_slot · d` cycles and lasts `slots · d`.
/// A local gate issues no lattice control traffic (tiles stabilize
/// autonomously); a path held for `2k` slots is `k` chained CX braids, so
/// a SWAP, native or inserted by the layout optimizer, is three braids
/// re-braided along the same path. A slot no interval holds, such as a
/// magic-state stall, is a gap in the timeline.
///
/// # Errors
///
/// Returns an error if the schedule was recorded stats-only (no
/// intervals) for a circuit that has gates, or if the last interval's
/// finish disagrees with the scheduler's `total_cycles` — either
/// indicates a scheduling bug.
pub fn emit_physical(
    result: &ScheduleResult,
    layout: &PhysicalLayout,
) -> Result<PhysicalProgram, String> {
    let timing = TimingModel::new(
        autobraid_lattice::CodeParams::with_distance(layout.distance())
            .map_err(|e| e.to_string())?,
    );
    let (slot, braid) = (timing.local_step_cycles(), timing.braid_step_cycles());
    let mut end = 0u64;
    let mut instructions: Vec<LatticeInstruction> = Vec::new();
    for interval in &result.steps {
        let start = interval.start_slot * slot;
        end = end.max(interval.finish_slot() * slot);
        let Some(path) = interval.path() else {
            continue;
        };
        let program = lower_braid(layout, path);
        for sub in 0..interval.slots * slot / braid {
            for ins in program.instructions() {
                instructions.push(LatticeInstruction {
                    cycle: start + sub * braid + ins.cycle,
                    op: ins.op,
                });
            }
        }
    }

    if result.steps.is_empty() && result.total_cycles > 0 {
        return Err("schedule was recorded stats-only; re-run with Recording::Full".into());
    }
    if end != result.total_cycles {
        return Err(format!(
            "emission accounted {end} cycles but the scheduler charged {}",
            result.total_cycles
        ));
    }
    instructions.sort_by_key(|i| i.cycle);
    Ok(PhysicalProgram {
        instructions,
        duration_cycles: end,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Recording, ScheduleConfig};
    use crate::{AutoBraid, Strategy};
    use autobraid_circuit::generators::{ising::ising, qft::qft};
    use autobraid_circuit::Circuit;
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
        let program = emit_physical(&outcome.result, &layout).unwrap();
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
        let program = emit_physical(&outcome.result, &layout).unwrap();
        let cycles: Vec<u64> = program.instructions().iter().map(|i| i.cycle).collect();
        assert!(cycles.windows(2).all(|w| w[0] <= w[1]));
        assert!(cycles.iter().all(|&c| c < program.duration_cycles()));
        assert!(program.peak_instructions_per_cycle() >= 1);
        assert!(program.mean_instructions_per_active_cycle() >= 1.0);
    }

    #[test]
    fn a_stream_that_stalls_mid_run_lowers_with_a_gap() {
        use crate::metrics::verify_schedule;
        use crate::streaming::{FaultEvent, StreamingOptions, StreamingPipeline};
        use autobraid_circuit::gate::{Gate, TwoKind};
        let cx = |a, b| Gate::two(TwoKind::Cx, a, b);
        let mut stream = StreamingPipeline::open(4, StreamingOptions::default());
        stream.push_gate(cx(0, 1)).unwrap();
        stream.push_gate(cx(2, 3)).unwrap();
        stream.step().unwrap();
        stream.inject(FaultEvent::MagicStall { steps: 2 }).unwrap();
        stream.push_gate(cx(1, 2)).unwrap();
        let report = stream.finish().unwrap();
        let result = &report.outcome.result;
        // One braid step (66), two stalled braid slots (132), one braid.
        assert_eq!(result.total_cycles, 264);
        let (grid, placement) = (&report.outcome.grid, &report.outcome.initial_placement);
        verify_schedule(&report.circuit, grid, placement, result).unwrap();
        let d = result.timing().params().distance();
        let layout = PhysicalLayout::new(report.outcome.grid.cells_per_side(), d).unwrap();
        let program = emit_physical(result, &layout).unwrap();
        assert_eq!(program.duration_cycles(), 264);
        // The stall is a gap: nothing issues between the first step's
        // end and the last braid's start.
        assert_eq!(result.steps.last().unwrap().gate(), Some(2));
        let late = program.instructions().iter().find(|i| i.cycle >= 66);
        assert_eq!(late.map(|i| i.cycle), Some(198));
    }

    /// Lowers `report`'s schedule at its own code distance.
    fn lower(report: &crate::pipeline::CompileReport) -> Result<PhysicalProgram, String> {
        let result = &report.outcome.result;
        let d = result.timing().params().distance();
        let layout = PhysicalLayout::new(report.outcome.grid.cells_per_side(), d).unwrap();
        emit_physical(result, &layout)
    }

    #[test]
    fn a_stall_after_the_last_gate_costs_nothing_and_lowers() {
        use crate::streaming::{FaultEvent, StreamingOptions, StreamingPipeline};
        use autobraid_circuit::gate::{Gate, TwoKind};
        let cx = |a, b| Gate::two(TwoKind::Cx, a, b);
        let mut stream = StreamingPipeline::open(4, StreamingOptions::default());
        stream.push_gate(cx(0, 1)).unwrap();
        stream.push_gate(cx(2, 3)).unwrap();
        stream.step().unwrap();
        stream.push_gate(cx(1, 2)).unwrap();
        stream.step().unwrap();
        stream.inject(FaultEvent::MagicStall { steps: 1 }).unwrap();
        let report = stream.finish().unwrap();
        // Two braid steps; the stall delays no gate.
        assert_eq!(report.outcome.result.total_cycles, 132);
        assert_eq!(lower(&report).unwrap().duration_cycles(), 132);
    }

    #[test]
    fn a_stream_that_only_stalls_finishes_at_zero_cycles_and_lowers() {
        use crate::streaming::{FaultEvent, StreamingOptions, StreamingPipeline};
        let mut stream = StreamingPipeline::open(4, StreamingOptions::default());
        stream.inject(FaultEvent::MagicStall { steps: 3 }).unwrap();
        let report = stream.finish().unwrap();
        assert_eq!(report.outcome.result.total_cycles, 0);
        let program = lower(&report).unwrap();
        assert_eq!(program.duration_cycles(), 0);
        assert_eq!(program.instruction_count(), 0);
    }

    #[test]
    fn per_qubit_schedules_lower() {
        use crate::scheduler::{run, Clock, EngineRun, StackPolicy};
        let circuit = qft(8).unwrap();
        let config = config_d(3);
        let grid = autobraid_lattice::Grid::with_capacity_for(8);
        let placement = AutoBraid::new(config.clone()).initial_placement(&circuit, &grid);
        let drive = EngineRun::new("t", &circuit, &grid, placement, &StackPolicy, &config);
        let (result, _) = run(drive.clock(Clock::PerQubit)).unwrap().unwrap();
        let layout = PhysicalLayout::new(grid.cells_per_side(), 3).unwrap();
        let program = emit_physical(&result, &layout).unwrap();
        assert_eq!(program.duration_cycles(), result.total_cycles);
        assert!(program.instruction_count() > 0);
    }

    #[test]
    fn stats_only_schedules_are_rejected() {
        let circuit = qft(8).unwrap();
        let cfg = config_d(3).with_recording(Recording::StatsOnly);
        let compiler = AutoBraid::new(cfg);
        let outcome = compiler.schedule(Strategy::Stack, &circuit);
        let layout = PhysicalLayout::new(outcome.grid.cells_per_side(), 3).unwrap();
        assert!(emit_physical(&outcome.result, &layout).is_err());
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
            let program = emit_physical(result, &layout).unwrap();
            assert_eq!(program.duration_cycles(), result.total_cycles);
        }
    }

    #[test]
    fn swap_layers_emit_three_braids() {
        use crate::metrics::{Interval, Op, ScheduleResult, SwapOp, SWAP_SLOTS};
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
        result.steps.push(Interval {
            start_slot: 0,
            slots: SWAP_SLOTS,
            op: Op::Swap(SwapOp {
                a: 0,
                b: 1,
                path: path.clone(),
            }),
        });
        result.total_cycles = 3 * timing.braid_step_cycles();
        let layout = PhysicalLayout::new(3, 3).unwrap();
        let program = emit_physical(&result, &layout).unwrap();
        let single = autobraid_router::lowering::lower_braid(&layout, &path);
        assert_eq!(program.instruction_count(), 3 * single.instructions().len());
    }
}
