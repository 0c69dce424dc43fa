//! Event-driven (asynchronous) scheduling — an extension beyond the
//! synchronous engine.
//!
//! [`crate::scheduler::run`] advances the whole lattice in lock-step
//! braiding windows, so a single-qubit gate sandwiched between braids is
//! charged a full `2d`-cycle window instead of its own `d`. This engine
//! removes that quantization: time is sliced into `d`-cycle *slots*, a
//! local gate occupies its qubit for 1 slot, a braid occupies its path
//! for 2 consecutive slots, and every qubit progresses on its own clock.
//! On congestion-free circuits the result meets the dependence critical
//! path *exactly*, which is how the paper's Table 2 reports AutoBraid on
//! the building-block benchmarks.
//!
//! [`schedule_async`] drains the shared [`crate::scheduler`] engine on
//! its per-qubit clock, with the lock-step schedulers' frontier,
//! priorities and stack finder. It records the same
//! [`crate::metrics::Interval`]s as the lock-step clock, so
//! [`crate::metrics::verify_schedule_with_dag`] checks it and
//! [`crate::emit::emit_physical`] lowers it.

use crate::autobraid::ScheduleOutcome;
use crate::config::ScheduleConfig;
use crate::scheduler::{Clock, Engine, LayoutMove, SlotClock, StackPolicy};
use autobraid_circuit::{Circuit, Frontier};
use autobraid_lattice::{Grid, Occupancy};
use autobraid_placement::Placement;
use std::borrow::Cow;

/// Schedules `circuit` event-driven style on `grid` from a static
/// `placement`, recording one interval per gate (none under
/// [`crate::config::Recording::StatsOnly`]).
///
/// Statistics note: with no global steps, the result's `braid_steps`
/// counts *braids started* and `local_steps` counts local gates; the
/// comparable quantity across engines is `total_cycles`.
pub fn schedule_async(
    circuit: &Circuit,
    grid: &Grid,
    placement: Placement,
    config: &ScheduleConfig,
) -> ScheduleOutcome {
    let dag = config.dag(circuit);
    let mut engine = Engine::new(
        "autobraid-async",
        Cow::Borrowed(circuit),
        Frontier::new(&dag),
        grid,
        placement.clone(),
        LayoutMove::None,
        config,
        Cow::Owned(Occupancy::new(grid)),
    );
    engine.clock = Clock::PerQubit(SlotClock::new(circuit.len()));
    let engine = engine
        .drain(&StackPolicy, u64::MAX)
        .expect("an empty base occupancy never makes a gate unroutable");
    ScheduleOutcome {
        result: engine.result,
        grid: grid.clone(),
        initial_placement: placement,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::critical_path::critical_path_cycles;
    use crate::metrics::{verify_schedule, verify_schedule_with_dag, ScheduleResult};
    use crate::{AutoBraid, Strategy};
    use autobraid_circuit::generators::{self, random::random_circuit};
    use autobraid_circuit::DependenceDag;

    fn run_async(circuit: &Circuit) -> ScheduleOutcome {
        let config = ScheduleConfig::default();
        let compiler = AutoBraid::new(config.clone());
        let grid = Grid::with_capacity_for(circuit.num_qubits() as usize);
        let placement = compiler.initial_placement(circuit, &grid);
        let outcome = schedule_async(circuit, &grid, placement, &config);
        verify(circuit, &outcome.result, &outcome).expect("async schedule verifies");
        outcome
    }

    /// Checks `result` on `outcome`'s grid and placement.
    fn verify(
        circuit: &Circuit,
        result: &ScheduleResult,
        outcome: &ScheduleOutcome,
    ) -> Result<(), String> {
        verify_schedule(circuit, &outcome.grid, &outcome.initial_placement, result)
    }

    /// The event-driven engine's own loop before it ran on the shared
    /// engine: an agenda of release slots, a per-slot occupancy map and
    /// a slot-weighted critical-path sweep. The per-qubit clock must
    /// reproduce it exactly.
    mod reference {
        use crate::autobraid::ScheduleOutcome;
        use crate::config::ScheduleConfig;
        use crate::metrics::{Interval, Op, ScheduleResult};
        use autobraid_circuit::{Circuit, DependenceDag, Gate, GateId, TwoKind};
        use autobraid_lattice::{Grid, Occupancy};
        use autobraid_placement::Placement;
        use autobraid_router::stack_finder::route_concurrent;
        use autobraid_router::{BraidPath, CxRequest};
        use std::collections::BTreeMap;
        use std::time::Instant;

        pub(super) fn schedule_async(
            circuit: &Circuit,
            grid: &Grid,
            placement: Placement,
            config: &ScheduleConfig,
        ) -> ScheduleOutcome {
            let started = Instant::now();
            let dag = if config.commutation_aware {
                DependenceDag::with_commutation(circuit)
            } else {
                DependenceDag::new(circuit)
            };
            let d_cycles = u64::from(config.timing.params().distance());

            // Slots a gate occupies.
            let slots_of = |g: &Gate| -> u64 {
                match g {
                    Gate::Single { .. } => 1,
                    Gate::Two {
                        kind: TwoKind::Swap,
                        ..
                    } => 6,
                    Gate::Two { .. } => 2,
                }
            };
            // Remaining critical path in slots, for routing priority.
            let mut remaining = vec![0u64; circuit.len()];
            for g in (0..circuit.len()).rev() {
                let tail = dag
                    .successors(g)
                    .iter()
                    .map(|&s| remaining[s])
                    .max()
                    .unwrap_or(0);
                remaining[g] = tail + slots_of(circuit.gate(g));
            }

            // ready_at[g]: earliest slot all predecessors have finished.
            let mut unmet: Vec<usize> = (0..circuit.len())
                .map(|g| dag.predecessors(g).len())
                .collect();
            let mut ready_at: Vec<u64> = vec![0; circuit.len()];
            // Gates becoming ready at each slot.
            let mut agenda: BTreeMap<u64, Vec<GateId>> = BTreeMap::new();
            for g in dag.roots() {
                agenda.entry(0).or_default().push(g);
            }

            // Per-slot occupancy, garbage-collected as time passes.
            let mut occupancy: BTreeMap<u64, Occupancy> = BTreeMap::new();
            let mut steps: Vec<Interval> = Vec::with_capacity(circuit.len());
            let mut finished = 0usize;
            let mut makespan_slots = 0u64;
            let mut result = ScheduleResult::new("autobraid-async", circuit.name(), config.timing);
            let mut utilization_samples = 0u64;
            let mut utilization_sum = 0.0;

            while finished < circuit.len() {
                let (&slot, _) = agenda
                    .iter()
                    .next()
                    .expect("unfinished gates have agenda entries");
                let batch = agenda.remove(&slot).expect("entry exists");
                occupancy.retain(|&s, _| s >= slot);

                let mut complete =
                    |g: GateId,
                     start: u64,
                     path: Option<BraidPath>,
                     agenda: &mut BTreeMap<u64, Vec<GateId>>| {
                        let len = slots_of(circuit.gate(g));
                        let finish = start + len;
                        steps.push(Interval {
                            start_slot: start,
                            slots: len,
                            op: Op::Gate { gate: g, path },
                        });
                        makespan_slots = makespan_slots.max(finish);
                        for &s in dag.successors(g) {
                            unmet[s] -= 1;
                            ready_at[s] = ready_at[s].max(finish);
                            if unmet[s] == 0 {
                                agenda.entry(ready_at[s]).or_default().push(s);
                            }
                        }
                    };

                // Local gates run immediately; braids compete for a path that is
                // free across their whole duration.
                let mut braid_gates: Vec<GateId> = Vec::new();
                for g in batch {
                    if circuit.gate(g).is_two_qubit() {
                        braid_gates.push(g);
                    } else {
                        complete(g, slot, None, &mut agenda);
                        finished += 1;
                        result.local_steps += 1;
                    }
                }
                if braid_gates.is_empty() {
                    continue;
                }

                // A braid spanning [slot, slot + span) must avoid every path
                // active in any of those slots: route against the union map.
                let span = braid_gates
                    .iter()
                    .map(|&g| slots_of(circuit.gate(g)))
                    .max()
                    .expect("non-empty braid batch");
                let mut merged = Occupancy::new(grid);
                for s in slot..slot + span {
                    if let Some(o) = occupancy.get(&s) {
                        merged.union_with(o);
                    }
                }
                let requests: Vec<CxRequest> = braid_gates
                    .iter()
                    .map(|&g| {
                        let (a, b) = circuit.gate(g).pair().expect("two-qubit");
                        CxRequest::new(g, placement.cell_of(a), placement.cell_of(b))
                            .with_priority(remaining[g] as i64)
                    })
                    .collect();
                let outcome = route_concurrent(grid, &mut merged, &requests);
                utilization_samples += 1;
                utilization_sum += merged.utilization();
                result.peak_utilization = result.peak_utilization.max(merged.utilization());

                for routed in outcome.routed {
                    let g = routed.request.id;
                    let len = slots_of(circuit.gate(g));
                    for s in slot..slot + len {
                        let o = occupancy.entry(s).or_insert_with(|| Occupancy::new(grid));
                        let ok = o.try_reserve(grid, routed.path.vertices().iter().copied());
                        assert!(ok, "interval reservation conflicts with an active braid");
                    }
                    complete(g, slot, Some(routed.path), &mut agenda);
                    finished += 1;
                    result.braid_steps += 1;
                }
                for id in outcome.failed {
                    // Congested: retry next slot.
                    agenda.entry(slot + 1).or_default().push(id);
                }
            }

            result.total_cycles = makespan_slots * d_cycles;
            if utilization_samples > 0 {
                result.mean_utilization = utilization_sum / utilization_samples as f64;
            }
            result.compile_seconds = started.elapsed().as_secs_f64();
            result.steps = steps;
            ScheduleOutcome {
                result,
                grid: grid.clone(),
                initial_placement: placement,
            }
        }
    }

    /// Schedules `circuit` with both engines from the same placement and
    /// asserts identical intervals, in order, and statistics.
    fn assert_matches_reference(circuit: &Circuit) {
        let config = ScheduleConfig::default();
        let grid = Grid::with_capacity_for(circuit.num_qubits() as usize);
        let placement = AutoBraid::new(config.clone()).initial_placement(circuit, &grid);
        let mut new = schedule_async(circuit, &grid, placement.clone(), &config);
        let mut old = reference::schedule_async(circuit, &grid, placement, &config);
        assert_eq!(
            new.result.steps,
            old.result.steps,
            "{}: intervals",
            circuit.name()
        );
        new.result.compile_seconds = 0.0;
        old.result.compile_seconds = 0.0;
        assert_eq!(new.result, old.result, "{}: result", circuit.name());
    }

    #[test]
    fn per_qubit_clock_matches_the_reference_loop() {
        for name in ["4gt11_8", "4gt5_75", "alu-v0_26", "rd32-v0"] {
            assert_matches_reference(&generators::by_name(name, 0).unwrap());
        }
        assert_matches_reference(&generators::qft::qft(16).unwrap());
        for seed in 0..4 {
            assert_matches_reference(&random_circuit(10, 300, 0.6, seed).unwrap());
        }
    }

    #[test]
    fn verify_checks_the_dag_the_schedule_was_built_with() {
        // BV's CXs share the ancilla as target, so they commute, but the
        // plain DAG still orders them.
        let circuit = generators::bv::bv_all_ones(6).unwrap();
        let outcome = run_async(&circuit);
        let relaxed = DependenceDag::with_commutation(&circuit);
        let mut result = outcome.result.clone();
        let steps = &mut result.steps;
        steps.sort_by_key(|i| i.gate());
        let cxs: Vec<usize> = (0..steps.len())
            .filter(|&i| steps[i].path().is_some())
            .collect();
        // Move the last CX into its predecessor's slot and the
        // predecessor after it, then let the local gates wait for them.
        let (pred, last) = (cxs[cxs.len() - 2], cxs[cxs.len() - 1]);
        let (s_pred, s_last) = (steps[pred].start_slot, steps[last].start_slot);
        steps[last].start_slot = s_pred;
        steps[pred].start_slot = s_last;
        for g in 0..steps.len() {
            if steps[g].path().is_none() {
                let ready = relaxed
                    .predecessors(g)
                    .iter()
                    .map(|&p| steps[p].finish_slot());
                steps[g].start_slot = ready.fold(steps[g].start_slot, u64::max);
            }
        }
        let relaxed_check = verify_schedule_with_dag(
            &circuit,
            &relaxed,
            &outcome.grid,
            &outcome.initial_placement,
            &result,
        );
        assert_eq!(relaxed_check, Ok(()));
        assert!(verify(&circuit, &result, &outcome)
            .unwrap_err()
            .contains("before its dependency"));
    }

    #[test]
    fn building_blocks_hit_critical_path_exactly() {
        // The paper's Table 2: AutoBraid equals CP on the block suite.
        for name in ["4gt11_8", "4gt5_75", "alu-v0_26", "rd32-v0"] {
            let circuit = generators::by_name(name, 0).unwrap();
            let outcome = run_async(&circuit);
            let cp = critical_path_cycles(&circuit, outcome.result.timing());
            assert_eq!(
                outcome.result.total_cycles, cp,
                "{name}: async engine must meet CP"
            );
        }
    }

    #[test]
    fn never_below_cp_and_never_above_sync() {
        let config = ScheduleConfig::default();
        let compiler = AutoBraid::new(config.clone());
        for seed in 0..4 {
            let circuit = random_circuit(10, 250, 0.5, seed).unwrap();
            let sync = compiler
                .schedule(Strategy::Stack, &circuit)
                .result
                .total_cycles;
            let outcome = run_async(&circuit);
            let cp = critical_path_cycles(&circuit, outcome.result.timing());
            assert!(outcome.result.total_cycles >= cp, "seed {seed}: below CP");
            assert!(
                outcome.result.total_cycles <= sync,
                "seed {seed}: async ({}) worse than sync ({sync})",
                outcome.result.total_cycles
            );
        }
    }

    #[test]
    fn bv_and_ising_hit_cp() {
        for circuit in [
            generators::bv::bv_all_ones(24).unwrap(),
            generators::ising::ising(16, 2).unwrap(),
        ] {
            let outcome = run_async(&circuit);
            let cp = critical_path_cycles(&circuit, outcome.result.timing());
            assert_eq!(outcome.result.total_cycles, cp, "{}", circuit.name());
        }
    }

    #[test]
    fn assignment_count_matches_circuit() {
        let circuit = generators::qft::qft(12).unwrap();
        let outcome = run_async(&circuit);
        assert_eq!(outcome.result.steps.len(), circuit.len());
    }

    #[test]
    fn stats_only_recording_skips_intervals() {
        use crate::config::Recording;
        let circuit = generators::qft::qft(8).unwrap();
        let full = run_async(&circuit).result;
        let config = ScheduleConfig::default().with_recording(Recording::StatsOnly);
        let grid = Grid::with_capacity_for(8);
        let placement = AutoBraid::new(config.clone()).initial_placement(&circuit, &grid);
        let stats = schedule_async(&circuit, &grid, placement, &config).result;
        assert!(stats.steps.is_empty());
        assert_eq!(stats.total_cycles, full.total_cycles);
        assert_eq!(stats.braid_steps, full.braid_steps);
    }

    #[test]
    fn verify_catches_corruption() {
        let circuit = generators::qft::qft(8).unwrap();
        let outcome = run_async(&circuit);
        let mut result = outcome.result.clone();
        // Force a dependence violation: schedule the last gate at slot 0.
        let last = result.steps.len() - 1;
        result.steps[last].start_slot = 0;
        assert!(verify(&circuit, &result, &outcome).is_err());
    }
}
