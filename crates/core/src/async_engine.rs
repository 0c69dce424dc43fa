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
//! priorities and stack finder.

use crate::config::ScheduleConfig;
use crate::metrics::ScheduleResult;
use crate::scheduler::{Clock, Engine, LayoutMove, SlotClock, StackPolicy};
use autobraid_circuit::{Circuit, DependenceDag, Frontier, GateId};
use autobraid_lattice::{Grid, Occupancy};
use autobraid_placement::Placement;
use autobraid_router::BraidPath;
use std::borrow::Cow;

/// One scheduled gate in slot time (1 slot = `d` surface-code cycles).
#[derive(Debug, Clone, PartialEq)]
pub struct Assignment {
    /// The gate.
    pub gate: GateId,
    /// First slot the gate occupies.
    pub start_slot: u64,
    /// Number of slots occupied (1 for local gates, 2 per braid; a SWAP
    /// takes 6).
    pub slots: u64,
    /// The braiding path (None for local gates), reserved for the whole
    /// duration.
    pub path: Option<BraidPath>,
}

/// An event-driven schedule.
#[derive(Debug, Clone)]
pub struct AsyncSchedule {
    /// Aggregate statistics (the `steps` list is empty — the schedule is
    /// interval-based; see [`AsyncSchedule::assignments`]).
    pub result: ScheduleResult,
    /// Per-gate slot assignments.
    pub assignments: Vec<Assignment>,
    /// The grid scheduled on.
    pub grid: Grid,
    /// The (static) placement used.
    pub placement: Placement,
}

/// Schedules `circuit` event-driven style on `grid` from a static
/// `placement`. Returns the interval schedule; validate with
/// [`verify_async`].
///
/// Statistics note: with no global steps, the result's `braid_steps`
/// counts *braids started* and `local_steps` counts local gates; the
/// comparable quantity across engines is `total_cycles`.
pub fn schedule_async(
    circuit: &Circuit,
    grid: &Grid,
    placement: Placement,
    config: &ScheduleConfig,
) -> AsyncSchedule {
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
    let Clock::PerQubit(clock) = engine.clock else {
        unreachable!("the per-qubit clock was set above")
    };
    AsyncSchedule {
        result: engine.result,
        assignments: clock.assignments,
        grid: grid.clone(),
        placement,
    }
}

/// Independently verifies an [`AsyncSchedule`] built on the plain
/// dependence DAG; see [`verify_async_with_dag`].
pub fn verify_async(circuit: &Circuit, schedule: &AsyncSchedule) -> Result<(), String> {
    verify_async_with_dag(circuit, &DependenceDag::new(circuit), schedule)
}

/// Independently verifies an [`AsyncSchedule`] against the dependence
/// DAG it was built with (pass
/// [`DependenceDag::with_commutation`] for a commutation-aware
/// schedule): every gate exactly once, dependence order in slot time,
/// paths valid for the placement, and vertex-disjointness across
/// overlapping braids.
///
/// Returns the first violation as an error message.
pub fn verify_async_with_dag(
    circuit: &Circuit,
    dag: &DependenceDag,
    schedule: &AsyncSchedule,
) -> Result<(), String> {
    let mut finish: Vec<Option<u64>> = vec![None; circuit.len()];
    for a in &schedule.assignments {
        if a.gate >= circuit.len() {
            return Err(format!("unknown gate {}", a.gate));
        }
        if finish[a.gate].replace(a.start_slot + a.slots).is_some() {
            return Err(format!("gate {} scheduled twice", a.gate));
        }
    }
    if let Some(missing) = finish.iter().position(Option::is_none) {
        return Err(format!("gate {missing} never scheduled"));
    }
    for a in &schedule.assignments {
        for &p in dag.predecessors(a.gate) {
            let pf = finish[p].expect("all scheduled");
            if pf > a.start_slot {
                return Err(format!(
                    "gate {} starts at slot {} before dependency {} finishes at {}",
                    a.gate, a.start_slot, p, pf
                ));
            }
        }
    }

    // Paths valid, and disjoint from every braid still running: in start
    // order, each vertex remembers the last slot a braid holds it.
    let grid = &schedule.grid;
    let mut braids: Vec<&Assignment> = schedule.assignments.iter().collect();
    braids.sort_by_key(|a| a.start_slot);
    let mut busy_until = vec![0u64; grid.vertex_count()];
    for a in braids {
        match (&a.path, circuit.gate(a.gate).pair()) {
            (Some(path), Some((qa, qb))) => {
                let (ca, cb) = (
                    schedule.placement.cell_of(qa),
                    schedule.placement.cell_of(qb),
                );
                if BraidPath::new(grid, ca, cb, path.vertices().to_vec()).is_none() {
                    return Err(format!("invalid path for gate {}", a.gate));
                }
                for &v in path.vertices() {
                    let until = &mut busy_until[grid.vertex_index(v)];
                    if *until > a.start_slot {
                        return Err(format!(
                            "gate {} crosses another braid in slot {}",
                            a.gate, a.start_slot
                        ));
                    }
                    *until = a.start_slot + a.slots;
                }
            }
            (None, None) => {}
            _ => return Err(format!("gate {} arity/path mismatch", a.gate)),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::critical_path::critical_path_cycles;
    use crate::{AutoBraid, Strategy};
    use autobraid_circuit::generators::{self, random::random_circuit};

    fn run_async(circuit: &Circuit) -> AsyncSchedule {
        let config = ScheduleConfig::default();
        let compiler = AutoBraid::new(config.clone());
        let grid = Grid::with_capacity_for(circuit.num_qubits() as usize);
        let placement = compiler.initial_placement(circuit, &grid);
        let schedule = schedule_async(circuit, &grid, placement, &config);
        verify_async(circuit, &schedule).expect("async schedule verifies");
        schedule
    }

    /// The event-driven engine's own loop before it ran on the shared
    /// engine: an agenda of release slots, a per-slot occupancy map and
    /// a slot-weighted critical-path sweep. The per-qubit clock must
    /// reproduce it exactly.
    mod reference {
        use crate::async_engine::{Assignment, AsyncSchedule};
        use crate::config::ScheduleConfig;
        use crate::metrics::ScheduleResult;
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
        ) -> AsyncSchedule {
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
            let mut assignments: Vec<Assignment> = Vec::with_capacity(circuit.len());
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
                        assignments.push(Assignment {
                            gate: g,
                            start_slot: start,
                            slots: len,
                            path,
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
            AsyncSchedule {
                result,
                assignments,
                grid: grid.clone(),
                placement,
            }
        }
    }

    /// Schedules `circuit` with both engines from the same placement and
    /// asserts identical assignments and statistics.
    fn assert_matches_reference(circuit: &Circuit) {
        let config = ScheduleConfig::default();
        let grid = Grid::with_capacity_for(circuit.num_qubits() as usize);
        let placement = AutoBraid::new(config.clone()).initial_placement(circuit, &grid);
        let mut new = schedule_async(circuit, &grid, placement.clone(), &config);
        let mut old = reference::schedule_async(circuit, &grid, placement, &config);
        assert_eq!(
            new.assignments,
            old.assignments,
            "{}: assignments",
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
        let mut schedule = run_async(&circuit);
        let relaxed = DependenceDag::with_commutation(&circuit);
        let cxs: Vec<usize> = (0..schedule.assignments.len())
            .filter(|&i| schedule.assignments[i].path.is_some())
            .collect();
        // Move the last CX into its predecessor's slot and the
        // predecessor after it, then let the local gates wait for them.
        let (pred, last) = (cxs[cxs.len() - 2], cxs[cxs.len() - 1]);
        let a = &mut schedule.assignments;
        let (s_pred, s_last) = (a[pred].start_slot, a[last].start_slot);
        a[last].start_slot = s_pred;
        a[pred].start_slot = s_last;
        a.sort_by_key(|x| x.gate);
        for g in 0..a.len() {
            if a[g].path.is_none() {
                let ready = relaxed
                    .predecessors(g)
                    .iter()
                    .map(|&p| a[p].start_slot + a[p].slots);
                a[g].start_slot = ready.fold(a[g].start_slot, u64::max);
            }
        }
        assert_eq!(verify_async_with_dag(&circuit, &relaxed, &schedule), Ok(()));
        assert!(verify_async(&circuit, &schedule)
            .unwrap_err()
            .contains("before dependency"));
    }

    #[test]
    fn building_blocks_hit_critical_path_exactly() {
        // The paper's Table 2: AutoBraid equals CP on the block suite.
        for name in ["4gt11_8", "4gt5_75", "alu-v0_26", "rd32-v0"] {
            let circuit = generators::by_name(name, 0).unwrap();
            let schedule = run_async(&circuit);
            let cp = critical_path_cycles(&circuit, schedule.result.timing());
            assert_eq!(
                schedule.result.total_cycles, cp,
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
            let schedule = run_async(&circuit);
            let cp = critical_path_cycles(&circuit, schedule.result.timing());
            assert!(schedule.result.total_cycles >= cp, "seed {seed}: below CP");
            assert!(
                schedule.result.total_cycles <= sync,
                "seed {seed}: async ({}) worse than sync ({sync})",
                schedule.result.total_cycles
            );
        }
    }

    #[test]
    fn bv_and_ising_hit_cp() {
        for circuit in [
            generators::bv::bv_all_ones(24).unwrap(),
            generators::ising::ising(16, 2).unwrap(),
        ] {
            let schedule = run_async(&circuit);
            let cp = critical_path_cycles(&circuit, schedule.result.timing());
            assert_eq!(schedule.result.total_cycles, cp, "{}", circuit.name());
        }
    }

    #[test]
    fn assignment_count_matches_circuit() {
        let circuit = generators::qft::qft(12).unwrap();
        let schedule = run_async(&circuit);
        assert_eq!(schedule.assignments.len(), circuit.len());
    }

    #[test]
    fn verify_catches_corruption() {
        let circuit = generators::qft::qft(8).unwrap();
        let mut schedule = run_async(&circuit);
        schedule.assignments[0].start_slot = 0;
        schedule.assignments.swap(0, 1);
        // Force a dependence violation: schedule the last gate at slot 0.
        let last = schedule.assignments.len() - 1;
        schedule.assignments[last].start_slot = 0;
        assert!(verify_async(&circuit, &schedule).is_err());
    }
}
