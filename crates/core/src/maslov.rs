//! Maslov's linear-depth specialization for all-to-all communication
//! patterns \[17\].
//!
//! For programs like the QFT where every qubit talks to every other,
//! routing alone cannot escape the m/3-step bottleneck (paper Fig. 15).
//! Maslov's construction lays the qubits on a line (our serpentine
//! embedding of the grid) and interleaves gate execution with odd/even
//! transposition layers: in a brick-wall swap network over `n` wires,
//! every pair of qubits becomes adjacent within `n` layers, so an
//! all-to-all program drains in linear depth. Our layers keep only the
//! swaps that bring the partners of ready gates closer.
//!
//! The network runs on the shared braiding engine ([`crate::scheduler`]),
//! as one form of dynamic qubit placement next to swap insertion below
//! `p`. This module keeps only its two rules: the adjacency policy, which
//! routes the ready CX whose operands are serpentine neighbours, and the
//! transposition planner (`SwapNetwork`), the engine's layout move
//! whenever no ready CX routed.

use crate::config::ScheduleConfig;
use crate::metrics::{ScheduleResult, SwapOp};
use crate::scheduler::{run_below, LayoutMove, RoutePolicy};
use autobraid_circuit::{Circuit, DependenceDag, QubitId};
use autobraid_lattice::{Cell, Grid, Occupancy};
use autobraid_placement::linear::{place_along_serpentine, serpentine_cells};
use autobraid_placement::Placement;
use autobraid_router::stack_finder::{route_concurrent, RouteOutcome};
use autobraid_router::CxRequest;

/// Schedules `circuit` with the Maslov swap-network strategy on the
/// smallest square grid, against a caller-supplied dependence DAG.
/// Returns the result and the *initial* placement (the serpentine
/// identity order). `dag` must have been built from `circuit`
/// consistently with `config.commutation_aware`.
///
/// Each step executes every ready CX whose operands are currently
/// adjacent on the serpentine line (plus ready local gates); when no ready
/// CX is adjacent, an odd/even transposition layer advances the network.
pub fn schedule_maslov_with_dag(
    circuit: &Circuit,
    config: &ScheduleConfig,
    dag: &DependenceDag,
) -> (ScheduleResult, Placement) {
    schedule_maslov_below(circuit, config, dag, u64::MAX).expect("an unbounded schedule completes")
}

/// [`schedule_maslov_with_dag`] racing an incumbent of `bound` cycles:
/// `None` unless it drains in fewer (see
/// [`run_below`]).
pub(crate) fn schedule_maslov_below(
    circuit: &Circuit,
    config: &ScheduleConfig,
    dag: &DependenceDag,
    bound: u64,
) -> Option<(ScheduleResult, Placement)> {
    let grid = Grid::with_capacity_for(circuit.num_qubits() as usize);
    let (initial, layout) = swap_network_start(&grid, circuit.num_qubits());
    let (mut result, _) = run_below(
        "maslov",
        circuit,
        &grid,
        initial.clone(),
        &AdjacentPolicy,
        layout,
        config,
        dag,
        bound,
    )?;
    // The engine attributes every committed braid layer to its policy;
    // a Maslov report has never carried that attribution, and its
    // canonical bytes keep it so.
    result.layer_policies.clear();
    Some((result, initial))
}

/// The swap network's start on `grid` for `n` qubits: the serpentine
/// identity placement and the transposition layout move.
pub(crate) fn swap_network_start(grid: &Grid, n: QubitId) -> (Placement, LayoutMove) {
    let placement = place_along_serpentine(grid, &(0..n).collect::<Vec<QubitId>>());
    let layout = LayoutMove::SwapNetwork(SwapNetwork {
        cells: serpentine_cells(grid)[..n as usize].to_vec(),
    });
    (placement, layout)
}

/// Position of `cell` along the serpentine line of `grid` (the inverse of
/// [`serpentine_cells`]).
fn line_position(grid: &Grid, cell: Cell) -> u32 {
    let side = grid.cells_per_side();
    let col = if cell.row.is_multiple_of(2) {
        cell.col
    } else {
        side - 1 - cell.col
    };
    cell.row * side + col
}

/// The adjacency rule: routes, with neutral priority and in ready order,
/// the ready CX whose operands are serpentine neighbours, and defers the
/// rest. It makes progress only together with the swap-network layout
/// move and the serpentine placement, so no registry strategy streams
/// with it.
pub(crate) struct AdjacentPolicy;

impl RoutePolicy for AdjacentPolicy {
    fn name(&self) -> &'static str {
        "maslov"
    }

    fn route(
        &self,
        grid: &Grid,
        occupancy: &mut Occupancy,
        requests: &[CxRequest],
    ) -> RouteOutcome {
        // Neutral priority: the engine's critical-path priorities would
        // reorder the stack finder's residual sort and move paths.
        let (adjacent, distant): (Vec<CxRequest>, Vec<CxRequest>) = requests
            .iter()
            .map(|r| CxRequest::new(r.id, r.a, r.b))
            .partition(|r| line_position(grid, r.a).abs_diff(line_position(grid, r.b)) == 1);
        let mut outcome = route_concurrent(grid, occupancy, &adjacent);
        outcome.failed.extend(distant.iter().map(|r| r.id));
        outcome
    }
}

/// Maslov's transposition planner, the engine's layout move whenever no
/// ready CX routed.
pub(crate) struct SwapNetwork {
    /// The serpentine cells of the line's positions, one per qubit.
    cells: Vec<Cell>,
}

impl SwapNetwork {
    /// The next transposition layer for the ready CX `requests` under
    /// `placement`, routed on an empty lattice: at the parity whose swaps
    /// help more in total, every neighbour swap that strictly shortens
    /// the ready CX's summed partner distance.
    ///
    /// While no ready CX is adjacent, such a swap always exists, so each
    /// layer shortens that sum until one is. Each ready CX gains 1 from
    /// each of the two swaps that move an operand inward and loses 1 from
    /// each of the at most two that move one outward, so the benefits of
    /// all neighbour swaps sum to at least zero. The swap just left of the
    /// leftmost operand only hurts, so another one helps; with that
    /// operand at the end of the line, the sum itself is positive.
    pub(crate) fn transpose(
        &self,
        grid: &Grid,
        placement: &Placement,
        requests: &[CxRequest],
    ) -> Vec<SwapOp> {
        let n = self.cells.len() as u32;
        let ready: Vec<(u32, u32)> = requests
            .iter()
            .map(|r| (line_position(grid, r.a), line_position(grid, r.b)))
            .collect();
        // A layer's swaps are disjoint, so their benefits add up.
        let layer = |start: u32| {
            (start..n - 1)
                .step_by(2)
                .filter(|&p| pair_benefit(&ready, p) > 0)
        };
        let benefit = |start| layer(start).map(|p| pair_benefit(&ready, p)).sum::<i64>();
        let swaps: Vec<CxRequest> = layer(u32::from(benefit(0) < benefit(1)))
            .map(|p| {
                CxRequest::new(
                    p as usize,
                    self.cells[p as usize],
                    self.cells[p as usize + 1],
                )
            })
            .collect();
        let outcome = route_concurrent(grid, &mut Occupancy::new(grid), &swaps);
        // An empty layer would stall the network; the argument above rules
        // it out.
        assert!(
            !swaps.is_empty() && outcome.is_complete(),
            "a transposition layer swaps disjoint neighbours, at least one"
        );
        let qubit = |cell| placement.qubit_at(grid, cell).expect("the line is full");
        outcome
            .routed
            .into_iter()
            .map(|routed| SwapOp {
                a: qubit(routed.request.a),
                b: qubit(routed.request.b),
                path: routed.path,
            })
            .collect()
    }
}

/// Change in summed partner distance (old − new) over the ready CX
/// operand positions `ready` if the line positions `(p, p + 1)` were
/// swapped. Positive means the swap helps.
fn pair_benefit(ready: &[(u32, u32)], p: u32) -> i64 {
    let project = |x: u32| match x {
        _ if x == p => p + 1,
        _ if x == p + 1 => p,
        _ => x,
    };
    ready
        .iter()
        .map(|&(a, b)| i64::from(a.abs_diff(b)) - i64::from(project(a).abs_diff(project(b))))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::verify_schedule;
    use crate::scheduler::{run_with_dag, StackPolicy};
    use crate::{AutoBraid, Strategy};
    use autobraid_circuit::generators::{self, qft::qft, random::random_circuit};

    fn maslov(circuit: &Circuit) -> crate::ScheduleOutcome {
        AutoBraid::default().schedule(Strategy::Maslov, circuit)
    }

    #[test]
    fn qft_schedule_verifies() {
        let circuit = qft(12).unwrap();
        let outcome = maslov(&circuit);
        verify_schedule(
            &circuit,
            &outcome.grid,
            &outcome.initial_placement,
            &outcome.result,
        )
        .unwrap();
    }

    #[test]
    fn qft_braid_steps_scale_linearly() {
        let r16 = maslov(&qft(16).unwrap()).result;
        let r32 = maslov(&qft(32).unwrap()).result;
        // QFT-n has Θ(n²) gates; the Maslov schedule must stay near-linear
        // in n (each doubling roughly doubles, not quadruples, the steps).
        let ratio = r32.total_cycles as f64 / r16.total_cycles as f64;
        assert!(
            ratio < 3.0,
            "cycles should scale ~linearly, ratio={ratio:.2}"
        );
    }

    #[test]
    fn serial_circuit_needs_no_swaps_when_adjacent() {
        let mut c = Circuit::new(4);
        c.cx(0, 1).cx(1, 2).cx(2, 3);
        let r = maslov(&c).result;
        assert_eq!(r.swap_layers, 0, "chain on the line is already adjacent");
        assert_eq!(r.braid_steps, 3);
    }

    #[test]
    fn bounded_run_quits_at_the_bound_and_matches_below_it() {
        let circuit = qft(16).unwrap();
        let config = ScheduleConfig::default();
        let dag = DependenceDag::new(&circuit);
        let (full, _) = schedule_maslov_with_dag(&circuit, &config, &dag);
        assert!(schedule_maslov_below(&circuit, &config, &dag, full.total_cycles).is_none());
        assert!(schedule_maslov_below(&circuit, &config, &dag, 1).is_none());
        let (below, _) =
            schedule_maslov_below(&circuit, &config, &dag, full.total_cycles + 1).unwrap();
        assert_eq!(below.steps, full.steps);
        assert_eq!(below.total_cycles, full.total_cycles);

        // The same bound on autobraid-full's optimizer-off rerun.
        let grid = Grid::with_capacity_for(16);
        let placement = AutoBraid::new(config.clone()).initial_placement(&circuit, &grid);
        let policy = StackPolicy;
        let rerun = |bound| {
            run_below(
                "rerun",
                &circuit,
                &grid,
                placement.clone(),
                &policy,
                LayoutMove::None,
                &config,
                &dag,
                bound,
            )
        };
        let (full, _) = run_with_dag(
            "rerun",
            &circuit,
            &grid,
            placement.clone(),
            &policy,
            false,
            &config,
            &dag,
        );
        assert!(rerun(full.total_cycles).is_none());
        assert!(rerun(1).is_none());
        let (below, _) = rerun(full.total_cycles + 1).unwrap();
        assert_eq!(below.steps, full.steps);
        assert_eq!(below.total_cycles, full.total_cycles);
    }

    #[test]
    fn some_neighbour_swap_always_helps() {
        // Every set of up to four ready CX, none adjacent, on lines of up
        // to seven positions; operands may be shared, as under the
        // commutation-aware DAG.
        for n in 3..=7u32 {
            let pairs: Vec<(u32, u32)> = (0..n)
                .flat_map(|a| (a + 2..n).map(move |b| (a, b)))
                .collect();
            let mut sets = vec![(0, Vec::new())];
            while let Some((from, ready)) = sets.pop() {
                if !ready.is_empty() {
                    let helps = (0..n - 1).any(|p| pair_benefit(&ready, p) > 0);
                    assert!(helps, "{n} positions: {ready:?}");
                }
                if ready.len() < 4 {
                    for (i, &pair) in pairs.iter().enumerate().skip(from) {
                        let mut more = ready.clone();
                        more.push(pair);
                        sets.push((i + 1, more));
                    }
                }
            }
        }
    }

    #[test]
    fn distant_pair_triggers_swaps() {
        let mut c = Circuit::new(9);
        c.cx(0, 8);
        let r = maslov(&c).result;
        assert!(r.swap_layers > 0);
        assert_eq!(r.braid_steps, 1);
    }

    /// The Maslov network's own step loop before it ran on the shared
    /// engine. The engine's adjacency policy and swap-network layout move
    /// must reproduce it exactly.
    mod reference {
        use crate::config::{Recording, ScheduleConfig};
        use crate::critical_path::gate_cycles;
        use crate::metrics::{ScheduleResult, Step, SwapOp};
        use autobraid_circuit::{Circuit, DependenceDag, Frontier, GateId, QubitId};
        use autobraid_lattice::{Grid, Occupancy};
        use autobraid_placement::linear::{place_along_serpentine, serpentine_cells};
        use autobraid_placement::Placement;
        use autobraid_router::stack_finder::route_concurrent;
        use autobraid_router::CxRequest;
        use std::time::Instant;

        pub(super) fn schedule_maslov_below(
            circuit: &Circuit,
            config: &ScheduleConfig,
            dag: &DependenceDag,
            bound: u64,
        ) -> Option<(ScheduleResult, Placement)> {
            let started = Instant::now();
            let n = circuit.num_qubits();
            let grid = Grid::with_capacity_for(n as usize);
            let cells = serpentine_cells(&grid);
            // line[p] = qubit at serpentine position p.
            let mut line: Vec<QubitId> = (0..n).collect();
            let initial = place_along_serpentine(&grid, &line);
            let mut placement = initial.clone();

            let mut result = ScheduleResult::new("maslov", circuit.name(), config.timing);
            let mut frontier = Frontier::new(dag);
            let mut occupancy = Occupancy::new(&grid);
            let mut utilization_sum = 0.0;
            let mut parity = 0u32;
            let mut idle_swap_layers = 0u32;
            let mut unconditional_mode = false;
            let record = config.recording == Recording::Full;

            // position[q] = serpentine index of qubit q.
            let mut position: Vec<u32> = (0..n).collect();

            let mut ready: Vec<GateId> = Vec::new();
            let mut adjacent: Vec<GateId> = Vec::new();
            let mut requests: Vec<CxRequest> = Vec::new();
            let mut ready_pairs: Vec<(QubitId, QubitId)> = Vec::new();
            let mut swap_requests: Vec<CxRequest> = Vec::new();
            let mut pairs: Vec<(QubitId, QubitId)> = Vec::new();

            while !frontier.is_drained() {
                if result.total_cycles >= bound {
                    return None;
                }
                ready.clear();
                ready.extend_from_slice(frontier.ready());
                let locals: Vec<GateId> = ready
                    .iter()
                    .copied()
                    .filter(|&g| !circuit.gate(g).is_two_qubit())
                    .collect();
                adjacent.clear();
                adjacent.extend(ready.iter().copied().filter(|&g| {
                    circuit.gate(g).pair().is_some_and(|(a, b)| {
                        position[a as usize].abs_diff(position[b as usize]) == 1
                    })
                }));
                let any_braid_ready = ready.len() > locals.len();

                if !adjacent.is_empty() {
                    requests.clear();
                    requests.extend(adjacent.iter().map(|&g| {
                        let (a, b) = circuit.gate(g).pair().expect("adjacent gates are CX");
                        CxRequest::new(g, placement.cell_of(a), placement.cell_of(b))
                    }));
                    occupancy.clear();
                    let outcome = route_concurrent(&grid, &mut occupancy, &requests);
                    let utilization = occupancy.utilization();
                    result.peak_utilization = result.peak_utilization.max(utilization);
                    utilization_sum += utilization;
                    let mut cycles = 0;
                    for routed in &outcome.routed {
                        frontier.complete(routed.request.id);
                        let gate = circuit.gate(routed.request.id);
                        cycles = cycles.max(gate_cycles(gate, &config.timing));
                    }
                    for &g in &locals {
                        frontier.complete(g);
                    }
                    result.braid_steps += 1;
                    result.total_cycles += cycles;
                    if record {
                        result.steps.push(Step::Braid {
                            braids: outcome
                                .routed
                                .into_iter()
                                .map(|r| (r.request.id, r.path))
                                .collect(),
                            locals,
                        });
                    }
                    idle_swap_layers = 0;
                    unconditional_mode = false;
                } else if !any_braid_ready {
                    for &g in &locals {
                        frontier.complete(g);
                    }
                    result.local_steps += 1;
                    result.total_cycles += config.timing.local_step_cycles();
                    if record {
                        result.steps.push(Step::Local { gates: locals });
                    }
                } else {
                    ready_pairs.clear();
                    ready_pairs.extend(ready.iter().filter_map(|&g| circuit.gate(g).pair()));
                    let chosen_parity = if unconditional_mode {
                        None
                    } else {
                        let b0 = layer_benefit(&line, &position, &ready_pairs, 0);
                        let b1 = layer_benefit(&line, &position, &ready_pairs, 1);
                        if b0 <= 0 && b1 <= 0 {
                            unconditional_mode = true;
                            None
                        } else if b0 >= b1 {
                            Some(0)
                        } else {
                            Some(1)
                        }
                    };

                    let mut swaps: Vec<SwapOp> = Vec::new();
                    swap_requests.clear();
                    pairs.clear();
                    let start = match chosen_parity {
                        Some(par) => par,
                        None if parity + 1 < n => parity,
                        None => 0,
                    };
                    let mut p = start;
                    while p + 1 < n {
                        let take = match chosen_parity {
                            Some(_) => pair_benefit(&line, &position, &ready_pairs, p) > 0,
                            None => true,
                        };
                        if take {
                            let (qa, qb) = (line[p as usize], line[(p + 1) as usize]);
                            swap_requests.push(CxRequest::new(
                                pairs.len(),
                                cells[p as usize],
                                cells[(p + 1) as usize],
                            ));
                            pairs.push((qa, qb));
                        }
                        p += 2;
                    }
                    occupancy.clear();
                    let outcome = route_concurrent(&grid, &mut occupancy, &swap_requests);
                    assert!(outcome.is_complete());
                    for routed in outcome.routed {
                        let (qa, qb) = pairs[routed.request.id];
                        swaps.push(SwapOp {
                            a: qa,
                            b: qb,
                            path: routed.path,
                        });
                    }
                    for &(qa, qb) in &pairs {
                        let (pa, pb) = (position[qa as usize], position[qb as usize]);
                        line.swap(pa as usize, pb as usize);
                        position[qa as usize] = pb;
                        position[qb as usize] = pa;
                        placement.swap_qubits(qa, qb);
                    }
                    result.swap_layers += 1;
                    result.swap_count += pairs.len() as u64;
                    result.total_cycles += 3 * config.timing.braid_step_cycles();
                    parity = 1 - parity;
                    if record {
                        result.steps.push(Step::SwapLayer { swaps });
                    }
                    idle_swap_layers += 1;
                    assert!(idle_swap_layers <= 4 * n + 16);
                }
            }

            if result.braid_steps > 0 {
                result.mean_utilization = utilization_sum / result.braid_steps as f64;
            }
            result.compile_seconds = started.elapsed().as_secs_f64();
            (result.total_cycles < bound).then_some((result, initial))
        }

        fn pair_benefit(
            line: &[QubitId],
            position: &[u32],
            ready_pairs: &[(QubitId, QubitId)],
            p: u32,
        ) -> i64 {
            let (u, v) = (line[p as usize], line[(p + 1) as usize]);
            let project = |q: QubitId| -> i64 {
                if q == u {
                    i64::from(p) + 1
                } else if q == v {
                    i64::from(p)
                } else {
                    i64::from(position[q as usize])
                }
            };
            let mut benefit = 0i64;
            for &(a, b) in ready_pairs {
                let old = i64::from(position[a as usize]).abs_diff(i64::from(position[b as usize]))
                    as i64;
                let new = project(a).abs_diff(project(b)) as i64;
                benefit += old - new;
            }
            benefit
        }

        fn layer_benefit(
            line: &[QubitId],
            position: &[u32],
            ready_pairs: &[(QubitId, QubitId)],
            start: u32,
        ) -> i64 {
            let n = line.len() as u32;
            let mut total = 0i64;
            let mut p = start;
            while p + 1 < n {
                total += pair_benefit(line, position, ready_pairs, p).max(0);
                p += 2;
            }
            total
        }
    }

    /// Schedules `circuit` on the engine and on the reference loop under
    /// both dependence DAGs — unbounded, and bounded at the reference's
    /// cycles, one less and one more — and asserts the same result (every
    /// step, counter and utilization) and initial placement each time.
    fn assert_matches_reference(circuit: &Circuit) {
        for commutation_aware in [false, true] {
            let config = ScheduleConfig::default().with_commutation_aware(commutation_aware);
            let dag = config.dag(circuit);
            let schedule = |bound| {
                let timeless = |(mut result, placement): (ScheduleResult, Placement)| {
                    result.compile_seconds = 0.0;
                    (result, placement)
                };
                (
                    schedule_maslov_below(circuit, &config, &dag, bound).map(timeless),
                    reference::schedule_maslov_below(circuit, &config, &dag, bound).map(timeless),
                )
            };
            let (new, old) = schedule(u64::MAX);
            let label = format!(
                "{} (commutation-aware: {commutation_aware})",
                circuit.name()
            );
            assert_eq!(new, old, "{label}: unbounded");
            let total = old.expect("an unbounded schedule completes").0.total_cycles;
            for bound in [total.saturating_sub(1), total, total + 1] {
                let (new, old) = schedule(bound);
                assert_eq!(new, old, "{label}: bound {bound}");
            }
        }
    }

    #[test]
    fn engine_matches_the_reference_loop() {
        let corpus = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/corpus");
        let mut files: Vec<_> = std::fs::read_dir(corpus)
            .expect("the regression corpus exists")
            .map(|entry| entry.expect("readable corpus dir").path())
            .filter(|path| path.extension().is_some_and(|e| e == "qasm"))
            .collect();
        files.sort();
        assert!(!files.is_empty());
        for path in files {
            let text = std::fs::read_to_string(&path).expect("readable corpus file");
            let circuit = autobraid_circuit::qasm::parse(&text)
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            assert_matches_reference(&circuit);
        }
        for n in 2..=24 {
            assert_matches_reference(&qft(n).unwrap());
        }
        for (name, n) in [
            ("urf2_277", 0),
            ("4gt11_8", 0),
            ("alu-v0_26", 0),
            ("bv", 16),
            ("cc", 12),
            ("im", 16),
            ("qaoa", 16),
        ] {
            assert_matches_reference(&generators::by_name(name, n).unwrap());
        }
        for seed in 0..3 {
            assert_matches_reference(&random_circuit(10, 200, 0.6, seed).unwrap());
        }
        // Two wires: a brick-wall layer falls back to parity 0.
        let mut pair = Circuit::new(2);
        pair.cx(0, 1).h(0).cx(1, 0).cx(0, 1);
        assert_matches_reference(&pair);
        let mut distant = Circuit::new(9);
        distant.cx(0, 8);
        assert_matches_reference(&distant);
        assert_matches_reference(&Circuit::new(3));
    }
}
