//! Maslov's linear-depth specialization for all-to-all communication
//! patterns \[17\].
//!
//! For programs like the QFT where every qubit talks to every other,
//! routing alone cannot escape the m/3-step bottleneck (paper Fig. 15).
//! Maslov's construction lays the qubits on a line (our serpentine
//! embedding of the grid) and interleaves gate execution with
//! *unconditional* odd/even transposition layers: in a brick-wall swap
//! network over `n` wires, every pair of qubits becomes adjacent within
//! `n` layers, so an all-to-all program drains in linear depth.

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

/// Schedules `circuit` with the Maslov swap-network strategy on the
/// smallest square grid. Returns the result and the *initial* placement
/// (the serpentine identity order).
///
/// Each iteration executes every ready CX whose operands are currently
/// adjacent on the serpentine line (plus ready local gates); when no ready
/// CX is adjacent, an unconditional odd/even transposition layer advances
/// the network. Termination follows from the brick-wall property: within
/// `n` transposition layers every pair of line positions has been
/// adjacent, so the dependence frontier always progresses.
pub fn schedule_maslov(circuit: &Circuit, config: &ScheduleConfig) -> (ScheduleResult, Placement) {
    schedule_maslov_with_dag(circuit, config, &config.dag(circuit))
}

/// [`schedule_maslov`] against a caller-supplied dependence DAG, so one
/// DAG build can be shared with the other strategies `schedule_full`
/// races. `dag` must have been built from `circuit` consistently with
/// `config.commutation_aware`.
pub fn schedule_maslov_with_dag(
    circuit: &Circuit,
    config: &ScheduleConfig,
    dag: &DependenceDag,
) -> (ScheduleResult, Placement) {
    schedule_maslov_below(circuit, config, dag, u64::MAX).expect("an unbounded schedule completes")
}

/// [`schedule_maslov_with_dag`] that quits once the schedule reaches
/// `bound` cycles: `None` unless it drains in fewer. Cycles only grow as
/// steps commit, so the race in `schedule_full` abandons a Maslov
/// candidate as soon as it can no longer beat the incumbent.
pub(crate) fn schedule_maslov_below(
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

    // Step-loop scratch, hoisted so the hot loop stays allocation-free
    // (the recorded `Step`s still own their payload vectors).
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
            circuit
                .gate(g)
                .pair()
                .is_some_and(|(a, b)| position[a as usize].abs_diff(position[b as usize]) == 1)
        }));
        let any_braid_ready = ready.len() > locals.len();

        if !adjacent.is_empty() {
            // Execute all adjacent ready CX gates simultaneously. Their
            // operand pairs are disjoint (gates sharing a qubit are never
            // concurrently ready), and adjacent tiles always route.
            requests.clear();
            requests.extend(adjacent.iter().map(|&g| {
                let (a, b) = circuit.gate(g).pair().expect("adjacent gates are CX");
                CxRequest::new(g, placement.cell_of(a), placement.cell_of(b))
            }));
            occupancy.clear();
            let outcome = route_concurrent(&grid, &mut occupancy, &requests);
            debug_assert!(!outcome.routed.is_empty(), "adjacent pairs must route");
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
            // Only local gates are ready.
            for &g in &locals {
                frontier.complete(g);
            }
            result.local_steps += 1;
            result.total_cycles += config.timing.local_step_cycles();
            if record {
                result.steps.push(Step::Local { gates: locals });
            }
        } else {
            // Advance the swap network by one transposition layer. Prefer
            // a benefit-driven layer: swap a neighbour pair only when that
            // brings the partners of some ready CX strictly closer
            // (summed over all ready gates). When neither parity offers a
            // benefit, fall back to one unconditional brick-wall layer,
            // which guarantees every pair eventually meets.
            ready_pairs.clear();
            ready_pairs.extend(ready.iter().filter_map(|&g| circuit.gate(g).pair()));
            let chosen_parity = if unconditional_mode {
                None
            } else {
                let b0 = layer_benefit(&line, &position, &ready_pairs, 0);
                let b1 = layer_benefit(&line, &position, &ready_pairs, 1);
                if b0 <= 0 && b1 <= 0 {
                    // Stall: switch to pure brick-wall layers until a gate
                    // executes — the circle-method property then
                    // guarantees a meeting within 2n layers.
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
                // An unconditional layer at parity 1 would be empty on a
                // 2-wire line; fall back to parity 0 there.
                None if parity + 1 < n => parity,
                None => 0,
            };
            let mut p = start;
            while p + 1 < n {
                let take = match chosen_parity {
                    // Benefit-driven: keep only strictly improving swaps.
                    Some(_) => pair_benefit(&line, &position, &ready_pairs, p) > 0,
                    // Unconditional brick-wall layer.
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
            debug_assert!(
                !pairs.is_empty(),
                "a transposition layer must swap something"
            );
            occupancy.clear();
            let outcome = route_concurrent(&grid, &mut occupancy, &swap_requests);
            assert!(
                outcome.is_complete(),
                "disjoint neighbour swaps must always route simultaneously"
            );
            for routed in outcome.routed {
                let (qa, qb) = pairs[routed.request.id];
                swaps.push(SwapOp {
                    a: qa,
                    b: qb,
                    path: routed.path,
                });
            }
            // Commit the transposition: update line, positions, placement.
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
            // Benefit-driven layers strictly reduce total partner distance
            // (≤ n per gate) and unconditional mode meets every pair
            // within 2n layers, so this bound is never hit.
            assert!(
                idle_swap_layers <= 4 * n + 16,
                "swap network failed to make a ready gate adjacent"
            );
        }
    }

    if result.braid_steps > 0 {
        result.mean_utilization = utilization_sum / result.braid_steps as f64;
    }
    result.compile_seconds = started.elapsed().as_secs_f64();
    (result.total_cycles < bound).then_some((result, initial))
}

/// Change in summed partner distance (old − new) over `ready_pairs` if
/// the neighbour pair at positions `(p, p + 1)` were swapped. Positive
/// means the swap helps.
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
        let old = i64::from(position[a as usize]).abs_diff(i64::from(position[b as usize])) as i64;
        let new = project(a).abs_diff(project(b)) as i64;
        benefit += old - new;
    }
    benefit
}

/// Total achievable benefit of a transposition layer at `start` parity:
/// the sum of positive per-pair benefits (pairs are disjoint, so their
/// effects are independent).
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::verify_schedule;
    use autobraid_circuit::generators::qft::qft;

    #[test]
    fn qft_schedule_verifies() {
        let circuit = qft(12).unwrap();
        let config = ScheduleConfig::default();
        let grid = Grid::with_capacity_for(12);
        let (result, initial) = schedule_maslov(&circuit, &config);
        verify_schedule(&circuit, &grid, &initial, &result).unwrap();
    }

    #[test]
    fn qft_braid_steps_scale_linearly() {
        let config = ScheduleConfig::default();
        let (r16, _) = schedule_maslov(&qft(16).unwrap(), &config);
        let (r32, _) = schedule_maslov(&qft(32).unwrap(), &config);
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
        let (r, _) = schedule_maslov(&c, &ScheduleConfig::default());
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
    }

    #[test]
    fn distant_pair_triggers_swaps() {
        let mut c = Circuit::new(9);
        c.cx(0, 8);
        let (r, _) = schedule_maslov(&c, &ScheduleConfig::default());
        assert!(r.swap_layers > 0);
        assert_eq!(r.braid_steps, 1);
    }
}
