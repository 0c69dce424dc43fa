//! Edge-of-the-envelope geometry tests: the smallest legal grids,
//! single-row "corridor" placements, empty batches and layers, and
//! single-gate circuits — the shapes the fuzzer's `Tiny` family only
//! samples, pinned here deterministically.

use autobraid::pipeline::Pipeline;
use autobraid::runtime::CompileJob;
use autobraid::{run, verify_schedule_with_dag, ScheduleConfig, StackPolicy, Step};
use autobraid_circuit::{Circuit, DependenceDag};
use autobraid_lattice::{Cell, Grid, Occupancy};
use autobraid_placement::Placement;
use autobraid_router::path::CxRequest;
use autobraid_router::probe::check_route_outcome;
use autobraid_router::stack_finder::route_concurrent;

fn schedule_and_verify(circuit: &Circuit, grid: &Grid, placement: Placement) {
    let config = ScheduleConfig::default();
    let (result, final_placement) = run(
        "degenerate",
        circuit,
        grid,
        placement.clone(),
        &StackPolicy,
        false,
        &config,
    );
    let dag = DependenceDag::new(circuit);
    verify_schedule_with_dag(circuit, &dag, grid, &placement, &result).unwrap();
    final_placement.validate(grid).unwrap();
}

/// The 1×1 grid is the smallest legal lattice: it holds one qubit and
/// schedules single-qubit-only circuits.
#[test]
fn one_by_one_grid_schedules_local_gates() {
    let grid = Grid::new(1).unwrap();
    let mut c = Circuit::new(1);
    c.h(0).t(0).h(0);
    let placement = Placement::row_major(&grid, 1);
    schedule_and_verify(&c, &grid, placement);
}

/// A 2×2 grid at full occupancy: four qubits, every CX crosses the
/// middle, and the schedule must still verify.
#[test]
fn two_by_two_grid_at_full_occupancy() {
    let grid = Grid::new(2).unwrap();
    let mut c = Circuit::new(4);
    c.cx(0, 3).cx(1, 2).cx(0, 1).cx(2, 3);
    schedule_and_verify(&c, &grid, Placement::row_major(&grid, 4));
}

/// A corridor: all qubits on one row of a wide grid. Every braid
/// competes for the same channel strip, a worst case for disjointness.
#[test]
fn single_row_corridor_routes_disjointly() {
    let grid = Grid::new(6).unwrap();
    let cells: Vec<Cell> = (0..6).map(|c| Cell::new(0, c)).collect();
    let placement = Placement::from_cells(&grid, cells);
    let requests = vec![
        CxRequest::new(0, placement.cell_of(0), placement.cell_of(1)),
        CxRequest::new(1, placement.cell_of(2), placement.cell_of(3)),
        CxRequest::new(2, placement.cell_of(4), placement.cell_of(5)),
    ];
    let base = Occupancy::new(&grid);
    let mut occ = base.clone();
    let outcome = route_concurrent(&grid, &mut occ, &requests);
    check_route_outcome(&grid, &requests, &base, &outcome).unwrap();
    assert_eq!(outcome.routed.len(), 3, "corridor neighbors must all route");
    // The full scheduler agrees from the same corridor placement.
    let mut c = Circuit::new(6);
    c.cx(0, 1).cx(2, 3).cx(4, 5);
    let cells: Vec<Cell> = (0..6).map(|c| Cell::new(0, c)).collect();
    schedule_and_verify(&c, &grid, Placement::from_cells(&grid, cells));
}

/// Empty request batches are a no-op.
#[test]
fn empty_request_batch_is_a_noop() {
    let grid = Grid::new(3).unwrap();
    let base = Occupancy::new(&grid);
    let mut occ = base.clone();
    let outcome = route_concurrent(&grid, &mut occ, &[]);
    assert!(outcome.routed.is_empty() && outcome.failed.is_empty());
    assert_eq!(occ, base, "routing nothing must not touch occupancy");
    check_route_outcome(&grid, &[], &base, &outcome).unwrap();
}

/// An empty circuit schedules to an empty plan.
#[test]
fn empty_circuit_schedules_to_nothing() {
    let grid = Grid::new(2).unwrap();
    let c = Circuit::new(2);
    let config = ScheduleConfig::default();
    let (result, _) = run(
        "degenerate",
        &c,
        &grid,
        Placement::row_major(&grid, 2),
        &StackPolicy,
        false,
        &config,
    );
    assert_eq!(result.total_cycles, 0);
    assert!(result.steps.is_empty());
}

/// A single CX — one braid step, nothing else.
#[test]
fn single_gate_circuit_is_one_braid_step() {
    let grid = Grid::new(2).unwrap();
    let mut c = Circuit::new(2);
    c.cx(0, 1);
    let config = ScheduleConfig::default();
    let placement = Placement::row_major(&grid, 2);
    let (result, _) = run(
        "degenerate",
        &c,
        &grid,
        placement.clone(),
        &StackPolicy,
        false,
        &config,
    );
    let dag = DependenceDag::new(&c);
    verify_schedule_with_dag(&c, &dag, &grid, &placement, &result).unwrap();
    assert_eq!(result.braid_steps, 1);
    assert!(result
        .steps
        .iter()
        .all(|s| !matches!(s, Step::SwapLayer { .. })));
}

/// The batch pool width degrades gracefully on the smallest grids:
/// widths 0 and 1 compile inline, 3 and 8 fan the jobs across a pool,
/// and every width returns the same reports.
#[test]
fn thread_counts_agree_on_tiny_grids() {
    let mut one = Circuit::new(1);
    one.h(0).t(0);
    let mut bell = Circuit::new(2);
    bell.h(0).cx(0, 1);
    let mut three = Circuit::new(3);
    three.h(0).cx(0, 1).cx(1, 2).cx(0, 2).t(2);
    let jobs: Vec<CompileJob> = [one, bell, three]
        .into_iter()
        .map(CompileJob::circuit)
        .collect();
    let compile = |threads| -> Vec<String> {
        Pipeline::new()
            .with_config(ScheduleConfig::default().with_threads(threads))
            .compile_batch(&jobs)
            .into_iter()
            .map(|r| r.expect("tiny circuits compile").canonical_json())
            .collect()
    };
    let serial = compile(1);
    for threads in [0, 3, 8] {
        assert_eq!(compile(threads), serial, "threads={threads} diverged");
    }
}
