//! Adversarial fixtures for the negotiated-congestion PathFinder
//! router: oversubscribed all-to-all bursts and defect overlays must
//! terminate within the iteration cap, never produce vertex-conflicting
//! outcomes (re-validated by the router probe, which trusts nothing the
//! router reports about itself), and the strategies built on it must
//! agree with the simulator oracle end to end.

use autobraid::prelude::*;
use autobraid::{critical_path_cycles, pipeline::PipelineError};
use autobraid_circuit::generators::qft::qft;
use autobraid_circuit::sim::circuits_equivalent;
use autobraid_lattice::{Cell, Grid, Occupancy, Vertex};
use autobraid_router::path::CxRequest;
use autobraid_router::pathfinder::{route_negotiated, MAX_ITERATIONS};
use autobraid_router::probe::check_route_outcome;

/// Every ordered pair of the given cells, as one concurrent burst.
fn all_to_all_burst(cells: &[Cell]) -> Vec<CxRequest> {
    let mut requests = Vec::new();
    for (i, &a) in cells.iter().enumerate() {
        for &b in &cells[i + 1..] {
            requests.push(CxRequest::new(requests.len(), a, b));
        }
    }
    requests
}

fn spread_cells(side: u32) -> Vec<Cell> {
    vec![
        Cell::new(0, 0),
        Cell::new(0, side - 1),
        Cell::new(side - 1, 0),
        Cell::new(side - 1, side - 1),
        Cell::new(side / 2, side / 2),
        Cell::new(side / 2, 1),
    ]
}

/// An all-to-all burst massively oversubscribes the lattice: most of the
/// 15 gates cannot route concurrently. Negotiation must stall out before
/// its iteration cap and hand back a probe-clean partial outcome.
#[test]
fn all_to_all_burst_terminates_within_cap_and_probes_clean() {
    let grid = Grid::new(8).unwrap();
    let base = Occupancy::new(&grid);
    let requests = all_to_all_burst(&spread_cells(8));
    assert_eq!(requests.len(), 15);
    let mut occupancy = base.clone();
    let (outcome, stats) = route_negotiated(&grid, &mut occupancy, &requests);
    assert!(!stats.converged);
    assert!(
        stats.iterations < MAX_ITERATIONS,
        "negotiation ran {} iterations, up to the {} cap: the stall exit never fired",
        stats.iterations,
        MAX_ITERATIONS
    );
    check_route_outcome(&grid, &requests, &base, &outcome).unwrap();
    assert!(
        !outcome.routed.is_empty(),
        "an oversubscribed burst must still route something"
    );
}

/// The same burst with a defect wall across the lattice (one gap): paths
/// must funnel through the gap, never touch a defect, and negotiation
/// must still terminate.
#[test]
fn defect_overlay_burst_avoids_defects_and_terminates() {
    let grid = Grid::new(8).unwrap();
    let mut base = Occupancy::new(&grid);
    // A horizontal wall of defective routing vertices at row 4, leaving
    // a single gap at column 5.
    for col in 0..=8 {
        if col != 5 {
            let v = Vertex::new(4, col);
            if grid.contains_vertex(v) {
                base.reserve(&grid, v);
            }
        }
    }
    let requests = all_to_all_burst(&spread_cells(8));
    let mut occupancy = base.clone();
    let (outcome, stats) = route_negotiated(&grid, &mut occupancy, &requests);
    assert!(stats.iterations <= MAX_ITERATIONS);
    // The probe enforces defect avoidance, path validity, disjointness,
    // and id accounting from nothing but the inputs and the outcome.
    check_route_outcome(&grid, &requests, &base, &outcome).unwrap();
    assert!(!outcome.routed.is_empty());
}

/// Negotiated routing is a pure function of its inputs: identical calls
/// give identical outcomes, including on adversarial bursts that never
/// converge.
#[test]
fn adversarial_bursts_route_deterministically() {
    let grid = Grid::new(8).unwrap();
    let base = Occupancy::new(&grid);
    let requests = all_to_all_burst(&spread_cells(8));
    let run = || {
        let mut occupancy = base.clone();
        route_negotiated(&grid, &mut occupancy, &requests)
    };
    let (first, first_stats) = run();
    let (second, second_stats) = run();
    assert_eq!(first.routed, second.routed);
    assert_eq!(first.failed, second.failed);
    assert_eq!(first_stats.iterations, second_stats.iterations);
}

/// End-to-end oracle agreement: the PathFinder and Portfolio strategies
/// compile with verification on (the built-in verifier replays every
/// step), never beat the critical-path lower bound, and the optimizer
/// pass under them preserves circuit semantics (state-vector check).
#[test]
fn pathfinder_strategies_agree_with_simulator_oracle() {
    let circuit = qft(7).unwrap();
    for strategy in [Strategy::PathFinder, Strategy::Portfolio] {
        let pipeline = Pipeline::new().with_options(CompileOptions {
            strategy,
            optimize: true,
            verify: true,
            telemetry: false,
            trace: false,
        });
        let report = pipeline
            .compile(&circuit)
            .unwrap_or_else(|e: PipelineError| panic!("{strategy:?}: {e}"));
        let result = &report.outcome.result;
        let cp = critical_path_cycles(&report.circuit, result.timing());
        assert!(
            result.total_cycles >= cp,
            "{strategy:?}: {} cycles beat the {cp}-cycle lower bound",
            result.total_cycles
        );
        assert!(
            circuits_equivalent(&circuit, &report.circuit, 1e-6),
            "{strategy:?}: optimizer changed circuit semantics"
        );
    }
}
