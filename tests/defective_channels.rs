//! Integration tests for scheduling on lattices with defective channels:
//! permanently unavailable routing vertices (broken measurement hardware,
//! or regions reserved for magic-state distillation factories).

use autobraid::config::ScheduleConfig;
use autobraid::scheduler::{run, EngineRun, LayoutMove, ScheduleError, StackPolicy};
use autobraid::{critical_path_cycles, ScheduleResult};
use autobraid_circuit::generators::{ising::ising, qft::qft};
use autobraid_circuit::Circuit;
use autobraid_lattice::{Grid, Occupancy, Vertex};
use autobraid_placement::Placement;

/// Runs `drive`, which is unbounded: an error only when the defects
/// make a gate unroutable.
fn drive(drive: EngineRun<'_>) -> Result<(ScheduleResult, Placement), ScheduleError> {
    run(drive).map(|done| done.expect("an unbounded drive finishes"))
}

fn defects(grid: &Grid, vertices: &[(u32, u32)]) -> Occupancy {
    let mut base = Occupancy::new(grid);
    for &(r, c) in vertices {
        base.reserve(grid, Vertex::new(r, c));
    }
    base
}

#[test]
fn schedules_around_scattered_defects() {
    let circuit = qft(16).unwrap();
    let grid = Grid::with_capacity_for(16);
    let placement = Placement::row_major(&grid, 16);
    let config = ScheduleConfig::default();
    // A diagonal of broken channel intersections.
    let base = defects(&grid, &[(1, 1), (2, 2), (3, 3)]);

    let (result, _) = drive(
        EngineRun::new(
            "defective",
            &circuit,
            &grid,
            placement,
            &StackPolicy,
            &config,
        )
        .base(&base),
    )
    .expect("scattered defects leave the lattice connected");

    // Every braid avoids every defective vertex.
    for path in result.steps.iter().filter_map(|i| i.path()) {
        for v in path.vertices() {
            assert!(base.is_free(&grid, *v), "path crosses defect {v}");
        }
    }
    // Defects cost time but not correctness.
    assert!(result.total_cycles >= critical_path_cycles(&circuit, result.timing()));
}

#[test]
fn defects_degrade_but_do_not_break_ising() {
    let circuit = ising(25, 2).unwrap();
    let grid = Grid::with_capacity_for(25);
    let config = ScheduleConfig::default();
    let placement = autobraid_placement::linear_placement(&circuit, &grid).unwrap();

    let clean_base = Occupancy::new(&grid);
    let (clean, _) = drive(
        EngineRun::new(
            "clean",
            &circuit,
            &grid,
            placement.clone(),
            &StackPolicy,
            &config,
        )
        .base(&clean_base),
    )
    .unwrap();

    let broken_base = defects(&grid, &[(2, 2), (2, 3), (3, 2)]);
    let (broken, _) = drive(
        EngineRun::new("broken", &circuit, &grid, placement, &StackPolicy, &config)
            .base(&broken_base),
    )
    .unwrap();

    assert!(broken.total_cycles >= clean.total_cycles);
    assert!(
        broken.total_cycles <= clean.total_cycles * 3,
        "three broken vertices must not explode the schedule: {} vs {}",
        broken.total_cycles,
        clean.total_cycles
    );
}

#[test]
fn fully_walled_qubit_reports_unroutable() {
    // Wall off tile (0,0) completely: a CX out of it can never route.
    let mut circuit = Circuit::new(4);
    circuit.cx(0, 3);
    let grid = Grid::new(2).unwrap();
    let placement = Placement::row_major(&grid, 4);
    let config = ScheduleConfig::default();
    let base = defects(&grid, &[(0, 0), (0, 1), (1, 0), (1, 1)]);

    let err = drive(
        EngineRun::new("walled", &circuit, &grid, placement, &StackPolicy, &config).base(&base),
    )
    .unwrap_err();
    assert_eq!(err, ScheduleError::UnroutableGate { gate: 0 });
    assert!(err.to_string().contains("unroutable"));
}

#[test]
fn reserved_distillation_region_is_respected() {
    // Reserve a channel segment in the grid's centre, as a magic-state
    // factory's access corridor would. (A full 2×2 vertex block would wall
    // off the tile it cornered — that case is the unroutable test above.)
    // Everything still schedules and no path enters the region.
    let circuit = qft(25).unwrap();
    let grid = Grid::with_capacity_for(25);
    let placement = Placement::row_major(&grid, 25);
    let config = ScheduleConfig::default();
    let region: Vec<(u32, u32)> = (1..=3).map(|c| (2, c)).collect();
    let base = defects(&grid, &region);

    let (result, _) = drive(
        EngineRun::new("factory", &circuit, &grid, placement, &StackPolicy, &config)
            .base(&base)
            .layout(LayoutMove::SwapInsertion),
    )
    .unwrap();
    for path in result.steps.iter().filter_map(|i| i.path()) {
        assert!(path.vertices().iter().all(|v| base.is_free(&grid, *v)));
    }
}
