//! Integration tests across the physical-lowering and topology layers:
//! scheduled braids lower to disjoint instruction streams, and alternate
//! paths for the same gate are interchangeable iff topology allows.

use autobraid::config::ScheduleConfig;
use autobraid::emit::emit_physical;
use autobraid::{AutoBraid, Strategy};
use autobraid_circuit::generators::{ising::ising, qft::qft};
use autobraid_lattice::physical::PhysicalLayout;
use autobraid_lattice::{Cell, CodeParams, Grid, Occupancy, TimingModel, Vertex};
use autobraid_router::astar::find_path;
use autobraid_router::lowering::{lower_step, LatticeOp};
use autobraid_router::topology::equivalent;
use autobraid_router::BraidPath;

use autobraid_router::stack_finder::route_concurrent;
use autobraid_router::CxRequest;

fn config_d(d: u32) -> ScheduleConfig {
    ScheduleConfig::default().with_timing(TimingModel::new(CodeParams::with_distance(d).unwrap()))
}

#[test]
fn full_qft_schedule_lowers_to_physical_instructions() {
    let circuit = qft(12).unwrap();
    let compiler = AutoBraid::new(config_d(5));
    let outcome = compiler.schedule(Strategy::Full, &circuit);
    let layout = PhysicalLayout::new(outcome.grid.cells_per_side(), 5).unwrap();
    let program = emit_physical(&outcome.result, &layout).unwrap();

    assert_eq!(program.duration_cycles(), outcome.result.total_cycles);
    // One braid per two slots a path is held (a CX holds two, a swap
    // six) — every one emits at least two instructions (≥1 disable + its
    // matching enable).
    let braids: u64 = outcome
        .result
        .steps
        .iter()
        .filter(|i| i.path().is_some())
        .map(|i| i.slots / 2)
        .sum();
    assert!(program.instruction_count() as u64 >= 2 * braids);
    assert!(program.peak_instructions_per_cycle() >= 1);
}

#[test]
fn every_scheduled_step_lowers_disjointly() {
    let circuit = ising(16, 2).unwrap();
    let compiler = AutoBraid::new(config_d(3));
    let outcome = compiler.schedule(Strategy::Stack, &circuit);
    let layout = PhysicalLayout::new(outcome.grid.cells_per_side(), 3).unwrap();
    // A lock-step step's intervals share their start slot.
    for step in outcome
        .result
        .steps
        .chunk_by(|a, b| a.start_slot == b.start_slot)
    {
        let paths: Vec<&BraidPath> = step.iter().filter_map(|i| i.path()).collect();
        if !paths.is_empty() {
            // lower_step panics if two braids share a physical ancilla.
            let programs = lower_step(&layout, &paths);
            assert_eq!(programs.len(), paths.len());
            for program in programs {
                let disables = program
                    .instructions()
                    .iter()
                    .filter(|i| matches!(i.op, LatticeOp::DisableStabilizer(_)))
                    .count();
                assert!(disables > 0, "every braid must open a defect channel");
            }
        }
    }
}

#[test]
fn router_detours_remain_topologically_equivalent_when_free() {
    // Route the same gate twice: once on an empty grid, once with the
    // straight channel blocked (forcing a detour through EMPTY tiles).
    let grid = Grid::new(5).unwrap();
    let (a, b) = (Cell::new(2, 0), Cell::new(2, 4));
    let occ = Occupancy::new(&grid);
    let straight = find_path(&grid, &occ, a, b, None).unwrap();

    let mut blocked = Occupancy::new(&grid);
    for c in 1..=3 {
        blocked.reserve(&grid, Vertex::new(2, c));
        blocked.reserve(&grid, Vertex::new(3, c));
    }
    let detour = find_path(&grid, &blocked, a, b, None).unwrap();
    assert_ne!(straight, detour);

    // No other logical qubits: all detours are equivalent.
    assert!(equivalent(&grid, a, b, &straight, &detour, &[]));

    // The loop between the two routes encloses the tiles they straddle;
    // if any of those held a qubit, the braids would differ
    // topologically.
    let walk = autobraid_router::topology::loop_between(&grid, a, b, &straight, &detour)
        .expect("paths connect the same tiles");
    let enclosed = walk.enclosed_cells(&grid);
    assert!(
        !enclosed.is_empty(),
        "a forced detour must enclose some tile"
    );
    for &cell in &enclosed {
        assert!(
            !equivalent(&grid, a, b, &straight, &detour, &[cell]),
            "enclosed tile {cell} must break equivalence"
        );
    }
}

#[test]
fn all_sixteen_endpoint_configurations_route_and_compare() {
    // Paper Fig. 5: a braid may start/end at any of the two tiles' corners
    // (16 combinations). Route one representative per combination by
    // blocking the other corners, then check equivalence classes against
    // an empty lattice (all equivalent when nothing else is placed).
    let grid = Grid::new(6).unwrap();
    let (a, b) = (Cell::new(2, 1), Cell::new(2, 4));
    let reference = {
        let occ = Occupancy::new(&grid);
        find_path(&grid, &occ, a, b, None).unwrap()
    };
    let mut routed = 0;
    for ca in a.corners() {
        for cb in b.corners() {
            let mut occ = Occupancy::new(&grid);
            for v in a.corners() {
                if v != ca {
                    occ.reserve(&grid, v);
                }
            }
            for v in b.corners() {
                if v != cb && occ.is_free(&grid, v) {
                    occ.reserve(&grid, v);
                }
            }
            if let Some(path) = find_path(&grid, &occ, a, b, None) {
                assert_eq!(path.start(), ca);
                assert_eq!(path.end(), cb);
                assert!(
                    equivalent(&grid, a, b, &reference, &path, &[]),
                    "({ca}, {cb}) inequivalent on an empty lattice"
                );
                routed += 1;
            }
        }
    }
    assert!(
        routed >= 12,
        "most endpoint configurations must route: {routed}/16"
    );
}

#[test]
fn concurrent_braids_lower_and_wind_independently() {
    let grid = Grid::new(6).unwrap();
    let mut occ = Occupancy::new(&grid);
    let requests = vec![
        CxRequest::new(0, Cell::new(0, 0), Cell::new(0, 5)),
        CxRequest::new(1, Cell::new(2, 0), Cell::new(2, 5)),
        CxRequest::new(2, Cell::new(4, 0), Cell::new(4, 5)),
    ];
    let outcome = route_concurrent(&grid, &mut occ, &requests);
    assert!(outcome.is_complete());
    let layout = PhysicalLayout::new(6, 3).unwrap();
    let paths: Vec<&BraidPath> = outcome.routed.iter().map(|r| &r.path).collect();
    let programs = lower_step(&layout, &paths);
    // Total instructions match the per-braid sums (no sharing).
    let total: usize = programs.iter().map(|p| p.instructions().len()).sum();
    assert!(total > 0);
    for p in &programs {
        assert_eq!(p.duration_cycles(), 6);
    }
}
