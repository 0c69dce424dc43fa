//! Braiding-path routing for the AutoBraid surface-code scheduler.
//!
//! Everything between "a set of concurrent CX gates" and "a set of
//! vertex-disjoint braiding paths" lives here:
//!
//! * [`path`] — validated [`path::BraidPath`]s and [`path::CxRequest`]s;
//! * [`astar`] — multi-source/multi-target A* (plus a BFS reference);
//! * [`interference`] — the CX interference graph of §3.3.2;
//! * [`llg`] — local parallel group decomposition and the Theorem 1/2
//!   schedulability predicates of §3.3.1;
//! * [`stack_finder`] — the paper's Fig. 13 stack-based path finder and
//!   the greedy (GP) baseline ordering of Javadi-Abhari et al.;
//! * [`pathfinder`] — negotiated-congestion (classic PathFinder)
//!   rip-up-and-reroute routing, the stack finder's rival strategy;
//! * [`probe`] — independent invariant re-validation of routing outcomes
//!   for the conformance oracle and randomized tests.
//!
//! Its place in the workspace is described in `DESIGN.md` §4 (crate
//! map). Router internals report telemetry (A* expansions, peel depth,
//! LLG sizes) through `autobraid_telemetry`; the metric names are
//! documented in `docs/METRICS.md`.
//!
//! # Quick example
//!
//! ```
//! use autobraid_lattice::{Cell, Grid, Occupancy};
//! use autobraid_router::path::CxRequest;
//! use autobraid_router::stack_finder::route_concurrent;
//!
//! let grid = Grid::new(8)?;
//! let mut occ = Occupancy::new(&grid);
//! let batch = vec![
//!     CxRequest::new(0, Cell::new(0, 0), Cell::new(0, 7)),
//!     CxRequest::new(1, Cell::new(0, 2), Cell::new(0, 3)),
//! ];
//! let outcome = route_concurrent(&grid, &mut occ, &batch);
//! assert!(outcome.is_complete());
//! # Ok::<(), autobraid_lattice::LatticeError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod astar;
pub mod interference;
pub mod llg;
pub mod lowering;
pub mod path;
pub mod pathfinder;
pub mod probe;
pub mod stack_finder;
pub mod topology;
mod walk;

pub use arena::{warm_thread_arena, with_search_arena, SearchArena};
pub use astar::find_path;
pub use interference::InterferenceGraph;
pub use llg::{decompose, Llg};
pub use path::{BraidPath, CxRequest};
pub use pathfinder::{route_negotiated, NegotiationStats};
pub use probe::check_route_outcome;
pub use stack_finder::{
    route_concurrent, route_greedy, route_stack_flat, RouteOutcome, RoutedGate,
};
