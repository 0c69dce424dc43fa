//! Qubit placement for the AutoBraid surface-code scheduler.
//!
//! Implements the paper's initial-placement stage and its two fine-tuners
//! (Fig. 10): coupling-graph analysis ([`coupling`]), a from-scratch
//! multilevel partitioner standing in for METIS ([`partition`]), the
//! partition-to-grid embedding ([`initial`]), simulated annealing on the
//! LLG objective ([`annealing`]), and the serpentine layout for
//! maximal-degree-2 coupling graphs ([`linear`]). The dynamic placement
//! map itself lives in [`place`].
//!
//! Its place in the workspace is described in `DESIGN.md` §4 (crate
//! map). The annealer reports acceptance-rate and objective-trajectory
//! telemetry through `autobraid_telemetry`; the metric names are
//! documented in `docs/METRICS.md`.
//!
//! # Quick example
//!
//! ```
//! use autobraid_circuit::generators::qft::qft;
//! use autobraid_lattice::Grid;
//! use autobraid_placement::initial::partition_placement;
//!
//! let circuit = qft(25)?;
//! let grid = Grid::with_capacity_for(25);
//! let placement = partition_placement(&circuit, &grid);
//! assert!(placement.is_consistent(&grid));
//! # Ok::<(), autobraid_circuit::CircuitError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod annealing;
pub mod coupling;
pub mod initial;
pub mod linear;
pub mod partition;
pub mod place;

#[allow(deprecated)]
pub use annealing::{anneal, anneal_portfolio, AnnealConfig, AnnealOutcome};
pub use coupling::CouplingGraph;
pub use initial::partition_placement;
pub use linear::linear_placement;
pub use place::Placement;
