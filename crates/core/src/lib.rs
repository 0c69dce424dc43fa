//! # AutoBraid
//!
//! A framework for efficient surface-code communication scheduling — a
//! from-scratch reproduction of Hua et al., *AutoBraid: A Framework for
//! Enabling Efficient Surface Code Communication in Quantum Computing*
//! (MICRO 2021).
//!
//! Two-qubit gates on a double-defect surface code execute as *braiding
//! paths* routed through the channels of a tile grid; simultaneous paths
//! must be vertex-disjoint. This crate schedules those paths:
//!
//! * [`autobraid::AutoBraid::schedule`] — one entry point for every
//!   registry [`Strategy`]: the paper's scheduler in its autobraid-sp
//!   (stack-based path finder) and autobraid-full (+ dynamic qubit
//!   placement) configurations, the greedy "GP w. initM" baseline of
//!   Javadi-Abhari et al., Maslov's linear-depth swap network for
//!   all-to-all patterns ([`maslov`]), and the PathFinder and portfolio
//!   routers;
//! * [`critical_path`] — the ideal lower bound ("CP");
//! * [`metrics::verify_schedule`] — exhaustive schedule validation;
//! * [`pipeline::Pipeline`] — the end-to-end compile façade, configured
//!   by [`pipeline::CompileOptions`] (strategy, optimizer, verifier,
//!   telemetry, trace), with opt-in observability: stage spans,
//!   subsystem counters, and histograms snapshotted into
//!   [`pipeline::CompileReport::telemetry`], rendered by
//!   [`render::render_telemetry`] / [`report::compile_report_json`].
//!   The metric names and JSON schema are documented in
//!   `docs/METRICS.md`;
//! * [`runtime`] — the std-only parallel runtime:
//!   [`runtime::WorkerPool`] and [`pipeline::Pipeline::compile_batch`]
//!   for compiling many circuits at once; a single compile is serial.
//!   The design and determinism contract live in `docs/RUNTIME.md`;
//! * [`prelude`] — one-line imports for the common compile workflow.
//!
//! The workspace architecture, paper substitutions, and experiment
//! index live in `DESIGN.md`.
//!
//! # Quick example
//!
//! ```
//! use autobraid::{AutoBraid, Strategy, config::ScheduleConfig};
//! use autobraid::critical_path::critical_path_cycles;
//! use autobraid_circuit::generators::ising::ising;
//!
//! let circuit = ising(16, 2)?;
//! let compiler = AutoBraid::new(ScheduleConfig::default());
//! let outcome = compiler.schedule(Strategy::Full, &circuit);
//! // The Ising model schedules at exactly the critical path (Table 2).
//! let cp = critical_path_cycles(&circuit, outcome.result.timing());
//! assert_eq!(outcome.result.total_cycles, cp);
//! # Ok::<(), autobraid_circuit::CircuitError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod autobraid;
pub mod config;
pub mod critical_path;
pub mod emit;
pub mod magic;
pub mod maslov;
pub mod metrics;
pub mod pipeline;
pub mod prelude;
pub mod render;
pub mod report;
pub mod runtime;
pub mod scheduler;
pub mod strategy;
pub mod streaming;
pub mod swap;

pub use autobraid::{AutoBraid, ScheduleOutcome};
pub use config::{Recording, ScheduleConfig};
pub use critical_path::{critical_path_cycles, critical_path_cycles_relaxed, critical_path_us};
pub use metrics::{
    verify_schedule, verify_schedule_with_dag, Interval, LayerPolicy, Op, ScheduleResult, SwapOp,
};
pub use scheduler::{
    route_policy, run, Clock, EngineRun, GreedyPolicy, LayerRoute, LayoutMove, PathFinderPolicy,
    PortfolioPolicy, RoutePolicy, ScheduleError, StackPolicy,
};
pub use strategy::{Strategy, StrategyInfo, REGISTRY};
pub use streaming::{FaultEvent, StepOutcome, StreamError, StreamingOptions, StreamingPipeline};

/// The observability layer (re-exported for downstream convenience):
/// install a recorder, create spans, bump counters — see `docs/METRICS.md`.
pub use autobraid_telemetry as telemetry;
