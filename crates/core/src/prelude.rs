//! One-line imports for the common compile workflow.
//!
//! ```
//! use autobraid::prelude::*;
//!
//! let mut circuit = Circuit::named(3, "ghz");
//! circuit.h(0).cx(0, 1).cx(1, 2);
//! let report = Pipeline::new().compile(&circuit)?;
//! assert!(report.outcome.result.total_cycles > 0);
//! # Ok::<(), PipelineError>(())
//! ```
//!
//! Covers the pipeline façade ([`Pipeline`], [`CompileOptions`],
//! [`Strategy`], [`CompileReport`], [`PipelineError`]), batch
//! compilation ([`CompileJob`], [`WorkerPool`]), the
//! scheduler front end ([`AutoBraid::schedule`], [`ScheduleConfig`],
//! [`Interval`], [`verify_schedule`], [`critical_path_cycles`]), report rendering
//! ([`compile_report_json`], [`CompileReport::canonical_json`],
//! [`render_telemetry`]), and the circuit/lattice types every compile
//! touches ([`Circuit`], [`CircuitStats`], [`Grid`]).

pub use crate::autobraid::{AutoBraid, ScheduleOutcome};
pub use crate::config::{Recording, ScheduleConfig};
pub use crate::critical_path::critical_path_cycles;
pub use crate::metrics::{verify_schedule, Interval, ScheduleResult};
pub use crate::pipeline::{
    CompileOptions, CompileReport, Pipeline, PipelineError, StageTimings, Strategy,
};
pub use crate::render::render_telemetry;
pub use crate::report::compile_report_json;
pub use crate::runtime::{CompileJob, WorkerPool};
pub use crate::strategy::StrategyInfo;
pub use autobraid_circuit::{Circuit, CircuitStats};
pub use autobraid_lattice::Grid;
