//! The end-to-end compiler pipeline: one façade over parsing, peephole
//! optimization, placement, scheduling, and verification, with per-stage
//! timing — the shape a downstream tool would embed.
//!
//! Configuration is carried by [`CompileOptions`] (what to run: strategy,
//! optimizer, verifier, telemetry) next to the scheduling
//! [`ScheduleConfig`] (how to schedule, including the one thread budget,
//! [`ScheduleConfig::threads`]). Batch compilation over a worker pool
//! lives in [`crate::runtime`]; the parallel runtime's design and
//! determinism contract are documented in `docs/RUNTIME.md`.

use crate::autobraid::ScheduleOutcome;
use crate::config::{Recording, ScheduleConfig};
use crate::metrics::verify_schedule_with_dag;
use crate::AutoBraid;
use autobraid_circuit::{qasm, Circuit, CircuitError, CircuitStats};
use autobraid_telemetry::{
    self as telemetry, FanoutRecorder, MemoryRecorder, Recorder, TelemetrySnapshot, Trace,
    TraceRecorder,
};
use std::sync::Arc;
use std::time::Instant;

pub use crate::strategy::{Strategy, StrategyInfo};

/// What one compile should do — everything about a [`Pipeline`] except
/// the scheduling parameters themselves ([`ScheduleConfig`]).
///
/// Construct with struct-update syntax over [`Default`]:
///
/// ```
/// use autobraid::pipeline::{CompileOptions, Strategy};
///
/// let options = CompileOptions {
///     strategy: Strategy::Stack,
///     ..CompileOptions::default()
/// };
/// assert!(options.verify);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileOptions {
    /// Which scheduler to drive (default [`Strategy::Full`]).
    pub strategy: Strategy,
    /// Run the peephole optimizer before scheduling (default `true`).
    pub optimize: bool,
    /// Machine-check the schedule after compilation (default `true`;
    /// requires [`Recording::Full`], silently skipped otherwise).
    pub verify: bool,
    /// Collect a [`TelemetrySnapshot`] per compile (default `false`).
    /// Metric names and the JSON layout are documented in
    /// `docs/METRICS.md`.
    pub telemetry: bool,
    /// Collect an event-level [`Trace`] per compile (default `false`).
    /// The `autobraid.trace/v1` event schema is documented in
    /// `docs/METRICS.md`; export with [`Trace::to_chrome_json`] and
    /// replay with [`autobraid_telemetry::explain::explain_trace`].
    pub trace: bool,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            strategy: Strategy::Full,
            optimize: true,
            verify: true,
            telemetry: false,
            trace: false,
        }
    }
}

/// Pipeline configuration: scheduling parameters plus compile options.
#[derive(Debug, Clone, Default)]
pub struct Pipeline {
    config: ScheduleConfig,
    options: CompileOptions,
}

/// Errors a pipeline run can produce.
#[derive(Debug)]
#[non_exhaustive]
pub enum PipelineError {
    /// The OpenQASM source failed to parse.
    Parse(CircuitError),
    /// The produced schedule failed verification (a compiler bug — please
    /// report it).
    Verification {
        /// The pipeline stage that rejected the schedule.
        stage: &'static str,
        /// The circuit (or batch-job label) being compiled.
        circuit: String,
        /// What the verifier found.
        detail: String,
    },
    /// A batch-compile job panicked; the panic was isolated to its worker
    /// and the remaining jobs completed normally.
    Panicked {
        /// The circuit (or batch-job label) being compiled.
        circuit: String,
        /// The panic payload, when it was a string.
        detail: String,
    },
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::Parse(e) => write!(f, "parse stage failed: {e}"),
            PipelineError::Verification {
                stage,
                circuit,
                detail,
            } => {
                write!(
                    f,
                    "schedule verification failed at stage `{stage}` for circuit `{circuit}`: {detail}"
                )
            }
            PipelineError::Panicked { circuit, detail } => {
                write!(f, "compile of circuit `{circuit}` panicked: {detail}")
            }
        }
    }
}

impl std::error::Error for PipelineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PipelineError::Parse(e) => Some(e),
            _ => None,
        }
    }
}

/// Per-stage wall-clock timings of one compile.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StageTimings {
    /// Parsing (0 when a circuit was supplied directly).
    pub parse_seconds: f64,
    /// Peephole optimization (0 when disabled).
    pub optimize_seconds: f64,
    /// Placement + scheduling.
    pub schedule_seconds: f64,
    /// Verification (0 when disabled).
    pub verify_seconds: f64,
}

impl StageTimings {
    /// Total pipeline time.
    pub fn total_seconds(&self) -> f64 {
        self.parse_seconds + self.optimize_seconds + self.schedule_seconds + self.verify_seconds
    }
}

/// Everything one compile produces.
#[derive(Debug, Clone)]
pub struct CompileReport {
    /// The circuit actually scheduled (post-optimization).
    pub circuit: Circuit,
    /// Statistics of the scheduled circuit.
    pub stats: CircuitStats,
    /// Gates removed by the optimizer.
    pub gates_removed: usize,
    /// The schedule and its context.
    pub outcome: ScheduleOutcome,
    /// Per-stage wall-clock times.
    pub timings: StageTimings,
    /// Telemetry captured during the compile (see `docs/METRICS.md`);
    /// `None` unless [`CompileOptions::telemetry`] enabled collection.
    pub telemetry: Option<TelemetrySnapshot>,
    /// Event trace captured during the compile (see `docs/METRICS.md`);
    /// `None` unless [`CompileOptions::trace`] enabled collection.
    pub trace: Option<Trace>,
}

impl CompileReport {
    /// The canonical deterministic view of this report, rendered compact:
    /// timing and telemetry stripped, everything else byte-stable. Two
    /// compiles of the same circuit under the same options must agree on
    /// this string whatever the thread count — the determinism contract of
    /// `docs/RUNTIME.md`, and the equality the conformance oracle checks.
    pub fn canonical_json(&self) -> String {
        crate::report::canonical_report_string(self)
    }
}

impl Pipeline {
    /// A pipeline with default configuration (autobraid-full, optimizer
    /// and verifier enabled, serial).
    pub fn new() -> Self {
        Pipeline::default()
    }

    /// Replaces the scheduling configuration.
    pub fn with_config(mut self, config: ScheduleConfig) -> Self {
        self.config = config;
        self
    }

    /// Replaces the compile options.
    ///
    /// ```
    /// use autobraid::pipeline::{CompileOptions, Pipeline, Strategy};
    ///
    /// let pipeline = Pipeline::new().with_options(CompileOptions {
    ///     strategy: Strategy::Baseline,
    ///     ..CompileOptions::default()
    /// });
    /// assert_eq!(pipeline.options().strategy, Strategy::Baseline);
    /// ```
    pub fn with_options(mut self, options: CompileOptions) -> Self {
        self.options = options;
        self
    }

    /// The active compile options.
    pub fn options(&self) -> &CompileOptions {
        &self.options
    }

    /// The active scheduling configuration.
    pub fn config(&self) -> &ScheduleConfig {
        &self.config
    }

    /// Compiles an OpenQASM 2.0 program.
    ///
    /// # Errors
    ///
    /// [`PipelineError::Parse`] on malformed input, or
    /// [`PipelineError::Verification`] if the schedule fails its own
    /// machine check (a bug).
    ///
    /// # Examples
    ///
    /// ```
    /// use autobraid::pipeline::Pipeline;
    ///
    /// let report = Pipeline::new()
    ///     .compile_qasm("qreg q[3]; h q[0]; cx q[0],q[1]; cx q[1],q[2];")?;
    /// assert!(report.outcome.result.total_cycles > 0);
    /// # Ok::<(), autobraid::pipeline::PipelineError>(())
    /// ```
    pub fn compile_qasm(&self, source: &str) -> Result<CompileReport, PipelineError> {
        let (memory, tracer) = self.make_recorders();
        let _guard = install_recorders(&memory, &tracer);
        let started = Instant::now();
        let circuit = {
            let _span = telemetry::span("parse");
            qasm::parse(source).map_err(PipelineError::Parse)?
        };
        let parse_seconds = started.elapsed().as_secs_f64();
        let mut report = self.compile_impl(&circuit)?;
        report.timings.parse_seconds = parse_seconds;
        report.telemetry = memory.map(|r| r.snapshot());
        report.trace = tracer.map(|r| r.snapshot());
        Ok(report)
    }

    /// Compiles a circuit.
    ///
    /// # Errors
    ///
    /// [`PipelineError::Verification`] if the schedule fails its own
    /// machine check (a bug).
    pub fn compile(&self, circuit: &Circuit) -> Result<CompileReport, PipelineError> {
        let (memory, tracer) = self.make_recorders();
        let _guard = install_recorders(&memory, &tracer);
        let mut report = self.compile_impl(circuit)?;
        report.telemetry = memory.map(|r| r.snapshot());
        report.trace = tracer.map(|r| r.snapshot());
        Ok(report)
    }

    /// Fresh per-compile recorders for whatever collection the options
    /// enabled.
    fn make_recorders(&self) -> (Option<Arc<MemoryRecorder>>, Option<Arc<TraceRecorder>>) {
        (
            self.options
                .telemetry
                .then(|| Arc::new(MemoryRecorder::new())),
            self.options.trace.then(|| Arc::new(TraceRecorder::new())),
        )
    }

    fn compile_impl(&self, circuit: &Circuit) -> Result<CompileReport, PipelineError> {
        let config = &self.config;
        let mut timings = StageTimings::default();

        let started = Instant::now();
        let (circuit, gates_removed) = if self.options.optimize {
            let _span = telemetry::span("optimize");
            let (optimized, stats) = autobraid_circuit::transform::optimize(circuit, 1e-12);
            (optimized, stats.gates_removed())
        } else {
            (circuit.clone(), 0)
        };
        timings.optimize_seconds = started.elapsed().as_secs_f64();
        telemetry::counter("pipeline.gates_removed", gates_removed as u64);

        let started = Instant::now();
        let span = telemetry::span("schedule");
        // One dependence DAG serves every candidate the strategy races
        // *and* the post-schedule verification below.
        let dag = config.dag(&circuit);
        let outcome =
            AutoBraid::new(config.clone()).schedule_with_dag(self.options.strategy, &circuit, &dag);
        drop(span);
        timings.schedule_seconds = started.elapsed().as_secs_f64();

        if self.options.verify && config.recording == Recording::Full {
            let started = Instant::now();
            let _span = telemetry::span("verify");
            verify_schedule_with_dag(
                &circuit,
                &dag,
                &outcome.grid,
                &outcome.initial_placement,
                &outcome.result,
            )
            .map_err(|detail| PipelineError::Verification {
                stage: "verify",
                circuit: circuit.name().to_string(),
                detail,
            })?;
            timings.verify_seconds = started.elapsed().as_secs_f64();
        }

        let stats = CircuitStats::of(&circuit);
        Ok(CompileReport {
            circuit,
            stats,
            gates_removed,
            outcome,
            timings,
            telemetry: None,
            trace: None,
        })
    }
}

/// Installs whichever per-compile recorders are present (fanned out
/// when both are). `None` when neither is — the compile then records
/// into the ambient recorder, if the caller installed one.
fn install_recorders(
    memory: &Option<Arc<MemoryRecorder>>,
    tracer: &Option<Arc<TraceRecorder>>,
) -> Option<telemetry::RecorderGuard> {
    let sinks: Vec<Arc<dyn Recorder>> = memory
        .iter()
        .map(|r| r.clone() as Arc<dyn Recorder>)
        .chain(tracer.iter().map(|r| r.clone() as Arc<dyn Recorder>))
        .collect();
    match sinks.len() {
        0 => None,
        1 => Some(telemetry::install(
            sinks.into_iter().next().expect("one sink"),
        )),
        _ => Some(telemetry::install(Arc::new(FanoutRecorder::new(sinks)))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autobraid_circuit::generators::qft::qft;

    #[test]
    fn qasm_to_schedule() {
        let report = Pipeline::new()
            .compile_qasm("qreg q[4]; h q[0]; cx q[0],q[1]; cx q[1],q[2]; cx q[2],q[3];")
            .unwrap();
        assert_eq!(report.stats.qubits, 4);
        assert!(report.outcome.result.total_cycles > 0);
        assert!(report.timings.total_seconds() > 0.0);
    }

    #[test]
    fn parse_errors_surface() {
        let err = Pipeline::new()
            .compile_qasm("qreg q[2]; frob q[0];")
            .unwrap_err();
        assert!(matches!(err, PipelineError::Parse(_)));
        assert!(err.to_string().contains("parse stage"));
    }

    #[test]
    fn optimizer_shrinks_redundant_circuits() {
        let mut c = Circuit::new(2);
        c.h(0).h(0).cx(0, 1).cx(0, 1).t(1);
        let with = Pipeline::new().compile(&c).unwrap();
        assert_eq!(with.gates_removed, 4);
        assert_eq!(with.circuit.len(), 1);
        let without = Pipeline::new()
            .with_options(CompileOptions {
                optimize: false,
                ..CompileOptions::default()
            })
            .compile(&c)
            .unwrap();
        assert_eq!(without.gates_removed, 0);
        assert!(with.outcome.result.total_cycles <= without.outcome.result.total_cycles);
    }

    #[test]
    fn all_strategies_compile_qft() {
        let c = qft(10).unwrap();
        for strategy in Strategy::ALL {
            let report = Pipeline::new()
                .with_options(CompileOptions {
                    strategy,
                    ..CompileOptions::default()
                })
                .compile(&c)
                .unwrap();
            assert!(report.outcome.result.total_cycles > 0, "{strategy:?}");
        }
    }

    #[test]
    fn telemetry_snapshot_spans_all_subsystems() {
        let c = qft(16).unwrap();
        let report = Pipeline::new()
            .with_options(CompileOptions {
                telemetry: true,
                ..CompileOptions::default()
            })
            .compile(&c)
            .unwrap();
        let snap = report.telemetry.expect("telemetry was enabled");
        let names = snap.metric_names();
        assert!(names.len() >= 10, "only {} metrics: {names:?}", names.len());
        for prefix in ["router.", "scheduler.", "placement."] {
            assert!(
                names.iter().any(|n| n.starts_with(prefix)),
                "no {prefix} metrics in {names:?}"
            );
        }
        assert!(
            snap.span("schedule").is_some(),
            "missing schedule stage span"
        );
        assert!(snap.counter("scheduler.steps.braid") > 0);
        // Telemetry is opt-in: the default pipeline attaches nothing.
        let plain = Pipeline::new().compile(&c).unwrap();
        assert!(plain.telemetry.is_none());
    }

    #[test]
    fn commutation_mode_verifies_through_pipeline() {
        let c = qft(8).unwrap();
        let report = Pipeline::new()
            .with_config(ScheduleConfig::default().with_commutation_aware(true))
            .compile(&c)
            .unwrap();
        assert!(report.outcome.result.total_cycles > 0);
    }

    #[test]
    fn strategy_names_match_report_schedulers() {
        let c = qft(8).unwrap();
        for strategy in [
            Strategy::Full,
            Strategy::Stack,
            Strategy::PathFinder,
            Strategy::Portfolio,
        ] {
            let report = Pipeline::new()
                .with_options(CompileOptions {
                    strategy,
                    ..CompileOptions::default()
                })
                .compile(&c)
                .unwrap();
            assert_eq!(report.outcome.result.scheduler, strategy.name());
        }
    }

    #[test]
    fn strategy_all_is_exhaustive_and_ordered() {
        assert_eq!(Strategy::ALL.len(), crate::strategy::REGISTRY.len());
        let names: Vec<&str> = Strategy::ALL.iter().map(|s| s.name()).collect();
        let mut deduped = names.clone();
        deduped.dedup();
        assert_eq!(names, deduped, "duplicate strategy in ALL");
        assert_eq!(Strategy::ALL[0], Strategy::default());
    }

    #[test]
    fn canonical_json_is_thread_invariant() {
        let c = qft(8).unwrap();
        let compile = |threads| {
            Pipeline::new()
                .with_config(ScheduleConfig::default().with_threads(threads))
                .compile(&c)
                .unwrap()
                .canonical_json()
        };
        let serial = compile(1);
        assert!(serial.contains("\"circuit\""));
        assert_eq!(serial, compile(4));
    }

    #[test]
    fn verification_errors_carry_context() {
        let err = PipelineError::Verification {
            stage: "verify",
            circuit: "qft8".into(),
            detail: "boom".into(),
        };
        let msg = err.to_string();
        assert!(msg.contains("verify") && msg.contains("qft8") && msg.contains("boom"));
    }
}
