//! Streaming (online) compilation: gates arrive incrementally and
//! braiding steps are emitted as the frontier drains, instead of
//! compiling a complete circuit in one batch.
//!
//! A [`StreamingPipeline`] is opened for a fixed qubit capacity, fed
//! gates one at a time (or in bursts) with [`StreamingPipeline::push_gate`],
//! and stepped with [`StreamingPipeline::step`]. It *is* the batch
//! engine (`scheduler::Engine`, the stepper behind
//! [`crate::scheduler::run`]) fed gate by gate: pushes append to the
//! engine's dependence frontier, and each step is one engine step —
//! ready local gates execute together, ready two-qubit gates become a
//! braiding layer routed by the strategy's [`RoutePolicy`], and gates
//! the router defers stay in the frontier for a later step. Because the
//! stepping reuses the same policies ([`crate::scheduler::route_policy`]),
//! every registry strategy works online; the Maslov swap network — whose
//! adjacency rule needs its layout move and serpentine placement —
//! degrades to the stack finder. No layout move runs online.
//!
//! Streaming also accepts *dynamic events* injected mid-run via
//! [`StreamingPipeline::inject`]:
//!
//! * [`FaultEvent::TileFailure`] — a channel vertex dies and becomes
//!   permanently unavailable (the same defective-channel model the
//!   conformance generator uses for its overlays);
//! * [`FaultEvent::MagicStall`] — the magic-state supply
//!   ([`crate::magic`]) runs dry for a number of steps, idling the
//!   braiding engine while local gates wait.
//!
//! Faults surface as `fault.injected` / `fault.recovered`
//! `autobraid.trace/v1` decision events and `streaming.*` telemetry
//! counters; gates whose routes a fault or congestion displaced are
//! retried on later steps (counted under `streaming.reroutes`).
//!
//! Every routed layer is re-validated by the router probe
//! ([`autobraid_router::probe::check_route_outcome`]) and
//! [`Placement::validate`] before it commits, so the invariants the
//! conformance oracle enforces on batch compiles hold on the online path
//! too — violations are typed [`StreamError`]s, never silent corruption.
//!
//! When the same gate sequence is pushed up front and drained with no
//! faults and no step budget, the streaming schedule is *identical* to
//! the batch engine run with the same policy, placement, and base
//! occupancy, since it is the same loop over the same frontier — the
//! equality the conformance oracle's streaming differential check
//! enforces. With a [`StreamingOptions::step_budget`],
//! overrunning steps deterministically shrink the next layer to its
//! most critical half, trading schedule quality for bounded per-step
//! routing work (see `docs/STREAMING.md` for the budget semantics).

use crate::autobraid::ScheduleOutcome;
use crate::config::ScheduleConfig;
use crate::pipeline::{CompileReport, StageTimings};
use crate::scheduler::{
    route_policy, Engine, LayoutMove, RoutePolicy, Routing, ScheduleError, StackPolicy,
};
use crate::strategy::Strategy;
use autobraid_circuit::{Circuit, CircuitStats, Frontier, Gate, GateId};
use autobraid_lattice::{Grid, Occupancy, Vertex};
use autobraid_placement::Placement;
use autobraid_telemetry as telemetry;
use std::borrow::Cow;
use std::time::{Duration, Instant};

/// How a [`StreamingPipeline`] is opened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamingOptions {
    /// Routing strategy driving the online steps (default
    /// [`Strategy::Full`]; note the layout optimizer never runs online,
    /// so `Full` and `Stack` route identically in a stream).
    pub strategy: Strategy,
    /// Per-step wall-clock routing budget. `None` (the default) means
    /// unbounded: every ready gate is offered to the router each step.
    /// With a budget, a step that overruns it makes the *next* braiding
    /// layer route only its most critical half (deterministic given the
    /// same overrun pattern; see `docs/STREAMING.md`).
    pub step_budget: Option<Duration>,
    /// Label used as the circuit/benchmark name in reports (default
    /// `"stream"`).
    pub label: String,
    /// Defective channel vertices present from the start, as
    /// `(row, col)` vertex coordinates; off-grid entries are ignored,
    /// matching the conformance repro semantics.
    pub defects: Vec<(u32, u32)>,
}

impl Default for StreamingOptions {
    fn default() -> Self {
        StreamingOptions {
            strategy: Strategy::default(),
            step_budget: None,
            label: "stream".to_string(),
            defects: Vec::new(),
        }
    }
}

impl StreamingOptions {
    /// Sets the routing strategy.
    pub fn with_strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Sets the per-step wall-clock routing budget.
    pub fn with_step_budget(mut self, budget: Duration) -> Self {
        self.step_budget = Some(budget);
        self
    }

    /// Sets the report label.
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// Sets the initial defective channel overlay.
    pub fn with_defects(mut self, defects: Vec<(u32, u32)>) -> Self {
        self.defects = defects;
        self
    }
}

/// A dynamic event injected into a running stream.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEvent {
    /// The channel vertex at `(row, col)` fails permanently: no braid
    /// may cross it from now on. Already-committed steps are unaffected
    /// (their braids have completed).
    TileFailure {
        /// Vertex row.
        row: u32,
        /// Vertex column.
        col: u32,
    },
    /// The magic-state supply stalls for `steps` braiding-step slots:
    /// the engine idles (charging braid-step cycles) until the supply
    /// recovers. Models a distillation-factory hiccup for the
    /// [`crate::magic`] rewrite's factory-CX traffic.
    MagicStall {
        /// Number of braiding-step slots the supply is dry for.
        steps: u64,
    },
}

impl FaultEvent {
    /// Stable taxonomy name (`docs/STREAMING.md`).
    pub fn kind(&self) -> &'static str {
        match self {
            FaultEvent::TileFailure { .. } => "tile-failure",
            FaultEvent::MagicStall { .. } => "magic-stall",
        }
    }
}

/// Errors the streaming path can report. Every failure mode is typed —
/// a stream never panics on bad input, a dead tile, or a corrupted
/// routing pass.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamError {
    /// A ready two-qubit gate can never be routed: the defective
    /// channel vertices (initial overlay plus injected tile failures)
    /// disconnect its operand tiles even on an otherwise empty grid.
    Unroutable {
        /// The stuck gate's id.
        gate: GateId,
    },
    /// A pushed gate addresses a qubit outside the capacity the stream
    /// was opened with.
    QubitOutOfRange {
        /// The offending qubit.
        qubit: u32,
        /// The stream's fixed qubit capacity.
        capacity: u32,
    },
    /// An injected fault was rejected (e.g. a tile failure off the
    /// grid).
    InvalidFault {
        /// What was wrong.
        detail: String,
    },
    /// The router probe ([`autobraid_router::probe::check_route_outcome`])
    /// rejected a committed layer — accounting, path validity,
    /// disjointness, or defect avoidance was violated.
    RouteInvariant {
        /// Zero-based step index of the offending layer.
        step: u64,
        /// The probe's first violation.
        detail: String,
    },
    /// [`Placement::validate`] failed after a step commit.
    PlacementInvariant {
        /// Zero-based step index of the offending commit.
        step: u64,
        /// The validator's message.
        detail: String,
    },
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::Unroutable { gate } => write!(
                f,
                "gate {gate} is permanently unroutable under the defective channel map"
            ),
            StreamError::QubitOutOfRange { qubit, capacity } => write!(
                f,
                "gate addresses qubit {qubit} but the stream was opened for {capacity} qubits"
            ),
            StreamError::InvalidFault { detail } => write!(f, "invalid fault: {detail}"),
            StreamError::RouteInvariant { step, detail } => {
                write!(f, "route invariant violated at step {step}: {detail}")
            }
            StreamError::PlacementInvariant { step, detail } => {
                write!(f, "placement invariant violated at step {step}: {detail}")
            }
        }
    }
}

impl std::error::Error for StreamError {}

/// What one [`StreamingPipeline::step`] call did.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// Nothing is ready: every pushed gate has completed.
    Idle,
    /// A local-only step: this many single-qubit gates executed.
    Local {
        /// Gates executed.
        gates: usize,
    },
    /// A braiding step committed.
    Braid {
        /// Two-qubit gates routed this step.
        routed: usize,
        /// Two-qubit gates deferred to a later step (congestion or
        /// budget trimming).
        deferred: usize,
    },
    /// The magic-state supply is stalled; the engine idled one
    /// braiding-step slot.
    Stalled {
        /// Stall slots remaining after this one.
        remaining: u64,
    },
}

/// The streaming compiler: see the [module docs](crate::streaming).
///
/// # Examples
///
/// ```
/// use autobraid::streaming::{StreamingOptions, StreamingPipeline};
/// use autobraid_circuit::gate::{Gate, TwoKind};
///
/// let mut stream = StreamingPipeline::open(4, StreamingOptions::default());
/// stream.push_gate(Gate::two(TwoKind::Cx, 0, 1))?;
/// stream.push_gate(Gate::two(TwoKind::Cx, 2, 3))?;
/// let report = stream.finish()?;
/// assert_eq!(report.circuit.len(), 2);
/// # Ok::<(), autobraid::streaming::StreamError>(())
/// ```
pub struct StreamingPipeline {
    options: StreamingOptions,
    policy: Box<dyn RoutePolicy>,
    /// The batch engine, fed gate by gate. Its base occupancy holds the
    /// initial defect overlay plus injected tile failures; its placement
    /// never changes, since streams never run the layout optimizer.
    engine: Engine<'static>,
    /// Remaining magic-stall slots.
    stall_steps: u64,
    /// Fault kinds injected but not yet acknowledged by a committed step.
    pending_recovery: Vec<&'static str>,
    /// Gates deferred by an earlier routing pass (for reroute counting).
    deferred_before: Vec<bool>,
    /// Whether the last braid step overran the budget (trims the next).
    over_budget: bool,
}

impl std::fmt::Debug for StreamingPipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamingPipeline")
            .field("strategy", &self.options.strategy)
            .field("pushed", &self.pushed())
            .field("outstanding", &self.outstanding())
            .field("steps", &self.steps_taken())
            .finish_non_exhaustive()
    }
}

impl StreamingPipeline {
    /// Opens a stream for up to `num_qubits` qubits with the default
    /// [`ScheduleConfig`].
    pub fn open(num_qubits: u32, options: StreamingOptions) -> Self {
        Self::open_with_config(num_qubits, options, ScheduleConfig::default())
    }

    /// Opens a stream with an explicit engine configuration (timing
    /// model and recording mode).
    pub fn open_with_config(
        num_qubits: u32,
        options: StreamingOptions,
        config: ScheduleConfig,
    ) -> Self {
        let grid = Grid::with_capacity_for(num_qubits.max(2) as usize);
        let placement = Placement::row_major(&grid, num_qubits);
        // Every registry strategy streams: strategies without an online
        // policy (the Maslov swap network needs its layout move) degrade
        // to the stack finder.
        let policy = route_policy(options.strategy).unwrap_or_else(|| Box::new(StackPolicy));
        let mut base = Occupancy::new(&grid);
        for &(row, col) in &options.defects {
            let v = Vertex::new(row, col);
            if grid.contains_vertex(v) {
                base.reserve(&grid, v);
            }
        }
        if telemetry::decisions_enabled() {
            telemetry::decision(&telemetry::Decision::EngineBegin {
                scheduler: format!("{}+stream", options.strategy.name()),
                circuit: options.label.clone(),
                grid_side: grid.cells_per_side(),
            });
        }
        let engine = Engine::new(
            options.strategy.name(),
            Cow::Owned(Circuit::named(num_qubits, options.label.clone())),
            Frontier::appendable(num_qubits),
            &grid,
            placement,
            LayoutMove::None,
            &config,
            Cow::Owned(base),
        );
        StreamingPipeline {
            options,
            policy,
            engine,
            stall_steps: 0,
            pending_recovery: Vec::new(),
            deferred_before: Vec::new(),
            over_budget: false,
        }
    }

    /// The lattice the stream schedules on.
    pub fn grid(&self) -> &Grid {
        &self.engine.grid
    }

    /// The (fixed) placement of logical qubits.
    pub fn placement(&self) -> &Placement {
        &self.engine.placement
    }

    /// The fixed qubit capacity the stream was opened with: gates
    /// addressing a qubit at or beyond this are rejected by
    /// [`Self::push_gate`].
    pub fn capacity(&self) -> u32 {
        self.engine.circuit.num_qubits()
    }

    /// Gates pushed so far.
    pub fn pushed(&self) -> usize {
        self.engine.circuit.len()
    }

    /// Gates pushed but not yet executed.
    pub fn outstanding(&self) -> usize {
        self.engine.outstanding()
    }

    /// Whether every pushed gate has executed.
    pub fn is_drained(&self) -> bool {
        self.outstanding() == 0 && self.stall_steps == 0
    }

    /// Engine steps taken so far (local + braid; stall slots excluded).
    pub fn steps_taken(&self) -> u64 {
        self.engine.steps_taken()
    }

    /// Appends one gate to the stream.
    ///
    /// # Errors
    ///
    /// [`StreamError::QubitOutOfRange`] when the gate addresses a qubit
    /// at or beyond the capacity the stream was opened with.
    pub fn push_gate(&mut self, gate: Gate) -> Result<GateId, StreamError> {
        let max = gate.max_qubit();
        if max >= self.capacity() {
            return Err(StreamError::QubitOutOfRange {
                qubit: max,
                capacity: self.capacity(),
            });
        }
        let id = self.engine.push(gate);
        self.deferred_before.push(false);
        telemetry::fine_counter("streaming.gates.pushed", 1);
        Ok(id)
    }

    /// Injects a dynamic event; see [`FaultEvent`]. Surfaced as a
    /// `fault.injected` trace decision and `streaming.faults.injected`
    /// counter; the first step committed afterwards emits
    /// `fault.recovered`. A fault injected into an already-drained
    /// stream is trivially survived and acknowledged by the next idle
    /// [`Self::step`] or by [`Self::drain`]/[`Self::finish`], so the
    /// injected/recovered events always balance.
    ///
    /// # Errors
    ///
    /// [`StreamError::InvalidFault`] for a tile failure off the grid or
    /// a zero-length stall.
    pub fn inject(&mut self, fault: FaultEvent) -> Result<(), StreamError> {
        let detail = match fault {
            FaultEvent::TileFailure { row, col } => {
                let v = Vertex::new(row, col);
                let grid = &self.engine.grid;
                if !grid.contains_vertex(v) {
                    return Err(StreamError::InvalidFault {
                        detail: format!(
                            "vertex ({row}, {col}) is outside the {0}x{0} grid",
                            grid.cells_per_side()
                        ),
                    });
                }
                self.engine.base.to_mut().reserve(grid, v);
                format!("vertex ({row}, {col}) failed")
            }
            FaultEvent::MagicStall { steps } => {
                if steps == 0 {
                    return Err(StreamError::InvalidFault {
                        detail: "magic-state stall of zero steps".to_string(),
                    });
                }
                self.stall_steps += steps;
                format!("magic-state supply dry for {steps} step(s)")
            }
        };
        telemetry::counter("streaming.faults.injected", 1);
        if telemetry::decisions_enabled() {
            telemetry::decision(&telemetry::Decision::FaultInjected {
                kind: fault.kind().to_string(),
                detail,
                step: self.steps_taken(),
            });
        }
        self.pending_recovery.push(fault.kind());
        Ok(())
    }

    /// Runs one engine step; see [`StepOutcome`] for what can happen.
    ///
    /// # Errors
    ///
    /// [`StreamError::Unroutable`] when a ready gate can never route
    /// under the accumulated defect map, and the invariant variants
    /// when the probe or placement validator rejects a commit.
    pub fn step(&mut self) -> Result<StepOutcome, StreamError> {
        if self.stall_steps > 0 {
            self.stall_steps -= 1;
            let result = &mut self.engine.result;
            result.total_cycles += result.timing().braid_step_cycles();
            telemetry::counter("streaming.stall.steps", 1);
            return Ok(StepOutcome::Stalled {
                remaining: self.stall_steps,
            });
        }

        let route_started = Instant::now();
        let routing = self.engine.route(self.policy.as_ref(), self.over_budget);
        if matches!(routing, Ok(Routing::Braid(_)) | Err(_)) {
            let wall = route_started.elapsed();
            if let Some(budget) = self.options.step_budget {
                self.over_budget = wall > budget;
                if self.over_budget {
                    telemetry::fine_counter("streaming.budget.overruns", 1);
                }
            }
            telemetry::fine_observe("streaming.step.route_us", wall.as_secs_f64() * 1e6);
        }
        let layer = match routing {
            Ok(Routing::Braid(layer)) => layer,
            Ok(Routing::Local(gates)) => {
                self.acknowledge_recovery();
                return Ok(StepOutcome::Local { gates });
            }
            // A drained frontier trivially survives any pending fault;
            // acknowledge here so every `fault.injected` gets its
            // `fault.recovered` even when no further step ever commits.
            Ok(Routing::Drained) => {
                self.acknowledge_recovery();
                return Ok(StepOutcome::Idle);
            }
            Ok(Routing::Swapped) => unreachable!("streams never run the layout optimizer"),
            Err(ScheduleError::UnroutableGate { gate }) => {
                return Err(StreamError::Unroutable { gate })
            }
        };

        // Every streamed layer is re-checked before it commits: the probe
        // re-derives accounting, path validity, disjointness, and defect
        // avoidance from nothing but the batch and the outcome; the
        // placement validator guards the qubit→cell map.
        let step = self.steps_taken() - 1;
        let engine = &self.engine;
        if let Err(detail) = autobraid_router::probe::check_route_outcome(
            &engine.grid,
            &layer.requests,
            &engine.base,
            &layer.outcome,
        ) {
            return Err(StreamError::RouteInvariant { step, detail });
        }
        if let Err(detail) = engine.placement.validate(&engine.grid) {
            return Err(StreamError::PlacementInvariant { step, detail });
        }

        let routed = layer.outcome.routed.len();
        let deferred = layer.outcome.failed.len() + layer.trimmed;
        let reroutes = layer
            .outcome
            .routed
            .iter()
            .filter(|r| self.deferred_before[r.request.id])
            .count();
        if reroutes > 0 {
            telemetry::fine_counter("streaming.reroutes", reroutes as u64);
        }
        for &g in &layer.outcome.failed {
            self.deferred_before[g] = true;
        }
        self.engine.commit(layer);
        self.acknowledge_recovery();
        Ok(StepOutcome::Braid { routed, deferred })
    }

    /// Steps until every pushed gate has executed.
    ///
    /// # Errors
    ///
    /// Propagates the first [`StreamError`] a step reports.
    pub fn drain(&mut self) -> Result<(), StreamError> {
        while !self.is_drained() {
            self.step()?;
        }
        // A fault injected after the stream drained never sees a
        // committed step; balance its `fault.recovered` event here
        // (finish() routes through this too).
        self.acknowledge_recovery();
        Ok(())
    }

    /// Drains the stream and closes it, producing the same
    /// [`CompileReport`] shape a batch [`crate::pipeline::Pipeline`]
    /// compile yields — including the byte-stable
    /// [`CompileReport::canonical_json`] used for replay comparison.
    ///
    /// # Errors
    ///
    /// Propagates the first [`StreamError`] hit while draining.
    pub fn finish(mut self) -> Result<CompileReport, StreamError> {
        self.drain()?;
        self.engine.finish();
        let Engine {
            circuit,
            grid,
            placement,
            result,
            ..
        } = self.engine;
        let circuit = circuit.into_owned();
        Ok(CompileReport {
            stats: CircuitStats::of(&circuit),
            gates_removed: 0,
            timings: StageTimings {
                schedule_seconds: result.compile_seconds,
                ..StageTimings::default()
            },
            outcome: ScheduleOutcome {
                result,
                grid,
                initial_placement: placement,
            },
            telemetry: None,
            trace: None,
            circuit,
        })
    }

    /// Emits `fault.recovered` for every fault the stream has survived:
    /// called after each committed step, and on idle steps and drains
    /// so faults injected into an already-drained stream still balance.
    fn acknowledge_recovery(&mut self) {
        if self.pending_recovery.is_empty() {
            return;
        }
        for kind in std::mem::take(&mut self.pending_recovery) {
            telemetry::counter("streaming.faults.recovered", 1);
            if telemetry::decisions_enabled() {
                telemetry::decision(&telemetry::Decision::FaultRecovered {
                    kind: kind.to_string(),
                    // Saturating: a fault can be acknowledged before any
                    // step was ever taken (injection into an empty or
                    // fully drained stream).
                    step: self.steps_taken().saturating_sub(1),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{verify_schedule, ScheduleResult};
    use crate::report::schedule_result_json;
    use crate::scheduler::run_with_base_occupancy;
    use autobraid_circuit::generators::{ising::ising, qft::qft};
    use autobraid_telemetry::trace::{TraceEventKind, TraceRecorder};
    use std::sync::Arc;

    /// Streams every gate of `circuit` up front and drains.
    fn stream_all(circuit: &Circuit, options: StreamingOptions) -> CompileReport {
        let mut stream = StreamingPipeline::open(circuit.num_qubits(), options);
        for (_, gate) in circuit.iter() {
            stream.push_gate(*gate).unwrap();
        }
        stream.finish().unwrap()
    }

    fn canonical_schedule(result: &ScheduleResult) -> String {
        let mut r = result.clone();
        r.compile_seconds = 0.0;
        schedule_result_json(&r).render_compact()
    }

    #[test]
    fn fully_pushed_stream_matches_batch_engine_exactly() {
        for strategy in Strategy::ALL {
            let circuit = qft(8).unwrap();
            let report = stream_all(
                &circuit,
                StreamingOptions::default()
                    .with_strategy(strategy)
                    .with_label(circuit.name()),
            );
            let grid = Grid::with_capacity_for(circuit.num_qubits() as usize);
            let placement = Placement::row_major(&grid, circuit.num_qubits());
            let policy = route_policy(strategy).unwrap_or_else(|| Box::new(StackPolicy));
            let (batch, _) = run_with_base_occupancy(
                strategy.name(),
                &circuit,
                &grid,
                placement,
                policy.as_ref(),
                false,
                &ScheduleConfig::default(),
                &Occupancy::new(&grid),
            )
            .unwrap();
            assert_eq!(
                canonical_schedule(&report.outcome.result),
                canonical_schedule(&batch),
                "streaming diverged from the batch engine under {}",
                strategy.name()
            );
        }
    }

    #[test]
    fn incremental_pushes_interleaved_with_steps_still_verify() {
        let circuit = qft(6).unwrap();
        let mut stream = StreamingPipeline::open(6, StreamingOptions::default());
        for (i, (_, gate)) in circuit.iter().enumerate() {
            stream.push_gate(*gate).unwrap();
            if i % 3 == 0 {
                // Interleave: the frontier drains while gates arrive.
                let _ = stream.step().unwrap();
            }
        }
        let report = stream.finish().unwrap();
        assert_eq!(report.circuit.len(), circuit.len());
        verify_schedule(
            &report.circuit,
            &report.outcome.grid,
            &report.outcome.initial_placement,
            &report.outcome.result,
        )
        .unwrap();
    }

    #[test]
    fn tile_failure_mid_run_recovers_with_trace_events() {
        let rec = Arc::new(TraceRecorder::new());
        let report = {
            let _guard = telemetry::install(rec.clone());
            let circuit = ising(9, 2).unwrap();
            let mut stream = StreamingPipeline::open(9, StreamingOptions::default());
            for (_, gate) in circuit.iter() {
                stream.push_gate(*gate).unwrap();
            }
            let _ = stream.step().unwrap();
            stream
                .inject(FaultEvent::TileFailure { row: 1, col: 1 })
                .unwrap();
            stream.finish().unwrap()
        };
        verify_schedule(
            &report.circuit,
            &report.outcome.grid,
            &report.outcome.initial_placement,
            &report.outcome.result,
        )
        .unwrap();
        let trace = rec.snapshot();
        let names: Vec<&str> = trace
            .events
            .iter()
            .filter_map(|e| match &e.kind {
                TraceEventKind::Decision(d) => Some(d.name()),
                _ => None,
            })
            .collect();
        assert!(names.contains(&"fault.injected"), "{names:?}");
        assert!(names.contains(&"fault.recovered"), "{names:?}");
    }

    /// Counts `fault.injected` / `fault.recovered` decisions in `rec`.
    fn fault_event_counts(rec: &TraceRecorder) -> (usize, usize) {
        let trace = rec.snapshot();
        let names: Vec<&str> = trace
            .events
            .iter()
            .filter_map(|e| match &e.kind {
                TraceEventKind::Decision(d) => Some(d.name()),
                _ => None,
            })
            .collect();
        (
            names.iter().filter(|&&n| n == "fault.injected").count(),
            names.iter().filter(|&&n| n == "fault.recovered").count(),
        )
    }

    #[test]
    fn fault_injected_after_drain_is_acknowledged_by_the_next_idle_step() {
        let rec = Arc::new(TraceRecorder::new());
        {
            let _guard = telemetry::install(rec.clone());
            let mut stream = StreamingPipeline::open(4, StreamingOptions::default());
            stream
                .push_gate(Gate::two(autobraid_circuit::gate::TwoKind::Cx, 0, 1))
                .unwrap();
            stream.drain().unwrap();
            assert!(stream.is_drained());
            stream
                .inject(FaultEvent::TileFailure { row: 1, col: 1 })
                .unwrap();
            // The frontier is empty, so the fault is trivially survived:
            // the very next (idle) step must acknowledge it.
            assert_eq!(stream.step().unwrap(), StepOutcome::Idle);
        }
        assert_eq!(fault_event_counts(&rec), (1, 1));
    }

    #[test]
    fn fault_injected_into_an_empty_stream_is_acknowledged_by_finish() {
        let rec = Arc::new(TraceRecorder::new());
        {
            let _guard = telemetry::install(rec.clone());
            let mut stream = StreamingPipeline::open(3, StreamingOptions::default());
            // Zero gates, zero steps taken: recovery must still balance
            // (and must not underflow the step index).
            stream
                .inject(FaultEvent::TileFailure { row: 0, col: 0 })
                .unwrap();
            stream.inject(FaultEvent::MagicStall { steps: 1 }).unwrap();
            stream.finish().unwrap();
        }
        assert_eq!(fault_event_counts(&rec), (2, 2));
    }

    #[test]
    fn magic_stall_idles_the_engine_but_completes() {
        let circuit = qft(5).unwrap();
        let baseline = stream_all(
            &circuit,
            StreamingOptions::default().with_label(circuit.name()),
        );
        let mut stream = StreamingPipeline::open(5, StreamingOptions::default());
        for (_, gate) in circuit.iter() {
            stream.push_gate(*gate).unwrap();
        }
        stream.inject(FaultEvent::MagicStall { steps: 4 }).unwrap();
        assert!(matches!(
            stream.step().unwrap(),
            StepOutcome::Stalled { remaining: 3 }
        ));
        let report = stream.finish().unwrap();
        let stall_cycles = 4 * report.outcome.result.timing().braid_step_cycles();
        assert_eq!(
            report.outcome.result.total_cycles,
            baseline.outcome.result.total_cycles + stall_cycles
        );
    }

    #[test]
    fn walled_in_qubit_is_a_typed_error_not_a_panic() {
        let mut stream = StreamingPipeline::open(
            4,
            StreamingOptions::default().with_defects(vec![(0, 0), (0, 1), (1, 0), (1, 1)]),
        );
        stream
            .push_gate(Gate::two(autobraid_circuit::gate::TwoKind::Cx, 0, 3))
            .unwrap();
        match stream.drain() {
            Err(StreamError::Unroutable { gate }) => assert_eq!(gate, 0),
            other => panic!("expected Unroutable, got {other:?}"),
        }
    }

    #[test]
    fn out_of_range_gate_is_rejected() {
        let mut stream = StreamingPipeline::open(2, StreamingOptions::default());
        let err = stream
            .push_gate(Gate::two(autobraid_circuit::gate::TwoKind::Cx, 0, 5))
            .unwrap_err();
        assert_eq!(
            err,
            StreamError::QubitOutOfRange {
                qubit: 5,
                capacity: 2
            }
        );
        assert_eq!(stream.pushed(), 0);
    }

    #[test]
    fn off_grid_fault_is_rejected() {
        let mut stream = StreamingPipeline::open(4, StreamingOptions::default());
        assert!(matches!(
            stream.inject(FaultEvent::TileFailure { row: 99, col: 0 }),
            Err(StreamError::InvalidFault { .. })
        ));
        assert!(matches!(
            stream.inject(FaultEvent::MagicStall { steps: 0 }),
            Err(StreamError::InvalidFault { .. })
        ));
    }

    #[test]
    fn zero_budget_trims_layers_but_schedule_still_verifies() {
        let circuit = qft(7).unwrap();
        let report = stream_all(
            &circuit,
            StreamingOptions::default()
                .with_step_budget(Duration::ZERO)
                .with_label(circuit.name()),
        );
        assert_eq!(report.circuit.len(), circuit.len());
        verify_schedule(
            &report.circuit,
            &report.outcome.grid,
            &report.outcome.initial_placement,
            &report.outcome.result,
        )
        .unwrap();
    }

    #[test]
    fn zero_budget_with_interleaved_pushes_still_verifies() {
        let circuit = qft(7).unwrap();
        let mut stream = StreamingPipeline::open(
            7,
            StreamingOptions::default().with_step_budget(Duration::ZERO),
        );
        for (i, (_, gate)) in circuit.iter().enumerate() {
            stream.push_gate(*gate).unwrap();
            if i % 4 == 0 {
                // Every routed layer overruns a zero budget, so the
                // trimmed halves meet freshly pushed gates.
                let _ = stream.step().unwrap();
            }
        }
        let report = stream.finish().unwrap();
        assert_eq!(report.circuit.len(), circuit.len());
        verify_schedule(
            &report.circuit,
            &report.outcome.grid,
            &report.outcome.initial_placement,
            &report.outcome.result,
        )
        .unwrap();
    }

    #[test]
    fn empty_stream_finishes_cleanly() {
        let stream = StreamingPipeline::open(3, StreamingOptions::default());
        let report = stream.finish().unwrap();
        assert_eq!(report.outcome.result.total_cycles, 0);
        assert!(report.circuit.is_empty());
    }

    #[test]
    fn session_replayed_twice_is_byte_identical() {
        let circuit = ising(8, 1).unwrap();
        let opts = StreamingOptions::default().with_label("replay");
        let a = stream_all(&circuit, opts.clone());
        let b = stream_all(&circuit, opts);
        assert_eq!(a.canonical_json(), b.canonical_json());
    }
}
