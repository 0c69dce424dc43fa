//! The differential oracle: compiles one case under every
//! strategy/optimize combination and cross-checks every promise the
//! compiler makes.
//!
//! What counts as a divergence:
//!
//! * a compile that panics, or whose built-in verifier
//!   (`verify_schedule_with_dag`) rejects its own schedule;
//! * a broken invariant: `total_cycles` below the critical path,
//!   `Full` scheduling worse than `Stack`, or optimizer gate
//!   accounting that does not add up;
//! * a schedule whose execution order, replayed over the optimized (or
//!   original) circuit, does not compute what the original does
//!   (state-vector simulation, small cases only);
//! * a per-qubit clock schedule (`run` on `Clock::PerQubit` from the
//!   annealed placement) that the same verifier rejects, that beats the
//!   critical path, or that does not lower to exactly its cycles;
//! * on defective lattices: a panic, an invalid schedule, braids through
//!   defects, or an inconsistent final placement;
//! * at the router layer: a [`check_route_outcome`] violation;
//! * on the streaming path: a fully pushed
//!   [`StreamingPipeline`] that does not reproduce the batch engine's
//!   schedule byte-for-byte (per strategy), or a
//!   mid-frontier fault injection (tile death, magic-state stall) that
//!   panics, drops a gate, or reports anything other than a valid
//!   schedule that lowers to exactly its cycles / a typed `Unroutable`
//!   error.

use crate::case::ConformanceCase;
use autobraid::emit::{emit_physical, PhysicalProgram};
use autobraid::pipeline::{CompileOptions, CompileReport, Pipeline, Strategy};
use autobraid::streaming::{FaultEvent, StreamError, StreamingOptions, StreamingPipeline};
use autobraid::{
    critical_path_cycles, route_policy, run, verify_schedule_with_dag, AutoBraid, Clock, EngineRun,
    RoutePolicy, ScheduleConfig, ScheduleError, ScheduleResult, StackPolicy,
};
use autobraid_circuit::sim::circuits_equivalent;
use autobraid_circuit::{Circuit, DependenceDag};
use autobraid_lattice::physical::PhysicalLayout;
use autobraid_lattice::{Grid, Occupancy};
use autobraid_placement::Placement;
use autobraid_router::path::CxRequest;
use autobraid_router::probe::check_route_outcome;
use autobraid_router::stack_finder::route_concurrent;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Oracle tuning knobs.
#[derive(Debug, Clone)]
pub struct OracleConfig {
    /// Skip state-vector equivalence above this qubit count (dense
    /// simulation is exponential).
    pub sim_qubit_limit: u32,
    /// Amplitude tolerance for the equivalence check.
    pub tolerance: f64,
}

impl Default for OracleConfig {
    fn default() -> Self {
        OracleConfig {
            sim_qubit_limit: 10,
            tolerance: 1e-6,
        }
    }
}

/// One observed disagreement between a promise and an execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// The case's label ([`ConformanceCase::label`]).
    pub case: String,
    /// The configuration under which it was observed, e.g.
    /// `"strategy=autobraid-full optimize=true"`.
    pub setting: String,
    /// What went wrong.
    pub detail: String,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} | {}] {}", self.case, self.setting, self.detail)
    }
}

/// Runs every check on one case. An empty vector means the case
/// conforms.
pub fn check_case(case: &ConformanceCase, cfg: &OracleConfig) -> Vec<Divergence> {
    let mut divergences = Vec::new();
    check_pipeline_matrix(case, cfg, &mut divergences);
    check_per_qubit_clock(case, cfg, &mut divergences);
    check_routing_invariants(case, &mut divergences);
    if !case.defects.is_empty() {
        check_defective_lattice(case, &mut divergences);
    }
    check_streaming_differential(case, &mut divergences);
    check_streaming_fault_injection(case, &mut divergences);
    divergences
}

/// Convenience: the first divergence, if any — the shape shrink
/// predicates want.
pub fn first_divergence(case: &ConformanceCase, cfg: &OracleConfig) -> Option<Divergence> {
    check_case(case, cfg).into_iter().next()
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The full strategy × optimize compile sweep.
fn check_pipeline_matrix(case: &ConformanceCase, cfg: &OracleConfig, out: &mut Vec<Divergence>) {
    for strategy in Strategy::ALL {
        for optimize in [false, true] {
            let setting = format!("strategy={} optimize={optimize}", strategy.name());
            let diverge = |detail: String| Divergence {
                case: case.label(),
                setting: setting.clone(),
                detail,
            };
            let pipeline = Pipeline::new().with_options(CompileOptions {
                strategy,
                optimize,
                verify: true,
                telemetry: false,
                trace: false,
            });
            let compiled = catch_unwind(AssertUnwindSafe(|| pipeline.compile(&case.circuit)));
            let report = match compiled {
                Err(payload) => {
                    out.push(diverge(format!("panicked: {}", panic_message(payload))));
                    continue;
                }
                Ok(Err(e)) => {
                    out.push(diverge(format!("pipeline rejected its own output: {e}")));
                    continue;
                }
                Ok(Ok(report)) => report,
            };

            check_report_invariants(case, &report, &diverge, out);
            check_replay(
                case,
                &report.circuit,
                &report.outcome.result,
                cfg,
                &diverge,
                out,
            );
        }
    }

    // autobraid-full takes the best of a candidate set that includes the
    // plain stack run, so Full can never lose to Stack under identical
    // options.
    for optimize in [false, true] {
        let compile = |strategy| {
            let pipeline = Pipeline::new().with_options(CompileOptions {
                strategy,
                optimize,
                verify: false,
                telemetry: false,
                trace: false,
            });
            catch_unwind(AssertUnwindSafe(|| pipeline.compile(&case.circuit)))
        };
        if let (Ok(Ok(full)), Ok(Ok(sp))) = (compile(Strategy::Full), compile(Strategy::Stack)) {
            let (full, sp) = (
                full.outcome.result.total_cycles,
                sp.outcome.result.total_cycles,
            );
            if full > sp {
                out.push(Divergence {
                    case: case.label(),
                    setting: format!("optimize={optimize}"),
                    detail: format!(
                        "Full scheduled {full} cycles, worse than Stack's {sp} — \
                         the candidate-minimum contract is broken"
                    ),
                });
            }
        }
    }
}

/// On small cases, replays `scheduled`'s gates (the optimizer's output,
/// or the case's own circuit) in `result`'s execution order and demands
/// the case circuit's state: this catches an optimizer that changes
/// semantics and a schedule that reorders dependent gates alike.
fn check_replay(
    case: &ConformanceCase,
    scheduled: &Circuit,
    result: &ScheduleResult,
    cfg: &OracleConfig,
    diverge: &impl Fn(String) -> Divergence,
    out: &mut Vec<Divergence>,
) {
    if case.circuit.num_qubits() > cfg.sim_qubit_limit {
        return;
    }
    let gates = result.execution_order().into_iter();
    let replay = Circuit::from_gates(
        scheduled.num_qubits(),
        gates.map(|g| *scheduled.gate(g)).collect(),
    );
    if !replay.is_ok_and(|replay| circuits_equivalent(&case.circuit, &replay, cfg.tolerance)) {
        out.push(diverge(
            "the schedule's execution order changed circuit semantics (state vectors differ)"
                .into(),
        ));
    }
}

/// The per-qubit clock on the case's annealed placement: the one
/// verifier accepts its schedule, which is no faster than the critical
/// path, lowers to exactly its cycles, and (on small cases) replays to
/// the circuit's state.
fn check_per_qubit_clock(case: &ConformanceCase, cfg: &OracleConfig, out: &mut Vec<Divergence>) {
    let diverge = |detail: String| Divergence {
        case: case.label(),
        setting: "per-qubit clock".to_string(),
        detail,
    };
    let config = ScheduleConfig::default();
    let grid = case.grid();
    let drive = catch_unwind(AssertUnwindSafe(|| {
        let placement = AutoBraid::new(config.clone()).initial_placement(&case.circuit, &grid);
        let drive = EngineRun::new(
            "autobraid-async",
            &case.circuit,
            &grid,
            placement.clone(),
            &StackPolicy,
            &config,
        );
        let done = run(drive.clock(Clock::PerQubit)).ok().flatten();
        let (result, _) = done.expect("an unbounded drive on a defect-free lattice finishes");
        (result, placement)
    }));
    let (result, placement) = match drive {
        Err(payload) => {
            out.push(diverge(format!("panicked: {}", panic_message(payload))));
            return;
        }
        Ok(done) => done,
    };
    let result = &result;
    let dag = DependenceDag::new(&case.circuit);
    if let Err(e) = verify_schedule_with_dag(&case.circuit, &dag, &grid, &placement, result) {
        out.push(diverge(format!("invalid schedule: {e}")));
        return;
    }
    let cp = critical_path_cycles(&case.circuit, result.timing());
    if result.total_cycles < cp {
        out.push(diverge(format!(
            "{} cycles beat the {cp}-cycle critical-path lower bound",
            result.total_cycles
        )));
    }
    if let Err(e) = lower(result, &grid) {
        out.push(diverge(format!("emission failed: {e}")));
    }
    check_replay(case, &case.circuit, result, cfg, &diverge, out);
}

/// Lowers `result` on `grid` at its own code distance. `emit_physical`
/// refuses a schedule whose program would not last exactly its
/// `total_cycles`.
fn lower(result: &ScheduleResult, grid: &Grid) -> Result<PhysicalProgram, String> {
    let distance = result.timing().params().distance();
    PhysicalLayout::new(grid.cells_per_side(), distance)
        .map_err(|e| e.to_string())
        .and_then(|layout| emit_physical(result, &layout))
}

/// Invariants any successful report must satisfy.
fn check_report_invariants(
    case: &ConformanceCase,
    report: &CompileReport,
    diverge: &impl Fn(String) -> Divergence,
    out: &mut Vec<Divergence>,
) {
    if report.circuit.len() + report.gates_removed != case.circuit.len() {
        out.push(diverge(format!(
            "gate accounting broken: {} scheduled + {} removed != {} original",
            report.circuit.len(),
            report.gates_removed,
            case.circuit.len()
        )));
    }
    let result = &report.outcome.result;
    let cp = critical_path_cycles(&report.circuit, result.timing());
    if result.total_cycles < cp {
        out.push(diverge(format!(
            "{} cycles beat the {cp}-cycle critical-path lower bound",
            result.total_cycles
        )));
    }
    if let Err(e) = report
        .outcome
        .initial_placement
        .validate(&report.outcome.grid)
    {
        out.push(diverge(format!("inconsistent initial placement: {e}")));
    }
}

/// Builds the first concurrent CX batch of the circuit under a row-major
/// placement: the maximal dependence-free prefix of two-qubit gates.
fn first_cx_batch(case: &ConformanceCase, placement: &Placement) -> Vec<CxRequest> {
    let mut busy = vec![false; case.circuit.num_qubits() as usize];
    let mut requests = Vec::new();
    for (id, gate) in case.circuit.gates().iter().enumerate() {
        let free = gate.qubits().iter().all(|&q| !busy[q as usize]);
        if let (Some((a, b)), true) = (gate.pair(), free) {
            requests.push(CxRequest::new(
                id,
                placement.cell_of(a),
                placement.cell_of(b),
            ));
        }
        for q in gate.qubits() {
            busy[q as usize] = true;
        }
    }
    requests
}

/// Routes the case's first CX batch and probes the outcome.
fn check_routing_invariants(case: &ConformanceCase, out: &mut Vec<Divergence>) {
    let grid = case.grid();
    let placement = Placement::row_major(&grid, case.circuit.num_qubits());
    let requests = first_cx_batch(case, &placement);
    if requests.is_empty() {
        return;
    }
    let base = case.base_occupancy();
    let mut occupancy = base.clone();
    let outcome = route_concurrent(&grid, &mut occupancy, &requests);
    if let Err(e) = check_route_outcome(&grid, &requests, &base, &outcome) {
        out.push(Divergence {
            case: case.label(),
            setting: "router".to_string(),
            detail: format!("route probe: {e}"),
        });
    }
}

/// Full-schedule checks on a defective lattice, where the pipeline façade
/// does not reach: defect avoidance and schedule validity. Every
/// registry strategy that declares defect support (and resolves to a
/// standalone policy via [`route_policy`]) is swept.
fn check_defective_lattice(case: &ConformanceCase, out: &mut Vec<Divergence>) {
    for info in autobraid::REGISTRY {
        // `Full` shares `Stack`'s engine policy — the layout-optimizer
        // layer it adds on top is exercised by the pipeline matrix.
        if !info.supports_defects || info.strategy == Strategy::Full {
            continue;
        }
        if let Some(policy) = route_policy(info.strategy) {
            let setting = format!("defective lattice strategy={}", info.name);
            run_case_with_policy(case, policy.as_ref(), &setting, out);
        }
    }
}

/// Replays the case through the streaming pipeline (every gate pushed
/// up front, then drained) and demands the *exact* batch-engine
/// schedule, for every registry strategy. A fully pushed stream sees
/// the same priorities, interference graphs, and base occupancy as the
/// batch engine driving the same policy, so anything short of
/// byte-equality is an online-path bug. `Unroutable`
/// outcomes must agree too — same error, same stuck gate.
fn check_streaming_differential(case: &ConformanceCase, out: &mut Vec<Divergence>) {
    for info in autobraid::REGISTRY {
        let setting = format!("streaming strategy={}", info.name);
        let diverge = |detail: String| Divergence {
            case: case.label(),
            setting: setting.clone(),
            detail,
        };

        let options = StreamingOptions::default()
            .with_strategy(info.strategy)
            .with_label(case.circuit.name())
            .with_defects(case.defects.clone());
        let streamed = catch_unwind(AssertUnwindSafe(|| {
            let mut stream = StreamingPipeline::open(case.circuit.num_qubits().max(1), options);
            for (_, gate) in case.circuit.iter() {
                stream.push_gate(*gate)?;
            }
            stream.finish()
        }));
        let streamed = match streamed {
            Err(payload) => {
                out.push(diverge(format!(
                    "streaming panicked: {}",
                    panic_message(payload)
                )));
                continue;
            }
            Ok(outcome) => outcome,
        };

        // The batch twin: same policy (Maslov degrades to the stack
        // finder online, so its twin is the stack policy), same
        // row-major placement, same defect overlay, no optimizer.
        let grid = case.grid();
        let placement = Placement::row_major(&grid, case.circuit.num_qubits());
        let policy = route_policy(info.strategy).unwrap_or_else(|| Box::new(StackPolicy));
        let (config, base) = (ScheduleConfig::default(), case.base_occupancy());
        let drive = EngineRun::new(
            info.name,
            &case.circuit,
            &grid,
            placement.clone(),
            policy.as_ref(),
            &config,
        );
        let batch = run(drive.base(&base)).map(|done| done.expect("an unbounded drive finishes"));

        match (streamed, batch) {
            (Ok(report), Ok((batch_result, _))) => {
                if report.circuit.len() != case.circuit.len() {
                    out.push(diverge(format!(
                        "stream dropped gates: {} scheduled vs {} pushed",
                        report.circuit.len(),
                        case.circuit.len()
                    )));
                }
                let canon = |r: &ScheduleResult| {
                    let mut r = r.clone();
                    r.compile_seconds = 0.0;
                    autobraid::report::schedule_result_json(&r).render_compact()
                };
                if canon(&report.outcome.result) != canon(&batch_result) {
                    out.push(diverge(format!(
                        "streaming schedule differs from the batch engine: \
                         {} vs {} cycles over {} vs {} braid steps",
                        report.outcome.result.total_cycles,
                        batch_result.total_cycles,
                        report.outcome.result.braid_steps,
                        batch_result.braid_steps
                    )));
                }
                let dag = DependenceDag::new(&case.circuit);
                if let Err(e) = verify_schedule_with_dag(
                    &case.circuit,
                    &dag,
                    &report.outcome.grid,
                    &report.outcome.initial_placement,
                    &report.outcome.result,
                ) {
                    out.push(diverge(format!("invalid streaming schedule: {e}")));
                }
            }
            (
                Err(StreamError::Unroutable { gate }),
                Err(ScheduleError::UnroutableGate { gate: batch_gate }),
            ) => {
                if gate != batch_gate {
                    out.push(diverge(format!(
                        "streaming stuck on gate {gate}, batch on gate {batch_gate}"
                    )));
                }
            }
            (Err(e), Ok(_)) => {
                out.push(diverge(format!(
                    "streaming failed (`{e}`) where the batch engine succeeded"
                )));
            }
            (Ok(_), Err(e)) => {
                out.push(diverge(format!(
                    "streaming succeeded where the batch engine failed (`{e}`)"
                )));
            }
            (Err(stream_err), Err(batch_err)) => {
                out.push(diverge(format!(
                    "mismatched failures: streaming `{stream_err}` vs batch `{batch_err}`"
                )));
            }
        }
    }
}

/// Graceful-degradation check: a tile death mid-frontier plus a
/// magic-state stall must yield either a complete, valid schedule or a
/// typed `Unroutable` error — never a panic, a dropped gate, or an
/// invariant violation.
fn check_streaming_fault_injection(case: &ConformanceCase, out: &mut Vec<Divergence>) {
    if case.circuit.is_empty() {
        return;
    }
    let setting = "streaming fault-injection".to_string();
    let diverge = |detail: String| Divergence {
        case: case.label(),
        setting: setting.clone(),
        detail,
    };
    let grid = case.grid();
    // A deterministic mid-grid vertex: central, so it actually perturbs
    // routes on small lattices.
    let side = grid.cells_per_side();
    let fault = FaultEvent::TileFailure {
        row: side / 2,
        col: side / 2,
    };
    let run = catch_unwind(AssertUnwindSafe(|| {
        let options = StreamingOptions::default()
            .with_label(case.circuit.name())
            .with_defects(case.defects.clone());
        let mut stream = StreamingPipeline::open(case.circuit.num_qubits().max(1), options);
        let half = case.circuit.len().div_ceil(2);
        for (id, gate) in case.circuit.iter() {
            stream.push_gate(*gate)?;
            if id + 1 == half {
                // Mid-frontier: some gates are in flight, more follow.
                stream.step()?;
                stream.inject(fault)?;
                stream.inject(FaultEvent::MagicStall { steps: 2 })?;
            }
        }
        stream.finish()
    }));
    match run {
        Err(payload) => out.push(diverge(format!(
            "fault injection panicked: {}",
            panic_message(payload)
        ))),
        // A central tile death may legitimately disconnect operand
        // tiles for good; the typed error is the graceful outcome.
        Ok(Err(StreamError::Unroutable { .. })) => {}
        Ok(Err(e)) => out.push(diverge(format!(
            "fault injection surfaced a non-routing error: {e}"
        ))),
        Ok(Ok(report)) => {
            if report.circuit.len() != case.circuit.len() {
                out.push(diverge(format!(
                    "fault injection dropped gates: {} scheduled vs {} pushed",
                    report.circuit.len(),
                    case.circuit.len()
                )));
            }
            let dag = DependenceDag::new(&case.circuit);
            if let Err(e) = verify_schedule_with_dag(
                &case.circuit,
                &dag,
                &report.outcome.grid,
                &report.outcome.initial_placement,
                &report.outcome.result,
            ) {
                out.push(diverge(format!(
                    "schedule after fault injection is invalid: {e}"
                )));
            }
            if let Err(e) = lower(&report.outcome.result, &report.outcome.grid) {
                out.push(diverge(format!("emission failed: {e}")));
            }
        }
    }
}

/// Schedules the case on its (possibly defective) lattice with an
/// arbitrary routing policy and validates the result. Returns the raw
/// outcome, or `None` when the run panicked (already reported as a
/// divergence). This is also the hook the oracle self-test drives a
/// deliberately corrupted router through.
pub fn check_policy_schedule(
    case: &ConformanceCase,
    policy: &dyn RoutePolicy,
    out: &mut Vec<Divergence>,
) -> Option<Result<ScheduleResult, ScheduleError>> {
    run_case_with_policy(case, policy, &format!("policy={}", policy.name()), out)
}

fn run_case_with_policy(
    case: &ConformanceCase,
    policy: &dyn RoutePolicy,
    setting: &str,
    out: &mut Vec<Divergence>,
) -> Option<Result<ScheduleResult, ScheduleError>> {
    let grid = case.grid();
    let placement = Placement::row_major(&grid, case.circuit.num_qubits());
    let base = case.base_occupancy();
    let config = ScheduleConfig::default();
    let diverge = |detail: String| Divergence {
        case: case.label(),
        setting: setting.to_string(),
        detail,
    };
    let attempt = catch_unwind(AssertUnwindSafe(|| {
        let drive = EngineRun::new(
            "conformance",
            &case.circuit,
            &grid,
            placement.clone(),
            policy,
            &config,
        );
        run(drive.base(&base)).map(|done| done.expect("an unbounded drive finishes"))
    }));
    match attempt {
        Err(payload) => {
            out.push(diverge(format!("panicked: {}", panic_message(payload))));
            None
        }
        Ok(Err(e)) => Some(Err(e)),
        Ok(Ok((result, final_placement))) => {
            let dag = DependenceDag::new(&case.circuit);
            if let Err(e) =
                verify_schedule_with_dag(&case.circuit, &dag, &grid, &placement, &result)
            {
                out.push(diverge(format!("invalid schedule: {e}")));
            }
            if let Err(e) = final_placement.validate(&grid) {
                out.push(diverge(format!("inconsistent final placement: {e}")));
            }
            check_defect_avoidance(&grid, &base, &result, &diverge, out);
            Some(Ok(result))
        }
    }
}

/// No braiding or swap path may enter a reserved (defective) vertex.
fn check_defect_avoidance(
    grid: &Grid,
    base: &Occupancy,
    result: &ScheduleResult,
    diverge: &impl Fn(String) -> Divergence,
    out: &mut Vec<Divergence>,
) {
    if base.occupied_count() == 0 {
        return;
    }
    for (i, interval) in result.steps.iter().enumerate() {
        let Some(path) = interval.path() else {
            continue;
        };
        if path.vertices().iter().any(|&v| base.is_occupied(grid, v)) {
            out.push(diverge(format!(
                "interval {i}: braiding path enters a defective vertex"
            )));
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl::generate_case;

    #[test]
    fn clean_cases_conform() {
        for seed in 0..12 {
            let case = generate_case(seed);
            let divergences = check_case(&case, &OracleConfig::default());
            assert!(divergences.is_empty(), "seed {seed}: {divergences:?}");
        }
    }

    #[test]
    fn defective_cases_conform() {
        // Hunt specifically for defect overlays: the defect branch must
        // hold too.
        let mut seen = 0;
        let mut seed = 0;
        while seen < 4 {
            let case = generate_case(seed);
            seed += 1;
            if case.defects.is_empty() {
                continue;
            }
            seen += 1;
            let divergences = check_case(&case, &OracleConfig::default());
            assert!(divergences.is_empty(), "seed {}: {divergences:?}", seed - 1);
        }
    }

    #[test]
    fn divergence_formats_with_context() {
        let d = Divergence {
            case: "qft4".into(),
            setting: "optimize=true".into(),
            detail: "boom".into(),
        };
        let s = d.to_string();
        assert!(s.contains("qft4") && s.contains("optimize=true") && s.contains("boom"));
    }
}
