//! Shared harness for regenerating the paper's tables and figures.
//!
//! Each binary in `src/bin/` reproduces one experiment (see DESIGN.md §6):
//! `table1`, `table2`, `fig16`, `fig17`, `fig18`, `compile_time`. This
//! library holds the benchmark registry and the common run helpers.
//! Every experiment binary accepts `--telemetry <path>` (see
//! [`telemetry_sink`]) to dump the `autobraid.telemetry/v1` JSON
//! snapshot documented in `docs/METRICS.md`, and `--trace <path>`
//! (see [`trace_sink`]) to dump an `autobraid.trace/v1` Chrome
//! trace-event JSON that loads in Perfetto. Unknown `--flags` are
//! rejected with a usage message ([`enforce_flags`]). The benchmark
//! regression gate (`bench baseline` / `bench regress`) lives in
//! [`mod@regression`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use autobraid::config::{Recording, ScheduleConfig};
use autobraid::critical_path::critical_path_cycles;
use autobraid::scheduler::{run, Clock, EngineRun, StackPolicy};
use autobraid::{AutoBraid, ScheduleResult, Strategy};
use autobraid_circuit::{generators, Circuit, CircuitError};
use autobraid_lattice::Grid;
use autobraid_lattice::{CodeParams, TimingModel};
use autobraid_telemetry::{install, MemoryRecorder, RecorderGuard, TraceRecorder};

pub mod regression;

/// One benchmark instance of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BenchEntry {
    /// Printable name (matches the paper's tables).
    pub label: &'static str,
    /// Generator key for [`generators::by_name`].
    pub kind: &'static str,
    /// Qubit count for sized generators (ignored by fixed-size ones).
    pub n: u32,
    /// `"block"` (building blocks) or `"app"` (real-world applications).
    pub category: &'static str,
}

impl BenchEntry {
    const fn new(label: &'static str, kind: &'static str, n: u32, category: &'static str) -> Self {
        BenchEntry {
            label,
            kind,
            n,
            category,
        }
    }

    /// Builds the circuit for this entry.
    ///
    /// # Errors
    ///
    /// Propagates generator errors ([`CircuitError`]).
    pub fn build(&self) -> Result<Circuit, CircuitError> {
        let mut c = generators::by_name(self.kind, self.n)?;
        c.set_name(self.label);
        Ok(c)
    }
}

/// The Table 2 benchmark suite. The default subset (everything except the
/// largest urf blocks and Shor) finishes quickly; pass `--full` to the
/// binaries to run everything.
pub const TABLE2: &[BenchEntry] = &[
    // Building blocks.
    BenchEntry::new("4gt11_8", "4gt11_8", 0, "block"),
    BenchEntry::new("4gt5_75", "4gt5_75", 0, "block"),
    BenchEntry::new("alu-v0_26", "alu-v0_26", 0, "block"),
    BenchEntry::new("rd32-v0", "rd32-v0", 0, "block"),
    BenchEntry::new("sqrt8_260", "sqrt8_260", 0, "block"),
    BenchEntry::new("squar5_261", "squar5_261", 0, "block"),
    BenchEntry::new("squar7", "squar7", 0, "block"),
    BenchEntry::new("urf1_278", "urf1_278", 0, "block"),
    BenchEntry::new("urf2_277", "urf2_277", 0, "block"),
    BenchEntry::new("urf5_158", "urf5_158", 0, "block"),
    BenchEntry::new("urf5_280", "urf5_280", 0, "block"),
    // Real-world applications.
    BenchEntry::new("QFT-200", "qft", 200, "app"),
    BenchEntry::new("QFT-400", "qft", 400, "app"),
    BenchEntry::new("QFT-500", "qft", 500, "app"),
    BenchEntry::new("BV-100", "bv", 100, "app"),
    BenchEntry::new("BV-150", "bv", 150, "app"),
    BenchEntry::new("BV-200", "bv", 200, "app"),
    BenchEntry::new("CC-100", "cc", 100, "app"),
    BenchEntry::new("CC-200", "cc", 200, "app"),
    BenchEntry::new("CC-300", "cc", 300, "app"),
    BenchEntry::new("IM-10", "im", 10, "app"),
    BenchEntry::new("IM-500", "im", 500, "app"),
    BenchEntry::new("IM-1000", "im", 1000, "app"),
    BenchEntry::new("BWT-179", "bwt", 179, "app"),
    BenchEntry::new("BWT-240", "bwt", 240, "app"),
    BenchEntry::new("QAOA-100", "qaoa", 100, "app"),
    BenchEntry::new("QAOA-200", "qaoa", 200, "app"),
    BenchEntry::new("QAOA-300", "qaoa", 300, "app"),
    BenchEntry::new("Shor-471", "shor", 0, "app"),
];

/// Entries whose scheduling cost makes them opt-in (`--full`).
pub const SLOW_LABELS: &[&str] = &["urf1_278", "urf5_158", "QFT-500", "Shor-471"];

/// The Table 1 subset (LLG initial-layout impact).
pub const TABLE1: &[BenchEntry] = &[
    BenchEntry::new("qft16", "qft", 16, "app"),
    BenchEntry::new("qft50", "qft", 50, "app"),
    BenchEntry::new("urf2", "urf2_277", 0, "block"),
    BenchEntry::new("IM16", "im", 16, "app"),
    BenchEntry::new("IM10", "im", 10, "app"),
    BenchEntry::new("Shors", "shor", 0, "app"),
    BenchEntry::new("BWT", "bwt", 179, "app"),
    BenchEntry::new("Sqrt8", "sqrt8_260", 0, "block"),
];

/// The default evaluation configuration: paper timing (d = 33, 2.2 µs
/// cycles), stats-only recording (the experiment binaries re-verify
/// correctness elsewhere; see `tests/`).
pub fn eval_config() -> ScheduleConfig {
    ScheduleConfig::default().with_recording(Recording::StatsOnly)
}

/// The circuits of the `strategy_duel` experiment: one 16-qubit
/// instance of each conformance generator family, seed 7, in table
/// order.
pub fn duel_families() -> Vec<(&'static str, Circuit)> {
    use generators::{ising::ising, qft::qft, random};
    vec![
        (
            "layered",
            random::layered_cx(16, 6, 0.3, 7).expect("layered builds"),
        ),
        (
            "burst",
            random::all_to_all_burst(16, 5, 6, 7).expect("burst builds"),
        ),
        (
            "chain",
            random::neighbor_chain(16, 6, 7).expect("chain builds"),
        ),
        ("qft", qft(16).expect("qft builds")),
        ("ising", ising(16, 2).expect("ising builds")),
    ]
}

/// A full comparison for one circuit: CP cycles, baseline, autobraid-sp,
/// autobraid-full, and the event-driven engine.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// Critical-path cycles (the ideal lower bound).
    pub cp_cycles: u64,
    /// Baseline ("GP w. initM") result.
    pub baseline: ScheduleResult,
    /// AutoBraid-sp result.
    pub sp: ScheduleResult,
    /// AutoBraid-full result.
    pub full: ScheduleResult,
    /// Event-driven engine result (static placement).
    pub asynchronous: ScheduleResult,
}

impl Comparison {
    /// Runs all schedulers on `circuit` under `config`.
    pub fn run(circuit: &Circuit, config: &ScheduleConfig) -> Self {
        let compiler = AutoBraid::new(config.clone());
        let dag = config.dag(circuit);
        let schedule = |strategy| compiler.schedule_with_dag(strategy, circuit, &dag).result;
        let baseline = schedule(Strategy::Baseline);
        let sp = schedule(Strategy::Stack);
        let full = schedule(Strategy::Full);
        let grid = Grid::with_capacity_for(circuit.num_qubits() as usize);
        let placement = compiler.initial_placement(circuit, &grid);
        let drive = EngineRun::new(
            "autobraid-async",
            circuit,
            &grid,
            placement,
            &StackPolicy,
            config,
        );
        let (asynchronous, _) = run(drive.dag(&dag).clock(Clock::PerQubit))
            .ok()
            .flatten()
            .expect("an unbounded drive on a defect-free lattice completes");
        let cp_cycles = critical_path_cycles(circuit, &config.timing);
        Comparison {
            cp_cycles,
            baseline,
            sp,
            full,
            asynchronous,
        }
    }

    /// The framework's best strategy for this circuit (what the paper's
    /// "AutoBraid" column reports): minimum cycles over autobraid-full and
    /// the event-driven engine.
    pub fn best(&self) -> &ScheduleResult {
        if self.asynchronous.total_cycles < self.full.total_cycles {
            &self.asynchronous
        } else {
            &self.full
        }
    }

    /// CP in microseconds under the comparison's timing model.
    pub fn cp_us(&self) -> f64 {
        self.baseline.timing().cycles_to_us(self.cp_cycles)
    }

    /// Baseline-over-best speedup (the paper's headline column).
    pub fn speedup(&self) -> f64 {
        self.best().speedup_over(&self.baseline)
    }
}

/// Scaling model for Fig. 16/17: a target logical error rate `P_L`
/// determines both the code distance (hence the timing model) and the
/// problem size (the paper: "circuit size is inversely proportional to
/// P_L"). We allocate a fixed total failure budget of 1% across all
/// `gates × qubits` error opportunities, so bigger instances demand
/// smaller `P_L` and larger `d`.
#[derive(Debug, Clone, Copy)]
pub struct ScalePoint {
    /// Logical qubit count at this computation size.
    pub n: u32,
    /// Target logical error rate.
    pub p_l: f64,
}

/// Builds the scale sweep for an application family from its qubit sizes
/// and gate-count function.
pub fn scale_points(sizes: &[u32], gates_for: impl Fn(u32) -> u64) -> Vec<ScalePoint> {
    sizes
        .iter()
        .map(|&n| {
            let opportunities = gates_for(n).max(1) as f64 * f64::from(n);
            ScalePoint {
                n,
                p_l: (0.01 / opportunities).min(1e-4),
            }
        })
        .collect()
}

/// Timing model whose code distance achieves `p_l`.
pub fn timing_for(p_l: f64) -> TimingModel {
    let params = CodeParams::for_target_error(p_l).expect("valid target error rate");
    TimingModel::new(params)
}

/// Simple `--full` flag detection for the experiment binaries.
pub fn full_run_requested() -> bool {
    flag_requested("--full")
}

/// Validates that every `--flag` in `args` is one of `valid`.
///
/// Values (arguments not starting with `--`) are never rejected, so
/// value-taking flags like `--telemetry out.json` pass as long as the
/// flag itself is known.
///
/// # Errors
///
/// Returns a usage message naming the first unknown flag and listing
/// the valid ones.
pub fn validate_flags(args: &[String], valid: &[&str]) -> Result<(), String> {
    for arg in args {
        if arg.starts_with("--") && !valid.contains(&arg.as_str()) {
            return Err(format!(
                "unknown flag `{arg}`\nvalid flags: {}",
                valid.join(" ")
            ));
        }
    }
    Ok(())
}

/// [`validate_flags`] over the process arguments; prints the usage
/// message and exits with status 2 on an unknown flag. Call first in
/// every experiment binary's `main`.
pub fn enforce_flags(valid: &[&str]) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(usage) = validate_flags(&args, valid) {
        eprintln!("{usage}");
        std::process::exit(2);
    }
}

/// Whether a bare flag (e.g. `--tiny`) is on the command line.
pub fn flag_requested(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

/// Parses a `--name <value>` integer flag, falling back to `default`
/// when the flag is absent or its value does not parse.
pub fn usize_flag(name: &str, default: usize) -> usize {
    string_flag(name)
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Parses a `--name <value>` string flag; `None` when the flag is absent
/// or has no value.
pub fn string_flag(name: &str) -> Option<String> {
    let mut args = std::env::args();
    while let Some(arg) = args.next() {
        if arg == name {
            return args.next();
        }
    }
    None
}

/// Process-wide telemetry for the experiment binaries, activated by
/// `--telemetry <path>` (`-` writes to stdout). Keeps a
/// [`MemoryRecorder`] installed for as long as the sink is alive and
/// writes the `autobraid.telemetry/v1` JSON snapshot (see
/// `docs/METRICS.md`) when dropped.
pub struct TelemetrySink {
    recorder: std::sync::Arc<MemoryRecorder>,
    path: String,
    _guard: RecorderGuard,
}

impl Drop for TelemetrySink {
    fn drop(&mut self) {
        let json = self.recorder.snapshot().to_json();
        if self.path == "-" {
            println!("{json}");
        } else if let Err(e) = std::fs::write(&self.path, json + "\n") {
            eprintln!("failed to write telemetry to {}: {e}", self.path);
        } else {
            eprintln!("telemetry written to {}", self.path);
        }
    }
}

/// Parses `--telemetry <path>` from the command line; when present,
/// installs a recorder and returns the sink. Bind the result for the
/// whole `main` (`let _telemetry = telemetry_sink();`) so the snapshot
/// is written on exit.
pub fn telemetry_sink() -> Option<TelemetrySink> {
    let path = sink_path("--telemetry")?;
    let recorder = std::sync::Arc::new(MemoryRecorder::new());
    let guard = install(recorder.clone());
    Some(TelemetrySink {
        recorder,
        path,
        _guard: guard,
    })
}

/// The path after `flag` (`-`, stdout, when none follows), if `flag` is
/// on the command line.
fn sink_path(flag: &str) -> Option<String> {
    flag_requested(flag).then(|| string_flag(flag).unwrap_or_else(|| "-".into()))
}

/// Process-wide event tracing for the experiment binaries, activated by
/// `--trace <path>` (`-` writes to stdout). Keeps a [`TraceRecorder`]
/// installed for as long as the sink is alive and writes the
/// `autobraid.trace/v1` Chrome trace-event JSON (loads in Perfetto; see
/// `docs/METRICS.md`) when dropped.
pub struct TraceSink {
    recorder: std::sync::Arc<TraceRecorder>,
    path: String,
    _guard: RecorderGuard,
}

impl Drop for TraceSink {
    fn drop(&mut self) {
        let json = self.recorder.snapshot().to_chrome_json();
        if self.path == "-" {
            println!("{json}");
        } else if let Err(e) = std::fs::write(&self.path, json + "\n") {
            eprintln!("failed to write trace to {}: {e}", self.path);
        } else {
            eprintln!(
                "trace written to {} (open in https://ui.perfetto.dev)",
                self.path
            );
        }
    }
}

/// Parses `--trace <path>` from the command line; when present,
/// installs a [`TraceRecorder`] and returns the sink. Bind the result
/// for the whole `main` (`let _trace = trace_sink();`) so the Chrome
/// trace JSON is written on exit.
///
/// Composes with [`telemetry_sink`]: when another recorder is already
/// installed (the `--telemetry` one), the tracer fans out to both, so
/// `--telemetry x.json --trace y.json` produces complete output of
/// each. Call `telemetry_sink()` first, then `trace_sink()`.
pub fn trace_sink() -> Option<TraceSink> {
    let path = sink_path("--trace")?;
    let recorder = std::sync::Arc::new(TraceRecorder::new());
    let guard = autobraid_telemetry::install_alongside(recorder.clone());
    Some(TraceSink {
        recorder,
        path,
        _guard: guard,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_builds_everything() {
        for entry in TABLE2.iter().chain(TABLE1) {
            let c = entry
                .build()
                .unwrap_or_else(|e| panic!("{}: {e}", entry.label));
            assert!(!c.is_empty(), "{} is empty", entry.label);
        }
    }

    #[test]
    fn paper_qubit_counts() {
        let by_label = |l: &str| {
            TABLE2
                .iter()
                .find(|e| e.label == l)
                .unwrap()
                .build()
                .unwrap()
        };
        assert_eq!(by_label("QFT-200").num_qubits(), 200);
        assert_eq!(by_label("Shor-471").num_qubits(), 471);
        assert_eq!(by_label("urf2_277").num_qubits(), 8);
        assert_eq!(by_label("BWT-179").num_qubits(), 179);
    }

    #[test]
    fn comparison_runs_and_orders() {
        let c = TABLE1[0].build().unwrap(); // qft16
        let cmp = Comparison::run(&c, &eval_config());
        assert!(cmp.cp_cycles > 0);
        assert!(cmp.full.total_cycles >= cmp.cp_cycles);
        assert!(cmp.baseline.total_cycles >= cmp.cp_cycles);
        assert!(cmp.speedup() > 0.0);
    }

    #[test]
    fn unknown_flags_are_rejected_with_usage() {
        let valid = ["--full", "--telemetry", "--trace"];
        let args = |list: &[&str]| list.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        // The regression this guards: `--fulll` and other typos used to
        // be accepted silently.
        let err = validate_flags(&args(&["--fulll"]), &valid).unwrap_err();
        assert!(err.contains("unknown flag `--fulll`"));
        assert!(err.contains("--full") && err.contains("--trace"));
        assert!(validate_flags(&args(&["--full"]), &valid).is_ok());
        // Flag values are not flags.
        assert!(validate_flags(&args(&["--telemetry", "out.json"]), &valid).is_ok());
        assert!(validate_flags(&args(&[]), &valid).is_ok());
        assert!(validate_flags(&args(&["positional"]), &valid).is_ok());
        let err = validate_flags(&args(&["--telemetry", "x", "--nope"]), &valid).unwrap_err();
        assert!(err.contains("--nope"));
    }

    #[test]
    fn scale_points_monotone() {
        let pts = scale_points(&[50, 100, 200], |n| u64::from(n) * u64::from(n) / 2);
        assert!(pts.windows(2).all(|w| w[0].p_l > w[1].p_l));
        for p in pts {
            let t = timing_for(p.p_l);
            assert!(t.params().logical_error_rate() <= p.p_l);
        }
    }
}
