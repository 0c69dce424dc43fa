//! Plain-text table rendering and JSON emission for evaluation reports.

use crate::metrics::{LayerPolicy, ScheduleResult};
use crate::pipeline::CompileReport;
use autobraid_telemetry::JsonValue;
use std::fmt::Write;

/// Formats a duration in microseconds the way the paper's tables do:
/// `745`, `1.28K`, `1.34M`.
pub fn format_us(us: f64) -> String {
    let trim = |s: String| {
        if s.contains('.') {
            s.trim_end_matches('0').trim_end_matches('.').to_string()
        } else {
            s
        }
    };
    if us >= 1e8 {
        trim(format!("{:.0}", us / 1e6)) + "M"
    } else if us >= 1e6 {
        trim(format!("{:.2}", us / 1e6)) + "M"
    } else if us >= 1e5 {
        trim(format!("{:.0}", us / 1e3)) + "K"
    } else if us >= 1e4 {
        trim(format!("{:.1}", us / 1e3)) + "K"
    } else if us >= 1e3 {
        trim(format!("{:.2}", us / 1e3)) + "K"
    } else {
        format!("{us:.0}")
    }
}

/// A simple fixed-width text table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(header: impl IntoIterator<Item = S>) -> Self {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header width).
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn add_row<S: Into<String>>(&mut self, row: impl IntoIterator<Item = S>) {
        let row: Vec<String> = row.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.header.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table with padded columns.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for c in 0..cols {
                widths[c] = widths[c].max(row[c].chars().count());
            }
        }
        let mut out = String::new();
        let line = |cells: &[String], out: &mut String| {
            for (c, cell) in cells.iter().enumerate() {
                let _ = write!(out, "| {:<width$} ", cell, width = widths[c]);
            }
            out.push_str("|\n");
        };
        line(&self.header, &mut out);
        for (c, w) in widths.iter().enumerate() {
            let _ = write!(out, "|{:-<width$}", "", width = w + 2);
            if c == cols - 1 {
                out.push_str("|\n");
            }
        }
        for row in &self.rows {
            line(row, &mut out);
        }
        out
    }
}

/// Serializes one [`ScheduleResult`]'s headline statistics, including
/// the per-layer strategy attribution (`layer_policies`, empty under
/// stats-only recording). The attribution is part of the schedule, not
/// a measurement, so it also appears in — and is byte-checked by — the
/// canonical report.
pub fn schedule_result_json(result: &ScheduleResult) -> JsonValue {
    schedule_json(result, result.compile_seconds)
}

/// [`schedule_result_json`] with `compile_seconds` rendered as given.
fn schedule_json(result: &ScheduleResult, compile_seconds: f64) -> JsonValue {
    let mut layer_policies = String::new();
    write_layer_policies(&mut layer_policies, &result.layer_policies);
    let layer_policies =
        JsonValue::parse(&layer_policies).expect("layer policies render as valid JSON");
    JsonValue::object(
        schedule_fields(result, compile_seconds)
            .into_iter()
            .chain([("layer_policies", layer_policies)]),
    )
}

/// Writes a schedule's `layer_policies` array, one `{step, policy,
/// reason}` object per braiding step, compact — the one home of its
/// layout. The canonical report writes it straight into its output
/// rather than building one [`JsonValue`] per step.
fn write_layer_policies(out: &mut String, policies: &[LayerPolicy]) {
    out.push('[');
    for (i, lp) in policies.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"step\":{},\"policy\":", lp.step);
        JsonValue::write_str(out, lp.policy);
        out.push_str(",\"reason\":");
        JsonValue::write_str(out, lp.reason);
        out.push('}');
    }
    out.push(']');
}

/// A schedule's fields ahead of its trailing `layer_policies`.
fn schedule_fields(
    result: &ScheduleResult,
    compile_seconds: f64,
) -> [(&'static str, JsonValue); 11] {
    [
        ("scheduler", JsonValue::from(result.scheduler.as_str())),
        ("benchmark", JsonValue::from(result.benchmark.as_str())),
        ("total_cycles", JsonValue::from(result.total_cycles)),
        ("time_us", JsonValue::from(result.time_us())),
        ("braid_steps", JsonValue::from(result.braid_steps)),
        ("local_steps", JsonValue::from(result.local_steps)),
        ("swap_layers", JsonValue::from(result.swap_layers)),
        ("swap_count", JsonValue::from(result.swap_count)),
        ("peak_utilization", JsonValue::from(result.peak_utilization)),
        ("mean_utilization", JsonValue::from(result.mean_utilization)),
        ("compile_seconds", JsonValue::from(compile_seconds)),
    ]
}

/// Serializes a full [`CompileReport`] — circuit statistics, schedule
/// outcome, per-stage timings, and (when collected) the telemetry
/// snapshot — as one stable JSON object. The layout of the `telemetry`
/// field is the `autobraid.telemetry/v1` schema of `docs/METRICS.md`.
pub fn compile_report_json(report: &CompileReport) -> JsonValue {
    let timings = JsonValue::object([
        (
            "parse_seconds",
            JsonValue::from(report.timings.parse_seconds),
        ),
        (
            "optimize_seconds",
            JsonValue::from(report.timings.optimize_seconds),
        ),
        (
            "schedule_seconds",
            JsonValue::from(report.timings.schedule_seconds),
        ),
        (
            "verify_seconds",
            JsonValue::from(report.timings.verify_seconds),
        ),
        (
            "total_seconds",
            JsonValue::from(report.timings.total_seconds()),
        ),
    ]);
    JsonValue::object([
        ("circuit", JsonValue::from(report.stats.name.as_str())),
        ("qubits", JsonValue::from(report.stats.qubits)),
        ("gates", JsonValue::from(report.stats.gates)),
        ("gates_removed", JsonValue::from(report.gates_removed)),
        ("schedule", schedule_result_json(&report.outcome.result)),
        ("timings", timings),
        (
            "telemetry",
            report
                .telemetry
                .as_ref()
                .map(|t| t.to_json_value())
                .unwrap_or(JsonValue::Null),
        ),
    ])
}

/// Renders a [`CompileReport`] compact with every wall-clock measurement
/// zeroed and telemetry excluded: the *canonical* form of a compile
/// output ([`CompileReport::canonical_json`]), byte-identical across runs
/// and batch pool widths for the same input and seed. This is the value the
/// determinism suite compares and the contract `docs/RUNTIME.md`
/// documents — timings and telemetry are measurements of the run, not
/// part of the compiled result.
pub(crate) fn canonical_report_string(report: &CompileReport) -> String {
    fn field(out: &mut String, key: &str, value: &JsonValue) {
        JsonValue::write_str(out, key);
        out.push(':');
        value.write_compact(out);
        out.push(',');
    }
    let result = &report.outcome.result;
    let mut out = String::with_capacity(512 + 64 * result.layer_policies.len());
    out.push('{');
    let header = [
        ("circuit", JsonValue::from(report.stats.name.as_str())),
        ("qubits", JsonValue::from(report.stats.qubits)),
        ("gates", JsonValue::from(report.stats.gates)),
        ("gates_removed", JsonValue::from(report.gates_removed)),
    ];
    for (key, value) in &header {
        field(&mut out, key, value);
    }
    out.push_str("\"schedule\":{");
    for (key, value) in &schedule_fields(result, 0.0) {
        field(&mut out, key, value);
    }
    out.push_str("\"layer_policies\":");
    write_layer_policies(&mut out, &result.layer_policies);
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{CompileOptions, Pipeline, Strategy};
    use autobraid_circuit::generators::{ising::ising, qft::qft, random};

    /// The canonical string is the full report's JSON tree with the
    /// schedule's `compile_seconds` zeroed and timings and telemetry left
    /// out, field for field, under every strategy.
    #[test]
    fn the_canonical_report_agrees_with_the_report_tree() {
        let circuits = [
            qft(12).unwrap(),
            ising(16, 2).unwrap(),
            random::layered_cx(16, 6, 0.3, 7).unwrap(),
        ];
        for circuit in &circuits {
            for strategy in Strategy::ALL {
                let report = Pipeline::new()
                    .with_options(CompileOptions {
                        strategy,
                        ..CompileOptions::default()
                    })
                    .compile(circuit)
                    .unwrap();
                let canonical = report.canonical_json();
                let parsed = JsonValue::parse(&canonical).expect("canonical JSON parses");
                assert_eq!(parsed.render_compact(), canonical);
                let tree = compile_report_json(&report);
                for key in ["circuit", "qubits", "gates", "gates_removed"] {
                    assert_eq!(
                        parsed.get(key).map(JsonValue::render_compact),
                        tree.get(key).map(JsonValue::render_compact),
                        "{key}"
                    );
                }
                let schedule = schedule_json(&report.outcome.result, 0.0);
                assert_eq!(
                    parsed.get("schedule").map(JsonValue::render_compact),
                    Some(schedule.render_compact()),
                    "{} {}",
                    circuit.name(),
                    strategy.name()
                );
                let JsonValue::Object(fields) = &parsed else {
                    panic!("the canonical report is an object");
                };
                assert_eq!(fields.len(), 5, "no timings, no telemetry");
            }
        }
        let layered = Pipeline::new().compile(&circuits[2]).unwrap();
        assert!(
            !layered.outcome.result.layer_policies.is_empty(),
            "the check covers layer policies"
        );
    }

    #[test]
    fn format_matches_paper_style() {
        assert_eq!(format_us(745.0), "745");
        assert_eq!(format_us(1280.0), "1.28K");
        assert_eq!(format_us(21_000.0), "21K");
        assert_eq!(format_us(135_000.0), "135K");
        assert_eq!(format_us(1_340_000.0), "1.34M");
        // Trailing zeros of integer renderings must survive.
        assert_eq!(format_us(320_456.0), "320K");
        assert_eq!(format_us(200_000.0), "200K");
        assert_eq!(format_us(70_400_000.0), "70.4M");
        assert_eq!(format_us(300_000_000.0), "300M");
        assert_eq!(format_us(10_000.0), "10K");
        assert_eq!(format_us(2_000.0), "2K");
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(["name", "value"]);
        t.add_row(["qft16", "1.28K"]);
        t.add_row(["a-long-benchmark-name", "9"]);
        let text = t.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        let widths: Vec<usize> = lines.iter().map(|l| l.chars().count()).collect();
        assert!(widths.windows(2).all(|w| w[0] == w[1]), "{text}");
        assert!(!t.is_empty());
        assert_eq!(t.len(), 2);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut t = Table::new(["a", "b"]);
        t.add_row(["only-one"]);
    }
}
