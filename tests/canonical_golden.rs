//! Golden canonical reports: every regression-corpus circuit and every
//! `strategy_duel` family, compiled under each registry strategy with
//! the optimizer off and on, must hash to the committed
//! `tests/golden/canonical.txt` line for line.
//!
//! The report's `layer_policies` groups each `(policy, reason)` pair's
//! braiding steps into runs; a second test expands them back into the
//! schedule's per-step attribution and checks that the encoding is the
//! canonical one.
//!
//! Each line reads `input strategy optimize fnv1a64-hex`: the FNV-1a 64
//! hash of `CompileReport::canonical_json()`. A change that is meant to
//! be byte-identical leaves every line alone. A declared output change
//! replaces the file with the fresh table this test prints on a
//! mismatch, and says why in its change notes.

use autobraid::pipeline::{CompileOptions, CompileReport, Pipeline, Strategy};
use autobraid_circuit::generators::{ising::ising, qft::qft, random};
use autobraid_circuit::Circuit;
use autobraid_conformance::ConformanceCase;
use autobraid_service::cache::fnv1a64;
use autobraid_telemetry::JsonValue;
use std::path::PathBuf;

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The corpus circuits by file stem, in name order, then the five duel
/// families.
fn inputs() -> Vec<(String, Circuit)> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(root().join("tests/corpus"))
        .expect("tests/corpus must exist")
        .map(|entry| entry.expect("readable corpus dir").path())
        .filter(|path| path.extension().is_some_and(|e| e == "qasm"))
        .collect();
    files.sort();
    let mut inputs: Vec<(String, Circuit)> = files
        .iter()
        .map(|path| {
            let text = std::fs::read_to_string(path).expect("readable corpus file");
            let case = ConformanceCase::from_repro(&text)
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            let stem = path.file_stem().expect("a file name").to_string_lossy();
            (stem.into_owned(), case.circuit)
        })
        .collect();
    let families = [
        ("layered", random::layered_cx(16, 6, 0.3, 7)),
        ("burst", random::all_to_all_burst(16, 5, 6, 7)),
        ("chain", random::neighbor_chain(16, 6, 7)),
        ("qft", qft(16)),
        ("ising", ising(16, 2)),
    ];
    inputs.extend(
        families
            .into_iter()
            .map(|(name, circuit)| (name.to_string(), circuit.expect("the family builds"))),
    );
    inputs
}

/// Calls `f` with every input's report under each registry strategy,
/// optimizer off and on, in table order.
fn for_each_report(mut f: impl FnMut(&str, Strategy, bool, &CompileReport)) {
    for (name, circuit) in inputs() {
        for strategy in Strategy::ALL {
            for optimize in [false, true] {
                let report = Pipeline::new()
                    .with_options(CompileOptions {
                        strategy,
                        optimize,
                        ..CompileOptions::default()
                    })
                    .compile(&circuit)
                    .unwrap_or_else(|e| panic!("{name} {}: {e}", strategy.name()));
                f(&name, strategy, optimize, &report);
            }
        }
    }
}

fn fresh_table() -> String {
    let mut table = String::new();
    for_each_report(|name, strategy, optimize, report| {
        let hash = fnv1a64(report.canonical_json().as_bytes());
        table.push_str(&format!(
            "{name} {} {optimize} {hash:016x}\n",
            strategy.name()
        ));
    });
    table
}

#[test]
fn canonical_reports_match_the_golden_hashes() {
    let path = root().join("tests/golden/canonical.txt");
    let golden =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let fresh = fresh_table();
    if golden == fresh {
        return;
    }
    let golden_lines: Vec<&str> = golden.lines().collect();
    let fresh_lines: Vec<&str> = fresh.lines().collect();
    let mut diff = String::new();
    for i in 0..golden_lines.len().max(fresh_lines.len()) {
        let (old, new) = (golden_lines.get(i), fresh_lines.get(i));
        if old != new {
            diff.push_str(&format!(
                "line {}:\n  golden: {}\n  fresh:  {}\n",
                i + 1,
                old.unwrap_or(&"<none>"),
                new.unwrap_or(&"<none>")
            ));
        }
    }
    panic!(
        "canonical reports differ from {}:\n{diff}\nfresh table:\n{fresh}",
        path.display()
    );
}

/// `(step, policy, reason)` for every braiding step a canonical
/// report's `layer_policies` names, in step order, after checking that
/// the encoding is canonical: one group per distinct pair in order of
/// first use, each holding ascending, maximal `first, last` runs, and no
/// step in two groups.
fn expand_layer_policies(canonical: &str) -> Vec<(u64, String, String)> {
    let report = JsonValue::parse(canonical).expect("canonical JSON parses");
    let groups = report
        .get("schedule")
        .and_then(|s| s.get("layer_policies"))
        .and_then(JsonValue::as_array)
        .expect("schedule.layer_policies is an array");
    let mut steps = Vec::new();
    let mut pairs: Vec<(&str, &str)> = Vec::new();
    let mut first_uses = Vec::new();
    for group in groups {
        let JsonValue::Object(fields) = group else {
            panic!("a group is an object: {group:?}");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["policy", "reason", "runs"]);
        let text = |key| group.get(key).and_then(JsonValue::as_str).expect(key);
        let pair = (text("policy"), text("reason"));
        assert!(!pairs.contains(&pair), "{pair:?} has two groups");
        pairs.push(pair);
        let runs: Vec<u64> = group
            .get("runs")
            .and_then(JsonValue::as_array)
            .expect("runs")
            .iter()
            .map(|v| v.as_u64().expect("a step index"))
            .collect();
        assert!(
            !runs.is_empty() && runs.len().is_multiple_of(2),
            "{pair:?}: runs {runs:?}"
        );
        first_uses.push(runs[0]);
        let mut next_free = 0;
        for run in runs.chunks(2) {
            let (first, last) = (run[0], run[1]);
            assert!(first <= last, "{pair:?}: run {run:?}");
            assert!(
                first >= next_free,
                "{pair:?}: runs {runs:?} are not ascending and maximal"
            );
            next_free = last + 2;
            steps.extend((first..=last).map(|step| (step, pair.0.to_string(), pair.1.to_string())));
        }
    }
    assert!(
        first_uses.windows(2).all(|w| w[0] < w[1]),
        "groups are not in first-use order: {first_uses:?}"
    );
    steps.sort();
    assert!(
        steps.windows(2).all(|w| w[0].0 < w[1].0),
        "a step appears in two groups"
    );
    steps
}

#[test]
fn layer_policy_runs_expand_to_the_per_step_attribution() {
    let mut checked = 0;
    for_each_report(|name, strategy, optimize, report| {
        let expected: Vec<(u64, String, String)> = report
            .outcome
            .result
            .layer_policies
            .iter()
            .map(|lp| (lp.step, lp.policy.to_string(), lp.reason.to_string()))
            .collect();
        assert_eq!(
            expand_layer_policies(&report.canonical_json()),
            expected,
            "{name} {} {optimize}",
            strategy.name()
        );
        checked += expected.len();
    });
    assert!(checked > 0, "the inputs commit braiding layers");
}
