//! Golden canonical reports: every regression-corpus circuit and every
//! `strategy_duel` family, compiled under each registry strategy with
//! the optimizer off and on, must hash to the committed
//! `tests/golden/canonical.txt` line for line.
//!
//! Each line reads `input strategy optimize fnv1a64-hex`: the FNV-1a 64
//! hash of `CompileReport::canonical_json()`. A change that is meant to
//! be byte-identical leaves every line alone. A declared output change
//! replaces the file with the fresh table this test prints on a
//! mismatch, and says why in its change notes.

use autobraid::pipeline::{CompileOptions, Pipeline, Strategy};
use autobraid_circuit::generators::{ising::ising, qft::qft, random};
use autobraid_circuit::Circuit;
use autobraid_conformance::ConformanceCase;
use autobraid_service::cache::fnv1a64;
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

fn fresh_table() -> String {
    let mut table = String::new();
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
                let hash = fnv1a64(report.canonical_json().as_bytes());
                table.push_str(&format!(
                    "{name} {} {optimize} {hash:016x}\n",
                    strategy.name()
                ));
            }
        }
    }
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
