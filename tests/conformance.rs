//! Regression corpus replay: every repro file committed under
//! `tests/corpus/` runs through the full differential oracle. Entries
//! come from shrunk fuzz failures and from the deterministic generator
//! sweep (`cargo run -p autobraid-bench --bin fuzz -- --write-corpus`);
//! the promotion workflow is documented in `docs/TESTING.md`.

use autobraid_conformance::{check_case, ConformanceCase, OracleConfig};
use std::path::PathBuf;

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

fn corpus_cases() -> Vec<(PathBuf, ConformanceCase)> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(corpus_dir())
        .expect("tests/corpus must exist")
        .map(|e| e.expect("readable corpus dir").path())
        .filter(|p| p.extension().is_some_and(|e| e == "qasm"))
        .collect();
    entries.sort();
    entries
        .into_iter()
        .map(|path| {
            let text = std::fs::read_to_string(&path).expect("readable corpus file");
            let case = ConformanceCase::from_repro(&text)
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            (path, case)
        })
        .collect()
}

#[test]
fn corpus_is_not_empty() {
    let cases = corpus_cases();
    assert!(
        cases.len() >= 10,
        "corpus shrank to {} entries — regenerate with --write-corpus",
        cases.len()
    );
    // Degenerate shapes must stay represented.
    assert!(cases.iter().any(|(_, c)| c.circuit.is_empty()));
    assert!(cases.iter().any(|(_, c)| !c.defects.is_empty()));
}

#[test]
fn every_corpus_entry_conforms() {
    let cfg = OracleConfig::default();
    for (path, case) in corpus_cases() {
        let divergences = check_case(&case, &cfg);
        assert!(
            divergences.is_empty(),
            "{} diverges:\n{}",
            path.display(),
            divergences
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}

#[test]
fn corpus_files_roundtrip_through_the_repro_format() {
    for (path, case) in corpus_cases() {
        let text = case.to_repro();
        let back = ConformanceCase::from_repro(&text).unwrap();
        assert_eq!(back, case, "{} does not round-trip", path.display());
    }
}
