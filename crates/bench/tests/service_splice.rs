//! The daemon writes cached canonical report bytes straight into its
//! response frames. This checks, over a real connection, that every
//! spliced miss and hit frame is byte-for-byte the frame rendered from a
//! document holding the parsed report, for every default-subset
//! TABLE1/TABLE2 benchmark and every `tests/corpus` file, and that the
//! report bytes render back to themselves.

use autobraid::pipeline::Strategy;
use autobraid_bench::{SLOW_LABELS, TABLE1, TABLE2};
use autobraid_circuit::{qasm, Circuit};
use autobraid_conformance::ConformanceCase;
use autobraid_service::protocol::{read_frame, write_frame, DEFAULT_MAX_FRAME};
use autobraid_service::{CompileRequest, Server, ServiceConfig};
use autobraid_telemetry::JsonValue;
use std::net::TcpStream;
use std::path::PathBuf;

/// Default-subset benchmarks (the binaries skip `SLOW_LABELS` and
/// `Shors` without `--full`) and the committed corpus, as labelled
/// circuits.
fn cases() -> Vec<(String, Circuit)> {
    let mut cases: Vec<(String, Circuit)> = TABLE2
        .iter()
        .chain(TABLE1)
        .filter(|e| !SLOW_LABELS.contains(&e.label) && e.label != "Shors")
        .map(|e| (e.label.to_string(), e.build().expect("benchmark builds")))
        .collect();
    let corpus = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&corpus)
        .expect("tests/corpus must exist")
        .map(|e| e.expect("readable corpus dir").path())
        .filter(|p| p.extension().is_some_and(|e| e == "qasm"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "no corpus files in {}", corpus.display());
    for path in files {
        let text = std::fs::read_to_string(&path).expect("readable corpus file");
        let case = ConformanceCase::from_repro(&text).expect("corpus file parses");
        let stem = path.file_stem().expect("file name").to_string_lossy();
        cases.push((stem.into_owned(), case.circuit));
    }
    cases
}

/// The frame a response document holding the parsed report renders to:
/// the envelope fields of `frame`, then `report`.
fn document_frame(frame: &str, report: &str) -> String {
    let doc = JsonValue::parse(frame).expect("frame is JSON");
    let field = |name: &str| doc.get(name).cloned().expect("envelope field");
    JsonValue::object([
        ("proto", field("proto")),
        ("status", field("status")),
        ("kind", field("kind")),
        ("cache", field("cache")),
        ("elapsed_ms", field("elapsed_ms")),
        ("report", JsonValue::parse(report).expect("report is JSON")),
    ])
    .render_compact()
}

#[test]
fn spliced_report_frames_match_the_rendered_document() {
    let server = Server::start(ServiceConfig {
        dump_dir: String::new(),
        ..ServiceConfig::default()
    })
    .expect("server starts");
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    for (label, circuit) in cases() {
        // Any canonical report exercises the splice; the baseline
        // strategy without optimizer or verifier writes the full step
        // list at the lowest compile cost (QFT-400 alone takes seconds
        // in a debug build), and the deadline leaves room for that.
        let request = CompileRequest::qasm(qasm::emit(&circuit))
            .with_label(label.as_str())
            .with_strategy(Strategy::Baseline)
            .with_optimize(false)
            .with_verify(false)
            .with_timeout_ms(600_000);
        let payload = request.to_json().render_compact();
        let mut reports = Vec::new();
        for want in ["miss", "hit"] {
            write_frame(&mut stream, &payload).expect("send");
            let frame = read_frame(&mut stream, DEFAULT_MAX_FRAME)
                .expect("frame")
                .expect("response");
            let doc = JsonValue::parse(&frame).expect("frame is JSON");
            assert_eq!(
                doc.get("cache").and_then(JsonValue::as_str),
                Some(want),
                "{label}: {frame:.200}"
            );
            let at = frame.find(",\"report\":").expect("report field") + ",\"report\":".len();
            let report = &frame[at..frame.len() - 1];
            assert_eq!(
                JsonValue::parse(report).expect("report").render_compact(),
                report,
                "{label}: canonical bytes must render back to themselves"
            );
            assert_eq!(frame, document_frame(&frame, report), "{label} {want}");
            reports.push(report.to_string());
        }
        assert_eq!(
            reports[0], reports[1],
            "{label}: the hit serves the miss's bytes"
        );
    }
}
