//! End-to-end tests of the streaming session API over real TCP: slot
//! accounting under overload, idle-session timeouts, byte-identical
//! replay, fault-injection recovery, and a full conformance-corpus
//! replay cross-checked against the in-process streaming pipeline.

use autobraid::streaming::{FaultEvent, StreamingOptions, StreamingPipeline};
use autobraid_circuit::{Circuit, Gate};
use autobraid_conformance::ConformanceCase;
use autobraid_service::protocol::{
    read_frame, write_frame, CacheStatus, ErrorKind, DEFAULT_MAX_FRAME,
};
use autobraid_service::{Client, ClientError, CompileRequest, Server, ServiceConfig, SessionOpen};
use autobraid_telemetry::JsonValue;
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn server(configure: impl FnOnce(&mut ServiceConfig)) -> Server {
    let mut config = ServiceConfig::default();
    configure(&mut config);
    Server::start(config).expect("server failed to start")
}

fn expect_service_error(result: Result<impl std::fmt::Debug, ClientError>) -> (ErrorKind, String) {
    match result {
        Err(ClientError::Service(e)) => (e.kind, e.detail),
        other => panic!("expected a typed service error, got {other:?}"),
    }
}

fn bell_gates() -> (u32, Vec<Gate>) {
    let mut circuit = Circuit::new(2);
    circuit.h(0).cx(0, 1);
    (2, circuit.iter().map(|(_, g)| *g).collect())
}

/// Streams a circuit through a fresh session and returns the close
/// report's canonical bytes.
fn stream_via_session(server: &Server, label: &str, qubits: u32, gates: &[Gate]) -> String {
    let mut client = Client::connect(server.addr()).expect("connect");
    client
        .session_open(&SessionOpen::new(qubits).with_label(label))
        .expect("session opens");
    if !gates.is_empty() {
        client.session_gate(gates).expect("gates accepted");
    }
    let outcome = client.session_close().expect("session closes");
    assert_eq!(
        outcome.cache,
        CacheStatus::Bypass,
        "streams are never cached"
    );
    outcome.report.render_compact()
}

#[test]
fn session_replayed_twice_is_byte_identical() {
    let server = server(|_| {});
    let (qubits, gates) = bell_gates();
    let first = stream_via_session(&server, "bell-stream", qubits, &gates);
    let second = stream_via_session(&server, "bell-stream", qubits, &gates);
    assert_eq!(
        first, second,
        "replaying the same session must reproduce the report byte for byte"
    );

    // And both must match the in-process streaming pipeline.
    let mut direct = StreamingPipeline::open(
        qubits,
        StreamingOptions::default().with_label("bell-stream"),
    );
    for gate in &gates {
        direct.push_gate(*gate).expect("in-range gate");
    }
    let report = direct.finish().expect("direct stream compiles");
    assert_eq!(first, report.canonical_json());
}

#[test]
fn open_session_holds_a_queue_slot() {
    // One slot total: an open stream is admitted work, so a batch
    // compile behind it must degrade to a typed `overloaded` — and
    // succeed again once the session closes and releases the slot.
    let server = server(|c| c.queue_capacity = 1);
    let (qubits, gates) = bell_gates();

    let mut streamer = Client::connect(server.addr()).expect("connect streamer");
    streamer
        .session_open(&SessionOpen::new(qubits))
        .expect("session opens");

    let mut batcher = Client::connect(server.addr()).expect("connect batcher");
    let request = CompileRequest::qasm("qreg q[2]; h q[0]; cx q[0],q[1];");
    let (kind, detail) = expect_service_error(batcher.compile(&request));
    assert_eq!(kind, ErrorKind::Overloaded, "{detail}");

    // A second session behind the held slot is rejected the same way.
    let mut second = Client::connect(server.addr()).expect("connect second");
    let (kind, detail) = expect_service_error(second.session_open(&SessionOpen::new(qubits)));
    assert_eq!(kind, ErrorKind::Overloaded, "{detail}");

    streamer.session_gate(&gates).expect("gates accepted");
    streamer.session_close().expect("session closes");

    // The close released the slot before its response was written.
    batcher
        .compile(&request)
        .expect("slot free after session close");
}

#[test]
fn dropped_connection_releases_the_session_slot() {
    let server = server(|c| c.queue_capacity = 1);
    let (qubits, _) = bell_gates();
    {
        let mut streamer = Client::connect(server.addr()).expect("connect");
        streamer
            .session_open(&SessionOpen::new(qubits))
            .expect("session opens");
        // Dropped here without a close frame.
    }
    // The server notices the hangup and frees the slot; poll briefly.
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut client = Client::connect(server.addr()).expect("connect");
    loop {
        match client.session_open(&SessionOpen::new(qubits)) {
            Ok(()) => break,
            Err(ClientError::Service(e)) if e.kind == ErrorKind::Overloaded => {
                assert!(Instant::now() < deadline, "abandoned slot never released");
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(other) => panic!("unexpected failure: {other}"),
        }
    }
    client.session_close().expect("fresh session closes");
}

#[test]
fn idle_session_times_out_with_a_typed_error_and_frees_its_slot() {
    let server = server(|c| {
        c.queue_capacity = 1;
        c.session_idle_timeout_ms = 100;
    });
    let (qubits, _) = bell_gates();

    // Raw frames: the timeout arrives as an unsolicited error frame the
    // high-level client would misattribute to its next request.
    let mut stream = std::net::TcpStream::connect(server.addr()).expect("connect");
    write_frame(
        &mut stream,
        &SessionOpen::new(qubits).to_json().render_compact(),
    )
    .expect("open frame");
    let ack = read_frame(&mut stream, DEFAULT_MAX_FRAME)
        .expect("readable ack")
        .expect("ack frame");
    assert!(ack.contains("\"session\":\"open\""), "{ack}");

    // Sit idle past the deadline: the server must push a typed timeout.
    let timeout = read_frame(&mut stream, DEFAULT_MAX_FRAME)
        .expect("readable timeout frame")
        .expect("timeout frame before close");
    let doc = JsonValue::parse(&timeout).expect("valid JSON");
    assert_eq!(doc.get("status").and_then(JsonValue::as_str), Some("error"));
    assert_eq!(
        doc.get("error")
            .and_then(|e| e.get("kind"))
            .and_then(JsonValue::as_str),
        Some("timeout")
    );
    // ... and then close the connection.
    assert!(read_frame(&mut stream, DEFAULT_MAX_FRAME)
        .expect("clean close")
        .is_none());

    // The slot is free again for a fresh session.
    let mut client = Client::connect(server.addr()).expect("connect");
    client
        .session_open(&SessionOpen::new(qubits))
        .expect("slot released after idle timeout");
    client.session_close().expect("fresh session closes");
    assert_eq!(
        server.telemetry().counter("service.sessions.idle_timeout"),
        1
    );
}

#[test]
fn fault_injection_mid_stream_recovers_and_traces() {
    let server = server(|_| {});
    let mut client = Client::connect(server.addr()).expect("connect");
    let mut circuit = Circuit::new(4);
    circuit.h(0).cx(0, 1).cx(1, 2).cx(2, 3).cx(0, 3);
    let gates: Vec<Gate> = circuit.iter().map(|(_, g)| *g).collect();

    client
        .session_open(&SessionOpen::new(4).with_label("faulted").with_trace(true))
        .expect("session opens");
    client.session_gate(&gates[..2]).expect("first gates");
    client.session_step(1).expect("first step");
    client
        .session_inject(&FaultEvent::TileFailure { row: 1, col: 1 })
        .expect("tile failure lands");
    client
        .session_inject(&FaultEvent::MagicStall { steps: 2 })
        .expect("stall lands");
    client.session_gate(&gates[2..]).expect("remaining gates");
    let outcome = client
        .session_close()
        .expect("schedule completes despite faults");

    // The trace must carry the injection and the recovery.
    let trace = outcome
        .trace
        .expect("trace attached when requested")
        .render_compact();
    assert!(trace.contains("fault.injected"), "{trace}");
    assert!(trace.contains("fault.recovered"), "{trace}");
    assert!(trace.contains("tile-failure"), "{trace}");
    assert!(trace.contains("magic-stall"), "{trace}");

    // All five gates made it into the schedule.
    assert_eq!(
        outcome.report.get("gates").and_then(JsonValue::as_u64),
        Some(gates.len() as u64)
    );
}

#[test]
fn a_traced_session_feeds_no_fine_metrics_into_the_daemon() {
    let server = server(|_| {});
    let mut client = Client::connect(server.addr()).expect("connect");
    let mut circuit = Circuit::new(8);
    for q in 0..4 {
        circuit.cx(q, q + 4).cx(q + 4, (q + 1) % 4);
    }
    let gates: Vec<Gate> = circuit.iter().map(|(_, g)| *g).collect();
    client
        .session_open(&SessionOpen::new(8).with_trace(true))
        .expect("session opens");
    client.session_gate(&gates).expect("gates accepted");
    client.session_step(4).expect("steps");
    let outcome = client.session_close().expect("session closes");
    assert!(outcome.trace.is_some(), "trace attached when requested");
    // The router's per-search counter is fine-grained: the trace drops
    // it, and the ambient sinks decline it.
    assert_eq!(server.telemetry().counter("router.route.requests"), 0);
    assert_eq!(server.windowed().counter("router.route.requests"), 0);
    assert_eq!(server.telemetry().counter("service.sessions.closed"), 1);
}

#[test]
fn session_step_count_is_clamped_and_stops_at_idle() {
    let server = server(|c| c.max_session_steps = 2);
    let (qubits, gates) = bell_gates();
    let mut client = Client::connect(server.addr()).expect("connect");
    client
        .session_open(&SessionOpen::new(qubits))
        .expect("session opens");
    client.session_gate(&gates).expect("gates accepted");

    // A hostile count must not pin the connection thread or grow an
    // unbounded response: the server advances at most max_session_steps.
    let outcomes = client.session_step(u64::MAX).expect("clamped step");
    assert_eq!(outcomes.len(), 2, "{outcomes:?}");

    // The frontier drained within the clamp (local h, then the cx
    // braid); a further large count stops at the first idle outcome
    // instead of padding the response with idles.
    let outcomes = client.session_step(1_000_000).expect("idle step");
    assert_eq!(outcomes.len(), 1, "{outcomes:?}");
    assert_eq!(
        outcomes[0].get("outcome").and_then(JsonValue::as_str),
        Some("idle")
    );
    client.session_close().expect("session closes");
}

#[test]
fn invalid_gate_batch_is_rejected_atomically() {
    let server = server(|_| {});
    let mut client = Client::connect(server.addr()).expect("connect");
    let (qubits, gates) = bell_gates();
    client
        .session_open(&SessionOpen::new(qubits))
        .expect("session opens");

    // A batch whose *last* gate is out of range must reject the whole
    // frame: no prefix may land, or the client's accepted-gate count
    // desyncs from the server's frontier.
    let mut poisoned = gates.clone();
    poisoned.push(Gate::Two {
        kind: autobraid_circuit::TwoKind::Cx,
        control: 0,
        target: 99,
    });
    let (kind, detail) = expect_service_error(client.session_gate(&poisoned));
    assert_eq!(kind, ErrorKind::Parse, "{detail}");

    // The session is untouched: the valid batch is accepted in full and
    // the close report counts exactly those gates.
    let accepted = client.session_gate(&gates).expect("valid batch lands");
    assert_eq!(accepted, gates.len());
    let outcome = client.session_close().expect("session closes");
    assert_eq!(
        outcome.report.get("gates").and_then(JsonValue::as_u64),
        Some(gates.len() as u64)
    );
}

#[test]
fn session_errors_are_typed_and_keep_the_connection_usable() {
    let server = server(|_| {});
    let mut client = Client::connect(server.addr()).expect("connect");
    let (qubits, gates) = bell_gates();

    // Session verbs before any open: typed protocol errors.
    let (kind, detail) = expect_service_error(client.session_gate(&gates));
    assert_eq!(kind, ErrorKind::Protocol, "{detail}");
    let (kind, _) = expect_service_error(client.session_close());
    assert_eq!(kind, ErrorKind::Protocol);

    client
        .session_open(&SessionOpen::new(qubits))
        .expect("session opens");

    // Double-open is refused; the original session survives.
    let (kind, detail) = expect_service_error(client.session_open(&SessionOpen::new(qubits)));
    assert_eq!(kind, ErrorKind::Protocol, "{detail}");

    // An out-of-range gate is a typed parse error; the session survives.
    let wild = Gate::Two {
        kind: autobraid_circuit::TwoKind::Cx,
        control: 0,
        target: 99,
    };
    let (kind, detail) = expect_service_error(client.session_gate(&[wild]));
    assert_eq!(kind, ErrorKind::Parse, "{detail}");

    // An off-grid fault is a typed protocol error; the session survives.
    let (kind, _) =
        expect_service_error(client.session_inject(&FaultEvent::TileFailure { row: 999, col: 0 }));
    assert_eq!(kind, ErrorKind::Protocol);

    client.session_gate(&gates).expect("valid gates still land");
    client
        .session_close()
        .expect("session still closes cleanly");

    // And the connection is still good for batch work.
    client
        .compile(&CompileRequest::qasm("qreg q[2]; h q[0]; cx q[0],q[1];"))
        .expect("batch compile after session");
}

#[test]
fn corpus_replay_through_the_session_api_matches_the_direct_stream() {
    let corpus = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus");
    let mut entries: Vec<PathBuf> = std::fs::read_dir(&corpus)
        .expect("tests/corpus must exist")
        .map(|e| e.expect("readable corpus dir").path())
        .filter(|p| p.extension().is_some_and(|e| e == "qasm"))
        .collect();
    entries.sort();
    assert!(!entries.is_empty(), "corpus is empty");

    let server = server(|_| {});
    for path in entries {
        let text = std::fs::read_to_string(&path).expect("readable corpus file");
        let case = ConformanceCase::from_repro(&text)
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let label = case.circuit.name().to_string();
        let qubits = case.circuit.num_qubits().max(1);
        let gates: Vec<Gate> = case.circuit.iter().map(|(_, g)| *g).collect();

        // The in-process oracle for this entry.
        let mut direct = StreamingPipeline::open(
            qubits,
            StreamingOptions::default()
                .with_label(label.clone())
                .with_defects(case.defects.clone()),
        );
        for gate in &gates {
            direct.push_gate(*gate).expect("corpus gates are in range");
        }
        let expected = direct.finish();

        // The same entry over the wire.
        let mut client = Client::connect(server.addr()).expect("connect");
        client
            .session_open(
                &SessionOpen::new(qubits)
                    .with_label(&label)
                    .with_defects(case.defects.clone()),
            )
            .expect("session opens");
        if !gates.is_empty() {
            client.session_gate(&gates).expect("corpus gates accepted");
        }
        match (client.session_close(), expected) {
            (Ok(outcome), Ok(report)) => {
                assert_eq!(
                    outcome.report.render_compact(),
                    report.canonical_json(),
                    "{}: session report differs from the direct stream",
                    path.display()
                );
            }
            (Err(ClientError::Service(e)), Err(direct_err)) => {
                assert_eq!(
                    e.kind,
                    ErrorKind::Unsupported,
                    "{}: expected an unroutable-stream error, got {e}",
                    path.display()
                );
                assert!(
                    e.detail.contains(&direct_err.to_string()),
                    "{}: `{}` should carry `{direct_err}`",
                    path.display(),
                    e.detail
                );
            }
            (session, direct) => panic!(
                "{}: session outcome {session:?} disagrees with direct stream {direct:?}",
                path.display()
            ),
        }
    }
}
