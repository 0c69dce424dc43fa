//! End-to-end tests of the compile service over real TCP connections:
//! cache correctness (byte-identical hits, keying, eviction), the
//! graceful-degradation contract (typed `overloaded`/`timeout`
//! responses on connections that stay usable), and format ingestion.

use autobraid::pipeline::{Pipeline, Strategy};
use autobraid_circuit::Circuit;
use autobraid_conformance::ConformanceCase;
use autobraid_service::protocol::{
    read_frame, write_frame, CacheStatus, ErrorKind, DEFAULT_MAX_FRAME, PROTOCOL,
};
use autobraid_service::{Client, ClientError, CompileRequest, Server, ServiceConfig};
use autobraid_telemetry::JsonValue;
use std::time::{Duration, Instant};

fn server(configure: impl FnOnce(&mut ServiceConfig)) -> Server {
    let mut config = ServiceConfig::default();
    configure(&mut config);
    Server::start(config).expect("server failed to start")
}

const BELL_QASM: &str = "qreg q[2]; h q[0]; cx q[0],q[1];";

/// A circuit big enough that its compile reliably outlasts a 1 ms
/// deadline even on a fast machine (hundreds of two-qubit gates on a
/// wide lattice).
fn slow_qasm() -> String {
    use std::fmt::Write;
    let qubits = 36;
    let mut source = format!("qreg q[{qubits}];\n");
    for layer in 0..40 {
        let offset = layer % (qubits - 1) + 1; // never 0 mod qubits
        for q in 0..qubits {
            let _ = writeln!(source, "cx q[{}],q[{}];", q, (q + offset) % qubits);
        }
    }
    source
}

fn expect_service_error(result: Result<impl std::fmt::Debug, ClientError>) -> (ErrorKind, String) {
    match result {
        Err(ClientError::Service(e)) => (e.kind, e.detail),
        other => panic!("expected a typed service error, got {other:?}"),
    }
}

#[test]
fn cache_hit_is_byte_identical_to_cold_compile_across_thread_counts() {
    // The same circuit through a 1-thread and a 4-thread daemon, plus a
    // direct in-process compile: all three canonical reports must agree
    // byte for byte, and the warm resubmission must be a hit that
    // returns the same bytes again.
    let direct = Pipeline::new()
        .compile_qasm(BELL_QASM)
        .expect("direct compile")
        .canonical_json();
    for threads in [1, 4] {
        let server = server(|c| c.threads = threads);
        let mut client = Client::connect(server.addr()).expect("connect");
        let request = CompileRequest::qasm(BELL_QASM);
        let cold = client.compile(&request).expect("cold compile");
        let warm = client.compile(&request).expect("warm compile");
        assert_eq!(cold.cache, CacheStatus::Miss, "threads={threads}");
        assert_eq!(warm.cache, CacheStatus::Hit, "threads={threads}");
        assert_eq!(cold.report.render_compact(), direct, "threads={threads}");
        assert_eq!(
            warm.report.render_compact(),
            cold.report.render_compact(),
            "threads={threads}: hit must be byte-identical to the cold compile"
        );
    }
}

#[test]
fn formatting_differences_share_one_cache_entry() {
    // The key is the *re-emitted* canonical QASM, so whitespace and
    // comment differences in the submission must not fragment the cache.
    let server = server(|_| {});
    let mut client = Client::connect(server.addr()).expect("connect");
    let cold = client
        .compile(&CompileRequest::qasm(BELL_QASM))
        .expect("cold");
    let reformatted = "// a comment\nqreg  q[2] ;\n h q[0];\ncx q[0], q[1];";
    let warm = client
        .compile(&CompileRequest::qasm(reformatted))
        .expect("warm");
    assert_eq!(cold.cache, CacheStatus::Miss);
    assert_eq!(warm.cache, CacheStatus::Hit);
    assert_eq!(warm.report.render_compact(), cold.report.render_compact());
}

#[test]
fn geometry_or_option_changes_are_misses() {
    let server = server(|_| {});
    let mut client = Client::connect(server.addr()).expect("connect");
    let base = CompileRequest::qasm(BELL_QASM);
    assert_eq!(
        client.compile(&base).expect("base").cache,
        CacheStatus::Miss
    );
    assert_eq!(client.compile(&base).expect("base").cache, CacheStatus::Hit);

    // A different code distance is a different lattice: miss.
    let rescaled = base.clone().with_distance(9);
    assert_eq!(
        client.compile(&rescaled).expect("distance").cache,
        CacheStatus::Miss
    );
    // A different strategy is a different compiler: miss.
    let restrategized = base.clone().with_strategy(Strategy::Baseline);
    assert_eq!(
        client.compile(&restrategized).expect("strategy").cache,
        CacheStatus::Miss
    );
    // Toggling the optimizer changes the compiled artifact: miss.
    let unoptimized = base.clone().with_optimize(false);
    assert_eq!(
        client.compile(&unoptimized).expect("optimize").cache,
        CacheStatus::Miss
    );
    // And each variant then hits its own entry.
    assert_eq!(
        client.compile(&rescaled).expect("distance warm").cache,
        CacheStatus::Hit
    );
    // Telemetry/trace/no-cache requests bypass the cache entirely.
    let bypass = base.clone().with_telemetry(true);
    let outcome = client.compile(&bypass).expect("telemetry");
    assert_eq!(outcome.cache, CacheStatus::Bypass);
    assert!(outcome.telemetry.is_some(), "telemetry payload attached");
    assert_eq!(
        client
            .compile(&base.clone().with_cache(false))
            .expect("no-cache")
            .cache,
        CacheStatus::Bypass
    );
}

#[test]
fn lru_eviction_is_visible_in_stats() {
    let server = server(|c| c.cache_capacity = 1);
    let mut client = Client::connect(server.addr()).expect("connect");
    let one = CompileRequest::qasm(BELL_QASM);
    let two = CompileRequest::qasm("qreg q[3]; h q[0]; cx q[0],q[1]; cx q[1],q[2];");
    assert_eq!(client.compile(&one).expect("one").cache, CacheStatus::Miss);
    assert_eq!(client.compile(&two).expect("two").cache, CacheStatus::Miss);
    // `two` evicted `one` from the single slot.
    assert_eq!(
        client.compile(&one).expect("one again").cache,
        CacheStatus::Miss
    );
    let stats = server.cache_stats();
    assert!(stats.evictions >= 2, "evictions recorded: {stats:?}");
    assert_eq!(stats.entries, 1);
    // The metrics frame's cache gauges carry the same count.
    let frame = client.metrics().expect("metrics");
    let evictions = frame
        .get("gauges")
        .and_then(|g| g.get("cache"))
        .and_then(|c| c.get("evictions"))
        .and_then(JsonValue::as_u64);
    assert_eq!(evictions, Some(stats.evictions));
}

#[test]
fn overload_and_timeout_degrade_gracefully() {
    // One worker, one queue slot. A compile that blows its 1 ms
    // deadline gets a typed `timeout` — but its abandoned job keeps the
    // slot, so the next submission gets a typed `overloaded`. Both
    // arrive on a connection that stays usable, and once the worker
    // drains, the same connection compiles again.
    let server = server(|c| {
        c.threads = 1;
        c.queue_capacity = 1;
    });
    let mut client = Client::connect(server.addr()).expect("connect");

    let slow = CompileRequest::qasm(slow_qasm()).with_timeout_ms(1);
    let (kind, detail) = expect_service_error(client.compile(&slow));
    assert_eq!(kind, ErrorKind::Timeout, "{detail}");

    // The abandoned compile still occupies the only slot.
    let quick = CompileRequest::qasm(BELL_QASM);
    let (kind, detail) = expect_service_error(client.compile(&quick));
    assert_eq!(kind, ErrorKind::Overloaded, "{detail}");

    // Same connection, after the worker drains: fully serviceable.
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        match client.compile(&quick) {
            Ok(outcome) => {
                assert_eq!(outcome.cache, CacheStatus::Miss);
                break;
            }
            Err(ClientError::Service(e)) if e.kind == ErrorKind::Overloaded => {
                assert!(Instant::now() < deadline, "worker never drained");
                std::thread::sleep(Duration::from_millis(50));
            }
            Err(other) => panic!("unexpected failure: {other}"),
        }
    }
    assert_eq!(
        client.compile(&quick).expect("warm").cache,
        CacheStatus::Hit
    );
    let snapshot = server.telemetry();
    assert_eq!(snapshot.counter("service.timeouts"), 1);
    // The drain-polling loop above may itself have been told
    // `overloaded` several times; at least the first rejection counts.
    assert!(snapshot.counter("service.overloaded") >= 1);
}

#[test]
fn conformance_repros_compile_and_defect_overlays_are_rejected() {
    let server = server(|_| {});
    let mut client = Client::connect(server.addr()).expect("connect");

    let mut circuit = Circuit::named(3, "repro circuit");
    circuit.h(0).cx(0, 1).cx(1, 2);
    let clean = ConformanceCase::new(circuit.clone(), 7);
    let outcome = client
        .compile(&CompileRequest::conformance(clean.to_repro()))
        .expect("clean repro compiles");
    assert_eq!(outcome.cache, CacheStatus::Miss);
    assert_eq!(
        outcome.report.get("circuit").and_then(|v| v.as_str()),
        Some("repro circuit")
    );

    let defective = ConformanceCase {
        circuit,
        defects: vec![(1, 1)],
        seed: 7,
    };
    let (kind, detail) =
        expect_service_error(client.compile(&CompileRequest::conformance(defective.to_repro())));
    assert_eq!(kind, ErrorKind::Unsupported);
    assert!(detail.contains("defective"), "{detail}");
}

#[test]
fn parse_errors_are_typed_and_do_not_poison_the_connection() {
    let server = server(|_| {});
    let mut client = Client::connect(server.addr()).expect("connect");
    let (kind, _) = expect_service_error(client.compile(&CompileRequest::qasm("qreg q[2")));
    assert_eq!(kind, ErrorKind::Parse);
    // A repro submitted as QASM parses (comments are stripped), but
    // QASM submitted as a repro is a typed parse error.
    let (kind, detail) =
        expect_service_error(client.compile(&CompileRequest::conformance(BELL_QASM)));
    assert_eq!(kind, ErrorKind::Parse);
    assert!(detail.contains("not a conformance repro"), "{detail}");
    // The connection survives every typed error.
    client.ping().expect("connection still usable");
    assert_eq!(
        client
            .compile(&CompileRequest::qasm(BELL_QASM))
            .expect("compiles after errors")
            .cache,
        CacheStatus::Miss
    );
}

#[test]
fn deeply_nested_frame_is_a_protocol_error_not_a_crash() {
    let server = server(|_| {});
    // Raw frames: the nested document is far too deep to build as a
    // `JsonValue` on the test side.
    let mut stream = std::net::TcpStream::connect(server.addr()).expect("connect");
    let mut exchange = |payload: &str| {
        write_frame(&mut stream, payload).expect("request frame");
        let frame = read_frame(&mut stream, DEFAULT_MAX_FRAME)
            .expect("readable response")
            .expect("response frame");
        JsonValue::parse(&frame).expect("valid JSON")
    };

    // ~10 KB of `[`: well under the frame cap, far past the nesting cap.
    let nested = exchange(&"[".repeat(10_000));
    assert_eq!(
        nested.get("status").and_then(JsonValue::as_str),
        Some("error")
    );
    let error = nested.get("error").expect("error body");
    assert_eq!(
        error.get("kind").and_then(JsonValue::as_str),
        Some("protocol")
    );
    let detail = error
        .get("detail")
        .and_then(JsonValue::as_str)
        .unwrap_or("");
    assert!(detail.contains("nesting"), "{detail}");

    // The daemon and the connection both survive.
    let ping = JsonValue::object([
        ("proto", JsonValue::from(PROTOCOL)),
        ("kind", JsonValue::from("ping")),
    ]);
    let pong = exchange(&ping.render_compact());
    assert_eq!(pong.get("kind").and_then(JsonValue::as_str), Some("pong"));
}

#[test]
fn oversized_registers_get_typed_errors_and_the_daemon_survives() {
    let server = server(|_| {});
    // Raw frames: a `SessionOpen` cannot even hold these widths.
    let mut stream = std::net::TcpStream::connect(server.addr()).expect("connect");
    let mut exchange = |payload: JsonValue| {
        write_frame(&mut stream, &payload.render_compact()).expect("request frame");
        let frame = read_frame(&mut stream, DEFAULT_MAX_FRAME)
            .expect("readable response")
            .expect("response frame");
        JsonValue::parse(&frame).expect("valid JSON")
    };
    let frame = |kind: &str, field: &str, value: JsonValue| {
        JsonValue::object([
            ("proto", JsonValue::from(PROTOCOL)),
            ("kind", JsonValue::from(kind)),
            (field, value),
        ])
    };
    let error_kind = |reply: &JsonValue| {
        assert_eq!(
            reply.get("status").and_then(JsonValue::as_str),
            Some("error"),
            "{}",
            reply.render_compact()
        );
        reply
            .get("error")
            .and_then(|e| e.get("kind"))
            .and_then(JsonValue::as_str)
            .map(str::to_string)
    };

    // Wider than the ceiling: refused before the lattice is allocated.
    let wide = exchange(frame(
        "session.open",
        "qubits",
        JsonValue::from(4_000_000_000u64),
    ));
    assert_eq!(error_kind(&wide).as_deref(), Some("unsupported"));
    // Past u32: refused, not wrapped into a 2-qubit session.
    let wrapped = exchange(frame(
        "session.open",
        "qubits",
        JsonValue::from(4_294_967_298u64),
    ));
    assert_eq!(error_kind(&wrapped).as_deref(), Some("protocol"));
    // A compile whose register is wider than the ceiling.
    let source = exchange(frame(
        "compile",
        "source",
        JsonValue::from("qreg q[4000000000]; h q[0];"),
    ));
    assert_eq!(error_kind(&source).as_deref(), Some("unsupported"));

    let pong = exchange(JsonValue::object([
        ("proto", JsonValue::from(PROTOCOL)),
        ("kind", JsonValue::from("ping")),
    ]));
    assert_eq!(pong.get("kind").and_then(JsonValue::as_str), Some("pong"));
}

#[test]
fn stats_report_counters_cache_and_latency() {
    let server = server(|_| {});
    let mut client = Client::connect(server.addr()).expect("connect");
    client.ping().expect("ping");
    let request = CompileRequest::qasm(BELL_QASM);
    client.compile(&request).expect("cold");
    client.compile(&request).expect("warm");
    let frame = client.metrics().expect("metrics");
    let lifetime = frame.get("lifetime").expect("lifetime block");
    let counter = |name: &str| {
        lifetime
            .get("counters")
            .and_then(|c| c.get(name))
            .and_then(|v| v.as_u64())
            .unwrap_or(0)
    };
    assert_eq!(counter("service.requests.ping"), 1);
    assert_eq!(counter("service.requests.compile"), 2);
    let gauges = frame.get("gauges").expect("gauges block");
    let cache = gauges.get("cache").expect("cache block");
    assert_eq!(cache.get("hits").and_then(|v| v.as_u64()), Some(1));
    assert_eq!(cache.get("misses").and_then(|v| v.as_u64()), Some(1));
    assert_eq!(cache.get("evictions").and_then(|v| v.as_u64()), Some(0));
    let latency = lifetime_latency(&frame);
    assert_eq!(latency.get("count").and_then(|v| v.as_u64()), Some(2));
    assert!(latency.get("p99").and_then(|v| v.as_f64()).unwrap_or(-1.0) >= 0.0);
    // The queue is idle again.
    assert_eq!(gauges.get("in_flight").and_then(|v| v.as_u64()), Some(0));
}

/// The lifetime `service.latency_ms` histogram of a `metrics` frame.
fn lifetime_latency(frame: &JsonValue) -> &JsonValue {
    frame
        .get("lifetime")
        .and_then(|l| l.get("histograms"))
        .and_then(|h| h.get("service.latency_ms"))
        .expect("latency histogram")
}

#[test]
fn latency_histogram_covers_the_whole_compile_request() {
    let server = server(|_| {});
    let mut client = Client::connect(server.addr()).expect("connect");
    let request = CompileRequest::qasm(BELL_QASM);
    let miss = client.compile(&request).expect("cold");
    let hit = client.compile(&request).expect("warm");
    assert_eq!(
        (miss.cache, hit.cache),
        (CacheStatus::Miss, CacheStatus::Hit)
    );
    let frame = client.metrics().expect("metrics");
    let latency = lifetime_latency(&frame);
    let count = latency.get("count").and_then(|v| v.as_u64());
    let mean = latency.get("mean").and_then(|v| v.as_f64()).expect("mean");
    assert_eq!(count, Some(2));
    // Each observation is taken once the response frame is rendered,
    // after the span the response's own `elapsed_ms` reports ends.
    assert!(
        2.0 * mean > miss.elapsed_ms + hit.elapsed_ms,
        "latency mean {mean} ms does not cover elapsed {} + {} ms",
        miss.elapsed_ms,
        hit.elapsed_ms
    );
}

#[test]
fn ping_and_metrics_carry_version_and_uptime() {
    let server = server(|_| {});
    let mut client = Client::connect(server.addr()).expect("connect");
    for frame in [
        client.ping().expect("ping"),
        client.metrics().expect("metrics"),
    ] {
        assert_eq!(
            frame.get("version").and_then(|v| v.as_str()),
            Some(env!("CARGO_PKG_VERSION"))
        );
        assert!(frame.get("uptime_ms").and_then(|v| v.as_u64()).is_some());
    }
}

#[test]
fn metrics_frame_has_window_lifetime_and_gauges_and_advances() {
    let server = server(|_| {});
    let mut client = Client::connect(server.addr()).expect("connect");
    client
        .compile(&CompileRequest::qasm(BELL_QASM))
        .expect("compile");
    let first = client.metrics().expect("metrics");
    assert_eq!(
        first.get("schema").and_then(|v| v.as_str()),
        Some("autobraid.metrics/v1")
    );
    let windowed = |frame: &autobraid_telemetry::JsonValue, name: &str| {
        frame
            .get("window")
            .and_then(|w| w.get("counters"))
            .and_then(|c| c.get(name))
            .and_then(|v| v.as_u64())
            .unwrap_or(0)
    };
    assert_eq!(windowed(&first, "service.requests.compile"), 1);
    // Lifetime aggregates ride along in the telemetry/v1 layout.
    let lifetime = first.get("lifetime").expect("lifetime block");
    assert_eq!(
        lifetime.get("schema").and_then(|v| v.as_str()),
        Some("autobraid.telemetry/v1")
    );
    // Point-in-time gauges: queue, sessions, cache, flight ring.
    let gauges = first.get("gauges").expect("gauges block");
    assert_eq!(gauges.get("in_flight").and_then(|v| v.as_u64()), Some(0));
    assert!(gauges.get("cache").and_then(|c| c.get("entries")).is_some());
    let flight = gauges.get("flight").expect("flight gauges");
    assert!(flight.get("capacity").and_then(|v| v.as_u64()).unwrap_or(0) > 0);
    // A second scrape sees the first one land in the window.
    let second = client.metrics().expect("metrics again");
    assert!(windowed(&second, "service.requests.metrics") >= 1);
}

#[test]
fn flight_dump_is_written_on_error_and_parses_as_chrome_trace() {
    let dir = std::env::temp_dir().join(format!("autobraid-flight-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let server = server(|c| c.dump_dir = dir.to_string_lossy().into_owned());
    let mut client = Client::connect(server.addr()).expect("connect");
    let (kind, _) = expect_service_error(client.compile(&CompileRequest::qasm("qreg q[2")));
    assert_eq!(kind, ErrorKind::Parse);
    // The dump is written before the error response, so it is on disk
    // by the time the client sees the reply.
    let dumps: Vec<_> = std::fs::read_dir(&dir)
        .expect("dump dir exists")
        .map(|e| e.expect("entry").path())
        .collect();
    assert_eq!(dumps.len(), 1, "one dump for the one failed request");
    let name = dumps[0].file_name().unwrap().to_string_lossy().into_owned();
    assert!(
        name.starts_with("req-") && name.ends_with("-parse.trace.json"),
        "dump name carries request id and reason: {name}"
    );
    let text = std::fs::read_to_string(&dumps[0]).expect("dump readable");
    let json = autobraid_telemetry::JsonValue::parse(&text).expect("dump is valid JSON");
    // Chrome's bare-array trace format: a flat list of event objects.
    let events = json.as_array().expect("chrome trace events");
    assert!(!events.is_empty(), "dump holds the request's events");
    // The dump covers exactly the failed request: its begin marker is in there.
    let rendered = json.render_compact();
    assert!(rendered.contains("request"), "request demarcation present");
    // The daemon counted the dump.
    assert_eq!(lifetime_counter(&mut client, "service.flight.dumps"), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn slow_request_threshold_triggers_a_dump() {
    let dir = std::env::temp_dir().join(format!("autobraid-slow-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let server = server(|c| {
        c.dump_dir = dir.to_string_lossy().into_owned();
        c.slow_request_ms = 1; // any real compile crosses 1 ms
    });
    let mut client = Client::connect(server.addr()).expect("connect");
    client
        .compile(&CompileRequest::qasm(slow_qasm()))
        .expect("slow but successful compile");
    let slow_dumps = std::fs::read_dir(&dir)
        .expect("dump dir exists")
        .filter(|e| {
            e.as_ref()
                .unwrap()
                .file_name()
                .to_string_lossy()
                .ends_with("-slow.trace.json")
        })
        .count();
    assert_eq!(slow_dumps, 1, "the slow compile dumped its flight history");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn canonical_report_is_byte_identical_with_ambient_observability() {
    use autobraid_telemetry::{AmbientStack, MemoryRecorder};
    use std::sync::Arc;
    let bare = Pipeline::new()
        .compile_qasm(BELL_QASM)
        .expect("bare compile")
        .canonical_json();
    let ambient = AmbientStack::new();
    let observed = {
        let _guard = ambient.install();
        Pipeline::new()
            .compile_qasm(BELL_QASM)
            .expect("observed compile")
            .canonical_json()
    };
    assert_eq!(bare, observed, "observability must not perturb results");
    // The full-fidelity path agrees too.
    let full = {
        let _guard = autobraid_telemetry::install(Arc::new(MemoryRecorder::new()));
        Pipeline::new()
            .compile_qasm(BELL_QASM)
            .expect("fully profiled compile")
            .canonical_json()
    };
    assert_eq!(bare, full);
}

/// The lifetime counter `name` of a `metrics` frame (0 when unset).
fn lifetime_counter(client: &mut Client, name: &str) -> u64 {
    let frame = client.metrics().expect("metrics");
    frame
        .get("lifetime")
        .and_then(|l| l.get("counters"))
        .and_then(|c| c.get(name))
        .and_then(JsonValue::as_u64)
        .unwrap_or(0)
}

#[test]
fn one_source_under_two_labels_gives_two_reports_with_their_own_labels() {
    let server = server(|_| {});
    let mut client = Client::connect(server.addr()).expect("connect");
    let compile = |client: &mut Client, label: &str| {
        let outcome = client
            .compile(&CompileRequest::qasm(BELL_QASM).with_label(label))
            .expect("compile");
        let name = outcome
            .report
            .get("circuit")
            .and_then(JsonValue::as_str)
            .map(str::to_string);
        (outcome.cache, name)
    };
    assert_eq!(
        compile(&mut client, "alpha"),
        (CacheStatus::Miss, Some("alpha".into()))
    );
    // The memo knows the source, but the label is part of the key.
    assert_eq!(
        compile(&mut client, "beta"),
        (CacheStatus::Miss, Some("beta".into()))
    );
    assert_eq!(
        compile(&mut client, "alpha"),
        (CacheStatus::Hit, Some("alpha".into()))
    );
    assert_eq!(
        compile(&mut client, "beta"),
        (CacheStatus::Hit, Some("beta".into()))
    );
    assert_eq!(server.cache_stats().memo_entries, 1);
    assert_eq!(
        lifetime_counter(&mut client, "service.cache.source_memo_hit"),
        3
    );
}

#[test]
fn unparseable_source_is_a_parse_error_every_time_and_never_memoized() {
    let server = server(|_| {});
    let mut client = Client::connect(server.addr()).expect("connect");
    let bad = CompileRequest::qasm("qreg q[2];\ncx q[0],q[7];");
    for _ in 0..3 {
        let (kind, _) = expect_service_error(client.compile(&bad));
        assert_eq!(kind, ErrorKind::Parse);
    }
    assert_eq!(server.cache_stats().memo_entries, 0);
    assert_eq!(
        lifetime_counter(&mut client, "service.cache.source_memo_hit"),
        0
    );
    // The connection and the memo still work for a good source.
    client
        .compile(&CompileRequest::qasm(BELL_QASM))
        .expect("good");
    assert_eq!(server.cache_stats().memo_entries, 1);
}

#[test]
fn the_memo_is_bounded_by_the_cache_capacity() {
    let sources: Vec<String> = (1..=5)
        .map(|n| format!("qreg q[{}]; h q[0]; cx q[0],q[{n}];", n + 1))
        .collect();
    let bounded = server(|c| c.cache_capacity = 2);
    let mut client = Client::connect(bounded.addr()).expect("connect");
    for source in &sources {
        client
            .compile(&CompileRequest::qasm(source))
            .expect("compile");
        assert!(bounded.cache_stats().memo_entries <= 2);
    }
    assert_eq!(bounded.cache_stats().memo_entries, 2);

    // Capacity 0 memoizes nothing: every resubmission parses again.
    let disabled = server(|c| c.cache_capacity = 0);
    let mut client = Client::connect(disabled.addr()).expect("connect");
    for _ in 0..3 {
        let outcome = client
            .compile(&CompileRequest::qasm(&sources[0]))
            .expect("compile");
        assert_eq!(outcome.cache, CacheStatus::Miss);
    }
    assert_eq!(disabled.cache_stats().memo_entries, 0);
    assert_eq!(
        lifetime_counter(&mut client, "service.cache.source_memo_hit"),
        0
    );
}
