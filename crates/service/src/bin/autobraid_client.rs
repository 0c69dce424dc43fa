//! `autobraid-client` — command-line client for `autobraidd`.
//!
//! ```text
//! autobraid-client --addr HOST:PORT ping
//! autobraid-client --addr HOST:PORT compile FILE [--label NAME]
//!     [--format qasm|conformance] [--strategy NAME] [--no-cache]
//!     [--telemetry] [--trace] [--distance D] [--timeout-ms MS]
//! autobraid-client --addr HOST:PORT stream FILE [--label NAME]
//!     [--strategy NAME] [--fault-row R] [--fault-col C] [--stall N]
//!     [--trace-out PATH]
//! autobraid-client --addr HOST:PORT metrics [--prom]
//! autobraid-client --addr HOST:PORT top [--interval-ms MS] [--iterations N]
//! ```
//!
//! `compile` auto-detects conformance repro files by their
//! `// autobraid.conformance/v1` header; `FILE` may be `-` for stdin.
//! The first output line is `cache=<hit|miss|bypass>` (stable for
//! scripting), followed by the canonical report JSON.
//!
//! `stream` drives the circuit through a streaming session instead:
//! half the gates are pushed, a tile failure and a magic-state stall
//! are injected mid-frontier, then the rest streams in and the session
//! closes. The stable output lines `gates=`, `fault.injected=`, and
//! `fault.recovered=` let CI assert recovery; `--trace-out` writes the
//! session's Chrome trace for artifact upload.
//!
//! `metrics` fetches the `autobraid.metrics/v1` frame (pretty JSON by
//! default; `--prom` renders a Prometheus-style text exposition for
//! scrapers). `top` is a live ANSI dashboard that redraws the windowed
//! latency percentiles, throughput, cache hit-rate, admission queue,
//! and session gauges every `--interval-ms` (forever, or for
//! `--iterations` refreshes when scripted). See `docs/METRICS.md`.

use autobraid::pipeline::Strategy;
use autobraid::streaming::FaultEvent;
use autobraid_circuit::{qasm, Gate};
use autobraid_service::protocol::{parse_strategy, SessionOpen, SourceFormat};
use autobraid_service::{Client, CompileRequest};
use autobraid_telemetry::JsonValue;
use std::io::Read;

fn usage() -> ! {
    eprintln!(
        "usage: autobraid-client --addr HOST:PORT \
         <ping|metrics|top|compile FILE|stream FILE> \
         [--label NAME] [--format qasm|conformance] [--strategy NAME] \
         [--no-cache] [--telemetry] [--trace] [--distance D] [--timeout-ms MS] \
         [--fault-row R] [--fault-col C] [--stall N] [--trace-out PATH] \
         [--prom] [--interval-ms MS] [--iterations N]"
    );
    std::process::exit(2)
}

fn fail(message: impl std::fmt::Display) -> ! {
    eprintln!("autobraid-client: {message}");
    std::process::exit(1)
}

struct Args {
    addr: Option<String>,
    command: Option<String>,
    file: Option<String>,
    label: Option<String>,
    format: Option<SourceFormat>,
    strategy: Option<Strategy>,
    no_cache: bool,
    telemetry: bool,
    trace: bool,
    distance: Option<u32>,
    timeout_ms: Option<u64>,
    fault_row: u32,
    fault_col: u32,
    stall: u64,
    trace_out: Option<String>,
    prom: bool,
    interval_ms: u64,
    iterations: u64,
}

fn parse_args() -> Args {
    let mut parsed = Args {
        addr: None,
        command: None,
        file: None,
        label: None,
        format: None,
        strategy: None,
        no_cache: false,
        telemetry: false,
        trace: false,
        distance: None,
        timeout_ms: None,
        fault_row: 1,
        fault_col: 1,
        stall: 2,
        trace_out: None,
        prom: false,
        interval_ms: 1000,
        iterations: 0,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("autobraid-client: {flag} needs a value");
                usage()
            })
        };
        match arg.as_str() {
            "--addr" => parsed.addr = Some(value("--addr")),
            "--label" => parsed.label = Some(value("--label")),
            "--format" => {
                let name = value("--format");
                parsed.format = Some(
                    SourceFormat::from_name(&name)
                        .unwrap_or_else(|| fail(format!("unknown format `{name}`"))),
                );
            }
            "--strategy" => {
                let name = value("--strategy");
                parsed.strategy = Some(parse_strategy(&name).unwrap_or_else(|e| fail(e.detail)));
            }
            "--no-cache" => parsed.no_cache = true,
            "--telemetry" => parsed.telemetry = true,
            "--trace" => parsed.trace = true,
            "--distance" => {
                parsed.distance = Some(
                    value("--distance")
                        .parse()
                        .unwrap_or_else(|_| fail("bad --distance")),
                )
            }
            "--timeout-ms" => {
                parsed.timeout_ms = Some(
                    value("--timeout-ms")
                        .parse()
                        .unwrap_or_else(|_| fail("bad --timeout-ms")),
                )
            }
            "--fault-row" => {
                parsed.fault_row = value("--fault-row")
                    .parse()
                    .unwrap_or_else(|_| fail("bad --fault-row"))
            }
            "--fault-col" => {
                parsed.fault_col = value("--fault-col")
                    .parse()
                    .unwrap_or_else(|_| fail("bad --fault-col"))
            }
            "--stall" => {
                parsed.stall = value("--stall")
                    .parse()
                    .unwrap_or_else(|_| fail("bad --stall"))
            }
            "--trace-out" => parsed.trace_out = Some(value("--trace-out")),
            "--prom" => parsed.prom = true,
            "--interval-ms" => {
                parsed.interval_ms = value("--interval-ms")
                    .parse()
                    .unwrap_or_else(|_| fail("bad --interval-ms"))
            }
            "--iterations" => {
                parsed.iterations = value("--iterations")
                    .parse()
                    .unwrap_or_else(|_| fail("bad --iterations"))
            }
            "--help" | "-h" => usage(),
            other if other.starts_with("--") => {
                eprintln!("autobraid-client: unknown flag `{other}`");
                usage()
            }
            other if parsed.command.is_none() => parsed.command = Some(other.to_string()),
            other if parsed.file.is_none() => parsed.file = Some(other.to_string()),
            other => {
                eprintln!("autobraid-client: unexpected argument `{other}`");
                usage()
            }
        }
    }
    parsed
}

fn main() {
    let args = parse_args();
    let addr = args.addr.clone().unwrap_or_else(|| {
        eprintln!("autobraid-client: --addr is required");
        usage()
    });
    let mut client =
        Client::connect(&addr).unwrap_or_else(|e| fail(format!("cannot connect to {addr}: {e}")));
    match args.command.as_deref() {
        Some("ping") => {
            let pong = client.ping().unwrap_or_else(|e| fail(e));
            println!(
                "pong version={} uptime_ms={}",
                pong.get("version")
                    .and_then(JsonValue::as_str)
                    .unwrap_or("?"),
                pong.get("uptime_ms")
                    .and_then(JsonValue::as_u64)
                    .unwrap_or(0),
            );
        }
        Some("metrics") => run_metrics(&mut client, &args),
        Some("top") => run_top(&mut client, &addr, &args),
        Some("compile") => run_compile(&mut client, &args),
        Some("stream") => run_stream(&mut client, &args),
        _ => usage(),
    }
}

/// The scrape path: fetch one `autobraid.metrics/v1` frame and print
/// it, either as pretty JSON or as a Prometheus-style text exposition.
fn run_metrics(client: &mut Client, args: &Args) {
    let frame = client.metrics().unwrap_or_else(|e| fail(e));
    if args.prom {
        print!("{}", prometheus_exposition(&frame));
    } else {
        println!("{}", frame.render_pretty());
    }
}

/// Maps a dotted metric name onto the Prometheus charset
/// (`[a-zA-Z0-9_]`, no leading digit thanks to the `autobraid_`
/// prefix every caller adds).
fn prom_name(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// Renders the metrics frame as Prometheus text exposition format.
/// Lifetime series keep the plain `autobraid_` prefix; the rolling
/// window is a different time basis, so its series get
/// `autobraid_window_` instead of a label (scrapers must never sum
/// the two). Histograms come out as summaries with quantile labels.
fn prometheus_exposition(frame: &JsonValue) -> String {
    let mut out = String::new();
    let version = frame
        .get("version")
        .and_then(JsonValue::as_str)
        .unwrap_or("unknown");
    out.push_str("# TYPE autobraid_build_info gauge\n");
    out.push_str(&format!(
        "autobraid_build_info{{version=\"{version}\"}} 1\n"
    ));
    out.push_str("# TYPE autobraid_uptime_milliseconds gauge\n");
    out.push_str(&format!(
        "autobraid_uptime_milliseconds {}\n",
        frame
            .get("uptime_ms")
            .and_then(JsonValue::as_u64)
            .unwrap_or(0)
    ));
    for (section, prefix) in [("lifetime", "autobraid"), ("window", "autobraid_window")] {
        let Some(doc) = frame.get(section) else {
            continue;
        };
        if let Some(JsonValue::Object(counters)) = doc.get("counters") {
            for (name, value) in counters {
                let metric = format!("{prefix}_{}_total", prom_name(name));
                out.push_str(&format!("# TYPE {metric} counter\n"));
                out.push_str(&format!("{metric} {}\n", value.as_u64().unwrap_or(0)));
            }
        }
        if let Some(JsonValue::Object(histograms)) = doc.get("histograms") {
            for (name, h) in histograms {
                let metric = format!("{prefix}_{}", prom_name(name));
                let field = |key: &str| h.get(key).and_then(JsonValue::as_f64).unwrap_or(0.0);
                out.push_str(&format!("# TYPE {metric} summary\n"));
                for (quantile, key) in [("0.5", "p50"), ("0.9", "p90"), ("0.99", "p99")] {
                    out.push_str(&format!(
                        "{metric}{{quantile=\"{quantile}\"}} {}\n",
                        field(key)
                    ));
                }
                out.push_str(&format!("{metric}_sum {}\n", field("sum")));
                out.push_str(&format!(
                    "{metric}_count {}\n",
                    h.get("count").and_then(JsonValue::as_u64).unwrap_or(0)
                ));
            }
        }
    }
    if let Some(gauges) = frame.get("gauges") {
        push_prom_gauges(&mut out, "autobraid", gauges);
    }
    out
}

/// Flattens the (possibly nested) `gauges` object into
/// `autobraid_<path>` gauge lines.
fn push_prom_gauges(out: &mut String, prefix: &str, doc: &JsonValue) {
    let JsonValue::Object(fields) = doc else {
        return;
    };
    for (name, value) in fields {
        let path = format!("{prefix}_{}", prom_name(name));
        match value {
            JsonValue::Object(_) => push_prom_gauges(out, &path, value),
            other => {
                out.push_str(&format!("# TYPE {path} gauge\n"));
                out.push_str(&format!("{path} {}\n", other.as_f64().unwrap_or(0.0)));
            }
        }
    }
}

/// The live dashboard: redraw a fixed-height ANSI frame from the
/// windowed metrics every interval. `--iterations 0` runs until the
/// process is killed; a nonzero count makes it scriptable (CI renders
/// one frame and exits).
fn run_top(client: &mut Client, addr: &str, args: &Args) {
    let interval = std::time::Duration::from_millis(args.interval_ms.max(50));
    let mut remaining = args.iterations;
    loop {
        let frame = client.metrics().unwrap_or_else(|e| fail(e));
        // Clear screen + home, then redraw; plain ANSI keeps this
        // std-only and works in any terminal CI gives us.
        print!("\x1b[2J\x1b[H{}", render_top(addr, &frame, interval));
        let _ = std::io::Write::flush(&mut std::io::stdout());
        if args.iterations > 0 {
            remaining -= 1;
            if remaining == 0 {
                break;
            }
        }
        std::thread::sleep(interval);
    }
}

/// Formats one dashboard frame from a metrics response.
fn render_top(addr: &str, frame: &JsonValue, interval: std::time::Duration) -> String {
    let str_at = |doc: &JsonValue, path: &[&str]| -> Option<String> {
        let mut node = doc.clone();
        for key in path {
            node = node.get(key)?.clone();
        }
        node.as_str().map(str::to_string)
    };
    let num = |doc: &JsonValue, path: &[&str]| -> f64 {
        let mut node = Some(doc);
        for key in path {
            node = node.and_then(|n| n.get(key));
        }
        node.and_then(JsonValue::as_f64).unwrap_or(0.0)
    };

    let version = str_at(frame, &["version"]).unwrap_or_else(|| "?".into());
    let uptime_s = num(frame, &["uptime_ms"]) / 1000.0;
    let window_s = num(frame, &["window", "window_seconds"]).max(1.0);

    let p50 = num(
        frame,
        &["window", "histograms", "service.latency_ms", "p50"],
    );
    let p99 = num(
        frame,
        &["window", "histograms", "service.latency_ms", "p99"],
    );
    let latency_n = num(
        frame,
        &["window", "histograms", "service.latency_ms", "count"],
    );

    let windowed_counter = |name: &str| num(frame, &["window", "counters", name]);
    let requests = windowed_counter("service.requests.ping")
        + windowed_counter("service.requests.metrics")
        + windowed_counter("service.requests.compile")
        + windowed_counter("service.requests.session");
    let hits = windowed_counter("service.cache.hit");
    let misses = windowed_counter("service.cache.miss");
    let lookups = hits + misses;
    let hit_rate = if lookups > 0.0 {
        100.0 * hits / lookups
    } else {
        0.0
    };

    let mut out = String::new();
    out.push_str(&format!(
        "autobraid top — {addr} — v{version} up {uptime_s:.0}s (refresh {:.1}s)\n\n",
        interval.as_secs_f64()
    ));
    out.push_str(&format!(
        "  latency ({window_s:.0}s window)  p50 {p50:.2} ms   p99 {p99:.2} ms   n {latency_n:.0}\n"
    ));
    out.push_str(&format!(
        "  throughput           {:.1} req/s ({requests:.0} requests in window)\n",
        requests / window_s
    ));
    out.push_str(&format!(
        "  cache                hit {hit_rate:.1}%  hits {hits:.0}  misses {misses:.0}  \
         entries {:.0}/{:.0}\n",
        num(frame, &["gauges", "cache", "entries"]),
        num(frame, &["gauges", "cache", "capacity"]),
    ));
    out.push_str(&format!(
        "  admission            in-flight {:.0}  queue capacity {:.0}  overloaded {:.0}\n",
        num(frame, &["gauges", "in_flight"]),
        num(frame, &["gauges", "queue_capacity"]),
        windowed_counter("service.overloaded"),
    ));
    out.push_str(&format!(
        "  sessions             active {:.0}  opened {:.0}  closed {:.0}\n",
        num(frame, &["gauges", "sessions_active"]),
        windowed_counter("service.sessions.opened"),
        windowed_counter("service.sessions.closed"),
    ));
    out.push_str(&format!(
        "  flight recorder      dumps {:.0}  ring {:.0}  overwritten {:.0}\n",
        windowed_counter("service.flight.dumps"),
        num(frame, &["gauges", "flight", "capacity"]),
        num(frame, &["gauges", "flight", "dropped"]),
    ));
    out
}

fn run_compile(client: &mut Client, args: &Args) {
    let path = args.file.clone().unwrap_or_else(|| {
        eprintln!("autobraid-client: compile needs a FILE (or `-` for stdin)");
        usage()
    });
    let source = if path == "-" {
        let mut text = String::new();
        std::io::stdin()
            .read_to_string(&mut text)
            .unwrap_or_else(|e| fail(format!("reading stdin: {e}")));
        text
    } else {
        std::fs::read_to_string(&path).unwrap_or_else(|e| fail(format!("reading {path}: {e}")))
    };
    let format = args.format.unwrap_or_else(|| {
        if source.trim_start().starts_with("// autobraid.conformance/") {
            SourceFormat::Conformance
        } else {
            SourceFormat::Qasm
        }
    });
    let mut request = match format {
        SourceFormat::Qasm => CompileRequest::qasm(source),
        SourceFormat::Conformance => CompileRequest::conformance(source),
    };
    if let Some(label) = &args.label {
        request = request.with_label(label.clone());
    }
    if let Some(strategy) = args.strategy {
        request = request.with_strategy(strategy);
    }
    if args.no_cache {
        request = request.with_cache(false);
    }
    request = request
        .with_telemetry(args.telemetry)
        .with_trace(args.trace);
    if let Some(d) = args.distance {
        request = request.with_distance(d);
    }
    if let Some(t) = args.timeout_ms {
        request = request.with_timeout_ms(t);
    }
    let outcome = client.compile(&request).unwrap_or_else(|e| fail(e));
    println!("cache={}", outcome.cache.name());
    println!("{}", outcome.report.render_pretty());
    if let Some(telemetry) = &outcome.telemetry {
        println!("{}", telemetry.render_pretty());
    }
    if let Some(trace) = &outcome.trace {
        println!("{}", trace.render_pretty());
    }
}

/// The fault-injection smoke path: stream a circuit through a session,
/// kill a tile and stall the magic supply mid-frontier, and report
/// whether the schedule recovered.
fn run_stream(client: &mut Client, args: &Args) {
    let path = args.file.clone().unwrap_or_else(|| {
        eprintln!("autobraid-client: stream needs a FILE (or `-` for stdin)");
        usage()
    });
    let source = if path == "-" {
        let mut text = String::new();
        std::io::stdin()
            .read_to_string(&mut text)
            .unwrap_or_else(|e| fail(format!("reading stdin: {e}")));
        text
    } else {
        std::fs::read_to_string(&path).unwrap_or_else(|e| fail(format!("reading {path}: {e}")))
    };
    let circuit = qasm::parse(&source).unwrap_or_else(|e| fail(format!("parsing {path}: {e}")));
    let gates: Vec<Gate> = circuit.iter().map(|(_, g)| *g).collect();

    let mut open = SessionOpen::new(circuit.num_qubits().max(1)).with_trace(true);
    if let Some(label) = &args.label {
        open = open.with_label(label.clone());
    }
    if let Some(strategy) = args.strategy {
        open = open.with_strategy(strategy);
    }
    client.session_open(&open).unwrap_or_else(|e| fail(e));

    // Half the circuit in, one engine step, then the faults land
    // mid-frontier — the shape the recovery contract is about.
    let half = gates.len().div_ceil(2);
    if half > 0 {
        client
            .session_gate(&gates[..half])
            .unwrap_or_else(|e| fail(e));
        client.session_step(1).unwrap_or_else(|e| fail(e));
    }
    client
        .session_inject(&FaultEvent::TileFailure {
            row: args.fault_row,
            col: args.fault_col,
        })
        .unwrap_or_else(|e| fail(e));
    if args.stall > 0 {
        client
            .session_inject(&FaultEvent::MagicStall { steps: args.stall })
            .unwrap_or_else(|e| fail(e));
    }
    if half < gates.len() {
        client
            .session_gate(&gates[half..])
            .unwrap_or_else(|e| fail(e));
    }
    let outcome = client.session_close().unwrap_or_else(|e| fail(e));

    let trace = outcome
        .trace
        .as_ref()
        .map(|t| t.render_compact())
        .unwrap_or_default();
    println!(
        "gates={}",
        outcome
            .report
            .get("gates")
            .and_then(|v| v.as_u64())
            .unwrap_or(0)
    );
    println!("fault.injected={}", trace.matches("fault.injected").count());
    println!(
        "fault.recovered={}",
        trace.matches("fault.recovered").count()
    );
    if let Some(out) = &args.trace_out {
        std::fs::write(out, &trace).unwrap_or_else(|e| fail(format!("writing {out}: {e}")));
        println!("trace={out}");
    }
    println!("{}", outcome.report.render_pretty());
}
