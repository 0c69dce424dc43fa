//! The `autobraidd` server: a TCP listener in front of the compile
//! worker pool, with content-addressed caching, bounded admission, and
//! per-request deadlines.
//!
//! Degradation is always *graceful and typed*: an overloaded queue or a
//! blown deadline produces an `overloaded`/`timeout` error **response**
//! on a connection that stays usable — never a dropped connection. An
//! abandoned (timed-out) compile keeps its queue slot until the worker
//! actually finishes it, so admission control reflects real load.

use crate::cache::{CacheKey, CacheStats, CanonicalSource, ReportCache};
use crate::protocol::{
    ok_response, read_frame, write_frame, CacheStatus, CompileRequest, ErrorKind, FrameError,
    Request, ServiceError, SessionOpen, SourceFormat, DEFAULT_MAX_FRAME, MAX_QUBITS,
};
use autobraid::pipeline::{CompileReport, Pipeline, PipelineError};
use autobraid::runtime::{CompileJob, WorkerPool};
use autobraid::streaming::{StepOutcome, StreamError, StreamingPipeline};
use autobraid::ScheduleConfig;
use autobraid_circuit::qasm;
use autobraid_conformance::ConformanceCase;
use autobraid_lattice::{CodeParams, TimingModel};
use autobraid_telemetry::{
    self as telemetry, export, AmbientStack, Decision, JsonValue, TraceRecorder, METRICS_SCHEMA,
};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, RecvTimeoutError};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Upper clamp on any request's deadline, in milliseconds.
const MAX_TIMEOUT_MS: u64 = 300_000;

/// Most flight dumps one daemon writes; later ones only count under
/// `service.flight.dumps_skipped`, so a client that sends bad frames
/// in a loop cannot fill the disk.
const MAX_FLIGHT_DUMPS: u64 = 64;

/// Everything tunable about a daemon instance.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Bind address; port 0 picks a free port (the bound address is on
    /// [`Server::addr`]).
    pub bind_addr: String,
    /// Compile worker threads.
    pub threads: usize,
    /// Bounded-queue depth: compiles admitted (queued + running) at
    /// once. Submissions beyond this get a typed `overloaded` response.
    pub queue_capacity: usize,
    /// Content-addressed cache capacity in reports (0 disables caching).
    pub cache_capacity: usize,
    /// Deadline applied when a request does not set `timeout_ms`. Every
    /// deadline, this one included, is clamped to 300 000 ms.
    pub default_timeout_ms: u64,
    /// How long an open streaming session may sit idle (no frames from
    /// the client) before the server times it out, releases its queue
    /// slot, and closes the connection with a typed `timeout` error.
    pub session_idle_timeout_ms: u64,
    /// Upper clamp on one `session.step` frame's `count`. A frame
    /// asking for more advances at most this many engine steps (the
    /// outcomes array and `steps_taken` show how far it got); stepping
    /// also stops at the first idle outcome. Keeps a client-controlled
    /// count from pinning a connection thread and growing an unbounded
    /// response — per-frame work stays bounded like everything else.
    pub max_session_steps: u64,
    /// Slow-request latency threshold, in milliseconds. A request that
    /// completes successfully but takes longer than this gets its
    /// flight-recorder history dumped like an errored one. 0 disables
    /// the slow-path trigger (errors and shed requests still dump).
    pub slow_request_ms: u64,
    /// Directory flight-recorder dumps are written to
    /// (`req-<id>-<reason>.trace.json`). Empty disables dumping
    /// entirely; the directory is created on first dump.
    pub dump_dir: String,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            bind_addr: "127.0.0.1:0".to_string(),
            threads: 2,
            queue_capacity: 32,
            cache_capacity: 256,
            default_timeout_ms: 30_000,
            session_idle_timeout_ms: 30_000,
            max_session_steps: 4096,
            slow_request_ms: 0,
            dump_dir: "target/flight-dumps".to_string(),
        }
    }
}

/// State shared by the acceptor, every connection thread, and the
/// handle.
struct Shared {
    config: ServiceConfig,
    pool: WorkerPool,
    cache: Mutex<ReportCache>,
    /// Compiles admitted and not yet finished. Deliberately NOT inside
    /// `Shared` references held by pool jobs (see `admit`): jobs get
    /// their own clone of this Arc so a queued job never keeps the pool
    /// alive through `Shared`.
    in_flight: Arc<AtomicUsize>,
    /// Lifetime, windowed (the `autobraid.metrics/v1` source) and
    /// flight recorders, installed on every connection thread and
    /// inherited by the worker pool.
    ambient: AmbientStack,
    /// Streaming sessions currently open (gauge for `metrics`).
    sessions_active: Arc<AtomicUsize>,
    /// Request-id source; ids are unique per daemon process, assigned
    /// at frame decode.
    next_request_id: AtomicU64,
    /// Flight dumps attempted so far (see [`MAX_FLIGHT_DUMPS`]).
    flight_dumps: AtomicU64,
    started: Instant,
    shutting_down: AtomicBool,
    /// Live connections by id: a clone of the socket, shut down to
    /// unblock the reader on server shutdown, and the thread serving
    /// it. A connection's thread removes its entry as it ends.
    connections: Mutex<HashMap<u64, (TcpStream, JoinHandle<()>)>>,
}

impl Shared {
    /// The report cache, also after a thread panicked while holding it.
    /// Every `ReportCache` method leaves the cache consistent at every
    /// step (an eviction removes a whole entry, counters only grow), so
    /// a poisoned guard holds a usable cache, and one failed request
    /// must not take every later one down with it.
    fn cache(&self) -> MutexGuard<'_, ReportCache> {
        self.cache.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A running daemon. Dropping the handle shuts the server down and
/// joins every thread.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds, spawns the worker pool and acceptor, and returns a handle.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn start(config: ServiceConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.bind_addr)?;
        let addr = listener.local_addr()?;
        let ambient = AmbientStack::new();
        // Create the pool with the ambient stack installed so every
        // worker inherits it (WorkerPool propagates the creator's
        // recorder) — compile-side counters and coarse decisions land
        // in the same lifetime/windowed/flight sinks as
        // connection-side ones.
        let pool = {
            let _guard = ambient.install();
            WorkerPool::new(config.threads.max(1))
        };
        let shared = Arc::new(Shared {
            cache: Mutex::new(ReportCache::new(config.cache_capacity)),
            in_flight: Arc::new(AtomicUsize::new(0)),
            ambient,
            sessions_active: Arc::new(AtomicUsize::new(0)),
            next_request_id: AtomicU64::new(0),
            flight_dumps: AtomicU64::new(0),
            started: Instant::now(),
            shutting_down: AtomicBool::new(false),
            connections: Mutex::new(HashMap::new()),
            pool,
            config,
        });
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("autobraidd-accept".to_string())
                .spawn(move || accept_loop(&listener, &shared))
                .expect("failed to spawn acceptor")
        };
        Ok(Server {
            addr,
            shared,
            acceptor: Some(acceptor),
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.shared.cache().stats()
    }

    /// Snapshot of every service metric recorded so far (request
    /// counters, cache counters, `service.latency_ms` percentiles).
    pub fn telemetry(&self) -> telemetry::TelemetrySnapshot {
        self.shared.ambient.lifetime().snapshot()
    }

    /// Snapshot of the trailing metrics window (the same data the
    /// `metrics` wire request serves; see `docs/METRICS.md`).
    pub fn windowed(&self) -> telemetry::TelemetrySnapshot {
        self.shared.ambient.windowed().snapshot()
    }

    /// Snapshot of the always-on flight-recorder ring.
    pub fn flight(&self) -> telemetry::Trace {
        self.shared.ambient.flight().snapshot()
    }

    /// Stops accepting, unblocks and joins every live connection thread, and
    /// joins the acceptor. Idempotent.
    pub fn shutdown(&mut self) {
        if self.shared.shutting_down.swap(true, Ordering::SeqCst) {
            return;
        }
        // Poke the blocking accept() with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        // Collected first: an ending thread takes the lock to remove
        // its own entry, so it must not be held across the joins.
        let live: Vec<_> = {
            let mut connections = self.shared.connections.lock().expect("poisoned");
            connections.drain().map(|(_, entry)| entry).collect()
        };
        for (socket, _) in &live {
            let _ = socket.shutdown(Shutdown::Both);
        }
        for (_, thread) in live {
            let _ = thread.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    for (id, stream) in (0u64..).zip(listener.incoming()) {
        if shared.shutting_down.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let _ = stream.set_nodelay(true); // see Client::connect
        let Ok(socket) = stream.try_clone() else {
            continue;
        };
        // Held across the spawn, so the thread's removal of its entry
        // cannot run before the entry exists.
        let mut connections = shared.connections.lock().expect("poisoned");
        let thread = {
            let shared = Arc::clone(shared);
            std::thread::Builder::new()
                .name("autobraidd-conn".to_string())
                .spawn(move || {
                    handle_connection(&shared, stream);
                    // A request that panics is answered and survived
                    // inside `handle_connection`, so an ending connection
                    // always gets here. Dropping the socket clone closes
                    // the connection.
                    shared.connections.lock().expect("poisoned").remove(&id);
                })
                .expect("failed to spawn connection thread")
        };
        connections.insert(id, (socket, thread));
    }
}

/// One bounded-queue slot, released when dropped. A streaming session
/// holds one for its whole lifetime so admission control counts open
/// streams alongside in-flight batch compiles — and counts them
/// correctly even when the connection dies without a `session.close`.
struct SlotHold {
    in_flight: Arc<AtomicUsize>,
    /// Open-sessions gauge, decremented with the slot so `metrics`
    /// stays honest on every exit path (close, idle timeout, dropped
    /// connection).
    sessions_active: Arc<AtomicUsize>,
}

impl Drop for SlotHold {
    fn drop(&mut self) {
        self.in_flight.fetch_sub(1, Ordering::SeqCst);
        self.sessions_active.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The per-connection state of one open streaming session.
struct OpenSession {
    stream: StreamingPipeline,
    /// Decisions recorded during this session's steps, when the open
    /// frame asked for a trace.
    tracer: Option<Arc<TraceRecorder>>,
    /// Request id of the `session.open` frame; session lifecycle
    /// decisions correlate to it.
    id: u64,
    start: Instant,
    _slot: SlotHold,
}

impl OpenSession {
    /// Runs `f` with this session's trace recorder fanned into the
    /// ambient (service) recorder, so session decisions reach the trace
    /// while `service.*` counters still reach the daemon snapshot.
    fn scoped<T>(&mut self, f: impl FnOnce(&mut StreamingPipeline) -> T) -> T {
        let _guard = trace_alongside(&self.tracer);
        f(&mut self.stream)
    }
}

/// Installs a session's trace recorder, when it has one, alongside the
/// ambient stack until the guard drops.
fn trace_alongside(tracer: &Option<Arc<TraceRecorder>>) -> Option<telemetry::RecorderGuard> {
    tracer
        .as_ref()
        .map(|tracer| telemetry::install_alongside(tracer.clone()))
}

fn handle_connection(shared: &Arc<Shared>, stream: TcpStream) {
    let _guard = shared.ambient.install();
    let mut read = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let mut write = stream;
    let mut session: Option<OpenSession> = None;
    loop {
        // An idle open session may not hold its queue slot forever: arm
        // a read deadline while one is open.
        let idle = Duration::from_millis(shared.config.session_idle_timeout_ms.max(1));
        let _ = read.set_read_timeout(session.as_ref().map(|_| idle));
        let payload = match read_frame(&mut read, DEFAULT_MAX_FRAME) {
            Ok(Some(payload)) => payload,
            Ok(None) => break, // clean close
            Err(FrameError::TooLarge { announced, max }) => {
                // The oversized payload was never consumed; the stream
                // cannot be resynchronized. Explain, then close.
                let err = ServiceError::new(
                    ErrorKind::Protocol,
                    format!("frame of {announced} bytes exceeds the {max}-byte cap"),
                );
                let _ = write_frame(&mut write, &err.to_response().render_compact());
                break;
            }
            Err(FrameError::Utf8) => {
                // Payload fully consumed: stream is still framed.
                let err = ServiceError::new(ErrorKind::Protocol, "frame is not valid UTF-8");
                let _ = write_frame(&mut write, &err.to_response().render_compact());
                continue;
            }
            Err(FrameError::Io(e))
                if session.is_some()
                    && matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
            {
                // Idle-session timeout: release the slot (session drop),
                // tell the client why, and close the connection.
                telemetry::counter("service.sessions.idle_timeout", 1);
                session = None;
                let err = ServiceError::new(
                    ErrorKind::Timeout,
                    format!(
                        "session idle for more than {} ms; slot released",
                        shared.config.session_idle_timeout_ms
                    ),
                );
                let _ = write_frame(&mut write, &err.to_response().render_compact());
                break;
            }
            Err(FrameError::Io(_)) => break,
        };
        // The request id is born here, at frame decode: everything the
        // frame causes — trace events, flight-recorder entries, pool
        // work — happens inside this scope and carries the id.
        let request_id = shared.next_request_id.fetch_add(1, Ordering::Relaxed) + 1;
        let req_scope = telemetry::begin_request(request_id);
        let started = Instant::now();
        let mut latency_from = None;
        let processed = catch_unwind(AssertUnwindSafe(|| {
            process(
                shared,
                &mut session,
                &payload,
                request_id,
                started,
                &mut latency_from,
            )
        }));
        let (reply, outcome) = match processed {
            Ok(Ok(ok)) => (ok, "ok"),
            Ok(Err(err)) => {
                let outcome = err.kind.name();
                (Reply::Doc(err.to_response()), outcome)
            }
            Err(panic) => {
                // The panic may have left the session half-updated:
                // drop it, which releases its slot.
                session = None;
                let detail = panic
                    .downcast_ref::<&str>()
                    .copied()
                    .or_else(|| panic.downcast_ref::<String>().map(String::as_str))
                    .unwrap_or("non-string panic payload");
                let err = ServiceError::new(
                    ErrorKind::Internal,
                    format!("request panicked, open session closed: {detail}"),
                );
                (Reply::Doc(err.to_response()), err.kind.name())
            }
        };
        telemetry::decision(&Decision::RequestEnd {
            id: request_id,
            outcome: outcome.to_string(),
        });
        let elapsed_ms = started.elapsed().as_secs_f64() * 1e3;
        maybe_dump_flight(shared, request_id, outcome, elapsed_ms);
        let frame = reply.render();
        // Observed once the frame is rendered, so the histogram covers
        // the whole request: decode, compile or cache hit, and render.
        if let Some(from) = latency_from {
            telemetry::observe("service.latency_ms", from.elapsed().as_secs_f64() * 1e3);
        }
        drop(req_scope);
        if write_frame(&mut write, &frame).is_err() {
            break;
        }
    }
    // An abandoned session's slot is released here, by drop.
    drop(session);
}

/// A response on its way out, rendered once by `handle_connection`.
enum Reply {
    /// Any response built as a document.
    Doc(JsonValue),
    /// A compile report. Its canonical bytes go into the frame as they
    /// are: they are a compact rendering, which parses and renders back
    /// to itself, so the frame is byte-for-byte the one rendered from a
    /// document holding the parsed report.
    Report {
        status: CacheStatus,
        elapsed_ms: f64,
        report: Arc<str>,
        /// Attached documents in wire order (`telemetry`, then `trace`).
        attachments: Vec<(&'static str, JsonValue)>,
    },
}

impl Reply {
    fn render(self) -> String {
        match self {
            Reply::Doc(doc) => doc.render_compact(),
            Reply::Report {
                status,
                elapsed_ms,
                report,
                attachments,
            } => {
                let mut frame = ok_response(
                    "report",
                    [
                        ("cache", JsonValue::from(status.name())),
                        ("elapsed_ms", JsonValue::from(elapsed_ms)),
                    ],
                )
                .render_compact();
                // Reopen the envelope's closing brace to append the report.
                frame.pop();
                frame.reserve(report.len() + 12);
                frame.push_str(",\"report\":");
                frame.push_str(&report);
                for (name, doc) in attachments {
                    let _ = write!(frame, ",\"{name}\":{}", doc.render_compact());
                }
                frame.push('}');
                frame
            }
        }
    }
}

/// A frame that makes [`process`] panic in this crate's unit tests,
/// standing in for a defect in decode, cache or session code.
const PANIC_FRAME: &str = "panic";

/// Handles one request frame, start to finish. A completed compile or
/// closed session sets `latency_from` to where its `service.latency_ms`
/// observation starts: the frame's arrival at `received`, or the
/// session's opening.
fn process(
    shared: &Arc<Shared>,
    session: &mut Option<OpenSession>,
    payload: &str,
    request_id: u64,
    received: Instant,
    latency_from: &mut Option<Instant>,
) -> Result<Reply, ServiceError> {
    if cfg!(test) && payload == PANIC_FRAME {
        panic!("injected per-frame panic");
    }
    let doc = JsonValue::parse(payload)
        .map_err(|e| ServiceError::new(ErrorKind::Protocol, format!("invalid JSON: {e}")))?;
    let request = Request::from_json(&doc)?;
    telemetry::decision(&Decision::RequestBegin {
        id: request_id,
        kind: request.kind().to_string(),
    });
    match request {
        Request::Ping => {
            telemetry::counter("service.requests.ping", 1);
            Ok(Reply::Doc(ok_response(
                "pong",
                [
                    ("version", JsonValue::from(env!("CARGO_PKG_VERSION"))),
                    ("uptime_ms", JsonValue::from(uptime_ms(shared))),
                ],
            )))
        }
        Request::Metrics => {
            telemetry::counter("service.requests.metrics", 1);
            Ok(Reply::Doc(metrics_response(shared)))
        }
        Request::Compile(req) => {
            telemetry::counter("service.requests.compile", 1);
            let reply = handle_compile(shared, &req, request_id)?;
            *latency_from = Some(received);
            Ok(reply)
        }
        Request::SessionOpen(open) => {
            telemetry::counter("service.requests.session", 1);
            handle_session_open(shared, session, &open, request_id).map(Reply::Doc)
        }
        Request::SessionGate(gates) => {
            telemetry::counter("service.requests.session", 1);
            let open = require_session(session)?;
            // All-or-nothing: validate the whole batch before any gate
            // lands, so a rejected frame leaves the session exactly as
            // it was and the client's view never desyncs from the
            // server's.
            let capacity = open.stream.capacity();
            if let Some(qubit) = gates.iter().map(|g| g.max_qubit()).find(|&q| q >= capacity) {
                return Err(stream_error(StreamError::QubitOutOfRange {
                    qubit,
                    capacity,
                }));
            }
            open.scoped(|stream| {
                for gate in &gates {
                    stream.push_gate(*gate).map_err(stream_error)?;
                }
                Ok::<(), ServiceError>(())
            })?;
            let outstanding = open.stream.outstanding();
            Ok(Reply::Doc(session_response(
                "gate",
                vec![
                    ("accepted", JsonValue::from(gates.len())),
                    ("outstanding", JsonValue::from(outstanding)),
                ],
            )))
        }
        Request::SessionStep { count } => {
            telemetry::counter("service.requests.session", 1);
            let open = require_session(session)?;
            // Per-frame work is bounded: clamp the client-controlled
            // count and stop at the first idle outcome — an idle
            // frontier cannot progress, so looping on it would only
            // grow the response.
            let steps = count.clamp(1, shared.config.max_session_steps.max(1));
            let mut outcomes = Vec::new();
            open.scoped(|stream| {
                for _ in 0..steps {
                    let outcome = stream.step().map_err(stream_error)?;
                    let idle = matches!(outcome, StepOutcome::Idle);
                    outcomes.push(step_outcome_json(outcome));
                    if idle {
                        break;
                    }
                }
                Ok::<(), ServiceError>(())
            })?;
            let outstanding = open.stream.outstanding();
            let steps_taken = open.stream.steps_taken();
            Ok(Reply::Doc(session_response(
                "step",
                vec![
                    ("outcomes", JsonValue::Array(outcomes)),
                    ("outstanding", JsonValue::from(outstanding)),
                    ("steps_taken", JsonValue::from(steps_taken)),
                ],
            )))
        }
        Request::SessionInject(fault) => {
            telemetry::counter("service.requests.session", 1);
            let open = require_session(session)?;
            open.scoped(|stream| stream.inject(fault).map_err(stream_error))?;
            Ok(Reply::Doc(session_response(
                "inject",
                vec![("fault", JsonValue::from(fault.kind()))],
            )))
        }
        Request::SessionClose => {
            telemetry::counter("service.requests.session", 1);
            let OpenSession {
                stream,
                tracer,
                id,
                start,
                _slot,
            } = session
                .take()
                .ok_or_else(|| ServiceError::new(ErrorKind::Protocol, "no open session"))?;
            telemetry::counter("service.sessions.closed", 1);
            telemetry::decision(&Decision::SessionClosed {
                id,
                steps: stream.steps_taken(),
            });
            // Drain inside the trace scope so the final decisions land
            // in the session trace too. The slot is held (by `_slot`)
            // until the drain finishes — admission stays honest.
            let finished = {
                let _guard = trace_alongside(&tracer);
                stream.finish().map_err(stream_error)?
            };
            let elapsed = start.elapsed().as_secs_f64() * 1e3;
            *latency_from = Some(start);
            let trace_doc = tracer.map(|tracer| export::chrome_trace_json(&tracer.snapshot()));
            Ok(Reply::Report {
                status: CacheStatus::Bypass,
                elapsed_ms: elapsed,
                report: finished.canonical_json().into(),
                attachments: trace_doc.map(|t| ("trace", t)).into_iter().collect(),
            })
        }
    }
}

/// Opens a streaming session on this connection, claiming a queue slot.
fn handle_session_open(
    shared: &Arc<Shared>,
    session: &mut Option<OpenSession>,
    open: &SessionOpen,
    request_id: u64,
) -> Result<JsonValue, ServiceError> {
    if session.is_some() {
        return Err(ServiceError::new(
            ErrorKind::Protocol,
            "a session is already open on this connection (close it first)",
        ));
    }
    check_width(open.qubits)?;
    // Admission control: an open stream is held work, exactly like an
    // in-flight batch compile.
    admit(shared)?;
    shared.sessions_active.fetch_add(1, Ordering::SeqCst);
    let slot = SlotHold {
        in_flight: Arc::clone(&shared.in_flight),
        sessions_active: Arc::clone(&shared.sessions_active),
    };
    telemetry::counter("service.sessions.opened", 1);
    telemetry::decision(&Decision::SessionOpened { id: request_id });
    let tracer = open.trace.then(|| Arc::new(TraceRecorder::new()));
    let stream = {
        let _guard = trace_alongside(&tracer);
        StreamingPipeline::open(open.qubits.max(1), open.options.clone())
    };
    *session = Some(OpenSession {
        stream,
        tracer,
        id: request_id,
        start: Instant::now(),
        _slot: slot,
    });
    Ok(session_response(
        "open",
        vec![
            ("qubits", JsonValue::from(open.qubits.max(1))),
            ("strategy", JsonValue::from(open.options.strategy.name())),
        ],
    ))
}

/// The open session on this connection, or a typed protocol error.
fn require_session(session: &mut Option<OpenSession>) -> Result<&mut OpenSession, ServiceError> {
    session
        .as_mut()
        .ok_or_else(|| ServiceError::new(ErrorKind::Protocol, "no open session"))
}

/// Maps a typed streaming failure onto the service error taxonomy.
fn stream_error(e: StreamError) -> ServiceError {
    let kind = match &e {
        StreamError::Unroutable { .. } => ErrorKind::Unsupported,
        StreamError::QubitOutOfRange { .. } => ErrorKind::Parse,
        StreamError::InvalidFault { .. } => ErrorKind::Protocol,
        _ => ErrorKind::Internal,
    };
    ServiceError::new(kind, e.to_string())
}

/// Renders one engine-step outcome for the wire.
fn step_outcome_json(outcome: StepOutcome) -> JsonValue {
    match outcome {
        StepOutcome::Idle => JsonValue::object([("outcome", JsonValue::from("idle"))]),
        StepOutcome::Local { gates } => JsonValue::object([
            ("outcome", JsonValue::from("local")),
            ("gates", JsonValue::from(gates)),
        ]),
        StepOutcome::Braid { routed, deferred } => JsonValue::object([
            ("outcome", JsonValue::from("braid")),
            ("routed", JsonValue::from(routed)),
            ("deferred", JsonValue::from(deferred)),
        ]),
        StepOutcome::Stalled { remaining } => JsonValue::object([
            ("outcome", JsonValue::from("stalled")),
            ("remaining", JsonValue::from(remaining)),
        ]),
        _ => JsonValue::object([("outcome", JsonValue::from("unknown"))]),
    }
}

/// The `{status: ok, kind: session, session: <op>, ...}` envelope.
fn session_response(op: &str, extra: Vec<(&str, JsonValue)>) -> JsonValue {
    ok_response(
        "session",
        std::iter::once(("session", JsonValue::from(op))).chain(extra),
    )
}

/// Milliseconds this daemon has been serving.
fn uptime_ms(shared: &Arc<Shared>) -> u64 {
    u64::try_from(shared.started.elapsed().as_millis()).unwrap_or(u64::MAX)
}

/// Dumps the flight-recorder history of `request_id` when the request
/// errored (including shed/`overloaded` and timed-out ones) or ran
/// slower than the configured threshold. The dump is the Perfetto
/// Chrome-trace JSON of the request's events, written to
/// `<dump_dir>/req-<id>-<reason>.trace.json`; past
/// [`MAX_FLIGHT_DUMPS`] the dump is skipped and counted instead.
fn maybe_dump_flight(shared: &Arc<Shared>, request_id: u64, outcome: &str, elapsed_ms: f64) {
    if shared.config.dump_dir.is_empty() {
        return;
    }
    let slow = shared.config.slow_request_ms;
    let reason = if outcome != "ok" {
        outcome.to_string()
    } else if slow > 0 && elapsed_ms >= slow as f64 {
        "slow".to_string()
    } else {
        return;
    };
    if shared.flight_dumps.fetch_add(1, Ordering::Relaxed) >= MAX_FLIGHT_DUMPS {
        telemetry::counter("service.flight.dumps_skipped", 1);
        return;
    }
    let trace = shared.ambient.flight().dump_for(request_id);
    let dir = PathBuf::from(&shared.config.dump_dir);
    if std::fs::create_dir_all(&dir).is_err() {
        return;
    }
    let path = dir.join(format!("req-{request_id}-{reason}.trace.json"));
    if std::fs::write(&path, trace.to_chrome_json()).is_ok() {
        telemetry::counter("service.flight.dumps", 1);
    }
}

/// The `autobraid.metrics/v1` live-operations frame: windowed
/// counters/histograms, lifetime aggregates, and point-in-time gauges.
fn metrics_response(shared: &Arc<Shared>) -> JsonValue {
    let cache = shared.cache().stats();
    let windowed = shared.ambient.windowed();
    let lifetime = shared.ambient.lifetime().snapshot();
    let flight = shared.ambient.flight();
    ok_response(
        "metrics",
        [
            ("schema", JsonValue::from(METRICS_SCHEMA)),
            ("version", JsonValue::from(env!("CARGO_PKG_VERSION"))),
            ("uptime_ms", JsonValue::from(uptime_ms(shared))),
            ("window", windowed.json_at(windowed.now_sec())),
            ("lifetime", lifetime.to_json_value()),
            (
                "gauges",
                JsonValue::object([
                    (
                        "in_flight",
                        JsonValue::from(shared.in_flight.load(Ordering::SeqCst)),
                    ),
                    (
                        "queue_capacity",
                        JsonValue::from(shared.config.queue_capacity),
                    ),
                    (
                        "sessions_active",
                        JsonValue::from(shared.sessions_active.load(Ordering::SeqCst)),
                    ),
                    (
                        "cache",
                        JsonValue::object([
                            ("hits", JsonValue::from(cache.hits)),
                            ("misses", JsonValue::from(cache.misses)),
                            ("evictions", JsonValue::from(cache.evictions)),
                            ("entries", JsonValue::from(cache.entries)),
                            ("capacity", JsonValue::from(cache.capacity)),
                        ]),
                    ),
                    (
                        "flight",
                        JsonValue::object([
                            ("capacity", JsonValue::from(flight.capacity())),
                            ("dropped", JsonValue::from(flight.overwritten())),
                        ]),
                    ),
                ]),
            ),
        ],
    )
}

fn handle_compile(
    shared: &Arc<Shared>,
    req: &CompileRequest,
    request_id: u64,
) -> Result<Reply, ServiceError> {
    let start = Instant::now();
    let cacheable = req.use_cache && !req.options.telemetry && !req.options.trace;
    // A source seen before skips the parse: the memo holds what the key
    // needs from it. Any other source parses here, and the circuit is
    // kept for the compile.
    let mut parsed = None;
    let key = if cacheable {
        // Looked up apart from the match: the guard must be gone before
        // the miss arm locks the cache again.
        let memo = shared.cache().source(req.format, &req.source);
        let canonical = match memo {
            Some(canonical) => {
                telemetry::counter("service.cache.source_memo_hit", 1);
                canonical
            }
            None => {
                let circuit = parse_source(req)?;
                let canonical = Arc::new(CanonicalSource {
                    name: circuit.name().to_string(),
                    qasm: qasm::emit(&circuit),
                });
                shared
                    .cache()
                    .remember_source(req.format, &req.source, Arc::clone(&canonical));
                parsed = Some(circuit);
                canonical
            }
        };
        let key = content_key(&canonical, req);
        let cached = shared.cache().get(&key);
        if let Some(report) = cached {
            telemetry::counter("service.cache.hit", 1);
            telemetry::decision(&Decision::CacheLookup {
                id: request_id,
                status: CacheStatus::Hit.name(),
            });
            return Ok(Reply::Report {
                status: CacheStatus::Hit,
                elapsed_ms: start.elapsed().as_secs_f64() * 1e3,
                report,
                attachments: Vec::new(),
            });
        }
        telemetry::counter("service.cache.miss", 1);
        telemetry::decision(&Decision::CacheLookup {
            id: request_id,
            status: CacheStatus::Miss.name(),
        });
        Some(key)
    } else {
        parsed = Some(parse_source(req)?);
        telemetry::counter("service.cache.bypass", 1);
        telemetry::decision(&Decision::CacheLookup {
            id: request_id,
            status: CacheStatus::Bypass.name(),
        });
        None
    };
    let mut circuit = match parsed {
        Some(circuit) => circuit,
        None => parse_source(req)?,
    };
    if let Some(label) = &req.label {
        circuit.set_name(label.clone());
    }

    let pipeline = build_pipeline(req)?;

    // Admission control: claim a queue slot or degrade to `overloaded`.
    admit(shared)?;
    let in_flight = Arc::clone(&shared.in_flight);
    let job = match &req.label {
        Some(label) => CompileJob::circuit(circuit).with_label(label.clone()),
        None => CompileJob::circuit(circuit),
    };
    let (tx, rx) = channel::<Result<CompileReport, PipelineError>>();
    shared.pool.execute(move || {
        let result = pipeline.compile_job(&job);
        // Release the slot only once the work is actually done — a
        // timed-out request's abandoned compile still occupies capacity
        // until here, keeping admission honest.
        in_flight.fetch_sub(1, Ordering::SeqCst);
        // The requester may have timed out and gone: that's fine.
        let _ = tx.send(result);
    });

    let deadline = req
        .timeout_ms
        .unwrap_or(shared.config.default_timeout_ms)
        .min(MAX_TIMEOUT_MS);
    let result = match rx.recv_timeout(Duration::from_millis(deadline)) {
        Ok(result) => result,
        Err(RecvTimeoutError::Timeout) => {
            telemetry::counter("service.timeouts", 1);
            return Err(ServiceError::new(
                ErrorKind::Timeout,
                format!("compile exceeded the {deadline} ms deadline"),
            ));
        }
        Err(RecvTimeoutError::Disconnected) => {
            return Err(ServiceError::new(
                ErrorKind::Internal,
                "compile worker vanished without reporting",
            ));
        }
    };
    let report = result.map_err(|e| match e {
        PipelineError::Parse(inner) => ServiceError::new(ErrorKind::Parse, inner.to_string()),
        other => ServiceError::new(ErrorKind::Internal, other.to_string()),
    })?;

    let canonical: Arc<str> = report.canonical_json().into();
    let status = match key {
        Some(key) => {
            shared.cache().insert(key, Arc::clone(&canonical));
            CacheStatus::Miss
        }
        None => CacheStatus::Bypass,
    };
    let elapsed_ms = start.elapsed().as_secs_f64() * 1e3;
    let telemetry_doc = report.telemetry.as_ref().map(|s| s.to_json_value());
    let trace_doc = report.trace.as_ref().map(export::chrome_trace_json);
    let attachments = [("telemetry", telemetry_doc), ("trace", trace_doc)]
        .into_iter()
        .filter_map(|(name, doc)| Some((name, doc?)))
        .collect();
    Ok(Reply::Report {
        status,
        elapsed_ms,
        report: canonical,
        attachments,
    })
}

/// The content address: canonical circuit text (the label, or else the
/// circuit's own name, then the re-emitted QASM, so formatting
/// differences in the submission don't fragment the cache), the lattice
/// geometry, and the semantics-affecting options. `threads` is
/// deliberately absent — the determinism contract guarantees thread
/// count cannot change the canonical report, so all thread counts share
/// one entry.
fn content_key(canonical: &CanonicalSource, req: &CompileRequest) -> CacheKey {
    let name = req.label.as_deref().unwrap_or(&canonical.name);
    CacheKey::for_source(
        name,
        &canonical.qasm,
        &match req.distance {
            Some(d) => format!("distance={d}"),
            None => "distance=default".to_string(),
        },
        &format!(
            "strategy={};optimize={};verify={}",
            req.options.strategy.name(),
            req.options.optimize,
            req.options.verify
        ),
    )
}

/// Parses the request's circuit text per its declared format. The
/// circuit keeps the name the source gives it; the label is applied by
/// the caller.
fn parse_source(req: &CompileRequest) -> Result<autobraid_circuit::Circuit, ServiceError> {
    let circuit = match req.format {
        SourceFormat::Qasm => qasm::parse(&req.source)
            .map_err(|e| ServiceError::new(ErrorKind::Parse, e.to_string()))?,
        SourceFormat::Conformance => {
            let case = ConformanceCase::from_repro(&req.source)
                .map_err(|e| ServiceError::new(ErrorKind::Parse, e.to_string()))?;
            if !case.defects.is_empty() {
                return Err(ServiceError::new(
                    ErrorKind::Unsupported,
                    format!(
                        "repro carries {} defective-channel vertices; the compile \
                         service only schedules pristine lattices (run the \
                         conformance oracle for defect overlays)",
                        case.defects.len()
                    ),
                ));
            }
            case.circuit
        }
    };
    check_width(circuit.num_qubits())?;
    Ok(circuit)
}

/// Refuses a register wider than [`MAX_QUBITS`] before anything
/// allocates per qubit.
fn check_width(qubits: u32) -> Result<(), ServiceError> {
    if qubits > MAX_QUBITS {
        return Err(ServiceError::new(
            ErrorKind::Unsupported,
            format!("{qubits} qubits exceed the service limit of {MAX_QUBITS}"),
        ));
    }
    Ok(())
}

/// Builds the per-request pipeline from the request's options, with
/// the timing model of its code distance (always single-threaded
/// inside: the pool provides the parallelism across requests).
fn build_pipeline(req: &CompileRequest) -> Result<Pipeline, ServiceError> {
    let pipeline = Pipeline::new().with_options(req.options.clone());
    let Some(d) = req.distance else {
        return Ok(pipeline);
    };
    let params = CodeParams::with_distance(d).map_err(|e| {
        ServiceError::new(ErrorKind::Protocol, format!("invalid distance {d}: {e}"))
    })?;
    Ok(pipeline.with_config(ScheduleConfig::default().with_timing(TimingModel::new(params))))
}

/// Claims one bounded-queue slot, or reports `overloaded`.
fn admit(shared: &Arc<Shared>) -> Result<(), ServiceError> {
    let capacity = shared.config.queue_capacity.max(1);
    let claim = shared
        .in_flight
        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
            (n < capacity).then_some(n + 1)
        });
    if claim.is_err() {
        telemetry::counter("service.overloaded", 1);
        return Err(ServiceError::new(
            ErrorKind::Overloaded,
            format!("compile queue is full ({capacity} in flight); retry later"),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::PROTOCOL;
    use crate::Client;
    use autobraid::pipeline::{CompileOptions, Pipeline};

    const BELL: &str = "qreg q[2]; h q[0]; cx q[0],q[1];";

    /// How report frames were built before splicing: a document holding
    /// the parsed canonical report and the attachments, rendered.
    fn document_frame(
        status: CacheStatus,
        elapsed_ms: f64,
        canonical: &str,
        attachments: &[(&'static str, JsonValue)],
    ) -> String {
        let mut fields = vec![
            ("proto".to_string(), JsonValue::from(PROTOCOL)),
            ("status".to_string(), JsonValue::from("ok")),
            ("kind".to_string(), JsonValue::from("report")),
            ("cache".to_string(), JsonValue::from(status.name())),
            ("elapsed_ms".to_string(), JsonValue::from(elapsed_ms)),
            (
                "report".to_string(),
                JsonValue::parse(canonical).expect("canonical JSON"),
            ),
        ];
        fields.extend(
            attachments
                .iter()
                .map(|(name, doc)| (name.to_string(), doc.clone())),
        );
        JsonValue::Object(fields).render_compact()
    }

    #[test]
    fn spliced_reports_render_like_the_document() {
        let report = Pipeline::new()
            .with_options(CompileOptions {
                telemetry: true,
                trace: true,
                ..CompileOptions::default()
            })
            .compile_qasm(BELL)
            .expect("compile");
        let canonical = report.canonical_json();
        let telemetry = report
            .telemetry
            .as_ref()
            .expect("telemetry")
            .to_json_value();
        let trace = JsonValue::parse(&report.trace.as_ref().expect("trace").to_chrome_json())
            .expect("trace JSON");
        let attachment_sets = [
            vec![],
            vec![("telemetry", telemetry.clone())],
            vec![("trace", trace.clone())],
            vec![("telemetry", telemetry), ("trace", trace)],
        ];
        for status in [CacheStatus::Hit, CacheStatus::Miss, CacheStatus::Bypass] {
            for elapsed_ms in [0.0, 0.125, 1234.5678, 1e-7] {
                for attachments in &attachment_sets {
                    let spliced = Reply::Report {
                        status,
                        elapsed_ms,
                        report: canonical.as_str().into(),
                        attachments: attachments.clone(),
                    }
                    .render();
                    assert_eq!(
                        spliced,
                        document_frame(status, elapsed_ms, &canonical, attachments)
                    );
                }
            }
        }
    }

    #[test]
    fn a_poisoned_cache_lock_still_serves_stats_and_hits() {
        let server = Server::start(ServiceConfig {
            dump_dir: String::new(),
            ..ServiceConfig::default()
        })
        .expect("server starts");
        // A raw connection with a read deadline: a daemon that stopped
        // answering fails the test instead of hanging it.
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        let mut exchange = |request: JsonValue| {
            write_frame(&mut stream, &request.render_compact()).expect("send");
            let frame = read_frame(&mut stream, DEFAULT_MAX_FRAME)
                .expect("the daemon answers")
                .expect("a frame");
            JsonValue::parse(&frame).expect("JSON")
        };
        let compile = CompileRequest::qasm(BELL).to_json();
        let metrics = JsonValue::object([
            ("proto", JsonValue::from(PROTOCOL)),
            ("kind", JsonValue::from("metrics")),
        ]);
        let cold = exchange(compile.clone());
        assert_eq!(cold.get("cache").and_then(JsonValue::as_str), Some("miss"));

        let shared = Arc::clone(&server.shared);
        let poisoner = std::thread::spawn(move || {
            let _held = shared.cache.lock().expect("first lock");
            panic!("request panicked while holding the cache");
        });
        assert!(poisoner.join().is_err());
        assert!(server.shared.cache.is_poisoned());

        let answer = exchange(metrics);
        let hits = answer
            .get("gauges")
            .and_then(|g| g.get("cache"))
            .and_then(|c| c.get("hits"));
        assert_eq!(hits.and_then(JsonValue::as_u64), Some(0), "{answer:?}");
        let warm = exchange(compile);
        assert_eq!(warm.get("cache").and_then(JsonValue::as_str), Some("hit"));
        assert_eq!(warm.get("report"), cold.get("report"));
        assert_eq!(server.cache_stats().hits, 1);
    }

    #[test]
    fn finished_connections_leave_no_bookkeeping() {
        let server = Server::start(ServiceConfig {
            dump_dir: String::new(),
            ..ServiceConfig::default()
        })
        .expect("server starts");
        for _ in 0..64 {
            let mut client = Client::connect(server.addr()).expect("connect");
            client.ping().expect("pong");
        }
        // Each connection thread ends once it reads its client's EOF.
        let live = || server.shared.connections.lock().expect("lock").len();
        let deadline = Instant::now() + Duration::from_secs(10);
        while live() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(live(), 0, "entries of finished connections remain");
        // A live connection keeps its entry and is still served.
        let mut client = Client::connect(server.addr()).expect("connect");
        client.ping().expect("pong");
        assert_eq!(live(), 1);
    }

    #[test]
    fn flight_dumps_stop_at_the_cap_and_the_daemon_keeps_serving() {
        let dir = std::env::temp_dir().join(format!("autobraid-dump-cap-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let server = Server::start(ServiceConfig {
            dump_dir: dir.to_string_lossy().into_owned(),
            ..ServiceConfig::default()
        })
        .expect("server starts");
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        let mut exchange = |kind: &str| {
            let request = JsonValue::object([
                ("proto", JsonValue::from(PROTOCOL)),
                ("kind", JsonValue::from(kind)),
            ]);
            write_frame(&mut stream, &request.render_compact()).expect("send");
            let reply = read_frame(&mut stream, DEFAULT_MAX_FRAME)
                .expect("the daemon answers")
                .expect("a frame");
            JsonValue::parse(&reply).expect("JSON")
        };
        let extra = 5;
        for _ in 0..MAX_FLIGHT_DUMPS + extra {
            let reply = exchange("no-such-kind");
            let kind = reply.get("error").and_then(|e| e.get("kind"));
            assert_eq!(kind.and_then(JsonValue::as_str), Some("protocol"));
        }
        let pong = exchange("ping");
        assert_eq!(pong.get("kind").and_then(JsonValue::as_str), Some("pong"));
        let dumps = std::fs::read_dir(&dir).expect("dump dir exists").count();
        assert_eq!(dumps as u64, MAX_FLIGHT_DUMPS);
        let lifetime = server.telemetry();
        assert_eq!(lifetime.counter("service.flight.dumps"), MAX_FLIGHT_DUMPS);
        assert_eq!(lifetime.counter("service.flight.dumps_skipped"), extra);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_panicking_frame_gets_an_internal_error_and_frees_its_connection() {
        let server = Server::start(ServiceConfig {
            dump_dir: String::new(),
            ..ServiceConfig::default()
        })
        .expect("server starts");
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        let mut exchange = |frame: &str| {
            write_frame(&mut stream, frame).expect("send");
            let reply = read_frame(&mut stream, DEFAULT_MAX_FRAME)
                .expect("the daemon answers")
                .expect("a frame");
            JsonValue::parse(&reply).expect("JSON")
        };
        let request = |kind: &str| {
            JsonValue::object([
                ("proto", JsonValue::from(PROTOCOL)),
                ("kind", JsonValue::from(kind)),
            ])
            .render_compact()
        };
        let open = JsonValue::object([
            ("proto", JsonValue::from(PROTOCOL)),
            ("kind", JsonValue::from("session.open")),
            ("qubits", JsonValue::from(4u64)),
        ]);
        let opened = exchange(&open.render_compact());
        assert_eq!(opened.get("status").and_then(JsonValue::as_str), Some("ok"));
        assert_eq!(server.shared.sessions_active.load(Ordering::SeqCst), 1);

        let reply = exchange(PANIC_FRAME);
        let kind = reply.get("error").and_then(|e| e.get("kind"));
        assert_eq!(
            kind.and_then(JsonValue::as_str),
            Some("internal"),
            "{reply:?}"
        );
        assert_eq!(server.shared.sessions_active.load(Ordering::SeqCst), 0);
        assert_eq!(server.shared.in_flight.load(Ordering::SeqCst), 0);

        let pong = exchange(&request("ping"));
        assert_eq!(pong.get("kind").and_then(JsonValue::as_str), Some("pong"));
        let closed = exchange(&request("session.close"));
        assert_eq!(
            closed.get("status").and_then(JsonValue::as_str),
            Some("error")
        );

        drop(stream);
        let live = || server.shared.connections.lock().expect("lock").len();
        let deadline = Instant::now() + Duration::from_secs(10);
        while live() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(live(), 0, "the connection kept its entry");
    }
}
