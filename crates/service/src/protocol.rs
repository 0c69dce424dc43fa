//! The `autobraid.service/v1` wire protocol: frame codec, request and
//! response schemas, and the typed error taxonomy.
//!
//! A connection carries a sequence of independent request/response
//! exchanges. Every message is one **frame**: a 4-byte big-endian
//! `u32` byte length followed by that many bytes of UTF-8 JSON. The
//! JSON schemas are specified in `docs/SERVICE.md`; both sides parse
//! with the zero-dependency [`JsonValue`] reader.

use autobraid::pipeline::{CompileOptions, Strategy};
use autobraid::streaming::{FaultEvent, StreamingOptions};
use autobraid_circuit::{Gate, SingleKind, TwoKind};
use autobraid_telemetry::JsonValue;
use std::io::{self, Read, Write};
use std::time::Duration;

/// Protocol identifier, carried in the `proto` field of every message.
/// Bump the suffix when the schema changes incompatibly.
pub const PROTOCOL: &str = "autobraid.service/v1";

/// Default cap on one frame's payload (16 MiB) — large enough for any
/// realistic circuit or trace, small enough to bound a connection's
/// memory.
pub const DEFAULT_MAX_FRAME: usize = 16 * 1024 * 1024;

/// The widest register the service compiles or streams. The lattice,
/// placement and optimizer allocate per qubit, so a one-line request
/// like `qreg q[4000000000];` would otherwise abort the daemon on a
/// failed allocation, which no panic isolation catches. 16,384 is 16×
/// the largest registry circuit (IM-1000). Wider `session.open` frames
/// and compile sources are refused with an `unsupported` error before
/// anything is allocated.
pub const MAX_QUBITS: u32 = 1 << 14;

/// Writes one frame: length prefix, then the payload bytes.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_frame(w: &mut impl Write, payload: &str) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame exceeds u32 length"))?;
    // One write for prefix + payload: a split write puts the 4-byte
    // prefix in its own TCP segment, and Nagle + delayed ACK then stall
    // the payload segment for tens of milliseconds per exchange.
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&len.to_be_bytes());
    frame.extend_from_slice(payload.as_bytes());
    w.write_all(&frame)?;
    w.flush()
}

/// A frame-level read failure.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying transport failed mid-frame.
    Io(io::Error),
    /// The peer announced a frame larger than the configured cap.
    TooLarge {
        /// Announced payload length.
        announced: usize,
        /// The configured cap.
        max: usize,
    },
    /// The payload was not valid UTF-8.
    Utf8,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "transport error: {e}"),
            FrameError::TooLarge { announced, max } => {
                write!(f, "frame of {announced} bytes exceeds the {max}-byte cap")
            }
            FrameError::Utf8 => write!(f, "frame payload is not valid UTF-8"),
        }
    }
}

/// Reads one frame. `Ok(None)` is a clean end-of-stream (the peer
/// closed between frames); an EOF *inside* a frame is an error.
///
/// # Errors
///
/// [`FrameError`] on transport failure, an oversized announcement, or
/// a non-UTF-8 payload.
pub fn read_frame(r: &mut impl Read, max_bytes: usize) -> Result<Option<String>, FrameError> {
    let mut len_bytes = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut len_bytes[filled..]) {
            Ok(0) if filled == 0 => return Ok(None), // clean close
            Ok(0) => {
                return Err(FrameError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "EOF inside frame length prefix",
                )))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let announced = u32::from_be_bytes(len_bytes) as usize;
    if announced > max_bytes {
        return Err(FrameError::TooLarge {
            announced,
            max: max_bytes,
        });
    }
    let mut payload = vec![0u8; announced];
    r.read_exact(&mut payload).map_err(FrameError::Io)?;
    String::from_utf8(payload)
        .map(Some)
        .map_err(|_| FrameError::Utf8)
}

/// The typed error taxonomy of `autobraid.service/v1` (the `error.kind`
/// field). Clients can branch on the kind without parsing prose.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The request frame was not a valid protocol message (bad JSON,
    /// missing fields, unknown `kind`, oversized frame).
    Protocol,
    /// The submitted circuit failed to parse (QASM or conformance-repro
    /// syntax error).
    Parse,
    /// The request is well-formed but asks for something the service
    /// does not implement (e.g. a defective-channel overlay).
    Unsupported,
    /// Admission control rejected the request: the bounded compile
    /// queue is full. Retry later; the connection stays usable.
    Overloaded,
    /// The compile did not finish within the request's deadline. The
    /// connection stays usable; the abandoned compile still releases
    /// its queue slot when it completes.
    Timeout,
    /// The compile itself failed (verification rejection or a panic) —
    /// a compiler bug worth reporting.
    Internal,
}

impl ErrorKind {
    /// The wire name of this kind.
    pub fn name(self) -> &'static str {
        match self {
            ErrorKind::Protocol => "protocol",
            ErrorKind::Parse => "parse",
            ErrorKind::Unsupported => "unsupported",
            ErrorKind::Overloaded => "overloaded",
            ErrorKind::Timeout => "timeout",
            ErrorKind::Internal => "internal",
        }
    }

    /// Parses a wire name.
    pub fn from_name(name: &str) -> Option<ErrorKind> {
        [
            ErrorKind::Protocol,
            ErrorKind::Parse,
            ErrorKind::Unsupported,
            ErrorKind::Overloaded,
            ErrorKind::Timeout,
            ErrorKind::Internal,
        ]
        .into_iter()
        .find(|k| k.name() == name)
    }
}

/// A typed service error: the taxonomy kind plus a human detail line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceError {
    /// Which taxonomy bucket this error falls in.
    pub kind: ErrorKind,
    /// Human-readable context (never required for client branching).
    pub detail: String,
}

impl ServiceError {
    /// Builds an error.
    pub fn new(kind: ErrorKind, detail: impl Into<String>) -> Self {
        ServiceError {
            kind,
            detail: detail.into(),
        }
    }

    /// Renders the error-response JSON envelope.
    pub fn to_response(&self) -> JsonValue {
        JsonValue::object([
            ("proto", JsonValue::from(PROTOCOL)),
            ("status", JsonValue::from("error")),
            (
                "error",
                JsonValue::object([
                    ("kind", JsonValue::from(self.kind.name())),
                    ("detail", JsonValue::from(self.detail.as_str())),
                ]),
            ),
        ])
    }
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.kind.name(), self.detail)
    }
}

impl std::error::Error for ServiceError {}

/// Where a compile response came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheStatus {
    /// Served from the content-addressed cache without compiling.
    Hit,
    /// Compiled now; the canonical report was stored for next time.
    Miss,
    /// Compiled now; the cache was not consulted (the request disabled
    /// it, or asked for telemetry/trace which the cache never stores).
    Bypass,
}

impl CacheStatus {
    /// The wire name of this status.
    pub fn name(self) -> &'static str {
        match self {
            CacheStatus::Hit => "hit",
            CacheStatus::Miss => "miss",
            CacheStatus::Bypass => "bypass",
        }
    }

    /// Parses a wire name.
    pub fn from_name(name: &str) -> Option<CacheStatus> {
        [CacheStatus::Hit, CacheStatus::Miss, CacheStatus::Bypass]
            .into_iter()
            .find(|s| s.name() == name)
    }
}

/// The circuit text formats a compile request may carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SourceFormat {
    /// Plain OpenQASM 2.0 (the subset of `autobraid_circuit::qasm`).
    #[default]
    Qasm,
    /// A conformance repro file (`// autobraid.conformance/v1` header
    /// plus QASM) — the conformance fuzzer's DSL output format.
    Conformance,
}

impl SourceFormat {
    /// The wire name of this format.
    pub fn name(self) -> &'static str {
        match self {
            SourceFormat::Qasm => "qasm",
            SourceFormat::Conformance => "conformance",
        }
    }

    /// Parses a wire name.
    pub fn from_name(name: &str) -> Option<SourceFormat> {
        [SourceFormat::Qasm, SourceFormat::Conformance]
            .into_iter()
            .find(|f| f.name() == name)
    }
}

/// The `proto` and `kind` fields every request message opens with.
fn request_header(kind: &str) -> Vec<(String, JsonValue)> {
    vec![
        ("proto".to_string(), JsonValue::from(PROTOCOL)),
        ("kind".to_string(), JsonValue::from(kind)),
    ]
}

/// A success response: the `proto`, `status: "ok"` and `kind` header,
/// then `fields` in order.
pub(crate) fn ok_response<'a>(
    kind: &str,
    fields: impl IntoIterator<Item = (&'a str, JsonValue)>,
) -> JsonValue {
    let mut all = vec![
        ("proto".to_string(), JsonValue::from(PROTOCOL)),
        ("status".to_string(), JsonValue::from("ok")),
        ("kind".to_string(), JsonValue::from(kind)),
    ];
    all.extend(fields.into_iter().map(|(k, v)| (k.to_string(), v)));
    JsonValue::Object(all)
}

/// Parses a wire strategy name.
///
/// # Errors
///
/// [`ErrorKind::Protocol`], listing the valid names.
pub fn parse_strategy(name: &str) -> Result<Strategy, ServiceError> {
    Strategy::from_name(name).ok_or_else(|| {
        ServiceError::new(
            ErrorKind::Protocol,
            format!(
                "unknown strategy `{name}` (valid: {})",
                Strategy::names().join(", ")
            ),
        )
    })
}

/// One compile submission, with builder-style construction on the
/// client side.
///
/// ```
/// use autobraid_service::protocol::CompileRequest;
/// use autobraid::pipeline::Strategy;
///
/// let req = CompileRequest::qasm("qreg q[2]; cx q[0],q[1];")
///     .with_label("bell")
///     .with_strategy(Strategy::Stack)
///     .with_timeout_ms(5_000);
/// assert_eq!(req.to_json().get("kind").unwrap().as_str(), Some("compile"));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CompileRequest {
    /// How to interpret [`CompileRequest::source`].
    pub format: SourceFormat,
    /// The circuit text.
    pub source: String,
    /// Optional circuit name override (part of the cache key — the
    /// canonical report carries the name).
    pub label: Option<String>,
    /// The compile settings, passed to the daemon's `Pipeline` as they
    /// are. `telemetry` and `trace` attach a snapshot or a Chrome trace
    /// to the response and force a cache bypass.
    pub options: CompileOptions,
    /// Code-distance override: changes the lattice timing model, hence
    /// the cache key and the reported wall-clock scaling.
    pub distance: Option<u32>,
    /// Per-request deadline in milliseconds; `None` uses the server
    /// default. Clamped to the server's maximum.
    pub timeout_ms: Option<u64>,
    /// `false` skips the cache entirely (response says `bypass`).
    pub use_cache: bool,
}

impl CompileRequest {
    /// A request carrying OpenQASM 2.0 source.
    pub fn qasm(source: impl Into<String>) -> Self {
        CompileRequest {
            format: SourceFormat::Qasm,
            source: source.into(),
            label: None,
            options: CompileOptions::default(),
            distance: None,
            timeout_ms: None,
            use_cache: true,
        }
    }

    /// A request carrying a conformance repro file.
    pub fn conformance(source: impl Into<String>) -> Self {
        CompileRequest {
            format: SourceFormat::Conformance,
            ..CompileRequest::qasm(source)
        }
    }

    /// Sets the circuit name used in reports (and the cache key).
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = Some(label.into());
        self
    }

    /// Sets the scheduler strategy.
    pub fn with_strategy(mut self, strategy: Strategy) -> Self {
        self.options.strategy = strategy;
        self
    }

    /// Sets the peephole-optimizer setting.
    pub fn with_optimize(mut self, on: bool) -> Self {
        self.options.optimize = on;
        self
    }

    /// Sets the verification setting.
    pub fn with_verify(mut self, on: bool) -> Self {
        self.options.verify = on;
        self
    }

    /// Requests an attached telemetry snapshot (cache bypass).
    pub fn with_telemetry(mut self, on: bool) -> Self {
        self.options.telemetry = on;
        self
    }

    /// Requests an attached event trace (cache bypass).
    pub fn with_trace(mut self, on: bool) -> Self {
        self.options.trace = on;
        self
    }

    /// Overrides the surface-code distance.
    pub fn with_distance(mut self, distance: u32) -> Self {
        self.distance = Some(distance);
        self
    }

    /// Sets the per-request deadline.
    pub fn with_timeout_ms(mut self, timeout_ms: u64) -> Self {
        self.timeout_ms = Some(timeout_ms);
        self
    }

    /// Enables/disables the cache for this request.
    pub fn with_cache(mut self, on: bool) -> Self {
        self.use_cache = on;
        self
    }

    /// Renders the request message. An option equal to its
    /// [`CompileOptions::default`] value is left out.
    pub fn to_json(&self) -> JsonValue {
        let mut fields = request_header("compile");
        fields.push(("format".to_string(), JsonValue::from(self.format.name())));
        fields.push(("source".to_string(), JsonValue::from(self.source.as_str())));
        if let Some(label) = &self.label {
            fields.push(("label".to_string(), JsonValue::from(label.as_str())));
        }
        let (set, default) = (&self.options, CompileOptions::default());
        let options: Vec<(&str, JsonValue)> = [
            (set.strategy != default.strategy).then(|| ("strategy", set.strategy.name().into())),
            (set.optimize != default.optimize).then(|| ("optimize", set.optimize.into())),
            (set.verify != default.verify).then(|| ("verify", set.verify.into())),
            (set.telemetry != default.telemetry).then(|| ("telemetry", set.telemetry.into())),
            (set.trace != default.trace).then(|| ("trace", set.trace.into())),
        ]
        .into_iter()
        .flatten()
        .collect();
        if !options.is_empty() {
            fields.push(("options".to_string(), JsonValue::object(options)));
        }
        if let Some(d) = self.distance {
            fields.push(("distance".to_string(), JsonValue::from(d)));
        }
        if let Some(t) = self.timeout_ms {
            fields.push(("timeout_ms".to_string(), JsonValue::from(t)));
        }
        if !self.use_cache {
            fields.push(("cache".to_string(), JsonValue::from(false)));
        }
        JsonValue::Object(fields)
    }
}

/// Opens a streaming compile session (`kind: "session.open"`). A
/// session holds one bounded-queue slot for its whole lifetime —
/// admission control treats the open stream exactly like an in-flight
/// batch compile.
///
/// ```
/// use autobraid_service::protocol::SessionOpen;
/// use autobraid::pipeline::Strategy;
///
/// let open = SessionOpen::new(4)
///     .with_label("bell-stream")
///     .with_strategy(Strategy::Stack);
/// assert_eq!(open.to_json().get("kind").unwrap().as_str(), Some("session.open"));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SessionOpen {
    /// Register width of the incoming stream.
    pub qubits: u32,
    /// The session settings, passed to the daemon's
    /// `StreamingPipeline` as they are. On the wire, `step_budget`
    /// travels as whole microseconds (`budget_us`).
    pub options: StreamingOptions,
    /// Attach an `autobraid.trace/v1` Chrome trace to the close report.
    pub trace: bool,
}

impl SessionOpen {
    /// A session over a `qubits`-wide register with default options.
    pub fn new(qubits: u32) -> Self {
        SessionOpen {
            qubits,
            options: StreamingOptions::default(),
            trace: false,
        }
    }

    /// Sets the circuit name used in the close report.
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.options.label = label.into();
        self
    }

    /// Sets the scheduler strategy.
    pub fn with_strategy(mut self, strategy: Strategy) -> Self {
        self.options.strategy = strategy;
        self
    }

    /// Pre-reserves defective channel vertices.
    pub fn with_defects(mut self, defects: Vec<(u32, u32)>) -> Self {
        self.options.defects = defects;
        self
    }

    /// Requests an attached event trace on close.
    pub fn with_trace(mut self, on: bool) -> Self {
        self.trace = on;
        self
    }

    /// Sets the per-step routing budget.
    pub fn with_budget_us(mut self, budget_us: u64) -> Self {
        self.options.step_budget = Some(Duration::from_micros(budget_us));
        self
    }

    /// Renders the request message. An option equal to its
    /// [`StreamingOptions::default`] value is left out.
    pub fn to_json(&self) -> JsonValue {
        let (set, default) = (&self.options, StreamingOptions::default());
        let mut fields = request_header("session.open");
        fields.push(("qubits".to_string(), JsonValue::from(self.qubits)));
        if set.label != default.label {
            fields.push(("label".to_string(), JsonValue::from(set.label.as_str())));
        }
        if set.strategy != default.strategy {
            fields.push(("strategy".to_string(), JsonValue::from(set.strategy.name())));
        }
        if set.defects != default.defects {
            let pairs = set
                .defects
                .iter()
                .map(|&(r, c)| JsonValue::Array(vec![JsonValue::from(r), JsonValue::from(c)]));
            fields.push(("defects".to_string(), JsonValue::Array(pairs.collect())));
        }
        if self.trace {
            fields.push(("trace".to_string(), JsonValue::from(true)));
        }
        if let Some(budget) = set.step_budget {
            let micros = u64::try_from(budget.as_micros()).unwrap_or(u64::MAX);
            fields.push(("budget_us".to_string(), JsonValue::from(micros)));
        }
        JsonValue::Object(fields)
    }
}

/// Renders one gate as its wire object:
/// `{"op": "cx", "qubits": [0, 1]}`, with an `"angle"` field for
/// parameterized rotations.
pub fn gate_to_json(gate: &Gate) -> JsonValue {
    let mut fields = Vec::with_capacity(3);
    match gate {
        Gate::Single { kind, qubit } => {
            fields.push(("op".to_string(), JsonValue::from(kind.mnemonic())));
            fields.push((
                "qubits".to_string(),
                JsonValue::Array(vec![JsonValue::from(*qubit)]),
            ));
            if let SingleKind::Rx(a) | SingleKind::Ry(a) | SingleKind::Rz(a) = kind {
                fields.push(("angle".to_string(), JsonValue::from(*a)));
            }
        }
        Gate::Two {
            kind,
            control,
            target,
        } => {
            fields.push(("op".to_string(), JsonValue::from(kind.mnemonic())));
            fields.push((
                "qubits".to_string(),
                JsonValue::Array(vec![JsonValue::from(*control), JsonValue::from(*target)]),
            ));
            if let TwoKind::CPhase(a) = kind {
                fields.push(("angle".to_string(), JsonValue::from(*a)));
            }
        }
    }
    JsonValue::Object(fields)
}

/// Narrows a wire integer to `u32`, answering a protocol error instead
/// of wrapping it (`4294967298` must not become `2`).
fn narrow(value: u64, what: &str) -> Result<u32, ServiceError> {
    u32::try_from(value).map_err(|_| {
        ServiceError::new(
            ErrorKind::Protocol,
            format!("{what} {value} does not fit in 32 bits"),
        )
    })
}

/// Parses a gate wire object.
///
/// # Errors
///
/// [`ErrorKind::Protocol`] errors naming the offending field.
pub fn gate_from_json(doc: &JsonValue) -> Result<Gate, ServiceError> {
    let proto_err = |detail: String| ServiceError::new(ErrorKind::Protocol, detail);
    let op = doc
        .get("op")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| proto_err("gate missing `op`".to_string()))?;
    let qubits: Vec<u32> = match doc.get("qubits") {
        Some(JsonValue::Array(items)) => items
            .iter()
            .map(|q| {
                let q = q.as_u64().ok_or_else(|| {
                    proto_err("gate `qubits` must be non-negative integers".to_string())
                })?;
                narrow(q, "gate qubit")
            })
            .collect::<Result<Vec<u32>, _>>()?,
        _ => return Err(proto_err("gate missing `qubits` array".to_string())),
    };
    let angle = doc.get("angle").and_then(JsonValue::as_f64);
    let arity_err = |want: usize| {
        proto_err(format!(
            "gate `{op}` takes {want} qubit(s), got {}",
            qubits.len()
        ))
    };
    let single = |kind: SingleKind| match qubits.as_slice() {
        [q] => Ok(Gate::Single { kind, qubit: *q }),
        _ => Err(arity_err(1)),
    };
    let two = |kind: TwoKind| match qubits.as_slice() {
        [c, t] if c == t => Err(proto_err(format!(
            "gate `{op}` has identical operands q[{c}]"
        ))),
        [c, t] => Ok(Gate::Two {
            kind,
            control: *c,
            target: *t,
        }),
        _ => Err(arity_err(2)),
    };
    let need_angle = || angle.ok_or_else(|| proto_err(format!("gate `{op}` requires an `angle`")));
    match op {
        "x" => single(SingleKind::X),
        "y" => single(SingleKind::Y),
        "z" => single(SingleKind::Z),
        "h" => single(SingleKind::H),
        "s" => single(SingleKind::S),
        "sdg" => single(SingleKind::Sdg),
        "t" => single(SingleKind::T),
        "tdg" => single(SingleKind::Tdg),
        "rx" => single(SingleKind::Rx(need_angle()?)),
        "ry" => single(SingleKind::Ry(need_angle()?)),
        "rz" => single(SingleKind::Rz(need_angle()?)),
        "measure" => single(SingleKind::Measure),
        "cx" => two(TwoKind::Cx),
        "cz" => two(TwoKind::Cz),
        "cp" => two(TwoKind::CPhase(need_angle()?)),
        "swap" => two(TwoKind::Swap),
        other => Err(proto_err(format!("unknown gate op `{other}`"))),
    }
}

/// Renders a fault event as its wire object: `{"fault": "tile-failure",
/// "row": r, "col": c}` or `{"fault": "magic-stall", "steps": n}`.
pub fn fault_to_json(fault: &FaultEvent) -> JsonValue {
    match fault {
        FaultEvent::TileFailure { row, col } => JsonValue::object([
            ("fault", JsonValue::from(fault.kind())),
            ("row", JsonValue::from(*row)),
            ("col", JsonValue::from(*col)),
        ]),
        FaultEvent::MagicStall { steps } => JsonValue::object([
            ("fault", JsonValue::from(fault.kind())),
            ("steps", JsonValue::from(*steps)),
        ]),
        _ => JsonValue::object([("fault", JsonValue::from(fault.kind()))]),
    }
}

/// Parses a fault wire object.
///
/// # Errors
///
/// [`ErrorKind::Protocol`] errors naming the offending field.
pub fn fault_from_json(doc: &JsonValue) -> Result<FaultEvent, ServiceError> {
    let proto_err = |detail: String| ServiceError::new(ErrorKind::Protocol, detail);
    let field = |name: &str| {
        doc.get(name)
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| proto_err(format!("fault missing numeric `{name}`")))
    };
    match doc.get("fault").and_then(JsonValue::as_str) {
        Some("tile-failure") => Ok(FaultEvent::TileFailure {
            row: narrow(field("row")?, "fault `row`")?,
            col: narrow(field("col")?, "fault `col`")?,
        }),
        Some("magic-stall") => Ok(FaultEvent::MagicStall {
            steps: field("steps")?,
        }),
        Some(other) => Err(proto_err(format!(
            "unknown fault `{other}` (tile-failure|magic-stall)"
        ))),
        None => Err(proto_err("inject request missing `fault`".to_string())),
    }
}

/// A parsed request message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe; answered with `kind: "pong"`.
    Ping,
    /// Service counters, cache statistics, and latency percentiles.
    Stats,
    /// The live-operations frame: the `autobraid.metrics/v1` windowed
    /// snapshot plus lifetime aggregates and gauges (`docs/METRICS.md`).
    Metrics,
    /// A compile submission.
    Compile(Box<CompileRequest>),
    /// Opens a streaming session (holds one queue slot until closed).
    SessionOpen(Box<SessionOpen>),
    /// Feeds gates into the open session's frontier.
    SessionGate(Vec<Gate>),
    /// Advances the open session's engine by `count` steps.
    SessionStep {
        /// How many engine steps to attempt (default 1).
        count: u64,
    },
    /// Injects a dynamic fault event into the open session.
    SessionInject(FaultEvent),
    /// Drains the open session and returns its canonical report.
    SessionClose,
}

impl Request {
    /// Parses a request frame's JSON.
    ///
    /// # Errors
    ///
    /// [`ErrorKind::Protocol`] errors naming the offending field.
    pub fn from_json(doc: &JsonValue) -> Result<Request, ServiceError> {
        let proto_err = |detail: String| ServiceError::new(ErrorKind::Protocol, detail);
        match doc.get("proto").and_then(JsonValue::as_str) {
            Some(PROTOCOL) => {}
            Some(other) => {
                return Err(proto_err(format!(
                    "unsupported protocol `{other}` (this server speaks {PROTOCOL})"
                )))
            }
            None => return Err(proto_err(format!("missing `proto` (expected {PROTOCOL})"))),
        }
        match doc.get("kind").and_then(JsonValue::as_str) {
            Some("ping") => Ok(Request::Ping),
            Some("stats") => Ok(Request::Stats),
            Some("metrics") => Ok(Request::Metrics),
            Some("compile") => {
                let source = doc
                    .get("source")
                    .and_then(JsonValue::as_str)
                    .ok_or_else(|| proto_err("compile request missing `source`".to_string()))?
                    .to_string();
                let format = match doc.get("format").and_then(JsonValue::as_str) {
                    None => SourceFormat::Qasm,
                    Some(name) => SourceFormat::from_name(name).ok_or_else(|| {
                        proto_err(format!("unknown format `{name}` (qasm|conformance)"))
                    })?,
                };
                let options = doc.get("options");
                let default = CompileOptions::default();
                let opt_bool = |key: &str, fallback: bool| {
                    options
                        .and_then(|o| o.get(key)?.as_bool())
                        .unwrap_or(fallback)
                };
                let strategy = match options.and_then(|o| o.get("strategy")?.as_str()) {
                    None => default.strategy,
                    Some(name) => parse_strategy(name)?,
                };
                Ok(Request::Compile(Box::new(CompileRequest {
                    format,
                    source,
                    label: doc
                        .get("label")
                        .and_then(JsonValue::as_str)
                        .map(str::to_string),
                    options: CompileOptions {
                        strategy,
                        optimize: opt_bool("optimize", default.optimize),
                        verify: opt_bool("verify", default.verify),
                        telemetry: opt_bool("telemetry", default.telemetry),
                        trace: opt_bool("trace", default.trace),
                    },
                    distance: doc
                        .get("distance")
                        .and_then(JsonValue::as_u64)
                        .map(|d| narrow(d, "`distance`"))
                        .transpose()?,
                    timeout_ms: doc.get("timeout_ms").and_then(JsonValue::as_u64),
                    use_cache: doc
                        .get("cache")
                        .and_then(JsonValue::as_bool)
                        .unwrap_or(true),
                })))
            }
            Some("session.open") => {
                let qubits = doc
                    .get("qubits")
                    .and_then(JsonValue::as_u64)
                    .ok_or_else(|| {
                        proto_err("session.open missing numeric `qubits`".to_string())
                    })?;
                let qubits = narrow(qubits, "session.open `qubits`")?;
                let mut options = StreamingOptions::default();
                if let Some(name) = doc.get("strategy").and_then(JsonValue::as_str) {
                    options.strategy = parse_strategy(name)?;
                }
                let not_pairs =
                    || proto_err("`defects` must be an array of [row, col] pairs".to_string());
                options.defects = match doc.get("defects") {
                    None => Vec::new(),
                    Some(JsonValue::Array(items)) => items
                        .iter()
                        .map(|pair| match pair {
                            JsonValue::Array(rc) if rc.len() == 2 => {
                                let r = rc[0].as_u64().ok_or_else(not_pairs)?;
                                let c = rc[1].as_u64().ok_or_else(not_pairs)?;
                                Ok((narrow(r, "defect row")?, narrow(c, "defect column")?))
                            }
                            _ => Err(not_pairs()),
                        })
                        .collect::<Result<Vec<_>, _>>()?,
                    Some(_) => return Err(not_pairs()),
                };
                if let Some(label) = doc.get("label").and_then(JsonValue::as_str) {
                    options.label = label.to_string();
                }
                options.step_budget = doc
                    .get("budget_us")
                    .and_then(JsonValue::as_u64)
                    .map(Duration::from_micros);
                Ok(Request::SessionOpen(Box::new(SessionOpen {
                    qubits,
                    options,
                    trace: doc
                        .get("trace")
                        .and_then(JsonValue::as_bool)
                        .unwrap_or(false),
                })))
            }
            Some("session.gate") => match doc.get("gates") {
                Some(JsonValue::Array(items)) => {
                    let gates = items
                        .iter()
                        .map(gate_from_json)
                        .collect::<Result<Vec<_>, _>>()?;
                    if gates.is_empty() {
                        return Err(proto_err("session.gate carried no gates".to_string()));
                    }
                    Ok(Request::SessionGate(gates))
                }
                _ => Err(proto_err("session.gate missing `gates` array".to_string())),
            },
            Some("session.step") => Ok(Request::SessionStep {
                count: doc.get("count").and_then(JsonValue::as_u64).unwrap_or(1),
            }),
            Some("session.inject") => Ok(Request::SessionInject(fault_from_json(doc)?)),
            Some("session.close") => Ok(Request::SessionClose),
            Some(other) => Err(proto_err(format!(
                "unknown request kind `{other}` (ping|stats|metrics|compile|\
                 session.open|session.gate|session.step|session.inject|\
                 session.close)"
            ))),
            None => Err(proto_err("missing request `kind`".to_string())),
        }
    }

    /// The wire `kind` this request travels under.
    pub fn kind(&self) -> &'static str {
        match self {
            Request::Ping => "ping",
            Request::Stats => "stats",
            Request::Metrics => "metrics",
            Request::Compile(_) => "compile",
            Request::SessionOpen(_) => "session.open",
            Request::SessionGate(_) => "session.gate",
            Request::SessionStep { .. } => "session.step",
            Request::SessionInject(_) => "session.inject",
            Request::SessionClose => "session.close",
        }
    }

    /// Renders the request message; the inverse of
    /// [`Request::from_json`].
    pub fn to_json(&self) -> JsonValue {
        let extra = match self {
            Request::Compile(req) => return req.to_json(),
            Request::SessionOpen(open) => return open.to_json(),
            Request::SessionGate(gates) => vec![(
                "gates".to_string(),
                JsonValue::Array(gates.iter().map(gate_to_json).collect()),
            )],
            Request::SessionStep { count } => vec![("count".to_string(), JsonValue::from(*count))],
            Request::SessionInject(fault) => match fault_to_json(fault) {
                JsonValue::Object(fault_fields) => fault_fields,
                _ => Vec::new(),
            },
            Request::Ping | Request::Stats | Request::Metrics | Request::SessionClose => Vec::new(),
        };
        let mut fields = request_header(self.kind());
        fields.extend(extra);
        JsonValue::Object(fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "{\"a\":1}").unwrap();
        write_frame(&mut buf, "").unwrap();
        let mut r = buf.as_slice();
        assert_eq!(
            read_frame(&mut r, DEFAULT_MAX_FRAME).unwrap().as_deref(),
            Some("{\"a\":1}")
        );
        assert_eq!(
            read_frame(&mut r, DEFAULT_MAX_FRAME).unwrap().as_deref(),
            Some("")
        );
        assert!(read_frame(&mut r, DEFAULT_MAX_FRAME).unwrap().is_none());
    }

    #[test]
    fn oversized_and_truncated_frames_are_errors() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "0123456789").unwrap();
        let mut r = buf.as_slice();
        assert!(matches!(
            read_frame(&mut r, 4),
            Err(FrameError::TooLarge {
                announced: 10,
                max: 4
            })
        ));
        // EOF inside the payload.
        let mut r = &buf[..7];
        assert!(matches!(
            read_frame(&mut r, DEFAULT_MAX_FRAME),
            Err(FrameError::Io(_))
        ));
        // EOF inside the length prefix.
        let mut r = &buf[..2];
        assert!(matches!(
            read_frame(&mut r, DEFAULT_MAX_FRAME),
            Err(FrameError::Io(_))
        ));
        // Invalid UTF-8 payload.
        let mut bad = 2u32.to_be_bytes().to_vec();
        bad.extend_from_slice(&[0xff, 0xfe]);
        let mut r = bad.as_slice();
        assert!(matches!(
            read_frame(&mut r, DEFAULT_MAX_FRAME),
            Err(FrameError::Utf8)
        ));
    }

    #[test]
    fn request_round_trips_through_json() {
        let req = CompileRequest::qasm("qreg q[2]; cx q[0],q[1];")
            .with_label("bell")
            .with_strategy(Strategy::Maslov)
            .with_optimize(false)
            .with_verify(true)
            .with_telemetry(true)
            .with_distance(17)
            .with_timeout_ms(250)
            .with_cache(false);
        let parsed = Request::from_json(&req.to_json()).unwrap();
        assert_eq!(parsed, Request::Compile(Box::new(req)));

        let ping = JsonValue::object([
            ("proto", JsonValue::from(PROTOCOL)),
            ("kind", JsonValue::from("ping")),
        ]);
        assert_eq!(Request::from_json(&ping).unwrap(), Request::Ping);
    }

    #[test]
    fn defaults_are_applied_on_parse() {
        let minimal = JsonValue::object([
            ("proto", JsonValue::from(PROTOCOL)),
            ("kind", JsonValue::from("compile")),
            ("source", JsonValue::from("qreg q[1];")),
        ]);
        let Request::Compile(req) = Request::from_json(&minimal).unwrap() else {
            panic!("expected compile");
        };
        assert_eq!(req.format, SourceFormat::Qasm);
        assert!(req.use_cache);
        assert_eq!(req.options, CompileOptions::default());
    }

    #[test]
    fn malformed_requests_name_the_problem() {
        let cases: Vec<(JsonValue, &str)> = vec![
            (JsonValue::object::<&str>([]), "missing `proto`"),
            (
                JsonValue::object([("proto", JsonValue::from("other/v9"))]),
                "unsupported protocol",
            ),
            (
                JsonValue::object([("proto", JsonValue::from(PROTOCOL))]),
                "missing request `kind`",
            ),
            (
                JsonValue::object([
                    ("proto", JsonValue::from(PROTOCOL)),
                    ("kind", JsonValue::from("frobnicate")),
                ]),
                "unknown request kind",
            ),
            (
                JsonValue::object([
                    ("proto", JsonValue::from(PROTOCOL)),
                    ("kind", JsonValue::from("compile")),
                ]),
                "missing `source`",
            ),
        ];
        for (doc, expected) in cases {
            let err = Request::from_json(&doc).unwrap_err();
            assert_eq!(err.kind, ErrorKind::Protocol);
            assert!(err.detail.contains(expected), "{}", err.detail);
        }
        let bad_strategy = JsonValue::object([
            ("proto", JsonValue::from(PROTOCOL)),
            ("kind", JsonValue::from("compile")),
            ("source", JsonValue::from("qreg q[1];")),
            (
                "options",
                JsonValue::object([("strategy", JsonValue::from("warp-drive"))]),
            ),
        ]);
        let err = Request::from_json(&bad_strategy).unwrap_err();
        assert!(err.detail.contains("warp-drive"));
        assert!(err.detail.contains("autobraid-full"));
    }

    #[test]
    fn session_open_round_trips_through_json() {
        let open = SessionOpen::new(6)
            .with_label("stream")
            .with_strategy(Strategy::PathFinder)
            .with_defects(vec![(1, 2), (3, 4)])
            .with_trace(true)
            .with_budget_us(500);
        let parsed = Request::from_json(&open.to_json()).unwrap();
        assert_eq!(parsed, Request::SessionOpen(Box::new(open)));

        let minimal = JsonValue::object([
            ("proto", JsonValue::from(PROTOCOL)),
            ("kind", JsonValue::from("session.open")),
            ("qubits", JsonValue::from(3u32)),
        ]);
        let Request::SessionOpen(open) = Request::from_json(&minimal).unwrap() else {
            panic!("expected session.open");
        };
        assert_eq!(open.qubits, 3);
        assert!(!open.trace);
        assert_eq!(open.options, StreamingOptions::default());
    }

    #[test]
    fn every_request_kind_round_trips_through_to_json() {
        let requests = [
            Request::Ping,
            Request::Stats,
            Request::Metrics,
            Request::Compile(Box::new(
                CompileRequest::conformance("qreg q[2]; cx q[0],q[1];")
                    .with_label("bell")
                    .with_strategy(Strategy::Baseline)
                    .with_verify(false)
                    .with_trace(true),
            )),
            Request::Compile(Box::new(CompileRequest::qasm("qreg q[1];"))),
            Request::SessionOpen(Box::new(
                SessionOpen::new(5)
                    .with_label("s")
                    .with_defects(vec![(0, 1)])
                    .with_budget_us(0),
            )),
            Request::SessionOpen(Box::new(SessionOpen::new(2))),
            Request::SessionGate(vec![Gate::Two {
                kind: TwoKind::Cz,
                control: 0,
                target: 1,
            }]),
            Request::SessionStep { count: 7 },
            Request::SessionInject(FaultEvent::MagicStall { steps: 3 }),
            Request::SessionClose,
        ];
        let mut kinds: Vec<&str> = Vec::new();
        for request in &requests {
            let doc = request.to_json();
            assert_eq!(
                doc.get("kind").and_then(JsonValue::as_str),
                Some(request.kind())
            );
            assert_eq!(&Request::from_json(&doc).unwrap(), request);
            if !kinds.contains(&request.kind()) {
                kinds.push(request.kind());
            }
        }
        assert_eq!(kinds.len(), 9);
    }

    #[test]
    fn default_options_are_left_off_the_wire() {
        let compile = CompileRequest::qasm("qreg q[1];")
            .with_optimize(true)
            .to_json();
        assert!(compile.get("options").is_none(), "{compile:?}");
        let open = SessionOpen::new(2).with_label("stream").to_json();
        assert!(open.get("label").is_none() && open.get("strategy").is_none());
    }

    #[test]
    fn gates_and_faults_round_trip_through_json() {
        let gates = [
            Gate::Single {
                kind: SingleKind::H,
                qubit: 0,
            },
            Gate::Single {
                kind: SingleKind::Rz(0.25),
                qubit: 3,
            },
            Gate::Two {
                kind: TwoKind::Cx,
                control: 1,
                target: 2,
            },
            Gate::Two {
                kind: TwoKind::CPhase(1.5),
                control: 0,
                target: 4,
            },
            Gate::Two {
                kind: TwoKind::Swap,
                control: 2,
                target: 5,
            },
        ];
        for gate in gates {
            assert_eq!(gate_from_json(&gate_to_json(&gate)).unwrap(), gate);
        }
        for fault in [
            FaultEvent::TileFailure { row: 2, col: 3 },
            FaultEvent::MagicStall { steps: 4 },
        ] {
            assert_eq!(fault_from_json(&fault_to_json(&fault)).unwrap(), fault);
        }

        let frame = JsonValue::object([
            ("proto", JsonValue::from(PROTOCOL)),
            ("kind", JsonValue::from("session.gate")),
            (
                "gates",
                JsonValue::Array(vec![gate_to_json(&gates[0]), gate_to_json(&gates[2])]),
            ),
        ]);
        let Request::SessionGate(parsed) = Request::from_json(&frame).unwrap() else {
            panic!("expected session.gate");
        };
        assert_eq!(parsed, vec![gates[0], gates[2]]);
    }

    #[test]
    fn malformed_session_frames_name_the_problem() {
        let frame = |kind: &str, extra: Vec<(&str, JsonValue)>| {
            let mut fields = vec![
                ("proto".to_string(), JsonValue::from(PROTOCOL)),
                ("kind".to_string(), JsonValue::from(kind)),
            ];
            fields.extend(extra.into_iter().map(|(k, v)| (k.to_string(), v)));
            JsonValue::Object(fields)
        };
        let cases = vec![
            (frame("session.open", vec![]), "missing numeric `qubits`"),
            (
                frame(
                    "session.open",
                    vec![("qubits", JsonValue::from(4_294_967_298u64))],
                ),
                "`qubits` 4294967298 does not fit in 32 bits",
            ),
            (
                frame(
                    "session.open",
                    vec![
                        ("qubits", JsonValue::from(4u32)),
                        (
                            "defects",
                            JsonValue::Array(vec![JsonValue::Array(vec![
                                JsonValue::from(1u32),
                                JsonValue::from(1u64 << 32),
                            ])]),
                        ),
                    ],
                ),
                "defect column 4294967296 does not fit",
            ),
            (frame("session.gate", vec![]), "missing `gates`"),
            (
                frame("session.gate", vec![("gates", JsonValue::Array(vec![]))]),
                "no gates",
            ),
            (
                frame(
                    "session.gate",
                    vec![(
                        "gates",
                        JsonValue::Array(vec![JsonValue::object([(
                            "op",
                            JsonValue::from("frob"),
                        )])]),
                    )],
                ),
                "gate missing `qubits`",
            ),
            (
                frame(
                    "session.gate",
                    vec![(
                        "gates",
                        JsonValue::Array(vec![JsonValue::object([
                            ("op", JsonValue::from("cx")),
                            (
                                "qubits",
                                JsonValue::Array(vec![
                                    JsonValue::from(1u32),
                                    JsonValue::from(1u32),
                                ]),
                            ),
                        ])]),
                    )],
                ),
                "identical operands",
            ),
            (frame("session.inject", vec![]), "missing `fault`"),
            (
                frame(
                    "session.inject",
                    vec![("fault", JsonValue::from("cosmic-ray"))],
                ),
                "unknown fault",
            ),
        ];
        for (doc, expected) in cases {
            let err = Request::from_json(&doc).unwrap_err();
            assert_eq!(err.kind, ErrorKind::Protocol);
            assert!(err.detail.contains(expected), "{}", err.detail);
        }
        // `session.step` without a count defaults to one step.
        assert_eq!(
            Request::from_json(&frame("session.step", vec![])).unwrap(),
            Request::SessionStep { count: 1 }
        );
        assert_eq!(
            Request::from_json(&frame("session.close", vec![])).unwrap(),
            Request::SessionClose
        );
    }

    #[test]
    fn error_taxonomy_names_round_trip() {
        for kind in [
            ErrorKind::Protocol,
            ErrorKind::Parse,
            ErrorKind::Unsupported,
            ErrorKind::Overloaded,
            ErrorKind::Timeout,
            ErrorKind::Internal,
        ] {
            assert_eq!(ErrorKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(ErrorKind::from_name("nope"), None);
        for status in [CacheStatus::Hit, CacheStatus::Miss, CacheStatus::Bypass] {
            assert_eq!(CacheStatus::from_name(status.name()), Some(status));
        }
        let rendered = ServiceError::new(ErrorKind::Overloaded, "queue full")
            .to_response()
            .render_compact();
        assert!(rendered.contains("\"kind\":\"overloaded\""));
        assert!(rendered.contains("\"status\":\"error\""));
    }
}
