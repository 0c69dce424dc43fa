//! A small synchronous client for the `autobraid.service/v1` protocol.
//!
//! One [`Client`] wraps one TCP connection and issues blocking
//! request/response exchanges. It is deliberately minimal — enough for
//! tests, the `autobraid-client` CLI, and the `bench serve` load
//! generator; anything speaking length-prefixed JSON works just as well
//! (see `docs/SERVICE.md` for a `python3`-only quickstart).

use crate::protocol::{
    read_frame, write_frame, CacheStatus, CompileRequest, ErrorKind, FrameError, Request,
    ServiceError, SessionOpen, DEFAULT_MAX_FRAME,
};
use autobraid::streaming::FaultEvent;
use autobraid_circuit::Gate;
use autobraid_telemetry::JsonValue;
use std::io;
use std::net::{TcpStream, ToSocketAddrs};

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// The transport failed (connect, read, or write).
    Io(io::Error),
    /// The server sent something that is not a valid protocol response.
    Protocol(String),
    /// The server answered with a typed error response.
    Service(ServiceError),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Protocol(d) => write!(f, "protocol violation: {d}"),
            ClientError::Service(e) => write!(f, "service error — {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Io(io) => ClientError::Io(io),
            other => ClientError::Protocol(other.to_string()),
        }
    }
}

/// A successful compile exchange.
#[derive(Debug, Clone)]
pub struct CompileOutcome {
    /// Where the response came from (hit/miss/bypass).
    pub cache: CacheStatus,
    /// Server-side wall-clock for the request, in milliseconds.
    pub elapsed_ms: f64,
    /// The canonical compile report (the deterministic view — see
    /// `docs/RUNTIME.md`).
    pub report: JsonValue,
    /// Attached `autobraid.telemetry/v1` snapshot, when requested.
    pub telemetry: Option<JsonValue>,
    /// Attached Chrome-format event trace, when requested.
    pub trace: Option<JsonValue>,
}

/// One connection to an `autobraidd` instance.
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connects to a daemon.
    ///
    /// # Errors
    ///
    /// Propagates connect failures.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        // Request/response ping-pong with small frames: Nagle buys
        // nothing and costs a delayed-ACK round trip per exchange.
        stream.set_nodelay(true)?;
        Ok(Client { stream })
    }

    /// One raw request/response exchange with an already-rendered
    /// request document. Returns the parsed response after unwrapping
    /// typed error envelopes into [`ClientError::Service`].
    ///
    /// # Errors
    ///
    /// [`ClientError`] on transport failure, a malformed response, or a
    /// typed error response.
    pub fn request(&mut self, request: &JsonValue) -> Result<JsonValue, ClientError> {
        write_frame(&mut self.stream, &request.render_compact())?;
        let payload = read_frame(&mut self.stream, DEFAULT_MAX_FRAME)?
            .ok_or_else(|| ClientError::Protocol("server closed before responding".into()))?;
        let doc = JsonValue::parse(&payload)
            .map_err(|e| ClientError::Protocol(format!("unparseable response: {e}")))?;
        match doc.get("status").and_then(JsonValue::as_str) {
            Some("ok") => Ok(doc),
            Some("error") => {
                let err = doc.get("error");
                let kind = err
                    .and_then(|e| e.get("kind"))
                    .and_then(JsonValue::as_str)
                    .and_then(ErrorKind::from_name)
                    .ok_or_else(|| {
                        ClientError::Protocol("error response without a known kind".into())
                    })?;
                let detail = err
                    .and_then(|e| e.get("detail"))
                    .and_then(JsonValue::as_str)
                    .unwrap_or("")
                    .to_string();
                Err(ClientError::Service(ServiceError::new(kind, detail)))
            }
            _ => Err(ClientError::Protocol(
                "response missing `status` (ok|error)".into(),
            )),
        }
    }

    /// Liveness probe. Returns the pong frame, which carries the
    /// daemon's crate `version` and `uptime_ms`.
    ///
    /// # Errors
    ///
    /// [`ClientError`] on failure.
    pub fn ping(&mut self) -> Result<JsonValue, ClientError> {
        let response = self.request(&Request::Ping.to_json())?;
        match response.get("kind").and_then(JsonValue::as_str) {
            Some("pong") => Ok(response),
            other => Err(ClientError::Protocol(format!(
                "expected pong, got {other:?}"
            ))),
        }
    }

    /// Fetches the live-operations frame: the `autobraid.metrics/v1`
    /// windowed snapshot, lifetime aggregates, gauges, daemon version,
    /// and uptime (see `docs/METRICS.md`).
    ///
    /// # Errors
    ///
    /// [`ClientError`] on failure.
    pub fn metrics(&mut self) -> Result<JsonValue, ClientError> {
        let response = self.request(&Request::Metrics.to_json())?;
        match response.get("kind").and_then(JsonValue::as_str) {
            Some("metrics") => Ok(response),
            other => Err(ClientError::Protocol(format!(
                "expected metrics frame, got {other:?}"
            ))),
        }
    }

    /// Submits a compile and waits for the report.
    ///
    /// # Errors
    ///
    /// [`ClientError::Service`] with the server's typed error (`parse`,
    /// `overloaded`, `timeout`, …) or transport/protocol failures.
    pub fn compile(&mut self, request: &CompileRequest) -> Result<CompileOutcome, ClientError> {
        let response = self.request(&request.to_json())?;
        parse_report_response(response)
    }

    /// Opens a streaming session on this connection. The session holds
    /// one of the server's bounded-queue slots until it is closed (or
    /// times out idle) — an `overloaded` error means no slot was free.
    ///
    /// # Errors
    ///
    /// [`ClientError`] on failure (notably `overloaded`).
    pub fn session_open(&mut self, open: &SessionOpen) -> Result<(), ClientError> {
        let response = self.request(&open.to_json())?;
        expect_session(&response, "open").map(|_| ())
    }

    /// Feeds gates into the open session. Returns the number of gates
    /// still outstanding (pushed but not yet scheduled).
    ///
    /// # Errors
    ///
    /// [`ClientError`] on failure (e.g. `parse` for an out-of-range
    /// qubit — the session stays open).
    pub fn session_gate(&mut self, gates: &[Gate]) -> Result<usize, ClientError> {
        let response = self.request(&Request::SessionGate(gates.to_vec()).to_json())?;
        let doc = expect_session(&response, "gate")?;
        Ok(doc
            .get("outstanding")
            .and_then(JsonValue::as_u64)
            .unwrap_or(0) as usize)
    }

    /// Advances the open session's engine by `count` steps. Returns the
    /// per-step outcome objects (`{"outcome": "braid", "routed": …}`).
    ///
    /// # Errors
    ///
    /// [`ClientError`] on failure (notably `unsupported` when the
    /// frontier became unroutable).
    pub fn session_step(&mut self, count: u64) -> Result<Vec<JsonValue>, ClientError> {
        let response = self.request(&Request::SessionStep { count }.to_json())?;
        let doc = expect_session(&response, "step")?;
        match doc.get("outcomes") {
            Some(JsonValue::Array(items)) => Ok(items.clone()),
            _ => Err(ClientError::Protocol(
                "session.step response without `outcomes`".into(),
            )),
        }
    }

    /// Injects a dynamic fault event into the open session.
    ///
    /// # Errors
    ///
    /// [`ClientError`] on failure (`protocol` for an off-grid tile or a
    /// zero-length stall).
    pub fn session_inject(&mut self, fault: &FaultEvent) -> Result<(), ClientError> {
        let response = self.request(&Request::SessionInject(*fault).to_json())?;
        expect_session(&response, "inject").map(|_| ())
    }

    /// Drains the open session and returns its canonical compile
    /// report (always a cache `bypass` — streams are never cached).
    ///
    /// # Errors
    ///
    /// [`ClientError`] on failure (notably `unsupported` when the
    /// remaining frontier is unroutable).
    pub fn session_close(&mut self) -> Result<CompileOutcome, ClientError> {
        let response = self.request(&Request::SessionClose.to_json())?;
        parse_report_response(response)
    }
}

/// Unwraps a `{kind: "session", session: <op>}` acknowledgement.
fn expect_session<'a>(response: &'a JsonValue, op: &str) -> Result<&'a JsonValue, ClientError> {
    match (
        response.get("kind").and_then(JsonValue::as_str),
        response.get("session").and_then(JsonValue::as_str),
    ) {
        (Some("session"), Some(actual)) if actual == op => Ok(response),
        other => Err(ClientError::Protocol(format!(
            "expected session.{op} acknowledgement, got {other:?}"
        ))),
    }
}

/// Unwraps a `{kind: "report"}` response into a [`CompileOutcome`],
/// moving the report and its attachments out rather than copying them.
fn parse_report_response(response: JsonValue) -> Result<CompileOutcome, ClientError> {
    let mut fields = match response {
        JsonValue::Object(fields) => fields,
        _ => Vec::new(),
    };
    // The first field of a name wins, as with `JsonValue::get`.
    let mut take = |name: &str| {
        fields
            .iter_mut()
            .find(|(key, _)| key == name)
            .map(|(_, value)| std::mem::replace(value, JsonValue::Null))
    };
    let cache = take("cache")
        .as_ref()
        .and_then(JsonValue::as_str)
        .and_then(CacheStatus::from_name)
        .ok_or_else(|| ClientError::Protocol("report without a cache status".into()))?;
    let elapsed_ms = take("elapsed_ms")
        .as_ref()
        .and_then(JsonValue::as_f64)
        .unwrap_or(0.0);
    let report = take("report")
        .ok_or_else(|| ClientError::Protocol("report response without a report".into()))?;
    Ok(CompileOutcome {
        cache,
        elapsed_ms,
        report,
        telemetry: take("telemetry"),
        trace: take("trace"),
    })
}
