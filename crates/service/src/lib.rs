//! `autobraid-service`: a long-running compile daemon (`autobraidd`)
//! in front of the AutoBraid pipeline, plus the client library for
//! talking to it.
//!
//! The service turns the batch compiler into shared infrastructure:
//! many clients submit circuits (OpenQASM 2.0 or conformance repro
//! files) over TCP, the daemon fans them across a
//! [`WorkerPool`](autobraid::runtime::WorkerPool), and repeated
//! submissions are answered from a **content-addressed cache** whose
//! correctness rests on the determinism contract — the canonical
//! compile report is byte-stable for a given (circuit, geometry,
//! options) triple, so a cached answer is exactly the answer a fresh
//! compile would give (`docs/RUNTIME.md`). Alongside batch compiles,
//! a connection can open a **streaming session** (`session.*` frames):
//! gates are fed incrementally into an online
//! [`StreamingPipeline`](autobraid::streaming::StreamingPipeline),
//! faults are injected mid-run, and the session holds one admission
//! slot until it closes or times out idle (`docs/STREAMING.md`).
//!
//! Three layers:
//!
//! - [`protocol`] — the `autobraid.service/v1` wire format: 4-byte
//!   big-endian length-prefixed JSON frames, request/response schemas,
//!   and the typed error taxonomy (`protocol`, `parse`, `unsupported`,
//!   `overloaded`, `timeout`, `internal`). Specified in
//!   `docs/SERVICE.md`.
//! - [`server`] — the daemon: bounded admission queue, per-request
//!   deadlines, LRU report cache (with a memo that lets a resubmitted
//!   source skip the parse), and `service.*` telemetry (request
//!   counters, cache hit/miss/bypass, latency percentiles).
//! - [`client`] — a minimal blocking client used by tests, the
//!   `autobraid-client` CLI, and the `bench serve` load generator.
//!
//! # Quick start
//!
//! ```
//! use autobraid_service::{Client, CompileRequest, Server, ServiceConfig};
//! use autobraid_service::protocol::CacheStatus;
//!
//! let server = Server::start(ServiceConfig::default())?;
//! let mut client = Client::connect(server.addr())?;
//! let request = CompileRequest::qasm("qreg q[2]; h q[0]; cx q[0],q[1];").with_label("bell");
//! let cold = client.compile(&request)?;
//! let warm = client.compile(&request)?;
//! assert_eq!(cold.cache, CacheStatus::Miss);
//! assert_eq!(warm.cache, CacheStatus::Hit);
//! // The determinism contract makes the hit byte-identical:
//! assert_eq!(cold.report.render_compact(), warm.report.render_compact());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod protocol;
pub mod server;

pub use cache::{CacheKey, CacheStats, ReportCache};
pub use client::{Client, ClientError, CompileOutcome};
pub use protocol::{
    CacheStatus, CompileRequest, ErrorKind, Request, ServiceError, SessionOpen, MAX_QUBITS,
    PROTOCOL,
};
pub use server::{Server, ServiceConfig};
