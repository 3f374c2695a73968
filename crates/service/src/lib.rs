//! Long-running solver service: a pub/sub process boundary around the
//! incremental [`SolverLoop`](uavnet_core::SolverLoop).
//!
//! The paper's disaster scenario is online — users move, UAVs die,
//! links sever — and the incremental engine absorbs those deltas at
//! memory speed. This crate makes it reachable as a standing process:
//!
//! * **Framing** — newline-delimited JSON over TCP ([`proto`]); one
//!   [`uavnet_json::Json`] value per line.
//! * **Topic registry** — `deltas/*` inbound (mobility, kill, sever,
//!   surge), `deployments` + `degradation` outbound.
//! * **Subscriber loop** — per-connection reader threads decode typed
//!   [`Delta`](uavnet_core::Delta) streams into a bounded ingress
//!   queue feeding the single solver worker.
//! * **Publisher** — after every absorbed delta the worker publishes
//!   the deployment diff (plus full placements) to `deployments`
//!   subscribers, and a numeric degradation report to `degradation`
//!   subscribers whenever coverage was lost or a repair spent relays.
//! * **Robustness** — the ingress queue is bounded and overflow gets
//!   a typed [`Reply::Busy`] (memory never grows
//!   with a flooding client); connections run under read/write
//!   timeouts; [`ServiceClient`] retries with
//!   exponential backoff; graceful shutdown drains in-flight deltas
//!   and publishes a final snapshot; a worker panic is contained as a
//!   typed [`ServiceError::WorkerPanicked`] that poisons the solver
//!   (subsequent publishes get typed errors, `/healthz` flips to 503)
//!   instead of killing the process.
//! * **Telemetry** — a hand-rolled HTTP/1.1 endpoint serves
//!   `MetricsSnapshot::to_prometheus` on `/metrics` and loop liveness
//!   on `/healthz`.
//!
//! Zero external dependencies: framing reuses the workspace's
//! `uavnet-json` reader/writer, threading is `std` only.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod proto;
pub mod server;

pub use client::{ClientConfig, PublishReceipt, ServiceClient};
pub use proto::{DegradationMsg, DeploymentMsg, Reply, Request};
pub use server::{ServiceConfig, ServiceHandle, ServiceSummary, SolverService};

use uavnet_core::CoreError;

/// Typed failure surface of the service boundary.
#[derive(Debug)]
#[non_exhaustive]
pub enum ServiceError {
    /// Socket-level failure (bind, accept, read, write, connect).
    Io(std::io::Error),
    /// A frame violated the wire protocol.
    Protocol(String),
    /// The bounded ingress queue stayed full through every retry.
    Busy {
        /// Sequence number of the rejected publish.
        seq: u64,
        /// The exhausted queue capacity.
        queue_capacity: usize,
    },
    /// The server reported a request failure.
    Remote(String),
    /// The solver worker panicked; the loop state is poisoned and
    /// subsequent deltas are refused until restart.
    WorkerPanicked(String),
    /// A solver error surfaced through the service boundary.
    Core(CoreError),
    /// The connection closed before a complete reply arrived.
    Closed,
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Io(e) => write!(f, "socket error: {e}"),
            ServiceError::Protocol(m) => write!(f, "protocol error: {m}"),
            ServiceError::Busy {
                seq,
                queue_capacity,
            } => write!(
                f,
                "ingress queue full (capacity {queue_capacity}) for publish seq {seq}"
            ),
            ServiceError::Remote(m) => write!(f, "server error: {m}"),
            ServiceError::WorkerPanicked(m) => write!(f, "solver worker panicked: {m}"),
            ServiceError::Core(e) => write!(f, "solver error: {e}"),
            ServiceError::Closed => write!(f, "connection closed mid-reply"),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Io(e) => Some(e),
            ServiceError::Core(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ServiceError {
    fn from(e: std::io::Error) -> Self {
        ServiceError::Io(e)
    }
}

impl From<CoreError> for ServiceError {
    fn from(e: CoreError) -> Self {
        ServiceError::Core(e)
    }
}
