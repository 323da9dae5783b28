#![warn(missing_docs)]
//! # grout-net — the TCP transport for GrOUT
//!
//! Crosses the process (and node) boundary that `grout-core`'s
//! [`Transport`](grout_core::Transport) seam abstracts: where the
//! in-process [`ChannelTransport`](grout_core::ChannelTransport) wires
//! worker *threads* with crossbeam channels, this crate wires worker
//! *processes* (`grout-workerd`) with length-prefixed frames over
//! `std::net` sockets — no async runtime, no external dependencies.
//!
//! - [`wire`]: framing, strict-version handshake and the hand-rolled binary
//!   codec for the controller↔worker message vocabulary,
//! - [`TcpTransport`]: the controller side — reader threads, heartbeat
//!   liveness, the startup bandwidth-probe round feeding the scheduler's
//!   measured [`LinkMatrix`](grout_core::LinkMatrix),
//! - [`serve_shutdown`]: the worker side — the body of the `grout-workerd` binary,
//!   hosting the very same [`WorkerEngine`](grout_core::WorkerEngine) the
//!   in-process threads run,
//! - [`TcpExt`]/[`DistRuntime`]: the front-end gluing it onto
//!   [`Runtime::builder()`](grout_core::Runtime::builder),
//! - [`oplog`]: the session-tagged crash-recovery journal and
//!   hot-standby log shipping built on the planner's replicated op log,
//! - [`ctld`]: the `grout-ctld` client protocol (`Hello::Client`
//!   handshake, [`CtldClient`]),
//! - [`http`]: the hand-rolled HTTP/1.0 responder behind `--http` — the
//!   live introspection plane (`/metrics`, `/healthz`, `/sessions`,
//!   `/trace`) served from its own [`poll`] loop.
//!
//! Because controller logic, planner, and worker engine are all shared
//! with the in-process deployment, a seeded workload produces
//! byte-identical results over TCP loopback — the
//! `tests/dist_loopback.rs` differential test enforces it.

pub mod ctld;
pub mod http;
pub mod oplog;
pub mod poll;
pub mod session;
pub mod wire;

mod dist;
mod transport;
mod worker;

pub use ctld::{accept_client, client_connect, read_session_journal, ClientOutcome, CtldClient};
pub use dist::{
    apply_durability, spawn_workerd, spawn_workerd_at, DistBuilder, DistError, DistRuntime,
    DurabilityOptions, TcpExt, WorkerSpec,
};
pub use http::{http_get, HttpServer, Introspect};
pub use oplog::{
    read_journal, read_journal_sessions, standby_serve, Journal, JournalFooter, JournalSink,
    JournalWriter, ShipSink, StandbyOutcome,
};
pub use transport::{TcpConfig, TcpTransport};
pub use worker::serve_shutdown;
