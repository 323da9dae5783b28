#![warn(missing_docs)]
//! # grout — facade crate for the GrOUT reproduction
//!
//! Re-exports the full stack under one roof so applications (and the
//! examples/integration tests in this repository) need a single dependency:
//!
//! - [`core`] — CEs, DAG, policies, coherence, the simulated
//!   cluster runtime and the threaded local runtime,
//! - [`net`] — the TCP transport (wire codec, `grout-workerd` serve loop,
//!   the `.tcp(...)` distributed front-end),
//! - [`polyglot`] — the multi-language `eval` API (Listing 1/2),
//! - [`workloads`] — the paper's evaluation suite,
//! - [`kernelc`] — the mini-CUDA front end (NVRTC stand-in),
//! - the substrates: [`desim`], [`gpu_sim`], [`net_sim`], [`uvm_sim`].

pub use grout_core as core;
pub use grout_net as net;
pub use grout_polyglot as polyglot;
pub use grout_workloads as workloads;

pub use desim;
pub use gpu_sim;
pub use kernelc;
pub use net_sim;
pub use uvm_sim;

// The most common types at the top level for convenience.
pub use grout_core::{
    replay_closure, AccessMode, AccessPattern, AdmissionConfig, AdmissionController,
    AdmissionDecision, AdmissionError, ArrayId, BatchStats, Ce, CeArg, CeId, CeKind, ChromeTracer,
    Coherence, DevicePolicy, DurabilityOptions, EventLog, ExplorationLevel, FailureDetector,
    FairShare, FaultConfig, FaultEvent, FaultKind, FaultPlan, FleetMux, HistorySample, KernelCost,
    Lane, LatencyStat, LinkMatrix, LocalArg, LocalConfig, LocalRuntime, Location, LogLevel,
    MemAdvise, MetricFamily, MetricKind, Metrics, MetricsHistory, MetricsSnapshot, NetOptions,
    NodeScheduler, Observability, PolicyKind, Priority, PurgeReport, Recorder, Regime, Runtime,
    RuntimeBuilder, SchedEvent, SessionId, SessionTransport, Shared, SharedPlacement, SimConfig,
    SimRuntime, SimTime, Telemetry,
};
pub use grout_net::{
    apply_durability, http_get, serve_shutdown, spawn_workerd, spawn_workerd_at, ClientOutcome,
    CtldClient, DistBuilder, DistError, DistRuntime, HttpServer, Introspect, TcpConfig, TcpExt,
    TcpTransport, WorkerSpec,
};
pub use grout_polyglot::{Language, Polyglot, Value};
