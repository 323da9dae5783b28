#![warn(missing_docs)]
//! # grout-core — the GrOUT framework (paper reproduction)
//!
//! Transparent scale-out of GPU-accelerated applications to overcome UVM's
//! oversubscription slowdowns. This crate holds the paper's primary
//! contribution:
//!
//! - [`Ce`]/[`CeArg`]: language-independent Computational Elements,
//! - [`DepDag`]: the Global/Local dependency DAG with frontier maintenance
//!   and redundant-edge filtering (Algorithm 1),
//! - [`Coherence`]: per-array up-to-date location sets driving the
//!   controller-send vs peer-to-peer movement decision,
//! - [`NodeScheduler`] and [`PolicyKind`]: round-robin, vector-step,
//!   min-transfer-size and min-transfer-time with the Low/Medium/High
//!   exploration heuristic (Section IV-D),
//! - intra-node GrCUDA scheduling: device and stream selection plus wait
//!   events (Algorithm 2),
//! - [`Planner`]: the backend-agnostic scheduling core tying the above
//!   together — a pure state machine mutated only by applying serializable
//!   [`PlannerOp`]s, emitting one pure [`Plan`] per CE (observable through
//!   [`SchedTrace`]); [`LoggedPlanner`] funnels every mutation through one
//!   ordered op log that doubles as a crash-recovery journal and the
//!   hot-standby controller replication feed,
//! - [`SimRuntime`]: the analytic virtual-time cluster runtime used to
//!   regenerate the paper's figures, including the single-node GrCUDA
//!   baseline — it *prices* plans in virtual time, and
//! - [`LocalRuntime`]: a real multi-threaded controller/worker deployment
//!   executing the very same plans on host-CPU kernels.

mod builder;
mod ce;
mod coherence;
mod dag;
pub mod eventlog;
mod faults;
mod intranode;
mod local_runtime;
mod policy;
mod scheduler;
pub mod session;
mod sim_runtime;
pub mod telemetry;
mod timeline;
pub mod transport;

pub use builder::{validate_planner_inputs, Observability, Runtime, RuntimeBuilder, MAX_ENDPOINTS};
pub use ce::{ArrayId, Ce, CeArg, CeId, CeKind};
pub use coherence::{Coherence, Location, PurgeReport};
pub use dag::{AddOutcome, DagIndex, DepDag};
pub use eventlog::{EventLog, LogLevel};
pub use faults::{
    replay_closure, FailureDetector, FaultConfig, FaultEvent, FaultKind, FaultPlan, Health,
    NetFaultEvent, NetFaultKind, NetFaultPlan, SchedEvent,
};
pub use intranode::{
    select_device, select_stream, DevicePolicy, Placement, MAX_STREAMS_PER_DEVICE,
};
pub use local_runtime::{HostBuf, LocalArg, LocalConfig, LocalError, LocalRuntime, LocalStats};
pub use policy::{ExplorationLevel, LinkMatrix, NodeScheduler, PolicyKind};
pub use scheduler::{
    first_divergence, replay_ops, LoggedPlanner, Movement, MovementKind, OpSink, Plan, PlanError,
    PlanObserver, Planner, PlannerConfig, PlannerOp, PlannerResp, Reassignment, Recovery,
    SchedTrace,
};
pub use session::{
    AdmissionConfig, AdmissionController, AdmissionDecision, AdmissionError, BatchStats, FairShare,
    FleetMux, Priority, SessionId, SessionTransport, SharedPlacement, SESSION_ID_MASK,
    SESSION_SHIFT,
};
pub use sim_runtime::{CeRecord, RunStats, SimConfig, SimRuntime};
pub use telemetry::{
    monotonic_ns, ArgValue, ChromeTracer, ClockSync, HistorySample, Lane, LaneAligner, LatencyStat,
    MetricFamily, MetricKind, Metrics, MetricsHistory, MetricsSnapshot, PeerSample, PeerWireStats,
    Recorder, Shared, SpanEvent, Telemetry, SESSION_LANE_STRIDE,
};
pub use timeline::{validate as validate_timeline, TimelineReport};
pub use transport::{
    ChannelTransport, CtrlMsg, ExecFault, ExecSpec, Flow, Liveness, Outbound, SendLost, Transport,
    TransportRecvError, WorkerCounters, WorkerEngine, WorkerMsg, WorkerSpan, WorkerSpanKind,
    TELEMETRY_BUFFER_CAP, TELEMETRY_FLUSH_TICK, TELEMETRY_MAX_BATCH,
};

// Re-export the substrate types users need at the API boundary.
pub use desim::{SimDuration, SimTime};
pub use gpu_sim::{DeviceId, DeviceSpec, KernelCost, NodeSpec, StreamId};
pub use uvm_sim::{AccessMode, AccessPattern, MemAdvise, Regime, UvmConfig};
