//! One front door for both runtimes: [`Runtime::builder()`].
//!
//! The simulator and the local deployment used to be configured through
//! two parallel config structs with slightly different construction
//! ergonomics (`SimRuntime::new` panicked, `LocalRuntime::try_new`
//! returned `Result`). The builder unifies them: set the shared planner
//! knobs once, optionally attach a [`Recorder`], then pick the backend
//! with [`RuntimeBuilder::build_sim`] or [`RuntimeBuilder::build_local`] —
//! both fallible, both validating the configuration up front with
//! [`PlanError::InvalidConfig`] instead of panicking mid-run.
//!
//! ```
//! use grout_core::{PolicyKind, Runtime};
//! let mut rt = Runtime::builder()
//!     .workers(4)
//!     .policy(PolicyKind::RoundRobin)
//!     .build_sim()
//!     .expect("valid config");
//! let a = rt.alloc(1 << 20);
//! # let _ = a;
//! ```
//!
//! Existing code holding a fully-formed [`SimConfig`]/[`LocalConfig`] can
//! pass it through the [`RuntimeBuilder::sim_config`] /
//! [`RuntimeBuilder::local_config`] escape hatches; those override the
//! knob-style setters entirely (telemetry still applies).

use crate::faults::{FaultConfig, FaultPlan, NetFaultPlan};
use crate::local_runtime::{LocalConfig, LocalError, LocalRuntime};
use crate::policy::{LinkMatrix, PolicyKind};
use crate::scheduler::{PlanError, PlannerConfig, SchedTrace};
use crate::sim_runtime::{SimConfig, SimRuntime};
use crate::telemetry::{Metrics, Recorder, Telemetry};

/// Grouped network/liveness knobs: one struct instead of the flags that
/// accreted across the heartbeat, suspect/resume and TCP-probe work.
///
/// The three liveness knobs overlay the planner's [`FaultConfig`] (they
/// are the same values — `RuntimeBuilder::net` keeps the two surfaces in
/// sync); the `Option` fields are TCP-transport extras that in-process
/// deployments ignore.
///
/// ```
/// use grout_core::{NetOptions, Runtime};
/// let rt = Runtime::builder()
///     .workers(2)
///     .net(NetOptions {
///         heartbeat_ms: 50,
///         stale_after_beats: 4,
///         ..NetOptions::default()
///     })
///     .build_local();
/// # let _ = rt;
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct NetOptions {
    /// Worker heartbeat cadence in milliseconds.
    pub heartbeat_ms: u32,
    /// Heartbeats a worker may miss before it is suspected (socket
    /// severed, session resume engaged).
    pub stale_after_beats: u32,
    /// How long a suspected worker may keep failing resumes before it is
    /// declared dead and quarantined, in milliseconds.
    pub reconnect_window_ms: u64,
    /// Ballast bytes per startup bandwidth probe (TCP only; `None` keeps
    /// the transport default).
    pub probe_bytes: Option<u64>,
    /// Per-probe echo timeout in milliseconds (TCP only).
    pub probe_timeout_ms: Option<u64>,
    /// How long to wait for a spawned `grout-workerd` to announce its
    /// listen address, in milliseconds (TCP only).
    pub spawn_timeout_ms: Option<u64>,
}

impl Default for NetOptions {
    fn default() -> Self {
        let fc = FaultConfig::default();
        NetOptions {
            heartbeat_ms: fc.heartbeat_ms,
            stale_after_beats: fc.stale_after_beats,
            reconnect_window_ms: fc.reconnect_window.0 / 1_000_000,
            probe_bytes: None,
            probe_timeout_ms: None,
            spawn_timeout_ms: None,
        }
    }
}

/// Grouped durability knobs: where the planner's op log goes. The paths
/// are carried by the builder and consumed by the front-ends that own
/// the sinks (`grout-net` attaches the journal/ship-log writers; the
/// simulator ignores them).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DurabilityOptions {
    /// Stream every planner op to this crash-recovery journal file.
    pub journal: Option<std::path::PathBuf>,
    /// Ship every planner op to a hot-standby controller at this address.
    pub ship_log: Option<String>,
}

/// Namespace for [`Runtime::builder`]; the builder is the only way to
/// construct a runtime without naming a backend-specific config struct.
#[derive(Debug)]
pub struct Runtime;

impl Runtime {
    /// Start configuring a runtime (sim or local — decided at `build_*`).
    pub fn builder() -> RuntimeBuilder {
        RuntimeBuilder::default()
    }
}

/// Builder for [`SimRuntime`] and [`LocalRuntime`] sharing one knob
/// surface. See the [module docs](self) for the two construction styles.
#[derive(Debug, Clone)]
pub struct RuntimeBuilder {
    workers: usize,
    policy: PolicyKind,
    p2p_enabled: bool,
    flat_scheduling: bool,
    controller_colocated: bool,
    faults: FaultPlan,
    fault_cfg: FaultConfig,
    net_faults: NetFaultPlan,
    telemetry: Telemetry,
    net: Option<NetOptions>,
    durability: DurabilityOptions,
    sim: Option<SimConfig>,
    local: Option<LocalConfig>,
}

impl Default for RuntimeBuilder {
    fn default() -> Self {
        RuntimeBuilder {
            workers: 2,
            policy: PolicyKind::RoundRobin,
            p2p_enabled: true,
            flat_scheduling: false,
            controller_colocated: false,
            faults: FaultPlan::none(),
            fault_cfg: FaultConfig::default(),
            net_faults: NetFaultPlan::none(),
            telemetry: Telemetry::off(),
            net: None,
            durability: DurabilityOptions::default(),
            sim: None,
            local: None,
        }
    }
}

impl RuntimeBuilder {
    /// Number of worker nodes (threads for the local backend).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Inter-node scheduling policy.
    pub fn policy(mut self, policy: PolicyKind) -> Self {
        self.policy = policy;
        self
    }

    /// Enable/disable peer-to-peer worker transfers (ablation).
    pub fn p2p(mut self, enabled: bool) -> Self {
        self.p2p_enabled = enabled;
        self
    }

    /// Flat (non-hierarchical) scheduling ablation.
    pub fn flat_scheduling(mut self, flat: bool) -> Self {
        self.flat_scheduling = flat;
        self
    }

    /// Colocate the controller with worker 0 (GrCUDA-style single node).
    pub fn controller_colocated(mut self, colocated: bool) -> Self {
        self.controller_colocated = colocated;
        self
    }

    /// Deterministic fault schedule to inject.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Detection/retry/backoff knobs for the recovery path. The three
    /// net-liveness fields (`heartbeat_ms`, `stale_after_beats`,
    /// `reconnect_window`) are better set through
    /// [`RuntimeBuilder::net`], which groups them with the TCP-only
    /// knobs; whichever of the two setters is called last wins.
    pub fn fault_config(mut self, cfg: FaultConfig) -> Self {
        self.fault_cfg = cfg;
        self
    }

    /// Grouped network/liveness knobs (heartbeat cadence, staleness,
    /// resume window, TCP probe/spawn sizing). The liveness trio is
    /// mirrored into the planner's [`FaultConfig`] so one call tunes both
    /// the in-process and the TCP deployment.
    pub fn net(mut self, opts: NetOptions) -> Self {
        self.fault_cfg.heartbeat_ms = opts.heartbeat_ms;
        self.fault_cfg.stale_after_beats = opts.stale_after_beats;
        self.fault_cfg.reconnect_window = crate::SimDuration::from_millis(opts.reconnect_window_ms);
        self.net = Some(opts);
        self
    }

    /// Read-back of the grouped net knobs (`None` if [`RuntimeBuilder::net`]
    /// was never called); transport front-ends consume the TCP-only
    /// fields from here.
    pub fn net_options_ref(&self) -> Option<&NetOptions> {
        self.net.as_ref()
    }

    /// Grouped durability knobs: op-log journal path and hot-standby
    /// ship-log address. The builder only carries them — the front-end
    /// that owns the sinks (e.g. `grout-net`'s `apply_durability`)
    /// attaches the writers after the runtime is built.
    pub fn durability(mut self, opts: DurabilityOptions) -> Self {
        self.durability = opts;
        self
    }

    /// Read-back of the grouped durability knobs.
    pub fn durability_ref(&self) -> &DurabilityOptions {
        &self.durability
    }

    /// Read-back of the configured fault knobs, for transport front-ends
    /// that derive their timing from the same surface (the TCP builder
    /// turns `heartbeat_ms` / `stale_after_beats` / `reconnect_window`
    /// into socket-level cadence and resume windows).
    pub fn fault_config_ref(&self) -> &FaultConfig {
        &self.fault_cfg
    }

    /// Read-back of the configured network-chaos plan (the TCP builder
    /// forwards it to the socket layer).
    pub fn net_faults_ref(&self) -> &NetFaultPlan {
        &self.net_faults
    }

    /// Deterministic network-chaos schedule (frame drops, duplicates,
    /// delays, severs, partitions) injected below the reliable-session
    /// layer. Local backend only; the simulator has no wire. The chaos
    /// differential harness asserts runs under any such plan stay
    /// bit-identical to the clean run.
    pub fn net_faults(mut self, plan: NetFaultPlan) -> Self {
        self.net_faults = plan;
        self
    }

    /// Attach a [`Recorder`] for spans/instants/counters. Use
    /// [`crate::telemetry::Shared`] + [`RuntimeBuilder::telemetry`] when
    /// you need the recorder back after the run.
    pub fn recorder(mut self, rec: impl Recorder + 'static) -> Self {
        self.telemetry = Telemetry::new(rec);
        self
    }

    /// Attach an existing [`Telemetry`] handle (e.g. from
    /// [`crate::telemetry::Shared::telemetry`]).
    pub fn telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Use this exact [`SimConfig`] for `build_sim`, bypassing the knob
    /// setters (telemetry still applies).
    pub fn sim_config(mut self, cfg: SimConfig) -> Self {
        self.sim = Some(cfg);
        self
    }

    /// Use this exact [`LocalConfig`] for `build_local`, bypassing the
    /// knob setters (telemetry still applies).
    pub fn local_config(mut self, cfg: LocalConfig) -> Self {
        self.local = Some(cfg);
        self
    }

    /// Build the virtual-time simulator backend.
    pub fn build_sim(self) -> Result<SimRuntime, PlanError> {
        let cfg = match self.sim {
            Some(cfg) => cfg,
            None => {
                let mut cfg = SimConfig::paper_grout(self.workers, self.policy);
                cfg.planner.p2p_enabled = self.p2p_enabled;
                cfg.planner.flat_scheduling = self.flat_scheduling;
                cfg.planner.controller_colocated = self.controller_colocated;
                cfg.planner.faults = self.faults;
                cfg.planner.fault_cfg = self.fault_cfg;
                cfg
            }
        };
        let mut rt = SimRuntime::try_new(cfg)?;
        rt.set_telemetry(self.telemetry);
        Ok(rt)
    }

    /// Build the real threaded controller/worker backend.
    pub fn build_local(self) -> Result<LocalRuntime, LocalError> {
        let net_faults = self.net_faults.clone();
        let (cfg, telemetry) = self.into_local_parts();
        let mut rt = if net_faults.is_empty() {
            LocalRuntime::try_new(cfg)?
        } else {
            crate::builder::validate_planner(&cfg.planner).map_err(LocalError::Plan)?;
            let mut transport = crate::transport::ChannelTransport::new(cfg.planner.workers);
            transport.set_net_faults(net_faults);
            LocalRuntime::with_transport(cfg, Box::new(transport))?
        };
        rt.set_telemetry(telemetry);
        Ok(rt)
    }

    /// Build the plan-executing backend over an explicit [`Transport`]
    /// (e.g. a `grout-net` TCP mesh). The endpoint count of the transport
    /// must match the configured worker count.
    pub fn build_with_transport(
        self,
        transport: Box<dyn crate::transport::Transport>,
    ) -> Result<LocalRuntime, LocalError> {
        let (cfg, telemetry) = self.into_local_parts();
        let mut rt = LocalRuntime::with_transport(cfg, transport)?;
        rt.set_telemetry(telemetry);
        Ok(rt)
    }

    /// The fully resolved local config + telemetry this builder describes
    /// (what `build_local`/`build_with_transport` construct from).
    /// Transport front-ends (e.g. `grout-net`'s `.tcp(...)`) use this to
    /// learn the worker count before establishing connections.
    pub fn into_local_parts(self) -> (LocalConfig, Telemetry) {
        let cfg = match self.local {
            Some(cfg) => cfg,
            None => {
                let mut cfg = LocalConfig::new(self.workers, self.policy);
                cfg.planner.p2p_enabled = self.p2p_enabled;
                cfg.planner.flat_scheduling = self.flat_scheduling;
                cfg.planner.controller_colocated = self.controller_colocated;
                cfg.planner.faults = self.faults;
                cfg.planner.fault_cfg = self.fault_cfg;
                cfg
            }
        };
        (cfg, self.telemetry)
    }
}

/// Most endpoints (controller plus workers) a planner may be built for:
/// decoders refuse larger link matrices and fleets before allocating.
pub const MAX_ENDPOINTS: usize = 4096;

/// Validate the shared planner knobs; both `try_new` paths call this so
/// the two backends reject the same configs with the same error.
pub(crate) fn validate_planner(cfg: &PlannerConfig) -> Result<(), PlanError> {
    if cfg.workers == 0 {
        return Err(PlanError::InvalidConfig("need at least one worker"));
    }
    if cfg.workers >= MAX_ENDPOINTS {
        return Err(PlanError::InvalidConfig("too many workers"));
    }
    if let PolicyKind::VectorStep(v) = &cfg.policy {
        if v.is_empty() || v.iter().all(|&c| c == 0) {
            return Err(PlanError::InvalidConfig(
                "vector-step vector must contain a positive count",
            ));
        }
    }
    Ok(())
}

/// [`validate_planner`] plus the link-matrix checks: every input
/// [`Planner::new`](crate::Planner::new) would panic on is an error. For
/// planner configs read from a socket or a file.
pub fn validate_planner_inputs(
    cfg: &PlannerConfig,
    links: Option<&LinkMatrix>,
) -> Result<(), PlanError> {
    validate_planner(cfg)?;
    match links {
        None if matches!(cfg.policy, PolicyKind::MinTransferTime(_)) => Err(
            PlanError::InvalidConfig("min-transfer-time requires a link matrix"),
        ),
        Some(l) if l.endpoints() <= cfg.workers => Err(PlanError::InvalidConfig(
            "link matrix must cover the controller and every worker",
        )),
        _ => Ok(()),
    }
}

/// Uniform read access to a runtime's observability surfaces: the bounded
/// plan/event trace, the backend-specific run statistics, and the shared
/// [`Metrics`] registry. Implemented by [`SimRuntime`] and
/// [`LocalRuntime`]; re-exported from the `grout` facade.
pub trait Observability {
    /// Backend-specific aggregate stats ([`crate::RunStats`] for the sim,
    /// [`crate::LocalStats`] for the local deployment).
    type Stats;

    /// The bounded plan ring + unbounded [`crate::SchedEvent`] log.
    fn sched_trace(&self) -> &SchedTrace;

    /// Aggregate run statistics.
    fn stats(&self) -> Self::Stats;

    /// The always-on metrics registry (latencies, bytes, fault counters,
    /// per-worker occupancy).
    fn metrics(&self) -> &Metrics;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_builds_both_backends() {
        let sim = Runtime::builder()
            .workers(2)
            .policy(PolicyKind::MinTransferSize(
                crate::policy::ExplorationLevel::Low,
            ))
            .build_sim();
        assert!(sim.is_ok());
        let local = Runtime::builder().workers(1).build_local();
        assert!(local.is_ok());
    }

    #[test]
    fn zero_workers_is_invalid_config_not_a_panic() {
        let err = Runtime::builder().workers(0).build_sim().err();
        assert!(matches!(err, Some(PlanError::InvalidConfig(_))));
        let err = Runtime::builder().workers(0).build_local().err();
        assert!(matches!(
            err,
            Some(LocalError::Plan(PlanError::InvalidConfig(_)))
        ));
    }

    #[test]
    fn empty_vector_step_is_invalid_config() {
        let err = Runtime::builder()
            .workers(2)
            .policy(PolicyKind::VectorStep(vec![]))
            .build_sim()
            .err();
        assert!(matches!(err, Some(PlanError::InvalidConfig(_))));
    }

    #[test]
    fn mismatched_topology_is_invalid_config() {
        let mut cfg = SimConfig::paper_grout(2, PolicyKind::RoundRobin);
        cfg.planner.workers = 3; // topology still covers 2 workers
        let err = Runtime::builder().sim_config(cfg).build_sim().err();
        assert!(matches!(err, Some(PlanError::InvalidConfig(_))));
    }

    #[test]
    fn ablation_knobs_reach_the_planner_config() {
        let rt = Runtime::builder()
            .workers(2)
            .p2p(false)
            .flat_scheduling(true)
            .controller_colocated(true)
            .build_sim()
            .expect("valid");
        let p = &rt.config().planner;
        assert!(!p.p2p_enabled && p.flat_scheduling && p.controller_colocated);
    }
}
