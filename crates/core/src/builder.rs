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

use crate::faults::{FaultConfig, FaultPlan};
use crate::local_runtime::{LocalConfig, LocalError, LocalRuntime};
use crate::policy::{LinkMatrix, PolicyKind};
use crate::scheduler::{PlanError, PlannerConfig, SchedTrace};
use crate::sim_runtime::{SimConfig, SimRuntime};
use crate::telemetry::{Metrics, Recorder, Telemetry};

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
/// surface: set the shared planner knobs once, then pick the backend with
/// [`build_sim`](RuntimeBuilder::build_sim) or
/// [`build_local`](RuntimeBuilder::build_local).
#[derive(Debug, Clone)]
pub struct RuntimeBuilder {
    workers: usize,
    policy: PolicyKind,
    p2p_enabled: bool,
    flat_scheduling: bool,
    controller_colocated: bool,
    faults: FaultPlan,
    fault_cfg: FaultConfig,
    telemetry: Telemetry,
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
            telemetry: Telemetry::off(),
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

    /// Detection/retry/backoff knobs for the recovery path.
    pub fn fault_config(mut self, cfg: FaultConfig) -> Self {
        self.fault_cfg = cfg;
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
        let (cfg, telemetry) = self.into_local_parts();
        let mut rt = LocalRuntime::try_new(cfg)?;
        rt.set_telemetry(telemetry);
        Ok(rt)
    }

    /// Build the plan-executing backend over an explicit [`Transport`](crate::Transport)
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

/// `validate_planner` plus the link-matrix checks: every input
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
