//! The simulated-cluster runtime: GrOUT's Controller/Worker architecture
//! over the modeled OCI testbed (Figure 3 of the paper).
//!
//! A [`SimRuntime`] is a *plan executor*: every submitted CE goes through
//! the shared [`Planner`] (paper Algorithm 1 — dependencies → node
//! assignment → data movements) and comes back as a pure [`Plan`], which
//! this runtime then *prices in virtual time* over the modeled network and
//! one [`gpu_sim::GpuNode`] + per-GPU [`uvm_sim::UvmDevice`] per worker.
//! Intra-node device/stream selection (Algorithm 2) happens here because
//! only the simulator models devices; the resulting [`crate::Placement`]
//! is filled back into the plan before it reaches the [`SchedTrace`].
//!
//! The single-node **GrCUDA baseline** is the same runtime configured with
//! one worker and a colocated controller ([`SimConfig::grcuda_baseline`]).

use std::collections::HashMap;

use desim::{SimDuration, SimTime};
use gpu_sim::{DeviceId, GpuNode, KernelCost, NodeSpec, StreamId};
use net_sim::{Network, Topology};
use uvm_sim::{Regime, UvmConfig, UvmDevice, UvmStats};

use crate::ce::{ArrayId, Ce, CeArg, CeId, CeKind};
use crate::coherence::{Coherence, Location};
use crate::dag::{DagIndex, DepDag};
use crate::faults::{FailureDetector, SchedEvent};
use crate::intranode::{select_device, select_stream, DevicePolicy, Placement};
use crate::policy::{LinkMatrix, PolicyKind};
use crate::scheduler::{
    LoggedPlanner, Movement, MovementKind, OpSink, Plan, PlanError, PlanObserver, Planner,
    PlannerConfig, PlannerOp, SchedTrace,
};
use crate::telemetry::{ArgValue, Lane, Metrics, SpanEvent, Telemetry};

/// Configuration of a simulated GrOUT deployment.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// The shared scheduling core's knobs: worker count, inter-node policy
    /// and the paper's ablation switches (P2P, flat scheduling, controller
    /// colocation).
    pub planner: PlannerConfig,
    /// Per-worker hardware.
    pub node: NodeSpec,
    /// UVM model constants.
    pub uvm: UvmConfig,
    /// Intra-node device-selection policy.
    pub device_policy: DevicePolicy,
    /// Cluster network (endpoint 0 is the controller).
    pub topology: Topology,
    /// Controller-side host memory bandwidth (for host read/write CEs).
    pub host_bw_bps: f64,
    /// Controller decision cost per CE for static policies.
    pub sched_static: SimDuration,
    /// Additional decision cost per worker for online policies.
    pub sched_per_node: SimDuration,
    /// The paper's per-run execution cap (2.5 h in the evaluation).
    pub time_cap: Option<SimDuration>,
    /// Models a hand-tuned application that issues
    /// `cudaMemPrefetchAsync` for every kernel input before launch (the
    /// paper's "first approach": profiling + manual prefetching). The
    /// prefetch time serializes ahead of the kernel but migrates at the
    /// streaming rate, avoiding demand-fault storms for data that fits.
    pub hand_tuned_prefetch: bool,
}

impl SimConfig {
    /// The paper's GrOUT deployment: dedicated controller, `workers` nodes
    /// of 2x V100 16 GiB, OCI NICs, 2.5 h cap.
    pub fn paper_grout(workers: usize, policy: PolicyKind) -> Self {
        SimConfig {
            planner: PlannerConfig::new(workers, policy),
            node: NodeSpec::paper_worker(),
            uvm: UvmConfig::default(),
            device_policy: DevicePolicy::MinTransferBytes,
            topology: Topology::paper_oci(workers, SimDuration::from_micros(50)),
            host_bw_bps: 25e9,
            sched_static: SimDuration::from_micros(2),
            sched_per_node: SimDuration::from_nanos(700),
            time_cap: Some(SimDuration::from_secs(9000)),
            hand_tuned_prefetch: false,
        }
    }

    /// The paper's single-node GrCUDA baseline: one node, controller on the
    /// same machine, intra-node scheduling only.
    pub fn grcuda_baseline() -> Self {
        let mut cfg = Self::paper_grout(1, PolicyKind::RoundRobin);
        cfg.planner.controller_colocated = true;
        cfg
    }
}

/// Per-CE execution record (reporting).
#[derive(Debug, Clone)]
pub struct CeRecord {
    /// The CE.
    pub ce: Ce,
    /// Where it ran.
    pub location: Location,
    /// GPU within the node (kernels only).
    pub device: Option<DeviceId>,
    /// Stream on that GPU (kernels only).
    pub stream: Option<StreamId>,
    /// When the operation started executing.
    pub start: SimTime,
    /// When it finished.
    pub finish: SimTime,
    /// UVM stall included in the execution (kernels only).
    pub uvm_stall: SimDuration,
    /// Worst UVM regime hit (kernels only).
    pub regime: Option<Regime>,
    /// Bytes moved over the network to place this CE.
    pub network_bytes: u64,
}

/// One worker node's mutable state.
struct Worker {
    node: GpuNode,
    uvm: Vec<UvmDevice>,
    device_rr: usize,
    /// Stream each DAG node ran on (for parent-stream reuse).
    placements: HashMap<DagIndex, (DeviceId, StreamId)>,
}

/// Aggregated run statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunStats {
    /// CEs executed.
    pub ces: u64,
    /// Network payload bytes moved.
    pub network_bytes: u64,
    /// Kernels that hit the UVM fault-storm regime.
    pub storm_kernels: u64,
    /// Total UVM stall across kernels.
    pub uvm_stall: SimDuration,
    /// Total controller scheduling overhead.
    pub sched_overhead: SimDuration,
    /// Lineage replays performed during recovery.
    pub replays: u64,
    /// Bytes re-sent because of recoveries or dropped transfers (kept out
    /// of `network_bytes` so fault-free traffic accounting stays exact).
    pub redriven_bytes: u64,
    /// Virtual time spent detecting and recovering from faults.
    pub fault_overhead: SimDuration,
}

/// The simulated GrOUT runtime: prices [`Plan`]s in virtual time.
pub struct SimRuntime {
    cfg: SimConfig,
    net: Network,
    planner: LoggedPlanner,
    workers: Vec<Worker>,
    records: Vec<CeRecord>,
    /// Virtual instant each array's latest content becomes available
    /// (finish of its last writer CE / last arriving transfer).
    array_ready: HashMap<ArrayId, SimTime>,
    next_ce: u64,
    /// When the controller is free to process the next submission.
    controller_clock: SimTime,
    stats: RunStats,
    trace: SchedTrace,
    /// Per-worker liveness + membership epoch (mirrors the local runtime).
    detector: FailureDetector,
    /// Last writer CE per array — the lineage the simulator replays (it
    /// prices whole-array reconstruction, so one hop of lineage suffices).
    last_writer: HashMap<ArrayId, DagIndex>,
    /// Optional span/instant recorder (virtual-time timestamps, so traces
    /// are bit-for-bit deterministic per seed).
    telemetry: Telemetry,
    /// Always-on metrics registry.
    metrics: Metrics,
    /// Workers whose UVM devices may hold pages or an active-set entry of
    /// each array: those a kernel touched it on (`kernel_access` /
    /// `prefetch`) since it was last invalidated there. `invalidate` is a
    /// no-op everywhere else, so a write visits only these.
    uvm_holders: HashMap<ArrayId, Vec<usize>>,
    /// Per-CE buffers of [`SimRuntime::submit`], kept to reuse their
    /// allocations.
    scratch: Scratch,
}

#[derive(Default)]
struct Scratch {
    resident: Vec<u64>,
    active: Vec<u64>,
    own: Vec<uvm_sim::AllocId>,
    uvm_args: Vec<uvm_sim::ArgAccess>,
    waits: Vec<SimTime>,
}

impl SimRuntime {
    /// Builds a runtime; probes the interconnection matrix when the policy
    /// needs it (as GrOUT does at startup). Rejects configurations that
    /// cannot schedule anything with [`PlanError::InvalidConfig`].
    pub fn try_new(cfg: SimConfig) -> Result<Self, PlanError> {
        crate::builder::validate_planner(&cfg.planner)?;
        if cfg.topology.len() != cfg.planner.workers + 1 {
            return Err(PlanError::InvalidConfig(
                "topology must cover controller + workers",
            ));
        }
        let net = Network::new(cfg.topology.clone());
        let links = if matches!(cfg.planner.policy, PolicyKind::MinTransferTime(_)) {
            Some(LinkMatrix::new(net.probe_matrix(64 << 20)))
        } else {
            None
        };
        let planner = LoggedPlanner::new(Planner::new(cfg.planner.clone(), links));
        let workers = (0..cfg.planner.workers)
            .map(|_| Worker {
                node: GpuNode::new(cfg.node.clone()),
                uvm: (0..cfg.node.gpu_count)
                    .map(|_| {
                        UvmDevice::new(
                            cfg.uvm.clone(),
                            cfg.node.gpu.memory_bytes,
                            cfg.node.gpu.pcie_bps,
                        )
                    })
                    .collect(),
                device_rr: 0,
                placements: HashMap::new(),
            })
            .collect();
        let detector = FailureDetector::new(cfg.planner.workers);
        let mut metrics = Metrics::with_workers(cfg.planner.workers);
        if let Some(links) = planner.links() {
            metrics.set_bandwidth("modeled", "sim", links);
        }
        Ok(SimRuntime {
            net,
            planner,
            workers,
            records: Vec::new(),
            array_ready: HashMap::new(),
            next_ce: 0,
            controller_clock: SimTime::ZERO,
            stats: RunStats::default(),
            trace: SchedTrace::default(),
            detector,
            last_writer: HashMap::new(),
            telemetry: Telemetry::off(),
            metrics,
            uvm_holders: HashMap::new(),
            scratch: Scratch::default(),
            cfg,
        })
    }

    /// Attaches a telemetry recorder; the handle is shared with the
    /// planner so its marks land in the same trace.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.planner.set_telemetry(telemetry.clone());
        self.telemetry = telemetry;
    }

    /// The always-on metrics registry.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Records a scheduling event in the trace, metrics and telemetry at
    /// the current controller instant.
    fn note_event(&mut self, event: SchedEvent) {
        self.metrics.record_event(&event);
        self.telemetry
            .sched_event(&event, self.controller_clock.as_nanos());
        self.trace.record_event(event);
    }

    /// The configuration in use.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Allocates a framework-managed array of `bytes` (up-to-date on the
    /// controller, like `polyglot.eval(GrOUT, "float[SIZE]")`).
    pub fn alloc(&mut self, bytes: u64) -> ArrayId {
        let id = self.planner.alloc(bytes);
        self.array_ready.insert(id, self.controller_clock);
        id
    }

    /// Frees an array.
    pub fn free(&mut self, id: ArrayId) {
        self.planner.free(id);
        self.array_ready.remove(&id);
        for wi in self.uvm_holders.remove(&id).unwrap_or_default() {
            for uvm in &mut self.workers[wi].uvm {
                uvm.invalidate(id.alloc());
            }
        }
    }

    /// Size of an array in bytes.
    pub fn array_bytes(&self, id: ArrayId) -> u64 {
        self.planner.array_bytes(id)
    }

    /// Submits a host-side write CE (e.g. the initialization loop of
    /// Listing 1).
    pub fn host_write(&mut self, array: ArrayId, bytes: u64) -> CeId {
        let arg = CeArg::write(array, bytes);
        self.submit(CeKind::HostWrite, vec![arg])
    }

    /// Submits a host-side read CE (e.g. `print(x)`).
    pub fn host_read(&mut self, array: ArrayId, bytes: u64) -> CeId {
        let arg = CeArg::read(array, bytes);
        self.submit(CeKind::HostRead, vec![arg])
    }

    /// Submits a kernel CE.
    pub fn launch(&mut self, name: impl Into<String>, cost: KernelCost, args: Vec<CeArg>) -> CeId {
        self.submit(
            CeKind::Kernel {
                name: name.into(),
                cost,
            },
            args,
        )
    }

    fn sched_overhead(&self) -> SimDuration {
        let p = &self.cfg.planner;
        let base = if p.policy.is_online() {
            self.cfg.sched_static + self.cfg.sched_per_node * p.workers as u64
        } else {
            self.cfg.sched_static
        };
        if p.flat_scheduling {
            // Tracking every stream on every GPU of every node from the
            // controller: per-CE bookkeeping scales with total streams
            // (~8 in-flight streams per GPU).
            let streams = (p.workers * self.cfg.node.gpu_count * 8) as u64;
            base + self.cfg.sched_per_node * streams
        } else {
            base
        }
    }

    /// Degrades a directed link at runtime and, when the policy is
    /// `min-transfer-time`, re-probes the interconnection matrix so the
    /// scheduler adapts (the VNIC-SLA scenario of Section IV-D).
    pub fn degrade_link(&mut self, src: Location, dst: Location, link: net_sim::LinkSpec) {
        self.net.set_link(src.endpoint(), dst.endpoint(), link);
        if matches!(self.cfg.planner.policy, PolicyKind::MinTransferTime(_)) {
            self.planner
                .reprobe_links(LinkMatrix::new(self.net.probe_matrix(64 << 20)));
            if let Some(links) = self.planner.links() {
                let links = links.clone();
                self.metrics.set_bandwidth("modeled", "sim", &links);
            }
        }
    }

    /// Whether a movement between two locations is free because the
    /// controller shares worker 0's host memory (GrCUDA baseline).
    fn colocated(&self, a: Location, b: Location) -> bool {
        self.cfg.planner.controller_colocated
            && ((a == Location::CONTROLLER && b == Location::worker(0))
                || (b == Location::CONTROLLER && a == Location::worker(0)))
    }

    /// Prices one planned movement on the modeled network; returns the
    /// payload bytes that actually moved (0 when colocation voids the
    /// transfer). Updates the array's availability instant.
    fn cost_movement(&mut self, m: &Movement, dispatch: SimTime) -> u64 {
        let ready = *self.array_ready.get(&m.array).unwrap_or(&dispatch);
        let start = dispatch.max(ready);

        // Dirty device copies on the source worker must be written back
        // before the bytes leave the node.
        let mut src_ready = start;
        if let Some(wi) = m.from.worker_index() {
            src_ready = src_ready.max(self.sync_worker_host_copy(wi, m.array, start));
        }

        let (arrival, moved) = if self.colocated(m.from, m.to) {
            // Same host memory: nothing to move.
            (src_ready, 0)
        } else if m.kind == MovementKind::Staged {
            // Two hops: worker -> controller, then controller -> worker.
            let hop = self.net.transfer(
                src_ready,
                m.from.endpoint(),
                Location::CONTROLLER.endpoint(),
                m.bytes,
            );
            let rec = self.net.transfer(
                hop.timeline.finish,
                Location::CONTROLLER.endpoint(),
                m.to.endpoint(),
                m.bytes,
            );
            self.stats.network_bytes += m.bytes; // the relay hop
            (rec.timeline.finish, m.bytes)
        } else {
            let rec = self
                .net
                .transfer(src_ready, m.from.endpoint(), m.to.endpoint(), m.bytes);
            (rec.timeline.finish, m.bytes)
        };
        self.stats.network_bytes += moved;
        if moved > 0 {
            let dur = arrival.saturating_since(start);
            self.metrics.transfer.record(dur.as_nanos());
            self.metrics.record_movement(m.kind, m.bytes);
            if self.telemetry.enabled() {
                self.telemetry.span(&SpanEvent {
                    name: m.kind.name(),
                    cat: "transfer",
                    lane: Lane::network(m.to.0),
                    start_ns: start.as_nanos(),
                    dur_ns: dur.as_nanos(),
                    args: &[
                        ("array", ArgValue::U64(m.array.0)),
                        ("bytes", ArgValue::U64(m.bytes)),
                        ("from", ArgValue::U64(m.from.0 as u64)),
                        ("to", ArgValue::U64(m.to.0 as u64)),
                    ],
                });
            }
        }
        let ready = self.array_ready.entry(m.array).or_insert(arrival);
        *ready = (*ready).max(arrival);
        moved
    }

    /// If worker `wi` holds a dirty device copy of `array`, schedule the
    /// UVM writeback (D2H) and return when the host copy is consistent.
    fn sync_worker_host_copy(&mut self, wi: usize, array: ArrayId, when: SimTime) -> SimTime {
        let mut done = when;
        let w = &mut self.workers[wi];
        for (d, uvm) in w.uvm.iter_mut().enumerate() {
            let resident = uvm.resident_bytes(array.alloc());
            if resident > 0 {
                let tl = w.node.device_mut(DeviceId(d)).copy_d2h(when, resident);
                done = done.max(tl.finish);
            }
        }
        done
    }

    /// Injected faults for this CE, priced in virtual time. Mirrors the
    /// local runtime's detect → retry → quarantine → replay pipeline:
    /// retries cost their exponential backoff, a death costs the detection
    /// timeout plus a host-bandwidth lineage replay of every lost array,
    /// and recovery rewrites `plan` onto a healthy worker. The trace events
    /// carry the same (worker, at_ce) identity the local runtime records,
    /// which is what the chaos differential test compares.
    fn apply_faults(&mut self, plan: &mut Plan) {
        let faults = self.cfg.planner.faults.clone();
        if faults.is_empty() {
            return;
        }
        let dag = plan.dag_index;
        // Faults attach to dispatched work; host CEs run on the controller
        // itself and have no worker to lose.
        let Some(worker) = plan.assigned_node.worker_index() else {
            return;
        };
        let fc = self.cfg.planner.fault_cfg;

        if let Some(delay) = faults.delay_at(dag) {
            if let Some(m) = plan.movements.first() {
                self.note_event(SchedEvent::TransferDelayed {
                    at_ce: dag,
                    array: m.array,
                    delay,
                });
                self.controller_clock += delay;
                self.stats.fault_overhead += delay;
            }
        }

        if faults.drop_at(dag) {
            if let Some(m) = plan.movements.first().cloned() {
                // The payload is lost in flight, so the CE wedges until the
                // detection timeout fires; the controller then re-drives the
                // bytes from its own copy.
                self.note_event(SchedEvent::TransferDropped {
                    at_ce: dag,
                    array: m.array,
                });
                let redrive =
                    fc.detection_timeout + SimDuration::for_bytes(m.bytes, self.cfg.host_bw_bps);
                self.controller_clock += redrive;
                self.stats.fault_overhead += redrive;
                self.stats.redriven_bytes += m.bytes;
                self.note_event(SchedEvent::TransferRedriven { at_ce: dag });
            }
        }

        let mut condemned = false;
        if let Some(times) = faults.fail_launch_at(dag) {
            // One failure report per attempt until the launch succeeds or
            // the retry budget condemns the node (max_retries + 1 failures).
            let failures = times.min(fc.max_retries + 1);
            for attempt in 1..=failures {
                let backoff = SimDuration::exp_backoff(fc.backoff_base, attempt, fc.backoff_cap);
                self.note_event(SchedEvent::Retry {
                    at_ce: dag,
                    worker,
                    attempt,
                    backoff,
                });
                self.controller_clock += backoff;
                self.stats.fault_overhead += backoff;
            }
            condemned = times > fc.max_retries;
        }

        if faults.kill_at(dag) || condemned {
            if !fc.recovery {
                panic!("worker {worker} died at CE {dag} with recovery disabled");
            }
            let epoch = self.detector.mark_dead(worker);
            self.note_event(SchedEvent::Fault {
                at_ce: dag,
                worker: Some(worker),
                kind: "kill-worker",
                epoch,
            });
            self.controller_clock += fc.detection_timeout;
            self.stats.fault_overhead += fc.detection_timeout;

            let rec = self
                .planner
                .recover(worker, &[dag])
                .unwrap_or_else(|e| panic!("{e}"));
            self.note_event(SchedEvent::Quarantine {
                worker,
                at_ce: dag,
                lost: rec.lost.clone(),
                epoch,
            });

            // Lineage replay: the controller reconstructs each lost array by
            // re-running its last completed writer host-side; priced as a
            // host-bandwidth pass over the array.
            for &a in &rec.lost {
                if let Some(&writer) = self.last_writer.get(&a) {
                    self.note_event(SchedEvent::Replay {
                        dag_index: writer,
                        epoch,
                    });
                    self.stats.replays += 1;
                }
                let replay =
                    SimDuration::for_bytes(self.planner.array_bytes(a), self.cfg.host_bw_bps);
                self.controller_clock += replay;
                self.stats.fault_overhead += replay;
                // The rebuilt copy lives on the controller from now on.
                self.array_ready.insert(a, self.controller_clock);
            }

            // The in-flight CE itself moves to a healthy worker; recovery
            // already replanned its movements from surviving holders.
            for r in &rec.reassigned {
                if r.dag_index == dag {
                    self.note_event(SchedEvent::Reassign {
                        dag_index: dag,
                        from: worker,
                        to: r.to.worker_index().unwrap_or(usize::MAX),
                        epoch,
                    });
                    plan.assigned_node = r.to;
                    plan.movements = r.movements.clone();
                }
            }
        }
    }

    /// Core submission path: plan through the shared scheduling core, then
    /// price the plan (movements, Algorithm 2 placement, UVM stall) in
    /// virtual time.
    pub fn submit(&mut self, kind: CeKind, args: Vec<CeArg>) -> CeId {
        let id = CeId(self.next_ce);
        self.next_ce += 1;
        let ce = Ce { id, kind, args };

        // 1. Algorithm 1 (dependencies → node assignment → movements) runs
        //    in the shared Planner; this runtime only executes the result.
        let mut plan = self.planner.plan_ce(&ce).unwrap_or_else(|e| panic!("{e}"));

        // 2. Controller decision cost (its cost is Figure 9's subject).
        let plan_start = self.controller_clock;
        let overhead = self.sched_overhead();
        self.controller_clock += overhead;
        self.stats.sched_overhead += overhead;
        self.metrics.plan.record(overhead.as_nanos());
        if self.telemetry.enabled() {
            self.telemetry.span(&SpanEvent {
                name: "plan",
                cat: "plan",
                lane: Lane::CONTROLLER,
                start_ns: plan_start.as_nanos(),
                dur_ns: overhead.as_nanos(),
                args: &[
                    ("dag_index", ArgValue::U64(plan.dag_index as u64)),
                    ("node", ArgValue::U64(plan.assigned_node.0 as u64)),
                    ("movements", ArgValue::U64(plan.movements.len() as u64)),
                    ("bytes", ArgValue::U64(plan.movement_bytes())),
                ],
            });
        }

        // 2b. Injected faults fire at dispatch: retries, detection and
        //     recovery all spend controller time and may rewrite the plan
        //     onto a healthy worker before anything is priced.
        self.apply_faults(&mut plan);
        let dispatch = self.controller_clock;

        // 3. Price the planned movements on the modeled network.
        let mut moved_bytes = 0u64;
        for m in &plan.movements {
            moved_bytes += self.cost_movement(m, dispatch);
        }

        // 4. Input availability: moved arrays became ready at transfer
        //    arrival, cached ones at their last writer's finish.
        let mut data_ready = dispatch;
        for arg in &ce.args {
            if arg.mode.reads() {
                data_ready = data_ready.max(*self.array_ready.get(&arg.array).unwrap_or(&dispatch));
            }
        }

        // 5. Ancestor completion gates (the plan carries the filtered
        //    dependency set).
        let parent_finish = plan
            .deps
            .iter()
            .map(|&p| self.records[p].finish)
            .max()
            .unwrap_or(SimTime::ZERO);
        let gate = data_ready.max(parent_finish);
        self.metrics
            .queue
            .record(gate.saturating_since(dispatch).as_nanos());

        // 6. Execute.
        let dest = plan.assigned_node;
        let record = match &ce.kind {
            CeKind::HostRead | CeKind::HostWrite => {
                let bytes = ce.total_bytes();
                let dur = SimDuration::for_bytes(bytes, self.cfg.host_bw_bps);
                let start = gate;
                let finish = start + dur;
                self.controller_clock = self.controller_clock.max(finish);
                CeRecord {
                    location: dest,
                    device: None,
                    stream: None,
                    start,
                    finish,
                    uvm_stall: SimDuration::ZERO,
                    regime: None,
                    network_bytes: moved_bytes,
                    ce: ce.clone(),
                }
            }
            CeKind::Kernel { cost, .. } => {
                let wi = dest.worker_index().expect("kernels go to workers");
                // Command message latency controller -> worker.
                let cmd_at = dispatch
                    + self
                        .cfg
                        .topology
                        .path_latency(Location::CONTROLLER.endpoint(), dest.endpoint());
                let gate = gate.max(cmd_at);

                // Algorithm 2: device selection by residency.
                let w = &mut self.workers[wi];
                let Scratch {
                    resident,
                    active,
                    own,
                    uvm_args,
                    waits,
                } = &mut self.scratch;
                resident.clear();
                resident.extend(w.uvm.iter().map(|u| {
                    ce.args
                        .iter()
                        .map(|a| u.resident_bytes(a.array.alloc()))
                        .sum::<u64>()
                }));
                let total_bytes = ce.total_bytes();
                // Competing pressure per GPU: the CE's own allocations are
                // excluded so a chunk is not repelled from the GPU it ran
                // on last iteration by its own stale window entry.
                own.clear();
                own.extend(ce.args.iter().map(|a| a.array.alloc()));
                active.clear();
                active.extend(w.uvm.iter().map(|u| u.active_bytes_excluding(own)));
                let device = select_device(
                    &w.node,
                    self.cfg.device_policy,
                    &mut w.device_rr,
                    resident,
                    active,
                    total_bytes,
                );

                // Stream selection: reuse the single parent's stream when it
                // ran on the same device of the same worker.
                let single_parent_stream = if plan.deps.len() == 1 {
                    w.placements
                        .get(&plan.deps[0])
                        .filter(|(d, _)| *d == device)
                        .map(|(_, s)| *s)
                } else {
                    None
                };
                let (stream, reused) =
                    select_stream(w.node.device_mut(device), gate, single_parent_stream);

                // Wait events on ancestors (free when the FIFO orders us).
                waits.clear();
                if !reused {
                    waits.extend(plan.deps.iter().map(|&p| self.records[p].finish));
                }

                // Hand-tuned variant: prefetch read inputs ahead of the
                // launch (serialized before the kernel, streaming rate).
                let mut prefetch_cost = SimDuration::ZERO;
                if self.cfg.hand_tuned_prefetch {
                    for a in &ce.args {
                        if a.mode.reads() {
                            prefetch_cost += w.uvm[device.0].prefetch(a.array.alloc(), a.bytes);
                        }
                    }
                }

                // UVM fault/migration stall for this launch.
                uvm_args.clear();
                uvm_args.extend(ce.args.iter().map(|a| a.to_uvm()));
                let report = w.uvm[device.0].kernel_access(uvm_args);
                for a in &ce.args {
                    let holders = self.uvm_holders.entry(a.array).or_default();
                    if !holders.contains(&wi) {
                        holders.push(wi);
                    }
                }
                let report = uvm_sim::UvmReport {
                    stall: report.stall + prefetch_cost,
                    ..report
                };

                let tl = w.node.device_mut(device).launch_kernel(
                    stream,
                    gate,
                    waits,
                    cost,
                    report.stall,
                );
                w.placements.insert(plan.dag_index, (device, stream));
                plan.placement = Some(Placement {
                    device,
                    stream,
                    reused_parent_stream: reused,
                });
                if report.regime == Regime::FaultStorm {
                    self.stats.storm_kernels += 1;
                }
                self.stats.uvm_stall += report.stall;
                CeRecord {
                    location: dest,
                    device: Some(device),
                    stream: Some(stream),
                    start: tl.start,
                    finish: tl.finish,
                    uvm_stall: report.stall,
                    regime: Some(report.regime),
                    network_bytes: moved_bytes,
                    ce: ce.clone(),
                }
            }
        };

        // 7. Availability + UVM updates for written arrays (the coherence
        //    directory itself was already updated eagerly at plan time).
        for arg in &ce.args {
            if arg.mode.writes() {
                self.last_writer.insert(arg.array, plan.dag_index);
                self.array_ready.insert(arg.array, record.finish);
                // Stale UVM copies elsewhere must refault after the write.
                if let Some(holders) = self.uvm_holders.get_mut(&arg.array) {
                    holders.retain(|&wi| {
                        let keeps = Location::worker(wi) == dest;
                        if !keeps {
                            for uvm in &mut self.workers[wi].uvm {
                                uvm.invalidate(arg.array.alloc());
                            }
                        }
                        keeps
                    });
                }
            }
        }

        // Execution latency + per-worker occupancy + the execute span.
        let exec_ns = record.finish.saturating_since(record.start).as_nanos();
        self.metrics.execute.record(exec_ns);
        if let (Some(wi), Some(_)) = (record.location.worker_index(), record.device) {
            self.metrics.record_kernel(wi, exec_ns);
        }
        if self.telemetry.enabled() {
            let (name, cat): (&str, &'static str) = match &record.ce.kind {
                CeKind::Kernel { name, .. } => (name.as_str(), "execute"),
                CeKind::HostRead => ("host-read", "host"),
                CeKind::HostWrite => ("host-write", "host"),
            };
            let lane = match (record.location.worker_index(), record.device, record.stream) {
                (Some(wi), Some(d), Some(s)) => Lane::stream(wi + 1, d.0, s.0),
                _ => Lane::CONTROLLER,
            };
            self.telemetry.span(&SpanEvent {
                name,
                cat,
                lane,
                start_ns: record.start.as_nanos(),
                dur_ns: exec_ns,
                args: &[
                    ("dag_index", ArgValue::U64(plan.dag_index as u64)),
                    (
                        "uvm_stall_us",
                        ArgValue::F64(record.uvm_stall.as_micros_f64()),
                    ),
                    ("network_bytes", ArgValue::U64(record.network_bytes)),
                ],
            });
        }

        self.planner.mark_completed(plan.dag_index);
        self.trace.record(&plan);
        self.stats.ces += 1;
        self.records.push(record);
        id
    }

    /// Completion time of a CE.
    pub fn finish_time(&self, id: CeId) -> SimTime {
        self.records[id.0 as usize].finish
    }

    /// Full record of a CE.
    pub fn record(&self, id: CeId) -> &CeRecord {
        &self.records[id.0 as usize]
    }

    /// All records, in submission order.
    pub fn records(&self) -> &[CeRecord] {
        &self.records
    }

    /// The virtual makespan: when the last submitted CE finishes.
    pub fn elapsed(&self) -> SimTime {
        self.records
            .iter()
            .map(|r| r.finish)
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Whether the run exceeded the configured execution cap (the paper
    /// reports such runs as "out of time").
    pub fn timed_out(&self) -> bool {
        self.cfg
            .time_cap
            .is_some_and(|cap| self.elapsed() > SimTime::ZERO + cap)
    }

    /// Aggregated statistics.
    pub fn stats(&self) -> RunStats {
        self.stats
    }

    /// Node a planned CE was (last) assigned to — reassignments made during
    /// recovery are reflected here.
    pub fn node_assignment(&self, dag_index: DagIndex) -> Option<Location> {
        self.planner.assignment(dag_index)
    }

    /// Whether a worker has been quarantined by fault recovery.
    pub fn is_quarantined(&self, worker: usize) -> bool {
        self.planner.is_quarantined(worker)
    }

    /// Number of workers still eligible for scheduling.
    pub fn healthy_workers(&self) -> usize {
        self.planner.healthy_workers()
    }

    /// Cluster membership epoch: bumps once per confirmed worker death.
    pub fn epoch(&self) -> u64 {
        self.detector.epoch()
    }

    /// UVM statistics of one GPU.
    pub fn uvm_stats(&self, worker: usize, device: usize) -> UvmStats {
        self.workers[worker].uvm[device].stats()
    }

    /// The coherence directory (read-only view).
    pub fn coherence(&self) -> &Coherence {
        self.planner.coherence()
    }

    /// The Global DAG (read-only view).
    pub fn dag(&self) -> &DepDag {
        self.planner.dag()
    }

    /// The network (read-only view).
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// The probed interconnection matrix, when the policy uses one.
    pub fn link_matrix(&self) -> Option<&LinkMatrix> {
        self.planner.links()
    }

    /// The trace of executed plans (ring buffer, oldest first).
    pub fn sched_trace(&self) -> &SchedTrace {
        &self.trace
    }

    /// Installs a callback invoked for every executed plan.
    pub fn set_sched_observer(&mut self, observer: PlanObserver) {
        self.trace.set_observer(observer);
    }

    /// The planner (read-only view; all mutations go through the op log).
    pub fn planner(&self) -> &Planner {
        &self.planner
    }

    /// Every planner op applied so far, in order.
    pub fn op_log(&self) -> &[PlannerOp] {
        self.planner.ops()
    }

    /// Registers an op-log sink (journal, log shipping); it is first
    /// caught up with the ops already applied.
    pub fn add_op_sink(&mut self, sink: Box<dyn OpSink>) {
        self.planner.add_sink(sink);
    }
}

impl crate::Observability for SimRuntime {
    type Stats = RunStats;

    fn sched_trace(&self) -> &SchedTrace {
        &self.trace
    }

    fn stats(&self) -> RunStats {
        self.stats
    }

    fn metrics(&self) -> &Metrics {
        &self.metrics
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::Plan;
    use uvm_sim::AccessPattern;

    const GIB: u64 = 1 << 30;

    fn cost_for(bytes: u64) -> KernelCost {
        KernelCost {
            flops: bytes as f64, // ~memory-bound
            bytes_read: bytes,
            bytes_written: 0,
        }
    }

    fn grout(workers: usize) -> SimRuntime {
        SimRuntime::try_new(SimConfig::paper_grout(workers, PolicyKind::RoundRobin))
            .expect("valid config")
    }

    #[test]
    fn fitting_workload_runs_fast() {
        let mut rt = grout(2);
        let a = rt.alloc(4 * GIB);
        rt.host_write(a, 4 * GIB);
        rt.launch("k", cost_for(4 * GIB), vec![CeArg::read_write(a, 4 * GIB)]);
        let t = rt.elapsed().as_secs_f64();
        // init memcpy + network send + cold faults: clearly under a minute.
        assert!(t > 0.0 && t < 60.0, "elapsed {t}");
        assert!(!rt.timed_out());
    }

    #[test]
    fn dependencies_serialize_execution() {
        let mut rt = grout(2);
        let a = rt.alloc(GIB);
        let w = rt.launch("w", cost_for(GIB), vec![CeArg::write(a, GIB)]);
        let r = rt.launch("r", cost_for(GIB), vec![CeArg::read(a, GIB)]);
        assert!(rt.record(r).start >= rt.finish_time(w));
    }

    #[test]
    fn independent_ces_overlap_across_nodes() {
        let mut rt = grout(2);
        let a = rt.alloc(GIB);
        let b = rt.alloc(GIB);
        // Compute-heavy kernels (~64 s on a V100) so execution, not the
        // serialized controller egress, dominates.
        let heavy = KernelCost {
            flops: 1e15,
            bytes_read: GIB,
            bytes_written: 0,
        };
        let ka = rt.launch("ka", heavy, vec![CeArg::read_write(a, GIB)]);
        let kb = rt.launch("kb", heavy, vec![CeArg::read_write(b, GIB)]);
        // Round-robin puts them on different nodes; their executions overlap.
        assert_ne!(rt.record(ka).location, rt.record(kb).location);
        assert!(rt.record(kb).start < rt.record(ka).finish);
    }

    #[test]
    fn reads_move_data_once_then_cache() {
        let mut rt = SimRuntime::try_new(SimConfig::paper_grout(1, PolicyKind::RoundRobin))
            .expect("valid config");
        let a = rt.alloc(GIB);
        let k1 = rt.launch("k1", cost_for(GIB), vec![CeArg::read(a, GIB)]);
        let k2 = rt.launch("k2", cost_for(GIB), vec![CeArg::read(a, GIB)]);
        assert_eq!(rt.record(k1).network_bytes, GIB);
        assert_eq!(rt.record(k2).network_bytes, 0, "second read reuses copy");
    }

    #[test]
    fn writes_invalidate_other_copies() {
        let mut rt = grout(2);
        let a = rt.alloc(GIB);
        // Spread read copies to both workers.
        rt.launch("r0", cost_for(GIB), vec![CeArg::read(a, GIB)]);
        rt.launch("r1", cost_for(GIB), vec![CeArg::read(a, GIB)]);
        assert_eq!(rt.coherence().holders(ArrayId(0)).len(), 3);
        // A write on one worker makes it exclusive.
        rt.launch("w", cost_for(GIB), vec![CeArg::write(a, GIB)]);
        assert_eq!(rt.coherence().holders(ArrayId(0)).len(), 1);
    }

    #[test]
    fn p2p_transfer_skips_controller() {
        let mut rt = grout(2);
        let a = rt.alloc(GIB);
        // Put the data exclusively on worker 0 by writing there.
        rt.launch("w", cost_for(GIB), vec![CeArg::write(a, GIB)]);
        let before = rt.network().stats(net_sim::EndpointId(0)).bytes_out;
        // Read on worker 1 must come P2P from worker 0.
        rt.launch("r", cost_for(GIB), vec![CeArg::read(a, GIB)]);
        let after = rt.network().stats(net_sim::EndpointId(0)).bytes_out;
        assert_eq!(before, after, "controller sent nothing");
        assert!(rt.network().stats(net_sim::EndpointId(1)).bytes_out >= GIB);
    }

    #[test]
    fn grcuda_baseline_moves_nothing_over_network() {
        let mut rt = SimRuntime::try_new(SimConfig::grcuda_baseline()).expect("valid config");
        let a = rt.alloc(4 * GIB);
        rt.host_write(a, 4 * GIB);
        rt.launch("k", cost_for(4 * GIB), vec![CeArg::read_write(a, 4 * GIB)]);
        rt.host_read(a, 4 * GIB);
        assert_eq!(rt.stats().network_bytes, 0);
    }

    #[test]
    fn oversubscribed_kernel_storms_and_dominates() {
        let mut rt = SimRuntime::try_new(SimConfig::grcuda_baseline()).expect("valid config");
        let a = rt.alloc(48 * GIB); // 3x one V100
        let k = rt.launch(
            "big",
            cost_for(48 * GIB),
            vec![CeArg::read(a, 48 * GIB).with_pattern(AccessPattern::Streamed { sweeps: 4.0 })],
        );
        assert_eq!(rt.record(k).regime, Some(Regime::FaultStorm));
        assert!(rt.stats().storm_kernels == 1);
        assert!(rt.record(k).uvm_stall.as_secs_f64() > 10.0);
    }

    #[test]
    fn scale_out_splits_pressure() {
        // The paper's headline mechanism: the same total footprint split
        // across two nodes leaves the storm regime.
        let run = |workers: usize| {
            let mut rt = grout(workers);
            let chunks = 4;
            let total = 48 * GIB;
            let per = total / chunks;
            for _ in 0..2 {
                for c in 0..chunks {
                    let a = if rt.array_bytes(ArrayId(c)) == 0 {
                        rt.alloc(per)
                    } else {
                        ArrayId(c)
                    };
                    rt.launch(
                        "chunk",
                        cost_for(per),
                        vec![CeArg::read_write(a, per)
                            .with_pattern(AccessPattern::Streamed { sweeps: 2.0 })],
                    );
                }
            }
            rt.elapsed().as_secs_f64()
        };
        let one = run(1);
        let two = run(2);
        assert!(
            two < one,
            "two nodes ({two:.1}s) should beat one ({one:.1}s) under pressure"
        );
    }

    #[test]
    fn host_read_pulls_data_back() {
        let mut rt = grout(1);
        let a = rt.alloc(GIB);
        rt.launch("w", cost_for(GIB), vec![CeArg::write(a, GIB)]);
        let r = rt.host_read(a, GIB);
        assert_eq!(rt.record(r).location, Location::CONTROLLER);
        assert!(rt.record(r).network_bytes >= GIB);
        assert!(rt
            .coherence()
            .up_to_date_on(ArrayId(0), Location::CONTROLLER));
    }

    #[test]
    fn online_policy_pays_per_node_overhead() {
        let static_cfg = SimConfig::paper_grout(8, PolicyKind::RoundRobin);
        let online_cfg = SimConfig::paper_grout(8, PolicyKind::MinTransferSize(Default::default()));
        let mut a = SimRuntime::try_new(static_cfg).expect("valid config");
        let mut b = SimRuntime::try_new(online_cfg).expect("valid config");
        let run = |rt: &mut SimRuntime| {
            let x = rt.alloc(1 << 20);
            for _ in 0..10 {
                rt.launch("k", cost_for(1 << 20), vec![CeArg::read_write(x, 1 << 20)]);
            }
            rt.stats().sched_overhead
        };
        assert!(run(&mut b) > run(&mut a));
    }

    #[test]
    fn p2p_disabled_stages_through_controller() {
        let mut cfg = SimConfig::paper_grout(2, PolicyKind::RoundRobin);
        cfg.planner.p2p_enabled = false;
        let mut rt = SimRuntime::try_new(cfg).expect("valid config");
        let a = rt.alloc(GIB);
        rt.launch("w", cost_for(GIB), vec![CeArg::write(a, GIB)]); // worker 0
        let before = rt.network().stats(net_sim::EndpointId(0)).bytes_out;
        rt.launch("r", cost_for(GIB), vec![CeArg::read(a, GIB)]); // worker 1
        let after = rt.network().stats(net_sim::EndpointId(0)).bytes_out;
        assert!(after > before, "controller relayed the bytes");
        // Staging doubles the wire traffic relative to a direct P2P hop
        // (worker0 -> controller -> worker1).
        assert_eq!(rt.stats().network_bytes, 2 * GIB);
    }

    #[test]
    fn flat_scheduling_costs_more_per_ce() {
        let run = |flat: bool| {
            let mut cfg = SimConfig::paper_grout(4, PolicyKind::RoundRobin);
            cfg.planner.flat_scheduling = flat;
            let mut rt = SimRuntime::try_new(cfg).expect("valid config");
            let a = rt.alloc(1 << 20);
            for _ in 0..16 {
                rt.launch("k", cost_for(1 << 20), vec![CeArg::read_write(a, 1 << 20)]);
            }
            rt.stats().sched_overhead
        };
        assert!(run(true) > run(false) * 2.0);
    }

    #[test]
    fn degrade_link_refreshes_the_probed_matrix() {
        use crate::policy::ExplorationLevel;
        let mut rt = SimRuntime::try_new(SimConfig::paper_grout(
            2,
            PolicyKind::MinTransferTime(ExplorationLevel::Low),
        ))
        .expect("valid config");
        let before = rt
            .link_matrix()
            .expect("min-transfer-time probes at startup")
            .bandwidth(Location::CONTROLLER, Location::worker(0));
        assert!(before > 100e6, "healthy OCI link: {before}");
        let dead = net_sim::LinkSpec::from_mbit(1.0, desim::SimDuration::from_millis(50));
        rt.degrade_link(Location::CONTROLLER, Location::worker(0), dead);
        let after = rt
            .link_matrix()
            .expect("matrix survives refresh")
            .bandwidth(Location::CONTROLLER, Location::worker(0));
        assert!(after < 1e6, "matrix saw the degraded VNIC: {after}");
        // The reverse direction is untouched.
        let reverse = rt
            .link_matrix()
            .unwrap()
            .bandwidth(Location::worker(0), Location::CONTROLLER);
        assert!(reverse > 100e6);
    }

    #[test]
    fn degraded_link_slows_new_transfers() {
        let mut rt = SimRuntime::try_new(SimConfig::paper_grout(2, PolicyKind::RoundRobin))
            .expect("valid config");
        let a = rt.alloc(GIB);
        let fast = rt.launch("k1", cost_for(GIB), vec![CeArg::read(a, GIB)]); // worker 0
        let dead = net_sim::LinkSpec::from_mbit(1.0, desim::SimDuration::from_millis(50));
        rt.degrade_link(Location::CONTROLLER, Location::worker(1), dead);
        let b = rt.alloc(GIB);
        let slow = rt.launch("k2", cost_for(GIB), vec![CeArg::read(b, GIB)]); // worker 1
        let fast_span = rt.record(fast).finish - rt.record(fast).start;
        let _ = fast_span;
        assert!(
            rt.record(slow).finish.as_secs_f64() > rt.record(fast).finish.as_secs_f64() * 50.0,
            "transfer over the dead link crawls"
        );
    }

    #[test]
    fn free_invalidates_everywhere() {
        let mut rt = grout(1);
        let a = rt.alloc(GIB);
        rt.launch("k", cost_for(GIB), vec![CeArg::read(a, GIB)]);
        rt.free(a);
        assert!(rt.coherence().holders(a).is_empty());
    }

    #[test]
    #[should_panic(expected = "after free")]
    fn use_after_free_is_loud() {
        let mut rt = grout(1);
        let a = rt.alloc(GIB);
        rt.free(a);
        rt.launch("k", cost_for(GIB), vec![CeArg::read(a, GIB)]);
    }

    #[test]
    fn zero_byte_arrays_are_harmless() {
        let mut rt = grout(2);
        let a = rt.alloc(0);
        let k = rt.launch("k", KernelCost::default(), vec![CeArg::read_write(a, 0)]);
        assert!(rt.finish_time(k) > SimTime::ZERO);
        assert!(!rt.timed_out());
    }

    #[test]
    fn kernels_with_no_args_run() {
        let mut rt = grout(2);
        let k = rt.launch(
            "noop",
            KernelCost {
                flops: 1e9,
                bytes_read: 0,
                bytes_written: 0,
            },
            vec![],
        );
        assert!(rt.record(k).finish > rt.record(k).start);
    }

    #[test]
    fn sim_trace_records_executed_plans() {
        let mut rt = grout(2);
        let a = rt.alloc(GIB);
        rt.launch("w", cost_for(GIB), vec![CeArg::write(a, GIB)]); // worker 0
        rt.launch("r", cost_for(GIB), vec![CeArg::read(a, GIB)]); // worker 1, P2P
        let plans: Vec<&Plan> = rt.sched_trace().plans().collect();
        assert_eq!(plans.len(), 2);
        assert_eq!(plans[1].deps, vec![0]);
        assert_eq!(plans[1].movements[0].kind, MovementKind::P2p);
        assert!(
            plans[1].placement.is_some(),
            "sim fills Algorithm-2 placement into the traced plan"
        );
    }

    #[test]
    fn directed_invalidation_equals_the_full_sweep() {
        // Twin runtimes on one seeded 2k-CE stream; `swept` additionally
        // gets the old sweep (every device of every other worker) after
        // each submit. If the recorded holders ever missed a device with
        // state for a written array, the sweep would drop what the
        // directed pass kept and the UVM counters would part ways.
        let build = || {
            let mut cfg = SimConfig::paper_grout(8, PolicyKind::RoundRobin);
            cfg.hand_tuned_prefetch = true;
            let mut rt = SimRuntime::try_new(cfg).expect("valid config");
            let arrays: Vec<ArrayId> = (0..24).map(|_| rt.alloc(2 * GIB)).collect();
            (rt, arrays)
        };
        let (mut directed, mut arrays) = build();
        let (mut swept, _) = build();
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut below = move |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n as u64) as usize
        };
        for step in 0..2000 {
            let slot = below(arrays.len());
            let a = arrays[slot];
            let id = match below(20) {
                0 => {
                    for rt in [&mut directed, &mut swept] {
                        rt.free(a);
                        arrays[slot] = rt.alloc(2 * GIB);
                    }
                    continue;
                }
                1 | 2 => {
                    swept.host_write(a, 2 * GIB);
                    directed.host_write(a, 2 * GIB)
                }
                3 => {
                    swept.host_read(a, 2 * GIB);
                    directed.host_read(a, 2 * GIB)
                }
                _ => {
                    let mut args = vec![match below(3) {
                        0 => CeArg::read(a, 2 * GIB),
                        1 => CeArg::write(a, 2 * GIB),
                        _ => CeArg::read_write(a, 2 * GIB),
                    }];
                    for _ in 0..below(3) {
                        let b = arrays[below(arrays.len())];
                        if args.iter().all(|x| x.array != b) {
                            args.push(CeArg::read(b, 2 * GIB));
                        }
                    }
                    swept.launch("k", cost_for(2 * GIB), args.clone());
                    directed.launch("k", cost_for(2 * GIB), args)
                }
            };
            let rec = swept.record(id).clone();
            for arg in rec.ce.args.iter().filter(|a| a.mode.writes()) {
                for (i, w) in swept.workers.iter_mut().enumerate() {
                    if Location::worker(i) != rec.location {
                        for uvm in &mut w.uvm {
                            uvm.invalidate(arg.array.alloc());
                        }
                    }
                }
            }
            for (wi, w) in directed.workers.iter().enumerate() {
                for &a in &arrays {
                    let recorded = directed
                        .uvm_holders
                        .get(&a)
                        .is_some_and(|h| h.contains(&wi));
                    let resident: u64 = w.uvm.iter().map(|u| u.resident_bytes(a.alloc())).sum();
                    assert!(
                        recorded || resident == 0,
                        "step {step}: worker {wi} holds {resident} B of {a:?} unrecorded"
                    );
                }
                for d in 0..w.uvm.len() {
                    assert_eq!(
                        directed.uvm_stats(wi, d),
                        swept.uvm_stats(wi, d),
                        "step {step}: worker {wi} device {d}"
                    );
                }
            }
        }
        assert_eq!(directed.elapsed(), swept.elapsed());
        assert!(directed.stats().uvm_stall > SimDuration::ZERO);
    }

    // ----- fault injection -------------------------------------------------

    use crate::faults::{FaultEvent, FaultKind, FaultPlan};

    fn grout_with_faults(workers: usize, faults: FaultPlan) -> SimRuntime {
        let mut cfg = SimConfig::paper_grout(workers, PolicyKind::RoundRobin);
        cfg.planner.faults = faults;
        SimRuntime::try_new(cfg).expect("valid config")
    }

    /// host_write is DAG index 0; kernels are 1..=n.
    fn chain(rt: &mut SimRuntime, n: usize) -> ArrayId {
        let a = rt.alloc(GIB);
        rt.host_write(a, GIB);
        for i in 0..n {
            rt.launch(
                format!("step{i}"),
                cost_for(GIB),
                vec![CeArg::read_write(a, GIB)],
            );
        }
        a
    }

    #[test]
    fn injected_kill_quarantines_and_reroutes() {
        let mut rt = grout_with_faults(2, FaultPlan::kill_at_ce(3));
        chain(&mut rt, 6);

        let dead = (0..2).find(|&w| rt.is_quarantined(w)).expect("quarantine");
        assert_eq!(rt.epoch(), 1);
        assert_eq!(rt.healthy_workers(), 1);
        let events = rt.sched_trace().events();
        assert!(events.iter().any(
            |e| matches!(e, SchedEvent::Fault { at_ce: 3, worker: Some(w), .. } if *w == dead)
        ));
        assert!(events.iter().any(
            |e| matches!(e, SchedEvent::Quarantine { at_ce: 3, worker, .. } if *worker == dead)
        ));
        assert!(events.iter().any(
            |e| matches!(e, SchedEvent::Reassign { dag_index: 3, from, .. } if *from == dead)
        ));
        // Degraded mode: everything after the fault avoids the dead node.
        for dag in 3..=6 {
            let loc = rt.node_assignment(dag).expect("assigned");
            assert_ne!(loc.worker_index(), Some(dead), "CE {dag} on dead node");
        }
        // Detection + recovery cost virtual time. (Total elapsed can go
        // either way: degraded mode keeps the array resident on the one
        // surviving worker, which can beat the fault-free ping-pong.)
        assert!(rt.stats().fault_overhead >= rt.cfg.planner.fault_cfg.detection_timeout);
    }

    #[test]
    fn sim_fault_runs_are_deterministic() {
        let run = || {
            let mut rt = grout_with_faults(3, FaultPlan::one_death(42, &[1, 2, 3, 4, 5]));
            chain(&mut rt, 5);
            (rt.elapsed(), rt.sched_trace().events().len(), rt.epoch())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn transient_failures_price_their_backoff() {
        let mut clean = grout(2);
        chain(&mut clean, 3);

        let mut rt = grout_with_faults(
            2,
            FaultPlan::with_events(vec![FaultEvent {
                at_ce: 1,
                kind: FaultKind::FailLaunch { times: 2 },
            }]),
        );
        chain(&mut rt, 3);

        let retries = rt
            .sched_trace()
            .events()
            .iter()
            .filter(|e| matches!(e, SchedEvent::Retry { at_ce: 1, .. }))
            .count();
        assert_eq!(retries, 2);
        assert_eq!(
            rt.healthy_workers(),
            2,
            "transient faults do not quarantine"
        );
        assert!(rt.elapsed() > clean.elapsed());
    }

    #[test]
    fn persistent_launch_failures_condemn_the_node() {
        let mut rt = grout_with_faults(
            2,
            FaultPlan::with_events(vec![FaultEvent {
                at_ce: 1,
                kind: FaultKind::FailLaunch { times: 10 },
            }]),
        );
        chain(&mut rt, 3);
        assert_eq!(rt.healthy_workers(), 1);
        assert!(rt
            .sched_trace()
            .events()
            .iter()
            .any(|e| matches!(e, SchedEvent::Quarantine { at_ce: 1, .. })));
        assert!(rt
            .sched_trace()
            .events()
            .iter()
            .any(|e| matches!(e, SchedEvent::Reassign { dag_index: 1, .. })));
    }

    #[test]
    fn dropped_and_delayed_transfers_are_priced() {
        let mut rt = grout_with_faults(
            2,
            FaultPlan::with_events(vec![
                FaultEvent {
                    at_ce: 1,
                    kind: FaultKind::DropTransfer,
                },
                FaultEvent {
                    at_ce: 2,
                    kind: FaultKind::DelayTransfer {
                        delay: SimDuration::from_millis(5),
                    },
                },
            ]),
        );
        // host_write (dag 0) seeds the array on the controller, so kernel
        // CEs 1 and 2 both need an inbound transfer.
        let a = rt.alloc(GIB);
        rt.host_write(a, GIB);
        rt.launch("r0", cost_for(GIB), vec![CeArg::read(a, GIB)]);
        rt.launch("r1", cost_for(GIB), vec![CeArg::read(a, GIB)]);

        let events = rt.sched_trace().events();
        assert!(events
            .iter()
            .any(|e| matches!(e, SchedEvent::TransferDropped { at_ce: 1, .. })));
        assert!(events
            .iter()
            .any(|e| matches!(e, SchedEvent::TransferRedriven { at_ce: 1 })));
        assert!(events
            .iter()
            .any(|e| matches!(e, SchedEvent::TransferDelayed { at_ce: 2, .. })));
        assert!(rt.stats().redriven_bytes >= GIB);
        assert!(rt.stats().fault_overhead > SimDuration::ZERO);
    }
}
