//! The local (real-execution) runtime: GrOUT's Controller/Worker
//! architecture as actual threads.
//!
//! `LocalRuntime` is the second *plan executor* over the shared scheduling
//! core: every CE goes through the same [`Planner`] as
//! [`crate::SimRuntime`] (paper Algorithm 1 — dependencies → node
//! assignment → data movements) and the resulting [`Plan`] is executed for
//! real. Workers are OS threads holding local array copies, the controller
//! transmits plans over crossbeam channels, data moves as buffer messages
//! (controller-send or true peer-to-peer between worker threads), and
//! kernels compiled by `kernelc` execute on the host CPU (blocks split
//! across cores when a launch carries enough work).
//!
//! Execution is deferred, matching GrCUDA's asynchronous semantics:
//! `launch` *plans* a CE eagerly (so the planner's coherence view evolves
//! exactly as in the simulator) and `synchronize` transmits the plans.
//! Transmission is readiness-gated on the Global DAG — a CE's messages go
//! out only after every parent (including WAR/WAW anti-dependencies)
//! completed, so each worker's single physical copy per array holds
//! exactly the content a consumer planned against. Monotonic per-array
//! content versions carried in the messages enforce the residual dataflow
//! ordering: a worker only runs a kernel once every input reached the
//! version the plan demands, and only forwards a copy once it is fresh
//! enough.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Duration;

use desim::SimDuration;
use kernelc::{CompiledKernel, KernelArg, LaunchError};

use crate::ce::{ArrayId, Ce, CeArg, CeId, CeKind};
use crate::coherence::{Coherence, Location};
use crate::dag::{DagIndex, DepDag};
use crate::faults::{replay_closure, FailureDetector, SchedEvent};
use crate::policy::{LinkMatrix, PolicyKind};
use crate::scheduler::{
    LoggedPlanner, MovementKind, OpSink, Plan, PlanError, PlanObserver, Planner, PlannerConfig,
    PlannerOp, SchedTrace,
};
use crate::telemetry::{monotonic_ns, ArgValue, Lane, LaneAligner, Metrics, SpanEvent, Telemetry};
use crate::transport::{
    trace_on, ChannelTransport, CtrlMsg, ExecFault, ExecSpec, Liveness, Transport,
    TransportRecvError, WorkerCounters, WorkerMsg, WorkerSpan, WorkerSpanKind,
};

/// Errors surfaced by the local runtime.
#[derive(Debug)]
#[non_exhaustive]
pub enum LocalError {
    /// A kernel launch failed inside a worker.
    Launch(LaunchError),
    /// A kernel launch failed; includes the failing CE's DAG index.
    LaunchAt(DagIndex, LaunchError),
    /// The same array was passed twice to one kernel (aliasing unsupported).
    Aliased(ArrayId),
    /// Unknown array id.
    UnknownArray(ArrayId),
    /// Argument count/type mismatch against the kernel signature.
    BadArgs(String),
    /// A worker thread disappeared (channel closed or liveness probe found
    /// it gone) and recovery was disabled or impossible.
    WorkerDied {
        /// The worker that actually died.
        worker: usize,
        /// The lowest in-flight CE on that worker, when one was dispatched.
        at_ce: Option<DagIndex>,
    },
    /// A worker thread could not be spawned at startup.
    SpawnFailed {
        /// The worker that never came up.
        worker: usize,
        /// The OS error.
        reason: String,
    },
    /// Every worker is dead or quarantined; no node can run kernels.
    NoHealthyWorkers,
    /// Recovery could not reconstruct a lost array version: no surviving
    /// copy, no archived snapshot, and no completed writer CE to replay.
    Unrecoverable {
        /// The lost array.
        array: ArrayId,
        /// The unreconstructible content version.
        version: u64,
    },
    /// The shared scheduling core rejected the CE.
    Plan(PlanError),
    /// An elastic membership change (join/leave) could not complete.
    Membership(String),
}

impl std::fmt::Display for LocalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LocalError::Launch(e) => write!(f, "kernel launch failed: {e}"),
            LocalError::LaunchAt(at, e) => write!(f, "CE #{at} failed: {e}"),
            LocalError::Aliased(array) => write!(f, "array {array:?} aliased within one kernel"),
            LocalError::UnknownArray(array) => write!(f, "unknown array {array:?}"),
            LocalError::BadArgs(why) => write!(f, "bad kernel arguments: {why}"),
            LocalError::WorkerDied { worker, at_ce } => {
                write!(f, "worker {worker} died (in-flight CE {at_ce:?})")
            }
            LocalError::SpawnFailed { worker, reason } => {
                write!(f, "worker {worker} failed to spawn: {reason}")
            }
            LocalError::NoHealthyWorkers => f.write_str("no healthy workers remain"),
            LocalError::Unrecoverable { array, version } => {
                write!(f, "array {array:?} version {version} is unrecoverable")
            }
            LocalError::Plan(e) => write!(f, "planning failed: {e}"),
            LocalError::Membership(why) => write!(f, "membership change failed: {why}"),
        }
    }
}

impl std::error::Error for LocalError {}

/// A host-side buffer (the backing store of a framework array).
#[derive(Debug, Clone, PartialEq)]
pub enum HostBuf {
    /// 32-bit floats.
    F32(Vec<f32>),
    /// 32-bit ints.
    I32(Vec<i32>),
}

impl HostBuf {
    /// Size in bytes.
    pub fn bytes(&self) -> u64 {
        match self {
            HostBuf::F32(v) => (v.len() * 4) as u64,
            HostBuf::I32(v) => (v.len() * 4) as u64,
        }
    }
}

/// A launch argument in the local runtime.
#[derive(Debug, Clone, Copy)]
pub enum LocalArg {
    /// A framework array.
    Buf(ArrayId),
    /// Float scalar.
    F32(f32),
    /// Int scalar.
    I32(i32),
}

/// Execution statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LocalStats {
    /// Kernels executed across all workers.
    pub kernels: u64,
    /// Bytes moved controller->worker.
    pub send_bytes: u64,
    /// Bytes moved worker->worker (P2P).
    pub p2p_bytes: u64,
    /// Bytes moved worker->controller.
    pub fetch_bytes: u64,
    /// Completed ancestor CEs re-executed on the controller during
    /// recovery (lineage replay).
    pub replays: u64,
    /// Bytes re-sent because of retries, recoveries, or dropped transfers
    /// (kept out of the planned-movement counters above so locality
    /// assertions on fault-free traffic stay exact).
    pub redriven_bytes: u64,
}

/// Configuration of the local deployment.
#[derive(Debug, Clone)]
pub struct LocalConfig {
    /// The shared scheduling core's knobs: worker count, inter-node policy
    /// and the paper's ablation switches.
    pub planner: PlannerConfig,
}

impl LocalConfig {
    /// A deployment with `workers` threads under `policy` and the paper's
    /// default planner knobs.
    pub fn new(workers: usize, policy: PolicyKind) -> Self {
        LocalConfig {
            planner: PlannerConfig::new(workers, policy),
        }
    }
}

impl Default for LocalConfig {
    fn default() -> Self {
        LocalConfig::new(2, PolicyKind::RoundRobin)
    }
}

/// A planned-but-not-yet-transmitted kernel CE.
struct PendingCe {
    plan: Plan,
    kernel: Arc<CompiledKernel>,
    grid: (u32, u32),
    block: (u32, u32),
    args: Vec<LocalArg>,
    needs: Vec<(ArrayId, u64)>,
    bumps: Vec<(ArrayId, u64)>,
    dispatched: bool,
    /// Recovery touched this CE (reassignment or a dead movement source):
    /// its planned movements are void, so the controller supplies every
    /// input directly at (re)transmission.
    replanned: bool,
}

/// Everything needed to re-execute a kernel CE on the controller
/// (deterministic lineage replay). Kept past completion; memory is bounded
/// by workload length, which is fine at the scale this runtime targets.
#[derive(Clone)]
struct LoggedCe {
    kernel: Arc<CompiledKernel>,
    grid: (u32, u32),
    block: (u32, u32),
    args: Vec<LocalArg>,
    needs: Vec<(ArrayId, u64)>,
    bumps: Vec<(ArrayId, u64)>,
}

/// Element type and length of an array, for reconstructing the version-0
/// (all-zeros) contents during replay.
#[derive(Debug, Clone, Copy)]
enum BufShape {
    F32(usize),
    I32(usize),
}

impl BufShape {
    fn of(buf: &HostBuf) -> BufShape {
        match buf {
            HostBuf::F32(v) => BufShape::F32(v.len()),
            HostBuf::I32(v) => BufShape::I32(v.len()),
        }
    }

    fn zeros(self) -> HostBuf {
        match self {
            BufShape::F32(n) => HostBuf::F32(vec![0.0; n]),
            BufShape::I32(n) => HostBuf::I32(vec![0; n]),
        }
    }
}

/// The threaded GrOUT runtime: executes [`Plan`]s over a [`Transport`]
/// (in-process crossbeam channels by default; TCP via `grout-net`).
pub struct LocalRuntime {
    cfg: LocalConfig,
    planner: LoggedPlanner,
    /// Controller master copies (authoritative when coherence says so).
    master: HashMap<ArrayId, HostBuf>,
    /// Monotonic content version per array (bumped by every writer CE).
    versions: HashMap<ArrayId, u64>,
    /// Version the controller's master copy actually holds (lags
    /// `versions` while fresh content still lives on a worker).
    master_versions: HashMap<ArrayId, u64>,
    /// Arrays ever delivered to each worker's local store.
    present: Vec<HashSet<ArrayId>>,
    /// Controller-relayed sends waiting for the master copy to reach a
    /// version (second hop of staged movements).
    pending_ctrl: Vec<(ArrayId, u64, usize)>,
    pending: Vec<PendingCe>,
    /// The controller↔worker message fabric (threads+channels or TCP).
    transport: Box<dyn Transport>,
    /// Controller-assigned kernel ids, keyed by `Arc` identity.
    kernel_ids: HashMap<usize, u64>,
    next_kernel_id: u64,
    /// Kernels already shipped to each worker (one `LoadKernel` each).
    loaded: Vec<HashSet<u64>>,
    stats: LocalStats,
    trace: SchedTrace,
    /// Per-worker liveness + membership epoch.
    detector: FailureDetector,
    /// Replay log: every launched kernel CE, by DAG index.
    logged: HashMap<DagIndex, LoggedCe>,
    /// Which CE produced each (array, version) — host writes included.
    version_writer: HashMap<(ArrayId, u64), DagIndex>,
    /// Snapshots of superseded controller copies, keyed by exact version.
    /// Together with `logged` this is what makes lost state reconstructible.
    archive: HashMap<(ArrayId, u64), HostBuf>,
    /// Array shapes, for zero-initialized version-0 replay inputs.
    shapes: HashMap<ArrayId, BufShape>,
    /// Transient-failure attempts per CE (1-based after first failure).
    attempts: HashMap<DagIndex, u32>,
    /// CEs whose one-shot fault has fired (never re-injected).
    spent: HashSet<DagIndex>,
    /// CEs whose first transfer was dropped and not yet re-driven.
    wedged: HashSet<DagIndex>,
    /// Drop/delay faults already injected (one-shot).
    injected_drop: HashSet<DagIndex>,
    /// Optional span/instant recorder (wall-clock timestamps relative to
    /// `origin`).
    telemetry: Telemetry,
    /// Always-on metrics registry.
    metrics: Metrics,
    /// Wall-clock anchor for telemetry timestamps.
    origin: std::time::Instant,
    /// [`monotonic_ns`] at construction: converts clock-aligned worker
    /// span stamps (controller monotonic domain) to run-relative ns.
    origin_mono: u64,
    /// Per-lane watermarks keeping merged worker spans monotone even
    /// when the clock-offset estimate shifts between batches.
    aligner: LaneAligner,
    /// Workers that have streamed at least one telemetry batch; their
    /// `Done`s skip the controller-side synthetic execute span (the
    /// worker's own clock-aligned span is strictly better).
    saw_worker_telemetry: Vec<bool>,
    /// Workers this controller asked to depart ([`Self::leave_worker`]):
    /// their [`WorkerMsg::Leave`] ack is expected and must not be treated
    /// as a death.
    expected_leave: HashSet<usize>,
}

impl LocalRuntime {
    /// Fallible startup: a worker whose thread fails to spawn starts
    /// quarantined (degraded mode) instead of panicking the deployment;
    /// only zero live workers is an error.
    pub fn try_new(cfg: LocalConfig) -> Result<Self, LocalError> {
        crate::builder::validate_planner(&cfg.planner).map_err(LocalError::Plan)?;
        let transport = ChannelTransport::new(cfg.planner.workers);
        LocalRuntime::with_transport(cfg, Box::new(transport))
    }

    /// Startup over an explicit [`Transport`] (the in-process channel mesh
    /// or a `grout-net` TCP mesh). Workers the transport reports as
    /// spawn-failed start quarantined; only zero live workers is an error.
    /// The planner's link matrix comes from
    /// [`Transport::measured_links`] when the transport probed one
    /// (min-transfer-time then prices real bandwidth), uniform otherwise.
    pub fn with_transport(
        cfg: LocalConfig,
        transport: Box<dyn Transport>,
    ) -> Result<Self, LocalError> {
        crate::builder::validate_planner(&cfg.planner).map_err(LocalError::Plan)?;
        let n = cfg.planner.workers;
        if transport.workers() != n {
            return Err(LocalError::Plan(PlanError::InvalidConfig(
                "transport endpoint count must match the configured worker count",
            )));
        }
        let failures: Vec<(usize, String)> = transport.spawn_failures().to_vec();
        if failures.len() == n {
            let (worker, reason) = failures.into_iter().next().expect("n > 0 workers");
            return Err(LocalError::SpawnFailed { worker, reason });
        }
        let links = transport
            .measured_links()
            .cloned()
            .unwrap_or_else(|| LinkMatrix::uniform(n + 1, 1e9));
        let mut metrics = Metrics::with_workers(n);
        metrics.set_bandwidth(
            if transport.measured_links().is_some() {
                "measured"
            } else {
                "uniform"
            },
            transport.kind(),
            &links,
        );
        let mut planner = LoggedPlanner::new(Planner::new(cfg.planner.clone(), Some(links)));
        let mut detector = FailureDetector::new(n);
        let mut trace = SchedTrace::default();
        for (i, _reason) in &failures {
            planner.quarantine(*i).expect("not all workers failed");
            detector.mark_dead(*i);
            let event = SchedEvent::SpawnFailed { worker: *i };
            metrics.record_event(&event);
            trace.record_event(event);
        }
        Ok(LocalRuntime {
            planner,
            master: HashMap::new(),
            versions: HashMap::new(),
            master_versions: HashMap::new(),
            present: vec![HashSet::new(); n],
            pending_ctrl: Vec::new(),
            pending: Vec::new(),
            transport,
            kernel_ids: HashMap::new(),
            next_kernel_id: 0,
            loaded: vec![HashSet::new(); n],
            stats: LocalStats::default(),
            trace,
            detector,
            logged: HashMap::new(),
            version_writer: HashMap::new(),
            archive: HashMap::new(),
            shapes: HashMap::new(),
            attempts: HashMap::new(),
            spent: HashSet::new(),
            wedged: HashSet::new(),
            injected_drop: HashSet::new(),
            telemetry: Telemetry::off(),
            metrics,
            origin: std::time::Instant::now(),
            origin_mono: monotonic_ns(),
            aligner: LaneAligner::new(),
            saw_worker_telemetry: vec![false; n],
            expected_leave: HashSet::new(),
            cfg,
        })
    }

    /// Attaches a telemetry recorder; the handle is shared with the
    /// planner so its marks land in the same trace, and every worker is
    /// told to start (or stop) recording its own spans
    /// ([`CtrlMsg::Observe`] — a no-op against a pre-telemetry peer).
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.planner.set_telemetry(telemetry.clone());
        let enabled = telemetry.enabled();
        self.telemetry = telemetry;
        for w in 0..self.transport.workers() {
            if self.detector.is_alive(w) {
                let _ = self.transport.send(w, CtrlMsg::Observe { enabled });
            }
        }
    }

    /// Read-only view of the planner state machine (queries only; every
    /// mutation goes through the op log).
    pub fn planner(&self) -> &Planner {
        &self.planner
    }

    /// The ordered operation log: every [`PlannerOp`] applied so far.
    pub fn op_log(&self) -> &[PlannerOp] {
        self.planner.ops()
    }

    /// Attaches an [`OpSink`] observing every planner op (journal, log
    /// shipping). The sink is caught up on the existing log first.
    pub fn add_op_sink(&mut self, sink: Box<dyn OpSink>) {
        self.planner.add_sink(sink);
    }

    /// Snapshots the transport's per-peer wire counters into the metrics
    /// registry (refreshed at every `synchronize`; call again before
    /// exporting if traffic happened since). Transports that track
    /// nothing (the simulator has no transport at all) leave it empty.
    pub fn refresh_wire_metrics(&mut self) {
        let wire = self.transport.wire_stats();
        if !wire.is_empty() {
            self.metrics.wire = wire;
        }
        self.metrics.session = self.transport.session_id();
    }

    /// Merges one worker telemetry batch: spans are shifted into the
    /// controller clock domain with the transport's offset estimate,
    /// clamped monotone per lane, and emitted through the controller's
    /// recorder; counters land as counter samples on the worker's
    /// control lane.
    fn merge_worker_telemetry(
        &mut self,
        worker: usize,
        backlog: u64,
        counters: WorkerCounters,
        spans: Vec<WorkerSpan>,
    ) {
        if let Some(seen) = self.saw_worker_telemetry.get_mut(worker) {
            *seen = true;
        }
        if !self.telemetry.enabled() {
            return;
        }
        let offset = self.transport.clock_offset_ns(worker);
        for s in &spans {
            let lane = match s.kind {
                WorkerSpanKind::Execute => Lane::stream(worker + 1, 0, 0),
                WorkerSpanKind::Transfer => Lane::network(worker + 1),
                WorkerSpanKind::Recompile => Lane::control(worker + 1),
            };
            let cat = match s.kind {
                WorkerSpanKind::Execute => "execute",
                WorkerSpanKind::Transfer => "transfer",
                WorkerSpanKind::Recompile => "recompile",
            };
            // Worker monotonic → controller monotonic → run-relative.
            let ctrl_ns = (s.start_ns as i64)
                .saturating_add(offset)
                .saturating_sub(self.origin_mono as i64)
                .max(0) as u64;
            let start_ns = self.aligner.align(lane, ctrl_ns, s.dur_ns);
            let mut args: Vec<(&'static str, ArgValue)> =
                vec![("worker", ArgValue::U64(worker as u64))];
            if s.dag_index != u64::MAX {
                args.push(("dag_index", ArgValue::U64(s.dag_index)));
            }
            if s.bytes > 0 {
                args.push(("bytes", ArgValue::U64(s.bytes)));
            }
            self.telemetry.span(&SpanEvent {
                name: &s.name,
                cat,
                lane,
                start_ns,
                dur_ns: s.dur_ns,
                args: &args,
            });
        }
        let at = self.now_ns();
        let lane = Lane::control(worker + 1);
        self.telemetry
            .counter("worker_kernels", lane, at, counters.kernels as f64);
        self.telemetry
            .counter("worker_bytes_out", lane, at, counters.bytes_out as f64);
        self.telemetry
            .counter("worker_bytes_in", lane, at, counters.bytes_in as f64);
        self.telemetry
            .counter("telemetry_backlog", lane, at, backlog as f64);
        if counters.dropped > 0 {
            self.telemetry
                .counter("telemetry_dropped", lane, at, counters.dropped as f64);
        }
    }

    /// The always-on metrics registry.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Wall-clock nanoseconds since this runtime came up (telemetry
    /// timestamp domain).
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records a scheduling event in the trace, metrics and telemetry.
    fn note_event(&mut self, event: SchedEvent) {
        self.metrics.record_event(&event);
        self.telemetry.sched_event(&event, self.now_ns());
        self.trace.record_event(event);
    }

    /// Re-polls the transport for workers sitting in the suspect grace
    /// window and reinstates any whose session has resumed. Runs before
    /// every placement: a resume that completed since the last liveness
    /// probe (e.g. a completion unblocked `synchronize` first) must clear
    /// the suspended mask *before* the next CE is planned, or the plan
    /// would route around a worker that is in fact back — diverging from
    /// the fault-free run the chaos differential compares against.
    fn reinstate_resumed(&mut self) {
        for i in 0..self.transport.workers() {
            if self.detector.is_suspected(i) && self.transport.liveness(i) == Liveness::Alive {
                self.detector.reinstate(i);
                self.planner.reinstate(i);
                self.note_event(SchedEvent::Reinstated {
                    worker: i,
                    epoch: self.detector.epoch(),
                });
            }
        }
    }

    /// Plans one CE through the shared core, timing the decision and
    /// emitting a plan span.
    fn plan_with_span(&mut self, ce: &Ce) -> Result<Plan, LocalError> {
        self.reinstate_resumed();
        let started = std::time::Instant::now();
        let start_ns = self.now_ns();
        let plan = self.planner.plan_ce(ce).map_err(LocalError::Plan)?;
        let dur_ns = started.elapsed().as_nanos() as u64;
        self.metrics.plan.record(dur_ns);
        if self.telemetry.enabled() {
            self.telemetry.span(&SpanEvent {
                name: "plan",
                cat: "plan",
                lane: Lane::CONTROLLER,
                start_ns,
                dur_ns,
                args: &[
                    ("dag_index", ArgValue::U64(plan.dag_index as u64)),
                    ("node", ArgValue::U64(plan.assigned_node.0 as u64)),
                    ("movements", ArgValue::U64(plan.movements.len() as u64)),
                    ("bytes", ArgValue::U64(plan.movement_bytes())),
                ],
            });
        }
        Ok(plan)
    }

    /// Bookkeeping for a kernel completion reported by a worker.
    fn on_done(&mut self, dag_index: DagIndex, worker: usize, elapsed_ns: u64) {
        self.planner.mark_completed(dag_index);
        self.metrics.record_kernel(worker, elapsed_ns);
        self.metrics.execute.record(elapsed_ns);
        // Fallback synthetic span, only until the worker's first
        // telemetry batch arrives: its batches carry clock-aligned
        // execute spans that supersede this estimate.
        let worker_traces = self
            .saw_worker_telemetry
            .get(worker)
            .copied()
            .unwrap_or(false);
        if self.telemetry.enabled() && !worker_traces {
            // The span is anchored at the controller's receipt time; the
            // duration is the worker-measured execution time, so the start
            // is approximate by the notification latency.
            let end = self.now_ns();
            let name: String = self
                .logged
                .get(&dag_index)
                .map(|l| l.kernel.name().to_string())
                .unwrap_or_else(|| format!("ce#{dag_index}"));
            self.telemetry.span(&SpanEvent {
                name: &name,
                cat: "execute",
                lane: Lane::stream(worker + 1, 0, 0),
                start_ns: end.saturating_sub(elapsed_ns),
                dur_ns: elapsed_ns,
                args: &[("dag_index", ArgValue::U64(dag_index as u64))],
            });
        }
    }

    /// Kernels completed per worker (load-balance observability).
    pub fn kernels_by_worker(&self) -> &[u64] {
        &self.metrics.kernels_by_worker
    }

    /// Number of workers.
    pub fn workers(&self) -> usize {
        self.cfg.planner.workers
    }

    /// Allocates a float array of `len` zeros.
    pub fn alloc_f32(&mut self, len: usize) -> ArrayId {
        self.alloc_buf(HostBuf::F32(vec![0.0; len]))
    }

    /// Allocates an int array of `len` zeros.
    pub fn alloc_i32(&mut self, len: usize) -> ArrayId {
        self.alloc_buf(HostBuf::I32(vec![0; len]))
    }

    fn alloc_buf(&mut self, buf: HostBuf) -> ArrayId {
        let id = self.planner.alloc(buf.bytes());
        self.shapes.insert(id, BufShape::of(&buf));
        self.master.insert(id, buf);
        self.versions.insert(id, 0);
        self.master_versions.insert(id, 0);
        id
    }

    /// Host write: synchronizes, pulls the array to the controller, applies
    /// `f` to the float contents, and becomes the exclusive holder.
    pub fn write_f32(
        &mut self,
        array: ArrayId,
        f: impl FnOnce(&mut [f32]),
    ) -> Result<(), LocalError> {
        self.fetch_to_controller(array)?;
        let bytes = match self.master.get(&array) {
            Some(HostBuf::F32(v)) => (v.len() * 4) as u64,
            Some(HostBuf::I32(_)) => {
                return Err(LocalError::BadArgs(format!(
                    "array {array:?} is i32, not f32"
                )))
            }
            None => return Err(LocalError::UnknownArray(array)),
        };
        // Plan the host CE through the shared core: it records the write in
        // the Global DAG and makes the controller the exclusive holder.
        let ce = Ce {
            id: CeId(self.planner.dag().len() as u64),
            kind: CeKind::HostWrite,
            args: vec![CeArg::write(array, bytes)],
        };
        let plan = self.plan_with_span(&ce)?;
        // Snapshot the superseded contents, then the fresh ones: a host
        // write is not replayable (the closure is gone), so recovery must
        // find both versions in the archive.
        let pre_v = self.master_versions.get(&array).copied().unwrap_or(0);
        if pre_v > 0 && !self.archive.contains_key(&(array, pre_v)) {
            let buf = self.master.get(&array).expect("checked above").clone();
            self.archive.insert((array, pre_v), buf);
        }
        match self.master.get_mut(&array) {
            Some(HostBuf::F32(v)) => f(v),
            _ => unreachable!("type checked above"),
        }
        let v = self.versions.entry(array).or_insert(0);
        *v += 1;
        let new_v = *v;
        self.master_versions.insert(array, new_v);
        self.archive.insert(
            (array, new_v),
            self.master.get(&array).expect("checked above").clone(),
        );
        self.version_writer.insert((array, new_v), plan.dag_index);
        self.planner.mark_completed(plan.dag_index);
        self.trace.record(&plan);
        Ok(())
    }

    /// Host read: synchronizes and returns a copy of the float contents.
    pub fn read_f32(&mut self, array: ArrayId) -> Result<Vec<f32>, LocalError> {
        self.fetch_to_controller(array)?;
        match self.master.get(&array) {
            Some(HostBuf::F32(v)) => Ok(v.clone()),
            Some(HostBuf::I32(_)) => Err(LocalError::BadArgs(format!(
                "array {array:?} is i32, not f32"
            ))),
            None => Err(LocalError::UnknownArray(array)),
        }
    }

    /// Enqueues a kernel CE over a 1-D grid. Dependencies, argument
    /// directions and access patterns come from `kernelc`'s static analysis
    /// of the source.
    pub fn launch(
        &mut self,
        kernel: &Arc<CompiledKernel>,
        grid: u32,
        block: u32,
        args: Vec<LocalArg>,
    ) -> Result<CeId, LocalError> {
        self.launch2d(kernel, (grid, 1), (block, 1), args)
    }

    /// Enqueues a kernel CE over a 2-D grid (`dim3(x, y)` semantics).
    /// The CE is planned immediately (eager, like the simulator); the plan
    /// is transmitted to the workers at the next synchronization point.
    pub fn launch2d(
        &mut self,
        kernel: &Arc<CompiledKernel>,
        grid: (u32, u32),
        block: (u32, u32),
        args: Vec<LocalArg>,
    ) -> Result<CeId, LocalError> {
        if args.len() != kernel.params().len() {
            return Err(LocalError::BadArgs(format!(
                "kernel `{}` expects {} args, got {}",
                kernel.name(),
                kernel.params().len(),
                args.len()
            )));
        }
        // Build the CE argument list from the kernel's analysis.
        let mut ce_args = Vec::new();
        let mut seen = Vec::new();
        for (i, arg) in args.iter().enumerate() {
            if let LocalArg::Buf(a) = arg {
                if seen.contains(a) {
                    return Err(LocalError::Aliased(*a));
                }
                seen.push(*a);
                let bytes = self.array_size(*a).ok_or(LocalError::UnknownArray(*a))?;
                let pa = kernel.access()[i];
                let mode = match (pa.reads, pa.writes) {
                    (true, true) => uvm_sim::AccessMode::ReadWrite,
                    (false, true) => uvm_sim::AccessMode::Write,
                    _ => uvm_sim::AccessMode::Read,
                };
                let pattern = match pa.class {
                    kernelc::AccessClass::Broadcast => uvm_sim::AccessPattern::Gather {
                        touches_per_page: 8.0,
                    },
                    kernelc::AccessClass::Indirect => uvm_sim::AccessPattern::Gather {
                        touches_per_page: 2.0,
                    },
                    _ => uvm_sim::AccessPattern::STREAM_ONCE,
                };
                ce_args.push(CeArg {
                    array: *a,
                    bytes,
                    alloc_bytes: bytes,
                    mode,
                    pattern,
                    advise: uvm_sim::MemAdvise::None,
                });
            }
        }
        let ce = Ce {
            id: CeId(self.planner.dag().len() as u64),
            kind: CeKind::Kernel {
                name: kernel.name().to_string(),
                cost: gpu_sim::KernelCost::default(),
            },
            args: ce_args,
        };
        let id = ce.id;

        // Algorithm 1 runs in the shared core; this runtime executes the
        // returned plan verbatim at synchronize time.
        let plan = self.plan_with_span(&ce)?;

        // Version bookkeeping: read args must reach their current version
        // on the assigned worker, write-only args only need a buffer
        // present (their prior contents are overwritten, CUDA-style).
        let mut needs = Vec::new();
        let mut bumps = Vec::new();
        for (i, arg) in args.iter().enumerate() {
            if let LocalArg::Buf(a) = arg {
                let pa = kernel.access()[i];
                let need = if pa.reads {
                    self.versions.get(a).copied().unwrap_or(0)
                } else {
                    0
                };
                needs.push((*a, need));
                if pa.writes {
                    let v = self.versions.entry(*a).or_insert(0);
                    *v += 1;
                    bumps.push((*a, *v));
                }
            }
        }

        for (a, v) in &bumps {
            self.version_writer.insert((*a, *v), plan.dag_index);
        }
        self.logged.insert(
            plan.dag_index,
            LoggedCe {
                kernel: Arc::clone(kernel),
                grid,
                block,
                args: args.clone(),
                needs: needs.clone(),
                bumps: bumps.clone(),
            },
        );
        self.trace.record(&plan);
        self.pending.push(PendingCe {
            plan,
            kernel: Arc::clone(kernel),
            grid,
            block,
            args,
            needs,
            bumps,
            dispatched: false,
            replanned: false,
        });
        Ok(id)
    }

    fn array_size(&self, a: ArrayId) -> Option<u64> {
        self.master.get(&a).map(HostBuf::bytes)
    }

    /// Runs every pending CE to completion across the worker threads.
    pub fn synchronize(&mut self) -> Result<(), LocalError> {
        loop {
            // Transmit a plan only once every DAG parent has completed.
            // Workers hold a single physical copy per array, so a CE's
            // messages must never race ahead of its dependencies: the
            // WAR/WAW edges in the Global DAG are what guarantee each
            // consumer sees exactly the content version it planned
            // against, not a later overwrite.
            let mut restarted = false;
            for i in 0..self.pending.len() {
                if !self.pending[i].dispatched
                    && self.planner.dag().is_ready(self.pending[i].plan.dag_index)
                {
                    match self.transmit(i) {
                        Ok(()) => {}
                        Err(LocalError::WorkerDied { worker, .. })
                            if self.cfg.planner.fault_cfg.recovery =>
                        {
                            // A send hit a closed channel: the real failed
                            // worker is known, recover and restart the scan
                            // (assignments just changed under us).
                            self.recover_from_death(worker, None)?;
                            restarted = true;
                            break;
                        }
                        Err(e) => return Err(e),
                    }
                }
            }
            if restarted {
                continue;
            }
            let in_flight = self
                .pending
                .iter()
                .filter(|p| p.dispatched && !self.planner.dag().is_completed(p.plan.dag_index))
                .count();
            if in_flight == 0 {
                break;
            }
            let timeout =
                Duration::from_nanos(self.cfg.planner.fault_cfg.detection_timeout.as_nanos());
            match self.transport.recv_timeout(timeout) {
                Ok(WorkerMsg::Done {
                    dag_index,
                    worker,
                    elapsed_ns,
                }) => {
                    self.on_done(dag_index, worker, elapsed_ns);
                }
                Ok(WorkerMsg::Failed {
                    dag_index,
                    worker: _,
                    error: Some(error),
                }) => {
                    return Err(LocalError::LaunchAt(dag_index, error));
                }
                Ok(WorkerMsg::Failed {
                    dag_index,
                    worker,
                    error: None,
                }) => {
                    self.handle_transient_failure(dag_index, worker)?;
                }
                Ok(WorkerMsg::Data {
                    array,
                    version,
                    buf,
                }) => {
                    self.install_master(array, version, buf);
                    self.flush_pending_ctrl_recovering()?;
                }
                Ok(WorkerMsg::Telemetry {
                    worker,
                    backlog,
                    counters,
                    spans,
                    ..
                }) => {
                    self.merge_worker_telemetry(worker, backlog, counters, spans);
                }
                Ok(WorkerMsg::Leave { worker }) => {
                    // A clean departure (graceful worker shutdown) is a
                    // definitive death: no suspect grace window, no resume
                    // attempts — straight to quarantine + replay. Unless
                    // this controller asked for it ([`Self::leave_worker`]):
                    // then the ack is consumed there, and a straggler
                    // surfacing here must not trigger replay.
                    if !self.expected_leave.contains(&worker) {
                        self.recover_from_death(worker, None)?;
                    }
                }
                // Liveness/probe traffic is transport-internal; tolerate
                // stragglers defensively.
                Ok(_) => {}
                Err(TransportRecvError::Timeout) => self.on_timeout()?,
                Err(TransportRecvError::Disconnected) => return Err(LocalError::NoHealthyWorkers),
            }
        }
        let done: Vec<bool> = self
            .pending
            .iter()
            .map(|p| self.planner.dag().is_completed(p.plan.dag_index))
            .collect();
        let mut done = done.into_iter();
        self.pending.retain(|_| !done.next().unwrap());
        self.refresh_wire_metrics();
        Ok(())
    }

    /// Installs a worker-returned buffer as the controller master copy
    /// (keeping the newest version). Superseded contents and stale
    /// landings both go to the archive — they are exact snapshots of
    /// earlier versions, which is what lineage replay starts from.
    fn install_master(&mut self, array: ArrayId, version: u64, buf: HostBuf) {
        let v = self.versions.entry(array).or_insert(0);
        *v = (*v).max(version);
        let mv = self.master_versions.entry(array).or_insert(0);
        if version >= *mv {
            let old_mv = *mv;
            *mv = version;
            if let Some(old) = self.master.insert(array, buf) {
                if old_mv > 0 && old_mv < version {
                    self.archive.entry((array, old_mv)).or_insert(old);
                }
            }
        } else if version > 0 {
            self.archive.entry((array, version)).or_insert(buf);
        }
    }

    /// [`Self::flush_pending_ctrl`], but a dead destination triggers
    /// recovery (when enabled) instead of erroring out.
    fn flush_pending_ctrl_recovering(&mut self) -> Result<(), LocalError> {
        match self.flush_pending_ctrl() {
            Err(LocalError::WorkerDied { worker, .. }) if self.cfg.planner.fault_cfg.recovery => {
                self.recover_from_death(worker, None)
            }
            other => other,
        }
    }

    /// Forwards any controller-relayed send whose master copy caught up
    /// (the second hop of staged movements).
    fn flush_pending_ctrl(&mut self) -> Result<(), LocalError> {
        let mut i = 0;
        while i < self.pending_ctrl.len() {
            let (array, need, w) = self.pending_ctrl[i];
            if self.master_versions.get(&array).copied().unwrap_or(0) >= need {
                self.pending_ctrl.remove(i);
                self.send_master_to(array, w)?;
            } else {
                i += 1;
            }
        }
        Ok(())
    }

    /// Ships the controller master copy of `array` to worker `w`.
    fn send_master_to(&mut self, array: ArrayId, w: usize) -> Result<(), LocalError> {
        let buf = self
            .master
            .get(&array)
            .ok_or(LocalError::UnknownArray(array))?
            .clone();
        let version = self.master_versions.get(&array).copied().unwrap_or(0);
        self.transport
            .send(
                w,
                CtrlMsg::Data {
                    array,
                    version,
                    buf,
                },
            )
            .map_err(|_| LocalError::WorkerDied {
                worker: w,
                at_ce: None,
            })?;
        self.present[w].insert(array);
        Ok(())
    }

    /// The id under which `kernel` ships over the transport, assigning a
    /// fresh one on first sight (`Arc` identity keyed — recompiling the
    /// same source yields a distinct id, which is only a wasted
    /// `LoadKernel`, never a correctness issue).
    fn kernel_id(&mut self, kernel: &Arc<CompiledKernel>) -> u64 {
        let key = Arc::as_ptr(kernel) as usize;
        *self.kernel_ids.entry(key).or_insert_with(|| {
            let id = self.next_kernel_id;
            self.next_kernel_id += 1;
            id
        })
    }

    /// Ships `kernel` to worker `w` unless already loaded there.
    fn ensure_loaded(
        &mut self,
        w: usize,
        kernel: &Arc<CompiledKernel>,
        dag: DagIndex,
    ) -> Result<u64, LocalError> {
        let id = self.kernel_id(kernel);
        if self.loaded[w].insert(id) {
            self.transport
                .send(
                    w,
                    CtrlMsg::LoadKernel {
                        id,
                        name: kernel.name().to_string(),
                        source: kernel.source().to_string(),
                        compiled: Some(Arc::clone(kernel)),
                    },
                )
                .map_err(|_| LocalError::WorkerDied {
                    worker: w,
                    at_ce: Some(dag),
                })?;
        }
        Ok(id)
    }

    /// Transmits pending CE `i`: issues the plan's data movements as
    /// channel messages, then the kernel itself. No scheduling decision is
    /// made here — the plan is executed verbatim.
    fn transmit(&mut self, i: usize) -> Result<(), LocalError> {
        let dag = self.pending[i].plan.dag_index;
        let w = self.pending[i]
            .plan
            .assigned_node
            .worker_index()
            .expect("kernel plans target workers");
        // A retry (transient failure) or a recovery re-dispatch is a
        // retransmission: its traffic is accounted separately so the
        // planned-movement counters keep describing the fault-free plan.
        let retransmit = self.pending[i].replanned || self.attempts.contains_key(&dag);
        // Deterministic fault injection, keyed on the DAG index (one-shot).
        let kill = self.cfg.planner.faults.kill_at(dag);
        let fail_times = self.cfg.planner.faults.fail_launch_at(dag);
        let drop_fault = self.cfg.planner.faults.drop_at(dag);
        let delay_fault = self.cfg.planner.faults.delay_at(dag);
        let mut fault = None;
        if kill && !self.spent.contains(&dag) {
            self.spent.insert(dag);
            fault = Some(ExecFault::Crash);
        } else if let Some(times) = fail_times {
            let attempt = self.attempts.get(&dag).copied().unwrap_or(0);
            if attempt < times && !self.spent.contains(&dag) {
                fault = Some(ExecFault::FailTransient);
            }
        }
        if let Some(delay) = delay_fault {
            if !retransmit && !self.pending[i].plan.movements.is_empty() {
                // Timing-only fault: the simulator prices it; here it is
                // recorded (and waited out, to keep behaviour honest).
                let array = self.pending[i].plan.movements[0].array;
                self.note_event(SchedEvent::TransferDelayed {
                    at_ce: dag,
                    array,
                    delay,
                });
                std::thread::sleep(Duration::from_nanos(delay.as_nanos()));
            }
        }
        let need_of = |needs: &[(ArrayId, u64)], a: ArrayId| {
            needs
                .iter()
                .find(|(x, _)| *x == a)
                .map(|(_, v)| *v)
                .unwrap_or(0)
        };
        if trace_on() {
            eprintln!(
                "[ctl] transmit ce#{} -> w{w} needs {:?} retransmit {retransmit}",
                dag, self.pending[i].needs
            );
        }

        if self.pending[i].replanned {
            // Recovery voided the planned movements (the source or the
            // assignee died): the controller supplies every input directly
            // from its own reconstructed state.
            let needs = self.pending[i].needs.clone();
            for (a, need) in needs {
                let (version, buf) = self.controller_buf(a, need)?;
                let bytes = buf.bytes();
                self.transport
                    .send(
                        w,
                        CtrlMsg::Data {
                            array: a,
                            version,
                            buf,
                        },
                    )
                    .map_err(|_| LocalError::WorkerDied {
                        worker: w,
                        at_ce: Some(dag),
                    })?;
                self.stats.redriven_bytes += bytes;
                self.present[w].insert(a);
            }
        } else {
            for k in 0..self.pending[i].plan.movements.len() {
                let m = self.pending[i].plan.movements[k].clone();
                let need = need_of(&self.pending[i].needs, m.array);
                if k == 0 && drop_fault && !self.injected_drop.contains(&dag) {
                    // Injected transfer loss: the message never goes out.
                    // Presence is still recorded so the master-copy
                    // fallback below does not quietly heal the drop — the
                    // CE wedges until the detection timeout re-drives it.
                    self.injected_drop.insert(dag);
                    self.wedged.insert(dag);
                    self.note_event(SchedEvent::TransferDropped {
                        at_ce: dag,
                        array: m.array,
                    });
                    self.present[w].insert(m.array);
                    continue;
                }
                match m.kind {
                    MovementKind::P2p => {
                        let src = m.from.worker_index().expect("p2p sources are workers");
                        self.transport
                            .send(
                                src,
                                CtrlMsg::Send {
                                    array: m.array,
                                    min_version: need,
                                    to: Some(w),
                                },
                            )
                            .map_err(|_| LocalError::WorkerDied {
                                worker: src,
                                at_ce: Some(dag),
                            })?;
                        if retransmit {
                            self.stats.redriven_bytes += m.bytes;
                        } else {
                            self.stats.p2p_bytes += m.bytes;
                            self.metrics.record_movement(MovementKind::P2p, m.bytes);
                        }
                    }
                    MovementKind::ControllerSend => {
                        if self.master_versions.get(&m.array).copied().unwrap_or(0) >= need {
                            self.send_master_to(m.array, w).map_err(|e| match e {
                                LocalError::WorkerDied { worker, .. } => LocalError::WorkerDied {
                                    worker,
                                    at_ce: Some(dag),
                                },
                                other => other,
                            })?;
                        } else {
                            // Master copy still in flight from a worker;
                            // relay once it lands.
                            self.pending_ctrl.push((m.array, need, w));
                        }
                        if retransmit {
                            self.stats.redriven_bytes += m.bytes;
                        } else {
                            self.stats.send_bytes += m.bytes;
                            self.metrics
                                .record_movement(MovementKind::ControllerSend, m.bytes);
                        }
                    }
                    MovementKind::Staged => {
                        // P2P disabled: first hop pulls the bytes to the
                        // controller, the relay to `w` fires when they land.
                        let src = m.from.worker_index().expect("staged sources are workers");
                        self.transport
                            .send(
                                src,
                                CtrlMsg::Send {
                                    array: m.array,
                                    min_version: need,
                                    to: None,
                                },
                            )
                            .map_err(|_| LocalError::WorkerDied {
                                worker: src,
                                at_ce: Some(dag),
                            })?;
                        self.pending_ctrl.push((m.array, need, w));
                        if retransmit {
                            self.stats.redriven_bytes += 2 * m.bytes;
                        } else {
                            self.stats.fetch_bytes += m.bytes;
                            self.stats.send_bytes += m.bytes;
                            self.metrics.record_movement(MovementKind::Staged, m.bytes);
                        }
                    }
                }
                self.present[w].insert(m.array);
            }

            // Buffers the plan did not move (write-only outputs, or inputs
            // the coherence directory already places here) must still
            // physically exist in the worker's store before the kernel can
            // take them.
            for k in 0..self.pending[i].args.len() {
                let LocalArg::Buf(a) = self.pending[i].args[k] else {
                    continue;
                };
                if self.present[w].contains(&a) {
                    continue;
                }
                let bytes = self.array_size(a).unwrap_or(0);
                self.send_master_to(a, w).map_err(|e| match e {
                    LocalError::WorkerDied { worker, .. } => LocalError::WorkerDied {
                        worker,
                        at_ce: Some(dag),
                    },
                    other => other,
                })?;
                if retransmit {
                    self.stats.redriven_bytes += bytes;
                } else {
                    self.stats.send_bytes += bytes;
                }
            }
        }

        let kernel = Arc::clone(&self.pending[i].kernel);
        let kernel_id = self.ensure_loaded(w, &kernel, dag)?;
        let p = &self.pending[i];
        let msg = ExecSpec {
            dag_index: dag,
            kernel: kernel_id,
            grid: p.grid,
            block: p.block,
            args: p.args.clone(),
            needs: p.needs.clone(),
            bumps: p.bumps.clone(),
            fault,
        };
        self.transport
            .send(w, CtrlMsg::Exec(msg))
            .map_err(|_| LocalError::WorkerDied {
                worker: w,
                at_ce: Some(dag),
            })?;
        if !retransmit {
            self.stats.kernels += 1;
        }
        self.pending[i].dispatched = true;
        Ok(())
    }

    /// Ensures the controller master copy is current. When it is not, this
    /// plans a host-read CE through the shared core (mirroring
    /// [`crate::SimRuntime::host_read`]) and executes its movement.
    fn fetch_to_controller(&mut self, array: ArrayId) -> Result<(), LocalError> {
        if !self.master.contains_key(&array) {
            return Err(LocalError::UnknownArray(array));
        }
        self.synchronize()?;
        if self
            .planner
            .coherence()
            .up_to_date_on(array, Location::CONTROLLER)
        {
            return Ok(());
        }
        let bytes = self.array_size(array).unwrap_or(0);
        let ce = Ce {
            id: CeId(self.planner.dag().len() as u64),
            kind: CeKind::HostRead,
            args: vec![CeArg::read(array, bytes)],
        };
        let plan = self.plan_with_span(&ce)?;
        let min_version = self.versions.get(&array).copied().unwrap_or(0);
        for m in &plan.movements {
            let Some(holder) = m.from.worker_index() else {
                continue;
            };
            if self
                .transport
                .send(
                    holder,
                    CtrlMsg::Send {
                        array: m.array,
                        min_version,
                        to: None,
                    },
                )
                .is_err()
            {
                // The holder died before the fetch: recover (lineage replay
                // rebuilds the bytes on the controller) instead of erroring.
                self.recover_from_death(holder, None)?;
                if self.master_versions.get(&array).copied().unwrap_or(0) < min_version {
                    let (version, buf) = self.controller_buf(array, min_version)?;
                    self.install_master(array, version, buf);
                }
                continue;
            }
            let timeout =
                Duration::from_nanos(self.cfg.planner.fault_cfg.detection_timeout.as_nanos());
            // Wait for the bytes (completions for other CEs may interleave).
            loop {
                match self.transport.recv_timeout(timeout) {
                    Ok(WorkerMsg::Data {
                        array: a,
                        version,
                        buf,
                    }) => {
                        let landed = buf.bytes();
                        self.install_master(a, version, buf);
                        self.flush_pending_ctrl_recovering()?;
                        if a == array {
                            self.stats.fetch_bytes += landed;
                            break;
                        }
                    }
                    Ok(WorkerMsg::Done {
                        dag_index,
                        worker,
                        elapsed_ns,
                    }) => {
                        self.on_done(dag_index, worker, elapsed_ns);
                    }
                    Ok(WorkerMsg::Failed {
                        error: Some(error), ..
                    }) => {
                        return Err(LocalError::Launch(error));
                    }
                    Ok(WorkerMsg::Telemetry {
                        worker,
                        backlog,
                        counters,
                        spans,
                        ..
                    }) => {
                        self.merge_worker_telemetry(worker, backlog, counters, spans);
                    }
                    // Transient failures cannot arrive here (synchronize
                    // returned with nothing in flight); liveness/probe
                    // traffic is transport-internal. Ignore defensively.
                    Ok(_) => {}
                    Err(TransportRecvError::Timeout) => {
                        let newly_dead = self.probe_dead();
                        if newly_dead.is_empty() {
                            continue;
                        }
                        for d in newly_dead {
                            self.recover_from_death(d, None)?;
                        }
                        if self.master_versions.get(&array).copied().unwrap_or(0) < min_version {
                            let (version, buf) = self.controller_buf(array, min_version)?;
                            self.install_master(array, version, buf);
                        }
                        break;
                    }
                    Err(TransportRecvError::Disconnected) => {
                        return Err(LocalError::NoHealthyWorkers)
                    }
                }
            }
        }
        self.planner.mark_completed(plan.dag_index);
        self.trace.record(&plan);
        Ok(())
    }

    // ---- failure detection & recovery ----------------------------------

    /// Probes every supposedly-live worker through the transport (join
    /// handle in-process, socket + heartbeat freshness over TCP); returns
    /// the indices that are actually gone (newly dead).
    ///
    /// This is where the suspect-then-dead state machine advances: a
    /// [`Liveness::Suspect`] report (a stale or severed TCP connection
    /// still inside its reconnect window) sidelines the worker for *new*
    /// CE placement without quarantining it — if the session resumes, the
    /// worker is reinstated and the omission was invisible to recovery;
    /// only [`Liveness::Dead`] (window expired, thread exited, clean
    /// leave) triggers quarantine + lineage replay.
    fn probe_dead(&mut self) -> Vec<usize> {
        let mut dead = Vec::new();
        for i in 0..self.transport.workers() {
            if !self.detector.is_alive(i) {
                continue;
            }
            match self.transport.liveness(i) {
                Liveness::Alive => {
                    if self.detector.reinstate(i) {
                        self.planner.reinstate(i);
                        self.note_event(SchedEvent::Reinstated {
                            worker: i,
                            epoch: self.detector.epoch(),
                        });
                    }
                }
                Liveness::Suspect => {
                    if self.detector.mark_suspected(i) {
                        self.planner.suspect(i);
                        self.note_event(SchedEvent::Suspected {
                            worker: i,
                            epoch: self.detector.epoch(),
                        });
                    }
                }
                Liveness::Dead => dead.push(i),
            }
        }
        dead
    }

    /// A receive timed out: either somebody died (recover), or a dropped
    /// transfer wedged a CE (re-drive its inputs from the controller).
    fn on_timeout(&mut self) -> Result<(), LocalError> {
        let dead = self.probe_dead();
        if dead.is_empty() {
            if !self.wedged.is_empty() {
                self.redrive_wedged()?;
            }
            return Ok(());
        }
        for d in dead {
            self.recover_from_death(d, None)?;
        }
        Ok(())
    }

    /// Supplies every input of the CEs wedged by a dropped transfer
    /// directly from the controller's reconstructed state.
    fn redrive_wedged(&mut self) -> Result<(), LocalError> {
        let mut stuck: Vec<DagIndex> = self.wedged.drain().collect();
        stuck.sort_unstable();
        for dag in stuck {
            if self.planner.dag().is_completed(dag) {
                continue;
            }
            let Some(idx) = self
                .pending
                .iter()
                .position(|p| p.plan.dag_index == dag && p.dispatched)
            else {
                continue;
            };
            let w = self.pending[idx]
                .plan
                .assigned_node
                .worker_index()
                .expect("kernel plans target workers");
            let needs = self.pending[idx].needs.clone();
            for (a, need) in needs {
                let (version, buf) = self.controller_buf(a, need)?;
                let bytes = buf.bytes();
                self.transport
                    .send(
                        w,
                        CtrlMsg::Data {
                            array: a,
                            version,
                            buf,
                        },
                    )
                    .map_err(|_| LocalError::WorkerDied {
                        worker: w,
                        at_ce: Some(dag),
                    })?;
                self.stats.redriven_bytes += bytes;
                self.present[w].insert(a);
            }
            self.note_event(SchedEvent::TransferRedriven { at_ce: dag });
        }
        Ok(())
    }

    /// A worker reported an injected transient launch failure: retry with
    /// exponential backoff, then treat the node as bad and recover.
    fn handle_transient_failure(&mut self, dag: DagIndex, worker: usize) -> Result<(), LocalError> {
        let attempt = {
            let a = self.attempts.entry(dag).or_insert(0);
            *a += 1;
            *a
        };
        let fc = self.cfg.planner.fault_cfg;
        let backoff = SimDuration::exp_backoff(fc.backoff_base, attempt, fc.backoff_cap);
        self.note_event(SchedEvent::Retry {
            at_ce: dag,
            worker,
            attempt,
            backoff,
        });
        if attempt > fc.max_retries {
            // Persistent failure: the retry budget is spent, move the work
            // off the node (recover_from_death shuts the thread down).
            self.spent.insert(dag);
            return self.recover_from_death(worker, Some(dag));
        }
        std::thread::sleep(Duration::from_nanos(backoff.as_nanos()));
        if let Some(p) = self.pending.iter_mut().find(|p| p.plan.dag_index == dag) {
            p.dispatched = false;
        }
        Ok(())
    }

    /// Lowest dispatched-but-incomplete CE assigned to worker `d` (the CE
    /// reported in errors and fault events when the exact victim is not
    /// known from the failing channel operation itself).
    fn lowest_incomplete_on(&self, d: usize) -> Option<DagIndex> {
        self.pending
            .iter()
            .filter(|p| {
                p.dispatched
                    && !self.planner.dag().is_completed(p.plan.dag_index)
                    && p.plan.assigned_node == Location::worker(d)
            })
            .map(|p| p.plan.dag_index)
            .min()
    }

    /// Full recovery from the death of worker `d`: quarantine it in the
    /// shared core, reconstruct orphaned array versions on the controller
    /// by lineage replay, reassign its in-flight CEs to healthy workers,
    /// and re-drive the inputs of every still-waiting CE.
    fn recover_from_death(&mut self, d: usize, at_ce: Option<DagIndex>) -> Result<(), LocalError> {
        if !self.detector.is_alive(d) {
            return Ok(()); // already handled
        }
        let fail_ce = at_ce.or_else(|| self.lowest_incomplete_on(d));
        if !self.cfg.planner.fault_cfg.recovery {
            return Err(LocalError::WorkerDied {
                worker: d,
                at_ce: fail_ce,
            });
        }
        let epoch = self.detector.mark_dead(d);
        self.note_event(SchedEvent::Fault {
            at_ce: fail_ce.unwrap_or(0),
            worker: Some(d),
            kind: "kill-worker",
            epoch,
        });
        // Make sure the endpoint is gone: on a persistent-transient failure
        // the worker is alive but condemned, on a crash this is a no-op.
        self.transport.shutdown(d);
        self.loaded[d].clear();
        // Work finished before the death may still sit in the channel;
        // drain it so recovery only replans what truly died.
        while let Some(m) = self.transport.try_recv() {
            match m {
                WorkerMsg::Done {
                    dag_index,
                    worker,
                    elapsed_ns,
                } => {
                    self.on_done(dag_index, worker, elapsed_ns);
                }
                WorkerMsg::Data {
                    array,
                    version,
                    buf,
                } => {
                    self.install_master(array, version, buf);
                }
                WorkerMsg::Failed {
                    dag_index,
                    error: None,
                    ..
                } => {
                    // Re-dispatch after recovery; count the attempt so the
                    // injection schedule advances.
                    *self.attempts.entry(dag_index).or_insert(0) += 1;
                    if let Some(p) = self
                        .pending
                        .iter_mut()
                        .find(|p| p.plan.dag_index == dag_index)
                    {
                        p.dispatched = false;
                    }
                }
                // The dead worker's last flushed batches survive the
                // quarantine: its pre-death spans still reach the merged
                // trace (the chaos harness asserts exactly this).
                WorkerMsg::Telemetry {
                    worker,
                    backlog,
                    counters,
                    spans,
                    ..
                } => {
                    self.merge_worker_telemetry(worker, backlog, counters, spans);
                }
                // A deterministic launch error will recur when the CE is
                // re-executed and surface then; liveness/probe traffic is
                // transport-internal.
                _ => {}
            }
        }
        // Quarantine + replan the in-flight frontier through the shared
        // scheduling core.
        let incomplete: Vec<DagIndex> = self
            .pending
            .iter()
            .filter(|p| !self.planner.dag().is_completed(p.plan.dag_index))
            .map(|p| p.plan.dag_index)
            .collect();
        let rec = self.planner.recover(d, &incomplete).map_err(|e| match e {
            PlanError::NoHealthyWorkers => LocalError::NoHealthyWorkers,
            other => LocalError::Plan(other),
        })?;
        self.note_event(SchedEvent::Quarantine {
            worker: d,
            at_ce: fail_ce.unwrap_or(0),
            lost: rec.lost.clone(),
            epoch,
        });
        // Reconstruct every orphaned array at its newest completed version
        // and promote the result to the controller master copy (the
        // planner already recorded the controller as holder of record).
        let targets: Vec<(ArrayId, u64)> = rec
            .lost
            .iter()
            .map(|&a| (a, self.latest_completed_version(a)))
            .collect();
        self.reconstruct(&targets, epoch)?;
        for &(a, v) in &targets {
            if self.master_versions.get(&a).copied().unwrap_or(0) < v {
                let buf = self
                    .archive
                    .get(&(a, v))
                    .cloned()
                    .ok_or(LocalError::Unrecoverable {
                        array: a,
                        version: v,
                    })?;
                self.install_master(a, v, buf);
            }
        }
        // Apply the reassignments: the planned movements are void, the
        // controller will supply all inputs at retransmission.
        for r in &rec.reassigned {
            let Some(idx) = self
                .pending
                .iter()
                .position(|p| p.plan.dag_index == r.dag_index)
            else {
                continue;
            };
            let from = self.pending[idx]
                .plan
                .assigned_node
                .worker_index()
                .unwrap_or(usize::MAX);
            self.note_event(SchedEvent::Reassign {
                dag_index: r.dag_index,
                from,
                to: r.to.worker_index().unwrap_or(usize::MAX),
                epoch,
            });
            let p = &mut self.pending[idx];
            p.plan.assigned_node = r.to;
            p.plan.movements = r.movements.clone();
            p.dispatched = false;
            p.replanned = true;
        }
        // Undispatched CEs whose planned movements source from the dead
        // node can no longer execute their plan either.
        let dead_loc = Location::worker(d);
        for p in self.pending.iter_mut() {
            if !p.dispatched && p.plan.movements.iter().any(|m| m.from == dead_loc) {
                p.replanned = true;
            }
        }
        // Controller relays headed to the dead node are moot; nothing on
        // the node is present anymore.
        self.pending_ctrl.retain(|&(_, _, w)| w != d);
        self.present[d].clear();
        // Any still-dispatched CE on a live worker may be waiting on a
        // transfer the dead node will never make: supply its inputs
        // directly. (Its Exec message is already queued — only data was
        // lost — so no kernel runs twice.)
        let redrive: Vec<usize> = (0..self.pending.len())
            .filter(|&i| {
                self.pending[i].dispatched
                    && !self
                        .planner
                        .dag()
                        .is_completed(self.pending[i].plan.dag_index)
            })
            .collect();
        for i in redrive {
            let dag = self.pending[i].plan.dag_index;
            let w = self.pending[i]
                .plan
                .assigned_node
                .worker_index()
                .expect("kernel plans target workers");
            if !self.detector.is_alive(w) {
                continue;
            }
            let needs = self.pending[i].needs.clone();
            for (a, need) in needs {
                let (version, buf) = self.controller_buf(a, need)?;
                let bytes = buf.bytes();
                self.transport
                    .send(
                        w,
                        CtrlMsg::Data {
                            array: a,
                            version,
                            buf,
                        },
                    )
                    .map_err(|_| LocalError::WorkerDied {
                        worker: w,
                        at_ce: Some(dag),
                    })?;
                self.stats.redriven_bytes += bytes;
                self.present[w].insert(a);
            }
            self.note_event(SchedEvent::TransferRedriven { at_ce: dag });
        }
        self.flush_pending_ctrl()?;
        Ok(())
    }

    /// The newest version of `array` whose writer CE completed — the
    /// version a lost copy could actually have held.
    fn latest_completed_version(&self, array: ArrayId) -> u64 {
        let mut v = self.versions.get(&array).copied().unwrap_or(0);
        while v > 0 {
            match self.version_writer.get(&(array, v)) {
                Some(&w) if !self.planner.dag().is_completed(w) => v -= 1,
                _ => break,
            }
        }
        v
    }

    /// Replays the minimal completed-ancestor set needed to rebuild each
    /// `(array, version)` target on the controller. Kernels are host
    /// kernels, so re-execution is bit-identical to the original run.
    fn reconstruct(&mut self, targets: &[(ArrayId, u64)], epoch: u64) -> Result<(), LocalError> {
        let order = {
            let dag = self.planner.dag();
            let version_writer = &self.version_writer;
            let logged = &self.logged;
            let archive = &self.archive;
            let master_versions = &self.master_versions;
            replay_closure(
                targets,
                |a, v| {
                    version_writer
                        .get(&(a, v))
                        .map(|&w| (w, dag.is_completed(w)))
                },
                |w| logged.get(&w).map(|l| l.needs.clone()).unwrap_or_default(),
                |a, v| {
                    v == 0
                        || archive.contains_key(&(a, v))
                        || master_versions.get(&a).copied().unwrap_or(0) == v
                },
            )
            .map_err(|(array, version)| LocalError::Unrecoverable { array, version })?
        };
        for c in order {
            self.replay_on_controller(c)?;
            self.note_event(SchedEvent::Replay {
                dag_index: c,
                epoch,
            });
            self.stats.replays += 1;
        }
        Ok(())
    }

    /// Deterministically re-executes one completed kernel CE on the
    /// controller from exact-version inputs; outputs land in the archive
    /// (and the master copy, when newer than what the controller holds).
    fn replay_on_controller(&mut self, c: DagIndex) -> Result<(), LocalError> {
        let l = self
            .logged
            .get(&c)
            .cloned()
            .ok_or_else(|| LocalError::BadArgs(format!("no replay log for CE #{c}")))?;
        let mut inputs: Vec<(ArrayId, HostBuf)> = Vec::new();
        for arg in &l.args {
            if let LocalArg::Buf(a) = arg {
                let need = l
                    .needs
                    .iter()
                    .find(|(x, _)| x == a)
                    .map(|(_, v)| *v)
                    .unwrap_or(0);
                let buf = self.exact_version_buf(*a, need)?;
                inputs.push((*a, buf));
            }
        }
        let result = {
            let mut kargs: Vec<KernelArg<'_>> = Vec::with_capacity(l.args.len());
            let mut cursor = inputs.iter_mut();
            for arg in &l.args {
                match arg {
                    LocalArg::Buf(_) => {
                        let (_, buf) = cursor.next().expect("pushed in order");
                        kargs.push(match buf {
                            HostBuf::F32(v) => KernelArg::F32(v),
                            HostBuf::I32(v) => KernelArg::I32(v),
                        });
                    }
                    LocalArg::F32(v) => kargs.push(KernelArg::Float(*v)),
                    LocalArg::I32(v) => kargs.push(KernelArg::Int(*v)),
                }
            }
            l.kernel.launch2d(l.grid, l.block, &mut kargs)
        };
        result.map_err(|e| LocalError::LaunchAt(c, e))?;
        for (a, buf) in inputs {
            if let Some((_, v_out)) = l.bumps.iter().find(|(b, _)| *b == a) {
                self.archive.insert((a, *v_out), buf.clone());
                self.install_master(a, *v_out, buf);
            }
        }
        Ok(())
    }

    /// A buffer holding *exactly* version `need` of `array` — replay
    /// inputs must not see newer content. Version 0 is the allocation
    /// state (zeros by construction); write-only arguments pass `need` 0
    /// because their prior contents are fully overwritten (CUDA-style).
    fn exact_version_buf(&self, array: ArrayId, need: u64) -> Result<HostBuf, LocalError> {
        if let Some(buf) = self.archive.get(&(array, need)) {
            return Ok(buf.clone());
        }
        if need == 0 {
            let shape = self
                .shapes
                .get(&array)
                .copied()
                .ok_or(LocalError::UnknownArray(array))?;
            return Ok(shape.zeros());
        }
        if self.master_versions.get(&array).copied().unwrap_or(0) == need {
            return Ok(self
                .master
                .get(&array)
                .ok_or(LocalError::UnknownArray(array))?
                .clone());
        }
        Err(LocalError::Unrecoverable {
            array,
            version: need,
        })
    }

    /// A controller-side copy of `array` at version `>= need`, rebuilt via
    /// lineage replay when the live copy is stale. Always succeeds for
    /// dispatched CEs: readiness gating means every needed version has a
    /// completed (hence replayable) writer.
    fn controller_buf(&mut self, array: ArrayId, need: u64) -> Result<(u64, HostBuf), LocalError> {
        let mv = self.master_versions.get(&array).copied().unwrap_or(0);
        if mv >= need {
            return Ok((
                mv,
                self.master
                    .get(&array)
                    .ok_or(LocalError::UnknownArray(array))?
                    .clone(),
            ));
        }
        if let Some(buf) = self.archive.get(&(array, need)) {
            return Ok((need, buf.clone()));
        }
        let epoch = self.detector.epoch();
        self.reconstruct(&[(array, need)], epoch)?;
        if let Some(buf) = self.archive.get(&(array, need)) {
            return Ok((need, buf.clone()));
        }
        let mv = self.master_versions.get(&array).copied().unwrap_or(0);
        if mv >= need {
            return Ok((
                mv,
                self.master
                    .get(&array)
                    .ok_or(LocalError::UnknownArray(array))?
                    .clone(),
            ));
        }
        Err(LocalError::Unrecoverable {
            array,
            version: need,
        })
    }

    /// Failure injection: shuts a worker down immediately. Any CE later
    /// routed to it (or any transfer sourced from it) surfaces as
    /// [`LocalError::WorkerDied`] instead of hanging — the behaviour a
    /// deployment would see when a node drops out mid-run.
    pub fn kill_worker(&mut self, worker: usize) {
        self.transport.shutdown(worker);
    }

    /// Re-admits a quarantined worker under a new membership epoch.
    ///
    /// The transport re-establishes the endpoint first
    /// ([`Transport::reconnect`]: respawn the thread in-process, re-dial
    /// and re-handshake over TCP). On success the membership change flows
    /// through the op log as [`PlannerOp::Rejoin`] — journals, replays and
    /// the hot standby all see it — the failure detector bumps its epoch,
    /// and the links are re-probed so min-transfer-time prices the
    /// returned node again. The node re-enters empty: its coherence
    /// entries were purged at quarantine and purged again here, and the
    /// controller's present/loaded caches for it are cleared, so every
    /// input it needs is re-supplied and every kernel re-shipped.
    ///
    /// Returns `false` without state changes when the worker is not
    /// quarantined (nothing to rejoin) or the transport cannot bring the
    /// endpoint back.
    pub fn rejoin(&mut self, worker: usize) -> Result<bool, LocalError> {
        if worker >= self.transport.workers() {
            return Err(LocalError::BadArgs(format!(
                "worker {worker} out of range (0..{})",
                self.transport.workers()
            )));
        }
        if !self.planner.is_quarantined(worker) {
            return Ok(false);
        }
        if !self.transport.reconnect(worker) {
            return Ok(false);
        }
        let epoch = self.detector.rejoin(worker);
        self.planner.rejoin(worker);
        self.note_event(SchedEvent::Rejoined { worker, epoch });
        // The returning node holds nothing: drop every controller-side
        // assumption about its store and shipped kernels.
        self.present[worker].clear();
        self.loaded[worker].clear();
        self.saw_worker_telemetry[worker] = false;
        self.pending_ctrl.retain(|&(_, _, w)| w != worker);
        // Incremental link re-probe: the transport re-measures what it
        // can (TCP re-probes the rejoined endpoint's links); the updated
        // matrix travels through the op log like any other reprobe.
        if let Some(links) = self.transport.measured_links().cloned() {
            self.planner.reprobe_links(links);
        }
        // Fresh sessions start with recording off; re-arm it.
        if self.telemetry.enabled() {
            let _ = self
                .transport
                .send(worker, CtrlMsg::Observe { enabled: true });
        }
        Ok(true)
    }

    /// Attaches a brand-new worker to the running cluster (elastic
    /// scale-out) and returns the index it was assigned.
    ///
    /// The transport admits the endpoint first ([`Transport::join`]: spawn
    /// a thread in-process, dial/handshake/register over TCP). The
    /// membership growth then flows through the op log as
    /// [`PlannerOp::Join`] — journals, replays and the hot standby all see
    /// the worker set grow — and the links touching the newcomer are
    /// re-probed incrementally (the conservative padding the scheduler
    /// starts from never prices a CE: the re-probe lands before the next
    /// plan). The newcomer starts empty and receives inputs and kernels
    /// on demand exactly like a rejoined node.
    pub fn join_worker(&mut self, addr: &str) -> Result<usize, LocalError> {
        // Quiesce in-flight work: frozen plan assignments must not race a
        // membership change.
        self.synchronize()?;
        let w = self.transport.join(addr).map_err(LocalError::Membership)?;
        let n = w + 1;
        self.cfg.planner.workers = n;
        self.present.resize_with(n, HashSet::new);
        self.loaded.resize_with(n, HashSet::new);
        self.saw_worker_telemetry.resize(n, false);
        self.detector.grow(n);
        self.metrics.grow_workers(n);
        self.planner.join(w);
        self.note_event(SchedEvent::Joined {
            worker: w,
            epoch: self.detector.epoch(),
        });
        // Incremental link probe: measure only the newcomer's links and
        // ship the merged matrix through the op log like any reprobe.
        if let Some(links) = self.transport.probe_joined(w) {
            self.planner.reprobe_links(links.clone());
            self.metrics
                .set_bandwidth("measured", self.transport.kind(), &links);
        }
        if self.telemetry.enabled() {
            let _ = self.transport.send(w, CtrlMsg::Observe { enabled: true });
        }
        Ok(w)
    }

    /// Detaches worker `w` cleanly (elastic scale-in): the anti-entropy
    /// counterpart of a crash.
    ///
    /// Every array whose only up-to-date copy lives on `w` is fetched to
    /// the controller *before* the membership change commits, so the
    /// departure loses nothing: no quarantine, no lineage replay — the
    /// directory entries are rebalanced instead. The worker is asked to
    /// flush and halt ([`CtrlMsg::Leave`]), its ack awaited, and the
    /// change recorded as [`PlannerOp::Leave`] so journals, replays and
    /// the hot standby see it. Departed indices are never reused.
    pub fn leave_worker(&mut self, w: usize) -> Result<(), LocalError> {
        if w >= self.transport.workers() {
            return Err(LocalError::Membership(format!(
                "worker {w} out of range (0..{})",
                self.transport.workers()
            )));
        }
        if self.planner.is_departed(w) {
            return Ok(()); // idempotent
        }
        if self.planner.healthy_workers() <= 1 {
            return Err(LocalError::NoHealthyWorkers);
        }
        self.synchronize()?;
        // Rebalance: pull every sole-copy array onto the controller while
        // the departing worker can still serve it.
        let sole: Vec<ArrayId> = self
            .planner
            .coherence()
            .arrays()
            .into_iter()
            .filter(|&a| {
                let holders = self.planner.coherence().holders(a);
                !holders.is_empty() && holders.iter().all(|&h| h == Location::worker(w))
            })
            .collect();
        let rebalanced = sole.len();
        for a in sole {
            self.fetch_to_controller(a)?;
        }
        // From here the ack must not be mistaken for a death.
        self.expected_leave.insert(w);
        let acked = if self.transport.send(w, CtrlMsg::Leave).is_ok() {
            self.await_leave_ack(w)
        } else {
            false // endpoint already gone; its state is safe regardless
        };
        if !acked {
            // No clean ack — force the teardown; the data was already
            // rebalanced, so this still is not a recovery.
            self.transport.shutdown(w);
        }
        self.planner.leave(w).map_err(LocalError::Plan)?;
        self.detector.mark_dead(w);
        self.note_event(SchedEvent::Departed {
            worker: w,
            rebalanced,
            epoch: self.detector.epoch(),
        });
        self.present[w].clear();
        self.loaded[w].clear();
        self.saw_worker_telemetry[w] = false;
        self.pending_ctrl.retain(|&(_, _, dst)| dst != w);
        self.expected_leave.remove(&w);
        self.transport.shutdown(w);
        Ok(())
    }

    /// Waits briefly for the departing worker's [`WorkerMsg::Leave`] ack,
    /// merging unrelated stragglers (telemetry, late data) as usual.
    fn await_leave_ack(&mut self, w: usize) -> bool {
        let deadline = std::time::Instant::now()
            + Duration::from_nanos(self.cfg.planner.fault_cfg.detection_timeout.as_nanos());
        loop {
            let left = deadline.saturating_duration_since(std::time::Instant::now());
            if left.is_zero() {
                return false;
            }
            match self.transport.recv_timeout(left) {
                Ok(WorkerMsg::Leave { worker }) if worker == w => return true,
                Ok(WorkerMsg::Telemetry {
                    worker,
                    backlog,
                    counters,
                    spans,
                    ..
                }) => {
                    self.merge_worker_telemetry(worker, backlog, counters, spans);
                }
                Ok(WorkerMsg::Data {
                    array,
                    version,
                    buf,
                }) => {
                    self.install_master(array, version, buf);
                }
                Ok(_) => {}
                Err(_) => return false,
            }
        }
    }

    /// The link-bandwidth matrix the planner prices transfers with:
    /// measured by the transport when available (TCP probe round),
    /// uniform otherwise.
    pub fn link_matrix(&self) -> Option<&LinkMatrix> {
        self.planner.links()
    }

    /// The transport label (`"channel"` in-process, `"tcp"` distributed).
    pub fn transport_kind(&self) -> &'static str {
        self.transport.kind()
    }

    /// Execution statistics so far.
    pub fn stats(&self) -> LocalStats {
        self.stats
    }

    /// Where the planner currently places CE `i` (updated by recovery).
    pub fn node_assignment(&self, i: DagIndex) -> Option<Location> {
        self.planner.assignment(i)
    }

    /// Whether worker `w` has been quarantined (dead or never spawned).
    pub fn is_quarantined(&self, w: usize) -> bool {
        self.planner.is_quarantined(w)
    }

    /// Number of workers still accepting assignments.
    pub fn healthy_workers(&self) -> usize {
        self.planner.healthy_workers()
    }

    /// The current membership epoch (bumps once per confirmed failure).
    pub fn epoch(&self) -> u64 {
        self.detector.epoch()
    }

    /// The Global DAG (read-only).
    pub fn dag(&self) -> &DepDag {
        self.planner.dag()
    }

    /// The coherence directory (read-only).
    pub fn coherence(&self) -> &Coherence {
        self.planner.coherence()
    }

    /// The trace of planned CEs (ring buffer, oldest first).
    pub fn sched_trace(&self) -> &SchedTrace {
        &self.trace
    }

    /// Installs a callback invoked for every planned CE.
    pub fn set_sched_observer(&mut self, observer: PlanObserver) {
        self.trace.set_observer(observer);
    }
}

impl crate::Observability for LocalRuntime {
    type Stats = LocalStats;

    fn sched_trace(&self) -> &SchedTrace {
        &self.trace
    }

    fn stats(&self) -> LocalStats {
        self.stats
    }

    fn metrics(&self) -> &Metrics {
        &self.metrics
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kernelc::compile_one;

    const SAXPY: &str = "__global__ void saxpy(float* y, const float* x, float a, int n) {
        int i = blockIdx.x * blockDim.x + threadIdx.x;
        if (i < n) { y[i] = a * x[i] + y[i]; }
    }";

    fn rt(workers: usize) -> LocalRuntime {
        LocalRuntime::try_new(LocalConfig::new(workers, PolicyKind::RoundRobin)).expect("startup")
    }

    #[test]
    fn saxpy_end_to_end() {
        let mut rt = rt(2);
        let n = 10_000usize;
        let y = rt.alloc_f32(n);
        let x = rt.alloc_f32(n);
        rt.write_f32(y, |v| v.iter_mut().for_each(|e| *e = 1.0))
            .unwrap();
        rt.write_f32(x, |v| {
            v.iter_mut().enumerate().for_each(|(i, e)| *e = i as f32)
        })
        .unwrap();
        let k = Arc::new(compile_one(SAXPY, "saxpy").unwrap());
        rt.launch(
            &k,
            64,
            256,
            vec![
                LocalArg::Buf(y),
                LocalArg::Buf(x),
                LocalArg::F32(3.0),
                LocalArg::I32(n as i32),
            ],
        )
        .unwrap();
        let out = rt.read_f32(y).unwrap();
        assert_eq!(out[10], 31.0);
        assert_eq!(out[9999], 3.0 * 9999.0 + 1.0);
        assert_eq!(rt.stats().kernels, 1);
    }

    #[test]
    fn dependent_kernels_run_in_order() {
        let mut rt = rt(2);
        let n = 1024usize;
        let a = rt.alloc_f32(n);
        let k_inc = Arc::new(
            compile_one(
                "__global__ void inc(float* a, int n) {
                    int i = blockIdx.x * blockDim.x + threadIdx.x;
                    if (i < n) { a[i] = a[i] + 1.0; }
                }",
                "inc",
            )
            .unwrap(),
        );
        // Ten dependent increments must serialize even across two workers.
        for _ in 0..10 {
            rt.launch(
                &k_inc,
                4,
                256,
                vec![LocalArg::Buf(a), LocalArg::I32(n as i32)],
            )
            .unwrap();
        }
        let out = rt.read_f32(a).unwrap();
        assert!(out.iter().all(|&v| v == 10.0), "got {}", out[0]);
    }

    #[test]
    fn independent_kernels_spread_across_workers() {
        let mut rt = rt(2);
        let n = 1 << 16;
        let a = rt.alloc_f32(n);
        let b = rt.alloc_f32(n);
        let k = Arc::new(
            compile_one(
                "__global__ void fill(float* a, float v, int n) {
                    int i = blockIdx.x * blockDim.x + threadIdx.x;
                    if (i < n) { a[i] = v; }
                }",
                "fill",
            )
            .unwrap(),
        );
        rt.launch(
            &k,
            256,
            256,
            vec![
                LocalArg::Buf(a),
                LocalArg::F32(5.0),
                LocalArg::I32(n as i32),
            ],
        )
        .unwrap();
        rt.launch(
            &k,
            256,
            256,
            vec![
                LocalArg::Buf(b),
                LocalArg::F32(7.0),
                LocalArg::I32(n as i32),
            ],
        )
        .unwrap();
        assert_eq!(rt.read_f32(a).unwrap()[123], 5.0);
        assert_eq!(rt.read_f32(b).unwrap()[456], 7.0);
    }

    #[test]
    fn p2p_moves_data_between_workers() {
        // Producer on worker 0 (round-robin), consumer lands on worker 1;
        // the array must travel P2P.
        let mut rt = rt(2);
        let n = 4096usize;
        let a = rt.alloc_f32(n);
        let b = rt.alloc_f32(n);
        let fill = Arc::new(
            compile_one(
                "__global__ void fill(float* a, int n) {
                    int i = blockIdx.x * blockDim.x + threadIdx.x;
                    if (i < n) { a[i] = 2.0; }
                }",
                "fill",
            )
            .unwrap(),
        );
        let copy = Arc::new(
            compile_one(
                "__global__ void copy(float* dst, const float* src, int n) {
                    int i = blockIdx.x * blockDim.x + threadIdx.x;
                    if (i < n) { dst[i] = src[i]; }
                }",
                "copy",
            )
            .unwrap(),
        );
        rt.launch(
            &fill,
            16,
            256,
            vec![LocalArg::Buf(a), LocalArg::I32(n as i32)],
        )
        .unwrap();
        let _ = b;
        let c = rt.alloc_f32(n);
        // Round-robin sends the consumer to worker 1; `a` travels P2P.
        rt.launch(
            &copy,
            16,
            256,
            vec![LocalArg::Buf(c), LocalArg::Buf(a), LocalArg::I32(n as i32)],
        )
        .unwrap();
        rt.synchronize().unwrap();
        assert_eq!(rt.read_f32(c).unwrap()[0], 2.0);
        assert!(rt.stats().p2p_bytes > 0, "stats: {:?}", rt.stats());
    }

    #[test]
    fn launch_errors_surface() {
        let mut rt = rt(1);
        let a = rt.alloc_f32(4);
        let k = Arc::new(
            compile_one(
                "__global__ void oob(float* a) { a[blockIdx.x * blockDim.x + threadIdx.x] = 1.0; }",
                "oob",
            )
            .unwrap(),
        );
        rt.launch(&k, 8, 8, vec![LocalArg::Buf(a)]).unwrap();
        let err = rt.synchronize().unwrap_err();
        assert!(matches!(
            err,
            LocalError::Launch(LaunchError::OutOfBounds { .. })
                | LocalError::LaunchAt(_, LaunchError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn aliasing_rejected() {
        let mut rt = rt(1);
        let a = rt.alloc_f32(8);
        let k = Arc::new(
            compile_one(
                "__global__ void two(float* x, const float* y, int n) {
                    int i = threadIdx.x;
                    if (i < n) { x[i] = y[i]; }
                }",
                "two",
            )
            .unwrap(),
        );
        let err = rt
            .launch(
                &k,
                1,
                8,
                vec![LocalArg::Buf(a), LocalArg::Buf(a), LocalArg::I32(8)],
            )
            .unwrap_err();
        assert!(matches!(err, LocalError::Aliased(_)));
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut rt = rt(1);
        let k = Arc::new(compile_one(SAXPY, "saxpy").unwrap());
        assert!(matches!(
            rt.launch(&k, 1, 1, vec![LocalArg::I32(0)]),
            Err(LocalError::BadArgs(_))
        ));
    }

    fn inc_kernel() -> Arc<CompiledKernel> {
        Arc::new(
            compile_one(
                "__global__ void inc(float* a, int n) {
                    int i = blockIdx.x * blockDim.x + threadIdx.x;
                    if (i < n) { a[i] = a[i] + 1.0; }
                }",
                "inc",
            )
            .unwrap(),
        )
    }

    fn quarantined_worker(rt: &LocalRuntime) -> Option<usize> {
        rt.sched_trace().events().iter().find_map(|e| match e {
            SchedEvent::Quarantine { worker, .. } => Some(*worker),
            _ => None,
        })
    }

    #[test]
    fn killed_worker_surfaces_as_error_not_hang() {
        // Recovery disabled: the pre-failover contract — death surfaces as
        // an error naming the actual dead worker, never a hang.
        let mut cfg = LocalConfig::new(2, PolicyKind::RoundRobin);
        cfg.planner.fault_cfg.recovery = false;
        let mut rt = LocalRuntime::try_new(cfg).expect("startup");
        let a = rt.alloc_f32(256);
        let k = inc_kernel();
        rt.kill_worker(0);
        // Round-robin will try worker 0 first; the dead channel must turn
        // into an error rather than a lost message.
        let mut died = false;
        for _ in 0..2 {
            rt.launch(&k, 1, 256, vec![LocalArg::Buf(a), LocalArg::I32(256)])
                .unwrap();
            match rt.synchronize() {
                Err(LocalError::WorkerDied { worker, at_ce }) => {
                    assert_eq!(worker, 0, "the real dead worker is reported");
                    assert!(at_ce.is_some(), "the in-flight CE is reported");
                    died = true;
                    break;
                }
                other => other.unwrap(),
            }
        }
        assert!(died, "worker death must surface");
    }

    #[test]
    fn recovery_survives_a_killed_worker() {
        let mut rt = rt(2);
        let a = rt.alloc_f32(256);
        let k = inc_kernel();
        for _ in 0..3 {
            rt.launch(&k, 1, 256, vec![LocalArg::Buf(a), LocalArg::I32(256)])
                .unwrap();
        }
        rt.synchronize().unwrap();
        rt.kill_worker(0);
        for _ in 0..3 {
            rt.launch(&k, 1, 256, vec![LocalArg::Buf(a), LocalArg::I32(256)])
                .unwrap();
        }
        let out = rt.read_f32(a).unwrap();
        assert!(out.iter().all(|&v| v == 6.0), "got {}", out[0]);
        assert!(rt.is_quarantined(0));
        assert_eq!(rt.healthy_workers(), 1);
        assert_eq!(quarantined_worker(&rt), Some(0));
        assert_eq!(rt.epoch(), 1);
    }

    #[test]
    fn injected_kill_matches_fault_free_run() {
        let run = |faults: crate::faults::FaultPlan| {
            let mut cfg = LocalConfig::new(2, PolicyKind::RoundRobin);
            cfg.planner.faults = faults;
            let mut rt = LocalRuntime::try_new(cfg).expect("startup");
            let a = rt.alloc_f32(512);
            let k = inc_kernel();
            for _ in 0..6 {
                rt.launch(&k, 2, 256, vec![LocalArg::Buf(a), LocalArg::I32(512)])
                    .unwrap();
            }
            let out = rt.read_f32(a).unwrap();
            (out, rt)
        };
        let (clean, _) = run(crate::faults::FaultPlan::none());
        let (faulty, rt) = run(crate::faults::FaultPlan::kill_at_ce(3));
        assert_eq!(clean, faulty, "recovery must be bit-identical");
        let dead = quarantined_worker(&rt).expect("a quarantine was recorded");
        let events = rt.sched_trace().events();
        assert!(events
            .iter()
            .any(|e| matches!(e, SchedEvent::Fault { at_ce: 3, .. })));
        assert!(
            events
                .iter()
                .any(|e| matches!(e, SchedEvent::Replay { .. })),
            "lost versions were rebuilt by lineage replay: {events:?}"
        );
        assert!(rt.stats().replays > 0);
        // Degraded mode: every post-fault kernel avoids the dead node.
        for i in 4..6 {
            assert_ne!(
                rt.node_assignment(i),
                Some(Location::worker(dead)),
                "CE {i} must avoid the quarantined worker"
            );
        }
    }

    #[test]
    fn transient_failures_retry_then_succeed() {
        let mut cfg = LocalConfig::new(2, PolicyKind::RoundRobin);
        cfg.planner.faults =
            crate::faults::FaultPlan::with_events(vec![crate::faults::FaultEvent {
                at_ce: 0,
                kind: crate::faults::FaultKind::FailLaunch { times: 2 },
            }]);
        let mut rt = LocalRuntime::try_new(cfg).expect("startup");
        let a = rt.alloc_f32(128);
        let k = inc_kernel();
        rt.launch(&k, 1, 128, vec![LocalArg::Buf(a), LocalArg::I32(128)])
            .unwrap();
        let out = rt.read_f32(a).unwrap();
        assert!(out.iter().all(|&v| v == 1.0));
        let retries = rt
            .sched_trace()
            .events()
            .iter()
            .filter(|e| matches!(e, SchedEvent::Retry { at_ce: 0, .. }))
            .count();
        assert_eq!(retries, 2, "one Retry event per injected failure");
        assert!(quarantined_worker(&rt).is_none(), "no quarantine needed");
        assert_eq!(rt.stats().kernels, 1, "retries are not new kernels");
    }

    #[test]
    fn persistent_transient_failure_quarantines_the_node() {
        let mut cfg = LocalConfig::new(2, PolicyKind::RoundRobin);
        cfg.planner.faults =
            crate::faults::FaultPlan::with_events(vec![crate::faults::FaultEvent {
                at_ce: 0,
                kind: crate::faults::FaultKind::FailLaunch { times: 10 },
            }]);
        let mut rt = LocalRuntime::try_new(cfg).expect("startup");
        let a = rt.alloc_f32(128);
        let k = inc_kernel();
        rt.launch(&k, 1, 128, vec![LocalArg::Buf(a), LocalArg::I32(128)])
            .unwrap();
        let out = rt.read_f32(a).unwrap();
        assert!(out.iter().all(|&v| v == 1.0));
        let dead = quarantined_worker(&rt).expect("retry budget exhausted => quarantine");
        assert!(rt.is_quarantined(dead));
        assert!(
            rt.sched_trace()
                .events()
                .iter()
                .any(|e| matches!(e, SchedEvent::Reassign { dag_index: 0, .. })),
            "the failing CE moved to a healthy worker"
        );
    }

    #[test]
    fn dropped_transfer_is_redriven_after_timeout() {
        let mut cfg = LocalConfig::new(2, PolicyKind::RoundRobin);
        cfg.planner.faults =
            crate::faults::FaultPlan::with_events(vec![crate::faults::FaultEvent {
                at_ce: 1,
                kind: crate::faults::FaultKind::DropTransfer,
            }]);
        cfg.planner.fault_cfg.detection_timeout = SimDuration::from_millis(30);
        let mut rt = LocalRuntime::try_new(cfg).expect("startup");
        let a = rt.alloc_f32(128);
        rt.write_f32(a, |v| v.iter_mut().for_each(|e| *e = 1.0))
            .unwrap();
        let k = inc_kernel();
        rt.launch(&k, 1, 128, vec![LocalArg::Buf(a), LocalArg::I32(128)])
            .unwrap();
        let out = rt.read_f32(a).unwrap();
        assert!(out.iter().all(|&v| v == 2.0));
        let events = rt.sched_trace().events();
        assert!(events
            .iter()
            .any(|e| matches!(e, SchedEvent::TransferDropped { at_ce: 1, .. })));
        assert!(events
            .iter()
            .any(|e| matches!(e, SchedEvent::TransferRedriven { at_ce: 1 })));
        assert!(rt.stats().redriven_bytes > 0);
    }

    #[test]
    fn delayed_transfer_is_recorded_and_completes() {
        let mut cfg = LocalConfig::new(2, PolicyKind::RoundRobin);
        cfg.planner.faults =
            crate::faults::FaultPlan::with_events(vec![crate::faults::FaultEvent {
                at_ce: 1,
                kind: crate::faults::FaultKind::DelayTransfer {
                    delay: SimDuration::from_millis(2),
                },
            }]);
        let mut rt = LocalRuntime::try_new(cfg).expect("startup");
        let a = rt.alloc_f32(64);
        rt.write_f32(a, |v| v.iter_mut().for_each(|e| *e = 1.0))
            .unwrap();
        let k = inc_kernel();
        rt.launch(&k, 1, 64, vec![LocalArg::Buf(a), LocalArg::I32(64)])
            .unwrap();
        let out = rt.read_f32(a).unwrap();
        assert!(out.iter().all(|&v| v == 2.0));
        assert!(rt
            .sched_trace()
            .events()
            .iter()
            .any(|e| matches!(e, SchedEvent::TransferDelayed { at_ce: 1, .. })));
    }

    #[test]
    fn spawn_failure_degrades_instead_of_panicking() {
        let cfg = LocalConfig::new(2, PolicyKind::RoundRobin);
        let transport = ChannelTransport::with_spawner(2, |i, rx, back, peers| {
            if i == 0 {
                Err(std::io::Error::other("no threads left"))
            } else {
                std::thread::Builder::new()
                    .spawn(move || crate::transport::run_worker(i, rx, back, peers))
            }
        });
        let mut rt = LocalRuntime::with_transport(cfg, Box::new(transport)).unwrap();
        assert!(rt.is_quarantined(0));
        assert_eq!(rt.healthy_workers(), 1);
        assert!(rt
            .sched_trace()
            .events()
            .iter()
            .any(|e| matches!(e, SchedEvent::SpawnFailed { worker: 0 })));
        let a = rt.alloc_f32(64);
        let k = inc_kernel();
        rt.launch(&k, 1, 64, vec![LocalArg::Buf(a), LocalArg::I32(64)])
            .unwrap();
        let out = rt.read_f32(a).unwrap();
        assert!(out.iter().all(|&v| v == 1.0));
        assert_eq!(rt.node_assignment(0), Some(Location::worker(1)));
    }

    #[test]
    fn all_spawns_failing_is_an_error() {
        let cfg = LocalConfig::new(2, PolicyKind::RoundRobin);
        let transport = ChannelTransport::with_spawner(2, |_, _, _, _| {
            Err(std::io::Error::other("no threads left"))
        });
        let result = LocalRuntime::with_transport(cfg, Box::new(transport));
        assert!(matches!(
            result.err(),
            Some(LocalError::SpawnFailed { worker: 0, .. })
        ));
    }

    #[test]
    fn min_transfer_size_keeps_work_local() {
        let mut rt = LocalRuntime::try_new(LocalConfig::new(
            2,
            PolicyKind::MinTransferSize(crate::policy::ExplorationLevel::Low),
        ))
        .expect("startup");
        let n = 1 << 14;
        let a = rt.alloc_f32(n);
        let k = Arc::new(
            compile_one(
                "__global__ void inc(float* a, int n) {
                    int i = blockIdx.x * blockDim.x + threadIdx.x;
                    if (i < n) { a[i] = a[i] + 1.0; }
                }",
                "inc",
            )
            .unwrap(),
        );
        for _ in 0..8 {
            rt.launch(&k, 64, 256, vec![LocalArg::Buf(a), LocalArg::I32(n as i32)])
                .unwrap();
        }
        rt.synchronize().unwrap();
        // First send moves the array once; locality keeps it there after.
        assert_eq!(rt.stats().send_bytes, (n * 4) as u64);
        assert_eq!(rt.stats().p2p_bytes, 0);
        assert_eq!(rt.read_f32(a).unwrap()[0], 8.0);
    }

    #[test]
    fn local_trace_mirrors_the_planner() {
        let mut rt = rt(2);
        let n = 1024usize;
        let a = rt.alloc_f32(n);
        let fill = Arc::new(
            compile_one(
                "__global__ void fill(float* a, int n) {
                    int i = blockIdx.x * blockDim.x + threadIdx.x;
                    if (i < n) { a[i] = 3.0; }
                }",
                "fill",
            )
            .unwrap(),
        );
        let inc = Arc::new(
            compile_one(
                "__global__ void inc(float* a, int n) {
                    int i = blockIdx.x * blockDim.x + threadIdx.x;
                    if (i < n) { a[i] = a[i] + 1.0; }
                }",
                "inc",
            )
            .unwrap(),
        );
        rt.launch(
            &fill,
            4,
            256,
            vec![LocalArg::Buf(a), LocalArg::I32(n as i32)],
        )
        .unwrap();
        rt.launch(
            &inc,
            4,
            256,
            vec![LocalArg::Buf(a), LocalArg::I32(n as i32)],
        )
        .unwrap();
        rt.synchronize().unwrap();
        let plans: Vec<&Plan> = rt.sched_trace().plans().collect();
        assert_eq!(plans.len(), 2);
        // fill -> worker 0 (round-robin), inc -> worker 1 with a P2P pull.
        assert_eq!(plans[0].assigned_node, Location::worker(0));
        assert_eq!(plans[1].deps, vec![0]);
        assert_eq!(plans[1].movements[0].kind, MovementKind::P2p);
        assert!(plans[1].placement.is_none(), "no devices to place on");
        assert_eq!(rt.read_f32(a).unwrap()[0], 4.0);
    }
}
