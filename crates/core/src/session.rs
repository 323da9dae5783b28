//! The multi-tenant session layer: many isolated control-plane state
//! machines over one shared data plane.
//!
//! The single-application runtime ([`crate::LocalRuntime`]) stays exactly
//! what it was — one planner, one Global DAG, one [`Transport`]. This
//! module makes *many* of them share one worker fleet:
//!
//! - [`FleetMux`] owns the real transport (in-process
//!   [`crate::ChannelTransport`] or `grout_net::TcpTransport`) and a
//!   single fleet thread that multiplexes every session's traffic onto
//!   it,
//! - [`SessionTransport`] is the per-session [`Transport`] handle: it
//!   tags every id crossing the wire with the session's namespace
//!   ([`SESSION_SHIFT`]), routes frames through the mux's fair-share
//!   scheduler, and demultiplexes replies back by the same tag,
//! - [`SharedPlacement`] is the fleet-wide placement view every session
//!   prices against: the probed [`LinkMatrix`], per-worker occupancy,
//!   per-session resident bytes and the liveness snapshot,
//! - [`AdmissionController`] decides, per attach request, whether a new
//!   session runs now, waits its turn, or is rejected with a typed error,
//! - [`FairShare`] plans each scheduler tick as a weighted round-robin
//!   over the sessions' ready frontiers — no session starves,
//! - CE batching: all frames one tick sends to one worker coalesce into
//!   a single [`CtrlMsg::Batch`] wire frame when batching is on.
//!
//! Isolation argument: kernels are deterministic, dataflow is
//! version-gated, and every array/kernel/CE id is namespace-tagged, so a
//! session's output is a pure function of its own DAG — co-tenants can
//! change *when* frames move, never *what* they contain. The
//! two-client loopback test asserts the resulting bit-identity.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam_channel::{unbounded, Receiver, RecvTimeoutError, Sender};

use crate::telemetry::{monotonic_ns, HistorySample, MetricsHistory, PeerSample, PeerWireStats};
use crate::transport::{CtrlMsg, Liveness, SendLost, Transport, TransportRecvError, WorkerMsg};
use crate::{ArrayId, LinkMatrix};

// ---------------------------------------------------------------------------
// Session identity and id-space tagging.

/// Identifies one tenant session on a shared fleet. Session 0 is
/// reserved (an untagged id decodes to session 0); real sessions start
/// at 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(pub u64);

/// Bits reserved for the per-session id space: array ids, kernel ids and
/// DAG indices below `2^40` are tagged with `session << SESSION_SHIFT`
/// on the way to the fleet and untagged on the way back. 40 bits of ids
/// per session, 24 bits of sessions — both far beyond any real run.
pub const SESSION_SHIFT: u32 = 40;

/// Mask selecting the untagged (per-session) id bits.
pub const SESSION_ID_MASK: u64 = (1 << SESSION_SHIFT) - 1;

#[inline]
fn tag(sid: SessionId, raw: u64) -> u64 {
    debug_assert!(raw <= SESSION_ID_MASK, "per-session id overflows tag space");
    debug_assert!(sid.0 < (1 << 24), "session id overflows tag space");
    (sid.0 << SESSION_SHIFT) | raw
}

#[inline]
fn untag(tagged: u64) -> (SessionId, u64) {
    (SessionId(tagged >> SESSION_SHIFT), tagged & SESSION_ID_MASK)
}

/// Tags every session-scoped id inside a controller→worker message.
/// Worker indices and version numbers are fleet-level and pass through.
fn tag_ctrl(sid: SessionId, msg: CtrlMsg) -> CtrlMsg {
    match msg {
        CtrlMsg::Data {
            array,
            version,
            buf,
        } => CtrlMsg::Data {
            array: ArrayId(tag(sid, array.0)),
            version,
            buf,
        },
        CtrlMsg::LoadKernel {
            id,
            name,
            source,
            compiled,
        } => CtrlMsg::LoadKernel {
            id: tag(sid, id),
            name,
            source,
            compiled,
        },
        CtrlMsg::Exec(mut spec) => {
            spec.dag_index = tag(sid, spec.dag_index as u64) as usize;
            spec.kernel = tag(sid, spec.kernel);
            for a in &mut spec.args {
                if let crate::LocalArg::Buf(id) = a {
                    *id = ArrayId(tag(sid, id.0));
                }
            }
            for (a, _) in spec.needs.iter_mut().chain(spec.bumps.iter_mut()) {
                *a = ArrayId(tag(sid, a.0));
            }
            CtrlMsg::Exec(spec)
        }
        CtrlMsg::Send {
            array,
            min_version,
            to,
        } => CtrlMsg::Send {
            array: ArrayId(tag(sid, array.0)),
            min_version,
            to,
        },
        other => other,
    }
}

/// Splits a worker→controller message into its owning session (by id
/// tag) and the untagged message, or `None` for fleet-level traffic
/// (heartbeats, probes, telemetry, membership).
fn untag_worker(msg: WorkerMsg) -> Option<(SessionId, WorkerMsg)> {
    match msg {
        WorkerMsg::Done {
            dag_index,
            worker,
            elapsed_ns,
        } => {
            let (sid, raw) = untag(dag_index as u64);
            Some((
                sid,
                WorkerMsg::Done {
                    dag_index: raw as usize,
                    worker,
                    elapsed_ns,
                },
            ))
        }
        WorkerMsg::Failed {
            dag_index,
            worker,
            error,
        } => {
            let (sid, raw) = untag(dag_index as u64);
            Some((
                sid,
                WorkerMsg::Failed {
                    dag_index: raw as usize,
                    worker,
                    error,
                },
            ))
        }
        WorkerMsg::Data {
            array,
            version,
            buf,
        } => {
            let (sid, raw) = untag(array.0);
            Some((
                sid,
                WorkerMsg::Data {
                    array: ArrayId(raw),
                    version,
                    buf,
                },
            ))
        }
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Priority classes and the fair-share tick planner.

/// Admission/scheduling priority class of a session. Maps to a
/// weight factor in the fair-share round-robin (High sessions drain
/// their frontiers 4× as fast as Low ones) and to queue order when the
/// fleet is saturated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum Priority {
    /// Background/batch work: weight ×1, queued behind everyone.
    Low,
    /// The default class: weight ×2.
    #[default]
    Normal,
    /// Latency-sensitive work: weight ×4, promoted first.
    High,
}

impl Priority {
    /// The fair-share weight multiplier for this class.
    pub fn weight_factor(self) -> u32 {
        match self {
            Priority::Low => 1,
            Priority::Normal => 2,
            Priority::High => 4,
        }
    }

    /// Parses `low`/`normal`/`high` (CLI surface).
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "low" => Ok(Priority::Low),
            "normal" => Ok(Priority::Normal),
            "high" => Ok(Priority::High),
            other => Err(format!("unknown priority `{other}` (low|normal|high)")),
        }
    }
}

impl std::fmt::Display for Priority {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Priority::Low => "low",
            Priority::Normal => "normal",
            Priority::High => "high",
        })
    }
}

/// Plans one scheduler tick as a weighted round-robin over the sessions'
/// ready frontiers: every session with pending traffic is granted
/// `min(ready, weight)` sends — at least one, so a frontier of `n`
/// messages drains within `ceil(n / weight) ≤ n` ticks regardless of
/// co-tenants (the no-starvation bound the proptest pins down). The
/// visit order rotates each tick so no session persistently flushes
/// first.
#[derive(Debug, Default)]
pub struct FairShare {
    entries: Vec<(SessionId, u32)>,
    cursor: usize,
}

impl FairShare {
    /// An empty planner.
    pub fn new() -> Self {
        FairShare::default()
    }

    /// Registers a session with its weight (clamped to ≥ 1).
    pub fn attach(&mut self, sid: SessionId, weight: u32) {
        if !self.entries.iter().any(|(s, _)| *s == sid) {
            self.entries.push((sid, weight.max(1)));
        }
    }

    /// Removes a session.
    pub fn detach(&mut self, sid: SessionId) {
        self.entries.retain(|(s, _)| *s != sid);
        if !self.entries.is_empty() {
            self.cursor %= self.entries.len();
        } else {
            self.cursor = 0;
        }
    }

    /// Registered session count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// No sessions registered?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Plans one tick: `(session, grant)` pairs in this tick's rotated
    /// visit order, covering every session whose `ready` frontier is
    /// nonempty. `ready(sid)` reports how many frames the session has
    /// queued.
    pub fn tick(&mut self, mut ready: impl FnMut(SessionId) -> usize) -> Vec<(SessionId, usize)> {
        let n = self.entries.len();
        if n == 0 {
            return Vec::new();
        }
        let mut grants = Vec::new();
        for i in 0..n {
            let (sid, weight) = self.entries[(self.cursor + i) % n];
            let pending = ready(sid);
            if pending > 0 {
                grants.push((sid, pending.min(weight as usize)));
            }
        }
        self.cursor = (self.cursor + 1) % n;
        grants
    }
}

// ---------------------------------------------------------------------------
// Admission control.

/// Capacity limits the admission controller enforces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Sessions allowed to run concurrently.
    pub max_sessions: usize,
    /// Fleet-wide budget for declared resident bytes across active
    /// sessions.
    pub max_resident_bytes: u64,
    /// Attach requests allowed to wait when the fleet is saturated; 0
    /// turns queueing off (saturation rejects immediately).
    pub max_queue: usize,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            max_sessions: 16,
            max_resident_bytes: u64::MAX,
            max_queue: 32,
        }
    }
}

/// The typed admission failure, carried over the wire to the rejected
/// client (`grout-run --connect` prints it and exits cleanly).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionError {
    /// Every concurrent-session slot is taken and queueing is off.
    Saturated {
        /// Sessions currently running.
        active: u32,
        /// The configured concurrency cap.
        max: u32,
    },
    /// The wait queue is full.
    QueueFull {
        /// Requests already waiting.
        queued: u32,
        /// The configured queue cap.
        max: u32,
    },
    /// The session's declared working set cannot fit the resident-bytes
    /// budget (even alone).
    ResidentBytes {
        /// Bytes the attach request declared.
        declared: u64,
        /// The configured fleet-wide budget.
        max: u64,
    },
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionError::Saturated { active, max } => {
                write!(f, "fleet saturated: {active}/{max} sessions active")
            }
            AdmissionError::QueueFull { queued, max } => {
                write!(f, "admission queue full: {queued}/{max} waiting")
            }
            AdmissionError::ResidentBytes { declared, max } => write!(
                f,
                "declared working set of {declared} bytes exceeds the {max}-byte budget"
            ),
        }
    }
}

impl std::error::Error for AdmissionError {}

/// What the admission controller decided for an attach request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionDecision {
    /// Run now.
    Admit,
    /// Wait: `position` requests are ahead (0-based).
    Queued {
        /// Requests ahead of this one.
        position: usize,
    },
    /// Refused, with the typed reason.
    Reject(AdmissionError),
}

/// Decides whether an attach request runs, waits or is rejected, against
/// configurable concurrency and resident-bytes budgets. Pure state
/// machine — the daemon wires it to connections and wake-ups.
#[derive(Debug, Default)]
pub struct AdmissionController {
    cfg: AdmissionConfig,
    /// Active sessions with their declared resident bytes.
    active: HashMap<SessionId, u64>,
    /// Waiting requests, kept priority-then-FIFO ordered.
    queue: Vec<(SessionId, Priority, u64)>,
}

impl AdmissionController {
    /// A controller enforcing `cfg`.
    pub fn new(cfg: AdmissionConfig) -> Self {
        AdmissionController {
            cfg,
            active: HashMap::new(),
            queue: Vec::new(),
        }
    }

    fn resident(&self) -> u64 {
        self.active.values().sum()
    }

    fn fits(&self, declared_bytes: u64) -> bool {
        self.active.len() < self.cfg.max_sessions
            && self
                .resident()
                .checked_add(declared_bytes)
                .is_some_and(|total| total <= self.cfg.max_resident_bytes)
    }

    /// Decides an attach request. `declared_bytes` is the working-set
    /// size the client announced (0 = unknown, charged nothing).
    pub fn request(
        &mut self,
        sid: SessionId,
        priority: Priority,
        declared_bytes: u64,
    ) -> AdmissionDecision {
        if declared_bytes > self.cfg.max_resident_bytes {
            return AdmissionDecision::Reject(AdmissionError::ResidentBytes {
                declared: declared_bytes,
                max: self.cfg.max_resident_bytes,
            });
        }
        if self.fits(declared_bytes) {
            self.active.insert(sid, declared_bytes);
            return AdmissionDecision::Admit;
        }
        if self.cfg.max_queue == 0 {
            return AdmissionDecision::Reject(AdmissionError::Saturated {
                active: self.active.len() as u32,
                max: self.cfg.max_sessions as u32,
            });
        }
        if self.queue.len() >= self.cfg.max_queue {
            return AdmissionDecision::Reject(AdmissionError::QueueFull {
                queued: self.queue.len() as u32,
                max: self.cfg.max_queue as u32,
            });
        }
        // Priority classes jump the line; FIFO within a class.
        let position = self
            .queue
            .iter()
            .position(|(_, p, _)| *p < priority)
            .unwrap_or(self.queue.len());
        self.queue.insert(position, (sid, priority, declared_bytes));
        AdmissionDecision::Queued { position }
    }

    /// Releases a finished (or abandoned) session and promotes every
    /// queued request that now fits, in queue order. Returns the
    /// promoted session ids — the daemon wakes their waiting
    /// connections.
    pub fn release(&mut self, sid: SessionId) -> Vec<SessionId> {
        self.active.remove(&sid);
        self.queue.retain(|(s, _, _)| *s != sid);
        let mut promoted = Vec::new();
        while let Some((next, _, bytes)) = self.queue.first().copied() {
            if !self.fits(bytes) {
                break;
            }
            self.queue.remove(0);
            self.active.insert(next, bytes);
            promoted.push(next);
        }
        promoted
    }

    /// Sessions currently running.
    pub fn active(&self) -> usize {
        self.active.len()
    }

    /// Requests currently waiting.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }
}

// ---------------------------------------------------------------------------
// The shared placement view and batching counters.

/// CE-batching counters: how many logical messages travelled in how many
/// wire frames. `frames / messages` is the frames-per-CE ratio of the
/// `frames_per_ce_*` rows in `BENCH_ctld.json`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct BatchStats {
    /// Scheduler ticks that flushed at least one frame.
    pub ticks: u64,
    /// Wire frames sent (a batch counts once).
    pub frames: u64,
    /// Logical [`CtrlMsg`]s delivered (a batch counts its contents).
    pub messages: u64,
    /// Frames that were [`CtrlMsg::Batch`] wrappers.
    pub batched_frames: u64,
}

/// The fleet-wide placement state every session reads: the coherence
/// directory's shared half. The fleet thread refreshes it; session
/// transports and the admission controller consult it without touching
/// the underlying transport.
#[derive(Debug, Default)]
pub struct SharedPlacement {
    /// Per-worker endpoint health snapshot.
    pub liveness: Vec<Liveness>,
    /// Per-worker clock-offset estimates (controller clock domain).
    pub clock_offsets: Vec<i64>,
    /// Per-worker outstanding CE count (Execs routed minus completions)
    /// — the occupancy signal for placement and admission.
    pub occupancy: Vec<u64>,
    /// Resident bytes shipped per session (array copies, deduplicated by
    /// array id).
    pub resident: HashMap<SessionId, u64>,
    /// Fleet-level per-peer wire counters (shared; refreshed
    /// periodically).
    pub wire: Vec<PeerWireStats>,
    /// Workers that never came up at fleet construction.
    pub spawn_failures: Vec<(usize, String)>,
    /// CE-batching counters.
    pub batch: BatchStats,
    /// Cumulative CEs completed per session (survives detach, so
    /// end-of-run introspection still sees finished tenants).
    pub ces_done: HashMap<SessionId, u64>,
    /// Cumulative failed executions across the fleet — differenced over
    /// the [`MetricsHistory`] window this is the live fault-rate signal.
    pub faults: u64,
    /// The introspection time-series ring: one [`HistorySample`] per
    /// placement-refresh tick while the fleet thread runs.
    pub history: MetricsHistory,
}

impl SharedPlacement {
    /// Total resident bytes across every session.
    pub fn resident_total(&self) -> u64 {
        self.resident.values().sum()
    }
}

// ---------------------------------------------------------------------------
// The fleet mux: one thread, one transport, many sessions.

enum Cmd {
    Attach {
        sid: SessionId,
        weight: u32,
        inbox: Sender<WorkerMsg>,
    },
    Frame {
        sid: SessionId,
        worker: usize,
        msg: CtrlMsg,
    },
    Detach {
        sid: SessionId,
        arrays: Vec<ArrayId>,
        kernels: Vec<u64>,
    },
    SetBatch(bool),
    Stop,
}

/// Owns the real fleet transport and the single fleet thread that
/// multiplexes every session's traffic onto it. Hand out per-session
/// [`Transport`] handles with [`FleetMux::session`]; drop the mux (or
/// call [`FleetMux::shutdown`]) to tear the fleet down.
pub struct FleetMux {
    cmd_tx: Sender<Cmd>,
    placement: Arc<Mutex<SharedPlacement>>,
    io: Option<JoinHandle<()>>,
    workers: usize,
    links: Option<LinkMatrix>,
    next_sid: u64,
}

impl FleetMux {
    /// Wraps `transport` (which already connected/probed its fleet) with
    /// batching initially off.
    pub fn new(transport: Box<dyn Transport>) -> Self {
        Self::with_batching(transport, false)
    }

    /// Wraps `transport`, with CE batching initially `batch`.
    pub fn with_batching(mut transport: Box<dyn Transport>, batch: bool) -> Self {
        let workers = transport.workers();
        let links = transport.measured_links().cloned();
        let mut placement = SharedPlacement {
            liveness: (0..workers).map(|_| Liveness::Alive).collect(),
            clock_offsets: vec![0; workers],
            occupancy: vec![0; workers],
            spawn_failures: transport.spawn_failures().to_vec(),
            ..SharedPlacement::default()
        };
        for w in 0..workers {
            placement.liveness[w] = transport.liveness(w);
        }
        let placement = Arc::new(Mutex::new(placement));
        let (cmd_tx, cmd_rx) = unbounded();
        let shared = Arc::clone(&placement);
        let io = std::thread::Builder::new()
            .name("grout-fleet-mux".into())
            .spawn(move || fleet_loop(transport, cmd_rx, shared, batch))
            .expect("spawn fleet mux thread");
        FleetMux {
            cmd_tx,
            placement,
            io: Some(io),
            workers,
            links,
            next_sid: 1,
        }
    }

    /// Worker endpoints in the fleet.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The fleet-probed link matrix, if the transport measured one.
    pub fn links(&self) -> Option<&LinkMatrix> {
        self.links.as_ref()
    }

    /// The shared placement view (liveness, occupancy, resident bytes,
    /// batching counters).
    pub fn placement(&self) -> Arc<Mutex<SharedPlacement>> {
        Arc::clone(&self.placement)
    }

    /// Snapshot of the CE-batching counters.
    pub fn batch_stats(&self) -> BatchStats {
        self.placement.lock().expect("placement lock").batch
    }

    /// Toggles CE batching at runtime.
    pub fn set_batching(&self, on: bool) {
        let _ = self.cmd_tx.send(Cmd::SetBatch(on));
    }

    /// Creates a new session handle with the given fair-share weight
    /// (usually `Priority::weight_factor`). Plug the result into
    /// [`crate::RuntimeBuilder::build_with_transport`].
    pub fn session(&mut self, weight: u32) -> SessionTransport {
        let sid = SessionId(self.next_sid);
        self.next_sid += 1;
        let (inbox_tx, inbox_rx) = unbounded();
        let _ = self.cmd_tx.send(Cmd::Attach {
            sid,
            weight,
            inbox: inbox_tx,
        });
        let spawn_failures = self
            .placement
            .lock()
            .expect("placement lock")
            .spawn_failures
            .clone();
        SessionTransport {
            sid,
            workers: self.workers,
            cmd_tx: self.cmd_tx.clone(),
            inbox: inbox_rx,
            placement: Arc::clone(&self.placement),
            links: self.links.clone(),
            spawn_failures,
            shipped_arrays: HashSet::new(),
            shipped_kernels: HashSet::new(),
            detached: false,
        }
    }

    /// Stops the fleet thread and drops the underlying transport (which
    /// shuts its workers down). Implicit on drop.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        let _ = self.cmd_tx.send(Cmd::Stop);
        if let Some(io) = self.io.take() {
            let _ = io.join();
        }
    }
}

impl Drop for FleetMux {
    fn drop(&mut self) {
        self.stop();
    }
}

struct SessionState {
    inbox: Sender<WorkerMsg>,
    pending: VecDeque<(usize, CtrlMsg)>,
}

/// How long the fleet thread parks in `recv_timeout` per iteration when
/// idle — the latency floor for command pickup.
const FLEET_TICK: Duration = Duration::from_micros(500);

fn fleet_loop(
    mut transport: Box<dyn Transport>,
    cmd_rx: Receiver<Cmd>,
    placement: Arc<Mutex<SharedPlacement>>,
    batch_initial: bool,
) {
    let workers = transport.workers();
    let mut fair = FairShare::new();
    let mut sessions: HashMap<SessionId, SessionState> = HashMap::new();
    let mut batch = batch_initial;
    let mut iter: u64 = 0;
    'serve: loop {
        // 1. Ingest session commands.
        loop {
            match cmd_rx.try_recv() {
                Ok(Cmd::Attach { sid, weight, inbox }) => {
                    fair.attach(sid, weight);
                    sessions.insert(
                        sid,
                        SessionState {
                            inbox,
                            pending: VecDeque::new(),
                        },
                    );
                }
                Ok(Cmd::Frame { sid, worker, msg }) => {
                    if let Some(st) = sessions.get_mut(&sid) {
                        st.pending.push_back((worker, msg));
                    }
                }
                Ok(Cmd::Detach {
                    sid,
                    arrays,
                    kernels,
                }) => {
                    if let Some(st) = sessions.remove(&sid) {
                        // Flush whatever the session still had queued
                        // (completion-order frames a detaching runtime
                        // no longer waits for), then reclaim its
                        // namespace on every worker.
                        for (w, m) in st.pending {
                            let _ = transport.send(w, m);
                        }
                    }
                    fair.detach(sid);
                    if !arrays.is_empty() || !kernels.is_empty() {
                        for w in 0..workers {
                            let _ = transport.send(
                                w,
                                CtrlMsg::Reclaim {
                                    arrays: arrays.clone(),
                                    kernels: kernels.clone(),
                                },
                            );
                        }
                    }
                    placement
                        .lock()
                        .expect("placement lock")
                        .resident
                        .remove(&sid);
                }
                Ok(Cmd::SetBatch(on)) => batch = on,
                Ok(Cmd::Stop) => break 'serve,
                Err(_) => break,
            }
        }

        // 2. Fair-share tick: grant each pending session its quota.
        let grants = fair.tick(|sid| sessions.get(&sid).map_or(0, |s| s.pending.len()));
        if !grants.is_empty() {
            let mut per_worker: Vec<Vec<CtrlMsg>> = vec![Vec::new(); workers];
            let mut execs: Vec<u64> = vec![0; workers];
            for (sid, quota) in grants {
                let Some(st) = sessions.get_mut(&sid) else {
                    continue;
                };
                for _ in 0..quota {
                    let Some((w, msg)) = st.pending.pop_front() else {
                        break;
                    };
                    if matches!(msg, CtrlMsg::Exec(_)) {
                        execs[w] += 1;
                    }
                    per_worker[w].push(msg);
                }
            }
            // 3. Flush: coalesce each worker's share of the tick into one
            // wire frame when batching is on.
            let mut flushed = false;
            let mut stats_delta = BatchStats::default();
            for (w, msgs) in per_worker.into_iter().enumerate() {
                if msgs.is_empty() {
                    continue;
                }
                flushed = true;
                stats_delta.messages += msgs.len() as u64;
                if batch && msgs.len() > 1 {
                    stats_delta.frames += 1;
                    stats_delta.batched_frames += 1;
                    let _ = transport.send(w, CtrlMsg::Batch(msgs));
                } else {
                    stats_delta.frames += msgs.len() as u64;
                    for m in msgs {
                        let _ = transport.send(w, m);
                    }
                }
            }
            if flushed {
                let mut p = placement.lock().expect("placement lock");
                p.batch.ticks += 1;
                p.batch.frames += stats_delta.frames;
                p.batch.messages += stats_delta.messages;
                p.batch.batched_frames += stats_delta.batched_frames;
                for (w, n) in execs.iter().enumerate() {
                    p.occupancy[w] += n;
                }
            }
        }

        // 4. Pump inbound worker traffic and demux by session tag.
        match transport.recv_timeout(FLEET_TICK) {
            Ok(msg) => {
                route(msg, &sessions, &placement);
                while let Some(m) = transport.try_recv() {
                    route(m, &sessions, &placement);
                }
            }
            Err(TransportRecvError::Timeout) => {}
            Err(TransportRecvError::Disconnected) => {
                // Every endpoint is gone; sessions learn through the
                // liveness snapshot. Keep serving commands so detaches
                // still drain.
            }
        }

        // 5. Periodically refresh the shared liveness/wire snapshot and
        // append one introspection sample to the history ring — the
        // scheduler tick the live endpoints read their time series from.
        iter = iter.wrapping_add(1);
        if iter.is_multiple_of(32) {
            let queue_depth: u64 = sessions.values().map(|s| s.pending.len() as u64).sum();
            let mut p = placement.lock().expect("placement lock");
            for w in 0..workers {
                p.liveness[w] = transport.liveness(w);
                p.clock_offsets[w] = transport.clock_offset_ns(w);
            }
            p.wire = transport.wire_stats();
            let mut ces_done: Vec<(u64, u64)> =
                p.ces_done.iter().map(|(sid, n)| (sid.0, *n)).collect();
            ces_done.sort_unstable();
            let sample = HistorySample {
                at_ns: monotonic_ns(),
                queue_depth,
                resident_bytes: p.resident_total(),
                faults: p.faults,
                sessions_active: sessions.len() as u64,
                workers_alive: p
                    .liveness
                    .iter()
                    .filter(|l| !matches!(l, Liveness::Dead))
                    .count() as u64,
                occupancy: p.occupancy.clone(),
                peers: p.wire.iter().map(PeerSample::from_wire).collect(),
                ces_done,
            };
            p.history.push(sample);
        }
    }
    // Dropping the transport shuts the fleet down (in-process workers
    // get Shutdown from ChannelTransport's Drop; TCP sockets close).
}

fn route(
    msg: WorkerMsg,
    sessions: &HashMap<SessionId, SessionState>,
    placement: &Arc<Mutex<SharedPlacement>>,
) {
    // Fleet-level membership: a departing worker concerns every session.
    if let WorkerMsg::Leave { worker } = &msg {
        let mut p = placement.lock().expect("placement lock");
        if let Some(l) = p.liveness.get_mut(*worker) {
            *l = Liveness::Dead;
        }
        drop(p);
        for st in sessions.values() {
            let _ = st.inbox.send(msg.clone());
        }
        return;
    }
    // Untagged traffic (heartbeats, probe echoes, telemetry) is
    // fleet-level, already consumed inside real transports, and has no
    // per-session owner: dropped.
    if let Some((sid, untagged)) = untag_worker(msg) {
        if let WorkerMsg::Done { worker, .. } | WorkerMsg::Failed { worker, .. } = &untagged {
            let mut p = placement.lock().expect("placement lock");
            if let Some(o) = p.occupancy.get_mut(*worker) {
                *o = o.saturating_sub(1);
            }
            if matches!(untagged, WorkerMsg::Done { .. }) {
                *p.ces_done.entry(sid).or_insert(0) += 1;
            } else {
                p.faults += 1;
            }
        }
        if let Some(st) = sessions.get(&sid) {
            let _ = st.inbox.send(untagged);
        }
        // A vanished session's stragglers are dropped: its runtime is
        // gone and its namespace is being reclaimed.
    }
}

// ---------------------------------------------------------------------------
// The per-session transport handle.

/// A session's private [`Transport`]: namespace-tags outbound ids,
/// routes frames through the [`FleetMux`] fair-share scheduler, and
/// receives the session's demultiplexed replies. One per session; plug
/// into [`crate::RuntimeBuilder::build_with_transport`].
pub struct SessionTransport {
    sid: SessionId,
    workers: usize,
    cmd_tx: Sender<Cmd>,
    inbox: Receiver<WorkerMsg>,
    placement: Arc<Mutex<SharedPlacement>>,
    links: Option<LinkMatrix>,
    spawn_failures: Vec<(usize, String)>,
    /// Tagged ids shipped to the fleet, reclaimed on detach.
    shipped_arrays: HashSet<ArrayId>,
    shipped_kernels: HashSet<u64>,
    detached: bool,
}

impl SessionTransport {
    /// This session's identity.
    pub fn session_id(&self) -> SessionId {
        self.sid
    }

    /// Detaches from the fleet: flushes queued frames, reclaims this
    /// session's arrays/kernels on every worker and frees its placement
    /// accounting. Implicit on drop.
    pub fn detach(&mut self) {
        if self.detached {
            return;
        }
        self.detached = true;
        let _ = self.cmd_tx.send(Cmd::Detach {
            sid: self.sid,
            arrays: self.shipped_arrays.drain().collect(),
            kernels: self.shipped_kernels.drain().collect(),
        });
    }

    fn record_shipped(&mut self, msg: &CtrlMsg) {
        match msg {
            CtrlMsg::Data { array, buf, .. } if self.shipped_arrays.insert(*array) => {
                let mut p = self.placement.lock().expect("placement lock");
                *p.resident.entry(self.sid).or_insert(0) += buf.bytes();
            }
            CtrlMsg::LoadKernel { id, .. } => {
                self.shipped_kernels.insert(*id);
            }
            CtrlMsg::Exec(spec) => {
                for (a, _) in spec.needs.iter().chain(spec.bumps.iter()) {
                    self.shipped_arrays.insert(*a);
                }
                for arg in &spec.args {
                    if let crate::LocalArg::Buf(a) = arg {
                        self.shipped_arrays.insert(*a);
                    }
                }
            }
            CtrlMsg::Send { array, .. } => {
                self.shipped_arrays.insert(*array);
            }
            _ => {}
        }
    }
}

impl Transport for SessionTransport {
    fn workers(&self) -> usize {
        self.workers
    }

    fn kind(&self) -> &'static str {
        "session"
    }

    fn send(&mut self, worker: usize, msg: CtrlMsg) -> Result<(), SendLost> {
        match msg {
            // The fleet outlives every session: lifecycle frames stop at
            // the mux. Worker-side tracing is likewise fleet-level — two
            // sessions toggling Observe would fight over one flag.
            CtrlMsg::Shutdown | CtrlMsg::Leave | CtrlMsg::Observe { .. } => return Ok(()),
            _ => {}
        }
        if self
            .placement
            .lock()
            .expect("placement lock")
            .liveness
            .get(worker)
            == Some(&Liveness::Dead)
        {
            return Err(SendLost);
        }
        let tagged = tag_ctrl(self.sid, msg);
        self.record_shipped(&tagged);
        self.cmd_tx
            .send(Cmd::Frame {
                sid: self.sid,
                worker,
                msg: tagged,
            })
            .map_err(|_| SendLost)
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<WorkerMsg, TransportRecvError> {
        match self.inbox.recv_timeout(timeout) {
            Ok(m) => Ok(m),
            Err(RecvTimeoutError::Timeout) => Err(TransportRecvError::Timeout),
            Err(RecvTimeoutError::Disconnected) => Err(TransportRecvError::Disconnected),
        }
    }

    fn try_recv(&mut self) -> Option<WorkerMsg> {
        self.inbox.try_recv().ok()
    }

    fn is_alive(&mut self, worker: usize) -> bool {
        self.liveness(worker) != Liveness::Dead
    }

    fn liveness(&mut self, worker: usize) -> Liveness {
        self.placement
            .lock()
            .expect("placement lock")
            .liveness
            .get(worker)
            .copied()
            .unwrap_or(Liveness::Dead)
    }

    fn shutdown(&mut self, _worker: usize) {
        // Sessions never shut fleet workers down.
    }

    fn spawn_failures(&self) -> &[(usize, String)] {
        &self.spawn_failures
    }

    fn measured_links(&self) -> Option<&LinkMatrix> {
        self.links.as_ref()
    }

    fn clock_offset_ns(&mut self, worker: usize) -> i64 {
        self.placement
            .lock()
            .expect("placement lock")
            .clock_offsets
            .get(worker)
            .copied()
            .unwrap_or(0)
    }

    fn wire_stats(&self) -> Vec<PeerWireStats> {
        self.placement.lock().expect("placement lock").wire.clone()
    }

    fn session_id(&self) -> Option<u64> {
        Some(self.sid.0)
    }
}

impl Drop for SessionTransport {
    fn drop(&mut self) {
        self.detach();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_history_samples_idle_ticks() {
        let fleet = FleetMux::new(Box::new(crate::transport::ChannelTransport::new(1)));
        let placement = fleet.placement();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        // The fleet thread samples every 32 idle ticks (~16 ms); two
        // samples prove the ring keeps filling.
        loop {
            if placement.lock().unwrap().history.len() >= 2 {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "fleet thread never sampled the history ring"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        let p = placement.lock().unwrap();
        let latest = p.history.latest().unwrap().clone();
        assert!(latest.at_ns > 0);
        assert_eq!(latest.occupancy.len(), 1);
        assert_eq!(latest.workers_alive, 1);
        assert_eq!(latest.sessions_active, 0);
        assert_eq!(latest.queue_depth, 0);
    }

    #[test]
    fn tagging_roundtrips_and_session_zero_is_reserved() {
        let sid = SessionId(7);
        let tagged = tag(sid, 12345);
        assert_eq!(untag(tagged), (sid, 12345));
        assert_eq!(untag(12345), (SessionId(0), 12345));
    }

    #[test]
    fn fair_share_grants_every_pending_session() {
        let mut fs = FairShare::new();
        fs.attach(SessionId(1), 1);
        fs.attach(SessionId(2), 4);
        fs.attach(SessionId(3), 2);
        let mut queues: HashMap<SessionId, usize> =
            [(SessionId(1), 10), (SessionId(2), 10), (SessionId(3), 0)]
                .into_iter()
                .collect();
        let grants = fs.tick(|sid| queues[&sid]);
        // Session 3 has nothing ready; 1 and 2 are granted their weights.
        assert_eq!(grants.len(), 2);
        for (sid, n) in grants {
            assert_eq!(n, if sid == SessionId(2) { 4 } else { 1 });
            *queues.get_mut(&sid).unwrap() -= n;
        }
    }

    #[test]
    fn fair_share_rotation_moves_the_head() {
        let mut fs = FairShare::new();
        fs.attach(SessionId(1), 1);
        fs.attach(SessionId(2), 1);
        let first = fs.tick(|_| 1)[0].0;
        let second = fs.tick(|_| 1)[0].0;
        assert_ne!(first, second);
    }

    #[test]
    fn admission_saturates_queues_and_rejects() {
        let mut adm = AdmissionController::new(AdmissionConfig {
            max_sessions: 1,
            max_resident_bytes: 100,
            max_queue: 1,
        });
        assert_eq!(
            adm.request(SessionId(1), Priority::Normal, 50),
            AdmissionDecision::Admit
        );
        assert_eq!(
            adm.request(SessionId(2), Priority::Normal, 10),
            AdmissionDecision::Queued { position: 0 }
        );
        assert_eq!(
            adm.request(SessionId(3), Priority::Normal, 10),
            AdmissionDecision::Reject(AdmissionError::QueueFull { queued: 1, max: 1 })
        );
        // Oversized request rejects regardless of occupancy.
        assert_eq!(
            adm.request(SessionId(4), Priority::High, 1000),
            AdmissionDecision::Reject(AdmissionError::ResidentBytes {
                declared: 1000,
                max: 100
            })
        );
        let promoted = adm.release(SessionId(1));
        assert_eq!(promoted, vec![SessionId(2)]);
        assert_eq!(adm.active(), 1);
    }

    #[test]
    fn admission_priority_jumps_the_queue() {
        let mut adm = AdmissionController::new(AdmissionConfig {
            max_sessions: 1,
            max_resident_bytes: u64::MAX,
            max_queue: 8,
        });
        assert_eq!(
            adm.request(SessionId(1), Priority::Normal, 0),
            AdmissionDecision::Admit
        );
        assert_eq!(
            adm.request(SessionId(2), Priority::Low, 0),
            AdmissionDecision::Queued { position: 0 }
        );
        assert_eq!(
            adm.request(SessionId(3), Priority::High, 0),
            AdmissionDecision::Queued { position: 0 }
        );
        let promoted = adm.release(SessionId(1));
        assert_eq!(promoted, vec![SessionId(3)]);
    }

    #[test]
    fn admission_zero_queue_rejects_saturated() {
        let mut adm = AdmissionController::new(AdmissionConfig {
            max_sessions: 0,
            max_resident_bytes: u64::MAX,
            max_queue: 0,
        });
        assert_eq!(
            adm.request(SessionId(1), Priority::Normal, 0),
            AdmissionDecision::Reject(AdmissionError::Saturated { active: 0, max: 0 })
        );
    }
}
