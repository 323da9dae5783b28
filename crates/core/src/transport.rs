//! The controller↔worker transport seam.
//!
//! [`LocalRuntime`](crate::LocalRuntime) executes plans by exchanging
//! messages with its workers; this module abstracts *how* those messages
//! move so the same runtime drives worker threads in-process (the
//! [`ChannelTransport`] crossbeam mesh) or worker *processes* over a real
//! network (the TCP transport in the `grout-net` crate).
//!
//! Three logical channels are covered by one trait:
//!
//! - controller → worker: plan traffic ([`CtrlMsg`] — data installs,
//!   kernel loads, execution requests, forward requests),
//! - worker → controller: completions, failures, returned data and
//!   liveness ([`WorkerMsg`]),
//! - worker ↔ worker: P2P data, reached from the controller's plan via
//!   `CtrlMsg::Send { to: Some(peer) }` and carried by the transport.
//!
//! The worker side is a transport-agnostic state machine,
//! [`WorkerEngine`]: it owns the local array store, the version-gated run
//! queue and the pending-forward queue, and reacts to one [`CtrlMsg`] at a
//! time, emitting [`Outbound`] messages through a callback. The in-process
//! transport runs one engine per thread; `grout-workerd` runs one engine
//! per process over TCP. Both execute the exact same code, which is what
//! makes the loopback differential test (`tests/dist_loopback.rs`)
//! byte-exact.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam_channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use kernelc::{CompiledKernel, KernelArg, LaunchError};

use crate::ce::ArrayId;
use crate::dag::DagIndex;
use crate::local_runtime::{HostBuf, LocalArg};
use crate::policy::LinkMatrix;
use crate::scheduler::{PlannerConfig, PlannerOp};
use crate::telemetry::{monotonic_ns, PeerWireStats};

pub(crate) fn trace_on() -> bool {
    std::env::var_os("GROUT_TRACE").is_some()
}

/// Spans per [`WorkerMsg::Telemetry`] batch; larger flushes are chunked
/// into several frames so no single frame grows unbounded.
pub const TELEMETRY_MAX_BATCH: usize = 512;

/// Worker-side span buffer cap: beyond this, new spans are dropped and
/// counted ([`WorkerCounters::dropped`]) instead of growing without
/// bound when flush opportunities are scarce.
pub const TELEMETRY_BUFFER_CAP: usize = 4096;

/// Cadence at which an idle worker driver flushes buffered telemetry
/// (both the in-process thread loop and `grout-workerd` tick at this).
pub const TELEMETRY_FLUSH_TICK: Duration = Duration::from_millis(100);

/// What a worker-side telemetry span measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerSpanKind {
    /// A kernel execution.
    Execute,
    /// Data movement through this worker's store (`"send"`/`"recv"`).
    Transfer,
    /// A wire-path kernel recompilation.
    Recompile,
}

/// One span recorded on a worker, stamped with the worker's own
/// monotonic clock ([`crate::telemetry::monotonic_ns`]). The controller
/// shifts it into its clock domain (via the transport's clock-offset
/// estimate) when merging it into the run trace.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerSpan {
    /// What was measured.
    pub kind: WorkerSpanKind,
    /// Kernel name for executes/recompiles, `"send"`/`"recv"` for
    /// transfers.
    pub name: String,
    /// Start on the worker's monotonic clock, nanoseconds.
    pub start_ns: u64,
    /// Duration, nanoseconds.
    pub dur_ns: u64,
    /// The CE this span belongs to (`u64::MAX` when not CE-bound).
    pub dag_index: u64,
    /// Payload bytes for transfers, 0 otherwise.
    pub bytes: u64,
}

/// Cumulative per-worker counters riding on every telemetry batch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerCounters {
    /// Kernels executed successfully.
    pub kernels: u64,
    /// Wire-path kernel recompilations.
    pub recompiles: u64,
    /// Buffers forwarded (to peers or the controller).
    pub sends: u64,
    /// Buffers installed into the local store.
    pub recvs: u64,
    /// Payload bytes forwarded.
    pub bytes_out: u64,
    /// Payload bytes installed.
    pub bytes_in: u64,
    /// Spans dropped at the [`TELEMETRY_BUFFER_CAP`] backpressure limit.
    pub dropped: u64,
}

/// An injected execution fault riding on an [`ExecSpec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecFault {
    /// The worker dies the moment it receives the message (before running
    /// anything), as if the process was killed mid-dispatch.
    Crash,
    /// The launch fails transiently: once the CE's inputs are ready the
    /// worker reports failure *without* executing, leaving its store
    /// exactly as a real failed `cudaLaunchKernel` would.
    FailTransient,
}

/// Kernel-launch request queued on a worker. The kernel itself is
/// referenced by the id of a previously shipped [`CtrlMsg::LoadKernel`].
#[derive(Debug, Clone)]
pub struct ExecSpec {
    /// Global-DAG index of the CE (completion reports echo it).
    pub dag_index: DagIndex,
    /// Id of the kernel to run (see [`CtrlMsg::LoadKernel`]).
    pub kernel: u64,
    /// Grid dimensions (`dim3(x, y)`).
    pub grid: (u32, u32),
    /// Block dimensions (`dim3(x, y)`).
    pub block: (u32, u32),
    /// Launch arguments (buffers by array id, scalars by value).
    pub args: Vec<LocalArg>,
    /// Arrays (with minimum versions) that must be present locally before
    /// execution. Versioning prevents a stale local copy from satisfying a
    /// dependency whose fresh bytes are still in flight.
    pub needs: Vec<(ArrayId, u64)>,
    /// Version each written array becomes once this CE completes.
    pub bumps: Vec<(ArrayId, u64)>,
    /// Deterministic injected fault, if the [`crate::FaultPlan`] schedules
    /// one for this CE.
    pub fault: Option<ExecFault>,
}

/// Controller → worker (and worker → worker, for P2P data) messages.
#[derive(Debug, Clone)]
pub enum CtrlMsg {
    /// Install a local array copy (ignored if a newer version is present).
    Data {
        /// The array.
        array: ArrayId,
        /// Monotonic content version carried by the bytes.
        version: u64,
        /// The bytes.
        buf: HostBuf,
    },
    /// Register a kernel under `id` before the first [`CtrlMsg::Exec`]
    /// referencing it. In-process the pre-compiled kernel rides along;
    /// over the wire only `(source, name)` travel and the worker
    /// recompiles — deterministic, hence bit-identical.
    LoadKernel {
        /// Controller-assigned kernel id, unique per runtime.
        id: u64,
        /// Kernel name within `source`.
        name: String,
        /// Full source text of the translation unit.
        source: String,
        /// The already-compiled kernel (in-process fast path; dropped at
        /// the wire boundary).
        compiled: Option<Arc<CompiledKernel>>,
    },
    /// Execute a kernel once its `needs` are present.
    Exec(ExecSpec),
    /// Send a local copy to another worker (true P2P) or the controller —
    /// but only once the local copy reaches `min_version`: the controller
    /// may name this worker as a source while its fresh copy is still in
    /// flight, and forwarding a stale version would wedge the consumer.
    Send {
        /// The array to forward.
        array: ArrayId,
        /// Forward only once the local copy reaches this version.
        min_version: u64,
        /// Destination worker, or `None` for the controller.
        to: Option<usize>,
    },
    /// Bandwidth probe: echo `payload` back to the controller
    /// ([`WorkerMsg::ProbeEcho`]). Timed by the sender.
    Probe {
        /// Correlates the echo with the request.
        token: u64,
        /// Ballast bytes (echoed verbatim).
        payload: Vec<u8>,
    },
    /// Bandwidth probe: round-trip `bytes` of ballast to peer `to` and
    /// report the measured time ([`WorkerMsg::ProbeReport`]).
    ProbePeer {
        /// Correlates the report with the request.
        token: u64,
        /// Peer worker to probe.
        to: usize,
        /// Ballast size.
        bytes: u64,
    },
    /// Peer-probe ballast (worker → worker leg; echoed back).
    PeerProbe {
        /// Correlates with the originating [`CtrlMsg::ProbePeer`].
        token: u64,
        /// The probing worker (echo destination).
        from: usize,
        /// Ballast bytes.
        payload: Vec<u8>,
    },
    /// Peer-probe echo (completes the round-trip on the probing worker).
    PeerProbeEcho {
        /// Correlates with the originating [`CtrlMsg::ProbePeer`].
        token: u64,
        /// Ballast bytes.
        payload: Vec<u8>,
    },
    /// Toggle worker-side telemetry recording. Sent to every worker when
    /// the controller attaches (or detaches) a recorder.
    Observe {
        /// Record and stream telemetry when true.
        enabled: bool,
    },
    /// Terminate cleanly.
    Shutdown,
    /// Log shipping (controller → standby controller): the planner's
    /// construction inputs, sent once before the first
    /// [`CtrlMsg::ShipOp`] so the standby can build the replica the ops
    /// apply to. A worker receiving this ignores it.
    ShipInit {
        /// Planner configuration of the shipping controller.
        cfg: PlannerConfig,
        /// The link matrix the primary's planner was built with (probed
        /// matrices are run-specific, so they must travel).
        links: Option<LinkMatrix>,
    },
    /// Log shipping: one planner op, in log order. The standby applies it
    /// to its replica and answers [`WorkerMsg::ShipAck`] with the digest
    /// of the resulting state. A worker receiving this ignores it.
    ShipOp {
        /// Position in the op log (0-based).
        seq: u64,
        /// The op.
        op: PlannerOp,
    },
    /// Ask the worker to depart cleanly (elastic scale-in): it flushes
    /// buffered telemetry, acknowledges with [`WorkerMsg::Leave`] and
    /// halts — the controlled counterpart of a SIGTERM.
    Leave,
    /// Transport housekeeping: the current peer address list, re-broadcast
    /// when membership grows so existing workers can dial P2P connections
    /// to a joined newcomer. The [`WorkerEngine`] ignores it (the TCP
    /// serve loop consumes it before the engine sees it; the in-process
    /// mesh shares its peer list by reference and never sends one).
    Peers {
        /// Listen address per worker index (empty = unknown).
        addrs: Vec<String>,
    },
    /// CE batching: every frame one scheduler tick destined for this
    /// worker, coalesced into a single wire frame (the multi-tenant
    /// control plane's `--batch` knob). The engine handles the inner
    /// messages in order, exactly as if they had arrived one frame each —
    /// batching changes frame counts, never semantics. Nesting is not
    /// allowed (one level deep).
    Batch(Vec<CtrlMsg>),
    /// Session teardown: drop the listed array copies and kernel
    /// registrations (a detached session's namespace-tagged state), plus
    /// any queued work referencing them. The worker keeps serving — the
    /// fleet outlives every individual session.
    Reclaim {
        /// Arrays to evict from the local store.
        arrays: Vec<ArrayId>,
        /// Kernel ids to unregister.
        kernels: Vec<u64>,
    },
}

/// Worker → controller messages.
#[derive(Debug, Clone)]
pub enum WorkerMsg {
    /// A kernel CE completed.
    Done {
        /// The completed CE.
        dag_index: DagIndex,
        /// The reporting worker.
        worker: usize,
        /// Wall-clock kernel execution time measured on the worker
        /// (per-worker occupancy metric; spans are anchored
        /// controller-side).
        elapsed_ns: u64,
    },
    /// An array copy headed for the controller master store.
    Data {
        /// The array.
        array: ArrayId,
        /// Content version of the bytes.
        version: u64,
        /// The bytes.
        buf: HostBuf,
    },
    /// A kernel CE failed.
    Failed {
        /// The failing CE.
        dag_index: DagIndex,
        /// The reporting worker.
        worker: usize,
        /// `Some` for a real (deterministic) launch error, `None` for an
        /// injected transient failure eligible for retry.
        error: Option<LaunchError>,
    },
    /// Periodic liveness beacon (TCP transport only; consumed inside the
    /// transport, never surfaced to the runtime).
    Heartbeat {
        /// The beating worker.
        worker: usize,
    },
    /// Echo of a [`CtrlMsg::Probe`] (consumed by the probing transport).
    ProbeEcho {
        /// The echoing worker.
        worker: usize,
        /// Correlation token.
        token: u64,
        /// The ballast, returned.
        payload: Vec<u8>,
    },
    /// Result of a [`CtrlMsg::ProbePeer`] round-trip.
    ProbeReport {
        /// The probing worker.
        worker: usize,
        /// The probed peer.
        to: usize,
        /// Ballast size that made the round-trip.
        bytes: u64,
        /// Measured round-trip time.
        elapsed_ns: u64,
    },
    /// A batch of worker-side telemetry: spans plus cumulative counters.
    /// Flushed before every completion report (so a CE's spans always
    /// precede its `Done`), on the driver's flush tick, and at clean
    /// shutdown — but not on an injected crash, which takes the unflushed
    /// buffer with it like a real process death. Only emitted after
    /// [`CtrlMsg::Observe`] enabled recording.
    Telemetry {
        /// The reporting worker.
        worker: usize,
        /// Batch sequence number (1-based, per worker).
        seq: u64,
        /// Spans buffered at the flush trigger (backlog gauge).
        backlog: u64,
        /// Cumulative counters as of this batch.
        counters: WorkerCounters,
        /// The spans, in record order, at most
        /// [`TELEMETRY_MAX_BATCH`] per batch.
        spans: Vec<WorkerSpan>,
    },
    /// Standby controller → primary: acknowledges one shipped op
    /// ([`CtrlMsg::ShipOp`]) with the replica's rolling op digest after
    /// applying it. The primary cross-checks the digest against its own,
    /// so divergence is caught at the first op the replica decided
    /// differently, not at takeover.
    ShipAck {
        /// The acknowledged op's log position.
        seq: u64,
        /// [`crate::Planner::op_digest`] of the replica after the op.
        digest: u64,
    },
    /// Clean departure announcement (graceful worker shutdown, e.g.
    /// `grout-workerd` on SIGTERM): the worker flushed its telemetry and
    /// is exiting deliberately. The transport marks the endpoint
    /// definitively dead — no suspect grace window, no resume attempts —
    /// and the runtime quarantines it like any other death, just without
    /// waiting out the staleness threshold.
    Leave {
        /// The departing worker.
        worker: usize,
    },
}

/// The destination worker is unreachable (thread exited / socket closed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendLost;

/// Why a [`Transport::recv_timeout`] returned without a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportRecvError {
    /// Nothing arrived within the timeout (liveness probing time).
    Timeout,
    /// Every worker endpoint is gone; nothing can ever arrive again.
    Disconnected,
}

/// Three-state endpoint health, refining the boolean [`Transport::is_alive`]
/// for transports that can tell a transient omission (stale heartbeats, a
/// severed socket mid-resume) from a definitive death.
///
/// The runtime maps these onto the suspect-then-dead failure detector:
/// `Suspect` sidelines the worker for *new* CE placement but triggers no
/// quarantine or lineage replay; only `Dead` does. In-process channel
/// workers have no omission failures — a finished thread is immediately
/// `Dead` — so [`ChannelTransport`] keeps the two-state default.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Liveness {
    /// The endpoint is reachable and fresh.
    Alive,
    /// The endpoint stopped responding but is inside its reconnect grace
    /// window (session resume may still succeed).
    Suspect,
    /// The endpoint is gone for good (thread exited, resume window
    /// expired, clean [`WorkerMsg::Leave`]).
    Dead,
}

/// A controller-side handle on the worker mesh: sends [`CtrlMsg`]s,
/// receives [`WorkerMsg`]s, answers liveness queries. Implemented by
/// [`ChannelTransport`] (threads + crossbeam channels) and by
/// `grout_net::TcpTransport` (processes + sockets).
pub trait Transport: Send {
    /// Number of worker endpoints. Fixed for most transports, but grows
    /// when [`Transport::join`] admits a newcomer — indices are stable and
    /// never reused, so callers may cache them.
    fn workers(&self) -> usize;

    /// A short label for metrics/telemetry (`"channel"`, `"tcp"`).
    fn kind(&self) -> &'static str;

    /// Delivers `msg` to `worker`. [`SendLost`] means the endpoint is
    /// unreachable — the runtime treats it exactly like a death detected
    /// by liveness probing.
    fn send(&mut self, worker: usize, msg: CtrlMsg) -> Result<(), SendLost>;

    /// Waits up to `timeout` for the next worker message.
    fn recv_timeout(&mut self, timeout: Duration) -> Result<WorkerMsg, TransportRecvError>;

    /// Non-blocking receive (used while draining after a failure).
    fn try_recv(&mut self) -> Option<WorkerMsg>;

    /// Liveness probe: `false` once the endpoint is known-dead (thread
    /// finished, socket closed, or heartbeats went stale).
    fn is_alive(&mut self, worker: usize) -> bool;

    /// Refined health probe distinguishing a transient omission from a
    /// definitive death. The default collapses to the boolean
    /// [`Transport::is_alive`] (no suspect state); transports with a
    /// session-resume path (TCP) override it to report
    /// [`Liveness::Suspect`] while a reconnect is still plausible.
    fn liveness(&mut self, worker: usize) -> Liveness {
        if self.is_alive(worker) {
            Liveness::Alive
        } else {
            Liveness::Dead
        }
    }

    /// Attempts to re-establish a dead endpoint for a rejoin (respawn the
    /// worker thread / re-dial and re-handshake the worker process).
    /// Returns `true` when the endpoint is usable again; the caller is
    /// responsible for the membership side (new epoch, link re-probe).
    /// The default refuses: not every transport can bring endpoints back.
    fn reconnect(&mut self, worker: usize) -> bool {
        let _ = worker;
        false
    }

    /// Attaches a brand-new worker endpoint to the live mesh (elastic
    /// scale-out) and returns the index it was assigned — always the
    /// previous [`Transport::workers`] count. `addr` is the newcomer's
    /// listen address for socket transports; in-process transports ignore
    /// it. The caller owns the membership side (planner op, link
    /// re-probe). The default refuses: not every transport is elastic.
    fn join(&mut self, addr: &str) -> Result<usize, String> {
        let _ = addr;
        Err("transport does not support dynamic membership".into())
    }

    /// Incrementally probes the links touching a freshly joined `worker`
    /// and returns the updated full bandwidth matrix, reusing the rejoin
    /// re-probe path. `None` when this transport measures nothing (the
    /// scheduler keeps its conservatively padded matrix).
    fn probe_joined(&mut self, worker: usize) -> Option<LinkMatrix> {
        let _ = worker;
        None
    }

    /// Asks `worker` to terminate and reclaims its resources (joins the
    /// thread / closes the socket and reaps the process). Idempotent.
    fn shutdown(&mut self, worker: usize);

    /// Workers that never came up, with the reason (degraded start).
    fn spawn_failures(&self) -> &[(usize, String)];

    /// The measured inter-node bandwidth matrix, when this transport
    /// probes one at startup (TCP). `None` means the runtime falls back
    /// to a uniform model.
    fn measured_links(&self) -> Option<&LinkMatrix>;

    /// Estimated clock offset for `worker`: add it to the worker's
    /// reported monotonic timestamps to land them in the controller's
    /// clock domain. 0 when both ends share one clock (in-process) or no
    /// estimate exists yet.
    fn clock_offset_ns(&mut self, worker: usize) -> i64 {
        let _ = worker;
        0
    }

    /// Per-peer wire observability snapshot (frames/bytes, heartbeat RTT,
    /// telemetry-batch accounting), indexed by worker. Empty when the
    /// transport tracks none.
    fn wire_stats(&self) -> Vec<PeerWireStats> {
        Vec::new()
    }

    /// The tenant session this transport handle belongs to, when it is a
    /// per-session view onto a shared fleet (`SessionTransport`). `None`
    /// for transports that own their deployment.
    fn session_id(&self) -> Option<u64> {
        None
    }
}

/// What a [`WorkerEngine`] wants sent after handling a message.
#[derive(Debug)]
pub enum Outbound {
    /// To the controller.
    Controller(WorkerMsg),
    /// To a peer worker (P2P data or probe traffic).
    Peer(usize, CtrlMsg),
}

/// Whether the engine keeps running after a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flow {
    /// Keep serving.
    Continue,
    /// Stop: clean shutdown or injected crash. The caller tears the
    /// endpoint down (thread returns / process exits).
    Halt,
}

/// The transport-agnostic worker: local array store, version-gated run
/// queue, pending forwards and the kernel registry. One instance per
/// worker endpoint; fed one [`CtrlMsg`] at a time.
pub struct WorkerEngine {
    me: usize,
    store: HashMap<ArrayId, (u64, HostBuf)>,
    kernels: HashMap<u64, Arc<CompiledKernel>>,
    queue: VecDeque<ExecSpec>,
    /// Forward requests waiting for a version still in flight.
    pending_sends: VecDeque<(ArrayId, u64, Option<usize>)>,
    /// Outstanding peer probes: token → (peer, bytes, started).
    probes: HashMap<u64, (usize, u64, std::time::Instant)>,
    /// Whether telemetry recording is on ([`CtrlMsg::Observe`]). Off by
    /// default: the recording paths then do zero work and allocate
    /// nothing, preserving the traced-vs-plain differential.
    observe: bool,
    /// Spans buffered since the last flush.
    spans: Vec<WorkerSpan>,
    /// Cumulative counters (ride on every batch).
    counters: WorkerCounters,
    /// Telemetry batch sequence (1-based).
    tel_seq: u64,
}

impl WorkerEngine {
    /// An engine for worker `me` with empty state.
    pub fn new(me: usize) -> Self {
        WorkerEngine {
            me,
            store: HashMap::new(),
            kernels: HashMap::new(),
            queue: VecDeque::new(),
            pending_sends: VecDeque::new(),
            probes: HashMap::new(),
            observe: false,
            spans: Vec::new(),
            counters: WorkerCounters::default(),
            tel_seq: 0,
        }
    }

    /// Re-index the engine (a TCP worker learns its index from the
    /// handshake, after construction).
    pub fn set_index(&mut self, me: usize) {
        self.me = me;
    }

    /// Buffer one span, dropping (and counting) past the backpressure
    /// cap. Callers gate on `self.observe`.
    fn record_span(
        &mut self,
        kind: WorkerSpanKind,
        name: impl Into<String>,
        start_ns: u64,
        dur_ns: u64,
        dag_index: u64,
        bytes: u64,
    ) {
        if self.spans.len() >= TELEMETRY_BUFFER_CAP {
            self.counters.dropped += 1;
            return;
        }
        self.spans.push(WorkerSpan {
            kind,
            name: name.into(),
            start_ns,
            dur_ns,
            dag_index,
            bytes,
        });
    }

    /// Emit buffered spans as bounded [`WorkerMsg::Telemetry`] batches.
    /// Called before every completion report (so the controller merges a
    /// CE's spans before seeing its `Done`), at the driver's flush tick,
    /// and on clean shutdown — never on an injected crash, which models
    /// a process death taking its unflushed buffer with it.
    pub fn flush_telemetry(&mut self, out: &mut dyn FnMut(Outbound)) {
        if !self.observe || self.spans.is_empty() {
            return;
        }
        let backlog = self.spans.len() as u64;
        let all = std::mem::take(&mut self.spans);
        for chunk in all.chunks(TELEMETRY_MAX_BATCH) {
            self.tel_seq += 1;
            out(Outbound::Controller(WorkerMsg::Telemetry {
                worker: self.me,
                seq: self.tel_seq,
                backlog,
                counters: self.counters,
                spans: chunk.to_vec(),
            }));
        }
    }

    fn forward(&mut self, array: ArrayId, to: Option<usize>, out: &mut dyn FnMut(Outbound)) {
        let (version, buf) = {
            let (v, b) = self.store.get(&array).expect("checked by caller");
            (*v, b.clone())
        };
        let bytes = buf.bytes();
        let start = monotonic_ns();
        match to {
            Some(peer) => out(Outbound::Peer(
                peer,
                CtrlMsg::Data {
                    array,
                    version,
                    buf,
                },
            )),
            None => out(Outbound::Controller(WorkerMsg::Data {
                array,
                version,
                buf,
            })),
        }
        if self.observe {
            let dur = monotonic_ns().saturating_sub(start);
            self.record_span(
                WorkerSpanKind::Transfer,
                "send",
                start,
                dur,
                u64::MAX,
                bytes,
            );
            self.counters.sends += 1;
            self.counters.bytes_out += bytes;
        }
    }

    /// Runs `spec` if every needed input version is present; returns the
    /// launch result and measured time, or `None` when inputs are missing.
    fn try_run(&mut self, idx: usize) -> Option<(Result<(), LaunchError>, u64)> {
        let ready = self.queue[idx]
            .needs
            .iter()
            .all(|(a, v)| self.store.get(a).is_some_and(|(ver, _)| *ver >= *v));
        if !ready {
            return None;
        }
        let spec = &self.queue[idx];
        let Some(kernel) = self.kernels.get(&spec.kernel).cloned() else {
            // The controller always loads before the first exec; a missing
            // kernel can only mean its remote recompilation failed, which
            // is reported as a deterministic failure below.
            return Some((
                Err(LaunchError::ArgType {
                    index: 0,
                    expected: format!("kernel id {} loaded on this worker", spec.kernel),
                }),
                0,
            ));
        };
        // Temporarily take buffers out of the store to get disjoint &mut.
        let mut taken: Vec<(ArrayId, u64, HostBuf)> = Vec::new();
        for arg in &spec.args {
            if let LocalArg::Buf(a) = arg {
                if let Some((ver, buf)) = self.store.remove(a) {
                    taken.push((*a, ver, buf));
                }
            }
        }
        let started_mono = monotonic_ns();
        let started = std::time::Instant::now();
        let result = {
            let mut kargs: Vec<KernelArg<'_>> = Vec::with_capacity(spec.args.len());
            let mut cursor = taken.iter_mut();
            for arg in &spec.args {
                match arg {
                    LocalArg::Buf(_) => {
                        let (_, _, buf) = cursor.next().expect("taken in order");
                        kargs.push(match buf {
                            HostBuf::F32(v) => KernelArg::F32(v),
                            HostBuf::I32(v) => KernelArg::I32(v),
                        });
                    }
                    LocalArg::F32(v) => kargs.push(KernelArg::Float(*v)),
                    LocalArg::I32(v) => kargs.push(KernelArg::Int(*v)),
                }
            }
            kernel.launch2d(spec.grid, spec.block, &mut kargs)
        };
        let elapsed_ns = started.elapsed().as_nanos() as u64;
        let bumps = spec.bumps.clone();
        let dag_index = spec.dag_index as u64;
        for (a, mut ver, buf) in taken {
            if let Some((_, v)) = bumps.iter().find(|(b, _)| *b == a) {
                ver = ver.max(*v);
            }
            self.store.insert(a, (ver, buf));
        }
        if self.observe && result.is_ok() {
            let name = kernel.name().to_string();
            self.record_span(
                WorkerSpanKind::Execute,
                name,
                started_mono,
                elapsed_ns,
                dag_index,
                0,
            );
            self.counters.kernels += 1;
        }
        Some((result.map(|_| ()), elapsed_ns))
    }

    /// Handles one message, emitting any outbound traffic through `out`.
    /// [`Flow::Halt`] ends the endpoint (shutdown or injected crash).
    pub fn handle(&mut self, msg: CtrlMsg, out: &mut dyn FnMut(Outbound)) -> Flow {
        let me = self.me;
        match msg {
            CtrlMsg::Data {
                array,
                version,
                buf,
            } => {
                if trace_on() {
                    eprintln!("[w{me}] Data {array:?} v{version}");
                }
                match self.store.get(&array) {
                    Some((have, _)) if *have >= version => {}
                    _ => {
                        let bytes = buf.bytes();
                        let start = monotonic_ns();
                        self.store.insert(array, (version, buf));
                        if self.observe {
                            self.record_span(
                                WorkerSpanKind::Transfer,
                                "recv",
                                start,
                                monotonic_ns().saturating_sub(start),
                                u64::MAX,
                                bytes,
                            );
                            self.counters.recvs += 1;
                            self.counters.bytes_in += bytes;
                        }
                    }
                }
            }
            CtrlMsg::LoadKernel {
                id,
                name,
                source,
                compiled,
            } => {
                if !self.kernels.contains_key(&id) {
                    let start = monotonic_ns();
                    let (k, compiled_here) = match compiled {
                        Some(k) => (Some(k), false),
                        None => match kernelc::compile_one(&source, &name) {
                            Ok(k) => (Some(Arc::new(k)), true),
                            Err(e) => {
                                // Unreachable when controller and worker run
                                // the same build (compilation is pure); loud
                                // breadcrumb + deterministic Exec failure.
                                eprintln!("[w{me}] kernel `{name}` failed to recompile: {e}");
                                (None, false)
                            }
                        },
                    };
                    if compiled_here && self.observe {
                        self.record_span(
                            WorkerSpanKind::Recompile,
                            name,
                            start,
                            monotonic_ns().saturating_sub(start),
                            u64::MAX,
                            0,
                        );
                        self.counters.recompiles += 1;
                    }
                    if let Some(k) = k {
                        self.kernels.insert(id, k);
                    }
                }
            }
            CtrlMsg::Exec(m) => {
                if trace_on() {
                    eprintln!(
                        "[w{me}] Exec ce#{} needs {:?} bumps {:?} fault {:?}",
                        m.dag_index, m.needs, m.bumps, m.fault
                    );
                }
                if m.fault == Some(ExecFault::Crash) {
                    // Injected node death: the endpoint stops on receipt,
                    // taking its local store (and the queued work) with it.
                    // Deterministic — the store holds exactly the completed
                    // prior CEs' results, regardless of delivery timing.
                    return Flow::Halt;
                }
                self.queue.push_back(m)
            }
            CtrlMsg::Send {
                array,
                min_version,
                to,
            } => {
                if trace_on() {
                    eprintln!(
                        "[w{me}] Send {array:?} v>={min_version} -> {to:?} (stored v{:?})",
                        self.store.get(&array).map(|(v, _)| *v)
                    );
                }
                match self.store.get(&array) {
                    Some((ver, _)) if *ver >= min_version => self.forward(array, to, out),
                    _ => self.pending_sends.push_back((array, min_version, to)),
                }
            }
            CtrlMsg::Probe { token, payload } => {
                out(Outbound::Controller(WorkerMsg::ProbeEcho {
                    worker: me,
                    token,
                    payload,
                }));
            }
            CtrlMsg::ProbePeer { token, to, bytes } => {
                self.probes
                    .insert(token, (to, bytes, std::time::Instant::now()));
                out(Outbound::Peer(
                    to,
                    CtrlMsg::PeerProbe {
                        token,
                        from: me,
                        payload: vec![0u8; bytes as usize],
                    },
                ));
            }
            CtrlMsg::PeerProbe {
                token,
                from,
                payload,
            } => {
                out(Outbound::Peer(
                    from,
                    CtrlMsg::PeerProbeEcho { token, payload },
                ));
            }
            CtrlMsg::PeerProbeEcho { token, .. } => {
                if let Some((to, bytes, started)) = self.probes.remove(&token) {
                    out(Outbound::Controller(WorkerMsg::ProbeReport {
                        worker: me,
                        to,
                        bytes,
                        elapsed_ns: started.elapsed().as_nanos() as u64,
                    }));
                }
            }
            CtrlMsg::Observe { enabled } => {
                self.observe = enabled;
                if !enabled {
                    self.spans.clear();
                }
            }
            CtrlMsg::Shutdown => {
                // Clean shutdown: ship whatever is still buffered first.
                self.flush_telemetry(out);
                return Flow::Halt;
            }
            // Log-shipping frames are addressed to a standby controller;
            // a worker that somehow receives one ignores it.
            CtrlMsg::ShipInit { .. } | CtrlMsg::ShipOp { .. } => {}
            CtrlMsg::Leave => {
                // Clean elastic departure: like Shutdown, but acknowledged
                // so the controller knows the flush completed and can
                // rebalance this worker's directory entries instead of
                // quarantining a silent death.
                self.flush_telemetry(out);
                out(Outbound::Controller(WorkerMsg::Leave { worker: me }));
                return Flow::Halt;
            }
            // Peer-address housekeeping is consumed by the socket serve
            // loop; the engine itself addresses peers by index only.
            CtrlMsg::Peers { .. } => {}
            CtrlMsg::Batch(msgs) => {
                // One coalesced tick: handle the inner messages in order.
                // A halt inside the batch (shutdown, injected crash) stops
                // immediately — the remainder is lost with the endpoint,
                // exactly as unbatched frames queued behind a crash would be.
                for m in msgs {
                    if self.handle(m, out) == Flow::Halt {
                        return Flow::Halt;
                    }
                }
            }
            CtrlMsg::Reclaim { arrays, kernels } => {
                if trace_on() {
                    eprintln!(
                        "[w{me}] Reclaim {} arrays, {} kernels",
                        arrays.len(),
                        kernels.len()
                    );
                }
                for a in &arrays {
                    self.store.remove(a);
                }
                for k in &kernels {
                    self.kernels.remove(k);
                }
                // Queued work from the reclaimed namespace can never run
                // (its kernels are gone) and pending forwards of evicted
                // arrays can never be satisfied — drop both.
                self.queue.retain(|spec| !kernels.contains(&spec.kernel));
                self.pending_sends.retain(|(a, _, _)| !arrays.contains(a));
            }
        }
        // Drain every runnable queued kernel and every satisfiable pending
        // forward (data may have just arrived or been produced).
        let mut progress = true;
        while progress {
            progress = false;
            for i in 0..self.pending_sends.len() {
                let (array, min_version, to) = self.pending_sends[i];
                let ready = self
                    .store
                    .get(&array)
                    .is_some_and(|(ver, _)| *ver >= min_version);
                if ready {
                    self.pending_sends.remove(i);
                    self.forward(array, to, out);
                    progress = true;
                    break;
                }
            }
            if progress {
                continue;
            }
            for i in 0..self.queue.len() {
                let inputs_ready = self.queue[i]
                    .needs
                    .iter()
                    .all(|(a, v)| self.store.get(a).is_some_and(|(ver, _)| *ver >= *v));
                if !inputs_ready {
                    continue;
                }
                if self.queue[i].fault == Some(ExecFault::FailTransient) {
                    // Injected transient launch failure: report once the
                    // inputs are ready (a real launch would fail at that
                    // point) WITHOUT executing, so the local store — and
                    // hence every version — is untouched.
                    let m = self.queue.remove(i).expect("index in range");
                    out(Outbound::Controller(WorkerMsg::Failed {
                        dag_index: m.dag_index,
                        worker: me,
                        error: None,
                    }));
                    progress = true;
                    break;
                }
                if let Some((result, elapsed_ns)) = self.try_run(i) {
                    let m = self.queue.remove(i).expect("index in range");
                    match result {
                        Ok(()) => {
                            if trace_on() {
                                eprintln!("[w{me}] Done ce#{}", m.dag_index);
                            }
                            // A CE's spans always precede its Done, so the
                            // controller can merge them before completing it.
                            self.flush_telemetry(out);
                            out(Outbound::Controller(WorkerMsg::Done {
                                dag_index: m.dag_index,
                                worker: me,
                                elapsed_ns,
                            }));
                        }
                        Err(error) => {
                            out(Outbound::Controller(WorkerMsg::Failed {
                                dag_index: m.dag_index,
                                worker: me,
                                error: Some(error),
                            }));
                        }
                    }
                    progress = true;
                    break;
                }
            }
        }
        // Catch spans with no following Done (transfers, recompiles) so
        // they ship without waiting for the idle flush tick.
        self.flush_telemetry(out);
        Flow::Continue
    }
}

/// Where an in-process worker thread starts running.
///
/// Linux puts a new thread on an idle core when it finds one, and wake-ups
/// then keep a thread on the core it last ran on. [`ChannelTransport`]
/// spawns its workers back to back: while the first is still starting on
/// the idle core, the second is forked onto the spawner's — the
/// controller's — own core, and from there it preempts the controller on
/// every message until the load balancer happens to move it. On 2 vCPUs
/// that made 15-20 % of 4096-CE sessions run 10-50 % long, a different
/// share in every process. [`placement::leave_core`] is the worker's half
/// of the fix.
#[cfg(target_os = "linux")]
mod placement {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    /// glibc's `cpu_set_t`: 1024 CPUs.
    type CpuSet = [u64; 16];

    /// The core the calling thread is running on.
    pub fn current_core() -> Option<usize> {
        // SAFETY: no arguments, no preconditions.
        usize::try_from(unsafe { sched_getcpu() }).ok()
    }

    /// The cores the calling thread may run on.
    pub fn allowed_cores() -> Option<CpuSet> {
        let mut allowed: CpuSet = [0; 16];
        // SAFETY: `allowed` is that many writable bytes; pid 0 is the
        // calling thread.
        let rc =
            unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), allowed.as_mut_ptr()) };
        (rc >= 0).then_some(allowed)
    }

    /// Moves the calling thread off `core` if it is running there and may
    /// run elsewhere: drops `core` from the thread's affinity mask for one
    /// call, which migrates it, and restores the mask, so nothing is
    /// pinned afterwards. Every failure leaves the thread where it was.
    pub fn leave_core(core: usize) {
        if current_core() != Some(core) {
            return;
        }
        let Some(allowed) = allowed_cores() else {
            return;
        };
        let mut elsewhere = allowed;
        match elsewhere.get_mut(core / 64) {
            Some(word) => *word &= !(1 << (core % 64)),
            None => return,
        }
        if elsewhere.iter().all(|word| *word == 0) {
            return;
        }
        let size = std::mem::size_of::<CpuSet>();
        // SAFETY: both masks are `size` readable bytes; pid 0 is the
        // calling thread. The second call restores what the first narrowed.
        unsafe {
            if sched_setaffinity(0, size, elsewhere.as_ptr()) == 0 {
                sched_setaffinity(0, size, allowed.as_ptr());
            }
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod placement {
    pub fn current_core() -> Option<usize> {
        None
    }

    pub fn leave_core(_core: usize) {}
}

/// Spawns the thread of in-process worker `me`, started off the core the
/// caller runs on (see [`placement`]).
fn spawn_worker(
    me: usize,
    rx: Receiver<CtrlMsg>,
    to_controller: Sender<WorkerMsg>,
    peers: Arc<Mutex<Vec<Sender<CtrlMsg>>>>,
) -> std::io::Result<JoinHandle<()>> {
    let spawner_core = placement::current_core();
    std::thread::Builder::new()
        .name(format!("grout-worker-{me}"))
        .spawn(move || {
            if let Some(core) = spawner_core {
                placement::leave_core(core);
            }
            run_worker(me, rx, to_controller, peers)
        })
}

/// Drives a [`WorkerEngine`] from crossbeam channels until it halts — the
/// body of every in-process worker thread.
pub fn run_worker(
    me: usize,
    rx: Receiver<CtrlMsg>,
    to_controller: Sender<WorkerMsg>,
    peers: Arc<Mutex<Vec<Sender<CtrlMsg>>>>,
) {
    let mut engine = WorkerEngine::new(me);
    let mut out = |o: Outbound| match o {
        Outbound::Controller(m) => {
            let _ = to_controller.send(m);
        }
        Outbound::Peer(i, m) => {
            // Shared (not cloned) so threads spawned before an elastic
            // join can still route P2P traffic to the newcomer.
            let tx = peers.lock().expect("peer mesh lock").get(i).cloned();
            if let Some(tx) = tx {
                let _ = tx.send(m);
            }
        }
    };
    loop {
        match rx.recv_timeout(TELEMETRY_FLUSH_TICK) {
            Ok(msg) => {
                if engine.handle(msg, &mut out) == Flow::Halt {
                    break;
                }
            }
            // Idle tick: ship buffered telemetry so long-running quiet
            // phases still stream spans instead of hoarding them.
            Err(RecvTimeoutError::Timeout) => engine.flush_telemetry(&mut out),
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
}

struct ChannelWorker {
    tx: Sender<CtrlMsg>,
    /// Kept alongside the thread (crossbeam receivers are clonable): a
    /// respawned worker thread reuses the same channel, so the peer txs
    /// held by every other worker keep routing P2P traffic to it after a
    /// rejoin without rebuilding the mesh.
    rx: Receiver<CtrlMsg>,
    join: Option<JoinHandle<()>>,
}

/// Approximate logical payload size of a controller→worker message, for
/// the in-process wire counters (channels move pointers, so this models
/// what the bytes *would* be on a wire; small fixed overheads stand in
/// for headers).
fn ctrl_msg_bytes(msg: &CtrlMsg) -> u64 {
    match msg {
        CtrlMsg::Data { buf, .. } => 24 + buf.bytes(),
        CtrlMsg::LoadKernel { name, source, .. } => 24 + (name.len() + source.len()) as u64,
        CtrlMsg::Exec(spec) => {
            48 + 16 * (spec.args.len() + spec.needs.len() + spec.bumps.len()) as u64
        }
        CtrlMsg::Send { .. } => 32,
        CtrlMsg::Probe { payload, .. } => 16 + payload.len() as u64,
        CtrlMsg::ProbePeer { .. } => 32,
        CtrlMsg::PeerProbe { payload, .. } => 24 + payload.len() as u64,
        CtrlMsg::PeerProbeEcho { payload, .. } => 16 + payload.len() as u64,
        CtrlMsg::Observe { .. } => 8,
        CtrlMsg::Shutdown => 8,
        CtrlMsg::ShipInit { .. } => 64,
        CtrlMsg::ShipOp { .. } => 48,
        CtrlMsg::Leave => 8,
        CtrlMsg::Peers { addrs } => 16 + addrs.iter().map(|a| 4 + a.len() as u64).sum::<u64>(),
        // One frame header amortized over the whole tick's messages.
        CtrlMsg::Batch(msgs) => 8 + msgs.iter().map(ctrl_msg_bytes).sum::<u64>(),
        CtrlMsg::Reclaim { arrays, kernels } => 16 + 8 * (arrays.len() + kernels.len()) as u64,
    }
}

/// Approximate logical payload size of a worker→controller message (see
/// [`ctrl_msg_bytes`]).
fn worker_msg_bytes(msg: &WorkerMsg) -> u64 {
    match msg {
        WorkerMsg::Done { .. } => 32,
        WorkerMsg::Data { buf, .. } => 24 + buf.bytes(),
        WorkerMsg::Failed { .. } => 32,
        WorkerMsg::Heartbeat { .. } => 8,
        WorkerMsg::ProbeEcho { payload, .. } => 24 + payload.len() as u64,
        WorkerMsg::ProbeReport { .. } => 40,
        WorkerMsg::Telemetry { spans, .. } => {
            64 + spans.iter().map(|s| 41 + s.name.len() as u64).sum::<u64>()
        }
        WorkerMsg::ShipAck { .. } => 24,
        WorkerMsg::Leave { .. } => 8,
    }
}

/// The in-process transport: one OS thread per worker, crossbeam channels
/// for all three logical channels (the original `LocalRuntime` mesh).
/// Tracks the same per-peer wire counters as the TCP transport (with
/// modeled byte sizes) so the merge/metrics seam is exercised in-process;
/// clock offsets are exactly 0 because every thread shares
/// [`monotonic_ns`]'s process-global epoch.
pub struct ChannelTransport {
    workers: Vec<ChannelWorker>,
    from_workers: Receiver<WorkerMsg>,
    /// Retained for [`Transport::reconnect`]: a respawned worker thread
    /// needs a fresh clone of the controller-bound sender. (Holding this
    /// keeps the channel connected even with every thread dead; the
    /// runtime still detects that via liveness probing, and all-dead runs
    /// end in `NoHealthyWorkers` through the planner.)
    to_controller: Sender<WorkerMsg>,
    /// The peer mesh, shared by reference with every worker thread so an
    /// elastic [`Transport::join`] extends it for already-running threads
    /// too (a cloned `Vec` would leave them with a stale snapshot).
    peer_txs: Arc<Mutex<Vec<Sender<CtrlMsg>>>>,
    failures: Vec<(usize, String)>,
    wire: Vec<PeerWireStats>,
}

impl ChannelTransport {
    /// Spawns `n` worker threads and wires the channel mesh (controller to
    /// each worker, worker to worker for P2P, workers back to controller).
    /// A worker whose thread fails to spawn is recorded in
    /// [`Transport::spawn_failures`] instead of failing the construction.
    pub fn new(n: usize) -> Self {
        ChannelTransport::with_spawner(n, spawn_worker)
    }

    /// Startup with an injectable thread spawner (tests force spawn
    /// failures through this without exhausting OS resources).
    pub fn with_spawner<F>(n: usize, mut spawn: F) -> Self
    where
        F: FnMut(
            usize,
            Receiver<CtrlMsg>,
            Sender<WorkerMsg>,
            Arc<Mutex<Vec<Sender<CtrlMsg>>>>,
        ) -> std::io::Result<JoinHandle<()>>,
    {
        let (to_controller, from_workers) = unbounded::<WorkerMsg>();
        let channels: Vec<(Sender<CtrlMsg>, Receiver<CtrlMsg>)> =
            (0..n).map(|_| unbounded()).collect();
        let txs: Arc<Mutex<Vec<Sender<CtrlMsg>>>> = Arc::new(Mutex::new(
            channels.iter().map(|(t, _)| t.clone()).collect(),
        ));
        let mut failures: Vec<(usize, String)> = Vec::new();
        let workers: Vec<ChannelWorker> = channels
            .into_iter()
            .enumerate()
            .map(|(i, (tx, rx))| {
                let peers = Arc::clone(&txs);
                let back = to_controller.clone();
                match spawn(i, rx.clone(), back, peers) {
                    Ok(join) => ChannelWorker {
                        tx,
                        rx,
                        join: Some(join),
                    },
                    Err(e) => {
                        failures.push((i, e.to_string()));
                        ChannelWorker { tx, rx, join: None }
                    }
                }
            })
            .collect();
        ChannelTransport {
            workers,
            from_workers,
            to_controller,
            peer_txs: txs,
            failures,
            wire: vec![PeerWireStats::default(); n],
        }
    }

    /// Attribute a received message to its worker's wire counters.
    /// `WorkerMsg::Data` carries no sender field and stays unattributed
    /// (the TCP transport, which knows the socket, does count it).
    fn note_recv(&mut self, msg: &WorkerMsg) {
        let worker = match msg {
            WorkerMsg::Done { worker, .. }
            | WorkerMsg::Failed { worker, .. }
            | WorkerMsg::Heartbeat { worker }
            | WorkerMsg::ProbeEcho { worker, .. }
            | WorkerMsg::ProbeReport { worker, .. }
            | WorkerMsg::Telemetry { worker, .. }
            | WorkerMsg::Leave { worker } => *worker,
            WorkerMsg::Data { .. } | WorkerMsg::ShipAck { .. } => return,
        };
        let Some(w) = self.wire.get_mut(worker) else {
            return;
        };
        w.frames_recv += 1;
        w.bytes_recv += worker_msg_bytes(msg);
        if let WorkerMsg::Telemetry { backlog, spans, .. } = msg {
            w.telemetry_batches += 1;
            w.telemetry_spans += spans.len() as u64;
            w.telemetry_backlog = *backlog;
        }
    }
}

impl Transport for ChannelTransport {
    fn workers(&self) -> usize {
        self.workers.len()
    }

    fn kind(&self) -> &'static str {
        "channel"
    }

    fn send(&mut self, worker: usize, msg: CtrlMsg) -> Result<(), SendLost> {
        let bytes = ctrl_msg_bytes(&msg);
        if let Some(w) = self.wire.get_mut(worker) {
            w.frames_sent += 1;
            w.bytes_sent += bytes;
        }
        self.workers[worker].tx.send(msg).map_err(|_| SendLost)
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<WorkerMsg, TransportRecvError> {
        let msg = self
            .from_workers
            .recv_timeout(timeout)
            .map_err(|e| match e {
                RecvTimeoutError::Timeout => TransportRecvError::Timeout,
                RecvTimeoutError::Disconnected => TransportRecvError::Disconnected,
            })?;
        self.note_recv(&msg);
        Ok(msg)
    }

    fn try_recv(&mut self) -> Option<WorkerMsg> {
        let msg = self.from_workers.try_recv().ok()?;
        self.note_recv(&msg);
        Some(msg)
    }

    fn is_alive(&mut self, worker: usize) -> bool {
        match &self.workers[worker].join {
            None => false,
            Some(j) => !j.is_finished(),
        }
    }

    fn reconnect(&mut self, worker: usize) -> bool {
        let Some(w) = self.workers.get_mut(worker) else {
            return false;
        };
        if w.join.as_ref().is_some_and(|j| !j.is_finished()) {
            return true; // still up — nothing to re-establish
        }
        if let Some(j) = w.join.take() {
            let _ = j.join();
        }
        // Drain frames queued while the worker was down: a rejoining node
        // re-enters with an empty store and must not see stale plan
        // traffic addressed to its previous incarnation.
        while w.rx.try_recv().is_ok() {}
        let rx = w.rx.clone();
        let back = self.to_controller.clone();
        let peers = Arc::clone(&self.peer_txs);
        match spawn_worker(worker, rx, back, peers) {
            Ok(join) => {
                w.join = Some(join);
                true
            }
            Err(_) => false,
        }
    }

    fn join(&mut self, _addr: &str) -> Result<usize, String> {
        // In-process elastic join: extend the shared mesh (running threads
        // see the newcomer immediately through the Arc) and spawn it.
        let i = self.workers.len();
        let (tx, rx) = unbounded::<CtrlMsg>();
        self.peer_txs
            .lock()
            .expect("peer mesh lock")
            .push(tx.clone());
        let back = self.to_controller.clone();
        let peers = Arc::clone(&self.peer_txs);
        let rx2 = rx.clone();
        match spawn_worker(i, rx2, back, peers) {
            Ok(join) => {
                self.workers.push(ChannelWorker {
                    tx,
                    rx,
                    join: Some(join),
                });
                self.wire.push(PeerWireStats::default());
                Ok(i)
            }
            Err(e) => {
                self.peer_txs.lock().expect("peer mesh lock").pop();
                Err(e.to_string())
            }
        }
    }

    fn shutdown(&mut self, worker: usize) {
        let _ = self.workers[worker].tx.send(CtrlMsg::Shutdown);
        if let Some(j) = self.workers[worker].join.take() {
            let _ = j.join();
        }
    }

    fn spawn_failures(&self) -> &[(usize, String)] {
        &self.failures
    }

    fn measured_links(&self) -> Option<&LinkMatrix> {
        None
    }

    fn wire_stats(&self) -> Vec<PeerWireStats> {
        self.wire.clone()
    }
}

impl Drop for ChannelTransport {
    fn drop(&mut self) {
        for w in &self.workers {
            let _ = w.tx.send(CtrlMsg::Shutdown);
        }
        for w in &mut self.workers {
            if let Some(j) = w.join.take() {
                let _ = j.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn probe_echo(t: &mut ChannelTransport, worker: usize, token: u64) -> Vec<u8> {
        t.send(
            worker,
            CtrlMsg::Probe {
                token,
                payload: vec![0xAB; 8],
            },
        )
        .expect("send probe");
        loop {
            match t.recv_timeout(Duration::from_secs(5)).expect("echo") {
                WorkerMsg::ProbeEcho {
                    worker: w,
                    token: tk,
                    payload,
                } if w == worker && tk == token => return payload,
                _ => {}
            }
        }
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn leaving_a_core_pins_nothing() {
        // On its own thread: the test harness's threads keep their masks.
        std::thread::spawn(|| {
            let before = placement::allowed_cores().expect("affinity mask");
            let here = placement::current_core().expect("current core");
            // Not the core this thread runs on: nothing to leave.
            placement::leave_core(here + 1);
            assert_eq!(placement::allowed_cores(), Some(before));
            // Its own core: moved if another core is allowed, and in
            // either case free to run everywhere it could before.
            placement::leave_core(here);
            assert_eq!(placement::allowed_cores(), Some(before));
        })
        .join()
        .unwrap();
    }

    #[test]
    fn reconnect_respawns_a_shut_down_worker() {
        let mut t = ChannelTransport::new(2);
        t.shutdown(0);
        assert!(!t.is_alive(0));
        assert_eq!(t.liveness(0), Liveness::Dead);
        assert!(t.reconnect(0), "respawn should succeed");
        assert!(t.is_alive(0));
        assert_eq!(t.liveness(0), Liveness::Alive);
        // The respawned thread serves traffic over the original channel.
        assert_eq!(probe_echo(&mut t, 0, 7), vec![0xAB; 8]);
        // Reconnecting a live worker is a no-op that reports success.
        assert!(t.reconnect(0));
        assert_eq!(probe_echo(&mut t, 0, 8), vec![0xAB; 8]);
    }
}
