//! The controller side of the TCP mesh: [`TcpTransport`].
//!
//! One socket per worker, all multiplexed on **one I/O thread**: a
//! `poll(2)` event loop (see [`crate::poll`]) owns every peer socket,
//! drains readiness into per-peer [`FrameBuf`]s, decodes [`WorkerMsg`]
//! frames into a single merged queue (mirroring the crossbeam mesh of the
//! in-process transport), swallows heartbeats after stamping a shared
//! last-seen instant, and flips a shared link flag on EOF or socket
//! error. The controller thread never touches a socket after the
//! handshake — it talks to the loop through a command channel
//! ([`Cmd`]) plus a [`WakeHandle`], and sends become nonblocking
//! [`WriteQueue`] entries flushed as the kernel accepts them.
//!
//! Blocking work (dialing, the resume handshake, replaying an unacked
//! tail) stays on the controller thread; only after a socket is fully
//! handshaken is it registered with the loop. Severing is a rendezvous:
//! the controller asks the loop to drop a socket and waits for the reply,
//! at which point the receive cursor is provably quiescent. The loop
//! never blocks on the controller thread (it only posts to unbounded
//! channels and performs nonblocking socket I/O), so the rendezvous
//! cannot deadlock — unlike the previous design, which joined a reader
//! thread while holding connection state.
//!
//! ## Reliable sessions
//!
//! Every post-handshake frame is a [`wire::Envelope`]: plan traffic rides
//! *reliable* frames (sequenced, buffered in a [`SendBuffer`] until
//! cumulatively acked, deduplicated by a [`RecvCursor`]); heartbeats,
//! clock sync and session acks ride *ephemeral* frames. A dead socket
//! does not kill the worker — the connection enters a *resuming* state:
//! sends buffer, reconnect attempts run with exponential backoff inside
//! [`TcpConfig::reconnect_window`], and a successful resume handshake
//! (same session id, both cursors exchanged) replays the unacked tails in
//! both directions. The runtime sees [`Liveness::Suspect`] while
//! resuming — new CEs avoid the node — and only a blown window (or a
//! worker that lost its session state) degrades to [`Liveness::Dead`]
//! and the quarantine + lineage-replay path. Liveness combines socket
//! state and staleness: a SIGKILLed process is caught by EOF within
//! milliseconds, a wedged-but-connected one (SIGSTOP, network partition)
//! by missed heartbeats ([`TcpConfig::stale_after_beats`] × cadence),
//! which severs the socket and enters the same resume path.
//!
//! ## Elastic membership
//!
//! [`Transport::join`] dials a fresh worker while the mesh is live: the
//! newcomer is handshaken with the grown peer list, registered with the
//! event loop under the next index, and every existing worker receives a
//! [`CtrlMsg::Peers`] update so P2P traffic reaches the new endpoint.
//! [`Transport::probe_joined`] then re-prices just the links touching the
//! newcomer, reusing the startup probe machinery. A clean departure rides
//! [`CtrlMsg::Leave`] (the worker flushes, acks with [`WorkerMsg::Leave`]
//! and exits).
//!
//! Construction runs the startup bandwidth-probe round of the paper's
//! min-transfer-time policy: timed ballast echoes controller↔worker and
//! worker↔worker populate a measured [`LinkMatrix`] that
//! [`grout_core::LocalRuntime`] hands to the planner in place of the
//! uniform model.

use std::collections::HashMap;
use std::net::TcpStream;
use std::process::Child;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam_channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use grout_core::{
    monotonic_ns, ClockSync, CtrlMsg, LatencyStat, LinkMatrix, Liveness, NetFaultKind,
    NetFaultPlan, PeerWireStats, SendLost, Transport, TransportRecvError, WorkerMsg,
};

use crate::poll::{poll_fds, read_available, FrameBuf, PollFd, WakeHandle, Waker, WriteQueue};
use crate::poll::{POLLERR, POLLHUP, POLLIN, POLLOUT};
use crate::session::{RecvCursor, SendBuffer, ACK_EVERY};
use crate::wire;

/// First reconnect backoff; doubles per failed attempt up to
/// [`RESUME_BACKOFF_MAX`].
const RESUME_BACKOFF_START: Duration = Duration::from_millis(25);
/// Backoff ceiling between reconnect attempts.
const RESUME_BACKOFF_MAX: Duration = Duration::from_millis(400);
/// Read timeout on the resume handshake ack, so a stopped (SIGSTOP) or
/// wedged worker cannot block the controller past one attempt.
const RESUME_ACK_TIMEOUT: Duration = Duration::from_millis(300);
/// Bound on the blocking flush of a socket's write queue when the loop
/// deregisters it (gets a final `Shutdown`/`Leave` frame out without
/// letting a wedged peer stall the loop).
const DRAIN_TIMEOUT: Duration = Duration::from_millis(250);

/// Every setting of the TCP transport, in one place: liveness (cadence,
/// staleness, resume window), startup probe sizing, the spawn timeout and
/// the network-chaos plan. In-process deployments have none of these.
#[derive(Debug, Clone)]
pub struct TcpConfig {
    /// Worker heartbeat cadence (carried in the handshake).
    pub heartbeat: Duration,
    /// Heartbeats a worker may miss before its socket is severed and the
    /// connection enters the resume path.
    pub stale_after_beats: u32,
    /// How long a severed connection may keep trying to resume before it
    /// is declared dead (quarantine + lineage replay take over).
    pub reconnect_window: Duration,
    /// Ballast bytes per startup bandwidth probe (per direction).
    pub probe_bytes: u64,
    /// How long to wait for each probe echo before giving up on the pair
    /// (its matrix entry falls back to the controller↔worker estimate).
    pub probe_timeout: Duration,
    /// How long to wait for a spawned `grout-workerd` to announce its
    /// listen address.
    pub spawn_timeout: Duration,
    /// Deterministic network chaos: each [`NetFaultKind::Sever`] or
    /// [`NetFaultKind::Partition`] cuts the real socket under the session
    /// layer, which must resume it. Lost, duplicated and reordered frames
    /// are checked by the `SendBuffer`/`RecvCursor` property tests in
    /// [`crate::session`].
    pub net_faults: NetFaultPlan,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            heartbeat: Duration::from_millis(100),
            stale_after_beats: 10,
            reconnect_window: Duration::from_secs(2),
            probe_bytes: 1 << 20,
            probe_timeout: Duration::from_secs(5),
            spawn_timeout: Duration::from_secs(10),
            net_faults: NetFaultPlan::none(),
        }
    }
}

/// Per-connection wire counters and clock state, shared between the
/// controller thread (snapshots) and the I/O loop (send/receive
/// accounting, clock-sync frames).
#[derive(Default)]
struct ConnStats {
    frames_sent: AtomicU64,
    bytes_sent: AtomicU64,
    frames_recv: AtomicU64,
    bytes_recv: AtomicU64,
    telemetry_batches: AtomicU64,
    telemetry_spans: AtomicU64,
    telemetry_backlog: AtomicU64,
    resumes: AtomicU64,
    /// Heartbeat RTT histogram + running clock-offset estimate, both fed
    /// by the worker's clock samples.
    clock: Mutex<(LatencyStat, ClockSync)>,
}

/// Everything about one connection that the I/O loop shares with the
/// controller thread.
struct ConnShared {
    /// Session-level liveness: false once the connection is definitively
    /// dead (clean Leave, blown resume window, lost worker state). Never
    /// comes back except through [`Transport::reconnect`].
    open: AtomicBool,
    /// Socket-level liveness: flipped off by the loop on EOF/error and
    /// back on by a successful resume.
    link_up: AtomicBool,
    /// The worker announced a clean departure ([`WorkerMsg::Leave`]); no
    /// resume will be attempted.
    departed: AtomicBool,
    /// Stamped by the loop on every inbound frame.
    last_seen: Mutex<Instant>,
    /// Outbound reliable frames awaiting cumulative ack.
    send_buf: Mutex<SendBuffer>,
    /// Inbound reliable-frame dedupe cursor.
    recv_cursor: Mutex<RecvCursor>,
    stats: ConnStats,
}

impl ConnShared {
    fn fresh() -> Self {
        ConnShared {
            open: AtomicBool::new(true),
            link_up: AtomicBool::new(true),
            departed: AtomicBool::new(false),
            last_seen: Mutex::new(Instant::now()),
            send_buf: Mutex::new(SendBuffer::default()),
            recv_cursor: Mutex::new(RecvCursor::new()),
            stats: ConnStats::default(),
        }
    }

    fn count_write(&self, frame_len: usize) {
        self.stats.frames_sent.fetch_add(1, Ordering::Relaxed);
        self.stats
            .bytes_sent
            .fetch_add(frame_len as u64 + 4, Ordering::Relaxed);
    }
}

/// What the controller thread asks of the I/O loop. Ordered per channel;
/// the loop drains the whole queue on every wakeup.
enum Cmd {
    /// Adopt a freshly handshaken socket for worker `w` (replacing any
    /// prior socket, which is dropped).
    Register {
        w: usize,
        stream: TcpStream,
        shared: Arc<ConnShared>,
    },
    /// Queue one already-sealed payload (length prefix added by the write
    /// queue) for worker `w`. Silently dropped when the socket is gone —
    /// the frame lives in the send window and a resume replays it.
    Send { w: usize, frame: Vec<u8> },
    /// Drop worker `w`'s socket after a bounded blocking flush of its
    /// write queue, then reply. When the reply arrives the loop has
    /// processed every frame it had read from the socket, so the receive
    /// cursor is quiescent — the precondition for a resume dial.
    Sever { w: usize, reply: Sender<()> },
    /// Flush-and-drop every socket and exit the loop thread.
    Shutdown,
}

/// One registered socket inside the I/O loop.
struct Slot {
    stream: TcpStream,
    frames: FrameBuf,
    wq: WriteQueue,
    shared: Arc<ConnShared>,
}

impl Slot {
    /// Best-effort bounded blocking flush, for deregistration: the last
    /// frames queued (clean `Shutdown`) should reach the peer, but a
    /// wedged peer must not stall the loop past [`DRAIN_TIMEOUT`].
    fn drain_before_close(&mut self) {
        if self.wq.is_empty() {
            return;
        }
        let _ = self.stream.set_nonblocking(false);
        let _ = self.stream.set_write_timeout(Some(DRAIN_TIMEOUT));
        let _ = self.wq.flush(&mut self.stream);
    }
}

/// Reconnect-loop state of a severed connection.
struct Resuming {
    /// Past this instant the session is declared dead.
    deadline: Instant,
    /// Earliest instant for the next dial attempt.
    next_attempt: Instant,
    /// Current backoff between attempts.
    backoff: Duration,
}

struct Conn {
    shared: Arc<ConnShared>,
    /// The `grout-workerd` child when this transport spawned it.
    child: Option<Child>,
    /// The worker's listen address, kept for resume re-dials and rejoin.
    addr: String,
    /// `Some` while the connection is severed and retrying.
    resuming: Option<Resuming>,
    /// Logical count of reliable control frames sent — the deterministic
    /// key for [`NetFaultPlan`] injection (retransmits and acks are not
    /// counted, so injection points never shift when a fault fires).
    ctrl_frames: u64,
    /// Injected partition: reconnect attempts are suppressed until this
    /// instant.
    partition_until: Option<Instant>,
}

/// The controller-side TCP transport; plug into
/// [`grout_core::RuntimeBuilder::build_with_transport`] (or use
/// [`crate::TcpExt::tcp`] which does it for you).
pub struct TcpTransport {
    conns: Vec<Conn>,
    from_workers: Receiver<WorkerMsg>,
    /// Command channel into the I/O loop.
    cmd_tx: Sender<Cmd>,
    wake: WakeHandle,
    io: Option<JoinHandle<()>>,
    failures: Vec<(usize, String)>,
    measured: Option<LinkMatrix>,
    stale_after: Duration,
    reconnect_window: Duration,
    heartbeat: Duration,
    probe_bytes: u64,
    probe_timeout: Duration,
    net_faults: NetFaultPlan,
    /// All worker listen addresses (re-sent in every hello; grows on
    /// [`Transport::join`]).
    peer_addrs: Vec<String>,
    /// Identifies this controller instance to workers; a resume hello
    /// carrying the same id revives the worker's parked session.
    session_id: u64,
}

impl TcpTransport {
    /// Connects to `addrs[i]` as worker `i`, performs the handshake, runs
    /// the bandwidth-probe round and returns the ready mesh. A worker that
    /// cannot be reached is recorded as a spawn failure (degraded start)
    /// rather than failing construction; the runtime quarantines it.
    ///
    /// `children[i]`, when given, is the spawned `grout-workerd` process
    /// backing worker `i`; the transport owns and reaps it.
    pub fn connect(addrs: &[String], mut children: Vec<Option<Child>>, cfg: &TcpConfig) -> Self {
        children.resize_with(addrs.len(), || None);
        let (to_controller, from_workers) = unbounded::<WorkerMsg>();
        let (cmd_tx, cmd_rx) = unbounded::<Cmd>();
        let waker = Waker::new().expect("bind loopback waker pair");
        let wake = waker.handle().expect("clone waker handle");
        let loop_out = to_controller.clone();
        let io = std::thread::Builder::new()
            .name("grout-net-io".into())
            .spawn(move || io_loop(waker, cmd_rx, loop_out))
            .expect("spawn I/O loop thread");
        let session_id = monotonic_ns() ^ (std::process::id() as u64) << 32;
        let mut failures = Vec::new();
        let mut conns = Vec::with_capacity(addrs.len());
        for (i, addr) in addrs.iter().enumerate() {
            let shared = Arc::new(ConnShared::fresh());
            let child = children[i].take();
            match Self::adopt(i, addr, addrs, cfg.heartbeat, session_id, None) {
                Ok((stream, _)) => {
                    let _ = cmd_tx.send(Cmd::Register {
                        w: i,
                        stream,
                        shared: Arc::clone(&shared),
                    });
                    wake.wake();
                }
                Err(e) => {
                    shared.open.store(false, Ordering::SeqCst);
                    shared.link_up.store(false, Ordering::SeqCst);
                    failures.push((i, e.to_string()));
                }
            }
            conns.push(Conn {
                shared,
                child,
                addr: addr.clone(),
                resuming: None,
                ctrl_frames: 0,
                partition_until: None,
            });
        }
        let mut t = TcpTransport {
            conns,
            from_workers,
            cmd_tx,
            wake,
            io: Some(io),
            failures,
            measured: None,
            stale_after: cfg.heartbeat * cfg.stale_after_beats,
            reconnect_window: cfg.reconnect_window,
            heartbeat: cfg.heartbeat,
            probe_bytes: cfg.probe_bytes,
            probe_timeout: cfg.probe_timeout,
            net_faults: cfg.net_faults.clone(),
            peer_addrs: addrs.to_vec(),
            session_id,
        };
        t.measured = Some(t.probe_round());
        t
    }

    /// Posts one command to the I/O loop and nudges it awake. `false`
    /// when the loop is gone (treat the socket as already dropped).
    fn cmd(&self, c: Cmd) -> bool {
        let ok = self.cmd_tx.send(c).is_ok();
        if ok {
            self.wake.wake();
        }
        ok
    }

    /// Dial + handshake one worker endpoint; returns the stream and the
    /// worker's ack (resume outcome, cursor).
    fn adopt(
        index: usize,
        addr: &str,
        peers: &[String],
        heartbeat: Duration,
        session_id: u64,
        resume: Option<u64>,
    ) -> Result<(TcpStream, wire::WorkerAck), wire::WireError> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(RESUME_ACK_TIMEOUT))?;
        wire::write_frame(
            &mut stream,
            &wire::encode_hello(&wire::Hello::Controller {
                index,
                total: peers.len(),
                heartbeat_ms: heartbeat.as_millis() as u32,
                peers: peers.to_vec(),
                session_id,
                resume,
            }),
        )?;
        let ack = wire::read_frame(&mut stream)?
            .ok_or_else(|| wire::WireError::Handshake("worker closed during handshake".into()))?;
        let ack = wire::decode_ack(&ack)?;
        if ack.index != index {
            return Err(wire::WireError::Handshake(format!(
                "worker acked index {}, expected {index}",
                ack.index
            )));
        }
        stream.set_read_timeout(None)?;
        Ok((stream, ack))
    }

    /// Severs the socket of worker `w` (if any) via the loop rendezvous —
    /// when it returns, the receive cursor is quiesced — and enters the
    /// resuming state.
    fn sever(&mut self, w: usize) {
        self.conns[w].shared.link_up.store(false, Ordering::SeqCst);
        self.rendezvous_drop(w);
        self.enter_resuming(w);
    }

    /// Asks the loop to drop worker `w`'s socket and waits for the reply.
    /// Cannot deadlock: the loop never blocks on the controller thread
    /// (it only posts to unbounded channels and does nonblocking socket
    /// I/O), so the reply always arrives — the bounded wait is pure
    /// defense against a dead loop thread.
    fn rendezvous_drop(&self, w: usize) {
        let (tx, rx) = unbounded::<()>();
        if self.cmd(Cmd::Sever { w, reply: tx }) {
            let _ = rx.recv_timeout(Duration::from_secs(2));
        }
    }

    fn enter_resuming(&mut self, w: usize) {
        if self.conns[w].resuming.is_none() {
            let now = Instant::now();
            self.conns[w].resuming = Some(Resuming {
                deadline: now + self.reconnect_window,
                next_attempt: now,
                backoff: RESUME_BACKOFF_START,
            });
        }
    }

    fn mark_dead(&mut self, w: usize) {
        self.conns[w].shared.open.store(false, Ordering::SeqCst);
        self.conns[w].shared.link_up.store(false, Ordering::SeqCst);
        self.conns[w].resuming = None;
        self.rendezvous_drop(w);
    }

    /// Drives the reconnect loop of a resuming connection. Returns the
    /// liveness the runtime should see right now.
    fn try_resume(&mut self, w: usize) -> Liveness {
        let now = Instant::now();
        let Some(r) = self.conns[w].resuming.as_ref() else {
            return Liveness::Alive;
        };
        let deadline = r.deadline;
        if let Some(until) = self.conns[w].partition_until {
            if now < until {
                // Injected partition: the peer is deterministically
                // unreachable; don't burn dial attempts.
                if now >= deadline {
                    self.mark_dead(w);
                    return Liveness::Dead;
                }
                return Liveness::Suspect;
            }
            self.conns[w].partition_until = None;
        }
        if now
            < self.conns[w]
                .resuming
                .as_ref()
                .expect("resuming")
                .next_attempt
        {
            return Liveness::Suspect;
        }
        match self.dial_resume(w) {
            Ok(()) => Liveness::Alive,
            Err(ResumeFail::Terminal(reason)) => {
                eprintln!("[grout-net] worker {w}: session unresumable ({reason})");
                self.mark_dead(w);
                Liveness::Dead
            }
            Err(ResumeFail::Retry) => {
                let now = Instant::now();
                if now >= deadline {
                    self.mark_dead(w);
                    return Liveness::Dead;
                }
                let r = self.conns[w].resuming.as_mut().expect("resuming");
                r.next_attempt = now + r.backoff;
                r.backoff = (r.backoff * 2).min(RESUME_BACKOFF_MAX);
                Liveness::Suspect
            }
        }
    }

    /// One resume attempt: dial, resume handshake, replay the unacked
    /// tail (blocking, on the fresh socket), then hand the socket to the
    /// I/O loop.
    fn dial_resume(&mut self, w: usize) -> Result<(), ResumeFail> {
        let addr = self.conns[w].addr.clone();
        let cursor = {
            let rc = self.conns[w].shared.recv_cursor.lock().expect("cursor");
            rc.cursor()
        };
        let (mut stream, ack) = Self::adopt(
            w,
            &addr,
            &self.peer_addrs,
            self.heartbeat,
            self.session_id,
            Some(cursor),
        )
        .map_err(|e| {
            let _ = e;
            ResumeFail::Retry
        })?;
        if !ack.resumed {
            return Err(ResumeFail::Terminal(
                "worker has no session state (restarted?)".into(),
            ));
        }
        // Replay everything the worker has not seen. A window that no
        // longer reaches back to the worker's cursor cannot resume
        // losslessly.
        let replay = {
            let sb = self.conns[w].shared.send_buf.lock().expect("send_buf");
            sb.replay_from(ack.cursor).ok_or_else(|| {
                ResumeFail::Terminal("send window trimmed past peer cursor".into())
            })?
        };
        for frame in &replay {
            wire::write_frame(&mut stream, frame).map_err(|e| {
                let _ = e;
                ResumeFail::Retry
            })?;
            self.conns[w].shared.count_write(frame.len());
        }
        let shared = &self.conns[w].shared;
        *shared.last_seen.lock().expect("last_seen lock") = Instant::now();
        shared.link_up.store(true, Ordering::SeqCst);
        shared.stats.resumes.fetch_add(1, Ordering::Relaxed);
        self.cmd(Cmd::Register {
            w,
            stream,
            shared: Arc::clone(shared),
        });
        self.conns[w].resuming = None;
        Ok(())
    }

    /// The startup probe round. Controller↔worker pairs are timed
    /// directly; worker↔worker pairs ride [`CtrlMsg::ProbePeer`] and come
    /// back as [`WorkerMsg::ProbeReport`]s. Bandwidth is `2·bytes/rtt`
    /// (ballast travels both directions). Unreachable pairs keep a
    /// conservative floor so min-transfer-time never divides by zero.
    fn probe_round(&mut self) -> LinkMatrix {
        let n = self.conns.len();
        let mut bw = vec![vec![PROBE_FLOOR_BPS; n + 1]; n + 1];
        let mut token = 0u64;
        for w in 0..n {
            self.probe_ctrl_link(w, &mut token, &mut bw);
        }
        for i in 0..n {
            for j in (i + 1)..n {
                self.probe_peer_link(i, j, &mut token, &mut bw);
            }
        }
        LinkMatrix::new(bw)
    }

    /// Times one controller↔worker ballast echo into `bw` (both
    /// directions; endpoint 0 is the controller).
    fn probe_ctrl_link(&mut self, w: usize, token: &mut u64, bw: &mut [Vec<f64>]) {
        if !self.endpoint_usable(w) {
            return;
        }
        *token += 1;
        let t = *token;
        let ballast = vec![0u8; self.probe_bytes as usize];
        let started = Instant::now();
        if self
            .send(
                w,
                CtrlMsg::Probe {
                    token: t,
                    payload: ballast,
                },
            )
            .is_err()
        {
            return;
        }
        if let Some(WorkerMsg::ProbeEcho { .. }) = self.await_probe(
            self.probe_timeout,
            |m| matches!(m, WorkerMsg::ProbeEcho { token: k, .. } if *k == t),
        ) {
            let elapsed = started.elapsed().as_secs_f64().max(1e-9);
            let bps = (2 * self.probe_bytes) as f64 / elapsed;
            bw[0][w + 1] = bps;
            bw[w + 1][0] = bps;
        }
    }

    /// Times one worker↔worker ballast echo (ordered pair measured once,
    /// recorded symmetric).
    fn probe_peer_link(&mut self, i: usize, j: usize, token: &mut u64, bw: &mut [Vec<f64>]) {
        if !self.endpoint_usable(i) || !self.endpoint_usable(j) {
            return;
        }
        *token += 1;
        let t = *token;
        if self
            .send(
                i,
                CtrlMsg::ProbePeer {
                    token: t,
                    to: j,
                    bytes: self.probe_bytes,
                },
            )
            .is_err()
        {
            return;
        }
        if let Some(WorkerMsg::ProbeReport {
            bytes, elapsed_ns, ..
        }) = self.await_probe(
            self.probe_timeout,
            |m| matches!(m, WorkerMsg::ProbeReport { worker, to, .. } if *worker == i && *to == j),
        ) {
            let elapsed = (elapsed_ns as f64 / 1e9).max(1e-9);
            let bps = (2 * bytes) as f64 / elapsed;
            bw[i + 1][j + 1] = bps;
            bw[j + 1][i + 1] = bps;
        }
    }

    /// Waits for the probe reply matching `pred`; any other traffic that
    /// arrives meanwhile would be plan traffic — impossible during a
    /// probe round — so it is dropped with a breadcrumb.
    fn await_probe(
        &mut self,
        timeout: Duration,
        pred: impl Fn(&WorkerMsg) -> bool,
    ) -> Option<WorkerMsg> {
        let deadline = Instant::now() + timeout;
        loop {
            let left = deadline.checked_duration_since(Instant::now())?;
            match self.from_workers.recv_timeout(left) {
                Ok(m) if pred(&m) => return Some(m),
                Ok(_) => {} // stale echo from a slower pair; ignore
                Err(_) => return None,
            }
        }
    }

    fn endpoint_usable(&self, w: usize) -> bool {
        let sh = &self.conns[w].shared;
        sh.link_up.load(Ordering::SeqCst) && sh.open.load(Ordering::SeqCst)
    }

    /// Pid of the spawned `grout-workerd` backing worker `w`, when this
    /// transport spawned one (chaos harness: real SIGKILL targets).
    pub fn child_pid(&self, w: usize) -> Option<u32> {
        self.conns
            .get(w)
            .and_then(|c| c.child.as_ref())
            .map(|c| c.id())
    }

    /// Pids of all spawned workers, by index (`None` = connected, not
    /// spawned).
    pub fn child_pids(&self) -> Vec<Option<u32>> {
        (0..self.conns.len()).map(|w| self.child_pid(w)).collect()
    }

    /// Forget the spawned child backing worker `w` without reaping it —
    /// the chaos harness uses this after it has killed and restarted the
    /// process itself.
    pub fn forget_child(&mut self, w: usize) -> Option<Child> {
        self.conns.get_mut(w).and_then(|c| c.child.take())
    }

    /// Hands ownership of a spawned `grout-workerd` backing worker `w` to
    /// the transport (elastic join: the daemon was spawned before the
    /// transport knew the worker existed). The child is reaped on
    /// [`Transport::shutdown`].
    pub fn attach_child(&mut self, w: usize, child: Child) {
        if let Some(c) = self.conns.get_mut(w) {
            c.child = Some(child);
        }
    }
}

/// Conservative bandwidth floor (1 MB/s): pessimistic but non-zero, so
/// min-transfer-time never divides by zero on an unprobed pair.
const PROBE_FLOOR_BPS: f64 = 1e6;

/// Why a resume attempt failed.
enum ResumeFail {
    /// Transient — retry with backoff inside the window.
    Retry,
    /// The session can never resume (worker restarted fresh, replay
    /// window trimmed); go straight to dead.
    Terminal(String),
}

/// Handles one logical (post-envelope) inbound payload inside the I/O
/// loop. Replies (clock pongs, session acks) go on the slot's write
/// queue. Returns false when the slot should be dropped.
fn handle_payload(
    worker: usize,
    inner: Vec<u8>,
    out: &Sender<WorkerMsg>,
    shared: &ConnShared,
    wq: &mut WriteQueue,
) -> bool {
    // Clock-sync + session frames live above the message tag space; peek
    // the tag and keep them inside the transport.
    match inner.first().copied() {
        Some(wire::CLOCK_PING_TAG) => {
            let t2 = monotonic_ns();
            if let Ok((_, t1)) = wire::decode_clock_ping(&inner) {
                let framed = wire::seal_ephemeral(&wire::encode_clock_pong(t1, t2));
                shared.count_write(framed.len());
                wq.enqueue(&framed);
            }
            return true;
        }
        Some(wire::CLOCK_SAMPLE_TAG) => {
            if let Ok((_, offset, rtt)) = wire::decode_clock_sample(&inner) {
                let mut clock = shared.stats.clock.lock().expect("clock lock");
                clock.0.record(rtt);
                clock.1.observe(monotonic_ns(), offset, rtt);
            }
            return true;
        }
        Some(wire::SESSION_ACK_TAG) => {
            if let Ok(cursor) = wire::decode_session_ack(&inner) {
                shared.send_buf.lock().expect("send_buf").ack(cursor);
            }
            return true;
        }
        _ => {}
    }
    match wire::decode_worker(&inner) {
        Ok(WorkerMsg::Heartbeat { .. }) => true, // liveness only
        Ok(WorkerMsg::Leave { .. }) => {
            // Clean departure: definitive — no resume, no staleness
            // ambiguity. Forward so the runtime re-plans its work.
            shared.departed.store(true, Ordering::SeqCst);
            shared.open.store(false, Ordering::SeqCst);
            shared.link_up.store(false, Ordering::SeqCst);
            let _ = out.send(WorkerMsg::Leave { worker });
            false
        }
        Ok(msg) => {
            if let WorkerMsg::Telemetry { backlog, spans, .. } = &msg {
                shared
                    .stats
                    .telemetry_batches
                    .fetch_add(1, Ordering::Relaxed);
                shared
                    .stats
                    .telemetry_spans
                    .fetch_add(spans.len() as u64, Ordering::Relaxed);
                shared
                    .stats
                    .telemetry_backlog
                    .store(*backlog, Ordering::Relaxed);
            }
            out.send(msg).is_ok()
        }
        Err(e) => {
            eprintln!("[grout-net] worker {worker}: {e}; closing");
            shared.link_up.store(false, Ordering::SeqCst);
            false
        }
    }
}

/// Processes one raw (pre-envelope) frame for a slot. Returns false when
/// the slot should be dropped.
fn process_frame(worker: usize, raw: Vec<u8>, slot: &mut Slot, out: &Sender<WorkerMsg>) -> bool {
    let shared = &slot.shared;
    *shared.last_seen.lock().expect("last_seen lock") = Instant::now();
    shared.stats.frames_recv.fetch_add(1, Ordering::Relaxed);
    shared
        .stats
        .bytes_recv
        .fetch_add(raw.len() as u64 + 4, Ordering::Relaxed);
    match wire::open_envelope(raw) {
        Ok(wire::Envelope::Ephemeral(inner)) => {
            handle_payload(worker, inner, out, shared, &mut slot.wq)
        }
        Ok(wire::Envelope::Reliable { seq, payload }) => {
            let (ready, ack_due, cursor) = {
                let mut rc = shared.recv_cursor.lock().expect("cursor");
                let before = rc.cursor();
                let ready = rc.accept(seq, payload);
                let after = rc.cursor();
                (ready, before / ACK_EVERY != after / ACK_EVERY, after)
            };
            for p in ready {
                if !handle_payload(worker, p, out, shared, &mut slot.wq) {
                    return false;
                }
            }
            if ack_due {
                let framed = wire::seal_ephemeral(&wire::encode_session_ack(cursor));
                shared.count_write(framed.len());
                slot.wq.enqueue(&framed);
            }
            true
        }
        Err(e) => {
            eprintln!("[grout-net] worker {worker}: bad envelope: {e}");
            shared.link_up.store(false, Ordering::SeqCst);
            false
        }
    }
}

/// Drains readable bytes and decodes frames for one slot; then flushes
/// any replies the frames generated. Returns false when the slot should
/// be dropped (EOF, socket error, protocol error, clean Leave).
fn drain_slot(worker: usize, slot: &mut Slot, out: &Sender<WorkerMsg>) -> bool {
    let open = matches!(read_available(&mut slot.stream, &mut slot.frames), Ok(true));
    loop {
        match slot.frames.next_frame() {
            Ok(Some(raw)) => {
                if !process_frame(worker, raw, slot, out) {
                    return false;
                }
            }
            Ok(None) => break,
            Err(e) => {
                eprintln!("[grout-net] worker {worker}: {e}; closing");
                slot.shared.link_up.store(false, Ordering::SeqCst);
                return false;
            }
        }
    }
    if !open {
        slot.shared.link_up.store(false, Ordering::SeqCst);
        return false;
    }
    if slot.wq.flush(&mut slot.stream).is_err() {
        slot.shared.link_up.store(false, Ordering::SeqCst);
        return false;
    }
    true
}

/// The controller's single I/O thread: multiplexes every registered
/// worker socket over `poll(2)`, decoding inbound frames into `out` and
/// flushing queued writes as the kernel accepts them. Commands arrive on
/// `cmd_rx`, signalled through the waker. The loop performs no blocking
/// operation other than `poll` itself, which is what makes the sever
/// rendezvous deadlock-free.
fn io_loop(waker: Waker, cmd_rx: Receiver<Cmd>, out: Sender<WorkerMsg>) {
    let mut slots: HashMap<usize, Slot> = HashMap::new();
    loop {
        // (Re)build the poll set: waker first, then every live socket.
        let mut fds = Vec::with_capacity(1 + slots.len());
        let mut ids = Vec::with_capacity(slots.len());
        fds.push(PollFd {
            fd: waker.fd(),
            events: POLLIN,
            revents: 0,
        });
        for (&w, slot) in slots.iter() {
            use std::os::fd::AsRawFd as _;
            let mut events = POLLIN;
            if !slot.wq.is_empty() {
                events |= POLLOUT;
            }
            fds.push(PollFd {
                fd: slot.stream.as_raw_fd(),
                events,
                revents: 0,
            });
            ids.push(w);
        }
        if poll_fds(&mut fds, None).is_err() {
            // Unrecoverable poll failure (EBADF would be a logic bug);
            // drop everything rather than spin.
            return;
        }
        waker.drain();
        // Drain the command queue before touching sockets, so a Sever
        // beats any not-yet-read bytes of the severed socket.
        let mut shutting_down = false;
        while let Ok(cmd) = cmd_rx.try_recv() {
            match cmd {
                Cmd::Register { w, stream, shared } => {
                    if stream.set_nonblocking(true).is_err() {
                        shared.link_up.store(false, Ordering::SeqCst);
                        continue;
                    }
                    slots.insert(
                        w,
                        Slot {
                            stream,
                            frames: FrameBuf::new(),
                            wq: WriteQueue::new(),
                            shared,
                        },
                    );
                }
                Cmd::Send { w, frame } => {
                    if let Some(slot) = slots.get_mut(&w) {
                        slot.shared.count_write(frame.len());
                        slot.wq.enqueue(&frame);
                        if slot.wq.flush(&mut slot.stream).is_err() {
                            slot.shared.link_up.store(false, Ordering::SeqCst);
                            slots.remove(&w);
                        }
                    }
                    // No slot: the link is down. The frame is in the send
                    // window and a resume replays it.
                }
                Cmd::Sever { w, reply } => {
                    if let Some(mut slot) = slots.remove(&w) {
                        slot.drain_before_close();
                        let _ = slot.stream.shutdown(std::net::Shutdown::Both);
                    }
                    let _ = reply.send(());
                }
                Cmd::Shutdown => shutting_down = true,
            }
        }
        if shutting_down {
            for (_, mut slot) in slots.drain() {
                slot.drain_before_close();
            }
            return;
        }
        // Readiness: fds[0] is the waker (already drained); fds[1..]
        // pairs with ids.
        for (k, fd) in fds.iter().enumerate().skip(1) {
            if fd.revents == 0 {
                continue;
            }
            let w = ids[k - 1];
            let Some(slot) = slots.get_mut(&w) else {
                continue; // a command above already dropped it
            };
            if fd.revents & (POLLIN | POLLHUP | POLLERR) != 0 {
                if !drain_slot(w, slot, &out) {
                    slots.remove(&w);
                    continue;
                }
            } else if fd.revents & POLLOUT != 0 && slot.wq.flush(&mut slot.stream).is_err() {
                slot.shared.link_up.store(false, Ordering::SeqCst);
                slots.remove(&w);
            }
        }
    }
}

impl Transport for TcpTransport {
    fn workers(&self) -> usize {
        self.conns.len()
    }

    fn kind(&self) -> &'static str {
        "tcp"
    }

    fn send(&mut self, worker: usize, msg: CtrlMsg) -> Result<(), SendLost> {
        let sh = &self.conns[worker].shared;
        if sh.departed.load(Ordering::SeqCst) || !sh.open.load(Ordering::SeqCst) {
            return Err(SendLost);
        }
        let payload = wire::encode_ctrl(&msg);

        // Deterministic chaos, keyed on the logical frame index so
        // injection points never shift when an earlier fault fires.
        let idx = self.conns[worker].ctrl_frames;
        self.conns[worker].ctrl_frames += 1;
        let mut severed = false;
        let mut partition_beats = None;
        for f in self.net_faults.at(worker, idx) {
            match f {
                NetFaultKind::Sever => severed = true,
                NetFaultKind::Partition { beats } => {
                    severed = true;
                    partition_beats = Some(beats);
                }
            }
        }
        if severed && self.conns[worker].resuming.is_none() {
            self.sever(worker);
            if let Some(beats) = partition_beats {
                self.conns[worker].partition_until =
                    Some(Instant::now() + self.heartbeat * beats as u32);
            }
        }

        // Seal + buffer first: once in the send window the frame survives
        // any socket fate until cumulatively acked.
        let frame = {
            let mut sb = self.conns[worker].shared.send_buf.lock().expect("send_buf");
            sb.seal(&payload)
        };
        if self.conns[worker].resuming.is_some() {
            // Try to come back right now — an injected sever against a
            // live worker resumes on the first attempt and stays
            // invisible to the planner.
            if self.try_resume(worker) == Liveness::Dead {
                return Err(SendLost);
            }
            // Resumed: the replay already carried this frame. Still
            // resuming: it will. Either way it is not lost.
            return Ok(());
        }
        if !self.conns[worker].shared.link_up.load(Ordering::SeqCst) {
            // The loop noticed the socket die since our last call: sever
            // cleanly (quiescing the cursor) and attempt an immediate
            // resume; the frame is already buffered.
            self.sever(worker);
            if self.try_resume(worker) == Liveness::Dead {
                return Err(SendLost);
            }
            return Ok(());
        }
        self.cmd(Cmd::Send { w: worker, frame });
        Ok(())
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<WorkerMsg, TransportRecvError> {
        self.from_workers
            .recv_timeout(timeout)
            .map_err(|e| match e {
                RecvTimeoutError::Timeout => TransportRecvError::Timeout,
                RecvTimeoutError::Disconnected => TransportRecvError::Disconnected,
            })
    }

    fn try_recv(&mut self) -> Option<WorkerMsg> {
        self.from_workers.try_recv().ok()
    }

    fn is_alive(&mut self, worker: usize) -> bool {
        self.liveness(worker) != Liveness::Dead
    }

    fn liveness(&mut self, worker: usize) -> Liveness {
        let sh = &self.conns[worker].shared;
        if sh.departed.load(Ordering::SeqCst) || !sh.open.load(Ordering::SeqCst) {
            return Liveness::Dead;
        }
        if self.conns[worker].resuming.is_some() {
            return self.try_resume(worker);
        }
        let link_down = !sh.link_up.load(Ordering::SeqCst);
        let stale = sh.last_seen.lock().expect("last_seen lock").elapsed() >= self.stale_after;
        if link_down || stale {
            // EOF/error already detected by the loop, or a
            // wedged-but-connected peer (SIGSTOP, partition): sever the
            // socket and re-dial — a worker that wakes inside the window
            // resumes, one that doesn't goes to quarantine.
            self.sever(worker);
            return self.try_resume(worker);
        }
        Liveness::Alive
    }

    fn reconnect(&mut self, worker: usize) -> bool {
        if self.conns[worker].shared.open.load(Ordering::SeqCst) {
            return true;
        }
        // Fresh adoption: the previous session is gone for good, so reset
        // the session state before dialing (resume: None tells the worker
        // to discard any parked engine and start clean).
        self.rendezvous_drop(worker);
        let addr = self.conns[worker].addr.clone();
        match Self::adopt(
            worker,
            &addr,
            &self.peer_addrs,
            self.heartbeat,
            self.session_id,
            None,
        ) {
            Ok((stream, _)) => {
                let shared = Arc::new(ConnShared::fresh());
                self.cmd(Cmd::Register {
                    w: worker,
                    stream,
                    shared: Arc::clone(&shared),
                });
                self.conns[worker].shared = shared;
                self.conns[worker].resuming = None;
                self.conns[worker].partition_until = None;
                true
            }
            Err(e) => {
                eprintln!("[grout-net] worker {worker}: rejoin failed: {e}");
                false
            }
        }
    }

    fn join(&mut self, addr: &str) -> Result<usize, String> {
        let w = self.conns.len();
        let mut peers = self.peer_addrs.clone();
        peers.push(addr.to_string());
        let shared = Arc::new(ConnShared::fresh());
        let (stream, _) = Self::adopt(w, addr, &peers, self.heartbeat, self.session_id, None)
            .map_err(|e| format!("join {addr}: {e}"))?;
        self.peer_addrs = peers;
        self.cmd(Cmd::Register {
            w,
            stream,
            shared: Arc::clone(&shared),
        });
        self.conns.push(Conn {
            shared,
            child: None,
            addr: addr.to_string(),
            resuming: None,
            ctrl_frames: 0,
            partition_until: None,
        });
        // Tell every existing worker the grown peer list so P2P traffic
        // reaches the newcomer.
        let update = CtrlMsg::Peers {
            addrs: self.peer_addrs.clone(),
        };
        for i in 0..w {
            if self.endpoint_usable(i) {
                let _ = self.send(i, update.clone());
            }
        }
        Ok(w)
    }

    fn probe_joined(&mut self, worker: usize) -> Option<LinkMatrix> {
        let n = self.conns.len();
        // Start from the measured matrix (grown to the new endpoint
        // count) so earlier measurements survive the incremental round.
        let mut bw = match &self.measured {
            Some(m) => {
                let g = m.grown(n + 1);
                (0..n + 1)
                    .map(|i| (0..n + 1).map(|j| g.raw(i, j)).collect())
                    .collect::<Vec<Vec<f64>>>()
            }
            None => vec![vec![PROBE_FLOOR_BPS; n + 1]; n + 1],
        };
        // Token space above the startup round's so late echoes of that
        // round can never satisfy this one.
        let mut token = (worker as u64 + 1) << 32;
        self.probe_ctrl_link(worker, &mut token, &mut bw);
        for i in 0..n {
            if i != worker {
                let (a, b) = (i.min(worker), i.max(worker));
                self.probe_peer_link(a, b, &mut token, &mut bw);
            }
        }
        self.measured = Some(LinkMatrix::new(bw));
        self.measured.clone()
    }

    fn shutdown(&mut self, worker: usize) {
        // Best-effort clean shutdown frame; the socket may already be
        // dead. The Sever rendezvous drains the write queue (bounded)
        // before closing, so the frame gets out to a live worker.
        let payload = wire::encode_ctrl(&CtrlMsg::Shutdown);
        let frame = {
            let mut sb = self.conns[worker].shared.send_buf.lock().expect("send_buf");
            sb.seal(&payload)
        };
        self.cmd(Cmd::Send { w: worker, frame });
        self.rendezvous_drop(worker);
        self.conns[worker]
            .shared
            .open
            .store(false, Ordering::SeqCst);
        self.conns[worker]
            .shared
            .link_up
            .store(false, Ordering::SeqCst);
        self.conns[worker].resuming = None;
        if let Some(mut child) = self.conns[worker].child.take() {
            // Bounded reap: give the process a moment to exit cleanly,
            // then kill. No zombies either way.
            let deadline = Instant::now() + Duration::from_secs(2);
            loop {
                match child.try_wait() {
                    Ok(Some(_)) => break,
                    Ok(None) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(10));
                    }
                    _ => {
                        let _ = child.kill();
                        let _ = child.wait();
                        break;
                    }
                }
            }
        }
    }

    fn spawn_failures(&self) -> &[(usize, String)] {
        &self.failures
    }

    fn measured_links(&self) -> Option<&LinkMatrix> {
        self.measured.as_ref()
    }

    fn clock_offset_ns(&mut self, worker: usize) -> i64 {
        let clock = self.conns[worker]
            .shared
            .stats
            .clock
            .lock()
            .expect("clock lock");
        clock.1.offset_at(monotonic_ns())
    }

    fn wire_stats(&self) -> Vec<PeerWireStats> {
        self.conns
            .iter()
            .map(|c| {
                let clock = c.shared.stats.clock.lock().expect("clock lock");
                PeerWireStats {
                    frames_sent: c.shared.stats.frames_sent.load(Ordering::Relaxed),
                    bytes_sent: c.shared.stats.bytes_sent.load(Ordering::Relaxed),
                    frames_recv: c.shared.stats.frames_recv.load(Ordering::Relaxed),
                    bytes_recv: c.shared.stats.bytes_recv.load(Ordering::Relaxed),
                    hb_rtt: clock.0,
                    clock_offset_ns: clock.1.offset_at(monotonic_ns()),
                    telemetry_batches: c.shared.stats.telemetry_batches.load(Ordering::Relaxed),
                    telemetry_spans: c.shared.stats.telemetry_spans.load(Ordering::Relaxed),
                    telemetry_backlog: c.shared.stats.telemetry_backlog.load(Ordering::Relaxed),
                    resumes: c.shared.stats.resumes.load(Ordering::Relaxed),
                }
            })
            .collect()
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        for w in 0..self.conns.len() {
            self.shutdown(w);
        }
        let _ = self.cmd_tx.send(Cmd::Shutdown);
        self.wake.wake();
        if let Some(io) = self.io.take() {
            let _ = io.join();
        }
    }
}
