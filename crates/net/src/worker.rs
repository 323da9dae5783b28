//! The worker side of the TCP mesh: [`serve_shutdown`], the body of the
//! `grout-workerd` binary.
//!
//! One process hosts one [`WorkerEngine`] — the same transport-agnostic
//! state machine the in-process threads run — driven by a **single
//! thread**: a `poll(2)` event loop (see [`crate::poll`]) multiplexes the
//! listener, the controller socket, every inbound peer socket and every
//! not-yet-classified accepted socket. Message handling stays sequential
//! exactly like the crossbeam worker loop; heartbeats, clock pings and
//! telemetry flush ticks are poll-timeout deadlines instead of dedicated
//! threads, and controller-bound writes go through a nonblocking
//! [`WriteQueue`] flushed as the kernel accepts bytes.
//!
//! - the controller connection (an accepted socket carrying a controller
//!   hello) delivers plan traffic,
//! - inbound peer sockets (accepted, peer hello) deliver P2P data,
//! - outbound peer traffic dials `peers[j]` on demand; each direction of
//!   each worker pair gets its own one-way socket, which avoids any
//!   dial/dial race without a connection-brokering protocol.
//!
//! ## Session resume and re-adoption
//!
//! Every accepted socket is classified by its hello, so a controller
//! hello is welcome at any time, not just first. Every session is
//! *resumable*: losing the controller socket parks the session — the
//! engine, both reliable-stream cursors and the outbound peer sockets
//! survive — and the worker keeps driving peer traffic through the parked
//! engine, buffering controller-bound output in its [`SendBuffer`]. A
//! controller hello carrying the same session id and a resume cursor
//! revives the parked session: the worker acks with its own receive
//! cursor, both sides replay their unacked tails, and the run continues
//! as if the socket had never died. A hello *without* a resume cursor (a
//! fresh adoption — standby takeover, or a rejoin after quarantine)
//! discards any parked state and starts a clean session. A hello that
//! does not decode (wrong wire version, bad magic) is logged as
//! `handshake_rejected` and its socket dropped; the endpoint stays
//! adoptable.
//!
//! ## Elastic membership
//!
//! [`CtrlMsg::Peers`] re-announces the (grown) peer address list when a
//! worker joins the mesh mid-run; the session extends its outbound peer
//! table so P2P data reaches the newcomer. [`CtrlMsg::Leave`] asks for a
//! clean departure: the engine flushes telemetry, acks with
//! [`WorkerMsg::Leave`] and halts — the process exits `Ok` exactly like a
//! `Shutdown` frame.
//!
//! Only a clean `Shutdown` frame, a [`CtrlMsg::Leave`], SIGTERM (see
//! [`serve_shutdown`]) or an injected crash exits the process.

use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use grout_core::eventlog::{global as log, Value};
use grout_core::{
    monotonic_ns, CtrlMsg, Flow, Outbound, WorkerEngine, WorkerMsg, TELEMETRY_FLUSH_TICK,
};

use crate::poll::{poll_fds, read_available, FrameBuf, PollFd, WriteQueue};
use crate::poll::{POLLERR, POLLHUP, POLLIN, POLLOUT};
use crate::session::{RecvCursor, SendBuffer, ACK_EVERY};
use crate::wire;

/// Upper bound on one poll sleep, so the SIGTERM flag is observed
/// promptly even while idle and parked.
const MAX_POLL: Duration = Duration::from_millis(200);
/// Bound on the final blocking flush of the controller write queue on
/// exit (clean `Leave`/`Shutdown` acks should reach a live controller; a
/// dead one must not wedge the process).
const EXIT_FLUSH_TIMEOUT: Duration = Duration::from_millis(500);

/// The live controller socket plus its timers and buffers.
struct CtrlSock {
    stream: TcpStream,
    frames: FrameBuf,
    wq: WriteQueue,
    cadence: Duration,
    next_beat: Instant,
}

/// An accepted socket whose hello has not fully arrived yet.
struct Pending {
    stream: TcpStream,
    frames: FrameBuf,
}

/// An inbound peer socket (read-only; peers never expect replies).
struct PeerIn {
    from: usize,
    stream: TcpStream,
    frames: FrameBuf,
}

/// One worker session: the engine plus everything that must survive a
/// controller-socket loss for a resume to be lossless.
struct Session {
    session_id: u64,
    me: usize,
    engine: WorkerEngine,
    /// Outbound reliable frames awaiting cumulative ack — and the replay
    /// source on resume.
    send_buf: SendBuffer,
    /// Inbound reliable dedupe cursor.
    recv_cursor: RecvCursor,
    peer_addrs: Vec<String>,
    /// Outbound peer sockets, dialed on demand (worker index → stream).
    /// Survive parking so P2P keeps flowing through a controller outage.
    peer_out: Vec<Option<TcpStream>>,
}

impl Session {
    fn fresh(a: &CtrlHello) -> Session {
        Session {
            session_id: a.session_id,
            me: a.me,
            engine: WorkerEngine::new(a.me),
            send_buf: SendBuffer::default(),
            recv_cursor: RecvCursor::new(),
            peer_addrs: a.peers.clone(),
            peer_out: (0..a.peers.len()).map(|_| None).collect(),
        }
    }

    /// Applies a [`CtrlMsg::Peers`] membership update: the address list
    /// only ever grows (indices are stable), and existing outbound
    /// sockets are kept.
    fn set_peers(&mut self, addrs: Vec<String>) {
        if addrs.len() > self.peer_out.len() {
            self.peer_out.resize_with(addrs.len(), || None);
        }
        log().info(
            "peer_list_updated",
            None,
            &format!(
                "[grout-workerd w{}] peer list updated: {} workers",
                self.me,
                addrs.len()
            ),
            &[
                ("worker", Value::U64(self.me as u64)),
                ("peers", Value::U64(addrs.len() as u64)),
            ],
        );
        self.peer_addrs = addrs;
    }

    /// Telemetry flush tick: ship buffered spans even when no plan
    /// traffic arrives to trigger a flush (into the send buffer only
    /// while parked).
    fn flush_telemetry(&mut self, mut wq: Option<&mut WriteQueue>) {
        let Session {
            engine, send_buf, ..
        } = self;
        engine.flush_telemetry(&mut |o| {
            if let Outbound::Controller(m) = o {
                to_controller(send_buf, wq.as_deref_mut(), &m);
            }
        });
    }
}

/// Seals one controller-bound message into the send window and queues it
/// on the controller socket, if there is one.
fn to_controller(send_buf: &mut SendBuffer, wq: Option<&mut WriteQueue>, m: &WorkerMsg) {
    let framed = send_buf.seal(&wire::encode_worker(m));
    if let Some(wq) = wq {
        wq.enqueue(&framed);
    }
}

/// What one dispatched message asks of the serve loop.
#[derive(PartialEq)]
enum Step {
    Continue,
    /// Clean exit (Shutdown frame, Leave, engine halt).
    Exit,
    /// The controller socket is gone (EOF, write error, bad frame): park
    /// the session until a resume or a fresh adoption.
    CtrlGone,
}

/// Serves one worker endpoint until a clean `Shutdown` frame or
/// [`CtrlMsg::Leave`] — or until `shutdown` is set (the binary's SIGTERM
/// handler), upon which buffered telemetry is flushed, a clean
/// [`WorkerMsg::Leave`] is sent so the controller re-plans immediately
/// instead of waiting out the staleness window, and the function returns
/// `Ok(())`.
///
/// The whole endpoint is **one thread**: listener, controller socket,
/// peer sockets, heartbeats and telemetry ticks all multiplex over one
/// `poll(2)` loop — a 64-worker host runs 64 serve threads, not hundreds
/// of per-socket ones.
///
/// Survives controller loss: the session is parked and can be resumed by
/// a controller hello carrying the same session id (see the module docs).
/// Errors only if the listener itself dies.
pub fn serve_shutdown(
    listener: TcpListener,
    shutdown: Arc<AtomicBool>,
) -> Result<(), wire::WireError> {
    listener.set_nonblocking(true)?;
    let mut session: Option<Session> = None;
    let mut ctrl: Option<CtrlSock> = None;
    let mut pending: Vec<Pending> = Vec::new();
    let mut peers_in: Vec<PeerIn> = Vec::new();
    let mut next_flush = Instant::now() + TELEMETRY_FLUSH_TICK;

    loop {
        if shutdown.load(Ordering::SeqCst) {
            if let (Some(s), Some(c)) = (session.as_mut(), ctrl.as_mut()) {
                graceful_leave(s, c);
            }
            return Ok(());
        }

        // Deadline-driven timers: telemetry flush always, heartbeat while
        // a controller is attached; capped so SIGTERM is noticed.
        let now = Instant::now();
        let mut deadline = next_flush.min(now + MAX_POLL);
        if let Some(c) = ctrl.as_ref() {
            deadline = deadline.min(c.next_beat);
        }
        let timeout = deadline.saturating_duration_since(now);

        // Poll set: listener, controller, pending handshakes, peers.
        use std::os::fd::AsRawFd as _;
        let mut fds = vec![PollFd {
            fd: listener.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        }];
        let ctrl_at = ctrl.as_ref().map(|c| {
            let mut events = POLLIN;
            if !c.wq.is_empty() {
                events |= POLLOUT;
            }
            fds.push(PollFd {
                fd: c.stream.as_raw_fd(),
                events,
                revents: 0,
            });
            fds.len() - 1
        });
        let pending_at = fds.len();
        for p in &pending {
            fds.push(PollFd {
                fd: p.stream.as_raw_fd(),
                events: POLLIN,
                revents: 0,
            });
        }
        let peers_at = fds.len();
        for p in &peers_in {
            fds.push(PollFd {
                fd: p.stream.as_raw_fd(),
                events: POLLIN,
                revents: 0,
            });
        }
        poll_fds(&mut fds, Some(timeout))?;

        // New connections.
        if fds[0].revents & POLLIN != 0 {
            loop {
                match listener.accept() {
                    Ok((stream, _)) => {
                        if stream.set_nodelay(true).is_err()
                            || stream.set_nonblocking(true).is_err()
                        {
                            continue;
                        }
                        pending.push(Pending {
                            stream,
                            frames: FrameBuf::new(),
                        });
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(e.into()),
                }
            }
        }

        // Controller traffic.
        if let Some(at) = ctrl_at {
            let rev = fds[at].revents;
            if rev != 0 {
                let c = ctrl.as_mut().expect("ctrl present");
                let step = if rev & (POLLIN | POLLHUP | POLLERR) != 0 {
                    drive_ctrl_readable(c, &mut session)
                } else if c.wq.flush(&mut c.stream).is_err() {
                    Step::CtrlGone
                } else {
                    Step::Continue
                };
                match step {
                    Step::Continue => {}
                    Step::Exit => {
                        if let Some(c) = ctrl.as_mut() {
                            exit_flush(c);
                        }
                        return Ok(());
                    }
                    Step::CtrlGone => ctrl_gone(&mut ctrl, &session),
                }
            }
        }

        // Handshakes: classify each readable pending socket by its hello.
        let mut verdicts: Vec<(usize, Classified)> = Vec::new();
        for (i, p) in pending.iter_mut().enumerate() {
            let at = pending_at + i;
            if fds.get(at).map_or(0, |f| f.revents) & (POLLIN | POLLHUP | POLLERR) == 0 {
                continue;
            }
            verdicts.push((i, classify(p)));
        }
        for (i, verdict) in verdicts.into_iter().rev() {
            let p = pending.swap_remove(i);
            match verdict {
                Classified::NotYet => {
                    pending.push(p); // hello still incomplete; keep waiting
                }
                Classified::Drop => {}
                Classified::Peer { from } => {
                    let me = session.as_ref().map_or(usize::MAX, |s| s.me);
                    log().info(
                        "peer_connected",
                        None,
                        &format!("[grout-workerd w{me}] peer {from} connected"),
                        &[("peer", Value::U64(from as u64))],
                    );
                    let mut peer = PeerIn {
                        from,
                        stream: p.stream,
                        frames: p.frames,
                    };
                    // Frames may have ridden in behind the hello; drain
                    // them now (no new bytes, no POLLIN).
                    if drive_peer_frames(&mut peer, &mut session, &mut ctrl) == Step::Exit {
                        if let Some(c) = ctrl.as_mut() {
                            exit_flush(c);
                        }
                        return Ok(());
                    }
                    peers_in.push(peer);
                }
                Classified::Controller(hello) => {
                    if adopt(p.stream, p.frames, *hello, &mut session, &mut ctrl) == Step::Exit {
                        return Ok(());
                    }
                }
            }
        }

        // Peer traffic.
        let mut gone: Vec<usize> = Vec::new();
        let mut exit = false;
        for (i, p) in peers_in.iter_mut().enumerate() {
            let at = peers_at + i;
            if fds.get(at).map_or(0, |f| f.revents) & (POLLIN | POLLHUP | POLLERR) == 0 {
                continue;
            }
            let open = matches!(read_available(&mut p.stream, &mut p.frames), Ok(true));
            if drive_peer_frames(p, &mut session, &mut ctrl) == Step::Exit {
                exit = true;
                break;
            }
            if !open {
                let me = session.as_ref().map_or(usize::MAX, |s| s.me);
                log().warn(
                    "peer_disconnected",
                    None,
                    &format!("[grout-workerd w{me}] peer {} disconnected", p.from),
                    &[("peer", Value::U64(p.from as u64))],
                );
                gone.push(i);
            }
        }
        if exit {
            if let Some(c) = ctrl.as_mut() {
                exit_flush(c);
            }
            return Ok(());
        }
        for i in gone.into_iter().rev() {
            peers_in.swap_remove(i);
        }

        // Timers.
        let now = Instant::now();
        if let (Some(c), Some(s)) = (ctrl.as_mut(), session.as_mut()) {
            if now >= c.next_beat {
                heartbeat(c, s);
                while c.next_beat <= now {
                    c.next_beat += c.cadence;
                }
                if c.wq.flush(&mut c.stream).is_err() {
                    ctrl_gone(&mut ctrl, &session);
                }
            }
        }
        if now >= next_flush {
            next_flush = now + TELEMETRY_FLUSH_TICK;
            if let Some(s) = session.as_mut() {
                s.flush_telemetry(ctrl.as_mut().map(|c| &mut c.wq));
            }
            if ctrl
                .as_mut()
                .is_some_and(|c| c.wq.flush(&mut c.stream).is_err())
            {
                ctrl_gone(&mut ctrl, &session);
            }
        }
    }
}

/// A decoded controller hello, minus the socket it arrived on.
struct CtrlHello {
    me: usize,
    total: usize,
    heartbeat_ms: u32,
    peers: Vec<String>,
    /// The controller instance's session id.
    session_id: u64,
    /// `Some(cursor)` = resume request: the controller has every reliable
    /// frame below `cursor` and wants the rest replayed.
    resume: Option<u64>,
}

/// Outcome of reading a pending socket's hello.
enum Classified {
    /// Hello incomplete; keep the socket pending.
    NotYet,
    /// EOF, error or rejected hello; drop the socket.
    Drop,
    Peer {
        from: usize,
    },
    Controller(Box<CtrlHello>),
}

fn classify(p: &mut Pending) -> Classified {
    let open = matches!(read_available(&mut p.stream, &mut p.frames), Ok(true));
    let hello = match p.frames.next_frame() {
        Ok(Some(hello)) => wire::decode_hello(&hello),
        Ok(None) if open => return Classified::NotYet,
        Ok(None) => return Classified::Drop, // closed before any hello
        Err(e) => Err(e.into()),
    };
    let reason = match hello {
        Ok(wire::Hello::Peer { from }) => return Classified::Peer { from },
        Ok(wire::Hello::Controller {
            index,
            total,
            heartbeat_ms,
            peers,
            session_id,
            resume,
        }) => {
            return Classified::Controller(Box::new(CtrlHello {
                me: index,
                total,
                heartbeat_ms,
                peers,
                session_id,
                resume,
            }))
        }
        // Tenant clients belong on a `grout-ctld` control plane, not on a
        // worker's data plane.
        Ok(wire::Hello::Client) => "client hello on a worker endpoint".to_string(),
        Err(e) => e.to_string(),
    };
    // The dialer only sees "closed during handshake"; say why here, so a
    // version-skewed fleet is diagnosable from this side's log.
    let peer = p
        .stream
        .peer_addr()
        .map_or_else(|_| "unknown".to_string(), |a| a.to_string());
    let msg = format!("[grout-workerd] rejected handshake from {peer}: {reason}");
    log().warn(
        "handshake_rejected",
        None,
        &msg,
        &[
            ("peer_addr", Value::String(peer)),
            ("reason", Value::String(reason)),
        ],
    );
    Classified::Drop
}

/// Handles a controller hello: fresh adoption, in-place session revival,
/// or supersession of the current socket. On success `ctrl` holds the
/// new socket with the handshake ack (and any resume replay) queued.
/// `carry` holds bytes that arrived behind the hello in the same read.
fn adopt(
    mut stream: TcpStream,
    carry: FrameBuf,
    a: CtrlHello,
    session: &mut Option<Session>,
    ctrl: &mut Option<CtrlSock>,
) -> Step {
    let resumable = a.resume.is_some()
        && session
            .as_ref()
            .is_some_and(|s| s.session_id == a.session_id);
    if !resumable {
        *session = Some(Session::fresh(&a));
    }
    let s = session.as_mut().expect("session");
    // Quiesce any current socket: the new hello supersedes it (the
    // controller severed a stale or injected-dead socket and re-dialed,
    // or a standby took over).
    if let Some(old) = ctrl.take() {
        let _ = old.stream.shutdown(std::net::Shutdown::Both);
    }
    let mut wq = WriteQueue::new();
    let resumed = if resumable {
        let cursor = a.resume.expect("resume cursor");
        match s.send_buf.replay_from(cursor) {
            Some(frames) => {
                wq.enqueue(&wire::encode_ack(s.me, true, s.recv_cursor.cursor()));
                for f in &frames {
                    wq.enqueue(f);
                }
                true
            }
            None => {
                // Window trimmed past the controller's cursor: this
                // session can never resume losslessly. Tell the
                // controller (it goes to quarantine + fresh rejoin) and
                // drop the socket; the session stays parked.
                let mut t = WriteQueue::new();
                t.enqueue(&wire::encode_ack(s.me, false, s.recv_cursor.cursor()));
                let _ = t.flush(&mut stream);
                return Step::CtrlGone;
            }
        }
    } else {
        wq.enqueue(&wire::encode_ack(s.me, false, s.recv_cursor.cursor()));
        false
    };
    // The "adopted by controller" phrasing inside `msg` is a stable
    // contract: CI's distributed smoke test greps for it.
    log().info(
        if resumed {
            "controller_resumed"
        } else {
            "controller_adopted"
        },
        None,
        &format!(
            "[grout-workerd w{}] {} controller (wire v{}, {} workers, heartbeat {}ms{})",
            s.me,
            if resumed { "resumed" } else { "adopted by" },
            wire::WIRE_VERSION,
            a.total,
            a.heartbeat_ms,
            if resumed { ", session revived" } else { "" },
        ),
        &[
            ("worker", Value::U64(s.me as u64)),
            ("wire_version", Value::U64(wire::WIRE_VERSION as u64)),
            ("total_workers", Value::U64(a.total as u64)),
        ],
    );
    let mut c = CtrlSock {
        stream,
        frames: carry,
        wq,
        cadence: Duration::from_millis(a.heartbeat_ms.max(1) as u64),
        // Beat immediately so even a run shorter than one cadence yields
        // an RTT sample.
        next_beat: Instant::now(),
    };
    if c.wq.flush(&mut c.stream).is_err() {
        log_parked(session);
        return Step::CtrlGone;
    }
    // Frames may have ridden in behind the hello (none today — the
    // controller waits for our ack — but the decoder must not rely on
    // that).
    let step = drive_ctrl_frames(&mut c, session);
    match step {
        Step::Continue => *ctrl = Some(c),
        Step::Exit => exit_flush(&mut c),
        Step::CtrlGone => log_parked(session),
    }
    step
}

/// The controller socket died or misbehaved: drop it; the session stays
/// parked for a resume.
fn ctrl_gone(ctrl: &mut Option<CtrlSock>, session: &Option<Session>) {
    *ctrl = None;
    log_parked(session);
}

fn log_parked(session: &Option<Session>) {
    let Some(me) = session.as_ref().map(|s| s.me) else {
        return;
    };
    log().warn(
        "controller_lost",
        None,
        &format!("[grout-workerd w{me}] controller lost; session parked, awaiting resume"),
        &[("worker", Value::U64(me as u64))],
    );
}

/// Reads whatever the controller socket has, decodes and dispatches every
/// complete frame, then flushes replies.
fn drive_ctrl_readable(c: &mut CtrlSock, session: &mut Option<Session>) -> Step {
    let open = matches!(read_available(&mut c.stream, &mut c.frames), Ok(true));
    let step = drive_ctrl_frames(c, session);
    if step != Step::Continue {
        return step;
    }
    if !open || c.wq.flush(&mut c.stream).is_err() {
        return Step::CtrlGone;
    }
    Step::Continue
}

/// Decodes and dispatches every complete frame buffered for the
/// controller socket.
fn drive_ctrl_frames(c: &mut CtrlSock, session: &mut Option<Session>) -> Step {
    loop {
        let raw = match c.frames.next_frame() {
            Ok(Some(raw)) => raw,
            Ok(None) => return Step::Continue,
            Err(e) => {
                log().warn(
                    "ctrl_bad_framing",
                    None,
                    &format!("[grout-workerd] bad controller framing: {e}"),
                    &[],
                );
                return Step::CtrlGone;
            }
        };
        let step = match wire::open_envelope(raw) {
            Ok(wire::Envelope::Ephemeral(inner)) => handle_ctrl_payload(inner, c, session),
            Ok(wire::Envelope::Reliable { seq, payload }) => {
                let Some(s) = session.as_mut() else {
                    return Step::CtrlGone; // no session: protocol error
                };
                let before = s.recv_cursor.cursor();
                let ready = s.recv_cursor.accept(seq, payload);
                let after = s.recv_cursor.cursor();
                let mut step = Step::Continue;
                for payload in ready {
                    step = handle_ctrl_payload(payload, c, session);
                    if step != Step::Continue {
                        break;
                    }
                }
                if step == Step::Continue && before / ACK_EVERY != after / ACK_EVERY {
                    c.wq.enqueue(&wire::seal_ephemeral(&wire::encode_session_ack(after)));
                }
                step
            }
            Err(e) => {
                log().warn(
                    "ctrl_bad_envelope",
                    None,
                    &format!("[grout-workerd] bad controller envelope: {e}"),
                    &[],
                );
                Step::CtrlGone
            }
        };
        if step != Step::Continue {
            return step;
        }
    }
}

/// Handles one logical (post-envelope) controller payload:
/// transport-internal frames (clock pongs, session acks) inline, plan
/// traffic through the engine.
fn handle_ctrl_payload(inner: Vec<u8>, c: &mut CtrlSock, session: &mut Option<Session>) -> Step {
    // Clock pongs complete the NTP-style exchange immediately — t4 is
    // stamped in the same loop turn the bytes arrived.
    if inner.first() == Some(&wire::CLOCK_PONG_TAG) {
        let t4 = monotonic_ns();
        if let Ok((t1, t2)) = wire::decode_clock_pong(&inner) {
            let offset = t2 as i64 - ((t1 + t4) / 2) as i64;
            let rtt = t4.saturating_sub(t1);
            if let Some(s) = session.as_ref() {
                let sample = wire::encode_clock_sample(s.me, offset, rtt);
                c.wq.enqueue(&wire::seal_ephemeral(&sample));
            }
        }
        return Step::Continue;
    }
    if inner.first() == Some(&wire::SESSION_ACK_TAG) {
        if let (Ok(cursor), Some(s)) = (wire::decode_session_ack(&inner), session.as_mut()) {
            s.send_buf.ack(cursor);
        }
        return Step::Continue;
    }
    let msg = match wire::decode_ctrl(&inner) {
        Ok(msg) => msg,
        Err(e) => {
            log().warn(
                "ctrl_bad_frame",
                None,
                &format!("[grout-workerd] bad controller frame: {e}"),
                &[],
            );
            return Step::CtrlGone;
        }
    };
    let Some(s) = session.as_mut() else {
        return Step::CtrlGone;
    };
    drive_msg(msg, s, Some(&mut c.wq))
}

/// Drains and dispatches every complete frame buffered on one inbound
/// peer socket. Peer messages never write to the controller
/// synchronously, so the only non-Continue outcome is an engine halt.
fn drive_peer_frames(
    p: &mut PeerIn,
    session: &mut Option<Session>,
    ctrl: &mut Option<CtrlSock>,
) -> Step {
    loop {
        let raw = match p.frames.next_frame() {
            Ok(Some(raw)) => raw,
            Ok(None) => return Step::Continue,
            Err(e) => {
                log().warn(
                    "peer_bad_framing",
                    None,
                    &format!("[grout-workerd] peer {} bad framing: {e}", p.from),
                    &[("peer", Value::U64(p.from as u64))],
                );
                return Step::Continue; // socket dropped by caller on EOF
            }
        };
        let Ok(msg) = wire::decode_ctrl(&raw) else {
            log().warn(
                "peer_bad_frame",
                None,
                &format!(
                    "[grout-workerd] peer {} sent a bad frame; dropping it",
                    p.from
                ),
                &[("peer", Value::U64(p.from as u64))],
            );
            return Step::Continue;
        };
        let step = match session.as_mut() {
            Some(s) => drive_msg(msg, s, ctrl.as_mut().map(|c| &mut c.wq)),
            None => Step::Continue, // no session yet: drop stray peer data
        };
        if step == Step::Exit {
            return step;
        }
    }
}

/// Dispatches one [`CtrlMsg`] into the session: membership updates are
/// transport-level, everything else drives the engine. Controller-bound
/// output is sealed into the send buffer — where it survives any socket
/// fate until acked, and from where a resume replays it — and queued on
/// `wq`, the controller socket's write queue, when one is attached. Peer
/// output flows either way.
fn drive_msg(msg: CtrlMsg, s: &mut Session, mut wq: Option<&mut WriteQueue>) -> Step {
    if let CtrlMsg::Peers { addrs } = msg {
        s.set_peers(addrs);
        return Step::Continue;
    }
    let Session {
        me,
        engine,
        send_buf,
        peer_addrs,
        peer_out,
        ..
    } = s;
    let me = *me;
    let flow = engine.handle(msg, &mut |o| match o {
        Outbound::Controller(m) => to_controller(send_buf, wq.as_deref_mut(), &m),
        Outbound::Peer(j, m) => send_to_peer(me, j, peer_addrs, peer_out, &m),
    });
    if flow == Flow::Halt {
        Step::Exit
    } else {
        Step::Continue
    }
}

/// One heartbeat tick: beat, clock ping and a piggybacked cumulative ack
/// (so an idle stream still gets its controller-side send window
/// trimmed) — all ephemeral, all queued on the controller socket.
fn heartbeat(c: &mut CtrlSock, s: &Session) {
    for payload in [
        wire::encode_worker(&WorkerMsg::Heartbeat { worker: s.me }),
        wire::encode_clock_ping(s.me, monotonic_ns()),
        wire::encode_session_ack(s.recv_cursor.cursor()),
    ] {
        c.wq.enqueue(&wire::seal_ephemeral(&payload));
    }
}

/// SIGTERM path: flush buffered telemetry, announce a clean departure so
/// the controller re-plans immediately, flush the socket.
fn graceful_leave(s: &mut Session, c: &mut CtrlSock) {
    s.flush_telemetry(Some(&mut c.wq));
    to_controller(
        &mut s.send_buf,
        Some(&mut c.wq),
        &WorkerMsg::Leave { worker: s.me },
    );
    exit_flush(c);
    log().info(
        "sigterm_drained",
        None,
        &format!(
            "[grout-workerd w{}] SIGTERM: telemetry flushed, clean leave sent",
            s.me
        ),
        &[("worker", Value::U64(s.me as u64))],
    );
}

/// Final bounded blocking flush of the controller write queue before the
/// process exits — the clean `Leave`/final completions should reach a
/// live controller, but a dead one must not wedge the exit.
fn exit_flush(c: &mut CtrlSock) {
    if c.wq.is_empty() {
        return;
    }
    let _ = c.stream.set_nonblocking(false);
    let _ = c.stream.set_write_timeout(Some(EXIT_FLUSH_TIMEOUT));
    let _ = c.wq.flush(&mut c.stream);
}

/// Writes `msg` to peer `j`, dialing its listen address on first use. A
/// dead or unreachable peer drops the message silently — exactly the
/// in-process semantics (`let _ = peers[j].send(..)`), and the controller's
/// failure detector handles the fallout.
fn send_to_peer(
    me: usize,
    j: usize,
    peer_addrs: &[String],
    peer_out: &mut [Option<TcpStream>],
    msg: &CtrlMsg,
) {
    let Some(slot) = peer_out.get_mut(j) else {
        log().warn(
            "peer_no_address",
            None,
            &format!("[grout-workerd w{me}] no address for peer {j} yet; dropping"),
            &[("peer", Value::U64(j as u64))],
        );
        return;
    };
    if slot.is_none() {
        match dial_peer(me, &peer_addrs[j]) {
            Ok(s) => *slot = Some(s),
            Err(e) => {
                log().warn(
                    "peer_unreachable",
                    None,
                    &format!("[grout-workerd w{me}] cannot reach peer {j}: {e}"),
                    &[("peer", Value::U64(j as u64))],
                );
                return;
            }
        }
    }
    let payload = wire::encode_ctrl(msg);
    if let Some(stream) = slot.as_mut() {
        if wire::write_frame(stream, &payload).is_err() {
            *slot = None;
        }
    }
}

fn dial_peer(me: usize, addr: &str) -> Result<TcpStream, wire::WireError> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    wire::write_frame(
        &mut stream,
        &wire::encode_hello(&wire::Hello::Peer { from: me }),
    )?;
    Ok(stream)
}
