//! The on-disk op journal and the controller log-shipping endpoints.
//!
//! Both consumers of the planner op log that cross a process boundary
//! live here:
//!
//! - [`JournalSink`] streams every [`PlannerOp`] to disk as it is
//!   appended (`grout-run --journal`, one sink per tenant session under
//!   `grout-ctld --journal`), producing a crash-recovery write-ahead
//!   journal that `grout-replay` reconstructs each session's final
//!   planner state from ([`read_journal_sessions`] + [`Journal::replay`]);
//! - [`ShipSink`] tails the log over TCP to a hot-standby controller
//!   (`grout-run --ship-log`), whose [`standby_serve`] loop applies each
//!   op to a replica [`Planner`] and acknowledges it with the replica's
//!   [`Planner::op_digest`] — so the primary detects divergence at the
//!   first op where the replica decided differently, not at takeover.
//!
//! ## Journal file format
//!
//! ```text
//! magic b"GRJL" | version: u16 LE
//! frame*: tag: u8 | len: u32 LE | sid: u64 LE | body (len - 8 bytes)
//! ```
//!
//! One file holds the logs of one or more sessions, their frames
//! interleaved in write order and told apart by `sid`. A solo run is
//! session 0; `grout-ctld` journals each tenant under its own id. Per
//! session, the first frame is the header (tag `0x00`): the planner
//! configuration plus the link matrix the planner was built with —
//! probed matrices are run-specific, so replay must not re-probe. Each op
//! is one tag-`0x01` frame ([`wire::encode_op`]); its seq is its position
//! among the session's ops. A tag-`0x02` footer (`last_seq`, `digest`) is
//! written when the session ends cleanly, `digest` being the structural
//! [`Planner::state_digest`] of the final state; a crashed process leaves no
//! footer (and possibly a truncated tail frame), and replay still
//! reconstructs every op that hit the disk.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufWriter, Read as _, Write as _};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::{Arc, Mutex};

use grout_core::{
    CtrlMsg, LinkMatrix, OpSink, Planner, PlannerConfig, PlannerOp, SessionId, WorkerMsg,
};

use crate::wire::{self, WireError};

/// Journal file magic: the first four bytes.
pub const JOURNAL_MAGIC: [u8; 4] = *b"GRJL";

/// Journal format version. v2: the serialized planner config grew the
/// partition-tolerance knobs (heartbeat cadence, staleness threshold,
/// reconnect window) and ops 7–9 (suspect/reinstate/rejoin membership
/// transitions) joined the vocabulary. v3: same frames; the footer digest
/// is taken over a DAG that keeps fewer readers per array and a smaller
/// frontier for the same ops, so a v2 footer would not verify against
/// this build's replay. v4: every frame carries its session id, so one
/// file holds many sessions' logs.
pub const JOURNAL_VERSION: u16 = 4;

const TAG_HEADER: u8 = 0x00;
const TAG_OP: u8 = 0x01;
const TAG_FOOTER: u8 = 0x02;

/// The clean-exit footer: the last op's sequence number and the planner
/// state digest after applying it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalFooter {
    /// Log position of the session's last op (0-based).
    pub last_seq: u64,
    /// [`Planner::state_digest`] after the last op (structural, not the
    /// rolling [`Planner::op_digest`]).
    pub digest: u64,
}

/// One session's log, parsed.
#[derive(Debug, Clone)]
pub struct Journal {
    /// Planner configuration of the journalled session.
    pub cfg: PlannerConfig,
    /// Link matrix the planner was constructed with.
    pub links: Option<LinkMatrix>,
    /// Every op that hit the disk, in log order.
    pub ops: Vec<PlannerOp>,
    /// Present only when the session ended cleanly.
    pub footer: Option<JournalFooter>,
    /// True when the file ended mid-frame (the journalling process was
    /// killed while writing; every complete frame before it is in `ops`).
    pub truncated: bool,
}

impl Journal {
    /// Reconstructs planner state by replaying the first `stop_at` ops
    /// (all of them when `None`) onto a freshly constructed planner.
    /// Failed ops are re-applied and their errors swallowed — they
    /// mutated state when they originally ran, so replay must not skip
    /// them.
    pub fn replay(&self, stop_at: Option<usize>) -> Planner {
        let mut p = Planner::new(self.cfg.clone(), self.links.clone());
        let end = stop_at.unwrap_or(self.ops.len()).min(self.ops.len());
        for op in &self.ops[..end] {
            let _ = p.apply(op);
        }
        p
    }
}

/// Reads and parses a journal file into one [`Journal`] per session,
/// plus whether the file ended mid-frame. A truncated tail frame
/// (crashed writer) is not an error; corrupt framing (bad magic, unknown
/// tag, a frame before its session's header or after its footer, an
/// undecodable header or op) is.
pub fn read_journal_sessions(
    path: &Path,
) -> Result<(BTreeMap<SessionId, Journal>, bool), WireError> {
    let mut raw = Vec::new();
    File::open(path)?.read_to_end(&mut raw)?;
    parse_journal(&raw)
}

fn parse_journal(raw: &[u8]) -> Result<(BTreeMap<SessionId, Journal>, bool), WireError> {
    if raw.len() < 6 || raw[..4] != JOURNAL_MAGIC {
        return Err(WireError::Handshake("not an op journal (bad magic)".into()));
    }
    let version = u16::from_le_bytes([raw[4], raw[5]]);
    if version != JOURNAL_VERSION {
        return Err(WireError::Handshake(format!(
            "journal version {version}, this build reads {JOURNAL_VERSION}"
        )));
    }
    let mut sessions: BTreeMap<SessionId, Journal> = BTreeMap::new();
    let mut rest = &raw[6..];
    let mut truncated = false;
    while !rest.is_empty() {
        let Some(len) = rest.get(1..5) else {
            truncated = true;
            break;
        };
        let len = u32::from_le_bytes(len.try_into().unwrap()) as usize;
        let Some(payload) = rest[5..].get(..len) else {
            truncated = true;
            break;
        };
        let tag = rest[0];
        rest = &rest[5 + len..];
        if payload.len() < 8 {
            return Err(WireError::Malformed("journal frame without a session id"));
        }
        let sid = SessionId(u64::from_le_bytes(payload[..8].try_into().unwrap()));
        let body = &payload[8..];
        if tag == TAG_HEADER {
            let (cfg, links) = wire::decode_journal_header(body)?;
            let fresh = Journal {
                cfg,
                links,
                ops: Vec::new(),
                footer: None,
                truncated: false,
            };
            if sessions.insert(sid, fresh).is_some() {
                return Err(WireError::Malformed("duplicate journal header"));
            }
            continue;
        }
        let journal = sessions.get_mut(&sid).ok_or(WireError::Malformed(
            "journal frame before its session header",
        ))?;
        if journal.footer.is_some() {
            return Err(WireError::Malformed(
                "journal frame after its session footer",
            ));
        }
        match tag {
            TAG_OP => journal.ops.push(wire::decode_op(body)?),
            TAG_FOOTER => {
                let footer: [u8; 16] = body
                    .try_into()
                    .map_err(|_| WireError::Malformed("journal footer size"))?;
                journal.footer = Some(JournalFooter {
                    last_seq: u64::from_le_bytes(footer[..8].try_into().unwrap()),
                    digest: u64::from_le_bytes(footer[8..].try_into().unwrap()),
                });
            }
            _ => return Err(WireError::Malformed("journal frame tag")),
        }
    }
    for journal in sessions.values_mut() {
        journal.truncated = truncated;
    }
    Ok((sessions, truncated))
}

/// Reads a single-session journal (`grout-run --journal`): the
/// [`read_journal_sessions`] view for files holding exactly one session.
pub fn read_journal(path: &Path) -> Result<Journal, WireError> {
    let (sessions, _) = read_journal_sessions(path)?;
    let mut sessions = sessions.into_values();
    match (sessions.next(), sessions.next()) {
        (Some(journal), None) => Ok(journal),
        (None, _) => Err(WireError::Malformed("journal missing header")),
        (Some(_), Some(_)) => Err(WireError::Malformed(
            "journal holds several sessions; read it with read_journal_sessions",
        )),
    }
}

/// An open journal file, shared by the [`JournalSink`]s of every session
/// writing to it; clones are handles to the same file.
#[derive(Clone)]
pub struct JournalWriter {
    /// `None` once a write failed: the first error stops the whole file.
    out: Arc<Mutex<Option<BufWriter<File>>>>,
    path: Arc<str>,
}

impl JournalWriter {
    /// Creates (truncates) the journal at `path` and writes the file
    /// preamble; sessions join with [`JournalWriter::attach`].
    pub fn create(path: &Path) -> Result<Self, WireError> {
        let mut out = BufWriter::new(File::create(path)?);
        out.write_all(&JOURNAL_MAGIC)?;
        out.write_all(&JOURNAL_VERSION.to_le_bytes())?;
        out.flush()?;
        Ok(JournalWriter {
            out: Arc::new(Mutex::new(Some(out))),
            path: path.display().to_string().into(),
        })
    }

    /// Opens session `sid` in the file: writes its header and returns the
    /// sink journalling its ops (attach it to the session's planner).
    pub fn attach(
        &self,
        sid: SessionId,
        cfg: &PlannerConfig,
        links: &Option<LinkMatrix>,
    ) -> JournalSink {
        self.frame(TAG_HEADER, sid, &wire::encode_journal_header(cfg, links));
        JournalSink {
            file: self.clone(),
            sid,
            last_seq: None,
        }
    }

    /// Writes and flushes one frame — the journal is a write-ahead log,
    /// and a crash must not lose acknowledged ops to a userspace buffer.
    /// The flush is one `write(2)` into the page cache, with no fsync.
    /// The first I/O error is logged once and stops the file.
    fn frame(&self, tag: u8, sid: SessionId, body: &[u8]) {
        // A writer that panicked mid-frame poisons the lock and stops the
        // file; this also runs from `Drop`, so it must not panic.
        let Ok(mut out) = self.out.lock() else { return };
        let Some(file) = out.as_mut() else { return };
        let mut prefix = [tag; 13];
        prefix[1..5].copy_from_slice(&(body.len() as u32 + 8).to_le_bytes());
        prefix[5..].copy_from_slice(&sid.0.to_le_bytes());
        let wrote = file
            .write_all(&prefix)
            .and_then(|()| file.write_all(body))
            .and_then(|()| file.flush());
        if let Err(e) = wrote {
            eprintln!("[grout] journal {}: {e}; journalling stops", self.path);
            *out = None;
        }
    }
}

/// An [`OpSink`] streaming one session's ops to a journal file as they
/// are appended, each frame flushed before the planner proceeds.
///
/// The footer is written when the log closes ([`OpSink::close`], on a
/// clean exit) from the final [`Planner::state_digest`]; a killed process
/// leaves a footer-less session that [`read_journal_sessions`] still
/// accepts.
pub struct JournalSink {
    file: JournalWriter,
    sid: SessionId,
    /// Log position of the last op written.
    last_seq: Option<u64>,
}

impl JournalSink {
    /// Creates (truncates) a single-session journal at `path` and writes
    /// the header of its session 0.
    pub fn create(
        path: &Path,
        cfg: &PlannerConfig,
        links: &Option<LinkMatrix>,
    ) -> Result<Self, WireError> {
        Ok(JournalWriter::create(path)?.attach(SessionId(0), cfg, links))
    }
}

impl OpSink for JournalSink {
    fn append(&mut self, seq: u64, op: &PlannerOp, _digest: Option<u64>) {
        self.file.frame(TAG_OP, self.sid, &wire::encode_op(op));
        self.last_seq = Some(seq);
    }

    fn close(&mut self, planner: &Planner) {
        if let Some(seq) = self.last_seq {
            let mut footer = [0u8; 16];
            footer[..8].copy_from_slice(&seq.to_le_bytes());
            footer[8..].copy_from_slice(&planner.state_digest().to_le_bytes());
            self.file.frame(TAG_FOOTER, self.sid, &footer);
        }
    }
}

/// An [`OpSink`] shipping ops to a hot-standby controller.
///
/// The handshake is a controller hello with `total == 0` (no worker
/// fleet behind it — the marker for a log-shipping connection), followed
/// by [`CtrlMsg::ShipInit`] carrying the planner's construction inputs.
/// Each append then sends one [`CtrlMsg::ShipOp`] and waits for the
/// standby's [`WorkerMsg::ShipAck`], which carries the replica's
/// [`Planner::op_digest`]; a mismatch means the replica decided this op
/// differently — a replication bug — and panics rather than letting a
/// corrupt standby take over. Socket errors merely disable shipping (the
/// primary outliving its standby is not an error).
///
/// Dropping the sink sends a clean `Shutdown` so the standby knows the
/// primary *finished* rather than died, and must not take over.
pub struct ShipSink {
    stream: Option<TcpStream>,
    addr: String,
}

impl ShipSink {
    /// Dials the standby at `addr` and ships the planner's construction
    /// inputs.
    pub fn connect(
        addr: &str,
        cfg: &PlannerConfig,
        links: &Option<LinkMatrix>,
    ) -> Result<Self, WireError> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        wire::write_frame(
            &mut stream,
            &wire::encode_hello(&wire::Hello::Controller {
                index: 0,
                total: 0, // no fleet: log-shipping connection
                heartbeat_ms: 0,
                peers: Vec::new(),
                session_id: 0,
                resume: None,
            }),
        )?;
        wire::write_frame(
            &mut stream,
            &wire::encode_ctrl(&CtrlMsg::ShipInit {
                cfg: cfg.clone(),
                links: links.clone(),
            }),
        )?;
        Ok(ShipSink {
            stream: Some(stream),
            addr: addr.to_string(),
        })
    }

    fn disable(&mut self, why: &str) {
        eprintln!(
            "[grout] log shipping to {}: {why}; shipping stops",
            self.addr
        );
        self.stream = None;
    }
}

impl OpSink for ShipSink {
    fn append(&mut self, seq: u64, op: &PlannerOp, digest: Option<u64>) {
        let Some(stream) = self.stream.as_mut() else {
            return;
        };
        let frame = wire::encode_ctrl(&CtrlMsg::ShipOp {
            seq,
            op: op.clone(),
        });
        if let Err(e) = wire::write_frame(stream, &frame) {
            let why = e.to_string();
            self.disable(&why);
            return;
        }
        let ack = match wire::read_frame(stream) {
            Ok(Some(payload)) => wire::decode_worker(&payload),
            Ok(None) => {
                self.disable("standby closed the connection");
                return;
            }
            Err(e) => {
                let why = e.to_string();
                self.disable(&why);
                return;
            }
        };
        match ack {
            Ok(WorkerMsg::ShipAck {
                seq: acked,
                digest: standby_digest,
            }) => {
                if acked != seq {
                    self.disable(&format!("ack for op {acked}, expected {seq}"));
                    return;
                }
                // Live ops carry our post-apply digest; catch-up ops do
                // not (their historical digests are gone) and skip the
                // cross-check.
                if let Some(ours) = digest {
                    assert_eq!(
                        standby_digest,
                        ours,
                        "standby replica diverged at op {seq} ({})",
                        op.kind()
                    );
                }
            }
            Ok(other) => {
                self.disable(&format!("unexpected standby reply {other:?}"));
            }
            Err(e) => {
                let why = e.to_string();
                self.disable(&why);
            }
        }
    }
}

impl Drop for ShipSink {
    fn drop(&mut self) {
        if let Some(stream) = self.stream.as_mut() {
            let _ = wire::write_frame(stream, &wire::encode_ctrl(&CtrlMsg::Shutdown));
        }
    }
}

/// How a standby's shipping session ended.
#[derive(Debug)]
pub enum StandbyOutcome {
    /// The primary sent a clean `Shutdown`: it finished its run, no
    /// takeover needed.
    CleanFinish {
        /// The fully caught-up replica.
        replica: Planner,
        /// Ops applied over the session.
        ops_applied: u64,
    },
    /// The shipping socket died without a `Shutdown`: the primary was
    /// killed mid-run and the standby must take over.
    PrimaryDied {
        /// The replica at the moment the primary died.
        replica: Planner,
        /// Ops applied before the death.
        ops_applied: u64,
    },
}

/// The standby's shipping session: accepts one log-shipping connection on
/// `listener`, builds the replica from [`CtrlMsg::ShipInit`], applies
/// each shipped op and acknowledges it with the replica's
/// [`Planner::op_digest`] (O(1): the loop does no per-op work that grows
/// with the session).
/// Returns when the primary finishes ([`StandbyOutcome::CleanFinish`]) or
/// dies ([`StandbyOutcome::PrimaryDied`]).
pub fn standby_serve(listener: &TcpListener) -> Result<StandbyOutcome, WireError> {
    let (mut stream, _) = listener.accept()?;
    stream.set_nodelay(true)?;
    let hello = wire::read_frame(&mut stream)?
        .ok_or_else(|| WireError::Handshake("primary closed during handshake".into()))?;
    match wire::decode_hello(&hello)? {
        wire::Hello::Controller { total: 0, .. } => {}
        _ => {
            return Err(WireError::Handshake(
                "expected a log-shipping controller hello (total == 0)".into(),
            ))
        }
    }
    let init = wire::read_frame(&mut stream)?
        .ok_or_else(|| WireError::Handshake("primary closed before ShipInit".into()))?;
    let (cfg, links) = match wire::decode_ctrl(&init)? {
        CtrlMsg::ShipInit { cfg, links } => (cfg, links),
        other => {
            return Err(WireError::Handshake(format!(
                "expected ShipInit, got {other:?}"
            )))
        }
    };
    let mut replica = Planner::new(cfg, links);
    let mut ops_applied = 0u64;
    loop {
        match wire::read_frame(&mut stream) {
            Ok(Some(payload)) => match wire::decode_ctrl(&payload) {
                Ok(CtrlMsg::ShipOp { seq, op }) => {
                    // A failed op is part of the log and fails the same way
                    // here; apply and move on.
                    let _ = replica.apply(&op);
                    ops_applied += 1;
                    let ack = wire::encode_worker(&WorkerMsg::ShipAck {
                        seq,
                        digest: replica.op_digest(),
                    });
                    if wire::write_frame(&mut stream, &ack).is_err() {
                        return Ok(StandbyOutcome::PrimaryDied {
                            replica,
                            ops_applied,
                        });
                    }
                }
                Ok(CtrlMsg::Shutdown) => {
                    return Ok(StandbyOutcome::CleanFinish {
                        replica,
                        ops_applied,
                    })
                }
                Ok(_) => {} // future shipping-stream frames: ignore
                Err(e) => {
                    eprintln!("[grout] standby: bad shipping frame: {e}");
                    return Ok(StandbyOutcome::PrimaryDied {
                        replica,
                        ops_applied,
                    });
                }
            },
            Ok(None) | Err(_) => {
                return Ok(StandbyOutcome::PrimaryDied {
                    replica,
                    ops_applied,
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grout_core::{ArrayId, LoggedPlanner, PolicyKind};

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("grout-oplog-test-{}-{name}", std::process::id()));
        p
    }

    /// Plans and completes one kernel reading `src` and writing `dst`.
    fn kernel(planner: &mut LoggedPlanner, i: u64, src: ArrayId, dst: ArrayId) {
        use grout_core::{Ce, CeArg, CeId, CeKind, KernelCost};
        let plan = planner
            .plan_ce(&Ce {
                id: CeId(i),
                kind: CeKind::Kernel {
                    name: "k".into(),
                    cost: KernelCost {
                        flops: 1e6,
                        bytes_read: 1 << 20,
                        bytes_written: 1 << 20,
                    },
                },
                args: vec![CeArg::read(src, 1 << 20), CeArg::write(dst, 1 << 20)],
            })
            .expect("plan");
        planner.mark_completed(plan.dag_index);
    }

    fn drive(planner: &mut LoggedPlanner) {
        let a = planner.alloc(1 << 20);
        let b = planner.alloc(1 << 20);
        for i in 0..4u64 {
            kernel(planner, i, a, b);
        }
        planner.free(a);
    }

    #[test]
    fn journal_roundtrips_and_replays_bit_identically() {
        let path = tmp("roundtrip");
        let cfg = PlannerConfig::new(2, PolicyKind::RoundRobin);
        let links = Some(LinkMatrix::uniform(3, 1e9));
        let mut planner = LoggedPlanner::new(Planner::new(cfg.clone(), links.clone()));
        planner.add_sink(Box::new(
            JournalSink::create(&path, &cfg, &links).expect("create journal"),
        ));
        drive(&mut planner);
        let expected_digest = planner.state_digest();
        let n_ops = planner.ops().len();
        drop(planner); // writes the footer

        let journal = read_journal(&path).expect("read journal");
        assert_eq!(journal.ops.len(), n_ops);
        assert!(!journal.truncated);
        let footer = journal.footer.expect("clean exit footer");
        assert_eq!(footer.last_seq, n_ops as u64 - 1);
        assert_eq!(footer.digest, expected_digest);

        let replayed = journal.replay(None);
        assert_eq!(replayed.state_digest(), expected_digest);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn footerless_journal_still_replays() {
        let path = tmp("crashed");
        let cfg = PlannerConfig::new(2, PolicyKind::RoundRobin);
        let links = None;
        let mut planner = LoggedPlanner::new(Planner::new(cfg.clone(), links.clone()));
        let mut sink = JournalSink::create(&path, &cfg, &links).expect("create journal");
        // Drive the sink by hand, then *leak* it: no Drop, no footer —
        // exactly what a SIGKILL leaves behind.
        drive(&mut planner);
        for (i, op) in planner.ops().iter().enumerate() {
            sink.append(i as u64, op, None);
        }
        std::mem::forget(sink);

        let journal = read_journal(&path).expect("read journal");
        assert!(journal.footer.is_none());
        assert_eq!(journal.ops.len(), planner.ops().len());
        assert_eq!(
            journal.replay(None).state_digest(),
            planner.state_digest(),
            "footer-less replay must still reach the live state"
        );
        // Partial replay stops mid-history without error.
        let partial = journal.replay(Some(2));
        assert_ne!(partial.state_digest(), planner.state_digest());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_tail_is_tolerated() {
        let path = tmp("truncated");
        let cfg = PlannerConfig::new(1, PolicyKind::RoundRobin);
        let links = None;
        let mut planner = LoggedPlanner::new(Planner::new(cfg.clone(), links.clone()));
        let mut sink = JournalSink::create(&path, &cfg, &links).expect("create journal");
        drive(&mut planner);
        for (i, op) in planner.ops().iter().enumerate() {
            sink.append(i as u64, op, None);
        }
        std::mem::forget(sink);
        // Chop mid-frame: a crash while an op frame was half-written.
        let raw = std::fs::read(&path).expect("read back");
        std::fs::write(&path, &raw[..raw.len() - 3]).expect("truncate");

        let journal = read_journal(&path).expect("read journal");
        assert!(journal.truncated);
        assert_eq!(journal.ops.len(), planner.ops().len() - 1);
        std::fs::remove_file(&path).ok();
    }

    /// Two tenants journalled through two sinks on one file, their ops
    /// interleaved; returns each session's id, op log and final digest.
    fn two_session_journal(path: &Path) -> Vec<(SessionId, Vec<PlannerOp>, u64)> {
        let writer = JournalWriter::create(path).expect("create journal");
        let inputs = [
            (PlannerConfig::new(2, PolicyKind::RoundRobin), None),
            (
                PlannerConfig::new(3, PolicyKind::RoundRobin),
                Some(LinkMatrix::uniform(4, 1e9)),
            ),
        ];
        let mut tenants: Vec<(SessionId, LoggedPlanner)> = inputs
            .into_iter()
            .zip(1..)
            .map(|((cfg, links), sid)| {
                let mut p = LoggedPlanner::new(Planner::new(cfg.clone(), links.clone()));
                p.add_sink(Box::new(writer.attach(SessionId(sid), &cfg, &links)));
                (SessionId(sid), p)
            })
            .collect();
        let arrays: Vec<_> = tenants
            .iter_mut()
            .map(|(_, p)| (p.alloc(1 << 20), p.alloc(1 << 20)))
            .collect();
        for i in 0..3 {
            for ((_, p), &(src, dst)) in tenants.iter_mut().zip(&arrays) {
                kernel(p, i, src, dst);
            }
        }
        for ((_, p), &(src, _)) in tenants.iter_mut().zip(&arrays) {
            p.free(src);
        }
        tenants
            .into_iter()
            .map(|(sid, p)| (sid, p.ops().to_vec(), p.state_digest()))
            .collect() // the planners drop here: both footers are written
    }

    #[test]
    fn two_session_journal_survives_every_cut_and_flip() {
        let path = tmp("two-sessions");
        let expected = two_session_journal(&path);
        let raw = std::fs::read(&path).expect("read back");

        // Clean file: every session whole, footer-verified by replay.
        let (sessions, truncated) = parse_journal(&raw).expect("parse");
        assert!(!truncated);
        assert_eq!(sessions.len(), 2);
        for (sid, ops, digest) in &expected {
            let journal = &sessions[sid];
            assert_eq!(&journal.ops, ops);
            assert_eq!(
                journal.footer,
                Some(JournalFooter {
                    last_seq: ops.len() as u64 - 1,
                    digest: *digest
                })
            );
            assert_eq!(journal.replay(None).state_digest(), *digest);
        }
        let per_tenant = crate::ctld::read_session_journal(&path).expect("session view");
        for (sid, ops, _) in &expected {
            let back: Vec<_> = (0..).zip(ops.iter().cloned()).collect();
            assert_eq!(per_tenant[sid], back);
        }
        // The single-session view refuses a file holding two.
        assert!(matches!(read_journal(&path), Err(WireError::Malformed(_))));

        // Frame boundaries: (end offset, owner, tag) of every frame.
        let mut frames = Vec::new();
        let mut pos = 6;
        while pos < raw.len() {
            let len = u32::from_le_bytes(raw[pos + 1..pos + 5].try_into().unwrap()) as usize;
            let sid = SessionId(u64::from_le_bytes(
                raw[pos + 5..pos + 13].try_into().unwrap(),
            ));
            frames.push((pos + 5 + len, sid, raw[pos]));
            pos += 5 + len;
        }
        assert_eq!(pos, raw.len());

        // Every cut: a typed error inside the preamble, otherwise each
        // session is an exact prefix of its ops, and `truncated` is set
        // iff the cut falls mid-frame.
        for cut in 0..=raw.len() {
            if cut < 6 {
                assert!(
                    matches!(parse_journal(&raw[..cut]), Err(WireError::Handshake(_))),
                    "cut at {cut}"
                );
                continue;
            }
            let (sessions, truncated) =
                parse_journal(&raw[..cut]).unwrap_or_else(|e| panic!("cut at {cut}: {e}"));
            let whole: Vec<_> = frames.iter().filter(|f| f.0 <= cut).collect();
            let on_boundary = cut == 6 || whole.last().is_some_and(|f| f.0 == cut);
            assert_eq!(truncated, !on_boundary, "cut at {cut}");
            let headers = whole.iter().filter(|f| f.2 == TAG_HEADER).count();
            assert_eq!(sessions.len(), headers, "cut at {cut}");
            for (sid, journal) in &sessions {
                let (_, ops, _) = expected.iter().find(|e| e.0 == *sid).unwrap();
                let kept = whole
                    .iter()
                    .filter(|f| f.1 == *sid && f.2 == TAG_OP)
                    .count();
                assert_eq!(journal.ops[..], ops[..kept], "cut at {cut}");
                let footer = whole.iter().any(|f| f.1 == *sid && f.2 == TAG_FOOTER);
                assert_eq!(journal.footer.is_some(), footer, "cut at {cut}");
            }
        }

        // Every single-byte flip parses or returns a typed error, never a
        // panic. Replaying a flip that still decodes is out of scope: the
        // format has no per-frame checksum, so a flipped op field can
        // decode to a different but well-formed op.
        for i in 0..raw.len() {
            let mut flipped = raw.clone();
            flipped[i] ^= 0xFF;
            let parsed = parse_journal(&flipped);
            if i < 6 {
                assert!(
                    matches!(parsed, Err(WireError::Handshake(_))),
                    "flip at {i}"
                );
            }
        }

        // The preamble is strict: any other version (the previous format
        // included) or magic is a typed reject naming what was found.
        let mut old = raw.clone();
        old[4..6].copy_from_slice(&3u16.to_le_bytes());
        match parse_journal(&old) {
            Err(WireError::Handshake(msg)) => assert!(
                msg.contains("version 3") && msg.contains(&format!("reads {JOURNAL_VERSION}")),
                "{msg}"
            ),
            other => panic!("expected a version reject, got {other:?}"),
        }
        old[0] = b'X';
        assert!(matches!(parse_journal(&old), Err(WireError::Handshake(_))));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn journal_header_with_zero_workers_is_refused() {
        let path = tmp("zero-workers");
        let cfg = PlannerConfig::new(0, PolicyKind::RoundRobin);
        drop(JournalSink::create(&path, &cfg, &None).expect("create journal"));
        assert!(matches!(read_journal(&path), Err(WireError::Malformed(_))));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn standby_refuses_a_zero_worker_ship_init() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let standby = std::thread::spawn(move || standby_serve(&listener).map(drop));
        let cfg = PlannerConfig::new(0, PolicyKind::RoundRobin);
        let sink = ShipSink::connect(&addr, &cfg, &None).expect("connect standby");
        let served = standby.join().expect("the standby must not panic");
        assert!(matches!(served, Err(WireError::Malformed(_))), "{served:?}");
        drop(sink);
    }

    #[test]
    fn ship_sink_replicates_over_loopback() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let standby = std::thread::spawn(move || standby_serve(&listener).expect("standby"));

        let cfg = PlannerConfig::new(2, PolicyKind::RoundRobin);
        let links = Some(LinkMatrix::uniform(3, 2e9));
        let mut planner = LoggedPlanner::new(Planner::new(cfg.clone(), links.clone()));
        planner.add_sink(Box::new(
            ShipSink::connect(&addr, &cfg, &links).expect("connect standby"),
        ));
        drive(&mut planner);
        let expected = planner.state_digest();
        let n_ops = planner.ops().len() as u64;
        drop(planner); // clean Shutdown to the standby

        match standby.join().expect("standby thread") {
            StandbyOutcome::CleanFinish {
                replica,
                ops_applied,
            } => {
                assert_eq!(ops_applied, n_ops);
                assert_eq!(replica.state_digest(), expected);
            }
            other => panic!("expected clean finish, got {other:?}"),
        }
    }

    /// A standby built from a different config (three workers, not two)
    /// takes the same decisions for ops 0–5 of [`drive`]: two allocs, then
    /// plan + complete of CEs 0 and 1, which round-robin places on workers
    /// 0 and 1 either way. Op 6 plans CE 2, on worker 0 here and worker 2
    /// on the replica. The per-op ack catches exactly that op.
    #[test]
    #[should_panic(expected = "standby replica diverged at op 6 (plan-ce)")]
    fn diverging_standby_is_caught_at_its_first_diverging_decision() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        std::thread::spawn(move || standby_serve(&listener));

        let cfg = PlannerConfig::new(2, PolicyKind::RoundRobin);
        let mut planner = LoggedPlanner::new(Planner::new(cfg, None));
        let skewed = PlannerConfig::new(3, PolicyKind::RoundRobin);
        planner.add_sink(Box::new(
            ShipSink::connect(&addr, &skewed, &None).expect("connect standby"),
        ));
        drive(&mut planner);
    }

    #[test]
    fn standby_detects_primary_death() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let standby = std::thread::spawn(move || standby_serve(&listener).expect("standby"));

        let cfg = PlannerConfig::new(1, PolicyKind::RoundRobin);
        let links = None;
        let mut planner = LoggedPlanner::new(Planner::new(cfg.clone(), links.clone()));
        let mut sink = ShipSink::connect(&addr, &cfg, &links).expect("connect standby");
        let _ = planner.alloc(4096);
        for (i, op) in planner.ops().iter().enumerate() {
            sink.append(i as u64, op, None);
        }
        // Dying primary: the socket closes without a Shutdown frame —
        // take the stream out so the sink's Drop cannot send one (the
        // kernel closing a SIGKILLed process's fds looks the same).
        drop(sink.stream.take());
        drop(sink);

        match standby.join().expect("standby thread") {
            StandbyOutcome::PrimaryDied {
                replica,
                ops_applied,
            } => {
                assert_eq!(ops_applied, 1);
                assert_eq!(replica.state_digest(), planner.state_digest());
            }
            other => panic!("expected primary death, got {other:?}"),
        }
    }
}
