//! The on-disk op journal and the controller log-shipping endpoints.
//!
//! Both consumers of the planner op log that cross a process boundary
//! live here:
//!
//! - [`JournalSink`] streams every [`PlannerOp`] to disk as it is
//!   appended (`grout-run --journal`), producing a crash-recovery
//!   write-ahead journal that `grout-replay` reconstructs the final
//!   planner state from ([`read_journal`] + [`Journal::replay`]);
//! - [`ShipSink`] tails the log over TCP to a hot-standby controller
//!   (`grout-run --ship-log`), whose [`standby_serve`] loop applies each
//!   op to a replica [`Planner`] and acknowledges it with the replica's
//!   state digest — so the primary detects divergence at the offending
//!   op, not at takeover.
//!
//! ## Journal file format
//!
//! ```text
//! magic b"GRJL" | version: u16 LE
//! frame*: tag: u8 | len: u32 LE | payload (len bytes)
//! ```
//!
//! The first frame is the header (tag `0x00`): the planner configuration
//! plus the link matrix the planner was built with — probed matrices are
//! run-specific, so replay must not re-probe. Each op is one tag-`0x01`
//! frame ([`wire::encode_op`]). A tag-`0x02` footer (`last_seq`,
//! `digest`) is written when the journalling process exits cleanly; a
//! crashed run leaves no footer (and possibly a truncated tail frame),
//! and replay still reconstructs every op that hit the disk.

use std::fs::File;
use std::io::{BufWriter, Read as _, Write as _};
use std::net::{TcpListener, TcpStream};
use std::path::Path;

use grout_core::{CtrlMsg, LinkMatrix, OpSink, Planner, PlannerConfig, PlannerOp, WorkerMsg};

use crate::wire::{self, WireError};

/// Journal file magic: the first four bytes.
pub const JOURNAL_MAGIC: [u8; 4] = *b"GRJL";

/// Journal format version. v2: the serialized planner config grew the
/// partition-tolerance knobs (heartbeat cadence, staleness threshold,
/// reconnect window) and ops 7–9 (suspect/reinstate/rejoin membership
/// transitions) joined the vocabulary. v3: same frames; the footer digest
/// is taken over a DAG that keeps fewer readers per array and a smaller
/// frontier for the same ops, so a v2 footer would not verify against
/// this build's replay.
pub const JOURNAL_VERSION: u16 = 3;

const TAG_HEADER: u8 = 0x00;
const TAG_OP: u8 = 0x01;
const TAG_FOOTER: u8 = 0x02;

/// The clean-exit footer: the last op's sequence number and the planner
/// state digest after applying it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalFooter {
    /// Log position of the journal's last op (0-based).
    pub last_seq: u64,
    /// [`Planner::state_digest`] after the last op.
    pub digest: u64,
}

/// A fully parsed journal.
#[derive(Debug, Clone)]
pub struct Journal {
    /// Planner configuration of the journalled run.
    pub cfg: PlannerConfig,
    /// Link matrix the planner was constructed with.
    pub links: Option<LinkMatrix>,
    /// Every op that hit the disk, in log order.
    pub ops: Vec<PlannerOp>,
    /// Present only when the journalling process exited cleanly.
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

/// Reads and parses a journal file. A truncated tail frame (crashed
/// writer) is not an error — see [`Journal::truncated`]; corrupt framing
/// (bad magic, unknown tag, undecodable op) is.
pub fn read_journal(path: &Path) -> Result<Journal, WireError> {
    let mut raw = Vec::new();
    File::open(path)?.read_to_end(&mut raw)?;
    if raw.len() < 6 || raw[..4] != JOURNAL_MAGIC {
        return Err(WireError::Handshake(format!(
            "{} is not an op journal (bad magic)",
            path.display()
        )));
    }
    let version = u16::from_le_bytes([raw[4], raw[5]]);
    if version != JOURNAL_VERSION {
        return Err(WireError::Handshake(format!(
            "journal version {version}, this build reads {JOURNAL_VERSION}"
        )));
    }
    let mut pos = 6usize;
    let mut header: Option<(PlannerConfig, Option<LinkMatrix>)> = None;
    let mut ops = Vec::new();
    let mut footer = None;
    let mut truncated = false;
    while pos < raw.len() {
        if pos + 5 > raw.len() {
            truncated = true;
            break;
        }
        let tag = raw[pos];
        let len = u32::from_le_bytes(raw[pos + 1..pos + 5].try_into().unwrap()) as usize;
        pos += 5;
        if pos + len > raw.len() {
            truncated = true;
            break;
        }
        let payload = &raw[pos..pos + len];
        pos += len;
        match tag {
            TAG_HEADER => {
                if header.is_some() {
                    return Err(WireError::Malformed("duplicate journal header"));
                }
                header = Some(wire::decode_journal_header(payload)?);
            }
            TAG_OP => ops.push(wire::decode_op(payload)?),
            TAG_FOOTER => {
                let mut d = [0u8; 16];
                if payload.len() != 16 {
                    return Err(WireError::Malformed("journal footer size"));
                }
                d.copy_from_slice(payload);
                footer = Some(JournalFooter {
                    last_seq: u64::from_le_bytes(d[..8].try_into().unwrap()),
                    digest: u64::from_le_bytes(d[8..].try_into().unwrap()),
                });
            }
            _ => return Err(WireError::Malformed("journal frame tag")),
        }
    }
    let (cfg, links) = header.ok_or(WireError::Malformed("journal missing header"))?;
    Ok(Journal {
        cfg,
        links,
        ops,
        footer,
        truncated,
    })
}

/// An [`OpSink`] streaming ops to a journal file as they are appended.
///
/// Every op frame is flushed immediately — the journal is a write-ahead
/// log, and a crash must not lose acknowledged ops to a userspace
/// buffer. The footer is written on drop (clean exit); a killed process
/// leaves a footer-less journal that [`read_journal`] still accepts.
pub struct JournalSink {
    out: Option<BufWriter<File>>,
    /// Last live (seq, digest) pair; catch-up ops carry no digest, so the
    /// footer is only written when the digest matches the final op.
    last: Option<(u64, u64)>,
    last_seq: Option<u64>,
    path: String,
}

impl JournalSink {
    /// Creates (truncates) the journal at `path` and writes the header.
    pub fn create(
        path: &Path,
        cfg: &PlannerConfig,
        links: &Option<LinkMatrix>,
    ) -> Result<Self, WireError> {
        let mut out = BufWriter::new(File::create(path)?);
        out.write_all(&JOURNAL_MAGIC)?;
        out.write_all(&JOURNAL_VERSION.to_le_bytes())?;
        let header = wire::encode_journal_header(cfg, links);
        write_journal_frame(&mut out, TAG_HEADER, &header)?;
        out.flush()?;
        Ok(JournalSink {
            out: Some(out),
            last: None,
            last_seq: None,
            path: path.display().to_string(),
        })
    }
}

fn write_journal_frame(
    out: &mut BufWriter<File>,
    tag: u8,
    payload: &[u8],
) -> Result<(), WireError> {
    out.write_all(&[tag])?;
    out.write_all(&(payload.len() as u32).to_le_bytes())?;
    out.write_all(payload)?;
    Ok(())
}

impl OpSink for JournalSink {
    fn wants_digest(&self) -> bool {
        true
    }

    fn append(&mut self, seq: u64, op: &PlannerOp, digest: Option<u64>) {
        let Some(out) = self.out.as_mut() else { return };
        let frame = wire::encode_op(op);
        let wrote = write_journal_frame(out, TAG_OP, &frame).and_then(|()| Ok(out.flush()?));
        if let Err(e) = wrote {
            eprintln!("[grout] journal {}: {e}; journalling stops", self.path);
            self.out = None;
            return;
        }
        self.last_seq = Some(seq);
        if let Some(d) = digest {
            self.last = Some((seq, d));
        }
    }
}

impl Drop for JournalSink {
    fn drop(&mut self) {
        let Some(mut out) = self.out.take() else {
            return;
        };
        // Footer only when the recorded digest belongs to the final op
        // (always true in practice: the sink attaches before any op).
        if let (Some((seq, digest)), Some(last_seq)) = (self.last, self.last_seq) {
            if seq == last_seq {
                let mut payload = [0u8; 16];
                payload[..8].copy_from_slice(&seq.to_le_bytes());
                payload[8..].copy_from_slice(&digest.to_le_bytes());
                let _ = write_journal_frame(&mut out, TAG_FOOTER, &payload);
            }
        }
        let _ = out.flush();
    }
}

/// An [`OpSink`] shipping ops to a hot-standby controller.
///
/// The handshake is a controller hello with `total == 0` (no worker
/// fleet behind it — the marker for a log-shipping connection), followed
/// by [`CtrlMsg::ShipInit`] carrying the planner's construction inputs.
/// Each append then sends one [`CtrlMsg::ShipOp`] and waits for the
/// standby's [`WorkerMsg::ShipAck`]; a digest mismatch means the replica
/// diverged — a replication bug — and panics rather than letting a
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
    fn wants_digest(&self) -> bool {
        true
    }

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
/// each shipped op and acknowledges it with the replica's state digest.
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
                        digest: replica.state_digest(),
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
    use grout_core::{LoggedPlanner, PolicyKind};

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("grout-oplog-test-{}-{name}", std::process::id()));
        p
    }

    fn drive(planner: &mut LoggedPlanner) {
        use grout_core::{Ce, CeArg, CeId, CeKind, KernelCost};
        let a = planner.alloc(1 << 20);
        let b = planner.alloc(1 << 20);
        for i in 0..4u64 {
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
                    args: vec![CeArg::read(a, 1 << 20), CeArg::write(b, 1 << 20)],
                })
                .expect("plan");
            planner.mark_completed(plan.dag_index);
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
