//! Client-side and shared plumbing for the `grout-ctld` control plane.
//!
//! The daemon itself lives in the `grout-ctld` binary (it needs the
//! guest-script interpreter); this module holds everything protocol- and
//! persistence-shaped:
//!
//! - the client handshake ([`client_connect`] / [`accept_client`]),
//! - [`CtldClient`]: the typed connection `grout-run --connect` drives
//!   (attach a script, stream [`CtldMsg`] frames back),
//! - [`SessionJournal`]: the multi-session op journal — every planner
//!   mutation of every tenant lands in one file as `(SessionId, seq,
//!   PlannerOp)`, so journals and replay stay session-aware
//!   ([`read_session_journal`] splits it back per tenant).
//!
//! ## Session journal file format
//!
//! ```text
//! magic b"GRSJ" | version: u16 LE
//! frame*: len: u32 LE | payload: sid u64 | seq u64 | op ([`wire::encode_op`])
//! ```
//!
//! Append-only, crash-tolerant like the single-tenant journal: a torn
//! tail frame is ignored on read.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufWriter, Read as _, Write as _};
use std::net::TcpStream;
use std::path::Path;

use grout_core::{AdmissionError, PlannerOp, Priority, SessionId, SessionOpLog};

use crate::wire::{self, ClientMsg, CtldMsg, WireError};

/// Session-journal file magic: the first four bytes.
pub const SESSION_JOURNAL_MAGIC: [u8; 4] = *b"GRSJ";

/// Session-journal format version.
pub const SESSION_JOURNAL_VERSION: u16 = 1;

// ---------------------------------------------------------------------------
// Client handshake + typed connection.

/// Dials a `grout-ctld` endpoint and performs the client handshake.
/// Fails against a peer of any other wire version (and against
/// `grout-workerd`, which drops client hellos).
pub fn client_connect(addr: &str) -> Result<TcpStream, WireError> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    wire::write_frame(&mut stream, &wire::encode_hello(&wire::Hello::Client))?;
    let ack = wire::read_frame(&mut stream)?
        .ok_or_else(|| WireError::Handshake("ctld closed during handshake".into()))?;
    wire::decode_ack(&ack)?;
    Ok(stream)
}

/// Server side of the client handshake: reads the hello off a freshly
/// accepted socket, validates the role, and acks.
pub fn accept_client(stream: &mut TcpStream) -> Result<(), WireError> {
    stream.set_nodelay(true)?;
    let hello = wire::read_frame(stream)?
        .ok_or_else(|| WireError::Handshake("client closed during handshake".into()))?;
    match wire::decode_hello(&hello)? {
        wire::Hello::Client => wire::write_frame(stream, &wire::encode_ack(0, false, 0)),
        _ => Err(WireError::Handshake(
            "expected a client hello (role 2)".into(),
        )),
    }
}

/// What a [`CtldClient`] run ended as.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientOutcome {
    /// The script ran; its output lines (bit-identical to a solo run).
    Finished {
        /// Script output, in emission order.
        lines: Vec<String>,
        /// Kernels executed, as reported by the daemon.
        kernels: u64,
        /// Queue positions announced while waiting (empty = admitted
        /// immediately).
        queued_at: Vec<u32>,
    },
    /// Admission refused the session with the typed error.
    Rejected(AdmissionError),
    /// The script failed on the daemon.
    Failed(String),
}

/// A typed client connection to `grout-ctld`: the engine behind
/// `grout-run --connect`.
pub struct CtldClient {
    stream: TcpStream,
}

impl CtldClient {
    /// Connects and handshakes.
    pub fn connect(addr: &str) -> Result<Self, WireError> {
        Ok(CtldClient {
            stream: client_connect(addr)?,
        })
    }

    /// Ships the attach request.
    pub fn attach(
        &mut self,
        source: &str,
        priority: Priority,
        declared_bytes: u64,
    ) -> Result<(), WireError> {
        wire::write_frame(
            &mut self.stream,
            &wire::encode_client(&ClientMsg::Attach {
                source: source.to_string(),
                priority,
                declared_bytes,
            }),
        )
    }

    /// Reads the next daemon frame.
    pub fn next_msg(&mut self) -> Result<Option<CtldMsg>, WireError> {
        match wire::read_frame(&mut self.stream)? {
            Some(payload) => Ok(Some(wire::decode_ctld(&payload)?)),
            None => Ok(None),
        }
    }

    /// Runs an attach to completion: attaches `source`, streams frames
    /// (`on_event` sees each as it arrives — print queue positions,
    /// output lines as they come) and returns the terminal outcome.
    pub fn run(
        &mut self,
        source: &str,
        priority: Priority,
        declared_bytes: u64,
        mut on_event: impl FnMut(&CtldMsg),
    ) -> Result<ClientOutcome, WireError> {
        self.attach(source, priority, declared_bytes)?;
        let mut lines = Vec::new();
        let mut queued_at = Vec::new();
        loop {
            let Some(msg) = self.next_msg()? else {
                return Err(WireError::Handshake(
                    "ctld closed before a terminal frame".into(),
                ));
            };
            on_event(&msg);
            match msg {
                CtldMsg::Attached { .. } => {}
                CtldMsg::Queued { position } => queued_at.push(position),
                CtldMsg::Rejected(err) => return Ok(ClientOutcome::Rejected(err)),
                CtldMsg::Output { lines: batch } => lines.extend(batch),
                CtldMsg::Finished { kernels } => {
                    return Ok(ClientOutcome::Finished {
                        lines,
                        kernels,
                        queued_at,
                    })
                }
                CtldMsg::Failed { message } => return Ok(ClientOutcome::Failed(message)),
            }
        }
    }

    /// Announces an early detach (abandon a queued or running session).
    pub fn detach(&mut self) -> Result<(), WireError> {
        wire::write_frame(&mut self.stream, &wire::encode_client(&ClientMsg::Detach))
    }
}

// ---------------------------------------------------------------------------
// The multi-session op journal.

/// One shared, session-tagged op journal for the whole control plane.
/// Implements [`SessionOpLog`]; attach one
/// [`grout_core::SessionOpSink`] per session runtime and every tenant's
/// planner mutations land here in arrival order, each tagged with its
/// owner.
pub struct SessionJournal {
    out: BufWriter<File>,
}

impl SessionJournal {
    /// Creates (truncates) the journal at `path` and writes the header.
    pub fn create(path: &Path) -> Result<Self, WireError> {
        let mut out = BufWriter::new(File::create(path)?);
        out.write_all(&SESSION_JOURNAL_MAGIC)?;
        out.write_all(&SESSION_JOURNAL_VERSION.to_le_bytes())?;
        out.flush()?;
        Ok(SessionJournal { out })
    }
}

impl SessionOpLog for SessionJournal {
    fn append(&mut self, sid: SessionId, seq: u64, op: &PlannerOp, _digest: Option<u64>) {
        let op_bytes = wire::encode_op(op);
        let mut payload = Vec::with_capacity(16 + op_bytes.len());
        payload.extend_from_slice(&sid.0.to_le_bytes());
        payload.extend_from_slice(&seq.to_le_bytes());
        payload.extend_from_slice(&op_bytes);
        // Write-ahead semantics: the frame is on its way to disk before
        // the planner proceeds; a failing disk surfaces on the next
        // append's flush. Same best-effort stance as the single-tenant
        // journal sink.
        let _ = wire::write_frame(&mut self.out, &payload);
    }
}

/// Reads a [`SessionJournal`] back, split per session: each entry is the
/// session's `(seq, op)` stream in append order — feed it to
/// [`grout_core::replay_ops`] to rebuild that tenant's planner. A torn
/// tail frame (crashed writer) is ignored.
pub fn read_session_journal(
    path: &Path,
) -> Result<BTreeMap<SessionId, Vec<(u64, PlannerOp)>>, WireError> {
    let mut raw = Vec::new();
    File::open(path)?.read_to_end(&mut raw)?;
    if raw.len() < 6 || raw[..4] != SESSION_JOURNAL_MAGIC {
        return Err(WireError::Handshake(format!(
            "{} is not a session journal (bad magic)",
            path.display()
        )));
    }
    let version = u16::from_le_bytes([raw[4], raw[5]]);
    if version != SESSION_JOURNAL_VERSION {
        return Err(WireError::Handshake(format!(
            "session journal version {version}, this build reads {SESSION_JOURNAL_VERSION}"
        )));
    }
    let mut cursor = &raw[6..];
    let mut per_session: BTreeMap<SessionId, Vec<(u64, PlannerOp)>> = BTreeMap::new();
    while cursor.len() >= 4 {
        let len = u32::from_le_bytes(cursor[..4].try_into().unwrap()) as usize;
        if cursor.len() < 4 + len {
            break; // torn tail frame: the writer crashed mid-append
        }
        let payload = &cursor[4..4 + len];
        cursor = &cursor[4 + len..];
        if payload.len() < 16 {
            return Err(WireError::Malformed("session journal record"));
        }
        let sid = SessionId(u64::from_le_bytes(payload[..8].try_into().unwrap()));
        let seq = u64::from_le_bytes(payload[8..16].try_into().unwrap());
        let op = wire::decode_op(&payload[16..])?;
        per_session.entry(sid).or_default().push((seq, op));
    }
    Ok(per_session)
}

#[cfg(test)]
mod tests {
    use super::*;
    use grout_core::ArrayId;

    #[test]
    fn session_journal_roundtrips_per_tenant() {
        let dir = std::env::temp_dir().join(format!(
            "grout-ctld-journal-{}-{:x}",
            std::process::id(),
            grout_core::monotonic_ns()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sessions.grsj");
        {
            let mut j = SessionJournal::create(&path).unwrap();
            j.append(SessionId(1), 0, &PlannerOp::Alloc { bytes: 64 }, None);
            j.append(SessionId(2), 0, &PlannerOp::Alloc { bytes: 128 }, None);
            j.append(
                SessionId(1),
                1,
                &PlannerOp::Free { array: ArrayId(0) },
                None,
            );
            use std::io::Write as _;
            j.out.flush().unwrap();
        }
        let back = read_session_journal(&path).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[&SessionId(1)].len(), 2);
        assert_eq!(back[&SessionId(1)][1].0, 1);
        assert_eq!(back[&SessionId(2)].len(), 1);
        assert!(matches!(
            back[&SessionId(2)][0].1,
            PlannerOp::Alloc { bytes: 128 }
        ));

        // The header is strict, like the single-tenant journal's: any
        // other version or magic is a typed reject naming what was found.
        let mut raw = std::fs::read(&path).unwrap();
        raw[4..6].copy_from_slice(&(SESSION_JOURNAL_VERSION + 1).to_le_bytes());
        std::fs::write(&path, &raw).unwrap();
        match read_session_journal(&path) {
            Err(WireError::Handshake(msg)) => assert!(
                msg.contains(&format!("version {}", SESSION_JOURNAL_VERSION + 1))
                    && msg.contains(&format!("reads {SESSION_JOURNAL_VERSION}")),
                "{msg}"
            ),
            other => panic!("expected a version reject, got {other:?}"),
        }
        raw[0] = b'X';
        std::fs::write(&path, &raw).unwrap();
        assert!(matches!(
            read_session_journal(&path),
            Err(WireError::Handshake(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
}
