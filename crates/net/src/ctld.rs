//! Client-side and shared plumbing for the `grout-ctld` control plane.
//!
//! The daemon itself lives in the `grout-ctld` binary (it needs the
//! guest-script interpreter); this module holds everything protocol- and
//! persistence-shaped:
//!
//! - the client handshake ([`client_connect`] / [`accept_client`]),
//! - [`CtldClient`]: the typed connection `grout-run --connect` drives
//!   (attach a script, stream [`CtldMsg`] frames back),
//! - [`read_session_journal`]: a `grout-ctld --journal` file split back
//!   per tenant (the format is [`crate::oplog`]'s).

use std::collections::BTreeMap;
use std::net::TcpStream;
use std::path::Path;

use grout_core::{AdmissionError, PlannerOp, Priority, SessionId};

use crate::oplog::read_journal_sessions;
use crate::wire::{self, ClientMsg, CtldMsg, WireError};

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
// The daemon's journal, per tenant.

/// Reads a `grout-ctld --journal` file back, split per session: each
/// entry is the session's `(seq, op)` stream in append order — feed it to
/// [`grout_core::replay_ops`] to rebuild that tenant's planner. A view
/// over [`read_journal_sessions`]; a torn tail frame is ignored.
pub fn read_session_journal(
    path: &Path,
) -> Result<BTreeMap<SessionId, Vec<(u64, PlannerOp)>>, WireError> {
    let (sessions, _) = read_journal_sessions(path)?;
    Ok(sessions
        .into_iter()
        .map(|(sid, journal)| (sid, (0..).zip(journal.ops).collect()))
        .collect())
}
