//! The wire protocol: framing, handshake and the message codec.
//!
//! Everything is hand-rolled little-endian binary — the vendored `serde`
//! shim is serialize-only, and a byte-exact float encoding
//! (`f32::to_le_bytes`) is what makes the TCP loopback differential test
//! bit-identical to the in-process run anyway.
//!
//! ## Frame layout
//!
//! Every message after the handshake travels as one frame:
//!
//! ```text
//! +----------------+---------------------+
//! | len: u32 LE    | payload (len bytes) |
//! +----------------+---------------------+
//! ```
//!
//! `len` counts the payload only and is capped at [`MAX_FRAME`] (a corrupt
//! or hostile peer cannot make us allocate unbounded memory). The payload's
//! first byte is a message tag; the remaining fields are fixed-width LE
//! integers, length-prefixed strings/byte-vectors, or nested encodings
//! (see the `encode_*`/`decode_*` pairs below).
//!
//! ## Handshake
//!
//! The first frame on every fresh connection identifies the dialer:
//!
//! - controller → worker: magic `b"GRNT"`, [`WIRE_VERSION`], role byte `0`,
//!   then the worker's index, the total worker count, the heartbeat cadence
//!   in milliseconds, and the full peer address list. The worker answers
//!   with an ack frame (magic, version, echoed index) and only then reads
//!   plan traffic.
//! - worker → worker: magic, version, role byte `1`, then the dialing
//!   worker's index. No ack — peer sockets are write-one-way; the reverse
//!   direction gets its own dialed socket.
//!
//! - client → `grout-ctld`: magic, version, role byte `2`; the daemon
//!   answers with an ack and the [`ClientMsg`]/[`CtldMsg`] exchange
//!   follows.
//!
//! Both ends are one deployment unit, so nothing is negotiated: a magic
//! mismatch, or a hello or ack whose version is not exactly
//! [`WIRE_VERSION`], aborts the connection with a
//! [`WireError::Handshake`] naming both versions.
//!
//! ## Session envelope
//!
//! On the controller↔worker socket every frame after the handshake is
//! an [`Envelope`]: plan traffic rides *reliable* frames (sequenced,
//! buffered until cumulatively acked, replayed across a session resume,
//! deduplicated by the receiver's cursor); heartbeats, clock sync and
//! [`SESSION_ACK_TAG`] acks ride *ephemeral* frames that are never
//! buffered. Peer data sockets, the client protocol and the log-shipping
//! stream carry bare payloads.
//!
//! ## Clock-sync frames
//!
//! Workers estimate their clock offset against the controller with an
//! NTP-style exchange piggybacked on the heartbeat cadence: the worker
//! sends [`encode_clock_ping`] carrying its send stamp `t1`, the
//! controller's reader stamps arrival `t2` and answers
//! [`encode_clock_pong`] `{t1, t2}`, and the worker stamps arrival `t4`,
//! deriving `offset = t2 - (t1 + t4)/2` and `rtt = t4 - t1`, which it
//! reports with [`encode_clock_sample`]. These frames use high tag
//! values ([`CLOCK_PING_TAG`]/[`CLOCK_PONG_TAG`]/[`CLOCK_SAMPLE_TAG`]);
//! both ends peek the tag byte and handle them inside the transport —
//! they never surface as [`CtrlMsg`]/[`WorkerMsg`] traffic.

use std::io::{Read, Write};

use grout_core::{
    validate_planner_inputs, AccessMode, AccessPattern, AdmissionError, ArrayId, Ce, CeArg, CeId,
    CeKind, CtrlMsg, ExecFault, ExecSpec, ExplorationLevel, FaultConfig, FaultEvent, FaultKind,
    FaultPlan, HostBuf, KernelCost, LinkMatrix, LocalArg, MemAdvise, PlanError, PlannerConfig,
    PlannerOp, PolicyKind, Priority, SimDuration, WorkerCounters, WorkerMsg, WorkerSpan,
    WorkerSpanKind, MAX_ENDPOINTS,
};
use kernelc::LaunchError;

/// Protocol magic: the first four bytes of every handshake frame.
pub const MAGIC: [u8; 4] = *b"GRNT";

/// Wire protocol version: bump on any change to the layout or to what a
/// field means; both ends must match exactly (see [`decode_hello`]). v7
/// has v6's frame bytes; what changed is the planner state a `ShipAck`
/// digest is taken over (the DAG keeps fewer readers per array and a
/// smaller frontier for the same ops), so a v6 standby would look diverged.
pub const WIRE_VERSION: u16 = 7;

/// Worker→controller clock-sync ping (`t1`), and controller→worker pong
/// (`t1, t2`) — the tag is reused across the two directions' tag spaces.
pub const CLOCK_PING_TAG: u8 = 0xF0;

/// Controller→worker clock-sync pong (same value as [`CLOCK_PING_TAG`],
/// in the ctrl tag space).
pub const CLOCK_PONG_TAG: u8 = 0xF0;

/// Worker→controller clock-offset sample (`offset, rtt`).
pub const CLOCK_SAMPLE_TAG: u8 = 0xF1;

/// Cumulative receive-cursor acknowledgement for the reliable layer
/// (both directions; ephemeral — never sequenced or replayed itself).
pub const SESSION_ACK_TAG: u8 = 0xF2;

/// Envelope kind byte: an ephemeral frame (clock sync, session acks,
/// heartbeats) — delivered best-effort, never buffered for resume replay.
pub const ENVELOPE_EPHEMERAL: u8 = 0;

/// Envelope kind byte: a reliable frame — carries a per-direction
/// monotonic sequence number, is buffered until cumulatively acked, and
/// is replayed across a session resume. The receiver's cursor dedupes
/// replayed frames, so the delivered stream is exactly-once in-order.
pub const ENVELOPE_RELIABLE: u8 = 1;

/// Spans cap a decoder accepts in one telemetry batch (a corrupt or
/// hostile length cannot force unbounded allocation; honest senders
/// chunk at `TELEMETRY_MAX_BATCH`, far below this).
pub const TELEMETRY_DECODE_CAP: usize = 4096;

/// Hard cap on a single frame's payload (1 GiB): large enough for any
/// array the host-CPU kernels can hold, small enough to bound the damage
/// of a corrupt length prefix.
pub const MAX_FRAME: u32 = 1 << 30;

/// Anything that can go wrong on the wire.
#[derive(Debug)]
pub enum WireError {
    /// The socket failed.
    Io(std::io::Error),
    /// A frame decoded to garbage (unknown tag, truncated field, ...).
    Malformed(&'static str),
    /// A frame announced a payload beyond [`MAX_FRAME`].
    TooLarge(u32),
    /// The handshake failed (bad magic, version mismatch, wrong role).
    Handshake(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "socket error: {e}"),
            WireError::Malformed(what) => write!(f, "malformed frame: {what}"),
            WireError::TooLarge(len) => {
                write!(f, "frame of {len} bytes exceeds the {MAX_FRAME}-byte cap")
            }
            WireError::Handshake(why) => write!(f, "handshake failed: {why}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

/// Writes one length-prefixed frame.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), WireError> {
    let len = u32::try_from(payload.len()).map_err(|_| WireError::TooLarge(u32::MAX))?;
    if len > MAX_FRAME {
        return Err(WireError::TooLarge(len));
    }
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(())
}

/// Reads one length-prefixed frame; `Ok(None)` on clean EOF at a frame
/// boundary (the peer closed the connection).
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, WireError> {
    let mut len = [0u8; 4];
    match r.read_exact(&mut len) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e.into()),
    }
    let len = u32::from_le_bytes(len);
    if len > MAX_FRAME {
        return Err(WireError::TooLarge(len));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

// ---------------------------------------------------------------------------
// Primitive encoders/decoders.

/// Append-only byte writer for message payloads.
#[derive(Default)]
pub struct Enc(Vec<u8>);

impl Enc {
    /// Fresh buffer.
    pub fn new() -> Self {
        Enc(Vec::new())
    }

    /// The finished payload.
    pub fn into_bytes(self) -> Vec<u8> {
        self.0
    }

    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn i64(&mut self, v: i64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn f32(&mut self, v: f32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn i32(&mut self, v: i32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn bytes(&mut self, v: &[u8]) {
        self.u64(v.len() as u64);
        self.0.extend_from_slice(v);
    }
    /// A counted run of 4-byte LE words, sized once and filled in one
    /// pass (a 4 MiB array is a million elements; pushing them one at a
    /// time re-checks capacity on each).
    fn words<T: Copy>(&mut self, v: &[T], le: impl Fn(T) -> [u8; 4]) {
        self.u64(v.len() as u64);
        let start = self.0.len();
        self.0.resize(start + v.len() * 4, 0);
        for (dst, x) in self.0[start..].chunks_exact_mut(4).zip(v) {
            dst.copy_from_slice(&le(*x));
        }
    }
    fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }
}

/// Cursor over a received payload.
pub struct Dec<'a> {
    buf: &'a [u8],
}

impl<'a> Dec<'a> {
    /// Wrap a payload.
    pub fn new(buf: &'a [u8]) -> Self {
        Dec { buf }
    }

    /// Every byte consumed?
    pub fn finished(&self) -> bool {
        self.buf.is_empty()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.buf.len() < n {
            return Err(WireError::Malformed("truncated field"));
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }
    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn i64(&mut self) -> Result<i64, WireError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn f32(&mut self) -> Result<f32, WireError> {
        Ok(f32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn i32(&mut self) -> Result<i32, WireError> {
        Ok(i32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn bytes(&mut self) -> Result<&'a [u8], WireError> {
        let len = self.u64()?;
        let len = usize::try_from(len).map_err(|_| WireError::Malformed("length overflow"))?;
        self.take(len)
    }
    fn str(&mut self) -> Result<String, WireError> {
        let b = self.bytes()?;
        String::from_utf8(b.to_vec()).map_err(|_| WireError::Malformed("non-utf8 string"))
    }
}

fn enc_hostbuf(e: &mut Enc, buf: &HostBuf) {
    match buf {
        HostBuf::F32(v) => {
            e.u8(0);
            e.words(v, f32::to_le_bytes);
        }
        HostBuf::I32(v) => {
            e.u8(1);
            e.words(v, i32::to_le_bytes);
        }
    }
}

fn dec_hostbuf(d: &mut Dec) -> Result<HostBuf, WireError> {
    let tag = d.u8()?;
    let n = d.u64()? as usize;
    match tag {
        0 => {
            let raw = d.take(n.checked_mul(4).ok_or(WireError::Malformed("buf len"))?)?;
            Ok(HostBuf::F32(
                raw.chunks_exact(4)
                    .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
                    .collect(),
            ))
        }
        1 => {
            let raw = d.take(n.checked_mul(4).ok_or(WireError::Malformed("buf len"))?)?;
            Ok(HostBuf::I32(
                raw.chunks_exact(4)
                    .map(|c| i32::from_le_bytes(c.try_into().unwrap()))
                    .collect(),
            ))
        }
        _ => Err(WireError::Malformed("hostbuf tag")),
    }
}

fn enc_args(e: &mut Enc, args: &[LocalArg]) {
    e.u64(args.len() as u64);
    for a in args {
        match a {
            LocalArg::Buf(id) => {
                e.u8(0);
                e.u64(id.0);
            }
            LocalArg::F32(v) => {
                e.u8(1);
                e.f32(*v);
            }
            LocalArg::I32(v) => {
                e.u8(2);
                e.i32(*v);
            }
        }
    }
}

fn dec_args(d: &mut Dec) -> Result<Vec<LocalArg>, WireError> {
    let n = d.u64()? as usize;
    let mut out = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        out.push(match d.u8()? {
            0 => LocalArg::Buf(ArrayId(d.u64()?)),
            1 => LocalArg::F32(d.f32()?),
            2 => LocalArg::I32(d.i32()?),
            _ => return Err(WireError::Malformed("arg tag")),
        });
    }
    Ok(out)
}

fn enc_versions(e: &mut Enc, v: &[(ArrayId, u64)]) {
    e.u64(v.len() as u64);
    for (a, ver) in v {
        e.u64(a.0);
        e.u64(*ver);
    }
}

fn dec_versions(d: &mut Dec) -> Result<Vec<(ArrayId, u64)>, WireError> {
    let n = d.u64()? as usize;
    let mut out = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        out.push((ArrayId(d.u64()?), d.u64()?));
    }
    Ok(out)
}

fn enc_launch_error(e: &mut Enc, err: &LaunchError) {
    match err {
        LaunchError::Arity { expected, got } => {
            e.u8(0);
            e.u64(*expected as u64);
            e.u64(*got as u64);
        }
        LaunchError::ArgType { index, expected } => {
            e.u8(1);
            e.u64(*index as u64);
            e.str(expected);
        }
        LaunchError::OutOfBounds { param, index, len } => {
            e.u8(2);
            e.u64(*param as u64);
            e.i64(*index);
            e.u64(*len as u64);
        }
        LaunchError::DivideByZero => e.u8(3),
        LaunchError::StepBudgetExceeded => e.u8(4),
        LaunchError::EmptyLaunch => e.u8(5),
    }
}

fn dec_launch_error(d: &mut Dec) -> Result<LaunchError, WireError> {
    Ok(match d.u8()? {
        0 => LaunchError::Arity {
            expected: d.u64()? as usize,
            got: d.u64()? as usize,
        },
        1 => LaunchError::ArgType {
            index: d.u64()? as usize,
            expected: d.str()?,
        },
        2 => LaunchError::OutOfBounds {
            param: d.u64()? as usize,
            index: d.i64()?,
            len: d.u64()? as usize,
        },
        3 => LaunchError::DivideByZero,
        4 => LaunchError::StepBudgetExceeded,
        5 => LaunchError::EmptyLaunch,
        _ => return Err(WireError::Malformed("launch-error tag")),
    })
}

// ---------------------------------------------------------------------------
// Planner-op codec (log shipping and the on-disk journal share it).

fn enc_access_mode(e: &mut Enc, m: AccessMode) {
    e.u8(match m {
        AccessMode::Read => 0,
        AccessMode::Write => 1,
        AccessMode::ReadWrite => 2,
    });
}

fn dec_access_mode(d: &mut Dec) -> Result<AccessMode, WireError> {
    Ok(match d.u8()? {
        0 => AccessMode::Read,
        1 => AccessMode::Write,
        2 => AccessMode::ReadWrite,
        _ => return Err(WireError::Malformed("access-mode tag")),
    })
}

fn enc_access_pattern(e: &mut Enc, p: &AccessPattern) {
    match p {
        AccessPattern::Streamed { sweeps } => {
            e.u8(0);
            e.f64(*sweeps);
        }
        AccessPattern::Gather { touches_per_page } => {
            e.u8(1);
            e.f64(*touches_per_page);
        }
        AccessPattern::Strided { touches_per_page } => {
            e.u8(2);
            e.f64(*touches_per_page);
        }
    }
}

fn dec_access_pattern(d: &mut Dec) -> Result<AccessPattern, WireError> {
    Ok(match d.u8()? {
        0 => AccessPattern::Streamed { sweeps: d.f64()? },
        1 => AccessPattern::Gather {
            touches_per_page: d.f64()?,
        },
        2 => AccessPattern::Strided {
            touches_per_page: d.f64()?,
        },
        _ => return Err(WireError::Malformed("access-pattern tag")),
    })
}

fn enc_advise(e: &mut Enc, a: MemAdvise) {
    e.u8(match a {
        MemAdvise::None => 0,
        MemAdvise::ReadMostly => 1,
        MemAdvise::PreferredHost => 2,
    });
}

fn dec_advise(d: &mut Dec) -> Result<MemAdvise, WireError> {
    Ok(match d.u8()? {
        0 => MemAdvise::None,
        1 => MemAdvise::ReadMostly,
        2 => MemAdvise::PreferredHost,
        _ => return Err(WireError::Malformed("advise tag")),
    })
}

fn enc_ce(e: &mut Enc, ce: &Ce) {
    e.u64(ce.id.0);
    match &ce.kind {
        CeKind::Kernel { name, cost } => {
            e.u8(0);
            e.str(name);
            e.f64(cost.flops);
            e.u64(cost.bytes_read);
            e.u64(cost.bytes_written);
        }
        CeKind::HostRead => e.u8(1),
        CeKind::HostWrite => e.u8(2),
    }
    e.u64(ce.args.len() as u64);
    for a in &ce.args {
        e.u64(a.array.0);
        e.u64(a.bytes);
        e.u64(a.alloc_bytes);
        enc_access_mode(e, a.mode);
        enc_access_pattern(e, &a.pattern);
        enc_advise(e, a.advise);
    }
}

fn dec_ce(d: &mut Dec) -> Result<Ce, WireError> {
    let id = CeId(d.u64()?);
    let kind = match d.u8()? {
        0 => CeKind::Kernel {
            name: d.str()?,
            cost: KernelCost {
                flops: d.f64()?,
                bytes_read: d.u64()?,
                bytes_written: d.u64()?,
            },
        },
        1 => CeKind::HostRead,
        2 => CeKind::HostWrite,
        _ => return Err(WireError::Malformed("ce-kind tag")),
    };
    let n = d.u64()? as usize;
    let mut args = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        args.push(CeArg {
            array: ArrayId(d.u64()?),
            bytes: d.u64()?,
            alloc_bytes: d.u64()?,
            mode: dec_access_mode(d)?,
            pattern: dec_access_pattern(d)?,
            advise: dec_advise(d)?,
        });
    }
    Ok(Ce { id, kind, args })
}

fn enc_links(e: &mut Enc, links: &LinkMatrix) {
    let n = links.endpoints();
    e.u32(n as u32);
    for src in 0..n {
        for dst in 0..n {
            e.f64(links.raw(src, dst));
        }
    }
}

fn dec_links(d: &mut Dec) -> Result<LinkMatrix, WireError> {
    let n = d.u32()? as usize;
    if n == 0 || n > MAX_ENDPOINTS {
        return Err(WireError::Malformed("link-matrix size"));
    }
    let mut bw = Vec::with_capacity(n);
    for _ in 0..n {
        let mut row = Vec::with_capacity(n);
        for _ in 0..n {
            row.push(d.f64()?);
        }
        bw.push(row);
    }
    Ok(LinkMatrix::new(bw))
}

fn enc_opt_links(e: &mut Enc, links: &Option<LinkMatrix>) {
    match links {
        None => e.u8(0),
        Some(m) => {
            e.u8(1);
            enc_links(e, m);
        }
    }
}

fn dec_opt_links(d: &mut Dec) -> Result<Option<LinkMatrix>, WireError> {
    Ok(match d.u8()? {
        0 => None,
        1 => Some(dec_links(d)?),
        _ => return Err(WireError::Malformed("opt-links tag")),
    })
}

fn enc_exploration(e: &mut Enc, lvl: ExplorationLevel) {
    e.u8(match lvl {
        ExplorationLevel::Low => 0,
        ExplorationLevel::Medium => 1,
        ExplorationLevel::High => 2,
    });
}

fn dec_exploration(d: &mut Dec) -> Result<ExplorationLevel, WireError> {
    Ok(match d.u8()? {
        0 => ExplorationLevel::Low,
        1 => ExplorationLevel::Medium,
        2 => ExplorationLevel::High,
        _ => return Err(WireError::Malformed("exploration tag")),
    })
}

fn enc_fault_kind(e: &mut Enc, k: &FaultKind) {
    match k {
        FaultKind::KillWorker => e.u8(0),
        FaultKind::FailLaunch { times } => {
            e.u8(1);
            e.u32(*times);
        }
        FaultKind::DropTransfer => e.u8(2),
        FaultKind::DelayTransfer { delay } => {
            e.u8(3);
            e.u64(delay.0);
        }
    }
}

fn dec_fault_kind(d: &mut Dec) -> Result<FaultKind, WireError> {
    Ok(match d.u8()? {
        0 => FaultKind::KillWorker,
        1 => FaultKind::FailLaunch { times: d.u32()? },
        2 => FaultKind::DropTransfer,
        3 => FaultKind::DelayTransfer {
            delay: SimDuration(d.u64()?),
        },
        _ => return Err(WireError::Malformed("fault-kind tag")),
    })
}

fn enc_planner_config(e: &mut Enc, cfg: &PlannerConfig) {
    e.u32(cfg.workers as u32);
    match &cfg.policy {
        PolicyKind::RoundRobin => e.u8(0),
        PolicyKind::VectorStep(v) => {
            e.u8(1);
            e.u64(v.len() as u64);
            for c in v {
                e.u32(*c);
            }
        }
        PolicyKind::MinTransferSize(lvl) => {
            e.u8(2);
            enc_exploration(e, *lvl);
        }
        PolicyKind::MinTransferTime(lvl) => {
            e.u8(3);
            enc_exploration(e, *lvl);
        }
    }
    e.u8(u8::from(cfg.p2p_enabled));
    e.u8(u8::from(cfg.flat_scheduling));
    e.u8(u8::from(cfg.controller_colocated));
    e.u64(cfg.faults.events().len() as u64);
    for ev in cfg.faults.events() {
        e.u64(ev.at_ce as u64);
        enc_fault_kind(e, &ev.kind);
    }
    e.u32(cfg.fault_cfg.max_retries);
    e.u64(cfg.fault_cfg.backoff_base.0);
    e.u64(cfg.fault_cfg.backoff_cap.0);
    e.u64(cfg.fault_cfg.detection_timeout.0);
    e.u8(u8::from(cfg.fault_cfg.recovery));
    e.u32(cfg.fault_cfg.heartbeat_ms);
    e.u32(cfg.fault_cfg.stale_after_beats);
    e.u64(cfg.fault_cfg.reconnect_window.0);
}

fn dec_planner_config(d: &mut Dec) -> Result<PlannerConfig, WireError> {
    let workers = d.u32()? as usize;
    let policy = match d.u8()? {
        0 => PolicyKind::RoundRobin,
        1 => {
            let n = d.u64()? as usize;
            let mut v = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                v.push(d.u32()?);
            }
            PolicyKind::VectorStep(v)
        }
        2 => PolicyKind::MinTransferSize(dec_exploration(d)?),
        3 => PolicyKind::MinTransferTime(dec_exploration(d)?),
        _ => return Err(WireError::Malformed("policy tag")),
    };
    let p2p_enabled = d.u8()? != 0;
    let flat_scheduling = d.u8()? != 0;
    let controller_colocated = d.u8()? != 0;
    let n = d.u64()? as usize;
    let mut events = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        events.push(FaultEvent {
            at_ce: d.u64()? as usize,
            kind: dec_fault_kind(d)?,
        });
    }
    let fault_cfg = FaultConfig {
        max_retries: d.u32()?,
        backoff_base: SimDuration(d.u64()?),
        backoff_cap: SimDuration(d.u64()?),
        detection_timeout: SimDuration(d.u64()?),
        recovery: d.u8()? != 0,
        heartbeat_ms: d.u32()?,
        stale_after_beats: d.u32()?,
        reconnect_window: SimDuration(d.u64()?),
    };
    Ok(PlannerConfig {
        workers,
        policy,
        p2p_enabled,
        flat_scheduling,
        controller_colocated,
        faults: FaultPlan::with_events(events),
        fault_cfg,
    })
}

/// Decodes a planner's construction inputs and refuses any on which
/// [`grout_core::Planner::new`] would panic: they come from a socket or a
/// file, so a bad worker count or policy is a malformed frame.
fn dec_planner_inputs(d: &mut Dec) -> Result<(PlannerConfig, Option<LinkMatrix>), WireError> {
    let cfg = dec_planner_config(d)?;
    let links = dec_opt_links(d)?;
    validate_planner_inputs(&cfg, links.as_ref()).map_err(|e| match e {
        PlanError::InvalidConfig(why) => WireError::Malformed(why),
        _ => WireError::Malformed("planner config"),
    })?;
    Ok((cfg, links))
}

/// Encodes a planner's construction inputs — configuration plus the
/// (possibly probed, run-specific) link matrix — as one payload: the
/// journal header of [`crate::oplog`].
pub fn encode_journal_header(cfg: &PlannerConfig, links: &Option<LinkMatrix>) -> Vec<u8> {
    let mut e = Enc::new();
    enc_planner_config(&mut e, cfg);
    enc_opt_links(&mut e, links);
    e.into_bytes()
}

/// Decodes a [`encode_journal_header`] payload.
pub fn decode_journal_header(
    payload: &[u8],
) -> Result<(PlannerConfig, Option<LinkMatrix>), WireError> {
    let mut d = Dec::new(payload);
    let inputs = dec_planner_inputs(&mut d)?;
    if !d.finished() {
        return Err(WireError::Malformed("trailing bytes"));
    }
    Ok(inputs)
}

/// Encodes one [`PlannerOp`] (standalone payload: log shipping nests it
/// in [`CtrlMsg::ShipOp`]; the journal stores it per frame).
pub fn encode_op(op: &PlannerOp) -> Vec<u8> {
    let mut e = Enc::new();
    enc_op(&mut e, op);
    e.into_bytes()
}

/// Decodes a [`encode_op`] payload.
pub fn decode_op(payload: &[u8]) -> Result<PlannerOp, WireError> {
    let mut d = Dec::new(payload);
    let op = dec_op(&mut d)?;
    if !d.finished() {
        return Err(WireError::Malformed("trailing bytes"));
    }
    Ok(op)
}

fn enc_op(e: &mut Enc, op: &PlannerOp) {
    match op {
        PlannerOp::Alloc { bytes } => {
            e.u8(0);
            e.u64(*bytes);
        }
        PlannerOp::Free { array } => {
            e.u8(1);
            e.u64(array.0);
        }
        PlannerOp::PlanCe { ce } => {
            e.u8(2);
            enc_ce(e, ce);
        }
        PlannerOp::MarkCompleted { dag_index } => {
            e.u8(3);
            e.u64(*dag_index as u64);
        }
        PlannerOp::Quarantine { worker } => {
            e.u8(4);
            e.u32(*worker as u32);
        }
        PlannerOp::Recover { dead, incomplete } => {
            e.u8(5);
            e.u32(*dead as u32);
            e.u64(incomplete.len() as u64);
            for i in incomplete {
                e.u64(*i as u64);
            }
        }
        PlannerOp::ReprobeLinks { links } => {
            e.u8(6);
            enc_links(e, links);
        }
        PlannerOp::Suspect { worker } => {
            e.u8(7);
            e.u32(*worker as u32);
        }
        PlannerOp::Reinstate { worker } => {
            e.u8(8);
            e.u32(*worker as u32);
        }
        PlannerOp::Rejoin { worker } => {
            e.u8(9);
            e.u32(*worker as u32);
        }
        PlannerOp::Join { worker } => {
            e.u8(10);
            e.u32(*worker as u32);
        }
        PlannerOp::Leave { worker } => {
            e.u8(11);
            e.u32(*worker as u32);
        }
    }
}

fn dec_op(d: &mut Dec) -> Result<PlannerOp, WireError> {
    Ok(match d.u8()? {
        0 => PlannerOp::Alloc { bytes: d.u64()? },
        1 => PlannerOp::Free {
            array: ArrayId(d.u64()?),
        },
        2 => PlannerOp::PlanCe { ce: dec_ce(d)? },
        3 => PlannerOp::MarkCompleted {
            dag_index: d.u64()? as usize,
        },
        4 => PlannerOp::Quarantine {
            worker: d.u32()? as usize,
        },
        5 => {
            let dead = d.u32()? as usize;
            let n = d.u64()? as usize;
            let mut incomplete = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                incomplete.push(d.u64()? as usize);
            }
            PlannerOp::Recover { dead, incomplete }
        }
        6 => PlannerOp::ReprobeLinks {
            links: dec_links(d)?,
        },
        7 => PlannerOp::Suspect {
            worker: d.u32()? as usize,
        },
        8 => PlannerOp::Reinstate {
            worker: d.u32()? as usize,
        },
        9 => PlannerOp::Rejoin {
            worker: d.u32()? as usize,
        },
        10 => PlannerOp::Join {
            worker: d.u32()? as usize,
        },
        11 => PlannerOp::Leave {
            worker: d.u32()? as usize,
        },
        _ => return Err(WireError::Malformed("op tag")),
    })
}

// ---------------------------------------------------------------------------
// Message codecs.

/// Encodes a controller→worker (or peer) message. `LoadKernel` drops the
/// in-process `compiled` fast path at the wire: only `(source, name)`
/// travel, and the receiving worker recompiles (deterministically).
pub fn encode_ctrl(msg: &CtrlMsg) -> Vec<u8> {
    let mut e = Enc::new();
    match msg {
        CtrlMsg::Data {
            array,
            version,
            buf,
        } => {
            e.u8(0);
            e.u64(array.0);
            e.u64(*version);
            enc_hostbuf(&mut e, buf);
        }
        CtrlMsg::LoadKernel {
            id, name, source, ..
        } => {
            e.u8(1);
            e.u64(*id);
            e.str(name);
            e.str(source);
        }
        CtrlMsg::Exec(spec) => {
            e.u8(2);
            e.u64(spec.dag_index as u64);
            e.u64(spec.kernel);
            e.u32(spec.grid.0);
            e.u32(spec.grid.1);
            e.u32(spec.block.0);
            e.u32(spec.block.1);
            enc_args(&mut e, &spec.args);
            enc_versions(&mut e, &spec.needs);
            enc_versions(&mut e, &spec.bumps);
            match spec.fault {
                None => e.u8(0),
                Some(ExecFault::Crash) => e.u8(1),
                Some(ExecFault::FailTransient) => e.u8(2),
            }
        }
        CtrlMsg::Send {
            array,
            min_version,
            to,
        } => {
            e.u8(3);
            e.u64(array.0);
            e.u64(*min_version);
            match to {
                None => e.u8(0),
                Some(w) => {
                    e.u8(1);
                    e.u32(*w as u32);
                }
            }
        }
        CtrlMsg::Probe { token, payload } => {
            e.u8(4);
            e.u64(*token);
            e.bytes(payload);
        }
        CtrlMsg::ProbePeer { token, to, bytes } => {
            e.u8(5);
            e.u64(*token);
            e.u32(*to as u32);
            e.u64(*bytes);
        }
        CtrlMsg::PeerProbe {
            token,
            from,
            payload,
        } => {
            e.u8(6);
            e.u64(*token);
            e.u32(*from as u32);
            e.bytes(payload);
        }
        CtrlMsg::PeerProbeEcho { token, payload } => {
            e.u8(7);
            e.u64(*token);
            e.bytes(payload);
        }
        CtrlMsg::Shutdown => e.u8(8),
        CtrlMsg::Observe { enabled } => {
            e.u8(9);
            e.u8(u8::from(*enabled));
        }
        CtrlMsg::ShipInit { cfg, links } => {
            e.u8(10);
            enc_planner_config(&mut e, cfg);
            enc_opt_links(&mut e, links);
        }
        CtrlMsg::ShipOp { seq, op } => {
            e.u8(11);
            e.u64(*seq);
            enc_op(&mut e, op);
        }
        CtrlMsg::Leave => e.u8(12),
        CtrlMsg::Peers { addrs } => {
            e.u8(13);
            e.u32(addrs.len() as u32);
            for a in addrs {
                e.str(a);
            }
        }
        CtrlMsg::Batch(msgs) => {
            e.u8(14);
            e.u32(msgs.len() as u32);
            // Length-prefixed sub-payloads: the inner codec is reused
            // verbatim, one level deep (nested batches are rejected).
            for m in msgs {
                e.bytes(&encode_ctrl(m));
            }
        }
        CtrlMsg::Reclaim { arrays, kernels } => {
            e.u8(15);
            e.u32(arrays.len() as u32);
            for a in arrays {
                e.u64(a.0);
            }
            e.u32(kernels.len() as u32);
            for k in kernels {
                e.u64(*k);
            }
        }
    }
    e.into_bytes()
}

/// Decodes a controller→worker (or peer) message.
pub fn decode_ctrl(payload: &[u8]) -> Result<CtrlMsg, WireError> {
    let mut d = Dec::new(payload);
    let msg = match d.u8()? {
        0 => CtrlMsg::Data {
            array: ArrayId(d.u64()?),
            version: d.u64()?,
            buf: dec_hostbuf(&mut d)?,
        },
        1 => CtrlMsg::LoadKernel {
            id: d.u64()?,
            name: d.str()?,
            source: d.str()?,
            compiled: None,
        },
        2 => CtrlMsg::Exec(ExecSpec {
            dag_index: d.u64()? as usize,
            kernel: d.u64()?,
            grid: (d.u32()?, d.u32()?),
            block: (d.u32()?, d.u32()?),
            args: dec_args(&mut d)?,
            needs: dec_versions(&mut d)?,
            bumps: dec_versions(&mut d)?,
            fault: match d.u8()? {
                0 => None,
                1 => Some(ExecFault::Crash),
                2 => Some(ExecFault::FailTransient),
                _ => return Err(WireError::Malformed("fault tag")),
            },
        }),
        3 => CtrlMsg::Send {
            array: ArrayId(d.u64()?),
            min_version: d.u64()?,
            to: match d.u8()? {
                0 => None,
                1 => Some(d.u32()? as usize),
                _ => return Err(WireError::Malformed("send-to tag")),
            },
        },
        4 => CtrlMsg::Probe {
            token: d.u64()?,
            payload: d.bytes()?.to_vec(),
        },
        5 => CtrlMsg::ProbePeer {
            token: d.u64()?,
            to: d.u32()? as usize,
            bytes: d.u64()?,
        },
        6 => CtrlMsg::PeerProbe {
            token: d.u64()?,
            from: d.u32()? as usize,
            payload: d.bytes()?.to_vec(),
        },
        7 => CtrlMsg::PeerProbeEcho {
            token: d.u64()?,
            payload: d.bytes()?.to_vec(),
        },
        8 => CtrlMsg::Shutdown,
        9 => CtrlMsg::Observe {
            enabled: match d.u8()? {
                0 => false,
                1 => true,
                _ => return Err(WireError::Malformed("observe flag")),
            },
        },
        10 => {
            let (cfg, links) = dec_planner_inputs(&mut d)?;
            CtrlMsg::ShipInit { cfg, links }
        }
        11 => CtrlMsg::ShipOp {
            seq: d.u64()?,
            op: dec_op(&mut d)?,
        },
        12 => CtrlMsg::Leave,
        13 => {
            let n = d.u32()? as usize;
            if n > 65_536 {
                return Err(WireError::Malformed("peer list length"));
            }
            let mut addrs = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                addrs.push(d.str()?);
            }
            CtrlMsg::Peers { addrs }
        }
        14 => {
            let n = d.u32()? as usize;
            if n > 65_536 {
                return Err(WireError::Malformed("batch length"));
            }
            let mut msgs = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                let inner = d.bytes()?;
                // One level deep: a batch inside a batch is malformed (a
                // hostile sender could otherwise force unbounded
                // recursion).
                if inner.first() == Some(&14) {
                    return Err(WireError::Malformed("nested batch"));
                }
                msgs.push(decode_ctrl(inner)?);
            }
            CtrlMsg::Batch(msgs)
        }
        15 => {
            let na = d.u32()? as usize;
            if na > 1 << 20 {
                return Err(WireError::Malformed("reclaim array count"));
            }
            let mut arrays = Vec::with_capacity(na.min(1024));
            for _ in 0..na {
                arrays.push(ArrayId(d.u64()?));
            }
            let nk = d.u32()? as usize;
            if nk > 1 << 20 {
                return Err(WireError::Malformed("reclaim kernel count"));
            }
            let mut kernels = Vec::with_capacity(nk.min(1024));
            for _ in 0..nk {
                kernels.push(d.u64()?);
            }
            CtrlMsg::Reclaim { arrays, kernels }
        }
        _ => return Err(WireError::Malformed("ctrl tag")),
    };
    if !d.finished() {
        return Err(WireError::Malformed("trailing bytes"));
    }
    Ok(msg)
}

/// Encodes a worker→controller message.
pub fn encode_worker(msg: &WorkerMsg) -> Vec<u8> {
    let mut e = Enc::new();
    match msg {
        WorkerMsg::Done {
            dag_index,
            worker,
            elapsed_ns,
        } => {
            e.u8(0);
            e.u64(*dag_index as u64);
            e.u32(*worker as u32);
            e.u64(*elapsed_ns);
        }
        WorkerMsg::Data {
            array,
            version,
            buf,
        } => {
            e.u8(1);
            e.u64(array.0);
            e.u64(*version);
            enc_hostbuf(&mut e, buf);
        }
        WorkerMsg::Failed {
            dag_index,
            worker,
            error,
        } => {
            e.u8(2);
            e.u64(*dag_index as u64);
            e.u32(*worker as u32);
            match error {
                None => e.u8(0),
                Some(err) => {
                    e.u8(1);
                    enc_launch_error(&mut e, err);
                }
            }
        }
        WorkerMsg::Heartbeat { worker } => {
            e.u8(3);
            e.u32(*worker as u32);
        }
        WorkerMsg::ProbeEcho {
            worker,
            token,
            payload,
        } => {
            e.u8(4);
            e.u32(*worker as u32);
            e.u64(*token);
            e.bytes(payload);
        }
        WorkerMsg::ProbeReport {
            worker,
            to,
            bytes,
            elapsed_ns,
        } => {
            e.u8(5);
            e.u32(*worker as u32);
            e.u32(*to as u32);
            e.u64(*bytes);
            e.u64(*elapsed_ns);
        }
        WorkerMsg::Telemetry {
            worker,
            seq,
            backlog,
            counters,
            spans,
        } => {
            e.u8(6);
            // Batch-format version, for future span-field evolution
            // without another WIRE_VERSION bump.
            e.u16(1);
            e.u32(*worker as u32);
            e.u64(*seq);
            e.u64(*backlog);
            e.u64(counters.kernels);
            e.u64(counters.recompiles);
            e.u64(counters.sends);
            e.u64(counters.recvs);
            e.u64(counters.bytes_out);
            e.u64(counters.bytes_in);
            e.u64(counters.dropped);
            e.u32(spans.len() as u32);
            for s in spans {
                e.u8(match s.kind {
                    WorkerSpanKind::Execute => 0,
                    WorkerSpanKind::Transfer => 1,
                    WorkerSpanKind::Recompile => 2,
                });
                e.str(&s.name);
                e.u64(s.start_ns);
                e.u64(s.dur_ns);
                e.u64(s.dag_index);
                e.u64(s.bytes);
            }
        }
        WorkerMsg::ShipAck { seq, digest } => {
            e.u8(7);
            e.u64(*seq);
            e.u64(*digest);
        }
        WorkerMsg::Leave { worker } => {
            e.u8(8);
            e.u32(*worker as u32);
        }
    }
    e.into_bytes()
}

/// Decodes a worker→controller message.
pub fn decode_worker(payload: &[u8]) -> Result<WorkerMsg, WireError> {
    let mut d = Dec::new(payload);
    let msg = match d.u8()? {
        0 => WorkerMsg::Done {
            dag_index: d.u64()? as usize,
            worker: d.u32()? as usize,
            elapsed_ns: d.u64()?,
        },
        1 => WorkerMsg::Data {
            array: ArrayId(d.u64()?),
            version: d.u64()?,
            buf: dec_hostbuf(&mut d)?,
        },
        2 => WorkerMsg::Failed {
            dag_index: d.u64()? as usize,
            worker: d.u32()? as usize,
            error: match d.u8()? {
                0 => None,
                1 => Some(dec_launch_error(&mut d)?),
                _ => return Err(WireError::Malformed("failed-error tag")),
            },
        },
        3 => WorkerMsg::Heartbeat {
            worker: d.u32()? as usize,
        },
        4 => WorkerMsg::ProbeEcho {
            worker: d.u32()? as usize,
            token: d.u64()?,
            payload: d.bytes()?.to_vec(),
        },
        5 => WorkerMsg::ProbeReport {
            worker: d.u32()? as usize,
            to: d.u32()? as usize,
            bytes: d.u64()?,
            elapsed_ns: d.u64()?,
        },
        6 => {
            let batch_version = d.u16()?;
            if batch_version != 1 {
                return Err(WireError::Malformed("telemetry batch version"));
            }
            let worker = d.u32()? as usize;
            let seq = d.u64()?;
            let backlog = d.u64()?;
            let counters = WorkerCounters {
                kernels: d.u64()?,
                recompiles: d.u64()?,
                sends: d.u64()?,
                recvs: d.u64()?,
                bytes_out: d.u64()?,
                bytes_in: d.u64()?,
                dropped: d.u64()?,
            };
            let n = d.u32()? as usize;
            if n > TELEMETRY_DECODE_CAP {
                return Err(WireError::Malformed("telemetry batch too large"));
            }
            let mut spans = Vec::with_capacity(n);
            for _ in 0..n {
                spans.push(WorkerSpan {
                    kind: match d.u8()? {
                        0 => WorkerSpanKind::Execute,
                        1 => WorkerSpanKind::Transfer,
                        2 => WorkerSpanKind::Recompile,
                        _ => return Err(WireError::Malformed("span kind")),
                    },
                    name: d.str()?,
                    start_ns: d.u64()?,
                    dur_ns: d.u64()?,
                    dag_index: d.u64()?,
                    bytes: d.u64()?,
                });
            }
            WorkerMsg::Telemetry {
                worker,
                seq,
                backlog,
                counters,
                spans,
            }
        }
        7 => WorkerMsg::ShipAck {
            seq: d.u64()?,
            digest: d.u64()?,
        },
        8 => WorkerMsg::Leave {
            worker: d.u32()? as usize,
        },
        _ => return Err(WireError::Malformed("worker tag")),
    };
    if !d.finished() {
        return Err(WireError::Malformed("trailing bytes"));
    }
    Ok(msg)
}

// ---------------------------------------------------------------------------
// Clock-sync frames (transport-internal; see the module docs).

/// Worker → controller: "my clock read `t1_ns` when I sent this".
pub fn encode_clock_ping(worker: usize, t1_ns: u64) -> Vec<u8> {
    let mut e = Enc::new();
    e.u8(CLOCK_PING_TAG);
    e.u32(worker as u32);
    e.u64(t1_ns);
    e.into_bytes()
}

/// Decodes a clock ping: `(worker, t1_ns)`.
pub fn decode_clock_ping(payload: &[u8]) -> Result<(usize, u64), WireError> {
    let mut d = Dec::new(payload);
    if d.u8()? != CLOCK_PING_TAG {
        return Err(WireError::Malformed("clock-ping tag"));
    }
    let worker = d.u32()? as usize;
    let t1 = d.u64()?;
    if !d.finished() {
        return Err(WireError::Malformed("trailing bytes"));
    }
    Ok((worker, t1))
}

/// Controller → worker: echo of the ping's `t1_ns` plus the controller's
/// receive stamp `t2_ns`.
pub fn encode_clock_pong(t1_ns: u64, t2_ns: u64) -> Vec<u8> {
    let mut e = Enc::new();
    e.u8(CLOCK_PONG_TAG);
    e.u64(t1_ns);
    e.u64(t2_ns);
    e.into_bytes()
}

/// Decodes a clock pong: `(t1_ns, t2_ns)`.
pub fn decode_clock_pong(payload: &[u8]) -> Result<(u64, u64), WireError> {
    let mut d = Dec::new(payload);
    if d.u8()? != CLOCK_PONG_TAG {
        return Err(WireError::Malformed("clock-pong tag"));
    }
    let t1 = d.u64()?;
    let t2 = d.u64()?;
    if !d.finished() {
        return Err(WireError::Malformed("trailing bytes"));
    }
    Ok((t1, t2))
}

/// Worker → controller: one finished offset/RTT measurement.
pub fn encode_clock_sample(worker: usize, offset_ns: i64, rtt_ns: u64) -> Vec<u8> {
    let mut e = Enc::new();
    e.u8(CLOCK_SAMPLE_TAG);
    e.u32(worker as u32);
    e.i64(offset_ns);
    e.u64(rtt_ns);
    e.into_bytes()
}

/// Decodes a clock sample: `(worker, offset_ns, rtt_ns)`.
pub fn decode_clock_sample(payload: &[u8]) -> Result<(usize, i64, u64), WireError> {
    let mut d = Dec::new(payload);
    if d.u8()? != CLOCK_SAMPLE_TAG {
        return Err(WireError::Malformed("clock-sample tag"));
    }
    let worker = d.u32()? as usize;
    let offset = d.i64()?;
    let rtt = d.u64()?;
    if !d.finished() {
        return Err(WireError::Malformed("trailing bytes"));
    }
    Ok((worker, offset, rtt))
}

// ---------------------------------------------------------------------------
// Reliable-session envelope (controller↔worker sockets only; peer data
// sockets carry bare payloads).

/// A post-handshake frame, opened ([`open_envelope`]) into its kind.
#[derive(Debug, Clone, PartialEq)]
pub enum Envelope {
    /// Best-effort traffic (clock sync, session acks, heartbeats): not
    /// sequenced, not buffered, lost across a resume without consequence.
    Ephemeral(Vec<u8>),
    /// Sequenced traffic: buffered by the sender until cumulatively
    /// acked, replayed on resume, deduped by the receiver's cursor.
    Reliable {
        /// Per-direction monotonic sequence number (0-based).
        seq: u64,
        /// The inner message payload ([`encode_ctrl`]/[`encode_worker`]).
        payload: Vec<u8>,
    },
}

/// Wraps an ephemeral payload in an envelope.
pub fn seal_ephemeral(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(1 + payload.len());
    out.push(ENVELOPE_EPHEMERAL);
    out.extend_from_slice(payload);
    out
}

/// Wraps a reliable payload + sequence number in an envelope.
pub fn seal_reliable(seq: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(9 + payload.len());
    out.push(ENVELOPE_RELIABLE);
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Opens an envelope into its kind + inner payload.
pub fn open_envelope(frame: Vec<u8>) -> Result<Envelope, WireError> {
    match frame.first() {
        Some(&ENVELOPE_EPHEMERAL) => Ok(Envelope::Ephemeral(frame[1..].to_vec())),
        Some(&ENVELOPE_RELIABLE) => {
            if frame.len() < 9 {
                return Err(WireError::Malformed("truncated reliable envelope"));
            }
            let seq = u64::from_le_bytes(frame[1..9].try_into().unwrap());
            Ok(Envelope::Reliable {
                seq,
                payload: frame[9..].to_vec(),
            })
        }
        _ => Err(WireError::Malformed("envelope kind")),
    }
}

/// Encodes a cumulative session ack: "I have received every reliable
/// frame with `seq < cursor` from you". Ephemeral.
pub fn encode_session_ack(cursor: u64) -> Vec<u8> {
    let mut e = Enc::new();
    e.u8(SESSION_ACK_TAG);
    e.u64(cursor);
    e.into_bytes()
}

/// Decodes a session ack into the sender's receive cursor.
pub fn decode_session_ack(payload: &[u8]) -> Result<u64, WireError> {
    let mut d = Dec::new(payload);
    if d.u8()? != SESSION_ACK_TAG {
        return Err(WireError::Malformed("session-ack tag"));
    }
    let cursor = d.u64()?;
    if !d.finished() {
        return Err(WireError::Malformed("trailing bytes"));
    }
    Ok(cursor)
}

// ---------------------------------------------------------------------------
// Handshake.

/// The first frame on a fresh connection.
#[derive(Debug, Clone, PartialEq)]
pub enum Hello {
    /// The controller adopting a worker endpoint.
    Controller {
        /// The worker's index in the mesh.
        index: usize,
        /// Total worker count.
        total: usize,
        /// Liveness beacon cadence the worker must hold.
        heartbeat_ms: u32,
        /// Listen address of every worker, by index (for P2P dialing).
        peers: Vec<String>,
        /// Controller-chosen session identifier. A re-dial carrying the
        /// same id with `resume` set asks the worker to revive its parked
        /// session state instead of starting fresh.
        session_id: u64,
        /// `Some(cursor)` to resume an interrupted session: the
        /// controller has received every reliable worker→controller
        /// frame with `seq < cursor`. `None` for a fresh adoption, which
        /// resets all session state on the worker.
        resume: Option<u64>,
    },
    /// A peer worker opening its one-way data socket.
    Peer {
        /// The dialing worker's index.
        from: usize,
    },
    /// A tenant client attaching to a `grout-ctld` control plane (role
    /// byte `2`). The attach request proper ([`ClientMsg::Attach`])
    /// follows as the first post-handshake frame.
    Client,
}

/// Encodes a handshake frame.
pub fn encode_hello(h: &Hello) -> Vec<u8> {
    let mut e = Enc::new();
    e.0.extend_from_slice(&MAGIC);
    e.u16(WIRE_VERSION);
    match h {
        Hello::Controller {
            index,
            total,
            heartbeat_ms,
            peers,
            session_id,
            resume,
        } => {
            e.u8(0);
            e.u32(*index as u32);
            e.u32(*total as u32);
            e.u32(*heartbeat_ms);
            e.u64(peers.len() as u64);
            for p in peers {
                e.str(p);
            }
            e.u64(*session_id);
            match resume {
                None => e.u8(0),
                Some(cursor) => {
                    e.u8(1);
                    e.u64(*cursor);
                }
            }
        }
        Hello::Peer { from } => {
            e.u8(1);
            e.u32(*from as u32);
        }
        Hello::Client => e.u8(2),
    }
    e.into_bytes()
}

/// Checks the magic + version prefix shared by hello and ack frames.
/// `what` names the frame in the error.
fn check_preamble(d: &mut Dec<'_>, what: &str) -> Result<(), WireError> {
    let magic = d.take(4)?;
    if magic != MAGIC {
        return Err(WireError::Handshake(format!(
            "bad {what} magic {magic:02x?} (not a GrOUT endpoint?)"
        )));
    }
    let version = d.u16()?;
    if version != WIRE_VERSION {
        return Err(WireError::Handshake(format!(
            "{what} speaks wire v{version}, this build speaks v{WIRE_VERSION}"
        )));
    }
    Ok(())
}

/// Decodes and validates a handshake frame. The peer's version must
/// equal [`WIRE_VERSION`]: all nodes run the same build.
pub fn decode_hello(payload: &[u8]) -> Result<Hello, WireError> {
    let mut d = Dec::new(payload);
    check_preamble(&mut d, "hello")?;
    Ok(match d.u8()? {
        0 => {
            let index = d.u32()? as usize;
            let total = d.u32()? as usize;
            let heartbeat_ms = d.u32()?;
            let n = d.u64()? as usize;
            let mut peers = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                peers.push(d.str()?);
            }
            let session_id = d.u64()?;
            let resume = match d.u8()? {
                0 => None,
                1 => Some(d.u64()?),
                _ => return Err(WireError::Handshake("bad resume flag".into())),
            };
            Hello::Controller {
                index,
                total,
                heartbeat_ms,
                peers,
                session_id,
                resume,
            }
        }
        1 => Hello::Peer {
            from: d.u32()? as usize,
        },
        2 => Hello::Client,
        _ => return Err(WireError::Handshake("unknown role byte".into())),
    })
}

/// A decoded worker ack: the echoed index and the session-resume outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerAck {
    /// The worker index echoed from the hello.
    pub index: usize,
    /// Whether the worker revived the parked session named by the hello's
    /// `(session_id, resume)` (always false for fresh adoptions).
    pub resumed: bool,
    /// The worker's controller→worker receive cursor: it has seen every
    /// reliable frame with `seq < cursor`. The controller replays its
    /// unacked buffer from here on a resume. 0 for fresh sessions.
    pub cursor: u64,
}

/// Encodes the ack to a hello: the echoed index, the resume outcome and
/// the acker's receive cursor (`false, 0` for a fresh session).
pub fn encode_ack(index: usize, resumed: bool, cursor: u64) -> Vec<u8> {
    let mut e = Enc::new();
    e.0.extend_from_slice(&MAGIC);
    e.u16(WIRE_VERSION);
    e.u32(index as u32);
    e.u8(u8::from(resumed));
    e.u64(cursor);
    e.into_bytes()
}

/// Decodes and validates an ack (same version rule as [`decode_hello`]).
pub fn decode_ack(payload: &[u8]) -> Result<WorkerAck, WireError> {
    let mut d = Dec::new(payload);
    check_preamble(&mut d, "ack")?;
    Ok(WorkerAck {
        index: d.u32()? as usize,
        resumed: d.u8()? != 0,
        cursor: d.u64()?,
    })
}

// ---------------------------------------------------------------------------
// The ctld client protocol: what travels on a [`Hello::Client`]
// connection after the handshake.

/// Client → `grout-ctld` messages.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientMsg {
    /// Attach a session: run `source` on the shared fleet.
    Attach {
        /// The GuestScript program to execute.
        source: String,
        /// Admission/scheduling priority class.
        priority: Priority,
        /// Declared working-set bytes (0 = unknown; charged nothing
        /// against the resident budget).
        declared_bytes: u64,
    },
    /// Detach early (abandon a queued or running session). EOF works
    /// too; this makes the intent explicit.
    Detach,
}

/// `grout-ctld` → client messages.
#[derive(Debug, Clone, PartialEq)]
pub enum CtldMsg {
    /// The session was admitted and is running.
    Attached {
        /// The daemon-assigned session id.
        session: u64,
    },
    /// The fleet is saturated; the session waits its turn.
    Queued {
        /// Requests ahead (0-based).
        position: u32,
    },
    /// Admission refused the session — the typed error explains why.
    /// The connection closes after this frame.
    Rejected(AdmissionError),
    /// Script output lines (the bit-identity surface: exactly what a
    /// solo `grout-run` would print to stdout).
    Output {
        /// The lines, in emission order.
        lines: Vec<String>,
    },
    /// The script finished cleanly; the connection closes after this.
    Finished {
        /// Kernels the session executed (cheap sanity stat).
        kernels: u64,
    },
    /// The script failed; the connection closes after this.
    Failed {
        /// Human-readable failure description.
        message: String,
    },
}

fn enc_priority(e: &mut Enc, p: Priority) {
    e.u8(match p {
        Priority::Low => 0,
        Priority::Normal => 1,
        Priority::High => 2,
    });
}

fn dec_priority(d: &mut Dec) -> Result<Priority, WireError> {
    Ok(match d.u8()? {
        0 => Priority::Low,
        1 => Priority::Normal,
        2 => Priority::High,
        _ => return Err(WireError::Malformed("priority tag")),
    })
}

fn enc_admission_error(e: &mut Enc, err: &AdmissionError) {
    match err {
        AdmissionError::Saturated { active, max } => {
            e.u8(0);
            e.u32(*active);
            e.u32(*max);
        }
        AdmissionError::QueueFull { queued, max } => {
            e.u8(1);
            e.u32(*queued);
            e.u32(*max);
        }
        AdmissionError::ResidentBytes { declared, max } => {
            e.u8(2);
            e.u64(*declared);
            e.u64(*max);
        }
    }
}

fn dec_admission_error(d: &mut Dec) -> Result<AdmissionError, WireError> {
    Ok(match d.u8()? {
        0 => AdmissionError::Saturated {
            active: d.u32()?,
            max: d.u32()?,
        },
        1 => AdmissionError::QueueFull {
            queued: d.u32()?,
            max: d.u32()?,
        },
        2 => AdmissionError::ResidentBytes {
            declared: d.u64()?,
            max: d.u64()?,
        },
        _ => return Err(WireError::Malformed("admission-error tag")),
    })
}

/// Encodes a client → ctld message.
pub fn encode_client(msg: &ClientMsg) -> Vec<u8> {
    let mut e = Enc::new();
    match msg {
        ClientMsg::Attach {
            source,
            priority,
            declared_bytes,
        } => {
            e.u8(0);
            e.str(source);
            enc_priority(&mut e, *priority);
            e.u64(*declared_bytes);
        }
        ClientMsg::Detach => e.u8(1),
    }
    e.into_bytes()
}

/// Decodes a client → ctld message.
pub fn decode_client(payload: &[u8]) -> Result<ClientMsg, WireError> {
    let mut d = Dec::new(payload);
    let msg = match d.u8()? {
        0 => ClientMsg::Attach {
            source: d.str()?,
            priority: dec_priority(&mut d)?,
            declared_bytes: d.u64()?,
        },
        1 => ClientMsg::Detach,
        _ => return Err(WireError::Malformed("client tag")),
    };
    if !d.finished() {
        return Err(WireError::Malformed("trailing bytes"));
    }
    Ok(msg)
}

/// Encodes a ctld → client message.
pub fn encode_ctld(msg: &CtldMsg) -> Vec<u8> {
    let mut e = Enc::new();
    match msg {
        CtldMsg::Attached { session } => {
            e.u8(0);
            e.u64(*session);
        }
        CtldMsg::Queued { position } => {
            e.u8(1);
            e.u32(*position);
        }
        CtldMsg::Rejected(err) => {
            e.u8(2);
            enc_admission_error(&mut e, err);
        }
        CtldMsg::Output { lines } => {
            e.u8(3);
            e.u32(lines.len() as u32);
            for l in lines {
                e.str(l);
            }
        }
        CtldMsg::Finished { kernels } => {
            e.u8(4);
            e.u64(*kernels);
        }
        CtldMsg::Failed { message } => {
            e.u8(5);
            e.str(message);
        }
    }
    e.into_bytes()
}

/// Decodes a ctld → client message.
pub fn decode_ctld(payload: &[u8]) -> Result<CtldMsg, WireError> {
    let mut d = Dec::new(payload);
    let msg = match d.u8()? {
        0 => CtldMsg::Attached { session: d.u64()? },
        1 => CtldMsg::Queued { position: d.u32()? },
        2 => CtldMsg::Rejected(dec_admission_error(&mut d)?),
        3 => {
            let n = d.u32()? as usize;
            if n > 1 << 20 {
                return Err(WireError::Malformed("output line count"));
            }
            let mut lines = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                lines.push(d.str()?);
            }
            CtldMsg::Output { lines }
        }
        4 => CtldMsg::Finished { kernels: d.u64()? },
        5 => CtldMsg::Failed { message: d.str()? },
        _ => return Err(WireError::Malformed("ctld tag")),
    };
    if !d.finished() {
        return Err(WireError::Malformed("trailing bytes"));
    }
    Ok(msg)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_ctrl(msg: CtrlMsg) -> CtrlMsg {
        decode_ctrl(&encode_ctrl(&msg)).expect("roundtrip")
    }

    fn roundtrip_worker(msg: WorkerMsg) -> WorkerMsg {
        decode_worker(&encode_worker(&msg)).expect("roundtrip")
    }

    #[test]
    fn ctrl_data_roundtrips_bit_exact() {
        let buf = HostBuf::F32(vec![1.5, -0.0, f32::NAN, 3.25e-12]);
        let out = roundtrip_ctrl(CtrlMsg::Data {
            array: ArrayId(7),
            version: 42,
            buf,
        });
        match out {
            CtrlMsg::Data {
                array,
                version,
                buf: HostBuf::F32(v),
            } => {
                assert_eq!(array, ArrayId(7));
                assert_eq!(version, 42);
                let bits: Vec<u32> = v.iter().map(|x| x.to_bits()).collect();
                assert_eq!(
                    bits,
                    vec![
                        1.5f32.to_bits(),
                        (-0.0f32).to_bits(),
                        f32::NAN.to_bits(),
                        3.25e-12f32.to_bits()
                    ]
                );
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn exec_spec_roundtrips() {
        let spec = ExecSpec {
            dag_index: 9,
            kernel: 3,
            grid: (16, 2),
            block: (128, 1),
            args: vec![
                LocalArg::Buf(ArrayId(1)),
                LocalArg::F32(0.5),
                LocalArg::I32(-7),
            ],
            needs: vec![(ArrayId(1), 4)],
            bumps: vec![(ArrayId(1), 5)],
            fault: Some(ExecFault::FailTransient),
        };
        match roundtrip_ctrl(CtrlMsg::Exec(spec.clone())) {
            CtrlMsg::Exec(out) => {
                assert_eq!(out.dag_index, spec.dag_index);
                assert_eq!(out.kernel, spec.kernel);
                assert_eq!(out.grid, spec.grid);
                assert_eq!(out.block, spec.block);
                assert_eq!(out.needs, spec.needs);
                assert_eq!(out.bumps, spec.bumps);
                assert_eq!(out.fault, spec.fault);
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn load_kernel_drops_the_compiled_fast_path() {
        let msg = CtrlMsg::LoadKernel {
            id: 5,
            name: "k".into(),
            source: "__global__ void k(float* x, int n) {}".into(),
            compiled: None,
        };
        match roundtrip_ctrl(msg) {
            CtrlMsg::LoadKernel {
                id,
                name,
                source,
                compiled,
            } => {
                assert_eq!(id, 5);
                assert_eq!(name, "k");
                assert!(source.contains("__global__"));
                assert!(compiled.is_none());
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn worker_failed_carries_launch_errors() {
        let out = roundtrip_worker(WorkerMsg::Failed {
            dag_index: 3,
            worker: 1,
            error: Some(LaunchError::OutOfBounds {
                param: 0,
                index: -4,
                len: 16,
            }),
        });
        match out {
            WorkerMsg::Failed {
                dag_index: 3,
                worker: 1,
                error:
                    Some(LaunchError::OutOfBounds {
                        param: 0,
                        index: -4,
                        len: 16,
                    }),
            } => {}
            other => panic!("wrong decode: {other:?}"),
        }
    }

    #[test]
    fn hello_roundtrips_and_rejects_bad_versions() {
        let h = Hello::Controller {
            index: 1,
            total: 2,
            heartbeat_ms: 100,
            peers: vec!["127.0.0.1:4000".into(), "127.0.0.1:4001".into()],
            session_id: 0xDEAD_BEEF,
            resume: Some(17),
        };
        assert_eq!(decode_hello(&encode_hello(&h)).unwrap(), h);

        let mut bad = encode_hello(&h);
        bad[4] = 0xFF; // corrupt the version: 0xFF is beyond ours
        assert!(matches!(decode_hello(&bad), Err(WireError::Handshake(_))));

        let mut worse = encode_hello(&h);
        worse[0] = b'X'; // corrupt the magic
        assert!(matches!(decode_hello(&worse), Err(WireError::Handshake(_))));
    }

    /// Stamps `version` (u16 LE) over the version field of a hello/ack.
    fn restamp(mut frame: Vec<u8>, version: u16) -> Vec<u8> {
        frame[4..6].copy_from_slice(&version.to_le_bytes());
        frame
    }

    fn assert_names_both_versions(err: WireError, theirs: u16) {
        let WireError::Handshake(msg) = err else {
            panic!("expected a handshake error, got {err:?}");
        };
        assert!(
            msg.contains(&format!("v{theirs}")) && msg.contains(&format!("v{WIRE_VERSION}")),
            "message must name both versions: {msg}"
        );
    }

    #[test]
    fn handshake_accepts_only_the_current_version() {
        let hellos = [
            Hello::Controller {
                index: 0,
                total: 1,
                heartbeat_ms: 100,
                peers: vec!["127.0.0.1:4000".into()],
                session_id: 9,
                resume: None,
            },
            Hello::Peer { from: 3 },
            Hello::Client,
        ];
        for h in &hellos {
            let frame = encode_hello(h);
            assert_eq!(&decode_hello(&frame).unwrap(), h);
            for skewed in [WIRE_VERSION - 1, WIRE_VERSION + 1] {
                let err = decode_hello(&restamp(frame.clone(), skewed)).unwrap_err();
                assert_names_both_versions(err, skewed);
            }
        }
        let ack = encode_ack(7, false, 0);
        assert_eq!(decode_ack(&ack).unwrap().index, 7);
        for skewed in [WIRE_VERSION - 1, WIRE_VERSION + 1] {
            let err = decode_ack(&restamp(ack.clone(), skewed)).unwrap_err();
            assert_names_both_versions(err, skewed);
        }
    }

    #[test]
    fn garbage_after_a_valid_magic_never_panics() {
        // Every truncation and single-byte corruption behind the magic of
        // a real hello and ack (huge counts and lengths included) decodes
        // or fails typed.
        let hello = encode_hello(&Hello::Controller {
            index: 1,
            total: 2,
            heartbeat_ms: 100,
            peers: vec!["127.0.0.1:4000".into()],
            session_id: 7,
            resume: Some(3),
        });
        for good in [hello, encode_ack(1, true, 3)] {
            for n in MAGIC.len()..good.len() {
                let _ = decode_hello(&good[..n]);
                let _ = decode_ack(&good[..n]);
                for byte in [0x00, 0x7F, 0xFF] {
                    let mut bad = good.clone();
                    bad[n] = byte;
                    let _ = decode_hello(&bad);
                    let _ = decode_ack(&bad);
                }
            }
        }
    }

    #[test]
    fn resume_handshake_and_session_frames_roundtrip() {
        // A resuming ack carries the outcome + cursor.
        let ack = decode_ack(&encode_ack(3, true, 42)).unwrap();
        assert_eq!((ack.index, ack.resumed, ack.cursor), (3, true, 42));

        // Session acks and both envelope kinds roundtrip.
        assert_eq!(decode_session_ack(&encode_session_ack(99)).unwrap(), 99);
        let inner = encode_worker(&WorkerMsg::Heartbeat { worker: 2 });
        assert_eq!(
            open_envelope(seal_ephemeral(&inner)).unwrap(),
            Envelope::Ephemeral(inner.clone())
        );
        assert_eq!(
            open_envelope(seal_reliable(7, &inner)).unwrap(),
            Envelope::Reliable {
                seq: 7,
                payload: inner
            }
        );

        // The clean-departure frame roundtrips.
        match roundtrip_worker(WorkerMsg::Leave { worker: 5 }) {
            WorkerMsg::Leave { worker: 5 } => {}
            other => panic!("wrong decode: {other:?}"),
        }
    }

    #[test]
    fn membership_ops_roundtrip() {
        for op in [
            PlannerOp::Suspect { worker: 1 },
            PlannerOp::Reinstate { worker: 1 },
            PlannerOp::Rejoin { worker: 2 },
        ] {
            assert_eq!(decode_op(&encode_op(&op)).unwrap(), op);
        }
    }

    #[test]
    fn observe_and_telemetry_roundtrip() {
        match roundtrip_ctrl(CtrlMsg::Observe { enabled: true }) {
            CtrlMsg::Observe { enabled } => assert!(enabled),
            other => panic!("wrong variant: {other:?}"),
        }

        let msg = WorkerMsg::Telemetry {
            worker: 1,
            seq: 42,
            backlog: 3,
            counters: WorkerCounters {
                kernels: 9,
                recompiles: 2,
                sends: 4,
                recvs: 5,
                bytes_out: 4096,
                bytes_in: 8192,
                dropped: 1,
            },
            spans: vec![
                WorkerSpan {
                    kind: WorkerSpanKind::Execute,
                    name: "saxpy".into(),
                    start_ns: 1_000_000,
                    dur_ns: 250,
                    dag_index: 7,
                    bytes: 0,
                },
                WorkerSpan {
                    kind: WorkerSpanKind::Transfer,
                    name: "recv".into(),
                    start_ns: 999_000,
                    dur_ns: 80,
                    dag_index: u64::MAX,
                    bytes: 4096,
                },
            ],
        };
        match roundtrip_worker(msg.clone()) {
            WorkerMsg::Telemetry {
                worker,
                seq,
                backlog,
                counters,
                spans,
            } => {
                assert_eq!(worker, 1);
                assert_eq!(seq, 42);
                assert_eq!(backlog, 3);
                assert_eq!(counters.kernels, 9);
                assert_eq!(counters.dropped, 1);
                match &msg {
                    WorkerMsg::Telemetry { spans: orig, .. } => assert_eq!(&spans, orig),
                    _ => unreachable!(),
                }
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn telemetry_decoder_caps_span_count() {
        let mut e = Enc::new();
        e.u8(6);
        e.u16(1);
        e.u32(0);
        e.u64(1);
        e.u64(0);
        for _ in 0..7 {
            e.u64(0); // counters
        }
        e.u32(u32::MAX); // hostile span count
        assert!(decode_worker(&e.into_bytes()).is_err());
    }

    #[test]
    fn clock_frames_roundtrip_and_stay_out_of_message_space() {
        let ping = encode_clock_ping(2, 12_345);
        assert_eq!(decode_clock_ping(&ping).unwrap(), (2, 12_345));
        // A reader that forgot to peek must fail loudly, not misparse.
        assert!(decode_worker(&ping).is_err());

        let pong = encode_clock_pong(12_345, 67_890);
        assert_eq!(decode_clock_pong(&pong).unwrap(), (12_345, 67_890));
        assert!(decode_ctrl(&pong).is_err());

        let sample = encode_clock_sample(1, -5_000, 900);
        assert_eq!(decode_clock_sample(&sample).unwrap(), (1, -5_000, 900));
        assert!(decode_worker(&sample).is_err());
    }

    #[test]
    fn planner_ops_roundtrip_bit_exact() {
        let ops = vec![
            PlannerOp::Alloc { bytes: 1 << 20 },
            PlannerOp::Free { array: ArrayId(3) },
            PlannerOp::PlanCe {
                ce: Ce {
                    id: CeId(9),
                    kind: CeKind::Kernel {
                        name: "saxpy".into(),
                        cost: KernelCost {
                            flops: 2.5e9,
                            bytes_read: 1 << 22,
                            bytes_written: 1 << 21,
                        },
                    },
                    args: vec![CeArg {
                        array: ArrayId(1),
                        bytes: 4096,
                        alloc_bytes: 1 << 16,
                        mode: AccessMode::ReadWrite,
                        pattern: AccessPattern::Gather {
                            touches_per_page: 3.75,
                        },
                        advise: MemAdvise::ReadMostly,
                    }],
                },
            },
            PlannerOp::PlanCe {
                ce: Ce {
                    id: CeId(10),
                    kind: CeKind::HostRead,
                    args: vec![],
                },
            },
            PlannerOp::MarkCompleted { dag_index: 7 },
            PlannerOp::Quarantine { worker: 2 },
            PlannerOp::Recover {
                dead: 1,
                incomplete: vec![4, 6],
            },
            PlannerOp::ReprobeLinks {
                links: LinkMatrix::new(vec![vec![1.0, 2.5], vec![3.25, 4.0]]),
            },
        ];
        for op in &ops {
            assert_eq!(&decode_op(&encode_op(op)).expect("roundtrip"), op);
        }
        assert!(decode_op(&[99]).is_err());
    }

    #[test]
    fn planner_config_roundtrips() {
        let cfg = PlannerConfig {
            workers: 3,
            policy: PolicyKind::MinTransferTime(ExplorationLevel::High),
            p2p_enabled: false,
            flat_scheduling: true,
            controller_colocated: false,
            faults: FaultPlan::with_events(vec![
                FaultEvent {
                    at_ce: 2,
                    kind: FaultKind::KillWorker,
                },
                FaultEvent {
                    at_ce: 5,
                    kind: FaultKind::FailLaunch { times: 4 },
                },
                FaultEvent {
                    at_ce: 6,
                    kind: FaultKind::DelayTransfer {
                        delay: SimDuration(1_000_000),
                    },
                },
            ]),
            fault_cfg: FaultConfig {
                max_retries: 7,
                ..FaultConfig::default()
            },
        };
        let links = Some(LinkMatrix::uniform(4, 1e9));
        let (out, _) =
            decode_journal_header(&encode_journal_header(&cfg, &links)).expect("roundtrip");
        assert_eq!(out, cfg);

        let vs = PlannerConfig::new(2, PolicyKind::VectorStep(vec![1, 2, 3]));
        assert_eq!(
            decode_journal_header(&encode_journal_header(&vs, &None))
                .unwrap()
                .0,
            vs
        );

        // Inputs `Planner::new` would panic on (or over-allocate for) are
        // malformed frames, not planners.
        let bad = [
            (PlannerConfig::new(0, PolicyKind::RoundRobin), None),
            (PlannerConfig::new(5000, PolicyKind::RoundRobin), None),
            (
                PlannerConfig::new(2, PolicyKind::VectorStep(vec![0, 0])),
                None,
            ),
            (cfg.clone(), None),
            (cfg, Some(LinkMatrix::uniform(3, 1e9))),
        ];
        for (cfg, links) in bad {
            assert!(matches!(
                decode_journal_header(&encode_journal_header(&cfg, &links)),
                Err(WireError::Malformed(_))
            ));
        }
    }

    #[test]
    fn ship_frames_roundtrip() {
        let init = CtrlMsg::ShipInit {
            cfg: PlannerConfig::new(2, grout_core::PolicyKind::RoundRobin),
            links: Some(LinkMatrix::uniform(3, 1e9)),
        };
        match roundtrip_ctrl(init) {
            CtrlMsg::ShipInit { cfg, links } => {
                assert_eq!(cfg.workers, 2);
                assert_eq!(links.unwrap().raw(0, 1), 1e9);
            }
            other => panic!("wrong variant: {other:?}"),
        }

        let op = CtrlMsg::ShipOp {
            seq: 42,
            op: PlannerOp::Alloc { bytes: 4096 },
        };
        match roundtrip_ctrl(op) {
            CtrlMsg::ShipOp { seq, op } => {
                assert_eq!(seq, 42);
                assert_eq!(op, PlannerOp::Alloc { bytes: 4096 });
            }
            other => panic!("wrong variant: {other:?}"),
        }

        match roundtrip_worker(WorkerMsg::ShipAck {
            seq: 42,
            digest: 0xDEADBEEF,
        }) {
            WorkerMsg::ShipAck { seq, digest } => {
                assert_eq!(seq, 42);
                assert_eq!(digest, 0xDEADBEEF);
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn frames_roundtrip_and_cap_length() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").unwrap();
        write_frame(&mut wire, b"").unwrap();
        let mut r = &wire[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert!(read_frame(&mut r).unwrap().is_none());

        let huge = [(MAX_FRAME + 1).to_le_bytes()].concat();
        assert!(matches!(
            read_frame(&mut &huge[..]),
            Err(WireError::TooLarge(_))
        ));
    }

    #[test]
    fn garbage_decodes_to_errors_not_panics() {
        assert!(decode_ctrl(&[]).is_err());
        assert!(decode_ctrl(&[200]).is_err());
        assert!(decode_worker(&[9, 1, 2, 3]).is_err());
        // Truncated Data frame.
        let mut good = encode_ctrl(&CtrlMsg::Data {
            array: ArrayId(0),
            version: 1,
            buf: HostBuf::F32(vec![1.0; 8]),
        });
        good.truncate(good.len() - 3);
        assert!(decode_ctrl(&good).is_err());
        // Trailing bytes.
        let mut long = encode_ctrl(&CtrlMsg::Shutdown);
        long.push(0);
        assert!(decode_ctrl(&long).is_err());
    }

    #[test]
    fn batch_roundtrips_and_rejects_nesting() {
        let inner = vec![
            CtrlMsg::Data {
                array: ArrayId(3),
                version: 2,
                buf: HostBuf::I32(vec![1, 2, 3]),
            },
            CtrlMsg::Send {
                array: ArrayId(3),
                min_version: 2,
                to: Some(1),
            },
        ];
        match roundtrip_ctrl(CtrlMsg::Batch(inner.clone())) {
            CtrlMsg::Batch(out) => {
                assert_eq!(out.len(), 2);
                assert!(matches!(&out[0], CtrlMsg::Data { array, .. } if *array == ArrayId(3)));
                assert!(matches!(&out[1], CtrlMsg::Send { to: Some(1), .. }));
            }
            other => panic!("wrong variant: {other:?}"),
        }
        // A batch inside a batch is malformed, not a recursion.
        let nested = encode_ctrl(&CtrlMsg::Batch(vec![CtrlMsg::Batch(inner)]));
        assert!(decode_ctrl(&nested).is_err());
    }

    #[test]
    fn reclaim_roundtrips() {
        let msg = CtrlMsg::Reclaim {
            arrays: vec![ArrayId(1 << 40 | 7), ArrayId(1 << 40 | 9)],
            kernels: vec![1 << 40 | 1],
        };
        match roundtrip_ctrl(msg) {
            CtrlMsg::Reclaim { arrays, kernels } => {
                assert_eq!(arrays, vec![ArrayId(1 << 40 | 7), ArrayId(1 << 40 | 9)]);
                assert_eq!(kernels, vec![1 << 40 | 1]);
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn client_hello_roundtrips() {
        let hello = decode_hello(&encode_hello(&Hello::Client)).expect("decode");
        assert_eq!(hello, Hello::Client);
    }

    #[test]
    fn client_protocol_roundtrips() {
        let attach = ClientMsg::Attach {
            source: "let x = 1".into(),
            priority: Priority::High,
            declared_bytes: 4096,
        };
        assert_eq!(decode_client(&encode_client(&attach)).unwrap(), attach);
        assert_eq!(
            decode_client(&encode_client(&ClientMsg::Detach)).unwrap(),
            ClientMsg::Detach
        );
        for msg in [
            CtldMsg::Attached { session: 3 },
            CtldMsg::Queued { position: 2 },
            CtldMsg::Rejected(AdmissionError::Saturated { active: 4, max: 4 }),
            CtldMsg::Rejected(AdmissionError::QueueFull { queued: 8, max: 8 }),
            CtldMsg::Rejected(AdmissionError::ResidentBytes {
                declared: 1 << 30,
                max: 1 << 20,
            }),
            CtldMsg::Output {
                lines: vec!["a".into(), "b".into()],
            },
            CtldMsg::Finished { kernels: 12 },
            CtldMsg::Failed {
                message: "script error".into(),
            },
        ] {
            assert_eq!(decode_ctld(&encode_ctld(&msg)).unwrap(), msg);
        }
    }
}
