//! The wire protocol: framing, handshake and the message codec.
//!
//! Everything is hand-rolled little-endian binary: a byte-exact float
//! encoding (`f32::to_le_bytes`) is what makes the TCP loopback
//! differential test bit-identical to the in-process run.
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
//! `len` counts the payload only and is capped at [`MAX_FRAME`]; a reader
//! trusts a large `len` only as far as bytes arrive, so a corrupt or
//! hostile peer cannot make us allocate memory it has not sent.
//!
//! Each payload layout is declared once, in the `wire!` table below: a
//! message's `u8` tag, then its fields in wire order. The table
//! generates both directions, so an encoder and its decoder cannot drift
//! apart. Integers and floats are fixed-width LE; strings and byte
//! payloads carry a `u64` length; lists carry a `u64` count unless their
//! declaration names a `u32` count with its cap (`as U32Len<cap>`); a
//! `usize` names its width (`as u32` for worker indices, `as u64` for DAG
//! indices). The few layouts that are not field order (bulk buffers, the
//! link matrix, batches, the handshake preamble) are written by hand next
//! to the table.
//!
//! Decoding is canonical: a payload either fails with a typed
//! [`WireError`] or decodes to a value that encodes back to exactly the
//! same bytes. Trailing bytes, flag bytes other than 0 or 1, unknown tags
//! and counts over their caps are all malformed.
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
use std::sync::Arc;

use grout_core::{
    validate_planner_inputs, AccessMode, AccessPattern, AdmissionError, ArrayId, Ce, CeArg, CeId,
    CeKind, CtrlMsg, ExecFault, ExecSpec, ExplorationLevel, FaultConfig, FaultEvent, FaultKind,
    FaultPlan, HostBuf, KernelCost, LinkMatrix, LocalArg, MemAdvise, PlanError, PlannerConfig,
    PlannerOp, PolicyKind, Priority, SimDuration, WorkerCounters, WorkerMsg, WorkerSpan,
    WorkerSpanKind, MAX_ENDPOINTS,
};
use kernelc::{CompiledKernel, LaunchError};

/// Protocol magic: the first four bytes of every handshake frame.
pub const MAGIC: [u8; 4] = *b"GRNT";

/// Wire protocol version: bump on any change to the layout or to what a
/// field means; both ends must match exactly (see [`decode_hello`]). v7
/// has v6's frame bytes; what changed is the planner state a `ShipAck`
/// digest is taken over (the DAG keeps fewer readers per array and a
/// smaller frontier for the same ops), so a v6 standby would look diverged.
/// v8: the serialized `FaultConfig` (in `ShipInit`) lost the three TCP
/// liveness knobs, which now live only in the transport's config.
pub const WIRE_VERSION: u16 = 8;

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

/// How much of an announced payload length is reserved before its bytes
/// arrive: a frame up to this size gets one exact-size buffer, a larger
/// one grows only as its bytes arrive.
const EXACT_READ: usize = 64 << 10;

/// Anything that can go wrong on the wire.
#[derive(Debug)]
pub enum WireError {
    /// The socket failed.
    Io(std::io::Error),
    /// A frame decoded to garbage (unknown tag, truncated field, ...).
    Malformed(&'static str),
    /// A frame announced a payload beyond [`MAX_FRAME`].
    TooLarge(u32),
    /// The handshake failed (bad magic or version mismatch; a role byte
    /// the decoder does not know is [`WireError::Malformed`]).
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
    let len = len as usize;
    let mut payload = Vec::with_capacity(len.min(EXACT_READ));
    r.take(len as u64).read_to_end(&mut payload)?;
    if payload.len() < len {
        return Err(std::io::Error::from(std::io::ErrorKind::UnexpectedEof).into());
    }
    Ok(Some(payload))
}

// ---------------------------------------------------------------------------
// The codec: byte buffers, the `Wire` trait and its primitive impls.

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

    /// A `u64` count, then each element.
    #[inline]
    fn list<T: Wire<W>, W>(&mut self, v: &[T]) {
        (v.len() as u64).enc(self);
        v.iter().for_each(|x| x.enc(self));
    }

    /// A `u64` length, then the bytes in one copy.
    fn bytes(&mut self, v: &[u8]) {
        (v.len() as u64).enc(self);
        self.0.extend_from_slice(v);
    }

    /// A counted run of 4-byte LE words, sized once and filled in one
    /// pass (a 4 MiB array is a million elements; pushing them one at a
    /// time re-checks capacity on each).
    fn words<T: Copy>(&mut self, v: &[T], le: impl Fn(T) -> [u8; 4]) {
        (v.len() as u64).enc(self);
        let start = self.0.len();
        self.0.resize(start + v.len() * 4, 0);
        for (dst, x) in self.0[start..].chunks_exact_mut(4).zip(v) {
            dst.copy_from_slice(&le(*x));
        }
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

    fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        Ok(self.take(N)?.try_into().expect("take(N) returns N bytes"))
    }

    /// A `u64` count or length.
    fn count(&mut self) -> Result<usize, WireError> {
        usize::try_from(u64::dec(self)?).map_err(|_| WireError::Malformed("length overflow"))
    }

    /// If `whole`, refuses bytes left over.
    #[inline]
    fn end(&self, whole: bool) -> Result<(), WireError> {
        if whole && !self.finished() {
            return Err(WireError::Malformed("trailing bytes"));
        }
        Ok(())
    }

    fn bytes(&mut self) -> Result<&'a [u8], WireError> {
        let n = self.count()?;
        self.take(n)
    }

    /// `n` elements, each read by `elem`. The count is untrusted until the
    /// elements arrive, so at most 1024 are allocated up front.
    fn seq<T>(
        &mut self,
        n: usize,
        mut elem: impl FnMut(&mut Self) -> Result<T, WireError>,
    ) -> Result<Vec<T>, WireError> {
        let mut out = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            out.push(elem(self)?);
        }
        Ok(out)
    }
}

/// One value's wire layout, both directions. `W` names the layout when it
/// is not `Self`'s own: a `usize` travels `as u32` or `as u64`, a byte
/// payload `as Bytes`, a capped list `as U32Len<cap>`.
trait Wire<W = Self>: Sized {
    fn enc(&self, e: &mut Enc);
    fn dec(d: &mut Dec) -> Result<Self, WireError>;
    /// [`Wire::dec`]; if `whole`, the value must also end the input.
    #[inline]
    fn parse(d: &mut Dec, whole: bool) -> Result<Self, WireError> {
        let v = Self::dec(d)?;
        d.end(whole)?;
        Ok(v)
    }
}

/// Encodes one value as a whole payload.
fn encode<T: Wire>(v: &T) -> Vec<u8> {
    let mut e = Enc::new();
    v.enc(&mut e);
    e.0
}

/// Decodes a whole payload: bytes left over are malformed.
#[inline]
fn decode<T: Wire>(payload: &[u8]) -> Result<T, WireError> {
    T::parse(&mut Dec::new(payload), true)
}

/// Declares wire layouts. `le` types are fixed-width little-endian. A
/// `struct` lists its fields in wire order; an `enum` gives each variant
/// its `u8` tag, then the variant's fields in wire order. A field travels
/// by its type's own layout, or by the one named after `as`. Every field
/// must be listed, so a field added to a type cannot silently stay off
/// the wire. The generated impls are `#[inline]` so that a message
/// decodes in one function, as a hand-written match would (without it,
/// decoding an `Exec` took about 20 % longer on an x86-64 box). For the
/// same reason an enum checks the end of a whole payload before it builds
/// the variant: checking after cost a `Send` or a `Done` 5–15 ns more,
/// spent copying the built message out.
macro_rules! wire {
    () => {};
    (le $($t:ty),*) => {$(
        impl Wire for $t {
            #[inline]
            fn enc(&self, e: &mut Enc) {
                e.0.extend_from_slice(&self.to_le_bytes());
            }
            #[inline]
            fn dec(d: &mut Dec) -> Result<Self, WireError> {
                Ok(<$t>::from_le_bytes(d.array()?))
            }
        }
    )*};
    (struct $T:ident { $($f:ident $(as $w:ty)?),* } $($rest:tt)*) => {
        impl Wire for $T {
            #[inline]
            fn enc(&self, e: &mut Enc) {
                let $T { $($f),* } = self;
                $(<_ as Wire $(<$w>)?>::enc($f, e);)*
            }
            #[inline]
            fn dec(d: &mut Dec) -> Result<Self, WireError> {
                Ok($T { $($f: <_ as Wire $(<$w>)?>::dec(d)?),* })
            }
        }
        wire!($($rest)*);
    };
    (struct $T:ident ($($f:ident $(as $w:ty)?),*) $($rest:tt)*) => {
        impl Wire for $T {
            #[inline]
            fn enc(&self, e: &mut Enc) {
                let $T($($f),*) = self;
                $(<_ as Wire $(<$w>)?>::enc($f, e);)*
            }
            #[inline]
            fn dec(d: &mut Dec) -> Result<Self, WireError> {
                Ok($T($(<_ as Wire $(<$w>)?>::dec(d)?),*))
            }
        }
        wire!($($rest)*);
    };
    (enum $T:ident { $($tag:literal => $v:ident
        $({ $($sf:ident $(as $sw:ty)?),* })?
        $(( $($tf:ident $(as $tw:ty)?),* ))?
    ),* $(,)? } $($rest:tt)*) => {
        impl Wire for $T {
            #[inline]
            fn enc(&self, e: &mut Enc) {
                match self {
                    $($T::$v $({ $($sf),* })? $(( $($tf),* ))? => {
                        e.0.push($tag);
                        $($(<_ as Wire $(<$sw>)?>::enc($sf, e);)*)?
                        $($(<_ as Wire $(<$tw>)?>::enc($tf, e);)*)?
                    })*
                }
            }
            #[inline]
            fn dec(d: &mut Dec) -> Result<Self, WireError> {
                <Self as Wire>::parse(d, false)
            }
            #[inline]
            fn parse(d: &mut Dec, whole: bool) -> Result<Self, WireError> {
                Ok(match u8::dec(d)? {
                    $($tag => {
                        $($(let $sf = <_ as Wire $(<$sw>)?>::dec(d)?;)*)?
                        $($(let $tf = <_ as Wire $(<$tw>)?>::dec(d)?;)*)?
                        d.end(whole)?;
                        $T::$v $({ $($sf),* })? $(( $($tf),* ))?
                    })*
                    _ => return Err(WireError::Malformed(concat!("unknown ", stringify!($T), " tag"))),
                })
            }
        }
        wire!($($rest)*);
    };
}

wire!(le u8, u16, u32, u64, i32, i64, f32, f64);

/// Strict: 0 or 1, anything else is malformed.
impl Wire for bool {
    #[inline]
    fn enc(&self, e: &mut Enc) {
        e.0.push(u8::from(*self));
    }
    #[inline]
    fn dec(d: &mut Dec) -> Result<Self, WireError> {
        match u8::dec(d)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::Malformed("flag byte")),
        }
    }
}

impl Wire<u32> for usize {
    #[inline]
    fn enc(&self, e: &mut Enc) {
        (*self as u32).enc(e);
    }
    #[inline]
    fn dec(d: &mut Dec) -> Result<Self, WireError> {
        Ok(u32::dec(d)? as usize)
    }
}

impl Wire<u64> for usize {
    #[inline]
    fn enc(&self, e: &mut Enc) {
        (*self as u64).enc(e);
    }
    #[inline]
    fn dec(d: &mut Dec) -> Result<Self, WireError> {
        Ok(u64::dec(d)? as usize)
    }
}

impl Wire for String {
    #[inline]
    fn enc(&self, e: &mut Enc) {
        e.bytes(self.as_bytes());
    }
    #[inline]
    fn dec(d: &mut Dec) -> Result<Self, WireError> {
        String::from_utf8(d.bytes()?.to_vec()).map_err(|_| WireError::Malformed("non-utf8 string"))
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    #[inline]
    fn enc(&self, e: &mut Enc) {
        self.0.enc(e);
        self.1.enc(e);
    }
    #[inline]
    fn dec(d: &mut Dec) -> Result<Self, WireError> {
        Ok((A::dec(d)?, B::dec(d)?))
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    #[inline]
    fn enc(&self, e: &mut Enc) {
        self.0.enc(e);
        self.1.enc(e);
        self.2.enc(e);
    }
    #[inline]
    fn dec(d: &mut Dec) -> Result<Self, WireError> {
        Ok((A::dec(d)?, B::dec(d)?, C::dec(d)?))
    }
}

/// Tag `0` for `None`, tag `1` then the value for `Some`.
impl<T: Wire<W>, W> Wire<Option<W>> for Option<T> {
    #[inline]
    fn enc(&self, e: &mut Enc) {
        match self {
            None => e.0.push(0),
            Some(v) => {
                e.0.push(1);
                v.enc(e);
            }
        }
    }
    #[inline]
    fn dec(d: &mut Dec) -> Result<Self, WireError> {
        match u8::dec(d)? {
            0 => Ok(None),
            1 => Ok(Some(T::dec(d)?)),
            _ => Err(WireError::Malformed("option tag")),
        }
    }
}

/// A `u64` count, then the elements.
impl<T: Wire<W>, W> Wire<Vec<W>> for Vec<T> {
    #[inline]
    fn enc(&self, e: &mut Enc) {
        e.list::<T, W>(self);
    }
    #[inline]
    fn dec(d: &mut Dec) -> Result<Self, WireError> {
        let n = d.count()?;
        d.seq(n, T::dec)
    }
}

/// A list whose count travels as a `u32` and may not exceed `MAX`.
enum U32Len<const MAX: usize> {}

impl<T: Wire, const MAX: usize> Wire<U32Len<MAX>> for Vec<T> {
    #[inline]
    fn enc(&self, e: &mut Enc) {
        (self.len() as u32).enc(e);
        self.iter().for_each(|v| v.enc(e));
    }
    #[inline]
    fn dec(d: &mut Dec) -> Result<Self, WireError> {
        let n = u32::dec(d)? as usize;
        if n > MAX {
            return Err(WireError::Malformed("list count over its cap"));
        }
        d.seq(n, T::dec)
    }
}

/// A byte payload (probe ballast): a `u64` length and one bulk copy, so
/// the start-up bandwidth probe times the socket, not the codec.
enum Bytes {}

impl Wire<Bytes> for Vec<u8> {
    #[inline]
    fn enc(&self, e: &mut Enc) {
        e.bytes(self);
    }
    #[inline]
    fn dec(d: &mut Dec) -> Result<Self, WireError> {
        Ok(d.bytes()?.to_vec())
    }
}

// ---------------------------------------------------------------------------
// Hand-written layouts: the ones that are not a list of fields.

/// A tag, then a `u64` element count and the 4-byte words in one pass
/// each way.
impl Wire for HostBuf {
    fn enc(&self, e: &mut Enc) {
        match self {
            HostBuf::F32(v) => {
                e.0.push(0);
                e.words(v, f32::to_le_bytes);
            }
            HostBuf::I32(v) => {
                e.0.push(1);
                e.words(v, i32::to_le_bytes);
            }
        }
    }
    fn dec(d: &mut Dec) -> Result<Self, WireError> {
        let tag = u8::dec(d)?;
        let n = d.count()?;
        let raw = d.take(n.checked_mul(4).ok_or(WireError::Malformed("buf len"))?)?;
        let words = raw
            .chunks_exact(4)
            .map(|c| <[u8; 4]>::try_from(c).expect("chunks of 4"));
        match tag {
            0 => Ok(HostBuf::F32(words.map(f32::from_le_bytes).collect())),
            1 => Ok(HostBuf::I32(words.map(i32::from_le_bytes).collect())),
            _ => Err(WireError::Malformed("hostbuf tag")),
        }
    }
}

/// An injected fault rides as one flat tag: 0 none, 1 crash, 2 transient.
impl Wire for Option<ExecFault> {
    #[inline]
    fn enc(&self, e: &mut Enc) {
        e.0.push(match self {
            None => 0,
            Some(ExecFault::Crash) => 1,
            Some(ExecFault::FailTransient) => 2,
        });
    }
    #[inline]
    fn dec(d: &mut Dec) -> Result<Self, WireError> {
        match u8::dec(d)? {
            0 => Ok(None),
            1 => Ok(Some(ExecFault::Crash)),
            2 => Ok(Some(ExecFault::FailTransient)),
            _ => Err(WireError::Malformed("fault tag")),
        }
    }
}

/// `LoadKernel`'s in-process compiled kernel travels as nothing: the
/// receiving worker recompiles from the source, deterministically.
impl Wire<()> for Option<Arc<CompiledKernel>> {
    fn enc(&self, _: &mut Enc) {}
    fn dec(_: &mut Dec) -> Result<Self, WireError> {
        Ok(None)
    }
}

/// A `u32` endpoint count `n` (1 to [`MAX_ENDPOINTS`]), then `n × n` f64
/// bandwidths, row by row.
impl Wire for LinkMatrix {
    fn enc(&self, e: &mut Enc) {
        let n = self.endpoints();
        (n as u32).enc(e);
        for src in 0..n {
            for dst in 0..n {
                self.raw(src, dst).enc(e);
            }
        }
    }
    fn dec(d: &mut Dec) -> Result<Self, WireError> {
        let n = u32::dec(d)? as usize;
        if n == 0 || n > MAX_ENDPOINTS {
            return Err(WireError::Malformed("link-matrix size"));
        }
        Ok(LinkMatrix::new(d.seq(n, |d| d.seq(n, f64::dec))?))
    }
}

/// The event list. Decoding refuses events out of `at_ce` order: the plan
/// would sort them and so encode to other bytes than it came from.
impl Wire for FaultPlan {
    fn enc(&self, e: &mut Enc) {
        e.list(self.events());
    }
    fn dec(d: &mut Dec) -> Result<Self, WireError> {
        let events = <Vec<FaultEvent> as Wire>::dec(d)?;
        if !events.is_sorted_by_key(|ev| ev.at_ce) {
            return Err(WireError::Malformed("fault events out of order"));
        }
        Ok(FaultPlan::with_events(events))
    }
}

/// A telemetry batch's worker index, behind the batch-format word `1`:
/// span fields can evolve without a [`WIRE_VERSION`] bump.
enum TelemetryV1 {}

impl Wire<TelemetryV1> for usize {
    fn enc(&self, e: &mut Enc) {
        1u16.enc(e);
        <usize as Wire<u32>>::enc(self, e);
    }
    fn dec(d: &mut Dec) -> Result<Self, WireError> {
        if u16::dec(d)? != 1 {
            return Err(WireError::Malformed("telemetry batch version"));
        }
        <usize as Wire<u32>>::dec(d)
    }
}

/// Batched ctrl messages, one level deep: a `u32` count (at most 65 536),
/// then each message as a `u64`-length-prefixed ctrl payload. A batch
/// inside a batch is malformed, so a hostile sender cannot force
/// unbounded recursion.
enum OneLevel {}

impl Wire<OneLevel> for Vec<CtrlMsg> {
    fn enc(&self, e: &mut Enc) {
        (self.len() as u32).enc(e);
        for m in self {
            // Encode in place, then patch the length prefix.
            let at = e.0.len();
            0u64.enc(e);
            m.enc(e);
            let len = (e.0.len() - at - 8) as u64;
            e.0[at..at + 8].copy_from_slice(&len.to_le_bytes());
        }
    }
    fn dec(d: &mut Dec) -> Result<Self, WireError> {
        let n = u32::dec(d)? as usize;
        if n > 65_536 {
            return Err(WireError::Malformed("batch length"));
        }
        d.seq(n, |d| {
            let inner = d.bytes()?;
            if inner.first() == Some(&14) {
                return Err(WireError::Malformed("nested batch"));
            }
            decode_ctrl(inner)
        })
    }
}

// ---------------------------------------------------------------------------
// The declaration table: every other layout, each written once.

wire! {
    struct ArrayId(id)
    struct CeId(id)
    struct SimDuration(ns)

    enum CtrlMsg {
        0 => Data { array, version, buf },
        1 => LoadKernel { id, name, source, compiled as () },
        2 => Exec(spec),
        3 => Send { array, min_version, to as Option<u32> },
        4 => Probe { token, payload as Bytes },
        5 => ProbePeer { token, to as u32, bytes },
        6 => PeerProbe { token, from as u32, payload as Bytes },
        7 => PeerProbeEcho { token, payload as Bytes },
        8 => Shutdown,
        9 => Observe { enabled },
        10 => ShipInit { cfg, links },
        11 => ShipOp { seq, op },
        12 => Leave,
        13 => Peers { addrs as U32Len<65_536> },
        14 => Batch(msgs as OneLevel),
        15 => Reclaim { arrays as U32Len<{ 1 << 20 }>, kernels as U32Len<{ 1 << 20 }> },
    }
    struct ExecSpec { dag_index as u64, kernel, grid, block, args, needs, bumps, fault }
    enum LocalArg { 0 => Buf(id), 1 => F32(v), 2 => I32(v) }

    enum WorkerMsg {
        0 => Done { dag_index as u64, worker as u32, elapsed_ns },
        1 => Data { array, version, buf },
        2 => Failed { dag_index as u64, worker as u32, error },
        3 => Heartbeat { worker as u32 },
        4 => ProbeEcho { worker as u32, token, payload as Bytes },
        5 => ProbeReport { worker as u32, to as u32, bytes, elapsed_ns },
        6 => Telemetry {
            worker as TelemetryV1,
            seq,
            backlog,
            counters,
            spans as U32Len<TELEMETRY_DECODE_CAP>
        },
        7 => ShipAck { seq, digest },
        8 => Leave { worker as u32 },
    }
    struct WorkerCounters { kernels, recompiles, sends, recvs, bytes_out, bytes_in, dropped }
    struct WorkerSpan { kind, name, start_ns, dur_ns, dag_index, bytes }
    enum WorkerSpanKind { 0 => Execute, 1 => Transfer, 2 => Recompile }
    enum LaunchError {
        0 => Arity { expected as u64, got as u64 },
        1 => ArgType { index as u64, expected },
        2 => OutOfBounds { param as u64, index, len as u64 },
        3 => DivideByZero,
        4 => StepBudgetExceeded,
        5 => EmptyLaunch,
    }

    enum PlannerOp {
        0 => Alloc { bytes },
        1 => Free { array },
        2 => PlanCe { ce },
        3 => MarkCompleted { dag_index as u64 },
        4 => Quarantine { worker as u32 },
        5 => Recover { dead as u32, incomplete as Vec<u64> },
        6 => ReprobeLinks { links },
        7 => Suspect { worker as u32 },
        8 => Reinstate { worker as u32 },
        9 => Rejoin { worker as u32 },
        10 => Join { worker as u32 },
        11 => Leave { worker as u32 },
    }
    struct Ce { id, kind, args }
    enum CeKind { 0 => Kernel { name, cost }, 1 => HostRead, 2 => HostWrite }
    struct KernelCost { flops, bytes_read, bytes_written }
    struct CeArg { array, bytes, alloc_bytes, mode, pattern, advise }
    enum AccessMode { 0 => Read, 1 => Write, 2 => ReadWrite }
    enum AccessPattern {
        0 => Streamed { sweeps },
        1 => Gather { touches_per_page },
        2 => Strided { touches_per_page },
    }
    enum MemAdvise { 0 => None, 1 => ReadMostly, 2 => PreferredHost }

    struct PlannerConfig {
        workers as u32,
        policy,
        p2p_enabled,
        flat_scheduling,
        controller_colocated,
        faults,
        fault_cfg
    }
    enum PolicyKind {
        0 => RoundRobin,
        1 => VectorStep(counts),
        2 => MinTransferSize(level),
        3 => MinTransferTime(level),
    }
    enum ExplorationLevel { 0 => Low, 1 => Medium, 2 => High }
    struct FaultEvent { at_ce as u64, kind }
    enum FaultKind {
        0 => KillWorker,
        1 => FailLaunch { times },
        2 => DropTransfer,
        3 => DelayTransfer { delay },
    }
    struct FaultConfig {
        max_retries,
        backoff_base,
        backoff_cap,
        detection_timeout,
        recovery
    }

    enum Hello {
        0 => Controller {
            index as u32,
            total as u32,
            heartbeat_ms,
            peers,
            session_id,
            resume
        },
        1 => Peer { from as u32 },
        2 => Client,
    }
    struct WorkerAck { index as u32, resumed, cursor }

    enum ClientMsg { 0 => Attach { source, priority, declared_bytes }, 1 => Detach }
    enum Priority { 0 => Low, 1 => Normal, 2 => High }
    enum CtldMsg {
        0 => Attached { session },
        1 => Queued { position },
        2 => Rejected(error),
        3 => Output { lines as U32Len<{ 1 << 20 }> },
        4 => Finished { kernels },
        5 => Failed { message },
    }
    enum AdmissionError {
        0 => Saturated { active, max },
        1 => QueueFull { queued, max },
        2 => ResidentBytes { declared, max },
    }
}

/// Worker → controller clock ping: `(worker, t1_ns)`.
type ClockPing = (u32, u64);
/// Controller → worker clock pong: `(t1_ns, t2_ns)`.
type ClockPong = (u64, u64);
/// Worker → controller clock sample: `(worker, offset_ns, rtt_ns)`.
type ClockSample = (u32, i64, u64);
/// A planner's construction inputs: the journal header.
type PlannerInputs = (PlannerConfig, Option<LinkMatrix>);

/// A transport-internal frame: its tag byte, then `v`.
fn encode_tagged<T: Wire>(tag: u8, v: &T) -> Vec<u8> {
    let mut e = Enc(vec![tag]);
    v.enc(&mut e);
    e.0
}

/// Decodes an [`encode_tagged`] payload; `what` names a wrong tag.
fn decode_tagged<T: Wire>(tag: u8, payload: &[u8], what: &'static str) -> Result<T, WireError> {
    match payload.split_first() {
        Some((&t, rest)) if t == tag => decode(rest),
        _ => Err(WireError::Malformed(what)),
    }
}

/// Refuses planner construction inputs on which
/// [`grout_core::Planner::new`] would panic: they come from a socket or a
/// file, so a bad worker count or policy is a malformed frame.
fn check_planner_inputs(cfg: &PlannerConfig, links: &Option<LinkMatrix>) -> Result<(), WireError> {
    validate_planner_inputs(cfg, links.as_ref()).map_err(|e| match e {
        PlanError::InvalidConfig(why) => WireError::Malformed(why),
        _ => WireError::Malformed("planner config"),
    })
}

// ---------------------------------------------------------------------------
// The public codec: one encode/decode pair per payload kind.

/// Encodes a planner's construction inputs — configuration plus the
/// (possibly probed, run-specific) link matrix — as one payload: the
/// journal header of [`crate::oplog`].
pub fn encode_journal_header(cfg: &PlannerConfig, links: &Option<LinkMatrix>) -> Vec<u8> {
    // The [`PlannerInputs`] layout, without cloning the inputs into a tuple.
    let mut e = Enc::new();
    cfg.enc(&mut e);
    links.enc(&mut e);
    e.0
}

/// Decodes a [`encode_journal_header`] payload.
pub fn decode_journal_header(
    payload: &[u8],
) -> Result<(PlannerConfig, Option<LinkMatrix>), WireError> {
    let (cfg, links) = decode::<PlannerInputs>(payload)?;
    check_planner_inputs(&cfg, &links)?;
    Ok((cfg, links))
}

/// Encodes one [`PlannerOp`] (standalone payload: log shipping nests it
/// in [`CtrlMsg::ShipOp`]; the journal stores it per frame).
pub fn encode_op(op: &PlannerOp) -> Vec<u8> {
    encode(op)
}

/// Decodes a [`encode_op`] payload.
pub fn decode_op(payload: &[u8]) -> Result<PlannerOp, WireError> {
    decode(payload)
}

/// Encodes a controller→worker (or peer) message. `LoadKernel` drops the
/// in-process `compiled` fast path at the wire: only `(source, name)`
/// travel, and the receiving worker recompiles (deterministically).
pub fn encode_ctrl(msg: &CtrlMsg) -> Vec<u8> {
    encode(msg)
}

/// Decodes a controller→worker (or peer) message.
pub fn decode_ctrl(payload: &[u8]) -> Result<CtrlMsg, WireError> {
    // Checked where it lies: unwrapping and rewrapping would copy it.
    let mut r = decode(payload);
    if let Ok(CtrlMsg::ShipInit { cfg, links }) = &r {
        if let Err(e) = check_planner_inputs(cfg, links) {
            r = Err(e);
        }
    }
    r
}

/// Encodes a worker→controller message.
pub fn encode_worker(msg: &WorkerMsg) -> Vec<u8> {
    encode(msg)
}

/// Decodes a worker→controller message.
pub fn decode_worker(payload: &[u8]) -> Result<WorkerMsg, WireError> {
    decode(payload)
}

// ---------------------------------------------------------------------------
// Clock-sync frames (transport-internal; see the module docs).

/// Worker → controller: "my clock read `t1_ns` when I sent this".
pub fn encode_clock_ping(worker: usize, t1_ns: u64) -> Vec<u8> {
    encode_tagged::<ClockPing>(CLOCK_PING_TAG, &(worker as u32, t1_ns))
}

/// Decodes a clock ping: `(worker, t1_ns)`.
pub fn decode_clock_ping(payload: &[u8]) -> Result<(usize, u64), WireError> {
    let (worker, t1) = decode_tagged::<ClockPing>(CLOCK_PING_TAG, payload, "clock-ping tag")?;
    Ok((worker as usize, t1))
}

/// Controller → worker: echo of the ping's `t1_ns` plus the controller's
/// receive stamp `t2_ns`.
pub fn encode_clock_pong(t1_ns: u64, t2_ns: u64) -> Vec<u8> {
    encode_tagged::<ClockPong>(CLOCK_PONG_TAG, &(t1_ns, t2_ns))
}

/// Decodes a clock pong: `(t1_ns, t2_ns)`.
pub fn decode_clock_pong(payload: &[u8]) -> Result<(u64, u64), WireError> {
    decode_tagged::<ClockPong>(CLOCK_PONG_TAG, payload, "clock-pong tag")
}

/// Worker → controller: one finished offset/RTT measurement.
pub fn encode_clock_sample(worker: usize, offset_ns: i64, rtt_ns: u64) -> Vec<u8> {
    encode_tagged::<ClockSample>(CLOCK_SAMPLE_TAG, &(worker as u32, offset_ns, rtt_ns))
}

/// Decodes a clock sample: `(worker, offset_ns, rtt_ns)`.
pub fn decode_clock_sample(payload: &[u8]) -> Result<(usize, i64, u64), WireError> {
    let (worker, offset, rtt) =
        decode_tagged::<ClockSample>(CLOCK_SAMPLE_TAG, payload, "clock-sample tag")?;
    Ok((worker as usize, offset, rtt))
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
    encode_tagged(SESSION_ACK_TAG, &cursor)
}

/// Decodes a session ack into the sender's receive cursor.
pub fn decode_session_ack(payload: &[u8]) -> Result<u64, WireError> {
    decode_tagged(SESSION_ACK_TAG, payload, "session-ack tag")
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

/// The magic + version prefix shared by hello and ack frames, then `v`.
fn encode_preambled<T: Wire>(v: &T) -> Vec<u8> {
    let mut e = Enc(MAGIC.to_vec());
    WIRE_VERSION.enc(&mut e);
    v.enc(&mut e);
    e.0
}

/// Checks the magic + version prefix of a hello or ack (`what` names the
/// frame in the error), then decodes the rest as a whole payload.
fn decode_preambled<T: Wire>(payload: &[u8], what: &str) -> Result<T, WireError> {
    let mut d = Dec::new(payload);
    let magic = d.take(4)?;
    if magic != MAGIC {
        return Err(WireError::Handshake(format!(
            "bad {what} magic {magic:02x?} (not a GrOUT endpoint?)"
        )));
    }
    let version = u16::dec(&mut d)?;
    if version != WIRE_VERSION {
        return Err(WireError::Handshake(format!(
            "{what} speaks wire v{version}, this build speaks v{WIRE_VERSION}"
        )));
    }
    decode(d.buf)
}

/// Encodes a handshake frame.
pub fn encode_hello(h: &Hello) -> Vec<u8> {
    encode_preambled(h)
}

/// Decodes and validates a handshake frame. The peer's version must
/// equal [`WIRE_VERSION`]: all nodes run the same build.
pub fn decode_hello(payload: &[u8]) -> Result<Hello, WireError> {
    decode_preambled(payload, "hello")
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
    encode_preambled(&WorkerAck {
        index,
        resumed,
        cursor,
    })
}

/// Decodes and validates an ack (same version rule as [`decode_hello`]).
pub fn decode_ack(payload: &[u8]) -> Result<WorkerAck, WireError> {
    decode_preambled(payload, "ack")
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

/// Encodes a client → ctld message.
pub fn encode_client(msg: &ClientMsg) -> Vec<u8> {
    encode(msg)
}

/// Decodes a client → ctld message.
pub fn decode_client(payload: &[u8]) -> Result<ClientMsg, WireError> {
    decode(payload)
}

/// Encodes a ctld → client message.
pub fn encode_ctld(msg: &CtldMsg) -> Vec<u8> {
    encode(msg)
}

/// Decodes a ctld → client message.
pub fn decode_ctld(payload: &[u8]) -> Result<CtldMsg, WireError> {
    decode(payload)
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
        6u8.enc(&mut e);
        1u16.enc(&mut e);
        0u32.enc(&mut e);
        1u64.enc(&mut e);
        0u64.enc(&mut e);
        for _ in 0..7 {
            0u64.enc(&mut e); // counters
        }
        u32::MAX.enc(&mut e); // hostile span count
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
