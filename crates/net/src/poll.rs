//! A minimal readiness-multiplexing layer over `poll(2)`, plus the two
//! building blocks every event-loop endpoint needs: an incremental
//! length-prefixed frame decoder ([`FrameBuf`]) and a nonblocking write
//! queue ([`WriteQueue`]).
//!
//! The workspace deliberately carries no async runtime and no `libc`
//! crate; `poll(2)` is one `extern "C"` symbol with a stable ABI on every
//! libc, which keeps the controller and the workerd at exactly one I/O
//! thread each regardless of peer count. Wakeups from other threads go
//! through a connected loopback [`UdpSocket`] pair ([`Waker`]) — datagram
//! sockets never short-write and never block the waker, and a full
//! receive buffer is harmless because one pending datagram already makes
//! the loop drain its whole command queue.

use std::io::{self, Read, Write};
use std::net::UdpSocket;
use std::os::fd::{AsRawFd, RawFd};
use std::time::Duration;

use crate::wire::MAX_FRAME;

/// Readable readiness (POLLIN).
pub const POLLIN: i16 = 0x001;
/// Writable readiness (POLLOUT).
pub const POLLOUT: i16 = 0x004;
/// Error condition (always polled, reported in `revents` only).
pub const POLLERR: i16 = 0x008;
/// Hangup (reported in `revents` only).
pub const POLLHUP: i16 = 0x010;

/// `struct pollfd` — identical layout on every supported libc.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct PollFd {
    /// The file descriptor to watch (negative entries are skipped by the
    /// kernel, which this wrapper never relies on).
    pub fd: i32,
    /// Requested events (`POLLIN` / `POLLOUT`).
    pub events: i16,
    /// Returned events.
    pub revents: i16,
}

#[cfg(target_os = "linux")]
type NFds = u64;
#[cfg(not(target_os = "linux"))]
type NFds = u32;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: NFds, timeout: i32) -> i32;
}

/// Blocks until at least one descriptor in `fds` is ready, `timeout`
/// elapses (`None` = forever), or a signal interrupts. Returns the number
/// of ready descriptors (0 on timeout); `EINTR` is reported as `Ok(0)` so
/// callers treat it like a timeout and re-arm.
pub fn poll_fds(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<usize> {
    let ms: i32 = match timeout {
        None => -1,
        // Round up so a 0.5ms deadline does not become a busy-loop.
        Some(d) => d
            .as_millis()
            .saturating_add(u128::from(d.subsec_nanos() % 1_000_000 != 0))
            .min(i32::MAX as u128) as i32,
    };
    let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as NFds, ms) };
    if rc < 0 {
        let err = io::Error::last_os_error();
        if err.kind() == io::ErrorKind::Interrupted {
            return Ok(0);
        }
        return Err(err);
    }
    Ok(rc as usize)
}

/// Cross-thread wakeup for a poll loop: a connected UDP socket pair on
/// 127.0.0.1. The loop polls [`Waker::fd`] for POLLIN; any thread calls
/// [`WakeHandle::wake`]. Lost datagrams (full receive buffer) are safe by
/// construction — see the module docs.
pub struct Waker {
    rx: UdpSocket,
    tx: UdpSocket,
}

/// The sending half handed to other threads (clonable).
pub struct WakeHandle(UdpSocket);

impl Waker {
    /// Binds the loopback pair. Ephemeral ports; nothing is reachable from
    /// off-host because both ends connect to each other first.
    pub fn new() -> io::Result<Waker> {
        let rx = UdpSocket::bind("127.0.0.1:0")?;
        let tx = UdpSocket::bind("127.0.0.1:0")?;
        tx.connect(rx.local_addr()?)?;
        rx.connect(tx.local_addr()?)?;
        rx.set_nonblocking(true)?;
        tx.set_nonblocking(true)?;
        Ok(Waker { rx, tx })
    }

    /// The descriptor the loop includes in its poll set (POLLIN).
    pub fn fd(&self) -> RawFd {
        self.rx.as_raw_fd()
    }

    /// A sender other threads keep.
    pub fn handle(&self) -> io::Result<WakeHandle> {
        Ok(WakeHandle(self.tx.try_clone()?))
    }

    /// Discards every pending wake datagram (call once per loop turn
    /// after the command queue has been drained).
    pub fn drain(&self) {
        let mut buf = [0u8; 16];
        while self.rx.recv(&mut buf).is_ok() {}
    }
}

impl WakeHandle {
    /// Nudges the loop. Failure is ignorable: either the buffer is full
    /// (a wake is already pending) or the loop is gone.
    pub fn wake(&self) {
        let _ = self.0.send(&[1u8]);
    }
}

impl Clone for WakeHandle {
    fn clone(&self) -> WakeHandle {
        WakeHandle(self.0.try_clone().expect("clone waker socket"))
    }
}

/// Incremental decoder for the `u32`-LE length-prefixed framing used on
/// every GrOUT socket. Push whatever the socket yields; pull complete
/// frames out.
#[derive(Default)]
pub struct FrameBuf {
    buf: Vec<u8>,
    /// Read position within `buf` (compacted opportunistically).
    pos: usize,
}

impl FrameBuf {
    /// An empty decoder.
    pub fn new() -> FrameBuf {
        FrameBuf::default()
    }

    /// Appends raw bytes from the socket.
    pub fn push(&mut self, bytes: &[u8]) {
        // Compact before growing: long-lived peers must not accrete the
        // prefix of every frame they ever received.
        if self.pos > 0 && (self.pos == self.buf.len() || self.buf.len() >= (1 << 20)) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Pops the next complete frame, if one has fully arrived. Returns an
    /// error for an over-limit length prefix (corrupt or hostile peer).
    pub fn next_frame(&mut self) -> io::Result<Option<Vec<u8>>> {
        let avail = &self.buf[self.pos..];
        if avail.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes([avail[0], avail[1], avail[2], avail[3]]) as usize;
        if len > MAX_FRAME as usize {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame length {len} exceeds the {MAX_FRAME} cap"),
            ));
        }
        if avail.len() < 4 + len {
            return Ok(None);
        }
        let frame = avail[4..4 + len].to_vec();
        self.pos += 4 + len;
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        }
        Ok(Some(frame))
    }

    /// Bytes buffered but not yet consumed (tests/diagnostics).
    pub fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }
}

/// Drains a nonblocking stream into `frames`. Returns `Ok(true)` while
/// the connection is open, `Ok(false)` on orderly EOF; `WouldBlock` ends
/// the drain without error.
pub fn read_available(stream: &mut impl Read, frames: &mut FrameBuf) -> io::Result<bool> {
    let mut chunk = [0u8; 64 * 1024];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => return Ok(false),
            Ok(n) => frames.push(&chunk[..n]),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(true),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// Queued outbound frames for one nonblocking socket. Enqueue whole
/// frames; flush writes as much as the kernel accepts. A non-empty queue
/// is the loop's cue to request POLLOUT for the socket.
#[derive(Default)]
pub struct WriteQueue {
    queue: std::collections::VecDeque<Vec<u8>>,
    /// Bytes of the front frame already written.
    offset: usize,
}

impl WriteQueue {
    /// An empty queue.
    pub fn new() -> WriteQueue {
        WriteQueue::default()
    }

    /// Queues one payload, prepending the 4-byte LE length prefix.
    pub fn enqueue(&mut self, payload: &[u8]) {
        let mut framed = Vec::with_capacity(4 + payload.len());
        framed.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        framed.extend_from_slice(payload);
        self.queue.push_back(framed);
    }

    /// Queues bytes that already carry their framing (resume replay).
    pub fn enqueue_raw(&mut self, framed: Vec<u8>) {
        self.queue.push_back(framed);
    }

    /// Writes as much as the socket accepts right now. `Ok(true)` when
    /// the queue drained completely, `Ok(false)` when bytes remain
    /// (request POLLOUT); an error means the connection is gone.
    pub fn flush(&mut self, stream: &mut impl Write) -> io::Result<bool> {
        while let Some(front) = self.queue.front() {
            match stream.write(&front[self.offset..]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "socket accepted zero bytes",
                    ))
                }
                Ok(n) => {
                    self.offset += n;
                    if self.offset == front.len() {
                        self.queue.pop_front();
                        self.offset = 0;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(true)
    }

    /// Whether frames are still queued (POLLOUT interest).
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Queued frame count (backpressure diagnostics).
    pub fn len(&self) -> usize {
        self.queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frame_buf_reassembles_split_frames() {
        let mut fb = FrameBuf::new();
        let payload = b"hello, mesh".to_vec();
        let mut framed = (payload.len() as u32).to_le_bytes().to_vec();
        framed.extend_from_slice(&payload);
        // Feed one byte at a time: no frame until the last byte lands.
        for b in &framed {
            assert!(fb.next_frame().unwrap().is_none());
            fb.push(&[*b]);
        }
        assert_eq!(fb.next_frame().unwrap().as_deref(), Some(&payload[..]));
        assert!(fb.next_frame().unwrap().is_none());
        assert_eq!(fb.pending(), 0);
    }

    #[test]
    fn frame_buf_yields_back_to_back_frames() {
        let mut fb = FrameBuf::new();
        let mut bytes = Vec::new();
        for p in [b"a".to_vec(), b"bb".to_vec(), b"ccc".to_vec()] {
            bytes.extend_from_slice(&(p.len() as u32).to_le_bytes());
            bytes.extend_from_slice(&p);
        }
        fb.push(&bytes);
        assert_eq!(fb.next_frame().unwrap().as_deref(), Some(&b"a"[..]));
        assert_eq!(fb.next_frame().unwrap().as_deref(), Some(&b"bb"[..]));
        assert_eq!(fb.next_frame().unwrap().as_deref(), Some(&b"ccc"[..]));
        assert!(fb.next_frame().unwrap().is_none());
    }

    #[test]
    fn frame_buf_rejects_oversized_prefix() {
        let mut fb = FrameBuf::new();
        fb.push(&u32::MAX.to_le_bytes());
        assert!(fb.next_frame().is_err());
    }

    #[test]
    fn write_queue_frames_and_flushes() {
        let mut wq = WriteQueue::new();
        wq.enqueue(b"xyz");
        let mut sink = Cursor::new(Vec::new());
        assert!(wq.flush(&mut sink).unwrap());
        let written = sink.into_inner();
        assert_eq!(&written[..4], &3u32.to_le_bytes());
        assert_eq!(&written[4..], b"xyz");
        assert!(wq.is_empty());
    }

    #[test]
    fn waker_round_trip() {
        let waker = Waker::new().unwrap();
        let handle = waker.handle().unwrap();
        handle.wake();
        let mut fds = [PollFd {
            fd: waker.fd(),
            events: POLLIN,
            revents: 0,
        }];
        let n = poll_fds(&mut fds, Some(Duration::from_secs(5))).unwrap();
        assert_eq!(n, 1);
        assert!(fds[0].revents & POLLIN != 0);
        waker.drain();
        // Drained: poll now times out.
        fds[0].revents = 0;
        let n = poll_fds(&mut fds, Some(Duration::from_millis(10))).unwrap();
        assert_eq!(n, 0);
    }

    #[test]
    fn poll_times_out_on_idle_socket() {
        let sock = UdpSocket::bind("127.0.0.1:0").unwrap();
        let mut fds = [PollFd {
            fd: sock.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        }];
        let n = poll_fds(&mut fds, Some(Duration::from_millis(5))).unwrap();
        assert_eq!(n, 0);
    }
}
