//! `TapTransport`: a [`Transport`] wrapper that timestamps every
//! [`CtrlMsg`] going out and every [`WorkerMsg`] coming in, without
//! touching the program. The runtime is built over it with
//! `build_with_transport`, exactly as it would be over the wrapped
//! transport; the tap only observes.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use grout::core::{
    CtrlMsg, LinkMatrix, Liveness, PeerWireStats, SendLost, Transport, TransportRecvError,
    WorkerMsg,
};
use grout::net::wire;

/// Messages whose payload is at most this are encoded at the tap to learn
/// their exact wire size; bigger ones (bulk `Data`) are sized as payload
/// plus the framing overhead learnt from the first such message, so the
/// traced bulk run does not pay a 4 MiB copy per message for accounting.
const EXACT_SIZE_LIMIT: u64 = 64 << 10;

/// How many small messages of each direction are kept for the codec
/// probe to replay.
const KEEP_SAMPLES: usize = 512;

/// Everything the tap saw.
#[derive(Debug, Default)]
pub struct TapLog {
    /// Controller → worker messages.
    pub ctrl_msgs: u64,
    /// Worker → controller messages.
    pub worker_msgs: u64,
    /// Codec-level bytes of all controller → worker messages.
    pub ctrl_bytes: u64,
    /// Codec-level bytes of all worker → controller messages.
    pub worker_bytes: u64,
    /// `Exec` sent → `Done` received, per CE, µs.
    pub exec_to_done_us: Vec<f64>,
    /// The first small controller → worker messages, verbatim.
    pub ctrl_samples: Vec<CtrlMsg>,
    /// The first small worker → controller messages, verbatim.
    pub worker_samples: Vec<WorkerMsg>,
    exec_sent: HashMap<usize, Instant>,
    ctrl_overhead: Option<u64>,
    worker_overhead: Option<u64>,
}

fn ctrl_payload(msg: &CtrlMsg) -> u64 {
    match msg {
        CtrlMsg::Data { buf, .. } => buf.bytes(),
        _ => 0,
    }
}

fn worker_payload(msg: &WorkerMsg) -> u64 {
    match msg {
        WorkerMsg::Data { buf, .. } => buf.bytes(),
        _ => 0,
    }
}

/// Wire size of a message with `payload` bulk bytes: exact below the
/// limit, payload + learnt overhead above it.
fn sized(payload: u64, overhead: &mut Option<u64>, encode: impl Fn() -> usize) -> u64 {
    if payload <= EXACT_SIZE_LIMIT {
        return encode() as u64;
    }
    let overhead = *overhead.get_or_insert_with(|| (encode() as u64).saturating_sub(payload));
    payload + overhead
}

impl TapLog {
    fn on_send(&mut self, msg: &CtrlMsg) {
        self.ctrl_msgs += 1;
        let payload = ctrl_payload(msg);
        self.ctrl_bytes += sized(payload, &mut self.ctrl_overhead, || {
            wire::encode_ctrl(msg).len()
        });
        if payload <= EXACT_SIZE_LIMIT && self.ctrl_samples.len() < KEEP_SAMPLES {
            self.ctrl_samples.push(msg.clone());
        }
        if let CtrlMsg::Exec(spec) = msg {
            self.exec_sent.insert(spec.dag_index, Instant::now());
        }
    }

    fn on_recv(&mut self, msg: &WorkerMsg) {
        self.worker_msgs += 1;
        let payload = worker_payload(msg);
        self.worker_bytes += sized(payload, &mut self.worker_overhead, || {
            wire::encode_worker(msg).len()
        });
        if payload <= EXACT_SIZE_LIMIT && self.worker_samples.len() < KEEP_SAMPLES {
            self.worker_samples.push(msg.clone());
        }
        if let WorkerMsg::Done { dag_index, .. } = msg {
            if let Some(sent) = self.exec_sent.remove(dag_index) {
                self.exec_to_done_us
                    .push(sent.elapsed().as_secs_f64() * 1e6);
            }
        }
    }
}

/// The handle through which the log is read once the runtime has consumed
/// the transport.
pub type SharedTapLog = Arc<Mutex<TapLog>>;

/// The tap. Every [`Transport`] method forwards to the wrapped transport;
/// `send`, `recv_timeout` and `try_recv` also record into the shared
/// [`TapLog`].
pub struct TapTransport {
    inner: Box<dyn Transport>,
    log: SharedTapLog,
}

impl TapTransport {
    /// Wraps `inner`; the returned handle reads the log after the runtime
    /// has consumed the transport.
    pub fn new(inner: Box<dyn Transport>) -> (Self, SharedTapLog) {
        let log = Arc::new(Mutex::new(TapLog::default()));
        (
            TapTransport {
                inner,
                log: Arc::clone(&log),
            },
            log,
        )
    }

    fn log(&self) -> std::sync::MutexGuard<'_, TapLog> {
        self.log.lock().expect("tap log lock poisoned by a panic")
    }
}

impl Transport for TapTransport {
    fn workers(&self) -> usize {
        self.inner.workers()
    }

    fn kind(&self) -> &'static str {
        self.inner.kind()
    }

    fn send(&mut self, worker: usize, msg: CtrlMsg) -> Result<(), SendLost> {
        self.log().on_send(&msg);
        self.inner.send(worker, msg)
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<WorkerMsg, TransportRecvError> {
        let msg = self.inner.recv_timeout(timeout)?;
        self.log().on_recv(&msg);
        Ok(msg)
    }

    fn try_recv(&mut self) -> Option<WorkerMsg> {
        let msg = self.inner.try_recv()?;
        self.log().on_recv(&msg);
        Some(msg)
    }

    fn is_alive(&mut self, worker: usize) -> bool {
        self.inner.is_alive(worker)
    }

    fn liveness(&mut self, worker: usize) -> Liveness {
        self.inner.liveness(worker)
    }

    fn reconnect(&mut self, worker: usize) -> bool {
        self.inner.reconnect(worker)
    }

    fn join(&mut self, addr: &str) -> Result<usize, String> {
        self.inner.join(addr)
    }

    fn probe_joined(&mut self, worker: usize) -> Option<LinkMatrix> {
        self.inner.probe_joined(worker)
    }

    fn shutdown(&mut self, worker: usize) {
        self.inner.shutdown(worker)
    }

    fn spawn_failures(&self) -> &[(usize, String)] {
        self.inner.spawn_failures()
    }

    fn measured_links(&self) -> Option<&LinkMatrix> {
        self.inner.measured_links()
    }

    fn clock_offset_ns(&mut self, worker: usize) -> i64 {
        self.inner.clock_offset_ns(worker)
    }

    fn wire_stats(&self) -> Vec<PeerWireStats> {
        self.inner.wire_stats()
    }

    fn session_id(&self) -> Option<u64> {
        self.inner.session_id()
    }
}
