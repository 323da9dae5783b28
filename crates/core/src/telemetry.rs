//! Unified tracing and metrics for every runtime backend.
//!
//! The evaluation questions of the paper — where do the bytes go per
//! inter-node policy, how saturated is each device, when does recovery
//! overhead dominate — all need one answer surface instead of per-runtime
//! ad-hoc stats. This module provides it in three layers:
//!
//! 1. **[`Recorder`]** — the span/instant/counter/gauge sink trait. The
//!    default state is *off*: a [`Telemetry`] handle holding no recorder
//!    short-circuits every call without allocating, so the hot scheduling
//!    paths pay one branch when tracing is disabled. Call sites that must
//!    build dynamic payloads gate on [`Telemetry::enabled`] first.
//! 2. **[`Metrics`]** — the always-on registry both runtimes maintain
//!    directly (no locks on the hot path): per-CE plan/queue/transfer/
//!    execute latency aggregates, bytes moved split by [`MovementKind`],
//!    fault/retry/quarantine/replay counters, and per-worker kernel
//!    occupancy.
//! 3. **Exporters** — [`ChromeTracer`] renders recorded events as Chrome
//!    `trace_event` JSON (one process lane per node, one thread lane per
//!    stream; loadable in `chrome://tracing` or [Perfetto]).
//!    [`Metrics::snapshot`] freezes the registry into the one metrics
//!    model, [`MetricsSnapshot`], which renders both the Prometheus text
//!    `/metrics` serves and the JSON `--metrics-out` writes.
//!
//! Timestamps are nanoseconds from an arbitrary per-run origin: the
//! simulator passes virtual time (making traces bit-for-bit deterministic
//! per seed), the local runtime passes wall-clock time since startup.
//! The [`SchedEvent`] vocabulary from the faults module rides along as
//! structured payloads on instant events, so a trace of a chaotic run shows
//! retries, quarantines and replays on the controller lane.
//!
//! [Perfetto]: https://ui.perfetto.dev

use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard};

use serde_json::Value;

use crate::faults::SchedEvent;
use crate::policy::LinkMatrix;
use crate::scheduler::MovementKind;

/// Where an event happened: one Chrome-trace lane per `(node, track)`.
///
/// `node` follows [`crate::Location`] numbering (0 = controller, `i + 1` =
/// worker `i`). `track` subdivides a node: track 0 is the control lane
/// (planning, faults), track 1 the network lane (transfers landing on this
/// node), and `2 + device * 16 + stream` one lane per device stream.
///
/// On a shared fleet the node space is further striped per tenant
/// session: session `s` occupies nodes `[s * SESSION_LANE_STRIDE,
/// (s + 1) * SESSION_LANE_STRIDE)` so two sessions' controller (or
/// worker-0) streams never merge into one Perfetto lane. Session 0 is
/// the untagged standalone deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lane {
    /// Node the event belongs to (0 = controller, `i + 1` = worker `i`),
    /// offset by `session * SESSION_LANE_STRIDE` on shared fleets.
    pub node: usize,
    /// Track within the node (0 control, 1 network, 2+ device streams).
    pub track: usize,
}

/// Nodes reserved per tenant session in the [`Lane`] pid space: lanes of
/// session `s` live at `node = s * SESSION_LANE_STRIDE + local_node`.
/// 4096 nodes per session is far beyond any real fleet.
pub const SESSION_LANE_STRIDE: usize = 1 << 12;

impl Lane {
    /// The controller's control lane.
    pub const CONTROLLER: Lane = Lane { node: 0, track: 0 };

    /// Control lane of an arbitrary node.
    pub fn control(node: usize) -> Lane {
        Lane { node, track: 0 }
    }

    /// Network lane of a node (transfers arriving there).
    pub fn network(node: usize) -> Lane {
        Lane { node, track: 1 }
    }

    /// Execution lane for a device stream on a node.
    pub fn stream(node: usize, device: usize, stream: usize) -> Lane {
        Lane {
            node,
            track: 2 + device * 16 + stream,
        }
    }

    /// This lane moved into `session`'s stripe of the node space (no-op
    /// for session 0, the standalone namespace).
    pub fn for_session(self, session: u64) -> Lane {
        Lane {
            node: self.local_node() + session as usize * SESSION_LANE_STRIDE,
            track: self.track,
        }
    }

    /// The tenant session this lane belongs to (0 = standalone).
    pub fn session(self) -> u64 {
        (self.node / SESSION_LANE_STRIDE) as u64
    }

    /// The node index within the owning session's stripe.
    pub fn local_node(self) -> usize {
        self.node % SESSION_LANE_STRIDE
    }

    /// Human label for the track, used as the Chrome thread name.
    /// Session-striped lanes carry an `s<id>` prefix so merged
    /// multi-tenant traces stay distinguishable track by track.
    pub fn track_name(self) -> String {
        let base = match self.track {
            0 => "control".to_string(),
            1 => "network".to_string(),
            t => {
                let t = t - 2;
                format!("gpu{} stream{}", t / 16, t % 16)
            }
        };
        match self.session() {
            0 => base,
            s => format!("s{s} {base}"),
        }
    }
}

/// A borrowed argument value attached to spans and instants.
///
/// Borrowed so the disabled path never allocates; recorders that retain
/// events (like [`ChromeTracer`]) copy what they need.
#[derive(Debug, Clone, Copy)]
pub enum ArgValue<'a> {
    /// Unsigned integer payload.
    U64(u64),
    /// Signed integer payload.
    I64(i64),
    /// Floating payload.
    F64(f64),
    /// String payload.
    Str(&'a str),
}

impl ArgValue<'_> {
    fn to_json(self) -> Value {
        match self {
            ArgValue::U64(v) => Value::U64(v),
            ArgValue::I64(v) => Value::I64(v),
            ArgValue::F64(v) => Value::F64(v),
            ArgValue::Str(v) => Value::String(v.to_string()),
        }
    }
}

/// A completed duration event (Chrome `ph: "X"`).
#[derive(Debug, Clone, Copy)]
pub struct SpanEvent<'a> {
    /// Display name (kernel name, `"plan"`, `"transfer"`, ...).
    pub name: &'a str,
    /// Category: `"plan"`, `"transfer"`, `"execute"`, `"host"`, `"fault"`.
    pub cat: &'static str,
    /// Lane the span ran on.
    pub lane: Lane,
    /// Start, nanoseconds since the run origin.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Structured payload.
    pub args: &'a [(&'static str, ArgValue<'a>)],
}

/// The event sink. All methods default to no-ops so recorders implement
/// only what they need; `enabled` gates payload construction at call
/// sites.
pub trait Recorder: Send {
    /// Whether this recorder wants events at all. Call sites use this to
    /// skip building dynamic names/args.
    fn enabled(&self) -> bool {
        true
    }

    /// A completed duration span.
    fn span(&mut self, span: &SpanEvent<'_>) {
        let _ = span;
    }

    /// A point-in-time event (Chrome `ph: "i"`).
    fn instant(
        &mut self,
        name: &str,
        lane: Lane,
        at_ns: u64,
        args: &[(&'static str, ArgValue<'_>)],
    ) {
        let _ = (name, lane, at_ns, args);
    }

    /// A cumulative counter sample (monotonically increasing value).
    fn counter(&mut self, name: &'static str, lane: Lane, at_ns: u64, value: f64) {
        let _ = (name, lane, at_ns, value);
    }

    /// A sampled level (may go up and down).
    fn gauge(&mut self, name: &'static str, lane: Lane, at_ns: u64, value: f64) {
        let _ = (name, lane, at_ns, value);
    }

    /// A timestamp-free structured event from a component with no clock
    /// (the [`crate::Planner`] emits these). [`ChromeTracer`] stamps them
    /// with the latest timestamp it has seen.
    fn mark(&mut self, name: &'static str, args: &[(&'static str, ArgValue<'_>)]) {
        let _ = (name, args);
    }
}

/// A cheap, cloneable handle to an optional shared [`Recorder`].
///
/// `Telemetry::off()` (the default) holds nothing: every method is a
/// single `None` check with no allocation, no lock, no virtual call —
/// the zero-overhead fast path the differential tests pin down. The
/// handle is `Clone` so the [`crate::Planner`] (itself `Clone`) and both
/// runtimes can share one recorder.
#[derive(Clone, Default)]
pub struct Telemetry {
    rec: Option<Arc<Mutex<dyn Recorder>>>,
}

impl fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.rec.is_some())
            .finish()
    }
}

impl Telemetry {
    /// The disabled handle (no recorder, zero-allocation fast path).
    pub fn off() -> Self {
        Telemetry::default()
    }

    /// Wrap an owned recorder. Use [`Shared`] instead when the caller
    /// needs the recorder back after the run.
    pub fn new(rec: impl Recorder + 'static) -> Self {
        Telemetry {
            rec: Some(Arc::new(Mutex::new(rec))),
        }
    }

    /// Attach an already-shared recorder.
    pub fn from_shared(rec: Arc<Mutex<dyn Recorder>>) -> Self {
        Telemetry { rec: Some(rec) }
    }

    /// Whether a recorder is attached *and* it wants events. Gate dynamic
    /// payload construction on this.
    pub fn enabled(&self) -> bool {
        match &self.rec {
            Some(r) => r.lock().expect("recorder poisoned").enabled(),
            None => false,
        }
    }

    /// Record a completed span.
    pub fn span(&self, span: &SpanEvent<'_>) {
        if let Some(r) = &self.rec {
            r.lock().expect("recorder poisoned").span(span);
        }
    }

    /// Record an instant event.
    pub fn instant(
        &self,
        name: &str,
        lane: Lane,
        at_ns: u64,
        args: &[(&'static str, ArgValue<'_>)],
    ) {
        if let Some(r) = &self.rec {
            r.lock()
                .expect("recorder poisoned")
                .instant(name, lane, at_ns, args);
        }
    }

    /// Record a counter sample.
    pub fn counter(&self, name: &'static str, lane: Lane, at_ns: u64, value: f64) {
        if let Some(r) = &self.rec {
            r.lock()
                .expect("recorder poisoned")
                .counter(name, lane, at_ns, value);
        }
    }

    /// Record a gauge sample.
    pub fn gauge(&self, name: &'static str, lane: Lane, at_ns: u64, value: f64) {
        if let Some(r) = &self.rec {
            r.lock()
                .expect("recorder poisoned")
                .gauge(name, lane, at_ns, value);
        }
    }

    /// Record a timestamp-free mark (see [`Recorder::mark`]).
    pub fn mark(&self, name: &'static str, args: &[(&'static str, ArgValue<'_>)]) {
        if let Some(r) = &self.rec {
            r.lock().expect("recorder poisoned").mark(name, args);
        }
    }

    /// Record a [`SchedEvent`] as a structured instant on the controller
    /// lane. Shared by both runtimes so chaos traces read identically.
    pub fn sched_event(&self, event: &SchedEvent, at_ns: u64) {
        if !self.enabled() {
            return;
        }
        self.instant(
            event.name(),
            Lane::CONTROLLER,
            at_ns,
            &sched_event_args(event),
        );
    }

    /// A handle that relocates every event into `session`'s stripe of
    /// the lane space before forwarding to the same recorder (see
    /// [`SESSION_LANE_STRIDE`]). Multi-tenant daemons hand each session
    /// runtime `tracer.telemetry().for_session(sid)` so one shared trace
    /// keeps per-tenant lanes apart. Session 0 is the identity.
    pub fn for_session(&self, session: u64) -> Telemetry {
        if session == 0 {
            return self.clone();
        }
        match &self.rec {
            Some(rec) => Telemetry::new(SessionLanes {
                inner: Arc::clone(rec),
                session,
                last_ns: 0,
            }),
            None => Telemetry::off(),
        }
    }
}

/// A [`Recorder`] adaptor moving every event into one session's lane
/// stripe before forwarding to a shared recorder. Timestamp-free marks
/// are stamped with the latest timestamp seen *by this session* and
/// pinned to the session's controller lane, so co-tenant marks never
/// collapse onto the shared `pid 0` lane.
struct SessionLanes {
    inner: Arc<Mutex<dyn Recorder>>,
    session: u64,
    last_ns: u64,
}

impl Recorder for SessionLanes {
    fn enabled(&self) -> bool {
        self.inner.lock().expect("recorder poisoned").enabled()
    }

    fn span(&mut self, span: &SpanEvent<'_>) {
        self.last_ns = self.last_ns.max(span.start_ns + span.dur_ns);
        let mut moved = *span;
        moved.lane = span.lane.for_session(self.session);
        self.inner.lock().expect("recorder poisoned").span(&moved);
    }

    fn instant(
        &mut self,
        name: &str,
        lane: Lane,
        at_ns: u64,
        args: &[(&'static str, ArgValue<'_>)],
    ) {
        self.last_ns = self.last_ns.max(at_ns);
        self.inner.lock().expect("recorder poisoned").instant(
            name,
            lane.for_session(self.session),
            at_ns,
            args,
        );
    }

    fn counter(&mut self, name: &'static str, lane: Lane, at_ns: u64, value: f64) {
        self.last_ns = self.last_ns.max(at_ns);
        self.inner.lock().expect("recorder poisoned").counter(
            name,
            lane.for_session(self.session),
            at_ns,
            value,
        );
    }

    fn gauge(&mut self, name: &'static str, lane: Lane, at_ns: u64, value: f64) {
        self.last_ns = self.last_ns.max(at_ns);
        self.inner.lock().expect("recorder poisoned").gauge(
            name,
            lane.for_session(self.session),
            at_ns,
            value,
        );
    }

    fn mark(&mut self, name: &'static str, args: &[(&'static str, ArgValue<'_>)]) {
        let lane = Lane::CONTROLLER.for_session(self.session);
        let at = self.last_ns;
        self.inner
            .lock()
            .expect("recorder poisoned")
            .instant(name, lane, at, args);
    }
}

/// A [`SchedEvent`]'s fields as instant-event args (its name is
/// [`SchedEvent::name`]).
fn sched_event_args(event: &SchedEvent) -> Vec<(&'static str, ArgValue<'_>)> {
    match event {
        SchedEvent::Fault {
            at_ce,
            worker,
            kind,
            epoch,
        } => vec![
            ("at_ce", ArgValue::U64(*at_ce as u64)),
            ("worker", ArgValue::I64(worker.map_or(-1, |w| w as i64))),
            ("kind", ArgValue::Str(kind)),
            ("epoch", ArgValue::U64(*epoch)),
        ],
        SchedEvent::Retry {
            at_ce,
            worker,
            attempt,
            backoff,
        } => vec![
            ("at_ce", ArgValue::U64(*at_ce as u64)),
            ("worker", ArgValue::U64(*worker as u64)),
            ("attempt", ArgValue::U64(*attempt as u64)),
            ("backoff_us", ArgValue::F64(backoff.as_micros_f64())),
        ],
        SchedEvent::Quarantine {
            worker,
            at_ce,
            lost,
            epoch,
        } => vec![
            ("worker", ArgValue::U64(*worker as u64)),
            ("at_ce", ArgValue::U64(*at_ce as u64)),
            ("lost_arrays", ArgValue::U64(lost.len() as u64)),
            ("epoch", ArgValue::U64(*epoch)),
        ],
        SchedEvent::Replay { dag_index, epoch } => vec![
            ("dag_index", ArgValue::U64(*dag_index as u64)),
            ("epoch", ArgValue::U64(*epoch)),
        ],
        SchedEvent::Reassign {
            dag_index,
            from,
            to,
            epoch,
        } => vec![
            ("dag_index", ArgValue::U64(*dag_index as u64)),
            ("from", ArgValue::U64(*from as u64)),
            ("to", ArgValue::U64(*to as u64)),
            ("epoch", ArgValue::U64(*epoch)),
        ],
        SchedEvent::TransferDropped { at_ce, array } => vec![
            ("at_ce", ArgValue::U64(*at_ce as u64)),
            ("array", ArgValue::U64(array.0)),
        ],
        SchedEvent::TransferDelayed {
            at_ce,
            array,
            delay,
        } => vec![
            ("at_ce", ArgValue::U64(*at_ce as u64)),
            ("array", ArgValue::U64(array.0)),
            ("delay_us", ArgValue::F64(delay.as_micros_f64())),
        ],
        SchedEvent::TransferRedriven { at_ce } => vec![("at_ce", ArgValue::U64(*at_ce as u64))],
        SchedEvent::SpawnFailed { worker } => vec![("worker", ArgValue::U64(*worker as u64))],
        SchedEvent::Suspected { worker, epoch } => vec![
            ("worker", ArgValue::U64(*worker as u64)),
            ("epoch", ArgValue::U64(*epoch)),
        ],
        SchedEvent::Reinstated { worker, epoch } => vec![
            ("worker", ArgValue::U64(*worker as u64)),
            ("epoch", ArgValue::U64(*epoch)),
        ],
        SchedEvent::Rejoined { worker, epoch } => vec![
            ("worker", ArgValue::U64(*worker as u64)),
            ("epoch", ArgValue::U64(*epoch)),
        ],
        SchedEvent::Joined { worker, epoch } => vec![
            ("worker", ArgValue::U64(*worker as u64)),
            ("epoch", ArgValue::U64(*epoch)),
        ],
        SchedEvent::Departed {
            worker,
            rebalanced,
            epoch,
        } => vec![
            ("worker", ArgValue::U64(*worker as u64)),
            ("rebalanced", ArgValue::U64(*rebalanced as u64)),
            ("epoch", ArgValue::U64(*epoch)),
        ],
    }
}

/// Keep a typed handle to a recorder that is also attached to a runtime.
///
/// [`Telemetry`] type-erases its recorder, so a caller that wants the
/// concrete exporter back after the run (e.g. to write the trace file)
/// wraps it in `Shared` first:
///
/// ```
/// use grout_core::telemetry::{ChromeTracer, Shared};
/// let tracer = Shared::new(ChromeTracer::new());
/// let telemetry = tracer.telemetry();
/// // ... attach `telemetry` to a runtime, run ...
/// let json = tracer.lock().to_string_pretty();
/// # let _ = json;
/// ```
pub struct Shared<R: Recorder + 'static>(Arc<Mutex<R>>);

impl<R: Recorder + 'static> Shared<R> {
    /// Share a recorder.
    pub fn new(rec: R) -> Self {
        Shared(Arc::new(Mutex::new(rec)))
    }

    /// A [`Telemetry`] handle feeding this recorder.
    pub fn telemetry(&self) -> Telemetry {
        Telemetry::from_shared(self.0.clone() as Arc<Mutex<dyn Recorder>>)
    }

    /// Lock the recorder for direct access (export, inspection).
    pub fn lock(&self) -> MutexGuard<'_, R> {
        self.0.lock().expect("recorder poisoned")
    }
}

impl<R: Recorder + 'static> Clone for Shared<R> {
    fn clone(&self) -> Self {
        Shared(self.0.clone())
    }
}

impl<R: Recorder + 'static> fmt::Debug for Shared<R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Shared").finish()
    }
}

// ---------------------------------------------------------------------------
// Chrome trace_event exporter
// ---------------------------------------------------------------------------

/// A [`Recorder`] that accumulates Chrome `trace_event` JSON.
///
/// Output follows the `{"traceEvents": [...]}` object format: complete
/// spans are `ph: "X"`, instants `ph: "i"` (scope `"p"`), counters and
/// gauges `ph: "C"`, and process/thread name metadata (`ph: "M"`) gives
/// every node and stream a named lane. Timestamps are microseconds as
/// required by the format; nanosecond inputs are divided by 1000.0.
#[derive(Debug, Default)]
pub struct ChromeTracer {
    events: Vec<Value>,
    lanes: Vec<Lane>,
    last_ns: u64,
}

impl ChromeTracer {
    /// An empty tracer.
    pub fn new() -> Self {
        ChromeTracer::default()
    }

    /// Number of events recorded so far (excluding metadata).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    fn see_lane(&mut self, lane: Lane) {
        if let Err(i) = self.lanes.binary_search(&lane) {
            self.lanes.insert(i, lane);
        }
    }

    fn base_event(name: &str, ph: &str, lane: Lane, ts_ns: u64) -> Vec<(String, Value)> {
        vec![
            ("name".to_string(), Value::String(name.to_string())),
            ("ph".to_string(), Value::String(ph.to_string())),
            ("ts".to_string(), Value::F64(ts_ns as f64 / 1000.0)),
            ("pid".to_string(), Value::U64(lane.node as u64)),
            ("tid".to_string(), Value::U64(lane.track as u64)),
        ]
    }

    fn args_object(args: &[(&'static str, ArgValue<'_>)]) -> Value {
        Value::Object(
            args.iter()
                .map(|(k, v)| (k.to_string(), v.to_json()))
                .collect(),
        )
    }

    /// The full trace as a JSON value (`{"traceEvents": [...]}`).
    pub fn to_json_value(&self) -> Value {
        let mut events: Vec<Value> = Vec::with_capacity(self.events.len() + 2 * self.lanes.len());
        for lane in &self.lanes {
            // Decompose the session stripe so multi-tenant traces read
            // "s2 worker 0" instead of an anonymous huge pid.
            let base = if lane.local_node() == 0 {
                "controller".to_string()
            } else {
                format!("worker {}", lane.local_node() - 1)
            };
            let process = match lane.session() {
                0 => base,
                s => format!("s{s} {base}"),
            };
            events.push(Value::Object(vec![
                (
                    "name".to_string(),
                    Value::String("process_name".to_string()),
                ),
                ("ph".to_string(), Value::String("M".to_string())),
                ("pid".to_string(), Value::U64(lane.node as u64)),
                ("tid".to_string(), Value::U64(lane.track as u64)),
                (
                    "args".to_string(),
                    Value::Object(vec![("name".to_string(), Value::String(process))]),
                ),
            ]));
            events.push(Value::Object(vec![
                ("name".to_string(), Value::String("thread_name".to_string())),
                ("ph".to_string(), Value::String("M".to_string())),
                ("pid".to_string(), Value::U64(lane.node as u64)),
                ("tid".to_string(), Value::U64(lane.track as u64)),
                (
                    "args".to_string(),
                    Value::Object(vec![("name".to_string(), Value::String(lane.track_name()))]),
                ),
            ]));
        }
        events.extend(self.events.iter().cloned());
        Value::Object(vec![
            ("traceEvents".to_string(), Value::Array(events)),
            (
                "displayTimeUnit".to_string(),
                Value::String("ms".to_string()),
            ),
        ])
    }

    /// Render the trace as compact JSON.
    pub fn to_json_string(&self) -> String {
        serde_json::to_string(&self.to_json_value()).expect("render trace")
    }

    /// Render the trace as pretty-printed JSON.
    pub fn to_string_pretty(&self) -> String {
        serde_json::to_string_pretty(&self.to_json_value()).expect("render trace")
    }

    /// Write the trace to a file (load it in `chrome://tracing` or
    /// Perfetto).
    pub fn write_to(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json_string())
    }
}

impl Recorder for ChromeTracer {
    fn span(&mut self, span: &SpanEvent<'_>) {
        self.see_lane(span.lane);
        self.last_ns = self.last_ns.max(span.start_ns + span.dur_ns);
        let mut ev = Self::base_event(span.name, "X", span.lane, span.start_ns);
        ev.push(("dur".to_string(), Value::F64(span.dur_ns as f64 / 1000.0)));
        ev.push(("cat".to_string(), Value::String(span.cat.to_string())));
        if !span.args.is_empty() {
            ev.push(("args".to_string(), Self::args_object(span.args)));
        }
        self.events.push(Value::Object(ev));
    }

    fn instant(
        &mut self,
        name: &str,
        lane: Lane,
        at_ns: u64,
        args: &[(&'static str, ArgValue<'_>)],
    ) {
        self.see_lane(lane);
        self.last_ns = self.last_ns.max(at_ns);
        let mut ev = Self::base_event(name, "i", lane, at_ns);
        ev.push(("s".to_string(), Value::String("p".to_string())));
        if !args.is_empty() {
            ev.push(("args".to_string(), Self::args_object(args)));
        }
        self.events.push(Value::Object(ev));
    }

    fn counter(&mut self, name: &'static str, lane: Lane, at_ns: u64, value: f64) {
        self.see_lane(lane);
        self.last_ns = self.last_ns.max(at_ns);
        let mut ev = Self::base_event(name, "C", lane, at_ns);
        ev.push((
            "args".to_string(),
            Value::Object(vec![("value".to_string(), Value::F64(value))]),
        ));
        self.events.push(Value::Object(ev));
    }

    fn gauge(&mut self, name: &'static str, lane: Lane, at_ns: u64, value: f64) {
        self.counter(name, lane, at_ns, value);
    }

    fn mark(&mut self, name: &'static str, args: &[(&'static str, ArgValue<'_>)]) {
        let at = self.last_ns;
        self.instant(name, Lane::CONTROLLER, at, args);
    }
}

// ---------------------------------------------------------------------------
// Cross-node clock alignment
// ---------------------------------------------------------------------------

/// Nanoseconds on a process-wide monotonic clock (anchored at first use).
///
/// Worker-side spans are stamped with this clock and shifted into the
/// controller's time domain by [`ClockSync`] at merge time. The
/// in-process transport shares the process clock, so its offset is
/// exactly zero and the same merge path applies unchanged.
pub fn monotonic_ns() -> u64 {
    use std::sync::OnceLock;
    static EPOCH: OnceLock<std::time::Instant> = OnceLock::new();
    EPOCH
        .get_or_init(std::time::Instant::now)
        .elapsed()
        .as_nanos() as u64
}

/// NTP-style running estimate of a remote clock's offset (and drift)
/// relative to the local monotonic clock.
///
/// Each heartbeat exchange yields one sample: the worker stamps `t1`
/// (its clock) on the ping, the controller stamps `t2` (its clock) on
/// receipt, and the worker stamps `t4` (its clock) on the pong. The
/// midpoint estimate `offset = t2 − (t1 + t4)/2` maps worker time into
/// controller time with error bounded by half the round-trip — exact
/// under symmetric path latency. Samples taken while the link is
/// congested (rtt ≫ the best observed rtt) carry a much looser bound
/// and are rejected once enough clean samples exist; a least-squares
/// fit over (local time, offset) tracks slow drift between the two
/// oscillators.
#[derive(Debug, Clone, Default)]
pub struct ClockSync {
    n: u64,
    min_rtt_ns: u64,
    /// Local-time anchor of the first sample (keeps the regression sums
    /// small).
    t0_ns: u64,
    sum_t: f64,
    sum_o: f64,
    sum_tt: f64,
    sum_to: f64,
}

impl ClockSync {
    /// An estimator with no samples (offset 0 until the first one).
    pub fn new() -> Self {
        ClockSync::default()
    }

    /// Fold in one exchange: `at_ns` is the local receipt time of the
    /// sample, `offset_ns` the midpoint estimate, `rtt_ns` the measured
    /// round-trip.
    pub fn observe(&mut self, at_ns: u64, offset_ns: i64, rtt_ns: u64) {
        if self.n == 0 {
            self.t0_ns = at_ns;
            self.min_rtt_ns = rtt_ns;
        }
        self.min_rtt_ns = self.min_rtt_ns.min(rtt_ns);
        // A queue-delayed exchange says little about the offset (the
        // error bound is rtt/2): ignore it once enough clean samples
        // exist to keep estimating without it.
        if self.n >= 8 && rtt_ns > self.min_rtt_ns.saturating_mul(3) {
            return;
        }
        let t = at_ns.saturating_sub(self.t0_ns) as f64;
        let o = offset_ns as f64;
        self.n += 1;
        self.sum_t += t;
        self.sum_o += o;
        self.sum_tt += t * t;
        self.sum_to += t * o;
    }

    /// Accepted samples so far.
    pub fn samples(&self) -> u64 {
        self.n
    }

    /// Estimated drift in offset-nanoseconds per local nanosecond,
    /// clamped to ±1e-3: real oscillators stay within ~100 ppm, so
    /// anything larger is a fit artifact from a short baseline.
    pub fn drift(&self) -> f64 {
        if self.n < 2 {
            return 0.0;
        }
        let n = self.n as f64;
        let var = self.sum_tt - self.sum_t * self.sum_t / n;
        if var <= 1e3 {
            return 0.0; // all samples within ~32 ns: no usable baseline
        }
        let slope = (self.sum_to - self.sum_t * self.sum_o / n) / var;
        slope.clamp(-1e-3, 1e-3)
    }

    /// The estimated offset at local time `at_ns` (mean + drift
    /// extrapolation). Add this to a remote timestamp to land it in the
    /// local clock domain. 0 with no samples.
    pub fn offset_at(&self, at_ns: u64) -> i64 {
        if self.n == 0 {
            return 0;
        }
        let n = self.n as f64;
        let mean_t = self.sum_t / n;
        let mean_o = self.sum_o / n;
        let t = at_ns.saturating_sub(self.t0_ns) as f64;
        (mean_o + self.drift() * (t - mean_t)).round() as i64
    }

    /// Worst-case error of one clean sample: half the best observed
    /// round-trip (path asymmetry can hide up to that much one-way
    /// latency).
    pub fn error_bound_ns(&self) -> u64 {
        self.min_rtt_ns / 2
    }
}

/// Enforces monotone, non-overlapping span starts per [`Lane`] when
/// merging remote spans whose clock mapping is only accurate to about
/// half a round-trip: a span whose shifted start would land before the
/// end of the previous span on the same lane is clamped forward, so
/// merged Perfetto timelines never show negative gaps or overlaps
/// within a lane.
#[derive(Debug, Clone, Default)]
pub struct LaneAligner {
    watermarks: std::collections::HashMap<Lane, u64>,
}

impl LaneAligner {
    /// An aligner with no history.
    pub fn new() -> Self {
        LaneAligner::default()
    }

    /// Clamp `start_ns` so it never precedes the lane's watermark, then
    /// advance the watermark past the span. Returns the aligned start.
    pub fn align(&mut self, lane: Lane, start_ns: u64, dur_ns: u64) -> u64 {
        let w = self.watermarks.entry(lane).or_insert(0);
        let start = start_ns.max(*w);
        *w = start.saturating_add(dur_ns);
        start
    }
}

// ---------------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------------

/// Count/sum/min/max aggregate over nanosecond latencies, plus a
/// power-of-two histogram for approximate percentiles.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencyStat {
    /// Number of samples.
    pub count: u64,
    /// Sum of all samples, nanoseconds.
    pub sum_ns: u64,
    /// Smallest sample (0 when empty).
    pub min_ns: u64,
    /// Largest sample.
    pub max_ns: u64,
    /// Log2 histogram: `buckets[i]` counts samples in `[2^i, 2^(i+1))`
    /// ns (bucket 0 also takes 0 ns; bucket 31 takes everything ≥ 2^31
    /// ns ≈ 2.1 s).
    pub buckets: [u64; 32],
}

impl LatencyStat {
    /// Fold one sample in.
    pub fn record(&mut self, ns: u64) {
        if self.count == 0 {
            self.min_ns = ns;
            self.max_ns = ns;
        } else {
            self.min_ns = self.min_ns.min(ns);
            self.max_ns = self.max_ns.max(ns);
        }
        self.count += 1;
        self.sum_ns += ns;
        let bucket = (63 - u64::leading_zeros(ns.max(1)) as usize).min(31);
        self.buckets[bucket] += 1;
    }

    /// Arithmetic mean in nanoseconds (0.0 when empty — never NaN).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64
        }
    }

    /// Approximate percentile from the log2 histogram: the midpoint of
    /// the bucket holding the `q`-quantile sample, clamped into the
    /// observed `[min, max]` range. Exact at the extremes and 0 when no
    /// samples were recorded — never NaN.
    pub fn percentile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        if q <= 0.0 {
            return self.min_ns;
        }
        if q >= 1.0 {
            return self.max_ns;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                let mid = if i == 0 {
                    1
                } else {
                    (1u64 << i) + (1u64 << (i - 1))
                };
                return mid.clamp(self.min_ns, self.max_ns);
            }
        }
        self.max_ns
    }
}

/// Per-peer wire observability snapshot: frames/bytes both directions,
/// the heartbeat RTT histogram, the current clock-offset estimate and
/// telemetry-batch accounting. Produced by `Transport::wire_stats`
/// implementations and surfaced through [`Metrics::snapshot`] and
/// `grout-run --stats`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PeerWireStats {
    /// Frames written to this peer.
    pub frames_sent: u64,
    /// Bytes written to this peer (payload + length prefix).
    pub bytes_sent: u64,
    /// Frames read from this peer.
    pub frames_recv: u64,
    /// Bytes read from this peer (payload + length prefix).
    pub bytes_recv: u64,
    /// Heartbeat round-trip-time histogram (count 0 on transports with
    /// no timed heartbeat exchange — the in-process mesh).
    pub hb_rtt: LatencyStat,
    /// Estimated clock offset: add to peer timestamps to land them in
    /// the controller's clock domain (0 in-process).
    pub clock_offset_ns: i64,
    /// Telemetry batches received from this peer.
    pub telemetry_batches: u64,
    /// Spans across those batches.
    pub telemetry_spans: u64,
    /// Peer-reported span backlog at its most recent flush (gauge).
    pub telemetry_backlog: u64,
    /// Session resumes: times a severed or partitioned connection was
    /// re-established and its unacked frames replayed without the planner
    /// noticing (0 on transports without the resume layer).
    pub resumes: u64,
}

/// The always-on metrics registry. Both runtimes own one directly and
/// update it with plain field access — no locks, no indirection — so its
/// cost is a handful of integer adds per CE.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Metrics {
    /// Planner latency per CE (virtual for the sim, wall for local).
    pub plan: LatencyStat,
    /// Wait between dispatch and all inputs/parents ready (sim only).
    pub queue: LatencyStat,
    /// Per-movement transfer latency.
    pub transfer: LatencyStat,
    /// Kernel/host execution latency per CE.
    pub execute: LatencyStat,
    /// Payload bytes moved via direct controller sends.
    pub controller_send_bytes: u64,
    /// Payload bytes moved peer-to-peer between workers.
    pub p2p_bytes: u64,
    /// Payload bytes moved via two-hop controller staging.
    pub staged_bytes: u64,
    /// Scheduling events counted by kind, indexed by
    /// [`SchedEvent::index`] (names in [`SchedEvent::NAMES`]).
    pub events: [u64; SchedEvent::NAMES.len()],
    /// Kernels completed per worker.
    pub kernels_by_worker: Vec<u64>,
    /// Busy nanoseconds per worker (kernel occupancy).
    pub busy_ns_by_worker: Vec<u64>,
    /// Where the link-bandwidth matrix came from: `""` (none recorded),
    /// `"uniform"` (modeling fallback), `"modeled"` (net-sim probe) or
    /// `"measured"` (transport probe round).
    pub bw_source: String,
    /// Transport carrying the transfer bytes above (`"channel"` for the
    /// in-process mesh, `"tcp"` for `grout-net`, `"sim"` for the
    /// simulator) — the per-run half of the local-channel vs TCP split.
    pub transport: String,
    /// The link-bandwidth matrix itself, `bw_bps[src][dst]` in integer
    /// bytes/sec (truncated from f64 so `Metrics` stays `Eq`; endpoint 0
    /// is the controller, endpoint `i + 1` worker `i`). Lets one artifact
    /// carry measured (TCP) and modeled (net-sim) matrices side by side
    /// for comparison.
    pub bw_bps: Vec<Vec<u64>>,
    /// Per-peer wire counters, heartbeat RTT histograms and clock
    /// offsets, indexed by worker. Empty until the runtime snapshots its
    /// transport (`LocalRuntime::refresh_wire_metrics`, called at every
    /// `synchronize`); always empty for the simulator.
    pub wire: Vec<PeerWireStats>,
    /// The tenant session this runtime's view belongs to when it runs on
    /// a shared fleet behind a `SessionTransport` (`None` ⇒ standalone
    /// deployment, whose snapshot carries no `session` label).
    pub session: Option<u64>,
}

impl Metrics {
    /// A registry sized for `workers` workers.
    pub fn with_workers(workers: usize) -> Self {
        Metrics {
            kernels_by_worker: vec![0; workers],
            busy_ns_by_worker: vec![0; workers],
            ..Metrics::default()
        }
    }

    /// Extends the per-worker vectors for an elastic join. Indices are
    /// stable (the worker set never shrinks), so existing counters keep
    /// their meaning.
    pub fn grow_workers(&mut self, workers: usize) {
        if workers > self.kernels_by_worker.len() {
            self.kernels_by_worker.resize(workers, 0);
            self.busy_ns_by_worker.resize(workers, 0);
        }
    }

    /// Account payload bytes moved under `kind`.
    pub fn record_movement(&mut self, kind: MovementKind, payload_bytes: u64) {
        match kind {
            MovementKind::ControllerSend => self.controller_send_bytes += payload_bytes,
            MovementKind::P2p => self.p2p_bytes += payload_bytes,
            MovementKind::Staged => self.staged_bytes += payload_bytes,
        }
    }

    /// Account one kernel completion on `worker` lasting `busy_ns`.
    pub fn record_kernel(&mut self, worker: usize, busy_ns: u64) {
        if worker < self.kernels_by_worker.len() {
            self.kernels_by_worker[worker] += 1;
            self.busy_ns_by_worker[worker] += busy_ns;
        }
    }

    /// Bump the counter matching a [`SchedEvent`].
    pub fn record_event(&mut self, event: &SchedEvent) {
        self.events[event.index()] += 1;
    }

    /// Events counted of the kind named `kind` (one of
    /// [`SchedEvent::NAMES`]; any other name panics).
    pub fn event_count(&self, kind: &str) -> u64 {
        let i = SchedEvent::NAMES.iter().position(|n| *n == kind);
        self.events[i.unwrap_or_else(|| panic!("no SchedEvent kind `{kind}`"))]
    }

    /// Record the link-bandwidth matrix the planner prices transfers
    /// with, plus its provenance (`source`: `"uniform"`, `"modeled"` or
    /// `"measured"`) and the transport label carrying the run's bytes.
    pub fn set_bandwidth(&mut self, source: &str, transport: &str, links: &LinkMatrix) {
        self.bw_source = source.to_string();
        self.transport = transport.to_string();
        let n = links.endpoints();
        self.bw_bps = (0..n)
            .map(|src| {
                (0..n)
                    .map(|dst| links.raw(src, dst).max(0.0) as u64)
                    .collect()
            })
            .collect();
    }

    /// Total payload bytes moved across all movement kinds.
    pub fn payload_bytes(&self) -> u64 {
        self.controller_send_bytes + self.p2p_bytes + self.staged_bytes
    }

    /// Total kernels across workers.
    pub fn total_kernels(&self) -> u64 {
        self.kernels_by_worker.iter().sum()
    }
}

// ---------------------------------------------------------------------------
// Labeled snapshots and the Prometheus text exposition
// ---------------------------------------------------------------------------

/// Whether a metric family only ever goes up ([`MetricKind::Counter`]) or
/// samples a level ([`MetricKind::Gauge`]) — the `# TYPE` line of the
/// exposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically increasing (`_total` families).
    Counter,
    /// A sampled level.
    Gauge,
}

impl MetricKind {
    fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
        }
    }
}

/// One metric family: a name, a kind, a help line and its labeled
/// samples. Label sets are ordered `(key, value)` pairs.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricFamily {
    /// The exposition name (`grout_…`).
    pub name: String,
    /// Counter or gauge.
    pub kind: MetricKind,
    /// The `# HELP` line.
    pub help: String,
    /// `(labels, value)` samples. Values are always finite (NaN and
    /// infinities are coerced to 0 at insertion).
    pub samples: Vec<(Vec<(String, String)>, f64)>,
}

/// A point-in-time, label-aware view of one or more [`Metrics`]
/// registries, rendered as the Prometheus text exposition (version
/// 0.0.4) by [`MetricsSnapshot::to_prometheus`]. Snapshots from several
/// sessions [`merge`](MetricsSnapshot::merge) into one exposition; the
/// per-session/per-worker/per-policy dimensions ride as labels.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    families: Vec<MetricFamily>,
}

impl MetricsSnapshot {
    /// An empty snapshot.
    pub fn new() -> Self {
        MetricsSnapshot::default()
    }

    /// Appends one sample, creating the family on first use. Non-finite
    /// values are coerced to 0 — the exposition never carries NaN.
    pub fn push(
        &mut self,
        name: &str,
        kind: MetricKind,
        help: &str,
        labels: &[(&str, &str)],
        value: f64,
    ) {
        let value = if value.is_finite() { value } else { 0.0 };
        let labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        match self.families.iter_mut().find(|f| f.name == name) {
            Some(f) => f.samples.push((labels, value)),
            None => self.families.push(MetricFamily {
                name: name.to_string(),
                kind,
                help: help.to_string(),
                samples: vec![(labels, value)],
            }),
        }
    }

    /// Folds another snapshot in, family by family (samples append in
    /// order; the first snapshot's kind/help win on a name collision).
    pub fn merge(&mut self, other: MetricsSnapshot) {
        for fam in other.families {
            match self.families.iter_mut().find(|f| f.name == fam.name) {
                Some(f) => f.samples.extend(fam.samples),
                None => self.families.push(fam),
            }
        }
    }

    /// The families recorded so far.
    pub fn families(&self) -> &[MetricFamily] {
        &self.families
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.families.is_empty()
    }

    /// Renders the Prometheus text exposition: one `# HELP`/`# TYPE`
    /// pair per family, then `name{labels} value` lines. Label values
    /// are escaped per the format (`\\`, `\"`, `\n`); values are finite
    /// by construction.
    pub fn to_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for fam in &self.families {
            let _ = writeln!(out, "# HELP {} {}", fam.name, fam.help);
            let _ = writeln!(out, "# TYPE {} {}", fam.name, fam.kind.as_str());
            for (labels, value) in &fam.samples {
                out.push_str(&fam.name);
                if !labels.is_empty() {
                    out.push('{');
                    for (i, (k, v)) in labels.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        out.push_str(k);
                        out.push_str("=\"");
                        for c in v.chars() {
                            match c {
                                '\\' => out.push_str("\\\\"),
                                '"' => out.push_str("\\\""),
                                '\n' => out.push_str("\\n"),
                                c => out.push(c),
                            }
                        }
                        out.push('"');
                    }
                    out.push('}');
                }
                match as_integer(*value) {
                    Some(v) => _ = writeln!(out, " {v}"),
                    None => _ = writeln!(out, " {value}"),
                }
            }
        }
        out
    }

    /// The snapshot as JSON (what `--metrics-out` writes): one key per
    /// family, each holding its `kind`, `help` and `samples: [{labels,
    /// value}]`, in push order.
    pub fn to_json(&self) -> Value {
        let sample = |(labels, value): &(Vec<(String, String)>, f64)| {
            let labels = labels
                .iter()
                .map(|(k, v)| (k.clone(), Value::String(v.clone())))
                .collect();
            let value = as_integer(*value).map_or(Value::F64(*value), Value::I64);
            Value::Object(vec![
                ("labels".to_string(), Value::Object(labels)),
                ("value".to_string(), value),
            ])
        };
        Value::Object(
            self.families
                .iter()
                .map(|f| {
                    let family = vec![
                        ("kind".to_string(), Value::String(f.kind.as_str().into())),
                        ("help".to_string(), Value::String(f.help.clone())),
                        (
                            "samples".to_string(),
                            Value::Array(f.samples.iter().map(sample).collect()),
                        ),
                    ];
                    (f.name.clone(), Value::Object(family))
                })
                .collect(),
        )
    }

    /// One [`LatencyStat`] as its three `families`: the sample count, the
    /// nanosecond sum and a gauge per `stat` (min, mean, p50, p90, p99,
    /// max).
    fn push_latency(
        &mut self,
        families: &LatencyFamilies,
        labels: &[(&str, &str)],
        stat: &LatencyStat,
    ) {
        let [(count, count_help), (sum, sum_help), (by_stat, stat_help)] = *families;
        self.push(
            count,
            MetricKind::Counter,
            count_help,
            labels,
            stat.count as f64,
        );
        self.push(
            sum,
            MetricKind::Counter,
            sum_help,
            labels,
            stat.sum_ns as f64,
        );
        let q = |q: f64| stat.percentile_ns(q) as f64;
        for (name, ns) in [
            ("min", stat.min_ns as f64),
            ("mean", stat.mean_ns()),
            ("p50", q(0.50)),
            ("p90", q(0.90)),
            ("p99", q(0.99)),
            ("max", stat.max_ns as f64),
        ] {
            let l = with(labels, &[("stat", name)]);
            self.push(by_stat, MetricKind::Gauge, stat_help, &l, ns);
        }
    }

    /// The per-peer wire families of `peers` (indexed by worker), each
    /// sample labelled `labels` plus `worker`. Both [`Metrics::snapshot`]
    /// and `grout-ctld`'s fleet view (`role="fleet"`) render through it.
    pub fn push_wire(&mut self, labels: &[(&str, &str)], peers: &[PeerWireStats]) {
        use MetricKind::{Counter, Gauge};
        for (w, peer) in peers.iter().enumerate() {
            let w = w.to_string();
            let l = with(labels, &[("worker", &w)]);
            for (dir, frames, bytes) in [
                ("sent", peer.frames_sent, peer.bytes_sent),
                ("recv", peer.frames_recv, peer.bytes_recv),
            ] {
                let l = with(&l, &[("dir", dir)]);
                let help = "Wire frames per peer and direction";
                self.push("grout_wire_frames_total", Counter, help, &l, frames as f64);
                let help = "Wire bytes per peer and direction";
                self.push("grout_wire_bytes_total", Counter, help, &l, bytes as f64);
            }
            self.push_latency(&HB_RTT_FAMILIES, &l, &peer.hb_rtt);
            for (name, kind, help, value) in [
                (
                    "grout_wire_clock_offset_ns",
                    Gauge,
                    "Estimated offset to add to this peer's timestamps",
                    peer.clock_offset_ns as f64,
                ),
                (
                    "grout_wire_telemetry_batches_total",
                    Counter,
                    "Telemetry batches received per peer",
                    peer.telemetry_batches as f64,
                ),
                (
                    "grout_wire_telemetry_spans_total",
                    Counter,
                    "Spans across the telemetry batches received per peer",
                    peer.telemetry_spans as f64,
                ),
                (
                    "grout_wire_telemetry_backlog",
                    Gauge,
                    "Peer-reported span backlog at its last flush",
                    peer.telemetry_backlog as f64,
                ),
                (
                    "grout_wire_resumes_total",
                    Counter,
                    "Severed connections resumed without planner impact",
                    peer.resumes as f64,
                ),
            ] {
                self.push(name, kind, help, &l, value);
            }
        }
    }
}

/// `value` as an integer when it is one: integral samples render without
/// a fractional part (both formats accept either, but integers read
/// better for counters).
fn as_integer(value: f64) -> Option<i64> {
    (value.fract() == 0.0 && value.abs() < 1e15).then_some(value as i64)
}

/// `labels` followed by `extra`.
fn with<'a>(
    labels: &[(&'a str, &'a str)],
    extra: &[(&'a str, &'a str)],
) -> Vec<(&'a str, &'a str)> {
    labels.iter().chain(extra).copied().collect()
}

/// Name and help of the three families one [`LatencyStat`] renders to:
/// its sample count, its nanosecond sum and its per-`stat` gauge.
type LatencyFamilies = [(&'static str, &'static str); 3];

const PHASE_FAMILIES: LatencyFamilies = [
    (
        "grout_ce_phase_count",
        "CEs that passed this scheduling phase",
    ),
    (
        "grout_ce_phase_sum_ns",
        "Cumulative nanoseconds spent in this phase",
    ),
    (
        "grout_ce_phase_latency_ns",
        "Phase latency statistic over the run so far",
    ),
];

const HB_RTT_FAMILIES: LatencyFamilies = [
    (
        "grout_wire_hb_rtt_count",
        "Heartbeat round trips timed per peer",
    ),
    (
        "grout_wire_hb_rtt_sum_ns",
        "Cumulative heartbeat round-trip nanoseconds per peer",
    ),
    (
        "grout_wire_hb_rtt_ns",
        "Heartbeat round-trip statistic per peer",
    ),
];

impl Metrics {
    /// This registry in the one metrics model: every field becomes
    /// samples of a family listed in DESIGN §12's catalogue. `base` labels
    /// are attached to every sample; the session tag (when the registry
    /// belongs to a tenant on a shared fleet) rides as a `session` label,
    /// per-worker vectors as a `worker` label, the movement-kind byte
    /// split as a `policy` label and the link matrix as `src`/`dst`.
    pub fn snapshot(&self, base: &[(&str, &str)]) -> MetricsSnapshot {
        use MetricKind::{Counter, Gauge};
        let mut snap = MetricsSnapshot::new();
        let session = self.session.map(|s| s.to_string());
        let mut labels: Vec<(&str, &str)> = base.to_vec();
        if let Some(s) = &session {
            labels.push(("session", s));
        }
        let labels = &labels[..];

        for (phase, stat) in [
            ("plan", &self.plan),
            ("queue", &self.queue),
            ("transfer", &self.transfer),
            ("execute", &self.execute),
        ] {
            snap.push_latency(&PHASE_FAMILIES, &with(labels, &[("phase", phase)]), stat);
        }

        for (policy, bytes) in [
            ("controller_send", self.controller_send_bytes),
            ("p2p", self.p2p_bytes),
            ("staged", self.staged_bytes),
        ] {
            snap.push(
                "grout_moved_bytes_total",
                Counter,
                "Payload bytes moved, split by movement policy",
                &with(labels, &[("policy", policy)]),
                bytes as f64,
            );
        }

        for (kind, count) in SchedEvent::NAMES.iter().zip(self.events) {
            snap.push(
                "grout_sched_events_total",
                Counter,
                "Scheduling events by kind",
                &with(labels, &[("kind", kind)]),
                count as f64,
            );
        }

        for (w, (kernels, busy)) in self
            .kernels_by_worker
            .iter()
            .zip(&self.busy_ns_by_worker)
            .enumerate()
        {
            let w = w.to_string();
            let l = with(labels, &[("worker", &w)]);
            let help = "Kernels completed per worker";
            snap.push(
                "grout_worker_kernels_total",
                Counter,
                help,
                &l,
                *kernels as f64,
            );
            let help = "Kernel-occupied nanoseconds per worker";
            snap.push(
                "grout_worker_busy_ns_total",
                Counter,
                help,
                &l,
                *busy as f64,
            );
        }

        snap.push(
            "grout_run_info",
            Gauge,
            "Transport carrying the run and where its link matrix came from",
            &with(
                labels,
                &[
                    ("transport", &self.transport),
                    ("bw_source", &self.bw_source),
                ],
            ),
            1.0,
        );
        for (src, row) in self.bw_bps.iter().enumerate() {
            let src = src.to_string();
            for (dst, bps) in row.iter().enumerate() {
                let dst = dst.to_string();
                snap.push(
                    "grout_link_bandwidth_bps",
                    Gauge,
                    "Link bandwidth transfers are priced with (endpoint 0 is the controller)",
                    &with(labels, &[("src", &src), ("dst", &dst)]),
                    *bps as f64,
                );
            }
        }

        snap.push_wire(labels, &self.wire);
        snap
    }
}

// ---------------------------------------------------------------------------
// The fixed-capacity time-series ring
// ---------------------------------------------------------------------------

/// Per-peer wire slice of one [`HistorySample`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PeerSample {
    /// Cumulative frames written to the peer.
    pub frames_sent: u64,
    /// Cumulative bytes written to the peer.
    pub bytes_sent: u64,
    /// Cumulative frames read from the peer.
    pub frames_recv: u64,
    /// Cumulative bytes read from the peer.
    pub bytes_recv: u64,
    /// Median heartbeat round-trip at sample time (0 in-process).
    pub hb_rtt_p50_ns: u64,
}

impl PeerSample {
    /// Condenses full wire stats into the ring's per-peer slice.
    pub fn from_wire(stats: &PeerWireStats) -> PeerSample {
        PeerSample {
            frames_sent: stats.frames_sent,
            bytes_sent: stats.bytes_sent,
            frames_recv: stats.frames_recv,
            bytes_recv: stats.bytes_recv,
            hb_rtt_p50_ns: stats.hb_rtt.percentile_ns(0.50),
        }
    }
}

/// One scheduler-tick observation in the [`MetricsHistory`] ring.
/// Counters (`faults`, `ces_done`, peer frames/bytes) are cumulative —
/// rates come from differencing adjacent samples.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistorySample {
    /// [`monotonic_ns`] at sampling time.
    pub at_ns: u64,
    /// Frames queued across every session's pending frontier.
    pub queue_depth: u64,
    /// Resident bytes across every session.
    pub resident_bytes: u64,
    /// Cumulative execution faults observed by the fleet.
    pub faults: u64,
    /// Sessions attached at sample time.
    pub sessions_active: u64,
    /// Workers currently alive.
    pub workers_alive: u64,
    /// Outstanding CEs per worker (the backlog signal).
    pub occupancy: Vec<u64>,
    /// Per-peer wire counters and heartbeat RTT.
    pub peers: Vec<PeerSample>,
    /// Cumulative CEs completed per session, ascending by session id.
    pub ces_done: Vec<(u64, u64)>,
}

/// A fixed-capacity time-series ring of [`HistorySample`]s: the fleet
/// thread pushes one sample per placement-refresh tick, introspection
/// endpoints read recent windows. Old samples fall off the front, so
/// memory is bounded regardless of uptime.
#[derive(Debug, Clone, Default)]
pub struct MetricsHistory {
    cap: usize,
    samples: std::collections::VecDeque<HistorySample>,
}

impl MetricsHistory {
    /// Default ring capacity: at the fleet's ~16 ms sampling cadence,
    /// roughly the last minute.
    pub const DEFAULT_CAP: usize = 4096;

    /// A ring bounded to `cap` samples (clamped to ≥ 2 so rates are
    /// always computable).
    pub fn with_capacity(cap: usize) -> Self {
        MetricsHistory {
            cap: cap.max(2),
            samples: std::collections::VecDeque::new(),
        }
    }

    /// A ring with [`DEFAULT_CAP`](Self::DEFAULT_CAP).
    pub fn new() -> Self {
        Self::with_capacity(Self::DEFAULT_CAP)
    }

    /// Appends one sample, dropping the oldest at capacity.
    pub fn push(&mut self, sample: HistorySample) {
        if self.cap == 0 {
            // Default-constructed (e.g. inside a Default struct): adopt
            // the standard capacity on first use.
            self.cap = Self::DEFAULT_CAP;
        }
        if self.samples.len() == self.cap {
            self.samples.pop_front();
        }
        self.samples.push_back(sample);
    }

    /// Samples currently held.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether nothing has been sampled yet.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The most recent sample.
    pub fn latest(&self) -> Option<&HistorySample> {
        self.samples.back()
    }

    /// The samples whose timestamps fall within `last_ns` of the newest
    /// sample (all of them when `last_ns` spans the whole ring).
    pub fn window(&self, last_ns: u64) -> Vec<&HistorySample> {
        let Some(newest) = self.samples.back() else {
            return Vec::new();
        };
        let cutoff = newest.at_ns.saturating_sub(last_ns);
        self.samples.iter().filter(|s| s.at_ns >= cutoff).collect()
    }

    /// Faults per second over the `last_ns` window (0 with fewer than
    /// two samples — never NaN). This is the live oversubscription
    /// signal ROADMAP's fault-feedback work reads.
    pub fn fault_rate_per_s(&self, last_ns: u64) -> f64 {
        let w = self.window(last_ns);
        let (Some(first), Some(last)) = (w.first(), w.last()) else {
            return 0.0;
        };
        let dt_ns = last.at_ns.saturating_sub(first.at_ns);
        if dt_ns == 0 {
            return 0.0;
        }
        let df = last.faults.saturating_sub(first.faults);
        df as f64 * 1e9 / dt_ns as f64
    }

    /// The `last_ns` window rendered as Chrome `trace_event` counter
    /// events (`ph: "C"`): fleet-level series on the controller lane,
    /// occupancy per worker on the worker control lanes, CE completions
    /// as one multi-series counter keyed `s<session>`. Loadable in
    /// Perfetto next to a span trace of the same run.
    pub fn to_chrome_value(&self, last_ns: u64) -> Value {
        let mut events = Vec::new();
        let counter = |name: &str, pid: u64, ts_ns: u64, args: Vec<(String, Value)>| {
            Value::Object(vec![
                ("name".to_string(), Value::String(name.to_string())),
                ("ph".to_string(), Value::String("C".to_string())),
                ("ts".to_string(), Value::F64(ts_ns as f64 / 1000.0)),
                ("pid".to_string(), Value::U64(pid)),
                ("tid".to_string(), Value::U64(0)),
                ("args".to_string(), Value::Object(args)),
            ])
        };
        for s in self.window(last_ns) {
            for (name, v) in [
                ("queue_depth", s.queue_depth),
                ("resident_bytes", s.resident_bytes),
                ("faults", s.faults),
                ("sessions_active", s.sessions_active),
                ("workers_alive", s.workers_alive),
            ] {
                events.push(counter(
                    name,
                    0,
                    s.at_ns,
                    vec![("value".to_string(), Value::U64(v))],
                ));
            }
            for (w, occ) in s.occupancy.iter().enumerate() {
                events.push(counter(
                    "occupancy",
                    w as u64 + 1,
                    s.at_ns,
                    vec![("value".to_string(), Value::U64(*occ))],
                ));
            }
            if !s.ces_done.is_empty() {
                events.push(counter(
                    "ces_done",
                    0,
                    s.at_ns,
                    s.ces_done
                        .iter()
                        .map(|(sid, n)| (format!("s{sid}"), Value::U64(*n)))
                        .collect(),
                ));
            }
        }
        Value::Object(vec![
            ("traceEvents".to_string(), Value::Array(events)),
            (
                "displayTimeUnit".to_string(),
                Value::String("ms".to_string()),
            ),
        ])
    }

    /// [`to_chrome_value`](Self::to_chrome_value) rendered compact.
    pub fn to_chrome_string(&self, last_ns: u64) -> String {
        serde_json::to_string(&self.to_chrome_value(last_ns)).expect("render history")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use desim::SimDuration;

    #[test]
    fn latency_stat_aggregates() {
        let mut s = LatencyStat::default();
        assert_eq!(s.mean_ns(), 0.0);
        s.record(10);
        s.record(30);
        s.record(20);
        assert_eq!(s.count, 3);
        assert_eq!(s.sum_ns, 60);
        assert_eq!(s.min_ns, 10);
        assert_eq!(s.max_ns, 30);
        assert_eq!(s.mean_ns(), 20.0);
    }

    #[test]
    fn latency_stat_percentiles_and_zero_sample_safety() {
        // Zero samples: every derived figure is 0, never NaN.
        let empty = LatencyStat::default();
        assert_eq!(empty.count, 0);
        assert_eq!(empty.mean_ns(), 0.0);
        assert_eq!(empty.percentile_ns(0.5), 0);
        assert_eq!(empty.percentile_ns(0.99), 0);
        let mut m = Metrics::with_workers(1);
        m.wire.push(PeerWireStats::default()); // hb_rtt has count 0
        let json = serde_json::to_string(&m.snapshot(&[]).to_json()).expect("render");
        assert!(!json.contains("NaN"));
        assert!(json.contains("\"grout_wire_hb_rtt_ns\""));

        // Percentiles bracket the observed range and order correctly.
        let mut s = LatencyStat::default();
        for ns in [100u64, 200, 400, 800, 100_000] {
            s.record(ns);
        }
        let (p50, p99) = (s.percentile_ns(0.5), s.percentile_ns(0.99));
        assert!((s.min_ns..=s.max_ns).contains(&p50));
        assert!((s.min_ns..=s.max_ns).contains(&p99));
        assert!(p50 <= p99);
        assert!(p50 < 1_000, "median must not be dragged up by the outlier");
        assert_eq!(s.percentile_ns(0.0), s.min_ns);
        assert_eq!(s.percentile_ns(1.0), s.max_ns);
    }

    /// Synthetic two-clock harness: the worker clock reads
    /// `skew + (1 + drift) * t` when the controller clock reads `t`.
    /// Exchanges have asymmetric up/down latencies (bounded by `rtt`).
    fn feed_exchanges(
        sync: &mut ClockSync,
        skew_ns: i64,
        drift: f64,
        exchanges: &[(u64, u64, u64)], // (controller send time, up latency, down latency)
    ) -> u64 {
        let worker_clock =
            |t_ctrl: u64| -> u64 { (skew_ns + ((1.0 + drift) * t_ctrl as f64) as i64) as u64 };
        let mut max_rtt = 0;
        for &(t_send, up, down) in exchanges {
            let t1 = worker_clock(t_send); // worker stamps the ping
            let t2 = t_send + up; // controller stamps receipt
            let t4 = worker_clock(t_send + up + down); // worker stamps the pong
            let rtt = t4 - t1;
            let offset = t2 as i64 - ((t1 + t4) / 2) as i64;
            sync.observe(t2, offset, rtt);
            max_rtt = max_rtt.max(rtt);
        }
        max_rtt
    }

    #[test]
    fn clock_sync_recovers_a_skewed_clock_within_the_rtt_bound() {
        // Worker clock is 3.2 ms ahead; exchanges take 40–90 µs per leg.
        let skew = 3_200_000i64;
        let mut sync = ClockSync::new();
        let exchanges: Vec<(u64, u64, u64)> = (0..20)
            .map(|i| {
                let t = 1_000_000 + i * 100_000_000u64; // every 100 ms
                let up = 40_000 + (i * 7919) % 50_000; // deterministic jitter
                let down = 40_000 + (i * 104_729) % 50_000;
                (t, up, down)
            })
            .collect();
        let max_rtt = feed_exchanges(&mut sync, skew, 0.0, &exchanges);
        assert!(sync.samples() >= 8);
        let est = sync.offset_at(2_000_000_000);
        // True offset (controller − worker) is −skew; one exchange's
        // error is ≤ rtt/2, and averaging only helps.
        let err = (est - (-skew)).unsigned_abs();
        assert!(
            err <= max_rtt / 2,
            "offset error {err} ns exceeds rtt/2 bound {}",
            max_rtt / 2
        );
    }

    #[test]
    fn clock_sync_tracks_drift_and_rejects_congested_samples() {
        // 100 ppm drift on top of a −1 ms skew.
        let skew = -1_000_000i64;
        let drift = 1e-4;
        let mut sync = ClockSync::new();
        let mut exchanges: Vec<(u64, u64, u64)> = (0..30)
            .map(|i| (1_000_000 + i * 100_000_000u64, 20_000, 20_000))
            .collect();
        // A congested exchange mid-run: 30 ms legs, wildly asymmetric.
        exchanges.push((1_550_000_000, 60_000_000, 1_000));
        exchanges.sort();
        feed_exchanges(&mut sync, skew, drift, &exchanges);
        // The drift estimate has the right sign and magnitude: the worker
        // clock runs fast, so controller − worker shrinks over time.
        let d = sync.drift();
        assert!(d < 0.0, "worker running fast must give negative drift");
        assert!(d.abs() < 1e-3, "drift clamp");
        // Extrapolate to a time past the sampled window: the estimate
        // stays within the clean-sample bound even though a congested
        // sample (error up to 30 ms) was offered.
        let at = 3_500_000_000u64;
        let truth = -((skew as f64) + drift * at as f64) as i64;
        let err = (sync.offset_at(at) - truth).unsigned_abs();
        assert!(
            err <= 200_000,
            "drift-corrected offset error {err} ns too large (congested sample not rejected?)"
        );
    }

    #[test]
    fn lane_aligner_makes_merged_spans_monotone_per_lane() {
        // Worker spans stamped on a skewed clock, merged with an offset
        // estimate that is slightly wrong (as a real rtt/2 error is):
        // consecutive spans could land before the previous span's end.
        let lane = Lane::stream(1, 0, 0);
        let spans = [(1_000u64, 500u64), (1_400, 300), (2_100, 100)];
        let offset_err = 250i64; // the merge maps everything 250 ns late
        let mut aligner = LaneAligner::new();
        let mut prev_end = 0u64;
        for (start, dur) in spans {
            let shifted = (start as i64 + offset_err) as u64;
            let aligned = aligner.align(lane, shifted, dur);
            assert!(
                aligned >= prev_end,
                "span start {aligned} overlaps previous end {prev_end}"
            );
            prev_end = aligned + dur;
        }
        // Other lanes are independent.
        assert_eq!(aligner.align(Lane::network(2), 10, 5), 10);
    }

    #[test]
    fn metrics_event_counters_cover_the_vocabulary() {
        let mut m = Metrics::with_workers(2);
        m.record_event(&SchedEvent::Fault {
            at_ce: 0,
            worker: Some(1),
            kind: "kill-worker",
            epoch: 1,
        });
        m.record_event(&SchedEvent::Retry {
            at_ce: 1,
            worker: 0,
            attempt: 1,
            backoff: SimDuration::from_millis(1),
        });
        m.record_event(&SchedEvent::Quarantine {
            worker: 1,
            at_ce: 0,
            lost: vec![],
            epoch: 1,
        });
        m.record_event(&SchedEvent::Replay {
            dag_index: 0,
            epoch: 1,
        });
        m.record_event(&SchedEvent::Reassign {
            dag_index: 2,
            from: 1,
            to: 0,
            epoch: 1,
        });
        m.record_event(&SchedEvent::TransferDropped {
            at_ce: 3,
            array: crate::ArrayId(0),
        });
        m.record_event(&SchedEvent::TransferDelayed {
            at_ce: 3,
            array: crate::ArrayId(0),
            delay: SimDuration::from_millis(2),
        });
        m.record_event(&SchedEvent::TransferRedriven { at_ce: 3 });
        m.record_event(&SchedEvent::SpawnFailed { worker: 0 });
        for kind in &SchedEvent::NAMES[..9] {
            assert_eq!(m.event_count(kind), 1, "{kind}");
        }
        assert_eq!(m.events.iter().sum::<u64>(), 9);
    }

    #[test]
    fn movement_and_kernel_accounting() {
        let mut m = Metrics::with_workers(2);
        m.record_movement(MovementKind::ControllerSend, 100);
        m.record_movement(MovementKind::P2p, 200);
        m.record_movement(MovementKind::Staged, 50);
        m.record_kernel(0, 1_000);
        m.record_kernel(0, 3_000);
        m.record_kernel(1, 500);
        assert_eq!(m.payload_bytes(), 350);
        assert_eq!(m.kernels_by_worker, vec![2, 1]);
        assert_eq!(m.busy_ns_by_worker, vec![4_000, 500]);
        assert_eq!(m.total_kernels(), 3);
    }

    #[test]
    fn disabled_telemetry_reports_disabled() {
        let t = Telemetry::off();
        assert!(!t.enabled());
        // All sinks are inert no-ops.
        t.span(&SpanEvent {
            name: "x",
            cat: "execute",
            lane: Lane::CONTROLLER,
            start_ns: 0,
            dur_ns: 1,
            args: &[],
        });
        t.instant("i", Lane::CONTROLLER, 0, &[]);
        t.counter("c", Lane::CONTROLLER, 0, 1.0);
        t.mark("m", &[]);
    }

    #[test]
    fn chrome_tracer_emits_schema_shaped_events() {
        let mut tr = ChromeTracer::new();
        tr.span(&SpanEvent {
            name: "axpy",
            cat: "execute",
            lane: Lane::stream(1, 0, 2),
            start_ns: 2_000,
            dur_ns: 3_000,
            args: &[("bytes", ArgValue::U64(64))],
        });
        tr.instant("fault", Lane::CONTROLLER, 1_000, &[]);
        tr.counter("bytes", Lane::CONTROLLER, 500, 42.0);
        tr.mark("planner", &[("ces", ArgValue::U64(1))]);
        assert_eq!(tr.len(), 4);

        let Value::Object(top) = tr.to_json_value() else {
            panic!("trace must be a JSON object");
        };
        let events = top
            .iter()
            .find(|(k, _)| k == "traceEvents")
            .map(|(_, v)| v)
            .expect("traceEvents key");
        let Value::Array(events) = events else {
            panic!("traceEvents must be an array");
        };
        // 2 lanes seen -> 4 metadata events, plus the 4 recorded ones.
        assert_eq!(events.len(), 8);
        for ev in events {
            let Value::Object(fields) = ev else {
                panic!("every event is an object");
            };
            for key in ["name", "ph", "pid", "tid"] {
                assert!(
                    fields.iter().any(|(k, _)| k == key),
                    "event missing {key}: {fields:?}"
                );
            }
        }
        // The mark is stamped with the latest seen timestamp (5 us).
        let json = tr.to_json_string();
        assert!(json.contains("\"planner\""));
        assert!(json.contains("\"displayTimeUnit\":\"ms\""));
    }

    #[test]
    fn shared_recorder_roundtrip() {
        let shared = Shared::new(ChromeTracer::new());
        let t = shared.telemetry();
        assert!(t.enabled());
        t.instant("hello", Lane::CONTROLLER, 10, &[]);
        assert_eq!(shared.lock().len(), 1);
    }

    #[test]
    fn metrics_dumps_are_well_formed() {
        let mut m = Metrics::with_workers(1);
        m.plan.record(100);
        m.record_movement(MovementKind::P2p, 7);
        let json = serde_json::to_string(&m.snapshot(&[]).to_json()).expect("render metrics");
        assert!(json.contains("{\"labels\":{\"policy\":\"p2p\"},\"value\":7}"));
        assert!(json.contains("{\"labels\":{\"phase\":\"plan\"},\"value\":1}"));
        let parsed = serde_json::from_str(&json).expect("dump parses");
        let moved = parsed.get("grout_moved_bytes_total").expect("family");
        assert_eq!(moved.get("kind").and_then(Value::as_str), Some("counter"));
        assert_eq!(
            moved
                .get("samples")
                .and_then(Value::as_array)
                .map(<[_]>::len),
            Some(3)
        );
    }

    #[test]
    fn session_lanes_offset_and_name_tracks() {
        assert_eq!(Lane::stream(2, 1, 3).for_session(7).session(), 7);
        assert_eq!(Lane::stream(2, 1, 3).for_session(7).local_node(), 2);
        assert_eq!(
            Lane::stream(2, 1, 3).for_session(7).track_name(),
            "s7 gpu1 stream3"
        );
        assert_eq!(Lane::control(0).for_session(0), Lane::control(0));
        assert_eq!(Lane::network(1).track_name(), "network");

        let shared = Shared::new(ChromeTracer::new());
        let base = shared.telemetry();
        let s3 = base.for_session(3);
        assert!(s3.enabled());
        s3.instant("tick", Lane::control(1), 10, &[]);
        s3.span(&SpanEvent {
            name: "ce",
            cat: "execute",
            lane: Lane::stream(1, 0, 0),
            start_ns: 10,
            dur_ns: 10,
            args: &[],
        });
        s3.mark("done", &[]);
        base.instant("root", Lane::CONTROLLER, 30, &[]);
        let json = shared.lock().to_json_string();
        // Session 3's events live in a disjoint pid stripe with session-
        // prefixed process/track names; session 0 keeps the bare names.
        assert!(json.contains("\"s3 worker 0\""));
        assert!(json.contains("\"s3 control\""));
        assert!(json.contains("\"controller\""));
        let parsed = serde_json::from_str(&json).expect("trace parses");
        let events = parsed
            .get("traceEvents")
            .and_then(|v| v.as_array())
            .unwrap();
        let tick = events
            .iter()
            .find(|e| e.get("name").and_then(|n| n.as_str()) == Some("tick"))
            .unwrap();
        assert_eq!(
            tick.get("pid").and_then(|p| p.as_u64()),
            Some(1 + 3 * SESSION_LANE_STRIDE as u64)
        );
        // The mark lands on session 3's controller lane at the last
        // timestamp the wrapper saw (20 us end of the span).
        let done = events
            .iter()
            .find(|e| e.get("name").and_then(|n| n.as_str()) == Some("done"))
            .unwrap();
        assert_eq!(
            done.get("pid").and_then(|p| p.as_u64()),
            Some(3 * SESSION_LANE_STRIDE as u64)
        );
    }

    #[test]
    fn snapshot_renders_prometheus_with_labels() {
        let mut m = Metrics::with_workers(2);
        m.plan.record(100);
        m.plan.record(300);
        m.record_movement(MovementKind::P2p, 7);
        m.events[0] = 2; // `fault`
        m.kernels_by_worker[1] = 5;
        m.session = Some(4);
        let snap = m.snapshot(&[("role", "ctld")]);
        let text = snap.to_prometheus();
        assert!(text.contains("# HELP grout_moved_bytes_total "));
        assert!(text.contains("# TYPE grout_moved_bytes_total counter"));
        assert!(
            text.contains("grout_moved_bytes_total{role=\"ctld\",session=\"4\",policy=\"p2p\"} 7")
        );
        assert!(
            text.contains("grout_sched_events_total{role=\"ctld\",session=\"4\",kind=\"fault\"} 2")
        );
        assert!(
            text.contains("grout_worker_kernels_total{role=\"ctld\",session=\"4\",worker=\"1\"} 5")
        );
        assert!(text.contains("grout_ce_phase_count{role=\"ctld\",session=\"4\",phase=\"plan\"} 2"));
        assert!(!text.contains("NaN"), "exposition must never carry NaN");
        // Exposition lines are either comments or `name{...} value`.
        for line in text.lines() {
            assert!(
                line.starts_with('#') || line.starts_with("grout_"),
                "unexpected line: {line}"
            );
        }
        // A second session merges into the same families.
        let mut m2 = Metrics::with_workers(1);
        m2.record_movement(MovementKind::P2p, 9);
        m2.session = Some(5);
        let mut merged = snap.clone();
        merged.merge(m2.snapshot(&[("role", "ctld")]));
        let text = merged.to_prometheus();
        assert_eq!(text.matches("# TYPE grout_moved_bytes_total").count(), 1);
        assert!(text.contains("session=\"4\",policy=\"p2p\"} 7"));
        assert!(text.contains("session=\"5\",policy=\"p2p\"} 9"));
    }

    #[test]
    fn every_sched_event_kind_reaches_json_and_snapshot() {
        use crate::faults::SchedEvent as E;
        let d = SimDuration::from_millis(1);
        let w = 0;
        let epoch = 1;
        let events = [
            E::Fault {
                at_ce: 0,
                worker: None,
                kind: "kill-worker",
                epoch,
            },
            E::Retry {
                at_ce: 0,
                worker: w,
                attempt: 1,
                backoff: d,
            },
            E::Quarantine {
                worker: w,
                at_ce: 0,
                lost: vec![],
                epoch,
            },
            E::Replay {
                dag_index: 0,
                epoch,
            },
            E::Reassign {
                dag_index: 0,
                from: 0,
                to: 1,
                epoch,
            },
            E::TransferDropped {
                at_ce: 0,
                array: crate::ArrayId(0),
            },
            E::TransferDelayed {
                at_ce: 0,
                array: crate::ArrayId(0),
                delay: d,
            },
            E::TransferRedriven { at_ce: 0 },
            E::SpawnFailed { worker: w },
            E::Suspected { worker: w, epoch },
            E::Reinstated { worker: w, epoch },
            E::Rejoined { worker: w, epoch },
            E::Joined { worker: w, epoch },
            E::Departed {
                worker: w,
                rebalanced: 1,
                epoch,
            },
        ];
        // One variant per kind, each kind its own name.
        let mut indices: Vec<usize> = events.iter().map(E::index).collect();
        indices.sort_unstable();
        assert_eq!(indices, (0..E::NAMES.len()).collect::<Vec<_>>());
        let mut m = Metrics::with_workers(2);
        let tracer = Shared::new(ChromeTracer::new());
        for (at, event) in events.iter().enumerate() {
            m.record_event(event);
            tracer.telemetry().sched_event(event, at as u64);
        }
        let snap = m.snapshot(&[]);
        let json = snap.to_json();
        let trace = tracer.lock().to_json_value();
        let instants: Vec<&str> = trace
            .get("traceEvents")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .filter(|e| e.get("ph").and_then(Value::as_str) == Some("i"))
            .filter_map(|e| e.get("name").and_then(Value::as_str))
            .collect();
        assert_eq!(instants.len(), events.len());
        let prom = snap.to_prometheus();
        for (event, instant) in events.iter().zip(instants) {
            let kind = event.name();
            assert_eq!(instant, kind, "{event:?}: trace instant name");
            assert!(
                prom.contains(&format!("grout_sched_events_total{{kind=\"{kind}\"}} 1\n")),
                "{event:?}: no `{kind}` sample in the exposition"
            );
            let sample = json
                .get("grout_sched_events_total")
                .and_then(|f| f.get("samples"))
                .and_then(Value::as_array)
                .unwrap()
                .iter()
                .find(|s| {
                    s.get("labels")
                        .and_then(|l| l.get("kind"))
                        .and_then(Value::as_str)
                        == Some(kind)
                })
                .unwrap_or_else(|| panic!("{event:?}: no `{kind}` sample in the JSON"));
            assert_eq!(
                sample.get("value").and_then(Value::as_u64),
                Some(1),
                "{event:?}"
            );
        }
    }

    #[test]
    fn snapshot_coerces_non_finite_values() {
        let mut snap = MetricsSnapshot::new();
        snap.push("grout_bad", MetricKind::Gauge, "h", &[], f64::NAN);
        snap.push(
            "grout_bad",
            MetricKind::Gauge,
            "h",
            &[("a", "b\"c\n")],
            f64::INFINITY,
        );
        let text = snap.to_prometheus();
        assert!(text.contains("grout_bad 0"));
        assert!(text.contains("grout_bad{a=\"b\\\"c\\n\"} 0"));
    }

    #[test]
    fn history_ring_wraps_and_windows() {
        let mut h = MetricsHistory::with_capacity(4);
        for i in 0..10u64 {
            h.push(HistorySample {
                at_ns: i * 1_000,
                faults: i,
                queue_depth: i,
                ..HistorySample::default()
            });
        }
        assert_eq!(h.len(), 4);
        assert_eq!(h.latest().unwrap().at_ns, 9_000);
        // Window of 2 us from the newest (9 us): samples at 7, 8, 9 us.
        assert_eq!(h.window(2_000).len(), 3);
        assert_eq!(h.window(u64::MAX).len(), 4);
        assert_eq!(MetricsHistory::new().window(1).len(), 0);
        // 3 faults over 3 us -> 1e6 faults/sec.
        let rate = h.fault_rate_per_s(3_000);
        assert!((rate - 1e6).abs() < 1.0, "rate={rate}");
        assert_eq!(MetricsHistory::new().fault_rate_per_s(1_000), 0.0);
    }

    #[test]
    fn history_renders_chrome_counters() {
        let mut h = MetricsHistory::new();
        h.push(HistorySample {
            at_ns: 5_000,
            queue_depth: 3,
            occupancy: vec![1, 2],
            ces_done: vec![(1, 10), (2, 4)],
            ..HistorySample::default()
        });
        let json = h.to_chrome_string(u64::MAX);
        let parsed = serde_json::from_str(&json).expect("chrome window parses");
        let events = parsed
            .get("traceEvents")
            .and_then(|v| v.as_array())
            .unwrap();
        assert!(events
            .iter()
            .all(|e| e.get("ph").and_then(|p| p.as_str()) == Some("C")));
        let occ: Vec<_> = events
            .iter()
            .filter(|e| e.get("name").and_then(|n| n.as_str()) == Some("occupancy"))
            .collect();
        assert_eq!(occ.len(), 2);
        assert_eq!(occ[1].get("pid").and_then(|p| p.as_u64()), Some(2));
        let done = events
            .iter()
            .find(|e| e.get("name").and_then(|n| n.as_str()) == Some("ces_done"))
            .unwrap();
        let args = done.get("args").unwrap();
        assert_eq!(args.get("s1").and_then(|v| v.as_u64()), Some(10));
        assert_eq!(args.get("s2").and_then(|v| v.as_u64()), Some(4));
    }
}
