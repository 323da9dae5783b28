//! `grout-ctld` — the multi-tenant GrOUT control plane.
//!
//! Owns one worker fleet (in-process threads or remote `grout-workerd`
//! processes) and serves many concurrent client sessions over it:
//!
//! - each `grout-run --connect` client gets its own planner/DAG/coherence
//!   state machine behind a namespace-tagged
//!   [`SessionTransport`](grout::core::SessionTransport),
//! - an [`AdmissionController`] decides
//!   per attach whether the session runs now, waits its turn, or is
//!   rejected with a typed wire error,
//! - a weighted-round-robin fair-share scheduler drains every session's
//!   ready frontier each tick (no starvation),
//! - with `--batch`, all frames one tick sends to one worker coalesce
//!   into a single `CtrlMsg::Batch` wire frame (CE batching),
//! - with `--journal`, every planner mutation of every tenant lands in
//!   one session-tagged op journal,
//! - with `--http`, a live introspection plane serves `/metrics`
//!   (Prometheus text), `/healthz`, `/sessions` and `/trace` while the
//!   fleet runs,
//! - with `--trace-out`, every session's spans land in one Chrome trace,
//!   each tenant on its own session-prefixed lane stripe.
//!
//! Operational logging is structured JSONL on stderr (one object per
//! line, leveled, session-tagged, rate-limited) — see
//! [`grout::core::eventlog`].
//!
//! Usage:
//! ```text
//! grout-ctld --listen 127.0.0.1:7070 --threads 4
//! grout-ctld --listen <addr> --workers tcp:<addr>,<addr> --batch
//! grout-ctld --listen <addr> --http 127.0.0.1:9090
//! ```
//!
//! The daemon announces `CTLD LISTENING <addr>` on stdout once the fleet
//! is up and the socket is bound — scripts wait for that line. With
//! `--http` a second line `CTLD HTTP <addr>` follows.

use std::collections::{BTreeMap, HashSet};
use std::io::Write as _;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::{Arc, Condvar, Mutex};

use grout::core::eventlog::{self, EventLog};
use grout::core::{
    monotonic_ns, AdmissionConfig, AdmissionController, AdmissionDecision, ChannelTransport,
    FleetMux, Liveness, MetricKind, MetricsSnapshot, OpSink, PlannerOp, Priority, Runtime,
    SessionId, SharedPlacement,
};
use grout::net::ctld::accept_client;
use grout::net::http::{HttpServer, Introspect};
use grout::net::oplog::JournalWriter;
use grout::net::wire::{self, ClientMsg, CtldMsg};
use grout::polyglot::run_script;
use grout::{parse_tcp_workers, ChromeTracer, Polyglot, Shared, TcpConfig, TcpTransport};
use serde_json::Value;

/// Where the fleet lives.
enum Fleet {
    /// N in-process worker threads.
    Threads(usize),
    /// Already-listening `grout-workerd` endpoints.
    Tcp(Vec<String>),
}

struct Cli {
    listen: String,
    fleet: Fleet,
    admission: AdmissionConfig,
    batch: bool,
    journal: Option<PathBuf>,
    /// Exit after serving this many clients (tests/CI teardown); 0 =
    /// serve forever.
    accept: usize,
    /// Introspection endpoint address (`/metrics`, `/healthz`, ...).
    http: Option<String>,
    /// Write a fleet-wide Chrome trace here on exit (per-session lanes).
    trace_out: Option<PathBuf>,
}

const USAGE: &str = "usage: grout-ctld --listen <addr>
  fleet:      --threads N             N in-process worker threads (default 2)
              --workers tcp:<addr>,.. connect to running grout-workerd processes
  admission:  --max-sessions N        concurrent session cap (default 16)
              --max-resident-bytes N  fleet-wide declared working-set budget
              --max-queue N           attach wait-queue depth (0 = reject when full)
  batching:   --batch                 coalesce each tick's frames per worker
  durability: --journal <path.grjl>   session-tagged multi-tenant op journal
  introspect: --http <addr>           serve /metrics /healthz /sessions /trace
              --trace-out <path>      write a fleet Chrome trace on exit
  lifecycle:  --accept N              exit after serving N clients (0 = forever)";

fn main() -> ExitCode {
    match parse(std::env::args().skip(1)) {
        Ok(Some(cli)) => match serve(cli) {
            Ok(()) => ExitCode::SUCCESS,
            Err(msg) => {
                eprintln!("grout-ctld: {msg}");
                ExitCode::FAILURE
            }
        },
        Ok(None) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("grout-ctld: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Option<Cli>, String> {
    let mut listen = None;
    let mut fleet = Fleet::Threads(2);
    let mut admission = AdmissionConfig::default();
    let mut batch = false;
    let mut journal = None;
    let mut accept = 0usize;
    let mut http = None;
    let mut trace_out = None;
    fn num<T: std::str::FromStr>(flag: &str, v: Option<String>) -> Result<T, String> {
        let v = v.ok_or(format!("{flag} needs a number"))?;
        v.parse::<T>()
            .map_err(|_| format!("{flag} needs a number, got `{v}`"))
    }
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--listen" => listen = Some(args.next().ok_or("--listen needs an address")?),
            "--threads" => {
                let n: usize = num("--threads", args.next())?;
                if n == 0 {
                    return Err("--threads needs at least one worker".into());
                }
                fleet = Fleet::Threads(n);
            }
            "--workers" => {
                let spec = args.next().ok_or("--workers needs tcp:<addr>,...")?;
                let addrs = parse_tcp_workers(&spec).ok_or("--workers needs tcp:<addr>,...")?;
                fleet = Fleet::Tcp(addrs?);
            }
            "--max-sessions" => admission.max_sessions = num("--max-sessions", args.next())?,
            "--max-resident-bytes" => {
                admission.max_resident_bytes = num("--max-resident-bytes", args.next())?
            }
            "--max-queue" => admission.max_queue = num("--max-queue", args.next())?,
            "--batch" => batch = true,
            "--journal" => {
                journal = Some(PathBuf::from(args.next().ok_or("--journal needs a path")?))
            }
            "--accept" => accept = num("--accept", args.next())?,
            "--http" => http = Some(args.next().ok_or("--http needs an address")?),
            "--trace-out" => {
                trace_out = Some(PathBuf::from(
                    args.next().ok_or("--trace-out needs a path")?,
                ))
            }
            "-h" | "--help" => {
                println!("{USAGE}");
                return Ok(None);
            }
            other => return Err(format!("unknown argument `{other}`; see --help")),
        }
    }
    let listen = listen.ok_or("--listen is required; see --help")?;
    Ok(Some(Cli {
        listen,
        fleet,
        admission,
        batch,
        journal,
        accept,
        http,
        trace_out,
    }))
}

// ---------------------------------------------------------------------------
// The session registry: what `/sessions` reports.

/// Where a session is in its lifecycle.
#[derive(Clone)]
enum Phase {
    Queued { position: u32 },
    Running,
    Finished { kernels: u64 },
    Failed { message: String },
    Rejected { reason: String },
}

impl Phase {
    fn as_str(&self) -> &'static str {
        match self {
            Phase::Queued { .. } => "queued",
            Phase::Running => "running",
            Phase::Finished { .. } => "finished",
            Phase::Failed { .. } => "failed",
            Phase::Rejected { .. } => "rejected",
        }
    }

    /// Finished, failed or rejected: the session will not change again.
    fn is_done(&self) -> bool {
        !matches!(self, Phase::Queued { .. } | Phase::Running)
    }
}

/// One session's introspectable state. `session` is the daemon ticket
/// until a fleet session is minted, then the fleet id (the one placement
/// keys resident bytes and CE completions by).
struct SessionEntry {
    session: u64,
    priority: Priority,
    declared_bytes: u64,
    phase: Phase,
    /// Planner op-log length (via a registry [`OpSink`]).
    ops: u64,
    /// Latest post-apply [`Planner::op_digest`](grout::core::Planner::op_digest).
    digest: Option<u64>,
    /// The session runtime's final metrics snapshot (populated at
    /// completion; live fleet signals come from the placement view).
    metrics: Option<MetricsSnapshot>,
}

/// Sessions that ended (finished, failed or rejected) kept for
/// `/sessions` and `/metrics`; older ones are evicted first.
const RETAINED_DONE_SESSIONS: usize = 64;

/// Every queued or running session, keyed by admission ticket, plus the
/// [`RETAINED_DONE_SESSIONS`] latest-admitted ones that ended, so an
/// end-of-run scrape still sees recent tenants while a long-lived daemon's
/// registry (and the snapshots each scrape merges) stays bounded.
#[derive(Default)]
struct SessionRegistry {
    entries: Mutex<BTreeMap<u64, SessionEntry>>,
}

impl SessionRegistry {
    fn insert(&self, ticket: u64, priority: Priority, declared_bytes: u64, phase: Phase) {
        let mut entries = self.entries.lock().expect("registry lock");
        let done = phase.is_done();
        entries.insert(
            ticket,
            SessionEntry {
                session: ticket,
                priority,
                declared_bytes,
                phase,
                ops: 0,
                digest: None,
                metrics: None,
            },
        );
        if done {
            evict_done(&mut entries);
        }
    }

    fn update(&self, ticket: u64, f: impl FnOnce(&mut SessionEntry)) {
        let mut entries = self.entries.lock().expect("registry lock");
        if let Some(entry) = entries.get_mut(&ticket) {
            let was_done = entry.phase.is_done();
            f(entry);
            if !was_done && entry.phase.is_done() {
                evict_done(&mut entries);
            }
        }
    }
}

/// Drops the oldest ended entries beyond [`RETAINED_DONE_SESSIONS`].
fn evict_done(entries: &mut BTreeMap<u64, SessionEntry>) {
    let done: Vec<u64> = entries
        .iter()
        .filter(|(_, e)| e.phase.is_done())
        .map(|(&ticket, _)| ticket)
        .collect();
    let excess = done.len().saturating_sub(RETAINED_DONE_SESSIONS);
    for ticket in &done[..excess] {
        entries.remove(ticket);
    }
}

/// Counts planner ops (and keeps the latest op digest) for one
/// session — the `/sessions` op-log length without touching the journal.
struct RegistryOpSink {
    registry: Arc<SessionRegistry>,
    ticket: u64,
}

impl OpSink for RegistryOpSink {
    fn append(&mut self, seq: u64, _op: &PlannerOp, digest: Option<u64>) {
        self.registry.update(self.ticket, |e| {
            e.ops = seq + 1;
            if digest.is_some() {
                e.digest = digest;
            }
        });
    }
}

fn priority_str(p: Priority) -> &'static str {
    match p {
        Priority::Low => "low",
        Priority::Normal => "normal",
        Priority::High => "high",
    }
}

// ---------------------------------------------------------------------------
// The daemon.

/// Admission bookkeeping shared across connection threads: the pure
/// controller plus the promotion hand-off (release() picks winners; their
/// parked threads wake through the condvar and find themselves in
/// `promoted`).
struct Admission {
    ctl: AdmissionController,
    next_ticket: u64,
    promoted: HashSet<SessionId>,
}

struct Daemon {
    fleet: Mutex<FleetMux>,
    admission: Arc<Mutex<Admission>>,
    promotions: Condvar,
    journal: Option<JournalWriter>,
    registry: Arc<SessionRegistry>,
    /// The shared fleet trace (`--trace-out`): every session records
    /// through it on its own lane stripe.
    tracer: Option<Shared<ChromeTracer>>,
    log: EventLog,
}

/// The `/metrics` + `/healthz` + `/sessions` + `/trace` source: reads
/// the shared placement view, the session registry and the admission
/// controller — never the fleet mux itself, so scrapes cannot stall the
/// scheduler.
struct CtldIntrospect {
    placement: Arc<Mutex<SharedPlacement>>,
    registry: Arc<SessionRegistry>,
    admission: Arc<Mutex<Admission>>,
    cfg: AdmissionConfig,
    workers: usize,
    batching: bool,
    journaling: bool,
    started_ns: u64,
}

impl CtldIntrospect {
    fn liveness_counts(&self, p: &SharedPlacement) -> (u64, u64, u64) {
        let mut alive = 0;
        let mut suspect = 0;
        let mut dead = 0;
        for l in &p.liveness {
            match l {
                Liveness::Alive => alive += 1,
                Liveness::Suspect => suspect += 1,
                Liveness::Dead => dead += 1,
            }
        }
        (alive, suspect, dead)
    }
}

impl Introspect for CtldIntrospect {
    fn metrics_text(&self) -> String {
        let mut snap = MetricsSnapshot::new();
        snap.push(
            "grout_up",
            MetricKind::Gauge,
            "1 while the daemon serves",
            &[],
            1.0,
        );
        snap.push(
            "grout_uptime_seconds",
            MetricKind::Gauge,
            "Seconds since the daemon started",
            &[],
            monotonic_ns().saturating_sub(self.started_ns) as f64 / 1e9,
        );
        {
            let p = self.placement.lock().expect("placement lock");
            let (alive, suspect, dead) = self.liveness_counts(&p);
            for (state, n) in [("alive", alive), ("suspect", suspect), ("dead", dead)] {
                snap.push(
                    "grout_fleet_workers",
                    MetricKind::Gauge,
                    "Fleet endpoints by liveness state",
                    &[("state", state)],
                    n as f64,
                );
            }
            for (w, occ) in p.occupancy.iter().enumerate() {
                snap.push(
                    "grout_fleet_occupancy",
                    MetricKind::Gauge,
                    "Outstanding CEs per worker",
                    &[("worker", &w.to_string())],
                    *occ as f64,
                );
            }
            for (sid, bytes) in &p.resident {
                snap.push(
                    "grout_session_resident_bytes",
                    MetricKind::Gauge,
                    "Resident bytes per attached session",
                    &[("session", &sid.0.to_string())],
                    *bytes as f64,
                );
            }
            for (sid, n) in &p.ces_done {
                snap.push(
                    "grout_session_ces_done_total",
                    MetricKind::Counter,
                    "CEs completed per session",
                    &[("session", &sid.0.to_string())],
                    *n as f64,
                );
            }
            snap.push(
                "grout_fleet_faults_total",
                MetricKind::Counter,
                "Failed executions across the fleet",
                &[],
                p.faults as f64,
            );
            snap.push(
                "grout_fleet_fault_rate_per_s",
                MetricKind::Gauge,
                "Fault rate over the last 5s history window",
                &[],
                p.history.fault_rate_per_s(5_000_000_000),
            );
            if let Some(latest) = p.history.latest() {
                snap.push(
                    "grout_fleet_queue_depth",
                    MetricKind::Gauge,
                    "Frames pending across every session at the last sample",
                    &[],
                    latest.queue_depth as f64,
                );
            }
            snap.push(
                "grout_fleet_history_samples",
                MetricKind::Gauge,
                "Samples held in the introspection ring",
                &[],
                p.history.len() as f64,
            );
            for (name, v) in [
                ("grout_batch_ticks_total", p.batch.ticks),
                ("grout_batch_frames_total", p.batch.frames),
                ("grout_batch_messages_total", p.batch.messages),
                ("grout_batch_batched_frames_total", p.batch.batched_frames),
            ] {
                snap.push(
                    name,
                    MetricKind::Counter,
                    "CE-batching wire counters",
                    &[],
                    v as f64,
                );
            }
            snap.push_wire(&[("role", "fleet")], &p.wire);
        }
        {
            let adm = self.admission.lock().expect("admission lock");
            snap.push(
                "grout_admission_active",
                MetricKind::Gauge,
                "Sessions currently admitted",
                &[],
                adm.ctl.active() as f64,
            );
            snap.push(
                "grout_admission_queued",
                MetricKind::Gauge,
                "Attach requests waiting for admission",
                &[],
                adm.ctl.queued() as f64,
            );
            snap.push(
                "grout_admission_max_sessions",
                MetricKind::Gauge,
                "Configured concurrent session cap",
                &[],
                self.cfg.max_sessions as f64,
            );
        }
        // Retained completed sessions contribute their runtime snapshots,
        // each tagged with its session label.
        for entry in self
            .registry
            .entries
            .lock()
            .expect("registry lock")
            .values()
        {
            if let Some(m) = &entry.metrics {
                snap.merge(m.clone());
            }
        }
        snap.to_prometheus()
    }

    fn healthz_json(&self) -> String {
        let p = self.placement.lock().expect("placement lock");
        let (alive, suspect, dead) = self.liveness_counts(&p);
        let spawn_failures = p.spawn_failures.len() as u64;
        let history_samples = p.history.len() as u64;
        drop(p);
        let adm = self.admission.lock().expect("admission lock");
        let (active, queued) = (adm.ctl.active() as u64, adm.ctl.queued() as u64);
        drop(adm);
        let healthy = alive > 0;
        let degraded = suspect + dead + spawn_failures > 0;
        let doc = Value::Object(vec![
            ("healthy".to_string(), Value::Bool(healthy)),
            ("degraded".to_string(), Value::Bool(degraded)),
            (
                "uptime_ms".to_string(),
                Value::U64(monotonic_ns().saturating_sub(self.started_ns) / 1_000_000),
            ),
            (
                "fleet".to_string(),
                Value::Object(vec![
                    ("workers".to_string(), Value::U64(self.workers as u64)),
                    ("alive".to_string(), Value::U64(alive)),
                    ("suspect".to_string(), Value::U64(suspect)),
                    ("dead".to_string(), Value::U64(dead)),
                    ("spawn_failures".to_string(), Value::U64(spawn_failures)),
                    ("batching".to_string(), Value::Bool(self.batching)),
                    ("journal".to_string(), Value::Bool(self.journaling)),
                    ("history_samples".to_string(), Value::U64(history_samples)),
                ]),
            ),
            (
                "admission".to_string(),
                Value::Object(vec![
                    ("active".to_string(), Value::U64(active)),
                    ("queued".to_string(), Value::U64(queued)),
                    (
                        "max_sessions".to_string(),
                        Value::U64(self.cfg.max_sessions as u64),
                    ),
                    (
                        "max_queue".to_string(),
                        Value::U64(self.cfg.max_queue as u64),
                    ),
                ]),
            ),
        ]);
        serde_json::to_string(&doc).expect("render healthz")
    }

    fn healthy(&self) -> bool {
        let p = self.placement.lock().expect("placement lock");
        let (alive, _, _) = self.liveness_counts(&p);
        alive > 0
    }

    fn sessions_json(&self) -> String {
        let p = self.placement.lock().expect("placement lock");
        let entries = self.registry.entries.lock().expect("registry lock");
        let sessions: Vec<Value> = entries
            .values()
            .map(|e| {
                let sid = SessionId(e.session);
                let mut obj = vec![
                    ("session".to_string(), Value::U64(e.session)),
                    (
                        "priority".to_string(),
                        Value::String(priority_str(e.priority).to_string()),
                    ),
                    (
                        "state".to_string(),
                        Value::String(e.phase.as_str().to_string()),
                    ),
                    ("declared_bytes".to_string(), Value::U64(e.declared_bytes)),
                    (
                        "resident_bytes".to_string(),
                        Value::U64(p.resident.get(&sid).copied().unwrap_or(0)),
                    ),
                    (
                        "ces_done".to_string(),
                        Value::U64(p.ces_done.get(&sid).copied().unwrap_or(0)),
                    ),
                    ("ops".to_string(), Value::U64(e.ops)),
                    (
                        "digest".to_string(),
                        match e.digest {
                            Some(d) => Value::String(format!("{d:016x}")),
                            None => Value::Null,
                        },
                    ),
                ];
                match &e.phase {
                    Phase::Queued { position } => {
                        obj.push(("queue_position".to_string(), Value::U64(*position as u64)));
                    }
                    Phase::Finished { kernels } => {
                        obj.push(("kernels".to_string(), Value::U64(*kernels)));
                    }
                    Phase::Failed { message } => {
                        obj.push(("error".to_string(), Value::String(message.clone())));
                    }
                    Phase::Rejected { reason } => {
                        obj.push(("reason".to_string(), Value::String(reason.clone())));
                    }
                    Phase::Running => {}
                }
                Value::Object(obj)
            })
            .collect();
        serde_json::to_string(&Value::Array(sessions)).expect("render sessions")
    }

    fn trace_json(&self, last_ms: u64) -> String {
        let p = self.placement.lock().expect("placement lock");
        p.history
            .to_chrome_string(last_ms.saturating_mul(1_000_000))
    }
}

fn serve(cli: Cli) -> Result<(), String> {
    let log = EventLog::stderr("grout-ctld");
    eventlog::init(log.clone());
    let transport: Box<dyn grout::core::Transport> = match &cli.fleet {
        Fleet::Threads(n) => Box::new(ChannelTransport::new(*n)),
        Fleet::Tcp(addrs) => {
            let children = addrs.iter().map(|_| None).collect();
            Box::new(TcpTransport::connect(
                addrs,
                children,
                &TcpConfig::default(),
            ))
        }
    };
    let workers = transport.workers();
    let journal = match &cli.journal {
        Some(path) => Some(
            JournalWriter::create(path)
                .map_err(|e| format!("cannot create journal `{}`: {e}", path.display()))?,
        ),
        None => None,
    };
    let tracer = cli
        .trace_out
        .as_ref()
        .map(|_| Shared::new(ChromeTracer::new()));
    let daemon = Arc::new(Daemon {
        fleet: Mutex::new(FleetMux::with_batching(transport, cli.batch)),
        admission: Arc::new(Mutex::new(Admission {
            ctl: AdmissionController::new(cli.admission),
            next_ticket: 1,
            promoted: HashSet::new(),
        })),
        promotions: Condvar::new(),
        journal,
        registry: Arc::new(SessionRegistry::default()),
        tracer,
        log: log.clone(),
    });
    let listener = TcpListener::bind(&cli.listen)
        .map_err(|e| format!("cannot listen on `{}`: {e}", cli.listen))?;
    let local = listener
        .local_addr()
        .map_err(|e| format!("cannot resolve listen address: {e}"))?;
    println!("CTLD LISTENING {local}");
    let _http = match &cli.http {
        Some(addr) => {
            let http_listener = TcpListener::bind(addr)
                .map_err(|e| format!("cannot bind http endpoint `{addr}`: {e}"))?;
            let source = Arc::new(CtldIntrospect {
                placement: daemon.fleet.lock().expect("fleet lock").placement(),
                registry: Arc::clone(&daemon.registry),
                admission: Arc::clone(&daemon.admission),
                cfg: cli.admission,
                workers,
                batching: cli.batch,
                journaling: cli.journal.is_some(),
                started_ns: monotonic_ns(),
            });
            let server = HttpServer::spawn(http_listener, source)
                .map_err(|e| format!("cannot start http endpoint: {e}"))?;
            println!("CTLD HTTP {}", server.local_addr());
            Some(server)
        }
        None => None,
    };
    let _ = std::io::stdout().flush();
    log.info(
        "fleet_up",
        None,
        &format!(
            "fleet of {workers} {} workers; max {} sessions, queue {}, batching {}",
            match cli.fleet {
                Fleet::Threads(_) => "in-process",
                Fleet::Tcp(_) => "tcp",
            },
            cli.admission.max_sessions,
            cli.admission.max_queue,
            if cli.batch { "on" } else { "off" },
        ),
        &[
            ("workers", Value::U64(workers as u64)),
            ("batching", Value::Bool(cli.batch)),
        ],
    );
    let mut served = 0usize;
    let mut handles = Vec::new();
    for stream in listener.incoming() {
        let stream = match stream {
            Ok(s) => s,
            Err(e) => {
                log.warn("accept_failed", None, &format!("accept failed: {e}"), &[]);
                continue;
            }
        };
        let d = Arc::clone(&daemon);
        handles.push(std::thread::spawn(move || {
            if let Err(e) = client_session(&d, stream) {
                d.log.warn(
                    "client_error",
                    None,
                    &format!("client session ended with error: {e}"),
                    &[],
                );
            }
        }));
        served += 1;
        if cli.accept != 0 && served >= cli.accept {
            break;
        }
    }
    for h in handles {
        let _ = h.join();
    }
    let stats = daemon.fleet.lock().expect("fleet lock").batch_stats();
    log.info(
        "served",
        None,
        &format!(
            "served {served} clients; {} msgs in {} frames ({} batched) over {} ticks",
            stats.messages, stats.frames, stats.batched_frames, stats.ticks
        ),
        &[
            ("clients", Value::U64(served as u64)),
            ("messages", Value::U64(stats.messages)),
            ("frames", Value::U64(stats.frames)),
        ],
    );
    if let (Some(tracer), Some(path)) = (&daemon.tracer, &cli.trace_out) {
        tracer
            .lock()
            .write_to(path)
            .map_err(|e| format!("cannot write trace `{}`: {e}", path.display()))?;
        log.info(
            "trace_written",
            None,
            &format!("fleet trace written to {}", path.display()),
            &[],
        );
    }
    Ok(())
}

fn send(stream: &mut TcpStream, msg: &CtldMsg) -> Result<(), String> {
    wire::write_frame(stream, &wire::encode_ctld(msg)).map_err(|e| e.to_string())
}

/// One client connection, handshake to teardown.
fn client_session(daemon: &Daemon, mut stream: TcpStream) -> Result<(), String> {
    accept_client(&mut stream).map_err(|e| format!("handshake: {e}"))?;
    let frame = wire::read_frame(&mut stream)
        .map_err(|e| e.to_string())?
        .ok_or("client closed before attaching")?;
    let (source, priority, declared_bytes) =
        match wire::decode_client(&frame).map_err(|e| e.to_string())? {
            ClientMsg::Attach {
                source,
                priority,
                declared_bytes,
            } => (source, priority, declared_bytes),
            ClientMsg::Detach => {
                daemon.log.info(
                    "client_detached",
                    None,
                    "client detached without attaching",
                    &[],
                );
                return Ok(()); // attached nothing; done
            }
        };

    // Admission: run now, park in the queue, or bounce with the typed
    // error. Tickets are daemon-side identities — the fleet session id is
    // only minted once we are admitted.
    let ticket = {
        let mut adm = daemon.admission.lock().expect("admission lock");
        let ticket = SessionId(adm.next_ticket);
        adm.next_ticket += 1;
        match adm.ctl.request(ticket, priority, declared_bytes) {
            AdmissionDecision::Admit => {
                daemon
                    .registry
                    .insert(ticket.0, priority, declared_bytes, Phase::Running);
                daemon.log.info(
                    "session_admitted",
                    Some(ticket.0),
                    &format!("session {} admitted", ticket.0),
                    &[("declared_bytes", Value::U64(declared_bytes))],
                );
            }
            AdmissionDecision::Reject(err) => {
                daemon.registry.insert(
                    ticket.0,
                    priority,
                    declared_bytes,
                    Phase::Rejected {
                        reason: err.to_string(),
                    },
                );
                daemon.log.warn(
                    "session_rejected",
                    Some(ticket.0),
                    &format!("session {} rejected: {err}", ticket.0),
                    &[],
                );
                drop(adm);
                send(&mut stream, &CtldMsg::Rejected(err))?;
                return Ok(());
            }
            AdmissionDecision::Queued { position } => {
                daemon.registry.insert(
                    ticket.0,
                    priority,
                    declared_bytes,
                    Phase::Queued {
                        position: position as u32,
                    },
                );
                daemon.log.info(
                    "session_queued",
                    Some(ticket.0),
                    &format!("session {} queued at position {position}", ticket.0),
                    &[("position", Value::U64(position as u64))],
                );
                drop(adm);
                send(
                    &mut stream,
                    &CtldMsg::Queued {
                        position: position as u32,
                    },
                )?;
                let mut adm = daemon.admission.lock().expect("admission lock");
                while !adm.promoted.remove(&ticket) {
                    adm = daemon
                        .promotions
                        .wait(adm)
                        .expect("admission lock poisoned");
                }
                daemon
                    .registry
                    .update(ticket.0, |e| e.phase = Phase::Running);
                daemon.log.info(
                    "session_promoted",
                    Some(ticket.0),
                    &format!("session {} promoted from the wait queue", ticket.0),
                    &[],
                );
            }
        }
        ticket
    };

    let outcome = run_admitted(daemon, &mut stream, &source, priority, ticket);

    // Release the slot and wake whoever now fits, success or not.
    {
        let mut adm = daemon.admission.lock().expect("admission lock");
        let winners = adm.ctl.release(ticket);
        adm.promoted.extend(winners);
        daemon.promotions.notify_all();
    }
    outcome
}

/// The admitted path: mint a fleet session, drive the script on its own
/// runtime, stream the results back.
fn run_admitted(
    daemon: &Daemon,
    stream: &mut TcpStream,
    source: &str,
    priority: Priority,
    ticket: SessionId,
) -> Result<(), String> {
    let (workers, session) = {
        let mut fleet = daemon.fleet.lock().expect("fleet lock");
        (fleet.workers(), fleet.session(priority.weight_factor()))
    };
    let sid = session.session_id();
    daemon.registry.update(ticket.0, |e| e.session = sid.0);
    send(stream, &CtldMsg::Attached { session: sid.0 })?;
    let mut rt = Runtime::builder()
        .workers(workers)
        .build_with_transport(Box::new(session))
        .map_err(|e| e.to_string())?;
    if let Some(tracer) = &daemon.tracer {
        // Satellite of the introspection plane: each tenant records on
        // its own lane stripe, so Perfetto shows "s1 worker 0" and
        // "s2 worker 0" as distinct tracks instead of one merged lane.
        rt.set_telemetry(tracer.telemetry().for_session(sid.0));
    }
    if let Some(journal) = &daemon.journal {
        let sink = journal.attach(sid, rt.planner().config(), &rt.planner().links().cloned());
        rt.add_op_sink(Box::new(sink));
    }
    rt.add_op_sink(Box::new(RegistryOpSink {
        registry: Arc::clone(&daemon.registry),
        ticket: ticket.0,
    }));
    let mut pg = Polyglot::with_runtime(rt);
    match run_script(&mut pg, source) {
        Ok(lines) => {
            let kernels = pg.runtime().stats().kernels;
            send(stream, &CtldMsg::Output { lines })?;
            // Registry first: a client that has read `Finished` must find
            // its session finished on `/sessions`.
            daemon
                .registry
                .update(ticket.0, |e| e.phase = Phase::Finished { kernels });
            send(stream, &CtldMsg::Finished { kernels })?;
            daemon.log.info(
                "session_finished",
                Some(sid.0),
                &format!("session {} finished: {kernels} kernels", sid.0),
                &[("kernels", Value::U64(kernels))],
            );
        }
        Err(e) => {
            send(
                stream,
                &CtldMsg::Failed {
                    message: e.to_string(),
                },
            )?;
            daemon.registry.update(ticket.0, |e2| {
                e2.phase = Phase::Failed {
                    message: e.to_string(),
                }
            });
            daemon.log.error(
                "session_failed",
                Some(sid.0),
                &format!("session {} failed: {e}", sid.0),
                &[],
            );
        }
    }
    // Final per-session metrics: refresh the wire view (tags the
    // registry with this session id) and snapshot for /metrics. The
    // snapshot survives the runtime, so finished sessions stay visible.
    let rt = pg.runtime_mut();
    rt.refresh_wire_metrics();
    let metrics = rt.metrics().snapshot(&[("role", "session")]);
    daemon
        .registry
        .update(ticket.0, |e| e.metrics = Some(metrics));
    // Dropping the Polyglot drops the runtime, whose SessionTransport
    // detaches: pending frames flush and the session's arrays/kernels are
    // reclaimed on every worker.
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_evicts_the_oldest_done_sessions_and_keeps_live_ones() {
        let reg = SessionRegistry::default();
        let p = Priority::Normal;
        reg.insert(1, p, 0, Phase::Running);
        reg.insert(2, p, 0, Phase::Queued { position: 1 });
        let last = 3 + 2 * RETAINED_DONE_SESSIONS as u64;
        for ticket in 3..=last {
            reg.insert(ticket, p, 0, Phase::Running);
            let phase = match ticket % 3 {
                0 => Phase::Finished { kernels: 1 },
                1 => Phase::Failed {
                    message: "boom".into(),
                },
                _ => Phase::Rejected {
                    reason: "full".into(),
                },
            };
            reg.update(ticket, |e| e.phase = phase);
        }
        let entries = reg.entries.lock().unwrap();
        assert_eq!(entries.len(), 2 + RETAINED_DONE_SESSIONS);
        assert!(matches!(entries[&1].phase, Phase::Running));
        assert!(matches!(entries[&2].phase, Phase::Queued { .. }));
        // The newest ended sessions are the ones kept.
        let oldest_kept = last + 1 - RETAINED_DONE_SESSIONS as u64;
        assert!(entries.keys().skip(2).all(|&t| t >= oldest_kept));
        // A rejected insert counts against the same cap.
        drop(entries);
        reg.insert(last + 1, p, 0, Phase::Rejected { reason: "x".into() });
        let entries = reg.entries.lock().unwrap();
        assert_eq!(entries.len(), 2 + RETAINED_DONE_SESSIONS);
        assert!(!entries.contains_key(&oldest_kept));
    }
}
