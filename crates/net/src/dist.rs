//! The distributed front-end: [`WorkerSpec`], [`TcpExt`] and
//! [`DistRuntime`].
//!
//! ```no_run
//! use std::time::Duration;
//!
//! use grout_core::Runtime;
//! use grout_net::{TcpConfig, TcpExt, WorkerSpec};
//!
//! let mut rt = Runtime::builder()
//!     .tcp(vec![
//!         WorkerSpec::Connect("127.0.0.1:7401".into()),
//!         WorkerSpec::Connect("127.0.0.1:7402".into()),
//!     ])
//!     .config(TcpConfig {
//!         heartbeat: Duration::from_millis(50),
//!         stale_after_beats: 4,
//!         ..TcpConfig::default()
//!     })
//!     .build()
//!     .expect("workers reachable");
//! let a = rt.alloc_f32(1024);
//! # let _ = a;
//! ```
//!
//! Each [`WorkerSpec`] is one worker endpoint: either an already-running
//! `grout-workerd` to connect to, or a binary to spawn (the spec waits for
//! its `LISTENING <addr>` announcement on stdout). The builder's knob
//! surface (policy, faults, telemetry, ...) carries over unchanged; only
//! the transport differs from `build_local()`, and every transport
//! setting comes from one [`TcpConfig`] ([`DistBuilder::config`]).

use std::io::BufRead;
use std::process::{Child, Command, Stdio};

use grout_core::{LocalError, LocalRuntime, RuntimeBuilder};

use crate::oplog::{JournalSink, ShipSink};
use crate::transport::{TcpConfig, TcpTransport};

/// Where the planner's op log goes: the sinks [`apply_durability`]
/// attaches to a built runtime.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DurabilityOptions {
    /// Stream every planner op to this crash-recovery journal file.
    pub journal: Option<std::path::PathBuf>,
    /// Ship every planner op to a hot-standby controller at this address.
    pub ship_log: Option<String>,
}

/// One worker endpoint of a distributed deployment.
#[derive(Debug, Clone)]
pub enum WorkerSpec {
    /// Connect to a `grout-workerd` already listening at this address.
    Connect(String),
    /// Spawn this `grout-workerd` binary with `--listen 127.0.0.1:0` and
    /// adopt it (the OS picks the port; the daemon announces it).
    Spawn(std::path::PathBuf),
}

/// Why a distributed deployment failed to come up.
#[derive(Debug)]
pub enum DistError {
    /// A `Spawn` spec's process could not be launched or never announced
    /// its listen address.
    Spawn {
        /// The binary.
        program: String,
        /// What went wrong.
        error: String,
    },
    /// The runtime rejected the mesh (config error, or every single
    /// worker was unreachable).
    Local(LocalError),
    /// A durability sink (the op-log journal file or the hot-standby
    /// ship-log connection) could not be set up.
    Durability(String),
}

impl std::fmt::Display for DistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DistError::Spawn { program, error } => {
                write!(f, "cannot spawn worker `{program}`: {error}")
            }
            DistError::Local(e) => write!(f, "{e}"),
            DistError::Durability(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for DistError {}

impl From<LocalError> for DistError {
    fn from(e: LocalError) -> Self {
        DistError::Local(e)
    }
}

/// A [`LocalRuntime`] whose workers are processes on the other end of TCP
/// sockets. Derefs to the runtime — the full API (alloc, launch,
/// synchronize, stats, telemetry) is identical; the extras here are the
/// process-level handles the chaos harness needs.
pub struct DistRuntime {
    inner: LocalRuntime,
    pids: Vec<Option<u32>>,
    addrs: Vec<String>,
    /// Transport knobs kept for mid-run spawns ([`DistRuntime::join`]).
    cfg: TcpConfig,
    /// Daemons spawned by [`DistRuntime::join`] mid-run: the transport
    /// owns startup children, but a joined child is reaped here on
    /// [`DistRuntime::leave`] (the transport sits behind the `Transport`
    /// trait object by then).
    joined: Vec<(usize, Child)>,
}

impl DistRuntime {
    /// Attaches one more worker to the running mesh (elastic scale-out):
    /// spawns the daemon if the spec asks for it, dials and handshakes
    /// it, re-probes its links incrementally and grows the plan's worker
    /// set through the op log. Returns the new worker's index.
    ///
    /// The newcomer starts empty and receives kernels and inputs on
    /// demand — the very next plan can place CEs on it.
    pub fn join(&mut self, spec: WorkerSpec) -> Result<usize, DistError> {
        let (addr, child) = match spec {
            WorkerSpec::Connect(addr) => (addr, None),
            WorkerSpec::Spawn(bin) => {
                let (child, addr) = spawn_workerd(&bin, &self.cfg)?;
                (addr, Some(child))
            }
        };
        let w = match self.inner.join_worker(&addr) {
            Ok(w) => w,
            Err(e) => {
                if let Some(mut child) = child {
                    let _ = child.kill();
                    let _ = child.wait();
                }
                return Err(e.into());
            }
        };
        if self.addrs.len() <= w {
            self.addrs.resize_with(w + 1, String::new);
            self.pids.resize(w + 1, None);
        }
        self.addrs[w] = addr;
        if let Some(child) = child {
            self.pids[w] = Some(child.id());
            self.joined.push((w, child));
        }
        Ok(w)
    }

    /// Detaches worker `w` cleanly (elastic scale-in): sole-copy data is
    /// rebalanced off the worker first, the daemon is asked to flush and
    /// halt, and — if this runtime spawned it via [`DistRuntime::join`] —
    /// the process is reaped. No quarantine, no lineage replay.
    pub fn leave(&mut self, w: usize) -> Result<(), DistError> {
        self.inner.leave_worker(w)?;
        if let Some(at) = self.joined.iter().position(|(i, _)| *i == w) {
            let (_, mut child) = self.joined.swap_remove(at);
            // The daemon exits on the Leave ack; bound the reap so a
            // wedged process cannot hang the controller.
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
            loop {
                match child.try_wait() {
                    Ok(Some(_)) => break,
                    Ok(None) if std::time::Instant::now() < deadline => {
                        std::thread::sleep(std::time::Duration::from_millis(20));
                    }
                    _ => {
                        let _ = child.kill();
                        let _ = child.wait();
                        break;
                    }
                }
            }
        }
        Ok(())
    }

    /// OS pid of the spawned `grout-workerd` backing worker `w` (`None`
    /// for `Connect` workers, which this runtime does not own).
    pub fn worker_pid(&self, w: usize) -> Option<u32> {
        self.pids.get(w).copied().flatten()
    }

    /// Listen address of worker `w`'s daemon. A chaos harness that killed
    /// the process can restart a fresh `grout-workerd` here (see
    /// [`spawn_workerd_at`]) and call
    /// [`rejoin`](grout_core::LocalRuntime::rejoin) to fold it back into
    /// the mesh under a new membership epoch.
    pub fn worker_addr(&self, w: usize) -> Option<&str> {
        self.addrs.get(w).map(String::as_str)
    }

    /// The wrapped runtime.
    pub fn into_inner(self) -> LocalRuntime {
        self.inner
    }
}

impl std::ops::Deref for DistRuntime {
    type Target = LocalRuntime;
    fn deref(&self) -> &LocalRuntime {
        &self.inner
    }
}

impl std::ops::DerefMut for DistRuntime {
    fn deref_mut(&mut self) -> &mut LocalRuntime {
        &mut self.inner
    }
}

/// Builder tail for distributed deployments; made by [`TcpExt::tcp`].
pub struct DistBuilder {
    builder: RuntimeBuilder,
    specs: Vec<WorkerSpec>,
    cfg: TcpConfig,
}

impl DistBuilder {
    /// Every transport setting of this deployment: heartbeat, staleness,
    /// resume window, probe sizing, spawn timeout and the network-chaos
    /// plan. Defaults to [`TcpConfig::default`].
    pub fn config(mut self, cfg: TcpConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Spawn/connect all workers, run the handshake + bandwidth-probe
    /// round, and build the runtime over the resulting mesh. Op-log
    /// sinks are the caller's: see [`apply_durability`].
    pub fn build(self) -> Result<DistRuntime, DistError> {
        let cfg = self.cfg;
        let mut addrs = Vec::with_capacity(self.specs.len());
        let mut children: Vec<Option<Child>> = Vec::with_capacity(self.specs.len());
        for spec in &self.specs {
            match spec {
                WorkerSpec::Connect(addr) => {
                    addrs.push(addr.clone());
                    children.push(None);
                }
                WorkerSpec::Spawn(bin) => {
                    let (child, addr) = spawn_workerd(bin, &cfg)?;
                    addrs.push(addr);
                    children.push(Some(child));
                }
            }
        }
        let transport = TcpTransport::connect(&addrs, children, &cfg);
        let pids = transport.child_pids();
        let builder = self.builder.workers(addrs.len());
        let inner = builder.build_with_transport(Box::new(transport))?;
        Ok(DistRuntime {
            inner,
            pids,
            addrs,
            cfg,
            joined: Vec::new(),
        })
    }
}

/// Adds the distributed entry point to [`RuntimeBuilder`]; import the
/// trait and every existing builder chain gains `.tcp(...)`.
pub trait TcpExt {
    /// Deploy over TCP to these worker endpoints (the worker count is
    /// taken from the spec list, overriding `.workers(n)`).
    fn tcp(self, specs: Vec<WorkerSpec>) -> DistBuilder;
}

impl TcpExt for RuntimeBuilder {
    fn tcp(self, specs: Vec<WorkerSpec>) -> DistBuilder {
        DistBuilder {
            builder: self,
            specs,
            cfg: TcpConfig::default(),
        }
    }
}

/// Attaches the op-log durability sinks a [`DurabilityOptions`] asks
/// for: a [`JournalSink`] streaming every planner op to the journal file,
/// a [`ShipSink`] replicating it to the hot standby. Every front end calls
/// this on its built runtime, in-process or TCP alike.
pub fn apply_durability(rt: &mut LocalRuntime, opts: &DurabilityOptions) -> Result<(), DistError> {
    if opts.journal.is_none() && opts.ship_log.is_none() {
        return Ok(());
    }
    let cfg = rt.planner().config().clone();
    let links = rt.planner().links().cloned();
    if let Some(path) = &opts.journal {
        let sink = JournalSink::create(path, &cfg, &links).map_err(|e| {
            DistError::Durability(format!("cannot create journal `{}`: {e}", path.display()))
        })?;
        rt.add_op_sink(Box::new(sink));
        eprintln!("[grout] journalling planner ops to {}", path.display());
    }
    if let Some(addr) = &opts.ship_log {
        let sink = ShipSink::connect(addr, &cfg, &links)
            .map_err(|e| DistError::Durability(format!("cannot reach standby at {addr}: {e}")))?;
        rt.add_op_sink(Box::new(sink));
        eprintln!("[grout] shipping op log to standby at {addr}");
    }
    Ok(())
}

/// Launches `bin --listen 127.0.0.1:0` and waits for its
/// `LISTENING <addr>` announcement.
pub fn spawn_workerd(bin: &std::path::Path, cfg: &TcpConfig) -> Result<(Child, String), DistError> {
    spawn_workerd_at(bin, "127.0.0.1:0", cfg)
}

/// Launches `bin --listen <listen>` and waits for its `LISTENING <addr>`
/// announcement. With an explicit port this restarts a worker at the
/// address the mesh already knows — the rejoin path: kill, respawn here,
/// then [`rejoin`](grout_core::LocalRuntime::rejoin).
pub fn spawn_workerd_at(
    bin: &std::path::Path,
    listen: &str,
    cfg: &TcpConfig,
) -> Result<(Child, String), DistError> {
    let program = bin.display().to_string();
    let mut child = Command::new(bin)
        .args(["--listen", listen])
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| DistError::Spawn {
            program: program.clone(),
            error: e.to_string(),
        })?;
    let stdout = child.stdout.take().expect("stdout piped");
    // Read the announcement on a thread so a wedged child cannot hang us
    // past the spawn timeout.
    let (tx, rx) = std::sync::mpsc::channel::<Option<String>>();
    std::thread::spawn(move || {
        let mut lines = std::io::BufReader::new(stdout).lines();
        let addr = lines
            .next()
            .and_then(|l| l.ok())
            .and_then(|l| l.strip_prefix("LISTENING ").map(|a| a.trim().to_string()));
        let _ = tx.send(addr);
        // Keep draining so the child never blocks on a full pipe.
        for _ in lines {}
    });
    match rx.recv_timeout(cfg.spawn_timeout) {
        Ok(Some(addr)) => Ok((child, addr)),
        Ok(None) | Err(_) => {
            let _ = child.kill();
            let _ = child.wait();
            Err(DistError::Spawn {
                program,
                error: "no LISTENING announcement before the spawn timeout".into(),
            })
        }
    }
}
