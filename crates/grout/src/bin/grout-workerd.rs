//! `grout-workerd` — one GrOUT worker endpoint per process.
//!
//! Usage:
//! ```text
//! grout-workerd [--listen <addr>] [--http <addr>]
//! ```
//!
//! Binds `<addr>` (default `127.0.0.1:0`, letting the OS pick a port),
//! announces the bound address as `LISTENING <addr>` on stdout — the line
//! a spawning controller (or a shell script) waits for — then serves the
//! GrOUT wire protocol until the controller sends a shutdown frame or
//! disconnects. With `--http`, a live introspection endpoint serves
//! `/metrics` and `/healthz` alongside (a second `HTTP <addr>` stdout
//! line announces it).
//!
//! Two-terminal quick start (see README):
//!
//! ```text
//! $ grout-workerd --listen 127.0.0.1:7401   # terminal 1
//! $ grout-workerd --listen 127.0.0.1:7402   # terminal 2
//! $ grout-run script.gs --workers tcp:127.0.0.1:7401,127.0.0.1:7402
//! ```

use std::io::Write;
use std::net::TcpListener;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::sync::OnceLock;

use grout::core::eventlog::{self, EventLog};
use grout::core::{monotonic_ns, MetricKind, MetricsSnapshot};
use grout::net::http::{HttpServer, Introspect};
use serde_json::Value;

/// Set by the SIGTERM handler; the serve loop polls it on its telemetry
/// tick and exits through the graceful-leave path.
static SHUTDOWN: OnceLock<Arc<AtomicBool>> = OnceLock::new();

/// SIGTERM handler: one atomic store (async-signal-safe); all real work
/// (telemetry flush, clean Leave frame) happens on the serve thread.
extern "C" fn on_sigterm(_sig: i32) {
    if let Some(flag) = SHUTDOWN.get() {
        flag.store(true, Ordering::SeqCst);
    }
}

/// Installs `on_sigterm` via the C `signal(2)` entry point — the one
/// binding this no-deps workspace allows itself instead of a libc crate.
fn install_sigterm(flag: Arc<AtomicBool>) {
    const SIGTERM: i32 = 15;
    let _ = SHUTDOWN.set(flag);
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    unsafe {
        signal(SIGTERM, on_sigterm as *const () as usize);
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("grout-workerd: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// The worker's `/metrics` + `/healthz` source. A worker holds no
/// fleet-wide state — sessions, placement and per-tenant accounting
/// live on the controller — so this reports process liveness, uptime
/// and draining state; scrape the controller for everything else.
struct WorkerdIntrospect {
    shutdown: Arc<AtomicBool>,
    started_ns: u64,
}

impl Introspect for WorkerdIntrospect {
    fn metrics_text(&self) -> String {
        let mut snap = MetricsSnapshot::new();
        snap.push(
            "grout_up",
            MetricKind::Gauge,
            "1 while the daemon serves",
            &[("role", "worker")],
            1.0,
        );
        snap.push(
            "grout_uptime_seconds",
            MetricKind::Gauge,
            "Seconds since the daemon started",
            &[("role", "worker")],
            monotonic_ns().saturating_sub(self.started_ns) as f64 / 1e9,
        );
        snap.push(
            "grout_draining",
            MetricKind::Gauge,
            "1 once SIGTERM was received and the worker is draining",
            &[("role", "worker")],
            if self.shutdown.load(Ordering::SeqCst) {
                1.0
            } else {
                0.0
            },
        );
        snap.to_prometheus()
    }

    fn healthz_json(&self) -> String {
        let doc = Value::Object(vec![
            ("healthy".to_string(), Value::Bool(self.healthy())),
            ("role".to_string(), Value::String("worker".to_string())),
            (
                "uptime_ms".to_string(),
                Value::U64(monotonic_ns().saturating_sub(self.started_ns) / 1_000_000),
            ),
            (
                "wire_version".to_string(),
                Value::U64(grout::net::wire::WIRE_VERSION as u64),
            ),
        ]);
        serde_json::to_string(&doc).expect("render healthz")
    }

    fn healthy(&self) -> bool {
        !self.shutdown.load(Ordering::SeqCst)
    }

    fn sessions_json(&self) -> String {
        "[]".to_string()
    }

    fn trace_json(&self, _last_ms: u64) -> String {
        r#"{"traceEvents":[]}"#.to_string()
    }
}

fn run() -> Result<(), String> {
    let mut listen = String::from("127.0.0.1:0");
    let mut http = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--listen" => {
                listen = args
                    .next()
                    .ok_or_else(|| "--listen needs an address".to_string())?;
            }
            "--http" => {
                http = Some(
                    args.next()
                        .ok_or_else(|| "--http needs an address".to_string())?,
                );
            }
            "-h" | "--help" => {
                println!("usage: grout-workerd [--listen <addr>] [--http <addr>]");
                return Ok(());
            }
            other => return Err(format!("unknown argument `{other}`; see --help")),
        }
    }
    let log = EventLog::stderr("grout-workerd");
    eventlog::init(log.clone());
    let listener =
        TcpListener::bind(&listen).map_err(|e| format!("cannot bind `{listen}`: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("cannot resolve bound address: {e}"))?;
    // The announcement a spawning controller waits for; flush so the line
    // crosses the pipe before we block in accept().
    println!("LISTENING {addr}");
    // SIGTERM drains gracefully: flush telemetry, send a clean Leave so
    // the controller re-plans immediately, exit 0.
    let shutdown = Arc::new(AtomicBool::new(false));
    install_sigterm(Arc::clone(&shutdown));
    let _http = match &http {
        Some(http_addr) => {
            let http_listener = TcpListener::bind(http_addr)
                .map_err(|e| format!("cannot bind http endpoint `{http_addr}`: {e}"))?;
            let server = HttpServer::spawn(
                http_listener,
                Arc::new(WorkerdIntrospect {
                    shutdown: Arc::clone(&shutdown),
                    started_ns: monotonic_ns(),
                }),
            )
            .map_err(|e| format!("cannot start http endpoint: {e}"))?;
            println!("HTTP {}", server.local_addr());
            Some(server)
        }
        None => None,
    };
    let _ = std::io::stdout().flush();
    // Operator-facing startup line: a silent daemon is indistinguishable
    // from a hung one.
    log.info(
        "listening",
        None,
        &format!(
            "[grout-workerd] listening on {addr} (wire v{})",
            grout::net::wire::WIRE_VERSION
        ),
        &[(
            "wire_version",
            Value::U64(grout::net::wire::WIRE_VERSION as u64),
        )],
    );
    grout::serve_shutdown(listener, shutdown).map_err(|e| e.to_string())
}
