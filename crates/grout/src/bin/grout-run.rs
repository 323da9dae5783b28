//! `grout-run` — execute a GuestScript program on a GrOUT deployment.
//!
//! Usage:
//! ```text
//! grout-run <script.gs> [--workers N | --workers tcp:<addr>,<addr>,...]
//! grout-run -e '...inline script...' [--workers ...]
//! grout-run <script.gs> --connect <addr> [--priority low|normal|high]
//! ```
//!
//! `--workers N` deploys N in-process worker threads; `--workers
//! tcp:<addr>,...` connects to already-running `grout-workerd` processes
//! (one address per worker) and runs the same script distributed.
//! `--connect <addr>` instead attaches the script as one tenant session
//! on a running `grout-ctld` control plane and streams the results back.
//!
//! GuestScript is the repository's stand-in for the paper's guest languages
//! (Listing 1 is Python under GraalVM): a small dynamic language whose only
//! systems interface is `polyglot.eval`, over which arrays are allocated and
//! CUDA-dialect kernels are built and launched.

use std::net::TcpListener;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use grout::core::{ChromeTracer, OpSink, PlannerOp, Priority, Runtime, Shared};
use grout::net::oplog::{standby_serve, StandbyOutcome};
use grout::net::wire::CtldMsg;
use grout::polyglot::run_script;
use grout::Polyglot;
use grout::{
    apply_durability, parse_tcp_workers, ClientOutcome, CtldClient, DurabilityOptions, TcpConfig,
    TcpExt, WorkerSpec,
};

/// Where the workers live.
enum Workers {
    /// N in-process threads.
    Threads(usize),
    /// Already-listening `grout-workerd` endpoints.
    Tcp(Vec<String>),
}

struct Cli {
    workers: Workers,
    source: String,
    /// Write a merged Chrome/Perfetto trace here (controller lanes plus
    /// clock-aligned worker spans streamed back over the wire).
    trace_out: Option<PathBuf>,
    /// Write the unified metrics artifact (JSON) here.
    metrics_out: Option<PathBuf>,
    /// Print the per-peer wire summary table at end of run.
    stats: bool,
    /// TCP transport knobs (heartbeat cadence, staleness, resume window)
    /// — the `net:` flag block; in-process workers send no heartbeat.
    tcp: TcpConfig,
    /// Grouped op-log durability knobs (journal path, ship-log address) —
    /// the `durability:` flag block.
    durability: DurabilityOptions,
    /// Act as the hot-standby: listen here for a shipped op log, and take
    /// over (re-drive the script) if the primary dies mid-run.
    standby: Option<String>,
    /// Fault injection: SIGKILL ourselves after this many planner ops.
    die_after_ops: Option<u64>,
    /// Attach to a running `grout-ctld` control plane instead of owning a
    /// deployment.
    connect: Option<String>,
    /// Admission/fair-share class for `--connect` sessions.
    priority: Priority,
    /// Declared working-set bytes for `--connect` admission (0 = unknown).
    declared_bytes: u64,
}

fn main() -> ExitCode {
    match parse(std::env::args().skip(1)) {
        Ok(Some(cli)) => match run(cli) {
            Ok(()) => ExitCode::SUCCESS,
            Err(msg) => {
                eprintln!("grout-run: {msg}");
                ExitCode::FAILURE
            }
        },
        Ok(None) => ExitCode::SUCCESS, // --help
        Err(msg) => {
            eprintln!("grout-run: {msg}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage: grout-run <script.gs> | -e '<script>'
  workers:     --workers N | --workers tcp:<addr>,<addr>,...
  ctld client: --connect <addr>        attach as a session on a running grout-ctld
               --priority low|normal|high   admission/fair-share class
               --declare-bytes N       declared working set for admission
  net (tcp: workers only; in-process workers send no heartbeat):
               --heartbeat-ms N        worker heartbeat cadence
               --stale-after N         missed beats before a worker is suspected
               --reconnect-window-ms N resume grace before quarantine
  durability:  --journal <ops.grjl>    stream planner ops to a crash-recovery journal
               --ship-log <addr>       replicate the op log to a hot standby
               --standby <addr>        act as the hot standby (listen + take over)
               --die-after-ops N       fault injection: SIGKILL self after N ops
  telemetry:   --trace-out <trace.json>        merged Chrome/Perfetto trace
               --metrics-out <metrics.json>    unified metrics artifact
               --stats                 per-peer wire summary table";

/// Parses the command line; `Ok(None)` means `--help` was served.
fn parse(mut args: impl Iterator<Item = String>) -> Result<Option<Cli>, String> {
    let mut workers = Workers::Threads(2);
    let mut source: Option<String> = None;
    let mut trace_out = None;
    let mut metrics_out = None;
    let mut stats = false;
    let mut tcp = TcpConfig::default();
    let mut durability = DurabilityOptions::default();
    let mut standby = None;
    let mut die_after_ops = None;
    let mut connect = None;
    let mut priority = Priority::Normal;
    let mut declared_bytes = 0u64;
    fn positive<T: std::str::FromStr + PartialOrd + From<u8>>(
        flag: &str,
        v: Option<String>,
    ) -> Result<T, String> {
        let v = v.ok_or(format!("{flag} needs a positive integer"))?;
        match v.parse::<T>() {
            Ok(n) if n >= T::from(1u8) => Ok(n),
            _ => Err(format!("{flag} needs a positive integer, got `{v}`")),
        }
    }
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workers" => {
                let spec = args
                    .next()
                    .ok_or("--workers needs a count or tcp:<addr>,...")?;
                workers = parse_workers(&spec)?;
            }
            "--trace-out" => {
                trace_out = Some(PathBuf::from(
                    args.next().ok_or("--trace-out needs a path")?,
                ));
            }
            "--metrics-out" => {
                metrics_out = Some(PathBuf::from(
                    args.next().ok_or("--metrics-out needs a path")?,
                ));
            }
            "--stats" => stats = true,
            "--journal" => {
                durability.journal =
                    Some(PathBuf::from(args.next().ok_or("--journal needs a path")?));
            }
            "--ship-log" => {
                durability.ship_log = Some(args.next().ok_or("--ship-log needs an address")?);
            }
            "--standby" => {
                standby = Some(args.next().ok_or("--standby needs a listen address")?);
            }
            "--die-after-ops" => {
                let n = args.next().ok_or("--die-after-ops needs a count")?;
                let n: u64 = n
                    .parse()
                    .map_err(|_| format!("--die-after-ops needs a positive integer, got `{n}`"))?;
                if n == 0 {
                    return Err("--die-after-ops needs at least one op".into());
                }
                die_after_ops = Some(n);
            }
            "--connect" => {
                connect = Some(args.next().ok_or("--connect needs a ctld address")?);
            }
            "--priority" => {
                let p = args.next().ok_or("--priority needs low|normal|high")?;
                priority = Priority::parse(&p)?;
            }
            "--declare-bytes" => {
                let n = args.next().ok_or("--declare-bytes needs a byte count")?;
                declared_bytes = n
                    .parse()
                    .map_err(|_| format!("--declare-bytes needs a byte count, got `{n}`"))?;
            }
            "--heartbeat-ms" => {
                let ms: u32 = positive("--heartbeat-ms", args.next())?;
                tcp.heartbeat = Duration::from_millis(ms.into())
            }
            "--stale-after" => tcp.stale_after_beats = positive("--stale-after", args.next())?,
            "--reconnect-window-ms" => {
                tcp.reconnect_window =
                    Duration::from_millis(positive("--reconnect-window-ms", args.next())?)
            }
            "-e" => {
                let inline = args.next().ok_or("-e needs an inline script")?;
                source = Some(inline);
            }
            "-h" | "--help" => {
                println!("{USAGE}");
                return Ok(None);
            }
            path if !path.starts_with('-') => {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| format!("cannot read `{path}`: {e}"))?;
                source = Some(text);
            }
            other => return Err(format!("unknown argument `{other}`; see --help")),
        }
    }
    let source = source.ok_or("no script given; see --help")?;
    Ok(Some(Cli {
        workers,
        source,
        trace_out,
        metrics_out,
        stats,
        tcp,
        durability,
        standby,
        die_after_ops,
        connect,
        priority,
        declared_bytes,
    }))
}

fn parse_workers(spec: &str) -> Result<Workers, String> {
    if let Some(addrs) = parse_tcp_workers(spec) {
        return addrs.map(Workers::Tcp);
    }
    let n: usize = spec.parse().map_err(|_| {
        format!("--workers needs a positive integer or tcp:<addr>,..., got `{spec}`")
    })?;
    if n == 0 {
        return Err("--workers needs at least one worker".into());
    }
    Ok(Workers::Threads(n))
}

/// An [`OpSink`] that SIGKILLs the process after N ops — deterministic
/// "primary crashes mid-run" fault injection for the failover tests.
/// Added *after* the journal/ship sinks, so the fatal op is durable and
/// acknowledged before the process dies, exactly like a real crash
/// between two ops.
struct KillSwitch {
    remaining: u64,
}

impl OpSink for KillSwitch {
    fn append(&mut self, seq: u64, _op: &PlannerOp, _digest: Option<u64>) {
        if self.remaining == 0 {
            return;
        }
        self.remaining -= 1;
        if self.remaining == 0 {
            eprintln!("[grout-run] --die-after-ops reached at op {seq}; SIGKILLing self");
            let pid = std::process::id().to_string();
            let _ = std::process::Command::new("kill")
                .args(["-9", &pid])
                .status();
            // SIGKILL is not trappable; we never get here.
        }
    }
}

fn run(cli: Cli) -> Result<(), String> {
    if cli.standby.is_some() {
        return run_standby(&cli);
    }
    if cli.connect.is_some() {
        return run_connect(&cli);
    }
    run_exec(&cli)
}

/// The ctld-client path: attach the script as one tenant session on a
/// running control plane, stream its frames, exit with the outcome. A
/// typed admission rejection prints the reason and exits cleanly
/// (nonzero, but no panic and no partial output).
fn run_connect(cli: &Cli) -> Result<(), String> {
    let addr = cli.connect.as_deref().expect("checked by run()");
    let mut client =
        CtldClient::connect(addr).map_err(|e| format!("cannot attach to ctld `{addr}`: {e}"))?;
    let outcome = client
        .run(
            &cli.source,
            cli.priority,
            cli.declared_bytes,
            |msg| match msg {
                CtldMsg::Attached { session } => {
                    eprintln!(
                        "[grout-run] attached as session {session} ({})",
                        cli.priority
                    );
                }
                CtldMsg::Queued { position } => {
                    eprintln!("[grout-run] queued at position {position}; waiting");
                }
                _ => {}
            },
        )
        .map_err(|e| format!("ctld session lost: {e}"))?;
    match outcome {
        ClientOutcome::Finished { lines, kernels, .. } => {
            for line in lines {
                println!("{line}");
            }
            eprintln!("[grout-run] {kernels} kernels via ctld {addr}");
            Ok(())
        }
        ClientOutcome::Rejected(err) => Err(format!("admission rejected: {err}")),
        ClientOutcome::Failed(message) => Err(format!("script failed on ctld: {message}")),
    }
}

/// The normal (primary) path: build the deployment, attach the op-log
/// sinks, drive the script, emit artifacts.
fn run_exec(cli: &Cli) -> Result<(), String> {
    let (mut rt, n, transport) = match &cli.workers {
        Workers::Threads(n) => {
            let rt = Runtime::builder()
                .workers(*n)
                .build_local()
                .map_err(|e| e.to_string())?;
            (rt, *n, "threads")
        }
        Workers::Tcp(addrs) => {
            let rt = Runtime::builder()
                .tcp(addrs.iter().cloned().map(WorkerSpec::Connect).collect())
                .config(cli.tcp.clone())
                .build()
                .map_err(|e| e.to_string())?;
            (rt.into_inner(), addrs.len(), "tcp")
        }
    };
    apply_durability(&mut rt, &cli.durability).map_err(|e| e.to_string())?;
    let mut pg = Polyglot::with_runtime(rt);
    // Added after the journal/ship sinks so the fatal op is durable and
    // acknowledged before the process dies.
    if let Some(ops) = cli.die_after_ops {
        pg.runtime_mut()
            .add_op_sink(Box::new(KillSwitch { remaining: ops }));
    }
    // Attach the tracer before any CE runs so worker-side recording is
    // switched on from the first kernel.
    let tracer = cli
        .trace_out
        .as_ref()
        .map(|_| Shared::new(ChromeTracer::new()));
    if let Some(t) = &tracer {
        pg.runtime_mut().set_telemetry(t.telemetry());
    }
    let output = run_script(&mut pg, &cli.source).map_err(|e| e.to_string())?;
    for line in output {
        println!("{line}");
    }
    pg.runtime_mut().refresh_wire_metrics();
    if let (Some(path), Some(t)) = (&cli.trace_out, &tracer) {
        t.lock()
            .write_to(path)
            .map_err(|e| format!("cannot write trace `{}`: {e}", path.display()))?;
        eprintln!("[grout-run] trace written to {}", path.display());
    }
    if let Some(path) = &cli.metrics_out {
        let snap = pg.runtime().metrics().snapshot(&[]);
        let body = serde_json::to_string_pretty(&snap.to_json()).expect("render metrics");
        std::fs::write(path, body)
            .map_err(|e| format!("cannot write metrics `{}`: {e}", path.display()))?;
        eprintln!("[grout-run] metrics written to {}", path.display());
    }
    if cli.stats {
        print_wire_stats(pg.runtime().metrics());
    }
    let stats = pg.runtime().stats();
    eprintln!(
        "[grout-run] {} kernels on {} {} workers; {}B sent, {}B p2p, {}B fetched",
        stats.kernels, n, transport, stats.send_bytes, stats.p2p_bytes, stats.fetch_bytes
    );
    Ok(())
}

/// The hot-standby path: tail the primary's op log into a replica
/// planner, acking each op with the replica's rolling
/// `Planner::op_digest` (not its state digest). If the primary finishes
/// cleanly, exit without a word on stdout; if it dies, take over — adopt
/// the worker fleet (the workerds re-accept a new controller) and
/// re-drive the script from the top on a fresh planner. Nothing checks
/// the re-driven run's ops against the replica's log.
fn run_standby(cli: &Cli) -> Result<(), String> {
    let addr = cli.standby.as_deref().expect("checked by run()");
    let listener =
        TcpListener::bind(addr).map_err(|e| format!("cannot listen on `{addr}`: {e}"))?;
    let local = listener
        .local_addr()
        .map_err(|e| format!("cannot resolve standby address: {e}"))?;
    eprintln!("STANDBY LISTENING {local}");
    match standby_serve(&listener).map_err(|e| format!("standby session failed: {e}"))? {
        StandbyOutcome::CleanFinish { ops_applied, .. } => {
            eprintln!(
                "[grout-run] standby: primary finished cleanly after {ops_applied} ops; exiting"
            );
            Ok(())
        }
        StandbyOutcome::PrimaryDied {
            replica,
            ops_applied,
        } => {
            eprintln!(
                "[grout-run] standby: primary died after {ops_applied} ops \
                 (replica digest {:016x}); taking over",
                replica.state_digest()
            );
            run_exec(cli)
        }
    }
}

/// End-of-run per-peer wire summary (the `--stats` table). The layout is
/// stable regardless of sample counts: every worker gets a row and every
/// count column renders `0` — never a blank cell, never a missing table
/// — so scripts can parse the output of an in-process run (which tracks
/// no wire frames) exactly like a TCP run's.
fn print_wire_stats(metrics: &grout::core::Metrics) {
    eprintln!(
        "[grout-run] {:<6} {:>12} {:>12} {:>12} {:>12} {:>8} {:>8} {:>10} {:>10} {:>10}",
        "peer",
        "frames_out",
        "bytes_out",
        "frames_in",
        "bytes_in",
        "resumes",
        "rtt_n",
        "rtt_p50",
        "rtt_p99",
        "offset_ns"
    );
    let zero = grout::core::PeerWireStats::default();
    let workers = metrics.wire.len().max(metrics.kernels_by_worker.len());
    for w in 0..workers {
        let s = metrics.wire.get(w).unwrap_or(&zero);
        eprintln!(
            "[grout-run] w{:<5} {:>12} {:>12} {:>12} {:>12} {:>8} {:>8} {:>10} {:>10} {:>10}",
            w,
            s.frames_sent,
            s.bytes_sent,
            s.frames_recv,
            s.bytes_recv,
            s.resumes,
            s.hb_rtt.count,
            s.hb_rtt.percentile_ns(0.5),
            s.hb_rtt.percentile_ns(0.99),
            s.clock_offset_ns
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Cli {
        let args = args.iter().map(|a| a.to_string());
        parse(args).expect("valid flags").expect("not --help")
    }

    #[test]
    fn liveness_flags_write_the_tcp_config() {
        let c = cli(&[
            "-e",
            "print(1)",
            "--workers",
            "tcp:127.0.0.1:1, 127.0.0.1:2",
            "--heartbeat-ms",
            "20",
            "--stale-after",
            "3",
            "--reconnect-window-ms",
            "15000",
        ]);
        assert!(matches!(&c.workers, Workers::Tcp(a) if a == &["127.0.0.1:1", "127.0.0.1:2"]));
        assert_eq!(c.tcp.heartbeat, Duration::from_millis(20));
        assert_eq!(c.tcp.stale_after_beats, 3);
        assert_eq!(c.tcp.reconnect_window, Duration::from_millis(15_000));
        // Every other transport setting keeps its default.
        let d = TcpConfig::default();
        assert_eq!(c.tcp.probe_bytes, d.probe_bytes);
        assert_eq!(c.tcp.probe_timeout, d.probe_timeout);
        assert_eq!(c.tcp.spawn_timeout, d.spawn_timeout);
        assert!(c.tcp.net_faults.is_empty());

        let d = cli(&["-e", "print(1)"]).tcp;
        assert_eq!(d.heartbeat, TcpConfig::default().heartbeat);
        assert_eq!(d.stale_after_beats, TcpConfig::default().stale_after_beats);
        assert_eq!(d.reconnect_window, TcpConfig::default().reconnect_window);
    }

    #[test]
    fn workers_flag_messages_are_unchanged() {
        let err = |args: &[&str]| {
            let args = args.iter().map(|a| a.to_string());
            parse(args).err().expect("rejected")
        };
        assert_eq!(
            err(&["--workers", "tcp: , "]),
            "--workers tcp: needs at least one address"
        );
        assert_eq!(
            err(&["--workers", "x"]),
            "--workers needs a positive integer or tcp:<addr>,..., got `x`"
        );
        assert_eq!(
            err(&["--workers", "0"]),
            "--workers needs at least one worker"
        );
        assert_eq!(
            err(&["--heartbeat-ms", "0"]),
            "--heartbeat-ms needs a positive integer, got `0`"
        );
        // The handshake carries the cadence as a u32 of milliseconds.
        assert_eq!(
            err(&["--heartbeat-ms", "4294967296"]),
            "--heartbeat-ms needs a positive integer, got `4294967296`"
        );
        assert!(matches!(
            cli(&["-e", "1", "--workers", "3"]).workers,
            Workers::Threads(3)
        ));
    }
}
