//! `tenants_ctld`: a real `grout-ctld` in front of two `grout-workerd`,
//! two client connections at a time, each running back-to-back sessions
//! of a generated GuestScript. The control plane (admission, fair share,
//! `FleetMux`, batching, the session journal, the client protocol and the
//! script interpreter) is the work.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use grout::core::{ChannelTransport, FleetMux, LinkMatrix, PlannerConfig, PolicyKind};
use grout::net::ctld::read_session_journal;
use grout::net::wire::CtldMsg;
use grout::polyglot::run_script;
use grout::{http_get, ClientOutcome, CtldClient, Polyglot, Priority, Runtime};

use crate::daemons::{cpu_seconds, peak_rss_mib, spawn_workerd, Bins, Daemon, Env};
use crate::harness::{or_fail, traced_rep, RunArgs, Samples, MIN_SETUPS};
use crate::local::{local_args, OpLog};
use crate::probes;
use crate::program::{self, Rng, Step};
use crate::report::Report;
use crate::spans::{Trace, NONE};
use crate::stats::median;

/// Name in the catalogue.
pub const NAME: &str = "tenants_ctld";
/// Concurrent client connections.
const CLIENTS: usize = 2;
/// Back-to-back sessions per client per rep.
const SESSIONS: usize = 6;
/// Seeded launches per script (four more fill the arrays).
const LAUNCHES: usize = 256;
/// Arrays per script.
const POOL: usize = 4;
/// Minimal one-launch sessions timed after each rep's tenants.
const RTT_OPS: usize = 10;

const FILL: &str = "__global__ void fillk(float* y, float a, int n) { int i = blockIdx.x * blockDim.x + threadIdx.x; if (i < n) { y[i] = a * (float)i + 1.0; } }";
const SCALE: &str = "__global__ void scale(float* y, float a, int n) { int i = blockIdx.x * blockDim.x + threadIdx.x; if (i < n) { y[i] = a * y[i]; } }";
const SAXPY: &str = "__global__ void saxpy(float* y, const float* x, float a, int n) { int i = blockIdx.x * blockDim.x + threadIdx.x; if (i < n) { y[i] = a * x[i] + y[i]; } }";

fn prelude(arrays: usize) -> String {
    let mut s = String::from("build = polyglot.eval(\"grout\", \"buildkernel\")\n");
    s += &format!(
        "fillk = build(\"{FILL}\", \"fillk(y: out pointer float, a: float, n: sint32)\")\n"
    );
    s += &format!(
        "scale = build(\"{SCALE}\", \"scale(y: inout pointer float, a: float, n: sint32)\")\n"
    );
    s += &format!(
        "saxpy = build(\"{SAXPY}\", \"saxpy(y: inout pointer float, x: in pointer float, a: float, n: sint32)\")\n"
    );
    for k in 0..arrays {
        s += &format!("a{k} = polyglot.eval(\"grout\", \"float[256]\")\n");
        s += &format!("fillk(2, 128)(a{k}, {:.6}, 256)\n", 0.001 * (k + 1) as f32);
    }
    s
}

/// The tenant script: kernels built through `buildkernel`, four arrays
/// filled by a kernel (GuestScript has no bulk host write), 256 seeded
/// `scale`/`saxpy` launches written out one per line, then element reads
/// and an array print.
pub fn script(seed: u64) -> String {
    let mut rng = Rng::new(seed, 5);
    let mut s = prelude(POOL);
    for _ in 0..LAUNCHES {
        let y = rng.below(POOL);
        if rng.below(2) == 0 {
            s += &format!(
                "scale(2, 128)(a{y}, {:.6}, 256)\n",
                rng.f32_in(0.995, 1.005)
            );
        } else {
            let x = (y + 1 + rng.below(POOL - 1)) % POOL;
            s += &format!(
                "saxpy(2, 128)(a{y}, a{x}, {:.6}, 256)\n",
                rng.f32_in(-0.001, 0.001)
            );
        }
    }
    for k in 0..POOL {
        s += &format!("print(a{k}[{}])\n", rng.below(256));
    }
    s += "print(a0)\n";
    s
}

/// The smallest useful session: one array, one launch, one read.
fn tiny_script() -> String {
    prelude(1) + "print(a0[7])\n"
}

/// Kernel CEs one [`script`] session runs.
const SCRIPT_KERNELS: u64 = (LAUNCHES + POOL) as u64;

/// The same script on a solo two-thread in-process runtime: the expected
/// output lines, and how long the script takes without a control plane.
fn solo(source: &str) -> Result<(Vec<String>, f64), String> {
    let t = Instant::now();
    let mut pg = Polyglot::with_workers(2);
    let lines = run_script(&mut pg, source).map_err(|e| format!("solo run_script: {e}"))?;
    Ok((lines, t.elapsed().as_secs_f64()))
}

struct Fleet {
    // Field order is drop order: the control plane goes first.
    ctld: Daemon,
    workers: Vec<Daemon>,
    addr: String,
    http: String,
}

impl Fleet {
    fn spawn(bins: &Bins, env: &Env) -> Result<Fleet, String> {
        let mut workers = Vec::new();
        let mut addrs = Vec::new();
        for w in 0..2 {
            let (daemon, addr) = spawn_workerd(bins, &env.out, NAME, w, Duration::ZERO)?;
            addrs.push(addr);
            workers.push(daemon);
        }
        let journal = env.out.join(format!("{NAME}.grsj"));
        let (ctld, said) = Daemon::spawn(
            &bins.ctld,
            &[
                "--listen",
                "127.0.0.1:0",
                "--workers",
                &format!("tcp:{}", addrs.join(",")),
                "--batch",
                "--journal",
                &journal.display().to_string(),
                "--http",
                "127.0.0.1:0",
            ],
            &env.out.join(format!("{NAME}.ctld.stderr.jsonl")),
            &["CTLD LISTENING ", "CTLD HTTP "],
            Duration::ZERO,
        )?;
        Ok(Fleet {
            ctld,
            workers,
            addr: said[0].clone(),
            http: said[1].clone(),
        })
    }

    fn cpu_s(&self) -> f64 {
        cpu_seconds(std::process::id())
            + cpu_seconds(self.ctld.pid())
            + self
                .workers
                .iter()
                .map(|d| cpu_seconds(d.pid()))
                .sum::<f64>()
    }
}

/// One finished session as its client saw it.
struct Session {
    wall_ms: f64,
    attach_ms: f64,
    kernels: u64,
    lines: Vec<String>,
}

fn session(addr: &str, source: &str) -> Result<Session, String> {
    let mut client = CtldClient::connect(addr).map_err(|e| format!("CtldClient::connect: {e}"))?;
    let t = Instant::now();
    let mut attach_ms = 0.0;
    let outcome = client
        .run(source, Priority::Normal, 1 << 20, |msg| {
            if matches!(msg, CtldMsg::Attached { .. }) {
                attach_ms = t.elapsed().as_secs_f64() * 1e3;
            }
        })
        .map_err(|e| format!("CtldClient::run: {e}"))?;
    let wall_ms = t.elapsed().as_secs_f64() * 1e3;
    match outcome {
        ClientOutcome::Finished { lines, kernels, .. } => Ok(Session {
            wall_ms,
            attach_ms,
            kernels,
            lines,
        }),
        ClientOutcome::Rejected(e) => Err(format!("session rejected: {e}")),
        ClientOutcome::Failed(e) => Err(format!("session failed on the daemon: {e}")),
    }
}

#[derive(Default)]
struct RepOut {
    setup_s: f64,
    wall_s: f64,
    cpu_s: f64,
    ces: u64,
    sessions_ms: Vec<f64>,
    attach_ms: Vec<f64>,
    rtt_us: Vec<f64>,
    scrape_ms: Vec<f64>,
    ctld_rss_mib: f64,
    attempted: u64,
    failures: Vec<String>,
}

struct RepInput {
    bins: Bins,
    env: Env,
    source: Arc<String>,
    expected: Arc<Vec<String>>,
    /// 0 = set-up only.
    sessions: usize,
    rtt_ops: usize,
    scrape: bool,
    rep: u32,
}

fn run_rep(input: RepInput, mut trace: Trace) -> (Trace, RepOut) {
    let mut out = RepOut::default();
    trace.set_rep(input.rep);
    let rep_span = trace.begin("rep", NONE);
    if let Err(why) = rep_body(&input, &mut trace, rep_span, &mut out) {
        out.failures.push(why);
    }
    trace.end(rep_span);
    (trace, out)
}

fn rep_body(
    input: &RepInput,
    trace: &mut Trace,
    rep_span: u32,
    out: &mut RepOut,
) -> Result<(), String> {
    let start = Instant::now();
    let setup = trace.begin("setup", rep_span);
    out.attempted += 1;
    let fleet = Fleet::spawn(&input.bins, &input.env)?;
    trace.end(setup);
    out.setup_s = start.elapsed().as_secs_f64();

    let cpu0 = fleet.cpu_s();
    let t0 = Instant::now();
    let timed = trace.begin("timed", rep_span);
    let scraping = Arc::new(AtomicBool::new(input.scrape && input.sessions > 0));
    let scraper = {
        let (scraping, http) = (Arc::clone(&scraping), fleet.http.clone());
        std::thread::spawn(move || {
            let mut took = Vec::new();
            while scraping.load(Ordering::SeqCst) {
                let t = Instant::now();
                if let Ok((200, _)) = http_get(&http, "/metrics", Duration::from_secs(2)) {
                    took.push(t.elapsed().as_secs_f64() * 1e3);
                }
                std::thread::sleep(Duration::from_millis(25));
            }
            took
        })
    };
    let clients: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let (addr, source, n) = (
                fleet.addr.clone(),
                Arc::clone(&input.source),
                input.sessions,
            );
            std::thread::spawn(move || {
                (0..n)
                    .map(|_| {
                        let t = Instant::now();
                        (t, session(&addr, &source), Instant::now())
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let mut done = Vec::new();
    for client in clients {
        done.extend(client.join().map_err(|_| "client thread panicked")?);
    }
    trace.end(timed);
    out.wall_s = t0.elapsed().as_secs_f64();
    out.cpu_s = fleet.cpu_s() - cpu0;
    scraping.store(false, Ordering::SeqCst);
    out.scrape_ms = scraper.join().map_err(|_| "scraper thread panicked")?;

    for (began, result, ended) in done {
        out.attempted += 2; // the session, and its output check
        trace.push("CtldClient::run", timed, began, ended);
        match result {
            Ok(s) => {
                out.sessions_ms.push(s.wall_ms);
                out.attach_ms.push(s.attach_ms);
                out.ces += s.kernels;
                if s.lines != *input.expected {
                    out.failures
                        .push("session output differs from the solo run_script output".into());
                }
                if s.kernels != SCRIPT_KERNELS {
                    out.failures.push(format!(
                        "daemon reported {} kernels, the script launches {SCRIPT_KERNELS}",
                        s.kernels
                    ));
                }
            }
            Err(why) => out.failures.push(why),
        }
    }

    // One CE's life through the control plane, unpipelined.
    let tiny = tiny_script();
    for _ in 0..input.rtt_ops {
        out.attempted += 1;
        out.rtt_us.push(session(&fleet.addr, &tiny)?.wall_ms * 1e3);
    }
    out.ctld_rss_mib = peak_rss_mib(fleet.ctld.pid());
    Ok(())
}

/// Runs the workload.
pub fn measure(args: &RunArgs, env: &Env) -> (Report, Trace) {
    let mut report = Report::default();
    let mut trace = if args.traced {
        Trace::on()
    } else {
        Trace::off()
    };
    let body = measure_into(&mut report, &mut trace, args, env);
    or_fail(&mut report, body);
    (report, trace)
}

fn measure_into(
    report: &mut Report,
    trace: &mut Trace,
    args: &RunArgs,
    env: &Env,
) -> Result<(), String> {
    let bins = env.bins.clone().ok_or("the daemons were not built")?;
    let source = Arc::new(script(args.seed));
    let (expected, _) = solo(&source)?;
    let expected = Arc::new(expected);

    let mut next_rep = 0u32;
    // A rep with any failed operation ends the run: the daemon logs under
    // `out/` then are the failing rep's.
    let mut rep = |sessions: usize,
                   rtt_ops: usize,
                   trace: &mut Trace,
                   report: &mut Report|
     -> Result<RepOut, String> {
        let input = RepInput {
            bins: bins.clone(),
            env: env.clone(),
            source: Arc::clone(&source),
            expected: Arc::clone(&expected),
            sessions,
            rtt_ops,
            scrape: trace.enabled(),
            rep: next_rep,
        };
        next_rep += 1;
        let out = traced_rep(trace, move |t| run_rep(input, t))?;
        report.attempted += out.attempted;
        let (last, rest) = match out.failures.split_last() {
            None => return Ok(out),
            Some(split) => split,
        };
        for why in rest {
            report.fail(why.clone());
        }
        Err(last.clone())
    };

    rep(1, 2, &mut Trace::off(), report)?; // warm-up

    let mut samples = Samples::default();
    let mut attach_ms = Vec::new();
    let mut scrape_ms = Vec::new();
    let mut ctld_rss: f64 = 0.0;
    let min_reps = if args.traced { 1 } else { 3 };
    let budget = if args.traced {
        args.seconds * 0.6
    } else {
        args.seconds
    };
    while samples.reps < min_reps || samples.measured_s() < budget {
        let out = rep(SESSIONS, RTT_OPS, trace, report)?;
        samples.add_rep(
            out.setup_s,
            out.wall_s,
            out.ces,
            out.cpu_s,
            &out.rtt_us,
            &out.sessions_ms,
        );
        attach_ms.extend(out.attach_ms);
        scrape_ms.extend(out.scrape_ms);
        ctld_rss = ctld_rss.max(out.ctld_rss_mib);
    }
    // Read the daemon's session journal now: every fleet, the set-up-only
    // ones below included, starts the file afresh.
    let journal = args
        .traced
        .then(|| read_session_journal(&env.out.join(format!("{NAME}.grsj"))))
        .transpose()
        .map_err(|e| format!("read_session_journal: {e}"))?;
    let topup = Instant::now();
    while samples.setups.len() < MIN_SETUPS && topup.elapsed().as_secs_f64() < 1.5 {
        samples
            .setups
            .push(rep(0, 0, &mut Trace::off(), report)?.setup_s);
    }
    // The planner of every tenant lives in the daemon: its peak RSS is the
    // one that state growth moves.
    samples.end_to_end(report, ctld_rss);
    let Some(journal) = journal else {
        return Ok(());
    };

    // Tracing here is the mid-run `/metrics` scraper (the spans are taken
    // from timestamps the clients keep anyway): one rep without it.
    let plain = rep(SESSIONS, 0, &mut Trace::off(), report)?;
    report.set(
        "bench.trace_overhead_ratio",
        samples.ce_per_s() / (plain.ces as f64 / plain.wall_s),
    );
    report.set("ctld.attach_ms_p50", median(&attach_ms));
    report.set("ctld.scrape_ms_p50", median(&scrape_ms));
    let solo_s: Vec<f64> = (0..5)
        .map(|_| solo(&source).map(|(_, s)| s))
        .collect::<Result<_, _>>()?;
    let solo_s = median(&solo_s);
    report.set(
        "polyglot.solo_script_ce_per_s",
        SCRIPT_KERNELS as f64 / solo_s,
    );
    report.set(
        "ctld.overhead_ratio",
        median(&samples.sessions_ms) / 1e3 / solo_s,
    );
    report.set("session.frames_per_msg", frames_per_msg(args.seed)?);

    // The planner-side probes replay one tenant's ops, read back from the
    // daemon's session journal.
    let ops = journal
        .into_values()
        .map(|ops| ops.into_iter().map(|(_, op)| op).collect::<Vec<_>>())
        .find(|ops| probes::kernel_ces(ops) as u64 == SCRIPT_KERNELS)
        .ok_or("the session journal holds no full tenant session")?;
    let log = OpLog {
        ops,
        cfg: PlannerConfig::new(2, PolicyKind::RoundRobin),
        links: Some(LinkMatrix::uniform(3, 1e9)),
    };
    probes::on_op_log(report, &log, env)
}

/// `session.frames_per_msg`: wire frames per logical control message with
/// batching on, two concurrent in-process sessions of the small-CE stream
/// on one `FleetMux` (the daemon's own counters are not exported).
fn frames_per_msg(seed: u64) -> Result<f64, String> {
    let mut fleet = FleetMux::with_batching(Box::new(ChannelTransport::new(2)), true);
    let program = Arc::new(program::small_ce(seed, 256));
    let tenants: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let (session, program) = (fleet.session(2), Arc::clone(&program));
            std::thread::spawn(move || -> Result<(), String> {
                let mut rt = Runtime::builder()
                    .workers(2)
                    .build_with_transport(Box::new(session))
                    .map_err(|e| e.to_string())?;
                let kernels = program.compile()?;
                let arrays: Vec<_> = program.arrays.iter().map(|n| rt.alloc_f32(*n)).collect();
                for step in &program.steps {
                    let Step::Launch {
                        kernel,
                        grid,
                        block,
                        args,
                    } = step
                    else {
                        continue;
                    };
                    rt.launch(&kernels[*kernel], *grid, *block, local_args(args, &arrays))
                        .map_err(|e| e.to_string())?;
                }
                rt.synchronize().map_err(|e| e.to_string())
            })
        })
        .collect();
    for t in tenants {
        t.join().map_err(|_| "tenant thread panicked")??;
    }
    let stats = fleet.batch_stats();
    fleet.shutdown();
    Ok(stats.frames as f64 / stats.messages.max(1) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_script_and_seeds_differ() {
        assert_eq!(script(1), script(1));
        assert_ne!(script(1), script(2));
    }

    #[test]
    fn script_runs_solo_and_launches_what_it_says() {
        let source = script(4);
        let launches = source
            .lines()
            .filter(|l| {
                ["fillk(2", "scale(2", "saxpy(2"]
                    .iter()
                    .any(|k| l.starts_with(k))
            })
            .count();
        assert_eq!(launches as u64, SCRIPT_KERNELS);
        let (lines, _) = solo(&source).unwrap();
        assert_eq!(lines.len(), POOL + 1);
        assert_eq!(
            solo(&source).unwrap().0,
            lines,
            "the solo run is deterministic"
        );
        assert_eq!(solo(&tiny_script()).unwrap().0.len(), 1);
    }
}
