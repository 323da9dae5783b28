//! One rep of a [`Program`] on a real `LocalRuntime`: fresh fleet, the
//! whole stream pipelined, outputs read back and compared, then the
//! unpipelined round trips — all through the program's public API.

use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use grout::core::{
    ChannelTransport, LinkMatrix, LocalStats, Planner, PlannerConfig, PlannerOp, Transport,
};
use grout::kernelc::CompiledKernel;
use grout::net::{standby_serve, StandbyOutcome};
use grout::{
    apply_durability, ArrayId, ChromeTracer, DurabilityOptions, LocalArg, LocalRuntime, Metrics,
    Runtime, Shared, TcpConfig, TcpTransport,
};

use crate::daemons::{cpu_seconds, spawn_workerd, Bins, Daemon};
use crate::program::{mismatched_arrays, Arg, Program, Step};
use crate::spans::{SpanId, Trace, NONE};
use crate::tap::{SharedTapLog, TapLog, TapTransport};

/// What carries controller ↔ worker traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fabric {
    /// Two in-process worker threads over `ChannelTransport`.
    Channel,
    /// Two spawned `grout-workerd` on loopback over `TcpTransport`.
    Tcp,
}

/// Everything one rep needs; cheap to clone into the rep's thread.
#[derive(Clone)]
pub struct RepInput {
    /// Workload name (file names under `out/`).
    pub name: &'static str,
    /// Transport under test.
    pub fabric: Fabric,
    /// Attach the GRJL journal and ship the op log to a standby.
    pub durable: bool,
    /// Unpipelined round trips after the pipelined stream.
    pub rtt_ops: usize,
    /// The input.
    pub program: Arc<Program>,
    /// `program.initial()`, generated once outside all timing.
    pub initial: Arc<Vec<Vec<f32>>>,
    /// Expected final arrays; `None` skips verification (warm-up reps run
    /// a cut-down stream the reference was not computed for).
    pub expected: Option<Arc<Vec<Vec<f32>>>>,
    /// `benchmark/out/`: journals and daemon stderr land here.
    pub out_dir: PathBuf,
    /// Daemon binaries (TCP only).
    pub bins: Option<Bins>,
    /// Rep number, for spans and file names.
    pub rep: u32,
    /// Wrap the transport in a [`TapTransport`] and collect layer data.
    pub layers: bool,
    /// Return the finished op log (implied by `layers`).
    pub keep_ops: bool,
    /// Attach a `ChromeTracer` recorder (the telemetry-overhead guard).
    pub chrome: bool,
}

/// A finished planner op log with the planner's construction inputs:
/// everything needed to replay the run's scheduling standalone.
#[derive(Debug, Clone)]
pub struct OpLog {
    /// Every op, in log order.
    pub ops: Vec<PlannerOp>,
    /// The planner's configuration.
    pub cfg: PlannerConfig,
    /// The link matrix the planner was built with.
    pub links: Option<LinkMatrix>,
}

impl OpLog {
    /// Snapshots a runtime's log (`rt.op_log()`, `rt.planner()`).
    pub fn capture(ops: &[PlannerOp], planner: &Planner) -> OpLog {
        OpLog {
            ops: ops.to_vec(),
            cfg: planner.config().clone(),
            links: planner.links().cloned(),
        }
    }
}

/// Per-layer raw material gathered from one tapped rep.
pub struct LayerData {
    /// What the tap saw.
    pub tap: TapLog,
    /// `rt.metrics()` at the end of the rep, wire counters refreshed.
    pub metrics: Metrics,
    /// Movements planned in the timed region, counted by a
    /// `set_sched_observer` callback.
    pub moves: u64,
    /// `rt.stats()` at the end of the timed region (the round trips after
    /// it are excluded from per-CE ratios).
    pub stats: LocalStats,
    /// Bytes handed to `write_f32` during set-up and the time it took.
    pub write_bytes: u64,
    /// Bytes returned by `read_f32` in the timed region.
    pub read_bytes: u64,
}

/// What one rep measured.
#[derive(Default)]
pub struct RepOut {
    /// Rep start → first timed submit.
    pub setup_s: f64,
    /// First submit → outputs read back.
    pub wall_s: f64,
    /// Kernel CEs completed in `wall_s`.
    pub ces: u64,
    /// CPU (bench process + daemons) burnt in `wall_s`.
    pub cpu_s: f64,
    /// Unpipelined launch + synchronize round trips, µs.
    pub rtt_us: Vec<f64>,
    /// Public calls attempted.
    pub attempted: u64,
    /// Why calls or checks failed (one entry per failure).
    pub failures: Vec<String>,
    /// `Planner::state_digest` at the end of the timed region.
    pub digest: u64,
    /// The op log (`keep_ops` or tapped reps only).
    pub ops: Option<OpLog>,
    /// Layer data (tapped reps only).
    pub layers: Option<LayerData>,
}

/// Span-wrapped call: `call!(trace, parent, "name", expr)`.
macro_rules! spanned {
    ($trace:expr, $parent:expr, $name:literal, $body:expr) => {{
        let id = $trace.begin($name, $parent);
        let value = $body;
        $trace.end(id);
        value
    }};
}

/// The fleet of one rep: worker daemons (TCP) and the standby thread
/// (durable). Dropped after the runtime, so workers see `Shutdown` first.
#[derive(Default)]
struct Fleet {
    workers: Vec<Daemon>,
}

impl Fleet {
    fn cpu_s(&self) -> f64 {
        cpu_seconds(std::process::id())
            + self
                .workers
                .iter()
                .map(|d| cpu_seconds(d.pid()))
                .sum::<f64>()
    }
}

fn build_runtime(
    input: &RepInput,
    trace: &mut Trace,
    parent: SpanId,
    fleet: &mut Fleet,
) -> Result<(LocalRuntime, Option<SharedTapLog>), String> {
    let transport: Box<dyn Transport> = match input.fabric {
        Fabric::Channel => Box::new(ChannelTransport::new(2)),
        Fabric::Tcp => {
            let bins = input
                .bins
                .as_ref()
                .ok_or("TCP workload without daemon binaries")?;
            let mut addrs = Vec::new();
            for w in 0..2 {
                // A workerd leaves by itself once its controller says
                // `Shutdown`; give it a moment before the guard kills it.
                let (daemon, addr) = spanned!(
                    trace,
                    parent,
                    "spawn_workerd",
                    spawn_workerd(
                        bins,
                        &input.out_dir,
                        input.name,
                        w,
                        Duration::from_millis(500)
                    )
                )?;
                addrs.push(addr);
                fleet.workers.push(daemon);
            }
            let tcp = spanned!(
                trace,
                parent,
                "tcp_connect",
                TcpTransport::connect(&addrs, vec![None, None], &TcpConfig::default())
            );
            if let Some((w, why)) = tcp.spawn_failures().first() {
                return Err(format!("worker {w} unreachable: {why}"));
            }
            Box::new(tcp)
        }
    };
    let (transport, tap) = if input.layers {
        let (tap, log) = TapTransport::new(transport);
        (Box::new(tap) as Box<dyn Transport>, Some(log))
    } else {
        (transport, None)
    };
    let rt = spanned!(
        trace,
        parent,
        "build",
        Runtime::builder()
            .workers(2)
            .build_with_transport(transport)
    )
    .map_err(|e| format!("build_with_transport: {e}"))?;
    Ok((rt, tap))
}

/// Program arguments as the runtime takes them.
pub fn local_args(args: &[Arg], arrays: &[ArrayId]) -> Vec<LocalArg> {
    args.iter()
        .map(|a| match a {
            Arg::Buf(i) => LocalArg::Buf(arrays[*i]),
            Arg::F32(v) => LocalArg::F32(*v),
            Arg::I32(v) => LocalArg::I32(*v),
        })
        .collect()
}

fn submit(
    rt: &mut LocalRuntime,
    step: &Step,
    kernels: &[Arc<CompiledKernel>],
    arrays: &[ArrayId],
    trace: &mut Trace,
    parent: SpanId,
) -> Result<(), String> {
    match step {
        Step::Launch {
            kernel,
            grid,
            block,
            args,
        } => spanned!(
            trace,
            parent,
            "launch",
            rt.launch(&kernels[*kernel], *grid, *block, local_args(args, arrays))
        )
        .map(|_| ())
        .map_err(|e| format!("launch: {e}")),
        Step::Write { array, value } => spanned!(
            trace,
            parent,
            "write_f32",
            rt.write_f32(arrays[*array], |buf| buf.fill(*value))
        )
        .map_err(|e| format!("write_f32: {e}")),
    }
}

/// Runs one rep. Never panics on a program error: the first failing call
/// ends the rep and is reported in [`RepOut::failures`].
pub fn run_rep(input: RepInput, mut trace: Trace) -> (Trace, RepOut) {
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
    rep_span: SpanId,
    out: &mut RepOut,
) -> Result<(), String> {
    let program = &*input.program;
    let start = Instant::now();
    let setup = trace.begin("setup", rep_span);
    // Declared before the runtime so it is dropped after it.
    let mut fleet = Fleet::default();
    let (mut rt, tap) = build_runtime(input, trace, setup, &mut fleet)?;
    out.attempted += 1;

    let chrome = input.chrome.then(|| Shared::new(ChromeTracer::new()));
    if let Some(chrome) = &chrome {
        rt.set_telemetry(chrome.telemetry());
    }
    let moves = Arc::new(AtomicU64::new(0));
    if input.layers {
        let moves = Arc::clone(&moves);
        rt.set_sched_observer(Box::new(move |plan| {
            moves.fetch_add(plan.movements.len() as u64, Ordering::Relaxed);
        }));
    }

    let mut standby = None;
    if input.durable {
        let listener =
            TcpListener::bind("127.0.0.1:0").map_err(|e| format!("standby bind: {e}"))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("standby addr: {e}"))?;
        standby = Some(std::thread::spawn(move || standby_serve(&listener)));
        let opts = DurabilityOptions {
            journal: Some(input.out_dir.join(format!("{}.grjl", input.name))),
            ship_log: Some(addr.to_string()),
        };
        out.attempted += 1;
        spanned!(
            trace,
            setup,
            "apply_durability",
            apply_durability(&mut rt, &opts)
        )
        .map_err(|e| format!("apply_durability: {e}"))?;
    }

    out.attempted += 1;
    let kernels = spanned!(trace, setup, "compile", program.compile())?;
    let arrays: Vec<ArrayId> = spanned!(
        trace,
        setup,
        "alloc",
        program
            .arrays
            .iter()
            .map(|len| rt.alloc_f32(*len))
            .collect()
    );
    let mut write_bytes = 0u64;
    for (array, init) in arrays.iter().zip(&*input.initial) {
        out.attempted += 1;
        write_bytes += init.len() as u64 * 4;
        spanned!(
            trace,
            setup,
            "write_f32",
            rt.write_f32(*array, |buf| buf.copy_from_slice(init))
        )
        .map_err(|e| format!("initial write_f32: {e}"))?;
    }
    trace.end(setup);
    out.setup_s = start.elapsed().as_secs_f64();

    // ---- the timed region: first submit → outputs read back ----------
    let cpu0 = fleet.cpu_s();
    let t0 = Instant::now();
    let timed = trace.begin("timed", rep_span);
    for step in &program.steps {
        out.attempted += 1;
        submit(&mut rt, step, &kernels, &arrays, trace, timed)?;
    }
    out.attempted += 1;
    spanned!(trace, timed, "synchronize", rt.synchronize())
        .map_err(|e| format!("synchronize: {e}"))?;
    let mut got = Vec::with_capacity(arrays.len());
    for array in &arrays {
        out.attempted += 1;
        got.push(
            spanned!(trace, timed, "read_f32", rt.read_f32(*array))
                .map_err(|e| format!("read_f32: {e}"))?,
        );
    }
    trace.end(timed);
    out.wall_s = t0.elapsed().as_secs_f64();
    out.cpu_s = fleet.cpu_s() - cpu0;
    out.ces = program.ces() as u64;
    let stats = rt.stats();
    let timed_moves = moves.load(Ordering::Relaxed);

    if let Some(expected) = &input.expected {
        out.attempted += 1;
        let bad = mismatched_arrays(&got, expected);
        if bad > 0 {
            out.failures.push(format!(
                "{bad} output arrays differ from the sequential reference"
            ));
        }
    }
    let read_bytes = got.iter().map(|a| a.len() as u64 * 4).sum();
    drop(got);
    out.digest = rt.planner().state_digest();

    // ---- one CE's life, unpipelined ---------------------------------
    let rtt = trace.begin("rtt", rep_span);
    for _ in 0..input.rtt_ops {
        out.attempted += 1;
        let t = Instant::now();
        submit(&mut rt, &program.rtt, &kernels, &arrays, trace, rtt)?;
        spanned!(trace, rtt, "synchronize", rt.synchronize())
            .map_err(|e| format!("rtt synchronize: {e}"))?;
        out.rtt_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    trace.end(rtt);

    let primary_digest = input.durable.then(|| rt.planner().state_digest());
    if input.layers || input.keep_ops {
        out.ops = Some(OpLog::capture(rt.op_log(), rt.planner()));
    }
    let metrics = input.layers.then(|| {
        rt.refresh_wire_metrics();
        rt.metrics().clone()
    });
    if let Some(chrome) = &chrome {
        // The recorder must have seen the run for the guard to mean
        // anything.
        if chrome.lock().is_empty() {
            out.failures
                .push("ChromeTracer attached but recorded nothing".into());
        }
    }

    // Teardown: the runtime first (workers get `Shutdown`, the standby a
    // clean finish), then the daemons.
    let teardown = trace.begin("teardown", rep_span);
    drop(rt);
    if let Some(standby) = standby {
        out.attempted += 1;
        match standby.join() {
            Ok(Ok(StandbyOutcome::CleanFinish { replica, .. })) => {
                if Some(replica.state_digest()) != primary_digest {
                    out.failures
                        .push("standby replica digest differs from the primary".into());
                }
            }
            Ok(Ok(StandbyOutcome::PrimaryDied { .. })) => {
                out.failures
                    .push("standby saw the primary die on a clean run".into());
            }
            Ok(Err(e)) => out.failures.push(format!("standby_serve: {e}")),
            Err(_) => out.failures.push("standby thread panicked".into()),
        }
    }
    drop(fleet);
    trace.end(teardown);

    if let (Some(tap), Some(metrics)) = (tap, metrics) {
        let tap = std::mem::take(&mut *tap.lock().map_err(|_| "tap log poisoned")?);
        out.layers = Some(LayerData {
            tap,
            metrics,
            moves: timed_moves,
            stats,
            write_bytes,
            read_bytes,
        });
    }
    Ok(())
}
