//! Layer probes: each replays material taken from the workload's own run
//! (its finished op log, the messages its transport carried) or a fixed
//! micro-input into one layer's public functions, standalone, and times
//! that layer alone. All of it runs outside the timed regions, in the
//! traced run only.

use std::net::TcpListener;
use std::path::Path;
use std::time::{Duration, Instant};

use grout::core::{
    ChannelTransport, CtrlMsg, DepDag, ExplorationLevel, FleetMux, HostBuf, LinkMatrix,
    LoggedPlanner, NodeScheduler, Planner, PlannerOp, PolicyKind,
};
use grout::kernelc::{self, KernelArg};
use grout::net::oplog::{JournalSink, ShipSink};
use grout::net::{standby_serve, wire};
use grout::workloads::{
    gb, run_workload, ConjugateGradient, MatVec, MlEnsemble, SimWorkload, PAPER_SIZES_GB,
};
use grout::{ArrayId, Ce, CeKind, SimConfig};
use serde_json::Value;

use crate::daemons::Env;
use crate::local::OpLog;
use crate::program::{Program, Reference, SMALL_N};
use crate::report::Report;
use crate::stats::{growth_ratio, median, percentile};
use crate::tap::TapLog;

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn is_kernel(op: &PlannerOp) -> bool {
    matches!(op, PlannerOp::PlanCe { ce } if matches!(ce.kind, CeKind::Kernel { .. }))
}

/// Kernel CEs in an op log.
pub fn kernel_ces(ops: &[PlannerOp]) -> usize {
    ops.iter().filter(|op| is_kernel(op)).count()
}

/// `kernelc`: compile cost of the workload's sources and — from the
/// sequential reference run of the whole stream — time per element and
/// per CE.
pub fn kernelc(report: &mut Report, program: &Program, reference: &Reference) {
    let compiles: Vec<f64> = (0..21)
        .map(|_| {
            let t = Instant::now();
            for src in &program.sources {
                std::hint::black_box(kernelc::compile(src).expect("compiled before"));
            }
            us(t.elapsed())
        })
        .collect();
    report.set("kernelc.compile_us", median(&compiles));
    if reference.threads > 0 {
        report.set(
            "kernelc.ns_per_elem",
            reference.launch_time.as_secs_f64() * 1e9 / reference.threads as f64,
        );
        report.set(
            "kernelc.exec_us_per_ce",
            us(reference.launch_time) / program.ces().max(1) as f64,
        );
    }
}

/// The probes every workload runs whatever its stream: the planner-side
/// layers on the run's op log, and the fixed micro-inputs.
pub fn on_op_log(report: &mut Report, log: &OpLog, env: &Env) -> Result<(), String> {
    let end_state = planner(report, log);
    dag(report, &log.ops);
    policy(report, &log.ops, &end_state);
    oplog(report, log, &env.out)?;
    report.set("kernelc.launch_fixed_us", launch_fixed_us());
    session_attach_detach(report);
    paper_points_changed(report, &env.root)
}

/// Median wall time of a standalone 256-element `scale` launch on host
/// buffers: the interpreter's fixed cost per launch.
fn launch_fixed_us() -> f64 {
    let scale = kernelc::compile_one(
        "__global__ void scale(float* y, float a, int n) {
            int i = blockIdx.x * blockDim.x + threadIdx.x;
            if (i < n) { y[i] = a * y[i]; }
        }",
        "scale",
    )
    .expect("the probe kernel compiles");
    let mut y = vec![1.0f32; SMALL_N];
    let samples: Vec<f64> = (0..1000)
        .map(|_| {
            let t = Instant::now();
            scale
                .launch(
                    2,
                    128,
                    &mut [
                        KernelArg::F32(&mut y),
                        KernelArg::Float(1.0001),
                        KernelArg::Int(SMALL_N as i32),
                    ],
                )
                .expect("the probe kernel launches");
            us(t.elapsed())
        })
        .collect();
    median(&samples)
}

/// `core::scheduler`: replays the run's op log into a fresh planner built
/// from the same inputs, timing every `Planner::apply`. Returns the
/// replayed planner for the probes that need its final state.
fn planner(report: &mut Report, log: &OpLog) -> Planner {
    let mut planner = Planner::new(log.cfg.clone(), log.links.clone());
    let mut all = Vec::with_capacity(log.ops.len());
    let mut plans = Vec::new();
    let start = Instant::now();
    for op in &log.ops {
        let t = Instant::now();
        // A failed op is part of the recorded history; replay keeps going.
        let _ = std::hint::black_box(planner.apply(op));
        let dt = us(t.elapsed());
        all.push(dt);
        if is_kernel(op) {
            plans.push(dt);
        }
    }
    let total = start.elapsed();
    let ces = plans.len().max(1);
    report.set("planner.apply_us_p50", median(&all));
    report.set("planner.apply_us_p99", percentile(&all, 0.99));
    report.set("planner.growth_ratio", growth_ratio(&plans));
    report.set("planner.ops_per_ce", log.ops.len() as f64 / ces as f64);
    report.set(
        "planner.replay_us_per_op",
        us(total) / log.ops.len().max(1) as f64,
    );
    let digests: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(planner.state_digest());
            us(t.elapsed())
        })
        .collect();
    report.set("planner.digest_us", median(&digests));
    planner
}

/// `core::dag`: feeds the same CEs and completions to a standalone
/// `DepDag`.
fn dag(report: &mut Report, ops: &[PlannerOp]) {
    let mut dag = DepDag::new();
    let mut adds = Vec::new();
    for op in ops {
        match op {
            PlannerOp::PlanCe { ce } => {
                let t = Instant::now();
                std::hint::black_box(dag.add_ce(ce));
                adds.push(us(t.elapsed()));
            }
            PlannerOp::MarkCompleted { dag_index } if *dag_index < dag.len() => {
                dag.mark_completed(*dag_index);
            }
            _ => {}
        }
    }
    report.set("dag.add_ce_us_p50", median(&adds));
    report.set("dag.add_ce_us_p99", percentile(&adds, 0.99));
    report.set("dag.growth_ratio", growth_ratio(&adds));
    report.set(
        "dag.edges_per_ce",
        dag.edge_count() as f64 / dag.len().max(1) as f64,
    );
}

/// `core::policy`: `NodeScheduler::assign` for the stream's kernel CEs
/// against the run's final coherence directory — round-robin on two
/// workers, and min-transfer-time on 64 (the linear-in-nodes policy of
/// the paper's Fig. 9).
fn policy(report: &mut Report, ops: &[PlannerOp], end_state: &Planner) {
    let ces: Vec<&Ce> = ops
        .iter()
        .filter_map(|op| match op {
            PlannerOp::PlanCe { ce } if is_kernel(op) => Some(ce),
            _ => None,
        })
        .take(4096)
        .collect();
    if ces.is_empty() {
        return;
    }
    // One assign is tens of nanoseconds, below what a clock read
    // resolves: time whole passes over the CEs and report the median pass.
    let pass_ns = |mut sched: NodeScheduler| {
        let passes: Vec<f64> = (0..15)
            .map(|_| {
                let t = Instant::now();
                for ce in &ces {
                    std::hint::black_box(sched.assign(ce, end_state.coherence()));
                }
                t.elapsed().as_secs_f64() * 1e9 / ces.len() as f64
            })
            .collect();
        median(&passes)
    };
    report.set(
        "policy.assign_ns_p50_rr2",
        pass_ns(NodeScheduler::new(PolicyKind::RoundRobin, 2, None)),
    );
    report.set(
        "policy.assign_ns_p50_mtt64",
        pass_ns(NodeScheduler::new(
            PolicyKind::MinTransferTime(ExplorationLevel::Medium),
            64,
            Some(LinkMatrix::uniform(65, 500e6)),
        )),
    );
}

/// `net::wire`: re-encodes and re-decodes the messages the tap kept, and
/// pushes one 4 MiB `Data` message through the codec for the bulk path.
/// `ces` is every CE the tapped rep ran (stream + round trips).
pub fn wire_codec(report: &mut Report, tap: &TapLog, ces: u64) {
    let n = (tap.ctrl_samples.len() + tap.worker_samples.len()).max(1) as f64;
    let mut enc = Vec::new();
    let mut dec = Vec::new();
    for _ in 0..9 {
        let t = Instant::now();
        let ctrl: Vec<Vec<u8>> = tap.ctrl_samples.iter().map(wire::encode_ctrl).collect();
        let worker: Vec<Vec<u8>> = tap.worker_samples.iter().map(wire::encode_worker).collect();
        enc.push(t.elapsed().as_secs_f64() * 1e9 / n);
        let t = Instant::now();
        for bytes in &ctrl {
            std::hint::black_box(wire::decode_ctrl(bytes).expect("decodes what it encoded"));
        }
        for bytes in &worker {
            std::hint::black_box(wire::decode_worker(bytes).expect("decodes what it encoded"));
        }
        dec.push(t.elapsed().as_secs_f64() * 1e9 / n);
    }
    report.set("wire.encode_ns_per_msg", median(&enc));
    report.set("wire.decode_ns_per_msg", median(&dec));
    report.set(
        "wire.bytes_per_ce",
        (tap.ctrl_bytes + tap.worker_bytes) as f64 / ces.max(1) as f64,
    );
    bulk_codec(report);
}

/// Codec throughput on one 4 MiB `Data` message, MiB/s.
fn bulk_codec(report: &mut Report) {
    const MIB: f64 = (1 << 20) as f64;
    let msg = CtrlMsg::Data {
        array: ArrayId(0),
        version: 1,
        buf: HostBuf::F32(vec![1.5; 1 << 20]),
    };
    let mut enc = Vec::new();
    let mut dec = Vec::new();
    for _ in 0..7 {
        let t = Instant::now();
        let bytes = wire::encode_ctrl(&msg);
        enc.push(bytes.len() as f64 / MIB / t.elapsed().as_secs_f64());
        let t = Instant::now();
        std::hint::black_box(wire::decode_ctrl(&bytes).expect("decodes what it encoded"));
        dec.push(bytes.len() as f64 / MIB / t.elapsed().as_secs_f64());
    }
    report.set("wire.bulk_encode_mib_per_s", median(&enc));
    report.set("wire.bulk_decode_mib_per_s", median(&dec));
}

/// CEs of the op log the durability probe replays: per-op digests make
/// its cost quadratic in the log, and 256 CEs is the session length of
/// `durable_small_ce`.
const OPLOG_PROBE_CES: usize = 256;

/// `net::oplog`: the first [`OPLOG_PROBE_CES`] CEs of the op log through
/// a bare `LoggedPlanner`, one with a `JournalSink`, and one with a
/// `ShipSink` acked by an in-process standby. Reports the *added* cost
/// per op (p50 with the sink minus p50 bare) and journal bytes per CE.
fn oplog(report: &mut Report, log: &OpLog, out_dir: &Path) -> Result<(), String> {
    let mut seen = 0;
    let cut = log
        .ops
        .iter()
        .position(|op| {
            seen += usize::from(is_kernel(op));
            seen == OPLOG_PROBE_CES
        })
        .map_or(log.ops.len(), |i| i + 1);
    let ops = &log.ops[..cut];
    let ces = kernel_ces(ops).max(1);
    let fresh = || LoggedPlanner::new(Planner::new(log.cfg.clone(), log.links.clone()));
    let drive = |mut p: LoggedPlanner| {
        let per_op: Vec<f64> = ops
            .iter()
            .map(|op| {
                let t = Instant::now();
                let _ = std::hint::black_box(p.append(op.clone()));
                us(t.elapsed())
            })
            .collect();
        median(&per_op)
    };
    let bare = drive(fresh());

    let path = out_dir.join("probe.grjl");
    let mut journalled = fresh();
    journalled.add_sink(Box::new(
        JournalSink::create(&path, &log.cfg, &log.links)
            .map_err(|e| format!("journal probe: {e}"))?,
    ));
    // `drive` drops the planner, and with it the sink: the footer is
    // written before the file is sized.
    report.set("oplog.journal_append_us_p50", drive(journalled) - bare);
    let bytes = std::fs::metadata(&path)
        .map_err(|e| format!("journal probe: {e}"))?
        .len();
    report.set("oplog.journal_bytes_per_ce", bytes as f64 / ces as f64);

    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("standby probe: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("standby probe: {e}"))?
        .to_string();
    let standby = std::thread::spawn(move || standby_serve(&listener));
    let mut shipped = fresh();
    shipped.add_sink(Box::new(
        ShipSink::connect(&addr, &log.cfg, &log.links)
            .map_err(|e| format!("standby probe: {e}"))?,
    ));
    report.set("oplog.ship_ack_us_p50", drive(shipped) - bare);
    match standby.join() {
        Ok(Ok(_)) => Ok(()),
        Ok(Err(e)) => Err(format!("standby probe: {e}")),
        Err(_) => Err("standby probe thread panicked".into()),
    }
}

/// `core::session`: minting a session on a live `FleetMux` and tearing it
/// down again (namespace attach, fair-share registration, reclaim).
fn session_attach_detach(report: &mut Report) {
    let mut fleet = FleetMux::new(Box::new(ChannelTransport::new(2)));
    let start = Instant::now();
    let mut iters = 0u64;
    while start.elapsed() < Duration::from_millis(50) {
        drop(fleet.session(2));
        iters += 1;
    }
    report.set(
        "session.attach_detach_us",
        us(start.elapsed()) / iters as f64,
    );
    fleet.shutdown();
}

/// The raw simulated makespans behind the paper's Fig. 6a/6b/7 (three
/// workloads × eight footprints, single node and two tuned GrOUT nodes)
/// and Fig. 8 (three workloads × three exploration levels × four policies
/// at 96 GB), in integer virtual nanoseconds, keyed by a stable label.
pub fn paper_points() -> Vec<(String, u64)> {
    let workloads: [Box<dyn SimWorkload>; 3] = [
        Box::new(MlEnsemble::default()),
        Box::new(ConjugateGradient::default()),
        Box::new(MatVec::default()),
    ];
    let mut points = Vec::new();
    let mut run = |label: String, w: &dyn SimWorkload, cfg: SimConfig, size_gb: u64| {
        points.push((label, run_workload(w, cfg, gb(size_gb)).elapsed.as_nanos()));
    };
    for w in &workloads {
        let tuned = PolicyKind::VectorStep(w.tuned_vector());
        for size in PAPER_SIZES_GB {
            run(
                format!("{}/single/{size}GB", w.name()),
                w.as_ref(),
                SimConfig::grcuda_baseline(),
                size,
            );
            run(
                format!("{}/grout2-tuned/{size}GB", w.name()),
                w.as_ref(),
                SimConfig::paper_grout(2, tuned.clone()),
                size,
            );
        }
        for (lname, level) in [
            ("low", ExplorationLevel::Low),
            ("medium", ExplorationLevel::Medium),
            ("high", ExplorationLevel::High),
        ] {
            for (pname, policy) in [
                ("round-robin", PolicyKind::RoundRobin),
                ("vector-step", tuned.clone()),
                ("min-transfer-size", PolicyKind::MinTransferSize(level)),
                ("min-transfer-time", PolicyKind::MinTransferTime(level)),
            ] {
                run(
                    format!("{}/grout2-{pname}-{lname}/96GB", w.name()),
                    w.as_ref(),
                    SimConfig::paper_grout(2, policy),
                    96,
                );
            }
        }
    }
    points
}

/// Where the committed paper points live.
pub fn paper_points_path(root: &Path) -> std::path::PathBuf {
    root.join("benchmark/reference/paper_points.json")
}

/// `sim.paper_points_changed`: how many of [`paper_points`] differ from
/// the committed reference (missing or extra labels count). Must be 0.
fn paper_points_changed(report: &mut Report, root: &Path) -> Result<(), String> {
    let path = paper_points_path(root);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let reference = serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let reference = reference
        .as_object()
        .ok_or_else(|| format!("{}: not an object", path.display()))?;
    let points = paper_points();
    let changed = points
        .iter()
        .filter(|(label, ns)| {
            reference
                .iter()
                .find(|(k, _)| k == label)
                .and_then(|(_, v)| v.as_u64())
                != Some(*ns)
        })
        .count()
        + reference.len().saturating_sub(points.len());
    report.set("sim.paper_points_changed", changed as f64);
    if changed > 0 {
        report.attempted += 1;
        report.fail(format!(
            "{changed} simulated paper points differ from {}",
            path.display()
        ));
    }
    Ok(())
}

/// Renders [`paper_points`] as the reference file's JSON.
pub fn paper_points_json() -> Value {
    Value::Object(
        paper_points()
            .into_iter()
            .map(|(label, ns)| (label, Value::U64(ns)))
            .collect(),
    )
}
