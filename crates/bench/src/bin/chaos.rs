//! Chaos harness: differential fault-injection sweep over a seed matrix.
//!
//! For every seed, a workload with one injected worker death must
//! (a) complete on the local runtime with results bit-identical to its
//! fault-free run, (b) complete in the simulator under the *same*
//! `FaultPlan`, (c) quarantine the same worker in both runtimes (the
//! shared planner makes the victim deterministic), and — on a serialized
//! chain, where detection order is fully determined — (d) agree on the
//! full quarantine identity (worker, discovered-at CE) and route every
//! post-fault kernel away from the dead node. Each case runs under a
//! watchdog so a recovery deadlock is a FAIL, not a hung CI job.
//!
//! Run with: `cargo run --release -p grout-bench --bin chaos -- --seeds 8`
//! (add `--trace-out`/`--metrics-out` for an instrumented faulted sim run
//! whose metrics dump carries the fault/retry/quarantine counters)
//!
//! `--kill-process` switches to process-level chaos: spawn real
//! `grout-workerd` processes, SIGKILL one mid-run while it holds the only
//! fresh copy of an array, and assert the controller quarantines it,
//! lineage-replays the lost data, and finishes bit-identical to a clean
//! in-process run. Requires the `grout-workerd` binary next to this one
//! (`cargo build -p grout --bins`) or a `GROUT_WORKERD` env override.
//!
//! Network chaos (omission faults, below the crash-stop model), each over
//! a spawned `grout-workerd` pair:
//!
//! - `--net-seeds N`: TCP differential sweep — each seed derives a
//!   deterministic [`NetFaultPlan`] of severs and partitions that cut the
//!   real controller sockets mid-chain; every run must be bit-identical
//!   to the clean TCP run with zero quarantines and, when the plan
//!   schedules a fault, at least one counted session resume. Lost,
//!   duplicated and reordered frames are checked below the socket by the
//!   `SendBuffer`/`RecvCursor` property tests in `grout-net`.
//! - `--net-sever`: TCP differential — sever worker 0's socket under the
//!   controller mid-stream; the session layer must resume and replay
//!   so the run stays bit-identical with zero quarantines and ≥1 resume.
//! - `--sigstop`: TCP differential — SIGSTOP one workerd past the
//!   staleness window (suspect fires, socket severed), SIGCONT it inside
//!   the reconnect window; the resume must reinstate the worker with no
//!   quarantine and bit-identical results.
//! - `--elastic`: TCP differential — a third workerd joins the live
//!   two-worker chain mid-run and receives CE placements, then a
//!   founding worker departs via a clean Leave; the run must stay
//!   bit-identical with the static two-worker run, with zero
//!   quarantines and zero session resumes.
use grout::core::{
    first_divergence, CeArg, ChromeTracer, KernelCost, LocalArg, LocalConfig, LocalRuntime,
    NetFaultPlan, PeerWireStats, PlannerOp, Runtime, Shared, SimConfig, SimRuntime,
};
use grout::desim::SimDuration;
use grout::kernelc;
use grout::{ExplorationLevel, FaultPlan, PolicyKind, SchedEvent};
use grout_bench::ArtifactArgs;
use std::sync::Arc;

const N: usize = 256;
const BYTES: u64 = (N * 4) as u64;
const CHAIN: usize = 6;

const SRC: &str = "
    __global__ void write_k(float* a, float v, int n) {
        int i = blockIdx.x * blockDim.x + threadIdx.x;
        if (i < n) { a[i] = v + (float)i; }
    }
    __global__ void addinto(float* b, const float* a, int n) {
        int i = blockIdx.x * blockDim.x + threadIdx.x;
        if (i < n) { b[i] = b[i] + a[i] * 0.5; }
    }
    __global__ void scale(float* a, int n) {
        int i = blockIdx.x * blockDim.x + threadIdx.x;
        if (i < n) { a[i] = a[i] * 1.25 + 1.0; }
    }
";

fn local_cfg(workers: usize, faults: FaultPlan) -> LocalConfig {
    let mut cfg = LocalConfig::new(workers, PolicyKind::RoundRobin);
    cfg.planner.faults = faults;
    cfg.planner.fault_cfg.detection_timeout = SimDuration::from_millis(60);
    cfg
}

fn sim_cfg(workers: usize, faults: FaultPlan) -> SimConfig {
    let mut cfg = SimConfig::paper_grout(workers, PolicyKind::RoundRobin);
    cfg.planner.faults = faults;
    cfg.planner.fault_cfg.detection_timeout = SimDuration::from_millis(60);
    cfg
}

fn quarantine_of(events: &[SchedEvent]) -> Option<(usize, usize)> {
    events.iter().find_map(|e| match e {
        SchedEvent::Quarantine { worker, at_ce, .. } => Some((*worker, *at_ce)),
        _ => None,
    })
}

fn has_replay(events: &[SchedEvent]) -> bool {
    events
        .iter()
        .any(|e| matches!(e, SchedEvent::Replay { .. }))
}

/// One run's per-peer wire counters, for divergence reports. Empty on
/// transports that track none.
fn wire_table(label: &str, wire: &[PeerWireStats]) -> String {
    if wire.is_empty() {
        return format!("  {label}: no wire stats (transport tracks none)\n");
    }
    let mut s = format!("  {label} per-peer wire stats:\n");
    for (w, p) in wire.iter().enumerate() {
        s.push_str(&format!(
            "    w{w}: frames {}/{} in/out, bytes {}/{}, resumes {}\n",
            p.frames_recv, p.frames_sent, p.bytes_recv, p.bytes_sent, p.resumes
        ));
    }
    s
}

/// Localizes a differential mismatch in op-log terms: the first index
/// where the faulted run's planner history departs from the clean run's
/// is where recovery started rewriting the plan — the place to start
/// debugging. (The logs *should* diverge on a faulted run; this is only
/// consulted when the *results* diverged too.) Both runs' per-peer wire
/// counters ride along: on an omission-fault mismatch, the retransmit /
/// resume counts usually say which link misbehaved.
fn op_log_divergence(
    clean: &[PlannerOp],
    faulted: &[PlannerOp],
    clean_wire: &[PeerWireStats],
    faulted_wire: &[PeerWireStats],
) -> String {
    let head = match first_divergence(clean, faulted) {
        Some(i) => format!(
            "op logs first diverge at index {i}: clean {} vs faulted {}",
            clean
                .get(i)
                .map_or("<end of log>".into(), |o| format!("{o:?}")),
            faulted
                .get(i)
                .map_or("<end of log>".into(), |o| format!("{o:?}")),
        ),
        None => format!(
            "op logs share their common prefix (lengths {} vs {})",
            clean.len(),
            faulted.len()
        ),
    };
    format!(
        "{head}\n{}{}",
        wire_table("clean", clean_wire),
        wire_table("faulted", faulted_wire)
    )
}

/// Strict check on a serialized chain: full (worker, at_ce) agreement.
fn check_chain(faults: FaultPlan) {
    let inc_src = "
        __global__ void inc(float* a, int n) {
            int i = blockIdx.x * blockDim.x + threadIdx.x;
            if (i < n) { a[i] = a[i] + 1.0; }
        }
    ";
    let inc = Arc::new(kernelc::compile(inc_src).unwrap()[0].clone());
    let run_local = |faults: FaultPlan| {
        let mut rt = LocalRuntime::try_new(local_cfg(2, faults)).expect("spawn workers");
        let a = rt.alloc_f32(N);
        for _ in 0..CHAIN {
            rt.launch(&inc, 4, 64, vec![LocalArg::Buf(a), LocalArg::I32(N as i32)])
                .unwrap();
        }
        rt.synchronize().unwrap();
        let events = rt.sched_trace().events().to_vec();
        let assign: Vec<_> = (0..CHAIN)
            .map(|i| rt.node_assignment(i).and_then(|l| l.worker_index()))
            .collect();
        let ops = rt.op_log().to_vec();
        rt.refresh_wire_metrics();
        let wire = rt.metrics().wire.clone();
        (rt.read_f32(a).unwrap(), events, assign, ops, wire)
    };

    let (clean, _, _, clean_ops, clean_wire) = run_local(FaultPlan::none());
    let (faulted, local_events, local_assign, faulted_ops, faulted_wire) =
        run_local(faults.clone());
    if clean != faulted {
        panic!(
            "chain results diverged after recovery; {}",
            op_log_divergence(&clean_ops, &faulted_ops, &clean_wire, &faulted_wire)
        );
    }

    let mut rt = SimRuntime::try_new(sim_cfg(2, faults)).expect("valid config");
    let a = rt.alloc(BYTES);
    let cost = KernelCost {
        flops: 1e6,
        bytes_read: BYTES,
        bytes_written: BYTES,
    };
    for _ in 0..CHAIN {
        rt.launch("inc", cost, vec![CeArg::read_write(a, BYTES)]);
    }
    let sim_events = rt.sched_trace().events().to_vec();

    let lq = quarantine_of(&local_events).expect("local quarantined");
    let sq = quarantine_of(&sim_events).expect("sim quarantined");
    assert_eq!(lq, sq, "quarantine identity diverged on the chain");
    assert!(has_replay(&local_events), "local trace missing replay");
    assert!(has_replay(&sim_events), "sim trace missing replay");
    let (dead, at_ce) = lq;
    for (dag, &assigned) in local_assign.iter().enumerate().skip(at_ce) {
        assert_ne!(assigned, Some(dead), "local CE {dag} on dead node");
        assert_ne!(
            rt.node_assignment(dag).and_then(|l| l.worker_index()),
            Some(dead),
            "sim CE {dag} on dead node"
        );
    }
}

/// Randomized check: bit-identical local results + same victim in the sim.
fn check_random(ops: &[(u8, u8, u8)], kill_at: usize, workers: usize) {
    let kernels = kernelc::compile(SRC).unwrap();
    let write_k = Arc::new(kernels[0].clone());
    let addinto = Arc::new(kernels[1].clone());
    let scale = Arc::new(kernels[2].clone());

    let run_local = |faults: FaultPlan| {
        let mut rt = LocalRuntime::try_new(local_cfg(workers, faults)).expect("spawn workers");
        let arrays: Vec<_> = (0..3).map(|_| rt.alloc_f32(N)).collect();
        for &(a, b, kind) in ops {
            let (a, b) = (arrays[a as usize], arrays[b as usize]);
            match kind {
                0 => rt.launch(
                    &write_k,
                    4,
                    64,
                    vec![
                        LocalArg::Buf(a),
                        LocalArg::F32(3.5),
                        LocalArg::I32(N as i32),
                    ],
                ),
                1 if a != b => rt.launch(
                    &addinto,
                    4,
                    64,
                    vec![LocalArg::Buf(b), LocalArg::Buf(a), LocalArg::I32(N as i32)],
                ),
                _ => rt.launch(
                    &scale,
                    4,
                    64,
                    vec![LocalArg::Buf(a), LocalArg::I32(N as i32)],
                ),
            }
            .unwrap();
        }
        rt.synchronize().unwrap();
        let events = rt.sched_trace().events().to_vec();
        let outs: Vec<Vec<f32>> = arrays.iter().map(|&x| rt.read_f32(x).unwrap()).collect();
        let ops = rt.op_log().to_vec();
        rt.refresh_wire_metrics();
        let wire = rt.metrics().wire.clone();
        (outs, events, ops, wire)
    };

    let (clean, _, clean_ops, clean_wire) = run_local(FaultPlan::none());
    let (faulted, local_events, faulted_ops, faulted_wire) =
        run_local(FaultPlan::kill_at_ce(kill_at));
    if clean != faulted {
        panic!(
            "random workload results diverged; {}",
            op_log_divergence(&clean_ops, &faulted_ops, &clean_wire, &faulted_wire)
        );
    }
    // (No replay assertion here: a killed CE whose inputs are all still
    // version 0 recovers from the controller's zero-state without lineage.)
    let (local_dead, _) = quarantine_of(&local_events).expect("local quarantined");

    let mut rt = SimRuntime::try_new(sim_cfg(workers, FaultPlan::kill_at_ce(kill_at)))
        .expect("valid config");
    let arrays: Vec<_> = (0..3).map(|_| rt.alloc(BYTES)).collect();
    let cost = KernelCost {
        flops: 1e6,
        bytes_read: BYTES,
        bytes_written: 0,
    };
    for &(a, b, kind) in ops {
        let args = match kind {
            0 => vec![CeArg::write(arrays[a as usize], BYTES)],
            1 if a != b => vec![
                CeArg::read(arrays[a as usize], BYTES),
                CeArg::read_write(arrays[b as usize], BYTES),
            ],
            _ => vec![CeArg::read_write(arrays[a as usize], BYTES)],
        };
        rt.launch("k", cost, args);
    }
    let (sim_dead, _) = quarantine_of(rt.sched_trace().events()).expect("sim quarantined");
    // The shared planner makes the victim deterministic across runtimes;
    // the discovery CE may differ on parallel DAGs (detection timing).
    assert_eq!(local_dead, sim_dead, "different victim across runtimes");
}

/// One seed's full differential check (runs inside a watchdog thread).
fn check_seed(seed: u64) {
    let candidates: Vec<usize> = (1..CHAIN - 1).collect();
    check_chain(FaultPlan::one_death(seed, &candidates));

    // Seeded xorshift workload, mirrored into both runtimes.
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let len = (next() % 8 + 4) as usize;
    let ops: Vec<(u8, u8, u8)> = (0..len)
        .map(|_| ((next() % 3) as u8, (next() % 3) as u8, (next() % 3) as u8))
        .collect();
    let kill_at = (next() % len as u64) as usize;
    let workers = (next() % 2 + 2) as usize;
    check_random(&ops, kill_at, workers);
}

/// Where the `grout-workerd` binary lives: `GROUT_WORKERD` env override,
/// else a sibling of this executable (both land in the same target dir).
/// The position-independent chain kernel every TCP differential runs:
/// `a[i] += 1.0` is the same arithmetic on every worker, so placement
/// changes (faults, elastic membership) can never change the bits.
fn inc_kernel() -> Arc<kernelc::CompiledKernel> {
    Arc::new(
        kernelc::compile(
            "__global__ void inc(float* a, int n) {
                int i = blockIdx.x * blockDim.x + threadIdx.x;
                if (i < n) { a[i] = a[i] + 1.0; }
            }",
        )
        .unwrap()[0]
            .clone(),
    )
}

fn workerd_path() -> std::path::PathBuf {
    if let Some(p) = std::env::var_os("GROUT_WORKERD") {
        return p.into();
    }
    let mut p = std::env::current_exe().expect("current exe");
    p.set_file_name("grout-workerd");
    p
}

/// Number of `ph:"X"` spans with category `cat` on process `pid` in a
/// Chrome trace value (the merged-trace schema check, in-process).
fn count_spans(trace: &serde_json::Value, pid: u64, cat: &str) -> usize {
    use serde_json::Value;
    let Value::Object(top) = trace else { return 0 };
    let Some(Value::Array(events)) = top.iter().find(|(k, _)| k == "traceEvents").map(|(_, v)| v)
    else {
        return 0;
    };
    events
        .iter()
        .filter(|ev| {
            let Value::Object(fields) = ev else {
                return false;
            };
            let field = |k: &str| fields.iter().find(|(n, _)| n == k).map(|(_, v)| v);
            field("ph") == Some(&Value::String("X".into()))
                && field("pid") == Some(&Value::U64(pid))
                && field("cat") == Some(&Value::String(cat.into()))
        })
        .count()
}

/// Process-level chaos: SIGKILL a real `grout-workerd` mid-run.
///
/// The victim is the worker holding the only fresh copy of the array (the
/// one that ran the last pre-kill CE), so recovery *must* lineage-replay —
/// the controller's master copy is stale. The post-recovery result must be
/// bit-identical to a clean in-process run of the same chain.
///
/// The run is traced: the victim's pre-death execute spans were streamed
/// to the controller before the SIGKILL (the engine flushes telemetry
/// ahead of every completion), so they must survive in the merged trace
/// even though the worker is gone.
///
/// With `--metrics-out`, the artifact carries the TCP run's *measured*
/// bandwidth matrix next to a net-sim run's *modeled* one (`bw_source`
/// distinguishes them), so the two can be compared in one file.
fn check_kill_process(art: ArtifactArgs) {
    use grout::{TcpExt, WorkerSpec};

    let inc = inc_kernel();
    let n = N as i32;
    let pre = CHAIN / 2;
    let post = CHAIN - pre;

    // Clean in-process reference.
    let expected: Vec<u32> = {
        let mut rt = LocalRuntime::try_new(local_cfg(2, FaultPlan::none())).expect("spawn");
        let a = rt.alloc_f32(N);
        rt.write_f32(a, |v| {
            v.iter_mut().enumerate().for_each(|(i, x)| *x = i as f32)
        })
        .unwrap();
        for _ in 0..CHAIN {
            rt.launch(&inc, 4, 64, vec![LocalArg::Buf(a), LocalArg::I32(n)])
                .unwrap();
        }
        rt.synchronize().unwrap();
        rt.read_f32(a)
            .unwrap()
            .iter()
            .map(|x| x.to_bits())
            .collect()
    };

    // Distributed victim run, traced: worker-side spans stream back over
    // the wire and land in this tracer clock-aligned.
    let tracer = Shared::new(ChromeTracer::new());
    let workerd = workerd_path();
    let mut rt = Runtime::builder()
        .telemetry(tracer.telemetry())
        .tcp(vec![
            WorkerSpec::Spawn(workerd.clone()),
            WorkerSpec::Spawn(workerd),
        ])
        .build()
        .expect("spawn grout-workerd pair");
    let a = rt.alloc_f32(N);
    rt.write_f32(a, |v| {
        v.iter_mut().enumerate().for_each(|(i, x)| *x = i as f32)
    })
    .unwrap();
    for _ in 0..pre {
        rt.launch(&inc, 4, 64, vec![LocalArg::Buf(a), LocalArg::I32(n)])
            .unwrap();
    }
    rt.synchronize().unwrap();

    // dag 0 is the host write; the last pre-kill inc is dag `pre`. Its
    // worker holds the only fresh copy of `a`.
    let victim = rt
        .node_assignment(pre)
        .and_then(|l| l.worker_index())
        .expect("chain CE assigned to a worker");
    let pid = rt.worker_pid(victim).expect("spawned worker has a pid");
    let status = std::process::Command::new("kill")
        .args(["-9", &pid.to_string()])
        .status()
        .expect("kill runs");
    assert!(status.success(), "SIGKILL failed");

    for _ in 0..post {
        rt.launch(&inc, 4, 64, vec![LocalArg::Buf(a), LocalArg::I32(n)])
            .unwrap();
    }
    rt.synchronize().expect("recovery heals the run");
    let got: Vec<u32> = rt
        .read_f32(a)
        .unwrap()
        .iter()
        .map(|x| x.to_bits())
        .collect();
    assert_eq!(expected, got, "post-recovery results diverged");

    // The faulted-chain counters: quarantine recorded, lost data replayed.
    let events = rt.sched_trace().events().to_vec();
    let (dead, _) = quarantine_of(&events).expect("quarantine event recorded");
    assert_eq!(dead, victim, "quarantined a different worker than killed");
    assert!(
        has_replay(&events),
        "no lineage replay despite orphaned data"
    );
    assert!(rt.metrics().quarantines >= 1);
    assert!(rt.metrics().replays >= 1);
    assert!(rt.is_quarantined(victim));
    assert_eq!(rt.healthy_workers(), 1);
    assert_eq!(rt.metrics().bw_source, "measured");

    // The dead worker's pre-death telemetry survives: its execute spans
    // were flushed to the controller before the kill, so the merged trace
    // keeps its lane (pid = worker index + 1) even though the process is
    // gone and its post-kill work was replayed elsewhere.
    let trace = tracer.lock().to_json_value();
    let victim_execs = count_spans(&trace, (victim + 1) as u64, "execute");
    assert!(
        victim_execs >= 1,
        "merged trace lost the killed worker's pre-death execute spans"
    );
    let survivor = 1 - victim;
    assert!(
        count_spans(&trace, (survivor + 1) as u64, "execute") >= 1,
        "merged trace missing the surviving worker's execute spans"
    );

    if art.wanted() {
        // Measured (TCP probe round) vs modeled (net-sim probe) matrices,
        // side by side in one artifact.
        let mut sim = SimRuntime::try_new(SimConfig::paper_grout(
            2,
            PolicyKind::MinTransferTime(ExplorationLevel::Medium),
        ))
        .expect("valid config");
        let a = sim.alloc(BYTES);
        let cost = KernelCost {
            flops: 1e6,
            bytes_read: BYTES,
            bytes_written: BYTES,
        };
        for _ in 0..CHAIN {
            sim.launch("inc", cost, vec![CeArg::read_write(a, BYTES)]);
        }
        art.write_metrics(&[
            ("dist-tcp-measured", rt.metrics()),
            ("sim-net-modeled", sim.metrics()),
        ]);
    }
}

/// TCP network-chaos differential for one seed: a seeded plan of severs
/// and partitions cuts the controller sockets of a spawned workerd pair
/// mid-chain. The session layer must resume every cut, so the run stays
/// bit-identical to the clean TCP run with zero quarantines, and at least
/// one resume is counted whenever the plan schedules a fault.
fn check_net_seed(seed: u64) {
    let plan = NetFaultPlan::seeded(seed, 2, 48, 0.25);
    let scheduled = !plan.is_empty();
    let (clean, _, clean_ops, clean_wire, _) = run_dist_chain(NetFaultPlan::none(), |_, _| {});
    let (chaotic, events, chaos_ops, chaos_wire, quarantines) = run_dist_chain(plan, |_, _| {});
    assert_eq!(quarantines, 0, "network chaos must never quarantine");
    assert!(
        quarantine_of(&events).is_none(),
        "quarantine event recorded under network chaos"
    );
    if clean != chaotic {
        panic!(
            "net chaos diverged from the clean TCP run; {}",
            op_log_divergence(&clean_ops, &chaos_ops, &clean_wire, &chaos_wire)
        );
    }
    assert_ops_equivalent(&clean_ops, &chaos_ops, "net-seed");
    let resumes: u64 = chaos_wire.iter().map(|w| w.resumes).sum();
    if scheduled {
        assert!(
            resumes >= 1,
            "plan had severs/partitions but no resume was counted"
        );
    }
}

/// Splits an op log into its deterministic planning prefix-order (everything
/// but `MarkCompleted`) and the sorted set of completed dag indices.
/// Completion *arrival* order races between workers, so even two clean
/// runs interleave `MarkCompleted` differently; the planner's completed
/// set is order-insensitive, so it is compared as a sorted set.
fn split_completions(ops: &[PlannerOp]) -> (Vec<PlannerOp>, Vec<usize>) {
    let mut plan = Vec::new();
    let mut done = Vec::new();
    for op in ops {
        match op {
            PlannerOp::MarkCompleted { dag_index } => done.push(*dag_index),
            other => plan.push(other.clone()),
        }
    }
    done.sort_unstable();
    (plan, done)
}

/// Planner-op equality modulo physically non-deterministic payloads: the
/// measured link matrices of two separate TCP runs differ in the raw
/// bandwidth floats (and suspect/reinstate pairs are timing artifacts
/// that net out), so membership and placement ops are compared in order
/// and completions as a set.
fn assert_ops_equivalent(clean: &[PlannerOp], faulted: &[PlannerOp], what: &str) {
    let strip = |ops: &[PlannerOp]| -> Vec<PlannerOp> {
        ops.iter()
            .filter(|o| {
                !matches!(
                    o,
                    PlannerOp::ReprobeLinks { .. }
                        | PlannerOp::Suspect { .. }
                        | PlannerOp::Reinstate { .. }
                )
            })
            .cloned()
            .collect()
    };
    let (c_plan, c_done) = split_completions(&strip(clean));
    let (f_plan, f_done) = split_completions(&strip(faulted));
    assert_eq!(
        c_plan, f_plan,
        "{what}: op logs diverged beyond link-probe/suspicion noise"
    );
    assert_eq!(c_done, f_done, "{what}: completed-CE sets diverged");
}

/// One TCP chain over a spawned workerd pair with `plan` injected at the
/// socket layer. Returns everything the differentials compare. The
/// liveness knobs are deliberately aggressive (20ms beats, 3-beat
/// staleness) so a CI-sized run crosses the staleness window quickly;
/// the reconnect window stays wide so omission faults never escalate to
/// quarantine.
#[allow(clippy::type_complexity)]
fn run_dist_chain(
    plan: NetFaultPlan,
    mid_run: impl FnOnce(&mut grout::DistRuntime, usize),
) -> (
    Vec<u32>,
    Vec<SchedEvent>,
    Vec<PlannerOp>,
    Vec<PeerWireStats>,
    u64,
) {
    use grout::{TcpConfig, TcpExt, WorkerSpec};
    use std::time::Duration;

    let inc = inc_kernel();
    let fc = grout::core::FaultConfig {
        detection_timeout: SimDuration::from_millis(100),
        ..Default::default()
    };
    let workerd = workerd_path();
    let mut rt = Runtime::builder()
        .fault_config(fc)
        .tcp(vec![
            WorkerSpec::Spawn(workerd.clone()),
            WorkerSpec::Spawn(workerd),
        ])
        .config(TcpConfig {
            heartbeat: Duration::from_millis(20),
            stale_after_beats: 3,
            reconnect_window: Duration::from_secs(10),
            net_faults: plan,
            ..TcpConfig::default()
        })
        .build()
        .expect("spawn grout-workerd pair");
    let n = N as i32;
    let a = rt.alloc_f32(N);
    rt.write_f32(a, |v| {
        v.iter_mut().enumerate().for_each(|(i, x)| *x = i as f32)
    })
    .unwrap();
    let pre = CHAIN / 2;
    for _ in 0..pre {
        rt.launch(&inc, 4, 64, vec![LocalArg::Buf(a), LocalArg::I32(n)])
            .unwrap();
    }
    rt.synchronize().unwrap();
    mid_run(&mut rt, pre);
    for _ in 0..(CHAIN - pre) {
        rt.launch(&inc, 4, 64, vec![LocalArg::Buf(a), LocalArg::I32(n)])
            .unwrap();
    }
    rt.synchronize().expect("chaos run completes");
    let bits: Vec<u32> = rt
        .read_f32(a)
        .unwrap()
        .iter()
        .map(|x| x.to_bits())
        .collect();
    rt.refresh_wire_metrics();
    (
        bits,
        rt.sched_trace().events().to_vec(),
        rt.op_log().to_vec(),
        rt.metrics().wire.clone(),
        rt.metrics().quarantines,
    )
}

/// TCP sever differential: worker 0's controller socket is cut
/// mid-stream by the injected plan; the session must resume on a fresh
/// socket, replay unacked frames, and leave the run bit-identical with
/// zero quarantines and ≥1 counted resume.
fn check_net_sever() {
    let (clean, _, clean_ops, clean_wire, _) = run_dist_chain(NetFaultPlan::none(), |_, _| {});
    let (severed, events, sev_ops, sev_wire, quarantines) =
        run_dist_chain(NetFaultPlan::sever_at(0, 3), |_, _| {});
    assert_eq!(quarantines, 0, "a resumable sever must not quarantine");
    assert!(
        quarantine_of(&events).is_none(),
        "quarantine event recorded for a resumable sever"
    );
    if clean != severed {
        panic!(
            "TCP sever run diverged from clean run; {}",
            op_log_divergence(&clean_ops, &sev_ops, &clean_wire, &sev_wire)
        );
    }
    assert_ops_equivalent(&clean_ops, &sev_ops, "tcp-sever");
    let resumes: u64 = sev_wire.iter().map(|w| w.resumes).sum();
    assert!(resumes >= 1, "sever did not go through the resume path");
}

/// TCP SIGSTOP differential: one workerd is stopped past the staleness
/// window (the controller suspects it and severs the socket) and
/// continued inside the reconnect window (the resume reinstates it).
/// No quarantine, ≥1 resume, suspect/reinstate visible in the schedule
/// trace, bit-identical results.
fn check_sigstop() {
    let signal_worker = |rt: &grout::DistRuntime, w: usize, sig: &str| {
        let pid = rt.worker_pid(w).expect("spawned worker has a pid");
        let ok = std::process::Command::new("kill")
            .args([sig, &pid.to_string()])
            .status()
            .expect("kill runs")
            .success();
        assert!(ok, "kill {sig} failed");
    };
    let (clean, _, clean_ops, clean_wire, _) = run_dist_chain(NetFaultPlan::none(), |_, _| {});
    let (stopped, events, stop_ops, stop_wire, quarantines) =
        run_dist_chain(NetFaultPlan::none(), |rt, pre| {
            let victim = rt
                .node_assignment(pre)
                .and_then(|l| l.worker_index())
                .expect("chain CE assigned to a worker");
            signal_worker(rt, victim, "-STOP");
            let pid = rt.worker_pid(victim).expect("pid");
            // SIGCONT from a helper thread while the controller is blocked
            // in synchronize discovering the staleness.
            std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(500));
                let _ = std::process::Command::new("kill")
                    .args(["-CONT", &pid.to_string()])
                    .status();
            });
        });
    assert_eq!(
        quarantines, 0,
        "a stopped-then-continued worker must not quarantine"
    );
    assert!(quarantine_of(&events).is_none());
    assert!(
        events
            .iter()
            .any(|e| matches!(e, SchedEvent::Suspected { .. })),
        "staleness never promoted the worker to Suspected"
    );
    assert!(
        events
            .iter()
            .any(|e| matches!(e, SchedEvent::Reinstated { .. })),
        "the resumed worker was never reinstated"
    );
    if clean != stopped {
        panic!(
            "SIGSTOP run diverged from clean run; {}",
            op_log_divergence(&clean_ops, &stop_ops, &clean_wire, &stop_wire)
        );
    }
    assert_ops_equivalent(&clean_ops, &stop_ops, "sigstop");
    let resumes: u64 = stop_wire.iter().map(|w| w.resumes).sum();
    assert!(resumes >= 1, "no session resume despite the severed socket");
}

/// Elastic membership differential: a third workerd joins the live
/// two-worker chain mid-run, takes CE placements on a scratch DAG, and a
/// founding worker then departs cleanly. The scratch work never touches
/// the chain buffer, so the run must stay bit-identical with the static
/// two-worker run — and a clean Leave is a planned membership change,
/// not a fault: zero quarantines, zero session resumes.
fn check_elastic() {
    let (clean, _, _, _, _) = run_dist_chain(NetFaultPlan::none(), |_, _| {});
    let (elastic, events, _, wire, quarantines) = run_dist_chain(NetFaultPlan::none(), |rt, _| {
        let joined = rt
            .join(grout::WorkerSpec::Spawn(workerd_path()))
            .expect("mid-run join");
        assert_eq!(joined, 2, "newcomer takes the next index");
        assert_eq!(rt.healthy_workers(), 3, "mesh grew to three");
        // Scratch DAG over the grown mesh: the newcomer must receive
        // CE placements before anyone departs.
        let inc = inc_kernel();
        let s = rt.alloc_f32(N);
        rt.write_f32(s, |v| v.fill(0.0)).unwrap();
        for _ in 0..3 {
            rt.launch(&inc, 4, 64, vec![LocalArg::Buf(s), LocalArg::I32(N as i32)])
                .unwrap();
        }
        rt.synchronize().expect("grown mesh completes scratch work");
        let placed = (0..64)
            .filter_map(|i| rt.node_assignment(i))
            .filter(|l| l.worker_index() == Some(joined))
            .count();
        assert!(placed >= 1, "joined worker never received a CE placement");
        rt.leave(0).expect("clean leave of a founding worker");
        assert!(!rt.is_quarantined(0), "clean leave must not quarantine");
        assert_eq!(rt.healthy_workers(), 2, "departure rebalances to two");
    });
    assert_eq!(quarantines, 0, "elastic membership must not quarantine");
    assert!(
        quarantine_of(&events).is_none(),
        "quarantine event recorded for a planned membership change"
    );
    let resumes: u64 = wire.iter().map(|w| w.resumes).sum();
    assert_eq!(resumes, 0, "clean join/leave must not trip session resume");
    assert_eq!(
        clean, elastic,
        "elastic run diverged bitwise from the static two-worker run"
    );
}

/// One instrumented faulted sim chain (kill at CE 2, two workers): the
/// exported metrics carry non-zero fault/retry/quarantine counters and the
/// trace shows the recovery replanning.
fn emit_artifacts(art: &ArtifactArgs) {
    if !art.wanted() {
        return;
    }
    let tracer = Shared::new(ChromeTracer::new());
    let mut rt = Runtime::builder()
        .sim_config(sim_cfg(2, FaultPlan::kill_at_ce(2)))
        .telemetry(tracer.telemetry())
        .build_sim()
        .expect("valid config");
    let a = rt.alloc(BYTES);
    let cost = KernelCost {
        flops: 1e6,
        bytes_read: BYTES,
        bytes_written: BYTES,
    };
    for _ in 0..CHAIN {
        rt.launch("inc", cost, vec![CeArg::read_write(a, BYTES)]);
    }
    art.write_trace(&tracer.lock());
    art.write_metrics(&[("chaos-sim-chain-kill-at-2", rt.metrics())]);
}

/// Runs `f` under a watchdog; returns true on PASS. A hang is a FAIL and
/// kills the whole harness (a wedged recovery must never hang CI).
fn watchdog(label: &str, f: impl FnOnce() + Send + 'static) -> bool {
    let h = std::thread::spawn(f);
    let start = std::time::Instant::now();
    while !h.is_finished() {
        if start.elapsed().as_secs() > 60 {
            println!("{label}  FAIL (watchdog: recovery deadlock)");
            std::process::exit(1);
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    match h.join() {
        Ok(()) => {
            println!("{label}  PASS");
            true
        }
        Err(e) => {
            let msg = e
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| e.downcast_ref::<&str>().copied())
                .unwrap_or("panic");
            println!("{label}  FAIL: {msg}");
            false
        }
    }
}

fn main() {
    let mut seeds = 8u64;
    let args: Vec<String> = std::env::args().collect();
    let art = ArtifactArgs::parse(&args);
    if let Some(i) = args.iter().position(|a| a == "--seeds") {
        seeds = args
            .get(i + 1)
            .and_then(|s| s.parse().ok())
            .expect("--seeds takes a number");
    }

    if args.iter().any(|a| a == "--kill-process") {
        let art = art.clone();
        if !watchdog("kill-process", move || check_kill_process(art)) {
            std::process::exit(1);
        }
        return;
    }

    if args.iter().any(|a| a == "--net-sever") {
        if !watchdog("net-sever", check_net_sever) {
            std::process::exit(1);
        }
        return;
    }

    if args.iter().any(|a| a == "--sigstop") {
        if !watchdog("sigstop", check_sigstop) {
            std::process::exit(1);
        }
        return;
    }

    if args.iter().any(|a| a == "--elastic") {
        if !watchdog("elastic", check_elastic) {
            std::process::exit(1);
        }
        return;
    }

    if let Some(i) = args.iter().position(|a| a == "--net-seeds") {
        let n: u64 = args
            .get(i + 1)
            .and_then(|s| s.parse().ok())
            .expect("--net-seeds takes a number");
        let mut failures = 0;
        for seed in 0..n {
            if !watchdog(&format!("net-seed {seed:>3}"), move || check_net_seed(seed)) {
                failures += 1;
            }
        }
        if failures > 0 {
            println!("{failures}/{n} net seeds failed");
            std::process::exit(1);
        }
        println!("all {n} net seeds passed");
        return;
    }

    let mut failures = 0;
    for seed in 0..seeds {
        if !watchdog(&format!("seed {seed:>3}"), move || check_seed(seed)) {
            failures += 1;
        }
    }
    if failures > 0 {
        println!("{failures}/{seeds} seeds failed");
        std::process::exit(1);
    }
    println!("all {seeds} seeds passed");
    emit_artifacts(&art);
}
