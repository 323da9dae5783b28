//! Distributed loopback differential test: the same seeded workload runs
//! once on the in-process channel transport and once across real
//! `grout-workerd` processes over TCP on 127.0.0.1. Controller logic,
//! planner and worker engine are all shared, and every float crosses the
//! wire as `to_le_bytes`, so the results must match *bit for bit* — and
//! the final coherence directories must be identical, because the
//! scheduling decisions (hence data movements) are the same stream.
//!
//! Also covers the crash path the chaos harness automates: SIGKILLing a
//! `grout-workerd` mid-run must be detected (socket EOF / stale
//! heartbeats), quarantined, and healed by lineage replay — same
//! machinery, real process death.

use std::sync::Arc;

use grout::core::{
    first_divergence, replay_ops, LocalRuntime, Planner, PlannerOp, PolicyKind, Runtime,
};
use grout::LocalArg;
use grout::{TcpExt, WorkerSpec};
use kernelc::CompiledKernel;
use serde_json::Value;

const N: usize = 1 << 10;

const SRC: &str = "
    __global__ void saxpy(float* y, const float* x, float a, int n) {
        int i = blockIdx.x * blockDim.x + threadIdx.x;
        if (i < n) { y[i] = a * x[i] + y[i]; }
    }
    __global__ void scale(float* y, float a, int n) {
        int i = blockIdx.x * blockDim.x + threadIdx.x;
        if (i < n) { y[i] = a * y[i]; }
    }
    __global__ void mix(float* out, const float* p, const float* q, int n) {
        int i = blockIdx.x * blockDim.x + threadIdx.x;
        if (i < n) { out[i] = p[i] * 0.5 + q[i] * 0.25; }
    }
";

fn kernels() -> (
    Arc<CompiledKernel>,
    Arc<CompiledKernel>,
    Arc<CompiledKernel>,
) {
    let ks = kernelc::compile(SRC).expect("compiles");
    (
        Arc::new(ks[0].clone()),
        Arc::new(ks[1].clone()),
        Arc::new(ks[2].clone()),
    )
}

fn workerd() -> WorkerSpec {
    WorkerSpec::Spawn(env!("CARGO_BIN_EXE_grout-workerd").into())
}

/// The seeded workload: three arrays, a chain of kernels with
/// cross-worker data dependencies, and a mid-run host write. Returns the
/// three final arrays as bit patterns.
fn run_workload(rt: &mut LocalRuntime) -> Vec<Vec<u32>> {
    let (saxpy, scale, mix) = kernels();
    let n = N as i32;
    let a = rt.alloc_f32(N);
    let b = rt.alloc_f32(N);
    let c = rt.alloc_f32(N);
    // Seeded, irregular initial contents (bit-exact by construction).
    rt.write_f32(a, |v| {
        let mut s = 0x9e3779b9u32;
        for x in v.iter_mut() {
            s = s.wrapping_mul(1664525).wrapping_add(1013904223);
            *x = (s >> 8) as f32 / 1e6;
        }
    })
    .unwrap();
    rt.write_f32(b, |v| {
        for (i, x) in v.iter_mut().enumerate() {
            *x = (i as f32).sin();
        }
    })
    .unwrap();

    rt.launch(
        &saxpy,
        8,
        128,
        vec![
            LocalArg::Buf(b),
            LocalArg::Buf(a),
            LocalArg::F32(1.5),
            LocalArg::I32(n),
        ],
    )
    .unwrap();
    rt.launch(
        &scale,
        8,
        128,
        vec![LocalArg::Buf(a), LocalArg::F32(-0.75), LocalArg::I32(n)],
    )
    .unwrap();
    rt.launch(
        &mix,
        8,
        128,
        vec![
            LocalArg::Buf(c),
            LocalArg::Buf(a),
            LocalArg::Buf(b),
            LocalArg::I32(n),
        ],
    )
    .unwrap();
    rt.synchronize().unwrap();

    // Host write between synchronization points (forces a fetch + makes
    // the controller the exclusive holder again).
    rt.write_f32(a, |v| {
        for x in v.iter_mut() {
            *x += 1.0;
        }
    })
    .unwrap();
    rt.launch(
        &saxpy,
        8,
        128,
        vec![
            LocalArg::Buf(c),
            LocalArg::Buf(a),
            LocalArg::F32(0.125),
            LocalArg::I32(n),
        ],
    )
    .unwrap();
    rt.launch(
        &scale,
        8,
        128,
        vec![LocalArg::Buf(b), LocalArg::F32(3.0), LocalArg::I32(n)],
    )
    .unwrap();
    rt.synchronize().unwrap();

    [a, b, c]
        .into_iter()
        .map(|arr| {
            rt.read_f32(arr)
                .unwrap()
                .into_iter()
                .map(f32::to_bits)
                .collect()
        })
        .collect()
}

/// `ops` with each run of adjacent [`PlannerOp::MarkCompleted`]s sorted by
/// DAG index, so two logs that saw the same completions in a different
/// arrival order compare equal.
fn canonical_completions(ops: &[PlannerOp]) -> Vec<PlannerOp> {
    let completed = |op: &PlannerOp| match op {
        PlannerOp::MarkCompleted { dag_index } => Some(*dag_index),
        _ => None,
    };
    let mut out = ops.to_vec();
    for run in out.chunk_by_mut(|a, b| completed(a).is_some() && completed(b).is_some()) {
        run.sort_by_key(completed);
    }
    out
}

#[test]
fn tcp_loopback_matches_in_process_bit_for_bit() {
    let mut local = Runtime::builder()
        .workers(2)
        .policy(PolicyKind::RoundRobin)
        .build_local()
        .expect("in-process runtime");
    let local_bits = run_workload(&mut local);

    let mut dist = Runtime::builder()
        .policy(PolicyKind::RoundRobin)
        .tcp(vec![workerd(), workerd()])
        .build()
        .expect("distributed runtime");
    assert_eq!(dist.transport_kind(), "tcp");
    let dist_bits = run_workload(&mut dist);

    assert_eq!(
        local_bits, dist_bits,
        "TCP loopback diverged from the in-process run"
    );

    // Same plan stream, same movements — the final coherence directories
    // must agree exactly.
    assert_eq!(
        local.coherence(),
        dist.coherence(),
        "final coherence directories diverged"
    );
    // Both transports fed the planner the same op stream, up to the order
    // of completions that raced: independent CEs on different workers
    // finish in either order, and each run logs its `MarkCompleted`s as
    // they arrive. Adjacent completions commute, so sort each run of them.
    let local_ops = canonical_completions(local.op_log());
    let dist_ops = canonical_completions(dist.op_log());
    assert_eq!(first_divergence(&local_ops, &dist_ops), None);
    // The decisions differ where the links steer them: the TCP planner
    // holds probed links, and `best_source` picks a P2P source by
    // bandwidth, so its op digest differs from the channel run's. Replayed
    // on a planner built with the channel run's config and links, both
    // canonical logs must reach one op digest, and the TCP log as recorded
    // must reach the channel run's live state exactly.
    let replay = |ops: &[PlannerOp]| {
        let mut replica = Planner::new(
            local.planner().config().clone(),
            local.planner().links().cloned(),
        );
        replay_ops(&mut replica, ops);
        replica
    };
    assert_eq!(
        replay(&dist_ops).op_digest(),
        replay(&local_ops).op_digest(),
        "planner decisions diverged between channel and TCP"
    );
    assert_eq!(
        replay(dist.op_log()).state_digest(),
        local.planner().state_digest(),
        "planner state diverged between channel and TCP"
    );

    // The distributed run measured its links; the in-process run modeled
    // them. Both surface through the one metrics artifact.
    assert_eq!(dist.metrics().bw_source, "measured");
    assert_eq!(dist.metrics().transport, "tcp");
    assert_eq!(dist.metrics().bw_bps.len(), 3, "controller + 2 workers");
    assert!(dist.metrics().bw_bps[0][1] > 0, "probed bandwidth missing");
    assert_eq!(local.metrics().bw_source, "uniform");
    assert_eq!(local.metrics().transport, "channel");
}

/// The `traceEvents` array of a Chrome trace value.
fn trace_events(trace: &Value) -> &[Value] {
    let Value::Object(top) = trace else {
        panic!("trace is not an object")
    };
    match top.iter().find(|(k, _)| k == "traceEvents").map(|(_, v)| v) {
        Some(Value::Array(events)) => events,
        _ => panic!("trace has no traceEvents array"),
    }
}

/// One field of a JSON object event (`None` when absent).
fn field<'a>(ev: &'a Value, key: &str) -> Option<&'a Value> {
    let Value::Object(fields) = ev else {
        return None;
    };
    fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn as_f64(v: Option<&Value>) -> Option<f64> {
    match v {
        Some(Value::F64(x)) => Some(*x),
        Some(Value::U64(x)) => Some(*x as f64),
        Some(Value::I64(x)) => Some(*x as f64),
        _ => None,
    }
}

fn as_u64(v: Option<&Value>) -> Option<u64> {
    match v {
        Some(Value::U64(x)) => Some(*x),
        _ => None,
    }
}

fn as_str(v: Option<&Value>) -> Option<&str> {
    match v {
        Some(Value::String(s)) => Some(s.as_str()),
        _ => None,
    }
}

/// The distributed-tracing acceptance check: a traced two-workerd TCP run
/// produces one merged trace carrying controller lanes plus each worker's
/// own execute/transfer spans with clock-aligned timestamps, the metrics
/// artifact carries per-peer wire counters and heartbeat RTT stats — and
/// turning tracing off does not change the computed results by a single
/// bit.
#[test]
fn traced_tcp_run_merges_clock_aligned_worker_spans() {
    use grout::core::{ChromeTracer, Shared};

    // Untraced reference.
    let mut plain = Runtime::builder()
        .policy(PolicyKind::RoundRobin)
        .tcp(vec![workerd(), workerd()])
        .build()
        .expect("distributed runtime");
    let plain_bits = run_workload(&mut plain);

    // Traced run of the same workload.
    let tracer = Shared::new(ChromeTracer::new());
    let mut dist = Runtime::builder()
        .policy(PolicyKind::RoundRobin)
        .telemetry(tracer.telemetry())
        .tcp(vec![workerd(), workerd()])
        .build()
        .expect("distributed runtime");
    let dist_bits = run_workload(&mut dist);

    assert_eq!(
        plain_bits, dist_bits,
        "telemetry changed the computed results"
    );

    // --- merged trace: one file, controller + both worker processes ---
    let trace = tracer.lock().to_json_value();
    let events = trace_events(&trace);
    let spans_on = |pid: u64, cat: &str| {
        events
            .iter()
            .filter(|ev| {
                as_str(field(ev, "ph")) == Some("X")
                    && as_u64(field(ev, "pid")) == Some(pid)
                    && as_str(field(ev, "cat")) == Some(cat)
            })
            .count()
    };
    let controller_spans = events
        .iter()
        .filter(|ev| as_str(field(ev, "ph")) == Some("X") && as_u64(field(ev, "pid")) == Some(0))
        .count();
    assert!(controller_spans >= 1, "controller lanes missing");
    for worker_pid in [1u64, 2] {
        assert!(
            spans_on(worker_pid, "execute") >= 1,
            "worker {} has no execute spans in the merged trace",
            worker_pid - 1
        );
        assert!(
            spans_on(worker_pid, "transfer") >= 1,
            "worker {} has no transfer spans in the merged trace",
            worker_pid - 1
        );
    }

    // Clock alignment: per (pid, tid) lane, spans are monotone in merge
    // order and never carry a negative duration — the offset estimate
    // plus the lane aligner must have absorbed any skew.
    let mut watermark: std::collections::HashMap<(u64, u64), f64> =
        std::collections::HashMap::new();
    for ev in events {
        if as_str(field(ev, "ph")) != Some("X") {
            continue;
        }
        let pid = as_u64(field(ev, "pid")).expect("span has pid");
        let tid = as_u64(field(ev, "tid")).expect("span has tid");
        let ts = as_f64(field(ev, "ts")).expect("span has ts");
        let dur = as_f64(field(ev, "dur")).expect("span has dur");
        assert!(dur >= 0.0, "negative-duration span on pid {pid} tid {tid}");
        assert!(ts >= 0.0, "span before run origin on pid {pid} tid {tid}");
        let last = watermark.entry((pid, tid)).or_insert(0.0);
        assert!(
            ts >= *last,
            "non-monotone lane (pid {pid} tid {tid}): {ts} after {last}"
        );
        *last = ts;
    }

    // --- unified metrics: per-peer wire counters + heartbeat RTT ---
    let metrics = dist.metrics();
    assert_eq!(metrics.wire.len(), 2, "one wire entry per peer");
    for (w, s) in metrics.wire.iter().enumerate() {
        assert!(s.frames_sent > 0, "no frames sent to worker {w}");
        assert!(s.bytes_sent > 0, "no bytes sent to worker {w}");
        assert!(s.frames_recv > 0, "no frames received from worker {w}");
        assert!(s.bytes_recv > 0, "no bytes received from worker {w}");
        assert!(s.hb_rtt.count >= 1, "no heartbeat RTT samples for {w}");
        assert!(s.telemetry_batches >= 1, "no telemetry batches from {w}");
        assert!(s.telemetry_spans >= 1, "no telemetry spans from {w}");
    }
    let json = metrics.snapshot(&[]).to_json();
    let samples = |family: &str| -> Vec<(String, f64)> {
        let fam = json
            .get(family)
            .unwrap_or_else(|| panic!("metrics JSON lacks {family}"));
        let items = fam
            .get("samples")
            .and_then(|s| s.as_array())
            .expect("samples");
        items
            .iter()
            .map(|s| {
                let worker = s.get("labels").and_then(|l| l.get("worker"));
                let worker = worker.and_then(|w| w.as_str()).expect("worker label");
                (
                    worker.to_string(),
                    s.get("value").and_then(|v| v.as_f64()).unwrap(),
                )
            })
            .collect()
    };
    let frames = samples("grout_wire_frames_total");
    assert!(
        frames.iter().any(|(w, _)| w == "1"),
        "metrics JSON lacks worker 1's wire"
    );
    let rtts = samples("grout_wire_hb_rtt_count");
    assert_eq!(rtts.len(), 2, "one heartbeat RTT count per peer");
    assert!(
        rtts.iter().all(|(_, n)| *n >= 1.0),
        "metrics JSON lacks RTT samples"
    );

    // The untraced transport still counts frames — observability of the
    // wire itself is always on; only span recording is gated.
    assert_eq!(plain.metrics().wire.len(), 2);
    assert!(plain.metrics().wire[0].frames_sent > 0);
}

#[test]
fn min_transfer_time_consumes_the_measured_matrix() {
    let mut dist = Runtime::builder()
        .policy(PolicyKind::MinTransferTime(grout::ExplorationLevel::Low))
        .tcp(vec![workerd(), workerd()])
        .build()
        .expect("distributed runtime");
    let links = dist
        .link_matrix()
        .expect("min-transfer-time holds the probed matrix")
        .clone();
    assert_eq!(links.len(), 3);
    let bits = run_workload(&mut dist);
    assert_eq!(bits.len(), 3);
    // The planner priced transfers with the measured matrix, not the
    // uniform fallback (probed loopback bandwidths are never all equal
    // to the 1e9 default).
    assert_eq!(dist.metrics().bw_source, "measured");
}

#[test]
fn sigkilled_workerd_is_quarantined_and_replayed() {
    let (saxpy, scale, _) = kernels();
    let n = N as i32;
    let mut dist = Runtime::builder()
        .policy(PolicyKind::RoundRobin)
        .tcp(vec![workerd(), workerd()])
        .build()
        .expect("distributed runtime");

    let a = rt_fill(&mut dist, &saxpy, n);

    // SIGKILL one worker process — real, unannounced death.
    let victim = dist
        .node_assignment(2)
        .and_then(|loc| loc.worker_index())
        .unwrap_or(0);
    let pid = dist.worker_pid(victim).expect("spawned worker has a pid");
    let killed = std::process::Command::new("kill")
        .args(["-9", &pid.to_string()])
        .status()
        .expect("kill runs");
    assert!(killed.success());

    // More work, including work that needs data the dead worker held.
    for _ in 0..3 {
        dist.launch(
            &scale,
            8,
            128,
            vec![LocalArg::Buf(a), LocalArg::F32(2.0), LocalArg::I32(n)],
        )
        .unwrap();
    }
    dist.synchronize().expect("recovery heals the run");

    let v = dist.read_f32(a).unwrap();
    assert!(v.iter().all(|x| x.is_finite()));
    assert!(
        dist.is_quarantined(victim),
        "killed worker must be quarantined"
    );
    assert_eq!(dist.healthy_workers(), 1);
    assert!(dist.metrics().event_count("quarantine") >= 1);
}

/// `Threads:` from `/proc/self/status` — the kernel's count of threads
/// in this process, immune to miscounting spawned-and-exited helpers.
/// Process-wide, so only meaningful where nothing else runs: see
/// [`controller_multiplexes_64_workers_over_one_io_thread`].
#[cfg(target_os = "linux")]
fn thread_count() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .expect("/proc/self/status readable")
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .expect("Threads: line present")
        .trim()
        .parse()
        .expect("thread count parses")
}

/// Set in the re-executed child of the thread-count test.
#[cfg(target_os = "linux")]
const ALONE_ENV: &str = "GROUT_TEST_ALONE_IN_PROCESS";

/// The event-loop acceptance check: a 64-worker mesh — every workerd an
/// in-process `serve_shutdown` loop, so worker threads are countable —
/// runs a full DAG while the controller adds exactly ONE thread (the
/// `grout-net-io` poll loop), not one reader per socket; and the serve
/// loops themselves spawn nothing (heartbeats, clock pings and telemetry
/// flushes are poll deadlines, not threads).
///
/// The count is process-wide and sibling tests start and stop threads of
/// their own, so the check re-executes this test binary filtered to this
/// one test and asserts in that child, where it is alone.
#[cfg(target_os = "linux")]
#[test]
fn controller_multiplexes_64_workers_over_one_io_thread() {
    use std::sync::atomic::AtomicBool;

    use grout::TcpConfig;

    if std::env::var_os(ALONE_ENV).is_none() {
        let child = std::process::Command::new(std::env::current_exe().expect("test binary"))
            .args([
                "--exact",
                "controller_multiplexes_64_workers_over_one_io_thread",
                "--nocapture",
            ])
            .env(ALONE_ENV, "1")
            .output()
            .expect("re-exec the test binary");
        let stdout = String::from_utf8_lossy(&child.stdout);
        assert!(
            child.status.success() && stdout.contains("1 passed"),
            "isolated thread-count check failed:\n{stdout}\n{}",
            String::from_utf8_lossy(&child.stderr)
        );
        return;
    }

    const W: usize = 64;
    let shutdown = Arc::new(AtomicBool::new(false));
    let mut addrs = Vec::with_capacity(W);
    let mut serves = Vec::with_capacity(W);
    for _ in 0..W {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        addrs.push(listener.local_addr().expect("local addr").to_string());
        let flag = Arc::clone(&shutdown);
        serves.push(std::thread::spawn(move || {
            grout::serve_shutdown(listener, flag)
        }));
    }
    // Baseline: main thread + the 64 serve threads.
    let before = thread_count();
    let mut dist = Runtime::builder()
        .policy(PolicyKind::RoundRobin)
        .tcp(addrs.into_iter().map(WorkerSpec::Connect).collect())
        .config(TcpConfig {
            // Tiny ballast: 64 ctrl links + 2016 peer pairs must probe in
            // test time; the smoke test cares about threads, not numbers.
            probe_bytes: 1024,
            ..TcpConfig::default()
        })
        .build()
        .expect("64-worker mesh comes up");
    // Warmup DAG over the full mesh: adoption, P2P dials, heartbeats and
    // telemetry all live before the count is taken.
    let bits = run_workload(&mut dist);
    assert_eq!(bits.len(), 3);
    let after = thread_count();
    assert_eq!(
        after - before,
        1,
        "64 peers must cost the controller exactly one I/O thread \
         (and the serve loops none): {before} -> {after}"
    );
    drop(dist); // best-effort Shutdown frames to all 64 serve loops
                // The Shutdown frame is best-effort: a worker heartbeating into the
                // closing socket can lose it to a TCP reset and park its session
                // awaiting resume. Real workerds are reaped by SIGTERM; here the
                // shutdown flag plays that role and bounds every serve loop's exit.
    shutdown.store(true, std::sync::atomic::Ordering::SeqCst);
    for s in serves {
        s.join().expect("serve thread").expect("clean serve exit");
    }
}

/// Elastic membership over real processes: a third workerd joins a live
/// two-worker run and receives CE placements; a worker then departs
/// cleanly and its directory entries are rebalanced — zero quarantines,
/// zero replays, results finite throughout.
#[test]
fn worker_joins_mid_run_and_departs_cleanly() {
    let (saxpy, scale, _) = kernels();
    let n = N as i32;
    let mut dist = Runtime::builder()
        .policy(PolicyKind::RoundRobin)
        .tcp(vec![workerd(), workerd()])
        .build()
        .expect("distributed runtime");
    let a = rt_fill(&mut dist, &saxpy, n);

    // Scale out mid-run.
    let joined = dist.join(workerd()).expect("mid-run join");
    assert_eq!(joined, 2, "newcomer takes the next index");
    assert_eq!(dist.healthy_workers(), 3);

    // Enough new nodes that round-robin must reach the newcomer.
    let mut extra = Vec::new();
    for _ in 0..3 {
        let b = dist.alloc_f32(N);
        dist.write_f32(b, |v| v.fill(1.0)).unwrap();
        dist.launch(
            &saxpy,
            8,
            128,
            vec![
                LocalArg::Buf(b),
                LocalArg::Buf(a),
                LocalArg::F32(0.5),
                LocalArg::I32(n),
            ],
        )
        .unwrap();
        extra.push(b);
    }
    dist.synchronize().expect("post-join work completes");
    let placed_on_joined = (0..32)
        .filter_map(|i| dist.node_assignment(i))
        .filter(|loc| loc.worker_index() == Some(joined))
        .count();
    assert!(
        placed_on_joined >= 1,
        "worker joined mid-run never received a CE placement"
    );

    // Scale in: worker 0 holds data from the fill; its sole copies must
    // be rebalanced, not quarantined-and-replayed.
    dist.leave(0).expect("clean departure");
    assert!(!dist.is_quarantined(0), "clean leave must not quarantine");
    assert!(dist.planner().is_departed(0));
    assert_eq!(dist.healthy_workers(), 2);
    assert_eq!(dist.metrics().event_count("quarantine"), 0);
    assert_eq!(dist.metrics().event_count("replay"), 0);

    // The run continues on the remaining workers, data intact.
    dist.launch(
        &scale,
        8,
        128,
        vec![LocalArg::Buf(a), LocalArg::F32(2.0), LocalArg::I32(n)],
    )
    .unwrap();
    dist.synchronize().expect("post-leave work completes");
    let v = dist.read_f32(a).unwrap();
    assert!(v.iter().all(|x| x.is_finite()));
}

/// Version skew is a typed reject, not a degraded session: a controller
/// hello stamped with the previous wire version gets its socket closed
/// without an ack, and the endpoint stays adoptable — a current
/// controller then adopts the same worker and computes bit-identically.
#[test]
fn skewed_hello_is_rejected_and_the_worker_stays_adoptable() {
    use std::sync::atomic::{AtomicBool, Ordering};

    use grout::net::wire;

    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr").to_string();
    let shutdown = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&shutdown);
    let serve = std::thread::spawn(move || grout::serve_shutdown(listener, flag));

    let mut hello = wire::encode_hello(&wire::Hello::Controller {
        index: 0,
        total: 1,
        heartbeat_ms: 100,
        peers: vec![addr.clone()],
        session_id: 1,
        resume: None,
    });
    hello[4..6].copy_from_slice(&(wire::WIRE_VERSION - 1).to_le_bytes());
    let mut raw = std::net::TcpStream::connect(&addr).expect("dial worker");
    raw.set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .expect("read timeout");
    wire::write_frame(&mut raw, &hello).expect("send skewed hello");
    match wire::read_frame(&mut raw) {
        Ok(None) => {}
        other => panic!("a skewed hello must be closed without an ack, got {other:?}"),
    }
    drop(raw);

    let mut local = Runtime::builder()
        .workers(1)
        .policy(PolicyKind::RoundRobin)
        .build_local()
        .expect("in-process runtime");
    let mut dist = Runtime::builder()
        .policy(PolicyKind::RoundRobin)
        .tcp(vec![WorkerSpec::Connect(addr)])
        .build()
        .expect("the worker is still adoptable");
    assert_eq!(dist.transport_kind(), "tcp");
    assert_eq!(run_workload(&mut local), run_workload(&mut dist));

    drop(dist);
    shutdown.store(true, Ordering::SeqCst);
    serve
        .join()
        .expect("serve thread")
        .expect("clean serve exit");
}

/// Allocates and runs two kernels so both workers hold fresh data.
fn rt_fill(rt: &mut LocalRuntime, saxpy: &Arc<CompiledKernel>, n: i32) -> grout::ArrayId {
    let a = rt.alloc_f32(N);
    let b = rt.alloc_f32(N);
    rt.write_f32(a, |v| {
        v.iter_mut().enumerate().for_each(|(i, x)| *x = i as f32)
    })
    .unwrap();
    rt.write_f32(b, |v| v.fill(1.0)).unwrap();
    rt.launch(
        saxpy,
        8,
        128,
        vec![
            LocalArg::Buf(a),
            LocalArg::Buf(b),
            LocalArg::F32(2.0),
            LocalArg::I32(n),
        ],
    )
    .unwrap();
    rt.launch(
        saxpy,
        8,
        128,
        vec![
            LocalArg::Buf(b),
            LocalArg::Buf(a),
            LocalArg::F32(0.5),
            LocalArg::I32(n),
        ],
    )
    .unwrap();
    rt.synchronize().unwrap();
    a
}
