//! Multi-tenant control-plane acceptance tests.
//!
//! - Two concurrent sessions on one shared in-process fleet produce
//!   results bit-identical to solo runs, with zero cross-session
//!   quarantines — the isolation guarantee the session layer makes.
//! - With CE batching on, eight concurrent sessions get a tick's messages
//!   for one worker coalesced into `Batch` frames (fewer frames than
//!   messages), still bit-identical to solo runs.
//! - The fair-share scheduler starves no session: every ready frontier
//!   drains within its `ceil(n / weight)` bound regardless of co-tenants
//!   (property-based).
//! - A saturated `grout-ctld` rejects an attach with the typed wire
//!   error and the client exits cleanly, reason on stderr.
//! - Two concurrent `grout-run --connect` clients against a real
//!   `grout-ctld` process (CE batching on) each get exactly the solo
//!   script output.

use std::collections::BTreeSet;
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use grout::core::{ChannelTransport, FairShare, FleetMux, LocalRuntime, Runtime, SessionId};
use grout::net::http::http_get;
use grout::net::CtldClient;
use grout::LocalArg;
use proptest::prelude::*;
use serde_json::Value;

const N: usize = 1 << 8;

const SRC: &str = "
    __global__ void saxpy(float* y, const float* x, float a, int n) {
        int i = blockIdx.x * blockDim.x + threadIdx.x;
        if (i < n) { y[i] = a * x[i] + y[i]; }
    }
    __global__ void scale(float* y, float a, int n) {
        int i = blockIdx.x * blockDim.x + threadIdx.x;
        if (i < n) { y[i] = a * y[i]; }
    }
";

/// A deterministic two-kernel workload with a cross-worker dependency
/// chain; returns the final arrays as bit patterns plus the quarantine
/// count the run ended with.
fn run_workload(rt: &mut LocalRuntime) -> (Vec<Vec<u32>>, u64) {
    let ks = kernelc::compile(SRC).expect("compiles");
    let (saxpy, scale) = (Arc::new(ks[0].clone()), Arc::new(ks[1].clone()));
    let n = N as i32;
    let a = rt.alloc_f32(N);
    let b = rt.alloc_f32(N);
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
    for _ in 0..3 {
        rt.launch(
            &saxpy,
            4,
            64,
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
            4,
            64,
            vec![LocalArg::Buf(a), LocalArg::F32(-0.75), LocalArg::I32(n)],
        )
        .unwrap();
    }
    rt.synchronize().unwrap();
    let bits = [a, b]
        .into_iter()
        .map(|arr| {
            rt.read_f32(arr)
                .unwrap()
                .into_iter()
                .map(f32::to_bits)
                .collect()
        })
        .collect();
    (bits, rt.metrics().quarantines)
}

/// The isolation guarantee: two sessions running concurrently on one
/// shared fleet each produce exactly the bits a solo deployment produces,
/// and neither run records a quarantine (a co-tenant never looks like a
/// fault).
#[test]
fn two_sessions_bit_identical_to_solo_runs() {
    // Reference: a solo two-worker deployment.
    let mut solo = Runtime::builder()
        .workers(2)
        .build_local()
        .expect("solo runtime");
    let (solo_bits, solo_quarantines) = run_workload(&mut solo);
    assert_eq!(solo_quarantines, 0);

    // Shared fleet: one ChannelTransport, two namespace-tagged sessions.
    let mut fleet = FleetMux::new(Box::new(ChannelTransport::new(2)));
    let mut handles = Vec::new();
    for _ in 0..2 {
        let session = fleet.session(2);
        handles.push(std::thread::spawn(move || {
            let mut rt = Runtime::builder()
                .workers(2)
                .build_with_transport(Box::new(session))
                .expect("session runtime");
            let out = run_workload(&mut rt);
            rt.refresh_wire_metrics();
            let tagged = rt.metrics().session;
            (out, tagged)
        }));
    }
    let mut sessions_seen = Vec::new();
    for h in handles {
        let ((bits, quarantines), session) = h.join().expect("session thread");
        assert_eq!(
            bits, solo_bits,
            "a tenant session diverged from the solo run"
        );
        assert_eq!(quarantines, 0, "cross-session traffic caused a quarantine");
        sessions_seen.push(session.expect("session id surfaces in metrics"));
    }
    sessions_seen.sort_unstable();
    assert_eq!(sessions_seen, vec![1, 2], "distinct session namespaces");

    // Both tenants shipped frames through the shared fleet.
    let stats = fleet.batch_stats();
    assert!(stats.messages > 0, "no traffic crossed the mux");
    fleet.shutdown();
}

/// Batching actually coalesces: eight sessions released together on a
/// batching fleet queue several messages for one worker within a tick, so
/// the fleet sends some as one `Batch` frame — and every session still
/// gets the solo run's bits.
#[test]
fn batching_fleet_coalesces_frames_and_stays_bit_identical() {
    const SESSIONS: usize = 8;
    let mut solo = Runtime::builder()
        .workers(2)
        .build_local()
        .expect("solo runtime");
    let (solo_bits, _) = run_workload(&mut solo);

    let mut fleet = FleetMux::with_batching(Box::new(ChannelTransport::new(2)), true);
    let start = Arc::new(Barrier::new(SESSIONS));
    let handles: Vec<_> = (0..SESSIONS)
        .map(|_| {
            let session = fleet.session(2);
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                let mut rt = Runtime::builder()
                    .workers(2)
                    .build_with_transport(Box::new(session))
                    .expect("session runtime");
                start.wait();
                run_workload(&mut rt)
            })
        })
        .collect();
    for h in handles {
        let (bits, quarantines) = h.join().expect("session thread");
        assert_eq!(bits, solo_bits, "a batched session diverged from solo");
        assert_eq!(quarantines, 0, "batching caused a quarantine");
    }
    let stats = fleet.batch_stats();
    fleet.shutdown();
    assert!(
        stats.batched_frames >= 1,
        "no tick formed a batch: {stats:?}"
    );
    assert!(
        stats.frames < stats.messages,
        "batching saved no frames: {stats:?}"
    );
}

proptest! {
    /// No starvation: with arbitrary weights and frontier sizes, every
    /// session's frontier fully drains within `ceil(n / weight)` ticks —
    /// its solo bound — no matter what the co-tenants queue.
    #[test]
    fn fair_share_drains_every_frontier_within_bound(
        frontiers in proptest::collection::vec((1u32..=8, 0usize..=50), 1..=6),
    ) {
        let mut fs = FairShare::new();
        let mut pending: Vec<usize> = Vec::new();
        for (i, (weight, frontier)) in frontiers.iter().enumerate() {
            fs.attach(SessionId(i as u64 + 1), *weight);
            pending.push(*frontier);
        }
        let bound = frontiers
            .iter()
            .map(|(w, n)| n.div_ceil(*w as usize))
            .max()
            .unwrap_or(0);
        for _ in 0..bound {
            let grants = fs.tick(|sid| pending[sid.0 as usize - 1]);
            for (sid, granted) in grants {
                let i = sid.0 as usize - 1;
                prop_assert!(granted >= 1, "a pending session was granted nothing");
                prop_assert!(
                    granted <= frontiers[i].0 as usize,
                    "a grant exceeded the session weight"
                );
                pending[i] -= granted;
            }
        }
        prop_assert!(
            pending.iter().all(|&p| p == 0),
            "a frontier survived its drain bound: {pending:?}"
        );
    }
}

/// Spawns `grout-ctld` and waits for its listen announcement.
fn spawn_ctld(args: &[&str]) -> (Child, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_grout-ctld"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("grout-ctld spawns");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut lines = BufReader::new(stdout).lines();
    let banner = lines
        .next()
        .expect("ctld announces")
        .expect("ctld stdout readable");
    let addr = banner
        .strip_prefix("CTLD LISTENING ")
        .unwrap_or_else(|| panic!("unexpected ctld banner: {banner}"))
        .to_string();
    (child, addr)
}

const GUEST: &str = r#"
    KERNEL = "__global__ void square(float* x, int n) { int i = blockIdx.x * blockDim.x + threadIdx.x; if (i < n) { x[i] = x[i] * x[i]; } }"
    build = polyglot.eval("grout", "buildkernel")
    square = build(KERNEL, "square(x: inout pointer float, n: sint32)")
    x = polyglot.eval("grout", "float[64]")
    for i in range(64) { x[i] = i }
    square(2, 32)(x, 64)
    print(x[0])
    print(x[63])
"#;

/// A saturated daemon bounces the attach with the typed error; the
/// client exits nonzero with the reason on stderr — no panic, no
/// partial output.
#[test]
fn saturated_ctld_rejects_with_typed_error_and_clean_client_exit() {
    let (mut ctld, addr) = spawn_ctld(&[
        "--listen",
        "127.0.0.1:0",
        "--threads",
        "1",
        "--max-sessions",
        "0",
        "--max-queue",
        "0",
        "--accept",
        "1",
    ]);
    let out = Command::new(env!("CARGO_BIN_EXE_grout-run"))
        .args(["-e", GUEST, "--connect", &addr])
        .output()
        .expect("grout-run runs");
    assert!(!out.status.success(), "a rejected attach must exit nonzero");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("admission rejected") && stderr.contains("saturated"),
        "typed rejection missing from stderr: {stderr}"
    );
    assert!(
        out.stdout.is_empty(),
        "a rejected client must produce no script output"
    );
    let status = ctld.wait().expect("ctld exits");
    assert!(status.success(), "ctld must exit cleanly after --accept");
}

/// A scratch path under the target dir (unique per test invocation).
fn scratch(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("grout-ctld-test-{}-{name}", std::process::id()));
    p
}

/// The span-name set of a Chrome trace file: every `ph == "X"` event.
fn trace_span_set(path: &PathBuf) -> BTreeSet<String> {
    let body = std::fs::read_to_string(path).expect("trace file readable");
    let doc: Value = serde_json::from_str(&body).expect("trace file is JSON");
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_array)
        .expect("traceEvents array");
    events
        .iter()
        .filter(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
        .filter_map(|e| e.get("name").and_then(Value::as_str))
        .map(String::from)
        .collect()
}

/// Tracing and CE batching are orthogonal: a traced `--batch` run
/// produces the same span set and bit-identical client output as the
/// unbatched run, and the trace's process names carry the session
/// prefix (one lane stripe per tenant, no collisions).
#[test]
fn traced_batch_run_matches_unbatched_spans_and_output() {
    let mut outputs = Vec::new();
    let mut spans = Vec::new();
    for batch in [false, true] {
        let trace = scratch(if batch { "batch.trace" } else { "plain.trace" });
        let _ = std::fs::remove_file(&trace);
        let mut args = vec![
            "--listen",
            "127.0.0.1:0",
            "--threads",
            "2",
            "--accept",
            "1",
            "--trace-out",
        ];
        let trace_str = trace.to_str().expect("utf8 path").to_string();
        args.push(&trace_str);
        if batch {
            args.push("--batch");
        }
        let (mut ctld, addr) = spawn_ctld(&args);
        let out = Command::new(env!("CARGO_BIN_EXE_grout-run"))
            .args(["-e", GUEST, "--connect", &addr])
            .output()
            .expect("grout-run runs");
        assert!(out.status.success(), "traced client failed");
        let status = ctld.wait().expect("ctld exits");
        assert!(status.success(), "ctld must exit cleanly after --accept");
        outputs.push(out.stdout);
        spans.push(trace_span_set(&trace));

        // Satellite guarantee: every track belongs to a session-prefixed
        // process, so two tenants can never collide on one lane.
        let body = std::fs::read_to_string(&trace).expect("trace readable");
        let doc: Value = serde_json::from_str(&body).expect("trace is JSON");
        let names: Vec<String> = doc
            .get("traceEvents")
            .and_then(Value::as_array)
            .expect("traceEvents")
            .iter()
            .filter(|e| {
                e.get("ph").and_then(Value::as_str) == Some("M")
                    && e.get("name").and_then(Value::as_str) == Some("process_name")
            })
            .filter_map(|e| e.get("args").and_then(|a| a.get("name")))
            .filter_map(|n| n.as_str().map(String::from))
            .collect();
        assert!(!names.is_empty(), "trace has no process metadata");
        for name in &names {
            assert!(
                name.starts_with("s1 "),
                "process `{name}` is not session-prefixed"
            );
        }
        let _ = std::fs::remove_file(&trace);
    }
    assert_eq!(
        outputs[0], outputs[1],
        "batching changed traced client output"
    );
    assert!(!spans[0].is_empty(), "unbatched trace recorded no spans");
    assert_eq!(spans[0], spans[1], "batching changed the span set");
}

/// The acceptance run for the introspection plane: while two concurrent
/// clients execute, `/metrics`, `/healthz` and `/sessions` answer live
/// with per-session labels; `grout-top --once` renders the fleet; and
/// enabling the plane leaves client output bit-identical to solo.
#[test]
fn live_introspection_plane_serves_during_concurrent_run() {
    let solo = Command::new(env!("CARGO_BIN_EXE_grout-run"))
        .args(["-e", GUEST, "--workers", "2"])
        .output()
        .expect("solo grout-run");
    assert!(solo.status.success(), "solo run failed");
    let solo_stdout = solo.stdout.clone();

    // --accept 3: two real clients plus the teardown detach connection.
    let mut ctld = Command::new(env!("CARGO_BIN_EXE_grout-ctld"))
        .args([
            "--listen",
            "127.0.0.1:0",
            "--threads",
            "2",
            "--batch",
            "--http",
            "127.0.0.1:0",
            "--accept",
            "3",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("grout-ctld spawns");
    let stdout = ctld.stdout.take().expect("piped stdout");
    let mut lines = BufReader::new(stdout).lines();
    let addr = lines
        .next()
        .expect("listen banner")
        .expect("readable")
        .strip_prefix("CTLD LISTENING ")
        .expect("listen banner prefix")
        .to_string();
    let http = lines
        .next()
        .expect("http banner")
        .expect("readable")
        .strip_prefix("CTLD HTTP ")
        .expect("http banner prefix")
        .to_string();

    let clients: Vec<_> = (0..2)
        .map(|_| {
            Command::new(env!("CARGO_BIN_EXE_grout-run"))
                .args(["-e", GUEST, "--connect", &addr])
                .stdout(Stdio::piped())
                .stderr(Stdio::null())
                .spawn()
                .expect("client spawns")
        })
        .collect();

    // Scrape while the clients run: every endpoint must answer.
    let timeout = Duration::from_secs(2);
    for _ in 0..3 {
        let (code, body) = http_get(&http, "/healthz", timeout).expect("live /healthz");
        assert!(code == 200 || code == 503, "unexpected /healthz status");
        assert!(body.contains("\"healthy\""), "healthz body: {body}");
        let (code, body) = http_get(&http, "/metrics", timeout).expect("live /metrics");
        assert_eq!(code, 200);
        assert!(body.contains("grout_up 1"), "metrics body missing grout_up");
        let (code, _) = http_get(&http, "/sessions", timeout).expect("live /sessions");
        assert_eq!(code, 200);
    }

    for client in clients {
        let out = client.wait_with_output().expect("client exits");
        assert!(out.status.success(), "introspected client failed");
        assert_eq!(
            out.stdout, solo_stdout,
            "introspection changed client output"
        );
    }

    // After both sessions finish the registry still reports them, the
    // exposition carries their session labels, and grout-top renders it.
    let (_, metrics) = http_get(&http, "/metrics", timeout).expect("/metrics after run");
    assert!(
        metrics.contains("session=\"") && metrics.contains("grout_session_ces_done_total"),
        "per-session labels missing from exposition:\n{metrics}"
    );
    let (_, sessions) = http_get(&http, "/sessions", timeout).expect("/sessions after run");
    let doc: Value = serde_json::from_str(&sessions).expect("sessions JSON");
    let rows = doc.as_array().expect("sessions array");
    assert_eq!(rows.len(), 2, "both sessions must stay visible: {sessions}");
    for row in rows {
        assert_eq!(
            row.get("state").and_then(Value::as_str),
            Some("finished"),
            "session not finished: {sessions}"
        );
        assert!(
            row.get("ops").and_then(Value::as_u64).unwrap_or(0) > 0,
            "session op-log length missing: {sessions}"
        );
    }
    let top = Command::new(env!("CARGO_BIN_EXE_grout-top"))
        .args([&http, "--once"])
        .output()
        .expect("grout-top runs");
    assert!(top.status.success(), "grout-top --once failed");
    let rendered = String::from_utf8_lossy(&top.stdout);
    assert!(
        rendered.contains("sessions (2)") && rendered.contains("fleet: 2 workers"),
        "grout-top rendering unexpected:\n{rendered}"
    );

    // Teardown: one extra connection hits the accept cap; a bare detach
    // serves as the no-op third client.
    let mut bye = CtldClient::connect(&addr).expect("teardown connect");
    bye.detach().expect("teardown detach");
    drop(bye);
    let status = ctld.wait().expect("ctld exits");
    assert!(status.success(), "ctld must exit cleanly after --accept");
}

/// Two concurrent clients against a real `grout-ctld` (batching on) each
/// receive exactly the output a solo `grout-run` produces.
#[test]
fn two_concurrent_clients_match_solo_output() {
    let solo = Command::new(env!("CARGO_BIN_EXE_grout-run"))
        .args(["-e", GUEST, "--workers", "2"])
        .output()
        .expect("solo grout-run");
    assert!(solo.status.success(), "solo run failed");
    let solo_stdout = String::from_utf8_lossy(&solo.stdout).to_string();
    assert!(!solo_stdout.is_empty(), "solo run printed nothing");

    let (mut ctld, addr) = spawn_ctld(&[
        "--listen",
        "127.0.0.1:0",
        "--threads",
        "2",
        "--batch",
        "--accept",
        "2",
    ]);
    let clients: Vec<_> = (0..2)
        .map(|_| {
            Command::new(env!("CARGO_BIN_EXE_grout-run"))
                .args(["-e", GUEST, "--connect", &addr])
                .stdout(Stdio::piped())
                .stderr(Stdio::null())
                .spawn()
                .expect("client spawns")
        })
        .collect();
    for client in clients {
        let out = client.wait_with_output().expect("client exits");
        assert!(out.status.success(), "ctld client failed");
        assert_eq!(
            String::from_utf8_lossy(&out.stdout),
            solo_stdout,
            "a ctld tenant's output diverged from the solo run"
        );
    }
    let status = ctld.wait().expect("ctld exits");
    assert!(status.success(), "ctld must exit cleanly after --accept");
}
