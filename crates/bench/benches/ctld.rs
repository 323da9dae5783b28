//! Control-plane benchmarks: the costs and wins of the multi-tenant
//! session layer, measured on one shared in-process fleet.
//!
//! - `ops_per_s_{1,4,16}`: aggregate kernel-CE throughput with 1, 4 and
//!   16 concurrent tenant sessions driving the same two-worker fleet —
//!   the multi-tenancy scaling curve;
//! - `frames_per_ce_{unbatched,batched}`: wire frames per logical
//!   control message at 16 concurrent sessions with CE batching off vs
//!   on — the before/after the `--batch` knob buys.
//!
//! Rows land in `target/bench/BENCH_ctld.json` (see `grout_bench::micro`).
//! Attach/detach latency is the repository benchmark's
//! `session.attach_detach_us` probe.

use std::sync::Arc;
use std::time::{Duration, Instant};

use grout::core::{BatchStats, ChannelTransport, FleetMux, LocalRuntime, Runtime};
use grout::LocalArg;
use grout_bench::micro::Bench;

const N: usize = 256;
const LAUNCHES_PER_SESSION: u64 = 24;

const SRC: &str = "
    __global__ void scale(float* y, float a, int n) {
        int i = blockIdx.x * blockDim.x + threadIdx.x;
        if (i < n) { y[i] = a * y[i]; }
    }
";

fn session_workload(rt: &mut LocalRuntime) {
    let ks = kernelc::compile(SRC).expect("compiles");
    let scale = Arc::new(ks[0].clone());
    let a = rt.alloc_f32(N);
    rt.write_f32(a, |v| {
        v.iter_mut().enumerate().for_each(|(i, x)| *x = i as f32)
    })
    .unwrap();
    for _ in 0..LAUNCHES_PER_SESSION {
        rt.launch(
            &scale,
            2,
            128,
            vec![
                LocalArg::Buf(a),
                LocalArg::F32(1.0001),
                LocalArg::I32(N as i32),
            ],
        )
        .unwrap();
    }
    rt.synchronize().unwrap();
}

/// Runs `sessions` concurrent tenants over one fresh two-worker fleet;
/// returns the wall time and the fleet's batching counters.
fn run_fleet(sessions: usize, batch: bool) -> (Duration, BatchStats) {
    let mut fleet = FleetMux::with_batching(Box::new(ChannelTransport::new(2)), batch);
    let start = Instant::now();
    let mut handles = Vec::new();
    for _ in 0..sessions {
        let session = fleet.session(2);
        handles.push(std::thread::spawn(move || {
            let mut rt = Runtime::builder()
                .workers(2)
                .build_with_transport(Box::new(session))
                .expect("session runtime");
            session_workload(&mut rt);
        }));
    }
    for h in handles {
        h.join().expect("session thread");
    }
    let elapsed = start.elapsed();
    let stats = fleet.batch_stats();
    fleet.shutdown();
    (elapsed, stats)
}

fn main() {
    let mut bench = Bench::new("ctld", &[]);

    // Multi-tenancy scaling: aggregate CE throughput at 1/4/16 sessions.
    for (name, sessions) in [
        ("ops_per_s_1_session", 1usize),
        ("ops_per_s_4_sessions", 4),
        ("ops_per_s_16_sessions", 16),
    ] {
        let (elapsed, _) = run_fleet(sessions, false);
        let ces = (sessions as u64 * LAUNCHES_PER_SESSION) as f64;
        bench.row(name, ces / elapsed.as_secs_f64(), "ce_per_s");
    }

    // CE batching: frames per logical message at 16 sessions, off vs on.
    let (_, unbatched) = run_fleet(16, false);
    let (_, batched) = run_fleet(16, true);
    let ratio = |s: &BatchStats| s.frames as f64 / s.messages.max(1) as f64;
    let (off, on) = (ratio(&unbatched), ratio(&batched));
    assert!(
        on < off,
        "batching must reduce frames per CE at 16 sessions ({on:.3} !< {off:.3})"
    );
    bench.row("frames_per_ce_unbatched_x16", off, "frames_per_msg");
    bench.row("frames_per_ce_batched_x16", on, "frames_per_msg");
    bench.row(
        "batched_frame_share_x16",
        batched.batched_frames as f64 / batched.frames.max(1) as f64,
        "ratio",
    );

    bench.finish();
}
