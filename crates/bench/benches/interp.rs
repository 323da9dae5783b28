//! kernelc throughput: runtime compilation cost (the NVRTC path), the
//! execution back end's per-element and per-launch cost on the paper's
//! kernels, and the framework overhead of a dependent chain through
//! `LocalRuntime`.
//!
//! The `*_per_core` rows launch a single block, which always runs on the
//! calling thread, so they read one core's speed whatever the machine;
//! the rows without the suffix are wall time with every core the launch
//! is allowed to use (`cores` is recorded beside them).
//!
//! Rows land in `target/bench/BENCH_interp.json` (see `grout_bench::micro`).
//! Each row is paired with a `*_before` row: the same case measured at the
//! parent commit of the bytecode back end (c48c7c7, the tree-walking
//! executor) on the 2-vCPU box the rows were committed from.

use std::time::Duration;

use grout::workloads::{BLACK_SCHOLES_KERNEL, MV_KERNEL};
use grout_bench::micro::{time, Bench};
use kernelc::{compile_one, KernelArg};

/// `(row name, value)` at c48c7c7 (median of three runs of this file
/// there), same units as the live rows.
const BEFORE: &[(&str, f64)] = &[
    ("compile_black_scholes", 20002.4),
    ("compile_mv", 10312.1),
    ("saxpy_256k", 102.9),
    ("black_scholes_256k", 396.8),
    ("black_scholes_per_core", 779.6),
    ("mv_512", 96.2),
    ("mv_512_per_core", 167.3),
    ("scale_2x128_launch", 126264.6),
    ("local_runtime_dependent_chain_64", 14747758.8),
];

fn main() {
    let budget = Duration::from_millis(700);
    let mut bench = Bench::new("interp", BEFORE);

    bench.row(
        "cores",
        std::thread::available_parallelism().map_or(1, |n| n.get()) as f64,
        "count",
    );
    bench.row(
        "compile_black_scholes",
        time(budget, || {
            compile_one(BLACK_SCHOLES_KERNEL, "black_scholes").unwrap();
        }),
        "ns_per_iter",
    );
    bench.row(
        "compile_mv",
        time(budget, || {
            compile_one(MV_KERNEL, "mv").unwrap();
        }),
        "ns_per_iter",
    );

    let n = 1usize << 18;
    let saxpy = compile_one(
        "__global__ void saxpy(float* y, const float* x, float a, int n) {
            int i = blockIdx.x * blockDim.x + threadIdx.x;
            if (i < n) { y[i] = a * x[i] + y[i]; }
        }",
        "saxpy",
    )
    .unwrap();
    let mut y = vec![1.0f32; n];
    let mut x = vec![2.0f32; n];
    let ns = time(budget, || {
        saxpy
            .launch(
                (n as u32).div_ceil(256),
                256,
                &mut [
                    KernelArg::F32(&mut y),
                    KernelArg::F32(&mut x),
                    KernelArg::Float(1.0001),
                    KernelArg::Int(n as i32),
                ],
            )
            .unwrap();
    });
    bench.row("saxpy_256k", ns / n as f64, "ns_per_elem");

    let bs = compile_one(BLACK_SCHOLES_KERNEL, "black_scholes").unwrap();
    let mut spot: Vec<f32> = (0..n).map(|i| 60.0 + (i % 800) as f32 * 0.1).collect();
    let mut call = vec![0.0f32; n];
    let mut put = vec![0.0f32; n];
    let mut black_scholes = |grid: u32, block: u32| {
        let options = grid as usize * block as usize;
        let ns = time(budget, || {
            bs.launch(
                grid,
                block,
                &mut [
                    KernelArg::F32(&mut spot),
                    KernelArg::F32(&mut call),
                    KernelArg::F32(&mut put),
                    KernelArg::Float(100.0),
                    KernelArg::Float(0.05),
                    KernelArg::Float(0.2),
                    KernelArg::Float(1.0),
                    KernelArg::Int(options as i32),
                ],
            )
            .unwrap();
        });
        ns / options as f64
    };
    let wall = black_scholes((n as u32).div_ceil(256), 256);
    let per_core = black_scholes(1, 1 << 16);
    bench.row("black_scholes_256k", wall, "ns_per_option");
    bench.row("black_scholes_per_core", per_core, "ns_per_option");

    let mv = compile_one(MV_KERNEL, "mv").unwrap();
    let dim = 512usize;
    let mut a: Vec<f32> = (0..dim * dim).map(|i| (i % 13) as f32 * 0.25).collect();
    let mut xv: Vec<f32> = (0..dim).map(|i| (i % 7) as f32 - 3.0).collect();
    let mut yv = vec![0.0f32; dim];
    let mut mv_512 = |grid: u32, block: u32| {
        let ns = time(budget, || {
            mv.launch(
                grid,
                block,
                &mut [
                    KernelArg::F32(&mut yv),
                    KernelArg::F32(&mut a),
                    KernelArg::F32(&mut xv),
                    KernelArg::Int(dim as i32),
                    KernelArg::Int(dim as i32),
                ],
            )
            .unwrap();
        });
        ns / (dim * dim) as f64
    };
    let wall = mv_512(2, 256);
    let per_core = mv_512(1, 512);
    bench.row("mv_512", wall, "ns_per_inner_iter");
    bench.row("mv_512_per_core", per_core, "ns_per_inner_iter");

    // The benchmark's `kernelc.launch_fixed_us` shape: 256 elements as
    // two blocks of 128.
    let scale = compile_one(
        "__global__ void scale(float* y, float a, int n) {
            int i = blockIdx.x * blockDim.x + threadIdx.x;
            if (i < n) { y[i] = a * y[i]; }
        }",
        "scale",
    )
    .unwrap();
    let mut small = vec![1.0f32; 256];
    let ns = time(budget, || {
        scale
            .launch(
                2,
                128,
                &mut [
                    KernelArg::F32(&mut small),
                    KernelArg::Float(1.0001),
                    KernelArg::Int(256),
                ],
            )
            .unwrap();
    });
    bench.row("scale_2x128_launch", ns, "ns_per_launch");

    bench.row(
        "local_runtime_dependent_chain_64",
        time(budget, dependent_chain_64),
        "ns_per_iter",
    );

    bench.finish();
}

/// End-to-end framework overhead: dependent 4 KiB kernels through the
/// threaded controller/worker machinery (dominated by scheduling and
/// channel traffic, not compute).
fn dependent_chain_64() {
    use grout::core::{LocalArg, LocalConfig, LocalRuntime, PolicyKind};
    use std::sync::Arc;

    let k = Arc::new(
        compile_one(
            "__global__ void inc(float* a, int n) {
                int i = blockIdx.x * blockDim.x + threadIdx.x;
                if (i < n) { a[i] = a[i] + 1.0; }
            }",
            "inc",
        )
        .unwrap(),
    );
    let mut rt =
        LocalRuntime::try_new(LocalConfig::new(2, PolicyKind::RoundRobin)).expect("spawn workers");
    let a = rt.alloc_f32(1024);
    for _ in 0..64 {
        rt.launch(&k, 4, 256, vec![LocalArg::Buf(a), LocalArg::I32(1024)])
            .unwrap();
    }
    rt.synchronize().unwrap();
}
