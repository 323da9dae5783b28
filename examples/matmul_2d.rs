//! Tiled matrix multiply on a 2-D grid — exercises the `dim3(x, y)` launch
//! path end-to-end: a 2-D CUDA-dialect kernel compiled at runtime, verified
//! against a CPU reference, and sanity-checked with the race detector.
//!
//! Run with: `cargo run --release --example matmul_2d`

use std::sync::Arc;
use std::time::Instant;

use grout::core::{LocalArg, Runtime};

const MATMUL: &str = r#"
__global__ void matmul(float* c, const float* a, const float* b,
                       int m, int n, int k) {
    int row = blockIdx.y * blockDim.y + threadIdx.y;
    int col = blockIdx.x * blockDim.x + threadIdx.x;
    if (row < m && col < n) {
        float acc = 0.0;
        for (int p = 0; p < k; p++) {
            acc += a[row * k + p] * b[p * n + col];
        }
        c[row * n + col] = acc;
    }
}
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (m, n, k) = (192usize, 160usize, 224usize);
    let kernel = Arc::new(kernelc::compile_one(MATMUL, "matmul")?);

    // The race detector agrees the kernel is clean (on a small instance).
    let mut c_small = vec![0.0f32; 8 * 8];
    let mut a_small = vec![1.0f32; 8 * 8];
    let mut b_small = vec![1.0f32; 8 * 8];
    let report = kernel.launch_checked(
        4,
        16,
        &mut [
            kernelc::KernelArg::F32(&mut c_small),
            kernelc::KernelArg::F32(&mut a_small),
            kernelc::KernelArg::F32(&mut b_small),
            kernelc::KernelArg::Int(8),
            kernelc::KernelArg::Int(8),
            kernelc::KernelArg::Int(8),
        ],
    )?;
    println!(
        "racecheck: {} ({} threads)",
        if report.is_race_free() {
            "clean"
        } else {
            "RACY"
        },
        report.threads
    );
    assert!(report.is_race_free());

    // The real multiply through the distributed runtime, 2-D grid.
    let mut rt = Runtime::builder()
        .workers(2)
        .build_local()
        .expect("spawn workers");
    let a = rt.alloc_f32(m * k);
    let b = rt.alloc_f32(k * n);
    let c = rt.alloc_f32(m * n);
    rt.write_f32(a, |v| {
        for (i, e) in v.iter_mut().enumerate() {
            *e = ((i % 13) as f32) * 0.25 - 1.0;
        }
    })?;
    rt.write_f32(b, |v| {
        for (i, e) in v.iter_mut().enumerate() {
            *e = ((i % 7) as f32) * 0.5 - 1.5;
        }
    })?;

    let start = Instant::now();
    rt.launch2d(
        &kernel,
        ((n as u32).div_ceil(16), (m as u32).div_ceil(16)),
        (16, 16),
        vec![
            LocalArg::Buf(c),
            LocalArg::Buf(a),
            LocalArg::Buf(b),
            LocalArg::I32(m as i32),
            LocalArg::I32(n as i32),
            LocalArg::I32(k as i32),
        ],
    )?;
    rt.synchronize()?;
    let elapsed = start.elapsed();

    // CPU reference (f64 accumulation) on a few sampled entries.
    let av = rt.read_f32(a)?;
    let bv = rt.read_f32(b)?;
    let cv = rt.read_f32(c)?;
    let mut worst = 0.0f32;
    for row in (0..m).step_by(17) {
        for col in (0..n).step_by(13) {
            let want: f64 = (0..k)
                .map(|p| av[row * k + p] as f64 * bv[p * n + col] as f64)
                .sum();
            worst = worst.max((cv[row * n + col] - want as f32).abs());
        }
    }
    assert!(worst < 1e-3, "worst error {worst}");
    println!(
        "{}x{}x{} matmul on a 2-D grid in {elapsed:?} ({:.2} GFLOP/s), worst sampled error {worst:.6}",
        m,
        n,
        k,
        2.0 * (m * n * k) as f64 / elapsed.as_secs_f64() / 1e9
    );
    Ok(())
}
