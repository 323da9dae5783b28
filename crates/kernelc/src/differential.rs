//! Differential oracle for the bytecode back end: every case runs once
//! on the tree walker ([`crate::walker`]) and once on the VM
//! ([`crate::interp`]), and the two must agree bit for bit — on every
//! buffer, on the `Err` value, and (1-D launches) on the access log the
//! race checker reads.

use grout_workloads::{BLACK_SCHOLES_KERNEL, CG_KERNELS, HITS_KERNELS, MLE_KERNELS, MV_KERNEL};

use crate::interp::{KernelArg, LaunchError, Program, DEFAULT_STEP_BUDGET};
use crate::parser::parse;
use crate::typeck::check;
use crate::walker;

/// The benchmark's small-CE kernels (`benchmark/src/program.rs`).
const BENCHMARK_KERNELS: &str = "
__global__ void scale(float* y, float a, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) { y[i] = a * y[i]; }
}
__global__ void saxpy(float* y, const float* x, float a, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) { y[i] = a * x[i] + y[i]; }
}
__global__ void touch(float* y, float* token, float a, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) { y[i] = a * y[i] + token[i]; token[i] = token[i] + 1.0; }
}
";

/// An owned launch argument; buffers are compared as raw bits.
#[derive(Debug, Clone, PartialEq)]
enum Arg {
    F(Vec<f32>),
    I(Vec<i32>),
    Float(f32),
    Int(i32),
}

fn bind(args: &mut [Arg]) -> Vec<KernelArg<'_>> {
    args.iter_mut()
        .map(|a| match a {
            Arg::F(b) => KernelArg::F32(b),
            Arg::I(b) => KernelArg::I32(b),
            Arg::Float(v) => KernelArg::Float(*v),
            Arg::Int(v) => KernelArg::Int(*v),
        })
        .collect()
}

fn bits(args: &[Arg]) -> Vec<Vec<u32>> {
    args.iter()
        .map(|a| match a {
            Arg::F(b) => b.iter().map(|v| v.to_bits()).collect(),
            Arg::I(b) => b.iter().map(|v| *v as u32).collect(),
            Arg::Float(v) => vec![v.to_bits()],
            Arg::Int(v) => vec![*v as u32],
        })
        .collect()
}

/// Deterministic floats in `[-2, 2)`, a few of them exactly zero.
fn floats(n: usize, seed: u32) -> Arg {
    let mut s = seed.wrapping_mul(2654435761).wrapping_add(1);
    Arg::F(
        (0..n)
            .map(|_| {
                s = s.wrapping_mul(1664525).wrapping_add(1013904223);
                if s.is_multiple_of(17) {
                    0.0
                } else {
                    (s >> 8) as f32 / (1 << 22) as f32 - 2.0
                }
            })
            .collect(),
    )
}

/// Runs `name` from `src` on both engines with the same inputs and
/// asserts they cannot be told apart; returns the common outcome.
fn differ(
    src: &str,
    name: &str,
    grid: (u32, u32),
    block: (u32, u32),
    args: &[Arg],
    budget: u64,
) -> Result<(), LaunchError> {
    let kernels = parse(src).expect("case parses");
    let parsed = kernels
        .iter()
        .find(|k| k.name == name)
        .unwrap_or_else(|| panic!("no kernel `{name}`"));
    let checked = check(parsed).expect("case type-checks");
    let program = Program::lower(&checked).expect("case lowers");

    let mut want = args.to_vec();
    let oracle = walker::launch(&checked, grid, block, &mut bind(&mut want), budget);
    let mut got = args.to_vec();
    let vm = program
        .launch(grid, block, &mut bind(&mut got), budget)
        .map(|_| ());
    assert_eq!(vm, oracle.clone().map(|_| ()), "{name}: outcome");
    assert_eq!(bits(&got), bits(&want), "{name}: buffers");

    if grid.1 == 1 && block.1 == 1 {
        let mut traced = args.to_vec();
        let mut log = Vec::new();
        let mut next_gid = 0;
        let outcome = program.launch_traced(
            grid.0,
            block.0,
            &mut bind(&mut traced),
            budget,
            |gid, thread_log| {
                assert_eq!(gid, next_gid, "{name}: traced threads come in flat order");
                next_gid += 1;
                log.extend_from_slice(thread_log);
            },
        );
        assert_eq!(outcome, vm, "{name}: traced outcome");
        assert_eq!(bits(&traced), bits(&want), "{name}: traced buffers");
        if let Ok(oracle_log) = &oracle {
            assert_eq!(&log, oracle_log, "{name}: access log");
        }
    }
    vm
}

/// A clean 1-D launch under the default budget.
fn agree(src: &str, name: &str, grid: u32, block: u32, args: &[Arg]) {
    differ(src, name, (grid, 1), (block, 1), args, DEFAULT_STEP_BUDGET)
        .unwrap_or_else(|e| panic!("{name}: {e}"));
}

/// A 1-D launch both engines must fail with exactly `err`.
fn agree_err(src: &str, grid: u32, block: u32, args: &[Arg], err: LaunchError) {
    let got = differ(src, "f", (grid, 1), (block, 1), args, DEFAULT_STEP_BUDGET);
    assert_eq!(got, Err(err));
}

#[test]
fn black_scholes_matches() {
    let n = 1000;
    let Arg::F(noise) = floats(n, 1) else {
        unreachable!()
    };
    let spot = Arg::F(noise.iter().map(|v| 100.0 + 20.0 * v).collect());
    let args = [
        spot,
        Arg::F(vec![0.0; n]),
        Arg::F(vec![0.0; n]),
        Arg::Float(100.0),
        Arg::Float(0.05),
        Arg::Float(0.2),
        Arg::Float(1.0),
        Arg::Int(n as i32),
    ];
    agree(BLACK_SCHOLES_KERNEL, "black_scholes", 4, 256, &args);
}

#[test]
fn mv_and_cg_match() {
    let (rows, cols) = (40usize, 33usize);
    let dense = [
        Arg::F(vec![0.0; rows]),
        floats(rows * cols, 2),
        floats(cols, 3),
        Arg::Int(rows as i32),
        Arg::Int(cols as i32),
    ];
    agree(MV_KERNEL, "mv", 2, 32, &dense);
    agree(CG_KERNELS, "spmv_dense", 2, 32, &dense);

    let n = 300usize;
    let reduce = [
        floats(n, 4),
        floats(n, 5),
        Arg::F(vec![0.5]),
        Arg::Int(n as i32),
    ];
    agree(CG_KERNELS, "dot", 2, 64, &reduce);
    agree(CG_KERNELS, "norm2", 2, 64, &reduce[1..]);
    let axpy = [
        floats(n, 6),
        floats(n, 7),
        Arg::Float(-0.75),
        Arg::Int(n as i32),
    ];
    agree(CG_KERNELS, "axpy", 3, 128, &axpy);
    agree(CG_KERNELS, "xpay", 3, 128, &axpy);
    agree(
        CG_KERNELS,
        "zero",
        3,
        128,
        &[floats(n, 8), Arg::Int(n as i32)],
    );
}

#[test]
fn hits_matches() {
    // A CSR graph with empty rows, a self-loop and a hub.
    let n = 6usize;
    let row_ptr = Arg::I(vec![0, 2, 2, 5, 6, 6, 9]);
    let col = Arg::I(vec![1, 5, 0, 2, 5, 3, 0, 1, 2]);
    let step = [
        Arg::F(vec![-1.0; n]),
        row_ptr,
        col,
        floats(n, 9),
        Arg::Int(n as i32),
    ];
    agree(HITS_KERNELS, "score_step", 1, 8, &step);
    let norm = [floats(n, 10), Arg::F(vec![0.0]), Arg::Int(n as i32)];
    agree(HITS_KERNELS, "norm2_acc", 2, 2, &norm);
    let inv = [floats(n, 11), Arg::F(vec![7.5]), Arg::Int(n as i32)];
    agree(HITS_KERNELS, "scale_by_invnorm", 1, 8, &inv);
    // A zero norm divides by zero the IEEE way on both engines.
    let inv0 = [floats(n, 11), Arg::F(vec![0.0]), Arg::Int(n as i32)];
    agree(HITS_KERNELS, "scale_by_invnorm", 1, 8, &inv0);
    agree(
        HITS_KERNELS,
        "fill1",
        2,
        4,
        &[floats(n, 12), Arg::Int(n as i32)],
    );
    agree(
        HITS_KERNELS,
        "zero1",
        2,
        4,
        &[floats(n, 12), Arg::Int(n as i32)],
    );
}

#[test]
fn mle_matches() {
    let (rows, cols, probes) = (50usize, 7usize, 5usize);
    let tree = [
        Arg::F(vec![0.0; rows]),
        floats(rows * cols, 13),
        Arg::I(vec![6, 0, 3, 3, 1]),
        Arg::Int(rows as i32),
        Arg::Int(cols as i32),
        Arg::Int(probes as i32),
    ];
    agree(MLE_KERNELS, "tree_score", 2, 32, &tree);
    let n = 100usize;
    agree(
        MLE_KERNELS,
        "normalize",
        1,
        128,
        &[Arg::F(vec![0.0; n]), floats(n, 14), Arg::Int(n as i32)],
    );
    agree(
        MLE_KERNELS,
        "softmax2",
        1,
        128,
        &[
            Arg::F(vec![0.0; n]),
            floats(n, 15),
            floats(n, 16),
            Arg::Int(n as i32),
        ],
    );
}

#[test]
fn benchmark_small_ce_kernels_match() {
    let n = 256usize;
    let scale = [floats(n, 17), Arg::Float(1.0001), Arg::Int(n as i32)];
    agree(BENCHMARK_KERNELS, "scale", 2, 128, &scale);
    let saxpy = [
        floats(n, 18),
        floats(n, 19),
        Arg::Float(0.5),
        Arg::Int(n as i32),
    ];
    agree(BENCHMARK_KERNELS, "saxpy", 2, 128, &saxpy);
    agree(BENCHMARK_KERNELS, "touch", 2, 128, &saxpy);
    agree(BENCHMARK_KERNELS, "touch", 1, 128, &saxpy);
}

#[test]
fn int_buffers_atomics_and_early_return() {
    let n = 70usize;
    agree(
        "__global__ void f(int* y, const int* x, int n) {
            int i = blockIdx.x * blockDim.x + threadIdx.x;
            if (i >= n) { return; }
            y[i] = x[i] * 3 - i;
            y[i] += x[n - 1 - i];
            y[i] /= 2;
            y[i] *= 0 - 1;
        }",
        "f",
        3,
        32,
        &[
            Arg::I(vec![-7; n]),
            Arg::I((0..n as i32).map(|v| v * v - 900).collect()),
            Arg::Int(n as i32),
        ],
    );
    // Sequential on both engines, so even the float sum is ordered.
    agree(
        "__global__ void f(int* hist, float* sum, const float* x, int n) {
            int i = blockIdx.x * blockDim.x + threadIdx.x;
            if (i < n) {
                atomicAdd(&hist[i % 4], i);
                atomicAdd(&sum[0], x[i]);
                atomicAdd(&sum[1], i);
            }
        }",
        "f",
        3,
        32,
        &[
            Arg::I(vec![i32::MAX - 5, 0, 1, -1]),
            Arg::F(vec![0.25, 0.0]),
            floats(n, 20),
            Arg::Int(n as i32),
        ],
    );
    agree(
        "__global__ void f(float* y) {
            int i = threadIdx.x;
            if (i % 3 == 0) { return; }
            for (int k = 0; k < 10; k++) {
                if (k == i) { return; }
                y[i] = y[i] + 1.0;
            }
            y[i] = 0.0 - y[i];
        }",
        "f",
        1,
        16,
        &[Arg::F(vec![0.0; 16])],
    );
}

#[test]
fn nested_loops_match() {
    agree(
        "__global__ void f(float* y, int n) {
            int i = blockIdx.x * blockDim.x + threadIdx.x;
            if (i < n) {
                float acc = 0.0;
                int rounds = 0;
                for (int a = 0; a < i % 5; a++) {
                    int b = a;
                    while (b > 0) {
                        for (int c = 0; c < 2; c += 1) { acc += (float)(a * b + c); }
                        b -= 1;
                        rounds += 1;
                    }
                    while (0) { acc = 99.0; }
                }
                y[i] = acc + (float)rounds * 0.5;
            }
        }",
        "f",
        2,
        16,
        &[Arg::F(vec![0.0; 30]), Arg::Int(30)],
    );
}

#[test]
fn ternaries_casts_and_mixed_arithmetic_match() {
    agree(
        "__global__ void f(float* y, int* z, const float* x, int n, float s) {
            int i = blockIdx.x * blockDim.x + threadIdx.x;
            if (i < n) {
                float v = x[i] * 100.0;
                int t = (int)v;
                float back = (float)t;
                int mixed = i > 3 ? t : (int)(v * 0.5);
                float pick = t > 0 ? 1 : x[i];
                int narrow = v;
                float widen = i;
                int m = i;
                m = m > 2 ? m - 2 : m + 40;
                m = m;
                float w = i;
                w = (w > 4.0 ? w : 0.0 - w) + (m % 2 == 0 ? 1 : 0.5);
                y[i] = back + pick + widen + w + s + (float)(int)(float)(i * 7) + -v + !t;
                z[i] = mixed + narrow + m + -i + !i + (int)s + (int)(0.0 / (v - v)) + (int)(v * 1000000.0 * 1000000.0 * 1000000.0);
            }
        }",
        "f",
        2,
        16,
        &[
            Arg::F(vec![0.0; 24]),
            Arg::I(vec![0; 24]),
            floats(24, 21),
            Arg::Int(24),
            // An int argument for a float parameter is accepted.
            Arg::Int(3),
        ],
    );
}

#[test]
fn short_circuit_logic_matches() {
    // The right operand is out of bounds exactly when it must not run.
    agree(
        "__global__ void f(int* y, const float* x, int n) {
            int i = blockIdx.x * blockDim.x + threadIdx.x;
            y[i] = 0;
            if (i < n && x[i] > 0.0) { y[i] = 1; }
            if (i >= n || x[i] == 0.0) { y[i] += 2; }
            int both = i < n && x[i] > 0.0 && x[i] < 1.0;
            int any = i >= n || x[i] < 0.0 || i == 3;
            y[i] += 4 * both + 8 * any;
            // Float operands are truncated to int before the test.
            y[i] += 16 * (0.5 && 1) + 32 * (0.5 || 0) + 64 * (1.5 && 2.5) + 128 * (i && 0.25 + i);
            int k = i % 2;
            k = k && k;
            k = 1 || k;
            y[i] += 256 * k + 512 * !(i % 3 && 1);
        }",
        "f",
        2,
        16,
        &[Arg::I(vec![-1; 32]), floats(20, 22), Arg::Int(20)],
    );
}

#[test]
fn int_arithmetic_wraps_like_c() {
    agree(
        "__global__ void f(int* y, const int* x) {
            int i = threadIdx.x;
            int v = x[i];
            y[i * 8 + 0] = v + 2147483647;
            y[i * 8 + 1] = v - 2147483647 - 2;
            y[i * 8 + 2] = v * 65536 * 65536 + v * 48271;
            y[i * 8 + 3] = -v;
            y[i * 8 + 4] = v / (0 - 1);
            y[i * 8 + 5] = v % (0 - 1);
            y[i * 8 + 6] = v / 7 + v % 7;
            y[i * 8 + 7] = (v < 0) + (v <= 0) * 2 + (v > 0) * 4 + (v >= 0) * 8 + (v == 0) * 16 + (v != 0) * 32;
        }",
        "f",
        1,
        6,
        &[
            Arg::I(vec![0; 48]),
            Arg::I(vec![0, 1, -1, i32::MAX, i32::MIN, 123456789]),
        ],
    );
}

#[test]
fn float_comparisons_and_intrinsics_match() {
    agree(
        "__global__ void f(float* y, const float* x, int n) {
            int i = blockIdx.x * blockDim.x + threadIdx.x;
            if (i < n) {
                float v = x[i];
                float nan = 0.0 / (v - v);
                int c = (v < 0.0) + (v <= 0.0) * 2 + (v > 0.0) * 4 + (v >= 0.0) * 8
                      + (v == 0.0) * 16 + (v != 0.0) * 32 + (nan == nan) * 64 + (nan != nan) * 128;
                y[i] = (float)c + sinf(v) * cosf(v) + powf(fabsf(v), 1.5) + fminf(v, nan)
                     + fmaxf(v, 0.25) + erff(v) + sqrtf(fabsf(v)) + logf(fabsf(v) + 1.0)
                     + tanhf(v) + expf(v) + normcdff(v);
            }
        }",
        "f",
        2,
        32,
        &[Arg::F(vec![0.0; 50]), floats(50, 23), Arg::Int(50)],
    );
}

#[test]
fn two_d_launch_matches() {
    let (rows, cols) = (13usize, 21usize);
    differ(
        "__global__ void f(float* m, const float* x, int rows, int cols) {
            int r = blockIdx.y * blockDim.y + threadIdx.y;
            int c = blockIdx.x * blockDim.x + threadIdx.x;
            if (r < rows && c < cols) {
                m[r * cols + c] = x[c] * (float)(r * gridDim.x + blockDim.y) + (float)gridDim.y;
            }
        }",
        "f",
        (cols.div_ceil(4) as u32, rows.div_ceil(8) as u32),
        (4, 8),
        &[
            Arg::F(vec![-1.0; rows * cols]),
            floats(cols, 24),
            Arg::Int(rows as i32),
            Arg::Int(cols as i32),
        ],
        DEFAULT_STEP_BUDGET,
    )
    .unwrap();
}

#[test]
fn launch_errors_match_in_value() {
    let store = "__global__ void f(float* y, const float* x) { y[threadIdx.x] = x[threadIdx.x]; }";
    // The first failing thread's index, through the right parameter.
    agree_err(
        store,
        2,
        8,
        &[Arg::F(vec![0.0; 5]), floats(8, 25)],
        LaunchError::OutOfBounds {
            param: 0,
            index: 5,
            len: 5,
        },
    );
    agree_err(
        store,
        1,
        8,
        &[Arg::F(vec![0.0; 8]), floats(3, 25)],
        LaunchError::OutOfBounds {
            param: 1,
            index: 3,
            len: 3,
        },
    );
    agree_err(
        "__global__ void f(int* y) { y[threadIdx.x - 2] = 1; }",
        1,
        4,
        &[Arg::I(vec![0; 4])],
        LaunchError::OutOfBounds {
            param: 0,
            index: -2,
            len: 4,
        },
    );
    agree_err(
        "__global__ void f(float* y) { atomicAdd(&y[3], 1.0); }",
        1,
        1,
        &[Arg::F(vec![])],
        LaunchError::OutOfBounds {
            param: 0,
            index: 3,
            len: 0,
        },
    );
    // The value is evaluated before the index, as in the walker: the
    // division fails first although the store is out of bounds too.
    for op in ["/", "%"] {
        agree_err(
            &format!(
                "__global__ void f(int* y, int d) {{ y[9] = threadIdx.x {op} (d - threadIdx.x); }}"
            ),
            1,
            4,
            &[Arg::I(vec![0; 4]), Arg::Int(0)],
            LaunchError::DivideByZero,
        );
    }
    // Two different errors in one launch: the lower thread's wins.
    agree_err(
        "__global__ void f(int* y, int n) {
            int i = blockIdx.x * blockDim.x + threadIdx.x;
            if (i == 9) { y[0] = 1 / (i - 9); }
            if (i == 6) { y[n + i] = 1; }
            y[i] = i;
        }",
        4,
        4,
        &[Arg::I(vec![0; 16]), Arg::Int(16)],
        LaunchError::OutOfBounds {
            param: 0,
            index: 22,
            len: 16,
        },
    );

    let spin = "__global__ void f(int* y) { while (1) { y[0] = 1; } }";
    assert_eq!(
        differ(spin, "f", (1, 1), (1, 1), &[Arg::I(vec![0])], 10_000),
        Err(LaunchError::StepBudgetExceeded)
    );
    let saxpy = &[floats(4, 26), floats(4, 27), Arg::Float(1.0), Arg::Int(4)];
    assert_eq!(
        differ(
            BENCHMARK_KERNELS,
            "saxpy",
            (1, 1),
            (4, 1),
            &saxpy[..3],
            1 << 20
        ),
        Err(LaunchError::Arity {
            expected: 4,
            got: 3
        })
    );
    let mut wrong = saxpy.to_vec();
    wrong[1] = Arg::I(vec![0; 4]);
    assert!(matches!(
        differ(BENCHMARK_KERNELS, "saxpy", (1, 1), (4, 1), &wrong, 1 << 20),
        Err(LaunchError::ArgType { index: 1, .. })
    ));
    wrong[1] = Arg::Float(0.0);
    assert!(matches!(
        differ(BENCHMARK_KERNELS, "saxpy", (1, 1), (4, 1), &wrong, 1 << 20),
        Err(LaunchError::ArgType { index: 1, .. })
    ));
    assert_eq!(
        differ(BENCHMARK_KERNELS, "saxpy", (1, 0), (4, 1), saxpy, 1 << 20),
        Err(LaunchError::EmptyLaunch)
    );
}

/// Launches big enough to fan out still agree with the sequential walker
/// (no atomics here, so chunk order cannot show).
#[test]
fn fanned_out_launches_match() {
    let n = 16 * 256usize;
    let Arg::F(noise) = floats(n, 28) else {
        unreachable!()
    };
    let args = [
        Arg::F(noise.iter().map(|v| 90.0 + 10.0 * v).collect()),
        Arg::F(vec![0.0; n]),
        Arg::F(vec![0.0; n]),
        Arg::Float(100.0),
        Arg::Float(0.05),
        Arg::Float(0.2),
        Arg::Float(1.0),
        Arg::Int(n as i32 - 3),
    ];
    agree(BLACK_SCHOLES_KERNEL, "black_scholes", 16, 256, &args);

    let (rows, cols) = (256usize, 300usize);
    let dense = [
        Arg::F(vec![0.0; rows]),
        floats(rows * cols, 29),
        floats(cols, 30),
        Arg::Int(rows as i32),
        Arg::Int(cols as i32),
    ];
    agree(MV_KERNEL, "mv", 4, 64, &dense);
}

/// The satellite bugfix: whichever chunk finishes first, a failing launch
/// reports the error of its lowest flat thread id. Every thread from 100
/// up fails with its own index, in every chunk of a fanned-out launch.
#[test]
fn fanned_out_launch_reports_the_lowest_failing_thread() {
    let src = "__global__ void f(float* y, int spin) {
        int i = blockIdx.x * blockDim.x + threadIdx.x;
        float acc = 0.0;
        for (int k = 0; k < spin; k++) { acc += (float)k; }
        y[i] = acc;
    }";
    let program = Program::lower(&check(&parse(src).unwrap()[0]).unwrap()).unwrap();
    for _ in 0..20 {
        let mut y = vec![0.0f32; 100];
        let err = program
            .launch(
                (8, 1),
                (128, 1),
                &mut [KernelArg::F32(&mut y), KernelArg::Int(2000)],
                DEFAULT_STEP_BUDGET,
            )
            .unwrap_err();
        assert_eq!(
            err,
            LaunchError::OutOfBounds {
                param: 0,
                index: 100,
                len: 100
            }
        );
    }
}
