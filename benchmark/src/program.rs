//! Seed-derived inputs: the CE programs the runtime workloads execute, and
//! the sequential reference that says what their outputs must be.
//!
//! A [`Program`] is plain data (arrays, kernels, an ordered list of
//! launches and host writes). The same value is handed to the runtime
//! under test and to [`Program::reference`], which executes it one launch
//! at a time with `CompiledKernel::launch` on host buffers — the ground
//! truth every transport must reproduce bit for bit, and at the same time
//! the standalone `kernelc` probe.

use std::sync::Arc;
use std::time::{Duration, Instant};

use grout::kernelc::{self, CompiledKernel, KernelArg};
use grout::workloads::{BLACK_SCHOLES_KERNEL, MV_KERNEL};

/// SplitMix64: tiny, seedable, and the same on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`; distinct `stream`s of one seed are
    /// independent.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03)))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[lo, hi)`.
    pub fn f32_in(&mut self, lo: f32, hi: f32) -> f32 {
        let unit = (self.next_u64() >> 40) as f32 / (1u64 << 24) as f32;
        lo + (hi - lo) * unit
    }
}

/// Fills `buf` with values in `[0.5, 1.5)` derived from `fill` alone.
fn fill(fill: u64, buf: &mut [f32]) {
    let mut rng = Rng::new(fill, 0xF111);
    for x in buf {
        *x = rng.f32_in(0.5, 1.5);
    }
}

/// One launch argument.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arg {
    /// Index into [`Program::arrays`].
    Buf(usize),
    /// Float scalar.
    F32(f32),
    /// Int scalar.
    I32(i32),
}

/// One step of a program, in submission order.
#[derive(Debug, Clone, PartialEq)]
pub enum Step {
    /// A kernel CE over a 1-D grid.
    Launch {
        /// Index into [`Program::kernels`].
        kernel: usize,
        /// Blocks.
        grid: u32,
        /// Threads per block.
        block: u32,
        /// Arguments, in signature order.
        args: Vec<Arg>,
    },
    /// A host write setting every element of the array to `value` (a
    /// constant, so the harness spends no measurable time producing it
    /// inside the timed region; the bytes moved are the same).
    Write {
        /// Index into [`Program::arrays`].
        array: usize,
        /// The value written.
        value: f32,
    },
}

/// A complete seed-derived input.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// Translation units handed to `kernelc::compile`.
    pub sources: Vec<&'static str>,
    /// Kernel names, looked up across all `sources`.
    pub kernels: Vec<&'static str>,
    /// Length (in f32 elements) of each array.
    pub arrays: Vec<usize>,
    /// Array `i` starts as [`fill`]`(init + i, ..)`.
    pub init: u64,
    /// The pipelined stream.
    pub steps: Vec<Step>,
    /// The single launch repeated unpipelined for the round-trip metric.
    pub rtt: Step,
}

const SMALL_SRC: &str = "
__global__ void scale(float* y, float a, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) { y[i] = a * y[i]; }
}
__global__ void saxpy(float* y, const float* x, float a, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) { y[i] = a * x[i] + y[i]; }
}
";

const TOUCH_SRC: &str = "
__global__ void touch(float* y, float* token, float a, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) { y[i] = a * y[i] + token[i]; token[i] = token[i] + 1.0; }
}
";

/// Elements per small-CE array.
pub const SMALL_N: usize = 256;
/// Arrays in the small-CE pool. Odd, so round-robin placement on two
/// workers keeps handing an array to the worker that does not hold it.
pub const SMALL_POOL: usize = 7;

fn scale_launch(y: usize, a: f32) -> Step {
    Step::Launch {
        kernel: 0,
        grid: 2,
        block: 128,
        args: vec![Arg::Buf(y), Arg::F32(a), Arg::I32(SMALL_N as i32)],
    }
}

/// The small-CE stream: a seeded choice of `scale(y,a,n)` /
/// `saxpy(y,x,a,n)` over 256-element arrays from a pool of seven. Streams
/// of one seed are prefixes of each other, so the four workloads that
/// share it differ only in length and transport.
pub fn small_ce(seed: u64, ces: usize) -> Program {
    let mut rng = Rng::new(seed, 1);
    let steps = (0..ces)
        .map(|_| {
            let y = rng.below(SMALL_POOL);
            if rng.below(2) == 0 {
                scale_launch(y, rng.f32_in(0.995, 1.005))
            } else {
                // Any array but `y`: the runtime rejects aliased arguments.
                let x = (y + 1 + rng.below(SMALL_POOL - 1)) % SMALL_POOL;
                Step::Launch {
                    kernel: 1,
                    grid: 2,
                    block: 128,
                    args: vec![
                        Arg::Buf(y),
                        Arg::Buf(x),
                        Arg::F32(rng.f32_in(-0.001, 0.001)),
                        Arg::I32(SMALL_N as i32),
                    ],
                }
            }
        })
        .collect();
    Program {
        sources: vec![SMALL_SRC],
        kernels: vec!["scale", "saxpy"],
        arrays: vec![SMALL_N; SMALL_POOL],
        init: seed.wrapping_mul(1000),
        steps,
        rtt: scale_launch(0, 1.0),
    }
}

/// Elements per bulk array (4 MiB of f32).
pub const BULK_N: usize = 1 << 20;

/// Bulk transfers: three 4 MiB arrays visited round-robin by a kernel that
/// touches 128 elements. Three arrays on two round-robin workers means
/// every CE finds its array on the *other* worker and pulls all 4 MiB
/// peer-to-peer; every 16th step the host overwrites a seeded array, so
/// controller sends and fetches run beside the peer traffic.
///
/// Every CE also updates a 128-element token array, which chains the CEs
/// so one bulk transfer is in flight at a time. Unchained, two workers
/// end up writing 4 MiB frames to each other at once, and
/// `grout-workerd`'s serve loop (blocking peer writes, one thread) then
/// deadlocks until heartbeat staleness severs the sessions — a defect of
/// the program this benchmark must steer around, since a workload may not
/// contain failing operations.
pub fn bulk_transfer(seed: u64, ces: usize) -> Program {
    const TOKEN: usize = 3;
    let mut rng = Rng::new(seed, 2);
    let touch = |y: usize, a: f32| Step::Launch {
        kernel: 0,
        grid: 1,
        block: 128,
        args: vec![Arg::Buf(y), Arg::Buf(TOKEN), Arg::F32(a), Arg::I32(128)],
    };
    let mut steps = Vec::new();
    for i in 0..ces {
        if i % 16 == 15 {
            steps.push(Step::Write {
                array: rng.below(3),
                value: rng.f32_in(0.5, 1.5),
            });
        }
        steps.push(touch(i % 3, rng.f32_in(0.9, 1.1)));
    }
    Program {
        sources: vec![TOUCH_SRC],
        kernels: vec!["touch"],
        arrays: vec![BULK_N, BULK_N, BULK_N, 128],
        init: seed.wrapping_mul(1000) + 100,
        steps,
        rtt: touch(0, 1.0),
    }
}

/// Options per Black–Scholes launch.
pub const BS_N: usize = 1 << 18;
/// Matrix edge of the matrix-vector launch.
pub const MV_N: usize = 512;

/// Big kernels: Black–Scholes over 2^18 options and a 512×512
/// matrix-vector product from `grout::workloads`, on four independent
/// array sets so both workers stay busy and nothing moves after the first
/// round.
pub fn big_kernel(seed: u64, rounds: usize) -> Program {
    const SETS: usize = 4;
    let mut rng = Rng::new(seed, 3);
    // Per set: spot, call, put, A, x, y.
    let arrays: Vec<usize> = (0..SETS)
        .flat_map(|_| [BS_N, BS_N, BS_N, MV_N * MV_N, MV_N, MV_N])
        .collect();
    let bs = |set: usize, rng: &mut Rng| Step::Launch {
        kernel: 0,
        grid: (BS_N / 256) as u32,
        block: 256,
        args: vec![
            Arg::Buf(set * 6),
            Arg::Buf(set * 6 + 1),
            Arg::Buf(set * 6 + 2),
            Arg::F32(rng.f32_in(0.8, 1.2)),
            Arg::F32(rng.f32_in(0.01, 0.05)),
            Arg::F32(rng.f32_in(0.1, 0.4)),
            Arg::F32(rng.f32_in(0.5, 2.0)),
            Arg::I32(BS_N as i32),
        ],
    };
    let mv = |set: usize| Step::Launch {
        kernel: 1,
        grid: (MV_N / 256) as u32,
        block: 256,
        args: vec![
            Arg::Buf(set * 6 + 5),
            Arg::Buf(set * 6 + 3),
            Arg::Buf(set * 6 + 4),
            Arg::I32(MV_N as i32),
            Arg::I32(MV_N as i32),
        ],
    };
    let mut steps = Vec::new();
    for _ in 0..rounds {
        for set in 0..SETS {
            steps.push(bs(set, &mut rng));
            steps.push(mv(set));
        }
    }
    Program {
        sources: vec![BLACK_SCHOLES_KERNEL, MV_KERNEL],
        kernels: vec!["black_scholes", "mv"],
        arrays,
        init: seed.wrapping_mul(1000) + 200,
        rtt: mv(0),
        steps,
    }
}

/// What the sequential reference measured while producing the expected
/// outputs.
#[derive(Debug, Clone)]
pub struct Reference {
    /// Final contents of every array.
    pub arrays: Vec<Vec<f32>>,
    /// Wall time spent inside `CompiledKernel::launch`.
    pub launch_time: Duration,
    /// GPU threads (elements) executed across all launches.
    pub threads: u64,
}

impl Program {
    /// Kernel CEs in the pipelined stream (host writes are not counted).
    pub fn ces(&self) -> usize {
        self.steps
            .iter()
            .filter(|s| matches!(s, Step::Launch { .. }))
            .count()
    }

    /// The same program cut to its first `steps` steps.
    pub fn truncated(&self, steps: usize) -> Program {
        let mut p = self.clone();
        p.steps.truncate(steps);
        p
    }

    /// Initial contents of every array.
    pub fn initial(&self) -> Vec<Vec<f32>> {
        self.arrays
            .iter()
            .enumerate()
            .map(|(i, len)| {
                let mut buf = vec![0.0; *len];
                fill(self.init + i as u64, &mut buf);
                buf
            })
            .collect()
    }

    /// Compiles every source and resolves [`Program::kernels`] by name.
    pub fn compile(&self) -> Result<Vec<Arc<CompiledKernel>>, String> {
        let mut all = Vec::new();
        for src in &self.sources {
            all.extend(kernelc::compile(src).map_err(|e| e.to_string())?);
        }
        self.kernels
            .iter()
            .map(|name| {
                all.iter()
                    .find(|k| k.name() == *name)
                    .map(|k| Arc::new(k.clone()))
                    .ok_or_else(|| format!("kernel `{name}` missing from the program's sources"))
            })
            .collect()
    }

    /// Executes the program sequentially on host buffers.
    pub fn reference(&self, kernels: &[Arc<CompiledKernel>]) -> Result<Reference, String> {
        let mut arrays = self.initial();
        let mut launch_time = Duration::ZERO;
        let mut threads = 0u64;
        for step in &self.steps {
            match step {
                Step::Write { array, value } => arrays[*array].fill(*value),
                Step::Launch {
                    kernel,
                    grid,
                    block,
                    args,
                } => {
                    // Lift the argument buffers out so each can be borrowed
                    // mutably at once (they are distinct by construction).
                    let mut bufs: Vec<Vec<f32>> = args
                        .iter()
                        .filter_map(|a| match a {
                            Arg::Buf(i) => Some(std::mem::take(&mut arrays[*i])),
                            _ => None,
                        })
                        .collect();
                    let mut next = bufs.iter_mut();
                    let mut kargs: Vec<KernelArg<'_>> = args
                        .iter()
                        .map(|a| match a {
                            Arg::Buf(_) => KernelArg::F32(next.next().expect("one buffer per Buf")),
                            Arg::F32(v) => KernelArg::Float(*v),
                            Arg::I32(v) => KernelArg::Int(*v),
                        })
                        .collect();
                    let start = Instant::now();
                    let stats = kernels[*kernel]
                        .launch(*grid, *block, &mut kargs)
                        .map_err(|e| format!("reference launch failed: {e}"))?;
                    launch_time += start.elapsed();
                    threads += stats.threads;
                    drop(kargs);
                    let mut back = bufs.into_iter();
                    for a in args {
                        if let Arg::Buf(i) = a {
                            arrays[*i] = back.next().expect("one buffer per Buf");
                        }
                    }
                }
            }
        }
        Ok(Reference {
            arrays,
            launch_time,
            threads,
        })
    }
}

/// Arrays whose bit patterns differ between `got` and `want`.
pub fn mismatched_arrays(got: &[Vec<f32>], want: &[Vec<f32>]) -> u64 {
    let differing = got
        .iter()
        .zip(want)
        .filter(|(g, w)| {
            g.len() != w.len() || g.iter().zip(*w).any(|(a, b)| a.to_bits() != b.to_bits())
        })
        .count();
    (differing + got.len().abs_diff(want.len())) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_seeds_differ() {
        assert_eq!(small_ce(1, 512), small_ce(1, 512));
        assert_ne!(small_ce(1, 512), small_ce(2, 512));
        assert_eq!(bulk_transfer(1, 64), bulk_transfer(1, 64));
        assert_ne!(bulk_transfer(1, 64), bulk_transfer(2, 64));
        assert_eq!(big_kernel(1, 2), big_kernel(1, 2));
        assert_ne!(big_kernel(1, 2), big_kernel(2, 2));
    }

    #[test]
    fn small_streams_of_one_seed_are_prefixes() {
        let long = small_ce(7, 1024);
        let short = small_ce(7, 256);
        assert_eq!(long.steps[..256], short.steps[..]);
        assert_eq!(long.truncated(256), short);
    }

    #[test]
    fn small_stream_never_aliases_and_stays_in_pool() {
        for step in &small_ce(3, 4096).steps {
            let Step::Launch { args, .. } = step else {
                panic!("small stream holds launches only");
            };
            let bufs: Vec<usize> = args
                .iter()
                .filter_map(|a| match a {
                    Arg::Buf(i) => Some(*i),
                    _ => None,
                })
                .collect();
            assert!(bufs.iter().all(|&b| b < SMALL_POOL));
            assert!(bufs.len() == 1 || bufs[0] != bufs[1]);
        }
    }

    #[test]
    fn reference_runs_and_is_deterministic() {
        let p = small_ce(5, 300);
        let k = p.compile().unwrap();
        let a = p.reference(&k).unwrap();
        let b = p.reference(&k).unwrap();
        assert_eq!(mismatched_arrays(&a.arrays, &b.arrays), 0);
        assert_eq!(a.threads, 300 * SMALL_N as u64);
        assert!(a.arrays.iter().flatten().all(|x| x.is_finite()));
        assert_ne!(mismatched_arrays(&a.arrays, &p.initial()), 0);
    }
}
