#![warn(missing_docs)]
//! # kernelc — mini-CUDA front end (the reproduction's NVRTC)
//!
//! GrOUT's `buildkernel` API hands a CUDA C++ source string to NVRTC at
//! runtime. This crate supplies the equivalent for the reproduction: a
//! lexer, parser and type checker for a restricted CUDA C dialect, a
//! *bytecode back end* so kernels genuinely execute on the host (lowered
//! once to flat register code, run per simulated thread, blocks split
//! across cores by estimated work, relaxed atomics for buffer traffic),
//! and a static access-pattern analyzer whose output drives the UVM cost
//! model.
//!
//! The dialect covers what the paper's workload suite needs: 1-D grids
//! (`threadIdx.x`/`blockIdx.x`/`blockDim.x`/`gridDim.x`), `int`/`float`
//! scalars and pointers with const-correctness, `if`/`for`/`while`,
//! compound assignment, `atomicAdd`, and CUDA float intrinsics including
//! `erff`/`normcdff` for Black-Scholes.
//!
//! ```
//! use kernelc::{compile_one, KernelArg};
//!
//! let k = compile_one(
//!     "__global__ void square(float* x, int n) {
//!          int i = blockIdx.x * blockDim.x + threadIdx.x;
//!          if (i < n) { x[i] = x[i] * x[i]; }
//!      }",
//!     "square",
//! ).unwrap();
//! let mut x = vec![3.0f32; 10];
//! k.launch(1, 32, &mut [KernelArg::F32(&mut x), KernelArg::Int(10)]).unwrap();
//! assert_eq!(x[0], 9.0);
//! ```

mod analysis;
mod ast;
#[cfg(test)]
mod differential;
mod interp;
mod parser;
mod racecheck;
mod token;
mod typeck;
#[cfg(test)]
mod walker;

use std::fmt;

pub use analysis::{analyze, flops_per_thread, AccessClass, ParamAccess};
pub use ast::{Elem, Kernel, Param, ParamType};
pub use interp::{KernelArg, LaunchError, LaunchStats};
pub use parser::{parse, ParseError};
pub use racecheck::{Race, RaceReport};
pub use token::{lex, LexError};
pub use typeck::{check, erf, CheckedKernel, Intrinsic, TypeError};

/// Compilation failure: either syntactic or semantic.
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// Lex/parse failure.
    Parse(ParseError),
    /// Type/semantic failure.
    Type(TypeError),
    /// `compile_one` did not find the requested kernel.
    NoSuchKernel(String),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Parse(e) => write!(f, "{e}"),
            CompileError::Type(e) => write!(f, "{e}"),
            CompileError::NoSuchKernel(n) => write!(f, "no kernel named `{n}` in source"),
        }
    }
}

impl std::error::Error for CompileError {}

impl From<ParseError> for CompileError {
    fn from(e: ParseError) -> Self {
        CompileError::Parse(e)
    }
}

impl From<TypeError> for CompileError {
    fn from(e: TypeError) -> Self {
        CompileError::Type(e)
    }
}

/// A fully compiled kernel: checked IR, its access analysis, and the
/// bytecode the host executes.
///
/// The original source is retained so a kernel can be shipped across a
/// process boundary as `(source, name)` and recompiled remotely:
/// compilation and host interpretation are deterministic, so the remote
/// copy behaves bit-identically to the local one.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledKernel {
    checked: CheckedKernel,
    access: Vec<ParamAccess>,
    program: interp::Program,
    source: std::sync::Arc<str>,
}

impl CompiledKernel {
    /// Kernel name.
    pub fn name(&self) -> &str {
        &self.checked.name
    }

    /// The source text this kernel was compiled from (the full translation
    /// unit — recompile with [`compile_one`] and [`CompiledKernel::name`]).
    pub fn source(&self) -> &str {
        &self.source
    }

    /// Formal parameters.
    pub fn params(&self) -> &[Param] {
        &self.checked.params
    }

    /// Per-parameter access analysis (drives the UVM cost model).
    pub fn access(&self) -> &[ParamAccess] {
        &self.access
    }

    /// The checked IR (for custom back ends).
    pub fn checked(&self) -> &CheckedKernel {
        &self.checked
    }

    /// Rough per-thread FLOP estimate (loops assumed `assumed_trip` long).
    pub fn flops_per_thread(&self, assumed_trip: f64) -> f64 {
        flops_per_thread(&self.checked, assumed_trip)
    }

    /// Executes the kernel over a 1-D grid on the host: threads in flat
    /// `(block, thread)` order, blocks split across cores when the launch
    /// carries enough work to pay for the threads.
    pub fn launch(
        &self,
        grid: u32,
        block: u32,
        args: &mut [KernelArg<'_>],
    ) -> Result<LaunchStats, LaunchError> {
        self.launch_with_budget(grid, block, args, interp::DEFAULT_STEP_BUDGET)
    }

    /// Executes the kernel over a 2-D grid (`dim3(x, y)` semantics).
    pub fn launch2d(
        &self,
        grid: (u32, u32),
        block: (u32, u32),
        args: &mut [KernelArg<'_>],
    ) -> Result<LaunchStats, LaunchError> {
        self.program
            .launch(grid, block, args, interp::DEFAULT_STEP_BUDGET)
    }

    /// Sequential launch with data-race detection (the `compute-sanitizer
    /// racecheck` analogue): reports write-write and read-after-write
    /// conflicts between distinct threads, `atomicAdd` exempt.
    pub fn launch_checked(
        &self,
        grid: u32,
        block: u32,
        args: &mut [KernelArg<'_>],
    ) -> Result<RaceReport, LaunchError> {
        racecheck::launch_checked(&self.program, grid, block, args, 16)
    }

    /// [`CompiledKernel::launch`] with an explicit per-thread step budget
    /// (in bytecode instructions; the default is 2^32).
    pub fn launch_with_budget(
        &self,
        grid: u32,
        block: u32,
        args: &mut [KernelArg<'_>],
        budget: u64,
    ) -> Result<LaunchStats, LaunchError> {
        self.program.launch((grid, 1), (block, 1), args, budget)
    }
}

/// Compiles every `__global__` kernel in `source` (the NVRTC entry point).
pub fn compile(source: &str) -> Result<Vec<CompiledKernel>, CompileError> {
    let src: std::sync::Arc<str> = source.into();
    parse(source)?
        .iter()
        .map(|k| {
            let checked = check(k)?;
            let access = analyze(&checked);
            let program = interp::Program::lower(&checked)?;
            Ok(CompiledKernel {
                checked,
                access,
                program,
                source: std::sync::Arc::clone(&src),
            })
        })
        .collect()
}

/// Compiles `source` and returns the kernel named `name`.
pub fn compile_one(source: &str, name: &str) -> Result<CompiledKernel, CompileError> {
    compile(source)?
        .into_iter()
        .find(|k| k.name() == name)
        .ok_or_else(|| CompileError::NoSuchKernel(name.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compile_surfaces_both_error_kinds() {
        assert!(matches!(compile("garbage"), Err(CompileError::Parse(_))));
        assert!(matches!(
            compile("__global__ void f(const float* x) { x[0] = 1.0; }"),
            Err(CompileError::Type(_))
        ));
        assert!(matches!(
            compile_one("__global__ void a(int n) { return; }", "b"),
            Err(CompileError::NoSuchKernel(_))
        ));
    }

    #[test]
    fn racecheck_passes_clean_kernels_and_catches_races() {
        // Clean: disjoint writes.
        let clean = compile_one(
            "__global__ void f(float* y, int n) {
                int i = blockIdx.x * blockDim.x + threadIdx.x;
                if (i < n) { y[i] = 1.0; }
            }",
            "f",
        )
        .unwrap();
        let mut y = vec![0.0f32; 64];
        let report = clean
            .launch_checked(2, 32, &mut [KernelArg::F32(&mut y), KernelArg::Int(64)])
            .unwrap();
        assert!(report.is_race_free(), "{:?}", report.races);
        assert_eq!(report.threads, 64);

        // Racy: everyone writes element 0.
        let racy = compile_one(
            "__global__ void g(float* y) { y[0] = (float)threadIdx.x; }",
            "g",
        )
        .unwrap();
        let mut y = vec![0.0f32; 4];
        let report = racy
            .launch_checked(1, 8, &mut [KernelArg::F32(&mut y)])
            .unwrap();
        assert!(!report.is_race_free());
        assert!(report.races[0].second_is_write);
        assert!(report.races[0].to_string().contains("write-write"));

        // Atomic accumulation is not a race.
        let atomic = compile_one(
            "__global__ void h(float* y) { atomicAdd(&y[0], 1.0); }",
            "h",
        )
        .unwrap();
        let mut y = vec![0.0f32; 1];
        let report = atomic
            .launch_checked(1, 8, &mut [KernelArg::F32(&mut y)])
            .unwrap();
        assert!(report.is_race_free(), "{:?}", report.races);
        assert_eq!(y[0], 8.0, "sequential semantics preserved");
    }

    #[test]
    fn racecheck_catches_read_write_conflicts() {
        // Thread i reads element i-1 that thread i-1 wrote: unsynchronized.
        let k = compile_one(
            "__global__ void f(float* y, int n) {
                int i = blockIdx.x * blockDim.x + threadIdx.x;
                if (i < n) { y[i] = 1.0; }
                if (i > 0 && i < n) { y[i] = y[i - 1] + 1.0; }
            }",
            "f",
        )
        .unwrap();
        let mut y = vec![0.0f32; 16];
        let report = k
            .launch_checked(1, 16, &mut [KernelArg::F32(&mut y), KernelArg::Int(16)])
            .unwrap();
        assert!(!report.is_race_free());
        assert!(report.races.iter().any(|r| !r.second_is_write));
    }

    #[test]
    fn end_to_end_compile_and_launch() {
        let k = compile_one(
            "__global__ void add(float* y, const float* x, int n) {
                int i = blockIdx.x * blockDim.x + threadIdx.x;
                if (i < n) { y[i] = y[i] + x[i]; }
            }",
            "add",
        )
        .unwrap();
        assert_eq!(k.name(), "add");
        assert_eq!(k.access()[1].class, AccessClass::Coalesced);
        let mut y = vec![1.0f32; 64];
        let mut x = vec![2.0f32; 64];
        k.launch(
            2,
            32,
            &mut [
                KernelArg::F32(&mut y),
                KernelArg::F32(&mut x),
                KernelArg::Int(64),
            ],
        )
        .unwrap();
        assert!(y.iter().all(|&v| v == 3.0));
    }
}
