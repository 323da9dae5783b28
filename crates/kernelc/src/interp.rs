//! Execution back end of `buildkernel` in the local (real-execution)
//! runtime: kernels are lowered once, at compile time, to flat register
//! bytecode, and every simulated GPU thread runs that bytecode in a tight
//! dispatch loop.
//!
//! Threads run in flat `(block, thread)` order on the launching thread; a
//! launch with enough estimated work splits its blocks into contiguous
//! ranges across CPU cores (see [`chunk_count`]). All buffer traffic goes
//! through relaxed atomics, so even a *racy* kernel is memory-safe here
//! (last-write-wins, as on a real GPU) rather than UB.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};

use crate::ast::{BinOp, BuiltinVar, Elem, ParamType, UnOp};
use crate::typeck::{CheckedKernel, Intrinsic, RExpr, RStmt, TypeError};

/// Runtime launch failure.
#[derive(Debug, Clone, PartialEq)]
pub enum LaunchError {
    /// Argument count mismatch.
    Arity {
        /// Expected parameter count.
        expected: usize,
        /// Provided argument count.
        got: usize,
    },
    /// Argument type mismatch at a position.
    ArgType {
        /// Parameter position.
        index: usize,
        /// Explanation.
        expected: String,
    },
    /// A buffer access was out of bounds.
    OutOfBounds {
        /// Parameter position.
        param: usize,
        /// Offending element index.
        index: i64,
        /// Buffer length.
        len: usize,
    },
    /// Integer division or remainder by zero.
    DivideByZero,
    /// A loop exceeded the per-thread step budget.
    StepBudgetExceeded,
    /// Zero-sized grid or block.
    EmptyLaunch,
}

impl std::fmt::Display for LaunchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LaunchError::Arity { expected, got } => {
                write!(f, "kernel expects {expected} arguments, got {got}")
            }
            LaunchError::ArgType { index, expected } => {
                write!(f, "argument {index}: expected {expected}")
            }
            LaunchError::OutOfBounds { param, index, len } => write!(
                f,
                "out-of-bounds access through parameter {param}: index {index}, length {len}"
            ),
            LaunchError::DivideByZero => write!(f, "integer divide by zero"),
            LaunchError::StepBudgetExceeded => {
                write!(
                    f,
                    "per-thread step budget exceeded (possible infinite loop)"
                )
            }
            LaunchError::EmptyLaunch => write!(f, "grid and block sizes must be non-zero"),
        }
    }
}

impl std::error::Error for LaunchError {}

/// A kernel launch argument.
pub enum KernelArg<'a> {
    /// Float buffer (device array).
    F32(&'a mut [f32]),
    /// Int buffer (device array).
    I32(&'a mut [i32]),
    /// Float scalar.
    Float(f32),
    /// Int scalar.
    Int(i32),
}

/// Execution statistics of a launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchStats {
    /// Total simulated GPU threads executed.
    pub threads: u64,
}

/// Per-thread step budget of launches that do not name one: guards against
/// accidentally non-terminating kernels.
pub(crate) const DEFAULT_STEP_BUDGET: u64 = 1 << 32;

/// (param, element index, is_write, is_atomic) — recorded by traced runs.
pub(crate) type AccessLog = Vec<(usize, usize, bool, bool)>;

/// Register index. A thread's registers are untyped 32-bit cells; every
/// instruction knows whether it reads them as `i32` or as `f32` bits.
type Reg = u16;

// Fixed registers. 0..4 change per thread, 4..8 per launch, then one
// register per parameter position (scalars only), then the kernel's
// locals; constants and expression temporaries follow.
const R_TID_X: Reg = 0;
const R_TID_Y: Reg = 1;
const R_BID_X: Reg = 2;
const R_BID_Y: Reg = 3;
const R_BDIM_X: Reg = 4;
const R_BDIM_Y: Reg = 5;
const R_GDIM_X: Reg = 6;
const R_GDIM_Y: Reg = 7;
const R_PARAMS: Reg = 8;

/// One bytecode instruction. In the operand lists `d` is the destination
/// register, `a`/`b` operand registers, `p` a pointer parameter's
/// position, `to` an absolute jump target. `*I` ops read and write
/// registers as wrapping `i32`, `*F` ops as `f32`; comparisons and logic
/// produce int 0/1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Inst {
    /// `d = a`
    Mov(Reg, Reg),
    // `(d, a, b)`: d = a op b.
    AddI(Reg, Reg, Reg),
    SubI(Reg, Reg, Reg),
    MulI(Reg, Reg, Reg),
    DivI(Reg, Reg, Reg),
    RemI(Reg, Reg, Reg),
    EqI(Reg, Reg, Reg),
    NeI(Reg, Reg, Reg),
    LtI(Reg, Reg, Reg),
    GtI(Reg, Reg, Reg),
    LeI(Reg, Reg, Reg),
    GeI(Reg, Reg, Reg),
    AddF(Reg, Reg, Reg),
    SubF(Reg, Reg, Reg),
    MulF(Reg, Reg, Reg),
    DivF(Reg, Reg, Reg),
    EqF(Reg, Reg, Reg),
    NeF(Reg, Reg, Reg),
    LtF(Reg, Reg, Reg),
    GtF(Reg, Reg, Reg),
    LeF(Reg, Reg, Reg),
    GeF(Reg, Reg, Reg),
    // `(d, a)`: d = op a.
    NegI(Reg, Reg),
    NegF(Reg, Reg),
    /// `d = (a == 0)`
    NotI(Reg, Reg),
    /// `d = (a != 0)`
    BoolI(Reg, Reg),
    /// `d = a as f32`
    IntToF(Reg, Reg),
    /// `d = a as i32` (saturating, NaN -> 0)
    FToInt(Reg, Reg),
    /// `d = f(a)`
    Call1(Intrinsic, Reg, Reg),
    /// `d = f(a, b)`
    Call2(Intrinsic, Reg, Reg, Reg),
    /// `(d, p, a)`: d = params[p][a]
    Load(Reg, Reg, Reg),
    /// `(p, a, b)`: params[p][a] = b
    Store(Reg, Reg, Reg),
    /// `(p, a, b)`: atomicAdd(&params[p][a], b) on an int / float buffer.
    AtomicAddI(Reg, Reg, Reg),
    AtomicAddF(Reg, Reg, Reg),
    Jmp(u32),
    /// `(a, to)`
    JmpIfZero(Reg, u32),
    JmpIfNonZero(Reg, u32),
    /// `(a, to)` — loop back-edge: when `a != 0`, charge the loop's span to
    /// the step budget and jump back to `to`.
    Loop(Reg, u32),
    Ret,
}

/// A kernel lowered to flat register bytecode, built once by `compile`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Program {
    params: Vec<ParamType>,
    code: Vec<Inst>,
    /// Register file a thread starts from: constants in place, the rest 0.
    init: Vec<u32>,
}

struct Lowering<'k> {
    kernel: &'k CheckedKernel,
    code: Vec<Inst>,
    /// Constant pool: bits -> register.
    consts: HashMap<u32, Reg>,
    locals: u32,
    /// Registers handed out so far. Constants and expression temporaries
    /// are never reused, so nothing written earlier in a thread can
    /// clobber a constant.
    regs: u32,
}

impl Lowering<'_> {
    fn temp(&mut self) -> Reg {
        let r = self.regs;
        self.regs += 1;
        // More than 65536 registers is rejected by `Program::lower`; until
        // then a wrapped index only lands in code that is thrown away.
        r as Reg
    }

    fn constant(&mut self, bits: u32) -> Reg {
        if let Some(&r) = self.consts.get(&bits) {
            return r;
        }
        let r = self.temp();
        self.consts.insert(bits, r);
        r
    }

    fn local(&self, slot: u16) -> Reg {
        (self.locals + slot as u32) as Reg
    }

    fn elem_of(&self, param: u16) -> Elem {
        match self.kernel.params[param as usize].ty {
            ParamType::Ptr { elem, .. } => elem,
            ParamType::Scalar(_) => unreachable!("typeck guarantees pointer params"),
        }
    }

    /// Emits a forward jump whose target is set by [`Self::land`].
    fn jump(&mut self, inst: Inst) -> usize {
        self.code.push(inst);
        self.code.len() - 1
    }

    fn land(&mut self, at: usize) {
        let here = self.code.len() as u32;
        match &mut self.code[at] {
            Inst::Jmp(to) | Inst::JmpIfZero(_, to) | Inst::JmpIfNonZero(_, to) => *to = here,
            other => unreachable!("{other:?} is not a forward jump"),
        }
    }

    /// A value already in a register: returned as is, or copied to `dst`.
    fn leaf(&mut self, r: Reg, dst: Option<Reg>) -> Reg {
        match dst {
            Some(d) if d != r => {
                self.code.push(Inst::Mov(d, r));
                d
            }
            _ => r,
        }
    }

    /// Lowers `e` and returns the register holding its value as a `want`
    /// (the conversion the tree walker applied dynamically at every use is
    /// an explicit op here). With `dst`, the value is left in `dst`, which
    /// is written by the last emitted instruction only, so `dst` may be a
    /// local the expression itself reads.
    fn expr(&mut self, e: &RExpr, want: Elem, dst: Option<Reg>) -> Reg {
        let have = e.elem();
        if have != want {
            let d = dst.unwrap_or_else(|| self.temp());
            let a = self.expr(e, have, None);
            self.code.push(match want {
                Elem::Float => Inst::IntToF(d, a),
                Elem::Int => Inst::FToInt(d, a),
            });
            return d;
        }
        match e {
            RExpr::IntLit(v) => {
                let r = self.constant(*v as u32);
                self.leaf(r, dst)
            }
            RExpr::FloatLit(v) => {
                let r = self.constant(v.to_bits());
                self.leaf(r, dst)
            }
            RExpr::Local(slot, _) => self.leaf(self.local(*slot), dst),
            RExpr::ParamScalar(p, _) => self.leaf((R_PARAMS as u32 + *p as u32) as Reg, dst),
            RExpr::Builtin(b) => {
                let r = match b {
                    BuiltinVar::ThreadIdxX => R_TID_X,
                    BuiltinVar::ThreadIdxY => R_TID_Y,
                    BuiltinVar::BlockIdxX => R_BID_X,
                    BuiltinVar::BlockIdxY => R_BID_Y,
                    BuiltinVar::BlockDimX => R_BDIM_X,
                    BuiltinVar::BlockDimY => R_BDIM_Y,
                    BuiltinVar::GridDimX => R_GDIM_X,
                    BuiltinVar::GridDimY => R_GDIM_Y,
                };
                self.leaf(r, dst)
            }
            RExpr::Cast { to, expr } => self.expr(expr, *to, dst),
            RExpr::Load { param, index, .. } => {
                let d = dst.unwrap_or_else(|| self.temp());
                let a = self.expr(index, Elem::Int, None);
                self.code.push(Inst::Load(d, *param, a));
                d
            }
            RExpr::Unary { op, elem, expr } => {
                let d = dst.unwrap_or_else(|| self.temp());
                let (operand, make): (Elem, fn(Reg, Reg) -> Inst) = match (op, elem) {
                    (UnOp::Neg, Elem::Int) => (Elem::Int, Inst::NegI),
                    (UnOp::Neg, Elem::Float) => (Elem::Float, Inst::NegF),
                    (UnOp::Not, _) => (Elem::Int, Inst::NotI),
                };
                let a = self.expr(expr, operand, None);
                self.code.push(make(d, a));
                d
            }
            RExpr::Binary {
                op: op @ (BinOp::And | BinOp::Or),
                lhs,
                rhs,
                ..
            } => {
                // Short-circuit: `t = (lhs != 0)`, and only when that does
                // not decide the result, `t = (rhs != 0)`. `t` is written
                // before `rhs` is evaluated, so it is never `dst`.
                let t = self.temp();
                let a = self.expr(lhs, Elem::Int, None);
                self.code.push(Inst::BoolI(t, a));
                let skip = self.jump(match op {
                    BinOp::And => Inst::JmpIfZero(t, 0),
                    _ => Inst::JmpIfNonZero(t, 0),
                });
                let a = self.expr(rhs, Elem::Int, None);
                self.code.push(Inst::BoolI(t, a));
                self.land(skip);
                self.leaf(t, dst)
            }
            RExpr::Binary { op, elem, lhs, rhs } => {
                let d = dst.unwrap_or_else(|| self.temp());
                let a = self.expr(lhs, *elem, None);
                let b = self.expr(rhs, *elem, None);
                let make: fn(Reg, Reg, Reg) -> Inst = match (elem, op) {
                    (Elem::Int, BinOp::Add) => Inst::AddI,
                    (Elem::Int, BinOp::Sub) => Inst::SubI,
                    (Elem::Int, BinOp::Mul) => Inst::MulI,
                    (Elem::Int, BinOp::Div) => Inst::DivI,
                    (Elem::Int, BinOp::Rem) => Inst::RemI,
                    (Elem::Int, BinOp::Eq) => Inst::EqI,
                    (Elem::Int, BinOp::Ne) => Inst::NeI,
                    (Elem::Int, BinOp::Lt) => Inst::LtI,
                    (Elem::Int, BinOp::Gt) => Inst::GtI,
                    (Elem::Int, BinOp::Le) => Inst::LeI,
                    (Elem::Int, BinOp::Ge) => Inst::GeI,
                    (Elem::Float, BinOp::Add) => Inst::AddF,
                    (Elem::Float, BinOp::Sub) => Inst::SubF,
                    (Elem::Float, BinOp::Mul) => Inst::MulF,
                    (Elem::Float, BinOp::Div) => Inst::DivF,
                    (Elem::Float, BinOp::Eq) => Inst::EqF,
                    (Elem::Float, BinOp::Ne) => Inst::NeF,
                    (Elem::Float, BinOp::Lt) => Inst::LtF,
                    (Elem::Float, BinOp::Gt) => Inst::GtF,
                    (Elem::Float, BinOp::Le) => Inst::LeF,
                    (Elem::Float, BinOp::Ge) => Inst::GeF,
                    (Elem::Float, BinOp::Rem) => unreachable!("rejected by typeck"),
                    (_, BinOp::And | BinOp::Or) => unreachable!("handled above"),
                };
                self.code.push(make(d, a, b));
                d
            }
            RExpr::Call { func, args } => {
                let d = dst.unwrap_or_else(|| self.temp());
                let a = self.expr(&args[0], Elem::Float, None);
                let inst = match args.get(1) {
                    None => Inst::Call1(*func, d, a),
                    Some(second) => {
                        let b = self.expr(second, Elem::Float, None);
                        Inst::Call2(*func, d, a, b)
                    }
                };
                self.code.push(inst);
                d
            }
            RExpr::Ternary {
                cond,
                elem,
                then,
                els,
            } => {
                let d = dst.unwrap_or_else(|| self.temp());
                let a = self.expr(cond, Elem::Int, None);
                let to_else = self.jump(Inst::JmpIfZero(a, 0));
                self.expr(then, *elem, Some(d));
                let to_end = self.jump(Inst::Jmp(0));
                self.land(to_else);
                self.expr(els, *elem, Some(d));
                self.land(to_end);
                d
            }
        }
    }

    fn block(&mut self, stmts: &[RStmt]) {
        for s in stmts {
            self.stmt(s);
        }
    }

    /// `Jmp cond; body: ...; cond: ...; Loop body` — one conditional
    /// branch per iteration, the condition lowered once.
    fn looped(&mut self, cond: &RExpr, body: impl FnOnce(&mut Self)) {
        let to_cond = self.jump(Inst::Jmp(0));
        let top = self.code.len() as u32;
        body(self);
        self.land(to_cond);
        let a = self.expr(cond, Elem::Int, None);
        self.code.push(Inst::Loop(a, top));
    }

    fn stmt(&mut self, s: &RStmt) {
        match s {
            RStmt::SetLocal { slot, value } => {
                let ty = self.kernel.local_types[*slot as usize];
                let d = self.local(*slot);
                self.expr(value, ty, Some(d));
            }
            RStmt::Store {
                param,
                index,
                value,
            } => {
                let b = self.expr(value, self.elem_of(*param), None);
                let a = self.expr(index, Elem::Int, None);
                self.code.push(Inst::Store(*param, a, b));
            }
            RStmt::AtomicAdd {
                param,
                index,
                value,
            } => {
                let elem = self.elem_of(*param);
                let b = self.expr(value, elem, None);
                let a = self.expr(index, Elem::Int, None);
                self.code.push(match elem {
                    Elem::Int => Inst::AtomicAddI(*param, a, b),
                    Elem::Float => Inst::AtomicAddF(*param, a, b),
                });
            }
            RStmt::If { cond, then, els } => {
                let a = self.expr(cond, Elem::Int, None);
                let to_else = self.jump(Inst::JmpIfZero(a, 0));
                self.block(then);
                if els.is_empty() {
                    self.land(to_else);
                } else {
                    let to_end = self.jump(Inst::Jmp(0));
                    self.land(to_else);
                    self.block(els);
                    self.land(to_end);
                }
            }
            RStmt::For {
                init,
                cond,
                step,
                body,
            } => {
                self.stmt(init);
                self.looped(cond, |l| {
                    l.block(body);
                    l.stmt(step);
                });
            }
            RStmt::While { cond, body } => self.looped(cond, |l| l.block(body)),
            RStmt::Return => self.code.push(Inst::Ret),
        }
    }
}

impl Program {
    /// Lowers a checked kernel. Fails only when the kernel needs more
    /// registers than an instruction can address.
    pub(crate) fn lower(kernel: &CheckedKernel) -> Result<Program, TypeError> {
        let locals = R_PARAMS as u32 + kernel.params.len() as u32;
        let mut l = Lowering {
            kernel,
            code: Vec::new(),
            consts: HashMap::new(),
            locals,
            regs: locals + kernel.local_types.len() as u32,
        };
        l.block(&kernel.body);
        l.code.push(Inst::Ret);
        if l.regs > Reg::MAX as u32 + 1 {
            return Err(TypeError(format!(
                "kernel `{}` is too large: it needs {} registers, the limit is {}",
                kernel.name,
                l.regs,
                Reg::MAX as u32 + 1
            )));
        }
        let mut init = vec![0u32; l.regs as usize];
        for (bits, r) in l.consts {
            init[r as usize] = bits;
        }
        Ok(Program {
            params: kernel.params.iter().map(|p| p.ty).collect(),
            code: l.code,
            init,
        })
    }
}

/// A bound pointer argument. Int and float buffers are both 32-bit cells
/// addressed through relaxed atomics; scalar parameters bind as `len: 0`.
#[derive(Clone, Copy)]
struct Buf {
    ptr: *const AtomicU32,
    len: usize,
}

impl Buf {
    const NONE: Buf = Buf {
        ptr: std::ptr::null(),
        len: 0,
    };

    fn new(ptr: *const AtomicU32, len: usize) -> Buf {
        Buf { ptr, len }
    }
}

// SAFETY: `ptr` comes from an exclusive slice borrow held for the whole
// launch and is only ever dereferenced as an atomic, so sharing it between
// the launch's threads is sound.
unsafe impl Send for Buf {}
unsafe impl Sync for Buf {}

#[cold]
fn out_of_bounds(param: Reg, index: i32, len: usize) -> LaunchError {
    LaunchError::OutOfBounds {
        param: param as usize,
        index: index as i64,
        len,
    }
}

/// Observes every buffer access of a run; monomorphised, so the untraced
/// launch pays nothing for it.
trait AccessHook {
    fn access(&mut self, param: Reg, at: usize, is_write: bool, is_atomic: bool);
}

struct Untraced;

impl AccessHook for Untraced {
    #[inline(always)]
    fn access(&mut self, _: Reg, _: usize, _: bool, _: bool) {}
}

impl AccessHook for AccessLog {
    fn access(&mut self, param: Reg, at: usize, is_write: bool, is_atomic: bool) {
        self.push((param as usize, at, is_write, is_atomic));
    }
}

/// One launch: the program bound to its arguments and dimensions.
struct Launch<'a> {
    code: &'a [Inst],
    bufs: Vec<Buf>,
    grid: (u32, u32),
    block: (u32, u32),
    step_budget: u64,
}

impl Launch<'_> {
    /// Runs one thread (its ids already in `regs`) to completion and
    /// returns the steps it retired. A step is one bytecode instruction,
    /// counted per basic block rather than per instruction: the whole
    /// program once on entry (an upper bound on the loop-free path) plus a
    /// loop's span on each back-edge. The budget is checked at the same
    /// two places, which is every place a thread can fail to terminate.
    #[inline]
    fn thread<H: AccessHook>(&self, regs: &mut [u32], hook: &mut H) -> Result<u64, LaunchError> {
        macro_rules! int {
            ($r:expr) => {
                regs[$r as usize] as i32
            };
        }
        macro_rules! float {
            ($r:expr) => {
                f32::from_bits(regs[$r as usize])
            };
        }
        macro_rules! set_int {
            ($d:expr, $v:expr) => {{
                let v: i32 = $v;
                regs[$d as usize] = v as u32;
            }};
        }
        macro_rules! set_float {
            ($d:expr, $v:expr) => {{
                let v: f32 = $v;
                regs[$d as usize] = v.to_bits();
            }};
        }
        // The cell `params[p][regs[a]]`, bounds-checked.
        macro_rules! cell {
            ($p:expr, $a:expr) => {{
                let buf = self.bufs[$p as usize];
                let index = int!($a);
                if index < 0 || index as usize >= buf.len {
                    return Err(out_of_bounds($p, index, buf.len));
                }
                // SAFETY: `index` is within the `len` elements `ptr` was
                // bound to, and the borrow outlives the launch.
                (index as usize, unsafe { &*buf.ptr.add(index as usize) })
            }};
        }

        let code = self.code;
        let mut steps = code.len() as u64;
        if steps > self.step_budget {
            return Err(LaunchError::StepBudgetExceeded);
        }
        let mut pc = 0usize;
        loop {
            let inst = code[pc];
            pc += 1;
            match inst {
                Inst::Mov(d, a) => regs[d as usize] = regs[a as usize],
                Inst::AddI(d, a, b) => set_int!(d, int!(a).wrapping_add(int!(b))),
                Inst::SubI(d, a, b) => set_int!(d, int!(a).wrapping_sub(int!(b))),
                Inst::MulI(d, a, b) => set_int!(d, int!(a).wrapping_mul(int!(b))),
                Inst::DivI(d, a, b) => {
                    if int!(b) == 0 {
                        return Err(LaunchError::DivideByZero);
                    }
                    set_int!(d, int!(a).wrapping_div(int!(b)))
                }
                Inst::RemI(d, a, b) => {
                    if int!(b) == 0 {
                        return Err(LaunchError::DivideByZero);
                    }
                    set_int!(d, int!(a).wrapping_rem(int!(b)))
                }
                Inst::EqI(d, a, b) => set_int!(d, (int!(a) == int!(b)) as i32),
                Inst::NeI(d, a, b) => set_int!(d, (int!(a) != int!(b)) as i32),
                Inst::LtI(d, a, b) => set_int!(d, (int!(a) < int!(b)) as i32),
                Inst::GtI(d, a, b) => set_int!(d, (int!(a) > int!(b)) as i32),
                Inst::LeI(d, a, b) => set_int!(d, (int!(a) <= int!(b)) as i32),
                Inst::GeI(d, a, b) => set_int!(d, (int!(a) >= int!(b)) as i32),
                Inst::NegI(d, a) => set_int!(d, int!(a).wrapping_neg()),
                Inst::NotI(d, a) => set_int!(d, (int!(a) == 0) as i32),
                Inst::BoolI(d, a) => set_int!(d, (int!(a) != 0) as i32),
                Inst::AddF(d, a, b) => set_float!(d, float!(a) + float!(b)),
                Inst::SubF(d, a, b) => set_float!(d, float!(a) - float!(b)),
                Inst::MulF(d, a, b) => set_float!(d, float!(a) * float!(b)),
                Inst::DivF(d, a, b) => set_float!(d, float!(a) / float!(b)),
                Inst::EqF(d, a, b) => set_int!(d, (float!(a) == float!(b)) as i32),
                Inst::NeF(d, a, b) => set_int!(d, (float!(a) != float!(b)) as i32),
                Inst::LtF(d, a, b) => set_int!(d, (float!(a) < float!(b)) as i32),
                Inst::GtF(d, a, b) => set_int!(d, (float!(a) > float!(b)) as i32),
                Inst::LeF(d, a, b) => set_int!(d, (float!(a) <= float!(b)) as i32),
                Inst::GeF(d, a, b) => set_int!(d, (float!(a) >= float!(b)) as i32),
                Inst::NegF(d, a) => set_float!(d, -float!(a)),
                Inst::IntToF(d, a) => set_float!(d, int!(a) as f32),
                Inst::FToInt(d, a) => set_int!(d, float!(a) as i32),
                Inst::Call1(f, d, a) => set_float!(d, f.eval(&[float!(a)])),
                Inst::Call2(f, d, a, b) => set_float!(d, f.eval(&[float!(a), float!(b)])),
                Inst::Load(d, p, a) => {
                    let (at, cell) = cell!(p, a);
                    hook.access(p, at, false, false);
                    regs[d as usize] = cell.load(Ordering::Relaxed);
                }
                Inst::Store(p, a, b) => {
                    let (at, cell) = cell!(p, a);
                    hook.access(p, at, true, false);
                    cell.store(regs[b as usize], Ordering::Relaxed);
                }
                Inst::AtomicAddI(p, a, b) => {
                    let (at, cell) = cell!(p, a);
                    hook.access(p, at, true, true);
                    cell.fetch_add(regs[b as usize], Ordering::Relaxed);
                }
                Inst::AtomicAddF(p, a, b) => {
                    let (at, cell) = cell!(p, a);
                    hook.access(p, at, true, true);
                    let add = float!(b);
                    let mut cur = cell.load(Ordering::Relaxed);
                    loop {
                        let next = (f32::from_bits(cur) + add).to_bits();
                        match cell.compare_exchange_weak(
                            cur,
                            next,
                            Ordering::Relaxed,
                            Ordering::Relaxed,
                        ) {
                            Ok(_) => break,
                            Err(seen) => cur = seen,
                        }
                    }
                }
                Inst::Jmp(to) => pc = to as usize,
                Inst::JmpIfZero(a, to) => {
                    if regs[a as usize] == 0 {
                        pc = to as usize;
                    }
                }
                Inst::JmpIfNonZero(a, to) => {
                    if regs[a as usize] != 0 {
                        pc = to as usize;
                    }
                }
                Inst::Loop(a, to) => {
                    if regs[a as usize] != 0 {
                        steps += (pc - to as usize) as u64;
                        if steps > self.step_budget {
                            return Err(LaunchError::StepBudgetExceeded);
                        }
                        pc = to as usize;
                    }
                }
                Inst::Ret => return Ok(steps),
            }
        }
    }

    fn blocks(&self) -> u64 {
        self.grid.0 as u64 * self.grid.1 as u64
    }

    /// Runs every thread of `blocks` (flat block ids, row-major) in flat
    /// order — minus thread 0 of block 0 when `skip_first` — and stops at
    /// the first error, which is therefore the range's lowest thread's.
    /// `on_thread` sees the hook after each thread.
    fn run<H: AccessHook>(
        &self,
        blocks: std::ops::Range<u64>,
        mut skip_first: bool,
        regs: &mut [u32],
        hook: &mut H,
        mut on_thread: impl FnMut(&mut H),
    ) -> Result<(), LaunchError> {
        for flat in blocks {
            regs[R_BID_X as usize] = (flat % self.grid.0 as u64) as u32;
            regs[R_BID_Y as usize] = (flat / self.grid.0 as u64) as u32;
            for ty in 0..self.block.1 {
                regs[R_TID_Y as usize] = ty;
                for tx in 0..self.block.0 {
                    if std::mem::take(&mut skip_first) {
                        continue;
                    }
                    regs[R_TID_X as usize] = tx;
                    self.thread(regs, hook)?;
                    on_thread(hook);
                }
            }
        }
        Ok(())
    }
}

/// Steps a spawned chunk must be expected to retire before an OS thread is
/// worth starting for it. Spawning and joining one scoped thread measured
/// ~50 µs on the 2-vCPU box this was sized on, and a step retires in
/// ~2-3 ns, so 2^16 steps (~150 µs) keeps the spawn under a third of the
/// work it buys; a launch needs two such chunks' worth to fan out at all.
const FAN_OUT_GRAIN: u64 = 1 << 16;

/// How many contiguous block ranges a launch is split into, one per OS
/// thread: `min(cores, blocks, estimated steps / FAN_OUT_GRAIN)`, where
/// the estimate extrapolates thread 0's retired steps to every thread. A
/// function of the launch alone (never of wall clock), so the same CE
/// takes the same path on every run. `cores` is only consulted for
/// launches that clear the grain.
fn chunk_count(thread0_steps: u64, threads: u64, blocks: u64, cores: impl FnOnce() -> u64) -> u64 {
    let worth = thread0_steps.saturating_mul(threads) / FAN_OUT_GRAIN;
    match worth.min(blocks) {
        0 | 1 => 1,
        n => n.min(cores()),
    }
}

impl Program {
    /// Checks `args` against the kernel's parameters and binds them:
    /// buffers by position, scalars and dimensions into a fresh register
    /// file.
    fn bind<'a>(
        &'a self,
        grid: (u32, u32),
        block: (u32, u32),
        // Borrowed as long as the `Launch`, whose `Buf`s point into it.
        args: &'a mut [KernelArg<'_>],
        step_budget: u64,
    ) -> Result<(Launch<'a>, Vec<u32>), LaunchError> {
        if args.len() != self.params.len() {
            return Err(LaunchError::Arity {
                expected: self.params.len(),
                got: args.len(),
            });
        }
        let mut regs = self.init.clone();
        regs[R_BDIM_X as usize] = block.0;
        regs[R_BDIM_Y as usize] = block.1;
        regs[R_GDIM_X as usize] = grid.0;
        regs[R_GDIM_Y as usize] = grid.1;
        let mut bufs = vec![Buf::NONE; args.len()];
        for (i, (arg, param)) in args.iter_mut().zip(&self.params).enumerate() {
            let scalar = &mut regs[R_PARAMS as usize + i];
            match (param, arg) {
                (
                    ParamType::Ptr {
                        elem: Elem::Float, ..
                    },
                    KernelArg::F32(b),
                ) => bufs[i] = Buf::new(b.as_mut_ptr().cast(), b.len()),
                (
                    ParamType::Ptr {
                        elem: Elem::Int, ..
                    },
                    KernelArg::I32(b),
                ) => bufs[i] = Buf::new(b.as_mut_ptr().cast(), b.len()),
                (ParamType::Scalar(Elem::Float), KernelArg::Float(v)) => *scalar = v.to_bits(),
                // C-style convenience: an int scalar is accepted for a float
                // parameter.
                (ParamType::Scalar(Elem::Float), KernelArg::Int(v)) => {
                    *scalar = (*v as f32).to_bits()
                }
                (ParamType::Scalar(Elem::Int), KernelArg::Int(v)) => *scalar = *v as u32,
                (expected, _) => {
                    return Err(LaunchError::ArgType {
                        index: i,
                        expected: format!("{expected:?}"),
                    })
                }
            }
        }
        let launch = Launch {
            code: &self.code,
            bufs,
            grid,
            block,
            step_budget,
        };
        Ok((launch, regs))
    }

    /// Executes the kernel over a 2-D grid (`(x, y)` dimensions, like
    /// `dim3(x, y)` in CUDA) with a per-thread step budget. Threads run in
    /// flat `(block, thread)` order on the calling thread; a launch whose
    /// estimated work clears [`FAN_OUT_GRAIN`] splits its blocks into
    /// contiguous ranges across cores instead. Either way the reported
    /// error is that of the lowest failing flat thread id.
    pub(crate) fn launch(
        &self,
        grid: (u32, u32),
        block: (u32, u32),
        args: &mut [KernelArg<'_>],
        step_budget: u64,
    ) -> Result<LaunchStats, LaunchError> {
        if grid.0 == 0 || grid.1 == 0 || block.0 == 0 || block.1 == 0 {
            return Err(LaunchError::EmptyLaunch);
        }
        let (launch, mut regs) = self.bind(grid, block, args, step_budget)?;
        let blocks = launch.blocks();
        let threads = blocks * block.0 as u64 * block.1 as u64;
        // Thread 0 (all ids zero, as bound) doubles as the work probe.
        let thread0_steps = launch.thread(&mut regs, &mut Untraced)?;
        let chunks = chunk_count(thread0_steps, threads, blocks, || {
            std::thread::available_parallelism().map_or(1, |n| n.get() as u64)
        });
        let run = |chunk: u64, regs: &mut [u32]| {
            let range = blocks * chunk / chunks..blocks * (chunk + 1) / chunks;
            launch.run(range, chunk == 0, regs, &mut Untraced, |_| {})
        };
        // Chunk 0 runs here; with `chunks == 1` nothing is spawned.
        std::thread::scope(|s| {
            let spawned: Vec<_> = (1..chunks)
                .map(|chunk| {
                    let mut regs = regs.clone();
                    s.spawn(move || run(chunk, &mut regs))
                })
                .collect();
            // Chunks are ascending block ranges, so the first failing
            // chunk holds the lowest failing thread.
            spawned.into_iter().fold(run(0, &mut regs), |first, h| {
                first.and(h.join().expect("a kernel chunk panicked"))
            })
        })?;
        Ok(LaunchStats { threads })
    }

    /// Runs a 1-D launch one thread at a time on the calling thread,
    /// handing `on_thread` each thread's flat id and buffer-access log.
    /// Used by the race checker.
    pub(crate) fn launch_traced(
        &self,
        grid: u32,
        block: u32,
        args: &mut [KernelArg<'_>],
        step_budget: u64,
        mut on_thread: impl FnMut(u64, &AccessLog),
    ) -> Result<(), LaunchError> {
        let (launch, mut regs) = self.bind((grid, 1), (block, 1), args, step_budget)?;
        let mut gid = 0u64;
        launch.run(
            0..launch.blocks(),
            false,
            &mut regs,
            &mut AccessLog::new(),
            |log| {
                on_thread(gid, log);
                log.clear();
                gid += 1;
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::typeck::check;

    fn kernel(src: &str) -> Program {
        Program::lower(&check(&parse(src).unwrap()[0]).unwrap()).unwrap()
    }

    type Launched = Result<LaunchStats, LaunchError>;

    fn launch(k: &Program, grid: u32, block: u32, args: &mut [KernelArg<'_>]) -> Launched {
        k.launch((grid, 1), (block, 1), args, DEFAULT_STEP_BUDGET)
    }

    fn launch_with_budget(
        k: &Program,
        grid: u32,
        block: u32,
        args: &mut [KernelArg<'_>],
        budget: u64,
    ) -> Launched {
        k.launch((grid, 1), (block, 1), args, budget)
    }

    fn launch2d(
        k: &Program,
        grid: (u32, u32),
        block: (u32, u32),
        args: &mut [KernelArg<'_>],
    ) -> Launched {
        k.launch(grid, block, args, DEFAULT_STEP_BUDGET)
    }

    const SAXPY: &str = "__global__ void saxpy(float* y, const float* x, float a, int n) {
        int i = blockIdx.x * blockDim.x + threadIdx.x;
        if (i < n) { y[i] = a * x[i] + y[i]; }
    }";

    #[test]
    fn saxpy_computes() {
        let k = kernel(SAXPY);
        let n = 1000usize;
        let mut y = vec![1.0f32; n];
        let mut x: Vec<f32> = (0..n).map(|i| i as f32).collect();
        let stats = launch(
            &k,
            8,
            128,
            &mut [
                KernelArg::F32(&mut y),
                KernelArg::F32(&mut x),
                KernelArg::Float(2.0),
                KernelArg::Int(n as i32),
            ],
        )
        .unwrap();
        assert_eq!(stats.threads, 1024);
        for (i, v) in y.iter().enumerate() {
            assert_eq!(*v, 2.0 * i as f32 + 1.0);
        }
    }

    #[test]
    fn grid_stride_loop_and_atomic_dot() {
        let k = kernel(
            "__global__ void dot(const float* a, const float* b, float* out, int n) {
                int i = blockIdx.x * blockDim.x + threadIdx.x;
                float acc = 0.0;
                for (int j = i; j < n; j += blockDim.x * gridDim.x) {
                    acc += a[j] * b[j];
                }
                atomicAdd(&out[0], acc);
            }",
        );
        let n = 4096usize;
        let mut a = vec![1.0f32; n];
        let mut b = vec![2.0f32; n];
        let mut out = vec![0.0f32];
        launch(
            &k,
            4,
            64,
            &mut [
                KernelArg::F32(&mut a),
                KernelArg::F32(&mut b),
                KernelArg::F32(&mut out),
                KernelArg::Int(n as i32),
            ],
        )
        .unwrap();
        assert!((out[0] - 2.0 * n as f32).abs() < 1e-2, "got {}", out[0]);
    }

    #[test]
    fn int_buffers_work() {
        let k = kernel(
            "__global__ void iota(int* y, int n) {
                int i = blockIdx.x * blockDim.x + threadIdx.x;
                if (i < n) { y[i] = i * 3; }
            }",
        );
        let mut y = vec![0i32; 100];
        launch(
            &k,
            1,
            128,
            &mut [KernelArg::I32(&mut y), KernelArg::Int(100)],
        )
        .unwrap();
        assert_eq!(y[10], 30);
        assert_eq!(y[99], 297);
    }

    #[test]
    fn out_of_bounds_is_reported() {
        let k = kernel("__global__ void f(float* y) { y[threadIdx.x] = 1.0; }");
        let mut y = vec![0.0f32; 4];
        let err = launch(&k, 1, 8, &mut [KernelArg::F32(&mut y)]).unwrap_err();
        assert!(matches!(err, LaunchError::OutOfBounds { len: 4, .. }));
    }

    #[test]
    fn negative_index_is_out_of_bounds() {
        let k = kernel("__global__ void f(float* y) { y[0 - 1] = 1.0; }");
        let mut y = vec![0.0f32; 4];
        let err = launch(&k, 1, 1, &mut [KernelArg::F32(&mut y)]).unwrap_err();
        assert!(matches!(err, LaunchError::OutOfBounds { index: -1, .. }));
    }

    #[test]
    fn arity_and_type_checked() {
        let k = kernel(SAXPY);
        let mut y = vec![0.0f32; 1];
        assert!(matches!(
            launch(&k, 1, 1, &mut [KernelArg::F32(&mut y)]),
            Err(LaunchError::Arity {
                expected: 4,
                got: 1
            })
        ));
        let mut y = vec![0.0f32; 1];
        let mut x = vec![0i32; 1];
        let err = launch(
            &k,
            1,
            1,
            &mut [
                KernelArg::F32(&mut y),
                KernelArg::I32(&mut x),
                KernelArg::Float(1.0),
                KernelArg::Int(1),
            ],
        )
        .unwrap_err();
        assert!(matches!(err, LaunchError::ArgType { index: 1, .. }));
    }

    #[test]
    fn divide_by_zero_is_reported() {
        let k = kernel("__global__ void f(int* y, int d) { y[0] = 1 / d; }");
        let mut y = vec![0i32; 1];
        let err = launch(&k, 1, 1, &mut [KernelArg::I32(&mut y), KernelArg::Int(0)]).unwrap_err();
        assert_eq!(err, LaunchError::DivideByZero);
    }

    #[test]
    fn step_budget_stops_infinite_loops() {
        let k = kernel("__global__ void f(int* y) { while (1) { y[0] = 1; } }");
        let mut y = vec![0i32; 1];
        let err = launch_with_budget(&k, 1, 1, &mut [KernelArg::I32(&mut y)], 10_000).unwrap_err();
        assert_eq!(err, LaunchError::StepBudgetExceeded);
    }

    #[test]
    fn empty_launch_rejected() {
        let k = kernel("__global__ void f(int n) { return; }");
        assert_eq!(
            launch(&k, 0, 32, &mut [KernelArg::Int(1)]).unwrap_err(),
            LaunchError::EmptyLaunch
        );
    }

    #[test]
    fn early_return_skips_rest() {
        let k = kernel(
            "__global__ void f(float* y, int n) {
                int i = threadIdx.x;
                if (i >= n) { return; }
                y[i] = 7.0;
            }",
        );
        let mut y = vec![0.0f32; 4];
        launch(&k, 1, 32, &mut [KernelArg::F32(&mut y), KernelArg::Int(4)]).unwrap();
        assert_eq!(y, vec![7.0; 4]);
    }

    /// The chunk count `launch` would settle on with `cores` cores. Runs
    /// thread 0 for the estimate, as `launch` does.
    fn chunks_on(
        k: &Program,
        grid: (u32, u32),
        block: (u32, u32),
        args: &mut [KernelArg<'_>],
        cores: u64,
    ) -> u64 {
        let (launch, mut regs) = k.bind(grid, block, args, DEFAULT_STEP_BUDGET).unwrap();
        let steps = launch.thread(&mut regs, &mut Untraced).unwrap();
        let threads = launch.blocks() * block.0 as u64 * block.1 as u64;
        chunk_count(steps, threads, launch.blocks(), || cores)
    }

    #[test]
    fn two_d_grid_covers_a_matrix() {
        let k = kernel(
            "__global__ void fill2d(float* m, int rows, int cols) {
                int r = blockIdx.y * blockDim.y + threadIdx.y;
                int c = blockIdx.x * blockDim.x + threadIdx.x;
                if (r < rows && c < cols) {
                    m[r * cols + c] = (float)(r * 1000 + c);
                }
            }",
        );
        // One matrix on each side of the inline/fan-out boundary.
        for (rows, cols, fans_out) in [(37usize, 53usize, false), (611, 523, true)] {
            let grid = (cols.div_ceil(8) as u32, rows.div_ceil(8) as u32);
            let mut m = vec![-1.0f32; rows * cols];
            let mut args = [
                KernelArg::F32(&mut m),
                KernelArg::Int(rows as i32),
                KernelArg::Int(cols as i32),
            ];
            assert_eq!(chunks_on(&k, grid, (8, 8), &mut args, 4) > 1, fans_out);
            let stats = launch2d(&k, grid, (8, 8), &mut args).unwrap();
            assert_eq!(
                stats.threads as usize,
                cols.div_ceil(8) * rows.div_ceil(8) * 64
            );
            for r in 0..rows {
                for c in 0..cols {
                    assert_eq!(m[r * cols + c], (r * 1000 + c) as f32, "({r},{c})");
                }
            }
        }
    }

    #[test]
    fn fan_out_follows_the_work_not_the_grid() {
        // Below two grains of estimated work, or with a single block, the
        // launch stays inline and the core count is never even asked for.
        let never = || -> u64 { panic!("cores consulted for an inline launch") };
        assert_eq!(chunk_count(10, 256, 2, never), 1);
        assert_eq!(chunk_count(2 * FAN_OUT_GRAIN - 1, 1, 64, never), 1);
        assert_eq!(chunk_count(u64::MAX, u64::MAX, 1, never), 1);
        // Above it: min(cores, blocks, work / grain).
        assert_eq!(chunk_count(2 * FAN_OUT_GRAIN, 1, 64, || 8), 2);
        assert_eq!(chunk_count(5 * FAN_OUT_GRAIN, 1, 64, || 8), 5);
        assert_eq!(chunk_count(FAN_OUT_GRAIN, 1000, 64, || 8), 8);
        assert_eq!(chunk_count(FAN_OUT_GRAIN, 1000, 3, || 8), 3);
        assert_eq!(chunk_count(FAN_OUT_GRAIN, 1000, 64, || 1), 1);

        // The benchmark's small CEs: 256 elements as 2x128.
        let scale = kernel(
            "__global__ void scale(float* y, float a, int n) {
                int i = blockIdx.x * blockDim.x + threadIdx.x;
                if (i < n) { y[i] = a * y[i]; }
            }",
        );
        let mut y = vec![1.0f32; 256];
        let mut args = [
            KernelArg::F32(&mut y),
            KernelArg::Float(2.0),
            KernelArg::Int(256),
        ];
        assert_eq!(chunks_on(&scale, (2, 1), (128, 1), &mut args, 64), 1);
        let saxpy = kernel(SAXPY);
        let mut x = vec![1.0f32; 256];
        let mut args = [
            KernelArg::F32(&mut y),
            KernelArg::F32(&mut x),
            KernelArg::Float(2.0),
            KernelArg::Int(256),
        ];
        assert_eq!(chunks_on(&saxpy, (2, 1), (128, 1), &mut args, 64), 1);

        // 512x512 matrix-vector as 2x256: two blocks of real work.
        let mv = kernel(grout_workloads::MV_KERNEL);
        let (mut yv, mut a, mut xv) = (
            vec![0.0f32; 512],
            vec![1.0f32; 512 * 512],
            vec![1.0f32; 512],
        );
        let mut args = [
            KernelArg::F32(&mut yv),
            KernelArg::F32(&mut a),
            KernelArg::F32(&mut xv),
            KernelArg::Int(512),
            KernelArg::Int(512),
        ];
        for (cores, want) in [(1, 1), (2, 2), (16, 2)] {
            assert_eq!(chunks_on(&mv, (2, 1), (256, 1), &mut args, cores), want);
        }
        assert_eq!(chunks_on(&mv, (1, 1), (512, 1), &mut args, 16), 1);

        // Black-Scholes over 1024x256: every core.
        let bs = kernel(grout_workloads::BLACK_SCHOLES_KERNEL);
        let n = 1024 * 256;
        let (mut spot, mut call, mut put) = (vec![100.0f32; n], vec![0.0f32; n], vec![0.0f32; n]);
        let mut args = [
            KernelArg::F32(&mut spot),
            KernelArg::F32(&mut call),
            KernelArg::F32(&mut put),
            KernelArg::Float(100.0),
            KernelArg::Float(0.05),
            KernelArg::Float(0.2),
            KernelArg::Float(1.0),
            KernelArg::Int(n as i32),
        ];
        for cores in [1, 2, 8, 64] {
            assert_eq!(chunks_on(&bs, (1024, 1), (256, 1), &mut args, cores), cores);
        }
    }

    #[test]
    fn instructions_stay_eight_bytes() {
        assert_eq!(std::mem::size_of::<Inst>(), 8);
    }

    #[test]
    fn one_d_launch_sees_unit_y_dims() {
        let k = kernel(
            "__global__ void f(int* y) {
                y[0] = blockDim.y;
                y[1] = gridDim.y;
                y[2] = threadIdx.y;
            }",
        );
        let mut y = vec![-1i32; 3];
        launch(&k, 1, 1, &mut [KernelArg::I32(&mut y)]).unwrap();
        assert_eq!(y, vec![1, 1, 0]);
    }

    #[test]
    fn empty_2d_dims_rejected() {
        let k = kernel("__global__ void f(int n) { return; }");
        assert_eq!(
            launch2d(&k, (1, 0), (1, 1), &mut [KernelArg::Int(0)]).unwrap_err(),
            LaunchError::EmptyLaunch
        );
    }

    #[test]
    fn black_scholes_body_matches_reference() {
        let k = kernel(
            "__global__ void bs(const float* s, float* call, int n) {
                int i = blockIdx.x * blockDim.x + threadIdx.x;
                if (i < n) {
                    float K = 100.0;
                    float r = 0.05;
                    float sigma = 0.2;
                    float t = 1.0;
                    float d1 = (logf(s[i] / K) + (r + sigma * sigma / 2.0) * t)
                               / (sigma * sqrtf(t));
                    float d2 = d1 - sigma * sqrtf(t);
                    call[i] = s[i] * normcdff(d1) - K * expf(0.0 - r * t) * normcdff(d2);
                }
            }",
        );
        let mut s = vec![100.0f32, 120.0, 80.0];
        let mut call = vec![0.0f32; 3];
        launch(
            &k,
            1,
            32,
            &mut [
                KernelArg::F32(&mut s),
                KernelArg::F32(&mut call),
                KernelArg::Int(3),
            ],
        )
        .unwrap();
        // Known Black-Scholes values: S=100,K=100,r=5%,sigma=20%,t=1 -> ~10.45.
        assert!((call[0] - 10.45).abs() < 0.05, "ATM call {}", call[0]);
        assert!(call[1] > call[0] && call[2] < call[0]);
    }
}
