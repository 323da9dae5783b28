//! The tree-walking executor the bytecode VM replaced, kept as the test
//! oracle: it evaluates the typeck IR directly, one simulated thread after
//! another in flat `(block, thread)` order, so its buffers and its first
//! error are what [`crate::interp`] must reproduce bit for bit.

use std::sync::atomic::{AtomicI32, AtomicU32, Ordering};

use crate::ast::{BinOp, BuiltinVar, Elem, ParamType, UnOp};
use crate::interp::{AccessLog, KernelArg, LaunchError};
use crate::typeck::{CheckedKernel, RExpr, RStmt};

#[derive(Clone, Copy)]
enum Val {
    I(i32),
    F(f32),
}

impl Val {
    #[inline]
    fn as_i(self) -> i32 {
        match self {
            Val::I(v) => v,
            Val::F(v) => v as i32,
        }
    }
    #[inline]
    fn as_f(self) -> f32 {
        match self {
            Val::I(v) => v as f32,
            Val::F(v) => v,
        }
    }
}

#[derive(Clone, Copy)]
enum Slot {
    F32Buf { ptr: *const AtomicU32, len: usize },
    I32Buf { ptr: *const AtomicI32, len: usize },
    Float(f32),
    Int(i32),
}

struct Machine {
    slots: Vec<Slot>,
    grid: (u32, u32),
    block: (u32, u32),
    step_budget: u64,
}

struct Thread<'m> {
    m: &'m Machine,
    locals: Vec<Val>,
    tid: (u32, u32),
    bid: (u32, u32),
    steps: u64,
    log: AccessLog,
}

enum Flow {
    Next,
    Return,
}

impl Thread<'_> {
    #[inline]
    fn charge(&mut self) -> Result<(), LaunchError> {
        self.steps += 1;
        if self.steps > self.m.step_budget {
            return Err(LaunchError::StepBudgetExceeded);
        }
        Ok(())
    }

    fn index(&self, param: u16, idx: i32) -> Result<usize, LaunchError> {
        let len = match self.m.slots[param as usize] {
            Slot::F32Buf { len, .. } | Slot::I32Buf { len, .. } => len,
            _ => unreachable!("typeck guarantees pointer params"),
        };
        if idx < 0 || idx as usize >= len {
            return Err(LaunchError::OutOfBounds {
                param: param as usize,
                index: idx as i64,
                len,
            });
        }
        Ok(idx as usize)
    }

    fn eval(&mut self, e: &RExpr) -> Result<Val, LaunchError> {
        Ok(match e {
            RExpr::IntLit(v) => Val::I(*v),
            RExpr::FloatLit(v) => Val::F(*v),
            RExpr::Local(slot, _) => self.locals[*slot as usize],
            RExpr::ParamScalar(p, _) => match self.m.slots[*p as usize] {
                Slot::Float(v) => Val::F(v),
                Slot::Int(v) => Val::I(v),
                _ => unreachable!("typeck guarantees scalar params"),
            },
            RExpr::Builtin(b) => Val::I(match b {
                BuiltinVar::ThreadIdxX => self.tid.0 as i32,
                BuiltinVar::BlockIdxX => self.bid.0 as i32,
                BuiltinVar::BlockDimX => self.m.block.0 as i32,
                BuiltinVar::GridDimX => self.m.grid.0 as i32,
                BuiltinVar::ThreadIdxY => self.tid.1 as i32,
                BuiltinVar::BlockIdxY => self.bid.1 as i32,
                BuiltinVar::BlockDimY => self.m.block.1 as i32,
                BuiltinVar::GridDimY => self.m.grid.1 as i32,
            }),
            RExpr::Load { param, index, .. } => {
                let idx = self.eval(index)?.as_i();
                let at = self.index(*param, idx)?;
                self.log.push((*param as usize, at, false, false));
                match self.m.slots[*param as usize] {
                    Slot::F32Buf { ptr, .. } => {
                        // SAFETY: `at` is bounds-checked above.
                        let a = unsafe { &*ptr.add(at) };
                        Val::F(f32::from_bits(a.load(Ordering::Relaxed)))
                    }
                    Slot::I32Buf { ptr, .. } => {
                        let a = unsafe { &*ptr.add(at) };
                        Val::I(a.load(Ordering::Relaxed))
                    }
                    _ => unreachable!(),
                }
            }
            RExpr::Unary { op, elem, expr } => {
                let v = self.eval(expr)?;
                match (op, elem) {
                    (UnOp::Neg, Elem::Int) => Val::I(v.as_i().wrapping_neg()),
                    (UnOp::Neg, Elem::Float) => Val::F(-v.as_f()),
                    (UnOp::Not, _) => Val::I((v.as_i() == 0) as i32),
                }
            }
            RExpr::Binary { op, elem, lhs, rhs } => {
                // Short-circuit logic first.
                if *op == BinOp::And {
                    let l = self.eval(lhs)?.as_i();
                    return Ok(Val::I(if l != 0 {
                        (self.eval(rhs)?.as_i() != 0) as i32
                    } else {
                        0
                    }));
                }
                if *op == BinOp::Or {
                    let l = self.eval(lhs)?.as_i();
                    return Ok(Val::I(if l == 0 {
                        (self.eval(rhs)?.as_i() != 0) as i32
                    } else {
                        1
                    }));
                }
                let l = self.eval(lhs)?;
                let r = self.eval(rhs)?;
                match elem {
                    Elem::Int => {
                        let (a, b) = (l.as_i(), r.as_i());
                        match op {
                            BinOp::Add => Val::I(a.wrapping_add(b)),
                            BinOp::Sub => Val::I(a.wrapping_sub(b)),
                            BinOp::Mul => Val::I(a.wrapping_mul(b)),
                            BinOp::Div => {
                                if b == 0 {
                                    return Err(LaunchError::DivideByZero);
                                }
                                Val::I(a.wrapping_div(b))
                            }
                            BinOp::Rem => {
                                if b == 0 {
                                    return Err(LaunchError::DivideByZero);
                                }
                                Val::I(a.wrapping_rem(b))
                            }
                            BinOp::Eq => Val::I((a == b) as i32),
                            BinOp::Ne => Val::I((a != b) as i32),
                            BinOp::Lt => Val::I((a < b) as i32),
                            BinOp::Gt => Val::I((a > b) as i32),
                            BinOp::Le => Val::I((a <= b) as i32),
                            BinOp::Ge => Val::I((a >= b) as i32),
                            BinOp::And | BinOp::Or => unreachable!("handled above"),
                        }
                    }
                    Elem::Float => {
                        let (a, b) = (l.as_f(), r.as_f());
                        match op {
                            BinOp::Add => Val::F(a + b),
                            BinOp::Sub => Val::F(a - b),
                            BinOp::Mul => Val::F(a * b),
                            BinOp::Div => Val::F(a / b),
                            BinOp::Eq => Val::I((a == b) as i32),
                            BinOp::Ne => Val::I((a != b) as i32),
                            BinOp::Lt => Val::I((a < b) as i32),
                            BinOp::Gt => Val::I((a > b) as i32),
                            BinOp::Le => Val::I((a <= b) as i32),
                            BinOp::Ge => Val::I((a >= b) as i32),
                            BinOp::Rem | BinOp::And | BinOp::Or => {
                                unreachable!("rejected by typeck")
                            }
                        }
                    }
                }
            }
            RExpr::Call { func, args } => {
                let mut vals = [0.0f32; 2];
                for (i, a) in args.iter().enumerate() {
                    vals[i] = self.eval(a)?.as_f();
                }
                Val::F(func.eval(&vals[..args.len()]))
            }
            RExpr::Ternary {
                cond,
                elem,
                then,
                els,
                ..
            } => {
                let c = self.eval(cond)?.as_i();
                let v = if c != 0 {
                    self.eval(then)?
                } else {
                    self.eval(els)?
                };
                match elem {
                    Elem::Int => Val::I(v.as_i()),
                    Elem::Float => Val::F(v.as_f()),
                }
            }
            RExpr::Cast { to, expr } => {
                let v = self.eval(expr)?;
                match to {
                    Elem::Int => Val::I(v.as_i()),
                    Elem::Float => Val::F(v.as_f()),
                }
            }
        })
    }

    fn store(&mut self, param: u16, index: &RExpr, value: Val) -> Result<(), LaunchError> {
        let idx = self.eval(index)?.as_i();
        let at = self.index(param, idx)?;
        self.log.push((param as usize, at, true, false));
        match self.m.slots[param as usize] {
            Slot::F32Buf { ptr, .. } => {
                // SAFETY: bounds-checked above.
                let a = unsafe { &*ptr.add(at) };
                a.store(value.as_f().to_bits(), Ordering::Relaxed);
            }
            Slot::I32Buf { ptr, .. } => {
                let a = unsafe { &*ptr.add(at) };
                a.store(value.as_i(), Ordering::Relaxed);
            }
            _ => unreachable!(),
        }
        Ok(())
    }

    fn exec_block(&mut self, stmts: &[RStmt]) -> Result<Flow, LaunchError> {
        for s in stmts {
            if let Flow::Return = self.exec(s)? {
                return Ok(Flow::Return);
            }
        }
        Ok(Flow::Next)
    }

    fn exec(&mut self, s: &RStmt) -> Result<Flow, LaunchError> {
        self.charge()?;
        match s {
            RStmt::SetLocal { slot, value } => {
                let v = self.eval(value)?;
                self.locals[*slot as usize] = v;
                Ok(Flow::Next)
            }
            RStmt::Store {
                param,
                index,
                value,
            } => {
                let v = self.eval(value)?;
                self.store(*param, index, v)?;
                Ok(Flow::Next)
            }
            RStmt::AtomicAdd {
                param,
                index,
                value,
            } => {
                let v = self.eval(value)?;
                let idx = self.eval(index)?.as_i();
                let at = self.index(*param, idx)?;
                self.log.push((*param as usize, at, true, true));
                match self.m.slots[*param as usize] {
                    Slot::F32Buf { ptr, .. } => {
                        // SAFETY: bounds-checked above.
                        let a = unsafe { &*ptr.add(at) };
                        let add = v.as_f();
                        let mut cur = a.load(Ordering::Relaxed);
                        loop {
                            let next = (f32::from_bits(cur) + add).to_bits();
                            match a.compare_exchange_weak(
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
                    Slot::I32Buf { ptr, .. } => {
                        let a = unsafe { &*ptr.add(at) };
                        a.fetch_add(v.as_i(), Ordering::Relaxed);
                    }
                    _ => unreachable!(),
                }
                Ok(Flow::Next)
            }
            RStmt::If { cond, then, els } => {
                if self.eval(cond)?.as_i() != 0 {
                    self.exec_block(then)
                } else {
                    self.exec_block(els)
                }
            }
            RStmt::For {
                init,
                cond,
                step,
                body,
            } => {
                if let Flow::Return = self.exec(init)? {
                    return Ok(Flow::Return);
                }
                while self.eval(cond)?.as_i() != 0 {
                    self.charge()?;
                    if let Flow::Return = self.exec_block(body)? {
                        return Ok(Flow::Return);
                    }
                    if let Flow::Return = self.exec(step)? {
                        return Ok(Flow::Return);
                    }
                }
                Ok(Flow::Next)
            }
            RStmt::While { cond, body } => {
                while self.eval(cond)?.as_i() != 0 {
                    self.charge()?;
                    if let Flow::Return = self.exec_block(body)? {
                        return Ok(Flow::Return);
                    }
                }
                Ok(Flow::Next)
            }
            RStmt::Return => Ok(Flow::Return),
        }
    }
}

fn build_slots(
    kernel: &CheckedKernel,
    args: &mut [KernelArg<'_>],
) -> Result<Vec<Slot>, LaunchError> {
    if args.len() != kernel.params.len() {
        return Err(LaunchError::Arity {
            expected: kernel.params.len(),
            got: args.len(),
        });
    }
    let mut slots = Vec::with_capacity(args.len());
    for (i, (arg, param)) in args.iter_mut().zip(&kernel.params).enumerate() {
        let slot = match (&param.ty, arg) {
            (
                ParamType::Ptr {
                    elem: Elem::Float, ..
                },
                KernelArg::F32(buf),
            ) => Slot::F32Buf {
                ptr: buf.as_mut_ptr().cast::<AtomicU32>(),
                len: buf.len(),
            },
            (
                ParamType::Ptr {
                    elem: Elem::Int, ..
                },
                KernelArg::I32(buf),
            ) => Slot::I32Buf {
                ptr: buf.as_mut_ptr().cast::<AtomicI32>(),
                len: buf.len(),
            },
            (ParamType::Scalar(Elem::Float), KernelArg::Float(v)) => Slot::Float(*v),
            // C-style convenience: an int scalar is accepted for a float
            // parameter.
            (ParamType::Scalar(Elem::Float), KernelArg::Int(v)) => Slot::Float(*v as f32),
            (ParamType::Scalar(Elem::Int), KernelArg::Int(v)) => Slot::Int(*v),
            (expected, _) => {
                return Err(LaunchError::ArgType {
                    index: i,
                    expected: format!("{expected:?}"),
                })
            }
        };
        slots.push(slot);
    }
    Ok(slots)
}

/// Runs every thread of the launch sequentially and returns the
/// concatenated access log, or the error of the lowest flat thread id.
pub(crate) fn launch(
    kernel: &CheckedKernel,
    grid: (u32, u32),
    block: (u32, u32),
    args: &mut [KernelArg<'_>],
    step_budget: u64,
) -> Result<AccessLog, LaunchError> {
    if grid.0 == 0 || grid.1 == 0 || block.0 == 0 || block.1 == 0 {
        return Err(LaunchError::EmptyLaunch);
    }
    let slots = build_slots(kernel, args)?;
    let machine = Machine {
        slots,
        grid,
        block,
        step_budget,
    };
    let mut log = AccessLog::new();
    for by in 0..grid.1 {
        for bx in 0..grid.0 {
            for ty in 0..block.1 {
                for tx in 0..block.0 {
                    let mut t = Thread {
                        m: &machine,
                        locals: vec![Val::I(0); kernel.local_slots as usize],
                        tid: (tx, ty),
                        bid: (bx, by),
                        steps: 0,
                        log: std::mem::take(&mut log),
                    };
                    t.exec_block(&kernel.body)?;
                    log = t.log;
                }
            }
        }
    }
    Ok(log)
}
