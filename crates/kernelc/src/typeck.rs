//! Type checking and lowering to a slot-resolved IR.
//!
//! The back end executes millions of simulated threads, so name lookups
//! are resolved once here: locals become dense slot indices, parameters
//! become positional references, and implicit C-style int->float promotions
//! are made explicit.

use std::collections::HashMap;
use std::fmt;

use crate::ast::{self, AssignOp, BinOp, BuiltinVar, Elem, Kernel, ParamType, UnOp};

/// Type/semantic error.
#[derive(Debug, Clone, PartialEq)]
pub struct TypeError(pub String);

impl fmt::Display for TypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "type error: {}", self.0)
    }
}

impl std::error::Error for TypeError {}

/// Float intrinsics available to kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Intrinsic {
    /// `expf(x)` — natural exponential.
    Expf,
    /// `logf(x)` — natural logarithm.
    Logf,
    /// `sqrtf(x)` — square root.
    Sqrtf,
    /// `fabsf(x)` — absolute value.
    Fabsf,
    /// `erff(x)` — error function.
    Erff,
    /// `powf(x, y)` — power.
    Powf,
    /// `fminf(x, y)` — minimum.
    Fminf,
    /// `fmaxf(x, y)` — maximum.
    Fmaxf,
    /// `sinf(x)` — sine.
    Sinf,
    /// `cosf(x)` — cosine.
    Cosf,
    /// `tanhf(x)` — hyperbolic tangent.
    Tanhf,
    /// Standard normal CDF (used by Black-Scholes); provided as an
    /// intrinsic the way CUDA provides `normcdff`.
    Normcdff,
}

impl Intrinsic {
    fn lookup(name: &str) -> Option<(Intrinsic, usize)> {
        Some(match name {
            "expf" | "exp" => (Intrinsic::Expf, 1),
            "logf" | "log" => (Intrinsic::Logf, 1),
            "sqrtf" | "sqrt" => (Intrinsic::Sqrtf, 1),
            "fabsf" | "fabs" | "abs" => (Intrinsic::Fabsf, 1),
            "erff" | "erf" => (Intrinsic::Erff, 1),
            "powf" | "pow" => (Intrinsic::Powf, 2),
            "fminf" | "fmin" | "min" => (Intrinsic::Fminf, 2),
            "fmaxf" | "fmax" | "max" => (Intrinsic::Fmaxf, 2),
            "sinf" | "sin" => (Intrinsic::Sinf, 1),
            "cosf" | "cos" => (Intrinsic::Cosf, 1),
            "tanhf" | "tanh" => (Intrinsic::Tanhf, 1),
            "normcdff" | "normcdf" => (Intrinsic::Normcdff, 1),
            _ => return None,
        })
    }

    /// Evaluates the intrinsic.
    pub fn eval(self, args: &[f32]) -> f32 {
        match self {
            Intrinsic::Expf => args[0].exp(),
            Intrinsic::Logf => args[0].ln(),
            Intrinsic::Sqrtf => args[0].sqrt(),
            Intrinsic::Fabsf => args[0].abs(),
            Intrinsic::Erff => erf(args[0]),
            Intrinsic::Powf => args[0].powf(args[1]),
            Intrinsic::Fminf => args[0].min(args[1]),
            Intrinsic::Fmaxf => args[0].max(args[1]),
            Intrinsic::Sinf => args[0].sin(),
            Intrinsic::Cosf => args[0].cos(),
            Intrinsic::Tanhf => args[0].tanh(),
            Intrinsic::Normcdff => 0.5 * (1.0 + erf(args[0] / std::f32::consts::SQRT_2)),
        }
    }
}

/// Error function (Abramowitz & Stegun 7.1.26, |err| <= 1.5e-7) — `std` has
/// no `erf`, CUDA does.
#[allow(clippy::excessive_precision)] // published coefficients, kept verbatim
pub fn erf(x: f32) -> f32 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let y = 1.0
        - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t - 0.284496736) * t
            + 0.254829592)
            * t
            * (-x * x).exp();
    sign * y
}

/// Lowered expressions. Every node knows its element type.
#[derive(Debug, Clone, PartialEq)]
pub enum RExpr {
    /// Integer constant.
    IntLit(i32),
    /// Float constant.
    FloatLit(f32),
    /// Local slot read.
    Local(u16, Elem),
    /// Scalar parameter read.
    ParamScalar(u16, Elem),
    /// Grid builtin.
    Builtin(BuiltinVar),
    /// Buffer load `params[param][index]`.
    Load {
        /// Parameter position.
        param: u16,
        /// Element type of the buffer.
        elem: Elem,
        /// Index expression (int).
        index: Box<RExpr>,
    },
    /// Unary op.
    Unary {
        /// Operator.
        op: UnOp,
        /// Result type.
        elem: Elem,
        /// Operand.
        expr: Box<RExpr>,
    },
    /// Binary op (operands pre-promoted to `elem`).
    Binary {
        /// Operator.
        op: BinOp,
        /// Operand/result element type (comparisons yield Int).
        elem: Elem,
        /// Left operand.
        lhs: Box<RExpr>,
        /// Right operand.
        rhs: Box<RExpr>,
    },
    /// Intrinsic call (float args, float result).
    Call {
        /// Which intrinsic.
        func: Intrinsic,
        /// Arguments.
        args: Vec<RExpr>,
    },
    /// Conditional expression.
    Ternary {
        /// Condition (int).
        cond: Box<RExpr>,
        /// Result type.
        elem: Elem,
        /// Then value.
        then: Box<RExpr>,
        /// Else value.
        els: Box<RExpr>,
    },
    /// Explicit conversion.
    Cast {
        /// Target type.
        to: Elem,
        /// Operand.
        expr: Box<RExpr>,
    },
}

impl RExpr {
    /// The expression's element type.
    pub fn elem(&self) -> Elem {
        match self {
            RExpr::IntLit(_) | RExpr::Builtin(_) => Elem::Int,
            RExpr::FloatLit(_) => Elem::Float,
            RExpr::Local(_, e) | RExpr::ParamScalar(_, e) => *e,
            RExpr::Load { elem, .. } => *elem,
            RExpr::Unary { elem, .. } => *elem,
            RExpr::Binary { op, elem, .. } => {
                if op.is_comparison() {
                    Elem::Int
                } else {
                    *elem
                }
            }
            RExpr::Call { .. } => Elem::Float,
            RExpr::Ternary { elem, .. } => *elem,
            RExpr::Cast { to, .. } => *to,
        }
    }
}

/// Lowered statements.
#[derive(Debug, Clone, PartialEq)]
pub enum RStmt {
    /// Write a local slot.
    SetLocal {
        /// Slot.
        slot: u16,
        /// Value (type matches slot).
        value: RExpr,
    },
    /// Store to a buffer.
    Store {
        /// Parameter position.
        param: u16,
        /// Element index (int).
        index: RExpr,
        /// Stored value.
        value: RExpr,
    },
    /// Atomic float/int add into a buffer.
    AtomicAdd {
        /// Parameter position.
        param: u16,
        /// Element index.
        index: RExpr,
        /// Addend.
        value: RExpr,
    },
    /// Conditional.
    If {
        /// Condition (int).
        cond: RExpr,
        /// Then body.
        then: Vec<RStmt>,
        /// Else body.
        els: Vec<RStmt>,
    },
    /// Loop with explicit init/step statements.
    For {
        /// Init.
        init: Box<RStmt>,
        /// Condition.
        cond: RExpr,
        /// Step.
        step: Box<RStmt>,
        /// Body.
        body: Vec<RStmt>,
    },
    /// While loop.
    While {
        /// Condition.
        cond: RExpr,
        /// Body.
        body: Vec<RStmt>,
    },
    /// Early thread exit.
    Return,
}

/// A type-checked, slot-resolved kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckedKernel {
    /// Kernel name.
    pub name: String,
    /// Parameter list (as declared).
    pub params: Vec<ast::Param>,
    /// Number of local slots a thread needs.
    pub local_slots: u16,
    /// Element type of each local slot.
    pub local_types: Vec<Elem>,
    /// Lowered body.
    pub body: Vec<RStmt>,
    /// Per-parameter: kernel reads through the pointer.
    pub reads: Vec<bool>,
    /// Per-parameter: kernel writes through the pointer.
    pub writes: Vec<bool>,
}

struct Ctx<'k> {
    kernel: &'k Kernel,
    scopes: Vec<HashMap<String, u16>>,
    local_types: Vec<Elem>,
    reads: Vec<bool>,
    writes: Vec<bool>,
}

impl<'k> Ctx<'k> {
    fn lookup_local(&self, name: &str) -> Option<u16> {
        self.scopes.iter().rev().find_map(|s| s.get(name).copied())
    }

    fn declare(&mut self, name: &str, ty: Elem) -> Result<u16, TypeError> {
        let scope = self.scopes.last_mut().expect("scope stack never empty");
        if scope.contains_key(name) {
            return Err(TypeError(format!("`{name}` redeclared in the same scope")));
        }
        let slot = self.local_types.len() as u16;
        self.local_types.push(ty);
        scope.insert(name.to_string(), slot);
        Ok(slot)
    }

    fn pointer_param(&mut self, name: &str, writing: bool) -> Result<(u16, Elem), TypeError> {
        let idx = self
            .kernel
            .param_index(name)
            .ok_or_else(|| TypeError(format!("`{name}` is not a parameter")))?;
        match self.kernel.params[idx].ty {
            ParamType::Ptr { elem, is_const } => {
                if writing && is_const {
                    return Err(TypeError(format!(
                        "cannot write through const pointer `{name}`"
                    )));
                }
                if writing {
                    self.writes[idx] = true;
                } else {
                    self.reads[idx] = true;
                }
                Ok((idx as u16, elem))
            }
            ParamType::Scalar(_) => Err(TypeError(format!("`{name}` is a scalar, not a pointer"))),
        }
    }

    fn coerce(expr: RExpr, to: Elem) -> RExpr {
        if expr.elem() == to {
            expr
        } else {
            RExpr::Cast {
                to,
                expr: Box::new(expr),
            }
        }
    }

    fn expr(&mut self, e: &ast::Expr) -> Result<RExpr, TypeError> {
        Ok(match e {
            ast::Expr::IntLit(v) => {
                let v = i32::try_from(*v)
                    .map_err(|_| TypeError(format!("integer literal {v} overflows int")))?;
                RExpr::IntLit(v)
            }
            ast::Expr::FloatLit(v) => RExpr::FloatLit(*v as f32),
            ast::Expr::Builtin(b) => RExpr::Builtin(*b),
            ast::Expr::Var(name) => {
                if let Some(slot) = self.lookup_local(name) {
                    RExpr::Local(slot, self.local_types[slot as usize])
                } else if let Some(idx) = self.kernel.param_index(name) {
                    match self.kernel.params[idx].ty {
                        ParamType::Scalar(elem) => RExpr::ParamScalar(idx as u16, elem),
                        ParamType::Ptr { .. } => {
                            return Err(TypeError(format!(
                                "pointer `{name}` used as a scalar value"
                            )))
                        }
                    }
                } else {
                    return Err(TypeError(format!("unknown variable `{name}`")));
                }
            }
            ast::Expr::Index { base, index } => {
                let (param, elem) = self.pointer_param(base, false)?;
                let index = Self::coerce(self.expr(index)?, Elem::Int);
                RExpr::Load {
                    param,
                    elem,
                    index: Box::new(index),
                }
            }
            ast::Expr::Unary { op, expr } => {
                let inner = self.expr(expr)?;
                let elem = match op {
                    UnOp::Neg => inner.elem(),
                    UnOp::Not => Elem::Int,
                };
                let inner = if *op == UnOp::Not {
                    Self::coerce(inner, Elem::Int)
                } else {
                    inner
                };
                RExpr::Unary {
                    op: *op,
                    elem,
                    expr: Box::new(inner),
                }
            }
            ast::Expr::Binary { op, lhs, rhs } => {
                let l = self.expr(lhs)?;
                let r = self.expr(rhs)?;
                // C-style promotion: float wins.
                let elem = if l.elem() == Elem::Float || r.elem() == Elem::Float {
                    Elem::Float
                } else {
                    Elem::Int
                };
                if *op == BinOp::Rem && elem == Elem::Float {
                    return Err(TypeError("`%` requires integer operands".into()));
                }
                RExpr::Binary {
                    op: *op,
                    elem,
                    lhs: Box::new(Self::coerce(l, elem)),
                    rhs: Box::new(Self::coerce(r, elem)),
                }
            }
            ast::Expr::Call { name, args } => {
                let (func, arity) = Intrinsic::lookup(name)
                    .ok_or_else(|| TypeError(format!("unknown function `{name}`")))?;
                if args.len() != arity {
                    return Err(TypeError(format!(
                        "`{name}` expects {arity} argument(s), got {}",
                        args.len()
                    )));
                }
                let args = args
                    .iter()
                    .map(|a| Ok(Self::coerce(self.expr(a)?, Elem::Float)))
                    .collect::<Result<Vec<_>, TypeError>>()?;
                RExpr::Call { func, args }
            }
            ast::Expr::Ternary { cond, then, els } => {
                let cond = Self::coerce(self.expr(cond)?, Elem::Int);
                let t = self.expr(then)?;
                let f = self.expr(els)?;
                let elem = if t.elem() == Elem::Float || f.elem() == Elem::Float {
                    Elem::Float
                } else {
                    Elem::Int
                };
                RExpr::Ternary {
                    cond: Box::new(cond),
                    elem,
                    then: Box::new(Self::coerce(t, elem)),
                    els: Box::new(Self::coerce(f, elem)),
                }
            }
            ast::Expr::Cast { to, expr } => RExpr::Cast {
                to: *to,
                expr: Box::new(self.expr(expr)?),
            },
        })
    }

    fn stmt(&mut self, s: &ast::Stmt) -> Result<RStmt, TypeError> {
        Ok(match s {
            ast::Stmt::Decl { ty, name, init } => {
                let value = match init {
                    Some(e) => Self::coerce(self.expr(e)?, *ty),
                    None => match ty {
                        Elem::Int => RExpr::IntLit(0),
                        Elem::Float => RExpr::FloatLit(0.0),
                    },
                };
                let slot = self.declare(name, *ty)?;
                RStmt::SetLocal { slot, value }
            }
            ast::Stmt::Assign { target, op, value } => {
                let rhs = self.expr(value)?;
                match target {
                    ast::LValue::Var(name) => {
                        let slot = self.lookup_local(name).ok_or_else(|| {
                            TypeError(format!("assignment to unknown variable `{name}`"))
                        })?;
                        let ty = self.local_types[slot as usize];
                        let value = match op {
                            AssignOp::Set => Self::coerce(rhs, ty),
                            _ => RStmt_compound(RExpr::Local(slot, ty), *op, rhs, ty)?,
                        };
                        RStmt::SetLocal { slot, value }
                    }
                    ast::LValue::Index { base, index } => {
                        let (param, elem) = self.pointer_param(base, true)?;
                        let index_e = Self::coerce(self.expr(index)?, Elem::Int);
                        let value = match op {
                            AssignOp::Set => Self::coerce(rhs, elem),
                            _ => {
                                // Compound store also reads.
                                self.pointer_param(base, false)?;
                                let load = RExpr::Load {
                                    param,
                                    elem,
                                    index: Box::new(index_e.clone()),
                                };
                                RStmt_compound(load, *op, rhs, elem)?
                            }
                        };
                        RStmt::Store {
                            param,
                            index: index_e,
                            value,
                        }
                    }
                }
            }
            ast::Stmt::AtomicAdd { base, index, value } => {
                let (param, elem) = self.pointer_param(base, true)?;
                self.pointer_param(base, false)?; // atomics read too
                let index = Self::coerce(self.expr(index)?, Elem::Int);
                let value = Self::coerce(self.expr(value)?, elem);
                RStmt::AtomicAdd {
                    param,
                    index,
                    value,
                }
            }
            ast::Stmt::If { cond, then, els } => {
                let cond = Self::coerce(self.expr(cond)?, Elem::Int);
                let then = self.block(then)?;
                let els = self.block(els)?;
                RStmt::If { cond, then, els }
            }
            ast::Stmt::For {
                init,
                cond,
                step,
                body,
            } => {
                // The init declaration scopes over cond/step/body.
                self.scopes.push(HashMap::new());
                let init = Box::new(self.stmt(init)?);
                let cond = Self::coerce(self.expr(cond)?, Elem::Int);
                let step = Box::new(self.stmt(step)?);
                let body = self.block(body)?;
                self.scopes.pop();
                RStmt::For {
                    init,
                    cond,
                    step,
                    body,
                }
            }
            ast::Stmt::While { cond, body } => {
                let cond = Self::coerce(self.expr(cond)?, Elem::Int);
                let body = self.block(body)?;
                RStmt::While { cond, body }
            }
            ast::Stmt::Return => RStmt::Return,
        })
    }

    fn block(&mut self, stmts: &[ast::Stmt]) -> Result<Vec<RStmt>, TypeError> {
        self.scopes.push(HashMap::new());
        let out = stmts.iter().map(|s| self.stmt(s)).collect();
        self.scopes.pop();
        out
    }
}

#[allow(non_snake_case)]
fn RStmt_compound(lhs: RExpr, op: AssignOp, rhs: RExpr, ty: Elem) -> Result<RExpr, TypeError> {
    let bin = match op {
        AssignOp::Add => BinOp::Add,
        AssignOp::Sub => BinOp::Sub,
        AssignOp::Mul => BinOp::Mul,
        AssignOp::Div => BinOp::Div,
        AssignOp::Set => unreachable!("Set handled by caller"),
    };
    Ok(RExpr::Binary {
        op: bin,
        elem: ty,
        lhs: Box::new(lhs),
        rhs: Box::new(Ctx::coerce(rhs, ty)),
    })
}

/// Checks and lowers a parsed kernel.
pub fn check(kernel: &Kernel) -> Result<CheckedKernel, TypeError> {
    // Duplicate parameter names would make slot resolution ambiguous.
    for (i, p) in kernel.params.iter().enumerate() {
        if kernel.params[..i].iter().any(|q| q.name == p.name) {
            return Err(TypeError(format!("duplicate parameter `{}`", p.name)));
        }
    }
    let n = kernel.params.len();
    let mut ctx = Ctx {
        kernel,
        scopes: vec![HashMap::new()],
        local_types: Vec::new(),
        reads: vec![false; n],
        writes: vec![false; n],
    };
    let body = kernel
        .body
        .iter()
        .map(|s| ctx.stmt(s))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(CheckedKernel {
        name: kernel.name.clone(),
        params: kernel.params.clone(),
        local_slots: ctx.local_types.len() as u16,
        local_types: ctx.local_types,
        body,
        reads: ctx.reads,
        writes: ctx.writes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn checked(src: &str) -> Result<CheckedKernel, TypeError> {
        check(&parse(src).unwrap()[0])
    }

    #[test]
    fn saxpy_checks_and_tracks_rw() {
        let k = checked(
            "__global__ void saxpy(float* y, const float* x, float a, int n) {
                int i = blockIdx.x * blockDim.x + threadIdx.x;
                if (i < n) { y[i] = a * x[i] + y[i]; }
            }",
        )
        .unwrap();
        assert_eq!(k.local_slots, 1);
        assert_eq!(k.reads, vec![true, true, false, false]);
        assert_eq!(k.writes, vec![true, false, false, false]);
    }

    #[test]
    fn const_write_rejected() {
        let err = checked("__global__ void f(const float* x) { x[0] = 1.0; }").unwrap_err();
        assert!(err.0.contains("const"));
    }

    #[test]
    fn unknown_variable_rejected() {
        assert!(checked("__global__ void f(int n) { q = 1; }").is_err());
    }

    #[test]
    fn unknown_function_rejected() {
        let err = checked("__global__ void f(float* y) { y[0] = frobnicate(1.0); }").unwrap_err();
        assert!(err.0.contains("frobnicate"));
    }

    #[test]
    fn pointer_as_scalar_rejected() {
        assert!(checked("__global__ void f(float* y) { y[0] = y + 1.0; }").is_err());
    }

    #[test]
    fn float_modulo_rejected() {
        assert!(checked("__global__ void f(float* y) { y[0] = 1.0 % 2.0; }").is_err());
    }

    #[test]
    fn int_promotes_to_float() {
        let k = checked("__global__ void f(float* y, int n) { y[0] = n + 0.5; }").unwrap();
        let RStmt::Store { value, .. } = &k.body[0] else {
            panic!()
        };
        assert_eq!(value.elem(), Elem::Float);
    }

    #[test]
    fn scoping_allows_shadow_in_inner_block() {
        let k = checked(
            "__global__ void f(float* y, int n) {
                int i = 0;
                if (n) { float i = 1.0; y[0] = i; }
                y[i] = 2.0;
            }",
        )
        .unwrap();
        assert_eq!(k.local_slots, 2);
    }

    #[test]
    fn redeclaration_in_same_scope_rejected() {
        assert!(checked("__global__ void f(int n) { int a = 0; int a = 1; }").is_err());
    }

    #[test]
    fn duplicate_params_rejected() {
        assert!(checked("__global__ void f(int n, float n) { return; }").is_err());
    }

    #[test]
    fn atomic_add_marks_read_write() {
        let k = checked(
            "__global__ void f(float* out, const float* a) {
                atomicAdd(&out[0], a[threadIdx.x]);
            }",
        )
        .unwrap();
        assert!(k.writes[0] && k.reads[0]);
        assert!(k.reads[1] && !k.writes[1]);
    }

    #[test]
    fn erf_is_accurate() {
        // Reference values from tables.
        assert!((erf(0.0) - 0.0).abs() < 1e-6);
        assert!((erf(1.0) - 0.8427008).abs() < 1e-5);
        assert!((erf(-1.0) + 0.8427008).abs() < 1e-5);
        assert!((erf(2.0) - 0.9953223).abs() < 1e-5);
    }

    #[test]
    fn intrinsics_evaluate() {
        assert!((Intrinsic::Normcdff.eval(&[0.0]) - 0.5).abs() < 1e-6);
        assert_eq!(Intrinsic::Fmaxf.eval(&[1.0, 2.0]), 2.0);
        assert!((Intrinsic::Expf.eval(&[1.0]) - std::f32::consts::E).abs() < 1e-6);
    }
}
