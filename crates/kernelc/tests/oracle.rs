//! Differential testing of the kernel back end: random expression trees —
//! mixed int/float arithmetic with C-style promotion, explicit casts,
//! ternaries — are rendered to kernel source inside a bounded loop,
//! compiled, executed, and compared against a direct Rust evaluation of
//! the same tree.

use kernelc::{compile_one, KernelArg};
use proptest::prelude::*;

/// A tiny expression AST we can both render to the CUDA dialect and
/// evaluate natively. A node is int-typed when all its operands are,
/// float-typed otherwise (the dialect's promotion rule).
#[derive(Debug, Clone)]
enum E {
    /// The thread's global index (int).
    Gid,
    /// The enclosing loop's counter (int).
    Trip,
    /// A float constant (kept small and tame).
    K(f32),
    /// An int constant.
    Ki(i32),
    /// x[gid] of the input buffer (float).
    In,
    Add(Box<E>, Box<E>),
    Sub(Box<E>, Box<E>),
    Mul(Box<E>, Box<E>),
    /// `fminf`/`fmaxf`: always float, int operands are promoted.
    Min(Box<E>, Box<E>),
    Max(Box<E>, Box<E>),
    Neg(Box<E>),
    /// Ternary on a comparison with zero.
    Sel(Box<E>, Box<E>, Box<E>),
    /// `(int)(e)`
    ToInt(Box<E>),
    /// `(float)(e)`
    ToFloat(Box<E>),
}

fn arb_expr() -> impl Strategy<Value = E> {
    let leaf = prop_oneof![
        Just(E::Gid),
        Just(E::Trip),
        (-4.0f32..4.0).prop_map(E::K),
        (-70000i32..70000).prop_map(E::Ki),
        Just(E::In),
    ];
    leaf.prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Add(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Sub(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Mul(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Min(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Max(Box::new(a), Box::new(b))),
            inner.clone().prop_map(|a| E::Neg(Box::new(a))),
            inner.clone().prop_map(|a| E::ToInt(Box::new(a))),
            inner.clone().prop_map(|a| E::ToFloat(Box::new(a))),
            (inner.clone(), inner.clone(), inner)
                .prop_map(|(c, a, b)| { E::Sel(Box::new(c), Box::new(a), Box::new(b)) }),
        ]
    })
}

fn is_int(e: &E) -> bool {
    match e {
        E::Gid | E::Trip | E::Ki(_) | E::ToInt(_) => true,
        E::K(_) | E::In | E::Min(..) | E::Max(..) | E::ToFloat(_) => false,
        E::Add(a, b) | E::Sub(a, b) | E::Mul(a, b) | E::Sel(_, a, b) => is_int(a) && is_int(b),
        E::Neg(a) => is_int(a),
    }
}

fn render(e: &E) -> String {
    match e {
        E::Gid => "i".into(),
        E::Trip => "k".into(),
        E::K(v) => format!("({v:?})"),
        E::Ki(v) => format!("({v})"),
        E::In => "x[i]".into(),
        E::Add(a, b) => format!("({} + {})", render(a), render(b)),
        E::Sub(a, b) => format!("({} - {})", render(a), render(b)),
        E::Mul(a, b) => format!("({} * {})", render(a), render(b)),
        E::Min(a, b) => format!("fminf({}, {})", render(a), render(b)),
        E::Max(a, b) => format!("fmaxf({}, {})", render(a), render(b)),
        E::Neg(a) => format!("(-{})", render(a)),
        E::Sel(c, a, b) => format!("({} > 0 ? {} : {})", render(c), render(a), render(b)),
        E::ToInt(a) => format!("(int)({})", render(a)),
        E::ToFloat(a) => format!("(float)({})", render(a)),
    }
}

#[derive(Debug, Clone, Copy)]
enum V {
    I(i32),
    F(f32),
}

impl V {
    fn f(self) -> f32 {
        match self {
            V::I(v) => v as f32,
            V::F(v) => v,
        }
    }
}

fn arith(a: V, b: V, int: fn(i32, i32) -> i32, float: fn(f32, f32) -> f32) -> V {
    match (a, b) {
        (V::I(a), V::I(b)) => V::I(int(a, b)),
        _ => V::F(float(a.f(), b.f())),
    }
}

fn eval(e: &E, gid: i32, trip: i32, x: f32) -> V {
    let go = |e: &E| eval(e, gid, trip, x);
    match e {
        E::Gid => V::I(gid),
        E::Trip => V::I(trip),
        E::K(v) => V::F(*v),
        E::Ki(v) => V::I(*v),
        E::In => V::F(x),
        E::Add(a, b) => arith(go(a), go(b), i32::wrapping_add, |a, b| a + b),
        E::Sub(a, b) => arith(go(a), go(b), i32::wrapping_sub, |a, b| a - b),
        E::Mul(a, b) => arith(go(a), go(b), i32::wrapping_mul, |a, b| a * b),
        E::Min(a, b) => V::F(go(a).f().min(go(b).f())),
        E::Max(a, b) => V::F(go(a).f().max(go(b).f())),
        E::Neg(a) => match go(a) {
            V::I(v) => V::I(v.wrapping_neg()),
            V::F(v) => V::F(-v),
        },
        E::Sel(c, a, b) => {
            let taken = match go(c) {
                V::I(v) => v > 0,
                V::F(v) => v > 0.0,
            };
            let v = if taken { go(a) } else { go(b) };
            // The untaken arm still decides the result type.
            if is_int(e) {
                v
            } else {
                V::F(v.f())
            }
        }
        E::ToInt(a) => match go(a) {
            V::I(v) => V::I(v),
            V::F(v) => V::I(v as i32),
        },
        E::ToFloat(a) => V::F(go(a).f()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn interpreter_matches_native_evaluation(e in arb_expr(), trips in 0i32..5) {
        let n = 97usize; // odd on purpose: exercises the bounds guard
        let src = format!(
            "__global__ void f(float* y, const float* x, int n, int trips) {{
                int i = blockIdx.x * blockDim.x + threadIdx.x;
                if (i < n) {{
                    float acc = 1.0;
                    for (int k = 0; k < trips; k++) {{ acc = acc * 0.5 + {}; }}
                    y[i] = acc;
                }}
            }}",
            render(&e)
        );
        let kernel = compile_one(&src, "f").expect("generated source must compile");
        let mut y = vec![0.0f32; n];
        let mut x: Vec<f32> = (0..n).map(|i| (i as f32) * 0.37 - 11.0).collect();
        let x_copy = x.clone();
        kernel
            .launch(
                4,
                32,
                &mut [
                    KernelArg::F32(&mut y),
                    KernelArg::F32(&mut x),
                    KernelArg::Int(n as i32),
                    KernelArg::Int(trips),
                ],
            )
            .expect("launch");
        for (i, &got) in y.iter().enumerate() {
            let mut want = 1.0f32;
            for k in 0..trips {
                want = want * 0.5 + eval(&e, i as i32, k, x_copy[i]).f();
            }
            // Bit-identical modulo NaN: both sides do the same f32 ops.
            prop_assert!(
                (got == want) || (got.is_nan() && want.is_nan()),
                "i={i}: got {got}, want {want}, trips={trips}, expr={}",
                render(&e)
            );
        }
    }
}
