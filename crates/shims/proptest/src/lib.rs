//! Offline stand-in for `proptest`, covering the subset this workspace's
//! property tests use: range/tuple/`Just`/`Vec<Strategy>` strategies,
//! `prop_map`/`prop_flat_map`/`prop_recursive`/`boxed`, `collection::vec`,
//! a small regex-subset string strategy, `prop_oneof!`, and the `proptest!`
//! / `prop_assert*!` macros.
//!
//! Differences from the real crate:
//! - **No shrinking.** A failing case reports its seed and case index; the
//!   run is reproducible (seeds derive from the test path and case number).
//! - Strategies are plain generators (no value trees).
//! - The string strategy implements only character classes and `{m,n}` /
//!   `*` / `+` / `?` repetition — the subset used in this repo's tests.

use std::sync::Arc;

/// Deterministic per-case RNG (SplitMix64). Seeded from the test path and
/// case index so failures reproduce across runs and machines.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Creates the RNG for one test case.
    pub fn for_case(test_path: &str, case: u32) -> Self {
        // FNV-1a over the test path, mixed with the case index.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in test_path.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        TestRng {
            state: h ^ ((case as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)),
        }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, bound)`; `bound` must be non-zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    /// Uniform in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A value generator.
///
/// Unlike real proptest there is no value tree: `new_value` produces the
/// final value directly and failures are not shrunk.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Generates one value.
    fn new_value(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Generates a value, then generates from the strategy `f` builds
    /// out of it.
    fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S: Strategy,
        F: Fn(Self::Value) -> S,
    {
        FlatMap { inner: self, f }
    }

    /// Builds a depth-bounded recursive strategy: `recurse` receives the
    /// strategy for the previous level and returns the next level.
    /// `_desired_size` and `_expected_branch` are accepted for signature
    /// compatibility and ignored (depth alone bounds recursion here).
    fn prop_recursive<R, F>(
        self,
        depth: u32,
        _desired_size: u32,
        _expected_branch: u32,
        recurse: F,
    ) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
        Self::Value: 'static,
        R: Strategy<Value = Self::Value> + 'static,
        F: Fn(BoxedStrategy<Self::Value>) -> R,
    {
        let mut strat = self.boxed();
        for _ in 0..depth {
            strat = recurse(strat.clone()).boxed();
        }
        strat
    }

    /// Type-erases the strategy.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
        Self::Value: 'static,
    {
        BoxedStrategy(Arc::new(self))
    }
}

/// Type-erased, cheaply clonable strategy.
pub struct BoxedStrategy<T>(Arc<dyn ErasedStrategy<T>>);

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> Self {
        BoxedStrategy(Arc::clone(&self.0))
    }
}

trait ErasedStrategy<T> {
    fn erased_new_value(&self, rng: &mut TestRng) -> T;
}

impl<S: Strategy> ErasedStrategy<S::Value> for S {
    fn erased_new_value(&self, rng: &mut TestRng) -> S::Value {
        self.new_value(rng)
    }
}

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn new_value(&self, rng: &mut TestRng) -> T {
        self.0.erased_new_value(rng)
    }
}

/// Strategy yielding a constant (cloned) value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn new_value(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F, O> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;
    fn new_value(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.new_value(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S, F, S2> Strategy for FlatMap<S, F>
where
    S: Strategy,
    S2: Strategy,
    F: Fn(S::Value) -> S2,
{
    type Value = S2::Value;
    fn new_value(&self, rng: &mut TestRng) -> S2::Value {
        (self.f)(self.inner.new_value(rng)).new_value(rng)
    }
}

/// Uniform choice between boxed alternatives (backs `prop_oneof!`).
pub struct Union<T> {
    options: Vec<BoxedStrategy<T>>,
}

impl<T> Union<T> {
    /// `options` must be non-empty.
    pub fn new(options: Vec<BoxedStrategy<T>>) -> Self {
        assert!(!options.is_empty(), "prop_oneof! needs at least one arm");
        Union { options }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn new_value(&self, rng: &mut TestRng) -> T {
        let i = rng.below(self.options.len() as u64) as usize;
        self.options[i].new_value(rng)
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn new_value(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        }
        impl Strategy for core::ops::RangeInclusive<$t> {
            type Value = $t;
            fn new_value(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start() as i128, *self.end() as i128);
                assert!(lo <= hi, "empty range strategy");
                let span = (hi - lo) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                (lo + rng.below(span + 1) as i128) as $t
            }
        }
    )*};
}
int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! float_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn new_value(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                self.start + (rng.unit_f64() as $t) * (self.end - self.start)
            }
        }
    )*};
}
float_range_strategy!(f32, f64);

macro_rules! tuple_strategy {
    ($(($($n:tt $S:ident),+))*) => {$(
        impl<$($S: Strategy),+> Strategy for ($($S,)+) {
            type Value = ($($S::Value,)+);
            fn new_value(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$n.new_value(rng),)+)
            }
        }
    )*};
}
tuple_strategy! {
    (0 A)
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
    (0 A, 1 B, 2 C, 3 D, 4 E)
    (0 A, 1 B, 2 C, 3 D, 4 E, 5 F)
}

/// A `Vec` of strategies generates element-wise (used by
/// `prop_flat_map` that builds one strategy per position).
impl<S: Strategy> Strategy for Vec<S> {
    type Value = Vec<S::Value>;
    fn new_value(&self, rng: &mut TestRng) -> Self::Value {
        self.iter().map(|s| s.new_value(rng)).collect()
    }
}

/// String strategy from a regex subset: character classes `[a-z...]`
/// (ranges, literals, `\n`/`\t`/`\r`/`\\` escapes) and literal characters,
/// each optionally followed by `{m}`, `{m,n}`, `*`, `+`, or `?`.
impl Strategy for &str {
    type Value = String;
    fn new_value(&self, rng: &mut TestRng) -> String {
        let pattern = regex_lite::parse(self)
            .unwrap_or_else(|e| panic!("unsupported regex strategy {self:?}: {e}"));
        regex_lite::generate(&pattern, rng)
    }
}

mod regex_lite {
    use super::TestRng;

    pub struct Atom {
        /// Candidate characters.
        pub chars: Vec<char>,
        pub min: u32,
        pub max: u32,
    }

    fn unescape(c: char) -> char {
        match c {
            'n' => '\n',
            't' => '\t',
            'r' => '\r',
            other => other,
        }
    }

    pub fn parse(pattern: &str) -> Result<Vec<Atom>, String> {
        let chars: Vec<char> = pattern.chars().collect();
        let mut atoms = Vec::new();
        let mut i = 0;
        while i < chars.len() {
            let candidates = match chars[i] {
                '[' => {
                    let mut set = Vec::new();
                    i += 1;
                    while i < chars.len() && chars[i] != ']' {
                        let lo = if chars[i] == '\\' {
                            i += 1;
                            unescape(chars[i])
                        } else {
                            chars[i]
                        };
                        // `a-b` range (a trailing `-` is a literal).
                        if chars.get(i + 1) == Some(&'-') && chars.get(i + 2) != Some(&']') {
                            i += 2;
                            let hi = if chars[i] == '\\' {
                                i += 1;
                                unescape(chars[i])
                            } else {
                                chars[i]
                            };
                            for c in lo..=hi {
                                set.push(c);
                            }
                        } else {
                            set.push(lo);
                        }
                        i += 1;
                    }
                    if i >= chars.len() {
                        return Err("unterminated character class".into());
                    }
                    i += 1; // consume ']'
                    set
                }
                '\\' => {
                    i += 1;
                    if i >= chars.len() {
                        return Err("trailing backslash".into());
                    }
                    let c = unescape(chars[i]);
                    i += 1;
                    vec![c]
                }
                '(' | ')' | '|' | '.' | '^' | '$' => {
                    return Err(format!("regex feature {:?} not supported", chars[i]));
                }
                c => {
                    i += 1;
                    vec![c]
                }
            };
            // Optional repetition suffix.
            let (min, max) = match chars.get(i) {
                Some('{') => {
                    let close = chars[i..]
                        .iter()
                        .position(|&c| c == '}')
                        .ok_or("unterminated {..}")?
                        + i;
                    let body: String = chars[i + 1..close].iter().collect();
                    i = close + 1;
                    match body.split_once(',') {
                        Some((a, b)) => {
                            let lo = a.trim().parse::<u32>().map_err(|e| e.to_string())?;
                            let hi = b.trim().parse::<u32>().map_err(|e| e.to_string())?;
                            (lo, hi)
                        }
                        None => {
                            let n = body.trim().parse::<u32>().map_err(|e| e.to_string())?;
                            (n, n)
                        }
                    }
                }
                Some('*') => {
                    i += 1;
                    (0, 8)
                }
                Some('+') => {
                    i += 1;
                    (1, 8)
                }
                Some('?') => {
                    i += 1;
                    (0, 1)
                }
                _ => (1, 1),
            };
            if candidates.is_empty() {
                return Err("empty character class".into());
            }
            atoms.push(Atom {
                chars: candidates,
                min,
                max,
            });
        }
        Ok(atoms)
    }

    pub fn generate(atoms: &[Atom], rng: &mut TestRng) -> String {
        let mut out = String::new();
        for atom in atoms {
            let n = atom.min + rng.below((atom.max - atom.min + 1) as u64) as u32;
            for _ in 0..n {
                let i = rng.below(atom.chars.len() as u64) as usize;
                out.push(atom.chars[i]);
            }
        }
        out
    }
}

/// Types with a canonical strategy (for [`any`]).
pub trait Arbitrary {
    /// The canonical strategy.
    type Strategy: Strategy<Value = Self>;
    /// Builds it.
    fn arbitrary() -> Self::Strategy;
}

/// Strategy for a whole primitive domain.
pub struct FullDomain<T>(std::marker::PhantomData<T>);

macro_rules! arb_int {
    ($($t:ty),*) => {$(
        impl Strategy for FullDomain<$t> {
            type Value = $t;
            fn new_value(&self, rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
        impl Arbitrary for $t {
            type Strategy = FullDomain<$t>;
            fn arbitrary() -> Self::Strategy {
                FullDomain(std::marker::PhantomData)
            }
        }
    )*};
}
arb_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for FullDomain<bool> {
    type Value = bool;
    fn new_value(&self, rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for bool {
    type Strategy = FullDomain<bool>;
    fn arbitrary() -> Self::Strategy {
        FullDomain(std::marker::PhantomData)
    }
}

/// The canonical strategy for `T`.
pub fn any<T: Arbitrary>() -> T::Strategy {
    T::arbitrary()
}

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};

    /// Inclusive length bounds for [`vec()`].
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        min: usize,
        /// Inclusive.
        max: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { min: n, max: n }
        }
    }

    impl From<core::ops::Range<usize>> for SizeRange {
        fn from(r: core::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                min: r.start,
                max: r.end - 1,
            }
        }
    }

    impl From<core::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: core::ops::RangeInclusive<usize>) -> Self {
            SizeRange {
                min: *r.start(),
                max: *r.end(),
            }
        }
    }

    /// Strategy for `Vec<T>` with a random length in the given bounds.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// `Vec` strategy: random length in `size`, elements from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn new_value(&self, rng: &mut TestRng) -> Self::Value {
            let span = (self.size.max - self.size.min + 1) as u64;
            let n = self.size.min + rng.below(span) as usize;
            (0..n).map(|_| self.element.new_value(rng)).collect()
        }
    }
}

/// Runner configuration. Only `cases` is honored.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config running `cases` random cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        // Real proptest defaults to 256; the stub trades depth for suite
        // speed (tests that need more set `with_cases` explicitly).
        ProptestConfig { cases: 64 }
    }
}

/// A property failure (carried by `prop_assert*!` early returns).
#[derive(Debug, Clone)]
pub struct TestCaseError {
    /// Failure description.
    pub message: String,
}

impl TestCaseError {
    /// Builds a failure.
    pub fn fail(message: impl Into<String>) -> Self {
        TestCaseError {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

/// Common imports.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, BoxedStrategy,
        Just, ProptestConfig, Strategy, TestCaseError,
    };
}

/// Defines property tests: each `name(binding in strategy, ...) { body }`
/// becomes a `#[test]` running the body over random cases.
#[macro_export]
macro_rules! proptest {
    ( #![proptest_config($cfg:expr)] $($rest:tt)* ) => {
        $crate::__proptest_impl!(($cfg) $($rest)*);
    };
    ( $($rest:tt)* ) => {
        $crate::__proptest_impl!(($crate::ProptestConfig::default()) $($rest)*);
    };
}

/// Implementation detail of [`proptest!`]: the config expression is bound
/// at the top level so it can be referenced inside the per-test repetition.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (
        ($cfg:expr)
        $(
            $(#[$meta:meta])*
            fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                let __path = concat!(module_path!(), "::", stringify!($name));
                for __case in 0..config.cases {
                    let mut __rng = $crate::TestRng::for_case(__path, __case);
                    $(let $arg = $crate::Strategy::new_value(&($strat), &mut __rng);)+
                    let __result: ::core::result::Result<(), $crate::TestCaseError> =
                        (|| { $body Ok(()) })();
                    if let Err(e) = __result {
                        panic!(
                            "property `{}` failed at case {}/{}: {}",
                            __path, __case, config.cases, e
                        );
                    }
                }
            }
        )*
    };
}

/// Uniform choice among strategy expressions with a common value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Strategy::boxed($strat)),+])
    };
}

/// Asserts inside a `proptest!` body; failure aborts the case (no shrink).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !($cond) {
            return Err($crate::TestCaseError::fail(concat!(
                "assertion failed: ",
                stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// Equality assertion inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (a, b) = (&$a, &$b);
        if !(a == b) {
            return Err($crate::TestCaseError::fail(format!(
                "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
                stringify!($a), stringify!($b), a, b
            )));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (a, b) = (&$a, &$b);
        if !(a == b) {
            return Err($crate::TestCaseError::fail(format!(
                "{}\n  left: {:?}\n right: {:?}",
                format!($($fmt)+), a, b
            )));
        }
    }};
}

/// Inequality assertion inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {{
        let (a, b) = (&$a, &$b);
        if a == b {
            return Err($crate::TestCaseError::fail(format!(
                "assertion failed: {} != {}\n  both: {:?}",
                stringify!($a), stringify!($b), a
            )));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (a, b) = (&$a, &$b);
        if a == b {
            return Err($crate::TestCaseError::fail(format!(
                "{}\n  both: {:?}",
                format!($($fmt)+), a
            )));
        }
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = crate::TestRng::for_case("t", 0);
        for _ in 0..1000 {
            let v = (3u64..10).new_value(&mut rng);
            assert!((3..10).contains(&v));
            let f = (-4.0f32..4.0).new_value(&mut rng);
            assert!((-4.0..4.0).contains(&f));
            let i = (-5i32..5).new_value(&mut rng);
            assert!((-5..5).contains(&i));
        }
    }

    #[test]
    fn regex_subset_generates_matching_strings() {
        let mut rng = crate::TestRng::for_case("t", 1);
        for _ in 0..200 {
            let s = "[ -~\n]{0,200}".new_value(&mut rng);
            assert!(s.len() <= 200);
            assert!(s.chars().all(|c| c == '\n' || (' '..='~').contains(&c)));
        }
    }

    #[test]
    fn vec_of_strategies_generates_elementwise() {
        let mut rng = crate::TestRng::for_case("t", 2);
        let strategies = vec![0u64..1, 5u64..6, 9u64..10];
        let v = strategies.new_value(&mut rng);
        assert_eq!(v, vec![0, 5, 9]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn macro_roundtrip(xs in crate::collection::vec(0u32..100, 1..20), b in any::<bool>()) {
            prop_assert!(xs.len() < 20);
            prop_assert!(!xs.is_empty());
            let flipped = !b;
            prop_assert_eq!(b, !flipped);
            for x in &xs {
                prop_assert!(*x < 100, "x={} out of range", x);
            }
        }
    }

    #[test]
    fn oneof_and_recursive_compose() {
        #[derive(Debug, Clone, PartialEq)]
        enum E {
            Leaf(u32),
            Pair(Box<E>, Box<E>),
        }
        let leaf = (0u32..10).prop_map(E::Leaf);
        let strat = leaf.prop_recursive(3, 24, 2, |inner| {
            prop_oneof![
                (0u32..10).prop_map(E::Leaf),
                (inner.clone(), inner).prop_map(|(a, b)| E::Pair(Box::new(a), Box::new(b))),
            ]
        });
        let mut rng = crate::TestRng::for_case("t", 3);
        let mut saw_pair = false;
        for _ in 0..100 {
            if matches!(strat.new_value(&mut rng), E::Pair(..)) {
                saw_pair = true;
            }
        }
        assert!(saw_pair, "recursion never produced a compound node");
    }
}
