//! Offline shim for the subset of `proptest` used by the workspace's
//! property tests (see `crates/shims/README.md`).
//!
//! Deterministic random testing without shrinking: each `proptest!` test
//! draws its configured number of cases from a fixed-seed [`rand`] shim
//! RNG (seeded per test name, so adding tests doesn't perturb others).
//! On failure the offending generated inputs are printed via the panic
//! message — there is no minimization pass, which is an accepted loss
//! against upstream in exchange for building offline.
//!
//! Regex string strategies support the shapes the tests use: a single
//! character class (`[a-zA-Z0-9 ']`, `[\x20-\x7E\n]`, `\PC`) followed by
//! an optional `{n}` / `{m,n}` repetition.

#![forbid(unsafe_code)]

use rand::rngs::StdRng;

/// Why a test case did not pass.
#[derive(Debug)]
pub enum TestCaseError {
    /// `prop_assume!` rejected the inputs — draw a fresh case.
    Reject(String),
    /// An assertion failed.
    Fail(String),
}

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TestCaseError::Reject(m) => write!(f, "rejected: {m}"),
            TestCaseError::Fail(m) => write!(f, "failed: {m}"),
        }
    }
}

/// Per-case verdict returned by a `proptest!` body.
pub type TestCaseResult = Result<(), TestCaseError>;

pub mod test_runner {
    //! Case-loop driver.

    pub use super::{TestCaseError, TestCaseResult};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Mirrors `proptest::test_runner::Config` (the `cases` knob only).
    #[derive(Debug, Clone)]
    pub struct Config {
        /// Number of accepted cases to run.
        pub cases: u32,
    }

    impl Config {
        /// A config running `cases` accepted cases.
        pub fn with_cases(cases: u32) -> Config {
            Config { cases }
        }
    }

    impl Default for Config {
        fn default() -> Config {
            Config { cases: 256 }
        }
    }

    /// Drives the case loop for one `proptest!` test.
    pub struct TestRunner {
        config: Config,
        rng: StdRng,
    }

    impl TestRunner {
        /// Seed the RNG from the test name (stable across runs and
        /// across unrelated test additions). `PROPTEST_SHIM_SEED`
        /// perturbs the seed for exploratory runs.
        pub fn new(config: Config, test_name: &str) -> TestRunner {
            let mut seed = 0x5EEDu64;
            for b in test_name.bytes() {
                seed = seed.wrapping_mul(1099511628211).wrapping_add(b as u64);
            }
            if let Ok(extra) = std::env::var("PROPTEST_SHIM_SEED") {
                seed = seed.wrapping_add(extra.parse::<u64>().unwrap_or(0));
            }
            TestRunner {
                config,
                rng: StdRng::seed_from_u64(seed),
            }
        }

        /// Run until `config.cases` cases are accepted; panic on the
        /// first failure. Rejections (`prop_assume!`) draw a fresh case,
        /// capped at 20× the case budget.
        pub fn run_cases(&mut self, mut case: impl FnMut(&mut StdRng) -> TestCaseResult) {
            let mut accepted = 0u32;
            let mut attempts = 0u32;
            let max_attempts = self.config.cases.saturating_mul(20).max(100);
            while accepted < self.config.cases {
                attempts += 1;
                assert!(
                    attempts <= max_attempts,
                    "proptest shim: too many rejections ({accepted}/{} accepted after {attempts} attempts)",
                    self.config.cases
                );
                match case(&mut self.rng) {
                    Ok(()) => accepted += 1,
                    Err(TestCaseError::Reject(_)) => continue,
                    Err(TestCaseError::Fail(msg)) => {
                        panic!("proptest case failed (case {accepted}): {msg}")
                    }
                }
            }
        }
    }
}

/// Value generators. Object-safe so `prop_oneof!` can box mixed concrete
/// strategies of one value type.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draw one value.
    fn generate(&self, rng: &mut StdRng) -> Self::Value;

    /// Map generated values through `f`.
    fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Type-erase for heterogeneous unions.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        Box::new(self)
    }
}

/// A type-erased strategy.
pub type BoxedStrategy<V> = Box<dyn Strategy<Value = V>>;

impl<V> Strategy for BoxedStrategy<V> {
    type Value = V;
    fn generate(&self, rng: &mut StdRng) -> V {
        (**self).generate(rng)
    }
}

/// `prop_map` adapter.
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;
    fn generate(&self, rng: &mut StdRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// Always yields a clone of the given value.
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut StdRng) -> T {
        self.0.clone()
    }
}

/// Uniform choice among boxed strategies (backs `prop_oneof!`).
pub struct Union<V> {
    options: Vec<BoxedStrategy<V>>,
}

impl<V> Union<V> {
    /// A union over `options` (must be non-empty).
    pub fn new(options: Vec<BoxedStrategy<V>>) -> Union<V> {
        assert!(!options.is_empty(), "prop_oneof! needs at least one arm");
        Union { options }
    }
}

impl<V> Strategy for Union<V> {
    type Value = V;
    fn generate(&self, rng: &mut StdRng) -> V {
        use rand::Rng;
        let pick = rng.gen_range(0..self.options.len());
        self.options[pick].generate(rng)
    }
}

macro_rules! strategy_for_int_range {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut StdRng) -> $t {
                use rand::Rng;
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for core::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut StdRng) -> $t {
                use rand::Rng;
                rng.gen_range(self.clone())
            }
        }
    )*};
}
strategy_for_int_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! strategy_for_tuple {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn generate(&self, rng: &mut StdRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    };
}
strategy_for_tuple!(A: 0, B: 1);
strategy_for_tuple!(A: 0, B: 1, C: 2);
strategy_for_tuple!(A: 0, B: 1, C: 2, D: 3);

/// String literals are regex strategies (`keys in "[a-c]{1,2}"`).
impl Strategy for &str {
    type Value = String;
    fn generate(&self, rng: &mut StdRng) -> String {
        string::compile(self)
            .expect("invalid regex literal strategy")
            .generate(rng)
    }
}

/// Types with a canonical "any value" strategy.
pub trait Arbitrary: Sized {
    /// Draw an arbitrary value.
    fn arbitrary(rng: &mut StdRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut StdRng) -> bool {
        rand::Rng::gen(rng)
    }
}

impl Arbitrary for i64 {
    fn arbitrary(rng: &mut StdRng) -> i64 {
        rand::Rng::gen(rng)
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut StdRng) -> f64 {
        // Mix uniform [0,1) with magnitudes and signed values; avoid NaN
        // (upstream's default f64 strategy is also NaN-free).
        use rand::Rng;
        let base: f64 = rng.gen();
        let scale = 10f64.powi(rng.gen_range(-3..9i32));
        let signed = if rng.gen::<bool>() {
            base * scale
        } else {
            -base * scale
        };
        match rng.gen_range(0..16u8) {
            0 => 0.0,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            _ => signed,
        }
    }
}

/// The `any::<T>()` entry point.
pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
    AnyStrategy(std::marker::PhantomData)
}

/// Strategy produced by [`any`].
pub struct AnyStrategy<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for AnyStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut StdRng) -> T {
        T::arbitrary(rng)
    }
}

pub mod collection {
    //! Collection strategies.

    use super::{StdRng, Strategy};
    use rand::Rng;

    /// Sizes accepted by [`vec()`]/[`btree_set`]: an exact count or a
    /// half-open range.
    pub trait SizeRange {
        /// Draw a size.
        fn pick(&self, rng: &mut StdRng) -> usize;
    }

    impl SizeRange for usize {
        fn pick(&self, _rng: &mut StdRng) -> usize {
            *self
        }
    }

    impl SizeRange for core::ops::Range<usize> {
        fn pick(&self, rng: &mut StdRng) -> usize {
            rng.gen_range(self.clone())
        }
    }

    /// `Vec` of `size.pick()` draws from `element`.
    pub fn vec<S: Strategy, R: SizeRange>(element: S, size: R) -> VecStrategy<S, R> {
        VecStrategy { element, size }
    }

    /// Strategy produced by [`vec()`].
    pub struct VecStrategy<S, R> {
        element: S,
        size: R,
    }

    impl<S: Strategy, R: SizeRange> Strategy for VecStrategy<S, R> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let n = self.size.pick(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// `BTreeSet` built from up to `size.pick()` draws (duplicates
    /// collapse, matching upstream's semantics of set size ≤ requested).
    pub fn btree_set<S, R>(element: S, size: R) -> BTreeSetStrategy<S, R>
    where
        S: Strategy,
        S::Value: Ord,
        R: SizeRange,
    {
        BTreeSetStrategy { element, size }
    }

    /// Strategy produced by [`btree_set`].
    pub struct BTreeSetStrategy<S, R> {
        element: S,
        size: R,
    }

    impl<S, R> Strategy for BTreeSetStrategy<S, R>
    where
        S: Strategy,
        S::Value: Ord,
        R: SizeRange,
    {
        type Value = std::collections::BTreeSet<S::Value>;
        fn generate(&self, rng: &mut StdRng) -> Self::Value {
            let n = self.size.pick(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod option {
    //! `Option` strategies.

    use super::{StdRng, Strategy};
    use rand::Rng;

    /// `None` a quarter of the time, `Some(inner)` otherwise (upstream's
    /// default weighting).
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }

    /// Strategy produced by [`of`].
    pub struct OptionStrategy<S> {
        inner: S,
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn generate(&self, rng: &mut StdRng) -> Option<S::Value> {
            if rng.gen_range(0..4u8) == 0 {
                None
            } else {
                Some(self.inner.generate(rng))
            }
        }
    }
}

pub mod string {
    //! Regex-shaped string strategies.

    use super::{StdRng, Strategy};
    use rand::Rng;

    /// A compiled single-class regex generator.
    pub struct RegexGeneratorStrategy {
        pool: Vec<char>,
        min: usize,
        max: usize,
    }

    impl Strategy for RegexGeneratorStrategy {
        type Value = String;
        fn generate(&self, rng: &mut StdRng) -> String {
            let n = if self.min == self.max {
                self.min
            } else {
                rng.gen_range(self.min..=self.max)
            };
            (0..n)
                .map(|_| self.pool[rng.gen_range(0..self.pool.len())])
                .collect()
        }
    }

    /// Regex parse error.
    #[derive(Debug)]
    pub struct Error(pub String);

    impl std::fmt::Display for Error {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "unsupported regex: {}", self.0)
        }
    }

    fn parse_class_escape(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) -> Option<char> {
        match chars.next()? {
            'n' => Some('\n'),
            't' => Some('\t'),
            'r' => Some('\r'),
            'x' => {
                let hi = chars.next()?;
                let lo = chars.next()?;
                let byte = u8::from_str_radix(&format!("{hi}{lo}"), 16).ok()?;
                Some(byte as char)
            }
            c @ ('\\' | ']' | '[' | '-' | '\'' | '"') => Some(c),
            other => Some(other),
        }
    }

    /// Compile the supported shape: one character class (`[...]` or
    /// `\PC`) with an optional `{n}` / `{m,n}` suffix.
    pub fn compile(pattern: &str) -> Result<RegexGeneratorStrategy, Error> {
        let mut chars = pattern.chars().peekable();
        let pool: Vec<char> = match chars.peek() {
            Some('[') => {
                chars.next();
                let mut pool = Vec::new();
                let mut pending: Option<char> = None;
                loop {
                    let c = chars.next().ok_or_else(|| Error(pattern.into()))?;
                    match c {
                        ']' => {
                            pool.extend(pending.take());
                            break;
                        }
                        '\\' => {
                            pool.extend(pending.take());
                            pending = Some(
                                parse_class_escape(&mut chars)
                                    .ok_or_else(|| Error(pattern.into()))?,
                            );
                        }
                        '-' if pending.is_some() && chars.peek() != Some(&']') => {
                            let lo = pending.take().expect("checked");
                            let hi = match chars.next().ok_or_else(|| Error(pattern.into()))? {
                                '\\' => parse_class_escape(&mut chars)
                                    .ok_or_else(|| Error(pattern.into()))?,
                                c => c,
                            };
                            if (lo as u32) > (hi as u32) {
                                return Err(Error(pattern.into()));
                            }
                            pool.extend((lo as u32..=hi as u32).filter_map(char::from_u32));
                        }
                        c => {
                            pool.extend(pending.take());
                            pending = Some(c);
                        }
                    }
                }
                pool
            }
            Some('\\') => {
                chars.next();
                match (chars.next(), chars.next()) {
                    // \PC: any non-control character. Printable ASCII
                    // plus a smattering of non-ASCII exercises the same
                    // parser paths without full Unicode tables.
                    (Some('P'), Some('C')) => {
                        let mut pool: Vec<char> = (0x20u8..0x7F).map(|b| b as char).collect();
                        pool.extend(['é', 'ß', 'λ', '中', '🦀']);
                        pool
                    }
                    _ => return Err(Error(pattern.into())),
                }
            }
            _ => return Err(Error(pattern.into())),
        };
        if pool.is_empty() {
            return Err(Error(pattern.into()));
        }
        let (min, max) = match chars.peek() {
            None => (1, 1),
            Some('{') => {
                chars.next();
                let body: String = chars.by_ref().take_while(|&c| c != '}').collect();
                let (lo, hi) = match body.split_once(',') {
                    Some((lo, hi)) => (
                        lo.parse().map_err(|_| Error(pattern.into()))?,
                        hi.parse().map_err(|_| Error(pattern.into()))?,
                    ),
                    None => {
                        let n: usize = body.parse().map_err(|_| Error(pattern.into()))?;
                        (n, n)
                    }
                };
                if chars.next().is_some() {
                    return Err(Error(pattern.into()));
                }
                (lo, hi)
            }
            Some(_) => return Err(Error(pattern.into())),
        };
        if min > max {
            return Err(Error(pattern.into()));
        }
        Ok(RegexGeneratorStrategy { pool, min, max })
    }

    /// Public entry mirroring `proptest::string::string_regex`.
    pub fn string_regex(pattern: &str) -> Result<RegexGeneratorStrategy, Error> {
        compile(pattern)
    }
}

pub mod prelude {
    //! The glob-import surface (`use proptest::prelude::*`).

    pub use super::test_runner::Config as ProptestConfig;
    pub use super::{any, Arbitrary, BoxedStrategy, Just, Strategy};
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
}

/// Reject the current case and draw a fresh one.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::TestCaseError::Reject(stringify!($cond).to_string()));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err($crate::TestCaseError::Reject(format!($($fmt)+)));
        }
    };
}

/// Fail the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::TestCaseError::Fail(format!(
                "assertion failed: {}", stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err($crate::TestCaseError::Fail(format!(
                "assertion failed: {}: {}", stringify!($cond), format!($($fmt)+)
            )));
        }
    };
}

/// Fail unless `left == right`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if !(l == r) {
            return Err($crate::TestCaseError::Fail(format!(
                "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
                stringify!($left), stringify!($right), l, r
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(l == r) {
            return Err($crate::TestCaseError::Fail(format!(
                "assertion failed: `{} == {}`: {}\n  left: {:?}\n right: {:?}",
                stringify!($left), stringify!($right), format!($($fmt)+), l, r
            )));
        }
    }};
}

/// Fail unless `left != right`.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if l == r {
            return Err($crate::TestCaseError::Fail(format!(
                "assertion failed: `{} != {}`\n  both: {:?}",
                stringify!($left), stringify!($right), l
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if l == r {
            return Err($crate::TestCaseError::Fail(format!(
                "assertion failed: `{} != {}`: {}\n  both: {:?}",
                stringify!($left), stringify!($right), format!($($fmt)+), l
            )));
        }
    }};
}

/// Uniform choice between strategy arms yielding one value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Strategy::boxed($strategy)),+])
    };
}

/// The test-defining macro. Accepts the upstream shape: an optional
/// `#![proptest_config(...)]` header and `#[test]` functions whose
/// arguments are drawn from strategies via `arg in strategy`.
#[macro_export]
macro_rules! proptest {
    (@cfg ($config:expr)
     $($(#[$meta:meta])*
       fn $name:ident($($arg:ident in $strategy:expr),+ $(,)?) $body:block
     )*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::test_runner::Config = $config;
                let mut runner = $crate::test_runner::TestRunner::new(config, stringify!($name));
                runner.run_cases(|rng| {
                    $(let $arg = $crate::Strategy::generate(&($strategy), rng);)+
                    (|| -> $crate::TestCaseResult { $body Ok(()) })()
                });
            }
        )*
    };
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::proptest!(@cfg ($config) $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@cfg ($crate::test_runner::Config::default()) $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn regex_pools() {
        let mut rng = StdRng::seed_from_u64(1);
        let s = crate::string::string_regex("[a-c]{1,2}").unwrap();
        for _ in 0..200 {
            let out = Strategy::generate(&s, &mut rng);
            assert!((1..=2).contains(&out.len()));
            assert!(out.chars().all(|c| ('a'..='c').contains(&c)), "{out:?}");
        }
        let hex = crate::string::string_regex("[\\x20-\\x7E]{0,16}").unwrap();
        for _ in 0..200 {
            let out = Strategy::generate(&hex, &mut rng);
            assert!(out.len() <= 16);
            assert!(out.chars().all(|c| (' '..='~').contains(&c)), "{out:?}");
        }
        let quote = crate::string::string_regex("[a-zA-Z0-9 ']{1,12}").unwrap();
        let mut saw_quote = false;
        for _ in 0..500 {
            saw_quote |= Strategy::generate(&quote, &mut rng).contains('\'');
        }
        assert!(saw_quote, "quote char reachable");
        assert!(crate::string::string_regex("a+b").is_err());
        // Exact repetition and the \PC class.
        let exact = crate::string::string_regex("[a-z]{4}").unwrap();
        assert_eq!(Strategy::generate(&exact, &mut rng).len(), 4);
        let pc = crate::string::string_regex("\\PC{0,60}").unwrap();
        for _ in 0..100 {
            assert!(Strategy::generate(&pc, &mut rng)
                .chars()
                .all(|c| !c.is_control()));
        }
    }

    #[test]
    fn literal_str_strategy_and_newline_class() {
        let mut rng = StdRng::seed_from_u64(2);
        let out = Strategy::generate(&"[\\x20-\\x7E\\n]{0,20}", &mut rng);
        assert!(out.len() <= 20);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Doc comments and `#[test]` both ride through the macro.
        #[test]
        fn macro_end_to_end(
            x in 0usize..10,
            pair in (0u8..3, 1i64..=4),
            v in crate::collection::vec(0usize..5, 2..6),
            opt in crate::option::of(0usize..4),
            set in crate::collection::btree_set(0usize..4, 0..4),
        ) {
            prop_assume!(x != 9);
            prop_assert!(x < 9);
            prop_assert!(pair.0 < 3 && (1..=4).contains(&pair.1));
            prop_assert!((2..6).contains(&v.len()));
            prop_assert!(set.len() < 4);
            if let Some(o) = opt {
                prop_assert_ne!(o, 99);
            }
        }
    }

    #[test]
    fn oneof_and_map_cover_all_arms() {
        let mut rng = StdRng::seed_from_u64(3);
        let s = prop_oneof![
            Just(0u8),
            (1u8..2).prop_map(|x| x),
            any::<bool>().prop_map(u8::from),
        ];
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..300 {
            seen.insert(Strategy::generate(&s, &mut rng));
        }
        assert!(seen.contains(&0) && seen.contains(&1));
    }
}
