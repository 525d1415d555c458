//! A lightweight property-test runner with deterministic seeds, failure
//! reporting, and greedy shrinking.
//!
//! Each property runs `cases` test cases. Case `i` gets an independent
//! *case seed* derived from the run seed by [`SplitMix64`]; the case's
//! inputs are generated from a [`SmallRng`] seeded with that case seed.
//! When a case fails, the runner greedily shrinks the inputs (trying each
//! strategy's candidates, preferring later tuple components — sizes and
//! depths — over earlier ones) and reports:
//!
//! * the **case seed**, so `HOAS_PROP_CASE=<seed>` re-runs exactly the
//!   failing case,
//! * the original and shrunk counterexamples (`Debug`-printed).
//!
//! Environment knobs:
//!
//! * `HOAS_PROP_SEED` — overrides the run seed (decimal or `0x…`),
//! * `HOAS_PROP_CASES` — overrides the number of cases,
//! * `HOAS_PROP_CASE` — replays one specific failing case.

use crate::rng::{SmallRng, SplitMix64};
use std::panic::{self, AssertUnwindSafe};

/// The fixed default run seed. Every suite in the workspace runs under this
/// seed unless overridden, so CI is exactly reproducible.
pub const DEFAULT_SEED: u64 = 0x484F_4153_1988_0001;

/// Runner configuration.
#[derive(Clone, Debug)]
pub struct Config {
    /// Number of cases to run.
    pub cases: u32,
    /// The run seed from which per-case seeds are derived.
    pub seed: u64,
    /// Upper bound on shrink attempts (candidate evaluations).
    pub max_shrink_steps: u32,
    /// Replay exactly one case from its case seed instead of a full run.
    pub repro_case: Option<u64>,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            cases: 64,
            seed: DEFAULT_SEED,
            max_shrink_steps: 4096,
            repro_case: None,
        }
    }
}

impl Config {
    /// A config with the given case count and defaults elsewhere.
    pub fn with_cases(cases: u32) -> Config {
        Config {
            cases,
            ..Config::default()
        }
    }

    /// The config the [`crate::props!`] macro uses: the given case count,
    /// then environment overrides.
    pub fn from_env(default_cases: u32) -> Config {
        let mut cfg = Config::with_cases(default_cases);
        if let Some(v) = env_u64("HOAS_PROP_SEED") {
            cfg.seed = v;
        }
        if let Some(v) = env_u64("HOAS_PROP_CASES") {
            cfg.cases = v as u32;
        }
        cfg.repro_case = env_u64("HOAS_PROP_CASE");
        cfg
    }
}

fn env_u64(name: &str) -> Option<u64> {
    let raw = std::env::var(name).ok()?;
    let raw = raw.trim();
    let parsed = if let Some(hex) = raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16)
    } else {
        raw.parse()
    };
    match parsed {
        Ok(v) => Some(v),
        Err(_) => panic!("{name}={raw}: expected a decimal or 0x-prefixed integer"),
    }
}

/// A generation strategy: how to produce a value from randomness, and how
/// to propose smaller candidates when it participates in a failure.
pub trait Strategy {
    /// The generated value type.
    type Value: Clone + std::fmt::Debug;

    /// Generates one value.
    fn generate(&self, rng: &mut SmallRng) -> Self::Value;

    /// Shrink candidates for `value`, in decreasing order of aggression.
    /// The runner keeps the first candidate that still fails.
    fn shrink(&self, _value: &Self::Value) -> Vec<Self::Value> {
        Vec::new()
    }
}

// ---------------------------------------------------------- strategies --

/// Uniform draw from a half-open integer range; shrinks toward the start.
macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut SmallRng) -> $t {
                use crate::rng::Rng as _;
                rng.gen_range(self.clone())
            }

            fn shrink(&self, value: &$t) -> Vec<$t> {
                let v = *value;
                let lo = self.start;
                let mut out = Vec::new();
                if v > lo {
                    out.push(lo);
                    let mid = lo + (v - lo) / 2;
                    if mid != lo {
                        out.push(mid);
                    }
                    out.push(v - 1);
                }
                out.dedup();
                out
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// The full-width `u64` strategy used for generator seeds.
///
/// A seed has no meaningful order, so shrinking just tries a few
/// canonical seeds — the real size reduction comes from the size/depth
/// components that accompany it.
#[derive(Clone, Debug)]
pub struct Seeds;

/// All 64-bit seeds, uniformly.
pub fn seeds() -> Seeds {
    Seeds
}

impl Strategy for Seeds {
    type Value = u64;

    fn generate(&self, rng: &mut SmallRng) -> u64 {
        rng.next_u64()
    }

    fn shrink(&self, value: &u64) -> Vec<u64> {
        let v = *value;
        let mut out: Vec<u64> = [0, 1, v >> 32, v >> 1]
            .into_iter()
            .filter(|c| c != &v)
            .collect();
        out.dedup();
        out
    }
}

/// A constant strategy (no shrinking).
#[derive(Clone, Debug)]
pub struct Just<T: Clone + std::fmt::Debug>(pub T);

impl<T: Clone + std::fmt::Debug> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut SmallRng) -> T {
        self.0.clone()
    }
}

/// Random ASCII strings (printable characters plus newline) of length
/// `0..=max_len`; shrinks by emptying and halving.
#[derive(Clone, Debug)]
pub struct AsciiString {
    max_len: usize,
}

/// Strings for parser-fuzz properties.
pub fn ascii_string(max_len: usize) -> AsciiString {
    AsciiString { max_len }
}

impl Strategy for AsciiString {
    type Value = String;

    fn generate(&self, rng: &mut SmallRng) -> String {
        use crate::rng::Rng as _;
        let len = rng.gen_range(0..self.max_len + 1);
        (0..len)
            .map(|_| {
                if rng.gen_bool(0.03) {
                    '\n'
                } else {
                    rng.gen_range(0x20u8..0x7F) as char
                }
            })
            .collect()
    }

    fn shrink(&self, value: &String) -> Vec<String> {
        if value.is_empty() {
            return Vec::new();
        }
        let n = value.chars().count();
        let mut out = vec![String::new()];
        out.push(value.chars().take(n / 2).collect());
        out.push(value.chars().take(n - 1).collect());
        out.retain(|s| s != value);
        out.dedup();
        out
    }
}

/// Random sequences drawn from a fixed token vocabulary; shrinks by
/// emptying, halving, and dropping the last token.
#[derive(Clone, Debug)]
pub struct TokenSoup {
    tokens: &'static [&'static str],
    max_len: usize,
}

/// Token soup for structured parser-fuzz properties.
pub fn token_soup(tokens: &'static [&'static str], max_len: usize) -> TokenSoup {
    TokenSoup { tokens, max_len }
}

impl Strategy for TokenSoup {
    type Value = Vec<&'static str>;

    fn generate(&self, rng: &mut SmallRng) -> Vec<&'static str> {
        use crate::rng::Rng as _;
        let len = rng.gen_range(0..self.max_len + 1);
        (0..len).map(|_| *rng.choose(self.tokens)).collect()
    }

    fn shrink(&self, value: &Vec<&'static str>) -> Vec<Vec<&'static str>> {
        if value.is_empty() {
            return Vec::new();
        }
        let mut out = vec![Vec::new()];
        out.push(value[..value.len() / 2].to_vec());
        out.push(value[..value.len() - 1].to_vec());
        out.retain(|v| v != value);
        out.dedup();
        out
    }
}

// Tuples of strategies generate componentwise. Shrinking iterates
// components right-to-left so that trailing size/depth parameters (the
// convention throughout the test suites: `(seed, size)`) shrink before
// seeds — "shrink term size first".
macro_rules! impl_tuple_strategy {
    ($(($($S:ident / $idx:tt),+))*) => {$(
        impl<$($S: Strategy),+> Strategy for ($($S,)+) {
            type Value = ($($S::Value,)+);

            fn generate(&self, rng: &mut SmallRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }

            fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
                let mut out: Vec<Self::Value> = Vec::new();
                $(
                    for cand in self.$idx.shrink(&value.$idx).into_iter() {
                        let mut next = value.clone();
                        next.$idx = cand;
                        out.push(next);
                    }
                )+
                out.reverse(); // right-to-left: sizes before seeds
                out
            }
        }
    )*};
}

impl_tuple_strategy! {
    (A/0)
    (A/0, B/1)
    (A/0, B/1, C/2)
    (A/0, B/1, C/2, D/3)
    (A/0, B/1, C/2, D/3, E/4)
}

// ------------------------------------------------------------- running --

/// A shrunk failure report.
#[derive(Clone, Debug)]
pub struct Failure<V> {
    /// Seed reproducing the failing case (`HOAS_PROP_CASE=<this>`).
    pub case_seed: u64,
    /// Index of the failing case within the run.
    pub case_index: u32,
    /// The originally generated counterexample.
    pub original: V,
    /// The counterexample after greedy shrinking.
    pub shrunk: V,
    /// How many shrink candidates were evaluated.
    pub shrink_steps: u32,
    /// The failure message of the shrunk case.
    pub message: String,
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("panicked: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("panicked: {s}")
    } else {
        "panicked (non-string payload)".to_string()
    }
}

thread_local! {
    static QUIET_PANICS: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Installs (once, process-wide) a panic hook that stays silent while this
/// thread is inside a property case. Panics are converted to failures and
/// reported by the runner; the default hook would spam stderr during
/// shrinking.
fn install_quiet_hook() {
    static INIT: std::sync::Once = std::sync::Once::new();
    INIT.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !QUIET_PANICS.with(|q| q.get()) {
                prev(info);
            }
        }));
    });
}

fn run_case<V>(test: &impl Fn(&V) -> Result<(), String>, value: &V) -> Result<(), String> {
    install_quiet_hook();
    QUIET_PANICS.with(|q| q.set(true));
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| test(value)));
    QUIET_PANICS.with(|q| q.set(false));
    match outcome {
        Ok(r) => r,
        Err(payload) => Err(panic_message(payload)),
    }
}

/// Runs the property, returning the number of cases passed or the shrunk
/// failure. This is the programmatic entry point ([`run`] is the panicking
/// wrapper the [`crate::props!`] macro uses); it is public so the harness
/// can be meta-tested.
pub fn check<S: Strategy>(
    cfg: &Config,
    strat: &S,
    test: impl Fn(&S::Value) -> Result<(), String>,
) -> Result<u32, Failure<S::Value>> {
    if let Some(case_seed) = cfg.repro_case {
        let mut rng = SmallRng::seed_from_u64(case_seed);
        let value = strat.generate(&mut rng);
        return match run_case(&test, &value) {
            Ok(()) => Ok(1),
            Err(message) => Err(shrink_failure(
                cfg, strat, &test, case_seed, 0, value, message,
            )),
        };
    }
    let mut mix = SplitMix64::new(cfg.seed);
    for i in 0..cfg.cases {
        let case_seed = mix.next_u64();
        let mut rng = SmallRng::seed_from_u64(case_seed);
        let value = strat.generate(&mut rng);
        if let Err(message) = run_case(&test, &value) {
            return Err(shrink_failure(
                cfg, strat, &test, case_seed, i, value, message,
            ));
        }
    }
    Ok(cfg.cases)
}

fn shrink_failure<S: Strategy>(
    cfg: &Config,
    strat: &S,
    test: &impl Fn(&S::Value) -> Result<(), String>,
    case_seed: u64,
    case_index: u32,
    original: S::Value,
    message: String,
) -> Failure<S::Value> {
    let mut shrunk = original.clone();
    let mut best_message = message;
    let mut steps = 0u32;
    'outer: while steps < cfg.max_shrink_steps {
        for cand in strat.shrink(&shrunk) {
            steps += 1;
            if let Err(m) = run_case(test, &cand) {
                shrunk = cand;
                best_message = m;
                continue 'outer;
            }
            if steps >= cfg.max_shrink_steps {
                break;
            }
        }
        break;
    }
    Failure {
        case_seed,
        case_index,
        original,
        shrunk,
        shrink_steps: steps,
        message: best_message,
    }
}

/// Runs the property and panics with a reproduction report on failure.
pub fn run<S: Strategy>(
    name: &str,
    cfg: &Config,
    strat: S,
    test: impl Fn(&S::Value) -> Result<(), String>,
) {
    if let Err(f) = check(cfg, &strat, test) {
        panic!(
            "property {name} failed at case {idx}\n\
             \x20 case seed: {seed:#018x}  (re-run: HOAS_PROP_CASE={seed:#x} cargo test {short})\n\
             \x20 original:  {orig:?}\n\
             \x20 shrunk:    {shrunk:?}  ({steps} shrink steps)\n\
             \x20 cause:     {msg}",
            idx = f.case_index,
            seed = f.case_seed,
            short = name.rsplit("::").next().unwrap_or(name),
            orig = f.original,
            shrunk = f.shrunk,
            steps = f.shrink_steps,
            msg = f.message,
        );
    }
}

// -------------------------------------------------------------- macros --

/// Declares property tests.
///
/// ```ignore
/// use hoas_testkit::prelude::*;
///
/// props! {
///     #![cases(128)]
///
///     fn addition_commutes(a in 0u32..1000, b in 0u32..1000) {
///         prop_assert_eq!(a + b, b + a);
///     }
/// }
/// ```
///
/// Each `fn` becomes a `#[test]` running `cases` deterministic cases
/// (default 64) under the workspace seed; see [`Config::from_env`] for the
/// environment overrides. The body may use [`crate::prop_assert!`] /
/// [`crate::prop_assert_eq!`], `return Ok(())` for an early pass, or
/// `return Err(msg)` for an explicit failure; plain `assert!`/`unwrap`
/// panics are caught and shrunk too.
#[macro_export]
macro_rules! props {
    (#![cases($cases:expr)] $($rest:tt)*) => {
        $crate::__props_inner! { $cases; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__props_inner! { 64; $($rest)* }
    };
}

#[macro_export]
#[doc(hidden)]
macro_rules! __props_inner {
    ($cases:expr; $(
        $(#[$meta:meta])*
        fn $name:ident( $($arg:ident in $strat:expr),+ $(,)? ) $body:block
    )*) => {$(
        $(#[$meta])*
        #[test]
        fn $name() {
            let cfg = $crate::prop::Config::from_env($cases);
            let strat = ($($strat,)+);
            $crate::prop::run(
                concat!(module_path!(), "::", stringify!($name)),
                &cfg,
                strat,
                |__value| {
                    let ($($arg,)+) = __value.clone();
                    let __body = || -> ::std::result::Result<(), ::std::string::String> {
                        $body
                        #[allow(unreachable_code)]
                        Ok(())
                    };
                    __body()
                },
            );
        }
    )*};
}

/// Asserts a condition inside a [`props!`] body, failing the case (and
/// triggering shrinking) instead of panicking.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::std::result::Result::Err(
                format!("assertion failed: {}", stringify!($cond)),
            );
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err(
                format!("assertion failed: {} — {}", stringify!($cond), format!($($fmt)+)),
            );
        }
    };
}

/// Asserts equality inside a [`props!`] body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if l != r {
            return ::std::result::Result::Err(format!(
                "assertion failed: {} == {}\n  left:  {l:?}\n  right: {r:?}",
                stringify!($left),
                stringify!($right),
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if l != r {
            return ::std::result::Result::Err(format!(
                "assertion failed: {} == {} — {}\n  left:  {l:?}\n  right: {r:?}",
                stringify!($left),
                stringify!($right),
                format!($($fmt)+),
            ));
        }
    }};
}

/// Asserts inequality inside a [`props!`] body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if l == r {
            return ::std::result::Result::Err(format!(
                "assertion failed: {} != {}\n  both: {l:?}",
                stringify!($left),
                stringify!($right),
            ));
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_runs_all_cases() {
        let cfg = Config::with_cases(100);
        let n = check(&cfg, &(0u32..50,), |&(v,)| {
            if v < 50 {
                Ok(())
            } else {
                Err("out of range".into())
            }
        })
        .unwrap();
        assert_eq!(n, 100);
    }

    #[test]
    fn deterministic_case_sequence() {
        // Same config ⇒ the same sequence of generated values.
        let cfg = Config::with_cases(32);
        let collect = || {
            let seen = std::cell::RefCell::new(Vec::new());
            let _ = check(&cfg, &(seeds(), 0usize..1000), |v| {
                seen.borrow_mut().push(*v);
                Ok(())
            });
            seen.into_inner()
        };
        assert_eq!(collect(), collect());
    }

    #[test]
    fn failure_shrinks_to_boundary() {
        let cfg = Config::with_cases(500);
        let f = check(&cfg, &(0u32..1000,), |&(v,)| {
            if v < 7 {
                Ok(())
            } else {
                Err("too big".into())
            }
        })
        .unwrap_err();
        assert_eq!(f.shrunk.0, 7, "greedy shrink finds the boundary");
        assert!(f.message.contains("too big"));
    }

    #[test]
    fn failing_seed_reproduces_failure() {
        // The acceptance meta-test: a failing property reports a case
        // seed, and re-running with exactly that seed reproduces the
        // failure.
        let cfg = Config::with_cases(500);
        let prop = |&(v,): &(u32,)| {
            if v % 97 != 13 {
                Ok(())
            } else {
                Err("hit".into())
            }
        };
        let f = check(&cfg, &(0u32..10_000,), prop).unwrap_err();
        // Re-run in single-case repro mode, as HOAS_PROP_CASE would.
        let repro = Config {
            repro_case: Some(f.case_seed),
            ..Config::default()
        };
        let f2 = check(&repro, &(0u32..10_000,), prop).unwrap_err();
        assert_eq!(
            f2.original.0, f.original.0,
            "case seed regenerates the same input"
        );
        // And a *different* case seed does not (almost surely) hit the
        // same original value.
        let other = Config {
            repro_case: Some(f.case_seed ^ 1),
            ..Config::default()
        };
        match check(&other, &(0u32..10_000,), prop) {
            Ok(_) => {}
            Err(g) => assert_ne!(g.original.0, f.original.0),
        }
    }

    #[test]
    fn panics_are_caught_and_shrunk() {
        let cfg = Config::with_cases(200);
        let f = check(&cfg, &(0usize..100,), |&(v,)| {
            assert!(v < 5, "boom at {v}");
            Ok(())
        })
        .unwrap_err();
        assert_eq!(f.shrunk.0, 5);
        assert!(
            f.message.contains("boom"),
            "panic message preserved: {}",
            f.message
        );
    }

    #[test]
    fn tuple_shrinking_prefers_trailing_components() {
        // (seed, size): the size component should reach its minimum.
        let cfg = Config::with_cases(50);
        let f = check(&cfg, &(seeds(), 2usize..40), |&(_, size)| {
            if size < 2 {
                Ok(())
            } else {
                Err("always fails".into())
            }
        })
        .unwrap_err();
        assert_eq!(f.shrunk.1, 2, "size shrinks to its lower bound");
    }

    #[test]
    fn early_return_ok_passes() {
        let cfg = Config::with_cases(10);
        assert!(check(&cfg, &(0u32..10,), |_| Ok(())).is_ok());
    }

    props! {
        #![cases(64)]

        fn macro_smoke(a in 0u32..100, b in 0u32..100) {
            prop_assert_eq!(a + b, b + a);
            prop_assert!(a < 100 && b < 100);
        }

        fn macro_early_return(n in 0u32..10) {
            if n > 100 {
                return Err("unreachable".into());
            }
            if n == 0 {
                return Ok(());
            }
            prop_assert!(n >= 1);
        }
    }
}
