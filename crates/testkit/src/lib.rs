//! # hoas-testkit — hermetic test infrastructure for the HOAS workspace
//!
//! The workspace's tier-1 verify (`cargo build --release && cargo test -q`)
//! must run with **zero network access**: no crates.io, no registry. This
//! crate replaces the external `rand` and `proptest`
//! dev-dependencies with small, deterministic, vendored equivalents —
//! exactly the slices of those APIs the repo uses, and nothing else:
//!
//! * [`rng`] — a [`rng::SplitMix64`] seeder and [`rng::SmallRng`]
//!   (xoshiro256**) main generator behind a `rand`-style [`rng::Rng`]
//!   trait (`gen_range`, `gen_bool`, `choose`);
//! * [`prop`] — a property-test runner with per-case seeds, failure-seed
//!   reporting, greedy shrinking, and the [`props!`] declaration macro
//!   plus [`prop_assert!`]-style assertion macros;
//! * [`gen`] — size-bounded generators for simple types, signatures,
//!   well-typed canonical terms, λProlog reachability programs (with an
//!   oracle), and terminating rewrite systems — all built on `hoas-core`'s
//!   builders.
//!
//! Determinism contract: every suite runs under the fixed default seed
//! [`prop::DEFAULT_SEED`]; the same seed always produces the same case
//! sequence (asserted by tests in [`rng`] and [`prop`]). A failing
//! property prints a case seed that reproduces exactly that case via
//! `HOAS_PROP_CASE=<seed>`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gen;
pub mod prop;
pub mod rng;

/// Runs `f` on a freshly spawned thread with a `stack_mib`-MiB stack and
/// returns its result, re-raising any panic on the calling thread.
///
/// Random λ-terms can produce intermediate reducts of unbounded depth
/// within a step-count fuel budget; tests that normalize or substitute
/// into such terms recurse on term depth and can exceed the default
/// test-thread stack. Wrapping the test body keeps plain `cargo test -q`
/// reliable without `RUST_MIN_STACK` in the environment.
pub fn with_stack<T: Send>(stack_mib: usize, f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|s| {
        std::thread::Builder::new()
            .stack_size(stack_mib * 1024 * 1024)
            .spawn_scoped(s, f)
            .expect("failed to spawn wide-stack test thread")
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    })
}

/// The common imports for a property-test file.
pub mod prelude {
    pub use crate::prop::{ascii_string, seeds, token_soup, Config, Just, Strategy};
    pub use crate::rng::{per_thread_seed, Rng, SmallRng};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, props};
}
