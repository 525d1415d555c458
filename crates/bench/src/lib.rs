//! # hoas-bench — workloads, baselines, and the experiment harness
//!
//! Support code for reproducing the paper's evaluation (see
//! `EXPERIMENTS.md` at the workspace root for the experiment index):
//!
//! * [`workloads`] — deterministic seeded workload generators for the
//!   report harness;
//! * [`baseline`] — hand-written **first-order** implementations of the
//!   paper's transformations (prenex normal form with explicit renaming,
//!   an imperative-language optimizer on the named AST). These are the
//!   comparators: the code HOAS renders unnecessary;
//! * [`parallel`] — the work-stealing batch driver that fans independent
//!   normalization queries across a thread pool over one shared term
//!   store (the scaling harness for the sharded interner).
//!
//! Run `cargo run --release -p hoas-bench --bin report` to regenerate
//! every experiment table; end-to-end timing lives in the separate
//! `perfbench` package.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod parallel;
pub mod workloads;
