//! # hoas-rewrite — program transformation by higher-order rewriting
//!
//! The paper's Section 4 expresses program transformations as rewrite
//! rules whose left-hand sides are higher-order patterns; applying a rule
//! is higher-order matching, and binding side conditions ("x does not
//! occur in P") are expressed by *not* applying a metavariable to the
//! bound variable. This crate provides:
//!
//! * [`rule`] — typed rewrite rules (pattern → template) with
//!   type-preservation checked at construction, plus *native* rules
//!   (Rust functions) for arithmetic folding the metalanguage cannot
//!   express;
//! * [`engine`] — matching-driven rewriting with leftmost-outermost and
//!   leftmost-innermost strategies, rewriting soundly **under binders**
//!   (the ambient-context machinery of `hoas-unify`);
//! * [`rulesets`] — the paper's transformation suites: prenex normal form
//!   for first-order logic, optimization of the imperative language
//!   (constant folding, dead-declaration elimination), and Mini-ML
//!   simplifications;
//! * [`analysis`] — static analysis of rule sets: pattern-fragment
//!   classification, linearity and scoping lints, shadowing,
//!   trivial-non-termination, and root-overlap (critical-pair) detection,
//!   consumed by the `hoas-analyze` diagnostics front end.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod cert;
pub mod engine;
pub mod image;
pub mod rule;
pub mod rulesets;

pub use analysis::{Overlap, RuleInfo, RuleSetAnalysis};
pub use cert::TerminationCert;
pub use engine::{
    Engine, EngineCaches, EngineConfig, EngineStats, MatchPath, NormalizeResult, RewriteStep,
    Strategy,
};
pub use rule::{NativeRule, RewriteError, Rule, RuleSet};
