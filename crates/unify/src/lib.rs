//! # hoas-unify — higher-order unification and matching
//!
//! The HOAS paper (Pfenning & Elliott, PLDI 1988) proposes higher-order
//! *matching and unification* as the mechanism for syntactic analysis of
//! binding structure: a transformation rule like
//!
//! ```text
//! forall (\x. and ?P (?Q x))  ~>  and ?P (forall (\x. ?Q x))
//! ```
//!
//! uses the metavariable `?P` *not applied to* `x` to express "a subformula
//! in which `x` does not occur" — the side condition that makes quantifier
//! movement sound comes for free from unification. This crate provides:
//!
//! * [`pattern`] — **Miller pattern unification**: the decidable,
//!   most-general-unifier fragment where metavariables are applied to
//!   distinct bound variables. All rules in the paper's figures live here.
//! * [`huet`] — **Huet's pre-unification** procedure with imitation and
//!   projection bindings and bounded search, for problems outside the
//!   pattern fragment (the algorithm the paper's Ergo implementation used).
//! * [`matching`] — higher-order matching (pattern-first with Huet
//!   fallback), the operation driving the `hoas-rewrite` engine.
//! * [`msubst`] — metavariable substitutions and their (normalizing)
//!   application.
//!
//! ## Scope discipline
//!
//! A [`problem::Constraint`] distinguishes *ambient* variables
//! (in scope where the problem was posed — e.g. binders enclosing a rewrite
//! position; solutions may mention them freely) from *constraint-local*
//! variables (introduced by decomposing λs during solving; solutions may
//! only access them through a metavariable's argument spine). This is what
//! makes rewriting under binders sound.
//!
//! ## Restrictions
//!
//! Metavariable types must be built from base types, `int`, and arrows —
//! no products or unit (mirroring LF-family implementations, which have no
//! products in the unification fragment). Rigid pairs and units in
//! *constraints* are fine; they decompose structurally.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod classify;
pub mod error;
pub mod huet;
pub mod matching;
pub mod msubst;
pub mod pattern;
pub mod problem;

pub use error::UnifyError;
pub use msubst::MetaSubst;
pub use problem::Constraint;
