//! # hoas-lp — a λProlog-style logic programming engine
//!
//! The HOAS paper situates itself next to λProlog: once object languages
//! are represented with higher-order abstract syntax, *logic programming
//! over them* needs exactly the machinery this workspace provides —
//! higher-order (pattern) unification and a scope discipline for binders.
//! This crate closes that loop with an interpreter for a hereditary
//! Harrop fragment:
//!
//! ```text
//! clauses  D ::= ∀x̄. A :- G₁, …, Gₙ
//! goals    G ::= ⊤ | A | G ∧ G | D ⇒ G | Π x:τ. G
//! ```
//!
//! * `Π x:τ. G` (universal goal) introduces a fresh **eigenvariable** —
//!   a scoped object-level variable that no pre-existing metavariable
//!   may capture;
//! * `D ⇒ G` (hypothetical implication) adds a clause for the duration
//!   of `G`.
//!
//! Together they give the signature-style encodings their natural
//! operational reading. The classic example — a type checker for the
//! object λ-calculus in **two clauses** ([`examples::stlc_program`]):
//!
//! ```text
//! of (app ?M ?N) ?B :- of ?M (arr ?A ?B), of ?N ?A.
//! of (lam ?F) (arr ?A ?B) :- pi x. (of x ?A => of (?F x) ?B).
//! ```
//!
//! No context data structure, no weakening lemma, no freshness side
//! conditions: the metalanguage's binders do all of it.
//!
//! Resolution uses [`hoas_unify::pattern`] (most general unifiers); goals
//! that fall outside the pattern fragment *flounder* (reported as
//! [`LpError::Floundered`]) rather than being searched unsoundly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cert;
pub mod examples;
pub mod program;
pub mod solve;
pub mod table;

pub use cert::{Mode, PredVerdict, ProgramCert};
pub use program::{Clause, Goal, Program};
pub use solve::{solve, solve_certified, solve_with, Answer, CutBy, LpError, Outcome, SolveConfig};
pub use table::{EntryState, SolveTables, TableAnswer, TableEntry, TableMode, TableStats};
