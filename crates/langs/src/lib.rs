//! # hoas-langs — object languages and their HOAS encodings
//!
//! The paper demonstrates higher-order abstract syntax on concrete object
//! languages; this crate reproduces those figures as executable artifacts.
//! Each module provides, for one object language:
//!
//! * a conventional named AST (what a compiler writer would start from),
//! * a [`hoas_core::sig::Signature`] declaring its HOAS representation
//!   types,
//! * `encode` / `decode` witnessing **adequacy**: a compositional
//!   bijection between ASTs (up to α) and canonical terms of the
//!   representation type (exotic terms are rejected by `decode`),
//! * a reference interpreter/semantics used to check that transformations
//!   preserve meaning,
//! * random generators for workloads (benchmarks E1–E8).
//!
//! Languages:
//!
//! * [`lambda`] — the untyped λ-calculus (the paper's first example:
//!   object-level substitution is metalanguage β-reduction);
//! * [`fol`] — first-order logic with quantifiers (the quantifier-rule
//!   figures; prenex-normal-form rules live in `hoas-rewrite`);
//! * [`miniml`] — a Mini-ML fragment (natural numbers, case, functions,
//!   let, fix) with native, HOAS-based, and environment-machine
//!   evaluators; [`miniml_types`] adds the object language's own
//!   Hindley–Milner discipline with let-polymorphism;
//! * [`imp`] — a small imperative language with declarations (`local`),
//!   the paper's program-transformation setting.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fol;
pub mod imp;
pub mod lambda;
pub mod miniml;
pub mod miniml_types;

/// Errors shared by the encoders/decoders in this crate.
#[derive(Clone, PartialEq, Eq, Debug)]
#[non_exhaustive]
pub enum LangError {
    /// A free variable that is not bound in the encoding environment.
    UnboundVar(String),
    /// The term is not a canonical inhabitant of the representation type
    /// (an "exotic" term, or simply the wrong shape).
    NotCanonical(String),
    /// Evaluation ran out of fuel (e.g. a divergent loop).
    OutOfFuel,
    /// A kernel error surfaced during encoding/decoding.
    Core(hoas_core::Error),
}

/// Decodes the body of a binder whose printing hint is `hint`: names the
/// binder by freshening the hint against the names in scope (`env`,
/// innermost last, tested in place — as
/// [`hoas_firstorder::named::fresh_name`] would against their set),
/// decodes `body` with that name pushed, and returns the name with the
/// result.
pub(crate) fn under_binder<T>(
    env: &mut Vec<String>,
    hint: &str,
    body: impl FnOnce(&mut Vec<String>) -> Result<T, LangError>,
) -> Result<(String, T), LangError> {
    let name = hoas_firstorder::named::fresh_name_by(hint, |n| env.iter().any(|s| s == n));
    env.push(name);
    let decoded = body(env);
    let name = env.pop().expect("the binder pushed above");
    Ok((name, decoded?))
}

impl std::fmt::Display for LangError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LangError::UnboundVar(x) => write!(f, "unbound object-language variable `{x}`"),
            LangError::NotCanonical(msg) => write!(f, "not a canonical encoding: {msg}"),
            LangError::OutOfFuel => write!(f, "evaluation fuel exhausted"),
            LangError::Core(e) => write!(f, "kernel error: {e}"),
        }
    }
}

impl std::error::Error for LangError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LangError::Core(e) => Some(e),
            _ => None,
        }
    }
}

impl From<hoas_core::Error> for LangError {
    fn from(e: hoas_core::Error) -> Self {
        LangError::Core(e)
    }
}
