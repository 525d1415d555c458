//! # hoas-langs — object languages and their HOAS encodings
//!
//! The paper demonstrates higher-order abstract syntax on concrete object
//! languages; this crate reproduces those figures as executable artifacts.
//! Each module provides, for one object language:
//!
//! * a conventional named AST (what a compiler writer would start from),
//! * its grammar as text, which the syntax facility (`hoas-syntaxdef`)
//!   compiles to a [`hoas_core::sig::Signature`] declaring the HOAS
//!   representation types and to a production table,
//! * `encode` / `decode` witnessing **adequacy**: a compositional
//!   bijection between ASTs (up to α) and canonical terms of the
//!   representation type (exotic terms are rejected by `decode`). Both
//!   run the syntax facility's one explicit-stack walker over the table;
//!   the module supplies only a *view* (what an AST node is: a variable,
//!   or a production and its parts) and a *builder* (a production and
//!   its decoded pieces to an AST node), so sort, arity and binder
//!   checks and binder freshening are written once for all four,
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

/// Declares a language's decoded node: one variant per sort, each with an
/// accessor that unwraps it (the decoder has checked the sort, so the
/// builder's other cases cannot happen).
macro_rules! sorted_nodes {
    ($(#[$m:meta])* enum $name:ident { $($variant:ident($ty:ty) => $get:ident),* $(,)? }) => {
        $(#[$m])*
        enum $name { $($variant($ty)),* }
        impl $name {
            $(fn $get(self) -> $ty {
                match self {
                    $name::$variant(x) => x,
                    _ => unreachable!("the decoder checked the sort"),
                }
            })*
        }
    };
}

/// Declares a language's production ids from one list: for each
/// `ID = "name"`, in its grammar's order, a `const ID: u32` (the
/// production's index, which views and builders match on) and the name
/// in `PRODUCTIONS`, which [`compile`] checks against the grammar.
macro_rules! productions {
    (@ids $n:expr;) => {};
    (@ids $n:expr; $id:ident $($rest:ident)*) => {
        const $id: u32 = $n;
        productions!(@ids $n + 1; $($rest)*);
    };
    ($($id:ident = $name:literal),* $(,)?) => {
        const PRODUCTIONS: &[&str] = &[$($name),*];
        productions!(@ids 0; $($id)*);
    };
}

pub mod fol;
pub mod imp;
pub mod lambda;
pub mod miniml;
pub mod miniml_types;

use hoas_syntaxdef::{BridgeError, Table};

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

/// Compiles a grammar whose productions are `prods`, in this order (a
/// language's `PRODUCTIONS`, see `productions!`).
///
/// # Panics
///
/// If the grammar does not compile or lists other productions — a
/// programming error in the language's module.
pub(crate) fn compile(grammar: &str, prods: &[&str]) -> Table {
    let def = hoas_syntaxdef::parse_language_def(grammar).expect("the grammar parses");
    let listed = def.productions().iter().map(|p| p.name.as_str());
    assert!(
        listed.eq(prods.iter().copied()),
        "production ids out of date"
    );
    Table::new(&def).expect("the grammar compiles")
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

impl From<BridgeError> for LangError {
    fn from(e: BridgeError) -> Self {
        match e {
            BridgeError::Unbound { name, .. } => LangError::UnboundVar(name),
            BridgeError::NotCanonical(msg) => LangError::NotCanonical(msg),
            other => LangError::NotCanonical(other.to_string()),
        }
    }
}

impl From<hoas_core::Error> for LangError {
    fn from(e: hoas_core::Error) -> Self {
        LangError::Core(e)
    }
}
