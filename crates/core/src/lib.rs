//! # hoas-core — the HOAS metalanguage kernel
//!
//! This crate implements the typed λ-calculus metalanguage of
//! *Pfenning & Elliott, "Higher-Order Abstract Syntax", PLDI 1988*: a simply
//! typed λ-calculus with products, unit, integer literals, and ML-style
//! (prenex-polymorphic) constants, in which object-language binding
//! constructs are represented as meta-level functions.
//!
//! The central payoff of the paper is that, once an object language is
//! encoded this way,
//!
//! * object-language **substitution** is meta-level **β-reduction**
//!   ([`normalize::happly`], [`normalize::nf`]),
//! * object-language **renaming** is meta-level **α-conversion** (terms are
//!   de Bruijn, so α-equivalence is structural equality),
//! * object-language **syntactic analysis** of binding structure is
//!   meta-level **higher-order matching** (see the `hoas-unify` crate).
//!
//! ## Representation
//!
//! Terms ([`term::Term`]) use de Bruijn indices with printing *hints*;
//! equality ignores hints, so `==` *is* α-equivalence. Types ([`ty::Ty`])
//! are simple types over declared base types, with numbered type variables
//! used both for constant type schemas ([`ty::TyScheme`]) and during type
//! reconstruction ([`infer`]).
//!
//! ## Canonical forms
//!
//! Following the logical-framework tradition the paper initiated, adequacy
//! of encodings is stated for *canonical* (η-long β-normal) terms.
//! [`normalize`] provides β-normalization by hereditary substitution and
//! typed η-expansion to canonical form; [`typeck`] checks canonical terms
//! bidirectionally.
//!
//! ## Quick example
//!
//! ```
//! use hoas_core::prelude::*;
//!
//! // Signature for the untyped λ-calculus.
//! let sig = Signature::parse(
//!     "type tm.
//!      const lam : (tm -> tm) -> tm.
//!      const app : tm -> tm -> tm.",
//! )?;
//!
//! // (λx. x x) encoded: lam (\x. app x x)
//! let t = parse_term(&sig, r"lam (\x. app x x)")?.term;
//! let ty = infer::reconstruct(&sig, &t)?;
//! assert_eq!(ty.to_string(), "tm");
//!
//! // β-reduction performs object-level substitution for free:
//! let redex = parse_term(&sig, r"(\x. app x x) (lam (\y. y))")?.term;
//! let nf = normalize::nf(&redex);
//! assert_eq!(nf, parse_term(&sig, r"app (lam (\y. y)) (lam (\y. y))")?.term);
//! # Ok::<(), hoas_core::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod build;
pub mod codec;
pub mod ctx;
pub mod error;
pub mod infer;
pub mod intern;
pub mod normalize;
pub mod parse;
pub mod print;
pub mod scope;
pub mod sig;
pub mod store;
pub mod sub;
pub mod subst;
pub mod term;
pub mod ty;
pub mod typeck;
pub mod validate;

/// The deepest type [`parse::parse_ty`] and [`parse::parse_sig`] accept,
/// counting one level per parenthesis and per right operand of `->` or
/// `*`; deeper input is an [`Error::Parse`], not a stack overflow.
///
/// Types are boxed trees that every consumer walks recursively, so they
/// stay shallow by construction: bundled signatures nest a few levels,
/// and the parser fits this limit in a 2 MiB thread stack (the default
/// for spawned threads) in debug builds. Terms need no such limit:
/// [`parse::parse_term`] and [`typeck`] keep their nesting on explicit
/// heap stacks, so they handle terms of any depth.
pub const MAX_TY_NESTING: u32 = 256;

pub use error::Error;
pub use intern::Sym;
pub use store::{InternStats, NodeId, StoreHandle};
pub use term::{MVar, Term, TermRef};
pub use ty::{Ty, TyScheme};

/// Commonly used items, re-exported for glob import.
pub mod prelude {
    pub use crate::build::{app, apps, c, fst, int, lam, mvar, pair, snd, unit, BTerm};
    pub use crate::ctx::Ctx;
    pub use crate::error::Error;
    pub use crate::infer;
    pub use crate::intern::Sym;
    pub use crate::normalize;
    pub use crate::parse::{parse_term, parse_ty};
    pub use crate::sig::Signature;
    pub use crate::store::{InternStats, NodeId, StoreHandle};
    pub use crate::subst;
    pub use crate::term::{MVar, MetaEnv, Term, TermRef};
    pub use crate::ty::{Ty, TyScheme};
    pub use crate::typeck;
}
