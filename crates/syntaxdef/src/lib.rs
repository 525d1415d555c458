//! # hoas-syntaxdef — the Ergo-style "syntax" facility
//!
//! The paper's implementation section describes a facility in the Ergo
//! Support System that takes an object-language *grammar declaration* —
//! productions annotated with binding structure — and generates the HOAS
//! representation automatically: one metalanguage base type per
//! nonterminal, one constant per production, with binding positions given
//! functional types.
//!
//! This crate reproduces that facility:
//!
//! * [`def`] — [`def::LanguageDef`]: a builder for declaring sorts and
//!   productions (with [`def::Arg::binding`] marking binder positions),
//!   validated and compiled to a [`hoas_core::sig::Signature`];
//! * [`table`] — [`table::Table`]: a `LanguageDef` compiled to its
//!   signature and a production table indexed by constant, with the one
//!   explicit-stack encoder and decoder over it. Sorts, arities, `int`
//!   positions, λs at binding positions and binder freshening are
//!   checked there once; an object language supplies a *view* of its AST
//!   and a *builder* for it, so a new object language gets adequate HOAS
//!   encode/decode *for free* (`hoas-langs`' four languages are such
//!   views and builders);
//! * [`bridge`] — the view and builder for the first-order trees of
//!   `hoas-firstorder`: generic encode/decode of any `LanguageDef`;
//! * [`grammar`] — the textual front end: `language lc { sort tm; prod
//!   lam : (tm) tm -> tm; … }` parsed to a `LanguageDef` (and printed
//!   back via `Display`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bridge;
pub mod def;
pub mod grammar;
pub mod table;

pub use bridge::{decode, encode, BridgeError};
pub use def::{Arg, DefError, LanguageDef, Production};
pub use grammar::parse_language_def;
pub use table::{Head, Part, Pieces, Table};
