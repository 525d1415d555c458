//! Generic conversion between first-order trees and HOAS terms, derived
//! from a [`LanguageDef`].
//!
//! This is the payoff of the syntax facility: **adequate encode/decode
//! for free**. [`encode`] takes a named [`Tree`] and produces the
//! metalanguage term of the expected sort, turning annotated scopes into
//! λs; [`decode`] inverts it, resurrecting fresh binder names. Exotic
//! terms (non-λ scopes, wrong arities, unknown operators) are rejected.
//! Both are the [`Table`](crate::table::Table) walker with a view and a
//! builder for trees, over the definition's table (compiled once, on
//! first use).

use crate::def::{Arg, DefError, LanguageDef};
use crate::table::{Head, Part};
use hoas_core::Term;
use hoas_firstorder::named::{Abs, Tree};
use std::fmt;

/// Errors from the generic encoder/decoder.
#[derive(Clone, PartialEq, Eq, Debug)]
#[non_exhaustive]
pub enum BridgeError {
    /// A variable is not bound, or is used at the wrong sort.
    Unbound {
        /// The variable name.
        name: String,
        /// The sort expected at the use site.
        expected: String,
    },
    /// An operator is not a production of the language (or used at the
    /// wrong sort / arity).
    BadOperator {
        /// The operator.
        op: String,
        /// Explanation.
        reason: String,
    },
    /// A term is not a canonical encoding (exotic or malformed).
    NotCanonical(String),
    /// The language definition does not validate.
    Def(DefError),
}

impl fmt::Display for BridgeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BridgeError::Unbound { name, expected } => {
                write!(f, "variable `{name}` unbound or not of sort `{expected}`")
            }
            BridgeError::BadOperator { op, reason } => {
                write!(f, "operator `{op}`: {reason}")
            }
            BridgeError::NotCanonical(msg) => write!(f, "not a canonical encoding: {msg}"),
            BridgeError::Def(e) => write!(f, "invalid language definition: {e}"),
        }
    }
}

impl std::error::Error for BridgeError {}

impl From<DefError> for BridgeError {
    fn from(e: DefError) -> Self {
        BridgeError::Def(e)
    }
}

/// Encodes a named tree as a metalanguage term of sort `sort`.
///
/// Binders in scopes must align with the production's
/// [`Arg::Binding`] annotations; leaf operators whose name parses as an
/// integer fill [`Arg::Int`] positions.
///
/// # Errors
///
/// See [`BridgeError`].
pub fn encode(def: &LanguageDef, sort: &str, tree: &Tree) -> Result<Term, BridgeError> {
    let table = def.table()?;
    table.encode(sort, tree, &[], |tree, parts| {
        let (op, scopes) = match tree {
            Tree::Var(x) => return Ok(Head::Var(x)),
            Tree::Node(op, scopes) => (op, scopes),
        };
        let bad = |reason: String| BridgeError::BadOperator {
            op: op.clone(),
            reason,
        };
        let id = table
            .production(op)
            .ok_or_else(|| bad("not a production of the language".into()))?;
        let args = &def.productions()[id as usize].args;
        for (k, scope) in scopes.iter().enumerate() {
            match (args.get(k), &scope.body) {
                (Some(Arg::Int), Tree::Node(n, leaf)) if leaf.is_empty() => {
                    if !scope.binders.is_empty() {
                        return Err(bad("unexpected binders at an int argument".into()));
                    }
                    let n = n
                        .parse()
                        .map_err(|_| bad(format!("`{n}` is not an integer literal")))?;
                    parts.push(Part::Int(n));
                }
                (Some(Arg::Int), other) => {
                    return Err(bad(format!("expected an integer literal, got {other}")))
                }
                (_, body) => {
                    parts.extend(scope.binders.iter().map(|b| Part::Name(b)));
                    parts.push(Part::Node(body));
                }
            }
        }
        Ok(Head::Prod(id))
    })
}

/// Decodes a canonical metalanguage term of sort `sort` back to a named
/// tree.
///
/// # Errors
///
/// [`BridgeError::NotCanonical`] on exotic or ill-formed terms.
pub fn decode(def: &LanguageDef, sort: &str, t: &Term) -> Result<Tree, BridgeError> {
    def.table()?
        .decode(sort, t, &[], |_, head, mut pieces| match head {
            Head::Var(x) => Tree::var(x),
            Head::Prod(id) => {
                let p = &def.productions()[id as usize];
                let mut scope = |arg: &Arg| match arg {
                    Arg::Sort(_) => Abs::plain(pieces.node()),
                    Arg::Int => Abs::plain(Tree::leaf(pieces.int().to_string())),
                    Arg::Binding { binders, .. } => Abs {
                        binders: binders.iter().map(|_| pieces.name()).collect(),
                        body: pieces.node(),
                    },
                };
                Tree::Node(p.name.clone(), p.args.iter().map(&mut scope).collect())
            }
            Head::Open(c) => Tree::Node(c.to_string(), pieces.nodes().map(Abs::plain).collect()),
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hoas_core::Ty;

    fn lc() -> LanguageDef {
        LanguageDef::new("lc")
            .sort("tm")
            .prod("lam", "tm", [Arg::binding("tm", "tm")])
            .prod("app", "tm", [Arg::sort("tm"), Arg::sort("tm")])
    }

    fn arith() -> LanguageDef {
        LanguageDef::new("arith")
            .sort("e")
            .prod("lit", "e", [Arg::Int])
            .prod("plus", "e", [Arg::sort("e"), Arg::sort("e")])
            .prod("letx", "e", [Arg::sort("e"), Arg::binding("e", "e")])
    }

    #[test]
    fn encodes_lambda_terms() {
        let def = lc();
        // lam(x. app(x; x))
        let tree = Tree::binder(
            "lam",
            "x",
            Tree::node("app", [Tree::var("x"), Tree::var("x")]),
        );
        let t = encode(&def, "tm", &tree).unwrap();
        assert_eq!(t.to_string(), r"lam (\x. app x x)");
        // The generated signature type-checks it.
        let sig = def.compile().unwrap();
        hoas_core::typeck::check_closed(&sig, &t, &Ty::base("tm")).unwrap();
    }

    #[test]
    fn roundtrip_with_shadowing() {
        let def = lc();
        let tree = Tree::binder("lam", "x", Tree::binder("lam", "x", Tree::var("x")));
        let t = encode(&def, "tm", &tree).unwrap();
        let back = decode(&def, "tm", &t).unwrap();
        assert!(back.alpha_eq(&tree));
    }

    #[test]
    fn a_binder_at_another_sort_does_not_hide_one_of_the_same_name() {
        // `lam` binds a term variable, `tlam` a type variable; in
        // `ann(x; x)` the first `x` is a term, the second a type.
        let def = LanguageDef::new("poly")
            .sort("tm")
            .sort("ty")
            .prod("lam", "tm", [Arg::binding("tm", "tm")])
            .prod("tlam", "tm", [Arg::binding("ty", "tm")])
            .prod("ann", "tm", [Arg::sort("tm"), Arg::sort("ty")]);
        let tree = Tree::binder(
            "lam",
            "x",
            Tree::binder(
                "tlam",
                "x",
                Tree::node("ann", [Tree::var("x"), Tree::var("x")]),
            ),
        );
        let t = encode(&def, "tm", &tree).unwrap();
        let Term::App(_, outer) = &t else {
            panic!("{t}")
        };
        let Term::Lam(_, body) = outer.term() else {
            panic!("{t}")
        };
        let Term::App(_, inner) = body.term() else {
            panic!("{t}")
        };
        let Term::Lam(_, ann) = inner.term() else {
            panic!("{t}")
        };
        let args = ann.term().spine().1;
        assert_eq!(args, [&Term::Var(1), &Term::Var(0)], "{t}");
        // Decoding freshens the inner binder, and the result re-encodes.
        let back = decode(&def, "tm", &t).unwrap();
        assert_eq!(back.to_string(), "lam(x.tlam(x1.ann(x; x1)))");
        assert_eq!(encode(&def, "tm", &back).unwrap(), t);
    }

    #[test]
    fn int_literals_roundtrip() {
        let def = arith();
        let tree = Tree::node(
            "plus",
            [
                Tree::node("lit", [Tree::leaf("3")]),
                Tree::node("lit", [Tree::leaf("-4")]),
            ],
        );
        let t = encode(&def, "e", &tree).unwrap();
        assert_eq!(t.to_string(), "plus (lit 3) (lit -4)");
        assert_eq!(decode(&def, "e", &t).unwrap(), tree);
    }

    #[test]
    fn let_binding_roundtrip() {
        let def = arith();
        let tree = Tree::Node(
            "letx".into(),
            vec![
                Abs::plain(Tree::node("lit", [Tree::leaf("1")])),
                Abs::bind("x", Tree::node("plus", [Tree::var("x"), Tree::var("x")])),
            ],
        );
        let t = encode(&def, "e", &tree).unwrap();
        assert_eq!(t.to_string(), r"letx (lit 1) (\x. plus x x)");
        assert!(decode(&def, "e", &t).unwrap().alpha_eq(&tree));
    }

    #[test]
    fn rejects_unbound_and_wrong_sort_vars() {
        let def = lc();
        assert!(matches!(
            encode(&def, "tm", &Tree::var("ghost")),
            Err(BridgeError::Unbound { .. })
        ));
    }

    #[test]
    fn rejects_arity_and_sort_mismatches() {
        let def = arith();
        let bad = Tree::node("plus", [Tree::node("lit", [Tree::leaf("1")])]);
        assert!(matches!(
            encode(&def, "e", &bad),
            Err(BridgeError::BadOperator { .. })
        ));
        let not_an_op = Tree::leaf("mystery");
        assert!(matches!(
            encode(&def, "e", &not_an_op),
            Err(BridgeError::BadOperator { .. })
        ));
        let bad_lit = Tree::node("lit", [Tree::leaf("abc")]);
        assert!(matches!(
            encode(&def, "e", &bad_lit),
            Err(BridgeError::BadOperator { .. })
        ));
    }

    #[test]
    fn decode_rejects_exotic_scope() {
        let def = arith();
        // letx (lit 1) (lit 2) — second argument should be a λ.
        let t = Term::apps(
            Term::cnst("letx"),
            [
                Term::app(Term::cnst("lit"), Term::Int(1)),
                Term::app(Term::cnst("lit"), Term::Int(2)),
            ],
        );
        assert!(matches!(
            decode(&def, "e", &t),
            Err(BridgeError::NotCanonical(_))
        ));
    }

    #[test]
    fn decode_rejects_wrong_arity() {
        let def = arith();
        let t = Term::app(
            Term::cnst("plus"),
            Term::app(Term::cnst("lit"), Term::Int(1)),
        );
        assert!(decode(&def, "e", &t).is_err());
    }
}
