//! Bidirectional type checking for β-normal terms.
//!
//! The checker is the fast, reconstruction-free path used throughout the
//! object-language encodings (which are all monomorphic). It is
//! syntax-directed on β-normal terms:
//!
//! * **checking** ([`check`]) pushes a known type into introduction forms
//!   (λ against arrow, pair against product, …);
//! * **synthesis** ([`synth`]) pulls a type out of neutral terms by
//!   walking their spine from a variable/constant/metavariable head.
//!
//! Types are borrowed throughout — from the signature, the [`MetaEnv`],
//! the context, and the types being checked against — so a check clones
//! no type unless it fails. The binders a check enters live on one local
//! stack of borrowed types, and the traversal keeps its continuations on
//! an explicit stack, so a term of any depth checks without deep host
//! recursion.
//!
//! Polymorphic constants cannot be handled without unification; the
//! checker reports [`Error::PolyConstInChecking`] and callers fall back to
//! [`crate::infer`].
//!
//! The same machine, in a strict-η mode, decides canonicity for
//! [`crate::normalize::is_canonical`]: there a neutral term checked at an
//! arrow, product or unit type (which [`crate::normalize::canon`] would
//! η-expand) fails the check, and so does any check at a type variable.

use crate::ctx::Ctx;
use crate::error::Error;
use crate::sig::Signature;
use crate::term::{MetaEnv, MetaTypes, Term};
use crate::ty::Ty;

/// What the checker does next.
enum Step<'a> {
    /// Check a term against a type.
    Check(&'a Term, &'a Ty),
    /// Synthesize a term's type.
    Synth(&'a Term),
    /// Hand a finished check to the continuation on top.
    Checked,
    /// Hand a synthesized type to the continuation on top.
    Synthed(&'a Ty),
}

/// A check or synthesis under way, awaiting a finished sub-derivation.
/// The order continuations resume in is the order the recursive
/// formulation visits subterms, so the first error reported is the same.
enum Kont<'a> {
    /// Leave the λ-binders entered above this many locals.
    Unbind(usize),
    /// Check a pair's second component.
    Check(&'a Term, &'a Ty),
    /// A synthesized type must equal this one.
    Expect(&'a Ty),
    /// An application spine's head type: apply it to the arguments on
    /// `args` above this mark.
    Head(usize),
    /// An argument was checked: apply the rest of the function type to
    /// the remaining arguments above the mark.
    Args(usize, &'a Ty),
    /// Project a synthesized product type: `fst` (`true`) or `snd`.
    Proj(bool),
}

/// One check or synthesis: the fixed environment plus the machine's
/// stacks.
struct Checker<'a> {
    sig: &'a Signature,
    menv: &'a dyn MetaTypes,
    ctx: &'a Ctx,
    /// Strict η: only an η-long term passes (see the module docs).
    strict: bool,
    /// Types of the λ-binders entered inside `ctx`, innermost last.
    locals: Vec<&'a Ty>,
    /// Arguments of the application spines under way, the next one to
    /// check last.
    args: Vec<&'a Term>,
    konts: Vec<Kont<'a>>,
}

static INT: Ty = Ty::Int;

impl<'a> Checker<'a> {
    fn new(sig: &'a Signature, menv: &'a dyn MetaTypes, ctx: &'a Ctx) -> Checker<'a> {
        Checker {
            sig,
            menv,
            ctx,
            strict: false,
            locals: Vec::new(),
            args: Vec::new(),
            konts: Vec::new(),
        }
    }

    /// Runs the machine from `step` until its continuations are spent:
    /// `None` after a check, the type after a synthesis. An error ends
    /// the run at once, leaving the stacks as they are.
    fn run(&mut self, mut step: Step<'a>) -> Result<Option<&'a Ty>, Error> {
        loop {
            step = match step {
                Step::Check(t, ty) => self.check(t, ty)?,
                Step::Synth(t) => self.synth(t)?,
                Step::Checked => match self.konts.pop() {
                    None => return Ok(None),
                    Some(Kont::Unbind(outer)) => {
                        self.locals.truncate(outer);
                        Step::Checked
                    }
                    Some(Kont::Check(t, ty)) => Step::Check(t, ty),
                    Some(Kont::Args(mark, fty)) => self.apply(mark, fty)?,
                    Some(_) => unreachable!("a continuation awaiting a type"),
                },
                Step::Synthed(found) => match self.konts.pop() {
                    None => return Ok(Some(found)),
                    Some(Kont::Expect(ty)) if found == ty => Step::Checked,
                    Some(Kont::Expect(ty)) => {
                        return Err(Error::TypeMismatch {
                            expected: ty.clone(),
                            found: found.clone(),
                        })
                    }
                    Some(Kont::Head(mark)) => self.apply(mark, found)?,
                    Some(Kont::Proj(fst)) => match found {
                        Ty::Prod(a, b) => Step::Synthed(if fst { a } else { b }),
                        other => return Err(Error::NotAProduct { ty: other.clone() }),
                    },
                    Some(_) => unreachable!("a continuation awaiting a check"),
                },
            };
        }
    }

    fn check(&mut self, mut t: &'a Term, mut ty: &'a Ty) -> Result<Step<'a>, Error> {
        // A run of λs against arrows is entered in one go.
        let outer = self.locals.len();
        while let (Term::Lam(_, body), Ty::Arrow(dom, cod)) = (t, ty) {
            self.locals.push(dom);
            (t, ty) = (body, cod);
        }
        if self.locals.len() > outer {
            self.konts.push(Kont::Unbind(outer));
        }
        let form = match (t, ty) {
            (Term::Pair(a, b), Ty::Prod(ta, tb)) => {
                self.konts.push(Kont::Check(b, tb));
                return Ok(Step::Check(a, ta));
            }
            (Term::Unit, Ty::Unit) | (Term::Int(_), Ty::Int) => return Ok(Step::Checked),
            // Not η-long: an η-short neutral, or a term at a type
            // variable. Nothing is cloned; the caller only asks whether
            // the check passed.
            _ if self.strict && !matches!(ty, Ty::Base(_) | Ty::Int) => {
                return Err(Error::NotNeutral)
            }
            (Term::Lam(..), _) => "λ-abstraction",
            (Term::Pair(..), _) => "pair",
            (Term::Unit, _) => "unit value",
            (Term::Int(_), _) => "integer literal",
            _ => {
                self.konts.push(Kont::Expect(ty));
                return Ok(Step::Synth(t));
            }
        };
        Err(Error::CheckShape {
            form,
            ty: ty.clone(),
        })
    }

    fn synth(&mut self, t: &'a Term) -> Result<Step<'a>, Error> {
        let ty = match t {
            Term::Var(i) => {
                let n = self.locals.len();
                match (*i as usize).checked_sub(n) {
                    None => self.locals[n - 1 - *i as usize],
                    Some(k) => self
                        .ctx
                        .lookup(k as u32)
                        .map(|(_, ty)| ty)
                        .ok_or(Error::UnboundVar { index: *i })?,
                }
            }
            Term::Const(c) => {
                let scheme = self
                    .sig
                    .const_ty(c.as_str())
                    .ok_or_else(|| Error::UnknownConst { name: c.clone() })?;
                scheme
                    .as_mono()
                    .ok_or_else(|| Error::PolyConstInChecking { name: c.clone() })?
            }
            Term::Meta(m) => self
                .menv
                .meta_ty(m)
                .ok_or_else(|| Error::UnknownMeta { mvar: m.clone() })?,
            Term::Int(_) => &INT,
            Term::App(..) => {
                // Walk the spine to its head; the arguments are checked
                // left to right once the head's type is known.
                let mark = self.args.len();
                let mut head = t;
                while let Term::App(f, a) = head {
                    self.args.push(a);
                    head = f;
                }
                self.konts.push(Kont::Head(mark));
                return Ok(Step::Synth(head));
            }
            Term::Fst(p) | Term::Snd(p) => {
                self.konts.push(Kont::Proj(matches!(t, Term::Fst(_))));
                return Ok(Step::Synth(p));
            }
            Term::Lam(..) | Term::Pair(..) | Term::Unit => return Err(Error::NotNeutral),
        };
        Ok(Step::Synthed(ty))
    }

    /// Applies function type `fty` to the next argument above `mark`, or
    /// synthesizes it once none is left.
    fn apply(&mut self, mark: usize, fty: &'a Ty) -> Result<Step<'a>, Error> {
        if self.args.len() == mark {
            return Ok(Step::Synthed(fty));
        }
        let Ty::Arrow(dom, cod) = fty else {
            return Err(Error::NotAFunction { ty: fty.clone() });
        };
        let a = self.args.pop().expect("an argument above the mark");
        self.konts.push(Kont::Args(mark, cod));
        Ok(Step::Check(a, dom))
    }
}

/// Checks `t` against `ty` in context `ctx`.
///
/// # Errors
///
/// Returns a type error describing the first mismatch. `t` need not be
/// η-long, but must be β-normal in neutral positions for synthesis to
/// apply (a β-redex is reported as [`Error::NotNeutral`]).
///
/// ```
/// use hoas_core::prelude::*;
/// let sig = Signature::parse("type tm. const app : tm -> tm -> tm.")?;
/// let t = parse_term(&sig, r"\x. app x x")?.term;
/// let ty = parse_ty("tm -> tm")?;
/// typeck::check(&sig, &MetaEnv::new(), &Ctx::new(), &t, &ty)?;
/// # Ok::<(), hoas_core::Error>(())
/// ```
pub fn check(sig: &Signature, menv: &MetaEnv, ctx: &Ctx, t: &Term, ty: &Ty) -> Result<(), Error> {
    Checker::new(sig, menv, ctx)
        .run(Step::Check(t, ty))
        .map(|_| ())
}

/// Synthesizes the type of a neutral term (or literal).
///
/// # Errors
///
/// Returns [`Error::NotNeutral`] for introduction forms (λ, pair, unit):
/// those only *check*. Returns lookup and application errors otherwise.
pub fn synth(sig: &Signature, menv: &MetaEnv, ctx: &Ctx, t: &Term) -> Result<Ty, Error> {
    let ty = Checker::new(sig, menv, ctx).run(Step::Synth(t))?;
    Ok(ty.expect("a synthesis ends with a type").clone())
}

/// Whether `t` checks against `ty` in strict-η mode: the read-only
/// canonicity decision behind [`crate::normalize::is_canonical`]. It
/// clones no type and interns no node, and it keeps its continuations
/// on the machine's explicit stack.
pub(crate) fn check_eta_long(
    sig: &Signature,
    menv: &dyn MetaTypes,
    ctx: &Ctx,
    t: &Term,
    ty: &Ty,
) -> bool {
    let mut checker = Checker::new(sig, menv, ctx);
    checker.strict = true;
    checker.run(Step::Check(t, ty)).is_ok()
}

/// Checks a closed term with no metavariables against `ty`.
///
/// # Errors
///
/// As for [`check`].
pub fn check_closed(sig: &Signature, t: &Term, ty: &Ty) -> Result<(), Error> {
    check(sig, &MetaEnv::new(), &Ctx::new(), t, ty)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::MVar;
    use crate::ty::TyScheme;

    fn sig() -> Signature {
        let mut s = Signature::new();
        s.declare_type("tm").unwrap();
        let tm = Ty::base("tm");
        s.declare_const(
            "lam",
            Ty::arrow(Ty::arrow(tm.clone(), tm.clone()), tm.clone()),
        )
        .unwrap();
        s.declare_const("app", Ty::arrows([tm.clone(), tm.clone()], tm.clone()))
            .unwrap();
        s.declare_const(
            "pairc",
            TyScheme::new(
                2,
                Ty::arrows([Ty::Var(0), Ty::Var(1)], Ty::prod(Ty::Var(0), Ty::Var(1))),
            ),
        )
        .unwrap();
        s
    }

    fn tm() -> Ty {
        Ty::base("tm")
    }

    #[test]
    fn checks_identity_encoding() {
        // lam (λx. x) : tm
        let t = Term::app(Term::cnst("lam"), Term::lam("x", Term::Var(0)));
        check_closed(&sig(), &t, &tm()).unwrap();
    }

    #[test]
    fn rejects_wrong_target() {
        let t = Term::app(Term::cnst("lam"), Term::lam("x", Term::Var(0)));
        let err = check_closed(&sig(), &t, &Ty::Int).unwrap_err();
        assert!(matches!(err, Error::TypeMismatch { .. }));
    }

    #[test]
    fn rejects_underapplication_mismatch() {
        // `app` alone has type tm -> tm -> tm, not tm.
        let err = check_closed(&sig(), &Term::cnst("app"), &tm()).unwrap_err();
        assert!(matches!(err, Error::TypeMismatch { .. }));
    }

    #[test]
    fn rejects_overapplication() {
        let t = Term::apps(
            Term::cnst("lam"),
            [Term::lam("x", Term::Var(0)), Term::cnst("app")],
        );
        let err = check_closed(&sig(), &t, &tm()).unwrap_err();
        assert!(matches!(err, Error::NotAFunction { .. }));
    }

    #[test]
    fn lambda_against_base_type_fails_with_shape_error() {
        let err = check_closed(&sig(), &Term::lam("x", Term::Var(0)), &tm()).unwrap_err();
        assert!(matches!(err, Error::CheckShape { .. }));
    }

    #[test]
    fn unbound_variable_reported() {
        let err = check_closed(&sig(), &Term::Var(0), &tm()).unwrap_err();
        assert_eq!(err, Error::UnboundVar { index: 0 });
    }

    #[test]
    fn unknown_constant_reported() {
        let err = check_closed(&sig(), &Term::cnst("nope"), &tm()).unwrap_err();
        assert!(matches!(err, Error::UnknownConst { .. }));
    }

    #[test]
    fn poly_constant_requires_inference() {
        let err = synth(&sig(), &MetaEnv::new(), &Ctx::new(), &Term::cnst("pairc")).unwrap_err();
        assert!(matches!(err, Error::PolyConstInChecking { .. }));
    }

    #[test]
    fn metavariables_use_menv() {
        let m = MVar::new(0, "P");
        let mut menv = MetaEnv::new();
        menv.insert(m.clone(), tm());
        check(&sig(), &menv, &Ctx::new(), &Term::Meta(m.clone()), &tm()).unwrap();
        let unknown = MVar::new(1, "Q");
        let err = check(&sig(), &menv, &Ctx::new(), &Term::Meta(unknown), &tm()).unwrap_err();
        assert!(matches!(err, Error::UnknownMeta { .. }));
    }

    #[test]
    fn products_and_literals() {
        let s = sig();
        let t = Term::pair(Term::Int(1), Term::Unit);
        check_closed(&s, &t, &Ty::prod(Ty::Int, Ty::Unit)).unwrap();
        let t2 = Term::fst(Term::pair(Term::Int(1), Term::Unit));
        // fst of a pair is a projection redex — not neutral, so synthesis refuses.
        assert!(check_closed(&s, &t2, &Ty::Int).is_err());
    }

    #[test]
    fn checks_under_binders_with_context() {
        let s = sig();
        // λf. λx. f (f x) : (tm -> tm) -> tm -> tm
        let t = Term::lams(
            ["f", "x"],
            Term::app(Term::Var(1), Term::app(Term::Var(1), Term::Var(0))),
        );
        let ty = Ty::arrow(Ty::arrow(tm(), tm()), Ty::arrow(tm(), tm()));
        check_closed(&s, &t, &ty).unwrap();
    }
}
