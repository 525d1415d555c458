//! Normalization: β-reduction by hereditary substitution, weak head
//! reduction, typed η-expansion to canonical form, and η-contraction.
//!
//! *Object-language substitution is β-reduction* — the paper's headline.
//! The workhorses are:
//!
//! * [`happly`] — apply a β-normal function to a β-normal argument,
//!   contracting every redex the substitution creates in a single pass
//!   (*hereditary substitution*);
//! * [`nf`] — full β-normal form;
//! * [`canon`] — typed η-expansion of a β-normal term to *canonical*
//!   (η-long β-normal) form, on which adequacy of encodings is stated;
//! * [`eta_contract`] — untyped η-contraction, useful for printing.
//!
//! # One traversal
//!
//! [`hinstantiate`] (behind [`happly`]) and [`nf`] hold no traversal of
//! their own: they are entry points over the kernel's one de Bruijn
//! traversal in [`crate::subst`], the same one `shift` and `subst` run
//! on. Hereditary substitution is its "open index 0" operation with
//! redex contraction switched on; `nf` is the operation whose only
//! variable action is the identity. Both contract a β-redex they create
//! or meet by hereditary substitution of the argument into the λ's body,
//! and a projection redex by taking the pair's component, so sharing
//! and interning work the same for all of them.
//!
//! # Termination
//!
//! Hereditary substitution terminates on all *well-typed* terms. The
//! untyped entry points ([`nf`], [`happly`]) can diverge on ill-typed input
//! such as `(λx. x x)(λx. x x)`; use the fueled variants ([`nf_fuel`]) for
//! untrusted input. Nothing in this module panics on malformed terms.

use crate::ctx::Ctx;
use crate::error::Error;
use crate::intern::Sym;
use crate::sig::Signature;
use crate::subst::{self, shift, Op};
use crate::term::{MetaEnv, MetaTypes, Term, TermRef};
use crate::ty::Ty;

/// Applies a function term to an argument, contracting the β-redex (and
/// any redexes the substitution creates) if the function is a λ.
///
/// If both inputs are β-normal, the result is β-normal.
///
/// ```
/// use hoas_core::{normalize::happly, Term};
/// let id = Term::lam("x", Term::Var(0));
/// assert_eq!(happly(id, Term::Int(7)), Term::Int(7));
/// ```
pub fn happly(f: Term, a: Term) -> Term {
    match f {
        Term::Lam(_, body) => hinstantiate(&body, &a),
        _ => Term::app(f, a),
    }
}

/// First projection, contracting `fst (a, b) ⇒ a`.
pub fn hfst(p: Term) -> Term {
    match p {
        Term::Pair(a, _) => a.into_term(),
        _ => Term::fst(p),
    }
}

/// Second projection, contracting `snd (a, b) ⇒ b`.
pub fn hsnd(p: Term) -> Term {
    match p {
        Term::Pair(_, b) => b.into_term(),
        _ => Term::snd(p),
    }
}

/// Hereditary instantiation: `(λ. body) arg` in one β-normality-preserving
/// pass. Substitutes `arg` for the bound variable of `body` and contracts
/// every redex created at substitution sites.
///
/// Subterms that are β-normal and cannot mention the opened variable
/// (cached `max_free`/`beta_normal` check) are shared, not copied. It runs
/// on the kernel's one traversal (see [`crate::subst`]), in one interner
/// session.
pub fn hinstantiate(body: &Term, arg: &Term) -> Term {
    if body.max_free() == 0 && body.is_beta_normal() {
        return body.clone();
    }
    let s = TermRef::new(arg.clone());
    subst::run(Op::Hsub(&s), body, 0)
}

/// Full β-normal form (also contracts projection redexes).
///
/// O(1) on terms whose cached `beta_normal` annotation already holds;
/// normal subterms are shared, not rebuilt. Everything else runs on the
/// kernel's one traversal (see [`crate::subst`]).
///
/// Diverges on ill-typed divergent terms; see [`nf_fuel`].
pub fn nf(t: &Term) -> Term {
    if t.is_beta_normal() {
        return t.clone();
    }
    subst::run(Op::Nf, t, 0)
}

/// Weak head normal form: reduces only the head redex chain, leaving
/// arguments and bodies untouched. O(1) on cached-β-normal terms.
pub fn whnf(t: &Term) -> Term {
    if t.is_beta_normal() {
        return t.clone();
    }
    match t {
        Term::App(f, a) => {
            let fw = whnf(f);
            match fw {
                Term::Lam(_, body) => whnf(&subst::instantiate(&body, a)),
                _ => Term::app(fw, a.as_ref().clone()),
            }
        }
        Term::Fst(p) => {
            let pw = whnf(p);
            match pw {
                Term::Pair(a, _) => whnf(&a),
                _ => Term::fst(pw),
            }
        }
        Term::Snd(p) => {
            let pw = whnf(p);
            match pw {
                Term::Pair(_, b) => whnf(&b),
                _ => Term::snd(pw),
            }
        }
        _ => t.clone(),
    }
}

/// Error returned by fueled normalization when the budget runs out.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FuelExhausted;

impl std::fmt::Display for FuelExhausted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("normalization fuel exhausted")
    }
}
impl std::error::Error for FuelExhausted {}

/// β-normal form with a step budget; each β- or projection-contraction
/// costs one unit.
///
/// # Errors
///
/// Returns [`FuelExhausted`] if more than `fuel` contractions are needed —
/// in particular on divergent (necessarily ill-typed) terms.
///
/// ```
/// use hoas_core::{normalize::nf_fuel, Term};
/// // Ω = (λx. x x)(λx. x x) diverges:
/// let w = Term::lam("x", Term::app(Term::Var(0), Term::Var(0)));
/// let omega = Term::app(w.clone(), w);
/// assert!(nf_fuel(&omega, 1_000).is_err());
/// ```
pub fn nf_fuel(t: &Term, fuel: u64) -> Result<Term, FuelExhausted> {
    let mut budget = fuel;
    nf_fueled(t, &mut budget)
}

fn spend(budget: &mut u64) -> Result<(), FuelExhausted> {
    if *budget == 0 {
        Err(FuelExhausted)
    } else {
        *budget -= 1;
        Ok(())
    }
}

fn nf_fueled(t: &Term, budget: &mut u64) -> Result<Term, FuelExhausted> {
    // The outer `loop` handles head-redex chains iteratively so that
    // divergent terms like Ω exhaust fuel without exhausting the stack;
    // recursion is only ever structural (into strict subterms).
    let mut cur = t.clone();
    loop {
        // Cached-normal terms need no fuel and no traversal.
        if cur.is_beta_normal() {
            return Ok(cur);
        }
        match cur {
            Term::App(f, a) => {
                let f2 = nf_fueled(&f, budget)?;
                let a2 = nf_fueled(&a, budget)?;
                match f2 {
                    Term::Lam(_, body) => {
                        spend(budget)?;
                        cur = subst::instantiate(&body, &a2);
                    }
                    _ => return Ok(Term::app(f2, a2)),
                }
            }
            Term::Lam(h, b) => return Ok(Term::lam(h, nf_fueled(&b, budget)?)),
            Term::Pair(a, b) => {
                return Ok(Term::pair(nf_fueled(&a, budget)?, nf_fueled(&b, budget)?))
            }
            Term::Fst(p) => {
                let p2 = nf_fueled(&p, budget)?;
                match p2 {
                    Term::Pair(a, _) => {
                        spend(budget)?;
                        cur = a.into_term();
                    }
                    _ => return Ok(Term::fst(p2)),
                }
            }
            Term::Snd(p) => {
                let p2 = nf_fueled(&p, budget)?;
                match p2 {
                    Term::Pair(_, b) => {
                        spend(budget)?;
                        cur = b.into_term();
                    }
                    _ => return Ok(Term::snd(p2)),
                }
            }
            Term::Var(_) | Term::Const(_) | Term::Meta(_) | Term::Int(_) | Term::Unit => {
                return Ok(cur)
            }
        }
    }
}

/// β-equality: compares β-normal forms (which, in de Bruijn representation,
/// compare α-equivalence for free).
pub fn beta_eq(a: &Term, b: &Term) -> bool {
    nf(a) == nf(b)
}

/// Untyped η-contraction: rewrites `λx. f x` to `f` (when `x` not free in
/// `f`) and `(fst p, snd p)` to `p`, bottom-up to a fixpoint.
pub fn eta_contract(t: &Term) -> Term {
    match t {
        Term::Lam(h, b) => {
            let b2 = eta_contract(b);
            if let Term::App(f, a) = &b2 {
                if matches!(a.as_ref(), Term::Var(0)) && !f.occurs_free(0) {
                    return subst::unshift_above(f, 1, 0);
                }
            }
            Term::lam(h.clone(), b2)
        }
        Term::Pair(a, b) => {
            let a2 = eta_contract(a);
            let b2 = eta_contract(b);
            if let (Term::Fst(p), Term::Snd(q)) = (&a2, &b2) {
                if p == q {
                    return p.as_ref().clone();
                }
            }
            Term::pair(a2, b2)
        }
        Term::App(f, a) => Term::app(eta_contract(f), eta_contract(a)),
        Term::Fst(p) => Term::fst(eta_contract(p)),
        Term::Snd(p) => Term::snd(eta_contract(p)),
        Term::Var(_) | Term::Const(_) | Term::Meta(_) | Term::Int(_) | Term::Unit => t.clone(),
    }
}

/// Converts a β-normal, well-typed term to canonical (η-long β-normal)
/// form at type `ty` in context `ctx`.
///
/// Canonical form is the shape adequacy theorems quantify over: at arrow
/// type every canonical term is a λ, at product type a pair, at unit type
/// `()`, and at base type a fully applied neutral term or literal.
///
/// # Errors
///
/// Returns an error if the term is not well-typed at `ty` (the η-expander
/// needs the type of every neutral head to expand its arguments).
/// Metavariable types are read through [`MetaTypes`]: a [`MetaEnv`], or a
/// solver's own binding array.
pub fn canon(
    sig: &Signature,
    menv: &dyn MetaTypes,
    ctx: &Ctx,
    t: &Term,
    ty: &Ty,
) -> Result<Term, Error> {
    let t = TermRef::new(nf(t));
    let out = eta_long(sig, menv, ctx, &t, ty).map(TermRef::into_term)?;
    // Debug builds validate the cached annotations of every
    // canonicalization result against a naive recomputation.
    crate::validate::debug_assert_valid(&out);
    Ok(out)
}

/// Like [`canon`] for closed terms with no metavariables.
pub fn canon_closed(sig: &Signature, t: &Term, ty: &Ty) -> Result<Term, Error> {
    canon(sig, &MetaEnv::new(), &Ctx::new(), t, ty)
}

/// Already-η-long subterms come back as the input `Rc` (pointer-equal),
/// so canonicalizing a canonical term allocates nothing below the root.
fn eta_long(
    sig: &Signature,
    menv: &dyn MetaTypes,
    ctx: &Ctx,
    t: &TermRef,
    ty: &Ty,
) -> Result<TermRef, Error> {
    match ty {
        Ty::Arrow(dom, cod) => match t.as_ref() {
            Term::Lam(h, b) => {
                let ctx2 = ctx.push(h.clone(), dom.as_ref().clone());
                let b2 = eta_long(sig, menv, &ctx2, b, cod)?;
                if TermRef::ptr_eq(&b2, b) {
                    Ok(t.clone())
                } else {
                    Ok(TermRef::new(Term::lam(h.clone(), b2)))
                }
            }
            _ => {
                // Neutral at arrow type: expand to λx. (t x).
                let hint = Sym::new("x");
                let ctx2 = ctx.push(hint.clone(), dom.as_ref().clone());
                let body = Term::app(shift(t, 1), Term::Var(0));
                let body = TermRef::new(nf(&body));
                let body = eta_long(sig, menv, &ctx2, &body, cod)?;
                Ok(TermRef::new(Term::lam(hint, body)))
            }
        },
        Ty::Prod(a, b) => match t.as_ref() {
            Term::Pair(x, y) => {
                let x2 = eta_long(sig, menv, ctx, x, a)?;
                let y2 = eta_long(sig, menv, ctx, y, b)?;
                if TermRef::ptr_eq(&x2, x) && TermRef::ptr_eq(&y2, y) {
                    Ok(t.clone())
                } else {
                    Ok(TermRef::new(Term::pair(x2, y2)))
                }
            }
            _ => {
                let x = TermRef::new(hfst(t.as_ref().clone()));
                let y = TermRef::new(hsnd(t.as_ref().clone()));
                Ok(TermRef::new(Term::pair(
                    eta_long(sig, menv, ctx, &x, a)?,
                    eta_long(sig, menv, ctx, &y, b)?,
                )))
            }
        },
        Ty::Unit => Ok(TermRef::new(Term::Unit)),
        Ty::Base(_) | Ty::Int | Ty::Var(_) => {
            // Must be a literal or a neutral term; η-expand its spine args
            // and verify the synthesized type agrees (catching, e.g., an
            // under-applied constant at base type).
            match t.as_ref() {
                Term::Int(_) => {
                    if matches!(ty, Ty::Int | Ty::Var(_)) {
                        Ok(t.clone())
                    } else {
                        Err(Error::TypeMismatch {
                            expected: ty.clone(),
                            found: Ty::Int,
                        })
                    }
                }
                Term::Unit => Err(Error::TypeMismatch {
                    expected: ty.clone(),
                    found: Ty::Unit,
                }),
                _ => {
                    let (t2, found) = eta_long_neutral(sig, menv, ctx, t)?;
                    if matches!(ty, Ty::Var(_)) || &found == ty || matches!(found, Ty::Var(_)) {
                        Ok(t2)
                    } else {
                        Err(Error::TypeMismatch {
                            expected: ty.clone(),
                            found,
                        })
                    }
                }
            }
        }
    }
}

/// η-expands the arguments of a neutral term, synthesizing its type.
/// Shares the input `Rc` when every argument was already η-long.
fn eta_long_neutral(
    sig: &Signature,
    menv: &dyn MetaTypes,
    ctx: &Ctx,
    t: &TermRef,
) -> Result<(TermRef, Ty), Error> {
    match t.as_ref() {
        Term::Var(i) => {
            let ty = ctx
                .lookup(*i)
                .ok_or(Error::UnboundVar { index: *i })?
                .1
                .clone();
            Ok((t.clone(), ty))
        }
        Term::Const(c) => {
            let scheme = sig
                .const_ty(c.as_str())
                .ok_or_else(|| Error::UnknownConst { name: c.clone() })?;
            let ty = scheme
                .as_mono()
                .ok_or_else(|| Error::PolyConstInChecking { name: c.clone() })?;
            Ok((t.clone(), ty.clone()))
        }
        Term::Meta(m) => {
            let ty = menv
                .meta_ty(m)
                .ok_or_else(|| Error::UnknownMeta { mvar: m.clone() })?;
            Ok((t.clone(), ty.clone()))
        }
        Term::App(f, a) => {
            let (f2, fty) = eta_long_neutral(sig, menv, ctx, f)?;
            match fty {
                Ty::Arrow(dom, cod) => {
                    let a2 = eta_long(sig, menv, ctx, a, &dom)?;
                    if TermRef::ptr_eq(&f2, f) && TermRef::ptr_eq(&a2, a) {
                        Ok((t.clone(), *cod))
                    } else {
                        Ok((TermRef::new(Term::app(f2, a2)), *cod))
                    }
                }
                other => Err(Error::NotAFunction { ty: other }),
            }
        }
        Term::Fst(p) => {
            let (p2, pty) = eta_long_neutral(sig, menv, ctx, p)?;
            match pty {
                Ty::Prod(a, _) => {
                    if TermRef::ptr_eq(&p2, p) {
                        Ok((t.clone(), *a))
                    } else {
                        Ok((TermRef::new(Term::fst(p2)), *a))
                    }
                }
                other => Err(Error::NotAProduct { ty: other }),
            }
        }
        Term::Snd(p) => {
            let (p2, pty) = eta_long_neutral(sig, menv, ctx, p)?;
            match pty {
                Ty::Prod(_, b) => {
                    if TermRef::ptr_eq(&p2, p) {
                        Ok((t.clone(), *b))
                    } else {
                        Ok((TermRef::new(Term::snd(p2)), *b))
                    }
                }
                other => Err(Error::NotAProduct { ty: other }),
            }
        }
        _ => Err(Error::NotNeutral),
    }
}

/// Typed βη-equality: both terms are canonicalized at `ty` and compared.
///
/// # Errors
///
/// Returns an error if either term fails to canonicalize at `ty`.
pub fn beta_eta_eq(
    sig: &Signature,
    menv: &MetaEnv,
    ctx: &Ctx,
    a: &Term,
    b: &Term,
    ty: &Ty,
) -> Result<bool, Error> {
    Ok(canon(sig, menv, ctx, a, ty)? == canon(sig, menv, ctx, b, ty)?)
}

/// Whether `t` is already canonical (η-long β-normal) at `ty`, decided
/// without building anything: β-normality is the cached annotation, and
/// η-longness is a strict-η run of the bidirectional checker (see
/// [`crate::typeck`]), which clones no type, interns no node and does
/// not recurse on the host stack.
///
/// `true` means [`canon`] returns `t` unchanged, so a caller may skip
/// it. `false` is conservative: it covers η-short and ill-typed terms,
/// and also checks at a type variable, which [`canon`] may accept as
/// they are. Such callers fall back to [`canon`], which decides those
/// cases and reports errors.
pub fn is_canonical(sig: &Signature, menv: &dyn MetaTypes, ctx: &Ctx, t: &Term, ty: &Ty) -> bool {
    t.is_beta_normal() && crate::typeck::check_eta_long(sig, menv, ctx, t, ty)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Term;
    use crate::ty::TyScheme;

    fn v(i: u32) -> Term {
        Term::Var(i)
    }

    fn lam_sig() -> Signature {
        let mut sig = Signature::new();
        sig.declare_type("tm").unwrap();
        let tm = Ty::base("tm");
        sig.declare_const(
            "lam",
            TyScheme::mono(Ty::arrow(Ty::arrow(tm.clone(), tm.clone()), tm.clone())),
        )
        .unwrap();
        sig.declare_const(
            "app",
            TyScheme::mono(Ty::arrows([tm.clone(), tm.clone()], tm.clone())),
        )
        .unwrap();
        sig
    }

    #[test]
    fn happly_identity() {
        let id = Term::lam("x", v(0));
        assert_eq!(happly(id, Term::Int(3)), Term::Int(3));
    }

    #[test]
    fn happly_non_lambda_builds_app() {
        let t = happly(Term::cnst("f"), Term::Int(1));
        assert_eq!(t, Term::app(Term::cnst("f"), Term::Int(1)));
    }

    #[test]
    fn hereditary_contracts_created_redexes() {
        // (λf. f c) (λx. x)  ⇒  c   in one pass.
        let t = happly(
            Term::lam("f", Term::app(v(0), Term::cnst("c"))),
            Term::lam("x", v(0)),
        );
        assert_eq!(t, Term::cnst("c"));
        assert!(t.is_beta_normal());
    }

    #[test]
    fn nf_church_arithmetic() {
        // Church numerals: n = λs. λz. s^n z; test 2 + 2 = 4 via add = λm n s z. m s (n s z).
        fn church(n: u32) -> Term {
            let mut body = v(0);
            for _ in 0..n {
                body = Term::app(v(1), body);
            }
            Term::lams(["s", "z"], body)
        }
        let add = Term::lams(
            ["m", "n", "s", "z"],
            Term::apps(v(3), [v(1), Term::apps(v(2), [v(1), v(0)])]),
        );
        let four = nf(&Term::apps(add, [church(2), church(2)]));
        assert_eq!(four, church(4));
    }

    #[test]
    fn whnf_only_reduces_head() {
        // (λx. x) ((λy. y) c) — whnf exposes the inner redex as argument? No:
        // head reduction substitutes the argument unreduced, then continues at head.
        let inner = Term::app(Term::lam("y", v(0)), Term::cnst("c"));
        let t = Term::app(Term::lam("x", v(0)), inner.clone());
        assert_eq!(whnf(&t), Term::cnst("c"));
        // But whnf leaves redexes under constructors:
        let t2 = Term::app(Term::cnst("f"), inner.clone());
        assert_eq!(whnf(&t2), t2);
    }

    #[test]
    fn projection_redexes() {
        let p = Term::pair(Term::Int(1), Term::Int(2));
        assert_eq!(nf(&Term::fst(p.clone())), Term::Int(1));
        assert_eq!(nf(&Term::snd(p)), Term::Int(2));
    }

    #[test]
    fn nf_fuel_agrees_with_nf_when_terminating() {
        let id = Term::lam("x", v(0));
        let t = Term::app(id.clone(), Term::app(id, Term::cnst("c")));
        assert_eq!(nf_fuel(&t, 100).unwrap(), nf(&t));
    }

    #[test]
    fn nf_fuel_rejects_omega() {
        let w = Term::lam("x", Term::app(v(0), v(0)));
        let omega = Term::app(w.clone(), w);
        assert_eq!(nf_fuel(&omega, 10_000), Err(FuelExhausted));
    }

    #[test]
    fn beta_eq_is_alpha_insensitive() {
        let a = Term::lam("x", v(0));
        let b = Term::lam("different_name", v(0));
        assert!(beta_eq(&a, &b));
    }

    #[test]
    fn eta_contract_simple() {
        // λx. f x ⇒ f (f = Var 0 outside, Var 1 inside).
        let t = Term::lam("x", Term::app(v(1), v(0)));
        assert_eq!(eta_contract(&t), v(0));
        // λx. x x is not an η-redex.
        let t2 = Term::lam("x", Term::app(v(0), v(0)));
        assert_eq!(eta_contract(&t2), t2);
    }

    #[test]
    fn eta_contract_surjective_pairing() {
        let t = Term::pair(Term::fst(v(3)), Term::snd(v(3)));
        assert_eq!(eta_contract(&t), v(3));
        let t2 = Term::pair(Term::fst(v(3)), Term::snd(v(4)));
        assert_eq!(eta_contract(&t2), t2);
    }

    #[test]
    fn canon_eta_expands_constants() {
        let sig = lam_sig();
        let tm = Ty::base("tm");
        // `lam` alone at type (tm -> tm) -> tm canonicalizes to λf. lam (λx. f x).
        let c = canon_closed(
            &sig,
            &Term::cnst("lam"),
            &Ty::arrow(Ty::arrow(tm.clone(), tm.clone()), tm.clone()),
        )
        .unwrap();
        let expected = Term::lam(
            "x",
            Term::app(Term::cnst("lam"), Term::lam("x", Term::app(v(1), v(0)))),
        );
        assert_eq!(c, expected);
    }

    #[test]
    fn canon_is_idempotent() {
        let sig = lam_sig();
        let tm = Ty::base("tm");
        let ty = Ty::arrow(tm.clone(), tm.clone());
        let t = Term::lam("x", Term::apps(Term::cnst("app"), [v(0), v(0)]));
        let c1 = canon_closed(&sig, &t, &ty).unwrap();
        let c2 = canon_closed(&sig, &c1, &ty).unwrap();
        assert_eq!(c1, c2);
        assert!(is_canonical(&sig, &MetaEnv::new(), &Ctx::new(), &c1, &ty));
    }

    #[test]
    fn canon_unit_collapses() {
        let sig = lam_sig();
        // Any normal term of type unit canonicalizes to ().
        let t = Term::cnst("lam"); // wrong type for unit, but η at unit ignores the term
        let c = canon_closed(&sig, &t, &Ty::Unit).unwrap();
        assert_eq!(c, Term::Unit);
    }

    #[test]
    fn beta_eta_eq_identifies_eta_variants() {
        let sig = lam_sig();
        let tm = Ty::base("tm");
        let ty = Ty::arrow(tm.clone(), tm.clone());
        // f vs λx. f x at tm -> tm with f := `lam (λy.y)`? Use a context variable instead.
        let ctx = Ctx::new().push(Sym::new("f"), ty.clone());
        let f = v(0);
        let eta = Term::lam("x", Term::app(v(1), v(0)));
        assert!(beta_eta_eq(&sig, &MetaEnv::new(), &ctx, &f, &eta, &ty).unwrap());
    }

    #[test]
    fn canon_reports_type_errors() {
        let sig = lam_sig();
        // app applied to too many arguments.
        let t = Term::apps(
            Term::cnst("app"),
            [Term::cnst("app"), Term::cnst("app"), Term::cnst("app")],
        );
        // At type tm this forces synthesis through a non-arrow.
        assert!(canon_closed(&sig, &t, &Ty::base("tm")).is_err());
    }
}
