//! **Anti-unification** (least general generalization) in the pattern
//! fragment.
//!
//! The dual of unification: given two terms, find the most specific
//! pattern that matches both. Program-manipulation systems in the
//! paper's tradition use it to *synthesize* rewrite rules from example
//! pairs (Pfenning, "Unification and anti-unification in the Calculus of
//! Constructions", LICS 1991, is the contemporaneous higher-order
//! treatment).
//!
//! At a disagreement position under binders `x̄`, the generalization
//! inserts `?H x̄` — a metavariable applied to all locally bound
//! variables, so each side's residual may use them (the higher-order
//! analogue of Plotkin's first-order lgg). Identical disagreement pairs
//! reuse the same metavariable, which is what makes the result *least*
//! general.

use crate::error::UnifyError;
use crate::msubst::MetaSubst;
use crate::problem::{eta_expand_var, head_ty, MetaGen};
use hoas_core::ctx::Ctx;
use hoas_core::sig::Signature;
use hoas_core::term::MetaEnv;
use hoas_core::{normalize, MVar, Sym, Term, Ty};
use std::collections::HashMap;

/// The result of anti-unifying two terms.
#[derive(Clone, Debug)]
pub struct Generalization {
    /// The least general generalization (a pattern).
    pub term: Term,
    /// Types of the introduced metavariables.
    pub menv: MetaEnv,
    /// Substitution recovering the left input: `left.apply(&term) == l`.
    pub left: MetaSubst,
    /// Substitution recovering the right input.
    pub right: MetaSubst,
}

impl Generalization {
    /// Number of distinct disagreement positions (introduced
    /// metavariables).
    pub fn holes(&self) -> usize {
        self.menv.len()
    }
}

/// Anti-unifies two closed, well-typed terms at `ty`.
///
/// The result satisfies `left.apply(&term) == canon(l)` and
/// `right.apply(&term) == canon(r)` — property-tested and checked by the
/// examples.
///
/// # Errors
///
/// [`UnifyError::IllTyped`] if either term fails to canonicalize at `ty`,
/// or the inputs contain metavariables.
pub fn anti_unify(
    sig: &Signature,
    ty: &Ty,
    left: &Term,
    right: &Term,
) -> Result<Generalization, UnifyError> {
    anti_unify_in(sig, &Ctx::new(), ty, left, right)
}

/// Anti-unifies under an ambient context (the generalization may mention
/// its variables directly; only binders *introduced during the descent*
/// are routed through metavariable spines).
///
/// # Errors
///
/// As for [`anti_unify`].
pub fn anti_unify_in(
    sig: &Signature,
    ctx: &Ctx,
    ty: &Ty,
    left: &Term,
    right: &Term,
) -> Result<Generalization, UnifyError> {
    if left.has_metas() || right.has_metas() {
        let m = left
            .metas()
            .into_iter()
            .chain(right.metas())
            .next()
            .expect("has_metas");
        return Err(UnifyError::IllTyped(hoas_core::Error::UnknownMeta {
            mvar: m,
        }));
    }
    let empty = MetaEnv::new();
    let l = normalize::canon(sig, &empty, ctx, left, ty).map_err(UnifyError::IllTyped)?;
    let r = normalize::canon(sig, &empty, ctx, right, ty).map_err(UnifyError::IllTyped)?;
    let mut st = AntiUnifier {
        sig,
        gen: MetaGen::new(MetaEnv::new()),
        left: MetaSubst::new(),
        right: MetaSubst::new(),
        memo: HashMap::new(),
    };
    let term = st.go(ctx, 0, ty, &l, &r)?;
    Ok(Generalization {
        term,
        menv: st.gen.menv,
        left: st.left,
        right: st.right,
    })
}

struct AntiUnifier<'s> {
    sig: &'s Signature,
    gen: MetaGen<'static>,
    left: MetaSubst,
    right: MetaSubst,
    /// Disagreement pairs already generalized, keyed by the pair and the
    /// local binder types it was seen under.
    memo: HashMap<(Term, Term, Vec<Ty>), MVar>,
}

impl AntiUnifier<'_> {
    fn go(
        &mut self,
        ctx: &Ctx,
        local: u32,
        ty: &Ty,
        l: &Term,
        r: &Term,
    ) -> Result<Term, UnifyError> {
        if l == r {
            return Ok(l.clone());
        }
        match ty {
            Ty::Arrow(dom, cod) => match (l, r) {
                (Term::Lam(h, bl), Term::Lam(_, br)) => {
                    let ctx2 = ctx.push(h.clone(), dom.as_ref().clone());
                    Ok(Term::lam(
                        h.clone(),
                        self.go(&ctx2, local + 1, cod, bl, br)?,
                    ))
                }
                _ => Err(UnifyError::IllTyped(hoas_core::Error::CheckShape {
                    form: "non-λ canonical term",
                    ty: ty.clone(),
                })),
            },
            Ty::Prod(a, b) => match (l, r) {
                (Term::Pair(l1, l2), Term::Pair(r1, r2)) => Ok(Term::pair(
                    self.go(ctx, local, a, l1, r1)?,
                    self.go(ctx, local, b, l2, r2)?,
                )),
                _ => Err(UnifyError::IllTyped(hoas_core::Error::CheckShape {
                    form: "non-pair canonical term",
                    ty: ty.clone(),
                })),
            },
            Ty::Unit => Ok(Term::Unit),
            _ => self.go_base(ctx, local, ty, l, r),
        }
    }

    fn go_base(
        &mut self,
        ctx: &Ctx,
        local: u32,
        ty: &Ty,
        l: &Term,
        r: &Term,
    ) -> Result<Term, UnifyError> {
        // Agreeing rigid heads decompose; anything else is a disagreement.
        if let (Some((hl, al)), Some((hr, ar))) = (l.head_spine(), r.head_spine()) {
            if hl == hr && al.len() == ar.len() {
                let hty = head_ty(self.sig, &self.gen, ctx, &hl)?;
                let (arg_tys, _) = hty.uncurry();
                if arg_tys.len() >= al.len() {
                    let mut args = Vec::with_capacity(al.len());
                    for ((la, ra), aty) in al.iter().zip(ar.iter()).zip(arg_tys) {
                        args.push(self.go(ctx, local, aty, la, ra)?);
                    }
                    return Ok(Term::apps(head_term(&hl), args));
                }
            }
        }
        self.disagree(ctx, local, ty, l, r)
    }

    fn disagree(
        &mut self,
        ctx: &Ctx,
        local: u32,
        ty: &Ty,
        l: &Term,
        r: &Term,
    ) -> Result<Term, UnifyError> {
        let local_tys: Vec<Ty> = (0..local)
            .map(|i| {
                ctx.lookup(i)
                    .map(|(_, t)| t.clone())
                    .expect("local binders are in the context")
            })
            .collect(); // innermost first
        let key = (l.clone(), r.clone(), local_tys.clone());
        let m = match self.memo.get(&key) {
            Some(m) => m.clone(),
            None => {
                // ?H : T_{n-1} -> … -> T_0 -> ty, applied outermost-first,
                // so that the solution `λ^n. side` lines up index-for-index
                // with the constraint-local variables.
                let hty = Ty::arrows(
                    (0..local).rev().map(|i| local_tys[i as usize].clone()),
                    ty.clone(),
                );
                let m = self.gen.fresh(&format!("H{}", self.memo.len()), hty);
                let hints: Vec<Sym> = (0..local).map(|i| Sym::new(format!("x{i}"))).collect();
                // Solutions live in ambient scope: wrapping each side in
                // λ^n binds exactly the constraint-local variables (their
                // indices already match), and ambient indices stay put.
                self.left
                    .bind(m.clone(), Term::lams(hints.clone(), l.clone()));
                self.right.bind(m.clone(), Term::lams(hints, r.clone()));
                self.memo.insert(key, m.clone());
                m
            }
        };
        Ok(Term::apps(
            Term::Meta(m),
            (0..local)
                .rev()
                .map(|i| eta_expand_var(i, &local_tys[i as usize])),
        ))
    }
}

fn head_term(h: &hoas_core::term::Head) -> Term {
    match h {
        hoas_core::term::Head::Var(i) => Term::Var(*i),
        hoas_core::term::Head::Const(c) => Term::Const(c.clone()),
        hoas_core::term::Head::Meta(m) => Term::Meta(m.clone()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hoas_core::prelude::*;

    fn sig() -> Signature {
        Signature::parse(
            "type i.
             type o.
             const and : o -> o -> o.
             const or : o -> o -> o.
             const not : o -> o.
             const forall : (i -> o) -> o.
             const p : i -> o.
             const q : i -> i -> o.
             const a : i.
             const b : i.
             const r : o.",
        )
        .unwrap()
    }

    fn o() -> Ty {
        Ty::base("o")
    }

    fn check(g: &Generalization, sig: &Signature, ty: &Ty, l: &Term, r: &Term) {
        let cl = normalize::canon_closed(sig, l, ty).unwrap();
        let cr = normalize::canon_closed(sig, r, ty).unwrap();
        assert_eq!(g.left.apply(&g.term), cl, "left substitution broken");
        assert_eq!(g.right.apply(&g.term), cr, "right substitution broken");
        // The generalization itself is well-typed with its menv.
        hoas_core::infer::check_poly(sig, &g.menv, &Ctx::new(), &g.term, ty).unwrap();
    }

    fn t(s: &Signature, src: &str) -> Term {
        parse_term(s, src).unwrap().term
    }

    #[test]
    fn identical_terms_have_no_holes() {
        let s = sig();
        let x = t(&s, "and r (p a)");
        let g = anti_unify(&s, &o(), &x, &x).unwrap();
        assert_eq!(g.holes(), 0);
        assert_eq!(g.term, x);
    }

    #[test]
    fn first_order_disagreement() {
        hoas_core::StoreHandle::isolated().enter(|| {
            // Isolated store: this test asserts printed hints, which are
            // canonical per α-class per store (first intern wins).
            let s = sig();
            let l = t(&s, "and r (p a)");
            let r = t(&s, "and r (p b)");
            let g = anti_unify(&s, &o(), &l, &r).unwrap();
            assert_eq!(g.holes(), 1);
            assert_eq!(g.term.to_string(), "and r (p ?H0)");
            check(&g, &s, &o(), &l, &r);
        })
    }

    #[test]
    fn repeated_disagreements_share_a_hole() {
        // (p a ∧ p a) vs (p b ∧ p b): the lgg is and (p ?H) (p ?H), with
        // ONE hole — two holes would be more general than necessary.
        let s = sig();
        let l = t(&s, "and (p a) (p a)");
        let r = t(&s, "and (p b) (p b)");
        let g = anti_unify(&s, &o(), &l, &r).unwrap();
        assert_eq!(g.holes(), 1);
        check(&g, &s, &o(), &l, &r);
    }

    #[test]
    fn distinct_disagreements_get_distinct_holes() {
        let s = sig();
        let l = t(&s, "and (p a) (p a)");
        let r = t(&s, "and (p b) (p a)");
        let g = anti_unify(&s, &o(), &l, &r).unwrap();
        // First position disagrees (a vs b), second agrees.
        assert_eq!(g.holes(), 1);
        let l2 = t(&s, "and (p a) r");
        let r2 = t(&s, "and (p b) (or r r)");
        let g2 = anti_unify(&s, &o(), &l2, &r2).unwrap();
        assert_eq!(g2.holes(), 2);
        check(&g2, &s, &o(), &l2, &r2);
    }

    #[test]
    fn generalizes_under_binders_with_spines() {
        hoas_core::StoreHandle::isolated().enter(|| {
            // Isolated store: this test asserts printed hints, which are
            // canonical per α-class per store (first intern wins).
            // ∀x. p x  vs  ∀x. q x x: the hole must capture x via its spine.
            let s = sig();
            let l = t(&s, r"forall (\x. p x)");
            let r = t(&s, r"forall (\x. q x x)");
            let g = anti_unify(&s, &o(), &l, &r).unwrap();
            assert_eq!(g.holes(), 1);
            assert_eq!(g.term.to_string(), r"forall (\x. ?H0 x)");
            check(&g, &s, &o(), &l, &r);
            // The hole's type records the binder.
            let (m, hty) = g.menv.iter().next().unwrap();
            assert_eq!(hty.to_string(), "i -> o");
            assert_eq!(m.hint().as_str(), "H0");
        })
    }

    #[test]
    fn rule_synthesis_shape() {
        hoas_core::StoreHandle::isolated().enter(|| {
            // Isolated store: this test asserts printed hints, which are
            // canonical per α-class per store (first intern wins).
            // The motivating use: two before/after examples of the same
            // transformation generalize to the rule's lhs.
            // Examples: and r (forall (\x. p x)) and and (p a) (forall (\x. q x x)).
            let s = sig();
            let ex1 = t(&s, r"and r (forall (\x. p x))");
            let ex2 = t(&s, r"and (p a) (forall (\x. q x x))");
            let g = anti_unify(&s, &o(), &ex1, &ex2).unwrap();
            // Shape: and ?H0 (forall (\x. ?H1 x)) — exactly the lhs of the
            // quantifier-extraction rule.
            assert_eq!(g.term.to_string(), r"and ?H0 (forall (\x. ?H1 x))");
            check(&g, &s, &o(), &ex1, &ex2);
        })
    }

    #[test]
    fn nested_binders_spine_order() {
        hoas_core::StoreHandle::isolated().enter(|| {
            // Isolated store: this test asserts printed hints, which are
            // canonical per α-class per store (first intern wins).
            // q x y vs q y x: the heads agree, so decomposition reaches the
            // arguments and each disagreeing argument gets its own hole —
            // which is *more specific* (hence "least" general) than a single
            // formula-level hole would be.
            let s = sig();
            let l = t(&s, r"forall (\x. forall (\y. q x y))");
            let r = t(&s, r"forall (\x. forall (\y. q y x))");
            let g = anti_unify(&s, &o(), &l, &r).unwrap();
            assert_eq!(g.holes(), 2);
            check(&g, &s, &o(), &l, &r);
            // Spines are outermost-first: ?H x y.
            assert_eq!(
                g.term.to_string(),
                r"forall (\x. forall (\y. q (?H0 x y) (?H1 x y)))"
            );
        })
    }

    #[test]
    fn clashing_heads_under_binders_get_one_spined_hole() {
        hoas_core::StoreHandle::isolated().enter(|| {
            // Isolated store: this test asserts printed hints, which are
            // canonical per α-class per store (first intern wins).
            // p x vs r (different heads): one hole over the binder.
            let s = sig();
            let l = t(&s, r"forall (\x. and (p x) r)");
            let r = t(&s, r"forall (\x. and r r)");
            let g = anti_unify(&s, &o(), &l, &r).unwrap();
            assert_eq!(g.holes(), 1);
            assert_eq!(g.term.to_string(), r"forall (\x. and (?H0 x) r)");
            check(&g, &s, &o(), &l, &r);
        })
    }

    #[test]
    fn lgg_matches_both_inputs() {
        // The generalization, used as a rewrite pattern, matches both
        // inputs — closing the loop with the matcher.
        let s = sig();
        let l = t(&s, r"and r (forall (\x. p x))");
        let r = t(&s, r"and (p a) (forall (\x. q x x))");
        let g = anti_unify(&s, &o(), &l, &r).unwrap();
        for target in [&l, &r] {
            let m = crate::matching::match_term(
                &s,
                &g.menv,
                &Ctx::new(),
                &o(),
                &g.term,
                target,
                &crate::matching::MatchConfig::default(),
            )
            .unwrap();
            assert!(m.is_some(), "lgg must match {target}");
        }
    }

    #[test]
    fn rejects_meta_inputs() {
        let s = sig();
        let l = Term::Meta(MVar::new(0, "X"));
        assert!(anti_unify(&s, &o(), &l, &Term::cnst("r")).is_err());
    }

    #[test]
    fn eta_variants_agree_after_canonicalization() {
        // forall p (η-short) vs forall (\x. p x): identical after canon,
        // so no holes.
        let s = sig();
        let l = t(&s, "forall p");
        let r = t(&s, r"forall (\x. p x)");
        let g = anti_unify(&s, &o(), &l, &r).unwrap();
        assert_eq!(g.holes(), 0);
    }
}
