//! Higher-order **matching**: unification where one side (the target) is
//! ground. This is the operation that drives the rewrite engine — exactly
//! the use the paper proposes for its transformation rules.
//!
//! Matching tries the fast decidable pattern path first and falls back to
//! a bounded Huet search for non-pattern rules (e.g. a rule whose
//! left-hand side applies a metavariable to a non-variable argument).

use crate::error::UnifyError;
use crate::huet::{self, HuetConfig};
use crate::msubst::{solution_lams, MetaSubst};
use crate::pattern;
use crate::problem::{flex_view, Constraint};
use hoas_core::ctx::Ctx;
use hoas_core::sig::Signature;
use hoas_core::term::MetaEnv;
use hoas_core::{MVar, Term, TermRef, Ty};

/// Configuration for matching.
#[derive(Clone, Copy, Debug)]
pub struct MatchConfig {
    /// Budgets for the Huet search that matching falls back to when the
    /// pattern unifier reports the problem is outside its fragment.
    pub huet: HuetConfig,
}

impl Default for MatchConfig {
    fn default() -> Self {
        MatchConfig {
            huet: HuetConfig {
                max_depth: 6,
                max_solutions: 1,
                fuel: 50_000,
            },
        }
    }
}

/// Matches `pattern` against the ground `target` at type `ty`, in the
/// ambient context `ctx` (binder types enclosing the match position; the
/// resulting substitution may mention those variables).
///
/// Returns `Ok(None)` if the terms do not match, `Ok(Some(subst))` on
/// success.
///
/// # Errors
///
/// Returns an error only for malformed inputs: a target containing
/// metavariables, unsupported metavariable types, or ill-typed terms.
pub fn match_term(
    sig: &Signature,
    menv: &MetaEnv,
    ctx: &Ctx,
    ty: &Ty,
    pattern: &Term,
    target: &Term,
    cfg: &MatchConfig,
) -> Result<Option<MetaSubst>, UnifyError> {
    if target.has_metas() {
        return Err(UnifyError::IllTyped(hoas_core::Error::UnknownMeta {
            mvar: target.metas()[0].clone(),
        }));
    }
    // Ground pattern (cached `has_meta` is false): matching degenerates to
    // α-equality, which the hash-consed store decides in O(1) by node id.
    if !pattern.has_metas() && pattern == target {
        return Ok(Some(MetaSubst::new()));
    }
    let constraint =
        Constraint::in_ambient(ctx.clone(), ty.clone(), pattern.clone(), target.clone());
    match pattern::unify_constraints(sig, menv, vec![constraint.clone()]) {
        Ok(solution) => Ok(Some(solution.subst)),
        Err(e) if e.is_refutation() || matches!(e, UnifyError::Escape { .. }) => Ok(None),
        Err(UnifyError::NotPattern { .. }) => {
            let out = huet::pre_unify(sig, menv, vec![constraint], &cfg.huet)?;
            // In matching, one side is ground, so a solution with leftover
            // flex-flex pairs would be under-determined; take the first
            // fully-determined one.
            Ok(out
                .solutions
                .into_iter()
                .find(|s| s.flex_flex.is_empty())
                .map(|s| s.subst))
        }
        Err(e) => Err(e),
    }
}

/// Deterministic matching for **Miller-pattern** left-hand sides: a
/// single lockstep descent over canonical `pattern` and ground `target`,
/// solving each flexible spine by inversion on the spot. No signature,
/// context, type, or metavariable environment is consulted — which is the
/// point: unlike [`match_term`], no constraint canonicalization or
/// environment cloning happens per attempt, so the rewrite engine can
/// afford to call this on every subterm.
///
/// Both inputs must be canonical (η-long β-normal) at a common type, as
/// rewrite-rule LHSs and rewrite subjects always are; `pattern` must be in
/// the pattern fragment relative to its own binders (see
/// [`crate::classify::classify`]). For such inputs the result agrees with
/// [`match_term`] on match/no-match and on the substitution.
///
/// Returns `Ok(None)` if the terms do not match (including the
/// vacuous-binder side condition: a spine omitting a bound variable that
/// occurs in the target).
///
/// # Errors
///
/// [`UnifyError::IllTyped`] if `target` contains metavariables;
/// [`UnifyError::NotPattern`] if `pattern` leaves the fragment.
pub fn match_pattern(pattern: &Term, target: &Term) -> Result<Option<MetaSubst>, UnifyError> {
    if target.has_metas() {
        return Err(UnifyError::IllTyped(hoas_core::Error::UnknownMeta {
            mvar: target.metas()[0].clone(),
        }));
    }
    let mut binds: Vec<(MVar, Term)> = Vec::new();
    if walk_pattern(pattern, target, None, 0, &mut binds)? {
        Ok(Some(MetaSubst::ground(binds)))
    } else {
        Ok(None)
    }
}

/// Lockstep descent at `depth` binders below the match root. Returns
/// whether the subterms match, accumulating metavariable solutions.
/// `node` is `t`'s interned node (every position but the match root).
fn walk_pattern(
    p: &Term,
    t: &Term,
    node: Option<&TermRef>,
    depth: u32,
    binds: &mut Vec<(MVar, Term)>,
) -> Result<bool, UnifyError> {
    // Ground pattern subtree: matching is α-equality, an O(1) interned
    // node-id comparison per child.
    if !p.has_metas() {
        return Ok(p == t);
    }
    // A flexible spine must be solved as a whole, *before* decomposing
    // applications — `?Q x ≐ p c` matches (with `?Q := λx. p c`) even
    // though a pairwise descent through the `App` nodes would refute it.
    // The head is found by walking the `App` nodes; only a flexible one
    // pays for collecting the spine.
    let mut head = p;
    while let Term::App(f, _) = head {
        head = f;
    }
    if matches!(head, Term::Meta(_)) {
        let view = flex_view(p, depth).expect("a metavariable head is flexible");
        let Some(spine) = view.pattern_spine else {
            return Err(UnifyError::not_pattern(p));
        };
        return solve_spine(&view.mvar, &spine, depth, t, node, binds);
    }
    match (p, t) {
        (Term::Lam(_, pb), Term::Lam(_, tb)) => walk_pattern(pb, tb, Some(tb), depth + 1, binds),
        (Term::App(pf, pa), Term::App(tf, ta)) | (Term::Pair(pf, pa), Term::Pair(tf, ta)) => {
            Ok(walk_pattern(pf, tf, Some(tf), depth, binds)?
                && walk_pattern(pa, ta, Some(ta), depth, binds)?)
        }
        (Term::Fst(pp), Term::Fst(tp)) | (Term::Snd(pp), Term::Snd(tp)) => {
            walk_pattern(pp, tp, Some(tp), depth, binds)
        }
        // Shape mismatch (the pattern side has metas, so it is not a leaf).
        _ => Ok(false),
    }
}

/// Solves `?M x̄ ≐ t` at `local` binders by inverting `t` along the spine.
/// A repeated occurrence of a bound metavariable must invert to the same
/// solution (non-left-linear patterns compare ground solutions).
///
/// When the spine names all `local` binders innermost-last (`?Q x` under
/// one binder) the inversion is the identity renaming, and the solution
/// abstracts `t`'s own node.
fn solve_spine(
    m: &MVar,
    spine: &[u32],
    local: u32,
    t: &Term,
    node: Option<&TermRef>,
    binds: &mut Vec<(MVar, Term)>,
) -> Result<bool, UnifyError> {
    let n = spine.len();
    let identity = n == local as usize && spine.iter().rev().zip(0..).all(|(&s, k)| s == k);
    let sol = match (identity, node) {
        (true, _) if n == 0 => t.clone(),
        (true, Some(node)) => solution_lams(n, node.clone()),
        _ => {
            let Some(body) = invert_ground(spine, local, t, 0) else {
                // A constraint-local variable outside the spine occurs in
                // `t`: the vacuous-binder side condition refutes the match.
                return Ok(false);
            };
            if n == 0 {
                body
            } else {
                solution_lams(n, TermRef::new(body))
            }
        }
    };
    if let Some((_, prev)) = binds.iter().find(|(bm, _)| bm == m) {
        Ok(*prev == sol)
    } else {
        binds.push((m.clone(), sol));
        Ok(true)
    }
}

/// [`pattern`]-style inversion specialized to ground targets: no pruning
/// and no occurs check can be needed, so the only failure is a
/// constraint-local variable escaping the spine (`None`). The variable
/// mapping mirrors the pattern unifier's `invert`.
fn invert_ground(spine: &[u32], local: u32, t: &Term, under: u32) -> Option<Term> {
    let n = spine.len() as u32;
    // Subterms closed under the traversed binders are fixed points of the
    // inversion: share them.
    if t.max_free() <= under {
        return Some(t.clone());
    }
    match t {
        Term::Var(i) => {
            let i = *i;
            if i < under {
                Some(Term::Var(i))
            } else {
                let j = i - under;
                if j < local {
                    spine
                        .iter()
                        .position(|&s| s == j)
                        .map(|k| Term::Var(under + (n - 1 - k as u32)))
                } else {
                    Some(Term::Var(under + n + (j - local)))
                }
            }
        }
        Term::Lam(h, b) => Some(Term::lam(
            h.clone(),
            invert_ground(spine, local, b, under + 1)?,
        )),
        Term::App(f, a) => Some(Term::app(
            invert_ground(spine, local, f, under)?,
            invert_ground(spine, local, a, under)?,
        )),
        Term::Pair(a, b) => Some(Term::pair(
            invert_ground(spine, local, a, under)?,
            invert_ground(spine, local, b, under)?,
        )),
        Term::Fst(p) => Some(Term::fst(invert_ground(spine, local, p, under)?)),
        Term::Snd(p) => Some(Term::snd(invert_ground(spine, local, p, under)?)),
        Term::Const(_) | Term::Int(_) | Term::Unit => Some(t.clone()),
        Term::Meta(_) => unreachable!("targets are ground"),
    }
}

/// All matches of `pattern` against `target` (higher-order matching can
/// have several), up to the Huet budget when outside the pattern
/// fragment.
///
/// # Errors
///
/// As for [`match_term`].
pub fn match_all(
    sig: &Signature,
    menv: &MetaEnv,
    ctx: &Ctx,
    ty: &Ty,
    pattern: &Term,
    target: &Term,
    cfg: &MatchConfig,
) -> Result<Vec<MetaSubst>, UnifyError> {
    if target.has_metas() {
        return Err(UnifyError::IllTyped(hoas_core::Error::UnknownMeta {
            mvar: target.metas()[0].clone(),
        }));
    }
    if !pattern.has_metas() && pattern == target {
        return Ok(vec![MetaSubst::new()]);
    }
    let constraint =
        Constraint::in_ambient(ctx.clone(), ty.clone(), pattern.clone(), target.clone());
    match pattern::unify_constraints(sig, menv, vec![constraint.clone()]) {
        Ok(solution) => Ok(vec![solution.subst]),
        Err(e) if e.is_refutation() || matches!(e, UnifyError::Escape { .. }) => Ok(Vec::new()),
        Err(UnifyError::NotPattern { .. }) => {
            let out = huet::pre_unify(sig, menv, vec![constraint], &cfg.huet)?;
            Ok(out
                .solutions
                .into_iter()
                .filter(|s| s.flex_flex.is_empty())
                .map(|s| s.subst)
                .collect())
        }
        Err(e) => Err(e),
    }
}

/// Whether `pattern` matches `target` (closed, top-level convenience).
///
/// # Errors
///
/// As for [`match_term`].
pub fn matches(
    sig: &Signature,
    menv: &MetaEnv,
    ty: &Ty,
    pattern: &Term,
    target: &Term,
) -> Result<bool, UnifyError> {
    match_term(
        sig,
        menv,
        &Ctx::new(),
        ty,
        pattern,
        target,
        &MatchConfig::default(),
    )
    .map(|o| o.is_some())
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
             const forall : (i -> o) -> o.
             const p : i -> o.
             const q : i -> i -> o.
             const a : i.
             const r : o.",
        )
        .unwrap()
    }

    fn setup(metas: &[(&str, &str)], pat: &str) -> (Signature, MetaEnv, Term) {
        let s = sig();
        let parsed = parse_term(&s, pat).unwrap();
        let mut menv = MetaEnv::new();
        for (name, ty) in metas {
            menv.insert(
                parsed.metas.get(name).unwrap().clone(),
                parse_ty(ty).unwrap(),
            );
        }
        (s, menv, parsed.term)
    }

    fn o() -> Ty {
        Ty::base("o")
    }

    #[test]
    fn matches_instance() {
        let (s, menv, pat) = setup(
            &[("P", "o"), ("Q", "i -> o")],
            r"and ?P (forall (\x. ?Q x))",
        );
        let target = parse_term(&s, r"and r (forall (\x. p x))").unwrap().term;
        let m = match_term(
            &s,
            &menv,
            &Ctx::new(),
            &o(),
            &pat,
            &target,
            &MatchConfig::default(),
        )
        .unwrap()
        .expect("should match");
        assert_eq!(
            m.apply(&pat),
            normalize::canon_closed(&s, &target, &o()).unwrap()
        );
    }

    #[test]
    fn rejects_non_instance() {
        let (s, menv, pat) = setup(&[("P", "o")], "and ?P ?P");
        // Both arguments must be equal for the non-linear pattern to match.
        let bad = parse_term(&s, "and r (or r r)").unwrap().term;
        assert!(match_term(
            &s,
            &menv,
            &Ctx::new(),
            &o(),
            &pat,
            &bad,
            &MatchConfig::default()
        )
        .unwrap()
        .is_none());
        let good = parse_term(&s, "and (or r r) (or r r)").unwrap().term;
        assert!(matches(&s, &menv, &o(), &pat, &good).unwrap());
    }

    #[test]
    fn vacuity_side_condition() {
        // Pattern forall (\x. ?P) only matches when the body ignores x.
        let (s, menv, pat) = setup(&[("P", "o")], r"forall (\x. ?P)");
        let dependent = parse_term(&s, r"forall (\x. p x)").unwrap().term;
        assert!(!matches(&s, &menv, &o(), &pat, &dependent).unwrap());
        let vacuous = parse_term(&s, r"forall (\x. r)").unwrap().term;
        assert!(matches(&s, &menv, &o(), &pat, &vacuous).unwrap());
    }

    #[test]
    fn matching_under_ambient_binders() {
        // Match `and ?P ?P` against `and x x` where x is an ambient binder
        // (as happens when rewriting under a λ). The solution mentions x.
        let (s, menv, pat) = setup(&[("P", "o")], "and ?P ?P");
        let ctx = Ctx::new().push(Sym::new("x"), o());
        let target = Term::apps(Term::cnst("and"), [Term::Var(0), Term::Var(0)]);
        let m = match_term(
            &s,
            &menv,
            &ctx,
            &o(),
            &pat,
            &target,
            &MatchConfig::default(),
        )
        .unwrap()
        .expect("should match");
        let (_, sol) = m.iter().next().unwrap();
        assert_eq!(sol, &Term::Var(0));
    }

    #[test]
    fn huet_fallback_for_non_pattern() {
        // ?F a is not a pattern; matching against p a needs the fallback.
        let (s, menv, pat) = setup(&[("F", "i -> o")], "?F a");
        let target = parse_term(&s, "p a").unwrap().term;
        let got = match_term(
            &s,
            &menv,
            &Ctx::new(),
            &o(),
            &pat,
            &target,
            &MatchConfig::default(),
        )
        .unwrap();
        assert!(got.is_some(), "Huet fallback should find a match");
    }

    #[test]
    fn match_all_enumerates() {
        let (s, menv, pat) = setup(&[("F", "i -> o")], "?F a");
        let target = parse_term(&s, "q a a").unwrap().term;
        let cfg = MatchConfig {
            huet: HuetConfig {
                max_solutions: 16,
                ..HuetConfig::default()
            },
        };
        let all = match_all(&s, &menv, &Ctx::new(), &o(), &pat, &target, &cfg).unwrap();
        assert!(all.len() >= 4, "got {}", all.len());
        // Every reported match is sound.
        for m in &all {
            let inst = normalize::canon_closed(&s, &m.apply(&pat), &o()).unwrap();
            let want = normalize::canon_closed(&s, &target, &o()).unwrap();
            assert_eq!(inst, want);
        }
    }

    type AgreementCase = (
        &'static [(&'static str, &'static str)],
        &'static str,
        &'static str,
        bool,
    );

    #[test]
    fn fast_path_agrees_with_general_matching() {
        let cases: &[AgreementCase] = &[
            (
                &[("P", "o"), ("Q", "i -> o")],
                r"and ?P (forall (\x. ?Q x))",
                r"and r (forall (\x. p x))",
                true,
            ),
            // Flexible spine must be solved at its root, not through the
            // App nodes: ?Q x ≐ p a with x unused in the solution.
            (
                &[("Q", "i -> o")],
                r"forall (\x. ?Q x)",
                r"forall (\x. p a)",
                true,
            ),
            // Vacuous-binder side condition.
            (
                &[("P", "o")],
                r"forall (\x. ?P)",
                r"forall (\x. p x)",
                false,
            ),
            (&[("P", "o")], r"forall (\x. ?P)", r"forall (\x. r)", true),
            // Non-linear pattern: equal vs unequal arguments.
            (&[("P", "o")], "and ?P ?P", "and (or r r) (or r r)", true),
            (&[("P", "o")], "and ?P ?P", "and r (or r r)", false),
            // Head clash.
            (&[("P", "o")], "and ?P r", "or r r", false),
        ];
        for (metas, pat, tgt, want) in cases {
            let (s, menv, pat) = setup(metas, pat);
            let target = parse_term(&s, tgt).unwrap().term;
            let target = normalize::canon_closed(&s, &target, &o()).unwrap();
            let pat = normalize::canon(&s, &menv, &Ctx::new(), &pat, &o()).unwrap();
            let fast = match_pattern(&pat, &target).unwrap();
            let general = match_term(
                &s,
                &menv,
                &Ctx::new(),
                &o(),
                &pat,
                &target,
                &MatchConfig::default(),
            )
            .unwrap();
            assert_eq!(fast.is_some(), *want, "fast path on {pat} ≐ {target}");
            assert_eq!(
                fast.is_some(),
                general.is_some(),
                "agreement on {pat} ≐ {target}"
            );
            if let (Some(f), Some(_)) = (&fast, &general) {
                // The fast path's substitution is a genuine matcher: it
                // instantiates the pattern to the target.
                let inst = normalize::canon_closed(&s, &f.apply(&pat), &o()).unwrap();
                assert_eq!(inst, target);
            }
        }
    }

    #[test]
    fn fast_path_under_ambient_binders() {
        // The target may mention variables bound outside the match root;
        // solutions carry them through unchanged.
        let (s, menv, pat) = setup(&[("P", "o")], "and ?P ?P");
        let target = Term::apps(Term::cnst("and"), [Term::Var(0), Term::Var(0)]);
        let m = match_pattern(&pat, &target).unwrap().expect("should match");
        let (_, sol) = m.iter().next().unwrap();
        assert_eq!(sol, &Term::Var(0));
        // And it agrees with the general matcher posed in that context.
        let ctx = Ctx::new().push(Sym::new("x"), o());
        let g = match_term(
            &s,
            &menv,
            &ctx,
            &o(),
            &pat,
            &target,
            &MatchConfig::default(),
        )
        .unwrap()
        .expect("should match");
        assert_eq!(g.get(&pat.metas()[0]), m.get(&pat.metas()[0]));
    }

    #[test]
    fn fast_path_rejects_bad_inputs() {
        let (_, _, pat) = setup(&[("F", "i -> o")], "?F a");
        // Outside the fragment: an explicit error, not a silent miss.
        assert!(matches!(
            match_pattern(&pat, &Term::cnst("r")),
            Err(UnifyError::NotPattern { .. })
        ));
        // Targets must be ground.
        let (_, _, pat2) = setup(&[("P", "o")], "?P");
        assert!(matches!(
            match_pattern(&pat2, &Term::Meta(MVar::new(9, "X"))),
            Err(UnifyError::IllTyped(_))
        ));
    }

    #[test]
    fn target_with_metas_is_an_error() {
        let (s, menv, pat) = setup(&[("P", "o")], "?P");
        let err = match_term(
            &s,
            &menv,
            &Ctx::new(),
            &o(),
            &pat,
            &Term::Meta(MVar::new(9, "X")),
            &MatchConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, UnifyError::IllTyped(_)));
    }
}
