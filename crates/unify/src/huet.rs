//! Huet's **pre-unification** procedure for full higher-order unification
//! (the algorithm the paper's Ergo implementation used).
//!
//! The procedure alternates two phases:
//!
//! * **SIMPL** — decompose rigid-rigid pairs structurally (failing on
//!   clashes) and dispatch pattern-shaped flexible pairs deterministically
//!   via the Miller steps from [`crate::pattern`];
//! * **MATCH** — for a stuck flex-rigid pair `?M x̄ ≐ @ ā`, branch over
//!   *imitation* (copy the rigid head) and *projection* (return one of
//!   `?M`'s arguments) bindings, searching depth-first.
//!
//! Full higher-order unification is only semi-decidable; the search is
//! bounded by [`HuetConfig::max_depth`] and [`HuetConfig::fuel`], and the
//! outcome records whether any branch was truncated
//! ([`SearchOutcome::exhausted`]) so callers can distinguish "no solution"
//! from "ran out of budget".
//!
//! Following Huet, states whose remaining constraints are all flex-flex
//! are **solved** (pre-unifiers): flex-flex pairs always have solutions,
//! and enumerating them is pointless.

use crate::error::UnifyError;
use crate::msubst::MetaSubst;
use crate::pattern;
use crate::problem::{
    eta_expand_var, flex_view, resolve_side, validate_meta_types, Constraint, MetaGen,
};
use hoas_core::ctx::Ctx;
use hoas_core::sig::Signature;
use hoas_core::term::{Head, MetaEnv};
use hoas_core::{MVar, Sym, Term, Ty};

/// Search budgets for pre-unification.
#[derive(Clone, Copy, Debug)]
pub struct HuetConfig {
    /// Maximum number of MATCH (imitation/projection) choices along one
    /// branch.
    pub max_depth: u32,
    /// Stop after this many solutions.
    pub max_solutions: usize,
    /// Total constraint-processing steps across the whole search.
    pub fuel: u64,
}

impl Default for HuetConfig {
    fn default() -> Self {
        HuetConfig {
            max_depth: 8,
            max_solutions: 4,
            fuel: 200_000,
        }
    }
}

/// One pre-unifier.
#[derive(Clone, Debug)]
pub struct Solution {
    /// The computed substitution.
    pub subst: MetaSubst,
    /// Types of all metavariables including fresh ones.
    pub menv: MetaEnv,
    /// Remaining (always-solvable) flex-flex constraints.
    pub flex_flex: Vec<Constraint>,
}

/// The result of a bounded search.
#[derive(Clone, Debug, Default)]
pub struct SearchOutcome {
    /// Solutions found, in discovery order.
    pub solutions: Vec<Solution>,
    /// Whether some branch was cut off by depth or fuel — if `true` and
    /// `solutions` is empty, the problem is *undetermined*, not refuted.
    pub exhausted: bool,
}

/// Pre-unifies a constraint set.
///
/// # Errors
///
/// Returns an error only for malformed inputs
/// ([`UnifyError::UnsupportedMetaType`], [`UnifyError::IllTyped`],
/// [`UnifyError::PolyConst`]). Unsolvability is reported through an empty
/// [`SearchOutcome`], not an error.
pub fn pre_unify(
    sig: &Signature,
    menv: &MetaEnv,
    constraints: Vec<Constraint>,
    cfg: &HuetConfig,
) -> Result<SearchOutcome, UnifyError> {
    validate_meta_types(menv)?;
    let mut out = SearchOutcome::default();
    let mut fuel = cfg.fuel;
    let state = State {
        gen: MetaGen::new(menv.clone()),
        sol: MetaSubst::new(),
        work: constraints,
    };
    dfs(sig, state, cfg.max_depth, cfg, &mut out, &mut fuel)?;
    Ok(out)
}

/// Pre-unifies two closed terms at a type.
///
/// # Errors
///
/// As for [`pre_unify`].
pub fn pre_unify_terms(
    sig: &Signature,
    menv: &MetaEnv,
    ty: &Ty,
    left: &Term,
    right: &Term,
    cfg: &HuetConfig,
) -> Result<SearchOutcome, UnifyError> {
    pre_unify(
        sig,
        menv,
        vec![Constraint::closed(ty.clone(), left.clone(), right.clone())],
        cfg,
    )
}

#[derive(Clone)]
struct State {
    gen: MetaGen<'static>,
    sol: MetaSubst,
    work: Vec<Constraint>,
}

fn dfs(
    sig: &Signature,
    mut st: State,
    depth: u32,
    cfg: &HuetConfig,
    out: &mut SearchOutcome,
    fuel: &mut u64,
) -> Result<(), UnifyError> {
    let stuck = match simpl(sig, &mut st, fuel) {
        Ok(stuck) => stuck,
        Err(e) if e.is_refutation() => return Ok(()), // dead branch
        Err(UnifyError::Escape { .. }) => return Ok(()), // dead branch
        Err(UnifyError::BudgetExhausted) => {
            out.exhausted = true;
            return Ok(());
        }
        Err(e) => return Err(e), // malformed problem
    };
    // Find a stuck pair with a rigid side to MATCH on.
    let pick = stuck.iter().position(|c| {
        let lf = flex_view(&c.left, c.local).is_some();
        let rf = flex_view(&c.right, c.local).is_some();
        lf != rf
    });
    let Some(idx) = pick else {
        // All flex-flex (or nothing): a pre-unifier.
        out.solutions.push(Solution {
            subst: st.sol,
            menv: st.gen.menv,
            flex_flex: stuck,
        });
        return Ok(());
    };
    if depth == 0 {
        out.exhausted = true;
        return Ok(());
    }
    let c = &stuck[idx];
    let (flex, rigid) = if flex_view(&c.left, c.local).is_some() {
        (&c.left, &c.right)
    } else {
        (&c.right, &c.left)
    };
    let Some(view) = flex_view(flex, c.local) else {
        unreachable!("picked constraint has a flexible side")
    };
    let m = view.mvar;
    let kinds = candidate_kinds(sig, &st.gen, &c.ctx, c.local, &m, rigid)?;
    if kinds.is_empty() {
        return Ok(()); // no binding can solve this pair: dead branch
    }
    for kind in kinds {
        if out.solutions.len() >= cfg.max_solutions {
            return Ok(());
        }
        let mut st2 = st.clone();
        let binding = build_binding(&mut st2.gen, &m, &kind)?;
        st2.sol.bind(m.clone(), binding);
        st2.work.extend(stuck.iter().cloned());
        dfs(sig, st2, depth - 1, cfg, out, fuel)?;
    }
    Ok(())
}

/// SIMPL: decompose until only non-pattern flexible pairs remain.
fn simpl(sig: &Signature, st: &mut State, fuel: &mut u64) -> Result<Vec<Constraint>, UnifyError> {
    let mut stuck: Vec<Constraint> = Vec::new();
    while let Some(c) = st.work.pop() {
        if *fuel == 0 {
            return Err(UnifyError::BudgetExhausted);
        }
        *fuel -= 1;
        let left = resolve_side(sig, &st.gen, &st.sol, &c, &c.left)?;
        let right = resolve_side(sig, &st.gen, &st.sol, &c, &c.right)?;
        // Snapshot so that a partially-performed pattern step (pruning)
        // can be rolled back when the pair turns out to be non-pattern.
        let saved_sol = st.sol.clone();
        let saved_gen = st.gen.clone();
        let solved_before = st.sol.len();
        let mut stuck_hit: Option<Constraint> = None;
        let result = pattern::decompose_step(
            sig,
            &mut st.gen,
            &mut st.sol,
            &mut st.work,
            c.ctx.clone(),
            c.local,
            c.ty.clone(),
            left,
            right,
            &mut |c| {
                stuck_hit = Some(c);
                Err(UnifyError::BudgetExhausted) // sentinel, remapped below
            },
        );
        match result {
            Ok(()) => {
                // If a metavariable got solved, previously stuck pairs may
                // now decompose: move them back to the worklist.
                if st.sol.len() != solved_before && !stuck.is_empty() {
                    st.work.append(&mut stuck);
                }
            }
            Err(_) if stuck_hit.is_some() => {
                st.sol = saved_sol;
                st.gen = saved_gen;
                stuck.push(stuck_hit.take().expect("just checked"));
            }
            Err(UnifyError::NotPattern { .. }) => {
                // A nested non-pattern occurrence inside a pattern step:
                // keep the pair for the search phase.
                st.sol = saved_sol;
                st.gen = saved_gen;
                stuck.push(c);
            }
            Err(e) => return Err(e),
        }
    }
    Ok(stuck)
}

/// A MATCH binding candidate for `?M : A₁→…→Aₙ→B`.
enum BindingKind {
    /// Copy the rigid head (a constant, an ambient variable rendered in
    /// solution scope, or an integer literal).
    Imitate { head: Term, head_ty: Ty },
    /// Return the k-th argument of `?M` (0-based, outermost first).
    Project { k: usize },
}

/// Enumerates binding kinds for the stuck pair `?M x̄ ≐ rigid`.
///
/// Imitation is offered when the rigid head is a constant, an *ambient*
/// variable (in solution scope — constraint-local heads cannot be
/// imitated, only projected at), or an integer literal. A projection at
/// argument `k` is offered when `Aₖ`'s target type equals `?M`'s target
/// type (simple types admit no other way for `xₖ ā` to land in `B`).
fn candidate_kinds(
    sig: &Signature,
    gen: &MetaGen<'_>,
    ctx: &Ctx,
    local: u32,
    m: &MVar,
    rigid: &Term,
) -> Result<Vec<BindingKind>, UnifyError> {
    let mty = gen.ty_of(m)?.clone();
    let (arg_tys, target) = mty.uncurry();
    let n = arg_tys.len();
    let mut kinds = Vec::new();
    match rigid.head_spine() {
        Some((Head::Const(cname), _)) => {
            let hty = crate::problem::head_ty(sig, gen, ctx, &Head::Const(cname.clone()))?;
            kinds.push(BindingKind::Imitate {
                head: Term::Const(cname),
                head_ty: hty,
            });
        }
        Some((Head::Var(i), _)) if i >= local => {
            // Ambient variable: in solution scope its index drops by
            // `local` (solutions are closed under the λ^n binders, which
            // `build_binding` accounts for by shifting ambient indices
            // past n).
            let hty = crate::problem::head_ty(sig, gen, ctx, &Head::Var(i))?;
            kinds.push(BindingKind::Imitate {
                head: Term::Var(i - local + n as u32),
                head_ty: hty,
            });
        }
        _ => {
            if let Term::Int(j) = rigid {
                if target == &Ty::Int {
                    kinds.push(BindingKind::Imitate {
                        head: Term::Int(*j),
                        head_ty: Ty::Int,
                    });
                }
            }
            // Constraint-local head or projection-rooted neutral: no
            // imitation, projections only.
        }
    }
    for (k, ak) in arg_tys.iter().enumerate() {
        let (_, ak_target) = ak.uncurry();
        if ak_target == target {
            kinds.push(BindingKind::Project { k });
        }
    }
    Ok(kinds)
}

/// Builds the solution term for a binding kind.
fn build_binding(gen: &mut MetaGen<'_>, m: &MVar, kind: &BindingKind) -> Result<Term, UnifyError> {
    let mty = gen.ty_of(m)?.clone();
    let (arg_tys, _target) = mty.uncurry();
    let arg_tys: Vec<Ty> = arg_tys.into_iter().cloned().collect();
    let n = arg_tys.len();
    // η-expanded binder variables x̄, usable as arguments to fresh metas.
    let spine_args: Vec<Term> = (0..n)
        .map(|i| eta_expand_var((n - 1 - i) as u32, &arg_tys[i]))
        .collect();
    let body = match kind {
        BindingKind::Imitate { head, head_ty } => {
            let (h_args, _) = head_ty.uncurry();
            let fresh_apps: Vec<Term> = h_args
                .iter()
                .map(|ci| {
                    let hty = Ty::arrows(arg_tys.iter().cloned(), (*ci).clone());
                    let h = gen.fresh("H", hty);
                    Term::apps(Term::Meta(h), spine_args.iter().cloned())
                })
                .collect();
            Term::apps(head.clone(), fresh_apps)
        }
        BindingKind::Project { k } => {
            let ak = &arg_tys[*k];
            let (k_args, _) = ak.uncurry();
            let fresh_apps: Vec<Term> = k_args
                .iter()
                .map(|ci| {
                    let hty = Ty::arrows(arg_tys.iter().cloned(), (*ci).clone());
                    let h = gen.fresh("H", hty);
                    Term::apps(Term::Meta(h), spine_args.iter().cloned())
                })
                .collect();
            Term::apps(Term::Var((n - 1 - *k) as u32), fresh_apps)
        }
    };
    let hints: Vec<Sym> = (0..n).map(|i| Sym::new(format!("x{i}"))).collect();
    Ok(Term::lams(hints, body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hoas_core::parse::parse_term_with;
    use hoas_core::prelude::*;

    fn fol_sig() -> Signature {
        Signature::parse(
            "type i.
             type o.
             const and : o -> o -> o.
             const or : o -> o -> o.
             const forall : (i -> o) -> o.
             const p : i -> o.
             const q : i -> i -> o.
             const f : i -> i.
             const a : i.
             const b : i.
             const r : o.",
        )
        .unwrap()
    }

    fn o() -> Ty {
        Ty::base("o")
    }

    fn solve(
        metas: &[(&str, &str)],
        ty: &str,
        l: &str,
        r: &str,
        cfg: &HuetConfig,
    ) -> (SearchOutcome, Term, Term) {
        let sig = fol_sig();
        let pl = parse_term(&sig, l).unwrap();
        let pr = parse_term_with(&sig, r, pl.metas.clone()).unwrap();
        let mut menv = MetaEnv::new();
        for (name, t) in metas {
            let m = pr
                .metas
                .get(name)
                .unwrap_or_else(|| panic!("?{name} unused"))
                .clone();
            menv.insert(m, parse_ty(t).unwrap());
        }
        let out =
            pre_unify_terms(&sig, &menv, &parse_ty(ty).unwrap(), &pl.term, &pr.term, cfg).unwrap();
        (out, pl.term, pr.term)
    }

    fn assert_sound(out: &SearchOutcome, l: &Term, r: &Term, sig: &Signature, ty: &Ty) {
        for s in &out.solutions {
            if !s.flex_flex.is_empty() {
                continue; // pre-unifier: sides equal only modulo flex-flex
            }
            let al = normalize::canon_closed(sig, &s.subst.apply(l), ty).unwrap();
            let ar = normalize::canon_closed(sig, &s.subst.apply(r), ty).unwrap();
            assert_eq!(al, ar, "solution does not equalize");
        }
    }

    #[test]
    fn pattern_problems_solved_without_search() {
        let cfg = HuetConfig::default();
        let (out, l, r) = solve(&[("P", "o")], "o", "and ?P r", "and (or r r) r", &cfg);
        assert_eq!(out.solutions.len(), 1);
        assert!(!out.exhausted);
        assert_sound(&out, &l, &r, &fol_sig(), &o());
    }

    #[test]
    fn clash_refuted_without_exhaustion() {
        let cfg = HuetConfig::default();
        let (out, _, _) = solve(&[("P", "o")], "o", "and ?P r", "or r r", &cfg);
        assert!(out.solutions.is_empty());
        assert!(!out.exhausted, "refutation must not look like a budget cut");
    }

    #[test]
    fn non_pattern_solved_by_imitation() {
        hoas_core::StoreHandle::isolated().enter(|| {
            // Isolated store: this test matches metavariables by printing
            // hint, and hints are canonical per α-class per store.
            // ?F a ≐ p a — outside the pattern fragment. Solutions include
            // ?F := λx. p x and ?F := λx. p a.
            let cfg = HuetConfig {
                max_solutions: 8,
                ..HuetConfig::default()
            };
            let (out, l, r) = solve(&[("F", "i -> o")], "o", "?F a", "p a", &cfg);
            assert!(out.solutions.len() >= 2, "found {}", out.solutions.len());
            assert_sound(&out, &l, &r, &fol_sig(), &o());
            // Check the two classic solutions appear.
            let sig = fol_sig();
            let rendered: Vec<String> = out
                .solutions
                .iter()
                .filter_map(|s| {
                    let m = s.subst.iter().find(|(m, _)| m.hint().as_str() == "F")?;
                    Some(
                        normalize::canon_closed(&sig, m.1, &parse_ty("i -> o").unwrap())
                            .unwrap()
                            .to_string(),
                    )
                })
                .collect();
            assert!(
                rendered.iter().any(|s| s == r"\x0. p x0"),
                "missing projection-based solution in {rendered:?}"
            );
            assert!(
                rendered.iter().any(|s| s == r"\x0. p a"),
                "missing constant solution in {rendered:?}"
            );
        })
    }

    #[test]
    fn projection_solution_found() {
        // ?F a ≐ a at type i: ?F := λx. x and ?F := λx. a.
        let cfg = HuetConfig {
            max_solutions: 8,
            ..HuetConfig::default()
        };
        let (out, l, r) = solve(&[("F", "i -> i")], "i", "?F a", "a", &cfg);
        assert!(out.solutions.len() >= 2);
        assert_sound(&out, &l, &r, &fol_sig(), &Ty::base("i"));
    }

    #[test]
    fn second_order_matching_with_repeated_variable() {
        // ?F a ≐ q a a: famous multi-solution problem (4 solutions).
        let cfg = HuetConfig {
            max_solutions: 16,
            ..HuetConfig::default()
        };
        let (out, l, r) = solve(&[("F", "i -> o")], "o", "?F a", "q a a", &cfg);
        assert_sound(&out, &l, &r, &fol_sig(), &o());
        assert!(
            out.solutions.len() >= 4,
            "expected ≥4 solutions, got {}",
            out.solutions.len()
        );
    }

    #[test]
    fn unsolvable_flex_rigid_with_local_head() {
        // forall (\x. ?P) ≐ forall (\x. p x): pattern refutation inside
        // Huet (escape) — dead branch, no solutions, not exhausted.
        let cfg = HuetConfig::default();
        let (out, _, _) = solve(
            &[("P", "o")],
            "o",
            r"forall (\x. ?P)",
            r"forall (\x. p x)",
            &cfg,
        );
        assert!(out.solutions.is_empty());
        assert!(!out.exhausted);
    }

    #[test]
    fn flex_flex_reported_as_pre_unifier() {
        let cfg = HuetConfig::default();
        let (out, _, _) = solve(
            &[("F", "i -> o"), ("G", "i -> o")],
            "o",
            "?F a",
            "?G b",
            &cfg,
        );
        assert_eq!(out.solutions.len(), 1);
        assert_eq!(out.solutions[0].flex_flex.len(), 1);
        assert!(out.solutions[0].subst.is_empty());
    }

    #[test]
    fn depth_zero_reports_exhaustion() {
        let cfg = HuetConfig {
            max_depth: 0,
            ..HuetConfig::default()
        };
        let (out, _, _) = solve(&[("F", "i -> o")], "o", "?F a", "p a", &cfg);
        assert!(out.solutions.is_empty());
        assert!(out.exhausted);
    }

    #[test]
    fn max_solutions_respected() {
        let cfg = HuetConfig {
            max_solutions: 1,
            ..HuetConfig::default()
        };
        let (out, _, _) = solve(&[("F", "i -> o")], "o", "?F a", "q a a", &cfg);
        assert_eq!(out.solutions.len(), 1);
    }

    #[test]
    fn deep_imitation_chain() {
        // ?F a ≐ p (f (f a)) requires nested imitations.
        let cfg = HuetConfig {
            max_solutions: 1,
            ..HuetConfig::default()
        };
        let (out, l, r) = solve(&[("F", "i -> o")], "o", "?F a", "p (f (f a))", &cfg);
        assert!(!out.solutions.is_empty());
        assert_sound(&out, &l, &r, &fol_sig(), &o());
    }
}
