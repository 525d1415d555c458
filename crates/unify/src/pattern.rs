//! Miller **pattern unification**: the decidable fragment of higher-order
//! unification in which every metavariable occurrence is applied to a
//! spine of *distinct constraint-local variables*.
//!
//! Within this fragment unification is unitary: a solvable problem has a
//! most general unifier, computed here by spine inversion with *pruning*
//! of nested metavariable arguments (Miller 1991, as used by λProlog,
//! Twelf, and Beluga — all descendants of the paper under reproduction).
//!
//! Outside the fragment the solver reports [`UnifyError::NotPattern`]
//! (not a refutation!); callers fall back to [`crate::huet`].
//!
//! The individual solving steps (flex-rigid inversion and the two
//! flex-flex cases) are shared with the Huet engine, which uses them to
//! dispatch pattern-shaped pairs deterministically before searching.

use crate::error::UnifyError;
use crate::msubst::{solution_lams, Bindings, MetaSubst};
use crate::problem::{
    eta_expand_var, flex_view, head_ty, resolve_side, validate_meta_types, Constraint, MetaGen,
};
use hoas_core::ctx::Ctx;
use hoas_core::term::{Head, MetaEnv, MetaTypes};
use hoas_core::{normalize, MVar, Sym, Term, TermRef, Ty};

/// A successful pattern unification: the most general unifier plus the
/// extended metavariable environment (pruning and flex-flex steps allocate
/// fresh metavariables).
#[derive(Clone, Debug)]
pub struct PatternSolution {
    /// The most general unifier.
    pub subst: MetaSubst,
    /// Types for all metavariables, including freshly allocated ones.
    pub menv: MetaEnv,
}

/// Default step budget; generously above anything a rewrite rule needs.
pub const DEFAULT_FUEL: u64 = 1_000_000;

/// Unifies a set of constraints in the pattern fragment.
///
/// # Errors
///
/// * Refutations: [`UnifyError::Clash`], [`UnifyError::Occurs`],
///   [`UnifyError::IntClash`], [`UnifyError::Escape`].
/// * Fragment/budget limits: [`UnifyError::NotPattern`],
///   [`UnifyError::BudgetExhausted`], [`UnifyError::UnsupportedMetaType`].
/// * [`UnifyError::IllTyped`] if the constraints are not well-typed.
pub fn unify_constraints(
    sig: &hoas_core::sig::Signature,
    menv: &MetaEnv,
    constraints: Vec<Constraint>,
) -> Result<PatternSolution, UnifyError> {
    validate_meta_types(menv)?;
    let next = menv.keys().map(|m| m.id() + 1).max().unwrap_or(0);
    let delta = run_solver(sig, MetaGen::over(menv, next), None, constraints)?;
    let mut menv = menv.clone();
    menv.extend(delta.fresh);
    Ok(PatternSolution {
        subst: delta.subst,
        menv,
    })
}

/// What one [`unify_against`] call adds to the metavariable state it
/// was posed against.
#[derive(Clone, Debug)]
pub struct Delta {
    /// Solutions for metavariables the state leaves unsolved. They are
    /// idempotent among themselves and mention no metavariable that the
    /// state or `subst` solves.
    pub subst: MetaSubst,
    /// The metavariables pruning and flex-flex steps allocated, with
    /// their types, in allocation (id) order.
    pub fresh: Vec<(MVar, Ty)>,
}

/// Unifies `left ≐ right : ty` under the ambient context `ctx` against
/// a caller-owned metavariable state: types are read through
/// [`MetaTypes`] and existing solutions through [`Bindings`], so nothing
/// of the state is copied. Fresh metavariables are numbered from `next`
/// upward, which must lie above every id the state uses.
///
/// Both sides must be **canonical** (η-long β-normal) at `ty` under
/// `ctx`, and the state's solutions canonical at their types: the sides
/// are not re-canonicalized, only the state's solutions are applied to
/// them (hereditary substitution keeps them canonical), and only when a
/// solved metavariable occurs. Debug builds assert the precondition.
/// The returned solutions are canonical too. Use [`unify_constraints`]
/// for arbitrary well-typed input.
///
/// The state's metavariable types are trusted to be in the supported
/// fragment (the caller validates them once, where it creates them).
///
/// # Errors
///
/// As for [`unify_constraints`].
pub fn unify_against<S: MetaTypes + Bindings>(
    sig: &hoas_core::sig::Signature,
    state: &S,
    next: u32,
    ctx: Ctx,
    ty: Ty,
    left: Term,
    right: Term,
) -> Result<Delta, UnifyError> {
    let constraint = Constraint::in_ambient(ctx, ty, left, right);
    run_solver(
        sig,
        MetaGen::over(state, next),
        Some(state),
        vec![constraint],
    )
}

fn run_solver(
    sig: &hoas_core::sig::Signature,
    gen: MetaGen<'_>,
    base: Option<&dyn Bindings>,
    constraints: Vec<Constraint>,
) -> Result<Delta, UnifyError> {
    let mut solver = Solver {
        sig,
        gen,
        base,
        sol: MetaSubst::new(),
        inputs: constraints.len(),
        work: constraints,
        fuel: DEFAULT_FUEL,
    };
    solver.run()?;
    let mut fresh: Vec<(MVar, Ty)> = solver.gen.menv.into_iter().collect();
    fresh.sort_unstable_by_key(|(m, _)| m.id());
    Ok(Delta {
        subst: solver.sol,
        fresh,
    })
}

/// Unifies two closed terms at a type.
///
/// # Errors
///
/// As for [`unify_constraints`].
pub fn unify(
    sig: &hoas_core::sig::Signature,
    menv: &MetaEnv,
    ty: &Ty,
    left: &Term,
    right: &Term,
) -> Result<PatternSolution, UnifyError> {
    unify_constraints(
        sig,
        menv,
        vec![Constraint::closed(ty.clone(), left.clone(), right.clone())],
    )
}

// -------------------------------------------------- shared solving steps --

/// Solves `?M x̄ ≐ rhs` by inversion: `?M := λx̄. rhs⁻¹`. Prunes nested
/// metavariable arguments where necessary (allocating fresh metas in
/// `gen` and binding the pruned ones in `sol`).
///
/// # Errors
///
/// [`UnifyError::Occurs`], [`UnifyError::Escape`] (refutations within the
/// pattern fragment), or [`UnifyError::NotPattern`] if a nested flexible
/// occurrence cannot be pruned.
pub(crate) fn solve_flex_rigid(
    gen: &mut MetaGen<'_>,
    sol: &mut MetaSubst,
    m: &MVar,
    spine: &[u32],
    local: u32,
    rhs: &Term,
) -> Result<(), UnifyError> {
    let body = invert(gen, sol, m, spine, local, rhs, 0)?;
    let solution = match spine.len() {
        0 => body,
        n => solution_lams(n, TermRef::new(body)),
    };
    sol.bind(m.clone(), solution);
    Ok(())
}

/// Converts `t` (a term at constraint-local depth `local`, under `under`
/// additional binders traversed inside `t`) into the body of a solution
/// `λ^n. body` for `m` with pattern spine `spine`.
///
/// Variable mapping (see crate docs for the scope discipline):
/// * inner (< `under`): unchanged;
/// * constraint-local (`under ≤ i < under + local`): must be in the spine,
///   mapped to the corresponding λ-binder — otherwise the variable would
///   escape (prunable only under a flexible head);
/// * ambient (`≥ under + local`): renumbered past the λ-binders.
fn invert(
    gen: &mut MetaGen<'_>,
    sol: &mut MetaSubst,
    m: &MVar,
    spine: &[u32],
    local: u32,
    t: &Term,
    under: u32,
) -> Result<Term, UnifyError> {
    let n = spine.len() as u32;
    // Subterms below the traversed binders with no metavariables are fixed
    // points of the inversion: share them (O(1) occurs/escape handling).
    if t.max_free() <= under && !t.has_metas() {
        return Ok(t.clone());
    }
    if let Some((Head::Meta(inner), args)) = t.head_spine() {
        if &inner == m {
            return Err(UnifyError::Occurs { mvar: m.clone() });
        }
        return invert_flex(gen, sol, m, spine, local, &inner, &args, under);
    }
    match t {
        Term::Var(i) => {
            let i = *i;
            if i < under {
                Ok(Term::Var(i))
            } else {
                let j = i - under;
                if j < local {
                    match spine.iter().position(|&s| s == j) {
                        Some(k) => Ok(Term::Var(under + (n - 1 - k as u32))),
                        None => Err(UnifyError::Escape { mvar: m.clone() }),
                    }
                } else {
                    Ok(Term::Var(under + n + (j - local)))
                }
            }
        }
        Term::Lam(h, b) => Ok(Term::lam(
            h.clone(),
            invert_ref(gen, sol, m, spine, local, b, under + 1)?,
        )),
        Term::App(f, a) => Ok(Term::app(
            invert_ref(gen, sol, m, spine, local, f, under)?,
            invert_ref(gen, sol, m, spine, local, a, under)?,
        )),
        Term::Pair(a, b) => Ok(Term::pair(
            invert_ref(gen, sol, m, spine, local, a, under)?,
            invert_ref(gen, sol, m, spine, local, b, under)?,
        )),
        Term::Fst(p) => Ok(Term::fst(invert_ref(gen, sol, m, spine, local, p, under)?)),
        Term::Snd(p) => Ok(Term::snd(invert_ref(gen, sol, m, spine, local, p, under)?)),
        Term::Const(_) | Term::Int(_) | Term::Unit => Ok(t.clone()),
        Term::Meta(_) => unreachable!("meta heads handled above"),
    }
}

/// [`invert`] on a shared subterm, preserving the `Rc` when the subterm is
/// a fixed point of the inversion.
#[allow(clippy::too_many_arguments)]
fn invert_ref(
    gen: &mut MetaGen<'_>,
    sol: &mut MetaSubst,
    m: &MVar,
    spine: &[u32],
    local: u32,
    t: &TermRef,
    under: u32,
) -> Result<TermRef, UnifyError> {
    if t.max_free() <= under && !t.has_meta() {
        Ok(t.clone())
    } else {
        Ok(TermRef::new(invert(gen, sol, m, spine, local, t, under)?))
    }
}

/// Inverts an occurrence `?N ā` inside the prospective solution of `?M`,
/// pruning arguments of `?N` that mention unmappable local variables.
#[allow(clippy::too_many_arguments)]
fn invert_flex(
    gen: &mut MetaGen<'_>,
    sol: &mut MetaSubst,
    m: &MVar,
    spine: &[u32],
    local: u32,
    inner: &MVar,
    args: &[&Term],
    under: u32,
) -> Result<Term, UnifyError> {
    #[derive(Clone, Copy)]
    enum Arg {
        Keep,
        Prune,
    }
    let mut classes = Vec::with_capacity(args.len());
    let mut seen = Vec::new();
    let mut all_pattern = true;
    for a in args {
        match normalize::eta_contract(a) {
            Term::Var(i) => {
                if seen.contains(&i) {
                    all_pattern = false;
                    break;
                }
                seen.push(i);
                if i < under {
                    classes.push(Arg::Keep);
                } else {
                    let j = i - under;
                    if j < local && !spine.contains(&j) {
                        classes.push(Arg::Prune);
                    } else {
                        classes.push(Arg::Keep);
                    }
                }
            }
            _ => {
                all_pattern = false;
                break;
            }
        }
    }
    if !all_pattern || classes.iter().all(|c| matches!(c, Arg::Keep)) {
        // No pruning possible/needed: invert the arguments structurally
        // (a needed-but-impossible pruning will surface as Escape).
        let mut inv_args = Vec::with_capacity(args.len());
        for a in args {
            inv_args.push(invert(gen, sol, m, spine, local, a, under)?);
        }
        return Ok(Term::apps(Term::Meta(inner.clone()), inv_args));
    }
    // Prune: ?N := λy₁…yₖ. ?N' (kept ys).
    let inner_ty = gen.ty_of(inner)?.clone();
    let (arg_tys, target) = inner_ty.uncurry();
    if arg_tys.len() != args.len() {
        return Err(UnifyError::not_pattern(&Term::Meta(inner.clone())));
    }
    let kept: Vec<usize> = classes
        .iter()
        .enumerate()
        .filter_map(|(k, c)| matches!(c, Arg::Keep).then_some(k))
        .collect();
    let pruned_ty = Ty::arrows(kept.iter().map(|&k| arg_tys[k].clone()), target.clone());
    let pruned = gen.fresh(&format!("{}'", inner.hint()), pruned_ty);
    let k_all = args.len() as u32;
    let body = Term::apps(
        Term::Meta(pruned.clone()),
        kept.iter()
            .map(|&k| eta_expand_var(k_all - 1 - k as u32, arg_tys[k])),
    );
    let hints: Vec<Sym> = (0..args.len()).map(|i| Sym::new(format!("y{i}"))).collect();
    sol.bind(inner.clone(), Term::lams(hints, body));
    let mut inv_args = Vec::with_capacity(kept.len());
    for &k in &kept {
        inv_args.push(invert(gen, sol, m, spine, local, args[k], under)?);
    }
    Ok(Term::apps(Term::Meta(pruned), inv_args))
}

/// `?M x̄ ≐ ?M ȳ`: keep positions where the spines agree.
pub(crate) fn flex_flex_same(
    gen: &mut MetaGen<'_>,
    sol: &mut MetaSubst,
    m: &MVar,
    s1: &[u32],
    s2: &[u32],
) -> Result<(), UnifyError> {
    if s1 == s2 {
        return Ok(());
    }
    let mty = gen.ty_of(m)?.clone();
    let (arg_tys, target) = mty.uncurry();
    let n = s1.len();
    debug_assert_eq!(s1.len(), s2.len());
    let kept: Vec<usize> = (0..n).filter(|&k| s1[k] == s2[k]).collect();
    let new_ty = Ty::arrows(kept.iter().map(|&k| arg_tys[k].clone()), target.clone());
    let fresh = gen.fresh(&format!("{}'", m.hint()), new_ty);
    let body = Term::apps(
        Term::Meta(fresh),
        kept.iter()
            .map(|&k| eta_expand_var((n - 1 - k) as u32, arg_tys[k])),
    );
    let hints: Vec<Sym> = (0..n).map(|i| Sym::new(format!("z{i}"))).collect();
    sol.bind(m.clone(), Term::lams(hints, body));
    Ok(())
}

/// `?M x̄ ≐ ?N ȳ` with `M ≠ N`: both become a fresh metavariable over the
/// variables common to both spines.
pub(crate) fn flex_flex_diff(
    gen: &mut MetaGen<'_>,
    sol: &mut MetaSubst,
    m: &MVar,
    s1: &[u32],
    n_var: &MVar,
    s2: &[u32],
) -> Result<(), UnifyError> {
    let mty = gen.ty_of(m)?.clone();
    let nty = gen.ty_of(n_var)?.clone();
    let (m_args, target) = mty.uncurry();
    let (n_args, _) = nty.uncurry();
    let mut pairs = Vec::new();
    for (k1, v) in s1.iter().enumerate() {
        if let Some(k2) = s2.iter().position(|w| w == v) {
            pairs.push((k1, k2));
        }
    }
    let common_ty = Ty::arrows(
        pairs.iter().map(|&(k1, _)| m_args[k1].clone()),
        target.clone(),
    );
    let fresh = gen.fresh(&format!("{}''", m.hint()), common_ty);
    let n1 = s1.len();
    let n2 = s2.len();
    let m_body = Term::apps(
        Term::Meta(fresh.clone()),
        pairs
            .iter()
            .map(|&(k1, _)| eta_expand_var((n1 - 1 - k1) as u32, m_args[k1])),
    );
    let n_body = Term::apps(
        Term::Meta(fresh),
        pairs
            .iter()
            .map(|&(_, k2)| eta_expand_var((n2 - 1 - k2) as u32, n_args[k2])),
    );
    let m_hints: Vec<Sym> = (0..n1).map(|i| Sym::new(format!("z{i}"))).collect();
    let n_hints: Vec<Sym> = (0..n2).map(|i| Sym::new(format!("z{i}"))).collect();
    sol.bind(m.clone(), Term::lams(m_hints, m_body));
    sol.bind(n_var.clone(), Term::lams(n_hints, n_body));
    Ok(())
}

/// Decomposes a constraint one step given already-resolved (canonical)
/// sides, pushing subconstraints onto `work`. The sides of every pushed
/// subconstraint are canonical too, and mention no metavariable solved in
/// `sol` when the step began.
///
/// This is shared between the pattern solver (which *requires* flexible
/// pairs to be patterns) and the Huet engine (which collects non-pattern
/// pairs for search); the `on_stuck` callback receives pairs the pattern
/// steps cannot decide.
#[allow(clippy::too_many_arguments)]
pub(crate) fn decompose_step(
    sig: &hoas_core::sig::Signature,
    gen: &mut MetaGen<'_>,
    sol: &mut MetaSubst,
    work: &mut Vec<Constraint>,
    ctx: hoas_core::ctx::Ctx,
    local: u32,
    ty: Ty,
    left: Term,
    right: Term,
    on_stuck: &mut dyn FnMut(Constraint) -> Result<(), UnifyError>,
) -> Result<(), UnifyError> {
    match &ty {
        Ty::Arrow(dom, cod) => {
            let (hl, bl) = match left {
                Term::Lam(h, b) => (h, b.into_term()),
                other => {
                    return Err(UnifyError::IllTyped(hoas_core::Error::CheckShape {
                        form: "non-λ canonical term",
                        ty: other_ty(&other, &ty),
                    }))
                }
            };
            let br = match right {
                Term::Lam(_, b) => b.into_term(),
                other => {
                    return Err(UnifyError::IllTyped(hoas_core::Error::CheckShape {
                        form: "non-λ canonical term",
                        ty: other_ty(&other, &ty),
                    }))
                }
            };
            work.push(Constraint {
                ctx: ctx.push(hl, dom.as_ref().clone()),
                local: local + 1,
                ty: cod.as_ref().clone(),
                left: bl,
                right: br,
            });
            Ok(())
        }
        Ty::Prod(a, b) => match (left, right) {
            (Term::Pair(l1, l2), Term::Pair(r1, r2)) => {
                work.push(Constraint {
                    ctx: ctx.clone(),
                    local,
                    ty: a.as_ref().clone(),
                    left: l1.into_term(),
                    right: r1.into_term(),
                });
                work.push(Constraint {
                    ctx,
                    local,
                    ty: b.as_ref().clone(),
                    left: l2.into_term(),
                    right: r2.into_term(),
                });
                Ok(())
            }
            (l, r) => Err(UnifyError::clash(&l, &r)),
        },
        Ty::Unit => Ok(()),
        Ty::Base(_) | Ty::Int | Ty::Var(_) => {
            decompose_base(sig, gen, sol, work, ctx, local, ty, left, right, on_stuck)
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn decompose_base(
    sig: &hoas_core::sig::Signature,
    gen: &mut MetaGen<'_>,
    sol: &mut MetaSubst,
    work: &mut Vec<Constraint>,
    ctx: hoas_core::ctx::Ctx,
    local: u32,
    ty: Ty,
    left: Term,
    right: Term,
    on_stuck: &mut dyn FnMut(Constraint) -> Result<(), UnifyError>,
) -> Result<(), UnifyError> {
    if left == right {
        return Ok(());
    }
    if let (Term::Int(a), Term::Int(b)) = (&left, &right) {
        return Err(UnifyError::IntClash {
            left: *a,
            right: *b,
        });
    }
    let fl = flex_view(&left, local);
    let fr = flex_view(&right, local);
    match (fl, fr) {
        (Some(vl), Some(vr)) => match (vl.pattern_spine, vr.pattern_spine) {
            (Some(sl), Some(sr)) => {
                if vl.mvar == vr.mvar {
                    flex_flex_same(gen, sol, &vl.mvar, &sl, &sr)
                } else {
                    flex_flex_diff(gen, sol, &vl.mvar, &sl, &vr.mvar, &sr)
                }
            }
            _ => on_stuck(Constraint {
                ctx,
                local,
                ty,
                left,
                right,
            }),
        },
        (Some(vl), None) => match vl.pattern_spine {
            Some(spine) => solve_flex_rigid(gen, sol, &vl.mvar, &spine, local, &right),
            None => on_stuck(Constraint {
                ctx,
                local,
                ty,
                left,
                right,
            }),
        },
        (None, Some(vr)) => match vr.pattern_spine {
            Some(spine) => solve_flex_rigid(gen, sol, &vr.mvar, &spine, local, &left),
            None => on_stuck(Constraint {
                ctx,
                local,
                ty,
                left,
                right,
            }),
        },
        (None, None) => rigid_rigid(sig, gen, work, ctx, local, left, right),
    }
}

/// Decomposes a pair of rigid neutral terms: equal heads and
/// eliminations of the same shapes, one sub-constraint per pair of
/// arguments. Projections are eliminations like applications, so
/// `snd (g ?X) ≐ snd (g a)` decomposes to `?X ≐ a` through the spine
/// under the projection; the arguments of a canonical neutral are
/// canonical at their types.
fn rigid_rigid(
    sig: &hoas_core::sig::Signature,
    gen: &MetaGen<'_>,
    work: &mut Vec<Constraint>,
    ctx: hoas_core::ctx::Ctx,
    local: u32,
    left: Term,
    right: Term,
) -> Result<(), UnifyError> {
    let (Some((hl, el)), Some((hr, er))) = (neutral(&left), neutral(&right)) else {
        return Err(UnifyError::clash(&left, &right));
    };
    let same_shape = |(l, r): (&Elim<'_>, &Elim<'_>)| {
        matches!(
            (l, r),
            (Elim::App(_), Elim::App(_)) | (Elim::Fst, Elim::Fst) | (Elim::Snd, Elim::Snd)
        )
    };
    if hl != hr || el.len() != er.len() || !el.iter().zip(&er).all(same_shape) {
        return Err(UnifyError::clash(&left, &right));
    }
    let hty = head_ty(sig, gen, &ctx, &hl)?;
    let mut ty = &hty;
    for (l, r) in el.iter().zip(&er) {
        ty = match (l, r, ty) {
            (Elim::App(a), Elim::App(b), Ty::Arrow(dom, cod)) => {
                work.push(Constraint {
                    ctx: ctx.clone(),
                    local,
                    ty: dom.as_ref().clone(),
                    left: (*a).clone(),
                    right: (*b).clone(),
                });
                cod
            }
            (Elim::Fst, _, Ty::Prod(a, _)) => a,
            (Elim::Snd, _, Ty::Prod(_, b)) => b,
            (Elim::App(_), ..) => {
                return Err(UnifyError::IllTyped(hoas_core::Error::NotAFunction {
                    ty: hty.clone(),
                }))
            }
            _ => {
                return Err(UnifyError::IllTyped(hoas_core::Error::NotAProduct {
                    ty: ty.clone(),
                }))
            }
        };
    }
    Ok(())
}

/// One elimination of a neutral term.
enum Elim<'t> {
    App(&'t Term),
    Fst,
    Snd,
}

/// Splits a neutral term — a head under applications and projections in
/// any order — into its head and its eliminations, innermost first;
/// `None` for a literal, pair, λ or redex.
fn neutral(t: &Term) -> Option<(Head, Vec<Elim<'_>>)> {
    let mut elims = Vec::new();
    let mut cur = t;
    let head = loop {
        match cur {
            Term::App(f, a) => {
                elims.push(Elim::App(a));
                cur = f;
            }
            Term::Fst(p) => {
                elims.push(Elim::Fst);
                cur = p;
            }
            Term::Snd(p) => {
                elims.push(Elim::Snd);
                cur = p;
            }
            Term::Var(i) => break Head::Var(*i),
            Term::Const(c) => break Head::Const(c.clone()),
            Term::Meta(m) => break Head::Meta(m.clone()),
            Term::Lam(..) | Term::Pair(..) | Term::Int(_) | Term::Unit => return None,
        }
    };
    elims.reverse();
    Some((head, elims))
}

// ------------------------------------------------------- pattern driver --

struct Solver<'s> {
    sig: &'s hoas_core::sig::Signature,
    gen: MetaGen<'s>,
    /// The caller's existing solutions, applied to the input
    /// constraints when they are first popped. With a base the input
    /// sides are canonical already ([`unify_against`]); without one
    /// ([`unify_constraints`]) they are canonicalized then.
    base: Option<&'s dyn Bindings>,
    /// Solutions found by this run.
    sol: MetaSubst,
    /// Constraint stack. Entries below `inputs` are the caller's
    /// constraints, not yet resolved; everything above was pushed by
    /// [`decompose_step`] and has canonical sides.
    work: Vec<Constraint>,
    inputs: usize,
    fuel: u64,
}

impl Solver<'_> {
    fn run(&mut self) -> Result<(), UnifyError> {
        while let Some(c) = self.work.pop() {
            if self.fuel == 0 {
                return Err(UnifyError::BudgetExhausted);
            }
            self.fuel -= 1;
            // An input constraint of `unify_constraints` is canonicalized
            // once. Every other side is canonical already (an input of
            // `unify_against` by contract, a decomposed one because the
            // subterms of a canonical term are canonical at their types)
            // and only needs re-resolving when it mentions a solved
            // metavariable.
            let raw = self.work.len() < self.inputs;
            if raw {
                self.inputs = self.work.len();
            }
            let left = self.resolve(raw, &c, &c.left)?;
            let right = self.resolve(raw, &c, &c.right)?;
            // In the pure pattern solver, any stuck pair is a NotPattern
            // failure.
            let mut stuck = |c: Constraint| {
                Err(UnifyError::not_pattern(if c.left.has_metas() {
                    &c.left
                } else {
                    &c.right
                }))
            };
            decompose_step(
                self.sig,
                &mut self.gen,
                &mut self.sol,
                &mut self.work,
                c.ctx,
                c.local,
                c.ty,
                left,
                right,
                &mut stuck,
            )?;
        }
        Ok(())
    }

    fn resolve(&self, raw: bool, c: &Constraint, side: &Term) -> Result<Term, UnifyError> {
        match self.base {
            None if raw => resolve_side(self.sig, &self.gen, &self.sol, c, side),
            Some(base) if raw && base.occurs_in(side) => {
                self.resolve_canonical(c, &base.apply(side))
            }
            _ => self.resolve_canonical(c, side),
        }
    }

    /// Applies this run's solutions to a canonical side.
    fn resolve_canonical(&self, c: &Constraint, side: &Term) -> Result<Term, UnifyError> {
        if !self.sol.is_empty() && self.sol.occurs_in(side) {
            return resolve_side(self.sig, &self.gen, &self.sol, c, side);
        }
        debug_assert!(
            normalize::is_canonical(self.sig, &self.gen, &c.ctx, side, &c.ty),
            "side `{side}` is not canonical"
        );
        Ok(side.clone())
    }
}

/// Recovers a plausible "found type" for error reporting.
fn other_ty(_t: &Term, expected: &Ty) -> Ty {
    expected.clone()
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
             const not : o -> o.
             const forall : (i -> o) -> o.
             const exists : (i -> o) -> o.
             const p : i -> o.
             const q : i -> i -> o.
             const r : o.
             const f : i -> i.
             const a : i.
             const b : i.",
        )
        .unwrap()
    }

    fn o() -> Ty {
        Ty::base("o")
    }

    /// Unify `l ≐ r : o` with the given metavariable types.
    fn go_typed(
        metas: &[(&str, &str)],
        l: &str,
        r: &str,
    ) -> Result<(PatternSolution, Term, Term), UnifyError> {
        let sig = fol_sig();
        let pl = parse_term(&sig, l).unwrap();
        let pr = parse_term_with(&sig, r, pl.metas.clone()).unwrap();
        let mut menv = MetaEnv::new();
        for (name, ty) in metas {
            let m = pr
                .metas
                .get(name)
                .unwrap_or_else(|| panic!("metavariable ?{name} not used"))
                .clone();
            menv.insert(m, parse_ty(ty).unwrap());
        }
        let solution = unify(&sig, &menv, &o(), &pl.term, &pr.term)?;
        Ok((solution, pl.term, pr.term))
    }

    /// Asserts both sides are syntactically equal after applying the
    /// unifier (the soundness property).
    fn assert_unifies(metas: &[(&str, &str)], l: &str, r: &str) -> PatternSolution {
        let (sol, tl, tr) = go_typed(metas, l, r).unwrap();
        let al = sol.subst.apply(&tl);
        let ar = sol.subst.apply(&tr);
        assert_eq!(al, ar, "unifier does not equalize: {al} vs {ar}");
        sol
    }

    #[test]
    fn rigid_rigid_decomposition() {
        assert_unifies(&[("P", "o")], "and r ?P", "and r (or r r)");
    }

    #[test]
    fn rigid_clash() {
        let err = go_typed(&[("P", "o")], "and ?P ?P", "or r r").unwrap_err();
        assert!(matches!(err, UnifyError::Clash { .. }));
        assert!(err.is_refutation());
    }

    #[test]
    fn simple_flex_rigid() {
        let sol = assert_unifies(&[("P", "o")], "?P", "and r r");
        let m = sol.subst.iter().next().map(|(m, _)| m.clone()).unwrap();
        assert_eq!(sol.subst.get(&m).unwrap().to_string(), "and r r");
    }

    #[test]
    fn flex_rigid_under_binder_with_spine() {
        // forall (\x. ?Q x) ≐ forall (\x. p x) solves ?Q := λx. p x.
        let sol = assert_unifies(
            &[("Q", "i -> o")],
            r"forall (\x. ?Q x)",
            r"forall (\x. p x)",
        );
        assert_eq!(sol.subst.len(), 1);
    }

    #[test]
    fn escape_check_rejects_unscoped_solution() {
        // forall (\x. ?P) ≐ forall (\x. p x): ?P cannot mention x.
        let err = go_typed(&[("P", "o")], r"forall (\x. ?P)", r"forall (\x. p x)").unwrap_err();
        assert!(matches!(err, UnifyError::Escape { .. }));
    }

    #[test]
    fn vacuous_binder_succeeds() {
        // forall (\x. ?P) ≐ forall (\x. r) is fine: ?P := r.
        let sol = assert_unifies(&[("P", "o")], r"forall (\x. ?P)", r"forall (\x. r)");
        let (_, t) = sol.subst.iter().next().unwrap();
        assert_eq!(t, &Term::cnst("r"));
    }

    #[test]
    fn occurs_check() {
        let err = go_typed(&[("P", "o")], "?P", "and ?P r").unwrap_err();
        assert!(matches!(err, UnifyError::Occurs { .. }));
    }

    #[test]
    fn spine_inversion_renames() {
        // exists (\x. forall (\y. ?Q y x)) ≐ exists (\x. forall (\y. q x y))
        // solves ?Q := λy. λx. q x y (arguments swapped).
        let sol = assert_unifies(
            &[("Q", "i -> i -> o")],
            r"exists (\x. forall (\y. ?Q y x))",
            r"exists (\x. forall (\y. q x y))",
        );
        let (_, t) = sol.subst.iter().next().unwrap();
        assert_eq!(t.to_string(), r"\x0. \x1. q x1 x0");
    }

    #[test]
    fn non_pattern_repeated_vars_reported() {
        let err = go_typed(
            &[("Q", "i -> i -> o")],
            r"forall (\x. ?Q x x)",
            r"forall (\x. p x)",
        )
        .unwrap_err();
        assert!(matches!(err, UnifyError::NotPattern { .. }));
        assert!(!err.is_refutation());
    }

    #[test]
    fn non_pattern_constant_arg_reported() {
        let err = go_typed(&[("Q", "i -> o")], "?Q a", "p a").unwrap_err();
        assert!(matches!(err, UnifyError::NotPattern { .. }));
    }

    #[test]
    fn flex_flex_same_meta_intersects() {
        // forall (\x. forall (\y. ?Q x y)) ≐ forall (\x. forall (\y. ?Q y x))
        // keeps no position (the spines disagree everywhere), so ?Q becomes
        // a constant function of a fresh metavariable.
        let (sol, tl, tr) = go_typed(
            &[("Q", "i -> i -> o")],
            r"forall (\x. forall (\y. ?Q x y))",
            r"forall (\x. forall (\y. ?Q y x))",
        )
        .unwrap();
        let al = sol.subst.apply(&tl);
        let ar = sol.subst.apply(&tr);
        assert_eq!(al, ar);
        assert_eq!(sol.subst.len(), 1);
    }

    #[test]
    fn flex_flex_different_metas_common_vars() {
        // forall (\x. forall (\y. ?Q x y)) ≐ forall (\x. forall (\y. ?R y))
        let (sol, tl, tr) = go_typed(
            &[("Q", "i -> i -> o"), ("R", "i -> o")],
            r"forall (\x. forall (\y. ?Q x y))",
            r"forall (\x. forall (\y. ?R y))",
        )
        .unwrap();
        let al = sol.subst.apply(&tl);
        let ar = sol.subst.apply(&tr);
        assert_eq!(al, ar);
        assert_eq!(sol.subst.len(), 2);
    }

    #[test]
    fn pruning_nested_meta() {
        hoas_core::StoreHandle::isolated().enter(|| {
            // Isolated store: this test matches metavariables by printing
            // hint, and hints are canonical per α-class per store.
            // forall (\x. ?P) ≐ forall (\x. and r (?R x)) — ?R's argument x must
            // be pruned for ?P's solution to be well-scoped: ?R := λx. ?R'.
            let (sol, tl, tr) = go_typed(
                &[("P", "o"), ("R", "i -> o")],
                r"forall (\x. ?P)",
                r"forall (\x. and r (?R x))",
            )
            .unwrap();
            let al = sol.subst.apply(&tl);
            let ar = sol.subst.apply(&tr);
            assert_eq!(al, ar);
            // ?R must have been pruned to a constant function.
            let r_sol = sol
                .subst
                .iter()
                .find(|(m, _)| m.hint().as_str() == "R")
                .map(|(_, t)| t.clone())
                .expect("R was pruned");
            match r_sol {
                Term::Lam(_, body) => assert!(!body.occurs_free(0), "R still uses its argument"),
                other => panic!("expected λ, got {other}"),
            }
        })
    }

    #[test]
    fn eta_long_spines_recognized() {
        // Second-order spine argument: ?F applied to an η-expanded bound
        // function variable. Metavariable of type ((i -> o) -> o).
        let sig = fol_sig();
        let mut menv = MetaEnv::new();
        let pl = parse_term(&sig, r"?F").unwrap();
        let m = pl.metas.get("F").unwrap().clone();
        menv.insert(m.clone(), parse_ty("(i -> o) -> o").unwrap());
        let rhs = parse_term(&sig, r"\g. forall (\x. g x)").unwrap().term;
        let ty = parse_ty("(i -> o) -> o").unwrap();
        let sol = unify(&sig, &menv, &ty, &pl.term, &rhs).unwrap();
        let applied = sol.subst.apply(&pl.term);
        let want = normalize::canon_closed(&sig, &rhs, &ty).unwrap();
        let got = normalize::canon_closed(&sig, &applied, &ty).unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn int_literals() {
        let sig = Signature::parse("type e. const lit : int -> e.").unwrap();
        let mut menv = MetaEnv::new();
        let pl = parse_term(&sig, "lit ?N").unwrap();
        menv.insert(pl.metas.get("N").unwrap().clone(), Ty::Int);
        let target = parse_term(&sig, "lit 42").unwrap().term;
        let sol = unify(&sig, &menv, &Ty::base("e"), &pl.term, &target).unwrap();
        assert_eq!(sol.subst.apply(&pl.term), target);
        let l2 = parse_term(&sig, "lit 1").unwrap().term;
        let r2 = parse_term(&sig, "lit 2").unwrap().term;
        let err = unify(&sig, &MetaEnv::new(), &Ty::base("e"), &l2, &r2).unwrap_err();
        assert!(matches!(err, UnifyError::IntClash { .. }));
    }

    #[test]
    fn ill_typed_problem_reported() {
        let sig = fol_sig();
        let l = parse_term(&sig, "and r").unwrap().term; // o -> o, not o
        let r = parse_term(&sig, "r").unwrap().term;
        assert!(unify(&sig, &MetaEnv::new(), &o(), &l, &r).is_err());
    }

    #[test]
    fn unsupported_meta_type_rejected_up_front() {
        let sig = fol_sig();
        let mut menv = MetaEnv::new();
        menv.insert(MVar::new(0, "P"), Ty::prod(o(), o()));
        let err = unify(&sig, &menv, &o(), &Term::cnst("r"), &Term::cnst("r")).unwrap_err();
        assert!(matches!(err, UnifyError::UnsupportedMetaType { .. }));
    }

    #[test]
    fn solution_is_most_general_leaves_free_metas() {
        // ?P ≐ and ?R ?R: ?P is solved in terms of ?R, which stays free.
        let (sol, tl, tr) = go_typed(&[("P", "o"), ("R", "o")], "?P", "and ?R ?R").unwrap();
        assert_eq!(sol.subst.apply(&tl), sol.subst.apply(&tr));
        assert_eq!(sol.subst.len(), 1);
        let (_, p_sol) = sol.subst.iter().next().unwrap();
        assert_eq!(p_sol.metas().len(), 1, "?R should remain in ?P's solution");
    }

    /// A caller-owned state: types in a [`MetaEnv`], solutions in a
    /// [`MetaSubst`].
    struct State(MetaEnv, MetaSubst);

    impl MetaTypes for State {
        fn meta_ty(&self, m: &MVar) -> Option<&Ty> {
            self.0.get(m)
        }
    }

    impl Bindings for State {
        fn is_solved(&self, m: &MVar) -> bool {
            self.1.is_solved(m)
        }

        fn apply(&self, t: &Term) -> Term {
            self.1.apply(t)
        }
    }

    #[test]
    fn unify_against_reads_the_callers_solutions() {
        // With ?P := r in the caller's state, `and ?P ?Q ≐ and r (not r)`
        // adds only ?Q := not r, and `and ?P ?Q ≐ and (not r) r` clashes.
        let sig = fol_sig();
        let (p, q) = (MVar::new(0, "P"), MVar::new(1, "Q"));
        let menv: MetaEnv = [(p.clone(), o()), (q.clone(), o())].into_iter().collect();
        let mut solved = MetaSubst::new();
        solved.bind(p.clone(), Term::cnst("r"));
        let state = State(menv, solved);
        let and = |a: Term, b: Term| Term::apps(Term::cnst("and"), [a, b]);
        let not_r = Term::app(Term::cnst("not"), Term::cnst("r"));
        let flex = and(Term::Meta(p), Term::Meta(q.clone()));
        let delta = unify_against(
            &sig,
            &state,
            2,
            Ctx::new(),
            o(),
            flex.clone(),
            and(Term::cnst("r"), not_r.clone()),
        )
        .unwrap();
        assert_eq!(delta.subst.len(), 1);
        assert_eq!(delta.subst.get(&q), Some(&not_r));
        assert!(delta.fresh.is_empty());
        let err = unify_against(
            &sig,
            &state,
            2,
            Ctx::new(),
            o(),
            flex,
            and(not_r, Term::cnst("r")),
        )
        .unwrap_err();
        assert!(err.is_refutation(), "{err:?}");
    }

    #[test]
    fn solutions_shift_past_constraint_local_binders() {
        // Under an ambient e : i, `forall (\x. and (q e x) (q (?M x) x))
        // ≐ forall (\x. and (q (?M x) x) (q e x))` solves ?M := \y. e
        // from its second conjunct, under the local x. Applied to the
        // first, the solution's ambient e must stay e there, not become
        // x: the two sides are then equal, not a clash of e with x.
        let sig = fol_sig();
        let m = MVar::new(0, "M");
        let menv: MetaEnv = [(m.clone(), Ty::arrow(Ty::base("i"), Ty::base("i")))]
            .into_iter()
            .collect();
        let ctx = Ctx::new().push(Sym::new("e"), Ty::base("i"));
        let q = |a: Term, b: Term| Term::apps(Term::cnst("q"), [a, b]);
        let and = |a: Term, b: Term| Term::apps(Term::cnst("and"), [a, b]);
        let forall = |body: Term| Term::app(Term::cnst("forall"), Term::lam("x", body));
        let (e, x) = (Term::Var(1), Term::Var(0));
        let mx = Term::app(Term::Meta(m.clone()), x.clone());
        let left = forall(and(q(e.clone(), x.clone()), q(mx.clone(), x.clone())));
        let right = forall(and(q(mx, x.clone()), q(e, x)));
        let sol = unify_constraints(
            &sig,
            &menv,
            vec![Constraint::in_ambient(ctx, o(), left, right)],
        )
        .unwrap();
        assert_eq!(sol.subst.get(&m), Some(&Term::lam("y", Term::Var(1))));
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "is not canonical")]
    fn unify_against_asserts_canonical_sides() {
        // `forall p` is η-short; its canonical form is `forall (\x. p x)`.
        // The two unify, but `unify_against` does not canonicalize its
        // sides, so a debug build rejects the short one.
        let sig = fol_sig();
        let state = State(MetaEnv::new(), MetaSubst::new());
        let forall = |t: Term| Term::app(Term::cnst("forall"), t);
        let long = Term::lam("x", Term::app(Term::cnst("p"), Term::Var(0)));
        let _ = unify_against(
            &sig,
            &state,
            0,
            Ctx::new(),
            o(),
            forall(Term::cnst("p")),
            forall(long),
        );
    }

    #[test]
    fn ambient_variables_allowed_in_solutions() {
        // Pose ?P ≐ p x under an *ambient* binder x : i. The solution may
        // mention x (this is what rewriting under binders needs).
        let sig = fol_sig();
        let mut menv = MetaEnv::new();
        let m = MVar::new(0, "P");
        menv.insert(m.clone(), o());
        let ctx = Ctx::new().push(Sym::new("x"), Ty::base("i"));
        let c = Constraint::in_ambient(
            ctx,
            o(),
            Term::Meta(m.clone()),
            Term::app(Term::cnst("p"), Term::Var(0)),
        );
        let sol = unify_constraints(&sig, &menv, vec![c]).unwrap();
        assert_eq!(
            sol.subst.get(&m).unwrap(),
            &Term::app(Term::cnst("p"), Term::Var(0))
        );
    }
}
