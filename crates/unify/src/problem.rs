//! Unification problems: constraints, scope discipline, and shared
//! machinery (canonicalization, head typing, pattern-spine analysis).

use crate::error::UnifyError;
use crate::msubst::MetaSubst;
use hoas_core::ctx::Ctx;
use hoas_core::sig::Signature;
use hoas_core::term::{Head, MetaEnv, MetaTypes};
use hoas_core::{normalize, MVar, Sym, Term, Ty};

/// One equation `left ≐ right : ty` in context `ctx`.
///
/// The innermost `local` entries of `ctx` are *constraint-local* (bound by
/// λs decomposed during solving, or by binders enclosing a rewrite
/// position that the pattern itself binds); the remaining outer entries
/// are *ambient* and may appear in solutions.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Constraint {
    /// Typing context for both sides (ambient entries first).
    pub ctx: Ctx,
    /// How many innermost entries of `ctx` are constraint-local.
    pub local: u32,
    /// The common type of both sides.
    pub ty: Ty,
    /// Left-hand side.
    pub left: Term,
    /// Right-hand side.
    pub right: Term,
}

impl Constraint {
    /// A top-level constraint with no ambient context.
    pub fn closed(ty: Ty, left: Term, right: Term) -> Constraint {
        Constraint {
            ctx: Ctx::new(),
            local: 0,
            ty,
            left,
            right,
        }
    }

    /// A constraint posed under an ambient context (e.g. at a rewrite
    /// position under binders); all of `ctx` is ambient.
    pub fn in_ambient(ctx: Ctx, ty: Ty, left: Term, right: Term) -> Constraint {
        Constraint {
            ctx,
            local: 0,
            ty,
            left,
            right,
        }
    }
}

impl std::fmt::Display for Constraint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} ⊢ {} ≐ {} : {}",
            self.ctx, self.left, self.right, self.ty
        )
    }
}

/// Supplies fresh metavariables and tracks their types alongside the
/// problem's original ones.
///
/// The original types are either owned ([`MetaGen::new`]: `menv` holds
/// everything) or borrowed from the caller ([`MetaGen::over`]: `menv`
/// holds only the fresh metavariables, and lookups fall through to the
/// caller's [`MetaTypes`]), so a solver posing many small problems over
/// one large environment need not copy it per problem.
#[derive(Clone)]
pub struct MetaGen<'e> {
    /// Types for the metavariables this generator owns: original and
    /// generated for [`MetaGen::new`], generated only for
    /// [`MetaGen::over`].
    pub menv: MetaEnv,
    base: Option<&'e dyn MetaTypes>,
    next: u32,
}

impl std::fmt::Debug for MetaGen<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetaGen")
            .field("menv", &self.menv)
            .field("borrows_base", &self.base.is_some())
            .field("next", &self.next)
            .finish()
    }
}

impl MetaGen<'static> {
    /// Builds a generator whose fresh ids start above everything in
    /// `menv`.
    pub fn new(menv: MetaEnv) -> MetaGen<'static> {
        let next = menv.keys().map(|m| m.id() + 1).max().unwrap_or(0);
        MetaGen {
            menv,
            base: None,
            next,
        }
    }
}

impl<'e> MetaGen<'e> {
    /// Builds a generator over borrowed types, handing out fresh ids
    /// from `next` (which must lie above every id `base` knows).
    pub fn over(base: &'e dyn MetaTypes, next: u32) -> MetaGen<'e> {
        MetaGen {
            menv: MetaEnv::new(),
            base: Some(base),
            next,
        }
    }

    /// Allocates a fresh metavariable of the given type.
    pub fn fresh(&mut self, hint: &str, ty: Ty) -> MVar {
        let m = MVar::new(self.next, hint);
        self.next += 1;
        self.menv.insert(m.clone(), ty);
        m
    }

    /// The type of a metavariable.
    ///
    /// # Errors
    ///
    /// [`UnifyError::IllTyped`] if unknown.
    pub fn ty_of(&self, m: &MVar) -> Result<&Ty, UnifyError> {
        self.meta_ty(m)
            .ok_or_else(|| UnifyError::IllTyped(hoas_core::Error::UnknownMeta { mvar: m.clone() }))
    }
}

impl MetaTypes for MetaGen<'_> {
    fn meta_ty(&self, m: &MVar) -> Option<&Ty> {
        self.menv
            .get(m)
            .or_else(|| self.base.and_then(|b| b.meta_ty(m)))
    }
}

/// Checks that every metavariable type is within the supported fragment
/// (arrows over base types and `int`; no products, no unit, no type
/// variables).
///
/// # Errors
///
/// [`UnifyError::UnsupportedMetaType`] on the first violation.
pub fn validate_meta_types(menv: &MetaEnv) -> Result<(), UnifyError> {
    for (m, ty) in menv {
        if !is_supported_meta_ty(ty) {
            return Err(UnifyError::UnsupportedMetaType {
                mvar: m.clone(),
                ty: ty.clone(),
            });
        }
    }
    Ok(())
}

/// Whether a metavariable type is within the supported fragment: arrows
/// over base types and `int`.
pub fn is_supported_meta_ty(ty: &Ty) -> bool {
    match ty {
        Ty::Base(_) | Ty::Int => true,
        Ty::Arrow(a, b) => is_supported_meta_ty(a) && is_supported_meta_ty(b),
        Ty::Prod(..) | Ty::Unit | Ty::Var(_) => false,
    }
}

/// Applies the current solution and brings a side to canonical form at the
/// constraint's type. The side sits under the constraint's `local`
/// binders, past which the solutions (in ambient scope) are shifted.
///
/// # Errors
///
/// [`UnifyError::IllTyped`] if canonicalization fails.
pub fn resolve_side(
    sig: &Signature,
    gen: &MetaGen<'_>,
    sol: &MetaSubst,
    c: &Constraint,
    t: &Term,
) -> Result<Term, UnifyError> {
    let t = sol.apply_under(t, c.local);
    normalize::canon(sig, gen, &c.ctx, &t, &c.ty).map_err(UnifyError::IllTyped)
}

/// Synthesizes the (monomorphic) type of a neutral head.
///
/// # Errors
///
/// Unknown constants/variables/metas, and [`UnifyError::PolyConst`] for
/// polymorphic constants.
pub fn head_ty(
    sig: &Signature,
    gen: &MetaGen<'_>,
    ctx: &Ctx,
    head: &Head,
) -> Result<Ty, UnifyError> {
    match head {
        Head::Var(i) => ctx
            .lookup(*i)
            .map(|(_, ty)| ty.clone())
            .ok_or(UnifyError::IllTyped(hoas_core::Error::UnboundVar {
                index: *i,
            })),
        Head::Const(c) => {
            let scheme = sig.const_ty(c.as_str()).ok_or_else(|| {
                UnifyError::IllTyped(hoas_core::Error::UnknownConst { name: c.clone() })
            })?;
            scheme
                .as_mono()
                .cloned()
                .ok_or_else(|| UnifyError::PolyConst { name: c.clone() })
        }
        Head::Meta(m) => gen.ty_of(m).cloned(),
    }
}

/// Analyzes a flexible term `?M a₁ … aₙ`: returns the metavariable and,
/// when every argument η-contracts to a **distinct constraint-local**
/// variable, the spine as variable indices (as seen at the constraint
/// root).
///
/// Returns `Ok(None)` spine when outside the pattern fragment.
pub struct FlexView {
    /// The flexible head.
    pub mvar: MVar,
    /// `Some(indices)` iff the spine is a Miller pattern.
    pub pattern_spine: Option<Vec<u32>>,
    /// Number of spine arguments (pattern or not).
    pub arity: usize,
}

/// Inspects a term for a flexible (metavariable) head.
pub fn flex_view(t: &Term, local: u32) -> Option<FlexView> {
    let (head, args) = t.head_spine()?;
    let Head::Meta(m) = head else { return None };
    let mut spine = Vec::with_capacity(args.len());
    let mut is_pattern = true;
    for a in &args {
        let contracted = normalize::eta_contract(a);
        match contracted {
            Term::Var(i) if i < local && !spine.contains(&i) => spine.push(i),
            _ => {
                is_pattern = false;
                break;
            }
        }
    }
    Some(FlexView {
        mvar: m,
        pattern_spine: if is_pattern { Some(spine) } else { None },
        arity: args.len(),
    })
}

/// Builds the η-long variable `xᵢ` of type `ty` at binder depth — i.e. a
/// bound variable η-expanded so it can stand as a canonical argument.
/// Used when constructing imitation/projection bindings and solution
/// bodies.
pub fn eta_expand_var(index: u32, ty: &Ty) -> Term {
    eta_expand_term(Term::Var(index), ty)
}

/// η-expands an arbitrary neutral term at the given (product-free) type.
pub fn eta_expand_term(t: Term, ty: &Ty) -> Term {
    match ty {
        Ty::Arrow(a, b) => {
            let shifted = hoas_core::subst::shift(&t, 1);
            let arg = eta_expand_var(0, a);
            Term::lam(Sym::new("x"), eta_expand_term(Term::app(shifted, arg), b))
        }
        _ => t,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tm() -> Ty {
        Ty::base("tm")
    }

    #[test]
    fn metagen_fresh_ids_start_above_existing() {
        let mut menv = MetaEnv::new();
        menv.insert(MVar::new(7, "P"), tm());
        let mut g = MetaGen::new(menv);
        let m = g.fresh("H", tm());
        assert_eq!(m.id(), 8);
        assert_eq!(g.ty_of(&m).unwrap(), &tm());
    }

    #[test]
    fn validate_rejects_products() {
        let mut menv = MetaEnv::new();
        menv.insert(MVar::new(0, "P"), Ty::prod(tm(), tm()));
        assert!(matches!(
            validate_meta_types(&menv),
            Err(UnifyError::UnsupportedMetaType { .. })
        ));
        let mut ok = MetaEnv::new();
        ok.insert(MVar::new(0, "P"), Ty::arrow(tm(), Ty::Int));
        validate_meta_types(&ok).unwrap();
    }

    #[test]
    fn flex_view_detects_patterns() {
        let m = MVar::new(0, "Q");
        // ?Q 1 0 with local = 2: a pattern.
        let t = Term::apps(Term::Meta(m.clone()), [Term::Var(1), Term::Var(0)]);
        let v = flex_view(&t, 2).unwrap();
        assert_eq!(v.mvar, m);
        assert_eq!(v.pattern_spine, Some(vec![1, 0]));
        // Repeated variable: not a pattern.
        let t = Term::apps(Term::Meta(m.clone()), [Term::Var(0), Term::Var(0)]);
        assert!(flex_view(&t, 2).unwrap().pattern_spine.is_none());
        // Non-variable argument: not a pattern.
        let t = Term::app(Term::Meta(m.clone()), Term::cnst("c"));
        assert!(flex_view(&t, 2).unwrap().pattern_spine.is_none());
        // Ambient variable (index ≥ local): not a pattern.
        let t = Term::app(Term::Meta(m), Term::Var(5));
        assert!(flex_view(&t, 2).unwrap().pattern_spine.is_none());
        // Rigid head: not flexible at all.
        assert!(flex_view(&Term::cnst("c"), 0).is_none());
    }

    #[test]
    fn flex_view_eta_contracts_arguments() {
        // ?F (λy. x y) where x is local var 0 outside, i.e. arg is η-expansion of Var 0.
        let m = MVar::new(0, "F");
        let arg = Term::lam("y", Term::app(Term::Var(1), Term::Var(0)));
        let t = Term::app(Term::Meta(m), arg);
        let v = flex_view(&t, 1).unwrap();
        assert_eq!(v.pattern_spine, Some(vec![0]));
    }

    #[test]
    fn eta_expand_var_at_function_type() {
        // x : tm -> tm η-expands to λy. x y.
        let t = eta_expand_var(3, &Ty::arrow(tm(), tm()));
        assert_eq!(t, Term::lam("y", Term::app(Term::Var(4), Term::Var(0))));
    }

    #[test]
    fn eta_expand_var_second_order() {
        // x : (tm -> tm) -> tm η-expands to λf. x (λy. f y).
        let t = eta_expand_var(0, &Ty::arrow(Ty::arrow(tm(), tm()), tm()));
        let expected = Term::lam(
            "f",
            Term::app(
                Term::Var(1),
                Term::lam("y", Term::app(Term::Var(1), Term::Var(0))),
            ),
        );
        assert_eq!(t, expected);
    }
}
