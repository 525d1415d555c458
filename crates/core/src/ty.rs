//! Simple types and type schemas of the metalanguage.
//!
//! The paper's metalanguage (as implemented in the Ergo Support System) is a
//! simply typed λ-calculus with products, enriched with ML-style
//! polymorphism for constants. Types here are:
//!
//! * declared base types (`tm`, `o`, …) — [`Ty::Base`],
//! * the built-in type of integer literals — [`Ty::Int`],
//! * function types `A -> B` — [`Ty::Arrow`],
//! * product types `A * B` and the unit type — [`Ty::Prod`], [`Ty::Unit`],
//! * type variables — [`Ty::Var`], used in constant schemas and during
//!   reconstruction.
//!
//! A [`TyScheme`] is a prenex-quantified type `∀'a₀ … 'aₙ₋₁. A` whose bound
//! variables are exactly `Var(0) … Var(n-1)`.

use crate::intern::Sym;
use std::collections::HashMap;
use std::fmt;

/// A simple type of the metalanguage.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Ty {
    /// A declared base type, e.g. `tm` or `o`.
    Base(Sym),
    /// The built-in type of integer literals.
    Int,
    /// A type variable (bound in a [`TyScheme`], or a reconstruction
    /// unknown).
    Var(u32),
    /// Function type `A -> B`.
    Arrow(Box<Ty>, Box<Ty>),
    /// Product type `A * B`.
    Prod(Box<Ty>, Box<Ty>),
    /// The unit type.
    Unit,
}

impl Ty {
    /// Convenience constructor for a base type.
    pub fn base(name: impl Into<Sym>) -> Ty {
        Ty::Base(name.into())
    }

    /// Convenience constructor for `dom -> cod`.
    pub fn arrow(dom: Ty, cod: Ty) -> Ty {
        Ty::Arrow(Box::new(dom), Box::new(cod))
    }

    /// Convenience constructor for `a * b`.
    pub fn prod(a: Ty, b: Ty) -> Ty {
        Ty::Prod(Box::new(a), Box::new(b))
    }

    /// Builds the curried function type `args… -> cod`.
    ///
    /// ```
    /// use hoas_core::Ty;
    /// let tm = Ty::base("tm");
    /// let t = Ty::arrows([tm.clone(), tm.clone()], tm.clone());
    /// assert_eq!(t.to_string(), "tm -> tm -> tm");
    /// ```
    pub fn arrows(
        args: impl IntoIterator<Item = Ty, IntoIter: DoubleEndedIterator>,
        cod: Ty,
    ) -> Ty {
        args.into_iter().rev().fold(cod, |acc, a| Ty::arrow(a, acc))
    }

    /// Splits a curried function type into its argument types and target.
    ///
    /// `(a -> b -> c).uncurry() == (vec![a, b], c)`.
    pub fn uncurry(&self) -> (Vec<&Ty>, &Ty) {
        let mut args = Vec::new();
        let mut cur = self;
        while let Ty::Arrow(a, b) = cur {
            args.push(a.as_ref());
            cur = b;
        }
        (args, cur)
    }

    /// Number of leading arrows (the "arity" of the type).
    pub fn arity(&self) -> usize {
        self.uncurry().0.len()
    }

    /// Whether `Var(v)` occurs in the type.
    pub fn occurs(&self, v: u32) -> bool {
        match self {
            Ty::Var(w) => *w == v,
            Ty::Arrow(a, b) | Ty::Prod(a, b) => a.occurs(v) || b.occurs(v),
            Ty::Base(_) | Ty::Int | Ty::Unit => false,
        }
    }

    /// Whether the type contains any type variable at all.
    pub fn is_ground(&self) -> bool {
        match self {
            Ty::Var(_) => false,
            Ty::Arrow(a, b) | Ty::Prod(a, b) => a.is_ground() && b.is_ground(),
            Ty::Base(_) | Ty::Int | Ty::Unit => true,
        }
    }

    /// Collects the free type variables into `acc`, in first-occurrence
    /// order (without duplicates).
    pub fn free_vars_into(&self, acc: &mut Vec<u32>) {
        match self {
            Ty::Var(v) => {
                if !acc.contains(v) {
                    acc.push(*v);
                }
            }
            Ty::Arrow(a, b) | Ty::Prod(a, b) => {
                a.free_vars_into(acc);
                b.free_vars_into(acc);
            }
            Ty::Base(_) | Ty::Int | Ty::Unit => {}
        }
    }

    /// The free type variables, in first-occurrence order.
    pub fn free_vars(&self) -> Vec<u32> {
        let mut acc = Vec::new();
        self.free_vars_into(&mut acc);
        acc
    }

    /// Applies a substitution for type variables.
    ///
    /// Variables without an entry in `map` are left unchanged. The
    /// substitution is applied once (not idempotently closed); callers that
    /// maintain incremental solutions should zonk via [`Ty::subst_deep`].
    pub fn subst(&self, map: &HashMap<u32, Ty>) -> Ty {
        match self {
            Ty::Var(v) => map.get(v).cloned().unwrap_or_else(|| self.clone()),
            Ty::Arrow(a, b) => Ty::arrow(a.subst(map), b.subst(map)),
            Ty::Prod(a, b) => Ty::prod(a.subst(map), b.subst(map)),
            Ty::Base(_) | Ty::Int | Ty::Unit => self.clone(),
        }
    }

    /// Applies a substitution repeatedly until no mapped variable remains
    /// ("zonking"). The map must be acyclic (guaranteed by the occurs check
    /// in [`crate::infer`]).
    pub fn subst_deep(&self, map: &HashMap<u32, Ty>) -> Ty {
        match self {
            Ty::Var(v) => match map.get(v) {
                Some(t) => t.subst_deep(map),
                None => self.clone(),
            },
            Ty::Arrow(a, b) => Ty::arrow(a.subst_deep(map), b.subst_deep(map)),
            Ty::Prod(a, b) => Ty::prod(a.subst_deep(map), b.subst_deep(map)),
            Ty::Base(_) | Ty::Int | Ty::Unit => self.clone(),
        }
    }

    /// Size of the type (number of constructors), used by generators and
    /// termination arguments in tests.
    pub fn size(&self) -> usize {
        match self {
            Ty::Arrow(a, b) | Ty::Prod(a, b) => 1 + a.size() + b.size(),
            _ => 1,
        }
    }
}

impl fmt::Display for Ty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        crate::print::fmt_ty(self, f, 0)
    }
}

/// A prenex-polymorphic type schema `∀'a₀ … 'aₙ₋₁. body`.
///
/// The bound variables of the schema are exactly `Ty::Var(0)` through
/// `Ty::Var(arity - 1)`; the body must not contain other variables.
///
/// ```
/// use hoas_core::{Ty, TyScheme};
/// // pair : 'a -> 'b -> 'a * 'b
/// let s = TyScheme::new(
///     2,
///     Ty::arrows([Ty::Var(0), Ty::Var(1)], Ty::prod(Ty::Var(0), Ty::Var(1))),
/// );
/// assert_eq!(s.to_string(), "'a -> 'b -> 'a * 'b");
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TyScheme {
    arity: u32,
    body: Ty,
}

impl TyScheme {
    /// Creates a schema binding `arity` type variables over `body`.
    ///
    /// # Panics
    ///
    /// Panics if `body` mentions a variable `>= arity` — schemas must be
    /// closed.
    pub fn new(arity: u32, body: Ty) -> TyScheme {
        for v in body.free_vars() {
            assert!(v < arity, "TyScheme::new: unbound schema variable 'a{v}");
        }
        TyScheme { arity, body }
    }

    /// A monomorphic schema.
    pub fn mono(ty: Ty) -> TyScheme {
        TyScheme::new(0, ty)
    }

    /// Generalizes a type over its free variables (renumbered densely).
    pub fn generalize(ty: &Ty) -> TyScheme {
        let fvs = ty.free_vars();
        let map: HashMap<u32, Ty> = fvs
            .iter()
            .enumerate()
            .map(|(i, v)| (*v, Ty::Var(i as u32)))
            .collect();
        TyScheme {
            arity: fvs.len() as u32,
            body: ty.subst(&map),
        }
    }

    /// Number of bound type variables.
    pub fn arity(&self) -> u32 {
        self.arity
    }

    /// The schema body (mentions only `Var(0) .. Var(arity-1)`).
    pub fn body(&self) -> &Ty {
        &self.body
    }

    /// Whether the schema binds no variables.
    pub fn is_mono(&self) -> bool {
        self.arity == 0
    }

    /// For monomorphic schemas, the body; `None` otherwise.
    pub fn as_mono(&self) -> Option<&Ty> {
        self.is_mono().then_some(&self.body)
    }

    /// Instantiates the schema with the given argument types.
    ///
    /// # Panics
    ///
    /// Panics if `args.len() != arity` — callers are expected to have
    /// allocated exactly one instantiation per bound variable.
    pub fn instantiate(&self, args: &[Ty]) -> Ty {
        assert_eq!(
            args.len(),
            self.arity as usize,
            "TyScheme::instantiate: wrong number of type arguments"
        );
        if args.is_empty() {
            return self.body.clone();
        }
        let map: HashMap<u32, Ty> = args
            .iter()
            .enumerate()
            .map(|(i, t)| (i as u32, t.clone()))
            .collect();
        self.body.subst(&map)
    }

    /// Instantiates with fresh variables produced by `fresh`.
    pub fn instantiate_with(&self, mut fresh: impl FnMut() -> Ty) -> Ty {
        let args: Vec<Ty> = (0..self.arity).map(|_| fresh()).collect();
        self.instantiate(&args)
    }
}

impl From<Ty> for TyScheme {
    fn from(ty: Ty) -> Self {
        TyScheme::mono(ty)
    }
}

impl fmt::Display for TyScheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.body, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tm() -> Ty {
        Ty::base("tm")
    }

    #[test]
    fn arrows_and_uncurry_roundtrip() {
        let t = Ty::arrows([tm(), Ty::Int, Ty::Unit], tm());
        let (args, cod) = t.uncurry();
        assert_eq!(args, vec![&tm(), &Ty::Int, &Ty::Unit]);
        assert_eq!(cod, &tm());
        assert_eq!(t.arity(), 3);
    }

    #[test]
    fn arrows_empty_is_identity() {
        assert_eq!(Ty::arrows([], tm()), tm());
    }

    #[test]
    fn display_precedence() {
        let t = Ty::arrow(Ty::arrow(tm(), tm()), tm());
        assert_eq!(t.to_string(), "(tm -> tm) -> tm");
        let t = Ty::arrow(tm(), Ty::arrow(tm(), tm()));
        assert_eq!(t.to_string(), "tm -> tm -> tm");
        let t = Ty::prod(tm(), Ty::prod(tm(), tm()));
        assert_eq!(t.to_string(), "tm * (tm * tm)");
        let t = Ty::arrow(Ty::prod(tm(), tm()), Ty::Int);
        assert_eq!(t.to_string(), "tm * tm -> int");
    }

    #[test]
    fn occurs_and_free_vars() {
        let t = Ty::arrow(Ty::Var(1), Ty::prod(Ty::Var(0), Ty::Var(1)));
        assert!(t.occurs(0));
        assert!(t.occurs(1));
        assert!(!t.occurs(2));
        assert_eq!(t.free_vars(), vec![1, 0]);
        assert!(!t.is_ground());
        assert!(tm().is_ground());
    }

    #[test]
    fn subst_and_zonk() {
        let mut map = HashMap::new();
        map.insert(0, Ty::Var(1));
        map.insert(1, tm());
        let t = Ty::arrow(Ty::Var(0), Ty::Var(1));
        // One-shot substitution only goes one step.
        assert_eq!(t.subst(&map), Ty::arrow(Ty::Var(1), tm()));
        // Zonking chases chains.
        assert_eq!(t.subst_deep(&map), Ty::arrow(tm(), tm()));
    }

    #[test]
    fn scheme_generalize_renumbers() {
        let t = Ty::arrow(Ty::Var(7), Ty::Var(3));
        let s = TyScheme::generalize(&t);
        assert_eq!(s.arity(), 2);
        assert_eq!(s.body(), &Ty::arrow(Ty::Var(0), Ty::Var(1)));
    }

    #[test]
    fn scheme_instantiate() {
        let s = TyScheme::new(2, Ty::prod(Ty::Var(0), Ty::Var(1)));
        assert_eq!(s.instantiate(&[tm(), Ty::Int]), Ty::prod(tm(), Ty::Int));
    }

    #[test]
    #[should_panic(expected = "unbound schema variable")]
    fn scheme_rejects_open_body() {
        let _ = TyScheme::new(1, Ty::Var(1));
    }

    #[test]
    #[should_panic(expected = "wrong number of type arguments")]
    fn scheme_instantiate_arity_mismatch() {
        let s = TyScheme::new(1, Ty::Var(0));
        let _ = s.instantiate(&[]);
    }

    #[test]
    fn size_counts_constructors() {
        assert_eq!(tm().size(), 1);
        assert_eq!(Ty::arrow(tm(), Ty::prod(tm(), tm())).size(), 5);
    }
}
