//! Metavariable substitutions.
//!
//! A [`MetaSubst`] maps metavariables to solution terms. Solutions live in
//! the **ambient scope** of the problem: their free de Bruijn variables
//! refer to the ambient context in which the unification problem was
//! posed. Applying a substitution therefore shifts each solution by the
//! binder depth of the occurrence it replaces, then β-normalizes so that
//! a solution `λx̄. b` grafted onto a spine `?M a₁ … aₙ` contracts.
//!
//! One spine shape skips that contraction: `?M xₙ₋₁ … x₀` applied to the
//! `n` innermost bound variables in order — how a rewrite rule's
//! right-hand side says "the same body, under the same binders". Its
//! instance is a renumbering of the solution's body, and the identity
//! when nothing needs renumbering (see [`MetaSubst::apply`]).

use hoas_core::{normalize, subst, MVar, Sym, Term, TermRef};
use std::cell::RefCell;
use std::collections::HashMap;

/// Wraps a solution body in `n` λ-binders hinted `x0, x1, …` (outermost
/// first), the shape every spine-inversion solution `λx̄. body` takes.
/// The hints are built once per thread; `body` is taken as an interned
/// node so that the innermost λ costs no store lookup.
pub(crate) fn solution_lams(n: usize, body: TermRef) -> Term {
    thread_local! {
        static HINTS: RefCell<Vec<Sym>> = const { RefCell::new(Vec::new()) };
    }
    assert!(n > 0, "a solution without binders is its body");
    HINTS.with(|hints| {
        let mut hints = hints.borrow_mut();
        while hints.len() < n {
            let i = hints.len();
            hints.push(Sym::new(format!("x{i}")));
        }
        let mut acc = Term::Lam(hints[n - 1].clone(), body);
        for h in hints[..n - 1].iter().rev() {
            acc = Term::Lam(h.clone(), TermRef::new(acc));
        }
        acc
    })
}

/// Read access to the solved metavariables a unification problem is
/// posed against: whether a metavariable is solved, whether a term
/// mentions a solved one, and the term with every solution substituted.
/// The unifiers read their caller's bindings only through this, so a
/// [`MetaSubst`] and a solver's own binding array serve the same
/// unifier.
pub trait Bindings {
    /// Whether `m` has a solution (the lookup the unifiers need: they
    /// read solutions only through [`Bindings::apply`]).
    fn is_solved(&self, m: &MVar) -> bool;

    /// Whether some solved metavariable occurs in `t`. Walks only the
    /// subterms that contain metavariables (cached annotation).
    fn occurs_in(&self, t: &Term) -> bool {
        if !t.has_metas() {
            return false;
        }
        match t {
            Term::Meta(m) => self.is_solved(m),
            Term::Lam(_, b) | Term::Fst(b) | Term::Snd(b) => self.occurs_in(b),
            Term::App(a, b) | Term::Pair(a, b) => self.occurs_in(a) || self.occurs_in(b),
            Term::Var(_) | Term::Const(_) | Term::Int(_) | Term::Unit => false,
        }
    }

    /// `t` with every solved metavariable replaced by its solution, in
    /// the ambient scope of the problem, β-normalized.
    fn apply(&self, t: &Term) -> Term;
}

/// A finite map from metavariables to solution terms (in ambient scope).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct MetaSubst {
    map: HashMap<MVar, Term>,
}

impl MetaSubst {
    /// The empty substitution.
    pub fn new() -> MetaSubst {
        MetaSubst::default()
    }

    /// Number of solved metavariables.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no metavariable is solved.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The solution for `m`, if any.
    pub fn get(&self, m: &MVar) -> Option<&Term> {
        self.map.get(m)
    }

    /// Whether `m` is solved.
    pub fn contains(&self, m: &MVar) -> bool {
        self.map.contains_key(m)
    }

    /// A substitution of **ground** solutions, bound as given. Ground
    /// solutions mention no metavariable, so `bind`'s self-application
    /// would be the identity on every entry; this skips it.
    ///
    /// Callers pass each metavariable at most once.
    pub(crate) fn ground(binds: Vec<(MVar, Term)>) -> MetaSubst {
        debug_assert!(binds.iter().all(|(_, t)| !t.has_metas()));
        let map: HashMap<MVar, Term> = binds.into_iter().collect();
        MetaSubst { map }
    }

    /// Iterates `(mvar, solution)` pairs in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (&MVar, &Term)> {
        self.map.iter()
    }

    /// Records a solution for `m`, first **self-applying**: the new
    /// solution is normalized against the existing substitution, and `m`
    /// is eliminated from existing solutions, keeping the substitution
    /// idempotent.
    ///
    /// # Panics
    ///
    /// Panics if `m` is already solved (unifiers never re-solve) or if the
    /// solution mentions `m` itself after normalization (occurs-checked by
    /// callers).
    pub fn bind(&mut self, m: MVar, solution: Term) {
        assert!(
            !self.map.contains_key(&m),
            "MetaSubst::bind: {m} already solved"
        );
        let solution = self.apply(&solution);
        assert!(
            !solution.metas().contains(&m),
            "MetaSubst::bind: solution for {m} mentions itself"
        );
        // Only bindings that mention `m` change; `apply` hands the rest
        // back as the same nodes, with no store lookups.
        let mut single = MetaSubst::new();
        single.map.insert(m.clone(), solution.clone());
        for v in self.map.values_mut() {
            *v = single.apply(v);
        }
        self.map.insert(m, solution);
    }

    /// Applies the substitution to a term and β-normalizes the result.
    ///
    /// Metavariables without a solution are left in place. Solutions are
    /// shifted by the binder depth at each occurrence (solutions live in
    /// ambient scope). Subterms the substitution does not reach are kept
    /// as the same nodes: a β-normal term mentioning no solved
    /// metavariable comes back as itself, with no store work at all.
    ///
    /// A solved spine `?M xₙ₋₁ … x₀` at depth `d ≥ n` whose arguments are
    /// the `n` innermost bound variables in order, with `?M := λⁿ.B`,
    /// becomes `shift_above(B, d − n, n)` directly — what grafting and
    /// β-contracting would give, without building the redex. When
    /// `d = n`, or `B` mentions no ambient variable, the result is `B`'s
    /// own node, with no store work.
    pub fn apply(&self, t: &Term) -> Term {
        self.apply_under(t, 0)
    }

    /// [`MetaSubst::apply`] to a term that sits under `depth` binders
    /// below the ambient scope, such as a side of a constraint under
    /// `depth` constraint-local binders: each solution is shifted past
    /// them too.
    pub fn apply_under(&self, t: &Term, depth: u32) -> Term {
        if self.map.is_empty() {
            return t.clone();
        }
        // Graft, then β-normalize. The trailing `nf` is the kernel's
        // session-threaded normalizer: it contracts the redexes created
        // by grafting a solution `λx̄. b` onto a spine `?M a₁ … aₙ` and
        // shares every subterm its cached `max_free`/`beta_normal`
        // guards leave alone. (A fused graft+normalize over uninterned
        // transient nodes was measured here and lost: it forfeits those
        // guards, which beat avoided interning of the transient spine —
        // see DESIGN §7.)
        match self.graft(t, depth) {
            Some(grafted) => normalize::nf(&grafted),
            None if t.is_beta_normal() => t.clone(),
            None => normalize::nf(t),
        }
    }

    /// Replaces solved metavariables in `t` (at binder depth `depth`),
    /// or `None` when none occurs — the caller then keeps `t` itself.
    fn graft(&self, t: &Term, depth: u32) -> Option<Term> {
        if !t.has_metas() {
            return None;
        }
        match t {
            Term::Meta(m) => self.map.get(m).map(|sol| subst::shift(sol, depth)),
            Term::Var(_) | Term::Const(_) | Term::Int(_) | Term::Unit => None,
            Term::Lam(h, b) => Some(Term::lam(h.clone(), self.graft_ref(b, depth + 1)?)),
            Term::App(f, a) => self.graft_pair(f, a, depth).map(|(f, a)| Term::app(f, a)),
            Term::Pair(a, b) => self.graft_pair(a, b, depth).map(|(a, b)| Term::pair(a, b)),
            Term::Fst(p) => Some(Term::fst(self.graft_ref(p, depth)?)),
            Term::Snd(p) => Some(Term::snd(self.graft_ref(p, depth)?)),
        }
    }

    /// Grafts into a shared subterm; `None` when it is unchanged.
    fn graft_ref(&self, t: &TermRef, depth: u32) -> Option<TermRef> {
        if !t.has_meta() {
            return None;
        }
        if let Some((n, body)) = self.renaming_spine(t, depth) {
            return Some(if depth == n || body.max_free() <= n {
                body.clone()
            } else {
                TermRef::new(subst::shift_above(body, depth - n, n))
            });
        }
        self.graft(t.term(), depth).map(TermRef::new)
    }

    /// Recognizes a solved spine `?M xₙ₋₁ … x₀` (`1 ≤ n ≤ depth`) whose
    /// arguments are the innermost bound variables in order, with a
    /// solution of at least `n` λs; returns `n` and the solution's body
    /// under them. Walks the `App` nodes without collecting the spine, so
    /// a rigid application is dismissed at its last argument.
    fn renaming_spine(&self, t: &Term, depth: u32) -> Option<(u32, &TermRef)> {
        let mut cur = t;
        let mut n = 0;
        while let Term::App(f, a) = cur {
            if !matches!(a.term(), Term::Var(i) if *i == n) {
                return None;
            }
            n += 1;
            cur = f;
        }
        let Term::Meta(m) = cur else { return None };
        if n == 0 || n > depth {
            return None;
        }
        let Term::Lam(_, outer) = self.map.get(m)? else {
            return None;
        };
        let mut body = outer;
        for _ in 1..n {
            let Term::Lam(_, b) = body.term() else {
                return None;
            };
            body = b;
        }
        Some((n, body))
    }

    /// Grafts into two sibling subterms; `None` when both are unchanged,
    /// otherwise the unchanged one is kept as the same node.
    fn graft_pair(&self, a: &TermRef, b: &TermRef, depth: u32) -> Option<(TermRef, TermRef)> {
        match (self.graft_ref(a, depth), self.graft_ref(b, depth)) {
            (None, None) => None,
            (a2, b2) => Some((
                a2.unwrap_or_else(|| a.clone()),
                b2.unwrap_or_else(|| b.clone()),
            )),
        }
    }

    /// Restricts the substitution to the given metavariables (e.g. the
    /// ones a rule's right-hand side mentions).
    #[must_use]
    pub fn restricted_to(&self, mvars: &[MVar]) -> MetaSubst {
        MetaSubst {
            map: self
                .map
                .iter()
                .filter(|(m, _)| mvars.contains(m))
                .map(|(m, t)| (m.clone(), t.clone()))
                .collect(),
        }
    }
}

impl Bindings for MetaSubst {
    fn is_solved(&self, m: &MVar) -> bool {
        self.map.contains_key(m)
    }

    fn apply(&self, t: &Term) -> Term {
        MetaSubst::apply(self, t)
    }
}

impl FromIterator<(MVar, Term)> for MetaSubst {
    fn from_iter<I: IntoIterator<Item = (MVar, Term)>>(iter: I) -> Self {
        let mut s = MetaSubst::new();
        for (m, t) in iter {
            s.bind(m, t);
        }
        s
    }
}

impl std::fmt::Display for MetaSubst {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut entries: Vec<_> = self.map.iter().collect();
        entries.sort_by_key(|(m, _)| m.id());
        f.write_str("{")?;
        for (i, (m, t)) in entries.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{m} := {t}")?;
        }
        f.write_str("}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(id: u32, hint: &str) -> MVar {
        MVar::new(id, hint)
    }

    #[test]
    fn apply_grafts_and_reduces() {
        // ?F := λx. c x;  apply to (?F a) gives (c a).
        let mut s = MetaSubst::new();
        s.bind(
            m(0, "F"),
            Term::lam("x", Term::app(Term::cnst("c"), Term::Var(0))),
        );
        let t = Term::app(Term::Meta(m(0, "F")), Term::cnst("a"));
        assert_eq!(s.apply(&t), Term::app(Term::cnst("c"), Term::cnst("a")));
    }

    #[test]
    fn apply_shifts_under_binders() {
        // Solution mentions ambient var 0; under a λ it must appear as 1.
        let mut s = MetaSubst::new();
        s.bind(m(0, "P"), Term::Var(0));
        let t = Term::lam("x", Term::Meta(m(0, "P")));
        assert_eq!(s.apply(&t), Term::lam("x", Term::Var(1)));
    }

    #[test]
    fn bind_keeps_idempotence() {
        // First solve ?A := ?B, then ?B := c. ?A's stored solution becomes c.
        let mut s = MetaSubst::new();
        s.bind(m(0, "A"), Term::Meta(m(1, "B")));
        s.bind(m(1, "B"), Term::cnst("c"));
        assert_eq!(s.get(&m(0, "A")).unwrap(), &Term::cnst("c"));
        // And a new solution is normalized against existing entries.
        let mut s2 = MetaSubst::new();
        s2.bind(m(1, "B"), Term::cnst("c"));
        s2.bind(m(0, "A"), Term::Meta(m(1, "B")));
        assert_eq!(s2.get(&m(0, "A")).unwrap(), &Term::cnst("c"));
    }

    #[test]
    #[should_panic(expected = "already solved")]
    fn bind_rejects_resolving() {
        let mut s = MetaSubst::new();
        s.bind(m(0, "A"), Term::Unit);
        s.bind(m(0, "A"), Term::Unit);
    }

    #[test]
    fn unsolved_metas_left_in_place() {
        let mut s = MetaSubst::new();
        s.bind(m(0, "A"), Term::Int(1));
        let t = Term::pair(Term::Meta(m(0, "A")), Term::Meta(m(1, "B")));
        assert_eq!(s.apply(&t), Term::pair(Term::Int(1), Term::Meta(m(1, "B"))));
    }

    #[test]
    fn restriction_filters() {
        let mut s = MetaSubst::new();
        s.bind(m(0, "A"), Term::Int(1));
        s.bind(m(1, "B"), Term::Int(2));
        let r = s.restricted_to(&[m(1, "B")]);
        assert_eq!(r.len(), 1);
        assert!(r.get(&m(1, "B")).is_some());
        assert!(r.get(&m(0, "A")).is_none());
    }

    #[test]
    fn display_is_sorted_by_id() {
        let mut s = MetaSubst::new();
        s.bind(m(1, "B"), Term::Int(2));
        s.bind(m(0, "A"), Term::Int(1));
        assert_eq!(s.to_string(), "{?A := 1, ?B := 2}");
    }
}
