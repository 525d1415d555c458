//! Explicit simultaneous substitutions — the metalanguage's substitution
//! calculus as a first-class value.
//!
//! A [`Sub`] is `(t₀, t₁, …, tₙ₋₁; ↑k)`: it maps `Var(0) ↦ t₀`, …,
//! `Var(n-1) ↦ tₙ₋₁`, and every other variable `Var(i) ↦ Var(i - n + k)`.
//! This is the standard parallel-substitution presentation (a fragment of
//! the σ-calculus) and what gives the object languages their simultaneous
//! substitution lemmas *for free*: composition is defined and associative,
//! and β-contraction is `cons(arg, id)`.
//!
//! All composition/application laws are checked by unit tests here and by
//! property tests in the workspace test suite.

use crate::subst::shift;
use crate::term::{Term, TermRef};
use std::fmt;

/// A simultaneous substitution `(entries; ↑tail_shift)`.
///
/// ```
/// use hoas_core::sub::Sub;
/// use hoas_core::Term;
/// // [c/0] — β-substitution of `c` for the innermost variable.
/// let sigma = Sub::single(Term::cnst("c"));
/// let body = Term::app(Term::Var(0), Term::Var(1));
/// assert_eq!(
///     sigma.apply(&body),
///     Term::app(Term::cnst("c"), Term::Var(0)),
/// );
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Sub {
    /// `entries[i]` replaces `Var(i)`.
    entries: Vec<Term>,
    /// Variables `>= entries.len()` map to `Var(i - entries.len() + tail_shift)`.
    tail_shift: u32,
}

impl Sub {
    /// The identity substitution.
    pub fn id() -> Sub {
        Sub {
            entries: Vec::new(),
            tail_shift: 0,
        }
    }

    /// The weakening substitution `↑k` (shift every variable up by `k`).
    pub fn weaken(k: u32) -> Sub {
        Sub {
            entries: Vec::new(),
            tail_shift: k,
        }
    }

    /// `cons(t, σ)`: maps `Var(0) ↦ t` and `Var(i+1) ↦ σ(Var(i))`.
    #[must_use]
    pub fn cons(t: Term, sigma: &Sub) -> Sub {
        let mut entries = Vec::with_capacity(sigma.entries.len() + 1);
        entries.push(t);
        entries.extend(sigma.entries.iter().cloned());
        Sub {
            entries,
            tail_shift: sigma.tail_shift,
        }
    }

    /// The β-substitution `[t/0] = cons(t, id)`:
    /// `Sub::single(t).apply(body) == subst::instantiate(body, t)`.
    pub fn single(t: Term) -> Sub {
        Sub::cons(t, &Sub::id())
    }

    /// Builds a substitution from the terms for the `n` innermost
    /// variables (`ts[0]` replaces `Var(0)`), leaving the rest unchanged.
    pub fn from_terms(ts: impl IntoIterator<Item = Term>) -> Sub {
        Sub {
            entries: ts.into_iter().collect(),
            tail_shift: 0,
        }
    }

    /// Number of explicit entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether this is syntactically the identity (no entries, no shift).
    /// Note that e.g. `cons(Var 0, ↑1)` is extensionally the identity but
    /// not syntactically; see [`Sub::is_identity_extensional`].
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty() && self.tail_shift == 0
    }

    /// Whether the substitution maps every variable to itself.
    pub fn is_identity_extensional(&self) -> bool {
        self.entries
            .iter()
            .enumerate()
            .all(|(i, t)| t == &Term::Var(i as u32))
            && self.tail_shift as usize == self.entries.len()
            || self.is_empty()
    }

    /// What the substitution maps `Var(i)` to.
    pub fn lookup(&self, i: u32) -> Term {
        match self.entries.get(i as usize) {
            Some(t) => t.clone(),
            None => Term::Var(i - self.entries.len() as u32 + self.tail_shift),
        }
    }

    /// `lift(σ)`: the substitution to use under one binder —
    /// `cons(Var 0, σ ∘ ↑1)`.
    #[must_use]
    pub fn lift(&self) -> Sub {
        let mut entries = Vec::with_capacity(self.entries.len() + 1);
        entries.push(Term::Var(0));
        entries.extend(self.entries.iter().map(|t| shift(t, 1)));
        Sub {
            entries,
            tail_shift: self.tail_shift + 1,
        }
    }

    /// Applies the substitution to a term (plain, non-hereditary: β-redexes
    /// created by the substitution are kept; normalize afterwards if
    /// needed).
    pub fn apply(&self, t: &Term) -> Term {
        if self.is_empty() {
            return t.clone();
        }
        self.apply_at(t, 0)
    }

    fn apply_at(&self, t: &Term, depth: u32) -> Term {
        // Every free variable of `t` is bound below `depth`: the
        // substitution cannot touch it, so share the whole subtree.
        if t.max_free() <= depth {
            return t.clone();
        }
        match t {
            Term::Var(i) => {
                if *i < depth {
                    t.clone()
                } else {
                    shift(&self.lookup(i - depth), depth)
                }
            }
            Term::Lam(h, b) => Term::lam(h.clone(), self.apply_at_ref(b, depth + 1)),
            Term::App(f, a) => Term::app(self.apply_at_ref(f, depth), self.apply_at_ref(a, depth)),
            Term::Pair(a, b) => {
                Term::pair(self.apply_at_ref(a, depth), self.apply_at_ref(b, depth))
            }
            Term::Fst(p) => Term::fst(self.apply_at_ref(p, depth)),
            Term::Snd(p) => Term::snd(self.apply_at_ref(p, depth)),
            Term::Const(_) | Term::Meta(_) | Term::Int(_) | Term::Unit => t.clone(),
        }
    }

    /// [`Sub::apply_at`] on a shared subterm, preserving the `Rc` when the
    /// subterm is out of the substitution's reach.
    fn apply_at_ref(&self, t: &TermRef, depth: u32) -> TermRef {
        if t.max_free() <= depth {
            t.clone()
        } else {
            TermRef::new(self.apply_at(t, depth))
        }
    }

    /// Composition: `a.compose(&b)` is the substitution with
    /// `a.compose(&b).apply(t) == a.apply(&b.apply(t))` for all `t`
    /// (apply `b` first).
    #[must_use]
    pub fn compose(&self, b: &Sub) -> Sub {
        let n1 = b.entries.len() as u32;
        let k1 = b.tail_shift;
        let n2 = self.entries.len() as u32;
        // Entries must cover every variable whose image under `b`'s tail
        // still hits an entry of `self`.
        let extra = n2.saturating_sub(k1);
        let new_n = n1 + extra;
        let mut entries = Vec::with_capacity(new_n as usize);
        for e in &b.entries {
            entries.push(self.apply(e));
        }
        for i in n1..new_n {
            entries.push(self.lookup(i - n1 + k1));
        }
        // For i >= new_n: b maps to Var(i - n1 + k1) with index >= n2, so
        // self maps on to Var(i - n1 + k1 - n2 + k2).
        let tail_shift = new_n - n1 + k1 - n2 + self.tail_shift;
        Sub {
            entries,
            tail_shift,
        }
    }
}

impl Default for Sub {
    fn default() -> Self {
        Sub::id()
    }
}

impl fmt::Display for Sub {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("(")?;
        for (i, t) in self.entries.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, "; ↑{})", self.tail_shift)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::subst;

    fn v(i: u32) -> Term {
        Term::Var(i)
    }

    #[test]
    fn identity_is_identity() {
        let t = Term::lam("x", Term::app(v(0), v(3)));
        assert_eq!(Sub::id().apply(&t), t);
        assert!(Sub::id().is_empty());
        assert!(Sub::id().is_identity_extensional());
    }

    #[test]
    fn weaken_is_shift() {
        let t = Term::lam("x", Term::app(v(0), v(2)));
        assert_eq!(Sub::weaken(3).apply(&t), subst::shift(&t, 3));
    }

    #[test]
    fn single_is_beta() {
        let body = Term::lam("y", Term::app(v(1), v(0)));
        let arg = Term::cnst("c");
        assert_eq!(
            Sub::single(arg.clone()).apply(&body),
            subst::instantiate(&body, &arg)
        );
    }

    #[test]
    fn simultaneous_is_not_iterated() {
        // σ = [Var0 ↦ Var1, Var1 ↦ Var0] swaps — impossible as two
        // iterated single substitutions without a temporary.
        let swap = Sub::from_terms([v(1), v(0)]);
        let t = Term::app(v(0), v(1));
        assert_eq!(swap.apply(&t), Term::app(v(1), v(0)));
        // And under a binder both images shift.
        let t2 = Term::lam("x", Term::app(v(1), v(2)));
        assert_eq!(swap.apply(&t2), Term::lam("x", Term::app(v(2), v(1))));
    }

    #[test]
    fn lift_matches_binder_traversal() {
        let sigma = Sub::from_terms([Term::cnst("a")]);
        let lifted = sigma.lift();
        assert_eq!(lifted.lookup(0), v(0));
        assert_eq!(lifted.lookup(1), Term::cnst("a"));
        // Applying σ to λ.b equals λ.(lift σ applied to b).
        let b = Term::app(v(0), v(1));
        assert_eq!(
            sigma.apply(&Term::lam("x", b.clone())),
            Term::lam("x", lifted.apply(&b))
        );
    }

    #[test]
    fn compose_law_on_samples() {
        let a = Sub::from_terms([Term::cnst("a"), Term::app(Term::cnst("f"), v(0))]);
        let b = Sub::cons(Term::app(Term::cnst("g"), v(1)), &Sub::weaken(2));
        let ts = [
            v(0),
            v(1),
            v(4),
            Term::lam("x", Term::app(v(0), v(2))),
            Term::app(Term::lam("x", v(1)), v(0)),
            Term::pair(v(0), Term::fst(v(3))),
        ];
        let ab = a.compose(&b);
        for t in &ts {
            assert_eq!(
                ab.apply(t),
                a.apply(&b.apply(t)),
                "composition law failed on {t} (ab = {ab})"
            );
        }
    }

    #[test]
    fn compose_with_identity() {
        let s = Sub::cons(Term::cnst("a"), &Sub::weaken(1));
        assert_eq!(Sub::id().compose(&s), s);
        // id ∘ s has the same action (may differ syntactically only in
        // entries that spell out the identity).
        let si = s.compose(&Sub::id());
        for i in 0..5 {
            assert_eq!(si.lookup(i), s.lookup(i));
        }
    }

    #[test]
    fn compose_weakenings_add() {
        let w = Sub::weaken(2).compose(&Sub::weaken(3));
        for i in 0..4 {
            assert_eq!(w.lookup(i), v(i + 5));
        }
    }

    #[test]
    fn lookup_past_entries_uses_tail() {
        let s = Sub {
            entries: vec![Term::cnst("a")],
            tail_shift: 4,
        };
        assert_eq!(s.lookup(0), Term::cnst("a"));
        assert_eq!(s.lookup(1), v(4));
        assert_eq!(s.lookup(7), v(10));
    }

    #[test]
    fn extensional_identity_detection() {
        let s = Sub {
            entries: vec![v(0), v(1)],
            tail_shift: 2,
        };
        assert!(!s.is_empty());
        assert!(s.is_identity_extensional());
        let t = Term::lam("x", Term::app(v(0), v(5)));
        assert_eq!(s.apply(&t), t);
    }

    #[test]
    fn display_format() {
        let s = Sub::cons(Term::cnst("a"), &Sub::weaken(1));
        assert_eq!(s.to_string(), "(a; ↑1)");
    }
}
