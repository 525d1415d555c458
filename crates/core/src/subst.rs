//! De Bruijn index manipulation: shifting and substitution, and the one
//! traversal every kernel operation runs on.
//!
//! These are the capture-avoiding primitives that the metalanguage provides
//! *once and for all*; every object language encoded with HOAS inherits
//! them. Contrast with `hoas-firstorder`, where each representation has to
//! re-implement (and re-debug) them.
//!
//! Plain [`subst`]/[`instantiate`] may create β-redexes; the *hereditary*
//! variants that keep terms normal live in [`crate::normalize`].
//!
//! # One traversal
//!
//! [`shift_above`], [`unshift_above`], [`subst`], [`instantiate`],
//! hereditary substitution ([`crate::normalize::hinstantiate`]) and
//! [`crate::normalize::nf`] are thin entry points over one de Bruijn
//! traversal, parameterised by an operation (`Op`). The operation supplies
//! three things: its sharing guard, its action on a free variable (shift
//! it above a cutoff, replace variable `j`, or open index 0), and whether
//! it contracts the β- and projection redexes it creates (hereditary
//! substitution and `nf` do; a contraction is hereditary substitution of
//! the argument into the λ's body).
//!
//! The traversal has one rule per node: share it when the guard allows,
//! otherwise rebuild it through the call's one interner session.
//!
//! * **Sharing.** The guard reads the cached `max_free`/`beta_normal`
//!   annotations (see [`crate::term::TermRef`]) before descending: a
//!   subterm the operation cannot change comes back as the **same**
//!   interned node, with zero allocations and zero store lookups. On
//!   closed subterms every shift and substitution is O(1).
//! * **One rebuild step.** Each call opens one interner session
//!   (`store::with_session`) and rebuilds the root as an owned [`Term`];
//!   every node below it is interned bottom-up through a borrowed
//!   `NodeView` (one `Rc` clone on a hit, no child or `Sym` refcount
//!   churn). The root and the interned nodes share one step; only what
//!   the step builds differs.
//!
//! Each operation keeps its child order: hereditary substitution visits
//! an application's argument before its function, every other operation
//! the function first. Results are α-equal in either order, but the
//! store observes the order: it decides which nodes are created
//! first (and so their ids), what the front cache pins, and when a
//! sub-table crosses its sweep mark. Swapping it moves the store's
//! live-node count and a warm image's byte count.

use crate::store::{self, InternSession, NodeView};
use crate::term::{Term, TermRef};

/// Shifts every free variable with index `>= cutoff` up by `d`.
///
/// Returns a clone of the input (sharing all subterm nodes) when no free
/// variable reaches the cutoff — in particular, O(1) on closed terms.
pub fn shift_above(t: &Term, d: u32, cutoff: u32) -> Term {
    if d == 0 || t.max_free() <= cutoff {
        return t.clone();
    }
    run(Op::Shift(d), t, cutoff)
}

/// Shifts every free variable up by `d`. O(1) on closed terms.
pub fn shift(t: &Term, d: u32) -> Term {
    shift_above(t, d, 0)
}

/// Shifts every free variable with index `>= cutoff` *down* by `d`.
///
/// # Panics
///
/// Panics if a variable in the range `[cutoff, cutoff + d)` occurs — such a
/// term would dangle. This indicates a kernel-internal invariant violation;
/// callers first check occurrence (e.g. via [`Term::occurs_free`]).
pub fn unshift_above(t: &Term, d: u32, cutoff: u32) -> Term {
    if d == 0 || t.max_free() <= cutoff {
        return t.clone();
    }
    run(Op::Unshift(d), t, cutoff)
}

/// Substitutes `s` for the free variable `j` of `t`, *keeping* the variable
/// numbering of all other variables (no binder is removed).
///
/// `s` is interpreted in the same context as `t`; it is shifted as the
/// traversal crosses binders. Subterms that cannot mention variable `j`
/// are shared, not copied.
pub fn subst(t: &Term, j: u32, s: &Term) -> Term {
    if t.max_free() <= j {
        return t.clone();
    }
    // Intern the substituend once, *before* the session opens:
    // `TermRef::new` must not run inside a session.
    let s = TermRef::new(s.clone());
    run(Op::Subst(j, &s), t, 0)
}

/// Opens the body of a binder: substitutes `arg` for the binder's variable
/// (index 0 at the body's top level) and shifts the remaining free
/// variables down by one. This is exactly β-contraction's substitution:
/// `(λ. body) arg  ⇒  instantiate(body, arg)`.
///
/// The result may contain new β-redexes; see
/// [`crate::normalize::hinstantiate`] for the redex-contracting version.
/// Subterms not mentioning the opened variable (or anything freer) are
/// shared, not copied.
pub fn instantiate(body: &Term, arg: &Term) -> Term {
    if body.max_free() == 0 {
        return body.clone();
    }
    let s = TermRef::new(arg.clone());
    run(Op::Inst(&s), body, 0)
}

/// A kernel operation: the parameter of the one traversal. The
/// traversal's depth `k` counts the binders crossed, starting from the
/// cutoff for the shifts and from 0 otherwise.
#[derive(Clone, Copy)]
pub(crate) enum Op<'a> {
    /// Shifts the variables at or above the cutoff up by `d`.
    Shift(u32),
    /// Shifts the variables at or above the cutoff down by `d`.
    Unshift(u32),
    /// Replaces free variable `j` by `s`; no other variable moves.
    Subst(u32, &'a TermRef),
    /// Opens index 0 with `s`: replaces it and steps every freer variable
    /// down by one.
    Inst(&'a TermRef),
    /// Hereditary substitution: [`Op::Inst`], contracting every redex it
    /// creates.
    Hsub(&'a TermRef),
    /// β-normal form, contracting β- and projection redexes.
    Nf,
}

impl<'a> Op<'a> {
    /// Does the operation leave a node with these annotations unchanged at
    /// depth `k`? Then the node is shared, not rebuilt.
    fn shares(self, max_free: u32, beta_normal: bool, k: u32) -> bool {
        match self {
            Op::Shift(d) | Op::Unshift(d) => d == 0 || max_free <= k,
            Op::Subst(j, _) => max_free <= j + k,
            Op::Inst(_) => max_free <= k,
            Op::Hsub(_) => max_free <= k && beta_normal,
            Op::Nf => beta_normal,
        }
    }

    /// Whether the operation contracts the redexes it creates or meets.
    fn contracts(self) -> bool {
        matches!(self, Op::Hsub(_) | Op::Nf)
    }

    /// The substituend that variable `i` at depth `k` is replaced by, if
    /// any (it is then shifted by `k`).
    fn hit(self, i: u32, k: u32) -> Option<&'a TermRef> {
        match self {
            Op::Subst(j, s) if i == j + k => Some(s),
            Op::Inst(s) | Op::Hsub(s) if i == k => Some(s),
            _ => None,
        }
    }

    /// Where variable `i` at depth `k` goes when it is not replaced.
    fn renumber(self, i: u32, k: u32) -> u32 {
        match self {
            Op::Subst(..) | Op::Nf => i,
            _ if i < k => i,
            Op::Shift(d) => i + d,
            Op::Unshift(d) => {
                assert!(
                    i >= k + d,
                    "unshift_above: variable {i} would dangle (cutoff {k}, d {d})"
                );
                i - d
            }
            Op::Inst(_) | Op::Hsub(_) => i - 1,
        }
    }
}

/// Runs `op` over the owned root `t` at depth `k`, in one interner
/// session. The caller has already checked that `op` does not share `t`.
pub(crate) fn run(op: Op<'_>, t: &Term, k: u32) -> Term {
    store::with_session(|sess| Walk { sess }.step(op, t, k))
}

/// What one step builds: the owned call root ([`Term`]) or an interned
/// node below it ([`TermRef`]).
trait Built: Sized {
    /// Whether this is the owned call root.
    const ROOT: bool;
    /// Builds a node whose children are already interned.
    fn build(w: &mut Walk<'_, '_>, v: &NodeView<'_>) -> Self;
    /// Passes an interned result through.
    fn of_ref(r: TermRef) -> Self;
}

impl Built for Term {
    const ROOT: bool = true;
    fn build(_: &mut Walk<'_, '_>, v: &NodeView<'_>) -> Term {
        v.to_term()
    }
    fn of_ref(r: TermRef) -> Term {
        r.into_term()
    }
}

impl Built for TermRef {
    const ROOT: bool = false;
    fn build(w: &mut Walk<'_, '_>, v: &NodeView<'_>) -> TermRef {
        w.sess.intern_view(v)
    }
    fn of_ref(r: TermRef) -> TermRef {
        r
    }
}

/// The interner session one call threads through.
struct Walk<'w, 's> {
    sess: &'w mut InternSession<'s>,
}

impl Walk<'_, '_> {
    /// `op` over an interned subtree at depth `k`: share it, or rebuild
    /// and intern it.
    fn visit(&mut self, op: Op<'_>, t: &TermRef, k: u32) -> TermRef {
        if op.shares(t.max_free(), t.is_beta_normal(), k) {
            return t.clone();
        }
        self.step(op, t, k)
    }

    /// `shift(s, d)` of an interned substituend.
    fn shift(&mut self, s: &TermRef, d: u32) -> TermRef {
        self.visit(Op::Shift(d), s, 0)
    }

    /// The one rebuild step: `op` applied to node `t` at depth `k`, its
    /// children visited and the node rebuilt — or, for a contracting
    /// `op`, the redex it forms contracted.
    fn step<R: Built>(&mut self, op: Op<'_>, t: &Term, k: u32) -> R {
        match t {
            Term::Var(i) => match op.hit(*i, k) {
                Some(s) => R::of_ref(self.shift(s, k)),
                None => R::build(self, &NodeView::Var(op.renumber(*i, k))),
            },
            Term::Lam(h, b) => {
                let b2 = self.visit(op, b, k + 1);
                R::build(self, &NodeView::Lam(h, &b2))
            }
            Term::App(f, a) => {
                // Hereditary substitution visits the argument first.
                let (f2, a2) = if matches!(op, Op::Hsub(_)) {
                    let a2 = self.visit(op, a, k);
                    (self.visit(op, f, k), a2)
                } else {
                    let f2 = self.visit(op, f, k);
                    (f2, self.visit(op, a, k))
                };
                match f2.as_ref() {
                    Term::Lam(_, body) if op.contracts() => {
                        // Hereditary substitution of the argument: at the
                        // root the contractum is the new owned root.
                        let op = Op::Hsub(&a2);
                        if R::ROOT && !op.shares(body.max_free(), body.is_beta_normal(), 0) {
                            self.step(op, body, 0)
                        } else {
                            R::of_ref(self.visit(op, body, 0))
                        }
                    }
                    _ => R::build(self, &NodeView::App(&f2, &a2)),
                }
            }
            Term::Pair(a, b) => {
                let a2 = self.visit(op, a, k);
                let b2 = self.visit(op, b, k);
                R::build(self, &NodeView::Pair(&a2, &b2))
            }
            Term::Fst(p) | Term::Snd(p) => {
                let p2 = self.visit(op, p, k);
                match (t, p2.as_ref()) {
                    (Term::Fst(_), Term::Pair(c, _)) | (Term::Snd(_), Term::Pair(_, c))
                        if op.contracts() =>
                    {
                        R::of_ref(c.clone())
                    }
                    (Term::Fst(_), _) => R::build(self, &NodeView::Fst(&p2)),
                    _ => R::build(self, &NodeView::Snd(&p2)),
                }
            }
            // Closed leaves: every guard shares them before a step.
            Term::Const(_) | Term::Meta(_) | Term::Int(_) | Term::Unit => {
                R::build(self, &NodeView::of(t))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::{Term, TermRef};

    fn v(i: u32) -> Term {
        Term::Var(i)
    }

    #[test]
    fn shift_respects_cutoff() {
        // λ. (0 1 2) — 0 bound, 1 and 2 free.
        let t = Term::lam("x", Term::apps(v(0), [v(1), v(2)]));
        let s = shift(&t, 3);
        assert_eq!(s, Term::lam("x", Term::apps(v(0), [v(4), v(5)])));
    }

    #[test]
    fn shift_zero_is_identity() {
        let t = Term::lam("x", Term::app(v(0), v(3)));
        assert_eq!(shift(&t, 0), t);
    }

    #[test]
    fn unshift_inverts_shift() {
        let t = Term::lam("x", Term::apps(v(0), [v(1), v(4)]));
        assert_eq!(unshift_above(&shift(&t, 7), 7, 0), t);
    }

    #[test]
    #[should_panic(expected = "would dangle")]
    fn unshift_panics_on_dangling() {
        let _ = unshift_above(&v(0), 1, 0);
    }

    #[test]
    fn subst_shifts_replacement_under_binders() {
        // t = λ. (1)  — the free var 0 seen from outside.
        let t = Term::lam("x", v(1));
        // substitute variable 0 := (free var 0 applied to const c) — must be
        // shifted to 1 under the λ.
        let s = Term::app(v(0), Term::cnst("c"));
        let r = subst(&t, 0, &s);
        assert_eq!(r, Term::lam("x", Term::app(v(1), Term::cnst("c"))));
    }

    #[test]
    fn subst_leaves_other_vars_alone() {
        let t = Term::apps(v(0), [v(1), v(2)]);
        let r = subst(&t, 1, &Term::Int(9));
        assert_eq!(r, Term::apps(v(0), [Term::Int(9), v(2)]));
    }

    #[test]
    fn instantiate_beta_semantics() {
        // (λx. x x) c  ⇒  c c
        let body = Term::app(v(0), v(0));
        let r = instantiate(&body, &Term::cnst("c"));
        assert_eq!(r, Term::app(Term::cnst("c"), Term::cnst("c")));
    }

    #[test]
    fn instantiate_decrements_outer_vars() {
        // body = 0 1 2; instantiate 0 := c gives c 0 1 (outer vars step down).
        let body = Term::apps(v(0), [v(1), v(2)]);
        let r = instantiate(&body, &Term::cnst("c"));
        assert_eq!(r, Term::apps(Term::cnst("c"), [v(0), v(1)]));
    }

    #[test]
    fn instantiate_under_binder_shifts_arg() {
        // body = λy. (x y) with x = Var(1) (the binder being opened), arg = Var(5).
        let body = Term::lam("y", Term::app(v(1), v(0)));
        let r = instantiate(&body, &v(5));
        // under the λ the replacement 5 must appear as 6.
        assert_eq!(r, Term::lam("y", Term::app(v(6), v(0))));
    }

    #[test]
    fn instantiate_ignores_closed_subterms() {
        let body = Term::apps(Term::cnst("f"), [Term::Int(1), Term::Unit]);
        assert_eq!(instantiate(&body, &v(0)), body);
    }

    #[test]
    fn subst_keeps_numbering_of_other_vars() {
        // Unlike `instantiate`, `subst` removes no binder: substituting for
        // variable 0 leaves variable 1 as variable 1.
        let t = Term::app(v(0), v(1));
        let once = subst(&t, 0, &Term::cnst("a"));
        assert_eq!(once, Term::app(Term::cnst("a"), v(1)));
        // Re-substituting for 0 finds no occurrence.
        let twice = subst(&once, 0, &Term::cnst("b"));
        assert_eq!(twice, once);
    }

    #[test]
    fn shift_on_closed_term_shares_nodes() {
        // A closed term: λf. λx. f (f x).
        let t = Term::lams(["f", "x"], Term::app(v(1), Term::app(v(1), v(0))));
        assert!(t.is_locally_closed());
        let s = shift(&t, 42);
        assert_eq!(s, t);
        // The shift must not have rebuilt anything: subterm nodes are
        // pointer-identical.
        match (&t, &s) {
            (Term::Lam(_, b1), Term::Lam(_, b2)) => assert!(TermRef::ptr_eq(b1, b2)),
            _ => unreachable!(),
        }
    }

    #[test]
    fn subst_shares_untouched_branches() {
        // t = (closed) (Var 0): substituting for Var 0 must reuse the
        // closed function branch by pointer.
        let closed = Term::lam("x", v(0));
        let t = Term::app(closed, v(0));
        let r = subst(&t, 0, &Term::cnst("c"));
        match (&t, &r) {
            (Term::App(f1, _), Term::App(f2, a2)) => {
                assert!(TermRef::ptr_eq(f1, f2));
                assert_eq!(a2.as_ref(), &Term::cnst("c"));
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn repeated_shift_returns_the_same_node() {
        // Same (subtree, d, cutoff) twice: the second call must return the
        // identical interned node, since interning maps an α-class to one
        // node while it lives.
        let t = Term::apps(v(0), [v(1), Term::lam("x", v(3))]);
        let a = TermRef::new(shift(&t, 2));
        let b = TermRef::new(shift(&t, 2));
        assert_eq!(a.id(), b.id());
        assert!(TermRef::ptr_eq(&a, &b));
    }
}
