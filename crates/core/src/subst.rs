//! De Bruijn index manipulation: shifting and substitution.
//!
//! These are the capture-avoiding primitives that the metalanguage provides
//! *once and for all*; every object language encoded with HOAS inherits
//! them. Contrast with `hoas-firstorder`, where each representation has to
//! re-implement (and re-debug) them.
//!
//! Plain [`subst`]/[`instantiate`] may create β-redexes; the *hereditary*
//! variants that keep terms normal live in [`crate::normalize`].
//!
//! # Sharing fast paths
//!
//! Every traversal here consults the cached `max_free` annotation (see
//! [`crate::term::TermRef`]) before descending: a subterm whose free
//! variables all lie below the cutoff cannot be changed by a shift or a
//! substitution, so the traversal returns the **same** interned node — a
//! pointer copy under the same [`crate::store::NodeId`], zero allocations
//! and zero store lookups. On closed subterms (`max_free == 0`) every
//! operation in this module is O(1).
//!
//! # Refcount-lean rebuilds
//!
//! The traversals that *do* rebuild are single-pass and session-threaded:
//! one interner session (`store::with_session`) is opened per
//! call, each rebuilt node is interned bottom-up through a borrowed
//! `NodeView` (one `Arc` clone on a hit, no child or `Sym` refcount
//! churn), and subtrees the sharing guard admits are returned as pointer
//! copies. On top of that, compound interned-subtree steps in the **top
//! `opmemo::MEMO_LVLS` levels** of each call consult the per-thread
//! operation memo (`crate::opmemo`, borrowed once per call):
//! hash-consing makes `shift`/`subst` pure functions of [`NodeId`]s, so a
//! (subtree, substituend, cutoff) triple computed once — in this call
//! because the subtree occurs twice, or in an earlier call — is replayed
//! with a single probe instead of a traversal. Gating the memo to the top
//! levels is deliberate: a repeat replays from its topmost probe anyway,
//! while fresh-id workloads (where the memo cannot hit) pay a constant
//! handful of probes per call rather than a cache-missing table access
//! per rebuilt node. Leaves always skip the memo: renumbering a variable
//! is cheaper than a table hit.
//!
//! [`NodeId`]: crate::store::NodeId

use crate::opmemo::{self, Key, Table, MEMO_LVLS, OP_INST, OP_SHIFT_DOWN, OP_SHIFT_UP, OP_SUBST};
use crate::store::{self, InternSession, NodeView};
use crate::term::{Term, TermRef};

/// Shifts every free variable with index `>= cutoff` up by `d`.
///
/// Returns a clone of the input (sharing all subterm nodes) when no free
/// variable reaches the cutoff — in particular, O(1) on closed terms.
/// Rebuilt spines are interned bottom-up in one store session and
/// memoized per interned subtree (see the module docs).
pub fn shift_above(t: &Term, d: u32, cutoff: u32) -> Term {
    if d == 0 || t.max_free() <= cutoff {
        return t.clone();
    }
    store::with_session(|sess| {
        opmemo::with_table(sess.store_token(), |tab| {
            reindex_root(t, d, cutoff, true, sess, tab)
        })
    })
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
    store::with_session(|sess| {
        opmemo::with_table(sess.store_token(), |tab| {
            reindex_root(t, d, cutoff, false, sess, tab)
        })
    })
}

/// Renumbers one variable occurrence: the shared index arithmetic of
/// [`shift_above`] (`up`) and [`unshift_above`] (`!up`).
fn reindex_var(i: u32, d: u32, cutoff: u32, up: bool) -> u32 {
    if i < cutoff {
        i
    } else if up {
        i + d
    } else {
        assert!(
            i >= cutoff + d,
            "unshift_above: variable {i} would dangle (cutoff {cutoff}, d {d})"
        );
        i - d
    }
}

/// Root of the shared shift/unshift traversal: rebuilds the top node as an
/// owned (uninterned) [`Term`] whose children come out of [`reindex_ref`].
fn reindex_root(
    t: &Term,
    d: u32,
    cutoff: u32,
    up: bool,
    sess: &mut InternSession<'_>,
    tab: &mut Table,
) -> Term {
    match t {
        Term::Var(i) => Term::Var(reindex_var(*i, d, cutoff, up)),
        Term::Lam(h, b) => Term::Lam(h.clone(), reindex_ref(b, d, cutoff + 1, up, sess, tab, 0)),
        Term::App(f, a) => Term::App(
            reindex_ref(f, d, cutoff, up, sess, tab, 0),
            reindex_ref(a, d, cutoff, up, sess, tab, 0),
        ),
        Term::Pair(a, b) => Term::Pair(
            reindex_ref(a, d, cutoff, up, sess, tab, 0),
            reindex_ref(b, d, cutoff, up, sess, tab, 0),
        ),
        Term::Fst(p) => Term::Fst(reindex_ref(p, d, cutoff, up, sess, tab, 0)),
        Term::Snd(p) => Term::Snd(reindex_ref(p, d, cutoff, up, sess, tab, 0)),
        Term::Const(_) | Term::Meta(_) | Term::Int(_) | Term::Unit => t.clone(),
    }
}

/// Shift/unshift over an interned subtree: share below the cutoff, replay
/// from the operation memo, or rebuild bottom-up through the session.
fn reindex_ref(
    t: &TermRef,
    d: u32,
    cutoff: u32,
    up: bool,
    sess: &mut InternSession<'_>,
    tab: &mut Table,
    lvl: u32,
) -> TermRef {
    if t.max_free() <= cutoff {
        return t.clone();
    }
    // A variable renumbers in O(1) — cheaper than a memo round-trip.
    if let Term::Var(i) = t.as_ref() {
        return sess.intern_view(&NodeView::Var(reindex_var(*i, d, cutoff, up)));
    }
    let memo = lvl < MEMO_LVLS;
    let key = Key {
        op: if up { OP_SHIFT_UP } else { OP_SHIFT_DOWN },
        t: t.id().get(),
        s: u64::from(d),
        k: u64::from(cutoff),
    };
    if memo {
        if let Some(hit) = tab.probe(&key) {
            return hit;
        }
    }
    let out = match t.as_ref() {
        Term::Lam(h, b) => {
            let b2 = reindex_ref(b, d, cutoff + 1, up, sess, tab, lvl + 1);
            sess.intern_view(&NodeView::Lam(h, &b2))
        }
        Term::App(f, a) => {
            let f2 = reindex_ref(f, d, cutoff, up, sess, tab, lvl + 1);
            let a2 = reindex_ref(a, d, cutoff, up, sess, tab, lvl + 1);
            sess.intern_view(&NodeView::App(&f2, &a2))
        }
        Term::Pair(a, b) => {
            let a2 = reindex_ref(a, d, cutoff, up, sess, tab, lvl + 1);
            let b2 = reindex_ref(b, d, cutoff, up, sess, tab, lvl + 1);
            sess.intern_view(&NodeView::Pair(&a2, &b2))
        }
        Term::Fst(p) => {
            let p2 = reindex_ref(p, d, cutoff, up, sess, tab, lvl + 1);
            sess.intern_view(&NodeView::Fst(&p2))
        }
        Term::Snd(p) => {
            let p2 = reindex_ref(p, d, cutoff, up, sess, tab, lvl + 1);
            sess.intern_view(&NodeView::Snd(&p2))
        }
        // `Var` returned above; other leaves are closed, so the cutoff
        // guard already returned them.
        Term::Var(_) | Term::Const(_) | Term::Meta(_) | Term::Int(_) | Term::Unit => t.clone(),
    };
    if memo {
        tab.insert(key, &out);
    }
    out
}

/// `shift(s, d)` for an already-interned substituend, inside a session.
/// Used at variable-hit sites by [`subst`], [`instantiate`], and the
/// hereditary traversals in [`crate::normalize`].
pub(crate) fn shift_interned(
    s: &TermRef,
    d: u32,
    sess: &mut InternSession<'_>,
    tab: &mut Table,
) -> TermRef {
    if d == 0 {
        return s.clone();
    }
    // A fresh logical operation: restart the memo gate at level 0 so a
    // substituend shifted once per occurrence replays in O(1) from the
    // second occurrence on.
    reindex_ref(s, d, 0, true, sess, tab, 0)
}

/// Substitutes `s` for the free variable `j` of `t`, *keeping* the variable
/// numbering of all other variables (no binder is removed).
///
/// `s` is interpreted in the same context as `t`; it is shifted as the
/// traversal crosses binders. Subterms that cannot mention variable `j`
/// (cached `max_free` check) are shared, not copied; rebuilt spines are
/// interned bottom-up in one store session and memoized per interned
/// subtree.
pub fn subst(t: &Term, j: u32, s: &Term) -> Term {
    // Variable `j` cannot occur: identity, share.
    if t.max_free() <= j {
        return t.clone();
    }
    // Intern the substituend once, *before* opening the session: its id
    // keys the memo, and `TermRef::new` must not run while the session
    // holds the thread context.
    let sref = TermRef::new(s.clone());
    store::with_session(|sess| {
        opmemo::with_table(sess.store_token(), |tab| subst_root(t, j, &sref, sess, tab))
    })
}

/// Root of [`subst`] (binder depth 0): rebuilds the top node as an owned
/// [`Term`].
fn subst_root(
    t: &Term,
    j: u32,
    s: &TermRef,
    sess: &mut InternSession<'_>,
    tab: &mut Table,
) -> Term {
    match t {
        // Depth 0: a hit needs no shift.
        Term::Var(i) => {
            if *i == j {
                s.as_ref().clone()
            } else {
                Term::Var(*i)
            }
        }
        Term::Lam(h, b) => Term::Lam(h.clone(), subst_ref(b, j, s, 1, sess, tab, 0)),
        Term::App(f, a) => Term::App(
            subst_ref(f, j, s, 0, sess, tab, 0),
            subst_ref(a, j, s, 0, sess, tab, 0),
        ),
        Term::Pair(a, b) => Term::Pair(
            subst_ref(a, j, s, 0, sess, tab, 0),
            subst_ref(b, j, s, 0, sess, tab, 0),
        ),
        Term::Fst(p) => Term::Fst(subst_ref(p, j, s, 0, sess, tab, 0)),
        Term::Snd(p) => Term::Snd(subst_ref(p, j, s, 0, sess, tab, 0)),
        Term::Const(_) | Term::Meta(_) | Term::Int(_) | Term::Unit => t.clone(),
    }
}

/// [`subst`] over an interned subtree at binder depth `depth`. The memo
/// key carries both `j` and `depth`: a binder crossing changes which
/// variable is hit *and* how far the substituend is shifted.
fn subst_ref(
    t: &TermRef,
    j: u32,
    s: &TermRef,
    depth: u32,
    sess: &mut InternSession<'_>,
    tab: &mut Table,
    lvl: u32,
) -> TermRef {
    if t.max_free() <= j + depth {
        return t.clone();
    }
    if let Term::Var(i) = t.as_ref() {
        return if *i == j + depth {
            shift_interned(s, depth, sess, tab)
        } else {
            sess.intern_view(&NodeView::Var(*i))
        };
    }
    let memo = lvl < MEMO_LVLS;
    let key = Key {
        op: OP_SUBST,
        t: t.id().get(),
        s: s.id().get(),
        k: (u64::from(j) << 32) | u64::from(depth),
    };
    if memo {
        if let Some(hit) = tab.probe(&key) {
            return hit;
        }
    }
    let out = match t.as_ref() {
        Term::Lam(h, b) => {
            let b2 = subst_ref(b, j, s, depth + 1, sess, tab, lvl + 1);
            sess.intern_view(&NodeView::Lam(h, &b2))
        }
        Term::App(f, a) => {
            let f2 = subst_ref(f, j, s, depth, sess, tab, lvl + 1);
            let a2 = subst_ref(a, j, s, depth, sess, tab, lvl + 1);
            sess.intern_view(&NodeView::App(&f2, &a2))
        }
        Term::Pair(a, b) => {
            let a2 = subst_ref(a, j, s, depth, sess, tab, lvl + 1);
            let b2 = subst_ref(b, j, s, depth, sess, tab, lvl + 1);
            sess.intern_view(&NodeView::Pair(&a2, &b2))
        }
        Term::Fst(p) => {
            let p2 = subst_ref(p, j, s, depth, sess, tab, lvl + 1);
            sess.intern_view(&NodeView::Fst(&p2))
        }
        Term::Snd(p) => {
            let p2 = subst_ref(p, j, s, depth, sess, tab, lvl + 1);
            sess.intern_view(&NodeView::Snd(&p2))
        }
        Term::Var(_) | Term::Const(_) | Term::Meta(_) | Term::Int(_) | Term::Unit => t.clone(),
    };
    if memo {
        tab.insert(key, &out);
    }
    out
}

/// Opens the body of a binder: substitutes `arg` for the binder's variable
/// (index 0 at the body's top level) and shifts the remaining free
/// variables down by one. This is exactly β-contraction's substitution:
/// `(λ. body) arg  ⇒  instantiate(body, arg)`.
///
/// The result may contain new β-redexes; see
/// [`crate::normalize::hinstantiate`] for the redex-contracting version.
/// Subterms not mentioning the opened variable (or anything freer) are
/// shared, not copied; rebuilt spines are interned bottom-up in one store
/// session and memoized per interned subtree.
pub fn instantiate(body: &Term, arg: &Term) -> Term {
    // No free variable at all: nothing to replace or renumber.
    if body.max_free() == 0 {
        return body.clone();
    }
    let aref = TermRef::new(arg.clone());
    store::with_session(|sess| {
        opmemo::with_table(sess.store_token(), |tab| inst_root(body, &aref, sess, tab))
    })
}

/// Root of [`instantiate`] (binder depth 0).
fn inst_root(t: &Term, arg: &TermRef, sess: &mut InternSession<'_>, tab: &mut Table) -> Term {
    match t {
        Term::Var(i) => {
            if *i == 0 {
                arg.as_ref().clone()
            } else {
                Term::Var(*i - 1)
            }
        }
        Term::Lam(h, b) => Term::Lam(h.clone(), inst_ref(b, arg, 1, sess, tab, 0)),
        Term::App(f, a) => Term::App(
            inst_ref(f, arg, 0, sess, tab, 0),
            inst_ref(a, arg, 0, sess, tab, 0),
        ),
        Term::Pair(a, b) => Term::Pair(
            inst_ref(a, arg, 0, sess, tab, 0),
            inst_ref(b, arg, 0, sess, tab, 0),
        ),
        Term::Fst(p) => Term::Fst(inst_ref(p, arg, 0, sess, tab, 0)),
        Term::Snd(p) => Term::Snd(inst_ref(p, arg, 0, sess, tab, 0)),
        Term::Const(_) | Term::Meta(_) | Term::Int(_) | Term::Unit => t.clone(),
    }
}

/// [`instantiate`] over an interned subtree at binder depth `depth`.
fn inst_ref(
    t: &TermRef,
    arg: &TermRef,
    depth: u32,
    sess: &mut InternSession<'_>,
    tab: &mut Table,
    lvl: u32,
) -> TermRef {
    if t.max_free() <= depth {
        return t.clone();
    }
    if let Term::Var(i) = t.as_ref() {
        return if *i == depth {
            shift_interned(arg, depth, sess, tab)
        } else if *i > depth {
            sess.intern_view(&NodeView::Var(*i - 1))
        } else {
            sess.intern_view(&NodeView::Var(*i))
        };
    }
    let memo = lvl < MEMO_LVLS;
    let key = Key {
        op: OP_INST,
        t: t.id().get(),
        s: arg.id().get(),
        k: u64::from(depth),
    };
    if memo {
        if let Some(hit) = tab.probe(&key) {
            return hit;
        }
    }
    let out = match t.as_ref() {
        Term::Lam(h, b) => {
            let b2 = inst_ref(b, arg, depth + 1, sess, tab, lvl + 1);
            sess.intern_view(&NodeView::Lam(h, &b2))
        }
        Term::App(f, a) => {
            let f2 = inst_ref(f, arg, depth, sess, tab, lvl + 1);
            let a2 = inst_ref(a, arg, depth, sess, tab, lvl + 1);
            sess.intern_view(&NodeView::App(&f2, &a2))
        }
        Term::Pair(a, b) => {
            let a2 = inst_ref(a, arg, depth, sess, tab, lvl + 1);
            let b2 = inst_ref(b, arg, depth, sess, tab, lvl + 1);
            sess.intern_view(&NodeView::Pair(&a2, &b2))
        }
        Term::Fst(p) => {
            let p2 = inst_ref(p, arg, depth, sess, tab, lvl + 1);
            sess.intern_view(&NodeView::Fst(&p2))
        }
        Term::Snd(p) => {
            let p2 = inst_ref(p, arg, depth, sess, tab, lvl + 1);
            sess.intern_view(&NodeView::Snd(&p2))
        }
        Term::Var(_) | Term::Const(_) | Term::Meta(_) | Term::Int(_) | Term::Unit => t.clone(),
    };
    if memo {
        tab.insert(key, &out);
    }
    out
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
    fn repeated_shift_hits_the_operation_memo() {
        // Same (subtree, d, cutoff) twice: the second call must return the
        // identical interned node (memo or not, ids must agree — this
        // pins the memo's transparency on the simplest possible case).
        let t = Term::apps(v(0), [v(1), Term::lam("x", v(3))]);
        let a = TermRef::new(shift(&t, 2));
        let b = TermRef::new(shift(&t, 2));
        assert_eq!(a.id(), b.id());
        assert!(TermRef::ptr_eq(&a, &b));
    }
}
