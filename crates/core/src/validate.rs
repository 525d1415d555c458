//! Kernel annotation validation: recompute every cached [`TermRef`]
//! annotation by naive traversal and diff it against the stored value,
//! then check each node's interning invariant.
//!
//! The shared representation caches `max_free`, `has_meta`, and
//! `beta_normal` on every node, maintained by the smart constructors.
//! "Correct by construction" is an invariant worth *falsifying*, not just
//! trusting: this module recomputes all three bottom-up **without ever
//! consulting a cache** and reports the first node whose stored
//! annotation disagrees.
//!
//! With the hash-consed store, a second invariant holds: every node
//! reachable through `TermRef`s must be the store's canonical
//! representative of its α-class — re-interning its skeleton (a key
//! built from the child ids, which this check thereby also verifies are
//! live in the store) must hand back the very same node id. A node that
//! bypassed the interner, or whose id diverged from the store's, is
//! reported as an `interned_id` mismatch.
//!
//! Two entry points:
//!
//! * [`check_term`] — the explicit check, used by the `hoas-analyze`
//!   static analyzer over all rule and clause terms;
//! * [`debug_assert_valid`] — a `debug_assertions`-gated hook the kernel
//!   calls on every canonicalization result, so ordinary debug test runs
//!   exercise the validator continuously.

use crate::term::{Term, TermRef};
use std::fmt;

/// A cached annotation disagreed with its naive recomputation, or a node
/// violated the interning invariant.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct AnnotationMismatch {
    /// Which invariant failed (`max_free`, `has_meta`, `beta_normal`, or
    /// `interned_id`).
    pub field: &'static str,
    /// The value cached on the node.
    pub cached: String,
    /// The value the naive traversal computed.
    pub recomputed: String,
    /// The offending subterm, rendered.
    pub subterm: String,
}

impl fmt::Display for AnnotationMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cached `{}` is {} but recomputation gives {} at `{}`",
            self.field, self.cached, self.recomputed, self.subterm
        )
    }
}

impl std::error::Error for AnnotationMismatch {}

/// The annotation triple, recomputed structurally.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Annotations {
    max_free: u32,
    has_meta: bool,
    beta_normal: bool,
}

/// Recomputes the annotations of every node below (and including) `t` in
/// one post-order pass — using only the recomputed values of the
/// children, never a cache — and diffs each [`TermRef`] node's stored
/// annotations against the recomputation.
///
/// The interning check re-interns each skeleton through the **thread's
/// current store**, so call this with the term's own store current (the
/// default when everything uses the thread's default store; inside
/// [`StoreHandle::enter`](crate::store::StoreHandle::enter) for terms of
/// an isolated store). Validating a term against a foreign store would
/// report spurious `interned_id` mismatches.
///
/// # Errors
///
/// [`AnnotationMismatch`] describing the first disagreeing node.
pub fn check_term(t: &Term) -> Result<(), AnnotationMismatch> {
    recompute(t).map(|_| ())
}

fn recompute(t: &Term) -> Result<Annotations, AnnotationMismatch> {
    Ok(match t {
        Term::Var(i) => Annotations {
            max_free: i + 1,
            has_meta: false,
            beta_normal: true,
        },
        Term::Const(_) | Term::Int(_) | Term::Unit => Annotations {
            max_free: 0,
            has_meta: false,
            beta_normal: true,
        },
        Term::Meta(_) => Annotations {
            max_free: 0,
            has_meta: true,
            beta_normal: true,
        },
        Term::Lam(_, b) => {
            let b = check_node(b)?;
            Annotations {
                max_free: b.max_free.saturating_sub(1),
                has_meta: b.has_meta,
                beta_normal: b.beta_normal,
            }
        }
        Term::App(f, a) => {
            let fa = check_node(f)?;
            let aa = check_node(a)?;
            Annotations {
                max_free: fa.max_free.max(aa.max_free),
                has_meta: fa.has_meta || aa.has_meta,
                beta_normal: fa.beta_normal && aa.beta_normal && !matches!(f.term(), Term::Lam(..)),
            }
        }
        Term::Pair(a, b) => {
            let aa = check_node(a)?;
            let ba = check_node(b)?;
            Annotations {
                max_free: aa.max_free.max(ba.max_free),
                has_meta: aa.has_meta || ba.has_meta,
                beta_normal: aa.beta_normal && ba.beta_normal,
            }
        }
        Term::Fst(p) | Term::Snd(p) => {
            let pa = check_node(p)?;
            Annotations {
                max_free: pa.max_free,
                has_meta: pa.has_meta,
                beta_normal: pa.beta_normal && !matches!(p.term(), Term::Pair(..)),
            }
        }
    })
}

/// Recomputes a child node's annotations and diffs them against the
/// values cached on its [`TermRef`].
fn check_node(r: &TermRef) -> Result<Annotations, AnnotationMismatch> {
    let got = recompute(r.term())?;
    let mismatch = |field: &'static str, cached: String, recomputed: String| AnnotationMismatch {
        field,
        cached,
        recomputed,
        subterm: r.term().to_string(),
    };
    if r.max_free() != got.max_free {
        return Err(mismatch(
            "max_free",
            r.max_free().to_string(),
            got.max_free.to_string(),
        ));
    }
    if r.has_meta() != got.has_meta {
        return Err(mismatch(
            "has_meta",
            r.has_meta().to_string(),
            got.has_meta.to_string(),
        ));
    }
    if r.is_beta_normal() != got.beta_normal {
        return Err(mismatch(
            "beta_normal",
            r.is_beta_normal().to_string(),
            got.beta_normal.to_string(),
        ));
    }
    // Interning invariant: the node must be the store's canonical
    // representative — re-interning its skeleton (keyed over the child
    // ids, so those must be live store entries too) returns the same id.
    let canonical = TermRef::new(r.term().clone());
    if canonical.id() != r.id() {
        return Err(mismatch(
            "interned_id",
            r.id().to_string(),
            canonical.id().to_string(),
        ));
    }
    Ok(got)
}

/// Validates `t`'s cached annotations in debug builds; a no-op in
/// release builds. The kernel calls this on every canonicalization
/// result, so debug test runs continuously falsify the
/// correct-by-construction claim instead of assuming it.
pub fn debug_assert_valid(t: &Term) {
    #[cfg(debug_assertions)]
    if let Err(e) = check_term(t) {
        panic!("kernel annotation invariant violated: {e}");
    }
    #[cfg(not(debug_assertions))]
    let _ = t;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::MVar;

    #[test]
    fn well_formed_terms_pass() {
        let t = Term::lam(
            "x",
            Term::apps(Term::cnst("f"), [Term::Var(0), Term::Var(2)]),
        );
        check_term(&t).unwrap();
        let redex = Term::app(Term::lam("x", Term::Var(0)), Term::Meta(MVar::new(0, "P")));
        check_term(&redex).unwrap();
        debug_assert_valid(&t);
    }

    #[test]
    fn corrupted_annotations_are_caught() {
        // Build a node whose cached annotations lie, via the test-only
        // backdoor, and embed it under a parent.
        let lies = TermRef::new_with_annotations_for_tests(Term::Var(3), 0, true, true);
        let t = Term::App(TermRef::new(Term::cnst("f")), lies);
        let err = check_term(&t).unwrap_err();
        assert_eq!(err.field, "max_free");
        assert!(err.to_string().contains("max_free"));
    }

    #[test]
    fn corrupted_beta_normal_is_caught() {
        let redex = Term::app(Term::lam("x", Term::Var(0)), Term::Unit);
        let lies = TermRef::new_with_annotations_for_tests(redex, 0, false, true);
        let t = Term::Fst(lies);
        let err = check_term(&t).unwrap_err();
        assert_eq!(err.field, "beta_normal");
    }

    #[test]
    fn uninterned_node_is_caught() {
        // A node with *correct* annotations that nevertheless bypassed
        // the interner: the annotation checks pass, but re-interning its
        // skeleton yields the canonical node under a different id.
        let inner = Term::app(Term::cnst("f"), Term::Var(0));
        let stray = TermRef::new_with_annotations_for_tests(inner, 1, false, true);
        let t = Term::Snd(stray);
        let err = check_term(&t).unwrap_err();
        assert_eq!(err.field, "interned_id");
    }
}
