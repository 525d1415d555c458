//! Terms of the metalanguage.
//!
//! Terms use **de Bruijn indices** for bound variables: `Var(0)` refers to
//! the innermost enclosing λ. Every λ carries a *printing hint* — the
//! surface name the binder had (or should get) — but hints are ignored by
//! [`PartialEq`] and [`Hash`], so structural equality **is α-equivalence**.
//! This is the representation choice that makes object-language renaming
//! trivial, one of the paper's selling points.
//!
//! Metavariables ([`MVar`]) are the "pattern variables" of the paper's
//! transformation rules: free, typed holes that higher-order unification
//! and matching solve for. A metavariable applied to a spine of distinct
//! bound variables is a *Miller pattern*; see `hoas-unify`.
//!
//! # Hash-consed, annotation-carrying representation
//!
//! Subterms are [`TermRef`]s — reference-counted pointers to immutable
//! nodes ([`Rc<TermNode>`](std::rc::Rc)) **interned** in the thread's
//! current [`crate::store`] (the thread's own store unless a
//! [`StoreHandle`](crate::store::StoreHandle) is entered): constructing a
//! term whose de Bruijn skeleton (modulo binder hints) was already built
//! returns the *same* node. Each node
//! carries a stable [`NodeId`] and caches three structural annotations,
//! computed **bottom-up in O(1)** once per distinct term:
//!
//! * `max_free` — the maximal free de Bruijn index **plus one** (so `0`
//!   means *closed*): an O(1) closedness/scope test;
//! * `has_meta` — whether any metavariable occurs below;
//! * `beta_normal` — whether the subterm is β-normal (no β- or
//!   projection-redex).
//!
//! All three are functions of the term's structure alone (never of binder
//! hints), so they are stable under α-renaming and safe to share. The
//! kernel's traversals exploit the sharing aggressively: `shift`/`subst`
//! return the *same* `Rc` (a pointer copy, zero allocations) on subterms
//! the operation cannot change, substitution application skips meta-free
//! subtrees, and normalization skips already-normal ones. Because
//! interning makes node identity coincide with α-equivalence modulo
//! hints, [`TermRef`] equality **is** a single id comparison — O(1)
//! α-equivalence — and downstream caches key durably on [`NodeId`]
//! (see [`crate::store`] for the no-reuse argument).
//!
//! Annotations cannot go stale: `TermNode` internals are crate-private,
//! every node is built by [`TermRef::new`] (directly or via the [`Term`]
//! smart constructors), and the node is immutable afterwards.

use crate::intern::Sym;
use crate::store::{self, NodeId};
use crate::ty::Ty;
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;

/// A metavariable: a typed hole solved by unification or matching.
///
/// Identity is the numeric `id`; the `hint` is only for printing.
#[derive(Clone, Debug)]
pub struct MVar {
    id: u32,
    hint: Sym,
}

impl MVar {
    /// Creates a metavariable with the given identity and printing hint.
    pub fn new(id: u32, hint: impl Into<Sym>) -> MVar {
        MVar {
            id,
            hint: hint.into(),
        }
    }

    /// The numeric identity.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// The printing hint.
    pub fn hint(&self) -> &Sym {
        &self.hint
    }
}

impl PartialEq for MVar {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
    }
}
impl Eq for MVar {}
impl std::hash::Hash for MVar {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.id.hash(state)
    }
}
impl PartialOrd for MVar {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for MVar {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.id.cmp(&other.id)
    }
}

impl fmt::Display for MVar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "?{}", self.hint)
    }
}

/// Typing environment for metavariables: the type each hole must fill.
pub type MetaEnv = HashMap<MVar, Ty>;

/// Read access to metavariable types, for code that only looks types
/// up: the η-expander ([`crate::normalize::canon`]) and the unifiers.
/// A [`MetaEnv`] is one; a solver keeping types in its own binding
/// array is another, and need not copy them into a map per problem.
pub trait MetaTypes {
    /// The type of `m`, if declared.
    fn meta_ty(&self, m: &MVar) -> Option<&Ty>;
}

impl MetaTypes for MetaEnv {
    fn meta_ty(&self, m: &MVar) -> Option<&Ty> {
        self.get(m)
    }
}

/// An immutable, annotated, interned term node. Crate-private: the only
/// way to obtain one is through [`TermRef::new`], which interns the term
/// in the thread's [`crate::store`], so id equality coincides with
/// α-equivalence and the cached annotations are correct by construction.
#[derive(Debug)]
pub(crate) struct TermNode {
    pub(crate) term: Term,
    /// Stable store-scoped identity; equal iff α-equivalent modulo hints.
    pub(crate) id: NodeId,
    /// Maximal free de Bruijn index + 1 (`0` = locally closed).
    pub(crate) max_free: u32,
    /// Whether any metavariable occurs in the subterm.
    pub(crate) has_meta: bool,
    /// Whether the subterm is β-normal (no β/projection redex).
    pub(crate) beta_normal: bool,
    /// Stable 128-bit structural content hash of the de Bruijn skeleton
    /// (binder hints excluded), identical across processes and stores —
    /// the cross-process counterpart of `id` (see [`crate::store`]).
    pub(crate) content: u128,
}

impl Drop for TermNode {
    /// Drops the subterms this node held the last reference to one at a
    /// time, instead of by recursion. While its store lives a node's
    /// children are held by the store too, so a drop frees one node. Once
    /// the store has died (with its thread, or an isolated store after
    /// [`StoreHandle::enter`](crate::store::StoreHandle::enter)), a term,
    /// a front-cache or memo pin can hold the last reference to a
    /// 10⁵-deep chain, which a recursive drop overflows a 2 MiB stack on.
    fn drop(&mut self) {
        let mut last = Vec::new();
        take_last_children(std::mem::replace(&mut self.term, Term::Unit), &mut last);
        while let Some(mut node) = last.pop() {
            if let Some(node) = Rc::get_mut(&mut node) {
                take_last_children(std::mem::replace(&mut node.term, Term::Unit), &mut last);
            }
        }
    }
}

/// Queues on `last` the children of `t` it holds the last reference to;
/// the others are released here, which frees nothing.
fn take_last_children(t: Term, last: &mut Vec<Rc<TermNode>>) {
    let mut keep = |c: TermRef| {
        if Rc::strong_count(&c.0) == 1 {
            last.push(c.0);
        }
    };
    match t {
        Term::Lam(_, b) | Term::Fst(b) | Term::Snd(b) => keep(b),
        Term::App(a, b) | Term::Pair(a, b) => {
            keep(a);
            keep(b);
        }
        Term::Var(_) | Term::Const(_) | Term::Meta(_) | Term::Int(_) | Term::Unit => {}
    }
}

/// A shared, annotation-carrying reference to an interned subterm:
/// `Rc<TermNode>`, confined to the thread whose store interned it.
///
/// Cloning is a reference-count bump. Because nodes are hash-consed,
/// equality is a single [`NodeId`] comparison — O(1) α-equivalence —
/// and [`TermRef::ptr_eq`] holds exactly when `==` does. [`Hash`] ignores
/// binder hints (it hashes the skeleton via child ids), so it remains
/// consistent with `==`.
#[derive(Clone)]
pub struct TermRef(Rc<TermNode>);

impl TermRef {
    /// Interns a term in the thread's current store, returning the
    /// canonical node for its α-class: if the same de Bruijn skeleton (modulo binder
    /// hints) was interned before and is still alive, that node is
    /// returned unchanged — a reference-count bump, no allocation, and
    /// the *first* interning's hints win for printing. Otherwise a new
    /// node is allocated, its `max_free`/`has_meta`/`beta_normal`
    /// annotations computed in O(1) from the (already interned) children,
    /// and a fresh [`NodeId`] assigned.
    pub fn new(term: Term) -> TermRef {
        store::intern(term)
    }

    /// The underlying term.
    pub fn term(&self) -> &Term {
        &self.0.term
    }

    /// Maximal free de Bruijn index + 1; `0` means locally closed.
    pub fn max_free(&self) -> u32 {
        self.0.max_free
    }

    /// Whether any metavariable occurs in this subterm. O(1).
    pub fn has_meta(&self) -> bool {
        self.0.has_meta
    }

    /// Whether this subterm is β-normal. O(1).
    pub fn is_beta_normal(&self) -> bool {
        self.0.beta_normal
    }

    /// Pointer identity: do both refs share the very same node? With
    /// interning this coincides with `==` (and with id equality) for all
    /// store-built refs.
    pub fn ptr_eq(a: &TermRef, b: &TermRef) -> bool {
        Rc::ptr_eq(&a.0, &b.0)
    }

    /// The node's stable [`NodeId`], usable as a durable cache key.
    ///
    /// Two live refs from one store have equal ids iff they are
    /// α-equivalent modulo binder hints. Ids are never reused — the
    /// allocator is process-wide — so, unlike a raw address, a key derived
    /// from an id stays sound after the last ref dies: it simply can never
    /// be probed again (see [`crate::store`]).
    pub fn id(&self) -> NodeId {
        self.0.id
    }

    /// The node's stable 128-bit structural content hash.
    ///
    /// Unlike [`TermRef::id`] — which is only stable within a process —
    /// the content hash is computed from the de Bruijn skeleton alone
    /// (binder hints excluded, [`MVar`]s keyed by numeric id), so two
    /// α-equivalent-modulo-hints terms hash identically in *any* process
    /// and *any* store. It is the identity that [`crate::codec`] images
    /// carry across process boundaries; the store computes it once per
    /// α-class at intern time, in O(1) from the children's hashes.
    pub fn content_hash(&self) -> u128 {
        self.0.content
    }

    /// Wraps an existing node without re-interning (crate-internal; used
    /// by the store when handing out snapshot views of its entries).
    pub(crate) fn from_node(node: Rc<TermNode>) -> TermRef {
        TermRef(node)
    }

    /// Extracts the term. The clone is *shallow* — children stay shared —
    /// so this costs a few reference-count bumps, never a deep copy. (The
    /// node is not dismantled in place: while its store lives, the store
    /// keeps a strong entry, so this is not the last reference.)
    pub fn into_term(self) -> Term {
        self.0.term.clone()
    }

    /// Test-only backdoor: builds a node with the **supplied** annotations
    /// instead of computing them, deliberately breaking the
    /// correct-by-construction invariant so tests can prove
    /// [`crate::validate::check_term`] detects corrupted caches. The node
    /// bypasses the interner: it gets a fresh id that is registered in no
    /// store entry, so `check_term`'s interning check can detect it too.
    /// Never call this outside tests.
    #[doc(hidden)]
    pub fn new_with_annotations_for_tests(
        term: Term,
        max_free: u32,
        has_meta: bool,
        beta_normal: bool,
    ) -> TermRef {
        let content = store::content_hash_of(&term);
        TermRef(Rc::new(TermNode {
            term,
            id: store::fresh_unregistered_id(),
            max_free,
            has_meta,
            beta_normal,
            content,
        }))
    }
}

impl From<Term> for TermRef {
    fn from(t: Term) -> TermRef {
        TermRef::new(t)
    }
}

impl std::ops::Deref for TermRef {
    type Target = Term;
    fn deref(&self) -> &Term {
        &self.0.term
    }
}

impl AsRef<Term> for TermRef {
    fn as_ref(&self) -> &Term {
        &self.0.term
    }
}

impl std::borrow::Borrow<Term> for TermRef {
    fn borrow(&self) -> &Term {
        &self.0.term
    }
}

impl PartialEq for TermRef {
    /// α-equivalence in O(1): interning gives every α-class (modulo binder
    /// hints) exactly one live node, so comparing the stable ids decides
    /// α-equivalence outright. (Nodes from the test-only annotation
    /// backdoor sit outside the store under fresh ids and thus compare
    /// unequal to everything but their own clones.)
    fn eq(&self, other: &Self) -> bool {
        self.0.id == other.0.id
    }
}
impl Eq for TermRef {}

impl std::hash::Hash for TermRef {
    /// Delegates to the term's hint-insensitive skeleton hash (shallow:
    /// children contribute their ids), keeping `Hash` consistent with the
    /// [`Borrow<Term>`](std::borrow::Borrow) impl.
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.0.term.hash(state)
    }
}

impl fmt::Debug for TermRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.term.fmt(f)
    }
}

impl fmt::Display for TermRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.term.fmt(f)
    }
}

/// A term of the metalanguage, in de Bruijn representation.
///
/// Subterms are shared, annotated [`TermRef`]s; cloning a `Term` is O(1)
/// (leaf payload copy or two reference-count bumps). Build compound terms
/// through the smart constructors ([`Term::lam`], [`Term::app`], …), which
/// compute annotations bottom-up.
#[derive(Clone, Debug)]
pub enum Term {
    /// A bound variable; `Var(0)` is the innermost binder.
    Var(u32),
    /// A constant declared in a [`crate::sig::Signature`].
    Const(Sym),
    /// A metavariable (pattern variable of a rewrite rule / unification
    /// problem).
    Meta(MVar),
    /// An integer literal of type [`Ty::Int`].
    Int(i64),
    /// λ-abstraction. The [`Sym`] is a printing hint, ignored by equality.
    Lam(Sym, TermRef),
    /// Application.
    App(TermRef, TermRef),
    /// Pairing, of product type.
    Pair(TermRef, TermRef),
    /// First projection.
    Fst(TermRef),
    /// Second projection.
    Snd(TermRef),
    /// The unit value.
    Unit,
}

/// The head of a neutral term (a variable, constant, or metavariable
/// applied to a spine of arguments).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Head {
    /// Bound variable head.
    Var(u32),
    /// Constant head.
    Const(Sym),
    /// Metavariable head.
    Meta(MVar),
}

impl fmt::Display for Head {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Head::Var(i) => write!(f, "#{i}"),
            Head::Const(c) => write!(f, "{c}"),
            Head::Meta(m) => write!(f, "{m}"),
        }
    }
}

impl Term {
    /// Convenience constructor for application.
    pub fn app(f: impl Into<TermRef>, a: impl Into<TermRef>) -> Term {
        Term::App(f.into(), a.into())
    }

    /// Convenience constructor for an iterated application `f a₀ … aₙ`.
    pub fn apps(f: Term, args: impl IntoIterator<Item = Term>) -> Term {
        args.into_iter().fold(f, Term::app)
    }

    /// Convenience constructor for λ-abstraction with a printing hint.
    pub fn lam(hint: impl Into<Sym>, body: impl Into<TermRef>) -> Term {
        Term::Lam(hint.into(), body.into())
    }

    /// Iterated λ-abstraction: `lams(["x","y"], b)` is `λx. λy. b`.
    pub fn lams<S: Into<Sym>>(
        hints: impl IntoIterator<Item = S, IntoIter: DoubleEndedIterator>,
        body: Term,
    ) -> Term {
        hints
            .into_iter()
            .rev()
            .fold(body, |acc, h| Term::lam(h, acc))
    }

    /// Convenience constructor for a constant reference.
    pub fn cnst(name: impl Into<Sym>) -> Term {
        Term::Const(name.into())
    }

    /// Convenience constructor for pairing.
    pub fn pair(a: impl Into<TermRef>, b: impl Into<TermRef>) -> Term {
        Term::Pair(a.into(), b.into())
    }

    /// Convenience constructor for the first projection.
    pub fn fst(t: impl Into<TermRef>) -> Term {
        Term::Fst(t.into())
    }

    /// Convenience constructor for the second projection.
    pub fn snd(t: impl Into<TermRef>) -> Term {
        Term::Snd(t.into())
    }

    /// Maximal free de Bruijn index + 1 (`0` = locally closed). O(1): the
    /// value is combined from the children's cached annotations.
    pub fn max_free(&self) -> u32 {
        match self {
            Term::Var(i) => i + 1,
            Term::Lam(_, b) => b.max_free().saturating_sub(1),
            Term::App(a, b) | Term::Pair(a, b) => a.max_free().max(b.max_free()),
            Term::Fst(b) | Term::Snd(b) => b.max_free(),
            Term::Const(_) | Term::Meta(_) | Term::Int(_) | Term::Unit => 0,
        }
    }

    /// Decomposes `f a₀ … aₙ` into `(f, [a₀, …, aₙ])`; the returned head
    /// term is not itself an application.
    pub fn spine(&self) -> (&Term, Vec<&Term>) {
        let mut args = Vec::new();
        let mut cur = self;
        while let Term::App(f, a) = cur {
            args.push(a.as_ref());
            cur = f;
        }
        args.reverse();
        (cur, args)
    }

    /// Like [`Term::spine`], but exposes the shared [`TermRef`] nodes of
    /// the application chain: returns the head and, innermost-first, one
    /// `(function, argument)` pair per application — `pairs[i].0` holds
    /// `head a₀ … aᵢ₋₁` and `pairs[i].1` is `aᵢ`. Rebuilding a spine
    /// around one changed argument can then reuse the unchanged prefix
    /// node and every sibling argument node directly, skipping the store
    /// lookups a bottom-up re-intern of those subtrees would pay.
    pub fn spine_apps(&self) -> (&Term, Vec<(&TermRef, &TermRef)>) {
        let mut pairs = Vec::new();
        let mut cur = self;
        while let Term::App(f, a) = cur {
            pairs.push((f, a));
            cur = f.as_ref();
        }
        pairs.reverse();
        (cur, pairs)
    }

    /// Like [`Term::spine`] but classifies the head, returning `None` if
    /// the head is not a variable, constant, or metavariable (i.e. the term
    /// is not neutral — a β-redex, literal, pair, or projection head).
    pub fn head_spine(&self) -> Option<(Head, Vec<&Term>)> {
        let (h, args) = self.spine();
        let head = match h {
            Term::Var(i) => Head::Var(*i),
            Term::Const(c) => Head::Const(c.clone()),
            Term::Meta(m) => Head::Meta(m.clone()),
            _ => return None,
        };
        Some((head, args))
    }

    /// Strips leading λ-abstractions, returning the hints and the body.
    pub fn strip_lams(&self) -> (Vec<&Sym>, &Term) {
        let mut hints = Vec::new();
        let mut cur = self;
        while let Term::Lam(h, b) = cur {
            hints.push(h);
            cur = b;
        }
        (hints, cur)
    }

    /// Number of AST nodes.
    pub fn size(&self) -> usize {
        match self {
            Term::Var(_) | Term::Const(_) | Term::Meta(_) | Term::Int(_) | Term::Unit => 1,
            Term::Lam(_, b) | Term::Fst(b) | Term::Snd(b) => 1 + b.size(),
            Term::App(a, b) | Term::Pair(a, b) => 1 + a.size() + b.size(),
        }
    }

    /// Maximum nesting depth.
    pub fn depth(&self) -> usize {
        match self {
            Term::Var(_) | Term::Const(_) | Term::Meta(_) | Term::Int(_) | Term::Unit => 1,
            Term::Lam(_, b) | Term::Fst(b) | Term::Snd(b) => 1 + b.depth(),
            Term::App(a, b) | Term::Pair(a, b) => 1 + a.depth().max(b.depth()),
        }
    }

    /// Whether `Var(k)` (counted from the *outside* of this term) occurs
    /// free. `occurs_free(0)` asks about the variable bound by an
    /// immediately enclosing λ.
    ///
    /// Subtrees whose cached `max_free` rules out the variable are not
    /// traversed.
    pub fn occurs_free(&self, k: u32) -> bool {
        if self.max_free() <= k {
            return false;
        }
        match self {
            Term::Var(i) => *i == k,
            Term::Lam(_, b) => b.occurs_free(k + 1),
            Term::App(a, b) | Term::Pair(a, b) => a.occurs_free(k) || b.occurs_free(k),
            Term::Fst(b) | Term::Snd(b) => b.occurs_free(k),
            Term::Const(_) | Term::Meta(_) | Term::Int(_) | Term::Unit => false,
        }
    }

    /// Whether the term has no free de Bruijn variables (it may still
    /// contain metavariables and constants). O(1) via cached `max_free`.
    pub fn is_locally_closed(&self) -> bool {
        self.max_free() == 0
    }

    /// Whether the term contains any metavariable. O(1): combined from the
    /// children's cached annotations.
    pub fn has_metas(&self) -> bool {
        match self {
            Term::Meta(_) => true,
            Term::Var(_) | Term::Const(_) | Term::Int(_) | Term::Unit => false,
            Term::Lam(_, b) | Term::Fst(b) | Term::Snd(b) => b.has_meta(),
            Term::App(a, b) | Term::Pair(a, b) => a.has_meta() || b.has_meta(),
        }
    }

    /// Collects the metavariables occurring in the term, in first-occurrence
    /// order without duplicates. Meta-free subtrees are skipped via the
    /// cached `has_meta` annotation.
    pub fn metas(&self) -> Vec<MVar> {
        fn go_ref(t: &TermRef, acc: &mut Vec<MVar>) {
            if t.has_meta() {
                go(t, acc);
            }
        }
        fn go(t: &Term, acc: &mut Vec<MVar>) {
            match t {
                Term::Meta(m) => {
                    if !acc.contains(m) {
                        acc.push(m.clone());
                    }
                }
                Term::Var(_) | Term::Const(_) | Term::Int(_) | Term::Unit => {}
                Term::Lam(_, b) | Term::Fst(b) | Term::Snd(b) => go_ref(b, acc),
                Term::App(a, b) | Term::Pair(a, b) => {
                    go_ref(a, acc);
                    go_ref(b, acc);
                }
            }
        }
        let mut acc = Vec::new();
        go(self, &mut acc);
        acc
    }

    /// Collects the constants occurring in the term, in first-occurrence
    /// order without duplicates.
    pub fn constants(&self) -> Vec<Sym> {
        fn go(t: &Term, acc: &mut Vec<Sym>) {
            match t {
                Term::Const(c) => {
                    if !acc.contains(c) {
                        acc.push(c.clone());
                    }
                }
                Term::Var(_) | Term::Meta(_) | Term::Int(_) | Term::Unit => {}
                Term::Lam(_, b) | Term::Fst(b) | Term::Snd(b) => go(b, acc),
                Term::App(a, b) | Term::Pair(a, b) => {
                    go(a, acc);
                    go(b, acc);
                }
            }
        }
        let mut acc = Vec::new();
        go(self, &mut acc);
        acc
    }

    /// Whether the term is β-normal: contains no β-redex `(λx.b) a`, no
    /// projection redex `fst (s, t)` / `snd (s, t)`. O(1): combined from
    /// the children's cached annotations.
    pub fn is_beta_normal(&self) -> bool {
        match self {
            Term::App(f, a) => {
                !matches!(f.as_ref(), Term::Lam(..)) && f.is_beta_normal() && a.is_beta_normal()
            }
            Term::Fst(p) | Term::Snd(p) => {
                !matches!(p.as_ref(), Term::Pair(..)) && p.is_beta_normal()
            }
            Term::Lam(_, b) => b.is_beta_normal(),
            Term::Pair(a, b) => a.is_beta_normal() && b.is_beta_normal(),
            Term::Var(_) | Term::Const(_) | Term::Meta(_) | Term::Int(_) | Term::Unit => true,
        }
    }

    /// α-equivalence (modulo binder hints). With hash-consing this is the
    /// same as `==`: children are compared by stable [`NodeId`], so the
    /// test is O(1) — one id comparison per child — rather than a
    /// traversal. [`Term::alpha_eq_structural`] is the traversal-based
    /// reference implementation the property suite checks this against.
    pub fn alpha_eq(&self, other: &Term) -> bool {
        self == other
    }

    /// Reference implementation of α-equivalence: a full structural
    /// recursion over both terms that never consults node identity,
    /// sharing, or cached annotations. O(term size). Exists to
    /// cross-check the O(1) id-comparison path ([`Term::alpha_eq`], `==`)
    /// in tests and benches; prefer `==` everywhere else.
    pub fn alpha_eq_structural(&self, other: &Term) -> bool {
        match (self, other) {
            (Term::Var(i), Term::Var(j)) => i == j,
            (Term::Const(a), Term::Const(b)) => a == b,
            (Term::Meta(a), Term::Meta(b)) => a == b,
            (Term::Int(a), Term::Int(b)) => a == b,
            (Term::Unit, Term::Unit) => true,
            (Term::Lam(_, a), Term::Lam(_, b)) => a.term().alpha_eq_structural(b.term()),
            (Term::App(f, a), Term::App(g, b)) | (Term::Pair(f, a), Term::Pair(g, b)) => {
                f.term().alpha_eq_structural(g.term()) && a.term().alpha_eq_structural(b.term())
            }
            (Term::Fst(a), Term::Fst(b)) | (Term::Snd(a), Term::Snd(b)) => {
                a.term().alpha_eq_structural(b.term())
            }
            _ => false,
        }
    }

    /// Renames every binder hint using `f`; used by pretty-printing tests
    /// to demonstrate that hints are semantically inert.
    pub fn map_hints(&self, f: &mut impl FnMut(&Sym) -> Sym) -> Term {
        match self {
            Term::Lam(h, b) => Term::lam(f(h), b.map_hints(f)),
            Term::App(a, b) => Term::app(a.map_hints(f), b.map_hints(f)),
            Term::Pair(a, b) => Term::pair(a.map_hints(f), b.map_hints(f)),
            Term::Fst(b) => Term::fst(b.map_hints(f)),
            Term::Snd(b) => Term::snd(b.map_hints(f)),
            _ => self.clone(),
        }
    }

    /// The rigid constant heading this term's application spine, if any,
    /// found without materializing the argument list.
    pub fn rigid_head(&self) -> Option<&Sym> {
        let mut head = self;
        while let Term::App(f, _) = head {
            head = f.term();
        }
        match head {
            Term::Const(c) => Some(c),
            _ => None,
        }
    }

    /// Shallow argument fingerprint of a term headed by a constant: for
    /// each spine argument, its [`Term::rigid_head`] (`None` is a
    /// wildcard). Empty when the term is not headed by a constant. Checked
    /// against a subject's spine arguments by [`fingerprint_admits`].
    pub fn arg_fingerprint(&self) -> Vec<Option<Sym>> {
        match self.spine() {
            (Term::Const(_), args) => args.iter().map(|a| a.rigid_head().cloned()).collect(),
            _ => Vec::new(),
        }
    }
}

/// Whether a pattern's shallow argument fingerprint (see
/// [`Term::arg_fingerprint`]) admits a subject's spine arguments. Only a
/// position holding different rigid constants on the two sides is
/// rejected. That makes skipping sound: substitution and βη-conversion
/// never change the head constant of an application spine, so an argument
/// headed by `c` can only unify with (or match) an argument headed by `c`
/// or by something flexible. Arities are not compared: a mismatch is a
/// typing error, left for the unifier or matcher to report.
pub fn fingerprint_admits(fp: &[Option<Sym>], args: &[&Term]) -> bool {
    fp.iter()
        .zip(args)
        .all(|(want, arg)| match (want, arg.rigid_head()) {
            (Some(c), Some(d)) => c == d,
            _ => true,
        })
}

impl PartialEq for Term {
    /// Structural equality **modulo binder hints** — i.e. α-equivalence.
    ///
    /// Shallow and O(1) in the compound cases: children are interned
    /// [`TermRef`]s, compared by id alone.
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Term::Var(i), Term::Var(j)) => i == j,
            (Term::Const(a), Term::Const(b)) => a == b,
            (Term::Meta(a), Term::Meta(b)) => a == b,
            (Term::Int(a), Term::Int(b)) => a == b,
            (Term::Lam(_, a), Term::Lam(_, b)) => a == b,
            (Term::App(f, a), Term::App(g, b)) => f == g && a == b,
            (Term::Pair(f, a), Term::Pair(g, b)) => f == g && a == b,
            (Term::Fst(a), Term::Fst(b)) => a == b,
            (Term::Snd(a), Term::Snd(b)) => a == b,
            (Term::Unit, Term::Unit) => true,
            _ => false,
        }
    }
}
impl Eq for Term {}

impl std::hash::Hash for Term {
    /// Shallow skeleton hash, consistent with `==`: binder hints are
    /// ignored and children contribute their stable [`NodeId`]s (equal
    /// terms have id-equal children), so hashing is O(1) per node instead
    /// of O(term size). Like the ids themselves, hashes are only
    /// meaningful within one store.
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        std::mem::discriminant(self).hash(state);
        match self {
            Term::Var(i) => i.hash(state),
            Term::Const(c) => c.hash(state),
            Term::Meta(m) => m.hash(state),
            Term::Int(n) => n.hash(state),
            Term::Lam(_, b) => b.id().hash(state),
            Term::App(a, b) | Term::Pair(a, b) => {
                a.id().hash(state);
                b.id().hash(state);
            }
            Term::Fst(b) | Term::Snd(b) => b.id().hash(state),
            Term::Unit => {}
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        crate::print::fmt_term(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn x() -> Term {
        Term::Var(0)
    }

    #[test]
    fn alpha_equivalence_ignores_hints() {
        let a = Term::lam("x", x());
        let b = Term::lam("y", x());
        assert_eq!(a, b);
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut h1 = DefaultHasher::new();
        let mut h2 = DefaultHasher::new();
        a.hash(&mut h1);
        b.hash(&mut h2);
        assert_eq!(h1.finish(), h2.finish());
    }

    #[test]
    fn different_structure_not_equal() {
        assert_ne!(Term::lam("x", x()), Term::lam("x", Term::Var(1)));
        assert_ne!(Term::Int(1), Term::Int(2));
        assert_ne!(Term::cnst("a"), Term::cnst("b"));
        assert_ne!(Term::Unit, Term::Int(0));
    }

    #[test]
    fn spine_roundtrip() {
        let t = Term::apps(Term::cnst("f"), [Term::Int(1), Term::Int(2), Term::Int(3)]);
        let (h, args) = t.spine();
        assert_eq!(h, &Term::cnst("f"));
        assert_eq!(args, vec![&Term::Int(1), &Term::Int(2), &Term::Int(3)]);
        let (head, args2) = t.head_spine().unwrap();
        assert_eq!(head, Head::Const(Sym::new("f")));
        assert_eq!(args2.len(), 3);
    }

    #[test]
    fn spine_apps_exposes_shared_nodes() {
        let t = Term::apps(Term::cnst("f"), [Term::Int(1), Term::Int(2), Term::Int(3)]);
        let (h, pairs) = t.spine_apps();
        assert_eq!(h, &Term::cnst("f"));
        assert_eq!(pairs.len(), 3);
        assert_eq!(pairs[0].0.as_ref(), &Term::cnst("f"));
        assert_eq!(
            pairs[1].0.as_ref(),
            &Term::app(Term::cnst("f"), Term::Int(1))
        );
        assert_eq!(pairs[2].1.as_ref(), &Term::Int(3));
        // Rebuilding around argument 1 reuses the prefix node and the
        // sibling argument node by pointer.
        let rebuilt = Term::App(
            TermRef::new(Term::App(pairs[1].0.clone(), TermRef::new(Term::Int(9)))),
            pairs[2].1.clone(),
        );
        match &rebuilt {
            Term::App(_, a) => assert!(TermRef::ptr_eq(a, pairs[2].1)),
            _ => unreachable!(),
        }
        assert_eq!(
            rebuilt,
            Term::apps(Term::cnst("f"), [Term::Int(1), Term::Int(9), Term::Int(3)])
        );
    }

    #[test]
    fn id_tracks_interned_alpha_class() {
        let a: TermRef = Term::cnst("c").into();
        let b = a.clone();
        // Rebuilding the same skeleton interns to the very same node…
        let c: TermRef = Term::cnst("c").into();
        assert_eq!(a.id(), b.id());
        assert!(TermRef::ptr_eq(&a, &b));
        assert_eq!(a.id(), c.id());
        assert!(TermRef::ptr_eq(&a, &c));
        // …while a different skeleton gets a different id.
        let d: TermRef = Term::cnst("d").into();
        assert_ne!(a.id(), d.id());
        assert!(!TermRef::ptr_eq(&a, &d));
    }

    #[test]
    fn alpha_eq_fast_path_agrees_with_structural() {
        let a = Term::lam("x", Term::app(Term::Var(0), Term::cnst("c")));
        let b = Term::lam("y", Term::app(Term::Var(0), Term::cnst("c")));
        let c = Term::lam("x", Term::app(Term::Var(0), Term::cnst("d")));
        assert!(a.alpha_eq(&b));
        assert!(a.alpha_eq_structural(&b));
        assert!(!a.alpha_eq(&c));
        assert!(!a.alpha_eq_structural(&c));
    }

    #[test]
    fn head_spine_rejects_redex() {
        let redex = Term::app(Term::lam("x", x()), Term::Int(1));
        assert!(redex.head_spine().is_none());
    }

    #[test]
    fn lams_and_strip() {
        let t = Term::lams(["x", "y", "z"], Term::Var(2));
        let (hints, body) = t.strip_lams();
        assert_eq!(hints.len(), 3);
        assert_eq!(hints[0].as_str(), "x");
        assert_eq!(body, &Term::Var(2));
    }

    #[test]
    fn occurs_free_under_binders() {
        // λx. y  where y = Var(1) inside, i.e. Var(0) outside the λ.
        let t = Term::lam("x", Term::Var(1));
        assert!(t.occurs_free(0));
        assert!(!t.occurs_free(1));
        // λx. x does not mention anything free.
        let id = Term::lam("x", x());
        assert!(!id.occurs_free(0));
        assert!(id.is_locally_closed());
        assert!(!t.is_locally_closed());
    }

    #[test]
    fn metas_and_constants_dedup() {
        let m = MVar::new(0, "P");
        let t = Term::apps(
            Term::cnst("and"),
            [Term::Meta(m.clone()), Term::Meta(m.clone())],
        );
        assert_eq!(t.metas(), vec![m]);
        assert_eq!(t.constants(), vec![Sym::new("and")]);
        assert!(t.has_metas());
    }

    #[test]
    fn beta_normal_detection() {
        assert!(Term::lam("x", x()).is_beta_normal());
        let redex = Term::app(Term::lam("x", x()), Term::Unit);
        assert!(!redex.is_beta_normal());
        let proj_redex = Term::fst(Term::pair(Term::Unit, Term::Unit));
        assert!(!proj_redex.is_beta_normal());
        // A redex under a binder is still a redex.
        assert!(!Term::lam("x", redex).is_beta_normal());
    }

    #[test]
    fn size_and_depth() {
        let t = Term::app(Term::lam("x", x()), Term::Unit);
        assert_eq!(t.size(), 4);
        assert_eq!(t.depth(), 3);
    }

    #[test]
    fn mvar_identity_is_id_not_hint() {
        let a = MVar::new(3, "P");
        let b = MVar::new(3, "Q");
        let c = MVar::new(4, "P");
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn map_hints_preserves_equality() {
        let t = Term::lam("x", Term::app(x(), x()));
        let renamed = t.map_hints(&mut |_| Sym::new("fresh"));
        assert_eq!(t, renamed);
    }

    #[test]
    fn annotations_on_construction() {
        // max_free: λx. (0 1 2) has free vars 1 and 2 inside ⇒ 0 and 1
        // outside ⇒ max_free 2.
        let t = Term::lam("x", Term::apps(Term::Var(0), [Term::Var(1), Term::Var(2)]));
        assert_eq!(t.max_free(), 2);
        assert!(!t.is_locally_closed());
        assert!(Term::lam("x", x()).is_locally_closed());
        assert_eq!(Term::cnst("c").max_free(), 0);
        // has_metas propagates.
        let m = Term::Meta(MVar::new(0, "P"));
        assert!(Term::pair(m, Term::Unit).has_metas());
        assert!(!Term::pair(Term::Unit, Term::Unit).has_metas());
    }

    #[test]
    fn termref_equality_and_hash_ignore_hints() {
        // The same skeleton built twice under different hints interns to
        // one node: equal, pointer-identical, and hash-identical.
        let a = TermRef::new(Term::lam("x", Term::app(Term::Var(0), Term::cnst("c"))));
        let b = TermRef::new(Term::lam("y", Term::app(Term::Var(0), Term::cnst("c"))));
        assert!(TermRef::ptr_eq(&a, &b));
        assert_eq!(a, b);
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut h1 = DefaultHasher::new();
        let mut h2 = DefaultHasher::new();
        a.hash(&mut h1);
        b.hash(&mut h2);
        assert_eq!(h1.finish(), h2.finish());
    }

    #[test]
    fn termref_into_term_is_shallow() {
        let shared: TermRef = Term::lam("x", x()).into();
        let t = Term::app(shared.clone(), Term::Unit);
        // Extracting the function position must hand back the same node.
        match &t {
            Term::App(f, _) => assert!(TermRef::ptr_eq(f, &shared)),
            _ => unreachable!(),
        }
        let back = shared.clone().into_term();
        assert_eq!(back, Term::lam("y", x()));
    }

    #[test]
    fn clone_is_shallow_sharing() {
        let t = Term::app(Term::lam("x", x()), Term::cnst("c"));
        let u = t.clone();
        match (&t, &u) {
            (Term::App(f1, a1), Term::App(f2, a2)) => {
                assert!(TermRef::ptr_eq(f1, f2));
                assert!(TermRef::ptr_eq(a1, a2));
            }
            _ => unreachable!(),
        }
    }
}
