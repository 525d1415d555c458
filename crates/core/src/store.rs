//! Sharded, hash-consed term store: every
//! [`TermRef`] is interned here.
//!
//! [`TermRef::new`](crate::term::TermRef::new) computes a shallow
//! structural key over the de Bruijn skeleton of the node — children are
//! identified by their already-assigned [`NodeId`]s, binder hints are
//! ignored — and looks it up in a [`TermStore`]. A hit returns the
//! existing node (a reference-count bump, no allocation), so
//! α-equivalent-modulo-hints subterms share **one** node and the cached
//! annotations (`max_free`/`has_meta`/`beta_normal`) are computed once per
//! distinct term. A miss allocates the node and assigns it the next id
//! from a process-wide monotonic counter.
//!
//! # Concurrency model
//!
//! Since PR 6 the store is **shared between threads**: nodes are
//! `Arc<TermNode>` and the store is split into `SHARDS` independent
//! shards, each a mutex around its slice of the interning map. A shard is
//! selected by the high bits of the skeleton hash, so concurrent interns
//! of unrelated terms take unrelated locks; one intern touches exactly
//! one shard (children are already interned), so there is no lock
//! ordering and no deadlock. Each *thread* additionally keeps a private,
//! lock-free, direct-mapped front cache of `FRONT_SLOTS` recently
//! interned nodes, so steady-state rebuild loops (hereditary
//! substitution, normalization) intern without touching a lock at all.
//!
//! The store is no longer hidden global state: it is an explicit,
//! shareable, `Send + Sync` handle — [`StoreHandle`] — passed around the
//! way `EngineCaches` already is. The thread-local that remains is *just
//! a default*: [`TermRef::new`](crate::term::TermRef::new) interns into
//! the thread's **current** store, which is the process-wide global store
//! unless the thread is inside [`StoreHandle::enter`]. Worker threads
//! that must share an isolated store (tests, batch drivers) capture
//! [`current()`] and `enter` it on the worker.
//!
//! # Stable ids as cache keys
//!
//! `NodeId`s are allocated from one **process-wide** atomic counter
//! shared by every store, so an id is never reused — not by this store,
//! not by an isolated one. Once a class is evicted its id can never be
//! *probed* again (probing requires a live `TermRef` carrying that id —
//! while the class is merely dead-but-cached, rebuilding it resurrects
//! the *same* node and id, never a different class under that id).
//! Downstream caches — the rewrite engine's rule-normal-form cache and
//! root-step memo, [`normalize::CanonCache`](crate::normalize::CanonCache)
//! — therefore key on `NodeId` with no keepalive pinning: a stale entry
//! under a dead id is unreachable garbage, not a soundness hazard, and
//! the caches may outlive any particular engine instance, `normalize`
//! call, or thread.
//!
//! Within one store, two live `TermRef`s have equal ids **iff** they are
//! α-equivalent modulo hints — the O(1) `alpha_eq` fast path. Across
//! *different* stores only the soundness direction survives (equal ids ⇒
//! the same node ⇒ α-equivalent; completeness needs one interning map),
//! which is why terms from an isolated store must not be compared against
//! terms of another store. The default — every thread interning into the
//! global store — gives the full iff process-wide.
//!
//! # Eviction safety under contention
//!
//! Entries are **strong**: a node whose last external `TermRef` dies
//! stays cached, and rebuilding the same skeleton *resurrects* it — same
//! node, same id, no allocation. Dead classes are evicted when a shard
//! grows past its high-water mark. The sweep holds the shard lock and
//! keeps every entry with `Arc::strong_count > 1`. That check is
//! race-free, not merely heuristic: a count of 1 under the shard lock
//! means the map holds the only reference anywhere — every external
//! acquisition path either clones an existing `Arc` (so the count was
//! already ≥ 2: map + the clone source, which is itself a live ref or a
//! front-cache slot) or goes through this shard's lock, which the sweep
//! holds. A concurrent *release* can at worst leave a freshly dead entry
//! looking live for one sweep — it is collected by the next. The same
//! argument covers [`trim`]. Per-thread front caches hold strong refs,
//! which pins at most `FRONT_SLOTS` nodes per thread; every sweep bumps
//! the store's epoch, and a front that observes a stale epoch discards
//! itself on its next probe, so those pins are transient.
//!
//! Because the first interning of an α-class fixes its node, *binder
//! hints are canonicalized*: later constructions of the same skeleton
//! under different hints return the first node, and printing uses the
//! first hints. Hints were already semantically inert (equality, hashing,
//! matching, and rewriting all ignore them); decode/round-trip guarantees
//! hold up to α-equivalence, which is exactly the paper's notion of
//! object-language identity.

pub mod image;

use crate::intern::Sym;
use crate::term::{MVar, Term, TermNode, TermRef};
use std::cell::RefCell;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// Stable, store-scoped identity of an interned term node.
///
/// Ids are assigned from a **process-wide** monotonic counter starting at
/// `1` — shared by the global store and every isolated one — and are
/// **never reused**, so a `NodeId` is a durable cache key: entries
/// recorded under an id that has since died can never be matched by a
/// live term again, no matter which thread probes. `0` is never assigned,
/// so callers may use [`NodeId::SENTINEL`] as a "no node" slot in packed
/// keys.
///
/// Within one store, two **live** [`TermRef`]s
/// carry the same id iff they are α-equivalent modulo binder hints.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(u64);

impl NodeId {
    /// The never-assigned id `0`, usable as a "no node" marker.
    pub const SENTINEL: NodeId = NodeId(0);

    /// The raw id value (`0` only for [`NodeId::SENTINEL`]).
    pub fn get(self) -> u64 {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Counters describing **this thread's** interner traffic; see [`stats`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct InternStats {
    /// Total intern lookups (one per [`TermRef::new`](crate::term::TermRef::new)).
    pub lookups: u64,
    /// Lookups answered by an existing node (no allocation).
    pub hits: u64,
    /// Distinct nodes this thread created (misses; monotonic, ignores
    /// deaths). Every lookup is a hit or creates a node, so
    /// `hits + distinct_nodes == lookups`.
    pub distinct_nodes: u64,
}

impl InternStats {
    /// Fraction of lookups deduplicated to an existing node (`0.0` when no
    /// lookups happened).
    pub fn dedup_ratio(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }

    /// Counter-wise difference `self - earlier`, for per-call deltas
    /// against a snapshot taken before the call.
    pub fn since(&self, earlier: &InternStats) -> InternStats {
        InternStats {
            lookups: self.lookups - earlier.lookups,
            hits: self.hits - earlier.hits,
            distinct_nodes: self.distinct_nodes - earlier.distinct_nodes,
        }
    }
}

/// Shallow structural key of a node: the constructor plus the child
/// [`NodeId`]s. Binder hints are excluded (`Lam` keys on the body only,
/// `Meta` on the numeric id), so the key identifies the α-class modulo
/// hints. O(1) to build and hash because children are already interned.
///
/// Built only on the intern slow path: the hot path hashes and compares
/// the *borrowed* term directly ([`probe_hash`], [`term_matches`]), so a
/// warm rebuild (front or map hit on a `Const`) never pays the `Sym`
/// `Arc` refcount bump that `NodeKey::of` needs for the owned key.
#[derive(PartialEq, Eq, Debug)]
enum NodeKey {
    Var(u32),
    Const(crate::intern::Sym),
    Meta(u32),
    Int(i64),
    Unit,
    Lam(NodeId),
    App(NodeId, NodeId),
    Pair(NodeId, NodeId),
    Fst(NodeId),
    Snd(NodeId),
}

/// Constructor tags shared by [`NodeKey`]'s `Hash` and [`probe_hash`] —
/// the two must stay bit-for-bit identical: the probe hash picks the
/// shard and the map bucket that the owned key is then inserted under.
mod tag {
    pub const VAR: u8 = 0;
    pub const CONST: u8 = 1;
    pub const META: u8 = 2;
    pub const INT: u8 = 3;
    pub const UNIT: u8 = 4;
    pub const LAM: u8 = 5;
    pub const APP: u8 = 6;
    pub const PAIR: u8 = 7;
    pub const FST: u8 = 8;
    pub const SND: u8 = 9;
}

impl Hash for NodeKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            NodeKey::Var(i) => {
                state.write_u8(tag::VAR);
                state.write_u32(*i);
            }
            NodeKey::Const(c) => {
                state.write_u8(tag::CONST);
                c.hash(state);
            }
            NodeKey::Meta(m) => {
                state.write_u8(tag::META);
                state.write_u32(*m);
            }
            NodeKey::Int(n) => {
                state.write_u8(tag::INT);
                state.write_i64(*n);
            }
            NodeKey::Unit => state.write_u8(tag::UNIT),
            NodeKey::Lam(b) => {
                state.write_u8(tag::LAM);
                state.write_u64(b.0);
            }
            NodeKey::App(f, a) => {
                state.write_u8(tag::APP);
                state.write_u64(f.0);
                state.write_u64(a.0);
            }
            NodeKey::Pair(a, b) => {
                state.write_u8(tag::PAIR);
                state.write_u64(a.0);
                state.write_u64(b.0);
            }
            NodeKey::Fst(p) => {
                state.write_u8(tag::FST);
                state.write_u64(p.0);
            }
            NodeKey::Snd(p) => {
                state.write_u8(tag::SND);
                state.write_u64(p.0);
            }
        }
    }
}

impl NodeKey {
    fn of_view(v: &NodeView<'_>) -> NodeKey {
        match v {
            NodeView::Var(i) => NodeKey::Var(*i),
            NodeView::Const(c) => NodeKey::Const((*c).clone()),
            NodeView::Meta(m) => NodeKey::Meta(m.id()),
            NodeView::Int(n) => NodeKey::Int(*n),
            NodeView::Unit => NodeKey::Unit,
            NodeView::Lam(_, b) => NodeKey::Lam(b.id()),
            NodeView::App(f, a) => NodeKey::App(f.id(), a.id()),
            NodeView::Pair(a, b) => NodeKey::Pair(a.id(), b.id()),
            NodeView::Fst(p) => NodeKey::Fst(p.id()),
            NodeView::Snd(p) => NodeKey::Snd(p.id()),
        }
    }

    fn of(t: &Term) -> NodeKey {
        match t {
            Term::Var(i) => NodeKey::Var(*i),
            Term::Const(c) => NodeKey::Const(c.clone()),
            Term::Meta(m) => NodeKey::Meta(m.id()),
            Term::Int(n) => NodeKey::Int(*n),
            Term::Unit => NodeKey::Unit,
            Term::Lam(_, b) => NodeKey::Lam(b.id()),
            Term::App(f, a) => NodeKey::App(f.id(), a.id()),
            Term::Pair(a, b) => NodeKey::Pair(a.id(), b.id()),
            Term::Fst(p) => NodeKey::Fst(p.id()),
            Term::Snd(p) => NodeKey::Snd(p.id()),
        }
    }
}

/// The borrowed twin of hashing `NodeKey::of(t)`: same tags, same write
/// sequence, same [`FxHasher`] — asserted bit-for-bit by a unit test —
/// but no `Sym` clone and no key allocation on the lookup path.
fn probe_hash(t: &Term) -> u64 {
    let mut h = FxHasher::default();
    match t {
        Term::Var(i) => {
            h.write_u8(tag::VAR);
            h.write_u32(*i);
        }
        Term::Const(c) => {
            h.write_u8(tag::CONST);
            c.hash(&mut h);
        }
        Term::Meta(m) => {
            h.write_u8(tag::META);
            h.write_u32(m.id());
        }
        Term::Int(n) => {
            h.write_u8(tag::INT);
            h.write_i64(*n);
        }
        Term::Unit => h.write_u8(tag::UNIT),
        Term::Lam(_, b) => {
            h.write_u8(tag::LAM);
            h.write_u64(b.id().0);
        }
        Term::App(f, a) => {
            h.write_u8(tag::APP);
            h.write_u64(f.id().0);
            h.write_u64(a.id().0);
        }
        Term::Pair(a, b) => {
            h.write_u8(tag::PAIR);
            h.write_u64(a.id().0);
            h.write_u64(b.id().0);
        }
        Term::Fst(p) => {
            h.write_u8(tag::FST);
            h.write_u64(p.id().0);
        }
        Term::Snd(p) => {
            h.write_u8(tag::SND);
            h.write_u64(p.id().0);
        }
    }
    h.finish()
}

/// Does `t`'s skeleton denote `node`? Shallow — children compare by id —
/// so O(1); verifies front-cache candidates without building a key.
fn term_matches(t: &Term, node: &TermNode) -> bool {
    match (t, &node.term) {
        (Term::Var(i), Term::Var(j)) => i == j,
        (Term::Const(c), Term::Const(d)) => c == d,
        (Term::Meta(m), Term::Meta(n)) => m.id() == n.id(),
        (Term::Int(a), Term::Int(b)) => a == b,
        (Term::Unit, Term::Unit) => true,
        (Term::Lam(_, b), Term::Lam(_, b2)) => b.id() == b2.id(),
        (Term::App(f, a), Term::App(f2, a2)) => f.id() == f2.id() && a.id() == a2.id(),
        (Term::Pair(a, b), Term::Pair(a2, b2)) => a.id() == a2.id() && b.id() == b2.id(),
        (Term::Fst(p), Term::Fst(p2)) => p.id() == p2.id(),
        (Term::Snd(p), Term::Snd(p2)) => p.id() == p2.id(),
        _ => false,
    }
}

/// A *borrowed* description of one node to intern, with the children
/// already interned: the session twin of passing an owned [`Term`] to
/// [`intern`]. On a cache hit nothing is cloned — no child `Arc` bump,
/// no `Sym` refcount touch — which keeps the kernel traversals and the
/// parser refcount-lean: the owned `Term` (and its clone/drop churn) is
/// built only on a genuine miss, when the node must be allocated anyway.
pub(crate) enum NodeView<'a> {
    /// `Term::Var`.
    Var(u32),
    /// `Term::Const`.
    Const(&'a Sym),
    /// `Term::Meta`.
    Meta(&'a MVar),
    /// `Term::Int`.
    Int(i64),
    /// `Term::Unit`.
    Unit,
    /// `Term::Lam` — hint plus interned body.
    Lam(&'a Sym, &'a TermRef),
    /// `Term::App`.
    App(&'a TermRef, &'a TermRef),
    /// `Term::Pair`.
    Pair(&'a TermRef, &'a TermRef),
    /// `Term::Fst`.
    Fst(&'a TermRef),
    /// `Term::Snd`.
    Snd(&'a TermRef),
}

impl<'a> NodeView<'a> {
    /// The view of one owned node whose children are already interned:
    /// lets a builder that holds a shallow [`Term`] intern it through
    /// [`InternSession::intern_view`] without moving anything into the
    /// store on a hit.
    pub(crate) fn of(t: &'a Term) -> NodeView<'a> {
        match t {
            Term::Var(i) => NodeView::Var(*i),
            Term::Const(c) => NodeView::Const(c),
            Term::Meta(m) => NodeView::Meta(m),
            Term::Int(n) => NodeView::Int(*n),
            Term::Unit => NodeView::Unit,
            Term::Lam(h, b) => NodeView::Lam(h, b),
            Term::App(f, a) => NodeView::App(f, a),
            Term::Pair(a, b) => NodeView::Pair(a, b),
            Term::Fst(p) => NodeView::Fst(p),
            Term::Snd(p) => NodeView::Snd(p),
        }
    }

    /// The owned term this view denotes; built only on the intern miss
    /// path (children are cloned — an `Arc` bump each — because the new
    /// node must own them).
    fn to_term(&self) -> Term {
        match self {
            NodeView::Var(i) => Term::Var(*i),
            NodeView::Const(c) => Term::Const((*c).clone()),
            NodeView::Meta(m) => Term::Meta((*m).clone()),
            NodeView::Int(n) => Term::Int(*n),
            NodeView::Unit => Term::Unit,
            NodeView::Lam(h, b) => Term::Lam((*h).clone(), (*b).clone()),
            NodeView::App(f, a) => Term::App((*f).clone(), (*a).clone()),
            NodeView::Pair(a, b) => Term::Pair((*a).clone(), (*b).clone()),
            NodeView::Fst(p) => Term::Fst((*p).clone()),
            NodeView::Snd(p) => Term::Snd((*p).clone()),
        }
    }
}

/// [`probe_hash`] for a borrowed [`NodeView`]: same tags, same write
/// sequence, same hasher as `NodeKey`'s `Hash` — the view denotes the
/// same skeleton its `to_term()` would, so the three hash paths must
/// agree bit for bit (unit-test asserted alongside the term probe).
fn view_hash(v: &NodeView<'_>) -> u64 {
    let mut h = FxHasher::default();
    match v {
        NodeView::Var(i) => {
            h.write_u8(tag::VAR);
            h.write_u32(*i);
        }
        NodeView::Const(c) => {
            h.write_u8(tag::CONST);
            c.hash(&mut h);
        }
        NodeView::Meta(m) => {
            h.write_u8(tag::META);
            h.write_u32(m.id());
        }
        NodeView::Int(n) => {
            h.write_u8(tag::INT);
            h.write_i64(*n);
        }
        NodeView::Unit => h.write_u8(tag::UNIT),
        NodeView::Lam(_, b) => {
            h.write_u8(tag::LAM);
            h.write_u64(b.id().get());
        }
        NodeView::App(f, a) => {
            h.write_u8(tag::APP);
            h.write_u64(f.id().get());
            h.write_u64(a.id().get());
        }
        NodeView::Pair(a, b) => {
            h.write_u8(tag::PAIR);
            h.write_u64(a.id().get());
            h.write_u64(b.id().get());
        }
        NodeView::Fst(p) => {
            h.write_u8(tag::FST);
            h.write_u64(p.id().get());
        }
        NodeView::Snd(p) => {
            h.write_u8(tag::SND);
            h.write_u64(p.id().get());
        }
    }
    h.finish()
}

/// Does the view's skeleton denote `node`? The borrowed twin of
/// [`term_matches`], shallow and `Sym`-refcount-free.
fn view_matches(v: &NodeView<'_>, node: &TermNode) -> bool {
    match (v, &node.term) {
        (NodeView::Var(i), Term::Var(j)) => *i == *j,
        (NodeView::Const(c), Term::Const(d)) => *c == d,
        (NodeView::Meta(m), Term::Meta(n)) => m.id() == n.id(),
        (NodeView::Int(a), Term::Int(b)) => *a == *b,
        (NodeView::Unit, Term::Unit) => true,
        (NodeView::Lam(_, b), Term::Lam(_, b2)) => b.id() == b2.id(),
        (NodeView::App(f, a), Term::App(f2, a2)) => f.id() == f2.id() && a.id() == a2.id(),
        (NodeView::Pair(a, b), Term::Pair(a2, b2)) => a.id() == a2.id() && b.id() == b2.id(),
        (NodeView::Fst(p), Term::Fst(p2)) => p.id() == p2.id(),
        (NodeView::Snd(p), Term::Snd(p2)) => p.id() == p2.id(),
        _ => false,
    }
}

/// Vendored Fx-style hasher (the `rustc-hash` recurrence): per 8-byte
/// word, `hash = (hash.rotate_left(5) ^ word) * K`. Interning sits on the
/// hot path of *every* term construction, where SipHash's per-lookup cost
/// would be a measurable tax; `NodeKey`s are tiny fixed-shape values
/// (discriminant + one or two ids), for which this mix is both fast and
/// well distributed. Not DoS-resistant — fine for a process-internal
/// table keyed by our own ids.
const FX_K: u64 = 0x51_7c_c1_b7_27_22_0a_95;

#[derive(Default)]
pub(crate) struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            // Fold the length in so "ab" and "ab\0" differ.
            self.add(u64::from_le_bytes(buf) ^ (rest.len() as u64) << 56);
        }
    }
    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(n as u64)
    }
    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add(n as u64)
    }
    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64)
    }
    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n)
    }
    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64)
    }
    #[inline]
    fn write_i64(&mut self, n: i64) {
        self.add(n as u64)
    }
}

#[derive(Clone, Default, Debug)]
pub(crate) struct FxBuild;

impl BuildHasher for FxBuild {
    type Hasher = FxHasher;
    #[inline]
    fn build_hasher(&self) -> FxHasher {
        FxHasher::default()
    }
}

/// Seed of the vendored 128-bit content hash (the first 32 hex digits of
/// π's fractional part — a "nothing up my sleeve" constant). Fixed, never
/// randomized: content hashes must agree across processes.
const CH_SEED: u128 = 0x243F_6A88_85A3_08D3_1319_8A2E_0370_7344;

/// Odd 128-bit multiplier of the content-hash mixer (the 128-bit golden
/// gamma, ⌊2¹²⁸/φ⌋ rounded to odd — the multiplier family used by
/// SplitMix-style generators).
const CH_MULT: u128 = 0x9E37_79B9_7F4A_7C15_F39C_C060_5CED_C835;

/// One step of the keyed multiply–rotate–xorshift mix behind
/// [`content_hash_of`]: full-width 128-bit state, so each step is
/// invertible (rotate and xorshift are bijections, the multiplier is odd)
/// and no structure is lost between steps. Also used by
/// [`crate::codec`] to fold per-node hashes into a pool digest.
#[inline]
pub(crate) const fn ch_mix(h: u128, w: u128) -> u128 {
    let h = (h.rotate_left(29) ^ w).wrapping_mul(CH_MULT);
    h ^ (h >> 61)
}

/// Folds a byte string (a constant name) into a content-hash state:
/// little-endian 16-byte words, with the length xored into the final
/// word so `"ab"` and `"ab\0"` differ.
fn ch_bytes(mut h: u128, bytes: &[u8]) -> u128 {
    let mut chunks = bytes.chunks_exact(16);
    for chunk in &mut chunks {
        h = ch_mix(h, u128::from_le_bytes(chunk.try_into().unwrap()));
    }
    let rest = chunks.remainder();
    let mut buf = [0u8; 16];
    buf[..rest.len()].copy_from_slice(rest);
    ch_mix(h, u128::from_le_bytes(buf) ^ ((bytes.len() as u128) << 120))
}

/// The stable 128-bit structural content hash of a term whose children
/// are already interned (and so already carry their hashes): one mix
/// chain over the constructor tag and the children's **content hashes**
/// — never their process-local ids — so the result depends only on the
/// de Bruijn skeleton. Binder hints are excluded and `Meta` is keyed by
/// numeric id, mirroring [`NodeKey`]: content-hash equality is meant to
/// coincide with id equality, store by store.
///
/// O(1) per node. Collision stance: 128 keyed bits make accidental
/// collisions vanishingly unlikely (~2⁻⁶⁴ birthday bound at 2³² nodes),
/// and the codec never *relies* on that — images re-intern structurally
/// and use the hash only as an integrity cross-check (see
/// [`crate::codec`]).
pub(crate) fn content_hash_of(t: &Term) -> u128 {
    let h = CH_SEED;
    match t {
        Term::Var(i) => ch_mix(ch_mix(h, 1), *i as u128),
        Term::Const(c) => ch_bytes(ch_mix(h, 2), c.as_str().as_bytes()),
        Term::Meta(m) => ch_mix(ch_mix(h, 3), m.id() as u128),
        // `as u128` sign-extends, so the map `i64 → u128` is injective.
        Term::Int(n) => ch_mix(ch_mix(h, 4), *n as u128),
        Term::Unit => ch_mix(h, 5),
        Term::Lam(_, b) => ch_mix(ch_mix(h, 6), b.content_hash()),
        Term::App(f, a) => ch_mix(ch_mix(ch_mix(h, 7), f.content_hash()), a.content_hash()),
        Term::Pair(a, b) => ch_mix(ch_mix(ch_mix(h, 8), a.content_hash()), b.content_hash()),
        Term::Fst(p) => ch_mix(ch_mix(h, 9), p.content_hash()),
        Term::Snd(p) => ch_mix(ch_mix(h, 10), p.content_hash()),
    }
}

/// Number of lock shards. One intern takes exactly one shard lock (its
/// children are already interned), chosen by the top bits of the skeleton
/// hash, so threads working on unrelated terms contend only by hash
/// accident.
const SHARDS: usize = 16;

/// Evict dead classes no earlier than this aggregate map size (keeps tiny
/// workloads eviction-free). Each shard sweeps independently at
/// `MIN_SWEEP / SHARDS`.
const MIN_SWEEP: usize = 1 << 12;

/// Per-shard eviction floor.
const SHARD_MIN_SWEEP: usize = MIN_SWEEP / SHARDS;

/// Slots in each thread's private direct-mapped front cache (32 KiB of
/// pointers). Larger than PR 5's 8 KiB: a front conflict-miss now costs a
/// shard `Mutex` round-trip instead of a same-`RefCell` map probe, so
/// buying a lower miss rate with one more cache level of footprint is a
/// clear win on rebuild-heavy workloads (terms of ~2k distinct subterms
/// thrash 1k slots).
const FRONT_SLOTS: usize = 1 << 12;

/// One shard's slice of the interning map, plus its private high-water
/// mark; both live behind the shard mutex, so the sweep condition and the
/// sweep itself are atomic with respect to concurrent interns.
#[derive(Debug)]
struct Tables {
    map: HashMap<NodeKey, Arc<TermNode>, FxBuild>,
    sweep_at: usize,
}

#[derive(Debug)]
struct Shard {
    tables: Mutex<Tables>,
}

/// Ignore mutex poisoning: a shard critical section only performs
/// exception-safe `HashMap` operations (probe, insert, retain), so the
/// tables are consistent even if a thread panicked mid-intern; refusing
/// all further interning would turn one test panic into a cascade.
fn lock(shard: &Shard) -> MutexGuard<'_, Tables> {
    shard.tables.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A sharded, lock-striped, hash-consed interner, shared between threads
/// through [`StoreHandle`]. Entries are **strong**: a class whose
/// external refs all died stays cached until its shard grows past the
/// high-water mark, so an immediate rebuild of the same skeleton is a
/// pure map hit — same node, same id, no allocation. On growth past the
/// mark, entries with `strong_count == 1` (only the store holds them) are
/// evicted and the mark resets to twice the live size, making eviction
/// amortized O(1) per insertion and memory proportional to the live term
/// graph (plus the bounded per-thread front-cache pins; see the module
/// docs).
#[derive(Debug)]
pub struct TermStore {
    shards: [Shard; SHARDS],
    /// Distinguishes stores for the per-thread front caches (never
    /// reused; `0` is the "no store" tag of an empty front).
    store_token: u64,
    /// Bumped by every sweep/trim; fronts that observe a stale epoch
    /// discard themselves, releasing their pins.
    sweep_epoch: AtomicU64,
}

/// Process-wide [`NodeId`] allocator, shared by **all** stores so ids are
/// unique across the global store and every isolated one.
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// Allocator for [`TermStore::store_token`] (`0` reserved for "none").
static NEXT_STORE_TOKEN: AtomicU64 = AtomicU64::new(1);

/// The process-wide default store.
static GLOBAL: OnceLock<Arc<TermStore>> = OnceLock::new();

fn global_store() -> &'static Arc<TermStore> {
    GLOBAL.get_or_init(|| Arc::new(TermStore::new()))
}

impl TermStore {
    fn new() -> TermStore {
        TermStore {
            shards: std::array::from_fn(|_| Shard {
                tables: Mutex::new(Tables {
                    map: HashMap::with_hasher(FxBuild),
                    sweep_at: SHARD_MIN_SWEEP,
                }),
            }),
            store_token: NEXT_STORE_TOKEN.fetch_add(1, Ordering::Relaxed),
            sweep_epoch: AtomicU64::new(0),
        }
    }

    fn fresh_id() -> NodeId {
        NodeId(NEXT_ID.fetch_add(1, Ordering::Relaxed))
    }

    /// The slow path: probe-or-insert in the owning shard. `front_miss`
    /// is true when the caller's front cache was consulted and missed
    /// (i.e. the map hit still counts as a hit for the stats).
    fn intern_in_shard(&self, key: NodeKey, hash: u64, term: Term) -> (Arc<TermNode>, bool) {
        let shard = &self.shards[(hash >> 60) as usize & (SHARDS - 1)];
        let mut guard = lock(shard);
        let tables = &mut *guard;
        let mut missed = false;
        // Single-hash probe-or-insert: the miss path must not hash twice.
        let node = match tables.map.entry(key) {
            Entry::Occupied(e) => Arc::clone(e.get()),
            Entry::Vacant(e) => {
                missed = true;
                let node = Arc::new(TermNode {
                    id: TermStore::fresh_id(),
                    max_free: term.max_free(),
                    has_meta: term.has_metas(),
                    beta_normal: term.is_beta_normal(),
                    content: content_hash_of(&term),
                    term,
                });
                e.insert(Arc::clone(&node));
                node
            }
        };
        if missed && tables.map.len() >= tables.sweep_at {
            // Evicting a dead class is always sound: without a live
            // external ref its id cannot be probed, so a later rebuild
            // under a fresh id can never alias it. `strong_count == 1`
            // under the shard lock *means* dead — see the module docs for
            // the race-freedom argument. Entry drops release child refs,
            // which may turn further entries dead — they go in a later
            // sweep.
            tables.map.retain(|_, node| Arc::strong_count(node) > 1);
            tables.sweep_at = (tables.map.len() * 2).max(SHARD_MIN_SWEEP);
            self.sweep_epoch.fetch_add(1, Ordering::Relaxed);
        }
        (node, missed)
    }

    /// [`TermStore::intern_in_shard`] for a borrowed [`NodeView`]: the
    /// owned `Term` (with its child `Arc` clones) is materialized only
    /// inside the vacant arm, where the node must own its children anyway.
    fn intern_view_in_shard(&self, hash: u64, v: &NodeView<'_>) -> (Arc<TermNode>, bool) {
        let shard = &self.shards[(hash >> 60) as usize & (SHARDS - 1)];
        let mut guard = lock(shard);
        let tables = &mut *guard;
        let mut missed = false;
        let node = match tables.map.entry(NodeKey::of_view(v)) {
            Entry::Occupied(e) => Arc::clone(e.get()),
            Entry::Vacant(e) => {
                missed = true;
                let term = v.to_term();
                let node = Arc::new(TermNode {
                    id: TermStore::fresh_id(),
                    max_free: term.max_free(),
                    has_meta: term.has_metas(),
                    beta_normal: term.is_beta_normal(),
                    content: content_hash_of(&term),
                    term,
                });
                e.insert(Arc::clone(&node));
                node
            }
        };
        if missed && tables.map.len() >= tables.sweep_at {
            tables.map.retain(|_, node| Arc::strong_count(node) > 1);
            tables.sweep_at = (tables.map.len() * 2).max(SHARD_MIN_SWEEP);
            self.sweep_epoch.fetch_add(1, Ordering::Relaxed);
        }
        (node, missed)
    }

    /// Evicts every dead class *now* and shrinks each shard to its
    /// smallest footprint.
    fn trim_now(&self) {
        for shard in &self.shards {
            let mut guard = lock(shard);
            let tables = &mut *guard;
            tables.map.retain(|_, node| Arc::strong_count(node) > 1);
            tables.map.shrink_to_fit();
            tables.sweep_at = (tables.map.len() * 2).max(SHARD_MIN_SWEEP);
        }
        self.sweep_epoch.fetch_add(1, Ordering::Relaxed);
    }

    /// Total number of cached classes (live + dead-but-cached), summed
    /// over the shards. Diagnostic only: the value is stale the moment a
    /// concurrent intern lands.
    fn len(&self) -> usize {
        self.shards.iter().map(|s| lock(s).map.len()).sum()
    }

    /// Every cached class (live *and* dead-but-cached), sorted by id —
    /// the raw material of a warm image (see [`image`]). The per-shard
    /// locks are taken one at a time, so the snapshot is only
    /// shard-atomic; image writers run on a quiescent store.
    fn snapshot(&self) -> Vec<Arc<TermNode>> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let guard = lock(shard);
            out.extend(guard.map.values().cloned());
        }
        out.sort_by_key(|n| n.id);
        out
    }
}

/// An explicit, shareable (`Send + Sync + Clone`) handle to a
/// [`TermStore`]. Cloning shares the store; dropping the last handle (and
/// last interned node holding it alive — nodes do not point back at the
/// store) frees it.
///
/// The handle is how the store crosses threads without hidden global
/// state: a batch driver captures [`current()`] on the coordinating
/// thread and [`StoreHandle::enter`]s it on every worker, so the workers
/// intern into the same maps and the "same id ⇔ α-equivalent" invariant
/// holds across all of them.
#[derive(Clone, Debug)]
pub struct StoreHandle(Arc<TermStore>);

impl StoreHandle {
    /// The process-wide default store — what every thread uses unless it
    /// is inside [`StoreHandle::enter`].
    pub fn global() -> StoreHandle {
        StoreHandle(Arc::clone(global_store()))
    }

    /// A fresh, empty store, fully independent of the global one except
    /// for the shared [`NodeId`] allocator (so ids never collide across
    /// stores). For tests that depend on eviction timing and for bench
    /// heap hygiene; terms interned here must not be compared against
    /// terms of other stores (see the module docs).
    pub fn isolated() -> StoreHandle {
        StoreHandle(Arc::new(TermStore::new()))
    }

    /// Runs `f` with this store as the thread's current store, restoring
    /// the previous current store afterwards (also on unwind). All
    /// interning inside `f` — every [`TermRef::new`](crate::term::TermRef::new),
    /// every smart constructor — lands in this store.
    pub fn enter<T>(&self, f: impl FnOnce() -> T) -> T {
        struct Restore(Option<StoreHandle>);
        impl Drop for Restore {
            fn drop(&mut self) {
                let prev = self.0.take();
                CTX.with(|ctx| ctx.borrow_mut().current = prev);
            }
        }
        let prev = CTX.with(|ctx| ctx.borrow_mut().current.replace(self.clone()));
        let _restore = Restore(prev);
        f()
    }

    /// Do two handles share one store?
    pub fn same_store(a: &StoreHandle, b: &StoreHandle) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }

    /// Total number of cached classes (live + dead-but-cached) right now.
    /// Diagnostic: stale as soon as another thread interns.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the store currently caches no classes at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// This thread's interner-facing state: the current store override, the
/// private front cache, and the traffic counters — one `RefCell` so the
/// hot path pays a single thread-local access and borrow.
struct ThreadCtx {
    /// `None` means "the global store".
    current: Option<StoreHandle>,
    front: Front,
    lookups: u64,
    hits: u64,
    distinct: u64,
}

/// A per-thread, lock-free, direct-mapped cache of recently interned
/// nodes, validated against the store it was filled from (`store` token)
/// and the store's sweep epoch. Any node found here is guaranteed still
/// to be in the store's map — the front's own strong ref keeps its
/// `strong_count` above 1 through every sweep — so a front hit never
/// resurrects an evicted class under a stale id. The epoch check is a
/// memory bound, not a correctness gate: it makes the front drop its pins
/// soon after a sweep.
struct Front {
    /// `0` = unattached.
    store: u64,
    epoch: u64,
    slots: Vec<Option<Arc<TermNode>>>,
}

impl Front {
    const fn empty() -> Front {
        Front {
            store: 0,
            epoch: 0,
            slots: Vec::new(),
        }
    }

    fn reset(&mut self, store: u64, epoch: u64) {
        self.store = store;
        self.epoch = epoch;
        self.slots.clear();
        self.slots.resize(FRONT_SLOTS, None);
    }

    fn invalidate(&mut self) {
        self.store = 0;
        self.slots = Vec::new();
    }
}

thread_local! {
    static CTX: RefCell<ThreadCtx> = const {
        RefCell::new(ThreadCtx {
            current: None,
            front: Front::empty(),
            lookups: 0,
            hits: 0,
            distinct: 0,
        })
    };
}

/// An open interner session: the thread-local context (current store,
/// front cache, counters) borrowed **once** for a whole batch of
/// interns, instead of once per node: one `CTX` access per traversal,
/// one [`InternSession::intern_view`] per node it builds.
///
/// While a session is open the thread context stays mutably borrowed, so
/// code running inside [`with_session`] must not re-enter the store —
/// no [`TermRef::new`](crate::term::TermRef::new), no smart
/// constructors, no [`StoreHandle::enter`] — only the session's own
/// methods. The callers are the kernel's session-threaded traversals
/// ([`crate::subst`], [`crate::normalize`]) and the term parser
/// ([`crate::parse`]); both observe that discipline by construction —
/// they only walk already-interned children (interning any fresh root
/// *before* opening the session) or source tokens.
pub(crate) struct InternSession<'a> {
    store: &'a TermStore,
    front: &'a mut Front,
    lookups: &'a mut u64,
    hits: &'a mut u64,
    distinct: &'a mut u64,
}

/// Opens an interner session on the thread's current store and runs `f`
/// inside it. See [`InternSession`] for the re-entrancy contract.
pub(crate) fn with_session<R>(f: impl FnOnce(&mut InternSession<'_>) -> R) -> R {
    CTX.with(|ctx| {
        let mut borrow = ctx.borrow_mut();
        let ThreadCtx {
            current,
            front,
            lookups,
            hits,
            distinct,
        } = &mut *borrow;
        let store: &TermStore = match current {
            Some(h) => &h.0,
            None => global_store(),
        };
        f(&mut InternSession {
            store,
            front,
            lookups,
            hits,
            distinct,
        })
    })
}

impl InternSession<'_> {
    /// Interns one node described by a borrowed view (children already
    /// interned). The hot path — a front hit — clones exactly one `Arc`
    /// (the returned node) and touches no child or `Sym` refcount.
    pub(crate) fn intern_view(&mut self, v: &NodeView<'_>) -> TermRef {
        *self.lookups += 1;
        let store = self.store;
        let hash = view_hash(v);
        let slot = (hash as usize) & (FRONT_SLOTS - 1);
        let epoch = store.sweep_epoch.load(Ordering::Relaxed);
        if self.front.store != store.store_token || self.front.epoch != epoch {
            self.front.reset(store.store_token, epoch);
        } else if let Some(node) = &self.front.slots[slot] {
            if view_matches(v, node) {
                *self.hits += 1;
                return TermRef::from_node(Arc::clone(node));
            }
        }
        let (node, missed) = store.intern_view_in_shard(hash, v);
        if missed {
            *self.distinct += 1;
        } else {
            *self.hits += 1;
        }
        // Publish to the front only if no sweep interleaved (a stale
        // front must discard itself wholesale on the next probe, and a
        // fresh entry tagged with the old epoch would survive that).
        if store.sweep_epoch.load(Ordering::Relaxed) == epoch {
            self.front.slots[slot] = Some(Arc::clone(&node));
        }
        TermRef::from_node(node)
    }

    /// Interns an owned term — the classic single-node path, shared by
    /// [`intern`] so both entry points run identical probe/publish logic.
    fn intern_owned(&mut self, term: Term) -> Arc<TermNode> {
        *self.lookups += 1;
        let store = self.store;
        // Borrowed probe: hash and front-match the term itself; the owned
        // key (with its `Sym` clone for `Const`) is built only after both
        // caches missed, off the warm-rebuild hot path.
        let hash = probe_hash(&term);
        let slot = (hash as usize) & (FRONT_SLOTS - 1);
        let epoch = store.sweep_epoch.load(Ordering::Relaxed);
        if self.front.store != store.store_token || self.front.epoch != epoch {
            self.front.reset(store.store_token, epoch);
        } else if let Some(node) = &self.front.slots[slot] {
            if term_matches(&term, node) {
                *self.hits += 1;
                return Arc::clone(node);
            }
        }
        let (node, missed) = store.intern_in_shard(NodeKey::of(&term), hash, term);
        if missed {
            *self.distinct += 1;
        } else {
            *self.hits += 1;
        }
        if store.sweep_epoch.load(Ordering::Relaxed) == epoch {
            self.front.slots[slot] = Some(Arc::clone(&node));
        }
        node
    }

    /// Token of the store this session interns into. Keys the per-thread
    /// operation memo ([`crate::opmemo`]) so cached results never leak
    /// across a [`StoreHandle::enter`] switch.
    pub(crate) fn store_token(&self) -> u64 {
        self.store.store_token
    }
}

/// Interns `term` in the thread's current store; called by
/// [`TermRef::new`](crate::term::TermRef::new).
pub(crate) fn intern(term: Term) -> Arc<TermNode> {
    with_session(|s| s.intern_owned(term))
}

/// A fresh id that is *not* associated with any store entry, for the
/// test-only corrupted-node backdoor: the node stays outside every map
/// (so it can never be returned by interning) but its id still never
/// collides with a real node's.
pub(crate) fn fresh_unregistered_id() -> NodeId {
    TermStore::fresh_id()
}

/// The thread's current store: the store set by the innermost enclosing
/// [`StoreHandle::enter`], or the process-wide global store. Capture this
/// on a coordinating thread and `enter` it on workers to intern into one
/// shared store.
pub fn current() -> StoreHandle {
    CTX.with(|ctx| ctx.borrow().current.clone())
        .unwrap_or_else(StoreHandle::global)
}

/// This thread's interner counters (monotonic totals of the **thread's**
/// traffic, whichever stores it touched). Take a snapshot before a
/// workload and diff with [`InternStats::since`] for per-call numbers;
/// per-thread counters keep those deltas deterministic even while other
/// threads intern concurrently.
pub fn stats() -> InternStats {
    CTX.with(|ctx| {
        let ctx = ctx.borrow();
        InternStats {
            lookups: ctx.lookups,
            hits: ctx.hits,
            distinct_nodes: ctx.distinct,
        }
    })
}

/// Evicts every dead class of the thread's current store *now* and
/// shrinks it to its smallest footprint (this thread's front cache is
/// dropped too; other threads' fronts release their pins on their next
/// intern, after they observe the epoch bump). Semantics are unaffected —
/// live nodes always survive — this is memory/benchmark hygiene: it stops
/// one workload's dead-class cache from occupying heap while an unrelated
/// workload is measured.
pub fn trim() {
    CTX.with(|ctx| {
        let mut borrow = ctx.borrow_mut();
        let ThreadCtx { current, front, .. } = &mut *borrow;
        front.invalidate();
        let store: &TermStore = match current {
            Some(h) => &h.0,
            None => global_store(),
        };
        store.trim_now();
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::TermRef;

    #[test]
    fn identical_skeletons_share_one_node() {
        let a = TermRef::new(Term::lam("x", Term::Var(0)));
        let b = TermRef::new(Term::lam("y", Term::Var(0)));
        assert!(TermRef::ptr_eq(&a, &b));
        assert_eq!(a.id(), b.id());
    }

    #[test]
    fn borrowed_probe_agrees_with_owned_key_for_every_constructor() {
        // The probe hash picks the shard and bucket that the owned key is
        // inserted under; any divergence would split one α-class across
        // buckets. Cover all ten constructors.
        let samples = [
            Term::Var(7),
            Term::cnst("append"),
            Term::Meta(crate::term::MVar::new(3, "X")),
            Term::Int(-42),
            Term::Unit,
            Term::lam("x", Term::Var(0)),
            Term::app(Term::cnst("f"), Term::Var(0)),
            Term::pair(Term::Unit, Term::Int(1)),
            Term::fst(Term::pair(Term::Unit, Term::Unit)),
            Term::snd(Term::pair(Term::Unit, Term::Unit)),
        ];
        for t in samples {
            assert_eq!(
                probe_hash(&t),
                FxBuild.hash_one(NodeKey::of(&t)),
                "probe/key hash divergence on {t:?}"
            );
            // The borrowed session view must land in the same shard
            // and bucket as both the term probe and the owned key.
            assert_eq!(
                view_hash(&NodeView::of(&t)),
                probe_hash(&t),
                "view/probe hash divergence on {t:?}"
            );
            assert_eq!(
                FxBuild.hash_one(NodeKey::of_view(&NodeView::of(&t))),
                FxBuild.hash_one(NodeKey::of(&t)),
                "view/owned key divergence on {t:?}"
            );
            assert_eq!(NodeView::of(&t).to_term(), t, "view round-trip on {t:?}");
            let node = intern(t.clone());
            assert!(term_matches(&t, &node));
            assert!(view_matches(&NodeView::of(&t), &node));
            assert!(!term_matches(&Term::Var(999), &node) || matches!(t, Term::Var(999)));
            // Interning the same skeleton through the view path
            // returns the very same node.
            let via_view = with_session(|s| s.intern_view(&NodeView::of(&t)));
            assert_eq!(via_view.id(), node.id);
        }
    }

    #[test]
    fn distinct_skeletons_get_distinct_ids() {
        let a = TermRef::new(Term::lam("x", Term::Var(0)));
        let b = TermRef::new(Term::lam("x", Term::Var(1)));
        assert_ne!(a.id(), b.id());
        assert_ne!(a.id(), NodeId::SENTINEL);
        assert_ne!(b.id(), NodeId::SENTINEL);
    }

    #[test]
    fn stats_count_hits_and_misses() {
        // Stats are per-thread, so concurrently running tests cannot
        // perturb the deltas; `a` stays live, so the rebuild is
        // guaranteed to dedup even if another thread sweeps. Every lookup
        // either hits or creates exactly one node, on both intern paths.
        let balanced = |d: &InternStats| d.hits + d.distinct_nodes == d.lookups;
        let before = stats();
        let t = || Term::app(Term::cnst("store-test-c"), Term::Int(41));
        let a = TermRef::new(t());
        let after_first = stats();
        let b = TermRef::new(t());
        let after_second = stats();
        assert!(TermRef::ptr_eq(&a, &b));
        let d1 = after_first.since(&before);
        let d2 = after_second.since(&after_first);
        assert_eq!(d1.lookups, 3); // c, 41, app
        assert_eq!(d2.lookups, 3);
        // The second build is fully deduplicated.
        assert_eq!(d2.hits, 3);
        assert_eq!(d2.distinct_nodes, 0);
        assert!(balanced(&d1) && balanced(&d2));
        assert!(after_second.dedup_ratio() > 0.0);

        // The session/view path, which `parse_term` and the kernel
        // traversals intern through, keeps the same books.
        let name = Sym::from("store-test-view");
        let build = || {
            with_session(|s| {
                let c = s.intern_view(&NodeView::Const(&name));
                let n = s.intern_view(&NodeView::Int(43));
                s.intern_view(&NodeView::App(&c, &n))
            })
        };
        let before = stats();
        let a = build();
        let after_first = stats();
        let b = build();
        let after_second = stats();
        assert!(TermRef::ptr_eq(&a, &b));
        let d1 = after_first.since(&before);
        let d2 = after_second.since(&after_first);
        assert_eq!(d1.lookups, 3);
        // The constant is fresh, so it and the application are created.
        assert!(d1.distinct_nodes >= 2);
        assert_eq!(d2.lookups, 3);
        assert_eq!(d2.hits, 3);
        assert_eq!(d2.distinct_nodes, 0);
        assert!(balanced(&d1) && balanced(&d2));
    }

    #[test]
    fn dead_classes_resurrect_with_the_same_id() {
        // Isolated store: eviction timing must not depend on other tests
        // hammering the global store from sibling threads.
        StoreHandle::isolated().enter(|| {
            let id1 = {
                let t = TermRef::new(Term::app(Term::cnst("store-test-dead"), Term::Int(7)));
                t.id()
            };
            // All external refs died, but the strong store entry survives
            // until an eviction sweep; rebuilding the skeleton immediately
            // (no interleaving misses, hence no sweep) resurrects the same
            // node under the same id.
            let t2 = TermRef::new(Term::app(Term::cnst("store-test-dead"), Term::Int(7)));
            assert_eq!(t2.id(), id1);
        });
    }

    #[test]
    fn evicted_classes_reintern_under_fresh_ids() {
        StoreHandle::isolated().enter(|| {
            let id1 = {
                let t = TermRef::new(Term::app(Term::cnst("store-test-evict"), Term::Int(9)));
                t.id()
            };
            // Flood the store with transient distinct skeletons, holding
            // none of them. The flood spreads over the shards by hash;
            // every shard takes far more misses than its floor, so each
            // sweeps at least once after `id1`'s entry went dead.
            for i in 0..(3 * MIN_SWEEP as i64) {
                let _ = TermRef::new(Term::app(
                    Term::cnst("store-test-evict-flood"),
                    Term::Int(i),
                ));
            }
            let t2 = TermRef::new(Term::app(Term::cnst("store-test-evict"), Term::Int(9)));
            // Evicted means gone for good: the skeleton comes back under a
            // fresh id, and the old id can never be observed again.
            assert_ne!(t2.id(), id1);
            assert!(t2.id() > id1);
        });
    }

    #[test]
    fn isolated_stores_never_reuse_ids() {
        // The same skeleton interned in two stores gets two ids — the
        // allocator is process-wide, so ids can never alias even across
        // stores.
        let a = StoreHandle::isolated().enter(|| TermRef::new(Term::cnst("store-test-iso")));
        let b = StoreHandle::isolated().enter(|| TermRef::new(Term::cnst("store-test-iso")));
        assert_ne!(a.id(), b.id());
        // Within each isolated store the usual sharing held; and the
        // global store is untouched by either (fresh interning there
        // allocates yet another id).
        let c = TermRef::new(Term::cnst("store-test-iso-global"));
        assert_ne!(c.id(), a.id());
        assert_ne!(c.id(), b.id());
    }

    #[test]
    fn enter_restores_the_previous_store() {
        let outer = current();
        let iso = StoreHandle::isolated();
        iso.enter(|| {
            assert!(StoreHandle::same_store(&current(), &iso));
            let nested = StoreHandle::isolated();
            nested.enter(|| assert!(StoreHandle::same_store(&current(), &nested)));
            assert!(StoreHandle::same_store(&current(), &iso));
        });
        assert!(StoreHandle::same_store(&current(), &outer));
    }

    #[test]
    fn cross_thread_interning_shares_nodes() {
        // Two threads interning the same skeleton into one shared store
        // land on one node: same id from both sides.
        let h = StoreHandle::isolated();
        let t = || {
            Term::lam(
                "x",
                Term::app(Term::Var(0), Term::cnst("store-test-xthread")),
            )
        };
        let ids: Vec<NodeId> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let h = h.clone();
                    s.spawn(move || h.enter(|| TermRef::new(t()).id()))
                })
                .collect();
            handles.into_iter().map(|j| j.join().unwrap()).collect()
        });
        assert!(
            ids.windows(2).all(|w| w[0] == w[1]),
            "ids diverged: {ids:?}"
        );
    }

    #[test]
    fn trim_under_contention_keeps_live_terms_valid() {
        // The eviction-race regression: workers intern overlapping
        // families (dropping most, holding some) while another thread
        // trims in a loop. Every *held* ref must keep its class: a
        // rebuild of its skeleton — from its own thread or any other —
        // must land on the same id.
        let h = StoreHandle::isolated();
        std::thread::scope(|s| {
            for w in 0..3u32 {
                let h = h.clone();
                s.spawn(move || {
                    h.enter(|| {
                        let mut held = Vec::new();
                        for i in 0..3000i64 {
                            let t = TermRef::new(Term::app(
                                Term::cnst("store-test-contend"),
                                Term::Int(i),
                            ));
                            if i % 10 == i64::from(w) {
                                held.push(t);
                            } // other refs drop: dead classes for the trimmer
                        }
                        for t in &held {
                            let again = TermRef::new(t.term().clone());
                            assert_eq!(
                                again.id(),
                                t.id(),
                                "live class lost its id under concurrent trim"
                            );
                        }
                    });
                });
            }
            let trimmer = h.clone();
            s.spawn(move || {
                trimmer.enter(|| {
                    for _ in 0..300 {
                        trim();
                        std::thread::yield_now();
                    }
                });
            });
        });
    }

    #[test]
    fn content_hash_ignores_binder_hints_and_is_store_independent() {
        let t = |hint: &str| Term::lam(hint, Term::app(Term::Var(0), Term::cnst("ch-test")));
        let a = TermRef::new(t("x"));
        let b = TermRef::new(t("totally-different-hint"));
        assert_eq!(a.content_hash(), b.content_hash());
        // A different store reaches the same hash for the same skeleton,
        // even though the id differs (the cross-process story in
        // miniature: isolated stores model separate processes).
        let (iso_hash, iso_id) = StoreHandle::isolated().enter(|| {
            let c = TermRef::new(t("y"));
            (c.content_hash(), c.id())
        });
        assert_eq!(a.content_hash(), iso_hash);
        assert_ne!(a.id(), iso_id);
    }

    #[test]
    fn content_hash_separates_skeletons() {
        let pairs = [
            (Term::Var(0), Term::Var(1)),
            (Term::Int(1), Term::Int(-1)),
            (Term::cnst("ch-a"), Term::cnst("ch-b")),
            (Term::Unit, Term::Int(5)),
            (Term::fst(Term::cnst("ch-p")), Term::snd(Term::cnst("ch-p"))),
            (
                Term::app(Term::cnst("ch-f"), Term::cnst("ch-x")),
                Term::pair(Term::cnst("ch-f"), Term::cnst("ch-x")),
            ),
        ];
        for (l, r) in pairs {
            let a = TermRef::new(l);
            let b = TermRef::new(r);
            assert_ne!(
                a.content_hash(),
                b.content_hash(),
                "distinct skeletons {} and {} collided",
                a.term(),
                b.term()
            );
        }
    }

    #[test]
    fn store_handles_are_send_sync() {
        const fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<StoreHandle>();
        assert_send_sync::<TermStore>();
    }
}
