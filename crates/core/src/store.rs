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
//! # One store per thread
//!
//! A store, its nodes and every term built from them are confined to the
//! thread that made them: nodes are `Rc<TermNode>`, and the interning map
//! is split into `SHARDS` plain `RefCell` sub-tables, chosen by the high
//! bits of the skeleton hash. The split is kept for peak memory, not for
//! concurrency: a map doubles its whole allocation when it grows, and
//! sixteen sub-tables grow one sixteenth at a time. A thread also keeps a
//! direct-mapped front cache of `FRONT_SLOTS` recently interned nodes, so
//! steady-state rebuild loops (hereditary substitution, normalization)
//! intern without probing a map.
//!
//! The store is an explicit handle — [`StoreHandle`] — passed around the
//! way `EngineCaches` is. [`TermRef::new`](crate::term::TermRef::new)
//! interns into the thread's **current** store: the thread's own default
//! store, unless the thread is inside [`StoreHandle::enter`]. The default
//! store lives in a `thread_local` and dies with its thread; work that
//! wants terms on another thread builds them there.
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
//! normal-form memo — therefore key on `NodeId` with no keepalive
//! pinning: a stale entry under a dead id is unreachable garbage, not a
//! soundness hazard, and the caches may outlive any particular engine
//! instance or `normalize` call. (A cached *value* is another matter:
//! the normal-form memo's entries hold their normal forms, so those
//! nodes stay live until the memo drops the entry.)
//!
//! Within one store, two live `TermRef`s have equal ids **iff** they are
//! α-equivalent modulo hints — the O(1) `alpha_eq` fast path. Across
//! *different* stores only the soundness direction survives (equal ids ⇒
//! the same node ⇒ α-equivalent; completeness needs one interning map),
//! which is why terms from an isolated store must not be compared against
//! terms of another store.
//!
//! # Eviction
//!
//! Entries are **strong**: a node whose last external `TermRef` dies
//! stays cached, and rebuilding the same skeleton *resurrects* it — same
//! node, same id, no allocation. Dead classes are evicted when a
//! sub-table grows past its high-water mark: the sweep keeps every entry
//! with `Rc::strong_count > 1`, because a count of 1 means the map holds
//! the only reference. [`trim`] sweeps every sub-table at once. The front
//! cache holds strong refs, which pins at most `FRONT_SLOTS` nodes; it is
//! cleared right after each sweep, so those pins are transient.
//!
//! A node drops its children iteratively (see `TermNode`'s `Drop`): once
//! a store has died (with its thread, or an isolated store after
//! [`StoreHandle::enter`]), a term or a front-cache pin can hold
//! the last reference to a deep chain, which a recursive drop would
//! overflow the stack on.
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
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};

/// Stable, store-scoped identity of an interned term node.
///
/// Ids are assigned from a **process-wide** monotonic counter starting at
/// `1` — shared by every store of every thread — and are **never
/// reused**, so a `NodeId` is a durable cache key: entries recorded under
/// an id that has since died can never be matched by a live term again. `0` is never assigned,
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
/// the borrowed [`NodeView`] directly ([`view_hash`], [`view_matches`]),
/// so a warm rebuild never pays the `Sym` refcount bump of an owned key.
/// The map hashes its keys itself; `view_hash` only has to be a function
/// of the skeleton, so that one α-class always lands in one shard.
#[derive(PartialEq, Eq, Hash, Debug)]
enum NodeKey {
    Var(u32),
    Const(Sym),
    Meta(u32),
    Int(i64),
    Unit,
    Lam(NodeId),
    App(NodeId, NodeId),
    Pair(NodeId, NodeId),
    Fst(NodeId),
    Snd(NodeId),
}

/// A *borrowed* description of one node to intern, with the children
/// already interned: the store's one intern path ([`intern`] views its
/// owned term). On a cache hit nothing is cloned — no child `Rc` bump, no `Sym`
/// refcount touch — which keeps the kernel traversals and the parser
/// refcount-lean: the owned `Term` (and its clone/drop churn) is built
/// only on a genuine miss, when the node must be allocated anyway.
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
    /// path (children are cloned — an `Rc` bump each — because the new
    /// node must own them) and for the owned root of a kernel traversal.
    pub(crate) fn to_term(&self) -> Term {
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

    /// The owned map key of the view's skeleton.
    fn key(&self) -> NodeKey {
        match *self {
            NodeView::Var(i) => NodeKey::Var(i),
            NodeView::Const(c) => NodeKey::Const(c.clone()),
            NodeView::Meta(m) => NodeKey::Meta(m.id()),
            NodeView::Int(n) => NodeKey::Int(n),
            NodeView::Unit => NodeKey::Unit,
            NodeView::Lam(_, b) => NodeKey::Lam(b.id()),
            NodeView::App(f, a) => NodeKey::App(f.id(), a.id()),
            NodeView::Pair(a, b) => NodeKey::Pair(a.id(), b.id()),
            NodeView::Fst(p) => NodeKey::Fst(p.id()),
            NodeView::Snd(p) => NodeKey::Snd(p.id()),
        }
    }
}

/// The skeleton hash of a view: the constructor's tag, then its fields,
/// with binder hints left out. It picks the shard and the front-cache
/// slot.
fn view_hash(v: &NodeView<'_>) -> u64 {
    let mut h = FxHasher::default();
    match v {
        NodeView::Var(i) => {
            h.write_u8(0);
            h.write_u32(*i);
        }
        NodeView::Const(c) => {
            h.write_u8(1);
            c.hash(&mut h);
        }
        NodeView::Meta(m) => {
            h.write_u8(2);
            h.write_u32(m.id());
        }
        NodeView::Int(n) => {
            h.write_u8(3);
            h.write_i64(*n);
        }
        NodeView::Unit => h.write_u8(4),
        NodeView::Lam(_, b) => {
            h.write_u8(5);
            h.write_u64(b.id().get());
        }
        NodeView::App(f, a) => {
            h.write_u8(6);
            h.write_u64(f.id().get());
            h.write_u64(a.id().get());
        }
        NodeView::Pair(a, b) => {
            h.write_u8(7);
            h.write_u64(a.id().get());
            h.write_u64(b.id().get());
        }
        NodeView::Fst(p) => {
            h.write_u8(8);
            h.write_u64(p.id().get());
        }
        NodeView::Snd(p) => {
            h.write_u8(9);
            h.write_u64(p.id().get());
        }
    }
    h.finish()
}

/// Does the view denote the skeleton of the interned term `node`?
/// Shallow — children compare by id — so O(1), and `Sym`-refcount-free.
fn view_matches(v: &NodeView<'_>, node: &Term) -> bool {
    match (v, node) {
        (NodeView::Var(i), Term::Var(j)) => i == j,
        (NodeView::Const(c), Term::Const(d)) => *c == d,
        (NodeView::Meta(m), Term::Meta(n)) => m.id() == n.id(),
        (NodeView::Int(a), Term::Int(b)) => a == b,
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

/// The hasher of the store's maps (see [`FxBuild`]).
#[derive(Default)]
pub struct FxHasher {
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
            // The last 1–7 bytes as a zero-padded little-endian word,
            // folded byte by byte: copying them into a buffer called
            // `memcpy`, which tripled the cost of hashing a short name.
            let word = rest.iter().rev().fold(0, |w, &b| w << 8 | u64::from(b));
            // Fold the length in so "ab" and "ab\0" differ.
            self.add(word ^ (rest.len() as u64) << 56);
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

/// Builds [`FxHasher`]s: the fast, non-DoS-resistant hasher of the
/// store's maps, for any process-internal map keyed by ids or names.
#[derive(Clone, Default, Debug)]
pub struct FxBuild;

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

/// Number of sub-tables the interning map is split into, chosen by the
/// top bits of the skeleton hash. A store is confined to one thread, so
/// the split buys no concurrency; it bounds peak memory. A hash map that
/// grows reallocates its whole table at once, briefly holding the old and
/// the doubled one; sixteen sub-tables grow one sixteenth at a time. With
/// one map, perfbench's `rewrite-warm` peaks at 18.7 MiB instead of 17.5.
const SHARDS: usize = 16;

/// Evict dead classes no earlier than this aggregate map size (keeps tiny
/// workloads eviction-free). Each sub-table sweeps independently at
/// `MIN_SWEEP / SHARDS`.
const MIN_SWEEP: usize = 1 << 12;

/// Per-sub-table eviction floor.
const SHARD_MIN_SWEEP: usize = MIN_SWEEP / SHARDS;

/// Slots in each thread's direct-mapped front cache (32 KiB of
/// pointers): terms of ~2k distinct subterms thrash 1k slots, so a front
/// this size keeps rebuild-heavy workloads off the map probe.
const FRONT_SLOTS: usize = 1 << 12;

/// One sub-table of the interning map, plus its high-water mark.
#[derive(Debug)]
struct Tables {
    map: HashMap<NodeKey, Rc<TermNode>, FxBuild>,
    sweep_at: usize,
}

/// A hash-consed interner split into `SHARDS` sub-tables, owned by one
/// thread through [`StoreHandle`]. Entries are **strong**: a class whose
/// external refs all died stays cached until its sub-table grows past
/// the high-water mark, so an immediate rebuild of the same skeleton is a
/// pure map hit — same node, same id, no allocation. On growth past the
/// mark, entries with `strong_count == 1` (only the store holds them) are
/// evicted and the mark resets to twice the live size, making eviction
/// amortized O(1) per insertion and memory proportional to the live term
/// graph (plus the bounded front-cache pins; see the module docs).
#[derive(Debug)]
pub struct TermStore {
    shards: [RefCell<Tables>; SHARDS],
    /// Distinguishes stores for the thread's front cache (never reused;
    /// `0` is the "no store" tag of an empty front).
    store_token: u64,
}

/// Process-wide [`NodeId`] allocator, shared by **all** stores so ids are
/// unique across every thread's stores.
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// Allocator for [`TermStore::store_token`] (`0` reserved for "none").
static NEXT_STORE_TOKEN: AtomicU64 = AtomicU64::new(1);

/// What one sub-table probe did.
#[derive(PartialEq, Eq)]
enum Probe {
    /// An existing node answered.
    Hit,
    /// A node was created.
    Miss,
    /// A node was created and the sub-table then swept its dead classes.
    MissSwept,
}

impl TermStore {
    fn new() -> TermStore {
        TermStore {
            shards: std::array::from_fn(|_| {
                RefCell::new(Tables {
                    map: HashMap::with_hasher(FxBuild),
                    sweep_at: SHARD_MIN_SWEEP,
                })
            }),
            store_token: NEXT_STORE_TOKEN.fetch_add(1, Ordering::Relaxed),
        }
    }

    fn fresh_id() -> NodeId {
        NodeId(NEXT_ID.fetch_add(1, Ordering::Relaxed))
    }

    /// The slow path: probe-or-insert in the owning sub-table. The owned
    /// `Term` (with its child `Rc` clones) is materialized only inside the
    /// vacant arm, where the node must own its children anyway.
    fn intern_in_shard(&self, hash: u64, v: &NodeView<'_>) -> (Rc<TermNode>, Probe) {
        let mut tables = self.shards[(hash >> 60) as usize & (SHARDS - 1)].borrow_mut();
        // Single-hash probe-or-insert: the miss path must not hash twice.
        let node = match tables.map.entry(v.key()) {
            Entry::Occupied(e) => return (Rc::clone(e.get()), Probe::Hit),
            Entry::Vacant(e) => {
                let term = v.to_term();
                let node = Rc::new(TermNode {
                    id: TermStore::fresh_id(),
                    max_free: term.max_free(),
                    has_meta: term.has_metas(),
                    beta_normal: term.is_beta_normal(),
                    content: content_hash_of(&term),
                    term,
                });
                e.insert(Rc::clone(&node));
                node
            }
        };
        if tables.map.len() < tables.sweep_at {
            return (node, Probe::Miss);
        }
        // Evicting a dead class is always sound: without a live external
        // ref its id cannot be probed, so a later rebuild under a fresh id
        // can never alias it. Entry drops release child refs, which may
        // turn further entries dead — they go in a later sweep.
        tables.map.retain(|_, node| Rc::strong_count(node) > 1);
        tables.sweep_at = (tables.map.len() * 2).max(SHARD_MIN_SWEEP);
        (node, Probe::MissSwept)
    }

    /// Evicts every dead class *now* and shrinks each sub-table to its
    /// smallest footprint.
    fn trim_now(&self) {
        for shard in &self.shards {
            let mut tables = shard.borrow_mut();
            tables.map.retain(|_, node| Rc::strong_count(node) > 1);
            tables.map.shrink_to_fit();
            tables.sweep_at = (tables.map.len() * 2).max(SHARD_MIN_SWEEP);
        }
    }

    /// Total number of cached classes (live + dead-but-cached), summed
    /// over the sub-tables.
    fn len(&self) -> usize {
        self.shards.iter().map(|s| s.borrow().map.len()).sum()
    }

    /// Every cached class (live *and* dead-but-cached), sorted by id —
    /// the raw material of a warm image (see [`image`]).
    fn snapshot(&self) -> Vec<Rc<TermNode>> {
        let mut out = Vec::new();
        for shard in &self.shards {
            out.extend(shard.borrow().map.values().cloned());
        }
        out.sort_by_key(|n| n.id);
        out
    }
}

/// A cheaply clonable handle to a [`TermStore`], confined to the thread
/// that made it. Cloning shares the store; dropping the last handle frees
/// it (nodes do not point back at the store, so they may outlive it).
#[derive(Clone, Debug)]
pub struct StoreHandle(Rc<TermStore>);

impl StoreHandle {
    /// A fresh, empty store, independent of every other store except for
    /// the shared [`NodeId`] allocator (so ids never collide across
    /// stores). For tests that depend on eviction timing and for bench
    /// heap hygiene; terms interned here must not be compared against
    /// terms of other stores (see the module docs).
    pub fn isolated() -> StoreHandle {
        StoreHandle(Rc::new(TermStore::new()))
    }

    /// Runs `f` with this store as the thread's current store, restoring
    /// the previous current store afterwards (also on unwind). All
    /// interning inside `f` — every [`TermRef::new`](crate::term::TermRef::new),
    /// every smart constructor — lands in this store.
    pub fn enter<T>(&self, f: impl FnOnce() -> T) -> T {
        struct Restore(StoreHandle);
        impl Drop for Restore {
            fn drop(&mut self) {
                CTX.with(|ctx| std::mem::swap(&mut ctx.borrow_mut().current, &mut self.0));
            }
        }
        let mut restore = Restore(self.clone());
        CTX.with(|ctx| std::mem::swap(&mut ctx.borrow_mut().current, &mut restore.0));
        f()
    }

    /// Do two handles share one store?
    pub fn same_store(a: &StoreHandle, b: &StoreHandle) -> bool {
        Rc::ptr_eq(&a.0, &b.0)
    }

    /// Total number of cached classes (live + dead-but-cached) right now.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the store currently caches no classes at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// This thread's interner-facing state: the current store, the front
/// cache, and the traffic counters — one `RefCell` so the hot path pays a
/// single thread-local access and borrow.
struct ThreadCtx {
    /// The thread's own default store, or the one set by the innermost
    /// enclosing [`StoreHandle::enter`].
    current: StoreHandle,
    front: Front,
    lookups: u64,
    hits: u64,
    distinct: u64,
}

/// A direct-mapped cache of recently interned nodes, tagged with the
/// store it was filled from. Any node found here is still in that store's
/// map — the front's own strong ref keeps its `strong_count` above 1
/// through every sweep — so a front hit never resurrects an evicted class
/// under a stale id. The front is cleared right after a sweep, which
/// releases its pins.
struct Front {
    /// `0` = unattached.
    store: u64,
    slots: Vec<Option<Rc<TermNode>>>,
}

impl Front {
    fn reset(&mut self, store: u64) {
        self.store = store;
        self.slots.clear();
        self.slots.resize(FRONT_SLOTS, None);
    }

    fn invalidate(&mut self) {
        self.store = 0;
        self.slots = Vec::new();
    }
}

thread_local! {
    static CTX: RefCell<ThreadCtx> = RefCell::new(ThreadCtx {
        current: StoreHandle::isolated(),
        front: Front {
            store: 0,
            slots: Vec::new(),
        },
        lookups: 0,
        hits: 0,
        distinct: 0,
    });
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
        f(&mut InternSession {
            store: &current.0,
            front,
            lookups,
            hits,
            distinct,
        })
    })
}

impl InternSession<'_> {
    /// Interns one node described by a borrowed view (children already
    /// interned). The hot path — a front hit — clones exactly one `Rc`
    /// (the returned node) and touches no child or `Sym` refcount.
    pub(crate) fn intern_view(&mut self, v: &NodeView<'_>) -> TermRef {
        *self.lookups += 1;
        let store = self.store;
        let hash = view_hash(v);
        let slot = (hash as usize) & (FRONT_SLOTS - 1);
        if self.front.store != store.store_token {
            self.front.reset(store.store_token);
        } else if let Some(node) = &self.front.slots[slot] {
            if view_matches(v, &node.term) {
                *self.hits += 1;
                return TermRef::from_node(Rc::clone(node));
            }
        }
        let (node, probe) = store.intern_in_shard(hash, v);
        if probe == Probe::Hit {
            *self.hits += 1;
        } else {
            *self.distinct += 1;
        }
        if probe == Probe::MissSwept {
            // The sweep ran with the front's pins in place; drop them now,
            // so the classes only the front held go in the next sweep.
            self.front.reset(store.store_token);
        } else {
            self.front.slots[slot] = Some(Rc::clone(&node));
        }
        TermRef::from_node(node)
    }
}

/// Interns `term` (its children already interned) in the thread's current
/// store, through the same view path as every session; called by
/// [`TermRef::new`](crate::term::TermRef::new).
pub(crate) fn intern(term: Term) -> TermRef {
    with_session(|s| s.intern_view(&NodeView::of(&term)))
}

/// A fresh id that is *not* associated with any store entry, for the
/// test-only corrupted-node backdoor: the node stays outside every map
/// (so it can never be returned by interning) but its id still never
/// collides with a real node's.
pub(crate) fn fresh_unregistered_id() -> NodeId {
    TermStore::fresh_id()
}

/// The thread's current store: the store set by the innermost enclosing
/// [`StoreHandle::enter`], or the thread's own default store.
pub fn current() -> StoreHandle {
    CTX.with(|ctx| ctx.borrow().current.clone())
}

/// This thread's interner counters (monotonic totals of the **thread's**
/// traffic, whichever stores it touched). Take a snapshot before a
/// workload and diff with [`InternStats::since`] for per-call numbers.
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
/// shrinks it to its smallest footprint (the front cache is dropped
/// first, so its pins do not keep classes alive). Semantics are
/// unaffected — live nodes always survive — this is memory/benchmark
/// hygiene: it stops one workload's dead-class cache from occupying heap
/// while an unrelated workload is measured.
pub fn trim() {
    CTX.with(|ctx| {
        let mut borrow = ctx.borrow_mut();
        let ThreadCtx { current, front, .. } = &mut *borrow;
        front.invalidate();
        current.0.trim_now();
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hashing_bytes_folds_the_tail_as_a_zero_padded_word() {
        // The tail word is the one a copy into a zeroed buffer would read.
        for bytes in [
            &b"a"[..],
            b"ab",
            b"app",
            b"x1",
            b"forall",
            b"abcdefg",
            b"abcdefghij",
        ] {
            let mut h = FxHasher::default();
            h.write(bytes);
            let mut want = FxHasher::default();
            let mut chunks = bytes.chunks_exact(8);
            for chunk in &mut chunks {
                want.add(u64::from_le_bytes(chunk.try_into().unwrap()));
            }
            let mut buf = [0u8; 8];
            buf[..chunks.remainder().len()].copy_from_slice(chunks.remainder());
            want.add(u64::from_le_bytes(buf) ^ (chunks.remainder().len() as u64) << 56);
            assert_eq!(h.finish(), want.finish(), "{bytes:?}");
        }
    }
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
        // `intern` and every session intern through one view path, so an
        // owned term and its view must land on one node. Cover all ten
        // constructors.
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
            let v = NodeView::of(&t);
            assert_eq!(v.to_term(), t, "view round-trip on {t:?}");
            let node = intern(t.clone());
            assert!(view_matches(&v, node.term()));
            // `intern(t)` and a session intern of its view return the
            // very same node.
            let via_view = with_session(|s| s.intern_view(&v));
            assert_eq!(via_view.id(), node.id());
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
        // guaranteed to dedup even if a sweep runs. Every lookup either
        // hits or creates exactly one node, on both intern paths.
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
        // Isolated store: eviction timing must not depend on what this
        // test thread interned before.
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
        // thread's default store is untouched by either (fresh interning
        // there allocates yet another id).
        let c = TermRef::new(Term::cnst("store-test-iso-default"));
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
}
