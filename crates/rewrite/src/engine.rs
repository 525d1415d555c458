//! The rewrite engine: strategy-driven rule application with sound
//! rewriting under binders.
//!
//! The engine traverses a canonical, well-typed subject term, maintaining
//! the typing context of the binders it has crossed. At each position it
//! tries the rules whose subject type matches; a pattern rule fires via
//! higher-order matching with the crossed binders as *ambient* context
//! (so matched subterms may mention them), and the instantiated
//! right-hand side is spliced back at the same depth.
//!
//! # Memo layers and rule dispatch
//!
//! Three memo layers keep a `normalize` call from re-doing work. All of
//! them key on stable [`NodeId`]s from the hash-consed term
//! store — durable keys that are never reused — so the caches live in a
//! shareable [`EngineCaches`] handle that can outlive any single engine
//! instance (see [`Engine::with_caches`]):
//!
//! * a **rule-normal-form cache** keyed on node id: once a shared subterm
//!   has been proven rule-normal (no rule fires anywhere inside it),
//!   every later pass skips it in O(1). Rewrites rebuild only the spine
//!   from the rewrite site to the root — sibling subtrees keep their
//!   nodes, so their cache entries survive and the restart-from-root loop
//!   degenerates to a resume-at-site traversal while producing identical
//!   [`RewriteStep`] traces;
//! * a **canonical-form memo** ([`normalize::CanonCache`]) so that
//!   canonicalizing each rewrite's replacement only pays for the fresh
//!   right-hand-side skeleton, never for the matched subject subtrees it
//!   shares by pointer;
//! * a **root-step memo** that replays one whole strategy step on a
//!   closed subject (rewritten term, rule, position) by the root's
//!   shallow node-id identity, so a repeated subject costs one probe per
//!   step (see [`Engine::normalize`]).
//!
//! At each position, rule dispatch scans the [`RuleSet`] in insertion
//! order and attempts a full match only for rules whose left-hand-side
//! head constant, subject type and shallow argument fingerprint admit
//! the subject ([`RuleSet::candidates`]).
//!
//! [`EngineStats`] counts what each layer did, so the wins are measurable
//! rather than asserted.

use crate::rule::{RewriteError, Rule, RuleSet};
use hoas_core::ctx::Ctx;
use hoas_core::sig::Signature;
use hoas_core::term::{fingerprint_admits, MetaEnv, TermRef};
use hoas_core::{normalize, typeck, NodeId, Sym, Term, Ty};
use hoas_unify::classify::PatternClass;
use hoas_unify::matching::{match_pattern, match_term, MatchConfig};
use std::borrow::Cow;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

/// Traversal strategy.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Strategy {
    /// Try the node before its children; repeat from the root after each
    /// rewrite.
    #[default]
    LeftmostOutermost,
    /// Try children before the node.
    LeftmostInnermost,
}

/// Engine configuration.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Matching budgets.
    pub match_cfg: MatchConfig,
    /// Maximum number of rule applications per [`Engine::normalize`] call.
    pub max_steps: usize,
    /// Traversal strategy.
    pub strategy: Strategy,
    /// Whether to use the memo layers (on by default): the
    /// rule-normal-form cache, the canonical-form memo and the root-step
    /// memo. Disabling it forces a full re-traversal and
    /// re-canonicalization at every step; results are identical either
    /// way, which `tests/engine_cache_props.rs` property-checks.
    pub cache: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            match_cfg: MatchConfig::default(),
            max_steps: 100_000,
            strategy: Strategy::LeftmostOutermost,
            cache: true,
        }
    }
}

/// Which matching machinery produced a rewrite.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MatchPath {
    /// The deterministic Miller-pattern matcher (the fast path taken by
    /// rules classified as [`PatternClass::Miller`]).
    Pattern,
    /// General higher-order matching (pattern unifier with Huet
    /// fallback).
    General,
    /// A native δ-rule fired.
    Native,
}

impl std::fmt::Display for MatchPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MatchPath::Pattern => f.write_str("pattern"),
            MatchPath::General => f.write_str("general"),
            MatchPath::Native => f.write_str("native"),
        }
    }
}

/// One rewrite in a trace: which rule fired, and where.
///
/// The path addresses the rewritten subterm from the root: `0..` are
/// spine-argument indices for neutral terms, `0` is a λ's body, and
/// `0`/`1` are a pair's components.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RewriteStep {
    /// Name of the rule that fired.
    pub rule: String,
    /// Position of the rewritten subterm.
    pub path: Vec<u32>,
    /// Which matcher produced the rewrite.
    pub via: MatchPath,
}

impl std::fmt::Display for RewriteStep {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} @ [", self.rule)?;
        for (i, p) in self.path.iter().enumerate() {
            if i > 0 {
                f.write_str(".")?;
            }
            write!(f, "{p}")?;
        }
        f.write_str("]")
    }
}

/// Work counters for an engine (or the delta of one [`Engine::normalize`]
/// call): traversal volume, cache effectiveness, and match attempts by
/// [`MatchPath`].
///
/// Invariant: `cache_hits + cache_misses == cache_lookups`.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct EngineStats {
    /// Subterm positions visited by the strategy traversal.
    pub nodes_visited: u64,
    /// Rule-normal-form cache lookups.
    pub cache_lookups: u64,
    /// Lookups that found the subterm already proven rule-normal (the
    /// whole subtree is skipped).
    pub cache_hits: u64,
    /// Lookups that found nothing.
    pub cache_misses: u64,
    /// Match attempts through the deterministic Miller pattern matcher.
    pub pattern_attempts: u64,
    /// Match attempts through general higher-order matching.
    pub general_attempts: u64,
    /// Native δ-rule attempts.
    pub native_attempts: u64,
    /// Canonical-form memo hits: replacement subtrees whose η-long form
    /// was replayed by interned node id instead of re-traversed.
    pub canon_hits: u64,
    /// Canonical-form memo lookups that fell through to a traversal.
    pub canon_misses: u64,
    /// Root-step memo hits: whole strategy steps on a closed subject
    /// whose outcome (rewritten term, rule, position) was replayed by
    /// shallow node-id identity instead of re-derived.
    pub memo_hits: u64,
    /// Root-step memo lookups that fell through to a full traversal.
    pub memo_misses: u64,
}

impl EngineStats {
    /// Counter difference `self - earlier`. Used to report per-call stats
    /// from cumulative engine counters.
    #[must_use]
    pub fn delta(&self, earlier: &EngineStats) -> EngineStats {
        EngineStats {
            nodes_visited: self.nodes_visited - earlier.nodes_visited,
            cache_lookups: self.cache_lookups - earlier.cache_lookups,
            cache_hits: self.cache_hits - earlier.cache_hits,
            cache_misses: self.cache_misses - earlier.cache_misses,
            pattern_attempts: self.pattern_attempts - earlier.pattern_attempts,
            general_attempts: self.general_attempts - earlier.general_attempts,
            native_attempts: self.native_attempts - earlier.native_attempts,
            canon_hits: self.canon_hits - earlier.canon_hits,
            canon_misses: self.canon_misses - earlier.canon_misses,
            memo_hits: self.memo_hits - earlier.memo_hits,
            memo_misses: self.memo_misses - earlier.memo_misses,
        }
    }

    /// Fraction of cache lookups that hit, in `[0, 1]` (0 when the cache
    /// was never consulted).
    pub fn cache_hit_rate(&self) -> f64 {
        if self.cache_lookups == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.cache_lookups as f64
        }
    }
}

/// Result of running the engine to a fixpoint (or budget).
#[derive(Clone, Debug)]
pub struct NormalizeResult {
    /// The rewritten term.
    pub term: Term,
    /// Number of rule applications performed.
    pub steps: usize,
    /// Name of each applied rule, in order.
    pub applied: Vec<String>,
    /// Full trace: rule name plus rewrite position, in order.
    pub trace: Vec<RewriteStep>,
    /// Whether a fixpoint was reached (`false` means the step budget ran
    /// out first).
    pub fixpoint: bool,
    /// Work counters for this call (cache state carried over from earlier
    /// calls on the same engine still counts as hits here).
    pub stats: EngineStats,
}

/// Interior-mutable counters: the traversal takes `&self` everywhere.
#[derive(Clone, Debug, Default)]
struct Counters {
    nodes_visited: Cell<u64>,
    cache_lookups: Cell<u64>,
    cache_hits: Cell<u64>,
    cache_misses: Cell<u64>,
    pattern_attempts: Cell<u64>,
    general_attempts: Cell<u64>,
    native_attempts: Cell<u64>,
    memo_hits: Cell<u64>,
    memo_misses: Cell<u64>,
}

fn bump(c: &Cell<u64>) {
    c.set(c.get() + 1);
}

/// One proven-rule-normal record. An entry means: no rule of this engine
/// fires anywhere inside the node when it appears at subject type `ty`
/// with its free de Bruijn variables typed `free_tys` — the only inputs
/// (besides the node's own structure) that rule matching consults.
#[derive(Clone, Debug)]
struct CacheEntry {
    /// Subject type at which the subterm was proven rule-normal.
    ty: Ty,
    /// Types of the subterm's free variables, innermost (`Var(0)`) first.
    free_tys: Vec<Ty>,
}

/// Shallow identity of a composite root: a variant tag plus the stable
/// [`NodeId`]s of the children (second slot `0` — never a real id — for
/// one-child variants). Hash-consing makes child-id equality certify
/// child α-equality, and ids are never reused, so the key stays sound
/// without pinning the subject.
pub(crate) type RootKey = (u8, u64, u64);

/// One memoized root-level strategy step (see [`Engine::step_root`]).
#[derive(Clone, Debug)]
pub(crate) struct RootEntry {
    /// Subject type the step was taken at.
    pub(crate) ty: Ty,
    /// Root binder hint (`Lam` roots only): the one root datum the
    /// [`RootKey`] does not capture. Compared on lookup so a replay
    /// reproduces the uncached output, hints included.
    pub(crate) hint: Option<Sym>,
    /// Strategy the step was recorded under; caches may be shared
    /// between engines, and the chosen redex position depends on it.
    pub(crate) strategy: Strategy,
    /// The recorded outcome, replayed verbatim on a hit.
    pub(crate) outcome: Option<(Term, RewriteStep)>,
}

/// The [`RootKey`] of a term, or `None` for childless nodes (leaves
/// terminate a step immediately; memoizing them would cost more than the
/// probe it saves).
fn root_key(t: &Term) -> Option<RootKey> {
    match t {
        Term::App(f, a) => Some((0, f.id().get(), a.id().get())),
        Term::Lam(_, b) => Some((1, b.id().get(), 0)),
        Term::Pair(a, b) => Some((2, a.id().get(), b.id().get())),
        Term::Fst(p) => Some((3, p.id().get(), 0)),
        Term::Snd(p) => Some((4, p.id().get(), 0)),
        Term::Var(_) | Term::Const(_) | Term::Meta(_) | Term::Int(_) | Term::Unit => None,
    }
}

/// The root's binder hint, the only root datum [`root_key`] ignores.
fn root_hint(t: &Term) -> Option<&Sym> {
    match t {
        Term::Lam(h, _) => Some(h),
        _ => None,
    }
}

/// Root-step memo size bound; the table is dropped wholesale when full.
pub(crate) const ROOT_MEMO_CAP: usize = 1 << 20;

/// Rule-normal-form cache size bound (number of keyed nodes); the table
/// is dropped wholesale when full. PR 4's engine-lifetime cache needed no
/// bound because keepalive pins tied its size to live terms; a durable
/// shared cache can outlive every subject, so it gets the same cap
/// discipline as the other memo layers.
const RULE_NF_CAP: usize = 1 << 20;

/// The engine's durable cache state: rule-normal-form cache, root-step
/// memo, and canonical-form memo, bundled behind one cheaply clonable
/// handle (`Clone` shares, it does not copy).
///
/// Every key in here is a stable [`NodeId`], so the handle stays sound
/// after the engine — and even every subject term — is gone: ids are
/// never reused, process-wide, so an entry for a dead node can never be
/// probed again. Warm caches can therefore be carried from one engine
/// instance to the next with
/// [`Engine::caches`]/[`Engine::with_caches`]. Like the terms it holds,
/// the bundle is confined to one thread: each table is shared through an
/// `Rc` and mutated through a `RefCell`.
///
/// Entries record everything they depend on *except* the signature, rule
/// set, and match configuration, which are fixed per engine: only share a
/// handle between engines that agree on those (the root-step memo checks
/// the strategy itself, so engines may differ in strategy). A handle is
/// also implicitly tied to the term store its node ids came from; engines
/// in different stores must not share one.
#[derive(Clone, Debug, Default)]
pub struct EngineCaches {
    /// Canonical-form memo for replacement canonicalization (see
    /// [`hoas_core::normalize::CanonCache`] for the soundness argument).
    pub(crate) canon: Rc<normalize::CanonCache>,
    /// Rule-normal-form cache, keyed on stable node id. Entries are never
    /// invalidated: whether a rule fires inside a node is a function of
    /// its α-class (plus the recorded types), which the id pins down
    /// forever.
    rule_nf: Rc<RefCell<HashMap<NodeId, Vec<CacheEntry>>>>,
    /// Root-step memo: the outcome of one whole strategy step on a
    /// closed subject, keyed by the root's shallow id identity. Because
    /// interning hands back id-identical subtrees for a repeated
    /// subject, an entire rewrite run re-played on the same input
    /// collapses to one probe per step.
    pub(crate) root_memo: Rc<RefCell<HashMap<RootKey, Vec<RootEntry>>>>,
}

impl EngineCaches {
    /// Creates an empty cache bundle.
    #[must_use]
    pub fn new() -> EngineCaches {
        EngineCaches::default()
    }
}

/// A rewrite engine for one signature and rule set.
#[derive(Clone, Debug)]
pub struct Engine<'a> {
    sig: &'a Signature,
    rules: &'a RuleSet,
    cfg: EngineConfig,
    /// Durable cache state; shareable across engine instances.
    caches: EngineCaches,
    counters: Counters,
    /// A validated termination certificate for `rules`, if one was
    /// attached. When present, [`Engine::normalize`] runs without
    /// per-step budget bookkeeping (debug builds keep counting as a
    /// cross-check; see [`Engine::attach_certificate`]).
    cert: Option<crate::cert::TerminationCert>,
}

impl<'a> Engine<'a> {
    /// Creates an engine with default configuration.
    pub fn new(sig: &'a Signature, rules: &'a RuleSet) -> Engine<'a> {
        Engine::with_config(sig, rules, EngineConfig::default())
    }

    /// Creates an engine with explicit configuration and fresh caches.
    pub fn with_config(sig: &'a Signature, rules: &'a RuleSet, cfg: EngineConfig) -> Engine<'a> {
        Engine::with_caches(sig, rules, cfg, EngineCaches::new())
    }

    /// Creates an engine that starts from an existing cache bundle —
    /// typically [`Engine::caches`] of a previous engine over the same
    /// signature, rule set, and match configuration (the sharing
    /// contract; see [`EngineCaches`]). Node-id keys make the warm
    /// entries sound even though the old engine, and possibly every term
    /// it ever saw, is gone.
    pub fn with_caches(
        sig: &'a Signature,
        rules: &'a RuleSet,
        cfg: EngineConfig,
        caches: EngineCaches,
    ) -> Engine<'a> {
        Engine {
            sig,
            rules,
            cfg,
            caches,
            counters: Counters::default(),
            cert: None,
        }
    }

    /// Attaches a termination certificate, enabling budget-free
    /// normalization. Returns `false` (and attaches nothing) when the
    /// certificate does not cover this engine's rule set — the
    /// fingerprint check is the trust boundary, so a certificate minted
    /// for a different (or since-extended) rule set is rejected rather
    /// than trusted.
    ///
    /// With a certificate attached, [`Engine::normalize`] stops
    /// charging steps against [`EngineConfig::max_steps`] in release
    /// builds. Debug builds keep the counter and panic — citing
    /// analyzer diagnostic `HA016` — if the run exceeds a 64× multiple
    /// of the configured budget, so an unsound certificate shows up as
    /// a loud failure instead of a hang.
    pub fn attach_certificate(&mut self, cert: &crate::cert::TerminationCert) -> bool {
        if cert.covers(self.rules) {
            self.cert = Some(cert.clone());
            true
        } else {
            false
        }
    }

    /// A handle to this engine's cache state, for warm-starting another
    /// engine via [`Engine::with_caches`]. Cloning shares the underlying
    /// tables.
    #[must_use]
    pub fn caches(&self) -> EngineCaches {
        self.caches.clone()
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// Cumulative work counters since the engine was created.
    ///
    /// The canonical-form memo counters are a property of the shared
    /// cache bundle, so they are cumulative over every engine that used
    /// it, not just this one; per-call deltas via
    /// [`NormalizeResult::stats`] are attributable to the call that
    /// reports them. Interner counters live in [`hoas_core::store::stats`].
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            nodes_visited: self.counters.nodes_visited.get(),
            cache_lookups: self.counters.cache_lookups.get(),
            cache_hits: self.counters.cache_hits.get(),
            cache_misses: self.counters.cache_misses.get(),
            pattern_attempts: self.counters.pattern_attempts.get(),
            general_attempts: self.counters.general_attempts.get(),
            native_attempts: self.counters.native_attempts.get(),
            canon_hits: self.caches.canon.hits(),
            canon_misses: self.caches.canon.misses(),
            memo_hits: self.counters.memo_hits.get(),
            memo_misses: self.counters.memo_misses.get(),
        }
    }

    /// Canonicalizes a replacement at its splice position, through the
    /// canonical-form memo when caching is enabled.
    fn canonize(&self, menv: &MetaEnv, ctx: &Ctx, t: &Term, ty: &Ty) -> Result<Term, RewriteError> {
        if self.cfg.cache {
            normalize::canon_with(self.sig, menv, ctx, t, ty, &self.caches.canon)
        } else {
            normalize::canon(self.sig, menv, ctx, t, ty)
        }
        .map_err(RewriteError::Core)
    }

    /// Attempts the rules at this exact position (no descent), returning
    /// the replacement, the rule's name, and which matcher produced it.
    ///
    /// # Errors
    ///
    /// Propagates malformed-problem errors; a simple mismatch is `None`.
    pub fn rewrite_here(
        &self,
        ctx: &Ctx,
        ty: &Ty,
        t: &Term,
    ) -> Result<Option<(Term, String, MatchPath)>, RewriteError> {
        // Dispatch key: the subject's rigid head constant, found without
        // materializing the argument list — most positions have no
        // candidate rules at all, and the allocation would be wasted.
        let subject_head = t.rigid_head();
        // Spine arguments, materialized lazily for the first candidate
        // that carries a shallow fingerprint.
        let mut subject_args: Option<Vec<&Term>> = None;
        for rule in self.rules.candidates(subject_head) {
            if rule.ty() != ty {
                continue;
            }
            if !rule.arg_fingerprint().is_empty() {
                let args = subject_args.get_or_insert_with(|| t.spine().1);
                if !fingerprint_admits(rule.arg_fingerprint(), args) {
                    continue;
                }
            }
            match rule.classification() {
                PatternClass::Miller => bump(&self.counters.pattern_attempts),
                PatternClass::General => bump(&self.counters.general_attempts),
            }
            if let Some(replacement) = self.try_rule(rule, ctx, ty, t)? {
                let via = match rule.classification() {
                    PatternClass::Miller => MatchPath::Pattern,
                    PatternClass::General => MatchPath::General,
                };
                return Ok(Some((replacement, rule.name().to_string(), via)));
            }
        }
        for nrule in self.rules.native_rules() {
            if nrule.ty() != ty {
                continue;
            }
            bump(&self.counters.native_attempts);
            if let Some(replacement) = nrule.apply(t) {
                let canon = self.canonize(&Default::default(), ctx, &replacement, ty)?;
                return Ok(Some((canon, nrule.name().to_string(), MatchPath::Native)));
            }
        }
        Ok(None)
    }

    fn try_rule(
        &self,
        rule: &Rule,
        ctx: &Ctx,
        ty: &Ty,
        t: &Term,
    ) -> Result<Option<Term>, RewriteError> {
        // Miller-classified rules take the deterministic fast path: one
        // lockstep descent, no per-attempt canonicalization or
        // environment cloning. General rules go through the pattern
        // unifier with Huet fallback.
        let matched = match rule.classification() {
            PatternClass::Miller => match_pattern(rule.lhs(), t),
            PatternClass::General => match_term(
                self.sig,
                rule.menv(),
                ctx,
                ty,
                rule.lhs(),
                t,
                &self.cfg.match_cfg,
            ),
        };
        let subst = match matched {
            Ok(Some(s)) => s,
            Ok(None) => return Ok(None),
            Err(e) => return Err(RewriteError::Unify(e)),
        };
        let replacement = subst.apply(rule.rhs());
        if replacement.has_metas() {
            // Under-determined match (e.g. a pattern variable not fixed by
            // the target); be conservative and do not rewrite.
            return Ok(None);
        }
        // Miller instantiations are canonical by construction: the rhs is
        // canonicalized when the rule is built, the deterministic matcher
        // binds every pattern variable to a λ-abstracted canonical
        // subject subtree, and canonical forms are closed under
        // hereditary substitution — so re-canonicalizing here would be
        // the identity, and the fast path skips it (debug builds check).
        // General higher-order matches may produce non-canonical
        // instantiations and go through full canonicalization.
        let replacement = match rule.classification() {
            PatternClass::Miller => {
                debug_assert!(
                    normalize::canon(self.sig, rule.menv(), ctx, &replacement, ty)
                        .map(|c| c == replacement)
                        .unwrap_or(false),
                    "Miller instantiation of rule `{}` must already be canonical",
                    rule.name()
                );
                replacement
            }
            PatternClass::General => self.canonize(rule.menv(), ctx, &replacement, ty)?,
        };
        Ok(Some(replacement))
    }

    /// Performs one rewrite anywhere in the term according to the
    /// strategy, returning the new term and the applied rule's name.
    ///
    /// The subject `t` must be canonical and well-typed at `ty`.
    ///
    /// # Errors
    ///
    /// Kernel/unification errors on malformed subjects.
    pub fn rewrite_once(&self, ty: &Ty, t: &Term) -> Result<Option<(Term, String)>, RewriteError> {
        Ok(self.step_root(ty, t)?.map(|(t2, step)| (t2, step.rule)))
    }

    /// Like [`Engine::rewrite_once`], also reporting the rewrite
    /// position.
    pub fn rewrite_once_traced(
        &self,
        ty: &Ty,
        t: &Term,
    ) -> Result<Option<(Term, RewriteStep)>, RewriteError> {
        self.step_root(ty, t)
    }

    /// One strategy step on `t` in the binder context `ctx` (extended and
    /// restored in place while descending). The returned step's path is
    /// innermost-first; [`Engine::step_root`] reverses it.
    fn step(
        &self,
        ctx: &mut Ctx,
        ty: &Ty,
        t: &Term,
    ) -> Result<Option<(Term, RewriteStep)>, RewriteError> {
        bump(&self.counters.nodes_visited);
        let here = |this: &Self, ctx: &Ctx| {
            Ok::<_, RewriteError>(this.rewrite_here(ctx, ty, t)?.map(|(t2, rule, via)| {
                (
                    t2,
                    RewriteStep {
                        rule,
                        path: Vec::new(),
                        via,
                    },
                )
            }))
        };
        match self.cfg.strategy {
            Strategy::LeftmostOutermost => {
                if let Some(hit) = here(self, ctx)? {
                    return Ok(Some(hit));
                }
                self.step_children(ctx, ty, t)
            }
            Strategy::LeftmostInnermost => {
                if let Some(hit) = self.step_children(ctx, ty, t)? {
                    return Ok(Some(hit));
                }
                here(self, ctx)
            }
        }
    }

    /// [`Engine::step`] on a shared child node, going through the
    /// rule-normal-form cache: a hit skips the whole subtree, and a
    /// rewrite-free traversal marks the subtree for every later pass.
    ///
    /// Soundness of the `None` short-circuit: whether any rule fires
    /// inside `t` is a function of `t`'s structure (never its binder
    /// hints), the subject type, and the types of `t`'s free variables —
    /// the Miller matcher is purely structural, and general matching
    /// consults the ambient context only for those types. All three are
    /// part of the cache key; rules, signature, and budgets are fixed per
    /// engine.
    fn step_ref(
        &self,
        ctx: &mut Ctx,
        ty: &Ty,
        t: &TermRef,
    ) -> Result<Option<(Term, RewriteStep)>, RewriteError> {
        // Childless nodes bypass the cache entirely: re-proving a leaf
        // rule-normal costs one candidate scan, which is cheaper
        // than a cache entry (key, type clones) plus a lookup.
        let cacheable = self.cfg.cache
            && !matches!(
                t.term(),
                Term::Var(_) | Term::Const(_) | Term::Meta(_) | Term::Int(_) | Term::Unit
            );
        if cacheable {
            bump(&self.counters.cache_lookups);
            if self.cache_contains(ctx, ty, t) {
                bump(&self.counters.cache_hits);
                return Ok(None);
            }
            bump(&self.counters.cache_misses);
        }
        let r = self.step(ctx, ty, t.term())?;
        if cacheable && r.is_none() {
            self.cache_insert(ctx, ty, t);
        }
        Ok(r)
    }

    /// [`Engine::step`] at the root (closed subject, empty context),
    /// through the root-step memo: the full outcome of one strategy step
    /// — rewritten term, rule name, and position — is replayed by
    /// shallow node-id identity.
    ///
    /// Soundness: with fixed rules, signature, and match configuration
    /// (the cache-sharing contract) and the strategy recorded per entry,
    /// the outcome of a step on a closed, meta-free subject is a function
    /// of the subject's structure and type alone. Two roots that agree on
    /// their own node data and have id-identical children are
    /// α-equivalent, so the recorded outcome — trace entry included — is
    /// exactly what a fresh traversal would produce. Native δ-rules are
    /// assumed deterministic engine-wide; the rule-normal-form cache's
    /// `None` short-circuit already relies on the same assumption.
    fn step_root(&self, ty: &Ty, t: &Term) -> Result<Option<(Term, RewriteStep)>, RewriteError> {
        let step = |ctx: &mut Ctx| {
            Ok::<_, RewriteError>(self.step(ctx, ty, t)?.map(|(t2, mut step)| {
                step.path.reverse();
                (t2, step)
            }))
        };
        let mut ctx = Ctx::new();
        if !self.cfg.cache || t.has_metas() {
            return step(&mut ctx);
        }
        let Some(key) = root_key(t) else {
            return step(&mut ctx);
        };
        {
            let memo = self.caches.root_memo.borrow();
            if let Some(e) = memo.get(&key).and_then(|es| {
                es.iter().find(|e| {
                    e.ty == *ty
                        && e.strategy == self.cfg.strategy
                        && e.hint.as_ref() == root_hint(t)
                })
            }) {
                bump(&self.counters.memo_hits);
                return Ok(e.outcome.clone());
            }
        }
        bump(&self.counters.memo_misses);
        let r = step(&mut ctx)?;
        let mut memo = self.caches.root_memo.borrow_mut();
        if memo.len() >= ROOT_MEMO_CAP {
            memo.clear();
        }
        memo.entry(key).or_default().push(RootEntry {
            ty: ty.clone(),
            hint: root_hint(t).cloned(),
            strategy: self.cfg.strategy,
            outcome: r.clone(),
        });
        Ok(r)
    }

    fn cache_contains(&self, ctx: &Ctx, ty: &Ty, t: &TermRef) -> bool {
        let cache = self.caches.rule_nf.borrow();
        let Some(entries) = cache.get(&t.id()) else {
            return false;
        };
        entries.iter().any(|e| {
            e.ty == *ty
                && e.free_tys.len() == t.max_free() as usize
                && e.free_tys
                    .iter()
                    .enumerate()
                    .all(|(i, ft)| ctx.lookup(i as u32).map(|(_, vt)| vt) == Some(ft))
        })
    }

    fn cache_insert(&self, ctx: &Ctx, ty: &Ty, t: &TermRef) {
        let mut free_tys = Vec::with_capacity(t.max_free() as usize);
        for i in 0..t.max_free() {
            match ctx.lookup(i) {
                Some((_, vt)) => free_tys.push(vt.clone()),
                // Free variable without a context entry: the subject is
                // ill-scoped here; refuse to cache rather than key on a
                // partial context.
                None => return,
            }
        }
        let mut cache = self.caches.rule_nf.borrow_mut();
        if cache.len() >= RULE_NF_CAP {
            cache.clear();
        }
        cache.entry(t.id()).or_default().push(CacheEntry {
            ty: ty.clone(),
            free_tys,
        });
    }

    fn step_children(
        &self,
        ctx: &mut Ctx,
        ty: &Ty,
        t: &Term,
    ) -> Result<Option<(Term, RewriteStep)>, RewriteError> {
        // Paths are built innermost-first (one push per level) and
        // reversed once at the root.
        fn at(mut step: RewriteStep, i: u32) -> RewriteStep {
            step.path.push(i);
            step
        }
        match (t, ty) {
            (Term::Lam(h, body), Ty::Arrow(dom, cod)) => {
                ctx.push_mut(h.clone(), dom.as_ref().clone());
                let r = self.step_ref(ctx, cod, body);
                ctx.pop_mut();
                Ok(r?.map(|(b, step)| (Term::lam(h.clone(), b), at(step, 0))))
            }
            (Term::Pair(a, b), Ty::Prod(ta, tb)) => {
                // Rebuild around the rewritten component only: the
                // untouched sibling keeps its node (and cache entries).
                if let Some((a2, step)) = self.step_ref(ctx, ta, a)? {
                    return Ok(Some((Term::Pair(TermRef::new(a2), b.clone()), at(step, 0))));
                }
                Ok(self
                    .step_ref(ctx, tb, b)?
                    .map(|(b2, step)| (Term::Pair(a.clone(), TermRef::new(b2)), at(step, 1))))
            }
            _ => {
                // Neutral (or literal): descend into the spine arguments,
                // walking the head's type along them. The type is
                // borrowed from the signature for a monomorphic constant,
                // cloned out of the context for a variable (the descent
                // goes on to extend it), and synthesized otherwise (also
                // the error path for unknown heads).
                let (head, apps) = t.spine_apps();
                if apps.is_empty() {
                    return Ok(None);
                }
                let mono = match head {
                    Term::Const(c) => self
                        .sig
                        .const_ty(c.as_str())
                        .and_then(|s| s.as_mono())
                        .map(Cow::Borrowed),
                    Term::Var(i) => ctx.lookup(*i).map(|(_, ty)| Cow::Owned(ty.clone())),
                    _ => None,
                };
                let head_ty = match mono {
                    Some(ty) => ty,
                    None => Cow::Owned(
                        typeck::synth(self.sig, &Default::default(), ctx, head)
                            .map_err(RewriteError::Core)?,
                    ),
                };
                let mut rest = head_ty.as_ref();
                for (i, (prefix, arg)) in apps.iter().enumerate() {
                    let Ty::Arrow(aty, cod) = rest else { break };
                    rest = cod;
                    if let Some((a2, step)) = self.step_ref(ctx, aty, arg)? {
                        // Splice the new argument onto the unchanged
                        // prefix node, then re-attach the sibling
                        // argument nodes by pointer: only the spine from
                        // the rewrite site to the root is reallocated.
                        let mut acc = Term::App((*prefix).clone(), TermRef::new(a2));
                        for (_, sib) in &apps[i + 1..] {
                            acc = Term::App(TermRef::new(acc), (*sib).clone());
                        }
                        return Ok(Some((acc, at(step, i as u32))));
                    }
                }
                Ok(None)
            }
        }
    }

    /// Rewrites to a fixpoint (or until the step budget runs out). The
    /// subject is canonicalized first.
    ///
    /// # Errors
    ///
    /// Kernel/unification errors on malformed subjects or rules.
    pub fn normalize(&self, ty: &Ty, t: &Term) -> Result<NormalizeResult, RewriteError> {
        let before = self.stats();
        // Canonicalizing the subject through the memo also seeds it with
        // every subject subtree, which later replacement
        // canonicalizations share by pointer.
        let mut cur = self.canonize(&Default::default(), &Ctx::new(), t, ty)?;
        let mut applied = Vec::new();
        let mut trace = Vec::new();
        loop {
            if self.cert.is_none() && applied.len() >= self.cfg.max_steps {
                // Budget spent: report whether a fixpoint happens to have
                // been reached anyway.
                let at_fixpoint = self.step_root(ty, &cur)?.is_none();
                return Ok(NormalizeResult {
                    term: cur,
                    steps: applied.len(),
                    applied,
                    trace,
                    fixpoint: at_fixpoint,
                    stats: self.stats().delta(&before),
                });
            }
            // Cross-check a "proven terminating" certificate in debug
            // builds: a certified run that exceeds a generous multiple
            // of the budget means the size-change analysis (or the
            // fingerprint check) is unsound, which must be loud.
            #[cfg(debug_assertions)]
            if let Some(cert) = &self.cert {
                assert!(
                    applied.len() < self.cfg.max_steps.saturating_mul(64),
                    "HA016 violated: certified-terminating rule set exceeded \
                     {} steps (certificate: {})",
                    self.cfg.max_steps.saturating_mul(64),
                    cert.reason(),
                );
            }
            match self.step_root(ty, &cur)? {
                Some((next, step)) => {
                    applied.push(step.rule.clone());
                    trace.push(step);
                    cur = next;
                }
                None => {
                    return Ok(NormalizeResult {
                        term: cur,
                        steps: applied.len(),
                        applied,
                        trace,
                        fixpoint: true,
                        stats: self.stats().delta(&before),
                    })
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hoas_core::parse::{parse_term, parse_ty};

    fn sig() -> Signature {
        Signature::parse(
            "type i.
             type o.
             const and : o -> o -> o.
             const or : o -> o -> o.
             const not : o -> o.
             const forall : (i -> o) -> o.
             const g : ((o -> o) -> o) -> o.
             const p : i -> o.
             const r : o.",
        )
        .unwrap()
    }

    fn o() -> Ty {
        parse_ty("o").unwrap()
    }

    fn not_not() -> RuleSet {
        let s = sig();
        let mut rs = RuleSet::new();
        rs.push(Rule::parse(&s, "not-not", &o(), &[("P", "o")], "not (not ?P)", "?P").unwrap())
            .unwrap();
        rs
    }

    #[test]
    fn rewrites_at_root() {
        let s = sig();
        let rs = not_not();
        let e = Engine::new(&s, &rs);
        let t = parse_term(&s, "not (not r)").unwrap().term;
        let (out, name) = e.rewrite_once(&o(), &t).unwrap().unwrap();
        assert_eq!(name, "not-not");
        assert_eq!(out, Term::cnst("r"));
    }

    #[test]
    fn rewrites_under_binder_with_bound_var_in_solution() {
        // not (not (p x)) under forall: the match solution mentions the
        // ambient binder x.
        let s = sig();
        let rs = not_not();
        let e = Engine::new(&s, &rs);
        let t = parse_term(&s, r"forall (\x. not (not (p x)))")
            .unwrap()
            .term;
        let r = e.normalize(&o(), &t).unwrap();
        assert!(r.fixpoint);
        assert_eq!(r.steps, 1);
        assert_eq!(r.term, parse_term(&s, r"forall (\x. p x)").unwrap().term);
    }

    #[test]
    fn normalizes_nested_to_fixpoint() {
        let s = sig();
        let rs = not_not();
        let e = Engine::new(&s, &rs);
        // not^6 r reduces to r in 3 steps.
        let t = parse_term(&s, "not (not (not (not (not (not r)))))")
            .unwrap()
            .term;
        let r = e.normalize(&o(), &t).unwrap();
        assert_eq!(r.steps, 3);
        assert_eq!(r.term, Term::cnst("r"));
        assert!(r.applied.iter().all(|n| n == "not-not"));
    }

    #[test]
    fn rewrites_inside_the_argument_of_a_bound_variable_head() {
        // `f` heads a spine: its argument type comes from the context,
        // not the signature.
        let s = sig();
        let rs = not_not();
        let t = parse_term(&s, r"g (\f. f (not (not r)))").unwrap().term;
        let cached = Engine::new(&s, &rs).normalize(&o(), &t).unwrap();
        let uncached = Engine::with_config(
            &s,
            &rs,
            EngineConfig {
                cache: false,
                ..EngineConfig::default()
            },
        )
        .normalize(&o(), &t)
        .unwrap();
        assert_eq!(cached.term, parse_term(&s, r"g (\f. f r)").unwrap().term);
        let trace: Vec<String> = cached.trace.iter().map(ToString::to_string).collect();
        assert_eq!(trace, ["not-not @ [0.0.0]"]);
        assert_eq!(cached.term, uncached.term);
        assert_eq!(cached.trace, uncached.trace);
    }

    #[test]
    fn no_match_is_fixpoint_zero_steps() {
        let s = sig();
        let rs = not_not();
        let e = Engine::new(&s, &rs);
        let t = parse_term(&s, "and r r").unwrap().term;
        let r = e.normalize(&o(), &t).unwrap();
        assert_eq!(r.steps, 0);
        assert!(r.fixpoint);
        assert_eq!(r.term, t);
    }

    #[test]
    fn step_budget_respected() {
        // A looping rule: r ~> not (not r) grows forever.
        let s = sig();
        let mut rs = RuleSet::new();
        rs.push(Rule::parse(&s, "grow", &o(), &[], "r", "not (not r)").unwrap())
            .unwrap();
        let cfg = EngineConfig {
            max_steps: 10,
            ..EngineConfig::default()
        };
        let e = Engine::with_config(&s, &rs, cfg);
        let r = e.normalize(&o(), &Term::cnst("r")).unwrap();
        assert!(!r.fixpoint);
        assert_eq!(r.steps, 10);
    }

    #[test]
    fn innermost_vs_outermost_order() {
        // Rule: and ?P ?P ~> ?P. Subject: and (and r r) (and r r).
        let s = sig();
        let mut rs = RuleSet::new();
        rs.push(Rule::parse(&s, "idem", &o(), &[("P", "o")], "and ?P ?P", "?P").unwrap())
            .unwrap();
        let t = parse_term(&s, "and (and r r) (and r r)").unwrap().term;
        // Outermost: one step to `and r r`, then one more to r.
        let outer = Engine::new(&s, &rs);
        let (after_one, _) = outer.rewrite_once(&o(), &t).unwrap().unwrap();
        assert_eq!(after_one, parse_term(&s, "and r r").unwrap().term);
        // Innermost: first step reduces a child.
        let cfg = EngineConfig {
            strategy: Strategy::LeftmostInnermost,
            ..EngineConfig::default()
        };
        let inner = Engine::with_config(&s, &rs, cfg);
        let (after_one, _) = inner.rewrite_once(&o(), &t).unwrap().unwrap();
        assert_eq!(after_one, parse_term(&s, "and r (and r r)").unwrap().term);
        // Both reach the same fixpoint.
        assert_eq!(outer.normalize(&o(), &t).unwrap().term, Term::cnst("r"));
        assert_eq!(inner.normalize(&o(), &t).unwrap().term, Term::cnst("r"));
    }

    #[test]
    fn vacuous_binder_rule_under_engine() {
        // forall (\x. ?P) ~> ?P — drops a vacuous quantifier, but only
        // when the body really ignores x.
        let s = sig();
        let mut rs = RuleSet::new();
        rs.push(
            Rule::parse(
                &s,
                "drop-vacuous",
                &o(),
                &[("P", "o")],
                r"forall (\x. ?P)",
                "?P",
            )
            .unwrap(),
        )
        .unwrap();
        let e = Engine::new(&s, &rs);
        let vacuous = parse_term(&s, r"forall (\x. and r r)").unwrap().term;
        assert_eq!(
            e.normalize(&o(), &vacuous).unwrap().term,
            parse_term(&s, "and r r").unwrap().term
        );
        let dependent = parse_term(&s, r"forall (\x. p x)").unwrap().term;
        let r = e.normalize(&o(), &dependent).unwrap();
        assert_eq!(r.steps, 0, "must not drop a used binder");
    }
}

#[cfg(test)]
mod cache_tests {
    use super::*;
    use hoas_core::parse::{parse_term, parse_ty};

    fn sig() -> Signature {
        Signature::parse(
            "type o.
             const and : o -> o -> o.
             const not : o -> o.
             const r : o.",
        )
        .unwrap()
    }

    fn o() -> Ty {
        parse_ty("o").unwrap()
    }

    fn not_not(s: &Signature) -> RuleSet {
        let mut rs = RuleSet::new();
        rs.push(Rule::parse(s, "not-not", &o(), &[("P", "o")], "not (not ?P)", "?P").unwrap())
            .unwrap();
        rs
    }

    #[test]
    fn cache_hits_accumulate_and_stats_are_consistent() {
        let s = sig();
        let rs = not_not(&s);
        let e = Engine::new(&s, &rs);
        // The left subtree is rule-normal; after the rewrite at [1] the
        // second pass must skip it via the cache.
        let t = parse_term(&s, "and (and r r) (not (not r))").unwrap().term;
        let r = e.normalize(&o(), &t).unwrap();
        assert_eq!(r.steps, 1);
        assert_eq!(r.trace[0].path, vec![1]);
        assert!(r.stats.cache_hits >= 1, "stats: {:?}", r.stats);
        assert_eq!(
            r.stats.cache_hits + r.stats.cache_misses,
            r.stats.cache_lookups
        );
        assert!(r.stats.nodes_visited > 0);
        // Cumulative engine stats cover the call.
        let total = e.stats();
        assert!(total.cache_lookups >= r.stats.cache_lookups);
        assert_eq!(total.cache_hits + total.cache_misses, total.cache_lookups);
    }

    #[test]
    fn cache_survives_across_normalize_calls() {
        let s = sig();
        let rs = not_not(&s);
        let e = Engine::new(&s, &rs);
        let t = parse_term(&s, "and (and r r) (not (not r))").unwrap().term;
        let first = e.normalize(&o(), &t).unwrap();
        let second = e.normalize(&o(), &t).unwrap();
        assert_eq!(first.term, second.term);
        assert_eq!(first.trace, second.trace);
        // The replay is memoized end to end: the canonical-form memo
        // hands back the first call's subject by pointer, so every
        // root-level step of the second call replays from the root-step
        // memo without touching the traversal at all.
        assert!(
            second.stats.memo_hits >= 1,
            "second call re-uses marks from the first: {:?}",
            second.stats
        );
        assert_eq!(
            second.stats.nodes_visited, 0,
            "fully memoized replay should not traverse: {:?}",
            second.stats
        );
    }

    #[test]
    fn disabled_cache_agrees_and_reports_no_lookups() {
        let s = sig();
        let rs = not_not(&s);
        let cached = Engine::new(&s, &rs);
        let uncached = Engine::with_config(
            &s,
            &rs,
            EngineConfig {
                cache: false,
                ..EngineConfig::default()
            },
        );
        let t = parse_term(&s, "and (not (not r)) (and r (not (not r)))")
            .unwrap()
            .term;
        let a = cached.normalize(&o(), &t).unwrap();
        let b = uncached.normalize(&o(), &t).unwrap();
        assert_eq!(a.term, b.term);
        assert_eq!(a.steps, b.steps);
        assert_eq!(a.applied, b.applied);
        assert_eq!(a.trace, b.trace);
        assert_eq!(b.stats.cache_lookups, 0);
        assert!(a.stats.cache_lookups > 0);
    }

    #[test]
    fn spine_rebuild_preserves_sibling_nodes() {
        // Rewrite inside argument 1 of a 2-argument spine: argument 0's
        // node must survive by pointer so its cache entry stays valid.
        let s = sig();
        let rs = not_not(&s);
        let e = Engine::new(&s, &rs);
        let t = parse_term(&s, "and (and r r) (not (not r))").unwrap().term;
        let canon = normalize::canon(&s, &MetaEnv::new(), &Ctx::new(), &t, &o()).unwrap();
        let (next, _) = e.rewrite_once(&o(), &canon).unwrap().unwrap();
        let (_, before_apps) = canon.spine_apps();
        let (_, after_apps) = next.spine_apps();
        assert!(TermRef::ptr_eq(before_apps[0].1, after_apps[0].1));
    }
}

#[cfg(test)]
mod trace_tests {
    use super::*;
    use crate::rule::{Rule, RuleSet};
    use hoas_core::parse::{parse_term, parse_ty};

    fn sig() -> Signature {
        Signature::parse(
            "type o.
             const and : o -> o -> o.
             const not : o -> o.
             const r : o.",
        )
        .unwrap()
    }

    #[test]
    fn trace_records_positions() {
        let s = sig();
        let mut rs = RuleSet::new();
        rs.push(
            Rule::parse(
                &s,
                "not-not",
                &parse_ty("o").unwrap(),
                &[("P", "o")],
                "not (not ?P)",
                "?P",
            )
            .unwrap(),
        )
        .unwrap();
        let e = Engine::new(&s, &rs);
        // and (not (not r)) (and r (not (not r)))
        let t = parse_term(&s, "and (not (not r)) (and r (not (not r)))")
            .unwrap()
            .term;
        let out = e.normalize(&parse_ty("o").unwrap(), &t).unwrap();
        assert_eq!(out.steps, 2);
        // Leftmost-outermost: first at [0], then at [1.1].
        assert_eq!(out.trace[0].path, vec![0]);
        assert_eq!(out.trace[1].path, vec![1, 1]);
        assert_eq!(out.trace[0].to_string(), "not-not @ [0]");
        assert_eq!(out.trace[1].to_string(), "not-not @ [1.1]");
    }

    #[test]
    fn root_rewrite_has_empty_path() {
        let s = sig();
        let mut rs = RuleSet::new();
        rs.push(
            Rule::parse(
                &s,
                "not-not",
                &parse_ty("o").unwrap(),
                &[("P", "o")],
                "not (not ?P)",
                "?P",
            )
            .unwrap(),
        )
        .unwrap();
        let e = Engine::new(&s, &rs);
        let t = parse_term(&s, "not (not r)").unwrap().term;
        let (_, step) = e
            .rewrite_once_traced(&parse_ty("o").unwrap(), &t)
            .unwrap()
            .unwrap();
        assert!(step.path.is_empty());
        assert_eq!(step.to_string(), "not-not @ []");
        assert_eq!(step.via, MatchPath::Pattern, "not-not is a Miller rule");
    }

    #[test]
    fn trace_records_match_path() {
        let s = Signature::parse(
            "type i.
             type o.
             const p : i -> o.
             const q : i -> o.
             const all : (i -> o) -> o.
             const a : i.",
        )
        .unwrap();
        let o = parse_ty("o").unwrap();
        let mut rs = RuleSet::new();
        // Miller rule: fast path.
        rs.push(
            Rule::parse(
                &s,
                "all-swap",
                &o,
                &[("Q", "i -> o")],
                r"all (\x. ?Q x)",
                r"all (\x. ?Q x)",
            )
            .unwrap(),
        )
        .unwrap();
        // General rule: ?F applied to a constant is outside the fragment.
        rs.push(Rule::parse(&s, "f-at-a", &o, &[("F", "i -> o")], "?F a", "?F a").unwrap())
            .unwrap();
        let e = Engine::new(&s, &rs);
        let ctx = Ctx::new();
        let miller_subject = parse_term(&s, r"all (\x. p x)").unwrap().term;
        let (_, name, via) = e.rewrite_here(&ctx, &o, &miller_subject).unwrap().unwrap();
        assert_eq!((name.as_str(), via), ("all-swap", MatchPath::Pattern));
        let general_subject = parse_term(&s, "p a").unwrap().term;
        let (_, name, via) = e.rewrite_here(&ctx, &o, &general_subject).unwrap().unwrap();
        assert_eq!((name.as_str(), via), ("f-at-a", MatchPath::General));
    }
}
