//! The resolution engine: an explicit and-or search machine with
//! heap-allocated choice points, depth-first search with backtracking,
//! answer tabling keyed on interned nodes, clause heads unified in place
//! against calls (pattern unification for what the walk leaves over),
//! eigenvariable scope checking, and hypothetical clauses with
//! stack-scoped lifetimes.
//!
//! # The machine
//!
//! Search state is explicit. One run owns a single proof state
//! (`St`): a dense binding array indexed by metavariable id, an undo
//! trail, the eigenvariable context and the hypothetical clauses in
//! scope. A **branch** is a work list plus its depth budget; a **choice
//! point** is a `Frame` holding a trail mark, the work list to resume
//! and the untried alternatives (clause candidates, or stored table
//! answers). Backtracking unwinds the trail to the frame's mark instead
//! of restoring a copied state, and pops work from the frame stack
//! instead of unwinding host frames, so a 10⁵-deep right-recursive
//! derivation costs 10⁵ heap frames and zero host stack.
//!
//! Bindings are **triangular**: a binding may mention metavariables
//! bound later, and terms are read through the array where they are
//! used. Binding a metavariable is O(1) in the number of bindings so
//! far. Eigenvariables are de Bruijn variables over the eigenvariable
//! context: `Π x:τ. G` pushes `τ` and runs `G` with `x` as `Var(0)`, and
//! every metavariable carries the **level** (context length) it was
//! created at. A binding may mention only eigenvariables below its
//! metavariable's level; see `DESIGN.md` §10.
//!
//! Goals **share structure** with the clauses they come from: a goal is
//! a subterm of a canonical clause body (or of the canonical query) plus
//! the base of its clause's block of slots (an `Env`), never a renamed
//! copy, and a binding is such a pair too. A call is unified with a
//! candidate head by one lockstep walk over the two (see `head_unify`)
//! that reads the call through the binding array in place: it follows a
//! bound metavariable where it meets one and β-reduces only where a
//! bound functional metavariable is applied. A head variable's first
//! occurrence binds in place to the call's own subterm, and only what
//! the walk cannot decide goes to `pattern::unify_against`. Program
//! clauses, hypothetical clauses and stored table answers all go through
//! the walk. Canonical terms are built only for answers, table keys,
//! the unifier's residues and the debug builds' cross-checks.
//!
//! Answer tabling ([`crate::table`]) runs *generators* for tabled call
//! variants: a sub-search on the same machine, with a proof state of its
//! own, whose answers land in the variant's table entry, restarted to a
//! least fixpoint when the variant consumed its own in-progress entry (a
//! same-SCC loop). Repeat calls replay stored answers through an
//! `Alts::Answers` choice point without searching.

use crate::cert::ProgramCert;
use crate::program::{fingerprint_admits, spine_head, Clause, Goal, Program, Rigid};
use crate::table::{EntryState, SolveTables, TableAnswer, TableEntry, TableMode, TableStats};
use hoas_core::ctx::Ctx;
use hoas_core::sig::Signature;
use hoas_core::term::{MetaEnv, MetaTypes};
use hoas_core::{normalize, subst, MVar, Sym, Term, TermRef, Ty};
use hoas_unify::msubst::Bindings;
use hoas_unify::pattern::{self, Delta};
use hoas_unify::problem::is_supported_meta_ty;
use hoas_unify::UnifyError;
use std::cell::{Cell, OnceCell};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::rc::Rc;

/// Search budgets and tabling.
#[derive(Clone, Copy, Debug)]
pub struct SolveConfig {
    /// Maximum resolution (clause-application) steps along one branch.
    pub max_depth: u32,
    /// Stop after this many answers.
    pub max_solutions: usize,
    /// Total goal-processing steps across the whole search.
    pub fuel: u64,
    /// Whether (and which) calls are tabled. [`TableMode::Certified`]
    /// follows the analysis certificate's per-predicate eligibility
    /// verdict; [`TableMode::Force`] overrides it.
    pub table: TableMode,
}

impl Default for SolveConfig {
    fn default() -> Self {
        SolveConfig {
            max_depth: 512,
            max_solutions: 1,
            fuel: 1_000_000,
            table: TableMode::Off,
        }
    }
}

/// Which budget cut the search first (severity-ordered: a fuel cut
/// aborts the whole search, a table cut taints replayed answers, a
/// depth cut prunes single branches).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CutBy {
    /// Some branch hit [`SolveConfig::max_depth`].
    Depth,
    /// A replayed table entry was itself budget-cut ([`EntryState::Partial`]),
    /// so the replay may be missing answers.
    Table,
    /// The global fuel budget ran out; the search stopped wherever it
    /// was.
    Fuel,
}

impl CutBy {
    fn rank(self) -> u8 {
        match self {
            CutBy::Depth => 0,
            CutBy::Table => 1,
            CutBy::Fuel => 2,
        }
    }
}

/// Records `c` into `slot`, keeping the higher-severity cut.
fn note_cut(slot: &mut Option<CutBy>, c: CutBy) {
    if slot.is_none_or(|old| c.rank() > old.rank()) {
        *slot = Some(c);
    }
}

/// One answer: bindings for the query's metavariables (unsolved ones are
/// absent — they are universally free in the answer).
#[derive(Clone, Debug)]
pub struct Answer {
    /// `(variable, solution)` pairs, in query-occurrence order.
    pub bindings: Vec<(MVar, Term)>,
}

impl Answer {
    /// The binding for a query variable by hint name.
    pub fn get(&self, hint: &str) -> Option<&Term> {
        self.bindings
            .iter()
            .find(|(m, _)| m.hint().as_str() == hint)
            .map(|(_, t)| t)
    }
}

impl fmt::Display for Answer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.bindings.is_empty() {
            return f.write_str("yes");
        }
        for (i, (m, t)) in self.bindings.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{m} = {t}")?;
        }
        Ok(())
    }
}

/// The overall result of a query.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Answers, in discovery order.
    pub answers: Vec<Answer>,
    /// Which budget cut some branch, if any (an empty answer list is
    /// then inconclusive). `None` means the search space was exhausted.
    pub cut: Option<CutBy>,
    /// Whether some branch floundered (hit a goal outside the pattern
    /// fragment) — also inconclusive for that branch.
    pub floundered: bool,
    /// Tabling counters for this solve (all zero when tabling is off).
    pub tables: TableStats,
    /// Reads and writes of stored metavariable bindings (every binding a
    /// read follows, links included, and every write): the solver's
    /// binding work, a machine-independent measure of how the search
    /// state scales with derivation length. A call's bound argument is
    /// read where it is used, so a step reads it once for the candidate
    /// filter and once per candidate head it is walked against.
    pub binding_visits: u64,
}

impl Outcome {
    /// Whether some branch was cut by a budget, making an empty answer
    /// list inconclusive.
    pub fn incomplete(&self) -> bool {
        self.cut.is_some()
    }
}

/// Hard errors (program/goal malformed; search failure is *not* an
/// error, see [`Outcome`]).
#[derive(Clone, Debug)]
#[non_exhaustive]
pub enum LpError {
    /// An atomic goal has no rigid predicate head (flexible atom).
    Floundered(String),
    /// An atom's head is not a declared predicate (constant of base
    /// target type).
    BadAtom(String),
    /// A `⇒`-clause with its own universal variables (unsupported —
    /// quantify with `Π` in the goal instead).
    LocalClauseWithVars(String),
    /// Underlying kernel/unification failure on malformed input.
    Unify(UnifyError),
}

impl fmt::Display for LpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LpError::Floundered(a) => write!(f, "goal floundered: `{a}` has a flexible head"),
            LpError::BadAtom(a) => write!(f, "`{a}` is not a well-formed atom"),
            LpError::LocalClauseWithVars(c) => write!(
                f,
                "hypothetical clause `{c}` has universal variables; bind them with pi in the goal"
            ),
            LpError::Unify(e) => write!(f, "unification failure: {e}"),
        }
    }
}

impl std::error::Error for LpError {}

impl From<UnifyError> for LpError {
    fn from(e: UnifyError) -> Self {
        LpError::Unify(e)
    }
}

#[derive(Clone)]
enum Work<'a> {
    /// A goal of the query or of a clause body, read at `Env`.
    G(&'a Goal, Env),
    /// An atom that must resolve against clauses, never the table: the
    /// root call of a generator sub-search (routing it through the
    /// table would consume its own in-progress entry and fixpoint at
    /// zero answers instead of producing any).
    AtomByClauses(Term),
    /// Ends the scope of the newest hypothetical clause.
    PopClause,
    /// Ends the scope of the newest eigenvariable.
    PopEigen,
    /// Debug-build mode sanitizer marker (pushed only when a
    /// certificate mode matched the call): when this pops, the atom's
    /// subtree of work is fully discharged, so the recorded output
    /// positions must be ground under the current solution — anything
    /// else falsifies the static mode verdict.
    #[allow(dead_code)]
    ModeExit(Term, Vec<usize>),
}

/// Where a shared term is read: the term's metavariable `k` is slot
/// `base + k` of the binding array, and its free variable `i` reads as
/// `i + shift` when `i >= cut` (binders of the term crossed on the way
/// down raise `cut`). A clause body is read at its block's base and the
/// query at base 0, neither shifted; a hypothetical clause is shifted by
/// the eigenvariables pushed since it was assumed, and a binding by the
/// distance from its metavariable's level to where it is read.
///
/// A reading never sends a variable at or above `cut` below it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Env {
    base: u32,
    cut: u32,
    shift: i32,
}

impl Env {
    /// The query's reading, and that of every term the machine builds.
    const ROOT: Env = Env {
        base: 0,
        cut: 0,
        shift: 0,
    };

    /// A clause's terms, their variables in the block at `base`.
    fn at(base: u32) -> Env {
        Env { base, ..Env::ROOT }
    }

    /// The reading under one more binder of the term.
    fn under(self) -> Env {
        Env {
            cut: self.cut + 1,
            ..self
        }
    }

    /// The slot metavariable `m` of the term reads as.
    fn slot(self, m: &MVar) -> u32 {
        self.base + m.id()
    }

    /// The index free variable `i` of the term reads as.
    fn var(self, i: u32) -> u32 {
        if i < self.cut {
            i
        } else {
            i.wrapping_add_signed(self.shift)
        }
    }

    /// Whether every variable of `t` reads as itself.
    fn keeps(self, t: &Term) -> bool {
        self.shift == 0 || t.max_free() <= self.cut
    }

    /// `t`'s variables as they read, or `None` when they read as
    /// themselves. Metavariables are left alone.
    fn lift(self, t: &Term) -> Option<Term> {
        if self.keeps(t) {
            return None;
        }
        Some(match u32::try_from(self.shift) {
            Ok(up) => subst::shift_above(t, up, self.cut),
            Err(_) => subst::unshift_above(t, self.shift.unsigned_abs(), self.cut),
        })
    }
}

/// A term where it is read.
#[derive(Clone, Copy)]
struct At<'t> {
    term: &'t Term,
    env: Env,
}

impl<'t> At<'t> {
    fn root(term: &'t Term) -> At<'t> {
        At {
            term,
            env: Env::ROOT,
        }
    }

    /// A subterm not under a binder of this one (an argument, a
    /// projection's pair).
    fn at<'s>(self, term: &'s Term) -> At<'s> {
        At {
            term,
            env: self.env,
        }
    }

    /// The body of one of this term's λs.
    fn body<'s>(self, term: &'s Term) -> At<'s> {
        At {
            term,
            env: self.env.under(),
        }
    }
}

/// Hypothetical clauses the machine rebuilt (see [`Machine::assume`]),
/// kept for the rest of the solve: an append-only list, so that a kept
/// clause never moves and goals can point into it.
#[derive(Default)]
struct Kept {
    clause: OnceCell<Clause>,
    next: OnceCell<Box<Kept>>,
}

impl Drop for Kept {
    fn drop(&mut self) {
        // Iteratively, so that a long list costs no host stack.
        let mut next = self.next.take();
        while let Some(mut node) = next {
            next = node.next.take();
        }
    }
}

/// A hypothetical clause in scope, read at `env_at(depth)` at the
/// current depth. The head predicate and argument fingerprint are
/// precomputed when it is assumed, so candidate selection need not
/// re-walk the head spine per call.
struct Local<'a> {
    clause: &'a Clause,
    /// The clause's reading at the depth it was assumed at (`cut` 0).
    env: Env,
    depth: u32,
    pred: Option<Rigid>,
    fingerprint: Vec<Option<Rigid>>,
}

impl Local<'_> {
    /// The clause's reading at eigenvariable depth `depth`: shifted by
    /// the eigenvariables pushed since it was assumed.
    fn env_at(&self, depth: u32) -> Env {
        Env {
            shift: self.env.shift + (depth - self.depth) as i32,
            ..self.env
        }
    }
}

/// A stored binding: `term` read at `Env { base, cut: 0, shift }` at
/// its metavariable's level. It shares the clause body, call or answer
/// it came from.
#[derive(Clone)]
struct Bound {
    term: Term,
    base: u32,
    shift: i32,
}

/// One metavariable's entry in the binding array.
struct Slot {
    /// Shared with the clause the metavariable renames a variable of,
    /// so that a candidate's block of slots copies no type.
    ty: Rc<Ty>,
    /// The eigenvariable-context length the metavariable was created
    /// at (lowered when an older metavariable's binding mentions it):
    /// its binding may mention only eigenvariables below this level.
    level: u32,
    /// The binding. It may mention metavariables bound later (a
    /// triangular substitution).
    binding: Option<Bound>,
}

impl Slot {
    fn new(ty: Rc<Ty>, level: u32) -> Slot {
        Slot {
            ty,
            level,
            binding: None,
        }
    }
}

/// One undoable change to a [`St`].
enum Undo<'a> {
    Bound(u32),
    Lowered(u32, u32),
    EigenPushed,
    EigenPopped(Sym, Ty),
    LocalPushed,
    LocalPopped(Rc<Local<'a>>),
}

/// A position to backtrack to: the trail length and the number of
/// allocated metavariables.
#[derive(Clone, Copy)]
struct Mark {
    trail: usize,
    metas: usize,
}

/// The proof state of one machine run.
struct St<'a> {
    slots: Vec<Slot>,
    trail: Vec<Undo<'a>>,
    /// Slots below this index predate the newest choice point, so only
    /// their changes are trailed; younger slots are dropped wholesale
    /// when the machine backtracks.
    fence: usize,
    /// Eigenvariable types, innermost last: `Var(i)` in a goal at the
    /// current depth is the eigenvariable at level `len - 1 - i`.
    eigen: Ctx,
    /// Stack-scoped hypothetical clauses, newest last.
    locals: Vec<Rc<Local<'a>>>,
    /// Binding-array reads and writes (see [`Outcome::binding_visits`]).
    visits: Cell<u64>,
}

impl<'a> St<'a> {
    /// A state whose metavariables `0..k` have the given types, all at
    /// level 0.
    fn new(tys: &[Ty]) -> St<'a> {
        St {
            slots: tys
                .iter()
                .map(|ty| Slot::new(Rc::new(ty.clone()), 0))
                .collect(),
            trail: Vec::new(),
            fence: 0,
            eigen: Ctx::new(),
            locals: Vec::new(),
            visits: Cell::new(0),
        }
    }

    /// The current eigenvariable depth.
    fn depth(&self) -> u32 {
        self.eigen.len() as u32
    }

    fn next_meta(&self) -> u32 {
        self.slots.len() as u32
    }

    fn mark(&self) -> Mark {
        Mark {
            trail: self.trail.len(),
            metas: self.slots.len(),
        }
    }

    /// Undoes every change made since `m`.
    fn undo(&mut self, m: Mark) {
        while self.trail.len() > m.trail {
            match self.trail.pop().expect("above the mark") {
                Undo::Bound(id) => self.slots[id as usize].binding = None,
                Undo::Lowered(id, level) => self.slots[id as usize].level = level,
                Undo::EigenPushed => {
                    self.eigen.pop_mut();
                }
                Undo::EigenPopped(hint, ty) => self.eigen.push_mut(hint, ty),
                Undo::LocalPushed => {
                    self.locals.pop();
                }
                Undo::LocalPopped(l) => self.locals.push(l),
            }
        }
        self.slots.truncate(m.metas);
    }

    /// A fresh metavariable at the current level.
    fn fresh(&mut self, hint: &Sym, ty: Ty) -> MVar {
        let level = self.depth();
        self.slots.push(Slot::new(Rc::new(ty), level));
        MVar::new(self.next_meta() - 1, hint.clone())
    }

    /// A block of fresh slots at the current level, one per type, for
    /// the variables of a clause head or a stored answer.
    fn block(&mut self, tys: impl ExactSizeIterator<Item = Rc<Ty>>) -> Block {
        let base = self.next_meta();
        let n = tys.len() as u32;
        let level = self.depth();
        self.slots.extend(tys.map(|ty| Slot::new(ty, level)));
        Block { base, n }
    }

    fn push_eigen(&mut self, hint: Sym, ty: Ty) {
        self.eigen.push_mut(hint, ty);
        self.trail.push(Undo::EigenPushed);
    }

    fn pop_eigen(&mut self) {
        let (hint, ty) = self.eigen.pop_mut().expect("scoped by PopEigen");
        self.trail.push(Undo::EigenPopped(hint, ty));
    }

    /// Brings `clause`, read at `env` (`cut` 0) at the current depth,
    /// into scope.
    fn push_local(&mut self, clause: &'a Clause, env: Env) {
        debug_assert_eq!(env.cut, 0, "a hypothetical clause is read at one shift");
        let depth = self.depth();
        let local = Local {
            pred: self.rigid_head(&clause.head, env, depth),
            fingerprint: (clause.head.spine().1.iter())
                .map(|a| self.rigid_head(a, env, depth))
                .collect(),
            clause,
            env,
            depth,
        };
        self.locals.push(Rc::new(local));
        self.trail.push(Undo::LocalPushed);
    }

    fn pop_local(&mut self) {
        let l = self.locals.pop().expect("scoped by PopClause");
        self.trail.push(Undo::LocalPopped(l));
    }

    fn visit(&self) {
        self.visits.set(self.visits.get() + 1);
    }

    /// Runs `f` on the state and undoes everything it changed, binding
    /// visits included: every change is trailed meanwhile, also to
    /// slots allocated since the newest choice point.
    #[cfg(any(test, debug_assertions))]
    fn trial<R>(&mut self, f: impl FnOnce(&mut St<'a>) -> R) -> R {
        let (fence, visits) = (self.fence, self.visits.get());
        self.fence = self.slots.len();
        let mark = self.mark();
        let out = f(self);
        self.undo(mark);
        self.fence = fence;
        self.visits.set(visits);
        out
    }

    /// The binding slot `id` ends at, following bindings to bare
    /// metavariables (`?A ↦ ?B ↦ …`, which flex-flex steps build one link
    /// per resolution step) in a loop, so that host recursion never
    /// grows with a chain's length. `None` when `id` is unbound.
    fn follow(&self, id: u32) -> Option<(&Slot, &Bound)> {
        let mut slot = self.slots.get(id as usize)?;
        let mut bound = slot.binding.as_ref()?;
        self.visit();
        while let Term::Meta(next) = &bound.term {
            let Some((next_slot, next_bound)) = self
                .slots
                .get((bound.base + next.id()) as usize)
                .and_then(|s| Some((s, s.binding.as_ref()?)))
            else {
                break;
            };
            self.visit();
            (slot, bound) = (next_slot, next_bound);
        }
        Some((slot, bound))
    }

    /// The binding slot `id` ends at (see [`St::follow`]) and its
    /// reading at context length `pos`. A link's target has a level no
    /// higher than its source's, so reading the end of the chain at
    /// `pos` covers every link.
    ///
    /// `pos` may lie below the slot's level: a binding of an older
    /// metavariable can reach a younger bound one, whose binding its
    /// escape check then kept clear of the variables in between.
    fn read_binding(&self, id: u32, pos: u32) -> Option<(Term, Env)> {
        let (slot, b) = self.follow(id)?;
        let env = Env {
            base: b.base,
            cut: 0,
            shift: b.shift + pos as i32 - slot.level as i32,
        };
        Some((b.term.clone(), env))
    }

    /// `t`, read at `env` at context length `pos` (eigenvariables plus
    /// binders above `t`), with its head metavariable read through its
    /// binding when that is bound; `None` when it is not. Applied to the
    /// innermost binders in order (`?F x` in `of (?F x) ?B`), a bound
    /// functional metavariable reads as its binding's body in place.
    /// Applied to anything else (`?F ?U` in `eval (?F ?U) ?V`), it is
    /// β-reduced: the hereditary substitution builds the result.
    fn expose(&self, t: &Term, env: Env, pos: u32) -> Option<(Term, Env)> {
        let mut out: Option<(Term, Env)> = None;
        loop {
            let (cur, cur_env) = match &out {
                Some((t, env)) => (t, *env),
                None => (t, env),
            };
            let Term::Meta(m) = spine_head(cur) else {
                return out;
            };
            let Some((bound, benv)) = self.read_binding(cur_env.slot(m), pos) else {
                return out;
            };
            let k = spine_len(cur) as u32;
            let next = if k == 0 {
                (bound, benv)
            } else {
                match lams_exact(&bound, k) {
                    // `?F xₖ₋₁ … x₀` with `?F := λᵏ. M`: M in place, its
                    // own binders read as the arguments, the rest as
                    // the binding's free variables.
                    Some(body) if benv.shift >= k as i32 && innermost_binders(cur, cur_env, k) => (
                        body.clone(),
                        Env {
                            base: benv.base,
                            cut: k,
                            shift: benv.shift - k as i32,
                        },
                    ),
                    _ => return Some((self.resolve_view(cur, cur_env, pos), Env::ROOT)),
                }
            };
            out = Some(next);
        }
    }

    /// The rigid head `t` resolves to, read at `env` at context length
    /// `pos` (eigenvariables only: `t` is under no binder of its own):
    /// a constant, an eigenvariable by level, or `None` for a flexible
    /// head or one the resolution would take from an argument. Nothing
    /// is built.
    fn rigid_head(&self, t: &Term, env: Env, pos: u32) -> Option<Rigid> {
        let rigid_var = |i: u32| (i < pos).then(|| Rigid::Eigen(pos - 1 - i));
        match spine_head(t) {
            Term::Const(c) => Some(Rigid::Const(c.clone())),
            Term::Var(i) => rigid_var(env.var(*i)),
            Term::Meta(m) => {
                let (bound, benv) = self.read_binding(env.slot(m), pos)?;
                let k = spine_len(t) as u32;
                let body = lams_exact(&bound, k)?;
                match spine_head(body) {
                    Term::Const(c) => Some(Rigid::Const(c.clone())),
                    Term::Var(j) if *j >= k => rigid_var((j - k).wrapping_add_signed(benv.shift)),
                    _ => None,
                }
            }
            _ => None,
        }
    }

    /// Whether no unbound metavariable is reachable from `t` read at
    /// `env`. (A β-step could still drop one; then this says `false`.)
    fn is_ground(&self, t: &Term, env: Env) -> bool {
        if !t.has_metas() {
            return true;
        }
        match t {
            Term::Meta(m) => match self.follow(env.slot(m)) {
                Some((_, b)) => self.is_ground(&b.term, Env::at(b.base)),
                None => false,
            },
            Term::Lam(_, b) | Term::Fst(b) | Term::Snd(b) => self.is_ground(b, env),
            Term::App(a, b) | Term::Pair(a, b) => self.is_ground(a, env) && self.is_ground(b, env),
            Term::Var(_) | Term::Const(_) | Term::Int(_) | Term::Unit => true,
        }
    }

    /// `t`, a term at the current depth, with every bound metavariable
    /// dereferenced through the binding array, β-normal. Subterms no
    /// binding reaches come back as the same nodes.
    fn resolve(&self, t: &Term) -> Term {
        self.resolve_view(t, Env::ROOT, self.depth())
    }

    /// The canonical term `t` reads as at `env`, at context length
    /// `pos`: every bound metavariable replaced by its (itself resolved)
    /// binding, every other one renamed to its slot, β-normal.
    fn resolve_view(&self, t: &Term, env: Env, pos: u32) -> Term {
        match self.graft(t, env, pos) {
            Some(grafted) => normalize::nf(&grafted),
            None if t.is_beta_normal() => t.clone(),
            None => normalize::nf(t),
        }
    }

    /// `t` read at `env` at context length `pos`, bound metavariables
    /// replaced, or `None` when it reads as itself. Redexes a λ-binding
    /// creates are left to the caller's normalization.
    fn graft(&self, t: &Term, env: Env, pos: u32) -> Option<Term> {
        if !t.has_metas() {
            return env.lift(t);
        }
        match t {
            Term::Meta(m) => {
                let id = env.slot(m);
                self.deref(id, pos)
                    .or_else(|| (id != m.id()).then(|| Term::Meta(MVar::new(id, m.hint().clone()))))
            }
            Term::Var(_) | Term::Const(_) | Term::Int(_) | Term::Unit => None,
            Term::Lam(h, b) => Some(Term::lam(
                h.clone(),
                self.graft_ref(b, env.under(), pos + 1)?,
            )),
            Term::App(f, a) => self
                .graft_pair(f, a, env, pos)
                .map(|(f, a)| Term::app(f, a)),
            Term::Pair(a, b) => self
                .graft_pair(a, b, env, pos)
                .map(|(a, b)| Term::pair(a, b)),
            Term::Fst(p) => Some(Term::fst(self.graft_ref(p, env, pos)?)),
            Term::Snd(p) => Some(Term::snd(self.graft_ref(p, env, pos)?)),
        }
    }

    fn graft_ref(&self, t: &TermRef, env: Env, pos: u32) -> Option<TermRef> {
        self.graft(t, env, pos).map(TermRef::new)
    }

    fn graft_pair(
        &self,
        a: &TermRef,
        b: &TermRef,
        env: Env,
        pos: u32,
    ) -> Option<(TermRef, TermRef)> {
        match (self.graft_ref(a, env, pos), self.graft_ref(b, env, pos)) {
            (None, None) => None,
            (a2, b2) => Some((
                a2.unwrap_or_else(|| a.clone()),
                b2.unwrap_or_else(|| b.clone()),
            )),
        }
    }

    /// The binding of slot `id` read at context length `pos` (see
    /// [`St::read_binding`]), its own bound metavariables replaced, or
    /// `None` when it is unbound. Redexes are left to the caller.
    fn deref(&self, id: u32, pos: u32) -> Option<Term> {
        let (t, env) = self.read_binding(id, pos)?;
        Some(self.graft(&t, env, pos).unwrap_or(t))
    }

    /// Records the solutions of one unification (posed at the current
    /// depth). Returns `false` when a solution would let a metavariable
    /// mention an eigenvariable at or above its level; the state is
    /// then partly updated and the caller backtracks.
    fn merge(&mut self, delta: Delta) -> bool {
        for (m, ty) in delta.fresh {
            // The unifier numbered them from `next_meta`, in order.
            let slot = self.fresh(m.hint(), ty);
            debug_assert_eq!(slot, m);
        }
        let depth = self.depth();
        delta
            .subst
            .iter()
            .all(|(m, t)| self.bind(m.id() as usize, t, Env::ROOT, depth))
    }

    /// Binds slot `id` to `t` read at `env` at context length `pos`,
    /// sharing `t`. A metavariable at level `pos` can mention every
    /// variable in scope, and (by the level invariant) nothing `t`
    /// reaches has a higher level, so that binding is O(1). An older one
    /// is checked for escape and passes its level down to the
    /// metavariables `t` reaches.
    fn bind(&mut self, id: usize, t: &Term, env: Env, pos: u32) -> bool {
        let level = self.slots[id].level;
        debug_assert!(level <= pos, "slot {id} is bound above its scope");
        if level < pos {
            if self.escapes(t, env, pos, level, 0) {
                return false;
            }
            self.lower(t, env, pos, level);
        }
        let up = (pos - level) as i32;
        let binding = if env.keeps(t) {
            Bound {
                term: t.clone(),
                base: env.base,
                shift: -up,
            }
        } else if env.cut == 0 {
            Bound {
                term: t.clone(),
                base: env.base,
                shift: env.shift - up,
            }
        } else {
            // Two shifts, one per side of `cut`: not one reading.
            Bound {
                term: self.resolve_view(t, env, pos),
                base: 0,
                shift: -up,
            }
        };
        if id < self.fence {
            self.trail.push(Undo::Bound(id as u32));
        }
        self.slots[id].binding = Some(binding);
        self.visit();
        true
    }

    /// Whether `t`, read at `env` at context length `pos` (which counts
    /// the `bound` binders of the term crossed so far), mentions a
    /// variable at or above `level` other than those binders: an
    /// eigenvariable a metavariable at `level` must not see.
    fn escapes(&self, t: &Term, env: Env, pos: u32, level: u32, bound: u32) -> bool {
        if !t.has_metas() && (t.max_free() <= bound || env.keeps(t)) {
            return mentions_vars_below(t, pos - level - bound, bound);
        }
        match t {
            Term::Var(i) => {
                let j = env.var(*i);
                j >= bound && j < pos - level
            }
            Term::Meta(m) => match self.slots.get(env.slot(m) as usize) {
                Some(slot) if slot.binding.is_some() && slot.level > level => {
                    let (b, benv) = self.read_binding(env.slot(m), pos).expect("bound");
                    self.escapes(&b, benv, pos, level, 0)
                }
                _ => false,
            },
            Term::App(..) if self.bound_head(t, env) => {
                let r = self.resolve_view(t, env, pos);
                mentions_vars_below(&r, pos - level - bound, bound)
            }
            Term::Lam(_, b) => self.escapes(b, env.under(), pos + 1, level, bound + 1),
            Term::App(a, b) | Term::Pair(a, b) => {
                self.escapes(a, env, pos, level, bound) || self.escapes(b, env, pos, level, bound)
            }
            Term::Fst(p) | Term::Snd(p) => self.escapes(p, env, pos, level, bound),
            Term::Const(_) | Term::Int(_) | Term::Unit => false,
        }
    }

    /// Lowers every unbound metavariable above `level` that `t`, read at
    /// `env` at context length `pos`, reaches to `level`.
    fn lower(&mut self, t: &Term, env: Env, pos: u32, level: u32) {
        if !t.has_metas() {
            return;
        }
        match t {
            Term::Meta(m) => {
                let id = env.slot(m) as usize;
                let slot = &self.slots[id];
                if slot.level <= level {
                    // Its binding reaches no metavariable above it.
                    return;
                }
                if slot.binding.is_some() {
                    let (b, benv) = self.read_binding(id as u32, pos).expect("bound");
                    self.lower(&b, benv, pos, level);
                } else {
                    if id < self.fence {
                        self.trail.push(Undo::Lowered(id as u32, slot.level));
                    }
                    self.slots[id].level = level;
                }
            }
            Term::App(..) if self.bound_head(t, env) => {
                let r = self.resolve_view(t, env, pos);
                self.lower_levels(&r, level);
            }
            Term::Lam(_, b) => self.lower(b, env.under(), pos + 1, level),
            Term::App(a, b) | Term::Pair(a, b) => {
                self.lower(a, env, pos, level);
                self.lower(b, env, pos, level);
            }
            Term::Fst(p) | Term::Snd(p) => self.lower(p, env, pos, level),
            Term::Var(_) | Term::Const(_) | Term::Int(_) | Term::Unit => {}
        }
    }

    /// Whether `t` is a bound metavariable applied to arguments: a
    /// β-redex once resolved, which may drop some of them.
    fn bound_head(&self, t: &Term, env: Env) -> bool {
        matches!(spine_head(t), Term::Meta(m) if self.is_bound(env.slot(m)))
    }

    fn is_bound(&self, id: u32) -> bool {
        self.slots
            .get(id as usize)
            .is_some_and(|s| s.binding.is_some())
    }

    /// Lowers every metavariable in `t`, a resolved term, above `level`
    /// to it.
    fn lower_levels(&mut self, t: &Term, level: u32) {
        if !t.has_metas() {
            return;
        }
        match t {
            Term::Meta(m) => {
                let id = m.id() as usize;
                debug_assert!(self.slots[id].binding.is_none(), "{m} is bound");
                let old = self.slots[id].level;
                if old > level {
                    if id < self.fence {
                        self.trail.push(Undo::Lowered(id as u32, old));
                    }
                    self.slots[id].level = level;
                }
            }
            Term::Lam(_, b) | Term::Fst(b) | Term::Snd(b) => self.lower_levels(b, level),
            Term::App(a, b) | Term::Pair(a, b) => {
                self.lower_levels(a, level);
                self.lower_levels(b, level);
            }
            Term::Var(_) | Term::Const(_) | Term::Int(_) | Term::Unit => {}
        }
    }
}

/// Whether `t`, under `under` binders, mentions a free variable with
/// index below `n` — an eigenvariable among the `n` innermost.
fn mentions_vars_below(t: &Term, n: u32, under: u32) -> bool {
    if t.max_free() <= under {
        return false;
    }
    match t {
        Term::Var(i) => *i >= under && i - under < n,
        Term::Lam(_, b) => mentions_vars_below(b, n, under + 1),
        Term::App(a, b) | Term::Pair(a, b) => {
            mentions_vars_below(a, n, under) || mentions_vars_below(b, n, under)
        }
        Term::Fst(p) | Term::Snd(p) => mentions_vars_below(p, n, under),
        Term::Const(_) | Term::Meta(_) | Term::Int(_) | Term::Unit => false,
    }
}

/// `t` under exactly its first `n` λs, or `None` when it has fewer.
fn lams_exact(t: &Term, n: u32) -> Option<&Term> {
    let mut cur = t;
    for _ in 0..n {
        match cur {
            Term::Lam(_, b) => cur = b,
            _ => return None,
        }
    }
    Some(cur)
}

/// Whether the `k` arguments of the spine `t`, read at `env`, are the
/// `k` innermost binders in scope in order, `xₖ₋₁ … x₀` (each possibly
/// η-expanded).
fn innermost_binders(t: &Term, env: Env, k: u32) -> bool {
    let mut i = 0;
    let mut cur = t;
    while let Term::App(f, a) = cur {
        if eta_var(a, ETA_DEPTH).map(|v| env.var(v)) != Some(i) {
            return false;
        }
        i += 1;
        cur = f;
    }
    i == k
}

impl MetaTypes for St<'_> {
    fn meta_ty(&self, m: &MVar) -> Option<&Ty> {
        self.slots.get(m.id() as usize).map(|s| &*s.ty)
    }
}

impl Bindings for St<'_> {
    fn is_solved(&self, m: &MVar) -> bool {
        self.is_bound(m.id())
    }

    fn apply(&self, t: &Term) -> Term {
        self.resolve(t)
    }
}

/// The current and-branch: remaining goals and remaining depth budget.
struct Branch<'a> {
    work: Vec<Work<'a>>,
    depth: u32,
}

/// One untried alternative source at a choice point.
enum Alts {
    /// Clause resolution: candidates are hypothetical clauses (indices
    /// into the state's `locals` at the frame's mark, newest first)
    /// followed by program clauses (indices into [`Program::clauses`]).
    /// The call is `atom` read at `env`.
    Clauses {
        atom: Term,
        env: Env,
        target: Ty,
        candidates: Vec<Candidate>,
        next: usize,
    },
    /// Answer replay: unify each stored answer of the table entry for
    /// `key` against the resolved call atom. The bucket is re-read on
    /// every advance, so answers a generator adds *after* this frame
    /// was pushed are still found (the in-progress consumer protocol).
    Answers {
        atom: Term,
        target: Ty,
        key: TermRef,
        next: usize,
    },
}

#[derive(Clone, Copy)]
enum Candidate {
    /// Index into the state's `locals`.
    Local(usize),
    /// Index into the program's clause list.
    Prog(usize),
}

/// A reified choice point: the trail mark to unwind to, the work to
/// resume, and the alternatives not yet tried.
struct Frame<'a> {
    mark: Mark,
    work: Vec<Work<'a>>,
    depth: u32,
    alts: Alts,
}

/// Where a run's answers go.
enum Sink<'s> {
    /// The top-level query: record bindings of the query metas, stop at
    /// `max_solutions`.
    Top {
        query_metas: &'s [MVar],
        answers: &'s mut Vec<Answer>,
        max: usize,
    },
    /// A tabling generator: canonicalize the solved call atom into the
    /// entry for `key` (never stops early — tables want all answers).
    Table { key: TermRef },
}

/// Host-recursion bound for nested generator runs: a chain of this many
/// *distinct* in-flight tabled variants falls back to plain resolution
/// (sound and complete, just untabled) instead of growing the host
/// stack further.
const TABLE_NEST_CAP: u32 = 200;

struct Machine<'a> {
    prog: &'a Program,
    cfg: &'a SolveConfig,
    cert: Option<&'a ProgramCert>,
    tables: Option<&'a mut SolveTables>,
    /// The free node of the list of rebuilt hypothetical clauses.
    kept: &'a Kept,
    /// The buffer a call's argument fingerprint is read into.
    call_fp: Vec<Option<Rigid>>,
    stats: TableStats,
    binding_visits: u64,
    fuel: u64,
    floundered: bool,
    /// Current generator nesting (host-stack) depth.
    nest: u32,
}

/// Runs a query against a program.
///
/// `menv` declares the types of the goal's metavariables (logic
/// variables).
///
/// # Errors
///
/// [`LpError`] on malformed programs/goals; an unprovable goal yields an
/// empty [`Outcome`] instead. An ill-typed goal, or an ill-typed program
/// clause the search selects (see [`Program`]), is
/// [`LpError::Unify`]`(`[`UnifyError::IllTyped`]`(..))`.
pub fn solve(
    prog: &Program,
    menv: &MetaEnv,
    goal: &Goal,
    cfg: &SolveConfig,
) -> Result<Outcome, LpError> {
    solve_inner(prog, menv, goal, cfg, None, None)
}

/// Like [`solve`], but enforcing the verdicts of an analysis
/// certificate: under [`TableMode::Certified`], calls the certificate
/// marks table-eligible are answered from variant tables. In debug
/// builds the mode sanitizer re-verifies output groundness at the exit
/// of every moded call (see [`crate::cert`]) and panics citing `HA018`.
///
/// A certificate that does not cover `prog` (fingerprint mismatch —
/// e.g. minted for an earlier revision of the program) is ignored and
/// the search proceeds exactly as [`solve`].
///
/// # Errors
///
/// As [`solve`].
pub fn solve_certified(
    prog: &Program,
    menv: &MetaEnv,
    goal: &Goal,
    cfg: &SolveConfig,
    cert: &ProgramCert,
) -> Result<Outcome, LpError> {
    let cert = cert.covers(prog).then_some(cert);
    solve_inner(prog, menv, goal, cfg, cert, None)
}

/// Like [`solve_certified`], but with caller-owned answer tables that
/// persist across queries (and, via `hoas_rewrite::image`, across
/// processes). Tables pinned to a different program fingerprint are
/// reset before the search — stale answers must never replay.
///
/// # Errors
///
/// As [`solve`].
pub fn solve_with(
    prog: &Program,
    menv: &MetaEnv,
    goal: &Goal,
    cfg: &SolveConfig,
    cert: Option<&ProgramCert>,
    tables: &mut SolveTables,
) -> Result<Outcome, LpError> {
    let cert = cert.filter(|c| c.covers(prog));
    if tables.fingerprint() != Some(prog.fingerprint64()) {
        tables.reset_for(prog);
    }
    solve_inner(prog, menv, goal, cfg, cert, Some(tables))
}

fn solve_inner(
    prog: &Program,
    menv: &MetaEnv,
    goal: &Goal,
    cfg: &SolveConfig,
    cert: Option<&ProgramCert>,
    tables: Option<&mut SolveTables>,
) -> Result<Outcome, LpError> {
    // Resolve each goal metavariable to the caller's `menv` key: the
    // interned term store canonicalizes `MVar` hints per numeric id, so
    // hints recovered from the goal term may differ from the ones the
    // caller declared (and later looks answers up by via `Answer::get`).
    let mut query_metas = goal.metas();
    let mut tys = Vec::with_capacity(query_metas.len());
    for m in &mut query_metas {
        match menv.get_key_value(m) {
            Some((k, ty)) => {
                check_meta_ty(k, ty)?;
                *m = k.clone();
                tys.push(ty.clone());
            }
            None => {
                return Err(LpError::Unify(UnifyError::IllTyped(
                    hoas_core::Error::UnknownMeta { mvar: m.clone() },
                )))
            }
        }
    }
    // The binding array is indexed by id: number the query's
    // metavariables `0..k` in first-occurrence order (usually already
    // so), whatever ids the caller chose.
    let dense;
    let goal = if query_metas
        .iter()
        .enumerate()
        .all(|(i, m)| m.id() as usize == i)
    {
        goal
    } else {
        let ids: HashMap<u32, u32> = (0..).zip(&query_metas).map(|(i, m)| (m.id(), i)).collect();
        let rename = |m: &MVar| ids.get(&m.id()).map(|&i| MVar::new(i, m.hint().clone()));
        dense = goal.map_terms(0, &mut |t, _| rename_metas(t, &rename));
        &dense
    };
    // Resolution keeps terms canonical (canonical forms are closed under
    // the hereditary substitution reading through a binding performs),
    // so the query is canonicalized once here and the program's clauses
    // once per program; the walk and the unifier then take both as they
    // are.
    let goal = goal.canonical(prog.sig(), &St::new(&tys), &mut Ctx::new())?;
    // Tabling with no caller-owned tables still wants intra-query
    // sharing: use a query-local scratch table set.
    let mut scratch;
    let tables = match tables {
        Some(t) => Some(t),
        None if cfg.table != TableMode::Off => {
            scratch = SolveTables::for_program(prog);
            Some(&mut scratch)
        }
        None => None,
    };
    let kept = Kept::default();
    let mut machine = Machine {
        prog,
        cfg,
        cert,
        tables,
        kept: &kept,
        call_fp: Vec::new(),
        stats: TableStats::default(),
        binding_visits: 0,
        fuel: cfg.fuel,
        floundered: false,
        nest: 0,
    };
    let mut out = Outcome::default();
    let branch = Branch {
        work: vec![Work::G(&goal, Env::ROOT)],
        depth: cfg.max_depth,
    };
    let sink = &mut Sink::Top {
        query_metas: &query_metas,
        answers: &mut out.answers,
        max: cfg.max_solutions,
    };
    let result = machine.run(St::new(&tys), branch, sink, &mut Vec::new());
    // Whatever happened (including a hard error or a fuel abort),
    // in-flight table entries must not look complete.
    if let Some(t) = machine.tables.as_deref_mut() {
        t.quiesce();
    }
    out.floundered = machine.floundered;
    out.tables = machine.stats;
    out.binding_visits = machine.binding_visits;
    out.cut = result?;
    Ok(out)
}

/// Rejects metavariable types outside the unifier's fragment, once,
/// where the solver creates the metavariable.
fn check_meta_ty(m: &MVar, ty: &Ty) -> Result<(), LpError> {
    if is_supported_meta_ty(ty) {
        Ok(())
    } else {
        Err(LpError::Unify(UnifyError::UnsupportedMetaType {
            mvar: m.clone(),
            ty: ty.clone(),
        }))
    }
}

impl<'a> Machine<'a> {
    /// Runs one depth-first machine pass over its own proof state,
    /// delivering answers to `sink`, and adds the state's binding visits
    /// to the machine's. Returns the budget cut observed by this run
    /// (not counting enclosing runs). `consumed` collects the keys of
    /// in-progress table entries this run replayed from — the generator
    /// fixpoint protocol's dependency set.
    fn run(
        &mut self,
        mut st: St<'a>,
        branch: Branch<'a>,
        sink: &mut Sink<'_>,
        consumed: &mut Vec<TermRef>,
    ) -> Result<Option<CutBy>, LpError> {
        let result = self.run_on(&mut st, branch, sink, consumed);
        self.binding_visits += st.visits.get();
        result
    }

    fn run_on(
        &mut self,
        st: &mut St<'a>,
        branch: Branch<'a>,
        sink: &mut Sink<'_>,
        consumed: &mut Vec<TermRef>,
    ) -> Result<Option<CutBy>, LpError> {
        let mut frames: Vec<Frame<'a>> = Vec::new();
        let mut cut: Option<CutBy> = None;
        let mut cur = Some(branch);
        'machine: loop {
            let Some(mut b) = cur.take() else {
                // Backtrack: advance the innermost choice point with
                // alternatives left; pop it when dry.
                loop {
                    let Some(f) = frames.last_mut() else {
                        return Ok(cut);
                    };
                    let (next, dry) = self.advance(st, f)?;
                    if dry {
                        frames.pop();
                        st.fence = frames.last().map_or(0, |f| f.mark.metas);
                    }
                    if let Some(nb) = next {
                        cur = Some(nb);
                        continue 'machine;
                    }
                }
            };
            // Process the branch's work until it dies, answers, or
            // reaches a choice.
            loop {
                if self.fuel == 0 {
                    note_cut(&mut cut, CutBy::Fuel);
                    return Ok(cut);
                }
                self.fuel -= 1;
                let Some(work) = b.work.pop() else {
                    // All goals discharged: deliver the answer.
                    if self.deliver(st, sink) {
                        return Ok(cut);
                    }
                    break;
                };
                let (atom, env, by_clauses) = match work {
                    Work::PopClause => {
                        st.pop_local();
                        continue;
                    }
                    Work::PopEigen => {
                        st.pop_eigen();
                        continue;
                    }
                    Work::ModeExit(atom, outputs) => {
                        // Debug-build sanitizer: the moded call
                        // succeeded, so its output positions must now
                        // be ground.
                        let atom = st.resolve(&atom);
                        let (_, args) = atom.spine();
                        for &i in &outputs {
                            assert!(
                                args.get(i).is_none_or(|a| !a.has_metas()),
                                "HA018 violated: output argument {i} of `{atom}` is \
                                 not ground at exit despite a matched static mode",
                            );
                        }
                        continue;
                    }
                    Work::G(goal, env) => match goal {
                        Goal::True => continue,
                        Goal::And(l, r) => {
                            b.work.push(Work::G(r, env));
                            b.work.push(Work::G(l, env));
                            continue;
                        }
                        Goal::Impl(d, g) => {
                            if !d.vars.is_empty() {
                                return Err(LpError::LocalClauseWithVars(d.to_string()));
                            }
                            self.assume(st, d, env);
                            b.work.push(Work::PopClause);
                            b.work.push(Work::G(g, env));
                            continue;
                        }
                        Goal::All(hint, ty, body) => {
                            // A fresh eigenvariable: the body's `Var(0)`,
                            // typed by one more context entry.
                            st.push_eigen(hint.clone(), ty.clone());
                            b.work.push(Work::PopEigen);
                            b.work.push(Work::G(body, env.under()));
                            continue;
                        }
                        Goal::Atom(t) => (t.clone(), env, false),
                    },
                    Work::AtomByClauses(t) => (t, Env::ROOT, true),
                };
                // The branch either failed or became a choice point;
                // both resume by backtracking.
                self.step_atom(
                    st,
                    b,
                    atom,
                    env,
                    by_clauses,
                    &mut frames,
                    &mut cut,
                    consumed,
                )?;
                break;
            }
            // Branch ended; `cur` is already `None`, so the next
            // iteration backtracks.
        }
    }

    /// Brings the hypothetical clause `d`, read at `env`, into scope. It
    /// is read where it was assumed, shifted by the eigenvariables
    /// pushed since. When `env` shifts some variables and not others (a
    /// clause assumed under a `Π` of a shifted hypothetical clause's
    /// body), the two shifts are no single reading, so the clause is
    /// rebuilt as it reads here and kept for the rest of the solve.
    fn assume(&mut self, st: &mut St<'a>, d: &'a Clause, env: Env) {
        if env.shift == 0 || env.cut == 0 {
            st.push_local(d, Env { cut: 0, ..env });
            return;
        }
        let depth = st.depth();
        let rebuilt = d.map_terms(0, &mut |t, under| {
            st.resolve_view(
                t,
                Env {
                    cut: env.cut + under,
                    ..env
                },
                depth + under,
            )
        });
        let node: &'a Kept = self.kept;
        let _ = node.clause.set(rebuilt);
        self.kept = node.next.get_or_init(Box::default);
        st.push_local(node.clause.get().expect("just set"), Env::ROOT);
    }

    /// Delivers one completed derivation to the sink. Returns `true`
    /// when the run should stop (answer quota reached).
    fn deliver(&mut self, st: &St<'a>, sink: &mut Sink<'_>) -> bool {
        match sink {
            Sink::Top {
                query_metas,
                answers,
                max,
            } => {
                // Residual free metavariables are renamed apart
                // ('A, 'B, …) — the solver's internal fresh names reuse
                // hints, which would print ambiguously.
                let raw: Vec<(MVar, Term)> = (0..)
                    .zip(query_metas.iter())
                    .filter(|&(i, _)| st.is_bound(i))
                    .map(|(i, m)| {
                        let t = st.resolve(&Term::Meta(MVar::new(i, m.hint().clone())));
                        (m.clone(), t)
                    })
                    .collect();
                answers.push(Answer {
                    bindings: canonicalize_free_metas(raw),
                });
                answers.len() >= *max
            }
            Sink::Table { key } => {
                let tables = self
                    .tables
                    .as_deref_mut()
                    .expect("generator implies tables");
                let call = tables.entries[key].call.clone();
                if let Some(ans) = canonicalize_answer(st, &call) {
                    let entry = tables.entries.get_mut(key).expect("entry pinned");
                    if entry.insert(ans) {
                        self.stats.answers_inserted += 1;
                    }
                }
                false
            }
        }
    }

    /// Advances a choice point to its next viable alternative, producing
    /// the branch to run, and reports whether the frame is now dry. A
    /// clause frame is dry once its last candidate has been taken, so
    /// the machine pops it right away and later bindings need no trail.
    fn advance(
        &mut self,
        st: &mut St<'a>,
        f: &mut Frame<'a>,
    ) -> Result<(Option<Branch<'a>>, bool), LpError> {
        match &mut f.alts {
            Alts::Clauses {
                atom,
                env,
                target,
                candidates,
                next,
            } => {
                while *next < candidates.len() {
                    let cand = candidates[*next];
                    *next += 1;
                    st.undo(f.mark);
                    let call = At {
                        term: atom,
                        env: *env,
                    };
                    if let Some((body, env)) = self.try_clause(st, call, target, cand)? {
                        // The last candidate leaves the frame dry: it is
                        // popped, so its work list moves to the branch.
                        let dry = *next == candidates.len();
                        let mut work = if dry {
                            std::mem::take(&mut f.work)
                        } else {
                            f.work.clone()
                        };
                        work.push(Work::G(body, env));
                        let branch = Branch {
                            work,
                            depth: f.depth - 1,
                        };
                        return Ok((Some(branch), dry));
                    }
                }
                st.undo(f.mark);
                Ok((None, true))
            }
            Alts::Answers {
                atom,
                target,
                key,
                next,
            } => loop {
                st.undo(f.mark);
                let Some(ans) = self
                    .tables
                    .as_deref()
                    .and_then(|t| t.entries.get(key))
                    .and_then(|e| e.answers.get(*next))
                    .cloned()
                else {
                    return Ok((None, true));
                };
                *next += 1;
                // The answer's metavariables `0..k` are its variables.
                let block = st.block(ans.meta_tys.iter().map(|ty| Rc::new(ty.clone())));
                let head = At {
                    term: &ans.term,
                    env: Env::at(block.base),
                };
                if self.unify_head(st, target, At::root(atom), head, block)? {
                    self.stats.answers_reused += 1;
                    let branch = Branch {
                        work: f.work.clone(),
                        depth: f.depth - 1,
                    };
                    return Ok((Some(branch), false));
                }
            },
        }
    }

    /// Resolves the call against one candidate clause: gives the
    /// clause's variables a fresh block of slots and unifies its head
    /// with the call in place. Returns the body to prove and where it is
    /// read, or `None` when the head does not match (the state may then
    /// hold partial bindings and fresh metavariables; the caller unwinds
    /// or discards them).
    fn try_clause(
        &mut self,
        st: &mut St<'a>,
        call: At<'_>,
        target: &Ty,
        cand: Candidate,
    ) -> Result<Option<(&'a Goal, Env)>, LpError> {
        let (clause, env, block) = match cand {
            Candidate::Local(i) => {
                let local = &st.locals[i];
                (local.clause, local.env_at(st.depth()), Block::NONE)
            }
            Candidate::Prog(i) => {
                let prog: &'a Program = self.prog;
                let r = prog.resolvent(i)?;
                let block = st.block(r.var_tys.iter().cloned());
                (&r.clause, Env::at(block.base), block)
            }
        };
        let head = At {
            term: &clause.head,
            env,
        };
        Ok(self
            .unify_head(st, target, call, head, block)?
            .then_some((&clause.body, env)))
    }

    /// Unifies a call with a program clause's head, a hypothetical
    /// clause's head or a stored answer, whose own variables live in
    /// `block`, and records the solution (see [`head_unify`]). `false`
    /// means no match: a refutation, an eigenvariable escape, or a
    /// flounder (noted on the machine). Debug builds check every result
    /// against [`pattern::unify_against`] on the resolved call and head.
    fn unify_head(
        &mut self,
        st: &mut St<'a>,
        target: &Ty,
        call: At<'_>,
        head: At<'_>,
        block: Block,
    ) -> Result<bool, LpError> {
        let sig = self.prog.sig();
        #[cfg(debug_assertions)]
        let expected = reference_unify(sig, st, target, call, head, block);
        let walked = head_unify(sig, st, target, call, head, block);
        #[cfg(debug_assertions)]
        check_against_reference(st, &expected, &walked, call, head, block);
        match walked {
            Ok(matched) => Ok(matched),
            Err(UnifyError::NotPattern { .. }) => {
                self.floundered = true;
                Ok(false)
            }
            Err(e) if no_match(&e) => Ok(false),
            Err(e) => Err(LpError::Unify(e)),
        }
    }

    /// Resolves an atomic goal, read at `env`: flounder/error handling,
    /// the depth gate, then either the tabling path or an ordinary
    /// clause choice point.
    #[allow(clippy::too_many_arguments)]
    fn step_atom(
        &mut self,
        st: &mut St<'a>,
        b: Branch<'a>,
        atom: Term,
        env: Env,
        by_clauses: bool,
        frames: &mut Vec<Frame<'a>>,
        cut: &mut Option<CutBy>,
        consumed: &mut Vec<TermRef>,
    ) -> Result<(), LpError> {
        let depth = st.depth();
        // A bound predicate variable: read the atom through it.
        let (atom, env) = st.expose(&atom, env, depth).unwrap_or((atom, env));
        let bad = |st: &St<'_>| LpError::BadAtom(st.resolve_view(&atom, env, depth).to_string());
        let (pred, pred_ty) = match spine_head(&atom) {
            Term::Const(c) => {
                let ty = (self.prog.sig().const_ty(c.as_str())).ok_or_else(|| bad(st))?;
                (
                    Rigid::Const(c.clone()),
                    ty.as_mono().ok_or_else(|| bad(st))?,
                )
            }
            Term::Var(i) if env.var(*i) < depth => {
                let i = env.var(*i);
                let ty = st.eigen.lookup(i).expect("in scope").1;
                (Rigid::Eigen(depth - 1 - i), ty)
            }
            Term::Meta(_) => {
                self.floundered = true;
                return Ok(());
            }
            _ => return Err(bad(st)),
        };
        let target = pred_ty.uncurry().1.clone();
        if b.depth == 0 {
            note_cut(cut, CutBy::Depth);
            return Ok(());
        }

        // A generator root (`by_clauses`) is the producer for its own
        // variant and must go to the clauses.
        if let Rigid::Const(c) = &pred {
            if !by_clauses {
                let call = At { term: &atom, env };
                match self.table_gate(st, c, call) {
                    Some((resolved, true)) => {
                        return self.step_tabled(st, b, resolved, c, target, frames, cut, consumed)
                    }
                    Some((resolved, false)) => {
                        return self.push_clause_frame(
                            st,
                            b,
                            resolved,
                            Env::ROOT,
                            &pred,
                            target,
                            frames,
                        )
                    }
                    None => {}
                }
            }
        }
        self.push_clause_frame(st, b, atom, env, &pred, target, frames)
    }

    /// Pushes an ordinary clause-resolution choice point over the
    /// branch for the call `atom` read at `env`, or fails the branch
    /// outright when no clause can match.
    #[allow(clippy::too_many_arguments)]
    fn push_clause_frame(
        &mut self,
        st: &mut St<'a>,
        mut b: Branch<'a>,
        atom: Term,
        env: Env,
        pred: &Rigid,
        target: Ty,
        frames: &mut Vec<Frame<'a>>,
    ) -> Result<(), LpError> {
        let depth = st.depth();
        // The call's argument fingerprint, read through the binding
        // array.
        let mut call = std::mem::take(&mut self.call_fp);
        call.clear();
        let mut spine = &atom;
        while let Term::App(f, a) = spine {
            call.push(st.rigid_head(a, env, depth));
            spine = f;
        }
        call.reverse();
        // Local clauses first (newest first), then the program's bucket
        // for this predicate — O(locals + bucket), not a scan over every
        // program clause. Both are filtered by head predicate and
        // argument fingerprint, so a clause with a clashing rigid
        // argument never costs a block of slots or a head walk.
        let mut candidates: Vec<Candidate> = st
            .locals
            .iter()
            .enumerate()
            .rev()
            .filter(|(_, l)| {
                l.pred.as_ref() == Some(pred) && fingerprint_admits(&l.fingerprint, &call)
            })
            .map(|(i, _)| Candidate::Local(i))
            .collect();
        if let Rigid::Const(c) = pred {
            candidates.extend(
                self.prog
                    .clause_indices_for(c)
                    .iter()
                    .filter(|&&i| self.prog.admits(i, &call))
                    .map(|&i| Candidate::Prog(i)),
            );
            push_mode_exit(self.cert, &mut b.work, c, st, At { term: &atom, env });
        }
        self.call_fp = call;
        if candidates.is_empty() {
            return Ok(());
        }
        push_frame(
            st,
            frames,
            b,
            Alts::Clauses {
                atom,
                env,
                target,
                candidates,
                next: 0,
            },
        );
        Ok(())
    }

    /// Whether the call is answered through the variant tables: the
    /// mode allows it, no hypothetical clause is in scope (a local for
    /// *any* predicate can reach the sub-derivation), the atom mentions
    /// no eigenvariable (tables are context-free; the resolved atom's
    /// free variables are exactly its eigenvariables), and — under
    /// [`TableMode::Certified`] — the certificate marks the predicate
    /// eligible and some admitted mode's input positions are ground.
    ///
    /// The call is resolved only once the predicate's verdict allows
    /// tabling, so a call of an ineligible predicate never is; `None`
    /// then. Otherwise the resolved call and the verdict. A call resolved
    /// and not tabled goes on resolved, so that its clause variables
    /// bind to built terms and the next call need not read through them
    /// again.
    fn table_gate(&self, st: &St<'a>, pred: &Sym, call: At<'_>) -> Option<(Term, bool)> {
        if self.tables.is_none() || !st.locals.is_empty() {
            return None;
        }
        let verdict = match self.cfg.table {
            TableMode::Off => return None,
            TableMode::Force => None,
            TableMode::Certified => {
                let verdict = self.cert.and_then(|c| c.verdict(pred))?;
                if !verdict.table {
                    return None;
                }
                Some(verdict)
            }
        };
        let atom = st.resolve_view(call.term, call.env, st.depth());
        let tabled = atom.max_free() == 0
            && verdict.is_none_or(|verdict| {
                let (_, args) = atom.spine();
                verdict.modes.iter().any(|m| {
                    m.inputs.len() == args.len()
                        && m.inputs
                            .iter()
                            .zip(&args)
                            .all(|(&input, a)| !input || !a.has_metas())
                })
            });
        Some((atom, tabled))
    }

    /// Answers a tabled call, `atom` resolved: replay a complete entry,
    /// consume an in-progress one (same-SCC loop), or run the variant's
    /// generator to its restart fixpoint and then replay. See
    /// `DESIGN.md` §10 for the protocol and the soundness argument.
    #[allow(clippy::too_many_arguments)]
    fn step_tabled(
        &mut self,
        st: &mut St<'a>,
        mut b: Branch<'a>,
        atom: Term,
        pred: &Sym,
        target: Ty,
        frames: &mut Vec<Frame<'a>>,
        cut: &mut Option<CutBy>,
        consumed: &mut Vec<TermRef>,
    ) -> Result<(), LpError> {
        let Some((key, canonical, call_tys)) = canonicalize_call(st, &atom) else {
            // An untyped residual meta (cannot replay soundly): fall
            // back to plain resolution.
            let pred = Rigid::Const(pred.clone());
            return self.push_clause_frame(st, b, atom, Env::ROOT, &pred, target, frames);
        };
        let state = self
            .tables
            .as_deref()
            .and_then(|t| t.entries.get(&key))
            .map(|e| e.state);
        match state {
            Some(EntryState::Complete) => {
                self.stats.hits += 1;
            }
            Some(EntryState::InProgress) => {
                // A same-SCC loop: consume the answers known so far;
                // the enclosing generator's restart fixpoint supplies
                // the rest.
                self.stats.suspensions += 1;
                if !consumed.contains(&key) {
                    consumed.push(key.clone());
                }
            }
            None | Some(EntryState::Partial) | Some(EntryState::Provisional) => {
                if self.nest >= TABLE_NEST_CAP {
                    // Too many distinct in-flight variants on the host
                    // stack: resolve this one the ordinary way.
                    let pred = Rigid::Const(pred.clone());
                    return self.push_clause_frame(st, b, atom, Env::ROOT, &pred, target, frames);
                }
                self.stats.variant_misses += 1;
                self.run_generator(&key, pred, &canonical, &call_tys, cut, consumed)?;
            }
        }
        // In debug builds, cross-check the tabling verdict dynamically:
        // a certificate-gated call must still have a ground admitted
        // mode after canonicalization (the gate checked the
        // solution-applied atom; canonicalization must not change it).
        #[cfg(debug_assertions)]
        if self.cfg.table == TableMode::Certified {
            assert!(
                self.table_gate(st, pred, At::root(&atom))
                    .is_some_and(|(_, tabled)| tabled),
                "HA021 violated: call `{atom}` lost tabling eligibility \
                 between gate and table lookup",
            );
        }
        push_mode_exit(self.cert, &mut b.work, pred, st, At::root(&atom));
        push_frame(
            st,
            frames,
            b,
            Alts::Answers {
                atom,
                target,
                key,
                next: 0,
            },
        );
        Ok(())
    }

    /// Runs the generator for one variant to its restart fixpoint:
    /// repeat the sub-search (a fresh proof state over the canonical
    /// call, answers landing in the entry) until an iteration in which
    /// the entry consumed itself adds no new answers. Marks the entry
    /// `Complete` (no foreign in-progress entries were read),
    /// `Provisional` (some were — an enclosing generator will restart
    /// us), or `Partial` (a budget cut or flounder left the answer set
    /// inconclusive).
    fn run_generator(
        &mut self,
        key: &TermRef,
        pred: &Sym,
        canonical: &Term,
        call_tys: &[Ty],
        cut: &mut Option<CutBy>,
        consumed: &mut Vec<TermRef>,
    ) -> Result<(), LpError> {
        {
            let tables = self.tables.as_deref_mut().expect("gate checked tables");
            let entry = tables
                .entries
                .entry(key.clone())
                .or_insert_with(|| TableEntry {
                    pred: pred.clone(),
                    call: canonical.clone(),
                    call_tys: call_tys.to_vec(),
                    answers: Vec::new(),
                    state: EntryState::InProgress,
                    seen: HashSet::new(),
                });
            entry.state = EntryState::InProgress;
            // Rehydrate the dedup set: absorbed/cloned entries may have
            // answers without interned nodes from this process's store.
            if entry.seen.len() != entry.answers.len() {
                entry.seen = entry
                    .answers
                    .iter()
                    .map(|a| TermRef::new(a.term.clone()))
                    .collect();
            }
        }
        let mut dependents: Vec<TermRef> = Vec::new();
        let final_state = loop {
            let before = self.answers_in(key);
            let floundered_before = self.floundered;
            // A fresh proof state: no eigenvariables and no locals (the
            // gate guarantees the call mentions neither), and the
            // canonical call's metavariables at level 0.
            let sub_st = St::new(call_tys);
            let sub = Branch {
                work: vec![Work::AtomByClauses(canonical.clone())],
                depth: self.cfg.max_depth,
            };
            let mut sub_consumed = Vec::new();
            self.nest += 1;
            let sub_cut = self.run(
                sub_st,
                sub,
                &mut Sink::Table { key: key.clone() },
                &mut sub_consumed,
            );
            self.nest -= 1;
            let sub_cut = sub_cut?;
            let self_loop = sub_consumed.contains(key);
            for k in sub_consumed {
                if &k != key
                    && self
                        .tables
                        .as_deref()
                        .and_then(|t| t.entries.get(&k))
                        .is_some_and(|e| e.state == EntryState::InProgress)
                    && !dependents.contains(&k)
                {
                    dependents.push(k);
                }
            }
            if sub_cut.is_some() || (self.floundered && !floundered_before) {
                // Depth/fuel cut or flounder inside the generator: the
                // stored answers are sound but possibly incomplete.
                break EntryState::Partial;
            }
            if self_loop && self.answers_in(key) > before {
                // The variant consumed its own in-progress answers and
                // new ones arrived: another round may derive more.
                continue;
            }
            break if dependents.is_empty() {
                EntryState::Complete
            } else {
                EntryState::Provisional
            };
        };
        if final_state == EntryState::Partial {
            note_cut(cut, CutBy::Table);
        }
        for k in dependents {
            if !consumed.contains(&k) {
                consumed.push(k);
            }
        }
        let tables = self.tables.as_deref_mut().expect("gate checked tables");
        if let Some(entry) = tables.entries.get_mut(key) {
            entry.state = final_state;
        }
        Ok(())
    }

    fn answers_in(&self, key: &TermRef) -> usize {
        self.tables
            .as_deref()
            .and_then(|t| t.entries.get(key))
            .map_or(0, |e| e.answers.len())
    }
}

/// Pushes a choice point over branch `b` at the current trail mark.
/// Slots allocated from here on are dropped wholesale on backtracking,
/// so only older ones need their changes trailed.
fn push_frame<'a>(st: &mut St<'a>, frames: &mut Vec<Frame<'a>>, b: Branch<'a>, alts: Alts) {
    let mark = st.mark();
    st.fence = mark.metas;
    frames.push(Frame {
        mark,
        work: b.work,
        depth: b.depth,
        alts,
    });
}

/// Whether a unification error means "no match" to the machine: a
/// refutation, an eigenvariable escape, or a flounder.
fn no_match(e: &UnifyError) -> bool {
    e.is_refutation() || matches!(e, UnifyError::Escape { .. } | UnifyError::NotPattern { .. })
}

/// The slots a head's own variables live in: slots `base..base + n`
/// of the binding array, where the head (read at `Env::at(base)`) has
/// its metavariables `0..n`. A hypothetical clause's head has none: its
/// metavariables are the goal's.
#[derive(Clone, Copy, Debug)]
struct Block {
    base: u32,
    n: u32,
}

impl Block {
    const NONE: Block = Block { base: 0, n: 0 };

    /// Whether slot `id` is one of the head's own variables.
    fn owns(self, id: u32) -> bool {
        id >= self.base && id - self.base < self.n
    }
}

/// Unifies a call with a canonical head whose own variables live in
/// `block`, recording the solution in `st`: one lockstep walk of the two
/// terms, the solver's counterpart of the rewrite engine's
/// `matching::match_pattern`. Both are read in place: a bound
/// metavariable of the call (or of a hypothetical clause's head) is
/// followed where the walk meets it, and β-reduced only where it is
/// applied (see [`St::expose`]).
///
/// * A head variable's first occurrence binds its slot in place to the
///   call's own subterm, also under crossed λs when its spine is
///   exactly those binders in order (η-long `?F x` binds to the call's
///   λ node itself). The slot sits at the current level, so the binding
///   is O(1): no escape or occurs check.
/// * Rigid nodes compare heads by constant or de Bruijn index (at equal
///   depth, an eigenvariable's level) and descend.
/// * An unbound metavariable of the call facing head structure outside
///   every λ binds to that structure, shared with the head, through
///   [`St::bind`] and its level and escape rules.
/// * Everything else is a **residue**, solved on the spot by
///   [`pattern::unify_against`] on the two sides resolved, at the
///   nearest position outside every λ: a repeated variable (`eval (lam
///   ?F) (lam ?F)`), another spine, a pair, an unbound goal metavariable
///   in a hypothetical clause's head, an occurs risk, a flexible call
///   term that is not a pattern.
///
/// Positions are walked in the order the unifier decomposes them, depth
/// first and a spine's arguments last to first, and a residue is solved
/// where it is met: outside the pattern fragment the unifier's verdict
/// depends on that order (`?M (?M d)` is solved only once another
/// argument has bound `?M`), and the walk must reach the same one. Host
/// recursion is bounded by the head's depth: a slot or a flexible call
/// position ends the descent, whatever the size of the call's subterm.
///
/// `Ok(false)` is a clash or an eigenvariable escape; a residue's
/// failures are its errors.
fn head_unify(
    sig: &Signature,
    st: &mut St<'_>,
    target: &Ty,
    call: At<'_>,
    head: At<'_>,
    block: Block,
) -> Result<bool, UnifyError> {
    let mut walk = HeadWalk {
        sig,
        st,
        block,
        call_bound: false,
    };
    walk.outer(call, head, PosTy::Given(target))
}

/// How one position of the walk came out.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Walked {
    Matched,
    Clashed,
    /// Left to the unifier, at the nearest position outside every λ.
    Residue,
}

/// The type of a position outside every λ, which only a residue needs:
/// given, or argument `index` of a rigid head read at `Env`, read off
/// the head's type when asked.
#[derive(Clone, Copy)]
enum PosTy<'a> {
    Given(&'a Ty),
    Arg(&'a Term, Env, usize),
}

struct HeadWalk<'w, 'a> {
    sig: &'w Signature,
    st: &'w mut St<'a>,
    block: Block,
    /// Whether this walk has bound a metavariable of the call (through
    /// a flexible position or a residue). Until it has, no subterm of
    /// the call reaches a slot, so a first occurrence binds to any of
    /// them without an occurs check; afterwards only to a ground one.
    call_bound: bool,
}

impl HeadWalk<'_, '_> {
    /// Unifies `c ≐ h` at a position outside every λ, solving a residue
    /// there.
    fn outer(&mut self, c: At<'_>, h: At<'_>, ty: PosTy<'_>) -> Result<bool, UnifyError> {
        match self.inner(c, h, 0)? {
            Walked::Matched => Ok(true),
            Walked::Clashed => Ok(false),
            Walked::Residue => self.residue(c, h, ty),
        }
    }

    /// Unifies `c ≐ h` under `local` λs crossed since the nearest
    /// position outside every λ.
    fn inner(&mut self, c: At<'_>, h: At<'_>, local: u32) -> Result<Walked, UnifyError> {
        let pos = self.st.depth() + local;
        if let Some((term, env)) = self.st.expose(c.term, c.env, pos) {
            return self.inner(At { term: &term, env }, h, local);
        }
        if self.block.n == 0 {
            // A hypothetical clause's head: its metavariables are the
            // goal's, read through their bindings as the call's are.
            if let Some((term, env)) = self.st.expose(h.term, h.env, pos) {
                return self.inner(c, At { term: &term, env }, local);
            }
        }
        if !h.term.has_metas() && !c.term.has_metas() {
            // Distinct canonical forms are never βη-equal.
            return Ok(if same(c, h) {
                Walked::Matched
            } else {
                Walked::Clashed
            });
        }
        match h.term {
            Term::Lam(_, hb) => {
                // Canonical at an arrow type, so the call is a λ too.
                let Term::Lam(_, cb) = c.term else {
                    return Ok(Walked::Residue);
                };
                if let Some((id, n)) = self.eta_slot(h, local) {
                    return self.bind_slot(id, c, n, local);
                }
                self.inner(c.body(cb), h.body(hb), local + 1)
            }
            Term::Unit => Ok(if matches!(c.term, Term::Unit) {
                Walked::Matched
            } else {
                Walked::Residue
            }),
            Term::Pair(..) | Term::Fst(_) | Term::Snd(_) => Ok(Walked::Residue),
            _ => match spine_head(h.term) {
                Term::Meta(m) => match self.own(h.env, m) {
                    Some(id) if innermost_binders(h.term, h.env, local) => {
                        self.bind_slot(id, c, 0, local)
                    }
                    _ => Ok(Walked::Residue),
                },
                hh @ (Term::Const(_) | Term::Var(_) | Term::Int(_)) => self.rigid(c, h, hh, local),
                _ => Ok(Walked::Residue),
            },
        }
    }

    /// The slot of the head's metavariable `m`, read at `env`, when it
    /// is one of the head's own variables.
    fn own(&self, env: Env, m: &MVar) -> Option<u32> {
        let id = env.slot(m);
        self.block.owns(id).then_some(id)
    }

    /// A rigid head node `h` (head `hh`) against the call's `c`.
    fn rigid(&mut self, c: At<'_>, h: At<'_>, hh: &Term, local: u32) -> Result<Walked, UnifyError> {
        let same = match (hh, spine_head(c.term)) {
            (_, Term::Meta(_)) => return self.flex_call(c, h, local),
            (Term::Const(a), Term::Const(b)) => a == b,
            (Term::Var(i), Term::Var(j)) => h.env.var(*i) == c.env.var(*j),
            (Term::Int(i), Term::Int(j)) => i == j,
            (_, Term::Fst(_) | Term::Snd(_)) => return Ok(Walked::Residue),
            _ => false,
        };
        let arity = spine_len(h.term);
        if !same || spine_len(c.term) != arity {
            return Ok(Walked::Clashed);
        }
        self.args(c, h, hh, local, arity)
    }

    /// The `n` spine arguments of `c` and `h`, last to first.
    fn args(
        &mut self,
        c: At<'_>,
        h: At<'_>,
        hh: &Term,
        local: u32,
        n: usize,
    ) -> Result<Walked, UnifyError> {
        let (mut ct, mut ht) = (c.term, h.term);
        for index in (0..n).rev() {
            let (Term::App(cf, ca), Term::App(hf, ha)) = (ct, ht) else {
                unreachable!("spines of equal length");
            };
            let (ca, ha) = (c.at(ca), h.at(ha));
            let w = if local > 0 {
                self.inner(ca, ha, local)?
            } else if self.outer(ca, ha, PosTy::Arg(hh, h.env, index))? {
                Walked::Matched
            } else {
                Walked::Clashed
            };
            if w != Walked::Matched {
                return Ok(w);
            }
            (ct, ht) = (cf, hf);
        }
        Ok(Walked::Matched)
    }

    /// An unbound metavariable of the call facing head structure `h`
    /// outside every λ binds to it, shared. Anything flexible under a λ
    /// or with a spine is a residue.
    fn flex_call(&mut self, c: At<'_>, h: At<'_>, local: u32) -> Result<Walked, UnifyError> {
        let Term::Meta(m) = c.term else {
            return Ok(Walked::Residue);
        };
        if local > 0 || !self.shareable(h) {
            return Ok(Walked::Residue);
        }
        let id = c.env.slot(m) as usize;
        debug_assert!(
            !self.st.is_bound(id as u32),
            "the walk reads through bindings"
        );
        self.call_bound = true;
        let depth = self.st.depth();
        Ok(if self.st.bind(id, h.term, h.env, depth) {
            Walked::Matched
        } else {
            Walked::Clashed
        })
    }

    /// Whether a call metavariable can be bound to head structure `h` as
    /// it is: every metavariable in it is one of the head's own, an
    /// applied one is unbound, and a bound one (bare, or η-long over its
    /// own λs) reaches no unbound metavariable, so that the binding
    /// cannot reach the call's own metavariable (an occurs risk).
    fn shareable(&self, h: At<'_>) -> bool {
        let t = h.term;
        if !t.has_metas() {
            return true;
        }
        let own = match t {
            Term::Lam(..) => self.eta_slot(h, 0).map(|(id, _)| id),
            Term::Meta(m) => self.own(h.env, m),
            _ => None,
        };
        if let Some(b) = own.and_then(|id| self.st.slots[id as usize].binding.as_ref()) {
            return self.st.is_ground(&b.term, Env::at(b.base));
        }
        match t {
            Term::Meta(m) => self.own(h.env, m).is_some(),
            Term::Lam(_, b) => self.shareable(h.body(b)),
            Term::App(f, a) => {
                if let Term::Meta(m) = spine_head(t) {
                    if self.own(h.env, m).is_none_or(|id| self.st.is_bound(id)) {
                        return false;
                    }
                }
                self.shareable(h.at(f)) && self.shareable(h.at(a))
            }
            Term::Pair(a, b) => self.shareable(h.at(a)) && self.shareable(h.at(b)),
            Term::Fst(p) | Term::Snd(p) => self.shareable(h.at(p)),
            Term::Var(_) | Term::Const(_) | Term::Int(_) | Term::Unit => true,
        }
    }

    /// Binds slot `id`, whose occurrence spans `local` crossed binders
    /// and is η-long over `n` λs of its own, applied to all `local + n`
    /// binders in scope, to the call's subterm `c`: `?S := λ^local. c`.
    fn bind_slot(&mut self, id: u32, c: At<'_>, n: u32, local: u32) -> Result<Walked, UnifyError> {
        let id = id as usize;
        if self.st.slots[id].binding.is_some()
            || (self.call_bound && !self.st.is_ground(c.term, c.env))
        {
            return Ok(Walked::Residue);
        }
        let depth = self.st.depth();
        let mut body = c;
        for _ in 0..n {
            if let Term::Lam(_, b) = body.term {
                body = body.body(b);
            }
        }
        if !self.is_pattern_or_rigid(body, local + n, depth + local + n) {
            return Ok(Walked::Residue);
        }
        let (t, env) = self.abstract_local(c, local);
        Ok(if self.st.bind(id, &t, env, depth) {
            Walked::Matched
        } else {
            Walked::Clashed
        })
    }

    /// `λ^local. c`, where `c` sits under the `local` binders crossed
    /// since the nearest position outside every λ, and where it reads.
    fn abstract_local(&self, c: At<'_>, local: u32) -> (Term, Env) {
        if local == 0 {
            return (c.term.clone(), c.env);
        }
        let (mut t, env) = if c.env.keeps(c.term) {
            (c.term.clone(), Env::at(c.env.base))
        } else if c.env.cut >= local {
            let env = Env {
                cut: c.env.cut - local,
                ..c.env
            };
            (c.term.clone(), env)
        } else {
            // `c` reads some of the crossed binders shifted: no reading
            // of the abstraction matches, so build what it reads as.
            let pos = self.st.depth() + local;
            (self.st.resolve_view(c.term, c.env, pos), Env::ROOT)
        };
        for _ in 0..local {
            t = Term::lam(Sym::new("x"), t);
        }
        (t, env)
    }

    /// Whether `t`, read at `env` at context length `pos` under `local`
    /// constraint-local binders, is rigid or a Miller pattern (a
    /// metavariable applied to distinct local variables): the shapes the
    /// unifier solves a slot against. Other flexible terms make it
    /// report `NotPattern`, so they go to it.
    fn is_pattern_or_rigid(&self, t: At<'_>, local: u32, pos: u32) -> bool {
        let exposed = self.st.expose(t.term, t.env, pos);
        let t = exposed
            .as_ref()
            .map_or(t, |(term, env)| At { term, env: *env });
        let Term::Meta(_) = spine_head(t.term) else {
            return true;
        };
        let mut seen: u64 = 0;
        let mut cur = t.term;
        while let Term::App(f, a) = cur {
            match eta_var(a, ETA_DEPTH).map(|i| t.env.var(i)) {
                Some(i) if i < local && i < 64 && seen & (1 << i) == 0 => seen |= 1 << i,
                _ => return false,
            }
            cur = f;
        }
        true
    }

    /// A head λ chain `λ^n. ?S x̄` whose body is one of the head's own
    /// variables applied to exactly the `local` binders crossed before
    /// it and its own `n`, in order: the variable's slot and `n`.
    fn eta_slot(&self, h: At<'_>, local: u32) -> Option<(u32, u32)> {
        let (mut n, mut body) = (0, h);
        while let Term::Lam(_, b) = body.term {
            n += 1;
            body = body.body(b);
        }
        let Term::Meta(m) = spine_head(body.term) else {
            return None;
        };
        let id = self.own(body.env, m)?;
        innermost_binders(body.term, body.env, local + n).then_some((id, n))
    }

    /// Solves `c ≐ h` at a position outside every λ with the unifier,
    /// both resolved, and records the solution.
    fn residue(&mut self, c: At<'_>, h: At<'_>, ty: PosTy<'_>) -> Result<bool, UnifyError> {
        let ty = match ty {
            PosTy::Given(ty) => ty.clone(),
            PosTy::Arg(hh, env, index) => self.arg_ty(hh, env, index)?,
        };
        let st = &*self.st;
        let depth = st.depth();
        let delta = pattern::unify_against(
            self.sig,
            st,
            st.next_meta(),
            st.eigen.clone(),
            ty,
            st.resolve_view(c.term, c.env, depth),
            st.resolve_view(h.term, h.env, depth),
        )?;
        self.call_bound = true;
        Ok(self.st.merge(delta))
    }

    /// The type of argument `index` of the rigid head `hh`, a constant
    /// or an eigenvariable read at `env`.
    fn arg_ty(&self, hh: &Term, env: Env, index: usize) -> Result<Ty, UnifyError> {
        let ty = match hh {
            Term::Const(c) => self
                .sig
                .const_ty(c.as_str())
                .ok_or_else(|| {
                    UnifyError::IllTyped(hoas_core::Error::UnknownConst { name: c.clone() })
                })?
                .as_mono()
                .ok_or_else(|| UnifyError::PolyConst { name: c.clone() })?,
            Term::Var(i) => {
                let i = env.var(*i);
                self.st
                    .eigen
                    .lookup(i)
                    .map(|(_, ty)| ty)
                    .ok_or(UnifyError::IllTyped(hoas_core::Error::UnboundVar {
                        index: i,
                    }))?
            }
            _ => unreachable!("arguments belong to rigid heads"),
        };
        ty.uncurry()
            .0
            .get(index)
            .map(|&ty| ty.clone())
            .ok_or_else(|| UnifyError::IllTyped(hoas_core::Error::NotAFunction { ty: ty.clone() }))
    }
}

/// Whether two meta-free terms read as the same term. Host recursion is
/// bounded by the shallower of the two.
fn same(c: At<'_>, h: At<'_>) -> bool {
    if c.env.keeps(c.term) && h.env.keeps(h.term) {
        return c.term == h.term;
    }
    match (c.term, h.term) {
        (Term::Var(i), Term::Var(j)) => c.env.var(*i) == h.env.var(*j),
        (Term::Lam(_, a), Term::Lam(_, b)) => same(c.body(a), h.body(b)),
        (Term::App(f, a), Term::App(g, b)) | (Term::Pair(f, a), Term::Pair(g, b)) => {
            same(c.at(f), h.at(g)) && same(c.at(a), h.at(b))
        }
        (Term::Fst(a), Term::Fst(b)) | (Term::Snd(a), Term::Snd(b)) => same(c.at(a), h.at(b)),
        (a, b) => a == b,
    }
}

/// The number of arguments of an application spine.
fn spine_len(t: &Term) -> usize {
    let mut n = 0;
    let mut cur = t;
    while let Term::App(f, _) = cur {
        n += 1;
        cur = f;
    }
    n
}

/// How deeply [`eta_var`] looks into a λ argument: far beyond the
/// order of any bundled type, and a bound on host recursion over a
/// call's subterm.
const ETA_DEPTH: u32 = 16;

/// The variable `t` is, possibly η-expanded (`λy. x y`, the canonical
/// form of a variable at an arrow type), or `None`. What
/// `normalize::eta_contract` decides on canonical terms, without
/// rebuilding them, looking at most `depth` expansions deep.
fn eta_var(t: &Term, depth: u32) -> Option<u32> {
    let mut n = 0;
    let mut body = t;
    while let Term::Lam(_, b) = body {
        n += 1;
        body = b;
    }
    if n > 0 && depth == 0 {
        return None;
    }
    let mut k = 0;
    let mut cur = body;
    while let Term::App(f, a) = cur {
        if k >= n || eta_var(a, depth - 1)? != k {
            return None;
        }
        k += 1;
        cur = f;
    }
    match cur {
        Term::Var(i) if k == n && *i >= n => Some(i - n),
        _ => None,
    }
}

/// The reference for [`head_unify`]: `pattern::unify_against` on the
/// resolved call and head, recorded and undone. Returns the solved call,
/// head and slots up to a renaming of their metavariables (see
/// [`variant`]), or `None` when they do not unify.
#[cfg(any(test, debug_assertions))]
fn reference_unify(
    sig: &Signature,
    st: &mut St<'_>,
    target: &Ty,
    call: At<'_>,
    head: At<'_>,
    block: Block,
) -> Result<Option<Vec<Term>>, UnifyError> {
    st.trial(|st| {
        let depth = st.depth();
        match pattern::unify_against(
            sig,
            &*st,
            st.next_meta(),
            st.eigen.clone(),
            target.clone(),
            st.resolve_view(call.term, call.env, depth),
            st.resolve_view(head.term, head.env, depth),
        ) {
            Ok(delta) => Ok(st.merge(delta).then(|| variant(st, call, head, block))),
            Err(e) if no_match(&e) => Ok(None),
            Err(e) => Err(e),
        }
    })
}

/// The call, the head and the head's slots with the solution applied,
/// their metavariables renumbered `0..` in order of first occurrence:
/// equal for two unifiers of the same pair exactly when their solutions
/// agree up to renaming.
#[cfg(any(test, debug_assertions))]
fn variant(st: &St<'_>, call: At<'_>, head: At<'_>, block: Block) -> Vec<Term> {
    let depth = st.depth();
    let slots =
        (block.base..block.base + block.n).map(|id| st.resolve(&Term::Meta(MVar::new(id, "S"))));
    let terms: Vec<Term> = [
        st.resolve_view(call.term, call.env, depth),
        st.resolve_view(head.term, head.env, depth),
    ]
    .into_iter()
    .chain(slots)
    .collect();
    let mut ids: HashMap<u32, u32> = HashMap::new();
    for t in &terms {
        for m in t.metas() {
            let next = ids.len() as u32;
            ids.entry(m.id()).or_insert(next);
        }
    }
    terms
        .iter()
        .map(|t| {
            rename_metas(t, &|m| {
                ids.get(&m.id()).map(|&i| MVar::new(i, m.hint().clone()))
            })
        })
        .collect()
}

/// Debug builds: the walk must agree with the unifier, on whether the
/// call and the head unify and, when they do, on the solution.
#[cfg(debug_assertions)]
fn check_against_reference(
    st: &St<'_>,
    expected: &Result<Option<Vec<Term>>, UnifyError>,
    walked: &Result<bool, UnifyError>,
    call: At<'_>,
    head: At<'_>,
    block: Block,
) {
    let unified = |w: &Result<bool, UnifyError>| match w {
        Ok(b) => Ok(*b),
        Err(e) if no_match(e) => Ok(false),
        Err(e) => Err(e.clone()),
    };
    let (c, h) = (call.term, head.term);
    match (expected, unified(walked)) {
        (Ok(Some(want)), Ok(true)) => {
            // A check, not the solver's binding work.
            let visits = st.visits.get();
            let got = variant(st, call, head, block);
            st.visits.set(visits);
            assert!(
                *want == got,
                "head walk and unifier disagree on `{c}` ≐ `{h}`: {got:?} vs {want:?}"
            );
        }
        (Ok(None), Ok(false)) | (Err(_), Err(_)) => {}
        (want, got) => {
            panic!("head walk and unifier disagree on `{c}` ≐ `{h}`: {got:?} vs {want:?}")
        }
    }
}

/// Debug-build half of the mode sanitizer: if the certificate records a
/// mode whose input positions are all ground at this call, push a
/// [`Work::ModeExit`] marker so output groundness is re-verified when
/// the call's subtree is discharged.
#[cfg(debug_assertions)]
fn push_mode_exit(
    cert: Option<&ProgramCert>,
    stack: &mut Vec<Work<'_>>,
    pred: &Sym,
    st: &St<'_>,
    call: At<'_>,
) {
    let Some(verdict) = cert.and_then(|c| c.verdict(pred)) else {
        return;
    };
    let atom = st.resolve_view(call.term, call.env, st.depth());
    let (_, args) = atom.spine();
    let matched = verdict.modes.iter().find(|m| {
        m.inputs.len() == args.len()
            && m.inputs
                .iter()
                .zip(&args)
                .all(|(&input, a)| !input || !a.has_metas())
    });
    if let Some(mode) = matched {
        let outputs: Vec<usize> = mode
            .inputs
            .iter()
            .enumerate()
            .filter_map(|(i, &input)| (!input).then_some(i))
            .collect();
        if !outputs.is_empty() {
            stack.push(Work::ModeExit(atom.clone(), outputs));
        }
    }
}

/// Release builds skip the exit-time sanitizer entirely.
#[cfg(not(debug_assertions))]
fn push_mode_exit(
    _cert: Option<&ProgramCert>,
    _stack: &mut Vec<Work<'_>>,
    _pred: &Sym,
    _st: &St<'_>,
    _call: At<'_>,
) {
}

/// Renames the free metavariables of `t` to `0..k` in first-occurrence
/// order, returning the renamed term and the originals.
fn rename_canonically(t: &Term) -> (Term, Vec<MVar>) {
    let metas = t.metas();
    if metas.is_empty() {
        return (t.clone(), metas);
    }
    let map: HashMap<u32, MVar> = metas
        .iter()
        .enumerate()
        .map(|(i, m)| (m.id(), MVar::new(i as u32, m.hint().clone())))
        .collect();
    (rename_metas(t, &|m| map.get(&m.id()).cloned()), metas)
}

/// Canonicalizes a (solution-applied) call atom into its variant key:
/// free metavariables renamed to `0..k` in first-occurrence order, the
/// result interned so variant lookup is one node-id hash probe. Returns
/// `None` when some residual meta has no recorded type (no sound
/// replay possible).
fn canonicalize_call(st: &St<'_>, atom: &Term) -> Option<(TermRef, Term, Vec<Ty>)> {
    let (canonical, metas) = rename_canonically(atom);
    let tys = metas
        .iter()
        .map(|m| st.meta_ty(m).cloned())
        .collect::<Option<Vec<Ty>>>()?;
    Some((TermRef::new(canonical.clone()), canonical, tys))
}

/// Canonicalizes one solved instance of the canonical call atom into a
/// stored answer: residual metas renamed to `0..k` in first-occurrence
/// order, their types recorded for replay.
fn canonicalize_answer(st: &St<'_>, call: &Term) -> Option<TableAnswer> {
    let (term, metas) = rename_canonically(&st.resolve(call));
    let meta_tys = metas
        .iter()
        .map(|m| st.meta_ty(m).cloned())
        .collect::<Option<Vec<Ty>>>()?;
    Some(TableAnswer { term, meta_tys })
}

/// Renames the residual free metavariables across an answer's bindings to
/// distinct display names (`'A`, `'B`, …) in first-occurrence order.
fn canonicalize_free_metas(bindings: Vec<(MVar, Term)>) -> Vec<(MVar, Term)> {
    let mut seen: HashSet<u32> = HashSet::new();
    let mut renames: HashMap<u32, MVar> = HashMap::new();
    for (_, t) in &bindings {
        for m in t.metas() {
            if seen.insert(m.id()) {
                let i = renames.len();
                let hint = if i < 26 {
                    ((b'A' + i as u8) as char).to_string()
                } else {
                    format!("V{i}")
                };
                renames.insert(m.id(), MVar::new(m.id(), hint));
            }
        }
    }
    bindings
        .into_iter()
        .map(|(q, t)| (q, rename_metas(&t, &|m| renames.get(&m.id()).cloned())))
        .collect()
}

fn rename_metas(t: &Term, map: &dyn Fn(&MVar) -> Option<MVar>) -> Term {
    // Meta-free subtrees (cached annotation) are fixed points of the
    // renaming: share them instead of deep-cloning the clause.
    if !t.has_metas() {
        return t.clone();
    }
    match t {
        Term::Meta(m) => map(m).map_or_else(|| t.clone(), Term::Meta),
        Term::Var(_) | Term::Const(_) | Term::Int(_) | Term::Unit => t.clone(),
        Term::Lam(h, b) => Term::lam(h.clone(), rename_metas_ref(b, map)),
        Term::App(f, a) => Term::app(rename_metas_ref(f, map), rename_metas_ref(a, map)),
        Term::Pair(a, b) => Term::pair(rename_metas_ref(a, map), rename_metas_ref(b, map)),
        Term::Fst(p) => Term::fst(rename_metas_ref(p, map)),
        Term::Snd(p) => Term::snd(rename_metas_ref(p, map)),
    }
}

fn rename_metas_ref(t: &TermRef, map: &dyn Fn(&MVar) -> Option<MVar>) -> TermRef {
    if !t.has_meta() {
        t.clone()
    } else {
        TermRef::new(rename_metas(t, map))
    }
}

/// Convenience: type of a goal metavariable by (hint, type) pairs.
pub fn query_menv(
    sig: &Signature,
    goal_src: &str,
    vars: &[(&str, &str)],
) -> Result<(Goal, MetaEnv), hoas_core::Error> {
    let mut table = hoas_core::parse::MetaTable::new();
    for (name, _) in vars {
        table.get_or_insert(name);
    }
    let parsed = hoas_core::parse::parse_term_with(sig, goal_src, table)?;
    let mut menv = MetaEnv::new();
    for (name, ty) in vars {
        let m = parsed.metas.get(name).expect("pre-allocated").clone();
        menv.insert(m, hoas_core::parse::parse_ty(ty)?);
    }
    Ok((Goal::Atom(parsed.term), menv))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples::stlc_program;
    use hoas_testkit::prelude::*;

    fn tm() -> Ty {
        Ty::base("tm")
    }

    /// A `tm` argument at the state's eigenvariable depth, under `bound`
    /// binders of its own: `app`, `lam`, eigenvariables, bound
    /// variables, and (outside binders) fresh metavariables of `st`.
    fn gen_tm(rng: &mut SmallRng, st: &mut St, size: u32, bound: u32) -> Term {
        let vars = st.depth() + bound;
        if bound == 0 && (vars == 0 || rng.gen_bool(0.15)) {
            return Term::Meta(st.fresh(&Sym::new("M"), tm()));
        }
        let leaf = size == 0 || rng.gen_bool(0.4);
        match rng.gen_range(0..if leaf { 1 } else { 3 }) {
            0 if vars > 0 => Term::Var(rng.gen_range(0..vars)),
            0 => Term::cnst("app"),
            1 => Term::apps(
                Term::cnst("app"),
                [
                    gen_tm(rng, st, size - 1, bound),
                    gen_tm(rng, st, size - 1, bound),
                ],
            ),
            _ => Term::app(
                Term::cnst("lam"),
                Term::lam("y", gen_tm(rng, st, size - 1, bound + 1)),
            ),
        }
    }

    /// A `tp` argument: `base`, `arr`, or a fresh metavariable.
    fn gen_tp(rng: &mut SmallRng, st: &mut St, size: u32) -> Term {
        match rng.gen_range(0..if size == 0 { 2 } else { 3 }) {
            0 => Term::Meta(st.fresh(&Sym::new("T"), Ty::base("tp"))),
            1 => Term::cnst("base"),
            _ => Term::apps(
                Term::cnst("arr"),
                [gen_tp(rng, st, size - 1), gen_tp(rng, st, size - 1)],
            ),
        }
    }

    fn of(x: Term, t: Term) -> Term {
        Term::apps(Term::cnst("of"), [x, t])
    }

    /// Whether `call ≐ head` is refuted at the state's depth, the
    /// head's own variables in `block`: by the unifier on the resolved
    /// head, and by the head walk alike.
    fn refuted(prog: &Program, st: &mut St<'_>, call: &Term, head: At<'_>, block: Block) -> bool {
        let o = Ty::base("o");
        let unifier = pattern::unify_against(
            prog.sig(),
            &*st,
            st.next_meta(),
            st.eigen.clone(),
            o.clone(),
            call.clone(),
            st.resolve_view(head.term, head.env, st.depth()),
        );
        let walk = st.trial(|st| head_unify(prog.sig(), st, &o, At::root(call), head, block));
        let walk_refutes = match walk {
            Ok(matched) => !matched,
            Err(e) => e.is_refutation(),
        };
        matches!(unifier, Err(e) if e.is_refutation()) && walk_refutes
    }

    props! {
        fn candidate_filter_rejections_are_refutations(
            seed in seeds(), assumed in 0u32..3, extra in 0u32..3
        ) {
            // A local `of` clause assumed under `assumed` eigenvariables,
            // a call `extra` eigenvariables deeper, and the STLC program
            // clauses. Whenever the filter drops a candidate (a local by
            // level, a program clause by constant), the unifier must
            // refute it under the same eigenvariable context: the filter
            // never drops a clause that could resolve.
            let mut rng = SmallRng::seed_from_u64(seed);
            let prog = stlc_program();
            let mut st = St::new(&[]);
            for _ in 0..assumed {
                st.push_eigen(Sym::new("x"), tm());
            }
            let local = {
                let x = gen_tm(&mut rng, &mut st, 2, 0);
                Clause::fact(vec![], of(x, gen_tp(&mut rng, &mut st, 1)))
            };
            st.push_local(&local, Env::ROOT);
            for _ in 0..extra {
                st.push_eigen(Sym::new("x"), tm());
            }
            let depth = st.depth();
            let call = {
                let x = gen_tm(&mut rng, &mut st, 2, 0);
                of(x, gen_tp(&mut rng, &mut st, 1))
            };
            let fp: Vec<Option<Rigid>> = (call.spine().1.iter())
                .map(|a| st.rigid_head(a, Env::ROOT, depth))
                .collect();
            let l = Rc::clone(&st.locals[0]);
            if !fingerprint_admits(&l.fingerprint, &fp) {
                let head = At { term: &l.clause.head, env: l.env_at(depth) };
                prop_assert!(
                    refuted(&prog, &mut st, &call, head, Block::NONE),
                    "the filter drops local `{}` (assumed at depth {}) for `{}` at depth {}, \
                     but it unifies",
                    l.clause.head, assumed, call, depth
                );
            }
            for &i in prog.clause_indices_for(&Sym::new("of")) {
                if prog.admits(i, &fp) {
                    continue;
                }
                let mark = st.mark();
                let r = prog.resolvent(i).unwrap();
                let block = st.block(r.var_tys.iter().cloned());
                let head = At { term: &r.clause.head, env: Env::at(block.base) };
                let ok = refuted(&prog, &mut st, &call, head, block);
                st.undo(mark);
                prop_assert!(
                    ok,
                    "the filter drops clause `{}` for `{}` at depth {}, but it unifies",
                    prog.clauses()[i], call, depth
                );
            }
        }
    }

    #[test]
    fn candidate_filter_compares_eigenvariables_by_level() {
        // Each rejection arm once, with the unifier agreeing: `of x₀ base`
        // assumed at depth 1, called at depth 2 with the same
        // eigenvariable (admitted), the newer one (rejected), or `app`
        // (rejected); `of (app _ _) _` against an eigenvariable call.
        let prog = stlc_program();
        let local = Clause::fact(vec![], of(Term::Var(0), Term::cnst("base")));
        let mut st = St::new(&[]);
        st.push_eigen(Sym::new("x"), tm());
        st.push_local(&local, Env::ROOT);
        st.push_eigen(Sym::new("x"), tm());
        let t = st.fresh(&Sym::new("T"), Ty::base("tp"));
        let m = st.fresh(&Sym::new("M"), tm());
        let admits = |st: &mut St<'_>, x: Term| {
            let call = of(x, Term::Meta(t.clone()));
            let fp: Vec<Option<Rigid>> = (call.spine().1.iter())
                .map(|a| st.rigid_head(a, Env::ROOT, 2))
                .collect();
            let l = Rc::clone(&st.locals[0]);
            let admitted = fingerprint_admits(&l.fingerprint, &fp);
            let head = At {
                term: &l.clause.head,
                env: l.env_at(2),
            };
            let refuted = refuted(&prog, st, &call, head, Block::NONE);
            assert_eq!(
                admitted, !refuted,
                "{call} vs {} read at depth 2",
                l.clause.head
            );
            admitted
        };
        assert!(admits(&mut st, Term::Var(1)), "x₀ is x₀ at every depth");
        assert!(!admits(&mut st, Term::Var(0)), "x₁ is not x₀");
        let app = Term::apps(Term::cnst("app"), [Term::Var(0), Term::Var(1)]);
        assert!(!admits(&mut st, app), "a constant is not an eigenvariable");
        assert!(
            admits(&mut st, Term::Meta(m)),
            "a metavariable is a wildcard"
        );
        let call = of(Term::Var(0), Term::Meta(t));
        let app_clause = prog
            .clause_indices_for(&Sym::new("of"))
            .iter()
            .copied()
            .find(|&i| prog.clauses()[i].head.to_string().starts_with("of (app"))
            .expect("STLC has an application clause");
        assert!(!prog.clause_admits(app_clause, &call.spine().1, 2));
        let r = prog.resolvent(app_clause).unwrap();
        let block = st.block(r.var_tys.iter().cloned());
        let head = At {
            term: &r.clause.head,
            env: Env::at(block.base),
        };
        assert!(refuted(&prog, &mut st, &call, head, block));
    }

    fn walk_sig() -> Signature {
        Signature::parse(
            "type tm.
             type o.
             const c : tm.
             const d : tm.
             const app : tm -> tm -> tm.
             const lam : (tm -> tm) -> tm.
             const lam2 : (tm -> tm -> tm) -> tm.
             const p : tm -> tm -> tm -> o.",
        )
        .unwrap()
    }

    /// `tm -> … -> tm` with `arity` arguments.
    fn tm_arrows(arity: usize) -> Ty {
        Ty::arrows(std::iter::repeat_n(tm(), arity), tm())
    }

    /// A `tm` term of the walk signature under `bound` binders of its
    /// own, over `free` free variables, before canonicalization.
    /// Metavariable occurrences come from `metas` (with their arities):
    /// applied to bound variables, in order or not, repeated or not, or
    /// to arbitrary terms; bare at `λ` positions, which
    /// canonicalization η-expands.
    fn gen_walk_tm(
        rng: &mut SmallRng,
        metas: &[(MVar, usize)],
        free: u32,
        bound: u32,
        size: u32,
    ) -> Term {
        let leaf = size == 0 || rng.gen_bool(0.3);
        let pick = |rng: &mut SmallRng, arity: usize| {
            let of_arity: Vec<&MVar> = metas
                .iter()
                .filter(|(_, a)| *a == arity)
                .map(|(m, _)| m)
                .collect();
            (!of_arity.is_empty()).then(|| of_arity[rng.gen_range(0..of_arity.len())].clone())
        };
        match rng.gen_range(0..if leaf { 3 } else { 7 }) {
            0 => Term::cnst(if rng.gen_bool(0.5) { "c" } else { "d" }),
            1 if free + bound > 0 => Term::Var(rng.gen_range(0..free + bound)),
            1 | 2 if !metas.is_empty() => {
                let (m, arity) = metas[rng.gen_range(0..metas.len())].clone();
                let args: Vec<Term> = (0..arity)
                    .map(|_| {
                        if bound > 0 && (size == 0 || rng.gen_bool(0.8)) {
                            Term::Var(rng.gen_range(0..bound))
                        } else if size == 0 {
                            Term::cnst("c")
                        } else {
                            gen_walk_tm(rng, metas, free, bound, size - 1)
                        }
                    })
                    .collect();
                Term::apps(Term::Meta(m), args)
            }
            1 | 2 => Term::cnst("d"),
            3 | 4 => Term::apps(
                Term::cnst("app"),
                [
                    gen_walk_tm(rng, metas, free, bound, size - 1),
                    gen_walk_tm(rng, metas, free, bound, size - 1),
                ],
            ),
            5 => {
                let body = match pick(rng, 1) {
                    Some(m) if rng.gen_bool(0.5) => Term::Meta(m),
                    _ => Term::lam("x", gen_walk_tm(rng, metas, free, bound + 1, size - 1)),
                };
                Term::app(Term::cnst("lam"), body)
            }
            _ => {
                let body = match pick(rng, 2) {
                    Some(m) if rng.gen_bool(0.5) => Term::Meta(m),
                    _ => Term::lam(
                        "x",
                        Term::lam("y", gen_walk_tm(rng, metas, free, bound + 2, size - 1)),
                    ),
                };
                Term::app(Term::cnst("lam2"), body)
            }
        }
    }

    /// `p a₁ a₂ a₃` with generated arguments, canonical at `o`.
    fn gen_walk_atom(
        rng: &mut SmallRng,
        sig: &Signature,
        metas: &[(MVar, usize)],
        types: &dyn MetaTypes,
        ctx: &Ctx,
    ) -> Term {
        let free = ctx.len() as u32;
        let args: Vec<Term> = (0..3)
            .map(|_| gen_walk_tm(rng, metas, free, 0, 3))
            .collect();
        let atom = Term::apps(Term::cnst("p"), args);
        normalize::canon(sig, types, ctx, &atom, &Ty::base("o")).unwrap()
    }

    /// What a unification came to: the solved call, head and slots up to
    /// renaming, no match, or a hard error.
    fn settled(r: Result<Option<Vec<Term>>, UnifyError>) -> Result<Option<Vec<Term>>, ()> {
        r.map_err(|_| ())
    }

    /// `t` as a shared term: its metavariables renumbered from the least
    /// of their ids, read at that base.
    fn relative(t: &Term) -> (Term, Env) {
        let base = t.metas().iter().map(MVar::id).min().unwrap_or(0);
        let t = rename_metas(t, &|m| Some(MVar::new(m.id() - base, m.hint().clone())));
        (t, Env::at(base))
    }

    props! {
        fn head_walk_agrees_with_the_unifier(seed in seeds(), eigen in 0u32..3, kind in 0u32..4) {
            // A program clause head over three variables of arities 0–2,
            // so that variables repeat, with spines in and out of order;
            // or, one time in four, a hypothetical clause's head over the
            // goal's metavariables and none of its own. The call, under
            // `eigen` eigenvariables, is mostly an instance of the head:
            // each variable left flexible or bound to a term mentioning
            // eigenvariables and other metavariables (some of them bound
            // in turn), then perhaps one argument replaced by an unrelated
            // term or a bare metavariable, fresh or occurring elsewhere in
            // the call. The call reaches the walk as a shared goal, not
            // resolved: its bound metavariables are read through the
            // binding array, functional ones applied to the innermost
            // binders in order, to other variables or to arbitrary terms;
            // half the bindings, and half the calls, are shared pairs
            // (a term over metavariables numbered from a base, and the
            // base). Every binding is made before zero to two more
            // eigenvariables are pushed, so it and a hypothetical head are
            // read up to two levels above where they were made: a
            // functional binding's body read in place under the call's λs
            // then has a cut and a shift other than zero, and half the
            // bindings made under eigenvariables mention one, which that
            // shift moves.
            // The walk must unify exactly when the unifier does on the
            // resolved call and head, to the same solution up to renaming.
            let mut rng = SmallRng::seed_from_u64(seed);
            let sig = walk_sig();
            let o = Ty::base("o");
            let mut st = St::new(&[]);
            let mut metas: Vec<(MVar, usize)> = Vec::new();
            let fresh = |st: &mut St<'_>, arity: usize| st.fresh(&Sym::new("M"), tm_arrows(arity));
            for _ in 0..2 {
                let arity = rng.gen_range(0..3);
                metas.push((fresh(&mut st, arity), arity));
            }
            for _ in 0..eigen {
                st.push_eigen(Sym::new("x"), tm());
            }
            for _ in 0..2 {
                let arity = rng.gen_range(0..3);
                metas.push((fresh(&mut st, arity), arity));
            }
            // Bound to a canonical term over younger metavariables only,
            // so that bindings stay acyclic (left unbound when the term
            // mentions an eigenvariable above the metavariable's level),
            // as it is or as a shared pair; half the time applied to an
            // eigenvariable, when there is one.
            let bind_some = |st: &mut St<'_>, rng: &mut SmallRng, m: &MVar, arity: usize, younger: &[(MVar, usize)]| {
                let depth = st.depth();
                let mut t = gen_walk_tm(rng, younger, depth, arity as u32, 2);
                if depth > 0 && rng.gen_bool(0.5) {
                    let x = Term::Var(arity as u32 + rng.gen_range(0..depth));
                    t = Term::apps(Term::cnst("app"), [t, x]);
                }
                for _ in 0..arity {
                    t = Term::lam("y", t);
                }
                let t = normalize::canon(&sig, &*st, &st.eigen, &t, &tm_arrows(arity)).unwrap();
                let (t, env) = if rng.gen_bool(0.5) { relative(&t) } else { (t, Env::ROOT) };
                st.bind(m.id() as usize, &t, env, depth);
            };
            for i in 0..metas.len() {
                if rng.gen_bool(0.3) {
                    let (m, arity) = metas[i].clone();
                    bind_some(&mut st, &mut rng, &m, arity, &metas[i + 1..]);
                }
            }
            let vars: Vec<(MVar, usize)> = (0..3)
                .map(|k| (MVar::new(k, format!("V{k}")), rng.gen_range(0..3)))
                .collect();
            let hypothetical = kind == 0;
            let head = if hypothetical {
                let ctx = st.eigen.clone();
                gen_walk_atom(&mut rng, &sig, &metas, &st, &ctx)
            } else {
                let menv: MetaEnv = vars
                    .iter()
                    .map(|(m, arity)| (m.clone(), tm_arrows(*arity)))
                    .collect();
                gen_walk_atom(&mut rng, &sig, &vars, &menv, &Ctx::new())
            };
            // The call metavariables standing for the head's variables,
            // some of them bound, before the lift like the others.
            let mut ids = Vec::new();
            for (_, arity) in &vars {
                let m = fresh(&mut st, *arity);
                if rng.gen_bool(0.6) {
                    bind_some(&mut st, &mut rng, &m, *arity, &metas);
                }
                ids.push(m.id());
            }
            let lift: u32 = rng.gen_range(0..3);
            for _ in 0..lift {
                st.push_eigen(Sym::new("x"), tm());
            }
            let eigen_ctx = st.eigen.clone();
            let depth = st.depth();
            let mut call = if rng.gen_bool(0.2) {
                gen_walk_atom(&mut rng, &sig, &metas, &st, &eigen_ctx)
            } else if hypothetical {
                subst::shift(&head, lift)
            } else {
                rename_metas(&head, &|m| Some(MVar::new(ids[m.id() as usize], "N")))
            };
            if rng.gen_bool(0.4) {
                let (p, args) = call.spine();
                let i = rng.gen_range(0..args.len());
                // A bare metavariable: fresh, or one the call mentions
                // elsewhere (bound or not), so that binding it can reach
                // the head's variables (an occurs risk).
                let shared: Vec<MVar> = call
                    .metas()
                    .into_iter()
                    .filter(|m| st.meta_ty(m) == Some(&tm()))
                    .collect();
                let other = if rng.gen_bool(0.5) {
                    Term::Meta(if shared.is_empty() || rng.gen_bool(0.3) {
                        fresh(&mut st, 0)
                    } else {
                        shared[rng.gen_range(0..shared.len())].clone()
                    })
                } else {
                    let t = gen_walk_tm(&mut rng, &metas, depth, 0, 3);
                    normalize::canon(&sig, &st, &eigen_ctx, &t, &tm()).unwrap()
                };
                let args: Vec<Term> = (0..)
                    .zip(args)
                    .map(|(j, a)| if j == i { other.clone() } else { a.clone() })
                    .collect();
                call = Term::apps(p.clone(), args);
            }
            let resolved_call = st.resolve(&call);
            let (call, call_env) = if rng.gen_bool(0.5) { relative(&call) } else { (call, Env::ROOT) };
            let block = if hypothetical {
                Block::NONE
            } else {
                st.block(vars.iter().map(|(_, a)| Rc::new(tm_arrows(*a))))
            };
            let head_env = if hypothetical {
                Env { shift: lift as i32, ..Env::ROOT }
            } else {
                Env::at(block.base)
            };
            let (call, head) = (At { term: &call, env: call_env }, At { term: &head, env: head_env });
            // The shared readings resolve to what they stand for.
            prop_assert!(
                st.resolve_view(call.term, call.env, depth) == resolved_call,
                "`{}` at {:?} does not resolve to `{}`", call.term, call.env, resolved_call
            );
            if hypothetical {
                let shifted = st.resolve(&subst::shift(head.term, lift));
                prop_assert!(
                    st.resolve_view(head.term, head.env, depth) == shifted,
                    "`{}` at {:?} does not resolve to `{}`", head.term, head.env, shifted
                );
            }
            let want = settled(reference_unify(&sig, &mut st, &o, call, head, block));
            let got = settled(st.trial(|st| match head_unify(&sig, st, &o, call, head, block) {
                Ok(true) => Ok(Some(variant(st, call, head, block))),
                Ok(false) => Ok(None),
                Err(e) if no_match(&e) => Ok(None),
                Err(e) => Err(e),
            }));
            prop_assert!(
                want == got,
                "`{}` at {:?} ≐ `{}` at {:?} at depth {}: the walk gives {:?}, the unifier {:?}",
                call.term, call.env, head.term, head.env, depth, got, want
            );
        }
    }

    #[test]
    fn head_walk_interns_no_node() {
        // Under two eigenvariables x, y: `of (app x y) ?T` against
        // `of (app ?M ?N) ?B`, and `of (lam (\z. app z x)) (arr base ?T)`
        // against the η-long `of (lam (\z. ?F z)) (arr ?A ?B)`. Every
        // variable's only occurrence binds to the call's own subterm (the
        // λ node itself for ?F), so the walk interns nothing.
        let prog = stlc_program();
        let mut st = St::new(&[]);
        st.push_eigen(Sym::new("x"), tm());
        st.push_eigen(Sym::new("y"), tm());
        let t = Term::Meta(st.fresh(&Sym::new("T"), Ty::base("tp")));
        let app = |a: Term, b: Term| Term::apps(Term::cnst("app"), [a, b]);
        let lam_call = of(
            Term::app(
                Term::cnst("lam"),
                Term::lam("z", app(Term::Var(0), Term::Var(2))),
            ),
            Term::apps(Term::cnst("arr"), [Term::cnst("base"), t.clone()]),
        );
        let app_call = of(app(Term::Var(1), Term::Var(0)), t);
        let clause = |prefix: &str| {
            prog.clause_indices_for(&Sym::new("of"))
                .iter()
                .copied()
                .find(|&i| prog.clauses()[i].head.to_string().starts_with(prefix))
                .unwrap()
        };
        for (call, i) in [(app_call, clause("of (app")), (lam_call, clause("of (lam"))] {
            let r = prog.resolvent(i).unwrap();
            let o = Ty::base("o");
            st.trial(|st| {
                let block = st.block(r.var_tys.iter().cloned());
                let head = At {
                    term: &r.clause.head,
                    env: Env::at(block.base),
                };
                let before = hoas_core::store::stats().lookups;
                let walked = head_unify(prog.sig(), st, &o, At::root(&call), head, block);
                let lookups = hoas_core::store::stats().lookups - before;
                assert!(matches!(walked, Ok(true)), "`{call}` unifies: {walked:?}");
                assert_eq!(
                    lookups, 0,
                    "`{call}` ≐ `{}` interned {lookups} nodes",
                    r.clause.head
                );
            });
        }
        // The repeated variable of `eval (lam ?F) (lam ?F)` is a residue,
        // and the unifier refutes two different λs there.
        let prog = crate::examples::eval_program();
        let r = prog.resolvent(0).unwrap();
        let lam = |body: Term| Term::app(Term::cnst("lam"), Term::lam("w", body));
        let call = Term::apps(
            Term::cnst("eval"),
            [lam(Term::Var(0)), lam(lam(Term::Var(1)))],
        );
        let mut st = St::new(&[]);
        let block = st.block(r.var_tys.iter().cloned());
        let head = At {
            term: &r.clause.head,
            env: Env::at(block.base),
        };
        let walked = head_unify(
            prog.sig(),
            &mut st,
            &Ty::base("o"),
            At::root(&call),
            head,
            block,
        );
        assert!(
            matches!(&walked, Ok(false)) || matches!(&walked, Err(e) if e.is_refutation()),
            "`{call}` ≐ `{}` must fail: {walked:?}",
            r.clause.head
        );
    }
}
