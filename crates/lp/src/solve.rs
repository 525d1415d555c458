//! The resolution engine: an explicit and-or search machine with
//! heap-allocated choice points, answer tabling keyed on interned
//! nodes, selectable search strategies (depth-first and iterative
//! deepening), pattern-unification-based clause matching, eigenvariable
//! scope checking, and hypothetical clauses with stack-scoped
//! lifetimes.
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
//! bound later, and terms are dereferenced through the array when a
//! goal is selected. Binding a metavariable is O(1) in the number of
//! bindings so far. Eigenvariables are de Bruijn variables over the
//! eigenvariable context: `Π x:τ. G` pushes `τ` and runs `G` with `x`
//! as `Var(0)`, and every metavariable carries the **level** (context
//! length) it was created at. A binding may mention only eigenvariables
//! below its metavariable's level; see `DESIGN.md` §10.
//!
//! Answer tabling ([`crate::table`]) runs *generators* for tabled call
//! variants: a sub-search on the same machine, with a proof state of its
//! own, whose answers land in the variant's table entry, restarted to a
//! least fixpoint when the variant consumed its own in-progress entry (a
//! same-SCC loop). Repeat calls replay stored answers through an
//! `Alts::Answers` choice point without searching.

use crate::cert::ProgramCert;
use crate::program::{fingerprint, fingerprint_admits, spine_head, Clause, Goal, Program, Rigid};
use crate::table::{EntryState, SolveTables, TableAnswer, TableEntry, TableMode, TableStats};
use hoas_core::ctx::Ctx;
use hoas_core::sig::Signature;
use hoas_core::term::{MetaEnv, MetaTypes};
use hoas_core::{normalize, subst, MVar, Sym, Term, TermRef, Ty};
use hoas_unify::msubst::Bindings;
use hoas_unify::pattern::{self, Delta};
use hoas_unify::problem::is_supported_meta_ty;
use hoas_unify::UnifyError;
use std::cell::Cell;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::rc::Rc;

/// How the machine explores the or-tree.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SearchStrategy {
    /// Chronological depth-first search with backtracking (the
    /// default): one pass at the full depth budget.
    #[default]
    Dfs,
    /// Iterative deepening: depth-first rounds at budgets `start`,
    /// `start + step`, … up to [`SolveConfig::max_depth`], keeping the
    /// last round's answers. A round that is not depth-cut is final
    /// (its answer set equals the DFS answer set up to order); rounds
    /// share one fuel budget and one table set.
    IterativeDeepening {
        /// First round's depth budget (clamped to `1..=max_depth`).
        start: u32,
        /// Budget increment between rounds (minimum 1).
        step: u32,
    },
}

/// Search budgets and strategy.
#[derive(Clone, Copy, Debug)]
pub struct SolveConfig {
    /// Maximum resolution (clause-application) steps along one branch.
    pub max_depth: u32,
    /// Stop after this many answers.
    pub max_solutions: usize,
    /// Total goal-processing steps across the whole search.
    pub fuel: u64,
    /// How the or-tree is explored.
    pub strategy: SearchStrategy,
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
            strategy: SearchStrategy::Dfs,
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
    /// Reads and writes of stored metavariable bindings: the solver's
    /// binding work, a machine-independent measure of how the search
    /// state scales with derivation length.
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
enum Work {
    G(Goal),
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

/// A hypothetical clause in scope. Its terms live at the eigenvariable
/// depth it was assumed at; the head predicate and argument
/// fingerprint are precomputed then, so candidate selection need not
/// re-walk the head spine per call.
struct Local {
    clause: Clause,
    depth: u32,
    pred: Option<Rigid>,
    fingerprint: Vec<Option<Rigid>>,
}

impl Local {
    fn new(clause: Clause, depth: u32) -> Local {
        Local {
            pred: Rigid::of(&clause.head, depth),
            fingerprint: fingerprint(&clause.head, depth),
            depth,
            clause,
        }
    }
}

/// One metavariable's entry in the binding array.
struct Slot {
    ty: Ty,
    /// The eigenvariable-context length the metavariable was created
    /// at (lowered when an older metavariable's binding mentions it):
    /// its binding may mention only eigenvariables below this level.
    level: u32,
    /// The binding, at the metavariable's own level: a free `Var(i)`
    /// is the eigenvariable at level `level - 1 - i`. It may mention
    /// metavariables bound later (a triangular substitution).
    binding: Option<Term>,
}

/// One undoable change to a [`St`].
enum Undo {
    Bound(u32),
    Lowered(u32, u32),
    EigenPushed,
    EigenPopped(Sym, Ty),
    LocalPushed,
    LocalPopped(Rc<Local>),
}

/// A position to backtrack to: the trail length and the number of
/// allocated metavariables.
#[derive(Clone, Copy)]
struct Mark {
    trail: usize,
    metas: usize,
}

/// The proof state of one machine run.
struct St {
    slots: Vec<Slot>,
    trail: Vec<Undo>,
    /// Slots below this index predate the newest choice point, so only
    /// their changes are trailed; younger slots are dropped wholesale
    /// when the machine backtracks.
    fence: usize,
    /// Eigenvariable types, innermost last: `Var(i)` in a goal at the
    /// current depth is the eigenvariable at level `len - 1 - i`.
    eigen: Ctx,
    /// Stack-scoped hypothetical clauses, newest last.
    locals: Vec<Rc<Local>>,
    /// Binding-array reads and writes (see [`Outcome::binding_visits`]).
    visits: Cell<u64>,
}

impl St {
    /// A state whose metavariables `0..k` have the given types, all at
    /// level 0.
    fn new(tys: &[Ty]) -> St {
        St {
            slots: tys
                .iter()
                .map(|ty| Slot {
                    ty: ty.clone(),
                    level: 0,
                    binding: None,
                })
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
        self.slots.push(Slot {
            ty,
            level,
            binding: None,
        });
        MVar::new(self.next_meta() - 1, hint.clone())
    }

    fn push_eigen(&mut self, hint: Sym, ty: Ty) {
        self.eigen.push_mut(hint, ty);
        self.trail.push(Undo::EigenPushed);
    }

    fn pop_eigen(&mut self) {
        let (hint, ty) = self.eigen.pop_mut().expect("scoped by PopEigen");
        self.trail.push(Undo::EigenPopped(hint, ty));
    }

    fn push_local(&mut self, clause: Clause) {
        let depth = self.depth();
        self.locals.push(Rc::new(Local::new(clause, depth)));
        self.trail.push(Undo::LocalPushed);
    }

    fn pop_local(&mut self) {
        let l = self.locals.pop().expect("scoped by PopClause");
        self.trail.push(Undo::LocalPopped(l));
    }

    fn visit(&self) {
        self.visits.set(self.visits.get() + 1);
    }

    /// `t`, a term at the current depth, with every bound metavariable
    /// dereferenced through the binding array, β-normal. Subterms no
    /// binding reaches come back as the same nodes.
    fn resolve(&self, t: &Term) -> Term {
        match self.graft(t, self.depth()) {
            Some(grafted) => normalize::nf(&grafted),
            None if t.is_beta_normal() => t.clone(),
            None => normalize::nf(t),
        }
    }

    /// Replaces bound metavariables in `t` at absolute depth `depth`
    /// (eigenvariables plus binders above `t`), or `None` when none
    /// occurs. Redexes a λ-binding creates are left to the caller's
    /// normalization.
    fn graft(&self, t: &Term, depth: u32) -> Option<Term> {
        if !t.has_metas() {
            return None;
        }
        match t {
            Term::Meta(m) => self.deref(m, depth),
            Term::Var(_) | Term::Const(_) | Term::Int(_) | Term::Unit => None,
            Term::Lam(h, b) => Some(Term::lam(h.clone(), self.graft_ref(b, depth + 1)?)),
            Term::App(f, a) => self.graft_pair(f, a, depth).map(|(f, a)| Term::app(f, a)),
            Term::Pair(a, b) => self.graft_pair(a, b, depth).map(|(a, b)| Term::pair(a, b)),
            Term::Fst(p) => Some(Term::fst(self.graft_ref(p, depth)?)),
            Term::Snd(p) => Some(Term::snd(self.graft_ref(p, depth)?)),
        }
    }

    fn graft_ref(&self, t: &TermRef, depth: u32) -> Option<TermRef> {
        if !t.has_meta() {
            return None;
        }
        self.graft(t.term(), depth).map(TermRef::new)
    }

    fn graft_pair(&self, a: &TermRef, b: &TermRef, depth: u32) -> Option<(TermRef, TermRef)> {
        match (self.graft_ref(a, depth), self.graft_ref(b, depth)) {
            (None, None) => None,
            (a2, b2) => Some((
                a2.unwrap_or_else(|| a.clone()),
                b2.unwrap_or_else(|| b.clone()),
            )),
        }
    }

    /// The binding of `m`, itself dereferenced, renumbered from the
    /// metavariable's level to absolute depth `depth`. A chain of
    /// bindings to bare metavariables (`?A ↦ ?B ↦ …`, which flex-flex
    /// steps build one link per resolution step) is followed in a loop,
    /// so host recursion is bounded by term depth, not chain length.
    fn deref(&self, m: &MVar, depth: u32) -> Option<Term> {
        let mut slot = self.slots.get(m.id() as usize)?;
        let mut bound = slot.binding.as_ref()?;
        debug_assert!(slot.level <= depth, "{m} is bound above its scope");
        self.visit();
        // A link's target has a level no higher than its source's, so
        // shifting the end of the chain once covers every link.
        while let Term::Meta(next) = bound {
            let Some((next_slot, next_bound)) = self
                .slots
                .get(next.id() as usize)
                .and_then(|s| Some((s, s.binding.as_ref()?)))
            else {
                break;
            };
            self.visit();
            slot = next_slot;
            bound = next_bound;
        }
        let resolved = self.graft(bound, slot.level);
        Some(subst::shift(
            resolved.as_ref().unwrap_or(bound),
            depth - slot.level,
        ))
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
            .all(|(m, t)| self.bind(m.id() as usize, t, depth))
    }

    /// Binds slot `id` to `t`, a term at depth `depth`, converting it to
    /// the metavariable's level. A metavariable at the current level
    /// can mention every eigenvariable in scope, and (by the level
    /// invariant) no metavariable in `t` has a higher level, so that
    /// binding is O(1). An older one is checked for escape and passes
    /// its level down to the metavariables `t` mentions.
    fn bind(&mut self, id: usize, t: &Term, depth: u32) -> bool {
        let level = self.slots[id].level;
        let t = if level < depth {
            let above = depth - level;
            if mentions_vars_below(t, above, 0) {
                return false;
            }
            self.lower_levels(t, level);
            subst::unshift_above(t, above, 0)
        } else {
            t.clone()
        };
        if id < self.fence {
            self.trail.push(Undo::Bound(id as u32));
        }
        self.slots[id].binding = Some(t);
        self.visit();
        true
    }

    /// Lowers every metavariable in `t` above `level` to it.
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

impl MetaTypes for St {
    fn meta_ty(&self, m: &MVar) -> Option<&Ty> {
        self.slots.get(m.id() as usize).map(|s| &s.ty)
    }
}

impl Bindings for St {
    fn is_solved(&self, m: &MVar) -> bool {
        self.slots
            .get(m.id() as usize)
            .is_some_and(|s| s.binding.is_some())
    }

    fn apply(&self, t: &Term) -> Term {
        self.resolve(t)
    }
}

/// The current and-branch: remaining goals and remaining depth budget.
struct Branch {
    work: Vec<Work>,
    depth: u32,
}

/// One untried alternative source at a choice point.
enum Alts {
    /// Clause resolution: candidates are hypothetical clauses (indices
    /// into the state's `locals` at the frame's mark, newest first)
    /// followed by program clauses (indices into [`Program::clauses`]).
    Clauses {
        atom: Term,
        target: Ty,
        candidates: Vec<Candidate>,
        next: usize,
    },
    /// Answer replay: unify each stored answer of the table entry for
    /// `key` against the call atom. The bucket is re-read on every
    /// advance, so answers a generator adds *after* this frame was
    /// pushed are still found (the in-progress consumer protocol).
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
struct Frame {
    mark: Mark,
    work: Vec<Work>,
    depth: u32,
    alts: Alts,
}

/// What [`Machine::step_atom`] did with the current branch.
enum Step {
    /// The branch continues (deterministic path took it by move).
    Continue(Branch),
    /// The branch failed (or was budget-cut); backtrack.
    Fail,
    /// A choice point was pushed; backtrack into it.
    Chose,
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
    stats: TableStats,
    binding_visits: u64,
    fuel: u64,
    floundered: bool,
    /// Depth budget for generator sub-searches (the strategy's current
    /// round budget, so iterative deepening stays faithful).
    gen_depth: u32,
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
/// certificate: calls to committed-choice predicates whose committed
/// argument positions are ground (and for which no hypothetical clause
/// is in scope) commit to the first matching clause without pushing a
/// choice point, and, under [`TableMode::Certified`], calls the
/// certificate marks table-eligible are answered from variant tables.
/// In debug builds the dynamic sanitizers cross-check every enforced
/// verdict (see [`crate::cert`]) and panic with the violated HA code.
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
    // the hereditary substitution `St::resolve` performs), so the query
    // is canonicalized once here and the program's clauses once per
    // program; the unifier then takes both sides as they are.
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
    let mut machine = Machine {
        prog,
        cfg,
        cert,
        tables,
        stats: TableStats::default(),
        binding_visits: 0,
        fuel: cfg.fuel,
        floundered: false,
        gen_depth: cfg.max_depth,
        nest: 0,
    };
    let mut out = Outcome::default();
    let result = machine.drive(&tys, &goal, &query_metas, &mut out);
    // Whatever happened (including a hard error or a fuel abort),
    // in-flight table entries must not look complete.
    if let Some(t) = machine.tables.as_deref_mut() {
        t.quiesce();
    }
    out.floundered = machine.floundered;
    out.tables = machine.stats;
    out.binding_visits = machine.binding_visits;
    result?;
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
    /// Runs the configured strategy to completion. The goal's
    /// metavariables are numbered `0..k`, typed by `tys`, and reported
    /// under the caller's names `query_metas`.
    fn drive(
        &mut self,
        tys: &[Ty],
        goal: &Goal,
        query_metas: &[MVar],
        out: &mut Outcome,
    ) -> Result<(), LpError> {
        let init = || St::new(tys);
        let branch = |depth: u32| Branch {
            work: vec![Work::G(goal.clone())],
            depth,
        };
        match self.cfg.strategy {
            SearchStrategy::Dfs => {
                self.gen_depth = self.cfg.max_depth;
                let mut consumed = Vec::new();
                let cut = self.run(
                    init(),
                    branch(self.cfg.max_depth),
                    &mut Sink::Top {
                        query_metas,
                        answers: &mut out.answers,
                        max: self.cfg.max_solutions,
                    },
                    &mut consumed,
                )?;
                out.cut = cut;
            }
            SearchStrategy::IterativeDeepening { start, step } => {
                let step = step.max(1);
                let mut d = start.clamp(1, self.cfg.max_depth.max(1));
                loop {
                    out.answers.clear();
                    self.gen_depth = d;
                    let mut consumed = Vec::new();
                    let cut = self.run(
                        init(),
                        branch(d),
                        &mut Sink::Top {
                            query_metas,
                            answers: &mut out.answers,
                            max: self.cfg.max_solutions,
                        },
                        &mut consumed,
                    )?;
                    out.cut = cut;
                    // Deepen only while a depth-flavored cut left the
                    // round inconclusive and budget remains.
                    let deepen = matches!(cut, Some(CutBy::Depth) | Some(CutBy::Table))
                        && out.answers.len() < self.cfg.max_solutions
                        && d < self.cfg.max_depth;
                    if !deepen {
                        break;
                    }
                    d = d.saturating_add(step).min(self.cfg.max_depth);
                }
            }
        }
        Ok(())
    }

    /// Runs one depth-first machine pass over its own proof state,
    /// delivering answers to `sink`, and adds the state's binding visits
    /// to the machine's. Returns the budget cut observed by this run
    /// (not counting enclosing runs). `consumed` collects the keys of
    /// in-progress table entries this run replayed from — the generator
    /// fixpoint protocol's dependency set.
    fn run(
        &mut self,
        mut st: St,
        branch: Branch,
        sink: &mut Sink<'_>,
        consumed: &mut Vec<TermRef>,
    ) -> Result<Option<CutBy>, LpError> {
        let result = self.run_on(&mut st, branch, sink, consumed);
        self.binding_visits += st.visits.get();
        result
    }

    fn run_on(
        &mut self,
        st: &mut St,
        branch: Branch,
        sink: &mut Sink<'_>,
        consumed: &mut Vec<TermRef>,
    ) -> Result<Option<CutBy>, LpError> {
        let mut frames: Vec<Frame> = Vec::new();
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
                let atom = match work {
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
                    Work::G(Goal::True) => continue,
                    Work::G(Goal::And(l, r)) => {
                        b.work.push(Work::G(*r));
                        b.work.push(Work::G(*l));
                        continue;
                    }
                    Work::G(Goal::Impl(d, g)) => {
                        if !d.vars.is_empty() {
                            return Err(LpError::LocalClauseWithVars(d.to_string()));
                        }
                        st.push_local(*d);
                        b.work.push(Work::PopClause);
                        b.work.push(Work::G(*g));
                        continue;
                    }
                    Work::G(Goal::All(hint, ty, body)) => {
                        // A fresh eigenvariable: the body's `Var(0)`,
                        // typed by one more context entry.
                        st.push_eigen(hint, ty);
                        b.work.push(Work::PopEigen);
                        b.work.push(Work::G(*body));
                        continue;
                    }
                    Work::G(Goal::Atom(t)) => (t, false),
                    Work::AtomByClauses(t) => (t, true),
                };
                let (t, by_clauses) = atom;
                match self.step_atom(st, b, t, by_clauses, &mut frames, &mut cut, consumed)? {
                    Step::Continue(nb) => b = nb,
                    Step::Fail | Step::Chose => break,
                }
            }
            // Branch ended; `cur` is already `None`, so the next
            // iteration backtracks.
        }
    }

    /// Delivers one completed derivation to the sink. Returns `true`
    /// when the run should stop (answer quota reached).
    fn deliver(&mut self, st: &St, sink: &mut Sink<'_>) -> bool {
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
                    .filter(|&(i, _)| st.slots[i as usize].binding.is_some())
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
    fn advance(&mut self, st: &mut St, f: &mut Frame) -> Result<(Option<Branch>, bool), LpError> {
        match &mut f.alts {
            Alts::Clauses {
                atom,
                target,
                candidates,
                next,
            } => {
                while *next < candidates.len() {
                    let cand = candidates[*next];
                    *next += 1;
                    st.undo(f.mark);
                    if let Some(body) = self.try_clause(st, atom, target, cand)? {
                        // The last candidate leaves the frame dry: it is
                        // popped, so its work list moves to the branch.
                        let dry = *next == candidates.len();
                        let mut work = if dry {
                            std::mem::take(&mut f.work)
                        } else {
                            f.work.clone()
                        };
                        work.push(Work::G(body));
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
                let head = instantiate_answer(st, &ans);
                if self.unify_into(st, target, atom, &head)? {
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

    /// Resolves the call `atom` against one candidate clause: renames
    /// the clause apart, unifies its head with the call and records the
    /// solution. Returns the clause body to prove, or `None` when the
    /// head does not match (the state may then hold partial bindings
    /// and fresh metavariables; the caller unwinds or discards them).
    fn try_clause(
        &mut self,
        st: &mut St,
        atom: &Term,
        target: &Ty,
        cand: Candidate,
    ) -> Result<Option<Goal>, LpError> {
        let (head, body) = match cand {
            Candidate::Local(i) => instantiate_local(st, i),
            Candidate::Prog(i) => freshen(st, self.prog.canonical_clause(i)?)?,
        };
        Ok(self.unify_into(st, target, atom, &head)?.then_some(body))
    }

    /// Unifies a call atom with a clause or answer head and records the
    /// solution. `false` means no match: a refutation, an eigenvariable
    /// escape, or a flounder (noted on the machine).
    fn unify_into(
        &mut self,
        st: &mut St,
        target: &Ty,
        atom: &Term,
        head: &Term,
    ) -> Result<bool, LpError> {
        match unify_heads(self.prog.sig(), st, target, atom, head) {
            Ok(delta) => Ok(st.merge(delta)),
            Err(e) if e.is_refutation() || matches!(e, UnifyError::Escape { .. }) => Ok(false),
            Err(UnifyError::NotPattern { .. }) => {
                self.floundered = true;
                Ok(false)
            }
            Err(e) => Err(LpError::Unify(e)),
        }
    }

    /// Resolves an atomic goal: flounder/error handling, the depth
    /// gate, then one of the committed-choice fast path, the tabling
    /// path, or an ordinary clause choice point.
    #[allow(clippy::too_many_arguments)]
    fn step_atom(
        &mut self,
        st: &mut St,
        b: Branch,
        atom: Term,
        by_clauses: bool,
        frames: &mut Vec<Frame>,
        cut: &mut Option<CutBy>,
        consumed: &mut Vec<TermRef>,
    ) -> Result<Step, LpError> {
        // Solution instantiation is graft + β-normalize; the
        // normalizer's operation memo replays repeated
        // (body, argument) contractions — the signature access pattern
        // of resolution — in O(1). See `hoas_core::normalize`.
        let atom = st.resolve(&atom);
        let depth = st.depth();
        let bad = || LpError::BadAtom(atom.to_string());
        let (pred, pred_ty) = match spine_head(&atom) {
            Term::Const(c) => {
                let ty = self.prog.sig().const_ty(c.as_str()).ok_or_else(bad)?;
                (Rigid::Const(c.clone()), ty.as_mono().ok_or_else(bad)?)
            }
            Term::Var(i) if *i < depth => {
                let ty = st.eigen.lookup(*i).expect("in scope").1;
                (Rigid::Eigen(depth - 1 - i), ty)
            }
            Term::Meta(_) => {
                self.floundered = true;
                return Ok(Step::Fail);
            }
            _ => return Err(bad()),
        };
        let target = pred_ty.uncurry().1.clone();
        if b.depth == 0 {
            note_cut(cut, CutBy::Depth);
            return Ok(Step::Fail);
        }

        // Tabling outranks committed-choice: a tabled call replays the
        // memoized answer set (one answer for a deterministic
        // predicate), which subsumes the choice-point skip. A generator
        // root (`by_clauses`) is the producer for its own variant and
        // must go to the clauses.
        if let Rigid::Const(c) = &pred {
            if !by_clauses && self.table_gate(st, c, &atom) {
                return self.step_tabled(st, b, atom, c, target, frames, cut, consumed);
            }
            if let Some(commit) = commit_positions(self.cert, st, c, &atom.spine().1) {
                return self.step_committed(st, b, atom, c, target, commit);
            }
        }
        self.push_clause_frame(st, b, atom, &pred, target, frames)
    }

    /// Pushes an ordinary clause-resolution choice point over the
    /// branch, or fails the branch outright when no clause can match.
    fn push_clause_frame(
        &mut self,
        st: &mut St,
        mut b: Branch,
        atom: Term,
        pred: &Rigid,
        target: Ty,
        frames: &mut Vec<Frame>,
    ) -> Result<Step, LpError> {
        let args = atom.spine().1;
        let depth = st.depth();
        // Local clauses first (newest first), then the program's bucket
        // for this predicate — O(locals + bucket), not a scan over every
        // program clause. Both are filtered by head predicate and
        // argument fingerprint, so a clause with a clashing rigid
        // argument never costs a renaming or a unification.
        let mut candidates: Vec<Candidate> = st
            .locals
            .iter()
            .enumerate()
            .rev()
            .filter(|(_, l)| {
                l.pred.as_ref() == Some(pred) && fingerprint_admits(&l.fingerprint, &args, depth)
            })
            .map(|(i, _)| Candidate::Local(i))
            .collect();
        if let Rigid::Const(c) = pred {
            candidates.extend(
                self.prog
                    .clause_indices_for(c)
                    .iter()
                    .filter(|&&i| self.prog.clause_admits(i, &args, depth))
                    .map(|&i| Candidate::Prog(i)),
            );
            push_mode_exit(self.cert, &mut b.work, c, &atom, &args);
        }
        if candidates.is_empty() {
            return Ok(Step::Fail);
        }
        push_frame(
            st,
            frames,
            b,
            Alts::Clauses {
                atom,
                target,
                candidates,
                next: 0,
            },
        );
        Ok(Step::Chose)
    }

    /// The committed-choice fast path: the predicate's program clause
    /// heads are pairwise non-unifiable on `commit`, and those argument
    /// positions are ground here — so at most one clause head can
    /// match, and no choice point is pushed.
    ///
    /// A failed head unification records nothing (it leaves only
    /// unused fresh metavariables), so trying the next candidate on the
    /// same state is sound. The first full-head success consumes the
    /// commitment: even if its eigenvariable scope check then fails, no
    /// other clause could have matched the ground committed positions,
    /// so the whole call fails rather than backtracking.
    #[cfg_attr(not(debug_assertions), allow(unused_variables))]
    fn step_committed(
        &mut self,
        st: &mut St,
        mut b: Branch,
        atom: Term,
        pred: &Sym,
        target: Ty,
        commit: &[usize],
    ) -> Result<Step, LpError> {
        let args = atom.spine().1;
        let depth = st.depth();
        push_mode_exit(self.cert, &mut b.work, pred, &atom, &args);
        let indices = self.prog.clause_indices_for(pred);
        for (ci, &i) in indices.iter().enumerate() {
            if !self.prog.clause_admits(i, &args, depth) {
                continue;
            }
            let (head, body) = freshen(st, self.prog.canonical_clause(i)?)?;
            match unify_heads(self.prog.sig(), st, &target, &atom, &head) {
                Ok(delta) => {
                    // Sanitizer cross-check: no later clause may also
                    // match — two matches on ground committed positions
                    // falsify the determinacy verdict.
                    #[cfg(debug_assertions)]
                    for &other in &indices[ci + 1..] {
                        let mark = st.mark();
                        let (ohead, _) = freshen(st, self.prog.canonical_clause(other)?)?;
                        let matched =
                            unify_heads(self.prog.sig(), st, &target, &atom, &ohead).is_ok();
                        st.undo(mark);
                        assert!(
                            !matched,
                            "HA015 violated: committed-choice predicate `{pred}` \
                             has two matching clauses for `{atom}` \
                             (committed positions {commit:?})",
                        );
                    }
                    if !st.merge(delta) {
                        return Ok(Step::Fail);
                    }
                    b.work.push(Work::G(body));
                    b.depth -= 1;
                    return Ok(Step::Continue(b));
                }
                Err(e) if e.is_refutation() || matches!(e, UnifyError::Escape { .. }) => {}
                Err(UnifyError::NotPattern { .. }) => {
                    self.floundered = true;
                }
                Err(e) => return Err(LpError::Unify(e)),
            }
        }
        Ok(Step::Fail)
    }

    /// Whether this call is answered through the variant tables: the
    /// mode allows it, no hypothetical clause is in scope (a local for
    /// *any* predicate can reach the sub-derivation), the atom mentions
    /// no eigenvariable (tables are context-free; the atom's free
    /// variables are exactly its eigenvariables), and — under
    /// [`TableMode::Certified`] — the certificate marks the predicate
    /// eligible and some admitted mode's input positions are ground.
    fn table_gate(&self, st: &St, pred: &Sym, atom: &Term) -> bool {
        if self.tables.is_none() || !st.locals.is_empty() || atom.max_free() > 0 {
            return false;
        }
        match self.cfg.table {
            TableMode::Off => false,
            TableMode::Force => true,
            TableMode::Certified => {
                let Some(verdict) = self.cert.and_then(|c| c.verdict(pred)) else {
                    return false;
                };
                if !verdict.table {
                    return false;
                }
                let (_, args) = atom.spine();
                verdict.modes.iter().any(|m| {
                    m.inputs.len() == args.len()
                        && m.inputs
                            .iter()
                            .zip(&args)
                            .all(|(&input, a)| !input || !a.has_metas())
                })
            }
        }
    }

    /// Answers a tabled call: replay a complete entry, consume an
    /// in-progress one (same-SCC loop), or run the variant's generator
    /// to its restart fixpoint and then replay. See `DESIGN.md` §10 for
    /// the protocol and the soundness argument.
    #[allow(clippy::too_many_arguments)]
    fn step_tabled(
        &mut self,
        st: &mut St,
        mut b: Branch,
        atom: Term,
        pred: &Sym,
        target: Ty,
        frames: &mut Vec<Frame>,
        cut: &mut Option<CutBy>,
        consumed: &mut Vec<TermRef>,
    ) -> Result<Step, LpError> {
        let Some((key, canonical, call_tys)) = canonicalize_call(st, &atom) else {
            // An untyped residual meta (cannot replay soundly): fall
            // back to plain resolution.
            let pred = Rigid::Const(pred.clone());
            return self.push_clause_frame(st, b, atom, &pred, target, frames);
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
                    return self.push_clause_frame(st, b, atom, &pred, target, frames);
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
                self.table_gate(st, pred, &atom),
                "HA021 violated: call `{atom}` lost tabling eligibility \
                 between gate and table lookup",
            );
        }
        push_mode_exit(self.cert, &mut b.work, pred, &atom, &atom.spine().1);
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
        Ok(Step::Chose)
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
                depth: self.gen_depth,
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
fn push_frame(st: &mut St, frames: &mut Vec<Frame>, b: Branch, alts: Alts) {
    let mark = st.mark();
    st.fence = mark.metas;
    frames.push(Frame {
        mark,
        work: b.work,
        depth: b.depth,
        alts,
    });
}

/// Unifies a call atom against a clause (or answer) head, both
/// canonical and at the current eigenvariable depth. The unifier reads
/// metavariable types and bindings from the state itself (no per-call
/// environment), and its fresh metavariables are numbered from the
/// state's next free id.
fn unify_heads(
    sig: &Signature,
    st: &St,
    target: &Ty,
    atom: &Term,
    head: &Term,
) -> Result<Delta, UnifyError> {
    pattern::unify_against(
        sig,
        st,
        st.next_meta(),
        st.eigen.clone(),
        target.clone(),
        atom.clone(),
        head.clone(),
    )
}

/// Whether the certificate allows committing to the first matching
/// clause for this call: the predicate is committed-choice on a set of
/// positions, every one of those argument positions is ground in the
/// (solution-applied) atom, and no hypothetical clause for the
/// predicate is in scope (the determinacy analysis only accounts for
/// program clauses; locals reopen the choice).
fn commit_positions<'c>(
    cert: Option<&'c ProgramCert>,
    st: &St,
    pred: &Sym,
    args: &[&Term],
) -> Option<&'c [usize]> {
    let verdict = cert?.verdict(pred)?;
    let commit = verdict.commit.as_deref()?;
    if st
        .locals
        .iter()
        .any(|l| matches!(&l.pred, Some(Rigid::Const(c)) if c == pred))
    {
        return None;
    }
    commit
        .iter()
        .all(|&i| args.get(i).is_some_and(|a| !a.has_metas()))
        .then_some(commit)
}

/// Debug-build half of the mode sanitizer: if the certificate records a
/// mode whose input positions are all ground at this call, push a
/// [`Work::ModeExit`] marker so output groundness is re-verified when
/// the call's subtree is discharged.
#[cfg(debug_assertions)]
fn push_mode_exit(
    cert: Option<&ProgramCert>,
    stack: &mut Vec<Work>,
    pred: &Sym,
    atom: &Term,
    args: &[&Term],
) {
    let Some(verdict) = cert.and_then(|c| c.verdict(pred)) else {
        return;
    };
    let matched = verdict.modes.iter().find(|m| {
        m.inputs.len() == args.len()
            && m.inputs
                .iter()
                .zip(args)
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
    _stack: &mut Vec<Work>,
    _pred: &Sym,
    _atom: &Term,
    _args: &[&Term],
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
fn canonicalize_call(st: &St, atom: &Term) -> Option<(TermRef, Term, Vec<Ty>)> {
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
fn canonicalize_answer(st: &St, call: &Term) -> Option<TableAnswer> {
    let (term, metas) = rename_canonically(&st.resolve(call));
    let meta_tys = metas
        .iter()
        .map(|m| st.meta_ty(m).cloned())
        .collect::<Option<Vec<Ty>>>()?;
    Some(TableAnswer { term, meta_tys })
}

/// Instantiates a stored answer for replay: its canonical metas
/// (`0..k`) become fresh metavariables in `st` at the current level.
fn instantiate_answer(st: &mut St, ans: &TableAnswer) -> Term {
    if ans.meta_tys.is_empty() {
        return ans.term.clone();
    }
    let mut fresh: Vec<Option<MVar>> = vec![None; ans.meta_tys.len()];
    for m in ans.term.metas() {
        let k = m.id() as usize;
        fresh[k] = Some(st.fresh(m.hint(), ans.meta_tys[k].clone()));
    }
    rename_metas(&ans.term, &|m| {
        fresh.get(m.id() as usize).cloned().flatten()
    })
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

/// Renames a program clause's own universal variables (ids `0..n`) to
/// fresh metavariables at the current level. Pass the canonical clause
/// ([`Program::canonical_clause`]): the unifier takes its head as it is.
fn freshen(st: &mut St, clause: &Clause) -> Result<(Term, Goal), LpError> {
    if clause.vars.is_empty() {
        return Ok((clause.head.clone(), clause.body.clone()));
    }
    let mut fresh = Vec::with_capacity(clause.vars.len());
    for (hint, ty) in &clause.vars {
        let m = st.fresh(hint, ty.clone());
        check_meta_ty(&m, ty)?;
        fresh.push(m);
    }
    let map = |m: &MVar| fresh.get(m.id() as usize).cloned();
    let head = rename_metas(&clause.head, &map);
    let body = clause.body.map_terms(0, &mut |t, _| rename_metas(t, &map));
    Ok((head, body))
}

/// A hypothetical clause's head and body at the current depth: its
/// terms were assumed `k` eigenvariables ago, so their free variables
/// shift up by `k`, and the head's captured goal metavariables are
/// dereferenced (they may have been bound since).
fn instantiate_local(st: &St, i: usize) -> (Term, Goal) {
    let local = Rc::clone(&st.locals[i]);
    let k = st.depth() - local.depth;
    let clause = &local.clause;
    if k == 0 {
        return (st.resolve(&clause.head), clause.body.clone());
    }
    let head = st.resolve(&subst::shift(&clause.head, k));
    let body = clause
        .body
        .map_terms(0, &mut |t, under| subst::shift_above(t, k, under));
    (head, body)
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

/// `Ty` re-export for goal construction convenience.
pub use hoas_core::Ty as GoalTy;

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

    /// Whether the unifier refutes `call ≐ head` at the state's depth.
    fn refuted(prog: &Program, st: &St, call: &Term, head: &Term) -> bool {
        matches!(
            unify_heads(prog.sig(), st, &Ty::base("o"), call, head),
            Err(e) if e.is_refutation()
        )
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
            let local_head = {
                let x = gen_tm(&mut rng, &mut st, 2, 0);
                of(x, gen_tp(&mut rng, &mut st, 1))
            };
            st.push_local(Clause::fact(vec![], local_head));
            for _ in 0..extra {
                st.push_eigen(Sym::new("x"), tm());
            }
            let depth = st.depth();
            let call = {
                let x = gen_tm(&mut rng, &mut st, 2, 0);
                of(x, gen_tp(&mut rng, &mut st, 1))
            };
            let args = call.spine().1;
            if !fingerprint_admits(&st.locals[0].fingerprint, &args, depth) {
                let (head, _) = instantiate_local(&st, 0);
                prop_assert!(
                    refuted(&prog, &st, &call, &head),
                    "the filter drops local `{}` for `{}` at depth {}, but it unifies",
                    head, call, depth
                );
            }
            for &i in prog.clause_indices_for(&Sym::new("of")) {
                if prog.clause_admits(i, &args, depth) {
                    continue;
                }
                let mark = st.mark();
                let (head, _) = freshen(&mut st, prog.canonical_clause(i).unwrap()).unwrap();
                let ok = refuted(&prog, &st, &call, &head);
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
        let mut st = St::new(&[]);
        st.push_eigen(Sym::new("x"), tm());
        st.push_local(Clause::fact(vec![], of(Term::Var(0), Term::cnst("base"))));
        st.push_eigen(Sym::new("x"), tm());
        let t = st.fresh(&Sym::new("T"), Ty::base("tp"));
        let m = st.fresh(&Sym::new("M"), tm());
        let admits = |st: &St, x: Term| {
            let call = of(x, Term::Meta(t.clone()));
            let args = call.spine().1;
            let local = fingerprint_admits(&st.locals[0].fingerprint, &args, 2);
            let (head, _) = instantiate_local(st, 0);
            assert_eq!(local, !refuted(&prog, st, &call, &head), "{call} vs {head}");
            local
        };
        assert!(admits(&st, Term::Var(1)), "x₀ is x₀ at every depth");
        assert!(!admits(&st, Term::Var(0)), "x₁ is not x₀");
        let app = Term::apps(Term::cnst("app"), [Term::Var(0), Term::Var(1)]);
        assert!(!admits(&st, app), "a constant is not an eigenvariable");
        assert!(admits(&st, Term::Meta(m)), "a metavariable is a wildcard");
        let call = of(Term::Var(0), Term::Meta(t));
        let app_clause = prog
            .clause_indices_for(&Sym::new("of"))
            .iter()
            .copied()
            .find(|&i| prog.clauses()[i].head.to_string().starts_with("of (app"))
            .expect("STLC has an application clause");
        assert!(!prog.clause_admits(app_clause, &call.spine().1, 2));
        let (head, _) = freshen(&mut st, prog.canonical_clause(app_clause).unwrap()).unwrap();
        assert!(refuted(&prog, &st, &call, &head));
    }
}
