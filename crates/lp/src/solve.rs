//! The resolution engine: an explicit and-or search machine with
//! heap-allocated choice points, answer tabling keyed on interned
//! nodes, selectable search strategies (depth-first and iterative
//! deepening), pattern-unification-based clause matching, eigenvariable
//! scope checking, and hypothetical clauses with stack-scoped
//! lifetimes.
//!
//! # The machine
//!
//! Search state is explicit: a **branch** is `(St, work list, depth)`;
//! a **choice point** is a [`Frame`] holding a snapshot of the branch
//! plus the untried alternatives (clause candidates, or stored table
//! answers). Backtracking pops work from the frame stack instead of
//! unwinding host frames, so a 10⁵-deep right-recursive derivation
//! costs 10⁵ heap frames and zero host stack — the OS stack can no
//! longer overflow, and the search state is a plain data structure.
//!
//! Answer tabling ([`crate::table`]) runs *generators* for tabled call
//! variants: a sub-search on the same machine whose answers land in the
//! variant's table entry, restarted to a least fixpoint when the
//! variant consumed its own in-progress entry (a same-SCC loop).
//! Repeat calls replay stored answers through an
//! [`Alts::Answers`] choice point without searching.

use crate::cert::ProgramCert;
use crate::program::{Clause, Goal, Program};
use crate::table::{EntryState, SolveTables, TableAnswer, TableEntry, TableMode, TableStats};
use hoas_core::sig::Signature;
use hoas_core::term::{fingerprint_admits, MetaEnv};
use hoas_core::{MVar, Sym, Term, TermRef, Ty};
use hoas_unify::pattern;
use hoas_unify::problem::Constraint;
use hoas_unify::{MetaSubst, UnifyError};
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
    PopClause,
    /// Debug-build mode sanitizer marker (pushed only when a
    /// certificate mode matched the call): when this pops, the atom's
    /// subtree of work is fully discharged, so the recorded output
    /// positions must be ground under the current solution — anything
    /// else falsifies the static mode verdict.
    #[allow(dead_code)]
    ModeExit(Term, Vec<usize>),
}

#[derive(Clone)]
struct St {
    /// Shared copy-on-write: cloning a branch snapshot is one refcount
    /// bump, and only a `Π`-goal's eigenvariable declaration pays for a
    /// private copy ([`Rc::make_mut`]). The recursive solver deep-cloned
    /// the signature once per candidate clause, which dominated large
    /// programs.
    sig: Rc<Signature>,
    menv: MetaEnv,
    meta_level: HashMap<u32, u32>,
    eigen_level: HashMap<String, u32>,
    next_meta: u32,
    next_eigen: u32,
    level: u32,
    sol: MetaSubst,
    /// Stack-scoped hypothetical clauses, newest last.
    locals: Vec<Rc<Local>>,
}

/// A hypothetical clause in scope, with the head predicate and argument
/// fingerprint precomputed when it is assumed, so candidate selection
/// need not re-walk the head spine per call.
struct Local {
    clause: Clause,
    pred: Option<Sym>,
    fingerprint: Vec<Option<Sym>>,
}

/// The current and-branch: proof state, remaining goals, remaining
/// depth budget.
struct Branch {
    st: St,
    work: Vec<Work>,
    depth: u32,
}

/// One untried alternative source at a choice point.
enum Alts {
    /// Clause resolution: candidates are hypothetical clauses (indices
    /// into the saved state's `locals`, newest first) followed by
    /// program clauses (indices into [`Program::clauses`]).
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
    /// Index into the frame's saved `st.locals`.
    Local(usize),
    /// Index into the program's clause list.
    Prog(usize),
}

/// A reified choice point: the branch snapshot to restore plus the
/// alternatives not yet tried.
struct Frame {
    st: St,
    work: Vec<Work>,
    depth: u32,
    alts: Alts,
}

/// What [`Machine::step_atom`] did with the current branch.
// `Continue` carries the branch by value on the per-resolution-step hot
// path; boxing it to shrink the enum would trade one move for one heap
// allocation per step.
#[allow(clippy::large_enum_variant)]
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
    /// The program signature, cloned once per solve and then shared
    /// into every branch state.
    base_sig: Rc<Signature>,
    cfg: &'a SolveConfig,
    cert: Option<&'a ProgramCert>,
    tables: Option<&'a mut SolveTables>,
    stats: TableStats,
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
/// empty [`Outcome`] instead.
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
/// is in scope) commit to the first matching clause without allocating
/// the remaining choice points — no search-state clone per candidate —
/// and, under [`TableMode::Certified`], calls the certificate marks
/// table-eligible are answered from variant tables. In debug builds the
/// dynamic sanitizers cross-check every enforced verdict (see
/// [`crate::cert`]) and panic with the violated HA code.
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
    for m in &mut query_metas {
        match menv.get_key_value(m) {
            Some((k, _)) => *m = k.clone(),
            None => {
                return Err(LpError::Unify(UnifyError::IllTyped(
                    hoas_core::Error::UnknownMeta { mvar: m.clone() },
                )))
            }
        }
    }
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
        base_sig: Rc::new(prog.sig().clone()),
        cfg,
        cert,
        tables,
        stats: TableStats::default(),
        fuel: cfg.fuel,
        floundered: false,
        gen_depth: cfg.max_depth,
        nest: 0,
    };
    let mut out = Outcome::default();
    let result = machine.drive(menv, goal, &query_metas, &mut out);
    // Whatever happened (including a hard error or a fuel abort),
    // in-flight table entries must not look complete.
    if let Some(t) = machine.tables.as_deref_mut() {
        t.quiesce();
    }
    out.floundered = machine.floundered;
    out.tables = machine.stats;
    hoas_core::store::record_table_events(
        out.tables.hits,
        out.tables.variant_misses,
        out.tables.suspensions,
        out.tables.answers_reused,
    );
    result?;
    Ok(out)
}

impl<'a> Machine<'a> {
    /// Runs the configured strategy to completion.
    fn drive(
        &mut self,
        menv: &MetaEnv,
        goal: &Goal,
        query_metas: &[MVar],
        out: &mut Outcome,
    ) -> Result<(), LpError> {
        let base_sig = Rc::clone(&self.base_sig);
        let init = move |depth: u32| Branch {
            st: St {
                sig: Rc::clone(&base_sig),
                menv: menv.clone(),
                meta_level: menv.keys().map(|m| (m.id(), 0)).collect(),
                eigen_level: HashMap::new(),
                next_meta: menv.keys().map(|m| m.id() + 1).max().unwrap_or(0),
                next_eigen: 0,
                level: 0,
                sol: MetaSubst::new(),
                locals: Vec::new(),
            },
            work: vec![Work::G(goal.clone())],
            depth,
        };
        match self.cfg.strategy {
            SearchStrategy::Dfs => {
                self.gen_depth = self.cfg.max_depth;
                let mut consumed = Vec::new();
                let cut = self.run(
                    init(self.cfg.max_depth),
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
                        init(d),
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

    /// Runs one depth-first machine pass from `branch`, delivering
    /// answers to `sink`. Returns the budget cut observed by this run
    /// (not counting enclosing runs). `consumed` collects the keys of
    /// in-progress table entries this run replayed from — the generator
    /// fixpoint protocol's dependency set.
    fn run(
        &mut self,
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
                    match self.advance(f)? {
                        Some(nb) => {
                            cur = Some(nb);
                            continue 'machine;
                        }
                        None => {
                            frames.pop();
                        }
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
                    if self.deliver(&b.st, sink) {
                        return Ok(cut);
                    }
                    break;
                };
                match work {
                    Work::PopClause => {
                        b.st.locals.pop();
                    }
                    Work::ModeExit(atom, outputs) => {
                        // Debug-build sanitizer: the moded call
                        // succeeded, so its output positions must now
                        // be ground.
                        let atom = b.st.sol.apply(&atom);
                        let (_, args) = atom.spine();
                        for &i in &outputs {
                            assert!(
                                args.get(i).is_none_or(|a| !a.has_metas()),
                                "HA018 violated: output argument {i} of `{atom}` is \
                                 not ground at exit despite a matched static mode",
                            );
                        }
                    }
                    Work::G(Goal::True) => {}
                    Work::G(Goal::And(l, r)) => {
                        b.work.push(Work::G(*r));
                        b.work.push(Work::G(*l));
                    }
                    Work::G(Goal::Impl(d, g)) => {
                        if !d.vars.is_empty() {
                            return Err(LpError::LocalClauseWithVars(d.to_string()));
                        }
                        b.st.locals.push(Rc::new(Local {
                            pred: d.head_pred().cloned(),
                            fingerprint: d.head.arg_fingerprint(),
                            clause: *d,
                        }));
                        b.work.push(Work::PopClause);
                        b.work.push(Work::G(*g));
                    }
                    Work::G(Goal::All(hint, ty, body)) => {
                        // Introduce a fresh eigenvariable as a scoped
                        // constant.
                        let name = format!("{}#{}", hint, b.st.next_eigen);
                        b.st.next_eigen += 1;
                        b.st.level += 1;
                        Rc::make_mut(&mut b.st.sig)
                            .declare_const(name.as_str(), hoas_core::TyScheme::mono(ty.clone()))
                            .map_err(|e| LpError::Unify(UnifyError::IllTyped(e)))?;
                        b.st.eigen_level.insert(name.clone(), b.st.level);
                        let eigen = Term::cnst(name.as_str());
                        let instantiated =
                            body.map_terms(0, &mut |t, d| replace_and_lower(t, d, &eigen));
                        b.work.push(Work::G(instantiated));
                    }
                    Work::G(Goal::Atom(t)) => {
                        match self.step_atom(b, t, false, &mut frames, &mut cut, consumed)? {
                            Step::Continue(nb) => {
                                b = nb;
                                continue;
                            }
                            Step::Fail | Step::Chose => break,
                        }
                    }
                    Work::AtomByClauses(t) => {
                        match self.step_atom(b, t, true, &mut frames, &mut cut, consumed)? {
                            Step::Continue(nb) => {
                                b = nb;
                                continue;
                            }
                            Step::Fail | Step::Chose => break,
                        }
                    }
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
                let raw: Vec<(MVar, Term)> = query_metas
                    .iter()
                    .filter_map(|m| st.sol.get(m).map(|t| (m.clone(), t.clone())))
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

    /// Advances a choice point to its next viable alternative,
    /// producing the branch to run, or `None` when the frame is dry.
    fn advance(&mut self, f: &mut Frame) -> Result<Option<Branch>, LpError> {
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
                    let clause: &Clause = match cand {
                        Candidate::Local(i) => &f.st.locals[i].clause,
                        Candidate::Prog(i) => &self.prog.clauses()[i],
                    };
                    let mut st2 = f.st.clone();
                    let (head, body) = freshen(&mut st2, clause);
                    // Hypothetical clauses capture the goal's logic
                    // variables, which may have been solved since the
                    // clause was assumed.
                    let head = st2.sol.apply(&head);
                    match unify_heads(&st2, target, atom, &head) {
                        Ok(solution) => {
                            if !merge_solution(&mut st2, solution) {
                                continue;
                            }
                            let mut work = f.work.clone();
                            work.push(Work::G(body));
                            return Ok(Some(Branch {
                                st: st2,
                                work,
                                depth: f.depth - 1,
                            }));
                        }
                        Err(e) if e.is_refutation() || matches!(e, UnifyError::Escape { .. }) => {}
                        Err(UnifyError::NotPattern { .. }) => {
                            self.floundered = true;
                        }
                        Err(e) => return Err(LpError::Unify(e)),
                    }
                }
                Ok(None)
            }
            Alts::Answers {
                atom,
                target,
                key,
                next,
            } => loop {
                let Some(ans) = self
                    .tables
                    .as_deref()
                    .and_then(|t| t.entries.get(key))
                    .and_then(|e| e.answers.get(*next))
                    .cloned()
                else {
                    return Ok(None);
                };
                *next += 1;
                let mut st2 = f.st.clone();
                let head = instantiate_answer(&mut st2, &ans);
                match unify_heads(&st2, target, atom, &head) {
                    Ok(solution) => {
                        if !merge_solution(&mut st2, solution) {
                            continue;
                        }
                        self.stats.answers_reused += 1;
                        return Ok(Some(Branch {
                            st: st2,
                            work: f.work.clone(),
                            depth: f.depth - 1,
                        }));
                    }
                    Err(e) if e.is_refutation() || matches!(e, UnifyError::Escape { .. }) => {}
                    Err(UnifyError::NotPattern { .. }) => {
                        self.floundered = true;
                    }
                    Err(e) => return Err(LpError::Unify(e)),
                }
            },
        }
    }

    /// Resolves an atomic goal: flounder/error handling, the depth
    /// gate, then one of the committed-choice fast path, the tabling
    /// path, or an ordinary clause choice point.
    fn step_atom(
        &mut self,
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
        // of resolution — in O(1). See `MetaSubst::apply` and
        // `hoas_core::normalize`.
        let atom = b.st.sol.apply(&atom);
        let pred = match atom.spine().0 {
            Term::Const(c) => c.clone(),
            Term::Meta(_) => {
                self.floundered = true;
                return Ok(Step::Fail);
            }
            _ => return Err(LpError::BadAtom(atom.to_string())),
        };
        let pred_ty =
            b.st.sig
                .const_ty(pred.as_str())
                .ok_or_else(|| LpError::BadAtom(atom.to_string()))?;
        let target = match pred_ty.as_mono() {
            Some(ty) => ty.uncurry().1.clone(),
            None => return Err(LpError::BadAtom(atom.to_string())),
        };
        if b.depth == 0 {
            note_cut(cut, CutBy::Depth);
            return Ok(Step::Fail);
        }

        // Tabling outranks committed-choice: a tabled call replays the
        // memoized answer set (one answer for a deterministic
        // predicate), which subsumes the choice-point skip. A generator
        // root (`by_clauses`) is the producer for its own variant and
        // must go to the clauses.
        if !by_clauses && self.table_gate(&b.st, &pred, &atom) {
            return self.step_tabled(b, atom, pred, target, frames, cut, consumed);
        }
        if let Some(commit) = commit_positions(self.cert, &b.st, &pred, &atom.spine().1) {
            return self.step_committed(b, atom, pred, target, commit);
        }
        Ok(self.push_clause_frame(b, atom, pred, target, frames))
    }

    /// Pushes an ordinary clause-resolution choice point over the
    /// branch, or fails it outright when no clause can match.
    fn push_clause_frame(
        &mut self,
        mut b: Branch,
        atom: Term,
        pred: Sym,
        target: Ty,
        frames: &mut Vec<Frame>,
    ) -> Step {
        let args = atom.spine().1;
        // Local clauses first (newest first), then the program's bucket
        // for this predicate — O(locals + bucket), not a scan over every
        // program clause. Both are filtered by head predicate and
        // argument fingerprint, so a clause with a clashing rigid
        // argument never costs a snapshot, a renaming or a unification.
        let mut candidates: Vec<Candidate> =
            b.st.locals
                .iter()
                .enumerate()
                .rev()
                .filter(|(_, l)| {
                    l.pred.as_ref() == Some(&pred) && fingerprint_admits(&l.fingerprint, &args)
                })
                .map(|(i, _)| Candidate::Local(i))
                .collect();
        candidates.extend(
            self.prog
                .clause_indices_for(&pred)
                .iter()
                .filter(|&&i| self.prog.clause_admits(i, &args))
                .map(|&i| Candidate::Prog(i)),
        );
        if candidates.is_empty() {
            return Step::Fail;
        }
        push_mode_exit(self.cert, &mut b.work, &pred, &atom, &args);
        frames.push(Frame {
            st: b.st,
            work: b.work,
            depth: b.depth,
            alts: Alts::Clauses {
                atom,
                target,
                candidates,
                next: 0,
            },
        });
        Step::Chose
    }

    /// The committed-choice fast path: the predicate's program clause
    /// heads are pairwise non-unifiable on `commit`, and those argument
    /// positions are ground here — so at most one clause head can
    /// match, and the search state is threaded through **by move**
    /// instead of being snapshotted in a choice point (each snapshot
    /// copies the whole signature and metavariable maps, which
    /// dominates subgoal-heavy workloads).
    ///
    /// Failed head unifications leave behind only unused fresh
    /// metavariables (the environment is monotone), so trying the next
    /// candidate on the same state is sound. The first full-head
    /// success consumes the commitment: even if its eigenvariable scope
    /// check then fails, no other clause could have matched the ground
    /// committed positions, so the whole call fails rather than
    /// backtracking.
    #[cfg_attr(not(debug_assertions), allow(unused_variables))]
    fn step_committed(
        &mut self,
        mut b: Branch,
        atom: Term,
        pred: Sym,
        target: Ty,
        commit: &[usize],
    ) -> Result<Step, LpError> {
        let args = atom.spine().1;
        push_mode_exit(self.cert, &mut b.work, &pred, &atom, &args);
        let indices = self.prog.clause_indices_for(&pred);
        let clauses: Vec<&Clause> = indices.iter().map(|&i| &self.prog.clauses()[i]).collect();
        for (ci, clause) in clauses.iter().enumerate() {
            if !self.prog.clause_admits(indices[ci], &args) {
                continue;
            }
            let (head, body) = freshen(&mut b.st, clause);
            let head = b.st.sol.apply(&head);
            match unify_heads(&b.st, &target, &atom, &head) {
                Ok(solution) => {
                    // Sanitizer cross-check: no later clause may also
                    // match — two matches on ground committed positions
                    // falsify the determinacy verdict.
                    #[cfg(debug_assertions)]
                    for other in &clauses[ci + 1..] {
                        let mut scratch = b.st.clone();
                        let (ohead, _) = freshen(&mut scratch, other);
                        let ohead = scratch.sol.apply(&ohead);
                        assert!(
                            unify_heads(&scratch, &target, &atom, &ohead).is_err(),
                            "HA015 violated: committed-choice predicate `{pred}` \
                             has two matching clauses for `{atom}` \
                             (committed positions {commit:?})",
                        );
                    }
                    if !merge_solution(&mut b.st, solution) {
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
    /// no eigenvariables (tables are context-free), and — under
    /// [`TableMode::Certified`] — the certificate marks the predicate
    /// eligible and some admitted mode's input positions are ground.
    fn table_gate(&self, st: &St, pred: &Sym, atom: &Term) -> bool {
        if self.tables.is_none() {
            return false;
        }
        if !st.locals.is_empty() {
            return false;
        }
        if atom
            .constants()
            .iter()
            .any(|c| st.eigen_level.contains_key(c.as_str()))
        {
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
        mut b: Branch,
        atom: Term,
        pred: Sym,
        target: Ty,
        frames: &mut Vec<Frame>,
        cut: &mut Option<CutBy>,
        consumed: &mut Vec<TermRef>,
    ) -> Result<Step, LpError> {
        let Some((key, canonical, call_tys)) = canonicalize_call(&b.st, &atom) else {
            // An untyped residual meta (cannot replay soundly): fall
            // back to plain resolution.
            return Ok(self.push_clause_frame(b, atom, pred, target, frames));
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
                    return Ok(self.push_clause_frame(b, atom, pred, target, frames));
                }
                self.stats.variant_misses += 1;
                self.run_generator(&key, &pred, &canonical, &call_tys, cut, consumed)?;
            }
        }
        // In debug builds, cross-check the tabling verdict dynamically:
        // a certificate-gated call must still have a ground admitted
        // mode after canonicalization (the gate checked the
        // solution-applied atom; canonicalization must not change it).
        #[cfg(debug_assertions)]
        if self.cfg.table == TableMode::Certified {
            assert!(
                self.table_gate(&b.st, &pred, &atom),
                "HA021 violated: call `{atom}` lost tabling eligibility \
                 between gate and table lookup",
            );
        }
        push_mode_exit(self.cert, &mut b.work, &pred, &atom, &atom.spine().1);
        frames.push(Frame {
            st: b.st,
            work: b.work,
            depth: b.depth,
            alts: Alts::Answers {
                atom,
                target,
                key,
                next: 0,
            },
        });
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
            let sub = Branch {
                st: self.subsearch_st(canonical, call_tys),
                work: vec![Work::AtomByClauses(canonical.clone())],
                depth: self.gen_depth,
            };
            let mut sub_consumed = Vec::new();
            self.nest += 1;
            let sub_cut = self.run(
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

    /// A fresh proof state for a generator sub-search: the program's
    /// signature (no eigenvariables, no locals — the gate guarantees
    /// the call mentions neither) and the canonical call's
    /// metavariables at level 0.
    fn subsearch_st(&self, canonical: &Term, call_tys: &[Ty]) -> St {
        let mut menv = MetaEnv::new();
        let mut meta_level = HashMap::new();
        for m in canonical.metas() {
            meta_level.insert(m.id(), 0);
            menv.insert(m.clone(), call_tys[m.id() as usize].clone());
        }
        St {
            sig: Rc::clone(&self.base_sig),
            menv,
            meta_level,
            eigen_level: HashMap::new(),
            next_meta: call_tys.len() as u32,
            next_eigen: 0,
            level: 0,
            sol: MetaSubst::new(),
            locals: Vec::new(),
        }
    }
}

/// Unifies a call atom against a clause (or answer) head over a
/// **restricted** metavariable environment: just the metas occurring in
/// the two terms, plus a sentinel pinning the unifier's fresh ids above
/// `st.next_meta` ([`pattern::unify_constraints`] allocates fresh metas
/// starting past the environment's largest id). The full environment
/// grows with derivation length; cloning and re-validating it per
/// resolution step — as passing `st.menv` would — made deep
/// derivations quadratic. The sentinel is stripped from the returned
/// solution, so its environment is exactly "restricted input + fresh
/// metas" and [`merge_solution`] can fold the new entries back in.
fn unify_heads(
    st: &St,
    target: &Ty,
    atom: &Term,
    head: &Term,
) -> Result<pattern::PatternSolution, UnifyError> {
    let mut menv = MetaEnv::new();
    for m in atom.metas().into_iter().chain(head.metas()) {
        if let Some(ty) = st.menv.get(&m) {
            menv.insert(m, ty.clone());
        }
    }
    let sentinel = MVar::new(st.next_meta, "fence");
    menv.insert(sentinel.clone(), Ty::Int);
    let constraint = Constraint::closed(target.clone(), atom.clone(), head.clone());
    let mut solution = pattern::unify_constraints(&st.sig, &menv, vec![constraint])?;
    solution.menv.remove(&sentinel);
    Ok(solution)
}

/// Merges a [`unify_heads`] solution into `st`, checking eigenvariable
/// scope: a metavariable may only mention eigenvariables that existed
/// when it was created. Returns `false` (state partially updated,
/// caller must discard the branch) on a scope violation.
fn merge_solution(st: &mut St, solution: pattern::PatternSolution) -> bool {
    // Fold the unifier's fresh metas (pruning, flex-flex) into the full
    // environment. (`meta_level` needs no entries for them — reads
    // default to level 0, matching their creation inside a level-0
    // unification problem... they inherit the *binding* level through
    // the scope check below instead, which conservatively treats an
    // unleveled meta as level 0, the strictest choice.)
    for (m, ty) in solution.menv.iter() {
        if !st.menv.contains_key(m) {
            st.menv.insert(m.clone(), ty.clone());
            st.next_meta = st.next_meta.max(m.id() + 1);
        }
    }
    // No eigenvariables in scope ⇒ no possible escape: skip the
    // constant scan (it walks each binding's term, which on long
    // committed chains would re-walk ever-growing ground arguments).
    if !st.eigen_level.is_empty() {
        for (m, t) in solution.subst.iter() {
            let lvl = st.meta_level.get(&m.id()).copied().unwrap_or(0);
            for c in t.constants() {
                if let Some(&el) = st.eigen_level.get(c.as_str()) {
                    if el > lvl {
                        return false;
                    }
                }
            }
        }
    }
    for (m, t) in solution.subst.iter() {
        if !st.sol.contains(m) {
            st.sol.bind(m.clone(), t.clone());
        }
    }
    true
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
    if st.locals.iter().any(|l| l.pred.as_ref() == Some(pred)) {
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

/// Canonicalizes a (solution-applied) call atom into its variant key:
/// free metavariables renamed to `0..k` in first-occurrence order, the
/// result interned so variant lookup is one node-id hash probe. Returns
/// `None` when some residual meta has no recorded type (no sound
/// replay possible).
fn canonicalize_call(st: &St, atom: &Term) -> Option<(TermRef, Term, Vec<Ty>)> {
    let metas = atom.metas();
    let mut tys = Vec::with_capacity(metas.len());
    for m in &metas {
        tys.push(st.menv.get(m)?.clone());
    }
    let canonical = if metas.is_empty() {
        atom.clone()
    } else {
        let map: HashMap<u32, MVar> = metas
            .iter()
            .enumerate()
            .map(|(i, m)| (m.id(), MVar::new(i as u32, m.hint().clone())))
            .collect();
        rename_metas(atom, u32::MAX, &map)
    };
    Some((TermRef::new(canonical.clone()), canonical, tys))
}

/// Canonicalizes one solved instance of the canonical call atom into a
/// stored answer: residual metas renamed to `0..k` in first-occurrence
/// order, their types recorded for replay.
fn canonicalize_answer(st: &St, call: &Term) -> Option<TableAnswer> {
    let t = st.sol.apply(call);
    let metas = t.metas();
    let mut meta_tys = Vec::with_capacity(metas.len());
    for m in &metas {
        meta_tys.push(st.menv.get(m)?.clone());
    }
    let term = if metas.is_empty() {
        t
    } else {
        let map: HashMap<u32, MVar> = metas
            .iter()
            .enumerate()
            .map(|(i, m)| (m.id(), MVar::new(i as u32, m.hint().clone())))
            .collect();
        rename_metas(&t, u32::MAX, &map)
    };
    Some(TableAnswer { term, meta_tys })
}

/// Instantiates a stored answer for replay: its canonical metas
/// (`0..k`) become globally fresh metavariables in `st` at the current
/// level.
fn instantiate_answer(st: &mut St, ans: &TableAnswer) -> Term {
    if ans.meta_tys.is_empty() {
        return ans.term.clone();
    }
    let mut map: HashMap<u32, MVar> = HashMap::with_capacity(ans.meta_tys.len());
    for m in ans.term.metas() {
        let fresh = MVar::new(st.next_meta, m.hint().clone());
        st.next_meta += 1;
        st.menv
            .insert(fresh.clone(), ans.meta_tys[m.id() as usize].clone());
        st.meta_level.insert(fresh.id(), st.level);
        map.insert(m.id(), fresh);
    }
    rename_metas(&ans.term, ans.meta_tys.len() as u32, &map)
}

/// Renames the residual free metavariables across an answer's bindings to
/// distinct display names (`'A`, `'B`, …) in first-occurrence order.
fn canonicalize_free_metas(bindings: Vec<(MVar, Term)>) -> Vec<(MVar, Term)> {
    let mut order: Vec<MVar> = Vec::new();
    for (_, t) in &bindings {
        for m in t.metas() {
            if !order.contains(&m) {
                order.push(m);
            }
        }
    }
    let renames: HashMap<u32, MVar> = order
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let hint = if i < 26 {
                ((b'A' + i as u8) as char).to_string()
            } else {
                format!("V{i}")
            };
            (m.id(), MVar::new(m.id(), hint))
        })
        .collect();
    bindings
        .into_iter()
        .map(|(q, t)| (q, rename_metas(&t, u32::MAX, &renames)))
        .collect()
}

/// Renames a clause's own universal variables to globally fresh
/// metavariables at the current eigen level.
fn freshen(st: &mut St, clause: &Clause) -> (Term, Goal) {
    if clause.vars.is_empty() {
        return (clause.head.clone(), clause.body.clone());
    }
    let n = clause.vars.len() as u32;
    let mut map: HashMap<u32, MVar> = HashMap::new();
    for (i, (hint, ty)) in clause.vars.iter().enumerate() {
        let m = MVar::new(st.next_meta, hint.clone());
        st.next_meta += 1;
        st.menv.insert(m.clone(), ty.clone());
        st.meta_level.insert(m.id(), st.level);
        map.insert(i as u32, m);
    }
    let mut rename = |t: &Term, _depth: u32| rename_metas(t, n, &map);
    let head = rename(&clause.head, 0);
    let body = clause.body.map_terms(0, &mut rename);
    (head, body)
}

fn rename_metas(t: &Term, n: u32, map: &HashMap<u32, MVar>) -> Term {
    // Meta-free subtrees (cached annotation) are fixed points of the
    // renaming: share them instead of deep-cloning the clause.
    if !t.has_metas() {
        return t.clone();
    }
    match t {
        Term::Meta(m) if m.id() < n && map.contains_key(&m.id()) => {
            Term::Meta(map[&m.id()].clone())
        }
        Term::Var(_) | Term::Const(_) | Term::Meta(_) | Term::Int(_) | Term::Unit => t.clone(),
        Term::Lam(h, b) => Term::lam(h.clone(), rename_metas_ref(b, n, map)),
        Term::App(f, a) => Term::app(rename_metas_ref(f, n, map), rename_metas_ref(a, n, map)),
        Term::Pair(a, b) => Term::pair(rename_metas_ref(a, n, map), rename_metas_ref(b, n, map)),
        Term::Fst(p) => Term::fst(rename_metas_ref(p, n, map)),
        Term::Snd(p) => Term::snd(rename_metas_ref(p, n, map)),
    }
}

fn rename_metas_ref(t: &TermRef, n: u32, map: &HashMap<u32, MVar>) -> TermRef {
    if !t.has_meta() {
        t.clone()
    } else {
        TermRef::new(rename_metas(t, n, map))
    }
}

/// Replaces `Var(k)` with the closed term `c`, decrementing variables
/// above `k` (goal-level binder instantiation).
fn replace_and_lower(t: &Term, k: u32, c: &Term) -> Term {
    // No free variable at or above `k`: identity, share the subtree.
    if t.max_free() <= k {
        return t.clone();
    }
    match t {
        Term::Var(i) => {
            if *i == k {
                c.clone()
            } else if *i > k {
                Term::Var(i - 1)
            } else {
                t.clone()
            }
        }
        Term::Lam(h, b) => Term::lam(h.clone(), replace_and_lower_ref(b, k + 1, c)),
        Term::App(f, a) => Term::app(
            replace_and_lower_ref(f, k, c),
            replace_and_lower_ref(a, k, c),
        ),
        Term::Pair(a, b) => Term::pair(
            replace_and_lower_ref(a, k, c),
            replace_and_lower_ref(b, k, c),
        ),
        Term::Fst(p) => Term::fst(replace_and_lower_ref(p, k, c)),
        Term::Snd(p) => Term::snd(replace_and_lower_ref(p, k, c)),
        Term::Const(_) | Term::Meta(_) | Term::Int(_) | Term::Unit => t.clone(),
    }
}

fn replace_and_lower_ref(t: &TermRef, k: u32, c: &Term) -> TermRef {
    if t.max_free() <= k {
        t.clone()
    } else {
        TermRef::new(replace_and_lower(t, k, c))
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
