//! Answer tabling: variant tables keyed on interned [`NodeId`]s.
//!
//! A **variant table** memoizes resolution per predicate *call
//! pattern*. The key of a call is its canonical form — the
//! solution-applied atom with free metavariables renamed to `0..k` in
//! first-occurrence order — interned in the term store, so two calls
//! that are variants of each other (equal up to metavariable naming)
//! share one [`TermRef`] and one table entry: the lookup is a single
//! hash probe over the node, O(1) after interning, and the key survives
//! process boundaries via the node's 128-bit content hash (see
//! `hoas_rewrite::image`).
//!
//! Each entry stores the **answers** found so far — instances of the
//! canonical call atom, themselves canonicalized so duplicates dedup by
//! node identity — plus a completion state:
//!
//! * [`EntryState::InProgress`] — a generator is currently producing
//!   answers; a repeat call inside that derivation (a same-SCC loop)
//!   becomes a *consumer* that replays the answers known so far and is
//!   accounted as a suspension.
//! * [`EntryState::Complete`] — the generator reached its least
//!   fixpoint; repeat calls replay the full answer set and never search.
//! * [`EntryState::Provisional`] — the generator fixpointed but read an
//!   in-progress entry of an *enclosing* generator: its answers are
//!   sound but possibly incomplete until that ancestor completes, so
//!   the next call re-runs the generator (keeping the answers as a
//!   seed).
//! * [`EntryState::Partial`] — the generator was cut by a budget
//!   (depth/fuel) or floundered: answers are sound, completeness is
//!   unknown; replaying them marks the outcome
//!   [`crate::solve::CutBy::Table`] and the next call retries.
//!
//! Soundness: every stored answer is the canonicalized head of an
//! actual derivation found by the ordinary machine, so replaying one
//! (unifying it against the call atom, metas freshened) can only
//! produce bindings the untabled search would also have produced.
//! Completeness of `Complete` entries follows from the generator's
//! restart fixpoint — see `DESIGN.md` §10.
//!
//! [`NodeId`]: hoas_core::store::NodeId

use hoas_core::{Sym, Term, TermRef, Ty};
use std::collections::{HashMap, HashSet};

/// Per-solve tabling counters, reported on
/// [`crate::solve::Outcome::tables`]; sum them with
/// [`TableStats::merge`] for totals over several solves.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TableStats {
    /// Calls answered entirely from a complete table entry.
    pub hits: u64,
    /// Calls that created (or re-ran) a generator for their variant.
    pub variant_misses: u64,
    /// Calls that consumed an in-progress entry (same-SCC loop).
    pub suspensions: u64,
    /// Distinct answers inserted into tables during this solve.
    pub answers_inserted: u64,
    /// Stored answers replayed into callers (one per successful
    /// answer-vs-call unification).
    pub answers_reused: u64,
}

impl TableStats {
    /// Field-wise sum.
    pub fn merge(&mut self, other: &TableStats) {
        self.hits += other.hits;
        self.variant_misses += other.variant_misses;
        self.suspensions += other.suspensions;
        self.answers_inserted += other.answers_inserted;
        self.answers_reused += other.answers_reused;
    }
}

/// Whether (and how) the solver consults tables. See
/// [`crate::solve::SolveConfig::table`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TableMode {
    /// Never table (the default — plain SLD resolution).
    #[default]
    Off,
    /// Table exactly the calls the analysis certificate marks eligible
    /// ([`crate::cert::PredVerdict::table`]) whose admitted-mode input
    /// positions are ground at the call. Without a certificate this is
    /// equivalent to [`TableMode::Off`].
    Certified,
    /// Table every call that passes the runtime gate (no hypothetical
    /// clauses in scope, no eigenvariables in the atom), ignoring the
    /// certificate. Intended for tests and closed benchmark programs.
    Force,
}

/// Completion state of one variant-table entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EntryState {
    /// A generator is running; callers inside it are consumers.
    InProgress,
    /// Least fixpoint reached: the answer set is final.
    Complete,
    /// Fixpointed while an enclosing generator was still in progress;
    /// re-run on next demand, then promote.
    Provisional,
    /// Cut by a budget or floundered; answers sound but incomplete.
    Partial,
}

/// One stored answer: an instance of the entry's canonical call atom,
/// with its residual metavariables renamed to `0..meta_tys.len()` in
/// first-occurrence order and their types recorded for replay.
#[derive(Clone, Debug)]
pub struct TableAnswer {
    /// The canonicalized answer atom.
    pub term: Term,
    /// Types of the answer's metavariables `0..k`, in id order.
    pub meta_tys: Vec<Ty>,
}

/// One variant-table entry. See the module docs for the state protocol.
#[derive(Clone, Debug)]
pub struct TableEntry {
    /// The predicate, for reporting.
    pub pred: Sym,
    /// The canonical call atom (metas `0..k` in first-occurrence order).
    pub call: Term,
    /// Types of the canonical call's metavariables `0..k`.
    pub call_tys: Vec<Ty>,
    /// Answers in discovery order.
    pub answers: Vec<TableAnswer>,
    /// Completion state.
    pub state: EntryState,
    /// Interned nodes of the stored answers, for O(1) dedup.
    pub(crate) seen: HashSet<TermRef>,
}

impl TableEntry {
    /// Inserts an answer unless an α-equivalent one is already stored.
    /// Returns whether it was new.
    pub(crate) fn insert(&mut self, ans: TableAnswer) -> bool {
        let node = TermRef::new(ans.term.clone());
        if self.seen.insert(node) {
            self.answers.push(ans);
            true
        } else {
            false
        }
    }
}

/// The solver's answer tables, shared across queries of one program.
///
/// A `SolveTables` is pinned to the program it was populated from via
/// [`crate::Program::fingerprint64`]: [`crate::solve::solve_with`]
/// resets an instance whose fingerprint does not match (stale tables
/// from another program revision must not replay — same policy as
/// [`crate::cert::ProgramCert::covers`]).
#[derive(Clone, Debug, Default)]
pub struct SolveTables {
    pub(crate) fingerprint: Option<u64>,
    pub(crate) entries: HashMap<TermRef, TableEntry>,
}

impl SolveTables {
    /// An empty table set, not yet pinned to a program.
    pub fn new() -> SolveTables {
        SolveTables::default()
    }

    /// An empty table set pinned to `prog`.
    pub fn for_program(prog: &crate::Program) -> SolveTables {
        SolveTables {
            fingerprint: Some(prog.fingerprint64()),
            entries: HashMap::new(),
        }
    }

    /// The fingerprint of the program these tables were populated from.
    pub fn fingerprint(&self) -> Option<u64> {
        self.fingerprint
    }

    /// Drops every entry and repins to `prog`.
    pub fn reset_for(&mut self, prog: &crate::Program) {
        self.entries.clear();
        self.fingerprint = Some(prog.fingerprint64());
    }

    /// Number of variant entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no variants are tabled.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total stored answers across all entries.
    pub fn answer_count(&self) -> usize {
        self.entries.values().map(|e| e.answers.len()).sum()
    }

    /// Iterates the entries (keyed by the canonical call's interned
    /// node), e.g. for export into a warm image.
    pub fn entries(&self) -> impl Iterator<Item = (&TermRef, &TableEntry)> {
        self.entries.iter()
    }

    /// Demotes every non-complete entry to [`EntryState::Partial`] so a
    /// table set abandoned mid-solve (fuel abort) stays sound: partial
    /// entries re-run their generator on the next call.
    pub(crate) fn quiesce(&mut self) {
        for e in self.entries.values_mut() {
            if e.state == EntryState::InProgress || e.state == EntryState::Provisional {
                e.state = EntryState::Partial;
            }
        }
    }

    /// Re-imports one externally stored entry (e.g. from a warm image).
    ///
    /// `complete` entries replay without re-running their generator;
    /// incomplete ones are absorbed as [`EntryState::Partial`] seeds.
    /// An entry for an already-present variant is merged answer-wise.
    pub fn absorb(
        &mut self,
        pred: Sym,
        call: Term,
        call_tys: Vec<Ty>,
        answers: Vec<TableAnswer>,
        complete: bool,
    ) {
        let key = TermRef::new(call.clone());
        let entry = self.entries.entry(key).or_insert_with(|| TableEntry {
            pred,
            call,
            call_tys,
            answers: Vec::new(),
            state: if complete {
                EntryState::Complete
            } else {
                EntryState::Partial
            },
            seen: HashSet::new(),
        });
        for a in answers {
            entry.insert(a);
        }
        if !complete && entry.state == EntryState::Complete {
            // Merging an incomplete import into a complete entry keeps
            // it complete: the import can only add sound answers.
        } else if complete && entry.state == EntryState::Partial {
            entry.state = EntryState::Complete;
        }
    }
}
