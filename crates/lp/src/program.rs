//! Programs, clauses, and goals.

use hoas_core::ctx::Ctx;
use hoas_core::parse::{parse_term_with, MetaTable};
use hoas_core::sig::Signature;
use hoas_core::term::{MetaEnv, MetaTypes};
use hoas_core::{normalize, print, MVar, Sym, Term, Ty, TyScheme};
use hoas_unify::UnifyError;
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::sync::OnceLock;

/// A goal formula of the hereditary Harrop fragment.
///
/// Goals may contain metavariables (logic variables) and, inside
/// [`Goal::All`], de Bruijn variables bound by the enclosing universal
/// goals (index 0 = innermost `Π`).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Goal {
    /// The trivially true goal.
    True,
    /// An atomic goal: a predicate constant applied to arguments.
    Atom(Term),
    /// Conjunction, solved left to right.
    And(Box<Goal>, Box<Goal>),
    /// Hypothetical implication `D ⇒ G`: `clause` is available while
    /// proving `goal`.
    Impl(Box<Clause>, Box<Goal>),
    /// Universal goal `Π x:τ. G`: proves `G` for a fresh eigenvariable.
    /// The bound variable occurs in the body as de Bruijn `Var(0)`.
    All(Sym, Ty, Box<Goal>),
}

impl Goal {
    /// Conjunction constructor (right-nested for slices).
    pub fn and(a: Goal, b: Goal) -> Goal {
        Goal::And(Box::new(a), Box::new(b))
    }

    /// Conjunction of several goals (`True` if empty).
    pub fn all_of(goals: impl IntoIterator<Item = Goal>) -> Goal {
        let mut it = goals.into_iter();
        match it.next() {
            None => Goal::True,
            Some(first) => it.fold(first, Goal::and),
        }
    }

    /// Hypothetical implication constructor.
    pub fn implies(clause: Clause, goal: Goal) -> Goal {
        Goal::Impl(Box::new(clause), Box::new(goal))
    }

    /// Universal goal constructor.
    pub fn pi(hint: impl Into<Sym>, ty: Ty, body: Goal) -> Goal {
        Goal::All(hint.into(), ty, Box::new(body))
    }

    /// Metavariables occurring in the goal, in first-occurrence order.
    pub fn metas(&self) -> Vec<MVar> {
        fn go(g: &Goal, acc: &mut Vec<MVar>) {
            match g {
                Goal::True => {}
                Goal::Atom(t) => {
                    for m in t.metas() {
                        if !acc.contains(&m) {
                            acc.push(m);
                        }
                    }
                }
                Goal::And(a, b) => {
                    go(a, acc);
                    go(b, acc);
                }
                Goal::Impl(d, g) => {
                    for m in d.metas() {
                        if !acc.contains(&m) {
                            acc.push(m);
                        }
                    }
                    go(g, acc);
                }
                Goal::All(_, _, b) => go(b, acc),
            }
        }
        let mut acc = Vec::new();
        go(self, &mut acc);
        acc
    }

    /// The goal with every atom, and every term of its `⇒`-clauses, in
    /// canonical (η-long β-normal) form. `metas` types the goal's
    /// metavariables and `ctx` the enclosing `Π` binders. A `⇒`-clause
    /// with universal variables of its own is kept as it is: the
    /// machine rejects it when it is reached.
    ///
    /// # Errors
    ///
    /// [`UnifyError::IllTyped`] when a term is not well-typed.
    pub(crate) fn canonical(
        &self,
        sig: &Signature,
        metas: &dyn MetaTypes,
        ctx: &mut Ctx,
    ) -> Result<Goal, UnifyError> {
        Ok(match self {
            Goal::True => Goal::True,
            Goal::Atom(t) => Goal::Atom(canonical_atom(sig, metas, ctx, t)?),
            Goal::And(a, b) => {
                Goal::and(a.canonical(sig, metas, ctx)?, b.canonical(sig, metas, ctx)?)
            }
            Goal::Impl(d, g) => {
                let d = if d.vars.is_empty() {
                    d.canonical_under(sig, metas, ctx)?
                } else {
                    (**d).clone()
                };
                Goal::implies(d, g.canonical(sig, metas, ctx)?)
            }
            Goal::All(h, ty, b) => {
                ctx.push_mut(h.clone(), ty.clone());
                let b = b.canonical(sig, metas, ctx);
                ctx.pop_mut();
                Goal::pi(h.clone(), ty.clone(), b?)
            }
        })
    }

    /// Applies `f` to every term in the goal, tracking the number of
    /// enclosing `Π` binders.
    pub(crate) fn map_terms(&self, depth: u32, f: &mut impl FnMut(&Term, u32) -> Term) -> Goal {
        match self {
            Goal::True => Goal::True,
            Goal::Atom(t) => Goal::Atom(f(t, depth)),
            Goal::And(a, b) => Goal::and(a.map_terms(depth, f), b.map_terms(depth, f)),
            Goal::Impl(d, g) => Goal::Impl(
                Box::new(d.map_terms(depth, f)),
                Box::new(g.map_terms(depth, f)),
            ),
            Goal::All(h, ty, b) => {
                Goal::All(h.clone(), ty.clone(), Box::new(b.map_terms(depth + 1, f)))
            }
        }
    }

    /// Writes the goal, showing metavariable `i` as `?{metas[i]}`.
    fn fmt_with(&self, metas: &[&str], f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Goal::True => f.write_str("true"),
            Goal::Atom(t) => f.write_str(&print::term_to_string_with(t, &[], metas)),
            Goal::And(a, b) => {
                f.write_str("(")?;
                a.fmt_with(metas, f)?;
                f.write_str(", ")?;
                b.fmt_with(metas, f)?;
                f.write_str(")")
            }
            Goal::Impl(d, g) => {
                f.write_str("(")?;
                d.fmt_with(metas, f)?;
                f.write_str(" => ")?;
                g.fmt_with(metas, f)?;
                f.write_str(")")
            }
            Goal::All(h, ty, b) => {
                write!(f, "(pi {h}:{ty}. ")?;
                b.fmt_with(metas, f)?;
                f.write_str(")")
            }
        }
    }
}

impl fmt::Display for Goal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_with(&[], f)
    }
}

/// A clause `∀vars. head :- body`.
///
/// The universally quantified variables appear in `head`/`body` as
/// metavariables with ids `0 .. vars.len()`; they are renamed apart at
/// every use. Clauses added by `⇒` typically have an empty `vars` list
/// (their metavariables are the enclosing goal's logic variables).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Clause {
    /// Universal variables: printing hints and types, indexed by
    /// metavariable id.
    pub vars: Vec<(Sym, Ty)>,
    /// The head atom (rigid predicate head).
    pub head: Term,
    /// The body goal.
    pub body: Goal,
}

impl Clause {
    /// A fact (empty body).
    pub fn fact(vars: Vec<(Sym, Ty)>, head: Term) -> Clause {
        Clause {
            vars,
            head,
            body: Goal::True,
        }
    }

    /// Parses a clause: `vars` declares the universal variables (name,
    /// type); `head` and each body atom share the variable namespace.
    /// (Structured bodies — `Π`, `⇒` — are built with the [`Goal`]
    /// constructors; this helper covers the flat Horn case.)
    ///
    /// # Errors
    ///
    /// Parse errors from [`hoas_core::parse`], or an unused declared
    /// variable.
    pub fn parse(
        sig: &Signature,
        vars: &[(&str, &str)],
        head: &str,
        body: &[&str],
    ) -> Result<Clause, hoas_core::Error> {
        let mut table = MetaTable::new();
        // Pre-allocate ids in declaration order so ids are stable.
        for (name, _) in vars {
            table.get_or_insert(name);
        }
        let ph = parse_term_with(sig, head, table)?;
        let mut table = ph.metas;
        let mut atoms = Vec::with_capacity(body.len());
        for b in body {
            let pb = parse_term_with(sig, b, table)?;
            table = pb.metas;
            atoms.push(Goal::Atom(pb.term));
        }
        let mut var_list = Vec::with_capacity(vars.len());
        for (i, (name, ty)) in vars.iter().enumerate() {
            let m = table.get(name).expect("pre-allocated above").clone();
            debug_assert_eq!(m.id() as usize, i);
            var_list.push((Sym::new(*name), hoas_core::parse::parse_ty(ty)?));
        }
        Ok(Clause {
            vars: var_list,
            head: ph.term,
            body: Goal::all_of(atoms),
        })
    }

    /// The metavariable environment of the clause's own variables.
    pub fn var_menv(&self) -> MetaEnv {
        self.vars
            .iter()
            .enumerate()
            .map(|(i, (h, ty))| (MVar::new(i as u32, h.clone()), ty.clone()))
            .collect()
    }

    /// All metavariables in the clause (own variables and captured outer
    /// logic variables).
    pub fn metas(&self) -> Vec<MVar> {
        let mut acc = self.head.metas();
        for m in self.body.metas() {
            if !acc.contains(&m) {
                acc.push(m);
            }
        }
        acc
    }

    /// The predicate constant at the head, if the head is well-formed.
    pub fn head_pred(&self) -> Option<&Sym> {
        match self.head.spine().0 {
            Term::Const(c) => Some(c),
            _ => None,
        }
    }

    /// The clause in canonical (η-long β-normal) form: its head and the
    /// atoms of its body, typed by its own variables.
    ///
    /// # Errors
    ///
    /// [`UnifyError::IllTyped`] when a term is not well-typed.
    pub(crate) fn canonical(&self, sig: &Signature) -> Result<Clause, UnifyError> {
        self.canonical_under(sig, &self.var_menv(), &mut Ctx::new())
    }

    fn canonical_under(
        &self,
        sig: &Signature,
        metas: &dyn MetaTypes,
        ctx: &mut Ctx,
    ) -> Result<Clause, UnifyError> {
        Ok(Clause {
            vars: self.vars.clone(),
            head: canonical_atom(sig, metas, ctx, &self.head)?,
            body: self.body.canonical(sig, metas, ctx)?,
        })
    }

    pub(crate) fn map_terms(&self, depth: u32, f: &mut impl FnMut(&Term, u32) -> Term) -> Clause {
        Clause {
            vars: self.vars.clone(),
            head: f(&self.head, depth),
            body: self.body.map_terms(depth, f),
        }
    }

    /// Every term in the clause paired with its `Π` depth (the number of
    /// enclosing universal-goal binders, whose eigenvariables occur as de
    /// Bruijn indices below that depth). The head comes first, then the
    /// body's atoms and nested clause heads in textual order. Used by the
    /// `hoas-analyze` pattern-fragment checks.
    pub fn terms(&self) -> Vec<(Term, u32)> {
        let mut acc = Vec::new();
        self.map_terms(0, &mut |t, depth| {
            acc.push((t.clone(), depth));
            t.clone()
        });
        acc
    }

    /// Writes the clause with each of its own variables under its
    /// declared name. A clause without variables of its own (one added
    /// by `⇒`) mentions the enclosing goal's, named by `outer`.
    fn fmt_with(&self, outer: &[&str], f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let own: Vec<&str>;
        let metas = if self.vars.is_empty() {
            outer
        } else {
            own = self.vars.iter().map(|(h, _)| h.as_str()).collect();
            &own
        };
        f.write_str(&print::term_to_string_with(&self.head, &[], metas))?;
        if self.body != Goal::True {
            f.write_str(" :- ")?;
            self.body.fmt_with(metas, f)?;
        }
        Ok(())
    }
}

impl fmt::Display for Clause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_with(&[], f)
    }
}

/// An atom in canonical form at the target type of its head. An atom
/// whose head has no type here (an unknown or polymorphic constant, a
/// variable out of scope, a λ) is only β-normalized: the machine
/// rejects it as a bad atom before unifying it.
fn canonical_atom(
    sig: &Signature,
    metas: &dyn MetaTypes,
    ctx: &Ctx,
    t: &Term,
) -> Result<Term, UnifyError> {
    let t = normalize::nf(t);
    let head_ty = match spine_head(&t) {
        Term::Const(c) => sig.const_ty(c.as_str()).and_then(TyScheme::as_mono),
        Term::Var(i) => ctx.lookup(*i).map(|(_, ty)| ty),
        Term::Meta(m) => metas.meta_ty(m),
        _ => None,
    };
    match head_ty {
        Some(ty) => {
            normalize::canon(sig, metas, ctx, &t, ty.uncurry().1).map_err(UnifyError::IllTyped)
        }
        None => Ok(t),
    }
}

/// Per-predicate call-pattern index entry: where the predicate's
/// clauses live and which predicates its bodies call. Maintained
/// incrementally by [`Program::push`] and consumed by the solver's
/// choice-point construction and the tabling-eligibility analysis.
#[derive(Clone, Debug, Default)]
struct PredIndex {
    /// Positions in [`Program::clauses`] of clauses with this head, in
    /// insertion order (the solver's trial order).
    clauses: Vec<usize>,
    /// Head predicates of every atom reachable in this predicate's
    /// clause bodies (including inside `Π` and `⇒` subgoals).
    callees: BTreeSet<Sym>,
}

/// A logic program: a signature plus an ordered clause list, indexed by
/// head predicate for backchaining.
///
/// The solver resolves against each clause in canonical (η-long
/// β-normal) form, computed the first time it selects the clause and
/// kept for the program's lifetime; [`Program::clauses`] and everything
/// else see the clauses as they were pushed. A clause whose head or
/// body is ill-typed cannot be canonicalized: every solve that selects
/// it (its head predicate is called and its argument fingerprint admits
/// the call) fails with [`crate::LpError::Unify`], whether or not the
/// ill-typed part would have been reached.
#[derive(Clone, Debug)]
pub struct Program {
    sig: Signature,
    clauses: Vec<Clause>,
    /// Per clause (parallel to `clauses`), its canonical form or the
    /// error canonicalizing it, filled in when the solver first selects
    /// the clause.
    canonical: Vec<OnceLock<Result<Clause, UnifyError>>>,
    /// Per clause (parallel to `clauses`), the shallow argument
    /// fingerprint of its head (see [`fingerprint_admits`]): the solver
    /// skips a clause whose fingerprint rejects the call's arguments
    /// before renaming it apart or unifying its head. Program heads are
    /// closed, so only constants occur.
    fingerprints: Vec<Vec<Option<Rigid>>>,
    /// Clause positions and body callees per head predicate. Clauses
    /// whose head is not headed by a constant (ill-formed; rejected by
    /// `hoas-analyze` as HA011) are unindexed — backchaining can never
    /// select them, so dropping them from every bucket preserves solver
    /// behavior exactly.
    by_pred: HashMap<Sym, PredIndex>,
    /// Predicates that some clause body extends hypothetically (appear
    /// as the head of a `⇒`-assumed clause). Their program buckets are
    /// not the whole story at runtime, which disqualifies them from
    /// tabling and committed-choice enforcement.
    hyp_heads: BTreeSet<Sym>,
    /// The fingerprint hash folded over `clauses` in order (see
    /// [`Program::fingerprint64`]).
    clause_hash: u64,
}

/// The head of an application spine (the term itself when it is not an
/// application).
pub(crate) fn spine_head(t: &Term) -> &Term {
    let mut head = t;
    while let Term::App(f, _) = head {
        head = f.term();
    }
    head
}

/// The rigid head of an atom or of an argument: a signature constant,
/// or an eigenvariable named by its level, so that the same
/// eigenvariable has the same key at every depth.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum Rigid {
    Const(Sym),
    Eigen(u32),
}

impl Rigid {
    /// The rigid head of `t`, a term at eigenvariable depth `depth`
    /// (its free variables are the eigenvariables in scope).
    pub(crate) fn of(t: &Term, depth: u32) -> Option<Rigid> {
        match spine_head(t) {
            Term::Const(c) => Some(Rigid::Const(c.clone())),
            Term::Var(i) if *i < depth => Some(Rigid::Eigen(depth - 1 - i)),
            _ => None,
        }
    }

    /// Whether `t`, at depth `depth`, has a different rigid head.
    fn clashes_with(&self, t: &Term, depth: u32) -> bool {
        match (self, spine_head(t)) {
            (Rigid::Const(c), Term::Const(d)) => c != d,
            (Rigid::Eigen(l), Term::Var(i)) if *i < depth => *l != depth - 1 - i,
            (Rigid::Const(_), Term::Var(i)) if *i < depth => true,
            (Rigid::Eigen(_), Term::Const(_)) => true,
            _ => false,
        }
    }
}

/// The shallow argument fingerprint of a clause head at depth `depth`:
/// per spine argument, its [`Rigid`] head (`None` is a wildcard).
pub(crate) fn fingerprint(head: &Term, depth: u32) -> Vec<Option<Rigid>> {
    head.spine().1.iter().map(|a| Rigid::of(a, depth)).collect()
}

/// Whether a head fingerprint admits a call at depth `depth` with spine
/// arguments `args`: `false` only when some position holds different
/// rigid heads in the two. Skipping such a clause is sound because
/// substitution and βη-conversion never change the rigid head of an
/// application spine, and a constant and an eigenvariable, or two
/// eigenvariables of different levels, never unify. Arities are not
/// compared: a mismatch is a typing error, left for the unifier.
pub(crate) fn fingerprint_admits(fp: &[Option<Rigid>], args: &[&Term], depth: u32) -> bool {
    fp.iter()
        .zip(args)
        .all(|(want, arg)| want.as_ref().is_none_or(|w| !w.clashes_with(arg, depth)))
}

/// Collects the head predicates of all atoms in a goal, plus the heads
/// of hypothetically assumed clauses, into the two accumulators.
fn goal_calls(g: &Goal, calls: &mut BTreeSet<Sym>, hyps: &mut BTreeSet<Sym>) {
    match g {
        Goal::True => {}
        Goal::Atom(t) => {
            if let Term::Const(c) = t.spine().0 {
                calls.insert(c.clone());
            }
        }
        Goal::And(a, b) => {
            goal_calls(a, calls, hyps);
            goal_calls(b, calls, hyps);
        }
        Goal::Impl(d, g) => {
            if let Some(p) = d.head_pred() {
                hyps.insert(p.clone());
            }
            goal_calls(&d.body, calls, hyps);
            goal_calls(g, calls, hyps);
        }
        Goal::All(_, _, b) => goal_calls(b, calls, hyps),
    }
}

impl Program {
    /// Creates a program over a signature.
    pub fn new(sig: Signature) -> Program {
        Program {
            sig,
            clauses: Vec::new(),
            canonical: Vec::new(),
            fingerprints: Vec::new(),
            by_pred: HashMap::new(),
            hyp_heads: BTreeSet::new(),
            clause_hash: crate::cert::FINGERPRINT_SEED,
        }
    }

    /// Adds a clause (tried in insertion order).
    pub fn push(&mut self, clause: Clause) -> &mut Self {
        let mut calls = BTreeSet::new();
        goal_calls(&clause.body, &mut calls, &mut self.hyp_heads);
        if let Some(p) = clause.head_pred() {
            let entry = self.by_pred.entry(p.clone()).or_default();
            entry.clauses.push(self.clauses.len());
            entry.callees.extend(calls);
        }
        self.fingerprints.push(fingerprint(&clause.head, 0));
        self.clause_hash = crate::cert::mix_clause(self.clause_hash, &clause);
        self.canonical.push(OnceLock::new());
        self.clauses.push(clause);
        self
    }

    /// A store-independent fingerprint of the program's clauses (heads,
    /// bodies, universal variables). Clause order matters — it is the
    /// solver's trial order. O(1): [`Program::push`] folds each clause in.
    pub fn fingerprint64(&self) -> u64 {
        crate::cert::mix(self.clause_hash, self.clauses.len() as u64)
    }

    /// The program's signature.
    pub fn sig(&self) -> &Signature {
        &self.sig
    }

    /// The clauses, in order.
    pub fn clauses(&self) -> &[Clause] {
        &self.clauses
    }

    /// Clause `i` in canonical form, the form the solver resolves
    /// against (see [`Program`]).
    pub(crate) fn canonical_clause(&self, i: usize) -> Result<&Clause, UnifyError> {
        self.canonical[i]
            .get_or_init(|| self.clauses[i].canonical(&self.sig))
            .as_ref()
            .map_err(UnifyError::clone)
    }

    /// The clauses whose head predicate is `pred`, in insertion order —
    /// an O(bucket) lookup instead of a scan over the whole program.
    pub fn clauses_for(&self, pred: &Sym) -> impl Iterator<Item = &Clause> {
        self.clause_indices_for(pred)
            .iter()
            .map(|&i| &self.clauses[i])
    }

    /// Positions (into [`Program::clauses`]) of the clauses whose head
    /// predicate is `pred`, in insertion order. The solver's explicit
    /// choice points store these indices instead of cloned clauses.
    pub fn clause_indices_for(&self, pred: &Sym) -> &[usize] {
        self.by_pred.get(pred).map_or(&[], |e| &e.clauses)
    }

    /// Whether clause `i`'s head fingerprint admits a call at
    /// eigenvariable depth `depth` with spine arguments `args` — `false`
    /// only when some argument position holds a constant in the head and
    /// a different rigid head (another constant, or an eigenvariable) in
    /// the call, so the two cannot unify.
    pub fn clause_admits(&self, i: usize, args: &[&Term], depth: u32) -> bool {
        fingerprint_admits(&self.fingerprints[i], args, depth)
    }

    /// The predicates with at least one indexed clause.
    pub fn preds(&self) -> impl Iterator<Item = &Sym> {
        self.by_pred.keys()
    }

    /// Head predicates of the atoms called in `pred`'s clause bodies.
    pub fn callees(&self, pred: &Sym) -> impl Iterator<Item = &Sym> {
        self.by_pred
            .get(pred)
            .map(|e| e.callees.iter())
            .into_iter()
            .flatten()
    }

    /// Whether some clause body assumes a `⇒`-clause whose head is
    /// `pred`: the program bucket then under-approximates the runtime
    /// clause set, so determinacy and tabling verdicts must not rely on
    /// it.
    pub fn extended_hypothetically(&self, pred: &Sym) -> bool {
        self.hyp_heads.contains(pred)
    }

    /// Whether `pred` can (transitively) call itself, per the static
    /// call-pattern index — the shape on which answer tabling pays off
    /// and unbounded recursion is possible.
    pub fn recursive(&self, pred: &Sym) -> bool {
        let mut seen = BTreeSet::new();
        let mut work: Vec<&Sym> = self
            .callees(pred)
            .filter(|c| seen.insert((*c).clone()))
            .collect();
        while let Some(p) = work.pop() {
            if p == pred {
                return true;
            }
            work.extend(self.callees(p).filter(|c| seen.insert((*c).clone())));
        }
        false
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for c in &self.clauses {
            writeln!(f, "{c}.")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sig() -> Signature {
        Signature::parse(
            "type i.
             type o.
             const nil : i.
             const cons : i -> i -> i.
             const a : i.
             const b : i.
             const append : i -> i -> i -> o.",
        )
        .unwrap()
    }

    #[test]
    fn parse_horn_clause() {
        hoas_core::StoreHandle::isolated().enter(|| {
            // Isolated store: this test asserts printed hints, which are
            // canonical per α-class per store (first intern wins).
            let s = sig();
            let c = Clause::parse(
                &s,
                &[("X", "i"), ("XS", "i"), ("YS", "i"), ("ZS", "i")],
                "append (cons ?X ?XS) ?YS (cons ?X ?ZS)",
                &["append ?XS ?YS ?ZS"],
            )
            .unwrap();
            assert_eq!(c.vars.len(), 4);
            assert_eq!(
                c.to_string(),
                "append (cons ?X ?XS) ?YS (cons ?X ?ZS) :- append ?XS ?YS ?ZS"
            );
            assert_eq!(c.var_menv().len(), 4);
            assert_eq!(c.metas().len(), 4);
        })
    }

    #[test]
    fn fact_displays_without_body() {
        hoas_core::StoreHandle::isolated().enter(|| {
            // Isolated store: this test asserts printed hints, which are
            // canonical per α-class per store (first intern wins).
            let s = sig();
            let c = Clause::parse(&s, &[("Y", "i")], "append nil ?Y ?Y", &[]).unwrap();
            assert_eq!(c.to_string(), "append nil ?Y ?Y");
            assert_eq!(c.body, Goal::True);
        })
    }

    #[test]
    fn goal_combinators() {
        let g = Goal::all_of(vec![]);
        assert_eq!(g, Goal::True);
        let g = Goal::all_of(vec![Goal::True, Goal::True, Goal::True]);
        assert!(matches!(g, Goal::And(..)));
        let g = Goal::pi("x", Ty::base("i"), Goal::Atom(Term::Var(0)));
        assert_eq!(g.to_string(), "(pi x:i. #0)");
    }

    #[test]
    fn clauses_for_indexes_by_head_predicate() {
        hoas_core::StoreHandle::isolated().enter(|| {
            // Isolated store: this test asserts printed hints, which are
            // canonical per α-class per store (first intern wins).
            let s = Signature::parse(
                "type i.
                 type o.
                 const nil : i.
                 const p : i -> o.
                 const q : i -> o.",
            )
            .unwrap();
            let mut prog = Program::new(s);
            prog.push(Clause::parse(prog.sig(), &[], "p nil", &[]).unwrap());
            prog.push(Clause::parse(prog.sig(), &[], "q nil", &[]).unwrap());
            prog.push(Clause::parse(prog.sig(), &[("X", "i")], "p ?X", &["q ?X"]).unwrap());
            let ps: Vec<String> = prog
                .clauses_for(&Sym::new("p"))
                .map(|c| c.to_string())
                .collect();
            assert_eq!(ps, vec!["p nil", "p ?X :- q ?X"]);
            assert_eq!(prog.clauses_for(&Sym::new("q")).count(), 1);
            assert_eq!(prog.clauses_for(&Sym::new("nil")).count(), 0);
        })
    }

    #[test]
    fn goal_metas_collects_across_structure() {
        let s = sig();
        let c = Clause::parse(&s, &[("X", "i")], "append ?X ?X ?X", &[]).unwrap();
        let g = Goal::implies(c.clone(), Goal::Atom(c.head.clone()));
        assert_eq!(g.metas().len(), 1);
    }
}
