//! Mode/groundness analysis for λProlog programs.
//!
//! # Mode inference
//!
//! A **mode** for an `n`-ary predicate marks each argument position as
//! input (`+`) or output (`-`). A predicate *admits* a mode when every
//! clause (including every hypothetical clause any execution could
//! assume via `⇒`) satisfies the guarantee: *if the input positions are
//! ground at the call, the output positions are ground at every
//! success*.
//!
//! The analysis is an abstract interpretation over the two-point
//! groundness lattice per metavariable (`ground` ⊑ `unknown`; a
//! metavariable is abstractly ground when it is in the `ground` set,
//! and `free`/`unknown` otherwise — the concrete three-way split
//! collapses to membership in that set). Starting from *every* input
//! mask as a candidate (arity capped at [`MAX_MODED_ARITY`]), a
//! fixpoint loop removes modes a clause refutes:
//!
//! * a clause is checked left to right, seeding the ground set with the
//!   metavariables of the head's input positions;
//! * a body atom is satisfiable moded-ly when it is entirely ground, or
//!   when *some* currently-surviving callee mode has all of its input
//!   positions ground — in which case the whole atom's metavariables
//!   become ground (the callee's guarantee grounds its outputs);
//! * `Π x. G` just recurses: the eigenvariable is ground by
//!   construction and contributes no metavariables;
//! * `D ⇒ G` recurses into `G`; the assumed clause `D` is handled by a
//!   separate **kill pass**, which checks `D` as a clause of its head
//!   predicate `q` under each of `q`'s surviving modes, with an *empty*
//!   ambient ground set — the enclosing clause may be invoked with
//!   nothing ground, so no context may be assumed. A hypothetical that
//!   violates a mode kills that mode globally (conservative: the
//!   hypothetical might be in scope during any call to `q`);
//! * after the body, the head's output positions must be ground.
//!
//! Both passes only ever *remove* candidates, so the loop terminates.
//!
//! The verdicts are packaged into a [`ProgramCert`] which
//! [`hoas_lp::solve_certified`] enforces; see `hoas_lp::cert` for the
//! trust story.

use hoas_core::{Sym, Term};
use hoas_lp::{Clause, Goal, Mode, PredVerdict, Program, ProgramCert};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Largest predicate arity the mode search covers. The candidate set is
/// every input mask — `2^arity` of them — so the cap keeps the search
/// small; predicates above it are simply not analyzed.
pub const MAX_MODED_ARITY: usize = 6;

/// Mode and tabling verdicts for one predicate.
#[derive(Clone, Debug)]
pub struct PredReport {
    /// Argument count (consistent across all clauses).
    pub arity: usize,
    /// Admitted modes, in ascending input-mask order. Empty when no
    /// consistent mode exists.
    pub modes: Vec<Mode>,
    /// Tabling eligibility (`HA021`): the predicate admits a mode with
    /// at least one input position (so calls can be keyed on ground
    /// skeletons) and no hypothetical clause anywhere in the program
    /// assumes it — an assumed clause would make answers depend on the
    /// derivation context, which a context-free variant table cannot
    /// express.
    pub table: bool,
}

/// A body atom no surviving mode can serve even in the best case
/// (every head metavariable ground) — reported as `HA019`.
#[derive(Clone, Debug)]
pub struct UnmodedCall {
    /// Head predicate of the clause containing the call.
    pub pred: Sym,
    /// Index of the clause in program order.
    pub clause_index: usize,
    /// The offending atom, rendered.
    pub atom: String,
}

/// Everything the mode pass produces.
#[derive(Clone, Debug)]
pub struct ModeOutcome {
    /// Per-predicate verdicts (predicates with consistent arity at most
    /// [`MAX_MODED_ARITY`]).
    pub preds: BTreeMap<Sym, PredReport>,
    /// Ill-moded call sites (`HA019`).
    pub unmoded_calls: Vec<UnmodedCall>,
    /// The engine-enforceable certificate covering `preds`.
    pub cert: ProgramCert,
}

fn add_metas(t: &Term, ground: &mut BTreeSet<u32>) {
    for m in t.metas() {
        ground.insert(m.id());
    }
}

fn grounded(t: &Term, ground: &BTreeSet<u32>) -> bool {
    t.metas().iter().all(|m| ground.contains(&m.id()))
}

/// Whether a body atom is servable under the current ground set, using
/// the surviving candidate modes. On success the atom's metavariables
/// are added to the ground set.
fn atom_ok(t: &Term, ground: &mut BTreeSet<u32>, cands: &BTreeMap<Sym, Vec<Mode>>) -> bool {
    if grounded(t, ground) {
        return true;
    }
    let (head, args) = t.spine();
    let Term::Const(c) = head else {
        // Flexible or bound-variable head: not statically modable.
        return false;
    };
    let Some(modes) = cands.get(c) else {
        return false;
    };
    let applicable = modes.iter().any(|m| {
        m.inputs.len() == args.len()
            && m.inputs
                .iter()
                .zip(&args)
                .all(|(&inp, a)| !inp || grounded(a, ground))
    });
    if applicable {
        add_metas(t, ground);
    }
    applicable
}

fn goal_ok(g: &Goal, ground: &mut BTreeSet<u32>, cands: &BTreeMap<Sym, Vec<Mode>>) -> bool {
    match g {
        Goal::True => true,
        Goal::Atom(t) => atom_ok(t, ground, cands),
        Goal::And(a, b) => goal_ok(a, ground, cands) && goal_ok(b, ground, cands),
        // The assumed clause is handled by the kill pass; here only the
        // conclusion constrains the mode.
        Goal::Impl(_, g) => goal_ok(g, ground, cands),
        // The eigenvariable is ground by construction.
        Goal::All(_, _, g) => goal_ok(g, ground, cands),
    }
}

/// Whether `c` (a program clause, or a hypothetical checked with empty
/// ambient context) satisfies mode `m`'s guarantee.
fn clause_admits(c: &Clause, m: &Mode, cands: &BTreeMap<Sym, Vec<Mode>>) -> bool {
    let (_, args) = c.head.spine();
    if args.len() != m.inputs.len() {
        return false;
    }
    let mut ground = BTreeSet::new();
    for (a, &inp) in args.iter().zip(&m.inputs) {
        if inp {
            add_metas(a, &mut ground);
        }
    }
    goal_ok(&c.body, &mut ground, cands)
        && args
            .iter()
            .zip(&m.inputs)
            .all(|(a, &inp)| inp || grounded(a, &ground))
}

/// Collects every hypothetical clause assumable via `⇒`, including ones
/// nested inside other hypotheticals' bodies.
fn hyp_clauses<'a>(g: &'a Goal, acc: &mut Vec<&'a Clause>) {
    match g {
        Goal::True | Goal::Atom(_) => {}
        Goal::And(a, b) => {
            hyp_clauses(a, acc);
            hyp_clauses(b, acc);
        }
        Goal::Impl(d, g) => {
            acc.push(d);
            hyp_clauses(&d.body, acc);
            hyp_clauses(g, acc);
        }
        Goal::All(_, _, g) => hyp_clauses(g, acc),
    }
}

/// Argument counts per predicate; predicates whose clauses disagree on
/// arity (ill-typed anyway) are dropped.
fn pred_arities(prog: &Program) -> BTreeMap<Sym, usize> {
    let mut out: BTreeMap<Sym, usize> = BTreeMap::new();
    let mut bad: BTreeSet<Sym> = BTreeSet::new();
    for c in prog.clauses() {
        if let Some(p) = c.head_pred() {
            let n = c.head.spine().1.len();
            match out.get(p) {
                None => {
                    out.insert(p.clone(), n);
                }
                Some(&m) if m != n => {
                    bad.insert(p.clone());
                }
                Some(_) => {}
            }
        }
    }
    for p in &bad {
        out.remove(p);
    }
    out
}

/// The mode fixpoint: start from every input mask, remove refuted modes
/// (and hypothetical-killed modes) until stable.
fn infer_modes(prog: &Program, arities: &BTreeMap<Sym, usize>) -> BTreeMap<Sym, Vec<Mode>> {
    let mut cands: BTreeMap<Sym, Vec<Mode>> = arities
        .iter()
        .filter(|(_, &n)| n <= MAX_MODED_ARITY)
        .map(|(p, &n)| {
            let modes = (0..1usize << n)
                .map(|mask| Mode {
                    inputs: (0..n).map(|i| mask & (1 << i) != 0).collect(),
                })
                .collect();
            (p.clone(), modes)
        })
        .collect();

    let mut hyps = Vec::new();
    for c in prog.clauses() {
        hyp_clauses(&c.body, &mut hyps);
    }

    loop {
        let mut changed = false;

        // Kill pass: a hypothetical clause for q must itself satisfy
        // every surviving mode of q, with no ambient groundness assumed.
        let mut kills: Vec<(Sym, Mode)> = Vec::new();
        for d in &hyps {
            let Some(q) = d.head_pred() else { continue };
            let Some(modes) = cands.get(q) else { continue };
            for m in modes {
                if !clause_admits(d, m, &cands) {
                    kills.push((q.clone(), m.clone()));
                }
            }
        }
        for (q, m) in kills {
            if let Some(modes) = cands.get_mut(&q) {
                let before = modes.len();
                modes.retain(|x| *x != m);
                changed |= modes.len() != before;
            }
        }

        // Clause pass: every program clause of p must admit the mode.
        let preds: Vec<Sym> = cands.keys().cloned().collect();
        for p in preds {
            let keep: Vec<Mode> = cands[&p]
                .iter()
                .filter(|m| prog.clauses_for(&p).all(|c| clause_admits(c, m, &cands)))
                .cloned()
                .collect();
            if keep.len() != cands[&p].len() {
                cands.insert(p, keep);
                changed = true;
            }
        }

        if !changed {
            return cands;
        }
    }
}

/// Best-case ill-modedness lint (`HA019`): even with every head
/// metavariable ground, the atom fits no surviving mode. After a
/// finding the atom's metavariables are optimistically grounded so one
/// bad call does not cascade into findings on every later atom.
fn find_unmoded_calls(prog: &Program, preds: &BTreeMap<Sym, PredReport>) -> Vec<UnmodedCall> {
    let cands: BTreeMap<Sym, Vec<Mode>> = preds
        .iter()
        .map(|(p, r)| (p.clone(), r.modes.clone()))
        .collect();
    fn walk(
        g: &Goal,
        ground: &mut BTreeSet<u32>,
        cands: &BTreeMap<Sym, Vec<Mode>>,
        pred: &Sym,
        ci: usize,
        out: &mut Vec<UnmodedCall>,
    ) {
        match g {
            Goal::True => {}
            Goal::Atom(t) => {
                if !atom_ok(t, ground, cands) {
                    out.push(UnmodedCall {
                        pred: pred.clone(),
                        clause_index: ci,
                        atom: t.to_string(),
                    });
                    add_metas(t, ground);
                }
            }
            Goal::And(a, b) => {
                walk(a, ground, cands, pred, ci, out);
                walk(b, ground, cands, pred, ci, out);
            }
            Goal::Impl(_, g) | Goal::All(_, _, g) => walk(g, ground, cands, pred, ci, out),
        }
    }
    let mut out = Vec::new();
    for (ci, c) in prog.clauses().iter().enumerate() {
        let Some(p) = c.head_pred() else { continue };
        if !preds.contains_key(p) {
            continue;
        }
        let mut ground = BTreeSet::new();
        add_metas(&c.head, &mut ground);
        walk(&c.body, &mut ground, &cands, p, ci, &mut out);
    }
    out
}

/// Runs mode inference over a program and mints the certificate
/// [`hoas_lp::solve_certified`] enforces.
pub fn analyze_program(prog: &Program) -> ModeOutcome {
    let arities = pred_arities(prog);
    let mut modes = infer_modes(prog, &arities);
    let mut preds = BTreeMap::new();
    let mut verdicts = HashMap::new();
    for (p, &arity) in arities.iter().filter(|(_, &n)| n <= MAX_MODED_ARITY) {
        let pred_modes = modes.remove(p).unwrap_or_default();
        let table = pred_modes.iter().any(|m| m.inputs.iter().any(|&i| i))
            && !prog.extended_hypothetically(p);
        preds.insert(
            p.clone(),
            PredReport {
                arity,
                modes: pred_modes.clone(),
                table,
            },
        );
        verdicts.insert(
            p.clone(),
            PredVerdict {
                modes: pred_modes,
                table,
            },
        );
    }
    let unmoded_calls = find_unmoded_calls(prog, &preds);
    let cert = ProgramCert::issue(prog, verdicts);
    ModeOutcome {
        preds,
        unmoded_calls,
        cert,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hoas_lp::examples;

    fn renders(r: &PredReport) -> Vec<String> {
        r.modes.iter().map(Mode::render).collect()
    }

    #[test]
    fn append_is_richly_moded_and_first_argument_indexed() {
        let prog = examples::append_program();
        let out = analyze_program(&prog);
        let r = &out.preds[&Sym::new("append")];
        assert_eq!(r.arity, 3);
        // Every mask that grounds the recursion: notably NOT (-,+,-) —
        // clause 2's head output `cons ?X ?XS` leaves ?X unground — and
        // not the all-output mask.
        assert_eq!(
            renders(r),
            vec!["(+,+,-)", "(-,-,+)", "(+,-,+)", "(-,+,+)", "(+,+,+)"]
        );
        assert!(out.unmoded_calls.is_empty());
        assert!(out.cert.covers(&prog));
    }

    #[test]
    fn eval_is_input_first_moded() {
        let prog = examples::eval_program();
        let out = analyze_program(&prog);
        let r = &out.preds[&Sym::new("eval")];
        assert_eq!(renders(r), vec!["(+,-)", "(+,+)"]);
        assert!(out.unmoded_calls.is_empty());
    }

    #[test]
    fn stlc_hypothetical_kills_every_mode_of_of() {
        let prog = examples::stlc_program();
        let out = analyze_program(&prog);
        let r = &out.preds[&Sym::new("of")];
        // The lam clause assumes `of x ?A` with ?A possibly free at
        // assumption time: it refutes every output-guaranteeing mode,
        // and the app clause's first subgoal refutes the rest.
        assert!(r.modes.is_empty(), "got {:?}", renders(r));
        // Exactly one best-case-unmodable call: `of ?M (arr ?A ?B)` in
        // the app clause, whose ?A is fresh.
        assert_eq!(out.unmoded_calls.len(), 1, "{:?}", out.unmoded_calls);
        assert_eq!(out.unmoded_calls[0].clause_index, 0);
        assert!(out.unmoded_calls[0].atom.contains("arr"));
    }

    #[test]
    fn a_fact_with_a_free_argument_admits_only_the_input_mode() {
        let sig = hoas_core::sig::Signature::parse(
            "type i. type o. const z : i. const s : i -> i. const p : i -> o.",
        )
        .unwrap();
        let mut prog = Program::new(sig);
        prog.push(Clause::parse(prog.sig(), &[("X", "i")], "p ?X", &[]).unwrap());
        prog.push(Clause::parse(prog.sig(), &[], "p z", &[]).unwrap());
        let out = analyze_program(&prog);
        let r = &out.preds[&Sym::new("p")];
        // (-) dies because the fact `p ?X` cannot ground its output,
        // but (+) survives both clauses.
        assert_eq!(renders(r), vec!["(+)"]);
    }
}
