//! Property tests for the static-analysis layer (PR 3).
//!
//! Three families of properties back the `hoas-analyze` checks:
//!
//! 1. *Generalization stays in the fragment*: replacing formula subterms
//!    of a random closed FOL formula with fresh metavariables applied to
//!    every enclosing binder yields a Miller pattern — the construction
//!    the analyzer's HA001 classification and the engine's fast path both
//!    rely on.
//! 2. *Matcher agreement*: on such patterns the deterministic pattern
//!    matcher and the general (Huet-capable) matcher agree on
//!    match/no-match and on the substitution, against both the formula
//!    the pattern was carved from and an unrelated formula.
//! 3. *Annotation validator*: `validate::check_term` accepts everything
//!    the kernel produces (parse, shift/subst, normalization) and rejects
//!    nodes whose cached annotations lie, built through the test-only
//!    backdoor.
//!
//! PR 8 adds three families over the second-generation verdicts:
//!
//! 4. *Sanitizer agreement*: randomly generated well-moded list-transform
//!    programs are inferred mode `(+,-)`, and the certified solver (whose
//!    debug-build dynamic mode sanitizer panics on any verdict violation)
//!    runs them without tripping it.
//! 5. *SCT-certified budget freedom*: a rule set the size-change analysis
//!    proved terminating normalizes random formulas to a fixpoint even
//!    when the configured step budget is far too small — the certificate
//!    drops the budget bookkeeping, and the result agrees with an
//!    uncertified engine given a generous budget.
//! 6. *Certified agreement*: on programs mixing functional and
//!    genuinely nondeterministic predicates, `solve_certified` returns
//!    exactly the answers `solve` does, in the same order.

use hoas::analyze::{modes, termination};
use hoas::core::prelude::*;
use hoas::core::{validate, TermRef};
use hoas::langs::{fol, lambda};
use hoas::lp::solve::{query_menv, solve, solve_certified};
use hoas::lp::{Clause, Program, SolveConfig};
use hoas::rewrite::rulesets::fol_cnf;
use hoas::rewrite::{Engine, EngineConfig, Rule, RuleSet};
use hoas::unify::classify::{classify, PatternClass};
use hoas::unify::matching::{match_pattern, match_term, MatchConfig};
use hoas_testkit::prelude::*;

/// Replaces formula-typed subterms of an encoded FOL formula with fresh
/// metavariables applied to every enclosing bound variable (outermost
/// first). The spine lists distinct variables, so the result is a Miller
/// pattern; because the spine is *complete*, matching the pattern against
/// the original formula can never fail on the vacuous-binder condition.
fn generalize(
    t: &Term,
    depth: u32,
    rng: &mut SmallRng,
    next_meta: &mut u32,
    menv: &mut MetaEnv,
) -> Term {
    if rng.gen_bool(0.3) {
        let id = *next_meta;
        *next_meta += 1;
        let m = MVar::new(id, format!("M{id}"));
        menv.insert(
            m.clone(),
            Ty::arrows((0..depth).map(|_| fol::i()), fol::o()),
        );
        return Term::apps(Term::Meta(m), (0..depth).rev().map(Term::Var));
    }
    match t {
        Term::App(f, a) => match f.as_ref() {
            Term::Const(c) if c.as_str() == "not" => Term::app(
                Term::cnst("not"),
                generalize(a, depth, rng, next_meta, menv),
            ),
            Term::Const(c) if c.as_str() == "forall" || c.as_str() == "exists" => {
                let Term::Lam(h, b) = a.as_ref() else {
                    return t.clone();
                };
                Term::app(
                    Term::cnst(c.as_str()),
                    Term::lam(h.clone(), generalize(b, depth + 1, rng, next_meta, menv)),
                )
            }
            Term::App(g, l) => match g.as_ref() {
                Term::Const(c) if matches!(c.as_str(), "and" | "or" | "imp") => Term::apps(
                    Term::cnst(c.as_str()),
                    [
                        generalize(l, depth, rng, next_meta, menv),
                        generalize(a, depth, rng, next_meta, menv),
                    ],
                ),
                // Binary predicate atom: individuals stay concrete.
                _ => t.clone(),
            },
            // Unary predicate atom.
            _ => t.clone(),
        },
        // Nullary predicate (`r`).
        _ => t.clone(),
    }
}

/// A random closed formula, its signature, and a generalized (Miller)
/// pattern carved out of it with the accompanying metavariable types.
fn generalized(seed: u64, depth: u32) -> (Signature, MetaEnv, Term, Term) {
    let vocab = fol::Vocabulary::small();
    let sig = vocab.signature();
    let mut rng = SmallRng::seed_from_u64(seed);
    let orig = fol::encode(&fol::gen_formula(&vocab, &mut rng, depth)).unwrap();
    let mut menv = MetaEnv::new();
    let mut next_meta = 0;
    let pat = generalize(&orig, 0, &mut rng, &mut next_meta, &mut menv);
    (sig, menv, orig, pat)
}

/// Well-typed closed terms of type `tm`, via the λ-calculus generator.
fn well_typed_term(seed: u64, size: usize) -> Term {
    let mut rng = SmallRng::seed_from_u64(seed);
    lambda::encode(&lambda::gen_closed(&mut rng, size)).unwrap()
}

/// A random well-moded, terminating list-transform program.
///
/// Predicates `t0..t{n-1} : i -> i -> o` are each either a structural
/// map (base clause plus a first-argument-indexed recursive clause) or a
/// single composition clause threading ground data left to right through
/// earlier predicates — so every `t_j` admits mode `(+,-)` and is
/// functional (exactly one answer per ground input). A deliberately
/// nondeterministic `mem : i -> i -> o` rides along so the certified
/// search has a predicate with many answers.
fn moded_program(seed: u64) -> (Program, usize) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let n = rng.gen_range(2usize..5);
    let mut decls = String::from(
        "type i.
         type o.
         const nil : i.
         const cons : i -> i -> i.
         const a : i.
         const b : i.
         const c : i.
         const mem : i -> i -> o.",
    );
    for j in 0..n {
        decls.push_str(&format!("\nconst t{j} : i -> i -> o."));
    }
    let sig = Signature::parse(&decls).expect("generated signature");
    let mut prog = Program::new(sig);
    let c = |prog: &Program, vars: &[(&str, &str)], head: &str, body: &[&str]| {
        Clause::parse(prog.sig(), vars, head, body).expect("generated clause")
    };
    let mem1 = c(
        &prog,
        &[("X", "i"), ("YS", "i")],
        "mem ?X (cons ?X ?YS)",
        &[],
    );
    prog.push(mem1);
    let mem2 = c(
        &prog,
        &[("X", "i"), ("Y", "i"), ("YS", "i")],
        "mem ?X (cons ?Y ?YS)",
        &["mem ?X ?YS"],
    );
    prog.push(mem2);
    for j in 0..n {
        if j >= 2 && rng.gen_bool(0.4) {
            let p = rng.gen_range(0..j);
            let q = rng.gen_range(0..j);
            let (b1, b2) = (format!("t{p} ?XS ?ZS"), format!("t{q} ?ZS ?YS"));
            let comp = c(
                &prog,
                &[("XS", "i"), ("YS", "i"), ("ZS", "i")],
                &format!("t{j} ?XS ?YS"),
                &[&b1, &b2],
            );
            prog.push(comp);
        } else {
            let elem = ["?X", "a", "b", "c"][rng.gen_range(0..4)];
            let base = c(&prog, &[], &format!("t{j} nil nil"), &[]);
            prog.push(base);
            let body = format!("t{j} ?XS ?YS");
            let step = c(
                &prog,
                &[("X", "i"), ("XS", "i"), ("YS", "i")],
                &format!("t{j} (cons ?X ?XS) (cons {elem} ?YS)"),
                &[&body],
            );
            prog.push(step);
        }
    }
    (prog, n)
}

/// A random ground list literal like `cons a (cons c nil)`.
fn ground_list(rng: &mut SmallRng, len: usize) -> String {
    let mut s = String::from("nil");
    for _ in 0..len {
        let e = ["a", "b", "c"][rng.gen_range(0..3)];
        s = format!("cons {e} ({s})");
    }
    s
}

props! {
    #![cases(128)]

    fn generalized_formulas_are_miller_patterns(seed in seeds(), depth in 1u32..5) {
        let (_, _, _, pat) = generalized(seed, depth);
        prop_assert_eq!(classify(&pat), PatternClass::Miller);
    }

    fn pattern_matcher_recovers_the_generalized_formula(seed in seeds(), depth in 1u32..5) {
        let (_, _, orig, pat) = generalized(seed, depth);
        let sub = match_pattern(&pat, &orig).unwrap();
        prop_assert!(sub.is_some(), "a pattern matches what it generalizes");
        prop_assert_eq!(sub.unwrap().apply(&pat), orig);
    }

    fn pattern_and_general_matcher_agree(seed in seeds(), depth in 1u32..5) {
        let (sig, menv, orig, pat) = generalized(seed, depth);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5EED);
        let vocab = fol::Vocabulary::small();
        let other = fol::encode(&fol::gen_formula(&vocab, &mut rng, depth)).unwrap();
        for target in [&orig, &other] {
            let fast = match_pattern(&pat, target).unwrap();
            let general = match_term(
                &sig,
                &menv,
                &Ctx::new(),
                &fol::o(),
                &pat,
                target,
                &MatchConfig::default(),
            )
            .unwrap();
            prop_assert_eq!(fast.is_some(), general.is_some());
            if let (Some(f), Some(g)) = (&fast, &general) {
                for (m, _) in menv.iter() {
                    prop_assert_eq!(f.get(m), g.get(m));
                }
                prop_assert_eq!(&f.apply(&pat), target);
            }
        }
    }

    fn validator_accepts_kernel_outputs(seed in seeds(), size in 2usize..30) {
        let sig = lambda::signature();
        let t = well_typed_term(seed, size);
        let reparsed = parse_term(sig, &t.to_string()).unwrap().term;
        prop_assert!(validate::check_term(&reparsed).is_ok());
        let body = Term::apps(Term::cnst("app"), [Term::Var(0), subst::shift(&t, 1)]);
        let arg = well_typed_term(seed.wrapping_add(1), size / 2 + 2);
        prop_assert!(validate::check_term(&subst::instantiate(&body, &arg)).is_ok());
        let redex = Term::app(Term::lam("y", Term::Var(0)), t);
        prop_assert!(validate::check_term(&normalize::nf(&redex)).is_ok());
    }

    fn validator_rejects_corrupted_annotations(seed in seeds(), size in 2usize..30) {
        let t = well_typed_term(seed, size);
        // A closed, meta-free, β-normal term annotated as open: the lie
        // is one field; the other two caches stay truthful.
        let lies = TermRef::new_with_annotations_for_tests(t.clone(), t.max_free() + 1, false, true);
        let err = validate::check_term(&Term::Fst(lies)).unwrap_err();
        prop_assert_eq!(err.field, "max_free");
        // The same term annotated as containing a metavariable.
        let lies = TermRef::new_with_annotations_for_tests(t.clone(), t.max_free(), true, true);
        let err = validate::check_term(&Term::Snd(lies)).unwrap_err();
        prop_assert_eq!(err.field, "has_meta");
        // A β-redex annotated as normal.
        let redex = Term::app(Term::lam("y", Term::Var(0)), t);
        let lies = TermRef::new_with_annotations_for_tests(redex, 0, false, true);
        let err = validate::check_term(&Term::Fst(lies)).unwrap_err();
        prop_assert_eq!(err.field, "beta_normal");
    }

    fn sanitizer_agrees_with_the_static_mode_verdict(seed in seeds(), len in 1usize..6) {
        let (prog, n) = moded_program(seed);
        let outcome = modes::analyze_program(&prog);
        for j in 0..n {
            let report = outcome
                .preds
                .iter()
                .find(|(p, _)| p.as_str() == format!("t{j}"))
                .map(|(_, r)| r)
                .expect("every generated predicate is analyzed");
            prop_assert!(
                report.modes.iter().any(|m| m.render() == "(+,-)"),
                "t{} lost its construction mode; inferred {:?}",
                j,
                report.modes.iter().map(|m| m.render()).collect::<Vec<_>>()
            );
        }
        // Tests run in a debug build, so the dynamic mode sanitizer is
        // live inside `solve_certified`: any divergence between the
        // static verdict and the search panics with the HA018 code.
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xD1CE);
        let list = ground_list(&mut rng, len);
        let query = format!("t{} ({list}) ?Z", n - 1);
        let (goal, menv) = query_menv(prog.sig(), &query, &[("Z", "i")]).unwrap();
        let cfg = SolveConfig { max_solutions: 8, ..SolveConfig::default() };
        let out = solve_certified(&prog, &menv, &goal, &cfg, &outcome.cert).unwrap();
        prop_assert_eq!(out.answers.len(), 1, "generated transforms are functional");
        let z = out.answers[0].get("Z").expect("output is bound");
        prop_assert!(z.metas().is_empty(), "well-moded output must be ground: {}", z);
    }

    fn certified_and_uncertified_solving_agree(seed in seeds(), len in 1usize..6) {
        let (prog, n) = moded_program(seed);
        let cert = modes::analyze_program(&prog).cert;
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xA11);
        let list = ground_list(&mut rng, len);
        let cfg = SolveConfig { max_solutions: 32, ..SolveConfig::default() };
        // A functional query (one answer) and a nondeterministic one
        // (`mem` enumerates every element occurrence): the certified
        // search must return exactly the uncertified answers, in order.
        let functional = format!("t{} ({list}) ?Z", n - 1);
        let member = format!("mem ?Z ({list})");
        for query in [&functional, &member] {
            let (goal, menv) = query_menv(prog.sig(), query, &[("Z", "i")]).unwrap();
            let plain = solve(&prog, &menv, &goal, &cfg).unwrap();
            let certified = solve_certified(&prog, &menv, &goal, &cfg, &cert).unwrap();
            prop_assert_eq!(
                plain.answers.len(),
                certified.answers.len(),
                "answer counts differ on `{}`",
                query
            );
            for (a, b) in plain.answers.iter().zip(&certified.answers) {
                prop_assert_eq!(&a.bindings, &b.bindings);
            }
        }
        let (goal, menv) = query_menv(prog.sig(), &member, &[("Z", "i")]).unwrap();
        let all = solve(&prog, &menv, &goal, &cfg).unwrap();
        prop_assert_eq!(all.answers.len(), len, "mem hits every occurrence");
    }

    fn sct_certified_sets_ignore_the_step_budget(seed in seeds(), depth in 1u32..4) {
        let vocab = fol::Vocabulary::small();
        let sig = vocab.signature();
        let rs = fol_cnf::rules(&sig).unwrap();
        let cert = termination::analyze_ruleset(&rs)
            .cert
            .expect("fol-cnf is SCT-proven");
        let mut rng = SmallRng::seed_from_u64(seed);
        let f = fol::encode(&fol::gen_formula(&vocab, &mut rng, depth)).unwrap();
        // A step budget far too small for CNF conversion: the certificate
        // drops the budget bookkeeping, so the certified engine still
        // reaches a genuine fixpoint...
        let cfg = EngineConfig { max_steps: 4, ..EngineConfig::default() };
        let mut certified = Engine::with_config(&sig, &rs, cfg.clone());
        prop_assert!(certified.attach_certificate(&cert), "certificate covers its own set");
        let got = certified.normalize(&fol::o(), &f).unwrap();
        prop_assert!(got.fixpoint, "certified run must not stop early");
        // ...agreeing with an uncertified engine under a generous budget,
        // while the same small budget does cut the uncertified engine off.
        let reference = Engine::new(&sig, &rs).normalize(&fol::o(), &f).unwrap();
        prop_assert!(reference.fixpoint);
        prop_assert_eq!(&got.term, &reference.term);
        prop_assert_eq!(got.steps, reference.steps);
        let budgeted = Engine::with_config(&sig, &rs, cfg).normalize(&fol::o(), &f).unwrap();
        prop_assert!(budgeted.steps <= 4);
        prop_assert_eq!(budgeted.fixpoint, budgeted.steps == got.steps);
    }
}

/// Promoted from the PR 8 scratch probe (`crates/analyze/tests/tmp_sct_probe.rs`):
/// the size-change analysis certifies the encoded-β rule only *vacuously* —
/// its right-hand side `?F ?X` mentions no ruleset constant, so there are
/// no call graphs to refute — yet Ω loops forever under that rule. The
/// probe pinned down that this combination is safe in practice because
/// certificates must be attached explicitly: a plain engine keeps its step
/// budget and stops Ω without ever claiming a fixpoint.
#[test]
fn encoded_beta_sct_proof_is_vacuous_and_omega_exhausts_the_budget() {
    let sig = Signature::parse(
        "type i.
         const app : i -> i -> i.
         const lam : (i -> i) -> i.",
    )
    .unwrap();
    let i = parse_ty("i").unwrap();
    let mut rs = RuleSet::new();
    rs.push(
        Rule::parse(
            &sig,
            "beta",
            &i,
            &[("F", "i -> i"), ("X", "i")],
            "app (lam ?F) ?X",
            "?F ?X",
        )
        .unwrap(),
    )
    .unwrap();
    let out = termination::analyze_ruleset(&rs);
    assert!(
        out.proven(),
        "the β RHS has no ruleset-constant calls, so SCT proves it vacuously: {}",
        out.reason
    );
    assert!(
        out.reason.contains("0 call graph"),
        "the proof must be the vacuous one: {}",
        out.reason
    );

    // Ω = app (lam x. app x x) (lam x. app x x) loops under the rule; a
    // budgeted engine must stop at the budget without claiming a fixpoint.
    let omega = parse_term(&sig, r"app (lam (\x. app x x)) (lam (\x. app x x))")
        .unwrap()
        .term;
    let cfg = EngineConfig {
        max_steps: 50,
        ..EngineConfig::default()
    };
    let eng = Engine::with_config(&sig, &rs, cfg);
    let res = eng.normalize(&i, &omega).unwrap();
    assert!(
        !res.fixpoint,
        "omega should exhaust the budget, never reach a fixpoint"
    );
    assert_eq!(res.steps, 50, "every budgeted step is a β step");
}
