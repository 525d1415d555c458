//! Cross-validation of the λProlog-style STLC type inference (two
//! clauses + eigenvariables, `hoas-lp`) against the conventional
//! Hindley–Milner implementation (`hoas_langs::miniml_types`) on the pure
//! λ-fragment: both must agree on typability *and* on the principal type
//! up to renaming — two completely different implementations of the same
//! judgment, one of which has no context machinery at all. CBV `eval` of
//! Church arithmetic is checked against named-AST normalization the same
//! way, and the solver's clause filter against the pattern unifier.

use hoas::langs::lambda::{self, LTerm};
use hoas::langs::miniml::Exp;
use hoas::langs::miniml_types::{self, MlTy};
use hoas::lp::examples::{self, stlc_program};
use hoas::lp::solve::{query_menv, solve, solve_certified, SolveConfig};
use hoas::lp::{Clause, CutBy, Goal, LpError, Program, TableMode};
use hoas::unify::pattern;
use hoas::unify::UnifyError;
use hoas_core::sig::Signature;
use hoas_core::term::MetaEnv;
use hoas_core::{MVar, Term, Ty, TyScheme};
use hoas_testkit::gen;
use hoas_testkit::prelude::*;
use std::collections::HashMap;

/// Renders an `MlTy` with variables densely renamed in first-occurrence
/// order.
fn canon_mlty(t: &MlTy) -> String {
    fn go(t: &MlTy, map: &mut HashMap<u32, usize>, out: &mut String) {
        match t {
            MlTy::Nat => out.push_str("nat"),
            MlTy::Var(v) => {
                let n = map.len();
                let id = *map.entry(*v).or_insert(n);
                out.push_str(&format!("v{id}"));
            }
            MlTy::Arrow(a, b) => {
                out.push('(');
                go(a, map, out);
                out.push_str("->");
                go(b, map, out);
                out.push(')');
            }
        }
    }
    let mut out = String::new();
    go(t, &mut HashMap::new(), &mut out);
    out
}

/// Renders an lp answer type (a `tp`-term over `arr`/metavariables) the
/// same way.
fn canon_tp(t: &Term) -> Option<String> {
    fn go(t: &Term, map: &mut HashMap<u32, usize>, out: &mut String) -> Option<()> {
        match t.spine() {
            (Term::Meta(m), args) if args.is_empty() => {
                let n = map.len();
                let id = *map.entry(m.id()).or_insert(n);
                out.push_str(&format!("v{id}"));
                Some(())
            }
            (Term::Const(c), args) if c.as_str() == "arr" && args.len() == 2 => {
                out.push('(');
                go(args[0], map, out)?;
                out.push_str("->");
                go(args[1], map, out)?;
                out.push(')');
                Some(())
            }
            (Term::Const(c), args) if c.as_str() == "base" && args.is_empty() => {
                out.push_str("base");
                Some(())
            }
            _ => None,
        }
    }
    let mut out = String::new();
    go(t, &mut HashMap::new(), &mut out)?;
    Some(out)
}

fn to_exp(t: &LTerm) -> Exp {
    match t {
        LTerm::Var(x) => Exp::var(x.clone()),
        LTerm::Lam(x, b) => Exp::lam(x.clone(), to_exp(b)),
        LTerm::App(f, a) => Exp::app(to_exp(f), to_exp(a)),
    }
}

fn to_lp_syntax(t: &LTerm) -> String {
    match t {
        LTerm::Var(x) => x.clone(),
        LTerm::Lam(x, b) => format!(r"lam (\{x}. {})", to_lp_syntax(b)),
        LTerm::App(f, a) => format!("app ({}) ({})", to_lp_syntax(f), to_lp_syntax(a)),
    }
}

/// Replaces one variable occurrence `x` of `t` (the `k`-th, modulo the
/// number of occurrences) by the self-application `x x`, which no simple
/// type admits.
fn self_apply_var(t: &LTerm, k: usize) -> LTerm {
    replace_var(t, k, |x| LTerm::app(x.clone(), x.clone()))
}

/// Replaces one variable occurrence `x` of `t` (the `k`-th, modulo the
/// number of occurrences) by `with(x)`.
fn replace_var(t: &LTerm, k: usize, with: impl Fn(&LTerm) -> LTerm) -> LTerm {
    fn count(t: &LTerm) -> usize {
        match t {
            LTerm::Var(_) => 1,
            LTerm::Lam(_, b) => count(b),
            LTerm::App(f, a) => count(f) + count(a),
        }
    }
    fn go(t: &LTerm, k: &mut usize, with: &impl Fn(&LTerm) -> LTerm) -> LTerm {
        match t {
            LTerm::Var(_) => {
                let hit = *k == 0;
                *k = k.wrapping_sub(1);
                if hit {
                    with(t)
                } else {
                    t.clone()
                }
            }
            LTerm::Lam(x, b) => LTerm::lam(x.clone(), go(b, k, with)),
            LTerm::App(f, a) => {
                let f = go(f, k, with);
                LTerm::app(f, go(a, k, with))
            }
        }
    }
    go(t, &mut (k % count(t)), &with)
}

/// The STLC program with the η-long spelling of the `lam` clause's
/// head, `of (lam (\x. ?F x)) (arr ?A ?B)`, in place of `of (lam ?F) …`.
fn stlc_program_eta_long() -> Program {
    let short = stlc_program();
    let mut prog = Program::new(short.sig().clone());
    for c in short.clauses() {
        let mut c = c.clone();
        if c.head.to_string().starts_with("of (lam") {
            let f = Term::Meta(MVar::new(0, "F"));
            let (a, b) = (Term::Meta(MVar::new(1, "A")), Term::Meta(MVar::new(2, "B")));
            c.head = Term::apps(
                Term::cnst("of"),
                [
                    Term::app(
                        Term::cnst("lam"),
                        Term::lam("x", Term::app(f, Term::Var(0))),
                    ),
                    Term::apps(Term::cnst("arr"), [a, b]),
                ],
            );
        }
        prog.push(c);
    }
    prog
}

/// Solves `of <query> ?T` with every gate-allowed call tabled, and
/// renders what the caller can observe: answers, table counters, cut
/// and flounder.
fn typing_observables(prog: &Program, query: &Term) -> String {
    let t = MVar::new(0, "T");
    let menv: MetaEnv = [(t.clone(), Ty::base("tp"))].into_iter().collect();
    let goal = Goal::Atom(Term::apps(Term::cnst("of"), [query.clone(), Term::Meta(t)]));
    let cfg = SolveConfig {
        max_depth: 256,
        fuel: 200_000,
        table: TableMode::Force,
        ..SolveConfig::default()
    };
    let out = solve(prog, &menv, &goal, &cfg).unwrap();
    let answers: Vec<String> = out.answers.iter().map(|a| a.to_string()).collect();
    format!(
        "{answers:?} {:?} cut {:?} floundered {}",
        out.tables, out.cut, out.floundered
    )
}

/// Church arithmetic: `add`/`mul` trees of depth at most `depth` over
/// numerals 0–3, with the value they denote.
fn gen_church(rng: &mut SmallRng, depth: u32) -> (LTerm, u32) {
    if depth == 0 || rng.gen_bool(0.4) {
        let n = rng.gen_range(0..4u32);
        return (lambda::church(n), n);
    }
    let (a, va) = gen_church(rng, depth - 1);
    let (b, vb) = gen_church(rng, depth - 1);
    if rng.gen_bool(0.5) {
        (LTerm::app(LTerm::app(lambda::church_add(), a), b), va + vb)
    } else {
        (LTerm::app(LTerm::app(lambda::church_mul(), a), b), va * vb)
    }
}

/// Generates an argument term for one of the bundled programs from the
/// grammar `ty` (`tm`, `tp`, or the `i` terms of `list`s and `nat`s):
/// constructors, bound variables under `lam`, the eigenvariables
/// `x#0`/`x#1` (at `tm`), and — outside binders — fresh metavariables
/// recorded in `menv` from id 100 up (clause variables use the low ids,
/// so the two sides are renamed apart).
fn gen_arg(rng: &mut SmallRng, ty: &str, depth: u32, bound: u32, menv: &mut MetaEnv) -> Term {
    if bound == 0 && rng.gen_bool(0.2) {
        let m = MVar::new(100 + menv.len() as u32, format!("Q{}", menv.len()));
        let base = if matches!(ty, "list" | "nat") {
            "i"
        } else {
            ty
        };
        menv.insert(m.clone(), Ty::base(base));
        return Term::Meta(m);
    }
    let leaf = depth == 0 || rng.gen_bool(0.3);
    match ty {
        "tm" => match rng.gen_range(0..if leaf { 2 } else { 4 }) {
            0 if bound > 0 => Term::Var(rng.gen_range(0..bound)),
            0 | 1 => Term::cnst(if rng.gen_bool(0.5) { "x#0" } else { "x#1" }),
            2 => Term::apps(
                Term::cnst("app"),
                [
                    gen_arg(rng, "tm", depth - 1, bound, menv),
                    gen_arg(rng, "tm", depth - 1, bound, menv),
                ],
            ),
            _ => Term::app(
                Term::cnst("lam"),
                Term::lam("x", gen_arg(rng, "tm", depth - 1, bound + 1, menv)),
            ),
        },
        "tp" => {
            if leaf {
                Term::cnst("base")
            } else {
                Term::apps(
                    Term::cnst("arr"),
                    [
                        gen_arg(rng, "tp", depth - 1, bound, menv),
                        gen_arg(rng, "tp", depth - 1, bound, menv),
                    ],
                )
            }
        }
        "list" => match rng.gen_range(0..if leaf { 4 } else { 5 }) {
            0 => Term::cnst("nil"),
            1 => Term::cnst("a"),
            2 => Term::cnst("b"),
            3 => Term::cnst("c"),
            _ => Term::apps(
                Term::cnst("cons"),
                [
                    gen_arg(rng, "list", depth - 1, bound, menv),
                    gen_arg(rng, "list", depth - 1, bound, menv),
                ],
            ),
        },
        "nat" => {
            if leaf {
                Term::cnst("z")
            } else {
                Term::app(Term::cnst("s"), gen_arg(rng, "nat", depth - 1, bound, menv))
            }
        }
        other => panic!("no generator for type {other}"),
    }
}

props! {
    #![cases(64)]

    fn lp_inference_agrees_with_hindley_milner(
        seed in seeds(), size in 2usize..41, ill in 0usize..12
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut term = lambda::gen_closed(&mut rng, size);
        // A third of the cases plant a self-application somewhere: the
        // term is then ill-typed, and neither side may type it.
        let planted = ill % 3 == 0;
        if planted {
            term = self_apply_var(&term, ill / 3 + size);
        }
        // HM via the conventional implementation.
        let hm = miniml_types::infer(&to_exp(&term));
        // The same judgment via two clauses of logic programming.
        let prog = stlc_program();
        let (goal, menv) = query_menv(
            prog.sig(),
            &format!("of ({}) ?T", to_lp_syntax(&term)),
            &[("T", "tp")],
        )
        .unwrap();
        let cfg = SolveConfig {
            max_depth: 256,
            fuel: 200_000,
            ..SolveConfig::default()
        };
        let out = solve(&prog, &menv, &goal, &cfg).unwrap();
        if planted {
            prop_assert!(hm.is_err(), "HM types the self-application in {}", term);
            prop_assert!(out.answers.is_empty(), "lp types the self-application in {}", term);
        }
        if out.incomplete() || out.floundered {
            // Budget-limited instance: inconclusive, skip.
            return Ok(());
        }
        match (hm, out.answers.first()) {
            (Ok(hm_ty), Some(ans)) => {
                let lp_ty = ans.get("T").expect("T bound");
                let lp_canon = canon_tp(lp_ty)
                    .unwrap_or_else(|| panic!("unexpected answer shape: {lp_ty}"));
                prop_assert_eq!(
                    canon_mlty(&hm_ty),
                    lp_canon,
                    "principal types differ for {}", term
                );
            }
            (Err(_), None) => {} // both reject
            (Ok(t), None) => {
                return Err(format!("HM types {term} as {t} but lp finds no proof"));
            }
            (Err(e), Some(a)) => {
                return Err(format!("HM rejects {term} ({e}) but lp answers {a}"));
            }
        }
    }

    fn eta_short_and_long_spellings_agree(
        seed in seeds(), size in 2usize..25, k in 0usize..64
    ) {
        // A generated term with one variable occurrence `x` η-expanded to
        // `λz. x z`, whose encoding `lam (\z. app x z)` has the η-short
        // spelling `lam (app x)`. The η-short and η-long spellings of the
        // query, and of the `lam` clause's head, must be
        // indistinguishable: same answers, same table counters.
        let mut rng = SmallRng::seed_from_u64(seed);
        let term = replace_var(&lambda::gen_closed(&mut rng, size), k, |x| {
            LTerm::lam("eta", LTerm::app(x.clone(), LTerm::var("eta")))
        });
        let long = lambda::encode(&term).unwrap();
        let short = hoas_core::normalize::eta_contract(&long);
        prop_assert!(short != long, "nothing to contract in {}", long);
        let reference = typing_observables(&stlc_program(), &long);
        prop_assert_eq!(
            typing_observables(&stlc_program(), &short),
            reference.clone(),
            "η-short query {}", short
        );
        prop_assert_eq!(
            typing_observables(&stlc_program_eta_long(), &long),
            reference,
            "η-long lam clause on {}", long
        );
    }

    fn lp_church_eval_agrees_with_native_normalization(seed in seeds(), depth in 0u32..3) {
        // CBV `eval` stops at the outermost λ, so its value's *full* normal
        // form (computed on the named AST, no HOAS involved) must be the
        // normal form of the input: the Church numeral it denotes.
        let mut rng = SmallRng::seed_from_u64(seed);
        let (expr, value) = gen_church(&mut rng, depth);
        let prog = examples::eval_program();
        let v = MVar::new(0, "V");
        let menv: MetaEnv = [(v.clone(), lambda::tm())].into_iter().collect();
        let goal = Goal::Atom(Term::apps(
            Term::cnst("eval"),
            [lambda::encode(&expr).unwrap(), Term::Meta(v)],
        ));
        let cfg = SolveConfig {
            max_depth: 4096,
            fuel: 5_000_000,
            ..SolveConfig::default()
        };
        let out = solve(&prog, &menv, &goal, &cfg).unwrap();
        prop_assert!(!out.incomplete() && !out.floundered, "budget cut on {}", expr);
        prop_assert_eq!(out.answers.len(), 1);
        let got = lambda::decode(out.answers[0].get("V").unwrap()).unwrap();
        let got_nf = lambda::normalize_native(&got, 100_000).unwrap();
        let want = lambda::normalize_native(&expr, 100_000).unwrap();
        prop_assert!(got_nf.alpha_eq(&want), "eval {} gives {}, normal form {}", expr, got, got_nf);
        prop_assert!(want.alpha_eq(&lambda::church(value)));
    }

    fn fingerprint_rejections_are_refutations(seed in seeds(), depth in 1u32..4) {
        // Whenever a program clause's head fingerprint rejects a closed
        // call, the pattern unifier must refute call ≐ head: the
        // solver's candidate filter never drops a clause that could
        // resolve. (`x#0`/`x#1` are extra constants here; hypothetical
        // clauses and calls over eigenvariables are covered by the
        // solver's own unit property.)
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut stlc_sig = stlc_program().sig().clone();
        let mut eval_sig = examples::eval_program().sig().clone();
        for x in ["x#0", "x#1"] {
            stlc_sig.declare_const(x, TyScheme::mono(Ty::base("tm"))).unwrap();
            eval_sig.declare_const(x, TyScheme::mono(Ty::base("tm"))).unwrap();
        }
        let cases = vec![
            (stlc_program(), stlc_sig, "of", vec!["tm", "tp"]),
            (examples::eval_program(), eval_sig, "eval", vec!["tm", "tm"]),
            (examples::append_program(), examples::append_program().sig().clone(),
             "append", vec!["list", "list", "list"]),
            (nat_program(), nat_program().sig().clone(), "nat", vec!["nat"]),
        ];
        for (prog, sig, pred, arg_tys) in &cases {
            for _ in 0..8 {
                let mut menv = MetaEnv::new();
                let args: Vec<Term> = arg_tys
                    .iter()
                    .map(|ty| gen_arg(&mut rng, ty, depth, 0, &mut menv))
                    .collect();
                let call = Term::apps(Term::cnst(*pred), args);
                let call_args = call.spine().1;
                for &i in prog.clause_indices_for(&hoas_core::Sym::new(*pred)) {
                    if prog.clause_admits(i, &call_args, 0) {
                        continue;
                    }
                    let clause = &prog.clauses()[i];
                    let mut both = menv.clone();
                    both.extend(clause.var_menv());
                    let result = pattern::unify(sig, &both, &Ty::base("o"), &call, &clause.head);
                    prop_assert!(
                        matches!(&result, Err(e) if e.is_refutation()),
                        "fingerprint rejects `{}` for `{}`, but unification gives {:?}",
                        clause.head, call, result.map(|s| s.subst.to_string())
                    );
                }
            }
        }
    }

    fn lp_reachability_agrees_with_bfs_oracle(
        seed in seeds(), n_nodes in 2usize..6, n_edges in 0usize..10
    ) {
        // A generated edge/path program over a random graph, checked
        // against the testkit's BFS oracle: every proved `path` is truly
        // reachable, and when the search terminates without budget cuts,
        // every unproved `path` is truly unreachable.
        let mut rng = SmallRng::seed_from_u64(seed);
        let spec = gen::lp_reachability(&mut rng, n_nodes, n_edges);
        let sig = Signature::parse(&spec.sig_src()).unwrap();
        let mut prog = Program::new(sig);
        for (vars, head, body) in spec.clause_srcs() {
            let vars: Vec<(&str, &str)> =
                vars.iter().map(|(v, t)| (v.as_str(), t.as_str())).collect();
            let body: Vec<&str> = body.iter().map(|g| g.as_str()).collect();
            let clause = Clause::parse(prog.sig(), &vars, &head, &body).unwrap();
            prog.push(clause);
        }
        let start = rng.gen_range(0..spec.n_nodes);
        let oracle = spec.reachable_from(start);
        // Cyclic graphs have infinitely many derivations, so the search
        // is depth-bounded; a cut branch makes a *negative* answer
        // inconclusive, but positives stay sound.
        let cfg = SolveConfig {
            max_depth: 2 * spec.n_nodes as u32 + 4,
            fuel: 200_000,
            ..SolveConfig::default()
        };
        for end in 0..spec.n_nodes {
            let (goal, menv) =
                query_menv(prog.sig(), &format!("path n{start} n{end}"), &[]).unwrap();
            let out = solve(&prog, &menv, &goal, &cfg).unwrap();
            prop_assert!(!out.floundered, "ground queries never flounder");
            if !out.answers.is_empty() {
                prop_assert!(
                    oracle.contains(&end),
                    "lp proves path n{} n{} but the oracle disagrees", start, end
                );
            } else if !out.incomplete() {
                prop_assert!(
                    !oracle.contains(&end),
                    "exhaustive search misses path n{} n{}", start, end
                );
            }
        }
    }
}

#[test]
fn eta_spellings_of_clause_and_query_agree() {
    // `\f. \x. f x` spelled η-long and η-short (`lam (\f. lam (app f))`)
    // against both spellings of the `lam` clause: one principal type,
    // and the top-level call tabled the same way.
    let sig = stlc_program().sig().clone();
    let parse = |src: &str| hoas_core::parse::parse_term(&sig, src).unwrap().term;
    let long = parse(r"lam (\f. lam (\x. app f x))");
    let short = parse(r"lam (\f. lam (app f))");
    let want = typing_observables(&stlc_program(), &long);
    assert!(want.starts_with(r#"["?T = arr (arr "#), "{want}");
    assert!(want.contains("variant_misses: 1"), "{want}");
    for prog in [stlc_program(), stlc_program_eta_long()] {
        for query in [&long, &short] {
            assert_eq!(typing_observables(&prog, query), want, "{query}");
        }
    }
}

#[test]
fn clause_variable_of_unsupported_type_fails_when_selected() {
    // A product-typed clause variable lies outside the unifier's
    // fragment. The clause's variable types are checked once, where it
    // is canonicalized, and every solve that selects the clause reports
    // it; a solve that never selects it is unaffected.
    let sig = Signature::parse("type i. type o. const q : o. const r : o.").unwrap();
    let mut prog = Program::new(sig);
    let pair = Ty::prod(Ty::base("i"), Ty::base("i"));
    prog.push(Clause::fact(vec![("X".into(), pair)], Term::cnst("q")));
    prog.push(Clause::fact(vec![], Term::cnst("r")));
    let ask = |pred: &str| {
        solve(
            &prog,
            &MetaEnv::new(),
            &Goal::Atom(Term::cnst(pred)),
            &SolveConfig::default(),
        )
    };
    for _ in 0..2 {
        let out = ask("q");
        assert!(
            matches!(
                out,
                Err(LpError::Unify(UnifyError::UnsupportedMetaType { .. }))
            ),
            "{out:?}"
        );
    }
    assert!(matches!(ask("r"), Ok(out) if out.answers.len() == 1));
}

#[test]
fn ill_typed_query_or_clause_is_an_error_not_a_failure() {
    // `lam base` applies `lam` to a `tp`. Wherever it appears — in the
    // query, in a clause head, or in a clause body — the solve returns a
    // unification error rather than failing the search or panicking.
    let stlc = stlc_program();
    let sig = stlc.sig().clone();
    let parse = |src: &str| hoas_core::parse::parse_term(&sig, src).unwrap().term;
    let ill = || Term::app(Term::cnst("lam"), Term::cnst("base"));
    let of = |x: Term, t: Term| Term::apps(Term::cnst("of"), [x, t]);
    let identity = || parse(r"lam (\x. x)");
    let ask = |prog: &Program, x: Term| {
        let goal = Goal::Atom(of(x, parse("arr base base")));
        solve(prog, &MetaEnv::new(), &goal, &SolveConfig::default())
    };
    assert!(matches!(ask(&stlc, identity()), Ok(out) if out.answers.len() == 1));

    let out = ask(&stlc, ill());
    assert!(matches!(out, Err(LpError::Unify(_))), "query: {out:?}");

    let with_clause = |clause: Clause| {
        let mut prog = Program::new(sig.clone());
        prog.push(clause);
        for c in stlc.clauses() {
            prog.push(c.clone());
        }
        prog
    };
    let head = with_clause(Clause::fact(vec![], of(ill(), parse("arr base base"))));
    let out = ask(&head, identity());
    assert!(matches!(out, Err(LpError::Unify(_))), "head: {out:?}");

    let body = with_clause(Clause {
        vars: vec![],
        head: of(identity(), parse("arr base base")),
        body: Goal::Atom(of(ill(), parse("base"))),
    });
    let out = ask(&body, identity());
    assert!(matches!(out, Err(LpError::Unify(_))), "body: {out:?}");
}

#[test]
fn known_combinators_agree() {
    let cases = [
        (r"\x. x", true),
        (r"\x. \y. x", true),
        (r"\x. \y. \z. (x z) (y z)", true),
        (r"\x. x x", false),
        (r"\f. (\x. f (x x)) (\x. f (x x))", false), // Y combinator
    ];
    let prog = stlc_program();
    for (src, typable) in cases {
        // Build the LTerm by parsing its `lam`/`app` encoding with the
        // λ-calculus signature and decoding.
        let t = {
            let sig = lambda::signature();
            let meta = hoas_core::parse::parse_term(sig, &encode_src(src))
                .unwrap()
                .term;
            lambda::decode(&meta).unwrap()
        };
        let hm = miniml_types::infer(&to_exp(&t));
        let (goal, menv) = query_menv(
            prog.sig(),
            &format!("of ({}) ?T", to_lp_syntax(&t)),
            &[("T", "tp")],
        )
        .unwrap();
        let cfg = SolveConfig {
            max_depth: 256,
            ..SolveConfig::default()
        };
        let out = solve(&prog, &menv, &goal, &cfg).unwrap();
        assert_eq!(hm.is_ok(), typable, "HM on {src}");
        assert_eq!(!out.answers.is_empty(), typable, "lp on {src}");
    }
}

/// Turns a raw λ-source `\x. b` into the `lam`-encoded metalanguage
/// syntax by wrapping binders.
fn encode_src(src: &str) -> String {
    // The metalanguage parser reads `\x. t` as a raw λ; wrap every λ in
    // `lam` and every application in `app` by going through LTerm-free
    // textual substitution is fragile — instead parse the raw λ-term with
    // the kernel parser (it is exactly the metalanguage's syntax) and
    // decode... but raw λs are not `tm` encodings. Pragmatic approach:
    // hand-encode the few shapes used in `known_combinators_agree`.
    match src {
        r"\x. x" => r"lam (\x. x)".to_string(),
        r"\x. \y. x" => r"lam (\x. lam (\y. x))".to_string(),
        r"\x. \y. \z. (x z) (y z)" => {
            r"lam (\x. lam (\y. lam (\z. app (app x z) (app y z))))".to_string()
        }
        r"\x. x x" => r"lam (\x. app x x)".to_string(),
        r"\f. (\x. f (x x)) (\x. f (x x))" => {
            r"app (lam (\f. app (lam (\x. app f (app x x))) (lam (\x. app f (app x x))))) (lam (\y. y))"
                .to_string()
        }
        other => panic!("unknown combinator source: {other}"),
    }
}

// ----------------------------------------------------------------------
// Unit tests migrated from `crates/lp/src/solve.rs` (the solver's
// behavioral contract — resolution, enumeration, scoping, floundering —
// plus the new machine-only regressions below).

#[test]
fn append_ground_query() {
    let prog = examples::append_program();
    let (goal, menv) = query_menv(
        prog.sig(),
        "append (cons a nil) (cons b nil) ?Z",
        &[("Z", "i")],
    )
    .unwrap();
    let out = solve(&prog, &menv, &goal, &SolveConfig::default()).unwrap();
    assert_eq!(out.answers.len(), 1);
    assert_eq!(
        out.answers[0].get("Z").unwrap().to_string(),
        "cons a (cons b nil)"
    );
}

#[test]
fn append_enumerates_splits() {
    let prog = examples::append_program();
    // append ?X ?Y (cons a (cons b nil)) — three ways to split.
    let (goal, menv) = query_menv(
        prog.sig(),
        "append ?X ?Y (cons a (cons b nil))",
        &[("X", "i"), ("Y", "i")],
    )
    .unwrap();
    let cfg = SolveConfig {
        max_solutions: 10,
        ..SolveConfig::default()
    };
    let out = solve(&prog, &menv, &goal, &cfg).unwrap();
    assert_eq!(out.answers.len(), 3);
    let xs: Vec<String> = out
        .answers
        .iter()
        .map(|a| a.get("X").unwrap().to_string())
        .collect();
    assert_eq!(xs, vec!["nil", "cons a nil", "cons a (cons b nil)"]);
}

#[test]
fn failing_query_is_empty_not_error() {
    let prog = examples::append_program();
    let (goal, menv) = query_menv(prog.sig(), "append (cons a nil) nil nil", &[]).unwrap();
    let out = solve(&prog, &menv, &goal, &SolveConfig::default()).unwrap();
    assert!(out.answers.is_empty());
    assert!(out.cut.is_none(), "search space was exhausted, not cut");
    assert!(!out.floundered);
}

#[test]
fn depth_bound_reported() {
    // A left-recursive loop: p :- p.
    let sig = Signature::parse("type o. const p : o.").unwrap();
    let mut prog = Program::new(sig);
    prog.push(Clause {
        vars: vec![],
        head: Term::cnst("p"),
        body: Goal::Atom(Term::cnst("p")),
    });
    let (goal, menv) = query_menv(prog.sig(), "p", &[]).unwrap();
    let cfg = SolveConfig {
        max_depth: 32,
        ..SolveConfig::default()
    };
    let out = solve(&prog, &menv, &goal, &cfg).unwrap();
    assert!(out.answers.is_empty());
    assert_eq!(out.cut, Some(CutBy::Depth), "the depth budget fired");
    assert!(out.incomplete());
}

#[test]
fn fuel_bound_reported() {
    // The same loop with a tight fuel budget cuts by fuel before depth.
    let sig = Signature::parse("type o. const p : o.").unwrap();
    let mut prog = Program::new(sig);
    prog.push(Clause {
        vars: vec![],
        head: Term::cnst("p"),
        body: Goal::Atom(Term::cnst("p")),
    });
    let (goal, menv) = query_menv(prog.sig(), "p", &[]).unwrap();
    let cfg = SolveConfig {
        max_depth: u32::MAX,
        fuel: 50,
        ..SolveConfig::default()
    };
    let out = solve(&prog, &menv, &goal, &cfg).unwrap();
    assert!(out.answers.is_empty());
    assert_eq!(out.cut, Some(CutBy::Fuel), "the fuel budget fired");
}

#[test]
fn hypothetical_clause_scoped_to_its_goal() {
    // (q => q) succeeds; q alone fails; and q is gone after the
    // implication: ((q => q), q) fails.
    let sig = Signature::parse("type o. const q : o. const r2 : o.").unwrap();
    let mut prog = Program::new(sig);
    prog.push(Clause {
        vars: vec![],
        head: Term::cnst("r2"),
        body: Goal::True,
    });
    let q = || Goal::Atom(Term::cnst("q"));
    let hypo = || {
        Goal::implies(
            Clause {
                vars: vec![],
                head: Term::cnst("q"),
                body: Goal::True,
            },
            q(),
        )
    };
    let cfg = SolveConfig::default();
    let menv = MetaEnv::new();
    assert_eq!(solve(&prog, &menv, &hypo(), &cfg).unwrap().answers.len(), 1);
    assert!(solve(&prog, &menv, &q(), &cfg).unwrap().answers.is_empty());
    let seq = Goal::and(hypo(), q());
    assert!(solve(&prog, &menv, &seq, &cfg).unwrap().answers.is_empty());
}

#[test]
fn hypothetical_clauses_nest_under_shifted_bodies() {
    // top :- pi x. ((r x :- pi y. (q x y => s x y)) => pi z. r x).
    // The hypothetical clause for r is used one eigenvariable (z) deeper
    // than it was assumed, so its body reads x shifted past z but its own
    // y unshifted; the clause for q it assumes there must read the same.
    // With `s ?X ?Y :- q ?X ?Y` the assumed `q x y` answers `s x y`; with
    // `s ?X ?Y :- q ?Y ?X` it must not.
    let ask = |flipped: bool| {
        let sig = Signature::parse(
            "type i. type o. const top : o. const r : i -> o.
             const q : i -> i -> o. const s : i -> i -> o.",
        )
        .unwrap();
        let mut prog = Program::new(sig);
        let body = if flipped { "q ?Y ?X" } else { "q ?X ?Y" };
        prog.push(
            Clause::parse(prog.sig(), &[("X", "i"), ("Y", "i")], "s ?X ?Y", &[body]).unwrap(),
        );
        let i = Ty::base("i");
        let app =
            |c: &str, args: &[u32]| Term::apps(Term::cnst(c), args.iter().map(|&v| Term::Var(v)));
        // Under pi x. pi y., x is Var(1) and y is Var(0).
        let r_clause = Clause {
            vars: vec![],
            head: app("r", &[0]),
            body: Goal::pi(
                "y",
                i.clone(),
                Goal::implies(
                    Clause::fact(vec![], app("q", &[1, 0])),
                    Goal::Atom(app("s", &[1, 0])),
                ),
            ),
        };
        let top = Goal::pi(
            "x",
            i.clone(),
            Goal::implies(
                r_clause,
                Goal::pi("z", i.clone(), Goal::Atom(app("r", &[1]))),
            ),
        );
        prog.push(Clause {
            vars: vec![],
            head: Term::cnst("top"),
            body: top,
        });
        let (goal, menv) = query_menv(prog.sig(), "top", &[]).unwrap();
        solve(&prog, &menv, &goal, &SolveConfig::default())
            .unwrap()
            .answers
            .len()
    };
    assert_eq!(ask(false), 1, "the assumed q x y answers s x y");
    assert_eq!(ask(true), 0, "the assumed q x y does not answer q y x");
}

#[test]
fn universal_goal_introduces_fresh_constant() {
    // pi x. eq x x succeeds; pi x. eq x a fails (x ≠ a).
    let sig = Signature::parse("type i. type o. const a : i. const eq : i -> i -> o.").unwrap();
    let mut prog = Program::new(sig);
    prog.push(Clause::parse(prog.sig(), &[("X", "i")], "eq ?X ?X", &[]).unwrap());
    let i = Ty::base("i");
    let refl = Goal::pi(
        "x",
        i.clone(),
        Goal::Atom(Term::apps(Term::cnst("eq"), [Term::Var(0), Term::Var(0)])),
    );
    let cfg = SolveConfig::default();
    let menv = MetaEnv::new();
    assert_eq!(solve(&prog, &menv, &refl, &cfg).unwrap().answers.len(), 1);
    let bad = Goal::pi(
        "x",
        i,
        Goal::Atom(Term::apps(
            Term::cnst("eq"),
            [Term::Var(0), Term::cnst("a")],
        )),
    );
    assert!(solve(&prog, &menv, &bad, &cfg).unwrap().answers.is_empty());
}

#[test]
fn eigenvariable_scope_violation_rejected() {
    // pi x. eq ?Y x must FAIL: ?Y was created before x and must not
    // capture it (the essence of mixed-prefix unification).
    let sig = Signature::parse("type i. type o. const eq : i -> i -> o.").unwrap();
    let mut prog = Program::new(sig);
    prog.push(Clause::parse(prog.sig(), &[("X", "i")], "eq ?X ?X", &[]).unwrap());
    let y = MVar::new(0, "Y");
    let mut menv = MetaEnv::new();
    menv.insert(y.clone(), Ty::base("i"));
    let goal = Goal::pi(
        "x",
        Ty::base("i"),
        Goal::Atom(Term::apps(Term::cnst("eq"), [Term::Meta(y), Term::Var(0)])),
    );
    let out = solve(&prog, &menv, &goal, &SolveConfig::default()).unwrap();
    assert!(
        out.answers.is_empty(),
        "?Y := eigenvariable would escape its scope"
    );
}

#[test]
fn local_clause_with_vars_rejected() {
    let sig = Signature::parse("type o. const q : o.").unwrap();
    let prog = Program::new(sig);
    let bad = Goal::implies(
        Clause {
            vars: vec![(hoas_core::Sym::new("X"), Ty::base("o"))],
            head: Term::cnst("q"),
            body: Goal::True,
        },
        Goal::Atom(Term::cnst("q")),
    );
    assert!(matches!(
        solve(&prog, &MetaEnv::new(), &bad, &SolveConfig::default()),
        Err(LpError::LocalClauseWithVars(_))
    ));
}

#[test]
fn flexible_atom_flounders() {
    let sig = Signature::parse("type o. const q : o.").unwrap();
    let prog = Program::new(sig);
    let m = MVar::new(0, "G");
    let mut menv = MetaEnv::new();
    menv.insert(m.clone(), Ty::base("o"));
    let out = solve(
        &prog,
        &menv,
        &Goal::Atom(Term::Meta(m)),
        &SolveConfig::default(),
    )
    .unwrap();
    assert!(out.answers.is_empty());
    assert!(out.floundered);
}

// ----------------------------------------------------------------------
// Machine-only regressions: derivation depth is bounded by heap, not by
// the host call stack (the pre-PR-10 recursive solver overflowed the OS
// stack near 10⁴ on these).

/// The unary-numeral program: `nat z` and `nat (s ?N) :- nat ?N`.
fn nat_program() -> Program {
    let sig =
        Signature::parse("type i. type o. const z : i. const s : i -> i. const nat : i -> o.")
            .unwrap();
    let mut prog = Program::new(sig);
    prog.push(Clause::parse(prog.sig(), &[], "nat z", &[]).unwrap());
    prog.push(Clause::parse(prog.sig(), &[("N", "i")], "nat (s ?N)", &["nat ?N"]).unwrap());
    prog
}

fn church(n: usize) -> Term {
    let mut t = Term::cnst("z");
    for _ in 0..n {
        t = Term::app(Term::cnst("s"), t);
    }
    t
}

#[test]
fn deep_right_recursion_solves_without_host_stack_overflow() {
    // A right-recursive chain of 10⁵ clauses: p0 :- p1. … p99999.
    // The derivation is 10⁵ resolution steps down one branch — the
    // recursive solver's host frames overflowed the OS stack near 10⁴;
    // the machine keeps 10⁵ choice points on the heap and walks back
    // out. (Terms stay shallow on purpose: kernel normalization is
    // recursive over *term* depth, which is a different budget.)
    const DEPTH: usize = 100_000;
    let mut sig = Signature::parse("type o.").unwrap();
    for i in 0..=DEPTH {
        sig.declare_const(
            format!("p{i}").as_str(),
            hoas_core::TyScheme::mono(Ty::base("o")),
        )
        .unwrap();
    }
    let mut prog = Program::new(sig);
    for i in 0..DEPTH {
        prog.push(Clause {
            vars: vec![],
            head: Term::cnst(format!("p{i}").as_str()),
            body: Goal::Atom(Term::cnst(format!("p{}", i + 1).as_str())),
        });
    }
    prog.push(Clause {
        vars: vec![],
        head: Term::cnst(format!("p{DEPTH}").as_str()),
        body: Goal::True,
    });
    let (goal, menv) = query_menv(prog.sig(), "p0", &[]).unwrap();
    let cfg = SolveConfig {
        max_depth: DEPTH as u32 + 8,
        fuel: 20_000_000,
        ..SolveConfig::default()
    };
    let out = solve(&prog, &menv, &goal, &cfg).unwrap();
    assert_eq!(out.answers.len(), 1, "p0 is provable through 10⁵ steps");
    assert!(out.cut.is_none());
}

#[test]
fn deep_certified_chain_solves_under_the_mode_sanitizer() {
    // Every call of the chain goes through an ordinary choice point, and
    // in debug builds the certificate's mode sanitizer queues an
    // exit-groundness check behind each one.
    const DEPTH: usize = 256;
    let prog = nat_program();
    let cert = hoas::analyze::modes::analyze_program(&prog).cert;
    let goal = Goal::Atom(Term::apps(Term::cnst("nat"), [church(DEPTH)]));
    let cfg = SolveConfig {
        max_depth: DEPTH as u32 + 8,
        fuel: 20_000_000,
        ..SolveConfig::default()
    };
    let out = solve_certified(&prog, &MetaEnv::new(), &goal, &cfg, &cert).unwrap();
    assert_eq!(out.answers.len(), 1, "nat (s^256 z) is provable");
    assert!(out.cut.is_none());
}

#[test]
fn under_applied_atom_is_an_error_not_a_failure() {
    // `of` takes two arguments. The clause filter compares argument heads
    // position by position and leaves the arity mismatch to the unifier,
    // which reports the ill-typed call instead of quietly failing it.
    let prog = stlc_program();
    let goal = Goal::Atom(Term::app(
        Term::cnst("of"),
        Term::app(Term::cnst("lam"), Term::lam("x", Term::Var(0))),
    ));
    let out = solve(&prog, &MetaEnv::new(), &goal, &SolveConfig::default());
    assert!(matches!(out, Err(LpError::Unify(_))), "got {out:?}");
}

#[test]
fn unifier_created_metas_take_the_level_of_their_binders() {
    // `same (\z. ?G z) (\z. ?H)` against `same ?A ?A` is a flex-flex
    // pair: the unifier solves ?G and ?H through one fresh ?N. Under
    // `pi x`, ?G and ?H live at the eigenvariable's level, so ?N must
    // too, and `same2 ?H x` may then bind ?N to x. A fresh ?N read as
    // level 0 fails the query.
    let sig = Signature::parse(
        "type i. type o. const c : i.
         const same : (i -> i) -> (i -> i) -> o. const same2 : i -> i -> o.
         const k : i -> o. const top : o. const topc : o.",
    )
    .unwrap();
    let mut prog = Program::new(sig);
    prog.push(Clause::parse(prog.sig(), &[("A", "i -> i")], "same ?A ?A", &[]).unwrap());
    prog.push(Clause::parse(prog.sig(), &[("B", "i")], "same2 ?B ?B", &[]).unwrap());
    prog.push(
        Clause::parse(
            prog.sig(),
            &[("X", "i"), ("G", "i -> i"), ("H", "i")],
            "k ?X",
            &[r"same (\z. ?G z) (\z. ?H)", "same2 ?H ?X"],
        )
        .unwrap(),
    );
    prog.push(Clause {
        vars: vec![],
        head: Term::cnst("top"),
        body: Goal::pi(
            "x",
            Ty::base("i"),
            Goal::Atom(Term::app(Term::cnst("k"), Term::Var(0))),
        ),
    });
    prog.push(Clause::parse(prog.sig(), &[], "topc", &["k c"]).unwrap());
    let cfg = SolveConfig::default();
    let menv = MetaEnv::new();
    let ask = |goal: &str| {
        let (goal, menv2) = query_menv(prog.sig(), goal, &[]).unwrap();
        assert_eq!(menv2, menv);
        solve(&prog, &menv, &goal, &cfg).unwrap().answers.len()
    };
    assert_eq!(ask("topc"), 1, "control: no eigenvariable involved");
    assert_eq!(ask("top"), 1, "the pruned metavariable may mention x");
}

/// The chain `p0 ?X :- p1 ?X. … p(n-1) ?X :- pn ?X. pn ?X.` asked
/// `p0 a` (or `p0 ?Y` when `ask_var`): n resolution steps, each binding
/// one fresh clause variable. Returns the solver's binding-visit count.
fn chain_binding_visits(n: usize, ask_var: bool) -> u64 {
    chain_visits(n, if ask_var { Chain::Var } else { Chain::Ground })
}

/// The chains [`chain_visits`] builds and the queries it asks.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Chain {
    /// `pᵢ ?X :- pᵢ₊₁ ?X` asked `p₀ a`.
    Ground,
    /// `pᵢ ?X :- pᵢ₊₁ ?X` asked `p₀ ?Y`.
    Var,
    /// `pᵢ ?X :- pᵢ₊₁ (s ?X)` asked `p₀ z`: the call's argument grows by
    /// one node per step, and step i's call is read through the i
    /// bindings it shares with the steps before.
    Grow,
}

/// Runs an n-step chain (see [`Chain`]), each step binding one fresh
/// clause variable. Returns the solver's binding-visit count.
fn chain_visits(n: usize, chain: Chain) -> u64 {
    let mut sig =
        Signature::parse("type i. type o. const a : i. const z : i. const s : i -> i.").unwrap();
    for i in 0..=n {
        sig.declare_const(
            format!("p{i}").as_str(),
            TyScheme::mono(Ty::arrow(Ty::base("i"), Ty::base("o"))),
        )
        .unwrap();
    }
    let x = || Term::Meta(MVar::new(0, "X"));
    let p = |i: usize| Term::cnst(format!("p{i}").as_str());
    let passed = || match chain {
        Chain::Grow => Term::app(Term::cnst("s"), x()),
        Chain::Ground | Chain::Var => x(),
    };
    let mut prog = Program::new(sig);
    for i in 0..=n {
        prog.push(Clause {
            vars: vec![(hoas_core::Sym::new("X"), Ty::base("i"))],
            head: Term::app(p(i), x()),
            body: if i < n {
                Goal::Atom(Term::app(p(i + 1), passed()))
            } else {
                Goal::True
            },
        });
    }
    let y = MVar::new(0, "Y");
    let (arg, menv) = match chain {
        Chain::Var => {
            let menv: MetaEnv = [(y.clone(), Ty::base("i"))].into_iter().collect();
            (Term::Meta(y), menv)
        }
        Chain::Ground => (Term::cnst("a"), MetaEnv::new()),
        Chain::Grow => (Term::cnst("z"), MetaEnv::new()),
    };
    let goal = Goal::Atom(Term::app(p(0), arg));
    let cfg = SolveConfig {
        max_depth: n as u32 + 8,
        fuel: 20_000_000,
        ..SolveConfig::default()
    };
    let out = solve(&prog, &menv, &goal, &cfg).unwrap();
    assert_eq!(out.answers.len(), 1, "p0 is provable");
    if let Some(t) = out.answers[0].get("Y") {
        assert!(matches!(t, Term::Meta(_)), "?Y stays free, got {t}");
    }
    out.binding_visits
}

#[test]
fn binding_work_is_linear_in_derivation_length() {
    let small = chain_binding_visits(1_000, false);
    let large = chain_binding_visits(10_000, false);
    assert!(small > 0, "the counter is live");
    assert!(
        large <= 11 * small,
        "binding visits grew superlinearly: {small} at n = 10^3, {large} at n = 10^4"
    );
}

#[test]
fn variable_link_chains_dereference_on_a_2mib_stack() {
    // Asked `p0 ?Y`, each step's flex-flex pair links the previous
    // variable to a fresh one, so delivering the answer dereferences a
    // chain ?Y ↦ ?K₁ ↦ … ↦ ?Kₙ of 10⁴ links: it must cost neither host
    // stack per link nor more than linear binding work.
    let (small, large) = std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(|| {
            (
                chain_binding_visits(1_000, true),
                chain_binding_visits(10_000, true),
            )
        })
        .unwrap()
        .join()
        .expect("the chain dereferences without overflowing the stack");
    assert!(
        large <= 11 * small,
        "binding visits grew superlinearly: {small} at n = 10^3, {large} at n = 10^4"
    );
}

#[test]
fn shared_calls_grow_on_a_2mib_stack() {
    // Asked `p0 z` on `pᵢ ?X :- pᵢ₊₁ (s ?X)`, step i calls pᵢ on a term
    // of i nodes that it reads through the bindings of the steps before.
    // The head walk binds each ?X to the call's own argument without
    // reading into it, so neither host stack nor binding work grows with
    // the argument: host recursion stays bounded by the head's depth.
    //
    // Debug builds also check every walk against the unifier on the
    // resolved call, and resolving the call grafts it through the
    // bindings of every step before, one host frame per binding:
    // quadratic in n and deep in host stack. There the chain is ten
    // times shorter and the stack 64 MiB;
    // the 2 MiB bound is checked on the release build (CI runs this test
    // there too).
    let (n, stack) = if cfg!(debug_assertions) {
        (100, 64 << 20)
    } else {
        (1_000, 2 << 20)
    };
    let (small, large) = std::thread::Builder::new()
        .stack_size(stack)
        .spawn(move || {
            (
                chain_visits(n, Chain::Grow),
                chain_visits(10 * n, Chain::Grow),
            )
        })
        .unwrap()
        .join()
        .expect("the chain solves without overflowing the stack");
    assert!(
        large <= 11 * small,
        "binding visits grew superlinearly: {small} at n = {n}, {large} at n = {}",
        10 * n
    );
}

/// The chain `pᵢ ?X ?X :- pᵢ₊₁ ?X ?W. … pₙ ?X ?X.` asked `p₀ ?Y ?Z`.
/// In each step the head's repeated ?X is a residue: its flex-flex
/// step joins the call's two arguments in a fresh metavariable, which
/// the next step joins with a fresh one in turn, so the answer's ?Y
/// dereferences through a link chain ?Y ↦ ?K₁ ↦ … ↦ ?Kₙ. Returns the
/// solver's binding-visit count.
fn residue_chain_binding_visits(n: usize) -> u64 {
    let mut sig = Signature::parse("type i. type o.").unwrap();
    for i in 0..=n {
        sig.declare_const(
            format!("p{i}").as_str(),
            TyScheme::mono(Ty::arrows([Ty::base("i"), Ty::base("i")], Ty::base("o"))),
        )
        .unwrap();
    }
    let (x, w) = (Term::Meta(MVar::new(0, "X")), Term::Meta(MVar::new(1, "W")));
    let p = |i: usize, a: &Term, b: &Term| {
        Term::apps(Term::cnst(format!("p{i}").as_str()), [a.clone(), b.clone()])
    };
    let mut prog = Program::new(sig);
    for i in 0..=n {
        let vars = [("X", Ty::base("i")), ("W", Ty::base("i"))];
        prog.push(Clause {
            vars: vars
                .iter()
                .map(|(h, ty)| ((*h).into(), ty.clone()))
                .collect(),
            head: p(i, &x, &x),
            body: if i < n {
                Goal::Atom(p(i + 1, &x, &w))
            } else {
                Goal::True
            },
        });
    }
    let (y, z) = (MVar::new(0, "Y"), MVar::new(1, "Z"));
    let menv: MetaEnv = [(y.clone(), Ty::base("i")), (z.clone(), Ty::base("i"))]
        .into_iter()
        .collect();
    let goal = Goal::Atom(p(0, &Term::Meta(y), &Term::Meta(z)));
    let cfg = SolveConfig {
        max_depth: n as u32 + 8,
        fuel: 20_000_000,
        ..SolveConfig::default()
    };
    let out = solve(&prog, &menv, &goal, &cfg).unwrap();
    assert_eq!(out.answers.len(), 1, "p0 is provable");
    let (ty, tz) = (out.answers[0].get("Y"), out.answers[0].get("Z"));
    assert!(
        matches!(ty, Some(Term::Meta(_))) && ty == tz,
        "?Y and ?Z end as one free metavariable: {}",
        out.answers[0]
    );
    out.binding_visits
}

#[test]
fn residue_link_chains_dereference_on_a_2mib_stack() {
    // Delivering the answer follows a 10⁴-link chain: it must cost
    // neither host stack per link nor more than linear binding work.
    let (small, large) = std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(|| {
            (
                residue_chain_binding_visits(1_000),
                residue_chain_binding_visits(10_000),
            )
        })
        .unwrap()
        .join()
        .expect("the chain dereferences without overflowing the stack");
    assert!(
        large <= 11 * small,
        "binding visits grew superlinearly: {small} at n = 10^3, {large} at n = 10^4"
    );
}

#[test]
fn query_metavariable_ids_may_be_sparse_and_large() {
    // The caller's ids are its own business: a query variable numbered
    // near `u32::MAX` is answered like any other.
    let prog = examples::append_program();
    let z = MVar::new(u32::MAX - 1, "Z");
    let mut menv = MetaEnv::new();
    menv.insert(z.clone(), Ty::base("i"));
    let list = |src: &str| hoas_core::parse::parse_term(prog.sig(), src).unwrap().term;
    let goal = Goal::Atom(Term::apps(
        Term::cnst("append"),
        [list("cons a nil"), list("cons b nil"), Term::Meta(z)],
    ));
    let out = solve(&prog, &menv, &goal, &SolveConfig::default()).unwrap();
    assert_eq!(out.answers.len(), 1);
    assert_eq!(
        out.answers[0].get("Z").unwrap().to_string(),
        "cons a (cons b nil)"
    );
}
