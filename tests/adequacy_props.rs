//! Property tests for **adequacy** (experiment E7): for every object
//! language, `decode ∘ encode = id` (up to α), encodings are well-typed
//! canonical terms, and exotic terms are rejected rather than decoded.
//!
//! Structured generation uses the languages' seeded generators driven by
//! harness-chosen seeds and sizes, so failures shrink over the seed
//! space.

use hoas::core::prelude::*;
use hoas::langs::{fol, imp, lambda, miniml};
use hoas_testkit::prelude::*;

props! {
    #![cases(96)]

    fn lambda_roundtrip(seed in seeds(), size in 2usize..60) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let t = lambda::gen_closed(&mut rng, size);
        let e = lambda::encode(&t).unwrap();
        // Well-typed at tm.
        prop_assert!(lambda::check_encoding(&e, 0));
        // Canonical already (encodings are in canonical form).
        let c = normalize::canon_closed(lambda::signature(), &e, &lambda::tm()).unwrap();
        prop_assert_eq!(&c, &e);
        // Round-trip up to α.
        let back = lambda::decode(&e).unwrap();
        prop_assert!(back.alpha_eq(&t));
    }

    fn fol_roundtrip(seed in seeds(), depth in 1u32..6) {
        let vocab = fol::Vocabulary::small();
        let sig = vocab.signature();
        let mut rng = SmallRng::seed_from_u64(seed);
        let f = fol::gen_formula(&vocab, &mut rng, depth);
        let e = fol::encode(&f).unwrap();
        typeck::check_closed(&sig, &e, &fol::o()).unwrap();
        // Adequacy round-trips hold up to α-equivalence — the hash-consed
        // store canonicalizes binder hints, so decode may pick fresh
        // names for bound variables; `Formula::alpha_eq` decides the
        // comparison through the kernel encoding.
        prop_assert!(fol::decode(&e).unwrap().alpha_eq(&f));
    }

    fn fol_roundtrip_over_another_vocabulary(seed in seeds(), depth in 1u32..6) {
        // Predicates and functions the decoder has never heard of: the
        // FOL table reads every unlisted constant at an open sort.
        let vocab = fol::Vocabulary {
            functions: vec![("c".into(), 0), ("zz".into(), 3)],
            predicates: vec![("h".into(), 4), ("t0".into(), 0)],
        };
        let sig = vocab.signature();
        let mut rng = SmallRng::seed_from_u64(seed);
        let f = fol::gen_formula(&vocab, &mut rng, depth);
        let e = fol::encode(&f).unwrap();
        typeck::check_closed(&sig, &e, &fol::o()).unwrap();
        prop_assert!(fol::decode(&e).unwrap().alpha_eq(&f));
    }

    fn imp_roundtrip_and_trace(seed in seeds(), depth in 1u32..5) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let c = imp::gen_cmd(&mut rng, depth);
        let e = imp::encode(&c).unwrap();
        typeck::check_closed(imp::signature(), &e, &imp::cmd_ty()).unwrap();
        let back = imp::decode(&e).unwrap();
        // Binder names may be freshened; semantics must agree.
        match (imp::run(&c, 20_000), imp::run(&back, 20_000)) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
            (Err(_), Err(_)) => {}
            other => prop_assert!(false, "disagreement: {:?}", other),
        }
    }

    fn encoding_is_compositional_for_lambda_subst(seed in seeds(), size in 2usize..30) {
        // encode(t[x:=s]) == object-level β on encodings — the adequacy
        // square for substitution (the paper's central theorem).
        let mut rng = SmallRng::seed_from_u64(seed);
        let body = lambda::gen_closed(&mut rng, size);
        let arg = lambda::gen_closed(&mut rng, size / 2 + 1);
        // Build (λx. body') where body' = body with a free x spliced in:
        // simplest adequate check: subst into `app x body`.
        let open = lambda::LTerm::app(lambda::LTerm::var("x"), body.clone());
        let native = lambda::subst_native(&open, "x", &arg);
        let encoded_lam = lambda::encode(&lambda::LTerm::lam("x", open)).unwrap();
        let encoded_arg = lambda::encode(&arg).unwrap();
        let via_hoas = lambda::subst_hoas(&encoded_lam, &encoded_arg).unwrap();
        prop_assert_eq!(via_hoas, lambda::encode(&native).unwrap());
    }

    fn exotic_lambda_terms_rejected(seed in seeds()) {
        // `lam` applied to things that are not λ-abstractions must not
        // decode. (We build ill-formed-but-plausible terms by hand.)
        let mut rng = SmallRng::seed_from_u64(seed);
        let inner = lambda::encode(&lambda::gen_closed(&mut rng, 6)).unwrap();
        // lam (app inner inner): scope is not a λ — exotic.
        let exotic = Term::app(
            Term::cnst("lam"),
            Term::apps(Term::cnst("app"), [inner.clone(), inner]),
        );
        prop_assert!(lambda::decode(&exotic).is_err());
    }
}

#[test]
fn miniml_roundtrip_on_program_corpus() {
    // Mini-ML has no random generator (well-typedness is nontrivial);
    // sweep a corpus of structured programs instead.
    let corpus = vec![
        miniml::add_fn(),
        miniml::mul_fn(),
        miniml::fact_fn(),
        miniml::Exp::app(
            miniml::Exp::app(miniml::add_fn(), miniml::Exp::num(7)),
            miniml::Exp::num(8),
        ),
        miniml::Exp::case(
            miniml::Exp::num(3),
            miniml::Exp::Z,
            "n",
            miniml::Exp::let_(
                "m",
                miniml::Exp::var("n"),
                miniml::Exp::s(miniml::Exp::var("m")),
            ),
        ),
        miniml::Exp::fix(
            "f",
            miniml::Exp::lam(
                "x",
                miniml::Exp::app(miniml::Exp::var("f"), miniml::Exp::var("x")),
            ),
        ),
    ];
    for p in corpus {
        let e = miniml::encode(&p).unwrap();
        typeck::check_closed(miniml::signature(), &e, &miniml::exp()).unwrap();
        assert!(miniml::decode(&e).unwrap().alpha_eq(&p));
        let c = normalize::canon_closed(miniml::signature(), &e, &miniml::exp()).unwrap();
        assert_eq!(c, e, "encodings are canonical");
    }
}

#[test]
fn exotic_terms_rejected_across_languages() {
    // A quantifier over a constant function built by η-trickery is fine,
    // but a quantifier over a non-λ neutral is exotic everywhere.
    let bad_fol = Term::app(Term::cnst("forall"), Term::cnst("p"));
    assert!(fol::decode(&bad_fol).is_err());
    let bad_local = Term::apps(
        Term::cnst("local"),
        [
            Term::app(Term::cnst("lit"), Term::Int(0)),
            Term::cnst("skip"),
        ],
    );
    assert!(imp::decode(&bad_local).is_err());
    let bad_fix = Term::app(Term::cnst("fix"), Term::cnst("z"));
    assert!(miniml::decode(&bad_fix).is_err());
    // Dangling de Bruijn indices are exotic too.
    assert!(lambda::decode(&Term::Var(0)).is_err());
    assert!(fol::decode(&Term::Var(3)).is_err());

    // What the production tables check for every language: a term of the
    // wrong sort at an argument, an integer at a sort position (and, in
    // `imp`, the only language with an `int` position, the reverse), a
    // non-λ at each binding position, and the wrong number of arguments.
    let c = |name: &str| Term::cnst(name);
    let app = |f: &str, args: Vec<Term>| Term::apps(c(f), args);
    let lit = |n| app("lit", vec![Term::Int(n)]);
    let id = || Term::lam("x", Term::Var(0));
    let lambda_cases = [
        app("app", vec![app("lam", vec![id()]), c("z")]), // unknown constant
        app("app", vec![Term::Int(3), app("lam", vec![id()])]),
        app("lam", vec![app("lam", vec![id()])]),
        app("app", vec![app("lam", vec![id()])]),
        app("lam", vec![id(), id()]),
    ];
    for t in &lambda_cases {
        assert!(lambda::decode(t).is_err(), "lambda accepted {t}");
    }
    let p = |args: Vec<Term>| app("p", args);
    let fol_cases = [
        p(vec![app("and", vec![c("r"), c("r")])]), // a formula as an individual
        app("forall", vec![Term::lam("x", Term::Var(0))]), // an individual as a formula
        p(vec![Term::Int(3)]),
        app("not", vec![Term::Int(3)]),
        app("forall", vec![c("r")]),
        app("exists", vec![app("not", vec![c("r")])]),
        app("and", vec![c("r")]),
        app("not", vec![c("r"), c("r")]),
    ];
    for t in &fol_cases {
        assert!(fol::decode(t).is_err(), "fol accepted {t}");
    }
    let imp_cases = [
        app("print", vec![c("skip")]),
        app("seq", vec![lit(1), c("skip")]),
        app("print", vec![Term::Int(3)]),
        app("lit", vec![lit(1)]),
        app("local", vec![lit(0), app("print", vec![lit(0)])]),
        app("seq", vec![c("skip")]),
        app("skip", vec![c("skip")]),
    ];
    for t in &imp_cases {
        assert!(imp::decode(t).is_err(), "imp accepted {t}");
    }
    let miniml_cases = [
        app("s", vec![c("skip")]),
        app("s", vec![Term::Int(3)]),
        app("case", vec![c("z"), c("z"), c("z")]),
        app("lam", vec![c("z")]),
        app("letv", vec![c("z"), c("z")]),
        app("fix", vec![app("s", vec![c("z")])]),
        app("s", vec![c("z"), c("z")]),
        app("case", vec![c("z"), c("z")]),
    ];
    for t in &miniml_cases {
        assert!(miniml::decode(t).is_err(), "miniml accepted {t}");
    }
}

#[test]
fn grammar_signatures_print_as_the_hand_written_ones() {
    // Each language's signature is compiled from grammar text; it must
    // print exactly as the hand-written declarations it replaced, which
    // is the text consumers (the end-to-end benchmark among them) parse.
    let hand_written = [
        (
            lambda::signature().to_string(),
            "type tm.
             const lam : (tm -> tm) -> tm.
             const app : tm -> tm -> tm.",
        ),
        (
            fol::Vocabulary::small().signature().to_string(),
            "type i.
             type o.
             const and : o -> o -> o.
             const or : o -> o -> o.
             const imp : o -> o -> o.
             const not : o -> o.
             const forall : (i -> o) -> o.
             const exists : (i -> o) -> o.
             const a : i.
             const b : i.
             const f : i -> i.
             const g : i -> i -> i.
             const p : i -> o.
             const q : i -> i -> o.
             const r : o.",
        ),
        (
            miniml::signature().to_string(),
            "type exp.
             const z : exp.
             const s : exp -> exp.
             const case : exp -> exp -> (exp -> exp) -> exp.
             const lam : (exp -> exp) -> exp.
             const app : exp -> exp -> exp.
             const letv : exp -> (exp -> exp) -> exp.
             const fix : (exp -> exp) -> exp.",
        ),
        (
            imp::signature().to_string(),
            "type loc.
             type aexp.
             type bexp.
             type cmd.
             const lit : int -> aexp.
             const deref : loc -> aexp.
             const add : aexp -> aexp -> aexp.
             const sub : aexp -> aexp -> aexp.
             const mul : aexp -> aexp -> aexp.
             const le : aexp -> aexp -> bexp.
             const eqb : aexp -> aexp -> bexp.
             const notb : bexp -> bexp.
             const andb : bexp -> bexp -> bexp.
             const skip : cmd.
             const assign : loc -> aexp -> cmd.
             const seq : cmd -> cmd -> cmd.
             const ifc : bexp -> cmd -> cmd -> cmd.
             const while : bexp -> cmd -> cmd.
             const print : aexp -> cmd.
             const local : aexp -> (loc -> cmd) -> cmd.",
        ),
    ];
    for (compiled, text) in hand_written {
        assert_eq!(compiled, Signature::parse(text).unwrap().to_string());
    }
}

#[test]
fn syntax_facility_bridge_agrees_with_the_lambda_codec() {
    use hoas::syntaxdef::{self, Arg, LanguageDef};
    let def = LanguageDef::new("lc")
        .sort("tm")
        .prod("lam", "tm", [Arg::binding("tm", "tm")])
        .prod("app", "tm", [Arg::sort("tm"), Arg::sort("tm")]);
    let mut rng = SmallRng::seed_from_u64(21);
    for _ in 0..50 {
        let term = lambda::gen_closed(&mut rng, 40);
        let via_bridge = syntaxdef::encode(&def, "tm", &lambda::to_tree(&term)).unwrap();
        let via_lambda = lambda::encode(&term).unwrap();
        assert_eq!(via_bridge, via_lambda);
        let back = syntaxdef::decode(&def, "tm", &via_lambda).unwrap();
        assert_eq!(back, lambda::to_tree(&lambda::decode(&via_lambda).unwrap()));
    }
}
