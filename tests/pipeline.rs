//! End-to-end pipelines spanning every crate in the workspace:
//! generate an object-language program → encode (HOAS) → transform by
//! higher-order rewriting → decode → compare semantics.

use hoas::core::prelude::*;
use hoas::langs::{fol, imp, lambda, miniml};
use hoas::rewrite::rulesets::{fol_prenex, imp_opt, miniml_opt};
use hoas::rewrite::Engine;
use hoas::syntaxdef::{Arg, LanguageDef};
use hoas_testkit::rng::SmallRng;
use std::collections::HashMap;

#[test]
fn fol_prenex_pipeline_preserves_semantics() {
    let vocab = fol::Vocabulary::small();
    let sig = vocab.signature();
    let rules = fol_prenex::rules(&sig).unwrap();
    let engine = Engine::new(&sig, &rules);
    let mut rng = SmallRng::seed_from_u64(0xF01);
    for _ in 0..40 {
        let f = fol::gen_formula(&vocab, &mut rng, 5);
        let out = engine
            .normalize(&fol::o(), &fol::encode(&f).unwrap())
            .unwrap();
        assert!(out.fixpoint);
        let g = fol::decode(&out.term).unwrap();
        assert!(g.is_prenex(), "{f} did not reach prenex form: {g}");
        for _ in 0..3 {
            let m = fol::Model::random(&vocab, 2, &mut rng);
            assert_eq!(
                m.eval(&f, &mut HashMap::new()).unwrap(),
                m.eval(&g, &mut HashMap::new()).unwrap(),
                "semantics changed: {f} vs {g}"
            );
        }
    }
}

#[test]
fn imp_optimizer_pipeline_preserves_traces_and_shrinks() {
    let sig = imp::signature();
    let rules = imp_opt::rules(sig).unwrap();
    let engine = Engine::new(sig, &rules);
    let mut rng = SmallRng::seed_from_u64(0x1347);
    let mut total_before = 0usize;
    let mut total_after = 0usize;
    for _ in 0..30 {
        let prog = imp::gen_cmd(&mut rng, 4);
        let out = engine
            .normalize(&imp::cmd_ty(), &imp::encode(&prog).unwrap())
            .unwrap();
        assert!(out.fixpoint);
        let optimized = imp::decode(&out.term).unwrap();
        total_before += prog.size();
        total_after += optimized.size();
        // Fuel-limited runs (on either side) are acceptable; compare
        // traces only when both terminate.
        if let (Ok(a), Ok(b)) = (imp::run(&prog, 50_000), imp::run(&optimized, 50_000)) {
            assert_eq!(a, b, "trace changed:\n{prog}\n->\n{optimized}");
        }
    }
    assert!(
        total_after < total_before,
        "optimizer should shrink the corpus ({total_before} -> {total_after})"
    );
}

#[test]
fn miniml_simplifier_agrees_with_both_evaluators() {
    let sig = miniml::signature();
    let rules = miniml_opt::rules(sig).unwrap();
    let engine = Engine::new(sig, &rules);
    let progs = vec![
        miniml::Exp::app(
            miniml::Exp::app(miniml::add_fn(), miniml::Exp::num(3)),
            miniml::Exp::num(4),
        ),
        miniml::Exp::let_(
            "k",
            miniml::Exp::num(2),
            miniml::Exp::case(
                miniml::Exp::var("k"),
                miniml::Exp::Z,
                "p",
                miniml::Exp::s(miniml::Exp::var("p")),
            ),
        ),
        miniml::Exp::app(miniml::fact_fn(), miniml::Exp::num(4)),
    ];
    for p in progs {
        let encoded = miniml::encode(&p).unwrap();
        let simplified = engine.normalize(&miniml::exp(), &encoded).unwrap();
        let q = miniml::decode(&simplified.term).unwrap();
        let mut f1 = 1_000_000;
        let mut f2 = 1_000_000;
        let mut f3 = 1_000_000;
        let v_native = miniml::eval_native(&p, &mut f1).unwrap();
        let v_simpl = miniml::eval_native(&q, &mut f2).unwrap();
        let v_hoas = miniml::decode(&miniml::eval_hoas(&encoded, &mut f3).unwrap()).unwrap();
        assert_eq!(v_native.as_num(), v_simpl.as_num());
        assert_eq!(v_native.as_num(), v_hoas.as_num());
    }
}

#[test]
fn syntaxdef_language_drives_the_rewrite_engine() {
    // Define a tiny arithmetic language entirely through the syntax
    // facility, generate its signature, write one rule against it, and
    // run the engine on bridge-encoded trees.
    use hoas::firstorder::Tree;
    let def = LanguageDef::new("arith")
        .sort("e")
        .prod("lit", "e", [Arg::Int])
        .prod("plus", "e", [Arg::sort("e"), Arg::sort("e")])
        .prod("letx", "e", [Arg::sort("e"), Arg::binding("e", "e")]);
    let sig = def.compile().unwrap();

    let mut rules = hoas::rewrite::RuleSet::new();
    // Dead let via vacuous binder — against a *generated* signature.
    rules
        .push(
            hoas::rewrite::Rule::parse(
                &sig,
                "dead-let",
                &parse_ty("e").unwrap(),
                &[("V", "e"), ("B", "e")],
                r"letx ?V (\x. ?B)",
                "?B",
            )
            .unwrap(),
        )
        .unwrap();
    let engine = Engine::new(&sig, &rules);

    let tree = Tree::Node(
        "letx".into(),
        vec![
            hoas::firstorder::Abs::plain(Tree::node("lit", [Tree::leaf("1")])),
            hoas::firstorder::Abs::bind(
                "x",
                Tree::node(
                    "plus",
                    [
                        Tree::node("lit", [Tree::leaf("2")]),
                        Tree::node("lit", [Tree::leaf("3")]),
                    ],
                ),
            ),
        ],
    );
    let encoded = hoas::syntaxdef::encode(&def, "e", &tree).unwrap();
    let out = engine.normalize(&parse_ty("e").unwrap(), &encoded).unwrap();
    assert_eq!(out.steps, 1);
    let back = hoas::syntaxdef::decode(&def, "e", &out.term).unwrap();
    assert_eq!(
        back,
        Tree::node(
            "plus",
            [
                Tree::node("lit", [Tree::leaf("2")]),
                Tree::node("lit", [Tree::leaf("3")])
            ]
        )
    );
}

#[test]
fn lambda_normalization_cross_checked_three_ways() {
    // Native AST reduction, HOAS-driver reduction, and the first-order
    // de Bruijn baseline all agree on random closed terms. Intermediate
    // reducts can get deep within the fuel budget, so run on a wide
    // stack.
    hoas_testkit::with_stack(256, || {
        let mut rng = SmallRng::seed_from_u64(0xABCD);
        let mut compared = 0;
        for _ in 0..60 {
            let t = lambda::gen_closed(&mut rng, 20);
            let native = lambda::normalize_native(&t, 400);
            let hoas = lambda::normalize_hoas(&t, 400);
            if let (Ok(a), Ok(b)) = (native, hoas) {
                assert!(a.alpha_eq(&b), "native {a} vs hoas {b} for {t}");
                // And the de Bruijn projections agree exactly.
                assert_eq!(
                    hoas::firstorder::convert::to_debruijn(&lambda::to_tree(&a)),
                    hoas::firstorder::convert::to_debruijn(&lambda::to_tree(&b)),
                );
                compared += 1;
            }
        }
        assert!(compared > 30, "only {compared} terms normalized in budget");
    });
}

#[test]
fn unifier_validates_rule_instances_across_languages() {
    // Every lhs of every shipped rule set matches its own rhs-instantiated
    // instances (a sanity sweep across rule sets and signatures).
    let fol_sig = fol::Vocabulary::small().signature();
    let rule_sets: Vec<(Signature, hoas::rewrite::RuleSet)> = vec![
        (fol_sig.clone(), fol_prenex::rules(&fol_sig).unwrap()),
        (
            imp::signature().clone(),
            imp_opt::rules(imp::signature()).unwrap(),
        ),
        (
            miniml::signature().clone(),
            miniml_opt::rules(miniml::signature()).unwrap(),
        ),
    ];
    let mut checked = 0;
    for (sig, rs) in &rule_sets {
        for rule in rs.rules() {
            // lhs trivially matches itself.
            let got = hoas::unify::matching::match_term(
                sig,
                rule.menv(),
                &Ctx::new(),
                rule.ty(),
                rule.lhs(),
                &strip_metas_to_consts(sig, rule.lhs(), rule.menv()),
                &hoas::unify::matching::MatchConfig::default(),
            );
            assert!(
                matches!(got, Ok(Some(_))),
                "rule {} failed to match its own ground instance: {:?}",
                rule.name(),
                got
            );
            checked += 1;
        }
    }
    assert!(checked >= 15, "expected to sweep all pattern rules");
}

/// Grounds a pattern by substituting arbitrary closed canonical terms for
/// its metavariables (λs over the first constant of the target base type,
/// if needed).
fn strip_metas_to_consts(sig: &Signature, lhs: &Term, menv: &MetaEnv) -> Term {
    let mut subst = hoas::unify::MetaSubst::new();
    for (m, ty) in menv {
        subst.bind(m.clone(), arbitrary_inhabitant(sig, ty));
    }
    let t = subst.apply(lhs);
    assert!(!t.has_metas());
    t
}

fn arbitrary_inhabitant(sig: &Signature, ty: &Ty) -> Term {
    match ty {
        Ty::Arrow(a, b) => Term::lam("x", {
            let _ = a;
            arbitrary_inhabitant(sig, b)
        }),
        Ty::Int => Term::Int(1),
        Ty::Base(name) => {
            // Pick a constructor that does not immediately recurse into
            // its own base type (e.g. avoid `notb : bexp -> bexp`),
            // preferring small arities.
            let ctor = sig
                .constructors_of(name.as_str())
                .into_iter()
                .min_by_key(|(_, sch)| {
                    let (args, _) = sch.body().uncurry();
                    let self_refs = args
                        .iter()
                        .filter(|a| matches!(a, Ty::Base(b) if b == name))
                        .count();
                    (self_refs, args.len())
                })
                .unwrap_or_else(|| panic!("no constructor for base type {name}"));
            let (args, _) = ctor.1.body().uncurry();
            let args: Vec<Ty> = args.into_iter().cloned().collect();
            Term::apps(
                Term::Const(ctor.0.clone()),
                args.iter().map(|t| arbitrary_inhabitant(sig, t)),
            )
        }
        _ => panic!("unexpected type in rule metavariable: {ty}"),
    }
}

#[test]
fn locally_nameless_joins_the_representation_square() {
    // named → locally-nameless → named round trip agrees with the
    // de Bruijn route on random λ-terms.
    use hoas::firstorder::{convert, locally};
    let mut rng = SmallRng::seed_from_u64(0x10c4);
    for _ in 0..50 {
        let t = lambda::gen_closed(&mut rng, 30);
        let named = lambda::to_tree(&t);
        let ln = locally::from_named(&named);
        assert!(ln.is_locally_closed());
        let back = locally::to_named(&ln);
        assert!(back.alpha_eq(&named));
        // The two nameless routes agree on α-classes.
        assert_eq!(
            locally::from_named(&back),
            ln,
            "locally nameless round trip changed the α-class"
        );
        assert_eq!(convert::to_debruijn(&back), convert::to_debruijn(&named));
    }
}
