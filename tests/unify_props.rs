//! Property tests for the unification stack (experiment E6's correctness
//! side): soundness of pattern unification and Huet pre-unification,
//! agreement between the two engines on the pattern fragment, independence
//! of the unifier from the input's βη-form, the node-sharing contract of
//! metavariable substitutions, the Miller-pattern instantiation fast
//! paths against the graft-then-normalize reference, and rigid
//! projection constraints.

use hoas::core::prelude::*;
use hoas::core::store;
use hoas::langs::fol;
use hoas::unify::huet::{pre_unify_terms, HuetConfig};
use hoas::unify::matching::{match_pattern, match_term, MatchConfig};
use hoas::unify::{pattern, MetaSubst, UnifyError};
use hoas_testkit::prelude::*;

fn vocab() -> fol::Vocabulary {
    fol::Vocabulary::small()
}

/// Generates a ground formula encoding.
fn ground(seed: u64, depth: u32) -> Term {
    let v = vocab();
    let mut rng = SmallRng::seed_from_u64(seed);
    fol::encode(&fol::gen_formula(&v, &mut rng, depth)).unwrap()
}

/// Punches pattern-style holes into a ground term: replaces random
/// subformulas by fresh 0-ary metavariables. Returns the pattern and its
/// metavariable environment.
fn punch_holes(t: &Term, rng: &mut SmallRng, menv: &mut MetaEnv, next: &mut u32) -> Term {
    // `t` is a whole formula (type o). Either replace it by a hole, or
    // recurse into formula-typed argument positions (and/or/imp/not).
    // Quantifier bodies are left alone here — binder-crossing holes are
    // covered by the dedicated unit tests.
    if rng.gen_bool(0.25) {
        let m = MVar::new(*next, format!("H{next}"));
        *next += 1;
        menv.insert(m.clone(), Ty::base("o"));
        return Term::Meta(m);
    }
    let (head, args) = t.spine();
    match head {
        Term::Const(c) if matches!(c.as_str(), "and" | "or" | "imp" | "not") => Term::apps(
            head.clone(),
            args.iter()
                .map(|a| punch_holes(a, rng, menv, next))
                .collect::<Vec<_>>(),
        ),
        _ => t.clone(),
    }
}

/// A βη-variant of `t` that is not canonical: random λ-abstractions
/// η-contracted (`forall (λx. p x)` becomes `forall p`) and random
/// subterms wrapped in a vacuous β-redex `(λy. t) a`.
fn denormalize(t: &Term, rng: &mut SmallRng) -> Term {
    let t = match t {
        Term::Lam(h, b) => Term::lam(h.clone(), denormalize(b, rng)),
        Term::App(f, a) => Term::app(denormalize(f, rng), denormalize(a, rng)),
        _ => t.clone(),
    };
    let t = if rng.gen_bool(0.5) {
        normalize::eta_contract(&t)
    } else {
        t
    };
    if rng.gen_bool(0.3) {
        Term::app(Term::lam("y", subst::shift(&t, 1)), Term::cnst("a"))
    } else {
        t
    }
}

/// Whether two terms share their immediate subterm nodes by pointer (for
/// leaves: are equal).
fn same_nodes(a: &Term, b: &Term) -> bool {
    match (a, b) {
        (Term::Lam(_, x), Term::Lam(_, y))
        | (Term::Fst(x), Term::Fst(y))
        | (Term::Snd(x), Term::Snd(y)) => TermRef::ptr_eq(x, y),
        (Term::App(f, x), Term::App(g, y)) | (Term::Pair(f, x), Term::Pair(g, y)) => {
            TermRef::ptr_eq(f, g) && TermRef::ptr_eq(x, y)
        }
        _ => a == b,
    }
}

/// Signature for the spine and projection cases: first-order terms over
/// `i`, a binder `all`, and constants of product result type.
fn spine_sig() -> Signature {
    Signature::parse(
        "type i. type o.
         const a : i. const b : i. const f : i -> i.
         const p : i -> o. const q : i -> i -> o. const r : o.
         const and : o -> o -> o.
         const all : (i -> o) -> o.
         const g : i -> i * o.
         const k : i -> (i * o) * i.",
    )
    .unwrap()
}

/// A random term of type `i` over `scope` variables of type `i`.
fn gen_i(rng: &mut SmallRng, scope: u32, depth: u32) -> Term {
    match rng.gen_range(0..4u32) {
        0 if depth > 0 => Term::app(Term::cnst("f"), gen_i(rng, scope, depth - 1)),
        1 | 2 if scope > 0 => Term::Var(rng.gen_range(0..scope)),
        3 => Term::cnst("b"),
        _ => Term::cnst("a"),
    }
}

/// A random canonical formula over `scope` variables of type `i`, with
/// inner `all` binders.
fn gen_o(rng: &mut SmallRng, scope: u32, depth: u32) -> Term {
    match rng.gen_range(0..5u32) {
        0 if depth > 0 => Term::apps(
            Term::cnst("and"),
            [gen_o(rng, scope, depth - 1), gen_o(rng, scope, depth - 1)],
        ),
        1 if depth > 0 => Term::app(
            Term::cnst("all"),
            Term::lam("z", gen_o(rng, scope + 1, depth - 1)),
        ),
        2 => Term::app(Term::cnst("p"), gen_i(rng, scope, 2)),
        3 => Term::apps(
            Term::cnst("q"),
            [gen_i(rng, scope, 1), gen_i(rng, scope, 1)],
        ),
        _ => Term::cnst("r"),
    }
}

/// `all (λx₁. … all (λxₙ. body))`.
fn under_alls(n: u32, body: Term) -> Term {
    (0..n).fold(body, |acc, j| {
        Term::app(Term::cnst("all"), Term::lam(format!("x{}", n - j), acc))
    })
}

/// `?m a₀ … aₖ`.
fn spine(m: &MVar, args: impl IntoIterator<Item = u32>) -> Term {
    Term::apps(Term::Meta(m.clone()), args.into_iter().map(Term::Var))
}

/// The reference instantiation: graft each solution, shifted by the
/// binder depth of its occurrence, then β-normalize the whole term.
fn graft_then_nf(s: &MetaSubst, t: &Term) -> Term {
    fn graft(s: &MetaSubst, t: &Term, depth: u32) -> Term {
        match t {
            Term::Meta(m) => s
                .get(m)
                .map_or_else(|| t.clone(), |sol| subst::shift(sol, depth)),
            Term::Lam(h, b) => Term::lam(h.clone(), graft(s, b, depth + 1)),
            Term::App(f, a) => Term::app(graft(s, f, depth), graft(s, a, depth)),
            Term::Pair(a, b) => Term::pair(graft(s, a, depth), graft(s, b, depth)),
            Term::Fst(p) => Term::fst(graft(s, p, depth)),
            Term::Snd(p) => Term::snd(graft(s, p, depth)),
            Term::Var(_) | Term::Const(_) | Term::Int(_) | Term::Unit => t.clone(),
        }
    }
    normalize::nf(&graft(s, t, 0))
}

/// A Miller pattern `and (all (λx₁. … all (λxₖ. ?Q x̄)) ?P` with a spine
/// drawn from identity, permuted and partial shapes, its metavariable
/// environment, its binder count `k`, and the spine's arity.
fn miller_pattern(rng: &mut SmallRng, q: &MVar, pm: &MVar) -> (Term, MetaEnv, u32, u32) {
    let binders = rng.gen_range(1..4u32);
    let args: Vec<u32> = match rng.gen_range(0..4u32) {
        // Identity: `?Q x` under one binder, `?Q x y` under two, ….
        0 | 1 => (0..binders).rev().collect(),
        // Permuted: `?Q y x`.
        2 => (0..binders).collect(),
        // Partial: `?Q x` under two binders (the innermost only), or none.
        _ => (0..rng.gen_range(0..binders)).rev().collect(),
    };
    let n = args.len() as u32;
    let qty = (0..n).fold(Ty::base("o"), |acc, _| Ty::arrow(Ty::base("i"), acc));
    let pat = Term::apps(
        Term::cnst("and"),
        [under_alls(binders, spine(q, args)), Term::Meta(pm.clone())],
    );
    let menv: MetaEnv = [(q.clone(), qty), (pm.clone(), Ty::base("o"))]
        .into_iter()
        .collect();
    (pat, menv, binders, n)
}

/// A right-hand side mentioning `?Q` (arity `n`) at several spine shapes
/// and depths, and `?P` under binders.
fn rhs_for(rng: &mut SmallRng, q: &MVar, pm: &MVar, n: u32, ambient: u32) -> Term {
    let extra = rng.gen_range(0..3u32);
    let depth = extra + n;
    let args: Vec<Term> = match rng.gen_range(0..4u32) {
        // The n innermost binders in order (renaming, depth ≥ n).
        0 | 1 => (0..n).rev().map(Term::Var).collect(),
        // Reversed.
        2 => (0..n).map(Term::Var).collect(),
        // Arbitrary arguments, ambient variables included.
        _ => (0..n).map(|_| gen_i(rng, depth + ambient, 1)).collect(),
    };
    let body = Term::apps(
        Term::cnst("and"),
        [
            Term::apps(Term::Meta(q.clone()), args),
            Term::Meta(pm.clone()),
        ],
    );
    under_alls(depth, body)
}

props! {
    #![cases(64)]

    fn miller_instantiation_agrees_with_graft_then_nf(
        seed in seeds(), ambient in 0u32..4
    ) {
        // `match_pattern` + `MetaSubst::apply` (inversion by renaming,
        // ground solutions, renaming spines) against `match_term`'s
        // general route and the graft-then-`nf` reference, at ambient
        // depths 0–3.
        let sig = spine_sig();
        let mut rng = SmallRng::seed_from_u64(seed);
        let (q, pm) = (MVar::new(0, "Q"), MVar::new(1, "P"));
        let (pat, menv, binders, n) = miller_pattern(&mut rng, &q, &pm);
        // The spine names the n innermost binders (partial spines) or all
        // of them: half the bodies avoid the binders it omits, so they
        // match; the other half range over every binder, where a partial
        // spine often fails the vacuous-binder condition.
        let body = if rng.gen_bool(0.5) {
            subst::shift_above(&gen_o(&mut rng, n + ambient, 2), binders - n, n)
        } else {
            gen_o(&mut rng, binders + ambient, 2)
        };
        let target = Term::apps(
            Term::cnst("and"),
            [under_alls(binders, body), gen_o(&mut rng, ambient, 2)],
        );
        let ctx: Ctx = (0..ambient).map(|j| (Sym::new(format!("w{j}")), Ty::base("i"))).collect();
        let fast = match_pattern(&pat, &target).unwrap();
        let general = match_term(
            &sig, &menv, &ctx, &Ty::base("o"), &pat, &target, &MatchConfig::default(),
        ).unwrap();
        prop_assert_eq!(fast.is_some(), general.is_some(), "{} ≐ {}", pat, target);
        let (Some(fast), Some(general)) = (fast, general) else { return Ok(()) };
        for m in [&q, &pm] {
            prop_assert_eq!(fast.get(m), general.get(m), "solution of {}", m);
        }
        prop_assert_eq!(fast.apply(&pat), target.clone());
        for _ in 0..4 {
            let rhs = rhs_for(&mut rng, &q, &pm, n, ambient);
            let want = graft_then_nf(&fast, &rhs);
            prop_assert_eq!(fast.apply(&rhs), want.clone(), "instance of {}", rhs);
            prop_assert_eq!(general.apply(&rhs), want);
        }
    }

    fn non_canonical_inputs_have_the_canonical_mgu(
        seed in seeds(), hole_seed in seeds(), depth in 2u32..5
    ) {
        // Two hole-punched copies of one formula (flex-rigid and flex-flex
        // pairs), unified once canonical and once after η-contraction and
        // β-expansion of both sides: the unifier canonicalizes its inputs,
        // so the MGU must be the same, binding for binding.
        let sig = vocab().signature();
        let target = ground(seed, depth);
        let mut rng = SmallRng::seed_from_u64(hole_seed);
        let mut menv = MetaEnv::new();
        let mut next = 0;
        let left = punch_holes(&target, &mut rng, &mut menv, &mut next);
        let right = punch_holes(&target, &mut rng, &mut menv, &mut next);
        let canonical = pattern::unify(&sig, &menv, &fol::o(), &left, &right).unwrap();
        let (l2, r2) = (denormalize(&left, &mut rng), denormalize(&right, &mut rng));
        let sloppy = pattern::unify(&sig, &menv, &fol::o(), &l2, &r2).unwrap();
        prop_assert_eq!(canonical.subst.len(), sloppy.subst.len());
        for (m, t) in canonical.subst.iter() {
            prop_assert_eq!(Some(t), sloppy.subst.get(m), "binding of {} differs", m);
        }
        let sol = pattern::unify(&sig, &menv, &fol::o(), &l2, &target).unwrap();
        prop_assert_eq!(sol.subst.apply(&left), target);
    }

    fn apply_outside_its_domain_is_the_identity(
        seed in seeds(), hole_seed in seeds(), depth in 2u32..5
    ) {
        // A substitution none of whose variables occurs in the term hands
        // the term back as the same node, without a single store lookup.
        let target = ground(seed, depth);
        let mut rng = SmallRng::seed_from_u64(hole_seed);
        let mut menv = MetaEnv::new();
        let mut next = 0;
        let pat = punch_holes(&target, &mut rng, &mut menv, &mut next);
        let mut s = MetaSubst::new();
        for i in 0..3u32 {
            s.bind(MVar::new(1000 + i, "U"), ground(seed ^ u64::from(i), 1));
        }
        let before = store::stats();
        let out = s.apply(&pat);
        prop_assert_eq!(store::stats().since(&before).lookups, 0);
        prop_assert!(same_nodes(&out, &pat));
        prop_assert_eq!(TermRef::new(out).id(), TermRef::new(pat).id());
    }

    fn bind_leaves_unrelated_bindings_untouched(
        seed in seeds(), hole_seed in seeds(), depth in 2u32..5
    ) {
        // Binding a variable no stored solution mentions does no store
        // work on the existing bindings and keeps their nodes; binding one
        // they do mention rewrites exactly the bindings that mention it.
        let target = ground(seed, depth);
        let mut rng = SmallRng::seed_from_u64(hole_seed);
        let mut menv = MetaEnv::new();
        let mut next = 0;
        let mut s = MetaSubst::new();
        for i in 0..4u32 {
            let pat = punch_holes(&target, &mut rng, &mut menv, &mut next);
            s.bind(MVar::new(1000 + i, "U"), pat);
        }
        let old: Vec<(MVar, Term)> = s.iter().map(|(m, t)| (m.clone(), t.clone())).collect();
        let solution = ground(seed, 1);
        let before = store::stats();
        s.bind(MVar::new(2000, "V"), solution);
        prop_assert_eq!(store::stats().since(&before).lookups, 0);
        for (m, t) in &old {
            prop_assert!(same_nodes(t, s.get(m).unwrap()), "binding of {} was rebuilt", m);
        }
        if next > 0 {
            let hole = MVar::new(0, "H0");
            s.bind(hole.clone(), target.clone());
            for (m, t) in &old {
                let now = s.get(m).unwrap();
                prop_assert!(!now.metas().contains(&hole));
                if !t.metas().contains(&hole) {
                    prop_assert!(same_nodes(t, now), "binding of {} was rebuilt", m);
                }
            }
        }
    }

    fn ground_unification_is_syntactic_equality(seed in seeds(), depth in 1u32..5) {
        let sig = vocab().signature();
        let t = ground(seed, depth);
        // t ≐ t succeeds with the empty substitution…
        let sol = pattern::unify(&sig, &MetaEnv::new(), &fol::o(), &t, &t).unwrap();
        prop_assert!(sol.subst.is_empty());
        // …and t ≐ (not t) fails as a refutation.
        let not_t = Term::app(Term::cnst("not"), t.clone());
        let err = pattern::unify(&sig, &MetaEnv::new(), &fol::o(), &t, &not_t).unwrap_err();
        let refuted = err.is_refutation()
            || matches!(err, hoas::unify::UnifyError::Escape { .. });
        prop_assert!(refuted);
    }

    fn pattern_solutions_equalize(seed in seeds(), hole_seed in seeds(), depth in 2u32..5) {
        let sig = vocab().signature();
        let target = ground(seed, depth);
        let mut rng = SmallRng::seed_from_u64(hole_seed);
        let mut menv = MetaEnv::new();
        let mut next = 0;
        let pat = punch_holes(&target, &mut rng, &mut menv, &mut next);
        let sol = pattern::unify(&sig, &menv, &fol::o(), &pat, &target)
            .expect("a hole-punched pattern always matches its origin");
        let applied = sol.subst.apply(&pat);
        prop_assert_eq!(applied, target);
    }

    fn matching_agrees_with_unification_on_ground_targets(
        seed in seeds(), hole_seed in seeds(), depth in 2u32..5
    ) {
        let sig = vocab().signature();
        let target = ground(seed, depth);
        let mut rng = SmallRng::seed_from_u64(hole_seed);
        let mut menv = MetaEnv::new();
        let mut next = 0;
        let pat = punch_holes(&target, &mut rng, &mut menv, &mut next);
        let m = match_term(
            &sig, &menv, &Ctx::new(), &fol::o(), &pat, &target, &MatchConfig::default(),
        ).unwrap();
        prop_assert!(m.is_some());
        prop_assert_eq!(m.unwrap().apply(&pat), target);
    }

    fn huet_finds_pattern_solutions_too(seed in seeds(), hole_seed in seeds(), depth in 2u32..4) {
        let sig = vocab().signature();
        let target = ground(seed, depth);
        let mut rng = SmallRng::seed_from_u64(hole_seed);
        let mut menv = MetaEnv::new();
        let mut next = 0;
        let pat = punch_holes(&target, &mut rng, &mut menv, &mut next);
        let out = pre_unify_terms(
            &sig, &menv, &fol::o(), &pat, &target, &HuetConfig::default(),
        ).unwrap();
        prop_assert!(!out.solutions.is_empty());
        let s = &out.solutions[0];
        prop_assert!(s.flex_flex.is_empty());
        prop_assert_eq!(s.subst.apply(&pat), target);
    }

    fn unifier_solutions_are_well_typed(seed in seeds(), hole_seed in seeds(), depth in 2u32..5) {
        let sig = vocab().signature();
        let target = ground(seed, depth);
        let mut rng = SmallRng::seed_from_u64(hole_seed);
        let mut menv = MetaEnv::new();
        let mut next = 0;
        let pat = punch_holes(&target, &mut rng, &mut menv, &mut next);
        let sol = pattern::unify(&sig, &menv, &fol::o(), &pat, &target).unwrap();
        for (m, t) in sol.subst.iter() {
            let ty = sol.menv.get(m).expect("solved metas keep their types");
            typeck::check_closed(&sig, t, ty).unwrap();
        }
    }
}

/// Regression (from a historical proptest failure, shrunk to
/// `seed = 13985094489678992364, hole_seed = 13428278277032749853,
/// depth = 2`): a hole-punched pattern must unify with, match against,
/// and Huet-pre-unify with its origin, and all three solutions must
/// equalize the pair. Pinned as a deterministic unit test so the exact
/// historical instance stays covered regardless of harness streams.
#[test]
fn regression_punched_pattern_unifies_with_origin() {
    let seed = 13985094489678992364u64;
    let hole_seed = 13428278277032749853u64;
    let depth = 2u32;
    let sig = vocab().signature();
    let target = ground(seed, depth);
    let mut rng = SmallRng::seed_from_u64(hole_seed);
    let mut menv = MetaEnv::new();
    let mut next = 0;
    let pat = punch_holes(&target, &mut rng, &mut menv, &mut next);
    // Pattern unification.
    let sol = pattern::unify(&sig, &menv, &fol::o(), &pat, &target)
        .expect("a hole-punched pattern always matches its origin");
    assert_eq!(sol.subst.apply(&pat), target);
    // Matching.
    let m = match_term(
        &sig,
        &menv,
        &Ctx::new(),
        &fol::o(),
        &pat,
        &target,
        &MatchConfig::default(),
    )
    .unwrap()
    .expect("matching finds the same instantiation");
    assert_eq!(m.apply(&pat), target);
    // Huet pre-unification.
    let out = pre_unify_terms(
        &sig,
        &menv,
        &fol::o(),
        &pat,
        &target,
        &HuetConfig::default(),
    )
    .unwrap();
    let s = out
        .solutions
        .first()
        .expect("Huet finds the pattern solution");
    assert!(s.flex_flex.is_empty());
    assert_eq!(s.subst.apply(&pat), target);
}

#[test]
fn non_pattern_problem_solved_by_huet_is_sound() {
    // ?F (f a) ≐ p (f (f a)) — a genuinely non-pattern matching problem.
    let sig = vocab().signature();
    let parsed = parse_term(&sig, "?F (f a)").unwrap();
    let mut menv = MetaEnv::new();
    menv.insert(
        parsed.metas.get("F").unwrap().clone(),
        parse_ty("i -> o").unwrap(),
    );
    let target = parse_term(&sig, "p (f (f a))").unwrap().term;
    let cfg = HuetConfig {
        max_solutions: 8,
        ..HuetConfig::default()
    };
    let out = pre_unify_terms(&sig, &menv, &fol::o(), &parsed.term, &target, &cfg).unwrap();
    assert!(!out.solutions.is_empty());
    for s in &out.solutions {
        if s.flex_flex.is_empty() {
            let applied = s.subst.apply(&parsed.term);
            let got = normalize::canon_closed(&sig, &applied, &fol::o()).unwrap();
            let want = normalize::canon_closed(&sig, &target, &fol::o()).unwrap();
            assert_eq!(got, want);
        }
    }
}

#[test]
fn identity_spine_instantiation_is_the_matched_node() {
    // `?Q x̄` over the n innermost binders, instantiated at depth n, is
    // the matched body's own node: no shifting, no β-contraction, and —
    // with the n λs of the right-hand side as its only skeleton — no
    // store lookup beyond the n − 1 interior λ nodes.
    let mut rng = SmallRng::seed_from_u64(0x5eed);
    let (q, pm) = (MVar::new(0, "Q"), MVar::new(1, "P"));
    for n in 0..4u32 {
        for ambient in 0..4u32 {
            let pat = Term::apps(
                Term::cnst("and"),
                [
                    under_alls(n, spine(&q, (0..n).rev())),
                    Term::Meta(pm.clone()),
                ],
            );
            let body = TermRef::new(gen_o(&mut rng, n + ambient, 3));
            let target = Term::apps(
                Term::cnst("and"),
                [under_alls(n, body.term().clone()), Term::cnst("r")],
            );
            let s = match_pattern(&pat, &target)
                .unwrap()
                .expect("an identity spine matches any body");
            let rhs = (0..n).fold(spine(&q, (0..n).rev()), |acc, j| {
                Term::lam(format!("x{}", n - j), acc)
            });
            let before = store::stats();
            let out = s.apply(&rhs);
            let delta = store::stats().since(&before);
            assert_eq!(delta.lookups, u64::from(n.saturating_sub(1)), "n = {n}");
            let mut under = out.clone();
            for _ in 0..n {
                let Term::Lam(_, b) = under else {
                    panic!("λ skeleton")
                };
                under = b.into_term();
            }
            assert_eq!(TermRef::new(under).id(), body.id(), "n = {n}");
            if n == 1 {
                // `λx. ?Q x` instantiates to the target's own `λx. B`.
                let Term::App(_, lam) = target.spine().1[0] else {
                    panic!("`all` applied to its body")
                };
                assert_eq!(TermRef::new(out).id(), lam.id());
            }
        }
    }
}

/// Unifies `left ≐ right` at `ty` in [`spine_sig`] with the pattern
/// unifier and with a Huet search allowed only `fuel` steps.
fn unify_projections(
    left: &str,
    right: &str,
    ty: &str,
) -> (Result<pattern::PatternSolution, UnifyError>, bool) {
    let sig = spine_sig();
    let l = parse_term(&sig, left).unwrap();
    let r = hoas::core::parse::parse_term_with(&sig, right, l.metas.clone()).unwrap();
    let menv: MetaEnv = r
        .metas
        .iter()
        .map(|(_, m)| (m.clone(), Ty::base("i")))
        .collect();
    let ty = parse_ty(ty).unwrap();
    let cfg = HuetConfig {
        fuel: 16,
        ..HuetConfig::default()
    };
    let huet = pre_unify_terms(&sig, &menv, &ty, &l.term, &r.term, &cfg).unwrap();
    let huet_solved = !huet.solutions.is_empty();
    assert!(
        !huet.exhausted,
        "{left} ≐ {right} needs more than {} steps",
        cfg.fuel
    );
    (
        pattern::unify(&sig, &menv, &ty, &l.term, &r.term),
        huet_solved,
    )
}

#[test]
fn rigid_projections_decompose_through_their_spine() {
    // Each problem solves with ?X := the expected constant, within the
    // small Huet fuel (a projected neutral that is re-expanded into a
    // pair of projections would loop until the budget ran out).
    let cases = [
        ("fst (g ?X)", "fst (g a)", "i", "a"),
        ("snd (g ?X)", "snd (g a)", "o", "a"),
        ("snd (fst (k ?X))", "snd (fst (k b))", "o", "b"),
        ("fst (fst (k b))", "fst (fst (k ?X))", "i", "b"),
        ("p (fst (g ?X))", "p (fst (g a))", "o", "a"),
        ("and (snd (g ?X)) r", "and (snd (g (f a))) r", "o", "f a"),
    ];
    let sig = spine_sig();
    for (l, r, ty, want) in cases {
        let (sol, huet_solved) = unify_projections(l, r, ty);
        let sol = sol.unwrap_or_else(|e| panic!("{l} ≐ {r}: {e}"));
        let (_, x) = sol.subst.iter().next().expect("?X is solved");
        assert_eq!(x, &parse_term(&sig, want).unwrap().term, "{l} ≐ {r}");
        assert!(huet_solved, "Huet solves {l} ≐ {r}");
    }
}

#[test]
fn rigid_projection_clashes_are_refuted() {
    let cases = [
        // Head clash under the same projection.
        ("snd (g ?X)", "snd (fst (k a))", "o"),
        // Different projections of the same neutral.
        ("fst (fst (k ?X))", "snd (k a)", "i"),
        // Argument clash under the projection.
        ("snd (g (f ?X))", "snd (g a)", "o"),
        ("fst (g a)", "fst (g b)", "i"),
    ];
    for (l, r, ty) in cases {
        let (sol, huet_solved) = unify_projections(l, r, ty);
        match sol {
            Err(e) => assert!(e.is_refutation(), "{l} ≐ {r}: {e}"),
            Ok(s) => panic!("{l} ≐ {r} solved by {}", s.subst),
        }
        assert!(!huet_solved, "Huet refutes {l} ≐ {r}");
    }
}
