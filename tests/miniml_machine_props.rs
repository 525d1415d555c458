//! Properties of the Mini-ML environment machine (`miniml::eval_hoas`,
//! experiment E8) against the substitution evaluator it replaced
//! (`miniml::eval_beta`): on generated closed programs that check at
//! `exp` the two return the same term, the same error variant and leave
//! the same fuel. On ill-typed and exotic terms the machine returns a
//! value or an error and never panics, and it evaluates deep programs on
//! a 2 MiB stack.
//!
//! Programs are built as terms, not through `miniml::encode`, so that
//! they can hold η-short abstraction arguments (`lam s`, `lam (app e)`).

use hoas::core::prelude::*;
use hoas::langs::miniml;
use hoas::langs::LangError;
use hoas_testkit::prelude::*;
use std::mem::Discriminant;

fn k(name: &str) -> Term {
    Term::cnst(name)
}

fn s(e: Term) -> Term {
    Term::app(k("s"), e)
}

fn lam(abs: Term) -> Term {
    Term::app(k("lam"), abs)
}

fn app(f: Term, a: Term) -> Term {
    Term::apps(k("app"), [f, a])
}

fn letv(e: Term, abs: Term) -> Term {
    Term::apps(k("letv"), [e, abs])
}

fn fix(abs: Term) -> Term {
    Term::app(k("fix"), abs)
}

fn case(e: Term, zero: Term, succ: Term) -> Term {
    Term::apps(k("case"), [e, zero, succ])
}

fn num(n: u64) -> Term {
    (0..n).fold(k("z"), |t, _| s(t))
}

/// Closed library programs: arithmetic, returned closures and divergent
/// `fix`es, each inserted whole.
fn library(rng: &mut impl Rng) -> Term {
    let identity = lam(Term::lam("x", Term::Var(0)));
    match rng.gen_range(0..9u32) {
        0 => miniml::encode(&miniml::add_fn()).unwrap(),
        1 => miniml::encode(&miniml::mul_fn()).unwrap(),
        2 => num(rng.gen_range(0..4u64)),
        3 => identity,
        4 => s(identity),
        // fix x. x, fix s and fix f. fn x => f x: all diverge.
        5 => fix(Term::lam("x", Term::Var(0))),
        6 => fix(k("s")),
        7 => fix(Term::lam(
            "f",
            lam(Term::lam("x", app(Term::Var(1), Term::Var(0)))),
        )),
        _ => lam(k("s")),
    }
}

/// A terminating recursive function applied to generated arguments, so
/// that `fix`-bound variables are looked up and fuel runs out at every
/// depth of the recursion: `add a b`, `mul a b`, or `count a` with
/// `count = fix f. fn y => case y of z => z | s p => f p`.
fn recursion(rng: &mut impl Rng, depth: u32, ctx: u32) -> Term {
    let a = gen_exp(rng, depth, ctx);
    match rng.gen_range(0..3u32) {
        0 => app(
            app(miniml::encode(&miniml::add_fn()).unwrap(), a),
            gen_exp(rng, depth, ctx),
        ),
        1 => app(
            app(miniml::encode(&miniml::mul_fn()).unwrap(), a),
            gen_exp(rng, depth, ctx),
        ),
        _ => {
            let step = Term::lam("p", app(Term::Var(2), Term::Var(0)));
            let count = fix(Term::lam(
                "f",
                lam(Term::lam("y", case(Term::Var(0), k("z"), step))),
            ));
            app(count, a)
        }
    }
}

/// An abstraction argument (type `exp -> exp`) over `ctx` variables:
/// usually a λ, sometimes the η-short `s` or `app e`.
fn gen_abs(rng: &mut impl Rng, depth: u32, ctx: u32) -> Term {
    match rng.gen_range(0..8u32) {
        0 => k("s"),
        1 => Term::app(k("app"), gen_exp(rng, depth, ctx)),
        _ => Term::lam("x", gen_exp(rng, depth, ctx + 1)),
    }
}

/// A canonical program of type `exp` over `ctx` variables of type `exp`.
fn gen_exp(rng: &mut impl Rng, depth: u32, ctx: u32) -> Term {
    let d = depth.saturating_sub(1);
    match rng.gen_range(0..if depth == 0 { 3 } else { 12u32 }) {
        0 if ctx > 0 => Term::Var(rng.gen_range(0..ctx)),
        0 | 1 => k("z"),
        2 => library(rng),
        11 => recursion(rng, d, ctx),
        3 => s(gen_exp(rng, d, ctx)),
        4 => lam(gen_abs(rng, d, ctx)),
        5 | 6 => app(gen_exp(rng, d, ctx), gen_exp(rng, d, ctx)),
        7 => letv(gen_exp(rng, d, ctx), gen_abs(rng, d, ctx)),
        8 => fix(gen_abs(rng, d, ctx)),
        _ => case(
            gen_exp(rng, d, ctx),
            gen_exp(rng, d, ctx),
            gen_abs(rng, d, ctx),
        ),
    }
}

/// A fuel budget: often small enough to run out mid-evaluation.
fn gen_fuel(rng: &mut impl Rng) -> u64 {
    match rng.gen_range(0..3u32) {
        0 => rng.gen_range(0..8u64),
        1 => rng.gen_range(0..64u64),
        _ => rng.gen_range(0..2_000u64),
    }
}

/// What an evaluation observably returned: the value, or the error's
/// variant (messages print terms, whose binder hints depend on what the
/// store holds), and the fuel left.
fn outcome(r: Result<Term, LangError>, fuel: u64) -> (Result<Term, Discriminant<LangError>>, u64) {
    (r.map_err(|e| std::mem::discriminant(&e)), fuel)
}

/// A term the type checker would reject, built from the Mini-ML
/// constants at any arity, open variables, metavariables, integers,
/// pairs, projections and β-redexes.
fn gen_exotic(rng: &mut impl Rng, depth: u32, ctx: u32) -> Term {
    let d = depth.saturating_sub(1);
    let pick = rng.gen_range(0..if depth == 0 { 6 } else { 12u32 });
    match pick {
        0 => Term::Var(rng.gen_range(0..ctx + 3)),
        1 => k(["z", "s", "lam", "app", "letv", "fix", "case", "q"][rng.gen_range(0..8usize)]),
        2 => Term::Meta(MVar::new(rng.gen_range(0..4u32), "M")),
        3 => Term::Int(rng.gen_range(-3..3i64)),
        4 => Term::Unit,
        5 => library(rng),
        6..=8 => Term::app(gen_exotic(rng, d, ctx), gen_exotic(rng, d, ctx)),
        9 => Term::lam("x", gen_exotic(rng, d, ctx + 1)),
        10 => Term::pair(gen_exotic(rng, d, ctx), gen_exotic(rng, d, ctx)),
        _ => match rng.gen_range(0..2u32) {
            0 => Term::fst(gen_exotic(rng, d, ctx)),
            _ => Term::snd(gen_exotic(rng, d, ctx)),
        },
    }
}

props! {
    #![cases(256)]

    fn machine_agrees_with_the_beta_evaluator(seed in seeds(), depth in 1u32..7) {
        // The reference recurses on the host stack once per nested `s`, so
        // the case runs on a wide stack: the whole case, as terms stay on
        // the thread whose store interned them.
        hoas_testkit::with_stack(64, || -> Result<(), String> {
            let mut rng = SmallRng::seed_from_u64(seed);
            let prog = gen_exp(&mut rng, depth, 0);
            typeck::check_closed(miniml::signature(), &prog, &miniml::exp())
                .map_err(|e| format!("generated an ill-typed program: {e}"))?;
            let fuel = gen_fuel(&mut rng);
            let (mut beta_fuel, mut machine_fuel) = (fuel, fuel);
            let beta = miniml::eval_beta(&prog, &mut beta_fuel);
            let machine = miniml::eval_hoas(&prog, &mut machine_fuel);
            prop_assert_eq!(outcome(machine, machine_fuel), outcome(beta, beta_fuel));
            Ok(())
        })?;
    }

    fn machine_never_panics_on_exotic_terms(seed in seeds(), depth in 0u32..6) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let t = gen_exotic(&mut rng, depth, 0);
        let mut fuel = gen_fuel(&mut rng);
        let before = fuel;
        // A value or a typed error; either way no more fuel than it had.
        let _ = miniml::eval_hoas(&t, &mut fuel);
        prop_assert!(fuel <= before);
    }
}

/// The generator reaches every case the property is meant to cover.
#[test]
fn generator_covers_the_interesting_cases() {
    let mut rng = SmallRng::seed_from_u64(7);
    let (mut out_of_fuel, mut stuck, mut closures, mut succ_closures, mut eta) = (0, 0, 0, 0, 0);
    for _ in 0..2_000 {
        let depth = rng.gen_range(1..7u32);
        let prog = gen_exp(&mut rng, depth, 0);
        let mut fuel = gen_fuel(&mut rng);
        match miniml::eval_hoas(&prog, &mut fuel) {
            Err(LangError::OutOfFuel) => out_of_fuel += 1,
            Err(_) => stuck += 1,
            Ok(v) => match v.spine() {
                (Term::Const(c), args) if c.as_str() == "lam" => {
                    closures += 1;
                    if !matches!(args[0], Term::Lam(..)) {
                        eta += 1;
                    }
                }
                (Term::Const(c), args)
                    if c.as_str() == "s"
                        && miniml::decode(args[0]).is_ok_and(|e| e.as_num().is_none()) =>
                {
                    succ_closures += 1;
                }
                _ => {}
            },
        }
    }
    for (what, n) in [
        ("out of fuel", out_of_fuel),
        ("stuck", stuck),
        ("closures", closures),
        ("s over a closure", succ_closures),
        ("η-short closures", eta),
    ] {
        assert!(n >= 20, "only {n} of 2000 programs: {what}");
    }
}

#[test]
fn eta_short_abstractions_apply_as_their_expansions() {
    let cases = [
        // (lam s) 2 ⇒ 3
        (app(lam(k("s")), num(2)), num(3)),
        // (lam (app (lam s))) z ⇒ 1
        (app(lam(Term::app(k("app"), lam(k("s")))), k("z")), num(1)),
        // let x = 1 in s x, with the η-short `s` as the body
        (letv(num(1), k("s")), num(2)),
        // case 2 of z => z | s p => app (lam s) p ⇒ 2
        (
            case(num(2), k("z"), Term::app(k("app"), lam(k("s")))),
            num(2),
        ),
    ];
    for (prog, want) in cases {
        let mut fuel = 100;
        let mut beta_fuel = 100;
        assert_eq!(miniml::eval_hoas(&prog, &mut fuel).unwrap(), want);
        assert_eq!(miniml::eval_beta(&prog, &mut beta_fuel).unwrap(), want);
        assert_eq!(fuel, beta_fuel, "{prog}");
    }
}

#[test]
fn returned_closures_read_back_with_their_environment() {
    // let x = 2 in let f = fix f. fn y => case y of z => x | s p => f p in
    // fn u => app f u — a closure over a value and a recursive binding.
    let body = lam(Term::lam("u", app(Term::Var(1), Term::Var(0))));
    let rec = fix(Term::lam(
        "f",
        lam(Term::lam(
            "y",
            case(
                Term::Var(0),
                Term::Var(2),
                Term::lam("p", app(Term::Var(2), Term::Var(0))),
            ),
        )),
    ));
    let prog = letv(num(2), Term::lam("x", letv(rec, Term::lam("f", body))));
    let (mut fuel, mut beta_fuel) = (100, 100);
    let v = miniml::eval_hoas(&prog, &mut fuel).unwrap();
    assert_eq!(v, miniml::eval_beta(&prog, &mut beta_fuel).unwrap());
    assert_eq!(fuel, beta_fuel);
    assert!(v.is_locally_closed());
    // Applying the read-back closure runs the captured recursion.
    let mut fuel = 100;
    assert_eq!(
        miniml::eval_hoas(&app(v, num(3)), &mut fuel).unwrap(),
        num(2)
    );
}

/// Deep programs run on the heap: on a 2 MiB stack the machine evaluates
/// `s^(10⁵) z`, 10⁵ nested `letv`s, 10⁴ nested `letv`s of closures and
/// 10⁴-deep chains of identity applications, and drops the environments
/// they build.
#[test]
fn deep_programs_evaluate_on_a_2mib_stack() {
    hoas_testkit::with_stack(2, || {
        let eval = |t: &Term| {
            let mut fuel = 1_000_000;
            miniml::eval_hoas(t, &mut fuel).unwrap()
        };
        let deep = num(100_000);
        assert_eq!(eval(&deep), deep);

        // let x₁ = z in let x₂ = s x₁ in … in x₁₀₀₀₀₀: its environment
        // is 10⁵ bindings long when it drops.
        let mut lets = Term::Var(0);
        for _ in 1..100_000 {
            lets = letv(s(Term::Var(0)), Term::lam("x", lets));
        }
        let lets = letv(k("z"), Term::lam("x", lets));
        assert_eq!(eval(&lets), num(99_999));

        // The same with each x bound to a closure over the previous one.
        let n = 10_000;
        let mut closures = app(Term::Var(0), k("z"));
        for _ in 1..n {
            let wrap = lam(Term::lam("y", app(Term::Var(1), Term::Var(0))));
            closures = letv(wrap, Term::lam("f", closures));
        }
        let closures = letv(lam(Term::lam("y", Term::Var(0))), Term::lam("f", closures));
        assert_eq!(eval(&closures), k("z"));

        // id (id (… (id z))) and ((… (id id) …) id) z.
        let id = || lam(Term::lam("x", Term::Var(0)));
        let mut args = k("z");
        let mut funs = id();
        for _ in 0..n {
            args = app(id(), args);
            funs = app(funs, id());
        }
        assert_eq!(eval(&args), k("z"));
        assert_eq!(eval(&app(funs, k("z"))), k("z"));
    });
}
