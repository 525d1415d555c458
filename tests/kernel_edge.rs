//! Deterministic unit tests for kernel edge cases that random generation
//! rarely hits: η-long canonical forms at product and unit type,
//! capture-avoiding substitution under nested binders, and the identity /
//! composition laws of the explicit-substitution calculus.

use hoas::core::prelude::*;
use hoas::core::store::StoreHandle;
use hoas::core::sub::Sub;

fn sig() -> Signature {
    Signature::parse(
        "type b.
         const c : b.
         const f : b -> b.
         const g : (b -> b) -> b.
         const h : b * b -> b.
         const u : unit -> b.",
    )
    .unwrap()
}

// ------------------------------------------- η-long canonical forms --

#[test]
fn eta_long_at_unit_type_is_the_unit_value() {
    let s = sig();
    // λx:unit. x is β-normal but not η-long: at type unit everything is ().
    let ty = parse_ty("unit -> unit").unwrap();
    let t = Term::lam("x", Term::Var(0));
    let c = normalize::canon_closed(&s, &t, &ty).unwrap();
    assert_eq!(c, Term::lam("x", Term::Unit));
    assert!(normalize::is_canonical(
        &s,
        &MetaEnv::new(),
        &Ctx::new(),
        &c,
        &ty
    ));
    // A constant applied at unit argument type: the argument canonicalizes
    // to () too.
    let app_ty = Ty::base("b");
    let t2 = Term::app(Term::cnst("u"), Term::Unit);
    let c2 = normalize::canon_closed(&s, &t2, &app_ty).unwrap();
    assert_eq!(c2, t2);
}

#[test]
fn eta_long_at_product_type_is_a_pair_of_projections() {
    let s = sig();
    // λp. p at b*b -> b*b η-expands the body to ⟨fst p, snd p⟩.
    let ty = parse_ty("b * b -> b * b").unwrap();
    let t = Term::lam("p", Term::Var(0));
    let c = normalize::canon_closed(&s, &t, &ty).unwrap();
    assert_eq!(
        c,
        Term::lam(
            "p",
            Term::pair(Term::fst(Term::Var(0)), Term::snd(Term::Var(0)))
        )
    );
    assert!(normalize::is_canonical(
        &s,
        &MetaEnv::new(),
        &Ctx::new(),
        &c,
        &ty
    ));
    // Canonicalization is idempotent on the expanded form.
    assert_eq!(normalize::canon_closed(&s, &c, &ty).unwrap(), c);
}

#[test]
fn eta_long_under_nested_products_and_arrows() {
    let s = sig();
    // A function argument position: h takes a pair, g takes a function;
    // λq. h q must η-expand q to a pair, and λk. g k must η-expand k to
    // λx. k x.
    let pair_ty = parse_ty("b * b -> b").unwrap();
    let cp = normalize::canon_closed(
        &s,
        &Term::lam("q", Term::app(Term::cnst("h"), Term::Var(0))),
        &pair_ty,
    )
    .unwrap();
    assert_eq!(
        cp,
        Term::lam(
            "q",
            Term::app(
                Term::cnst("h"),
                Term::pair(Term::fst(Term::Var(0)), Term::snd(Term::Var(0)))
            )
        )
    );
    let fun_ty = parse_ty("(b -> b) -> b").unwrap();
    let cf = normalize::canon_closed(
        &s,
        &Term::lam("k", Term::app(Term::cnst("g"), Term::Var(0))),
        &fun_ty,
    )
    .unwrap();
    assert_eq!(
        cf,
        Term::lam(
            "k",
            Term::app(
                Term::cnst("g"),
                Term::lam("x", Term::app(Term::Var(1), Term::Var(0)))
            )
        )
    );
    // η-contraction undoes exactly the function expansion…
    let contracted = normalize::eta_contract(&cf);
    // …and re-canonicalization restores it.
    assert_eq!(
        normalize::canon_closed(&s, &contracted, &fun_ty).unwrap(),
        cf
    );
}

// --------------------------- capture avoidance under nested binders --

#[test]
fn instantiate_shifts_open_arguments_under_binders() {
    // body = λy. x₁ y  (de Bruijn: λ. (Var 1) (Var 0)); instantiating the
    // *outer* variable with the free Var(0) must shift it to Var(1)
    // inside the binder — a naive textual substitution would capture it.
    let body = Term::lam("y", Term::app(Term::Var(1), Term::Var(0)));
    let arg = Term::Var(0);
    let got = subst::instantiate(&body, &arg);
    assert_eq!(got, Term::lam("y", Term::app(Term::Var(1), Term::Var(0))));
    // Two binders deep: λy. λz. x₂ is instantiated to λy. λz. (arg + 2).
    let body2 = Term::lam("y", Term::lam("z", Term::Var(2)));
    let got2 = subst::instantiate(&body2, &arg);
    assert_eq!(got2, Term::lam("y", Term::lam("z", Term::Var(2))));
}

#[test]
fn instantiate_with_closed_argument_under_nested_binders() {
    // β-reducing (λx. λy. λz. x) c keeps c closed at every depth.
    let c = Term::app(Term::cnst("f"), Term::cnst("c"));
    let body = Term::lam("y", Term::lam("z", Term::Var(2)));
    let got = subst::instantiate(&body, &c);
    assert_eq!(got, Term::lam("y", Term::lam("z", c.clone())));
    // And an argument that itself binds: no renaming or index slippage.
    let lam_arg = Term::lam("w", Term::app(Term::cnst("f"), Term::Var(0)));
    let got2 = subst::instantiate(&body, &lam_arg);
    assert_eq!(got2, Term::lam("y", Term::lam("z", lam_arg.clone())));
}

#[test]
fn hoas_beta_is_capture_avoiding_by_construction() {
    // The paper's point, as a kernel fact: applying λx. λy. x to the open
    // term Var(0) (an ambient "y") yields λy. Var(1) — the ambient
    // variable is *not* captured by the inner binder.
    let two = Term::lam("x", Term::lam("y", Term::Var(1)));
    let Term::Lam(_, body) = &two else {
        unreachable!()
    };
    let r = subst::instantiate(body, &Term::Var(0));
    assert_eq!(r, Term::lam("y", Term::Var(1)));
    assert_ne!(r, Term::lam("y", Term::Var(0)), "capture would give λy. y");
}

// ------------------------------- substitution calculus (sub.rs) laws --

#[test]
fn sub_identity_laws() {
    let s = sig();
    let subject = Term::lam(
        "x",
        Term::apps(
            Term::cnst("h"),
            [Term::pair(
                Term::Var(0),
                Term::app(Term::cnst("f"), Term::Var(1)),
            )],
        ),
    );
    let _ = &s;
    // id is a left and right unit for composition, and acts trivially.
    let id = Sub::id();
    assert!(id.is_empty());
    assert_eq!(id.apply(&subject), subject);
    let some = Sub::cons(Term::cnst("c"), &Sub::weaken(1));
    assert_eq!(id.compose(&some), some);
    assert_eq!(some.compose(&id), some);
    // lift(id) = id observationally.
    assert_eq!(Sub::id().lift().apply(&subject), subject);
}

#[test]
fn sub_composition_is_associative_on_subjects() {
    let a = Sub::cons(Term::cnst("c"), &Sub::weaken(2));
    let b = Sub::cons(Term::app(Term::cnst("f"), Term::Var(0)), &Sub::weaken(1));
    let c = Sub::cons(Term::Var(3), &Sub::id());
    let subject = Term::apps(Term::cnst("h"), [Term::pair(Term::Var(0), Term::Var(2))]);
    // (a ∘ b) ∘ c and a ∘ (b ∘ c) agree as substitutions.
    let left = a.compose(&b).compose(&c);
    let right = a.compose(&b.compose(&c));
    assert_eq!(left, right);
    // And composition means "apply in sequence".
    assert_eq!(left.apply(&subject), a.apply(&b.apply(&c.apply(&subject))));
}

#[test]
fn weaken_composes_additively() {
    let subject = Term::app(Term::Var(0), Term::Var(3));
    let ab = Sub::weaken(2).compose(&Sub::weaken(3));
    assert_eq!(ab, Sub::weaken(5));
    assert_eq!(ab.apply(&subject), Term::app(Term::Var(5), Term::Var(8)));
    // single(t) ∘ ↑1 cancels observationally: weakening first, then
    // substituting for the (now unused) Var(0) maps every Var(i) to
    // itself.
    let t = Term::cnst("c");
    let cancel = Sub::single(t).compose(&Sub::weaken(1));
    assert_eq!(cancel.apply(&subject), subject);
}

#[test]
fn beta_is_cons_on_id() {
    // β-contraction of (λx. x c x) f·c is exactly single(arg).
    let arg = Term::app(Term::cnst("f"), Term::cnst("c"));
    let body = Term::apps(Term::Var(0), [Term::cnst("c"), Term::Var(0)]);
    assert_eq!(
        Sub::single(arg.clone()).apply(&body),
        subst::instantiate(&body, &arg)
    );
}

// ------------------------------------------------- deep and wide input --

/// Runs `f` on a thread with a 2 MiB stack, the default for spawned
/// threads. Overflowing it would abort the whole test binary, so a
/// returned value is the assertion that the layer under test does not
/// recurse on the host stack per level of nesting. Terms are confined to
/// the thread whose store interned them, so `f` builds its own and
/// returns plain data; the thread's store, with every deep term in it,
/// is dropped on that stack too when the thread exits.
fn on_2mib_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(f)
        .unwrap()
        .join()
        .expect("the thread returned instead of aborting")
}

/// `lam (\x. lam (\x. … x))`, `n` λs deep, as source text.
fn nested_lam_src(n: usize) -> String {
    format!("{}x{}", r"lam (\x. ".repeat(n), ")".repeat(n))
}

/// The term `nested_lam_src(n)` denotes, built without the parser.
fn nested_lam(n: usize) -> Term {
    (0..n).fold(Term::Var(0), |t, _| {
        Term::app(Term::cnst("lam"), Term::lam("x", t))
    })
}

#[test]
fn deep_terms_parse_and_check_on_a_2mib_stack() {
    use hoas::langs::lambda;
    for n in [10_000, 100_000] {
        let src = nested_lam_src(n);
        let (parsed, checked) = on_2mib_stack(move || {
            let sig = lambda::signature();
            let parsed = parse_term(sig, &src).map(|p| p.term == nested_lam(n));
            let checked = typeck::check_closed(sig, &nested_lam(n), &Ty::base("tm"));
            (parsed, checked)
        });
        assert_eq!(parsed, Ok(true), "parse at n = {n}");
        assert_eq!(checked, Ok(()), "check at n = {n}");
    }
    // The first error is the one the recursive formulation reports: the
    // first argument's innermost variable, n binders deep, is unbound
    // (index n), and the later argument names an undeclared constant.
    let n = 10_000;
    let err = on_2mib_stack(move || {
        let dangling = (0..n).fold(Term::Var(n as u32), |t, _| {
            Term::app(Term::cnst("lam"), Term::lam("x", t))
        });
        let bad = Term::apps(Term::cnst("app"), [dangling, Term::cnst("undeclared")]);
        typeck::check_closed(lambda::signature(), &bad, &Ty::base("tm"))
    });
    assert_eq!(err, Err(Error::UnboundVar { index: n as u32 }));
}

#[test]
fn canonicity_of_a_million_deep_term_is_decided_on_a_2mib_stack() {
    // `f (f (… c))`, a million applications deep, is canonical; the same
    // spine around `g f`, whose argument is a neutral at arrow type, is
    // η-short. Each term is built in a store of its own, which dies once
    // the term is decided.
    let decide = |innermost: fn() -> Term| {
        on_2mib_stack(move || {
            StoreHandle::isolated().enter(|| {
                let t = (0..1_000_000).fold(innermost(), |t, _| Term::app(Term::cnst("f"), t));
                let b = Ty::base("b");
                normalize::is_canonical(&sig(), &MetaEnv::new(), &Ctx::new(), &t, &b)
            })
        })
    };
    assert!(decide(|| Term::cnst("c")), "the η-long term is canonical");
    assert!(
        !decide(|| Term::app(Term::cnst("g"), Term::cnst("f"))),
        "an η-short neutral deep inside is not"
    );
}

#[test]
fn deep_types_are_a_typed_error_not_an_abort() {
    let limit = hoas::core::MAX_TY_NESTING as usize;
    let parens = |n: usize| format!("{}b{}", "(".repeat(n), ")".repeat(n));
    // `(b -> (b -> … b))` costs two levels per arrow.
    let arrows = |n: usize| format!("{}b{}", "(b -> ".repeat(n), ")".repeat(n));
    let cases = [
        (parens(limit), true),
        (parens(limit + 1), false),
        (arrows(limit / 2), true),
        (arrows(limit / 2 + 1), false),
        (parens(10_000), false),
        (parens(100_000), false),
        (format!("{}b", "b -> ".repeat(100_000)), false),
    ];
    for (src, ok) in cases {
        let (ty, sig) = on_2mib_stack(move || {
            let ty = parse_ty(&src).map(|_| ());
            let sig = Signature::parse(&format!("type b. const k : {src}.")).map(|_| ());
            (ty, sig)
        });
        for r in [ty, sig] {
            match r {
                Ok(()) => assert!(ok),
                Err(Error::Parse { msg, .. }) => {
                    assert!(!ok);
                    assert!(msg.contains("type nested deeper than"), "{msg}");
                }
                Err(other) => panic!("expected a parse error, got {other}"),
            }
        }
    }
}

#[test]
fn long_spines_parse_and_check_on_a_2mib_stack() {
    // An application spine is parsed and checked in loops.
    let width = 100_000;
    let mut sig = Signature::parse("type b. const c : b.").unwrap();
    let b = Ty::base("b");
    sig.declare_const("k", Ty::arrows(vec![b.clone(); 3], b.clone()))
        .unwrap();
    sig.declare_const("f", Ty::arrow(b.clone(), b.clone()))
        .unwrap();
    // `f (f (… (k c c c)))`, nested through arguments rather than binders.
    let src = format!("{}k c c c{}", "f (".repeat(width), ")".repeat(width));
    on_2mib_stack(move || {
        let t = parse_term(&sig, &src)?.term;
        typeck::check_closed(&sig, &t, &b)
    })
    .unwrap();
}

#[test]
fn a_deep_term_outliving_its_store_drops_on_a_2mib_stack() {
    // The store dies first, so the term holds the last reference to every
    // node of the chain: dropping it must not recurse once per level.
    on_2mib_stack(|| {
        let t = StoreHandle::isolated().enter(|| nested_lam(DEEP));
        drop(t);
    });
}

#[test]
fn printing_deeply_nested_same_hint_binders_is_linear() {
    // λx. λx. … x, 2000 binders that all hint `x`: the printer freshens
    // each against all the others. Printing recurses once per binder, so
    // it runs on a roomy stack; the bound under test is time.
    const N: usize = 2_000;
    let (printed, elapsed) = std::thread::Builder::new()
        .stack_size(256 << 20)
        .spawn(|| {
            let t = (0..N).fold(Term::Var(0), |t, _| Term::lam("x", t));
            let start = std::time::Instant::now();
            let printed = t.to_string();
            (printed, start.elapsed())
        })
        .unwrap()
        .join()
        .unwrap();
    assert!(printed.starts_with(r"\x. \x1. \x2. "), "{}", &printed[..40]);
    assert!(printed.ends_with(r"\x1999. x1999"));
    assert!(elapsed < std::time::Duration::from_secs(1), "{elapsed:?}");
}

// ------------------------------------------------ deep object codecs --

/// Builds a term, decodes it and encodes the result on a 2 MiB thread,
/// asserts the round trip, and returns the AST. The ASTs' own `Drop`
/// recurses, so callers drop them on a wide stack.
fn deep_roundtrip<A: Send + 'static>(
    build: fn() -> Term,
    decode: fn(&Term) -> Result<A, hoas::langs::LangError>,
    encode: fn(&A) -> Result<Term, hoas::langs::LangError>,
) -> A {
    let (ast, round_trips) = on_2mib_stack(move || {
        let term = build();
        let ast = decode(&term).expect("decodes");
        let back = encode(&ast).expect("encodes");
        (ast, back == term)
    });
    assert!(round_trips, "encode(decode(t)) == t");
    ast
}

fn drop_wide<A: Send>(ast: A) {
    hoas_testkit::with_stack(256, move || drop(ast));
}

const DEEP: usize = 100_000;

#[test]
fn deep_lambda_and_miniml_encodings_round_trip_on_a_2mib_stack() {
    use hoas::langs::lambda::{self, LTerm};
    use hoas::langs::miniml;
    let ast = deep_roundtrip(|| nested_lam(DEEP), lambda::decode, lambda::encode);
    let (mut t, mut depth) = (&ast, 0);
    while let LTerm::Lam(_, body) = t {
        (t, depth) = (body, depth + 1);
    }
    assert_eq!(depth, DEEP);
    drop_wide(ast);

    let numeral = || (0..DEEP).fold(Term::cnst("z"), |t, _| Term::app(Term::cnst("s"), t));
    let ast = deep_roundtrip(numeral, miniml::decode, miniml::encode);
    assert_eq!(ast.as_num(), Some(DEEP as u64));
    drop_wide(ast);
}

#[test]
fn deep_fol_and_imp_encodings_round_trip_on_a_2mib_stack() {
    use hoas::langs::fol::{self, Formula};
    use hoas::langs::imp::{self, Cmd};
    // ∀x. ¬∀x. ¬ … p(x), alternating quantifiers and negations.
    let formula = || {
        let atom = Term::app(Term::cnst("p"), Term::Var(0));
        (0..DEEP / 2).fold(atom, |t, _| {
            let not = Term::app(Term::cnst("not"), t);
            Term::app(Term::cnst("forall"), Term::lam("x", not))
        })
    };
    let ast = deep_roundtrip(formula, fol::decode, fol::encode);
    let (mut f, mut depth) = (&ast, 0);
    while let Formula::Forall(_, body) | Formula::Not(body) = f {
        (f, depth) = (body, depth + 1);
    }
    assert!(matches!(f, Formula::Pred(p, _) if p == "p"));
    assert_eq!(depth, DEEP);
    drop_wide(ast);

    // local x := 0 in { x := 1; local x := 0 in { … skip } }.
    let program = || {
        let lit = |n| Term::app(Term::cnst("lit"), Term::Int(n));
        (0..DEEP / 2).fold(Term::cnst("skip"), |c, _| {
            let assign = Term::apps(Term::cnst("assign"), [Term::Var(0), lit(1)]);
            let seq = Term::apps(Term::cnst("seq"), [assign, c]);
            Term::apps(Term::cnst("local"), [lit(0), Term::lam("x", seq)])
        })
    };
    let ast = deep_roundtrip(program, imp::decode, imp::encode);
    let (mut c, mut depth) = (&ast, 0);
    loop {
        c = match c {
            Cmd::Local(_, _, body) => body,
            Cmd::Seq(_, rest) => rest,
            _ => break,
        };
        depth += 1;
    }
    assert_eq!((c, depth), (&Cmd::Skip, DEEP));
    drop_wide(ast);
}

#[test]
fn deep_syntax_facility_trees_round_trip_on_a_2mib_stack() {
    use hoas::firstorder::Tree;
    use hoas::syntaxdef::{self, parse_language_def};
    // letx (lit 1) (\x. plus x (letx (lit 1) (\x. …))).
    let (tree, round_trips) = on_2mib_stack(|| {
        let lit = |n| Term::app(Term::cnst("lit"), Term::Int(n));
        let term = (0..DEEP / 2).fold(lit(0), |e, _| {
            let plus = Term::apps(Term::cnst("plus"), [Term::Var(0), e]);
            Term::apps(Term::cnst("letx"), [lit(1), Term::lam("x", plus)])
        });
        let def = parse_language_def(
            "language arith {
               sort e;
               prod lit : int -> e;
               prod plus : e e -> e;
               prod letx : e (e) e -> e;
             }",
        )
        .unwrap();
        let tree = syntaxdef::decode(&def, "e", &term).expect("decodes");
        let back = syntaxdef::encode(&def, "e", &tree).expect("encodes");
        (tree, back == term)
    });
    assert!(round_trips, "encode(decode(t)) == t");
    let (mut t, mut depth) = (&tree, 0);
    while let Tree::Node(op, scopes) = t {
        match op.as_str() {
            "letx" | "plus" => (t, depth) = (&scopes[1].body, depth + 1),
            _ => break,
        }
    }
    assert_eq!(depth, DEEP);
    drop_wide(tree);
}

#[test]
fn decoding_same_hint_binders_freshens_in_linear_time_without_capture() {
    use hoas::langs::lambda::{self, LTerm};
    // λx. λx. … x₀, every binder hinted `x`, the body the outermost one.
    let same_hints = |n: usize| {
        (0..n).fold(Term::Var(n as u32 - 1), |t, _| {
            Term::app(Term::cnst("lam"), Term::lam("x", t))
        })
    };
    let decode_timed = |n: usize| {
        on_2mib_stack(move || {
            let term = same_hints(n);
            let start = std::time::Instant::now();
            let ast = lambda::decode(&term).expect("decodes");
            (ast, start.elapsed())
        })
    };
    let (small, small_elapsed) = decode_timed(DEEP / 10);
    let (ast, elapsed) = decode_timed(DEEP);
    let mut names = std::collections::HashSet::new();
    let mut t = &ast;
    while let LTerm::Lam(x, body) = t {
        names.insert(x.clone());
        t = body;
    }
    let body = t.clone();
    drop_wide((small, ast));
    assert_eq!(names.len(), DEEP, "every binder's name is distinct");
    assert_eq!(body, LTerm::var("x"), "the body names the outermost binder");
    // Ten times the binders: about ten times the time (caches make it
    // somewhat more), where scanning the scope per binder would take a
    // hundred times as long.
    assert!(
        elapsed < small_elapsed * 60,
        "{small_elapsed:?} → {elapsed:?}"
    );
}
