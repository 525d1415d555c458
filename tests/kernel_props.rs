//! Property tests for the metalanguage kernel: substitution laws,
//! normalization, canonical forms, and the printer/parser round trip.
//!
//! Runs on the hermetic `hoas-testkit` harness: every property executes a
//! fixed number of deterministic cases under the workspace seed (see
//! `hoas_testkit::prop::DEFAULT_SEED`); failures report a case seed
//! replayable via `HOAS_PROP_CASE=<seed>`.

use hoas::core::prelude::*;
use hoas::langs::lambda;
use hoas_testkit::gen;
use hoas_testkit::prelude::*;

/// A random simple type over the kernel's standard bases (including
/// `int`/`unit`/type variables), from a seed and a depth bound. The depth
/// rides last in each strategy tuple so shrinking reduces it first.
fn random_ty(seed: u64, depth: u32) -> Ty {
    gen::ty(&mut SmallRng::seed_from_u64(seed), depth)
}

/// Well-typed closed terms of type `tm`, via the λ-calculus generator.
fn well_typed_term(seed: u64, size: usize) -> Term {
    let mut rng = SmallRng::seed_from_u64(seed);
    lambda::encode(&lambda::gen_closed(&mut rng, size)).unwrap()
}

props! {
    #![cases(128)]

    fn ty_display_parse_roundtrip(seed in seeds(), depth in 0u32..5) {
        let ty = random_ty(seed, depth);
        let printed = ty.to_string();
        let reparsed = parse_ty(&printed).unwrap();
        prop_assert_eq!(reparsed, ty);
    }

    fn ty_subst_deep_is_idempotent_on_ground(seed in seeds(), depth in 0u32..5) {
        let ty = random_ty(seed, depth);
        let map: std::collections::HashMap<u32, Ty> =
            [(0, Ty::Int), (1, Ty::Unit), (2, Ty::base("tm"))].into_iter().collect();
        let once = ty.subst_deep(&map);
        prop_assert!(once.is_ground());
        prop_assert_eq!(once.subst_deep(&map), once.clone());
        // Generalize/instantiate round-trips the ground structure.
        let sch = TyScheme::generalize(&once);
        prop_assert_eq!(sch.arity(), 0);
        prop_assert_eq!(sch.body(), &once);
    }

    fn shift_then_unshift_is_identity(seed in seeds(), size in 2usize..40, d in 0u32..5) {
        let t = well_typed_term(seed, size);
        let shifted = subst::shift(&t, d);
        prop_assert_eq!(subst::unshift_above(&shifted, d, 0), t);
    }

    fn shift_composes(seed in seeds(), size in 2usize..40, a in 0u32..4, b in 0u32..4) {
        let t = well_typed_term(seed, size);
        prop_assert_eq!(
            subst::shift(&subst::shift(&t, a), b),
            subst::shift(&t, a + b)
        );
    }

    fn nf_is_idempotent(seed in seeds(), size in 2usize..35) {
        // Well-typed closed encodings normalize, and nf is idempotent.
        let t = well_typed_term(seed, size);
        let n1 = normalize::nf(&t);
        prop_assert!(n1.is_beta_normal());
        prop_assert_eq!(normalize::nf(&n1), n1);
    }

    fn hereditary_apply_agrees_with_subst_then_nf(seed in seeds(), size in 2usize..30) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let body_src = lambda::gen_closed(&mut rng, size);
        let arg_src = lambda::gen_closed(&mut rng, size / 2 + 1);
        let f = Term::lam("x", {
            // Make the binder actually occur: apply x to the encoding.
            let b = lambda::encode(&body_src).unwrap();
            Term::apps(Term::cnst("app"), [Term::Var(0), subst::shift(&b, 1)])
        });
        let a = lambda::encode(&arg_src).unwrap();
        let hereditary = normalize::happly(f.clone(), a.clone());
        let naive = normalize::nf(&subst::instantiate(
            match &f { Term::Lam(_, b) => b, _ => unreachable!() },
            &a,
        ));
        prop_assert_eq!(hereditary, naive);
    }

    fn canon_is_idempotent_and_checked(seed in seeds(), size in 2usize..30) {
        let sig = lambda::signature();
        let t = well_typed_term(seed, size);
        let c1 = normalize::canon_closed(sig, &t, &lambda::tm()).unwrap();
        let c2 = normalize::canon_closed(sig, &c1, &lambda::tm()).unwrap();
        prop_assert_eq!(&c1, &c2);
        prop_assert!(normalize::is_canonical(
            sig, &MetaEnv::new(), &Ctx::new(), &c1, &lambda::tm()
        ));
        typeck::check_closed(sig, &c1, &lambda::tm()).unwrap();
    }

    fn printer_parser_roundtrip_on_terms(seed in seeds(), size in 2usize..40) {
        let sig = lambda::signature();
        let t = well_typed_term(seed, size);
        let printed = t.to_string();
        let reparsed = parse_term(sig, &printed).unwrap().term;
        prop_assert_eq!(reparsed, t, "printed as {}", printed);
    }

    fn eta_contract_preserves_beta_eta_class(seed in seeds(), size in 2usize..25) {
        let sig = lambda::signature();
        let t = well_typed_term(seed, size);
        let c = normalize::canon_closed(sig, &t, &lambda::tm()).unwrap();
        let contracted = normalize::eta_contract(&c);
        // Contracting and re-canonicalizing gets back to the same
        // canonical form.
        let again = normalize::canon_closed(sig, &contracted, &lambda::tm()).unwrap();
        prop_assert_eq!(again, c);
    }

    fn reconstruction_agrees_with_checking(seed in seeds(), size in 2usize..35) {
        let sig = lambda::signature();
        let t = well_typed_term(seed, size);
        let ty = infer::reconstruct(sig, &t).unwrap();
        prop_assert_eq!(&ty, &lambda::tm());
        typeck::check_closed(sig, &t, &ty).unwrap();
    }

    fn fueled_nf_agrees_with_nf(seed in seeds(), size in 2usize..30) {
        let t = well_typed_term(seed, size);
        // Closed well-typed encodings of type tm have no redexes at all,
        // so make one: ((λy. y) t).
        let redex = Term::app(Term::lam("y", Term::Var(0)), t);
        let a = normalize::nf(&redex);
        let b = normalize::nf_fuel(&redex, 1_000_000).unwrap();
        prop_assert_eq!(a, b);
    }
}

/// A random simultaneous substitution built from closed encodings plus
/// identity-like entries (exercising both the entry and tail paths).
fn random_sub(seed: u64) -> hoas::core::sub::Sub {
    use hoas::core::sub::Sub;
    let mut rng = SmallRng::seed_from_u64(seed);
    let n = rng.gen_range(0..4);
    let entries: Vec<Term> = (0..n)
        .map(|i| {
            if rng.gen_bool(0.3) {
                Term::Var(rng.gen_range(0..4))
            } else {
                let _ = i;
                lambda::encode(&lambda::gen_closed(&mut rng, 6)).unwrap()
            }
        })
        .collect();
    let mut s = Sub::weaken(rng.gen_range(0..3));
    for e in entries.into_iter().rev() {
        s = Sub::cons(e, &s);
    }
    s
}

props! {
    #![cases(128)]

    fn sub_composition_law(sa in seeds(), sb in seeds(), st in seeds(), size in 2usize..25) {
        let a = random_sub(sa);
        let b = random_sub(sb);
        // An open-ish subject: a closed encoding applied to free variables.
        let mut rng = SmallRng::seed_from_u64(st);
        let closed = lambda::encode(&lambda::gen_closed(&mut rng, size)).unwrap();
        let t = Term::apps(
            Term::cnst("app"),
            [closed, Term::Var(2)],
        );
        prop_assert_eq!(
            a.compose(&b).apply(&t),
            a.apply(&b.apply(&t)),
            "a = {}, b = {}", a, b
        );
    }

    fn sub_single_agrees_with_instantiate(seed in seeds(), size in 2usize..25) {
        use hoas::core::sub::Sub;
        let mut rng = SmallRng::seed_from_u64(seed);
        let arg = lambda::encode(&lambda::gen_closed(&mut rng, size / 2 + 2)).unwrap();
        // A body using Var(0) and deeper vars.
        let body = Term::lam("y", Term::apps(Term::cnst("app"), [Term::Var(1), Term::Var(0)]));
        prop_assert_eq!(
            Sub::single(arg.clone()).apply(&body),
            subst::instantiate(&body, &arg)
        );
    }

    fn sub_lift_commutes_with_binder(sa in seeds(), st in seeds(), size in 2usize..20) {
        let s = random_sub(sa);
        let mut rng = SmallRng::seed_from_u64(st);
        let closed = lambda::encode(&lambda::gen_closed(&mut rng, size)).unwrap();
        let body = Term::apps(Term::cnst("app"), [closed, Term::Var(1)]);
        prop_assert_eq!(
            s.apply(&Term::lam("x", body.clone())),
            Term::lam("x", s.lift().apply(&body))
        );
    }

    // ------------------------- failure injection -------------------------

    fn parser_never_panics_on_garbage(src in ascii_string(80)) {
        let sig = lambda::signature();
        // Any outcome is fine; panicking is not.
        let _ = parse_term(sig, &src);
        let _ = parse_ty(&src);
        let _ = Signature::parse(&src);
    }

    fn parser_never_panics_on_structured_soup(
        toks in token_soup(
            &[
                "lam", "app", "(", ")", "\\",
                ".", "x", "?M", ",", "->",
                "fst", "snd", "123", "-", ":",
            ],
            24,
        ),
    ) {
        let sig = lambda::signature();
        let src = toks.join(" ");
        let _ = parse_term(sig, &src);
        let _ = parse_ty(&src);
    }

    fn parser_never_panics_on_unicode_soup(
        chars in token_soup(
            &[
                "λ", "→", "é", "𝔸", "\u{301}", "x", "_", "'", "?", "-",
                ">", "%", "/", "\\", ".", "(", ")", ",", ":", "*",
                "7", " ", "\n", "lam", "app",
            ],
            40,
        ),
    ) {
        // Multi-byte characters next to every kind of token: a lexer
        // that slices the source off a character boundary panics here.
        let sig = lambda::signature();
        let src = chars.concat();
        let results = [
            parse_term(sig, &src).err(),
            parse_ty(&src).err(),
            Signature::parse(&src).err(),
        ];
        // Error positions count characters and stay inside the source.
        for err in results.into_iter().flatten() {
            if let Error::Parse { line, col, .. } = err {
                let chars_on_line = src.split('\n').nth(line as usize).map(|l| l.chars().count());
                prop_assert!(
                    chars_on_line.is_some_and(|n| col as usize <= n),
                    "{line}:{col} outside {src:?}"
                );
            }
        }
    }

    fn decoder_never_panics_on_arbitrary_wellformed_terms(seed in seeds(), size in 2usize..25) {
        // Feed λ-calculus encodings to the *wrong* decoders: must error,
        // not panic.
        let t = well_typed_term(seed, size);
        let _ = hoas::langs::fol::decode(&t);
        let _ = hoas::langs::imp::decode(&t);
        let _ = hoas::langs::miniml::decode(&t);
    }
}
