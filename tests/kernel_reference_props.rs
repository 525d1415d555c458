//! The session-threaded kernel checked against an always-intern
//! reference. The kernel's traversals (`shift`, `subst`, hereditary
//! substitution, `nf`, `MetaSubst::apply`) intern through one store
//! session per call and borrow children on a cache hit. That must be
//! **observationally invisible**: each operation is compared against a
//! reference re-implementation in which every intermediate node is built
//! with the smart constructors and interned via `TermRef::new`, and the
//! results must be *id-identical* — the same [`NodeId`] out of the same
//! store, not merely α-equal. Results must also stay in the store they
//! were computed in across [`StoreHandle::enter`]: the thread's front
//! cache must never hand one store's node to another.
//!
//! The battery mirrors the shape of `engine_cache_props`: generator-driven
//! properties across all four bundled encoders (λ-calculus, FOL, IMP,
//! Mini-ML) and engine-level coverage across both strategies. Every
//! kernel result is additionally re-validated with
//! [`validate::check_term`]: the cached `max_free`/`has_meta`/`beta_normal`
//! annotations the session path computes must agree with the smart
//! constructors'.
//!
//! The read-only canonicity check, [`normalize::is_canonical`], is held
//! to its contract with `normalize::canon` on the same four signatures:
//! a pass means `canon` returns its input, and a well-typed term that
//! `canon` returns unchanged passes.
//!
//! [`NodeId`]: hoas::core::store::NodeId
//! [`StoreHandle::enter`]: hoas::core::store::StoreHandle::enter

use hoas::core::prelude::*;
use hoas::core::store::{self, NodeId};
use hoas::core::validate;
use hoas::langs::{fol, imp, lambda, miniml};
use hoas::rewrite::rulesets::{fol_cnf, fol_prenex, imp_opt, miniml_opt};
use hoas::rewrite::{Engine, EngineConfig, RuleSet, Strategy};
use hoas::unify::MetaSubst;
use hoas_testkit::gen;
use hoas_testkit::prelude::*;
use std::collections::HashSet;

const STRATEGIES: [Strategy; 2] = [Strategy::LeftmostOutermost, Strategy::LeftmostInnermost];

/// The always-intern kernel as an executable reference: every traversal
/// rebuilds with the smart constructors and interns each intermediate
/// node through [`TermRef::new`]. Same guards, same recursion
/// orders (`hsub` reduces the argument before the function, `nf` the
/// function before the argument) — only the allocation discipline differs.
mod reference {
    use hoas::core::prelude::*;

    pub fn shift_above(t: &Term, d: u32, cutoff: u32) -> Term {
        if d == 0 || t.max_free() <= cutoff {
            return t.clone();
        }
        match t {
            Term::Var(i) => Term::Var(i + d),
            Term::Lam(h, b) => Term::lam(h.clone(), shift_above_ref(b, d, cutoff + 1)),
            Term::App(f, a) => {
                Term::app(shift_above_ref(f, d, cutoff), shift_above_ref(a, d, cutoff))
            }
            Term::Pair(a, b) => {
                Term::pair(shift_above_ref(a, d, cutoff), shift_above_ref(b, d, cutoff))
            }
            Term::Fst(p) => Term::fst(shift_above_ref(p, d, cutoff)),
            Term::Snd(p) => Term::snd(shift_above_ref(p, d, cutoff)),
            Term::Const(_) | Term::Meta(_) | Term::Int(_) | Term::Unit => t.clone(),
        }
    }

    fn shift_above_ref(t: &TermRef, d: u32, cutoff: u32) -> TermRef {
        if t.max_free() <= cutoff {
            t.clone()
        } else {
            TermRef::new(shift_above(t, d, cutoff))
        }
    }

    pub fn shift(t: &Term, d: u32) -> Term {
        shift_above(t, d, 0)
    }

    pub fn unshift_above(t: &Term, d: u32, cutoff: u32) -> Term {
        if d == 0 || t.max_free() <= cutoff {
            return t.clone();
        }
        match t {
            Term::Var(i) => {
                if *i >= cutoff + d {
                    Term::Var(i - d)
                } else {
                    assert!(*i < cutoff, "reference unshift_above: dangling variable");
                    Term::Var(*i)
                }
            }
            Term::Lam(h, b) => Term::lam(h.clone(), unshift_above_ref(b, d, cutoff + 1)),
            Term::App(f, a) => Term::app(
                unshift_above_ref(f, d, cutoff),
                unshift_above_ref(a, d, cutoff),
            ),
            Term::Pair(a, b) => Term::pair(
                unshift_above_ref(a, d, cutoff),
                unshift_above_ref(b, d, cutoff),
            ),
            Term::Fst(p) => Term::fst(unshift_above_ref(p, d, cutoff)),
            Term::Snd(p) => Term::snd(unshift_above_ref(p, d, cutoff)),
            Term::Const(_) | Term::Meta(_) | Term::Int(_) | Term::Unit => t.clone(),
        }
    }

    fn unshift_above_ref(t: &TermRef, d: u32, cutoff: u32) -> TermRef {
        if t.max_free() <= cutoff {
            t.clone()
        } else {
            TermRef::new(unshift_above(t, d, cutoff))
        }
    }

    pub fn subst(t: &Term, j: u32, s: &Term) -> Term {
        fn go(t: &Term, j: u32, s: &Term, depth: u32) -> Term {
            if t.max_free() <= j + depth {
                return t.clone();
            }
            match t {
                Term::Var(i) => {
                    if *i == j + depth {
                        shift(s, depth)
                    } else {
                        Term::Var(*i)
                    }
                }
                Term::Lam(h, b) => Term::lam(h.clone(), go_ref(b, j, s, depth + 1)),
                Term::App(f, a) => Term::app(go_ref(f, j, s, depth), go_ref(a, j, s, depth)),
                Term::Pair(a, b) => Term::pair(go_ref(a, j, s, depth), go_ref(b, j, s, depth)),
                Term::Fst(p) => Term::fst(go_ref(p, j, s, depth)),
                Term::Snd(p) => Term::snd(go_ref(p, j, s, depth)),
                Term::Const(_) | Term::Meta(_) | Term::Int(_) | Term::Unit => t.clone(),
            }
        }
        fn go_ref(t: &TermRef, j: u32, s: &Term, depth: u32) -> TermRef {
            if t.max_free() <= j + depth {
                t.clone()
            } else {
                TermRef::new(go(t, j, s, depth))
            }
        }
        go(t, j, s, 0)
    }

    pub fn instantiate(body: &Term, arg: &Term) -> Term {
        fn go(t: &Term, arg: &Term, depth: u32) -> Term {
            if t.max_free() <= depth {
                return t.clone();
            }
            match t {
                Term::Var(i) => {
                    if *i == depth {
                        shift(arg, depth)
                    } else if *i > depth {
                        Term::Var(i - 1)
                    } else {
                        Term::Var(*i)
                    }
                }
                Term::Lam(h, b) => Term::lam(h.clone(), go_ref(b, arg, depth + 1)),
                Term::App(f, a) => Term::app(go_ref(f, arg, depth), go_ref(a, arg, depth)),
                Term::Pair(a, b) => Term::pair(go_ref(a, arg, depth), go_ref(b, arg, depth)),
                Term::Fst(p) => Term::fst(go_ref(p, arg, depth)),
                Term::Snd(p) => Term::snd(go_ref(p, arg, depth)),
                Term::Const(_) | Term::Meta(_) | Term::Int(_) | Term::Unit => t.clone(),
            }
        }
        fn go_ref(t: &TermRef, arg: &Term, depth: u32) -> TermRef {
            if t.max_free() <= depth {
                t.clone()
            } else {
                TermRef::new(go(t, arg, depth))
            }
        }
        go(body, arg, 0)
    }

    pub fn hinstantiate(body: &Term, arg: &Term) -> Term {
        hsub(body, 0, arg)
    }

    fn hsub(t: &Term, k: u32, s: &Term) -> Term {
        if t.max_free() <= k && t.is_beta_normal() {
            return t.clone();
        }
        match t {
            Term::Var(i) => {
                if *i == k {
                    shift(s, k)
                } else if *i > k {
                    Term::Var(i - 1)
                } else {
                    Term::Var(*i)
                }
            }
            Term::Lam(h, b) => Term::Lam(h.clone(), hsub_ref(b, k + 1, s)),
            Term::App(f, a) => {
                let a2 = hsub_ref(a, k, s);
                let f2 = hsub_ref(f, k, s);
                match f2.term() {
                    Term::Lam(_, body) => hinstantiate(body, a2.term()),
                    _ => Term::App(f2, a2),
                }
            }
            Term::Pair(a, b) => Term::Pair(hsub_ref(a, k, s), hsub_ref(b, k, s)),
            Term::Fst(p) => {
                let p2 = hsub_ref(p, k, s);
                match p2.term() {
                    Term::Pair(a, _) => a.as_ref().clone(),
                    _ => Term::Fst(p2),
                }
            }
            Term::Snd(p) => {
                let p2 = hsub_ref(p, k, s);
                match p2.term() {
                    Term::Pair(_, b) => b.as_ref().clone(),
                    _ => Term::Snd(p2),
                }
            }
            Term::Const(_) | Term::Meta(_) | Term::Int(_) | Term::Unit => t.clone(),
        }
    }

    fn hsub_ref(t: &TermRef, k: u32, s: &Term) -> TermRef {
        if t.max_free() <= k && t.is_beta_normal() {
            t.clone()
        } else {
            TermRef::new(hsub(t, k, s))
        }
    }

    pub fn nf(t: &Term) -> Term {
        if t.is_beta_normal() {
            return t.clone();
        }
        match t {
            Term::App(f, a) => match nf(f) {
                Term::Lam(_, body) => hinstantiate(&body, &nf(a)),
                g => Term::app(g, nf(a)),
            },
            Term::Lam(h, b) => Term::lam(h.clone(), nf_ref(b)),
            Term::Pair(a, b) => Term::pair(nf_ref(a), nf_ref(b)),
            Term::Fst(p) => match nf(p) {
                Term::Pair(a, _) => a.into_term(),
                q => Term::fst(q),
            },
            Term::Snd(p) => match nf(p) {
                Term::Pair(_, b) => b.into_term(),
                q => Term::snd(q),
            },
            Term::Var(_) | Term::Const(_) | Term::Meta(_) | Term::Int(_) | Term::Unit => t.clone(),
        }
    }

    fn nf_ref(t: &TermRef) -> TermRef {
        if t.is_beta_normal() {
            t.clone()
        } else {
            TermRef::new(nf(t))
        }
    }

    /// The old `MetaSubst::apply`: graft solutions (shifting by binder
    /// depth) with every intermediate interned, then β-normalize.
    pub fn apply_msubst(s: &hoas::unify::MetaSubst, t: &Term) -> Term {
        fn graft(s: &hoas::unify::MetaSubst, t: &Term, depth: u32) -> Term {
            if !t.has_metas() {
                return t.clone();
            }
            match t {
                Term::Meta(m) => match s.get(m) {
                    Some(sol) => shift(sol, depth),
                    None => t.clone(),
                },
                Term::Lam(h, b) => Term::lam(h.clone(), graft(s, b, depth + 1)),
                Term::App(f, a) => Term::app(graft(s, f, depth), graft(s, a, depth)),
                Term::Pair(a, b) => Term::pair(graft(s, a, depth), graft(s, b, depth)),
                Term::Fst(p) => Term::fst(graft(s, p, depth)),
                Term::Snd(p) => Term::snd(graft(s, p, depth)),
                Term::Var(_) | Term::Const(_) | Term::Int(_) | Term::Unit => t.clone(),
            }
        }
        nf(&graft(s, t, 0))
    }
}

/// Asserts the kernel's result is **id-identical** to the reference
/// result: interning both (the new path's output root is uninterned until
/// `TermRef::new`, exactly like the old path's) must hit the same store
/// node. Also re-validates the cached annotations on the new result.
fn assert_id_identical(new: &Term, old: &Term, what: &str) {
    validate::check_term(new).unwrap_or_else(|e| panic!("{what}: bad annotations: {e}"));
    let new_id = TermRef::new(new.clone()).id();
    let old_id = TermRef::new(old.clone()).id();
    assert_eq!(
        new_id, old_id,
        "{what}: session-threaded kernel diverged from the always-intern path"
    );
}

/// Well-typed closed λ-encodings (type `tm`), the workhorse subject.
fn closed_term(seed: u64, size: usize) -> Term {
    let mut rng = SmallRng::seed_from_u64(seed);
    lambda::encode(&lambda::gen_closed(&mut rng, size)).unwrap()
}

/// Well-typed *open* terms over the λ-signature in a context of three
/// `tm`-typed variables, so shifts and substitutions have real work to do.
fn open_term(seed: u64, depth: u32) -> Term {
    let sig = lambda::signature();
    let ctx = [lambda::tm(), lambda::tm(), lambda::tm()];
    let mut rng = SmallRng::seed_from_u64(seed);
    // The generator can fail on an unlucky budget; fall back to a small
    // open term that still mentions all three context variables.
    gen::open_term(sig, &mut rng, &ctx, &lambda::tm(), depth).unwrap_or_else(|| {
        Term::apps(
            Term::cnst("app"),
            [
                Term::Var(0),
                Term::apps(Term::cnst("app"), [Term::Var(1), Term::Var(2)]),
            ],
        )
    })
}

/// The operands of [`store_battery`], built in the current store: a body,
/// an argument, and a term holding the β-redex they form.
fn store_operands(seed: u64, depth: u32) -> [Term; 3] {
    let body = open_term(seed, depth);
    let arg = open_term(seed ^ 0x57E5, depth);
    let redex = Term::app(Term::lam("y", body.clone()), arg.clone());
    let t = Term::pair(redex, body.clone());
    [body, arg, t]
}

/// The kernel's `hinstantiate(body, arg)`, `subst(body, 0, arg)` and
/// `nf(t)`, each result interned.
fn store_battery([body, arg, t]: &[Term; 3]) -> [TermRef; 3] {
    [
        TermRef::new(normalize::hinstantiate(body, arg)),
        TermRef::new(subst::subst(body, 0, arg)),
        TermRef::new(normalize::nf(t)),
    ]
}

/// Adds the ids of every interned node below the root of `t`.
fn node_ids(t: &Term, ids: &mut HashSet<NodeId>) {
    let mut push = |c: &TermRef| {
        if ids.insert(c.id()) {
            node_ids(c, ids);
        }
    };
    match t {
        Term::Lam(_, b) | Term::Fst(b) | Term::Snd(b) => push(b),
        Term::App(a, b) | Term::Pair(a, b) => {
            push(a);
            push(b);
        }
        Term::Var(_) | Term::Const(_) | Term::Meta(_) | Term::Int(_) | Term::Unit => {}
    }
}

props! {
    #![cases(64)]

    fn shift_and_unshift_match_reference(seed in seeds(), depth in 1u32..5, d in 0u32..4, cutoff in 0u32..3) {
        let t = open_term(seed, depth);
        assert_id_identical(
            &subst::shift_above(&t, d, cutoff),
            &reference::shift_above(&t, d, cutoff),
            "shift_above",
        );
        // Unshift what shift introduced: total by construction.
        let up = subst::shift_above(&t, d, cutoff);
        assert_id_identical(
            &subst::unshift_above(&up, d, cutoff),
            &reference::unshift_above(&up, d, cutoff),
            "unshift_above",
        );
    }

    fn subst_and_instantiate_match_reference(seed in seeds(), depth in 1u32..5, j in 0u32..3) {
        let t = open_term(seed, depth);
        let s = open_term(seed ^ 0x5C72, depth);
        assert_id_identical(
            &subst::subst(&t, j, &s),
            &reference::subst(&t, j, &s),
            "subst",
        );
        assert_id_identical(
            &subst::instantiate(&t, &s),
            &reference::instantiate(&t, &s),
            "instantiate",
        );
    }

    fn hereditary_substitution_matches_reference(seed in seeds(), depth in 1u32..5) {
        let body = open_term(seed, depth);
        let arg = open_term(seed ^ 0xA11C, depth);
        assert_id_identical(
            &normalize::hinstantiate(&body, &arg),
            &reference::hinstantiate(&body, &arg),
            "hinstantiate",
        );
        // And through the public happly entry on a manufactured redex.
        let f = Term::lam("x", body.clone());
        assert_id_identical(
            &normalize::happly(f.clone(), arg.clone()),
            &reference::hinstantiate(&body, &arg),
            "happly",
        );
    }

    fn nf_matches_reference_on_redex_chains(seed in seeds(), size in 2usize..30) {
        // Closed canonical encodings have no redexes, so build some: a
        // chain of administrative β-redexes and projections around `t`.
        let t = closed_term(seed, size);
        let redex = Term::app(
            Term::lam("y", Term::fst(Term::pair(Term::Var(0), Term::Unit))),
            Term::app(Term::lam("z", Term::Var(0)), t),
        );
        assert_id_identical(&normalize::nf(&redex), &reference::nf(&redex), "nf");
        // The kernel must also agree on open, non-normal inputs.
        let open = Term::app(Term::lam("w", open_term(seed, 3)), open_term(seed ^ 0xBEEF, 2));
        assert_id_identical(&normalize::nf(&open), &reference::nf(&open), "nf (open)");
    }

    fn interleaved_operations_never_replay_each_other(seed in seeds(), depth in 1u32..5, d in 1u32..4) {
        // One (t, s) pair through every kernel operation, twice each and
        // interleaved. `subst(t, 0, s)`, `instantiate` and `hinstantiate`
        // take the same substituend at the same depth and differ only in
        // their variable action and contraction, so one operation's
        // result returned for another would show here; the second round
        // runs on a warm front cache. The top level of `t` holds a
        // β-redex, which `nf` and hereditary substitution contract and
        // the others keep.
        let redex = Term::app(Term::lam("y", open_term(seed, depth)), Term::Var(0));
        let t = Term::pair(redex, Term::Var(1));
        let s = open_term(seed ^ 0x0DD5, depth);
        for round in 0..2 {
            let what = |op: &str| format!("{op} (round {round})");
            assert_id_identical(
                &subst::instantiate(&t, &s),
                &reference::instantiate(&t, &s),
                &what("instantiate"),
            );
            assert_id_identical(
                &normalize::hinstantiate(&t, &s),
                &reference::hinstantiate(&t, &s),
                &what("hinstantiate"),
            );
            assert_id_identical(
                &subst::subst(&t, 0, &s),
                &reference::subst(&t, 0, &s),
                &what("subst"),
            );
            assert_id_identical(&subst::shift(&t, d), &reference::shift(&t, d), &what("shift"));
            assert_id_identical(&normalize::nf(&t), &reference::nf(&t), &what("nf"));
        }
    }

    fn kernel_results_stay_in_their_store(seed in seeds(), depth in 1u32..5) {
        let operands = store_operands(seed, depth);
        let first = store_battery(&operands);
        StoreHandle::isolated().enter(|| {
            // Operands rebuilt in the isolated store: every result is a
            // node of this store, so no id can match a first result.
            let rebuilt = store_operands(seed, depth);
            for (r, f) in store_battery(&rebuilt).iter().zip(&first) {
                validate::check_term(r)
                    .unwrap_or_else(|e| panic!("isolated result: bad annotations: {e}"));
                assert_ne!(r.id(), f.id(), "a default-store result leaked into an isolated store");
            }
            // The default store's operands carried in: a result node is
            // either rebuilt here or shared from an operand, never a node
            // the default store built for the first results.
            let carried = store_battery(&operands);
            let mut allowed: HashSet<NodeId> =
                store::image::snapshot().iter().map(TermRef::id).collect();
            for t in &operands {
                node_ids(t, &mut allowed);
            }
            for r in &carried {
                let mut ids = HashSet::from([r.id()]);
                node_ids(r, &mut ids);
                assert!(
                    ids.is_subset(&allowed),
                    "carried operands: a result holds a node of the default store's results"
                );
            }
        });
        for (again, f) in store_battery(&operands).iter().zip(&first) {
            assert!(
                TermRef::ptr_eq(again, f),
                "an isolated-store result leaked back into the default store"
            );
        }
    }

    fn msubst_apply_matches_reference(seed in seeds(), depth in 1u32..4) {
        // ?F applied under a binder, with a λ solution so grafting creates
        // redexes — the exact shape the engine's Miller fast path and the
        // λProlog solver feed through `MetaSubst::apply`.
        let m = MVar::new(0, "F");
        let sol = Term::lam("x", Term::apps(
            Term::cnst("app"),
            [Term::Var(0), subst::shift(&open_term(seed, depth), 1)],
        ));
        let mut s = MetaSubst::new();
        s.bind(m.clone(), sol);
        let subject = Term::lam("y", Term::app(
            subst::shift(&Term::Meta(m), 1),
            open_term(seed ^ 0xD00D, depth),
        ));
        assert_id_identical(
            &s.apply(&subject),
            &reference::apply_msubst(&s, &subject),
            "MetaSubst::apply",
        );
    }
}

// ------------------------------------------------- engine-level battery --

/// Normalizes a subject under every strategy and asserts (a) the result's
/// annotations validate — it was built by the session-threaded kernel —
/// and (b) a second engine (fresh caches) reproduces the **same interned
/// node**, so the kernel is deterministic end-to-end.
fn assert_engine_result_sound(sig: &Signature, rules: &RuleSet, ty: &Ty, subject: &Term) {
    for strategy in STRATEGIES {
        let mk = || {
            Engine::with_config(
                sig,
                rules,
                EngineConfig {
                    strategy,
                    ..EngineConfig::default()
                },
            )
        };
        let a = mk().normalize(ty, subject).unwrap();
        validate::check_term(&a.term)
            .unwrap_or_else(|e| panic!("engine result fails check_term ({strategy:?}): {e}"));
        let b = mk().normalize(ty, subject).unwrap();
        assert_eq!(
            TermRef::new(a.term.clone()).id(),
            TermRef::new(b.term.clone()).id(),
            "engine results not id-deterministic ({strategy:?})"
        );
    }
}

props! {
    #![cases(48)]

    fn fol_rulesets_sound_under_session_kernel(seed in seeds(), depth in 2u32..5) {
        let vocab = fol::Vocabulary::small();
        let sig = vocab.signature();
        let mut rng = SmallRng::seed_from_u64(seed);
        let f = fol::gen_formula(&vocab, &mut rng, depth);
        let t = fol::encode(&f).unwrap();
        for rules in [fol_prenex::rules(&sig).unwrap(), fol_cnf::rules(&sig).unwrap()] {
            assert_engine_result_sound(&sig, &rules, &fol::o(), &t);
        }
    }

    fn imp_ruleset_sound_under_session_kernel(seed in seeds(), depth in 2u32..5) {
        let sig = imp::signature();
        let rules = imp_opt::rules(sig).unwrap();
        let mut rng = SmallRng::seed_from_u64(seed);
        let c = imp::gen_cmd(&mut rng, depth);
        let t = imp::encode(&c).unwrap();
        assert_engine_result_sound(sig, &rules, &imp::cmd_ty(), &t);
    }
}

/// Mini-ML programs are structured (not generator-driven): the standard
/// arithmetic workload, both strategies.
#[test]
fn miniml_ruleset_sound_under_session_kernel() {
    let sig = miniml::signature();
    let rules = miniml_opt::rules(sig).unwrap();
    use hoas::langs::miniml::Exp;
    let programs = [
        Exp::app(Exp::app(miniml::add_fn(), Exp::num(6)), Exp::num(7)),
        Exp::app(Exp::app(miniml::mul_fn(), Exp::num(3)), Exp::num(4)),
        Exp::app(miniml::fact_fn(), Exp::num(3)),
        Exp::let_("x", Exp::num(2), Exp::var("x")),
        Exp::case(Exp::num(2), Exp::num(0), "n", Exp::var("n")),
    ];
    for p in &programs {
        let t = miniml::encode(p).unwrap();
        assert_engine_result_sound(sig, &rules, &miniml::exp(), &t);
    }
}

// ------------------------------------------------ the canonicity check --

/// Every bundled signature, with the base type its encodings live at.
fn bundled_signatures() -> Vec<(Signature, Ty)> {
    vec![
        (lambda::signature().clone(), lambda::tm()),
        (fol::Vocabulary::small().signature(), fol::o()),
        (imp::signature().clone(), imp::cmd_ty()),
        (miniml::signature().clone(), miniml::exp()),
    ]
}

/// `t` with the `n`-th node in preorder replaced by `f` of it.
fn replace_nth(t: &Term, n: usize, f: &impl Fn(&Term) -> Term) -> Term {
    fn go(t: &Term, n: usize, seen: &mut usize, f: &impl Fn(&Term) -> Term) -> Term {
        if *seen == n {
            *seen += 1;
            return f(t);
        }
        *seen += 1;
        match t {
            Term::Lam(h, b) => Term::lam(h.clone(), go(b, n, seen, f)),
            Term::App(a, b) => {
                let a = go(a, n, seen, f);
                Term::app(a, go(b, n, seen, f))
            }
            Term::Pair(a, b) => {
                let a = go(a, n, seen, f);
                Term::pair(a, go(b, n, seen, f))
            }
            Term::Fst(p) => Term::fst(go(p, n, seen, f)),
            Term::Snd(p) => Term::snd(go(p, n, seen, f)),
            Term::Var(_) | Term::Const(_) | Term::Meta(_) | Term::Int(_) | Term::Unit => t.clone(),
        }
    }
    go(t, n, &mut 0, f)
}

/// Number of nodes of `t`.
fn size(t: &Term) -> usize {
    1 + match t {
        Term::Lam(_, b) | Term::Fst(b) | Term::Snd(b) => size(b),
        Term::App(a, b) | Term::Pair(a, b) => size(a) + size(b),
        Term::Var(_) | Term::Const(_) | Term::Meta(_) | Term::Int(_) | Term::Unit => 0,
    }
}

/// The two directions of the check's contract on one input: `true`
/// means [`normalize::canon`] returns the input, and on a well-typed
/// input at a type without type variables the converse holds too.
fn assert_check_agrees_with_canon(sig: &Signature, ctx: &Ctx, t: &Term, ty: &Ty) {
    let menv = MetaEnv::new();
    let decided = normalize::is_canonical(sig, &menv, ctx, t, ty);
    let rebuilt = normalize::canon(sig, &menv, ctx, t, ty);
    if decided {
        assert_eq!(rebuilt.as_ref(), Ok(t), "`{t}` passed the check at {ty}");
    }
    let monomorphic = ty.is_ground() && typeck::check(sig, &menv, ctx, t, ty).is_ok();
    if monomorphic && rebuilt.as_ref() == Ok(t) {
        assert!(decided, "canonical `{t}` failed the check at {ty}");
    }
}

props! {
    #![cases(64)]

    fn canonicity_check_agrees_with_canon(seed in seeds(), depth in 1u32..5) {
        let mut rng = SmallRng::seed_from_u64(seed);
        for (sig, base) in &bundled_signatures() {
            check_variants(sig, base, &mut rng, depth);
        }
    }
}

/// Generates a canonical term over `sig`, and checks it and its η-short,
/// β-redex and ill-typed variants with [`assert_check_agrees_with_canon`].
fn check_variants(sig: &Signature, base: &Ty, rng: &mut SmallRng, depth: u32) {
    let mono = |c: &Sym| sig.const_ty(c.as_str()).and_then(|s| s.as_mono()).cloned();
    // Binders at base, arrow, product and unit type, outermost first, so
    // that η-short variables of each kind occur.
    let binders = [
        base.clone(),
        Ty::arrow(base.clone(), base.clone()),
        Ty::prod(base.clone(), Ty::Unit),
        Ty::Unit,
    ];
    let ctx = binders
        .iter()
        .fold(Ctx::new(), |c, ty| c.push(Sym::new("v"), ty.clone()));
    // The base type, each constant's own type, and compound types.
    let mut tys = vec![
        base.clone(),
        binders[1].clone(),
        binders[2].clone(),
        Ty::Unit,
    ];
    tys.extend(sig.consts().filter_map(|(c, _)| mono(c)));
    let ty = tys[rng.gen_range(0..tys.len())].clone();
    let Some(t) = gen::open_term(sig, rng, &binders, &ty, depth) else {
        return;
    };
    let k = rng.gen_range(0..size(&t));
    let variants = [
        normalize::eta_contract(&t),
        // A β-redex at a random position.
        replace_nth(&t, k, &|s| {
            Term::app(Term::lam("z", subst::shift(s, 1)), Term::Unit)
        }),
        // A variable in place of a random subterm, η-short at arrow,
        // product or unit type, or ill-typed.
        replace_nth(&t, k, &|_| Term::Var(k as u32 % 4)),
        t,
    ];
    for v in &variants {
        assert_check_agrees_with_canon(sig, &ctx, v, &ty);
        // At another type too: mostly ill-typed.
        assert_check_agrees_with_canon(sig, &ctx, v, &tys[(k + 1) % tys.len()]);
    }
    // Each binder's variable alone, and each constant alone.
    for (i, vty) in binders.iter().rev().enumerate() {
        assert_check_agrees_with_canon(sig, &ctx, &Term::Var(i as u32), vty);
    }
    for (c, _) in sig.consts() {
        if let Some(cty) = mono(c) {
            assert_check_agrees_with_canon(sig, &ctx, &Term::cnst(c.clone()), &cty);
        }
    }
}
