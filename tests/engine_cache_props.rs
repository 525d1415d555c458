//! Property tests for the engine's memo layers: a cached engine must be
//! observationally identical to a cache-disabled one — same normal form,
//! same step count, same applied-rule list, and the same full
//! [`RewriteStep`] trace — across all four bundled rule sets and both
//! strategies, on a first run, on a normal-form memo replay, and under
//! step budgets shorter than the recorded run. Also checks the
//! `EngineStats` bookkeeping invariants and the strategy-confluence
//! regression on the strategy-ablation workload.
//!
//! [`RewriteStep`]: hoas::rewrite::RewriteStep

use hoas::core::prelude::*;
use hoas::langs::{fol, imp, miniml};
use hoas::rewrite::rulesets::{fol_cnf, fol_prenex, imp_opt, miniml_opt};
use hoas::rewrite::{Engine, EngineConfig, NormalizeResult, RuleSet, Strategy};
use hoas_testkit::prelude::*;

const STRATEGIES: [Strategy; 2] = [Strategy::LeftmostOutermost, Strategy::LeftmostInnermost];

/// Asserts that two normalizations are indistinguishable through every
/// observable of `NormalizeResult` except its work counters.
fn assert_same_result(a: &NormalizeResult, b: &NormalizeResult, what: &str) {
    assert_eq!(a.term, b.term, "normal forms differ ({what})");
    assert_eq!(a.steps, b.steps, "step counts differ ({what})");
    assert_eq!(a.applied, b.applied, "applied lists differ ({what})");
    assert_eq!(a.trace, b.trace, "traces differ ({what})");
    assert_eq!(a.fixpoint, b.fixpoint, "fixpoint flags differ ({what})");
}

/// Runs the same normalization with the cache on and off and asserts the
/// two engines are indistinguishable through every observable of
/// `NormalizeResult`, plus the stats invariants. The cached engine then
/// replays the subject from its normal-form memo, and engines sharing its
/// caches under step budgets around the trace length (`0`, `1`, `n - 1`,
/// `n`) must each agree with an uncached engine at the same budget: a
/// recorded run is replayed only where a fresh run would reach it.
fn assert_cache_transparent(
    sig: &Signature,
    rules: &RuleSet,
    ty: &Ty,
    subject: &Term,
    strategy: Strategy,
) {
    let config = |cache: bool, max_steps: usize| EngineConfig {
        strategy,
        cache,
        max_steps,
        ..EngineConfig::default()
    };
    let budget = EngineConfig::default().max_steps;
    let cached = Engine::with_config(sig, rules, config(true, budget));
    let uncached = Engine::with_config(sig, rules, config(false, budget));
    let a = cached.normalize(ty, subject).unwrap();
    let b = uncached.normalize(ty, subject).unwrap();
    assert_same_result(&a, &b, &format!("{strategy:?}"));
    // Stats bookkeeping: every lookup is a hit or a miss, and only the
    // cached engine performs lookups.
    assert_eq!(
        a.stats.cache_hits + a.stats.cache_misses,
        a.stats.cache_lookups
    );
    assert_eq!(b.stats.cache_lookups, 0);
    assert_eq!(b.stats.cache_hits, 0);
    assert_eq!(b.stats.memo_hits + b.stats.memo_misses, 0);
    let total = cached.stats();
    assert_eq!(total.cache_hits + total.cache_misses, total.cache_lookups);
    assert!(total.cache_lookups >= a.stats.cache_lookups);

    let replay = cached.normalize(ty, subject).unwrap();
    assert_same_result(&replay, &b, &format!("{strategy:?}, replay"));
    assert_eq!(replay.stats.memo_misses, 0, "replay re-derived a step");

    let n = a.steps;
    for max_steps in [0, 1, n.saturating_sub(1), n] {
        let shared = Engine::with_caches(sig, rules, config(true, max_steps), cached.caches());
        let fresh = Engine::with_config(sig, rules, config(false, max_steps));
        assert_same_result(
            &shared.normalize(ty, subject).unwrap(),
            &fresh.normalize(ty, subject).unwrap(),
            &format!("{strategy:?}, max_steps {max_steps} of {n}"),
        );
    }
}

props! {
    #![cases(48)]

    fn fol_rulesets_cache_transparent(seed in seeds(), depth in 2u32..5) {
        let vocab = fol::Vocabulary::small();
        let sig = vocab.signature();
        let mut rng = SmallRng::seed_from_u64(seed);
        let f = fol::gen_formula(&vocab, &mut rng, depth);
        let t = fol::encode(&f).unwrap();
        for rules in [fol_prenex::rules(&sig).unwrap(), fol_cnf::rules(&sig).unwrap()] {
            for strategy in STRATEGIES {
                assert_cache_transparent(&sig, &rules, &fol::o(), &t, strategy);
            }
        }
    }

    fn imp_ruleset_cache_transparent(seed in seeds(), depth in 2u32..5) {
        let sig = imp::signature();
        let rules = imp_opt::rules(sig).unwrap();
        let mut rng = SmallRng::seed_from_u64(seed);
        let c = imp::gen_cmd(&mut rng, depth);
        let t = imp::encode(&c).unwrap();
        for strategy in STRATEGIES {
            assert_cache_transparent(sig, &rules, &imp::cmd_ty(), &t, strategy);
        }
    }
}

/// Mini-ML programs are structured (not generator-driven), so the fourth
/// rule set is exercised on the standard arithmetic workload.
#[test]
fn miniml_ruleset_cache_transparent() {
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
        for strategy in STRATEGIES {
            assert_cache_transparent(sig, &rules, &miniml::exp(), &t, strategy);
        }
    }
}

/// An η-short subject is canonicalized before it is rewritten: cached
/// and uncached engines agree on it, and once the run of its canonical
/// form is recorded, the η-short input replays that run from the memo.
#[test]
fn eta_short_subjects_agree_and_replay_their_canonical_run() {
    let sig = fol::Vocabulary::small().signature();
    let rules = fol_prenex::rules(&sig).unwrap();
    let parse = |src: &str| parse_term(&sig, src).unwrap().term;
    // `forall p` is `forall (\x. p x)` before η-expansion.
    let short = parse("and (forall p) r");
    let long = parse(r"and (forall (\x. p x)) r");
    assert_ne!(short, long);
    for strategy in STRATEGIES {
        assert_cache_transparent(&sig, &rules, &fol::o(), &short, strategy);
        let cfg = EngineConfig {
            strategy,
            ..EngineConfig::default()
        };
        let engine = Engine::with_config(&sig, &rules, cfg);
        let recorded = engine.normalize(&fol::o(), &long).unwrap();
        assert!(recorded.steps > 0, "the subject must rewrite");
        let replay = engine.normalize(&fol::o(), &short).unwrap();
        assert_same_result(&replay, &recorded, &format!("{strategy:?}, η-short"));
        let s = replay.stats;
        assert_eq!(s.memo_hits, recorded.steps as u64, "{s:?}");
        assert_eq!((s.memo_misses, s.nodes_visited), (0, 0), "{s:?}");
        // The input probe misses, the check fails, and `canon` rebuilds.
        assert_eq!((s.canon_hits, s.canon_misses), (0, 1), "{s:?}");
    }
}

/// The cache must actually fire on a realistic multi-pass workload: the
/// bench prenex instances restart from the root after every rewrite, so
/// already-proven subtrees are revisited and must hit. Rewriting also
/// rebuilds shared subterms constantly, so the term store must answer a
/// share of its lookups from existing nodes.
#[test]
fn prenex_workload_has_cache_hits() {
    let vocab = fol::Vocabulary::small();
    let sig = vocab.signature();
    let rules = fol_prenex::rules(&sig).unwrap();
    let before = hoas::core::store::stats();
    let engine = Engine::new(&sig, &rules);
    let mut rng = SmallRng::seed_from_u64(0x4F_50_55_53);
    let mut hits = 0;
    for _ in 0..10 {
        let f = fol::gen_formula(&vocab, &mut rng, 5);
        let out = engine
            .normalize(&fol::o(), &fol::encode(&f).unwrap())
            .unwrap();
        assert!(out.fixpoint);
        hits += out.stats.cache_hits;
    }
    let total = engine.stats();
    assert!(hits > 0, "no cache hits on the prenex workload: {total:?}");
    assert!(total.cache_hit_rate() > 0.0);
    assert_eq!(total.cache_hits + total.cache_misses, total.cache_lookups);
    let interned = hoas::core::store::stats().since(&before);
    assert!(interned.lookups > 0, "the workload interned nothing");
    assert!(
        interned.dedup_ratio() > 0.0,
        "the term store deduplicated nothing on the prenex workload: {interned:?}"
    );
}

/// Caches survive their engine: a second engine built over the first
/// engine's [`EngineCaches`] handle must replay an identical workload
/// from warm caches — same results, nonzero hit counters — even though
/// the first engine (and its result terms) have been dropped. Sound
/// because cache keys are store-scoped `NodeId`s that are never reused,
/// so a dead subject's entries are merely unreachable, never stale.
#[test]
fn caches_are_reusable_across_engine_instances() {
    let vocab = fol::Vocabulary::small();
    let sig = vocab.signature();
    let rules = fol_prenex::rules(&sig).unwrap();
    let mut rng = SmallRng::seed_from_u64(0x50_52_35);
    let subjects: Vec<Term> = (0..8)
        .map(|_| fol::encode(&fol::gen_formula(&vocab, &mut rng, 5)).unwrap())
        .collect();

    let first = Engine::new(&sig, &rules);
    let cold: Vec<_> = subjects
        .iter()
        .map(|t| first.normalize(&fol::o(), t).unwrap())
        .collect();
    let caches = first.caches();
    drop(first);

    let second = Engine::with_caches(&sig, &rules, EngineConfig::default(), caches);
    let mut warm_memo_hits = 0;
    let mut warm_visited = 0;
    let mut cold_visited = 0;
    for (t, a) in subjects.iter().zip(&cold) {
        let b = second.normalize(&fol::o(), t).unwrap();
        assert_eq!(a.term, b.term, "replay changed the normal form");
        assert_eq!(a.steps, b.steps);
        assert_eq!(a.applied, b.applied);
        assert_eq!(a.trace, b.trace);
        // Replay is pure cache: every run the cold engine completed is
        // replayed from the normal-form memo, so nothing falls through
        // to a traversal (no memo or rule-normal-form misses).
        assert_eq!(b.stats.memo_misses, 0, "replay re-derived a step");
        assert_eq!(b.stats.cache_misses, 0, "replay re-proved a subtree");
        warm_memo_hits += b.stats.memo_hits;
        warm_visited += b.stats.nodes_visited;
        cold_visited += a.stats.nodes_visited;
    }
    assert!(
        warm_memo_hits > 0,
        "shared normal-form memo never hit on replay"
    );
    assert!(
        warm_visited < cold_visited,
        "replay did not reduce traversal ({warm_visited} vs {cold_visited})"
    );
}

/// Strategy-confluence regression on the strategy-ablation bench
/// workload: leftmost-outermost and leftmost-innermost must reach α-equal
/// fixpoints on every instance (term equality is α-equality — binder
/// hints are ignored).
#[test]
fn strategy_ablation_workload_is_confluent() {
    let sig = imp::signature();
    let rules = imp_opt::rules(sig).unwrap();
    let mut rng = SmallRng::seed_from_u64(0x4F_50_55_53);
    let outer = Engine::new(sig, &rules);
    let inner = Engine::with_config(
        sig,
        &rules,
        EngineConfig {
            strategy: Strategy::LeftmostInnermost,
            ..EngineConfig::default()
        },
    );
    for _ in 0..10 {
        let c = imp::gen_cmd(&mut rng, 4);
        let t = imp::encode(&c).unwrap();
        let a = outer.normalize(&imp::cmd_ty(), &t).unwrap();
        let b = inner.normalize(&imp::cmd_ty(), &t).unwrap();
        assert!(a.fixpoint && b.fixpoint);
        assert_eq!(
            a.term, b.term,
            "strategies diverged on {c}: {} vs {}",
            a.term, b.term
        );
    }
}
