//! Integration tests for warm images (PR 7): a store + cache bundle
//! saved from one isolated store and reloaded into another must replay
//! the same workload with **zero rule-NF cache misses**, identical
//! results, and live persistence counters; one image carries the
//! rewrite caches and the solver's answer tables together; corrupted
//! images must be rejected outright.

use hoas::core::prelude::*;
use hoas::langs::fol;
use hoas::lp::solve::{query_menv, solve_with, SolveConfig};
use hoas::lp::{SolveTables, TableMode};
use hoas::rewrite::image::{
    inspect_warm_image, load_warm_image, load_warm_image_with_tables, save_warm_image,
    save_warm_image_with_tables,
};
use hoas::rewrite::rulesets::fol_prenex;
use hoas::rewrite::{Engine, EngineCaches, EngineConfig};
use hoas_bench::workloads;

mod common;
use common::{absorb_tables, export_tables, fold_program, shared_tree};

/// Builds the shared workload inside the current store.
fn workload() -> (Signature, Vec<Term>) {
    let (vocab, fs) = workloads::formulas(workloads::SEED, 3, 6);
    let sig = vocab.signature();
    let encoded = fs.iter().map(|f| fol::encode(f).expect("closed")).collect();
    (sig, encoded)
}

/// Normalizes the workload against `caches`, returning printed results
/// (strings cross store boundaries; terms do not).
fn normalize_all(caches: EngineCaches) -> (Vec<String>, hoas::rewrite::EngineStats) {
    let (sig, encoded) = workload();
    let rules = fol_prenex::rules(&sig).expect("connectives present");
    let engine = Engine::with_caches(&sig, &rules, EngineConfig::default(), caches);
    let results = encoded
        .iter()
        .map(|e| {
            let out = engine.normalize(&fol::o(), e).expect("well-typed");
            assert!(out.fixpoint);
            out.term.to_string()
        })
        .collect();
    (results, engine.stats())
}

/// Saves a warm image (and the cold results) from an isolated store.
fn build_image() -> (Vec<u8>, Vec<String>) {
    StoreHandle::isolated().enter(|| {
        let caches = EngineCaches::new();
        let (results, _) = normalize_all(caches.clone());
        // The workload is rebuilt inside `normalize_all`, whose terms
        // die with it — but interned nodes persist until a sweep, so
        // the snapshot still carries every cache key.
        (save_warm_image(&caches), results)
    })
}

#[test]
fn warm_reload_replays_with_zero_misses() {
    let (image, cold_results) = build_image();

    StoreHandle::isolated().enter(|| {
        // Pre-intern a salt term so the loader's ids cannot all
        // coincide with the writer's; the remap path must do real work.
        let _salt = TermRef::new(Term::Int(0x1a6e));
        let caches = EngineCaches::new();
        let before = hoas::core::store::stats();
        let stats = load_warm_image(&image, &caches).expect("image loads");
        assert!(stats.bytes > 0);
        assert!(stats.pool_nodes > 0);
        assert!(stats.canon_entries > 0);
        assert!(stats.rule_nf_entries > 0);
        assert!(stats.root_memo_entries > 0);
        assert!(stats.entries_reloaded > 0);
        assert!(stats.remapped_ids > 0, "salted store must remap ids");

        let (warm_results, es) = normalize_all(caches);
        assert_eq!(warm_results, cold_results, "warm results differ from cold");
        assert_eq!(es.cache_misses, 0, "warm replay took rule-NF misses");
        assert!(es.memo_hits > 0, "root memo never hit on warm replay");
        // The load created nodes in this fresh store.
        assert!(hoas::core::store::stats().since(&before).distinct_nodes > 0);
    });
}

/// One image holds both warm prenex caches and fold-program solver
/// tables; loaded into a salted isolated store, it replays the rewrite
/// workload with zero rule-NF misses and answers the solver query from
/// the tables alone.
#[test]
fn one_image_replays_rewrite_caches_and_solver_tables() {
    // The program is built in each store: its clauses' nodes must live
    // in the store the solver runs in.
    let query = format!("opt {} ?Z", shared_tree(10));
    let cfg = SolveConfig {
        max_depth: 1 << 13,
        fuel: 100_000_000,
        table: TableMode::Force,
        ..SolveConfig::default()
    };
    let (image, cold_results) = StoreHandle::isolated().enter(|| {
        let caches = EngineCaches::new();
        let (results, _) = normalize_all(caches.clone());
        let prog = fold_program();
        let (goal, menv) = query_menv(prog.sig(), &query, &[("Z", "e")]).expect("query parses");
        let mut tables = SolveTables::for_program(&prog);
        let out = solve_with(&prog, &menv, &goal, &cfg, None, &mut tables).expect("solves");
        assert_eq!(out.answers.len(), 1, "fold workload must solve");
        let image = save_warm_image_with_tables(&caches, &export_tables(&tables));
        (image, results)
    });

    StoreHandle::isolated().enter(|| {
        // Salt terms the writer never interned shift the id counter, so
        // the loader must translate ids for real.
        let _salt: Vec<TermRef> = (0..7)
            .map(|k| TermRef::new(Term::Int(0x5a17 + k)))
            .collect();
        let caches = EngineCaches::new();
        let before = hoas::core::store::stats();
        let (loaded, entries) = load_warm_image_with_tables(&image, &caches).expect("image loads");
        let created = hoas::core::store::stats().since(&before).distinct_nodes;
        assert!(loaded.bytes > 0, "load moved no bytes");
        assert!(loaded.remapped_ids > 0, "salted store must remap ids");
        assert!(loaded.entries_reloaded > 0, "load reloaded no entries");
        assert!(loaded.pool_nodes > 0, "image carried no pool nodes");
        assert!(created > 0, "load created no nodes");
        assert!(loaded.solver_table_entries > 0, "image carried no tables");
        let inspected = inspect_warm_image(&image).expect("image inspects");
        assert_eq!(inspected.solver_table_entries, loaded.solver_table_entries);

        let (warm_results, es) = normalize_all(caches);
        assert_eq!(warm_results, cold_results, "warm results differ from cold");
        assert_eq!(es.cache_misses, 0, "warm replay took rule-NF misses");
        assert!(es.memo_hits > 0, "root memo never hit on warm replay");

        let prog = fold_program();
        let (goal, menv) = query_menv(prog.sig(), &query, &[("Z", "e")]).expect("query parses");
        let mut tables = absorb_tables(&prog, entries);
        assert!(tables.answer_count() > 0, "absorbed tables hold no answers");
        let out = solve_with(&prog, &menv, &goal, &cfg, None, &mut tables).expect("solves");
        assert_eq!(out.answers.len(), 1);
        assert!(out.tables.hits > 0, "reloaded tables scored no hit");
        assert_eq!(
            out.tables.variant_misses, 0,
            "reloaded tables re-ran a generator"
        );
    });
}

#[test]
fn image_inspect_validates_without_caches() {
    let (image, _) = build_image();
    StoreHandle::isolated().enter(|| {
        let stats = inspect_warm_image(&image).expect("image inspects");
        assert_eq!(stats.bytes, image.len() as u64);
        assert!(stats.pool_nodes > 0 && stats.entries_reloaded > 0);
    });
}

#[test]
fn corrupt_images_are_rejected() {
    let (image, _) = build_image();
    StoreHandle::isolated().enter(|| {
        // Truncations at coarse strides (every byte would be slow on a
        // multi-KB image; codec_props covers the exhaustive sweep on
        // smaller streams of the same framing).
        for len in (0..image.len()).step_by(7) {
            assert!(
                load_warm_image(&image[..len], &EngineCaches::new()).is_err(),
                "truncation to {len} bytes was accepted"
            );
        }
        // Bit flips, one per stride.
        let mut work = image.clone();
        for i in (0..work.len()).step_by(5) {
            let bit = 1u8 << (i % 8);
            work[i] ^= bit;
            assert!(
                load_warm_image(&work, &EngineCaches::new()).is_err(),
                "bit flip in byte {i} was accepted"
            );
            work[i] ^= bit;
        }
    });
}
