//! `hoas-image` — save, load, and inspect warm images of the bundled
//! prenex workload.
//!
//! ```text
//! cargo run --release -p hoas-bench --bin hoas-image -- save PATH
//! cargo run --release -p hoas-bench --bin hoas-image -- load PATH
//! cargo run --release -p hoas-bench --bin hoas-image -- inspect PATH
//! ```
//!
//! * `save PATH` — normalize the bundled prenex workload (seed
//!   `workloads::SEED`, depth 5, 10 formulas), then serialize the term
//!   store and the engine's cache bundle to `PATH`.
//! * `load PATH` — the CI round-trip gate: reload `PATH` into a fresh
//!   process, replay the same workload, and **fail** unless the warm
//!   caches answer everything — zero rule-NF cache misses, nonzero
//!   root-memo hits, and a load that moved bytes, remapped ids,
//!   reloaded entries and created nodes.
//! * `inspect PATH` — full validation (checksum, pool digest, semantic
//!   decode) plus a section-by-section content report, without touching
//!   any live cache.
//!
//! Both `save` and `load` also carry the solver's answer tables: `save`
//! runs the tabled fold workload and exports its tables into the
//! image; `load` absorbs them and fails unless a warm query scores a
//! table hit without re-running any generator.

use hoas_bench::workloads;
use hoas_core::Term;
use hoas_langs::fol;
use hoas_lp::solve::{query_menv, solve_with, SolveConfig};
use hoas_lp::{Clause, EntryState, Program, SolveTables, TableAnswer, TableMode};
use hoas_rewrite::image::{
    inspect_warm_image, load_warm_image_with_tables, save_warm_image_with_tables, SolverTableEntry,
};
use hoas_rewrite::rulesets::fol_prenex;
use hoas_rewrite::{Engine, EngineCaches, EngineConfig};
use std::process::ExitCode;

/// The tabled solver workload both sides replay (the fold shape of
/// `tests/lp_table_props.rs` at depth 10).
fn solver_workload() -> (
    Program,
    hoas_lp::Goal,
    hoas_core::term::MetaEnv,
    SolveConfig,
) {
    let sig = hoas_core::sig::Signature::parse(
        "type e. type o.
         const zero : e. const one : e.
         const plus : e -> e -> e.
         const opt : e -> e -> o.",
    )
    .expect("well-formed signature");
    let mut prog = Program::new(sig);
    prog.push(Clause::parse(prog.sig(), &[], "opt zero zero", &[]).expect("clause"));
    prog.push(Clause::parse(prog.sig(), &[], "opt one one", &[]).expect("clause"));
    prog.push(
        Clause::parse(
            prog.sig(),
            &[("X", "e"), ("Y", "e"), ("A", "e"), ("B", "e")],
            "opt (plus ?X ?Y) (plus ?A ?B)",
            &["opt ?X ?A", "opt ?Y ?B"],
        )
        .expect("clause"),
    );
    let mut tree = String::from("one");
    for _ in 0..10 {
        tree = format!("(plus {tree} {tree})");
    }
    let (goal, menv) =
        query_menv(prog.sig(), &format!("opt {tree} ?Z"), &[("Z", "e")]).expect("query parses");
    let cfg = SolveConfig {
        max_depth: 1 << 13,
        fuel: 100_000_000,
        table: TableMode::Force,
        ..SolveConfig::default()
    };
    (prog, goal, menv, cfg)
}

/// `SolveTables` → the image codec's neutral entry form.
fn export_tables(tables: &SolveTables) -> Vec<SolverTableEntry> {
    tables
        .entries()
        .map(|(_, e)| SolverTableEntry {
            pred: e.pred.clone(),
            call: e.call.clone(),
            call_tys: e.call_tys.clone(),
            answers: e
                .answers
                .iter()
                .map(|a| (a.term.clone(), a.meta_tys.clone()))
                .collect(),
            complete: e.state == EntryState::Complete,
        })
        .collect()
}

/// The image codec's neutral entry form → `SolveTables` pinned to
/// `prog`.
fn absorb_tables(prog: &Program, entries: Vec<SolverTableEntry>) -> SolveTables {
    let mut tables = SolveTables::for_program(prog);
    for e in entries {
        tables.absorb(
            e.pred,
            e.call,
            e.call_tys,
            e.answers
                .into_iter()
                .map(|(term, meta_tys)| TableAnswer { term, meta_tys })
                .collect(),
            e.complete,
        );
    }
    tables
}

/// The workload both `save` and `load` replay: identical construction on
/// both sides is what lets re-interning land on the image's pool nodes.
fn workload() -> (hoas_core::sig::Signature, Vec<Term>) {
    let (vocab, fs) = workloads::formulas(workloads::SEED, 5, 10);
    let sig = vocab.signature();
    let encoded = fs.iter().map(|f| fol::encode(f).expect("closed")).collect();
    (sig, encoded)
}

fn save(path: &str) -> ExitCode {
    let (sig, encoded) = workload();
    let rules = fol_prenex::rules(&sig).expect("connectives present");
    let caches = EngineCaches::new();
    let before = hoas_core::store::stats();
    let engine = Engine::with_caches(&sig, &rules, EngineConfig::default(), caches.clone());
    for e in &encoded {
        let out = engine.normalize(&fol::o(), e).expect("well-typed");
        assert!(out.fixpoint, "prenex workload must normalize");
    }
    let (prog, goal, menv, cfg) = solver_workload();
    let mut tables = SolveTables::for_program(&prog);
    let out = solve_with(&prog, &menv, &goal, &cfg, None, &mut tables).expect("solves");
    assert_eq!(out.answers.len(), 1, "fold workload must solve");
    // `encoded` is still alive here: the subjects' source skeletons must
    // be in the store so their cache keys reach the image's pool.
    let image = save_warm_image_with_tables(&caches, &export_tables(&tables));
    if let Err(e) = std::fs::write(path, &image) {
        eprintln!("hoas-image: cannot write {path}: {e}");
        return ExitCode::FAILURE;
    }
    println!(
        "hoas-image: saved {} bytes to {path} ({} nodes created, {} cache lookups warm, \
         {} solver variants, {} stored answers)",
        image.len(),
        hoas_core::store::stats().since(&before).distinct_nodes,
        engine.stats().cache_lookups,
        tables.len(),
        tables.answer_count(),
    );
    ExitCode::SUCCESS
}

fn load(path: &str) -> ExitCode {
    let image = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("hoas-image: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Build the workload *before* loading, plus a few salt terms the
    // writer never interned: id assignment is deterministic, so without
    // the salt a same-binary loader would re-derive the writer's ids
    // exactly and never exercise the remap path. The salt shifts the id
    // counter the way any real consumer process's own allocations
    // would, forcing the load to translate ids for real.
    let (sig, encoded) = workload();
    for k in 0..7 {
        std::hint::black_box(hoas_core::TermRef::new(Term::Int(0x5a17 + k)));
    }
    let caches = EngineCaches::new();
    let before = hoas_core::store::stats();
    let (loaded, solver_entries) = match load_warm_image_with_tables(&image, &caches) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("hoas-image: {path} rejected: {e}");
            return ExitCode::FAILURE;
        }
    };
    let rules = fol_prenex::rules(&sig).expect("connectives present");
    let engine = Engine::with_caches(&sig, &rules, EngineConfig::default(), caches);
    for e in &encoded {
        let out = engine.normalize(&fol::o(), e).expect("well-typed");
        assert!(out.fixpoint, "prenex workload must normalize");
    }
    let stats = engine.stats();
    let created = hoas_core::store::stats().since(&before).distinct_nodes;
    println!(
        "hoas-image: warm replay: {} rule-NF lookups, {} misses, {} memo hits; \
         image {} bytes, {} ids remapped, {} entries reloaded, {} dropped, \
         {created} nodes created",
        stats.cache_lookups,
        stats.cache_misses,
        stats.memo_hits,
        loaded.bytes,
        loaded.remapped_ids,
        loaded.entries_reloaded,
        loaded.entries_dropped,
    );
    let mut ok = true;
    if stats.cache_misses != 0 {
        eprintln!(
            "hoas-image: FAIL — warm replay took {} rule-NF cache misses (want 0)",
            stats.cache_misses
        );
        ok = false;
    }
    if stats.memo_hits == 0 {
        eprintln!("hoas-image: FAIL — the root-step memo never hit on warm replay");
        ok = false;
    }
    // The persistence counters CI asserts on (nonzero by construction
    // after a real load into a salted store).
    if loaded.bytes == 0 || loaded.remapped_ids == 0 || loaded.entries_reloaded == 0 || created == 0
    {
        eprintln!(
            "hoas-image: FAIL — persistence counters not all nonzero \
             (bytes {}, remapped {}, reloaded {}, created {created})",
            loaded.bytes, loaded.remapped_ids, loaded.entries_reloaded,
        );
        ok = false;
    }
    if loaded.entries_reloaded == 0 || loaded.pool_nodes == 0 {
        eprintln!("hoas-image: FAIL — image loaded no pool nodes or cache entries");
        ok = false;
    }
    // Solver-table round trip: the absorbed tables must answer the
    // warm query entirely by replay — one hit, zero generator runs.
    let (prog, goal, menv, cfg) = solver_workload();
    let mut tables = absorb_tables(&prog, solver_entries);
    if loaded.solver_table_entries == 0 || tables.answer_count() == 0 {
        eprintln!("hoas-image: FAIL — image carried no solver table entries");
        ok = false;
    }
    let out = solve_with(&prog, &menv, &goal, &cfg, None, &mut tables).expect("solves");
    println!(
        "hoas-image: warm solver query: {} answer(s), tables {:?}",
        out.answers.len(),
        out.tables,
    );
    if out.answers.len() != 1 || out.tables.hits == 0 || out.tables.variant_misses != 0 {
        eprintln!(
            "hoas-image: FAIL — warm solver query did not replay from the \
             reloaded tables (want 1 answer, nonzero hits, zero variant misses)"
        );
        ok = false;
    }
    if ok {
        println!("hoas-image: warm replay OK — zero rule-NF misses");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn inspect(path: &str) -> ExitCode {
    let image = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("hoas-image: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match inspect_warm_image(&image) {
        Ok(s) => {
            println!(
                "hoas-image: {path}: {} bytes, valid\n\
                 \x20 pool nodes          {}\n\
                 \x20 remapped ids        {}\n\
                 \x20 canon entries       {}\n\
                 \x20 rule-NF entries     {}\n\
                 \x20 head-type entries   {}\n\
                 \x20 root-memo entries   {}\n\
                 \x20 solver variants     {}\n\
                 \x20 solver answers      {}\n\
                 \x20 entries reloadable  {}\n\
                 \x20 entries dropped     {}",
                s.bytes,
                s.pool_nodes,
                s.remapped_ids,
                s.canon_entries,
                s.rule_nf_entries,
                s.head_ty_entries,
                s.root_memo_entries,
                s.solver_table_entries,
                s.solver_answers,
                s.entries_reloaded,
                s.entries_dropped,
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("hoas-image: {path} rejected: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [cmd, path] if cmd == "save" => save(path),
        [cmd, path] if cmd == "load" => load(path),
        [cmd, path] if cmd == "inspect" => inspect(path),
        _ => {
            eprintln!("usage: hoas-image save|load|inspect PATH");
            ExitCode::from(2)
        }
    }
}
