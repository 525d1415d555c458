//! Transparency properties for answer tabling (PR 10): the tabled
//! solver must be observationally equivalent to plain SLD search on the
//! answer *set* — tabling may change how answers are found (and may
//! terminate where plain search cannot), never *which* answers exist.
//!
//! Four families:
//!
//! 1. On generated reachability programs, `TableMode::Force` agrees
//!    with the untabled search whenever the untabled search is uncut,
//!    and agrees with the BFS oracle outright whenever the tabled
//!    search itself completes — even on cyclic graphs where plain
//!    search exhausts its depth budget.
//! 2. Table counters are live: a cold pass records variant misses and
//!    insertions, and a warm pass over the same tables answers by replay
//!    (nonzero hits and reused answers, zero generator runs), as read
//!    from each solve's `Outcome::tables`.
//! 3. `TableMode::Certified` respects the certificate: a predicate the
//!    analysis marks ineligible (STLC `of`, whose derivations carry
//!    hypothetical clauses) never populates a table.
//! 4. Tables ride warm images: exported through
//!    `hoas_rewrite::image`'s neutral entry form, reloaded, and
//!    absorbed, they answer the same query with zero variant misses.

use hoas::analyze::modes;
use hoas::lp::examples::{fold_program, fold_shared, stlc_program};
use hoas::lp::solve::{query_menv, solve, solve_certified, solve_with, SolveConfig};
use hoas::lp::{Clause, Program, SolveTables, TableMode};
use hoas::rewrite::image::{load_warm_image_with_tables, save_warm_image_with_tables};
use hoas::rewrite::EngineCaches;
use hoas_core::sig::Signature;
use hoas_testkit::gen;
use hoas_testkit::prelude::*;
use std::collections::BTreeSet;

mod common;
use common::{absorb_tables, export_tables};

/// Builds the `edge`/`path` program of a generated graph spec.
fn reach_program(spec: &gen::LpSpec) -> Program {
    let sig = Signature::parse(&spec.sig_src()).unwrap();
    let mut prog = Program::new(sig);
    for (vars, head, body) in spec.clause_srcs() {
        let vars: Vec<(&str, &str)> = vars.iter().map(|(v, t)| (v.as_str(), t.as_str())).collect();
        let body: Vec<&str> = body.iter().map(|g| g.as_str()).collect();
        prog.push(Clause::parse(prog.sig(), &vars, &head, &body).unwrap());
    }
    prog
}

/// Renders the `Z`-bindings of an outcome as a canonical answer set.
fn answer_set(out: &hoas::lp::solve::Outcome) -> BTreeSet<String> {
    out.answers
        .iter()
        .map(|a| a.get("Z").expect("Z bound").to_string())
        .collect()
}

props! {
    #![cases(16)]

    fn tabled_search_is_transparent_on_reachability(
        seed in seeds(), n_nodes in 2usize..6, n_edges in 0usize..10
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let spec = gen::lp_reachability(&mut rng, n_nodes, n_edges);
        let prog = reach_program(&spec);
        let start = rng.gen_range(0..spec.n_nodes);
        let oracle: BTreeSet<String> = spec
            .reachable_from(start)
            .into_iter()
            .map(|n| format!("n{n}"))
            .collect();
        let cfg = SolveConfig {
            max_depth: 16 * spec.n_nodes as u32,
            // Enumerate every derivation: the default cap of one answer
            // would hide set-level disagreements.
            max_solutions: 1_000,
            fuel: 200_000,
            ..SolveConfig::default()
        };
        let tabled_cfg = SolveConfig {
            table: TableMode::Force,
            ..cfg
        };
        let (goal, menv) =
            query_menv(prog.sig(), &format!("path n{start} ?Z"), &[("Z", "i")]).unwrap();

        let plain = solve(&prog, &menv, &goal, &cfg).unwrap();
        let mut tables = SolveTables::for_program(&prog);
        let tabled = solve_with(&prog, &menv, &goal, &tabled_cfg, None, &mut tables).unwrap();

        prop_assert!(!plain.floundered && !tabled.floundered, "ground-input queries never flounder");
        // Tabled positives are sound unconditionally, and when the
        // tabled search itself completes (which it does even on cyclic
        // graphs, where plain search is depth-cut), its answer set is
        // exactly the oracle's.
        let tabled_set = answer_set(&tabled);
        prop_assert!(
            tabled_set.is_subset(&oracle),
            "tabled search proved an unreachable node: {:?} ⊄ {:?}", tabled_set, oracle
        );
        if !tabled.incomplete() {
            prop_assert_eq!(
                &tabled_set, &oracle,
                "complete tabled search must enumerate exactly the reachable set"
            );
        }
        // Transparency proper: whenever the plain search is uncut, the
        // two solvers agree on the answer set.
        if !plain.incomplete() {
            prop_assert!(!tabled.incomplete(), "tabling never loses termination");
            prop_assert_eq!(
                answer_set(&plain), tabled_set,
                "tabled and untabled answer sets diverge"
            );
        }
        // Warm repeat over the same tables: identical answers, pure
        // replay for the root variant.
        let warm = solve_with(&prog, &menv, &goal, &tabled_cfg, None, &mut tables).unwrap();
        prop_assert_eq!(answer_set(&warm), answer_set(&tabled));
        if !tabled.incomplete() {
            prop_assert!(warm.tables.hits > 0, "warm repeat must hit the table");
            prop_assert_eq!(warm.tables.variant_misses, 0, "warm repeat re-ran a generator");
        }
    }

    fn table_counters_are_live(depth in 4usize..7) {
        let c = fold_shared(depth);
        let (goal, menv) = &c.queries[0];
        let cfg = SolveConfig {
            table: TableMode::Force,
            ..c.cfg
        };
        let mut tables = SolveTables::for_program(&c.prog);
        let cold = solve_with(&c.prog, menv, goal, &cfg, None, &mut tables).unwrap();
        let warm = solve_with(&c.prog, menv, goal, &cfg, None, &mut tables).unwrap();
        prop_assert_eq!(cold.answers.len(), 1);
        prop_assert_eq!(warm.answers.len(), 1);
        prop_assert_eq!(cold.answers[0].to_string(), warm.answers[0].to_string());
        prop_assert!(cold.tables.variant_misses > 0, "cold pass never ran a generator");
        prop_assert!(cold.tables.answers_inserted > 0, "cold pass never stored an answer");
        prop_assert!(warm.tables.hits > 0, "warm pass scored no table hit");
        prop_assert!(warm.tables.answers_reused > 0, "warm pass replayed no answer");
        prop_assert_eq!(warm.tables.variant_misses, 0, "warm pass re-ran a generator");
    }
}

/// The depth-10 fold query under `TableMode::Certified` with the mode
/// analysis's certificate: the tabled answer equals the untabled one, a
/// cold pass populates the tables, and a warm pass over the same tables
/// answers by replay alone. A gate or key change that silently stops
/// tabling would otherwise show only as a slow benchmark.
#[test]
fn certified_fold_tables_populate_then_replay() {
    let c = fold_shared(10);
    let (prog, (goal, menv)) = (&c.prog, &c.queries[0]);
    let cert = modes::analyze_program(prog).cert;
    let tabled = SolveConfig {
        table: TableMode::Certified,
        ..c.cfg
    };
    let plain = solve_certified(prog, menv, goal, &c.cfg, &cert).unwrap();
    let mut tables = SolveTables::for_program(prog);
    let cold = solve_with(prog, menv, goal, &tabled, Some(&cert), &mut tables).unwrap();
    let warm = solve_with(prog, menv, goal, &tabled, Some(&cert), &mut tables).unwrap();
    assert_eq!(plain.answers.len(), 1);
    assert_eq!(cold.answers.len(), 1);
    assert_eq!(warm.answers.len(), 1);
    assert_eq!(
        plain.answers[0].to_string(),
        cold.answers[0].to_string(),
        "tabled answer differs from untabled"
    );
    let (c, w) = (cold.tables, warm.tables);
    assert!(
        c.variant_misses > 0 && c.answers_inserted > 0,
        "cold pass never populated a table: {c:?}"
    );
    assert!(
        w.hits > 0 && w.answers_reused > 0,
        "warm pass never replayed from the tables: {w:?}"
    );
    assert_eq!(w.variant_misses, 0, "warm pass re-ran a generator: {w:?}");
}

/// `TableMode::Certified` defers to the certificate: STLC `of` carries
/// hypothetical clauses through every interesting derivation, the
/// analysis marks it ineligible (no HA021), and a certified solve must
/// therefore leave the tables untouched — while `Force` on the same
/// query still respects the locals guard (hypothetical-clause scopes
/// are never tabled), keeping both modes sound.
#[test]
fn certificate_gating_is_respected() {
    let prog = stlc_program();
    let outcome = modes::analyze_program(&prog);
    let verdict = outcome
        .cert
        .verdict(&hoas_core::Sym::new("of"))
        .expect("of analyzed");
    assert!(
        !verdict.table,
        "stlc `of` must not certify as table-eligible"
    );

    let (goal, menv) = query_menv(
        prog.sig(),
        "of (app (lam (\\x. x)) (lam (\\y. y))) ?T",
        &[("T", "tp")],
    )
    .unwrap();
    let cfg = SolveConfig {
        max_depth: 256,
        table: TableMode::Certified,
        ..SolveConfig::default()
    };
    let mut tables = SolveTables::for_program(&prog);
    let out = solve_with(&prog, &menv, &goal, &cfg, Some(&outcome.cert), &mut tables).unwrap();
    assert_eq!(out.answers.len(), 1, "the redex types");
    assert_eq!(tables.len(), 0, "ineligible predicate populated a table");
    assert_eq!(
        out.tables.variant_misses, 0,
        "ineligible predicate ran a generator"
    );
    assert_eq!(out.tables.hits, 0);

    // The fold program's `opt` IS certified eligible: the same Certified
    // mode must table it.
    let prog = fold_program();
    let outcome = modes::analyze_program(&prog);
    let verdict = outcome
        .cert
        .verdict(&hoas_core::Sym::new("opt"))
        .expect("opt analyzed");
    assert!(verdict.table, "`opt` must certify as table-eligible");
    let c = fold_shared(6);
    let (goal, menv) = &c.queries[0];
    let cfg = SolveConfig {
        table: TableMode::Certified,
        ..c.cfg
    };
    let mut tables = SolveTables::for_program(&prog);
    let out = solve_with(&prog, menv, goal, &cfg, Some(&outcome.cert), &mut tables).unwrap();
    assert_eq!(out.answers.len(), 1);
    assert!(
        out.tables.variant_misses > 0,
        "certified-eligible predicate was not tabled"
    );
    assert!(!tables.is_empty() && tables.answer_count() > 0);
}

/// Round-trips live solver tables through the warm-image codec and back
/// into a fresh `SolveTables`, then re-answers the query by pure replay.
#[test]
fn tables_survive_a_warm_image_round_trip() {
    let c = fold_shared(8);
    let (prog, (goal, menv)) = (&c.prog, &c.queries[0]);
    let cfg = SolveConfig {
        table: TableMode::Force,
        ..c.cfg
    };
    let mut tables = SolveTables::for_program(prog);
    let cold = solve_with(prog, menv, goal, &cfg, None, &mut tables).unwrap();
    assert_eq!(cold.answers.len(), 1);

    // Export through the image's engine-neutral entry form.
    let exported = export_tables(&tables);
    assert!(!exported.is_empty());
    let caches = EngineCaches::new();
    let image = save_warm_image_with_tables(&caches, &exported);

    let (stats, reloaded) = load_warm_image_with_tables(&image, &EngineCaches::new()).unwrap();
    assert_eq!(stats.solver_table_entries as usize, exported.len());
    assert_eq!(
        stats.solver_answers as usize,
        exported.iter().map(|e| e.answers.len()).sum::<usize>()
    );

    let mut warm_tables = absorb_tables(prog, reloaded);
    assert_eq!(warm_tables.len(), tables.len());
    assert_eq!(warm_tables.answer_count(), tables.answer_count());

    let warm = solve_with(prog, menv, goal, &cfg, None, &mut warm_tables).unwrap();
    assert_eq!(warm.answers.len(), 1);
    assert_eq!(warm.answers[0].to_string(), cold.answers[0].to_string());
    assert!(warm.tables.hits > 0, "reloaded tables scored no hit");
    assert_eq!(
        warm.tables.variant_misses, 0,
        "reloaded tables re-ran a generator"
    );
    assert_eq!(
        warm.tables.answers_inserted, 0,
        "replay must not re-insert answers"
    );
}
