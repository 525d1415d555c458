//! E11 — answer tabling: tabled vs untabled search on challenge
//! problems whose derivations repeat subgoals.
//!
//! Four shapes, each run both ways so the paired medians print side by
//! side:
//!
//! * `reach-fail` — diamond-ladder DAG reachability with an unreachable
//!   target: plain DFS refutes all `2^layers` paths, the tabled solver
//!   refutes each node once (the headline repeated-subgoal win);
//! * `fold-shared` — an imp-style constant-size optimizer pass over a
//!   perfectly shared expression tree, tabled under the **certificate
//!   gate** (`TableMode::Certified` + the HA021 verdict), so the win
//!   comes through the same path `solve_certified` users get;
//! * `preserve` — miniml/STLC type preservation (`of E T`, `eval E V`,
//!   `of V T`) as three queries sharing one [`SolveTables`]: the third
//!   query replays `of` answers the first one derived;
//! * `ol-translate` — OL-to-OL translation by copy clauses (binders
//!   crossed via `Π`/`⇒`), run in checking mode — both sides ground —
//!   over a shared source tree. (Synthesis mode would flounder: an
//!   unknown target binder applied to an eigenvariable is outside the
//!   Miller pattern fragment.)
//!
//! Every pair asserts identical answer counts, so the speedup is never
//! bought with lost answers.

use hoas_analyze::modes;
use hoas_core::parse::MetaTable;
use hoas_core::sig::Signature;
use hoas_core::{Sym, Term, Ty};
use hoas_lp::solve::{query_menv, solve, solve_certified, solve_with, SolveConfig};
use hoas_lp::{Clause, Goal, Program, SolveTables, TableMode};
use hoas_testkit::bench::{BenchmarkId, Criterion};
use hoas_testkit::{criterion_group, criterion_main};

/// A diamond ladder: `n(i)` reaches `n(i+1)` through both `a(i)` and
/// `b(i)`, so `n0 --* n(layers)` has `2^layers` distinct paths. `bad`
/// has no in-edges.
fn reach_program(layers: usize) -> Program {
    let mut src = String::from("type i. type o. const bad : i.\n");
    for i in 0..=layers {
        src.push_str(&format!(
            "const n{i} : i. const a{i} : i. const b{i} : i.\n"
        ));
    }
    src.push_str("const edge : i -> i -> o. const path : i -> i -> o.");
    let sig = Signature::parse(&src).expect("well-formed signature");
    let mut prog = Program::new(sig);
    for i in 0..layers {
        for fact in [
            format!("edge n{i} a{i}"),
            format!("edge n{i} b{i}"),
            format!("edge a{i} n{}", i + 1),
            format!("edge b{i} n{}", i + 1),
        ] {
            prog.push(Clause::parse(prog.sig(), &[], &fact, &[]).expect("clause"));
        }
    }
    prog.push(
        Clause::parse(
            prog.sig(),
            &[("X", "i"), ("Z", "i")],
            "path ?X ?Z",
            &["edge ?X ?Z"],
        )
        .expect("clause"),
    );
    prog.push(
        Clause::parse(
            prog.sig(),
            &[("X", "i"), ("Y", "i"), ("Z", "i")],
            "path ?X ?Z",
            &["edge ?X ?Y", "path ?Y ?Z"],
        )
        .expect("clause"),
    );
    prog
}

fn bench_reach(c: &mut Criterion) {
    let mut group = c.benchmark_group("lp-solver");
    for layers in [8usize, 10] {
        let prog = reach_program(layers);
        let (goal, menv) = query_menv(prog.sig(), "path n0 bad", &[]).unwrap();
        let cfg = SolveConfig {
            max_depth: 4 * layers as u32 + 64,
            ..SolveConfig::default()
        };
        let tabled_cfg = SolveConfig {
            table: TableMode::Force,
            ..cfg
        };
        group.bench_with_input(BenchmarkId::new("reach-fail", layers), &layers, |b, _| {
            b.iter(|| {
                let out = solve(&prog, &menv, &goal, &cfg).unwrap();
                assert!(out.answers.is_empty() && !out.incomplete());
            })
        });
        group.bench_with_input(
            BenchmarkId::new("reach-fail-tabled", layers),
            &layers,
            |b, _| {
                b.iter(|| {
                    let out = solve(&prog, &menv, &goal, &tabled_cfg).unwrap();
                    assert!(out.answers.is_empty() && !out.incomplete());
                    assert!(out.tables.variant_misses > 0);
                })
            },
        );
    }
    group.finish();
}

/// An imp-style optimizer pass: `opt` maps an expression to its
/// optimized form, one clause per constructor, first-argument indexed
/// (so determinacy analysis certifies it committed-choice and
/// tabling-eligible).
fn fold_program() -> Program {
    let sig = Signature::parse(
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
    prog
}

/// `plus t t` doubled `depth` times: `2^depth` leaves as a tree, but
/// only `depth + 1` distinct subterms.
fn shared_tree(depth: usize) -> String {
    let mut t = String::from("one");
    for _ in 0..depth {
        t = format!("(plus {t} {t})");
    }
    t
}

fn bench_fold(c: &mut Criterion) {
    let prog = fold_program();
    let cert = modes::analyze_program(&prog).cert;
    let mut group = c.benchmark_group("lp-solver");
    for depth in [8usize, 10] {
        let (goal, menv) = query_menv(
            prog.sig(),
            &format!("opt {} ?Z", shared_tree(depth)),
            &[("Z", "e")],
        )
        .unwrap();
        // Depth is a per-branch resolution budget, so the untabled
        // derivation needs room for every subterm occurrence.
        let cfg = SolveConfig {
            max_depth: 1 << (depth + 3),
            fuel: 100_000_000,
            ..SolveConfig::default()
        };
        let tabled_cfg = SolveConfig {
            table: TableMode::Certified,
            ..cfg
        };
        group.bench_with_input(BenchmarkId::new("fold-shared", depth), &depth, |b, _| {
            b.iter(|| {
                let out = solve_certified(&prog, &menv, &goal, &cfg, &cert).unwrap();
                assert_eq!(out.answers.len(), 1);
            })
        });
        group.bench_with_input(
            BenchmarkId::new("fold-shared-tabled", depth),
            &depth,
            |b, _| {
                b.iter(|| {
                    let out = solve_certified(&prog, &menv, &goal, &tabled_cfg, &cert).unwrap();
                    assert_eq!(out.answers.len(), 1);
                    assert!(out.tables.hits + out.tables.variant_misses > 0);
                })
            },
        );
    }
    group.finish();
}

/// STLC typing and CBV evaluation in one program, for the preservation
/// round-trip `of E T` / `eval E V` / `of V T`.
fn preservation_program() -> Program {
    let sig = Signature::parse(
        "type tm. type tp. type o.
         const arr : tp -> tp -> tp. const base : tp.
         const lam : (tm -> tm) -> tm. const app : tm -> tm -> tm.
         const of : tm -> tp -> o. const eval : tm -> tm -> o.",
    )
    .expect("well-formed signature");
    let mut prog = Program::new(sig);
    prog.push(
        Clause::parse(
            prog.sig(),
            &[("M", "tm"), ("N", "tm"), ("A", "tp"), ("B", "tp")],
            "of (app ?M ?N) ?B",
            &["of ?M (arr ?A ?B)", "of ?N ?A"],
        )
        .expect("clause"),
    );
    // of (lam ?F) (arr ?A ?B) :- pi x. (of x ?A => of (?F x) ?B).
    let table = {
        let mut t = MetaTable::new();
        t.get_or_insert("F");
        t.get_or_insert("A");
        t.get_or_insert("B");
        t
    };
    let head = hoas_core::parse::parse_term_with(prog.sig(), "of (lam ?F) (arr ?A ?B)", table)
        .expect("parses");
    let metas = head.metas.clone();
    let f = metas.get("F").expect("F").clone();
    let a = metas.get("A").expect("A").clone();
    let b = metas.get("B").expect("B").clone();
    let tm = Ty::base("tm");
    let hyp = Clause {
        vars: vec![],
        head: Term::apps(Term::cnst("of"), [Term::Var(0), Term::Meta(a)]),
        body: Goal::True,
    };
    let concl = Goal::Atom(Term::apps(
        Term::cnst("of"),
        [Term::app(Term::Meta(f), Term::Var(0)), Term::Meta(b)],
    ));
    prog.push(Clause {
        vars: vec![
            (Sym::new("F"), Ty::arrow(tm.clone(), tm.clone())),
            (Sym::new("A"), Ty::base("tp")),
            (Sym::new("B"), Ty::base("tp")),
        ],
        head: head.term,
        body: Goal::pi("x", tm, Goal::implies(hyp, concl)),
    });
    prog.push(
        Clause::parse(
            prog.sig(),
            &[("F", "tm -> tm")],
            "eval (lam ?F) (lam ?F)",
            &[],
        )
        .expect("clause"),
    );
    prog.push(
        Clause::parse(
            prog.sig(),
            &[
                ("M", "tm"),
                ("N", "tm"),
                ("V", "tm"),
                ("F", "tm -> tm"),
                ("U", "tm"),
            ],
            "eval (app ?M ?N) ?V",
            &["eval ?M (lam ?F)", "eval ?N ?U", "eval (?F ?U) ?V"],
        )
        .expect("clause"),
    );
    prog
}

fn bench_preservation(c: &mut Criterion) {
    let prog = preservation_program();
    let mut group = c.benchmark_group("lp-solver");
    // ((λx. x) K) — typing it types K; evaluating it yields K; typing
    // the value repeats the `of K` variant verbatim.
    let subject = r"app (lam (\x. x)) (lam (\y. lam (\z. y)))";
    let (of_goal, of_menv) =
        query_menv(prog.sig(), &format!("of ({subject}) ?T"), &[("T", "tp")]).unwrap();
    let (ev_goal, ev_menv) =
        query_menv(prog.sig(), &format!("eval ({subject}) ?V"), &[("V", "tm")]).unwrap();
    let (val_goal, val_menv) =
        query_menv(prog.sig(), r"of (lam (\y. lam (\z. y))) ?T", &[("T", "tp")]).unwrap();
    let round = |cfg: &SolveConfig, tables: &mut SolveTables| {
        let a = solve_with(&prog, &of_menv, &of_goal, cfg, None, tables).unwrap();
        let b = solve_with(&prog, &ev_menv, &ev_goal, cfg, None, tables).unwrap();
        let c = solve_with(&prog, &val_menv, &val_goal, cfg, None, tables).unwrap();
        assert_eq!(
            (a.answers.len(), b.answers.len(), c.answers.len()),
            (1, 1, 1)
        );
    };
    let cfg = SolveConfig::default();
    let tabled_cfg = SolveConfig {
        table: TableMode::Force,
        ..SolveConfig::default()
    };
    group.bench_with_input(BenchmarkId::new("preserve", 3), &3, |b, _| {
        b.iter(|| round(&cfg, &mut SolveTables::for_program(&prog)))
    });
    group.bench_with_input(BenchmarkId::new("preserve-tabled", 3), &3, |b, _| {
        b.iter(|| {
            let mut tables = SolveTables::for_program(&prog);
            round(&tabled_cfg, &mut tables);
            assert!(tables.answer_count() > 0);
        })
    });
    group.finish();
}

/// OL-to-OL translation by copy clauses: source syntax `lam1`/`app1`
/// maps to target syntax `lam2`/`app2`, binders crossed with `Π`/`⇒`.
fn trans_program() -> Program {
    let sig = Signature::parse(
        "type s. type t. type o.
         const lam1 : (s -> s) -> s. const app1 : s -> s -> s.
         const lam2 : (t -> t) -> t. const app2 : t -> t -> t.
         const trans : s -> t -> o.",
    )
    .expect("well-formed signature");
    let mut prog = Program::new(sig);
    prog.push(
        Clause::parse(
            prog.sig(),
            &[("M", "s"), ("N", "s"), ("P", "t"), ("Q", "t")],
            "trans (app1 ?M ?N) (app2 ?P ?Q)",
            &["trans ?M ?P", "trans ?N ?Q"],
        )
        .expect("clause"),
    );
    // trans (lam1 ?F) (lam2 ?G)
    //     :- pi x:s. pi y:t. (trans x y => trans (?F x) (?G y)).
    let table = {
        let mut t = MetaTable::new();
        t.get_or_insert("F");
        t.get_or_insert("G");
        t
    };
    let head = hoas_core::parse::parse_term_with(prog.sig(), "trans (lam1 ?F) (lam2 ?G)", table)
        .expect("parses");
    let metas = head.metas.clone();
    let f = metas.get("F").expect("F").clone();
    let g = metas.get("G").expect("G").clone();
    let s = Ty::base("s");
    let t = Ty::base("t");
    // Under both Πs, x is goal-level Var 1 and y is Var 0.
    let hyp = Clause {
        vars: vec![],
        head: Term::apps(Term::cnst("trans"), [Term::Var(1), Term::Var(0)]),
        body: Goal::True,
    };
    let concl = Goal::Atom(Term::apps(
        Term::cnst("trans"),
        [
            Term::app(Term::Meta(f), Term::Var(1)),
            Term::app(Term::Meta(g), Term::Var(0)),
        ],
    ));
    prog.push(Clause {
        vars: vec![
            (Sym::new("F"), Ty::arrow(s.clone(), s.clone())),
            (Sym::new("G"), Ty::arrow(t.clone(), t.clone())),
        ],
        head: head.term,
        body: Goal::pi("x", s, Goal::pi("y", t, Goal::implies(hyp, concl))),
    });
    prog
}

fn bench_translate(c: &mut Criterion) {
    let prog = trans_program();
    let mut group = c.benchmark_group("lp-solver");
    for depth in [6usize, 8] {
        let mut src = String::from(r"(lam1 (\x. x))");
        let mut tgt = String::from(r"(lam2 (\x. x))");
        for _ in 0..depth {
            src = format!("(app1 {src} {src})");
            tgt = format!("(app2 {tgt} {tgt})");
        }
        let (goal, menv) = query_menv(prog.sig(), &format!("trans {src} {tgt}"), &[]).unwrap();
        let cfg = SolveConfig {
            max_depth: 1 << (depth + 4),
            fuel: 100_000_000,
            ..SolveConfig::default()
        };
        let tabled_cfg = SolveConfig {
            table: TableMode::Force,
            ..cfg
        };
        group.bench_with_input(BenchmarkId::new("ol-translate", depth), &depth, |b, _| {
            b.iter(|| {
                let out = solve(&prog, &menv, &goal, &cfg).unwrap();
                assert_eq!(out.answers.len(), 1);
            })
        });
        group.bench_with_input(
            BenchmarkId::new("ol-translate-tabled", depth),
            &depth,
            |b, _| {
                b.iter(|| {
                    let out = solve(&prog, &menv, &goal, &tabled_cfg).unwrap();
                    assert_eq!(out.answers.len(), 1);
                    assert!(out.tables.variant_misses > 0);
                })
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_reach,
    bench_fold,
    bench_preservation,
    bench_translate
);
criterion_main!(benches);
