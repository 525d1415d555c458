//! Reference oracle for the λProlog solver's configuration matrix.
//!
//! * The bundled programs (`stlc_eval_program`, as the end-to-end
//!   benchmark runs them) answer a fixed set of typing, evaluation and
//!   preservation queries, and every [`TableMode`] must reproduce the
//!   answers and table counters pinned in `tests/golden/lp_oracle.golden`.
//! * The challenge problems of `hoas_lp::examples` must give the same
//!   answers under every [`TableMode`], certified and uncertified, with
//!   the answers and counters pinned in `tests/golden/lp_challenges.golden`.
//!
//! Answers are rendered structurally (de Bruijn indices, metavariables
//! numbered by first occurrence), so the files depend on neither binder
//! hints nor internal metavariable ids.
//!
//! To regenerate after an intentional change to the solver's answers or
//! counters: `HOAS_UPDATE_GOLDEN=1 cargo test --test lp_oracle`.

use hoas::analyze::modes;
use hoas::langs::lambda::{self, LTerm};
use hoas::lp::examples::{self, stlc_eval_program, Challenge};
use hoas::lp::solve::{solve_with, Outcome, SolveConfig};
use hoas::lp::{Goal, Program, SolveTables, TableMode, TableStats};
use hoas_core::term::MetaEnv;
use hoas_core::{MVar, StoreHandle, Term, Ty};
use hoas_testkit::prelude::*;
use std::path::PathBuf;

/// A query: its goal and the types of its metavariables.
struct Query {
    goal: Goal,
    menv: MetaEnv,
}

fn t_var() -> MVar {
    MVar::new(0, "T")
}

fn v_var() -> MVar {
    MVar::new(1, "V")
}

fn atom(pred: &str, subject: Term, out: Term) -> Goal {
    Goal::Atom(Term::apps(Term::cnst(pred), [subject, out]))
}

fn typing(e: &LTerm) -> Query {
    let mut menv = MetaEnv::new();
    menv.insert(t_var(), Ty::base("tp"));
    Query {
        goal: atom("of", lambda::encode(e).unwrap(), Term::Meta(t_var())),
        menv,
    }
}

fn evaluation(e: &LTerm) -> Query {
    let mut menv = MetaEnv::new();
    menv.insert(v_var(), Ty::base("tm"));
    Query {
        goal: atom("eval", lambda::encode(e).unwrap(), Term::Meta(v_var())),
        menv,
    }
}

/// `of e ?T, eval e ?V, of ?V ?T`: subject reduction on one term.
fn preservation(e: &LTerm) -> Query {
    let mut menv = MetaEnv::new();
    menv.insert(t_var(), Ty::base("tp"));
    menv.insert(v_var(), Ty::base("tm"));
    let enc = lambda::encode(e).unwrap();
    Query {
        goal: Goal::all_of([
            atom("of", enc.clone(), Term::Meta(t_var())),
            atom("eval", enc, Term::Meta(v_var())),
            atom("of", Term::Meta(v_var()), Term::Meta(t_var())),
        ]),
        menv,
    }
}

fn lam(x: &str, b: LTerm) -> LTerm {
    LTerm::Lam(x.into(), Box::new(b))
}

fn app(f: LTerm, a: LTerm) -> LTerm {
    LTerm::App(Box::new(f), Box::new(a))
}

fn var(x: &str) -> LTerm {
    LTerm::Var(x.into())
}

fn numeral(n: usize) -> LTerm {
    let mut body = var("z");
    for _ in 0..n {
        body = app(var("s"), body);
    }
    lam("s", lam("z", body))
}

fn plus() -> LTerm {
    let body = app(
        app(var("m"), var("s")),
        app(app(var("n"), var("s")), var("z")),
    );
    lam("m", lam("n", lam("s", lam("z", body))))
}

fn times() -> LTerm {
    let body = app(var("m"), app(var("n"), var("s")));
    lam("m", lam("n", lam("s", body)))
}

fn queries() -> Vec<Query> {
    let id = lam("x", var("x"));
    let k = lam("x", lam("y", var("x")));
    let s = lam(
        "x",
        lam(
            "y",
            lam("z", app(app(var("x"), var("z")), app(var("y"), var("z")))),
        ),
    );
    let omega = lam("x", app(var("x"), var("x")));
    let twice = lam("f", lam("x", app(var("f"), app(var("f"), var("x")))));
    let flip = lam("x", lam("y", app(var("y"), var("x"))));
    let mut qs = vec![
        typing(&id),
        typing(&k),
        typing(&s),
        typing(&omega),
        typing(&twice),
        typing(&flip),
        typing(&app(id.clone(), k.clone())),
        typing(&app(omega.clone(), id.clone())),
        typing(&app(app(plus(), numeral(1)), numeral(2))),
        typing(&app(twice.clone(), twice.clone())),
        evaluation(&app(id.clone(), k.clone())),
        evaluation(&app(app(plus(), numeral(2)), numeral(1))),
        evaluation(&app(app(times(), numeral(2)), numeral(2))),
        evaluation(&app(app(plus(), numeral(1)), numeral(1))),
        evaluation(&app(app(k.clone(), id.clone()), omega.clone())),
        preservation(&app(twice.clone(), id.clone())),
        preservation(&app(app(k.clone(), id.clone()), k.clone())),
        preservation(&app(app(plus(), numeral(1)), numeral(2))),
        preservation(&app(omega.clone(), id.clone())),
    ];
    // Generated closed λ-terms: most are ill-typed, so the failure
    // paths of typing (and of preservation's first goal) run too.
    let mut rng = SmallRng::seed_from_u64(0x6c70_6f72);
    for i in 0..12 {
        let e = lambda::gen_closed(&mut rng, 4 + i % 5);
        qs.push(typing(&e));
    }
    for _ in 0..4 {
        let f = lambda::gen_closed(&mut rng, 5);
        let x = lambda::gen_closed(&mut rng, 3);
        qs.push(preservation(&app(f, x)));
    }
    qs
}

/// Renders a term with de Bruijn indices (`#i`) and metavariables
/// numbered by first occurrence across one answer (`?0`, `?1`, …).
fn render(t: &Term, metas: &mut Vec<MVar>, out: &mut String) {
    match t {
        Term::Var(i) => out.push_str(&format!("#{i}")),
        Term::Const(c) => out.push_str(c.as_str()),
        Term::Meta(m) => {
            let k = metas.iter().position(|n| n == m).unwrap_or_else(|| {
                metas.push(m.clone());
                metas.len() - 1
            });
            out.push_str(&format!("?{k}"));
        }
        Term::Int(n) => out.push_str(&n.to_string()),
        Term::Unit => out.push_str("()"),
        Term::Lam(_, b) => {
            out.push_str("(λ ");
            render(b, metas, out);
            out.push(')');
        }
        Term::App(f, a) => {
            out.push('(');
            render(f, metas, out);
            out.push(' ');
            render(a, metas, out);
            out.push(')');
        }
        Term::Pair(a, b) => {
            out.push('<');
            render(a, metas, out);
            out.push_str(", ");
            render(b, metas, out);
            out.push('>');
        }
        Term::Fst(p) | Term::Snd(p) => {
            out.push_str(if matches!(t, Term::Fst(_)) {
                "fst "
            } else {
                "snd "
            });
            render(p, metas, out);
        }
    }
}

fn render_outcome(out: &Outcome) -> String {
    let mut answers: Vec<String> = out
        .answers
        .iter()
        .map(|a| {
            let mut metas = Vec::new();
            let mut s = String::new();
            for (i, (m, t)) in a.bindings.iter().enumerate() {
                if i > 0 {
                    s.push_str(", ");
                }
                s.push_str(&format!("{} = ", m.hint()));
                render(t, &mut metas, &mut s);
            }
            if s.is_empty() {
                s.push_str("yes");
            }
            s
        })
        .collect();
    answers.sort();
    if answers.is_empty() {
        "no".to_string()
    } else {
        answers.join(" | ")
    }
}

const TABLE_MODES: [TableMode; 3] = [TableMode::Off, TableMode::Force, TableMode::Certified];

/// Runs every query under one configuration against one table set (as
/// the benchmark does), returning the rendered answers per query and
/// the summed table counters.
fn run(
    prog: &Program,
    cert: &hoas::lp::ProgramCert,
    qs: &[Query],
    table: TableMode,
) -> (Vec<String>, TableStats, usize) {
    let cfg = SolveConfig {
        max_depth: 4096,
        fuel: 5_000_000,
        table,
        ..SolveConfig::default()
    };
    let mut tables = SolveTables::for_program(prog);
    let mut stats = TableStats::default();
    let mut cut = 0;
    let rendered = qs
        .iter()
        .map(|q| {
            let out = solve_with(prog, &q.menv, &q.goal, &cfg, Some(cert), &mut tables).unwrap();
            stats.merge(&out.tables);
            cut += usize::from(out.incomplete() || out.floundered);
            render_outcome(&out)
        })
        .collect();
    (rendered, stats, cut)
}

#[test]
fn every_configuration_reproduces_the_golden_answers_and_counters() {
    StoreHandle::isolated().enter(|| {
        let prog = stlc_eval_program();
        let cert = modes::analyze_program(&prog).cert;
        let qs = queries();
        let mut lines = Vec::new();
        let mut reference: Option<Vec<String>> = None;
        for table in TABLE_MODES {
            let (answers, stats, cut) = run(&prog, &cert, &qs, table);
            match &reference {
                None => {
                    for (i, a) in answers.iter().enumerate() {
                        lines.push(format!("query {i:2}: {a}"));
                    }
                    reference = Some(answers);
                }
                Some(want) => {
                    for (i, (got, want)) in answers.iter().zip(want).enumerate() {
                        assert_eq!(got, want, "{table:?}: query {i}");
                    }
                }
            }
            lines.push(format!("{table:?}: {}", counters(&stats, cut)));
        }
        check_golden("lp_oracle.golden", &lines);
    })
}

fn counters(stats: &TableStats, cut: usize) -> String {
    format!(
        "hits={} variant_misses={} suspensions={} answers_inserted={} answers_reused={} \
         inconclusive={cut}",
        stats.hits,
        stats.variant_misses,
        stats.suspensions,
        stats.answers_inserted,
        stats.answers_reused,
    )
}

/// Compares `lines` with `tests/golden/<name>`, or rewrites the file
/// under `HOAS_UPDATE_GOLDEN`.
fn check_golden(name: &str, lines: &[String]) {
    let body = lines.join("\n") + "\n";
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var("HOAS_UPDATE_GOLDEN").is_ok() {
        std::fs::write(&path, &body).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden file {path:?} ({e}); run with HOAS_UPDATE_GOLDEN=1")
    });
    assert_eq!(body, want, "solver answers or table counters drifted");
}

/// Each challenge problem under every table mode, with the mode
/// analysis's certificate, and uncertified with tabling off: every
/// configuration gives each query the same answers, and forced tabling
/// runs generators. The sizes are small so that the untabled searches
/// stay fast in a debug build; `report` (E11) times larger
/// instances of the tabling challenges.
#[test]
fn challenge_problems_reproduce_the_golden_answers_under_every_configuration() {
    StoreHandle::isolated().enter(|| {
        let challenges: [Challenge; 6] = [
            examples::reach_fail(4),
            examples::fold_shared(4),
            examples::preserve(),
            examples::ol_translate(3),
            examples::eval_chain(8),
            examples::append_deep(16),
        ];
        let mut lines = Vec::new();
        for c in &challenges {
            let cert = modes::analyze_program(&c.prog).cert;
            let configs = TABLE_MODES.map(|t| (t, Some(&cert), format!("{t:?}")));
            let uncertified = (TableMode::Off, None, "Off uncertified".to_string());
            let mut reference: Option<Vec<String>> = None;
            for (table, cert, label) in [uncertified].into_iter().chain(configs) {
                let outs = c.solve(table, cert).unwrap();
                let mut stats = TableStats::default();
                let mut cut = 0;
                for out in &outs {
                    stats.merge(&out.tables);
                    cut += usize::from(out.incomplete() || out.floundered);
                }
                let answers: Vec<String> = outs.iter().map(render_outcome).collect();
                match &reference {
                    None => {
                        for (i, a) in answers.iter().enumerate() {
                            lines.push(format!("{} query {i}: {a}", c.name));
                        }
                        reference = Some(answers);
                    }
                    Some(want) => assert_eq!(&answers, want, "{} {label}", c.name),
                }
                if table == TableMode::Force {
                    assert!(
                        stats.variant_misses > 0,
                        "{}: Force ran no generator",
                        c.name
                    );
                }
                lines.push(format!("{} {label}: {}", c.name, counters(&stats, cut)));
            }
        }
        check_golden("lp_challenges.golden", &lines);
    })
}
