//! E10 — engine-enforced determinacy: certified vs uncertified solving
//! on subgoal-heavy ground queries (a McDowell–Miller-style suite: deep
//! conjunction trees where every atom is first-argument indexed).
//!
//! The committed-choice verdict lets [`hoas_lp::solve_certified`] commit
//! to the first matching clause instead of cloning the whole solver
//! state per candidate; each `paired` benchmark runs the same query both
//! ways so the speedup is visible side by side.

use hoas_analyze::modes;
use hoas_lp::examples::{append_program, eval_program};
use hoas_lp::solve::{query_menv, solve, solve_certified, SolveConfig};
use hoas_testkit::bench::{BenchmarkId, Criterion};
use hoas_testkit::{criterion_group, criterion_main};

fn bench_eval_chain(c: &mut Criterion) {
    let prog = eval_program();
    let cert = modes::analyze_program(&prog).cert;
    let mut group = c.benchmark_group("lp-det");
    let cfg = SolveConfig {
        max_depth: 4096,
        ..SolveConfig::default()
    };
    for n in [8usize, 32] {
        // ((λx. x) ((λx. x) (… K))) — every redex spawns three eval
        // subgoals, and every call is ground in argument 0.
        let mut t = String::from(r"lam (\y. lam (\z. y))");
        for _ in 0..n {
            t = format!(r"app (lam (\x. x)) ({t})");
        }
        let (goal, menv) =
            query_menv(prog.sig(), &format!("eval ({t}) ?V"), &[("V", "tm")]).unwrap();
        group.bench_with_input(BenchmarkId::new("eval-chain", n), &n, |b, _| {
            b.iter(|| {
                let out = solve(&prog, &menv, &goal, &cfg).unwrap();
                assert_eq!(out.answers.len(), 1);
            })
        });
        group.bench_with_input(BenchmarkId::new("eval-chain-certified", n), &n, |b, _| {
            b.iter(|| {
                let out = solve_certified(&prog, &menv, &goal, &cfg, &cert).unwrap();
                assert_eq!(out.answers.len(), 1);
            })
        });
    }
    group.finish();
}

fn bench_append_deep(c: &mut Criterion) {
    let prog = append_program();
    let cert = modes::analyze_program(&prog).cert;
    let mut group = c.benchmark_group("lp-det");
    for n in [16usize, 64] {
        let mut list = String::from("nil");
        for _ in 0..n {
            list = format!("cons a ({list})");
        }
        let (goal, menv) = query_menv(
            prog.sig(),
            &format!("append ({list}) nil ?Z"),
            &[("Z", "i")],
        )
        .unwrap();
        let cfg = SolveConfig {
            max_depth: (4 * n + 16) as u32,
            ..SolveConfig::default()
        };
        group.bench_with_input(BenchmarkId::new("append-deep", n), &n, |b, _| {
            b.iter(|| {
                let out = solve(&prog, &menv, &goal, &cfg).unwrap();
                assert_eq!(out.answers.len(), 1);
            })
        });
        group.bench_with_input(BenchmarkId::new("append-deep-certified", n), &n, |b, _| {
            b.iter(|| {
                let out = solve_certified(&prog, &menv, &goal, &cfg, &cert).unwrap();
                assert_eq!(out.answers.len(), 1);
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_eval_chain, bench_append_deep);
criterion_main!(benches);
