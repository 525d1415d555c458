//! The experiment harness: regenerates every table of EXPERIMENTS.md.
//!
//! Run with `cargo run --release -p hoas-bench --bin report`.
//!
//! Each section corresponds to one experiment (E1–E9) of the per-figure
//! index in DESIGN.md. Numbers are wall-clock medians over several
//! iterations — shapes (who wins, by what factor, where crossovers fall)
//! are the reproduction target, not absolute values.
//!
//! The HOAS timings of E1b, E3, E4 and E8 are cold: each iteration runs
//! in a fresh isolated store with fresh engines and caches (see
//! [`cold`]), so a timed call computes its answer instead of replaying a
//! memo entry left by the previous iteration.

use hoas_bench::{baseline, workloads};
use hoas_core::prelude::*;
use hoas_langs::{fol, imp, lambda, miniml};
use hoas_rewrite::rulesets::{fol_prenex, imp_opt};
use hoas_rewrite::Engine;
use hoas_unify::huet::{pre_unify_terms, HuetConfig};
use hoas_unify::pattern;
use std::time::{Duration, Instant};

fn median(mut xs: Vec<Duration>) -> Duration {
    xs.sort();
    xs[xs.len() / 2]
}

/// Times `f` a few times and reports the median.
fn time(iters: u32, mut f: impl FnMut()) -> Duration {
    let mut samples = Vec::with_capacity(iters as usize);
    for _ in 0..iters {
        let t0 = Instant::now();
        f();
        samples.push(t0.elapsed());
    }
    median(samples)
}

/// The median of `iters` runs of `f`, each in a fresh isolated store:
/// fresh node ids, an empty operation memo, and whatever engines and
/// caches `f` builds. `f` builds its operands, times only the work, and
/// returns that time.
fn cold(iters: u32, mut f: impl FnMut() -> Duration) -> Duration {
    median(
        (0..iters)
            .map(|_| StoreHandle::isolated().enter(&mut f))
            .collect(),
    )
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn main() {
    println!("# HOAS experiment report");
    println!("# (regenerates the tables of EXPERIMENTS.md; shapes matter, not absolutes)\n");
    e1_capture();
    e1_e2_substitution();
    e2_alpha();
    e3_prenex();
    e4_imp_opt();
    e5_typecheck();
    e6_unification();
    e7_encode();
    e8_miniml();
    e9_logic();
}

fn e1_capture() {
    println!("## E1a — naive substitution is wrong (capture rate)");
    println!("{:>8} {:>12} {:>14}", "size", "instances", "naive wrong");
    for size in [16, 64, 256] {
        let mut wrong = 0;
        let n = 200;
        for i in 0..n {
            let inst = workloads::subst_instance(workloads::SEED + i, size);
            // Substitute an OPEN argument whose free variable collides
            // with a binder name ("x1" is a generator binder): naive
            // substitution captures it whenever `subj` occurs under such
            // a binder.
            let open_arg = hoas_firstorder::Tree::var("x1");
            let naive = inst.body_tree.subst_naive("subj", &open_arg);
            let correct = inst.body_tree.subst("subj", &open_arg);
            if !naive.alpha_eq(&correct) {
                wrong += 1;
            }
        }
        println!("{size:>8} {n:>12} {wrong:>13}");
    }
    println!();
}

fn e1_e2_substitution() {
    println!("## E1b/E2 — substitution cost (µs, median)");
    println!(
        "{:>8} {:>14} {:>14} {:>14} {:>14}",
        "size", "named-naive", "named-capture", "de Bruijn", "HOAS (β)"
    );
    for size in [16usize, 64, 256, 1024, 4096] {
        let inst = workloads::subst_instance(workloads::SEED, size);
        let iters = if size >= 1024 { 11 } else { 31 };
        let naive = time(iters, || {
            std::hint::black_box(inst.body_tree.subst_naive("subj", &inst.arg_tree));
        });
        let capture = time(iters, || {
            std::hint::black_box(inst.body_tree.subst("subj", &inst.arg_tree));
        });
        let db = time(iters, || {
            std::hint::black_box(inst.body_db.subst_free("subj", &inst.arg_db));
        });
        let hoas = cold(iters, || {
            let (abs, arg) = inst.hoas();
            let t0 = Instant::now();
            let out = lambda::subst_hoas(&abs, &arg).expect("lam encoding");
            let elapsed = t0.elapsed();
            std::hint::black_box(out);
            elapsed
        });
        println!(
            "{size:>8} {:>14.1} {:>14.1} {:>14.1} {:>14.1}",
            us(naive),
            us(capture),
            us(db),
            us(hoas)
        );
    }
    println!("# expected shape: cold HOAS β pays a fixed interning cost on small terms and grows");
    println!("# slowest (it rebuilds only the spine to each occurrence); named-capture pays for");
    println!("# free-variable sets and renaming.\n");
}

fn e2_alpha() {
    println!("## E2b — α-equivalence cost (µs, median)");
    println!(
        "{:>8} {:>14} {:>14} {:>14}",
        "size", "named", "de Bruijn", "HOAS"
    );
    for size in [64usize, 512, 4096] {
        let inst = workloads::alpha_instance(workloads::SEED, size);
        let a = time(31, || {
            std::hint::black_box(inst.left_tree.alpha_eq(&inst.right_tree));
        });
        let b = time(31, || {
            std::hint::black_box(inst.left_db == inst.right_db);
        });
        let c = time(31, || {
            std::hint::black_box(inst.left_hoas == inst.right_hoas);
        });
        println!("{size:>8} {:>14.2} {:>14.2} {:>14.2}", us(a), us(b), us(c));
    }
    println!("# expected shape: structural equality (de Bruijn/HOAS) beats the renaming-environment comparison.\n");
}

fn e3_prenex() {
    println!("## E3 — prenex normal form: HOAS rule set vs hand-written first-order pass");
    println!(
        "{:>6} {:>10} {:>14} {:>14} {:>10}",
        "depth", "formulas", "rules (µs)", "native (µs)", "rewrites"
    );
    for depth in [3u32, 5, 7] {
        let (vocab, fs) = workloads::formulas(workloads::SEED, depth, 10);
        let sig = vocab.signature();
        let mut steps = 0usize;
        let t_rules = cold(5, || {
            let rules = fol_prenex::rules(&sig).expect("connectives present");
            let engine = Engine::new(&sig, &rules);
            let encoded: Vec<Term> = fs.iter().map(|f| fol::encode(f).expect("closed")).collect();
            steps = 0;
            let t0 = Instant::now();
            for e in &encoded {
                let out = engine.normalize(&fol::o(), e).expect("well-typed");
                steps += out.steps;
                std::hint::black_box(out.term);
            }
            t0.elapsed()
        });
        let t_native = time(5, || {
            for f in &fs {
                std::hint::black_box(baseline::prenex_native(f));
            }
        });
        println!(
            "{depth:>6} {:>10} {:>14.0} {:>14.0} {steps:>10}",
            fs.len(),
            us(t_rules),
            us(t_native)
        );
    }
    println!(
        "# expected shape: the generic engine costs a constant factor over the dedicated pass,"
    );
    println!("# while each binding-sensitive rule is one line instead of a renaming routine.\n");
}

fn e4_imp_opt() {
    println!("## E4 — imperative optimizer: rule set vs native, and node shrinkage");
    println!(
        "{:>6} {:>10} {:>12} {:>12} {:>14} {:>14}",
        "depth", "programs", "nodes in", "nodes out", "rules (µs)", "native (µs)"
    );
    for depth in [3u32, 4, 5] {
        let progs = workloads::imp_programs(workloads::SEED, depth, 10);
        let sig = imp::signature();
        let nodes_in: usize = progs.iter().map(|c| c.size()).sum();
        let mut nodes_out = 0usize;
        let t_rules = cold(3, || {
            let rules = imp_opt::rules(sig).expect("constructors present");
            let engine = Engine::new(sig, &rules);
            let encoded: Vec<Term> = progs
                .iter()
                .map(|c| imp::encode(c).expect("bound"))
                .collect();
            nodes_out = 0;
            let t0 = Instant::now();
            for e in &encoded {
                let out = engine.normalize(&imp::cmd_ty(), e).expect("well-typed");
                nodes_out += imp::decode(&out.term).expect("canonical").size();
            }
            t0.elapsed()
        });
        let t_native = time(3, || {
            for c in &progs {
                std::hint::black_box(baseline::optimize_imp_native(c));
            }
        });
        println!(
            "{depth:>6} {:>10} {nodes_in:>12} {nodes_out:>12} {:>14.0} {:>14.0}",
            progs.len(),
            us(t_rules),
            us(t_native)
        );
    }
    println!();
}

fn e5_typecheck() {
    println!("## E5 — type checking / reconstruction throughput (µs per term, median)");
    println!(
        "{:>8} {:>16} {:>16}",
        "size", "bidirectional", "reconstruction"
    );
    let sig = lambda::signature();
    for size in [64usize, 256, 1024, 4096] {
        let terms = workloads::lambda_encodings(workloads::SEED, size, 8);
        let t_check = time(11, || {
            for (_, e) in &terms {
                typeck::check_closed(sig, e, &lambda::tm()).expect("well-typed");
            }
        });
        let t_infer = time(11, || {
            for (_, e) in &terms {
                std::hint::black_box(infer::reconstruct(sig, e).expect("well-typed"));
            }
        });
        println!(
            "{size:>8} {:>16.1} {:>16.1}",
            us(t_check) / terms.len() as f64,
            us(t_infer) / terms.len() as f64
        );
    }
    println!(
        "# expected shape: both linear-ish in term size; reconstruction pays for unification.\n"
    );
}

fn e6_unification() {
    println!("## E6a — pattern unification (µs, median) and Huet on the same problems");
    println!("{:>6} {:>14} {:>14}", "depth", "pattern (µs)", "huet (µs)");
    for depth in [3u32, 5, 7] {
        let (sig, menv, pat, target) = workloads::pattern_problem(workloads::SEED, depth);
        let t_pat = time(21, || {
            std::hint::black_box(
                pattern::unify(&sig, &menv, &Ty::base("o"), &pat, &target).expect("solvable"),
            );
        });
        let cfg = HuetConfig {
            max_solutions: 1,
            ..HuetConfig::default()
        };
        let t_huet = time(21, || {
            let out = pre_unify_terms(&sig, &menv, &Ty::base("o"), &pat, &target, &cfg)
                .expect("well-formed");
            assert!(!out.solutions.is_empty());
        });
        println!("{depth:>6} {:>14.1} {:>14.1}", us(t_pat), us(t_huet));
    }
    println!("\n## E6b — Huet search on non-pattern problems `?F a ≐ p (g a (g a (… a)))`, d+1 occurrences");
    println!("{:>6} {:>12} {:>14}", "d", "solutions", "time (µs)");
    for d in [1u32, 3, 5, 7] {
        let (sig, menv, pat, target) = workloads::huet_problem(d);
        let cfg = HuetConfig {
            max_depth: 2 * d + 6,
            max_solutions: 64,
            fuel: 10_000_000,
        };
        let mut n_solutions = 0usize;
        let t = time(5, || {
            let out = pre_unify_terms(&sig, &menv, &Ty::base("o"), &pat, &target, &cfg)
                .expect("well-formed");
            n_solutions = out.solutions.len();
        });
        println!("{d:>6} {n_solutions:>12} {:>14.0}", us(t));
    }
    println!(
        "# expected shape: pattern unification is near-linear; Huet's solution count and time"
    );
    println!("# grow exponentially with d (2^d imitation/projection choices) — why the decidable");
    println!("# pattern fragment is the default path.\n");
}

fn e7_encode() {
    println!("## E7 — encode/decode adequacy round trip (µs per term, median)");
    println!(
        "{:>8} {:>12} {:>12} {:>14}",
        "size", "encode", "decode", "bridge-encode"
    );
    let def = hoas_syntaxdef::LanguageDef::new("lc")
        .sort("tm")
        .prod("lam", "tm", [hoas_syntaxdef::Arg::binding("tm", "tm")])
        .prod(
            "app",
            "tm",
            [
                hoas_syntaxdef::Arg::sort("tm"),
                hoas_syntaxdef::Arg::sort("tm"),
            ],
        );
    for size in [64usize, 256, 1024] {
        let terms = workloads::lambda_encodings(workloads::SEED, size, 8);
        let trees: Vec<_> = terms.iter().map(|(t, _)| lambda::to_tree(t)).collect();
        let t_enc = time(11, || {
            for (t, _) in &terms {
                std::hint::black_box(lambda::encode(t).expect("closed"));
            }
        });
        let t_dec = time(11, || {
            for (_, e) in &terms {
                std::hint::black_box(lambda::decode(e).expect("canonical"));
            }
        });
        let t_bridge = time(11, || {
            for tree in &trees {
                std::hint::black_box(
                    hoas_syntaxdef::encode(&def, "tm", tree).expect("well-sorted"),
                );
            }
        });
        println!(
            "{size:>8} {:>12.1} {:>12.1} {:>14.1}",
            us(t_enc) / terms.len() as f64,
            us(t_dec) / terms.len() as f64,
            us(t_bridge) / terms.len() as f64
        );
    }
    println!("# expected shape: all linear; the generic bridge is within a small factor of the");
    println!("# hand-written encoder.\n");
}

fn e9_logic() {
    use hoas_lp::examples::{append_program, stlc_program};
    use hoas_lp::solve::{query_menv, solve, SolveConfig};
    println!("## E9 — λProlog-style resolution over HOAS (µs, median)");
    println!("{:>24} {:>12} {:>12}", "query", "answers", "time (µs)");
    let prog = append_program();
    for n in [4usize, 16, 64] {
        let mut list = String::from("nil");
        for _ in 0..n {
            list = format!("cons a ({list})");
        }
        let (goal, menv) = query_menv(
            prog.sig(),
            &format!("append ({list}) nil ?Z"),
            &[("Z", "i")],
        )
        .expect("parses");
        let mut answers = 0;
        let t = time(11, || {
            let out = solve(&prog, &menv, &goal, &SolveConfig::default()).expect("well-formed");
            answers = out.answers.len();
        });
        println!(
            "{:>24} {answers:>12} {:>12.0}",
            format!("append [a;{n}] nil ?Z"),
            us(t)
        );
    }
    let prog = stlc_program();
    for n in [2u32, 8, 16] {
        let mut term = String::from("x0");
        for i in (0..n).rev() {
            term = format!(r"lam (\x{i}. {term})");
        }
        let (goal, menv) =
            query_menv(prog.sig(), &format!("of ({term}) ?T"), &[("T", "tp")]).expect("parses");
        let mut answers = 0;
        let t = time(11, || {
            let out = solve(&prog, &menv, &goal, &SolveConfig::default()).expect("well-formed");
            answers = out.answers.len();
        });
        println!(
            "{:>24} {answers:>12} {:>12.0}",
            format!("of (λ^{n}. x0) ?T"),
            us(t)
        );
    }
    println!("# expected shape: resolution steps are linear in list length / binder depth.\n");
}

fn e8_miniml() {
    println!("## E8 — Mini-ML evaluation: substitution (native AST vs HOAS β) vs environment machine (ms, median)");
    println!(
        "{:>12} {:>12} {:>12} {:>12} {:>8}",
        "program", "native", "HOAS", "env-machine", "value"
    );
    for (name, prog) in workloads::miniml_programs() {
        let mut value = 0u64;
        let t_native = time(3, || {
            let mut fuel = 50_000_000;
            let v = miniml::eval_native(&prog, &mut fuel).expect("terminates");
            value = v.as_num().expect("numeral");
        });
        let t_hoas = cold(3, || {
            let encoded = miniml::encode(&prog).expect("closed");
            let mut fuel = 50_000_000;
            let t0 = Instant::now();
            let v = miniml::eval_hoas(&encoded, &mut fuel).expect("terminates");
            let elapsed = t0.elapsed();
            std::hint::black_box(v);
            elapsed
        });
        let t_env = time(3, || {
            let mut fuel = 50_000_000;
            let v = miniml::eval_env(&prog, &mut fuel).expect("terminates");
            assert_eq!(v.as_num(), Some(value));
        });
        println!(
            "{name:>12} {:>12.2} {:>12.2} {:>12.2} {value:>8}",
            t_native.as_secs_f64() * 1e3,
            t_hoas.as_secs_f64() * 1e3,
            t_env.as_secs_f64() * 1e3
        );
    }
    println!("# expected shape: the HOAS evaluator is no slower than native substitution (the");
    println!("# paper's claim: HOAS deletes the substitution code at no asymptotic cost); the");
    println!("# environment machine beats both, as it would in any representation.\n");
}
