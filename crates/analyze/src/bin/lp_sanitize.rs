//! `lp-sanitize` — run the bundled λProlog examples through the
//! certified solver and check it agrees with the uncertified one.
//!
//! CI runs this binary in the *debug* profile, where the dynamic mode
//! sanitizer inside `solve_certified` is live: every call whose inputs
//! are ground under an inferred mode re-verifies at exit that its
//! outputs are ground, and a violation panics citing `HA018`. A clean
//! exit therefore means the static mode verdicts survived contact with
//! the actual search on every bundled example.

use hoas_analyze::modes;
use hoas_lp::solve::{query_menv, solve, solve_certified, SolveConfig};
use hoas_lp::{examples, Program};

fn check(name: &str, prog: &Program, query: &str, vars: &[(&str, &str)]) -> Result<usize, String> {
    let outcome = modes::analyze_program(prog);
    let mut preds: Vec<_> = outcome.preds.iter().collect();
    preds.sort_by(|a, b| a.0.as_str().cmp(b.0.as_str()));
    for (pred, report) in preds {
        let verdict = if report.table {
            "tabling-eligible (HA021)"
        } else {
            "not tabling-eligible"
        };
        println!("{name}: {pred} — {verdict}");
    }
    let (goal, menv) =
        query_menv(prog.sig(), query, vars).map_err(|e| format!("{name}: bad query: {e}"))?;
    let cfg = SolveConfig {
        max_solutions: 8,
        ..SolveConfig::default()
    };
    let plain = solve(prog, &menv, &goal, &cfg).map_err(|e| format!("{name}: {e}"))?;
    let certified = solve_certified(prog, &menv, &goal, &cfg, &outcome.cert)
        .map_err(|e| format!("{name}: {e}"))?;
    if plain.answers.len() != certified.answers.len() {
        return Err(format!(
            "{name}: certified search returned {} answer(s), uncertified {}",
            certified.answers.len(),
            plain.answers.len()
        ));
    }
    for (a, b) in plain.answers.iter().zip(&certified.answers) {
        // Unsolved metavariables in an answer are universally free, and
        // the two searches allocate fresh ones at different counter
        // positions — compare up to that renaming.
        if canon(&a.to_string()) != canon(&b.to_string()) {
            return Err(format!("{name}: answers diverge: `{a}` vs `{b}`"));
        }
    }
    Ok(plain.answers.len())
}

/// Renames every `?name` token to `?m0`, `?m1`, … by first occurrence,
/// so two printouts differing only in fresh-metavariable hints compare
/// equal.
fn canon(printed: &str) -> String {
    let mut out = String::with_capacity(printed.len());
    let mut names: Vec<String> = Vec::new();
    let mut chars = printed.chars().peekable();
    while let Some(c) = chars.next() {
        if c != '?' {
            out.push(c);
            continue;
        }
        let mut name = String::new();
        while let Some(&n) = chars.peek() {
            if n.is_alphanumeric() || n == '_' || n == '\'' {
                name.push(n);
                chars.next();
            } else {
                break;
            }
        }
        let idx = match names.iter().position(|n| *n == name) {
            Some(i) => i,
            None => {
                names.push(name);
                names.len() - 1
            }
        };
        out.push_str(&format!("?m{idx}"));
    }
    out
}

fn main() {
    let sanitizer = if cfg!(debug_assertions) {
        "live"
    } else {
        "compiled out (release profile)"
    };
    println!("dynamic mode sanitizer: {sanitizer}");
    #[allow(clippy::type_complexity)]
    let cases: Vec<(&str, Program, &str, &[(&str, &str)])> = vec![
        (
            "lp-append",
            examples::append_program(),
            "append (cons a (cons b nil)) (cons c nil) ?Z",
            &[("Z", "i")],
        ),
        (
            "lp-stlc",
            examples::stlc_program(),
            r"of (lam (\f. lam (\x. app f x))) ?T",
            &[("T", "tp")],
        ),
        (
            "lp-eval",
            examples::eval_program(),
            r"eval (app (lam (\x. x)) (lam (\y. lam (\z. y)))) ?V",
            &[("V", "tm")],
        ),
    ];
    let mut failures = 0;
    for (name, prog, query, vars) in &cases {
        match check(name, prog, query, vars) {
            Ok(n) => println!("{name}: ok — {n} answer(s), certified and uncertified agree"),
            Err(e) => {
                eprintln!("{e}");
                failures += 1;
            }
        }
    }
    if failures > 0 {
        std::process::exit(1);
    }
}
