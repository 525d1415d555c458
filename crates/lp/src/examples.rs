//! Canonical λProlog-style programs over HOAS encodings.
//!
//! The star is [`stlc_program`]: a type checker for the simply typed
//! λ-calculus in **two clauses**, with the context, weakening, and
//! freshness all handled by `Π`/`⇒` and the metalanguage's binders.

use crate::program::{Clause, Goal, Program};
use hoas_core::sig::Signature;
use hoas_core::{Sym, Term, Ty};

/// Lists over individuals with the classic `append/3`.
///
/// ```text
/// append nil ?Y ?Y.
/// append (cons ?X ?XS) ?Y (cons ?X ?ZS) :- append ?XS ?Y ?ZS.
/// ```
pub fn append_program() -> Program {
    let sig = Signature::parse(
        "type i.
         type o.
         const nil : i.
         const cons : i -> i -> i.
         const a : i.
         const b : i.
         const c : i.
         const append : i -> i -> i -> o.",
    )
    .expect("well-formed signature");
    let mut prog = Program::new(sig);
    prog.push(Clause::parse(prog.sig(), &[("Y", "i")], "append nil ?Y ?Y", &[]).expect("clause"));
    prog.push(
        Clause::parse(
            prog.sig(),
            &[("X", "i"), ("XS", "i"), ("Y", "i"), ("ZS", "i")],
            "append (cons ?X ?XS) ?Y (cons ?X ?ZS)",
            &["append ?XS ?Y ?ZS"],
        )
        .expect("clause"),
    );
    prog
}

/// The simply typed λ-calculus type checker — the paper's (and
/// λProlog's) signature demo.
///
/// ```text
/// of (app ?M ?N) ?B :- of ?M (arr ?A ?B), of ?N ?A.
/// of (lam ?F) (arr ?A ?B) :- pi x:tm. (of x ?A => of (?F x) ?B).
/// ```
///
/// Note what is *absent*: no typing-context data structure, no lookup
/// relation, no weakening or substitution lemmas. `Π` introduces the
/// fresh object variable, `⇒` records its type, and the metalanguage
/// β-reduces `?F x` to enter the binder's scope.
pub fn stlc_program() -> Program {
    let sig = Signature::parse(
        "type tm.
         type tp.
         type o.
         const arr : tp -> tp -> tp.
         const base : tp.
         const lam : (tm -> tm) -> tm.
         const app : tm -> tm -> tm.
         const of : tm -> tp -> o.",
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
        let mut t = hoas_core::parse::MetaTable::new();
        t.get_or_insert("F");
        t.get_or_insert("A");
        t.get_or_insert("B");
        t
    };
    let head = hoas_core::parse::parse_term_with(prog.sig(), "of (lam ?F) (arr ?A ?B)", table)
        .expect("parses");
    let table = head.metas.clone();
    let f = table.get("F").expect("F").clone();
    let a = table.get("A").expect("A").clone();
    let b = table.get("B").expect("B").clone();
    let tm = Ty::base("tm");
    let hyp = Clause {
        vars: vec![],
        // of x ?A, with x the Π-bound variable (goal-level Var 0).
        head: Term::apps(Term::cnst("of"), [Term::Var(0), Term::Meta(a.clone())]),
        body: Goal::True,
    };
    let concl = Goal::Atom(Term::apps(
        Term::cnst("of"),
        [
            Term::app(Term::Meta(f.clone()), Term::Var(0)),
            Term::Meta(b.clone()),
        ],
    ));
    let lam_clause = Clause {
        vars: vec![
            (Sym::new("F"), Ty::arrow(tm.clone(), tm.clone())),
            (Sym::new("A"), Ty::base("tp")),
            (Sym::new("B"), Ty::base("tp")),
        ],
        head: head.term,
        body: Goal::pi("x", tm, Goal::implies(hyp, concl)),
    };
    debug_assert_eq!(f.id(), 0);
    debug_assert_eq!(a.id(), 1);
    debug_assert_eq!(b.id(), 2);
    prog.push(lam_clause);
    prog
}

/// Call-by-value evaluation for the untyped λ-calculus:
///
/// ```text
/// eval (lam ?F) (lam ?F).
/// eval (app ?M ?N) ?V :- eval ?M (lam ?F), eval ?N ?U, eval (?F ?U) ?V.
/// ```
///
/// `?F ?U` is the whole interpreter's substitution machinery.
pub fn eval_program() -> Program {
    let sig = Signature::parse(
        "type tm.
         type o.
         const lam : (tm -> tm) -> tm.
         const app : tm -> tm -> tm.
         const eval : tm -> tm -> o.",
    )
    .expect("well-formed signature");
    let mut prog = Program::new(sig);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solve::{query_menv, solve, SolveConfig};
    use hoas_core::{MVar, StoreHandle, TermRef};

    /// A metavariable's hint is the first one interned for its id, so
    /// clauses must print their variables by the names they declare.
    #[test]
    fn clauses_print_with_their_declared_names() {
        StoreHandle::isolated().enter(|| {
            let _decoys: Vec<TermRef> = (0..5)
                .map(|i| TermRef::new(Term::Meta(MVar::new(i, format!("D{i}")))))
                .collect();
            let printed = |prog: Program| -> Vec<String> {
                prog.clauses().iter().map(Clause::to_string).collect()
            };
            assert_eq!(
                printed(append_program()),
                [
                    "append nil ?Y ?Y",
                    "append (cons ?X ?XS) ?Y (cons ?X ?ZS) :- append ?XS ?Y ?ZS",
                ]
            );
            assert_eq!(
                printed(stlc_program()),
                [
                    "of (app ?M ?N) ?B :- (of ?M (arr ?A ?B), of ?N ?A)",
                    "of (lam ?F) (arr ?A ?B) :- (pi x:tm. (of x ?A => of (?F x) ?B))",
                ]
            );
            assert_eq!(
                printed(eval_program()),
                [
                    "eval (lam ?F) (lam ?F)",
                    "eval (app ?M ?N) ?V :- ((eval ?M (lam ?F), eval ?N ?U), eval (?F ?U) ?V)",
                ]
            );
        })
    }

    #[test]
    fn stlc_infers_identity() {
        let prog = stlc_program();
        let (goal, menv) = query_menv(prog.sig(), r"of (lam (\x. x)) ?T", &[("T", "tp")]).unwrap();
        let out = solve(&prog, &menv, &goal, &SolveConfig::default()).unwrap();
        assert_eq!(out.answers.len(), 1);
        // Principal shape: arr ?A ?A (A stays free).
        let t = out.answers[0].get("T").unwrap();
        let printed = t.to_string();
        assert!(
            printed.starts_with("arr ?") && {
                let parts: Vec<&str> = printed.split_whitespace().collect();
                parts.len() == 3 && parts[1] == parts[2]
            },
            "expected arr ?A ?A, got {printed}"
        );
    }

    #[test]
    fn stlc_infers_k_combinator() {
        let prog = stlc_program();
        let (goal, menv) =
            query_menv(prog.sig(), r"of (lam (\x. lam (\y. x))) ?T", &[("T", "tp")]).unwrap();
        let out = solve(&prog, &menv, &goal, &SolveConfig::default()).unwrap();
        assert_eq!(out.answers.len(), 1);
        // arr ?A (arr ?B ?A)
        let t = out.answers[0].get("T").unwrap().to_string();
        let parts: Vec<&str> = t
            .split(|c: char| !c.is_alphanumeric() && c != '?')
            .filter(|s| !s.is_empty())
            .collect();
        assert_eq!(parts[0], "arr");
        assert_eq!(parts[1], parts[4], "K : arr ?A (arr ?B ?A), got {t}");
    }

    #[test]
    fn stlc_checks_application() {
        let prog = stlc_program();
        // (λf. λx. f x) : (base -> base) -> base -> base — check against
        // a concrete type by putting it in the query.
        let (goal, menv) = query_menv(
            prog.sig(),
            r"of (lam (\f. lam (\x. app f x))) (arr (arr base base) (arr base base))",
            &[],
        )
        .unwrap();
        let out = solve(&prog, &menv, &goal, &SolveConfig::default()).unwrap();
        assert_eq!(out.answers.len(), 1);
    }

    #[test]
    fn stlc_rejects_self_application() {
        let prog = stlc_program();
        let (goal, menv) =
            query_menv(prog.sig(), r"of (lam (\x. app x x)) ?T", &[("T", "tp")]).unwrap();
        let cfg = SolveConfig {
            max_depth: 64,
            ..SolveConfig::default()
        };
        let out = solve(&prog, &menv, &goal, &cfg).unwrap();
        assert!(out.answers.is_empty(), "λx. x x must not type-check");
    }

    #[test]
    fn stlc_open_terms_do_not_leak_eigenvariables() {
        let prog = stlc_program();
        // of (lam (\x. lam (\y. y))) ?T has answers; the answer's term
        // must be closed and mention only signature constants. (An
        // eigenvariable is a free de Bruijn variable while its `pi` is
        // in scope, so a leaked one would show as a free variable.)
        let (goal, menv) =
            query_menv(prog.sig(), r"of (lam (\x. lam (\y. y))) ?T", &[("T", "tp")]).unwrap();
        let out = solve(&prog, &menv, &goal, &SolveConfig::default()).unwrap();
        let t = out.answers[0].get("T").unwrap();
        assert_eq!(t.max_free(), 0, "eigenvariable leaked into the answer: {t}");
        for c in t.constants() {
            assert!(
                prog.sig().const_ty(c.as_str()).is_some(),
                "undeclared constant in the answer: {t}"
            );
        }
    }

    #[test]
    fn eval_runs_beta_via_clause_body() {
        let prog = eval_program();
        // eval ((λx. x) (λy. λz. y)) ?V
        let (goal, menv) = query_menv(
            prog.sig(),
            r"eval (app (lam (\x. x)) (lam (\y. lam (\z. y)))) ?V",
            &[("V", "tm")],
        )
        .unwrap();
        let out = solve(&prog, &menv, &goal, &SolveConfig::default()).unwrap();
        assert_eq!(out.answers.len(), 1);
        // Compare α-classes (binder hints may differ): Term equality is
        // α-equivalence.
        let expected = hoas_core::parse::parse_term(prog.sig(), r"lam (\y. lam (\z. y))")
            .unwrap()
            .term;
        assert_eq!(out.answers[0].get("V").unwrap(), &expected);
    }

    #[test]
    fn eval_church_arithmetic() {
        let prog = eval_program();
        // (λm. λn. λs. λz. m s (n s z)) 2 1 — evaluates to a value whose
        // full normal form is Church 3; CBV stops at the outer λ, so just
        // check an answer exists and is a λ.
        let (goal, menv) = query_menv(
            prog.sig(),
            r"eval (app (app (lam (\m. lam (\n. lam (\s. lam (\z. app (app m s) (app (app n s) z)))))) (lam (\s. lam (\z. app s (app s z))))) (lam (\s. lam (\z. app s z)))) ?V",
            &[("V", "tm")],
        )
        .unwrap();
        let cfg = SolveConfig {
            max_depth: 2048,
            fuel: 5_000_000,
            ..SolveConfig::default()
        };
        let out = solve(&prog, &menv, &goal, &cfg).unwrap();
        assert_eq!(out.answers.len(), 1);
        assert!(out.answers[0]
            .get("V")
            .unwrap()
            .to_string()
            .starts_with("lam"));
    }

    #[test]
    fn append_program_displays() {
        let prog = append_program();
        let printed = prog.to_string();
        assert!(printed.contains("append nil ?Y ?Y."));
        assert!(printed.contains(":- append ?XS ?Y ?ZS."));
    }
}
