//! Canonical λProlog-style programs over HOAS encodings.
//!
//! The star is [`stlc_program`]: a type checker for the simply typed
//! λ-calculus in **two clauses**, with the context, weakening, and
//! freshness all handled by `Π`/`⇒` and the metalanguage's binders.
//!
//! The [`Challenge`] problems pair a program with its queries and the
//! budgets its untabled search needs. They are the one copy of each
//! problem that the configuration-matrix oracle (`tests/lp_oracle.rs`)
//! pins answers for; `report` times some of them (E11).

use crate::cert::ProgramCert;
use crate::program::{Clause, Goal, Program};
use crate::solve::{query_menv, solve_with, LpError, Outcome, SolveConfig};
use crate::table::{SolveTables, TableMode};
use hoas_core::sig::Signature;
use hoas_core::term::MetaEnv;
use hoas_core::{Sym, Term, Ty};

/// Parses a clause head whose variables `vars` (name, type) take
/// metavariable ids in declaration order, as [`Clause::parse`] does.
/// Returns the clause with an empty body, and each variable's
/// metavariable for building a structured (`Π`, `⇒`) body.
fn parse_head<const N: usize>(
    sig: &Signature,
    vars: [(&str, &str); N],
    head: &str,
) -> (Clause, [Term; N]) {
    let mut table = hoas_core::parse::MetaTable::new();
    for (v, _) in vars {
        table.get_or_insert(v);
    }
    let parsed = hoas_core::parse::parse_term_with(sig, head, table).expect("parses");
    let metas = vars.map(|(v, _)| Term::Meta(parsed.metas.get(v).expect("declared").clone()));
    let ty = |t| hoas_core::parse::parse_ty(t).expect("well-formed type");
    let vars = vars.iter().map(|&(v, t)| (Sym::new(v), ty(t))).collect();
    (Clause::fact(vars, parsed.term), metas)
}

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
    let vars = [("F", "tm -> tm"), ("A", "tp"), ("B", "tp")];
    let (mut lam, [f, a, b]) = parse_head(prog.sig(), vars, "of (lam ?F) (arr ?A ?B)");
    let of = |e: Term, t: Term| Term::apps(Term::cnst("of"), [e, t]);
    // of x ?A, with x the Π-bound variable (goal-level Var 0).
    let hyp = Clause::fact(vec![], of(Term::Var(0), a));
    let concl = Goal::Atom(of(Term::app(f, Term::Var(0)), b));
    lam.body = Goal::pi("x", Ty::base("tm"), Goal::implies(hyp, concl));
    prog.push(lam);
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

/// [`stlc_program`] and [`eval_program`] in one program, so that one
/// query can type a term, evaluate it and type its value.
pub fn stlc_eval_program() -> Program {
    let (stlc, eval) = (stlc_program(), eval_program());
    let mut sig = stlc.sig().clone();
    sig.merge(eval.sig()).expect("the signatures agree on `tm`");
    let mut prog = Program::new(sig);
    for c in stlc.clauses().iter().chain(eval.clauses()) {
        prog.push(c.clone());
    }
    prog
}

/// Reachability over a diamond ladder: `n(i)` reaches `n(i+1)` through
/// both `a(i)` and `b(i)`, so `n0` reaches `n(layers)` along
/// `2^layers` paths. `bad` has no in-edges.
///
/// ```text
/// path ?X ?Z :- edge ?X ?Z.
/// path ?X ?Z :- edge ?X ?Y, path ?Y ?Z.
/// ```
pub fn reach_program(layers: usize) -> Program {
    let mut src = String::from("type i. type o. const bad : i.\n");
    for i in 0..=layers {
        src.push_str(&format!(
            "const n{i} : i. const a{i} : i. const b{i} : i.\n"
        ));
    }
    src.push_str("const edge : i -> i -> o. const path : i -> i -> o.");
    let mut prog = Program::new(Signature::parse(&src).expect("well-formed signature"));
    for i in 0..layers {
        let j = i + 1;
        for fact in [
            format!("edge n{i} a{i}"),
            format!("edge n{i} b{i}"),
            format!("edge a{i} n{j}"),
            format!("edge b{i} n{j}"),
        ] {
            prog.push(Clause::parse(prog.sig(), &[], &fact, &[]).expect("clause"));
        }
    }
    let (x, y, z) = (("X", "i"), ("Y", "i"), ("Z", "i"));
    prog.push(Clause::parse(prog.sig(), &[x, z], "path ?X ?Z", &["edge ?X ?Z"]).expect("clause"));
    prog.push(
        Clause::parse(
            prog.sig(),
            &[x, y, z],
            "path ?X ?Z",
            &["edge ?X ?Y", "path ?Y ?Z"],
        )
        .expect("clause"),
    );
    prog
}

/// An imp-style optimizer pass: `opt` maps an expression to its
/// optimized form, one clause per constructor, indexed on the first
/// argument, so the mode analysis certifies it table-eligible.
pub fn fold_program() -> Program {
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

/// `plus t t` doubled `depth` times over `one`: `2^depth` leaves as a
/// tree, but only `depth + 1` distinct subterms.
pub fn shared_tree(depth: usize) -> String {
    let mut tree = String::from("one");
    for _ in 0..depth {
        tree = format!("(plus {tree} {tree})");
    }
    tree
}

/// Translation between two object languages by copy clauses: source
/// `lam1`/`app1` to target `lam2`/`app2`, crossing binders with `Π`/`⇒`.
///
/// ```text
/// trans (app1 ?M ?N) (app2 ?P ?Q) :- trans ?M ?P, trans ?N ?Q.
/// trans (lam1 ?F) (lam2 ?G) :- pi x:s. pi y:t. (trans x y => trans (?F x) (?G y)).
/// ```
pub fn translate_program() -> Program {
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
    let vars = [("F", "s -> s"), ("G", "t -> t")];
    let (mut lam, [f, g]) = parse_head(prog.sig(), vars, "trans (lam1 ?F) (lam2 ?G)");
    let trans = |a: Term, b: Term| Term::apps(Term::cnst("trans"), [a, b]);
    // Under both Πs, x is goal-level Var 1 and y is Var 0.
    let hyp = Clause::fact(vec![], trans(Term::Var(1), Term::Var(0)));
    let concl = Goal::Atom(trans(
        Term::app(f, Term::Var(1)),
        Term::app(g, Term::Var(0)),
    ));
    let body = Goal::pi("y", Ty::base("t"), Goal::implies(hyp, concl));
    lam.body = Goal::pi("x", Ty::base("s"), body);
    prog.push(lam);
    prog
}

/// A challenge problem in the sense of *The Next 700 Challenge
/// Problems*: a program, the queries to run against it in order, and
/// the depth budget its untabled search needs. The expected answers are
/// pinned by the configuration-matrix oracle.
pub struct Challenge {
    /// Shape and size, e.g. `reach-fail/10`.
    pub name: String,
    /// The program.
    pub prog: Program,
    /// Each query's goal and the types of its metavariables.
    pub queries: Vec<(Goal, MetaEnv)>,
    /// The depth budget; [`Challenge::solve`] sets the table mode.
    pub cfg: SolveConfig,
}

impl Challenge {
    fn new(
        name: String,
        prog: Program,
        max_depth: u32,
        queries: &[(&str, &[(&str, &str)])],
    ) -> Challenge {
        let queries = queries
            .iter()
            .map(|(src, vars)| query_menv(prog.sig(), src, vars).expect("query parses"))
            .collect();
        let cfg = SolveConfig {
            max_depth,
            ..SolveConfig::default()
        };
        Challenge {
            name,
            prog,
            queries,
            cfg,
        }
    }

    /// Solves the queries in order against one fresh table set under
    /// `table`, enforcing `cert`'s verdicts when one is given.
    ///
    /// # Errors
    ///
    /// As [`crate::solve::solve`].
    pub fn solve(
        &self,
        table: TableMode,
        cert: Option<&ProgramCert>,
    ) -> Result<Vec<Outcome>, LpError> {
        let cfg = SolveConfig { table, ..self.cfg };
        let mut tables = SolveTables::for_program(&self.prog);
        self.queries
            .iter()
            .map(|(goal, menv)| solve_with(&self.prog, menv, goal, &cfg, cert, &mut tables))
            .collect()
    }
}

/// `path n0 bad` over [`reach_program`]: plain search refutes all
/// `2^layers` paths, tabled search refutes each node once.
pub fn reach_fail(layers: usize) -> Challenge {
    let name = format!("reach-fail/{layers}");
    let depth = 4 * layers as u32 + 64;
    Challenge::new(name, reach_program(layers), depth, &[("path n0 bad", &[])])
}

/// `opt t ?Z` over [`fold_program`] with `t` the [`shared_tree`] of
/// `depth`. Depth is a per-branch budget, so the untabled search needs
/// room for every occurrence of a subterm.
pub fn fold_shared(depth: usize) -> Challenge {
    let name = format!("fold-shared/{depth}");
    let query = format!("opt {} ?Z", shared_tree(depth));
    Challenge::new(
        name,
        fold_program(),
        1 << (depth + 3),
        &[(&query, &[("Z", "e")])],
    )
}

/// Type preservation on `(λx. x) K` over [`stlc_eval_program`], as three
/// queries sharing one table set: `of S ?T`, `eval S ?V` and `of K ?T`.
/// The third repeats a variant the first derived.
pub fn preserve() -> Challenge {
    let (s, k) = (
        r"app (lam (\x. x)) (lam (\y. lam (\z. y)))",
        r"lam (\y. lam (\z. y))",
    );
    let (of_s, eval_s, of_k) = (
        format!("of ({s}) ?T"),
        format!("eval ({s}) ?V"),
        format!("of ({k}) ?T"),
    );
    let queries: &[(&str, &[_])] = &[
        (&of_s, &[("T", "tp")]),
        (&eval_s, &[("V", "tm")]),
        (&of_k, &[("T", "tp")]),
    ];
    let depth = SolveConfig::default().max_depth;
    Challenge::new("preserve/3".into(), stlc_eval_program(), depth, queries)
}

/// `trans s t` over [`translate_program`] in checking mode (both sides
/// ground), with `s` a `lam1 (\x. x)` leaf doubled under `app1` `depth`
/// times. Synthesis mode would flounder: an unknown target binder
/// applied to an eigenvariable is outside the pattern fragment.
pub fn ol_translate(depth: usize) -> Challenge {
    let name = format!("ol-translate/{depth}");
    let mut src = String::from(r"(lam1 (\x. x))");
    let mut tgt = String::from(r"(lam2 (\x. x))");
    for _ in 0..depth {
        src = format!("(app1 {src} {src})");
        tgt = format!("(app2 {tgt} {tgt})");
    }
    let query = format!("trans {src} {tgt}");
    Challenge::new(
        name,
        translate_program(),
        1 << (depth + 4),
        &[(&query, &[])],
    )
}

/// `eval ((λx. x) (… ((λx. x) K))) ?V` over [`eval_program`] with `n`
/// redexes: each spawns three `eval` subgoals, all ground in their
/// first argument, so every call has one answer.
pub fn eval_chain(n: usize) -> Challenge {
    let mut t = String::from(r"lam (\y. lam (\z. y))");
    for _ in 0..n {
        t = format!(r"app (lam (\x. x)) ({t})");
    }
    let query = format!("eval ({t}) ?V");
    let name = format!("eval-chain/{n}");
    Challenge::new(name, eval_program(), 4096, &[(&query, &[("V", "tm")])])
}

/// `append l nil ?Z` over [`append_program`] with `l` a list of `n`
/// `a`s: a deterministic recursion `n` calls deep.
pub fn append_deep(n: usize) -> Challenge {
    let mut list = String::from("nil");
    for _ in 0..n {
        list = format!("cons a ({list})");
    }
    let query = format!("append ({list}) nil ?Z");
    let name = format!("append-deep/{n}");
    Challenge::new(
        name,
        append_program(),
        4 * n as u32 + 16,
        &[(&query, &[("Z", "i")])],
    )
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
