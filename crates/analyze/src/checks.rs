//! The analysis passes: rule sets and logic programs to [`Report`]s.

use crate::diag::Report;
use hoas_core::sig::Signature;
use hoas_core::validate;
use hoas_lp::program::Program;
use hoas_rewrite::{RuleSet, RuleSetAnalysis};
use hoas_unify::classify::{classify_at, PatternClass};
use std::collections::BTreeSet;

/// Runs every rule-set check: classification (HA001), left-linearity
/// (HA002), right-hand-side scoping (HA003), shadowing (HA004), trivial
/// non-termination (HA005), duplicate names (HA006), root overlaps
/// (HA007), signature lints (HA008/HA009), the kernel annotation
/// validator over both sides of every rule (HA010), and size-change
/// termination (HA016/HA017, with HA020 when a certificate is minted).
pub fn check_ruleset(target: &str, sig: &Signature, rs: &RuleSet) -> Report {
    let mut report = Report::new(target);
    push_analysis(&mut report, &rs.analyze(sig));
    for rule in rs.rules() {
        for (side, t) in [("lhs", rule.lhs()), ("rhs", rule.rhs())] {
            if let Err(e) = validate::check_term(t) {
                report.push("HA010", rule.name(), format!("{side}: {e}"));
            }
        }
    }
    // Native rules mention constants only inside opaque Rust closures, so
    // "never mentioned" cannot be decided for sets that have any.
    if rs.native_rules().is_empty() {
        let used = rs
            .rules()
            .iter()
            .flat_map(|r| r.lhs().constants().into_iter().chain(r.rhs().constants()))
            .map(|c| c.as_str().to_string())
            .collect();
        check_unused_consts(&mut report, sig, &used, "rule set");
    }
    check_type_const_collisions(&mut report, sig);
    push_ruleset_verdicts(&mut report, rs);
    report
}

/// The size-change termination verdicts (HA016/HA017, HA020).
fn push_ruleset_verdicts(report: &mut Report, rs: &RuleSet) {
    if !rs.rules().is_empty() || !rs.native_rules().is_empty() {
        let sct = crate::termination::analyze_ruleset(rs);
        if sct.proven() {
            report.push("HA016", "rule set", sct.reason.clone());
            report.push(
                "HA020",
                "rule set",
                "termination certificate issued; `Engine::attach_certificate` \
                 drops step-budget bookkeeping for this set"
                    .to_string(),
            );
        } else {
            report.push(
                "HA017",
                "rule set",
                format!("size-change termination not proven: {}", sct.reason),
            );
        }
    }
}

fn push_analysis(report: &mut Report, analysis: &RuleSetAnalysis) {
    for info in &analysis.rules {
        if info.class == PatternClass::General {
            report.push(
                "HA001",
                &info.name,
                format!(
                    "left-hand side is outside the Miller pattern fragment \
                     ({}); matching falls back to general higher-order search \
                     and overlap analysis cannot see this rule",
                    info.class
                ),
            );
        }
        if !info.nonlinear_metas.is_empty() {
            report.push(
                "HA002",
                &info.name,
                format!(
                    "not left-linear: ?{} occur(s) more than once in the \
                     left-hand side, imposing an equality side condition",
                    info.nonlinear_metas.join(", ?")
                ),
            );
        }
        if !info.unbound_rhs_metas.is_empty() {
            report.push(
                "HA003",
                &info.name,
                format!(
                    "right-hand side mentions ?{} which the left-hand side \
                     never binds; the rule can only produce open terms",
                    info.unbound_rhs_metas.join(", ?")
                ),
            );
        }
        if let Some(earlier) = &info.shadowed_by {
            report.push(
                "HA004",
                &info.name,
                format!(
                    "shadowed by earlier rule `{earlier}`: every subject this \
                     rule matches is already rewritten by `{earlier}`, so \
                     this rule never fires"
                ),
            );
        }
        if info.self_applicable {
            report.push(
                "HA005",
                &info.name,
                "rewrites its own right-hand side: one application enables \
                 the next, so normalization cannot terminate"
                    .to_string(),
            );
        }
    }
    for name in &analysis.duplicate_names {
        report.push(
            "HA006",
            name,
            format!("more than one rule is named `{name}`"),
        );
    }
    for overlap in &analysis.overlaps {
        report.push(
            "HA007",
            format!("{} ~ {}", overlap.left, overlap.right),
            format!(
                "left-hand sides of `{}` and `{}` unify after renaming \
                 apart: some term admits both rules (critical pair), so the \
                 result can depend on rule order",
                overlap.left, overlap.right
            ),
        );
    }
}

/// Runs every logic-program check: clause-head well-formedness (HA011),
/// pattern-fragment classification of heads (HA001) and body atoms
/// (HA012) at their `Π` depth, the kernel annotation validator over every
/// clause term (HA010), the signature lints (HA008/HA009), and the
/// mode analysis (HA013, HA014, HA019, HA021, with HA020 when a
/// certificate is minted).
pub fn check_program(target: &str, prog: &Program) -> Report {
    let mut report = Report::new(target);
    let mut used: BTreeSet<String> = BTreeSet::new();
    for (ci, clause) in prog.clauses().iter().enumerate() {
        let subject = match clause.head_pred() {
            Some(p) => format!("clause {ci} ({p})"),
            None => format!("clause {ci}"),
        };
        if clause.head_pred().is_none() {
            report.push(
                "HA011",
                &subject,
                format!(
                    "head `{}` is not headed by a predicate constant; \
                     backchaining can never select this clause",
                    clause.head
                ),
            );
        }
        for (k, (t, depth)) in clause.terms().into_iter().enumerate() {
            if let Err(e) = validate::check_term(&t) {
                report.push("HA010", &subject, e.to_string());
            }
            used.extend(t.constants().into_iter().map(|c| c.as_str().to_string()));
            if classify_at(&t, depth) == PatternClass::General {
                if k == 0 {
                    report.push(
                        "HA001",
                        &subject,
                        format!(
                            "head `{t}` is outside the Miller pattern \
                             fragment; clause selection needs general \
                             higher-order unification"
                        ),
                    );
                } else {
                    report.push(
                        "HA012",
                        &subject,
                        format!(
                            "body atom `{t}` is outside the Miller pattern \
                             fragment; solving it may suspend on flexible \
                             subgoals or need Huet-style search"
                        ),
                    );
                }
            }
        }
    }
    check_unused_consts(&mut report, prog.sig(), &used, "program");
    check_type_const_collisions(&mut report, prog.sig());
    push_program_verdicts(&mut report, prog);
    report
}

/// The mode verdicts (HA013, HA014, HA019–HA021).
fn push_program_verdicts(report: &mut Report, prog: &Program) {
    let modes = crate::modes::analyze_program(prog);
    for (pred, verdict) in &modes.preds {
        if verdict.modes.is_empty() {
            report.push(
                "HA014",
                pred.as_str(),
                "no consistent input/output mode: under every candidate \
                 mode some clause (or assumable hypothetical) can leave \
                 an output position non-ground"
                    .to_string(),
            );
        } else {
            let rendered: Vec<String> = verdict.modes.iter().map(|m| m.render()).collect();
            report.push(
                "HA013",
                pred.as_str(),
                format!("admits mode(s) {}", rendered.join(", ")),
            );
        }
        if verdict.table {
            report.push(
                "HA021",
                pred.as_str(),
                "tabling-eligible: calls with ground moded inputs key a \
                 sound answer table; `TableMode::Certified` memoizes them"
                    .to_string(),
            );
        }
    }
    for call in &modes.unmoded_calls {
        report.push(
            "HA019",
            format!("clause {} ({})", call.clause_index, call.pred),
            format!(
                "body atom `{}` fits no inferred mode even with every \
                 head variable ground; calls through it run unmoded",
                call.atom
            ),
        );
    }
    if !modes.preds.is_empty() {
        report.push(
            "HA020",
            "program",
            format!(
                "mode certificate issued covering {} \
                 predicate(s); `solve_certified` enforces it",
                modes.preds.len()
            ),
        );
    }
}

fn check_unused_consts(report: &mut Report, sig: &Signature, used: &BTreeSet<String>, what: &str) {
    let mut unused: Vec<&str> = sig
        .consts()
        .map(|(name, _)| name.as_str())
        .filter(|name| !used.contains(*name))
        .collect();
    unused.sort_unstable();
    if !unused.is_empty() {
        report.push(
            "HA008",
            "signature",
            format!(
                "constant(s) `{}` are declared but never mentioned by the \
                 {what}",
                unused.join("`, `")
            ),
        );
    }
}

fn check_type_const_collisions(report: &mut Report, sig: &Signature) {
    for ty in sig.types() {
        if sig.has_const(ty.as_str()) {
            report.push(
                "HA009",
                ty.as_str(),
                format!(
                    "`{ty}` is declared both as a base type and as a \
                     constant; term and type namespaces must not collide"
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hoas_core::parse::parse_ty;
    use hoas_lp::program::Clause;
    use hoas_rewrite::Rule;

    fn sig() -> Signature {
        Signature::parse(
            "type i.
             type o.
             const and : o -> o -> o.
             const not : o -> o.
             const p : i -> o.
             const r : o.",
        )
        .unwrap()
    }

    #[test]
    fn clean_ruleset_reports_nothing_but_unused_consts() {
        let s = sig();
        let mut rs = RuleSet::new();
        rs.push(
            Rule::parse(
                &s,
                "not-not",
                &parse_ty("o").unwrap(),
                &[("P", "o")],
                "not (not ?P)",
                "?P",
            )
            .unwrap(),
        )
        .unwrap();
        let report = check_ruleset("demo", &s, &rs);
        assert_eq!(report.error_count(), 0);
        let codes: Vec<&str> = report.diagnostics.iter().map(|d| d.code).collect();
        // HA008 (unused consts) plus the SCT verdict: not-not has no
        // recursive calls, so termination is proven and certified.
        assert_eq!(codes, vec!["HA008", "HA016", "HA020"]);
        assert!(report.diagnostics[0].message.contains("`and`, `p`, `r`"));
    }

    #[test]
    fn ruleset_defects_map_to_codes() {
        let s = sig();
        let o = parse_ty("o").unwrap();
        let mut rs = RuleSet::new();
        // Non-left-linear and outside the fragment (HA002 only: linearity
        // is judged on occurrences, the class on spines).
        rs.push(Rule::parse(&s, "idem", &o, &[("P", "o")], "and ?P ?P", "?P").unwrap())
            .unwrap();
        // General (HA001) — and a catch-all identity at type o, so it
        // also rewrites its own output (HA005) and shadows every later
        // rule without a discriminating head constant.
        rs.push(
            Rule::parse(
                &s,
                "beta",
                &o,
                &[("F", "i -> o"), ("X", "i")],
                "?F ?X",
                "?F ?X",
            )
            .unwrap(),
        )
        .unwrap();
        // Shadowed by idem (HA004) and overlapping it (HA007).
        rs.push(Rule::parse(&s, "rr", &o, &[], "and r r", "r").unwrap())
            .unwrap();
        // Trivial loop (HA005); also shadowed by the beta catch-all.
        rs.push(Rule::parse(&s, "grow", &o, &[], "r", "not (not r)").unwrap())
            .unwrap();
        let report = check_ruleset("demo", &s, &rs);
        let mut codes: Vec<&str> = report.diagnostics.iter().map(|d| d.code).collect();
        codes.sort_unstable();
        assert_eq!(
            codes,
            vec!["HA001", "HA002", "HA004", "HA004", "HA005", "HA005", "HA007", "HA008", "HA017"],
            "the flexible-headed beta rule also blocks the SCT proof"
        );
        let shadowed: Vec<(&str, &str)> = report
            .diagnostics
            .iter()
            .filter(|d| d.code == "HA004")
            .map(|d| (d.subject.as_str(), d.message.split('`').nth(1).unwrap()))
            .collect();
        assert_eq!(shadowed, vec![("rr", "idem"), ("grow", "beta")]);
        assert_eq!(report.error_count(), 2, "the two loops are the errors");
    }

    #[test]
    fn type_const_collision_is_reported() {
        let mut s = Signature::new();
        s.declare_type("o").unwrap();
        s.declare_const("o", parse_ty("o").unwrap()).unwrap();
        let report = check_ruleset("demo", &s, &RuleSet::new());
        let codes: Vec<&str> = report.diagnostics.iter().map(|d| d.code).collect();
        assert!(codes.contains(&"HA009"));
        assert_eq!(report.error_count(), 1);
    }

    #[test]
    fn program_checks_classify_at_pi_depth() {
        let s = Signature::parse(
            "type tm.
             type o.
             const app : tm -> tm -> tm.
             const eval : tm -> tm -> o.",
        )
        .unwrap();
        let mut prog = Program::new(s);
        // eval (app ?M ?N) ?V :- eval (?M ?N) ?V — body atom outside the
        // fragment (?M applied to a metavariable).
        prog.push(
            Clause::parse(
                prog.sig(),
                &[("M", "tm -> tm"), ("N", "tm"), ("V", "tm")],
                "eval (app (?M ?N) ?N) ?V",
                &["eval (?M ?N) ?V"],
            )
            .unwrap(),
        );
        let report = check_program("demo", &prog);
        let codes: Vec<&str> = report.diagnostics.iter().map(|d| d.code).collect();
        // Head is general too (same flexible application).
        assert!(codes.contains(&"HA001"));
        assert!(codes.contains(&"HA012"));
        assert_eq!(report.error_count(), 0);
    }

    #[test]
    fn flexible_clause_head_is_an_error() {
        let s = Signature::parse("type o.").unwrap();
        let mut prog = Program::new(s);
        prog.push(Clause {
            vars: vec![(hoas_core::Sym::new("G"), parse_ty("o").unwrap())],
            head: hoas_core::Term::Meta(hoas_core::MVar::new(0, "G")),
            body: hoas_lp::program::Goal::True,
        });
        let report = check_program("demo", &prog);
        assert!(report.diagnostics.iter().any(|d| d.code == "HA011"));
        assert_eq!(report.error_count(), 1);
    }
}
