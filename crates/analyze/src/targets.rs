//! The bundled analysis targets: every rule set and λProlog example
//! program shipped by the workspace, addressable by name from the
//! `hoas-analyze` CLI.

use crate::checks::{check_program, check_ruleset};
use crate::diag::Report;
use hoas_langs::fol::Vocabulary;
use hoas_langs::{imp, miniml};
use hoas_lp::examples;
use hoas_rewrite::rulesets::{fol_cnf, fol_prenex, imp_opt, miniml_opt};

/// The known targets: `(name, description)`.
pub const TARGETS: &[(&str, &str)] = &[
    (
        "fol-prenex",
        "prenex-normal-form rules over the small first-order vocabulary",
    ),
    ("fol-cnf", "prenex rules plus CNF distribution"),
    (
        "imp-opt",
        "imperative-language optimizer (pattern and native rules)",
    ),
    (
        "miniml-opt",
        "Mini-ML simplifier (pattern and native rules)",
    ),
    ("lp-append", "lambda-Prolog append/3 program"),
    ("lp-stlc", "lambda-Prolog STLC type checker"),
    ("lp-eval", "lambda-Prolog call-by-value evaluator"),
];

/// Runs every check over one named target; `None` for unknown names.
/// Bundled targets always build — their rule sets are constructed by the
/// same code the engine tests exercise.
pub fn run(name: &str) -> Option<Report> {
    let report = match name {
        "fol-prenex" => {
            let sig = Vocabulary::small().signature();
            let rs = fol_prenex::rules(&sig).expect("bundled ruleset builds");
            check_ruleset(name, &sig, &rs)
        }
        "fol-cnf" => {
            let sig = Vocabulary::small().signature();
            let rs = fol_cnf::rules(&sig).expect("bundled ruleset builds");
            check_ruleset(name, &sig, &rs)
        }
        "imp-opt" => {
            let sig = imp::signature();
            let rs = imp_opt::rules(sig).expect("bundled ruleset builds");
            check_ruleset(name, sig, &rs)
        }
        "miniml-opt" => {
            let sig = miniml::signature();
            let rs = miniml_opt::rules(sig).expect("bundled ruleset builds");
            check_ruleset(name, sig, &rs)
        }
        "lp-append" => check_program(name, &examples::append_program()),
        "lp-stlc" => check_program(name, &examples::stlc_program()),
        "lp-eval" => check_program(name, &examples::eval_program()),
        _ => return None,
    };
    Some(report)
}

/// Runs every bundled target, in [`TARGETS`] order.
pub fn run_all() -> Vec<Report> {
    TARGETS
        .iter()
        .map(|(name, _)| run(name).expect("TARGETS entries are runnable"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_target_runs_and_unknown_names_do_not() {
        assert_eq!(run_all().len(), TARGETS.len());
        assert!(run("no-such-target").is_none());
    }

    #[test]
    fn bundled_targets_have_no_errors() {
        for report in run_all() {
            assert_eq!(
                report.error_count(),
                0,
                "target {} has errors:\n{}",
                report.target,
                report.render()
            );
        }
    }

    #[test]
    fn known_genuine_findings_are_present() {
        // if-same compares its branches: non-left-linear by design.
        let imp = run("imp-opt").unwrap();
        assert!(imp
            .diagnostics
            .iter()
            .any(|d| d.code == "HA002" && d.subject == "if-same"));
        // The two distribution rules meet on `or (and _ _) (and _ _)`.
        let cnf = run("fol-cnf").unwrap();
        assert!(cnf
            .diagnostics
            .iter()
            .any(|d| d.code == "HA007" && d.subject.contains("distr-")));
        // The evaluator's `eval (?F ?U) ?V` body atom is the paper's
        // showcase of leaving the pattern fragment on purpose.
        let eval = run("lp-eval").unwrap();
        assert!(eval.diagnostics.iter().any(|d| d.code == "HA012"));
        // append declares list atoms its clauses never mention.
        let append = run("lp-append").unwrap();
        assert!(append.diagnostics.iter().any(|d| d.code == "HA008"));
    }

    #[test]
    fn second_generation_verdicts_cover_the_bundle() {
        // SCT proves termination of both first-order rule sets…
        for name in ["fol-prenex", "fol-cnf"] {
            let r = run(name).unwrap();
            assert!(
                r.diagnostics.iter().any(|d| d.code == "HA016"),
                "{name} should be SCT-proven:\n{}",
                r.render()
            );
        }
        // …and refuses the native-rule optimizers rather than guessing.
        for name in ["imp-opt", "miniml-opt"] {
            let r = run(name).unwrap();
            assert!(
                r.diagnostics.iter().any(|d| d.code == "HA017"),
                "{name} has native rules, so SCT must refuse:\n{}",
                r.render()
            );
        }
        // Every bundled program gets a mode verdict and a certificate.
        for name in ["lp-append", "lp-stlc", "lp-eval"] {
            let r = run(name).unwrap();
            assert!(
                r.diagnostics.iter().any(|d| d.code == "HA020"),
                "{name} lacks HA020:\n{}",
                r.render()
            );
            assert!(r
                .diagnostics
                .iter()
                .any(|d| d.code == "HA013" || d.code == "HA014"));
        }
        // The STLC checker's hypothetical context kills every mode of
        // `of`, and its app clause contains the one ill-moded call.
        let stlc = run("lp-stlc").unwrap();
        assert!(stlc.diagnostics.iter().any(|d| d.code == "HA014"));
        assert!(stlc.diagnostics.iter().any(|d| d.code == "HA019"));
    }
}
