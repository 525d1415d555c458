//! `hoas-analyze` — run every static check over named targets.
//!
//! ```text
//! hoas-analyze                  # analyze all bundled targets
//! hoas-analyze fol-cnf imp-opt  # analyze specific targets
//! hoas-analyze --list           # list target names
//! hoas-analyze --strict         # promote warnings to errors
//! hoas-analyze --strict --allow HA017   # ...except HA017
//! ```
//!
//! Every requested target is analyzed and its full report printed before
//! the process decides its exit code — a bad target name or an early
//! error-severity finding never masks later diagnostics. Exits 0 when no
//! exit-relevant finding was produced, 1 otherwise, and 2 on usage
//! errors (unknown target or flag), still after printing every report it
//! could produce.

use hoas_analyze::diag::{Report, Severity};
use hoas_analyze::targets;

struct Options {
    strict: bool,
    allow: Vec<String>,
    names: Vec<String>,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        strict: false,
        allow: Vec::new(),
        names: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--strict" => opts.strict = true,
            "--allow" => match it.next() {
                Some(code) => opts.allow.push(code.clone()),
                None => return Err("--allow needs a diagnostic code".to_string()),
            },
            s if s.starts_with("--allow=") => {
                opts.allow.push(s["--allow=".len()..].to_string());
            }
            s if s.starts_with('-') => return Err(format!("unknown flag `{s}`")),
            s => opts.names.push(s.to_string()),
        }
    }
    Ok(opts)
}

/// Resolves every requested target (all bundled ones when `names` is
/// empty), returning the reports of every known name *and* the unknown
/// names — one bad name does not mask the other targets' diagnostics.
fn collect_reports(names: &[String]) -> (Vec<Report>, Vec<String>) {
    if names.is_empty() {
        return (targets::run_all(), Vec::new());
    }
    let mut reports = Vec::with_capacity(names.len());
    let mut unknown = Vec::new();
    for name in names {
        match targets::run(name) {
            Some(report) => reports.push(report),
            None => unknown.push(name.clone()),
        }
    }
    (reports, unknown)
}

/// Exit-relevant finding count: errors always count; warnings count
/// under `--strict` unless their code is explicitly allowed.
fn fatal_count(report: &Report, strict: bool, allow: &[String]) -> usize {
    report
        .diagnostics
        .iter()
        .filter(|d| match d.severity {
            Severity::Error => true,
            Severity::Warn => strict && !allow.iter().any(|a| a == d.code),
            Severity::Info => false,
        })
        .count()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{}", usage());
        return;
    }
    if args.iter().any(|a| a == "--list") {
        for (name, description) in targets::TARGETS {
            println!("{name:12} {description}");
        }
        return;
    }
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("{e}\n\n{}", usage());
            std::process::exit(2);
        }
    };

    let (reports, unknown) = collect_reports(&opts.names);
    let mut fatal = 0;
    for report in &reports {
        print!("{}", report.render());
        fatal += fatal_count(report, opts.strict, &opts.allow);
    }
    for name in &unknown {
        eprintln!("unknown target `{name}` (try --list)");
    }
    if !unknown.is_empty() {
        std::process::exit(2);
    }
    if fatal > 0 {
        eprintln!(
            "{fatal} exit-relevant finding(s){}",
            if opts.strict { " (strict)" } else { "" }
        );
        std::process::exit(1);
    }
}

fn usage() -> String {
    let targets: Vec<&str> = targets::TARGETS.iter().map(|(n, _)| *n).collect();
    format!(
        "usage: hoas-analyze [--list] [--strict] [--allow CODE ...] [TARGET ...]\n\n\
         Runs the static analyzer (pattern-fragment classification, rule\n\
         lints, overlap detection, signature hygiene, kernel annotation\n\
         validation, mode inference, size-change termination)\n\
         over the named targets, or all of them by default.\n\n\
         --strict promotes warnings to exit-relevant findings; --allow\n\
         exempts one code (repeatable).\n\n\
         targets: {}\n",
        targets.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bad_names_do_not_mask_other_reports() {
        let names = vec![
            "lp-append".to_string(),
            "no-such-target".to_string(),
            "fol-cnf".to_string(),
        ];
        let (reports, unknown) = collect_reports(&names);
        // Both valid targets are fully analyzed despite the bad name
        // between them.
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].target, "lp-append");
        assert_eq!(reports[1].target, "fol-cnf");
        assert_eq!(unknown, vec!["no-such-target"]);
    }

    #[test]
    fn strict_promotes_warnings_except_allowed_codes() {
        let mut r = Report::new("demo");
        r.push("HA007", "a ~ b", "overlap".to_string());
        r.push("HA017", "rule set", "unproven".to_string());
        r.push("HA008", "signature", "unused".to_string());
        assert_eq!(fatal_count(&r, false, &[]), 0);
        assert_eq!(fatal_count(&r, true, &[]), 2);
        assert_eq!(fatal_count(&r, true, &["HA017".to_string()]), 1);
        // Errors stay fatal even when allowed.
        r.push("HA005", "loop", "loops".to_string());
        assert_eq!(fatal_count(&r, false, &["HA005".to_string()]), 1);
    }

    #[test]
    fn flags_parse_and_unknown_flags_are_rejected() {
        let args: Vec<String> = ["--strict", "--allow", "HA017", "--allow=HA019", "fol-cnf"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let opts = parse_args(&args).unwrap();
        assert!(opts.strict);
        assert_eq!(opts.allow, vec!["HA017", "HA019"]);
        assert_eq!(opts.names, vec!["fol-cnf"]);
        assert!(parse_args(&["--bogus".to_string()]).is_err());
        assert!(parse_args(&["--allow".to_string()]).is_err());
    }
}
