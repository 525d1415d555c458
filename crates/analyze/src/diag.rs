//! Diagnostics: stable codes, severities, and rendered reports.

use std::fmt;

/// How serious a finding is.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Severity {
    /// Informational: a fact worth knowing, not a defect (e.g. a rule
    /// outside the pattern fragment — legal, but slower to match and
    /// invisible to overlap analysis).
    Info,
    /// Likely-unintended but not definitely wrong (e.g. overlapping
    /// left-hand sides: rewriting still works, confluence may not hold).
    Warn,
    /// A defect: the rule set or program cannot behave as written (e.g. a
    /// shadowed rule never fires, a looping rule never terminates).
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // `pad` (not `write_str`) so report columns can align with `{:5}`.
        f.pad(match self {
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Error => "error",
        })
    }
}

/// The table of diagnostic codes: `(code, severity, description)`.
/// Codes are stable — tools may match on them — and documented in the
/// repository README.
pub const CODES: &[(&str, Severity, &str)] = &[
    (
        "HA001",
        Severity::Info,
        "rule left-hand side or clause head is outside the Miller pattern fragment",
    ),
    (
        "HA002",
        Severity::Warn,
        "rule is not left-linear (a metavariable occurs more than once in the left-hand side)",
    ),
    (
        "HA003",
        Severity::Error,
        "right-hand-side metavariable is not bound by the left-hand side",
    ),
    (
        "HA004",
        Severity::Warn,
        "rule is shadowed by an earlier rule whose left-hand side generalizes it",
    ),
    (
        "HA005",
        Severity::Error,
        "rule rewrites its own right-hand side (trivial non-termination)",
    ),
    (
        "HA006",
        Severity::Error,
        "duplicate rule name in a rule set",
    ),
    (
        "HA007",
        Severity::Warn,
        "two left-hand sides overlap at the root (critical pair, possible non-confluence)",
    ),
    (
        "HA008",
        Severity::Info,
        "signature constants never mentioned by the rule set or program",
    ),
    (
        "HA009",
        Severity::Error,
        "name declared both as a type and as a constant",
    ),
    (
        "HA010",
        Severity::Error,
        "cached kernel annotations disagree with recomputation",
    ),
    (
        "HA011",
        Severity::Error,
        "clause head is not headed by a predicate constant",
    ),
    (
        "HA012",
        Severity::Info,
        "clause body atom is outside the Miller pattern fragment",
    ),
    (
        "HA013",
        Severity::Info,
        "predicate admits a consistent input/output mode",
    ),
    (
        "HA014",
        Severity::Warn,
        "predicate admits no consistent input/output mode",
    ),
    (
        "HA016",
        Severity::Info,
        "rule set proven terminating by size-change analysis",
    ),
    (
        "HA017",
        Severity::Warn,
        "rule set not proven terminating by size-change analysis",
    ),
    (
        "HA018",
        Severity::Error,
        "dynamic mode sanitizer observed a violation of a static verdict",
    ),
    (
        "HA019",
        Severity::Warn,
        "call site uses a predicate outside every inferred mode",
    ),
    (
        "HA020",
        Severity::Info,
        "analysis certificate issued for engine-enforced verdicts",
    ),
    (
        "HA021",
        Severity::Info,
        "predicate is tabling-eligible (moded input skeletons key a sound answer table)",
    ),
];

/// The severity of a known code.
pub fn severity_of(code: &str) -> Option<Severity> {
    CODES
        .iter()
        .find(|(c, _, _)| *c == code)
        .map(|(_, s, _)| *s)
}

/// One finding.
#[derive(Clone, Debug)]
pub struct Diagnostic {
    /// Stable code from [`CODES`].
    pub code: &'static str,
    /// Severity, always consistent with the code's table entry.
    pub severity: Severity,
    /// What the finding is about (a rule, clause, or constant name).
    pub subject: String,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {:5} [{}] {}",
            self.code, self.severity, self.subject, self.message
        )
    }
}

/// All findings for one analysis target.
#[derive(Clone, Debug)]
pub struct Report {
    /// The target's name (see `targets`).
    pub target: String,
    /// Findings in check order.
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// An empty report for a target.
    pub fn new(target: impl Into<String>) -> Report {
        Report {
            target: target.into(),
            diagnostics: Vec::new(),
        }
    }

    /// Records a finding. The severity comes from the code's table entry.
    ///
    /// # Panics
    ///
    /// If `code` is not in [`CODES`] — checks only emit known codes.
    pub fn push(&mut self, code: &'static str, subject: impl Into<String>, message: String) {
        let severity = severity_of(code).expect("diagnostic code is registered in CODES");
        self.diagnostics.push(Diagnostic {
            code,
            severity,
            subject: subject.into(),
            message,
        });
    }

    /// Number of findings at a severity.
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// Number of error-severity findings.
    pub fn error_count(&self) -> usize {
        self.count(Severity::Error)
    }

    /// Whether the target has no findings at all.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Renders the report as text: a summary line, then one line per
    /// finding.
    pub fn render(&self) -> String {
        use fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}: {} error(s), {} warning(s), {} note(s)",
            self.target,
            self.count(Severity::Error),
            self.count(Severity::Warn),
            self.count(Severity::Info),
        );
        for d in &self.diagnostics {
            let _ = writeln!(out, "  {d}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_unique_and_ordered() {
        // Strictly ascending rather than dense: a retired code leaves a
        // gap, because codes are never renumbered.
        let numbers: Vec<u32> = CODES
            .iter()
            .map(|(code, _, _)| {
                let digits = code.strip_prefix("HA").filter(|d| d.len() == 3);
                digits.and_then(|d| d.parse().ok()).expect(code)
            })
            .collect();
        assert_eq!(numbers[0], 1);
        assert!(numbers.windows(2).all(|w| w[0] < w[1]), "{numbers:?}");
    }

    #[test]
    fn render_lists_counts_and_findings() {
        let mut r = Report::new("demo");
        assert!(r.is_clean());
        r.push("HA006", "dup", "duplicate rule name `dup`".to_string());
        r.push("HA001", "gen", "outside the pattern fragment".to_string());
        assert_eq!(r.error_count(), 1);
        assert_eq!(r.count(Severity::Info), 1);
        let text = r.render();
        assert!(text.starts_with("demo: 1 error(s), 0 warning(s), 1 note(s)"));
        assert!(text.contains("HA006 error [dup] duplicate rule name `dup`"));
        assert!(text.contains("HA001 info  [gen]"));
    }

    #[test]
    fn unknown_codes_are_rejected() {
        // HA015 (committed-choice) is retired; its number is not reused.
        for code in ["HA999", "HA015"] {
            let err = std::panic::catch_unwind(|| {
                Report::new("demo").push(code, "x", String::new());
            })
            .expect_err(code);
            let msg = err
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| err.downcast_ref::<&str>().copied());
            assert!(msg.is_some_and(|m| m.contains("registered")), "{code}");
        }
    }
}
