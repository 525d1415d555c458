//! Rewrite rules.
//!
//! A [`Rule`] is a pair of terms over shared metavariables, both checked
//! against the rule's subject type at construction — so applying a rule
//! can never produce an ill-typed term (type preservation by
//! construction). A [`NativeRule`] is a Rust function from subterm to
//! replacement, used for δ-rules like integer constant folding.

use hoas_core::parse::{parse_term_with, MetaTable};
use hoas_core::sig::Signature;
use hoas_core::term::MetaEnv;
use hoas_core::{normalize, Term, Ty};
use hoas_unify::classify::{classify, PatternClass};
use hoas_unify::UnifyError;
use std::fmt;
use std::rc::Rc;

/// Errors from rule construction and rewriting.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub enum RewriteError {
    /// The rule's sides failed to parse or type-check.
    BadRule {
        /// Rule name.
        name: String,
        /// Explanation.
        reason: String,
    },
    /// Two rules with the same name were added to a [`RuleSet`]; the
    /// second would silently shadow (or be shadowed by) the first.
    DuplicateRule {
        /// The offending name.
        name: String,
    },
    /// A kernel error during traversal (ill-typed subject term).
    Core(hoas_core::Error),
    /// A unification error that indicates a malformed problem (not a
    /// mere mismatch).
    Unify(UnifyError),
    /// The step budget was exhausted before reaching a normal form.
    OutOfSteps,
}

impl fmt::Display for RewriteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RewriteError::BadRule { name, reason } => {
                write!(f, "invalid rule `{name}`: {reason}")
            }
            RewriteError::DuplicateRule { name } => {
                write!(f, "duplicate rule name `{name}` in rule set")
            }
            RewriteError::Core(e) => write!(f, "kernel error during rewriting: {e}"),
            RewriteError::Unify(e) => write!(f, "unification error during rewriting: {e}"),
            RewriteError::OutOfSteps => write!(f, "rewrite step budget exhausted"),
        }
    }
}

impl std::error::Error for RewriteError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RewriteError::Core(e) => Some(e),
            RewriteError::Unify(e) => Some(e),
            _ => None,
        }
    }
}

impl From<hoas_core::Error> for RewriteError {
    fn from(e: hoas_core::Error) -> Self {
        RewriteError::Core(e)
    }
}

impl From<UnifyError> for RewriteError {
    fn from(e: UnifyError) -> Self {
        RewriteError::Unify(e)
    }
}

/// A pattern rewrite rule `lhs ~> rhs : ty`.
#[derive(Clone, Debug)]
pub struct Rule {
    name: String,
    menv: MetaEnv,
    lhs: Term,
    rhs: Term,
    ty: Ty,
    /// Rigid head constant of the lhs, if any — a cheap discrimination
    /// key the engine checks before attempting a full match.
    head: Option<hoas_core::Sym>,
    /// Shallow argument fingerprint of the lhs spine: for each spine
    /// argument, its rigid head constant if it has one (`None` is a
    /// wildcard). Empty unless the lhs is neutral with a constant head.
    fingerprint: Vec<Option<hoas_core::Sym>>,
    /// Pattern-fragment classification of the lhs, computed once at
    /// construction; `Miller` rules dispatch to the deterministic pattern
    /// matcher instead of general higher-order matching.
    class: PatternClass,
}

impl Rule {
    /// Builds a rule from concrete syntax. `metas` declares the pattern
    /// variables and their types; `?X` in `lhs` and `rhs` refer to the
    /// same variable. Both sides are canonicalized and type-checked at
    /// `ty`, and the right-hand side may not introduce new metavariables.
    ///
    /// # Errors
    ///
    /// [`RewriteError::BadRule`] with an explanation.
    ///
    /// ```
    /// use hoas_core::sig::Signature;
    /// use hoas_core::parse::parse_ty;
    /// use hoas_rewrite::Rule;
    /// let sig = Signature::parse(
    ///     "type o. const and : o -> o -> o. const top : o.",
    /// )?;
    /// let rule = Rule::parse(
    ///     &sig,
    ///     "and-idempotent",
    ///     &parse_ty("o")?,
    ///     &[("P", "o")],
    ///     "and ?P ?P",
    ///     "?P",
    /// )?;
    /// assert_eq!(rule.name(), "and-idempotent");
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn parse(
        sig: &Signature,
        name: &str,
        ty: &Ty,
        metas: &[(&str, &str)],
        lhs: &str,
        rhs: &str,
    ) -> Result<Rule, RewriteError> {
        let bad = |reason: String| RewriteError::BadRule {
            name: name.to_string(),
            reason,
        };
        let table = MetaTable::new();
        let pl = parse_term_with(sig, lhs, table).map_err(|e| bad(format!("lhs: {e}")))?;
        let pr =
            parse_term_with(sig, rhs, pl.metas.clone()).map_err(|e| bad(format!("rhs: {e}")))?;
        let mut menv = MetaEnv::new();
        for (mname, mty) in metas {
            let m = pr
                .metas
                .get(mname)
                .ok_or_else(|| bad(format!("metavariable ?{mname} not used in the rule")))?
                .clone();
            let parsed_ty = hoas_core::parse::parse_ty(mty)
                .map_err(|e| bad(format!("type of ?{mname}: {e}")))?;
            menv.insert(m, parsed_ty);
        }
        Rule::new(sig, name, ty.clone(), menv, pl.term, pr.term)
    }

    /// Builds a rule from already-constructed terms; both sides are
    /// canonicalized and type-checked at `ty` under `menv`.
    ///
    /// # Errors
    ///
    /// [`RewriteError::BadRule`] when a side is ill-typed, mentions an
    /// undeclared metavariable, or the rhs introduces new metavariables.
    pub fn new(
        sig: &Signature,
        name: &str,
        ty: Ty,
        menv: MetaEnv,
        lhs: Term,
        rhs: Term,
    ) -> Result<Rule, RewriteError> {
        let bad = |reason: String| RewriteError::BadRule {
            name: name.to_string(),
            reason,
        };
        for m in lhs.metas().iter().chain(rhs.metas().iter()) {
            if !menv.contains_key(m) {
                return Err(bad(format!("metavariable {m} has no declared type")));
            }
        }
        let lhs_metas = lhs.metas();
        for m in rhs.metas() {
            if !lhs_metas.contains(&m) {
                return Err(bad(format!(
                    "right-hand side introduces metavariable {m} not bound by the left-hand side"
                )));
            }
        }
        let ctx = hoas_core::ctx::Ctx::new();
        let lhs = normalize::canon(sig, &menv, &ctx, &lhs, &ty)
            .map_err(|e| bad(format!("lhs ill-typed at `{ty}`: {e}")))?;
        let rhs = normalize::canon(sig, &menv, &ctx, &rhs, &ty)
            .map_err(|e| bad(format!("rhs ill-typed at `{ty}`: {e}")))?;
        let head = lhs.rigid_head().cloned();
        let fingerprint = lhs.arg_fingerprint();
        let class = classify(&lhs);
        Ok(Rule {
            name: name.to_string(),
            menv,
            lhs,
            rhs,
            ty,
            head,
            fingerprint,
            class,
        })
    }

    /// The rule's name.
    pub fn name(&self) -> &str {
        &self.name
    }
    /// The subject type the rule rewrites at.
    pub fn ty(&self) -> &Ty {
        &self.ty
    }
    /// The left-hand side (canonical).
    pub fn lhs(&self) -> &Term {
        &self.lhs
    }
    /// The right-hand side (canonical).
    pub fn rhs(&self) -> &Term {
        &self.rhs
    }
    /// Types of the pattern variables.
    pub fn menv(&self) -> &MetaEnv {
        &self.menv
    }
    /// Rigid head constant of the lhs, if any (used for rule
    /// discrimination before full matching).
    pub fn head_const(&self) -> Option<&hoas_core::Sym> {
        self.head.as_ref()
    }
    /// Shallow argument fingerprint of the lhs spine, nonempty only when
    /// the lhs is neutral with a constant head: entry `i` is `Some(c)`
    /// when spine argument `i` is itself neutral with rigid head constant
    /// `c`, `None` otherwise (a wildcard); see
    /// [`Term::arg_fingerprint`](hoas_core::Term::arg_fingerprint). A
    /// rigid constant head in a pattern argument can only match a subject
    /// argument with the same rigid head, so the engine skips the full
    /// match when [`hoas_core::term::fingerprint_admits`] rejects the
    /// subject's spine arguments.
    pub fn arg_fingerprint(&self) -> &[Option<hoas_core::Sym>] {
        &self.fingerprint
    }
    /// Pattern-fragment classification of the left-hand side, recorded at
    /// construction. [`PatternClass::Miller`] rules are matched by the
    /// deterministic pattern matcher (see
    /// [`hoas_unify::matching::match_pattern`]); `General` rules need the
    /// full pattern-unifier-plus-Huet pipeline.
    pub fn classification(&self) -> PatternClass {
        self.class
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} ~> {} : {}",
            self.name, self.lhs, self.rhs, self.ty
        )
    }
}

/// The shared function backing a [`NativeRule`].
type NativeFn = Rc<dyn Fn(&Term) -> Option<Term>>;

/// A δ-rule implemented as a Rust function; returns `Some(replacement)`
/// when it fires. The replacement must be a well-typed canonical term of
/// the rule's subject type in the same context (the engine re-checks in
/// debug builds).
#[derive(Clone)]
pub struct NativeRule {
    name: String,
    ty: Ty,
    f: NativeFn,
}

impl NativeRule {
    /// Builds a native rule.
    pub fn new(name: &str, ty: Ty, f: impl Fn(&Term) -> Option<Term> + 'static) -> NativeRule {
        NativeRule {
            name: name.to_string(),
            ty,
            f: Rc::new(f),
        }
    }

    /// The rule's name.
    pub fn name(&self) -> &str {
        &self.name
    }
    /// The subject type.
    pub fn ty(&self) -> &Ty {
        &self.ty
    }
    /// Attempts to fire at `t`.
    pub fn apply(&self, t: &Term) -> Option<Term> {
        (self.f)(t)
    }
}

impl fmt::Debug for NativeRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "NativeRule({} : {})", self.name, self.ty)
    }
}

/// An ordered collection of rules tried first-to-last at each position.
/// At each subject position the engine scans [`RuleSet::candidates`]: the
/// pattern rules whose left-hand-side head constant admits the subject,
/// in insertion order.
#[derive(Clone, Debug, Default)]
pub struct RuleSet {
    rules: Vec<Rule>,
    native: Vec<NativeRule>,
}

impl RuleSet {
    /// An empty rule set.
    pub fn new() -> RuleSet {
        RuleSet::default()
    }

    /// Assembles a rule set from parts. Unlike [`RuleSet::push`] this
    /// performs **no** duplicate-name check: it is the entry point for
    /// hand-assembled sets (including deliberately malformed ones fed to
    /// [`RuleSet::analyze`], which recomputes duplicates itself).
    ///
    /// [`RuleSet::analyze`]: crate::analysis
    pub fn from_parts(rules: Vec<Rule>, native: Vec<NativeRule>) -> RuleSet {
        RuleSet { rules, native }
    }

    /// Decomposes the set into its pattern and native rules, consuming it.
    pub fn into_parts(self) -> (Vec<Rule>, Vec<NativeRule>) {
        (self.rules, self.native)
    }

    /// Adds a pattern rule.
    ///
    /// # Errors
    ///
    /// [`RewriteError::DuplicateRule`] if a rule (pattern or native) with
    /// the same name is already present — a second rule of the same name
    /// would be silently shadowed in traces and reports (analyzer
    /// diagnostic `HA006`).
    pub fn push(&mut self, rule: Rule) -> Result<&mut Self, RewriteError> {
        self.check_fresh_name(rule.name())?;
        self.rules.push(rule);
        Ok(self)
    }

    /// Adds a native rule.
    ///
    /// # Errors
    ///
    /// [`RewriteError::DuplicateRule`] as for [`RuleSet::push`].
    pub fn push_native(&mut self, rule: NativeRule) -> Result<&mut Self, RewriteError> {
        self.check_fresh_name(rule.name())?;
        self.native.push(rule);
        Ok(self)
    }

    /// Adds a batch of pattern rules, attempting *every* rule before
    /// reporting: duplicates are skipped and all of them returned, so
    /// one bad name does not mask later ones (unlike a `push` loop,
    /// which stops — and stays silent about — everything after the
    /// first error).
    ///
    /// # Errors
    ///
    /// One [`RewriteError::DuplicateRule`] per rejected rule, in input
    /// order. The accepted rules are in the set either way.
    pub fn push_all(
        &mut self,
        rules: impl IntoIterator<Item = Rule>,
    ) -> Result<&mut Self, Vec<RewriteError>> {
        let mut rejected = Vec::new();
        for rule in rules {
            if let Err(e) = self.push(rule) {
                rejected.push(e);
            }
        }
        if rejected.is_empty() {
            Ok(self)
        } else {
            Err(rejected)
        }
    }

    /// Keeps only the first `n` pattern rules (native rules are
    /// untouched).
    pub fn truncate_rules(&mut self, n: usize) {
        self.rules.truncate(n);
    }

    fn check_fresh_name(&self, name: &str) -> Result<(), RewriteError> {
        if self.names().contains(&name) {
            return Err(RewriteError::DuplicateRule {
                name: name.to_string(),
            });
        }
        Ok(())
    }

    /// The pattern rules, in insertion order.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// The native δ-rules, in insertion order.
    pub fn native_rules(&self) -> &[NativeRule] {
        &self.native
    }

    /// The pattern rules that could match a subject whose rigid head
    /// constant is `head` (`None` for subjects without one), in
    /// insertion order: every rule whose left-hand side has no rigid head
    /// constant, or has `head`.
    pub fn candidates<'s, 'h>(
        &'s self,
        head: Option<&'h hoas_core::Sym>,
    ) -> impl Iterator<Item = &'s Rule> + use<'s, 'h> {
        self.rules
            .iter()
            .filter(move |r| r.head_const().is_none_or(|c| Some(c) == head))
    }

    /// Total number of rules.
    pub fn len(&self) -> usize {
        self.rules.len() + self.native.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty() && self.native.is_empty()
    }

    /// Names of all rules, pattern rules first.
    pub fn names(&self) -> Vec<&str> {
        self.rules
            .iter()
            .map(|r| r.name())
            .chain(self.native.iter().map(|r| r.name()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hoas_core::parse::parse_ty;

    fn sig() -> Signature {
        Signature::parse(
            "type i.
             type o.
             const and : o -> o -> o.
             const not : o -> o.
             const forall : (i -> o) -> o.
             const p : i -> o.
             const r : o.",
        )
        .unwrap()
    }

    #[test]
    fn parse_and_display() {
        hoas_core::StoreHandle::isolated().enter(|| {
            // Isolated store: this test asserts printed hints, which are
            // canonical per α-class per store (first intern wins).
            let s = sig();
            let rule = Rule::parse(
                &s,
                "not-not",
                &parse_ty("o").unwrap(),
                &[("P", "o")],
                "not (not ?P)",
                "?P",
            )
            .unwrap();
            assert_eq!(rule.to_string(), "not-not: not (not ?P) ~> ?P : o");
            assert_eq!(rule.menv().len(), 1);
        })
    }

    #[test]
    fn rejects_untyped_meta() {
        let s = sig();
        let err = Rule::parse(&s, "bad", &parse_ty("o").unwrap(), &[], "not ?P", "?P").unwrap_err();
        assert!(err.to_string().contains("no declared type"));
    }

    #[test]
    fn rejects_rhs_only_meta() {
        let s = sig();
        let err = Rule::parse(
            &s,
            "bad",
            &parse_ty("o").unwrap(),
            &[("P", "o"), ("Q", "o")],
            "not ?P",
            "and ?P ?Q",
        )
        .unwrap_err();
        assert!(err.to_string().contains("not bound by the left-hand side"));
    }

    #[test]
    fn rejects_ill_typed_sides() {
        let s = sig();
        let err = Rule::parse(
            &s,
            "bad",
            &parse_ty("o").unwrap(),
            &[("P", "o")],
            "and ?P",
            "?P",
        )
        .unwrap_err();
        assert!(matches!(err, RewriteError::BadRule { .. }));
    }

    #[test]
    fn canonicalizes_sides() {
        // η-short rule text is accepted and stored η-long.
        let s = sig();
        let rule = Rule::parse(
            &s,
            "forall-eta",
            &parse_ty("o").unwrap(),
            &[("Q", "i -> o")],
            "forall ?Q",
            r"forall (\x. ?Q x)",
        )
        .unwrap();
        assert_eq!(rule.lhs(), rule.rhs(), "both sides canonicalize equally");
    }

    #[test]
    fn native_rule_fires() {
        let rule = NativeRule::new("to-r", parse_ty("o").unwrap(), |t| {
            (t == &Term::cnst("r")).then(|| Term::cnst("r"))
        });
        assert!(rule.apply(&Term::cnst("r")).is_some());
        assert!(rule.apply(&Term::Unit).is_none());
        assert_eq!(format!("{rule:?}"), "NativeRule(to-r : o)");
    }

    #[test]
    fn ruleset_collects_names() {
        let s = sig();
        let mut rs = RuleSet::new();
        rs.push(
            Rule::parse(
                &s,
                "a",
                &parse_ty("o").unwrap(),
                &[("P", "o")],
                "not (not ?P)",
                "?P",
            )
            .unwrap(),
        )
        .unwrap();
        rs.push_native(NativeRule::new("b", parse_ty("o").unwrap(), |_| None))
            .unwrap();
        assert_eq!(rs.len(), 2);
        assert!(!rs.is_empty());
        assert_eq!(rs.names(), vec!["a", "b"]);
    }

    #[test]
    fn ruleset_rejects_duplicate_names() {
        let s = sig();
        let rule = || {
            Rule::parse(
                &s,
                "a",
                &parse_ty("o").unwrap(),
                &[("P", "o")],
                "not (not ?P)",
                "?P",
            )
            .unwrap()
        };
        let mut rs = RuleSet::new();
        rs.push(rule()).unwrap();
        let err = rs.push(rule()).unwrap_err();
        assert!(matches!(err, RewriteError::DuplicateRule { ref name } if name == "a"));
        assert!(err.to_string().contains("duplicate rule name `a`"));
        // Pattern and native rules share one namespace.
        let err = rs
            .push_native(NativeRule::new("a", parse_ty("o").unwrap(), |_| None))
            .unwrap_err();
        assert!(matches!(err, RewriteError::DuplicateRule { .. }));
        assert_eq!(rs.len(), 1, "rejected rules are not added");
    }

    #[test]
    fn push_all_reports_every_duplicate_not_just_the_first() {
        let s = sig();
        let o = parse_ty("o").unwrap();
        let named =
            |name: &str| Rule::parse(&s, name, &o, &[("P", "o")], "not (not ?P)", "?P").unwrap();
        let mut rs = RuleSet::new();
        let errs = rs
            .push_all([named("a"), named("a"), named("b"), named("b"), named("c")])
            .unwrap_err();
        // Both collisions are reported, and the good rules all landed.
        assert_eq!(errs.len(), 2);
        assert!(
            matches!(&errs[0], RewriteError::DuplicateRule { name } if name == "a"),
            "{errs:?}"
        );
        assert!(matches!(&errs[1], RewriteError::DuplicateRule { name } if name == "b"));
        assert_eq!(rs.names(), vec!["a", "b", "c"]);
        rs.push_all([named("d")]).unwrap();
        assert_eq!(rs.len(), 4);
    }

    #[test]
    fn index_dispatch_finds_rules_pushed_out_of_head_order() {
        // Interleave heads (not, and, not, flex, and), then check that
        // candidate dispatch sees exactly the rules whose head admits the
        // subject, in insertion order.
        let s = sig();
        let o = parse_ty("o").unwrap();
        let mut rs = RuleSet::new();
        rs.push(Rule::parse(&s, "n1", &o, &[("P", "o")], "not (not ?P)", "?P").unwrap())
            .unwrap();
        rs.push(Rule::parse(&s, "a1", &o, &[("P", "o")], "and ?P ?P", "?P").unwrap())
            .unwrap();
        rs.push(Rule::parse(&s, "n2", &o, &[("P", "o")], "not (and ?P ?P)", "not ?P").unwrap())
            .unwrap();
        // Flex lhs (metavariable head): a candidate at every head.
        rs.push(
            Rule::parse(
                &s,
                "flex",
                &o,
                &[("F", "i -> o"), ("X", "i")],
                "?F ?X",
                "?F ?X",
            )
            .unwrap(),
        )
        .unwrap();
        rs.push(Rule::parse(&s, "a2", &o, &[("P", "o"), ("Q", "o")], "and ?P ?Q", "?Q").unwrap())
            .unwrap();

        let names = |head: Option<&str>| -> Vec<&str> {
            rs.candidates(head.map(hoas_core::Sym::new).as_ref())
                .map(Rule::name)
                .collect()
        };
        // Head matches and flex rules, in insertion order.
        assert_eq!(names(Some("not")), vec!["n1", "n2", "flex"]);
        assert_eq!(names(Some("and")), vec!["a1", "flex", "a2"]);
        assert_eq!(names(Some("forall")), vec!["flex"]);
        assert_eq!(names(None), vec!["flex"]);
        // Every pattern rule is reachable at some head.
        let mut reachable: Vec<&str> = names(Some("not"));
        reachable.extend(names(Some("and")));
        for rule in rs.rules() {
            assert!(reachable.contains(&rule.name()), "{} lost", rule.name());
        }
    }

    #[test]
    fn candidates_follow_from_parts_and_truncate() {
        let s = sig();
        let o = parse_ty("o").unwrap();
        let r1 = Rule::parse(&s, "n1", &o, &[("P", "o")], "not (not ?P)", "?P").unwrap();
        let r2 = Rule::parse(&s, "a1", &o, &[("P", "o")], "and ?P ?P", "?P").unwrap();
        let mut rs = RuleSet::from_parts(vec![r1, r2], Vec::new());
        assert_eq!(
            rs.candidates(Some(&hoas_core::Sym::new("and")))
                .map(Rule::name)
                .collect::<Vec<_>>(),
            vec!["a1"]
        );
        rs.truncate_rules(1);
        assert_eq!(rs.len(), 1);
        assert!(rs
            .candidates(Some(&hoas_core::Sym::new("and")))
            .next()
            .is_none());
        assert_eq!(
            rs.candidates(Some(&hoas_core::Sym::new("not")))
                .map(Rule::name)
                .collect::<Vec<_>>(),
            vec!["n1"]
        );
    }

    #[test]
    fn arg_fingerprints_record_rigid_arg_heads() {
        let s = sig();
        let o = parse_ty("o").unwrap();
        let rule = Rule::parse(
            &s,
            "extract",
            &o,
            &[("P", "o"), ("Q", "i -> o")],
            r"and (forall (\x. ?Q x)) ?P",
            r"forall (\x. and (?Q x) ?P)",
        )
        .unwrap();
        assert_eq!(
            rule.arg_fingerprint(),
            &[Some(hoas_core::Sym::new("forall")), None]
        );
    }

    #[test]
    fn rules_record_their_classification() {
        let s = sig();
        let miller = Rule::parse(
            &s,
            "forall-triv",
            &parse_ty("o").unwrap(),
            &[("Q", "i -> o")],
            r"forall (\x. ?Q x)",
            r"forall (\x. ?Q x)",
        )
        .unwrap();
        assert_eq!(miller.classification(), PatternClass::Miller);
        let general = Rule::parse(
            &s,
            "beta-general",
            &parse_ty("o").unwrap(),
            &[("F", "i -> o"), ("X", "i")],
            "?F ?X",
            "?F ?X",
        )
        .unwrap();
        assert_eq!(general.classification(), PatternClass::General);
    }
}
