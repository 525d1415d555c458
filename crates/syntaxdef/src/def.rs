//! Language definitions: sorts and productions with binding annotations.

use crate::table::Table;
use hoas_core::sig::Signature;
use std::fmt;
use std::sync::OnceLock;

/// An argument position of a production.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Arg {
    /// A subterm of the given sort.
    Sort(String),
    /// An integer literal position.
    Int,
    /// A scope binding variables of sorts `binders` in a body of sort
    /// `body` — compiled to the metalanguage type
    /// `b₁ -> … -> bₙ -> body`.
    Binding {
        /// Sorts of the bound variables.
        binders: Vec<String>,
        /// Sort of the scope body.
        body: String,
    },
}

impl Arg {
    /// A plain subterm argument.
    pub fn sort(s: impl Into<String>) -> Arg {
        Arg::Sort(s.into())
    }

    /// A scope binding one variable.
    pub fn binding(binder: impl Into<String>, body: impl Into<String>) -> Arg {
        Arg::Binding {
            binders: vec![binder.into()],
            body: body.into(),
        }
    }

    /// A scope binding several variables.
    pub fn binding_many<S: Into<String>>(
        binders: impl IntoIterator<Item = S>,
        body: impl Into<String>,
    ) -> Arg {
        Arg::Binding {
            binders: binders.into_iter().map(Into::into).collect(),
            body: body.into(),
        }
    }
}

/// A production: an operator of a sort with typed argument positions.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Production {
    /// Operator name (becomes a metalanguage constant).
    pub name: String,
    /// Result sort.
    pub sort: String,
    /// Argument positions.
    pub args: Vec<Arg>,
}

/// Errors from language-definition validation.
#[derive(Clone, PartialEq, Eq, Debug)]
#[non_exhaustive]
pub enum DefError {
    /// A sort was declared twice.
    DuplicateSort(String),
    /// A production name was used twice (or collides with a sort).
    DuplicateProduction(String),
    /// A production refers to an undeclared sort.
    UnknownSort {
        /// The production.
        production: String,
        /// The missing sort.
        sort: String,
    },
    /// The definition declares no sorts.
    Empty,
}

impl fmt::Display for DefError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DefError::DuplicateSort(s) => write!(f, "sort `{s}` declared twice"),
            DefError::DuplicateProduction(p) => write!(f, "production `{p}` declared twice"),
            DefError::UnknownSort { production, sort } => {
                write!(f, "production `{production}` uses undeclared sort `{sort}`")
            }
            DefError::Empty => write!(f, "a language needs at least one sort"),
        }
    }
}

impl std::error::Error for DefError {}

/// A declarative object-language definition.
///
/// ```
/// use hoas_syntaxdef::{Arg, LanguageDef};
/// let def = LanguageDef::new("lc")
///     .sort("tm")
///     .prod("lam", "tm", [Arg::binding("tm", "tm")])
///     .prod("app", "tm", [Arg::sort("tm"), Arg::sort("tm")]);
/// let sig = def.compile()?;
/// assert_eq!(sig.const_ty("lam").unwrap().to_string(), "(tm -> tm) -> tm");
/// # Ok::<(), hoas_syntaxdef::DefError>(())
/// ```
#[derive(Clone, Debug)]
pub struct LanguageDef {
    name: String,
    sorts: Vec<String>,
    prods: Vec<Production>,
    /// The definition compiled for the bridge, on first use.
    table: OnceLock<Result<Table, DefError>>,
}

impl LanguageDef {
    /// Starts a definition.
    pub fn new(name: impl Into<String>) -> LanguageDef {
        LanguageDef {
            name: name.into(),
            sorts: Vec::new(),
            prods: Vec::new(),
            table: OnceLock::new(),
        }
    }

    /// Declares a sort (one metalanguage base type).
    #[must_use]
    pub fn sort(mut self, s: impl Into<String>) -> Self {
        self.sorts.push(s.into());
        self.table = OnceLock::new();
        self
    }

    /// Declares a production.
    #[must_use]
    pub fn prod(
        mut self,
        name: impl Into<String>,
        sort: impl Into<String>,
        args: impl IntoIterator<Item = Arg>,
    ) -> Self {
        self.prods.push(Production {
            name: name.into(),
            sort: sort.into(),
            args: args.into_iter().collect(),
        });
        self.table = OnceLock::new();
        self
    }

    /// The language's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Declared sorts, in order.
    pub fn sorts(&self) -> &[String] {
        &self.sorts
    }

    /// Declared productions, in order.
    pub fn productions(&self) -> &[Production] {
        &self.prods
    }

    /// Looks up a production by name.
    pub fn production(&self, name: &str) -> Option<&Production> {
        self.prods.iter().find(|p| p.name == name)
    }

    /// Validates the definition.
    ///
    /// # Errors
    ///
    /// See [`DefError`].
    pub fn validate(&self) -> Result<(), DefError> {
        self.table().map(drop)
    }

    /// The definition compiled to a production [`Table`], once.
    ///
    /// # Errors
    ///
    /// Validation errors ([`DefError`]).
    pub fn table(&self) -> Result<&Table, DefError> {
        let table = self.table.get_or_init(|| Table::new(self));
        table.as_ref().map_err(Clone::clone)
    }

    /// Compiles to a signature: one base type per sort, one constant per
    /// production.
    ///
    /// # Errors
    ///
    /// Validation errors ([`DefError`]).
    pub fn compile(&self) -> Result<Signature, DefError> {
        self.table().map(|t| t.signature().clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lc() -> LanguageDef {
        LanguageDef::new("lc")
            .sort("tm")
            .prod("lam", "tm", [Arg::binding("tm", "tm")])
            .prod("app", "tm", [Arg::sort("tm"), Arg::sort("tm")])
    }

    #[test]
    fn compiles_lambda_calculus() {
        let sig = lc().compile().unwrap();
        assert!(sig.has_type("tm"));
        assert_eq!(sig.const_ty("lam").unwrap().to_string(), "(tm -> tm) -> tm");
        assert_eq!(sig.const_ty("app").unwrap().to_string(), "tm -> tm -> tm");
    }

    #[test]
    fn multi_binder_and_int_args() {
        let def = LanguageDef::new("x")
            .sort("e")
            .prod("lit", "e", [Arg::Int])
            .prod(
                "let2",
                "e",
                [
                    Arg::sort("e"),
                    Arg::sort("e"),
                    Arg::binding_many(["e", "e"], "e"),
                ],
            );
        let sig = def.compile().unwrap();
        assert_eq!(sig.const_ty("lit").unwrap().to_string(), "int -> e");
        assert_eq!(
            sig.const_ty("let2").unwrap().to_string(),
            "e -> e -> (e -> e -> e) -> e"
        );
    }

    #[test]
    fn rejects_duplicate_sort() {
        let def = LanguageDef::new("x").sort("e").sort("e");
        assert_eq!(def.validate(), Err(DefError::DuplicateSort("e".into())));
    }

    #[test]
    fn rejects_duplicate_production_and_sort_collision() {
        let def = LanguageDef::new("x")
            .sort("e")
            .prod("f", "e", [])
            .prod("f", "e", []);
        assert!(matches!(
            def.validate(),
            Err(DefError::DuplicateProduction(_))
        ));
        let def = LanguageDef::new("x").sort("e").prod("e", "e", []);
        assert!(matches!(
            def.validate(),
            Err(DefError::DuplicateProduction(_))
        ));
    }

    #[test]
    fn rejects_unknown_sort() {
        let def = LanguageDef::new("x").sort("e").prod("f", "ghost", []);
        assert!(matches!(def.validate(), Err(DefError::UnknownSort { .. })));
        let def = LanguageDef::new("x")
            .sort("e")
            .prod("f", "e", [Arg::binding("ghost", "e")]);
        assert!(matches!(def.validate(), Err(DefError::UnknownSort { .. })));
    }

    #[test]
    fn rejects_empty() {
        assert_eq!(LanguageDef::new("x").validate(), Err(DefError::Empty));
    }

    #[test]
    fn production_lookup() {
        let def = lc();
        assert_eq!(def.production("lam").unwrap().args.len(), 1);
        assert!(def.production("ghost").is_none());
        assert_eq!(def.sorts(), &["tm".to_string()]);
        assert_eq!(def.productions().len(), 2);
        assert_eq!(def.name(), "lc");
    }
}
