//! Signatures: declared base types and typed constants.
//!
//! A signature plays the role of the paper's "representation types": an
//! object language is specified by declaring one base type per syntactic
//! category and one constant per production, with binding positions given
//! functional types. See `hoas-syntaxdef` for the grammar-level front end.

use crate::error::Error;
use crate::intern::Sym;
use crate::store::FxBuild;
use crate::ty::{Ty, TyScheme};
use std::collections::HashMap;
use std::fmt;

/// A signature: an ordered list of base-type and constant declarations.
///
/// ```
/// use hoas_core::{sig::Signature, Ty, TyScheme};
/// let mut sig = Signature::new();
/// sig.declare_type("o")?;
/// let o = Ty::base("o");
/// sig.declare_const("and", TyScheme::mono(Ty::arrows([o.clone(), o.clone()], o.clone())))?;
/// assert!(sig.has_type("o"));
/// assert_eq!(sig.const_ty("and").unwrap().to_string(), "o -> o -> o");
/// # Ok::<(), hoas_core::Error>(())
/// ```
#[derive(Clone, Debug, Default)]
pub struct Signature {
    types: Vec<Sym>,
    type_set: HashMap<Sym, usize, FxBuild>,
    consts: Vec<(Sym, TyScheme)>,
    const_map: HashMap<Sym, usize, FxBuild>,
}

impl Signature {
    /// An empty signature.
    pub fn new() -> Signature {
        Signature::default()
    }

    /// Parses a signature from its concrete syntax; see
    /// [`crate::parse::parse_sig`].
    ///
    /// # Errors
    ///
    /// Returns parse errors and redeclaration errors.
    pub fn parse(src: &str) -> Result<Signature, Error> {
        crate::parse::parse_sig(src)
    }

    /// Declares a base type.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Redeclared`] if the name is already a type.
    pub fn declare_type(&mut self, name: impl Into<Sym>) -> Result<(), Error> {
        let name = name.into();
        if self.type_set.contains_key(&name) {
            return Err(Error::Redeclared { name });
        }
        self.type_set.insert(name.clone(), self.types.len());
        self.types.push(name);
        Ok(())
    }

    /// Declares a constant with the given type schema.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Redeclared`] if the name is already a constant, or
    /// [`Error::UnknownType`] if the schema mentions an undeclared base
    /// type.
    pub fn declare_const(
        &mut self,
        name: impl Into<Sym>,
        scheme: impl Into<TyScheme>,
    ) -> Result<(), Error> {
        let name = name.into();
        let scheme = scheme.into();
        if self.const_map.contains_key(&name) {
            return Err(Error::Redeclared { name });
        }
        self.check_ty_wf(scheme.body())?;
        self.const_map.insert(name.clone(), self.consts.len());
        self.consts.push((name, scheme));
        Ok(())
    }

    /// Checks that a type mentions only declared base types.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownType`] on the first undeclared base type.
    pub fn check_ty_wf(&self, ty: &Ty) -> Result<(), Error> {
        match ty {
            Ty::Base(name) => {
                if self.has_type(name.as_str()) {
                    Ok(())
                } else {
                    Err(Error::UnknownType { name: name.clone() })
                }
            }
            Ty::Arrow(a, b) | Ty::Prod(a, b) => {
                self.check_ty_wf(a)?;
                self.check_ty_wf(b)
            }
            Ty::Int | Ty::Unit | Ty::Var(_) => Ok(()),
        }
    }

    /// Whether a base type with this name is declared.
    pub fn has_type(&self, name: &str) -> bool {
        self.type_set.contains_key(name)
    }

    /// Whether a constant with this name is declared.
    pub fn has_const(&self, name: &str) -> bool {
        self.const_map.contains_key(name)
    }

    /// The signature's own symbol for a declared constant: lets a front
    /// end resolve an identifier to a shared [`Sym`] (a refcount bump)
    /// instead of allocating a fresh one per occurrence.
    pub fn const_sym(&self, name: &str) -> Option<&Sym> {
        self.const_map.get(name).map(|&i| &self.consts[i].0)
    }

    /// The type schema of a constant, if declared.
    pub fn const_ty(&self, name: &str) -> Option<&TyScheme> {
        self.const_map.get(name).map(|&i| &self.consts[i].1)
    }

    /// Iterates declared base types in declaration order.
    pub fn types(&self) -> impl Iterator<Item = &Sym> {
        self.types.iter()
    }

    /// Iterates declared constants in declaration order.
    pub fn consts(&self) -> impl Iterator<Item = (&Sym, &TyScheme)> {
        self.consts.iter().map(|(s, t)| (s, t))
    }

    /// The constants whose type *targets* the given base type — the
    /// "constructors" of that syntactic category. Used for adequacy checks
    /// and exhaustive decoding.
    pub fn constructors_of(&self, base: &str) -> Vec<(&Sym, &TyScheme)> {
        self.consts
            .iter()
            .filter(|(_, sch)| matches!(sch.body().uncurry().1, Ty::Base(b) if b.as_str() == base))
            .map(|(s, t)| (s, t))
            .collect()
    }

    /// Merges another signature into this one.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Redeclared`] if a constant name collides with a
    /// *different* declaration; identical re-declarations are permitted so
    /// that language fragments can share (e.g. both declare `o`).
    pub fn merge(&mut self, other: &Signature) -> Result<(), Error> {
        for t in &other.types {
            if !self.has_type(t.as_str()) {
                self.declare_type(t.clone())?;
            }
        }
        for (name, scheme) in &other.consts {
            match self.const_ty(name.as_str()) {
                None => self.declare_const(name.clone(), scheme.clone())?,
                Some(existing) if existing == scheme => {}
                Some(_) => return Err(Error::Redeclared { name: name.clone() }),
            }
        }
        Ok(())
    }

    /// Number of declared constants.
    pub fn num_consts(&self) -> usize {
        self.consts.len()
    }

    /// Number of declared base types.
    pub fn num_types(&self) -> usize {
        self.types.len()
    }
}

impl fmt::Display for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for t in &self.types {
            writeln!(f, "type {t}.")?;
        }
        for (c, sch) in &self.consts {
            writeln!(f, "const {c} : {sch}.")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sig() -> Signature {
        let mut s = Signature::new();
        s.declare_type("tm").unwrap();
        s.declare_type("o").unwrap();
        let tm = Ty::base("tm");
        s.declare_const(
            "lam",
            Ty::arrow(Ty::arrow(tm.clone(), tm.clone()), tm.clone()),
        )
        .unwrap();
        s.declare_const("app", Ty::arrows([tm.clone(), tm.clone()], tm.clone()))
            .unwrap();
        s
    }

    #[test]
    fn declare_and_lookup() {
        let s = sig();
        assert!(s.has_type("tm"));
        assert!(!s.has_type("nat"));
        assert!(s.has_const("lam"));
        assert_eq!(s.const_ty("app").unwrap().to_string(), "tm -> tm -> tm");
        assert!(s.const_ty("missing").is_none());
        assert_eq!(s.num_consts(), 2);
        assert_eq!(s.num_types(), 2);
    }

    #[test]
    fn rejects_redeclaration() {
        let mut s = sig();
        assert!(matches!(
            s.declare_type("tm"),
            Err(Error::Redeclared { .. })
        ));
        assert!(matches!(
            s.declare_const("lam", Ty::Int),
            Err(Error::Redeclared { .. })
        ));
    }

    #[test]
    fn rejects_unknown_base_type() {
        let mut s = sig();
        assert!(matches!(
            s.declare_const("bad", Ty::base("nat")),
            Err(Error::UnknownType { .. })
        ));
    }

    #[test]
    fn constructors_of_filters_by_target() {
        let s = sig();
        let ctors = s.constructors_of("tm");
        let names: Vec<&str> = ctors.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["lam", "app"]);
        assert!(s.constructors_of("o").is_empty());
    }

    #[test]
    fn merge_shares_identical_decls() {
        let mut a = sig();
        let b = sig();
        a.merge(&b).unwrap();
        assert_eq!(a.num_consts(), 2);
    }

    #[test]
    fn merge_rejects_conflicting_decls() {
        let mut a = sig();
        let mut b = Signature::new();
        b.declare_type("tm").unwrap();
        b.declare_const("lam", Ty::base("tm")).unwrap();
        assert!(matches!(a.merge(&b), Err(Error::Redeclared { .. })));
    }

    #[test]
    fn display_roundtrips_through_parser() {
        let s = sig();
        let printed = s.to_string();
        let reparsed = Signature::parse(&printed).unwrap();
        assert_eq!(reparsed.to_string(), printed);
    }
}
