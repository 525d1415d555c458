//! Typing contexts for de Bruijn terms.

use crate::intern::Sym;
use crate::ty::Ty;
use std::fmt;

/// A typing context: a stack of `(hint, type)` entries, innermost last.
///
/// `Var(0)` refers to the **last** pushed entry.
///
/// ```
/// use hoas_core::{ctx::Ctx, Sym, Ty};
/// let ctx = Ctx::new()
///     .push(Sym::new("x"), Ty::Int)
///     .push(Sym::new("y"), Ty::Unit);
/// assert_eq!(ctx.lookup(0).unwrap().1, &Ty::Unit); // y, innermost
/// assert_eq!(ctx.lookup(1).unwrap().1, &Ty::Int); // x
/// assert!(ctx.lookup(2).is_none());
/// ```
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Ctx {
    entries: Vec<(Sym, Ty)>,
}

impl Ctx {
    /// The empty context.
    pub fn new() -> Ctx {
        Ctx::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the context is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Returns a new context extended with one entry (persistent-style
    /// API). This clones the whole context: O(len), copying each entry's
    /// `Ty`. `normalize::canon`, type reconstruction (`infer`), the
    /// pattern unifier and the anti-unifier still extend contexts this
    /// way; a traversal that enters many binders should keep them on a
    /// stack of its own instead, as [`crate::typeck`] does, or use
    /// [`Ctx::push_mut`]/[`Ctx::pop_mut`], as the rewrite engine does.
    #[must_use]
    pub fn push(&self, hint: Sym, ty: Ty) -> Ctx {
        let mut entries = self.entries.clone();
        entries.push((hint, ty));
        Ctx { entries }
    }

    /// Extends in place.
    pub fn push_mut(&mut self, hint: Sym, ty: Ty) {
        self.entries.push((hint, ty));
    }

    /// Removes the innermost entry in place.
    pub fn pop_mut(&mut self) -> Option<(Sym, Ty)> {
        self.entries.pop()
    }

    /// Looks up a de Bruijn index (0 = innermost).
    pub fn lookup(&self, index: u32) -> Option<(&Sym, &Ty)> {
        let n = self.entries.len();
        let i = n.checked_sub(1 + index as usize)?;
        self.entries.get(i).map(|(s, t)| (s, t))
    }

    /// Iterates entries from outermost to innermost.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = (&Sym, &Ty)> {
        self.entries.iter().map(|(s, t)| (s, t))
    }

    /// The hints currently in scope, outermost first.
    pub fn hints(&self) -> Vec<&Sym> {
        self.entries.iter().map(|(s, _)| s).collect()
    }
}

impl FromIterator<(Sym, Ty)> for Ctx {
    fn from_iter<I: IntoIterator<Item = (Sym, Ty)>>(iter: I) -> Self {
        Ctx {
            entries: iter.into_iter().collect(),
        }
    }
}

impl Extend<(Sym, Ty)> for Ctx {
    fn extend<I: IntoIterator<Item = (Sym, Ty)>>(&mut self, iter: I) {
        self.entries.extend(iter);
    }
}

impl fmt::Display for Ctx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.entries.is_empty() {
            return f.write_str("·");
        }
        for (i, (s, t)) in self.entries.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{s} : {t}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_is_innermost_first() {
        let ctx = Ctx::new()
            .push(Sym::new("a"), Ty::base("A"))
            .push(Sym::new("b"), Ty::base("B"));
        assert_eq!(ctx.lookup(0).unwrap().0.as_str(), "b");
        assert_eq!(ctx.lookup(1).unwrap().0.as_str(), "a");
        assert!(ctx.lookup(2).is_none());
    }

    #[test]
    fn push_is_persistent() {
        let base = Ctx::new();
        let ext = base.push(Sym::new("x"), Ty::Int);
        assert!(base.is_empty());
        assert_eq!(ext.len(), 1);
    }

    #[test]
    fn push_pop_mut() {
        let mut ctx = Ctx::new();
        ctx.push_mut(Sym::new("x"), Ty::Int);
        assert_eq!(ctx.len(), 1);
        let (s, t) = ctx.pop_mut().unwrap();
        assert_eq!(s.as_str(), "x");
        assert_eq!(t, Ty::Int);
        assert!(ctx.pop_mut().is_none());
    }

    #[test]
    fn display_empty_and_nonempty() {
        assert_eq!(Ctx::new().to_string(), "·");
        let ctx = Ctx::new().push(Sym::new("x"), Ty::Int);
        assert_eq!(ctx.to_string(), "x : int");
    }

    #[test]
    fn from_iterator() {
        let ctx: Ctx = [(Sym::new("x"), Ty::Int), (Sym::new("y"), Ty::Unit)]
            .into_iter()
            .collect();
        assert_eq!(ctx.len(), 2);
        assert_eq!(ctx.lookup(0).unwrap().0.as_str(), "y");
    }
}
