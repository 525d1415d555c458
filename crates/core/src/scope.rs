//! Names in scope: the one structure with which the printer, the parser
//! and the object-language codecs resolve a name to its innermost binder
//! and freshen a binder's hint.
//!
//! A [`Scope`] is a stack of binder names, outermost first. It keeps,
//! per name, the level of its innermost binder (each binder remembers
//! the level of the binder of the same name that it shadows, so a pop
//! restores it), and, per hint that needed a suffix, where the search
//! for a free suffix resumes.
//! Resolving a name, reading the name of a de Bruijn index, pushing,
//! popping and freshening are then each amortized O(1), however deep the
//! binders nest.

use crate::store::FxBuild;
use std::borrow::Borrow;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::hash::Hash;

/// A stack of binder names with O(1) innermost-binder lookup and
/// amortized O(1) freshening.
///
/// ```
/// use hoas_core::scope::Scope;
/// let mut scope: Scope<&str> = Scope::new();
/// scope.push("x");
/// scope.push("y");
/// scope.push("x");
/// assert_eq!(scope.index_of("x"), Some(0)); // the innermost `x` wins
/// assert_eq!(scope.shadowed(0), Some(2)); // and shadows the outer one
/// assert_eq!(scope.index_of("y"), Some(1));
/// scope.pop();
/// assert_eq!(scope.index_of("x"), Some(1));
/// assert_eq!(scope.name(0), Some(&"y"));
/// ```
#[derive(Clone, Debug)]
pub struct Scope<N> {
    /// The names in scope, outermost first, each with 1 + the level of
    /// the binder of the same name that it shadows (0 if none).
    names: Vec<(N, u32)>,
    /// Per name ever bound, 1 + the level of its innermost binder (0 once
    /// no binder of that name is in scope).
    innermost: HashMap<N, u32, FxBuild>,
    /// Per hint `b` that needed a suffix, a `k` such that `b1` … `b(k-1)`
    /// are all in scope: where the search for a fresh `b{i}` resumes.
    next_suffix: HashMap<Box<str>, u32, FxBuild>,
}

impl<N> Default for Scope<N> {
    fn default() -> Self {
        Scope {
            names: Vec::new(),
            innermost: HashMap::default(),
            next_suffix: HashMap::default(),
        }
    }
}

impl<N: Borrow<str> + Hash + Eq + Clone> Scope<N> {
    /// An empty scope.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of binders in scope.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether no binder is in scope.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Binds `name` innermost.
    pub fn push(&mut self, name: N) {
        let level = self.names.len() as u32 + 1;
        let slot = self.innermost.entry(name.clone()).or_default();
        let shadowed = std::mem::replace(slot, level);
        self.names.push((name, shadowed));
    }

    /// Unbinds the innermost name and returns it.
    pub fn pop(&mut self) -> Option<N> {
        let (name, shadowed) = self.names.pop()?;
        *self
            .innermost
            .get_mut(name.borrow())
            .expect("every name in scope is indexed") = shadowed;
        // `name` may be `b{k}` for several splits (`x12` is `x1`·2 and
        // `x`·12): each such search must resume at `k` or below. (If
        // `name` is still in scope, resuming lower is merely redundant.)
        if !self.next_suffix.is_empty() {
            let s: &str = name.borrow();
            let stem = s.trim_end_matches(|c: char| c.is_ascii_digit()).len();
            for split in stem..s.len() {
                let (base, suffix) = s.split_at(split);
                if suffix.starts_with('0') {
                    continue;
                }
                if let (Some(next), Ok(k)) = (self.next_suffix.get_mut(base), suffix.parse()) {
                    *next = (*next).min(k);
                }
            }
        }
        Some(name)
    }

    /// The name bound by de Bruijn index `index` (0 is the innermost
    /// binder), if that many binders are in scope.
    pub fn name(&self, index: u32) -> Option<&N> {
        let level = self.names.len().checked_sub(1 + index as usize)?;
        Some(&self.names[level].0)
    }

    /// The de Bruijn index of the innermost binder of `name`, if any.
    pub fn index_of(&self, name: &str) -> Option<u32> {
        let level = *self.innermost.get(name)?;
        (level > 0).then(|| self.names.len() as u32 - level)
    }

    /// The de Bruijn index of the binder that the binder at `index`
    /// shadows (the next one out with the same name), if any.
    pub fn shadowed(&self, index: u32) -> Option<u32> {
        let level = self.names.len().checked_sub(1 + index as usize)?;
        let outer = self.names[level].1;
        (outer > 0).then(|| self.names.len() as u32 - outer)
    }

    /// Whether a binder of `name` is in scope.
    pub fn contains(&self, name: &str) -> bool {
        self.index_of(name).is_some()
    }
}

impl<N: Borrow<str> + Hash + Eq + Clone + From<String>> Scope<N> {
    /// A name for a binder with hint `hint` that no name in scope equals:
    /// the hint itself (`x` if it is empty) if it is free, else the hint
    /// with the least suffix `1, 2, …` that is free (so a shadowed `x1`
    /// becomes `x11`). The caller pushes the result.
    pub fn fresh(&mut self, hint: &N) -> N {
        let base: &str = hint.borrow();
        if base.is_empty() {
            return self.fresh(&N::from("x".to_string()));
        }
        if !self.contains(base) {
            return hint.clone();
        }
        let mut next = self.next_suffix.get(base).copied().unwrap_or(1);
        let mut cand = String::new();
        loop {
            cand.clear();
            write!(cand, "{base}{next}").expect("writing to a String cannot fail");
            next += 1;
            if !self.contains(&cand) {
                break;
            }
        }
        match self.next_suffix.get_mut(base) {
            Some(slot) => *slot = next,
            None => {
                self.next_suffix.insert(base.into(), next);
            }
        }
        N::from(cand)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Sym;

    #[test]
    fn innermost_binder_wins_and_pop_restores_the_shadowed_one() {
        let mut s: Scope<&str> = Scope::new();
        assert_eq!(s.index_of("x"), None);
        s.push("x");
        s.push("y");
        s.push("x");
        assert_eq!(s.index_of("x"), Some(0));
        assert_eq!(s.index_of("y"), Some(1));
        assert_eq!(s.name(2), Some(&"x"));
        assert_eq!(s.name(3), None);
        assert_eq!(s.pop(), Some("x"));
        assert_eq!(s.index_of("x"), Some(1));
        s.pop();
        s.pop();
        assert!(s.is_empty() && !s.contains("x"));
        assert_eq!(s.pop(), None);
    }

    #[test]
    fn fresh_names_avoid_every_name_in_scope() {
        let mut s: Scope<Sym> = Scope::new();
        let x = Sym::new("x");
        assert_eq!(s.fresh(&x), "x");
        s.push(x.clone());
        let x1 = s.fresh(&x);
        assert_eq!(x1, "x1");
        s.push(x1);
        // An empty hint reads as `x`.
        assert_eq!(s.fresh(&Sym::new("")), "x2");
        // Released suffixes are reused.
        s.pop();
        assert_eq!(s.fresh(&x), "x1");
    }

    #[test]
    fn a_suffix_goes_after_the_whole_hint() {
        // Digits ending a hint are kept: a shadowed `x1` becomes `x11`
        // (not `x2`), a shadowed `v0` becomes `v01`.
        let mut s: Scope<Sym> = Scope::new();
        s.push(Sym::new("x1"));
        s.push(Sym::new("v0"));
        assert_eq!(s.fresh(&Sym::new("x1")), "x11");
        assert_eq!(s.fresh(&Sym::new("v0")), "v01");
        assert_eq!(s.fresh(&Sym::new("x")), "x");
    }

    #[test]
    fn shadowed_walks_out_through_binders_of_one_name() {
        let mut s: Scope<&str> = Scope::new();
        for name in ["x", "y", "x", "z", "x"] {
            s.push(name);
        }
        assert_eq!(s.index_of("x"), Some(0));
        assert_eq!(s.shadowed(0), Some(2));
        assert_eq!(s.shadowed(2), Some(4));
        assert_eq!(s.shadowed(4), None);
        assert_eq!(s.shadowed(1), None);
        assert_eq!(s.shadowed(5), None);
    }

    #[test]
    fn deep_all_same_hints_freshen_in_linear_time() {
        let mut s: Scope<Sym> = Scope::new();
        let x = Sym::new("x");
        for i in 0..100_000u32 {
            let name = s.fresh(&x);
            assert_eq!(s.index_of(name.as_str()), None);
            s.push(name);
            assert_eq!(s.len(), i as usize + 1);
        }
        assert_eq!(s.name(0).map(Sym::as_str), Some("x99999"));
        assert_eq!(s.index_of("x"), Some(99_999));
    }
}
