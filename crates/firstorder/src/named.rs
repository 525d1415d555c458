//! Named abstract binding trees: the conventional representation the
//! paper argues against.
//!
//! A [`Tree`] is either a named variable or an operator applied to
//! *abstractions* ([`Abs`]): scopes that bind zero or more names. This is
//! generic first-order abstract syntax — e.g. the untyped λ-calculus uses
//! operators `lam` (one abstraction binding one name) and `app` (two
//! abstractions binding nothing).
//!
//! The module deliberately provides **both** substitutions:
//!
//! * [`Tree::subst_naive`] — textbook-naive, *captures* variables
//!   (experiment E1 demonstrates the bug);
//! * [`Tree::subst`] — capture-avoiding, freshening binders as needed
//!   (the machinery every first-order implementation must write and test,
//!   and which HOAS gets for free from β-reduction).

use std::collections::HashSet;
use std::fmt::{self, Write as _};

/// A scope: `binders` are bound within `body`.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Abs {
    /// Names bound in the body (may be empty for a plain subterm).
    pub binders: Vec<String>,
    /// The scope body.
    pub body: Tree,
}

impl Abs {
    /// A scope binding no names.
    pub fn plain(body: Tree) -> Abs {
        Abs {
            binders: Vec::new(),
            body,
        }
    }

    /// A scope binding one name.
    pub fn bind(name: impl Into<String>, body: Tree) -> Abs {
        Abs {
            binders: vec![name.into()],
            body,
        }
    }
}

/// A named first-order term.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Tree {
    /// A variable occurrence.
    Var(String),
    /// An operator applied to scopes.
    Node(String, Vec<Abs>),
}

impl Tree {
    /// Convenience constructor for a variable.
    pub fn var(name: impl Into<String>) -> Tree {
        Tree::Var(name.into())
    }

    /// Convenience constructor for a leaf operator (no children).
    pub fn leaf(op: impl Into<String>) -> Tree {
        Tree::Node(op.into(), Vec::new())
    }

    /// Convenience constructor for an operator over unbound children.
    pub fn node(op: impl Into<String>, children: impl IntoIterator<Item = Tree>) -> Tree {
        Tree::Node(op.into(), children.into_iter().map(Abs::plain).collect())
    }

    /// Convenience constructor for a unary binder operator, e.g.
    /// `Tree::binder("lam", "x", body)` for `λx. body`.
    pub fn binder(op: impl Into<String>, name: impl Into<String>, body: Tree) -> Tree {
        Tree::Node(op.into(), vec![Abs::bind(name, body)])
    }

    /// Number of AST nodes.
    pub fn size(&self) -> usize {
        match self {
            Tree::Var(_) => 1,
            Tree::Node(_, scopes) => 1 + scopes.iter().map(|s| s.body.size()).sum::<usize>(),
        }
    }

    /// The free variables of the term.
    pub fn free_vars(&self) -> HashSet<String> {
        fn go(t: &Tree, bound: &mut Vec<String>, acc: &mut HashSet<String>) {
            match t {
                Tree::Var(x) => {
                    if !bound.iter().any(|b| b == x) {
                        acc.insert(x.clone());
                    }
                }
                Tree::Node(_, scopes) => {
                    for s in scopes {
                        let n = s.binders.len();
                        bound.extend(s.binders.iter().cloned());
                        go(&s.body, bound, acc);
                        bound.truncate(bound.len() - n);
                    }
                }
            }
        }
        let mut acc = HashSet::new();
        go(self, &mut Vec::new(), &mut acc);
        acc
    }

    /// Whether `x` occurs free.
    pub fn occurs_free(&self, x: &str) -> bool {
        match self {
            Tree::Var(y) => y == x,
            Tree::Node(_, scopes) => scopes
                .iter()
                .any(|s| !s.binders.iter().any(|b| b == x) && s.body.occurs_free(x)),
        }
    }

    /// **Naive** substitution `self[x := s]`: replaces free occurrences of
    /// `x` without renaming binders. **Wrong in general** — if `s` has a
    /// free variable that a binder on the path captures, the result is
    /// incorrect (the classic bug the paper's Section 2 warns about).
    /// Kept for the E1 experiment and as a fast path when `s` is closed.
    pub fn subst_naive(&self, x: &str, s: &Tree) -> Tree {
        match self {
            Tree::Var(y) => {
                if y == x {
                    s.clone()
                } else {
                    self.clone()
                }
            }
            Tree::Node(op, scopes) => Tree::Node(
                op.clone(),
                scopes
                    .iter()
                    .map(|sc| {
                        if sc.binders.iter().any(|b| b == x) {
                            sc.clone() // x is shadowed: stop
                        } else {
                            Abs {
                                binders: sc.binders.clone(),
                                body: sc.body.subst_naive(x, s),
                            }
                        }
                    })
                    .collect(),
            ),
        }
    }

    /// Capture-avoiding substitution `self[x := s]`, freshening binders
    /// that would capture a free variable of `s`.
    pub fn subst(&self, x: &str, s: &Tree) -> Tree {
        let fvs = s.free_vars();
        self.subst_avoiding(x, s, &fvs)
    }

    fn subst_avoiding(&self, x: &str, s: &Tree, fvs: &HashSet<String>) -> Tree {
        match self {
            Tree::Var(y) => {
                if y == x {
                    s.clone()
                } else {
                    self.clone()
                }
            }
            Tree::Node(op, scopes) => Tree::Node(
                op.clone(),
                scopes
                    .iter()
                    .map(|sc| {
                        if sc.binders.iter().any(|b| b == x) {
                            return sc.clone(); // shadowed
                        }
                        // Freshen binders that would capture. The fresh
                        // name must avoid not only the free variables in
                        // play but also every binder name inside the body:
                        // `rename_free` does not freshen nested binders,
                        // so a colliding choice would be captured deeper
                        // down. (Exactly the kind of subtlety the paper
                        // says hand-written substitution keeps getting
                        // wrong — our own first version had this bug,
                        // caught by the cross-representation property
                        // tests.)
                        let mut binders = sc.binders.clone();
                        let mut body = sc.body.clone();
                        for b in binders.iter_mut() {
                            if fvs.contains(b.as_str()) && body.occurs_free(b) {
                                let mut avoid: HashSet<String> = fvs.clone();
                                avoid.extend(all_names(&body));
                                avoid.insert(x.to_string());
                                let fresh = fresh_name(b, &avoid);
                                body = body.rename_free(b, &fresh);
                                *b = fresh;
                            } else if fvs.contains(b.as_str()) {
                                // Binder clashes but is unused: still rename
                                // to keep the scopes disjoint (cheap).
                                let mut avoid: HashSet<String> = fvs.clone();
                                avoid.insert(x.to_string());
                                *b = fresh_name(b, &avoid);
                            }
                        }
                        Abs {
                            binders,
                            body: body.subst_avoiding(x, s, fvs),
                        }
                    })
                    .collect(),
            ),
        }
    }

    /// Renames free occurrences of `from` to `to` (capture is the caller's
    /// concern; used internally with fresh names only).
    pub fn rename_free(&self, from: &str, to: &str) -> Tree {
        match self {
            Tree::Var(y) => {
                if y == from {
                    Tree::var(to)
                } else {
                    self.clone()
                }
            }
            Tree::Node(op, scopes) => Tree::Node(
                op.clone(),
                scopes
                    .iter()
                    .map(|sc| {
                        if sc.binders.iter().any(|b| b == from) {
                            sc.clone()
                        } else {
                            Abs {
                                binders: sc.binders.clone(),
                                body: sc.body.rename_free(from, to),
                            }
                        }
                    })
                    .collect(),
            ),
        }
    }

    /// α-equivalence: equality up to consistent renaming of bound
    /// variables. In this representation it needs an explicit recursive
    /// comparison with a renaming environment — contrast with de Bruijn
    /// (structural `==`) and HOAS (kernel `==`).
    pub fn alpha_eq(&self, other: &Tree) -> bool {
        fn go(a: &Tree, b: &Tree, env: &mut Vec<(String, String)>) -> bool {
            match (a, b) {
                (Tree::Var(x), Tree::Var(y)) => {
                    // Innermost binding wins.
                    for (bx, by) in env.iter().rev() {
                        let lx = bx == x;
                        let ly = by == y;
                        if lx || ly {
                            return lx && ly;
                        }
                    }
                    x == y
                }
                (Tree::Node(f, ss), Tree::Node(g, ts)) => {
                    if f != g || ss.len() != ts.len() {
                        return false;
                    }
                    ss.iter().zip(ts).all(|(s, t)| {
                        if s.binders.len() != t.binders.len() {
                            return false;
                        }
                        let n = s.binders.len();
                        for (bs, bt) in s.binders.iter().zip(&t.binders) {
                            env.push((bs.clone(), bt.clone()));
                        }
                        let r = go(&s.body, &t.body, env);
                        env.truncate(env.len() - n);
                        r
                    })
                }
                _ => false,
            }
        }
        go(self, other, &mut Vec::new())
    }
}

/// Every name occurring in a tree — variables *and* binders. Fresh-name
/// choices during substitution must avoid all of them.
pub fn all_names(t: &Tree) -> HashSet<String> {
    fn go(t: &Tree, acc: &mut HashSet<String>) {
        match t {
            Tree::Var(x) => {
                acc.insert(x.clone());
            }
            Tree::Node(_, scopes) => {
                for s in scopes {
                    acc.extend(s.binders.iter().cloned());
                    go(&s.body, acc);
                }
            }
        }
    }
    let mut acc = HashSet::new();
    go(t, &mut acc);
    acc
}

/// Produces a name based on `base` that is not in `avoid`.
pub fn fresh_name(base: &str, avoid: &HashSet<String>) -> String {
    fresh_name_by(base, |n| avoid.contains(n))
}

/// Produces a name based on `base` for which `taken` is false: `base`
/// itself if free, else its digit-stripped stem (`x` if empty) with the
/// least suffix `1, 2, …` that is free. [`fresh_name`] is this with a
/// set lookup; a caller whose names in scope sit in a slice can test
/// them in place instead of collecting a set.
pub fn fresh_name_by(base: &str, taken: impl Fn(&str) -> bool) -> String {
    if !taken(base) {
        return base.to_string();
    }
    let stem: &str = base.trim_end_matches(|c: char| c.is_ascii_digit());
    let stem = if stem.is_empty() { "x" } else { stem };
    let mut cand = String::with_capacity(stem.len() + 2);
    for i in 1u64.. {
        cand.clear();
        write!(cand, "{stem}{i}").expect("writing to a String cannot fail");
        if !taken(&cand) {
            return cand;
        }
    }
    unreachable!()
}

impl fmt::Display for Tree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tree::Var(x) => f.write_str(x),
            Tree::Node(op, scopes) => {
                if scopes.is_empty() {
                    return f.write_str(op);
                }
                write!(f, "{op}(")?;
                for (i, s) in scopes.iter().enumerate() {
                    if i > 0 {
                        f.write_str("; ")?;
                    }
                    for b in &s.binders {
                        write!(f, "{b}.")?;
                    }
                    write!(f, "{}", s.body)?;
                }
                f.write_str(")")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(x: &str) -> Tree {
        Tree::var(x)
    }

    /// λx. body in the generic tree language.
    fn lam(x: &str, body: Tree) -> Tree {
        Tree::binder("lam", x, body)
    }

    fn app(f: Tree, a: Tree) -> Tree {
        Tree::node("app", [f, a])
    }

    #[test]
    fn free_vars_respect_binding() {
        let t = lam("x", app(v("x"), v("y")));
        let fvs = t.free_vars();
        assert!(fvs.contains("y"));
        assert!(!fvs.contains("x"));
        assert!(t.occurs_free("y"));
        assert!(!t.occurs_free("x"));
    }

    #[test]
    fn naive_substitution_captures() {
        // (λy. x)[x := y] must NOT become λy. y — but naive subst does.
        let t = lam("y", v("x"));
        let naive = t.subst_naive("x", &v("y"));
        assert_eq!(naive, lam("y", v("y")), "this is the classic capture bug");
        // Capture-avoiding substitution renames the binder.
        let correct = t.subst("x", &v("y"));
        assert!(correct.alpha_eq(&lam("z", v("y"))));
        assert!(!correct.alpha_eq(&lam("y", v("y"))));
    }

    #[test]
    fn naive_agrees_with_correct_on_closed_replacement() {
        let t = lam("y", app(v("x"), v("y")));
        let closed = lam("z", v("z"));
        assert_eq!(t.subst_naive("x", &closed), t.subst("x", &closed));
    }

    #[test]
    fn shadowed_variable_not_substituted() {
        let t = lam("x", v("x"));
        assert_eq!(t.subst("x", &v("y")), t);
        assert_eq!(t.subst_naive("x", &v("y")), t);
    }

    #[test]
    fn substitution_lemma_closed() {
        // t[x:=a][y:=b] == t[y:=b][x:=a] when a, b closed and x ≠ y.
        let t = app(v("x"), lam("z", app(v("y"), v("z"))));
        let a = Tree::leaf("c1");
        let b = Tree::leaf("c2");
        let lhs = t.subst("x", &a).subst("y", &b);
        let rhs = t.subst("y", &b).subst("x", &a);
        assert!(lhs.alpha_eq(&rhs));
    }

    #[test]
    fn alpha_eq_basic() {
        assert!(lam("x", v("x")).alpha_eq(&lam("y", v("y"))));
        assert!(!lam("x", v("x")).alpha_eq(&lam("x", v("z"))));
        // Free variables must match exactly.
        assert!(!lam("x", v("a")).alpha_eq(&lam("x", v("b"))));
        assert!(v("a").alpha_eq(&v("a")));
    }

    #[test]
    fn alpha_eq_nested_shadowing() {
        // λx. λx. x  ≡α  λy. λz. z
        let a = lam("x", lam("x", v("x")));
        let b = lam("y", lam("z", v("z")));
        assert!(a.alpha_eq(&b));
        // but not λy. λz. y
        let c = lam("y", lam("z", v("y")));
        assert!(!a.alpha_eq(&c));
    }

    #[test]
    fn alpha_eq_multi_binders() {
        let a = Tree::Node(
            "let2".into(),
            vec![Abs {
                binders: vec!["x".into(), "y".into()],
                body: app(v("x"), v("y")),
            }],
        );
        let b = Tree::Node(
            "let2".into(),
            vec![Abs {
                binders: vec!["u".into(), "v".into()],
                body: app(v("u"), v("v")),
            }],
        );
        let c = Tree::Node(
            "let2".into(),
            vec![Abs {
                binders: vec!["u".into(), "v".into()],
                body: app(v("v"), v("u")),
            }],
        );
        assert!(a.alpha_eq(&b));
        assert!(!a.alpha_eq(&c));
    }

    #[test]
    fn fresh_name_avoids() {
        let avoid: HashSet<String> = ["x", "x1", "x2"].iter().map(|s| s.to_string()).collect();
        assert_eq!(fresh_name("x", &avoid), "x3");
        assert_eq!(fresh_name("y", &avoid), "y");
        // Numeric suffixes are stripped before counting.
        assert_eq!(fresh_name("x1", &avoid), "x3");
    }

    #[test]
    fn rename_free_stops_at_shadow() {
        let t = app(v("x"), lam("x", v("x")));
        let r = t.rename_free("x", "w");
        assert_eq!(r, app(v("w"), lam("x", v("x"))));
    }

    #[test]
    fn display_format() {
        let t = lam("x", app(v("x"), Tree::leaf("c")));
        assert_eq!(t.to_string(), "lam(x.app(x; c))");
    }

    #[test]
    fn size_counts_nodes() {
        assert_eq!(v("x").size(), 1);
        assert_eq!(lam("x", app(v("x"), v("x"))).size(), 4);
    }

    #[test]
    fn deep_substitution_chain_keeps_scope() {
        // Build λa. λb. (x a b) and substitute x := (app a b) — both free
        // names collide with binders and must be renamed.
        let t = lam("a", lam("b", app(app(v("x"), v("a")), v("b"))));
        let s = app(v("a"), v("b"));
        let r = t.subst("x", &s);
        // The result must keep exactly a and b free (from s).
        let fvs = r.free_vars();
        assert_eq!(
            fvs,
            ["a", "b"]
                .iter()
                .map(|s| s.to_string())
                .collect::<HashSet<_>>()
        );
        // And must not be α-equal to the captured version.
        let captured = lam("a", lam("b", app(app(app(v("a"), v("b")), v("a")), v("b"))));
        assert!(!r.alpha_eq(&captured));
    }
}
