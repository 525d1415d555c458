//! Pretty-printing of types and terms.
//!
//! The printer *resurrects names*: de Bruijn indices are rendered using
//! each binder's hint, freshened (`x`, `x1`, `x2`, …) against the names
//! already in scope so that the output never shadows confusingly and
//! re-parses to an α-equivalent term (see the parser round-trip tests).

use crate::store::FxBuild;
use crate::term::Term;
use crate::ty::Ty;
use std::collections::HashMap;
use std::fmt::{self, Write as _};
use std::rc::Rc;

/// Precedence levels for type printing: 0 = arrow position (lowest),
/// 1 = product position, 2 = atom position.
pub(crate) fn fmt_ty(ty: &Ty, f: &mut fmt::Formatter<'_>, prec: u8) -> fmt::Result {
    match ty {
        Ty::Base(s) => write!(f, "{s}"),
        Ty::Int => f.write_str("int"),
        Ty::Unit => f.write_str("unit"),
        Ty::Var(v) => {
            if *v < 26 {
                write!(f, "'{}", (b'a' + *v as u8) as char)
            } else {
                write!(f, "'t{v}")
            }
        }
        Ty::Arrow(a, b) => {
            let parens = prec > 0;
            if parens {
                f.write_str("(")?;
            }
            fmt_ty(a, f, 1)?;
            f.write_str(" -> ")?;
            fmt_ty(b, f, 0)?;
            if parens {
                f.write_str(")")?;
            }
            Ok(())
        }
        Ty::Prod(a, b) => {
            let parens = prec > 1;
            if parens {
                f.write_str("(")?;
            }
            fmt_ty(a, f, 2)?;
            f.write_str(" * ")?;
            fmt_ty(b, f, 2)?;
            if parens {
                f.write_str(")")?;
            }
            Ok(())
        }
    }
}

/// Renders a type to a string (same as its `Display`).
pub fn ty_to_string(ty: &Ty) -> String {
    ty.to_string()
}

struct TermPrinter<'a> {
    /// Names in scope, innermost last.
    env: Vec<Rc<str>>,
    /// How many times each name occurs in `env` (0 once a name printed
    /// here has left scope).
    counts: HashMap<Rc<str>, u32, FxBuild>,
    /// Per hint `b` that needed a suffix, a `k` such that `b1` … `b(k-1)`
    /// are all in scope: where the search for a fresh `b{i}` resumes.
    /// With `counts`, this makes freshening amortized O(1) however deep
    /// the binders nest.
    next_suffix: HashMap<String, u32, FxBuild>,
    /// Names of metavariables by id; an id past the end prints its hint.
    metas: &'a [&'a str],
    f: &'a mut dyn fmt::Write,
}

const PREC_LAM: u8 = 0;
const PREC_APP: u8 = 1;
const PREC_ATOM: u8 = 2;

impl<'a> TermPrinter<'a> {
    fn new(f: &'a mut dyn fmt::Write) -> TermPrinter<'a> {
        TermPrinter {
            env: Vec::new(),
            counts: HashMap::default(),
            next_suffix: HashMap::default(),
            metas: &[],
            f,
        }
    }

    fn in_scope(&self, name: &str) -> bool {
        self.counts.get(name).is_some_and(|&n| n > 0)
    }

    fn push(&mut self, name: Rc<str>) {
        match self.counts.get_mut(&name) {
            Some(count) => *count += 1,
            None => {
                self.counts.insert(Rc::clone(&name), 1);
            }
        }
        self.env.push(name);
    }

    fn pop(&mut self) {
        let name = self.env.pop().expect("a binder in scope");
        *self.counts.get_mut(&name).expect("counted on push") -= 1;
        // `name` may be `b{k}` for several splits (`x12` is `x1`·2 and
        // `x`·12): each such search must resume at `k` or below. (If
        // `name` is still in scope, resuming lower is merely redundant.)
        if self.next_suffix.is_empty() {
            return;
        }
        let stem = name.trim_end_matches(|c: char| c.is_ascii_digit()).len();
        for split in stem..name.len() {
            let (base, suffix) = name.split_at(split);
            if suffix.starts_with('0') {
                continue;
            }
            if let (Some(next), Ok(k)) = (self.next_suffix.get_mut(base), suffix.parse::<u32>()) {
                *next = (*next).min(k);
            }
        }
    }

    /// The hint if no name in scope equals it, else the hint with the
    /// least suffix `1, 2, …` that is free. The caller pushes the result.
    fn fresh_name(&mut self, hint: &str) -> Rc<str> {
        let base = if hint.is_empty() { "x" } else { hint };
        if !self.in_scope(base) {
            return Rc::from(base);
        }
        let mut next = self.next_suffix.get(base).copied().unwrap_or(1);
        let mut cand = String::new();
        loop {
            cand.clear();
            write!(cand, "{base}{next}").expect("writing to a String cannot fail");
            next += 1;
            if !self.in_scope(&cand) {
                break;
            }
        }
        match self.next_suffix.get_mut(base) {
            Some(slot) => *slot = next,
            None => {
                self.next_suffix.insert(base.to_string(), next);
            }
        }
        Rc::from(cand)
    }

    fn go(&mut self, t: &Term, prec: u8) -> fmt::Result {
        match t {
            Term::Var(i) => {
                let n = self.env.len();
                match n.checked_sub(1 + *i as usize).and_then(|k| self.env.get(k)) {
                    Some(name) => self.f.write_str(name),
                    // Dangling index: print positionally so output is still
                    // unambiguous (cannot clash with identifiers).
                    None => write!(self.f, "#{i}"),
                }
            }
            Term::Const(c) => self.f.write_str(c.as_str()),
            Term::Meta(m) => match self.metas.get(m.id() as usize) {
                Some(name) => write!(self.f, "?{name}"),
                None => write!(self.f, "?{}", m.hint()),
            },
            Term::Int(n) => write!(self.f, "{n}"),
            Term::Unit => self.f.write_str("()"),
            Term::Lam(h, b) => {
                let parens = prec > PREC_LAM;
                if parens {
                    self.f.write_str("(")?;
                }
                let name = self.fresh_name(h.as_str());
                write!(self.f, "\\{name}. ")?;
                self.push(name);
                self.go(b, PREC_LAM)?;
                self.pop();
                if parens {
                    self.f.write_str(")")?;
                }
                Ok(())
            }
            Term::App(fun, arg) => {
                let parens = prec > PREC_APP;
                if parens {
                    self.f.write_str("(")?;
                }
                self.go(fun, PREC_APP)?;
                self.f.write_str(" ")?;
                self.go(arg, PREC_ATOM)?;
                if parens {
                    self.f.write_str(")")?;
                }
                Ok(())
            }
            Term::Pair(a, b) => {
                self.f.write_str("(")?;
                self.go(a, PREC_LAM)?;
                self.f.write_str(", ")?;
                self.go(b, PREC_LAM)?;
                self.f.write_str(")")
            }
            Term::Fst(p) => {
                let parens = prec > PREC_APP;
                if parens {
                    self.f.write_str("(")?;
                }
                self.f.write_str("fst ")?;
                self.go(p, PREC_ATOM)?;
                if parens {
                    self.f.write_str(")")?;
                }
                Ok(())
            }
            Term::Snd(p) => {
                let parens = prec > PREC_APP;
                if parens {
                    self.f.write_str("(")?;
                }
                self.f.write_str("snd ")?;
                self.go(p, PREC_ATOM)?;
                if parens {
                    self.f.write_str(")")?;
                }
                Ok(())
            }
        }
    }
}

pub(crate) fn fmt_term(t: &Term, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    let mut s = String::new();
    TermPrinter::new(&mut s)
        .go(t, PREC_LAM)
        .expect("writing to String cannot fail");
    f.write_str(&s)
}

/// Renders a term to a string (same as its `Display`).
pub fn term_to_string(t: &Term) -> String {
    t.to_string()
}

/// Renders a term whose free de Bruijn variables should be shown with the
/// given names (outermost first).
pub fn term_to_string_in(t: &Term, scope: &[&str]) -> String {
    term_to_string_with(t, scope, &[])
}

/// Renders a term like [`term_to_string_in`], showing the metavariable
/// with id `i` as `?{metas[i]}` (ids past the end of `metas` show their
/// hint). A metavariable's hint is the first one interned for its id,
/// so a printer that knows the names its metavariables were declared
/// with (a clause's variables) passes them here.
pub fn term_to_string_with(t: &Term, scope: &[&str], metas: &[&str]) -> String {
    let mut s = String::new();
    let mut p = TermPrinter::new(&mut s);
    p.metas = metas;
    for name in scope {
        p.push(Rc::from(*name));
    }
    p.go(t, PREC_LAM).expect("writing to String cannot fail");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::MVar;

    fn v(i: u32) -> Term {
        Term::Var(i)
    }

    #[test]
    fn prints_lambdas_and_apps() {
        crate::store::StoreHandle::isolated().enter(|| {
            // Isolated store: this test asserts printed hints, which are
            // canonical per α-class per store (first intern wins).
            let t = Term::lam("x", Term::app(v(0), v(0)));
            assert_eq!(t.to_string(), r"\x. x x");
            let t = Term::app(Term::lam("x", v(0)), Term::cnst("c"));
            assert_eq!(t.to_string(), r"(\x. x) c");
        })
    }

    #[test]
    fn app_associativity_parens() {
        // f (g x) needs parens, (f g) x does not.
        let t = Term::app(Term::cnst("f"), Term::app(Term::cnst("g"), Term::cnst("x")));
        assert_eq!(t.to_string(), "f (g x)");
        let t = Term::app(Term::app(Term::cnst("f"), Term::cnst("g")), Term::cnst("x"));
        assert_eq!(t.to_string(), "f g x");
    }

    #[test]
    fn freshens_shadowed_hints() {
        crate::store::StoreHandle::isolated().enter(|| {
            // Isolated store: this test asserts printed hints, which are
            // canonical per α-class per store (first intern wins).
            // λx. λx. (inner outer) — both hints "x".
            let t = Term::lam("x", Term::lam("x", Term::app(v(0), v(1))));
            assert_eq!(t.to_string(), r"\x. \x1. x1 x");
        })
    }

    #[test]
    fn freshening_resumes_below_released_suffixes() {
        crate::store::StoreHandle::isolated().enter(|| {
            // Siblings reuse a suffix once the binder holding it is gone.
            let id = || Term::lam("x", v(0));
            let t = Term::lam("x", Term::app(id(), id()));
            assert_eq!(t.to_string(), r"\x. (\x1. x1) (\x1. x1)");
            // A hint that already carries a suffix occupies it.
            let t = Term::lams(["x1", "x", "x"], Term::apps(v(0), [v(1), v(2)]));
            assert_eq!(t.to_string(), r"\x1. \x. \x2. x2 x x1");
            // Names in scope may repeat; each occurrence counts.
            let t = Term::lam("x", Term::app(v(0), v(2)));
            assert_eq!(term_to_string_in(&t, &["x", "x"]), r"\x1. x1 x");
        })
    }

    /// The freshening rule stated directly: the hint (`x` if empty) if no
    /// name in scope equals it, else the hint with the least free suffix.
    fn naive_names(t: &Term, env: &mut Vec<String>, out: &mut Vec<String>) {
        match t {
            Term::Lam(h, b) => {
                let base = if h.is_empty() { "x" } else { h.as_str() };
                let name = if env.iter().any(|n| n == base) {
                    (1u32..)
                        .map(|i| format!("{base}{i}"))
                        .find(|c| !env.contains(c))
                        .unwrap()
                } else {
                    base.to_string()
                };
                out.push(name.clone());
                env.push(name);
                naive_names(b, env, out);
                env.pop();
            }
            Term::App(a, b) | Term::Pair(a, b) => {
                naive_names(a, env, out);
                naive_names(b, env, out);
            }
            Term::Fst(p) | Term::Snd(p) => naive_names(p, env, out),
            _ => {}
        }
    }

    #[test]
    fn freshening_agrees_with_the_naive_rule() {
        // Hints chosen so that suffixed names collide across bases
        // (`x12` is both `x1`·2 and `x`·12).
        const HINTS: [&str; 7] = ["x", "x1", "x12", "x2", "", "y", "x11"];
        let mut seed = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move |n: u64| {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) % n
        };
        for _ in 0..300 {
            crate::store::StoreHandle::isolated().enter(|| {
                // A random spine of binders and applications, 40 nodes.
                let mut stack: Vec<Term> = Vec::new();
                for _ in 0..40 {
                    let t = match (next(3), stack.len()) {
                        (0, _) | (_, 0) => v(next(4) as u32),
                        (1, _) => {
                            let b = stack.pop().unwrap();
                            Term::lam(HINTS[next(7) as usize], b)
                        }
                        (_, 1) => Term::lam(HINTS[next(7) as usize], stack.pop().unwrap()),
                        _ => {
                            let b = stack.pop().unwrap();
                            let a = stack.pop().unwrap();
                            Term::app(a, b)
                        }
                    };
                    stack.push(t);
                }
                // Under 20 more binders, so that suffixes reach past the
                // ones the random body uses.
                let t = (0..20).fold(stack.into_iter().reduce(Term::app).unwrap(), |t, _| {
                    Term::lam(HINTS[next(7) as usize], t)
                });
                let mut want = Vec::new();
                naive_names(&t, &mut Vec::new(), &mut want);
                let printed = t.to_string();
                let got: Vec<&str> = printed
                    .split('\\')
                    .skip(1)
                    .map(|rest| rest.split('.').next().unwrap())
                    .collect();
                assert_eq!(got, want, "{printed}");
            })
        }
    }

    #[test]
    fn dangling_vars_print_positionally() {
        assert_eq!(v(3).to_string(), "#3");
    }

    #[test]
    fn pairs_projections_literals() {
        let t = Term::pair(Term::Int(-2), Term::Unit);
        assert_eq!(t.to_string(), "(-2, ())");
        let t = Term::fst(Term::cnst("p"));
        assert_eq!(t.to_string(), "fst p");
        let t = Term::app(Term::fst(Term::cnst("p")), Term::Int(1));
        assert_eq!(t.to_string(), "fst p 1");
        let t = Term::fst(Term::app(Term::cnst("f"), Term::Int(1)));
        assert_eq!(t.to_string(), "fst (f 1)");
    }

    #[test]
    fn metas_print_with_hint() {
        crate::store::StoreHandle::isolated().enter(|| {
            // Isolated store: this test asserts printed hints, which are
            // canonical per α-class per store (first intern wins).
            let t = Term::Meta(MVar::new(0, "P"));
            assert_eq!(t.to_string(), "?P");
        })
    }

    #[test]
    fn scoped_printing_names_free_vars() {
        let t = Term::app(v(0), v(1));
        assert_eq!(term_to_string_in(&t, &["outer", "inner"]), "inner outer");
    }

    #[test]
    fn ty_var_letters() {
        assert_eq!(Ty::Var(0).to_string(), "'a");
        assert_eq!(Ty::Var(25).to_string(), "'z");
        assert_eq!(Ty::Var(26).to_string(), "'t26");
    }
}
