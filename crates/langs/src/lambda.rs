//! The untyped λ-calculus — the paper's introductory example.
//!
//! The HOAS representation uses two constants:
//!
//! ```text
//! type tm.
//! const lam : (tm -> tm) -> tm.
//! const app : tm -> tm -> tm.
//! ```
//!
//! Object-level binding is metalanguage binding, so object-level
//! substitution ([`subst_hoas`]) is a single metalanguage β-step
//! ([`hoas_core::normalize::happly`]) — no renaming code anywhere.
//! [`subst_native`] is the hand-written capture-avoiding version for
//! comparison (experiment E1/E2).

use crate::LangError;
use hoas_core::ctx::Ctx;
use hoas_core::sig::Signature;
use hoas_core::term::MetaEnv;
use hoas_core::{normalize, Sym, Term, Ty};
use hoas_syntaxdef::{Head, Part, Table};
use hoas_testkit::rng::Rng;
use std::collections::HashSet;
use std::fmt;
use std::sync::OnceLock;

/// A named untyped λ-term.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum LTerm {
    /// Variable occurrence.
    Var(String),
    /// Abstraction `λx. body`.
    Lam(String, Box<LTerm>),
    /// Application.
    App(Box<LTerm>, Box<LTerm>),
}

impl LTerm {
    /// Convenience constructor for a variable.
    pub fn var(x: impl Into<String>) -> LTerm {
        LTerm::Var(x.into())
    }

    /// Convenience constructor for an abstraction.
    pub fn lam(x: impl Into<String>, body: LTerm) -> LTerm {
        LTerm::Lam(x.into(), Box::new(body))
    }

    /// Convenience constructor for an application.
    pub fn app(f: LTerm, a: LTerm) -> LTerm {
        LTerm::App(Box::new(f), Box::new(a))
    }

    /// Number of AST nodes.
    pub fn size(&self) -> usize {
        match self {
            LTerm::Var(_) => 1,
            LTerm::Lam(_, b) => 1 + b.size(),
            LTerm::App(f, a) => 1 + f.size() + a.size(),
        }
    }

    /// Free variables.
    pub fn free_vars(&self) -> HashSet<String> {
        match self {
            LTerm::Var(x) => std::iter::once(x.clone()).collect(),
            LTerm::Lam(x, b) => {
                let mut fv = b.free_vars();
                fv.remove(x);
                fv
            }
            LTerm::App(f, a) => {
                let mut fv = f.free_vars();
                fv.extend(a.free_vars());
                fv
            }
        }
    }

    /// α-equivalence (via conversion to the first-order baseline, which
    /// implements the renaming-environment comparison).
    pub fn alpha_eq(&self, other: &LTerm) -> bool {
        to_tree(self).alpha_eq(&to_tree(other))
    }
}

impl fmt::Display for LTerm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LTerm::Var(x) => f.write_str(x),
            LTerm::Lam(x, b) => write!(f, "\\{x}. {b}"),
            LTerm::App(g, a) => {
                match g.as_ref() {
                    LTerm::Lam(..) => write!(f, "({g}) ")?,
                    _ => write!(f, "{g} ")?,
                }
                match a.as_ref() {
                    LTerm::Var(_) => write!(f, "{a}"),
                    _ => write!(f, "({a})"),
                }
            }
        }
    }
}

/// The untyped λ-calculus as grammar text: the syntax facility compiles
/// it to [`signature`] and to the table [`encode`] and [`decode`] walk.
const GRAMMAR: &str = "language lambda {
    sort tm;
    prod lam : (tm) tm -> tm;
    prod app : tm tm -> tm;
}";

productions! {
    LAM = "lam",
    APP = "app",
}

fn table() -> &'static Table {
    static TABLE: OnceLock<Table> = OnceLock::new();
    TABLE.get_or_init(|| crate::compile(GRAMMAR, PRODUCTIONS))
}

/// The HOAS signature for the untyped λ-calculus.
pub fn signature() -> &'static Signature {
    table().signature()
}

/// The representation type `tm`.
pub fn tm() -> Ty {
    Ty::base("tm")
}

/// Encodes a closed λ-term into the metalanguage.
///
/// # Errors
///
/// [`LangError::UnboundVar`] if the term has free variables.
pub fn encode(t: &LTerm) -> Result<Term, LangError> {
    encode_open(t, &[])
}

/// Encodes a λ-term whose free variables are bound by the given scope
/// (outermost first); the result refers to them with de Bruijn indices.
///
/// # Errors
///
/// [`LangError::UnboundVar`] for variables not in `scope`.
pub fn encode_open(t: &LTerm, scope: &[&str]) -> Result<Term, LangError> {
    let encoded = table().encode("tm", t, scope, |t, parts| {
        Ok(match t {
            LTerm::Var(x) => Head::Var(x),
            LTerm::Lam(x, b) => {
                parts.extend([Part::Name(x), Part::Node(&**b)]);
                Head::Prod(LAM)
            }
            LTerm::App(f, a) => {
                parts.extend([Part::Node(&**f), Part::Node(&**a)]);
                Head::Prod(APP)
            }
        })
    });
    Ok(encoded?)
}

/// Decodes a canonical metalanguage term of type `tm` back to a λ-term,
/// resurrecting binder hints (freshened against the scope).
///
/// # Errors
///
/// [`LangError::NotCanonical`] on exotic or ill-formed terms.
pub fn decode(t: &Term) -> Result<LTerm, LangError> {
    decode_open(t, &[])
}

/// Decodes an open encoding whose free indices refer to `scope`
/// (outermost first).
///
/// # Errors
///
/// As for [`decode`].
pub fn decode_open(t: &Term, scope: &[&str]) -> Result<LTerm, LangError> {
    let decoded = table().decode("tm", t, scope, |_, head, mut p| match head {
        Head::Var(x) => LTerm::var(x),
        Head::Prod(LAM) => LTerm::lam(p.name(), p.node()),
        Head::Prod(APP) => LTerm::app(p.node(), p.node()),
        Head::Prod(_) | Head::Open(_) => unreachable!("not in the grammar"),
    });
    Ok(decoded?)
}

/// Object-level substitution via the metalanguage: given `λx. body`
/// encoded as `lam F` and an encoded argument, computes the encoding of
/// `body[x := arg]` by a single β-step — the paper's headline.
///
/// # Errors
///
/// [`LangError::NotCanonical`] if `lam_term` is not a `lam` application.
pub fn subst_hoas(lam_term: &Term, arg: &Term) -> Result<Term, LangError> {
    match lam_term {
        Term::App(f, abs) if matches!(f.as_ref(), Term::Const(c) if c.as_str() == "lam") => {
            Ok(normalize::happly(abs.as_ref().clone(), arg.clone()))
        }
        other => Err(LangError::NotCanonical(format!(
            "subst_hoas expects a lam encoding, got `{other}`"
        ))),
    }
}

/// Hand-written capture-avoiding substitution on the named AST — the code
/// HOAS renders unnecessary. `t[x := s]`.
pub fn subst_native(t: &LTerm, x: &str, s: &LTerm) -> LTerm {
    fn all_names(t: &LTerm, acc: &mut HashSet<String>) {
        match t {
            LTerm::Var(y) => {
                acc.insert(y.clone());
            }
            LTerm::Lam(y, b) => {
                acc.insert(y.clone());
                all_names(b, acc);
            }
            LTerm::App(f, a) => {
                all_names(f, acc);
                all_names(a, acc);
            }
        }
    }
    let fvs = s.free_vars();
    fn go(t: &LTerm, x: &str, s: &LTerm, fvs: &HashSet<String>) -> LTerm {
        match t {
            LTerm::Var(y) => {
                if y == x {
                    s.clone()
                } else {
                    t.clone()
                }
            }
            LTerm::Lam(y, b) => {
                if y == x {
                    t.clone()
                } else if fvs.contains(y.as_str()) {
                    // Rename the binder to avoid capture. The fresh name
                    // must also avoid every *binder* name inside the body
                    // — the rename below does not freshen nested binders,
                    // so a colliding choice would itself be captured.
                    let mut avoid = fvs.clone();
                    all_names(b, &mut avoid);
                    avoid.insert(x.to_string());
                    let fresh = hoas_firstorder::named::fresh_name(y, &avoid);
                    let renamed = go(b, y, &LTerm::var(fresh.clone()), &HashSet::new());
                    LTerm::lam(fresh, go(&renamed, x, s, fvs))
                } else {
                    LTerm::lam(y.clone(), go(b, x, s, fvs))
                }
            }
            LTerm::App(f, a) => LTerm::app(go(f, x, s, fvs), go(a, x, s, fvs)),
        }
    }
    go(t, x, s, &fvs)
}

/// Normal-order (leftmost-outermost) reduction to normal form on the
/// named AST, with fuel.
///
/// # Errors
///
/// [`LangError::OutOfFuel`] when more than `fuel` β-steps are needed.
pub fn normalize_native(t: &LTerm, fuel: u64) -> Result<LTerm, LangError> {
    let mut cur = t.clone();
    let mut budget = fuel;
    loop {
        match step_normal_order(&cur) {
            Some(next) => {
                if budget == 0 {
                    return Err(LangError::OutOfFuel);
                }
                budget -= 1;
                cur = next;
            }
            None => return Ok(cur),
        }
    }
}

fn step_normal_order(t: &LTerm) -> Option<LTerm> {
    match t {
        LTerm::App(f, a) => {
            if let LTerm::Lam(x, b) = f.as_ref() {
                return Some(subst_native(b, x, a));
            }
            if let Some(f2) = step_normal_order(f) {
                return Some(LTerm::app(f2, a.as_ref().clone()));
            }
            step_normal_order(a).map(|a2| LTerm::app(f.as_ref().clone(), a2))
        }
        LTerm::Lam(x, b) => step_normal_order(b).map(|b2| LTerm::lam(x.clone(), b2)),
        LTerm::Var(_) => None,
    }
}

/// Normalization through the metalanguage: encode, β-normalize the
/// *object-level* redexes (via a small driver that repeatedly contracts
/// `app (lam F) A` to `F A`), decode.
///
/// # Errors
///
/// [`LangError::OutOfFuel`] on divergence; decode errors are impossible
/// for terms produced from `encode`.
pub fn normalize_hoas(t: &LTerm, fuel: u64) -> Result<LTerm, LangError> {
    let encoded = encode_open(t, &free_var_scope(t))?;
    let nf = object_nf(&encoded, &mut (fuel as i64))?;
    let scope = free_var_scope(t);
    decode_open(&nf, &scope)
}

fn free_var_scope(t: &LTerm) -> Vec<&str> {
    // Deterministic order for open terms in tests.
    let mut fvs: Vec<&str> = Vec::new();
    fn go<'a>(t: &'a LTerm, bound: &mut Vec<&'a str>, acc: &mut Vec<&'a str>) {
        match t {
            LTerm::Var(x) => {
                if !bound.contains(&x.as_str()) && !acc.contains(&x.as_str()) {
                    acc.push(x);
                }
            }
            LTerm::Lam(x, b) => {
                bound.push(x);
                go(b, bound, acc);
                bound.pop();
            }
            LTerm::App(f, a) => {
                go(f, bound, acc);
                go(a, bound, acc);
            }
        }
    }
    go(t, &mut Vec::new(), &mut fvs);
    fvs
}

/// One object-level normal-order β-normalization pass over the encoding:
/// contracts `app (lam F) A ⇒ F A` (a metalanguage β-step) to a fixpoint.
fn object_nf(t: &Term, fuel: &mut i64) -> Result<Term, LangError> {
    if *fuel < 0 {
        return Err(LangError::OutOfFuel);
    }
    // Head: is this `app (lam F) A`?
    if let Term::App(fa, a) = t {
        if let Term::App(ap, f) = fa.as_ref() {
            if matches!(ap.as_ref(), Term::Const(c) if c.as_str() == "app") {
                if let Term::App(la, abs) = f.as_ref() {
                    if matches!(la.as_ref(), Term::Const(c) if c.as_str() == "lam") {
                        *fuel -= 1;
                        if *fuel < 0 {
                            return Err(LangError::OutOfFuel);
                        }
                        let contracted =
                            normalize::happly(abs.as_ref().clone(), a.as_ref().clone());
                        return object_nf(&contracted, fuel);
                    }
                }
                // Not a redex: normalize the function part first (normal
                // order), then the argument.
                let f2 = object_nf(f, fuel)?;
                if &f2 != f.as_ref() {
                    let rebuilt = Term::apps(Term::cnst("app"), [f2, a.as_ref().clone()]);
                    return object_nf(&rebuilt, fuel);
                }
                let a2 = object_nf(a, fuel)?;
                return Ok(Term::apps(Term::cnst("app"), [f2, a2]));
            }
        }
    }
    match t {
        Term::App(f, a) => Ok(Term::app(object_nf(f, fuel)?, object_nf(a, fuel)?)),
        Term::Lam(h, b) => Ok(Term::lam(h.clone(), object_nf(b, fuel)?)),
        _ => Ok(t.clone()),
    }
}

/// Type-checks an encoding: `true` iff `t` is a well-typed term of type
/// `tm` in a scope of `n_free` `tm`-variables.
pub fn check_encoding(t: &Term, n_free: usize) -> bool {
    let mut ctx = Ctx::new();
    for i in 0..n_free {
        ctx.push_mut(Sym::new(format!("v{i}")), tm());
    }
    hoas_core::typeck::check(signature(), &MetaEnv::new(), &ctx, t, &tm()).is_ok()
}

/// Projects onto the generic first-order tree (for the baseline
/// experiments).
pub fn to_tree(t: &LTerm) -> hoas_firstorder::Tree {
    use hoas_firstorder::Tree;
    match t {
        LTerm::Var(x) => Tree::var(x.clone()),
        LTerm::Lam(x, b) => Tree::binder("lam", x.clone(), to_tree(b)),
        LTerm::App(f, a) => Tree::node("app", [to_tree(f), to_tree(a)]),
    }
}

/// Generates a random **closed** λ-term with roughly `target_size` nodes.
pub fn gen_closed(rng: &mut impl Rng, target_size: usize) -> LTerm {
    gen_open(rng, target_size, &[])
}

/// Generates a random λ-term with roughly `target_size` nodes whose free
/// variables are drawn from `free`.
pub fn gen_open(rng: &mut impl Rng, target_size: usize, free: &[&str]) -> LTerm {
    fn pick_var(rng: &mut impl Rng, n_bound: u32, free: &[&str]) -> LTerm {
        let total = n_bound as usize + free.len();
        debug_assert!(total > 0);
        let k = rng.gen_range(0..total);
        if k < n_bound as usize {
            LTerm::var(format!("x{k}"))
        } else {
            LTerm::var(free[k - n_bound as usize])
        }
    }
    fn go(rng: &mut impl Rng, budget: usize, n_bound: u32, free: &[&str]) -> LTerm {
        if budget <= 1 && (n_bound > 0 || !free.is_empty()) {
            return pick_var(rng, n_bound, free);
        }
        // Leaves only appear when the budget is (nearly) spent, so the
        // output size tracks the requested size.
        let choice = if n_bound == 0 && free.is_empty() {
            rng.gen_range(0..4)
        } else if budget <= 3 {
            rng.gen_range(0..10)
        } else {
            rng.gen_range(0..8)
        };
        match choice {
            0..=3 => LTerm::lam(
                format!("x{n_bound}"),
                go(rng, budget - 1, n_bound + 1, free),
            ),
            4..=7 => {
                let left = (budget - 1) / 2;
                LTerm::app(
                    go(rng, left.max(1), n_bound, free),
                    go(rng, (budget - 1 - left).max(1), n_bound, free),
                )
            }
            _ => pick_var(rng, n_bound, free),
        }
    }
    go(rng, target_size.max(2), 0, free)
}

/// A Church numeral `λs. λz. s^n z`.
pub fn church(n: u32) -> LTerm {
    let mut body = LTerm::var("z");
    for _ in 0..n {
        body = LTerm::app(LTerm::var("s"), body);
    }
    LTerm::lam("s", LTerm::lam("z", body))
}

/// Church addition `λm. λn. λs. λz. m s (n s z)`.
pub fn church_add() -> LTerm {
    LTerm::lam(
        "m",
        LTerm::lam(
            "n",
            LTerm::lam(
                "s",
                LTerm::lam(
                    "z",
                    LTerm::app(
                        LTerm::app(LTerm::var("m"), LTerm::var("s")),
                        LTerm::app(
                            LTerm::app(LTerm::var("n"), LTerm::var("s")),
                            LTerm::var("z"),
                        ),
                    ),
                ),
            ),
        ),
    )
}

/// Church multiplication `λm. λn. λs. m (n s)`.
pub fn church_mul() -> LTerm {
    LTerm::lam(
        "m",
        LTerm::lam(
            "n",
            LTerm::lam(
                "s",
                LTerm::app(
                    LTerm::var("m"),
                    LTerm::app(LTerm::var("n"), LTerm::var("s")),
                ),
            ),
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use hoas_testkit::rng::SmallRng;

    #[test]
    fn encode_decode_roundtrip_identity() {
        // Isolated store: printed hints are canonical per α-class per
        // store (first intern wins), and other tests intern `λx3. x3`.
        hoas_core::StoreHandle::isolated().enter(|| {
            let id = LTerm::lam("x", LTerm::var("x"));
            let e = encode(&id).unwrap();
            assert_eq!(e.to_string(), r"lam (\x. x)");
            assert!(check_encoding(&e, 0));
            assert!(decode(&e).unwrap().alpha_eq(&id));
        })
    }

    #[test]
    fn decode_suffixes_a_shadowed_hint_after_its_digits() {
        // The inner of two `x1` binders decodes as `x11`; an empty hint
        // reads as `x`. (Isolated store: hints are per α-class.)
        hoas_core::StoreHandle::isolated().enter(|| {
            let lam = |x: &str, b: Term| Term::app(Term::cnst("lam"), Term::lam(x, b));
            let t = lam("x1", lam("x1", Term::Var(0)));
            let inner = LTerm::lam("x11", LTerm::var("x11"));
            assert_eq!(decode(&t).unwrap(), LTerm::lam("x1", inner));
            let self_app = Term::apps(Term::cnst("app"), [Term::Var(0), Term::Var(0)]);
            let x = LTerm::var("x");
            let want = LTerm::lam("x", LTerm::app(x.clone(), x));
            assert_eq!(decode(&lam("", self_app)).unwrap(), want);
        })
    }

    #[test]
    fn encode_rejects_free_vars() {
        assert!(matches!(
            encode(&LTerm::var("oops")),
            Err(LangError::UnboundVar(_))
        ));
        // But open encoding accepts them.
        let e = encode_open(&LTerm::var("a"), &["a"]).unwrap();
        assert_eq!(e, Term::Var(0));
    }

    #[test]
    fn decode_rejects_exotic_terms() {
        // lam applied to a non-λ (a variable of function type) is exotic.
        let exotic = Term::app(Term::cnst("lam"), Term::cnst("app")); // ill-typed too
        assert!(decode(&exotic).is_err());
        // A unit literal is not a tm.
        assert!(decode(&Term::Unit).is_err());
    }

    #[test]
    fn subst_is_beta() {
        // (λx. x x)[apply to y] via HOAS equals native substitution.
        let t = LTerm::lam("x", LTerm::app(LTerm::var("x"), LTerm::var("x")));
        let e = encode_open(&t, &["y"]).unwrap();
        let arg = encode_open(&LTerm::var("y"), &["y"]).unwrap();
        let substituted = subst_hoas(&e, &arg).unwrap();
        let decoded = decode_open(&substituted, &["y"]).unwrap();
        let native = subst_native(
            &LTerm::app(LTerm::var("x"), LTerm::var("x")),
            "x",
            &LTerm::var("y"),
        );
        assert!(decoded.alpha_eq(&native));
    }

    #[test]
    fn capture_avoidance_for_free_from_hoas() {
        // (λy. x)[x := y]: HOAS cannot capture by construction.
        // Encode λx. λy. x, apply to y from an outer scope.
        let outer = LTerm::lam("x", LTerm::lam("y", LTerm::var("x")));
        let e = encode_open(&outer, &["y"]).unwrap();
        let arg = Term::Var(0); // the ambient y
        let r = subst_hoas(&e, &arg).unwrap();
        let decoded = decode_open(&r, &["y"]).unwrap();
        // Result must be λy'. y with y free — NOT λy. y.
        match &decoded {
            LTerm::Lam(b, body) => {
                assert_eq!(body.as_ref(), &LTerm::var("y"));
                assert_ne!(b, "y", "binder must have been freshened");
            }
            other => panic!("expected λ, got {other}"),
        }
    }

    #[test]
    fn native_and_hoas_normalization_agree() {
        // Intermediate reducts can get deep within the fuel budget;
        // normalization recurses on term depth.
        hoas_testkit::with_stack(256, || {
            let mut rng = SmallRng::seed_from_u64(42);
            let mut checked = 0;
            for _ in 0..200 {
                let t = gen_closed(&mut rng, 25);
                let native = normalize_native(&t, 500);
                let hoas = normalize_hoas(&t, 500);
                // Fuel accounting differs slightly; only require
                // agreement when both engines finish.
                if let (Ok(a), Ok(b)) = (native, hoas) {
                    assert!(a.alpha_eq(&b), "mismatch for {t}:\n native {a}\n hoas  {b}");
                    checked += 1;
                }
            }
            assert!(checked > 100, "only {checked} comparisons completed");
        });
    }

    #[test]
    fn church_arithmetic_via_hoas() {
        let two_plus_three = LTerm::app(LTerm::app(church_add(), church(2)), church(3));
        let r = normalize_hoas(&two_plus_three, 10_000).unwrap();
        assert!(r.alpha_eq(&church(5)));
        let two_times_three = LTerm::app(LTerm::app(church_mul(), church(2)), church(3));
        let r = normalize_hoas(&two_times_three, 10_000).unwrap();
        // mul needs an η-step to literally equal church(6); compare via
        // application to s and z instead.
        let applied = LTerm::app(LTerm::app(r, LTerm::var("s")), LTerm::var("z"));
        let expect = LTerm::app(LTerm::app(church(6), LTerm::var("s")), LTerm::var("z"));
        assert!(normalize_native(&applied, 10_000)
            .unwrap()
            .alpha_eq(&normalize_native(&expect, 10_000).unwrap()));
    }

    #[test]
    fn omega_runs_out_of_fuel_both_ways() {
        let w = LTerm::lam("x", LTerm::app(LTerm::var("x"), LTerm::var("x")));
        let omega = LTerm::app(w.clone(), w);
        assert!(matches!(
            normalize_native(&omega, 100),
            Err(LangError::OutOfFuel)
        ));
        assert!(matches!(
            normalize_hoas(&omega, 100),
            Err(LangError::OutOfFuel)
        ));
    }

    #[test]
    fn generated_terms_are_closed_and_encodable() {
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..100 {
            let t = gen_closed(&mut rng, 40);
            assert!(t.free_vars().is_empty(), "not closed: {t}");
            let e = encode(&t).unwrap();
            assert!(check_encoding(&e, 0), "ill-typed encoding for {t}");
            assert!(decode(&e).unwrap().alpha_eq(&t));
        }
    }

    #[test]
    fn tree_projection_is_the_bridge_tree() {
        let t = LTerm::lam("x", LTerm::app(LTerm::var("x"), LTerm::var("x")));
        assert_eq!(to_tree(&t).to_string(), "lam(x.app(x; x))");
    }

    #[test]
    fn display_is_parseable_shape() {
        let t = LTerm::app(
            LTerm::lam("x", LTerm::var("x")),
            LTerm::lam("y", LTerm::var("y")),
        );
        assert_eq!(t.to_string(), r"(\x. x) (\y. y)");
    }
}
