//! A Mini-ML fragment — the program-manipulation setting that motivated
//! the paper (the Ergo Support System manipulated ML-family programs).
//!
//! Syntax: natural numbers (`z`, `s e`), case analysis, functions,
//! `let`, and general recursion (`fix`). The HOAS representation:
//!
//! ```text
//! type exp.
//! const z    : exp.
//! const s    : exp -> exp.
//! const case : exp -> exp -> (exp -> exp) -> exp.   % case e of z => e0 | s x => e1
//! const lam  : (exp -> exp) -> exp.
//! const app  : exp -> exp -> exp.
//! const letv : exp -> (exp -> exp) -> exp.          % let x = e1 in e2
//! const fix  : (exp -> exp) -> exp.
//! ```
//!
//! Four call-by-value evaluators are provided (experiment E8):
//! [`eval_native`] on the named AST, with hand-written substitution;
//! [`eval_beta`] directly on encodings, where every object-level
//! substitution is a metalanguage β-step
//! ([`hoas_core::normalize::happly`]); [`eval_hoas`], an environment
//! machine over the same encodings that substitutes only to read its
//! value back; and [`eval_env`], an environment machine on the named AST.

use crate::LangError;
use hoas_core::sig::Signature;
use hoas_core::{normalize, Term, Ty};
use hoas_syntaxdef::{Head, Part, Table};
use std::collections::HashSet;
use std::fmt;
use std::sync::OnceLock;

mod machine;

/// A Mini-ML expression.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Exp {
    /// Variable.
    Var(String),
    /// Zero.
    Z,
    /// Successor.
    S(Box<Exp>),
    /// `case e of z => e0 | s x => e1`.
    Case(Box<Exp>, Box<Exp>, String, Box<Exp>),
    /// Function abstraction.
    Lam(String, Box<Exp>),
    /// Application.
    App(Box<Exp>, Box<Exp>),
    /// `let x = e1 in e2`.
    Let(String, Box<Exp>, Box<Exp>),
    /// General recursion `fix x. e` (x bound to the whole expression).
    Fix(String, Box<Exp>),
}

impl Exp {
    /// Convenience constructor for a variable.
    pub fn var(x: impl Into<String>) -> Exp {
        Exp::Var(x.into())
    }
    /// Successor constructor.
    pub fn s(e: Exp) -> Exp {
        Exp::S(Box::new(e))
    }
    /// Case constructor.
    pub fn case(scrut: Exp, zero: Exp, x: impl Into<String>, succ: Exp) -> Exp {
        Exp::Case(Box::new(scrut), Box::new(zero), x.into(), Box::new(succ))
    }
    /// Abstraction constructor.
    pub fn lam(x: impl Into<String>, body: Exp) -> Exp {
        Exp::Lam(x.into(), Box::new(body))
    }
    /// Application constructor.
    pub fn app(f: Exp, a: Exp) -> Exp {
        Exp::App(Box::new(f), Box::new(a))
    }
    /// Let constructor.
    pub fn let_(x: impl Into<String>, e1: Exp, e2: Exp) -> Exp {
        Exp::Let(x.into(), Box::new(e1), Box::new(e2))
    }
    /// Fix constructor.
    pub fn fix(x: impl Into<String>, body: Exp) -> Exp {
        Exp::Fix(x.into(), Box::new(body))
    }

    /// The numeral `n` as `s (s … z)`.
    pub fn num(n: u64) -> Exp {
        let mut e = Exp::Z;
        for _ in 0..n {
            e = Exp::s(e);
        }
        e
    }

    /// Reads back a numeral value; `None` if the expression is not a
    /// numeral.
    pub fn as_num(&self) -> Option<u64> {
        let mut cur = self;
        let mut n = 0;
        loop {
            match cur {
                Exp::Z => return Some(n),
                Exp::S(e) => {
                    n += 1;
                    cur = e;
                }
                _ => return None,
            }
        }
    }

    /// α-equivalence: equality up to consistent renaming of `lam`-,
    /// `let`-, `fix`-, and `case`-bound variables, decided through the
    /// HOAS encoding (kernel term equality is α-equivalence — an O(1) id
    /// comparison in the hash-consed store). Encode/decode round-trips
    /// are stable up to `alpha_eq`, not derived `==` (the store
    /// canonicalizes binder-name hints). Expressions the encoder rejects
    /// (unbound variables) fall back to the name-sensitive derived
    /// equality.
    pub fn alpha_eq(&self, other: &Exp) -> bool {
        match (encode(self), encode(other)) {
            (Ok(a), Ok(b)) => a == b,
            _ => self == other,
        }
    }

    /// Number of AST nodes.
    pub fn size(&self) -> usize {
        match self {
            Exp::Var(_) | Exp::Z => 1,
            Exp::S(e) | Exp::Lam(_, e) | Exp::Fix(_, e) => 1 + e.size(),
            Exp::App(a, b) | Exp::Let(_, a, b) => 1 + a.size() + b.size(),
            Exp::Case(a, b, _, c) => 1 + a.size() + b.size() + c.size(),
        }
    }

    /// Free variables.
    pub fn free_vars(&self) -> HashSet<String> {
        match self {
            Exp::Var(x) => std::iter::once(x.clone()).collect(),
            Exp::Z => HashSet::new(),
            Exp::S(e) => e.free_vars(),
            Exp::Lam(x, e) | Exp::Fix(x, e) => {
                let mut fv = e.free_vars();
                fv.remove(x);
                fv
            }
            Exp::App(a, b) => {
                let mut fv = a.free_vars();
                fv.extend(b.free_vars());
                fv
            }
            Exp::Let(x, a, b) => {
                let mut fv = b.free_vars();
                fv.remove(x);
                fv.extend(a.free_vars());
                fv
            }
            Exp::Case(s, z, x, sc) => {
                let mut fv = s.free_vars();
                fv.extend(z.free_vars());
                let mut fs = sc.free_vars();
                fs.remove(x);
                fv.extend(fs);
                fv
            }
        }
    }
}

impl fmt::Display for Exp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Exp::Var(x) => f.write_str(x),
            Exp::Z => f.write_str("z"),
            Exp::S(e) => {
                if let Some(n) = self.as_num() {
                    write!(f, "{n}")
                } else {
                    write!(f, "s({e})")
                }
            }
            Exp::Case(s, z, x, sc) => {
                write!(f, "case {s} of z => {z} | s {x} => {sc}")
            }
            Exp::Lam(x, e) => write!(f, "fn {x} => {e}"),
            Exp::App(a, b) => {
                match a.as_ref() {
                    Exp::Lam(..) | Exp::Fix(..) | Exp::Let(..) | Exp::Case(..) => {
                        write!(f, "({a}) ")?
                    }
                    _ => write!(f, "{a} ")?,
                }
                match b.as_ref() {
                    Exp::Var(_) | Exp::Z => write!(f, "{b}"),
                    _ => write!(f, "({b})"),
                }
            }
            Exp::Let(x, a, b) => write!(f, "let {x} = {a} in {b}"),
            Exp::Fix(x, e) => write!(f, "fix {x}. {e}"),
        }
    }
}

/// Mini-ML as grammar text: the syntax facility compiles it to
/// [`signature`] and to the table [`encode`] and [`decode`] walk.
const GRAMMAR: &str = "language miniml {
    sort exp;
    prod z : -> exp;
    prod s : exp -> exp;
    prod case : exp exp (exp) exp -> exp;
    prod lam : (exp) exp -> exp;
    prod app : exp exp -> exp;
    prod letv : exp (exp) exp -> exp;
    prod fix : (exp) exp -> exp;
}";

productions! {
    Z = "z",
    S = "s",
    CASE = "case",
    LAM = "lam",
    APP = "app",
    LETV = "letv",
    FIX = "fix",
}

fn table() -> &'static Table {
    static TABLE: OnceLock<Table> = OnceLock::new();
    TABLE.get_or_init(|| crate::compile(GRAMMAR, PRODUCTIONS))
}

/// The HOAS signature for Mini-ML.
pub fn signature() -> &'static Signature {
    table().signature()
}

/// The representation type `exp`.
pub fn exp() -> Ty {
    Ty::base("exp")
}

/// Encodes a closed expression.
///
/// # Errors
///
/// [`LangError::UnboundVar`] on free variables.
pub fn encode(e: &Exp) -> Result<Term, LangError> {
    Ok(table().encode("exp", e, &[], |e, parts| Ok(view(e, parts)))?)
}

fn view<'a>(e: &'a Exp, parts: &mut Vec<Part<'a, &'a Exp>>) -> Head<'a> {
    use Part::{Name, Node};
    let (id, children): (u32, &[Part<'a, &'a Exp>]) = match e {
        Exp::Var(x) => return Head::Var(x),
        Exp::Z => (Z, &[]),
        Exp::S(e) => (S, &[Node(e)]),
        Exp::Case(e, zero, x, succ) => (CASE, &[Node(e), Node(zero), Name(x), Node(succ)]),
        Exp::Lam(x, body) => (LAM, &[Name(x), Node(body)]),
        Exp::App(f, a) => (APP, &[Node(f), Node(a)]),
        Exp::Let(x, e1, e2) => (LETV, &[Node(e1), Name(x), Node(e2)]),
        Exp::Fix(x, body) => (FIX, &[Name(x), Node(body)]),
    };
    parts.extend_from_slice(children);
    Head::Prod(id)
}

/// Decodes a canonical term of type `exp`.
///
/// # Errors
///
/// [`LangError::NotCanonical`] on exotic or ill-formed terms.
pub fn decode(t: &Term) -> Result<Exp, LangError> {
    let decoded = table().decode("exp", t, &[], |_, head, mut p| match head {
        Head::Var(x) => Exp::var(x),
        Head::Prod(Z) => Exp::Z,
        Head::Prod(S) => Exp::s(p.node()),
        Head::Prod(CASE) => {
            let (e, zero) = (p.node(), p.node());
            Exp::case(e, zero, p.name(), p.node())
        }
        Head::Prod(LAM) => Exp::lam(p.name(), p.node()),
        Head::Prod(APP) => Exp::app(p.node(), p.node()),
        Head::Prod(LETV) => {
            let e1 = p.node();
            Exp::let_(p.name(), e1, p.node())
        }
        Head::Prod(FIX) => Exp::fix(p.name(), p.node()),
        Head::Prod(_) | Head::Open(_) => unreachable!("not in the grammar"),
    });
    Ok(decoded?)
}

// ----------------------------------------------------------- evaluators --

/// Capture-avoiding substitution on the named AST (via the generic
/// first-order machinery would also work; written directly for a fair
/// native baseline).
pub fn subst(e: &Exp, x: &str, v: &Exp) -> Exp {
    let fvs = v.free_vars();
    fn all_names(e: &Exp, acc: &mut HashSet<String>) {
        match e {
            Exp::Var(y) => {
                acc.insert(y.clone());
            }
            Exp::Z => {}
            Exp::S(inner) => all_names(inner, acc),
            Exp::App(f, a) => {
                all_names(f, acc);
                all_names(a, acc);
            }
            Exp::Lam(y, b) | Exp::Fix(y, b) => {
                acc.insert(y.clone());
                all_names(b, acc);
            }
            Exp::Let(y, a, b) => {
                acc.insert(y.clone());
                all_names(a, acc);
                all_names(b, acc);
            }
            Exp::Case(s, z, y, sc) => {
                acc.insert(y.clone());
                all_names(s, acc);
                all_names(z, acc);
                all_names(sc, acc);
            }
        }
    }
    // The fresh name must avoid every name in the body — including nested
    // binder names, which the plain rename below would not freshen.
    fn freshen(y: &str, body: &Exp, fvs: &HashSet<String>, x: &str) -> String {
        let mut avoid: HashSet<String> = fvs.clone();
        all_names(body, &mut avoid);
        avoid.insert(x.to_string());
        hoas_firstorder::named::fresh_name(y, &avoid)
    }
    fn go(e: &Exp, x: &str, v: &Exp, fvs: &HashSet<String>) -> Exp {
        match e {
            Exp::Var(y) => {
                if y == x {
                    v.clone()
                } else {
                    e.clone()
                }
            }
            Exp::Z => Exp::Z,
            Exp::S(inner) => Exp::s(go(inner, x, v, fvs)),
            Exp::App(f, a) => Exp::app(go(f, x, v, fvs), go(a, x, v, fvs)),
            Exp::Lam(y, b) => {
                if y == x {
                    e.clone()
                } else if fvs.contains(y.as_str()) {
                    let ny = freshen(y, b, fvs, x);
                    let renamed = go(b, y, &Exp::var(ny.clone()), &HashSet::new());
                    Exp::lam(ny, go(&renamed, x, v, fvs))
                } else {
                    Exp::lam(y.clone(), go(b, x, v, fvs))
                }
            }
            Exp::Fix(y, b) => {
                if y == x {
                    e.clone()
                } else if fvs.contains(y.as_str()) {
                    let ny = freshen(y, b, fvs, x);
                    let renamed = go(b, y, &Exp::var(ny.clone()), &HashSet::new());
                    Exp::fix(ny, go(&renamed, x, v, fvs))
                } else {
                    Exp::fix(y.clone(), go(b, x, v, fvs))
                }
            }
            Exp::Let(y, e1, e2) => {
                let n1 = go(e1, x, v, fvs);
                if y == x {
                    Exp::let_(y.clone(), n1, e2.as_ref().clone())
                } else if fvs.contains(y.as_str()) {
                    let ny = freshen(y, e2, fvs, x);
                    let renamed = go(e2, y, &Exp::var(ny.clone()), &HashSet::new());
                    Exp::let_(ny, n1, go(&renamed, x, v, fvs))
                } else {
                    Exp::let_(y.clone(), n1, go(e2, x, v, fvs))
                }
            }
            Exp::Case(s, z, y, sc) => {
                let ns = go(s, x, v, fvs);
                let nz = go(z, x, v, fvs);
                if y == x {
                    Exp::case(ns, nz, y.clone(), sc.as_ref().clone())
                } else if fvs.contains(y.as_str()) {
                    let ny = freshen(y, sc, fvs, x);
                    let renamed = go(sc, y, &Exp::var(ny.clone()), &HashSet::new());
                    Exp::case(ns, nz, ny, go(&renamed, x, v, fvs))
                } else {
                    Exp::case(ns, nz, y.clone(), go(sc, x, v, fvs))
                }
            }
        }
    }
    go(e, x, v, &fvs)
}

/// Call-by-value big-step evaluation on the named AST.
///
/// # Errors
///
/// [`LangError::OutOfFuel`] on divergence (each β/δ step costs one unit),
/// [`LangError::NotCanonical`] on stuck terms (e.g. applying a numeral).
pub fn eval_native(e: &Exp, fuel: &mut u64) -> Result<Exp, LangError> {
    fn spend(fuel: &mut u64) -> Result<(), LangError> {
        if *fuel == 0 {
            Err(LangError::OutOfFuel)
        } else {
            *fuel -= 1;
            Ok(())
        }
    }
    // Tail positions (β/let/fix/case continuations) iterate via `cur`
    // instead of recursing, so divergent programs exhaust fuel rather
    // than the stack.
    let mut cur = e.clone();
    loop {
        match cur {
            Exp::Var(x) => return Err(LangError::UnboundVar(x)),
            Exp::Z | Exp::Lam(..) => return Ok(cur),
            Exp::S(inner) => return Ok(Exp::s(eval_native(&inner, fuel)?)),
            Exp::App(f, a) => {
                let fv = eval_native(&f, fuel)?;
                let av = eval_native(&a, fuel)?;
                match fv {
                    Exp::Lam(x, body) => {
                        spend(fuel)?;
                        cur = subst(&body, &x, &av);
                    }
                    other => {
                        return Err(LangError::NotCanonical(format!(
                            "application of non-function `{other}`"
                        )))
                    }
                }
            }
            Exp::Let(x, e1, e2) => {
                let v1 = eval_native(&e1, fuel)?;
                spend(fuel)?;
                cur = subst(&e2, &x, &v1);
            }
            Exp::Fix(x, body) => {
                spend(fuel)?;
                let whole = Exp::Fix(x.clone(), body.clone());
                cur = subst(&body, &x, &whole);
            }
            Exp::Case(s, z, x, sc) => {
                let sv = eval_native(&s, fuel)?;
                match sv {
                    Exp::Z => {
                        spend(fuel)?;
                        cur = *z;
                    }
                    Exp::S(pred) => {
                        spend(fuel)?;
                        cur = subst(&sc, &x, &pred);
                    }
                    other => {
                        return Err(LangError::NotCanonical(format!(
                            "case on non-numeral `{other}`"
                        )))
                    }
                }
            }
        }
    }
}

/// Call-by-value evaluation **directly on encodings**: a machine that
/// reads the interned term, keeps bound variables in a de Bruijn
/// environment of values, and runs on an explicit continuation stack.
/// Metalanguage substitution ([`hoas_core::subst::instantiate`]) is used
/// only to read back the returned value, or the stuck value an error
/// names. Returns the encoded value.
///
/// Fuel is spent as in [`eval_beta`], one unit per β, `letv`, `fix`
/// unrolling and `case` branch; on closed β-normal programs the two
/// return the same term, the same error variant and leave the same fuel.
/// η-short abstraction arguments (`lam s`, `lam (app e)`) are applied as
/// their η-expansions. Evaluation depth is bounded by the heap, not the
/// host stack.
///
/// # Errors
///
/// As for [`eval_native`].
pub fn eval_hoas(t: &Term, fuel: &mut u64) -> Result<Term, LangError> {
    machine::eval(t, fuel)
}

/// Call-by-value big-step evaluation **directly on encodings**, with
/// every object-level substitution a metalanguage β-step
/// ([`normalize::happly`]): the paper's evaluator, kept as the reference
/// [`eval_hoas`] is tested against. Returns the encoded value.
///
/// It recurses on the host stack once per nested subexpression in
/// argument position: on a thread with a 2 MiB stack, `s^n z` aborts
/// with a stack overflow between n = 2,000 and 5,000.
///
/// # Errors
///
/// As for [`eval_native`].
pub fn eval_beta(t: &Term, fuel: &mut u64) -> Result<Term, LangError> {
    fn spend(fuel: &mut u64) -> Result<(), LangError> {
        if *fuel == 0 {
            Err(LangError::OutOfFuel)
        } else {
            *fuel -= 1;
            Ok(())
        }
    }
    // As in `eval_native`, continuation positions iterate via `cur`.
    let mut cur = t.clone();
    loop {
        let (head, args) = cur.spine();
        let cname = match head {
            Term::Const(c) => c.as_str().to_string(),
            other => {
                return Err(LangError::NotCanonical(format!(
                    "evaluating open/exotic term with head `{other}`"
                )))
            }
        };
        let next = match (cname.as_str(), args.as_slice()) {
            ("z", []) => return Ok(cur.clone()),
            ("lam", [_]) => return Ok(cur.clone()),
            ("s", [e]) => return Ok(Term::app(Term::cnst("s"), eval_beta(e, fuel)?)),
            ("app", [f, a]) => {
                let fv = eval_beta(f, fuel)?;
                let av = eval_beta(a, fuel)?;
                match fv.spine() {
                    (Term::Const(c), fargs) if c.as_str() == "lam" && fargs.len() == 1 => {
                        spend(fuel)?;
                        // Object-level substitution = metalanguage β.
                        normalize::happly(fargs[0].clone(), av)
                    }
                    _ => {
                        return Err(LangError::NotCanonical(format!(
                            "application of non-function `{fv}`"
                        )))
                    }
                }
            }
            ("letv", [e1, abs]) => {
                let v1 = eval_beta(e1, fuel)?;
                spend(fuel)?;
                normalize::happly((*abs).clone(), v1)
            }
            ("fix", [abs]) => {
                spend(fuel)?;
                normalize::happly((*abs).clone(), cur.clone())
            }
            ("case", [s, z, sc]) => {
                let sv = eval_beta(s, fuel)?;
                match sv.spine() {
                    (Term::Const(c), sargs) if c.as_str() == "z" && sargs.is_empty() => {
                        spend(fuel)?;
                        (*z).clone()
                    }
                    (Term::Const(c), sargs) if c.as_str() == "s" && sargs.len() == 1 => {
                        spend(fuel)?;
                        normalize::happly((*sc).clone(), sargs[0].clone())
                    }
                    _ => {
                        return Err(LangError::NotCanonical(format!(
                            "case on non-numeral `{sv}`"
                        )))
                    }
                }
            }
            (c, _) => {
                return Err(LangError::NotCanonical(format!(
                    "`{c}` applied to {} arguments is not an exp constructor",
                    args.len()
                )))
            }
        };
        cur = next;
    }
}

// ------------------------------------------------- environment machine --

/// Runtime values of the environment-machine evaluator ([`eval_env`]):
/// the evaluator a production interpreter would use, with closures
/// instead of substitution. Included as the performance yardstick for
/// experiment E8 — both substitution-based evaluators (native and HOAS)
/// are compared against it.
#[derive(Clone, Debug)]
pub enum Value {
    /// A (fully evaluated) natural number.
    Num(u64),
    /// A function closure.
    Closure {
        /// Parameter name.
        param: String,
        /// Unevaluated body.
        body: Exp,
        /// Captured environment.
        env: Env,
    },
    /// A recursive closure (`fix f. fn param => body`); applying it binds
    /// both `fname` (to itself) and `param`.
    RecClosure {
        /// The recursive binder.
        fname: String,
        /// Parameter name.
        param: String,
        /// Unevaluated body.
        body: Exp,
        /// Captured environment.
        env: Env,
    },
}

impl Value {
    /// Reads back a numeral; `None` for closures.
    pub fn as_num(&self) -> Option<u64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }
}

/// A persistent environment (shared-tail linked list).
pub type Env = Option<std::rc::Rc<EnvNode>>;

/// One environment binding.
#[derive(Clone, Debug)]
pub struct EnvNode {
    name: String,
    value: Value,
    rest: Env,
}

fn env_push(env: &Env, name: String, value: Value) -> Env {
    Some(std::rc::Rc::new(EnvNode {
        name,
        value,
        rest: env.clone(),
    }))
}

fn env_lookup(env: &Env, x: &str) -> Option<Value> {
    let mut cur = env;
    while let Some(node) = cur {
        if node.name == x {
            return Some(node.value.clone());
        }
        cur = &node.rest;
    }
    None
}

/// Call-by-value evaluation with an environment machine (closures, no
/// substitution at all).
///
/// # Errors
///
/// [`LangError::OutOfFuel`] on divergence; [`LangError::NotCanonical`]
/// on stuck terms and on `fix` whose body is not a λ (the environment
/// machine, unlike the substitution evaluators, supports only function
/// recursion — the standard restriction).
pub fn eval_env(e: &Exp, fuel: &mut u64) -> Result<Value, LangError> {
    fn spend(fuel: &mut u64) -> Result<(), LangError> {
        if *fuel == 0 {
            Err(LangError::OutOfFuel)
        } else {
            *fuel -= 1;
            Ok(())
        }
    }
    // Tail positions (application bodies, let bodies, case branches)
    // iterate via `cur`/`env` so recursion stays bounded by program
    // nesting, not by evaluation length.
    fn go(e: &Exp, env: &Env, fuel: &mut u64) -> Result<Value, LangError> {
        let mut cur = e.clone();
        let mut env = env.clone();
        loop {
            match cur {
                Exp::Var(x) => {
                    return env_lookup(&env, &x).ok_or(LangError::UnboundVar(x));
                }
                Exp::Z => return Ok(Value::Num(0)),
                Exp::S(inner) => {
                    return match go(&inner, &env, fuel)? {
                        Value::Num(n) => Ok(Value::Num(n + 1)),
                        other => Err(LangError::NotCanonical(format!(
                            "successor of non-number {other:?}"
                        ))),
                    }
                }
                Exp::Case(s, z, x, sc) => match go(&s, &env, fuel)? {
                    Value::Num(0) => {
                        spend(fuel)?;
                        cur = *z;
                    }
                    Value::Num(n) => {
                        spend(fuel)?;
                        env = env_push(&env, x, Value::Num(n - 1));
                        cur = *sc;
                    }
                    other => {
                        return Err(LangError::NotCanonical(format!(
                            "case on non-number {other:?}"
                        )))
                    }
                },
                Exp::Lam(x, body) => {
                    return Ok(Value::Closure {
                        param: x,
                        body: *body,
                        env,
                    })
                }
                Exp::App(f, a) => {
                    let fv = go(&f, &env, fuel)?;
                    let av = go(&a, &env, fuel)?;
                    spend(fuel)?;
                    match fv {
                        Value::Closure {
                            param,
                            body,
                            env: cenv,
                        } => {
                            env = env_push(&cenv, param, av);
                            cur = body;
                        }
                        Value::RecClosure {
                            fname,
                            param,
                            body,
                            env: cenv,
                        } => {
                            let rec = Value::RecClosure {
                                fname: fname.clone(),
                                param: param.clone(),
                                body: body.clone(),
                                env: cenv.clone(),
                            };
                            env = env_push(&env_push(&cenv, fname, rec), param, av);
                            cur = body;
                        }
                        other => {
                            return Err(LangError::NotCanonical(format!(
                                "application of non-function {other:?}"
                            )))
                        }
                    }
                }
                Exp::Let(x, e1, e2) => {
                    let v1 = go(&e1, &env, fuel)?;
                    spend(fuel)?;
                    env = env_push(&env, x, v1);
                    cur = *e2;
                }
                Exp::Fix(f, body) => {
                    return match *body {
                        Exp::Lam(param, b) => Ok(Value::RecClosure {
                            fname: f,
                            param,
                            body: *b,
                            env,
                        }),
                        other => Err(LangError::NotCanonical(format!(
                            "environment machine supports only `fix f. fn x => …`, got `{other}`"
                        ))),
                    }
                }
            }
        }
    }
    go(e, &None, fuel)
}

// --------------------------------------------------------- sample programs --

/// `add = fix add. fn m => fn n => case m of z => n | s m' => s (add m' n)`.
pub fn add_fn() -> Exp {
    Exp::fix(
        "add",
        Exp::lam(
            "m",
            Exp::lam(
                "n",
                Exp::case(
                    Exp::var("m"),
                    Exp::var("n"),
                    "m'",
                    Exp::s(Exp::app(
                        Exp::app(Exp::var("add"), Exp::var("m'")),
                        Exp::var("n"),
                    )),
                ),
            ),
        ),
    )
}

/// `mul`, defined with [`add_fn`] bound by a `let`.
pub fn mul_fn() -> Exp {
    Exp::let_(
        "add",
        add_fn(),
        Exp::fix(
            "mul",
            Exp::lam(
                "m",
                Exp::lam(
                    "n",
                    Exp::case(
                        Exp::var("m"),
                        Exp::Z,
                        "m'",
                        Exp::app(
                            Exp::app(Exp::var("add"), Exp::var("n")),
                            Exp::app(Exp::app(Exp::var("mul"), Exp::var("m'")), Exp::var("n")),
                        ),
                    ),
                ),
            ),
        ),
    )
}

/// `fact`, via [`mul_fn`].
pub fn fact_fn() -> Exp {
    Exp::let_(
        "mul",
        mul_fn(),
        Exp::fix(
            "fact",
            Exp::lam(
                "n",
                Exp::case(
                    Exp::var("n"),
                    Exp::num(1),
                    "n'",
                    Exp::app(
                        Exp::app(Exp::var("mul"), Exp::var("n")),
                        Exp::app(Exp::var("fact"), Exp::var("n'")),
                    ),
                ),
            ),
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_native(e: &Exp) -> Exp {
        let mut fuel = 1_000_000;
        eval_native(e, &mut fuel).unwrap()
    }

    /// Runs both HOAS evaluators, which must agree on the value and the
    /// fuel left.
    fn run_hoas(e: &Exp) -> Exp {
        let t = encode(e).unwrap();
        let (mut fuel, mut beta_fuel) = (1_000_000, 1_000_000);
        let v = eval_hoas(&t, &mut fuel).unwrap();
        assert_eq!(eval_beta(&t, &mut beta_fuel).unwrap(), v);
        assert_eq!(fuel, beta_fuel);
        decode(&v).unwrap()
    }

    #[test]
    fn encode_decode_roundtrip() {
        let e = Exp::let_(
            "f",
            Exp::lam("x", Exp::s(Exp::var("x"))),
            Exp::app(Exp::var("f"), Exp::num(2)),
        );
        let t = encode(&e).unwrap();
        hoas_core::typeck::check_closed(signature(), &t, &exp()).unwrap();
        // Round-trips hold up to α-equivalence (binder hints are
        // canonicalized by the interned store).
        assert!(decode(&t).unwrap().alpha_eq(&e));
    }

    #[test]
    fn numerals() {
        assert_eq!(Exp::num(3).as_num(), Some(3));
        assert_eq!(Exp::num(0), Exp::Z);
        assert_eq!(Exp::var("x").as_num(), None);
        assert_eq!(Exp::num(3).to_string(), "3");
    }

    #[test]
    fn addition_both_evaluators() {
        let prog = Exp::app(Exp::app(add_fn(), Exp::num(3)), Exp::num(4));
        assert_eq!(run_native(&prog).as_num(), Some(7));
        assert_eq!(run_hoas(&prog).as_num(), Some(7));
    }

    #[test]
    fn multiplication_both_evaluators() {
        let prog = Exp::app(Exp::app(mul_fn(), Exp::num(3)), Exp::num(5));
        assert_eq!(run_native(&prog).as_num(), Some(15));
        assert_eq!(run_hoas(&prog).as_num(), Some(15));
    }

    #[test]
    fn factorial_both_evaluators() {
        let prog = Exp::app(fact_fn(), Exp::num(5));
        assert_eq!(run_native(&prog).as_num(), Some(120));
        assert_eq!(run_hoas(&prog).as_num(), Some(120));
    }

    #[test]
    fn case_zero_branch() {
        let prog = Exp::case(Exp::Z, Exp::num(9), "x", Exp::var("x"));
        assert_eq!(run_native(&prog).as_num(), Some(9));
        assert_eq!(run_hoas(&prog).as_num(), Some(9));
    }

    #[test]
    fn shadowing_respected() {
        // let x = 1 in let x = 2 in x  ==>  2
        let prog = Exp::let_("x", Exp::num(1), Exp::let_("x", Exp::num(2), Exp::var("x")));
        assert_eq!(run_native(&prog).as_num(), Some(2));
        assert_eq!(run_hoas(&prog).as_num(), Some(2));
    }

    #[test]
    fn capture_avoidance_in_native_subst() {
        // (fn x => fn y => x) y — substituting y for x under λy must rename.
        let inner = Exp::lam("y", Exp::var("x"));
        let substituted = subst(&inner, "x", &Exp::var("y"));
        match &substituted {
            Exp::Lam(b, body) => {
                assert_ne!(b, "y");
                assert_eq!(body.as_ref(), &Exp::var("y"));
            }
            other => panic!("expected λ, got {other}"),
        }
    }

    #[test]
    fn divergence_is_fuel_limited() {
        let omega = Exp::fix("x", Exp::var("x"));
        let mut fuel = 1000;
        assert!(matches!(
            eval_native(&omega, &mut fuel),
            Err(LangError::OutOfFuel)
        ));
        let t = encode(&omega).unwrap();
        for eval in [eval_hoas, eval_beta] {
            let mut fuel = 1000;
            assert!(matches!(eval(&t, &mut fuel), Err(LangError::OutOfFuel)));
        }
    }

    #[test]
    fn stuck_terms_reported() {
        let bad = Exp::app(Exp::Z, Exp::Z);
        let mut fuel = 100;
        assert!(matches!(
            eval_native(&bad, &mut fuel),
            Err(LangError::NotCanonical(_))
        ));
        let t = encode(&bad).unwrap();
        for eval in [eval_hoas, eval_beta] {
            let mut fuel = 100;
            assert!(matches!(
                eval(&t, &mut fuel),
                Err(LangError::NotCanonical(_))
            ));
        }
    }

    #[test]
    fn decode_rejects_exotic_case_branch() {
        // case z z (s) — branch is the constant s, not a λ: exotic.
        let exotic = Term::apps(
            Term::cnst("case"),
            [Term::cnst("z"), Term::cnst("z"), Term::cnst("s")],
        );
        assert!(matches!(decode(&exotic), Err(LangError::NotCanonical(_))));
    }

    #[test]
    fn evaluators_agree_on_open_failure() {
        let mut fuel = 10;
        assert!(matches!(
            eval_native(&Exp::var("ghost"), &mut fuel),
            Err(LangError::UnboundVar(_))
        ));
    }
}

#[cfg(test)]
mod env_tests {
    use super::*;

    fn run_env(e: &Exp) -> Value {
        let mut fuel = 1_000_000;
        eval_env(e, &mut fuel).unwrap()
    }

    #[test]
    fn env_machine_agrees_with_substitution_evaluators() {
        let progs = vec![
            Exp::app(Exp::app(add_fn(), Exp::num(3)), Exp::num(4)),
            Exp::app(Exp::app(mul_fn(), Exp::num(3)), Exp::num(5)),
            Exp::app(fact_fn(), Exp::num(5)),
            Exp::let_("x", Exp::num(1), Exp::let_("x", Exp::num(2), Exp::var("x"))),
            Exp::case(Exp::num(3), Exp::Z, "p", Exp::var("p")),
        ];
        for p in progs {
            let mut f1 = 1_000_000;
            let native = eval_native(&p, &mut f1).unwrap();
            assert_eq!(run_env(&p).as_num(), native.as_num(), "{p}");
        }
    }

    #[test]
    fn env_machine_closures_capture_statically() {
        // let y = 1 in let f = fn x => y in let y = 9 in f z  ==>  1
        // (static scoping: the closure captures the y at definition time).
        let p = Exp::let_(
            "y",
            Exp::num(1),
            Exp::let_(
                "f",
                Exp::lam("x", Exp::var("y")),
                Exp::let_("y", Exp::num(9), Exp::app(Exp::var("f"), Exp::Z)),
            ),
        );
        assert_eq!(run_env(&p).as_num(), Some(1));
        // Substitution evaluators agree, of course.
        let mut fuel = 1000;
        assert_eq!(eval_native(&p, &mut fuel).unwrap().as_num(), Some(1));
    }

    #[test]
    fn env_machine_rejects_exotic_fix() {
        let p = Exp::fix("x", Exp::var("x"));
        let mut fuel = 1000;
        assert!(matches!(
            eval_env(&p, &mut fuel),
            Err(LangError::NotCanonical(_))
        ));
    }

    #[test]
    fn env_machine_fuel() {
        // fix f. fn x => f x applied — diverges.
        let p = Exp::app(
            Exp::fix("f", Exp::lam("x", Exp::app(Exp::var("f"), Exp::var("x")))),
            Exp::Z,
        );
        let mut fuel = 1000;
        assert!(matches!(eval_env(&p, &mut fuel), Err(LangError::OutOfFuel)));
    }

    #[test]
    fn values_read_back() {
        assert_eq!(run_env(&Exp::num(4)).as_num(), Some(4));
        assert!(run_env(&Exp::lam("x", Exp::var("x"))).as_num().is_none());
    }
}
